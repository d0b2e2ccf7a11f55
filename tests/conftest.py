"""Shared fixtures and random-term generators for the test suite."""

import random
from typing import get_args

import pytest

from sepstore.fuzz import INTS, fuzz_config
from sepstore.semantics import Fail, Tester
from sepstore.syntax import (
    And, Assertion, Assign, BinOp, Chain, Diamond, Emp, Eq, EvalAt, Exists,
    FalseA, Forall, Free, If, Implies, IntLit, LetDeref, LetNew, Leq, Mu, Or,
    PointsTo, Quote, RelVar, Seq, Skip, Star, Tensor, Triple, TrueA, Var,
    children, free_vars, halves, substitute,
)


@pytest.fixture(scope="session")
def lean_tester():
    """One shared tester on the small fuzz universe; caches carry over."""
    return Tester(fuzz_config())


# ---------------------------------------------------------------------------
# random grammar-representable terms
#
# Binder names are globally unique within a term and disjoint from the
# free-variable alphabet.  parse(pretty(t)) == t holds for shadowing terms
# too, since the parser keeps the names it reads; the uniqueness stays
# because the golden traversal corpus draws its terms from these
# generators.


class Names:
    def __init__(self):
        self.n = 0

    def fresh(self):
        self.n += 1
        return f"b{self.n}"


FREE_NAMES = ("x", "y", "z")


def rand_expr(rng, depth=2):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return IntLit(rng.randrange(0, 5))
    if roll < 0.6:
        return Var(rng.choice(FREE_NAMES))
    if roll < 0.9:
        return BinOp(rng.choice("+-*"),
                     rand_expr(rng, depth - 1), rand_expr(rng, depth - 1))
    return Quote(rand_cmd(rng, Names(), depth - 1))


def rand_cmd(rng, names, depth=2):
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        return Skip()
    if roll < 0.35:
        return Assign(rand_expr(rng, 1), rand_expr(rng, 1))
    if roll < 0.45:
        return EvalAt(rand_expr(rng, 1))
    if roll < 0.55:
        return Free(rand_expr(rng, 1))
    if roll < 0.65:
        v = names.fresh()
        return LetDeref(v, rand_expr(rng, 1), rand_cmd(rng, names, depth - 1))
    if roll < 0.75:
        v = names.fresh()
        inits = tuple(rand_expr(rng, 1)
                      for _ in range(rng.randrange(1, 3)))
        return LetNew(v, inits, rand_cmd(rng, names, depth - 1))
    if roll < 0.9:
        return Seq((rand_cmd(rng, names, depth - 1),
                    rand_cmd(rng, names, depth - 1)))
    return If(rand_expr(rng, 1), rand_expr(rng, 1),
              rand_cmd(rng, names, depth - 1), rand_cmd(rng, names, depth - 1))


def rand_asn(rng, names=None, depth=3):
    names = names or Names()
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        atom = rng.random()
        if atom < 0.1:
            return TrueA()
        if atom < 0.2:
            return FalseA()
        if atom < 0.3:
            return Emp()
        if atom < 0.55:
            return PointsTo(rand_expr(rng, 1), rand_expr(rng, 1))
        if atom < 0.8:
            return Eq(rand_expr(rng, 1), rand_expr(rng, 1))
        return Leq(rand_expr(rng, 1), rand_expr(rng, 1))
    sub = lambda: rand_asn(rng, names, depth - 1)
    if roll < 0.42:
        return Star((sub(), sub()))
    if roll < 0.52:
        return And((sub(), sub()))
    if roll < 0.6:
        return Or((sub(), sub()))
    if roll < 0.68:
        return Implies(sub(), sub())
    if roll < 0.74:
        return Tensor(sub(), sub())
    if roll < 0.82:
        quant = Forall if rng.random() < 0.5 else Exists
        v = names.fresh()
        return quant(v, rand_asn(rng, names, depth - 1))
    if roll < 0.9:
        return Triple(sub(), rand_expr(rng, 1), sub())
    if roll < 0.95:
        return Diamond(sub())
    # a recursive assertion; the body keeps X under a triple so the term
    # stays formally contractive
    x = f"X{names.fresh()}"
    return Mu(x, (), Triple(Star((RelVar(x), sub())), rand_expr(rng, 1),
                            sub()), ())


def rand_term(rng):
    """A random assertion, command or expression, tagged by kind."""
    roll = rng.random()
    if roll < 0.5:
        return "assertion", rand_asn(rng)
    if roll < 0.8:
        return "program", rand_cmd(rng, Names())
    return "expr", rand_expr(rng)


def term_corpus(seed, n):
    rng = random.Random(seed)
    return [rand_term(rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# entailment pairs for checking the entailer against the model


_ASSERTIONS = frozenset(get_args(Assertion))


def _sub_assertions(P):
    """The assertion sub-terms of P, P included, in pre-order, that mention
    no variable or relation variable bound above them.  A chain is walked
    as its binary tree (syntax.halves), so the node of each of its
    prefixes is a sub-term too."""
    out, stack = [], [P]
    while stack:
        t = stack.pop()
        if type(t) in _ASSERTIONS:
            fv, frv = free_vars(t)
            if fv <= set(FREE_NAMES) and not frv:
                out.append(t)
        stack.extend(reversed(halves(t) if isinstance(t, Chain)
                              else list(children(t))))
    return out


SHAPES = ("unrelated", "conjunct", "subterm", "instance", "frame",
          "frame_weaken", "frame_unrelated", "emp_lhs", "emp_rhs")


def entail_pairs(seed, depth=2):
    """One pair (P, Q) per shape of SHAPES, drawn from rand_asn terms A, B
    and a frame F on one seed.  F' is F drawn again with other binder
    names, so it equals F up to alpha, and e is an integer of the fuzz
    model's int_pool, the range of its quantifiers:
      unrelated        A => B
      conjunct         A /\\ B => A
      subterm          A => a sub-term of A
      instance         A[x := e] => exists v. A[x := v]
      frame            A * F => F' * A
      frame_weaken     A * F => F' * (A \\/ B)
      frame_unrelated  A * F => F' * B
      emp_lhs          emp => (emp \\/ A) * (emp \\/ B)
      emp_rhs          (emp /\\ A) * (emp /\\ B) => emp
    The last two have a side that is emp alone; they are built from A and
    B, so they move no draw of the shapes before them.
    """
    rng = random.Random(seed)
    names = Names()
    A = rand_asn(rng, names, depth)
    B = rand_asn(rng, names, depth)
    state = rng.getstate()
    F = rand_asn(rng, names, depth)
    rng.setstate(state)
    renamed = Names()
    renamed.n = names.n + 100
    F2 = rand_asn(rng, renamed, depth)
    e = IntLit(rng.choice(INTS))
    v = names.fresh()
    return dict(zip(SHAPES, (
        (A, B),
        (And((A, B)), A),
        (A, rng.choice(_sub_assertions(A))),
        (substitute(A, {"x": e}), Exists(v, substitute(A, {"x": Var(v)}))),
        (Star((A, F)), Star((F2, A))),
        (Star((A, F)), Star((F2, Or((A, B))))),
        (Star((A, F)), Star((F2, B))),
        (Emp(), Star((Or((Emp(), A)), Or((Emp(), B))))),
        (Star((And((Emp(), A)), And((Emp(), B)))), Emp()),
    )))


def model_refutes(tester, P, Q):
    """None if the model passes P => Q; else the cause of the refutation:
    "bot-diamond" for one at the bottom heap with <> on the right (the
    known _member_diamond defect: <> of a pure body excludes bottom),
    "refuted" for any other."""
    verdict = tester.test_entailment(P, Q)
    if not isinstance(verdict, Fail):
        return None
    if verdict.witness.heap.is_bot and _has_diamond(Q):
        return "bot-diamond"
    return "refuted"


def _has_diamond(P):
    return type(P) is Diamond or any(map(_has_diamond, children(P)))
