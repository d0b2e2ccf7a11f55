"""Proof-script checker for the assertion logic.

A proof is a tree of nodes, each naming a rule, an instantiation, premise
subtrees and a stated conclusion (hypotheses + goal).  Each rule is one
function building the conclusion it licenses, which checking compares with
the stated one: conclusions are never trusted.  The kernel has separation/
heap rules, invariant-distribution axioms, recursion rules and a natural-
deduction layer; derived rules are built from kernel rule applications.
A small decidable entailment engine (entail_basic) discharges the obvious
implication premises, and a negative registry rejects known-unsound rule
names with an explanation.

Each pure function of terms on the entailer's path (normal forms,
unfolding, witness candidates, binder openings) is tabled in the registry
syntax.TABLES.  The entailer's memo key is the pair of canonical serials
of the unit-stripped sides.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import get_args

from .grammar import parse, pretty
from .interp import EMPTY_ENV, IntVal, TypeFault, UnboundVariable, eval_expr
from .syntax import (
    And, Assertion, Assign, BinOp, Diamond, Emp, Eq, EvalAt, Exists, FalseA,
    Forall, Free, If, Implies, IntLit, Judgement, LetDeref, LetNew, Leq, Mu,
    Or, PointsTo, PSEUDO_PURE, PURE, Quote, RelVar, Seq, Skip, Star, TABLES,
    Tensor, Triple, TrueA, ValueLit, Var, canon_key, children, circ, classify,
    conj, contractive_in, equal_mod_ac, flatten, free_vars, fresh_name,
    halves, join, map_children, replace, star, substitute, unfold,
)


# ---------------------------------------------------------------------------
# errors and report


class ProofError(Exception):
    pass


class UnknownRule(ProofError):
    def __init__(self, name, info=None):
        self.name = name
        self.info = info
        msg = f"unknown rule {name!r}"
        if info:
            msg = f"rule {name!r} is rejected: {info}"
        super().__init__(msg)


class SchemaMismatch(ProofError):
    pass


class SideConditionViolation(ProofError):
    pass


class ScriptError(ProofError):
    pass


@dataclass(frozen=True)
class ProofNode:
    rule: str
    params: tuple = ()        # of (key, value); value is a raw string or AST
    premises: tuple = ()      # of ProofNode
    conclusion: Judgement = Judgement()


@dataclass
class CheckReport:
    ok: bool
    failures: list = field(default_factory=list)   # of (path, message)
    stats: Counter = field(default_factory=Counter)


def _param_items(params) -> tuple:
    """(key, value) pairs of a parameter dict; a tuple or list value gives
    one pair per element, and None gives none."""
    items = []
    for k, v in params.items():
        if isinstance(v, (tuple, list)):
            items.extend((k, x) for x in v)
        elif v is not None:
            items.append((k, v))
    return tuple(items)


def make_node(rule, premises=(), conclude=None, hyps=(), **params) -> ProofNode:
    """Programmatic node builder; `conclude` is the goal assertion."""
    return ProofNode(rule, _param_items(params), tuple(premises),
                     Judgement(hyps=tuple(hyps), goal=conclude))


# ---------------------------------------------------------------------------
# negative registry

REJECTED = {
    "DeepFrameAxiom":
        "the assertion-level deep frame axiom {P}e{Q} => ({P}e{Q})(*)R is "
        "unsound: applying it selectively to one of two copies of a stored "
        "command builds a proof for a program that always faults (see the "
        "`counterexamples` subcommand, entry deep-frame)",
    "In":
        "folding a pseudo-pure hypothesis back into a precondition is "
        "unsound: together with recursive assertions it derives "
        "{emp}'skip'{false} from the valid implication emp => "
        "mu X.{X}'skip'{false} (entry in-rule)",
    "In-T":
        "the nested-triple instance of the folding rule fails for the same "
        "reason as In: the hypothesis must hold one rank higher than the "
        "conclusion provides (entry in-rule)",
    "DiamondIn":
        "even with the rank-shift modality <> on the hypothesis the folding "
        "direction fails: separating conjunction does not preserve rank, so "
        "the shifted hypothesis cannot be re-established for subheaps",
    "Conj":
        "conjoining two triples about the same code into a triple with "
        "conjoined pre/postconditions is unsound without restricting the "
        "assertions to precise ones; no such restriction is implemented",
    "DoubleNegationElim":
        "the assertion logic is intuitionistic: eliminating double negation "
        "together with the invariant-extension frame rule makes the logic "
        "inconsistent",
    "InvarianceNonPure":
        "invariance with a merely pseudo-pure conjunct is unsound: the "
        "conjunct can hold at the call rank yet fail at the smaller ranks "
        "the triple quantifies over (entry invariance, tag-mismatch witness)",
    "InvarianceR":
        "the restricted entailment form of non-pure invariance fails too: "
        "e|->e0 * (e1|->e0 /\\ phi) => (e|->e0 /\\ phi) * (e1|->e0 /\\ phi) "
        "has a tag-mismatch countermodel (entry invariance)",
}


# ---------------------------------------------------------------------------
# per-node tables, in the registry syntax.TABLES (syntax docstring)

_STRIPPED = TABLES["_strip_units"] = {}
_NORMALIZED = TABLES["normalize_otimes"] = {}
_PRENEX = TABLES["prenex"] = {}
_ABSURD = TABLES["lhs_absurd"] = {}
_UNFOLDED = TABLES["unfold_mu"] = {}
_WITNESSES = TABLES["_witnesses"] = {}
_OPENED = TABLES["_open"] = {}


# ---------------------------------------------------------------------------
# small assertion utilities


def iff(a, b):
    return And((Implies(a, b), Implies(b, a)))


def match_iff(goal):
    """Decompose (A => B) /\\ (B => A) into (A, B); None if not that
    shape."""
    if type(goal) is not And:
        return None
    l, r = halves(goal)
    if type(l) is not Implies or type(r) is not Implies:
        return None
    if equal_mod_ac(l.left, r.right) and equal_mod_ac(l.right, r.left):
        return l.left, l.right
    return None


def _subtract(parts, to_remove):
    """Multiset difference mod AC: (parts without one part equal to each
    element of to_remove, the elements of to_remove that had none)."""
    rest, unmatched = list(parts), []
    for t in to_remove:
        key = canon_key(t)
        for i, p in enumerate(rest):
            if canon_key(p) is key:
                del rest[i]
                break
        else:
            unmatched.append(t)
    return rest, unmatched


def _conj_remove(parts, phi):
    """Remove phi from a flattened conjunction, part by part when phi is
    itself a conjunction; None if absent."""
    rest = parts_diff(parts, [phi])
    if rest is None and type(phi) is And:
        rest = parts_diff(parts, flatten(phi, And))
    return rest


def parts_diff(parts, to_remove):
    """Multiset difference; None if some element of to_remove is absent."""
    rest, unmatched = _subtract(parts, to_remove)
    return None if unmatched else rest


def pt_wild(e):
    """The anonymous points-to e |-> _ in desugared form."""
    z = fresh_name("v", free_vars(e)[0])
    return Exists(z, PointsTo(e, Var(z)))


def is_pt_wild(part):
    """The address e if part is (a renaming of) e |-> _, else None."""
    if type(part) is Exists and type(part.body) is PointsTo:
        p = part.body
        if type(p.value) is Var and p.value.name == part.var \
                and part.var not in free_vars(p.addr)[0]:
            return p.addr
    return None


def part_addr(part):
    """The serial of the canonical address of a part that pins down one
    heap cell."""
    bound = part.var if type(part) is Exists else None
    for a in flatten(part if bound is None else part.body, And):
        if type(a) is PointsTo and (bound is None
                                    or bound not in free_vars(a.addr)[0]):
            return canon_key(a.addr)._id
    return None


def _quantify(quant, xs, body):
    """quant x1. ... quant xn. body"""
    for x in reversed(tuple(xs)):
        body = quant(x, body)
    return body


def unfold_mu(m: Mu):
    """One unfolding: the body with the bound relation variable replaced
    by the recursive assertion and parameters by the arguments."""
    out = _UNFOLDED.get(m._id)
    if out is not None:
        return out
    out = unfold(m, replace(m, args=tuple(Var(p) for p in m.params)))
    _UNFOLDED[m._id] = out
    return out


# ---------------------------------------------------------------------------
# distribution of invariant extension

_ATOM_TYPES = (TrueA, FalseA, Emp, Eq, Leq, PointsTo)
# the assertion classes with sub-assertions
_CONNECTIVES = frozenset(get_args(Assertion)).difference(_ATOM_TYPES,
                                                         (RelVar,))
_BIN_TYPES = (Implies, And, Or, Star)


def dist_step(L, R):
    """One outward-to-inward rewrite of L (*) R; None if stuck."""
    t = type(L)
    if t is Triple:
        return Triple(circ(L.pre, R), L.code, circ(L.post, R))
    if t is Tensor:
        return Tensor(L.left, circ(L.right, R))
    if t in (Forall, Exists):
        x, body = L.var, L.body
        if x in free_vars(R)[0]:
            x2 = fresh_name(x, free_vars(R)[0] | free_vars(body)[0] | {x})
            body = substitute(body, {x: Var(x2)})
            x = x2
        return t(x, Tensor(body, R))
    if t in _BIN_TYPES:
        left, right = halves(L)
        return join(t, Tensor(left, R), Tensor(right, R))
    if t in _ATOM_TYPES:
        return L
    return None  # Mu, RelVar, Diamond: stuck until unfolded


def normalize_otimes(P):
    """Push every invariant extension inward as far as the distribution
    axioms allow; extensions over recursive assertions, relation variables
    and the rank modality are left in place."""
    if type(P) not in _CONNECTIVES:
        return P
    out = _NORMALIZED.get(P._id)
    if out is not None:
        return out
    if type(P) is Tensor:
        left, right = normalize_otimes(P.left), normalize_otimes(P.right)
        step = dist_step(left, right)
        out = Tensor(left, right) if step is None else normalize_otimes(step)
    else:
        out = map_children(P, normalize_otimes)
    _NORMALIZED[P._id] = out
    return out


def circ_n(P, R):
    """Invariant combination with the extension already distributed."""
    return Star((normalize_otimes(Tensor(P, R)), R))


# ---------------------------------------------------------------------------
# ground evaluation


def ground_truth(A):
    """Truth value of a closed pure assertion; None when undecided."""
    t = type(A)
    if t is TrueA:
        return True
    if t is FalseA:
        return False
    if t not in (Eq, Leq, And, Or, Implies):
        return None
    if t in (Eq, Leq):
        try:
            a = eval_expr(A.left, EMPTY_ENV)
            b = eval_expr(A.right, EMPTY_ENV)
        except (TypeFault, UnboundVariable):
            return None
        if t is Eq:
            return a == b
        if isinstance(a, IntVal) and isinstance(b, IntVal):
            return a.n <= b.n
        return None
    # three-valued: a part that is undecided leaves the result open unless
    # another part decides it alone
    if t is Implies:                        # a => b is (not a) \/ b
        l, r = ground_truth(A.left), ground_truth(A.right)
        values = (l if l is None else not l, r)
    else:
        values = list(map(ground_truth, A.parts))
    decisive = t is not And
    if decisive in values:
        return decisive
    return None if None in values else not decisive


# ---------------------------------------------------------------------------
# decidable entailment fragment


def prenex(P):
    """Pull existentials out of star- and and-components (an equivalence,
    since the binders do not occur in the siblings)."""
    t = type(P)
    if t not in (Star, And, Exists):
        return P
    out = _PRENEX.get(P._id)
    if out is not None:
        return out
    if t is Exists:
        out = Exists(P.var, prenex(P.body))
    else:
        left, right = map(prenex, halves(P))
        binders = []

        def strip(side, other):
            while type(side) is Exists:
                x = side.var
                if x in free_vars(other)[0] or x in binders:
                    x2 = fresh_name(x, free_vars(other)[0]
                                    | free_vars(side.body)[0]
                                    | set(binders) | {x})
                    side = Exists(x2, substitute(side.body, {x: Var(x2)}))
                    continue
                binders.append(x)
                side = side.body
            return side

        left = strip(left, right)
        right = strip(right, left)
        out = _quantify(Exists, binders, join(t, left, right))
    _PRENEX[P._id] = out
    return out


# the witness offered when no sub-expression fits (_Entailer._instances)
_ZERO = IntLit(0)


def _witnesses(ast) -> tuple:
    """The sub-expressions of ast usable as quantifier witnesses (integers,
    variables, arithmetic and quoted code), one per canonical form, in
    pre-order of first occurrence; the walk enters no witness but a BinOp."""
    out = _WITNESSES.get(ast._id)
    if out is not None:
        return out
    t = type(ast)
    if t in (IntLit, Var, Quote):
        out = (ast,)
    else:
        found = [ast] if t is BinOp else []
        seen = {canon_key(w)._id for w in found}
        for c in children(ast):
            for w in _witnesses(c):
                k = canon_key(w)._id
                if k not in seen:
                    seen.add(k)
                    found.append(w)
        out = tuple(found)
    _WITNESSES[ast._id] = out
    return out


def lhs_absurd(P) -> bool:
    """Whether P is unsatisfiable by the star laws and ground facts."""
    t = type(P)
    if t not in (And, Star, Exists):
        return ground_truth(P) is False
    out = _ABSURD.get(P._id)
    if out is not None:
        return out
    if ground_truth(P) is False:
        out = True
    elif t is And:
        out = any(lhs_absurd(p) for p in flatten(P, And))
    elif t is Star:
        parts = flatten(P)
        addrs = [a for a in map(part_addr, parts) if a is not None]
        out = any(lhs_absurd(p) for p in parts) \
            or len(addrs) != len(set(addrs))
    else:
        out = lhs_absurd(P.body)
    _ABSURD[P._id] = out
    return out


def _unfold_first_mu(P):
    """One unfolding step applied to P itself or to its first mu star-part;
    None when there is nothing to unfold."""
    if type(P) is Mu:
        return normalize_otimes(unfold_mu(P))
    if type(P) is Star:
        parts = flatten(P)
        for i, p in enumerate(parts):
            if type(p) is Mu:
                opened = normalize_otimes(unfold_mu(p))
                return star(*parts[:i], opened, *parts[i + 1:])
    return None


def _strip_units(a):
    """Remove emp units under * everywhere; keeps the memo key of an
    entailment problem in step with its structure."""
    if type(a) not in _CONNECTIVES:
        return a
    out = _STRIPPED.get(a._id)
    if out is not None:
        return out
    out = map_children(a, _strip_units)
    if type(out) is Star:   # each binary * drops an emp operand
        parts = [p for p in out.parts if type(p) is not Emp]
        if len(parts) < len(out.parts):
            out = star(*parts)
    _STRIPPED[a._id] = out
    return out


def _open(P, x, e):
    """substitute(P, {x: e}): a quantifier body at a witness, or P
    rewritten by an equality; keyed by (P._id, x, e._id)."""
    key = (P._id, x, e._id)
    out = _OPENED.get(key)
    if out is not None:
        return out
    out = substitute(P, {x: e})
    _OPENED[key] = out
    return out


class _Entailer:
    MAX_DEPTH = 60
    MAX_WITNESSES = 24

    def __init__(self, budget):
        self.budget = budget
        self.memo = {}

    def run(self, P, Q) -> bool:
        return self.ent(normalize_otimes(P), normalize_otimes(Q),
                        self.budget, 0)

    def ent(self, P, Q, mu, depth) -> bool:
        if depth > self.MAX_DEPTH:
            return False
        P, Q = _strip_units(P), _strip_units(Q)
        key = (canon_key(P)._id, canon_key(Q)._id, mu)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.memo[key] = False  # cut cycles pessimistically
        result = self._ent(P, Q, mu, depth + 1)
        self.memo[key] = result
        return result

    def _ent(self, P, Q, mu, d) -> bool:
        if equal_mod_ac(P, Q):
            return True
        if type(Q) is TrueA or type(P) is FalseA:
            return True
        if ground_truth(Q) is True:
            return True
        if lhs_absurd(P):
            return True

        # frame first: * is monotone, so dropping the parts both sides
        # share (up to AC) leaves an entailment that implies this one,
        # tried before prenex pulls the frame's quantifiers out; the last
        # step matches what is left
        is_star = type(P) is Star or type(Q) is Star
        if is_star:
            # a side that is emp alone is the unit: it has no parts
            qs = () if type(Q) is Emp else flatten(Q)
            lp, lq = _subtract(() if type(P) is Emp else flatten(P), qs)
            if len(lq) < len(qs) and self.ent(star(*lp), star(*lq), mu, d):
                return True

        P2, Q2 = prenex(P), prenex(Q)
        if not (equal_mod_ac(P2, P) and equal_mod_ac(Q2, Q)):
            return self.ent(P2, Q2, mu, d)

        if type(P) is Or:
            left, right = halves(P)
            return self.ent(left, Q, mu, d) and self.ent(right, Q, mu, d)
        if type(Q) is And:
            left, right = halves(Q)
            return self.ent(P, left, mu, d) and self.ent(P, right, mu, d)

        if type(P) is And:
            parts = flatten(P, And)
            if any(self.ent(p, Q, mu, d) for p in parts):
                return True
            # propagate equalities on variables
            for p in parts:
                if type(p) is Eq:
                    for x, e in ((p.left, p.right), (p.right, p.left)):
                        if type(x) is Var \
                                and x.name not in free_vars(e)[0]:
                            P3 = _open(P, x.name, e)
                            Q3 = _open(Q, x.name, e)
                            if not equal_mod_ac(P3, P) \
                                    and self.ent(P3, Q3, mu, d):
                                return True

        if type(Q) is Or:
            left, right = halves(Q)
            if self.ent(P, left, mu, d) or self.ent(P, right, mu, d):
                return True
        if type(Q) is Implies:
            return self.ent(And((P, Q.left)), Q.right, mu, d)

        if type(Q) is Exists:
            if type(P) is Exists:
                z = fresh_name(P.var, free_vars(P)[0] | free_vars(Q)[0]
                               | {P.var, Q.var})
                if self.ent(_open(P.body, P.var, Var(z)),
                            _open(Q.body, Q.var, Var(z)), mu, d):
                    return True
            if any(self.ent(P, body, mu, d)
                   for body in self._instances(Q, P)):
                return True
        if type(P) is Exists:
            z = fresh_name(P.var, free_vars(P)[0] | free_vars(Q)[0]
                           | {P.var})
            return self.ent(_open(P.body, P.var, Var(z)), Q, mu, d)

        if type(Q) is Forall:
            z = fresh_name(Q.var, free_vars(P)[0] | free_vars(Q)[0]
                           | {Q.var})
            return self.ent(P, _open(Q.body, Q.var, Var(z)), mu, d)
        if type(P) is Forall:
            if any(self.ent(body, Q, mu, d)
                   for body in self._instances(P, Q)):
                return True

        if type(P) is Diamond:
            if self.ent(P.body, Q, mu, d):
                return True

        if mu > 0:
            P3 = _unfold_first_mu(P)
            if P3 is not None and self.ent(P3, Q, mu - 1, d):
                return True
            Q3 = _unfold_first_mu(Q)
            if Q3 is not None and self.ent(P, Q3, mu - 1, d):
                return True

        if type(P) is Triple and type(Q) is Triple \
                and equal_mod_ac(P.code, Q.code):
            if self.ent(Q.pre, P.pre, mu, d) \
                    and self.ent(P.post, Q.post, mu, d):
                return True

        if type(P) is PointsTo and type(Q) is PointsTo:
            try:
                if eval_expr(P.addr, EMPTY_ENV) == eval_expr(Q.addr,
                                                             EMPTY_ENV) \
                        and eval_expr(P.value, EMPTY_ENV) == eval_expr(
                            Q.value, EMPTY_ENV):
                    return True
            except (TypeFault, UnboundVariable):
                pass

        if is_star:
            return self._match_star(lp, lq, mu, d)
        return False

    def _instances(self, quant, other):
        """The body of `quant` at each candidate witness: sub-expressions
        of `other` and of the body, then the closed value 0, for a body
        that does not pin its variable down (`emp => exists b. emp`).
        The search still has to prove each instance it opens, so an extra
        candidate cannot make it unsound."""
        out, seen = [], set()
        for w in _witnesses(other) + _witnesses(quant.body):
            k = canon_key(w)._id
            if k not in seen:
                seen.add(k)
                out.append(w)
        out = out[:self.MAX_WITNESSES]
        if _ZERO not in out:
            out.append(_ZERO)
        for w in out:
            if quant.var not in free_vars(w)[0]:
                yield _open(quant.body, quant.var, w)

    def _match_star(self, lp, lq, mu, d) -> bool:
        if not lq:
            return all(self.ent(p, Emp(), mu, d) for p in lp)
        if not lp:
            return all(self.ent(Emp(), q, mu, d) for q in lq)
        if len(lp) == 1:
            return self.ent(lp[0], star(*lq), mu, d)
        if len(lq) == 1:
            return self.ent(star(*lp), lq[0], mu, d)
        if len(lp) > 6:
            return False
        q, rest_q = lq[0], lq[1:]
        n = len(lp)
        for mask in range(1 << n):  # the parts of lp in mask, lp[0] lowest
            if self.ent(star(*(lp[i] for i in range(n) if mask >> i & 1)),
                        q, mu, d) \
                    and self._match_star(
                        [lp[i] for i in range(n) if not mask >> i & 1],
                        rest_q, mu, d):
                return True
        return False


def entail_basic(P, Q) -> bool:
    """Sound, incomplete entailment check for P => Q.

    Uses equality modulo the star laws, distribution of invariant
    extension, bounded unfolding of recursive assertions, ground
    arithmetic, and the intuitionistic lattice laws.  Shared frames are
    cancelled once per problem, before quantifiers are opened: when either
    side is *, the parts equal mod AC on both are dropped, which is sound
    because * is monotone (A => B gives A * F => B * F), and the last step
    matches the parts left.  Never claims an invalid entailment; may fail
    to prove a valid one.
    """
    return _Entailer(3).run(P, Q)


def equiv_basic(P, Q) -> bool:
    if equal_mod_ac(P, Q):
        return True
    e = _Entailer(2)
    return e.run(P, Q) and e.run(Q, P)


# ---------------------------------------------------------------------------
# parameters

_ASSERTION_KEYS = {"P", "Q", "R", "S", "A", "B", "P0", "phi", "psi",
                   "template", "inv"}
_EXPR_KEYS = {"e", "e0", "e1", "e2", "witness", "code", "init", "arg"}
_IDENT_KEYS = {"x", "k", "X", "var", "ys"}


def _parse_param(key, value):
    if not isinstance(value, str):
        return value
    if key in _ASSERTION_KEYS:
        return parse(value, "assertion")
    if key in _EXPR_KEYS:
        return parse(value, "expr")
    if key in _IDENT_KEYS:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", value):
            raise SchemaMismatch(f"parameter {key} must be an identifier, "
                                 f"got {value!r}")
        return value
    raise SchemaMismatch(f"unknown parameter key {key!r}")


class _Params:
    """The parameters of one rule application.  A parameter the node
    omits is inferred from the stated goal by `infer`, when there is a
    stated goal; one the rule never reads is an error (`check_unread`)."""

    def __init__(self, rule, items, stated):
        self.rule = rule
        self.items = items
        self.stated = stated
        self.read = set()

    def given(self, *keys):
        return any(k in keys for k, _ in self.items)

    def check_unread(self):
        for k, _ in self.items:
            need(k in self.read,
                 f"rule {self.rule} does not take parameter {k!r}")

    def get_all(self, key, infer=None):
        self.read.add(key)
        vals = tuple(_parse_param(key, v) for k, v in self.items if k == key)
        if not vals and infer is not None and self.stated is not None:
            return tuple(infer(self.stated.goal))
        return vals

    def get(self, key, infer=None, default=None):
        vals = self.get_all(key, infer and (lambda g: (infer(g),)))
        return vals[-1] if vals else default

    def need(self, key, infer=None):
        v = self.get(key, infer)
        if v is None:
            raise SchemaMismatch(f"rule {self.rule} needs parameter {key!r}")
        return v


# ---------------------------------------------------------------------------
# rule helpers

RULES = {}      # kernel rules
_MACROS = {}    # derived rules, built from kernel rule applications


def _rule(name, arity, table=RULES):
    """Register `fn(params, *premises, stated)` as rule `name`: it returns
    the judgement the rule concludes; `stated` is the stated judgement when
    checking, None when building.  It raises SchemaMismatch on a premise or
    stated goal of the wrong shape, SideConditionViolation when a side
    condition fails."""
    def register(fn):
        def apply(ps, prems, stated):
            need(len(prems) == arity,
                 f"rule {name} takes {arity} premise(s), got {len(prems)}")
            return fn(ps, *prems, stated)
        table[name] = apply
        return fn
    return register


def need(cond, msg):
    if not cond:
        raise SchemaMismatch(msg)


def need_side(cond, msg):
    if not cond:
        raise SideConditionViolation(msg)


_KIND = {Implies: "an implication", And: "a conjunction",
         Or: "a disjunction", Forall: "a universal", Exists: "an existential",
         Eq: "an equation", FalseA: "false", Triple: "a triple",
         Tensor: "an invariant extension P (*) R", Diamond: "<> P"}


def _shape(a, cls, what):
    if type(a) is not cls:
        raise SchemaMismatch(f"{what} must be {_KIND[cls]}, got: {pretty(a)}")
    return a


def _code_triple(goal, what):
    t = _shape(goal, Triple, what)
    need(type(t.code) is Quote, f"{what} must be about a quoted command")
    return t


def _command(goal, cmdtype, rule):
    """The quoted command of a conclusion triple."""
    t = _shape(goal, Triple, f"{rule} conclusion")
    need(type(t.code) is Quote and type(t.code.body) is cmdtype,
         f"{rule}: the quoted command has the wrong shape")
    return t.code.body


def _need_iff(goal, rulename):
    pair = match_iff(goal)
    need(pair is not None,
         f"rule {rulename} concludes an equivalence "
         "(written (A => B) /\\ (B => A))")
    return pair


def _fv(ast):
    return free_vars(ast)[0]


def _fresh(x, asts, msg):
    need_side(all(x not in _fv(a) for a in asts), msg)


def _hyp_subset(sub, sup):
    allowed = {canon_key(h)._id for h in sup}
    return all(canon_key(h)._id in allowed for h in sub)


def _without(hyps, a):
    key = canon_key(a)
    return tuple(h for h in hyps if canon_key(h) is not key)


def _concl(goal, *prems):
    """A conclusion under the hypotheses of its premises."""
    return Judgement(hyps=tuple(h for p in prems for h in p.hyps), goal=goal)


def _mismatch(rule, built, stated):
    """Why the rule's conclusion `built` does not license the stated one,
    or None: the goals must agree up to AC and alpha, and the stated
    hypotheses must include the rule's."""
    if not equal_mod_ac(built.goal, stated.goal):
        return f"{rule}: the rule concludes {pretty(built.goal)}"
    if not _hyp_subset(built.hyps, stated.hyps):
        return f"{rule}: a premise has hypotheses the conclusion lacks"
    return None


def _pick(rule, stated, items, build, msg):
    """For a rule that licenses several instances: the first
    `(build(item), item)` that licenses the stated conclusion (the first
    one when there is none); `build` returns None for an item that is no
    instance.  Raises with `msg` when there is no instance at all."""
    first = None
    for item in items:
        j = build(item)
        if j is not None and (stated is None
                              or _mismatch(rule, j, stated) is None):
            return j, item
        first = first or j
    need(first is not None, msg)
    raise SchemaMismatch(_mismatch(rule, first, stated))


# ---------------------------------------------------------------------------
# first-order layer


@_rule("Hyp", 0)
def _r_Hyp(ps, stated):
    A = ps.need("A", lambda g: g)
    return Judgement(hyps=(A,), goal=A)


@_rule("ImpI", 1)
def _r_ImpI(ps, p, stated):
    A = ps.need("A", lambda g: _shape(g, Implies, "ImpI conclusion").left)
    return Judgement(hyps=_without(p.hyps, A), goal=Implies(A, p.goal))


@_rule("ImpE", 2)
def _r_ImpE(ps, p0, p1, stated):
    imp = _shape(p0.goal, Implies, "ImpE first premise")
    need(equal_mod_ac(p1.goal, imp.left),
         "ImpE: second premise differs from the antecedent")
    return _concl(imp.right, p0, p1)


@_rule("AndI", 2)
def _r_AndI(ps, p0, p1, stated):
    if stated is not None:
        # the premises come in the order of the conjuncts they prove
        left, right = halves(_shape(stated.goal, And, "AndI conclusion"))
        need(equal_mod_ac(p0.goal, left) and equal_mod_ac(p1.goal, right),
             "AndI: premises do not match the conjuncts")
    return _concl(And((p0.goal, p1.goal)), p0, p1)


def _and_elim(name, side):
    @_rule(name, 1)
    def check(ps, p, stated):
        return _concl(halves(_shape(p.goal, And, f"{name} premise"))[side],
                      p)


_and_elim("AndE1", 0)
_and_elim("AndE2", 1)


@_rule("OrI1", 1)
def _r_OrI1(ps, p, stated):
    B = ps.need("B", lambda g: halves(_shape(g, Or, "OrI1 conclusion"))[1])
    return _concl(Or((p.goal, B)), p)


@_rule("OrI2", 1)
def _r_OrI2(ps, p, stated):
    A = ps.need("A", lambda g: halves(_shape(g, Or, "OrI2 conclusion"))[0])
    return _concl(Or((A, p.goal)), p)


@_rule("OrE", 3)
def _r_OrE(ps, p0, p1, p2, stated):
    left, right = halves(_shape(p0.goal, Or, "OrE first premise"))
    need(equal_mod_ac(p1.goal, p2.goal),
         "OrE: branch premises must conclude the same goal")
    return Judgement(hyps=p0.hyps + _without(p1.hyps, left)
                     + _without(p2.hyps, right), goal=p1.goal)


@_rule("ForallI", 1)
def _r_ForallI(ps, p, stated):
    x = ps.need("x", lambda g: _shape(g, Forall, "ForallI conclusion").var)
    _fresh(x, (stated or p).hyps,
           f"ForallI: {x} occurs free in a hypothesis")
    return _concl(Forall(x, p.goal), p)


@_rule("ForallE", 1)
def _r_ForallE(ps, p, stated):
    u = _shape(p.goal, Forall, "ForallE premise")
    w = ps.get("witness", default=Var(u.var))
    return _concl(substitute(u.body, {u.var: w}), p)


@_rule("ExistsI", 1)
def _r_ExistsI(ps, p, stated):
    A = ps.need("template",
                lambda g: _shape(g, Exists, "ExistsI conclusion").body)
    x = ps.need("x", lambda g: _shape(g, Exists, "ExistsI conclusion").var)
    w = ps.need("witness")
    need(equal_mod_ac(p.goal, substitute(A, {x: w})),
         "ExistsI: premise is not the body at the witness")
    return _concl(Exists(x, A), p)


@_rule("ExistsE", 2)
def _r_ExistsE(ps, p0, p1, stated):
    ex = _shape(p0.goal, Exists, "ExistsE first premise")
    built = Judgement(hyps=p0.hyps + _without(p1.hyps, ex.body),
                      goal=p1.goal)
    concl = stated or built
    _fresh(ex.var, (concl.goal, *concl.hyps),
           f"ExistsE: {ex.var} occurs free in the goal or a hypothesis")
    return built


@_rule("TrueI", 0)
def _r_TrueI(ps, stated):
    return Judgement(goal=TrueA())


@_rule("FalseE", 1)
def _r_FalseE(ps, p, stated):
    _shape(p.goal, FalseA, "FalseE premise")
    return _concl(ps.need("P", lambda g: g), p)


@_rule("EqRefl", 0)
def _r_EqRefl(ps, stated):
    e = ps.need("e", lambda g: _shape(g, Eq, "EqRefl conclusion").left)
    return Judgement(goal=Eq(e, e))


@_rule("EqSubst", 2)
def _r_EqSubst(ps, p0, p1, stated):
    A, x = ps.need("template"), ps.need("x")
    eq = _shape(p0.goal, Eq, "EqSubst first premise")
    need(equal_mod_ac(p1.goal, substitute(A, {x: eq.left})),
         "EqSubst: second premise is not the template at the left side")
    return _concl(substitute(A, {x: eq.right}), p0, p1)


@_rule("ArithFact", 0)
def _r_ArithFact(ps, stated):
    P = ps.need("P", lambda g: g)
    need(ground_truth(P) is True,
         "ArithFact: goal is not a true closed arithmetic fact")
    return Judgement(goal=P)


@_rule("Entail", 0)
def _r_Entail(ps, stated):
    if stated is not None and not ps.given("P", "Q") \
            and match_iff(stated.goal) is not None:
        a, b = match_iff(stated.goal)
        need(entail_basic(a, b) and entail_basic(b, a),
             "Entail: the equivalence is not derivable by the basic "
             "entailment engine")
        return Judgement(goal=iff(a, b))
    P = ps.need("P", lambda g: _shape(g, Implies, "Entail conclusion").left)
    Q = ps.need("Q", lambda g: _shape(g, Implies, "Entail conclusion").right)
    need(entail_basic(P, Q),
         "Entail: not derivable by the basic entailment engine")
    return Judgement(goal=Implies(P, Q))


# ---------------------------------------------------------------------------
# equivalence axioms: star laws, recursion, distribution


def _star_law(name, keys, sides):
    """StarAssoc/StarComm/StarUnit: an equivalence whose sides are equal
    up to associativity, commutativity and unit -- from the parameters or,
    when they are omitted, as stated."""
    @_rule(name, 0)
    def check(ps, stated):
        if stated is None or ps.given(*keys):
            a, b = sides(*(ps.need(k) for k in keys))
        else:
            a, b = _need_iff(stated.goal, name)
        need(equal_mod_ac(a, b), f"{name}: the two sides differ beyond "
             "associativity/commutativity/unit")
        return Judgement(goal=iff(a, b))


_star_law("StarAssoc", ("P", "Q", "R"), lambda P, Q, R: (
    Star((P, Star((Q, R)))), Star((P, Q, R))))
_star_law("StarComm", ("P", "Q"), lambda P, Q: (Star((P, Q)), Star((Q, P))))
_star_law("StarUnit", ("P",), lambda P: (Star((P, Emp())), P))


def _axiom(name, keys, lhs, rhs, msg):
    """An axiom L <=> rhs(L).  L is built from the parameters by `lhs`
    or, when they are omitted, is either side of the stated equivalence;
    rhs(L) is None when L is no instance."""
    @_rule(name, 0)
    def check(ps, stated):
        if stated is None or ps.given(*keys):
            lefts = (lhs(*(ps.need(k) for k in keys)),)
        else:
            lefts = _need_iff(stated.goal, name)

        def instance(left):
            right = rhs(left)
            return None if right is None else Judgement(goal=iff(left, right))

        return _pick(name, stated, lefts, instance, msg)[0]


def _zero_rhs(L):
    zero = any(type(p) is FalseA for p in flatten(L))
    return FalseA() if zero else None


def _overlap_rhs(L):
    addrs = [canon_key(p.addr)._id for p in flatten(L)
             if type(p) is PointsTo]
    return FalseA() if len(addrs) != len(set(addrs)) else None


def _unfold_rhs(L):
    if type(L) is not Mu:
        return None
    need_side(contractive_in(L.body, L.relvar),
              "MuUnfold: body must be contractive in the bound relation "
              "variable")
    return unfold_mu(L)


_axiom("StarZero", ("P",), lambda P: Star((P, FalseA())), _zero_rhs,
       "StarZero matches P * false <=> false")
_axiom("StarOverlap", ("e", "e1", "e2"),
       lambda e, e1, e2: Star((PointsTo(e, e1), PointsTo(e, e2))),
       _overlap_rhs, "StarOverlap matches (e |-> e1 * e |-> e2) <=> false")
_axiom("MuUnfold", ("P",), lambda P: P, _unfold_rhs,
       "MuUnfold matches mu X. P <=> P[X := mu X. P]")


def _dist_axiom(name, want):
    def rhs(L):
        if type(L) is Tensor and want(L.left):
            return dist_step(L.left, L.right)
        return None
    _axiom(name, ("P", "R"), Tensor, rhs,
           f"{name}: conclusion does not match the distribution axiom")


_dist_axiom("DistTriple", lambda L: type(L) is Triple)
_dist_axiom("DistTensorTensor", lambda L: type(L) is Tensor)
_dist_axiom("DistQuant", lambda L: type(L) in (Forall, Exists))
_dist_axiom("DistBinOp", lambda L: type(L) in _BIN_TYPES)
_dist_axiom("DistAtom", lambda L: type(L) in _ATOM_TYPES)


@_rule("StarMono", 2)
def _r_StarMono(ps, p0, p1, stated):
    a = _shape(p0.goal, Implies, "StarMono first premise")
    b = _shape(p1.goal, Implies, "StarMono second premise")
    return _concl(Implies(Star((a.left, b.left)), Star((a.right, b.right))),
                  p0, p1)


@_rule("RUnique", 2)
def _r_RUnique(ps, p0, p1, stated):
    P, X = ps.need("P"), ps.need("X")
    need_side(contractive_in(P, X),
              "RUnique: the template must be contractive in the relation "
              "variable")

    def fixed_points(p, which):
        a, b = _need_iff(p.goal, f"RUnique ({which} premise)")
        return [l for l, r in ((a, b), (b, a))
                if equal_mod_ac(r, substitute(P, rel_map={X: ((), l)}))]

    pairs = [(l0, l1) for l0 in fixed_points(p0, "first")
             for l1 in fixed_points(p1, "second")]
    return _pick("RUnique", stated, pairs,
                 lambda pair: _concl(iff(*pair), p0, p1),
                 "RUnique: premises must show both sides are fixed points "
                 "of the template")[0]


# ---------------------------------------------------------------------------
# command rules


def _frames(ps, e):
    """The frame P of {e |-> _ * P}: the parameter; else, beside each
    e |-> _ of the stated precondition, the rest of it; else emp."""
    P = ps.get("P")
    if P is not None:
        return [P]
    if ps.stated is None:
        return [Emp()]
    pre = _shape(ps.stated.goal, Triple, f"{ps.rule} conclusion").pre
    parts = flatten(pre)
    return [star(*parts[:i], *parts[i + 1:]) for i, p in enumerate(parts)
            if is_pt_wild(p) is not None and equal_mod_ac(is_pt_wild(p), e)]


@_rule("Skip", 0)
def _r_Skip(ps, stated):
    P = ps.need("P", lambda g: _shape(g, Triple, "Skip conclusion").pre)
    return Judgement(goal=Triple(P, Quote(Skip()), P))


@_rule("Update", 0)
def _r_Update(ps, stated):
    e = ps.need("e", lambda g: _command(g, Assign, "Update").target)
    e0 = ps.need("e0", lambda g: _command(g, Assign, "Update").source)
    return _pick("Update", stated, _frames(ps, e), lambda P: Judgement(
        goal=Triple(Star((pt_wild(e), P)), Quote(Assign(e, e0)),
                    Star((PointsTo(e, e0), P)))),
        "Update matches {e |-> _ * P}'[e] := e0'{e |-> e0 * P}")[0]


def _int_valued(e) -> bool:
    """True when e can only evaluate to an integer (or fault); arithmetic
    faults on code operands, so a BinOp is integer-valued."""
    if type(e) is ValueLit:
        return isinstance(e.value, IntVal)
    return type(e) in (IntLit, BinOp)


def _inv_cells(goal, e, e0):
    """(e1, conjuncts of phi) for each reading of the stated postcondition
    as (e |-> e0 /\\ phi) * (e1 |-> e0 /\\ phi)."""
    goal = _shape(goal, Triple, "UpdateInv conclusion")
    pre, post = ([p for p in flatten(a) if type(p) is not Emp]
                 for a in (goal.pre, goal.post))
    need(len(pre) == 2 and len(post) == 2,
         "UpdateInv: pre and post each have exactly two star components")
    for upd, inv in (post, post[::-1]):
        aps = flatten(upd, And)
        at = [i for i, a in enumerate(aps) if type(a) is PointsTo
              and equal_mod_ac(a.addr, e) and equal_mod_ac(a.value, e0)]
        if not at:
            continue
        phis = tuple(aps[:at[0]] + aps[at[0] + 1:])
        for a in flatten(inv, And):
            if type(a) is PointsTo and equal_mod_ac(a.value, e0):
                yield a.addr, phis


@_rule("UpdateInv", 0)
def _r_UpdateInv(ps, stated):
    e = ps.need("e", lambda g: _command(g, Assign, "UpdateInv").target)
    e0 = ps.need("e0", lambda g: _command(g, Assign, "UpdateInv").source)
    if stated is None or ps.given("e1", "phi"):
        cells = [(ps.need("e1"), (ps.need("phi"),))]
    else:
        cells = _inv_cells(stated.goal, e, e0)

    def instance(cell):
        e1, phis = cell
        inv = conj(PointsTo(e1, e0), *phis)
        return Judgement(goal=Triple(Star((pt_wild(e), inv)),
                                     Quote(Assign(e, e0)),
                                     Star((conj(PointsTo(e, e0), *phis),
                                           inv))))

    j, (_, phis) = _pick(
        "UpdateInv", stated, cells, instance,
        "UpdateInv matches {e |-> _ * (e1 |-> e0 /\\ phi)}'[e] := e0'"
        "{(e |-> e0 /\\ phi) * (e1 |-> e0 /\\ phi)}")
    phi = conj(*phis)
    need_side(classify(phi) in (PURE, PSEUDO_PURE),
              "UpdateInv: the invariant conjunct must be pseudo-pure")
    # a rank-sensitive conjunct survives the write only if the assigned
    # expression cannot store code: the freshly written cell would
    # otherwise outrank the cell the conjunct was established for
    need_side(classify(phi) == PURE or _int_valued(e0),
              "UpdateInv: a pseudo-pure (rank-sensitive) conjunct needs an "
              "integer-valued source expression")
    return j


@_rule("Free", 0)
def _r_Free(ps, stated):
    e = ps.need("e", lambda g: _command(g, Free, "Free").addr)
    return _pick("Free", stated, _frames(ps, e), lambda P: Judgement(
        goal=Triple(Star((pt_wild(e), P)), Quote(Free(e)), P)),
        "Free matches {e |-> _ * P}'free(e)'{P}")[0]


@_rule("Seq", 2)
def _r_Seq(ps, p0, p1, stated):
    t0 = _code_triple(p0.goal, "Seq first premise")
    t1 = _code_triple(p1.goal, "Seq second premise")
    need(equal_mod_ac(t0.post, t1.pre),
         "Seq: intermediate assertion mismatch")
    return _concl(Triple(t0.pre, Quote(Seq((t0.code.body, t1.code.body))),
                         t1.post), p0, p1)


@_rule("If", 2)
def _r_If(ps, p0, p1, stated):
    t0 = _code_triple(p0.goal, "If then-premise")
    t1 = _code_triple(p1.goal, "If else-premise")
    # the precondition and the guard: as stated, else from the then-branch
    if stated is not None:
        cmd = _command(stated.goal, If, "If")
        P, cond = stated.goal.pre, Eq(cmd.lhs, cmd.rhs)
    else:
        P, cond = halves(t0.pre) if type(t0.pre) is And else (None, None)
        need(type(cond) is Eq,
             "If: then-premise precondition must add the guard")
    need(equal_mod_ac(t0.pre, And((P, cond))),
         "If: then-premise precondition must add the guard")
    need(equal_mod_ac(t1.pre, And((P, Implies(cond, FalseA())))),
         "If: else-premise precondition must add the negated guard")
    need(equal_mod_ac(t0.post, t1.post), "If: postcondition mismatch")
    cmd = If(cond.left, cond.right, t0.code.body, t1.code.body)
    return _concl(Triple(P, Quote(cmd), t0.post), p0, p1)


@_rule("Deref", 1)
def _r_Deref(ps, p, stated):
    t = _code_triple(p.goal, "Deref premise")
    x = ps.need("x", lambda g: _command(g, LetDeref, "Deref").var)
    e = ps.need("e", lambda g: _command(g, LetDeref, "Deref").addr)
    need(any(type(q) is PointsTo and equal_mod_ac(q.addr, e)
             and type(q.value) is Var and q.value.name == x
             for q in flatten(t.pre)),
         "Deref: premise precondition lacks the component e |-> x")
    _fresh(x, (e, t.post),
           f"Deref: {x} occurs free in the address or the postcondition")
    return _concl(Triple(Exists(x, t.pre),
                         Quote(LetDeref(x, e, t.code.body)), t.post), p)


@_rule("New", 1)
def _r_New(ps, p, stated):
    t = _code_triple(p.goal, "New premise")
    x = ps.need("x", lambda g: _command(g, LetNew, "New").var)
    inits = ps.get_all("init", lambda g: _command(g, LetNew, "New").inits)
    need(inits, "rule New needs parameter 'init'")
    block = [PointsTo(Var(x) if i == 0 else BinOp("+", Var(x), IntLit(i)),
                      init) for i, init in enumerate(inits)]
    rest = parts_diff(flatten(t.pre), block)
    need(rest is not None,
         "New: premise precondition lacks the freshly initialised block")
    pre = star(*rest)
    _fresh(x, (pre, t.post, *inits), f"New: {x} occurs free where it must not")
    return _concl(Triple(pre, Quote(LetNew(x, inits, t.code.body)), t.post),
                  p)


def _find_stored_spec(pre, e, k):
    """Find the star component of `pre` of shape e |-> R[_] (possibly a
    recursive assertion that unfolds to it) and return R[k]."""
    for part in flatten(pre):
        cands = [part]
        if type(part) is Mu:
            cands.append(normalize_otimes(unfold_mu(part)))
        for c in cands:
            if type(c) is not Exists:
                continue
            k2 = c.var
            aps = flatten(c.body, And)
            for i, a in enumerate(aps):
                if type(a) is PointsTo and equal_mod_ac(a.addr, e) \
                        and type(a.value) is Var and a.value.name == k2 \
                        and k2 not in _fv(a.addr):
                    rest = conj(*(aps[:i] + aps[i + 1:]))
                    yield substitute(rest, {k2: Var(k)})


@_rule("Eval", 1)
def _r_Eval(ps, p, stated):
    imp = _shape(p.goal, Implies, "Eval premise")
    t = _shape(imp.right, Triple, "Eval premise consequent")
    need(type(t.code) is Var, "Eval: the premise triple runs a code "
         "variable")
    k = t.code.name
    e = ps.need("e", lambda g: _command(g, EvalAt, "Eval").addr)
    # pre- and postcondition need only be equivalent to the premise's
    pre, post = t.pre, t.post
    if stated is not None:
        g = _shape(stated.goal, Triple, "Eval conclusion")
        pre, post = g.pre, g.post
    goal = Triple(pre, Quote(EvalAt(e)), post)
    _fresh(k, (goal, *(stated or p).hyps),
           f"Eval: {k} must be fresh for the conclusion and hypotheses")
    need(equiv_basic(t.pre, pre),
         "Eval: premise precondition differs from the conclusion "
         "precondition")
    need(equiv_basic(t.post, post),
         "Eval: premise postcondition differs from the conclusion "
         "postcondition")
    need(any(equiv_basic(Rk, imp.left)
             for Rk in _find_stored_spec(pre, e, k)),
         "Eval: the precondition has no component e |-> R[_] whose "
         "specification matches the premise antecedent")
    return _concl(goal, p)


# ---------------------------------------------------------------------------
# structural rules on triples


def _antecedent(ps, rule):
    """The triple P of a conclusion P => ...: the parameter, else the
    stated antecedent."""
    return _shape(ps.need("P", lambda g: _shape(
        g, Implies, f"{rule} conclusion").left), Triple, f"{rule} antecedent")


@_rule("Conseq", 2)
def _r_Conseq(ps, p0, p1, stated):
    def code(g):
        return _shape(_shape(g, Implies, "Conseq conclusion").left, Triple,
                      "Conseq antecedent").code

    e = ps.need("e", code)
    s = _shape(p0.goal, Implies, "Conseq first premise (P' => P)")
    w = _shape(p1.goal, Implies, "Conseq second premise (Q => Q')")
    return _concl(Implies(Triple(s.right, e, w.left),
                          Triple(s.left, e, w.right)), p0, p1)


@_rule("Disj", 0)
def _r_Disj(ps, stated):
    def both(g):
        return _shape(_shape(g, Implies, "Disj conclusion").left, And,
                      "Disj antecedent")

    t1 = _shape(ps.need("P", lambda g: halves(both(g))[0]), Triple,
                "Disj first triple")
    t2 = _shape(ps.need("Q", lambda g: halves(both(g))[1]), Triple,
                "Disj second triple")
    need(equal_mod_ac(t1.code, t2.code),
         "Disj: all triples must run the same code")
    return Judgement(goal=Implies(And((t1, t2)), Triple(
        Or((t1.pre, t2.pre)), t1.code, Or((t1.post, t2.post)))))


@_rule("ExistAux", 0)
def _r_ExistAux(ps, stated):
    def quantified(g):
        return _shape(_shape(g, Implies, "ExistAux conclusion").left, Forall,
                      "ExistAux antecedent")

    t = _shape(ps.need("P", lambda g: quantified(g).body), Triple,
               "ExistAux quantified triple")
    x = ps.need("x", lambda g: quantified(g).var)
    _fresh(x, (t.code,), f"ExistAux: {x} occurs free in the code expression")
    return Judgement(goal=Implies(Forall(x, t), Triple(
        Exists(x, t.pre), t.code, Exists(x, t.post))))


@_rule("Invariance", 0)
def _r_Invariance(ps, stated):
    t = _antecedent(ps, "Invariance")
    if stated is None or ps.given("psi"):
        psis = [ps.need("psi")]
    else:
        t2 = _shape(_shape(stated.goal, Implies, "Invariance conclusion")
                    .right, Triple, "Invariance consequent")
        psis = flatten(t2.pre, And)
    j, psi = _pick("Invariance", stated, psis, lambda c: Judgement(
        goal=Implies(t, Triple(And((t.pre, c)), t.code, And((t.post, c))))),
        "Invariance matches {P}e{Q} => {P /\\ psi}e{Q /\\ psi}")
    need_side(classify(psi) == PURE,
              "Invariance: the invariant conjunct must be pure")
    return j


@_rule("TensorFrame", 1)
def _r_TensorFrame(ps, p, stated):
    R = ps.need("R", lambda g: _shape(g, Tensor,
                                      "TensorFrame conclusion").right)
    need(not p.hyps and not (stated and stated.hyps),
         "TensorFrame applies to theorems only (no open hypotheses)")
    return Judgement(goal=Tensor(p.goal, R))


@_rule("StarFrame", 0)
def _r_StarFrame(ps, stated):
    def frame(g):
        t2 = _shape(_shape(g, Implies, "StarFrame conclusion").right, Triple,
                    "StarFrame consequent")
        rest = parts_diff(flatten(t2.pre), flatten(t.pre))
        need(rest is not None, "StarFrame: consequent precondition must "
             "extend the antecedent's by a frame")
        return star(*rest)

    t = _antecedent(ps, "StarFrame")
    R = ps.need("R", frame)
    return Judgement(goal=Implies(t, Triple(Star((t.pre, R)), t.code,
                                            Star((t.post, R)))))


def _out_rule(name, wrap):
    """Out/DiamondOut: from {phi /\\ P}e{Q} conclude phi => wrap({P}e{Q})
    for a pseudo-pure phi."""
    @_rule(name, 1)
    def check(ps, p, stated):
        t = _shape(p.goal, Triple, f"{name} premise")
        phi = ps.need("phi", lambda g: _shape(g, Implies,
                                              f"{name} conclusion").left)
        rest = _conj_remove(flatten(t.pre, And), phi)
        need(rest, f"{name}: premise precondition must be phi /\\ P")
        need_side(classify(phi) in (PURE, PSEUDO_PURE),
                  f"{name}: the extracted hypothesis must be pseudo-pure")
        return _concl(Implies(phi, wrap(Triple(conj(*rest), t.code,
                                               t.post))), p)


_out_rule("Out", lambda t: t)
_out_rule("DiamondOut", Diamond)


@_rule("DiamondE", 0)
def _r_DiamondE(ps, stated):
    def body(g):
        return _shape(_shape(g, Implies, "DiamondE conclusion").left,
                      Diamond, "DiamondE antecedent").body

    P = ps.need("P", body)
    return Judgement(goal=Implies(Diamond(P), P))


# ---------------------------------------------------------------------------
# derived rules: built from kernel rule applications


def _step(macro, rule, premises, **params):
    """One kernel rule application inside a derived rule."""
    try:
        return _conclude(rule, _param_items(params), tuple(premises))
    except ProofError as exc:
        raise SchemaMismatch(f"{macro}: internal derivation failed at "
                             f"{rule}: {exc}") from None


@_rule("TensorMono", 1, _MACROS)
def _m_TensorMono(ps, p, stated):
    imp = _shape(p.goal, Implies, "TensorMono premise")

    def extension(g):
        need(type(g) is Implies and type(g.left) is Tensor
             and type(g.right) is Tensor,
             "TensorMono concludes P (*) R => P' (*) R")
        need(equal_mod_ac(g.left.right, g.right.right),
             "TensorMono: the extensions must agree")
        return g.left.right

    R = ps.need("R", extension)
    step = partial(_step, "TensorMono")
    framed = step("TensorFrame", [p], R=R)
    dist = step("AndE1", [step("DistBinOp", [], P=imp, R=R)])
    return step("ImpE", [dist, framed])


def _spec_cell(e, k, spec):
    """The stored-specification component e |-> spec[_]."""
    return Exists(k, And((PointsTo(e, Var(k)), spec)))


def _eval_params(ps, *extra):
    """e, P, Q, ys and a code variable k fresh for them and `extra`."""
    e, P, Q, ys = ps.need("e"), ps.need("P"), ps.need("Q"), ps.get_all("ys")
    avoid = set(ys).union(_fv(P), _fv(Q), *map(_fv, extra), _fv(e))
    return e, P, Q, ys, fresh_name("k", avoid)


def _instantiated(step, spec, ys):
    """spec |- spec with its leading quantifiers over ys instantiated."""
    j = step("Hyp", [], A=spec)
    for y in ys:
        j = step("ForallE", [j], witness=Var(y))
    return j


def _eval_nonrec(name, update):
    """EvalNonRec1 (update=False): from {P} k {Q} for the stored k,
    {P * e |-> R[_]} eval e {Q * e |-> R[_]}.  EvalNonRecUpd: the stored
    command may overwrite its own cell, {P * e |-> _} k {Q}."""
    @_rule(name, 0, _MACROS)
    def check(ps, stated):
        step = partial(_step, name)
        e, P, Q, ys, k = _eval_params(ps)
        inner_pre = Star((P, pt_wild(e))) if update else P
        Rk = _quantify(Forall, ys, Triple(inner_pre, Var(k), Q))
        spec = _spec_cell(e, k, Rk)
        if update:
            adapt = step("Conseq", [
                step("Entail", [], P=Star((P, spec)), Q=inner_pre),
                step("Entail", [], P=Q, Q=Q)], e=Var(k))
        else:
            adapt = step("StarFrame", [], P=Triple(P, Var(k), Q), R=spec)
        body = step("ImpE", [adapt, _instantiated(step, Rk, ys)])
        return step("Eval", [step("ImpI", [body], A=Rk)], e=e)


_eval_nonrec("EvalNonRec1", False)
_eval_nonrec("EvalNonRecUpd", True)


@_rule("EvalRec", 0, _MACROS)
def _m_EvalRec(ps, stated):
    step = partial(_step, "EvalRec")
    P0 = ps.get("P0", default=Emp())
    e, P, Q, ys, k = _eval_params(ps, P0)
    X = fresh_name("X", free_vars(P)[1] | free_vars(Q)[1]
                   | free_vars(P0)[1])
    spec0 = _spec_cell(e, k, _quantify(Forall, ys, Triple(P, Var(k), Q)))
    R = Mu(X, (), Tensor(Star((spec0, P0)), RelVar(X)), ())
    preR, postR = circ_n(P, R), circ_n(Q, R)
    Sk = _quantify(Forall, ys, Triple(preR, Var(k), postR))
    pre_eval = star(normalize_otimes(Tensor(P, R)), _spec_cell(e, k, Sk),
                    normalize_otimes(Tensor(P0, R)))
    # S[k] |- {P o R} k {Q o R}, weakened to the precondition Eval reads
    opened = step("ImpE", [step("ImpI", [_instantiated(step, Sk, ys)], A=Sk),
                           step("Hyp", [], A=Sk)])
    weaken = step("Conseq", [step("Entail", [], P=pre_eval, Q=preR),
                             step("Entail", [], P=postR, Q=postR)],
                  e=Var(k))
    body = step("ImpE", [weaken, opened])
    ev = step("Eval", [step("ImpI", [body], A=Sk)], e=e)
    # {pre_eval} eval e {Q o R}, strengthened back to {P o R}
    back = step("Conseq", [step("Entail", [], P=preR, Q=pre_eval),
                           step("Entail", [], P=postR, Q=postR)],
                e=Quote(EvalAt(e)))
    return step("ImpE", [back, ev])


# ---------------------------------------------------------------------------
# checking and building

RULE_IDS = tuple(sorted(RULES)) + tuple(sorted(_MACROS))


def _conclude(rule, params, premises, stated=None):
    """The judgement `rule` concludes from its parameters and premise
    judgements; with a stated judgement, the rule must license it."""
    fn = RULES.get(rule) or _MACROS.get(rule)
    if fn is None:
        raise UnknownRule(rule, REJECTED.get(rule))
    ps = _Params(rule, params, stated)
    built = fn(ps, premises, stated)
    ps.check_unread()
    if stated is not None:
        msg = _mismatch(rule, built, stated)
        need(msg is None, msg)
    return built


def check_node(node: ProofNode) -> Judgement:
    """Check one node against its rule, taking the stated conclusions of
    its premises as proven; raises ProofError when the node is wrong."""
    return _conclude(node.rule, node.params,
                     tuple(p.conclusion for p in node.premises),
                     node.conclusion)


def _check_tree(node, path, failures, stats):
    stats[node.rule] += 1
    try:
        check_node(node)
    except ProofError as exc:
        failures.append((path, str(exc)))
    for i, p in enumerate(node.premises):
        _check_tree(p, f"{path}.{i}", failures, stats)


def check_proof(root: ProofNode) -> CheckReport:
    """Validate a proof tree; every node is checked, nothing is trusted."""
    failures: list = []
    stats: Counter = Counter()
    _check_tree(root, "0", failures, stats)
    return CheckReport(ok=not failures, failures=failures, stats=stats)


def apply_rule(rule: str, params: dict, premises) -> Judgement:
    """Instantiate a rule: premises are judgements taken as proven; the
    result is the conclusion the rule licenses."""
    return _conclude(rule, _param_items(params), tuple(premises))


# ---------------------------------------------------------------------------
# proof-script concrete syntax (S-expressions)

_SEXP_TOKEN = re.compile(r"""
    (?P<ws>\s+|;[^\n]*)
  | (?P<open>\() | (?P<close>\))
  | (?P<str>"(?:[^"\\]|\\.)*")
  | (?P<atom>[^\s()";]+)
""", re.VERBOSE)


def _sexp_tokens(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _SEXP_TOKEN.match(text, pos)
        if not m:
            raise ScriptError(f"bad character at offset {pos}: "
                              f"{text[pos]!r}")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        out.append((m.lastgroup, m.group(), m.start()))
    return out


def _sexp_read(tokens, i):
    kind, text, pos = tokens[i]
    if kind == "open":
        items = []
        i += 1
        while i < len(tokens) and tokens[i][0] != "close":
            item, i = _sexp_read(tokens, i)
            items.append(item)
        if i >= len(tokens):
            raise ScriptError(f"unclosed parenthesis opened at {pos}")
        return items, i + 1
    if kind == "close":
        raise ScriptError(f"unexpected ')' at {pos}")
    if kind == "str":
        body = re.sub(r"\\(.)", r"\1", text[1:-1])
        return body, i + 1
    return text, i + 1


def _node_of_sexp(sx, parsed: dict) -> ProofNode:
    """The proof node of sx; `parsed` holds the assertion of each string
    that this script has parsed so far, since scripts repeat hypotheses
    and conclusions."""
    if not isinstance(sx, list) or len(sx) < 2 or sx[0] != "rule":
        raise ScriptError("each proof node is (rule NAME ...)")
    name = sx[1]
    params: list = []
    premises: list = []
    hyps: list = []
    goal = None
    for item in sx[2:]:
        if not isinstance(item, list) or not item:
            raise ScriptError(f"bad item in rule {name}: {item!r}")
        head = item[0]
        if head == "param":
            if len(item) != 3:
                raise ScriptError("param takes a key and a value")
            params.append((item[1], item[2]))
        elif head == "hyp":
            if len(item) != 2:
                raise ScriptError("hyp takes one assertion")
            hyps.append(_assertion(item[1], parsed))
        elif head == "premise":
            if len(item) != 2:
                raise ScriptError("premise wraps one rule node")
            premises.append(_node_of_sexp(item[1], parsed))
        elif head == "conclude":
            if len(item) != 2:
                raise ScriptError("conclude takes one assertion")
            goal = _assertion(item[1], parsed)
        else:
            raise ScriptError(f"unknown item {head!r} in rule {name}")
    if goal is None:
        raise ScriptError(f"rule {name} has no (conclude ...)")
    return ProofNode(name, tuple(params), tuple(premises),
                     Judgement(hyps=tuple(hyps), goal=goal))


def _assertion(text, parsed: dict):
    out = parsed.get(text)
    if out is None:
        out = parsed[text] = parse(text, "assertion")
    return out


def parse_script(text: str) -> ProofNode:
    tokens = _sexp_tokens(text)
    if not tokens:
        raise ScriptError("empty proof script")
    sx, i = _sexp_read(tokens, 0)
    if i != len(tokens):
        raise ScriptError(f"trailing input at offset {tokens[i][2]}")
    return _node_of_sexp(sx, {})


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _param_str(value) -> str:
    if isinstance(value, str):
        return value
    return pretty(value)


def serialize_script(node: ProofNode, indent: int = 0) -> str:
    pad = "  " * indent
    lines = [f"{pad}(rule {node.rule}"]
    for k, v in node.params:
        lines.append(f'{pad}  (param {k} "{_escape(_param_str(v))}")')
    for h in node.conclusion.hyps:
        lines.append(f'{pad}  (hyp "{_escape(pretty(h))}")')
    for p in node.premises:
        lines.append(f"{pad}  (premise")
        lines.append(serialize_script(p, indent + 2) + ")")
    lines.append(f'{pad}  (conclude "{_escape(pretty(node.conclusion.goal))}"'
                 "))")
    return "\n".join(lines)
