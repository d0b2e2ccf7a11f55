"""Unit and property tests for the AST layer."""

import functools
import random

from hypothesis import given, settings, strategies as st

from conftest import Names, rand_asn
from sepstore.grammar import parse, pretty
from sepstore.syntax import (
    And, BinOp, Chain, Emp, Eq, Exists, FalseA, Forall, GENERAL, Implies,
    IntLit, LetNew, Leq, Mu, Or, PointsTo, PSEUDO_PURE, PURE, Quote, RelVar,
    Skip, Star, Tensor, Triple, TrueA, Var, canon_key, children, classify,
    conj, contractive_in, equal_mod_ac, flatten, free_vars, fresh_name,
    halves, join, map_children, star, substitute, unfold,
)

SKIP = Quote(Skip())
TRIP = Triple(Emp(), SKIP, Emp())


# ---------------------------------------------------------------------------
# purity classification


def test_classify_pure():
    assert classify(TrueA()) == PURE
    assert classify(Eq(Var("x"), IntLit(1))) == PURE
    assert classify(Leq(IntLit(0), Var("y"))) == PURE
    assert classify(And((Eq(IntLit(1), IntLit(1)), FalseA()))) == PURE
    assert classify(Forall("x", Implies(Eq(Var("x"), IntLit(0)),
                                        TrueA()))) == PURE


def test_classify_pseudo_pure():
    assert classify(TRIP) == PSEUDO_PURE
    assert classify(And((TRIP, Eq(IntLit(1), IntLit(1))))) == PSEUDO_PURE
    assert classify(Or((TRIP, TRIP))) == PSEUDO_PURE
    assert classify(Tensor(TRIP, PointsTo(IntLit(1), IntLit(0)))) \
        == PSEUDO_PURE
    # a recursion variable bound by an enclosing mu stays in the class
    m = Mu("X", (), And((TRIP, RelVar("X"))), ())
    assert classify(m) == PSEUDO_PURE


def test_classify_general():
    assert classify(Emp()) == GENERAL
    assert classify(PointsTo(IntLit(1), IntLit(0))) == GENERAL
    assert classify(Star((TRIP, TRIP))) == GENERAL
    assert classify(Implies(TRIP, TRIP)) == GENERAL
    # an unbound relation variable could be instantiated with anything
    assert classify(RelVar("X")) == GENERAL
    assert classify(And((TRIP, PointsTo(IntLit(1), IntLit(0))))) == GENERAL


# ---------------------------------------------------------------------------
# contractiveness


def test_contractive_under_triple_and_tensor_right():
    assert contractive_in(Triple(RelVar("X"), SKIP, RelVar("X")), "X")
    assert contractive_in(Tensor(Emp(), RelVar("X")), "X")
    assert contractive_in(Star((TRIP, Triple(RelVar("X"), SKIP, Emp()))), "X")


def test_not_contractive_when_exposed():
    assert not contractive_in(RelVar("X"), "X")
    assert not contractive_in(Star((RelVar("X"), Emp())), "X")
    assert not contractive_in(Tensor(RelVar("X"), Emp()), "X")
    assert not contractive_in(Exists("y", And((RelVar("X"), TrueA()))), "X")


def test_contractive_shadowed_by_inner_mu():
    inner = Mu("X", (), Star((RelVar("X"), Emp())), ())
    assert contractive_in(inner, "X")


# ---------------------------------------------------------------------------
# free variables


def test_free_vars_quantifier():
    a = Exists("x", Eq(Var("x"), Var("y")))
    fv, frv = free_vars(a)
    assert fv == {"y"} and frv == frozenset()


def test_free_vars_mu():
    m = Mu("X", ("p",), Triple(RelVar("X", (Var("p"),)), SKIP,
                               Eq(Var("p"), Var("q"))), (Var("r"),))
    fv, frv = free_vars(m)
    assert fv == {"q", "r"}
    assert frv == frozenset()
    assert free_vars(RelVar("Y"))[1] == {"Y"}


# ---------------------------------------------------------------------------
# substitution


def test_substitute_simple():
    a = Eq(Var("x"), Var("y"))
    assert substitute(a, {"x": IntLit(3)}) == Eq(IntLit(3), Var("y"))


def test_substitute_respects_binding():
    a = Exists("x", Eq(Var("x"), Var("y")))
    assert substitute(a, {"x": IntLit(3)}) == a


def test_substitute_capture_avoiding():
    a = Exists("x", Eq(Var("x"), Var("y")))
    b = substitute(a, {"y": Var("x")})
    assert type(b) is Exists and b.var != "x"
    assert b.body == Eq(Var(b.var), Var("x"))


def test_substitute_renames_mu_parameter_apart_from_later_ones():
    # renaming p must not take the name of the parameter p_1 that the body
    # never mentions, or the result binds p_1 twice
    m = parse("mu X(p, p_1). {X(p, p)} 'skip' {q |-> p}", "assertion")
    out = substitute(m, {"q": Var("p")})
    assert len(set(out.params)) == 2 and "p" not in out.params
    assert out.params[1] == "p_1"
    assert out.body.post == PointsTo(Var("p"), Var(out.params[0]))


def test_substitute_renames_mu_binder_a_value_mentions():
    m = parse("mu Y. {X} 'skip' {Y}", "assertion")
    out = substitute(m, rel_map={"X": ((), RelVar("Y"))})
    assert out == Mu("Y_1", (), Triple(RelVar("Y"), SKIP, RelVar("Y_1")))
    assert free_vars(out)[1] == {"Y"}


def test_unfold_keeps_an_enclosing_relation_variable_free():
    outer = parse("mu Y. (mu X. {Y} 'skip' {mu Y. {Y} 'skip' {X}})",
                  "assertion")
    inner = outer.body
    out = unfold(inner, inner)
    assert free_vars(out)[1] == {"Y"}
    # the inner mu Y is renamed, so the unfolded X still refers to Y
    assert out.post.relvar != "Y"
    assert out.post.body.post == inner


def test_substitute_relvar():
    body = Star((RelVar("X", (IntLit(1),)), Emp()))
    out = substitute(body, rel_map={"X": (("p",),
                                          PointsTo(Var("p"), IntLit(0)))})
    assert out == Star((PointsTo(IntLit(1), IntLit(0)), Emp()))


def test_traversals_keep_unchanged_subterms():
    """map_children returns the node itself when no sub-term changed, so
    substitution shares every sub-term it leaves alone."""
    code = Quote(LetNew("b", (Var("y"), IntLit(0)), Skip()))
    a = Star((Exists("b", PointsTo(Var("x"), Var("b"))),
              Mu("X", ("p",), Triple(RelVar("X", (Var("p"),)), code, Emp()),
                 (Var("z"),))))
    assert map_children(a, lambda c: c) is a
    assert substitute(a, {"w": IntLit(1)}) is a
    b = substitute(a, {"z": IntLit(1)})
    assert b.parts[0] is a.parts[0] and b.parts[1].body is a.parts[1].body
    assert b.parts[1].args == (IntLit(1),)


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6), st.integers(0, 5))
def test_substitution_composition(seed, n):
    """x := e then y := f equals the simultaneous map when y not in e."""
    rng = random.Random(seed)
    a = rand_asn(rng, Names(), depth=2)
    e, f = IntLit(n), IntLit(n + 1)
    seq = substitute(substitute(a, {"x": e}), {"y": f})
    sim = substitute(a, {"x": e, "y": f})
    assert seq == sim


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6))
def test_substitution_free_vars_shrink(seed):
    rng = random.Random(seed)
    a = rand_asn(rng, Names(), depth=2)
    out = substitute(a, {"x": IntLit(7)})
    assert "x" not in free_vars(out)[0]
    assert free_vars(out)[0] <= free_vars(a)[0] - {"x"}


# ---------------------------------------------------------------------------
# equality mod AC, unit law, alpha


def test_equal_mod_ac_star():
    P, Q, R = PointsTo(IntLit(1), IntLit(0)), TrueA(), Emp()
    assert equal_mod_ac(Star((P, Star((Q, R)))), Star((Star((R, Q)), P)))
    assert equal_mod_ac(Star((P, Emp())), P)
    assert not equal_mod_ac(Star((P, Q)), And((P, Q)))
    # (a op b) * emp is a op b, so it is spliced into an op-chain around
    # it, wherever it sorts
    asn = functools.partial(parse, kind="assertion")
    for op in ("\\/", "/\\"):
        flat = asn(f"3 = 3 {op} 1 = 1 {op} 2 = 2")
        assert equal_mod_ac(asn(f"3 = 3 {op} (1 = 1 {op} 2 = 2) * emp"), flat)
        assert equal_mod_ac(asn(f"(1 = 1 {op} 2 = 2) * emp {op} 3 = 3"), flat)


def test_equal_mod_ac_alpha():
    a = Exists("x", Eq(Var("x"), IntLit(1)))
    b = Exists("z", Eq(Var("z"), IntLit(1)))
    assert equal_mod_ac(a, b)
    assert canon_key(a) == canon_key(b)


def test_equal_mod_ac_distinguishes():
    assert not equal_mod_ac(Forall("x", TrueA()), Exists("x", TrueA()))
    assert not equal_mod_ac(Implies(TrueA(), FalseA()),
                            Implies(FalseA(), TrueA()))


def test_fresh_name():
    assert fresh_name("x", ()) == "x"
    assert fresh_name("x", ("x",)) == "x_1"
    assert fresh_name("x_1", ("x_1", "x_2")) == "x_3"


def test_builders():
    P, Q = TrueA(), Emp()
    assert star() == Emp()
    assert star(P) == P
    assert star(P, Q, P) == Star((Star((P, Q)), P))
    assert conj() == TrueA()
    assert conj(P, Q) == And((P, Q))
    assert flatten(Star((Star((P, Q)), P))) == [P, Q, P]
    assert flatten(Star((P, Star((Q, P))))) == [P, Q, P]
    assert flatten(And((P, Q)), And) == [P, Q] and flatten(P) == [P]


# ---------------------------------------------------------------------------
# chains against the binary trees they stand for, written without the code
# under test


def binary(t):
    """A chain as a binary node: the node of all its parts but the last,
    and its last part."""
    init = t.parts[:-1]
    return (init[0] if len(init) == 1 else type(t)(init)), t.parts[-1]


def rebuilt(t):
    """t rebuilt bottom-up from its binary tree, each binary *, /\\ or \\/
    made by a constructor call on two operands."""
    if isinstance(t, Chain):
        left, right = binary(t)
        return type(t)((rebuilt(left), rebuilt(right)))
    return map_children(t, rebuilt)


def parts_reference(t, cls):
    """The leaves of t's binary tree of cls, left to right."""
    if type(t) is not cls:
        return [t]
    left, right = binary(t)
    return parts_reference(left, cls) + parts_reference(right, cls)


def test_chains_are_the_image_of_their_binary_trees():
    rng = random.Random(5)
    chains = 0
    for _ in range(400):
        t = rand_asn(rng, Names(), depth=4)
        assert rebuilt(t) is t, repr(t)
        for cls in (Star, And, Or):
            assert flatten(t, cls) == parts_reference(t, cls), repr(t)
        # the builders and the parser give the left fold of two-operand
        # constructor calls
        parts = [rand_asn(rng, Names(), depth=2)
                 for _ in range(rng.randrange(1, 6))]
        for build, cls in ((star, Star), (conj, And)):
            folded = functools.reduce(lambda l, r: cls((l, r)), parts)
            assert build(*parts) is folded
        if len(parts) > 1:
            text = " * ".join(f"({pretty(p)})" for p in parts)
            assert parse(text, "assertion") is star(*parts)
        chains += sum(isinstance(s, Chain) and len(s.parts) > 2
                      for s in _nodes(t))
    assert chains > 20


def _nodes(t):
    yield t
    for c in children(t):
        yield from _nodes(c)


def test_halves_and_join_are_inverse():
    P, Q, R = PointsTo(IntLit(1), IntLit(0)), TrueA(), Emp()
    for cls in (Star, And, Or):
        t = cls((P, Q, R))
        assert halves(t) == (cls((P, Q)), R)
        assert join(cls, *halves(t)) is t
        assert halves(cls((P, Q))) == (P, Q)
        right = cls((P, cls((Q, R))))
        assert halves(right) == (P, cls((Q, R)))
        assert join(cls, *halves(right)) is right
    assert join(Implies, P, Q) is Implies(P, Q)
    assert halves(Implies(P, Q)) == (P, Q)
