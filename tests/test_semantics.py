"""Semantic-model tests: membership, triples, entailment, world laws."""

import itertools
import random
import time
from dataclasses import replace

import pytest

from sepstore.config import default_config
from sepstore.fuzz import assertion as rand_fuzz_asn
from sepstore.fuzz import fuzz_config
from sepstore.grammar import parse
from sepstore.interp import (BOT, EMPTY_ENV, EMPTY_HEAP, INF, CodeVal, Env,
                             Heap, IntVal, heap_join, heap_leq, rank,
                             truncate)
from sepstore.logic import dist_step
from sepstore.semantics import (
    MAX_UNIVERSE_HEAPS, CacheReentry, Fail, Pass, Tester, UniverseTooLarge,
    close_assertion, splits,
)
from sepstore.syntax import (
    And, Diamond, Emp, Eq, Exists, FalseA, Forall, Implies, IntLit, Mu,
    PointsTo, Quote, RelVar, Skip, Star, Tensor, Triple, TrueA, ValueLit,
    Var, circ, classify,
)

A = lambda s: parse(s, "assertion")
E = lambda s: parse(s, "expr")

SKIP = Quote(Skip())


def member(tester, P, h, w=Emp(), env=EMPTY_ENV):
    return tester.member(P, env, w, h)


def skip_cell(addr, tag):
    return (addr, CodeVal(Skip(), EMPTY_ENV, tag))


# ---------------------------------------------------------------------------
# membership basics


def test_member_atoms(lean_tester):
    t = lean_tester
    one = Heap(((1, IntVal(0)),))
    assert member(t, TrueA(), one)
    assert not member(t, FalseA(), one)
    assert member(t, FalseA(), BOT)          # Bot is in every assertion
    assert member(t, Emp(), EMPTY_HEAP)
    assert member(t, Emp(), BOT)
    assert not member(t, Emp(), one)
    assert member(t, Eq(IntLit(1), IntLit(1)), one)
    assert not member(t, Eq(IntLit(0), IntLit(1)), one)


def test_member_points_to_is_downward_closed(lean_tester):
    t = lean_tester
    P = A("1 |-> 'skip'")
    # any approximation of the full cell satisfies the points-to
    for tag in (0, 1, 2):
        assert member(t, P, Heap((skip_cell(1, tag),)))
    assert member(t, P, BOT)
    assert not member(t, P, EMPTY_HEAP)
    assert not member(t, P, Heap(((1, IntVal(0)),)))
    assert not member(t, P, Heap((skip_cell(2, 1),)))
    # strict subheaps with extra cells fail: points-to is exact on domain
    assert not member(t, P, Heap((skip_cell(1, 1), (2, IntVal(0)))))


def test_member_points_to_equals_heap_order_reference():
    # a |-> v holds on h exactly when h lies below the one-cell heap a = v
    # in the approximation order; over the fuzz universe and every 7th
    # heap of the default universe, each address of the pool and one
    # outside it, and each heap value
    checked = 0
    for cfg, step in ((fuzz_config(), 1), (default_config(), 7)):
        t = Tester(cfg)
        addrs = sorted(cfg.addr_pool)
        addrs.append(addrs[-1] + 1)
        for a in addrs:
            for v in t.values():
                P = PointsTo(IntLit(a), ValueLit(v))
                for h in t.universe()[::step]:
                    want = heap_leq(h, Heap(((a, v),)))
                    assert member(t, P, h) == want, (a, v, h)
                    checked += 1
    assert checked > 10_000


def test_member_star_splits(lean_tester):
    t = lean_tester
    P = A("1 |-> 0 * 2 |-> 1")
    assert member(t, P, Heap(((1, IntVal(0)), (2, IntVal(1)))))
    assert not member(t, P, Heap(((1, IntVal(0)),)))
    assert member(t, A("1 |-> 0 * emp"), Heap(((1, IntVal(0)),)))
    assert member(t, Star((FalseA(), TrueA())), BOT)
    assert not member(t, Star((FalseA(), TrueA())), EMPTY_HEAP)


def test_member_quantifiers(lean_tester):
    t = lean_tester
    h = Heap(((1, IntVal(1)),))
    assert member(t, A("exists v. 1 |-> v"), h)
    assert not member(t, A("exists v. 2 |-> v"), h)
    assert member(t, A("forall v. v = v"), h)
    assert not member(t, A("forall v. v = 1"), h)


def test_member_triple_depends_only_on_rank(lean_tester):
    t = lean_tester
    bad = A("{emp} 'skip' {false}")
    assert classify(bad) != "pure"
    # vacuously true at rank <= 1, refuted from rank 2 on
    assert member(t, bad, EMPTY_HEAP)
    assert member(t, bad, Heap((skip_cell(1, 0),)))
    assert not member(t, bad, Heap((skip_cell(1, 1),)))
    assert not member(t, bad, Heap((skip_cell(1, 2),)))
    # and the heap's other content is irrelevant
    assert not member(t, bad, Heap((skip_cell(2, 1), (1, IntVal(0)))))
    good = A("{emp} 'skip' {emp}")
    for h in (EMPTY_HEAP, Heap((skip_cell(1, 2),))):
        assert member(t, good, h)


def test_member_implies_quantifies_down_the_ranks(lean_tester):
    t = lean_tester
    bad = A("{emp} 'skip' {false}")
    h2 = Heap((skip_cell(1, 1),))     # rank 2
    # bad holds at rank <= 1 but fails at rank 2, so emp => bad fails at
    # rank 2 already via its rank-1 truncation? no: emp fails there too.
    assert member(t, Implies(Emp(), bad), h2)
    assert not member(t, Implies(TrueA(), bad), h2)
    assert member(t, Implies(TrueA(), bad), truncate(1, h2))


def test_member_mu_unfolds_to_rank(lean_tester):
    t = lean_tester
    R = A("mu X. {X} 'skip' {false}")
    # at rank <= 1 the inner triple only faces the vacuous level 0, so R
    # holds; at rank 2 the empty heap is already in R and running skip on
    # it lands outside false, so R fails
    assert member(t, R, EMPTY_HEAP)
    assert member(t, R, Heap((skip_cell(1, 0),)))
    assert not member(t, R, Heap((skip_cell(1, 1),)))
    # hence emp => R holds everywhere (emp only populates rank <= 1)
    assert isinstance(t.test_entailment(Emp(), R), Pass)


def test_member_diamond(lean_tester):
    t = lean_tester
    bad = A("{emp} 'skip' {false}")
    # <>P asks P one level up: bad fails at rank 2, so <>bad fails on
    # rank-1 heaps even though bad itself still holds there
    assert member(t, bad, EMPTY_HEAP)
    assert not member(t, Diamond(bad), EMPTY_HEAP)
    good = A("{emp} 'skip' {emp}")
    assert member(t, Diamond(good), EMPTY_HEAP)
    assert member(t, Diamond(TrueA()), BOT)
    # general bodies need a genuine projection witness
    pt = A("1 |-> 'skip'")
    assert member(t, Diamond(pt), Heap((skip_cell(1, 1),)))
    assert not member(t, Diamond(pt), Heap(((1, IntVal(0)),)))


def test_member_tensor_changes_world(lean_tester):
    t = lean_tester
    inner = A("{emp} 'skip' {false}")
    # extending with an unsatisfiable invariant empties the set of
    # pre-states the nested triple is tested on
    h = Heap((skip_cell(2, 1),))
    assert not member(t, inner, h)
    assert member(t, Tensor(inner, FalseA()), h)


def test_pseudo_pure_truth_depends_only_on_rank(lean_tester):
    t = lean_tester
    rng = random.Random(5)
    from sepstore.fuzz import pseudo_pure
    heaps = t.universe()
    by_rank = {}
    for h in heaps:
        by_rank.setdefault(rank(h), []).append(h)
    for _ in range(25):
        phi = pseudo_pure(rng)
        for r, hs in by_rank.items():
            vals = {member(t, phi, h) for h in hs}
            assert len(vals) == 1, (phi, r)


def test_close_assertion():
    env = Env.of({"x": IntVal(2)})
    P = A("1 |-> x")
    closed = close_assertion(P, env)
    assert closed == PointsTo(IntLit(1), ValueLit(IntVal(2)))
    assert close_assertion(P, EMPTY_ENV) is P


def test_splits_enumerate_every_disjoint_pair():
    assert list(splits(BOT)) == [(BOT, BOT)]
    for h in Tester(fuzz_config()).universe()[1:]:
        pairs = list(splits(h))
        assert len(pairs) == 2 ** len(h.cells) == len(set(pairs))
        assert all(heap_join(h1, h2) == h for h1, h2 in pairs)


def reference_member3(t, P, w, frame, g):
    """g in [[P]]w * I(w) * frame by one pass over every assignment of
    g's cells to the three parts, as the model once computed it."""
    parts = ((P, w), (w, Emp()), (frame, Emp()))
    if g.is_bot:
        return all(member(t, Q, g, v) for Q, v in parts)
    for assign in itertools.product(range(3), repeat=len(g.cells)):
        cells = ([], [], [])
        for which, cell in zip(assign, g.cells):
            cells[which].append(cell)
        if all(member(t, Q, Heap(tuple(c)), v)
               for (Q, v), c in zip(parts, cells)):
            return True
    return False


def test_member3_matches_three_way_reference(lean_tester):
    t = lean_tester
    rng = random.Random(15)
    worlds = (Emp(), A("1 |-> 0"))
    seen = []
    for _ in range(40):
        P = rand_fuzz_asn(rng)
        for w in worlds:
            for frame in t.cfg.frame_pool:
                for g in t.universe():
                    got = t._member3(P, w, frame, g)
                    assert got == reference_member3(t, P, w, frame, g), \
                        (P, w, frame, g)
                    seen.append(got)
    assert len(seen) == 40 * 2 * 2 * 37 and set(seen) == {True, False}


# ---------------------------------------------------------------------------
# triples and entailments


def test_triple_skip_passes(lean_tester):
    v = lean_tester.test_triple(A("emp"), E("'skip'"), A("emp"))
    assert isinstance(v, Pass) and v.samples > 0


def test_triple_true_skip_false_fails(lean_tester):
    v = lean_tester.test_triple(TrueA(), E("'skip'"), FalseA())
    assert isinstance(v, Fail)
    assert v.witness.outcome == "post-violation"
    assert lean_tester.replay(v.witness, "triple", TrueA(),
                              (E("'skip'"), FalseA()))


def test_triple_update(lean_tester):
    v = lean_tester.test_triple(A("1 |-> _"), E("'[1] := 0'"), A("1 |-> 0"))
    assert isinstance(v, Pass)
    v = lean_tester.test_triple(A("emp"), E("'[1] := 0'"), A("true"))
    assert isinstance(v, Fail) and v.witness.outcome == "fault"


def test_triple_level_zero_is_vacuous():
    from dataclasses import replace
    t0 = Tester(replace(fuzz_config(), level_k=0))
    v = t0.test_triple(TrueA(), E("'skip'"), FalseA())
    # at level 0 only the bottom heap is examined, which satisfies every
    # postcondition; nothing can be refuted
    assert isinstance(v, Pass)


def test_triple_rejects_non_code(lean_tester):
    v = lean_tester.test_triple(A("emp"), E("3"), A("emp"))
    assert isinstance(v, Fail)


def test_universe_size_is_checked_before_enumerating():
    three_ints = replace(default_config(), int_pool=(0, 1, 2))
    for cfg, heaps in ((default_config(), 2198), (three_ints, 1729),
                       (fuzz_config(), 37)):
        assert len(Tester(cfg).universe()) == heaps <= MAX_UNIVERSE_HEAPS
    big = Tester(replace(default_config(), addr_pool=tuple(range(1, 7))))
    with pytest.raises(UniverseTooLarge, match="4,826,810 heaps"):
        big.universe()
    assert big._universe is None


def test_the_set_paths_refuse_an_oversized_universe_before_building_it():
    # a static goal never calls universe(): the code-only build refuses
    big = Tester(replace(default_config(), addr_pool=tuple(range(1, 7))))
    goal = A("1 |-> 0 * true => true")
    for ask in (lambda: big.test_entailment(goal.left, goal.right),
                lambda: big.denotation(goal, EMPTY_ENV)):
        t0 = time.monotonic()
        with pytest.raises(UniverseTooLarge, match="4,826,810 heaps"):
            ask()
        assert time.monotonic() - t0 < 1.0
    assert big._index is None and big._sets == {}


def test_cache_reentry_raises():
    """A computation that asks for its own cached result is an error, for
    membership, three-way membership, denotations and triples alike; the
    aborted entry is not cached."""
    t = Tester(fuzz_config())
    # a static assertion's member and _member3 are read from its set, so
    # this one holds a (*), which keeps it on the per-heap path
    P = Tensor(TrueA(), Emp())
    args = (P, EMPTY_ENV, Emp(), EMPTY_HEAP)
    t._member = lambda *a: t.member(*a)
    with pytest.raises(CacheReentry):
        t.member(*args)
    bits, row = t._member_cache[(P._id, EMPTY_ENV._id, Emp()._id)]
    assert bits is None and EMPTY_HEAP._id not in row
    del t._member
    assert t.member(*args) is True

    args3 = (P, Emp(), TrueA(), EMPTY_HEAP)
    t._star3 = lambda *a: t._member3(*a)
    with pytest.raises(CacheReentry):
        t._member3(*args3)
    bits, row = t._member3_table[(P._id, Emp()._id, TrueA()._id)]
    assert bits is None and EMPTY_HEAP._id not in row
    del t._star3
    assert t._member3(*args3) is True

    # the member calls above filled sets of their static sub-terms
    t = Tester(fuzz_config())
    static = A("1 |-> 0 * true")
    t._denote = lambda P, env: t.denotation(P, env)
    with pytest.raises(CacheReentry):
        t.denotation(static, EMPTY_ENV)
    assert t._sets == {}
    del t._denote
    assert t.denotation(static, EMPTY_ENV) & 1

    code = CodeVal(Skip(), EMPTY_ENV, INF)
    triple = (1, Emp(), A("emp"), code, A("emp"))
    t._sem_triple_at = lambda k, w, pre, c, post, env: \
        t.sem_triple_at(k, w, pre, c, post, env)
    with pytest.raises(CacheReentry):
        t.sem_triple_at(*triple)
    assert t._triple_cache == {}
    del t._sem_triple_at
    assert isinstance(t.sem_triple_at(*triple), Pass)


def test_entailment(lean_tester):
    t = lean_tester
    assert isinstance(t.test_entailment(A("1 |-> 0"),
                                        A("exists v. 1 |-> v")), Pass)
    v = t.test_entailment(TrueA(), FalseA())
    assert isinstance(v, Fail)
    assert t.replay(v.witness, "entailment", Implies(TrueA(), FalseA()))
    # the tag-mismatch countermodel behind the restricted-invariance entry
    lhs = A("1 |-> 'skip' * (2 |-> 'skip' /\\ {emp} 'skip' {false})")
    rhs = A("(1 |-> 'skip' /\\ {emp} 'skip' {false}) * "
            "(2 |-> 'skip' /\\ {emp} 'skip' {false})")
    assert isinstance(t.test_entailment(lhs, rhs), Fail)


# ---------------------------------------------------------------------------
# world-combination laws and distribution axioms (member-equality)


def world_pool():
    return [A(s) for s in ("emp", "true", "1 |-> 0", "{emp} 'skip' {emp}")]


def test_world_circ_unit_laws(lean_tester):
    t = lean_tester
    rng = random.Random(11)
    heaps = t.universe()
    checked = 0
    for w in world_pool():
        for _ in range(8):
            P = rand_fuzz_asn(rng)
            for h in heaps:
                want = member(t, P, h, w)
                assert member(t, P, h, circ(w, Emp())) == want
                assert member(t, P, h, circ(Emp(), w)) == want
                checked += 1
    assert checked >= 1000


def test_world_circ_associative(lean_tester):
    t = lean_tester
    rng = random.Random(12)
    ws = world_pool()
    heaps = t.universe()
    checked = 0
    for w1, w2, w3 in [(ws[0], ws[1], ws[2]), (ws[2], ws[1], ws[3]),
                       (ws[3], ws[2], ws[2])]:
        for _ in range(10):
            P = rand_fuzz_asn(rng, 1)
            left = circ(circ(w1, w2), w3)
            right = circ(w1, circ(w2, w3))
            for h in heaps:
                assert member(t, P, h, left) == member(t, P, h, right)
                checked += 1
    assert checked >= 1000


def test_distribution_axioms_member_equality(lean_tester):
    t = lean_tester
    rng = random.Random(13)
    from sepstore.fuzz import GENERATORS
    from sepstore.logic import apply_rule
    heaps = t.universe()
    checked = 0
    for name in ("DistTriple", "DistTensorTensor", "DistQuant",
                 "DistBinOp", "DistAtom"):
        for _ in range(8):
            params, _ = GENERATORS[name](rng)
            P, R = params["P"], params["R"]
            lhs = Tensor(P, R)
            rhs = dist_step(P, R)
            for h in heaps:
                assert member(t, lhs, h) == member(t, rhs, h), (name, P, R)
                checked += 1
    assert checked >= 1000


# ---------------------------------------------------------------------------
# uniformity: assertion denotations are closed under projections


def test_denotations_closed_under_truncation(lean_tester):
    t = lean_tester
    rng = random.Random(14)
    heaps = t.universe()
    for _ in range(30):
        P = rand_fuzz_asn(rng)
        for h in heaps:
            if member(t, P, h):
                r = rank(h)
                if r == INF:
                    continue
                for n in range(int(r) + 1):
                    assert member(t, P, truncate(n, h)), (P, h, n)
