"""Set-at-a-time denotations against per-heap membership.

`Tester.denotation` computes the set of universe heaps of a static
assertion (`semantics.static`) in one pass.  `Tester.member` reads a
static term's set too, so the reference here is `member` with `static`
off, which answers through the per-heap clauses all the way down
(`per_heap`).  For every static term below, under an environment
that binds its free variables to values of the Tester's universe, the
term's bit of each heap must equal `member`: on every heap of the fuzz
universe, and on every 7th heap of the default and the iterator universes,
whose radix and truncation levels differ.  The terms are the static
membership terms of the golden semantic corpus, seeded `rand_asn` and
`fuzz.assertion` draws filtered to static terms, and a few hand-written
forms: n-ary chains, quantifiers over tagged code values, and terms that
tell each truncation level apart, under every binding of their variable.

`Tester.test_entailment` scans for the first heap in its left side and
not in its right, narrowed by the sides' sets where they are static.  On
seeded `fuzz.assertion` pairs of each static/non-static combination, it
must give the verdict, witness, samples, inconclusive count and triple
count of the goal's own clause read per heap on every heap of the fuzz
universe, in universe order.
"""

import contextlib
import itertools
import json
import random
from pathlib import Path

import pytest

from conftest import rand_asn
from sepstore import fuzz, semantics
from sepstore.config import default_config, load_config
from sepstore.fuzz import fuzz_config
from sepstore.grammar import parse
from sepstore.interp import (
    BOT, EMPTY_ENV, CodeVal, Env, Heap, IntVal, rank, truncate,
)
from sepstore.semantics import Fail, Pass, Tester, Witness, static
from sepstore.syntax import (
    Emp, Exists, Forall, Implies, Skip, Star, TrueA, free_vars,
)
from test_tables import _fresh_answers, _references

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "golden_semantics.jsonl"

C_IT = ("let n = [1] in if (n = 0) then skip else "
        "(eval [2] ; [1] := n - 1 ; eval [3])")
ITERATOR_CONFIG = f"""\
addrs = 1, 2, 3
ints = 0, 1, 2
code = skip ;; {C_IT}
tag_max = 3
k = 3
"""

HAND_WRITTEN = (
    "1 |-> 0 * 2 |-> _ * 3 |-> 'skip'",
    "(1 |-> _ \\/ emp) * (2 |-> _ \\/ emp) * (3 |-> _ \\/ emp)",
    "true * 2 |-> 'skip' * emp",
    "exists v. 1 |-> v /\\ (1 |-> v => 1 |-> 'skip')",
    "exists v. exists u. 1 |-> v * 2 |-> u",
    "forall v. 2 |-> v \\/ true * 3 |-> v",
    "x = x => (1 |-> x * true)",
    "(2 |-> x => false) /\\ y <= 1",
    "exists v. (1 |-> v * 3 |-> x) /\\ (emp \\/ true)",
)


# terms whose set depends on each truncation level: each is checked under
# every binding of x, the tagged closures among them
EVERY_BINDING = (
    "1 |-> x => false",
    "(2 |-> x => false) * true",
    "exists v. 1 |-> v /\\ (1 |-> v => 1 |-> x)",
    "(1 |-> x => false) * (3 |-> x => 3 |-> 'skip')",
)


def static_terms():
    terms = [parse(line["term"], "assertion")
             for line in map(json.loads, CORPUS.read_text().splitlines())
             if "term" in line]
    rng = random.Random(28)
    terms += [rand_asn(rng, depth=3) for _ in range(300)]
    terms += [fuzz.assertion(rng, 3) for _ in range(300)]
    terms += [parse(text, "assertion") for text in HAND_WRITTEN]
    return list(dict.fromkeys(t for t in terms if static(t)))


def bound(tester, P, rng):
    """An environment binding each free variable of P to a value."""
    vals = tester.values()
    return Env(tuple((x, rng.choice(vals))
                     for x in sorted(free_vars(P)[0])))


@contextlib.contextmanager
def per_heap():
    """A context in which each member row made is per heap: no term is
    static, so membership of a static term is not read from its set."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semantics, "static", lambda P: False)
        yield


def assert_agrees(tester, terms, step):
    rng = random.Random(7)
    envs = [(P, bound(tester, P, rng)) for P in terms]
    envs += [(parse(text, "assertion"), EMPTY_ENV.bind("x", v))
             for text in EVERY_BINDING for v in tester.values()]
    heaps = tester.universe()[::step]
    for P, env in envs:
        bits = tester.denotation(P, env)
        with per_heap():
            for h in heaps:
                got = bits >> tester._bit[h._id] & 1 == 1
                assert got == tester.member(P, env, Emp(), h), (P, env, h)
    # every row, down to the atoms, answered per heap
    assert all(bits is None for bits, _ in tester._member_cache.values())


def connectives(P) -> set:
    """The class names of P and of its assertion sub-terms."""
    todo, out = [P], set()
    while todo:
        p = todo.pop()
        out.add(type(p).__name__)
        todo += getattr(p, "parts", ())
        if type(p) is Implies:
            todo += (p.left, p.right)
        elif type(p) in (Forall, Exists):
            todo.append(p.body)
    return out


def test_static_terms_cover_every_connective():
    terms = static_terms()
    assert len(terms) > 150
    assert set().union(*map(connectives, terms)) == {
        "FalseA", "TrueA", "Emp", "Eq", "Leq", "PointsTo", "And", "Or",
        "Implies", "Forall", "Exists", "Star"}
    assert any(len(P.parts) > 2 for P in terms if type(P) is Star)


def test_denotation_matches_member_on_the_fuzz_universe():
    assert_agrees(Tester(fuzz_config()), static_terms(), 1)


@pytest.mark.parametrize("config", [None, ITERATOR_CONFIG],
                         ids=["default", "iterator"])
def test_denotation_matches_member_on_the_large_universes(config):
    cfg = load_config(config) if config else default_config()
    assert_agrees(Tester(cfg), static_terms(), 7)


def test_static_terms():
    for text in ("emp => 1 |-> 0 * true", "forall v. exists u. v = u",
                 "1 |-> 0 /\\ (2 |-> 1 \\/ false) * emp"):
        assert static(parse(text, "assertion"))
    for text in ("{emp} 'skip' {true}", "<> emp", "emp (*) 1 |-> 0",
                 "mu X. {X} 'skip' {emp}", "emp * (true /\\ <> emp)"):
        assert not static(parse(text, "assertion"))


def test_outside_heaps_stay_per_heap():
    # a heap with an address outside the pool has no bit; _member3 answers
    # it from the per-heap row, as it answers a non-static assertion
    t = Tester(fuzz_config())
    P = parse("7 |-> 0 * true", "assertion")
    fresh = Heap(((7, t.values()[0]),))
    t.universe()
    assert fresh._id not in t._bit
    assert t._member3(P, Emp(), TrueA(), fresh) is True
    bits, row = t._member3_table[(P._id, Emp()._id, TrueA()._id)]
    assert bits is not None and row == {fresh._id: True}
    assert t._member3(P, Emp(), TrueA(), BOT) is True


def test_each_tester_reads_its_own_index():
    # the default universe is built after the fuzz one, so the registry
    # entry of a heap both hold names the default index; a set of the
    # fuzz Tester must still use the fuzz numbering
    small = Tester(fuzz_config())
    small.universe()
    large = Tester(default_config())
    large.universe()
    P = parse("exists v. 1 |-> v * 2 |-> 0", "assertion")
    for t in (small, large):
        bits = t.denotation(P, EMPTY_ENV)
        with per_heap():
            for h in t.universe():
                assert (bits >> t._bit[h._id] & 1 == 1) \
                    == t.member(P, EMPTY_ENV, Emp(), h)



# --- heaps built on demand


def built(tester) -> list:
    """The heaps the Tester's index has built or registered so far."""
    return [h for h in tester._index.by_code if h is not None]


def reference_universe(tester) -> list:
    """Bot, then every partial map from the address pool into values(),
    by domain size, domain and itertools.product over the values."""
    addrs, vals = sorted(tester.cfg.addr_pool), tester.values()
    out = [BOT]
    for size in range(len(addrs) + 1):
        for dom in itertools.combinations(addrs, size):
            out += [Heap(tuple(zip(dom, vs)))
                    for vs in itertools.product(vals, repeat=size)]
    return out


def test_a_static_goal_builds_only_the_heaps_it_reads(monkeypatch):
    run_on = []
    run = semantics.run_codeval

    def recorded(code, g, fuel):
        run_on.append(g)
        return run(code, g, fuel)

    monkeypatch.setattr(semantics, "run_codeval", recorded)
    # a Pass of a static entailment builds no heap
    t = Tester(default_config())
    P = parse("1 |-> 0 * 2 |-> 'skip' => 2 |-> 'skip' * 1 |-> 0",
              "assertion")
    assert isinstance(t.test_entailment(P.left, P.right), Pass)
    assert built(t) == []
    # an early Fail builds the heaps it ran the code on, and no other
    t = Tester(default_config())
    P = parse("{emp} 'skip' {false}", "assertion")
    verdict = t.test_triple(P.pre, P.code, P.post)
    assert isinstance(verdict, Fail)
    assert set(built(t)) == set(run_on) - {BOT} == {verdict.witness.heap}
    # a Pass of a static straight-line triple builds no heap and runs no
    # code: its runs are digit maps
    run_on.clear()
    t = Tester(default_config())
    P = parse("{1 |-> _ * 3 |-> 'skip'} '[1] := 1' {1 |-> 1 * 3 |-> 'skip'}",
              "assertion")
    assert isinstance(t.test_triple(P.pre, P.code, P.post), Pass)
    assert built(t) == [] and run_on == []
    # a Pass of any other static triple builds heaps of its precondition's
    # set
    t = Tester(default_config())
    P = parse("{1 |-> _ * 3 |-> 'skip'} 'let x = [1] in [1] := x' "
              "{1 |-> _ * 3 |-> 'skip'}", "assertion")
    assert isinstance(t.test_triple(P.pre, P.code, P.post), Pass)
    pre = 0
    for w in t.cfg.world_pool:
        for frame in t.cfg.frame_pool:
            pre |= t._member3_entry(P.pre, w, frame)[0]
    assert 0 < len(built(t)) < len(t._index.by_code)
    assert all(pre >> t._bit[h._id] & 1 for h in built(t))
    # the heaps not built yet are built in the universe's order
    reference = reference_universe(t)
    assert t.universe() == reference
    assert len(built(t)) == len(reference) - 1
    for n in range(5):
        assert t.universe_up_to_rank(n) \
            == [h for h in reference if rank(h) <= n]


def test_a_heap_interned_first_elsewhere_reads_its_bit_from_its_cells():
    skip = CodeVal(Skip(), EMPTY_ENV, 2)
    heaps = [Heap(((1, IntVal(0)),)), Heap(((1, IntVal(-1)), (3, skip))),
             Heap(((2, skip), (3, IntVal(2))))]
    t = Tester(default_config())
    terms = [parse(text, "assertion") for text in
             ("1 |-> 0 * true", "exists v. 1 |-> v", "emp", "3 |-> _ * true")]
    for P in terms:
        for h in heaps:
            for frame in t.cfg.frame_pool:
                got = t._member3(P, Emp(), frame, h)
                bits, row = t._member3_table[(P._id, Emp()._id, frame._id)]
                # the set path answered: the per-heap row stays empty
                assert bits is not None and row == {}
                with per_heap():
                    assert got == t._star3(P, Emp(), frame, h), \
                        (P, h, frame)
    # each was registered under its own code, as the index builds it
    for h in heaps:
        code = t._bit[h._id] - 1
        assert t._index.by_code[code] is h
        assert t._index.heap(code) is h
        assert _fresh_answers(h, t._index) == _references(h)
    assert t.universe() == reference_universe(t)


@pytest.mark.parametrize("config", ["fuzz", None, ITERATOR_CONFIG],
                         ids=["fuzz", "default", "iterator"])
def test_truncations_come_no_later_in_universe_order(config):
    # what makes the heap-by-heap entailment scan exact: the first heap
    # outside a goal is the first one of its left side outside its right
    cfg = fuzz_config() if config == "fuzz" else \
        load_config(config) if config else default_config()
    heaps = Tester(cfg).universe()
    position = {h._id: i for i, h in enumerate(heaps)}
    for i, h in enumerate(heaps):
        for n in range(rank(h) + 1):
            assert position[truncate(n, h)._id] <= i, (h, n)


SPEC = "{emp} 'skip' {false}"


def test_a_goal_with_a_triple_builds_only_the_heaps_it_reads():
    # a Pass whose left side is emp reads Bot and the empty heap only
    t = Tester(default_config())
    P = parse("emp => mu X. {X} 'skip' {false}", "assertion")
    assert isinstance(t.test_entailment(P.left, P.right), Pass)
    assert len(built(t)) <= 2
    # a Fail builds no heap after its witness in universe order
    t = Tester(default_config())
    P = parse(f"1 |-> 'skip' * (2 |-> 'skip' /\\ {SPEC}) => "
              f"(1 |-> 'skip' /\\ {SPEC}) * (2 |-> 'skip' /\\ {SPEC})",
              "assertion")
    verdict = t.test_entailment(P.left, P.right)
    assert isinstance(verdict, Fail)
    witness = t._bit[verdict.witness.heap._id]
    last = t._order.index(witness)
    assert 0 < len(built(t)) <= last
    assert set(t._bit[h._id] for h in built(t)) <= set(t._order[:last + 1])


# --- one entailment rule

PAIRS_PER_KIND = 12
FAILURE = "heap satisfies the left side but not the right"


def entailment_pairs() -> list:
    """Seeded pairs (P, Q) of fuzz.assertion draws, PAIRS_PER_KIND of each
    static/non-static combination of P and Q."""
    rng = random.Random(34)
    kinds = {(p, q): [] for p in (True, False) for q in (True, False)}
    while any(len(pairs) < PAIRS_PER_KIND for pairs in kinds.values()):
        P, Q = fuzz.assertion(rng, 3), fuzz.assertion(rng, 3)
        pairs = kinds[static(P), static(Q)]
        if len(pairs) < PAIRS_PER_KIND:
            pairs.append((P, Q))
    return [pair for pairs in kinds.values() for pair in pairs]


def first_heap_outside(t, P, Q):
    """The verdict of P => Q read per heap: the first heap of universe(),
    in order, outside the goal's clause."""
    goal = Implies(P, Q)
    samples = 0
    with per_heap():
        heaps = t.universe()
        for env in t._env_samples(free_vars(goal)[0]):
            for w in t.cfg.world_pool:
                bad = next((h for h in heaps
                            if not t.member(goal, env, w, h)), None)
                if bad is not None:
                    return Fail(Witness("entailment", w, None, bad,
                                        "implication-violation", FAILURE,
                                        env))
                samples += len(heaps)
    return Pass(samples, t.inconclusive)


def outcome(t, verdict, P, Q) -> tuple:
    """The verdict, the number of triples computed, and the heaps each
    non-static side was read on, per environment and world."""
    sides = {X._id for X in (P, Q) if not static(X)}
    read = {(key, h) for key, (_, row) in t._member_cache.items()
            if key[0] in sides for h in row}
    triples = len(t._triple_cache)
    if isinstance(verdict, Fail):
        return "fail", verdict.witness.to_json(), triples, read
    return "pass", verdict.samples, verdict.inconclusive, triples, read


def test_entailment_finds_the_first_heap_outside_the_goal():
    pairs = entailment_pairs()
    assert len({(static(P), static(Q)) for P, Q in pairs}) == 4
    verdicts = set()
    for P, Q in pairs:
        t, reference = Tester(fuzz_config()), Tester(fuzz_config())
        got = outcome(t, t.test_entailment(P, Q), P, Q)
        want = first_heap_outside(reference, P, Q)
        assert got == outcome(reference, want, P, Q), (P, Q)
        verdicts.add((static(P), static(Q), got[0]))
    # each combination both passes and fails
    assert len(verdicts) == 8
