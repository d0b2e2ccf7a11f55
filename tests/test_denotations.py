"""Set-at-a-time denotations against per-heap membership.

`Tester.denotation` computes the set of universe heaps of a static
assertion (`semantics.static`) in one pass; `Tester.member` stays the
per-heap reference.  For every static term below, under an environment
that binds its free variables to values of the Tester's universe, the
term's bit of each heap must equal `member`: on every heap of the fuzz
universe, and on every 7th heap of the default and the iterator universes,
whose radix and truncation levels differ.  The terms are the static
membership terms of the golden semantic corpus, seeded `rand_asn` and
`fuzz.assertion` draws filtered to static terms, and a few hand-written
forms: n-ary chains, quantifiers over tagged code values, and terms that
tell each truncation level apart, under every binding of their variable.
"""

import json
import random
from pathlib import Path

import pytest

from conftest import rand_asn
from sepstore import fuzz
from sepstore.config import default_config, load_config
from sepstore.fuzz import fuzz_config
from sepstore.grammar import parse
from sepstore.interp import BOT, EMPTY_ENV, Env, Heap
from sepstore.semantics import Tester, static
from sepstore.syntax import (
    Emp, Exists, Forall, Implies, Star, TrueA, free_vars,
)

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


def assert_agrees(tester, terms, step):
    rng = random.Random(7)
    envs = [(P, bound(tester, P, rng)) for P in terms]
    envs += [(parse(text, "assertion"), EMPTY_ENV.bind("x", v))
             for text in EVERY_BINDING for v in tester.values()]
    heaps = tester.universe()[::step]
    for P, env in envs:
        bits = tester.denotation(P, env)
        for h in heaps:
            got = bits >> tester._bit[h._id] & 1 == 1
            assert got == tester.member(P, env, Emp(), h), (P, env, h)


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
        for h in t.universe():
            assert (bits >> t._bit[h._id] & 1 == 1) \
                == t.member(P, EMPTY_ENV, Emp(), h)

