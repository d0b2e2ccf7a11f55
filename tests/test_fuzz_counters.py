"""The per-rule fuzz counters of seed 0 are pinned by the benchmark's
baseline.

`bench/baseline.json` records, for the rule_fuzz pass drawn from seed 0
(20 one-instance requests per rule, on one shared Tester), how many
instances of each rule were checked, vacuous, rejected and failing.
`fuzz_all(seed=0, n=20)` draws the same instances in the same order, so
any change to the semantic model or the rule generators that alters a
verdict shows up as a changed counter.  The test only reads the file.

The same pass also shows that its Tester keeps one object per world, and
pins how many samples it checked.
"""

import json
from pathlib import Path

import pytest

from sepstore import syntax
from sepstore.fuzz import GENERATORS, fuzz_all, fuzz_config
from sepstore.semantics import Tester

BASELINE = Path(__file__).resolve().parent.parent / "bench" / "baseline.json"


@pytest.fixture(scope="module")
def seed_0_pass():
    """The results of the seed-0 pass and the Tester it ran on."""
    tester = Tester(fuzz_config())
    return fuzz_all(seed=0, n=20, tester=tester), tester


def test_fuzz_counters_match_the_bench_baseline(seed_0_pass):
    recorded = json.loads(BASELINE.read_text())[
        "workloads"]["rule_fuzz"]["seed_0"]["fuzz_counters_pass_0"]
    assert sorted(recorded) == sorted(GENERATORS)
    counters = {r.rule: [r.checked, r.vacuous, r.errors, len(r.failures)]
                for r in seed_0_pass[0]}
    assert counters == recorded


def test_member_cache_holds_one_object_per_world(seed_0_pass):
    # a row is keyed by serials; a world is an assertion, told apart by
    # its repr, which does not rely on `==`
    node = {n._id: n for n in syntax._NODES.values()}
    worlds = [node[w] for _, _, w in seed_0_pass[1]._member_cache]
    assert len({id(w) for w in worlds}) == len({repr(w) for w in worlds})
    assert len({repr(w) for w in worlds}) > 100


def test_seed_0_pass_samples_every_heap_once(seed_0_pass):
    # a table that skipped or repeated a counted sample would move these
    tester = seed_0_pass[1]
    assert tester.samples == 37751
    assert tester.inconclusive == 1660
    assert len(tester._triple_cache) == 2508
