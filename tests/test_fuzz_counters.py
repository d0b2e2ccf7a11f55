"""The per-rule fuzz counters of seed 0 are pinned by the benchmark's
baseline.

`bench/baseline.json` records, for the rule_fuzz pass drawn from seed 0
(20 one-instance requests per rule, on one shared Tester), how many
instances of each rule were checked, vacuous, rejected and failing.
`fuzz_all(seed=0, n=20)` draws the same instances in the same order, so
any change to the semantic model or the rule generators that alters a
verdict shows up as a changed counter.  The test only reads the file.
"""

import json
from pathlib import Path

from sepstore.fuzz import GENERATORS, fuzz_all

BASELINE = Path(__file__).resolve().parent.parent / "bench" / "baseline.json"


def test_fuzz_counters_match_the_bench_baseline():
    recorded = json.loads(BASELINE.read_text())[
        "workloads"]["rule_fuzz"]["seed_0"]["fuzz_counters_pass_0"]
    assert sorted(recorded) == sorted(GENERATORS)
    counters = {r.rule: [r.checked, r.vacuous, r.errors, len(r.failures)]
                for r in fuzz_all(seed=0, n=20)}
    assert counters == recorded
