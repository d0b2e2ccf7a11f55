"""The names the benchmark's traced run reads from the package.

bench/spans.py wraps functions and methods of sepstore by name and reads
Tester counters; a rename or deletion of any of them leaves the traced
benchmark with nothing measured.  This runs the tracer the way the bench
worker does, in a fresh interpreter, on one fuzz instance, one entailment
with a triple in it, and one equality modulo AC.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_FUZZ = """
import json, random
import sepstore.config, sepstore.fuzz  # the worker loads every layer first
import spans

testers = []
tracer = spans.install(testers)
from sepstore.fuzz import fuzz_config, fuzz_rule
from sepstore.semantics import Tester

tester = Tester(fuzz_config())
res = fuzz_rule("Skip", tester, random.Random(0), 1)
from sepstore.syntax import (Emp, IntLit, PointsTo, Quote, Skip, Star,
                             Triple, TrueA, equal_mod_ac)
# a goal with a triple in it is judged heap by heap, through member
tester.test_entailment(TrueA(), Triple(Emp(), Quote(Skip()), Emp()))
cell = PointsTo(IntLit(1), IntLit(2))
assert equal_mod_ac(Star((cell, Emp())), cell)
print(json.dumps({"samples": res.samples, "testers": len(testers),
                  "spans": tracer.snapshot()["spans"],
                  "counts": spans.tester_counts(testers)}))
"""


def test_bench_tracer_runs_on_one_fuzz_instance():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    done = subprocess.run([sys.executable, "-c", TRACED_FUZZ],
                          capture_output=True, text=True, timeout=60,
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["samples"] == 1 and out["testers"] == 1
    assert out["spans"]["semantics.member"][0] > 0
    assert out["spans"]["fuzz.judge"][0] == 1
    # equal_mod_ac, the checker's one comparison of terms, reaches the
    # traced module global canon_key: once for each side
    assert out["spans"]["syntax.canon_key"][0] == 2
    counts = out["counts"]
    assert counts["semantics.samples"] > 0
    assert counts["semantics.member_cache_entries"] > 0
    assert counts["semantics.universe_heaps"] > 0
