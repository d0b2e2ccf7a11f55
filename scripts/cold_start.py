#!/usr/bin/env python3
"""Where a cold `sepstore check` and `sepstore test` spend their time,
layer by layer.

    PYTHONPATH=src python scripts/cold_start.py [--runs N]

Each layer is timed in fresh interpreters, twice: with a bytecode cache,
and without one (PYTHONDONTWRITEBYTECODE=1 and no __pycache__), so that
every module is compiled from source.  The layers:

  interpreter start      `python -c pass`
  import <module>        each sepstore module, imported in dependency
                         order, so each figure is the module's own cost
  parse_script <file>    each file in proofs/, after the imports
  check_proof <file>     the parsed script
  sepstore check <file>  the wall time of the whole command
  test: <layer>          one `sepstore test` layer on a fresh Tester,
                         each in its own interpreter after the imports
                         and the parse of its config and goal: the
                         default universe, Tester(default_config())
                         .universe(), which builds all 2,198 heaps; its
                         universe index, the numbering and order that a
                         static goal reads, with no heap built;
                         the iterator triple of acceptance
                         criterion 6 on its universe; one StarComm
                         entailment and one Seq triple with a frame,
                         the slowest goal of the benchmark's goal_test,
                         on the default config

Each figure is the median over N runs, in milliseconds of wall-clock time.
The sepstore package is the one PYTHONPATH finds, so pointing it at
another checkout's src/ measures that checkout on the same proofs.  Both
modes run on their own copy of the package in a temporary directory: the
checkout's own __pycache__ is neither read nor written.  The last line is
the result as JSON.
"""

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROOFS = sorted((ROOT / "proofs").glob("*.proof"))
MODULES = ("syntax", "grammar", "interp", "semantics", "config", "logic",
           "fuzz", "cli")

# one run of the in-process layers; prints {layer: seconds} as JSON
LAYERS = """
import importlib, json, sys, time
times = {}
for m in %r:
    t0 = time.perf_counter()
    importlib.import_module("sepstore." + m)
    times["import " + m] = time.perf_counter() - t0
from sepstore.logic import check_proof, parse_script
roots = {}
for path in %r:
    text = open(path).read()
    t0 = time.perf_counter()
    roots[path] = parse_script(text)
    times["parse_script " + path.rsplit("/", 1)[-1]] = \\
        time.perf_counter() - t0
for path, root in roots.items():
    t0 = time.perf_counter()
    ok = check_proof(root).ok
    times["check_proof " + path.rsplit("/", 1)[-1]] = \\
        time.perf_counter() - t0
    assert ok, path
json.dump(times, sys.stdout)
""" % (MODULES, [str(p) for p in PROOFS])

C_IT = ("let n = [1] in if (n = 0) then skip else "
        "(eval [2] ; [1] := n - 1 ; eval [3])")
ITERATOR_CONFIG = f"""\
addrs = 1, 2, 3
ints = 0, 1, 2
code = skip ;; {C_IT}
tag_max = 3
k = 3
"""
# each test layer: (set-up, timed statement), run in a fresh interpreter
TEST_LAYERS = {
    "default universe": ("cfg = default_config()",
                         "Tester(cfg).universe()"),
    "universe index": ("cfg = default_config()",
                       "Tester(cfg)._universe_index()"),
    "iterator triple": (
        "cfg = load_config(%r)\nP = parse(%r, 'assertion')"
        % (ITERATOR_CONFIG,
           f"{{1 |-> _ * 2 |-> 'skip' * 3 |-> '{C_IT}'}} 'eval [3]' "
           f"{{1 |-> 0 * 2 |-> 'skip' * 3 |-> '{C_IT}'}}"),
        "Tester(cfg).test_triple(P.pre, P.code, P.post)"),
    "StarComm entailment": (
        "cfg = default_config()\n"
        "P = parse(\"1 |-> 0 * 2 |-> 'skip' => 2 |-> 'skip' * 1 |-> 0\", "
        "'assertion')",
        "Tester(cfg).test_entailment(P.left, P.right)"),
    "framed Seq triple": (
        "cfg = default_config()\n"
        "P = parse(\"{1 |-> _ * 2 |-> _} '[1] := 0 ; [2] := 1' "
        "{1 |-> 0 * 2 |-> 1}\", 'assertion')",
        "Tester(cfg).test_triple(P.pre, P.code, P.post)"),
}
# one run of one test layer; prints the seconds of its timed statement
TEST_LAYER = """
import sys, time
from sepstore.config import default_config, load_config
from sepstore.grammar import parse
from sepstore.semantics import Tester
exec(sys.argv[1])
timed = compile(sys.argv[2], "<layer>", "exec")
t0 = time.perf_counter()
exec(timed)
print(time.perf_counter() - t0)
"""


def wall(cmd, env):
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def one_run(env):
    """{layer: seconds} of one cold start of each kind."""
    times = {"interpreter start": wall([sys.executable, "-c", "pass"], env)}
    out = subprocess.run([sys.executable, "-c", LAYERS], env=env, check=True,
                         capture_output=True, text=True).stdout
    times.update(json.loads(out))
    for path in PROOFS:
        times["sepstore check " + path.name] = wall(
            [sys.executable, "-m", "sepstore.cli", "check", str(path)], env)
    for layer, (setup, timed) in TEST_LAYERS.items():
        times["test: " + layer] = float(subprocess.run(
            [sys.executable, "-c", TEST_LAYER, setup, timed], env=env,
            check=True, capture_output=True, text=True).stdout)
    return times


def measure(package, runs, cached):
    """Median {layer: milliseconds} over `runs` runs on a fresh copy of
    the package, with a warm bytecode cache or with none."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(package, Path(tmp) / "sepstore",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONDONTWRITEBYTECODE"}
        # a fixed hash seed, as the benchmark's workers have
        env.update(PYTHONPATH=tmp, PYTHONHASHSEED="0")
        if cached:
            one_run(env)   # writes the cache
        else:
            env["PYTHONDONTWRITEBYTECODE"] = "1"
        samples = [one_run(env) for _ in range(runs)]
    return {k: 1000 * statistics.median(s[k] for s in samples)
            for k in samples[0]}


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--runs", type=int, default=5)
    args = ap.parse_args()
    spec = importlib.util.find_spec("sepstore")
    if spec is None:
        ap.error("no sepstore package on the path; set PYTHONPATH=src")
    package = spec.submodule_search_locations[0]
    result = {"package": package, "runs": args.runs,
              "no_cache_ms": measure(package, args.runs, cached=False),
              "cache_ms": measure(package, args.runs, cached=True)}
    for mode in ("no_cache_ms", "cache_ms"):
        result[mode]["imports total"] = sum(
            ms for layer, ms in result[mode].items()
            if layer.startswith("import "))
    print(f"{'layer':44s} {'no cache':>9s} {'cache':>9s}  "
          f"(ms, median of {args.runs})")
    for layer, ms in result["no_cache_ms"].items():
        print(f"{layer:44s} {ms:9.2f} {result['cache_ms'][layer]:9.2f}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
