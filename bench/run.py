#!/usr/bin/env python3
"""The sepstore benchmark: three closed-loop workloads, one client each.

    python3 bench/run.py --workload proof_check|rule_fuzz|goal_test|all \
        --seed N --seconds S --trace 0|1

proof_check  every script in proofs/ plus each name of the negative
             registry (logic.REJECTED) as a one-node script; one request
             is one round over all of them, in a fresh interpreter.
rule_fuzz    fuzz_rule for every rule of fuzz.GENERATORS, 20 instances
             each, one shared Tester(fuzz_config()) per pass and one
             interpreter per pass, as scripts/fuzz_rules.py does; one
             request is one fuzz_rule call of one instance.
goal_test    Tester.test_triple / test_entailment with a fresh Tester and
             interpreter per goal, over the cycles of goals.py.

Times are given in reference seconds: the workers run a fixed loop
every 20 ms (probe.py), and each time is scaled by how long that loop took
near it, to the speed of a host on which the loop takes a set time.  This
takes out the drift of a shared host's speed; the row shows the
wall-clock figures beside them.

Every request's answer is checked against a known answer; a wrong or
crashed request counts in error_rate and in "failed".  Each run prints one
row with the seven end-to-end metrics, and as its last line the JSON
result whose metrics are those BENCHMARK.json names: its end_to_end
metrics with --trace 0; with --trace 1, a timed run followed by a traced
replay of the same requests, and its per_layer metrics, which include the
tracing overhead (traced minus timed) of each end-to-end metric.  The
exit code is 0 when every answer was right, 1 otherwise, 2 when the
benchmark could not run at all.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import goals
import probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("proof_check", "rule_fuzz", "goal_test")
SETUP_PROBES = 5          # extra set-ups per run, so setup_s is a median
FUZZ_INSTANCES = 20       # instances of each rule in a pass
WORKER_TIMEOUT = 150      # seconds; a worker past it counts as crashed
TAIL_BEYOND = 10          # samples a tail percentile must have beyond it


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# workers


def spawn(job):
    """Run one worker; returns its result, with setup_s measured from the
    start of its interpreter, or raises RuntimeError if it crashed."""
    # a fixed hash seed keeps set and dict orders, and so the work done,
    # the same from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=json.dumps(job), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker timed out after {WORKER_TIMEOUT}s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"worker exit {proc.returncode}: {tail[0]}")
    result = json.loads(proc.stdout)
    result["probes"] = [tuple(x) for x in result["probes"]]
    result["setup_wall_s"] = \
        result["ready"] - t0 - result["setup_probe_s"]
    result["setup_s"] = result["setup_wall_s"] * probe.factor(
        result["probes"], t0, result["ready"])
    return result


class Session:
    """The requests and workers of one timed or traced run."""

    def __init__(self, trace):
        self.trace = trace
        self.requests = []
        self.workers = []
        self.jobs = []

    def serve(self, job):
        self.jobs.append(job)
        try:
            result = spawn(dict(job, trace=self.trace, setup_only=False))
        except RuntimeError as exc:
            self.requests.append({"latency": None, "verdicts": 0,
                                  "wrong": [str(exc)], "undecided": False})
            return
        result["job"] = job
        self.workers.append(result)
        for r in result["requests"]:
            r["wall_latency"] = r["latency"]
            r["latency"] *= probe.factor(result["probes"], r["t0"], r["t1"])
        self.requests.extend(result["requests"])

    def run_for(self, seconds, units):
        """Serve whole units (lists of jobs) until `seconds` have passed;
        whole units keep the mix of requests the same in every run."""
        end = time.monotonic() + seconds
        for unit in units:
            if time.monotonic() >= end:
                break
            for job in unit:
                self.serve(job)


def setup_probes(job):
    probes = []
    for _ in range(SETUP_PROBES):
        try:
            probes.append(spawn(dict(job, trace=False, setup_only=True)))
        except RuntimeError as exc:
            raise BenchError(f"set-up failed: {exc}") from None
    return probes


def proof_check(seed):
    """Unit: one round."""
    while True:
        yield [{"workload": "proof_check", "seed": seed}]


def rule_fuzz(seed):
    """Unit: one pass.  Pass 0 draws exactly what
    `scripts/fuzz_rules.py --seed N -n 20` does."""
    n = 0
    while True:
        yield [{"workload": "rule_fuzz", "instances": FUZZ_INSTANCES,
                "pass_seed": seed if n == 0 else f"{seed}/{n}"}]
        n += 1


def goal_test(seed):
    """Unit: one cycle of goals.py."""
    k = 0
    while True:
        yield [{"workload": "goal_test", "goal": g}
               for g in goals.cycle(seed, k)]
        k += 1


UNITS = {"proof_check": proof_check, "rule_fuzz": rule_fuzz,
         "goal_test": goal_test}


# ---------------------------------------------------------------------------
# metrics


def tail(latencies):
    """(value, percentile) of the highest whole percentile with at least
    TAIL_BEYOND samples beyond it, or None."""
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return xs[rank - 1], p
    return None


def end_to_end(probes, session):
    """The end-to-end metrics, in reference seconds (probe.py); the same
    measured in wall-clock seconds under "wall"."""
    reqs = session.requests
    done = [r for r in reqs if r["latency"] is not None]
    if not done:
        raise BenchError("no request completed")
    verdicts = sum(r["verdicts"] for r in done)
    workers = probes + session.workers

    def times(latency, setup):
        latencies = [r[latency] for r in done]
        return {
            "setup_s": statistics.median(w[setup] for w in workers),
            "goals_per_s": verdicts / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail": tail(latencies),
        }

    return {
        **times("latency", "setup_s"),
        "wall": times("wall_latency", "setup_wall_s"),
        "samples": len(done),
        "peak_rss_mb": max(w["rss_mb"] for w in session.workers),
        "attempted": len(reqs),
        "failed": sum(bool(r["wrong"]) for r in reqs),
        "undecided": sum(r["undecided"] for r in reqs),
    }


def row(workload, m):
    """One line: the times in reference seconds, each followed by the
    wall-clock figure in brackets."""
    w = m["wall"]

    def tail_text(t):
        return f"{t[0]:.5g} s (p{t[1]})" if t else "n/a"

    n = m["attempted"]
    return (f"{workload:<12} setup_s={m['setup_s']:.4f} s "
            f"[{w['setup_s']:.4f}]  "
            f"goals_per_s={m['goals_per_s']:.4f} 1/s "
            f"[{w['goals_per_s']:.4f}]  "
            f"latency_p50_s={m['latency_p50_s']:.5g} s "
            f"[{w['latency_p50_s']:.5g}]  "
            f"latency_tail_s={tail_text(m['latency_tail'])} "
            f"[{tail_text(w['latency_tail'])}] of {m['samples']} samples  "
            f"peak_rss_mb={m['peak_rss_mb']:.1f} MB  "
            f"error_rate={m['failed'] / n:.4f} ({m['failed']}/{n})  "
            f"undecided_rate={m['undecided'] / n:.4f} "
            f"({m['undecided']}/{n})")


def per_layer(session):
    spans, counts = {}, {}
    for w in session.workers:
        for name, (calls, incl, own) in w["trace"]["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += own
        for name, n in w["trace"]["counts"].items():
            counts[name] = counts.get(name, 0) + n

    def calls(name):
        return spans.get(name, [0])[0]

    def incl(name):
        return spans.get(name, [0, 0.0])[1]

    # spans are wall-clock times that include the probes within them, so
    # their base is too
    done = [r for r in session.requests if r["latency"] is not None]
    request_s = sum(r["t1"] - r["t0"] for r in done)
    member_calls = calls("semantics.member")
    entries = counts.get("semantics.member_cache_entries", 0)
    out = {
        "grammar.parse_calls": calls("grammar.parse"),
        "grammar.parse_s": incl("grammar.parse"),
        "interp.exec_calls": calls("interp.exec"),
        "interp.exec_s": incl("interp.exec"),
        "interp.out_of_fuel": counts.get("interp.out_of_fuel", 0),
        "semantics.member_calls": member_calls,
        "semantics.member_self_s": spans.get("semantics.member",
                                             [0, 0.0, 0.0])[2],
        "semantics.member_cache_entries": entries,
        "semantics.member_cache_hit_ratio":
            (member_calls - entries) / member_calls if member_calls else 0.0,
        "semantics.sem_triple_calls": calls("semantics.sem_triple"),
        "semantics.sem_triple_s": incl("semantics.sem_triple"),
        "semantics.universe_s": incl("semantics.universe"),
        "logic.check_proof_s": incl("logic.check_proof"),
        "fuzz.generate_s": incl("fuzz.generate"),
        "fuzz.judge_s": incl("fuzz.judge"),
        "trace.requests": len(done),
        "trace.request_s": request_s,
        "trace.entail_basic_share":
            incl("logic.entail_basic") / request_s,
        "trace.member_share": incl("semantics.member") / request_s,
    }
    for name in ("universe_heaps", "samples", "inconclusive"):
        out[f"semantics.{name}"] = counts.get(f"semantics.{name}", 0)
    for name in ("canon_key", "substitute", "free_vars"):
        out[f"syntax.{name}_calls"] = calls(f"syntax.{name}")
        out[f"syntax.{name}_s"] = incl(f"syntax.{name}")
    for name in ("entail_basic", "apply_rule"):
        out[f"logic.{name}_calls"] = calls(f"logic.{name}")
        out[f"logic.{name}_s"] = incl(f"logic.{name}")
    for name in spans:
        if name.startswith("logic.rule."):
            out[f"logic.rule_s.{name[len('logic.rule.'):]}"] = incl(name)
    for name in ("checked", "vacuous", "errors", "failures"):
        out[f"fuzz.{name}"] = sum(r.get(name, 0) for r in done)
    return out


def fuzz_counters(session, seed):
    """Per-rule counters of the pass drawn from the run's own seed, summed
    over the rule's one-instance requests."""
    names = ("checked", "vacuous", "errors", "failures")
    rules = {}
    for w in session.workers:
        if w["job"]["pass_seed"] == seed:
            for r in w["requests"]:
                acc = rules.setdefault(r["rule"], dict.fromkeys(names, 0))
                for k in names:
                    acc[k] += r[k]
    return [f"fuzz-counters seed={seed} rule={rule} "
            + " ".join(f"{k}={acc[k]}" for k in names)
            for rule, acc in rules.items()]


# ---------------------------------------------------------------------------
# one workload


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found next to {BENCH.name}/")
    return json.loads(path.read_text())


def measure(workload, seed, seconds, trace, spec):
    """Run one workload; returns (JSON result, lines to print)."""
    probes = setup_probes(next(UNITS[workload](seed))[0])
    timed = Session(trace=False)
    timed.run_for(seconds, UNITS[workload](seed))
    e2e = end_to_end(probes, timed)
    lines = [row(workload, e2e)]
    if workload == "rule_fuzz":
        lines += fuzz_counters(timed, seed)
    traced = Session(trace=True)
    if trace:
        for job in timed.jobs:
            traced.serve(job)
        traced_e2e = end_to_end([], traced)
        lines.append(row(workload + "+trace", traced_e2e))
        layer = per_layer(traced)
        for m in spec["end_to_end"]:
            layer[f"trace_overhead.{m['name']}"] = \
                traced_e2e[m["name"]] - e2e[m["name"]]
        lines += [f"  {k} = {v:.6g}" for k, v in sorted(layer.items())]
        values, wanted = layer, spec["per_layer"]
    else:
        values, wanted = e2e, spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    attempted = timed.requests + traced.requests
    failed = sum(bool(r["wrong"]) for r in attempted)
    for r in attempted:
        for why in r["wrong"]:
            lines.append(f"WRONG {workload}: {why}")
    return {
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }, lines


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        if not (ROOT / "src" / "sepstore").is_dir():
            raise BenchError("src/sepstore not found: run from a checkout")
        spec = load_spec()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for w in workloads:
            results[w], lines = measure(w, args.seed, args.seconds,
                                        bool(args.trace), spec)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
