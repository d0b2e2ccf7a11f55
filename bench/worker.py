"""Serve benchmark requests in a fresh interpreter.

Reads one JSON job from stdin, sets up, serves the job's requests and
writes one JSON result to stdout.  `run.py` starts one worker per
proof_check round, per goal_test goal and per rule_fuzz pass, so that no
cache outlives its request, as with the `sepstore` command line.

Set-up (imports, config, input parsing) ends at the `ready` stamp, taken
with time.monotonic(), a clock shared by all processes of the machine, so
that `run.py` can measure set-up from the moment it started the
interpreter.  With "setup_only" the worker stops there.  With "trace" the
layers are instrumented (spans.py) before any input is parsed, and the
per-layer totals are reported with the result.

The host-speed probe (probe.py) runs from the first line of the worker to
its last; its samples go out with the result, and every time the worker
reports has the probe's own time taken out.
"""

import json
import random
import resource
import sys
import time
from pathlib import Path

from probe import Probe

ROOT = Path(__file__).resolve().parent.parent
INCONCLUSIVE_THRESHOLD = 0.2    # as in `sepstore test` (cli.py)
READY_SAMPLES = 5               # probes run at `ready`, so even a worker
                                # that stops there has some


class Clock:
    """Times one request at a time: its start and end on the machine's
    monotonic clock, and its latency, less the probe time within it."""

    def __init__(self, probe):
        self.probe = probe

    def start(self):
        self.t0, self.p0 = time.monotonic(), self.probe.total

    def stop(self):
        t1 = time.monotonic()
        return {"t0": self.t0, "t1": t1,
                "latency": t1 - self.t0 - (self.probe.total - self.p0)}


def inconclusive_share(samples, inconclusive):
    if samples:
        return inconclusive / samples
    return 1.0 if inconclusive else 0.0


# ---------------------------------------------------------------------------
# proof_check: one request is one round over every script


def setup_proof_check(job, snapshot, clock):
    from sepstore.logic import REJECTED, check_proof, parse_script

    scripts = [(p.name, "proof", parse_script(p.read_text()))
               for p in sorted((ROOT / "proofs").glob("*.proof"))]
    scripts += [(name, "rejected",
                 parse_script(f'(rule {name} (conclude "true"))'))
                for name in sorted(REJECTED)]
    random.Random(f"proof_check/{job['seed']}").shuffle(scripts)

    def serve():
        clock.start()
        reports = [(name, kind, check_proof(root))
                   for name, kind, root in scripts]
        timing = clock.stop()
        wrong = []
        for name, kind, report in reports:
            if kind == "proof" and not report.ok:
                wrong.append(f"{name}: rejected: {report.failures[:1]}")
            if kind == "rejected" and (
                    report.ok or REJECTED[name] not in report.failures[0][1]):
                wrong.append(f"{name}: not rejected with its explanation")
        if sum(kind == "proof" for _, kind, _ in reports) != 3:
            wrong.append("expected 3 proofs in proofs/")
        return [dict(timing, verdicts=len(reports), wrong=wrong,
                     undecided=False)], snapshot()

    return serve


# ---------------------------------------------------------------------------
# goal_test: one request is one goal on a fresh Tester


def setup_goal_test(job, snapshot, clock):
    from sepstore.config import default_config, load_config
    from sepstore.grammar import parse
    from sepstore.semantics import Fail, Tester
    from sepstore.syntax import Triple

    g = job["goal"]
    cfg = load_config(g["config"]) if g["config"] else default_config()
    P = parse(g["text"], "assertion")

    def serve():
        clock.start()
        tester = Tester(cfg)
        if type(P) is Triple:
            verdict = tester.test_triple(P.pre, P.code, P.post)
        else:
            verdict = tester.test_entailment(P.left, P.right)
        timing = clock.stop()
        trace = snapshot()
        wrong = []
        if isinstance(verdict, Fail):
            got = "fail"
            replays = tester.replay(verdict.witness, "triple", P.pre,
                                    (P.code, P.post)) \
                if type(P) is Triple else \
                tester.replay(verdict.witness, "entailment", P)
            if not replays:
                wrong.append("the Fail witness does not replay")
            undecided = False
        else:
            share = inconclusive_share(verdict.samples, verdict.inconclusive)
            undecided = share > INCONCLUSIVE_THRESHOLD
            got = "undecided" if undecided else "pass"
            if not verdict.samples:
                wrong.append("a Pass with no samples")
        if got != g["expect"]:
            wrong.append(f"verdict {got}, expected {g['expect']}")
        return [dict(timing, verdicts=1,
                     wrong=[f"{g['name']}: {w}" for w in wrong],
                     undecided=undecided)], trace

    return serve


# ---------------------------------------------------------------------------
# rule_fuzz: one request is one fuzz_rule call of one instance; a pass
# shares one Tester


def setup_rule_fuzz(job, snapshot, clock):
    from sepstore.fuzz import GENERATORS, fuzz_config, fuzz_rule
    from sepstore.semantics import Tester

    tester = Tester(fuzz_config())
    rng = random.Random(job["pass_seed"])
    rules = sorted(GENERATORS)

    def serve():
        # fuzz_rule(rule, tester, rng, n) draws its n instances one after
        # the other from rng, so n calls with n=1 draw the same instances
        # as one call with n; each of them is timed as its own request
        out = []
        for rule in rules:
            for _ in range(job["instances"]):
                clock.start()
                res = fuzz_rule(rule, tester, rng, 1)
                out.append(dict(
                    clock.stop(), verdicts=res.samples,
                    wrong=[f"{rule}: failing conclusion"]
                    if res.failures else [],
                    # no conclusion was tested: a premise failed, or the
                    # instance was rejected by schema validation
                    undecided=bool(res.inconclusive),
                    rule=rule, checked=res.checked, vacuous=res.vacuous,
                    errors=res.errors, failures=len(res.failures)))
        return out, snapshot()

    return serve


SETUP = {"proof_check": setup_proof_check, "goal_test": setup_goal_test,
         "rule_fuzz": setup_rule_fuzz}


def main():
    probe = Probe()
    probe.start()
    job = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    import sepstore.config  # noqa: F401  (with fuzz, loads every layer)
    import sepstore.fuzz  # noqa: F401

    testers, tracer = [], None
    if job["trace"]:
        import spans
        tracer = spans.install(testers)

    def snapshot():
        """The trace so far; taken before any known-answer check runs on
        the request's Tester."""
        if tracer is None:
            return None
        snap = tracer.snapshot()
        snap["counts"].update(spans.tester_counts(testers))
        return snap

    serve = SETUP[job["workload"]](job, snapshot, Clock(probe))
    result = {"ready": time.monotonic(), "setup_probe_s": probe.total}
    for _ in range(READY_SAMPLES):
        probe.sample()
    if not job["setup_only"]:
        result["requests"], result["trace"] = serve()
    probe.stop()
    result["probes"] = probe.samples
    result["rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
