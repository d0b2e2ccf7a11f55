"""Exact replay of the semantic model against recorded results.

tests/data/golden_semantics.jsonl holds one JSON object per item, in the
order `items()` yields them.  A membership item pins

    term        pretty-printed closed assertion
    bits        for each world in WORLDS (given as text), the string of
                `member` answers ("1"/"0") over the heaps of the fuzz
                universe, in universe order

over one shared Tester; the terms are `fuzz.assertion` draws plus
quantified, recursive (`fuzz._contractive_mu`), extended, modal and
nested-triple forms.  A verdict item pins

    goal        pretty-printed `true => A`, `A => B` or `{A} 'skip' {B}`
                over random assertions with free variables
    kind        "entailment" or "triple"
    verdict     "pass" or "fail"
    samples, inconclusive   of a Pass
    witness     `Witness.to_json()` of a Fail

each on a fresh Tester on the fuzz universe; every Fail witness must also
replay on another fresh Tester.  Witnesses compare as JSON, so a change of
how a world is represented in memory does not show, but any change of a
verdict, sample count or witness does.

Regenerate (only when a change of the recorded results is intended):

    PYTHONPATH=src:tests python tests/test_semantics_golden.py --record
"""

import json
import random
import sys
from pathlib import Path

from conftest import rand_asn
from sepstore import fuzz
from sepstore.fuzz import fuzz_config
from sepstore.grammar import parse, pretty
from sepstore.interp import EMPTY_ENV
from sepstore.semantics import Fail, Tester
from sepstore.syntax import (
    And, Diamond, Exists, Forall, Implies, Or, PointsTo, Quote, Skip,
    Tensor, Triple, TrueA, Var, free_vars,
)

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "golden_semantics.jsonl"

WORLDS = ("emp", "1 |-> 0")
SKIP = Quote(Skip())


def world(text):
    return parse(text, "assertion")


def membership_terms():
    rng = random.Random(41)
    a = lambda depth=1: fuzz.assertion(rng, depth)
    terms = [a(2) for _ in range(70)]
    for _ in range(12):
        terms.append(Exists("v", And((PointsTo(fuzz.addr(rng), Var("v")),
                                      a()))))
        terms.append(Forall("v", Or((PointsTo(fuzz.addr(rng), Var("v")),
                                     a()))))
    terms += [fuzz._contractive_mu(rng) for _ in range(14)]
    terms += [Tensor(a(), a()) for _ in range(12)]
    terms += [Diamond(a()) for _ in range(10)]
    terms += [Triple(Triple(a(), SKIP, a()), SKIP, a()) for _ in range(8)]
    terms += [Tensor(Triple(a(), SKIP, a()), a()) for _ in range(6)]
    return terms


def goals():
    rng = random.Random(47)
    out = []
    while len(out) < 100:
        A, B = rand_asn(rng, depth=2), rand_asn(rng, depth=2)
        roll = len(out) % 3
        goal = (Implies(TrueA(), A) if roll == 0 else Implies(A, B)
                if roll == 1 else Triple(A, SKIP, B))
        if free_vars(goal)[0]:
            out.append(goal)
    return out


def items():
    tester = Tester(fuzz_config())
    for P in membership_terms():
        yield "member", tester, P
    for goal in goals():
        yield "goal", None, goal


def _run(tester, goal):
    if type(goal) is Triple:
        return "triple", tester.test_triple(goal.pre, goal.code, goal.post)
    return "entailment", tester.test_entailment(goal.left, goal.right)


def _replays(goal, kind, witness):
    tester = Tester(fuzz_config())
    if kind == "triple":
        return tester.replay(witness, kind, goal.pre, (goal.code, goal.post))
    return tester.replay(witness, kind, goal)


def record(what, tester, P):
    if what == "member":
        bits = lambda w: "".join("1" if tester.member(P, EMPTY_ENV, w, h)
                                 else "0" for h in tester.universe())
        return {"term": pretty(P),
                "bits": {text: bits(world(text)) for text in WORLDS}}
    kind, v = _run(Tester(fuzz_config()), P)
    out = {"goal": pretty(P), "kind": kind}
    if isinstance(v, Fail):
        out.update(verdict="fail", witness=v.witness.to_json(),
                   replays=_replays(P, kind, v.witness))
    else:
        out.update(verdict="pass", samples=v.samples,
                   inconclusive=v.inconclusive)
    return out


def test_semantics_match_recorded_results():
    recorded = [json.loads(line)
                for line in CORPUS.read_text().splitlines()]
    replayed = [record(*item) for item in items()]
    assert len(replayed) == len(recorded) == 244
    for i, (old, new) in enumerate(zip(recorded, replayed)):
        assert new == old, f"item {i}: {old.get('term', old.get('goal'))}"


def test_corpus_covers_both_answers_and_replays_every_witness():
    recorded = [json.loads(line)
                for line in CORPUS.read_text().splitlines()]
    bits = "".join(b for r in recorded if "bits" in r
                   for b in r["bits"].values())
    assert "0" in bits and "1" in bits
    # the two worlds disagree on some term
    assert any(len(set(r["bits"].values())) > 1
               for r in recorded if "bits" in r)
    verdicts = [r for r in recorded if "verdict" in r]
    for kind in ("entailment", "triple"):
        assert {r["verdict"] for r in verdicts if r["kind"] == kind} \
            == {"pass", "fail"}
    assert all(r["replays"] for r in verdicts if r["verdict"] == "fail")
    assert any(r["inconclusive"] for r in verdicts if r["verdict"] == "pass")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    with open(CORPUS, "w") as fh:
        for item in items():
            fh.write(json.dumps(record(*item)) + "\n")
