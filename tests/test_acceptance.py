"""Acceptance gate: eight end-to-end criteria with runtime budgets.

Each test prints one PASS line with its measured runtime; an assertion
failure is the corresponding FAIL.  Criteria 3-5 run on the small fuzz
universe so the whole gate stays within its budgets on one core.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import term_corpus
from sepstore.config import default_config
from sepstore.fuzz import GENERATORS, fuzz_all, fuzz_config
from sepstore.grammar import parse, pretty
from sepstore.interp import (BOT, EMPTY_ENV, EMPTY_HEAP, Fault, Heap,
                             exec_cmd, heap_join, parse_heap_text, rank,
                             truncate)
from sepstore.logic import (REJECTED, UnknownRule, apply_rule, dist_step,
                            make_node, check_proof)
from sepstore.semantics import Pass, TestConfig, Tester
from sepstore.syntax import Emp, Tensor, TrueA, circ, substitute

ROOT = Path(__file__).resolve().parent.parent
PY = sys.executable


def run_cli(*args):
    """The command line of this checkout's src/, in a subprocess."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    return subprocess.run([PY, "-m", "sepstore.cli", *args],
                          capture_output=True, text=True, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path})


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.t0 = time.monotonic()

    def done(self, detail=""):
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.seconds, \
            f"{self.name}: {elapsed:.1f}s exceeds the {self.seconds}s budget"
        print(f"{self.name}: PASS ({elapsed:.1f}s{detail})")


# ---------------------------------------------------------------------------
# 1. counterexample registry


def test_criterion_1_counterexample_registry():
    b = Budget("criterion 1 (counterexample registry)", 10)
    # the laundering program faults on every run
    prog = parse("let x = [2] in ([3] := x ; eval [3])", "program")
    heap = parse_heap_text("1 = 0\n2 = 'free(-1)'\n3 = 'skip'")
    for _ in range(3):
        assert isinstance(exec_cmd(prog, EMPTY_ENV, heap, 10000), Fault)
    # the registry passes end to end on the default config
    r = run_cli("counterexamples", "--json")
    assert r.returncode == 0, r.stdout + r.stderr
    lines = [json.loads(l) for l in r.stdout.splitlines() if l]
    assert all(l["verdict"] == "as-registered" for l in lines)
    by_name = {l["goal"]: l for l in lines}
    # both bogus skip triples are refuted with explicit witnesses
    assert "witness" in by_name["true-skip-false/refuted"]
    assert "witness" in by_name["in-rule/emp-skip-false-refuted"]
    b.done(f", {len(lines)} entries")


# ---------------------------------------------------------------------------
# 2. projection laws, exhaustive


def test_criterion_2_projection_laws():
    b = Budget("criterion 2 (projection laws)", 5)
    tester = Tester(default_config())
    universe = tester.universe()
    assert len(universe) <= 10 ** 4
    for h in universe:
        for n in range(5):
            for m in range(5):
                assert truncate(n, truncate(m, h)) \
                    == truncate(min(n, m), h)
    # join distribution on the two-address slice of the universe
    slice2 = [h for h in universe
              if h.is_bot or h.domain() <= {1, 2}]
    for h1 in slice2:
        for h2 in slice2:
            j = heap_join(h1, h2)
            for n in range(4):
                assert truncate(n, j) == heap_join(truncate(n, h1),
                                                   truncate(n, h2))
    assert rank(EMPTY_HEAP) == 1
    assert rank(BOT) == 0
    b.done(f", {len(universe)} heaps, {len(slice2)}^2 join pairs")


# ---------------------------------------------------------------------------
# 3. distribution axioms as member-equality


DIST_RULES = ("DistTriple", "DistTensorTensor", "DistQuant", "DistBinOp",
              "DistAtom")


def test_criterion_3_distribution_axioms():
    b = Budget("criterion 3 (distribution axioms)", 60)
    tester = Tester(fuzz_config())
    rng = random.Random(23)
    heaps = tester.universe()
    instances = 0
    for name in DIST_RULES:
        for _ in range(8):
            params, _ = GENERATORS[name](rng)
            P, R = params["P"], params["R"]
            lhs, rhs = Tensor(P, R), dist_step(P, R)
            assert rhs is not None
            for w in (Emp(), parse("1 |-> 0", "assertion")):
                for h in heaps:
                    a = tester.member(lhs, EMPTY_ENV, w, h)
                    c = tester.member(rhs, EMPTY_ENV, w, h)
                    assert a == c, (name, pretty(lhs), h)
                    instances += 1
    assert instances >= 1000
    b.done(f", {instances} instances")


# ---------------------------------------------------------------------------
# 4. world-combination monoid laws


def test_criterion_4_world_monoid_laws():
    b = Budget("criterion 4 (world monoid laws)", 60)
    from sepstore.fuzz import assertion as rand_asn
    tester = Tester(fuzz_config())
    rng = random.Random(29)
    heaps = tester.universe()
    worlds = [parse(s, "assertion")
              for s in ("emp", "true", "1 |-> 0", "{emp} 'skip' {emp}")]
    instances = 0
    for _ in range(10):
        P = rand_asn(rng, 1)
        for w in worlds:
            unit_l = circ(Emp(), w)
            unit_r = circ(w, Emp())
            for h in heaps:
                want = tester.member(P, EMPTY_ENV, w, h)
                assert tester.member(P, EMPTY_ENV, unit_l, h) == want
                assert tester.member(P, EMPTY_ENV, unit_r, h) == want
                instances += 1
    for w1, w2, w3 in [(worlds[1], worlds[2], worlds[0]),
                       (worlds[2], worlds[3], worlds[2]),
                       (worlds[3], worlds[1], worlds[2])]:
        left = circ(circ(w1, w2), w3)
        right = circ(w1, circ(w2, w3))
        for _ in range(5):
            P = rand_asn(rng, 1)
            for h in heaps:
                assert tester.member(P, EMPTY_ENV, left, h) \
                    == tester.member(P, EMPTY_ENV, right, h)
                instances += 1
    assert instances >= 1000
    b.done(f", {instances} instances")


# ---------------------------------------------------------------------------
# 5. rule-soundness fuzz


def test_criterion_5_rule_soundness_fuzz():
    b = Budget("criterion 5 (rule-soundness fuzz)", 600)
    results = fuzz_all(seed=0, n=200)
    assert len(results) == len(GENERATORS)
    bad = [r for r in results if not r.ok]
    assert not bad, [(r.rule, r.failures[0][3].to_json()) for r in bad]
    worst = max(results, key=lambda r: r.inconclusive / r.samples)
    rate = worst.inconclusive / worst.samples
    assert rate <= 0.20, f"{worst.rule} inconclusive rate {rate:.0%}"
    b.done(f", {len(results)} rules x 200, worst inconclusive "
           f"{worst.rule} {rate:.0%}")


# ---------------------------------------------------------------------------
# 6. iterator case study


C_IT = ("let n = [1] in if (n = 0) then skip else "
        "(eval [2] ; [1] := n - 1 ; eval [3])")


def test_criterion_6_iterator_case_study():
    b = Budget("criterion 6 (iterator case study)", 60)
    proofs = sorted((ROOT / "proofs").glob("*.proof"))
    assert len(proofs) == 3
    for p in proofs:
        r = run_cli("check", str(p))
        assert r.returncode == 0, f"{p.name}: {r.stdout}{r.stderr}"
    # the concrete triple: counter in {0,1,2}, the stored operation skip
    cfg = TestConfig(
        addr_pool=(1, 2, 3),
        int_pool=(0, 1, 2),
        code_pool=(parse("skip", "program"), parse(C_IT, "program")),
        tag_max=3,
        level_k=3,
        world_pool=(Emp(),),
        frame_pool=(Emp(), TrueA()),
    )
    tester = Tester(cfg)
    pre = parse("1 |-> _ * 2 |-> 'skip' * 3 |-> '" + C_IT + "'",
                "assertion")
    post = parse("1 |-> 0 * 2 |-> 'skip' * 3 |-> '" + C_IT + "'",
                 "assertion")
    v = tester.test_triple(pre, parse("'eval [3]'", "expr"), post)
    assert isinstance(v, Pass), v.witness.to_json()
    assert v.samples - v.inconclusive > 0
    b.done(f", 3 scripts, triple samples={v.samples}")


# ---------------------------------------------------------------------------
# 7. negative registry


NEGATIVE_NAMES = ("DeepFrameAxiom", "In", "DiamondIn", "Conj",
                  "DoubleNegationElim", "InvarianceNonPure")


def test_criterion_7_negative_registry():
    b = Budget("criterion 7 (negative registry)", 1)
    for name in NEGATIVE_NAMES:
        with pytest.raises(UnknownRule) as exc:
            apply_rule(name, {"P": TrueA()}, [])
        assert exc.value.info == REJECTED[name]
        report = check_proof(make_node(name, [], TrueA()))
        assert not report.ok
        assert REJECTED[name] in report.failures[0][1]
    b.done(f", {len(NEGATIVE_NAMES)} rules rejected")


# ---------------------------------------------------------------------------
# 8. round-trip and substitution on a fuzz corpus


def test_criterion_8_roundtrip_and_substitution():
    b = Budget("criterion 8 (round-trip/substitution)", 10)
    from sepstore.syntax import IntLit, free_vars
    corpus = term_corpus(seed=101, n=100)
    assert len(corpus) == 100
    for kind, term in corpus:
        assert parse(pretty(term), kind) == term
        out = substitute(term, {"x": IntLit(9)})
        assert "x" not in free_vars(out)[0]
        assert free_vars(out)[0] <= free_vars(term)[0] - {"x"}
        assert parse(pretty(out), kind) == out
    b.done(", 100 terms")
