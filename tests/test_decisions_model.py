"""The entailer against the model: every entailment that logic.entail_basic
proves must hold on the fuzz universe (Tester.test_entailment).

The pairs come from conftest.entail_pairs, nine shapes per seed, among
them the frame shapes A * F => F' * A and A * F => F' * (A \\/ B), where F'
is F up to alpha.  scripts/entail_sweep.py runs the same check over more
seeds.  The checker's other decisions meet the model the same way: a
term and its normal form or dist_step rewrite, and two terms that
equiv_basic or equal_mod_ac calls equal, must entail each other.

One refutation has a known cause in the model, not in the entailer:
_member_diamond evaluates <> of a pure body on a representative heap even
at the bottom heap, so such a <> excludes bottom, which every other
denotation contains (`false => <> false` is refuted at <bot>).  A
refutation at bottom with <> on the right is named by that cause; any
other refutation is a kernel soundness bug.
"""

import importlib.util
import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

from conftest import SHAPES, entail_pairs, model_refutes, rand_asn
from sepstore.grammar import parse, pretty
from sepstore.interp import EMPTY_HEAP
from sepstore.logic import (
    _strip_units, dist_step, entail_basic, equiv_basic, normalize_otimes,
    prenex,
)
from sepstore.semantics import Fail
from sepstore.syntax import Tensor, children, equal_mod_ac, free_vars

ROOT = Path(__file__).resolve().parent.parent

SEEDS = 140


def test_every_proved_entailment_holds_in_the_model(lean_tester):
    causes, proved, unknown = Counter(), Counter(), []
    for seed in range(SEEDS):
        for shape, (P, Q) in entail_pairs(seed).items():
            if not entail_basic(P, Q):
                continue
            proved[shape] += 1
            cause = model_refutes(lean_tester, P, Q)
            causes[cause] += 1
            if cause not in (None, "bot-diamond"):
                unknown.append(f"seed {seed} {shape}: "
                               f"{pretty(P)} => {pretty(Q)}")
    assert not unknown, "\n".join(unknown)
    assert set(proved) == set(SHAPES)
    # the known _member_diamond cause, kept in the count rather than
    # filtered out: seeds 32 and 36, both frame_unrelated
    assert causes["bot-diamond"] == 2
    assert causes[None] == sum(proved.values()) - 2


# ---------------------------------------------------------------------------
# the normal forms and equiv_basic against the model

NORMAL_FORM_SEEDS = 1500
EQUIV_SEEDS = 70
BOT_DIAMOND_EQUIV = 10


# terms where prenex renames a binder that would capture, with their prenex
# forms: rand_asn draws globally unique binder names, so no seed has one
PRENEX_RENAMES = [
    ("(exists x. 1 |-> x) * (exists x. 2 |-> x)",
     "exists x. exists x_1. 1 |-> x * 2 |-> x_1"),
    ("(exists x. 1 |-> x) * 2 |-> x", "exists x_1. 1 |-> x_1 * 2 |-> x"),
    ("(exists x. 1 |-> x) /\\ x = 1", "exists x_1. 1 |-> x_1 /\\ x = 1"),
]


def test_normal_forms_have_the_denotation_of_their_input(lean_tester):
    # rand_asn terms of depth 2, as in entail_pairs, and PRENEX_RENAMES; a
    # term that a normal form leaves as it is has nothing to check
    renames = [parse(text, "assertion") for text, _ in PRENEX_RENAMES]
    assert [pretty(prenex(P)) for P in renames] == [
        form for _, form in PRENEX_RENAMES]
    causes = Counter()
    for P in chain((rand_asn(random.Random(seed), depth=2)
                    for seed in range(NORMAL_FORM_SEEDS)), renames):
        if free_vars(P)[1]:
            continue
        for normal_form in (normalize_otimes, prenex, _strip_units):
            R = normal_form(P)
            if R is not P:
                causes[normal_form.__name__, model_refutes(lean_tester, R, P),
                       model_refutes(lean_tester, P, R)] += 1
    # no refutation of either kind, bot-diamond included, on these seeds
    assert {cause for _, *pair in causes for cause in pair} == {None}
    assert {name for name, *_ in causes} == {
        "normalize_otimes", "prenex", "_strip_units"}


@pytest.mark.parametrize("seed, normal_form", [
    (1006, _strip_units),       # true * <> (emp * 1 = y)
    (1013, normalize_otimes),   # <> (exists b1. x = 0 (*) 2 <= 3)
])
def test_normal_forms_meet_the_diamond_representative_defect(
        lean_tester, seed, normal_form):
    # depth 3: the normal form turns a <> body that is not pure into a
    # pure one, and _member_diamond judges a pure body on a representative
    # heap, so the model refutes R => P at the empty heap; the same cause
    # refutes `<> 1 = 1 => <> (emp * 1 = 1)`, which breaks the unit law
    # of *, so it is the model's fault, not the normal form's
    P = rand_asn(random.Random(seed))
    R = normal_form(P)
    verdict = lean_tester.test_entailment(R, P)
    assert isinstance(verdict, Fail) and verdict.witness.heap is EMPTY_HEAP
    assert model_refutes(lean_tester, P, R) is None


def test_every_equivalence_holds_both_ways_in_the_model(lean_tester):
    causes, unknown = Counter(), []
    for seed in range(EQUIV_SEEDS):
        for shape, (P, Q) in entail_pairs(seed).items():
            if not equiv_basic(P, Q):
                continue
            for A, B in ((P, Q), (Q, P)):
                cause = model_refutes(lean_tester, A, B)
                causes[cause] += 1
                if cause not in (None, "bot-diamond"):
                    unknown.append(f"seed {seed} {shape}: "
                                   f"{pretty(A)} => {pretty(B)}")
    assert not unknown, "\n".join(unknown)
    # the known _member_diamond cause, counted rather than filtered out
    assert causes["bot-diamond"] == BOT_DIAMOND_EQUIV


# ---------------------------------------------------------------------------
# dist_step and equal_mod_ac against the model

DIST_SEEDS = 600
EQUAL_SEEDS = 30


def _tensors(P):
    stack = [P]
    while stack:
        p = stack.pop()
        if type(p) is Tensor:
            yield p
        stack.extend(children(p))


def test_dist_step_has_the_denotation_of_its_input(lean_tester):
    # each L (*) R inside the depth-2 rand_asn terms against its one
    # distribution step; a stuck step (None) has nothing to check
    causes, stuck = Counter(), 0
    for seed in range(DIST_SEEDS):
        for T in _tensors(rand_asn(random.Random(seed), depth=2)):
            if free_vars(T)[1]:
                continue
            R = dist_step(T.left, T.right)
            if R is None:
                stuck += 1
                continue
            causes[model_refutes(lean_tester, R, T),
                   model_refutes(lean_tester, T, R)] += 1
    # no refutation of either kind, bot-diamond included, on these seeds
    assert causes == Counter({(None, None): 75}) and stuck == 6


def test_terms_equal_mod_ac_have_one_denotation(lean_tester):
    causes, shapes = Counter(), Counter()
    for seed in range(EQUAL_SEEDS):
        for shape, (P, Q) in entail_pairs(seed).items():
            if P is Q or not equal_mod_ac(P, Q):
                continue
            shapes[shape] += 1
            causes[model_refutes(lean_tester, P, Q),
                   model_refutes(lean_tester, Q, P)] += 1
    # the frame shape, A * F => F' * A, on every seed; no refutation
    assert shapes == Counter({"frame": EQUAL_SEEDS})
    assert causes == Counter({(None, None): EQUAL_SEEDS})


# ---------------------------------------------------------------------------
# the sweep pairs that only the entailer's * steps prove: the first four
# need one cancellation step per problem, its remainder matched at the
# last step, so a shared part is not cancelled greedily a second time;
# the last four need the last step's search over the groupings of the
# left parts for each right part

PROVED_ONLY_BY_STAR_STEPS = [
    (213, "frame_weaken"), (1142, "frame_weaken"), (1385, "frame_weaken"),
    (1385, "frame_unrelated"),
    (210, "unrelated"), (210, "frame_unrelated"), (400, "unrelated"),
    (400, "frame_unrelated"),
]


@pytest.mark.parametrize("seed, shape", PROVED_ONLY_BY_STAR_STEPS)
def test_single_cancellation_proves(lean_tester, seed, shape):
    P, Q = entail_pairs(seed)[shape]
    assert entail_basic(P, Q)
    assert model_refutes(lean_tester, P, Q) is None


# ---------------------------------------------------------------------------
# scripts/entail_sweep.py --against as a gate


def test_sweep_against_fails_on_a_lost_proof(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "entail_sweep", ROOT / "scripts" / "entail_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    seeds = ["--seeds", "20"]
    save = tmp_path / "save.json"
    assert sweep.main(seeds + ["--save", str(save)]) == 0
    names = json.loads(save.read_text())
    assert sweep.main(seeds + ["--against", str(save)]) == 0
    # names of seeds that were not run are not compared
    save.write_text(json.dumps(names + ["999:frame"]))
    assert sweep.main(seeds + ["--against", str(save)]) == 0
    unproved = next(f"{seed}:{shape}" for seed in range(20) for shape in SHAPES
                    if f"{seed}:{shape}" not in names)
    save.write_text(json.dumps(names + [unproved]))
    capsys.readouterr()
    assert sweep.main(seeds + ["--against", str(save)]) == 1
    assert "0 newly proved, 1 no longer proved" in capsys.readouterr().out


def test_sweep_script_runs_from_the_command_line():
    # a release gate runs the sweep as a script, in its own process
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "entail_sweep.py"),
         "--seeds", "5"], capture_output=True, text=True, env=env,
        timeout=120)
    assert r.returncode == 0, r.stdout + r.stderr
    [row] = [line.split() for line in r.stdout.splitlines()
             if line.startswith("all ")]
    pairs, proved, _, refuted = map(int, row[1:])
    assert pairs == 5 * len(SHAPES) and 0 < proved <= pairs
    assert refuted == 0
