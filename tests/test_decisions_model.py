"""The entailer against the model: every entailment that logic.entail_basic
proves must hold on the fuzz universe (Tester.test_entailment).

The pairs come from conftest.entail_pairs, seven shapes per seed, among
them the frame shapes A * F => F' * A and A * F => F' * (A \\/ B), where F'
is F up to alpha.  scripts/entail_sweep.py runs the same check over more
seeds.

One refutation has a known cause in the model, not in the entailer:
_member_diamond evaluates <> of a pure body on a representative heap even
at the bottom heap, so such a <> excludes bottom, which every other
denotation contains (`false => <> false` is refuted at <bot>).  A
refutation at bottom with <> on the right is named by that cause; any
other refutation is a kernel soundness bug.
"""

from collections import Counter

from conftest import SHAPES, entail_pairs, model_refutes
from sepstore.grammar import pretty
from sepstore.logic import entail_basic

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
