"""Differential replay of single rule applications against recorded verdicts.

tests/data/golden_rule_nodes.txt holds one node per line,

    accept|reject <one-line proof script> ; <rule> <instance> <kind>

recorded with the checker that still kept a hand-written builder beside
each rule checker.  Every node's premises are `_assumed` leaves, as
apply_rule builds them.  The nodes are the seed-0 fuzz instances, ten per
rule drawn as fuzz_all(seed=0, n=10) draws them ("base", stating the
conclusion apply_rule returned, with all generator parameters), and up to
four mutants of each, which carry only the parameters that checker read:

    goal-swapped       the next instance's goal
    operands-reversed  every * and /\\ of the goal with its operands swapped
    hyps-dropped       no stated hypotheses
    premises-reversed  the premises in reverse order

Mutants equal to their base, and repeated lines, were left out.
"""

from collections import Counter
from pathlib import Path

from sepstore.logic import ProofError, apply_rule, check_node, parse_script
from sepstore.syntax import canon_key, equal_mod_ac

CORPUS = Path(__file__).resolve().parent / "data" / "golden_rule_nodes.txt"

# The recorded checker let OrE drop the hypotheses of its major premise:
# with the premises reversed, the major premise is a branch that assumes a
# disjunct, and the node was accepted without that hypothesis.
HYPOTHESIS_LEAKS = {
    "OrE 0 premises-reversed", "OrE 1 premises-reversed",
    "OrE 2 premises-reversed", "OrE 3 premises-reversed",
    "OrE 4 premises-reversed", "OrE 5 premises-reversed",
    "OrE 6 premises-reversed", "OrE 7 premises-reversed",
    "OrE 8 premises-reversed", "OrE 9 premises-reversed",
}


def corpus():
    for line in CORPUS.read_text().splitlines():
        verdict, script = line.split(" ", 1)
        yield verdict, parse_script(script), script.rsplit(";", 1)[1].strip()


def verdict_of(node):
    try:
        check_node(node)
    except ProofError:
        return "reject"
    return "accept"


def test_corpus_verdicts():
    replayed = [(tag, verdict, verdict_of(node))
                for verdict, node, tag in corpus()]
    assert len(replayed) > 1000
    changed = {(tag, old, new) for tag, old, new in replayed if old != new}
    assert changed == {(tag, "accept", "reject") for tag in HYPOTHESIS_LEAKS}


def params_of(node):
    grouped = {}
    for key, value in node.params:
        grouped.setdefault(key, []).append(value)
    return {k: v[0] if len(v) == 1 else tuple(v) for k, v in grouped.items()}


def test_apply_rule_reproduces_recorded_conclusions():
    checked = 0
    for verdict, node, tag in corpus():
        if not tag.endswith(" base"):
            continue
        assert verdict == "accept", tag
        premises = [p.conclusion for p in node.premises]
        built = apply_rule(node.rule, params_of(node), premises)
        assert equal_mod_ac(built.goal, node.conclusion.goal), tag
        assert Counter(map(canon_key, built.hyps)) \
            == Counter(map(canon_key, node.conclusion.hyps)), tag
        checked += 1
    assert checked > 400
