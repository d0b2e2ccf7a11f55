"""The triple sampler and the entailment tester on the large universes.

The golden semantic corpus pins the model on the 37-heap fuzz universe.
This pins it on the two universes of `sepstore test` traffic: the default
config (2,198 heaps) and the iterator case study's (1,729 heaps).  The
goals are one instance of each `goal_test` template of the benchmark
(StarComm, StarAssoc, Update/Free/Seq with a frame, and the three
refutation patterns), plus its goals whose pre- and postconditions hold
no triple, `<>`, `mu` or `(*)`.  For each, on a fresh Tester, the verdict
kind, the witness of a Fail (`Witness.to_json()`), the samples and
inconclusive count of a Pass, and the number of triples the Tester
computed are pinned.

Print the results to record (only when a change of them is intended):

    PYTHONPATH=src:tests python tests/test_sampler_pin.py --record
"""

import json
import sys

import pytest

from sepstore.config import default_config, load_config
from sepstore.grammar import parse
from sepstore.semantics import Fail, Tester
from sepstore.syntax import Triple

C_IT = ("let n = [1] in if (n = 0) then skip else "
        "(eval [2] ; [1] := n - 1 ; eval [3])")
ITERATOR_CONFIG = f"""\
addrs = 1, 2, 3
ints = 0, 1, 2
code = skip ;; {C_IT}
tag_max = 3
k = 3
worlds = emp
frames = emp ;; true
"""
FALSE_SPEC = "{emp} 'skip' {false}"

# (name, config text or None for the default config, goal)
GOALS = (
    ("star-comm", None, "1 |-> 0 * 2 |-> 'skip' => 2 |-> 'skip' * 1 |-> 0"),
    ("star-assoc", None,
     "(3 |-> 'skip' * 1 |-> 0) * 2 |-> 1 => "
     "3 |-> 'skip' * (1 |-> 0 * 2 |-> 1)"),
    ("update-frame", None,
     "{1 |-> _ * 2 |-> 1} '[1] := 2' {1 |-> 2 * 2 |-> 1}"),
    ("free-frame", None, "{1 |-> _ * 3 |-> 1} 'free(1)' {3 |-> 1}"),
    ("seq", None,
     "{1 |-> _ * 2 |-> _} '[1] := 0 ; [2] := 1' {1 |-> 0 * 2 |-> 1}"),
    ("skip-false", None, "{2 |-> 'skip'} 'skip' {false}"),
    ("invariance", None,
     f"1 |-> 'skip' * (3 |-> 'skip' /\\ {FALSE_SPEC}) => "
     f"(1 |-> 'skip' /\\ {FALSE_SPEC}) * (3 |-> 'skip' /\\ {FALSE_SPEC})"),
    ("update-inv", None,
     f"{{(exists v. 3 |-> v) * (1 |-> 'skip' /\\ {FALSE_SPEC})}} "
     f"'[3] := 'skip'' "
     f"{{(3 |-> 'skip' /\\ {FALSE_SPEC}) * (1 |-> 'skip' /\\ {FALSE_SPEC})}}"),
    ("true-skip-false", None, "{true} 'skip' {false}"),
    ("emp-skip-false", None, "{emp} 'skip' {false}"),
    ("iterator", ITERATOR_CONFIG,
     f"{{1 |-> _ * 2 |-> 'skip' * 3 |-> '{C_IT}'}} 'eval [3]' "
     f"{{1 |-> 0 * 2 |-> 'skip' * 3 |-> '{C_IT}'}}"),
)

def _fail(triples, heap, outcome, reason, **where):
    return {"triples": triples, "verdict": "fail",
            "witness": {
                "kind": "triple" if where else "entailment",
                "world": "emp", "heap": heap, "outcome": outcome,
                "reason": reason, **where}}


def _pass(triples, samples, inconclusive):
    return {"triples": triples, "verdict": "pass", "samples": samples,
            "inconclusive": inconclusive}


def _outside(heap):
    return f"result heap [{heap}] is outside the postcondition"


RECORDED = {
    "star-comm": _pass(0, 2198, 0),
    "star-assoc": _pass(0, 2198, 0),
    "update-frame": _pass(1, 284, 0),
    "free-frame": _pass(1, 260, 0),
    "seq": _pass(1, 2340, 0),
    "skip-false": _fail(1, "2 = 'skip'@0", "post-violation",
                        _outside("2 = 'skip'@0"), frame="emp", level=1),
    "invariance": _fail(4, "1 = 'skip'@1\n3 = 'skip'@0",
                        "implication-violation",
                        "heap satisfies the left side but not the right"),
    "update-inv": _fail(5, "1 = 'skip'@0\n3 = -1", "post-violation",
                        _outside("1 = 'skip'@0\n3 = 'skip'@1"),
                        frame="emp", level=2),
    "true-skip-false": _fail(1, "<empty>", "post-violation",
                             _outside("<empty>"), frame="emp", level=1),
    "emp-skip-false": _fail(1, "<empty>", "post-violation",
                            _outside("<empty>"), frame="emp", level=1),
    "iterator": _pass(1, 236, 212),
}


def judge(config, text) -> dict:
    cfg = load_config(config) if config else default_config()
    P = parse(text, "assertion")
    tester = Tester(cfg)
    if type(P) is Triple:
        verdict = tester.test_triple(P.pre, P.code, P.post)
    else:
        verdict = tester.test_entailment(P.left, P.right)
    out = {"triples": len(tester._triple_cache)}
    if isinstance(verdict, Fail):
        out.update(verdict="fail", witness=verdict.witness.to_json())
    else:
        out.update(verdict="pass", samples=verdict.samples,
                   inconclusive=verdict.inconclusive)
    return out


@pytest.mark.parametrize("name, config, text", GOALS,
                         ids=[g[0] for g in GOALS])
def test_large_universe_verdicts_are_pinned(name, config, text):
    assert judge(config, text) == RECORDED[name]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    # prints the results to copy into RECORDED
    for name, config, text in GOALS:
        print(json.dumps([name, judge(config, text)]))
