"""Goal corpus of the goal_test workload, as text with known answers.

A cycle is one pass over every goal kind below: the five semantic goals
of `sepstore counterexamples`, the paper's iterator triple, and one seeded
draw from each template of a larger corpus.  Valid templates are
conclusions of sound rules (StarComm, StarAssoc, Update/Free/Seq with a
frame); invalid ones instantiate the registry's refutation patterns on
other cells.  Every cycle has the same mix of kinds, so a run's latency
distribution does not depend on how far into a cycle the clock ran.
"""

import random

ADDRS = (1, 2, 3)
INTS = (0, 1, 2)
VALUES = ("0", "1", "'skip'")
FALSE_SPEC = "{emp} 'skip' {false}"

C_IT = ("let n = [1] in if (n = 0) then skip else "
        "(eval [2] ; [1] := n - 1 ; eval [3])")

# the iterator case study's universe (tests/test_acceptance.py, criterion 6)
ITERATOR_CONFIG = f"""\
addrs = 1, 2, 3
ints = 0, 1, 2
code = skip ;; {C_IT}
tag_max = 3
k = 3
worlds = emp
frames = emp ;; true
"""


def goal(name, text, expect, config=None):
    """`expect` is "pass", "fail" or "undecided" (a pass whose
    inconclusive share is known to exceed the CLI threshold);
    `config` is config-file text, or None for the default universe."""
    return {"name": name, "text": text, "expect": expect, "config": config}


def _pinned(b):
    """Cell b holds code whose stored spec is rank-sensitive."""
    return f"({b} |-> 'skip' /\\ {FALSE_SPEC})"


FIXED = (
    goal("cx/true-skip-false", "{true} 'skip' {false}", "fail"),
    goal("cx/emp-implies-R", "emp => mu X. {X} 'skip' {false}", "pass"),
    goal("cx/emp-skip-false", "{emp} 'skip' {false}", "fail"),
    goal("cx/invariance",
         f"1 |-> 'skip' * {_pinned(2)} => "
         f"(1 |-> 'skip' /\\ {FALSE_SPEC}) * {_pinned(2)}", "fail"),
    goal("cx/update-inv",
         f"{{(exists v. 1 |-> v) * {_pinned(2)}}} '[1] := 'skip'' "
         f"{{(1 |-> 'skip' /\\ {FALSE_SPEC}) * {_pinned(2)}}}", "fail"),
    goal("iterator",
         f"{{1 |-> _ * 2 |-> 'skip' * 3 |-> '{C_IT}'}} 'eval [3]' "
         f"{{1 |-> 0 * 2 |-> 'skip' * 3 |-> '{C_IT}'}}", "undecided",
         ITERATOR_CONFIG),
)


def _star_comm(rng):
    a, b = rng.sample(ADDRS, 2)
    p, q = (f"{x} |-> {rng.choice(VALUES)}" for x in (a, b))
    return goal("valid/star-comm", f"{p} * {q} => {q} * {p}", "pass")


def _star_assoc(rng):
    p, q, r = (f"{x} |-> {rng.choice(VALUES)}"
               for x in rng.sample(ADDRS, 3))
    return goal("valid/star-assoc",
                f"({p} * {q}) * {r} => {p} * ({q} * {r})", "pass")


def _update(rng):
    a, b = rng.sample(ADDRS, 2)
    v, w = rng.choice(INTS), rng.choice(VALUES)
    return goal("valid/update-frame",
                f"{{{a} |-> _ * {b} |-> {w}}} '[{a}] := {v}' "
                f"{{{a} |-> {v} * {b} |-> {w}}}", "pass")


def _free(rng):
    a, b = rng.sample(ADDRS, 2)
    w = rng.choice(VALUES)
    return goal("valid/free-frame",
                f"{{{a} |-> _ * {b} |-> {w}}} 'free({a})' {{{b} |-> {w}}}",
                "pass")


def _seq(rng):
    a, b = rng.sample(ADDRS, 2)
    v, w = rng.choice(INTS), rng.choice(INTS)
    return goal("valid/seq",
                f"{{{a} |-> _ * {b} |-> _}} '[{a}] := {v} ; [{b}] := {w}' "
                f"{{{a} |-> {v} * {b} |-> {w}}}", "pass")


def _skip_false(rng):
    pre = rng.choice(("true", "emp", f"{rng.choice(ADDRS)} |-> "
                                      f"{rng.choice(VALUES)}"))
    return goal("invalid/skip-false", f"{{{pre}}} 'skip' {{false}}", "fail")


def _invariance(rng):
    a, b = rng.sample(ADDRS, 2)
    return goal("invalid/invariance",
                f"{a} |-> 'skip' * {_pinned(b)} => "
                f"({a} |-> 'skip' /\\ {FALSE_SPEC}) * {_pinned(b)}",
                "fail")


def _update_inv(rng):
    a, b = rng.sample(ADDRS, 2)
    return goal("invalid/update-inv",
                f"{{(exists v. {a} |-> v) * {_pinned(b)}}} "
                f"'[{a}] := 'skip'' "
                f"{{({a} |-> 'skip' /\\ {FALSE_SPEC}) * {_pinned(b)}}}",
                "fail")


TEMPLATES = (_star_comm, _star_assoc, _update, _free, _seq,
             _skip_false, _invariance, _update_inv)


def cycle(seed, k):
    """The k-th cycle of goals for a run seeded with `seed`."""
    rng = random.Random(f"goal_test/{seed}/{k}")
    return list(FIXED) + [make(rng) for make in TEMPLATES]
