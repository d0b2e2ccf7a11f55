"""Config files: a repeated pool entry counts once, and an error names
its line."""

import pytest

from sepstore.config import ConfigError, load_config
from sepstore.grammar import parse
from sepstore.semantics import Pass, Tester
from sepstore.syntax import Triple


def _samples(config, goal):
    P = parse(goal, "assertion")
    tester = Tester(load_config(config))
    if type(P) is Triple:
        verdict = tester.test_triple(P.pre, P.code, P.post)
    else:
        verdict = tester.test_entailment(P.left, P.right)
    assert isinstance(verdict, Pass)
    return verdict.samples


@pytest.mark.parametrize("repeated, once, goal", [
    # each used to list some heap, world or frame twice and count its
    # samples twice
    pytest.param("addrs = 1, 2, 1\ncode = skip", "addrs = 1, 2\ncode = skip",
                 "1 |-> 0 => true", id="addrs"),
    pytest.param("addrs = 1, 2\nints = 0, 0", "addrs = 1, 2\nints = 0",
                 "1 |-> 0 => true", id="ints"),
    pytest.param("code = skip ;; skip", "code = skip",
                 "1 |-> 0 => true", id="code"),
    pytest.param("code = skip\nworlds = emp ;; emp", "code = skip",
                 "{emp} 'skip' {emp}", id="worlds"),
    pytest.param("frames = emp ;; emp ;; true", "frames = emp ;; true",
                 "{emp} 'skip' {emp}", id="frames"),
])
def test_a_repeated_pool_entry_counts_once(repeated, once, goal):
    assert load_config(repeated) == load_config(once)
    assert _samples(repeated, goal) == _samples(once, goal)


@pytest.mark.parametrize("text, message", [
    pytest.param("k = 2\naddrs = 1, a", "line 2: addrs: expected a "
                 "comma-separated integer list, got '1, a'", id="addrs"),
    pytest.param("ints = 0, 1.5", "line 1: ints: expected a "
                 "comma-separated integer list, got '0, 1.5'", id="ints"),
])
def test_a_malformed_integer_list_names_its_line(text, message):
    # the message used to come without its line number
    with pytest.raises(ConfigError) as info:
        load_config(text)
    assert str(info.value) == message
