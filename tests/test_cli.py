"""Command-line interface tests via click's test runner."""

import json
import time

import pytest
from click.testing import CliRunner

from sepstore.cli import _IN_RULE_SCRIPT, _refuted, main
from sepstore.config import load_config
from sepstore.fuzz import fuzz_config
from sepstore.grammar import parse
from sepstore.interp import EMPTY_ENV
from sepstore.logic import (REJECTED, check_proof, make_node, parse_script,
                            serialize_script)
from sepstore.semantics import Tester, static
from sepstore.syntax import Skip, Triple


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def json_lines(output):
    return [json.loads(line) for line in output.splitlines() if line]


# ---------------------------------------------------------------------------
# parse / normalize


def test_cli_parse(runner, tmp_path):
    p = write(tmp_path, "p.prog", "skip ; [1] := 2")
    r = invoke(runner, "parse", p)
    assert r.exit_code == 0
    assert r.output.strip() == "skip ; [1] := 2"
    a = write(tmp_path, "a.asn", "emp /\\ true")
    r = invoke(runner, "parse", a, "--kind", "assertion")
    assert r.exit_code == 0 and "/\\" in r.output


def test_cli_parse_error_is_usage(runner, tmp_path):
    p = write(tmp_path, "bad.prog", "let x = in skip")
    r = invoke(runner, "parse", p)
    assert r.exit_code == 3


def test_cli_normalize(runner, tmp_path):
    a = write(tmp_path, "a.asn", "({emp} 'skip' {emp}) (*) 1 |-> 0")
    r = invoke(runner, "normalize", a)
    assert r.exit_code == 0
    assert r.output.strip() \
        == "{emp * 1 |-> 0} 'skip' {emp * 1 |-> 0}"


@pytest.mark.parametrize("command, text, message", [
    (("parse", "--kind", "assertion"), "mu X. X /\\ emp",
     "not formally contractive in X"),
    (("parse", "--kind", "assertion"), "mu X. {X(1)} 'skip' {emp}",
     "X applied to 1 arguments, expected 0"),
    (("test",), "(mu X(p). {X(1, 2)} 'skip' {emp})(1) => true",
     "X applied to 2 arguments, expected 1"),
    (("test",), "X => true", "without free relation variables"),
    # the occurrence and the body are printed in concrete syntax
    (("parse", "--kind", "assertion"), "mu X. X /\\ emp",
     "offending occurrence X in X /\\ emp"),
    (("parse", "--kind", "assertion"),
     "(mu X(p). {X(p)} 'skip' {emp} * (p = 1 /\\ X(p)))(1)",
     "offending occurrence X(p) in {X(p)} 'skip' {emp} * (p = 1 /\\ X(p))"),
])
def test_cli_bad_recursive_assertion_is_input_error(runner, tmp_path,
                                                     command, text, message):
    p = write(tmp_path, "bad.asn", text)
    r = invoke(runner, command[0], p, *command[1:])
    assert r.exit_code == 3
    assert r.stderr.startswith("error: ") and message in r.stderr
    assert "Traceback" not in r.stderr and "RelVar(" not in r.stderr


@pytest.mark.parametrize("text, stderr", [
    # the offset of the offending application
    ("mu X(p). {X(p, p)} 'skip' {emp}",
     "error: at offset 10: relation variable X applied to 2 arguments, "
     "expected 1\n"),
    # the offset of the mu whose body is not contractive
    ("emp * mu X. X /\\ emp",
     "error: at offset 6: recursive assertion body is not formally "
     "contractive in X: offending occurrence X in X /\\ emp\n"),
])
def test_cli_mu_fault_gives_its_offset(runner, tmp_path, text, stderr):
    # as a syntax error does
    p = write(tmp_path, "bad.asn", text)
    r = invoke(runner, "parse", p, "--kind", "assertion")
    assert r.exit_code == 3 and r.stderr == stderr


# ---------------------------------------------------------------------------
# run


def test_cli_run_done(runner, tmp_path):
    p = write(tmp_path, "p.prog", "[1] := 7")
    h = write(tmp_path, "h.heap", "1 = 0")
    r = invoke(runner, "run", p, h)
    assert r.exit_code == 0 and "1 = 7" in r.output


def test_cli_run_fault(runner, tmp_path):
    p = write(tmp_path, "p.prog", "free(9)")
    r = invoke(runner, "run", p)
    assert r.exit_code == 1 and "FAULT" in r.output


def test_cli_run_out_of_fuel(runner, tmp_path):
    p = write(tmp_path, "p.prog", "eval [1]")
    h = write(tmp_path, "h.heap", "1 = 'eval [1]'")
    r = invoke(runner, "run", p, h, "--fuel", "40")
    assert r.exit_code == 2 and "OUT-OF-FUEL" in r.output


def test_cli_run_bad_heap_is_usage(runner, tmp_path):
    p = write(tmp_path, "p.prog", "skip")
    h = write(tmp_path, "h.heap", "1 = x")
    for args in ((p, h), (p, str(tmp_path / "missing.heap"))):
        r = invoke(runner, "run", *args)
        assert r.exit_code == 3
        assert r.stderr.startswith("error: ")


def test_cli_internal_error_exits_3(runner, tmp_path):
    # parsing a 5,000-statement sequence nested to the right overflows the
    # recursion limit; a crash is reported as an internal error, never as
    # the fault code 1
    p = write(tmp_path, "long.prog", "skip ; (" * 5000 + "skip" + ")" * 5000)
    r = invoke(runner, "run", p)
    assert r.exit_code == 3
    assert r.stderr.startswith("internal error: RecursionError")


def test_cli_long_sequence_parses_and_runs(runner, tmp_path):
    p = write(tmp_path, "long.prog", " ; ".join(["[1] := 1"] * 800))
    h = write(tmp_path, "h.heap", "1 = 0")
    r = invoke(runner, "parse", p)
    assert r.exit_code == 0 and r.output.count(";") == 799
    r = invoke(runner, "run", p, h)
    assert r.exit_code == 0 and "[run] done" in r.output


def test_cli_run_json(runner, tmp_path):
    p = write(tmp_path, "p.prog", "skip")
    r = invoke(runner, "run", p, "--json")
    assert r.exit_code == 0
    line = json_lines(r.output)[0]
    assert line["kind"] == "run" and line["verdict"] == "done"


def test_cli_run_fault_reason_is_concrete_syntax(runner, tmp_path):
    p = write(tmp_path, "p.prog", "[1] := 1 + 'skip'")
    h = write(tmp_path, "h.heap", "1 = 0")
    r = invoke(runner, "run", p, h, "--json")
    assert r.exit_code == 1
    line = json_lines(r.output)[0]
    assert line["verdict"] == "fault"
    assert line["reason"] == "arithmetic on code value in 1 + 'skip'"


# ---------------------------------------------------------------------------
# check


def test_cli_check_ok(runner, tmp_path):
    node = make_node("Skip", [], parse("{emp} 'skip' {emp}", "assertion"))
    path = write(tmp_path, "ok.proof", serialize_script(node))
    r = invoke(runner, "check", path)
    assert r.exit_code == 0
    r = invoke(runner, "check", path, "--json")
    line = json_lines(r.output)[0]
    assert line["verdict"] == "ok" and line["rules"] == {"Skip": 1}


def test_cli_check_rejected(runner, tmp_path):
    node = make_node("Skip", [], parse("{emp} 'skip' {true}", "assertion"))
    path = write(tmp_path, "bad.proof", serialize_script(node))
    r = invoke(runner, "check", path)
    assert r.exit_code == 1


# {emp} 'skip' {false} from no hypotheses: the disjunction is only assumed
OR_E_LEAK = r"""(rule OrE
  (premise (rule Hyp (hyp "false \\/ false") (conclude "false \\/ false")))
  (premise (rule FalseE (hyp "false")
    (premise (rule Hyp (hyp "false") (conclude "false")))
    (conclude "{emp} 'skip' {false}")))
  (premise (rule FalseE (hyp "false")
    (premise (rule Hyp (hyp "false") (conclude "false")))
    (conclude "{emp} 'skip' {false}")))
  (conclude "{emp} 'skip' {false}"))"""


def test_cli_check_rejects_hypothesis_leak(runner, tmp_path):
    path = write(tmp_path, "leak.proof", OR_E_LEAK)
    r = invoke(runner, "check", path)
    assert r.exit_code == 1
    assert "OrE" in r.output


def test_cli_check_rejects_unread_parameter(runner, tmp_path):
    path = write(tmp_path, "unread.proof",
                 '(rule Skip (param Q "false") '
                 '(conclude "{emp} \'skip\' {emp}"))')
    r = invoke(runner, "check", path)
    assert r.exit_code == 1
    assert "parameter 'Q'" in r.output


def test_cli_check_hyp_mod_a_unit_inside_a_chain(runner, tmp_path):
    # the parameter is the hypothesis up to P * emp = P and associativity
    path = write(tmp_path, "hyp.proof",
                 r'(rule Hyp (param A "3 = 3 \\/ (1 = 1 \\/ 2 = 2) * emp") '
                 r'(hyp "3 = 3 \\/ 1 = 1 \\/ 2 = 2") '
                 r'(conclude "3 = 3 \\/ 1 = 1 \\/ 2 = 2"))')
    r = invoke(runner, "check", path)
    assert r.exit_code == 0, r.output


def test_cli_check_script_error(runner, tmp_path):
    path = write(tmp_path, "broken.proof", "(rule Skip")
    r = invoke(runner, "check", path)
    assert r.exit_code == 3


def test_cli_check_bad_parameter_is_usage(runner, tmp_path):
    # the parameter text is parsed while checking, not with the script
    path = write(tmp_path, "param.proof",
                 '(rule Update (param e "1 +") '
                 '(conclude "{emp} \'skip\' {emp}"))')
    r = invoke(runner, "check", path)
    assert r.exit_code == 3
    assert r.stderr.startswith("error: at offset 3")


# ---------------------------------------------------------------------------
# test


FAST_CFG = "addrs = 1, 2\nints = 0, 1\ncode = skip\ntag_max = 2\nk = 2\n"


def test_cli_test_triple_pass(runner, tmp_path):
    g = write(tmp_path, "g.asn", "{1 |-> _} '[1] := 0' {1 |-> 0}")
    c = write(tmp_path, "cfg", FAST_CFG)
    r = invoke(runner, "test", g, "--config", c, "--json")
    assert r.exit_code == 0
    line = json_lines(r.output)[0]
    assert line["verdict"] == "pass" and line["samples"] > 0


def test_cli_test_thousand_statement_triple(runner, tmp_path):
    # a quoted 1,000-statement chain is one node: the tester keys,
    # substitutes into and runs it without a frame per statement
    code = " ; ".join(["[1] := 1"] * 1000)
    g = write(tmp_path, "g.asn", f"{{1 |-> _}} '{code}' {{1 |-> 1}}")
    c = write(tmp_path, "cfg", FAST_CFG)
    r = invoke(runner, "test", g, "--config", c, "--json")
    assert r.exit_code == 0, r.output
    line = json_lines(r.output)[0]
    assert line["verdict"] == "pass" and line["samples"] > 0


def test_cli_test_triple_fail_with_witness(runner, tmp_path):
    g = write(tmp_path, "g.asn", "{true} 'skip' {false}")
    c = write(tmp_path, "cfg", FAST_CFG)
    r = invoke(runner, "test", g, "--config", c, "--json")
    assert r.exit_code == 1
    line = json_lines(r.output)[0]
    assert line["verdict"] == "fail" and "witness" in line


def test_cli_test_entailment(runner, tmp_path):
    c = write(tmp_path, "cfg", FAST_CFG)
    g = write(tmp_path, "g.asn", "1 |-> 0 => exists v. 1 |-> v")
    assert invoke(runner, "test", g, "--config", c).exit_code == 0
    g2 = write(tmp_path, "g2.asn", "true => false")
    assert invoke(runner, "test", g2, "--config", c).exit_code == 1


def test_cli_test_triple_bad_code(runner, tmp_path):
    text = "{emp} 1 + 'skip' {emp}"
    g = write(tmp_path, "g.asn", text)
    c = write(tmp_path, "cfg", FAST_CFG)
    r = invoke(runner, "test", g, "--config", c, "--json")
    assert r.exit_code == 1
    witness = json_lines(r.output)[0]["witness"]
    assert witness["outcome"] == "bad-code"
    assert witness["reason"] == "arithmetic on code value in 1 + 'skip'"
    status, detail, replayed = _refuted(text)(Tester(fuzz_config()))
    assert (status, detail) == ("as-registered", "witness replays")
    assert replayed["outcome"] == "bad-code"


def test_cli_test_rejects_other_goals(runner, tmp_path):
    g = write(tmp_path, "g.asn", "emp")
    assert invoke(runner, "test", g).exit_code == 3


def test_cli_test_refuses_oversized_universe(runner, tmp_path):
    c = write(tmp_path, "cfg", "addrs = 1, 2, 3, 4, 5, 6\n")
    g = write(tmp_path, "g.asn", "{emp} 'skip' {emp}")
    t0 = time.monotonic()
    r = invoke(runner, "test", g, "--config", c)
    assert r.exit_code == 3
    assert time.monotonic() - t0 < 1.0
    assert "4,826,810 heaps" in r.output


def test_cli_test_refuses_more_environments_than_env_cap(runner, tmp_path):
    # 3 free variables over the default 12 values give 1,728 environments;
    # sampling only the first env_cap = 256 of them never binds a to 1,
    # and the refutable goal passed
    g = write(tmp_path, "g.asn", "emp /\\ b = b /\\ c = c => a <= 0")
    r = invoke(runner, "test", g)
    assert r.exit_code == 3
    assert r.output.startswith("error: config: ")
    assert "1,728 environments" in r.output
    # one free variable gives 12 environments, and a = 1 refutes the goal
    g = write(tmp_path, "g2.asn", "emp => a <= 0")
    r = invoke(runner, "test", g, "--json")
    assert r.exit_code == 1
    assert json_lines(r.output)[0]["witness"]["env"] == {"a": "1"}


def test_cli_bad_config(runner, tmp_path):
    c = write(tmp_path, "cfg", "nonsense = 1")
    g = write(tmp_path, "g.asn", "true => true")
    assert invoke(runner, "test", g, "--config", c).exit_code == 3


def _config_case(line, goal, message):
    # the id leaves the expected message out, as the cases were first named
    return pytest.param(line, goal, message, id=f"{line}-{goal}")


@pytest.mark.parametrize("line, goal, message", [
    # k = -1 examined no level, so a false triple used to pass
    _config_case("k = -1", "{true} 'skip' {false}",
                 "k: expected a non-negative integer, got -1"),
    # env_cap = -1 used to crash in islice while sampling x
    _config_case("env_cap = -1", "1 |-> x => true",
                 "env_cap: expected a non-negative integer, got -1"),
    # every triple holds at level 0, so a false one passed on bottom alone
    _config_case("k = 0", "{true} 'skip' {false}",
                 "k: expected a positive integer, got 0"),
    # env_cap = 0 sampled no environment, so a refutable goal passed
    _config_case("env_cap = 0", "1 |-> x => false",
                 "env_cap: expected a positive integer, got 0"),
])
def test_cli_rejects_negative_config_values(runner, tmp_path, line, goal,
                                            message):
    c = write(tmp_path, "cfg", FAST_CFG + line + "\n")
    g = write(tmp_path, "g.asn", goal)
    r = invoke(runner, "test", g, "--config", c)
    assert r.exit_code == 3
    assert f"error: config: line 6: {message}" in r.output


# the debug switch that once let the checker accept the unsound rule In
REMOVED_FLAG = "--accept-unsound-in"


# Each probe names files that exist, so that without the check it would
# run, not fail on a missing file.
@pytest.mark.parametrize("args, message", [
    pytest.param(("test",), "Missing argument 'GOAL_PATH'", id="test"),
    pytest.param(("run", "p.prog", "--fuel", "abc"),
                 "Invalid value for '--fuel'", id="run-fuel-abc"),
    pytest.param(("bogus",), "No such command 'bogus'", id="bogus"),
    pytest.param(("run", "p.prog", "--fuel", "-1"),
                 "-1 is not in the range x>=0", id="run-fuel-neg"),
    pytest.param(("test", "g.asn", "--config", "cfg", "--fuel", "-1"),
                 "-1 is not in the range x>=0", id="test-fuel-neg"),
    pytest.param(("counterexamples", "--config", "cfg", "--fuel", "-1"),
                 "-1 is not in the range x>=0", id="counterexamples-fuel-neg"),
    # the checker has no switch for unsound rules, nor the registry
    pytest.param(("check", "p.proof", REMOVED_FLAG), "No such option",
                 id="check-unsound"),
    pytest.param(("counterexamples", "--config", "cfg", REMOVED_FLAG),
                 "No such option", id="counterexamples-unsound"),
])
def test_cli_usage_error_exits_3(runner, tmp_path, monkeypatch, args,
                                 message):
    # click's own exit code for a usage error is 2, which means
    # inconclusive here
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "p.prog", "skip")
    write(tmp_path, "g.asn", "true => true")
    write(tmp_path, "cfg", FAST_CFG)
    write(tmp_path, "p.proof", '(rule TrueI (conclude "true"))')
    r = invoke(runner, *args)
    assert r.exit_code == 3
    assert message in r.stderr


# ---------------------------------------------------------------------------
# counterexamples


def test_cli_counterexamples(runner, tmp_path):
    c = write(tmp_path, "cfg", FAST_CFG + "frames = emp ;; true\n")
    r = invoke(runner, "counterexamples", "--config", c, "--json")
    assert r.exit_code == 0, r.output
    lines = json_lines(r.output)
    assert len(lines) >= 6
    assert all(l["verdict"] == "as-registered" for l in lines)
    names = {l["goal"] for l in lines}
    assert "deep-frame/program-faults" in names
    assert "true-skip-false/refuted" in names
    assert "in-rule/script-rejected" in names
    assert "invariance/entailment-refuted" in names
    assert "update-inv/code-copy-refuted" in names
    assert [l["goal"] for l in lines] == [
        "deep-frame/program-faults", "deep-frame/axiom-rejected",
        "true-skip-false/refuted", "in-rule/emp-implies-R",
        "in-rule/emp-skip-false-refuted", "in-rule/script-rejected",
        "invariance/entailment-refuted", "update-inv/code-copy-refuted"]
    for l in lines:
        if l["goal"].endswith("refuted"):
            assert "witness" in l and l["detail"] == "witness replays"


def test_registry_replays_witnesses_on_a_fresh_tester():
    """A refutation that only the finding Tester's cache believes is not
    reported as one: the witness is replayed without that cache.  A
    static goal is judged from its set, one with a triple heap by heap
    through the member cache; each cache is poisoned at the first heap."""
    for text in ("1 |-> 0 => exists v. 1 |-> v",
                 "1 |-> 0 => (exists v. 1 |-> v) /\\ {emp} 'skip' {emp}"):
        goal = parse(text, "assertion")
        tester = Tester(fuzz_config())
        world, heap = tester.cfg.world_pool[0], tester.universe()[0]
        if static(goal):
            tester._sets[(goal._id, EMPTY_ENV._id)] = \
                tester._index.full ^ 1 << tester._bit[heap._id]
        else:
            row = (goal._id, EMPTY_ENV._id, world._id)
            tester._member_cache[row] = {heap._id: False}
        status, detail, _ = _refuted(text)(tester)
        assert (status, detail) == ("unexpected", "witness did not replay")


def test_cli_counterexamples_in_rule_witness_replays(runner, tmp_path):
    # the checker rejects In, and the model refutes the triple that the In
    # script concludes, with a witness that a fresh Tester finds and replays
    c = write(tmp_path, "cfg", FAST_CFG)
    r = invoke(runner, "counterexamples", "--config", c, "--json")
    assert r.exit_code == 0, r.output
    [line] = [l for l in json_lines(r.output)
              if l["goal"] == "in-rule/script-rejected"]
    assert line["verdict"] == "as-registered"
    assert REJECTED["In"] in line["detail"]
    goal = parse_script(_IN_RULE_SCRIPT).conclusion.goal
    v = Tester(load_config(FAST_CFG)).test_triple(goal.pre, goal.code,
                                                  goal.post)
    assert v.witness.to_json() == line["witness"]
    assert Tester(load_config(FAST_CFG)).replay(
        v.witness, "triple", goal.pre, (goal.code, goal.post))


def test_in_rule_script_fails_only_at_the_in_node():
    report = check_proof(parse_script(_IN_RULE_SCRIPT))
    assert [p for p, _ in report.failures] == ["0.1"]
    assert REJECTED["In"] in report.failures[0][1]
    assert dict(report.stats) == {"ImpE": 1, "Conseq": 1, "Entail": 3,
                                  "In": 1}
