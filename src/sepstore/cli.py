"""Command-line front end for the toolkit.

Subcommands: parse, run, check, test, counterexamples, normalize.

The checker knows only sound rules.  The unsoundness of a rejected rule is
shown outside it, by the `counterexamples` registry: for the hypothesis-
import rule In, the checker rejects a script at its In node alone, and the
model refutes the triple that script concludes.

Exit codes: 0 success / verified / all-as-registered; 1 fault / rejected /
refuted / a registry entry not as registered; 2 out of fuel / inconclusive
above the threshold; 3 bad input (`error: ...`: a parse, script, config or file
error, or a usage error with click's message) and internal errors (an
uncaught exception is reported as `internal error: ...`, never as a
verdict).
"""

import json
import sys
import time
import traceback
from dataclasses import replace

import click

from .config import ConfigError, default_config, load_config_file
from .grammar import ParseError, parse, pretty, pretty_cmd
from .interp import (EMPTY_ENV, Done, Fault, OutOfFuel, exec_cmd,
                     format_heap, parse_heap_text)
from .logic import (REJECTED, check_proof, normalize_otimes, parse_script,
                    ScriptError)
from .semantics import Fail, Pass, TestConfig, Tester, UniverseTooLarge
from .syntax import (ArityError, ContractivenessError, Implies, Triple,
                     free_vars)

INCONCLUSIVE_THRESHOLD = 0.2
_FUEL = click.IntRange(min=0)   # as a config file's `fuel` is checked


def _emit(json_mode, kind, goal, verdict, millis, witness=None,
          samples=0, inconclusive=0, extra=None, trailer=""):
    """One result line; in human mode the witness and the trailer follow."""
    if json_mode:
        line = {"kind": kind, "goal": goal, "verdict": verdict,
                "samples": samples, "inconclusive": inconclusive,
                "millis": millis}
        if witness is not None:
            line["witness"] = witness
        if extra:
            line.update(extra)
        click.echo(json.dumps(line))
        return
    click.echo(f"[{kind}] {verdict}: {goal}")
    if witness is not None:
        click.echo(f"  witness: {json.dumps(witness)}")
    if trailer:
        click.echo(trailer)


def _millis(t0):
    return int((time.monotonic() - t0) * 1000)


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _load_cfg(config_path, fuel):
    cfg = load_config_file(config_path) if config_path else default_config()
    return cfg if fuel is None else replace(cfg, fuel=fuel)


class _Main(click.Group):
    # click exits 2 on a usage error, and 2 means inconclusive here
    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = 3
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = 3
            raise
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except (ConfigError, UniverseTooLarge) as exc:
            click.echo(f"error: config: {exc}", err=True)
        except (ParseError, ScriptError, ContractivenessError, ArityError,
                OSError) as exc:
            click.echo(f"error: {exc}", err=True)
        except Exception as exc:
            click.echo(f"internal error: {type(exc).__name__}: {exc}",
                       err=True)
            click.echo("".join(traceback.format_exception(exc, limit=-3)),
                       err=True, nl=False)
        ctx.exit(3)


@click.group(cls=_Main)
def main():
    """Verifier toolkit for a separation logic with higher-order store."""


@main.command("parse")
@click.argument("path")
@click.option("--kind", type=click.Choice(["program", "assertion", "expr"]),
              default="program", show_default=True)
def cmd_parse(path, kind):
    """Parse a file and pretty-print it back."""
    ast = parse(_read(path), kind)
    click.echo(pretty_cmd(ast) if kind == "program" else pretty(ast))


@main.command("run")
@click.argument("program_path")
@click.argument("heap_path", required=False)
@click.option("--fuel", type=_FUEL, default=TestConfig.fuel,
              show_default=True)
@click.option("--json", "json_mode", is_flag=True)
def cmd_run(program_path, heap_path, fuel, json_mode):
    """Run a program on an initial heap (default: the empty heap)."""
    t0 = time.monotonic()
    prog = parse(_read(program_path), "program")
    try:
        heap = parse_heap_text(_read(heap_path) if heap_path else "")
    except ValueError as exc:   # a malformed heap file
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    out = exec_cmd(prog, EMPTY_ENV, heap, fuel)
    millis = _millis(t0)
    if isinstance(out, Done):
        trailer = format_heap(out.heap)
        verdict, code, extra = "done", 0, {"heap": trailer}
    elif isinstance(out, Fault):
        verdict, code, extra = "fault", 1, {"reason": out.reason}
        trailer = f"FAULT: {out.reason}"
    else:
        verdict, code, extra, trailer = "out-of-fuel", 2, None, "OUT-OF-FUEL"
    _emit(json_mode, "run", pretty_cmd(prog), verdict, millis, extra=extra,
          trailer=trailer)
    sys.exit(code)


@main.command("check")
@click.argument("script_path")
@click.option("--json", "json_mode", is_flag=True)
def cmd_check(script_path, json_mode):
    """Check a proof script."""
    t0 = time.monotonic()
    root = parse_script(_read(script_path))
    report = check_proof(root)
    _emit(json_mode, "check", pretty(root.conclusion.goal),
          "ok" if report.ok else "rejected", _millis(t0),
          extra={"failures": [{"path": p, "message": m}
                              for p, m in report.failures],
                 "rules": dict(report.stats)},
          trailer="\n".join(f"  at {p}: {m}" for p, m in report.failures))
    sys.exit(0 if report.ok else 1)


def _test_goal(tester, goal):
    """(kind, verdict) of a closed triple or entailment."""
    if unbound := free_vars(goal)[1]:
        raise ParseError(0, "a goal without free relation variables",
                         ", ".join(sorted(unbound)))
    if type(goal) is Triple:
        return "triple", tester.test_triple(goal.pre, goal.code, goal.post)
    if type(goal) is Implies:
        return "entailment", tester.test_entailment(goal.left, goal.right)
    raise ParseError(0, "a triple or an implication", pretty(goal))


@main.command("test")
@click.argument("goal_path")
@click.option("--config", "config_path", default=None)
@click.option("--fuel", type=_FUEL, default=None)
@click.option("--json", "json_mode", is_flag=True)
def cmd_test(goal_path, config_path, fuel, json_mode):
    """Semantically test a closed triple or entailment."""
    t0 = time.monotonic()
    goal = parse(_read(goal_path), "assertion")
    kind, v = _test_goal(Tester(_load_cfg(config_path, fuel)), goal)
    millis = _millis(t0)
    if isinstance(v, Fail):
        _emit(json_mode, kind, pretty(goal), "fail", millis,
              witness=v.witness.to_json())
        sys.exit(1)
    rate = (v.inconclusive / v.samples) if v.samples \
        else (1.0 if v.inconclusive else 0.0)
    _emit(json_mode, kind, pretty(goal), "pass", millis, samples=v.samples,
          inconclusive=v.inconclusive)
    sys.exit(2 if rate > INCONCLUSIVE_THRESHOLD else 0)


@main.command("normalize")
@click.argument("path")
def cmd_normalize(path):
    """Push every (*)-extension inward to its normal form."""
    click.echo(pretty(normalize_otimes(parse(_read(path), "assertion"))))


# ---------------------------------------------------------------------------
# the counterexample registry: each check(tester) returns
# (status, detail, witness)


def _refute(tester, goal):
    """The goal has a Fail whose witness replays on a fresh Tester, which
    shares no cached answer with the one that found it."""
    kind, v = _test_goal(tester, goal)
    if isinstance(v, Pass):
        return ("inconclusive" if v.inconclusive else "unexpected",
                "no witness found", None)
    fresh = Tester(tester.cfg)
    if kind == "triple":
        replays = fresh.replay(v.witness, kind, goal.pre,
                               (goal.code, goal.post))
    else:
        replays = fresh.replay(v.witness, kind, goal)
    if not replays:
        return "unexpected", "witness did not replay", None
    return "as-registered", "witness replays", v.witness.to_json()


def _refuted(text):
    return lambda tester: _refute(tester, parse(text, "assertion"))


def _valid(text):
    def check(tester):
        _, v = _test_goal(tester, parse(text, "assertion"))
        if isinstance(v, Pass):
            return "as-registered", "the implication holds at every level", \
                None
        return "unexpected", "the implication was refuted", \
            v.witness.to_json()
    return check


def _rejected(script, rule):
    """The checker rejects the proof script by naming the rule."""
    def check(tester):
        report = check_proof(parse_script(script))
        hits = [m for _, m in report.failures if f"rule '{rule}'" in m]
        if hits:
            return "as-registered", hits[0], None
        return "unexpected", f"the checker accepted the {rule} rule", None
    return check


def _in_rule_script_rejected(tester):
    """The checker rejects the In script at its In node and nowhere else,
    and the model refutes the root goal the script states: In is the only
    step between sound rules and a refuted triple."""
    root = parse_script(_IN_RULE_SCRIPT)
    report = check_proof(root)
    if len(report.failures) != 1 or report.failures[0][0] != "0.1" \
            or REJECTED["In"] not in report.failures[0][1]:
        return "unexpected", "the rejection is not confined to the In " \
            "node", None
    status, detail, witness = _refute(tester, root.conclusion.goal)
    if status != "as-registered":
        return status, detail, None
    return status, report.failures[0][1], witness


def _laundering_program_faults(tester):
    prog = parse("let x = [2] in ([3] := x ; eval [3])", "program")
    heap = parse_heap_text("1 = 0\n2 = 'free(-1)'\n3 = 'skip'")
    out = exec_cmd(prog, EMPTY_ENV, heap, tester.cfg.fuel)
    if isinstance(out, Fault):
        return "as-registered", "the stored command frees a dangling " \
            "address on every run", None
    if isinstance(out, OutOfFuel):
        return "inconclusive", "out of fuel", None
    return "unexpected", "program terminated normally", None


# R = mu X. {X}'skip'{false}.  The script derives {R}'skip'{false} from
# sound steps and one application of the rejected hypothesis-import rule
# In; the model refutes that triple, and since emp => R holds in the model,
# {emp}'skip'{false} would follow.
_R = "(mu X. {X} 'skip' {false})"
_IN_RULE_SCRIPT = r"""(rule ImpE
  (premise (rule Conseq
    (premise (rule Entail (conclude "$R => $R /\\ $R")))
    (premise (rule Entail (conclude "false => false")))
    (conclude "{$R /\\ $R} 'skip' {false} => {$R} 'skip' {false}")))
  (premise (rule In
    (premise (rule Entail (conclude "$R => {$R} 'skip' {false}")))
    (conclude "{$R /\\ $R} 'skip' {false}")))
  (conclude "{$R} 'skip' {false}"))""".replace("$R", _R)
_PSEUDO_PURE = "/\\ {emp} 'skip' {false}"

REGISTRY = (
    # (a) deep frame: the laundering program faults; the axiom is rejected
    ("deep-frame/program-faults", _laundering_program_faults),
    ("deep-frame/axiom-rejected", _rejected(
        "(rule DeepFrameAxiom (conclude \"{emp} 'skip' {emp} (*) 1 |-> 0\"))",
        "DeepFrameAxiom")),
    # (b) {true}'skip'{false} is refuted
    ("true-skip-false/refuted", _refuted("{true} 'skip' {false}")),
    # (c) hypothesis import: emp => R holds, {emp}'skip'{false} does not,
    # so importing the hypothesis R is unsound
    ("in-rule/emp-implies-R", _valid(f"emp => {_R}")),
    ("in-rule/emp-skip-false-refuted", _refuted("{emp} 'skip' {false}")),
    ("in-rule/script-rejected", _in_rule_script_rejected),
    # (d) restricted invariance: copying a pseudo-pure conjunct onto a
    # second cell is refuted by a tag mismatch between the two cells
    ("invariance/entailment-refuted", _refuted(
        f"1 |-> 'skip' * (2 |-> 'skip' {_PSEUDO_PURE}) => "
        f"(1 |-> 'skip' {_PSEUDO_PURE}) * (2 |-> 'skip' {_PSEUDO_PURE})")),
    # (e) update with a rank-sensitive invariant: copying code into a fresh
    # cell raises its rank past the level at which the invariant was
    # established for the source cell, so the unrestricted rule is refuted
    # (and the checker only accepts the pure-invariant form)
    ("update-inv/code-copy-refuted", _refuted(
        f"{{(exists v. 1 |-> v) * (2 |-> 'skip' {_PSEUDO_PURE})}} "
        f"'[1] := 'skip'' "
        f"{{(1 |-> 'skip' {_PSEUDO_PURE}) * (2 |-> 'skip' {_PSEUDO_PURE})}}")),
)


@main.command("counterexamples")
@click.option("--config", "config_path", default=None)
@click.option("--fuel", type=_FUEL, default=None)
@click.option("--json", "json_mode", is_flag=True)
def cmd_counterexamples(config_path, fuel, json_mode):
    """Run the built-in soundness-regression registry."""
    tester = Tester(_load_cfg(config_path, fuel))
    statuses = set()
    for name, check in REGISTRY:
        t0 = time.monotonic()
        status, detail, witness = check(tester)
        statuses.add(status)
        _emit(json_mode, "counterexample", name, status, _millis(t0),
              witness=witness, extra={"detail": detail})
    sys.exit(1 if "unexpected" in statuses
             else 2 if "inconclusive" in statuses else 0)


if __name__ == "__main__":
    main()
