"""Command-line front end for the toolkit.

Subcommands: parse, run, check, test, counterexamples, normalize.

Exit codes: 0 success / verified / all-as-registered; 1 fault / rejected /
refuted / unsoundness demonstrated; 2 out of fuel / inconclusive above the
threshold; 3 parse, usage, or config errors, and internal errors (an
uncaught exception is reported as `internal error: ...`, never as a
verdict).
"""

import json
import sys
import time
import traceback

import click

from .config import ConfigError, default_config, load_config_file
from .grammar import ParseError, parse, pretty, pretty_cmd
from .interp import (EMPTY_ENV, Done, Fault, OutOfFuel, exec_cmd,
                     format_heap, parse_heap_text)
from .logic import (check_proof, make_node, normalize_otimes, parse_script,
                    ScriptError)
from .semantics import Fail, Pass, Tester, UniverseTooLarge
from .syntax import (And, Emp, FalseA, Implies, Quote, TrueA, Triple)

INCONCLUSIVE_THRESHOLD = 0.2
DEFAULT_FUEL = 10000


def _emit(json_mode, kind, goal, verdict, millis, witness=None,
          samples=0, inconclusive=0, extra=None):
    if json_mode:
        line = {"kind": kind, "goal": goal, "verdict": verdict,
                "samples": samples, "inconclusive": inconclusive,
                "millis": millis}
        if witness is not None:
            line["witness"] = witness
        if extra:
            line.update(extra)
        click.echo(json.dumps(line))
    else:
        click.echo(f"[{kind}] {verdict}: {goal}")
        if witness is not None:
            click.echo(f"  witness: {json.dumps(witness)}")


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _load_cfg(config_path, fuel):
    try:
        cfg = load_config_file(config_path) if config_path \
            else default_config()
    except (ConfigError, OSError, ParseError) as exc:
        raise SystemExit(_usage_error(f"config: {exc}"))
    if fuel is not None:
        from dataclasses import replace
        cfg = replace(cfg, fuel=fuel)
    return cfg


def _usage_error(msg):
    click.echo(f"error: {msg}", err=True)
    return 3


class _Main(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except UniverseTooLarge as exc:
            ctx.exit(_usage_error(f"config: {exc}"))
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
    try:
        ast = parse(_read(path), kind)
    except (ParseError, OSError) as exc:
        sys.exit(_usage_error(str(exc)))
    click.echo(pretty_cmd(ast) if kind == "program" else pretty(ast))


@main.command("run")
@click.argument("program_path")
@click.argument("heap_path", required=False)
@click.option("--fuel", type=int, default=DEFAULT_FUEL, show_default=True)
@click.option("--json", "json_mode", is_flag=True)
def cmd_run(program_path, heap_path, fuel, json_mode):
    """Run a program on an initial heap (default: the empty heap)."""
    t0 = time.monotonic()
    try:
        prog = parse(_read(program_path), "program")
        heap = parse_heap_text(_read(heap_path)) if heap_path \
            else parse_heap_text("")
    except (ParseError, OSError, ValueError) as exc:
        sys.exit(_usage_error(str(exc)))
    out = exec_cmd(prog, EMPTY_ENV, heap, fuel)
    millis = int((time.monotonic() - t0) * 1000)
    goal = pretty_cmd(prog)
    if isinstance(out, Done):
        _emit(json_mode, "run", goal, "done", millis,
              extra={"heap": format_heap(out.heap)})
        if not json_mode:
            click.echo(format_heap(out.heap) or "<empty heap>")
        sys.exit(0)
    if isinstance(out, Fault):
        _emit(json_mode, "run", goal, "fault", millis,
              extra={"reason": out.reason})
        if not json_mode:
            click.echo(f"FAULT: {out.reason}")
        sys.exit(1)
    _emit(json_mode, "run", goal, "out-of-fuel", millis)
    if not json_mode:
        click.echo("OUT-OF-FUEL")
    sys.exit(2)


@main.command("check")
@click.argument("script_path")
@click.option("--json", "json_mode", is_flag=True)
@click.option("--accept-unsound-in", is_flag=True,
              help="Debug only: accept the rejected hypothesis-import rule.")
def cmd_check(script_path, json_mode, accept_unsound_in):
    """Check a proof script."""
    t0 = time.monotonic()
    try:
        text = _read(script_path)
        root = parse_script(text)
    except (ScriptError, ParseError, OSError) as exc:
        sys.exit(_usage_error(str(exc)))
    allow = ("In",) if accept_unsound_in else ()
    report = check_proof(root, allow_unsound=allow)
    millis = int((time.monotonic() - t0) * 1000)
    verdict = "ok" if report.ok else "rejected"
    _emit(json_mode, "check", pretty(root.conclusion.goal), verdict, millis,
          extra={"failures": [{"path": p, "message": m}
                              for p, m in report.failures],
                 "rules": dict(report.stats)})
    if not json_mode:
        for p, m in report.failures:
            click.echo(f"  at {p}: {m}")
    sys.exit(0 if report.ok else 1)


def _print_verdict(json_mode, kind, goal_text, verdict, millis):
    if isinstance(verdict, Fail):
        _emit(json_mode, kind, goal_text, "fail", millis,
              witness=verdict.witness.to_json())
        return 1
    rate = (verdict.inconclusive / verdict.samples) if verdict.samples \
        else (1.0 if verdict.inconclusive else 0.0)
    _emit(json_mode, kind, goal_text, "pass", millis,
          samples=verdict.samples, inconclusive=verdict.inconclusive)
    return 2 if rate > INCONCLUSIVE_THRESHOLD else 0


@main.command("test")
@click.argument("goal_path")
@click.option("--config", "config_path", default=None)
@click.option("--fuel", type=int, default=None)
@click.option("--json", "json_mode", is_flag=True)
def cmd_test(goal_path, config_path, fuel, json_mode):
    """Semantically test a closed triple or entailment."""
    t0 = time.monotonic()
    try:
        goal = parse(_read(goal_path), "assertion")
    except (ParseError, OSError) as exc:
        sys.exit(_usage_error(str(exc)))
    cfg = _load_cfg(config_path, fuel)
    tester = Tester(cfg)
    if type(goal) is Triple:
        verdict = tester.test_triple(goal.pre, goal.code, goal.post)
        kind = "triple"
    elif type(goal) is Implies:
        verdict = tester.test_entailment(goal.left, goal.right)
        kind = "entailment"
    else:
        sys.exit(_usage_error("goal must be a triple or an implication"))
    millis = int((time.monotonic() - t0) * 1000)
    sys.exit(_print_verdict(json_mode, kind, pretty(goal), verdict, millis))


@main.command("normalize")
@click.argument("path")
@click.option("--kind", type=click.Choice(["assertion"]),
              default="assertion")
def cmd_normalize(path, kind):
    """Push every (*)-extension inward to its normal form."""
    try:
        ast = parse(_read(path), "assertion")
    except (ParseError, OSError) as exc:
        sys.exit(_usage_error(str(exc)))
    click.echo(pretty(normalize_otimes(ast)))


# ---------------------------------------------------------------------------
# the counterexample registry


def _deep_frame_script():
    goal = parse("({emp} 'skip' {emp}) (*) 1 |-> 0", "assertion")
    return make_node("DeepFrameAxiom", [], goal)


def _in_rule_script():
    """Deriving {R}'skip'{false} with the rejected hypothesis-import rule;
    since emp => R holds in the model, {emp}'skip'{false} would follow."""
    R = parse("mu X. {X} 'skip' {false}", "assertion")
    trip = Triple(R, Quote(parse("skip", "program")), FalseA())
    ent1 = make_node("Entail", [], Implies(R, trip))
    in_node = make_node("In", [ent1],
                        Triple(And(R, R), Quote(parse("skip", "program")),
                               FalseA()))
    ent_pre = make_node("Entail", [], Implies(R, And(R, R)))
    ent_post = make_node("Entail", [], Implies(FalseA(), FalseA()))
    cons = make_node("Conseq", [ent_pre, ent_post],
                     Implies(in_node.conclusion.goal, trip))
    return make_node("ImpE", [cons, in_node], trip), trip


def _entry(results, json_mode, name, status, detail, millis,
           witness=None):
    results.append(status)
    _emit(json_mode, "counterexample", name, status, millis,
          witness=witness, extra={"detail": detail})


@main.command("counterexamples")
@click.option("--config", "config_path", default=None)
@click.option("--fuel", type=int, default=None)
@click.option("--json", "json_mode", is_flag=True)
@click.option("--accept-unsound-in", is_flag=True,
              help="Debug only: demonstrate the unsoundness of the "
                   "hypothesis-import rule end to end.")
def cmd_counterexamples(config_path, fuel, json_mode, accept_unsound_in):
    """Run the built-in soundness-regression registry."""
    cfg = _load_cfg(config_path, fuel)
    tester = Tester(cfg)
    results = []

    def clock():
        return time.monotonic()

    # (a) deep-frame: the laundering program faults; the axiom is rejected
    t0 = clock()
    prog = parse("let x = [2] in ([3] := x ; eval [3])", "program")
    heap = parse_heap_text("1 = 0\n2 = 'free(-1)'\n3 = 'skip'")
    out = exec_cmd(prog, EMPTY_ENV, heap, cfg.fuel)
    ms = int((clock() - t0) * 1000)
    if isinstance(out, Fault):
        _entry(results, json_mode, "deep-frame/program-faults",
               "as-registered", "the stored command frees a dangling "
               "address on every run", ms)
    elif isinstance(out, OutOfFuel):
        _entry(results, json_mode, "deep-frame/program-faults",
               "inconclusive", "out of fuel", ms)
    else:
        _entry(results, json_mode, "deep-frame/program-faults",
               "unexpected", "program terminated normally", ms)

    t0 = clock()
    report = check_proof(_deep_frame_script())
    ms = int((clock() - t0) * 1000)
    if not report.ok and "DeepFrameAxiom" in report.failures[0][1]:
        _entry(results, json_mode, "deep-frame/axiom-rejected",
               "as-registered", report.failures[0][1], ms)
    else:
        _entry(results, json_mode, "deep-frame/axiom-rejected",
               "unexpected", "the checker accepted the deep frame axiom",
               ms)

    # (b) {true}'skip'{false} refuted with a replayable witness
    t0 = clock()
    skip = parse("'skip'", "expr")
    v = tester.test_triple(TrueA(), skip, FalseA())
    ms = int((clock() - t0) * 1000)
    if isinstance(v, Fail) and tester.replay(v.witness, "triple", TrueA(),
                                             (skip, FalseA())):
        _entry(results, json_mode, "true-skip-false/refuted",
               "as-registered", "witness replays", ms,
               witness=v.witness.to_json())
    elif isinstance(v, Fail):
        _entry(results, json_mode, "true-skip-false/refuted", "unexpected",
               "witness did not replay", ms)
    else:
        _entry(results, json_mode, "true-skip-false/refuted",
               "inconclusive" if v.inconclusive else "unexpected",
               "no witness found", ms)

    # (c) the hypothesis-import chain: emp => R holds, {emp}'skip'{false}
    # does not, so importing the hypothesis R is unsound
    R = parse("mu X. {X} 'skip' {false}", "assertion")
    t0 = clock()
    v1 = tester.test_entailment(Emp(), R)
    ms = int((clock() - t0) * 1000)
    if isinstance(v1, Pass):
        _entry(results, json_mode, "in-rule/emp-implies-R", "as-registered",
               "the implication holds at every level", ms,
               witness=None)
    else:
        _entry(results, json_mode, "in-rule/emp-implies-R", "unexpected",
               "the implication was refuted", ms,
               witness=v1.witness.to_json())
    t0 = clock()
    v2 = tester.test_triple(Emp(), skip, FalseA())
    ms = int((clock() - t0) * 1000)
    if isinstance(v2, Fail):
        _entry(results, json_mode, "in-rule/emp-skip-false-refuted",
               "as-registered", "witness found", ms,
               witness=v2.witness.to_json())
    else:
        _entry(results, json_mode, "in-rule/emp-skip-false-refuted",
               "inconclusive" if v2.inconclusive else "unexpected",
               "no witness found", ms)

    in_script, in_goal = _in_rule_script()
    if accept_unsound_in:
        t0 = clock()
        report = check_proof(in_script, allow_unsound=("In",))
        v3 = tester.test_triple(in_goal.pre, in_goal.code, in_goal.post)
        ms = int((clock() - t0) * 1000)
        if report.ok and isinstance(v3, Fail):
            _entry(results, json_mode, "in-rule/unsoundness-demonstrated",
                   "unsound", "the accepted derivation concludes a triple "
                   "the model refutes", ms, witness=v3.witness.to_json())
        else:
            _entry(results, json_mode, "in-rule/unsoundness-demonstrated",
                   "unexpected", "demonstration did not go through", ms)
    else:
        t0 = clock()
        report = check_proof(in_script)
        ms = int((clock() - t0) * 1000)
        if not report.ok and any("In" in m for _, m in report.failures):
            _entry(results, json_mode, "in-rule/script-rejected",
                   "as-registered", report.failures[0][1], ms)
        else:
            _entry(results, json_mode, "in-rule/script-rejected",
                   "unexpected", "the checker accepted the import rule", ms)

    # (d) restricted invariance: copying a pseudo-pure conjunct onto a
    # second cell is refuted by a tag mismatch between the two cells
    t0 = clock()
    lhs = parse("1 |-> 'skip' * (2 |-> 'skip' /\\ {emp} 'skip' {false})",
                "assertion")
    rhs = parse("(1 |-> 'skip' /\\ {emp} 'skip' {false}) * "
                "(2 |-> 'skip' /\\ {emp} 'skip' {false})", "assertion")
    v4 = tester.test_entailment(lhs, rhs)
    ms = int((clock() - t0) * 1000)
    if isinstance(v4, Fail) and tester.replay(v4.witness, "entailment",
                                              Implies(lhs, rhs)):
        _entry(results, json_mode, "invariance/entailment-refuted",
               "as-registered", "witness replays", ms,
               witness=v4.witness.to_json())
    else:
        _entry(results, json_mode, "invariance/entailment-refuted",
               "unexpected", "no replayable witness", ms)

    # (e) update with a rank-sensitive invariant: copying code into a
    # fresh cell raises its rank past the level at which the invariant
    # was established for the source cell, so the unrestricted rule is
    # refuted (and the checker only accepts the pure-invariant form)
    t0 = clock()
    upd_pre = parse(
        "(exists v. 1 |-> v) * (2 |-> 'skip' /\\ {emp} 'skip' {false})",
        "assertion")
    upd_post = parse(
        "(1 |-> 'skip' /\\ {emp} 'skip' {false}) * "
        "(2 |-> 'skip' /\\ {emp} 'skip' {false})", "assertion")
    upd_code = parse("[1] := 'skip'", "program")
    v5 = tester.test_triple(upd_pre, Quote(upd_code), upd_post)
    ms = int((clock() - t0) * 1000)
    if isinstance(v5, Fail):
        _entry(results, json_mode, "update-inv/code-copy-refuted",
               "as-registered", "rank of the written cell outruns the "
               "invariant", ms, witness=v5.witness.to_json())
    else:
        _entry(results, json_mode, "update-inv/code-copy-refuted",
               "unexpected", "the triple was not refuted", ms)

    if any(s in ("unexpected", "unsound") for s in results):
        sys.exit(1)
    if any(s == "inconclusive" for s in results):
        sys.exit(2)
    sys.exit(0)


if __name__ == "__main__":
    main()
