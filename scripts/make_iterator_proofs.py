#!/usr/bin/env python3
"""Build and verify the iterator case-study proof scripts.

The case study: cell 1 holds a counter, cell 2 holds a stored command
satisfying {emp}_{emp}, and cell 3 holds an iterator command that runs the
stored command and re-invokes itself through the store until the counter
hits zero.  Three scripts are produced under proofs/:

  iterator_store_and_run.proof  store the iterator at cell 3, then run it
  iterator_eval.proof           the eval-at-3 triple against the recursive
                                specification, discharged by R[k] => R[k]
  iterator_tensor_frame.proof   the eval triple extended with an invariant
                                via the tensor frame rule
"""

import sys
from pathlib import Path

from sepstore.grammar import parse, pretty
from sepstore.logic import (check_proof, make_node, normalize_otimes,
                            parse_script, serialize_script)
from sepstore.syntax import (And, Eq, Exists, FalseA, Implies, IntLit,
                             PointsTo, Quote, Star, Tensor, Triple, Var)

A = lambda s: parse(s, kind="assertion")
E = lambda s: parse(s, kind="expr")

SPEC = "2 |-> {emp}_{emp}"
R_IT = ("mu X. 3 |-> {1 |-> _ * " + SPEC + " * X}_"
        "{1 |-> 0 * " + SPEC + " * X}")
F = SPEC + " * (" + R_IT + ")"          # the invariant frame
PRE0 = "1 |-> _ * " + F                 # spec precondition
POST0 = "1 |-> 0 * " + F                # spec postcondition
C_IT = ("let n = [1] in if (n = 0) then skip else "
        "(eval [2] ; [1] := n - 1 ; eval [3])")
C_ELSE = "eval [2] ; [1] := n - 1 ; eval [3]"
C_FULL = "[3] := '" + C_IT + "' ; eval [3]"


def T(pre, cmd, post):
    return A("{" + pre + "} '" + cmd + "' {" + post + "}")


def entail(imp):
    return make_node("Entail", [], A(imp))


def conseq_then_impe(pre_ent, post_ent, triple_node, new_goal):
    cons = make_node("Conseq", [pre_ent, post_ent],
                     Implies(triple_node.conclusion.goal, new_goal),
                     hyps=triple_node.conclusion.hyps)
    return make_node("ImpE", [cons, triple_node], new_goal,
                     hyps=triple_node.conclusion.hyps)


def build_eval2():
    """{1 |-> n * F} 'eval [2]' {1 |-> n * F} by running the stored op."""
    goal = T("1 |-> n * " + F, "eval [2]", "1 |-> n * " + F)
    h = A("{emp} k {emp}")
    framed = A("{emp * 1 |-> n * " + F + "} k {emp * 1 |-> n * " + F + "}")
    sf = make_node("StarFrame", [], Implies(h, framed))
    hyp = make_node("Hyp", [], h, hyps=(h,))
    impe = make_node("ImpE", [sf, hyp], framed, hyps=(h,))
    impi = make_node("ImpI", [impe], Implies(h, framed))
    return make_node("Eval", [impi], goal)


def build_decrement():
    """{1 |-> n * F} '[1] := n - 1' {1 |-> n - 1 * F}."""
    upd = make_node("Update", [],
                    T("1 |-> _ * " + F, "[1] := n - 1", "1 |-> n - 1 * " + F))
    goal = T("1 |-> n * " + F, "[1] := n - 1", "1 |-> n - 1 * " + F)
    return conseq_then_impe(
        entail("1 |-> n * " + F + " => 1 |-> _ * " + F),
        entail("1 |-> n - 1 * " + F + " => 1 |-> n - 1 * " + F),
        upd, goal)


def build_eval3():
    """{1 |-> n - 1 * F} 'eval [3]' {1 |-> 0 * F} via the recursive spec."""
    goal = T("1 |-> n - 1 * " + F, "eval [3]", "1 |-> 0 * " + F)
    rk = A("{" + PRE0 + "} k {" + POST0 + "}")
    weak = A("{1 |-> n - 1 * " + F + "} k {" + POST0 + "}")
    cons = make_node("Conseq",
                     [entail("1 |-> n - 1 * " + F + " => " + PRE0),
                      entail(POST0 + " => " + POST0)],
                     Implies(rk, weak))
    hyp = make_node("Hyp", [], rk, hyps=(rk,))
    impe = make_node("ImpE", [cons, hyp], weak, hyps=(rk,))
    impi = make_node("ImpI", [impe], Implies(rk, weak))
    return make_node("Eval", [impi], goal)


def build_body():
    """The iterator body satisfies the recursive specification:
    {1 |-> _ * F} 'C_IT' {1 |-> 0 * F}."""
    seq1 = make_node("Seq", [build_eval2(), build_decrement()],
                     T("1 |-> n * " + F, "eval [2] ; [1] := n - 1",
                       "1 |-> n - 1 * " + F))
    seq2 = make_node("Seq", [seq1, build_eval3()],
                     T("1 |-> n * " + F, C_ELSE, "1 |-> 0 * " + F))

    pre_if = A("1 |-> n * " + F)
    post = A("1 |-> 0 * " + F)
    guard = Eq(Var("n"), IntLit(0))

    skip = make_node("Skip", [], T("1 |-> 0 * " + F, "skip",
                                   "1 |-> 0 * " + F))
    then_goal = Triple(And((pre_if, guard)), Quote(parse("skip", "program")),
                       post)
    then_n = conseq_then_impe(
        make_node("Entail", [], Implies(And((pre_if, guard)), post)),
        entail("1 |-> 0 * " + F + " => 1 |-> 0 * " + F),
        skip, then_goal)

    neg = Implies(guard, FalseA())
    else_goal = Triple(And((pre_if, neg)),
                       Quote(parse(C_ELSE, "program")), post)
    else_n = conseq_then_impe(
        make_node("Entail", [], Implies(And((pre_if, neg)), pre_if)),
        entail("1 |-> 0 * " + F + " => 1 |-> 0 * " + F),
        seq2, else_goal)

    if_n = make_node("If", [then_n, else_n],
                     T("1 |-> n * " + F,
                       "if (n = 0) then skip else (" + C_ELSE + ")",
                       "1 |-> 0 * " + F))
    deref = make_node("Deref", [if_n],
                      Triple(Exists("n", Star((PointsTo(IntLit(1), Var("n")),
                                               A(F)))),
                             Quote(parse(C_IT, "program")), post))
    goal = T(PRE0, C_IT, POST0)
    pre_open = "exists n. 1 |-> n * " + F
    return conseq_then_impe(
        entail(PRE0 + " => " + pre_open),
        entail(POST0 + " => " + POST0),
        deref, goal)


def build_eval_triple():
    """{PRE0} 'eval [3]' {POST0}: the recursive call discharges its own
    specification, so the premise is just R[k] => R[k]."""
    rk = A("{" + PRE0 + "} k {" + POST0 + "}")
    hyp = make_node("Hyp", [], rk, hyps=(rk,))
    impi = make_node("ImpI", [hyp], Implies(rk, rk))
    return make_node("Eval", [impi], T(PRE0, "eval [3]", POST0))


def build_store_and_run():
    """{1 |-> _ * spec_f * 3 |-> _} 'C_FULL' {1 |-> 0 * spec_f * R_it}."""
    rest = "1 |-> _ * " + SPEC
    upd = make_node("Update", [],
                    T("3 |-> _ * " + rest, "[3] := '" + C_IT + "'",
                      "3 |-> '" + C_IT + "' * " + rest))

    # fold the stored command into the recursive specification
    pt = A("3 |-> '" + C_IT + "'")
    body_triple = T(PRE0, C_IT, POST0)
    hyp_pt = make_node("Hyp", [], pt, hyps=(pt,))
    and_n = make_node("AndI", [hyp_pt, build_body()],
                      And((pt, body_triple)), hyps=(pt,))
    unfolded = Exists("k", And((PointsTo(IntLit(3), Var("k")),
                                A("{" + PRE0 + "} k {" + POST0 + "}"))))
    ex_n = make_node("ExistsI", [and_n], unfolded, hyps=(pt,),
                     witness=Quote(parse(C_IT, "program")))
    fold_ent = make_node("Entail", [], Implies(unfolded, A(R_IT)))
    folded = make_node("ImpE", [fold_ent, ex_n], A(R_IT), hyps=(pt,))
    fold_imp = make_node("ImpI", [folded], Implies(pt, A(R_IT)))

    mono = make_node("StarMono",
                     [fold_imp, entail(rest + " => " + rest)],
                     Implies(Star((pt, A(rest))),
                             Star((A(R_IT), A(rest)))))
    stored_goal = T("3 |-> _ * " + rest, "[3] := '" + C_IT + "'", PRE0)
    cons = make_node("Conseq",
                     [entail("3 |-> _ * " + rest + " => 3 |-> _ * " + rest),
                      mono],
                     Implies(upd.conclusion.goal, stored_goal))
    stored = make_node("ImpE", [cons, upd], stored_goal)

    return make_node("Seq", [stored, build_eval_triple()],
                     T("3 |-> _ * " + rest, C_FULL, POST0))


def build_tensor_frame():
    """The eval triple survives extension with an invariant: tensor-frame
    with I = 4 |-> 0, then rewrite the extension inward."""
    ev = build_eval_triple()
    inv = A("4 |-> 0")
    tens = Tensor(ev.conclusion.goal, inv)
    tf = make_node("TensorFrame", [ev], tens)
    norm = normalize_otimes(tens)
    ent = make_node("Entail", [], Implies(tens, norm))
    return make_node("ImpE", [ent, tf], norm)


def main():
    out_dir = Path(__file__).resolve().parent.parent / "proofs"
    out_dir.mkdir(exist_ok=True)
    proofs = {
        "iterator_store_and_run.proof": build_store_and_run(),
        "iterator_eval.proof": build_eval_triple(),
        "iterator_tensor_frame.proof": build_tensor_frame(),
    }
    ok = True
    for name, tree in proofs.items():
        report = check_proof(tree)
        if not report.ok:
            ok = False
            print(f"{name}: FAILED")
            for path, msg in report.failures:
                print(f"  at {path}: {msg}")
            continue
        text = serialize_script(tree)
        reparsed = parse_script(text)
        report2 = check_proof(reparsed)
        if not report2.ok:
            ok = False
            print(f"{name}: FAILED after round-trip")
            for path, msg in report2.failures[:5]:
                print(f"  at {path}: {msg}")
            continue
        (out_dir / name).write_text(text)
        print(f"{name}: ok "
              f"({sum(report.stats.values())} nodes) -> {out_dir / name}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
