"""Proof-checker, entailment-engine and script-format tests."""

import importlib.util
import random
from pathlib import Path

import pytest

from sepstore.fuzz import GENERATORS, fuzz_config, judge
from sepstore.grammar import parse, pretty
from sepstore.logic import (
    REJECTED, RULE_IDS, ProofError, ProofNode, SchemaMismatch, UnknownRule,
    apply_rule, check_node, check_proof, dist_step, entail_basic, iff,
    make_node, match_iff, normalize_otimes, parse_script, serialize_script,
    unfold_mu,
)
from sepstore.semantics import Fail, Pass, Tester
from sepstore.syntax import (
    And, Emp, Eq, FalseA, Implies, IntLit, Judgement, Mu, Or, PointsTo,
    Quote, RelVar, Skip, Star, Tensor, Triple, TrueA, Var, equal_mod_ac,
)

ROOT = Path(__file__).resolve().parent.parent

A = lambda s: parse(s, "assertion")
SKIP = Quote(Skip())


def J(goal, hyps=()):
    return Judgement(hyps=tuple(hyps), goal=goal)


# ---------------------------------------------------------------------------
# the negative registry


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_rules_raise_with_citation(name):
    node = make_node(name, [], TrueA())
    report = check_proof(node)
    assert not report.ok
    assert REJECTED[name] in report.failures[0][1]
    with pytest.raises(UnknownRule) as exc:
        apply_rule(name, {"P": TrueA()}, [])
    assert exc.value.info == REJECTED[name]


def test_rejected_names_not_registered_as_rules():
    assert not set(REJECTED) & set(RULE_IDS)


def test_unknown_rule_plain():
    report = check_proof(make_node("NoSuchRule", [], TrueA()))
    assert not report.ok and "unknown rule" in report.failures[0][1]


# ---------------------------------------------------------------------------
# small checked proofs


def test_check_skip_axiom():
    P = A("1 |-> 0 * true")
    node = make_node("Skip", [], Triple(P, SKIP, P))
    assert check_proof(node).ok


def test_check_rejects_wrong_conclusion():
    node = make_node("Skip", [], Triple(A("emp"), SKIP, A("true")))
    report = check_proof(node)
    assert not report.ok


def test_check_never_trusts_stated_conclusions():
    # an inner node with a bogus conclusion must be flagged even when the
    # outer node would accept it as a premise
    bad = make_node("Skip", [], Triple(A("emp"), SKIP, A("false")))
    outer = make_node("AndI", [bad, bad],
                      And((bad.conclusion.goal, bad.conclusion.goal)))
    report = check_proof(outer)
    assert not report.ok
    assert all("0" in path for path, _ in report.failures)


def test_check_update_free_seq():
    upd = make_node("Update", [], A("{1 |-> _} '[1] := 5' {1 |-> 5}"))
    assert check_proof(upd).ok
    fr = make_node("Free", [], A("{1 |-> _ * emp} 'free(1)' {emp}"))
    assert check_proof(fr).ok
    seq = make_node(
        "Seq",
        [make_node("Update", [],
                   A("{1 |-> _ * emp} '[1] := 5' {1 |-> 5 * emp}")),
         make_node("Skip", [], A("{1 |-> 5 * emp} 'skip' {1 |-> 5 * emp}"))],
        A("{1 |-> _ * emp} '[1] := 5 ; skip' {1 |-> 5 * emp}"))
    assert check_proof(seq).ok
    # the first command must establish what the second one assumes
    gap = make_node(
        "Seq",
        [seq.premises[0],
         make_node("Skip", [], A("{1 |-> 6 * emp} 'skip' {1 |-> 6 * emp}"))],
        A("{1 |-> _ * emp} '[1] := 5 ; skip' {1 |-> 6 * emp}"))
    assert [path for path, _ in check_proof(gap).failures] == ["0"]
    # the freed cell must appear as an anonymous points-to
    bad = make_node("Free", [], A("{1 |-> 5 * emp} 'free(1)' {emp}"))
    assert not check_proof(bad).ok


def test_check_hypothesis_discipline():
    h = A("1 = 1")
    hyp = make_node("Hyp", [], h, hyps=(h,))
    # discharging the hypothesis
    impi = make_node("ImpI", [hyp], Implies(h, h))
    assert check_proof(impi).ok
    # a premise with hypotheses the conclusion lacks is rejected
    leak = make_node("AndE1", [make_node("AndI", [hyp, hyp], And((h, h)),
                                         hyps=(h,))], h)
    assert not check_proof(leak).ok


# {emp} 'skip' {false} from no hypotheses, by eliminating a disjunction or
# an existential that is itself only assumed
FALSE_BRANCH = r"""(premise (rule FalseE (hyp "false")
  (premise (rule Hyp (hyp "false") (conclude "false")))
  (conclude "{emp} 'skip' {false}")))"""


def elimination(rule, major, branches, hyps=""):
    return (f'(rule {rule} (premise (rule Hyp (hyp "{major}") '
            f'(conclude "{major}"))) {" ".join([FALSE_BRANCH] * branches)} '
            f'{hyps} (conclude "{{emp}} \'skip\' {{false}}"))')


@pytest.mark.parametrize("rule, major, branches", [
    ("OrE", r"false \\/ false", 2), ("ExistsE", "exists x. false", 1)])
def test_elimination_keeps_the_hypotheses_of_its_major_premise(
        rule, major, branches):
    report = check_proof(parse_script(elimination(rule, major, branches)))
    assert not report.ok
    assert [path for path, _ in report.failures] == ["0"]
    # with the major premise's hypothesis stated, the derivation is valid
    fixed = elimination(rule, major, branches, f'(hyp "{major}")')
    assert check_proof(parse_script(fixed)).ok


def test_deref_binder_does_not_capture_a_free_variable():
    premise = ProofNode("_assumed", conclusion=J(
        A("{1 |-> x * x = 1} 'free(x)' {true}")))
    cmd = "'let x = [1] in free(x)'"
    check_node(make_node("Deref", [premise],
                         A("{exists x. 1 |-> x * x = 1} " + cmd + " {true}")))
    # the precondition's own x is not the let-bound one: the model refutes
    # this conclusion with the cell 1 holding -1
    with pytest.raises(SchemaMismatch):
        check_node(make_node("Deref", [premise], A(
            "{exists y. 1 |-> y * x = 1} " + cmd + " {true}")))


ASSERTION_PARAMS = ("P", "Q", "R", "A", "B", "P0", "phi", "psi", "template")


def test_apply_rule_raises_only_proof_error():
    """Ill-shaped premises and parameters make apply_rule raise ProofError,
    so a bad fuzz instance counts as an error instead of ending the run."""
    crashed = []
    for rule in RULE_IDS:
        drawn, _ = GENERATORS[rule](random.Random(0))
        no_triples = {k: TrueA() for k in drawn if k in ASSERTION_PARAMS}
        for params in ({}, {"P": TrueA()}, drawn, {**drawn, **no_triples}):
            for n in range(4):
                try:
                    apply_rule(rule, params, [J(TrueA())] * n)
                except ProofError:
                    pass
                except Exception as exc:
                    crashed.append((rule, sorted(params), n, repr(exc)))
    assert not crashed


def test_given_parameters_must_agree_with_the_conclusion():
    upd = A("{1 |-> _} '[1] := 5' {1 |-> 5}")
    assert check_proof(make_node("Update", [], upd, e="1", e0="5")).ok
    report = check_proof(make_node("Update", [], upd, e="1", e0="6"))
    assert not report.ok
    # a rejected node names the conclusion the rule licenses
    assert report.failures[0][1].startswith("Update: the rule concludes {")
    assert report.failures[0][1].endswith("'[1] := 6' {1 |-> 6 * emp}")


SHIPPED_PROOFS = {
    "iterator_store_and_run.proof": "build_store_and_run",
    "iterator_eval.proof": "build_eval_triple",
    "iterator_tensor_frame.proof": "build_tensor_frame",
}


def test_shipped_proofs_match_their_builder():
    spec = importlib.util.spec_from_file_location(
        "make_iterator_proofs", ROOT / "scripts" / "make_iterator_proofs.py")
    builder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(builder)
    for name, build in SHIPPED_PROOFS.items():
        text = serialize_script(getattr(builder, build)())
        assert text == (ROOT / "proofs" / name).read_text(), name


# ---------------------------------------------------------------------------
# apply_rule


def test_apply_rule_skip():
    j = apply_rule("Skip", {"P": A("emp")}, [])
    assert j.goal == Triple(Emp(), SKIP, Emp())


def test_apply_rule_conseq():
    p0 = J(Implies(A("1 |-> 0"), A("exists v. 1 |-> v")))
    p1 = J(Implies(A("false"), A("true")))
    j = apply_rule("Conseq", {"e": SKIP}, [p0, p1])
    assert type(j.goal) is Implies
    assert j.goal.left == Triple(A("exists v. 1 |-> v"), SKIP, FalseA())
    assert j.goal.right == Triple(A("1 |-> 0"), SKIP, TrueA())


def test_apply_rule_needs_params_and_premises():
    with pytest.raises(SchemaMismatch):
        apply_rule("Skip", {}, [])
    with pytest.raises(SchemaMismatch):
        apply_rule("Seq", {}, [J(Triple(Emp(), SKIP, Emp()))])


def test_apply_rule_string_params_are_parsed():
    j = apply_rule("Skip", {"P": "1 |-> 0"}, [])
    assert j.goal == Triple(A("1 |-> 0"), SKIP, A("1 |-> 0"))


def test_update_inv_side_conditions():
    pure_phi = A("1 = 1")
    pseudo = A("{emp} 'skip' {false}")
    # pure conjunct: any source value
    apply_rule("UpdateInv", {"e": IntLit(1), "e0": Quote(Skip()),
                             "e1": IntLit(2), "phi": pure_phi}, [])
    # rank-sensitive conjunct: integer source only
    apply_rule("UpdateInv", {"e": IntLit(1), "e0": IntLit(0),
                             "e1": IntLit(2), "phi": pseudo}, [])
    with pytest.raises(ProofError):
        apply_rule("UpdateInv", {"e": IntLit(1), "e0": Quote(Skip()),
                                 "e1": IntLit(2), "phi": pseudo}, [])
    # a spatial conjunct is never accepted
    with pytest.raises(ProofError):
        apply_rule("UpdateInv", {"e": IntLit(1), "e0": IntLit(0),
                                 "e1": IntLit(2), "phi": A("3 |-> 0")}, [])


# For each side condition, a script that breaks it and nothing else: the
# kernel rejects its root for that condition alone, and the model refutes
# the conclusion it would license.
SIDE_CONDITIONS = {
    "ForallI": ("""
        (rule ForallI (param x "x") (hyp "x = 1")
          (premise (rule Hyp (param A "x = 1") (hyp "x = 1")
            (conclude "x = 1")))
          (conclude "forall x. x = 1"))""",
                "ForallI: x occurs free in a hypothesis"),
    "ExistsE": ("""
        (rule ExistsE (hyp "exists x. x = 1")
          (premise (rule Hyp (param A "exists x. x = 1")
            (hyp "exists x. x = 1") (conclude "exists x. x = 1")))
          (premise (rule Hyp (param A "x = 1") (hyp "x = 1")
            (conclude "x = 1")))
          (conclude "x = 1"))""",
                "ExistsE: x occurs free in the goal or a hypothesis"),
    "New": ("""
        (rule New (param x "x") (param init "0")
          (premise (rule Skip (param P "x |-> 0")
            (conclude "{x |-> 0} 'skip' {x |-> 0}")))
          (conclude "{emp} 'let x = new 0 in skip' {x |-> 0}"))""",
            "New: x occurs free where it must not"),
    "Deref": ("""
        (rule Deref (param x "x") (param e "1")
          (premise (rule Skip (param P "1 |-> x")
            (conclude "{1 |-> x} 'skip' {1 |-> x}")))
          (conclude "{exists x. 1 |-> x} 'let x = [1] in skip' {1 |-> x}"))""",
              "Deref: x occurs free in the address or the postcondition"),
}


@pytest.mark.parametrize("rule", sorted(SIDE_CONDITIONS))
def test_side_condition_alone_rejects_an_unsound_instance(rule):
    text, message = SIDE_CONDITIONS[rule]
    root = parse_script(text)
    assert check_proof(root).failures == [("0", message)]
    assert isinstance(judge(Tester(fuzz_config()), root.conclusion), Fail)


# One-node scripts whose rule reads what it omits from the stated
# conclusion: Entail an equivalence with no P/Q, Invariance its psi from
# the consequent's precondition; each with its failures ([] if accepted).
STATED_CONCLUSIONS = [
    (r'''(rule Entail (conclude
          "(1 |-> 0 * emp => 1 |-> 0) /\\ (1 |-> 0 => 1 |-> 0 * emp)"))''',
     []),
    (r'''(rule Entail (conclude "(1 |-> 0 => 1 |-> 0 \\/ 2 |-> 0)
          /\\ (1 |-> 0 \\/ 2 |-> 0 => 1 |-> 0)"))''',
     [("0", "Entail: the equivalence is not derivable by the basic "
            "entailment engine")]),
    (r'''(rule Invariance (param P "{emp} 'skip' {emp}") (conclude
          "{emp} 'skip' {emp} => {emp /\\ 1 = 1} 'skip' {emp /\\ 1 = 1}"))''',
     []),
    (r'''(rule Invariance (param P "{emp} 'skip' {emp}") (conclude
          "{emp} 'skip' {emp}
           => {emp /\\ 1 |-> 0} 'skip' {emp /\\ 1 |-> 0}"))''',
     [("0", "Invariance: the invariant conjunct must be pure")]),
]


@pytest.mark.parametrize("text, failures", STATED_CONCLUSIONS, ids=[
    "Entail-iff", "Entail-iff-rejected", "Invariance-psi",
    "Invariance-psi-rejected"])
def test_omitted_parameters_are_read_from_the_stated_conclusion(text,
                                                                 failures):
    assert check_proof(parse_script(text)).failures == failures


def test_update_inv_ignores_emp_star_parts():
    check_node(make_node("UpdateInv", [], A(
        "{1 |-> _ * (2 |-> 0 /\\ 1 = 1) * emp} '[1] := 0' "
        "{(1 |-> 0 /\\ 1 = 1) * (2 |-> 0 /\\ 1 = 1)}")))


def test_unread_parameter_is_rejected():
    goal = A("{emp} 'skip' {emp}")
    check_node(make_node("Skip", [], goal))
    with pytest.raises(SchemaMismatch, match="parameter 'Q'"):
        check_node(make_node("Skip", [], goal, Q="false"))


def test_entail_takes_no_budget_parameter():
    script = '(rule Entail (param budget "5") (conclude "1 |-> 0 => true"))'
    report = check_proof(parse_script(script))
    assert not report.ok
    assert any("rule Entail does not take parameter 'budget'" in m
               for _, m in report.failures)


def test_invariance_requires_pure_conjunct():
    t = Triple(Emp(), SKIP, Emp())
    j = apply_rule("Invariance", {"P": t, "psi": A("x = 1")}, [])
    assert type(j.goal) is Implies
    with pytest.raises(ProofError):
        apply_rule("Invariance", {"P": t,
                                  "psi": A("{emp} 'skip' {emp}")}, [])


def test_out_accepts_composite_conjunct():
    phi = And((Eq(IntLit(1), IntLit(1)), Eq(IntLit(0), IntLit(0))))
    pre = And((phi, A("1 |-> 0")))
    j = apply_rule("Out", {"phi": phi}, [J(Triple(pre, SKIP, TrueA()))])
    assert j.goal == Implies(phi, Triple(A("1 |-> 0"), SKIP, TrueA()))


# ---------------------------------------------------------------------------
# entailment engine


def test_entail_basic_positive():
    X = A("1 |-> 0")
    assert entail_basic(X, X)
    assert entail_basic(And((X, TrueA())), X)
    assert entail_basic(X, Or((X, FalseA())))
    assert entail_basic(FalseA(), X)
    assert entail_basic(Star((X, A("2 |-> 1"))), Star((A("2 |-> 1"), X)))
    assert entail_basic(Star((Emp(), X)), X)      # unit normalization
    assert entail_basic(X, Star((X, Emp())))
    assert entail_basic(A("1 |-> 0"), A("exists v. 1 |-> v"))
    assert entail_basic(A("1 |-> 0 * 2 |-> 1"), A("1 |-> _ * 2 |-> 1"))


@pytest.mark.parametrize("goal", ["emp => exists b. emp",
                                  "true => exists b. true",
                                  "emp => exists b. b = b"])
def test_an_unpinned_existential_is_introduced(goal):
    """A body that does not pin its variable down still gets a witness,
    so the one-node Entail script of the goal checks."""
    script = f'(rule Entail (conclude "{goal}"))'
    assert check_proof(parse_script(script)).ok


def test_entail_basic_negative():
    assert not entail_basic(TrueA(), FalseA())
    assert not entail_basic(A("1 |-> 0"), A("2 |-> 0"))
    assert not entail_basic(A("1 |-> _"), A("1 |-> 0"))
    assert not entail_basic(Emp(), A("1 |-> 0"))


def test_entail_basic_star_unit_under_binders():
    # a unit inside a premise must not shadow the stripped problem in the
    # memo table
    P = A("emp * (1 |-> 0 /\\ true)")
    assert entail_basic(P, A("1 |-> 0"))
    assert entail_basic(Star((Emp(), Star((Emp(), A("1 |-> 0"))))),
                        A("1 |-> 0"))


# each branch of the engine by one derivable and one underivable pair
ENTAIL_BRANCHES = [
    # a triple is contravariant in its precondition
    ("{exists v. 1 |-> v} 'skip' {1 |-> 0}",
     "{1 |-> 0} 'skip' {exists v. 1 |-> v}", True),
    ("{1 |-> 0} 'skip' {1 |-> 0}",
     "{exists v. 1 |-> v} 'skip' {1 |-> 0}", False),
    # forall on the right: a fresh variable
    ("1 |-> 0", "forall v. v = 1 => 1 |-> 0", True),
    ("1 |-> 0", "forall v. 1 |-> v", False),
    # forall on the left: an instance
    ("forall v. 1 |-> v \\/ v = 0", "1 |-> 1", True),
    ("forall v. 1 |-> v \\/ v = 0", "2 |-> 1", False),
    # the rank modality on the left
    ("<> 1 |-> 0", "exists v. 1 |-> v", True),
    ("<> 1 |-> 0", "2 |-> 0", False),
    # ground points-to facts
    ("1 |-> (0 + 1)", "1 |-> 1", True),
    ("1 |-> (0 + 1)", "1 |-> 0", False),
    # disjunction on the left: both arms
    ("1 |-> 0 \\/ 2 |-> 0", "(exists v. 1 |-> v) \\/ 2 |-> 0", True),
    ("1 |-> 0 \\/ 2 |-> 0", "1 |-> 0", False),
    # distributing an extension renames a binder the invariant mentions
    # free, so the bound x stays apart from the free x
    ("(exists x. {1 |-> x} 'skip' {1 |-> x}) (*) 2 |-> x",
     "exists z. {1 |-> z * 2 |-> x} 'skip' {1 |-> z * 2 |-> x}", True),
    ("(exists x. {1 |-> x} 'skip' {1 |-> x}) (*) 2 |-> x",
     "exists z. {1 |-> z * 2 |-> z} 'skip' {1 |-> z * 2 |-> z}", False),
    # a side that is emp alone has no * parts: each part of the other side
    # is matched against emp
    ("emp", "(emp \\/ 1 |-> 0) * (emp \\/ 2 |-> 0)", True),
    ("emp", "(emp \\/ 1 |-> 0) * 2 |-> 0", False),
    ("(emp /\\ 1 = 1) * (emp /\\ 2 = 2)", "emp", True),
    ("(emp /\\ 1 = 1) * 2 |-> 0", "emp", False),
    # prenex renames the second x apart, and each binder gets its witness
    ("(exists x. 1 |-> x) * (exists x. 2 |-> x)",
     "exists a. exists b. 1 |-> a * 2 |-> b", True),
    ("(exists x. 1 |-> x) * (exists x. 2 |-> x)",
     "exists a. 1 |-> a * 2 |-> a", False),
]


def test_entail_basic_branches():
    for P, Q, derivable in ENTAIL_BRANCHES:
        assert entail_basic(A(P), A(Q)) is derivable, (P, Q)


def test_entail_basic_branches_agree_with_the_model(lean_tester):
    for P, Q, derivable in ENTAIL_BRANCHES:
        if derivable:
            v = lean_tester.test_entailment(A(P), A(Q))
            assert isinstance(v, Pass) and v.samples, (P, Q)


# ---------------------------------------------------------------------------
# recursion and distribution helpers


def test_unfold_mu():
    m = A("mu X. {X} 'skip' {emp}")
    body = unfold_mu(m)
    assert body == Triple(m, SKIP, Emp())
    j = apply_rule("MuUnfold", {"P": m}, [])
    assert match_iff(j.goal) == (m, body)


def test_unfold_mu_with_params():
    m = Mu("X", ("p",),
           Triple(RelVar("X", (Var("p"),)), SKIP, PointsTo(Var("p"),
                                                           IntLit(0))),
           (IntLit(3),))
    body = unfold_mu(m)
    # parameters become the arguments, the bound relvar becomes the
    # recursive assertion re-applied to them
    assert body == Triple(Mu("X", ("p",), m.body, (IntLit(3),)), SKIP,
                          PointsTo(IntLit(3), IntLit(0)))


def test_normalize_otimes_examples():
    t = A("({emp} 'skip' {emp}) (*) 1 |-> 0")
    n = normalize_otimes(t)
    # the extension lands in pre and post, and emp (*) R collapses to emp
    assert n == A("{emp * 1 |-> 0} 'skip' {emp * 1 |-> 0}")
    # atoms absorb the extension
    assert normalize_otimes(A("emp (*) true")) == Emp()
    assert normalize_otimes(A("(1 |-> 0 /\\ emp) (*) true")) \
        == A("1 |-> 0 /\\ emp")


def test_normalize_otimes_idempotent():
    rng = random.Random(3)
    from sepstore.fuzz import assertion as rand_fuzz_asn
    for _ in range(100):
        P = Tensor(rand_fuzz_asn(rng), rand_fuzz_asn(rng, 1))
        n = normalize_otimes(P)
        assert normalize_otimes(n) == n


def test_normalize_otimes_stuck_on_recursion():
    m = A("mu X. {X} 'skip' {emp}")
    t = Tensor(m, TrueA())
    assert type(normalize_otimes(t)) is Tensor
    assert dist_step(m, TrueA()) is None
    assert dist_step(RelVar("X"), TrueA()) is None


# ---------------------------------------------------------------------------
# script format


def test_script_roundtrip():
    upd = make_node("Update", [], A("{1 |-> _} '[1] := 5' {1 |-> 5}"))
    seq = make_node(
        "Seq",
        [make_node("Update", [],
                   A("{1 |-> _ * emp} '[1] := 5' {1 |-> 5 * emp}")),
         make_node("Skip", [],
                   A("{1 |-> 5 * emp} 'skip' {1 |-> 5 * emp}"))],
        A("{1 |-> _ * emp} '[1] := 5 ; skip' {1 |-> 5 * emp}"))
    for node in (upd, seq):
        text = serialize_script(node)
        back = parse_script(text)
        assert back.rule == node.rule
        assert equal_mod_ac(back.conclusion.goal, node.conclusion.goal)
        assert check_proof(back).ok


def test_script_errors():
    from sepstore.logic import ScriptError
    for text in ("", "(rule Skip", "(rule Skip (conclude))",
                 "(rule Skip (param P))", "(what)",
                 '(rule Skip (conclude "emp")) trailing'):
        with pytest.raises(ScriptError):
            parse_script(text)


def test_iff_helpers():
    a, b = A("emp"), A("true")
    assert match_iff(iff(a, b)) == (a, b)
    assert match_iff(And((Implies(a, b), Implies(a, b)))) is None
    assert match_iff(a) is None
