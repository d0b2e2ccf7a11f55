"""Parser and pretty-printer tests, including the round-trip property."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Names, rand_asn, rand_cmd, rand_expr, term_corpus
from sepstore.grammar import ParseError, parse, pretty, pretty_cmd
from sepstore.interp import (EMPTY_ENV, Done, exec_cmd, format_heap,
                             parse_heap_text)
from sepstore.syntax import (
    And, ArityError, Assign, BinOp, ContractivenessError, Diamond, Emp, Eq,
    EvalAt, Exists, Implies, IntLit, Mu, Or, PointsTo, Quote, RelVar, Seq,
    Skip, Star, Tensor, Triple, TrueA, Var, children, exposed_occurrence,
)
from sepstore.syntax import Free as FreeCmd

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# concrete-syntax examples


def test_parse_precedence():
    a = parse("true => emp \\/ emp /\\ true * emp", "assertion")
    assert type(a) is Implies
    assert type(a.right) is Or
    assert type(a.right.parts[-1]) is And
    assert type(a.right.parts[-1].parts[-1]) is Star


def test_star_binds_tighter_than_and():
    a = parse("1 |-> 0 * 2 |-> 1 /\\ true", "assertion")
    assert a == And((Star((PointsTo(IntLit(1), IntLit(0)),
                           PointsTo(IntLit(2), IntLit(1)))), TrueA()))


def test_multiplication_needs_parens():
    a = parse("(x * y) = z", "assertion")
    assert a == Eq(BinOp("*", Var("x"), Var("y")), Var("z"))
    b = parse("x + 2 <= y - 1", "assertion")
    assert b.left == BinOp("+", Var("x"), IntLit(2))
    assert b.right == BinOp("-", Var("y"), IntLit(1))


def test_tensor_and_diamond():
    a = parse("(emp (*) true) * <> emp", "assertion")
    assert a == Star((Tensor(Emp(), TrueA()), Diamond(Emp())))


def test_triple_and_quote():
    a = parse("{emp} 'skip ; [1] := 2' {1 |-> 2}", "assertion")
    assert a == Triple(Emp(), Quote(Seq((Skip(), Assign(IntLit(1),
                                                        IntLit(2))))),
                       PointsTo(IntLit(1), IntLit(2)))


def test_points_to_wildcard_sugar():
    a = parse("1 |-> _", "assertion")
    assert type(a) is Exists
    assert a.body == PointsTo(IntLit(1), Var(a.var))


def test_points_to_triple_sugar():
    a = parse("3 |-> {emp}_{true}", "assertion")
    assert type(a) is Exists
    assert type(a.body) is And
    assert a.body.parts == (PointsTo(IntLit(3), Var(a.var)),
                            Triple(Emp(), Var(a.var), TrueA()))


def test_parse_mu_contractive_only():
    m = parse("mu X. {X} 'skip' {emp}", "assertion")
    assert type(m) is Mu and m.relvar == "X"
    with pytest.raises(Exception):
        parse("mu X. X * emp", "assertion")


def test_parse_commands():
    c = parse("let x = new 1, 'skip' in (eval [x] ; free(x))", "program")
    assert c.var == "x" and len(c.inits) == 2
    assert c.body == Seq((EvalAt(Var("x")), FreeCmd(Var("x"))))


def test_parse_errors():
    for text, kind in (("1 +", "expr"), ("{emp} skip", "assertion"),
                       ("let x = in skip", "program"), ("", "assertion"),
                       ("forall. emp", "assertion")):
        with pytest.raises(ParseError):
            parse(text, kind)
    with pytest.raises(ValueError):
        parse("emp", "sequent")


def test_parser_keeps_shadowing_names():
    a = parse("exists x. exists x. x = 1", "assertion")
    assert a == Exists("x", Exists("x", Eq(Var("x"), IntLit(1))))
    m = parse("mu X. {X} 'skip' {mu X. {X} 'skip' {emp}}", "assertion")
    assert m.relvar == m.body.post.relvar == "X"
    shadowing = [
        ("assertion", "exists x. exists x. x = 1"),
        ("assertion", "mu X. {X} 'skip' {mu X. {X} 'skip' {X}}"),
        ("assertion", "mu X(p). {X(p)} 'skip' {mu X. {X} 'skip' {p |-> 0}}"),
        # the shadowing terms of the golden traversal corpus
        ("assertion", "forall p. (mu X(p). {X(p + 1)} 'skip' {p |-> z})(p)"),
        ("assertion", "forall x. exists x. x = y /\\ (exists y. y |-> x)"),
        ("program", "let x = [x] in (let x = new x in [x] := y) ; eval [x]"),
    ]
    for kind, text in shadowing:
        t = parse(text, kind)
        assert parse(pretty(t), kind) == t, text


def test_parser_checks_relation_variable_arity_by_scope():
    for text in ("mu X. {X(1)} 'skip' {emp}",
                 "(mu X(p). {X(1, 2)} 'skip' {emp})(1)",
                 "mu X(p). {mu X. {X(1)} 'skip' {emp}} 'skip' {emp}"):
        with pytest.raises(ArityError):
            parse(text, "assertion")
    # the innermost mu decides, and a free relation variable is unchecked
    parse("mu X. {mu X(p). {X(p)} 'skip' {emp}} 'skip' {X * Y(1) * Y}",
          "assertion")
    with pytest.raises(ContractivenessError):
        parse("mu X. X /\\ emp", "assertion")


# the first fault in the text is the one reported: an enclosing mu before
# the terms in its body, an earlier sibling before a later one
MU_FAULTS = [
    # nested mu: the outer body's fault, not the inner one built first
    ("mu X. (mu Y. Y /\\ emp) /\\ X",
     "recursive assertion body is not formally contractive in X: "
     "offending occurrence X in (mu Y. Y /\\ emp) /\\ X"),
    ("mu X. {mu Y(a). {Y(1, 2)} 'skip' {emp}} 'skip' {emp} /\\ X",
     "recursive assertion body is not formally contractive in X: "
     "offending occurrence X in {mu Y(a). {Y(1, 2)} 'skip' {emp}} 'skip' "
     "{emp} /\\ X"),
    ("mu X. {emp} 'skip' {mu Y. Y * emp} * {X(1)} 'skip' {emp}",
     "recursive assertion body is not formally contractive in Y: "
     "offending occurrence Y in Y * emp"),
    ("mu X. {X(1)} 'skip' {emp} * (mu Y. Y)",
     "relation variable X applied to 1 arguments, expected 0"),
    # the application form (mu X(p). ...)(args)
    ("(mu X(p). X(p) /\\ emp)(1)",
     "recursive assertion body is not formally contractive in X: "
     "offending occurrence X(p) in X(p) /\\ emp"),
    ("(mu X(p). {X(1, 2)} 'skip' {emp})(1)",
     "relation variable X applied to 2 arguments, expected 1"),
    ("(mu X(p). {(mu Y. Y)} 'skip' {X(p, p)})(1) * X(1, 2)",
     "recursive assertion body is not formally contractive in Y: "
     "offending occurrence Y in Y"),
    # a relation variable under a mu that shadows an outer binder, and one
    # after that mu closes
    ("mu X(p). {mu X(p, q). {X(p)} 'skip' {emp}} 'skip' {X(p)}",
     "relation variable X applied to 1 arguments, expected 2"),
    ("mu X(p). {mu X. {X} 'skip' {emp}} 'skip' {X}",
     "relation variable X applied to 0 arguments, expected 1"),
    ("mu X(a). {(X)} 'skip' {emp}",
     "relation variable X applied to 0 arguments, expected 1"),
]


@pytest.mark.parametrize("text, message", MU_FAULTS)
def test_mu_faults_keep_their_messages(text, message):
    with pytest.raises((ArityError, ContractivenessError)) as exc:
        parse(text, "assertion")
    assert str(exc.value) == message


def test_faults_of_an_abandoned_reading_are_dropped():
    # `(X)` is first read as an assertion, where X has the wrong arity,
    # then as the expression it is
    for text in ("mu X(a). {(X) = 1} 'skip' {emp}",
                 "mu X(a). {((X)) = 1} 'skip' {X(a)}"):
        assert type(parse(text, "assertion")) is Mu
    # a syntax error anywhere comes before a fault
    for text in ("(mu X. X) + 1 = 2", "mu X. X * ("):
        with pytest.raises(ParseError):
            parse(text, "assertion")


def _check_mu(ast, arity):
    """The reference: reject the first, in pre-order, non-contractive mu
    body or bound relation variable applied to other than `arity[name]`
    arguments, its innermost binder's count."""
    t = type(ast)
    if t is RelVar and len(ast.args) != arity.get(ast.name, len(ast.args)):
        raise ArityError(ast.name, len(ast.args), arity[ast.name])
    if t is Mu:
        occurrence = exposed_occurrence(ast.body, ast.relvar)
        if occurrence is not None:
            raise ContractivenessError(ast.relvar, pretty(occurrence),
                                       pretty(ast.body))
        arity = {**arity, ast.relvar: len(ast.params)}
    for c in children(ast):
        _check_mu(c, arity)


def _rand_mu_term(rng, depth):
    """(text, term) of a random assertion over mu binders and relation
    variables of any arity, contractive or not."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        name, n = rng.choice("XY"), rng.randrange(3)
        if rng.random() < 0.2:
            return "x = 1", Eq(Var("x"), IntLit(1))
        args = tuple(IntLit(i) for i in range(n))
        text = f"{name}({', '.join('0123'[:n])})" if n else name
        return text, RelVar(name, args)
    (a, p), (b, q) = (_rand_mu_term(rng, depth - 1) for _ in range(2))
    if roll < 0.45:
        return f"({a} * {b})", Star((p, q))
    if roll < 0.6:
        return f"{{{a}}} 'skip' {{{b}}}", Triple(p, Quote(Skip()), q)
    if roll < 0.7:
        return f"({a} (*) {b})", Tensor(p, q)
    name, n = rng.choice("XY"), rng.randrange(3)
    params = ("p", "q")[:n]
    head = f"mu {name}({', '.join(params)})" if n else f"mu {name}"
    if n and rng.random() < 0.5:
        args = tuple(IntLit(i) for i in range(n))
        return (f"({head}. {a})({', '.join('0123'[:n])})",
                Mu(name, params, p, args))
    return f"({head}. {a})", Mu(name, params, p, tuple(map(Var, params)))


def test_parser_reports_what_the_reference_walk_reports():
    rng = random.Random(3)
    faults = 0
    for _ in range(3000):
        text, t = _rand_mu_term(rng, 4)
        try:
            _check_mu(t, {})
        except (ArityError, ContractivenessError) as exc:
            faults += 1
            with pytest.raises(type(exc)) as got:
                parse(text, "assertion")
            assert str(got.value) == str(exc), text
        else:
            assert parse(text, "assertion") is t, text
    assert 500 < faults < 2500


CHAIN = """
from sepstore.grammar import parse
from sepstore.syntax import Seq

p = parse(" ; ".join(["[x] := 1"] * 10_000), "program")
assert type(p) is Seq and len(p.cmds) == 10_000, p.cmds[:3]
assert {type(c).__name__ for c in p.cmds} == {"Assign"}
"""


def test_ten_thousand_statement_chain_parses():
    # a fresh process, whose stack holds none of the test runner's frames:
    # the parser reads a sequence in a loop and walks no term afterwards
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", CHAIN],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr[-2000:]


EVERY_LAYER = """
from sepstore.grammar import parse, pretty_cmd
from sepstore.interp import (EMPTY_ENV, Done, exec_cmd, format_heap,
                             parse_heap_text)
from sepstore.syntax import (IntLit, canon_key, equal_mod_ac, free_vars,
                             substitute)

n = 10_000
text = " ; ".join(["[x] := 1"] * n)
p = parse(text, "program")
assert pretty_cmd(p) == text
assert free_vars(p) == ({"x"}, set())
q = substitute(p, {"x": IntLit(1)})
assert q is parse(text.replace("x", "1"), "program") and len(q.cmds) == n
assert canon_key(p) is p
out = exec_cmd(q, EMPTY_ENV, parse_heap_text("1 = 0"), n)
assert isinstance(out, Done) and format_heap(out.heap) == "1 = 1"
# each statement binds a name, so the canonical nodes are walked
a, b = (parse(" ; ".join([f"(let {v} = [1] in [{v}] := 1)"] * n), "program")
        for v in "vw")
assert a is not b and equal_mod_ac(a, b) and canon_key(a) is not a
"""


# the same for a chain of each of *, /\\ and \\/, named in argv[1]
EVERY_LAYER_CHAIN = """
import sys
from sepstore.grammar import parse, pretty_asn
from sepstore.logic import entail_basic, normalize_otimes
from sepstore.syntax import (And, Exists, IntLit, Or, Star, Var, canon_key,
                             flatten, free_vars, substitute)

n = 10_000
sym = sys.argv[1]
cls = {"*": Star, "/\\\\": And, "\\\\/": Or}[sym]
text = f" {sym} ".join(f"{i} |-> x" for i in range(n))
P = parse(text, "assertion")
assert type(P) is cls and len(P.parts) == n
assert pretty_asn(P) == text and parse(pretty_asn(P), "assertion") is P
assert len(flatten(P, cls)) == n
assert free_vars(P) == ({"x"}, set())
Q = substitute(P, {"x": IntLit(1)})
assert Q is parse(text.replace("x", "1"), "assertion")
# canon_key bare and under a binder: equal up to AC and alpha
back = parse(f" {sym} ".join(f"{i} |-> x" for i in reversed(range(n))),
             "assertion")
assert canon_key(back) is canon_key(P) and len(canon_key(P).parts) == n
bound = [Exists(v, substitute(P, {"x": Var(v)})) for v in "yz"]
assert canon_key(bound[0]) is canon_key(bound[1])
assert free_vars(bound[0]) == (set(), set())
assert normalize_otimes(P) is P
assert entail_basic(P, P)
"""


def _fresh_process(*args):
    """Run python with args in a fresh process, whose stack holds none of
    the test runner's frames, on this tree's sources."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_ten_thousand_statement_chain_through_every_layer():
    # a fresh process: a chain is one node, so each traversal crosses it
    # in one frame
    done = _fresh_process("-c", EVERY_LAYER)
    assert done.returncode == 0, done.stderr[-2000:]


@pytest.mark.parametrize("sym", ["*", "/\\", "\\/"])
def test_ten_thousand_part_chain_through_every_layer(sym):
    done = _fresh_process("-c", EVERY_LAYER_CHAIN, sym)
    assert done.returncode == 0, done.stderr[-2000:]


def test_leading_sequence_is_spliced():
    a, b, c = (parse(t, "program") for t in ("skip", "[1] := 1", "eval [2]"))
    left = parse("(skip ; [1] := 1) ; eval [2]", "program")
    assert left is parse("skip ; [1] := 1 ; eval [2]", "program")
    assert left is Seq((Seq((a, b)), c)) is Seq((a, b, c))
    right = parse("skip ; ([1] := 1 ; eval [2])", "program")
    assert right is Seq((a, Seq((b, c)))) and right is not left
    assert pretty_cmd(left) == "skip ; [1] := 1 ; eval [2]"
    assert pretty_cmd(right) == "skip ; ([1] := 1 ; eval [2])"
    # the same for each chain connective, which prints as a binary one
    # associating to the left
    a, b, c = (parse(t, "assertion") for t in ("1 |-> 0", "x = 1", "emp"))
    for cls, sym in ((Star, "*"), (And, "/\\"), (Or, "\\/")):
        left = parse(f"(1 |-> 0 {sym} x = 1) {sym} emp", "assertion")
        assert left is parse(f"1 |-> 0 {sym} x = 1 {sym} emp", "assertion")
        assert left is cls((cls((a, b)), c)) is cls((a, b, c))
        right = parse(f"1 |-> 0 {sym} (x = 1 {sym} emp)", "assertion")
        assert right is cls((a, cls((b, c)))) and right is not left
        assert pretty(left) == f"1 |-> 0 {sym} x = 1 {sym} emp"
        assert pretty(right) == f"1 |-> 0 {sym} (x = 1 {sym} emp)"


def test_thousand_statement_chain_prints_from_the_command_line(tmp_path):
    # a fresh process: a chain is one node, printed flat in one frame
    path = tmp_path / "chain.prog"
    path.write_text(" ; ".join(["[1] := 1"] * 1000))
    src = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                        os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "sepstore.cli", "parse",
                           str(path)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == path.read_text() + "\n"


THOUSAND_STARS = " * ".join(f"{i} |-> 0" for i in range(1000))


def test_thousand_part_chain_parses_from_the_command_line(tmp_path):
    # a fresh process: the chain is read into one node and printed flat
    path = tmp_path / "chain.asn"
    path.write_text(THOUSAND_STARS)
    done = _fresh_process("-m", "sepstore.cli", "parse", "--kind",
                          "assertion", str(path))
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == THOUSAND_STARS + "\n"


def test_thousand_part_entailment_checks_from_the_command_line(tmp_path):
    path = tmp_path / "chain.proof"
    goal = f"{THOUSAND_STARS} => {THOUSAND_STARS}"
    path.write_text(f'(rule Entail (conclude "{goal}"))\n')
    done = _fresh_process("-m", "sepstore.cli", "check", str(path))
    assert done.returncode == 0, done.stderr[-2000:] + done.stdout[-2000:]


def test_long_sequence_parses_runs_and_prints():
    text = " ; ".join(["[1] := 1"] * 800)
    c = parse(text, "program")
    assert pretty_cmd(c) == text
    assert parse(pretty_cmd(c), "program") is c
    out = exec_cmd(c, EMPTY_ENV, parse_heap_text("1 = 0"), 10_000)
    assert isinstance(out, Done) and format_heap(out.heap) == "1 = 1"


# ---------------------------------------------------------------------------
# round trips


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_roundtrip_assertion(seed):
    a = rand_asn(random.Random(seed), Names())
    assert parse(pretty(a), "assertion") == a


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_roundtrip_command(seed):
    c = rand_cmd(random.Random(seed), Names())
    assert parse(pretty_cmd(c), "program") == c


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_roundtrip_expr(seed):
    e = rand_expr(random.Random(seed))
    assert parse(pretty(e), "expr") == e


def test_roundtrip_corpus():
    for kind, term in term_corpus(seed=7, n=100):
        assert parse(pretty(term), kind) == term
