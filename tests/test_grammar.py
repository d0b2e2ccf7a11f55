"""Parser and pretty-printer tests, including the round-trip property."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Names, rand_asn, rand_cmd, rand_expr, term_corpus
from sepstore.grammar import ParseError, parse, pretty, pretty_cmd
from sepstore.interp import (EMPTY_ENV, Done, exec_cmd, format_heap,
                             parse_heap_text)
from sepstore.syntax import (
    And, ArityError, Assign, BinOp, ContractivenessError, Diamond, Emp, Eq,
    EvalAt, Exists, Implies, IntLit, Mu, Or, PointsTo, Quote, Seq, Skip, Star,
    Tensor, Triple, TrueA, Var,
)
from sepstore.syntax import Free as FreeCmd


# ---------------------------------------------------------------------------
# concrete-syntax examples


def test_parse_precedence():
    a = parse("true => emp \\/ emp /\\ true * emp", "assertion")
    assert type(a) is Implies
    assert type(a.right) is Or
    assert type(a.right.right) is And
    assert type(a.right.right.right) is Star


def test_star_binds_tighter_than_and():
    a = parse("1 |-> 0 * 2 |-> 1 /\\ true", "assertion")
    assert a == And(Star(PointsTo(IntLit(1), IntLit(0)),
                         PointsTo(IntLit(2), IntLit(1))), TrueA())


def test_multiplication_needs_parens():
    a = parse("(x * y) = z", "assertion")
    assert a == Eq(BinOp("*", Var("x"), Var("y")), Var("z"))
    b = parse("x + 2 <= y - 1", "assertion")
    assert b.left == BinOp("+", Var("x"), IntLit(2))
    assert b.right == BinOp("-", Var("y"), IntLit(1))


def test_tensor_and_diamond():
    a = parse("(emp (*) true) * <> emp", "assertion")
    assert a == Star(Tensor(Emp(), TrueA()), Diamond(Emp()))


def test_triple_and_quote():
    a = parse("{emp} 'skip ; [1] := 2' {1 |-> 2}", "assertion")
    assert a == Triple(Emp(), Quote(Seq(Skip(), Assign(IntLit(1),
                                                       IntLit(2)))),
                       PointsTo(IntLit(1), IntLit(2)))


def test_points_to_wildcard_sugar():
    a = parse("1 |-> _", "assertion")
    assert type(a) is Exists
    assert a.body == PointsTo(IntLit(1), Var(a.var))


def test_points_to_triple_sugar():
    a = parse("3 |-> {emp}_{true}", "assertion")
    assert type(a) is Exists
    assert type(a.body) is And
    assert a.body.left == PointsTo(IntLit(3), Var(a.var))
    assert a.body.right == Triple(Emp(), Var(a.var), TrueA())


def test_parse_mu_contractive_only():
    m = parse("mu X. {X} 'skip' {emp}", "assertion")
    assert type(m) is Mu and m.relvar == "X"
    with pytest.raises(Exception):
        parse("mu X. X * emp", "assertion")


def test_parse_commands():
    c = parse("let x = new 1, 'skip' in (eval [x] ; free(x))", "program")
    assert c.var == "x" and len(c.inits) == 2
    assert c.body == Seq(EvalAt(Var("x")), FreeCmd(Var("x")))


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


def test_long_sequence_parses_runs_and_prints():
    # strings, not trees, are compared: the generated == of two equal
    # 800-statement chains still overflows the stack
    text = " ; ".join(["[1] := 1"] * 800)
    c = parse(text, "program")
    s = pretty_cmd(c)
    assert s.startswith("(" * 798) and s.replace("(", "").replace(")", "") \
        == text
    assert pretty_cmd(parse(s, "program")) == s
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
