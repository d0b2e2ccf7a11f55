"""Abstract syntax for the heap language and its assertion logic.

Expressions, commands, assertions and judgements are immutable dataclasses.
Operations on them (free variables, substitution, contractiveness, purity
classification, equality modulo associativity/commutativity) live here;
the concrete grammar lives in grammar.py.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union


# ---------------------------------------------------------------------------
# expressions


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - *
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Quote:
    body: "Command"


@dataclass(frozen=True)
class ValueLit:
    """A runtime value embedded as an expression.

    Not part of the concrete grammar.  The semantic tester uses it to close
    assertions over sampled values (including tagged code) when forming
    world invariants and instantiating quantifiers.
    """

    value: object


Expr = Union[IntLit, Var, BinOp, Quote, ValueLit]


# ---------------------------------------------------------------------------
# commands


@dataclass(frozen=True)
class Assign:
    target: Expr
    source: Expr


@dataclass(frozen=True)
class LetDeref:
    var: str
    addr: Expr
    body: "Command"


@dataclass(frozen=True)
class EvalAt:
    addr: Expr


@dataclass(frozen=True)
class LetNew:
    var: str
    inits: tuple
    body: "Command"


@dataclass(frozen=True)
class Free:
    addr: Expr


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Seq:
    first: "Command"
    second: "Command"


@dataclass(frozen=True)
class If:
    lhs: Expr
    rhs: Expr
    then: "Command"
    els: "Command"


Command = Union[Assign, LetDeref, EvalAt, LetNew, Free, Skip, Seq, If]


# ---------------------------------------------------------------------------
# assertions


@dataclass(frozen=True)
class FalseA:
    pass


@dataclass(frozen=True)
class TrueA:
    pass


@dataclass(frozen=True)
class Or:
    left: "Assertion"
    right: "Assertion"


@dataclass(frozen=True)
class And:
    left: "Assertion"
    right: "Assertion"


@dataclass(frozen=True)
class Implies:
    left: "Assertion"
    right: "Assertion"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Assertion"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Assertion"


@dataclass(frozen=True)
class Eq:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Leq:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class PointsTo:
    addr: Expr
    value: Expr


@dataclass(frozen=True)
class Emp:
    pass


@dataclass(frozen=True)
class Star:
    left: "Assertion"
    right: "Assertion"


@dataclass(frozen=True)
class Triple:
    pre: "Assertion"
    code: Expr
    post: "Assertion"


@dataclass(frozen=True)
class Tensor:
    left: "Assertion"
    right: "Assertion"


@dataclass(frozen=True)
class RelVar:
    name: str
    args: tuple = ()


@dataclass(frozen=True)
class Mu:
    relvar: str
    params: tuple
    body: "Assertion"
    args: tuple = ()


@dataclass(frozen=True)
class Diamond:
    body: "Assertion"


Assertion = Union[
    FalseA, TrueA, Or, And, Implies, Forall, Exists, Eq, Leq,
    PointsTo, Emp, Star, Triple, Tensor, RelVar, Mu, Diamond,
]

Ast = Union[Expr, Command, Assertion]


@dataclass(frozen=True)
class Judgement:
    """A sequent: relation variables, variables, hypotheses, goal."""

    relvars: tuple = ()  # of (name, arity)
    vars: tuple = ()     # of identifier
    hyps: tuple = ()     # of Assertion
    goal: Assertion = TrueA()


class ArityError(Exception):
    pass


# ---------------------------------------------------------------------------
# free variables


def free_vars(ast: Ast):
    """Free program/logic variables and free relation variables of an AST."""
    fv: set = set()
    frv: set = set()
    _collect_free(ast, (), (), fv, frv)
    return frozenset(fv), frozenset(frv)


def _collect_free(ast, bound, rbound, fv, frv):
    t = type(ast)
    if t is IntLit or t is Skip or t is FalseA or t is TrueA or t is Emp \
            or t is ValueLit:
        return
    if t is Var:
        if ast.name not in bound:
            fv.add(ast.name)
        return
    if t is BinOp:
        _collect_free(ast.left, bound, rbound, fv, frv)
        _collect_free(ast.right, bound, rbound, fv, frv)
        return
    if t is Quote:
        _collect_free(ast.body, bound, rbound, fv, frv)
        return
    if t is Assign:
        _collect_free(ast.target, bound, rbound, fv, frv)
        _collect_free(ast.source, bound, rbound, fv, frv)
        return
    if t is LetDeref:
        _collect_free(ast.addr, bound, rbound, fv, frv)
        _collect_free(ast.body, bound + (ast.var,), rbound, fv, frv)
        return
    if t is EvalAt or t is Free:
        _collect_free(ast.addr, bound, rbound, fv, frv)
        return
    if t is LetNew:
        for e in ast.inits:
            _collect_free(e, bound, rbound, fv, frv)
        _collect_free(ast.body, bound + (ast.var,), rbound, fv, frv)
        return
    if t is Seq:
        _collect_free(ast.first, bound, rbound, fv, frv)
        _collect_free(ast.second, bound, rbound, fv, frv)
        return
    if t is If:
        _collect_free(ast.lhs, bound, rbound, fv, frv)
        _collect_free(ast.rhs, bound, rbound, fv, frv)
        _collect_free(ast.then, bound, rbound, fv, frv)
        _collect_free(ast.els, bound, rbound, fv, frv)
        return
    if t is Or or t is And or t is Implies or t is Star or t is Tensor:
        _collect_free(ast.left, bound, rbound, fv, frv)
        _collect_free(ast.right, bound, rbound, fv, frv)
        return
    if t is Forall or t is Exists:
        _collect_free(ast.body, bound + (ast.var,), rbound, fv, frv)
        return
    if t is Eq or t is Leq:
        _collect_free(ast.left, bound, rbound, fv, frv)
        _collect_free(ast.right, bound, rbound, fv, frv)
        return
    if t is PointsTo:
        _collect_free(ast.addr, bound, rbound, fv, frv)
        _collect_free(ast.value, bound, rbound, fv, frv)
        return
    if t is Triple:
        _collect_free(ast.pre, bound, rbound, fv, frv)
        _collect_free(ast.code, bound, rbound, fv, frv)
        _collect_free(ast.post, bound, rbound, fv, frv)
        return
    if t is RelVar:
        if ast.name not in rbound:
            frv.add(ast.name)
        for e in ast.args:
            _collect_free(e, bound, rbound, fv, frv)
        return
    if t is Mu:
        _collect_free(ast.body, bound + tuple(ast.params),
                      rbound + (ast.relvar,), fv, frv)
        for e in ast.args:
            _collect_free(e, bound, rbound, fv, frv)
        return
    if t is Diamond:
        _collect_free(ast.body, bound, rbound, fv, frv)
        return
    raise TypeError(f"unexpected AST node {ast!r}")


# ---------------------------------------------------------------------------
# fresh names and substitution

_NUM_SUFFIX = re.compile(r"_(\d+)$")


def fresh_name(base: str, avoid: Iterable[str]) -> str:
    avoid = set(avoid)
    stem = _NUM_SUFFIX.sub("", base) or "x"
    if base not in avoid:
        return base
    i = 1
    while f"{stem}_{i}" in avoid:
        i += 1
    return f"{stem}_{i}"


class Subst:
    """Simultaneous substitution of variables and relation variables.

    var_map: identifier -> Expr
    rel_map: relvar -> (params tuple, Assertion body)
    """

    def __init__(self, var_map: Optional[Mapping] = None,
                 rel_map: Optional[Mapping] = None):
        self.var_map = dict(var_map or {})
        self.rel_map = dict(rel_map or {})

    def is_empty(self):
        return not self.var_map and not self.rel_map

    def without(self, names=(), relnames=()):
        sub = Subst(self.var_map, self.rel_map)
        for n in names:
            sub.var_map.pop(n, None)
        for n in relnames:
            sub.rel_map.pop(n, None)
        return sub

    def value_free_vars(self):
        fv: set = set()
        for e in self.var_map.values():
            fv |= free_vars(e)[0]
        for params, body in self.rel_map.values():
            fv |= free_vars(body)[0] - set(params)
        return fv


def substitute(ast: Ast, var_map=None, rel_map=None) -> Ast:
    return _subst(ast, Subst(var_map, rel_map))


def _rename_binder(var, body_parts, sub):
    """Pick a replacement binder avoiding capture; returns (var', sub')."""
    sub = sub.without(names=(var,))
    if sub.is_empty():
        return var, sub
    clash = sub.value_free_vars()
    if var not in clash:
        return var, sub
    used = set(clash)
    used |= set(sub.var_map) | set(sub.rel_map)
    for part in body_parts:
        used |= free_vars(part)[0]
    new = fresh_name(var, used | {var})
    sub2 = Subst(sub.var_map, sub.rel_map)
    sub2.var_map[var] = Var(new)
    return new, sub2


def _subst(ast, sub: Subst):
    if sub.is_empty():
        return ast
    t = type(ast)
    if t is IntLit or t is Skip or t is FalseA or t is TrueA or t is Emp \
            or t is ValueLit:
        return ast
    if t is Var:
        return sub.var_map.get(ast.name, ast)
    if t is BinOp:
        return BinOp(ast.op, _subst(ast.left, sub), _subst(ast.right, sub))
    if t is Quote:
        return Quote(_subst(ast.body, sub))
    if t is Assign:
        return Assign(_subst(ast.target, sub), _subst(ast.source, sub))
    if t is LetDeref:
        addr = _subst(ast.addr, sub)
        var, inner = _rename_binder(ast.var, (ast.body,), sub)
        return LetDeref(var, addr, _subst(ast.body, inner))
    if t is EvalAt:
        return EvalAt(_subst(ast.addr, sub))
    if t is LetNew:
        inits = tuple(_subst(e, sub) for e in ast.inits)
        var, inner = _rename_binder(ast.var, (ast.body,), sub)
        return LetNew(var, inits, _subst(ast.body, inner))
    if t is Free:
        return Free(_subst(ast.addr, sub))
    if t is Seq:
        return Seq(_subst(ast.first, sub), _subst(ast.second, sub))
    if t is If:
        return If(_subst(ast.lhs, sub), _subst(ast.rhs, sub),
                  _subst(ast.then, sub), _subst(ast.els, sub))
    if t is Or or t is And or t is Implies or t is Star or t is Tensor:
        return t(_subst(ast.left, sub), _subst(ast.right, sub))
    if t is Forall or t is Exists:
        var, inner = _rename_binder(ast.var, (ast.body,), sub)
        return t(var, _subst(ast.body, inner))
    if t is Eq or t is Leq:
        return t(_subst(ast.left, sub), _subst(ast.right, sub))
    if t is PointsTo:
        return PointsTo(_subst(ast.addr, sub), _subst(ast.value, sub))
    if t is Triple:
        return Triple(_subst(ast.pre, sub), _subst(ast.code, sub),
                      _subst(ast.post, sub))
    if t is RelVar:
        args = tuple(_subst(e, sub) for e in ast.args)
        if ast.name in sub.rel_map:
            params, body = sub.rel_map[ast.name]
            if len(params) != len(args):
                raise ArityError(
                    f"relation variable {ast.name} applied to {len(args)} "
                    f"arguments, expected {len(params)}")
            return _subst(body, Subst(dict(zip(params, args)), {}))
        return RelVar(ast.name, args)
    if t is Mu:
        args = tuple(_subst(e, sub) for e in ast.args)
        inner = sub.without(relnames=(ast.relvar,))
        # rename params (and the bound relvar stays fixed: relvar names do
        # not occur free in substitution values' expressions)
        params = []
        for p in ast.params:
            inner = inner.without(names=(p,))
        clash = inner.value_free_vars()
        body_sub = Subst(inner.var_map, inner.rel_map)
        used = set(clash) | set(body_sub.var_map) | free_vars(ast.body)[0]
        for p in ast.params:
            if p in clash:
                q = fresh_name(p, used | set(params) | {p})
                body_sub.var_map[p] = Var(q)
                used.add(q)
                params.append(q)
            else:
                params.append(p)
        return Mu(ast.relvar, tuple(params), _subst(ast.body, body_sub), args)
    if t is Diamond:
        return Diamond(_subst(ast.body, sub))
    raise TypeError(f"unexpected AST node {ast!r}")


# ---------------------------------------------------------------------------
# contractiveness


def contractive_in(P: Assertion, X: str) -> bool:
    """Whether every occurrence of X in P sits under a triple or in the
    right arm of an invariant extension."""
    t = type(P)
    if t is RelVar:
        return P.name != X
    if t in (FalseA, TrueA, Emp, Eq, Leq, PointsTo):
        return True
    if t in (Or, And, Implies, Star):
        return contractive_in(P.left, X) and contractive_in(P.right, X)
    if t in (Forall, Exists):
        return contractive_in(P.body, X)
    if t is Diamond:
        return contractive_in(P.body, X)
    if t is Triple:
        return True
    if t is Tensor:
        return contractive_in(P.left, X)
    if t is Mu:
        if P.relvar == X:
            return True
        return contractive_in(P.body, X)
    raise TypeError(f"not an assertion: {P!r}")


class ContractivenessError(Exception):
    def __init__(self, relvar, subterm):
        self.relvar = relvar
        self.subterm = subterm
        super().__init__(
            f"recursive assertion body is not formally contractive in "
            f"{relvar}: offending occurrence in {subterm!r}")


# ---------------------------------------------------------------------------
# classification

PURE = "pure"
PSEUDO_PURE = "pseudo_pure"
GENERAL = "general"


def _is_pure(P) -> bool:
    t = type(P)
    if t in (TrueA, FalseA, Eq, Leq):
        return True
    if t in (And, Or, Implies):
        return _is_pure(P.left) and _is_pure(P.right)
    if t in (Forall, Exists):
        return _is_pure(P.body)
    return False


def _is_pseudo_pure(P, bound=frozenset()) -> bool:
    t = type(P)
    if _is_pure(P):
        return True
    if t is Triple:
        return True
    if t is Tensor:
        return _is_pseudo_pure(P.left, bound)
    if t in (And, Or):
        return _is_pseudo_pure(P.left, bound) \
            and _is_pseudo_pure(P.right, bound)
    if t is Mu:
        return _is_pseudo_pure(P.body, bound | {P.relvar})
    if t is RelVar:
        # only a recursion variable whose binder we have seen: its
        # unfoldings stay within this grammar
        return P.name in bound
    return False


def classify(P: Assertion) -> str:
    """Syntactic purity class: pure, pseudo_pure, or general."""
    if _is_pure(P):
        return PURE
    if _is_pseudo_pure(P):
        return PSEUDO_PURE
    return GENERAL


# ---------------------------------------------------------------------------
# equality modulo AC of * /\ \/, the unit law P * emp <=> P, and alpha


_AC_HEADS = {Star: "*", And: "/\\", Or: "\\/"}


def _canon(ast, venv, renv) -> str:
    """Canonical string; bound names become de Bruijn indices so that
    alpha-variants agree and AC-sorting is stable."""
    t = type(ast)
    if t is IntLit:
        return f"i{ast.value}"
    if t is Var:
        for i in range(len(venv) - 1, -1, -1):
            if venv[i] == ast.name:
                return f"#{len(venv) - 1 - i}"
        return f"v:{ast.name}"
    if t is BinOp:
        return f"({ast.op} {_canon(ast.left, venv, renv)} " \
               f"{_canon(ast.right, venv, renv)})"
    if t is Quote:
        return f"(quote {_canon(ast.body, venv, renv)})"
    if t is ValueLit:
        return f"(val {ast.value!r})"
    if t is Assign:
        return f"(:= {_canon(ast.target, venv, renv)} " \
               f"{_canon(ast.source, venv, renv)})"
    if t is LetDeref:
        return f"(letderef {_canon(ast.addr, venv, renv)} " \
               f"{_canon(ast.body, venv + (ast.var,), renv)})"
    if t is EvalAt:
        return f"(eval {_canon(ast.addr, venv, renv)})"
    if t is LetNew:
        inits = " ".join(_canon(e, venv, renv) for e in ast.inits)
        return f"(new ({inits}) {_canon(ast.body, venv + (ast.var,), renv)})"
    if t is Free:
        return f"(free {_canon(ast.addr, venv, renv)})"
    if t is Skip:
        return "skip"
    if t is Seq:
        return f"(seq {_canon(ast.first, venv, renv)} " \
               f"{_canon(ast.second, venv, renv)})"
    if t is If:
        return f"(if {_canon(ast.lhs, venv, renv)} " \
               f"{_canon(ast.rhs, venv, renv)} " \
               f"{_canon(ast.then, venv, renv)} {_canon(ast.els, venv, renv)})"
    if t is FalseA:
        return "false"
    if t is TrueA:
        return "true"
    if t is Emp:
        return "emp"
    if t in _AC_HEADS:
        parts = []
        _flatten_ac(ast, t, venv, renv, parts)
        if t is Star:
            parts = [p for p in parts if p != "emp"]
            if not parts:
                return "emp"
        if len(parts) == 1:
            return parts[0]
        return f"({_AC_HEADS[t]} {' '.join(sorted(parts))})"
    if t is Implies:
        return f"(=> {_canon(ast.left, venv, renv)} " \
               f"{_canon(ast.right, venv, renv)})"
    if t is Forall or t is Exists:
        head = "forall" if t is Forall else "exists"
        return f"({head} {_canon(ast.body, venv + (ast.var,), renv)})"
    if t is Eq or t is Leq:
        head = "=" if t is Eq else "<="
        return f"({head} {_canon(ast.left, venv, renv)} " \
               f"{_canon(ast.right, venv, renv)})"
    if t is PointsTo:
        return f"(|-> {_canon(ast.addr, venv, renv)} " \
               f"{_canon(ast.value, venv, renv)})"
    if t is Triple:
        return f"(triple {_canon(ast.pre, venv, renv)} " \
               f"{_canon(ast.code, venv, renv)} " \
               f"{_canon(ast.post, venv, renv)})"
    if t is Tensor:
        return f"(tensor {_canon(ast.left, venv, renv)} " \
               f"{_canon(ast.right, venv, renv)})"
    if t is RelVar:
        for i in range(len(renv) - 1, -1, -1):
            if renv[i] == ast.name:
                name = f"%{len(renv) - 1 - i}"
                break
        else:
            name = f"X:{ast.name}"
        args = " ".join(_canon(e, venv, renv) for e in ast.args)
        return f"(rel {name} {args})"
    if t is Mu:
        args = " ".join(_canon(e, venv, renv) for e in ast.args)
        body = _canon(ast.body, venv + tuple(ast.params),
                      renv + (ast.relvar,))
        return f"(mu {len(ast.params)} {body} ({args}))"
    if t is Diamond:
        return f"(dia {_canon(ast.body, venv, renv)})"
    raise TypeError(f"unexpected AST node {ast!r}")


def _flatten_ac(ast, head, venv, renv, out):
    if type(ast) is head:
        _flatten_ac(ast.left, head, venv, renv, out)
        _flatten_ac(ast.right, head, venv, renv, out)
    else:
        out.append(_canon(ast, venv, renv))


def canon_key(ast: Ast) -> str:
    return _canon(ast, (), ())


def equal_mod_ac(P: Ast, Q: Ast) -> bool:
    """Equality up to alpha, AC of * /\\ \\/, and the unit law P*emp <=> P."""
    return P == Q or canon_key(P) == canon_key(Q)


# convenient n-ary builders


def star(*parts: Assertion) -> Assertion:
    parts = tuple(parts)
    if not parts:
        return Emp()
    acc = parts[0]
    for p in parts[1:]:
        acc = Star(acc, p)
    return acc


def conj(*parts: Assertion) -> Assertion:
    parts = tuple(parts)
    if not parts:
        return TrueA()
    acc = parts[0]
    for p in parts[1:]:
        acc = And(acc, p)
    return acc


def star_parts(P: Assertion) -> list:
    """Flatten nested Star into a list of non-Star components."""
    out: list = []

    def go(a):
        if type(a) is Star:
            go(a.left)
            go(a.right)
        else:
            out.append(a)

    go(P)
    return out
