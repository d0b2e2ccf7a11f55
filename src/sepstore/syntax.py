"""Abstract syntax for the heap language and its assertion logic.

Expressions, commands, assertions and judgements are immutable dataclasses
whose sub-terms and binder scopes SCHEMA lists for every traversal.
Operations on them (free variables, substitution, contractiveness, purity
classification, equality modulo associativity/commutativity) live here;
the concrete grammar lives in grammar.py.

Every node is hash-consed: building a node with the class and fields of
an existing one returns that node, so there is one object per term and
`==` is `is`.  The constructors, map_children, dataclasses.replace, copy,
deepcopy and pickle all go through the one intern table, _NODES.  A
node's hash is the hash of its class name and field tuple, taken once,
when the node is made; it never depends on an address, since the order
of sets and dicts of nodes decides fresh names and witness order.

Every AST class derives from Node, whose slots cache facts about the node:
its hash, its closed canonical key, its free (relation) variables and its
unit-stripped form (logic._strip_units).  Invariant: a cached fact depends
only on the node's own fields, never on where the node occurs, so a node
shared between terms, or under different binders, may carry it.  Each fact
but the hash is computed once, on first use, and written with
object.__setattr__; the slots take no part in repr.  Since substitution
hands back every sub-term it does not reach, the facts of those sub-terms
survive it.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import MISSING, dataclass, replace
from typing import Iterable, Union


class Node:
    """Base of the AST classes; the slots hold the cached facts (module
    docstring).  _hash is set when the node is made, the others stay unset
    until first computed."""

    __slots__ = ("_hash", "_key", "_fv", "_stripped")

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


_NODES: dict = {}   # (class, *fields) -> the node


def _make(key):
    cls, fields = key[0], key[1:]
    node = object.__new__(cls)
    for f, x in zip(cls.__match_args__, fields):
        object.__setattr__(node, f, x)
    # the class by name: a class's own hash is its address, which varies
    # from run to run and would reorder sets and dicts of nodes
    object.__setattr__(node, "_hash", hash((cls.__name__,) + fields))
    _NODES[key] = node
    return node


_NEW = """\
def __new__(cls, {params}):
    key = (cls, {fields})
    node = _NODES.get(key)
    return _make(key) if node is None else node
"""


def _node(cls):
    """cls as a frozen dataclass whose constructor returns the interned
    node of its fields (module docstring)."""
    cls = dataclass(frozen=True, eq=False, init=False, slots=True)(cls)
    fields = cls.__dataclass_fields__.values()
    defaults = {f"_{f.name}": f.default for f in fields
                if f.default is not MISSING}
    params = ", ".join(f"{f.name}=_{f.name}" if f"_{f.name}" in defaults
                       else f.name for f in fields)
    scope = {"_NODES": _NODES, "_make": _make, **defaults}
    exec(_NEW.format(params=params,
                     fields="".join(f"{f.name}, " for f in fields)), scope)
    cls.__new__ = scope["__new__"]
    return cls


# ---------------------------------------------------------------------------
# expressions


@_node
class IntLit(Node):
    value: int


@_node
class Var(Node):
    name: str


@_node
class BinOp(Node):
    op: str  # one of + - *
    left: "Expr"
    right: "Expr"


@_node
class Quote(Node):
    body: "Command"


@_node
class ValueLit(Node):
    """A runtime value embedded as an expression.

    Not part of the concrete grammar.  The semantic tester uses it to close
    assertions over sampled values (including tagged code) when forming
    world invariants and instantiating quantifiers.
    """

    value: object


Expr = Union[IntLit, Var, BinOp, Quote, ValueLit]


# ---------------------------------------------------------------------------
# commands


@_node
class Assign(Node):
    target: Expr
    source: Expr


@_node
class LetDeref(Node):
    var: str
    addr: Expr
    body: "Command"


@_node
class EvalAt(Node):
    addr: Expr


@_node
class LetNew(Node):
    var: str
    inits: tuple
    body: "Command"


@_node
class Free(Node):
    addr: Expr


@_node
class Skip(Node):
    pass


@_node
class Seq(Node):
    first: "Command"
    second: "Command"


@_node
class If(Node):
    lhs: Expr
    rhs: Expr
    then: "Command"
    els: "Command"


Command = Union[Assign, LetDeref, EvalAt, LetNew, Free, Skip, Seq, If]


# ---------------------------------------------------------------------------
# assertions


@_node
class FalseA(Node):
    pass


@_node
class TrueA(Node):
    pass


@_node
class Or(Node):
    left: "Assertion"
    right: "Assertion"


@_node
class And(Node):
    left: "Assertion"
    right: "Assertion"


@_node
class Implies(Node):
    left: "Assertion"
    right: "Assertion"


@_node
class Forall(Node):
    var: str
    body: "Assertion"


@_node
class Exists(Node):
    var: str
    body: "Assertion"


@_node
class Eq(Node):
    left: Expr
    right: Expr


@_node
class Leq(Node):
    left: Expr
    right: Expr


@_node
class PointsTo(Node):
    addr: Expr
    value: Expr


@_node
class Emp(Node):
    pass


@_node
class Star(Node):
    left: "Assertion"
    right: "Assertion"


@_node
class Triple(Node):
    pre: "Assertion"
    code: Expr
    post: "Assertion"


@_node
class Tensor(Node):
    left: "Assertion"
    right: "Assertion"


@_node
class RelVar(Node):
    name: str
    args: tuple = ()


@_node
class Mu(Node):
    relvar: str
    params: tuple
    body: "Assertion"
    args: tuple = ()


@_node
class Diamond(Node):
    body: "Assertion"


Assertion = Union[
    FalseA, TrueA, Or, And, Implies, Forall, Exists, Eq, Leq,
    PointsTo, Emp, Star, Triple, Tensor, RelVar, Mu, Diamond,
]

Ast = Union[Expr, Command, Assertion]


@dataclass(frozen=True)
class Judgement:
    """A sequent: hypotheses and goal."""

    hyps: tuple = ()     # of Assertion
    goal: Assertion = TrueA()


class ArityError(Exception):
    def __init__(self, relvar, got, expected):
        super().__init__(f"relation variable {relvar} applied to {got} "
                         f"arguments, expected {expected}")


# ---------------------------------------------------------------------------
# node schema: the one description of each class's sub-terms

# The fields of each AST class that hold sub-terms, in declaration order.
# `*f` holds a tuple of sub-terms; `^f` lies in the scope of the node's
# binder, which is `var`, or for Mu the parameters `params` together with
# the relation variable `relvar`.  Every structural traversal reads this
# table, canonical keys too (with the class's head from _HEAD); what a
# class means (printing, evaluation, membership) stays in per-class code.
SCHEMA = {
    IntLit: (), Var: (), ValueLit: (),
    BinOp: ("left", "right"), Quote: ("body",),
    Assign: ("target", "source"), LetDeref: ("addr", "^body"),
    EvalAt: ("addr",), LetNew: ("*inits", "^body"), Free: ("addr",),
    Skip: (), Seq: ("first", "second"), If: ("lhs", "rhs", "then", "els"),
    FalseA: (), TrueA: (), Emp: (),
    Or: ("left", "right"), And: ("left", "right"),
    Implies: ("left", "right"), Star: ("left", "right"),
    Tensor: ("left", "right"), Forall: ("^body",), Exists: ("^body",),
    Eq: ("left", "right"), Leq: ("left", "right"),
    PointsTo: ("addr", "value"), Triple: ("pre", "code", "post"),
    RelVar: ("*args",), Mu: ("^body", "*args"), Diamond: ("body",),
}

# class -> ((field, holds a tuple, under the binder), ...)
_FIELDS = {cls: tuple((f.lstrip("*^"), "*" in f, "^" in f) for f in spec)
           for cls, spec in SCHEMA.items()}
_BINDERS = frozenset(cls for cls, spec in SCHEMA.items()
                     if any(f.startswith("^") for f in spec))


def binders(node):
    """(variables, relation variables) that node binds in its `^` fields."""
    t = type(node)
    if t is Mu:
        return tuple(node.params), (node.relvar,)
    if t in _BINDERS:
        return (node.var,), ()
    return (), ()


def _rebind(node, names, rnames):
    """node with the names it binds renamed to names and rnames, in the
    order binders gives them; the sub-terms are left as they are."""
    if type(node) is Mu:
        return replace(node, params=names, relvar=rnames[0])
    return replace(node, var=names[0])


def children(node):
    """The sub-terms of node, in declaration order."""
    for name, many, _ in _FIELDS[type(node)]:
        value = getattr(node, name)
        yield from value if many else (value,)


def map_children(node, f, *args, scoped=None):
    """node with each sub-term c replaced by f(c, *args), or by
    f(c, *scoped) under the node's binder when `scoped` is given; node
    itself when no sub-term changed."""
    t = type(node)
    changed = None
    for name, many, under in _FIELDS[t]:
        a = scoped if under and scoped is not None else args
        old = getattr(node, name)
        if many:
            new = tuple([f(c, *a) for c in old])
            if all(map(operator.is_, new, old)):
                continue
        else:
            new = f(old, *a)
            if new is old:
                continue
        if changed is None:
            changed = {}
        changed[name] = new
    if changed is None:
        return node
    return t(*[changed[n] if n in changed else getattr(node, n)
               for n in t.__match_args__])


# ---------------------------------------------------------------------------
# free variables


def free_vars(ast: Ast):
    """Free program/logic variables and free relation variables of an AST."""
    return _free(ast)


def _free(ast):
    try:
        return ast._fv
    except AttributeError:
        pass
    pair = _free_walk(ast)
    object.__setattr__(ast, "_fv", pair)
    return pair


# Nodes share their pairs: the empty pair, one pair per name, and a
# child's pair whenever the union adds nothing to it.  A fresh pair of
# frozensets per node would cost several hundred bytes each.
_NO_FREE = (frozenset(), frozenset())


@functools.cache
def _single(name, rel):
    one = frozenset((name,))
    return (frozenset(), one) if rel else (one, frozenset())


def _pair(fv, frv):
    if not frv:
        if not fv:
            return _NO_FREE
        if len(fv) == 1:
            return _single(next(iter(fv)), False)
    elif not fv and len(frv) == 1:
        return _single(next(iter(frv)), True)
    return fv, frv


def _free_walk(ast):
    """The free pair of ast from the cached pairs of its children."""
    t = type(ast)
    if t is Var:
        return _single(ast.name, False)
    out = _single(ast.name, True) if t is RelVar else _NO_FREE
    for name, many, under in _FIELDS[t]:
        value = getattr(ast, name)
        for c in value if many else (value,):
            fv, frv = pair = _free(c)
            if under:
                names, rnames = binders(ast)
                if not (fv.isdisjoint(names) and frv.isdisjoint(rnames)):
                    fv, frv = fv.difference(names), frv.difference(rnames)
                    pair = _pair(fv, frv)
            if fv <= out[0] and frv <= out[1]:
                continue
            if out[0] <= fv and out[1] <= frv:
                out = pair
            else:
                out = _pair(out[0] | fv, out[1] | frv)
    return out


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


def substitute(ast: Ast, var_map=None, rel_map=None) -> Ast:
    """Simultaneous capture-avoiding substitution.

    var_map: identifier -> Expr
    rel_map: relvar -> (params tuple, Assertion body)
    """
    return _subst(ast, var_map or {}, rel_map or {})


def _without(m, names):
    if any(n in m for n in names):
        return {k: v for k, v in m.items() if k not in names}
    return m


def _value_free_vars(var_map, rel_map):
    fv: set = set()
    for e in var_map.values():
        fv |= _free(e)[0]
    for params, body in rel_map.values():
        fv |= _free(body)[0] - set(params)
    return fv


def _subst(ast, var_map, rel_map):
    # the maps reach no free name of ast: it comes back as it is, with the
    # facts cached on it and on its sub-terms
    fv, frv = _free(ast)
    if fv.isdisjoint(var_map) and frv.isdisjoint(rel_map):
        return ast
    t = type(ast)
    if t is Var:
        return var_map[ast.name]
    if t is RelVar and ast.name in rel_map:
        args = tuple(_subst(e, var_map, rel_map) for e in ast.args)
        params, body = rel_map[ast.name]
        if len(params) != len(args):
            raise ArityError(ast.name, len(args), len(params))
        return _subst(body, dict(zip(params, args)), {})
    if t not in _BINDERS:
        return map_children(ast, _subst, var_map, rel_map)
    # the bound names are not replaced; a bound variable or relation
    # variable that a substituted value mentions is renamed apart, through
    # an inner map entry from the old name to the new one
    names, rnames = binders(ast)
    inner, inner_rel = _without(var_map, names), _without(rel_map, rnames)
    clash = _value_free_vars(inner, inner_rel)
    renamed = names
    if not clash.isdisjoint(names):
        used = clash.union(names, inner, *(_free(getattr(ast, f))[0]
                                    for f, _, under in _FIELDS[t] if under))
        inner, renamed = dict(inner), []
        for b in names:
            if b in clash:
                q = fresh_name(b, used | set(renamed) | {b})
                inner[b] = Var(q)
                used.add(q)
                b = q
            renamed.append(b)
        renamed = tuple(renamed)
    rrenamed = rnames
    if t is Mu:
        rclash = set().union(*(_free(v)[1] for _, v in inner_rel.values()))
        if ast.relvar in rclash:
            q = fresh_name(ast.relvar, rclash | _free(ast.body)[1])
            inner_rel = {**inner_rel, ast.relvar: (
                ast.params, RelVar(q, tuple(map(Var, ast.params))))}
            rrenamed = (q,)
    node = map_children(ast, _subst, var_map, rel_map,
                        scoped=(inner, inner_rel))
    if (renamed, rrenamed) == (names, rnames):
        return node
    return _rebind(node, renamed, rrenamed)


def unfold(m: Mu, R: Assertion) -> Assertion:
    """The body of m with its relation variable replaced by R, a relation
    over m's parameters, and its parameters replaced by its arguments."""
    return substitute(m.body, dict(zip(m.params, m.args)),
                      {m.relvar: (m.params, R)})


# ---------------------------------------------------------------------------
# contractiveness


def contractive_in(P: Assertion, X: str) -> bool:
    """Whether every occurrence of X in P sits under a triple or in the
    right arm of an invariant extension."""
    return exposed_occurrence(P, X) is None


def exposed_occurrence(P: Assertion, X: str):
    """The first occurrence of X in P that is neither under a triple nor
    in the right arm of an invariant extension, or None."""
    if X not in _free(P)[1]:
        return None
    t = type(P)
    if t is RelVar:
        return P
    if t is Triple:
        return None
    if t is Tensor:
        return exposed_occurrence(P.left, X)
    for c in children(P):
        occurrence = exposed_occurrence(c, X)
        if occurrence is not None:
            return occurrence
    return None


class ContractivenessError(Exception):
    """A mu body that is not contractive in its relation variable; the
    occurrence and the body come in concrete syntax."""

    def __init__(self, relvar, occurrence: str, body: str):
        self.relvar = relvar
        super().__init__(
            f"recursive assertion body is not formally contractive in "
            f"{relvar}: offending occurrence {occurrence} in {body}")


# ---------------------------------------------------------------------------
# classification

PURE = "pure"
PSEUDO_PURE = "pseudo_pure"
GENERAL = "general"


# the pure atoms, and the connectives that keep their operands' purity
_PURE_ATOMS = (Eq, Leq)
_PURE_CONNECTIVES = (TrueA, FalseA, And, Or, Implies, Forall, Exists)


def _is_pure(P) -> bool:
    t = type(P)
    if t in _PURE_ATOMS:
        return True
    return t in _PURE_CONNECTIVES and all(map(_is_pure, children(P)))


def _is_pseudo_pure(P, bound=frozenset()) -> bool:
    t = type(P)
    if t is Triple or _is_pure(P):
        return True
    if t is Tensor:
        return _is_pseudo_pure(P.left, bound)
    if t is Mu:
        return _is_pseudo_pure(P.body, bound | {P.relvar})
    if t is RelVar:
        # only a recursion variable whose binder we have seen: its
        # unfoldings stay within this grammar
        return P.name in bound
    return t in (And, Or) and all(_is_pseudo_pure(c, bound)
                                  for c in children(P))


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
    """Canonical string of ast under the enclosing binders venv/renv; bound
    names become de Bruijn indices so that alpha-variants agree and
    AC-sorting is stable.  When no enclosing binder captures a free name of
    ast its key is the closed one, cached on the node."""
    if venv or renv:
        fv, frv = _free(ast)
        if not (fv.isdisjoint(venv) and frv.isdisjoint(renv)):
            return _canon_walk(ast, venv, renv)
    try:
        return ast._key
    except AttributeError:
        pass
    key = _canon_walk(ast, (), ())
    object.__setattr__(ast, "_key", key)
    return key


# The head of each class's canonical string `(head child ...)`; a class
# without sub-terms is its bare head.  BinOp's head is its operator.
_HEAD = {
    Quote: "quote", Assign: ":=", LetDeref: "letderef", EvalAt: "eval",
    LetNew: "new", Free: "free", Skip: "skip", Seq: "seq", If: "if",
    FalseA: "false", TrueA: "true", Emp: "emp", Implies: "=>",
    Forall: "forall", Exists: "exists", Eq: "=", Leq: "<=",
    PointsTo: "|->", Triple: "triple", Tensor: "tensor", RelVar: "rel",
    Mu: "mu", Diamond: "dia",
}


def _canon_walk(ast, venv, renv) -> str:
    """The canonical string of ast from its children's: `(head child ...)`
    in SCHEMA order, bound variables as de Bruijn indices `#i` and bound
    relation variables as `%i`.  A tuple field is one group of its
    children's strings, parenthesised unless it is the only field."""
    t = type(ast)
    if t is Var:
        for i in range(len(venv) - 1, -1, -1):
            if venv[i] == ast.name:
                return f"#{len(venv) - 1 - i}"
        return f"v:{ast.name}"
    if t is IntLit:
        return f"i{ast.value}"
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
    if t is ValueLit:
        return f"(val {ast.value!r})"
    fields = _FIELDS[t]
    if not fields:
        return _HEAD[t]
    items = [ast.op if t is BinOp else _HEAD[t]]
    if t is RelVar:
        for i in range(len(renv) - 1, -1, -1):
            if renv[i] == ast.name:
                items.append(f"%{len(renv) - 1 - i}")
                break
        else:
            items.append(f"X:{ast.name}")
    elif t is Mu:
        items.append(str(len(ast.params)))
    if t in _BINDERS:
        names, rnames = binders(ast)
        inner = (venv + names, renv + rnames)
    for name, many, under in fields:
        v, r = inner if under else (venv, renv)
        value = getattr(ast, name)
        if not many:
            items.append(_canon(value, v, r))
        else:
            group = " ".join([_canon(c, v, r) for c in value])
            items.append(f"({group})" if len(fields) > 1 else group)
    return f"({' '.join(items)})"


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
    return P is Q or canon_key(P) == canon_key(Q)


# convenient n-ary builders


def star(*parts: Assertion) -> Assertion:
    return functools.reduce(Star, parts) if parts else Emp()


def conj(*parts: Assertion) -> Assertion:
    return functools.reduce(And, parts) if parts else TrueA()


def circ(P: Assertion, R: Assertion) -> Assertion:
    """Invariant combination (P (*) R) * R: the world generated by P
    extended by the invariant R and separately conjoined with it."""
    return Star(Tensor(P, R), R)


def star_parts(P: Assertion) -> list:
    """Flatten nested Star into a list of non-Star components."""
    if type(P) is not Star:
        return [P]
    return star_parts(P.left) + star_parts(P.right)
