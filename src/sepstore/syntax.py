"""Abstract syntax for the heap language and its assertion logic.

Expressions, commands and assertions are immutable interned classes, and
judgements immutable dataclasses; SCHEMA lists the sub-terms and binder
scopes of each node class for every traversal.
A chain of `;` (Seq) or of \\/, /\\ or * (Chain) is one node holding a
tuple, crossed in one frame; only this module knows the binary tree it
stands for (halves, join).
Operations on them (free variables, substitution, contractiveness, purity
classification, equality modulo associativity/commutativity) live here;
the concrete grammar lives in grammar.py.

Every AST node, and every runtime value of interp (IntVal, Env, CodeVal,
Heap), is hash-consed in the one table _NODES: building an object with
the class and fields of an existing one returns that object, so there is
one object per term or value and `==` is `is`.  The classes are declared
with `interned`, which builds each one with a slot per annotated field,
and derive from Interned, whose fields are frozen; the constructors,
map_children, replace, copy, deepcopy and pickle all go through the
table.
An object's hash is the hash of its class name and field tuple, taken
once, when it is made; it never depends on an address, since the order of
sets and dicts of nodes decides fresh names and witness order.  Each
object also gets a serial, `_id`, from the counter _SERIALS when it is
made.  A serial is a table key only: the semantic tester keys its tables
by serials, whose int hash costs no Python call.  It never enters the
hash, `==` or any iteration order, so it decides no fresh name and no
witness.  It orders only the AC parts inside a canonical node, which is
an identity and is never printed or walked for order (canon_key).

Every memo has one of three homes:

1. Node slots hold the two facts every AST node needs: its closed
   canonical node (canon_key) and its free (relation) variables.  A slot
   costs a node 8 bytes, less than an entry of any table.  Invariant: a
   cached fact depends only on the node's own fields, never on where the
   node occurs, so a node shared between terms, or under different
   binders, may carry it.  A fact is computed once, on first use, and
   written with object.__setattr__; the slots take no part in repr.
   Substitution hands back every sub-term it does not reach, facts and
   all.
2. Every other pure function of interned terms or heaps keeps one
   process-wide table, listed in TABLES under its name: a dict from its
   arguments' serials (and names) to its answer.  It probes the table
   inline, first thing in its body, with None as the miss (no such
   function answers None), and stores its answer last; a wrapping
   decorator would double the stack frames per level of the recursive
   ones.  No table is ever emptied; a serial is never reused.
   splits and truncations may compute a miss through the asking
   Tester's universe numbering (home 3); it gives the same interned
   heaps in the same order as the per-cell path, so one table serves
   every Tester.
3. An answer that depends on a configuration lives in the semantic
   Tester built for it, behind its re-entry guard (semantics._memo),
   save the run table of a code on its universe heaps and the digit
   maps of a straight-line code, leaves that never call back into the
   Tester.  Three of them are set tables: the
   denotation of a static assertion (semantics.static: no triple, <>,
   mu or (*)) under an environment, as a set of the Tester's own
   universe heaps, the raised sets of such a set, per level, and the
   set of the heaps up to each rank.
   member of a static term, test_entailment of a static goal or left
   side and the triple sampler's [[pre]]w * (w * frame) of a static
   pre, world and frame read the first, and the sampler judges a static
   post from the second, for a straight-line code through the preimage
   of its digit maps; any other term and any heap outside that universe
   are answered heap by heap.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Union


class Interned:
    """Base of every hash-consed class (module docstring); _hash and the
    serial _id are set when the object is made.  Its fields are frozen."""

    __slots__ = ("_hash", "_id")

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}"
                           for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class Node(Interned):
    """Base of the AST classes; its slots, unset until first computed,
    cache the closed canonical node and the free pair (module docstring)."""

    __slots__ = ("_key", "_fv")


_NODES: dict = {}   # (class, *fields) -> the interned object
_SERIALS = itertools.count()   # _id of each interned object
TABLES: dict = {}   # name of a tabled function -> its table (docstring)


def _make(key):
    cls, fields = key[0], key[1:]
    obj = object.__new__(cls)
    for f, x in zip(cls.__match_args__, fields):
        object.__setattr__(obj, f, x)
    # the class by name: a class's own hash is its address, which varies
    # from run to run and would reorder sets and dicts of nodes
    object.__setattr__(obj, "_hash", hash((cls.__name__,) + fields))
    object.__setattr__(obj, "_id", next(_SERIALS))
    _NODES[key] = obj
    return obj


def intern(key):
    """The interned object of key, (class, *fields)."""
    return _NODES.get(key) or _make(key)


_NEW = """\
def __new__(cls, {params}):
    key = (cls, {fields})
    return _NODES.get(key) or _make(key)
"""


def interned(cls):
    """cls rebuilt with one slot per annotated field, in declaration order
    (its __match_args__), and a constructor that returns the interned
    object of its fields (module docstring); a field's class attribute is
    its default.  A class that defines or inherits its own __new__, to
    normalise its fields, calls intern."""
    ns = dict(vars(cls))
    fields = tuple(ns.get("__annotations__", ()))
    defaults = {f"_{f}": ns.pop(f) for f in fields if f in ns}
    # the class as declared has an instance dict; the rebuilt one has
    # slots only
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    ns.update(__slots__=fields, __match_args__=fields,
              __qualname__=cls.__qualname__)
    if cls.__new__ is object.__new__:
        params = ", ".join(f"{f}=_{f}" if f"_{f}" in defaults else f
                           for f in fields)
        scope = {"_NODES": _NODES, "_make": _make, **defaults}
        exec(_NEW.format(params=params,
                         fields="".join(f"{f}, " for f in fields)), scope)
        ns["__new__"] = scope["__new__"]
    return type(cls.__name__, cls.__bases__, ns)


def replace(obj, **changes):
    """The interned object of obj's class with the fields named in changes
    replaced, as the class's constructor gives it."""
    return type(obj)(**({f: getattr(obj, f) for f in obj.__match_args__}
                        | changes))


# ---------------------------------------------------------------------------
# expressions


@interned
class IntLit(Node):
    value: int


@interned
class Var(Node):
    name: str


@interned
class BinOp(Node):
    op: str  # one of + - *
    left: "Expr"
    right: "Expr"


@interned
class Quote(Node):
    body: "Command"


@interned
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


@interned
class Assign(Node):
    target: Expr
    source: Expr


@interned
class LetDeref(Node):
    var: str
    addr: Expr
    body: "Command"


@interned
class EvalAt(Node):
    addr: Expr


@interned
class LetNew(Node):
    var: str
    inits: tuple
    body: "Command"


@interned
class Free(Node):
    addr: Expr


@interned
class Skip(Node):
    pass


@interned
class Seq(Node):
    """A `;` chain c1 ; ... ; cn, n >= 2, as one node.  The first command
    is never a sequence: a leading sequence is spliced, so `(a ; b) ; c`
    and `a ; b ; c` are one node, while a trailing one stays a command of
    its own, `a ; (b ; c)`.  So each node stands for exactly one binary
    tree `(c1 ; ... ; cn-1) ; cn`, every traversal crosses a chain in
    one frame, and a chain prints flat (grammar)."""

    cmds: tuple

    def __new__(cls, cmds):
        if type(cmds[0]) is cls:
            cmds = cmds[0].cmds + cmds[1:]
        return intern((cls, cmds))


@interned
class If(Node):
    lhs: Expr
    rhs: Expr
    then: "Command"
    els: "Command"


Command = Union[Assign, LetDeref, EvalAt, LetNew, Free, Skip, Seq, If]


# ---------------------------------------------------------------------------
# assertions


@interned
class FalseA(Node):
    pass


@interned
class TrueA(Node):
    pass


class Chain(Node):
    """Or, And and Star: a chain p1 op ... op pn, n >= 2, of \\/, /\\ or *
    as one node holding the tuple `parts`.  As in Seq, a leading chain of
    the class is spliced and a trailing one is not, so each node stands
    for one binary tree `(p1 op ... op pn-1) op pn` (halves, join)."""

    __slots__ = ()

    def __new__(cls, parts):
        if type(parts[0]) is cls:
            parts = parts[0].parts + parts[1:]
        key = (cls, parts)
        return _NODES.get(key) or _make(key)


@interned
class Or(Chain):
    parts: tuple


@interned
class And(Chain):
    parts: tuple


@interned
class Implies(Node):
    left: "Assertion"
    right: "Assertion"


@interned
class Forall(Node):
    var: str
    body: "Assertion"


@interned
class Exists(Node):
    var: str
    body: "Assertion"


@interned
class Eq(Node):
    left: Expr
    right: Expr


@interned
class Leq(Node):
    left: Expr
    right: Expr


@interned
class PointsTo(Node):
    addr: Expr
    value: Expr


@interned
class Emp(Node):
    pass


@interned
class Star(Chain):
    parts: tuple


@interned
class Triple(Node):
    pre: "Assertion"
    code: Expr
    post: "Assertion"


@interned
class Tensor(Node):
    left: "Assertion"
    right: "Assertion"


@interned
class RelVar(Node):
    name: str
    args: tuple = ()


@interned
class Mu(Node):
    relvar: str
    params: tuple
    body: "Assertion"
    args: tuple = ()


@interned
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
    """A relation variable applied to the wrong number of arguments;
    `position` is its input offset when the parser found it."""

    def __init__(self, relvar, got, expected, position=None):
        self.position = position
        super().__init__(f"relation variable {relvar} applied to {got} "
                         f"arguments, expected {expected}")


# ---------------------------------------------------------------------------
# node schema: the one description of each class's sub-terms

# The fields of each AST class that hold sub-terms, in declaration order.
# `*f` holds a tuple of sub-terms; `^f` lies in the scope of the node's
# binder, which is `var`, or for Mu the parameters `params` together with
# the relation variable `relvar`.  Every structural traversal reads this
# table, canonical forms too; what a class means (printing, evaluation,
# membership) stays in per-class code.
SCHEMA = {
    IntLit: (), Var: (), ValueLit: (),
    BinOp: ("left", "right"), Quote: ("body",),
    Assign: ("target", "source"), LetDeref: ("addr", "^body"),
    EvalAt: ("addr",), LetNew: ("*inits", "^body"), Free: ("addr",),
    Skip: (), Seq: ("*cmds",), If: ("lhs", "rhs", "then", "els"),
    FalseA: (), TrueA: (), Emp: (),
    Or: ("*parts",), And: ("*parts",), Star: ("*parts",),
    Implies: ("left", "right"), Tensor: ("left", "right"),
    Forall: ("^body",), Exists: ("^body",),
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
    t = type(node)
    if t is Mu:
        return Mu(rnames[0], names, node.body, node.args)
    return t(names[0], *[getattr(node, f) for f in t.__match_args__[1:]])


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
            # a loop: a comprehension's frame would add one per nesting
            # level; `==` of tuples of interned nodes compares by identity
            new = []
            for c in old:
                new.append(f(c, *a))
            new = tuple(new)
            if new == old:
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


# Nodes share pairs: the empty pair, and a child's pair whenever the union
# adds nothing to it (so a name's pair is its Var's).  A fresh pair of
# frozensets per node would cost several hundred bytes each.
_NO_FREE = (frozenset(), frozenset())


def _free_walk(ast):
    """The free pair of ast from the cached pairs of its children."""
    t = type(ast)
    if t is Var:
        return frozenset((ast.name,)), frozenset()
    out = (frozenset(), frozenset((ast.name,))) if t is RelVar else _NO_FREE
    for name, many, under in _FIELDS[t]:
        value = getattr(ast, name)
        for c in value if many else (value,):
            fv, frv = pair = _free(c)
            if under:
                names, rnames = binders(ast)
                if not (fv.isdisjoint(names) and frv.isdisjoint(rnames)):
                    fv, frv = pair = (fv.difference(names),
                                      frv.difference(rnames))
            if fv <= out[0] and frv <= out[1]:
                continue
            if out[0] <= fv and out[1] <= frv:
                out = pair
            else:
                out = out[0] | fv, out[1] | frv
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
    occurrence and the body come in concrete syntax, and `position` is
    the input offset of the mu when the parser found it."""

    def __init__(self, relvar, occurrence: str, body: str, position=None):
        self.relvar, self.position = relvar, position
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


def canon_key(ast: Ast) -> Node:
    """The canonical node of ast, one per class of terms equal up to alpha,
    AC of * /\\ \\/ and P*emp <=> P: bound names become de Bruijn indices
    (Var("#i"), RelVar("%i", args); innermost binder 0) and binder names
    are blanked; *, /\\, \\/ are flattened, emp parts of * dropped, and the
    parts sorted by serial.  A term without binders or AC nodes is its own
    canonical node.  Invariant: the canonical node is an identity only,
    compared with `is` or used as a key, never printed, parsed, searched
    or iterated for order, so sorting by serial is safe."""
    try:
        return ast._key
    except AttributeError:
        return _canon(ast, (), ())


def _canon(ast, venv, renv):
    """canon_key of ast under the enclosing binders venv/renv; the closed
    form, cached on the node, unless they capture a free name of ast.  One
    frame per level besides map_children's, so deep terms fit the stack."""
    fv, frv = _free(ast) if venv or renv else _NO_FREE
    closed = fv.isdisjoint(venv) and frv.isdisjoint(renv)
    if closed:
        try:
            return ast._key
        except AttributeError:
            venv = renv = ()
    t = type(ast)
    if t is Var:   # walked under venv only when venv binds it
        key = Var(f"#{venv[::-1].index(ast.name)}") if venv else ast
    elif t is Star or t is And or t is Or:
        # a part whose canonical node is a chain of t, as that of
        # (a op b) * emp is, is spliced: p * emp = p and associativity
        parts = []
        for p in flatten(ast, t):
            if t is not Star or type(p) is not Emp:
                p = _canon(p, venv, renv)
                if type(p) is t:
                    parts += p.parts
                else:
                    parts.append(p)
        parts.sort(key=operator.attrgetter("_id"))
        key = star(*parts) if t is Star else t(tuple(parts))
    elif t in _BINDERS:
        names, rnames = binders(ast)
        key = _rebind(map_children(ast, _canon, venv, renv,
                                   scoped=(venv + names, renv + rnames)),
                      ("",) * len(names), ("",) * len(rnames))
    else:
        key = map_children(ast, _canon, venv, renv)
        if t is RelVar and ast.name in renv:
            key = RelVar(f"%{renv[::-1].index(ast.name)}", key.args)
    if closed:
        object.__setattr__(ast, "_key", key)
    return key


def equal_mod_ac(P: Ast, Q: Ast) -> bool:
    """Equality up to alpha, AC of * /\\ \\/, and the unit law P*emp <=> P."""
    return P is Q or canon_key(P) is canon_key(Q)


# chains


def star(*parts: Assertion) -> Assertion:
    return Star(parts) if len(parts) > 1 else parts[0] if parts else Emp()


def conj(*parts: Assertion) -> Assertion:
    return And(parts) if len(parts) > 1 else parts[0] if parts else TrueA()


def circ(P: Assertion, R: Assertion) -> Assertion:
    """Invariant combination (P (*) R) * R: the world generated by P
    extended by the invariant R and separately conjoined with it."""
    return Star((Tensor(P, R), R))


def halves(P):
    """(left, right) of a binary node; a chain's left is the node of all
    its parts but the last."""
    if not isinstance(P, Chain):
        return P.left, P.right
    parts = P.parts
    return parts if len(parts) == 2 else (type(P)(parts[:-1]), parts[-1])


def join(cls, left, right):
    """The binary node of cls over left and right; inverts halves."""
    return cls((left, right)) if issubclass(cls, Chain) else cls(left, right)


def flatten(P: Assertion, cls=Star) -> list:
    """The parts of P as a chain of cls, nested chains of cls flattened:
    `a * (b * c)` gives [a, b, c]."""
    if type(P) is not cls:
        return [P]
    out = []
    for p in P.parts:
        if type(p) is cls:
            out += flatten(p, cls)
        else:
            out.append(p)
    return out
