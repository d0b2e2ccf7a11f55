"""Executable model of the heap language.

Heaps map positive addresses to integers or code closures.  A closure
carries a truncation tag t: the stored command behaves as the projection
of its denotation at level t (inputs and outputs truncated at t); tag 0
never terminates, tag INF is the untruncated closure.  Nontermination is
approximated by a fuel budget counting sequencing and eval steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Tuple, Union

from . import grammar
from .syntax import (
    Assign, BinOp, Command, EvalAt, Free, If, Interned, IntLit, LetDeref,
    LetNew, Quote, Seq, Skip, ValueLit, Var, free_vars, intern, interned,
)

INF = float("inf")


class UnboundVariable(Exception):
    pass


class TypeFault(Exception):
    pass


# ---------------------------------------------------------------------------
# values, environments, heaps


# Every value is interned in the one table of syntax, with the AST nodes
# (syntax module docstring): one object per value, and `==` is `is`.


@interned
class IntVal(Interned):
    n: int


@interned
class Env(Interned):
    items: tuple = ()  # sorted (name, HeapValue) pairs

    @staticmethod
    def of(mapping) -> "Env":
        return Env(tuple(sorted(mapping.items())))

    def lookup(self, name: str):
        for k, v in self.items:
            if k == name:
                return v
        raise UnboundVariable(name)

    def bind(self, name: str, value) -> "Env":
        rest = tuple((k, v) for k, v in self.items if k != name)
        return Env(tuple(sorted(rest + ((name, value),))))

    def restrict(self, names) -> "Env":
        return Env(tuple((k, v) for k, v in self.items if k in names))


EMPTY_ENV = Env()


@interned
class CodeVal(Interned):
    body: Command
    captured: Env = EMPTY_ENV
    tag: Union[int, float] = INF  # natural or INF

    def __new__(cls, body, captured=EMPTY_ENV, tag=INF):
        # 2 and 2.0 are one key; a finite tag is kept as an int
        return intern((cls, body, captured, tag if tag == INF else int(tag)))


HeapValue = Union[IntVal, CodeVal]


@interned
class Heap(Interned):
    """Bot (cells is None) or a finite map from address to value."""

    cells: Optional[tuple] = ()  # sorted (addr, HeapValue) pairs, or None

    @staticmethod
    def bot() -> "Heap":
        return Heap(None)

    @staticmethod
    def of(mapping) -> "Heap":
        for addr in mapping:
            if addr < 1:
                raise ValueError(f"address {addr} is not positive")
        return Heap(tuple(sorted(mapping.items())))

    @property
    def is_bot(self) -> bool:
        return self.cells is None

    def to_dict(self):
        if self.is_bot:
            raise ValueError("Bot heap has no cells")
        return dict(self.cells)

    def domain(self):
        return frozenset(a for a, _ in self.cells) if not self.is_bot \
            else frozenset()

    def get(self, addr):
        for a, v in self.cells:
            if a == addr:
                return v
        return None


BOT = Heap.bot()
EMPTY_HEAP = Heap(())


# ---------------------------------------------------------------------------
# outcomes


@dataclass(frozen=True)
class Done:
    heap: Heap


@dataclass(frozen=True)
class Fault:
    reason: str = ""


@dataclass(frozen=True)
class OutOfFuel:
    pass


Outcome = Union[Done, Fault, OutOfFuel]


# ---------------------------------------------------------------------------
# projections, rank, combination, order


def truncate(n: Union[int, float], h: Heap) -> Heap:
    """Projection at level n: level 0 collapses to Bot, level n >= 1 caps
    every stored closure's tag at n - 1; h itself when no tag is above."""
    if n == 0:
        return BOT
    if h.is_bot or not any(isinstance(v, CodeVal) and v.tag > n - 1
                           for _, v in h.cells):
        return h
    return Heap(tuple(
        (a, CodeVal(v.body, v.captured, n - 1)
         if isinstance(v, CodeVal) and v.tag > n - 1 else v)
        for a, v in h.cells))


def rank(h: Heap) -> Union[int, float]:
    """Least n with truncate(n, h) == h."""
    if h.is_bot:
        return 0
    top = 0
    for _, v in h.cells:
        if isinstance(v, CodeVal):
            if v.tag == INF:
                return INF
            top = max(top, v.tag)
    return 1 + top


def heap_join(h1: Heap, h2: Heap) -> Heap:
    if h1.is_bot or h2.is_bot:
        return BOT
    d1 = h1.domain()
    if d1 & h2.domain():
        return BOT
    return Heap(tuple(sorted(h1.cells + h2.cells)))


def value_leq(v1: HeapValue, v2: HeapValue) -> bool:
    if isinstance(v1, IntVal):
        return isinstance(v2, IntVal) and v1.n == v2.n
    if not isinstance(v2, CodeVal) or v1.body != v2.body:
        return False
    if v1.tag > v2.tag:
        return False
    e1, e2 = dict(v1.captured.items), dict(v2.captured.items)
    if e1.keys() != e2.keys():
        return False
    return all(value_leq(e1[k], e2[k]) for k in e1)


def heap_leq(h1: Heap, h2: Heap) -> bool:
    """Approximation order: Bot below everything, otherwise equal domains
    with pointwise value approximation (tags may only grow)."""
    if h1.is_bot:
        return True
    if h2.is_bot:
        return False
    d1, d2 = dict(h1.cells), dict(h2.cells)
    if d1.keys() != d2.keys():
        return False
    return all(value_leq(d1[a], d2[a]) for a in d1)


def value_raises(v: HeapValue, tag_max: int):
    """All values above v obtained by raising tags, bounded by tag_max."""
    if isinstance(v, IntVal):
        return [v]
    tags = range(int(v.tag), tag_max + 1) if v.tag <= tag_max else [v.tag]
    env_opts = [value_raises(x, tag_max) for _, x in v.captured.items]
    names = [k for k, _ in v.captured.items]
    out = []
    for t in tags:
        for combo in product(*env_opts):
            out.append(CodeVal(v.body, Env(tuple(zip(names, combo))), t))
    return out


def tag_raises(h: Heap, tag_max: int):
    """All heaps above h in heap_leq obtained by raising tags."""
    if h.is_bot:
        return [h]
    opts = [[(a, w) for w in value_raises(v, tag_max)] for a, v in h.cells]
    return [Heap(tuple(combo)) for combo in product(*opts)]


# ---------------------------------------------------------------------------
# evaluation


def eval_expr(e, env: Env) -> HeapValue:
    t = type(e)
    if t is IntLit:
        return IntVal(e.value)
    if t is Var:
        return env.lookup(e.name)
    if t is ValueLit:
        return e.value
    if t is BinOp:
        a = eval_expr(e.left, env)
        b = eval_expr(e.right, env)
        if not isinstance(a, IntVal) or not isinstance(b, IntVal):
            raise TypeFault("arithmetic on code value in "
                            + grammar.pretty_expr(e))
        if e.op == "+":
            return IntVal(a.n + b.n)
        if e.op == "-":
            return IntVal(a.n - b.n)
        if e.op == "*":
            return IntVal(a.n * b.n)
        raise TypeFault(f"unknown operator {e.op}")
    if t is Quote:
        fv = free_vars(e.body)[0]
        return CodeVal(e.body, env.restrict(fv), INF)
    raise TypeError(f"not an expression: {e!r}")


def _cell(e, env, h: Heap, what: str):
    """(a, h(a)) for the address a that e evaluates to; TypeFault "<what>
    non-address a" when h has no cell at a."""
    v = eval_expr(e, env)
    a = v.n if isinstance(v, IntVal) else None
    cell = None if a is None else h.get(a)
    if cell is None:
        raise TypeFault(f"{what} non-address {a}")
    return a, cell


def exec_cmd(C: Command, env: Env, h: Heap, fuel: int) -> Outcome:
    """Run a command; faults are outcomes, never exceptions."""
    out, _ = _exec(C, env, h, fuel)
    return out


def _exec(C, env, h: Heap, fuel: int):
    if h.is_bot:
        return Done(BOT), fuel
    t = type(C)
    try:
        if t is Skip:
            return Done(h), fuel
        if t is Assign:
            a, _ = _cell(C.target, env, h, "update of")
            cells = dict(h.cells)
            cells[a] = eval_expr(C.source, env)
            return Done(Heap(tuple(sorted(cells.items())))), fuel
        if t is LetDeref:
            _, v = _cell(C.addr, env, h, "lookup of")
            return _exec(C.body, env.bind(C.var, v), h, fuel)
        if t is EvalAt:
            a, v = _cell(C.addr, env, h, "eval at")
            if not isinstance(v, CodeVal):
                return Fault(f"eval of non-code at {a}"), fuel
            if fuel <= 0:
                return OutOfFuel(), fuel
            return _run_codeval(v, h, fuel - 1)
        if t is LetNew:
            vals = [eval_expr(e, env) for e in C.inits]
            dom = h.domain()
            n = len(vals)
            base = 1
            while any(base + i in dom for i in range(n)):
                base += 1
            cells = dict(h.cells)
            for i, v in enumerate(vals):
                cells[base + i] = v
            h2 = Heap(tuple(sorted(cells.items())))
            return _exec(C.body, env.bind(C.var, IntVal(base)), h2, fuel)
        if t is Free:
            a, _ = _cell(C.addr, env, h, "free of")
            cells = dict(h.cells)
            del cells[a]
            return Done(Heap(tuple(sorted(cells.items())))), fuel
        if t is Seq:
            # each `;` of (c1 ; ... ; cn-1) ; cn checks and spends its fuel
            # before c1 runs
            n = len(C.cmds) - 1
            if fuel < n:
                return OutOfFuel(), min(fuel, 0)
            fuel -= n
            for c in C.cmds:
                out, fuel = _exec(c, env, h, fuel)
                if not isinstance(out, Done):
                    break
                h = out.heap
            return out, fuel
        if t is If:
            a = eval_expr(C.lhs, env)
            b = eval_expr(C.rhs, env)
            if isinstance(a, CodeVal) or isinstance(b, CodeVal):
                return OutOfFuel(), fuel  # comparison of code diverges
            branch = C.then if a.n == b.n else C.els
            return _exec(branch, env, h, fuel)
    except (TypeFault, UnboundVariable) as exc:
        return Fault(str(exc)), fuel
    raise TypeError(f"not a command: {C!r}")


def _run_codeval(v: CodeVal, h: Heap, fuel: int):
    if v.tag == 0:
        return OutOfFuel(), fuel
    if v.tag == INF:
        return _exec(v.body, v.captured, h, fuel)
    out, fuel = _exec(v.body, v.captured, truncate(v.tag, h), fuel)
    if isinstance(out, Done):
        out = Done(truncate(v.tag, out.heap))
    return out, fuel


def run_codeval(v: CodeVal, h: Heap, fuel: int) -> Outcome:
    """Run a stored closure respecting its truncation tag."""
    out, _ = _run_codeval(v, h, fuel)
    return out


# ---------------------------------------------------------------------------
# heap text format: one `addr = value` per line, value an integer,
# 'C' (untagged code) or 'C'@t (tagged code)


def parse_value_text(text: str) -> HeapValue:
    import re as _re

    text = text.strip()
    tag = INF
    m = _re.match(r"^(.*')\s*@\s*(\d+)$", text, _re.DOTALL)
    if m:
        text, tag = m.group(1).strip(), int(m.group(2))
    if text.startswith("'") and text.endswith("'"):
        cmd = grammar.parse(text[1:-1], "program")
        return CodeVal(cmd, EMPTY_ENV, tag)
    return IntVal(int(text))


def parse_heap_text(text: str) -> Heap:
    """The heap of `addr = value` lines; a malformed line raises
    ValueError naming its line number, and an address given twice names
    both lines."""
    cells = {}
    given = {}      # address -> the line that gave it
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        addr_part, eq, value_part = line.partition("=")
        if not eq:
            raise ValueError(f"line {lineno}: expected addr = value")
        try:
            addr = int(addr_part)
        except ValueError:
            raise ValueError(f"line {lineno}: expected an integer address, "
                             f"got {addr_part.strip()!r}") from None
        if addr < 1:
            raise ValueError(f"line {lineno}: address {addr} is not positive")
        if addr in given:
            raise ValueError(f"line {lineno}: address {addr} is already "
                             f"given on line {given[addr]}")
        given[addr] = lineno
        try:
            cells[addr] = parse_value_text(value_part)
        except ValueError:
            raise ValueError(f"line {lineno}: expected an integer or a quoted "
                             f"command, got {value_part.strip()!r}") from None
    return Heap.of(cells)


def format_value(v: HeapValue) -> str:
    if isinstance(v, IntVal):
        return str(v.n)
    body = grammar.pretty_cmd(v.body)
    if v.captured.items:
        env = ", ".join(f"{k}={format_value(x)}" for k, x in v.captured.items)
        body = f"{body} with {env}"
    return f"'{body}'" if v.tag == INF else f"'{body}'@{int(v.tag)}"


def format_heap(h: Heap) -> str:
    if h.is_bot:
        return "<bot>"
    if not h.cells:
        return "<empty>"
    return "\n".join(f"{a} = {format_value(v)}" for a, v in h.cells)
