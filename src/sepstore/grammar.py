"""Concrete grammar: lexer, parser and pretty printer.

Lexemes: invariant extension is `(*)`, the later-rank modality is `<>`,
triples are `{P} e {Q}`, points-to is `|->`, separating conjunction `*`,
command quoting `'C'`.  `#` starts a line comment.  The lexer makes the
token list of a text in one regular-expression scan; the parser reads it
once, left to right, and backtracks only where a parenthesised text read
as an assertion turns out to be an expression.

Precedence, loosest to tightest: `=>`, `\\/`, `/\\`, `*`, `(*)`, `<>`;
binary connectives associate to the left; quantifiers and `mu` extend
maximally to the right; a chain of `\\/`, `/\\` or `*` is read into one
node (syntax.Chain), while `=>` and `(*)` stay binary.  Inside assertions
a top-level `*` always means separating conjunction, so integer
multiplication there must be parenthesised, e.g. `(x * y) = z`.

Sequencing `;` associates to the left, and a chain `c1 ; ... ; cn` is
read in one loop into one Seq node; a parenthesised leading sequence is
spliced into it (syntax.Seq), a parenthesised trailing one is not.  The
printer prints a chain flat, parenthesising only a sequence inside it
and a let or if that is not its last command.

Sugar expanded at parse time:
  e |-> _          ==  exists x. e |-> x          (fresh x)
  e |-> {A}_{B}    ==  exists k. e |-> k /\\ {A}k{B}   (fresh k)

The parser keeps the names it reads, shadowing binders included (only
substitution renames binders), so parse(pretty(t)) == t for every term it
returns.  It rejects a mu body that is not contractive, and a bound
relation variable applied to the wrong number of arguments: it checks a
mu when it has read the body, and a relation variable against the mu
binders around it, and once the whole text has parsed reports the first
fault in the text, which is the first in pre-order of the term.
"""

from __future__ import annotations

import functools
import re

from .syntax import (
    And, ArityError, Assign, BinOp, Chain, ContractivenessError, Diamond, Emp,
    EvalAt, Exists, Eq, FalseA, Forall, Free, If, Implies, IntLit, LetDeref,
    LetNew, Leq, Mu, Or, PointsTo, Quote, RelVar, Seq, Skip, Star, Tensor,
    Triple, TrueA, ValueLit, Var, exposed_occurrence, replace,
)

KEYWORDS = {
    "skip", "let", "in", "eval", "new", "free", "if", "then", "else",
    "true", "false", "emp", "forall", "exists", "mu",
}

# each match is one token, or the end of the text, with the white space
# and comments before it; the last group is a character that starts no
# token
_TOKEN_RE = re.compile(r"""
    (\s*(?:\#[^\n]*\s*)*)
    (?: (\d+)
      | ([A-Za-z_][A-Za-z0-9_]*)
      | (\(\*\)|\|->|:=|<=|=>|<>|/\\|\\/|[;=()\[\]{},.'+\-*])
      | (.) | \Z)
""", re.VERBOSE)


# binary connectives: binding level (loosest first) and symbol, read by
# both the parser and the printer
_BIN_PREC = {Implies: (1, "=>"), Or: (2, "\\/"), And: (3, "/\\"),
             Star: (4, "*"), Tensor: (5, "(*)")}
_BY_SYM = {sym: (p, cls) for cls, (p, sym) in _BIN_PREC.items()}


class ParseError(Exception):
    def __init__(self, position, expected, found=None):
        self.position = position
        self.expected = expected
        self.found = found
        what = f", found {found!r}" if found is not None else ""
        super().__init__(f"at offset {position}: expected {expected}{what}")


def tokenize(text: str):
    """(kind, text, offset) of each token, kind int, ident or sym, and a
    last eof token."""
    tokens = []
    pos = 0
    for space, num, ident, sym, bad in _TOKEN_RE.findall(text):
        pos += len(space)
        if sym:
            tokens.append(("sym", sym, pos))
            pos += len(sym)
        elif ident:
            tokens.append(("ident", ident, pos))
            pos += len(ident)
        elif num:
            tokens.append(("int", num, pos))
            pos += len(num)
        elif bad:
            raise ParseError(pos, "a token", bad)
    tokens.append(("eof", "", pos))
    return tokens


class Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        # a second eof, for the one token of lookahead past the end
        self.tokens.append(self.tokens[-1])
        self.pos = 0
        self._fresh_counter = 0
        # the arity of each relation variable bound by an enclosing mu
        self.arity = {}
        # (offset, error) of each mu or relation variable read so far that
        # fails its check; parse raises the first one once the whole input
        # has parsed, so a syntax error anywhere comes first
        self.faults = []

    # --- token plumbing

    def peek(self, ahead=0):
        return self.tokens[self.pos + ahead]

    def at(self, *texts):
        # the eof token's text is "", which no caller asks for
        return self.tokens[self.pos][1] in texts

    def advance(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, text):
        tok = self.peek()
        if tok[1] != text or tok[0] == "eof":
            raise ParseError(tok[2], repr(text), tok[1] or "end of input")
        return self.advance()

    def expect_ident(self):
        tok = self.peek()
        if tok[0] != "ident" or tok[1] in KEYWORDS or tok[1] == "_":
            raise ParseError(tok[2], "an identifier", tok[1] or "end of input")
        return self.advance()[1]

    def comma_list(self, item):
        items = [item()]
        while self.at(","):
            self.advance()
            items.append(item())
        return tuple(items)

    @functools.cached_property
    def used_names(self):
        """Every identifier in the input, so generated names never clash."""
        return {t[1] for t in self.tokens if t[0] == "ident"}

    def fresh(self):
        while True:
            name = f"_{self._fresh_counter}"
            self._fresh_counter += 1
            if name not in self.used_names:
                self.used_names.add(name)
                return name

    # --- expressions

    def parse_expr(self, allow_mul=True):
        left = self.parse_term(allow_mul)
        while self.at("+", "-"):
            op = self.advance()[1]
            left = BinOp(op, left, self.parse_term(allow_mul))
        return left

    def parse_term(self, allow_mul=True):
        left = self.parse_expr_atom()
        while allow_mul and self.at("*"):
            self.advance()
            left = BinOp("*", left, self.parse_expr_atom())
        return left

    def parse_expr_atom(self):
        tok = self.tokens[self.pos]
        if tok[0] == "int":
            self.advance()
            return IntLit(int(tok[1]))
        if tok[1] == "-":
            self.advance()
            inner = self.parse_expr_atom()
            if isinstance(inner, IntLit):
                return IntLit(-inner.value)
            return BinOp("-", IntLit(0), inner)
        if tok[0] == "ident" and tok[1] not in KEYWORDS and tok[1] != "_":
            self.advance()
            return Var(tok[1])
        if tok[1] == "'":
            self.advance()
            body = self.parse_cmd()
            self.expect("'")
            return Quote(body)
        if tok[1] == "(":
            self.advance()
            e = self.parse_expr(allow_mul=True)
            self.expect(")")
            return e
        raise ParseError(tok[2], "an expression", tok[1] or "end of input")

    # --- commands

    def parse_cmd(self):
        cmds = [self.parse_cmd_atom()]
        while self.at(";"):
            self.advance()
            cmds.append(self.parse_cmd_atom())
        return Seq(tuple(cmds)) if len(cmds) > 1 else cmds[0]

    def parse_cmd_atom(self):
        tok = self.peek()
        if tok[1] == "skip":
            self.advance()
            return Skip()
        if tok[1] == "[":
            self.advance()
            target = self.parse_expr()
            self.expect("]")
            self.expect(":=")
            return Assign(target, self.parse_expr())
        if tok[1] == "let":
            self.advance()
            var = self.expect_ident()
            self.expect("=")
            if self.at("["):
                self.advance()
                addr = self.parse_expr()
                self.expect("]")
                self.expect("in")
                return LetDeref(var, addr, self.parse_cmd())
            self.expect("new")
            inits = self.comma_list(self.parse_expr)
            self.expect("in")
            return LetNew(var, inits, self.parse_cmd())
        if tok[1] == "eval":
            self.advance()
            self.expect("[")
            addr = self.parse_expr()
            self.expect("]")
            return EvalAt(addr)
        if tok[1] == "free":
            self.advance()
            self.expect("(")
            addr = self.parse_expr()
            self.expect(")")
            return Free(addr)
        if tok[1] == "if":
            self.advance()
            self.expect("(")
            lhs = self.parse_expr()
            self.expect("=")
            rhs = self.parse_expr()
            self.expect(")")
            self.expect("then")
            then = self.parse_cmd_atom()
            self.expect("else")
            els = self.parse_cmd_atom()
            return If(lhs, rhs, then, els)
        if tok[1] == "(":
            self.advance()
            cmd = self.parse_cmd()
            self.expect(")")
            return cmd
        raise ParseError(tok[2], "a command", tok[1] or "end of input")

    # --- assertions

    def parse_asn(self, prec=1):
        """The binary connectives of `_BIN_PREC` binding at level `prec`
        or tighter, each associating to the left: precedence climbing,
        whose right operand binds one level tighter than its connective;
        a chain's operands are read in one loop and built once."""
        left = self.parse_prefix()
        while True:
            sym = self.tokens[self.pos][1]
            p, cls = _BY_SYM.get(sym, (0, None))
            if p < prec:
                return left
            operands = [left]
            while self.tokens[self.pos][1] == sym:
                self.pos += 1
                operands.append(self.parse_asn(p + 1))
            left = cls(tuple(operands)) if issubclass(cls, Chain) \
                else functools.reduce(cls, operands)

    def parse_prefix(self):
        if self.at("<>"):
            self.advance()
            return Diamond(self.parse_prefix())
        return self.parse_asn_atom()

    def parse_asn_atom(self):
        tok = self.tokens[self.pos]
        if tok[1] == "true":
            self.advance()
            return TrueA()
        if tok[1] == "false":
            self.advance()
            return FalseA()
        if tok[1] == "emp":
            self.advance()
            return Emp()
        if tok[1] in ("forall", "exists"):
            self.advance()
            var = self.expect_ident()
            self.expect(".")
            body = self.parse_asn()
            return (Forall if tok[1] == "forall" else Exists)(var, body)
        if tok[1] == "mu":
            self.advance()
            relvar = self.expect_ident()
            params = ()
            if self.at("("):
                self.advance()
                params = self.comma_list(self.expect_ident)
                self.expect(")")
            self.expect(".")
            outer = self.arity
            self.arity = {**outer, relvar: len(params)}
            try:
                body = self.parse_asn()
            finally:
                self.arity = outer
            occurrence = exposed_occurrence(body, relvar)
            if occurrence is not None:
                self.faults.append((tok[2], ContractivenessError(
                    relvar, pretty(occurrence), pretty(body))))
            return Mu(relvar, params, body, tuple(Var(p) for p in params))
        if tok[1] == "{":
            self.advance()
            pre = self.parse_asn()
            self.expect("}")
            code = self.parse_expr()
            self.expect("{")
            post = self.parse_asn()
            self.expect("}")
            return Triple(pre, code, post)
        if tok[0] == "ident" and tok[1] not in KEYWORDS and tok[1] != "_" \
                and self.peek(1)[1] == "(" and self.peek(1)[0] == "sym":
            # relation variable applied to arguments
            name = self.advance()[1]
            self.advance()
            args = self.comma_list(self.parse_expr)
            self.expect(")")
            return self.relvar(tok[2], name, args)
        if tok[1] == "(":
            saved = self.pos, len(self.faults)
            try:
                self.advance()
                asn = self.parse_asn()
                self.expect(")")
            except ParseError:
                self.backtrack(saved)
            else:
                if isinstance(asn, Mu) and asn.params \
                        and asn.args == tuple(Var(p) for p in asn.params) \
                        and self.at("("):
                    self.advance()
                    args = self.comma_list(self.parse_expr)
                    self.expect(")")
                    if len(args) != len(asn.params):
                        raise ParseError(
                            tok[2],
                            f"{len(asn.params)} arguments for mu "
                            f"{asn.relvar}", f"{len(args)} arguments")
                    return replace(asn, args=args)
                if not self._continues_expr():
                    return asn
                self.backtrack(saved)
        # an expression-headed atom: comparison, points-to, or relvar use
        e = self.parse_expr(allow_mul=False)
        if self.at("="):
            self.advance()
            return Eq(e, self.parse_expr(allow_mul=False))
        if self.at("<="):
            self.advance()
            return Leq(e, self.parse_expr(allow_mul=False))
        if self.at("|->"):
            self.advance()
            return self.parse_points_to_rhs(e)
        if isinstance(e, Var):
            return self.relvar(tok[2], e.name, ())
        raise ParseError(self.peek()[2], "'=', '<=' or '|->' after expression",
                         self.peek()[1] or "end of input")

    def relvar(self, offset, name, args):
        """RelVar(name, args), read at offset; a wrong count of arguments
        for the innermost mu that binds name is a fault."""
        if len(args) != self.arity.get(name, len(args)):
            self.faults.append(
                (offset, ArityError(name, len(args), self.arity[name])))
        return RelVar(name, args)

    def backtrack(self, saved):
        """Return to a (position, fault count) taken before a parse that
        is given up, with the faults found since."""
        self.pos, n = saved
        del self.faults[n:]

    def _continues_expr(self):
        # after a successfully parsed parenthesised assertion, these tokens
        # mean the parens actually enclosed an arithmetic expression
        return self.at("=", "<=", "|->", "+", "-")

    def parse_points_to_rhs(self, addr):
        if self.at("_"):
            self.advance()
            x = self.fresh()
            return Exists(x, PointsTo(addr, Var(x)))
        if self.at("{"):
            self.advance()
            pre = self.parse_asn()
            self.expect("}")
            self.expect("_")
            self.expect("{")
            post = self.parse_asn()
            self.expect("}")
            k = self.fresh()
            return Exists(k, And((PointsTo(addr, Var(k)),
                                  Triple(pre, Var(k), post))))
        return PointsTo(addr, self.parse_expr(allow_mul=False))


def parse(text: str, kind: str):
    """Parse a program, assertion or expression from concrete syntax."""
    p = Parser(text)
    if kind == "program":
        ast = p.parse_cmd()
    elif kind == "assertion":
        ast = p.parse_asn()
    elif kind == "expr":
        ast = p.parse_expr()
    else:
        raise ValueError(f"unknown kind {kind!r}")
    tok = p.peek()
    if tok[0] != "eof":
        raise ParseError(tok[2], "end of input", tok[1])
    if p.faults:
        # the first in the text is the first in pre-order of the term
        raise min(p.faults, key=lambda f: f[0])[1]
    return ast


# ---------------------------------------------------------------------------
# printing


def pretty_expr(e, prec=0) -> str:
    t = type(e)
    if t is IntLit:
        return str(e.value)
    if t is Var:
        return e.name
    if t is BinOp:
        if e.op == "*":
            # inside assertions a bare * is separating conjunction, so
            # multiplication is always printed parenthesised
            return f"({pretty_expr(e.left, 2)} * {pretty_expr(e.right, 3)})"
        s = f"{pretty_expr(e.left, 1)} {e.op} {pretty_expr(e.right, 2)}"
        return f"({s})" if prec >= 2 else s
    if t is Quote:
        return f"'{pretty_cmd(e.body)}'"
    if t is ValueLit:
        from .interp import format_value
        return format_value(e.value)
    raise TypeError(f"not an expression: {e!r}")


def pretty_cmd(c, atom=False, open_right=False) -> str:
    """Print a command; as a sequencing atom (`atom`) a sequence is put in
    parentheses, and with `open_right` also a let or if."""
    t = type(c)
    if t is Skip:
        return "skip"
    if t is Assign:
        return f"[{pretty_expr(c.target)}] := {pretty_expr(c.source)}"
    if t is EvalAt:
        return f"eval [{pretty_expr(c.addr)}]"
    if t is Free:
        return f"free({pretty_expr(c.addr)})"
    if t is LetDeref:
        s = f"let {c.var} = [{pretty_expr(c.addr)}] in {pretty_cmd(c.body)}"
    elif t is LetNew:
        inits = ", ".join(pretty_expr(e) for e in c.inits)
        s = f"let {c.var} = new {inits} in {pretty_cmd(c.body)}"
    elif t is Seq:
        *init, last = c.cmds
        s = " ; ".join([pretty_cmd(x, True, True) for x in init]
                       + [pretty_cmd(last, True)])
    elif t is If:
        s = f"if ({pretty_expr(c.lhs)} = {pretty_expr(c.rhs)}) " \
            f"then {pretty_cmd(c.then, True, True)} " \
            f"else {pretty_cmd(c.els, True)}"
    else:
        raise TypeError(f"not a command: {c!r}")
    return f"({s})" if atom and (open_right or t is Seq) else s


def pretty_asn(a, prec=0) -> str:
    t = type(a)
    if t is TrueA:
        return "true"
    if t is FalseA:
        return "false"
    if t is Emp:
        return "emp"
    if t in _BIN_PREC:
        p, sym = _BIN_PREC[t]
        first, *rest = a.parts if isinstance(a, Chain) else (a.left, a.right)
        s = f" {sym} ".join([pretty_asn(first, p),
                             *map(pretty_asn, rest, [p + 1] * len(rest))])
        return f"({s})" if prec > p else s
    if t in (Forall, Exists):
        head = "forall" if t is Forall else "exists"
        s = f"{head} {a.var}. {pretty_asn(a.body, 0)}"
        return f"({s})" if prec > 0 else s
    if t is Mu:
        params = f"({', '.join(a.params)})" if a.params else ""
        s = f"mu {a.relvar}{params}. {pretty_asn(a.body, 0)}"
        if a.args and a.args != tuple(Var(p) for p in a.params):
            args = ", ".join(pretty_expr(e) for e in a.args)
            return f"({s})({args})"
        return f"({s})" if prec > 0 else s
    if t is Diamond:
        return f"<> {pretty_asn(a.body, 6)}"
    if t is Eq:
        return f"{pretty_expr(a.left)} = {pretty_expr(a.right)}"
    if t is Leq:
        return f"{pretty_expr(a.left)} <= {pretty_expr(a.right)}"
    if t is PointsTo:
        return f"{pretty_expr(a.addr)} |-> {pretty_expr(a.value, 2)}"
    if t is Triple:
        return f"{{{pretty_asn(a.pre, 0)}}} {pretty_expr(a.code)} " \
               f"{{{pretty_asn(a.post, 0)}}}"
    if t is RelVar:
        if a.args:
            return f"{a.name}({', '.join(pretty_expr(e) for e in a.args)})"
        return a.name
    raise TypeError(f"not an assertion: {a!r}")


def pretty(ast) -> str:
    """Render an AST back to concrete syntax; parse(pretty(a)) == a."""
    t = type(ast)
    if t in (IntLit, Var, BinOp, Quote, ValueLit):
        return pretty_expr(ast)
    if t in (Assign, LetDeref, EvalAt, LetNew, Free, Skip, Seq, If):
        return pretty_cmd(ast)
    return pretty_asn(ast)
