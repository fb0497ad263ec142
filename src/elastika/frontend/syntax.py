"""Source language: lexer, LL(1) recursive-descent parser, static checks.

The language is a small CSP-style process notation.  See docs/grammar.md
for the grammar, the width rules and the subset restrictions; the three
shipped benchmark sources are the normative examples.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Union

from ..ir import MAX_WIDTH


class FrontendError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


class SyntaxError(FrontendError):
    pass


class UndeclaredName(FrontendError):
    pass


class ParConflict(FrontendError):
    pass


# ---------------------------------------------------------------------------
# Tokens

_KEYWORDS = {"module", "in", "out", "var", "chan", "loop", "while", "if",
             "else", "case", "of", "for", "skip"}

# The lexical section of docs/grammar.md, one alternative per token class;
# two-character punctuation comes before the one-character marks it starts
# with.  Only ASCII is accepted outside comments.
_TOKEN = re.compile(
    r"(?P<nl>\n)|(?P<blank>[ \t\r]+|#[^\n]*)"
    r"|(?P<hex>0[xX][0-9a-fA-F]*)|(?P<num>[0-9]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>\|\||:=|\.\.|==|!=|<=|>=|<<|>>|[(){}\[\];:?!<>+\-*&|^~,])")


@dataclass(eq=False)
class Token:
    """One lexeme with the position of its first character."""
    type: str  # 'ident' | 'num' | 'kw' | punct literal | 'eof'
    value: Union[str, int]
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, bol = 0, 1, 0  # bol: index where the current line begins
    while i < len(text):
        m = _TOKEN.match(text, i)
        col = i - bol + 1
        if m is None:
            raise SyntaxError(f"unexpected character {text[i]!r}", line, col)
        kind, word, i = m.lastgroup, m.group(), m.end()
        if kind == "nl":
            line, bol = line + 1, i
        elif kind == "hex" or kind == "num":
            if word in ("0x", "0X"):
                raise SyntaxError("malformed hex literal", line, col)
            # No width holds 2**MAX_WIDTH, a number of 155 digits, so the
            # first 156 digits of a longer decimal literal are enough; int()
            # would refuse more than 4,300 of them.
            value = (int(word, 16) if kind == "hex"
                     else int(word.lstrip("0")[:156] or "0"))
            if value >> MAX_WIDTH:
                raise SyntaxError(f"literal wider than {MAX_WIDTH} bits", line, col)
            toks.append(Token("num", value, line, col))
        elif kind == "ident":
            toks.append(Token("kw" if word in _KEYWORDS else "ident", word, line, col))
        elif kind == "punct":
            toks.append(Token(word, word, line, col))
    toks.append(Token("eof", "", line, i - bol + 1))
    return toks


# ---------------------------------------------------------------------------
# AST

@dataclass(eq=False)
class Pos:
    """A 1-based line and column in the source text."""
    line: int
    col: int


@dataclass(eq=False)
class Num:
    """An integer literal."""
    value: int
    pos: Pos


@dataclass(eq=False)
class Name:
    """A variable, channel or port read in an expression."""
    ident: str
    pos: Pos


@dataclass(eq=False)
class BinOp:
    """A binary operator; ``op`` is its Operator function name."""
    op: str
    a: "Expr"
    b: "Expr"
    pos: Pos


@dataclass(eq=False)
class UnOp:
    """A unary operator: ``neg`` or ``not``."""
    op: str
    a: "Expr"
    pos: Pos


Expr = Union[Num, Name, BinOp, UnOp]


@dataclass(eq=False)
class Skip:
    """The statement that does nothing."""
    pos: Pos


@dataclass(eq=False)
class Assign:
    """``var := expr``."""
    var: str
    expr: Expr
    pos: Pos


@dataclass(eq=False)
class Send:
    """``chan ! expr``."""
    chan: str
    expr: Expr
    pos: Pos


@dataclass(eq=False)
class Receive:
    """``chan ? var``."""
    chan: str
    var: str
    pos: Pos


@dataclass(eq=False)
class Seq:
    """Statements run one after another."""
    parts: tuple
    pos: Pos


@dataclass(eq=False)
class Par:
    """Statements run in parallel."""
    branches: tuple
    pos: Pos


@dataclass(eq=False)
class LoopStmt:
    """The top-level body, repeated forever."""
    body: "Stmt"
    pos: Pos


@dataclass(eq=False)
class WhileStmt:
    """``while cond { body }``."""
    cond: Expr
    body: "Stmt"
    pos: Pos


@dataclass(eq=False)
class IfStmt:
    """``if cond { then } else { els }``."""
    cond: Expr
    then: "Stmt"
    els: "Stmt"
    pos: Pos


@dataclass(eq=False)
class CaseStmt:
    """``case sel of { ... }``, with generated arms unrolled."""
    sel: Expr
    arms: tuple  # of (value, Stmt)
    pos: Pos


Stmt = Union[Skip, Assign, Send, Receive, Seq, Par, LoopStmt, WhileStmt,
             IfStmt, CaseStmt]


@dataclass(eq=False)
class PortDecl:
    """One module port; an array port declares one per element."""
    name: str
    dir: str
    width: int


@dataclass(eq=False)
class SourceModule:
    """A parsed module; ``parse`` fills the checker's fields."""
    name: str
    ports: list[PortDecl]
    vars: dict[str, int]   # name -> width
    chans: dict[str, int]  # name -> width
    body: Stmt
    # Filled by the checker:
    widths: dict[Expr, int] = field(default_factory=dict)  # node -> width
    reads: dict[str, int] = field(default_factory=dict)   # var -> read sites
    writes: dict[str, int] = field(default_factory=dict)  # var -> write sites


# ---------------------------------------------------------------------------
# Parser

# Binary operator precedence, loosest first.  Bitwise ops bind looser than
# comparisons, so masks want parentheses: (q & 1) == 1.
_BIN_LEVELS = [
    ["|"], ["^"], ["&"],
    ["==", "!="],
    ["<", ">", "<=", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*"],
]

# Parentheses and braces open at once inside a module body, at most.  The
# parser refuses one more where it is opened, so the refusal does not
# depend on the caller's stack; at this depth a program still compiles
# with 400 frames of Python's default recursion limit already in use.
MAX_NESTING = 48

# Port-array elements and generated `case` arms a program may unroll, in
# all.  A range that would pass it is refused before it is unrolled; a
# `for` inside a generated arm counts again each time its arm is parsed.
MAX_UNROLL = 4096

_BIN_FN = {"|": "or", "^": "xor", "&": "and", "==": "eq", "!=": "ne",
           "<": "lt", ">": "gt", "<=": "le", ">=": "ge",
           "<<": "shl", ">>": "shr", "+": "add", "-": "sub", "*": "mul"}


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0
        # Generator variables of the enclosing ``for`` arms -> this arm's value.
        self.bound: dict[str, int] = {}
        self.depth = 0   # brackets open in the module body
        self.unrolled = 0   # port-array elements and generated arms

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, type_: str, what: str = "") -> Token:
        tok = self.next()
        if tok.type != type_:
            raise SyntaxError(
                f"expected {what or type_}, got {tok.value!r}", tok.line, tok.col)
        return tok

    def expect_kw(self, word: str) -> Token:
        tok = self.next()
        if tok.type != "kw" or tok.value != word:
            raise SyntaxError(f"expected {word!r}, got {tok.value!r}", tok.line, tok.col)
        return tok

    def open(self, tok: Token) -> None:
        """Counts the bracket ``tok``, just consumed, as open; refuses it
        past MAX_NESTING.  ``shut`` counts its partner."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise SyntaxError(f"program nested too deeply: more than "
                              f"{MAX_NESTING} parentheses and braces open",
                              tok.line, tok.col)

    def unroll(self, lo: int, hi: int, tok: Token) -> range:
        """The range lo..hi (hi >= lo) that ``tok`` starts, counted against
        MAX_UNROLL; refused at ``tok`` when the count passes it."""
        self.unrolled += hi - lo + 1
        if self.unrolled > MAX_UNROLL:
            raise SyntaxError(f"program unrolls more than {MAX_UNROLL} "
                              f"port-array elements and generated arms",
                              tok.line, tok.col)
        return range(lo, hi + 1)

    def shut(self, type_: str) -> None:
        self.expect(type_)
        self.depth -= 1

    def pos(self) -> Pos:
        tok = self.peek()
        return Pos(tok.line, tok.col)

    # -- declarations

    def module(self) -> SourceModule:
        self.expect_kw("module")
        name = self.expect("ident", "module name").value
        self.expect("(")
        ports: list[PortDecl] = []
        if self.peek().type != ")":
            ports.extend(self.portdecl())
            while self.peek().type == ";":
                self.next()
                ports.extend(self.portdecl())
        self.expect(")")
        self.expect("{")
        vars_: dict[str, int] = {}
        chans: dict[str, int] = {}
        while self.peek().type == "kw" and self.peek().value in ("var", "chan"):
            tok = self.next()
            ident = self.expect("ident").value
            self.expect(":")
            width = self._width()
            self.expect(";")
            table = vars_ if tok.value == "var" else chans
            if ident in table:
                raise SyntaxError(f"duplicate declaration {ident}", tok.line, tok.col)
            table[ident] = width
        body = self.stmt()
        self.expect("}")
        self.expect("eof")
        return SourceModule(str(name), ports, vars_, chans, body)

    def portdecl(self) -> list[PortDecl]:
        tok = self.next()
        if tok.type != "kw" or tok.value not in ("in", "out"):
            raise SyntaxError("expected 'in' or 'out'", tok.line, tok.col)
        direction = tok.value
        ident = self.expect("ident").value
        lo = hi = None
        if self.peek().type == "[":
            self.next()
            lo = self.expect("num").value
            self.expect("..")
            hi = self.expect("num").value
            self.expect("]")
            if hi < lo:
                raise SyntaxError("array range upper bound below lower", tok.line, tok.col)
            elements = self.unroll(lo, hi, tok)
        self.expect(":")
        width = self._width()
        if lo is None:
            return [PortDecl(str(ident), direction, width)]
        return [PortDecl(f"{ident}[{k}]", direction, width) for k in elements]

    def _width(self) -> int:
        tok = self.expect("num", "width")
        if tok.value > MAX_WIDTH:
            raise SyntaxError(f"width out of range 0..{MAX_WIDTH}", tok.line, tok.col)
        return tok.value

    # -- statements

    def stmt(self) -> Stmt:
        pos = self.pos()
        parts = [self.par()]
        while self.peek().type == ";":
            self.next()
            parts.append(self.par())
        return parts[0] if len(parts) == 1 else Seq(tuple(parts), pos)

    def par(self) -> Stmt:
        pos = self.pos()
        branches = [self.piece()]
        while self.peek().type == "||":
            self.next()
            branches.append(self.piece())
        return branches[0] if len(branches) == 1 else Par(tuple(branches), pos)

    def piece(self) -> Stmt:
        tok = self.peek()
        pos = Pos(tok.line, tok.col)
        if tok.type == "{":
            self.open(self.next())
            inner = self.stmt()
            self.shut("}")
            return inner
        if tok.type == "kw":
            if tok.value == "skip":
                self.next()
                return Skip(pos)
            if tok.value == "loop":
                self.next()
                return LoopStmt(self.block(), pos)
            if tok.value == "while":
                self.next()
                cond = self.expr()
                return WhileStmt(cond, self.block(), pos)
            if tok.value == "if":
                self.next()
                cond = self.expr()
                then = self.block()
                self.expect_kw("else")
                return IfStmt(cond, then, self.block(), pos)
            if tok.value == "case":
                self.next()
                sel = self.expr()
                self.expect_kw("of")
                self.open(self.expect("{"))
                arms: list[tuple[int, Stmt]] = []
                while self.peek().type != "}":
                    arms.extend(self.arm())
                self.shut("}")
                if not arms:
                    raise SyntaxError("case with no arms", pos.line, pos.col)
                return CaseStmt(sel, tuple(arms), pos)
            raise SyntaxError(f"unexpected keyword {tok.value!r}", tok.line, tok.col)
        if tok.type == "ident":
            first = self.i
            base = self.next().value
            name = str(base)
            if self.peek().type == "[":
                self.next()
                name = f"{base}[{self._index()}]"
            nxt = self.next()
            if nxt.type == "?":
                target = self.expect("ident", "receive target variable")
                return Receive(name, str(target.value), pos)
            if nxt.type == "!":
                return Send(name, self.expr(), pos)
            if nxt.type == ":=":
                if name != base:
                    raise SyntaxError("cannot assign to an indexed name", pos.line, pos.col)
                return Assign(name, self.expr(), pos)
            # Name the channel as written, before any generator value.
            written = "".join(str(t.value) for t in self.toks[first:self.i - 1])
            raise SyntaxError(f"expected '?', '!' or ':=' after {written}",
                              nxt.line, nxt.col)
        raise SyntaxError(f"unexpected token {tok.value!r}", tok.line, tok.col)

    def block(self) -> Stmt:
        self.open(self.expect("{"))
        inner = self.stmt()
        self.shut("}")
        return inner

    def _index(self) -> str:
        """Bracket index: a literal, or a generator variable, which reads as
        its bound value.  Consumes through the closing bracket."""
        tok = self.next()
        if tok.type not in ("num", "ident"):
            raise SyntaxError("expected index number or generator variable",
                              tok.line, tok.col)
        self.expect("]")
        return str(self.bound.get(tok.value, tok.value))

    def arm(self) -> list[tuple[int, Stmt]]:
        tok = self.peek()
        if tok.type == "kw" and tok.value == "for":
            self.next()
            var = self.expect("ident", "generator variable").value
            self.expect_kw("in")
            lo = self.expect("num").value
            self.expect("..")
            hi = self.expect("num").value
            if hi < lo:
                raise SyntaxError("generator range upper bound below lower",
                                  tok.line, tok.col)
            values = self.unroll(lo, hi, tok)
            self.open(self.expect("{"))
            # Parse the body once per value, with the variable bound to it,
            # so each generated arm has nodes of its own.
            start, outer, arms = self.i, self.bound, []
            for k in values:
                self.i, self.bound = start, {**outer, str(var): k}
                arms.append((k, self.stmt()))
                self.expect("}")
            self.depth -= 1
            self.bound = outer
            return arms
        value = self.expect("num", "case arm value").value
        self.expect(":")
        return [(int(value), self.block())]

    # -- expressions

    def expr(self, level: int = 0) -> Expr:
        if level == len(_BIN_LEVELS):
            return self.unary()
        pos = self.pos()
        left = self.expr(level + 1)
        while self.peek().type in _BIN_LEVELS[level]:
            op = self.next().type
            right = self.expr(level + 1)
            left = BinOp(_BIN_FN[op], left, right, pos)
        return left

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.type == "-":
            self.next()
            return UnOp("neg", self.unary(), Pos(tok.line, tok.col))
        if tok.type == "~":
            self.next()
            return UnOp("not", self.unary(), Pos(tok.line, tok.col))
        return self.primary()

    def primary(self) -> Expr:
        tok = self.next()
        pos = Pos(tok.line, tok.col)
        if tok.type == "num":
            return Num(int(tok.value), pos)
        if tok.type == "ident":
            name = str(tok.value)
            if self.peek().type == "[":
                self.next()
                return Name(f"{name}[{self._index()}]", pos)
            if name in self.bound:
                return Num(self.bound[name], pos)
            return Name(name, pos)
        if tok.type == "(":
            self.open(tok)
            inner = self.expr()
            self.shut(")")
            return inner
        raise SyntaxError(f"unexpected token {tok.value!r} in expression",
                          tok.line, tok.col)


# ---------------------------------------------------------------------------
# Static checks

class _Checker:
    def __init__(self, mod: SourceModule):
        self.mod = mod
        self.ports = {p.name: p for p in mod.ports}
        self.widths: dict[Expr, int] = {}
        # site counts: name -> number of sites
        self.var_writes: dict[str, int] = dict.fromkeys(mod.vars, 0)
        self.var_reads: dict[str, int] = dict.fromkeys(mod.vars, 0)
        self.chan_sends: dict[str, int] = dict.fromkeys(mod.chans, 0)
        self.chan_recvs: dict[str, int] = dict.fromkeys(mod.chans, 0)
        for p in mod.ports:
            if p.dir == "in":
                self.chan_recvs[p.name] = 0
            else:
                self.chan_sends[p.name] = 0

    def run(self) -> None:
        names = Counter([*self.mod.vars, *self.mod.chans,
                         *(p.name for p in self.mod.ports)])
        dupes = [n for n, count in names.items() if count > 1]
        if dupes:
            raise SyntaxError(f"name declared twice: {min(dupes)}")
        self.check_stmt(self.mod.body, top=True)
        for name, sites in self.chan_sends.items():
            if sites != 1:
                kind = "channel" if name in self.mod.chans else "output port"
                raise ParConflict(
                    f"{kind} {name} needs exactly one send site, found {sites}")
        for name, sites in self.chan_recvs.items():
            if sites != 1:
                kind = "channel" if name in self.mod.chans else "input port"
                raise ParConflict(
                    f"{kind} {name} needs exactly one consuming site, found {sites}")
        for name, sites in self.var_writes.items():
            if not sites:
                raise UndeclaredName(f"variable {name} is never written")
        for name, sites in self.var_reads.items():
            if not sites:
                raise UndeclaredName(f"variable {name} is never read")
        self.mod.widths = self.widths
        self.mod.reads = self.var_reads
        self.mod.writes = self.var_writes

    # Effects of a statement, for the Par conflict rule.
    def check_stmt(self, st: Stmt, top: bool = False) -> tuple[set, set]:
        writes: set[str] = set()
        sends: set[str] = set()
        if isinstance(st, Skip):
            pass
        elif isinstance(st, Assign):
            if st.var not in self.mod.vars:
                raise UndeclaredName(f"assignment to undeclared variable {st.var}",
                                     st.pos.line, st.pos.col)
            w = self.expr_width(st.expr, self.mod.vars[st.var])
            if w != self.mod.vars[st.var]:
                raise SyntaxError(
                    f"width {w} expression assigned to {st.var}:{self.mod.vars[st.var]}",
                    st.pos.line, st.pos.col)
            self.var_writes[st.var] += 1
            writes.add(st.var)
        elif isinstance(st, Send):
            width = self._chan_width(st.chan, st.pos, sending=True)
            w = self.expr_width(st.expr, width)
            if w != width:
                raise SyntaxError(f"width {w} expression sent on {st.chan}:{width}",
                                  st.pos.line, st.pos.col)
            self.chan_sends[st.chan] += 1
            sends.add(st.chan)
        elif isinstance(st, Receive):
            width = self._chan_width(st.chan, st.pos, sending=False)
            if st.var not in self.mod.vars:
                raise UndeclaredName(f"receive into undeclared variable {st.var}",
                                     st.pos.line, st.pos.col)
            if self.mod.vars[st.var] != width:
                raise SyntaxError(
                    f"receive {st.chan}:{width} into {st.var}:{self.mod.vars[st.var]}",
                    st.pos.line, st.pos.col)
            self.chan_recvs[st.chan] += 1
            self.var_writes[st.var] += 1
            writes.add(st.var)
        elif isinstance(st, Seq):
            for part in st.parts:
                w, s = self.check_stmt(part)
                writes |= w
                sends |= s
        elif isinstance(st, Par):
            claimed_w: dict[str, int] = {}
            claimed_s: dict[str, int] = {}
            for k, br in enumerate(st.branches):
                w, s = self.check_stmt(br)
                for name in w:
                    if name in claimed_w:
                        raise ParConflict(
                            f"variable {name} written by two parallel branches",
                            st.pos.line, st.pos.col)
                    claimed_w[name] = k
                for name in s:
                    if name in claimed_s:
                        raise ParConflict(
                            f"channel {name} sent by two parallel branches",
                            st.pos.line, st.pos.col)
                    claimed_s[name] = k
                writes |= w
                sends |= s
        elif isinstance(st, LoopStmt):
            if not top:
                raise SyntaxError("loop is only allowed as the outermost statement",
                                  st.pos.line, st.pos.col)
            w, s = self.check_stmt(st.body)
            writes |= w
            sends |= s
        elif isinstance(st, WhileStmt):
            if self.expr_width(st.cond, 1) != 1:
                raise SyntaxError("while condition must have width 1",
                                  st.pos.line, st.pos.col)
            w, s = self.check_stmt(st.body)
            writes |= w
            sends |= s
        elif isinstance(st, IfStmt):
            if self.expr_width(st.cond, 1) != 1:
                raise SyntaxError("if condition must have width 1",
                                  st.pos.line, st.pos.col)
            for branch in (st.then, st.els):
                w, s = self.check_stmt(branch)
                writes |= w
                sends |= s
        elif isinstance(st, CaseStmt):
            k = self.expr_width(st.sel, None)
            if len(st.arms) < 2:
                raise SyntaxError("case needs at least two arms",
                                  st.pos.line, st.pos.col)
            seen_vals: set[int] = set()
            for value, arm in st.arms:
                if value in seen_vals:
                    raise SyntaxError(f"duplicate case arm value {value}",
                                      st.pos.line, st.pos.col)
                seen_vals.add(value)
                if value >= (1 << k):
                    raise SyntaxError(
                        f"case arm value {value} does not fit selector width {k}",
                        st.pos.line, st.pos.col)
                w, s = self.check_stmt(arm)
                writes |= w
                sends |= s
        else:
            raise TypeError(f"unknown statement {st!r}")
        return writes, sends

    def _chan_width(self, name: str, pos: Pos, sending: bool) -> int:
        if name in self.mod.chans:
            return self.mod.chans[name]
        port = self.ports.get(name)
        if port is None:
            raise UndeclaredName(f"undeclared channel {name}", pos.line, pos.col)
        if sending and port.dir != "out":
            raise SyntaxError(f"cannot send on input port {name}", pos.line, pos.col)
        if not sending and port.dir != "in":
            raise SyntaxError(f"cannot receive from output port {name}",
                              pos.line, pos.col)
        return port.width

    def expr_width(self, e: Expr, context: Optional[int]) -> int:
        w = self._width_of(e, context)
        self.widths[e] = w
        return w

    def _width_of(self, e: Expr, context: Optional[int]) -> int:
        if isinstance(e, Num):
            w = context if context is not None else max(1, e.value.bit_length())
            if e.value >= (1 << w):
                raise SyntaxError(f"literal {e.value} does not fit width {w}",
                                  e.pos.line, e.pos.col)
            return w
        if isinstance(e, Name):
            if e.ident in self.mod.vars:
                self.var_reads[e.ident] += 1
                return self.mod.vars[e.ident]
            if e.ident in self.mod.chans:
                self.chan_recvs[e.ident] += 1
                return self.mod.chans[e.ident]
            port = self.ports.get(e.ident)
            if port is not None:
                if port.dir != "in":
                    raise SyntaxError(f"output port {e.ident} read in expression",
                                      e.pos.line, e.pos.col)
                self.chan_recvs[e.ident] += 1
                return port.width
            raise UndeclaredName(f"undeclared name {e.ident}", e.pos.line, e.pos.col)
        if isinstance(e, UnOp):
            w = self.expr_width(e.a, context)
            return w
        if isinstance(e, BinOp):
            if e.op in ("eq", "ne", "lt", "gt", "le", "ge"):
                wa = self.expr_width(e.a, None)
                wb = self.expr_width(e.b, wa)
                if isinstance(e.a, Num) and not isinstance(e.b, Num):
                    wa = self.expr_width(e.a, wb)
                if wa != wb:
                    raise SyntaxError(f"comparison of widths {wa} and {wb}",
                                      e.pos.line, e.pos.col)
                return 1
            if e.op in ("shl", "shr"):
                wa = self.expr_width(e.a, context)
                self.expr_width(e.b, max(1, wa.bit_length()))
                return wa
            wa = self.expr_width(e.a, context)
            wb = self.expr_width(e.b, context if not isinstance(e.b, Num) else wa)
            if isinstance(e.a, Num) and not isinstance(e.b, Num):
                wa = self.expr_width(e.a, wb)
            if wa != wb:
                raise SyntaxError(f"operands of widths {wa} and {wb}",
                                  e.pos.line, e.pos.col)
            return max(wa, wb)
        raise TypeError(f"unknown expression {e!r}")


def parse(text: str) -> SourceModule:
    """Parse and check a source module; raises SyntaxError, UndeclaredName or
    ParConflict with position information on bad input.  A program with
    more than MAX_NESTING parentheses and braces open at once is a
    SyntaxError at the bracket that opens one too many; one nested deeper
    than the parser or checker can recurse otherwise (a long chain of
    operators, say) is a SyntaxError without a position."""
    try:
        mod = _Parser(tokenize(text)).module()
        # A top-level body that is not already a loop repeats forever,
        # matching the activation model of generated top-level modules.
        if not isinstance(mod.body, LoopStmt):
            mod.body = LoopStmt(mod.body, Pos(0, 0))
        _Checker(mod).run()
    except RecursionError:
        raise SyntaxError("program nested too deeply") from None
    return mod
