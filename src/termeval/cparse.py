"""Parser and value semantics for the C subset found in desk-scale termination tasks.

The subset covers integer scalar declarations, assignments (plain, compound,
increment/decrement), ``if``/``else``, ``while``, ``for``, ``return``, and
calls to ``__VERIFIER_nondet_{int,char,short,long,uint,bool}``.  Anything
else (pointers, arrays, heap, goto, user function calls, ...) is classified
as :class:`UnsupportedConstruct` rather than raising: callers route such
programs to an external validator instead.

All arithmetic is two's-complement at the declared width with wraparound;
``/`` and ``%`` use C truncated semantics (sign follows the dividend).
"""

from __future__ import annotations

import contextlib
import functools
import re
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

# ---------------------------------------------------------------------------
# Types and values


@dataclass(frozen=True)
class CType:
    name: str
    width: int
    signed: bool

    @property
    def min(self) -> int:
        return -(1 << (self.width - 1)) if self.signed else 0

    @property
    def max(self) -> int:
        return (1 << (self.width - 1)) - 1 if self.signed else (1 << self.width) - 1


CHAR = CType("char", 8, True)
UCHAR = CType("unsigned char", 8, False)
SHORT = CType("short", 16, True)
USHORT = CType("unsigned short", 16, False)
INT = CType("int", 32, True)
UINT = CType("unsigned int", 32, False)
LONG = CType("long", 64, True)
ULONG = CType("unsigned long", 64, False)
# the `typedef enum {false,true} bool;` pattern: an int-backed type
BOOL = CType("bool", 32, True)

NONDET_TYPES = {
    "__VERIFIER_nondet_int": INT,
    "__VERIFIER_nondet_char": CHAR,
    "__VERIFIER_nondet_short": SHORT,
    "__VERIFIER_nondet_long": LONG,
    "__VERIFIER_nondet_uint": UINT,
    "__VERIFIER_nondet_bool": BOOL,
}


class EvalUndefined(Exception):
    """Raised when evaluation hits C undefined behaviour (division by zero,
    out-of-range shift). Callers decide how to treat the affected run."""


def wrap(value: int, ctype: CType) -> int:
    """Reduce ``value`` into ``ctype``'s two's-complement range."""
    m = value & ((1 << ctype.width) - 1)
    if ctype.signed and m >= 1 << (ctype.width - 1):
        m -= 1 << ctype.width
    return m


def promote(t: CType) -> CType:
    """C integer promotion: anything narrower than int becomes int."""
    return INT if t.width < 32 else t


def usual_arithmetic_type(a: CType, b: CType) -> CType:
    """Usual arithmetic conversions, restricted to 32/64-bit integer ranks."""
    a, b = promote(a), promote(b)
    if a.width == b.width:
        if a.signed == b.signed:
            return a
        return UINT if a.width == 32 else ULONG
    # the wider operand's type wins: long holds every unsigned int value,
    # and int converts to unsigned long
    return a if a.width > b.width else b


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class IntLit:
    value: int
    ctype: CType = INT


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # -, ~, !
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


Expr = IntLit | Var | Unary | Binary


@dataclass
class Decl:
    name: str
    ctype: CType
    init: Expr | None
    line: int


@dataclass
class Assign:
    name: str
    expr: Expr
    line: int


@dataclass
class NondetAssign:
    name: str
    ctype: CType
    line: int


@dataclass
class If:
    cond: Expr
    then_body: list["Stmt"]
    else_body: list["Stmt"]
    line: int


@dataclass
class While:
    cond: Expr
    body: list["Stmt"]
    line: int


@dataclass
class Return:
    expr: Expr | None
    line: int


@dataclass
class Block:
    stmts: list["Stmt"]
    line: int


Stmt = Decl | Assign | NondetAssign | If | While | Return | Block


@dataclass
class FunctionDef:
    params: list[Decl]  # without initialisers, on the function's line
    body: list[Stmt]


@dataclass
class Program:
    functions: dict[str, FunctionDef]
    nondet_vars: list[NondetAssign]  # main's nondet call sites, in source order
    globals: list[Decl]
    # declared type of every variable of main and of the globals
    types: dict[str, CType]


@dataclass
class UnsupportedConstruct:
    line: int
    construct: str

    def __str__(self) -> str:
        return f"unsupported construct at line {self.line}: {self.construct}"


class CParseError(Exception):
    """A text that is not C of the subset.  ``offset`` is the 0-based offset
    in the source of the character or token at fault, where the tokenizer or
    the expression parser raised it, and ``None`` elsewhere."""

    def __init__(self, message: str, line: int, offset: int | None = None):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line
        self.offset = offset


class _Unsupported(Exception):
    def __init__(self, line: int, construct: str):
        self.line = line
        self.construct = construct


# ---------------------------------------------------------------------------
# Lexer

_KEYWORDS = {
    "int", "char", "short", "long", "signed", "unsigned", "void", "bool",
    "if", "else", "while", "for", "return", "typedef", "enum", "extern",
    "const", "true", "false",
    # recognized so they classify as unsupported instead of misparsing
    "do", "break", "continue", "goto", "switch", "case", "default",
    "struct", "union", "float", "double", "static", "sizeof",
}

_PUNCT = [
    "<<=", ">>=", "...",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "->",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "~", "&", "|", "^",
    "(", ")", "{", "}", ";", ",", "[", "]", "?", ":", ".",
]


class Token(NamedTuple):
    kind: str  # 'ident', 'num', 'punct', 'keyword', 'string', 'eof'
    text: str
    line: int
    offset: int  # of the token's first character in the source
    value: int | None = None
    ctype: CType | None = None


def _literal_type(value: int, is_decimal: bool, suffix: str) -> CType:
    suffix = suffix.lower()
    unsigned = "u" in suffix
    wants_long = "l" in suffix
    if unsigned:
        candidates = [ULONG] if wants_long else [UINT, ULONG]
    elif is_decimal:
        # decimal constants without 'u' stay signed
        candidates = [LONG] if wants_long else [INT, LONG]
    else:
        candidates = [LONG, ULONG] if wants_long else [INT, UINT, LONG, ULONG]
    for t in candidates:
        if t.min <= value <= t.max:
            return t
    raise ValueError(f"{value} fits no {candidates[-1].name}")


def int_constant(text: str, suffix: str = "") -> tuple[int, CType]:
    """Value and C type of an integer constant: ``0x`` starts a hexadecimal
    one and any other leading ``0`` an octal one.  Raises ``ValueError`` on
    a digit outside the base or on a value too large for every type the
    constant may take."""
    if len(text) > 1 and text[0] == "0":
        value = int(text, 16 if text[1] in "xX" else 8)
        return value, _literal_type(value, False, suffix)
    # 21 digits exceed 2**64; int() takes time quadratic in decimal digits
    if len(text) > 20:
        raise ValueError(f"{text[:24]}... fits no type")
    value = int(text)
    return value, _literal_type(value, True, suffix)


# One alternation for every token and every run of skipped text, after any
# blanks, tried in order: comments before the punctuator '/', punctuators
# longest first as _PUNCT is ordered.  It is matched in place with
# ``.match(source, i)``: slicing off the rest of the source for each token
# would make tokenizing quadratic in its length.
_LEXEME_RE = re.compile(r"""[ \t\r\f\v]*(?:
    (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<num>(?:0[xX][0-9a-fA-F]+|[0-9]+)[uUlL]*)
  | (?P<skip>//[^\n]*|\#[^\n]*)     # a line comment or a preprocessor line
  | (?P<comment>/\*[\s\S]*?\*/)
  | (?P<string>"(?:[^"\\]|\\[\s\S])*"|'(?:[^'\\]|\\[\s\S])*')
  | (?P<unterminated>/\*|["'])
  | (?P<punct>""" + "|".join(map(re.escape, _PUNCT)) + r""")
  | (?P<space>\n[ \t\n\r\f\v]*|\Z)
)""", re.VERBOSE)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    match = _LEXEME_RE.match
    i, n, line = 0, len(source), 1
    while i < n:
        m = match(source, i)
        if m is None:
            i = n - len(source[i:].lstrip(" \t\r\f\v"))
            raise CParseError(f"unexpected character {source[i]!r}", line, i)
        kind, end = m.lastgroup, m.end()
        i = m.start(kind)
        if kind == "ident":
            text = m.group(kind)
            tokens.append(Token("keyword" if text in _KEYWORDS else "ident",
                                text, line, i))
        elif kind == "punct":
            tokens.append(Token("punct", m.group(kind), line, i))
        elif kind == "space":
            line += source.count("\n", i, end)
        elif kind == "num":
            text = m.group(kind)
            digits = text.rstrip("uUlL")
            try:
                value, ctype = int_constant(digits, text[len(digits):])
            except ValueError:
                raise CParseError(
                    f"unsupported integer literal {digits[:24]!r}", line, i)
            tokens.append(Token("num", text, line, i, value, ctype))
        elif kind == "comment":
            line += source.count("\n", i, end)
        elif kind == "string":
            tokens.append(Token("string", m.group(kind), line, i))
        elif kind == "unterminated":
            raise CParseError("unterminated comment" if source[i] == "/"
                              else "unterminated string", line, i)
        i = end
    tokens.append(Token("eof", "", line, n))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_TYPE_KEYWORDS = {"int", "char", "short", "long", "signed", "unsigned", "bool", "void"}

_BINARY_PRECEDENCE = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]
# each binary operator's index in _BINARY_PRECEDENCE, loosest first
_BINARY_LEVEL = {op: level for level, ops in enumerate(_BINARY_PRECEDENCE)
                for op in ops}

# Parentheses and prefix operators recurse a few frames deep each, so the
# parser stops at this nesting, well inside Python's recursion limit.
MAX_EXPR_NESTING = 32
# Left-associative chains parse in a loop but compile recursively, one frame
# per tree level; expressions deeper than this are rejected.
MAX_EXPR_DEPTH = 256
# Statements nest by recursion (parse, scope check, lowering), so the parser
# stops here; the innermost may still hold an expression at MAX_EXPR_NESTING.
MAX_STMT_NESTING = 64

_COMPOUND_OPS = {"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
                 "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>"}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.nondet_sites: list[NondetAssign] = []  # the current function's
        self.main_sites: list[NondetAssign] = []
        self.nesting = 0
        self.stmt_nesting = 0

    # -- token helpers

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, text: str) -> Token | None:
        if self.peek().text == text and self.peek().kind in ("punct", "keyword"):
            return self.next()
        return None

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise CParseError(f"expected {text!r}, found {tok.text!r}", tok.line,
                              tok.offset)
        return tok

    # -- types

    def _at_type(self) -> bool:
        tok = self.peek()
        return tok.kind == "keyword" and tok.text in _TYPE_KEYWORDS

    def parse_type(self) -> CType | None:
        """Parse a type specifier; returns None for void."""
        words = []
        while self.peek().kind == "keyword" and self.peek().text in (
                _TYPE_KEYWORDS | {"const"}):
            w = self.next().text
            if w != "const":
                words.append(w)
        if not words:
            tok = self.peek()
            if tok.kind == "keyword" and tok.text in (
                    "float", "double", "struct", "union", "static"):
                raise _Unsupported(tok.line, f"type {tok.text}")
            raise CParseError("expected type", tok.line)
        if words == ["void"]:
            return None
        if words == ["bool"]:
            return BOOL
        unsigned = "unsigned" in words
        words = [w for w in words if w not in ("signed", "unsigned")]
        # the size word names the base type wherever it stands (`short int`)
        base = next((w for w in ("char", "short", "long") if w in words), "int")
        table = {
            "char": (UCHAR if unsigned else CHAR),
            "short": (USHORT if unsigned else SHORT),
            "int": (UINT if unsigned else INT),
            "long": (ULONG if unsigned else LONG),
        }
        if not set(words) <= set(table):
            raise CParseError(f"unsupported type {' '.join(words)}", self.peek().line)
        return table[base]

    # -- expressions

    def _nest(self, tok: Token) -> None:
        self.nesting += 1
        if self.nesting > MAX_EXPR_NESTING:
            raise CParseError(f"expression nested deeper than "
                              f"{MAX_EXPR_NESTING} levels", tok.line, tok.offset)

    def parse_expression(self) -> Expr:
        start, first = self.peek(), self.pos
        expr = self._parse_binary(0)
        # every node takes at least one token, so only a long expression
        # can be too deep
        if (self.pos - first > MAX_EXPR_DEPTH
                and expr_depth(expr) > MAX_EXPR_DEPTH):
            raise CParseError(f"expression deeper than {MAX_EXPR_DEPTH} levels",
                              start.line, start.offset)
        return expr

    def parse_whole_expression(self) -> Expr:
        """The expression that is every token left; an unsupported construct
        in it is a :class:`CParseError`."""
        try:
            expr = self.parse_expression()
        except _Unsupported as u:
            raise CParseError(f"unsupported in expression: {u.construct}",
                              u.line, self.peek().offset)
        tok = self.peek()
        if tok.kind != "eof":
            raise CParseError(f"trailing input {tok.text!r}", tok.line,
                              tok.offset)
        return expr

    def _parse_binary(self, min_level: int) -> Expr:
        """Precedence climbing: an operand, then every binary operator that
        binds at least as tightly as ``min_level``, left-associative."""
        expr = self._parse_unary()
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            level = _BINARY_LEVEL.get(tok.text) if tok.kind == "punct" else None
            if level is None or level < min_level:
                return expr
            self.pos += 1
            expr = Binary(tok.text, expr, self._parse_binary(level + 1))

    def _parse_unary(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok.kind == "punct":
            if tok.text in ("-", "~", "!", "+"):
                self.pos += 1
                self._nest(tok)
                operand = self._parse_unary()
                self.nesting -= 1
                return operand if tok.text == "+" else Unary(tok.text, operand)
            if tok.text in ("++", "--", "*", "&"):
                raise _Unsupported(tok.line, f"unary {tok.text} in expression")
        expr = self._parse_primary()
        tok = self.tokens[self.pos]
        if tok.kind == "punct" and tok.text in ("[", ".", "->", "++", "--"):
            raise _Unsupported(tok.line, f"postfix {tok.text}")
        return expr

    def _parse_primary(self) -> Expr:
        tok = self.next()
        if tok.kind == "num":
            return IntLit(tok.value, tok.ctype)
        if tok.kind == "keyword" and tok.text in ("true", "false"):
            return IntLit(1 if tok.text == "true" else 0, INT)
        if tok.kind == "ident":
            if self.peek().text == "(":
                raise _Unsupported(tok.line, f"call to {tok.text} in expression")
            return Var(tok.text)
        if tok.text == "(":
            if self._at_type():
                raise _Unsupported(tok.line, "cast expression")
            self._nest(tok)
            expr = self.parse_expression()
            self.nesting -= 1
            self.expect(")")
            if self.peek().text == "?":
                raise _Unsupported(tok.line, "conditional operator")
            return expr
        if tok.kind == "string":
            raise _Unsupported(tok.line, "string literal")
        raise CParseError(f"unexpected token {tok.text!r}", tok.line, tok.offset)

    # -- statements

    def _nondet_call(self, name: str, line: int) -> NondetAssign | None:
        """Match ``__VERIFIER_nondet_X()`` at the cursor; on a match, consume
        it and record the site ``name = __VERIFIER_nondet_X()`` on ``line``."""
        tok = self.peek()
        if tok.kind == "ident" and self.peek(1).text == "(" and self.peek(2).text == ")":
            if tok.text in NONDET_TYPES:
                self.next(), self.next(), self.next()
                site = NondetAssign(name, NONDET_TYPES[tok.text], line)
                self.nondet_sites.append(site)
                return site
            if tok.text.startswith("__VERIFIER_nondet_"):
                raise _Unsupported(tok.line, f"nondet type {tok.text}")
        return None

    def parse_statement(self) -> list[Stmt]:
        self.stmt_nesting += 1
        if self.stmt_nesting > MAX_STMT_NESTING:
            raise CParseError(f"statements nested deeper than "
                              f"{MAX_STMT_NESTING} levels", self.peek().line)
        stmts = self._parse_statement()
        self.stmt_nesting -= 1
        return stmts

    def _parse_statement(self) -> list[Stmt]:
        tok = self.peek()
        if tok.text == "{":
            line = self.next().line
            stmts = self.parse_block_body()
            return [Block(stmts, line)]
        if tok.text == ";":
            self.next()
            return []
        if tok.kind == "keyword":
            if tok.text == "if":
                return [self._parse_if()]
            if tok.text == "while":
                return [self._parse_while()]
            if tok.text == "for":
                return [self._parse_for()]
            if tok.text == "return":
                self.next()
                expr = None
                if self.peek().text != ";":
                    expr = self.parse_expression()
                self.expect(";")
                return [Return(expr, tok.line)]
            if tok.text in _TYPE_KEYWORDS:
                return self._parse_decl()
            raise _Unsupported(tok.line, tok.text)
        if tok.kind == "ident":
            stmt = self._parse_assignment()
            self.expect(";")
            return [stmt]
        raise CParseError(f"unexpected token {tok.text!r}", tok.line)

    def parse_block_body(self) -> list[Stmt]:
        stmts: list[Stmt] = []
        while self.peek().text != "}":
            if self.peek().kind == "eof":
                raise CParseError("unexpected end of input in block", self.peek().line)
            stmts.extend(self.parse_statement())
        self.expect("}")
        return stmts

    def _parse_body_or_stmt(self) -> list[Stmt]:
        if self.peek().text == "{":
            self.next()
            return self.parse_block_body()
        return self.parse_statement()

    def _parse_if(self) -> If:
        line = self.expect("if").line
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        then_body = self._parse_body_or_stmt()
        else_body: list[Stmt] = []
        if self.accept("else"):
            else_body = self._parse_body_or_stmt()
        return If(cond, then_body, else_body, line)

    def _parse_while(self) -> While:
        line = self.expect("while").line
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        return While(cond, self._parse_body_or_stmt(), line)

    def _parse_for(self) -> Block:
        """``for (init; cond; step) body`` read as ``{ init; while (cond)
        { { body } step; } }``: the step runs after the body, outside its
        scope, and a missing ``cond`` is ``1``."""
        line = self.expect("for").line
        self.expect("(")
        stmts: list[Stmt] = []
        if self._at_type():
            stmts = self._parse_decl(expect_semi=False)
        elif self.peek().text != ";":
            stmts.append(self._parse_assignment())
        self.expect(";")
        cond = IntLit(1) if self.peek().text == ";" else self.parse_expression()
        self.expect(";")
        step = [] if self.peek().text == ")" else [self._parse_assignment()]
        self.expect(")")
        body = [Block(self._parse_body_or_stmt(), line), *step]
        return Block([*stmts, While(cond, body, line)], line)

    def _parse_decl(self, expect_semi: bool = True) -> list[Stmt]:
        line = self.peek().line
        ctype = self.parse_type()
        if ctype is None:
            raise _Unsupported(line, "void variable")
        stmts: list[Stmt] = []
        while True:
            if self.peek().text == "*":
                raise _Unsupported(self.peek().line, "pointer declaration")
            name_tok = self.next()
            if name_tok.kind != "ident":
                raise CParseError(f"expected identifier, found {name_tok.text!r}",
                                  name_tok.line)
            if self.peek().text == "[":
                raise _Unsupported(self.peek().line, "array declaration")
            if self.accept("="):
                # the site of a nondet initialiser is on the call's line
                site = self._nondet_call(name_tok.text, self.peek().line)
                if site is not None:
                    stmts += [Decl(name_tok.text, ctype, None, name_tok.line), site]
                else:
                    stmts.append(Decl(name_tok.text, ctype,
                                      self.parse_expression(), name_tok.line))
            else:
                stmts.append(Decl(name_tok.text, ctype, None, name_tok.line))
            if not self.accept(","):
                break
        if expect_semi:
            self.expect(";")
        return stmts

    def _parse_assignment(self) -> Stmt:
        name_tok = self.next()
        line = name_tok.line
        name = name_tok.text
        tok = self.peek()
        if tok.text == "=":
            self.next()
            site = self._nondet_call(name, line)
            if site is not None:
                return site
            return Assign(name, self.parse_expression(), line)
        if tok.text in _COMPOUND_OPS:
            self.next()
            rhs = self.parse_expression()
            return Assign(name, Binary(_COMPOUND_OPS[tok.text], Var(name), rhs), line)
        if tok.text == "++":
            self.next()
            return Assign(name, Binary("+", Var(name), IntLit(1)), line)
        if tok.text == "--":
            self.next()
            return Assign(name, Binary("-", Var(name), IntLit(1)), line)
        if tok.text == "(":
            raise _Unsupported(line, f"call statement {name}(...)")
        raise _Unsupported(line, f"statement starting with {name!r}")

    # -- top level

    def parse_program(self) -> Program:
        functions: dict[str, FunctionDef] = {}
        globals_: list[Decl] = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text == "typedef":
                self._parse_typedef()
                continue
            if tok.text == "extern":
                self._parse_extern()
                continue
            if self._at_type():
                self._parse_type_lead(functions, globals_)
                continue
            raise _Unsupported(tok.line, f"top-level {tok.text!r}")
        if "main" not in functions:
            raise CParseError("no main function", self.peek().line)
        types = {name: _scoped_types(globals_, fn)
                 for name, fn in functions.items()}
        return Program(functions, self.main_sites, globals_, types["main"])

    def _parse_typedef(self) -> None:
        line = self.expect("typedef").line
        if self.peek().text == "enum":
            # the `typedef enum {false,true} bool;` idiom
            self.next()
            self.expect("{")
            names = []
            while self.peek().text != "}":
                t = self.next()
                if t.kind not in ("ident", "keyword"):
                    raise CParseError("bad enum member", t.line)
                names.append(t.text)
                self.accept(",")
            self.expect("}")
            alias = self.next()
            self.expect(";")
            if alias.text == "bool" and names[:2] == ["false", "true"]:
                return
            raise _Unsupported(line, f"typedef enum {alias.text}")
        raise _Unsupported(line, "typedef")

    def _parse_extern(self) -> None:
        line = self.expect("extern").line
        self.parse_type()
        name = self.next()
        if name.kind != "ident":
            raise CParseError("expected identifier after extern type", name.line)
        if self.accept("("):
            depth = 1
            while depth:
                t = self.next()
                if t.kind == "eof":
                    raise CParseError("unterminated extern declaration", line)
                depth += {"(": 1, ")": -1}.get(t.text, 0)
            self.expect(";")
            return
        raise _Unsupported(line, "extern variable")

    def _parse_type_lead(self, functions: dict[str, FunctionDef],
                         globals_: list[Decl]) -> None:
        start = self.pos
        self.parse_type()
        name = self.peek()
        if name.kind != "ident":
            raise CParseError(f"expected identifier, found {name.text!r}", name.line)
        if self.peek(1).text == "(":
            self.next()
            self.expect("(")
            params: list[Decl] = []
            if self.peek().text != ")":
                if self.peek().text == "void" and self.peek(1).text == ")":
                    self.next()
                else:
                    while True:
                        ptype = self.parse_type()
                        ptok = self.next()
                        if ptok.kind != "ident":
                            raise _Unsupported(ptok.line, "unnamed parameter")
                        if ptype is None:
                            raise _Unsupported(ptok.line, "void parameter")
                        params.append(Decl(ptok.text, ptype, None, name.line))
                        if not self.accept(","):
                            break
            self.expect(")")
            if self.accept(";"):
                return
            self.expect("{")
            # only main runs, so only its calls are sites
            self.nondet_sites = []
            body = self.parse_block_body()
            functions[name.text] = FunctionDef(params, body)
            if name.text == "main":
                self.main_sites = self.nondet_sites
            return
        # global variable declaration(s)
        self.pos = start
        decls = self._parse_decl()
        for d in decls:
            if isinstance(d, Decl):
                globals_.append(d)
            else:
                raise _Unsupported(d.line, "nondet initializer at file scope")


def _scoped_types(globals_: list[Decl], fn: FunctionDef) -> dict[str, CType]:
    """Declared type of every variable that ``fn`` and the globals declare.

    Execution keeps one value and one type per name, which is C's meaning
    only when each name has a single declaration in scope wherever it is
    used.  A declaration that shadows a visible one, two declarations of one
    name with different types, and a use outside every declaration's scope
    are therefore unsupported.  A name that is never declared stays an
    ``int`` (or, assigned from a nondet call, takes the call's type).
    """
    types: dict[str, CType] = {}
    body_decls = (s for s in _walk(fn.body) if isinstance(s, Decl))
    for d in [*globals_, *body_decls, *fn.params]:
        if types.setdefault(d.name, d.ctype) != d.ctype:
            raise _Unsupported(d.line, f"conflicting declarations of {d.name}")
    scopes: list[set[str]] = []

    def declare(name: str, line: int) -> None:
        if any(name in scope for scope in scopes):
            raise _Unsupported(line, f"shadowed declaration of {name}")
        scopes[-1].add(name)

    def use(name: str, line: int) -> None:
        if name in types and not any(name in scope for scope in scopes):
            raise _Unsupported(line, f"use of {name} outside its scope")

    def read(expr: Expr | None, line: int) -> None:
        stack = [expr] if expr is not None else []
        while stack:
            node = stack.pop()
            if isinstance(node, Var):
                use(node.name, line)
            elif isinstance(node, Unary):
                stack.append(node.operand)
            elif isinstance(node, Binary):
                stack += [node.right, node.left]

    def block(stmts: list[Stmt]) -> None:
        scopes.append(set())
        for s in stmts:
            if isinstance(s, Decl):
                read(s.init, s.line)
                declare(s.name, s.line)
            elif isinstance(s, Assign):
                use(s.name, s.line)
                read(s.expr, s.line)
            elif isinstance(s, NondetAssign):
                use(s.name, s.line)
            elif isinstance(s, If):
                read(s.cond, s.line)
                block(s.then_body)
                block(s.else_body)
            elif isinstance(s, While):
                read(s.cond, s.line)
                block(s.body)
            elif isinstance(s, Return):
                read(s.expr, s.line)
            elif isinstance(s, Block):
                block(s.stmts)
        scopes.pop()

    # every name is looked up in every enclosing scope, so the globals may
    # share the outermost scope with the parameters and the body
    block([*globals_, *fn.params, *fn.body])
    return types


def parse_program(source: str) -> Program | UnsupportedConstruct:
    """Parse C source into a :class:`Program`.

    Constructs outside the subset yield :class:`UnsupportedConstruct` — a
    classification, not an error.  Lexical problems raise
    :class:`CParseError`.
    """
    tokens = tokenize(source)
    try:
        return _Parser(tokens).parse_program()
    except _Unsupported as u:
        return UnsupportedConstruct(u.line, u.construct)


def parse_expression(text: str) -> Expr:
    """Parse a standalone C expression (used for witness assumptions)."""
    return _Parser(tokenize(text)).parse_whole_expression()


def expr_depth(expr: Expr) -> int:
    """Height of an expression tree, counted without recursion."""
    deepest, stack = 0, [(expr, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, Unary):
            stack.append((node.operand, depth + 1))
        elif isinstance(node, Binary):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
    return deepest


# ---------------------------------------------------------------------------
# Evaluation: each expression shape compiles once into generated Python


def _div(x: int, y: int, rem: bool = False) -> int:
    """C's truncated quotient, not yet wrapped, or with ``rem`` its remainder."""
    if y == 0:
        raise EvalUndefined("division by zero")
    q = abs(x) // abs(y) if (x < 0) == (y < 0) else -(abs(x) // abs(y))
    return x - q * y if rem else q


def _count(y: int, width: int) -> int:
    """A shift count, checked against the shifted operand's width."""
    if y < 0 or y >= width:
        raise EvalUndefined(f"shift by {y} on {width}-bit value")
    return y


_ARITH = {"+", "-", "*", "&", "|", "^"}
_COMPARE = {"<", "<=", ">", ">=", "==", "!="}
# A node's text nests at most eight parentheses deeper than its operands'
# texts, so hoisting each text that holds this many into a function of its
# own keeps any expression inside Python's limit of 200 nested parentheses.
_HOIST_PARENS = 150
_SCAN = """\
    def scan(_values, {outer}):
        _defined = False
        for {last} in _values:
            try:
                if {left} != {right}:
                    return {last}, _defined
            except EvalUndefined:
                continue
            _defined = True
        return None, _defined
    return scan
"""


@functools.lru_cache(maxsize=256)
def _factory(source: str):
    """The ``_make`` function that ``source`` defines."""
    namespace: dict = {}
    exec(source, globals(), namespace)  # the helpers above
    return namespace["_make"]


class _Src(NamedTuple):
    text: str | None  # a Python expression; None for a constant
    ctype: CType
    exact: bool  # every value lies in ctype's range
    const: int | None  # the value, when it does not depend on the variables


class _Gen:
    """The source of a factory ``_make(_c0, _c1, ...)`` of a function of the
    expressions written into it.  Only fixed operator text, generated
    identifiers (``env``, ``_c<i>``, ``_v<i>``, ``_h<i>``, the helpers) and
    integer type masks ever reach the source; literal values and variable
    names are ``_make``'s arguments.  So no C text becomes Python code, and
    expressions that differ only in literals and names share one compiled
    source.  Variables are read as ``env[name]``, or, given ``slots``, from
    the local that ``slots`` names for each."""

    def __init__(self, types: dict[str, CType],
                 slots: dict[str, str] | None = None):
        self.types, self.slots = types, slots
        self.args = "env" if slots is None else ", ".join(slots.values())
        self.lits, self.defs = [], []  # _make's arguments, hoisted functions

    def make(self, body: str):
        """Call the ``_make`` that ends in ``body`` with its arguments."""
        params = ", ".join(f"_c{i}" for i in range(len(self.lits)))
        source = f"def _make({params}):\n{''.join(self.defs)}{body}"
        return _factory(source)(*self.lits)

    def arg(self, value: int | str) -> str:
        self.lits.append(value)
        return f"_c{len(self.lits) - 1}"

    def text(self, src: _Src) -> str:
        return src.text if src.const is None else self.arg(src.const)

    def read(self, name: str) -> str:
        if self.slots is None:
            return f"env[{self.arg(name)}]"
        # a name without a slot raises KeyError, as an unbound one in env does
        return self.slots.get(name) or f"{{}}[{self.arg(name)}]"

    @staticmethod
    def wrap(text: str, t: CType) -> str:
        """``wrap(text, t)``: + - * & | ^ ~ commute with reduction modulo
        2**width, so their operands need no conversion first."""
        half, mask = 1 << (t.width - 1), (1 << t.width) - 1
        if t.signed:
            return f"((({text} + {half}) & {mask}) - {half})"
        return f"({text} & {mask})"

    def coerce(self, src: _Src, t: CType) -> _Src:
        """``src``'s value converted to ``t``."""
        if src.const is not None:
            return _Src(None, t, True, wrap(src.const, t))
        if src.exact and t.min <= src.ctype.min and src.ctype.max <= t.max:
            return src._replace(ctype=t)
        return _Src(self.wrap(src.text, t), t, True, None)

    def truth(self, src: _Src) -> str:
        """A Python expression that is true when ``src`` is nonzero as its
        promoted type.  Promotion only widens, so an exact value needs no
        wrap."""
        text = self.text(src)
        if src.exact:
            return text
        return f"{text} & {(1 << promote(src.ctype).width) - 1}"

    def unary(self, op: str, operand: _Src) -> _Src:
        if op == "!":
            return _Src(f"(0 if {self.truth(operand)} else 1)", INT, True, None)
        if op not in ("-", "~"):
            raise ValueError(f"bad unary op {op}")
        t = promote(operand.ctype)
        return _Src(self.wrap(f"{op}{self.text(operand)}", t), t, True, None)

    def binary(self, op: str, left: _Src, right: _Src) -> _Src:
        if op in ("&&", "||"):
            word = "and" if op == "&&" else "or"
            return _Src(f"(1 if {self.truth(left)} {word} {self.truth(right)} "
                        "else 0)", INT, True, None)
        if op in ("<<", ">>"):
            t = promote(left.ctype)
            x = self.text(self.coerce(left, t))
            y = self.text(self.coerce(right, promote(right.ctype)))
            shifted = f"({x} {op} _count({y}, {t.width}))"
            return _Src(shifted if op == ">>" else self.wrap(shifted, t),
                        t, True, None)
        t = usual_arithmetic_type(left.ctype, right.ctype)
        if op in _ARITH:
            text = f"({self.text(left)} {op} {self.text(right)})"
            return _Src(self.wrap(text, t), t, True, None)
        x, y = self.text(self.coerce(left, t)), self.text(self.coerce(right, t))
        if op in _COMPARE:
            return _Src(f"(1 if {x} {op} {y} else 0)", INT, True, None)
        if op == "/":  # a signed quotient overflows at MIN / -1
            quotient = f"_div({x}, {y})"
            return _Src(self.wrap(quotient, t) if t.signed else quotient,
                        t, True, None)
        if op == "%":
            return _Src(f"_div({x}, {y}, True)", t, True, None)
        raise ValueError(f"bad binary op {op}")

    def node(self, expr: Expr) -> _Src:
        if isinstance(expr, IntLit):
            t = expr.ctype
            return _Src(None, t, t.min <= expr.value <= t.max, expr.value)
        if isinstance(expr, Var):
            # a declared variable holds a value of its type; any other may
            # hold any int, such as one assigned from a wider nondet call
            declared = self.types.get(expr.name)
            return _Src(self.read(expr.name), declared or INT,
                        declared is not None, None)
        if isinstance(expr, Unary):
            build, operands = _Gen.unary, [self.node(expr.operand)]
        elif isinstance(expr, Binary):
            build = _Gen.binary
            operands = [self.node(expr.left), self.node(expr.right)]
        else:
            raise TypeError(f"not an expression: {expr!r}")
        if all(o.const is not None for o in operands):
            scratch = _Gen(self.types)
            src = build(scratch, expr.op, *operands)
            # folded unless undefined, and then undefined at each evaluation
            with contextlib.suppress(EvalUndefined):
                value = scratch.make(f"    return {src.text}\n")
                return _Src(None, src.ctype, True, value)
        src = build(self, expr.op, *operands)
        if src.text.count("(") < _HOIST_PARENS:
            return src
        name = f"_h{len(self.defs)}"
        self.defs.append(
            f"    def {name}({self.args}):\n        return {src.text}\n")
        return src._replace(text=f"{name}({self.args})")


def compile_expr(expr: Expr, types: dict[str, CType],
                 into: CType | None = None,
                 ) -> tuple[Callable[[dict[str, int]], int], CType]:
    """Compile ``expr`` once into ``(fn, ctype)``: ``fn(env)``, generated
    Python, evaluates it under C semantics, and ``ctype`` is its type.

    Variables take their type from ``types`` (``int`` when missing), and
    every conversion and wrap is worked out here, not at each call.  A name
    in ``types`` must hold a value in its type's range, as every store of a
    program run does; its value is read without a wrap.  A name missing
    from ``types`` may hold any int, and is read wrapped to ``int``.  With
    ``into`` the value is converted to that type, as an assignment does.
    ``fn`` reads ``env[name]`` where C reads the name, so ``&&`` and ``||``
    read only what C evaluates; it raises :class:`EvalUndefined` on division
    by zero or an invalid shift and ``KeyError`` on an unbound variable."""
    gen = _Gen(types)
    src = gen.node(expr) if into is None else gen.coerce(gen.node(expr), into)
    return gen.make(f"    return lambda env: {gen.text(src)}\n"), src.ctype


@functools.lru_cache(maxsize=256)
def _scan_half(expr: Expr, names: tuple[str, ...],
               types: frozenset[tuple[str, CType]]) -> tuple[str, tuple, tuple]:
    """The text of ``expr`` in a scan over ``names``, with the literals and
    hoisted functions it numbers from ``_c0`` and ``_h0``."""
    gen = _Gen(dict(types), {name: f"_v{i}" for i, name in enumerate(names)})
    text = gen.text(gen.node(expr))
    return text, tuple(gen.lits), tuple(gen.defs)


def compile_scan(a: Expr, b: Expr, names: list[str],
                 types: dict[str, CType]) -> Callable[..., tuple]:
    """Compile a search for an assignment on which ``a`` and ``b`` differ.

    ``scan(values, *outer)`` binds ``names[:-1]`` to ``outer`` and runs
    ``names[-1]`` over ``values`` in order.  It returns ``(v, defined)`` at
    the first ``v`` where the two values differ and ``(None, defined)`` when
    there is none.  An assignment on which either side raises
    :class:`EvalUndefined` is skipped, and ``defined`` says whether some
    assignment was not.  Variables are read as by :func:`compile_expr`.
    ``b``'s half of the source is generated once per ``(b, names, types)``,
    so a fixed ``b`` compared with many ``a`` generates only ``a`` each
    time."""
    slots = {name: f"_v{i}" for i, name in enumerate(names)}
    right, lits, defs = _scan_half(b, tuple(names), frozenset(types.items()))
    gen = _Gen(types, slots)
    gen.lits, gen.defs = list(lits), list(defs)
    left = gen.text(gen.node(a))
    *outer, last = slots.values()
    return gen.make(_SCAN.format(outer=", ".join(outer), last=last,
                                 left=left, right=right))


# ---------------------------------------------------------------------------
# Statement traversal


def _walk(stmts: list[Stmt]):
    for s in stmts:
        yield s
        if isinstance(s, If):
            yield from _walk(s.then_body)
            yield from _walk(s.else_body)
        elif isinstance(s, (While, Block)):
            yield from _walk(s.body if isinstance(s, While) else s.stmts)
