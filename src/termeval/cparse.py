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

import operator
import re
from collections.abc import Callable
from dataclasses import dataclass, field
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
class For:
    init: "Stmt | None"
    cond: Expr | None
    step: "Stmt | None"
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


Stmt = Decl | Assign | NondetAssign | If | While | For | Return | Block


@dataclass
class FunctionDef:
    name: str
    ret_type: CType | None  # None for void
    params: list[tuple[str, CType]]
    body: list[Stmt]
    line: int


@dataclass
class NondetSite:
    name: str
    ctype: CType
    line: int


@dataclass
class Program:
    functions: dict[str, FunctionDef]
    entry: str
    nondet_vars: list[NondetSite]
    globals: list[Decl] = field(default_factory=list)
    # declared type of every variable of main and of the globals
    types: dict[str, CType] = field(default_factory=dict)

    @property
    def main(self) -> FunctionDef:
        return self.functions[self.entry]


@dataclass
class UnsupportedConstruct:
    line: int
    construct: str

    def __str__(self) -> str:
        return f"unsupported construct at line {self.line}: {self.construct}"


class CParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


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


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident', 'num', 'punct', 'keyword', 'eof'
    text: str
    line: int
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
    a digit outside the base, past Python's limit on decimal digits, or on a
    value too large for every type the constant may take."""
    if len(text) > 1 and text[0] == "0":
        value = int(text, 16 if text[1] in "xX" else 8)
        return value, _literal_type(value, False, suffix)
    value = int(text)
    return value, _literal_type(value, True, suffix)


# matched in place with ``.match(source, i)``: slicing off the rest of the
# source for each token would make tokenizing quadratic in its length
_NUMBER_RE = re.compile(r"0[xX][0-9a-fA-F]+|[0-9]+")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i, n, line = 0, len(source), 1
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r\f\v":
            i += 1
            continue
        if source.startswith("//", i):
            j = source.find("\n", i)
            i = n if j < 0 else j
            continue
        if source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j < 0:
                raise CParseError("unterminated comment", line)
            line += source.count("\n", i, j)
            i = j + 2
            continue
        if ch == "#":  # preprocessor line (e.g. #include): skip the line
            j = source.find("\n", i)
            i = n if j < 0 else j
            continue
        if ch in "\"'":
            j = i + 1
            while j < n and source[j] != ch:
                j += 2 if source[j] == "\\" else 1
            if j >= n:
                raise CParseError("unterminated string", line)
            tokens.append(Token("string", source[i:j + 1], line))
            i = j + 1
            continue
        if ch.isascii() and ch.isdigit():
            text = _NUMBER_RE.match(source, i).group(0)
            j = i + len(text)
            suffix = ""
            while j < n and source[j] in "uUlL":
                suffix += source[j]
                j += 1
            try:
                value, ctype = int_constant(text, suffix)
            except ValueError:
                raise CParseError(f"unsupported integer literal {text[:24]!r}",
                                  line)
            tokens.append(Token("num", text + suffix, line, value=value,
                                ctype=ctype))
            i = j
            continue
        if ch.isascii() and (ch.isalpha() or ch == "_"):
            text = _IDENT_RE.match(source, i).group(0)
            kind = "keyword" if text in _KEYWORDS else "ident"
            tokens.append(Token(kind, text, line))
            i += len(text)
            continue
        for p in _PUNCT:
            if source.startswith(p, i):
                tokens.append(Token("punct", p, line))
                i += len(p)
                break
        else:
            raise CParseError(f"unexpected character {ch!r}", line)
    tokens.append(Token("eof", "", line))
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

# Parentheses and prefix operators recurse through every precedence level,
# so the parser stops at this nesting, well inside Python's recursion limit.
MAX_EXPR_NESTING = 32
# Left-associative chains parse in a loop but compile recursively, one frame
# per tree level; expressions deeper than this are rejected.
MAX_EXPR_DEPTH = 256

_COMPOUND_OPS = {"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
                 "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>"}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.nondet_sites: list[NondetSite] = []
        self.nesting = 0

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
            raise CParseError(f"expected {text!r}, found {tok.text!r}", tok.line)
        return tok

    # -- types

    def _at_type(self) -> bool:
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in _TYPE_KEYWORDS:
            return True
        return tok.kind == "keyword" and tok.text == "bool"

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
        base = "int" if not words else words[-1]
        if words.count("long") >= 1:
            base = "long"
        table = {
            "char": (UCHAR if unsigned else CHAR),
            "short": (USHORT if unsigned else SHORT),
            "int": (UINT if unsigned else INT),
            "long": (ULONG if unsigned else LONG),
        }
        if base not in table:
            raise CParseError(f"unsupported type {' '.join(words)}", self.peek().line)
        return table[base]

    # -- expressions

    def _nest(self, tok: Token) -> None:
        self.nesting += 1
        if self.nesting > MAX_EXPR_NESTING:
            raise CParseError(f"expression nested deeper than "
                              f"{MAX_EXPR_NESTING} levels", tok.line)

    def parse_expression(self) -> Expr:
        line = self.peek().line
        expr = self._parse_binary(0)
        if expr_depth(expr) > MAX_EXPR_DEPTH:
            raise CParseError(f"expression deeper than {MAX_EXPR_DEPTH} levels",
                              line)
        return expr

    def _parse_binary(self, level: int) -> Expr:
        if level >= len(_BINARY_PRECEDENCE):
            return self._parse_unary()
        expr = self._parse_binary(level + 1)
        ops = _BINARY_PRECEDENCE[level]
        while self.peek().kind == "punct" and self.peek().text in ops:
            op = self.next().text
            right = self._parse_binary(level + 1)
            expr = Binary(op, expr, right)
        return expr

    def _parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "punct" and tok.text in ("-", "~", "!", "+"):
            self.next()
            self._nest(tok)
            operand = self._parse_unary()
            self.nesting -= 1
            return operand if tok.text == "+" else Unary(tok.text, operand)
        if tok.kind == "punct" and tok.text in ("++", "--", "*", "&"):
            raise _Unsupported(tok.line, f"unary {tok.text} in expression")
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        tok = self.peek()
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
        raise CParseError(f"unexpected token {tok.text!r}", tok.line)

    # -- statements

    def _nondet_call(self) -> tuple[CType, int] | None:
        """Match ``__VERIFIER_nondet_X()`` at the cursor; consume on match."""
        tok = self.peek()
        if tok.kind == "ident" and self.peek(1).text == "(" and self.peek(2).text == ")":
            if tok.text in NONDET_TYPES:
                self.next(), self.next(), self.next()
                return NONDET_TYPES[tok.text], tok.line
            if tok.text.startswith("__VERIFIER_nondet_"):
                raise _Unsupported(tok.line, f"nondet type {tok.text}")
        return None

    def parse_statement(self) -> list[Stmt]:
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
            if tok.text in _TYPE_KEYWORDS or tok.text == "bool":
                return self._parse_decl()
            raise _Unsupported(tok.line, tok.text)
        if tok.kind == "ident":
            stmt = self._parse_assignment()
            self.expect(";")
            return stmt
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
        if self.accept(";"):
            return While(cond, [], line)
        body = self._parse_body_or_stmt()
        return While(cond, body, line)

    def _parse_for(self) -> For:
        line = self.expect("for").line
        self.expect("(")
        init: Stmt | None = None
        if self.peek().text != ";":
            if self._at_type():
                decls = self._parse_decl(expect_semi=False)
                if len(decls) != 1:
                    raise _Unsupported(line, "multiple declarators in for-init")
                init = decls[0]
            else:
                stmts = self._parse_assignment()
                init = stmts[0] if len(stmts) == 1 else Block(stmts, line)
        self.expect(";")
        cond = None
        if self.peek().text != ";":
            cond = self.parse_expression()
        self.expect(";")
        step: Stmt | None = None
        if self.peek().text != ")":
            stmts = self._parse_assignment()
            step = stmts[0] if len(stmts) == 1 else Block(stmts, line)
        self.expect(")")
        if self.accept(";"):
            return For(init, cond, step, [], line)
        body = self._parse_body_or_stmt()
        return For(init, cond, step, body, line)

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
                nd = self._nondet_call()
                if nd is not None:
                    stmts.append(Decl(name_tok.text, ctype, None, name_tok.line))
                    site = NondetSite(name_tok.text, nd[0], nd[1])
                    self.nondet_sites.append(site)
                    stmts.append(NondetAssign(name_tok.text, nd[0], nd[1]))
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

    def _parse_assignment(self) -> list[Stmt]:
        name_tok = self.next()
        line = name_tok.line
        name = name_tok.text
        tok = self.peek()
        if tok.text == "=":
            self.next()
            nd = self._nondet_call()
            if nd is not None:
                site = NondetSite(name, nd[0], nd[1])
                self.nondet_sites.append(site)
                return [NondetAssign(name, nd[0], line)]
            return [Assign(name, self.parse_expression(), line)]
        if tok.text in _COMPOUND_OPS:
            self.next()
            rhs = self.parse_expression()
            return [Assign(name, Binary(_COMPOUND_OPS[tok.text], Var(name), rhs), line)]
        if tok.text == "++":
            self.next()
            return [Assign(name, Binary("+", Var(name), IntLit(1)), line)]
        if tok.text == "--":
            self.next()
            return [Assign(name, Binary("-", Var(name), IntLit(1)), line)]
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
        return Program(functions, "main", self.nondet_sites, globals_,
                       types["main"])

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
        ctype = self.parse_type()
        name = self.peek()
        if name.kind != "ident":
            raise CParseError(f"expected identifier, found {name.text!r}", name.line)
        if self.peek(1).text == "(":
            self.next()
            self.expect("(")
            params: list[tuple[str, CType]] = []
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
                        params.append((ptok.text, ptype))
                        if not self.accept(","):
                            break
            self.expect(")")
            if self.accept(";"):
                return
            self.expect("{")
            body = self.parse_block_body()
            functions[name.text] = FunctionDef(name.text, ctype, params, body, name.line)
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
    for d in [*globals_, *(s for s in _walk(fn.body) if isinstance(s, Decl))]:
        if types.setdefault(d.name, d.ctype) != d.ctype:
            raise _Unsupported(d.line, f"conflicting declarations of {d.name}")
    for name, ctype in fn.params:
        if types.setdefault(name, ctype) != ctype:
            raise _Unsupported(fn.line, f"conflicting declarations of {name}")
    scopes: list[set[str]] = [set()]

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
            stmt(s)
        scopes.pop()

    def stmt(s: Stmt) -> None:
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
        elif isinstance(s, For):
            scopes.append(set())
            if s.init is not None:
                stmt(s.init)
            read(s.cond, s.line)
            if s.step is not None:
                stmt(s.step)
            block(s.body)
            scopes.pop()
        elif isinstance(s, Return):
            read(s.expr, s.line)
        elif isinstance(s, Block):
            block(s.stmts)

    for d in globals_:
        stmt(d)
    scopes.append(set())  # parameters share the body's outermost scope
    for name, _ in fn.params:
        declare(name, fn.line)
    for s in fn.body:
        stmt(s)
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
    tokens = tokenize(text)
    parser = _Parser(tokens)
    try:
        expr = parser.parse_expression()
    except _Unsupported as u:
        raise CParseError(f"unsupported in expression: {u.construct}", u.line)
    if parser.peek().kind != "eof":
        raise CParseError(f"trailing input {parser.peek().text!r}",
                          parser.peek().line)
    return expr


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
# Evaluation: each expression compiles once into closures over an environment


class _Code(NamedTuple):
    fn: Callable[[dict[str, int]], int]
    ctype: CType
    exact: bool  # every value of fn lies in ctype's range
    const: int | None  # the value, when it does not depend on the environment


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "&": operator.and_, "|": operator.or_, "^": operator.xor}
# ``c op x`` is ``x flip(op) c``
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


def _masks(t: CType) -> tuple[int, int]:
    return 1 << (t.width - 1), (1 << t.width) - 1


def _coerce(code: _Code, t: CType) -> Callable[[dict[str, int]], int]:
    """A function giving ``code``'s value converted to ``t``."""
    if code.const is not None:
        value = wrap(code.const, t)
        return lambda env: value
    fn = code.fn
    if code.exact and t.min <= code.ctype.min and code.ctype.max <= t.max:
        return fn
    half, mask = _masks(t)
    if t.signed:
        return lambda env: ((fn(env) + half) & mask) - half
    return lambda env: fn(env) & mask


def _wrapping(op, lf, rf, t: CType) -> Callable[[dict[str, int]], int]:
    """``wrap(op(lf(env), rf(env)), t)``: the operands need no conversion
    first, because + - * & | ^ commute with reduction modulo 2**width."""
    half, mask = _masks(t)
    if t.signed:
        if op is operator.add:
            return lambda env: ((lf(env) + rf(env) + half) & mask) - half
        if op is operator.sub:
            return lambda env: ((lf(env) - rf(env) + half) & mask) - half
        return lambda env: ((op(lf(env), rf(env)) + half) & mask) - half
    return lambda env: op(lf(env), rf(env)) & mask


def _unary(op: str, operand: _Code) -> _Code:
    t = promote(operand.ctype)
    half, mask = _masks(t)
    f = operand.fn
    if op == "!":
        if operand.exact:  # promotion only widens, so the value needs no wrap
            return _Code(lambda env: 0 if f(env) else 1, INT, True, None)
        return _Code(lambda env: 0 if f(env) & mask else 1, INT, True, None)
    if op == "-":
        fn = ((lambda env: ((half - f(env)) & mask) - half) if t.signed
              else (lambda env: -f(env) & mask))
    elif op == "~":
        fn = ((lambda env: ((~f(env) + half) & mask) - half) if t.signed
              else (lambda env: ~f(env) & mask))
    else:
        raise ValueError(f"bad unary op {op}")
    return _Code(fn, t, True, None)


def _binary(op: str, left: _Code, right: _Code) -> _Code:
    lf, rf = left.fn, right.fn
    if op == "&&":
        return _Code(lambda env: 1 if lf(env) and rf(env) else 0, INT, True, None)
    if op == "||":
        return _Code(lambda env: 1 if lf(env) or rf(env) else 0, INT, True, None)
    if op in ("<<", ">>"):
        t = promote(left.ctype)
        half, mask = _masks(t)
        width, a, b = t.width, _coerce(left, t), _coerce(right, promote(right.ctype))

        def shift(env: dict[str, int]) -> int:
            x, y = a(env), b(env)
            if y < 0 or y >= width:
                raise EvalUndefined(f"shift by {y} on {width}-bit value")
            if op == ">>":
                return x >> y
            return (((x << y) + half) & mask) - half if t.signed else (x << y) & mask
        return _Code(shift, t, True, None)
    t = usual_arithmetic_type(left.ctype, right.ctype)
    if op in _ARITH:
        return _Code(_wrapping(_ARITH[op], lf, rf, t), t, True, None)
    a, b = _coerce(left, t), _coerce(right, t)
    c = None if right.const is None else b({})
    if op in _FLIP:
        if c is not None:
            return _Code(_compare_with(op, a, c), INT, True, None)
        if left.const is not None:
            # both operands were converted to t, so swapping them is exact
            return _Code(_compare_with(_FLIP[op], b, a({})), INT, True, None)
        return _Code(_compare(op, a, b), INT, True, None)
    if op in ("/", "%"):
        return _Code(_divide(op, a, b, c, t), t, True, None)
    raise ValueError(f"bad binary op {op}")


def _compare_with(op: str, a, c: int) -> Callable[[dict[str, int]], int]:
    """``a(env) op c`` as 1 or 0, for a constant right operand."""
    if op == "<":
        return lambda env: 1 if a(env) < c else 0
    if op == "<=":
        return lambda env: 1 if a(env) <= c else 0
    if op == ">":
        return lambda env: 1 if a(env) > c else 0
    if op == ">=":
        return lambda env: 1 if a(env) >= c else 0
    if op == "==":
        return lambda env: 1 if a(env) == c else 0
    return lambda env: 1 if a(env) != c else 0


def _compare(op: str, a, b) -> Callable[[dict[str, int]], int]:
    """``a(env) op b(env)`` as 1 or 0."""
    if op == "<":
        return lambda env: 1 if a(env) < b(env) else 0
    if op == "<=":
        return lambda env: 1 if a(env) <= b(env) else 0
    if op == ">":
        return lambda env: 1 if a(env) > b(env) else 0
    if op == ">=":
        return lambda env: 1 if a(env) >= b(env) else 0
    if op == "==":
        return lambda env: 1 if a(env) == b(env) else 0
    return lambda env: 1 if a(env) != b(env) else 0


def _divide(op: str, a, b, c: int | None,
            t: CType) -> Callable[[dict[str, int]], int]:
    """C's truncated ``/`` or ``%`` of operands already converted to ``t``;
    ``c`` is the divisor when it is a constant."""
    if c is not None and c > 0:
        # the common case: no zero check, and a quotient that cannot overflow
        if not t.signed:
            return ((lambda env: a(env) // c) if op == "/"
                    else (lambda env: a(env) % c))
        if op == "/":
            return lambda env: x // c if (x := a(env)) >= 0 else -(-x // c)
        return lambda env: x % c if (x := a(env)) >= 0 else -(-x % c)
    half, mask = _masks(t)
    signed = t.signed

    def divide(env: dict[str, int]) -> int:
        x, y = a(env), b(env)
        if y == 0:
            raise EvalUndefined("division by zero")
        if op == "%":
            r = abs(x) % abs(y)  # the sign follows the dividend
            return -r if x < 0 else r
        q = abs(x) // abs(y)
        if not signed:
            return q
        # a signed quotient overflows at MIN / -1
        return (((q if (x < 0) == (y < 0) else -q) + half) & mask) - half
    return divide


def _compile(expr: Expr, types: dict[str, CType]) -> _Code:
    if isinstance(expr, IntLit):
        value, t = expr.value, expr.ctype
        return _Code(lambda env: value, t, t.min <= value <= t.max, value)
    if isinstance(expr, Var):
        # a declared variable holds a value of its type; any other may hold
        # any int, such as an undeclared one assigned from a wider nondet call
        declared = types.get(expr.name)
        return _Code(operator.itemgetter(expr.name), declared or INT,
                     declared is not None, None)
    if isinstance(expr, Unary):
        operand = _compile(expr.operand, types)
        code = _unary(expr.op, operand)
        consts = operand.const is not None
    elif isinstance(expr, Binary):
        left, right = _compile(expr.left, types), _compile(expr.right, types)
        code = _binary(expr.op, left, right)
        consts = left.const is not None and right.const is not None
    else:
        raise TypeError(f"not an expression: {expr!r}")
    if consts:
        try:
            value = code.fn({})
        except EvalUndefined:
            return code  # undefined each time it is evaluated
        return _Code(lambda env: value, code.ctype, True, value)
    return code


def compile_expr(expr: Expr, types: dict[str, CType],
                 into: CType | None = None,
                 ) -> tuple[Callable[[dict[str, int]], int], CType]:
    """Compile ``expr`` once into ``(fn, ctype)``: ``fn(env)`` evaluates it
    under C semantics, and ``ctype`` is its type.

    Variables take their type from ``types`` (``int`` when missing), and
    every conversion and wrap is worked out here, not at each call.  A name
    in ``types`` must hold a value in its type's range, as every store of a
    program run does; its value is read without a wrap.  A name missing
    from ``types`` may hold any int, and is read wrapped to ``int``.  With
    ``into`` the value is converted to that type, as an assignment does.
    ``fn`` raises :class:`EvalUndefined` on division by zero or an invalid
    shift and ``KeyError`` on an unbound variable.
    """
    code = _compile(expr, types)
    if into is None:
        return code.fn, code.ctype
    return _coerce(code, into), into


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
        elif isinstance(s, For):
            if s.init is not None:
                yield from _walk([s.init])
            if s.step is not None:
                yield from _walk([s.step])
            yield from _walk(s.body)


def iter_statements(program: Program):
    """Yield every statement in the program, depth first."""
    yield from _walk(program.globals)
    for fn in program.functions.values():
        yield from _walk(fn.body)
