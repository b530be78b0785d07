"""Divergence-precondition formulas and equivalence checking.

Preconditions are boolean formulas over a task's nondeterministic variables,
written with keyword operators (``and``/``or``/``not``) or C operators
(``&&``/``||``/``!``); ``=`` is accepted as equality because annotated
answers often write ``i = 0``.  The parser here is a front end only: it
builds :mod:`cparse` expression trees, and cparse gives them C's meaning.

Equivalence is decided under machine-integer semantics: variables range over
their declared width, operands take C's integer promotions and usual
arithmetic conversions, operations wrap, ``/`` and ``%`` truncate toward
zero, and literals take C's types: a leading ``0`` is octal, and literals
too wide for int take a wider type (so ``i >= -2147483649`` compares in 64
bits, exactly as C would).  Two backends
are provided: a brute-force check that compiles each formula once with
:func:`cparse.compile_expr` and runs it over a boxed domain plus width
sentinels, within an assignment budget; and an SMT-LIB bit-vector encoding
of the same tree, run through any external solver.
"""

from __future__ import annotations

import itertools
import math
import re
import shutil
import subprocess
from dataclasses import dataclass
from enum import Enum

from .cparse import (
    INT, MAX_EXPR_DEPTH, MAX_EXPR_NESTING, Binary, CType, EvalUndefined,
    Expr, IntLit, Unary, Var, compile_expr, expr_depth, int_constant, promote,
    usual_arithmetic_type,
)


class PrecondParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<op><=|>=|==|!=|&&|\|\||[-+*/%<>=!()])
  | (?P<ws>\s+)
""", re.VERBOSE)

_CMP_OPS = {"<", "<=", ">", ">=", "==", "!="}


@dataclass(frozen=True)
class _Tok:
    kind: str  # 'num' | 'name' | 'op' | 'end'
    text: str
    pos: int


def _lex(text: str) -> list[_Tok]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PrecondParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            kind = m.lastgroup
            value = m.group(0)
            if kind == "name" and value.lower() in ("and", "or", "not"):
                tokens.append(_Tok("op", value.lower(), pos))
            else:
                tokens.append(_Tok(kind, value, pos))
        pos = m.end()
    tokens.append(_Tok("end", "", len(text)))
    return tokens


class _PrecondParser:
    """Recursive descent: or < and < not < comparison < additive < term.

    Parentheses and prefix operators count toward cparse's
    ``MAX_EXPR_NESTING``, and the finished tree may be no deeper than
    ``MAX_EXPR_DEPTH``, so a hostile formula is a parse error, not a
    ``RecursionError``.
    """

    def __init__(self, tokens: list[_Tok], known_vars: set[str] | None):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0
        self.known_vars = known_vars

    def peek(self) -> _Tok:
        return self.tokens[self.pos]

    def next(self) -> _Tok:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def nest(self, tok: _Tok) -> None:
        self.nesting += 1
        if self.nesting > MAX_EXPR_NESTING:
            raise PrecondParseError(
                f"formula nested deeper than {MAX_EXPR_NESTING} levels", tok.pos)

    def parse(self) -> Expr:
        expr = self.parse_or()
        tok = self.peek()
        if tok.kind != "end":
            raise PrecondParseError(f"trailing input {tok.text!r}", tok.pos)
        if expr_depth(expr) > MAX_EXPR_DEPTH:
            raise PrecondParseError(
                f"formula deeper than {MAX_EXPR_DEPTH} levels", 0)
        return expr

    def parse_or(self) -> Expr:
        expr = self.parse_and()
        while self.peek().text in ("or", "||"):
            self.next()
            expr = Binary("||", expr, self.parse_and())
        return expr

    def parse_and(self) -> Expr:
        expr = self.parse_not()
        while self.peek().text in ("and", "&&"):
            self.next()
            expr = Binary("&&", expr, self.parse_not())
        return expr

    def parse_not(self) -> Expr:
        tok = self.peek()
        if tok.text in ("not", "!"):
            self.next()
            self.nest(tok)
            operand = self.parse_not()
            self.nesting -= 1
            return Unary("!", operand)
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        if self.peek().text == "(":
            # parenthesized boolean vs. parenthesized arithmetic: try the
            # boolean reading, fall back on the arithmetic one
            saved = self.pos, self.nesting
            try:
                self.nest(self.next())
                inner = self.parse_or()
                close = self.next()
                if close.text != ")":
                    raise PrecondParseError(f"expected ')', found {close.text!r}",
                                            close.pos)
                if self.peek().text in _CMP_OPS or self.peek().text in ("=",):
                    raise PrecondParseError("comparison of boolean", close.pos)
                self.nesting -= 1
                return inner
            except PrecondParseError:
                self.pos, self.nesting = saved
        left = self.parse_additive()
        tok = self.peek()
        op = tok.text
        if op == "=":
            op = "=="
        if op not in _CMP_OPS:
            raise PrecondParseError(
                f"expected comparison operator, found {tok.text!r}", tok.pos)
        self.next()
        right = self.parse_additive()
        return Binary(op, left, right)

    def parse_additive(self) -> Expr:
        expr = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            expr = Binary(op, expr, self.parse_term())
        return expr

    def parse_term(self) -> Expr:
        expr = self.parse_unary()
        while self.peek().text in ("*", "/", "%"):
            op = self.next().text
            expr = Binary(op, expr, self.parse_unary())
        return expr

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.text in ("-", "+"):
            self.next()
            self.nest(tok)
            operand = self.parse_unary()
            self.nesting -= 1
            return Unary("-", operand) if tok.text == "-" else operand
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "num":
            try:
                value, ctype = int_constant(tok.text)
            except ValueError:  # 08, too many digits, or too large for C
                raise PrecondParseError(f"bad integer literal {tok.text[:24]!r}",
                                        tok.pos)
            return IntLit(value, ctype)
        if tok.kind == "name":
            if self.known_vars is not None and tok.text not in self.known_vars:
                raise PrecondParseError(f"unknown identifier {tok.text!r}", tok.pos)
            return Var(tok.text)
        if tok.text == "(":
            self.nest(tok)
            expr = self.parse_additive()
            self.nesting -= 1
            close = self.next()
            if close.text != ")":
                raise PrecondParseError(f"expected ')', found {close.text!r}",
                                        close.pos)
            return expr
        raise PrecondParseError(f"expected value, found {tok.text or 'end'!r}",
                                tok.pos)


def parse_precondition(text: str, known_vars: set[str] | None = None) -> Expr:
    """Parse a precondition formula into a :mod:`cparse` expression whose
    value is 1 or 0; raises :class:`PrecondParseError`."""
    return _PrecondParser(_lex(text), known_vars).parse()


def variables_of(expr: Expr) -> set[str]:
    names, stack = set(), [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            names.add(node.name)
        elif isinstance(node, Unary):
            stack.append(node.operand)
        elif isinstance(node, Binary):
            stack += [node.left, node.right]
    return names


# ---------------------------------------------------------------------------
# Equivalence checking


@dataclass(frozen=True)
class Equivalent:
    pass


@dataclass(frozen=True)
class Inequivalent:
    counterexample: dict[str, int]


@dataclass(frozen=True)
class EquivUnknown:
    reason: str


EquivalenceResult = Equivalent | Inequivalent | EquivUnknown

# The brute-force check evaluates at most this many assignments (about 1.2 s
# of `x + y < z` against its negation on a 2-vCPU VM, Python 3.11).  Two int
# variables over the default box take 260 * 260 = 67,600; three would take
# 17.6 million.
MAX_BRUTE_ASSIGNMENTS = 1_000_000


def _domain_values(ctype: CType, box: tuple[int, int]) -> list[int]:
    lo = max(box[0], ctype.min)
    hi = min(box[1], ctype.max)
    values = set(range(lo, hi + 1))
    # wraparound boundary sentinels
    values.update({ctype.min, ctype.min + 1, ctype.max - 1, ctype.max})
    return sorted(values)


def brute_equivalence(a: Expr, b: Expr, variables: dict[str, CType],
                      box: tuple[int, int] = (-128, 127)) -> EquivalenceResult:
    """Compare both formulas over the cartesian product of per-variable
    domains, the first variable in sorted order outermost, and return the
    first counterexample.  Assignments where either side hits an undefined
    operation are skipped; if everything is skipped the comparison is
    degenerate.  Past :data:`MAX_BRUTE_ASSIGNMENTS` assignments without a
    counterexample the result is unknown."""
    names = sorted(variables)
    domains = [_domain_values(variables[n], box) for n in names]
    fa, _ = compile_expr(a, variables)
    fb, _ = compile_expr(b, variables)
    if not names:
        try:
            same = fa({}) == fb({})
        except EvalUndefined:
            return EquivUnknown("degenerate: undefined arithmetic")
        return Equivalent() if same else Inequivalent({})
    # one dict, updated in place: each prefix of the outer names, then
    # every value of the last name, until the budget is spent
    env = dict.fromkeys(names, 0)
    *outer, last = names
    left = MAX_BRUTE_ASSIGNMENTS
    defined = False
    for prefix in itertools.product(*domains[:-1]):
        if left <= 0:
            break
        env.update(zip(outer, prefix))
        values = domains[-1][:left]
        left -= len(values)
        for value in values:
            env[last] = value
            try:
                if fa(env) != fb(env):
                    return Inequivalent(dict(env))
            except EvalUndefined:
                continue
            defined = True
    total = math.prod(map(len, domains))
    if total > MAX_BRUTE_ASSIGNMENTS:
        return EquivUnknown(f"budget: {MAX_BRUTE_ASSIGNMENTS} of {total} "
                            "assignments evaluated without a counterexample")
    if not defined:
        return EquivUnknown("degenerate: every assignment hit undefined arithmetic")
    return Equivalent()


# ---------------------------------------------------------------------------
# SMT-LIB emission

_SMT_ARITH = {"+": "bvadd", "-": "bvsub", "*": "bvmul"}
_SMT_SIGNED = {"<": "bvslt", "<=": "bvsle", ">": "bvsgt", ">=": "bvsge"}
_SMT_UNSIGNED = {"<": "bvult", "<=": "bvule", ">": "bvugt", ">=": "bvuge"}


def _smt_extend(term: str, have: CType, want: CType) -> str:
    if have.width == want.width:
        return term
    delta = want.width - have.width
    op = "sign_extend" if have.signed else "zero_extend"
    return f"((_ {op} {delta}) {term})"


def _smt_operands(expr: Binary, types: dict[str, CType],
                  divisor_guards: list[str]) -> tuple[str, str, CType]:
    """Both operands of ``expr`` converted to their usual arithmetic type."""
    lterm, lt = _smt_arith(expr.left, types, divisor_guards)
    rterm, rt = _smt_arith(expr.right, types, divisor_guards)
    t = usual_arithmetic_type(lt, rt)
    return _smt_extend(lterm, lt, t), _smt_extend(rterm, rt, t), t


def _smt_arith(expr: Expr, types: dict[str, CType],
               divisor_guards: list[str]) -> tuple[str, CType]:
    if isinstance(expr, IntLit):
        t = expr.ctype
        return f"(_ bv{expr.value % (1 << t.width)} {t.width})", t
    if isinstance(expr, Var):
        return expr.name, types.get(expr.name, INT)
    if isinstance(expr, Unary) and expr.op == "-":
        term, t = _smt_arith(expr.operand, types, divisor_guards)
        return f"(bvneg {_smt_extend(term, t, promote(t))})", promote(t)
    if isinstance(expr, Binary) and expr.op in ("+", "-", "*", "/", "%"):
        lterm, rterm, t = _smt_operands(expr, types, divisor_guards)
        if expr.op in _SMT_ARITH:
            return f"({_SMT_ARITH[expr.op]} {lterm} {rterm})", t
        # bvsdiv/bvsrem already implement C truncated semantics (the
        # remainder's sign follows the dividend); division by zero is
        # excluded by a side assertion to mirror the brute-force skip
        divisor_guards.append(f"(not (= {rterm} (_ bv0 {t.width})))")
        if expr.op == "/":
            op = "bvsdiv" if t.signed else "bvudiv"
        else:
            op = "bvsrem" if t.signed else "bvurem"
        return f"({op} {lterm} {rterm})", t
    raise ValueError(f"not a precondition term: {expr!r}")


def _smt_bool(expr: Expr, types: dict[str, CType],
              divisor_guards: list[str]) -> str:
    if isinstance(expr, Binary) and expr.op in ("&&", "||"):
        op = "and" if expr.op == "&&" else "or"
        return (f"({op} {_smt_bool(expr.left, types, divisor_guards)} "
                f"{_smt_bool(expr.right, types, divisor_guards)})")
    if isinstance(expr, Unary) and expr.op == "!":
        return f"(not {_smt_bool(expr.operand, types, divisor_guards)})"
    if isinstance(expr, Binary) and expr.op in _CMP_OPS:
        lterm, rterm, t = _smt_operands(expr, types, divisor_guards)
        if expr.op == "==":
            return f"(= {lterm} {rterm})"
        if expr.op == "!=":
            return f"(not (= {lterm} {rterm}))"
        table = _SMT_SIGNED if t.signed else _SMT_UNSIGNED
        return f"({table[expr.op]} {lterm} {rterm})"
    raise ValueError(f"not a precondition formula: {expr!r}")


def emit_smtlib(a: Expr, b: Expr, variables: dict[str, CType]) -> str:
    """SMT-LIB v2 query: sat iff the formulas disagree on some assignment
    (avoiding division by zero), so unsat means equivalent.  Each variable
    is a bit-vector of its declared width."""
    lines = ["(set-logic QF_BV)"]
    for name in sorted(variables):
        lines.append(f"(declare-const {name} (_ BitVec {variables[name].width}))")
    guards: list[str] = []
    term_a = _smt_bool(a, variables, guards)
    term_b = _smt_bool(b, variables, guards)
    for guard in guards:
        lines.append(f"(assert {guard})")
    lines.append(f"(assert (not (= {term_a} {term_b})))")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


_SOLVER_CANDIDATES = (
    ("z3", ["-in"]),
    ("cvc5", ["--lang", "smt2", "--produce-models", "-"]),
    ("cvc4", ["--lang", "smt2", "--produce-models", "-"]),
)


def find_solver(explicit: str | None = None) -> list[str] | None:
    """Command line for an SMT-LIB solver reading from stdin, if any."""
    if explicit:
        exe = shutil.which(explicit)
        if exe is None:
            return None
        base = explicit.rsplit("/", 1)[-1]
        for name, args in _SOLVER_CANDIDATES:
            if base.startswith(name):
                return [exe, *args]
        return [exe]
    for name, args in _SOLVER_CANDIDATES:
        exe = shutil.which(name)
        if exe is not None:
            return [exe, *args]
    return None


_MODEL_RE = re.compile(
    r"\(define-fun\s+(\w+)\s*\(\)\s*\(_\s*BitVec\s*(\d+)\)\s*"
    r"(#x[0-9a-fA-F]+|#b[01]+|\(_\s*bv(\d+)\s*\d+\s*\))", re.S)


def _parse_model(output: str, variables: dict[str, CType]) -> dict[str, int]:
    model: dict[str, int] = {}
    for m in _MODEL_RE.finditer(output):
        name, width_s, value_s, bv_dec = m.group(1), m.group(2), m.group(3), m.group(4)
        if name not in variables:
            continue
        width = int(width_s)
        if bv_dec is not None:
            raw = int(bv_dec)
        elif value_s.startswith("#x"):
            raw = int(value_s[2:], 16)
        else:
            raw = int(value_s[2:], 2)
        if variables[name].signed and raw >= 1 << (width - 1):
            raw -= 1 << width
        model[name] = raw
    for name in variables:
        model.setdefault(name, 0)
    return model


def smt_equivalence(a: Expr, b: Expr,
                    variables: dict[str, CType],
                    solver: list[str] | None = None,
                    timeout: float = 60.0) -> EquivalenceResult:
    cmd = solver or find_solver()
    if cmd is None:
        return EquivUnknown("no solver")
    query = emit_smtlib(a, b, variables)
    try:
        proc = subprocess.run(cmd, input=query, capture_output=True,
                              text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return EquivUnknown(f"solver failed: {exc}")
    output = proc.stdout
    first = output.strip().splitlines()[0].strip() if output.strip() else ""
    if first == "unsat":
        return Equivalent()
    if first == "sat":
        return Inequivalent(_parse_model(output, variables))
    return EquivUnknown(f"solver answered {first or proc.stderr.strip()!r}")


def check_equivalence(a: Expr, b: Expr,
                      variables: dict[str, CType],
                      mode: str = "brute",
                      box: tuple[int, int] = (-128, 127),
                      solver: list[str] | None = None) -> EquivalenceResult:
    """Decide whether two preconditions agree on every assignment.

    ``mode`` is ``brute``, ``smt``, or ``both`` (both backends must return
    definitive, agreeing answers, otherwise the result is unknown).
    """
    for expr, label in ((a, "left"), (b, "right")):
        unknown = variables_of(expr) - set(variables)
        if unknown:
            raise ValueError(f"{label} formula references undeclared "
                             f"variables: {sorted(unknown)}")
    if mode == "brute":
        return brute_equivalence(a, b, variables, box)
    if mode == "smt":
        return smt_equivalence(a, b, variables, solver)
    if mode == "both":
        rb = brute_equivalence(a, b, variables, box)
        rs = smt_equivalence(a, b, variables, solver)
        if isinstance(rb, EquivUnknown) or isinstance(rs, EquivUnknown):
            reasons = [r.reason for r in (rb, rs) if isinstance(r, EquivUnknown)]
            return EquivUnknown("; ".join(reasons))
        if type(rb) is type(rs):
            return rs if isinstance(rs, Inequivalent) else rb
        return EquivUnknown("divergent backends")
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Pass@k over precondition generations


class GenerationJudgment(Enum):
    EQUIVALENT = "equivalent"
    INEQUIVALENT = "inequivalent"
    UNPARSEABLE = "unparseable"
    UNDECIDED = "undecided"


def judge_generation(text: str, ground_truth: Expr,
                     variables: dict[str, CType], mode: str = "brute",
                     judged: dict[Expr, GenerationJudgment] | None = None,
                     ) -> GenerationJudgment:
    """How the formula ``text`` compares with ``ground_truth``.

    ``judged`` maps formulas already compared with this ground truth, over
    these variables and in this mode, to their judgments; a formula found
    there is not compared again.  Pass one dict per task to judge each
    distinct parsed formula of the task once.
    """
    try:
        expr = parse_precondition(text, set(variables))
    except PrecondParseError:
        return GenerationJudgment.UNPARSEABLE
    judged = {} if judged is None else judged
    if expr not in judged:
        result = check_equivalence(expr, ground_truth, variables, mode=mode)
        judged[expr] = {Equivalent: GenerationJudgment.EQUIVALENT,
                        Inequivalent: GenerationJudgment.INEQUIVALENT,
                        }.get(type(result), GenerationJudgment.UNDECIDED)
    return judged[expr]


def count_equivalent(generations: list[str], ground_truth: Expr,
                     variables: dict[str, CType], mode: str = "brute",
                     judged: dict[Expr, GenerationJudgment] | None = None,
                     ) -> int:
    """How many of a task's precondition generations are equivalent to the
    ground truth, each judged once; the ``c`` of :func:`pass_at_k`.
    ``judged`` is as for :func:`judge_generation`.

    Unparseable or undecided generations count as incorrect.
    """
    return sum(1 for g in generations
               if judge_generation(g, ground_truth, variables, mode, judged)
               is GenerationJudgment.EQUIVALENT)
