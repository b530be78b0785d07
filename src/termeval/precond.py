"""Divergence-precondition expressions and equivalence checking.

Preconditions are boolean formulas over a task's nondeterministic variables,
written with keyword operators (``and``/``or``/``not``) or C operators
(``&&``/``||``/``!``); ``=`` is accepted as equality because annotated
answers often write ``i = 0``.

Equivalence is decided under machine-integer semantics: variables range over
their declared width, operations wrap, ``/`` and ``%`` truncate toward zero,
and literals too wide for int take a 64-bit type (so ``i >= -2147483649``
compares in 64 bits, exactly as C would).  Two backends are provided: a
brute-force evaluator over a boxed domain plus width sentinels, and an
SMT-LIB bit-vector encoding run through any external solver.
"""

from __future__ import annotations

import itertools
import re
import shutil
import subprocess
from dataclasses import dataclass
from enum import Enum

from .cparse import CType, INT, LONG, UINT, ULONG

# ---------------------------------------------------------------------------
# Expression tree


@dataclass(frozen=True)
class BoolBinary:
    op: str  # 'and' | 'or'
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class Not:
    operand: "BoolExpr"


@dataclass(frozen=True)
class Compare:
    op: str  # < <= > >= == !=
    left: "ArithExpr"
    right: "ArithExpr"


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "ArithExpr"


@dataclass(frozen=True)
class ArithBinary:
    op: str  # + - * / %
    left: "ArithExpr"
    right: "ArithExpr"


ArithExpr = IntLit | Var | Neg | ArithBinary
BoolExpr = BoolBinary | Not | Compare
PrecondExpr = BoolExpr


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
    """Recursive descent: or < and < not < comparison < additive < term."""

    def __init__(self, tokens: list[_Tok], known_vars: set[str] | None):
        self.tokens = tokens
        self.pos = 0
        self.known_vars = known_vars

    def peek(self) -> _Tok:
        return self.tokens[self.pos]

    def next(self) -> _Tok:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def parse(self) -> BoolExpr:
        expr = self.parse_or()
        tok = self.peek()
        if tok.kind != "end":
            raise PrecondParseError(f"trailing input {tok.text!r}", tok.pos)
        return expr

    def parse_or(self) -> BoolExpr:
        expr = self.parse_and()
        while self.peek().text in ("or", "||"):
            self.next()
            expr = BoolBinary("or", expr, self.parse_and())
        return expr

    def parse_and(self) -> BoolExpr:
        expr = self.parse_not()
        while self.peek().text in ("and", "&&"):
            self.next()
            expr = BoolBinary("and", expr, self.parse_not())
        return expr

    def parse_not(self) -> BoolExpr:
        tok = self.peek()
        if tok.text in ("not", "!"):
            self.next()
            return Not(self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> BoolExpr:
        if self.peek().text == "(":
            # parenthesized boolean vs. parenthesized arithmetic: try the
            # boolean reading, fall back on the arithmetic one
            saved = self.pos
            self.next()
            try:
                inner = self.parse_or()
                close = self.next()
                if close.text != ")":
                    raise PrecondParseError(f"expected ')', found {close.text!r}",
                                            close.pos)
                if self.peek().text in _CMP_OPS or self.peek().text in ("=",):
                    raise PrecondParseError("comparison of boolean", close.pos)
                return inner
            except PrecondParseError:
                self.pos = saved
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
        return Compare(op, left, right)

    def parse_additive(self) -> ArithExpr:
        expr = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            expr = ArithBinary(op, expr, self.parse_term())
        return expr

    def parse_term(self) -> ArithExpr:
        expr = self.parse_unary()
        while self.peek().text in ("*", "/", "%"):
            op = self.next().text
            expr = ArithBinary(op, expr, self.parse_unary())
        return expr

    def parse_unary(self) -> ArithExpr:
        tok = self.peek()
        if tok.text == "-":
            self.next()
            return Neg(self.parse_unary())
        if tok.text == "+":
            self.next()
            return self.parse_unary()
        return self.parse_atom()

    def parse_atom(self) -> ArithExpr:
        tok = self.next()
        if tok.kind == "num":
            return IntLit(int(tok.text))
        if tok.kind == "name":
            if self.known_vars is not None and tok.text not in self.known_vars:
                raise PrecondParseError(f"unknown identifier {tok.text!r}", tok.pos)
            return Var(tok.text)
        if tok.text == "(":
            expr = self.parse_additive()
            close = self.next()
            if close.text != ")":
                raise PrecondParseError(f"expected ')', found {close.text!r}",
                                        close.pos)
            return expr
        raise PrecondParseError(f"expected value, found {tok.text or 'end'!r}",
                                tok.pos)


def parse_precondition(text: str,
                       known_vars: set[str] | None = None) -> PrecondExpr:
    """Parse a precondition formula; raises :class:`PrecondParseError`."""
    return _PrecondParser(_lex(text), known_vars).parse()


def format_precondition(expr: PrecondExpr | ArithExpr) -> str:
    if isinstance(expr, BoolBinary):
        return (f"({format_precondition(expr.left)} {expr.op} "
                f"{format_precondition(expr.right)})")
    if isinstance(expr, Not):
        return f"not ({format_precondition(expr.operand)})"
    if isinstance(expr, Compare):
        return (f"{format_precondition(expr.left)} {expr.op} "
                f"{format_precondition(expr.right)}")
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return f"-({format_precondition(expr.operand)})"
    if isinstance(expr, ArithBinary):
        return (f"({format_precondition(expr.left)} {expr.op} "
                f"{format_precondition(expr.right)})")
    raise TypeError(expr)


def variables_of(expr) -> set[str]:
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, IntLit):
        return set()
    if isinstance(expr, (Not, Neg)):
        return variables_of(expr.operand)
    if isinstance(expr, (BoolBinary, Compare, ArithBinary)):
        return variables_of(expr.left) | variables_of(expr.right)
    raise TypeError(expr)


# ---------------------------------------------------------------------------
# Brute-force evaluation


class UndefinedOperation(Exception):
    """Division or modulo by zero: the assignment decides nothing."""


def _wrap(value: int, width: int, signed: bool) -> int:
    m = value & ((1 << width) - 1)
    if signed and m >= 1 << (width - 1):
        m -= 1 << width
    return m


def _lit_type(value: int) -> CType:
    return INT if INT.min <= value <= INT.max else LONG


def _join(a: CType, b: CType) -> CType:
    wa, wb = max(a.width, 32), max(b.width, 32)
    width = max(wa, wb)
    if width == 64:
        signed = not ((wa == 64 and not a.signed) or (wb == 64 and not b.signed))
        return LONG if signed else ULONG
    signed = a.signed and b.signed
    return INT if signed else UINT


def eval_arith(expr: ArithExpr, env: dict[str, int],
               types: dict[str, CType]) -> tuple[int, CType]:
    if isinstance(expr, IntLit):
        return expr.value, _lit_type(expr.value)
    if isinstance(expr, Var):
        return env[expr.name], types.get(expr.name, INT)
    if isinstance(expr, Neg):
        v, t = eval_arith(expr.operand, env, types)
        t = t if t.width >= 32 else INT
        return _wrap(-v, t.width, t.signed), t
    if isinstance(expr, ArithBinary):
        lv, lt = eval_arith(expr.left, env, types)
        rv, rt = eval_arith(expr.right, env, types)
        t = _join(lt, rt)
        a = _wrap(lv, t.width, t.signed)
        b = _wrap(rv, t.width, t.signed)
        if expr.op == "+":
            return _wrap(a + b, t.width, t.signed), t
        if expr.op == "-":
            return _wrap(a - b, t.width, t.signed), t
        if expr.op == "*":
            return _wrap(a * b, t.width, t.signed), t
        if b == 0:
            raise UndefinedOperation(f"{expr.op} by zero")
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        if expr.op == "/":
            return _wrap(q, t.width, t.signed), t
        return _wrap(a - q * b, t.width, t.signed), t
    raise TypeError(expr)


def eval_precondition(expr: PrecondExpr, env: dict[str, int],
                      types: dict[str, CType]) -> bool:
    if isinstance(expr, BoolBinary):
        left = eval_precondition(expr.left, env, types)
        if expr.op == "and":
            return left and eval_precondition(expr.right, env, types)
        return left or eval_precondition(expr.right, env, types)
    if isinstance(expr, Not):
        return not eval_precondition(expr.operand, env, types)
    if isinstance(expr, Compare):
        lv, lt = eval_arith(expr.left, env, types)
        rv, rt = eval_arith(expr.right, env, types)
        t = _join(lt, rt)
        a = _wrap(lv, t.width, t.signed)
        b = _wrap(rv, t.width, t.signed)
        return {"<": a < b, "<=": a <= b, ">": a > b,
                ">=": a >= b, "==": a == b, "!=": a != b}[expr.op]
    raise TypeError(expr)


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


def _domain_values(ctype: CType, box: tuple[int, int]) -> list[int]:
    lo = max(box[0], ctype.min)
    hi = min(box[1], ctype.max)
    values = set(range(lo, hi + 1))
    # wraparound boundary sentinels
    values.update({ctype.min, ctype.min + 1, ctype.max - 1, ctype.max})
    return sorted(values)


def brute_equivalence(a: PrecondExpr, b: PrecondExpr,
                      variables: dict[str, CType],
                      box: tuple[int, int] = (-128, 127)) -> EquivalenceResult:
    """Compare both formulas over the cartesian product of per-variable
    domains.  Assignments where either side hits an undefined operation are
    skipped; if everything is skipped the comparison is degenerate."""
    names = sorted(variables)
    domains = [_domain_values(variables[n], box) for n in names]
    types = dict(variables)
    evaluated = 0
    for combo in itertools.product(*domains):
        env = dict(zip(names, combo))
        try:
            va = eval_precondition(a, env, types)
            vb = eval_precondition(b, env, types)
        except UndefinedOperation:
            continue
        evaluated += 1
        if va != vb:
            return Inequivalent(env)
    if evaluated == 0 and names:
        return EquivUnknown("degenerate: every assignment hit undefined arithmetic")
    if not names:
        # closed formulas: a single evaluation decides
        try:
            return (Equivalent() if eval_precondition(a, {}, {}) ==
                    eval_precondition(b, {}, {}) else Inequivalent({}))
        except UndefinedOperation:
            return EquivUnknown("degenerate: undefined arithmetic")
    return Equivalent()


# ---------------------------------------------------------------------------
# SMT-LIB emission


def _smt_type_of(expr: ArithExpr, types: dict[str, CType]) -> CType:
    if isinstance(expr, IntLit):
        return _lit_type(expr.value)
    if isinstance(expr, Var):
        return types.get(expr.name, INT)
    if isinstance(expr, Neg):
        t = _smt_type_of(expr.operand, types)
        return t if t.width >= 32 else INT
    if isinstance(expr, ArithBinary):
        return _join(_smt_type_of(expr.left, types),
                     _smt_type_of(expr.right, types))
    raise TypeError(expr)


def _smt_extend(term: str, have: CType, want: CType) -> str:
    if have.width == want.width:
        return term
    delta = want.width - have.width
    op = "sign_extend" if have.signed else "zero_extend"
    return f"((_ {op} {delta}) {term})"


def _smt_arith(expr: ArithExpr, types: dict[str, CType],
               divisor_guards: list[str]) -> tuple[str, CType]:
    if isinstance(expr, IntLit):
        t = _lit_type(expr.value)
        return f"(_ bv{expr.value % (1 << t.width)} {t.width})", t
    if isinstance(expr, Var):
        t = types.get(expr.name, INT)
        return expr.name, t
    if isinstance(expr, Neg):
        term, t = _smt_arith(expr.operand, types, divisor_guards)
        if t.width < 32:
            term, t = _smt_extend(term, t, INT), INT
        return f"(bvneg {term})", t
    if isinstance(expr, ArithBinary):
        lterm, lt = _smt_arith(expr.left, types, divisor_guards)
        rterm, rt = _smt_arith(expr.right, types, divisor_guards)
        t = _join(lt, rt)
        lterm = _smt_extend(lterm, lt, t)
        rterm = _smt_extend(rterm, rt, t)
        ops = {"+": "bvadd", "-": "bvsub", "*": "bvmul"}
        if expr.op in ops:
            return f"({ops[expr.op]} {lterm} {rterm})", t
        # bvsdiv/bvsrem already implement C truncated semantics (the
        # remainder's sign follows the dividend); division by zero is
        # excluded by a side assertion to mirror the brute-force skip
        divisor_guards.append(
            f"(not (= {rterm} (_ bv0 {t.width})))")
        if expr.op == "/":
            op = "bvsdiv" if t.signed else "bvudiv"
        else:
            op = "bvsrem" if t.signed else "bvurem"
        return f"({op} {lterm} {rterm})", t
    raise TypeError(expr)


def _smt_bool(expr: BoolExpr, types: dict[str, CType],
              divisor_guards: list[str]) -> str:
    if isinstance(expr, BoolBinary):
        op = {"and": "and", "or": "or"}[expr.op]
        return (f"({op} {_smt_bool(expr.left, types, divisor_guards)} "
                f"{_smt_bool(expr.right, types, divisor_guards)})")
    if isinstance(expr, Not):
        return f"(not {_smt_bool(expr.operand, types, divisor_guards)})"
    if isinstance(expr, Compare):
        lterm, lt = _smt_arith(expr.left, types, divisor_guards)
        rterm, rt = _smt_arith(expr.right, types, divisor_guards)
        t = _join(lt, rt)
        lterm = _smt_extend(lterm, lt, t)
        rterm = _smt_extend(rterm, rt, t)
        if expr.op == "==":
            return f"(= {lterm} {rterm})"
        if expr.op == "!=":
            return f"(not (= {lterm} {rterm}))"
        signed = {"<": "bvslt", "<=": "bvsle", ">": "bvsgt", ">=": "bvsge"}
        unsigned = {"<": "bvult", "<=": "bvule", ">": "bvugt", ">=": "bvuge"}
        table = signed if t.signed else unsigned
        return f"({table[expr.op]} {lterm} {rterm})"
    raise TypeError(expr)


def emit_smtlib(a: PrecondExpr, b: PrecondExpr,
                variables: dict[str, CType]) -> str:
    """SMT-LIB v2 query: sat iff the formulas disagree on some assignment
    (avoiding division by zero), so unsat means equivalent."""
    lines = ["(set-logic QF_BV)"]
    for name in sorted(variables):
        width = max(variables[name].width, 32)
        lines.append(f"(declare-const {name} (_ BitVec {width}))")
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


def smt_equivalence(a: PrecondExpr, b: PrecondExpr,
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


def check_equivalence(a: PrecondExpr, b: PrecondExpr,
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


def judge_generation(text: str, ground_truth: PrecondExpr,
                     variables: dict[str, CType],
                     mode: str = "brute") -> GenerationJudgment:
    try:
        expr = parse_precondition(text, set(variables))
    except PrecondParseError:
        return GenerationJudgment.UNPARSEABLE
    result = check_equivalence(expr, ground_truth, variables, mode=mode)
    if isinstance(result, Equivalent):
        return GenerationJudgment.EQUIVALENT
    if isinstance(result, Inequivalent):
        return GenerationJudgment.INEQUIVALENT
    return GenerationJudgment.UNDECIDED


def count_equivalent(generations: list[str], ground_truth: PrecondExpr,
                     variables: dict[str, CType], mode: str = "brute") -> int:
    """How many of a task's precondition generations are equivalent to the
    ground truth, each judged once; the ``c`` of :func:`pass_at_k`.

    Unparseable or undecided generations count as incorrect.
    """
    return sum(1 for g in generations
               if judge_generation(g, ground_truth, variables, mode)
               is GenerationJudgment.EQUIVALENT)
