"""Divergence-precondition formulas and equivalence checking.

Preconditions are boolean formulas over a task's nondeterministic variables,
written with keyword operators (``and``/``or``/``not``) or C operators
(``&&``/``||``/``!``); ``=`` is accepted as equality because annotated
answers often write ``i = 0``.  Formulas are read by :mod:`cparse`'s
tokenizer and expression parser, and cparse gives the trees C's meaning.

Equivalence is decided under machine-integer semantics: variables range over
their declared width, operands take C's integer promotions and usual
arithmetic conversions, operations wrap, ``/`` and ``%`` truncate toward
zero, and literals take C's types: a leading ``0`` is octal, and literals
too wide for int take a wider type (so ``i >= -2147483649`` compares in 64
bits, exactly as C would).  Two backends
are provided: a brute-force check that compiles both formulas once into one
generated loop with :func:`cparse.compile_scan` and runs it over a boxed
domain plus width sentinels, within an assignment budget; and an SMT-LIB
bit-vector encoding of the same tree, run through any external solver.  Two
threshold formulas, connectives over comparisons of a variable with a
constant, get the brute-force check's answer from bit masks over one value
of each region where their comparisons are constant, with no generated code.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import re
import shutil
import subprocess
from dataclasses import dataclass
from enum import Enum

from .cparse import (
    _BINARY_LEVEL, _COMPARE, INT, Binary, CParseError, CType, EvalUndefined,
    Expr, IntLit, Token, Unary, Var, _Parser, compile_expr, compile_scan,
    promote, tokenize, usual_arithmetic_type, wrap,
)


class PrecondParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Parser: cparse's, over rewritten tokens, with `!` binding as `not` reads

_ARITH_OPS = {"+", "-", "*", "/", "%"}
_KEYWORD_OPS = {"and": "&&", "or": "||", "not": "!"}


def _misshapen(expr: Expr, starts: dict[int, int], at: int = 0,
               term: bool = False) -> int | None:
    """None if ``expr`` is ``&&``, ``||`` and ``!`` over comparisons of
    terms, or with ``term`` a term: ``+ - * / %`` and unary minus over
    literals and names.  Otherwise the offset where the first subtree out of
    shape starts, from ``starts`` (keyed by node ``id``) or, for a node not
    in it, from its nearest ancestor that is, ``at``."""
    at = starts.get(id(expr), at)
    if isinstance(expr, Binary):
        if expr.op in (_ARITH_OPS if term else ("&&", "||")):
            inner = term
        elif not term and expr.op in _COMPARE:
            inner = True
        else:
            return at
        bad = _misshapen(expr.left, starts, at, inner)
        return bad if bad is not None else _misshapen(expr.right, starts, at, inner)
    if isinstance(expr, Unary):
        if expr.op == ("-" if term else "!"):
            return _misshapen(expr.operand, starts, at, term)
        return at
    return None if term else at


class _FormulaParser(_Parser):
    """cparse's expression parser, except that ``!`` negates everything up
    to the next ``&&`` or ``||``, as ``not`` does in prose: ``not i < 0`` is
    ``!(i < 0)``, where C would read ``(!i) < 0``.  A unary ``+`` leaves no
    node in the tree, so its operand is checked here.  ``starts`` maps each
    operand's node ``id`` to the offset of its first token."""

    def __init__(self, tokens: list[Token]):
        super().__init__(tokens)
        self.starts: dict[int, int] = {}

    def _parse_binary(self, min_level: int) -> Expr:
        start = self.tokens[self.pos].offset
        expr = _Parser._parse_binary(self, min_level)
        self.starts.setdefault(id(expr), start)
        return expr

    def _parse_unary(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok.kind != "punct" or tok.text not in ("!", "+"):
            return _Parser._parse_unary(self)
        self.pos += 1
        self._nest(tok)
        if tok.text == "!":
            expr = Unary("!", self._parse_binary(_BINARY_LEVEL["=="]))
        else:
            expr = self._parse_unary()
            if _misshapen(expr, {}, term=True) is not None:
                raise CParseError("'+' before a formula", tok.line, tok.offset)
        self.nesting -= 1
        return expr


def _formula_tokens(text: str, known_vars: set[str] | None) -> list[Token]:
    """cparse's tokens of ``text``, with ``and``/``or``/``not`` in any case
    as ``&&``/``||``/``!``, a lone ``=`` as ``==``, ``++`` and ``--`` as two
    signs, and C keywords as names.  Comments, hex or suffixed literals and
    names outside ``known_vars`` are errors; the parser and
    :func:`_misshapen` refuse the rest."""
    # cparse skips comments and preprocessor lines; a formula has none
    marks = [at for at in map(text.find, ("//", "/*", "#")) if at >= 0]
    if marks:
        raise PrecondParseError("comment or preprocessor line", min(marks))
    try:
        tokens = tokenize(text)
    except CParseError as exc:
        raise PrecondParseError(
            "bad integer literal"
            if exc.message.startswith("unsupported integer literal")
            else exc.message, exc.offset)
    out = []
    for tok in tokens:
        kind, word = tok.kind, tok.text
        if kind == "punct":
            if word == "=":
                tok = Token("punct", "==", tok.line, tok.offset)
            elif word == "++" or word == "--":
                out.append(Token("punct", word[0], tok.line, tok.offset))
                tok = Token("punct", word[0], tok.line, tok.offset + 1)
        elif kind == "ident" or kind == "keyword":
            op = _KEYWORD_OPS.get(word.lower())
            if op is not None:
                tok = Token("punct", op, tok.line, tok.offset)
            elif known_vars is not None and word not in known_vars:
                raise PrecondParseError(f"unknown identifier {word!r}", tok.offset)
            elif kind == "keyword":
                tok = Token("ident", word, tok.line, tok.offset)
        elif kind == "num" and not word.isdigit():
            raise PrecondParseError(f"hex or suffixed literal {word!r}",
                                    tok.offset)
        out.append(tok)
    return out


def parse_precondition(text: str, known_vars: set[str] | None = None) -> Expr:
    """Parse a precondition formula into a :mod:`cparse` expression whose
    value is 1 or 0; raises :class:`PrecondParseError`.  README.md states
    the grammar: connectives over comparisons of arithmetic terms over
    unsuffixed decimal or octal literals and names, in ASCII."""
    parser = _FormulaParser(_formula_tokens(text, known_vars))
    try:
        expr = parser.parse_whole_expression()
    except CParseError as exc:
        raise PrecondParseError(exc.message, exc.offset)
    bad = _misshapen(expr, parser.starts)
    if bad is not None:
        raise PrecondParseError("not connectives over comparisons of terms", bad)
    return expr


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

# The brute-force check evaluates at most this many assignments (about 0.3 s
# of `x + y < z` against its negation on a 2-vCPU VM, Python 3.11).  Two int
# variables over the default box take 260 * 260 = 67,600; three would take
# 17.6 million.
MAX_BRUTE_ASSIGNMENTS = 1_000_000


@functools.lru_cache(maxsize=64)
def _domain_values(ctype: CType, box: tuple[int, int]) -> tuple[int, ...]:
    lo = max(box[0], ctype.min)
    hi = min(box[1], ctype.max)
    values = set(range(lo, hi + 1))
    # wraparound boundary sentinels
    values.update({ctype.min, ctype.min + 1, ctype.max - 1, ctype.max})
    return tuple(sorted(values))


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


def _constant(expr: Expr) -> tuple[int, CType] | None:
    """The value and type C gives a literal under unary minuses, or None for
    any other term."""
    if isinstance(expr, IntLit):
        return expr.value, expr.ctype
    if isinstance(expr, Unary) and expr.op == "-":
        inner = _constant(expr.operand)
        if inner is not None:
            t = promote(inner[1])
            return wrap(-inner[0], t), t
    return None


def _threshold_form(expr: Expr, variables: dict[str, CType]) -> tuple | None:
    """``expr`` as nested tuples when it is a threshold formula: ``&&``,
    ``||`` and ``!`` over comparisons of a name in ``variables`` with a
    constant.  A connective is ``(op, left, right)`` or ``("!", operand)``.
    A comparison is ``(name, op, c, w)``, read as ``name op c`` once both
    sides take their usual arithmetic type ``t``: ``c`` is the constant in
    ``t``, and ``w`` is ``t``'s width when a signed name is read in an
    unsigned ``t``, which adds ``2**w`` to its negative values, and 0
    otherwise.  None for any other formula."""
    if isinstance(expr, Unary):
        inner = _threshold_form(expr.operand, variables) if expr.op == "!" else None
        return None if inner is None else ("!", inner)
    if not isinstance(expr, Binary):
        return None
    if expr.op == "&&" or expr.op == "||":
        left = _threshold_form(expr.left, variables)
        right = None if left is None else _threshold_form(expr.right, variables)
        return None if right is None else (expr.op, left, right)
    if expr.op not in _COMPARE:
        return None
    var, const, op = expr.left, _constant(expr.right), expr.op
    if const is None:
        var, const, op = expr.right, _constant(expr.left), _FLIP[op]
    if const is None or not isinstance(var, Var) or var.name not in variables:
        return None
    vt = variables[var.name]
    t = usual_arithmetic_type(vt, const[1])
    w = t.width if vt.signed and not t.signed else 0
    return var.name, op, wrap(const[0], t), w


def _comparisons(form: tuple, into: set) -> set:
    while form[0] == "!":
        form = form[1]
    if form[0] == "&&" or form[0] == "||":
        _comparisons(form[1], into)
        return _comparisons(form[2], into)
    into.add(form)
    return into


# which parts of a run, split at the constant into below, equal and above, hold
_PARTS = {"<": ((0, 1),), "<=": ((0, 2),), ">": ((2, 3),), ">=": ((1, 3),),
          "==": ((1, 2),), "!=": ((0, 1), (2, 3))}


def _mask_equivalence(fa: tuple, fb: tuple, names: list[str],
                      domains: list[tuple[int, ...]]) -> EquivalenceResult:
    """:func:`brute_equivalence` of two :func:`_threshold_form` formulas, by
    bit masks.

    A comparison ``(name, op, c, w)`` reads ``name``'s values in order, or
    with ``w`` its negative ones above the rest, so its value changes only
    at ``c`` and ``c + 1``, and with ``w`` also at ``c - 2**w``,
    ``c - 2**w + 1`` and 0.  Cut at those points, each name's domain falls
    into regions on which both formulas are constant, and a region's first
    value stands for it.  Bit ``i`` of a mask is the assignment at index
    ``i`` of the grid of those values, the first name outermost as in the
    scan; so the lowest bit where the formulas' masks differ is the scan's
    first counterexample."""
    comparisons = _comparisons(fb, _comparisons(fa, set()))
    cuts = {name: set() for name in names}
    for name, _, c, w in comparisons:
        cuts[name].update((c, c + 1, c - (1 << w), c - (1 << w) + 1, 0)
                          if w else (c, c + 1))
    reps = []
    for name, domain in zip(names, domains):
        starts = {0, *(bisect.bisect_left(domain, cut) for cut in cuts[name])}
        reps.append([domain[i] for i in sorted(starts) if i < len(domain)])
    sizes = [len(r) for r in reps]
    full = (1 << math.prod(sizes)) - 1
    # per name: its index, the grid bits one of its values spans, and the
    # factor that repeats a pattern over its values for each outer value
    layout, inner = {}, 1
    for k in reversed(range(len(names))):
        span = sizes[k] * inner
        layout[names[k]] = k, inner, full // ((1 << span) - 1)
        inner = span

    masks = {}
    for key in comparisons:
        name, op, c, w = key
        k, step, tile = layout[name]
        values = reps[k]
        z = bisect.bisect_left(values, 0) if w else 0
        if z:
            values = [v + (1 << w) for v in values[:z]] + values[z:]
        block = 0
        for s, e in ((0, z), (z, len(values))) if z else ((0, len(values)),):
            bounds = (s, bisect.bisect_left(values, c, s, e),
                      bisect.bisect_right(values, c, s, e), e)
            for i, j in _PARTS[op]:
                lo, hi = bounds[i], bounds[j]
                block |= ((1 << ((hi - lo) * step)) - 1) << (lo * step)
        masks[key] = block * tile

    def mask(form: tuple) -> int:
        if form[0] == "!":
            return full ^ mask(form[1])
        if form[0] == "&&":
            return mask(form[1]) & mask(form[2])
        if form[0] == "||":
            return mask(form[1]) | mask(form[2])
        return masks[form]

    diff = mask(fa) ^ mask(fb)
    if not diff:
        return Equivalent()
    index = (diff & -diff).bit_length() - 1
    point = []
    for k in reversed(range(len(names))):
        index, i = divmod(index, sizes[k])
        point.append(reps[k][i])
    return Inequivalent(dict(zip(names, reversed(point))))


def brute_equivalence(a: Expr, b: Expr, variables: dict[str, CType],
                      box: tuple[int, int] = (-128, 127)) -> EquivalenceResult:
    """Compare both formulas over the cartesian product of per-variable
    domains, the first variable in sorted order outermost, and return the
    first counterexample.  Assignments where either side hits an undefined
    operation are skipped; if everything is skipped the comparison is
    degenerate.  Past :data:`MAX_BRUTE_ASSIGNMENTS` assignments without a
    counterexample the result is unknown.  Two threshold formulas whose
    product fits the budget are compared by :func:`_mask_equivalence`, with
    the same result and no generated code."""
    names = sorted(variables)
    domains = [_domain_values(variables[n], box) for n in names]
    if not names:
        fa, _ = compile_expr(a, variables)
        fb, _ = compile_expr(b, variables)
        try:
            same = fa({}) == fb({})
        except EvalUndefined:
            return EquivUnknown("degenerate: undefined arithmetic")
        return Equivalent() if same else Inequivalent({})
    total = math.prod(map(len, domains))
    if total <= MAX_BRUTE_ASSIGNMENTS:
        fa = _threshold_form(a, variables)
        fb = None if fa is None else _threshold_form(b, variables)
        if fb is not None:
            return _mask_equivalence(fa, fb, names, domains)
    # a generated scan per prefix of the outer names, until the budget is spent
    scan = compile_scan(a, b, names, variables)
    left, defined = MAX_BRUTE_ASSIGNMENTS, False
    for prefix in itertools.product(*domains[:-1]):
        if left <= 0:
            break
        values = domains[-1][:left]
        left -= len(values)
        value, seen = scan(values, *prefix)
        if value is not None:
            return Inequivalent({**dict(zip(names, prefix)), names[-1]: value})
        defined = defined or seen
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
    if isinstance(expr, Binary) and expr.op in _COMPARE:
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


def find_solver() -> list[str] | None:
    """Command line for an SMT-LIB solver reading from stdin, if any."""
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


def _undeclared(expr: Expr, variables: dict[str, CType], label: str) -> None:
    unknown = variables_of(expr) - set(variables)
    if unknown:
        raise ValueError(f"{label} formula references undeclared "
                         f"variables: {sorted(unknown)}")


def check_equivalence(a: Expr, b: Expr,
                      variables: dict[str, CType],
                      mode: str = "brute") -> EquivalenceResult:
    """Decide whether two preconditions agree on every assignment.

    ``mode`` is ``brute``, ``smt``, or ``both`` (both backends must return
    definitive, agreeing answers, otherwise the result is unknown).
    """
    _undeclared(a, variables, "left")
    _undeclared(b, variables, "right")
    return _compare(a, b, variables, mode)


def _compare(a: Expr, b: Expr, variables: dict[str, CType],
             mode: str) -> EquivalenceResult:
    """:func:`check_equivalence` of formulas known to read only
    ``variables``."""
    if mode == "brute":
        return brute_equivalence(a, b, variables)
    if mode == "smt":
        return smt_equivalence(a, b, variables)
    if mode == "both":
        rb = brute_equivalence(a, b, variables)
        rs = smt_equivalence(a, b, variables)
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
                     judged: dict[str | Expr, GenerationJudgment] | None = None,
                     ) -> GenerationJudgment:
    """How the formula ``text`` compares with ``ground_truth``.

    ``judged`` holds what is already known of this ground truth, over these
    variables and in this mode: reply texts and parsed formulas, each mapped
    to its judgment.  A text found there is not parsed again, and a formula
    found there is not compared again.  Pass one dict per task to parse each
    distinct text and compare each distinct formula of the task once; the
    ground truth's variables are checked when the dict is empty.
    """
    judged = {} if judged is None else judged
    judgment = judged.get(text)
    if judgment is not None:
        return judgment
    if not judged:
        _undeclared(ground_truth, variables, "right")
    try:
        expr = parse_precondition(text, set(variables))
    except PrecondParseError:
        judged[text] = GenerationJudgment.UNPARSEABLE
        return GenerationJudgment.UNPARSEABLE
    judgment = judged.get(expr)
    if judgment is None:
        result = _compare(expr, ground_truth, variables, mode)
        judgment = judged[expr] = {
            Equivalent: GenerationJudgment.EQUIVALENT,
            Inequivalent: GenerationJudgment.INEQUIVALENT,
        }.get(type(result), GenerationJudgment.UNDECIDED)
    judged[text] = judgment
    return judgment


def count_equivalent(generations: list[str], ground_truth: Expr,
                     variables: dict[str, CType], mode: str = "brute",
                     judged: dict[str | Expr, GenerationJudgment] | None = None,
                     ) -> int:
    """How many of a task's precondition generations are equivalent to the
    ground truth, each judged once; the ``c`` of :func:`pass_at_k`.
    ``judged`` is as for :func:`judge_generation`.

    Unparseable or undecided generations count as incorrect.
    """
    return sum(1 for g in generations
               if judge_generation(g, ground_truth, variables, mode, judged)
               is GenerationJudgment.EQUIVALENT)
