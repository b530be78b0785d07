"""Reference implementations that the tests compare the program against.

None of this is reached from the ``termeval`` CLI: each is the plain,
direct statement of a rule whose production form is optimised or folded
into another function (consensus and F1 inside ``evalcore.bootstrap_eval``,
the backtracking lasso path search behind ``lasso.extract_lasso``, the
schema check and lasso extraction with a graph search per cyclehead, C
expressions compiled into closures instead of generated code, the
brute-force loop over them, the brute-force scan that generated both
formulas of a pair each time, the feasibility checker's pending-edge
tracker, the C tokenizer and expression parser before one regex and
precedence climbing, and precond's own formula parser before it moved onto
cparse), or a tool that only tests need (a walk over every statement, a C
pretty-printer for round trips, a GraphML reader for the emitter's round
trip, the prompt templates' hashes).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import random
import re
import xml.etree.ElementTree as ET
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from termeval.cparse import (
    _BINARY_PRECEDENCE, _KEYWORDS, _PUNCT, INT,
    MAX_EXPR_DEPTH, MAX_EXPR_NESTING, NONDET_TYPES, Assign, Binary, Block,
    CParseError, CType, Decl, EvalUndefined, Expr, If, IntLit,
    NondetAssign, Program, Return, Stmt, Unary, UnsupportedConstruct, Var,
    While, _Gen, _Parser, _SCAN, _Unsupported, _walk, compile_expr,
    expr_depth, int_constant, promote, usual_arithmetic_type, wrap,
)
from termeval.evalcore import CategoryAggregate, SampleOutcome, _f1, score_sample
from termeval.lasso import (
    ASSIGN, COND, DECL, JUMP, NONDET, RETURN, SET, BoundedEvidence,
    CheckerConfig, FeasibilityResult, Infeasible, LassoPath, MachineState,
    NoLasso, ProvenInfinite, Unknown, _clamp_domain, _compile_assumption,
    _lex_path, _lower, _site_key,
)
from termeval import precond
from termeval.oracle import _read_template
from termeval.precond import (
    EquivUnknown, Equivalent, Inequivalent, PrecondParseError,
)
from termeval.witness import (
    CONTROL_VALUES, SchemaViolation, Verdict, WitnessAutomaton, WitnessEdge,
    WitnessNode,
)


# ---------------------------------------------------------------------------
# Scoring: outcome tables, category sums, consensus, F1


WORST_CASE = {Verdict.T: SampleOutcome.FP, Verdict.NT: SampleOutcome.FN}
BEST_CASE = {Verdict.T: SampleOutcome.TN, Verdict.NT: SampleOutcome.TP_VALID}


def aggregate_outcomes(outcomes: dict[str, SampleOutcome],
                       categories: dict[str, str]) -> list[CategoryAggregate]:
    """Sum per-sample points into one aggregate per category."""
    sums: dict[str, int] = {}
    counts: dict[str, int] = {}
    for task_id, outcome in outcomes.items():
        cat = categories[task_id]
        sums[cat] = sums.get(cat, 0) + score_sample(outcome)
        counts[cat] = counts.get(cat, 0) + 1
    return [CategoryAggregate(cat, sums[cat], counts[cat])
            for cat in sorted(sums)]


def consensus_of(votes: list[Verdict]) -> Verdict:
    """Unanimity among the non-unknown votes, otherwise unknown."""
    decided = {v for v in votes if v is not Verdict.UNK}
    if len(decided) == 1:
        return next(iter(decided))
    return Verdict.UNK


def tts_consensus(votes: list[Verdict], n: int, rng: random.Random) -> Verdict:
    """Draw ``n`` votes without replacement and answer only on unanimity."""
    if n > len(votes):
        raise ValueError(f"cannot draw {n} of {len(votes)} votes")
    drawn = [votes[i] for i in sorted(rng.sample(range(len(votes)), n))]
    return consensus_of(drawn)


def f1_per_class(outcomes: list[tuple[Verdict, Verdict]]) -> dict[str, float]:
    """Per-class F1 where an unknown counts as no prediction: it joins no
    predicted-class tally but its sample still weighs down recall."""
    result = {}
    for cls, key in ((Verdict.T, "F1_T"), (Verdict.NT, "F1_NT")):
        predicted = sum(1 for _, p in outcomes if p is cls)
        expected = sum(1 for e, _ in outcomes if e is cls)
        correct = sum(1 for e, p in outcomes if e is cls and p is cls)
        result[key] = _f1(correct, predicted, expected)
    return result


# ---------------------------------------------------------------------------
# C expressions and statements


def eval_expr(expr: Expr, env: dict[str, int],
              types: dict[str, CType]) -> tuple[int, CType]:
    """Evaluate ``expr`` once under C semantics; returns (value, type).

    Both the program's :func:`cparse.compile_expr` and the reference
    compiler below, which builds closures instead, evaluate it.  They must
    agree on the value and type, or raise the same :class:`EvalUndefined`
    or ``KeyError``, so every test that calls this checks both.
    """
    outcomes = []
    for compile_ in (compile_expr, closure_compile):
        try:
            fn, ctype = compile_(expr, types)
            outcomes.append((fn(env), ctype))
        except (EvalUndefined, KeyError) as e:
            outcomes.append(e)
    got, ref = outcomes
    if isinstance(got, Exception):
        assert (type(got), str(got)) == (type(ref), str(ref)), (got, ref)
        raise got
    assert got == ref, (got, ref)
    return got


def format_expr(expr: Expr) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Unary):
        return f"{expr.op}({format_expr(expr.operand)})"
    if isinstance(expr, Binary):
        return f"({format_expr(expr.left)} {expr.op} {format_expr(expr.right)})"
    raise TypeError(f"not an expression: {expr!r}")


def _format_stmt(stmt: Stmt, indent: int, out: list[str]) -> None:
    pad = "    " * indent
    if isinstance(stmt, Decl):
        init = f" = {format_expr(stmt.init)}" if stmt.init is not None else ""
        out.append(f"{pad}{stmt.ctype.name} {stmt.name}{init};")
    elif isinstance(stmt, Assign):
        out.append(f"{pad}{stmt.name} = {format_expr(stmt.expr)};")
    elif isinstance(stmt, NondetAssign):
        fn = next(k for k, v in NONDET_TYPES.items() if v == stmt.ctype)
        out.append(f"{pad}{stmt.name} = {fn}();")
    elif isinstance(stmt, If):
        out.append(f"{pad}if ({format_expr(stmt.cond)}) {{")
        for s in stmt.then_body:
            _format_stmt(s, indent + 1, out)
        if stmt.else_body:
            out.append(f"{pad}}} else {{")
            for s in stmt.else_body:
                _format_stmt(s, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(stmt, While):
        out.append(f"{pad}while ({format_expr(stmt.cond)}) {{")
        for s in stmt.body:
            _format_stmt(s, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(stmt, Return):
        expr = f" {format_expr(stmt.expr)}" if stmt.expr is not None else ""
        out.append(f"{pad}return{expr};")
    elif isinstance(stmt, Block):
        out.append(f"{pad}{{")
        for s in stmt.stmts:
            _format_stmt(s, indent + 1, out)
        out.append(f"{pad}}}")
    else:
        raise TypeError(f"not a statement: {stmt!r}")


def pretty_print(program: Program) -> str:
    """Render a Program back to plain C text (loses original line layout;
    every function returns ``int``)."""
    out: list[str] = []
    for d in program.globals:
        _format_stmt(d, 0, out)
    for name, fn in program.functions.items():
        params = ", ".join(f"{d.ctype.name} {d.name}" for d in fn.params) or "void"
        out.append(f"int {name}({params}) {{")
        for s in fn.body:
            _format_stmt(s, 1, out)
        out.append("}")
    return "\n".join(out) + "\n"


def iter_statements(program: Program):
    """Yield every statement in the program, depth first."""
    yield from _walk(program.globals)
    for fn in program.functions.values():
        yield from _walk(fn.body)


def resolve_line(program: Program, line: int) -> list[Stmt]:
    """All statements whose source line equals ``line`` (possibly empty)."""
    return [s for s in iter_statements(program) if s.line == line]


def strip_alpha(program: Program):
    """Structural summary used for round-trip comparison: statement trees
    with line tags dropped (pretty-printing renumbers lines)."""
    def stmt_key(s: Stmt):
        if isinstance(s, Decl):
            init = format_expr(s.init) if s.init is not None else None
            return ("decl", s.name, s.ctype.name, init)
        if isinstance(s, Assign):
            return ("assign", s.name, format_expr(s.expr))
        if isinstance(s, NondetAssign):
            return ("nondet", s.name, s.ctype.name)
        if isinstance(s, If):
            return ("if", format_expr(s.cond),
                    tuple(stmt_key(x) for x in s.then_body),
                    tuple(stmt_key(x) for x in s.else_body))
        if isinstance(s, While):
            return ("while", format_expr(s.cond),
                    tuple(stmt_key(x) for x in s.body))
        if isinstance(s, Return):
            return ("return", format_expr(s.expr) if s.expr is not None else None)
        if isinstance(s, Block):
            return ("block", tuple(stmt_key(x) for x in s.stmts))
        raise TypeError(s)

    return {
        name: tuple(stmt_key(s) for s in fn.body)
        for name, fn in program.functions.items()
    }


# ---------------------------------------------------------------------------
# C expressions: a closure compiler, and the brute-force loop over it
#
# ``cparse.compile_expr`` generates Python source per expression shape.  Here
# each node is instead a closure over its operands' closures, with the same
# conversions, constant folding and errors.


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


def _truth(code: _Code) -> Callable[[dict[str, int]], int]:
    """A function that is nonzero when ``code``'s value is nonzero as its
    promoted type.  Promotion only widens, so an exact value needs no wrap."""
    f = code.fn
    if code.exact:
        return f
    mask = _masks(promote(code.ctype))[1]
    return lambda env: f(env) & mask


def _unary(op: str, operand: _Code) -> _Code:
    t = promote(operand.ctype)
    half, mask = _masks(t)
    f = operand.fn
    if op == "!":
        test = _truth(operand)
        return _Code(lambda env: 0 if test(env) else 1, INT, True, None)
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
        lt, rt = _truth(left), _truth(right)
        return _Code(lambda env: 1 if lt(env) and rt(env) else 0, INT, True, None)
    if op == "||":
        lt, rt = _truth(left), _truth(right)
        return _Code(lambda env: 1 if lt(env) or rt(env) else 0, INT, True, None)
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


def closure_compile(expr: Expr, types: dict[str, CType],
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


def brute_loop(a: Expr, b: Expr, variables: dict[str, CType],
               box: tuple[int, int], budget: int):
    """``precond.brute_equivalence`` with ``budget`` assignments, as one
    Python loop over closures that updates one environment in place."""
    names = sorted(variables)
    domains = [old_domain_values(variables[n], box) for n in names]
    fa, _ = closure_compile(a, variables)
    fb, _ = closure_compile(b, variables)
    if not names:
        try:
            same = fa({}) == fb({})
        except EvalUndefined:
            return EquivUnknown("degenerate: undefined arithmetic")
        return Equivalent() if same else Inequivalent({})
    env = dict.fromkeys(names, 0)
    *outer, last = names
    left = budget
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
    if total > budget:
        return EquivUnknown(f"budget: {budget} of {total} "
                            "assignments evaluated without a counterexample")
    if not defined:
        return EquivUnknown("degenerate: every assignment hit undefined arithmetic")
    return Equivalent()


def old_domain_values(ctype: CType, box: tuple[int, int]) -> list[int]:
    """``precond._domain_values`` before it was cached as a tuple."""
    lo = max(box[0], ctype.min)
    hi = min(box[1], ctype.max)
    values = set(range(lo, hi + 1))
    # wraparound boundary sentinels
    values.update({ctype.min, ctype.min + 1, ctype.max - 1, ctype.max})
    return sorted(values)


def old_compile_scan(a: Expr, b: Expr, names: list[str],
                     types: dict[str, CType]) -> Callable[..., tuple]:
    """``cparse.compile_scan`` before it generated ``b``'s half once per
    ``(b, names, types)``: both halves generated for every pair, ``a``'s
    literals first."""
    slots = {name: f"_v{i}" for i, name in enumerate(names)}
    gen = _Gen(types, slots)
    left, right = gen.text(gen.node(a)), gen.text(gen.node(b))
    *outer, last = slots.values()
    return gen.make(_SCAN.format(outer=", ".join(outer), last=last,
                                 left=left, right=right))


def old_brute_equivalence(a: Expr, b: Expr, variables: dict[str, CType],
                          box: tuple[int, int] = (-128, 127)):
    """``precond.brute_equivalence`` over :func:`old_compile_scan` and
    :func:`old_domain_values`, with the budget read from
    ``precond.MAX_BRUTE_ASSIGNMENTS`` at each call."""
    budget = precond.MAX_BRUTE_ASSIGNMENTS
    names = sorted(variables)
    domains = [old_domain_values(variables[n], box) for n in names]
    if not names:
        fa, _ = compile_expr(a, variables)
        fb, _ = compile_expr(b, variables)
        try:
            same = fa({}) == fb({})
        except EvalUndefined:
            return EquivUnknown("degenerate: undefined arithmetic")
        return Equivalent() if same else Inequivalent({})
    # a generated scan per prefix of the outer names, until the budget is spent
    scan = old_compile_scan(a, b, names, variables)
    left, defined = budget, False
    for prefix in itertools.product(*domains[:-1]):
        if left <= 0:
            break
        values = domains[-1][:left]
        left -= len(values)
        value, seen = scan(values, *prefix)
        if value is not None:
            return Inequivalent({**dict(zip(names, prefix)), names[-1]: value})
        defined = defined or seen
    total = math.prod(map(len, domains))
    if total > budget:
        return EquivUnknown(f"budget: {budget} of {total} "
                            "assignments evaluated without a counterexample")
    if not defined:
        return EquivUnknown("degenerate: every assignment hit undefined arithmetic")
    return Equivalent()


# ---------------------------------------------------------------------------
# GraphML reader


def parse_graphml(text: str) -> WitnessAutomaton:
    """Read a witness automaton back from GraphML (round-trip checks)."""
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    root = ET.fromstring(text)
    graph = root.find(f"{ns}graph")
    if graph is None:
        raise ValueError("no graph element")

    def data_map(element) -> dict[str, str]:
        return {d.get("key"): (d.text or "") for d in element.findall(f"{ns}data")}

    nodes = []
    for el in graph.findall(f"{ns}node"):
        data = data_map(el)
        nodes.append(WitnessNode(
            id=el.get("id", ""),
            entry=data.get("entry", "false") == "true",
            cyclehead=data.get("cyclehead", "false") == "true",
        ))
    edges = []
    for el in graph.findall(f"{ns}edge"):
        data = data_map(el)
        edges.append(WitnessEdge(
            id=el.get("id", ""),
            source=el.get("source", ""),
            target=el.get("target", ""),
            line=int(data["startline"]) if "startline" in data else None,
            sourcecode=data.get("sourcecode"),
            control=data.get("control"),
            assumption=data.get("assumption"),
            enter_loop_head=data.get("enterLoopHead", "false") == "true",
            enter_function=data.get("enterFunction"),
            return_from=data.get("returnFromFunction"),
        ))
    return WitnessAutomaton(tuple(nodes), tuple(edges))


# ---------------------------------------------------------------------------
# Lasso paths


def lex_dfs_path(edges_from: dict[str, list[WitnessEdge]], start: str,
                 goal: str, allow_empty: bool) -> list[WitnessEdge] | None:
    """Lexicographically smallest (by edge-id sequence) simple path
    start -> goal.  With ``allow_empty`` false a path must use >= 1 edge,
    which makes start == goal a cycle search.  Trying edges in sorted order
    and returning the first completed path yields the lexicographic minimum.

    Recursive backtracking: exponential on ladders of diamonds, and as deep
    as the path is long.
    """
    if start == goal and allow_empty:
        return []

    def dfs(node: str, visited: set[str], path: list[WitnessEdge]) -> bool:
        for edge in edges_from.get(node, ()):
            if edge.target == goal:
                path.append(edge)
                return True
            if edge.target in visited:
                continue
            visited.add(edge.target)
            path.append(edge)
            if dfs(edge.target, visited, path):
                return True
            path.pop()
            visited.discard(edge.target)
        return False

    path: list[WitnessEdge] = []
    if dfs(start, {start}, path):
        return path
    return None


# ---------------------------------------------------------------------------
# Witness graph search before one strongly-connected-components pass: a
# reachability search per cyclehead in the schema check, and a cycle search
# per cyclehead in lasso extraction


def _reachable(start: set[str], adjacency: dict[str, set[str]]) -> set[str]:
    seen = set(start)
    stack = list(start)
    while stack:
        node = stack.pop()
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def old_validate_schema(w: WitnessAutomaton) -> list[SchemaViolation]:
    """Full list of schema violations; empty means the witness is valid."""
    violations: list[SchemaViolation] = []
    node_ids = {n.id for n in w.nodes}
    seen_nodes: set[str] = set()
    for node in w.nodes:
        if not node.id:
            violations.append(SchemaViolation("EmptyNodeId", "node with empty id"))
        elif node.id in seen_nodes:
            violations.append(SchemaViolation("DuplicateNodeId", node.id))
        seen_nodes.add(node.id)

    seen_edges: set[str] = set()
    for edge in w.edges:
        if not edge.id:
            violations.append(SchemaViolation("MissingField", "edge without id"))
        elif edge.id in seen_edges:
            violations.append(SchemaViolation("DuplicateEdgeId", edge.id))
        seen_edges.add(edge.id)
        label = edge.id or "<anonymous>"
        if not edge.source:
            violations.append(SchemaViolation("MissingField", f"edge {label}: source"))
        elif edge.source not in node_ids:
            violations.append(SchemaViolation(
                "UnknownNode", f"edge {label}: source {edge.source!r}"))
        if not edge.target:
            violations.append(SchemaViolation("MissingField", f"edge {label}: target"))
        elif edge.target not in node_ids:
            violations.append(SchemaViolation(
                "UnknownNode", f"edge {label}: target {edge.target!r}"))
        if edge.line is None or edge.line <= 0:
            violations.append(SchemaViolation("MissingField", f"edge {label}: line"))
        if edge.sourcecode is None:
            violations.append(SchemaViolation(
                "MissingField", f"edge {label}: sourcecode"))
        if edge.control is not None and edge.control not in CONTROL_VALUES:
            violations.append(SchemaViolation(
                "BadControl", f"edge {label}: {edge.control!r}"))

    entries = w.entry_nodes()
    if len(entries) != 1:
        violations.append(SchemaViolation(
            "EntryCount", f"expected exactly one entry node, found {len(entries)}"))
    cycleheads = w.cycleheads()
    if not cycleheads:
        violations.append(SchemaViolation("NoCyclehead", "no node marked cyclehead"))

    if violations:
        return violations

    adjacency: dict[str, set[str]] = {}
    for edge in w.edges:
        adjacency.setdefault(edge.source, set()).add(edge.target)
    head_ids = {n.id for n in cycleheads}
    from_entry = _reachable({entries[0].id}, adjacency)
    if not head_ids & from_entry:
        violations.append(SchemaViolation(
            "UnreachableCyclehead", "no cyclehead reachable from the entry node"))
    # a cycle through some cyclehead: the head must reach itself via >= 1 edge
    cycle_ok = False
    for head in head_ids:
        successors = adjacency.get(head, set())
        if head in _reachable(set(successors), adjacency) or head in successors:
            cycle_ok = True
            break
    if not cycle_ok:
        violations.append(SchemaViolation(
            "NoCycle", "no cycle passes through a cyclehead node"))
    return violations


def old_extract_lasso(w: WitnessAutomaton) -> LassoPath | NoLasso:
    """Decompose a schema-valid witness into stem + simple cycle.

    The first cyclehead (in node input order) with a stem and a cycle is
    used; among multiple simple cycles through it the lexicographically
    smallest edge-id sequence wins, and likewise among stems.  The time is
    at most quadratic in the size of the witness.
    """
    cycleheads = w.cycleheads()
    entries = w.entry_nodes()
    if not cycleheads or not entries:
        return NoLasso("missing entry or cyclehead node")
    edges_from: dict[str, list[WitnessEdge]] = {}
    adjacency: dict[str, set[str]] = {}
    for edge in w.edges:
        edges_from.setdefault(edge.source, []).append(edge)
        adjacency.setdefault(edge.source, set()).add(edge.target)
    for out in edges_from.values():
        out.sort(key=lambda e: e.id)

    # a walk that fails costs one pass over the witness, one that succeeds
    # up to a pass per edge taken, so only a head with a stem is searched
    from_entry = _reachable({entries[0].id}, adjacency)
    for head in cycleheads:
        if head.id not in from_entry:
            continue
        cycle = _lex_path(edges_from, adjacency, head.id, head.id,
                          allow_empty=False)
        if cycle is not None:
            stem = _lex_path(edges_from, adjacency, entries[0].id, head.id,
                             allow_empty=True)
            return LassoPath(tuple(stem), tuple(cycle), head.id)
    return NoLasso("no cycle through any cyclehead")


# ---------------------------------------------------------------------------
# Feasibility checking: the pending-edge tracker


_EXECUTABLE = (Assign, NondetAssign, If, While, Return)


def _executable_lines(program: Program) -> set[int]:
    """The lines of ``main``'s statements that run as a step: an assignment,
    a nondet call, a condition, a return, or a declaration that initialises.
    A global's initialiser runs before ``main`` and matches no edge, and no
    function but ``main`` runs."""
    return {stmt.line for stmt in _walk(program.functions["main"].body)
            if isinstance(stmt, _EXECUTABLE)
            or (isinstance(stmt, Decl) and stmt.init is not None)}


def _edge_matchable(edge: WitnessEdge, executable_lines: set) -> bool:
    return edge.line is not None and edge.line in executable_lines


def _expectations(edges, types: dict[str, CType]) -> list[tuple]:
    """Per edge: its line, its control, the branch that control wants, and
    its compiled assumption."""
    return [(e.line, e.control, e.control == "condition-true",
             _compile_assumption(e.assumption, types)) for e in edges]


# per-assignment outcomes
_PROVEN = "proven"
_BOUNDED = "bounded"
_EDGE_FAIL = "edge_fail"     # ended or stalled while an edge was being refused
_BUDGET = "budget"           # stalled or ran out of steps without a refusal
_UNDEFINED = "undefined"     # evaluation hit undefined behaviour
_NO_PROGRESS = "no_progress"


@dataclass
class _RunOutcome:
    kind: str
    edge_id: str | None = None
    cycles: int = 0
    state: MachineState | None = None
    steps: int = 0


class _Periodic(Exception):
    def __init__(self, state: MachineState):
        self.state = state


class _CycleTarget(Exception):
    pass


class _DegenerateCycle(Exception):
    pass


class _PendingTracker:
    """Walks stem + cycle, auto-skipping edges whose line holds nothing
    executable and accounting for completed cycles."""

    def __init__(self, lasso: LassoPath, cfg: CheckerConfig,
                 matchable: list[bool], expected: list[tuple]):
        self.sequence = list(lasso.stem) + list(lasso.cycle)
        self.stem_len = len(lasso.stem)
        self.cfg = cfg
        self.matchable = matchable  # per edge of the sequence
        self.expected = expected  # per edge, from _expectations
        self.pos = 0
        self.cycles = 0
        self.accepted_in_cycle = 0
        self.last_accept_line = 0
        self.last_accept_uid = 0
        self.seen_states: dict[tuple, int] = {}
        self._settle(None)

    @property
    def pending(self) -> WitnessEdge:
        return self.sequence[self.pos]

    def nondet_seen(self):
        self.seen_states.clear()  # repetition evidence no longer deterministic

    def accept(self, line: int, uid: int, env: dict[str, int]):
        """Pending edge matched the step; advance past it and any skippable
        successors.  Raises on a proof, target reached, or degenerate cycle."""
        self.accepted_in_cycle += 1
        self.last_accept_line = line
        self.last_accept_uid = uid
        self._step(env)
        self._settle(env)

    def _step(self, env):
        self.pos += 1
        if self.pos == len(self.sequence):
            self._complete(env)
            self.pos = self.stem_len

    def _complete(self, env):
        if self.accepted_in_cycle == 0:
            # the entire cycle was skipped: the witness cannot constrain
            # execution, so looping here proves nothing
            raise _DegenerateCycle
        self.cycles += 1
        self.accepted_in_cycle = 0
        snapshot = tuple(sorted(env.items()))
        key = (self.last_accept_uid, snapshot)
        if key in self.seen_states:
            raise _Periodic(MachineState(self.last_accept_line, snapshot))
        self.seen_states[key] = self.cycles
        if self.cycles >= self.cfg.bounded_cycle_target:
            raise _CycleTarget

    def _settle(self, env):
        guard = 0
        while not self.matchable[self.pos]:
            self._step(env if env is not None else {})
            guard += 1
            if guard > len(self.sequence) + 1:
                raise _DegenerateCycle


def _execute(code: list[tuple], assignment: dict[str, int],
             tracker: _PendingTracker | None, max_steps: int,
             stall_steps: int) -> _RunOutcome:
    """Run the program from its start and offer each step to ``tracker``.

    A step matches the pending edge when its line agrees, its branch agrees
    with the edge's control, and the edge's assumption holds after it.
    Without a tracker no step matches, and the run ends after ``max_steps``.
    """
    env: dict[str, int] = {}
    steps = since_advance = refusals = 0
    line_wanted, control, want, assumption = (
        tracker.expected[tracker.pos] if tracker is not None else (None,) * 4)

    def ended(kind: str) -> _RunOutcome:
        if tracker is None:
            return _RunOutcome(kind, steps=steps)
        return _RunOutcome(kind, tracker.pending.id, tracker.cycles, steps=steps)

    pc = 0
    try:
        while True:
            here = pc
            op, line, a, b = code[here]
            pc = here + 1
            if op == COND:
                branch = a(env) != 0
                if not branch:
                    pc = b
            elif op == ASSIGN:
                env[a] = b(env)
            elif op == JUMP:
                pc = a
                continue
            elif op == NONDET:
                env[a] = b(assignment)
                if tracker is not None:
                    tracker.nondet_seen()
            elif op == RETURN:
                if a is not None:
                    a(env)
            elif op == SET:
                env[a] = b(env)
                continue
            elif op == DECL:
                env.setdefault(a, 0)
                continue
            else:
                # the program ended while the automaton still expected edges
                return ended(_EDGE_FAIL)
            steps += 1
            since_advance += 1

            if line == line_wanted and (
                    control is None or (op == COND and branch is want)):
                try:
                    holds = assumption is None or assumption(env) != 0
                except (EvalUndefined, KeyError):
                    holds = False
                if holds:
                    try:
                        tracker.accept(line, here, env)
                    except _Periodic as proof:
                        return _RunOutcome(_PROVEN, None, tracker.cycles,
                                           proof.state, steps)
                    except _CycleTarget:
                        return _RunOutcome(_BOUNDED, None, tracker.cycles,
                                           steps=steps)
                    except _DegenerateCycle:
                        return _RunOutcome(_NO_PROGRESS, None, tracker.cycles,
                                           steps=steps)
                    line_wanted, control, want, assumption = (
                        tracker.expected[tracker.pos])
                    since_advance = refusals = 0
                else:
                    refusals += 1

            if op == RETURN:
                return ended(_EDGE_FAIL)
            if since_advance > stall_steps or steps >= max_steps:
                return ended(_EDGE_FAIL if refusals else _BUDGET)
    except (EvalUndefined, KeyError):
        return ended(_UNDEFINED)


def _simulate_assignment(code: list[tuple], lasso: LassoPath,
                         assignment: dict[str, int], cfg: CheckerConfig,
                         matchable: list[bool],
                         expected: list[tuple]) -> _RunOutcome:
    try:
        tracker = _PendingTracker(lasso, cfg, matchable, expected)
    except _DegenerateCycle:  # no edge of the cycle can match a step
        return _RunOutcome(_NO_PROGRESS)
    return _execute(code, assignment, tracker, cfg.max_steps, cfg.stall_steps)


def tracker_check_feasibility(p: Program | UnsupportedConstruct,
                              lasso: LassoPath,
                              cfg: CheckerConfig | None = None
                              ) -> FeasibilityResult:
    """``lasso.check_feasibility`` with a :class:`_PendingTracker` per
    assignment, which copies stem + cycle and skips the edges on lines
    without an executable statement as it meets them.

    It differs from the production checker on one kind of lasso: a matched
    stem and a cycle with no edge on an executable line.  Here that run
    completes one cycle when the stem is matched, so a ``bounded_cycle_target``
    of 1 gives ``BoundedEvidence``; the production checker gives ``Unknown``.

    Assignments fix one value per nondet call site (reused on every
    execution of that site) and are enumerated in ascending order.  Result
    precedence across assignments: ProvenInfinite > BoundedEvidence >
    Infeasible > Unknown, where Infeasible additionally requires that the
    whole domain was enumerated and every assignment failed edge consistency.
    """
    cfg = cfg or CheckerConfig()
    if isinstance(p, UnsupportedConstruct):
        return Unknown(f"unsupported: {p}")
    if not lasso.cycle:
        return Unknown("lasso has no cycle")

    sites = p.nondet_vars
    executable_lines = _executable_lines(p)
    edges = (*lasso.stem, *lasso.cycle)
    matchable = [_edge_matchable(e, executable_lines) for e in edges]
    expected = _expectations(edges, p.types)
    code = _lower(p)

    domains = [_clamp_domain(site.ctype, cfg.nondet_domain) for site in sites]
    truncated = math.prod(map(len, domains)) > cfg.max_assignments
    keys = [_site_key(site.name, site.line) for site in sites]
    # the last site varies fastest
    values = itertools.islice(itertools.product(*domains), cfg.max_assignments)

    best_bounded: BoundedEvidence | None = None
    first_failed_edge: str | None = None
    saw_budget = False
    for assignment in (dict(zip(keys, v)) for v in values):
        outcome = _simulate_assignment(code, lasso, assignment, cfg,
                                       matchable, expected)
        if outcome.kind == _PROVEN:
            return ProvenInfinite(outcome.state, assignment)
        if outcome.kind == _BOUNDED and best_bounded is None:
            best_bounded = BoundedEvidence(outcome.cycles, assignment)
        elif outcome.kind == _EDGE_FAIL:
            if first_failed_edge is None:
                first_failed_edge = outcome.edge_id
        elif outcome.kind in (_BUDGET, _UNDEFINED, _NO_PROGRESS):
            saw_budget = True

    if best_bounded is not None:
        return best_bounded
    if saw_budget or truncated:
        return Unknown("budget exhausted before a conclusive answer")
    if first_failed_edge is not None:
        return Infeasible(first_failed_edge)
    return Unknown("no nondet assignments produced evidence")


# ---------------------------------------------------------------------------
# The C front end before punctuators matched one regex and binary operators
# parsed by precedence climbing: the tokenizer, the expression methods, and
# the entry points that use them.  The statement methods are the program's.


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident', 'num', 'punct', 'keyword', 'eof'
    text: str
    line: int
    value: int | None = None
    ctype: CType | None = None


_NUMBER_RE = re.compile(r"0[xX][0-9a-fA-F]+|[0-9]+")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def old_tokenize(source: str) -> list[Token]:
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


class _ExprParser(_Parser):
    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise CParseError(f"expected {text!r}, found {tok.text!r}", tok.line)
        return tok

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


def old_parse_program(source: str) -> Program | UnsupportedConstruct:
    """Parse C source into a :class:`Program`.

    Constructs outside the subset yield :class:`UnsupportedConstruct` — a
    classification, not an error.  Lexical problems raise
    :class:`CParseError`.
    """
    tokens = old_tokenize(source)
    try:
        return _ExprParser(tokens).parse_program()
    except _Unsupported as u:
        return UnsupportedConstruct(u.line, u.construct)


def old_parse_expression(text: str) -> Expr:
    """Parse a standalone C expression (used for witness assumptions)."""
    tokens = old_tokenize(text)
    parser = _ExprParser(tokens)
    try:
        expr = parser.parse_expression()
    except _Unsupported as u:
        raise CParseError(f"unsupported in expression: {u.construct}", u.line)
    if parser.peek().kind != "eof":
        raise CParseError(f"trailing input {parser.peek().text!r}",
                          parser.peek().line)
    return expr


# ---------------------------------------------------------------------------
# The precondition front end before it parsed through cparse: its own lexer
# and a recursive-descent parser building the same cparse trees.


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


def old_parse_precondition(text: str, known_vars: set[str] | None = None) -> Expr:
    """Parse a precondition formula into a :mod:`cparse` expression whose
    value is 1 or 0; raises :class:`PrecondParseError`."""
    return _PrecondParser(_lex(text), known_vars).parse()


# ---------------------------------------------------------------------------
# Prompt templates


def prompt_template_hashes() -> dict[str, str]:
    """SHA-256 of each prompt template, pinned by a golden test."""
    return {
        name: hashlib.sha256(_read_template(name).encode("utf-8")).hexdigest()
        for name in ("termination_instructions.txt", "termination_examples.txt",
                     "divergence_domain.txt")
    }
