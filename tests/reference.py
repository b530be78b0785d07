"""Reference implementations that the tests compare the program against.

None of this is reached from the ``termeval`` CLI: each is the plain,
direct statement of a rule whose production form is optimised or folded
into another function (consensus and F1 inside ``evalcore.bootstrap_eval``,
the backtracking lasso path search behind ``lasso.extract_lasso``, C
expressions compiled into closures instead of generated code, and the
brute-force loop over them), or a tool that only tests need (a C
pretty-printer for round trips, a GraphML reader for the emitter's round
trip, the prompt templates' hashes).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import random
import xml.etree.ElementTree as ET
from collections.abc import Callable
from typing import NamedTuple

from termeval.cparse import (
    INT, NONDET_TYPES, Assign, Binary, Block, CType, Decl, EvalUndefined, Expr,
    For, If, IntLit, NondetAssign, Program, Return, Stmt, Unary, Var, While,
    compile_expr, iter_statements, promote, usual_arithmetic_type, wrap,
)
from termeval.evalcore import CategoryAggregate, SampleOutcome, _f1, score_sample
from termeval.oracle import _read_template
from termeval.precond import (
    EquivUnknown, Equivalent, Inequivalent, _domain_values,
)
from termeval.witness import Verdict, WitnessAutomaton, WitnessEdge, WitnessNode


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
    elif isinstance(stmt, For):
        parts = ["", "", ""]
        if stmt.init is not None:
            tmp: list[str] = []
            _format_stmt(stmt.init, 0, tmp)
            parts[0] = tmp[0].rstrip(";")
        if stmt.cond is not None:
            parts[1] = format_expr(stmt.cond)
        if stmt.step is not None:
            tmp = []
            _format_stmt(stmt.step, 0, tmp)
            parts[2] = tmp[0].rstrip(";")
        out.append(f"{pad}for ({parts[0]}; {parts[1]}; {parts[2]}) {{")
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
    """Render a Program back to plain C text (loses original line layout)."""
    out: list[str] = []
    for d in program.globals:
        _format_stmt(d, 0, out)
    for fn in program.functions.values():
        ret = fn.ret_type.name if fn.ret_type else "void"
        params = ", ".join(f"{t.name} {n}" for n, t in fn.params) or "void"
        out.append(f"{ret} {fn.name}({params}) {{")
        for s in fn.body:
            _format_stmt(s, 1, out)
        out.append("}")
    return "\n".join(out) + "\n"


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
        if isinstance(s, For):
            return ("for",
                    stmt_key(s.init) if s.init is not None else None,
                    format_expr(s.cond) if s.cond is not None else None,
                    stmt_key(s.step) if s.step is not None else None,
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
    domains = [_domain_values(variables[n], box) for n in names]
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
# Prompt templates


def prompt_template_hashes() -> dict[str, str]:
    """SHA-256 of each prompt template, pinned by a golden test."""
    return {
        name: hashlib.sha256(_read_template(name).encode("utf-8")).hexdigest()
        for name in ("termination_instructions.txt", "termination_examples.txt",
                     "divergence_domain.txt")
    }
