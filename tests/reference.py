"""Reference implementations that the tests compare the program against.

None of this is reached from the ``termeval`` CLI: each is the plain,
direct statement of a rule whose production form is optimised or folded
into another function (consensus and F1 inside ``evalcore.bootstrap_eval``,
the backtracking lasso path search behind ``lasso.extract_lasso``), or a
tool that only tests need (one-shot evaluation of a C expression, a C
pretty-printer for round trips, a GraphML reader for the emitter's round
trip, the prompt templates' hashes).
"""

from __future__ import annotations

import hashlib
import random
import xml.etree.ElementTree as ET

from termeval.cparse import (
    NONDET_TYPES, Assign, Binary, Block, CType, Decl, Expr, For, If, IntLit,
    NondetAssign, Program, Return, Stmt, Unary, Var, While, compile_expr,
    iter_statements,
)
from termeval.evalcore import CategoryAggregate, SampleOutcome, _f1, score_sample
from termeval.oracle import _read_template
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

    The program compiles each expression once with
    :func:`cparse.compile_expr` and calls the result many times; this
    compiles and calls it once.
    """
    fn, ctype = compile_expr(expr, types)
    return fn(env), ctype


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
