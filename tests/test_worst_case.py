"""Worst-case inputs for every entry point that reads task or oracle text,
or the witness graph and lasso built from it.

Each row pairs an entry point with an adversarial generator of size ``n``
and asserts two things: the entry point gives its documented outcome (a
value, a :class:`CParseError` or a :class:`PrecondParseError`, a list of
schema violations or an ``Unknown``, never a ``RecursionError`` or another
exception), and 4n takes under 8 times as long as n, so the time is near
linear.  The n and 4n timings take turns, three rounds of each; a round
repeats the call for at least 5 ms, the best round of each size is kept,
and the garbage collector is off.  An entry point whose input is
bounded, such as ``compile_expr`` on the deepest tree the parser accepts,
scales its input so that 4n is at the bound.
"""

import gc
import math
import time

import pytest

from termeval.cli import extract_precondition_answer
from termeval.cparse import (
    CHAR, INT, MAX_EXPR_DEPTH, MAX_EXPR_NESTING, MAX_STMT_NESTING, SHORT, Binary,
    CParseError, EvalUndefined, Program, compile_expr, parse_expression,
    parse_program, tokenize,
)
from termeval.lasso import (
    LassoPath, NoLasso, ProvenInfinite, check_feasibility, extract_lasso,
    run_program,
)
from termeval.oracle import replay_records
from termeval.precond import (
    Equivalent, PrecondParseError, brute_equivalence, judge_generation,
    parse_precondition,
)
from termeval.witness import (
    FormatError, WitnessAutomaton, WitnessEdge, WitnessNode, validate_schema,
    witness_from_json,
)

N = 1000


def program(body: str) -> str:
    return "int main() { int x = 0; " + body + " return 0; }"


# generator name -> text of size n
GENERATORS = {
    "deep nesting": lambda n: "(" * n + "x" + ")" * n + " > 0",
    "flat chain": lambda n: " + ".join(["x"] * n) + " > 0",
    "flat and-chain": lambda n: " && ".join(["x > 0"] * n),
    "open parens": lambda n: "(" * n,
    "prefix run": lambda n: "-" * n + "x > 0",
    "long literal": lambda n: "x > " + "9" * n,
    "block comments": lambda n: "/* c */ " * n + "x > 0",
    "line comments": lambda n: "// c\n" * n + "x > 0",
}

PROGRAM_GENERATORS = {
    "deep nesting": lambda n: program("x = " + "(" * n + "x" + ")" * n + ";"),
    "flat chain": lambda n: program("x = " + " + ".join(["x"] * n) + ";"),
    "open parens": lambda n: program("x = " + "(" * n),
    "nested blocks": lambda n: program("{ " * n + "x = 1;" + " }" * n),
    "long literal": lambda n: program("x = " + "9" * n + ";"),
    "block comments": lambda n: "/* c */ " * n + program(""),
    "line comments": lambda n: "// c\n" * n + program(""),
}

def deepest(n: int, bound: int) -> int:
    """``n`` scaled so that 4N is ``bound``."""
    return bound * n // (4 * N)


# 4N gives the deepest tree the expression parser accepts
EXPR_GENERATORS = {
    **{f"{op} chain": lambda n, op=op: f" {op} ".join(
        ["x"] * deepest(n, MAX_EXPR_DEPTH)) for op in ("+", "-", "/", "<<")},
    "nested parens": lambda n: ("(" * deepest(n, MAX_EXPR_NESTING) + "x - 1"
                                + ")" * deepest(n, MAX_EXPR_NESTING)),
}


def compile_and_run(types: dict):
    """Parse an expression, compile it over ``types`` and evaluate it at
    x = 3: its value, or the :class:`EvalUndefined` it raises."""
    def run(text: str):
        fn, _ = compile_expr(parse_expression(text), types)
        try:
            return fn({"x": 3})
        except EvalUndefined as exc:
            return exc
    return run


TRUTH = parse_precondition("x > 0")

# n / 4 distinct candidate texts, each its own formula
JUDGE_GENERATORS = {
    "distinct texts": lambda n: [f"x != {i}" for i in range(n // 4)],
}


def judge_texts(texts: list[str]) -> tuple[str, ...]:
    """The judgments of ``texts`` against ``TRUTH`` over a char, through
    one shared ``judged`` dict, as distinct values."""
    judged: dict = {}
    return tuple(sorted({judge_generation(t, TRUTH, {"x": CHAR},
                                          judged=judged).value
                         for t in texts}))


_THRESHOLD_OPS = ["!=", "<", ">=", "==", ">", "<="]


def threshold_pair(names: str):
    """Generator of a conjunction of comparisons, each of one of ``names``
    with a fresh literal, and its De Morgan dual, over ``int``; 4N
    comparisons make the dual as deep as the parser accepts."""
    def make(n: int):
        comparisons = [f"{names[i % len(names)]} {_THRESHOLD_OPS[i % 6]} {i}"
                       for i in range(deepest(n, MAX_EXPR_DEPTH - 4))]
        dual = " || ".join(f"!({c})" for c in comparisons)
        return (parse_precondition(" && ".join(comparisons)),
                parse_precondition(f"!({dual})"), dict.fromkeys(names, INT))
    return make


THRESHOLD_GENERATORS = {
    "one variable": threshold_pair("x"),
    "two variables": threshold_pair("xy"),
}


def compare_pair(case) -> object:
    return brute_equivalence(*case)


ANSWER_GENERATORS = {
    "open tags": lambda n: "<answer>" * n,
    "closed tags": lambda n: "<answer>x > 0</answer> " * n,
    "long line": lambda n: "x > 0 and " * n,
    "many lines": lambda n: "x > 0\n" * n,
}


def head_chain(n: int, self_loop: bool) -> WitnessAutomaton:
    """n cycleheads in a chain from the entry, the last with a self-loop or
    with no edge out."""
    nodes = [WitnessNode(f"N{i}", entry=i == 0, cyclehead=True)
             for i in range(n)]
    edges = [WitnessEdge(f"E{i}", f"N{i}", f"N{i + 1}", 1, "s")
             for i in range(n - 1)]
    if self_loop:
        edges.append(WitnessEdge("F", f"N{n - 1}", f"N{n - 1}", 1, "s"))
    return WitnessAutomaton(tuple(nodes), tuple(edges))


GRAPH_GENERATORS = {
    "head chain, self-loop": lambda n: head_chain(n, True),
    "head chain": lambda n: head_chain(n, False),
}

JSON_GENERATORS = {
    "flat lists": lambda n: {
        "nodes": [{"id": f"N{i}", "cyclehead": True} for i in range(n)],
        "edges": [{"id": f"E{i}", "source": "N0", "target": f"N{i}",
                   "line": i, "sourcecode": "s"} for i in range(n)]},
}

# x flips between 0 and 1 for ever
TOGGLE = parse_program("int main() {\n  int x = 0;\n  while (x >= 0) {\n"
                       "    x = 1 - x;\n  }\n  return 0;\n}\n")


def toggle_lasso(n: int) -> LassoPath:
    """A cycle of n edges through ``TOGGLE``'s loop, n/2 iterations long;
    for n a multiple of 4 the state repeats after one pass."""
    stem = (WitnessEdge("S", "N", "H", 2, "int x = 0;"),)
    cycle = tuple(WitnessEdge(f"C{i}", "H", "H", 3 + i % 2, "s",
                              control="condition-true" if i % 2 == 0 else None)
                  for i in range(n))
    return LassoPath(stem, cycle, "H")


LASSO_GENERATORS = {"long cycle": toggle_lasso}


def violation_kinds(w: WitnessAutomaton) -> tuple[str, ...]:
    return tuple(v.kind for v in validate_schema(w))


def check_toggle(lasso: LassoPath):
    return check_feasibility(TOGGLE, lasso)


# (entry point, generator, function, generator table, outcome at n and 4n)
ROWS = [
    ("tokenize", "deep nesting", tokenize, GENERATORS, list),
    ("tokenize", "flat chain", tokenize, GENERATORS, list),
    ("tokenize", "long literal", tokenize, GENERATORS, CParseError),
    ("tokenize", "block comments", tokenize, GENERATORS, list),
    ("tokenize", "line comments", tokenize, GENERATORS, list),
    ("parse_expression", "deep nesting", parse_expression, GENERATORS,
     CParseError),
    ("parse_expression", "flat chain", parse_expression, GENERATORS,
     CParseError),
    ("parse_expression", "flat and-chain", parse_expression, GENERATORS,
     CParseError),
    ("parse_expression", "open parens", parse_expression, GENERATORS,
     CParseError),
    ("parse_expression", "prefix run", parse_expression, GENERATORS,
     CParseError),
    ("parse_expression", "long literal", parse_expression, GENERATORS,
     CParseError),
    ("parse_expression", "block comments", parse_expression, GENERATORS,
     Binary),
    ("parse_program", "deep nesting", parse_program, PROGRAM_GENERATORS,
     CParseError),
    ("parse_program", "flat chain", parse_program, PROGRAM_GENERATORS,
     CParseError),
    ("parse_program", "open parens", parse_program, PROGRAM_GENERATORS,
     CParseError),
    ("parse_program", "nested blocks", parse_program, PROGRAM_GENERATORS,
     CParseError),
    ("parse_program", "long literal", parse_program, PROGRAM_GENERATORS,
     CParseError),
    ("parse_program", "block comments", parse_program, PROGRAM_GENERATORS,
     Program),
    ("parse_program", "line comments", parse_program, PROGRAM_GENERATORS,
     Program),
    ("parse_precondition", "deep nesting", parse_precondition, GENERATORS,
     PrecondParseError),
    ("parse_precondition", "flat chain", parse_precondition, GENERATORS,
     PrecondParseError),
    ("parse_precondition", "flat and-chain", parse_precondition, GENERATORS,
     PrecondParseError),
    ("parse_precondition", "open parens", parse_precondition, GENERATORS,
     PrecondParseError),
    ("parse_precondition", "prefix run", parse_precondition, GENERATORS,
     PrecondParseError),
    ("parse_precondition", "long literal", parse_precondition, GENERATORS,
     PrecondParseError),
    ("parse_precondition", "block comments", parse_precondition, GENERATORS,
     PrecondParseError),
    ("parse_precondition", "line comments", parse_precondition, GENERATORS,
     PrecondParseError),
    *[("extract_precondition_answer", name, extract_precondition_answer,
       ANSWER_GENERATORS, str) for name in ANSWER_GENERATORS],
    ("extract_precondition_answer", "deep nesting",
     extract_precondition_answer, GENERATORS, str),
    ("witness_from_json", "flat lists", witness_from_json, JSON_GENERATORS,
     WitnessAutomaton),
    ("validate_schema", "head chain, self-loop", violation_kinds,
     GRAPH_GENERATORS, ()),
    ("validate_schema", "head chain", violation_kinds, GRAPH_GENERATORS, ()),
    ("extract_lasso", "head chain, self-loop", extract_lasso,
     GRAPH_GENERATORS, LassoPath),
    ("extract_lasso", "head chain", extract_lasso, GRAPH_GENERATORS, NoLasso),
    ("check_feasibility", "long cycle", check_toggle, LASSO_GENERATORS,
     ProvenInfinite),
    ("judge_generation", "distinct texts", judge_texts, JUDGE_GENERATORS,
     ("inequivalent",)),
    *[("brute_equivalence", name, compare_pair, THRESHOLD_GENERATORS,
       Equivalent) for name in THRESHOLD_GENERATORS],
    *[(f"compile_expr{kind}", name, compile_and_run(types), EXPR_GENERATORS,
       int) for name in EXPR_GENERATORS
      for kind, types in (("", {}), (" typed", {"x": SHORT}))],
]


def outcome(fn, arg):
    """The type of what ``fn`` returns, or of the error it raises when the
    error is one the entry points document; a tuple, such as the kinds of
    the schema violations, is itself the outcome."""
    try:
        result = fn(arg)
    except (CParseError, PrecondParseError) as exc:
        return type(exc)
    return result if isinstance(result, tuple) else type(result)


def growth(fn, small, large) -> float:
    """How many times as long ``fn`` takes on ``large`` as on ``small``, by
    the best time of one call on each.  The two are timed in turn, three
    times over, so that a spell of load on the host falls on both sizes
    alike instead of on one of them."""
    # a call that keeps many objects alive can set off the collector's full
    # passes over every object the test session holds, a cost of the
    # session's heap, not of the call; timeit turns it off alike
    best = [math.inf, math.inf]
    gc.disable()
    try:
        for _ in range(3):
            for k, arg in enumerate((small, large)):
                calls, start = 0, time.perf_counter()
                while (elapsed := time.perf_counter() - start) < 0.005:
                    try:
                        fn(arg)
                    except (CParseError, PrecondParseError):
                        pass
                    calls += 1
                best[k] = min(best[k], elapsed / calls)
    finally:
        gc.enable()
    return best[1] / best[0]


@pytest.mark.parametrize(
    "fn, make, expected",
    [pytest.param(fn, table[gen], expected, id=f"{entry}-{gen}")
     for entry, gen, fn, table, expected in ROWS])
def test_worst_case(fn, make, expected):
    small, large = make(N), make(4 * N)
    assert outcome(fn, small) == expected
    assert outcome(fn, large) == expected
    assert growth(fn, small, large) < 8


def hostile_cache(task_dir, n: int):
    """n records too deeply nested to decode, each beside a stray file."""
    task_dir.mkdir(parents=True)
    for i in range(n):
        (task_dir / f"{i}.json").write_text("[" * 2000, encoding="utf-8")
        (task_dir / f"x{i}.json").write_text("[" * 2000, encoding="utf-8")
    return task_dir.parent.parent


def test_replay_records_on_a_hostile_cache(tmp_path):
    def replay(run_dir) -> tuple:
        records = replay_records(run_dir, "m", "t")
        return len(records), {type(r.parsed) for r in records}

    n = N // 4
    small = hostile_cache(tmp_path / "small" / "m" / "t", n)
    large = hostile_cache(tmp_path / "large" / "m" / "t", 4 * n)
    assert replay(small) == (n, {FormatError})
    assert replay(large) == (4 * n, {FormatError})
    assert growth(replay, small, large) < 8


def nested_loops(levels: int) -> str:
    """``levels`` nested ``for`` loops, each outer one run once and the
    innermost for ever, around the longest chain the parser accepts."""
    chain = " + ".join(["x"] * MAX_EXPR_DEPTH)
    return ("int main() {\n  int x = __VERIFIER_nondet_int();\n"
            + "".join(f"  for (int i{k} = 0; i{k} < 1; i{k}++) {{\n"
                      for k in range(levels - 1))
            + "  for (;;) {\n" + f"  x = {chain};\n" + "  }\n" * levels
            + "  return x;\n}\n")


def test_loops_nested_to_the_limit():
    # each `for` is three statements deep once read as its `while` form,
    # and the scope check, the lowering and the compiler all recurse
    levels = MAX_STMT_NESTING - 1
    program = parse_program(nested_loops(levels))
    assert isinstance(program, Program)
    assert run_program(program, {"x@2": 1}, 1000)[0] == "running"
    head = levels + 2  # the innermost loop's line; its body is on the next
    cycle = (WitnessEdge("C", "H", "A", head, "", control="condition-true"),
             WitnessEdge("D", "A", "H", head + 1, ""))
    result = check_feasibility(program, LassoPath((), cycle, "H"))
    assert isinstance(result, ProvenInfinite)
    with pytest.raises(CParseError, match="nested deeper than"):
        parse_program(nested_loops(levels + 1))
