"""Worst-case inputs for every entry point of the front end that reads task
or oracle text.

Each row pairs an entry point with an adversarial generator of size ``n``
and asserts two things: the entry point gives its documented outcome (a
value, a :class:`CParseError` or a :class:`PrecondParseError`, never a
``RecursionError`` or another exception), and 4n takes under 8 times as
long as n, so the time is near linear.  Each timing repeats the call for at
least 5 ms and keeps the best of three.
"""

import math
import time

import pytest

from termeval.cli import extract_precondition_answer
from termeval.cparse import (
    Binary, CParseError, Program, parse_expression, parse_program, tokenize,
)
from termeval.precond import PrecondParseError, parse_precondition

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

ANSWER_GENERATORS = {
    "open tags": lambda n: "<answer>" * n,
    "closed tags": lambda n: "<answer>x > 0</answer> " * n,
    "long line": lambda n: "x > 0 and " * n,
    "many lines": lambda n: "x > 0\n" * n,
}

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
]


def outcome(fn, text: str) -> type:
    """The type of what ``fn`` returns, or of the error it raises when the
    error is one the entry points document."""
    try:
        return type(fn(text))
    except (CParseError, PrecondParseError) as exc:
        return type(exc)


def seconds(fn, text: str) -> float:
    best = math.inf
    for _ in range(3):
        calls, start = 0, time.perf_counter()
        while (elapsed := time.perf_counter() - start) < 0.005:
            try:
                fn(text)
            except (CParseError, PrecondParseError):
                pass
            calls += 1
        best = min(best, elapsed / calls)
    return best


@pytest.mark.parametrize(
    "fn, make, expected",
    [pytest.param(fn, table[gen], expected, id=f"{entry}-{gen}")
     for entry, gen, fn, table, expected in ROWS])
def test_worst_case(fn, make, expected):
    small, large = make(N), make(4 * N)
    assert outcome(fn, small) is expected
    assert outcome(fn, large) is expected
    assert seconds(fn, large) / seconds(fn, small) < 8
