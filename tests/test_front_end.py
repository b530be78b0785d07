"""The C front end and the precondition front end, each compared with the
implementation it replaced, kept in ``tests/reference.py``: the tokenizer
that tried each punctuator in turn, the parser that recursed once per
precedence level, and precond's own lexer and recursive-descent parser."""

import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from termeval import cparse
from termeval.cli import extract_precondition_answer
from termeval.cparse import MAX_EXPR_NESTING, CParseError
from termeval.precond import PrecondParseError, parse_precondition
from termeval.witness import FormatError, parse_prediction

import reference
from conftest import FIXTURES, c_expressions
from reference import format_expr

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = ("score-bootstrap", "score-witness", "precond-judge")


def tokens(tokenize, text: str):
    """The token list without offsets, or the error message."""
    try:
        return [(t.kind, t.text, t.line, t.value, t.ctype)
                for t in tokenize(text)]
    except CParseError as exc:
        return str(exc)


def parsed(parse, text: str):
    try:
        return parse(text)
    except CParseError as exc:
        return str(exc)


def assert_same_c(text: str) -> None:
    assert tokens(cparse.tokenize, text) == \
        tokens(reference.old_tokenize, text)
    assert parsed(cparse.parse_program, text) == \
        parsed(reference.old_parse_program, text)
    assert parsed(cparse.parse_expression, text) == \
        parsed(reference.old_parse_expression, text)


def formula(parse, text: str, known: set[str] | None):
    try:
        return parse(text, known)
    except PrecondParseError:
        return "rejected"


def assert_same_formula(text: str, known: set[str] | None) -> None:
    assert formula(parse_precondition, text, known) == \
        formula(reference.old_parse_precondition, text, known), text


# ---------------------------------------------------------------------------
# Generated C text

PIECES = [
    # names, keywords and literals, good and bad
    "x", "y1", "_t", "main", "int", "unsigned", "long", "char", "bool",
    "true", "false", "if", "else", "while", "for", "return", "typedef",
    "enum", "extern", "void", "sizeof", "__VERIFIER_nondet_int",
    "__VERIFIER_nondet_float", "0", "7", "010", "08", "0x1F", "0X", "10u",
    "7UL", "2147483648", "4294967296", "18446744073709551616", "9" * 30,
    # every punctuator, and runs that split in more than one way
    *cparse._PUNCT, "<<=<", "+++", "--->", "&&&", "|||", "...", "!==",
    # blanks, comments, strings, preprocessor lines, strays
    " ", "\n", "\t", "\r\n", "\f", "\v", "// c\n", "/* a\n b */", "/*",
    "*/", "#include <x.h>\n", '"s\\"t"', "'c'", '"open', "\\", "@", "$",
    "`", "\x00", "\x1c", "é", "٣", " ",
]


@st.composite
def c_text(draw):
    pieces = draw(st.lists(st.sampled_from(PIECES), max_size=30))
    return draw(st.sampled_from(["", " "])).join(pieces)


def program_with(stmts: list[str]) -> str:
    return ("int main() {\n  int x = __VERIFIER_nondet_int();\n  int y = 0;\n  "
            + "\n  ".join(stmts) + "\n  return 0;\n}\n")


@st.composite
def c_programs(draw):
    """A program of random statements over random expressions, or a
    fixture program with one span deleted, repeated or replaced."""
    expr = c_expressions(["x", "y"], max_leaves=8).map(format_expr)
    stmt = st.one_of(
        st.builds("x = {};".format, expr),
        st.builds("y += {};".format, expr),
        st.builds("if ({}) {{ x--; }} else y++;".format, expr),
        st.builds("while ({}) {{ x = x - 1; }}".format, expr),
        st.builds("for (y = 0; {}; y++) ;".format, expr),
        st.sampled_from(["x = f(x);", "int *p;", "goto end;", "x = (int) y;",
                         "x = y ? 1 : 2;", "x = a[1];"]),
    )
    if draw(st.booleans()):
        return program_with(draw(st.lists(stmt, max_size=6)))
    source = draw(st.sampled_from(FIXTURE_SOURCES))
    i = draw(st.integers(0, len(source)))
    j = draw(st.integers(i, min(len(source), i + 40)))
    edit = draw(st.sampled_from(["delete", "repeat", "replace"]))
    middle = {"delete": "", "repeat": source[i:j] * 2,
              "replace": draw(st.sampled_from(PIECES))}[edit]
    return source[:i] + middle + source[j:]


FIXTURE_SOURCES = sorted(
    p.read_text(encoding="utf-8")
    for p in FIXTURES.rglob("*.c"))


class TestCFrontEnd:
    @settings(max_examples=400, deadline=None)
    @given(c_text())
    def test_token_soup(self, text):
        assert_same_c(text)

    @settings(max_examples=300, deadline=None)
    @given(c_expressions(["x", "y", "z"], max_leaves=16).map(format_expr))
    def test_generated_expressions(self, text):
        assert_same_c(text)

    @settings(max_examples=300, deadline=None)
    @given(c_programs())
    def test_generated_programs(self, text):
        assert_same_c(text)

    @pytest.mark.parametrize("depth", [MAX_EXPR_NESTING, MAX_EXPR_NESTING + 1])
    @pytest.mark.parametrize("form", ["({})", "-{}", "!{}", "+{}"])
    def test_nesting_at_and_past_the_limit(self, form, depth):
        text = "x"
        for _ in range(depth):
            text = form.format(text)
        assert_same_c(text)
        assert_same_c(program_with([f"x = {text};"]))

    def test_deep_chains(self):
        for n in (cparse.MAX_EXPR_DEPTH - 1, cparse.MAX_EXPR_DEPTH,
                  cparse.MAX_EXPR_DEPTH + 1):
            for op in ("+", "<", "&&"):
                assert_same_c(f" {op} ".join(["x"] * n))
                assert_same_c(f"\n{op} ".join(["x"] * n))

    def test_offsets_index_the_source(self):
        source = FIXTURE_SOURCES[0]
        for tok in cparse.tokenize(source)[:-1]:
            assert source.startswith(tok.text, tok.offset)


@pytest.fixture(scope="module")
def bench_inputs(tmp_path_factory):
    """The three benchmark workloads' inputs at seed 2026."""
    sys.path.insert(0, str(BENCH))
    try:
        import gen
    finally:
        sys.path.remove(str(BENCH))
    root = tmp_path_factory.mktemp("bench")
    for workload in WORKLOADS:
        gen.generate(workload, 2026, root / workload)
    return root


def test_benchmark_and_fixture_programs(bench_inputs):
    sources = FIXTURE_SOURCES + [
        p.read_text(encoding="utf-8")
        for p in sorted(bench_inputs.rglob("corpus/**/*.c"))]
    assert len(sources) > 300
    for source in sources:
        assert_same_c(source)


def test_benchmark_witness_assumptions(bench_inputs):
    seen = 0
    for record in sorted((bench_inputs / "score-witness" / "runs").rglob("*.json")):
        reply = parse_prediction(json.loads(record.read_text())["raw_text"])
        if isinstance(reply, FormatError) or reply.witness is None:
            continue
        for edge in reply.witness.edges:
            if edge.assumption is not None:
                assert_same_c(edge.assumption)
                seen += 1
    assert seen > 0


def test_benchmark_formulas(bench_inputs):
    root = bench_inputs / "precond-judge"
    annotations = json.loads((root / "annotations.json").read_text())
    seen = 0
    for task_id, text in annotations.items():
        source = (root / "corpus" / f"{task_id}.c").read_text()
        program = cparse.parse_program(source)
        known = {site.name for site in program.nondet_vars}
        assert_same_formula(text, known)
        for record in sorted(root.glob(f"runs/*/{task_id}/*.json")):
            raw = json.loads(record.read_text())["raw_text"]
            assert_same_formula(extract_precondition_answer(raw), known)
            seen += 1
    assert seen == 608


# ---------------------------------------------------------------------------
# Generated precondition formulas, in ASCII: Python's Unicode-aware \d, \s
# and \w let the old lexer read text outside C's characters, which the two
# parsers now treat differently on purpose (tests/test_precond.py)

NAMES = ["x", "y", "q", "x1", "true", "int", "And", "NOT", "_"]
LITERALS = ["0", "7", "010", "0777", "08", "0x1F", "10u", "3L", "2147483648",
            "4294967296", "9223372036854775808", "9" * 25]
ARITH_OPS = ["+", "-", "*", "/", "%", "&", "<<"]
CMP_OPS = ["<", "<=", ">", ">=", "==", "!=", "=", "= ="]
CONNECTIVES = ["and", "AND", "Or", "or", "&&", "||", "&", "and not"]
JUNK = ["// c", "/* c */", "#", "++", "--", "->", "?", ";", '"', "(", ")",
        "\t", "\n", "=", "!", "not"]


def _arith(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return rng.choice(NAMES + LITERALS)
    if roll < 0.7:
        return (f"{_arith(rng, depth - 1)} {rng.choice(ARITH_OPS)} "
                f"{_arith(rng, depth - 1)}")
    if roll < 0.85:
        return rng.choice(["-", "+", "- ", "--", "!"]) + _arith(rng, depth - 1)
    return f"({_arith(rng, depth - 1)})"


def _formula(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        left, right = _arith(rng, 2), _arith(rng, 2)
        if rng.random() < 0.1:  # chained, or a comparison used as a number
            left = f"{_arith(rng, 1)} {rng.choice(CMP_OPS)} {left}"
        if rng.random() < 0.05:
            return left  # no comparison at all
        return f"{left} {rng.choice(CMP_OPS)} {right}"
    if roll < 0.6:
        return (f"{_formula(rng, depth - 1)} {rng.choice(CONNECTIVES)} "
                f"{_formula(rng, depth - 1)}")
    if roll < 0.75:
        return rng.choice(["not ", "!", "! ", "NOT "]) + _formula(rng, depth - 1)
    if roll < 0.9:
        return f"({_formula(rng, depth - 1)})"
    # a parenthesized formula where a number belongs
    return (f"({_formula(rng, depth - 1)}) {rng.choice(CMP_OPS + ARITH_OPS)} "
            f"{_arith(rng, 1)}")


def _nested(rng: random.Random) -> str:
    depth = rng.randint(MAX_EXPR_NESTING - 4, MAX_EXPR_NESTING + 2)
    inner = _formula(rng, 1)
    form = rng.choice(["paren", "not", "minus", "mixed"])
    if form == "paren":
        return "(" * depth + inner + ")" * depth
    if form == "not":
        return "not " * depth + inner
    if form == "minus":
        return "x < " + "-" * depth + "1"
    return "".join(rng.choice(["(", "not ", "!", "-"]) for _ in range(depth)) + inner


@st.composite
def formulas(draw):
    rng = draw(st.randoms(use_true_random=False))
    text = _nested(rng) if rng.random() < 0.1 else _formula(rng, rng.randint(0, 4))
    if rng.random() < 0.15:  # a stray token somewhere
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(JUNK) + text[at:]
    if rng.random() < 0.3:
        text = text.replace(" ", "")
    return text


class TestPreconditionFrontEnd:
    @settings(max_examples=1500, deadline=None)
    @given(formulas(), st.sampled_from([None, {"x", "y"},
                                        {"x", "y", "x1", "true", "int"}]))
    def test_generated_formulas(self, text, known):
        assert_same_formula(text, known)
