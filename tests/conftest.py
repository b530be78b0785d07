import json
from pathlib import Path

import pytest
from hypothesis import strategies as st

from termeval import cparse
from termeval.witness import WitnessAutomaton, WitnessEdge, WitnessNode

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def corpus_root() -> Path:
    return FIXTURES / "corpus"


def load_program(name: str) -> str:
    return (FIXTURES / "programs" / name).read_text(encoding="utf-8")


def load_witness_text(name: str) -> str:
    return (FIXTURES / "witnesses" / name).read_text(encoding="utf-8")


def load_witness_json(name: str) -> dict:
    return json.loads(load_witness_text(name))


def two_head_witness() -> WitnessAutomaton:
    """Entry N1 -> cyclehead H1, which is on no cycle, and a cyclehead H2
    with a self-loop that the entry never reaches: every record is valid,
    but there is no lasso."""
    return WitnessAutomaton(
        nodes=(WitnessNode("N1", entry=True), WitnessNode("H1", cyclehead=True),
               WitnessNode("H2", cyclehead=True)),
        edges=(WitnessEdge("E0", "N1", "H1", 1, "x = 1;"),
               WitnessEdge("E1", "H2", "H2", 2, "y = 2;")),
    )


def task_yaml(input_file: str, data_model: str) -> str:
    """A task YAML for ``input_file`` with the termination property file of
    a corpus directory beside it, expected to terminate."""
    return ("format_version: '2.0'\n"
            f"input_files: '{input_file}'\n"
            "properties:\n"
            "  - property_file: ../properties/termination.prp\n"
            "    expected_verdict: true\n"
            "options:\n"
            "  language: C\n"
            f"  data_model: {data_model}\n")


# ---------------------------------------------------------------------------
# Random C expressions, for comparing the evaluator with tests/reference.py

C_TYPES = [cparse.CHAR, cparse.UCHAR, cparse.SHORT, cparse.USHORT, cparse.INT,
           cparse.UINT, cparse.LONG, cparse.ULONG, cparse.BOOL]
UNARY_OPS = ["-", "~", "!"]
BINARY_OPS = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
              "<", "<=", ">", ">=", "==", "!=", "&&", "||"]
# small values reach division by zero and valid and invalid shift counts;
# the others sit at type boundaries, some outside the literal's own type
SPECIAL_VALUES = [0, 1, -1, 2, 7, 31, 32, 63, 64, 255, 256, -128, 2**31 - 1,
                  -2**31, 2**32 - 1, 2**32, 2**63 - 1, -2**63, 2**64 - 1, 2**64]


def int_values(ctype: cparse.CType | None = None):
    """Integers biased to boundaries, inside ``ctype`` when one is given."""
    values = st.sampled_from(SPECIAL_VALUES) | st.integers(-300, 300)
    if ctype is None:
        return values | st.integers(-2**65, 2**65)
    return (values.filter(lambda v: ctype.min <= v <= ctype.max)
            | st.integers(ctype.min, ctype.max))


def c_leaves(names: list[str]):
    lits = st.builds(cparse.IntLit, int_values(), st.sampled_from(C_TYPES))
    return lits | st.sampled_from(names).map(cparse.Var) if names else lits


def c_expressions(names: list[str], max_leaves: int = 12):
    """Expression trees over ``names`` with every operator and literal type."""
    return st.recursive(
        c_leaves(names),
        lambda kids: (st.builds(cparse.Unary, st.sampled_from(UNARY_OPS), kids)
                      | st.builds(cparse.Binary, st.sampled_from(BINARY_OPS),
                                  kids, kids)),
        max_leaves=max_leaves)


@st.composite
def c_chains(draw, names: list[str]):
    """A chain up to ``cparse.MAX_EXPR_DEPTH`` deep: each level applies an
    operator to the level below and, for a binary one, to a leaf.  The
    levels come from one drawn ``random.Random``, which draws far faster
    than hypothesis does level by level."""
    depth = draw(st.integers(1, cparse.MAX_EXPR_DEPTH))
    rng = draw(st.randoms(use_true_random=False))

    def leaf():
        if names and rng.random() < 0.5:
            return cparse.Var(rng.choice(names))
        value = rng.choice([rng.randint(-300, 300), *SPECIAL_VALUES])
        return cparse.IntLit(value, rng.choice(C_TYPES))

    expr = leaf()
    for _ in range(depth - 1):
        if rng.random() < 0.15:
            expr = cparse.Unary(rng.choice(UNARY_OPS), expr)
        elif rng.random() < 0.5:
            expr = cparse.Binary(rng.choice(BINARY_OPS), expr, leaf())
        else:
            expr = cparse.Binary(rng.choice(BINARY_OPS), leaf(), expr)
    return expr
