import math
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from termeval import cparse, precond
from termeval.cparse import (
    CHAR, INT, LONG, SHORT, UCHAR, UINT, ULONG, USHORT, Binary, IntLit, Unary,
    Var,
)
from termeval.evalcore import pass_at_k
from termeval.precond import (
    MAX_BRUTE_ASSIGNMENTS, Equivalent, EquivUnknown, GenerationJudgment,
    Inequivalent, PrecondParseError, brute_equivalence, check_equivalence,
    count_equivalent, emit_smtlib, find_solver,
    judge_generation, parse_precondition, smt_equivalence, variables_of,
)

from conftest import C_TYPES, FIXTURES, SPECIAL_VALUES, c_expressions
from reference import brute_loop, eval_expr, format_expr, old_brute_equivalence

IVAR = {"i": INT}
XY = {"x": INT, "y": INT}


class TestParse:
    def test_keyword_conjunction(self):
        expr = parse_precondition("(i % 2 != 0) and (i >= -2147483649)")
        assert isinstance(expr, Binary) and expr.op == "&&"

    def test_two_variable_conjunction(self):
        expr = parse_precondition("x < -1 and y > 0")
        assert isinstance(expr, Binary) and expr.op == "&&"
        assert variables_of(expr) == {"x", "y"}

    def test_single_comparison(self):
        expr = parse_precondition("i <= -5")
        assert expr == Binary("<=", Var("i"), Unary("-", IntLit(5, INT)))

    def test_literals_typed_as_unsuffixed_decimal_c(self):
        expr = parse_precondition("i >= -2147483649 or i < 2147483647")
        assert expr.left.right == Unary("-", IntLit(2147483649, LONG))
        assert expr.right.right == IntLit(2147483647, INT)

    def test_leading_zero_is_octal(self):
        assert parse_precondition("i == 010") == \
            Binary("==", Var("i"), IntLit(8, INT))
        # a non-decimal constant takes unsigned int before long
        assert parse_precondition("i < 020000000000").right == \
            IntLit(2**31, UINT)
        assert parse_precondition("i > 0").right == IntLit(0, INT)

    @pytest.mark.parametrize("text", [
        "i == 08", "i == 0779", "i == 18446744073709551617",
        "i == 9223372036854775808", "i == 03777777777777777777777",
    ])
    def test_malformed_or_oversize_literal_is_error(self, text):
        with pytest.raises(PrecondParseError, match="bad integer literal"):
            parse_precondition(text)

    def test_equals_sign_is_equality(self):
        assert parse_precondition("i = 0") == parse_precondition("i == 0")

    def test_c_style_operators(self):
        a = parse_precondition("x < 10 && y > -10 || !(x == y)")
        b = parse_precondition("x < 10 and y > -10 or not (x == y)")
        assert a == b

    def test_not_and_nesting(self):
        expr = parse_precondition("not (i < 0 or i > 10)")
        assert expr == Unary("!", Binary("||",
                                         Binary("<", Var("i"), IntLit(0)),
                                         Binary(">", Var("i"), IntLit(10))))

    def test_arith_operators(self):
        expr = parse_precondition("(i * 3 + 1) % 7 == i / 2 - 4")
        assert isinstance(expr, Binary) and expr.op == "=="
        assert expr.left.op == "%" and expr.right.op == "-"

    def test_unary_plus_is_dropped(self):
        assert parse_precondition("+i > +-3") == parse_precondition("i > -3")

    def test_unknown_identifier(self):
        with pytest.raises(PrecondParseError):
            parse_precondition("q > 0", known_vars={"i"})

    def test_dangling_operator(self):
        with pytest.raises(PrecondParseError):
            parse_precondition("i > ")

    def test_no_comparison_is_error(self):
        with pytest.raises(PrecondParseError):
            parse_precondition("i + 1")

    def test_trailing_garbage(self):
        with pytest.raises(PrecondParseError):
            parse_precondition("i == 0 i")

    @pytest.mark.parametrize("text", [
        "i < \u0663", "i < \u00b2", "i\u00a0<\u00a01", "x\u00e9 < 1",
        "i <\x1c1",
    ], ids=["arabic-indic-digit", "superscript-digit", "no-break-spaces",
            "non-ascii-name", "file-separator"])
    def test_text_outside_c_is_rejected(self, text):
        # Python's Unicode \d, \s and \w once read these as i < 3, i < 1,
        # a variable named xé and i < 1
        with pytest.raises(PrecondParseError, match="unexpected character"):
            parse_precondition(text)

    def test_position_reported(self):
        try:
            parse_precondition("i == 0 and q > 1", known_vars={"i"})
        except PrecondParseError as exc:
            assert exc.position == 11  # 0-based offset of 'q'
        else:
            pytest.fail("expected PrecondParseError")

    @pytest.mark.parametrize("text, position", [
        ("i == 0 and q", 11), ("i < 1 < 2", 0), ("(i < 1) + 2 < 3", 1),
        ("i < 1 or -(q < 2) > 0", 11), ("not i", 4), ("i & q < 1", 0),
    ])
    def test_shape_error_position(self, text, position):
        # the first subtree out of shape, by the offset of its first token
        with pytest.raises(PrecondParseError, match="not connectives") as exc:
            parse_precondition(text)
        assert exc.value.position == position

    def test_format_round_trip(self):
        text = "(i % 2 != 0) and (i >= -2147483649)"
        expr = parse_precondition(text)
        assert parse_precondition(format_expr(expr)) == expr


class TestEvaluation:
    def test_comparison_semantics(self):
        expr = parse_precondition("i % 2 != 0")
        assert eval_expr(expr, {"i": 3}, IVAR)[0] == 1
        assert eval_expr(expr, {"i": -3}, IVAR)[0] == 1  # trunc rem
        assert eval_expr(expr, {"i": 4}, IVAR)[0] == 0

    def test_wide_literal_promotes_comparison(self):
        expr = parse_precondition("i >= -2147483649")
        for i in (-(2**31), -1, 0, 2**31 - 1):
            assert eval_expr(expr, {"i": i}, IVAR)[0] == 1

    def test_arith_wraps_at_32_bits(self):
        value, ctype = eval_expr(parse_precondition("i + 1 == 0").left,
                                 {"i": 2**31 - 1}, IVAR)
        assert value == -(2**31)
        assert ctype.width == 32

    def test_agrees_with_c_interpreter(self):
        # the precondition front end lowers arithmetic to the same tree as
        # the C parser: differential check over random expressions
        rng = random.Random(42)
        ops = ["+", "-", "*", "/", "%"]

        def arith_text(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(["x", "y", str(rng.randint(-40, 40))])
            return (f"({arith_text(depth - 1)} {rng.choice(ops)} "
                    f"{arith_text(depth - 1)})")

        checked = 0
        for _ in range(300):
            text = arith_text(3)
            env = {"x": rng.randint(-(2**31), 2**31 - 1),
                   "y": rng.randint(-(2**31), 2**31 - 1)}
            try:
                mine, _ = eval_expr(parse_precondition(f"{text} == 0").left,
                                    env, XY)
            except Exception:
                continue
            theirs, _ = eval_expr(cparse.parse_expression(text), env, XY)
            assert mine == theirs, (text, env)
            checked += 1
        assert checked > 150


class TestBruteEquivalence:
    def test_strict_vs_inclusive_bounds(self):
        a = parse_precondition("x < 10 and y > -10")
        b = parse_precondition("x <= 9 and y >= -9")
        assert check_equivalence(a, b, XY, mode="brute") == Equivalent()

    def test_point_vs_interval(self):
        a = parse_precondition("i = 0")
        b = parse_precondition("i >= -5 and i <= 5")
        result = check_equivalence(a, b, IVAR, mode="brute")
        assert isinstance(result, Inequivalent)
        env = result.counterexample
        assert eval_expr(a, env, IVAR)[0] != eval_expr(b, env, IVAR)[0]

    def test_off_by_one_boundary(self):
        a = parse_precondition("i <= -5")
        b = parse_precondition("i < -4")
        assert check_equivalence(a, b, IVAR, mode="brute") == Equivalent()

    def test_vacuous_wide_bound(self):
        a = parse_precondition("(i % 2 != 0) and (i >= -2147483649)")
        b = parse_precondition("i % 2 != 0")
        assert check_equivalence(a, b, IVAR, mode="brute") == Equivalent()

    def test_wraparound_sentinels_catch_overflow(self):
        # i + 1 > i fails only at INT_MAX, which sits outside the box but
        # inside the sentinel set
        a = parse_precondition("i + 1 > i")
        b = parse_precondition("i == i")  # always true
        result = check_equivalence(a, b, IVAR, mode="brute")
        assert isinstance(result, Inequivalent)
        assert result.counterexample["i"] == 2**31 - 1

    def test_degenerate_division(self):
        a = parse_precondition("1 / (i - i) == 1")
        b = parse_precondition("i == 0")
        result = check_equivalence(a, b, IVAR, mode="brute")
        assert isinstance(result, EquivUnknown)
        assert "degenerate" in result.reason

    def test_division_assignments_skipped_not_fatal(self):
        a = parse_precondition("10 / i > 0")   # undefined only at i == 0
        b = parse_precondition("i > 0")
        result = check_equivalence(a, b, IVAR, mode="brute")
        # 10/i > 0 iff 0 < i <= 10, so i = 11 (or similar) disagrees
        assert isinstance(result, Inequivalent)
        assert result.counterexample["i"] != 0

    def test_undeclared_variable_rejected(self):
        a = parse_precondition("q > 0")
        with pytest.raises(ValueError):
            check_equivalence(a, a, IVAR, mode="brute")

    def test_unknown_mode_rejected(self):
        a = parse_precondition("i == 0")
        with pytest.raises(ValueError):
            check_equivalence(a, a, IVAR, mode="quantum")

    def test_narrow_unsigned_operands_promote_to_int(self):
        # C promotes unsigned char and unsigned short to int, so c - d
        # goes negative exactly when c < d
        for ctype in (UCHAR, USHORT):
            a = parse_precondition("c - d < 0")
            b = parse_precondition("c < d")
            variables = {"c": ctype, "d": ctype}
            assert brute_equivalence(a, b, variables, (0, 20)) == Equivalent()
        # unsigned int does not promote: 0 - 1 wraps to UINT_MAX
        result = brute_equivalence(a, b, {"c": UINT, "d": UINT}, (0, 20))
        assert result == Inequivalent({"c": 0, "d": 1})


class TestBudget:
    THREE = {"x": INT, "y": INT, "z": INT}

    def test_three_variables_exhaust_the_budget(self):
        a = parse_precondition("x + y < z")
        b = parse_precondition("not (x + y >= z)")
        result = brute_equivalence(a, b, self.THREE)
        assert isinstance(result, EquivUnknown)
        assert result.reason.startswith(
            f"budget: {MAX_BRUTE_ASSIGNMENTS} of {260 ** 3} assignments")

    def test_counterexample_inside_the_budget_still_counts(self):
        # z is innermost, so z = 0 is reached after a few hundred steps
        a = parse_precondition("z < 0")
        b = parse_precondition("z <= 0")
        result = brute_equivalence(a, b, self.THREE)
        assert result == Inequivalent({"x": INT.min, "y": INT.min, "z": 0})

    def test_budget_covers_two_int_variables(self):
        assert 260 ** 2 < MAX_BRUTE_ASSIGNMENTS < 260 ** 3
        a = parse_precondition("x < 10 and y > -10")
        b = parse_precondition("x <= 9 and y >= -9")
        assert brute_equivalence(a, b, XY) == Equivalent()

    # the rows over XY: x outermost, y fastest, each over these 260 values
    INT_DOMAIN = [INT.min, INT.min + 1, *range(-128, 128), INT.max - 1, INT.max]

    def row(self, n: int) -> dict[str, int]:
        """The ``n``-th assignment over XY, counting from 1."""
        x, y = divmod(n - 1, len(self.INT_DOMAIN))
        return {"x": self.INT_DOMAIN[x], "y": self.INT_DOMAIN[y]}

    @pytest.mark.parametrize("n", [1, 259, 260, 261, 300])
    def test_budget_ends_after_exactly_n_rows(self, monkeypatch, n):
        monkeypatch.setattr(precond, "MAX_BRUTE_ASSIGNMENTS", n)
        never = parse_precondition("x < x")
        at_n, after_n = self.row(n), self.row(n + 1)
        only_row_n = parse_precondition(
            f"x == {at_n['x']} and y == {at_n['y']}")
        only_row_after = parse_precondition(
            f"x == {after_n['x']} and y == {after_n['y']}")
        assert brute_equivalence(only_row_n, never, XY) == Inequivalent(at_n)
        assert brute_equivalence(only_row_after, never, XY) == EquivUnknown(
            f"budget: {n} of {260 ** 2} assignments evaluated without a "
            "counterexample")

    def test_formula_without_variables_is_evaluated_once(self, monkeypatch):
        envs = []

        def counting_compile(expr, types):
            fn, ctype = cparse.compile_expr(expr, types)

            def counted(env):
                envs.append(dict(env))
                return fn(env)
            return counted, ctype

        monkeypatch.setattr(precond, "compile_expr", counting_compile)
        a, b = parse_precondition("1 < 2"), parse_precondition("2 > 1")
        assert brute_equivalence(a, b, {}) == Equivalent()
        assert envs == [{}, {}]
        assert brute_equivalence(a, parse_precondition("2 < 1"), {}) == (
            Inequivalent({}))
        assert brute_equivalence(parse_precondition("1 / 0 == 0"), a, {}) == (
            EquivUnknown("degenerate: undefined arithmetic"))


@st.composite
def brute_cases(draw):
    """Two formulas over 0-3 variables of any type, where the second is
    often the first or its double negation, with a box and a budget."""
    names = draw(st.lists(st.sampled_from("xyz"), max_size=3, unique=True))
    variables = {name: draw(st.sampled_from(C_TYPES)) for name in names}
    a = draw(c_expressions(names, max_leaves=8))
    b = draw(st.sampled_from([a, Unary("!", Unary("!", a))])
             | c_expressions(names, max_leaves=8))
    box, budget = draw(st.sampled_from(
        [((-128, 127), n) for n in (1, 259, 260, 261)]
        + [((-3, 3), n) for n in (1, 259, 260, 261, MAX_BRUTE_ASSIGNMENTS)]))
    return a, b, variables, box, budget


class TestAgainstReferenceLoop:
    @settings(max_examples=300, deadline=None)
    @given(brute_cases())
    def test_matches_the_reference_loop(self, case):
        a, b, variables, box, budget = case
        with mock.patch.object(precond, "MAX_BRUTE_ASSIGNMENTS", budget):
            assert brute_equivalence(a, b, variables, box) == \
                brute_loop(a, b, variables, box, budget)


SCAN_TYPES = [CHAR, UCHAR, SHORT, USHORT, INT, UINT]


def scan_formulas(names: list[str]):
    """Formulas over ``names`` whose terms divide, take remainders and shift
    by small values, so that some assignments are undefined."""
    terms = st.recursive(
        st.sampled_from(names).map(Var)
        | st.builds(IntLit, st.sampled_from(SPECIAL_VALUES[:8]),
                    st.sampled_from(SCAN_TYPES)),
        lambda kids: st.builds(Binary, st.sampled_from(
            ["/", "%", "<<", ">>", "+", "-", "*"]), kids, kids),
        max_leaves=4)
    atoms = st.builds(Binary, st.sampled_from(["<", "<=", "==", "!="]),
                      terms, terms)
    return st.recursive(
        atoms, lambda kids: st.builds(Unary, st.just("!"), kids)
        | st.builds(Binary, st.sampled_from(["&&", "||"]), kids, kids),
        max_leaves=3)


@st.composite
def scan_cases(draw):
    """A ground truth and candidates over 1-3 variables of char, short, int
    and unsigned types, where a candidate is often the truth itself, with a
    box and a budget."""
    names = draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=3,
                          unique=True))
    variables = {name: draw(st.sampled_from(SCAN_TYPES)) for name in names}
    truth = draw(scan_formulas(names))
    candidates = draw(st.lists(st.just(truth) | scan_formulas(names),
                               min_size=1, max_size=4))
    box, budget = draw(st.sampled_from(
        [((-128, 127), n) for n in (1, 259, 260, 261, 2000)]
        + [((-3, 3), n) for n in (1, 10, 11, 12, MAX_BRUTE_ASSIGNMENTS)]))
    return truth, candidates, variables, box, budget


class TestAgainstOldScan:
    """The scan that generates the ground truth's half once per ``(truth,
    names, types)`` against the one that generated both halves per pair."""

    @settings(max_examples=300, deadline=None)
    @given(scan_cases())
    def test_matches_the_old_scan(self, case):
        truth, candidates, variables, box, budget = case
        with mock.patch.object(precond, "MAX_BRUTE_ASSIGNMENTS", budget):
            for candidate in candidates:
                assert brute_equivalence(candidate, truth, variables, box) == \
                    old_brute_equivalence(candidate, truth, variables, box)

    def test_one_truth_over_different_types(self):
        # the truth's half depends on the variables' types: 200 is out of
        # a char's range, so `x < 200` always holds for a char
        truth = parse_precondition("x < 200")
        candidate = parse_precondition("x < 100")
        for ctype in (CHAR, INT, CHAR):
            variables = {"x": ctype}
            assert brute_equivalence(candidate, truth, variables) == \
                old_brute_equivalence(candidate, truth, variables)
        assert brute_equivalence(candidate, truth, {"x": CHAR}) == \
            Inequivalent({"x": 100})
        assert brute_equivalence(truth, truth, {"x": CHAR}) == Equivalent()


# literals near each type's bounds and near 2**31, 2**32, 2**63 and 2**64
EDGE_LITERALS = sorted(
    {v + d for t in C_TYPES for v in (t.min, t.max) for d in (-1, 0, 1)}
    | {(1 << p) + d for p in (31, 32, 63, 64) for d in (-2, -1, 0, 1)}
    | {0, 1, 3})


@st.composite
def literal_texts(draw) -> str:
    """A literal C types as int, unsigned int, long or unsigned long: its
    magnitude in decimal, or in octal, which a value past ``LONG.max``
    needs, under zero to two minus signs."""
    value = draw(st.sampled_from(EDGE_LITERALS) | st.integers(-300, 300))
    magnitude = abs(value)
    assume(magnitude <= ULONG.max)
    octal = magnitude > LONG.max or draw(st.booleans())
    digits = "0" + format(magnitude, "o") if octal else str(magnitude)
    return "-" * (draw(st.integers(0, 2)) if value >= 0 else 1) + digits


def threshold_texts(names: str):
    """Threshold formulas over ``names``: ``&&``, ``||`` and ``!`` over
    comparisons of a name with a literal, on either side."""
    comparisons = st.builds(
        lambda name, op, lit, flip: f"{lit} {op} {name}" if flip
        else f"{name} {op} {lit}",
        st.sampled_from(names), st.sampled_from(sorted(precond._FLIP)),
        literal_texts(), st.booleans())
    return st.recursive(
        comparisons, lambda kids: kids.map(lambda f: f"!({f})")
        | st.builds(lambda left, op, right: f"({left}) {op} ({right})",
                    kids, st.sampled_from(["&&", "||"]), kids),
        max_leaves=5)


@st.composite
def threshold_cases(draw):
    """Two threshold formulas over one or two variables of any type, where
    the second is often the first or its double negation, with a box and a
    budget below, at or above the box's size."""
    names = draw(st.sampled_from(["x", "y", "xy"]))
    variables = {name: draw(st.sampled_from(C_TYPES)) for name in names}
    a = draw(threshold_texts(names))
    b = draw(st.sampled_from([a, f"!(!({a}))"]) | threshold_texts(names))
    box = draw(st.sampled_from([(-128, 127), (-3, 3)]))
    size = math.prod(len(precond._domain_values(t, box))
                     for t in variables.values())
    budget = draw(st.sampled_from([1, size - 1, size, size + 1,
                                   MAX_BRUTE_ASSIGNMENTS]))
    return parse_precondition(a), parse_precondition(b), variables, box, budget


class TestThresholdMasks:
    """Threshold formulas are compared by bit masks, not by a scan."""

    @settings(max_examples=400, deadline=None)
    @given(threshold_cases())
    def test_matches_the_old_scan(self, case):
        a, b, variables, box, budget = case
        assert precond._threshold_form(a, variables) is not None
        assert precond._threshold_form(b, variables) is not None
        with mock.patch.object(precond, "MAX_BRUTE_ASSIGNMENTS", budget):
            got = brute_equivalence(a, b, variables, box)
            want = old_brute_equivalence(a, b, variables, box)
        assert got == want
        assert list(vars(got).get("counterexample", {})) == \
            list(vars(want).get("counterexample", {}))

    def generated(self, monkeypatch, a: str, b: str, variables: dict):
        """The result of comparing ``a`` with ``b``, and which of
        ``compile_scan`` and ``cparse._factory`` it called."""
        called = []
        for owner, name in ((precond, "compile_scan"), (cparse, "_factory")):
            def noted(*args, original=getattr(owner, name), name=name):
                called.append(name)
                return original(*args)
            monkeypatch.setattr(owner, name, noted)
        a, b = parse_precondition(a), parse_precondition(b)
        return brute_equivalence(a, b, variables), set(called)

    def test_threshold_pair_generates_no_code(self, monkeypatch):
        variables = {"x": INT, "y": UCHAR}
        a = "x >= -5 && !(y == 3) || 020000000000 > x"
        b = "!(x < -5 || y == 3) || x < 2147483648"
        result, called = self.generated(monkeypatch, a, b, variables)
        assert called == set()
        assert result == old_brute_equivalence(
            parse_precondition(a), parse_precondition(b), variables)
        # 020000000000 is an unsigned int, and as one a negative int is at
        # least 2**31; 2147483648 is a long
        assert result == Inequivalent({"x": INT.min, "y": 0})

    def test_other_pair_keeps_the_scan(self, monkeypatch):
        result, called = self.generated(
            monkeypatch, "x + 1 > 5", "x > 4", {"x": INT})
        assert called == {"compile_scan", "_factory"}
        assert result == Inequivalent({"x": INT.max})


class TestJudgeOnce:
    TRUTH = parse_precondition("x > 0")

    def counted(self, monkeypatch, name):
        calls = []
        original = getattr(precond, name)

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(precond, name, counting)
        return calls

    def test_each_distinct_text_parsed_once(self, monkeypatch):
        texts = ["x > 0", "(((", "x>0", "x > 0", "(((", "x >= 1", "x>0"]
        alone = [judge_generation(t, self.TRUTH, {"x": INT}) for t in texts]
        parsed = self.counted(monkeypatch, "parse_precondition")
        compared = self.counted(monkeypatch, "brute_equivalence")
        judged = {}
        assert [judge_generation(t, self.TRUTH, {"x": INT}, judged=judged)
                for t in texts] == alone
        assert parsed == ["x > 0", "(((", "x>0", "x >= 1"]
        # "x>0" parses to the formula of "x > 0", so it is not compared
        assert compared == [Binary(">", Var("x"), IntLit(0)),
                            Binary(">=", Var("x"), IntLit(1))]

    def test_ground_truth_checked_once_per_dict(self, monkeypatch):
        checked = self.counted(monkeypatch, "variables_of")
        judged = {}
        for text in ["x > 0", "x < 0", "(((", "x > 0"]:
            judge_generation(text, self.TRUTH, {"x": INT}, judged=judged)
        assert checked == [self.TRUTH]

    def test_undeclared_ground_truth_raises_at_every_call(self):
        judged = {}
        for text in ["x > 0", "((("]:
            with pytest.raises(ValueError, match="undeclared"):
                judge_generation(text, parse_precondition("y > 0"),
                                 {"x": INT}, judged=judged)
        assert judged == {}


class TestHostileFormulas:
    """Generations that once raised RecursionError out of judge_generation."""

    TRUTH = parse_precondition("i > 0")

    @pytest.mark.parametrize("text", [
        "(" * 3000 + "i" + ")" * 3000 + " == 0",
        "not " * 3000 + "i == 0",
        " + ".join(["i"] * 3000) + " == 0",
        "-" * 3000 + "i == 0",
        " and ".join(["i == 0"] * 3000),
        "i == " + "9" * 5000,
        "i == 18446744073709551617",
    ], ids=["parens", "not", "sum-chain", "minus", "and-chain", "long-literal",
            "oversize-literal"])
    def test_unparseable(self, text):
        with pytest.raises(PrecondParseError):
            parse_precondition(text)
        assert judge_generation(text, self.TRUTH, IVAR) is \
            GenerationJudgment.UNPARSEABLE

    def test_nesting_up_to_the_limit_parses(self):
        limit = cparse.MAX_EXPR_NESTING
        for text in ("(" * limit + "i" + ")" * limit + " > 0",
                     "not " * limit + "i > 0",
                     "-" * limit + "i > 0"):
            assert judge_generation(text, self.TRUTH, IVAR) in (
                GenerationJudgment.EQUIVALENT, GenerationJudgment.INEQUIVALENT)
        with pytest.raises(PrecondParseError):
            parse_precondition("(" * (limit + 1) + "i" + ")" * (limit + 1) + " > 0")


class TestPinnedResults:
    """``golden/precond_brute.json`` holds brute_equivalence results (type,
    counterexample, reason) for seeded formula pairs over int, char, short,
    long and unsigned int variables, recorded with the evaluator that
    precond had before it lowered formulas to cparse."""

    TYPES = {"int": INT, "char": CHAR, "short": SHORT, "long": LONG,
             "unsigned int": UINT}

    def test_results_match_golden_file(self):
        import json
        cases = json.loads((FIXTURES / "golden" / "precond_brute.json")
                           .read_text(encoding="utf-8"))
        assert len(cases) == 330
        for case in cases:
            variables = {n: self.TYPES[t] for n, t in case["variables"].items()}
            a = parse_precondition(case["a"], set(variables))
            b = parse_precondition(case["b"], set(variables))
            result = brute_equivalence(a, b, variables, tuple(case["box"]))
            got = {"type": type(result).__name__, **vars(result)}
            assert got == case["result"], case


def random_boolean_expr(rng, names=("x", "y"), depth=2):
    if depth == 0 or rng.random() < 0.4:
        left = random_arith(rng, names, 2)
        right = random_arith(rng, names, 2)
        op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        return Binary(op, left, right)
    if rng.random() < 0.25:
        return Unary("!", random_boolean_expr(rng, names, depth - 1))
    op = {"and": "&&", "or": "||"}[rng.choice(["and", "or"])]
    return Binary(op, random_boolean_expr(rng, names, depth - 1),
                  random_boolean_expr(rng, names, depth - 1))


def random_arith(rng, names, depth):
    if depth == 0 or rng.random() < 0.5:
        if rng.random() < 0.5:
            return Var(rng.choice(list(names)))
        return IntLit(rng.randint(-30, 30))
    op = rng.choice(["+", "-", "*"])  # division kept rare to avoid skips
    if rng.random() < 0.1:
        op = rng.choice(["/", "%"])
    return Binary(op, random_arith(rng, names, depth - 1),
                  random_arith(rng, names, depth - 1))


class TestEquivalenceRelation:
    BOX = (-12, 11)  # small box keeps 2-variable products cheap

    def test_reflexive(self):
        rng = random.Random(7)
        for _ in range(60):
            expr = random_boolean_expr(rng)
            result = brute_equivalence(expr, expr, XY, self.BOX)
            assert isinstance(result, (Equivalent, EquivUnknown))

    def test_symmetric(self):
        rng = random.Random(8)
        for _ in range(60):
            a, b = random_boolean_expr(rng), random_boolean_expr(rng)
            ab = brute_equivalence(a, b, XY, self.BOX)
            ba = brute_equivalence(b, a, XY, self.BOX)
            assert type(ab) is type(ba)

    def test_transitive_on_definitive(self):
        rng = random.Random(9)
        triples = 0
        while triples < 25:
            a = random_boolean_expr(rng)
            b = random_boolean_expr(rng)
            c = random_boolean_expr(rng)
            ab = brute_equivalence(a, b, XY, self.BOX)
            bc = brute_equivalence(b, c, XY, self.BOX)
            if isinstance(ab, Equivalent) and isinstance(bc, Equivalent):
                ac = brute_equivalence(a, c, XY, self.BOX)
                assert isinstance(ac, Equivalent)
                triples += 1
            elif not isinstance(ab, EquivUnknown):
                triples += 1  # vacuous instances still count toward the cap


class TestSmtEmission:
    def test_structural_shape(self):
        a = parse_precondition("i <= -5")
        b = parse_precondition("i < -4")
        text = emit_smtlib(a, b, IVAR)
        assert text.count("(declare-const i (_ BitVec 32))") == 1
        assert text.count("(assert") == 1
        assert "(check-sat)" in text
        assert "(get-model)" in text
        assert "(set-logic QF_BV)" in text

    def test_signed_comparison_ops(self):
        a = parse_precondition("i < 0")
        text = emit_smtlib(a, a, IVAR)
        assert "bvslt" in text

    def test_division_guard_emitted(self):
        a = parse_precondition("i / 2 == 0")
        b = parse_precondition("i == 0")
        text = emit_smtlib(a, b, IVAR)
        assert "bvsdiv" in text
        assert "(assert (not (= (_ bv2 32) (_ bv0 32))))" in text

    def test_wide_literal_sign_extends(self):
        a = parse_precondition("i >= -2147483649")
        b = parse_precondition("i >= -2147483649")
        text = emit_smtlib(a, b, IVAR)
        assert "sign_extend" in text
        assert "BitVec 32" in text  # i itself stays 32-bit

    def test_reflexive_query_shape(self):
        a = parse_precondition("x < 10 and y > -10")
        text = emit_smtlib(a, a, XY)
        assert text.index("declare-const x") < text.index("declare-const y")

    def test_narrow_variables_declared_at_their_width(self):
        a = parse_precondition("c + 1 > 0 and u < s")
        variables = {"c": CHAR, "s": SHORT, "u": USHORT}
        text = emit_smtlib(a, a, variables)
        assert "(declare-const c (_ BitVec 8))" in text
        assert "(declare-const s (_ BitVec 16))" in text
        assert "(declare-const u (_ BitVec 16))" in text
        assert "(bvadd ((_ sign_extend 24) c) (_ bv1 32))" in text
        assert "(bvslt ((_ zero_extend 16) u) ((_ sign_extend 16) s))" in text
        assert_well_sorted(text)

    def test_random_queries_are_well_sorted(self):
        rng = random.Random(31)
        types = [CHAR, UCHAR, SHORT, USHORT, INT, UINT, LONG, cparse.ULONG]
        literals = ["3", "-1", "255", "2147483648", "4294967295",
                    "9223372036854775807"]
        for _ in range(200):
            variables = {"x": rng.choice(types), "y": rng.choice(types)}

            def term(depth):
                if depth == 0 or rng.random() < 0.3:
                    return rng.choice(["x", "y", *literals])
                if rng.random() < 0.15:
                    return f"-({term(depth - 1)})"
                return (f"({term(depth - 1)} {rng.choice('+-*/%')} "
                        f"{term(depth - 1)})")

            text = (f"{term(2)} {rng.choice(['<', '>=', '=', '!='])} {term(2)}"
                    f" {rng.choice(['and', 'or'])} not ({term(2)} <= {term(1)})")
            expr = parse_precondition(text)
            assert_well_sorted(emit_smtlib(expr, expr, variables))

    def test_no_solver_is_unknown(self):
        a = parse_precondition("i == 0")
        result = smt_equivalence(a, a, IVAR, solver=["/nonexistent/solver"])
        assert isinstance(result, EquivUnknown)

    def test_missing_solver_reported(self, monkeypatch):
        import termeval.precond as precond_mod
        monkeypatch.setattr(precond_mod.shutil, "which", lambda *_: None)
        a = parse_precondition("i == 0")
        result = smt_equivalence(a, a, IVAR)
        assert result == EquivUnknown("no solver")


def assert_well_sorted(query: str) -> None:
    """Sort-check the QF_BV subset that emit_smtlib writes: every operator
    gets operands of one sort, so no solver is needed to catch a 56-bit term
    compared against a 32-bit one."""
    tokens = query.replace("(", " ( ").replace(")", " ) ").split()

    def read(pos):
        if tokens[pos] != "(":
            return tokens[pos], pos + 1
        items, pos = [], pos + 1
        while tokens[pos] != ")":
            item, pos = read(pos)
            items.append(item)
        return items, pos + 1

    widths: dict[str, int] = {}

    def sort(term):  # "Bool" or a bit-vector width
        if isinstance(term, str):
            assert term in widths, term
            return widths[term]
        head, *args = term
        if head == "_":
            assert args[0].startswith("bv") and int(args[0][2:]) < 2 ** int(args[1])
            return int(args[1])
        if isinstance(head, list):  # ((_ sign_extend k) t)
            assert head[1] in ("sign_extend", "zero_extend") and len(args) == 1
            inner = sort(args[0])
            assert inner != "Bool"
            return inner + int(head[2])
        sorts = [sort(a) for a in args]
        if head in ("and", "or", "not"):
            assert set(sorts) == {"Bool"}, term
            return "Bool"
        assert len(set(sorts)) == 1, term
        if head == "=" or head[3:] in ("lt", "le", "gt", "ge"):
            return "Bool"
        assert head in ("bvadd", "bvsub", "bvmul", "bvneg", "bvsdiv",
                        "bvudiv", "bvsrem", "bvurem"), head
        assert sorts[0] != "Bool"
        return sorts[0]

    pos = 0
    while pos < len(tokens):
        command, pos = read(pos)
        if command[0] == "declare-const":
            assert command[2][:2] == ["_", "BitVec"]
            widths[command[1]] = int(command[2][2])
        elif command[0] == "assert":
            assert sort(command[1]) == "Bool", command


solver_available = find_solver() is not None


@pytest.mark.skipif(not solver_available, reason="no SMT solver installed")
class TestSmtBackend:
    def test_paper_pair_unsat(self):
        a = parse_precondition("x < 10 and y > -10")
        b = parse_precondition("x <= 9 and y >= -9")
        assert smt_equivalence(a, b, XY) == Equivalent()

    def test_point_vs_interval_sat(self):
        a = parse_precondition("i = 0")
        b = parse_precondition("i >= -5 and i <= 5")
        result = smt_equivalence(a, b, IVAR)
        assert isinstance(result, Inequivalent)
        env = result.counterexample
        assert eval_expr(a, env, IVAR)[0] != eval_expr(b, env, IVAR)[0]

    def test_agreement_with_brute(self):
        rng = random.Random(12)
        for _ in range(50):
            a, b = random_boolean_expr(rng), random_boolean_expr(rng)
            rb = brute_equivalence(a, b, XY, (-12, 11))
            rs = smt_equivalence(a, b, XY)
            if isinstance(rb, EquivUnknown) or isinstance(rs, EquivUnknown):
                continue
            assert isinstance(rb, Equivalent) == isinstance(rs, Equivalent)


class TestBothMode:
    def test_divergence_reported(self, monkeypatch):
        import termeval.precond as precond_mod
        a = parse_precondition("i == 0")
        monkeypatch.setattr(precond_mod, "smt_equivalence",
                            lambda *args, **kw: Inequivalent({"i": 1}))
        result = check_equivalence(a, a, IVAR, mode="both")
        assert result == EquivUnknown("divergent backends")

    def test_agreeing_backends(self, monkeypatch):
        import termeval.precond as precond_mod
        a = parse_precondition("i == 0")
        monkeypatch.setattr(precond_mod, "smt_equivalence",
                            lambda *args, **kw: Equivalent())
        assert check_equivalence(a, a, IVAR, mode="both") == Equivalent()

    def test_unavailable_backend(self, monkeypatch):
        import termeval.precond as precond_mod
        a = parse_precondition("i == 0")
        monkeypatch.setattr(precond_mod, "smt_equivalence",
                            lambda *args, **kw: EquivUnknown("no solver"))
        result = check_equivalence(a, a, IVAR, mode="both")
        assert isinstance(result, EquivUnknown)


class TestPassAtK:
    TRUTH = parse_precondition("i % 2 != 0")

    def pass_at(self, generations, k):
        return pass_at_k(len(generations),
                         count_equivalent(generations, self.TRUTH, IVAR), k)

    def test_all_equivalent(self):
        generations = ["i % 2 != 0"] * 10
        assert self.pass_at(generations, 1) == 1.0
        assert self.pass_at(generations, 3) == 1.0

    def test_half_correct_matches_estimator(self):
        generations = ["i % 2 != 0"] * 5 + ["i > 0"] * 5
        assert self.pass_at(generations, 3) == pytest.approx(11 / 12)

    def test_none_correct(self):
        generations = ["i > 0"] * 10
        assert self.pass_at(generations, 1) == 0.0

    def test_unparseable_counts_as_wrong(self):
        generations = ["%%%garbage%%%"] * 5 + ["i % 2 != 0"] * 5
        assert count_equivalent(generations, self.TRUTH, IVAR) == 5
        assert self.pass_at(generations, 1) == pytest.approx(0.5)

    def test_judgments(self):
        assert judge_generation("(i % 2 != 0) and (i >= -2147483649)",
                                self.TRUTH, IVAR) is GenerationJudgment.EQUIVALENT
        assert judge_generation("i == 0", self.TRUTH, IVAR) is \
            GenerationJudgment.INEQUIVALENT
        assert judge_generation("////", self.TRUTH, IVAR) is \
            GenerationJudgment.UNPARSEABLE
