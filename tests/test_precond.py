import random

import pytest

from termeval import cparse, precond
from termeval.cparse import (
    CHAR, INT, LONG, SHORT, UCHAR, UINT, USHORT, Binary, IntLit, Unary, Var,
)
from termeval.evalcore import pass_at_k
from termeval.precond import (
    MAX_BRUTE_ASSIGNMENTS, Equivalent, EquivUnknown, GenerationJudgment,
    Inequivalent, PrecondParseError, brute_equivalence, check_equivalence,
    count_equivalent, emit_smtlib, find_solver,
    judge_generation, parse_precondition, smt_equivalence, variables_of,
)

from conftest import FIXTURES
from reference import eval_expr, format_expr

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

    def test_position_reported(self):
        try:
            parse_precondition("i == 0 and q > 1", known_vars={"i"})
        except PrecondParseError as exc:
            assert exc.position == 11  # 0-based offset of 'q'
        else:
            pytest.fail("expected PrecondParseError")

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
