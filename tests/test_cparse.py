import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from termeval import cparse, precond
from termeval.cparse import (
    Assign, Binary, CParseError, EvalUndefined, If, IntLit, NondetAssign,
    Program, Unary, UnsupportedConstruct, Var, While, parse_expression,
    parse_program, INT, UINT, wrap,
)
from termeval.lasso import (
    ASSIGN, COND, JUMP, NONDET, LassoPath, ProvenInfinite, _lower,
    check_feasibility, run_program,
)
from termeval.witness import WitnessEdge

from conftest import (
    C_TYPES, c_chains, c_expressions, int_values, load_program,
)
from reference import (
    brute_loop, closure_compile, eval_expr, iter_statements, pretty_print,
    resolve_line, strip_alpha,
)


def collect(program, kind):
    return [s for s in iter_statements(program) if isinstance(s, kind)]


class TestParsePrograms:
    def test_absorbing_loop_shape(self):
        program = parse_program(load_program("absorb_to_zero.c"))
        assert isinstance(program, Program)
        assert len(collect(program, While)) == 1
        assert len(collect(program, If)) == 2
        assert len(collect(program, NondetAssign)) == 1

    def test_even_spin_shape(self):
        program = parse_program(load_program("even_spin.c"))
        assert isinstance(program, Program)
        loops = collect(program, While)
        assert len(loops) == 1
        cond = loops[0].cond
        assert isinstance(cond, Binary) and cond.op == "=="
        assert cond.left == Binary("%", Var("x"), IntLit(2))
        body = loops[0].body
        assert len(body) == 1
        assert body[0] == Assign("x", Binary("+", Var("x"), IntLit(2)),
                                 line=body[0].line)

    def test_malloc_is_unsupported(self):
        result = parse_program(load_program("heap_user.c"))
        assert isinstance(result, UnsupportedConstruct)
        assert result.line == 3

    def test_goto_unsupported(self):
        result = parse_program("int main() { l: goto l; return 0; }")
        assert isinstance(result, UnsupportedConstruct)

    def test_array_unsupported(self):
        result = parse_program("int main() { int a[4]; return 0; }")
        assert isinstance(result, UnsupportedConstruct)

    def test_unterminated_comment_is_parse_error(self):
        with pytest.raises(CParseError):
            parse_program("int main() { /* oops\nreturn 0; }")

    def test_no_panic_on_arbitrary_text(self):
        # subset totality: everything classifies or raises CParseError
        for text in ("", "not c at all", "int main;", "{}{}{}", "int f() {}"):
            try:
                result = parse_program(text)
            except CParseError:
                continue
            assert isinstance(result, (Program, UnsupportedConstruct))

    @given(st.text(max_size=200))
    def test_no_panic_property(self, text):
        try:
            result = parse_program(text)
        except CParseError:
            return
        assert isinstance(result, (Program, UnsupportedConstruct))

    def test_typedef_bool_and_literals(self):
        program = parse_program(
            "typedef enum {false,true} bool;\n"
            "int main() { bool b; b = true; while (b) { b = false; } return 0; }\n")
        assert isinstance(program, Program)

    def test_nondet_sites_one_per_call_site(self):
        program = parse_program(load_program("negate_keeps_positive.c"))
        assert isinstance(program, Program)
        assert [(s.name, s.line) for s in program.nondet_vars] == \
            [("x", 14), ("y", 15)]

    def test_nondet_in_declaration(self):
        program = parse_program(
            "extern int __VERIFIER_nondet_int(void);\n"
            "int main() { int x = __VERIFIER_nondet_int(); return x; }\n")
        assert isinstance(program, Program)
        assert [(s.name, s.line) for s in program.nondet_vars] == [("x", 2)]

    def test_unknown_nondet_flavor_unsupported(self):
        result = parse_program(
            "extern float __VERIFIER_nondet_float(void);\n"
            "int main() { int x; x = __VERIFIER_nondet_float(); return 0; }\n")
        assert isinstance(result, UnsupportedConstruct)

    def test_user_call_unsupported(self):
        result = parse_program(
            "int helper(void) { return 1; }\n"
            "int main() { int x; x = helper(); return 0; }\n")
        assert isinstance(result, UnsupportedConstruct)

    def test_helper_definition_parses(self):
        program = parse_program(
            "int helper(int a) { return a + 1; }\n"
            "int main() { return 0; }\n")
        assert isinstance(program, Program)
        assert set(program.functions) == {"helper", "main"}

    @pytest.mark.parametrize("spelling, ctype", [
        ("short", cparse.SHORT), ("short int", cparse.SHORT),
        ("int short", cparse.SHORT), ("signed short int", cparse.SHORT),
        ("unsigned short int", cparse.USHORT),
        ("short unsigned int", cparse.USHORT),
        ("signed char", cparse.CHAR), ("unsigned char", cparse.UCHAR),
        ("unsigned", UINT), ("signed", INT), ("long int", cparse.LONG),
        ("long long int", cparse.LONG),
        ("unsigned long int", cparse.ULONG),
    ])
    def test_integer_type_spellings(self, spelling, ctype):
        # the size word names the type wherever it stands
        program = parse_program(f"int main() {{ {spelling} v = 0; return 0; }}")
        assert program.types == {"v": ctype}

    def test_for_loop_with_increment(self):
        program = parse_program(load_program("count_to_ten.c"))
        assert isinstance(program, Program)
        loops = collect(program, While)
        assert len(loops) == 1
        assert loops[0].line == 5

    def test_nondet_site_is_its_statement(self):
        # a call on the line after the assigned name is still the site of
        # the statement on the name's line, the key its value is read by
        program = parse_program(
            "int main() {\n  int x;\n  x =\n    __VERIFIER_nondet_int();\n"
            "  while (x > 0) { x = x + 0; }\n  return 0;\n}\n")
        assert isinstance(program, Program)
        site, = program.nondet_vars
        assert site is program.functions["main"].body[1]
        assert (site.name, site.line) == ("x", 3)
        assert run_program(program, {"x@3": 0}, 1000) == ("terminated", 3)
        assert run_program(program, {"x@3": 5}, 1000)[0] == "running"
        # the checker enumerates the value the statement reads
        stem = (WitnessEdge("S", "N", "H", 3, "x = ..."),)
        cycle = (WitnessEdge("C", "H", "A", 5, "x > 0",
                             control="condition-true"),
                 WitnessEdge("D", "A", "H", 5, "x = x + 0;"))
        result = check_feasibility(program, LassoPath(stem, cycle, "H"))
        assert isinstance(result, ProvenInfinite)
        assert result.assignment == {"x@3": 1}


    def test_only_main_has_nondet_sites(self):
        # only main runs, so a call in another function is no site, wherever
        # that function stands
        program = parse_program(
            "int before() { int h = __VERIFIER_nondet_int(); return h; }\n"
            "int main() {\n  int x = __VERIFIER_nondet_int();\n"
            "  x = __VERIFIER_nondet_int();\n  return x;\n}\n"
            "int after(int a) { a = __VERIFIER_nondet_int(); return a; }\n")
        assert isinstance(program, Program)
        assert [(s.name, s.line) for s in program.nondet_vars] == \
            [("x", 3), ("x", 4)]


def instructions(program: Program) -> list[tuple]:
    """The lowered code of ``program`` as opcode, line, variable and jump
    target; the compiled expressions are left out."""
    return [(op, line, a if op in (ASSIGN, NONDET) else None,
             b if op == COND else a if op == JUMP else None)
            for op, line, a, b in _lower(program)]


class TestForLoop:
    """A ``for`` is read as a block holding its init and a ``while`` whose
    body is the loop body, in a block of its own, and then the step."""

    @pytest.mark.parametrize("loop, hand_written", [
        ("for (;;) { x = x - 1; if (x < 0) return 0; }",
         "{ while (1) { { x = x - 1; if (x < 0) return 0; } } }"),
        ("for (int i = 0; i < x; i++) { x = x - 1; }",
         "{ int i = 0; while (i < x) { { x = x - 1; } i++; } }"),
        ("for (x = __VERIFIER_nondet_int(); x > 0;) { x = x - 2; }",
         "{ x = __VERIFIER_nondet_int(); while (x > 0) { { x = x - 2; } } }"),
        ("for (; x > 0; x = __VERIFIER_nondet_int()) x = x - 1;",
         "{ while (x > 0) { { x = x - 1; } x = __VERIFIER_nondet_int(); } }"),
        ("for (char c = 0; c != x; c += 3);",
         "{ char c = 0; while (c != x) { { } c += 3; } }"),
        ("for (int i = __VERIFIER_nondet_int(); i > 0; i--) x = x - 1;",
         "{ int i = __VERIFIER_nondet_int(); while (i > 0) { { x = x - 1; }"
         " i--; } }"),
        ("for (int a = 0, b = 3; a < b; a++) { x = x + b; }",
         "{ int a = 0, b = 3; while (a < b) { { x = x + b; } a++; } }"),
    ], ids=["no-parts", "declaration", "no-step", "nondet-step", "empty-body",
            "nondet-declaration", "two-declarators"])
    def test_for_is_its_while_form(self, loop, hand_written):
        programs = [parse_program(
            "int main() {\n  int x = __VERIFIER_nondet_int();\n  "
            + text + "\n  return x;\n}\n") for text in (loop, hand_written)]
        assert all(isinstance(p, Program) for p in programs)
        for_form, while_form = programs
        assert for_form.types == while_form.types
        assert for_form.nondet_vars == while_form.nondet_vars
        assert instructions(for_form) == instructions(while_form)
        for x in (-3, 0, 7):
            assignment = {f"{s.name}@{s.line}": x for s in for_form.nondet_vars}
            assert run_program(for_form, assignment, 500) == \
                run_program(while_form, assignment, 500)

    def test_body_is_checked_before_the_step(self):
        # both the step and the body break the scope rules; the body,
        # which runs first, is named
        result = parse_program(
            "int main() {\n  int k;\n  for (;; q = 1) {\n    int k;\n  }\n"
            "  int q;\n  return 0;\n}\n")
        assert isinstance(result, UnsupportedConstruct)
        assert (result.line, result.construct) == (
            4, "shadowed declaration of k")


class TestResolveLine:
    def test_while_line(self):
        program = parse_program(load_program("absorb_to_zero.c"))
        stmts = resolve_line(program, 9)
        assert len(stmts) == 1
        assert isinstance(stmts[0], While)

    def test_beyond_file_end(self):
        program = parse_program(load_program("absorb_to_zero.c"))
        assert resolve_line(program, 999) == []

    def test_assign_inside_if(self):
        program = parse_program(load_program("absorb_to_zero.c"))
        stmts = resolve_line(program, 14)
        assert len(stmts) == 1
        assert isinstance(stmts[0], Assign)
        assert stmts[0].name == "i"

    def test_brace_line_resolves_to_nothing(self):
        program = parse_program(load_program("absorb_to_zero.c"))
        assert resolve_line(program, 16) == []


class TestRoundTrip:
    @pytest.mark.parametrize("name", [
        "even_spin.c", "count_to_ten.c", "absorb_to_zero.c",
        "negate_keeps_positive.c", "stall_below_minus_five.c",
    ])
    def test_pretty_print_reparses(self, name):
        program = parse_program(load_program(name))
        assert isinstance(program, Program)
        reparsed = parse_program(pretty_print(program))
        assert isinstance(reparsed, Program)
        assert strip_alpha(reparsed) == strip_alpha(program)

    def test_line_tags_survive(self):
        program = parse_program(load_program("even_spin.c"))
        reparsed = parse_program(pretty_print(program))
        # same statement kinds in the same order, lines renumbered
        kinds = [type(s).__name__ for s in iter_statements(program)]
        rekinds = [type(s).__name__ for s in iter_statements(reparsed)]
        assert kinds == rekinds


SHADOWING = ("int main() { int x = 3; if (x > 0) { int x = 100; } "
             "while (x > 50) { x = x + 0; } return 0; }")


class TestScopes:
    """Execution keeps one value per name, so the subset has one visible
    declaration per name."""

    def test_shadowing_declaration_unsupported(self):
        result = parse_program(SHADOWING)
        assert isinstance(result, UnsupportedConstruct)
        assert result.construct == "shadowed declaration of x"

    @pytest.mark.parametrize("source", [
        "int x; int main() { int x = 1; return x; }",
        "int main() { int i = 0; for (int i = 0; i < 2; i++) { } return 0; }",
        "int main() { for (int i = 0; i < 2; i++) { int i = 5; } return 0; }",
        "int main() { int x = 1; int x = 2; return x; }",
        "int main(int n) { int n = 1; return n; }",
    ])
    def test_every_shadowing_form_unsupported(self, source):
        result = parse_program(source)
        assert isinstance(result, UnsupportedConstruct)
        assert result.construct.startswith(("shadowed declaration of",
                                            "conflicting declarations of"))

    def test_conflicting_types_unsupported(self):
        result = parse_program(
            "int main() { if (1) { char c = 1; } else { int c = 2; } return 0; }")
        assert result.construct == "conflicting declarations of c"

    def test_use_outside_scope_unsupported(self):
        result = parse_program(
            "int main() { if (1) { int t = 1; } t = 2; return 0; }")
        assert result.construct == "use of t outside its scope"
        result = parse_program("int main() { int x = x + 1; return x; }")
        assert result.construct == "use of x outside its scope"

    def test_sibling_declarations_of_one_type_parse(self):
        program = parse_program(
            "int g = 2;\n"
            "int main() {\n"
            "  for (int i = 0; i < 2; i++) { int t = i; }\n"
            "  for (int i = 0; i < 3; i++) { int t = g; }\n"
            "  undeclared = 1;\n"
            "  return 0;\n"
            "}\n")
        assert isinstance(program, Program)
        assert program.types == {"g": INT, "i": INT, "t": INT}


class TestCompiledExpressions:
    def test_compiled_once_evaluated_many_times(self):
        fn, ctype = cparse.compile_expr(parse_expression("c * 2 + 1"),
                                        {"c": cparse.CHAR})
        assert ctype == INT
        assert [fn({"c": c}) for c in (-128, 0, 127)] == [-255, 1, 255]

    def test_into_wraps_like_an_assignment(self):
        fn, ctype = cparse.compile_expr(parse_expression("c + 1"),
                                        {"c": cparse.CHAR}, into=cparse.CHAR)
        assert ctype == cparse.CHAR
        assert fn({"c": 127}) == -128
        fn, _ = cparse.compile_expr(parse_expression("u - 1"),
                                    {"u": cparse.UCHAR}, into=cparse.UCHAR)
        assert fn({"u": 0}) == 255

    def test_errors_raise_when_evaluated(self):
        fn, _ = cparse.compile_expr(parse_expression("x / (y - y)"), {})
        with pytest.raises(EvalUndefined):
            fn({"x": 1, "y": 2})
        with pytest.raises(KeyError):
            fn({"y": 2})
        shift, _ = cparse.compile_expr(parse_expression("1 << 40"), {})
        with pytest.raises(EvalUndefined, match="shift by 40 on 32-bit"):
            shift({})

    def test_undeclared_name_reads_as_wrapped_int(self):
        # only a declared name is read without a wrap; an undeclared one
        # stored from an unsigned nondet call may hold any unsigned value
        fn, _ = cparse.compile_expr(parse_expression("x < 0"), {})
        assert fn({"x": 4294967295}) == 1
        fn, _ = cparse.compile_expr(parse_expression("x < 0"), {"x": UINT})
        assert fn({"x": 4294967295}) == 0
        program = parse_program(
            "extern unsigned int __VERIFIER_nondet_uint(void);\n"
            "int main() {\n"
            "  x = __VERIFIER_nondet_uint();\n"
            "  while (x < 0) { }\n"
            "  return 0;\n"
            "}\n")
        assert program.types == {}
        assert run_program(program, {"x@3": 5}, 1000)[0] == "terminated"
        assert run_program(program, {"x@3": 4294967295}, 1000)[0] == "running"

    def test_and_reads_an_undeclared_name_wrapped(self):
        # read as int, 2**32 is 0 for `&&` as for `==` and `!`
        for cond in ("x && x == 0", "!!x && x == 0"):
            program = parse_program(
                "extern long __VERIFIER_nondet_long(void);\n"
                "int main() {\n"
                "  x = __VERIFIER_nondet_long();\n"
                f"  while ({cond}) {{ }}\n"
                "  return 0;\n"
                "}\n")
            assert program.types == {}
            state, _ = run_program(program, {"x@3": 2**32}, 1000)
            assert state == "terminated", cond

    def test_deep_chain_in_program_is_parse_error(self):
        chain = " + ".join(["x"] * 300)
        with pytest.raises(CParseError, match="deeper than"):
            parse_program(f"int main() {{ int x = 1; x = {chain}; return 0; }}")


class TestStatementNesting:
    # the opening of one level, and what closes it after the inner level
    FORMS = {
        "block": ("{ ", "} "),
        "if": ("if (x) ", ""),
        "if block": ("if (x) { ", "} "),
        "while": ("while (x) { ", "} "),
        "for": ("for (; x; ) { ", "} "),
    }

    def nested(self, form: str, levels: int, inner: str) -> str:
        """``main`` whose innermost statement ``inner`` is ``levels`` deep,
        counting ``main``'s own body as the first level."""
        opening, closing = self.FORMS[form]
        return ("int main() { int x = __VERIFIER_nondet_int(); "
                + opening * (levels - 1) + inner + closing * (levels - 1)
                + "return 0; }")

    @pytest.mark.parametrize("levels", [cparse.MAX_STMT_NESTING + 1, 1000])
    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_too_deep_is_parse_error(self, form, levels):
        with pytest.raises(CParseError, match="nested deeper than"):
            parse_program(self.nested(form, levels, "x = 0;"))

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_deepest_statement_holds_the_deepest_expression(self, form):
        depth = cparse.MAX_EXPR_NESTING
        inner = "x = " + "(" * depth + "x - x" + ")" * depth + ";"
        program = parse_program(
            self.nested(form, cparse.MAX_STMT_NESTING, inner))
        assert isinstance(program, Program)
        assert program.types == {"x": INT}
        assert run_program(program, {"x@1": 5}, 10_000)[0] == "terminated"


NAMES = ["a", "b", "c", "d"]
# generated identifiers, helper names, and names Python itself resolves
HOSTILE_NAMES = ["env", "_c0", "_v0", "_v1", "_h0", "_values", "_defined",
                 "_make", "scan", "_div", "_count", "EvalUndefined",
                 "__import__", "__builtins__"]


def outcomes(compile_, expr, types, into, envs):
    """The type of ``expr`` compiled with ``compile_``, and per environment
    its value or the error it raises."""
    fn, ctype = compile_(expr, types, into)
    results = []
    for env in envs:
        try:
            results.append(fn(env))
        except (EvalUndefined, KeyError) as exc:
            results.append((type(exc), str(exc)))
    return ctype, results


@st.composite
def typed_envs(draw, names):
    """Declared types for some of ``names``, and environments in which a
    declared name holds a value of its type, an undeclared one any int, and
    a name may be unbound."""
    types = draw(st.dictionaries(st.sampled_from(names), st.sampled_from(C_TYPES)))
    envs = []
    for _ in range(3):
        env = {}
        for name in names:
            if draw(st.integers(0, 9)) > 0:
                env[name] = draw(int_values(types.get(name)))
        envs.append(env)
    return types, envs


class TestGeneratedCode:
    """``compile_expr`` and ``compile_scan`` against the closure compiler
    and brute-force loop in tests/reference.py."""

    @settings(max_examples=400, deadline=None)
    @given(c_expressions(NAMES), typed_envs(NAMES),
           st.none() | st.sampled_from(C_TYPES))
    def test_matches_the_closure_compiler(self, expr, typed, into):
        types, envs = typed
        assert outcomes(cparse.compile_expr, expr, types, into, envs) == \
            outcomes(closure_compile, expr, types, into, envs)

    @settings(max_examples=40, deadline=None)
    @given(c_chains(NAMES), typed_envs(NAMES),
           st.none() | st.sampled_from(C_TYPES))
    def test_deep_chains_match_the_closure_compiler(self, expr, typed, into):
        types, envs = typed
        assert outcomes(cparse.compile_expr, expr, types, into, envs) == \
            outcomes(closure_compile, expr, types, into, envs)

    def test_not_of_an_undeclared_name_wraps_it_first(self):
        # an undeclared name may hold any int; read as int, 2**32 is 0
        for compile_ in (cparse.compile_expr, closure_compile):
            fn, _ = compile_(Unary("!", Var("x")), {})
            assert [fn({"x": v}) for v in (2**32, 2**32 + 1, 0)] == [1, 0, 1]

    def test_and_or_of_an_undeclared_name_wrap_it_first(self):
        cases = {"x && 1": [0, 1, 0], "1 && x": [0, 1, 0],
                 "x || 0": [0, 1, 0], "0 || !x": [1, 0, 1],
                 "x && y": [0, 1, 0], "y || x": [1, 1, 1]}
        for text, want in cases.items():
            for compile_ in (cparse.compile_expr, closure_compile):
                fn, _ = compile_(parse_expression(text), {"y": cparse.LONG})
                assert [fn({"x": v, "y": 1}) for v in (2**32, 2**32 + 1, 0)] \
                    == want, (text, compile_)

    def test_and_or_wrap_only_an_inexact_operand(self):
        # a declared operand is read as it is: no mask reaches the code
        expr = parse_expression("x && y || x")
        declared, _ = cparse.compile_expr(expr, {"x": INT, "y": cparse.CHAR})
        undeclared, _ = cparse.compile_expr(expr, {"y": cparse.CHAR})
        assert 2**32 - 1 not in declared.__code__.co_consts
        assert 2**32 - 1 in undeclared.__code__.co_consts

    @pytest.mark.parametrize("name", HOSTILE_NAMES)
    def test_generated_names_read_like_any_other(self, name):
        other = "x"
        types = {name: INT, other: cparse.CHAR}
        text = f"{name} * 3 - {other} < {name} / ({other} + 2) || !{name}"
        expr = parse_expression(text)
        envs = [{name: v, other: w} for v in (-7, 0, 5) for w in (-2, 0, 9)]
        assert outcomes(cparse.compile_expr, expr, types, None, envs) == \
            outcomes(closure_compile, expr, types, None, envs)
        # the scan read mode: each name is a local, whatever it is called
        box = (-6, 6)
        for other_text in (f"{name} * 3 - {other} <= {name} / ({other} + 2)",
                           f"{other} == {other} && !({name} * 3 - {other} >= "
                           f"{name} / ({other} + 2)) || !{name}"):
            b = parse_expression(other_text)
            assert precond.brute_equivalence(expr, b, types, box) == \
                brute_loop(expr, b, types, box, precond.MAX_BRUTE_ASSIGNMENTS)

    @pytest.mark.parametrize("op", ["+", "<<", "/", "&&"])
    @pytest.mark.parametrize("declared", [False, True])
    def test_deepest_chains_compile(self, op, declared):
        types = {"x": cparse.CHAR, "y": cparse.CHAR} if declared else {}
        chains = [Var("x"), Var("x")]
        for _ in range(cparse.MAX_EXPR_DEPTH - 1):
            chains = [Binary(op, chains[0], Var("y")),
                      Binary(op, Var("y"), chains[1])]
        xy, box = {"x": INT, "y": INT}, (-2, 2)
        for chain in chains:
            assert cparse.expr_depth(chain) == cparse.MAX_EXPR_DEPTH
            envs = [{"x": 3, "y": 1}, {"x": -1, "y": 0}]
            assert outcomes(cparse.compile_expr, chain, types, None, envs) == \
                outcomes(closure_compile, chain, types, None, envs)
            assert precond.brute_equivalence(chain, Var("x"), xy, box) == \
                brute_loop(chain, Var("x"), xy, box,
                           precond.MAX_BRUTE_ASSIGNMENTS)

    def test_literals_and_names_are_arguments_of_one_compiled_shape(self):
        cparse.compile_expr(parse_expression("x * 1234567 < 7654321"), {})
        before = cparse._factory.cache_info()
        fn, _ = cparse.compile_expr(parse_expression("y * 7 < 8"), {})
        after = cparse._factory.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert fn({"y": 1}) == 1 and fn({"y": 2}) == 0
        assert not set(fn.__code__.co_consts) & {7, 8, "y"}
        assert {cell.cell_contents for cell in fn.__closure__} == {7, 8, "y"}

    def test_shape_cache_is_bounded(self):
        bound = cparse._factory.cache_info().maxsize
        assert bound + 20 <= 2**10
        for i in range(bound + 20):
            # bit k of i picks the operator at level k: a distinct shape each
            expr, ones = Var("x"), [i >> k & 1 for k in range(10)]
            for one in ones:
                expr = Binary("-" if one else "+", expr, IntLit(1))
            fn, _ = cparse.compile_expr(expr, {})
            assert fn({"x": 0}) == 10 - 2 * sum(ones)
        assert cparse._factory.cache_info().currsize == bound


class TestSemantics:
    def test_truncated_division(self):
        assert eval_expr(parse_expression("-7 / 2"), {}, {})[0] == -3
        assert eval_expr(parse_expression("7 / -2"), {}, {})[0] == -3
        assert eval_expr(parse_expression("-7 % 2"), {}, {})[0] == -1
        assert eval_expr(parse_expression("7 % -2"), {}, {})[0] == 1

    def test_wraparound_add(self):
        env = {"x": 2**31 - 1}
        value, _ = eval_expr(parse_expression("x + 1"), env, {"x": INT})
        assert value == -(2**31)

    def test_wraparound_multiplication(self):
        env = {"x": 2**30}
        assert eval_expr(parse_expression("x * 4"), env, {"x": INT})[0] == 0

    def test_division_by_zero_undefined(self):
        with pytest.raises(EvalUndefined):
            eval_expr(parse_expression("1 / 0"), {}, {})[0]
        with pytest.raises(EvalUndefined):
            eval_expr(parse_expression("1 % 0"), {}, {})[0]

    def test_bitwise_and_shifts(self):
        assert eval_expr(parse_expression("5 & 3"), {}, {})[0] == 1
        assert eval_expr(parse_expression("5 | 2"), {}, {})[0] == 7
        assert eval_expr(parse_expression("5 ^ 1"), {}, {})[0] == 4
        assert eval_expr(parse_expression("1 << 4"), {}, {})[0] == 16
        assert eval_expr(parse_expression("-8 >> 1"), {}, {})[0] == -4

    def test_bitwise_not(self):
        assert eval_expr(parse_expression("~x"), {"x": -64}, {"x": INT})[0] == 63

    def test_logic_short_circuit(self):
        # right operand would divide by zero; && must not evaluate it
        assert eval_expr(parse_expression("0 && (1 / 0)"), {}, {})[0] == 0
        assert eval_expr(parse_expression("1 || (1 / 0)"), {}, {})[0] == 1

    def test_int_min_literal_is_long(self):
        # 2147483648 does not fit int, so -2147483648 compares in 64 bits
        value, ctype = eval_expr(parse_expression("-2147483648"), {}, {})
        assert value == -2147483648
        assert ctype.width == 64

    def test_comparison_promotes_to_literal_width(self):
        # i >= -2147483649 is vacuously true for any 32-bit i
        expr = parse_expression("i >= -2147483649")
        for i in (-2**31, -1, 0, 2**31 - 1):
            assert eval_expr(expr, {"i": i}, {"i": INT})[0] == 1

    def test_unsigned_comparison(self):
        expr = parse_expression("x > 0")
        assert eval_expr(expr, {"x": 4294967295}, {"x": UINT})[0] == 1
        assert eval_expr(expr, {"x": -1}, {"x": INT})[0] == 0

    def test_char_promotion(self):
        expr = parse_expression("c + 1")
        value, ctype = eval_expr(expr, {"c": 127}, {"c": cparse.CHAR})
        assert (value, ctype.width) == (128, 32)

    def test_wrap_helper(self):
        assert wrap(256, cparse.CHAR) == 0
        assert wrap(255, cparse.CHAR) == -1
        assert wrap(255, cparse.UCHAR) == 255
        assert wrap(-1, cparse.UCHAR) == 255

    @given(st.integers(-2**40, 2**40), st.integers(-2**40, 2**40))
    def test_division_identity(self, a, b):
        # C guarantees (a/b)*b + a%b == a at the evaluation width
        if b == 0:
            return
        a32, b32 = wrap(a, INT), wrap(b, INT)
        if b32 == 0:
            return
        q = eval_expr(Binary("/", IntLit(a32), IntLit(b32)), {}, {})[0]
        r = eval_expr(Binary("%", IntLit(a32), IntLit(b32)), {}, {})[0]
        assert wrap(q * b32 + r, INT) == a32


class TestExpressionParsing:
    def test_trailing_garbage_rejected(self):
        with pytest.raises(CParseError):
            parse_expression("x + 1 1")

    def test_precedence(self):
        expr = parse_expression("1 + 2 * 3 == 7")
        assert eval_expr(expr, {}, {})[0] == 1

    def test_parentheses(self):
        assert eval_expr(parse_expression("(1 + 2) * 3"), {}, {})[0] == 9

    @pytest.mark.parametrize("text", [
        "(" * 3000 + "x" + ")" * 3000,
        "!" * 3000 + "x",
        " + ".join(["x"] * 3000),
    ])
    def test_deep_nesting_is_parse_error(self, text):
        with pytest.raises(CParseError, match="deeper than"):
            parse_expression(text)

    @pytest.mark.parametrize("literal", [
        "08", "9" * 5000, "18446744073709551617", "0x1FFFFFFFFFFFFFFFF",
        "9223372036854775808", "18446744073709551616u", "9223372036854775808l",
    ])
    def test_literal_int_refuses_is_parse_error(self, literal):
        # 8 is not an octal digit, int() rejects more than 4,300 decimal
        # digits with a ValueError, and the rest fit no type the constant may
        # take (an unsuffixed decimal stays signed)
        with pytest.raises(CParseError, match="unsupported integer literal"):
            parse_expression("x == " + literal)

    @pytest.mark.parametrize("literal, value, ctype", [
        ("010", 8, INT), ("0", 0, INT), ("00", 0, INT), ("0777u", 511, UINT),
        ("0x1F", 31, INT), ("017777777777", 2**31 - 1, INT),
        # a non-decimal constant takes unsigned int before long
        ("020000000000", 2**31, UINT), ("2147483648", 2**31, cparse.LONG),
    ])
    def test_leading_zero_is_octal(self, literal, value, ctype):
        token = cparse.tokenize(literal)[0]
        assert (token.value, token.ctype) == (value, ctype)

    def test_octal_in_a_program(self):
        program = parse_program("int main() { int x = 010; return 0; }")
        assert isinstance(program, Program)
        assert program.functions["main"].body[0].init == IntLit(8)

    def test_tokenize_time_is_linear_in_the_text(self):
        # a witness assumption may be a megabyte long; copying the rest of
        # the text for each token would make the time quadratic
        def seconds(size: int) -> float:
            text = ("x1 23 " * (size // 6 + 1))[:size]
            best = math.inf
            for _ in range(2):
                start = time.perf_counter()
                cparse.tokenize(text)
                best = min(best, time.perf_counter() - start)
            return best

        assert seconds(1_000_000) / seconds(250_000) < 8

    def test_nesting_at_the_limit_parses(self):
        depth = cparse.MAX_EXPR_NESTING
        expr = parse_expression("(" * depth + "x + 1" + ")" * depth)
        assert eval_expr(expr, {"x": 1}, {})[0] == 2

    def test_paper_style_guard(self):
        expr = parse_expression("i >= -5 && i <= 5")
        assert eval_expr(expr, {"i": 0}, {"i": INT})[0] == 1
        assert eval_expr(expr, {"i": 6}, {"i": INT})[0] == 0
