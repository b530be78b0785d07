"""Differential check of the expression evaluator against compiled C.

gcc -fwrapv pins two's-complement wraparound for signed add/sub/mul, which
is exactly the declared evaluation model, so a real compiler serves as an
independent oracle for the arithmetic the feasibility checker and the
precondition backends rely on.  Division corner cases that stay undefined
even under -fwrapv (divide by zero, INT_MIN / -1) are filtered out.
"""

import random
import shutil
import subprocess

import pytest

from termeval import cparse, precond
from termeval.cparse import (
    INT, LONG, Binary, EvalUndefined, Unary, parse_expression, wrap,
)

from reference import eval_expr

pytestmark = pytest.mark.skipif(shutil.which("gcc") is None,
                                reason="gcc not available")

INT_MIN = -(2**31)

OPS = ["+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=",
       "&", "|", "^", "&&", "||"]


def random_expression(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.4:
            return rng.choice(["x", "y"])
        if choice < 0.8:
            return str(rng.randint(-100, 100))
        return rng.choice(["-2147483647", "2147483647", "65536"])
    op = rng.choice(OPS)
    left = random_expression(rng, depth - 1)
    right = random_expression(rng, depth - 1)
    if rng.random() < 0.2:
        left = f"{rng.choice(['-', '~', '!'])}({left})"
    return f"({left} {op} {right})"


def _div_corners_hit(text: str, env: dict[str, int]) -> bool:
    """Conservatively detect divisions whose C behaviour stays undefined."""
    expr = parse_expression(text)

    from termeval.cparse import Binary, Unary

    def walk(node) -> bool:
        if isinstance(node, Binary):
            if node.op in ("/", "%"):
                try:
                    divisor, _ = eval_expr(node.right, env, {"x": INT, "y": INT})
                    dividend, _ = eval_expr(node.left, env, {"x": INT, "y": INT})
                except EvalUndefined:
                    return True
                if divisor == 0 or (dividend == INT_MIN and divisor == -1):
                    return True
            return walk(node.left) or walk(node.right)
        if isinstance(node, Unary):
            return walk(node.operand)
        return False

    return walk(expr)


@pytest.fixture(scope="module")
def compiled_evaluator(tmp_path_factory):
    """One compiled binary evaluating expressions read from generated C."""
    def compile_and_run(expressions, envs):
        tmp = tmp_path_factory.mktemp("cdiff")
        lines = ["#include <stdio.h>", "int main(void) {"]
        for i, (text, env) in enumerate(zip(expressions, envs)):
            lines.append("  {")
            lines.append(f"    int x = {env['x']}; int y = {env['y']};")
            lines.append(f'    printf("%d\\n", (int)({text}));')
            lines.append("  }")
        lines.append("  return 0;")
        lines.append("}")
        source = tmp / "expr.c"
        source.write_text("\n".join(lines) + "\n")
        binary = tmp / "expr"
        subprocess.run(["gcc", "-fwrapv", "-O0", "-o", str(binary),
                        str(source)], check=True, capture_output=True)
        out = subprocess.run([str(binary)], check=True, capture_output=True,
                             text=True)
        return [int(v) for v in out.stdout.split()]

    return compile_and_run


def test_expression_evaluator_matches_gcc(compiled_evaluator):
    rng = random.Random(0xC0DE)
    expressions = []
    envs = []
    expected = []
    while len(expressions) < 150:
        text = random_expression(rng, 3)
        env = {"x": rng.randint(INT_MIN, 2**31 - 1),
               "y": rng.randint(-200, 200)}
        try:
            if _div_corners_hit(text, env):
                continue
            value, ctype = eval_expr(parse_expression(text), env,
                                     {"x": INT, "y": INT})
        except EvalUndefined:
            continue
        # the C driver casts to int, so pre-wrap wide results the same way
        from termeval.cparse import wrap
        expressions.append(text)
        envs.append(env)
        expected.append(wrap(value, INT))
    got = compiled_evaluator(expressions, envs)
    mismatches = [
        (expressions[i], envs[i], expected[i], got[i])
        for i in range(len(expected)) if expected[i] != got[i]
    ]
    assert not mismatches, mismatches[:3]


TYPED_VARS = {"x": "INT", "u": "UINT", "c": "CHAR", "uc": "UCHAR",
              "s": "SHORT", "us": "USHORT", "l": "LONG", "ul": "ULONG"}
TYPED_LITERALS = ["0", "1", "7", "-3", "255", "65535", "2147483647",
                  "4294967295u", "1l", "3000000000", "0x80000000", "100u",
                  "010", "0777u", "020000000000"]
TYPED_OPS = ["+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=",
             "&", "|", "^", "&&", "||"]


def random_typed_expression(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return rng.choice(sorted(TYPED_VARS))
        return rng.choice(TYPED_LITERALS)
    text = (f"({random_typed_expression(rng, depth - 1)} {rng.choice(TYPED_OPS)} "
            f"{random_typed_expression(rng, depth - 1)})")
    if rng.random() < 0.2:
        text = f"{rng.choice(['-', '~', '!'])}{text}"
    return text


def _undefined_division(node, env, types) -> bool:
    """C leaves x / 0 and MIN / -1 undefined even under -fwrapv."""
    if isinstance(node, Unary):
        return _undefined_division(node.operand, env, types)
    if not isinstance(node, Binary):
        return False
    if node.op in ("/", "%"):
        left, left_type = eval_expr(node.left, env, types)
        right, right_type = eval_expr(node.right, env, types)
        t = cparse.usual_arithmetic_type(left_type, right_type)
        dividend, divisor = wrap(left, t), wrap(right, t)
        if divisor == 0 or (t.signed and dividend == t.min
                            and divisor == -1):
            return True
    return (_undefined_division(node.left, env, types)
            or _undefined_division(node.right, env, types))


def _c_literal(value: int) -> str:
    """``value`` as a C constant of at least 64 bits."""
    if value == LONG.min:
        return f"({value + 1}L - 1)"
    return f"{value}UL" if value > LONG.max else f"{value}L"


def _run_c_cases(tmp_path, name, cases, types) -> list[int]:
    """Compile one program printing each case's ``(long long)(text)`` with
    its variables declared at their types; returns the printed values."""
    lines = ["#include <stdio.h>", "int main(void) {"]
    for text, env, _ in cases:
        decls = " ".join(f"{types[n].name} {n} = {_c_literal(v)};"
                         for n, v in env.items())
        lines.append(f"  {{ {decls} printf(\"%lld\\n\", (long long)({text})); }}")
    lines += ["  return 0;", "}"]
    source = tmp_path / f"{name}.c"
    source.write_text("\n".join(lines) + "\n")
    binary = tmp_path / name
    subprocess.run(["gcc", "-fwrapv", "-O0", "-o", str(binary), str(source)],
                   check=True, capture_output=True)
    out = subprocess.run([str(binary)], check=True, capture_output=True,
                         text=True)
    return [int(v) for v in out.stdout.split()]


def test_typed_expression_evaluator_matches_gcc(tmp_path):
    """Conversions between char, short, unsigned and long operands, and the
    unsigned division and comparison they lead to, against gcc."""
    types = {name: getattr(cparse, t) for name, t in TYPED_VARS.items()}

    rng = random.Random(0x7E5)
    # every operator on every pair of types, once with the largest dividend
    # over 1 and once at random, then random nestings
    largest = {name: t.max for name, t in types.items()}
    queue = [(f"({a} {op} {b})", env) for a in TYPED_VARS for b in TYPED_VARS
             for op in ("/", "%", "<", "-", "*")
             for env in ({**largest, b: 1}, None)]
    cases = []
    while len(cases) < 1200:
        text, env = (queue.pop() if queue
                     else (random_typed_expression(rng, 3), None))
        env = env or {name: rng.choice([rng.randint(t.min, t.max), t.min,
                                        t.max, 0, 1, 2, max(t.min, -2)])
                      for name, t in types.items()}
        expr = parse_expression(text)
        try:
            if _undefined_division(expr, env, types):
                continue
            value, _ = eval_expr(expr, env, types)
        except EvalUndefined:
            continue
        cases.append((text, env, wrap(value, cparse.LONG)))

    got = _run_c_cases(tmp_path, "typed", cases, types)
    mismatches = [(text, env, want, have)
                  for (text, env, want), have in zip(cases, got) if want != have]
    assert len(got) == len(cases) and not mismatches, mismatches[:3]


CONSTANT_LEFT = ["-1", "0", "1", "-129", "127", "128", "65535", "2147483647",
                 "4294967295", "0x80000000", "100u", "-3000000000"]
COMPARISONS = ["<", "<=", ">", ">=", "==", "!="]


def test_constant_left_comparisons_match_gcc(tmp_path):
    """``c op v``, evaluated as ``v flip(op) c``, with every variable at its
    type's extremes and constants of every signedness; and ``!v`` on the
    narrow and unsigned variables."""
    types = {name: getattr(cparse, t) for name, t in TYPED_VARS.items()}
    cases = []
    for name, t in types.items():
        for value in sorted({t.min, t.min + 1, -1 if t.signed else 1, 0,
                             t.max - 1, t.max}):
            env = {name: value}
            texts = [f"{c} {op} {name}" for c in CONSTANT_LEFT
                     for op in COMPARISONS] + [f"!{name}"]
            for text in texts:
                value_of, _ = eval_expr(parse_expression(text), env, types)
                cases.append((text, env, value_of))
    assert {"-1 < u", "4294967295 == u", "-129 < c", "0 > l", "!c", "!s",
            "!u"} <= {text for text, _, _ in cases}

    got = _run_c_cases(tmp_path, "constant_left", cases, types)
    mismatches = [(text, env, want, have)
                  for (text, env, want), have in zip(cases, got) if want != have]
    assert len(got) == len(cases) and not mismatches, mismatches[:3]


NONDET_HARNESS = """\
#include <sys/time.h>
#include <stdlib.h>
static int VALUES[] = {%s};
static unsigned POS = 0;
int __VERIFIER_nondet_int(void) { return VALUES[POS++]; }
__attribute__((constructor)) static void arm_timer(void) {
  struct itimerval t = {{0, 0}, {0, 150000}};  /* 150 ms then SIGALRM */
  setitimer(ITIMER_REAL, &t, 0);
}
"""


def test_simulator_termination_matches_gcc(tmp_path):
    """The interpreter and a compiled binary must agree on whether each
    (program, input) pair halts."""
    from termeval.cparse import parse_program
    from termeval.lasso import run_program
    from test_acceptance import (make_drain_program, make_parity_program,
                                 make_sticky_program)

    rng = random.Random(0x51CA)
    cases = []
    for _ in range(8):
        cases.append(make_drain_program(rng.randint(-6, 4), rng.randint(1, 3)))
        cases.append(make_sticky_program(-3, rng.randint(-2, 2)))
        cases.append(make_parity_program(2 * rng.randint(1, 3)))

    agreements = 0
    for index, source in enumerate(cases):
        program = parse_program(source)
        value = rng.randint(-10, 10)
        site = f"{program.nondet_vars[0].name}@{program.nondet_vars[0].line}"
        state, _ = run_program(program, {site: value}, max_steps=100_000)
        if state == "undefined":
            continue

        # strip the extern declaration: the harness defines the function
        body = "\n".join(line for line in source.splitlines()
                         if not line.startswith("extern"))
        c_file = tmp_path / f"case{index}.c"
        c_file.write_text((NONDET_HARNESS % value) + body + "\n")
        binary = tmp_path / f"case{index}"
        subprocess.run(["gcc", "-fwrapv", "-O0", "-o", str(binary),
                        str(c_file)], check=True, capture_output=True)
        proc = subprocess.run([str(binary)], timeout=10, capture_output=True)
        gcc_terminated = proc.returncode == 0  # SIGALRM otherwise
        assert (state == "terminated") == gcc_terminated, (source, value)
        agreements += 1
    assert agreements >= 20


STORE_VARS = ["x", "c", "s", "u"]  # int, signed char, short, unsigned
COMPOUND_OPS = ["+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="]


def random_store(rng: random.Random, op: str) -> str:
    """One store statement (without ``;``) into a random variable.  Divisors
    and shift counts are small positive constants, so no store is undefined
    under gcc -fwrapv."""
    var = rng.choice(STORE_VARS)
    if op in ("++", "--"):
        return f"{var}{op}"
    if op in ("/=", "%="):
        return f"{var} {op} {rng.randint(1, 7)}"
    if op in ("<<=", ">>="):
        return f"{var} {op} {rng.randint(0, 7)}"
    rhs = rng.choice([str(rng.randint(-9, 99)), rng.choice(STORE_VARS),
                      f"({rng.choice(STORE_VARS)} {rng.choice('+-*&|^')} "
                      f"{rng.randint(-9, 99)})"])
    return f"{var} {op} {rhs}"


def random_statement(rng: random.Random, op: str) -> str:
    """A store in one of the statement shapes: plain, nested block, after an
    empty statement, as a brace-less if/else or for body, or beside an empty
    for and while."""
    store = random_store(rng, op)
    other = random_store(rng, rng.choice(COMPOUND_OPS + ["=", "++", "--"]))
    n = rng.randint(0, 3)
    return rng.choice([
        f"{store};",
        f"{{ {store}; {{ {other}; }} }}",
        f"; {store};",
        f"if (x > {rng.randint(-50, 50)}) {store}; else {other};",
        f"for (i = 0; i < {n}; i++) {store};",
        f"for (i = 0; i < {n}; i++); while (i < {n}); {store};",
    ])


def test_stores_and_statement_shapes_match_gcc(tmp_path):
    """Compound assignments, ``++``/``--`` and narrow stores in every
    statement shape leave ``x`` where gcc leaves it: the program followed
    by ``while (x != K);`` ends under the interpreter exactly when K is the
    value gcc prints."""
    from termeval.cparse import parse_program
    from termeval.lasso import run_program

    rng = random.Random(0x5705)
    ops = COMPOUND_OPS + ["=", "++", "--"]
    bodies = []
    for _ in range(24):
        lines = [f"int x = {rng.randint(-300, 300)};",
                 f"signed char c = {rng.randint(-128, 127)};",
                 f"short s = {rng.randint(-32768, 32767)};",
                 f"unsigned u = {rng.randint(0, 4294967295)}u;",
                 "int i = 0;"]
        # every operator in every program, in a random order
        lines += [random_statement(rng, op) for op in rng.sample(ops, len(ops))]
        lines.append("x = x + c + s + u;")
        bodies.append("\n  ".join(lines))

    c_lines = ["#include <stdio.h>"]
    for k, body in enumerate(bodies):
        c_lines.append(f"static int prog{k}(void) {{\n  {body}\n  return x;\n}}")
    c_lines.append("int main(void) {")
    c_lines += [f'  printf("%d\\n", prog{k}());' for k in range(len(bodies))]
    c_lines += ["  return 0;", "}"]
    c_file = tmp_path / "stores.c"
    c_file.write_text("\n".join(c_lines) + "\n")
    binary = tmp_path / "stores"
    subprocess.run(["gcc", "-fwrapv", "-O0", "-o", str(binary), str(c_file)],
                   check=True, capture_output=True)
    out = subprocess.run([str(binary)], check=True, capture_output=True,
                         text=True)
    finals = [int(v) for v in out.stdout.split()]
    assert len(finals) == len(bodies)

    for body, final in zip(bodies, finals):
        for k in (final, final ^ 1, final // 2 + 1):
            program = parse_program(f"int main() {{\n  {body}\n"
                                    f"  while (x != {k});\n  return 0;\n}}\n")
            state, _ = run_program(program, {}, max_steps=20_000)
            assert state == ("terminated" if k == final else "running"), \
                (body, final, k)


def test_precondition_arith_matches_gcc(compiled_evaluator):
    rng = random.Random(0xD1FF)
    expressions = []
    envs = []
    expected = []
    while len(expressions) < 80:
        # precondition arithmetic subset: + - * / % over two variables
        def arith(depth):
            if depth == 0 or rng.random() < 0.4:
                return rng.choice(["x", "y", str(rng.randint(-50, 50))])
            op = rng.choice(["+", "-", "*", "/", "%"])
            return f"({arith(depth - 1)} {op} {arith(depth - 1)})"

        text = arith(3)
        env = {"x": rng.randint(-1000, 1000), "y": rng.randint(-1000, 1000)}
        try:
            if _div_corners_hit(text, env):
                continue
            parsed = precond.parse_precondition(f"({text}) == 0")
            value, _ = eval_expr(parsed.left, env, {"x": INT, "y": INT})
        except (EvalUndefined, precond.PrecondParseError):
            continue
        expressions.append(text)
        envs.append(env)
        expected.append(wrap(value, INT))
    got = compiled_evaluator(expressions, envs)
    assert expected == got


PRECOND_VARS = {"x": "INT", "u": "UINT", "c": "CHAR", "uc": "UCHAR",
                "s": "SHORT", "us": "USHORT", "l": "LONG"}
PRECOND_LITERALS = ["0", "1", "7", "255", "65535", "2147483647",
                    "2147483648", "4294967295", "4294967296",
                    "9223372036854775807", "010", "020000000000"]


def random_precondition_term(rng: random.Random, depth: int) -> str:
    """Arithmetic, written the same way in a precondition and in C."""
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.55:
            return rng.choice(sorted(PRECOND_VARS))
        return rng.choice(PRECOND_LITERALS)
    if rng.random() < 0.15:
        return f"-({random_precondition_term(rng, depth - 1)})"
    return (f"({random_precondition_term(rng, depth - 1)} "
            f"{rng.choice('+-*/%')} {random_precondition_term(rng, depth - 1)})")


def random_precondition(rng: random.Random, depth: int) -> tuple[str, str]:
    """A formula in the forgiving precondition syntax and the same formula
    in C, written independently of the precondition parser."""
    if depth == 0 or rng.random() < 0.35:
        op = rng.choice(["<", "<=", ">", ">=", "==", "!=", "="])
        left = random_precondition_term(rng, 2)
        right = random_precondition_term(rng, 2)
        return (f"{left} {op} {right}",
                f"({left} {'==' if op == '=' else op} {right})")
    if rng.random() < 0.2:
        text, c_text = random_precondition(rng, depth - 1)
        return f"not ({text})", f"!({c_text})"
    op, c_op = rng.choice([("and", "&&"), ("or", "||"), ("&&", "&&"),
                           ("OR", "||")])
    (lt, lc), (rt, rc) = (random_precondition(rng, depth - 1),
                          random_precondition(rng, depth - 1))
    return f"({lt} {op} {rt})", f"({lc} {c_op} {rc})"


def test_precondition_comparisons_match_gcc(tmp_path):
    """Preconditions over signed, unsigned, narrow and 64-bit variables, with
    literals too wide for int, against gcc: the front end must lower each
    formula to the conversions C applies, unsigned char and unsigned short
    promoting to int."""
    types = {name: getattr(cparse, t) for name, t in PRECOND_VARS.items()}
    rng = random.Random(0x93EC)
    # every mixed subtraction and every variable against every literal
    # first, then random formulas
    queue = [(f"{a} - {b} < 0", f"({a} - {b} < 0)")
             for a in PRECOND_VARS for b in PRECOND_VARS]
    queue += [(f"{a} <= -{k} or {a} = {k}", f"({a} <= -{k} || {a} == {k})")
              for a in PRECOND_VARS for k in PRECOND_LITERALS]
    cases = []
    while len(cases) < 900:
        text, c_text = queue.pop() if queue else random_precondition(rng, 2)
        env = {name: rng.choice([rng.randint(t.min, t.max), t.min, t.max,
                                 0, 1, 2, max(t.min, -2)])
               for name, t in types.items()}
        expr = precond.parse_precondition(text, set(types))
        try:
            if _undefined_division(expr, env, types):
                continue
            value, _ = eval_expr(expr, env, types)
        except EvalUndefined:
            continue
        cases.append((c_text, env, value))
    got = _run_c_cases(tmp_path, "precond", cases, types)
    mismatches = [(text, env, want, have)
                  for (text, env, want), have in zip(cases, got) if want != have]
    assert len(got) == len(cases) and not mismatches, mismatches[:3]
    assert 0 < sum(got) < len(got)


NARROW_HARNESS = """\
#include <sys/time.h>
#include <stdlib.h>
static int VALUE;
int __VERIFIER_nondet_int(void) { return VALUE; }
__attribute__((constructor)) static void arm(void) {
  struct itimerval t = {{0, 0}, {0, 150000}};  /* 150 ms then SIGALRM */
  VALUE = atoi(getenv("NONDET"));
  setitimer(ITIMER_REAL, &t, 0);
}
"""

# Loop guards that depend on wraparound at the declared width.  Every loop
# either ends within a few thousand steps or provably never ends, so the
# step budget and the timer agree with the true answer.
NARROW_LOOPS = {
    "unsigned char": "unsigned char c = n;\n  while (c != 0) {{ c = c + {k}; }}",
    "char": "char c = n;\n  while (c != 0) {{ c = c + {k}; }}",
    "char declaration": "char c = n;\n  while (c != n) {{ c = c + 0; }}",
    "signed char": "signed char c = n;\n  while (c > 0) {{ c = c + {k}; }}",
    "short": "short s = n;\n  while (s > 0) {{ s = s + {k}00; }}",
    "unsigned short":
        "unsigned short u = n;\n  while (u > 1000) {{ u = u + {k}00; }}",
    "unsigned int":
        "unsigned int u = n;\n  while (u > 2147483647u) {{ u = u + {k}; }}",
    "unsigned int shift": "unsigned int u = n;\n  while (u >= 3) {{ u = u << {k}; }}",
    "long": "long l = n;\n  int i = n;\n"
            "  while (l == i) {{ l = l + 2147483647; i = i + 2147483647; }}",
}


def test_narrow_and_unsigned_wraparound_matches_gcc(tmp_path):
    """Termination of loops on char, short, unsigned and long variables
    must agree with gcc -fwrapv: the wraps on declaration and assignment
    decide when each guard fails."""
    from termeval.cparse import parse_program
    from termeval.lasso import run_program

    rng = random.Random(0x3A77)
    outcomes = {}
    for kind, loop in sorted(NARROW_LOOPS.items()):
        for k in (1, 2, 3):
            source = ("extern int __VERIFIER_nondet_int(void);\n"
                      "int main() {\n  int n = __VERIFIER_nondet_int();\n  "
                      + loop.format(k=k) + "\n  return 0;\n}\n")
            program = parse_program(source)
            binary = tmp_path / f"narrow{len(outcomes)}"
            c_file = binary.with_suffix(".c")
            c_file.write_text(NARROW_HARNESS + source.split("\n", 1)[1])
            subprocess.run(["gcc", "-fwrapv", "-O0", "-o", str(binary),
                            str(c_file)], check=True, capture_output=True)
            for n in [rng.randint(-300, 300) for _ in range(4)] + [-1, 255]:
                if kind == "unsigned int" and not -3000 <= n < 0:
                    n = -rng.randint(1, 3000)  # ends where u wraps to 0
                state, _ = run_program(program, {"n@3": n}, max_steps=100_000)
                proc = subprocess.run([str(binary)], timeout=10,
                                      capture_output=True,
                                      env={"NONDET": str(n)})
                gcc_terminated = proc.returncode == 0  # SIGALRM otherwise
                assert state != "undefined", (source, n)
                assert (state == "terminated") == gcc_terminated, (source, n)
                outcomes.setdefault(kind, set()).add(state)
    assert outcomes.keys() == NARROW_LOOPS.keys()
    # both answers occur, so the wraps decide something
    assert set.union(*outcomes.values()) == {"terminated", "running"}
