"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its runtime.  Dataset- and tool-dependent criteria skip visibly when
their environment is absent (set TERMEVAL_SVCOMP_ROOT to the benchmark
checkout and TERMEVAL_UAUTOMIZER_ROOT to the validator install to enable
them)."""

import itertools
import json
import math
import os
import random
import shutil
import time
from fractions import Fraction
from pathlib import Path

import pytest

from termeval import corpus as corpus_mod
from termeval.cparse import INT, parse_program
from termeval.evalcore import (
    CategoryAggregate, EvalConfig, PoolEntry, SampleOutcome, WitnessStatus,
    bootstrap_eval, classify_sample, pass_at_k, score_sample, svcomp_score,
)
from termeval.lasso import (
    BoundedEvidence, CheckerConfig, Infeasible, LassoPath, ProvenInfinite,
    ValidationStatus, ValidatorConfig, check_feasibility, extract_lasso,
    run_external_validator,
)
from termeval.precond import (
    Equivalent, EquivUnknown, Inequivalent, brute_equivalence,
    check_equivalence, find_solver, parse_precondition, smt_equivalence,
)
from termeval.witness import (
    Verdict, WitnessAutomaton, WitnessEdge, WitnessNode, witness_from_json,
)

from conftest import FIXTURES, load_program, load_witness_json
from reference import (
    BEST_CASE, WORST_CASE, aggregate_outcomes, consensus_of, eval_expr,
    f1_per_class, tts_consensus,
)
from test_precond import random_boolean_expr


class Criterion:
    def __init__(self, number: int, title: str, budget: float):
        self.number = number
        self.title = title
        self.budget = budget

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.title} "
              f"({elapsed:.2f}s, budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.2f}s)")
        return False


T, NT, UNK = Verdict.T, Verdict.NT, Verdict.UNK


# ---------------------------------------------------------------------------
# 1. Scoring table fidelity


def test_criterion_1_scoring_table():
    with Criterion(1, "per-sample scoring table", budget=1.0):
        assert score_sample(SampleOutcome.TN) == 2
        assert score_sample(SampleOutcome.TP_VALID) == 1
        assert score_sample(SampleOutcome.TP_INVALID) == 0
        assert score_sample(SampleOutcome.UNK) == 0
        assert score_sample(SampleOutcome.FP) == -16
        assert score_sample(SampleOutcome.FN) == -32

        statuses = (WitnessStatus.VALID, WitnessStatus.INVALID,
                    WitnessStatus.ABSENT)
        seen = set()
        for expected, predicted, status in itertools.product(
                (T, NT), (T, NT, UNK), statuses):
            outcome = classify_sample(expected, predicted, status)
            seen.add((expected, predicted, status, outcome))
            # mutual exclusion: the mapping is a function
            assert classify_sample(expected, predicted, status) is outcome
        assert len(seen) == 18
        # spot-check the table rows through classification
        assert classify_sample(T, T, WitnessStatus.ABSENT) is SampleOutcome.TN
        assert classify_sample(NT, NT, WitnessStatus.VALID) is \
            SampleOutcome.TP_VALID
        assert classify_sample(NT, NT, WitnessStatus.ABSENT) is \
            SampleOutcome.TP_INVALID
        assert classify_sample(T, NT, WitnessStatus.VALID) is SampleOutcome.FP
        assert classify_sample(NT, T, WitnessStatus.ABSENT) is SampleOutcome.FN


# ---------------------------------------------------------------------------
# 2. Category-weighted score vs. exact oracle


def test_criterion_2_score_formula_oracle():
    with Criterion(2, "weighted score matches exact-fraction oracle",
                   budget=5.0):
        rng = random.Random(0xE41)
        for _ in range(1000):
            k = rng.randint(1, 6)
            pairs = [(rng.randint(-32_000, 32_000), rng.randint(1, 2500))
                     for _ in range(k)]
            aggregates = [CategoryAggregate(f"c{i}", s, n)
                          for i, (s, n) in enumerate(pairs)]
            got = svcomp_score(aggregates)
            exact = (Fraction(1, k)
                     * sum(Fraction(s, n) for s, n in pairs)
                     * sum(n for _, n in pairs))
            if exact == 0:
                assert abs(got) < 1e-9
            else:
                assert abs(got - float(exact)) / abs(float(exact)) < 1e-12


# ---------------------------------------------------------------------------
# 3. Dataset-conditional bounds


def test_criterion_3_dataset_bounds():
    root = os.environ.get("TERMEVAL_SVCOMP_ROOT")
    if not root:
        print("[SKIP] criterion 3: dataset-conditional bounds "
              "(set TERMEVAL_SVCOMP_ROOT to the benchmark checkout)")
        pytest.skip("SV-COMP benchmark tree not available")
    with Criterion(3, "all-best 4,079 and all-worst -50,064 on the real "
                   "manifest", budget=600.0):
        load = corpus_mod.load_manifest(Path(root))
        manifest = load.manifest
        counts = {c.value: n for c, n in manifest.category_counts.items()}
        print(f"ingested {len(manifest.tasks)} tasks: {counts}; "
              f"labels {manifest.label_counts}")
        assert len(manifest.tasks) == 2328
        expected = {t.task_id: (T if t.expected_verdict == "T" else NT)
                    for t in manifest.tasks}
        categories = {t.task_id: t.category.value for t in manifest.tasks}
        best = {t: BEST_CASE[v] for t, v in expected.items()}
        worst = {t: WORST_CASE[v] for t, v in expected.items()}
        best_score = svcomp_score(aggregate_outcomes(best, categories))
        worst_score = svcomp_score(aggregate_outcomes(worst, categories))
        assert round(best_score) == 4079, best_score
        assert round(worst_score) == -50064, worst_score


# ---------------------------------------------------------------------------
# 4. Witness pipeline golden tests


WITNESS_PROGRAM_PAIRS = [
    ("even_spin.json", "even_spin.c"),
    ("absorb_to_zero.json", "absorb_to_zero.c"),
    ("absorb_to_zero_selfloop.json", "absorb_to_zero.c"),
    ("negate_keeps_positive.json", "negate_keeps_positive.c"),
    ("stall_correct.json", "stall_below_minus_five.c"),
]


def test_criterion_4_witness_pipeline():
    from termeval.witness import validate_schema
    with Criterion(4, "paper-figure witnesses validate and check feasible",
                   budget=10.0):
        cfg = CheckerConfig(nondet_domain=(-16, 16), bounded_cycle_target=500,
                            stall_steps=500)
        for witness_name, program_name in WITNESS_PROGRAM_PAIRS:
            data = load_witness_json(witness_name)["witness"]
            automaton = witness_from_json(data)
            assert validate_schema(automaton) == [], witness_name
            lasso = extract_lasso(automaton)
            assert isinstance(lasso, LassoPath), witness_name
            program = parse_program(load_program(program_name))
            result = check_feasibility(program, lasso, cfg)
            assert isinstance(result, (ProvenInfinite, BoundedEvidence)), \
                (witness_name, result)

        # single-field mutations must be rejected
        data = load_witness_json("even_spin.json")["witness"]
        data["edges"][1]["id"] = "E0"  # duplicate edge id
        assert validate_schema(witness_from_json(data)) != []
        data = load_witness_json("even_spin.json")["witness"]
        del data["edges"][2]["line"]
        assert validate_schema(witness_from_json(data)) != []


# ---------------------------------------------------------------------------
# 5. Internal checker soundness over generated programs


def make_drain_program(bound: int, step: int) -> str:
    """Terminates for every input: x strictly decreases toward the bound."""
    return (
        "extern int __VERIFIER_nondet_int(void);\n"
        "int main() {\n"
        "   int x;\n"
        "   x = __VERIFIER_nondet_int();\n"
        f"   while (x > {bound}) {{\n"
        f"      x = x - {step};\n"
        "   }\n"
        "   return 0;\n"
        "}\n")


def make_capped_count_program(step: int) -> str:
    """Terminates: nondet bound, counter strictly approaches it."""
    return (
        "extern int __VERIFIER_nondet_int(void);\n"
        "int main() {\n"
        "   int n;\n"
        "   int i;\n"
        "   n = __VERIFIER_nondet_int();\n"
        "   i = 0;\n"
        "   while (i < n) {\n"
        f"      i = i + {step};\n"
        "   }\n"
        "   return 0;\n"
        "}\n")


def make_sticky_program(bound: int, sticky: int) -> str:
    """Diverges for x > bound: x decreases until it sticks at `sticky`."""
    assert sticky > bound
    return (
        "extern int __VERIFIER_nondet_int(void);\n"
        "int main() {\n"
        "   int x;\n"
        "   x = __VERIFIER_nondet_int();\n"
        f"   while (x > {bound}) {{\n"
        f"      if (x > {sticky}) {{\n"
        "         x = x - 1;\n"
        "      }\n"
        "   }\n"
        "   return 0;\n"
        "}\n")


def make_parity_program(step: int) -> str:
    """Diverges for odd x: even steps preserve parity, so x never hits 0."""
    assert step % 2 == 0
    return (
        "extern int __VERIFIER_nondet_int(void);\n"
        "int main() {\n"
        "   int x;\n"
        "   x = __VERIFIER_nondet_int();\n"
        "   while (x != 0) {\n"
        f"      x = x - {step};\n"
        "   }\n"
        "   return 0;\n"
        "}\n")


def loop_witness(guard_line: int, body_line: int, nondet_line: int,
                 assumption: str | None = None) -> WitnessAutomaton:
    return WitnessAutomaton(
        nodes=(WitnessNode("N1", entry=True), WitnessNode("N2"),
               WitnessNode("N0", cyclehead=True), WitnessNode("N3")),
        edges=(
            WitnessEdge("E0", "N1", "N2", 3, "int x;"),
            WitnessEdge("E1", "N2", "N0", nondet_line, "x = nondet()",
                        enter_loop_head=True),
            WitnessEdge("E2", "N0", "N3", guard_line, "while",
                        control="condition-true", assumption=assumption),
            WitnessEdge("E3", "N3", "N0", body_line, "body",
                        enter_loop_head=True),
        ))


def test_criterion_5_checker_soundness():
    with Criterion(5, "no false infinity proofs, no false infeasibility",
                   budget=60.0):
        rng = random.Random(0x50F7)
        cfg = CheckerConfig(nondet_domain=(-8, 8), max_steps=20_000,
                            bounded_cycle_target=150, stall_steps=300)
        terminating = 0
        divergent = 0
        proofs = 0
        while terminating < 100 or divergent < 100:
            if terminating < 100:
                if rng.random() < 0.5:
                    source = make_drain_program(rng.randint(-6, 4),
                                                rng.randint(1, 3))
                    witness = loop_witness(5, 6, 4)
                else:
                    source = make_capped_count_program(rng.randint(1, 3))
                    witness = loop_witness(7, 8, 5)
                program = parse_program(source)
                result = check_feasibility(program, extract_lasso(witness), cfg)
                # a terminating program must never be proven infinite
                assert not isinstance(result, ProvenInfinite), source
                terminating += 1
            if divergent < 100:
                if rng.random() < 0.5:
                    bound = rng.randint(-6, 2)
                    sticky = bound + rng.randint(1, 4)
                    source = make_sticky_program(bound, sticky)
                    witness = loop_witness(5, 5, 4,
                                           assumption=f"x > {bound}")
                    satisfying = sticky  # stays inside the domain by design
                else:
                    source = make_parity_program(2 * rng.randint(1, 3))
                    witness = loop_witness(5, 6, 4)
                    satisfying = 1
                assert abs(satisfying) <= 8
                program = parse_program(source)
                result = check_feasibility(program, extract_lasso(witness), cfg)
                # a satisfying assignment exists inside the domain, so
                # infeasibility would be unsound
                assert not isinstance(result, Infeasible), source
                if isinstance(result, ProvenInfinite):
                    proofs += 1
                divergent += 1
        assert proofs > 0  # sticky loops admit genuine repetition proofs


# ---------------------------------------------------------------------------
# 6. Consensus behaviour vs. hypergeometric enumeration


def exact_answer_probabilities(n_t: int, n_nt: int, n_unk: int,
                               draw: int) -> dict[Verdict, Fraction]:
    """Chance of each consensus answer when ``draw`` votes are drawn without
    replacement from a pool of the given composition."""
    pool = n_t + n_nt + n_unk
    total = math.comb(pool, draw)
    p = {T: Fraction(0), NT: Fraction(0), UNK: Fraction(0)}
    for k_t in range(min(n_t, draw) + 1):
        for k_nt in range(min(n_nt, draw - k_t) + 1):
            k_unk = draw - k_t - k_nt
            if k_unk > n_unk:
                continue
            ways = (math.comb(n_t, k_t) * math.comb(n_nt, k_nt)
                    * math.comb(n_unk, k_unk))
            # both classes or neither: unknown
            answer = UNK if (k_t > 0) == (k_nt > 0) else T if k_t else NT
            p[answer] += Fraction(ways, total)
    return p


def exact_unknown_probability(n_t: int, n_nt: int, n_unk: int,
                              draw: int) -> float:
    return float(exact_answer_probabilities(n_t, n_nt, n_unk, draw)[UNK])


def bootstrap_pools(compositions: dict[str, tuple[Verdict, list[Verdict]]],
                    cfg: EvalConfig, mode: str):
    """``bootstrap_eval`` over one category of tasks, each given as
    (expected verdict, pool of votes without witnesses)."""
    pools = {task: [PoolEntry(v) for v in votes]
             for task, (_, votes) in compositions.items()}
    expected = {task: want for task, (want, _) in compositions.items()}
    return bootstrap_eval(pools, expected, dict.fromkeys(expected, "c"),
                          cfg, mode)


def test_criterion_6_tts_behaviour():
    with Criterion(6, "consensus draws match exact enumeration", budget=30.0):
        compositions = [(10, 10, 0), (17, 1, 2), (12, 6, 2), (6, 6, 8)]
        # the production bootstrap: 50,000 (run, task) draws per composition
        cfg = EvalConfig(pool_size=20, n_bootstrap=100, tts_n=10,
                         rng_seed=0x775)
        tasks = 500
        for n_t, n_nt, n_unk in compositions:
            votes = [T] * n_t + [NT] * n_nt + [UNK] * n_unk
            exact = exact_answer_probabilities(n_t, n_nt, n_unk, 10)
            tts = bootstrap_pools({f"t{i}": (T, votes) for i in range(tasks)},
                                  cfg, "tts")
            assert abs(tts.unk_fraction - exact_unknown_probability(
                n_t, n_nt, n_unk, 10)) < 0.02, (n_t, n_nt, n_unk)
            # every task expects T, so a T answer scores 2 and an NT answer
            # -16: the mean score gives the share of each answer
            points = sum(tts.per_run_scores) / (cfg.n_bootstrap * tasks)
            nt_share = (2 * (1 - tts.unk_fraction) - points) / 18
            t_share = 1 - tts.unk_fraction - nt_share
            assert abs(nt_share - exact[NT]) < 0.02, (n_t, n_nt, n_unk)
            assert abs(t_share - exact[T]) < 0.02, (n_t, n_nt, n_unk)

        # unanimity is deterministic regardless of the draw
        unanimous = {f"t{i}": (T, [T] * 20) for i in range(20)}
        unanimous.update({f"n{i}": (NT, [NT] * 15 + [UNK] * 5)
                          for i in range(20)})
        tts = bootstrap_pools(unanimous, cfg, "tts")
        assert tts.unk_fraction == 0
        assert set(tts.per_run_f1) == {(1.0, 1.0)}

        # the reference rule, drawn directly
        draws = 100_000
        rng = random.Random(0x775)
        for n_t, n_nt, n_unk in compositions:
            votes = [T] * n_t + [NT] * n_nt + [UNK] * n_unk
            exact = exact_unknown_probability(n_t, n_nt, n_unk, 10)
            unk = 0
            indices = range(20)
            for _ in range(draws):
                drawn = rng.sample(indices, 10)
                if consensus_of([votes[i] for i in drawn]) is UNK:
                    unk += 1
            assert abs(unk / draws - exact) < 0.02, (n_t, n_nt, n_unk)

        for _ in range(2000):
            assert tts_consensus([T] * 20, 10, rng) is T
            assert tts_consensus([NT] * 15 + [UNK] * 5, 10, rng) is NT


# ---------------------------------------------------------------------------
# 7. F1 conventions


def bootstrap_f1(pairs: list[tuple[Verdict, Verdict]], mode: str):
    """Per-class F1 of one bootstrap run over one-generation pools."""
    cfg = EvalConfig(pool_size=1, n_bootstrap=1, tts_n=1)
    result = bootstrap_pools(
        {f"t{i}": (want, [got]) for i, (want, got) in enumerate(pairs)},
        cfg, mode)
    f1_t, f1_nt = result.per_run_f1[0]
    return {"F1_T": f1_t, "F1_NT": f1_nt}


def test_criterion_7_f1_conventions():
    with Criterion(7, "F1 worked examples", budget=1.0):
        half = [(NT, NT)] * 5 + [(NT, UNK)] * 5
        nothing = [(T, UNK)] * 4 + [(NT, UNK)] * 6
        perfect = [(T, T)] * 4 + [(NT, NT)] * 6
        for mode in ("single", "tts"):
            assert bootstrap_f1(half, mode)["F1_NT"] == 2 / 3
            assert bootstrap_f1(nothing, mode) == {"F1_T": 0.0, "F1_NT": 0.0}
            assert bootstrap_f1(perfect, mode) == {"F1_T": 1.0, "F1_NT": 1.0}

        # the reference rule
        assert f1_per_class(half)["F1_NT"] == 2 / 3
        assert f1_per_class(nothing) == {"F1_T": 0.0, "F1_NT": 0.0}
        assert f1_per_class(perfect) == {"F1_T": 1.0, "F1_NT": 1.0}


# ---------------------------------------------------------------------------
# 8. Pass@k estimator vs. Monte-Carlo subset sampling


def test_criterion_8_pass_at_k():
    numpy = pytest.importorskip("numpy")
    with Criterion(8, "pass@k exact values and Monte-Carlo agreement",
                   budget=60.0):
        assert pass_at_k(10, 10, 1) == 1.0
        assert pass_at_k(10, 5, 1) == 0.5
        assert pass_at_k(10, 5, 3) == 1 - math.comb(5, 3) / math.comb(10, 3)
        assert abs(pass_at_k(10, 5, 3) - 11 / 12) < 1e-15

        rng = numpy.random.default_rng(0xA55)
        py_rng = random.Random(0xA55)
        trials = 1_000_000
        chunk = 200_000
        for _ in range(20):
            n = py_rng.randint(1, 25)
            c = py_rng.randint(0, n)
            k = py_rng.randint(1, n)
            hits = 0
            done = 0
            while done < trials:
                rows = min(chunk, trials - done)
                # sample a k-subset per row: the k smallest uniform draws
                scores = rng.random((rows, n))
                subset = numpy.argpartition(scores, k - 1, axis=1)[:, :k]
                hits += int((subset < c).any(axis=1).sum())
                done += rows
            estimate = hits / trials
            assert abs(estimate - pass_at_k(n, c, k)) < 0.005, (n, c, k)


# ---------------------------------------------------------------------------
# 9. Precondition equivalence


def test_criterion_9_precondition_equivalence():
    solver = find_solver()
    with Criterion(9, "precondition equivalence (brute"
                   + ("+smt" if solver else "-only") + ")", budget=120.0):
        xy = {"x": INT, "y": INT}
        ivar = {"i": INT}
        a = parse_precondition("x < 10 and y > -10")
        b = parse_precondition("x <= 9 and y >= -9")
        assert check_equivalence(a, b, xy, mode="brute") == Equivalent()

        wrong = parse_precondition("i = 0")
        right = parse_precondition("i >= -5 and i <= 5")
        result = check_equivalence(wrong, right, ivar, mode="brute")
        assert isinstance(result, Inequivalent)
        env = result.counterexample
        assert eval_expr(wrong, env, ivar)[0] != eval_expr(right, env, ivar)[0]

        rng = random.Random(0x9E9)
        box = (-12, 11)
        checked_smt = 0
        for _ in range(1000):
            left = random_boolean_expr(rng)
            right_expr = random_boolean_expr(rng)
            brute = brute_equivalence(left, right_expr, xy, box)
            flipped = brute_equivalence(right_expr, left, xy, box)
            assert type(brute) is type(flipped)
            if solver is not None and not isinstance(brute, EquivUnknown):
                smt = smt_equivalence(left, right_expr, xy, solver)
                if not isinstance(smt, EquivUnknown):
                    assert isinstance(brute, Equivalent) == \
                        isinstance(smt, Equivalent), (left, right_expr)
                    checked_smt += 1
        if solver is None:
            print("note: no SMT solver on PATH; criterion 9 ran brute-only")
        else:
            assert checked_smt > 500


# ---------------------------------------------------------------------------
# 10. Report determinism


def test_criterion_10_report_determinism(tmp_path):
    from click.testing import CliRunner
    from termeval.cli import main as cli_main
    with Criterion(10, "byte-identical score reports", budget=120.0):
        workspace = tmp_path
        shutil.copytree(FIXTURES / "corpus", workspace / "corpus")
        shutil.copytree(FIXTURES / "runs", workspace / "runs")
        shutil.copy(FIXTURES / "score_config.toml",
                    workspace / "score_config.toml")
        runner = CliRunner()
        snapshots = []
        for label in ("one", "two"):
            out = workspace / f"report_{label}"
            result = runner.invoke(cli_main, [
                "score", str(workspace / "runs" / "demo"),
                "-c", str(workspace / "score_config.toml"), "-o", str(out),
            ])
            assert result.exit_code == 0, result.output
            snapshots.append({
                name: (out / name).read_bytes()
                for name in ("report.json", "report.txt", "per_run_scores.csv")
            })
        assert snapshots[0] == snapshots[1]


# ---------------------------------------------------------------------------
# 11. External validator integration (environment-gated)


def test_criterion_11_external_validator(tmp_path):
    root = os.environ.get("TERMEVAL_UAUTOMIZER_ROOT")
    if not root or not (Path(root) / "Ultimate.py").exists():
        print("[SKIP] criterion 11: external validator integration "
              "(set TERMEVAL_UAUTOMIZER_ROOT to an UAutomizer install)")
        pytest.skip("external validator not installed")
    with Criterion(11, "emitted GraphML validates externally", budget=300.0):
        program_path = FIXTURES / "programs" / "absorb_to_zero.c"
        automaton = witness_from_json(
            load_witness_json("absorb_to_zero.json")["witness"])
        property_path = tmp_path / "termination.prp"
        property_path.write_text("CHECK( init(main()), LTL(F end) )\n")
        cfg = ValidatorConfig(validator_root=Path(root), timeout=280.0)
        result = run_external_validator(automaton, program_path, "32bit",
                                        property_path, cfg)
        assert result.status is ValidationStatus.VALIDATED, result.output
