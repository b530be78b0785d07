import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from termeval.corpus import LengthBinning
from termeval.evalcore import (
    CategoryAggregate, ConfusionCounts, EvalConfig, PoolEntry, SampleOutcome,
    WitnessStatus, bootstrap_eval, classify_sample, pass_at_k,
    score_by_length_bin, score_sample, svcomp_score, task_rng, unknown_rates,
    witness_metrics,
)
from termeval.witness import Verdict

from reference import (
    BEST_CASE, WORST_CASE, aggregate_outcomes, consensus_of, f1_per_class,
    tts_consensus,
)

T, NT, UNK = Verdict.T, Verdict.NT, Verdict.UNK
VALID, INVALID, ABSENT = (WitnessStatus.VALID, WitnessStatus.INVALID,
                          WitnessStatus.ABSENT)


class TestClassification:
    def test_correct_termination(self):
        assert classify_sample(T, T, ABSENT) is SampleOutcome.TN

    def test_correct_nt_valid_witness(self):
        assert classify_sample(NT, NT, VALID) is SampleOutcome.TP_VALID

    def test_correct_nt_invalid_witness(self):
        assert classify_sample(NT, NT, INVALID) is SampleOutcome.TP_INVALID
        assert classify_sample(NT, NT, ABSENT) is SampleOutcome.TP_INVALID

    def test_incorrect_nt(self):
        assert classify_sample(T, NT, VALID) is SampleOutcome.FP
        assert classify_sample(T, NT, ABSENT) is SampleOutcome.FP

    def test_incorrect_termination(self):
        assert classify_sample(NT, T, ABSENT) is SampleOutcome.FN

    def test_unknown(self):
        assert classify_sample(T, UNK, ABSENT) is SampleOutcome.UNK
        assert classify_sample(NT, UNK, ABSENT) is SampleOutcome.UNK

    def test_total_and_exclusive_over_all_triples(self):
        # 2 expected x 3 predicted x 3 witness status = 18 combinations
        for expected in (T, NT):
            for predicted in (T, NT, UNK):
                for status in (VALID, INVALID, ABSENT):
                    outcome = classify_sample(expected, predicted, status)
                    assert isinstance(outcome, SampleOutcome)

    def test_unk_expected_rejected(self):
        with pytest.raises(ValueError):
            classify_sample(UNK, T, ABSENT)


class TestScores:
    def test_score_table(self):
        assert score_sample(SampleOutcome.TN) == 2
        assert score_sample(SampleOutcome.TP_VALID) == 1
        assert score_sample(SampleOutcome.TP_INVALID) == 0
        assert score_sample(SampleOutcome.UNK) == 0
        assert score_sample(SampleOutcome.FP) == -16
        assert score_sample(SampleOutcome.FN) == -32

    def test_single_category_reduces_to_total(self):
        assert svcomp_score([CategoryAggregate("A", 10, 5)]) == 10

    def test_two_categories_hand_evaluated(self):
        aggs = [CategoryAggregate("A", 4, 2), CategoryAggregate("B", 3, 3)]
        assert svcomp_score(aggs) == pytest.approx(7.5)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            svcomp_score([])

    def test_zero_samples_error(self):
        with pytest.raises(ValueError):
            svcomp_score([CategoryAggregate("A", 0, 0)])

    @given(st.lists(
        st.tuples(st.integers(-3200, 3200), st.integers(1, 500)),
        min_size=1, max_size=6))
    def test_against_exact_fraction_oracle(self, pairs):
        aggs = [CategoryAggregate(f"c{i}", s, n)
                for i, (s, n) in enumerate(pairs)]
        got = svcomp_score(aggs)
        k = len(pairs)
        exact = (Fraction(1, k) * sum(Fraction(s, n) for s, n in pairs)
                 * sum(n for _, n in pairs))
        assert math.isclose(got, float(exact), rel_tol=1e-12, abs_tol=1e-9)

    @given(st.lists(
        st.tuples(st.integers(-3200, 3200), st.integers(1, 500)),
        min_size=1, max_size=6), st.randoms())
    def test_permutation_invariant(self, pairs, rnd):
        aggs = [CategoryAggregate(f"c{i}", s, n)
                for i, (s, n) in enumerate(pairs)]
        shuffled = list(aggs)
        rnd.shuffle(shuffled)
        assert svcomp_score(aggs) == pytest.approx(svcomp_score(shuffled))

    def test_linear_in_each_category_sum(self):
        base = [CategoryAggregate("A", 4, 2), CategoryAggregate("B", 3, 3)]
        bumped = [CategoryAggregate("A", 8, 2), CategoryAggregate("B", 3, 3)]
        n_total = 5
        expected_delta = (1 / 2) * (4 / 2) * n_total
        assert svcomp_score(bumped) - svcomp_score(base) == \
            pytest.approx(expected_delta)


class TestConsensus:
    def test_unanimous(self):
        rng = random.Random(1)
        assert tts_consensus([T] * 20, 10, rng) is T
        assert tts_consensus([NT] * 20, 10, rng) is NT

    def test_disagreement_is_unknown(self):
        assert consensus_of([T, NT, T]) is UNK

    def test_unknowns_ignored(self):
        assert consensus_of([T, UNK, T, UNK]) is T

    def test_all_unknown(self):
        rng = random.Random(5)
        assert tts_consensus([UNK] * 20, 10, rng) is UNK

    def test_draw_too_large(self):
        with pytest.raises(ValueError):
            tts_consensus([T] * 5, 10, random.Random(0))

    def test_mixed_pool_mostly_unknown(self):
        # 10 T + 10 NT: only 2 of C(20,10) draws are unanimous
        rng = random.Random(99)
        votes = [T] * 10 + [NT] * 10
        unk = sum(tts_consensus(votes, 10, rng) is UNK for _ in range(2000))
        assert unk >= 1995

    def test_vote_duplication_extremes(self):
        # unanimous pools stay unanimous, fully mixed pools stay mixed,
        # under doubling votes and draw size
        rng = random.Random(3)
        assert tts_consensus([T] * 40, 20, rng) is T
        votes = ([T] * 20 + [NT] * 20)
        results = {tts_consensus(votes, 20, random.Random(i))
                   for i in range(200)}
        assert results == {UNK}


def entry(verdict, status=ABSENT):
    return PoolEntry(verdict, status)


class TestBootstrap:
    CATS = {"a": "X", "b": "Y"}
    EXPECTED = {"a": T, "b": NT}

    def test_identical_pool_zero_std(self):
        pools = {"a": [entry(T)] * 4, "b": [entry(NT, VALID)] * 4}
        cfg = EvalConfig(pool_size=4, n_bootstrap=50, tts_n=2, rng_seed=7)
        for mode in ("single", "tts"):
            result = bootstrap_eval(pools, self.EXPECTED, self.CATS, cfg, mode)
            assert result.scores.std == 0.0
            # TN on a (score 2, n 1) and TP_valid on b (score 1, n 1):
            # (1/2)*(2/1 + 1/1)*2 = 3
            assert result.scores.mean == pytest.approx(3.0)

    def test_seeded_determinism(self):
        pools = {"a": [entry(T), entry(NT), entry(UNK)],
                 "b": [entry(NT, VALID), entry(T), entry(NT, INVALID)]}
        cfg = EvalConfig(pool_size=3, n_bootstrap=40, tts_n=2, rng_seed=123)
        first = bootstrap_eval(pools, self.EXPECTED, self.CATS, cfg, "single")
        second = bootstrap_eval(pools, self.EXPECTED, self.CATS, cfg, "single")
        assert first.per_run_scores == second.per_run_scores

    def test_missing_pool_is_error(self):
        cfg = EvalConfig(pool_size=3, n_bootstrap=5, tts_n=2, rng_seed=1)
        with pytest.raises(ValueError, match="b"):
            bootstrap_eval({"a": [entry(T)] * 3}, self.EXPECTED, self.CATS,
                           cfg, "single")

    def test_wrong_pool_size_is_error(self):
        cfg = EvalConfig(pool_size=3, n_bootstrap=5, tts_n=2, rng_seed=1)
        pools = {"a": [entry(T)] * 3, "b": [entry(NT)] * 2}
        with pytest.raises(ValueError, match="expected 3"):
            bootstrap_eval(pools, self.EXPECTED, self.CATS, cfg, "single")

    def test_single_mode_mean_matches_exhaustive_enumeration(self):
        # tiny pools: every (draw_a, draw_b) combination is equally likely,
        # so the expected score is the average over all 3 x 3 combos
        pools = {"a": [entry(T), entry(NT), entry(UNK)],
                 "b": [entry(NT, VALID), entry(T), entry(NT, INVALID)]}
        combos = []
        for ea, eb in itertools.product(pools["a"], pools["b"]):
            outcomes = {
                "a": classify_sample(T, ea.verdict, ea.witness_status),
                "b": classify_sample(NT, eb.verdict, eb.witness_status),
            }
            combos.append(svcomp_score(aggregate_outcomes(outcomes, self.CATS)))
        exact_mean = sum(combos) / len(combos)
        exact_var = sum((c - exact_mean) ** 2 for c in combos) / len(combos)

        cfg = EvalConfig(pool_size=3, n_bootstrap=4000, tts_n=2, rng_seed=11)
        result = bootstrap_eval(pools, self.EXPECTED, self.CATS, cfg, "single")
        margin = 5 * math.sqrt(exact_var / cfg.n_bootstrap)
        assert abs(result.scores.mean - exact_mean) < margin

    def test_tts_mode_mean_matches_exhaustive_enumeration(self):
        # pool 3, draw 2: each task has C(3,2) = 3 equally likely draws;
        # enumerate all 3 x 3 outcomes of the consensus rule by hand
        pools = {"a": [entry(T), entry(T), entry(UNK)],
                 "b": [entry(NT, VALID), entry(NT, INVALID), entry(T)]}
        draw_indices = list(itertools.combinations(range(3), 2))
        per_task_scores = {}
        for task, expected in self.EXPECTED.items():
            scores = []
            for picks in draw_indices:
                drawn = [pools[task][i] for i in picks]
                verdict = consensus_of([e.verdict for e in drawn])
                status = ABSENT
                if verdict is NT:
                    status = VALID if any(
                        e.verdict is NT and e.witness_status is VALID
                        for e in drawn) else INVALID
                scores.append(score_sample(
                    classify_sample(expected, verdict, status)))
            per_task_scores[task] = scores

        combos = []
        for sa, sb in itertools.product(per_task_scores["a"],
                                        per_task_scores["b"]):
            combos.append(svcomp_score([CategoryAggregate("X", sa, 1),
                                        CategoryAggregate("Y", sb, 1)]))
        exact_mean = sum(combos) / len(combos)
        exact_var = sum((c - exact_mean) ** 2 for c in combos) / len(combos)

        cfg = EvalConfig(pool_size=3, n_bootstrap=4000, tts_n=2, rng_seed=31)
        result = bootstrap_eval(pools, self.EXPECTED, self.CATS, cfg, "tts")
        margin = 5 * math.sqrt(exact_var / cfg.n_bootstrap) + 1e-9
        assert abs(result.scores.mean - exact_mean) < margin

    def test_pool_size_one_degenerates(self):
        pools = {"a": [entry(T)], "b": [entry(NT, INVALID)]}
        cfg = EvalConfig(pool_size=1, n_bootstrap=30, tts_n=1, rng_seed=0)
        result = bootstrap_eval(pools, self.EXPECTED, self.CATS, cfg, "single")
        outcomes = {"a": SampleOutcome.TN, "b": SampleOutcome.TP_INVALID}
        deterministic = svcomp_score(aggregate_outcomes(outcomes, self.CATS))
        assert result.scores.mean == pytest.approx(deterministic)
        assert result.scores.std == 0.0

    def test_tts_witness_valid_if_any_drawn_nt_valid(self):
        pools = {"a": [entry(T)] * 3,
                 "b": [entry(NT, INVALID), entry(NT, VALID),
                       entry(NT, INVALID)]}
        cfg = EvalConfig(pool_size=3, n_bootstrap=20, tts_n=3, rng_seed=5)
        result = bootstrap_eval(pools, self.EXPECTED, self.CATS, cfg, "tts")
        # every draw contains the valid witness: TP_valid (+1) each run
        assert result.scores.mean == pytest.approx(3.0)

    def test_format_error_pools_count_as_unknown(self):
        pools = {"a": [entry(UNK)] * 3, "b": [entry(UNK)] * 3}
        cfg = EvalConfig(pool_size=3, n_bootstrap=10, tts_n=2, rng_seed=2)
        result = bootstrap_eval(pools, self.EXPECTED, self.CATS, cfg, "single")
        assert result.scores.mean == pytest.approx(0.0)
        assert result.unk_fraction == 1.0


def reference_bootstrap(pools, expected, categories, cfg, mode):
    """Plain per-draw loop over outcomes: (per-run scores, per-run F1,
    unknown share)."""
    scores, f1s, unknown = [], [], 0
    for run in range(cfg.n_bootstrap):
        outcomes, pairs = {}, []
        for task_id in sorted(expected):
            pool = pools[task_id]
            rng = task_rng(cfg.rng_seed, run, task_id)
            if mode == "single":
                drawn = pool[rng.randrange(len(pool))]
                verdict, status = drawn.verdict, drawn.witness_status
            else:
                drawn = [pool[i]
                         for i in rng.sample(range(len(pool)), cfg.tts_n)]
                verdict = consensus_of([e.verdict for e in drawn])
                status = VALID if any(
                    e.verdict is NT and e.witness_status is VALID
                    for e in drawn) else INVALID
            unknown += verdict is UNK
            outcomes[task_id] = classify_sample(expected[task_id], verdict,
                                                status)
            pairs.append((expected[task_id], verdict))
        scores.append(svcomp_score(aggregate_outcomes(outcomes, categories)))
        f1 = f1_per_class(pairs)
        f1s.append((f1["F1_T"], f1["F1_NT"]))
    return scores, f1s, unknown / (cfg.n_bootstrap * len(expected))


@st.composite
def bootstrap_inputs(draw):
    pool_size = draw(st.integers(1, 6))
    cfg = EvalConfig(pool_size=pool_size,
                     n_bootstrap=draw(st.integers(1, 6)),
                     tts_n=draw(st.integers(1, pool_size)),
                     rng_seed=draw(st.integers(0, 2 ** 32)))
    entries = st.builds(PoolEntry, st.sampled_from([T, NT, UNK]),
                        st.sampled_from([VALID, INVALID, ABSENT]))
    task_ids = draw(st.lists(st.text("abc", min_size=1, max_size=3),
                             min_size=1, max_size=6, unique=True))
    pools = {t: draw(st.lists(entries, min_size=pool_size,
                              max_size=pool_size)) for t in task_ids}
    expected = {t: draw(st.sampled_from([T, NT])) for t in task_ids}
    categories = {t: draw(st.sampled_from("XYZ")) for t in task_ids}
    return pools, expected, categories, cfg


class TestBootstrapReference:
    @pytest.mark.parametrize("mode", ["single", "tts"])
    @given(inputs=bootstrap_inputs())
    def test_matches_plain_loop(self, mode, inputs):
        pools, expected, categories, cfg = inputs
        result = bootstrap_eval(pools, expected, categories, cfg, mode)
        scores, f1s, unknown = reference_bootstrap(pools, expected,
                                                   categories, cfg, mode)
        assert result.per_run_scores == scores
        assert result.per_run_f1 == f1s
        assert result.unk_fraction == unknown


class TestF1:
    def test_all_correct(self):
        outcomes = [(T, T)] * 5 + [(NT, NT)] * 5
        f1 = f1_per_class(outcomes)
        assert f1 == {"F1_T": 1.0, "F1_NT": 1.0}

    def test_half_unknown_worked_example(self):
        # 10 NT samples: 5 predicted NT, 5 UNK
        outcomes = [(NT, NT)] * 5 + [(NT, UNK)] * 5
        f1 = f1_per_class(outcomes)
        assert f1["F1_NT"] == pytest.approx(2 / 3)

    def test_all_unknown(self):
        outcomes = [(T, UNK)] * 5 + [(NT, UNK)] * 5
        f1 = f1_per_class(outcomes)
        assert f1 == {"F1_T": 0.0, "F1_NT": 0.0}

    def test_unknowns_do_not_count_as_predictions(self):
        # precision_NT must stay 1.0 when the only NT predictions are right
        outcomes = [(NT, NT)] * 5 + [(NT, UNK)] * 5
        predicted_nt = [p for _, p in outcomes if p is NT]
        assert len(predicted_nt) == 5
        f1 = f1_per_class(outcomes)
        assert f1["F1_NT"] == pytest.approx(2 * 1.0 * 0.5 / 1.5)

    def test_cross_errors(self):
        outcomes = [(T, NT), (NT, T)]
        f1 = f1_per_class(outcomes)
        assert f1 == {"F1_T": 0.0, "F1_NT": 0.0}


class TestWitnessMetrics:
    def test_validity_worked_example(self):
        c = ConfusionCounts(tp_valid=4, tp_invalid=6, expected_nt=10)
        metrics = witness_metrics(c)
        assert metrics["validity"] == pytest.approx(0.4)

    def test_perfect(self):
        c = ConfusionCounts(tp_valid=3, expected_nt=3)
        metrics = witness_metrics(c)
        assert metrics == {"validity": 1.0, "precision": 1.0, "recall": 1.0}

    def test_fp_only_hurts_precision(self):
        c = ConfusionCounts(tp_valid=3, fp=1, expected_nt=3)
        metrics = witness_metrics(c)
        assert metrics["precision"] == pytest.approx(0.75)
        assert metrics["recall"] == 1.0
        assert metrics["validity"] == 1.0

    def test_fn_only_hurts_recall(self):
        c = ConfusionCounts(tp_valid=3, fn=1, expected_nt=4)
        metrics = witness_metrics(c)
        assert metrics["recall"] == pytest.approx(0.75)
        assert metrics["precision"] == 1.0

    def test_zero_denominators(self):
        assert witness_metrics(ConfusionCounts()) == {
            "validity": 0.0, "precision": 0.0, "recall": 0.0}

    def test_counts_sum(self):
        c = ConfusionCounts()
        samples = [(T, SampleOutcome.TN), (NT, SampleOutcome.TP_VALID),
                   (NT, SampleOutcome.FN), (T, SampleOutcome.UNK)]
        for expected, outcome in samples:
            c.add(expected, outcome)
        assert c.total == 4
        assert c.expected_nt == 2


def exact_tts_unknown_probability(n_t: int, n_nt: int, n_unk: int,
                                  draw: int) -> Fraction:
    """Multivariate hypergeometric enumeration of consensus outcomes."""
    pool = n_t + n_nt + n_unk
    total = math.comb(pool, draw)
    p_unk = Fraction(0)
    for k_t in range(min(n_t, draw) + 1):
        for k_nt in range(min(n_nt, draw - k_t) + 1):
            k_unk = draw - k_t - k_nt
            if k_unk > n_unk:
                continue
            ways = (math.comb(n_t, k_t) * math.comb(n_nt, k_nt)
                    * math.comb(n_unk, k_unk))
            unanimous = (k_t > 0) != (k_nt > 0)  # exactly one class present
            if not unanimous:
                p_unk += Fraction(ways, total)
    return p_unk


def tts_of(pools, cfg):
    """The consensus bootstrap; its unknown share ignores the labels."""
    return bootstrap_eval(pools, {t: T for t in pools}, {t: "X" for t in pools},
                          cfg, "tts")


class TestUnknownRates:
    def test_all_decided_pool(self):
        pools = {"a": [entry(T)] * 20}
        cfg = EvalConfig(pool_size=20, n_bootstrap=50, tts_n=10, rng_seed=4)
        assert unknown_rates(pools, cfg) == 0.0
        assert tts_of(pools, cfg).unk_fraction == 0.0

    def test_two_unknowns_of_twenty(self):
        pools = {"a": [entry(UNK)] * 2 + [entry(T)] * 18}
        cfg = EvalConfig(pool_size=20, n_bootstrap=10, tts_n=10, rng_seed=4)
        assert unknown_rates(pools, cfg) == pytest.approx(0.10)

    def test_mixed_pool_matches_hypergeometric(self):
        pools = {"a": [entry(T)] * 10 + [entry(NT)] * 10}
        cfg = EvalConfig(pool_size=20, n_bootstrap=4000, tts_n=10, rng_seed=21)
        unk_fraction = tts_of(pools, cfg).unk_fraction
        exact = float(exact_tts_unknown_probability(10, 10, 0, 10))
        assert abs(unk_fraction - exact) < 0.02
        assert exact > 0.99

    def test_skewed_pool_matches_hypergeometric(self):
        pools = {"a": [entry(T)] * 17 + [entry(NT)] * 1 + [entry(UNK)] * 2}
        cfg = EvalConfig(pool_size=20, n_bootstrap=6000, tts_n=10, rng_seed=8)
        unk_fraction = tts_of(pools, cfg).unk_fraction
        exact = float(exact_tts_unknown_probability(17, 1, 2, 10))
        assert abs(unk_fraction - exact) < 0.02


class TestLengthBinScores:
    BINNING = LengthBinning({"s1": 0, "s2": 0, "m1": 1, "m2": 1,
                             "l1": 2, "l2": 2})

    def test_identical_outcomes_equal_means(self):
        outcomes = [(t, SampleOutcome.TN) for t in self.BINNING.assignment]
        means = score_by_length_bin(outcomes, self.BINNING)
        assert means == {0: 2.0, 1: 2.0, 2: 2.0}

    def test_all_fn_long_bin(self):
        outcomes = ([(t, SampleOutcome.TN) for t in ("s1", "s2", "m1", "m2")]
                    + [("l1", SampleOutcome.FN), ("l2", SampleOutcome.FN)])
        means = score_by_length_bin(outcomes, self.BINNING)
        assert means[2] == -32.0

    def test_hand_built_skew(self):
        outcomes = [
            ("s1", SampleOutcome.TN), ("s2", SampleOutcome.TP_VALID),
            ("m1", SampleOutcome.UNK), ("m2", SampleOutcome.TP_INVALID),
            ("l1", SampleOutcome.FP), ("l2", SampleOutcome.FN),
        ]
        means = score_by_length_bin(outcomes, self.BINNING)
        assert means == {0: 1.5, 1: 0.0, 2: -24.0}

    def test_multiple_generations_per_task(self):
        outcomes = [("s1", SampleOutcome.TN), ("s1", SampleOutcome.FP)]
        means = score_by_length_bin(outcomes, self.BINNING)
        assert means[0] == pytest.approx((2 - 16) / 2)


class TestPassAtK:
    def test_all_correct(self):
        assert pass_at_k(10, 10, 1) == 1.0

    def test_half_correct_k1(self):
        assert pass_at_k(10, 5, 1) == pytest.approx(0.5)

    def test_half_correct_k3(self):
        assert pass_at_k(10, 5, 3) == pytest.approx(11 / 12)

    def test_none_correct(self):
        assert pass_at_k(10, 0, 3) == 0.0

    def test_k_larger_than_wrong_pool(self):
        assert pass_at_k(10, 8, 3) == 1.0

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            pass_at_k(10, 11, 1)
        with pytest.raises(ValueError):
            pass_at_k(10, 5, 0)
        with pytest.raises(ValueError):
            pass_at_k(10, 5, 11)
        with pytest.raises(ValueError):
            pass_at_k(10, -1, 1)

    @given(st.integers(1, 50), st.data())
    def test_k1_reduces_to_ratio(self, n, data):
        c = data.draw(st.integers(0, n))
        assert pass_at_k(n, c, 1) == pytest.approx(c / n)

    @given(st.integers(1, 30), st.data())
    def test_monotone_in_k(self, n, data):
        c = data.draw(st.integers(0, n))
        values = [pass_at_k(n, c, k) for k in range(1, n + 1)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestWorstBestCase:
    def test_case_tables(self):
        assert score_sample(WORST_CASE[T]) == -16
        assert score_sample(WORST_CASE[NT]) == -32
        assert score_sample(BEST_CASE[T]) == 2
        assert score_sample(BEST_CASE[NT]) == 1


class TestTaskRng:
    def test_stable_across_calls(self):
        a = task_rng(1, 2, "t").random()
        b = task_rng(1, 2, "t").random()
        assert a == b

    def test_distinct_streams(self):
        assert task_rng(1, 2, "t").random() != task_rng(1, 3, "t").random()
        assert task_rng(1, 2, "t").random() != task_rng(2, 2, "t").random()
        assert task_rng(1, 2, "t").random() != task_rng(1, 2, "u").random()
