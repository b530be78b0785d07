"""Scoring and statistics for termination-prediction runs.

Per-sample scoring is asymmetric with non-termination as the positive class:
correct T earns +2, correct NT earns +1 only when its witness checks out,
unknowns and unconfirmed witnesses earn 0, wrong NT costs -16, and wrong T
costs -32.  Category aggregates combine into the competition-style score

    (1/k) * sum_i(s_i / n_i) * sum_i(n_i)

over the k categories.  Stochastic oracles are summarized by bootstrap
resampling of cached generation pools, either picking one generation per
task or applying consensus test-time scaling (draw n, answer only on
unanimity among the non-unknown votes).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import statistics
from dataclasses import asdict, dataclass, field
from enum import Enum

from .witness import Verdict


class SampleOutcome(Enum):
    TN = "TN"
    TP_VALID = "TP_valid"
    TP_INVALID = "TP_invalid"
    FP = "FP"
    FN = "FN"
    UNK = "UNK"


class WitnessStatus(Enum):
    VALID = "valid"
    INVALID = "invalid"
    ABSENT = "absent"


SCORE_TABLE = {
    SampleOutcome.TN: 2,
    SampleOutcome.TP_VALID: 1,
    SampleOutcome.TP_INVALID: 0,
    SampleOutcome.UNK: 0,
    SampleOutcome.FP: -16,
    SampleOutcome.FN: -32,
}


def classify_sample(expected: Verdict, predicted: Verdict,
                    witness_status: WitnessStatus) -> SampleOutcome:
    """Total mapping from (expected, predicted, witness status) to outcome."""
    if expected not in (Verdict.T, Verdict.NT):
        raise ValueError(f"expected verdict must be T or NT, got {expected}")
    if predicted is Verdict.UNK:
        return SampleOutcome.UNK
    if expected is Verdict.T:
        return SampleOutcome.TN if predicted is Verdict.T else SampleOutcome.FP
    # expected NT
    if predicted is Verdict.T:
        return SampleOutcome.FN
    if witness_status is WitnessStatus.VALID:
        return SampleOutcome.TP_VALID
    return SampleOutcome.TP_INVALID


def score_sample(outcome: SampleOutcome) -> int:
    return SCORE_TABLE[outcome]


# ---------------------------------------------------------------------------
# Category-weighted score


@dataclass(frozen=True)
class CategoryAggregate:
    category: str
    s_i: float
    n_i: int


def svcomp_score(aggregates: list[CategoryAggregate]) -> float:
    """Category-normalized score; every category weighs the same."""
    if not aggregates:
        raise ValueError("no category aggregates")
    for agg in aggregates:
        if agg.n_i <= 0:
            raise ValueError(f"category {agg.category} has no samples")
    k = len(aggregates)
    total_n = sum(agg.n_i for agg in aggregates)
    return (1.0 / k) * sum(agg.s_i / agg.n_i for agg in aggregates) * total_n


# ---------------------------------------------------------------------------
# Bootstrap evaluation


@dataclass(frozen=True)
class EvalConfig:
    pool_size: int = 20
    n_bootstrap: int = 100
    tts_n: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if self.tts_n < 1:
            raise ValueError("tts_n must be >= 1")
        if self.tts_n > self.pool_size:
            raise ValueError("tts_n must not exceed pool_size")
        if self.n_bootstrap < 1:
            raise ValueError("n_bootstrap must be >= 1")


@dataclass(frozen=True)
class PoolEntry:
    """One generation's contribution to scoring.

    Replies that never parsed to a verdict enter as UNK; an NT verdict whose
    witness was malformed or refuted enters with an unconfirmed status.
    """
    verdict: Verdict
    witness_status: WitnessStatus = WitnessStatus.ABSENT


def task_rng(seed: int, run_index: int, task_id: str) -> random.Random:
    """Substream generator for one (bootstrap run, task) pair.

    Hash-derived so results do not depend on iteration order.
    """
    digest = hashlib.sha256(f"{seed}:{run_index}:{task_id}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass
class Stats:
    mean: float
    std: float


def _stats(values: list[float]) -> Stats:
    mean = sum(values) / len(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return Stats(mean, std)


@dataclass
class BootstrapResult:
    scores: Stats
    f1_t: Stats
    f1_nt: Stats
    per_run_scores: list[float]
    per_run_f1: list[tuple[float, float]]
    unk_fraction: float  # fraction of (run, task) final answers that were UNK


# Draw codes: a drawn set of generations is summed up by OR-ing their codes.
# The low two bits are the decided verdicts (T, NT), so ``mask & 3`` is 1 or 2
# exactly when the non-unknown votes are unanimous; bit 2 marks an NT vote
# with a valid witness.  A single draw is the one-element case.
_CODE_T, _CODE_NT, _CODE_VALID = 1, 2, 4
_VERDICT_CODE = {Verdict.T: _CODE_T, Verdict.NT: _CODE_NT}
_MASK_VERDICT = {code: verdict for verdict, code in _VERDICT_CODE.items()}


def _draw_code(entry: PoolEntry) -> int:
    code = _VERDICT_CODE.get(entry.verdict, 0)
    if code == _CODE_NT and entry.witness_status is WitnessStatus.VALID:
        code |= _CODE_VALID
    return code


def _points_by_mask(expected: Verdict) -> list[int]:
    """Points of the final answer for every OR-ed draw mask."""
    points = []
    for mask in range(8):
        verdict = _MASK_VERDICT.get(mask & 3, Verdict.UNK)
        status = (WitnessStatus.VALID if mask & _CODE_VALID
                  else WitnessStatus.INVALID)
        points.append(score_sample(classify_sample(expected, verdict, status)))
    return points


def bootstrap_eval(pools: dict[str, list[PoolEntry]],
                   expected: dict[str, Verdict],
                   categories: dict[str, str],
                   cfg: EvalConfig, mode: str) -> BootstrapResult:
    """Bootstrap over cached pools.

    ``mode`` is ``"single"`` (one generation per task per run) or ``"tts"``
    (consensus over ``cfg.tts_n`` drawn generations; an NT consensus counts
    as validly witnessed when any drawn NT vote carried a valid witness).
    Each (run, task) pair draws from its own :func:`task_rng` substream.
    """
    if mode not in ("single", "tts"):
        raise ValueError(f"unknown mode {mode!r}")
    missing = [t for t in expected if t not in pools]
    if missing:
        raise ValueError(f"tasks without prediction pools: {sorted(missing)[:5]}")
    for task_id, pool in pools.items():
        if len(pool) != cfg.pool_size:
            raise ValueError(
                f"task {task_id} has {len(pool)} generations, expected "
                f"{cfg.pool_size}")

    task_ids = sorted(expected)
    cats = sorted({categories[t] for t in task_ids})
    cat_index = {cat: i for i, cat in enumerate(cats)}
    cat_sizes = [0] * len(cats)
    points_tables = {v: _points_by_mask(v) for v in _VERDICT_CODE}
    # per task: (task id, draw codes, points by mask, category, expected code)
    tasks = []
    for task_id in task_ids:
        want = expected[task_id]
        if want not in _VERDICT_CODE:
            raise ValueError(f"expected verdict must be T or NT, got {want}")
        cat = cat_index[categories[task_id]]
        cat_sizes[cat] += 1
        tasks.append((task_id, [_draw_code(e) for e in pools[task_id]],
                      points_tables[want], cat, _VERDICT_CODE[want]))

    single = mode == "single"
    n, k = cfg.pool_size, cfg.tts_n
    per_run_scores: list[float] = []
    per_run_f1: list[tuple[float, float]] = []
    unk_answers = 0
    for run in range(cfg.n_bootstrap):
        sums = [0] * len(cats)
        # tally[expected code][mask & 3]: answers by expected and final verdict
        tally = [[0] * 4 for _ in range(3)]
        for task_id, codes, points, cat, want in tasks:
            rng = task_rng(cfg.rng_seed, run, task_id)
            if single:
                mask = codes[rng.randrange(n)]
            else:
                # the draws depend only on the population's length, so
                # sampling the codes picks what sampling range(n) would
                mask = 0
                for code in rng.sample(codes, k):
                    mask |= code
            sums[cat] += points[mask]
            tally[want][mask & 3] += 1
        per_run_scores.append(svcomp_score([
            CategoryAggregate(cat, sums[i], cat_sizes[i])
            for i, cat in enumerate(cats)]))
        per_run_f1.append(tuple(
            _f1(tally[c][c], tally[_CODE_T][c] + tally[_CODE_NT][c],
                sum(tally[c])) for c in (_CODE_T, _CODE_NT)))
        unk_answers += sum(row[0] + row[3] for row in tally)

    return BootstrapResult(
        scores=_stats(per_run_scores),
        f1_t=_stats([f[0] for f in per_run_f1]),
        f1_nt=_stats([f[1] for f in per_run_f1]),
        per_run_scores=per_run_scores,
        per_run_f1=per_run_f1,
        unk_fraction=unk_answers / (cfg.n_bootstrap * len(task_ids)),
    )


# ---------------------------------------------------------------------------
# F1


def _f1(correct: int, predicted: int, expected: int) -> float:
    precision = correct / predicted if predicted else 0.0
    recall = correct / expected if expected else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# Witness metrics


@dataclass
class ConfusionCounts:
    tn: int = 0
    tp_valid: int = 0
    tp_invalid: int = 0
    fp: int = 0
    fn: int = 0
    unk: int = 0
    expected_nt: int = 0

    def add(self, expected: Verdict, outcome: SampleOutcome):
        field_name = {
            SampleOutcome.TN: "tn", SampleOutcome.TP_VALID: "tp_valid",
            SampleOutcome.TP_INVALID: "tp_invalid", SampleOutcome.FP: "fp",
            SampleOutcome.FN: "fn", SampleOutcome.UNK: "unk",
        }[outcome]
        setattr(self, field_name, getattr(self, field_name) + 1)
        if expected is Verdict.NT:
            self.expected_nt += 1

    @property
    def total(self) -> int:
        return self.tn + self.tp_valid + self.tp_invalid + self.fp + self.fn + self.unk


def witness_metrics(c: ConfusionCounts) -> dict[str, float]:
    """Validity, precision, and recall of validated witnesses.

    Validity is relative to correct NT predictions, precision to all parsed
    NT predictions, recall to all NT-expected samples.  Zero denominators
    yield 0.
    """
    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    return {
        "validity": ratio(c.tp_valid, c.tp_valid + c.tp_invalid),
        "precision": ratio(c.tp_valid, c.tp_valid + c.tp_invalid + c.fp),
        "recall": ratio(c.tp_valid, c.expected_nt),
    }


# ---------------------------------------------------------------------------
# Unknown share


def unknown_rates(pools: dict[str, list[PoolEntry]], cfg: EvalConfig) -> float:
    """Share of all pooled generations whose reply gave no verdict.

    ``cfg`` is not read: the signature is the one ``bench/spans.py`` traces.
    The consensus-mode share is the ``"tts"`` bootstrap's ``unk_fraction``.
    """
    total = sum(len(p) for p in pools.values())
    unk = sum(1 for p in pools.values() for e in p if e.verdict is Verdict.UNK)
    return unk / total if total else 0.0


# ---------------------------------------------------------------------------
# Length-bin scores


def score_by_length_bin(outcomes: list[tuple[str, SampleOutcome]],
                        binning) -> dict[int, float]:
    """Mean per-sample score grouped by the task's length bin."""
    sums: dict[int, int] = {0: 0, 1: 0, 2: 0}
    counts: dict[int, int] = {0: 0, 1: 0, 2: 0}
    for task_id, outcome in outcomes:
        bin_index = binning.assignment[task_id]
        sums[bin_index] += score_sample(outcome)
        counts[bin_index] += 1
    return {b: (sums[b] / counts[b] if counts[b] else 0.0) for b in (0, 1, 2)}


# ---------------------------------------------------------------------------
# Pass@k


def pass_at_k(n: int, c: int, k: int) -> float:
    """Unbiased probability that at least one of k drawn samples (out of n,
    c of them correct) is correct: 1 - C(n-c, k)/C(n, k)."""
    if not 0 <= c <= n:
        raise ValueError(f"need 0 <= c <= n, got c={c}, n={n}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n - c < k:
        return 1.0
    return 1.0 - math.comb(n - c, k) / math.comb(n, k)


# ---------------------------------------------------------------------------
# Report


@dataclass
class ModelReport:
    model: str
    single: BootstrapResult
    tts: BootstrapResult  # consensus mode; its unk_fraction is tts_unk_rate
    witness: dict[str, float]
    unk_rate: float
    bin_means: dict[int, float] = field(default_factory=dict)

    def modes(self) -> tuple[tuple[str, BootstrapResult], ...]:
        return (("single", self.single), ("tts", self.tts))


@dataclass
class EvalReport:
    models: list[ModelReport]
    config: EvalConfig
    witness_check_mode: str  # "external-validator" or "internal-checker"

    def to_json(self) -> str:
        models = []
        for m in self.models:
            entry = {
                "model": m.model,
                "witness": m.witness,
                "unk_rate": m.unk_rate,
                "tts_unk_rate": m.tts.unk_fraction,
                "bin_means": {str(k): v for k, v in sorted(m.bin_means.items())},
            }
            for mode, result in m.modes():
                for name, stats in (("svcomp", result.scores),
                                    ("f1_t", result.f1_t),
                                    ("f1_nt", result.f1_nt)):
                    entry[f"{name}_{mode}"] = asdict(stats)
            models.append(entry)
        payload = {
            "config": {
                "pool_size": self.config.pool_size,
                "n_bootstrap": self.config.n_bootstrap,
                "tts_n": self.config.tts_n,
                "rng_seed": self.config.rng_seed,
            },
            "witness_check_mode": self.witness_check_mode,
            "models": models,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        header = (f"{'model':<24} {'score-1':>10} {'score-tts':>10} "
                  f"{'F1(T)':>7} {'F1(NT)':>7} {'F1(T)+':>7} {'F1(NT)+':>8} "
                  f"{'wit-P':>7} {'wit-R':>7} "
                  f"{'wit-V':>7} {'unk':>6} {'tts-unk':>8}")
        lines = [
            f"witness check mode: {self.witness_check_mode}",
            f"seed: {self.config.rng_seed}  pool: {self.config.pool_size}  "
            f"bootstraps: {self.config.n_bootstrap}  tts n: {self.config.tts_n}",
            "('+' columns are consensus-mode F1)",
            "",
            header,
            "-" * len(header),
        ]
        for m in self.models:
            lines.append(
                f"{m.model:<24} "
                f"{m.single.scores.mean:>10.1f} {m.tts.scores.mean:>10.1f} "
                f"{m.single.f1_t.mean:>7.3f} {m.single.f1_nt.mean:>7.3f} "
                f"{m.tts.f1_t.mean:>7.3f} {m.tts.f1_nt.mean:>8.3f} "
                f"{m.witness['precision']:>7.3f} {m.witness['recall']:>7.3f} "
                f"{m.witness['validity']:>7.3f} "
                f"{m.unk_rate:>6.3f} {m.tts.unk_fraction:>8.3f}")
        if any(m.bin_means for m in self.models):
            lines.append("")
            lines.append(f"{'model':<24} {'bin0':>10} {'bin1':>10} {'bin2':>10}")
            for m in self.models:
                if m.bin_means:
                    lines.append(f"{m.model:<24} "
                                 f"{m.bin_means.get(0, 0.0):>10.3f} "
                                 f"{m.bin_means.get(1, 0.0):>10.3f} "
                                 f"{m.bin_means.get(2, 0.0):>10.3f}")
        return "\n".join(lines) + "\n"

    def per_run_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["model", "mode", "run", "score"])
        for m in self.models:
            for mode, result in m.modes():
                for i, score in enumerate(result.per_run_scores):
                    writer.writerow([m.model, mode, i, repr(score)])
        return buf.getvalue()
