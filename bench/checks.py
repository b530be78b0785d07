"""Output checks computed from the generator's labels, apart from the program.

Score workloads:

* every generation's (verdict, witness status) from ``cli.build_pools``
  agrees with its label; a disagreement is a failed operation;
* ``report.json`` per model: ``unk_rate`` equals the labelled unknown share,
  and some ``tp_valid`` between the confirmable count and the confirmable
  plus budget-limited count reproduces witness recall, validity and
  precision and the length-bin score total from the labelled TN/FP/FN/UNK
  counts;
* the single and consensus score means and ``tts_unk_rate`` lie within a
  stated distance of their closed-form expectations over the labelled
  pools (a pool mean for single draws, hypergeometric draw probabilities
  for consensus).  Consensus scores are heavy-tailed (a rare unanimous
  wrong answer costs -32), so a fixed number of normal standard errors
  would fail on honest draws; the distance is Bernstein's bound for sums of
  bounded independent terms at failure probability ``DELTA``, and a failure
  message states it in standard errors;
* every per-run score lies between the all-worst and all-best scores.

``precond-judge``:

* every judgment ``precond.judge_generation`` returned for a generation
  (equivalent, inequivalent, unparseable) agrees with its label (EQ, NEQ,
  UNP); a disagreement, or an undecided judgment, is a failed operation;
* Pass@1 and Pass@3 equal ``1 - C(n-c,k)/C(n,k)`` with ``c`` the labelled
  equivalent generations;
* every inequivalent generation's counterexample from the program makes the
  benchmark's own evaluator disagree.

Each check returns (failed operations, problems); a problem makes the run
incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import gen

DELTA = 1e-6  # chance that an honest bootstrap mean fails its check
SCORE = {"TN": 2, "TPV": 1, "TPI": 0, "UNK": 0, "FP": -16, "FN": -32}


def attempted(labels: dict) -> int:
    """Operations in one round: every generation of every model."""
    return sum(len(g) for per_task in labels["generations"].values()
               for g in per_task.values())


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Score


def _reply(code: str) -> str:
    return "UNK" if code in ("UNK", "FMT") else ("T" if code == "T" else "NT")


def _outcomes(expected: str, code: str, label: str | None) -> set[str]:
    """Outcomes a generation may take given its label."""
    reply = _reply(code)
    if reply == "UNK":
        return {"UNK"}
    if expected == "T":
        return {"TN"} if reply == "T" else {"FP"}
    if reply == "T":
        return {"FN"}
    return {"confirmable": {"TPV"}, "refutable": {"TPI"},
            "budget": {"TPV", "TPI"}}[label]


def _observed(expected: str, verdict: str, status: str) -> str:
    if verdict == "UNK":
        return "UNK"
    if expected == "T":
        return "TN" if verdict == "T" else "FP"
    if verdict == "T":
        return "FN"
    return "TPV" if status == "valid" else "TPI"


def check_pools(labels: dict, pools: dict) -> tuple[int, dict]:
    """Failed generations, and per model how many budget-limited
    generations ended VALID."""
    failed = 0
    budget_valid = {}
    for model, per_task in labels["generations"].items():
        got = pools.get(model, {})
        budget_valid[model] = 0
        for task, entries in per_task.items():
            expected = labels["tasks"][task]["expected"]
            observed = got.get(task)
            if observed is None or len(observed) != len(entries):
                failed += len(entries)
                continue
            for (code, label, _), (verdict, status) in zip(entries, observed):
                outcome = _observed(expected, verdict, status)
                if verdict != _reply(code) or outcome not in _outcomes(
                        expected, code, label):
                    failed += 1
                elif label == "budget" and outcome == "TPV":
                    budget_valid[model] += 1
    return failed, budget_valid


def _pool_stats(expected: str, entries: list) -> dict:
    n = len(entries)
    counts = {"T": 0, "NT": 0, "UNK": 0}
    confirmable = budget = 0
    for code, label, _ in entries:
        counts[_reply(code)] += 1
        confirmable += label == "confirmable" and _reply(code) == "NT"
        budget += label == "budget" and _reply(code) == "NT"
    return {"n": n, **counts, "conf": confirmable, "budget": budget,
            "expected": expected}


def _tolerance(variance: float, span: float, terms: int) -> float:
    """Bernstein: the mean of ``terms`` independent draws, each with this
    variance and spread over at most ``span``, strays further than the
    returned distance from its expectation with probability below DELTA."""
    log = math.log(2 / DELTA)
    t = log * span / 3
    return (t + math.sqrt(t * t + 2 * log * terms * variance)) / terms


def _single(p: dict, valid: int) -> tuple[float, float]:
    """Mean and variance of one uniformly drawn generation's score."""
    n = p["n"]
    if p["expected"] == "T":
        values = [(SCORE["TN"], p["T"]), (SCORE["FP"], p["NT"])]
    else:
        values = [(SCORE["FN"], p["T"]), (SCORE["TPV"], valid)]
    mean = sum(s * c for s, c in values) / n
    second = sum(s * s * c for s, c in values) / n
    return mean, second - mean * mean


def _tts(p: dict, valid: int, draw: int) -> tuple[float, float, float]:
    """Mean and variance of the consensus score, and P(unknown), for
    ``draw`` generations taken without replacement."""
    n = p["n"]
    total = math.comb(n, draw)

    def none_of(k: int) -> float:
        return math.comb(n - k, draw) / total if n - k >= draw else 0.0

    all_unk = none_of(p["T"] + p["NT"])
    p_t = none_of(p["NT"]) - all_unk
    p_nt = none_of(p["T"]) - all_unk
    p_unk = 1.0 - p_t - p_nt
    if p["expected"] == "T":
        values = [(SCORE["TN"], p_t), (SCORE["FP"], p_nt)]
    else:
        p_valid = none_of(p["T"]) - none_of(p["T"] + valid)
        values = [(SCORE["FN"], p_t), (SCORE["TPV"], p_valid)]
    mean = sum(s * q for s, q in values)
    second = sum(s * s * q for s, q in values)
    return mean, second - mean * mean, p_unk


def _weights(labels: dict) -> dict[str, float]:
    """Per-task weight of the category-normalised score."""
    tasks = labels["tasks"]
    per_cat: dict[str, int] = {}
    for t in tasks.values():
        per_cat[t["category"]] = per_cat.get(t["category"], 0) + 1
    n, k = len(tasks), len(per_cat)
    return {tid: n / (k * per_cat[t["category"]]) for tid, t in tasks.items()}


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_report(labels: dict, report_dir: Path) -> list[str]:
    problems = []
    report = json.loads((report_dir / "report.json").read_text())
    cfg = labels["eval"]
    weights = _weights(labels)
    tasks = labels["tasks"]
    n_tasks = len(tasks)
    sizes = [n_tasks // 3 + (1 if i < n_tasks % 3 else 0) for i in range(3)]
    models = {m["model"]: m for m in report["models"]}
    if sorted(models) != sorted(labels["generations"]):
        return [f"report models {sorted(models)} != {sorted(labels['generations'])}"]
    best = sum(w * (2 if tasks[t]["expected"] == "T" else 1)
               for t, w in weights.items())
    worst = sum(w * (-16 if tasks[t]["expected"] == "T" else -32)
                for t, w in weights.items())

    for model, per_task in labels["generations"].items():
        m = models[model]
        stats = {t: _pool_stats(tasks[t]["expected"], e) for t, e in per_task.items()}
        total = sum(p["n"] for p in stats.values())
        unk = sum(p["UNK"] for p in stats.values())
        tn = sum(p["T"] for p in stats.values() if p["expected"] == "T")
        fp = sum(p["NT"] for p in stats.values() if p["expected"] == "T")
        fn = sum(p["T"] for p in stats.values() if p["expected"] == "NT")
        nt_on_nt = sum(p["NT"] for p in stats.values() if p["expected"] == "NT")
        expected_nt = sum(p["n"] for p in stats.values() if p["expected"] == "NT")
        conf = sum(p["conf"] for p in stats.values() if p["expected"] == "NT")
        budget = sum(p["budget"] for p in stats.values() if p["expected"] == "NT")

        if not _close(m["unk_rate"], unk / total):
            problems.append(f"{model}: unk_rate {m['unk_rate']} != {unk}/{total}")
        pool = labels["eval"]["pool_size"]
        bin_total = sum(m["bin_means"][str(b)] * sizes[b] * pool for b in range(3))
        w = m["witness"]
        fits = []
        for tpv in range(conf, conf + budget + 1):
            want = {
                "recall": tpv / expected_nt if expected_nt else 0.0,
                "validity": tpv / nt_on_nt if nt_on_nt else 0.0,
                "precision": tpv / (nt_on_nt + fp) if nt_on_nt + fp else 0.0,
            }
            score_sum = 2 * tn + tpv - 16 * fp - 32 * fn
            if all(_close(w[k], v) for k, v in want.items()) and \
                    _close(bin_total, score_sum, 1e-7):
                fits.append(tpv)
        if not fits:
            problems.append(
                f"{model}: witness metrics {w} and bin total {bin_total:.6f} fit "
                f"no tp_valid in [{conf}, {conf + budget}] with TN={tn} FP={fp} "
                f"FN={fn} UNK={unk}")

        span = max(weights.values()) * (SCORE["TN"] - SCORE["FN"])
        for mode in ("single", "tts"):
            lo_mean = hi_mean = var = 0.0
            unk_p = unk_var = 0.0
            for t, p in stats.items():
                wt = weights[t]
                if mode == "single":
                    lo, v_lo = _single(p, p["conf"])
                    hi, v_hi = _single(p, p["conf"] + p["budget"])
                else:
                    lo, v_lo, q = _tts(p, p["conf"], cfg["tts_n"])
                    hi, v_hi, _ = _tts(p, p["conf"] + p["budget"], cfg["tts_n"])
                    unk_p += q / n_tasks
                    unk_var += q * (1 - q)
                lo_mean += wt * lo
                hi_mean += wt * hi
                var += wt * wt * max(v_lo, v_hi)
            runs = cfg["n_bootstrap"]
            se = math.sqrt(var / runs)
            tol = _tolerance(var, span, runs)
            got = m[f"svcomp_{mode}"]["mean"]
            if not lo_mean - tol - 1e-9 <= got <= hi_mean + tol + 1e-9:
                problems.append(
                    f"{model}: svcomp_{mode} mean {got:.3f} outside "
                    f"[{lo_mean:.3f}, {hi_mean:.3f}] +- {tol / se:.1f} SE ({se:.3f})")
            if mode == "tts":
                # the share of (run, task) answers that are unknown
                terms = runs * n_tasks
                tol = _tolerance(unk_var / n_tasks, 1.0, terms)
                se = math.sqrt(unk_var / n_tasks / terms)
                if abs(m["tts_unk_rate"] - unk_p) > tol + 1e-9:
                    problems.append(
                        f"{model}: tts_unk_rate {m['tts_unk_rate']:.4f} vs "
                        f"{unk_p:.4f} +- {tol / se:.1f} SE ({se:.4f})")

    with open(report_dir / "per_run_scores.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 2 * cfg["n_bootstrap"] * len(models):
        problems.append(f"per_run_scores.csv has {len(rows)} rows")
    for row in rows:
        if not worst - 1e-9 <= float(row["score"]) <= best + 1e-9:
            problems.append(f"per-run score {row} outside [{worst:.3f}, {best:.3f}]")
            break
    return problems


# ---------------------------------------------------------------------------
# Preconditions


def pass_at_k(n: int, c: int, k: int) -> float:
    if n - c < k:
        return 1.0
    return 1.0 - math.comb(n - c, k) / math.comb(n, k)


JUDGMENT = {"EQ": "equivalent", "NEQ": "inequivalent", "UNP": "unparseable"}


def check_judgments(labels: dict, judgments: dict) -> int:
    """Failed generations: the program judges each generation once per
    Pass@k it computes, and every one of those judgments must match the
    label."""
    failed = 0
    for model, per_task in labels["generations"].items():
        for task, entries in per_task.items():
            n = len(entries)
            got = judgments.get(model, {}).get(task, [])
            if not got or len(got) % n:
                failed += n
                continue
            for i, entry in enumerate(entries):
                if any(j != JUDGMENT[entry[0]] for j in got[i::n]):
                    failed += 1
    return failed


def check_passk(labels: dict, path: Path) -> list[str]:
    problems = []
    results = json.loads(path.read_text())
    for model, per_task in labels["generations"].items():
        got = results.get(model, {}).get("per_task", {})
        p1s, p3s = [], []
        for task, entries in per_task.items():
            n = len(entries)
            c = sum(1 for e in entries if e[0] == "EQ")
            want1, want3 = pass_at_k(n, c, 1), pass_at_k(n, c, min(3, n))
            p1s.append(want1)
            p3s.append(want3)
            obs = got.get(task)
            if obs is None:
                problems.append(f"{model}/{task}: missing from Pass@k output")
                continue
            if not (_close(obs["pass@1"], want1, 1e-12)
                    and _close(obs["pass@3"], want3, 1e-12)):
                problems.append(f"{model}/{task}: Pass@1/3 {obs['pass@1']:.4f}/"
                                f"{obs['pass@3']:.4f} != {want1:.4f}/{want3:.4f}")
        summary = results.get(model, {})
        for key, values in (("mean_pass@1", p1s), ("mean_pass@3", p3s)):
            if not _close(summary.get(key, -1.0), sum(values) / len(values), 1e-12):
                problems.append(f"{model}: {key} {summary.get(key)} != "
                                f"{sum(values) / len(values)}")
    return problems


def check_counterexamples(labels: dict) -> tuple[int, list[str]]:
    """Ask the program for each inequivalent generation's counterexample and
    confirm it with the benchmark's own evaluator."""
    from termeval import precond
    from termeval.cparse import INT

    problems = []
    checked = 0
    seen = set()
    for per_task in labels["generations"].values():
        for task, entries in per_task.items():
            truth = labels["truths"][task]
            names = truth["names"]
            for code, text, formula in entries:
                if code != "NEQ" or (task, text) in seen:
                    continue
                seen.add((task, text))
                variables = {name: INT for name in names}
                result = precond.check_equivalence(
                    precond.parse_precondition(text, set(names)),
                    precond.parse_precondition(
                        gen.render_formula(truth["formula"], False), set(names)),
                    variables, mode="brute")
                checked += 1
                env = getattr(result, "counterexample", None)
                if env is None or set(env) != set(names):
                    problems.append(f"{task}: {text!r} not shown inequivalent: {result}")
                elif gen.eval_formula(formula, env) == gen.eval_formula(
                        truth["formula"], env):
                    problems.append(f"{task}: counterexample {env} for {text!r} "
                                    "does not separate the formulas")
    return checked, problems
