"""Benchmark entry point for termeval's ``score`` and ``precond`` commands.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs for the seed (once; they are reused from
``.bench_work/inputs``), then for ``S`` seconds runs the command again and
again, each time in a fresh process (``child.py``), and checks every
output against the generator's labels.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics from traced processes, each run right after an untraced one so that
``trace.overhead_s`` compares like with like.  A run stops starting rounds
when the next one, were it as slow as the slowest so far, would end past
the deadline.

Every metric is the median over the run's processes; ``setup_s`` is the
median of each process's one cold set-up, as every invocation pays it.  On
a small shared machine whose speed shifts with other tenants' load, the
fastest process of a run depends on whether a rare fast moment fell into
it, so the minimum spread by about 24% between runs where the median spread
by under 10% (see README.md).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
MIN_SAMPLES = 3
TIME_LIMIT = 170  # a run, set-up included, ends within this many seconds


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_child(workload: str, inputs: Path, out: Path, trace: bool,
              timeout: float = TIME_LIMIT) -> dict:
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--inputs", str(inputs), "--out", str(out), "--trace", str(int(trace))],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"child process failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads((out / "result.json").read_text())


def check(workload: str, labels: dict, result: dict, out: Path):
    """(failed operations, problems, output digest) for one round.  An
    aborted command fails every operation of the round; ``correct`` speaks
    only of operations that did not fail."""
    if result["setup_calls"] == 0:
        raise RuntimeError("cli.load_config and cli._load_manifest_for were "
                           "not called: the set-up timing needs updating")
    if result["exit_code"] != 0:
        print(f"command exited {result['exit_code']}", file=sys.stderr)
        return checks.attempted(labels), [], None
    if workload == "precond-judge":
        failed = checks.check_judgments(labels, result["judgments"])
        problems = checks.check_passk(labels, out / "passk.json")
        return failed, problems, checks.digest(out / "passk.json")
    failed, budget_valid = checks.check_pools(labels, result["pools"])
    result["budget_valid"] = budget_valid
    problems = checks.check_report(labels, out / "report")
    return failed, problems, checks.digest(out / "report" / "report.json")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    inputs = gen.ensure_inputs(args.workload, args.seed, WORK)
    labels = json.loads((inputs / "labels.json").read_text())
    out = WORK / "out" / args.workload

    samples, traced = [], []
    attempted = failed = 0
    problems: list[str] = []
    digests: set[str] = set()
    budget = None
    longest = 0.0
    deadline = time.monotonic() + args.seconds
    while True:
        trace = bool(args.trace) and len(samples) > len(traced)
        begun = time.monotonic()
        result = run_child(args.workload, inputs, out, trace,
                           timeout=TIME_LIMIT - (time.monotonic() - started))
        f, p, d = check(args.workload, labels, result, out)
        attempted += checks.attempted(labels)
        failed += f
        problems += p
        digests.add(d)
        budget = result.get("budget_valid", budget)
        (traced if trace else samples).append(result)
        longest = max(longest, time.monotonic() - begun)
        # stop when the next round (an untraced and traced pair with
        # --trace 1) would end past the deadline, were it as slow as the
        # slowest so far
        if len(traced) == (len(samples) if args.trace else 0) \
                and len(samples) >= MIN_SAMPLES:
            rounds = 2 if args.trace else 1
            if time.monotonic() + rounds * longest > deadline:
                break
    shutil.rmtree(out, ignore_errors=True)

    if args.workload == "precond-judge":
        checked, p = checks.check_counterexamples(labels)
        problems += p
        print(f"counterexamples re-checked: {checked}")
    if budget is not None:
        total = sum(1 for per_task in labels["generations"].values()
                    for entries in per_task.values() for e in entries
                    if e[1] == "budget" and e[0] != "T")
        print(f"budget-limited generations: {total}, ended VALID: "
              f"{sum(budget.values())}")
    output = "passk.json" if args.workload == "precond-judge" else "report.json"
    for d in sorted(x for x in digests if x):
        print(f"sha256 {output}: {d}")
    for problem in problems[:20]:
        print(f"check failed: {problem}")

    def middle(rows, key):
        return statistics.median(r[key] for r in rows)

    if args.trace:
        units = per_layer_units()
        layers = {name: {"value": middle([r["layers"] for r in traced], name),
                         "unit": unit}
                  for name, unit in units.items() if name != "trace.overhead_s"}
        # each traced process runs right after an untraced one, so the
        # median of the pairs' differences is not thrown off by drift
        layers["trace.overhead_s"] = {
            "value": statistics.median(t["run_s"] - u["run_s"]
                                       for u, t in zip(samples, traced)),
            "unit": units["trace.overhead_s"]}
        metrics = layers
    else:
        metrics = {name: {"value": middle(samples, name), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(f"samples: {len(samples)} untraced, {len(traced)} traced")
    for key in END_TO_END:
        print(f"  {key}: {' '.join(str(r[key]) for r in samples)}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "termeval" / "cli.py").is_file():
        sys.exit(f"error: {ROOT / 'src' / 'termeval'} not found; run from a "
                 "termeval checkout")
    sys.path.insert(0, str(ROOT / "src"))  # the counterexample check imports it
    sys.exit(main())
