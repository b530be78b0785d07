"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

For each workload it generates inputs for a fixed seed, runs the command
once, and requires the checks to pass.  It then corrupts the report (or the
Pass@k file) and the label file in several ways and requires every
corruption to be caught.  Exits 0 when all cases behave.
"""

from __future__ import annotations

import copy
import csv
import json
import shutil
import sys
from pathlib import Path

import checks
import gen
import run

SEED = 7
WORK = run.WORK / "selftest"


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _first(labels: dict, predicate):
    """(model, task, index) of the first generation matching ``predicate``."""
    for model, per_task in labels["generations"].items():
        for task, entries in per_task.items():
            for i, entry in enumerate(entries):
                if predicate(entry):
                    return model, task, i
    raise LookupError("no matching generation")


def _caught(workload: str, labels: dict, result: dict, out: Path) -> bool:
    failed, problems, _ = run.check(workload, labels, result, out)
    return failed > 0 or bool(problems)


def score_cases(labels: dict):
    """(name, corrupt(out_dir) -> labels) pairs for a score workload."""
    def report_field(edit):
        def corrupt(out):
            _edit_json(out / "report" / "report.json", edit)
            return labels
        return corrupt

    def bump_unk(data):
        data["models"][0]["unk_rate"] += 0.01

    def bump_recall(data):
        data["models"][0]["witness"]["recall"] += 0.01

    def flip_single(data):
        data["models"][-1]["svcomp_single"]["mean"] *= -1

    def shift_tts_unk(data):
        data["models"][0]["tts_unk_rate"] = 0.0

    def bin_means(data):
        data["models"][0]["bin_means"]["1"] += 0.5

    def per_run(out):
        path = out / "report" / "per_run_scores.csv"
        rows = list(csv.reader(path.open(newline="")))
        rows[1][3] = "1e9"
        with path.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        return labels

    def relabel(predicate, change):
        def corrupt(out):
            bad = copy.deepcopy(labels)
            model, task, i = _first(bad, predicate)
            change(bad["generations"][model][task][i])
            return bad
        return corrupt

    def to_refutable(entry):
        entry[1] = "refutable"

    def to_unk(entry):
        entry[0] = "UNK"

    return [
        ("report unk_rate", report_field(bump_unk)),
        ("report witness recall", report_field(bump_recall)),
        ("report single-draw mean (sign)", report_field(flip_single)),
        ("report tts_unk_rate", report_field(shift_tts_unk)),
        ("report length-bin means", report_field(bin_means)),
        ("per-run score out of bounds", per_run),
        ("label confirmable -> refutable",
         relabel(lambda e: e[1] == "confirmable", to_refutable)),
        ("label T reply -> UNK", relabel(lambda e: e[0] == "T", to_unk)),
    ]


def precond_cases(labels: dict):
    def passk(out):
        def edit(data):
            model = sorted(data)[0]
            task = sorted(data[model]["per_task"])[0]
            data[model]["per_task"][task]["pass@1"] += 0.125
        _edit_json(out / "passk.json", edit)
        return labels

    def mean(out):
        def edit(data):
            data[sorted(data)[-1]]["mean_pass@3"] -= 0.01
        _edit_json(out / "passk.json", edit)
        return labels

    def relabel(out):
        bad = copy.deepcopy(labels)
        model, task, i = _first(bad, lambda e: e[0] == "NEQ")
        bad["generations"][model][task][i][0] = "EQ"
        return bad

    def unparseable(out):
        # Pass@k does not tell unparseable from inequivalent; the judgments do
        bad = copy.deepcopy(labels)
        model, task, i = _first(bad, lambda e: e[0] == "UNP")
        bad["generations"][model][task][i][0] = "NEQ"
        return bad

    return [("Pass@1 of one task", passk), ("mean Pass@3", mean),
            ("label inequivalent -> equivalent", relabel),
            ("label unparseable -> inequivalent", unparseable)]


def counterexample_case(labels: dict) -> bool:
    """A label whose formula agrees with the truth at the program's
    counterexample must be caught."""
    bad = copy.deepcopy(labels)
    model, task, i = _first(bad, lambda e: e[0] == "NEQ")
    bad["generations"] = {model: {task: [bad["generations"][model][task][i]]}}
    bad["generations"][model][task][0][2] = labels["truths"][task]["formula"]
    _, problems = checks.check_counterexamples(bad)
    return bool(problems)


def main() -> int:
    ok = True
    shutil.rmtree(WORK, ignore_errors=True)
    for workload in gen.WORKLOADS:
        inputs = gen.ensure_inputs(workload, SEED, WORK)
        labels = json.loads((inputs / "labels.json").read_text())
        out = WORK / "out"
        result = run.run_child(workload, inputs, out, trace=False)
        failed, problems, _ = run.check(workload, labels, result, out)
        clean = failed == 0 and not problems
        print(f"{'PASS' if clean else 'FAIL'} {workload}: checks pass on seed {SEED}"
              + ("" if clean else f" (failed {failed}, {problems[:3]})"))
        ok &= clean
        if workload == "precond-judge":
            _, problems = checks.check_counterexamples(labels)
            print(f"{'PASS' if not problems else 'FAIL'} {workload}: "
                  "counterexamples confirmed")
            ok &= not problems
            caught = counterexample_case(labels)
            print(f"{'PASS' if caught else 'FAIL'} {workload}: caught "
                  "a counterexample that does not separate the formulas")
            ok &= caught
        cases = (precond_cases(labels) if workload == "precond-judge"
                 else score_cases(labels))
        pristine = WORK / "pristine"
        shutil.rmtree(pristine, ignore_errors=True)
        shutil.copytree(out, pristine)
        for name, corrupt in cases:
            shutil.rmtree(out)
            shutil.copytree(pristine, out)
            caught = _caught(workload, corrupt(out), copy.deepcopy(result), out)
            print(f"{'PASS' if caught else 'FAIL'} {workload}: caught corrupted {name}")
            ok &= caught
    shutil.rmtree(WORK, ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    if not (run.ROOT / "src" / "termeval" / "cli.py").is_file():
        sys.exit("error: run from a termeval checkout")
    sys.path.insert(0, str(run.ROOT / "src"))
    sys.exit(main())
