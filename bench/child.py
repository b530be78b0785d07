"""One measured invocation of a termeval command, in a fresh process.

    python3 bench/child.py --workload W --inputs DIR --out DIR --trace 0|1

Imports happen before the clock starts.  The command runs through
``termeval.cli.main`` exactly as the ``termeval`` script would run it; the
time spent in ``cli.load_config`` and ``cli._load_manifest_for`` is set-up,
the rest of the command is ``run_s``.  Set-up is timed once per process,
cold, as every invocation pays it.  With ``--trace 1`` every layer boundary
is wrapped (see ``spans.py``).  The result, with the per-generation outcomes
that ``cli.build_pools`` returned (score) or the judgments
``precond.judge_generation`` returned (precond), goes to
``DIR/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from termeval import cli, oracle, precond  # noqa: E402

import spans  # noqa: E402


def command(workload: str, inputs: Path, out: Path) -> list[str]:
    if workload == "precond-judge":
        return ["precond", str(inputs / "runs"), str(inputs / "annotations.json"),
                "-c", str(inputs / "config.toml"), "--mode", "brute",
                "-o", str(out / "passk.json")]
    # score keeps its default --jobs 1: with two threads on two vCPUs, every
    # hand-off of the interpreter lock waits for the host to run the other
    # vCPU, so the wall time measured the host's load (see README.md)
    return ["score", str(inputs / "runs"), "-c", str(inputs / "config.toml"),
            "-o", str(out / "report")]


def _timed(owner, attr: str, sink: list[float]) -> None:
    original = getattr(owner, attr)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)

    setattr(owner, attr, timed)


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    setup: list[float] = []
    _timed(cli, "load_config", setup)
    _timed(cli, "_load_manifest_for", setup)
    pools: list = []
    build_pools = cli.build_pools

    def keep_pools(manifest, run_dir, model_name, *rest, **kwargs):
        result = build_pools(manifest, run_dir, model_name, *rest, **kwargs)
        pools.append((model_name, result[0]))
        return result

    cli.build_pools = keep_pools
    # precond: the (model, task) being judged is the last one replayed
    judgments: dict[str, dict[str, list[str]]] = {}
    current: list = [None]
    replay_records = oracle.replay_records
    judge_generation = precond.judge_generation

    def note_task(run_dir, model_name, task_id):
        current[0] = judgments.setdefault(model_name, {}).setdefault(task_id, [])
        return replay_records(run_dir, model_name, task_id)

    def keep_judgment(*args, **kwargs):
        result = judge_generation(*args, **kwargs)
        current[0].append(result.value)
        return result

    if args.workload == "precond-judge":
        oracle.replay_records = note_task
        precond.judge_generation = keep_judgment
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    argv = command(args.workload, args.inputs, args.out)
    exit_code = 0
    sink = io.StringIO()
    cpu0 = _cpu()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        try:
            cli.main(argv, standalone_mode=False)
        except SystemExit as exc:
            exit_code = (exc.code if isinstance(exc.code, int)
                         else 0 if exc.code is None else 1)
        except Exception as exc:  # an abort is a measured outcome, not a crash
            exit_code = 1
            print(f"command raised {type(exc).__name__}: {exc}", file=sys.stderr)
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    result = {
        "exit_code": exit_code,
        "setup_s": sum(setup),
        "setup_calls": len(setup),
        "run_s": wall - sum(setup),
        "cpu_s": cpu,
        "peak_rss_mb": max(own, kids) / 1024.0,
        "pools": {model: {task: [[e.verdict.value, e.witness_status.value]
                                 for e in entries]
                          for task, entries in p.items()}
                  for model, p in pools},
        "judgments": judgments,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
