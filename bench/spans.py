"""In-memory span tracing of termeval's layers, from outside the program.

Each layer's public functions are wrapped at the name their caller looks up
(the modules import each other's functions by name, so ``cli.check_feasibility``
is wrapped rather than ``lasso.check_feasibility``).  A span records name,
start, end, its parent span and the time its children covered, so a layer's
self time is its duration minus its children's.  Parents are tracked per
thread, which keeps ``score --jobs`` threads apart; work done inside worker
processes would not be seen from here.

Spans are timed with the calling thread's CPU clock: under ``--jobs`` a
thread that waits for the interpreter lock is not busy in its layer, and a
wall clock would charge that wait to whichever span is open.  Layer times
are therefore busy times that add up across threads.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    end: float = 0.0
    child_time: float = 0.0
    tag: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` by a traced version.  ``observe(span,
        args, kwargs, result)`` may tag the span and add counts."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = Span(name, 0.0, stack[-1] if stack else None)
            stack.append(span)
            span.start = time.thread_time()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.thread_time()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.duration
                self.spans.append(span)
            if observe is not None:
                with self._lock:  # score --jobs observes from several threads
                    observe(self, span, args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def totals(self) -> tuple[dict, dict, dict]:
        """Inclusive time, self time and calls per name (and name.tag)."""
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for s in self.spans:
            keys = [s.name] + ([f"{s.name}.{s.tag}"] if s.tag else [])
            for key in keys:
                inclusive[key] += s.duration
                own[key] += s.self_time
                calls[key] += 1
        return inclusive, own, calls


# ---------------------------------------------------------------------------
# The layers of termeval and the per-layer metrics derived from them


TIERS = ("proven", "bounded", "infeasible", "unknown")
JUDGMENTS = ("equivalent", "inequivalent", "unparseable", "undecided")


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of an imported termeval."""
    from termeval import cli, corpus, evalcore, lasso, oracle, precond
    from termeval.witness import FormatError, Prediction, Verdict

    def manifest(t, span, args, kwargs, result):
        t.counts["corpus.tasks"] += len(result.manifest.tasks)

    def records(t, span, args, kwargs, result):
        t.counts["oracle.records"] += len(result)
        t.counts["nt_records"] += sum(
            1 for r in result if isinstance(r.parsed, Prediction)
            and r.parsed.verdict is Verdict.NT)

    def prediction(t, span, args, kwargs, result):
        if isinstance(result, FormatError):
            t.counts["witness.format_errors"] += 1

    def bootstrap(t, span, args, kwargs, result):
        mode = args[4] if len(args) > 4 else kwargs["mode"]
        span.tag = mode
        cfg = args[3] if len(args) > 3 else kwargs["cfg"]
        t.counts["evalcore.task_draws"] += cfg.n_bootstrap * len(args[1])

    def rates(t, span, args, kwargs, result):
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        t.counts["evalcore.task_draws"] += cfg.n_bootstrap * len(args[0])

    def feasibility(t, span, args, kwargs, result):
        span.tag = {lasso.ProvenInfinite: "proven",
                    lasso.BoundedEvidence: "bounded",
                    lasso.Infeasible: "infeasible"}.get(type(result), "unknown")

    def judged(t, span, args, kwargs, result):
        span.tag = result.value

    tracer.wrap(corpus, "load_manifest", "corpus.load_manifest", manifest)
    tracer.wrap(oracle, "replay_records", "oracle.replay_records", records)
    tracer.wrap(oracle, "parse_prediction", "witness.parse_prediction", prediction)
    tracer.wrap(cli, "bootstrap_eval", "evalcore.bootstrap", bootstrap)
    tracer.wrap(cli, "unknown_rates", "evalcore.unknown_rates", rates)
    tracer.wrap(cli, "score_by_length_bin", "evalcore.length_bins")
    for method in ("to_json", "to_text", "per_run_csv"):
        tracer.wrap(evalcore.EvalReport, method, "evalcore.report_write")
    tracer.wrap(cli, "witness_status_for", "cli.witness_status_for")
    tracer.wrap(cli, "validate_schema", "witness.validate_schema")
    tracer.wrap(cli, "parse_program", "cparse.parse_program")
    tracer.wrap(cli, "extract_lasso", "lasso.extract_lasso")
    tracer.wrap(cli, "check_feasibility", "lasso.check_feasibility", feasibility)
    tracer.wrap(precond, "parse_precondition", "precond.parse_precondition")
    tracer.wrap(precond, "judge_generation", "precond.judge_generation", judged)
    tracer.wrap(precond, "brute_equivalence", "precond.brute_equivalence")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values, by the names BENCHMARK.json lists."""
    inc, own, calls = tracer.totals()
    c = tracer.counts
    m = {
        "corpus.load_manifest_s": inc["corpus.load_manifest"],
        "corpus.tasks": c["corpus.tasks"],
        "oracle.replay_records_s": own["oracle.replay_records"],
        "oracle.records": c["oracle.records"],
        "witness.parse_prediction_s": inc["witness.parse_prediction"],
        "witness.format_errors": c["witness.format_errors"],
        "evalcore.bootstrap_single_s": inc["evalcore.bootstrap.single"],
        "evalcore.bootstrap_tts_s": inc["evalcore.bootstrap.tts"],
        "evalcore.unknown_rates_s": inc["evalcore.unknown_rates"],
        "evalcore.length_bins_s": inc["evalcore.length_bins"],
        "evalcore.report_write_s": inc["evalcore.report_write"],
        "evalcore.task_draws": c["evalcore.task_draws"],
        "witness.validate_schema_s": inc["witness.validate_schema"],
        "cparse.parse_program_s": inc["cparse.parse_program"],
        "cparse.parse_program_calls": calls["cparse.parse_program"],
        "cli.witness_status_for_calls": calls["cli.witness_status_for"],
        "cli.status_cache_hit_ratio": (
            1.0 - calls["cli.witness_status_for"] / c["nt_records"]
            if c["nt_records"] else 0.0),
        "lasso.extract_lasso_s": inc["lasso.extract_lasso"],
        "lasso.check_feasibility_s": inc["lasso.check_feasibility"],
        "lasso.check_feasibility_calls": calls["lasso.check_feasibility"],
    }
    for tier in TIERS:
        m[f"lasso.check_s.{tier}"] = inc[f"lasso.check_feasibility.{tier}"]
        m[f"lasso.results.{tier}"] = calls[f"lasso.check_feasibility.{tier}"]
    checked = calls["lasso.check_feasibility"]
    m["lasso.conclusive_ratio"] = (
        sum(calls[f"lasso.check_feasibility.{t}"] for t in TIERS[:3]) / checked
        if checked else 0.0)
    m["precond.parse_precondition_s"] = inc["precond.parse_precondition"]
    m["precond.judge_generation_calls"] = calls["precond.judge_generation"]
    m["precond.judge_generation_s"] = inc["precond.judge_generation"]
    m["precond.brute_equivalence_s"] = inc["precond.brute_equivalence"]
    for j in JUDGMENTS:
        m[f"precond.judgments.{j}"] = calls[f"precond.judge_generation.{j}"]
    return {k: float(v) for k, v in m.items()}
