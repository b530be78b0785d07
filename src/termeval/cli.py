"""Command-line frontend: ingest, run, check-witness, score, precond.

A single TOML config drives reproducible runs; all paths inside it are
resolved relative to the config file.  Exit codes: 0 success, 1 domain
failure (invalid witness, inequivalent precondition, failed scoring), 2
usage or configuration error.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import tempfile
import tomllib
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import click

from . import corpus as corpus_mod
from . import evalcore, lasso, oracle, precond
from .corpus import Category, CorpusManifest
from .cparse import INT, CParseError, parse_program, Program, UnsupportedConstruct
from .evalcore import (
    ConfusionCounts, EvalConfig, EvalReport, ModelReport, PoolEntry,
    WitnessStatus, bootstrap_eval, classify_sample, pass_at_k,
    score_by_length_bin, unknown_rates, witness_metrics,
)
from .lasso import (
    BoundedEvidence, CheckerConfig, Infeasible, LassoPath, ProvenInfinite,
    Unknown, ValidationStatus, ValidatorConfig, check_feasibility,
    checker_view, extract_lasso, run_external_validator,
)
from .witness import (
    FormatError, Prediction, ProducerMeta, Verdict, emit_graphml,
    parse_prediction, validate_schema,
)


@dataclass
class RunConfig:
    corpus_root: Path | None
    manifest_path: Path | None
    categories: set[Category] | None
    exclusions: Path | None
    sidecar: Path | None
    models: list[oracle.ModelConfig]
    eval: EvalConfig
    checker: CheckerConfig
    validator: ValidatorConfig | None
    output_dir: Path
    prompt_kind: str  # "termination" | "precondition"


class ConfigError(click.ClickException):
    """A config that cannot be used; exits 2, as a usage error does."""
    exit_code = 2


def _fail(message: str, code: int = 2):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def load_config(path: Path | str) -> RunConfig:
    """The run config in the TOML file ``path``; a file that cannot be read,
    parsed or used raises :class:`ConfigError`."""
    path = Path(path)
    try:
        return _config_from(tomllib.loads(path.read_text(encoding="utf-8")),
                            path.parent)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except KeyError as exc:
        raise ConfigError(f"{path}: missing {exc}")
    except (ValueError, TypeError, AttributeError, RecursionError) as exc:
        raise ConfigError(f"{path}: {exc}")


def _config_from(data: dict, base: Path) -> RunConfig:
    def rel(value) -> Path:
        p = Path(value)
        return p if p.is_absolute() else base / p

    corpus_cfg = data.get("corpus", {})
    categories = None
    if "categories" in corpus_cfg:
        categories = {Category(c) for c in corpus_cfg["categories"]}

    eval_cfg = data.get("eval", {})
    pool_size = int(eval_cfg.get("pool_size", 20))
    config_eval = EvalConfig(
        pool_size=pool_size,
        n_bootstrap=int(eval_cfg.get("n_bootstrap", 100)),
        tts_n=int(eval_cfg.get("tts_n", min(10, pool_size))),
        rng_seed=int(eval_cfg.get("seed", 0)),
    )

    checker_cfg = data.get("checker", {})
    domain = checker_cfg.get("domain", [-64, 64])
    config_checker = CheckerConfig(
        nondet_domain=(int(domain[0]), int(domain[1])),
        max_assignments=int(checker_cfg.get("max_assignments", 4096)),
        max_steps=int(checker_cfg.get("max_steps", 200_000)),
        bounded_cycle_target=int(checker_cfg.get("bounded_cycle_target", 1000)),
        stall_steps=int(checker_cfg.get("stall_steps", 2000)),
    )

    validator = None
    if "validator" in data:
        v = data["validator"]
        validator = ValidatorConfig(
            validator_root=rel(v["root"]),
            architecture=str(v.get("architecture", "32bit")),
            property_path=str(v.get("property", "../properties/termination.prp")),
            timeout=float(v.get("timeout", 60.0)),
        )

    models = []
    for m in data.get("models", []):
        config = oracle.ModelConfig(
            name=str(m["name"]),
            endpoint_url=str(m.get("endpoint_url", "")),
            api_key_env=str(m.get("api_key_env", "")),
            max_output_tokens=int(m.get("max_output_tokens", 16384)),
            request_timeout=float(m.get("timeout", 300.0)),
            replay=str(m.get("mode", "live")) == "replay",
        )
        if "preset" in m:
            config = oracle.apply_preset(config, str(m["preset"]))
        else:
            updates = {}
            if "top_p" in m:
                updates["top_p"] = float(m["top_p"])
            if "temperature" in m:
                updates["temperature"] = float(m["temperature"])
            if "reasoning_effort" in m:
                updates["reasoning_effort"] = str(m["reasoning_effort"])
            config = replace(config, **updates)
        if not config.replay and not config.endpoint_url:
            raise ConfigError(
                f"model {config.name}: live mode needs endpoint_url")
        models.append(config)

    output_cfg = data.get("output", {})
    return RunConfig(
        corpus_root=rel(corpus_cfg["root"]) if "root" in corpus_cfg else None,
        manifest_path=rel(corpus_cfg["manifest"]) if "manifest" in corpus_cfg else None,
        categories=categories,
        exclusions=rel(corpus_cfg["exclusions"]) if "exclusions" in corpus_cfg else None,
        sidecar=rel(corpus_cfg["sidecar"]) if "sidecar" in corpus_cfg else None,
        models=models,
        eval=config_eval,
        checker=config_checker,
        validator=validator,
        output_dir=rel(output_cfg.get("dir", "out")),
        prompt_kind=str(data.get("run", {}).get("prompt", "termination")),
    )


def _read_corpus_file(what: str, read, path: Path | None):
    """``read(path)``; a file that cannot be read or used raises
    :class:`ConfigError` naming it."""
    try:
        return read(path)
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise ConfigError(f"{what} {path}: {exc}")


def _ingest(root: Path, categories: set[Category] | None,
            exclusions: Path | None, sidecar: Path | None,
            ) -> corpus_mod.ManifestLoad:
    """The tasks under ``root``, with the given exclusions and sidecar files
    (the packaged exclusions and no sidecar when ``None``)."""
    excluded = _read_corpus_file("exclusions", corpus_mod.load_exclusions,
                                 exclusions)
    counts = (_read_corpus_file("sidecar", corpus_mod.load_sidecar, sidecar)
              if sidecar is not None else None)
    try:
        return corpus_mod.load_manifest(root, categories, exclusions=excluded,
                                        sidecar=counts)
    except corpus_mod.IngestError as exc:
        raise ConfigError(str(exc))


def _load_manifest_for(config: RunConfig) -> CorpusManifest:
    if config.manifest_path is not None:
        return _read_corpus_file("manifest", corpus_mod.manifest_from_json,
                                 config.manifest_path)
    if config.corpus_root is None:
        raise ConfigError("config needs corpus.root or corpus.manifest")
    load = _ingest(config.corpus_root, config.categories, config.exclusions,
                   config.sidecar)
    for task_id, message in load.report.errors:
        click.echo(f"warning: {task_id}: {message}", err=True)
    return load.manifest


@click.group()
def main():
    """Evaluate termination-prediction oracles on C termination tasks."""


# ---------------------------------------------------------------------------
# ingest


@main.command()
@click.argument("root", type=click.Path(path_type=Path))
@click.option("-o", "--out", type=click.Path(path_type=Path),
              help="Write the manifest JSON here.")
@click.option("--category", "category_names", multiple=True,
              type=click.Choice([c.value for c in Category]))
@click.option("--exclusions", type=click.Path(path_type=Path, exists=True))
@click.option("--sidecar", type=click.Path(path_type=Path, exists=True),
              help="JSON file mapping task_id to exact token count.")
def ingest(root: Path, out: Path | None, category_names, exclusions, sidecar):
    """Ingest a benchmark tree into a manifest and print category counts."""
    categories = ({Category(c) for c in category_names}
                  if category_names else None)
    load = _ingest(root, categories, exclusions, sidecar)
    manifest, report = load.manifest, load.report
    for note in report.notes:
        click.echo(f"note: {note}", err=True)
    for task_id, message in report.errors:
        click.echo(f"warning: {task_id}: {message}", err=True)

    click.echo(f"{'category':<18} {'tasks':>6}")
    category_counts = manifest.category_counts
    for category in Category:
        if category in category_counts:
            click.echo(f"{category.value:<18} {category_counts[category]:>6}")
    click.echo(f"{'total':<18} {len(manifest.tasks):>6}")
    labels = manifest.label_counts
    click.echo(f"labels: T={labels['T']} NT={labels['NT']}")
    if report.skipped_excluded:
        click.echo(f"excluded: {report.skipped_excluded}")
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(corpus_mod.manifest_to_json(manifest), encoding="utf-8")
        click.echo(f"manifest written to {out}")
    if report.errors:
        sys.exit(1)


# ---------------------------------------------------------------------------
# run


@main.command()
@click.option("-c", "--config", "config_path", required=True,
              type=click.Path(path_type=Path, exists=True))
@click.option("--run-id", default="default", show_default=True)
@click.option("--jobs", default=4, show_default=True)
def run(config_path: Path, run_id: str, jobs: int):
    """Query every configured model on every task (resumable, cached)."""
    config = load_config(config_path)
    if not config.models:
        _fail("no models configured", 2)
    manifest = _load_manifest_for(config)
    run_dir = config.output_dir / "runs" / run_id
    run_dir.mkdir(parents=True, exist_ok=True)

    build_prompt = (oracle.build_precondition_prompt
                    if config.prompt_kind == "precondition"
                    else oracle.build_termination_prompt)

    failures = 0
    for model in config.models:
        click.echo(f"model {model.name}: {len(manifest.tasks)} tasks "
                   f"x {config.eval.pool_size} generations")

        def work(task):
            try:
                oracle.generate(model, build_prompt(task),
                                config.eval.pool_size,
                                run_dir=run_dir, task_id=task.task_id)
                return None
            except oracle.AuthError:
                raise
            except Exception as exc:  # per-task failures do not stop the run
                return f"{task.task_id}: {exc}"

        try:
            with ThreadPoolExecutor(max_workers=max(jobs, 1)) as pool:
                for error in pool.map(work, manifest.tasks):
                    if error is not None:
                        failures += 1
                        click.echo(f"warning: {error}", err=True)
        except oracle.AuthError as exc:
            _fail(f"model {model.name}: {exc}", 1)
    click.echo(f"run cached under {run_dir}")
    if failures:
        click.echo(f"{failures} task(s) failed; rerun to fill gaps", err=True)
        sys.exit(1)


# ---------------------------------------------------------------------------
# check-witness


def _describe_feasibility(result) -> str:
    if isinstance(result, ProvenInfinite):
        env = {name: value for name, value in result.state.env}
        return (f"ProvenInfinite: state at line {result.state.location} repeats "
                f"with env {env} under assignment {result.assignment}")
    if isinstance(result, BoundedEvidence):
        return (f"BoundedEvidence: {result.cycles} cycles completed under "
                f"assignment {result.assignment}")
    if isinstance(result, Infeasible):
        return f"Infeasible: edge {result.edge_id} cannot be satisfied"
    return f"Unknown: {result.reason}"


@main.command("check-witness")
@click.argument("program_path", type=click.Path(path_type=Path, exists=True))
@click.argument("witness_path", type=click.Path(path_type=Path, exists=True))
@click.option("--emit", type=click.Path(path_type=Path),
              help="Write validated witness as GraphML here.")
@click.option("--clock", default="1970-01-01T00:00:00Z", show_default=True,
              help="Pinned creationtime for GraphML output.")
@click.option("--validate", "do_validate", is_flag=True,
              help="Also drive the external validator (needs -c config).")
@click.option("-c", "--config", "config_path",
              type=click.Path(path_type=Path, exists=True))
@click.option("--architecture", default="32bit",
              type=click.Choice(["32bit", "64bit"]))
def check_witness(program_path: Path, witness_path: Path, emit: Path | None,
                  clock: str, do_validate: bool, config_path: Path | None,
                  architecture: str):
    """Validate a witness JSON against a program and check feasibility."""
    raw = witness_path.read_text(encoding="utf-8")
    parsed = parse_prediction(raw)
    if isinstance(parsed, FormatError):
        click.echo(f"format error: {parsed.message}")
        sys.exit(1)
    if parsed.witness is None:
        click.echo(f"prediction carries no witness "
                   f"(verdict {parsed.verdict.value})")
        sys.exit(1)

    violations = validate_schema(parsed.witness)
    if violations:
        for v in violations:
            click.echo(f"schema violation: {v}")
        sys.exit(1)
    click.echo("schema: ok")

    source = program_path.read_text(encoding="utf-8")
    try:
        program = parse_program(source)
    except CParseError as exc:
        click.echo(f"program does not parse: {exc}")
        sys.exit(1)
    checker_cfg = CheckerConfig()
    if config_path is not None:
        checker_cfg = load_config(config_path).checker

    lasso_path = extract_lasso(parsed.witness)
    if isinstance(lasso_path, lasso.NoLasso):
        click.echo(f"no lasso: {lasso_path.reason}")
        sys.exit(1)
    click.echo(f"lasso: stem {[e.id for e in lasso_path.stem]} "
               f"cycle {[e.id for e in lasso_path.cycle]}")

    result = check_feasibility(program, lasso_path, checker_cfg)
    click.echo(_describe_feasibility(result))

    exit_code = 0 if isinstance(result, (ProvenInfinite, BoundedEvidence)) else 1

    graphml_path = emit
    scratch = None
    if do_validate and graphml_path is None:
        scratch = tempfile.TemporaryDirectory(prefix="termeval-witness-")
        graphml_path = Path(scratch.name) / "witness.graphml"
    try:
        if graphml_path is not None:
            arch = (corpus_mod.Architecture.BITS64 if architecture == "64bit"
                    else corpus_mod.Architecture.BITS32)
            task = corpus_mod.TaskSpec(
                task_id=program_path.stem, source_path=program_path,
                source=source,
                category=Category.OTHER, expected_verdict="NT",
                architecture=arch,
                token_count=corpus_mod.heuristic_token_count(source))
            graphml_path.parent.mkdir(parents=True, exist_ok=True)
            graphml_path.write_text(
                emit_graphml(parsed.witness, task,
                             ProducerMeta(creationtime=clock)),
                encoding="utf-8")
            if emit is not None:
                click.echo(f"GraphML written to {emit}")

        if do_validate:
            if config_path is None:
                _fail("--validate needs -c config with a [validator] table", 2)
            vcfg = load_config(config_path).validator
            if vcfg is None:
                _fail("config has no [validator] table", 2)
            vresult = run_external_validator(program_path, graphml_path, vcfg)
            click.echo(f"external validator: {vresult.status.value}")
            if vresult.status is not ValidationStatus.VALIDATED:
                exit_code = 1
    finally:
        if scratch is not None:
            scratch.cleanup()
    sys.exit(exit_code)


# ---------------------------------------------------------------------------
# score


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def witness_status_for(prediction: Prediction | FormatError,
                       program_of: Callable[[], Program | UnsupportedConstruct],
                       task, checker_cfg: CheckerConfig,
                       validator_cfg: ValidatorConfig | None,
                       statuses: dict[tuple[str, str], WitnessStatus],
                       ) -> WitnessStatus:
    """Resolve one generation's witness status for scoring.

    The external validator, when configured, is authoritative; otherwise the
    internal checker accepts witnesses it can prove or bound.  A status that
    one of them gives is kept in ``statuses`` under the task id and a sha256
    of what it read: the whole witness for the validator, the lasso's
    :func:`lasso.checker_view` for the internal checker.  So the checker runs
    once per distinct (task, lasso view), and ``program_of``, which gives the
    task's program, is called only when it runs.
    """
    if isinstance(prediction, FormatError):
        return WitnessStatus.ABSENT
    if prediction.verdict is not Verdict.NT or prediction.witness is None:
        return WitnessStatus.ABSENT
    witness = prediction.witness
    if validate_schema(witness):
        return WitnessStatus.INVALID

    if validator_cfg is not None:
        key = (task.task_id, _digest(witness))
        if key not in statuses:
            graphml = emit_graphml(witness, task, ProducerMeta())
            with tempfile.TemporaryDirectory(prefix="termeval-validate-") as tmp:
                target = Path(tmp) / "witness.graphml"
                target.write_text(graphml, encoding="utf-8")
                result = run_external_validator(task.source_path, target,
                                                validator_cfg)
            statuses[key] = (WitnessStatus.VALID
                             if result.status is ValidationStatus.VALIDATED
                             else WitnessStatus.INVALID)
        return statuses[key]

    lasso_path = extract_lasso(witness)
    if not isinstance(lasso_path, LassoPath):
        return WitnessStatus.INVALID
    key = (task.task_id, _digest(checker_view(lasso_path)))
    if key not in statuses:
        program = program_of()
        valid = isinstance(program, Program) and isinstance(
            check_feasibility(program, lasso_path, checker_cfg),
            (ProvenInfinite, BoundedEvidence))
        statuses[key] = WitnessStatus.VALID if valid else WitnessStatus.INVALID
    return statuses[key]


def _parse_task_program(task) -> Program | UnsupportedConstruct:
    """The task's program; one that does not parse counts as unsupported."""
    try:
        return parse_program(task.source)
    except CParseError:
        return UnsupportedConstruct(1, "parse error")


def build_pools(manifest: CorpusManifest, run_dir: Path, model_name: str,
                config: RunConfig,
                statuses: dict[tuple[str, str], WitnessStatus] | None = None,
                ) -> tuple[dict[str, list[PoolEntry]], ConfusionCounts,
                           list[tuple[str, evalcore.SampleOutcome]]]:
    """Per-task pools plus per-generation confusion counts and outcomes.

    Tasks are pooled one after another in manifest order.  Pass the same
    ``statuses`` dict for every model of a run to check each distinct (task,
    lasso view) once in the run (see :func:`witness_status_for`).  A task's
    program is parsed at most once per pool, and only if a witness's lasso
    view is not yet in ``statuses``.
    """
    statuses = {} if statuses is None else statuses
    pools: dict[str, list[PoolEntry]] = {}
    confusion = ConfusionCounts()
    generation_outcomes: list[tuple[str, evalcore.SampleOutcome]] = []
    for task in manifest.tasks:
        expected = Verdict.T if task.expected_verdict == "T" else Verdict.NT
        program_of = functools.cache(functools.partial(_parse_task_program, task))
        entries = []
        for record in oracle.replay_records(run_dir, model_name, task.task_id):
            parsed = record.parsed
            verdict = (Verdict.UNK if isinstance(parsed, FormatError)
                       else parsed.verdict)
            status = WitnessStatus.ABSENT
            if verdict is Verdict.NT:
                status = witness_status_for(parsed, program_of, task,
                                            config.checker, config.validator,
                                            statuses)
            outcome = classify_sample(expected, verdict, status)
            confusion.add(expected, outcome)
            generation_outcomes.append((task.task_id, outcome))
            entries.append(PoolEntry(verdict, status))
        pools[task.task_id] = entries
    return pools, confusion, generation_outcomes


@main.command()
@click.argument("run_dir", type=click.Path(path_type=Path, exists=True))
@click.option("-c", "--config", "config_path", required=True,
              type=click.Path(path_type=Path, exists=True))
@click.option("-o", "--out", type=click.Path(path_type=Path),
              help="Report directory (default: alongside the run).")
def score(run_dir: Path, config_path: Path, out: Path | None):
    """Score a cached run: bootstrap, consensus, F1, witness metrics, bins."""
    config = load_config(config_path)
    manifest = _load_manifest_for(config)
    if not manifest.tasks:
        _fail("manifest has no tasks", 1)

    expected = {t.task_id: (Verdict.T if t.expected_verdict == "T" else Verdict.NT)
                for t in manifest.tasks}
    categories = {t.task_id: t.category.value for t in manifest.tasks}
    binning = (corpus_mod.assign_length_bins(manifest)
               if len(manifest.tasks) >= 3 else None)

    model_names = oracle.list_models(run_dir)
    if not model_names:
        _fail(f"no model directories under {run_dir}", 1)
    out_dir = out if out is not None else run_dir / "report"
    out_dir.mkdir(parents=True, exist_ok=True)

    reports = []
    statuses: dict[tuple[str, str], WitnessStatus] = {}
    for model_name in model_names:
        pools, confusion, generation_outcomes = build_pools(
            manifest, run_dir, model_name, config, statuses=statuses)
        incomplete = [t for t, pool in sorted(pools.items())
                      if len(pool) != config.eval.pool_size]
        if incomplete:
            _fail(f"model {model_name}: incomplete pools for "
                  f"{incomplete[:5]}{'...' if len(incomplete) > 5 else ''}", 1)
        bin_means = (score_by_length_bin(generation_outcomes, binning)
                     if binning is not None else {})
        reports.append(ModelReport(
            model=model_name,
            single=bootstrap_eval(pools, expected, categories, config.eval,
                                  "single"),
            tts=bootstrap_eval(pools, expected, categories, config.eval, "tts"),
            witness=witness_metrics(confusion),
            unk_rate=unknown_rates(pools, config.eval),
            bin_means=bin_means,
        ))

    report = EvalReport(
        models=reports,
        config=config.eval,
        witness_check_mode=("external-validator" if config.validator
                            else "internal-checker"),
    )
    (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
    (out_dir / "report.txt").write_text(report.to_text(), encoding="utf-8")
    (out_dir / "per_run_scores.csv").write_text(report.per_run_csv(),
                                                encoding="utf-8")
    click.echo(report.to_text())
    click.echo(f"reports written to {out_dir}")


# ---------------------------------------------------------------------------
# precond


def extract_precondition_answer(raw: str) -> str:
    """The formula is the tagged answer when present, else the last
    nonempty line.

    A tagged answer runs from ``<answer>`` to the first ``</answer>`` after
    it; the last one wins.  The scan stops at the first ``<answer>`` that no
    ``</answer>`` follows, so it reads the text once, however many tags are
    left open.
    """
    answer = None
    start = raw.find("<answer>")
    while start >= 0:
        start += len("<answer>")
        end = raw.find("</answer>", start)
        if end < 0:
            break
        answer = raw[start:end]
        start = raw.find("<answer>", end + len("</answer>"))
    if answer is not None:
        return answer.strip()
    lines = [line.strip() for line in raw.splitlines() if line.strip()]
    return lines[-1] if lines else ""


def _read_annotations(path: Path) -> dict[str, str]:
    """The task-id -> formula map in the JSON file ``path``; a file of any
    other shape exits 2."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        _fail(f"{path}: cannot read annotations: {exc}", 2)
    if not isinstance(data, dict):
        _fail(f"{path}: annotations must map task ids to formulas", 2)
    for task_id, text in data.items():
        if not isinstance(text, str):
            _fail(f"{path}: annotation for {task_id} is not a string", 2)
    return data


@main.command("precond")
@click.argument("run_dir", type=click.Path(path_type=Path, exists=True))
@click.argument("annotations", type=click.Path(path_type=Path, exists=True))
@click.option("-c", "--config", "config_path", required=True,
              type=click.Path(path_type=Path, exists=True))
@click.option("--mode", default="brute", show_default=True,
              type=click.Choice(["brute", "smt", "both"]))
@click.option("-o", "--out", type=click.Path(path_type=Path))
def precond_cmd(run_dir: Path, annotations: Path, config_path: Path,
                mode: str, out: Path | None):
    """Pass@1 / Pass@3 of divergence-precondition predictions."""
    config = load_config(config_path)
    manifest = _load_manifest_for(config)
    truth_raw = _read_annotations(annotations)

    model_names = oracle.list_models(run_dir)
    if not model_names:
        _fail(f"no model directories under {run_dir}", 1)

    # each task's program and annotation are parsed once, and each distinct
    # formula is judged once, for every model
    truths = []
    for task_id, truth_text in sorted(truth_raw.items()):
        # a program that does not parse leaves the annotation to name the
        # variables
        try:
            task = manifest.task(task_id)
        except KeyError:
            _fail(f"{annotations}: task {task_id} is not in the corpus", 2)
        program = _parse_task_program(task)
        if isinstance(program, Program):
            variables = {site.name: site.ctype for site in program.nondet_vars}
        else:
            variables = {}
        try:
            truth = precond.parse_precondition(
                truth_text, set(variables) if variables else None)
        except precond.PrecondParseError as exc:
            _fail(f"{annotations}: annotation for {task_id} does not parse: "
                  f"{exc}", 2)
        if not variables:
            variables = {name: INT for name in precond.variables_of(truth)}
        truths.append((task_id, truth, variables, {}))

    results = {}
    for model_name in model_names:
        per_task = {}
        pass1, pass3 = [], []
        for task_id, truth, variables, judged in truths:
            records = oracle.replay_records(run_dir, model_name, task_id)
            if not records:
                _fail(f"model {model_name}: no generations for {task_id}", 1)
            generations = [extract_precondition_answer(r.raw_text)
                           for r in records]
            n = len(generations)
            correct = precond.count_equivalent(generations, truth, variables,
                                               mode, judged)
            p1 = pass_at_k(n, correct, 1)
            p3 = pass_at_k(n, correct, min(3, n))
            per_task[task_id] = {"pass@1": p1, "pass@3": p3}
            pass1.append(p1)
            pass3.append(p3)
        results[model_name] = {
            "mean_pass@1": sum(pass1) / len(pass1) if pass1 else 0.0,
            "mean_pass@3": sum(pass3) / len(pass3) if pass3 else 0.0,
            "per_task": per_task,
        }
        click.echo(f"{model_name:<24} Pass@1 {results[model_name]['mean_pass@1']:.3f}"
                   f"  Pass@3 {results[model_name]['mean_pass@3']:.3f}")

    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        click.echo(f"report written to {out}")


if __name__ == "__main__":
    main()
