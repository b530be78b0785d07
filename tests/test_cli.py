import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from termeval import cli, oracle
from termeval import corpus as corpus_mod
from termeval.cli import extract_precondition_answer, load_config, main
from termeval.cparse import Program, UnsupportedConstruct
from termeval.lasso import (
    LassoPath, ValidatorConfig, checker_view, extract_lasso,
)
from termeval.witness import FormatError, Verdict, _as_flag, validate_schema

from conftest import FIXTURES


@pytest.fixture
def runner():
    return CliRunner()


def copy_fixture_workspace(tmp_path: Path) -> Path:
    """Isolated copy of corpus + cached run + config, so commands can write."""
    shutil.copytree(FIXTURES / "corpus", tmp_path / "corpus")
    shutil.copytree(FIXTURES / "runs", tmp_path / "runs")
    shutil.copy(FIXTURES / "score_config.toml", tmp_path / "score_config.toml")
    return tmp_path


REPLAY_MODEL = '[[models]]\nname = "m"\nmode = "replay"'


def run_python(script: str, *args: str) -> subprocess.CompletedProcess:
    """``script`` run by a fresh interpreter that imports from ``src``."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=str(src)))


class TestLoadConfig:
    def test_fixture_config(self):
        config = load_config(FIXTURES / "score_config.toml")
        assert config.eval.pool_size == 3
        assert config.eval.rng_seed == 20250809
        assert config.checker.nondet_domain == (-16, 16)
        assert config.corpus_root == FIXTURES / "corpus"
        assert config.validator is None
        assert config.prompt_kind == "termination"

    def test_relative_paths_resolve_from_config(self, tmp_path):
        (tmp_path / "conf").mkdir()
        config_path = tmp_path / "conf" / "c.toml"
        config_path.write_text('[corpus]\nroot = "../data"\n')
        config = load_config(config_path)
        assert config.corpus_root == tmp_path / "conf" / ".." / "data"

    def test_model_presets(self, tmp_path):
        config_path = tmp_path / "c.toml"
        config_path.write_text(
            '[corpus]\nroot = "x"\n'
            '[[models]]\nname = "m"\nendpoint_url = "http://e"\n'
            'preset = "reasoning-medium"\n')
        config = load_config(config_path)
        assert config.models[0].reasoning_effort == "medium"
        assert config.models[0].temperature is None

    def test_live_model_requires_endpoint(self, tmp_path):
        import click
        config_path = tmp_path / "c.toml"
        config_path.write_text('[corpus]\nroot = "x"\n[[models]]\nname = "m"\n')
        with pytest.raises(click.ClickException):
            load_config(config_path)

    @pytest.mark.parametrize("body, message", [
        ('[[models]]\nname = "org/model"\nmode = "replay"',
         "bad model name 'org/model'"),
        ('[[models]]\nname = "a\\\\b"\nmode = "replay"', "bad model name"),
        ('[[models]]\nname = ".."\nmode = "replay"', "bad model name '..'"),
        ('[[models]]\nname = ""\nmode = "replay"', "bad model name ''"),
        ('[[models]]\nmode = "replay"', "missing 'name'"),
        ('[[models]]\nname = "m"\nmode = "replay"\ntop_p = 2', "top_p"),
        ('[[models]]\nname = "m"\nmode = "replay"\npreset = "hot"',
         "unknown sampling preset"),
        ('[eval]\npool_size = 5\ntts_n = 10', "tts_n must not exceed"),
        ('[eval]\npool_size = "many"', "'many'"),
        ('[eval]\npool_size = 0', "pool_size must be >= 1"),
        ('[eval]\ntts_n = 0', "tts_n must be >= 1"),
        ('[eval]\ntts_n = -1', "tts_n must be >= 1"),
        ('[checker]\ndomain = 3', "not subscriptable"),
        ("[eval\n", "c.toml"),
        ("deep = " + "[" * 5000 + "]" * 5000, "c.toml"),
        # the config loads, but a corpus file it names does not
        (REPLAY_MODEL, "corpus root"),
        (f'manifest = "m.json"\n{REPLAY_MODEL}', "manifest"),
        (f'exclusions = "ex.txt"\n{REPLAY_MODEL}', "exclusions"),
        (f'sidecar = "list.json"\n{REPLAY_MODEL}', "list.json"),
        (f'sidecar = "word.json"\n{REPLAY_MODEL}', "word.json"),
    ], ids=["slash", "backslash", "dot-dot", "empty-name", "no-name", "top-p",
            "preset", "tts-n", "pool-size", "pool-size-0", "tts-n-0",
            "tts-n-negative", "domain", "bad-toml", "deep-toml",
            "no-corpus-root", "no-manifest", "no-exclusions", "sidecar-list",
            "sidecar-word"])
    def test_bad_config_exits_2(self, runner, tmp_path, body, message):
        (tmp_path / "list.json").write_text("[1, 2]")
        (tmp_path / "word.json").write_text('{"a": "x"}')
        config_path = tmp_path / "c.toml"
        config_path.write_text(f'[corpus]\nroot = "x"\n{body}\n')
        result = runner.invoke(main, ["run", "-c", str(config_path)])
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit)
        assert message in result.output


    def test_manifest_with_unknown_verdict_exits_2(self, runner, tmp_path):
        manifest = corpus_mod.load_manifest(FIXTURES / "corpus").manifest
        payload = json.loads(corpus_mod.manifest_to_json(manifest))
        payload["tasks"][0]["expected_verdict"] = "false"
        (tmp_path / "m.json").write_text(json.dumps(payload))
        config_path = tmp_path / "c.toml"
        config_path.write_text(f'[corpus]\nmanifest = "m.json"\n{REPLAY_MODEL}\n')
        result = runner.invoke(main, ["run", "-c", str(config_path)])
        assert result.exit_code == 2, result.output
        assert "expected_verdict" in result.output


class TestIngestCommand:
    def test_counts_table(self, runner):
        result = runner.invoke(main, ["ingest", str(FIXTURES / "corpus")])
        assert "BitVectors" in result.output
        assert "MainControlFlow" in result.output
        assert "total" in result.output
        assert "labels: T=1 NT=5" in result.output
        # the ghost task has no source file: collected error, exit 1
        assert result.exit_code == 1

    def test_manifest_written(self, runner, tmp_path):
        workspace = copy_fixture_workspace(tmp_path)
        (workspace / "corpus" / "misc" / "ghost.yml").unlink()
        out = tmp_path / "manifest.json"
        result = runner.invoke(main, ["ingest", str(workspace / "corpus"),
                                      "-o", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert len(payload["tasks"]) == 6
        assert payload["category_counts"]["MainControlFlow"] == 3

    def test_empty_dir(self, runner, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = runner.invoke(main, ["ingest", str(empty)])
        assert result.exit_code == 0
        assert "total" in result.output

    def test_bad_path_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["ingest", str(tmp_path / "missing")])
        assert result.exit_code == 2


class TestCheckWitnessCommand:
    def test_feasible_witness_exit_0(self, runner):
        result = runner.invoke(main, [
            "check-witness",
            str(FIXTURES / "programs" / "absorb_to_zero.c"),
            str(FIXTURES / "witnesses" / "absorb_to_zero.json"),
        ])
        assert result.exit_code == 0, result.output
        assert "schema: ok" in result.output
        assert "ProvenInfinite" in result.output

    def test_duplicate_id_exit_1(self, runner, tmp_path):
        data = json.loads(
            (FIXTURES / "witnesses" / "even_spin.json").read_text())
        data["witness"]["edges"][1]["id"] = "E0"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        result = runner.invoke(main, [
            "check-witness", str(FIXTURES / "programs" / "even_spin.c"),
            str(bad),
        ])
        assert result.exit_code == 1
        assert "DuplicateEdgeId" in result.output

    def test_program_that_does_not_lex_exit_1(self, runner, tmp_path):
        program = tmp_path / "even_spin.c"
        program.write_text((FIXTURES / "programs" / "even_spin.c").read_text()
                           + "/* unterminated\n")
        result = runner.invoke(main, [
            "check-witness", str(program),
            str(FIXTURES / "witnesses" / "even_spin.json"),
        ])
        assert result.exit_code == 1
        assert "program does not parse: line" in result.output
        assert "unterminated comment" in result.output
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit)

    def test_emit_deterministic(self, runner, tmp_path):
        out_a = tmp_path / "a.graphml"
        out_b = tmp_path / "b.graphml"
        for out in (out_a, out_b):
            result = runner.invoke(main, [
                "check-witness", str(FIXTURES / "programs" / "even_spin.c"),
                str(FIXTURES / "witnesses" / "even_spin.json"),
                "--emit", str(out), "--clock", "2025-06-01T12:00:00Z",
            ])
            assert result.exit_code == 0, result.output
        assert out_a.read_bytes() == out_b.read_bytes()
        assert b"2025-06-01T12:00:00Z" in out_a.read_bytes()

    def test_validate_without_emit_uses_scratch_file(self, runner, tmp_path):
        import stat
        validator_root = tmp_path / "validator"
        validator_root.mkdir()
        script = validator_root / "Ultimate.py"
        script.write_text("#!/bin/sh\necho FALSE\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        config = tmp_path / "c.toml"
        config.write_text('[corpus]\nroot = "."\n'
                          f'[validator]\nroot = "{validator_root}"\n')
        result = runner.invoke(main, [
            "check-witness",
            str(FIXTURES / "programs" / "absorb_to_zero.c"),
            str(FIXTURES / "witnesses" / "absorb_to_zero.json"),
            "--validate", "-c", str(config),
        ])
        assert result.exit_code == 0, result.output
        assert "external validator: validated" in result.output

    def test_infeasible_exit_1(self, runner, tmp_path):
        data = json.loads(
            (FIXTURES / "witnesses" / "even_spin.json").read_text())
        data["witness"]["edges"][2]["assumption"] = "x % 2 == 1"
        bad = tmp_path / "mutated.json"
        bad.write_text(json.dumps(data))
        result = runner.invoke(main, [
            "check-witness", str(FIXTURES / "programs" / "even_spin.c"),
            str(bad),
        ])
        assert result.exit_code == 1
        assert "Infeasible" in result.output


class TestTaskProgram:
    def test_source_that_does_not_lex_is_a_parse_error(self):
        task = SimpleNamespace(source="int main() { return 0; } /* open\n")
        assert cli._parse_task_program(task) == UnsupportedConstruct(
            1, "parse error")

    def test_a_fault_in_the_parser_propagates(self, monkeypatch):
        def broken(source):
            raise TypeError("parser bug")

        monkeypatch.setattr(cli, "parse_program", broken)
        task = SimpleNamespace(source="int main() { return 0; }\n")
        with pytest.raises(TypeError, match="parser bug"):
            cli._parse_task_program(task)


def _write_replies(run_dir: Path, model: str, task_id: str,
                   replies: list[str]) -> None:
    task_dir = run_dir / model / task_id
    task_dir.mkdir(parents=True)
    for i, raw_text in enumerate(replies):
        (task_dir / f"{i}.json").write_text(json.dumps({
            "model": model, "task_id": task_id, "sample_index": i,
            "raw_text": raw_text, "prompt_hash": "test", "latency": 0.0,
            "timestamp": 0.0}))


class TestTaskPool:
    """A task's program is parsed only for a witness the internal checker
    will read, and at most once per pool."""

    VALID = (FIXTURES / "witnesses" / "even_spin.json").read_text()
    NO_ENTRY = json.dumps({"verdict": False, "witness": {
        "nodes": [{"id": "N0", "cyclehead": "true"}],
        "edges": [{"id": "E0", "source": "N0", "target": "N0", "line": 9,
                   "sourcecode": "x"}]}})
    NO_EDGE_LINE = VALID.replace('"line": 3, ', "")

    def pools_and_parses(self, tmp_path, monkeypatch, replies, validator=None):
        workspace = copy_fixture_workspace(tmp_path)
        run_dir = workspace / "runs" / "demo"
        _write_replies(run_dir, "m", "bitvector-spin/even_spin", replies)
        parsed = []
        parse_program = cli.parse_program

        def counting(source):
            parsed.append(source)
            return parse_program(source)

        monkeypatch.setattr(cli, "parse_program", counting)
        config = load_config(workspace / "score_config.toml")
        config = dataclasses.replace(config, validator=validator)
        manifest = cli._load_manifest_for(config)
        pools, _, _ = cli.build_pools(manifest, run_dir, "m", config)
        return pools["bitvector-spin/even_spin"], len(parsed)

    @pytest.mark.parametrize("replies, statuses", [
        (['{"verdict": false}', '{"verdict": true}', "no answer"],
         ["absent"] * 3),
        ([NO_ENTRY, NO_EDGE_LINE, '{"verdict": false}'],
         ["invalid", "invalid", "absent"]),
    ], ids=["no-witness", "schema-invalid"])
    def test_unchecked_witnesses_parse_no_program(self, tmp_path, monkeypatch,
                                                  replies, statuses):
        pool, parses = self.pools_and_parses(tmp_path, monkeypatch, replies)
        assert [e.witness_status.value for e in pool] == statuses
        assert parses == 0

    def test_checked_witnesses_parse_the_program_once(self, tmp_path,
                                                      monkeypatch):
        other = self.VALID.replace('"x = x + 2"', '"x += 2"')
        pool, parses = self.pools_and_parses(
            tmp_path, monkeypatch, [self.VALID, other, self.NO_ENTRY])
        assert [e.witness_status.value for e in pool] == \
            ["valid", "valid", "invalid"]
        assert parses == 1

    def test_surface_variants_are_checked_once(self, tmp_path, monkeypatch):
        # other node and edge names, source text, loop-head mark and flag
        # spelling leave what the checker reads as it was
        data = json.loads(self.VALID)
        witness = data["witness"]
        names = {n["id"]: f"q{i}" for i, n in enumerate(witness["nodes"])}
        for node in witness["nodes"]:
            node["id"] = names[node["id"]]
            for flag in ("entry", "cyclehead"):
                if flag in node:
                    node[flag] = " TRUE " if _as_flag(node[flag]) else "no"
        for edge in witness["edges"]:
            edge["id"] = "e" + edge["id"]
            edge["source"] = names[edge["source"]]
            edge["target"] = names[edge["target"]]
            edge["sourcecode"] = "/* renamed */"
            edge["enterLoopHead"] = not _as_flag(edge.get("enterLoopHead"))
        checks = []
        check_feasibility = cli.check_feasibility

        def counting(*args):
            checks.append(args)
            return check_feasibility(*args)

        monkeypatch.setattr(cli, "check_feasibility", counting)
        pool, parses = self.pools_and_parses(
            tmp_path, monkeypatch, [self.VALID, json.dumps(data), self.VALID])
        assert [e.witness_status.value for e in pool] == ["valid"] * 3
        assert (len(checks), parses) == (1, 1)

    def test_external_validator_parses_no_program(self, tmp_path, monkeypatch):
        root = tmp_path / "validator"
        root.mkdir()
        script = root / "Ultimate.py"
        script.write_text("#!/bin/sh\necho 'RESULT: FALSE(TERM)'\n")
        script.chmod(0o755)
        pool, parses = self.pools_and_parses(
            tmp_path, monkeypatch, [self.VALID] * 3,
            validator=ValidatorConfig(root))
        assert [e.witness_status.value for e in pool] == ["valid"] * 3
        assert parses == 0


class TestScoreCommand:
    def test_reports_written(self, runner, tmp_path):
        workspace = copy_fixture_workspace(tmp_path)
        result = runner.invoke(main, [
            "score", str(workspace / "runs" / "demo"),
            "-c", str(workspace / "score_config.toml"),
            "-o", str(workspace / "report"),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((workspace / "report" / "report.json").read_text())
        assert {m["model"] for m in report["models"]} == {"oracle-a", "oracle-b"}
        assert report["witness_check_mode"] == "internal-checker"
        text = (workspace / "report" / "report.txt").read_text()
        assert "oracle-a" in text
        csv_text = (workspace / "report" / "per_run_scores.csv").read_text()
        assert csv_text.splitlines()[0] == "model,mode,run,score"
        # 2 models x 2 modes x 25 runs
        assert len(csv_text.splitlines()) == 1 + 2 * 2 * 25

    def test_byte_identical_reruns(self, runner, tmp_path):
        workspace = copy_fixture_workspace(tmp_path)
        outputs = []
        for label in ("first", "second"):
            out = workspace / f"report_{label}"
            result = runner.invoke(main, [
                "score", str(workspace / "runs" / "demo"),
                "-c", str(workspace / "score_config.toml"), "-o", str(out),
            ])
            assert result.exit_code == 0, result.output
            outputs.append({
                name: (out / name).read_bytes()
                for name in ("report.json", "report.txt", "per_run_scores.csv")
            })
        assert outputs[0] == outputs[1]

    def test_jobs_is_not_an_option(self, runner, tmp_path):
        # score runs its tasks in one thread; only run takes --jobs
        workspace = copy_fixture_workspace(tmp_path)
        result = runner.invoke(main, [
            "score", str(workspace / "runs" / "demo"),
            "-c", str(workspace / "score_config.toml"), "--jobs", "2",
        ])
        assert result.exit_code == 2, result.output
        assert "--jobs" in result.output

    def test_reports_match_golden_files(self, runner, tmp_path):
        # produced before the bootstrap was made table-driven; a change in
        # how the substreams are drawn or summed shows up here
        workspace = copy_fixture_workspace(tmp_path)
        result = runner.invoke(main, [
            "score", str(workspace / "runs" / "demo"),
            "-c", str(workspace / "score_config.toml"),
            "-o", str(workspace / "report"),
        ])
        assert result.exit_code == 0, result.output
        for name in ("report.json", "report.txt", "per_run_scores.csv"):
            assert (workspace / "report" / name).read_bytes() == \
                (FIXTURES / "golden" / "score" / name).read_bytes(), name

    def test_each_task_witness_pair_checked_once(self, runner, tmp_path,
                                                 monkeypatch):
        # the two fixture models share some lassos; each distinct (task,
        # lasso view) among the run's replies to a task whose program the
        # checker can run is checked exactly once
        workspace = copy_fixture_workspace(tmp_path)
        run_dir = workspace / "runs" / "demo"
        config = load_config(workspace / "score_config.toml")
        tasks = [task for task in cli._load_manifest_for(config).tasks
                 if isinstance(cli._parse_task_program(task), Program)]
        expected = set()
        for model in oracle.list_models(run_dir):
            for task in tasks:
                for record in oracle.replay_records(run_dir, model,
                                                    task.task_id):
                    parsed = record.parsed
                    if (isinstance(parsed, FormatError)
                            or parsed.verdict is not Verdict.NT
                            or parsed.witness is None
                            or validate_schema(parsed.witness)):
                        continue
                    lasso_path = extract_lasso(parsed.witness)
                    if isinstance(lasso_path, LassoPath):
                        expected.add((task.task_id, checker_view(lasso_path)))

        programs = {}  # id -> (program, task id); kept, so no id is reused
        checked = []
        parse_task_program = cli._parse_task_program
        check_feasibility = cli.check_feasibility

        def parsing(task):
            program = parse_task_program(task)
            programs[id(program)] = (program, task.task_id)
            return program

        def checking(program, lasso_path, *args):
            checked.append((programs[id(program)][1], checker_view(lasso_path)))
            return check_feasibility(program, lasso_path, *args)

        monkeypatch.setattr(cli, "_parse_task_program", parsing)
        monkeypatch.setattr(cli, "check_feasibility", checking)
        result = runner.invoke(main, [
            "score", str(run_dir), "-c", str(workspace / "score_config.toml"),
            "-o", str(workspace / "report"),
        ])
        assert result.exit_code == 0, result.output
        assert len(checked) == len(set(checked))
        assert set(checked) == expected

    def test_default_report_dir_is_not_a_model(self, runner, tmp_path):
        workspace = copy_fixture_workspace(tmp_path)
        run_dir = workspace / "runs" / "demo"
        for _ in range(2):
            result = runner.invoke(main, [
                "score", str(run_dir),
                "-c", str(workspace / "score_config.toml"),
            ])
            assert result.exit_code == 0, result.output
            report = json.loads((run_dir / "report" / "report.json").read_text())
            assert [m["model"] for m in report["models"]] == \
                ["oracle-a", "oracle-b"]

    def test_default_report_dir_is_not_read_by_a_later_score(self, runner,
                                                             tmp_path):
        workspace = copy_fixture_workspace(tmp_path)
        run_dir = workspace / "runs" / "demo"
        config = str(workspace / "score_config.toml")
        result = runner.invoke(main, ["score", str(run_dir), "-c", config])
        assert result.exit_code == 0, result.output
        other = workspace / "other"
        result = runner.invoke(main, ["score", str(run_dir), "-c", config,
                                      "-o", str(other)])
        assert result.exit_code == 0, result.output
        assert (other / "report.json").read_bytes() == \
            (run_dir / "report" / "report.json").read_bytes()

    def test_default_report_dir_is_not_read_by_precond(self, runner,
                                                       tmp_path):
        workspace = copy_fixture_workspace(tmp_path)
        run_dir = workspace / "runs" / "demo"
        config = str(workspace / "score_config.toml")
        result = runner.invoke(main, ["score", str(run_dir), "-c", config])
        assert result.exit_code == 0, result.output
        annotations = workspace / "annotations.json"
        annotations.write_text(json.dumps(
            {"bitvector-spin/even_spin": "x % 2 == 0"}))
        out = workspace / "passk.json"
        result = runner.invoke(main, ["precond", str(run_dir),
                                      str(annotations), "-c", config,
                                      "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert sorted(json.loads(out.read_text())) == ["oracle-a", "oracle-b"]

    def test_corrupt_cache_records_score_unknown(self, runner, tmp_path,
                                                 monkeypatch):
        from termeval import cli
        from termeval.evalcore import PoolEntry
        from termeval.witness import Verdict
        from test_oracle import BAD_RECORDS

        pools = {}
        build_pools = cli.build_pools

        def keep_pools(manifest, run_dir, model_name, *args, **kwargs):
            result = build_pools(manifest, run_dir, model_name, *args, **kwargs)
            pools[model_name] = result[0]
            return result

        monkeypatch.setattr(cli, "build_pools", keep_pools)
        workspace = copy_fixture_workspace(tmp_path)
        model_dir = workspace / "runs" / "demo" / "oracle-b"
        victims = [model_dir / "control-loops" / "count_to_ten" / f"{i}.json"
                   for i in range(3)]
        victims.append(model_dir / "misc" / "heap_user" / "1.json")
        for victim, kind in zip(victims, ["raw text not a string",
                                          "list payload", "no task id",
                                          "truncated"]):
            victim.write_text(BAD_RECORDS[kind])
        result = runner.invoke(main, [
            "score", str(workspace / "runs" / "demo"),
            "-c", str(workspace / "score_config.toml"),
            "-o", str(workspace / "report"),
        ])
        assert result.exit_code == 0, result.output
        unknown = PoolEntry(Verdict.UNK)
        assert pools["oracle-b"]["control-loops/count_to_ten"] == [unknown] * 3
        assert pools["oracle-b"]["misc/heap_user"][1] == unknown
        assert len(pools["oracle-b"]["misc/heap_user"]) == 3

    def test_incomplete_pool_exit_1(self, runner, tmp_path):
        workspace = copy_fixture_workspace(tmp_path)
        victim = (workspace / "runs" / "demo" / "oracle-a" /
                  "control-loops" / "count_to_ten" / "2.json")
        victim.unlink()
        result = runner.invoke(main, [
            "score", str(workspace / "runs" / "demo"),
            "-c", str(workspace / "score_config.toml"),
        ])
        assert result.exit_code == 1
        assert "count_to_ten" in result.stderr

    def test_external_validator_mode(self, runner, tmp_path):
        import stat
        workspace = copy_fixture_workspace(tmp_path)
        validator_root = workspace / "validator"
        validator_root.mkdir()
        script = validator_root / "Ultimate.py"
        script.write_text("#!/bin/sh\necho 'RESULT: FALSE(TERM)'\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        config = workspace / "score_config.toml"
        config.write_text(config.read_text() +
                          f'\n[validator]\nroot = "validator"\n')
        result = runner.invoke(main, [
            "score", str(workspace / "runs" / "demo"),
            "-c", str(config), "-o", str(workspace / "report"),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((workspace / "report" / "report.json").read_text())
        assert report["witness_check_mode"] == "external-validator"
        by_model = {m["model"]: m for m in report["models"]}
        # the rubber-stamp validator confirms every schema-valid witness;
        # oracle-a still has 2 witness-less NT answers among 11 correct NT
        # predictions, so validity is 9/11
        assert by_model["oracle-a"]["witness"]["validity"] == \
            pytest.approx(9 / 11)

    def test_single_mode_mean_matches_hand_computation(self, runner, tmp_path):
        # hand-derived per-sample points for the bundled oracle-a records
        # (witness statuses per the internal checker):
        #   even_spin (NT, BitVectors):  confirmed witness, bare NT, unknown
        #   absorb (NT, MCF):            three confirmed witnesses
        #   count_to_ten (T, MCF):       three correct T answers
        #   stall (NT, MCF):             confirmed, refuted witness, wrong T
        #   heap_user (NT, Other):       unconfirmable witness, unknown, junk
        #   negate (NT, Other):          two confirmed, one bare NT
        points = {
            ("BitVectors", 1): [1, 0, 0],
            ("MainControlFlow-absorb", 3): [1, 1, 1],
            ("MainControlFlow-count", 3): [2, 2, 2],
            ("MainControlFlow-stall", 3): [1, 0, -32],
            ("Other-heap", 2): [0, 0, 0],
            ("Other-negate", 2): [1, 1, 0],
        }
        # expected single-draw score by linearity: each task contributes
        # (N/k) * mean(points)/n_category with N=6, k=3
        contributions = {key: sum(vals) / 3 for key, vals in points.items()}
        exact = (6 / 3) * (
            contributions[("BitVectors", 1)] / 1
            + (contributions[("MainControlFlow-absorb", 3)]
               + contributions[("MainControlFlow-count", 3)]
               + contributions[("MainControlFlow-stall", 3)]) / 3
            + (contributions[("Other-heap", 2)]
               + contributions[("Other-negate", 2)]) / 2
        )
        assert exact == pytest.approx(-32 / 9)

        workspace = copy_fixture_workspace(tmp_path)
        config = workspace / "score_config.toml"
        config.write_text(config.read_text().replace(
            "n_bootstrap = 25", "n_bootstrap = 400"))
        result = runner.invoke(main, [
            "score", str(workspace / "runs" / "demo"),
            "-c", str(config), "-o", str(workspace / "report"),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((workspace / "report" / "report.json").read_text())
        by_model = {m["model"]: m for m in report["models"]}
        stats = by_model["oracle-a"]["svcomp_single"]
        margin = 5 * stats["std"] / (400 ** 0.5)
        assert abs(stats["mean"] - exact) < margin

    def test_sensible_scores(self, runner, tmp_path):
        workspace = copy_fixture_workspace(tmp_path)
        result = runner.invoke(main, [
            "score", str(workspace / "runs" / "demo"),
            "-c", str(workspace / "score_config.toml"),
            "-o", str(workspace / "report"),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((workspace / "report" / "report.json").read_text())
        by_model = {m["model"]: m for m in report["models"]}
        # oracle-a answers are mostly right, oracle-b flips T labels: the
        # -32 penalties must rank b below a in both modes
        assert by_model["oracle-a"]["svcomp_single"]["mean"] > \
            by_model["oracle-b"]["svcomp_single"]["mean"]
        assert by_model["oracle-a"]["witness"]["validity"] > 0


class TestBenchmarkHooks:
    def test_score_runs_under_the_span_tracer(self, tmp_path):
        # the benchmark wraps cli and evalcore functions by name and reads
        # their arguments; this fails when one of them is renamed or moved
        workspace = copy_fixture_workspace(tmp_path)
        root = Path(__file__).resolve().parent.parent
        script = (
            "import json, sys\n"
            "import spans\n"
            "from termeval import cli\n"
            "tracer = spans.Tracer()\n"
            "spans.install(tracer)\n"
            "cli.main(sys.argv[1:], standalone_mode=False)\n"
            "print(json.dumps(spans.layer_metrics(tracer)))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root / "bench")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, "score",
             str(workspace / "runs" / "demo"),
             "-c", str(workspace / "score_config.toml"),
             "-o", str(workspace / "report")],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])
        assert metrics["evalcore.bootstrap_single_s"] > 0
        assert metrics["evalcore.task_draws"] > 0


class TestImportBoundary:
    def test_cached_commands_load_no_http_stack(self, tmp_path):
        # score, precond and check-witness read only files: none of them
        # may pull in requests and urllib3
        workspace = copy_fixture_workspace(tmp_path)
        annotations = workspace / "annotations.json"
        annotations.write_text(json.dumps(
            {"bitvector-spin/even_spin": "x % 2 == 0"}))
        config = str(workspace / "score_config.toml")
        commands = [
            ["score", str(workspace / "runs" / "demo"), "-c", config,
             "-o", str(workspace / "report")],
            ["precond", str(workspace / "runs" / "demo"), str(annotations),
             "-c", config],
            ["check-witness", str(FIXTURES / "programs" / "absorb_to_zero.c"),
             str(FIXTURES / "witnesses" / "absorb_to_zero.json")],
        ]
        script = (
            "import json, sys\n"
            "from termeval import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    try:\n"
            "        cli.main(argv, standalone_mode=False)\n"
            "    except SystemExit as exc:\n"
            "        assert not exc.code, (argv, exc.code)\n"
            "print(json.dumps(sorted({'requests', 'urllib3'} & set(sys.modules))))\n")
        proc = run_python(script, json.dumps(commands))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []


def write_replay_config(workspace: Path, pool_size: int) -> Path:
    """A ``run`` config that replays the fixture run ``demo`` of oracle-a."""
    config = workspace / "run_config.toml"
    config.write_text(
        '[corpus]\nroot = "corpus"\n'
        f"[eval]\npool_size = {pool_size}\n"
        '[output]\ndir = "."\n'
        '[[models]]\nname = "oracle-a"\nmode = "replay"\n')
    return config


class TestRunCommand:
    def test_replay_run_touches_no_network(self, runner, tmp_path):
        workspace = copy_fixture_workspace(tmp_path)
        (workspace / "corpus" / "misc" / "ghost.yml").unlink()
        config = write_replay_config(workspace, pool_size=3)
        result = runner.invoke(main, ["run", "-c", str(config),
                                      "--run-id", "demo"])
        assert result.exit_code == 0, result.output

    def test_replay_run_needs_no_http_client(self, tmp_path):
        # a replay model opens no HTTP session: the run succeeds where
        # requests cannot be imported at all
        workspace = copy_fixture_workspace(tmp_path)
        (workspace / "corpus" / "misc" / "ghost.yml").unlink()
        config = write_replay_config(workspace, pool_size=3)
        script = ("import sys\n"
                  "sys.modules['requests'] = None\n"
                  "from termeval import cli\n"
                  "cli.main(sys.argv[1:])\n")
        proc = run_python(script, "run", "-c", str(config), "--run-id", "demo")
        assert proc.returncode == 0, proc.stderr

    def test_live_run_against_stub_endpoint(self, runner, tmp_path):
        from test_oracle import StubEndpoint
        workspace = copy_fixture_workspace(tmp_path)
        (workspace / "corpus" / "misc" / "ghost.yml").unlink()
        server = StubEndpoint()
        try:
            config = workspace / "live_config.toml"
            config.write_text(
                '[corpus]\nroot = "corpus"\n'
                "[eval]\npool_size = 2\n"
                '[output]\ndir = "out"\n'
                '[[models]]\nname = "stub-model"\n'
                f'endpoint_url = "{server.url}"\n'
                'preset = "t10"\n')
            result = runner.invoke(main, ["run", "-c", str(config),
                                          "--run-id", "live", "--jobs", "2"])
            assert result.exit_code == 0, result.output
            run_dir = workspace / "out" / "runs" / "live"
            records = list(run_dir.rglob("*.json"))
            assert len(records) == 6 * 2  # tasks x pool_size
            assert len(server.requests) == 12
            body = server.requests[0]["body"]
            assert body["temperature"] == 1.0 and body["top_p"] == 0.95
            # the prompt carries the numbered program under test
            assert "1: " in body["messages"][0]["content"]
        finally:
            server.close()

    def test_replay_with_missing_records_fails(self, runner, tmp_path):
        workspace = copy_fixture_workspace(tmp_path)
        (workspace / "corpus" / "misc" / "ghost.yml").unlink()
        config = write_replay_config(workspace, pool_size=5)  # cache has 3
        result = runner.invoke(main, ["run", "-c", str(config),
                                      "--run-id", "demo"])
        assert result.exit_code == 1


class TestPrecondCommand:
    def make_precond_run(self, tmp_path, answers_by_task):
        workspace = copy_fixture_workspace(tmp_path)
        (workspace / "corpus" / "misc" / "ghost.yml").unlink()
        run_dir = workspace / "runs" / "domains"
        for task_id, answers in answers_by_task.items():
            for index, text in enumerate(answers):
                payload = {
                    "task_id": task_id, "model": "oracle-a",
                    "sample_index": index, "prompt_hash": "x",
                    "raw_text": text, "latency": 0.0, "timestamp": 0.0,
                }
                path = run_dir / "oracle-a" / task_id / f"{index}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(payload))
        return workspace, run_dir

    def test_all_equivalent_pass1(self, runner, tmp_path):
        workspace, run_dir = self.make_precond_run(tmp_path, {
            "bitvector-spin/even_spin": ["x % 2 == 0"] * 10,
        })
        annotations = workspace / "annotations.json"
        annotations.write_text(json.dumps(
            {"bitvector-spin/even_spin": "x % 2 == 0"}))
        result = runner.invoke(main, [
            "precond", str(run_dir), str(annotations),
            "-c", str(workspace / "score_config.toml"),
        ])
        assert result.exit_code == 0, result.output
        assert "Pass@1 1.000" in result.output

    def test_half_correct_pass3(self, runner, tmp_path, monkeypatch):
        from termeval import precond
        judged = []
        judge = precond.judge_generation

        def counting_judge(text, *args, **kwargs):
            judged.append(text)
            return judge(text, *args, **kwargs)

        monkeypatch.setattr(precond, "judge_generation", counting_judge)
        answers = ["x % 2 == 0"] * 5 + ["x > 0"] * 5
        workspace, run_dir = self.make_precond_run(tmp_path, {
            "bitvector-spin/even_spin": answers,
        })
        annotations = workspace / "annotations.json"
        annotations.write_text(json.dumps(
            {"bitvector-spin/even_spin": "x % 2 == 0"}))
        out = workspace / "precond.json"
        result = runner.invoke(main, [
            "precond", str(run_dir), str(annotations),
            "-c", str(workspace / "score_config.toml"), "-o", str(out),
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        task = payload["oracle-a"]["per_task"]["bitvector-spin/even_spin"]
        assert task["pass@1"] == pytest.approx(0.5)
        assert task["pass@3"] == pytest.approx(11 / 12)
        # Pass@1 and Pass@3 come from one judgment per generation
        assert sorted(judged) == sorted(answers)

    def test_each_distinct_formula_compared_once(self, runner, tmp_path,
                                                 monkeypatch):
        # spellings of one formula parse alike; each distinct parsed formula
        # of a task is compared once, for both models
        from termeval import precond
        compared = []
        brute_equivalence = precond.brute_equivalence

        def counting(a, b, *args, **kwargs):
            compared.append(a)
            return brute_equivalence(a, b, *args, **kwargs)

        monkeypatch.setattr(precond, "brute_equivalence", counting)
        workspace, run_dir = self.make_precond_run(tmp_path, {
            "bitvector-spin/even_spin": ["x % 2 == 0", "x > 0", "(x%2)==0",
                                         "x>0", "((("],
        })
        _write_replies(run_dir, "oracle-b", "bitvector-spin/even_spin",
                       ["x > 0", "x >= 1", "x>0", "(((", "x % 2 == 0"])
        annotations = workspace / "annotations.json"
        annotations.write_text(json.dumps(
            {"bitvector-spin/even_spin": "x % 2 == 0"}))
        out = workspace / "precond.json"
        result = runner.invoke(main, [
            "precond", str(run_dir), str(annotations),
            "-c", str(workspace / "score_config.toml"), "-o", str(out),
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert [payload[m]["per_task"]["bitvector-spin/even_spin"]["pass@1"]
                for m in ("oracle-a", "oracle-b")] == \
            [pytest.approx(0.4), pytest.approx(0.2)]
        assert len(compared) == len(set(compared)) == 3

    def test_equivalent_rewriting_accepted(self, runner, tmp_path):
        # syntactically different but equivalent formulations must count
        workspace, run_dir = self.make_precond_run(tmp_path, {
            "control-loops/stall_below_minus_five": ["i < -4"] * 10,
        })
        annotations = workspace / "annotations.json"
        annotations.write_text(json.dumps(
            {"control-loops/stall_below_minus_five": "i <= -5"}))
        result = runner.invoke(main, [
            "precond", str(run_dir), str(annotations),
            "-c", str(workspace / "score_config.toml"),
        ])
        assert result.exit_code == 0, result.output
        assert "Pass@1 1.000" in result.output

    def test_program_that_does_not_lex_is_unsupported(self, runner, tmp_path):
        # as in score, the program is unsupported and the annotation names
        # the variables; the run goes on
        workspace, run_dir = self.make_precond_run(tmp_path, {
            "bitvector-spin/even_spin": ["x % 2 == 0"] * 3 + ["x > 0"],
        })
        source = workspace / "corpus" / "bitvector-spin" / "even_spin.c"
        source.write_text(source.read_text() + "/* unterminated\n")
        annotations = workspace / "annotations.json"
        annotations.write_text(json.dumps(
            {"bitvector-spin/even_spin": "x % 2 == 0"}))
        result = runner.invoke(main, [
            "precond", str(run_dir), str(annotations),
            "-c", str(workspace / "score_config.toml"),
        ])
        assert result.exit_code == 0, result.output
        assert "Pass@1 0.750" in result.output

    @pytest.mark.parametrize("text, message", [
        ('{"bitvector-spin/even_spin": ', "cannot read annotations"),
        ("[" * 100_000, "cannot read annotations"),
        ('["x % 2 == 0"]', "annotations must map task ids to formulas"),
        ('{"bitvector-spin/even_spin": 3}',
         "annotation for bitvector-spin/even_spin is not a string"),
        ('{"nowhere/missing": "x == 0"}',
         "task nowhere/missing is not in the corpus"),
    ], ids=["not-json", "deep", "list", "not-a-string", "unknown-task"])
    def test_malformed_annotations_exit_2(self, runner, tmp_path, text,
                                          message):
        workspace, run_dir = self.make_precond_run(tmp_path, {
            "bitvector-spin/even_spin": ["x % 2 == 0"] * 3,
        })
        annotations = workspace / "annotations.json"
        annotations.write_text(text)
        result = runner.invoke(main, [
            "precond", str(run_dir), str(annotations),
            "-c", str(workspace / "score_config.toml"),
        ])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"{annotations}: {message}" in result.output

    def test_hostile_generations_are_unparseable(self, runner, tmp_path):
        # each of these once raised RecursionError and aborted the run
        hostile = ["(" * 3000 + "x" + ")" * 3000 + " == 0",
                   "not " * 3000 + "x == 0",
                   " + ".join(["x"] * 3000) + " == 0",
                   "-" * 3000 + "x == 0"]
        workspace, run_dir = self.make_precond_run(tmp_path, {
            "bitvector-spin/even_spin": hostile + ["x % 2 == 0"] * 4,
        })
        annotations = workspace / "annotations.json"
        annotations.write_text(json.dumps(
            {"bitvector-spin/even_spin": "x % 2 == 0"}))
        result = runner.invoke(main, [
            "precond", str(run_dir), str(annotations),
            "-c", str(workspace / "score_config.toml"),
        ])
        assert result.exit_code == 0, result.output
        assert "Pass@1 0.500" in result.output

    def test_each_task_parsed_once(self, runner, tmp_path, monkeypatch):
        from termeval import cli, precond
        parsed, annotated = [], []
        parse_program, parse_precondition = (cli.parse_program,
                                             precond.parse_precondition)

        def counting_parse_program(source):
            parsed.append(source)
            return parse_program(source)

        def counting_parse_precondition(text, *args):
            annotated.append(text)
            return parse_precondition(text, *args)

        monkeypatch.setattr(cli, "parse_program", counting_parse_program)
        monkeypatch.setattr(precond, "parse_precondition",
                            counting_parse_precondition)
        workspace, run_dir = self.make_precond_run(tmp_path, {
            "bitvector-spin/even_spin": ["x % 2 == 0"] * 2,
            "control-loops/stall_below_minus_five": ["i < -4"] * 2,
        })
        shutil.copytree(run_dir / "oracle-a", run_dir / "oracle-b")
        annotations = workspace / "annotations.json"
        annotations.write_text(json.dumps(
            {"bitvector-spin/even_spin": "x % 2 == 0",
             "control-loops/stall_below_minus_five": "i <= -5"}))
        result = runner.invoke(main, [
            "precond", str(run_dir), str(annotations),
            "-c", str(workspace / "score_config.toml"),
        ])
        assert result.exit_code == 0, result.output
        assert result.output.count("Pass@1 1.000") == 2
        assert len(parsed) == 2
        # two annotations, then the 2 x 2 x 2 generations
        assert annotated[:2] == ["x % 2 == 0", "i <= -5"]
        assert len(annotated) == 2 + 8

    def test_unparseable_annotation_fatal(self, runner, tmp_path):
        workspace, run_dir = self.make_precond_run(tmp_path, {
            "bitvector-spin/even_spin": ["x % 2 == 0"] * 2,
        })
        annotations = workspace / "annotations.json"
        annotations.write_text(json.dumps(
            {"bitvector-spin/even_spin": ")))("}))
        result = runner.invoke(main, [
            "precond", str(run_dir), str(annotations),
            "-c", str(workspace / "score_config.toml"),
        ])
        assert result.exit_code == 2

    def test_answer_extraction(self):
        assert extract_precondition_answer(
            "reasoning...\n<answer>i <= -5</answer>") == "i <= -5"
        assert extract_precondition_answer(
            "thinking\n\nx > 0 and y < 2\n") == "x > 0 and y < 2"
        assert extract_precondition_answer("") == ""

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(
        ["<answer>", "</answer>", "<answer", "/answer>", "<", ">", "/", " x ",
         "\n", "y"]), max_size=16).map("".join))
    def test_answer_extraction_matches_the_regex(self, raw):
        # the reference: the last non-greedy tag match, else the last line
        match = None
        for match in re.finditer(r"<answer>(.*?)</answer>", raw, re.S):
            pass
        lines = [line.strip() for line in raw.splitlines() if line.strip()]
        expected = (match.group(1).strip() if match is not None
                    else lines[-1] if lines else "")
        assert extract_precondition_answer(raw) == expected

    def test_answer_extraction_time_is_linear_in_open_tags(self):
        # a reply of unclosed tags must not rescan the rest of the text
        # from each of them
        def seconds(tags: int) -> float:
            text = "<answer>" * tags
            best = math.inf
            for _ in range(2):
                calls, start = 0, time.perf_counter()
                while (elapsed := time.perf_counter() - start) < 0.005:
                    extract_precondition_answer(text)
                    calls += 1
                best = min(best, elapsed / calls)
            return best

        assert seconds(8_000) / seconds(2_000) < 8
