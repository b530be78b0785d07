import json

import pytest
import yaml
from hypothesis import given, strategies as st

from termeval import corpus
from termeval.corpus import (
    Architecture, Category, IngestError, assign_length_bins,
    heuristic_token_count, load_exclusions, load_manifest, load_sidecar,
    manifest_from_json, manifest_to_json,
)
from termeval.oracle import number_lines

from conftest import task_yaml


class TestNumberLines:
    def test_single_line(self):
        assert number_lines("int x;\n") == "1: int x;\n"

    def test_empty(self):
        assert number_lines("") == ""

    def test_three_lines(self):
        numbered = number_lines("a\nb\nc\n")
        assert numbered == "1: a\n2: b\n3: c\n"

    def test_no_trailing_newline(self):
        assert number_lines("a\nb") == "1: a\n2: b"

    def test_blank_lines_numbered(self):
        assert number_lines("a\n\nb\n") == "1: a\n2: \n3: b\n"

    @given(st.text(alphabet=st.sampled_from("ab \n\f\v\r\x1c\x85\u2028\u2029")
                   | st.characters(blacklist_categories=("Cs",)),
                   max_size=500))
    def test_round_trip(self, source):
        # line k of the numbered text is "k: " and line k of the source; only
        # "\n" ends a line, as in C and in cparse's line count
        lines = source.split("\n")
        numbered = number_lines(source).split("\n")
        if lines[-1] == "":  # a final "\n" ends the last line
            lines.pop()
            assert numbered.pop() == ""
        assert numbered == [f"{k}: {line}" for k, line in enumerate(lines, 1)]


class TestTokenCounting:
    def test_heuristic_empty(self):
        assert heuristic_token_count("") == 0

    def test_heuristic_ceil(self):
        assert heuristic_token_count("abcd") == 1
        assert heuristic_token_count("abcde") == 2

    def test_deterministic(self, corpus_root):
        # without a sidecar every count is the heuristic's on the source
        for task in load_manifest(corpus_root).manifest.tasks:
            assert task.token_count == heuristic_token_count(task.source)

    def test_sidecar(self, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({"a/b": 123, "c": 0}))
        assert load_sidecar(path) == {"a/b": 123, "c": 0}

    @pytest.mark.parametrize("payload", [
        [1, 2], {"a": "x"}, {"a": -1}, {"a": 1.5}, {"a": True}, {"a": None},
    ])
    def test_sidecar_must_map_ids_to_counts(self, tmp_path, payload):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="non-negative integers"):
            load_sidecar(path)


LIBYAML = pytest.mark.skipif(not yaml.__with_libyaml__,
                             reason="PyYAML built without libyaml")
LOADERS = [pytest.param(yaml.SafeLoader, id="python"),
           pytest.param(getattr(yaml, "CSafeLoader", None), id="libyaml",
                        marks=LIBYAML)]


class TestLoadManifest:
    @pytest.mark.parametrize("loader", LOADERS)
    def test_unreadable_yaml_collected_under_its_task_id(self, tmp_path,
                                                          monkeypatch, loader):
        monkeypatch.setattr(corpus, "_YAML_LOADER", loader)
        (tmp_path / "loops").mkdir()
        (tmp_path / "loops" / "broken.yml").write_text(
            "input_files: [broken.c\nproperties: {\n")
        load = load_manifest(tmp_path)
        assert load.manifest.tasks == []
        [(task_id, message)] = load.report.errors
        assert task_id == "loops/broken"
        assert message.startswith("unreadable YAML: ")

    @pytest.mark.parametrize("loader", LOADERS)
    @pytest.mark.parametrize("verdict", ['"false"', "'true'", "0", "[]"])
    def test_non_boolean_verdict_is_a_task_error(self, tmp_path, monkeypatch,
                                                 loader, verdict):
        monkeypatch.setattr(corpus, "_YAML_LOADER", loader)
        for name, text in (("good", "true"), ("bad", verdict)):
            (tmp_path / f"{name}.c").write_text("int main() { return 0; }\n")
            (tmp_path / f"{name}.yml").write_text(
                "format_version: '2.0'\n"
                f"input_files: '{name}.c'\n"
                "properties:\n"
                "  - property_file: ../properties/termination.prp\n"
                f"    expected_verdict: {text}\n")
        load = load_manifest(tmp_path)
        assert [t.task_id for t in load.manifest.tasks] == ["good"]
        [(task_id, message)] = load.report.errors
        assert task_id == "bad"
        assert message.startswith("expected_verdict must be true or false")

    @pytest.mark.parametrize("verdict", ["F", "t", "false", True, None])
    def test_reload_rejects_an_unknown_verdict(self, corpus_root, tmp_path,
                                               verdict):
        payload = json.loads(manifest_to_json(load_manifest(corpus_root).manifest))
        payload["tasks"][0]["expected_verdict"] = verdict
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="expected_verdict"):
            manifest_from_json(path)

    @LIBYAML
    def test_both_yaml_loaders_give_equal_manifests(self, corpus_root,
                                                    monkeypatch):
        loads = []
        for loader in (yaml.SafeLoader, yaml.CSafeLoader):
            monkeypatch.setattr(corpus, "_YAML_LOADER", loader)
            loads.append(load_manifest(corpus_root))
        python, libyaml = loads
        assert python.manifest.tasks == libyaml.manifest.tasks
        assert python.report == libyaml.report
        assert len(python.manifest.tasks) == 6

    def test_counts_and_labels(self, corpus_root):
        load = load_manifest(corpus_root)
        manifest = load.manifest
        assert manifest.category_counts[Category.BIT_VECTORS] == 1
        assert manifest.category_counts[Category.MAIN_CONTROL_FLOW] == 3
        assert manifest.category_counts[Category.OTHER] == 2
        assert len(manifest.tasks) == 6
        assert manifest.label_counts == {"T": 1, "NT": 5}
        assert sum(manifest.category_counts.values()) == len(manifest.tasks)

    def test_missing_source_collected_not_fatal(self, corpus_root):
        load = load_manifest(corpus_root)
        assert any("ghost" in task_id for task_id, _ in load.report.errors)

    def test_non_termination_property_skipped(self, corpus_root):
        load = load_manifest(corpus_root)
        assert "misc/other_property" not in {t.task_id for t in load.manifest.tasks}

    def test_category_filter(self, corpus_root):
        load = load_manifest(corpus_root, {Category.BIT_VECTORS})
        assert {t.category for t in load.manifest.tasks} == {Category.BIT_VECTORS}
        assert len(load.manifest.tasks) == 1

    def test_empty_directory(self, tmp_path):
        load = load_manifest(tmp_path)
        assert load.manifest.tasks == []
        assert load.report.errors == []

    def test_unreadable_root_fatal(self, tmp_path):
        with pytest.raises(IngestError):
            load_manifest(tmp_path / "does-not-exist")

    def test_exclusion_list(self, corpus_root, tmp_path):
        exclusions_file = tmp_path / "exclusions.txt"
        exclusions_file.write_text(
            "# known invalid\nbitvector-spin/even_spin\n")
        load = load_manifest(
            corpus_root, exclusions=load_exclusions(exclusions_file))
        assert "bitvector-spin/even_spin" not in {
            t.task_id for t in load.manifest.tasks}
        assert load.report.skipped_excluded == 1

    def test_architecture_default(self, corpus_root):
        load = load_manifest(corpus_root)
        assert all(t.architecture is Architecture.BITS32
                   for t in load.manifest.tasks)

    def test_lp64_data_model(self, tmp_path):
        (tmp_path / "wide.c").write_text("int main() { return 0; }\n")
        (tmp_path / "wide.yml").write_text(task_yaml("wide.c", "LP64"))
        load = load_manifest(tmp_path)
        assert load.manifest.tasks[0].architecture is Architecture.BITS64

    @pytest.mark.parametrize("options", ["[LP64]", "LP64", "{data_model: 64}"])
    def test_options_out_of_shape_are_ilp32(self, tmp_path, options):
        (tmp_path / "odd.c").write_text("int main() { return 0; }\n")
        (tmp_path / "odd.yml").write_text(
            task_yaml("odd.c", "LP64").replace("options:\n  language: C\n"
                                               "  data_model: LP64\n",
                                               f"options: {options}\n"))
        load = load_manifest(tmp_path)
        assert load.manifest.tasks[0].architecture is Architecture.BITS32
        assert corpus.read_task_yaml(tmp_path / "odd.c")[1] is \
            Architecture.BITS32

    def test_glob_stays_within_segment(self, tmp_path):
        # a set file glob with a single * must not match nested directories
        (tmp_path / "Termination-BitVectors.set").write_text("top/*.yml\n")
        (tmp_path / "top" / "nested").mkdir(parents=True)
        for where in ("top", "top/nested"):
            (tmp_path / where / "t.c").write_text("int main(){return 0;}\n")
            (tmp_path / where / "t.yml").write_text(
                "format_version: '2.0'\n"
                "input_files: 't.c'\n"
                "properties:\n"
                "  - property_file: ../properties/termination.prp\n"
                "    expected_verdict: true\n")
        load = load_manifest(tmp_path)
        by_id = {t.task_id: t.category for t in load.manifest.tasks}
        assert by_id["top/t"] is Category.BIT_VECTORS
        assert by_id["top/nested/t"] is Category.OTHER

    def test_reingest_identical(self, corpus_root):
        first = manifest_to_json(load_manifest(corpus_root).manifest)
        second = manifest_to_json(load_manifest(corpus_root).manifest)
        assert first == second

    def test_numbered_source_line_counts(self, corpus_root):
        for task in load_manifest(corpus_root).manifest.tasks:
            raw = task.source_path.read_text(encoding="utf-8")
            assert task.source == raw
            assert number_lines(raw).count("\n") == raw.count("\n")

    def test_task_ids_unique_and_sorted(self, corpus_root):
        tasks = load_manifest(corpus_root).manifest.tasks
        ids = [t.task_id for t in tasks]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_sidecar_overrides_heuristic(self, corpus_root):
        sidecar = {"bitvector-spin/even_spin": 999}
        load = load_manifest(corpus_root, sidecar=sidecar)
        task = load.manifest.task("bitvector-spin/even_spin")
        assert task.token_count == 999

    def test_json_round_trip(self, corpus_root, tmp_path):
        manifest = load_manifest(corpus_root).manifest
        path = tmp_path / "manifest.json"
        path.write_text(manifest_to_json(manifest))
        reloaded = manifest_from_json(path)
        assert [t.task_id for t in reloaded.tasks] == \
            [t.task_id for t in manifest.tasks]
        assert reloaded.label_counts == manifest.label_counts
        assert manifest_to_json(reloaded) == manifest_to_json(manifest)

    def test_each_task_keeps_its_property_file(self, corpus_root, tmp_path):
        manifest = load_manifest(corpus_root).manifest
        prp = (corpus_root / "properties" / "termination.prp").resolve()
        assert {t.property_path.resolve() for t in manifest.tasks} == {prp}
        payload = json.loads(manifest_to_json(manifest))
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload))
        assert {t.property_path.resolve()
                for t in manifest_from_json(path).tasks} == {prp}
        # a manifest written before the paths were kept reads SV-COMP's
        # layout: properties/ beside each task's directory
        for entry in payload["tasks"]:
            del entry["property_path"]
        path.write_text(json.dumps(payload))
        assert {t.property_path.resolve()
                for t in manifest_from_json(path).tasks} == {prp}

    def test_read_task_yaml_reads_the_yaml_beside_the_program(
            self, corpus_root, tmp_path):
        program = corpus_root / "control-loops" / "count_to_ten.c"
        prop, arch = corpus.read_task_yaml(program)
        assert prop.resolve() == \
            (corpus_root / "properties" / "termination.prp").resolve()
        assert arch is Architecture.BITS32
        (tmp_path / "wide.yml").write_text(task_yaml("wide.c", "LP64"))
        assert corpus.read_task_yaml(tmp_path / "wide.c") == (
            tmp_path / "../properties/termination.prp", Architecture.BITS64)
        assert corpus.read_task_yaml(tmp_path / "none.c") == (
            None, Architecture.BITS32)
        (tmp_path / "other.yml").write_text(
            (corpus_root / "misc" / "other_property.yml").read_text())
        assert corpus.read_task_yaml(tmp_path / "other.c")[0] is None
        (tmp_path / "bad.yml").write_text("[unclosed")
        assert corpus.read_task_yaml(tmp_path / "bad.c") == (
            None, Architecture.BITS32)

    def test_reload_counts_the_tasks(self, corpus_root, tmp_path):
        # the stored counts are a summary: the tasks are the truth
        payload = json.loads(manifest_to_json(load_manifest(corpus_root).manifest))
        payload["label_counts"] = {"T": 40, "NT": 2}
        payload["category_counts"] = {"Other": 9}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload))
        reloaded = manifest_from_json(path)
        assert reloaded.label_counts == {"T": 1, "NT": 5}
        assert reloaded.category_counts[Category.MAIN_CONTROL_FLOW] == 3


def _mini_manifest(counts):
    tasks = [
        corpus.TaskSpec(
            task_id=f"t{str(i).zfill(2)}", source_path=corpus.Path("x.c"),
            source="x\n", category=Category.OTHER,
            expected_verdict="T", architecture=Architecture.BITS32,
            token_count=count, property_path=corpus.Path("termination.prp"))
        for i, count in enumerate(counts)
    ]
    return corpus.CorpusManifest(tasks, corpus.Path("."))


class TestLengthBins:
    def test_nine_tasks_equal_bins(self):
        binning = assign_length_bins(_mini_manifest(range(9)))
        sizes = [list(binning.assignment.values()).count(b) for b in (0, 1, 2)]
        assert sizes == [3, 3, 3]

    def test_ten_tasks_largest_remainder_first(self):
        # oracle: enumerate the sorted list and cut greedily, extras go to
        # the earliest bins -> sizes 4/3/3
        binning = assign_length_bins(_mini_manifest(range(10)))
        sizes = [list(binning.assignment.values()).count(b) for b in (0, 1, 2)]
        assert sizes == [4, 3, 3]
        ordered = [f"t{str(i).zfill(2)}" for i in range(10)]
        assert [binning.assignment[t] for t in ordered] == \
            [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_ties_broken_by_task_id(self):
        binning = assign_length_bins(_mini_manifest([7] * 9))
        ordered = [f"t{str(i).zfill(2)}" for i in range(9)]
        assert [binning.assignment[t] for t in ordered] == \
            [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_too_few_tasks(self):
        with pytest.raises(ValueError):
            assign_length_bins(_mini_manifest([1, 2]))

    @given(st.lists(st.integers(0, 10_000), min_size=3, max_size=60))
    def test_total_function_and_balance(self, counts):
        binning = assign_length_bins(_mini_manifest(counts))
        assert len(binning.assignment) == len(counts)
        sizes = [list(binning.assignment.values()).count(b) for b in (0, 1, 2)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == len(counts)

    def test_bins_respect_sort_order(self):
        binning = assign_length_bins(_mini_manifest([5, 1, 9, 3, 7, 2, 8, 4, 6]))
        by_count = {f"t{str(i).zfill(2)}": c
                    for i, c in enumerate([5, 1, 9, 3, 7, 2, 8, 4, 6])}
        for task_a, bin_a in binning.assignment.items():
            for task_b, bin_b in binning.assignment.items():
                if by_count[task_a] < by_count[task_b]:
                    assert bin_a <= bin_b
