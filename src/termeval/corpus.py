"""Corpus ingestion: SV-COMP-style termination tasks into an immutable manifest.

A benchmark root contains per-task YAML descriptors next to their C sources,
optional ``Termination-<Category>.set`` files whose globs assign tasks to
categories, and a properties directory.  Tasks are keyed by the descriptor
path relative to the root (without the ``.yml`` suffix), which makes repeated
ingestion of the same tree byte-stable.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path

import yaml


class Category(Enum):
    BIT_VECTORS = "BitVectors"
    MAIN_CONTROL_FLOW = "MainControlFlow"
    MAIN_HEAP = "MainHeap"
    OTHER = "Other"


class Architecture(Enum):
    BITS32 = "32bit"
    BITS64 = "64bit"


_DATA_MODELS = {"ILP32": Architecture.BITS32, "LP64": Architecture.BITS64}


class IngestError(Exception):
    """Fatal ingestion problem (unreadable root, missing manifest)."""


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    source_path: Path
    source: str  # the C file's text, exactly as read
    category: Category
    expected_verdict: str  # "T" or "NT"
    architecture: Architecture
    token_count: int


@dataclass
class CorpusManifest:
    tasks: list[TaskSpec]
    root: Path

    def task(self, task_id: str) -> TaskSpec:
        return self._index[task_id]

    def __post_init__(self):
        self._index = {t.task_id: t for t in self.tasks}

    @property
    def category_counts(self) -> dict[Category, int]:
        return dict(Counter(t.category for t in self.tasks))

    @property
    def label_counts(self) -> dict[str, int]:
        counts = Counter(t.expected_verdict for t in self.tasks)
        return {"T": counts["T"], "NT": counts["NT"]}


@dataclass
class IngestReport:
    errors: list[tuple[str, str]] = field(default_factory=list)  # (task_id, message)
    skipped_excluded: int = 0
    notes: list[str] = field(default_factory=list)


@dataclass
class ManifestLoad:
    manifest: CorpusManifest
    report: IngestReport


@dataclass(frozen=True)
class LengthBinning:
    assignment: dict[str, int]  # task_id -> bin index in {0, 1, 2}


# ---------------------------------------------------------------------------
# Token counting


def heuristic_token_count(source: str) -> int:
    """Offline stand-in for a real tokenizer: ceil(utf-8 bytes / 4)."""
    return math.ceil(len(source.encode("utf-8")) / 4)


def load_sidecar(path: Path | str) -> dict[str, int]:
    """Exact token counts from an external tokenizer, keyed by task id.

    Raises ``ValueError`` unless the file is a JSON object that maps task ids
    to non-negative integers.
    """
    with open(path, encoding="utf-8") as fh:
        counts = json.load(fh)
    if not isinstance(counts, dict) or not all(
            type(n) is int and n >= 0 for n in counts.values()):
        raise ValueError("a sidecar must map task ids to non-negative integers")
    return counts


# ---------------------------------------------------------------------------
# Exclusion list


def load_exclusions(path: Path | str | None = None) -> set[str]:
    """Task ids to skip; ``#`` comments and blank lines allowed.

    Without an explicit path the packaged default list is used.
    """
    if path is None:
        text = (resources.files("termeval") / "resources" / "exclusions.txt").read_text(
            encoding="utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8")
    out = set()
    for line in text.splitlines():
        entry = line.split("#", 1)[0].strip()
        if entry:
            out.add(entry)
    return out


# ---------------------------------------------------------------------------
# Manifest loading


def _glob_regex(pattern: str) -> re.Pattern:
    """Set-file glob: ``*`` and ``?`` stay within one path segment,
    ``**`` crosses segments."""
    out = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "*":
            if pattern.startswith("**", i):
                out.append(".*")
                i += 2
                continue
            out.append("[^/]*")
        elif ch == "?":
            out.append("[^/]")
        else:
            out.append(re.escape(ch))
        i += 1
    return re.compile("".join(out) + r"\Z")


def _load_set_patterns(root: Path) -> dict[Category, list[tuple[Path, re.Pattern]]]:
    """Category globs from ``Termination-*.set`` files anywhere under root."""
    patterns: dict[Category, list[tuple[Path, re.Pattern]]] = {
        c: [] for c in Category}
    for set_file in sorted(root.rglob("Termination-*.set")):
        name = set_file.stem.removeprefix("Termination-")
        try:
            category = Category(name)
        except ValueError:
            continue
        for line in set_file.read_text(encoding="utf-8").splitlines():
            entry = line.split("#", 1)[0].strip()
            if entry:
                patterns[category].append((set_file.parent, _glob_regex(entry)))
    return patterns


def _categorize(yml_path: Path, patterns) -> Category:
    for category in Category:  # declaration order fixes multi-set ties
        for base, regex in patterns[category]:
            try:
                rel = yml_path.relative_to(base)
            except ValueError:
                continue
            if regex.match(rel.as_posix()):
                return category
    return Category.OTHER


def _is_termination_property(prop_file: str) -> bool:
    return Path(prop_file).name == "termination.prp"


# libyaml's safe loader, when PyYAML was built with it, reads a task file
# about four times faster than the pure-Python one
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_manifest(
    root: Path | str,
    categories: set[Category] | None = None,
    *,
    exclusions: set[str] | None = None,
    sidecar: dict[str, int] | None = None,
) -> ManifestLoad:
    """Ingest every termination task under ``root``.

    Per-task problems (missing source, unreadable YAML, an
    ``expected_verdict`` that is not a boolean) are collected in the report;
    an unreadable root raises :class:`IngestError`.  A task's token count is
    its ``sidecar`` entry, else :func:`heuristic_token_count` of its source.
    """
    root = Path(root)
    if not root.is_dir():
        raise IngestError(f"corpus root {root} is not a readable directory")
    if exclusions is None:
        exclusions = load_exclusions()

    report = IngestReport()
    patterns = _load_set_patterns(root)
    if not any(patterns.values()):
        report.notes.append(
            "no Termination-*.set files found: all tasks categorized as Other")

    tasks: list[TaskSpec] = []
    for yml_path in sorted(root.rglob("*.yml")):
        task_id = yml_path.relative_to(root).with_suffix("").as_posix()
        try:
            data = yaml.load(yml_path.read_text(encoding="utf-8"), _YAML_LOADER)
        except Exception as exc:
            report.errors.append((task_id, f"unreadable YAML: {exc}"))
            continue
        if not isinstance(data, dict) or "input_files" not in data:
            continue  # not a task definition
        verdict = None
        for prop in data.get("properties") or []:
            if not isinstance(prop, dict):
                continue
            if _is_termination_property(str(prop.get("property_file", ""))):
                verdict = prop.get("expected_verdict")
        if verdict is None:
            continue  # no termination property: out of scope
        if task_id in exclusions:
            report.skipped_excluded += 1
            continue
        category = _categorize(yml_path, patterns)
        if categories is not None and category not in categories:
            continue
        if type(verdict) is not bool:
            report.errors.append(
                (task_id, f"expected_verdict must be true or false, "
                          f"got {verdict!r:.40}"))
            continue

        input_files = data["input_files"]
        if isinstance(input_files, list):
            if len(input_files) != 1:
                report.errors.append((task_id, "expected exactly one input file"))
                continue
            input_files = input_files[0]
        source_path = yml_path.parent / str(input_files)
        try:
            source = source_path.read_text(encoding="utf-8")
        except OSError as exc:
            report.errors.append((task_id, f"missing source file: {exc}"))
            continue

        count = (sidecar[task_id] if sidecar and task_id in sidecar
                 else heuristic_token_count(source))
        options = data.get("options") or {}
        arch = _DATA_MODELS.get(str(options.get("data_model", "ILP32")),
                                Architecture.BITS32)
        tasks.append(TaskSpec(
            task_id=task_id,
            source_path=source_path,
            source=source,
            category=category,
            expected_verdict="T" if verdict else "NT",
            architecture=arch,
            token_count=count,
        ))

    tasks.sort(key=lambda t: t.task_id)
    return ManifestLoad(CorpusManifest(tasks, root), report)


# ---------------------------------------------------------------------------
# Length bins


def assign_length_bins(manifest: CorpusManifest) -> LengthBinning:
    """Partition tasks into three near-equal bins by token count.

    Tasks are sorted by (token_count, task_id); when the size is not a
    multiple of 3 the earlier (shorter) bins take the extra task.
    """
    n = len(manifest.tasks)
    if n < 3:
        raise ValueError(f"need at least 3 tasks to bin, have {n}")
    ordered = sorted(manifest.tasks, key=lambda t: (t.token_count, t.task_id))
    base, extra = divmod(n, 3)
    sizes = [base + (1 if i < extra else 0) for i in range(3)]
    assignment: dict[str, int] = {}
    pos = 0
    for idx, size in enumerate(sizes):
        for t in ordered[pos:pos + size]:
            assignment[t.task_id] = idx
        pos += size
    return LengthBinning(assignment)


# ---------------------------------------------------------------------------
# Manifest serialization


def manifest_to_json(manifest: CorpusManifest) -> str:
    """Stable JSON rendering (tasks sorted by id; sources stored as paths)."""
    category_counts = manifest.category_counts
    payload = {
        "root": str(manifest.root),
        "tasks": [
            {
                "task_id": t.task_id,
                "source_path": t.source_path.relative_to(manifest.root).as_posix(),
                "category": t.category.value,
                "expected_verdict": t.expected_verdict,
                "architecture": t.architecture.value,
                "token_count": t.token_count,
            }
            for t in sorted(manifest.tasks, key=lambda t: t.task_id)
        ],
        "category_counts": {
            c.value: category_counts[c] for c in Category if c in category_counts
        },
        "label_counts": manifest.label_counts,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def manifest_from_json(path: Path | str) -> CorpusManifest:
    """Reload a serialized manifest, re-reading each task's source."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    root = Path(payload["root"])
    tasks = []
    for entry in payload["tasks"]:
        if entry["expected_verdict"] not in ("T", "NT"):
            raise ValueError(f"task {entry['task_id']}: expected_verdict must "
                             f"be \"T\" or \"NT\", got "
                             f"{entry['expected_verdict']!r:.40}")
        source_path = root / entry["source_path"]
        tasks.append(TaskSpec(
            task_id=entry["task_id"],
            source_path=source_path,
            source=source_path.read_text(encoding="utf-8"),
            category=Category(entry["category"]),
            expected_verdict=entry["expected_verdict"],
            architecture=Architecture(entry["architecture"]),
            token_count=entry["token_count"],
        ))
    return CorpusManifest(tasks, root)
