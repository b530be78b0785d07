"""Prompt construction, chat-completion querying, and generation caching.

Prompts are assembled from template files shipped as package resources (a
golden test pins their hashes).  Sampling hits any chat-completions-style
HTTP endpoint; every raw reply is persisted to the run cache before parsing
so a crash after network receipt loses nothing.  Cached runs replay without
network access.  ``requests`` is imported only when ``generate`` sends a
request, so the commands that read cached replies never load it.
"""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import os
import re
import time
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .corpus import TaskSpec
from .witness import FormatError, Prediction, parse_prediction

if TYPE_CHECKING:
    import requests

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ModelConfig:
    name: str
    endpoint_url: str = ""
    api_key_env: str = ""
    top_p: float = 0.95
    temperature: float | None = None
    reasoning_effort: str | None = None  # low | medium | high
    max_output_tokens: int = 16384
    request_timeout: float = 300.0
    replay: bool = False

    def __post_init__(self):
        # the name is a directory of the generation cache
        if self.name in ("", ".", "..") or "/" in self.name or "\\" in self.name:
            raise ValueError(f"bad model name {self.name!r}")
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")
        if self.temperature is not None and self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.reasoning_effort not in (None, "low", "medium", "high"):
            raise ValueError(f"bad reasoning_effort {self.reasoning_effort!r}")


# common sampling profiles: nucleus 0.95 everywhere, a few temperature
# levels, and a temperature-less profile for reasoning endpoints
SAMPLING_PRESETS = {
    "t10": {"top_p": 0.95, "temperature": 1.0},
    "t06": {"top_p": 0.95, "temperature": 0.6},
    "t07": {"top_p": 0.95, "temperature": 0.7},
    "reasoning-medium": {"top_p": 0.95, "temperature": None,
                         "reasoning_effort": "medium"},
}


def apply_preset(config: ModelConfig, preset: str) -> ModelConfig:
    if preset not in SAMPLING_PRESETS:
        raise ValueError(f"unknown sampling preset {preset!r}; "
                         f"choose from {sorted(SAMPLING_PRESETS)}")
    return replace(config, **SAMPLING_PRESETS[preset])


@dataclass
class GenerationRecord:
    task_id: str
    model: str
    sample_index: int
    prompt_hash: str
    raw_text: str
    parsed: Prediction | FormatError
    latency: float
    timestamp: float
    transport_error: str | None = None


class AuthError(Exception):
    pass


# ---------------------------------------------------------------------------
# Prompts

_PROMPT_DIR = resources.files("termeval") / "resources" / "prompts"


def _read_template(name: str) -> str:
    return (_PROMPT_DIR / name).read_text(encoding="utf-8")


# a line ends at "\n" only, as in C: the number the prompt shows for a
# statement is then the line `cparse` gives it, and so the line a witness
# must cite.  Other Unicode line breaks stay inside their line.
_LINE_RE = re.compile(r"[^\n]*\n|[^\n]+")


def number_lines(source: str) -> str:
    """Prefix each line k (1-based) with ``"k: "``, preserving content."""
    return "".join(f"{k}: {line}"
                   for k, line in enumerate(_LINE_RE.findall(source), start=1))


def build_termination_prompt(task: TaskSpec) -> str:
    instructions = _read_template("termination_instructions.txt")
    examples = _read_template("termination_examples.txt")
    return (f"{instructions.rstrip()}\n\n{examples.rstrip()}\n\n"
            f"{number_lines(task.source)}")


def build_precondition_prompt(task: TaskSpec) -> str:
    template = _read_template("divergence_domain.txt")
    return f"{template.rstrip()}\n\n{task.source}"


def prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# HTTP client with retry


_RETRYABLE_STATUS = {408, 429, 500, 502, 503, 504}
_MAX_ATTEMPTS = 5


class TransportExhausted(Exception):
    """Every retry failed; the sample is recorded as a transport error."""


def _request_completion(model: ModelConfig, prompt: str, *,
                        session: requests.Session,
                        sleep=time.sleep) -> str:
    """One sampled completion with exponential backoff on transient failures.

    An endpoint that rejects the temperature field gets the request once more
    without it.
    """
    import requests

    headers = {"Content-Type": "application/json"}
    if model.api_key_env:
        key = os.environ.get(model.api_key_env)
        if not key:
            raise AuthError(f"environment variable {model.api_key_env} not set")
        headers["Authorization"] = f"Bearer {key}"

    body = {
        "model": model.name,
        "messages": [{"role": "user", "content": prompt}],
        "top_p": model.top_p,
        "max_tokens": model.max_output_tokens,
    }
    if model.temperature is not None:
        body["temperature"] = model.temperature
    if model.reasoning_effort is not None:
        body["reasoning_effort"] = model.reasoning_effort

    temperature_dropped = False
    last_error = "no attempts made"
    attempt = 0
    while attempt < _MAX_ATTEMPTS:
        attempt += 1
        try:
            response = session.post(model.endpoint_url, json=body,
                                    headers=headers,
                                    timeout=model.request_timeout)
        except requests.RequestException as exc:
            last_error = f"transport failure: {exc}"
            sleep(min(2 ** attempt, 30))
            continue
        if response.status_code in (401, 403):
            raise AuthError(f"endpoint rejected credentials "
                            f"({response.status_code}): {response.text[:200]}")
        if response.status_code == 400 and not temperature_dropped \
                and "temperature" in body and "temperature" in response.text:
            log.info("endpoint rejected temperature; retrying without it")
            del body["temperature"]
            temperature_dropped = True
            attempt -= 1  # the drop retry is free
            continue
        if response.status_code in _RETRYABLE_STATUS:
            last_error = f"status {response.status_code}: {response.text[:200]}"
            sleep(min(2 ** attempt, 30))
            continue
        if response.status_code != 200:
            raise RuntimeError(f"endpoint error {response.status_code}: "
                               f"{response.text[:500]}")
        try:
            payload = response.json()
            return payload["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise RuntimeError(f"malformed completion payload: {exc}")
    raise TransportExhausted(last_error)


# ---------------------------------------------------------------------------
# Cache layout: runs/<run_id>/<model>/<task_id>/<sample_index>.json


def record_path(run_dir: Path, model_name: str, task_id: str,
                sample_index: int) -> Path:
    return Path(run_dir) / model_name / task_id / f"{sample_index}.json"


_RECORD_NAME = re.compile(r"[0-9]+\.json")  # the name record_path gives
# errnos of a lookup that finds no directory; a path with a NUL byte has none
_NO_DIRECTORY = {errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP, None}


def _persist_raw(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    tmp.replace(path)


_RECORD_TYPES = {"task_id": str, "model": str, "sample_index": int,
                 "prompt_hash": str, "raw_text": str, "latency": (int, float),
                 "timestamp": (int, float), "transport_error": (str, type(None))}


def _record_from_payload(payload: object) -> GenerationRecord:
    """Raises ``ValueError`` when ``payload`` is not a well-typed record."""
    if not isinstance(payload, dict):
        raise ValueError(f"a JSON {type(payload).__name__}, not an object")
    for name in ("task_id", "model", "sample_index"):
        if name not in payload:
            raise ValueError(f"no {name!r}")
    for name, value in payload.items():
        if name in _RECORD_TYPES and not isinstance(value, _RECORD_TYPES[name]):
            raise ValueError(f"{name!r} is a {type(value).__name__}")
    error = payload.get("transport_error")
    raw = payload.get("raw_text", "")
    if error:
        parsed: Prediction | FormatError = FormatError(f"transport: {error}")
    else:
        parsed = parse_prediction(raw)
    return GenerationRecord(
        task_id=payload["task_id"],
        model=payload["model"],
        sample_index=payload["sample_index"],
        prompt_hash=payload.get("prompt_hash", ""),
        raw_text=raw,
        parsed=parsed,
        latency=payload.get("latency", 0.0),
        timestamp=payload.get("timestamp", 0.0),
        transport_error=error,
    )


def _load_record(path: str | Path, model_name: str,
                 task_id: str) -> GenerationRecord:
    """The record cached at ``path``.  A file that cannot be read or decoded,
    or holds an ill-typed record, becomes a ``cache:`` format error with no
    text: it scores as unknown, and the pool keeps its size."""
    try:
        with open(path, encoding="utf-8") as f:
            return _record_from_payload(json.loads(f.read()))
    except (OSError, ValueError, RecursionError) as exc:
        name = os.path.basename(path)
        return GenerationRecord(
            task_id=task_id, model=model_name,
            sample_index=int(name.removesuffix(".json")),
            prompt_hash="", raw_text="",
            parsed=FormatError(f"cache: {name}: {exc}"),
            latency=0.0, timestamp=0.0)


def generate(model: ModelConfig, prompt: str, n: int, *,
             run_dir: Path | str, task_id: str,
             sleep=time.sleep) -> list[GenerationRecord]:
    """Collect ``n`` sampled completions for one task.

    Existing cache files are reused (resumable runs); in replay mode missing
    files are an error instead of a network call.  Raw text always lands on
    disk before parsing.  One HTTP session is opened just before the first
    request and closed on return, so a fully cached task opens none.
    """
    run_dir = Path(run_dir)
    session = None
    records = []
    try:
        for index in range(n):
            path = record_path(run_dir, model.name, task_id, index)
            if path.exists():
                records.append(_load_record(path, model.name, task_id))
                continue
            if model.replay:
                raise FileNotFoundError(
                    f"replay mode but cache record missing: {path}")
            if session is None:
                import requests
                session = requests.Session()
            started = time.time()
            transport_error = None
            try:
                raw_text = _request_completion(model, prompt, session=session,
                                               sleep=sleep)
            except TransportExhausted as exc:
                raw_text = ""
                transport_error = str(exc)
            payload = {
                "task_id": task_id,
                "model": model.name,
                "sample_index": index,
                "prompt_hash": prompt_hash(prompt),
                "raw_text": raw_text,
                "latency": time.time() - started,
                "timestamp": started,
            }
            if transport_error is not None:
                payload["transport_error"] = transport_error
            _persist_raw(path, payload)
            records.append(_record_from_payload(payload))
    finally:
        if session is not None:
            session.close()
    return records


def replay_records(run_dir: Path | str, model_name: str,
                   task_id: str) -> list[GenerationRecord]:
    """Load every cached record ``<i>.json`` for (model, task), ordered by
    sample index; other files in the task's directory are not records."""
    try:
        with os.scandir(Path(run_dir) / model_name / task_id) as entries:
            found = [e for e in entries if _RECORD_NAME.fullmatch(e.name)]
    except (OSError, ValueError) as exc:
        # no directory there, by what Path.is_dir() takes for that
        if getattr(exc, "errno", None) not in _NO_DIRECTORY:
            raise
        return []
    return [_load_record(entry.path, model_name, task_id)
            for entry in sorted(found, key=lambda e: int(e.name[:-5]))]


def list_models(run_dir: Path | str) -> list[str]:
    """The models cached under ``run_dir``: its directories below which a
    record ``<i>.json`` (``<model>/<task_id>/<i>.json``) or the ``.json.tmp``
    of an interrupted write lies; a report directory holds neither.  The
    search stops at the first record and raises on an unreadable directory."""
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        return []
    return sorted(p.name for p in run_dir.iterdir() if p.is_dir() and any(
        _RECORD_NAME.fullmatch(f.removesuffix(".tmp"))
        for _, _, files in os.walk(p, onerror=_raise) for f in files))


def _raise(error: OSError):
    raise error
