import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
import requests

from termeval.corpus import Architecture, Category, TaskSpec
from termeval.cparse import While, parse_program
from termeval.oracle import (
    AuthError, ModelConfig, SAMPLING_PRESETS, apply_preset,
    build_precondition_prompt, build_termination_prompt, generate,
    prompt_hash, record_path, replay_records,
)
from termeval.witness import FormatError, Prediction, Verdict

from reference import iter_statements, prompt_template_hashes

# accidental prompt edits change evaluation behaviour: fail loudly
PINNED_TEMPLATE_HASHES = {
    "termination_instructions.txt":
        "613a34b9ffe30a2b2692fcccdf25e02fc78354c2d8f8a87430b6a9573a6dca12",
    "termination_examples.txt":
        "2a83cbdf08a504af5edc7aab088c4d900471568ca67a90f669961bf7eadc7580",
    "divergence_domain.txt":
        "18fae3ab773072ee3b1f8277d6372ba1903a0dabdb7be64c2595d88ad6693be8",
}


def make_task(source: str = "int main() { return 0; }\n",
              task_id: str = "demo/task") -> TaskSpec:
    return TaskSpec(
        task_id=task_id, source_path=Path("demo.c"),
        source=source, category=Category.OTHER,
        expected_verdict="T", architecture=Architecture.BITS32, token_count=5,
        property_path=Path("termination.prp"))


class TestPrompts:
    def test_scoring_warning_present(self):
        prompt = build_termination_prompt(make_task())
        assert "you will lose points" in prompt

    def test_fewshot_answers_present(self):
        prompt = build_termination_prompt(make_task())
        assert '"verdict": true' in prompt
        assert '"verdict": false' in prompt
        assert '"verdict": null' in prompt

    def test_numbered_source_appended(self):
        prompt = build_termination_prompt(make_task("int x;\nint y;\n"))
        assert prompt.endswith("1: int x;\n2: int y;\n")

    def test_prompt_line_is_the_parsed_line(self):
        # a form feed ends no line in C: the line the prompt shows for the
        # loop is the line a witness must cite for it
        source = ("int main() {\n  int x = 1;\f\n"
                  "  while (x > 0) { x = x; }\n  return 0;\n}\n")
        (loop,) = [s for s in iter_statements(parse_program(source))
                   if isinstance(s, While)]
        prompt = build_termination_prompt(make_task(source))
        (shown,) = [line for line in prompt.split("\n")
                    if "while (x > 0) { x = x; }" in line]
        assert shown.startswith(f"{loop.line}: ")

    def test_identical_tasks_identical_prompts(self):
        a = build_termination_prompt(make_task("int x;\n", "one"))
        b = build_termination_prompt(make_task("int x;\n", "two"))
        assert a == b

    def test_precondition_prompt_instructions(self):
        prompt = build_precondition_prompt(make_task())
        assert "Simulate the execution of the main function step-by-step" in prompt
        assert "(i % 2 != 0) and (i >= -2147483649)" in prompt

    def test_precondition_prompt_uses_raw_source(self):
        prompt = build_precondition_prompt(make_task("int x;\n"))
        assert prompt.endswith("int x;\n")
        assert "1: int x;" not in prompt

    def test_template_hashes_pinned(self):
        assert prompt_template_hashes() == PINNED_TEMPLATE_HASHES

    def test_prompt_hash_stable(self):
        assert prompt_hash("abc") == prompt_hash("abc")
        assert prompt_hash("abc") != prompt_hash("abd")


class TestModelConfig:
    def test_preset_profiles(self):
        assert SAMPLING_PRESETS["t10"]["temperature"] == 1.0
        assert SAMPLING_PRESETS["t06"]["temperature"] == 0.6
        assert SAMPLING_PRESETS["t07"]["temperature"] == 0.7
        assert SAMPLING_PRESETS["reasoning-medium"]["temperature"] is None
        assert SAMPLING_PRESETS["reasoning-medium"]["reasoning_effort"] == "medium"
        assert all(p["top_p"] == 0.95 for p in SAMPLING_PRESETS.values())

    def test_apply_preset(self):
        base = ModelConfig(name="m", endpoint_url="http://x")
        tuned = apply_preset(base, "t06")
        assert tuned.temperature == 0.6
        assert tuned.top_p == 0.95

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            apply_preset(ModelConfig(name="m"), "nope")

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(name="m", top_p=0.0)
        with pytest.raises(ValueError):
            ModelConfig(name="m", temperature=-1.0)
        with pytest.raises(ValueError):
            ModelConfig(name="m", reasoning_effort="extreme")

    @pytest.mark.parametrize("name", ["", ".", "..", "org/model", "a\\b"])
    def test_name_must_be_one_cache_directory(self, name):
        with pytest.raises(ValueError, match="bad model name"):
            ModelConfig(name=name)


class StubEndpoint:
    """Chat-completions stub with scriptable failures."""

    def __init__(self, *, fail_times: int = 0, reject_temperature: bool = False,
                 always_fail: bool = False, require_key: str | None = None):
        self.requests: list[dict] = []
        self.fail_times = fail_times
        self.reject_temperature = reject_temperature
        self.always_fail = always_fail
        self.require_key = require_key
        self.reply_text = json.dumps({"verdict": True})

        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                body = json.loads(self.rfile.read(length))
                stub.requests.append(
                    {"body": body, "auth": self.headers.get("Authorization")})
                if stub.require_key is not None and \
                        self.headers.get("Authorization") != \
                        f"Bearer {stub.require_key}":
                    self._reply(401, {"error": "bad key"})
                    return
                if stub.always_fail or stub.fail_times > 0:
                    stub.fail_times -= 1
                    self._reply(500, {"error": "flaky"})
                    return
                if stub.reject_temperature and "temperature" in body:
                    self._reply(400, {"error": "temperature is not supported"})
                    return
                self._reply(200, {
                    "choices": [{"message": {"role": "assistant",
                                             "content": stub.reply_text}}],
                })

            def _reply(self, status, payload):
                data = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def stub():
    servers = []

    def factory(**kwargs):
        server = StubEndpoint(**kwargs)
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.close()


def no_sleep(_):
    pass


class TestGenerate:
    def test_n_records_with_indices(self, stub, tmp_path):
        server = stub()
        model = ModelConfig(name="m", endpoint_url=server.url)
        records = generate(model, "prompt", 5, run_dir=tmp_path, task_id="t",
                           sleep=no_sleep)
        assert [r.sample_index for r in records] == [0, 1, 2, 3, 4]
        assert all(isinstance(r.parsed, Prediction) for r in records)
        assert all(r.parsed.verdict is Verdict.T for r in records)
        assert len(server.requests) == 5

    def test_raw_persisted_before_parse(self, stub, tmp_path):
        server = stub()
        server.reply_text = "utterly unparseable"
        model = ModelConfig(name="m", endpoint_url=server.url)
        records = generate(model, "p", 1, run_dir=tmp_path, task_id="t",
                           sleep=no_sleep)
        path = record_path(tmp_path, "m", "t", 0)
        assert path.exists()
        stored = json.loads(path.read_text())
        assert stored["raw_text"] == "utterly unparseable"
        assert isinstance(records[0].parsed, FormatError)

    def test_resume_skips_existing(self, stub, tmp_path):
        server = stub()
        model = ModelConfig(name="m", endpoint_url=server.url)
        generate(model, "p", 3, run_dir=tmp_path, task_id="t", sleep=no_sleep)
        assert len(server.requests) == 3
        generate(model, "p", 5, run_dir=tmp_path, task_id="t", sleep=no_sleep)
        assert len(server.requests) == 5  # only the two missing samples

    def test_replay_no_network(self, stub, tmp_path):
        server = stub()
        live = ModelConfig(name="m", endpoint_url=server.url)
        first = generate(live, "p", 4, run_dir=tmp_path, task_id="t",
                         sleep=no_sleep)
        requests_after_live = len(server.requests)
        replay = ModelConfig(name="m", endpoint_url="http://127.0.0.1:1",
                             replay=True)
        second = generate(replay, "p", 4, run_dir=tmp_path, task_id="t",
                          sleep=no_sleep)
        assert len(server.requests) == requests_after_live
        assert [r.raw_text for r in first] == [r.raw_text for r in second]

    def test_cached_task_opens_no_session(self, stub, tmp_path, monkeypatch):
        server = stub()
        model = ModelConfig(name="m", endpoint_url=server.url)
        generate(model, "p", 3, run_dir=tmp_path, task_id="t", sleep=no_sleep)

        def no_session():
            raise AssertionError("a fully cached task opened a session")

        monkeypatch.setattr(requests, "Session", no_session)
        records = generate(model, "p", 3, run_dir=tmp_path, task_id="t",
                           sleep=no_sleep)
        assert [r.sample_index for r in records] == [0, 1, 2]
        assert len(server.requests) == 3

    def test_replay_missing_record_errors(self, tmp_path):
        model = ModelConfig(name="m", replay=True)
        with pytest.raises(FileNotFoundError):
            generate(model, "p", 1, run_dir=tmp_path, task_id="t",
                     sleep=no_sleep)

    def test_retry_on_transient_500(self, stub, tmp_path):
        server = stub(fail_times=2)
        model = ModelConfig(name="m", endpoint_url=server.url)
        records = generate(model, "p", 1, run_dir=tmp_path, task_id="t",
                           sleep=no_sleep)
        assert len(server.requests) == 3
        assert records[0].transport_error is None

    def test_persistent_500_becomes_tool_error_record(self, stub, tmp_path):
        server = stub(always_fail=True)
        model = ModelConfig(name="m", endpoint_url=server.url)
        records = generate(model, "p", 1, run_dir=tmp_path, task_id="t",
                           sleep=no_sleep)
        assert records[0].transport_error is not None
        assert isinstance(records[0].parsed, FormatError)
        # the failure is persisted so a later replay sees the same record
        replayed = replay_records(tmp_path, "m", "t")
        assert replayed[0].transport_error == records[0].transport_error

    def test_temperature_rejected_then_dropped(self, stub, tmp_path):
        server = stub(reject_temperature=True)
        model = ModelConfig(name="m", endpoint_url=server.url, temperature=0.7)
        records = generate(model, "p", 1, run_dir=tmp_path, task_id="t",
                           sleep=no_sleep)
        assert len(server.requests) == 2
        assert "temperature" in server.requests[0]["body"]
        assert "temperature" not in server.requests[1]["body"]
        assert isinstance(records[0].parsed, Prediction)

    def test_auth_failure_fatal(self, stub, tmp_path, monkeypatch):
        server = stub(require_key="sek")
        monkeypatch.setenv("STUB_KEY", "wrong")
        model = ModelConfig(name="m", endpoint_url=server.url,
                            api_key_env="STUB_KEY")
        with pytest.raises(AuthError):
            generate(model, "p", 1, run_dir=tmp_path, task_id="t",
                     sleep=no_sleep)

    def test_missing_key_env_fatal(self, stub, tmp_path, monkeypatch):
        server = stub()
        monkeypatch.delenv("NOT_SET_KEY", raising=False)
        model = ModelConfig(name="m", endpoint_url=server.url,
                            api_key_env="NOT_SET_KEY")
        with pytest.raises(AuthError):
            generate(model, "p", 1, run_dir=tmp_path, task_id="t",
                     sleep=no_sleep)

    def test_api_key_sent_as_bearer(self, stub, tmp_path, monkeypatch):
        server = stub(require_key="sek")
        monkeypatch.setenv("STUB_KEY", "sek")
        model = ModelConfig(name="m", endpoint_url=server.url,
                            api_key_env="STUB_KEY")
        generate(model, "p", 1, run_dir=tmp_path, task_id="t", sleep=no_sleep)
        assert server.requests[-1]["auth"] == "Bearer sek"

    def test_sampling_fields_in_request(self, stub, tmp_path):
        server = stub()
        model = ModelConfig(name="m", endpoint_url=server.url,
                            temperature=0.6, reasoning_effort="medium",
                            max_output_tokens=512)
        generate(model, "p", 1, run_dir=tmp_path, task_id="t", sleep=no_sleep)
        body = server.requests[0]["body"]
        assert body["top_p"] == 0.95
        assert body["temperature"] == 0.6
        assert body["reasoning_effort"] == "medium"
        assert body["max_tokens"] == 512
        assert body["messages"] == [{"role": "user", "content": "p"}]

    def test_cache_layout(self, stub, tmp_path):
        server = stub()
        model = ModelConfig(name="modelx", endpoint_url=server.url)
        generate(model, "p", 2, run_dir=tmp_path, task_id="suite/task1",
                 sleep=no_sleep)
        assert (tmp_path / "modelx" / "suite" / "task1" / "0.json").exists()
        assert (tmp_path / "modelx" / "suite" / "task1" / "1.json").exists()


# one of each kind of record the cache may hold but no run writes
BAD_RECORDS = {
    "raw text not a string": '{"task_id": "t", "model": "m", '
                             '"sample_index": 0, "raw_text": 5}',
    "list payload": '[1, 2]',
    "no task id": '{"model": "m", "sample_index": 0, "raw_text": "{}"}',
    "truncated": '{"task_id": "t", "model": "m", "sample_in',
    "deep": "[" * 100_000,
    "not utf-8": b'{"raw_text": "\xff"}',
}


class TestCorruptCache:
    @pytest.mark.parametrize("content", BAD_RECORDS.values(),
                             ids=BAD_RECORDS.keys())
    def test_bad_record_is_a_cache_format_error(self, tmp_path, content):
        good = {"task_id": "t", "model": "m", "sample_index": 0,
                "raw_text": '{"verdict": true}'}
        record_path(tmp_path, "m", "t", 0).parent.mkdir(parents=True)
        record_path(tmp_path, "m", "t", 0).write_text(json.dumps(good))
        bad = record_path(tmp_path, "m", "t", 1)
        if isinstance(content, bytes):
            bad.write_bytes(content)
        else:
            bad.write_text(content)
        records = replay_records(tmp_path, "m", "t")
        assert [r.sample_index for r in records] == [0, 1]
        assert records[0].parsed.verdict is Verdict.T
        assert isinstance(records[1].parsed, FormatError)
        assert records[1].parsed.message.startswith("cache: 1.json: ")
        assert (records[1].task_id, records[1].model) == ("t", "m")
        assert records[1].raw_text == ""

    def test_only_numbered_json_files_are_records(self, tmp_path):
        task_dir = record_path(tmp_path, "m", "t", 0).parent
        task_dir.mkdir(parents=True)
        for index in (10, 2, 0):
            record_path(tmp_path, "m", "t", index).write_text(json.dumps(
                {"task_id": "t", "model": "m", "sample_index": index,
                 "raw_text": '{"verdict": true}'}))
        for stray in ("notes.json", "3.json.tmp", "4.JSON", "5a.json",
                      "\u00b2.json", "-1.json"):
            (task_dir / stray).write_text("{}")
        records = replay_records(tmp_path, "m", "t")
        assert [r.sample_index for r in records] == [0, 2, 10]
        assert all(r.parsed.verdict is Verdict.T for r in records)

    def test_missing_task_directory_has_no_records(self, tmp_path):
        assert replay_records(tmp_path, "m", "t") == []
        (tmp_path / "m").mkdir()
        (tmp_path / "m" / "t").write_text("{}")  # a file, not a directory
        assert replay_records(tmp_path, "m", "t") == []
        assert replay_records(tmp_path, "m", "t\0") == []

    @pytest.mark.parametrize("name, content, message", [
        ("0.json", "\ufeff{}".encode(),
         "Unexpected UTF-8 BOM (decode using utf-8-sig): "
         "line 1 column 1 (char 0)"),
        ("1.json", '{"raw_text": "x"}'.encode("utf-16"),
         "'utf-8' codec can't decode byte 0xff in position 0: "
         "invalid start byte"),
        ("2.json", b'{"task_id": "t",\r\n "model": 3',
         "Expecting ',' delimiter: line 2 column 12 (char 28)"),
        ("3.json", None, "[Errno 21] Is a directory: '{path}'"),
    ], ids=["utf-8 bom", "utf-16", "crlf", "directory"])
    def test_unreadable_record_texts(self, tmp_path, name, content, message):
        # the texts are read as UTF-8 text, with newlines translated
        path = record_path(tmp_path, "m", "t", int(name[:-5]))
        path.parent.mkdir(parents=True)
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        (record,) = replay_records(tmp_path, "m", "t")
        assert record.sample_index == int(name[:-5])
        assert record.parsed == FormatError(
            f"cache: {name}: " + message.format(path=path))

    def test_generate_keeps_a_bad_cached_record(self, tmp_path):
        path = record_path(tmp_path, "m", "t", 0)
        path.parent.mkdir(parents=True)
        path.write_text(BAD_RECORDS["truncated"])
        model = ModelConfig(name="m", replay=True)
        records = generate(model, "p", 1, run_dir=tmp_path, task_id="t",
                           sleep=no_sleep)
        assert records[0].parsed.message.startswith("cache: 0.json: ")
