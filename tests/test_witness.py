import json

import pytest
from hypothesis import given, settings, strategies as st

from termeval.corpus import Architecture, Category, TaskSpec
from termeval.witness import (
    FormatError, Prediction, ProducerMeta, Verdict, WitnessAutomaton,
    WitnessEdge, WitnessNode, emit_graphml, parse_prediction,
    _iter_json_objects, program_hash, validate_schema, witness_from_json,
)

from conftest import FIXTURES, load_witness_json, load_witness_text
from reference import parse_graphml

ALL_WITNESS_FIXTURES = [
    "even_spin.json", "absorb_to_zero.json", "absorb_to_zero_selfloop.json",
    "negate_keeps_positive.json", "stall_wrong.json", "stall_correct.json",
]


def fixture_automaton(name: str) -> WitnessAutomaton:
    return witness_from_json(load_witness_json(name)["witness"])


class TestParsePrediction:
    def test_nt_with_witness(self):
        pred = parse_prediction(load_witness_text("even_spin.json"))
        assert isinstance(pred, Prediction)
        assert pred.verdict is Verdict.NT
        assert pred.witness is not None
        assert pred.witness.node_ids() == ["N1", "N2", "N0", "N3"]

    def test_plain_true_verdict(self):
        pred = parse_prediction('{"verdict": true}')
        assert isinstance(pred, Prediction)
        assert pred.verdict is Verdict.T
        assert pred.witness is None

    def test_null_verdict_is_unknown(self):
        pred = parse_prediction('{"verdict": null}')
        assert pred.verdict is Verdict.UNK

    def test_no_braces(self):
        assert isinstance(parse_prediction("I have no idea."), FormatError)

    def test_missing_verdict_key(self):
        assert isinstance(parse_prediction('{"answer": true}'), FormatError)

    def test_ill_typed_verdict(self):
        assert isinstance(parse_prediction('{"verdict": "true"}'), FormatError)

    def test_reasoning_prose_then_answer(self):
        text = ("Let me think. The loop at {line 6} runs while x is even... "
                "so it diverges.\n\nFinal answer:\n"
                '{"verdict": false, "witness": ' +
                json.dumps(load_witness_json("even_spin.json")["witness"]) + "}")
        pred = parse_prediction(text)
        assert isinstance(pred, Prediction)
        assert pred.verdict is Verdict.NT
        assert pred.witness is not None

    def test_last_object_wins(self):
        text = '{"verdict": true}\nwait, reconsidering...\n{"verdict": false}'
        pred = parse_prediction(text)
        assert pred.verdict is Verdict.NT

    def test_fenced_block(self):
        text = "Answer below.\n```json\n{\n  \"verdict\": true\n}\n```\n"
        pred = parse_prediction(text)
        assert isinstance(pred, Prediction)
        assert pred.verdict is Verdict.T

    def test_witness_on_true_verdict_ignored(self):
        text = '{"verdict": true, "witness": {"nodes": [], "edges": []}}'
        pred = parse_prediction(text)
        assert pred.verdict is Verdict.T
        assert pred.witness is None

    def test_malformed_witness_recorded(self):
        text = '{"verdict": false, "witness": "not a graph"}'
        pred = parse_prediction(text)
        assert isinstance(pred, Prediction)
        assert pred.verdict is Verdict.NT
        assert pred.witness is None
        assert pred.witness_format_error is not None

    def test_string_flags_accepted(self):
        data = load_witness_json("even_spin.json")["witness"]
        automaton = witness_from_json(data)
        assert automaton.nodes[0].entry is True
        assert automaton.nodes[2].cyclehead is True

    @given(st.text(max_size=300))
    def test_total_over_arbitrary_text(self, text):
        result = parse_prediction(text)
        assert isinstance(result, (Prediction, FormatError))

    def test_nesting_past_recursion_limit_is_format_error(self):
        result = parse_prediction('{"a":[' * 3000)
        assert isinstance(result, FormatError)

    def test_answer_after_too_deep_object(self):
        text = '{"a":[' * 3000 + '\n{"verdict": true}'
        result = parse_prediction(text)
        assert isinstance(result, Prediction)
        assert result.verdict is Verdict.T


def every_brace_objects(text: str):
    """Reference extraction: try to decode at every "{"."""
    decoder = json.JSONDecoder()
    found, i = [], 0
    while True:
        i = text.find("{", i)
        if i < 0:
            return found
        try:
            obj, end = decoder.raw_decode(text, i)
        except (ValueError, RecursionError):
            i += 1
            continue
        found.append((i, obj))
        i = end


JSON_SPACE = st.text(" \t\n\r\f", max_size=3)
# "{", some whitespace, then what may or may not continue an object
BRACE_OPENINGS = st.builds(
    lambda space, rest: "{" + space + rest, JSON_SPACE,
    st.sampled_from(["}", '"k": 1}', '"k"', "x}", "1}", "[]}", "{}}"]))
JSON_TEXT = st.lists(st.one_of(
    st.sampled_from("{}[]:,"), JSON_SPACE, BRACE_OPENINGS,
    st.sampled_from(['"k"', "1", "null", "x", '{"verdict": false}',
                     "int main() { while (x) { x--; } }"]),
), max_size=40).map("".join)


class TestJsonObjectScan:
    @settings(max_examples=500)
    @given(JSON_TEXT)
    def test_matches_decoding_at_every_brace(self, text):
        assert list(_iter_json_objects(text)) == every_brace_objects(text)


class TestValidateSchema:
    @pytest.mark.parametrize("name", ALL_WITNESS_FIXTURES)
    def test_fixture_witnesses_valid(self, name):
        assert validate_schema(fixture_automaton(name)) == []

    def test_duplicate_edge_id(self):
        automaton = fixture_automaton("even_spin.json")
        edges = list(automaton.edges)
        edges[1] = WitnessEdge(id="E0", source=edges[1].source,
                               target=edges[1].target, line=edges[1].line,
                               sourcecode=edges[1].sourcecode)
        violations = validate_schema(WitnessAutomaton(automaton.nodes,
                                                      tuple(edges)))
        assert any(v.kind == "DuplicateEdgeId" and v.detail == "E0"
                   for v in violations)

    def test_duplicate_node_id(self):
        automaton = fixture_automaton("even_spin.json")
        nodes = list(automaton.nodes) + [WitnessNode("N1")]
        violations = validate_schema(WitnessAutomaton(tuple(nodes),
                                                      automaton.edges))
        assert any(v.kind == "DuplicateNodeId" for v in violations)

    def test_unreachable_cyclehead(self):
        # derived 3-node graph: entry has no path into the loop component
        automaton = WitnessAutomaton(
            nodes=(WitnessNode("A", entry=True), WitnessNode("B"),
                   WitnessNode("C", cyclehead=True)),
            edges=(WitnessEdge("E1", "A", "B", 1, "x = 1;"),
                   WitnessEdge("E2", "C", "C", 2, "y = 2;")),
        )
        violations = validate_schema(automaton)
        assert any(v.kind == "UnreachableCyclehead" for v in violations)

    def test_cyclehead_without_cycle(self):
        automaton = WitnessAutomaton(
            nodes=(WitnessNode("A", entry=True),
                   WitnessNode("B", cyclehead=True)),
            edges=(WitnessEdge("E1", "A", "B", 1, "x = 1;"),),
        )
        violations = validate_schema(automaton)
        assert any(v.kind == "NoCycle" for v in violations)

    def test_no_entry(self):
        automaton = WitnessAutomaton(
            nodes=(WitnessNode("A"), WitnessNode("B", cyclehead=True)),
            edges=(WitnessEdge("E1", "A", "B", 1, "x;"),
                   WitnessEdge("E2", "B", "B", 2, "y;")),
        )
        assert any(v.kind == "EntryCount" for v in validate_schema(automaton))

    def test_two_entries(self):
        automaton = WitnessAutomaton(
            nodes=(WitnessNode("A", entry=True), WitnessNode("B", entry=True),
                   WitnessNode("C", cyclehead=True)),
            edges=(WitnessEdge("E1", "A", "C", 1, "x;"),
                   WitnessEdge("E2", "C", "C", 2, "y;")),
        )
        assert any(v.kind == "EntryCount" for v in validate_schema(automaton))

    def test_dangling_edge_target(self):
        automaton = WitnessAutomaton(
            nodes=(WitnessNode("A", entry=True),
                   WitnessNode("B", cyclehead=True)),
            edges=(WitnessEdge("E1", "A", "Z", 1, "x;"),
                   WitnessEdge("E2", "B", "B", 2, "y;")),
        )
        assert any(v.kind == "UnknownNode" for v in validate_schema(automaton))

    @pytest.mark.parametrize("dropped", ["id", "source", "target", "line",
                                         "sourcecode"])
    def test_each_required_field_deletion_rejected(self, dropped):
        data = load_witness_json("even_spin.json")["witness"]
        del data["edges"][2][dropped]
        automaton = witness_from_json(data)
        assert validate_schema(automaton) != []

    def test_zero_line_rejected(self):
        data = load_witness_json("even_spin.json")["witness"]
        data["edges"][0]["line"] = 0
        assert validate_schema(witness_from_json(data)) != []

    def test_bad_control_value(self):
        data = load_witness_json("even_spin.json")["witness"]
        data["edges"][2]["control"] = "sometimes"
        assert any(v.kind == "BadControl"
                   for v in validate_schema(witness_from_json(data)))

    @pytest.mark.parametrize("name", ALL_WITNESS_FIXTURES)
    def test_node_renaming_agnosticism(self, name):
        automaton = fixture_automaton(name)
        mapping = {node_id: f"state_{i}"
                   for i, node_id in enumerate(automaton.node_ids())}
        renamed = WitnessAutomaton(
            nodes=tuple(WitnessNode(mapping[n.id], n.entry, n.cyclehead)
                        for n in automaton.nodes),
            edges=tuple(WitnessEdge(e.id, mapping[e.source], mapping[e.target],
                                    e.line, e.sourcecode, e.control,
                                    e.assumption, e.enter_loop_head,
                                    e.enter_function, e.return_from)
                        for e in automaton.edges),
        )
        assert validate_schema(renamed) == validate_schema(automaton)


def make_task(tmp_path, name="even_spin.c") -> TaskSpec:
    source = (FIXTURES / "programs" / name).read_text()
    path = tmp_path / name
    path.write_text(source)
    return TaskSpec(
        task_id=name[:-2], source_path=path,
        source=source, category=Category.OTHER,
        expected_verdict="NT", architecture=Architecture.BITS32,
        token_count=1)


class TestGraphML:
    def test_cyclehead_marker_present(self, tmp_path):
        automaton = fixture_automaton("even_spin.json")
        text = emit_graphml(automaton, make_task(tmp_path), ProducerMeta())
        assert '<data key="witness-type">violation_witness</data>' in text
        assert '<data key="cyclehead">true</data>' in text
        assert '<data key="entry">true</data>' in text
        assert '<data key="startline">6</data>' in text

    def test_empty_optional_fields_omitted(self, tmp_path):
        automaton = fixture_automaton("even_spin.json")
        text = emit_graphml(automaton, make_task(tmp_path), ProducerMeta())
        # E0 carries no control/assumption: exactly two assumption elements
        # would be wrong; only E2 has one
        assert text.count('<data key="assumption">') == 1
        assert text.count('<data key="control">') == 1

    def test_deterministic_bytes(self, tmp_path):
        automaton = fixture_automaton("even_spin.json")
        task = make_task(tmp_path)
        meta = ProducerMeta(creationtime="2025-01-01T00:00:00Z")
        assert emit_graphml(automaton, task, meta) == \
            emit_graphml(automaton, task, meta)

    def test_program_hash_is_sha256(self, tmp_path):
        task = make_task(tmp_path)
        text = emit_graphml(fixture_automaton("even_spin.json"), task,
                            ProducerMeta())
        digest = program_hash(task.source_path.read_bytes())
        assert f'<data key="programhash">{digest}</data>' in text
        assert digest == digest.lower()
        assert len(digest) == 64

    def test_architecture_value(self, tmp_path):
        text = emit_graphml(fixture_automaton("even_spin.json"),
                            make_task(tmp_path), ProducerMeta())
        assert '<data key="architecture">32bit</data>' in text

    def test_invalid_witness_refused(self, tmp_path):
        automaton = WitnessAutomaton(
            nodes=(WitnessNode("A", entry=True),),
            edges=(),
        )
        with pytest.raises(ValueError):
            emit_graphml(automaton, make_task(tmp_path), ProducerMeta())

    def test_xml_escaping(self, tmp_path):
        data = load_witness_json("absorb_to_zero.json")["witness"]
        automaton = witness_from_json(data)
        text = emit_graphml(automaton, make_task(tmp_path, "absorb_to_zero.c"),
                            ProducerMeta())
        assert "i &gt;= -5 &amp;&amp; i &lt;= 5" in text

    @pytest.mark.parametrize("name", ALL_WITNESS_FIXTURES)
    def test_round_trip_through_graphml(self, name, tmp_path):
        automaton = fixture_automaton(name)
        text = emit_graphml(automaton, make_task(tmp_path), ProducerMeta())
        again = parse_graphml(text)
        assert again == automaton

    def test_round_trip_function_annotations(self, tmp_path):
        automaton = WitnessAutomaton(
            nodes=(WitnessNode("A", entry=True),
                   WitnessNode("B", cyclehead=True)),
            edges=(
                WitnessEdge("E1", "A", "B", 2, "helper()",
                            enter_function="helper"),
                WitnessEdge("E2", "B", "B", 3, "x = x;",
                            return_from="helper"),
            ),
        )
        text = emit_graphml(automaton, make_task(tmp_path), ProducerMeta())
        assert '<data key="enterFunction">helper</data>' in text
        assert '<data key="returnFromFunction">helper</data>' in text
        assert parse_graphml(text) == automaton

    def test_element_order_keys_nodes_edges(self, tmp_path):
        text = emit_graphml(fixture_automaton("even_spin.json"),
                            make_task(tmp_path), ProducerMeta())
        last_key = max(i for i, line in enumerate(text.splitlines())
                       if "<key " in line)
        first_node = min(i for i, line in enumerate(text.splitlines())
                         if "<node " in line)
        first_edge = min(i for i, line in enumerate(text.splitlines())
                         if "<edge " in line)
        assert last_key < first_node < first_edge

    def test_golden_file(self):
        source_path = FIXTURES / "programs" / "even_spin.c"
        source = source_path.read_text(encoding="utf-8")
        task = TaskSpec(
            task_id="even_spin", source_path=source_path,
            source=source, category=Category.OTHER,
            expected_verdict="NT", architecture=Architecture.BITS32,
            token_count=1)
        emitted = emit_graphml(fixture_automaton("even_spin.json"), task,
                               ProducerMeta())
        # the absolute programfile path is machine-specific; the golden file
        # stores the bare name
        emitted = emitted.replace(str(source_path), "even_spin.c")
        golden = (FIXTURES / "golden" / "even_spin.graphml").read_text(
            encoding="utf-8")
        assert emitted == golden
