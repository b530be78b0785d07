"""Witness-automaton data model, oracle-output parsing, schema validation,
and SV-COMP GraphML emission.

Oracle replies are free text that ends in a JSON object with a ``verdict``
attribute (true = terminating, false = diverging with a ``witness`` graph,
null = unknown).  Validation checks semantic structure only; node naming
conventions from the prompt (entry N1, cyclehead N0) are deliberately not
enforced here.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import dataclass, field
from enum import Enum

log = logging.getLogger(__name__)


class Verdict(Enum):
    T = "T"
    NT = "NT"
    UNK = "UNK"


_JSON_VERDICTS = {True: Verdict.T, False: Verdict.NT, None: Verdict.UNK}

CONTROL_VALUES = ("condition-true", "condition-false")


@dataclass(frozen=True)
class WitnessNode:
    id: str
    entry: bool = False
    cyclehead: bool = False


@dataclass(frozen=True)
class WitnessEdge:
    id: str
    source: str
    target: str
    line: int | None
    sourcecode: str | None
    control: str | None = None
    assumption: str | None = None
    enter_loop_head: bool = False
    enter_function: str | None = None
    return_from: str | None = None


@dataclass(frozen=True)
class WitnessAutomaton:
    nodes: tuple[WitnessNode, ...]
    edges: tuple[WitnessEdge, ...]

    def node_ids(self) -> list[str]:
        return [n.id for n in self.nodes]

    def entry_nodes(self) -> list[WitnessNode]:
        return [n for n in self.nodes if n.entry]

    def cycleheads(self) -> list[WitnessNode]:
        return [n for n in self.nodes if n.cyclehead]


@dataclass
class Prediction:
    verdict: Verdict
    witness: WitnessAutomaton | None
    raw_text: str
    witness_format_error: str | None = None


@dataclass
class FormatError:
    message: str
    raw_text: str


# ---------------------------------------------------------------------------
# JSON extraction and parsing


# a JSON object opens with "{", optional JSON whitespace, then a key or "}";
# the decoder rejects every other "{", so only these are worth decoding
_OBJECT_START = re.compile(r'\{[ \t\n\r]*["}]')


def _iter_json_objects(text: str):
    """Yield (start, obj) for each maximal well-formed JSON object in text.

    Objects nested inside an already-matched object are skipped, so prose
    followed by a final answer object yields the answer last.  A candidate
    nested deeper than the decoder's recursion limit counts as malformed.
    """
    decoder = json.JSONDecoder()
    i = 0
    while True:
        match = _OBJECT_START.search(text, i)
        if match is None:
            return
        i = match.start()
        try:
            obj, end = decoder.raw_decode(text, i)
        except (ValueError, RecursionError):
            i += 1
            continue
        yield i, obj
        i = end


def _as_flag(value) -> bool:
    """Figure-style booleans: JSON true/false or the strings "true"/"false"."""
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        return value.strip().lower() == "true"
    return False


def _as_line(value) -> int | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str) and value.strip().lstrip("-").isdigit():
        return int(value.strip())
    return None


def _as_str(value) -> str | None:
    return value if isinstance(value, str) else None


def witness_from_json(data) -> WitnessAutomaton:
    """Build an automaton from the oracle's ``witness`` object.

    Lenient by design: missing or mistyped fields become ``None`` / defaults
    and are surfaced later by :func:`validate_schema`.  Raises ``ValueError``
    only when the object is not a nodes/edges graph at all.
    """
    if not isinstance(data, dict):
        raise ValueError("witness is not a JSON object")
    raw_nodes = data.get("nodes")
    raw_edges = data.get("edges")
    if not isinstance(raw_nodes, list) or not isinstance(raw_edges, list):
        raise ValueError("witness must contain nodes and edges arrays")
    nodes = []
    for item in raw_nodes:
        if not isinstance(item, dict):
            raise ValueError("witness node is not an object")
        nodes.append(WitnessNode(
            id=str(item.get("id", "")),
            entry=_as_flag(item.get("entry")),
            cyclehead=_as_flag(item.get("cyclehead")),
        ))
    edges = []
    for item in raw_edges:
        if not isinstance(item, dict):
            raise ValueError("witness edge is not an object")
        edges.append(WitnessEdge(
            id=str(item.get("id", "")),
            source=str(item.get("source", "")),
            target=str(item.get("target", "")),
            line=_as_line(item.get("line")),
            sourcecode=_as_str(item.get("sourcecode")),
            control=_as_str(item.get("control")),
            assumption=_as_str(item.get("assumption")),
            enter_loop_head=_as_flag(item.get("enterLoopHead")),
            enter_function=_as_str(item.get("enterFunction")),
            return_from=_as_str(item.get("returnFrom")),
        ))
    return WitnessAutomaton(tuple(nodes), tuple(edges))


def parse_prediction(raw: str) -> Prediction | FormatError:
    """Parse oracle output into a Prediction.

    The final well-formed JSON object in the text is the answer (reasoning
    models emit prose first).  A missing object or a missing/ill-typed
    ``verdict`` key is a :class:`FormatError`.  A witness on a non-NT verdict
    is ignored with a warning.
    """
    last = None
    for _, obj in _iter_json_objects(raw):
        last = obj
    if last is None:
        return FormatError("no JSON object found", raw)
    if "verdict" not in last:
        return FormatError("missing verdict attribute", raw)
    verdict_value = last["verdict"]
    if not (verdict_value is None or isinstance(verdict_value, bool)):
        return FormatError(f"ill-typed verdict {verdict_value!r}", raw)
    verdict = _JSON_VERDICTS[verdict_value]

    witness = None
    witness_error = None
    if "witness" in last:
        if verdict is not Verdict.NT:
            log.warning("witness attached to %s verdict; ignoring", verdict.value)
        else:
            try:
                witness = witness_from_json(last["witness"])
            except ValueError as exc:
                witness_error = str(exc)
    return Prediction(verdict, witness, raw, witness_error)


# ---------------------------------------------------------------------------
# Schema validation


@dataclass(frozen=True)
class SchemaViolation:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def _reachable(start: set[str], adjacency: dict[str, set[str]]) -> set[str]:
    seen = set(start)
    stack = list(start)
    while stack:
        node = stack.pop()
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def validate_schema(w: WitnessAutomaton) -> list[SchemaViolation]:
    """Full list of schema violations; empty means the witness is valid."""
    violations: list[SchemaViolation] = []
    node_ids = {n.id for n in w.nodes}
    seen_nodes: set[str] = set()
    for node in w.nodes:
        if not node.id:
            violations.append(SchemaViolation("EmptyNodeId", "node with empty id"))
        elif node.id in seen_nodes:
            violations.append(SchemaViolation("DuplicateNodeId", node.id))
        seen_nodes.add(node.id)

    seen_edges: set[str] = set()
    for edge in w.edges:
        if not edge.id:
            violations.append(SchemaViolation("MissingField", "edge without id"))
        elif edge.id in seen_edges:
            violations.append(SchemaViolation("DuplicateEdgeId", edge.id))
        seen_edges.add(edge.id)
        label = edge.id or "<anonymous>"
        if not edge.source:
            violations.append(SchemaViolation("MissingField", f"edge {label}: source"))
        elif edge.source not in node_ids:
            violations.append(SchemaViolation(
                "UnknownNode", f"edge {label}: source {edge.source!r}"))
        if not edge.target:
            violations.append(SchemaViolation("MissingField", f"edge {label}: target"))
        elif edge.target not in node_ids:
            violations.append(SchemaViolation(
                "UnknownNode", f"edge {label}: target {edge.target!r}"))
        if edge.line is None or edge.line <= 0:
            violations.append(SchemaViolation("MissingField", f"edge {label}: line"))
        if edge.sourcecode is None:
            violations.append(SchemaViolation(
                "MissingField", f"edge {label}: sourcecode"))
        if edge.control is not None and edge.control not in CONTROL_VALUES:
            violations.append(SchemaViolation(
                "BadControl", f"edge {label}: {edge.control!r}"))

    entries = w.entry_nodes()
    if len(entries) != 1:
        violations.append(SchemaViolation(
            "EntryCount", f"expected exactly one entry node, found {len(entries)}"))
    cycleheads = w.cycleheads()
    if not cycleheads:
        violations.append(SchemaViolation("NoCyclehead", "no node marked cyclehead"))

    if violations:
        return violations

    adjacency: dict[str, set[str]] = {}
    for edge in w.edges:
        adjacency.setdefault(edge.source, set()).add(edge.target)
    head_ids = {n.id for n in cycleheads}
    from_entry = _reachable({entries[0].id}, adjacency)
    if not head_ids & from_entry:
        violations.append(SchemaViolation(
            "UnreachableCyclehead", "no cyclehead reachable from the entry node"))
    # a cycle through some cyclehead: the head must reach itself via >= 1 edge
    cycle_ok = False
    for head in head_ids:
        successors = adjacency.get(head, set())
        if head in _reachable(set(successors), adjacency) or head in successors:
            cycle_ok = True
            break
    if not cycle_ok:
        violations.append(SchemaViolation(
            "NoCycle", "no cycle passes through a cyclehead node"))
    return violations


# ---------------------------------------------------------------------------
# GraphML emission


@dataclass(frozen=True)
class ProducerMeta:
    producer: str = "termeval"
    specification: str = "CHECK( init(main()), LTL(F end) )"
    creationtime: str = "1970-01-01T00:00:00Z"


# (key id, attr.name, attr.type, for, default) in emission order
_GRAPHML_KEYS = [
    ("witness-type", "witness-type", "string", "graph", None),
    ("sourcecodelang", "sourcecodelang", "string", "graph", None),
    ("producer", "producer", "string", "graph", None),
    ("specification", "specification", "string", "graph", None),
    ("programfile", "programfile", "string", "graph", None),
    ("programhash", "programhash", "string", "graph", None),
    ("architecture", "architecture", "string", "graph", None),
    ("creationtime", "creationtime", "string", "graph", None),
    ("entry", "entry", "boolean", "node", "false"),
    ("cyclehead", "cyclehead", "boolean", "node", "false"),
    ("startline", "startline", "int", "edge", None),
    ("sourcecode", "sourcecode", "string", "edge", None),
    ("control", "control", "string", "edge", None),
    ("assumption", "assumption", "string", "edge", None),
    ("enterLoopHead", "enterLoopHead", "boolean", "edge", "false"),
    ("enterFunction", "enterFunction", "string", "edge", None),
    ("returnFromFunction", "returnFromFunction", "string", "edge", None),
]


def _xml_escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def program_hash(source_bytes: bytes) -> str:
    return hashlib.sha256(source_bytes).hexdigest()


def emit_graphml(w: WitnessAutomaton, task, meta: ProducerMeta) -> str:
    """Emit a violation-witness GraphML document.

    ``task`` supplies ``source_path`` and ``architecture``; the program hash
    is the SHA-256 of the source bytes.  Output is byte-stable for fixed
    inputs: key declarations, then nodes in input order, then edges in input
    order.  The witness must already satisfy :func:`validate_schema`.
    """
    violations = validate_schema(w)
    if violations:
        raise ValueError(f"cannot emit invalid witness: {violations[0]}")

    source_bytes = task.source_path.read_bytes()
    graph_data = [
        ("witness-type", "violation_witness"),
        ("sourcecodelang", "C"),
        ("producer", meta.producer),
        ("specification", meta.specification),
        ("programfile", str(task.source_path)),
        ("programhash", program_hash(source_bytes)),
        ("architecture", task.architecture.value),
        ("creationtime", meta.creationtime),
    ]

    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append('<graphml xmlns="http://graphml.graphdrawing.org/xmlns" '
               'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">')
    for key_id, attr_name, attr_type, target, default in _GRAPHML_KEYS:
        decl = (f'  <key id="{key_id}" attr.name="{attr_name}" '
                f'attr.type="{attr_type}" for="{target}"')
        if default is None:
            out.append(decl + "/>")
        else:
            out.append(decl + f"><default>{default}</default></key>")
    out.append('  <graph edgedefault="directed">')
    for key, value in graph_data:
        out.append(f'    <data key="{key}">{_xml_escape(value)}</data>')
    for node in w.nodes:
        data = []
        if node.entry:
            data.append('      <data key="entry">true</data>')
        if node.cyclehead:
            data.append('      <data key="cyclehead">true</data>')
        if data:
            out.append(f'    <node id="{_xml_escape(node.id)}">')
            out.extend(data)
            out.append("    </node>")
        else:
            out.append(f'    <node id="{_xml_escape(node.id)}"/>')
    for edge in w.edges:
        out.append(f'    <edge id="{_xml_escape(edge.id)}" '
                   f'source="{_xml_escape(edge.source)}" '
                   f'target="{_xml_escape(edge.target)}">')
        out.append(f'      <data key="startline">{edge.line}</data>')
        out.append(f'      <data key="sourcecode">{_xml_escape(edge.sourcecode)}</data>')
        if edge.control:
            out.append(f'      <data key="control">{_xml_escape(edge.control)}</data>')
        if edge.assumption:
            out.append('      <data key="assumption">'
                       f'{_xml_escape(edge.assumption)}</data>')
        if edge.enter_loop_head:
            out.append('      <data key="enterLoopHead">true</data>')
        if edge.enter_function:
            out.append('      <data key="enterFunction">'
                       f'{_xml_escape(edge.enter_function)}</data>')
        if edge.return_from:
            out.append('      <data key="returnFromFunction">'
                       f'{_xml_escape(edge.return_from)}</data>')
        out.append("    </edge>")
    out.append("  </graph>")
    out.append("</graphml>")
    return "\n".join(out) + "\n"
