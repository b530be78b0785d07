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
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path


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

    def entry_nodes(self) -> list[WitnessNode]:
        return [n for n in self.nodes if n.entry]

    def cycleheads(self) -> list[WitnessNode]:
        return [n for n in self.nodes if n.cyclehead]


@dataclass
class Prediction:
    verdict: Verdict
    witness: WitnessAutomaton | None
    witness_format_error: str | None = None


@dataclass
class FormatError:
    message: str


# ---------------------------------------------------------------------------
# JSON extraction and parsing


# a JSON object opens with "{", optional JSON whitespace, then a key or "}";
# the decoder rejects every other "{", so only these are worth decoding
_OBJECT_START = re.compile(r'\{[ \t\n\r]*["}]')


def _int_or_none(text: str) -> int | None:
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return None


_DECODER = json.JSONDecoder()
# reads an integer too long for int() as null, for a candidate that has one
_LENIENT_DECODER = json.JSONDecoder(parse_int=_int_or_none)


def _decode_at(text: str, i: int):
    try:
        return _DECODER.raw_decode(text, i)
    except json.JSONDecodeError:
        raise
    except ValueError:
        return _LENIENT_DECODER.raw_decode(text, i)


def _iter_json_objects(text: str):
    """Yield (start, obj) for each maximal well-formed JSON object in text.

    Objects nested inside an already-matched object are skipped, so prose
    followed by a final answer object yields the answer last.  A candidate
    nested deeper than the decoder's recursion limit counts as malformed.
    An integer with more digits than ``int()`` reads is null.
    """
    i = 0
    while True:
        match = _OBJECT_START.search(text, i)
        if match is None:
            return
        i = match.start()
        try:
            obj, end = _decode_at(text, i)
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


# a line given as text: ASCII digits, few enough that int() never refuses them
_LINE_TEXT = re.compile(r"-?[0-9]{1,18}")


def _as_line(value) -> int | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str) and _LINE_TEXT.fullmatch(value.strip()):
        return int(value)
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
    is ignored.
    """
    last = None
    for _, obj in _iter_json_objects(raw):
        last = obj
    if last is None:
        return FormatError("no JSON object found")
    if "verdict" not in last:
        return FormatError("missing verdict attribute")
    verdict_value = last["verdict"]
    if not (verdict_value is None or isinstance(verdict_value, bool)):
        return FormatError(f"ill-typed verdict {verdict_value!r}")
    verdict = _JSON_VERDICTS[verdict_value]

    witness = None
    witness_error = None
    if "witness" in last and verdict is Verdict.NT:
        try:
            witness = witness_from_json(last["witness"])
        except ValueError as exc:
            witness_error = str(exc)
    return Prediction(verdict, witness, witness_error)


# ---------------------------------------------------------------------------
# Schema validation


@dataclass(frozen=True)
class SchemaViolation:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def validate_schema(w: WitnessAutomaton) -> list[SchemaViolation]:
    """Full list of schema violations; empty means the witness is valid.

    Only the records are checked here; whether the graph holds a lasso is
    decided by :func:`lasso.extract_lasso` alone."""
    violations: list[SchemaViolation] = []
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
        elif edge.source not in seen_nodes:
            violations.append(SchemaViolation(
                "UnknownNode", f"edge {label}: source {edge.source!r}"))
        if not edge.target:
            violations.append(SchemaViolation("MissingField", f"edge {label}: target"))
        elif edge.target not in seen_nodes:
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
    if not w.cycleheads():
        violations.append(SchemaViolation("NoCyclehead", "no node marked cyclehead"))
    return violations


# ---------------------------------------------------------------------------
# GraphML emission


# the node and edge keys as (key, attr.type, for), in emission order, after
# the graph's string keys; each key is its own attr.name, and a boolean key
# defaults to false
_ELEMENT_KEYS = [
    ("entry", "boolean", "node"),
    ("cyclehead", "boolean", "node"),
    ("startline", "int", "edge"),
    ("sourcecode", "string", "edge"),
    ("control", "string", "edge"),
    ("assumption", "string", "edge"),
    ("enterLoopHead", "boolean", "edge"),
    ("enterFunction", "string", "edge"),
    ("returnFromFunction", "string", "edge"),
]


def _xml_escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def program_hash(source_bytes: bytes) -> str:
    return hashlib.sha256(source_bytes).hexdigest()


def _element(out: list[str], tag: str, attrs: dict[str, str],
             data: list[tuple[str, str]]) -> None:
    """Append a node or edge with one ``<data>`` line per (key, value)."""
    head = f"    <{tag} " + " ".join(
        f'{name}="{_xml_escape(value)}"' for name, value in attrs.items())
    if not data:
        out.append(head + "/>")
        return
    out.append(head + ">")
    out.extend(f'      <data key="{key}">{_xml_escape(value)}</data>'
               for key, value in data)
    out.append(f"    </{tag}>")


def emit_graphml(w: WitnessAutomaton, source_path: Path | str,
                 architecture: str, *,
                 creationtime: str = "1970-01-01T00:00:00Z") -> str:
    """Emit a violation-witness GraphML document for the program at
    ``source_path`` on ``architecture`` ("32bit" or "64bit").

    The program hash is the SHA-256 of the source bytes.  Output is
    byte-stable for fixed inputs: key declarations, then nodes in input
    order, then edges in input order.  The witness must already satisfy
    :func:`validate_schema`.
    """
    violations = validate_schema(w)
    if violations:
        raise ValueError(f"cannot emit invalid witness: {violations[0]}")

    source_path = Path(source_path)
    graph_data = [
        ("witness-type", "violation_witness"),
        ("sourcecodelang", "C"),
        ("producer", "termeval"),
        ("specification", "CHECK( init(main()), LTL(F end) )"),
        ("programfile", str(source_path)),
        ("programhash", program_hash(source_path.read_bytes())),
        ("architecture", architecture),
        ("creationtime", creationtime),
    ]

    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append('<graphml xmlns="http://graphml.graphdrawing.org/xmlns" '
               'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">')
    graph_keys = [(key, "string", "graph") for key, _ in graph_data]
    for key, attr_type, target in graph_keys + _ELEMENT_KEYS:
        decl = (f'  <key id="{key}" attr.name="{key}" '
                f'attr.type="{attr_type}" for="{target}"')
        out.append(decl + ("><default>false</default></key>"
                           if attr_type == "boolean" else "/>"))
    out.append('  <graph edgedefault="directed">')
    for key, value in graph_data:
        out.append(f'    <data key="{key}">{_xml_escape(value)}</data>')
    for node in w.nodes:
        flags = (("entry", node.entry), ("cyclehead", node.cyclehead))
        _element(out, "node", {"id": node.id},
                 [(key, "true") for key, on in flags if on])
    for edge in w.edges:
        # startline and sourcecode always; the rest only when set
        optional = (("control", edge.control),
                    ("assumption", edge.assumption),
                    ("enterLoopHead", "true" if edge.enter_loop_head else ""),
                    ("enterFunction", edge.enter_function),
                    ("returnFromFunction", edge.return_from))
        _element(out, "edge",
                 {"id": edge.id, "source": edge.source, "target": edge.target},
                 [("startline", str(edge.line)),
                  ("sourcecode", edge.sourcecode),
                  *((key, value) for key, value in optional if value)])
    out.append("  </graph>")
    out.append("</graphml>")
    return "\n".join(out) + "\n"
