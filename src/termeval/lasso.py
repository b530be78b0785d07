"""Desk-scale feasibility checking of non-termination witnesses.

A schema-valid witness decomposes into a lasso: a stem from the entry node to
a cyclehead plus a cycle returning to that cyclehead.  The checker enumerates
concrete values for the program's nondeterministic variables and simulates
the program while tracking the lasso.  The automaton is an observer: a
program step either matches the pending edge (line and control agree, the
assumption holds afterward) and advances it, or the automaton stutters.
Edges on a line where ``main``'s lowered code takes no step (declarations,
braces, blank lines, global initialisers, functions ``main`` never runs) are
dropped once per check, before any run; a cycle with no edge left proves
nothing, however often it is passed.

Each check compiles once: ``main`` is lowered to a flat instruction list
whose expressions, and the witness's assumptions, are functions generated by
:func:`cparse.compile_expr` with every conversion and wrap resolved; every
enumerated assignment then runs that list in one loop.

Verdicts come in two honesty tiers: ``ProvenInfinite`` requires a repeated
machine state at the cyclehead with no nondeterministic call inside the
repeating segment; ``BoundedEvidence`` reports a configured number of
completed cycles without a proof.  ``Infeasible`` is only claimed when every
enumerated assignment conclusively failed edge consistency.

The authoritative external validator is driven as a child process on the
witness emitted as GraphML; its verdict overrides the internal tiers when
configured.
"""

from __future__ import annotations

import itertools
import math
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from . import cparse
from .cparse import (
    Assign, Block, CType, Decl, EvalUndefined, If, NondetAssign, Program,
    Return, UnsupportedConstruct, While, wrap,
)
from .witness import WitnessAutomaton, WitnessEdge, emit_graphml


# ---------------------------------------------------------------------------
# Lasso extraction


@dataclass(frozen=True)
class LassoPath:
    stem: tuple[WitnessEdge, ...]
    cycle: tuple[WitnessEdge, ...]
    cyclehead: str


@dataclass(frozen=True)
class NoLasso:
    reason: str


def _way(start: str, goal: str, adjacency: dict[str, set[str]],
         blocked: set[str]) -> list[str] | None:
    """The nodes of a simple path start -> goal that enters no node of
    ``blocked``, goal first and ``start`` last, or None.  A search that fails
    adds every node it reached to ``blocked``: while ``blocked`` only grows,
    none of them can reach the goal."""
    parent: dict[str, str | None] = {start: None}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            way = []
            while node is not None:
                way.append(node)
                node = parent[node]
            return way
        for nxt in adjacency.get(node, ()):
            if nxt not in parent and nxt not in blocked:
                parent[nxt] = node
                stack.append(nxt)
    blocked.update(parent)
    return None


def _lex_path(edges_from: dict[str, list[WitnessEdge]],
              adjacency: dict[str, set[str]], start: str, goal: str,
              allow_empty: bool) -> list[WitnessEdge] | None:
    """Lexicographically smallest (by edge-id sequence) simple path
    start -> goal.  With ``allow_empty`` false a path must use >= 1 edge,
    which makes start == goal a cycle search.

    A greedy walk: at each node take the first edge, in id order, after which
    the goal can still be reached without revisiting the path.  Nothing is
    backtracked and the stack stays flat.  An edge is tested by a search for
    a way on to the goal; the way found is kept, and an edge that continues
    it needs no search.  A failed search blocks every node it reached, so
    those nodes are never searched again.  The last candidate is taken
    untested: if the goal is reachable from the node, it is reachable through
    that edge; if not, there is no path at all, and the walk ends at a node
    with no candidates.
    """
    if start == goal and allow_empty:
        return []
    path: list[WitnessEdge] = []
    blocked = set() if start == goal else {start}  # never entered again
    ahead: list[str] = []  # a known way on to the goal, next node last
    node = start
    while True:
        options = [e for e in edges_from.get(node, ())
                   if e.target == goal or e.target not in blocked]
        for edge in options[:-1]:
            if edge.target == goal or (ahead and edge.target == ahead[-1]):
                break
            way = _way(edge.target, goal, adjacency, blocked)
            if way is not None:
                ahead = way
                break
        else:
            if not options:
                return None
            edge = options[-1]
        path.append(edge)
        if edge.target == goal:
            return path
        if ahead and ahead[-1] == edge.target:
            ahead.pop()
        else:
            ahead = []
        node = edge.target
        blocked.add(node)


def reach_and_cycles(entry: str | None, adjacency: dict[str, set[str]]
                     ) -> tuple[set[str], set[str]]:
    """The nodes that ``entry`` reaches, itself included, and the nodes on a
    cycle: those with an edge to themselves or in a strongly connected
    component of two or more nodes.  One depth-first pass with its own stack,
    from ``entry`` and then from every other node with an edge (Tarjan, SIAM
    J. Comput. 1972); the time is linear in nodes plus edges."""
    open_nodes: list[str] = []  # visited nodes whose component is open
    low: dict[str, int] = {}  # least open position known; maxsize once closed
    reached, on_cycle = set(), set()
    for root in (entry, *adjacency):
        if root is None or root in low:
            continue
        low[root] = 0
        open_nodes.append(root)
        path = [(root, 0, iter(adjacency.get(root, ())))]
        while path:
            node, at, successors = path[-1]
            for nxt in successors:
                if nxt not in low:
                    low[nxt] = len(open_nodes)
                    path.append((nxt, low[nxt], iter(adjacency.get(nxt, ()))))
                    open_nodes.append(nxt)
                    break
                low[node] = min(low[node], low[nxt])
            else:
                path.pop()
                if low[node] < at:  # the component opened below node
                    parent = path[-1][0]
                    low[parent] = min(low[parent], low[node])
                    continue
                component = open_nodes[at:]
                del open_nodes[at:]
                for member in component:
                    low[member] = sys.maxsize
                if len(component) > 1 or node in adjacency.get(node, ()):
                    on_cycle.update(component)
        if root == entry:
            reached = set(low)
    return reached, on_cycle


def extract_lasso(w: WitnessAutomaton) -> LassoPath | NoLasso:
    """Decompose a schema-valid witness into stem + simple cycle; the only
    judge of whether a witness's graph holds a lasso.

    The first cyclehead (in node input order) with a stem and a cycle is
    used; among multiple simple cycles through it the lexicographically
    smallest edge-id sequence wins, and likewise among stems.  One linear
    pass (:func:`reach_and_cycles`) picks the head; each of the two path
    searches then takes at most O(V·(V+E)) time, and is linear on chains and
    combs.
    """
    entry = next((n.id for n in w.nodes if n.entry), None)
    edges_from: dict[str, list[WitnessEdge]] = {}
    adjacency: dict[str, set[str]] = {}
    for edge in sorted(w.edges, key=lambda e: e.id):
        edges_from.setdefault(edge.source, []).append(edge)
        adjacency.setdefault(edge.source, set()).add(edge.target)

    reached, on_cycle = reach_and_cycles(entry, adjacency)
    heads = [n.id for n in w.cycleheads()]
    head = next((h for h in heads if h in reached and h in on_cycle), None)
    if head is None:
        if reached.isdisjoint(heads):
            return NoLasso("no cyclehead reachable from the entry node")
        if on_cycle.isdisjoint(heads):
            return NoLasso("no cycle passes through a cyclehead node")
        return NoLasso("no cyclehead is both reachable from the entry node "
                       "and on a cycle")
    cycle = _lex_path(edges_from, adjacency, head, head, allow_empty=False)
    stem = _lex_path(edges_from, adjacency, entry, head, allow_empty=True)
    return LassoPath(tuple(stem), tuple(cycle), head)


# ---------------------------------------------------------------------------
# Checker configuration and results


@dataclass(frozen=True)
class CheckerConfig:
    nondet_domain: tuple[int, int] = (-64, 64)
    max_assignments: int = 4096
    max_steps: int = 200_000
    bounded_cycle_target: int = 1000
    stall_steps: int = 2000  # steps without automaton progress before giving up

    def __post_init__(self):
        lo, hi = self.nondet_domain
        if lo > hi:
            raise ValueError("empty nondet domain")
        for name in ("max_assignments", "max_steps", "bounded_cycle_target",
                     "stall_steps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class MachineState:
    location: int  # source line of the cycle-closing statement
    env: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class ProvenInfinite:
    state: MachineState
    assignment: dict[str, int]


@dataclass(frozen=True)
class BoundedEvidence:
    cycles: int
    assignment: dict[str, int]


@dataclass(frozen=True)
class Infeasible:
    edge_id: str


@dataclass(frozen=True)
class Unknown:
    reason: str


FeasibilityResult = ProvenInfinite | BoundedEvidence | Infeasible | Unknown


# ---------------------------------------------------------------------------
# Compiled program: main lowered once into a flat instruction list


# Opcodes.  COND, ASSIGN, NONDET and RETURN are steps, which witness edges
# match; the others run silently between steps.
COND, ASSIGN, JUMP, NONDET, RETURN, SET, DECL, END = range(8)
_STEPS = (COND, ASSIGN, NONDET, RETURN)


def _site_key(name: str, line: int) -> str:
    return f"{name}@{line}"


def _false(env: dict[str, int]) -> int:
    return 0


def _lower(program: Program) -> list[tuple]:
    """Lower the globals' initialisation and ``main`` into instructions
    ``(opcode, line, a, b)``, each expression compiled with its wrap:

    * ``(COND, line, test, target)``: a step; go to ``target`` when false;
    * ``(ASSIGN, line, name, value)``: a step, ``env[name] = value(env)``;
    * ``(NONDET, line, name, value)``: a step, ``env[name] = value(assignment)``;
    * ``(RETURN, line, value, None)``: a step that ends the program;
    * ``(SET, line, name, value)``: a global's initialisation;
    * ``(DECL, line, name, None)``: a declaration without an initialiser;
    * ``(JUMP, 0, target, None)``, and ``END`` after the last statement.

    A step's statement is identified by the index of its instruction.
    """
    types = program.types
    code: list[tuple] = []

    def compiled(expr, into=None):
        return cparse.compile_expr(expr, types, into)[0]

    def emit(stmts):
        for stmt in stmts:
            if isinstance(stmt, Decl):
                if stmt.init is None:
                    code.append((DECL, stmt.line, stmt.name, None))
                else:
                    code.append((ASSIGN, stmt.line, stmt.name,
                                 compiled(stmt.init, stmt.ctype)))
            elif isinstance(stmt, Assign):
                into = types.get(stmt.name, cparse.INT)
                code.append((ASSIGN, stmt.line, stmt.name, compiled(stmt.expr, into)))
            elif isinstance(stmt, NondetAssign):
                key = _site_key(stmt.name, stmt.line)
                into = types.get(stmt.name, stmt.ctype)
                code.append((NONDET, stmt.line, stmt.name,
                             lambda assignment, key=key, into=into:
                             wrap(assignment.get(key, 0), into)))
            elif isinstance(stmt, If):
                branch = len(code)
                code.append(None)
                emit(stmt.then_body)
                if stmt.else_body:
                    skip = len(code)
                    code.append(None)
                    code[branch] = (COND, stmt.line, compiled(stmt.cond), len(code))
                    emit(stmt.else_body)
                    code[skip] = (JUMP, 0, len(code), None)
                else:
                    code[branch] = (COND, stmt.line, compiled(stmt.cond), len(code))
            elif isinstance(stmt, While):
                head = len(code)
                code.append(None)
                emit(stmt.body)
                code.append((JUMP, 0, head, None))
                code[head] = (COND, stmt.line, compiled(stmt.cond), len(code))
            elif isinstance(stmt, Return):
                value = None if stmt.expr is None else compiled(stmt.expr)
                code.append((RETURN, stmt.line, value, None))
            elif isinstance(stmt, Block):
                emit(stmt.stmts)
            else:
                raise TypeError(f"cannot execute {stmt!r}")

    for decl in program.globals:
        value = _false if decl.init is None else compiled(decl.init, decl.ctype)
        code.append((SET, decl.line, decl.name, value))
    emit(program.functions["main"].body)
    code.append((END, 0, None, None))
    return code


# ---------------------------------------------------------------------------
# Edge matching


def _compile_assumption(text: str | None, types: dict[str, CType]):
    """An edge's assumption as a test of the state after a step: None when
    the edge has none, and a test that never holds when it does not parse."""
    if not text:
        return None
    try:
        return cparse.compile_expr(cparse.parse_expression(text), types)[0]
    except cparse.CParseError:
        return _false


def _expectations(edges, types: dict[str, CType]) -> list[tuple]:
    """Per edge: its id, its line, its control, the branch that control
    wants, and its compiled assumption."""
    return [(e.id, e.line, e.control, e.control == "condition-true",
             _compile_assumption(e.assumption, types)) for e in edges]


# per-assignment outcomes
_PROVEN = "proven"
_BOUNDED = "bounded"
_EDGE_FAIL = "edge_fail"     # ended or stalled while an edge was being refused
_BUDGET = "budget"           # stalled or ran out of steps without a refusal
_UNDEFINED = "undefined"     # evaluation hit undefined behaviour
_NO_PROGRESS = "no_progress"  # stem matched, but no cycle edge can match

_NO_ANSWER = "budget exhausted before a conclusive answer"
_NO_CYCLE_STEP = "no cycle edge is on a line with an executable statement"


def _execute(code: list[tuple], assignment: dict[str, int], edges: list[tuple],
             stem_len: int, cfg: CheckerConfig) -> tuple:
    """Run the program from its start and walk the lasso ``edges``, as
    :func:`_expectations` gives them, whose cycle starts at ``stem_len``.

    A step matches the pending edge when its line agrees, its branch agrees
    with the edge's control, and the edge's assumption holds after it.
    Matching the last edge completes a cycle, and the cycle starts again.
    Returns ``(kind, pending edge id, cycles, state, steps)``, where
    ``state`` is the repeated machine state of a proof.  With no edges no
    step matches, and the run ends after ``cfg.max_steps``.
    """
    env: dict[str, int] = {}
    steps = since_advance = refusals = cycles = pos = 0
    seen: set[tuple] = set()  # (instruction, env) at each completed cycle
    max_steps, stall_steps = cfg.max_steps, cfg.stall_steps
    edge_id, line_wanted, control, want, assumption = (
        edges[0] if edges else (None,) * 5)

    pc = 0
    try:
        while True:
            here = pc
            op, line, a, b = code[here]
            pc = here + 1
            if op == COND:
                branch = a(env) != 0
                if not branch:
                    pc = b
            elif op == ASSIGN:
                env[a] = b(env)
            elif op == JUMP:
                pc = a
                continue
            elif op == NONDET:
                env[a] = b(assignment)
                seen.clear()  # a repeat is no longer deterministic evidence
            elif op == RETURN:
                if a is not None:
                    a(env)
            elif op == SET:
                env[a] = b(env)
                continue
            elif op == DECL:
                env.setdefault(a, 0)
                continue
            else:
                # the program ended while the automaton still expected edges
                return _EDGE_FAIL, edge_id, cycles, None, steps
            steps += 1
            since_advance += 1

            if line == line_wanted and (
                    control is None or (op == COND and branch is want)):
                try:
                    holds = assumption is None or assumption(env) != 0
                except (EvalUndefined, KeyError):
                    holds = False
                if not holds:
                    refusals += 1
                else:
                    pos += 1
                    if pos == len(edges):
                        if pos == stem_len:  # no cycle edge can match a step
                            return _NO_PROGRESS, None, cycles, None, steps
                        cycles += 1
                        key = (here, tuple(sorted(env.items())))
                        if key in seen:
                            return (_PROVEN, None, cycles,
                                    MachineState(line, key[1]), steps)
                        if cycles >= cfg.bounded_cycle_target:
                            return _BOUNDED, None, cycles, None, steps
                        seen.add(key)
                        pos = stem_len
                    edge_id, line_wanted, control, want, assumption = edges[pos]
                    since_advance = refusals = 0

            if op == RETURN:
                return _EDGE_FAIL, edge_id, cycles, None, steps
            if since_advance > stall_steps or steps >= max_steps:
                kind = _EDGE_FAIL if refusals else _BUDGET
                return kind, edge_id, cycles, None, steps
    except (EvalUndefined, KeyError):
        return _UNDEFINED, edge_id, cycles, None, steps


def _clamp_domain(ctype: CType, domain: tuple[int, int]) -> range:
    if ctype.name == "bool":
        return range(0, 2)
    lo = max(domain[0], ctype.min)
    hi = min(domain[1], ctype.max)
    if lo > hi:
        lo = hi = ctype.min
    return range(lo, hi + 1)


def checker_view(lasso: LassoPath) -> tuple:
    """All that :func:`check_feasibility` reads of ``lasso`` but edge ids:
    the line, control and assumption of each stem edge and each cycle edge.
    An id only names the failing edge of an ``Infeasible``, so lassos with
    one view get equal results but for the edge an ``Infeasible`` names."""
    return tuple(tuple((e.line, e.control, e.assumption) for e in part)
                 for part in (lasso.stem, lasso.cycle))


def check_feasibility(p: Program | UnsupportedConstruct, lasso: LassoPath,
                      cfg: CheckerConfig | None = None) -> FeasibilityResult:
    """Search the nondet domain for an assignment realizing the lasso.

    Assignments fix one value per nondet call site (reused on every
    execution of that site) and are enumerated in ascending order.  Result
    precedence across assignments: ProvenInfinite > BoundedEvidence >
    Infeasible > Unknown, where Infeasible additionally requires that the
    whole domain was enumerated and every assignment failed edge consistency.
    """
    cfg = cfg or CheckerConfig()
    if isinstance(p, UnsupportedConstruct):
        return Unknown(f"unsupported: {p}")
    if not lasso.cycle:
        return Unknown("lasso has no cycle")

    # an edge on a line where main's lowered code takes no step matches none
    code = _lower(p)
    step_lines = {line for op, line, _, _ in code if op in _STEPS}
    stem, cycle = ([e for e in part if e.line in step_lines]
                   for part in (lasso.stem, lasso.cycle))
    if not stem and not cycle:
        return Unknown(_NO_CYCLE_STEP)
    edges = _expectations(stem + cycle, p.types)

    sites = p.nondet_vars
    domains = [_clamp_domain(site.ctype, cfg.nondet_domain) for site in sites]
    truncated = math.prod(map(len, domains)) > cfg.max_assignments
    keys = [_site_key(site.name, site.line) for site in sites]
    # the last site varies fastest
    values = itertools.islice(itertools.product(*domains), cfg.max_assignments)

    best_bounded: BoundedEvidence | None = None
    first_failed_edge: str | None = None
    saw_budget = False
    for assignment in (dict(zip(keys, v)) for v in values):
        kind, edge_id, cycles, state, _ = _execute(
            code, assignment, edges, len(stem), cfg)
        if kind == _PROVEN:
            return ProvenInfinite(state, assignment)
        if kind == _BOUNDED:
            if best_bounded is None:
                best_bounded = BoundedEvidence(cycles, assignment)
        elif kind == _EDGE_FAIL:
            if first_failed_edge is None:
                first_failed_edge = edge_id
        else:
            saw_budget = True

    if best_bounded is not None:
        return best_bounded
    if saw_budget or truncated:
        return Unknown(_NO_ANSWER if cycle else _NO_CYCLE_STEP)
    return Infeasible(first_failed_edge)


def run_program(program: Program, assignment: dict[str, int],
                max_steps: int = 100_000) -> tuple[str, int]:
    """Unguided simulation for diagnostics and differential testing.

    Returns ("terminated" | "running" | "undefined", steps executed), where
    "running" means the step budget elapsed first.  ``assignment`` maps
    ``name@line`` nondet sites to fixed values.
    """
    # at least one step is taken before the budget is looked at
    max_steps = max(max_steps, 1)
    kind, _, _, _, steps = _execute(
        _lower(program), assignment, [], 0,
        CheckerConfig(max_steps=max_steps, stall_steps=max_steps))
    if kind == _UNDEFINED:
        return "undefined", steps
    if steps >= max_steps:
        return "running", steps
    return "terminated", steps


# ---------------------------------------------------------------------------
# External validator


class ValidationStatus(Enum):
    VALIDATED = "validated"
    REJECTED = "rejected"
    TOOL_ERROR = "tool-error"


@dataclass(frozen=True)
class ValidatorConfig:
    validator_root: Path
    timeout: float = 60.0


@dataclass
class ValidationResult:
    status: ValidationStatus
    output: str = ""


_FALSE_RE = re.compile(r"\bFALSE\b")
_TRUE_RE = re.compile(r"\bTRUE\b")


def run_external_validator(witness: WitnessAutomaton, program_path: Path | str,
                           architecture: str, property_path: Path | str,
                           cfg: ValidatorConfig) -> ValidationResult:
    """Drive the external witness validator on ``witness`` for the program
    at ``program_path``, emitted as GraphML into a temporary directory.

    The tool is told the ``architecture`` ("32bit" or "64bit") that the
    GraphML states, and the task's termination ``property_path``.  Its
    printing FALSE means a matching infinite path exists (witness
    validated); TRUE means the witness was rejected.  Everything else,
    including timeouts and missing executables, is a tool error.
    """
    executable = Path(cfg.validator_root).absolute() / "Ultimate.py"
    with tempfile.TemporaryDirectory(prefix="termeval-validate-") as tmp:
        graphml = Path(tmp) / "witness.graphml"
        graphml.write_text(emit_graphml(witness, program_path, architecture),
                           encoding="utf-8")
        try:
            proc = subprocess.run(
                [str(executable), "--architecture", architecture,
                 "--spec", str(property_path), "--file", str(program_path),
                 "--validate", str(graphml)],
                capture_output=True, text=True, timeout=cfg.timeout)
        except FileNotFoundError:
            return ValidationResult(
                ValidationStatus.TOOL_ERROR,
                f"validator executable not found: {executable}")
        except subprocess.TimeoutExpired as exc:
            partial = (exc.stdout or b"")
            if isinstance(partial, bytes):
                partial = partial.decode("utf-8", "replace")
            return ValidationResult(ValidationStatus.TOOL_ERROR,
                                    f"timeout after {cfg.timeout}s\n{partial}")
    output = proc.stdout + proc.stderr
    if _FALSE_RE.search(proc.stdout):
        return ValidationResult(ValidationStatus.VALIDATED, output)
    if _TRUE_RE.search(proc.stdout):
        return ValidationResult(ValidationStatus.REJECTED, output)
    return ValidationResult(ValidationStatus.TOOL_ERROR,
                            f"no verdict in output (exit {proc.returncode})\n{output}")
