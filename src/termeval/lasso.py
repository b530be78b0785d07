"""Desk-scale feasibility checking of non-termination witnesses.

A schema-valid witness decomposes into a lasso: a stem from the entry node to
a cyclehead plus a cycle returning to that cyclehead.  The checker enumerates
concrete values for the program's nondeterministic variables and simulates
the program while tracking the lasso.  The automaton is an observer: a
program step either matches the pending edge (line and control agree, the
assumption holds afterward) and advances it, or the automaton stutters.
Edges whose line holds no executable statement (declarations, braces, blank
lines) are skipped during matching.

Each check compiles once: ``main`` is lowered to a flat instruction list
whose expressions, and the witness's assumptions, are closures from
:func:`cparse.compile_expr` with every conversion and wrap resolved; every
enumerated assignment then runs that list in one loop.

Verdicts come in two honesty tiers: ``ProvenInfinite`` requires a repeated
machine state at the cyclehead with no nondeterministic call inside the
repeating segment; ``BoundedEvidence`` reports a configured number of
completed cycles without a proof.  ``Infeasible`` is only claimed when every
enumerated assignment conclusively failed edge consistency.

The authoritative external validator is driven as a child process; its
verdict overrides the internal tiers when configured.
"""

from __future__ import annotations

import itertools
import math
import re
import subprocess
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from . import cparse
from .cparse import (
    Assign, Block, CType, Decl, EvalUndefined, For, If, NondetAssign, Program,
    Return, UnsupportedConstruct, While, wrap,
)
from .witness import WitnessAutomaton, WitnessEdge, _reachable


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


def extract_lasso(w: WitnessAutomaton) -> LassoPath | NoLasso:
    """Decompose a schema-valid witness into stem + simple cycle.

    The first cyclehead (in node input order) with a stem and a cycle is
    used; among multiple simple cycles through it the lexicographically
    smallest edge-id sequence wins, and likewise among stems.  The time is
    at most quadratic in the size of the witness.
    """
    cycleheads = w.cycleheads()
    entries = w.entry_nodes()
    if not cycleheads or not entries:
        return NoLasso("missing entry or cyclehead node")
    edges_from: dict[str, list[WitnessEdge]] = {}
    adjacency: dict[str, set[str]] = {}
    for edge in w.edges:
        edges_from.setdefault(edge.source, []).append(edge)
        adjacency.setdefault(edge.source, set()).add(edge.target)
    for out in edges_from.values():
        out.sort(key=lambda e: e.id)

    # a walk that fails costs one pass over the witness, one that succeeds
    # up to a pass per edge taken, so only a head with a stem is searched
    from_entry = _reachable({entries[0].id}, adjacency)
    for head in cycleheads:
        if head.id not in from_entry:
            continue
        cycle = _lex_path(edges_from, adjacency, head.id, head.id,
                          allow_empty=False)
        if cycle is not None:
            stem = _lex_path(edges_from, adjacency, entries[0].id, head.id,
                             allow_empty=True)
            return LassoPath(tuple(stem), tuple(cycle), head.id)
    return NoLasso("no cycle through any cyclehead")


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


def _site_key(name: str, line: int) -> str:
    return f"{name}@{line}"


def _true(env: dict[str, int]) -> int:
    return 1


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

    def emit_block(stmts):
        for stmt in stmts:
            emit(stmt)

    def emit(stmt):
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
                         lambda assignment: wrap(assignment.get(key, 0), into)))
        elif isinstance(stmt, If):
            branch = len(code)
            code.append(None)
            emit_block(stmt.then_body)
            if stmt.else_body:
                skip = len(code)
                code.append(None)
                code[branch] = (COND, stmt.line, compiled(stmt.cond), len(code))
                emit_block(stmt.else_body)
                code[skip] = (JUMP, 0, len(code), None)
            else:
                code[branch] = (COND, stmt.line, compiled(stmt.cond), len(code))
        elif isinstance(stmt, (While, For)):
            is_for = isinstance(stmt, For)
            if is_for and stmt.init is not None:
                emit(stmt.init)
            head = len(code)
            code.append(None)
            emit_block(stmt.body)
            if is_for and stmt.step is not None:
                emit(stmt.step)
            code.append((JUMP, 0, head, None))
            test = _true if stmt.cond is None else compiled(stmt.cond)
            code[head] = (COND, stmt.line, test, len(code))
        elif isinstance(stmt, Return):
            value = None if stmt.expr is None else compiled(stmt.expr)
            code.append((RETURN, stmt.line, value, None))
        elif isinstance(stmt, Block):
            emit_block(stmt.stmts)
        else:
            raise TypeError(f"cannot execute {stmt!r}")

    for decl in program.globals:
        value = _false if decl.init is None else compiled(decl.init, decl.ctype)
        code.append((SET, decl.line, decl.name, value))
    emit_block(program.main.body)
    code.append((END, 0, None, None))
    return code


# ---------------------------------------------------------------------------
# Edge matching


_EXECUTABLE = (Assign, NondetAssign, If, While, For, Return)


def _executable_lines(program: Program) -> set[str | int]:
    lines = set()
    for stmt in cparse.iter_statements(program):
        if isinstance(stmt, _EXECUTABLE) or (
                isinstance(stmt, Decl) and stmt.init is not None):
            lines.add(stmt.line)
    return lines


def _edge_matchable(edge: WitnessEdge, executable_lines: set) -> bool:
    return edge.line is not None and edge.line in executable_lines


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
    """Per edge: its line, its control, the branch that control wants, and
    its compiled assumption."""
    return [(e.line, e.control, e.control == "condition-true",
             _compile_assumption(e.assumption, types)) for e in edges]


# per-assignment outcomes
_PROVEN = "proven"
_BOUNDED = "bounded"
_EDGE_FAIL = "edge_fail"     # ended or stalled while an edge was being refused
_BUDGET = "budget"           # stalled or ran out of steps without a refusal
_UNDEFINED = "undefined"     # evaluation hit undefined behaviour
_NO_PROGRESS = "no_progress"


@dataclass
class _RunOutcome:
    kind: str
    edge_id: str | None = None
    cycles: int = 0
    state: MachineState | None = None
    steps: int = 0


class _Periodic(Exception):
    def __init__(self, state: MachineState):
        self.state = state


class _CycleTarget(Exception):
    pass


class _DegenerateCycle(Exception):
    pass


class _PendingTracker:
    """Walks stem + cycle, auto-skipping edges whose line holds nothing
    executable and accounting for completed cycles."""

    def __init__(self, lasso: LassoPath, cfg: CheckerConfig,
                 matchable: list[bool], expected: list[tuple]):
        self.sequence = list(lasso.stem) + list(lasso.cycle)
        self.stem_len = len(lasso.stem)
        self.cfg = cfg
        self.matchable = matchable  # per edge of the sequence
        self.expected = expected  # per edge, from _expectations
        self.pos = 0
        self.cycles = 0
        self.accepted_in_cycle = 0
        self.last_accept_line = 0
        self.last_accept_uid = 0
        self.seen_states: dict[tuple, int] = {}
        self._settle(None)

    @property
    def pending(self) -> WitnessEdge:
        return self.sequence[self.pos]

    def nondet_seen(self):
        self.seen_states.clear()  # repetition evidence no longer deterministic

    def accept(self, line: int, uid: int, env: dict[str, int]):
        """Pending edge matched the step; advance past it and any skippable
        successors.  Raises on a proof, target reached, or degenerate cycle."""
        self.accepted_in_cycle += 1
        self.last_accept_line = line
        self.last_accept_uid = uid
        self._step(env)
        self._settle(env)

    def _step(self, env):
        self.pos += 1
        if self.pos == len(self.sequence):
            self._complete(env)
            self.pos = self.stem_len

    def _complete(self, env):
        if self.accepted_in_cycle == 0:
            # the entire cycle was skipped: the witness cannot constrain
            # execution, so looping here proves nothing
            raise _DegenerateCycle
        self.cycles += 1
        self.accepted_in_cycle = 0
        snapshot = tuple(sorted(env.items()))
        key = (self.last_accept_uid, snapshot)
        if key in self.seen_states:
            raise _Periodic(MachineState(self.last_accept_line, snapshot))
        self.seen_states[key] = self.cycles
        if self.cycles >= self.cfg.bounded_cycle_target:
            raise _CycleTarget

    def _settle(self, env):
        guard = 0
        while not self.matchable[self.pos]:
            self._step(env if env is not None else {})
            guard += 1
            if guard > len(self.sequence) + 1:
                raise _DegenerateCycle


def _execute(code: list[tuple], assignment: dict[str, int],
             tracker: _PendingTracker | None, max_steps: int,
             stall_steps: int) -> _RunOutcome:
    """Run the program from its start and offer each step to ``tracker``.

    A step matches the pending edge when its line agrees, its branch agrees
    with the edge's control, and the edge's assumption holds after it.
    Without a tracker no step matches, and the run ends after ``max_steps``.
    """
    env: dict[str, int] = {}
    steps = since_advance = refusals = 0
    line_wanted, control, want, assumption = (
        tracker.expected[tracker.pos] if tracker is not None else (None,) * 4)

    def ended(kind: str) -> _RunOutcome:
        if tracker is None:
            return _RunOutcome(kind, steps=steps)
        return _RunOutcome(kind, tracker.pending.id, tracker.cycles, steps=steps)

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
                if tracker is not None:
                    tracker.nondet_seen()
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
                return ended(_EDGE_FAIL)
            steps += 1
            since_advance += 1

            if line == line_wanted and (
                    control is None or (op == COND and branch is want)):
                try:
                    holds = assumption is None or assumption(env) != 0
                except (EvalUndefined, KeyError):
                    holds = False
                if holds:
                    try:
                        tracker.accept(line, here, env)
                    except _Periodic as proof:
                        return _RunOutcome(_PROVEN, None, tracker.cycles,
                                           proof.state, steps)
                    except _CycleTarget:
                        return _RunOutcome(_BOUNDED, None, tracker.cycles,
                                           steps=steps)
                    except _DegenerateCycle:
                        return _RunOutcome(_NO_PROGRESS, None, tracker.cycles,
                                           steps=steps)
                    line_wanted, control, want, assumption = (
                        tracker.expected[tracker.pos])
                    since_advance = refusals = 0
                else:
                    refusals += 1

            if op == RETURN:
                return ended(_EDGE_FAIL)
            if since_advance > stall_steps or steps >= max_steps:
                return ended(_EDGE_FAIL if refusals else _BUDGET)
    except (EvalUndefined, KeyError):
        return ended(_UNDEFINED)


def _simulate_assignment(code: list[tuple], lasso: LassoPath,
                         assignment: dict[str, int], cfg: CheckerConfig,
                         matchable: list[bool],
                         expected: list[tuple]) -> _RunOutcome:
    try:
        tracker = _PendingTracker(lasso, cfg, matchable, expected)
    except _DegenerateCycle:  # no edge of the cycle can match a step
        return _RunOutcome(_NO_PROGRESS)
    return _execute(code, assignment, tracker, cfg.max_steps, cfg.stall_steps)


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

    sites = p.nondet_vars
    executable_lines = _executable_lines(p)
    edges = (*lasso.stem, *lasso.cycle)
    matchable = [_edge_matchable(e, executable_lines) for e in edges]
    expected = _expectations(edges, p.types)
    code = _lower(p)

    domains = [_clamp_domain(site.ctype, cfg.nondet_domain) for site in sites]
    truncated = math.prod(map(len, domains)) > cfg.max_assignments
    keys = [_site_key(site.name, site.line) for site in sites]
    # the last site varies fastest
    values = itertools.islice(itertools.product(*domains), cfg.max_assignments)

    best_bounded: BoundedEvidence | None = None
    first_failed_edge: str | None = None
    saw_budget = False
    for assignment in (dict(zip(keys, v)) for v in values):
        outcome = _simulate_assignment(code, lasso, assignment, cfg,
                                       matchable, expected)
        if outcome.kind == _PROVEN:
            return ProvenInfinite(outcome.state, assignment)
        if outcome.kind == _BOUNDED and best_bounded is None:
            best_bounded = BoundedEvidence(outcome.cycles, assignment)
        elif outcome.kind == _EDGE_FAIL:
            if first_failed_edge is None:
                first_failed_edge = outcome.edge_id
        elif outcome.kind in (_BUDGET, _UNDEFINED, _NO_PROGRESS):
            saw_budget = True

    if best_bounded is not None:
        return best_bounded
    if saw_budget or truncated:
        return Unknown("budget exhausted before a conclusive answer")
    if first_failed_edge is not None:
        return Infeasible(first_failed_edge)
    return Unknown("no nondet assignments produced evidence")


def run_program(program: Program, assignment: dict[str, int],
                max_steps: int = 100_000) -> tuple[str, int]:
    """Unguided simulation for diagnostics and differential testing.

    Returns ("terminated" | "running" | "undefined", steps executed), where
    "running" means the step budget elapsed first.  ``assignment`` maps
    ``name@line`` nondet sites to fixed values.
    """
    # at least one step is taken before the budget is looked at
    max_steps = max(max_steps, 1)
    outcome = _execute(_lower(program), assignment, None, max_steps, max_steps)
    if outcome.kind == _UNDEFINED:
        return "undefined", outcome.steps
    if outcome.steps >= max_steps:
        return "running", outcome.steps
    return "terminated", outcome.steps


# ---------------------------------------------------------------------------
# External validator


class ValidationStatus(Enum):
    VALIDATED = "validated"
    REJECTED = "rejected"
    TOOL_ERROR = "tool-error"


@dataclass(frozen=True)
class ValidatorConfig:
    validator_root: Path
    architecture: str = "32bit"
    property_path: str = "../properties/termination.prp"
    timeout: float = 60.0


@dataclass
class ValidationResult:
    status: ValidationStatus
    output: str = ""

    def __bool__(self) -> bool:
        return self.status is ValidationStatus.VALIDATED


_FALSE_RE = re.compile(r"\bFALSE\b")
_TRUE_RE = re.compile(r"\bTRUE\b")


def run_external_validator(program_path: Path | str, graphml_path: Path | str,
                           cfg: ValidatorConfig) -> ValidationResult:
    """Drive the external witness validator on an emitted GraphML file.

    The tool printing FALSE means a matching infinite path exists (witness
    validated); TRUE means the witness was rejected.  Everything else,
    including timeouts and missing executables, is a tool error.
    """
    executable = Path(cfg.validator_root) / "Ultimate.py"
    cmd = [
        str(executable),
        "--architecture", cfg.architecture,
        "--spec", str(cfg.property_path),
        "--file", str(program_path),
        "--validate", str(graphml_path),
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=cfg.timeout)
    except FileNotFoundError:
        return ValidationResult(ValidationStatus.TOOL_ERROR,
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
