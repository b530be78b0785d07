import copy
import dataclasses
import json
import math
import signal
import stat
import time

from hypothesis import HealthCheck, given, settings, strategies as st

from termeval.cli import witness_status_for
from termeval.corpus import Architecture, Category, TaskSpec
from termeval.cparse import parse_program
from termeval.evalcore import WitnessStatus
from termeval.lasso import (
    BoundedEvidence, CheckerConfig, Infeasible, LassoPath, NoLasso,
    ProvenInfinite, Unknown, ValidationStatus, ValidatorConfig,
    _lex_path, check_feasibility, checker_view, extract_lasso,
    run_external_validator, run_program,
)
from termeval.witness import (
    WitnessAutomaton, WitnessEdge, WitnessNode, _as_flag, parse_prediction,
    validate_schema, witness_from_json,
)

from conftest import FIXTURES, load_program, load_witness_json
from reference import lex_dfs_path

FAST_CFG = CheckerConfig(nondet_domain=(-16, 16), bounded_cycle_target=200,
                         stall_steps=500, max_steps=50_000)


def automaton(name: str) -> WitnessAutomaton:
    return witness_from_json(load_witness_json(name)["witness"])


def program(name: str):
    p = parse_program(load_program(name))
    assert not isinstance(p, str)
    return p


def chain_witness(n: int) -> WitnessAutomaton:
    """Entry N0, a stem through N1 .. N(n-1), and a self-loop there."""
    nodes = ([WitnessNode("N0", entry=True)]
             + [WitnessNode(f"N{i}") for i in range(1, n - 1)]
             + [WitnessNode(f"N{n - 1}", cyclehead=True)])
    edges = [WitnessEdge(f"E{i:05d}", f"N{i}", f"N{i + 1}", 6, "int i;")
             for i in range(n - 1)]
    edges.append(WitnessEdge("F", f"N{n - 1}", f"N{n - 1}", 9, "while"))
    return WitnessAutomaton(tuple(nodes), tuple(edges))


def task(name: str) -> TaskSpec:
    source = load_program(name)
    return TaskSpec(name[:-2], FIXTURES / "programs" / name, source,
                    Category.OTHER, "NT", Architecture.BITS32, 1)


def status_for(prediction, program_name: str) -> WitnessStatus:
    """The status ``score`` gives ``prediction`` as a reply to the task
    whose program is ``program_name``, with nothing resolved before."""
    return witness_status_for(prediction, lambda: program(program_name),
                              task(program_name), FAST_CFG, None, {})


def within_seconds(seconds: int, fn, *args):
    """``fn(*args)``, failing the test if it runs longer than ``seconds``."""
    def expire(signum, frame):
        raise AssertionError(f"{fn.__name__} ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestExtractLasso:
    def test_absorbing_witness_stem_and_cycle(self):
        lasso = extract_lasso(automaton("absorb_to_zero.json"))
        assert isinstance(lasso, LassoPath)
        assert [e.id for e in lasso.stem] == ["E0", "E1"]
        assert [e.id for e in lasso.cycle] == ["E2", "E3"]
        assert lasso.cyclehead == "N0"

    def test_even_spin_witness(self):
        lasso = extract_lasso(automaton("even_spin.json"))
        assert [e.id for e in lasso.stem] == ["E0", "E1"]
        assert [e.id for e in lasso.cycle] == ["E2", "E3"]

    def test_seven_node_witness_cycle_closes_at_head(self):
        lasso = extract_lasso(automaton("negate_keeps_positive.json"))
        assert [e.id for e in lasso.stem] == ["E0", "E1", "E2", "E3", "E4"]
        assert [e.id for e in lasso.cycle] == ["E5", "E6"]
        assert lasso.cycle[-1].target == "N0"

    def test_self_loop_cycle(self):
        lasso = extract_lasso(automaton("absorb_to_zero_selfloop.json"))
        assert [e.id for e in lasso.cycle] == ["E2"]

    def test_no_cycle_gives_nolasso(self):
        broken = WitnessAutomaton(
            nodes=(WitnessNode("N1", entry=True),
                   WitnessNode("N0", cyclehead=True)),
            edges=(WitnessEdge("E0", "N1", "N0", 3, "x = 1;"),),
        )
        assert isinstance(extract_lasso(broken), NoLasso)

    def test_smallest_cycle_by_edge_ids(self):
        # two cycles through the head: [EB] alone and [EA, EC]; the
        # lexicographically smallest sequence starts with EA
        w = WitnessAutomaton(
            nodes=(WitnessNode("N1", entry=True),
                   WitnessNode("N0", cyclehead=True), WitnessNode("N2")),
            edges=(
                WitnessEdge("E0", "N1", "N0", 1, "start"),
                WitnessEdge("EA", "N0", "N2", 2, "a"),
                WitnessEdge("EB", "N0", "N0", 3, "b"),
                WitnessEdge("EC", "N2", "N0", 4, "c"),
            ),
        )
        lasso = extract_lasso(w)
        assert [e.id for e in lasso.cycle] == ["EA", "EC"]

    def test_long_chain_stem(self):
        w = chain_witness(5000)
        lasso = extract_lasso(w)
        assert [e.id for e in lasso.stem] == [e.id for e in w.edges[:-1]]
        assert [e.id for e in lasso.cycle] == ["F"]

    def test_comb_time_is_linear_in_the_witness(self):
        # every stem node also has a larger-id edge to a dead end, so the
        # first edge at each node needs a test; a fresh search over the rest
        # of the stem for each made the time quadratic
        def seconds(n: int) -> float:
            chain = chain_witness(n)
            dead_ends = [WitnessNode(f"D{i}") for i in range(n - 1)]
            teeth = [WitnessEdge(f"X{i:05d}", f"N{i}", f"D{i}", 6, "int i;")
                     for i in range(n - 1)]
            w = WitnessAutomaton(chain.nodes + tuple(dead_ends),
                                 chain.edges + tuple(teeth))
            best = math.inf
            for _ in range(2):
                calls, start = 0, time.perf_counter()
                while (elapsed := time.perf_counter() - start) < 0.005:
                    lasso = extract_lasso(w)
                    calls += 1
                best = min(best, elapsed / calls)
            assert [e.id for e in lasso.stem] == \
                [e.id for e in chain.edges[:-1]]
            return best

        assert seconds(4000) / seconds(1000) < 8

    def test_ladder_under_a_cyclehead_without_cycle(self):
        # the first cyclehead tops a ladder of 40 diamonds with no way back;
        # a backtracking search tries all 2**40 paths through it
        nodes = [WitnessNode("IN", entry=True), WitnessNode("H", cyclehead=True),
                 WitnessNode("C", cyclehead=True)]
        edges = [WitnessEdge("E0", "IN", "C", 1, "s"),
                 WitnessEdge("E1", "C", "C", 1, "s"),
                 WitnessEdge("E2", "IN", "H", 1, "s")]
        top = "H"
        for k in range(40):
            nodes += [WitnessNode(f"A{k}"), WitnessNode(f"B{k}"),
                      WitnessNode(f"D{k}")]
            edges += [WitnessEdge(f"L{k}a", top, f"A{k}", 1, "s"),
                      WitnessEdge(f"L{k}b", top, f"B{k}", 1, "s"),
                      WitnessEdge(f"L{k}c", f"A{k}", f"D{k}", 1, "s"),
                      WitnessEdge(f"L{k}d", f"B{k}", f"D{k}", 1, "s")]
            top = f"D{k}"
        w = WitnessAutomaton(tuple(nodes), tuple(edges))
        assert not validate_schema(w)
        lasso = within_seconds(5, extract_lasso, w)
        assert lasso.cyclehead == "C"
        assert [e.id for e in lasso.stem] == ["E0"]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                           st.sampled_from("ABCDEFGHIJ")), max_size=16))))
    def test_path_search_matches_backtracking(self, graph):
        n, arcs = graph
        edges_from: dict[str, list[WitnessEdge]] = {}
        adjacency: dict[str, set[str]] = {}
        for i, (a, b, eid) in enumerate(arcs):
            edge = WitnessEdge(eid, f"N{a}", f"N{b}", i + 1, "s")
            edges_from.setdefault(edge.source, []).append(edge)
            adjacency.setdefault(edge.source, set()).add(edge.target)
        for out in edges_from.values():
            out.sort(key=lambda e: e.id)
        for start in range(n):
            for goal in range(n):
                for allow_empty in (False, True):
                    args = (f"N{start}", f"N{goal}", allow_empty)
                    assert _lex_path(edges_from, adjacency, *args) == \
                        lex_dfs_path(edges_from, *args)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.lists(st.sampled_from(["", "entry", "head", "entry head"]),
                 min_size=n, max_size=n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                           st.sampled_from("ABCDEFGHIJ")), max_size=16))))
    def test_lasso_matches_backtracking(self, graph):
        # the first cyclehead with both a stem and a cycle, by the
        # backtracking path search
        roles, arcs = graph
        nodes = tuple(WitnessNode(f"N{i}", "entry" in role, "head" in role)
                      for i, role in enumerate(roles))
        edges = tuple(WitnessEdge(eid, f"N{a}", f"N{b}", i + 1, "s")
                      for i, (a, b, eid) in enumerate(arcs))
        w = WitnessAutomaton(nodes, edges)
        edges_from: dict[str, list[WitnessEdge]] = {}
        for edge in sorted(edges, key=lambda e: e.id):
            edges_from.setdefault(edge.source, []).append(edge)
        expected = None
        entries = w.entry_nodes()
        for head in w.cycleheads() if entries else ():
            cycle = lex_dfs_path(edges_from, head.id, head.id, False)
            stem = lex_dfs_path(edges_from, entries[0].id, head.id, True)
            if cycle is not None and stem is not None:
                expected = LassoPath(tuple(stem), tuple(cycle), head.id)
                break
        lasso = extract_lasso(w)
        assert (lasso if isinstance(lasso, LassoPath) else None) == expected


class TestCheckFeasibility:
    def test_absorbing_loop_proven_with_zero(self):
        result = check_feasibility(program("absorb_to_zero.c"),
                                   extract_lasso(automaton("absorb_to_zero.json")),
                                   FAST_CFG)
        assert isinstance(result, ProvenInfinite)
        assert dict(result.state.env)["i"] == 0
        assert result.state.location == 9

    def test_self_loop_witness_also_proven(self):
        result = check_feasibility(
            program("absorb_to_zero.c"),
            extract_lasso(automaton("absorb_to_zero_selfloop.json")), FAST_CFG)
        assert isinstance(result, ProvenInfinite)
        assert dict(result.state.env)["i"] == 0

    def test_even_spin_bounded_evidence(self):
        # x grows by 2 forever: no state repeats at desk scale, but the
        # guard stays true, so bounded evidence is the honest tier
        result = check_feasibility(program("even_spin.c"),
                                   extract_lasso(automaton("even_spin.json")),
                                   FAST_CFG)
        assert isinstance(result, BoundedEvidence)
        assert result.cycles == FAST_CFG.bounded_cycle_target
        assert result.assignment["x@4"] % 2 == 0

    def test_negation_loop_proven(self):
        result = check_feasibility(
            program("negate_keeps_positive.c"),
            extract_lasso(automaton("negate_keeps_positive.json")), FAST_CFG)
        assert isinstance(result, ProvenInfinite)
        env = dict(result.state.env)
        assert env["x"] < 0 and env["y"] == ~env["x"]

    def test_stall_correct_witness_proven(self):
        result = check_feasibility(program("stall_below_minus_five.c"),
                                   extract_lasso(automaton("stall_correct.json")),
                                   FAST_CFG)
        assert isinstance(result, ProvenInfinite)
        assert dict(result.state.env)["i"] == -5

    def test_stall_wrong_witness_not_validated(self):
        # the wrong variant closes the cycle on `i = i+1`, which stops
        # executing once i reaches -5, so no infinite run matches
        result = check_feasibility(program("stall_below_minus_five.c"),
                                   extract_lasso(automaton("stall_wrong.json")),
                                   FAST_CFG)
        assert not isinstance(result, (ProvenInfinite, BoundedEvidence))

    def test_edited_assumption_infeasible(self):
        data = load_witness_json("even_spin.json")["witness"]
        data["edges"][2]["assumption"] = "x % 2 == 1"
        lasso = extract_lasso(witness_from_json(data))
        result = check_feasibility(program("even_spin.c"), lasso, FAST_CFG)
        assert result == Infeasible("E2")

    def test_contradictory_assumption_infeasible(self):
        data = load_witness_json("absorb_to_zero.json")["witness"]
        data["edges"][2]["assumption"] = "i > 100"  # outside the guard range
        lasso = extract_lasso(witness_from_json(data))
        result = check_feasibility(program("absorb_to_zero.c"), lasso, FAST_CFG)
        assert result == Infeasible("E2")

    def test_too_deep_assumption_never_holds(self):
        data = load_witness_json("even_spin.json")["witness"]
        data["edges"][2]["assumption"] = ("(" * 3000 + "x % 2 == 0"
                                          + ")" * 3000)
        lasso = extract_lasso(witness_from_json(data))
        result = check_feasibility(program("even_spin.c"), lasso, FAST_CFG)
        assert result == Infeasible("E2")

    def test_overlong_literal_assumption_never_holds(self):
        data = load_witness_json("even_spin.json")["witness"]
        data["edges"][2]["assumption"] = "x == " + "9" * 5000
        lasso = extract_lasso(witness_from_json(data))
        result = check_feasibility(program("even_spin.c"), lasso, FAST_CFG)
        assert result == Infeasible("E2")

    def test_oversize_literal_assumption_never_holds(self):
        # 2**64 + 1 fits no C type; read modulo 2**64 it would equal 1
        data = load_witness_json("even_spin.json")["witness"]
        data["edges"][2]["assumption"] = "x % 2 == 0 && 18446744073709551617 == 1"
        lasso = extract_lasso(witness_from_json(data))
        result = check_feasibility(program("even_spin.c"), lasso, FAST_CFG)
        assert result == Infeasible("E2")

    def test_shadowing_program_is_not_proven(self):
        # the inner x once overwrote the outer one, and the loop on the
        # outer x (3, so the program ends) was "proven" to diverge
        source = ("int main() {\n"
                  "  int x = 3;\n"
                  "  if (x > 0) { int x = 100; }\n"
                  "  while (x > 50) { x = x + 0; }\n"
                  "  return 0;\n"
                  "}\n")
        w = WitnessAutomaton(
            nodes=(WitnessNode("N1", entry=True),
                   WitnessNode("N0", cyclehead=True)),
            edges=(
                WitnessEdge("E0", "N1", "N0", 3, "if (x > 0)"),
                WitnessEdge("E1", "N0", "N0", 4, "while (x > 50)",
                            control="condition-true"),
            ),
        )
        result = check_feasibility(parse_program(source), extract_lasso(w),
                                    FAST_CFG)
        assert result == Unknown("unsupported: unsupported construct at "
                                 "line 3: shadowed declaration of x")

    def test_undefined_global_initialiser_ends_the_run(self):
        # a global's initialiser runs before main; its undefined behaviour
        # ends each run like any other, instead of escaping the checker
        source = ("int g = 1 / 0;\n"
                  "int main() {\n"
                  "  int x = 1;\n"
                  "  while (x > 0) { x = x + 0; }\n"
                  "  return 0;\n"
                  "}\n")
        prog = parse_program(source)
        assert run_program(prog, {}) == ("undefined", 0)
        w = WitnessAutomaton(
            nodes=(WitnessNode("N1", entry=True),
                   WitnessNode("N0", cyclehead=True)),
            edges=(
                WitnessEdge("E0", "N1", "N0", 3, "int x = 1"),
                WitnessEdge("E1", "N0", "N0", 4, "while (x > 0)",
                            control="condition-true"),
            ),
        )
        result = check_feasibility(prog, extract_lasso(w), FAST_CFG)
        assert result == Unknown("budget exhausted before a conclusive answer")

    def test_unsupported_program_unknown(self):
        result = check_feasibility(
            parse_program(load_program("heap_user.c")),
            extract_lasso(automaton("even_spin.json")), FAST_CFG)
        assert isinstance(result, Unknown)
        assert "unsupported" in result.reason

    def test_terminating_program_never_proven(self):
        # pair the terminating count_to_ten program with a fabricated witness
        w = WitnessAutomaton(
            nodes=(WitnessNode("N1", entry=True),
                   WitnessNode("N0", cyclehead=True)),
            edges=(
                WitnessEdge("E0", "N1", "N0", 4, "j = 0", enter_loop_head=True),
                WitnessEdge("E1", "N0", "N0", 6, "j = j + 1",
                            enter_loop_head=True),
            ),
        )
        result = check_feasibility(program("count_to_ten.c"),
                                   extract_lasso(w), FAST_CFG)
        assert not isinstance(result, (ProvenInfinite, BoundedEvidence))

    def test_monotonicity_domain_growth(self):
        # enlarging the domain must never flip a proof into infeasibility
        prog = program("absorb_to_zero.c")
        lasso = extract_lasso(automaton("absorb_to_zero.json"))
        small = check_feasibility(prog, lasso,
                                  CheckerConfig(nondet_domain=(-8, 8),
                                                stall_steps=500))
        large = check_feasibility(prog, lasso,
                                  CheckerConfig(nondet_domain=(-64, 64),
                                                stall_steps=500))
        assert isinstance(small, ProvenInfinite)
        assert isinstance(large, ProvenInfinite)

    def test_infeasible_requires_exhaustion(self):
        # cap the enumeration below the domain size: must report Unknown,
        # never Infeasible
        data = load_witness_json("even_spin.json")["witness"]
        data["edges"][2]["assumption"] = "x % 2 == 1"
        lasso = extract_lasso(witness_from_json(data))
        cfg = CheckerConfig(nondet_domain=(-16, 16), max_assignments=5,
                            stall_steps=200)
        result = check_feasibility(program("even_spin.c"), lasso, cfg)
        assert isinstance(result, Unknown)

    def test_nondet_inside_cycle_blocks_proof(self):
        source = """extern int __VERIFIER_nondet_int(void);
int main() {
   int x;
   x = 1;
   while (x > 0) {
      x = __VERIFIER_nondet_int();
   }
   return 0;
}
"""
        w = WitnessAutomaton(
            nodes=(WitnessNode("N1", entry=True),
                   WitnessNode("N0", cyclehead=True), WitnessNode("N2")),
            edges=(
                WitnessEdge("E0", "N1", "N0", 4, "x = 1", enter_loop_head=True),
                WitnessEdge("E1", "N0", "N2", 5, "while (x > 0) {",
                            control="condition-true"),
                WitnessEdge("E2", "N2", "N0", 6, "x = __VERIFIER_nondet_int()",
                            enter_loop_head=True),
            ),
        )
        prog = parse_program(source)
        result = check_feasibility(prog, extract_lasso(w), FAST_CFG)
        # a positive nondet value keeps the loop alive, but the repeating
        # segment samples nondet, so only the bounded tier may be claimed
        assert isinstance(result, BoundedEvidence)

    def test_deterministic_result(self):
        prog = program("even_spin.c")
        lasso = extract_lasso(automaton("even_spin.json"))
        first = check_feasibility(prog, lasso, FAST_CFG)
        second = check_feasibility(prog, lasso, FAST_CFG)
        assert first == second


def feasibility_table() -> dict[str, dict]:
    """``check_feasibility`` under ``FAST_CFG`` for every fixture program and
    witness, as JSON-ready dicts keyed ``program x witness``."""
    table = {}
    for program_path in sorted((FIXTURES / "programs").glob("*.c")):
        prog = parse_program(program_path.read_text(encoding="utf-8"))
        for witness_path in sorted((FIXTURES / "witnesses").glob("*.json")):
            lasso = extract_lasso(automaton(witness_path.name))
            result = check_feasibility(prog, lasso, FAST_CFG)
            entry = {"type": type(result).__name__, **dataclasses.asdict(result)}
            key = f"{program_path.name} x {witness_path.name}"
            table[key] = json.loads(json.dumps(entry))
    return table


class TestPinnedResults:
    def test_results_match_golden_file(self):
        # recorded with the tree-walking interpreter that the compiled
        # checker replaced: type, assignment, cycles and machine state of
        # every result must stay exactly as they were
        golden = json.loads((FIXTURES / "golden" / "feasibility.json")
                            .read_text(encoding="utf-8"))
        table = feasibility_table()
        assert table.keys() == golden.keys()
        for key in golden:
            assert table[key] == golden[key], key


PROGRAMS = sorted(p.name for p in (FIXTURES / "programs").glob("*.c"))
WITNESSES = sorted(p.name for p in (FIXTURES / "witnesses").glob("*.json"))
# values an oracle might put in a witness field, sane and not
FIELD_VALUES = st.one_of(
    st.integers(-3, 20), st.sampled_from(["N0", "N1", "N2", "N3", "E0"]),
    st.sampled_from(["condition-true", "condition-false", "true", None]),
    st.sampled_from(["x > 0", "x % 2 == 0", "i == -5", "x / 0 == 1",
                     "y == ~x", "i = 0", "x == 18446744073709551617", "(("]),
    st.text(max_size=12), st.booleans(), st.lists(st.integers(), max_size=2),
)
EDGE_FIELDS = ["id", "source", "target", "line", "control", "assumption",
               "enterLoopHead", "sourcecode"]


@st.composite
def mutated_witness(draw) -> dict:
    """A fixture witness with a few fields overwritten, removed or repeated."""
    data = load_witness_json(draw(st.sampled_from(WITNESSES)))["witness"]
    for _ in range(draw(st.integers(1, 4))):
        part = draw(st.sampled_from(["edges", "nodes"]))
        items = data[part]
        if not items:
            continue
        i = draw(st.integers(0, len(items) - 1))
        action = draw(st.sampled_from(["set", "set", "drop", "repeat"]))
        if action == "drop":
            del items[i]
        elif action == "repeat":
            items.append(dict(items[i]))
        else:
            field = draw(st.sampled_from(
                EDGE_FIELDS if part == "edges" else ["id", "entry", "cyclehead"]))
            items[i][field] = draw(FIELD_VALUES)
    return data


FEASIBILITY_RESULTS = (ProvenInfinite, BoundedEvidence, Infeasible, Unknown)


class TestHostileWitnesses:
    """Oracle output is hostile input: no reply or witness may crash
    scoring or the checker."""

    def test_long_chain_reply_is_checked(self):
        # 3,000 nodes in a row, a 0.3 MB reply: deeper than the
        # interpreter's recursion limit
        w = chain_witness(3000)
        reply = json.dumps({"verdict": False, "witness": {
            "nodes": [dataclasses.asdict(n) for n in w.nodes],
            "edges": [{"id": e.id, "source": e.source, "target": e.target,
                       "line": e.line, "sourcecode": e.sourcecode}
                      for e in w.edges]}})
        prediction = parse_prediction(reply)
        assert prediction.witness == w
        assert isinstance(status_for(prediction, "even_spin.c"),
                          WitnessStatus)

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(PROGRAMS), st.sampled_from(WITNESSES),
           st.integers(0, 2000), st.integers(0, 40),
           st.one_of(st.text(max_size=40), FIELD_VALUES.map(json.dumps)))
    def test_reply_text_to_status_never_raises(self, program_name,
                                               witness_name, at, cut, text):
        reply = (FIXTURES / "witnesses" / witness_name).read_text()
        at %= len(reply)
        reply = reply[:at] + text + reply[at + cut:]
        assert isinstance(status_for(parse_prediction(reply), program_name),
                          WitnessStatus)

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(PROGRAMS), mutated_witness())
    def test_mutated_witness_check_never_raises(self, program_name, data):
        try:
            lasso = extract_lasso(witness_from_json(data))
        except ValueError:  # ill-typed: a format error, never checked
            return
        if isinstance(lasso, LassoPath):
            result = check_feasibility(program(program_name), lasso, FAST_CFG)
            assert isinstance(result, FEASIBILITY_RESULTS)


class RecordingEdge:
    """A witness edge that notes the name of each field read of it, and of
    each comparison or hash of the whole edge."""

    def __init__(self, edge: WitnessEdge, reads: set[str]):
        self._edge = edge
        self._reads = reads

    def __getattr__(self, name):
        self._reads.add(name)
        return getattr(self._edge, name)

    def __eq__(self, other):
        self._reads.add("__eq__")
        return self is other

    def __hash__(self):
        self._reads.add("__hash__")
        return id(self)


# spellings that witness_from_json reads as one flag value; ABSENT leaves
# the key out
TRUE_FLAGS = [True, "true", "TRUE", " True "]
FALSE_FLAGS = [False, "false", "no", "", None]
ABSENT = object()
NAMES = st.text(alphabet="abN0E19_", min_size=1, max_size=4)


class TestCheckerView:
    """``score`` keeps a checked status under the lasso's checker view, so
    the view must hold everything the checker's result tier depends on."""

    def test_checker_reads_only_the_view_and_ids(self):
        seen = set()
        for program_name in PROGRAMS:
            p = program(program_name)
            for witness_name in WITNESSES:
                lasso = extract_lasso(automaton(witness_name))
                reads: set[str] = set()
                recording = LassoPath(
                    tuple(RecordingEdge(e, reads) for e in lasso.stem),
                    tuple(RecordingEdge(e, reads) for e in lasso.cycle),
                    lasso.cyclehead)
                result = check_feasibility(p, recording, FAST_CFG)
                assert type(result) is type(
                    check_feasibility(p, lasso, FAST_CFG))
                assert reads <= {"line", "control", "assumption", "id"}, \
                    (program_name, witness_name)
                seen.add(type(result))
        assert seen == set(FEASIBILITY_RESULTS)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(PROGRAMS), st.sampled_from(WITNESSES), st.data())
    def test_surface_changes_keep_view_and_tier(self, program_name,
                                                witness_name, data):
        # node names, order-keeping edge names, source text, loop-head marks
        # and flag spellings are not read by the checker
        original = load_witness_json(witness_name)["witness"]
        variant = copy.deepcopy(original)
        node_ids = sorted({n["id"] for n in variant["nodes"]})
        names = dict(zip(node_ids, data.draw(st.lists(
            NAMES, min_size=len(node_ids), max_size=len(node_ids),
            unique=True))))
        edge_ids = sorted({e["id"] for e in variant["edges"]})
        edge_names = dict(zip(edge_ids, sorted(data.draw(st.lists(
            NAMES, min_size=len(edge_ids), max_size=len(edge_ids),
            unique=True)))))

        def respell(item: dict, key: str) -> None:
            spellings = TRUE_FLAGS if _as_flag(item.get(key)) else \
                FALSE_FLAGS + [ABSENT]
            item.pop(key, None)
            spelling = data.draw(st.sampled_from(spellings))
            if spelling is not ABSENT:
                item[key] = spelling

        for node in variant["nodes"]:
            node["id"] = names[node["id"]]
            respell(node, "entry")
            respell(node, "cyclehead")
        for edge in variant["edges"]:
            edge["id"] = edge_names[edge["id"]]
            edge["source"] = names[edge["source"]]
            edge["target"] = names[edge["target"]]
            edge["sourcecode"] = data.draw(st.text(max_size=12))
            edge["enterLoopHead"] = data.draw(st.sampled_from(
                TRUE_FLAGS + FALSE_FLAGS))

        before = witness_from_json(original)
        after = witness_from_json(variant)
        assert bool(validate_schema(before)) == bool(validate_schema(after))
        lasso, renamed = extract_lasso(before), extract_lasso(after)
        assert isinstance(lasso, LassoPath) and isinstance(renamed, LassoPath)
        assert checker_view(lasso) == checker_view(renamed)
        p = program(program_name)
        assert type(check_feasibility(p, lasso, FAST_CFG)) is \
            type(check_feasibility(p, renamed, FAST_CFG))


class TestExternalValidator:
    def _fake_validator(self, tmp_path, stdout: str, exit_code: int = 0):
        root = tmp_path / "validator"
        root.mkdir()
        script = root / "Ultimate.py"
        script.write_text("#!/bin/sh\n"
                          f"echo '{stdout}'\n"
                          "echo \"args: $@\" >&2\n"
                          f"exit {exit_code}\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        return root

    def test_false_means_validated(self, tmp_path, fixtures_dir):
        root = self._fake_validator(tmp_path, "RESULT: FALSE(TERM)")
        cfg = ValidatorConfig(validator_root=root)
        result = run_external_validator(
            fixtures_dir / "programs" / "even_spin.c",
            fixtures_dir / "golden" / "even_spin.graphml", cfg)
        assert result.status is ValidationStatus.VALIDATED
        assert bool(result)

    def test_true_means_rejected(self, tmp_path, fixtures_dir):
        root = self._fake_validator(tmp_path, "RESULT: TRUE")
        cfg = ValidatorConfig(validator_root=root)
        result = run_external_validator(
            fixtures_dir / "programs" / "even_spin.c",
            fixtures_dir / "golden" / "even_spin.graphml", cfg)
        assert result.status is ValidationStatus.REJECTED

    def test_no_verdict_is_tool_error(self, tmp_path, fixtures_dir):
        root = self._fake_validator(tmp_path, "something went wrong", 3)
        cfg = ValidatorConfig(validator_root=root)
        result = run_external_validator(
            fixtures_dir / "programs" / "even_spin.c",
            fixtures_dir / "golden" / "even_spin.graphml", cfg)
        assert result.status is ValidationStatus.TOOL_ERROR

    def test_missing_executable(self, tmp_path):
        cfg = ValidatorConfig(validator_root=tmp_path / "nowhere")
        result = run_external_validator("p.c", "w.graphml", cfg)
        assert result.status is ValidationStatus.TOOL_ERROR

    def test_exact_argument_order(self, tmp_path, fixtures_dir):
        root = tmp_path / "validator"
        root.mkdir()
        script = root / "Ultimate.py"
        capture = tmp_path / "args.txt"
        script.write_text("#!/bin/sh\n"
                          f"echo \"$@\" > {capture}\n"
                          "echo FALSE\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        cfg = ValidatorConfig(validator_root=root, architecture="32bit",
                              property_path="../properties/termination.prp")
        program_path = fixtures_dir / "programs" / "even_spin.c"
        graphml = fixtures_dir / "golden" / "even_spin.graphml"
        run_external_validator(program_path, graphml, cfg)
        recorded = capture.read_text().split()
        assert recorded == [
            "--architecture", "32bit",
            "--spec", "../properties/termination.prp",
            "--file", str(program_path),
            "--validate", str(graphml),
        ]
