"""Seeded input generator for the termeval benchmark.

``generate(workload, seed, dest)`` writes everything one workload needs:

* ``corpus/``: an SV-COMP-style tree (YAML descriptors, C sources,
  ``Termination-*.set`` files, ``properties/termination.prp``);
* ``runs/<model>/<task>/<i>.json``: replay caches in the layout
  ``termeval.oracle`` reads;
* ``config.toml``: the config the command is run with;
* ``annotations.json``: divergence preconditions (``precond-judge`` only);
* ``labels.json``: what every generation is, for the output checks.  The
  program never reads it.

Every cost-relevant quantity (task counts per family, reply mix and reply
lengths per pool, loop constants that decide how long the checker
simulates, formula shapes) is a fixed multiset.  The seed only permutes
which task gets which part of the multiset, the order of replies in a
pool, identifiers, prose and the surface form of witnesses and formulas.
Two seeds therefore give different inputs that cost the same work, which
keeps run-to-run spread low.

Witness labels:

* ``confirmable``: the program diverges along the witness and the checker
  reaches a conclusive ``ProvenInfinite``/``BoundedEvidence`` within the
  workload's checker budget.  The scored status must be VALID.
* ``refutable``: no infinite execution follows the witness (the loop it
  names terminates, the assumption contradicts the program, or the cycle is
  not the one the program repeats).  The status must never be VALID.
* ``budget``: the witness is right but the checker's budget or C subset
  cannot settle it (the divergent assignment lies beyond
  ``max_assignments``, or the program uses the heap).  Either status is
  accepted and the count is reported.

Divergent families stay divergent under two's-complement wraparound: fixed
points and strides by a multiple of a power-of-two modulus.  A stride such
as ``x += 3`` under ``x % 3 == 0`` would terminate after wrapping yet earn
bounded evidence, so no family uses one.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

MODELS = ("oracle-alpha", "oracle-beta")

# checker budget shared by the score workloads; the labels depend on it
CHECKER = {
    "domain": (-16, 16),
    "max_assignments": 512,
    "max_steps": 50_000,
    "bounded_cycle_target": 100,
    "stall_steps": 200,
}
DOMAIN_LO, DOMAIN_HI = CHECKER["domain"]

INT_MIN, INT_MAX = -(1 << 31), (1 << 31) - 1

CATEGORY_DIRS = {
    "BitVectors": "bitvectors",
    "MainControlFlow": "control",
    "MainHeap": "heap",
    "Other": "other",
}

VAR_NAMES = ("i", "j", "k", "n", "x", "y", "z", "a", "b", "c", "m", "t",
             "u", "v", "w", "p", "q", "r", "s", "d")


# ---------------------------------------------------------------------------
# C program families


@dataclass
class Witness:
    """A lasso witness: stem and cycle edges as (line, sourcecode, control,
    assumption) tuples, plus the label and checker tier it should earn."""
    stem: list
    cycle: list
    label: str        # confirmable | refutable | budget
    tier: str         # proven | bounded | infeasible | unknown | unsupported


@dataclass
class Task:
    task_id: str
    category: str
    family: str
    expected: str     # "T" | "NT"
    source: str
    good: Witness | None = None  # the witness a correct NT answer would carry
    bad: Witness | None = None   # a plausible but refutable witness
    names: dict = field(default_factory=dict)


def _program(header: list[str], body: list[str], padding: int,
             rng: random.Random) -> tuple[str, int]:
    """Source text plus the line offset added by the leading comment."""
    notes = ["// termination task generated for benchmarking",
             "// loop structure follows an SV-COMP termination idiom",
             "// nondeterministic inputs model unknown environment values",
             "// the verdict is fixed by the loop guard and its update"]
    pad = [rng.choice(notes) for _ in range(padding)]
    lines = pad + header + body
    return "\n".join(lines) + "\n", len(pad)


def _nondet_header() -> list[str]:
    return ["extern int __VERIFIER_nondet_int(void);", ""]


def fixpoint(tid, category, v, lo, hi, c, padding, rng) -> Task:
    """Diverges iff lo <= v <= hi: v walks to c and stays there."""
    body = [
        "int main() {",                                    # 1
        f"    int {v};",                                   # 2
        f"    {v} = __VERIFIER_nondet_int();",             # 3
        f"    while ({v} >= {lo} && {v} <= {hi}) {{",      # 4
        f"        if ({v} > {c}) {{",                      # 5
        f"            {v} = {v} - 1;",                     # 6
        "        }",                                       # 7
        f"        if ({v} < {c}) {{",                      # 8
        f"            {v} = {v} + 1;",                     # 9
        "        }",                                       # 10
        "    }",                                           # 11
        "    return 0;",                                   # 12
        "}",
    ]
    src, off = _program(_nondet_header(), body, padding, rng)
    L = off + 2  # line of body[0] is L + 1
    stem = [(L + 2, f"int {v};", None, None),
            (L + 3, f"{v} = __VERIFIER_nondet_int()", None, None)]
    head = (L + 4, body[3].strip(), "condition-true", f"{v} == {c}")
    close = (L + 11, "}", None, None)
    bad_head = (L + 4, body[3].strip(), "condition-true", f"{v} == {hi + 3}")
    return Task(tid, category, "fixpoint", "NT", src,
                good=Witness(stem, [head, close], "confirmable", "proven"),
                bad=Witness(stem, [bad_head, close], "refutable", "infeasible"))


def evenstride(tid, category, v, mod, step, padding, rng) -> Task:
    """Diverges for every multiple of mod: a stride by a multiple of a
    power-of-two modulus keeps the residue under 32-bit wraparound."""
    body = [
        "int main() {",
        f"    int {v};",
        f"    {v} = __VERIFIER_nondet_int();",
        f"    while ({v} % {mod} == 0) {{",
        f"        {v} = {v} + {step};",
        "    }",
        "    return 0;",
        "}",
    ]
    src, off = _program(_nondet_header(), body, padding, rng)
    L = off + 2
    stem = [(L + 2, f"int {v};", None, None),
            (L + 3, f"{v} = __VERIFIER_nondet_int()", None, None)]
    update = (L + 5, f"{v} = {v} + {step}", None, None)
    head = (L + 4, body[3].strip(), "condition-true", f"{v} % {mod} == 0")
    bad_head = (L + 4, body[3].strip(), "condition-true", f"{v} % {mod} == 1")
    return Task(tid, category, "evenstride", "NT", src,
                good=Witness(stem, [head, update], "confirmable", "bounded"),
                bad=Witness(stem, [bad_head, update], "refutable", "infeasible"))


def stall(tid, category, v, s, padding, rng) -> Task:
    """Diverges iff v <= s < 0: v counts up to s and then stops moving."""
    body = [
        "int main() {",
        f"    int {v};",
        f"    {v} = __VERIFIER_nondet_int();",
        f"    while ({v} < 0) {{",
        f"        if ({v} != {s}) {{",
        f"            {v} = {v} + 1;",
        "        }",
        "    }",
        "    return 0;",
        "}",
    ]
    src, off = _program(_nondet_header(), body, padding, rng)
    L = off + 2
    stem = [(L + 2, f"int {v};", None, None),
            (L + 3, f"{v} = __VERIFIER_nondet_int()", None, None)]
    head = (L + 4, body[3].strip(), "condition-true", f"{v} < 0")
    close = (L + 8, "}", None, None)
    increment = (L + 6, f"{v} = {v} + 1", None, None)
    # the increment stops at s, so a cycle through it repeats finitely often
    return Task(tid, category, "stall", "NT", src,
                good=Witness(stem, [head, close], "confirmable", "proven"),
                bad=Witness(stem, [head, increment], "refutable", "unknown"))


def latefix(tid, category, v, w, threshold, padding, rng) -> Task:
    """Two inputs; diverges iff v >= threshold.  The checker enumerates the
    second input fastest, so a threshold above the first
    max_assignments / |domain| values of v is out of its reach."""
    body = [
        "int main() {",
        f"    int {v}, {w};",
        f"    {v} = __VERIFIER_nondet_int();",
        f"    {w} = __VERIFIER_nondet_int();",
        f"    while ({v} >= {threshold}) {{",
        f"        {w} = {v};",
        "    }",
        "    return 0;",
        "}",
    ]
    src, off = _program(_nondet_header(), body, padding, rng)
    L = off + 2
    stem = [(L + 2, f"int {v}, {w};", None, None),
            (L + 3, f"{v} = __VERIFIER_nondet_int()", None, None),
            (L + 4, f"{w} = __VERIFIER_nondet_int()", None, None)]
    head = (L + 5, body[4].strip(), "condition-true", f"{v} >= {threshold}")
    update = (L + 6, f"{w} = {v}", None, None)
    span = DOMAIN_HI - DOMAIN_LO + 1
    reachable = threshold <= DOMAIN_LO + (CHECKER["max_assignments"] - 1) // span
    label, tier = (("confirmable", "proven") if reachable
                   else ("budget", "unknown"))
    return Task(tid, category, "latefix", "NT", src,
                good=Witness(stem, [head, update], label, tier))


def countdown(tid, category, v, w, padding, rng) -> Task:
    """Terminates: v only decreases while positive."""
    body = [
        "int main() {",
        f"    int {v}, {w};",
        f"    {v} = __VERIFIER_nondet_int();",
        f"    {w} = 0;",
        f"    while ({v} > 0) {{",
        f"        {v} = {v} - 1;",
        f"        {w} = {w} + 1;",
        "    }",
        "    return 0;",
        "}",
    ]
    src, off = _program(_nondet_header(), body, padding, rng)
    L = off + 2
    stem = [(L + 2, f"int {v}, {w};", None, None),
            (L + 3, f"{v} = __VERIFIER_nondet_int()", None, None),
            (L + 4, f"{w} = 0", None, None)]
    head = (L + 5, body[4].strip(), "condition-true", f"{v} > 0")
    update = (L + 6, f"{v} = {v} - 1", None, None)
    claim = Witness(stem, [head, update], "refutable", "infeasible")
    return Task(tid, category, "countdown", "T", src, good=claim)


def halving(tid, category, v, limit, padding, rng) -> Task:
    """Terminates: v > limit >= 1 makes v / 2 strictly smaller."""
    body = [
        "int main() {",
        f"    int {v};",
        f"    {v} = __VERIFIER_nondet_int();",
        f"    while ({v} > {limit}) {{",
        f"        {v} = {v} / 2;",
        "    }",
        "    return 0;",
        "}",
    ]
    src, off = _program(_nondet_header(), body, padding, rng)
    L = off + 2
    stem = [(L + 2, f"int {v};", None, None),
            (L + 3, f"{v} = __VERIFIER_nondet_int()", None, None)]
    head = (L + 4, body[3].strip(), "condition-true", f"{v} > {limit}")
    update = (L + 5, f"{v} = {v} / 2", None, None)
    claim = Witness(stem, [head, update], "refutable", "infeasible")
    return Task(tid, category, "halving", "T", src, good=claim)


def bounded_for(tid, category, v, w, bound, padding, rng) -> Task:
    """Terminates after ``bound`` iterations (below the checker's cycle
    target, so a claimed cycle cannot earn bounded evidence)."""
    assert bound < CHECKER["bounded_cycle_target"]
    body = [
        "int main() {",
        f"    int {v}, {w};",
        f"    {w} = 0;",
        f"    for ({v} = 0; {v} < {bound}; {v}++) {{",
        f"        {w} = {w} + {v};",
        "    }",
        "    return 0;",
        "}",
    ]
    src, off = _program([], body, padding, rng)
    L = off
    stem = [(L + 2, f"int {v}, {w};", None, None),
            (L + 3, f"{w} = 0", None, None)]
    head = (L + 4, body[3].strip(), "condition-true", f"{v} < {bound}")
    update = (L + 5, f"{w} = {w} + {v}", None, None)
    claim = Witness(stem, [head, update], "refutable", "infeasible")
    return Task(tid, category, "bounded_for", "T", src, good=claim)


def heap(tid, category, v, diverges, padding, rng) -> Task:
    """Pointer programs are outside the checker's subset."""
    update = f"*{v} = 1;" if diverges else f"*{v} = *{v} - 1;"
    body = [
        "int main() {",
        f"    int *{v} = malloc(sizeof(int));",
        f"    *{v} = 1;",
        f"    while (*{v} > 0) {{",
        f"        {update}",
        "    }",
        "    return 0;",
        "}",
    ]
    src, off = _program(["#include <stdlib.h>", ""], body, padding, rng)
    L = off + 2
    stem = [(L + 2, body[1].strip(), None, None),
            (L + 3, f"*{v} = 1", None, None)]
    head = (L + 4, body[3].strip(), "condition-true", f"*{v} > 0")
    step = (L + 5, update.rstrip(";"), None, None)
    label = "budget" if diverges else "refutable"
    return Task(tid, category, "heap_spin" if diverges else "heap_drain",
                "NT" if diverges else "T", src,
                good=Witness(stem, [head, step], label, "unsupported"))


# ---------------------------------------------------------------------------
# Witness rendering


_NODE_STYLES = (("N", 0), ("q", 1), ("s", 0), ("node", 1), ("L", 0), ("v", 1))
_EDGE_STYLES = (("E", 0), ("e", 1), ("t", 0), ("edge", 1), ("T", 0), ("a", 1))


def render_witness(w: Witness, variant: int) -> dict:
    """JSON witness graph for ``w``.  Variants differ only in node and edge
    naming and flag spelling, so they are distinct objects with the same
    meaning."""
    node_prefix, node_base = _NODE_STYLES[variant % len(_NODE_STYLES)]
    edge_prefix, edge_base = _EDGE_STYLES[(variant // len(_NODE_STYLES))
                                          % len(_EDGE_STYLES)]
    json_flags = (variant // 36) % 2 == 1
    flag = True if json_flags else "true"
    n_nodes = len(w.stem) + len(w.cycle)
    ids = [f"{node_prefix}{node_base + k}" for k in range(n_nodes)]
    head = ids[len(w.stem)]
    nodes = []
    for k, nid in enumerate(ids):
        node = {"id": nid}
        if k == 0:
            node["entry"] = flag
        if nid == head:
            node["cyclehead"] = flag
        nodes.append(node)
    if not w.stem:
        nodes[0]["cyclehead"] = flag
    edges = []
    path = list(w.stem) + list(w.cycle)
    for k, (line, code, control, assumption) in enumerate(path):
        target = ids[k + 1] if k + 1 < n_nodes else head
        edge = {"id": f"{edge_prefix}{edge_base + k}", "source": ids[k],
                "target": target, "line": line, "sourcecode": code}
        if control:
            edge["control"] = control
        if assumption:
            edge["assumption"] = assumption
        if target == head:
            edge["enterLoopHead"] = True
        edges.append(edge)
    return {"nodes": nodes, "edges": edges}


def break_schema(witness: dict, kind: int) -> dict:
    """A copy of ``witness`` that fails ``validate_schema``."""
    w = json.loads(json.dumps(witness))
    if kind == 0:
        for node in w["nodes"]:
            node.pop("cyclehead", None)
    elif kind == 1:
        del w["edges"][-1]["line"]
    elif kind == 2:
        w["edges"][0]["target"] = "missing"
    else:
        w["nodes"][-1]["entry"] = "true"
    return w


def witness_id(witness: dict | None) -> str | None:
    if witness is None:
        return None
    text = json.dumps(witness, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Replies


_PROSE = (
    "Let me trace the loop carefully. The guard reads {v} and the body "
    "updates it, so I follow the values the update can reach.",
    "Consider the loop at the top of main. For every input the guard is "
    "evaluated with machine integers, so wraparound has to be considered.",
    "I will reason about the loop guard first. A fragment like "
    "while ({v} ...) {{ ... }} repeats until the guard fails.",
    "The program reads a nondeterministic value into {v}. I check whether "
    "some value keeps the loop guard true forever.",
)


_STEPS = (
    "After step {k}, {v} is {a} and the guard still holds, so the body runs "
    "again and {v} becomes {b}.",
    "Suppose {v} starts at {a}. The update maps it to {b}, which the guard "
    "accepts, so iteration {k} is not the last one.",
    "With 32-bit wraparound, {v} = {a} plus {b} does not overflow here, so "
    "step {k} behaves like ordinary integer arithmetic.",
    "I check the case {v} = {a} separately: the branch at step {k} is taken "
    "and {v} moves to {b}.",
)

# C fragments quoted in the reasoning; each opens three brace pairs, none of
# which is a JSON object
_C_FRAGMENTS = (
    "```c\nwhile ({v} > {a}) {{\n    if ({v} % 2 == 0) {{\n        "
    "{v} = {v} / 2;\n    }} else {{\n        {v} = {v} + {b};\n    }}\n}}\n```",
    "```c\nfor (int i = 0; i < {a}; i++) {{\n    if ({v} > i) {{ {v} = {v} - 1; }}"
    "\n    else {{ break; }}\n}}\n```",
    "```c\nint main() {{\n    int {v} = __VERIFIER_nondet_int();\n    "
    "if ({v} < 0) {{ return 0; }}\n    while ({v} != {a}) {{ {v} = {v} + {b}; }}"
    "\n    return 0;\n}}\n```",
)

# Reply lengths in characters.  No replay cache of a real model is in the
# repository, so these are an assumption: most visible completions are a
# short explanation and the answer, some restate the loop and trace a few
# steps, and a few are long reasoning traces.  Each pool holds this fixed
# multiset, in an order the seed shuffles.
REPLY_LENGTHS = (300,) * 10 + (2_000,) * 6 + (8_000,) * 3 + (24_000,)
PRECOND_REPLY_LENGTHS = (300,) * 4 + (2_000,) * 2 + (8_000,) + (24_000,)
DRAFT_FROM = 8_000  # replies this long hold a superseded draft answer


def prose(rng: random.Random, v: str, length: int = 300,
          draft: bool = False) -> str:
    """Reasoning text of about ``length`` characters.  Every fourth paragraph
    past the opening quotes a C fragment.  With ``draft`` a long text also
    holds a draft answer object that a later answer supersedes."""
    first = rng.choice(_PROSE).format(v=v)
    second = rng.choice(_PROSE).format(v=v)
    parts = [first, second]
    size = len(first) + len(second)
    k = 0
    while size < length - 150:
        k += 1
        a, b = rng.randrange(2, 200), rng.randrange(2, 200)
        pool = _C_FRAGMENTS if k % 4 == 0 else _STEPS
        part = rng.choice(pool).format(v=v, k=k, a=a, b=b)
        if draft and length >= DRAFT_FROM and k == 8:
            part += ' A first draft of the answer: {"verdict": null}.'
        parts.append(part)
        size += len(part) + 2
    return "\n\n".join(parts) + "\n\n"


def reply_text(kind: str, rng: random.Random, v: str,
               witness: dict | None = None, length: int = 300) -> str:
    """Raw completion text of about ``length`` characters for one reply
    kind."""
    head = prose(rng, v, length, draft=kind != "FMT-none")
    if kind == "T":
        return head + json.dumps({"verdict": True}, indent=2)
    if kind == "UNK":
        return head + json.dumps({"verdict": None}, indent=2)
    if kind == "NT":
        body = {"verdict": False}
        if witness is not None:
            body["witness"] = witness
        return head + json.dumps(body, indent=2)
    if kind == "NT-notgraph":
        return head + json.dumps({"verdict": False,
                                  "witness": "see the reasoning above"})
    if kind == "FMT-none":
        return head + "So the program does not terminate for some inputs."
    if kind == "FMT-key":
        return head + json.dumps({"answer": "terminates"}, indent=2)
    if kind == "FMT-type":
        return head + json.dumps({"verdict": "false"}, indent=2)
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# Pools
#
# A pool profile is a fixed list of generation codes:
#   T, UNK, FMT                       reply without a witness
#   NT/none                           NT without a usable witness
#   NT/schema                         NT with a schema-invalid witness
#   NT/good, NT/bad                   NT with the task's good / bad witness
# Profiles are cycled over the tasks of a group, so the totals are fixed.


def _profile(**counts) -> list[str]:
    out = []
    for code, n in counts.items():
        out += [code.replace("_", "/")] * n
    assert len(out) == 20, (counts, len(out))
    return out


BOOTSTRAP_T_PROFILES = [
    _profile(T=16, NT_good=1, NT_schema=1, UNK=1, FMT=1),
    _profile(T=8, NT_schema=4, NT_none=4, UNK=2, FMT=2),
    _profile(T=20),
    _profile(T=3, NT_none=7, UNK=6, FMT=4),
]
BOOTSTRAP_NT_PROFILES = [
    _profile(NT_good=2, NT_schema=6, NT_none=4, T=4, UNK=2, FMT=2),
    _profile(NT_good=1, NT_schema=2, NT_none=2, T=12, UNK=2, FMT=1),
    _profile(NT_schema=10, NT_none=5, UNK=5),
    _profile(T=18, UNK=2),
]
# NT families whose witnesses take the checker long: no schema-valid ones here
BOOTSTRAP_NT_SLOW_PROFILES = [
    [c if c != "NT/good" else "NT/schema" for c in p]
    for p in BOOTSTRAP_NT_PROFILES
]
BOOTSTRAP_HEAP_NT_PROFILES = [
    _profile(NT_good=4, T=10, UNK=3, FMT=3),
    _profile(NT_good=2, NT_none=6, T=8, UNK=4),
]
BOOTSTRAP_HEAP_T_PROFILES = [
    _profile(NT_good=3, T=14, UNK=2, FMT=1),
    _profile(T=17, UNK=3),
]

WITNESS_NT_PROFILES = [
    _profile(NT_good=10, NT_bad=4, T=4, UNK=2),
    _profile(NT_good=8, NT_bad=6, T=3, UNK=1, FMT=2),
]
WITNESS_T_PROFILES = [
    _profile(NT_good=6, T=12, UNK=2),
]

# score-witness: share of a pool's schema-valid witnesses that repeat an
# earlier one in the same pool, and share of the second model's distinct
# witnesses that the first model's pool also holds
REPEAT_SHARE = 0.25
SHARED_SHARE = 0.5


# ---------------------------------------------------------------------------
# Task sets


def _names(rng: random.Random, n: int) -> list[str]:
    return rng.sample(VAR_NAMES, n)


def _make_tasks(specs, rng: random.Random) -> list[Task]:
    """``specs``: list of (category, family, params) with cost-relevant
    params fixed.  Task ids are numbered per category after a shuffle."""
    order = list(range(len(specs)))
    rng.shuffle(order)
    counters: dict[str, int] = {}
    paddings = [k % 7 for k in range(len(specs))]
    rng.shuffle(paddings)
    tasks = []
    for slot, index in enumerate(order):
        category, family, params = specs[index]
        n = counters.get(category, 0)
        counters[category] = n + 1
        tid = f"{CATEGORY_DIRS[category]}/{family}_{n:04d}"
        pad = paddings[slot]
        v, w = _names(rng, 2)
        if family == "fixpoint":
            lo, width, offset = params
            t = fixpoint(tid, category, v, lo, lo + width, lo + offset, pad, rng)
        elif family == "evenstride":
            mod, mult = params
            t = evenstride(tid, category, v, mod, mod * mult, pad, rng)
        elif family == "stall":
            (s,) = params
            t = stall(tid, category, v, s, pad, rng)
        elif family == "latefix":
            (threshold,) = params
            t = latefix(tid, category, v, w, threshold, pad, rng)
        elif family == "countdown":
            t = countdown(tid, category, v, w, pad, rng)
        elif family == "halving":
            (limit,) = params
            t = halving(tid, category, v, limit, pad, rng)
        elif family == "bounded_for":
            (bound,) = params
            t = bounded_for(tid, category, v, w, bound, pad, rng)
        elif family == "heap_spin":
            t = heap(tid, category, v, True, pad, rng)
        elif family == "heap_drain":
            t = heap(tid, category, v, False, pad, rng)
        else:
            raise ValueError(family)
        t.names = {"v": v, "w": w}
        tasks.append(t)
    tasks.sort(key=lambda t: t.task_id)
    return tasks


def _specs(rows) -> list:
    """Expand (category, family, params cycle, count) rows into one
    (category, family, params) entry per task."""
    return [(category, family, params[k % len(params)])
            for category, family, params, count in rows
            for k in range(count)]


def bootstrap_specs(scale: int) -> list:
    """Paper-shaped mix over all four categories; ``scale`` tasks per
    block of 20."""
    return _specs([
        ("BitVectors", "evenstride", [(2, 1), (4, 1), (2, 3), (8, 1)], scale),
        ("BitVectors", "halving", [(1,), (2,), (3,)], scale),
        ("MainControlFlow", "fixpoint", [(-12, 6, 2), (-14, 8, 5), (-13, 4, 1)],
         3 * scale),
        ("MainControlFlow", "stall", [(-4,), (-6,), (-9,)], 2 * scale),
        ("MainControlFlow", "countdown", [()], 3 * scale),
        ("MainControlFlow", "bounded_for", [(5,), (9,), (12,)], 2 * scale),
        ("MainHeap", "heap_spin", [()], 2 * scale),
        ("MainHeap", "heap_drain", [()], 2 * scale),
        ("Other", "latefix", [(-14,), (-12,), (7,), (11,)], scale),
        ("Other", "countdown", [()], 2 * scale),
        ("Other", "fixpoint", [(-10, 5, 3)], scale),
    ])


def witness_specs() -> list:
    return _specs([
        ("BitVectors", "evenstride", [(2, 1), (4, 1), (2, 3), (8, 1)], 4),
        ("MainControlFlow", "fixpoint", [(-12, 6, 2), (-14, 8, 5), (-13, 4, 1)], 6),
        ("MainControlFlow", "stall", [(-4,), (-6,), (-9,)], 4),
        ("MainControlFlow", "countdown", [()], 2),
        ("MainControlFlow", "bounded_for", [(9,)], 1),
        ("Other", "latefix", [(-14,), (7,), (-12,), (11,)], 4),
        ("Other", "halving", [(2,)], 1),
        ("MainHeap", "heap_spin", [()], 1),
    ])


# ---------------------------------------------------------------------------
# Writers


def _write_corpus(dest: Path, tasks: list[Task]) -> None:
    root = dest / "corpus"
    (root / "properties").mkdir(parents=True)
    (root / "properties" / "termination.prp").write_text(
        "CHECK( init(main()), LTL(F end) )\n")
    for category, sub in CATEGORY_DIRS.items():
        if category != "Other":
            (root / f"Termination-{category}.set").write_text(
                f"# {category} tasks\n{sub}/*.yml\n")
    for t in tasks:
        path = root / f"{t.task_id}.c"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(t.source)
        verdict = "true" if t.expected == "T" else "false"
        (root / f"{t.task_id}.yml").write_text(
            "format_version: '2.0'\n"
            f"input_files: '{path.name}'\n"
            "properties:\n"
            "  - property_file: ../properties/termination.prp\n"
            f"    expected_verdict: {verdict}\n"
            "options:\n"
            "  language: C\n"
            "  data_model: ILP32\n")


def _write_record(dest: Path, model: str, task_id: str, index: int,
                  raw: str) -> None:
    path = dest / "runs" / model / task_id / f"{index}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"latency": 0.0, "model": model, "prompt_hash": "bench",
               "raw_text": raw, "sample_index": index, "task_id": task_id,
               "timestamp": 0.0}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_config(dest: Path, eval_cfg: dict, checker: bool) -> None:
    lines = ["[corpus]", 'root = "corpus"', "", "[eval]"]
    lines += [f"{k} = {v}" for k, v in eval_cfg.items()]
    if checker:
        lo, hi = CHECKER["domain"]
        lines += ["", "[checker]", f"domain = [{lo}, {hi}]"]
        lines += [f"{k} = {v}" for k, v in CHECKER.items() if k != "domain"]
    lines += ["", "[output]", 'dir = "out"', ""]
    (dest / "config.toml").write_text("\n".join(lines))


FMT_KINDS = ("FMT-none", "FMT-key", "FMT-type")


def _score_pools(tasks: list[Task], profiles_for, rng: random.Random,
                 dest: Path, witness_mode: bool) -> dict:
    """Write both models' caches; return per-model per-task generation
    labels ``[code, label, witness id]``."""
    labels: dict[str, dict[str, list]] = {}
    shared_variants: dict[str, list[int]] = {}
    for m_index, model in enumerate(MODELS):
        labels[model] = {}
        group_pos: dict[str, int] = {}
        for t in tasks:
            profiles = profiles_for(t)
            key = id(profiles)
            pos = group_pos.get(key, 0)
            group_pos[key] = pos + 1
            # each model walks the profile cycle from its own offset
            codes = list(profiles[(pos + m_index) % len(profiles)])
            rng.shuffle(codes)
            lengths = list(REPLY_LENGTHS)
            rng.shuffle(lengths)
            variants = _witness_variants(t, codes, m_index, witness_mode,
                                         shared_variants)
            entries = []
            for index, code in enumerate(codes):
                v = t.names["v"]
                witness = None
                label = None
                if code == "FMT":
                    kind = rng.choice(FMT_KINDS)
                    raw = reply_text(kind, rng, v, length=lengths[index])
                elif code in ("T", "UNK"):
                    raw = reply_text(code, rng, v, length=lengths[index])
                elif code == "NT/none":
                    kind = "NT" if index % 2 else "NT-notgraph"
                    raw = reply_text(kind, rng, v, length=lengths[index])
                    label = "refutable"
                elif code == "NT/schema":
                    which = t.bad if (t.bad is not None and index % 2) else t.good
                    witness = break_schema(render_witness(which, rng.randrange(72)),
                                           rng.randrange(4))
                    raw = reply_text("NT", rng, v, witness, lengths[index])
                    label = "refutable"
                else:
                    which = t.good if code == "NT/good" else t.bad
                    witness = render_witness(which, variants[index])
                    raw = reply_text("NT", rng, v, witness, lengths[index])
                    label = which.label
                    code = f"NT/{which.tier}"
                _write_record(dest, model, t.task_id, index, raw)
                entries.append([code, label, witness_id(witness)])
            labels[model][t.task_id] = entries
    return labels


def _witness_variants(t: Task, codes: list[str], m_index: int,
                      witness_mode: bool,
                      shared: dict[str, list[int]]) -> dict[int, int]:
    """Surface variant per schema-valid witness slot.

    Without ``witness_mode`` every slot gets its own variant.  With it, a
    REPEAT_SHARE of the slots repeat an earlier variant of the same pool,
    and the second model draws SHARED_SHARE of its distinct variants from
    the first model's pool of the same task.
    """
    slots = [i for i, c in enumerate(codes) if c in ("NT/good", "NT/bad")]
    out: dict[int, int] = {}
    base = 100 * m_index
    if not witness_mode:
        for k, i in enumerate(slots):
            out[i] = base + k
        return out
    by_code: dict[str, list[int]] = {}
    for i in slots:
        by_code.setdefault(codes[i], []).append(i)
    for code, idx in by_code.items():
        n_repeat = int(round(REPEAT_SHARE * len(idx)))
        n_distinct = len(idx) - n_repeat
        key = f"{t.task_id}|{code}"
        if m_index == 0:
            distinct = list(range(n_distinct))
            shared[key] = distinct
        else:
            n_shared = int(round(SHARED_SHARE * n_distinct))
            first = shared.get(key, [])
            n_shared = min(n_shared, len(first))
            distinct = first[:n_shared] + [base + k for k in
                                            range(n_distinct - n_shared)]
        chosen = distinct + [distinct[k % len(distinct)] for k in range(n_repeat)]
        for i, variant in zip(idx, chosen):
            out[i] = variant
    return out


# ---------------------------------------------------------------------------
# Preconditions (precond-judge)
#
# Formulas are tuples: ("cmp", op, a, b), ("and", p, q), ("or", p, q),
# ("not", p); terms ("var", name), ("lit", n), ("bin", op, a, b).
# Every variable is a C int; evaluation wraps at 32 bits like the program.


def wrap32(x: int) -> int:
    x &= 0xFFFFFFFF
    return x - (1 << 32) if x >= 1 << 31 else x


def eval_term(t, env) -> int:
    kind = t[0]
    if kind == "var":
        return env[t[1]]
    if kind == "lit":
        return t[1]
    if kind == "neg":
        return wrap32(-eval_term(t[1], env))
    op, a, b = t[1], eval_term(t[2], env), eval_term(t[3], env)
    if op == "+":
        return wrap32(a + b)
    if op == "-":
        return wrap32(a - b)
    if op == "*":
        return wrap32(a * b)
    if b == 0:
        raise ZeroDivisionError
    q = abs(a) // abs(b)
    q = q if (a < 0) == (b < 0) else -q
    return wrap32(q) if op == "/" else wrap32(a - q * b)


def eval_formula(f, env) -> bool:
    kind = f[0]
    if kind == "and":
        return eval_formula(f[1], env) and eval_formula(f[2], env)
    if kind == "or":
        return eval_formula(f[1], env) or eval_formula(f[2], env)
    if kind == "not":
        return not eval_formula(f[1], env)
    op, a, b = f[1], eval_term(f[2], env), eval_term(f[3], env)
    return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
            "==": a == b, "!=": a != b}[op]


def render_term(t) -> str:
    if t[0] == "var":
        return t[1]
    if t[0] == "lit":
        return str(t[1])
    if t[0] == "neg":
        return f"-({render_term(t[1])})"
    return f"({render_term(t[2])} {t[1]} {render_term(t[3])})"


def render_formula(f, c_style: bool) -> str:
    kind = f[0]
    if kind in ("and", "or"):
        op = {"and": "&&", "or": "||"}[kind] if c_style else kind
        return f"({render_formula(f[1], c_style)} {op} {render_formula(f[2], c_style)})"
    if kind == "not":
        return f"{'!' if c_style else 'not '}({render_formula(f[1], c_style)})"
    op = f[1]
    if op == "==" and not c_style:
        op = "="
    return f"{render_term(f[2])} {op} {render_term(f[3])}"


def V(name):
    return ("var", name)


def L(n):
    return ("lit", n)


def cmp(op, a, b):
    return ("cmp", op, a, b)


_FLIP = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "==", "!=": "!="}
_NEGATE = {"<": ">=", ">=": "<", ">": "<=", "<=": ">", "==": "!=", "!=": "=="}


def rewrite(f, kind: str):
    """Equivalent rewrites, exact under 32-bit wraparound."""
    if f[0] in ("and", "or"):
        if kind == "demorgan":
            other = "or" if f[0] == "and" else "and"
            return ("not", (other, ("not", f[1]), ("not", f[2])))
        if kind == "commute":
            return (f[0], rewrite(f[2], "flip"), rewrite(f[1], "flip"))
        return (f[0], rewrite(f[1], kind), rewrite(f[2], kind))
    if f[0] == "not":
        return ("not", rewrite(f[1], kind))
    op, a, b = f[1], f[2], f[3]
    if kind in ("flip", "commute"):
        return cmp(_FLIP[op], b, a)
    if kind == "negate":
        return ("not", cmp(_NEGATE[op], a, b))
    if kind == "bound" and b[0] == "lit" and abs(b[1]) < 1000:
        if op == ">=":
            return cmp(">", a, L(b[1] - 1))
        if op == "<=":
            return cmp("<", a, L(b[1] + 1))
    if kind == "demorgan":
        return ("not", cmp(_NEGATE[op], a, b))
    return f


def perturb(f, kind: str):
    """Inequivalent variants of a formula (checked against the box)."""
    if f[0] in ("and", "or"):
        if kind == "drop":
            return f[2]
        if kind == "swap":
            return ("or" if f[0] == "and" else "and", f[1], f[2])
        if f[0] == "and":
            return (f[0], perturb(f[1], kind), f[2])
        return (f[0], f[1], perturb(f[2], kind))
    if f[0] == "not":
        return ("not", perturb(f[1], kind))
    op, a, b = f[1], f[2], f[3]
    if kind == "offbyone":
        return cmp({">=": ">", "<=": "<", ">": ">=", "<": "<=", "==": "<=",
                    "!=": "<"}[op], a, b)
    if kind == "wrap" and b[0] == "lit":
        return cmp(op, ("bin", "-", a, b), L(0))
    if kind == "direction":
        return cmp(_FLIP[op] if op not in ("==", "!=") else _NEGATE[op], a, b)
    return cmp(_NEGATE[op], a, b)


def domain_values(box=(-128, 127)) -> list[int]:
    """The values the program's brute-force check enumerates per int."""
    return sorted(set(range(box[0], box[1] + 1))
                  | {INT_MIN, INT_MIN + 1, INT_MAX - 1, INT_MAX})


def first_difference(f, g, names: list[str], values: list[int]):
    """Index and assignment of the first disagreement in enumeration order
    (first name outermost), or None when they agree everywhere."""
    names = sorted(names)
    if len(names) == 1:
        combos = ((x,) for x in values)
    else:
        combos = ((x, y) for x in values for y in values)
    for index, combo in enumerate(combos):
        env = dict(zip(names, combo))
        if eval_formula(f, env) != eval_formula(g, env):
            return index, env
    return None


UNPARSEABLE = (
    "the loop diverges when {v} is large",
    "{v} >= >= {c}",
    "{v} > {c} and",
    "q{v} > {c}",
    "{v} => {c}",
)

# per task: rewrite kinds of the equivalent generations, perturbation kinds
# of the inequivalent ones, and the number of unparseable replies
PRECOND_1VAR_MIX = (("flip", "bound", "demorgan"), ("offbyone", "wrap", "direction"), 2)
PRECOND_2VAR_MIX = (("flip",), ("wrap", "swap", "drop", "direction"), 3)
PRECOND_TASKS_1VAR = 36
PRECOND_TASKS_2VAR = 2  # one per model


def precond_truths(rng: random.Random, v: str, w: str | None, shape: int):
    """Divergence precondition of one task.  Constants are drawn from
    small fixed ranges so every seed costs the same to check."""
    lo = rng.randrange(1, 9)
    if w is None:
        if shape == 0:
            return ("and", cmp(">=", V(v), L(lo)), cmp("<=", V(v), L(lo + 20)))
        if shape == 1:
            return cmp(">=", V(v), L(lo))
        return ("or", cmp(">=", V(v), L(lo + 30)), cmp("<=", V(v), L(lo)))
    return ("and", cmp(">=", V(v), L(lo)), cmp("<=", V(w), L(lo + 5)))


def _precond_program(v: str, w: str | None, padding: int,
                     rng: random.Random) -> str:
    decl = f"    int {v}, {w};" if w else f"    int {v};"
    body = ["int main() {", decl, f"    {v} = __VERIFIER_nondet_int();"]
    if w:
        body.append(f"    {w} = __VERIFIER_nondet_int();")
    body += [f"    while ({v} > 0) {{", f"        {v} = {v} - 1;", "    }",
             "    return 0;", "}"]
    src, _ = _program(_nondet_header(), body, padding, rng)
    return src


def generate_precond(dest: Path, rng: random.Random) -> dict:
    values = domain_values()
    specs = [(1, k % 3) for k in range(PRECOND_TASKS_1VAR)]
    specs += [(2, 0)] * PRECOND_TASKS_2VAR
    rng.shuffle(specs)
    tasks, truths, labels = [], {}, {m: {} for m in MODELS}
    two_var_seen = 0
    for n, (arity, shape) in enumerate(specs):
        v, w = _names(rng, 2)
        w = w if arity == 2 else None
        tid = f"other/domain_{n:04d}"
        source = _precond_program(v, w, n % 5, rng)
        truth = precond_truths(rng, v, w, shape)
        names = [v] if w is None else [v, w]
        tasks.append(Task(tid, "Other", "domain", "NT", source))
        truths[tid] = {"formula": truth, "names": names}
        eq_kinds, neq_kinds, n_unp = (PRECOND_1VAR_MIX if arity == 1
                                      else PRECOND_2VAR_MIX)
        for m_index, model in enumerate(MODELS):
            gens = []
            if arity == 1 or two_var_seen % len(MODELS) == m_index:
                eqs = eq_kinds
            else:
                # the full 2-variable product is the costliest check: the
                # other model answers this task without an equivalent
                eqs = ()
            for kind in eqs:
                g = rewrite(truth, kind)
                assert first_difference(truth, g, names, values) is None
                gens.append(("EQ", g))
            for kind in neq_kinds:
                g = perturb(truth, kind)
                diff = first_difference(truth, g, names, values)
                assert diff is not None and diff[0] < len(values), (kind, truth, g)
                gens.append(("NEQ", g))
            for k in range(n_unp + len(eq_kinds) - len(eqs)):
                text = UNPARSEABLE[(k + m_index + n) % len(UNPARSEABLE)]
                gens.append(("UNP", text.format(v=v, c=rng.randrange(1, 9))))
            rng.shuffle(gens)
            lengths = list(PRECOND_REPLY_LENGTHS)
            rng.shuffle(lengths)
            entries = []
            for index, (code, g) in enumerate(gens):
                text = g if code == "UNP" else render_formula(g, rng.random() < 0.5)
                raw = (prose(rng, v, lengths[index])
                       + "The divergence precondition is:\n"
                       f"<answer>{text}</answer>\n")
                _write_record(dest, model, tid, index, raw)
                entries.append([code, text, None if code == "UNP" else g])
            labels[model][tid] = entries
        if arity == 2:
            two_var_seen += 1
    _write_corpus(dest, tasks)
    annotations = {tid: render_formula(t["formula"], False)
                   for tid, t in truths.items()}
    (dest / "annotations.json").write_text(json.dumps(annotations, indent=2,
                                                      sort_keys=True) + "\n")
    return tasks, {"truths": truths, "generations": labels}


# ---------------------------------------------------------------------------
# Entry point


WORKLOADS = ("score-bootstrap", "score-witness", "precond-judge")
BOOTSTRAP_SCALE = 12  # 20 blocks of this many tasks


def generate(workload: str, seed: int, dest: Path) -> None:
    """Write the inputs of ``workload`` for ``seed`` into ``dest`` (which
    must not exist yet)."""
    rng = random.Random(f"{workload}:{seed}")
    dest.mkdir(parents=True)
    eval_seed = rng.randrange(1, 1 << 30)
    if workload == "precond-judge":
        tasks, body = generate_precond(dest, rng)
        eval_cfg = None
        _write_config(dest, {}, checker=False)
        meta = {"kind": "precond"}
    else:
        if workload == "score-bootstrap":
            tasks = _make_tasks(bootstrap_specs(BOOTSTRAP_SCALE), rng)
            eval_cfg = {"pool_size": 20, "n_bootstrap": 100, "tts_n": 10,
                        "seed": eval_seed}
            slow = {"evenstride", "latefix"}

            def profiles_for(t: Task):
                if t.family.startswith("heap"):
                    return (BOOTSTRAP_HEAP_NT_PROFILES if t.expected == "NT"
                            else BOOTSTRAP_HEAP_T_PROFILES)
                if t.expected == "T":
                    return BOOTSTRAP_T_PROFILES
                return (BOOTSTRAP_NT_SLOW_PROFILES if t.family in slow
                        else BOOTSTRAP_NT_PROFILES)
            witness_mode = False
        elif workload == "score-witness":
            tasks = _make_tasks(witness_specs(), rng)
            eval_cfg = {"pool_size": 20, "n_bootstrap": 20, "tts_n": 10,
                        "seed": eval_seed}

            def profiles_for(t: Task):
                if t.expected == "T" or t.bad is None:
                    return WITNESS_T_PROFILES
                return WITNESS_NT_PROFILES
            witness_mode = True
        else:
            raise ValueError(f"unknown workload {workload!r}")
        _write_corpus(dest, tasks)
        generations = _score_pools(tasks, profiles_for, rng, dest, witness_mode)
        _write_config(dest, eval_cfg, checker=True)
        body = {"generations": generations}
        meta = {"kind": "score",
                "repeat_share": REPEAT_SHARE if witness_mode else 0.0,
                "shared_share": SHARED_SHARE if witness_mode else 0.0}
    labels = {"workload": workload, "seed": seed, "models": list(MODELS),
              "eval": eval_cfg, **meta, **body,
              "tasks": {t.task_id: {"expected": t.expected,
                                    "category": t.category,
                                    "family": t.family} for t in tasks}}
    (dest / "labels.json").write_text(json.dumps(labels, sort_keys=True) + "\n")


def ensure_inputs(workload: str, seed: int, work_root: Path) -> Path:
    """Inputs for (workload, seed), generated once and reused.  Inputs of
    the workload's other seeds are removed, so at most one set per workload
    stays on disk."""
    dest = work_root / "inputs" / f"{workload}-{seed}"
    if (dest / "labels.json").is_file():
        return dest
    for old in dest.parent.glob(f"{workload}-*"):
        shutil.rmtree(old)
    tmp = dest.with_name(dest.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    generate(workload, seed, tmp)
    if dest.exists():
        shutil.rmtree(dest)
    tmp.rename(dest)
    return dest
