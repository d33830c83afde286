"""Seeded random architecture DAGs, seeded mutations of zoo graphs, the
brute-force path oracle, a validation counter, the zoo variants and sweep
sizes that tests iterate over, and a runner for fresh interpreters.

Graphs are guaranteed valid by construction: convolutions preserve the
channel count of their predecessor, so element-wise merges always see equal
widths; diamonds never nest and each closes with a single merge node, so the
graph has one input, one sink, and at most two merge nodes.

Mutated zoo graphs are the opposite: edits of the edge list and layer list
that may or may not leave the graph valid.

The oracle folds its own receptive-field transfer, `layer_rf_transfer`, along
every input-to-node path one at a time, independently of the per-jump
frontiers of `propagate_dag`. `per_jump_extremes` folds a set of states into
the frontier they should make, per jump from sets and `min`/`max`, without
`propagate_dag`'s merge; `classify_by_two_scans` finds both borders as
`classify` once did, with two scans over finished rows.

Three more oracles keep graph walks that rfscope dropped: the reachability
checks `validate` once ran after its cycle check, and the dead-end heap with
which `truncate_at_border` once chose its attachment point and pruned side
branches, both dropped because the DAG rules imply their results; and
`validate_by_passes`, the separate input, sink, arity and channel passes that
`validate` now makes in one walk. The heap-drain oracle also
keeps the merge collapse that `truncate_at_border` once ran on edge tokens:
each surviving edge under an increasing token, and each rewired edge under a
fresh one, so it moves to the end of the edge list.
"""
from __future__ import annotations

import heapq
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

from rfscope import (
    Activation,
    Add,
    ArchGraph,
    Attention,
    BatchNorm,
    Concat,
    Conv2d,
    Dense,
    GlobalAvgPool,
    Input,
    InputSpec,
    LayerKind,
    Pool,
    RFState,
    Violation,
    build_named,
    classify,
    make_graph,
    unproductive_closure,
)
from rfscope import graph_ir
from rfscope.graph_ir import LAYER_KINDS, MERGE_KINDS, RF_NEUTRAL_KINDS
from rfscope.border_analysis import PRODUCTIVE, UNPRODUCTIVE, BorderReport, ConvClassification
from rfscope.rf_analysis import GLOBAL_STATE, RFAnnotation, propagate_dag
from rfscope.transforms import _fresh_id, _old_head_chain

# Every zoo variant, and the input sizes of a 16-step resolution sweep.
ZOO_VARIANTS = (
    "vgg11", "vgg13", "vgg16", "vgg19", "vgg19-dil3",
    "resnet18", "resnet34", "resnet18-noskip", "resnet34-noskip", "resnet18-nostem", "resnet34-nostem",
    "mpnet18", "mpnet36",
)
SWEEP_SIZES = tuple(range(32, 513, 32))

KERNELS = (1, 3, 5, 7)
STRIDES = (1, 1, 2)


def _random_kind(rng: random.Random, channels: int, preserve_spatial: bool = False) -> tuple[str, LayerKind]:
    roll = rng.random()
    if roll < 0.55:
        return "conv", Conv2d(
            kernel=rng.choice(KERNELS),
            filters=channels,
            stride=1 if preserve_spatial else rng.choice(STRIDES),
            padding="same",
            bias=False,
        )
    if roll < 0.75:
        if preserve_spatial:
            # k3/s1/p1 is the only pool here that keeps height and width.
            return "pool", Pool(mode=rng.choice(("max", "avg")), kernel=3, stride=1, padding=1)
        return "pool", Pool(mode=rng.choice(("max", "avg")), kernel=rng.choice((2, 3)), stride=rng.choice((1, 2)), padding=1)
    if roll < 0.85:
        return "bn", BatchNorm()
    if roll < 0.95:
        return "act", Activation("relu")
    return "attn", Attention(rng.choice(("se", "spatial", "cbam")))


def random_graph(seed: int, max_layer_nodes: int = 12, shape_safe: bool = False) -> ArchGraph:
    """With `shape_safe`, diamond branches keep spatial dims so merges also
    pass shape propagation (needed when cost reports run on the graph)."""
    rng = random.Random(seed)
    counter = itertools.count(1)
    layers: list[tuple[str, LayerKind]] = [("input", Input())]
    edges: list[tuple[str, str]] = []

    def new_node(prefix: str, kind: LayerKind, *preds: str) -> str:
        nid = f"{prefix}{next(counter)}"
        layers.append((nid, kind))
        edges.extend((p, nid) for p in preds)
        return nid

    endpoint = "input"
    channels = 3
    remaining = rng.randint(3, max_layer_nodes)
    merges_left = rng.randint(0, 2)
    while remaining > 0:
        if merges_left > 0 and remaining >= 3 and rng.random() < 0.5:
            fork = endpoint
            len_a = rng.randint(1, min(2, remaining - 2))
            len_b = rng.randint(1, min(2, remaining - len_a - 1))
            side_a = fork
            for _ in range(len_a):
                prefix, kind = _random_kind(rng, channels, preserve_spatial=shape_safe)
                side_a = new_node(prefix, kind, side_a)
            side_b = fork
            for _ in range(len_b):
                prefix, kind = _random_kind(rng, channels, preserve_spatial=shape_safe)
                side_b = new_node(prefix, kind, side_b)
            merge_kind: LayerKind = Add() if rng.random() < 0.7 else Concat()
            endpoint = new_node("merge", merge_kind, side_a, side_b)
            if isinstance(merge_kind, Concat):
                channels *= 2
            remaining -= len_a + len_b + 1
            merges_left -= 1
        else:
            prefix, kind = _random_kind(rng, channels)
            endpoint = new_node(prefix, kind, endpoint)
            remaining -= 1
    return make_graph(f"random{seed}", InputSpec(32, 32, 3), layers, edges)


MUTATION_MODELS = ("vgg11", "resnet18", "mpnet18")


def mutated_graph(seed: int) -> ArchGraph:
    """A zoo graph after 0-3 seeded edits: an edge dropped, duplicated,
    reversed or added, or a layer dropped (spliced out, or left with dangling
    edges). The result is valid or not; nothing here checks which."""
    rng = random.Random(seed)
    graph = build_named(rng.choice(MUTATION_MODELS))
    layers = [(n.id, n.kind) for n in graph.nodes]
    edges = list(graph.edges)
    for _ in range(rng.randint(0, 3)):
        op = rng.choice(("drop_edge", "duplicate_edge", "reverse_edge", "add_edge", "drop_layer"))
        if op == "drop_edge" and edges:
            edges.pop(rng.randrange(len(edges)))
        elif op == "duplicate_edge" and edges:
            edges.insert(rng.randrange(len(edges) + 1), rng.choice(edges))
        elif op == "reverse_edge" and edges:
            i = rng.randrange(len(edges))
            edges[i] = edges[i][::-1]
        elif op == "add_edge" and len(layers) > 1:
            src, dst = rng.sample([nid for nid, _ in layers], 2)
            edges.append((src, dst))
        elif op == "drop_layer" and len(layers) > 1:
            nid = layers.pop(rng.randrange(len(layers)))[0]
            if rng.random() < 0.7:
                preds = [a for a, b in edges if b == nid]
                succs = [b for a, b in edges if a == nid]
                edges = [e for e in edges if nid not in e] + [(a, b) for a in preds for b in succs]
    return make_graph(f"{graph.name}-mut{seed}", graph.input, layers, edges)


def count_validations(monkeypatch) -> list[str]:
    """Names of the graphs validated from now on, through any rfscope binding of `validate`."""
    calls = []
    real = graph_ir.validate

    def counting(graph):
        calls.append(graph.name)
        return real(graph)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rfscope" and getattr(module, "validate", None) is real:
            monkeypatch.setattr(module, "validate", counting)
    return calls


def successors(graph: ArchGraph) -> dict[str, tuple[str, ...]]:
    """Each node's successors, in edge order."""
    succs: dict[str, list[str]] = {n.id: [] for n in graph.nodes}
    for src, dst in graph.edges:
        if src in succs:
            succs[src].append(dst)
    return {k: tuple(v) for k, v in succs.items()}


def _window(kind: Conv2d | Pool) -> tuple[int, int]:
    """A conv's or pool's (k_eff - 1, stride): its transfer maps (r, j) to (r + (k_eff - 1) * j, j * stride)."""
    if type(kind) is Pool:
        return kind.kernel - 1, kind.stride
    return kind.dilation * (kind.kernel - 1), kind.stride


def layer_rf_transfer(state: RFState, kind: LayerKind) -> RFState:
    """One layer's receptive-field transfer of a path state; RF-neutral kinds act as k = s = 1."""
    cls = type(kind)
    if cls not in LAYER_KINDS:
        raise TypeError(f"{cls.__name__} is not a layer kind")
    if state.global_rf or cls is GlobalAvgPool or cls is Dense:
        return GLOBAL_STATE
    if cls in RF_NEUTRAL_KINDS:
        return state
    growth, stride = _window(kind)
    return RFState(state.r + growth * state.j, state.j * stride)


def enumerate_paths(graph: ArchGraph, target: str) -> list[list[str]]:
    """Every input-to-`target` path as a list of node ids, walked with an explicit stack."""
    ancestors = {target}
    stack = [target]
    while stack:
        for pred in graph.predecessors[stack.pop()]:
            if pred not in ancestors:
                ancestors.add(pred)
                stack.append(pred)
    paths = []
    succs = successors(graph)
    partial = [[graph.order[0]]]
    while partial:
        path = partial.pop()
        if path[-1] == target:
            paths.append(path)
            continue
        for succ in reversed(succs[path[-1]]):
            if succ in ancestors:
                partial.append(path + [succ])
    return paths


def fold_along(graph: ArchGraph, path: list[str]) -> list[RFState]:
    """State after each node of `path`, folded from (r=1, j=1)."""
    states = []
    state = RFState(1, 1)
    for nid in path:
        state = layer_rf_transfer(state, graph.node_map[nid].kind)
        states.append(state)
    return states


def r_value(state: RFState) -> int | float:
    """A state's receptive-field size, infinite once the state is global."""
    return math.inf if state.global_rf else state.r


def path_enumeration_oracle(graph: ArchGraph, node_id: str, at: str = "out") -> tuple[float, float]:
    """Exact (r_min, r_max) over every input-to-node path, entering the node (at="in") or leaving it."""
    values = []
    for path in enumerate_paths(graph, node_id):
        states = [RFState(1, 1)] + fold_along(graph, path)
        values.append(r_value(states[-2] if at == "in" else states[-1]))
    return min(values), max(values)


def per_jump_extremes(states: list[RFState]) -> tuple[RFState, ...]:
    """The frontier that `states` should fold to: per jump, the smallest and
    the largest r, ordered (j, r), then the global state if any state is global."""
    by_jump: dict[int, set[int]] = {}
    for s in states:
        if not s.global_rf:
            by_jump.setdefault(s.j, set()).add(s.r)
    frontier = []
    for j, rs in sorted(by_jump.items()):
        frontier += [RFState(r, j) for r in sorted({min(rs), max(rs)})]
    return tuple(frontier) + ((GLOBAL_STATE,) if any(s.global_rf for s in states) else ())


def classify_by_two_scans(graph: ArchGraph, annotations: dict[str, RFAnnotation] | None = None) -> BorderReport:
    """`classify`'s report as the rule reads: build every conv's row, then scan the
    rows once for the first unproductive conv and once for the first whose
    r_in_max exceeds the resolution."""
    if annotations is None:
        annotations = propagate_dag(graph)
    resolution = graph.input.resolution
    rows = []
    for node_id, ordinal in graph.conv_ordinals.items():
        ann = annotations[node_id]
        label = UNPRODUCTIVE if ann.r_in_min > resolution else PRODUCTIVE
        rows.append(ConvClassification(ordinal, node_id, ann.r_in_min, ann.r_in_max, label))
    first_min = next((c for c in rows if c.classification == UNPRODUCTIVE), None)
    first_max = next((c for c in rows if c.r_in_max > resolution), None)
    return BorderReport(
        resolution=resolution,
        per_conv=tuple(rows),
        border_min=None if first_min is None else first_min.ordinal,
        border_max=None if first_max is None else first_max.ordinal,
        border_min_node=None if first_min is None else first_min.node_id,
        border_max_node=None if first_max is None else first_max.node_id,
    )


def run_fresh(
    *args: str, cwd: Path | None = None, stdout_closed: bool = False, stderr_closed: bool = False
) -> subprocess.CompletedProcess:
    """`python *args` in a new interpreter that imports rfscope from this checkout's `src/`,
    started by `sh` with its standard output closed (`>&-`) when `stdout_closed` is set and its
    standard error closed (`2>&-`) when `stderr_closed` is set."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    argv = [sys.executable, *args]
    closes = " ".join(close for close, closed in ((">&-", stdout_closed), ("2>&-", stderr_closed)) if closed)
    if closes:
        argv = ["sh", "-c", f'"$@" {closes}', "sh", *argv]
    return subprocess.run(argv, capture_output=True, text=True, env=env, cwd=cwd, timeout=60)


def _reachable(start: str, neighbours: dict[str, tuple[str, ...]]) -> set[str]:
    """Every node reached from `start` by following `neighbours` (successors or predecessors)."""
    seen = {start}
    stack = [start]
    while stack:
        for nid in neighbours[stack.pop()]:
            if nid not in seen:
                seen.add(nid)
                stack.append(nid)
    return seen


# Rules whose violations made `validate` return before its reachability checks.
_BEFORE_REACHABILITY = {"unique_ids", "layer_kind", "layer_fields", "declaration_order", "edge_endpoints"}


def reachability_walks(graph: ArchGraph) -> list[Violation] | None:
    """The violations of the reachability checks that `validate` once ran after its
    cycle check: nodes not reachable from the Input, then nodes that do not reach
    the sink. None for a graph on which those checks never ran: malformed ids or
    edges, a cycle, no Input, or not exactly one sink."""
    if any(v.rule in _BEFORE_REACHABILITY for v in graph_ir.validate(graph)):
        return None
    preds, succs = graph.predecessors, successors(graph)
    input_ids = [n.id for n in graph.nodes if isinstance(n.kind, Input)]
    sinks = [n.id for n in graph.nodes if not succs[n.id]]
    if not input_ids or len(sinks) != 1:
        return None
    violations: list[Violation] = []
    reachable = _reachable(input_ids[0], succs)
    for node in graph.nodes:
        if node.id not in reachable:
            violations.append(Violation("reachable_from_input", node.id, "not reachable from the input node"))
    co_reachable = _reachable(sinks[0], preds)
    for node in graph.nodes:
        if node.id not in co_reachable:
            violations.append(Violation("reaches_sink", node.id, "sink not reachable from this node"))
    return violations


def validate_by_passes(graph: ArchGraph) -> list[Violation]:
    """`validate` as it was before its input, sink, arity and channel rules shared one walk:
    the id and edge passes, then one pass per rule and a separate channel propagation."""
    violations: list[Violation] = []

    position: dict[str, int] = {}
    for i, node in enumerate(graph.nodes):
        if node.id in position:
            violations.append(Violation("unique_ids", node.id, "duplicate node id"))
        position[node.id] = i
        violations.extend(graph_ir._kind_violations(node))

    for i, node in enumerate(graph.nodes):
        if node.declaration_index != i:
            message = f"node {node.id!r} is at position {i} but has declaration index {node.declaration_index!r}"
            violations.append(Violation("declaration_order", graph.name, message))
            break

    seen_edges: set[tuple[str, str]] = set()
    for src, dst in graph.edges:
        duplicate = (src, dst) in seen_edges
        seen_edges.add((src, dst))
        src_at, dst_at = position.get(src), position.get(dst)
        if src_at is not None and dst_at is not None and src_at < dst_at and not duplicate:
            continue
        label = f"{src}->{dst}"
        if src_at is None:
            violations.append(Violation("edge_endpoints", label, f"unknown source node {src!r}"))
        if dst_at is None:
            violations.append(Violation("edge_endpoints", label, f"unknown target node {dst!r}"))
        elif src_at is not None and src_at >= dst_at:
            violations.append(Violation("declaration_order", label, f"{src!r} is not declared before {dst!r}"))
        if duplicate:
            violations.append(Violation("edge_endpoints", label, "duplicate edge"))

    if violations:
        return violations

    preds = graph.predecessors
    input_ids = [n.id for n in graph.nodes if isinstance(n.kind, Input)]
    if len(input_ids) != 1:
        violations.append(
            Violation("single_input", graph.name, f"expected exactly one Input node, found {len(input_ids)}")
        )

    sources = {src for src, _ in graph.edges}
    sinks = [n.id for n in graph.nodes if n.id not in sources]
    if len(sinks) != 1:
        violations.append(
            Violation("single_sink", graph.name, f"expected exactly one sink node, found {len(sinks)}: {sorted(sinks)}")
        )

    for node in graph.nodes:
        if isinstance(node.kind, Input):
            continue
        indeg = len(preds[node.id])
        if isinstance(node.kind, MERGE_KINDS):
            if indeg < 2:
                violations.append(Violation("merge_arity", node.id, f"merge arity < 2 (got {indeg})"))
        elif indeg != 1:
            violations.append(Violation("unary_arity", node.id, f"expected exactly one predecessor, got {indeg}"))

    if violations:
        return violations

    channels = _propagate_channels(graph)
    for node in graph.nodes:
        if isinstance(node.kind, Add):
            widths = sorted({channels[p] for p in preds[node.id]})
            if len(widths) > 1:
                violations.append(
                    Violation("merge_channels", node.id, f"element-wise add over unequal channel counts {widths}")
                )
    return violations


def _propagate_channels(graph: ArchGraph) -> dict[str, int]:
    """Channel count carried out of each node of a graph whose edges point forward."""
    channels: dict[str, int] = {}
    for node in graph.nodes:
        nid, kind = node.id, node.kind
        preds = graph.predecessors[nid]
        if isinstance(kind, Input):
            channels[nid] = graph.input.channels
        elif isinstance(kind, Conv2d):
            channels[nid] = kind.filters
        elif isinstance(kind, Dense):
            channels[nid] = kind.units
        elif isinstance(kind, Concat):
            channels[nid] = sum(channels[p] for p in preds)
        else:
            channels[nid] = channels[preds[0]]
    return channels


def truncate_by_heap_drain(
    graph: ArchGraph, num_classes: int
) -> tuple[list[str], list[tuple[str, str]], tuple[str, ...]] | None:
    """Node ids, edges and removed ids of `truncate_at_border(graph, num_classes)`
    as the pass once built them: dead ends popped from a heap in topological
    order until one is left to take the new head. None when there is no border."""
    before_border = classify(graph)
    if before_border.border_min is None:
        return None
    removed = set(unproductive_closure(graph, before_border))
    removed.update(_old_head_chain(graph))

    keep = [n.id for n in graph.nodes if n.id not in removed]
    kinds = {nid: graph.node_map[nid].kind for nid in keep}
    live = dict(enumerate((a, b) for a, b in graph.edges if a not in removed and b not in removed))
    incoming: dict[str, list[int]] = {nid: [] for nid in keep}
    outgoing: dict[str, list[int]] = {nid: [] for nid in keep}
    for token, (a, b) in live.items():
        outgoing[a].append(token)
        incoming[b].append(token)

    token = len(live)
    for nid in keep:
        if isinstance(kinds[nid], MERGE_KINDS) and len(incoming[nid]) == 1:
            (in_token,) = incoming[nid]
            src = live.pop(in_token)[0]
            outgoing[src].remove(in_token)
            for out_token in outgoing[nid]:
                dst = live.pop(out_token)[1]
                incoming[dst].remove(out_token)
                live[token] = (src, dst)
                outgoing[src].append(token)
                incoming[dst].append(token)
                token += 1
            removed.add(nid)
    keep = [nid for nid in keep if nid not in removed]
    edges = list(dict.fromkeys(live.values()))

    # Pick the truncation point: the latest surviving dead end. Any other
    # dead-end branch no longer reaches the output and is pruned, which can
    # leave its predecessors dead ends in turn.
    topo_pos = {nid: i for i, nid in enumerate(graph.order)}
    out_count = dict.fromkeys(keep, 0)
    preds_of: dict[str, list[str]] = {nid: [] for nid in keep}
    for a, b in edges:
        out_count[a] += 1
        preds_of[b].append(a)
    dead_ends = [(topo_pos[nid], nid) for nid, count in out_count.items() if count == 0]
    heapq.heapify(dead_ends)
    while len(dead_ends) > 1:
        _, drop = heapq.heappop(dead_ends)
        removed.add(drop)
        for pred in preds_of[drop]:
            out_count[pred] -= 1
            if out_count[pred] == 0:
                heapq.heappush(dead_ends, (topo_pos[pred], pred))
    tail_end = dead_ends[0][1]
    keep = [nid for nid in keep if nid not in removed]
    edges = [e for e in edges if e[1] not in removed]

    taken = set(keep)
    head = [_fresh_id(base, taken) for base in ("head_gap", "head_fc", "head_softmax")]
    edges += [(tail_end, head[0]), (head[0], head[1]), (head[1], head[2])]
    return keep + head, edges, tuple(sorted(removed))
