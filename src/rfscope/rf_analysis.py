"""Receptive-field propagation over architecture DAGs.

The per-layer transfer is the classic recurrence: a layer with effective
kernel k and stride s maps (r, j) to (r + (k - 1) * j, j * s), where r is the
receptive-field size in input pixels and j is the jump, the cumulative
product of strides along the path. On a DAG a node is reached by many paths,
each carrying its own (r, j); the analysis keeps, per node, the exact Pareto
frontier of those states, which is sufficient to derive exact minimum and
maximum receptive fields everywhere downstream.

Folding a single (min r, min j) pair instead of a frontier would be wrong on
general DAGs: the path minimizing r at a node need not minimize j, and a
larger j can overtake later once kernels multiply against it.

A brute-force path enumerator is provided as an independent test oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Literal

from .graph_ir import (
    ArchGraph,
    Conv2d,
    Dense,
    GlobalAvgPool,
    InputSpec,
    LayerKind,
    Pool,
    ensure_valid,
)

DEFAULT_FRONTIER_CAP = 4096
DEFAULT_PATH_LIMIT = 10**6


class FrontierLimitError(RuntimeError):
    """Frontier grew past the configured cap; results would be unreliable to truncate."""

    def __init__(self, node_id: str, size: int, cap: int):
        self.node_id = node_id
        self.size = size
        self.cap = cap
        super().__init__(
            f"receptive-field frontier at node {node_id!r} holds {size} states, "
            f"exceeding the cap of {cap}; refusing to approximate"
        )


class PathLimitError(RuntimeError):
    """Path enumeration would exceed the guard limit."""


@dataclass(frozen=True)
class RFState:
    """Receptive-field size r and jump j along one path.

    `global_rf` marks states past a global-pooling or dense layer: the
    receptive field is the whole input and no further arithmetic applies.
    """

    r: int
    j: int
    global_rf: bool = False

    @property
    def r_value(self) -> int | float:
        return math.inf if self.global_rf else self.r


INITIAL_STATE = RFState(1, 1)
GLOBAL_STATE = RFState(1, 1, global_rf=True)


def effective_kernel(kernel: int, dilation: int) -> int:
    """Span of a dilated kernel: dilation * (kernel - 1) + 1."""
    if kernel < 1 or dilation < 1:
        raise ValueError(f"kernel and dilation must be >= 1, got {kernel}, {dilation}")
    return dilation * (kernel - 1) + 1


def layer_rf_transfer(state: RFState, kind: LayerKind) -> RFState:
    """Apply one layer's receptive-field transfer to a path state."""
    if state.global_rf:
        return GLOBAL_STATE
    if isinstance(kind, Conv2d):
        k_eff = effective_kernel(kind.kernel, kind.dilation)
        return RFState(state.r + (k_eff - 1) * state.j, state.j * kind.stride)
    if isinstance(kind, Pool):
        return RFState(state.r + (kind.kernel - 1) * state.j, state.j * kind.stride)
    if isinstance(kind, (GlobalAvgPool, Dense)):
        return GLOBAL_STATE
    return state


def propagate_sequential(layers: list[LayerKind], input_spec: InputSpec) -> list[RFState]:
    """Fold the transfer over a plain layer sequence, starting from (r=1, j=1).

    Element t is the state after layer t; the state entering layer t is
    element t-1 (or the initial state for t=0).
    """
    if not layers:
        raise ValueError("layer sequence must be nonempty")
    del input_spec  # resolution plays no role in the recurrence itself
    states: list[RFState] = []
    state = INITIAL_STATE
    for kind in layers:
        state = layer_rf_transfer(state, kind)
        states.append(state)
    return states


def _sort_key(state: RFState) -> tuple[float, float]:
    if state.global_rf:
        return (math.inf, math.inf)
    return (float(state.r), float(state.j))


def prune_frontier(states: set[RFState] | frozenset[RFState]) -> tuple[RFState, ...]:
    """Drop states dominated on both the min and the max side.

    A state survives if no other state is <= in both (r, j) (it sits on the
    minimizing frontier) or if no other state is >= in both (the maximizing
    frontier). Dominated states can never produce a smaller minimum or a
    larger maximum downstream, because every downstream transfer is monotone
    in both coordinates.
    """
    unique = set(states)
    if not unique:
        return ()
    finite = [s for s in unique if not s.global_rf]
    has_global = len(finite) < len(unique)

    keep: set[RFState] = set()
    by_min = sorted(finite, key=lambda s: (s.r, s.j))
    best_j = math.inf
    for s in by_min:
        if s.j < best_j:
            keep.add(s)
            best_j = s.j
    if has_global:
        # A global state dominates every finite state on the max side (and is
        # dominated by every finite state on the min side), so it replaces
        # the finite max frontier entirely.
        keep.add(GLOBAL_STATE)
    else:
        by_max = sorted(finite, key=lambda s: (-s.r, -s.j))
        best_j = -math.inf
        for s in by_max:
            if s.j > best_j:
                keep.add(s)
                best_j = s.j
    return tuple(sorted(keep, key=_sort_key))


@dataclass(frozen=True)
class RFAnnotation:
    """Per-node receptive-field summary.

    Frontiers list the Pareto-optimal path states reaching the node's input
    and leaving its output; the derived extremes are exact over all paths.
    Extremes are `math.inf` when every contributing path crosses a
    global-receptive-field layer.
    """

    node_id: str
    in_frontier: tuple[RFState, ...]
    out_frontier: tuple[RFState, ...]
    r_in_min: int | float
    r_in_max: int | float
    r_out_min: int | float
    r_out_max: int | float


def _extremes(frontier: tuple[RFState, ...]) -> tuple[int | float, int | float]:
    values = [s.r_value for s in frontier]
    return min(values), max(values)


def propagate_dag(graph: ArchGraph, frontier_cap: int = DEFAULT_FRONTIER_CAP) -> dict[str, RFAnnotation]:
    """Exact per-node receptive-field frontiers over all input-to-node paths.

    At merge nodes the incoming frontiers are unioned and re-pruned; single
    predecessor nodes inherit the predecessor's output frontier. Raises
    :class:`FrontierLimitError` if a frontier exceeds `frontier_cap`.
    """
    annotations: dict[str, RFAnnotation] = {}
    out_frontiers: dict[str, tuple[RFState, ...]] = {}
    for nid in graph.order:
        node = graph.node_map[nid]
        preds = graph.predecessors[nid]
        if not preds:
            in_frontier: tuple[RFState, ...] = (INITIAL_STATE,)
        elif len(preds) == 1:
            in_frontier = out_frontiers[preds[0]]
        else:
            merged: set[RFState] = set()
            for pred in preds:
                merged.update(out_frontiers[pred])
            in_frontier = prune_frontier(merged)
        if len(in_frontier) > frontier_cap:
            raise FrontierLimitError(nid, len(in_frontier), frontier_cap)

        if len(in_frontier) == 1:
            # One state is its own Pareto frontier, global or not.
            out_frontier = (layer_rf_transfer(in_frontier[0], node.kind),)
        else:
            out_frontier = prune_frontier({layer_rf_transfer(s, node.kind) for s in in_frontier})
        if len(out_frontier) > frontier_cap:
            raise FrontierLimitError(nid, len(out_frontier), frontier_cap)
        out_frontiers[nid] = out_frontier

        r_in_min, r_in_max = _extremes(in_frontier)
        r_out_min, r_out_max = _extremes(out_frontier)
        annotations[nid] = RFAnnotation(
            node_id=nid,
            in_frontier=in_frontier,
            out_frontier=out_frontier,
            r_in_min=r_in_min,
            r_in_max=r_in_max,
            r_out_min=r_out_min,
            r_out_max=r_out_max,
        )
    return annotations


def count_paths(graph: ArchGraph, node_id: str) -> int:
    """Number of distinct paths from the input node to `node_id`."""
    counts: dict[str, int] = {}
    for nid in graph.order:
        preds = graph.predecessors[nid]
        counts[nid] = 1 if not preds else sum(counts[p] for p in preds)
    return counts[node_id]


def iter_path_states(
    graph: ArchGraph, node_id: str, at: Literal["in", "out"] = "out"
) -> Iterator[RFState]:
    """Yield the folded state of every input-to-node path.

    With at="out" the node's own transfer is applied; with at="in" the state
    entering the node is yielded instead (for the input node itself, that is
    the initial state).
    """
    ensure_valid(graph)
    if node_id not in graph.node_map:
        raise KeyError(f"unknown node {node_id!r}")

    def fold(nid: str, state: RFState) -> Iterator[RFState]:
        if nid == node_id:
            yield state if at == "in" else layer_rf_transfer(state, graph.node_map[nid].kind)
            return
        state = layer_rf_transfer(state, graph.node_map[nid].kind)
        for succ in graph.successors[nid]:
            if succ in ancestors:
                yield from fold(succ, state)

    ancestors = {node_id}
    stack = [node_id]
    while stack:
        for pred in graph.predecessors[stack.pop()]:
            if pred not in ancestors:
                ancestors.add(pred)
                stack.append(pred)

    yield from fold(graph.input_id, INITIAL_STATE)


def path_enumeration_oracle(
    graph: ArchGraph,
    node_id: str,
    at: Literal["in", "out"] = "out",
    path_limit: int = DEFAULT_PATH_LIMIT,
) -> tuple[int | float, int | float]:
    """Exact (r_min, r_max) at a node by enumerating every path.

    Reference implementation for testing; refuses graphs with more than
    `path_limit` distinct paths to the node.
    """
    n_paths = count_paths(graph, node_id)
    if n_paths > path_limit:
        raise PathLimitError(f"{n_paths} paths to node {node_id!r} exceed the enumeration limit {path_limit}")
    r_min: int | float = math.inf
    r_max: int | float = -math.inf
    for state in iter_path_states(graph, node_id, at=at):
        value = state.r_value
        r_min = min(r_min, value)
        r_max = max(r_max, value)
    return r_min, r_max
