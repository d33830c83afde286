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
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .graph_ir import LAYER_KINDS, RF_NEUTRAL_KINDS, ArchGraph, Conv2d, Dense, GlobalAvgPool, LayerKind, Pool

# Largest frontier propagate_dag accepts before it refuses to go on.
FRONTIER_CAP = 4096

_RF_NEUTRAL = frozenset(RF_NEUTRAL_KINDS)


class FrontierLimitError(RuntimeError):
    """Frontier grew past FRONTIER_CAP; results would be unreliable to truncate."""

    def __init__(self, node_id: str, size: int, cap: int):
        self.node_id = node_id
        self.size = size
        self.cap = cap
        super().__init__(
            f"receptive-field frontier at node {node_id!r} holds {size} states, "
            f"exceeding the cap of {cap}; refusing to approximate"
        )


class RFState(NamedTuple):
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


def _window(kind: Conv2d | Pool) -> tuple[int, int]:
    """A conv's or pool's (k_eff - 1, stride): its transfer maps (r, j) to (r + (k_eff - 1) * j, j * stride)."""
    if type(kind) is Pool:
        return kind.kernel - 1, kind.stride
    return effective_kernel(kind.kernel, kind.dilation) - 1, kind.stride


def layer_rf_transfer(state: RFState, kind: LayerKind) -> RFState:
    """Apply one layer's receptive-field transfer to a path state; RF-neutral kinds act as k = s = 1."""
    cls = type(kind)
    if cls not in LAYER_KINDS:
        raise TypeError(f"{cls.__name__} is not a layer kind")
    if state.global_rf or cls is GlobalAvgPool or cls is Dense:
        return GLOBAL_STATE
    if cls in _RF_NEUTRAL:
        return state
    growth, stride = _window(kind)
    return RFState(state.r + growth * state.j, state.j * stride)


def prune_frontier(states: set[RFState] | frozenset[RFState]) -> tuple[RFState, ...]:
    """Drop states dominated on both the min and the max side.

    A state survives if no other state is <= in both (r, j) (it sits on the
    minimizing frontier) or if no other state is >= in both (the maximizing
    frontier). Dominated states can never produce a smaller minimum or a
    larger maximum downstream, because every downstream transfer is monotone
    in both coordinates.

    The result is sorted by (r, j) with the global state, if any, last, so
    its first state has the minimum r and its last the maximum.
    """
    finite = sorted(s for s in states if not s.global_rf)
    has_global = len(finite) < len(states)
    if len(finite) <= 2 and not has_global:
        # The first state in (r, j) order is never dominated on the min side
        # and the last never on the max side.
        return tuple(finite)

    keep = [False] * len(finite)
    best_j = math.inf
    for i, s in enumerate(finite):
        if s.j < best_j:
            keep[i] = True
            best_j = s.j
    if has_global:
        # A global state dominates every finite state on the max side (and is
        # dominated by every finite state on the min side), so it replaces
        # the finite max frontier entirely and only the min side is scanned.
        return (*(s for s, k in zip(finite, keep) if k), GLOBAL_STATE)
    best_j = -math.inf
    for i in range(len(finite) - 1, -1, -1):
        if finite[i].j > best_j:
            keep[i] = True
            best_j = finite[i].j
    return tuple(s for s, k in zip(finite, keep) if k)


class RFAnnotation(NamedTuple):
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


def propagate_dag(graph: ArchGraph) -> dict[str, RFAnnotation]:
    """Exact per-node receptive-field frontiers over all input-to-node paths.

    At merge nodes the incoming frontiers are unioned and re-pruned; single
    predecessor nodes inherit the predecessor's output frontier, and
    RF-neutral nodes pass it through as their own. Raises
    :class:`FrontierLimitError` if a frontier exceeds :data:`FRONTIER_CAP`.
    """
    annotations: dict[str, RFAnnotation] = {}
    node_map = graph.node_map
    predecessors = graph.predecessors
    cap = FRONTIER_CAP
    new = tuple.__new__  # builds a record from a tuple of its fields, skipping the keyword-argument shim
    for nid in graph.order:
        preds = predecessors[nid]
        if len(preds) == 1:
            # The predecessor's out-frontier, already within the cap, and its extremes.
            _, _, in_frontier, _, _, in_min, in_max = annotations[preds[0]]
        elif preds:
            merged: set[RFState] = set()
            for pred in preds:
                merged.update(annotations[pred].out_frontier)
            in_frontier = prune_frontier(merged)
            if len(in_frontier) > cap:
                raise FrontierLimitError(nid, len(in_frontier), cap)
            # Every frontier is sorted (see prune_frontier), so its extremes
            # are its first and last states.
            in_min, in_max = in_frontier[0].r_value, in_frontier[-1].r_value
        else:
            in_frontier, in_min, in_max = (INITIAL_STATE,), 1, 1

        kind = node_map[nid].kind
        cls = type(kind)
        if cls in _RF_NEUTRAL:
            # The transfer is the identity and a pruned frontier is a fixed
            # point of prune_frontier, so the frontier passes through.
            out_frontier, out_min, out_max = in_frontier, in_min, in_max
        elif len(in_frontier) > 1:
            if cls is Conv2d or cls is Pool:
                growth, stride = _window(kind)
                image = {
                    GLOBAL_STATE if g else new(RFState, (r + growth * j, j * stride, False)) for r, j, g in in_frontier
                }
            else:  # GlobalAvgPool, Dense
                image = {GLOBAL_STATE}
            out_frontier = prune_frontier(image)
            if len(out_frontier) > cap:
                raise FrontierLimitError(nid, len(out_frontier), cap)
            out_min, out_max = out_frontier[0].r_value, out_frontier[-1].r_value
        elif in_frontier[0].global_rf or (cls is not Conv2d and cls is not Pool):
            # A global state stays global; global pooling and dense layers make any state global.
            out_frontier, out_min, out_max = (GLOBAL_STATE,), math.inf, math.inf
        else:
            # One state is its own Pareto frontier.
            r, j, _ = in_frontier[0]
            growth, stride = _window(kind)
            out_min = out_max = r + growth * j
            out_frontier = (new(RFState, (out_min, j * stride, False)),)
        annotations[nid] = new(RFAnnotation, (nid, in_frontier, out_frontier, in_min, in_max, out_min, out_max))
    return annotations
