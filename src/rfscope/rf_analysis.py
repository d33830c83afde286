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
from dataclasses import dataclass
from operator import attrgetter

from .graph_ir import RF_NEUTRAL_KINDS, ArchGraph, Conv2d, Dense, GlobalAvgPool, LayerKind, Pool

DEFAULT_FRONTIER_CAP = 4096


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

_finite_key = attrgetter("r", "j")


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
    finite = sorted((s for s in states if not s.global_rf), key=_finite_key)
    has_global = len(finite) < len(states)

    keep = [False] * len(finite)
    best_j = math.inf
    for i, s in enumerate(finite):
        if s.j < best_j:
            keep[i] = True
            best_j = s.j
    if has_global:
        # A global state dominates every finite state on the max side (and is
        # dominated by every finite state on the min side), so it replaces
        # the finite max frontier entirely.
        return (*(s for s, k in zip(finite, keep) if k), GLOBAL_STATE)
    best_j = -math.inf
    for i in range(len(finite) - 1, -1, -1):
        if finite[i].j > best_j:
            keep[i] = True
            best_j = finite[i].j
    return tuple(s for s, k in zip(finite, keep) if k)


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


def propagate_dag(graph: ArchGraph, frontier_cap: int = DEFAULT_FRONTIER_CAP) -> dict[str, RFAnnotation]:
    """Exact per-node receptive-field frontiers over all input-to-node paths.

    At merge nodes the incoming frontiers are unioned and re-pruned; single
    predecessor nodes inherit the predecessor's output frontier, and
    RF-neutral nodes pass it through as their own. Raises
    :class:`FrontierLimitError` if a frontier exceeds `frontier_cap`.
    """
    annotations: dict[str, RFAnnotation] = {}
    out_frontiers: dict[str, tuple[RFState, ...]] = {}
    node_map = graph.node_map
    predecessors = graph.predecessors
    for nid in graph.order:
        kind = node_map[nid].kind
        preds = predecessors[nid]
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

        if isinstance(kind, RF_NEUTRAL_KINDS):
            # The transfer is the identity and a pruned frontier is a fixed
            # point of prune_frontier, so the frontier passes through.
            out_frontier = in_frontier
        elif len(in_frontier) == 1:
            # One state is its own Pareto frontier, global or not.
            out_frontier = (layer_rf_transfer(in_frontier[0], kind),)
        else:
            out_frontier = prune_frontier({layer_rf_transfer(s, kind) for s in in_frontier})
            if len(out_frontier) > frontier_cap:
                raise FrontierLimitError(nid, len(out_frontier), frontier_cap)
        out_frontiers[nid] = out_frontier

        # Every frontier is sorted (see prune_frontier): min r first, max r last.
        annotations[nid] = RFAnnotation(
            node_id=nid,
            in_frontier=in_frontier,
            out_frontier=out_frontier,
            r_in_min=in_frontier[0].r_value,
            r_in_max=in_frontier[-1].r_value,
            r_out_min=out_frontier[0].r_value,
            r_out_max=out_frontier[-1].r_value,
        )
    return annotations
