"""Receptive-field propagation over architecture DAGs.

The per-layer transfer is the classic recurrence: a layer with effective
kernel k and stride s maps (r, j) to (r + (k - 1) * j, j * s), where r is the
receptive-field size in input pixels and j is the jump, the cumulative
product of strides along the path. On a DAG a node is reached by many paths,
each carrying its own (r, j); the analysis keeps, per node and per distinct
jump, the smallest and largest r over those paths (Araujo, Norris and Sim,
"Computing Receptive Fields of Convolutional Neural Networks", Distill 2019,
applied per jump). That is exact: at a fixed j the transfer is increasing in
r, and j -> j * s is injective, so per-jump extremes fold through every layer.
A merge whose inputs all carry one jump keeps the min of their smallest r and
the max of their largest; any other merge takes the per-jump min and max.

Folding a single (min r, min j) pair instead would be wrong on general DAGs:
the path minimizing r at a node need not minimize j, and a larger j can
overtake later once kernels multiply against it.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .graph_ir import RF_NEUTRAL_KINDS, ArchGraph, Conv2d, Pool

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

    A path past a global-pooling or dense layer sees the whole input: it is in
    `GLOBAL_STATE`, `RFState(math.inf, 0)`, a fixed point of the recurrence
    (inf + (k - 1) * 0 = inf, 0 * s = 0) that sorts first by (j, r).
    """

    r: int | float
    j: int


INITIAL_STATE = RFState(1, 1)
GLOBAL_STATE = RFState(math.inf, 0)


def _merge(frontiers: list[tuple[RFState, ...]]) -> tuple[tuple[RFState, ...], int | float, int | float]:
    """Per-jump min and max r over the union of `frontiers`, ordered (j, r), so the global state, if any,
    first, with the merged frontier's smallest and largest r."""
    new = tuple.__new__
    r_lo, j = frontiers[0][0]
    r_hi = r_lo
    for frontier in frontiers:
        r_min, first_j = frontier[0]
        r_max, last_j = frontier[-1]
        if first_j != j or last_j != j:
            break
        r_lo = r_min if r_min < r_lo else r_lo
        r_hi = r_max if r_max > r_hi else r_hi
    else:  # one jump, as at every residual and multipath merge: the union's extremes are the parts'
        low = new(RFState, (r_lo, j))
        return ((low,) if r_lo == r_hi else (low, new(RFState, (r_hi, j)))), r_lo, r_hi
    lo: dict[int, int | float] = {}
    hi: dict[int, int | float] = {}
    for frontier in frontiers:
        for r, j in frontier:
            if j not in lo:
                lo[j] = hi[j] = r
            elif r < lo[j]:
                lo[j] = r
            elif r > hi[j]:
                hi[j] = r
    merged = []
    for j in sorted(lo):
        merged.append(new(RFState, (lo[j], j)))
        if hi[j] != lo[j]:
            merged.append(new(RFState, (hi[j], j)))
    return tuple(merged), min(lo.values()), max(hi.values())


class RFAnnotation(NamedTuple):
    """Per-node receptive-field summary.

    Frontiers hold, for each distinct jump of the paths reaching the node's
    input and leaving its output, the state with the smallest r and, if it
    differs, the state with the largest r. They are ordered by (j, r), so the
    global state (inf, 0) comes first when any path has crossed a global layer.
    The derived extremes are exact over all paths. Extremes are `math.inf` when
    every contributing path crosses a global-receptive-field layer.
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

    A merge whose inputs all carry one jump keeps the min of their smallest r
    and the max of their largest; any other merge takes the per-jump min and
    max of its inputs' frontiers. Single-predecessor nodes inherit the
    predecessor's output frontier, and RF-neutral nodes pass it through as
    their own. Convs and pools map each state, which keeps the frontier's
    length and order. Raises :class:`FrontierLimitError` if a merged
    frontier exceeds :data:`FRONTIER_CAP`; no other node can grow one.
    """
    annotations: dict[str, RFAnnotation] = {}
    predecessors = graph.predecessors
    cap = FRONTIER_CAP
    new = tuple.__new__  # builds a record from a tuple of its fields, skipping the keyword-argument shim
    for nid, node in zip(graph.order, graph.nodes):
        preds = predecessors[nid]
        if len(preds) == 1:
            # The predecessor's out-frontier, already within the cap, and its extremes.
            _, _, in_frontier, _, _, in_min, in_max = annotations[preds[0]]
        elif preds:
            in_frontier, in_min, in_max = _merge([annotations[pred].out_frontier for pred in preds])
            if len(in_frontier) > cap:
                raise FrontierLimitError(nid, len(in_frontier), cap)
        else:
            in_frontier, in_min, in_max = (INITIAL_STATE,), 1, 1

        kind = node.kind
        cls = type(kind)
        if cls in _RF_NEUTRAL:
            out_frontier, out_min, out_max = in_frontier, in_min, in_max
        elif cls is not Conv2d and cls is not Pool:
            # Global pooling and dense layers make any state global.
            out_frontier, out_min, out_max = (GLOBAL_STATE,), math.inf, math.inf
        else:
            # k_eff - 1, with k_eff = dilation * (kernel - 1) + 1; validation checked both are >= 1.
            growth = (kind.kernel - 1) * (kind.dilation if cls is Conv2d else 1)
            stride = kind.stride
            _, j = in_frontier[0]
            _, last_j = in_frontier[-1]
            if j == last_j:
                # One jump, as on every chain and residual stage: the frontier is
                # its extremes, and the map shifts both by growth * j.
                out_min, out_max = in_min + growth * j, in_max + growth * j
                j *= stride
                if out_min == out_max:
                    out_frontier = (new(RFState, (out_min, j)),)
                else:
                    out_frontier = (new(RFState, (out_min, j)), new(RFState, (out_max, j)))
            else:
                # At a fixed j the map is increasing in r, and j -> j * stride is
                # injective, so the image keeps the per-jump extremes and their order.
                out_frontier = tuple([new(RFState, (r + growth * j, j * stride)) for r, j in in_frontier])
                out_min, out_max = min(out_frontier)[0], max(out_frontier)[0]  # states compare by r first
        annotations[nid] = new(RFAnnotation, (nid, in_frontier, out_frontier, in_min, in_max, out_min, out_max))
    return annotations
