"""Receptive-field propagation over architecture DAGs, and the border layer those fields place.

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

The border follows from the receptive fields alone. A convolution whose
input receptive field already exceeds the input resolution
i = max(height, width) cannot integrate novel information into a single
feature-map position. The first conv ordinal where the minimum input
receptive field crosses i is the operative border; the analogous ordinal for
the maximum receptive field is reported for diagnostics. Each conv's row
holds its receptive fields and the range of its finite jumps, none of which
depends on the input size; the rule compares them with i only in the report.
"""
from __future__ import annotations

import math
from bisect import bisect_right
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


PRODUCTIVE = "productive"
UNPRODUCTIVE = "unproductive"


class ConvClassification(NamedTuple):
    """One conv's input receptive-field range and its finite jumps' range (`math.inf` if none).

    A row does not depend on the input size: the conv's class at a size is `BorderReport`'s to state.
    """

    ordinal: int
    node_id: str
    r_in_min: int | float
    r_in_max: int | float
    j_min: int | float
    j_max: int | float


class BorderReport(NamedTuple):
    """Border location for one graph at one resolution: a conv is unproductive when its `r_in_min` exceeds it."""

    resolution: int
    per_conv: tuple[ConvClassification, ...]
    border_min: int | None
    border_max: int | None
    border_min_node: str | None
    border_max_node: str | None

    @property
    def unproductive_conv_ids(self) -> tuple[str, ...]:
        return tuple(c.node_id for c in self.per_conv if c.r_in_min > self.resolution)


def classify(graph: ArchGraph, annotations: dict[str, RFAnnotation] | None = None) -> BorderReport:
    """Evaluate the border rule on every convolution's input receptive field.

    Head layers (global pooling, dense, softmax) are exempt: they sit past
    the border by construction, so classifying them would be noise. On a
    sequential graph min and max receptive fields coincide and the two
    border ordinals are equal. Ordinals number every Conv2d from 1 in
    declaration order, 1x1 projections on skip branches included.

    Rows do not depend on the input size, so the first call keeps a table on `graph`, read from its
    own :func:`propagate_dag` walk, and later calls, on `graph` or on a :meth:`ArchGraph.with_input`
    sibling, reuse it and return its rows as `per_conv`. It holds the rows in ordinal order and the
    running maxima of `r_in_min` and of `r_in_max`, the borders' step functions of the input size: a
    border is the first position whose running maximum exceeds the resolution, found by `bisect_right`.
    `annotations` is not read.
    """
    table = graph.__dict__.get("_rf_table")
    if table is None:
        # The walk validates, and it keeps node order, which numbers the convs.
        convs = (a for a, node in zip(propagate_dag(graph).values(), graph.nodes) if type(node.kind) is Conv2d)
        new = tuple.__new__  # builds a record from a tuple of its fields, skipping the keyword-argument shim
        inf = math.inf
        # A conv's in-frontier `f` is ordered (j, r), so the global state (inf, 0), the one state of jump 0,
        # comes first if present: the finite jumps run from the state after it to the last state.
        rows = tuple([
            new(ConvClassification, (o, nid, r_min, r_max, f[0][1] or (f[1][1] if len(f) > 1 else inf), f[-1][1] or inf))
            for o, (nid, f, _, r_min, r_max, _, _) in enumerate(convs, 1)
        ])
        top_min = top_max = 0  # the running maxima of r_in_min and of r_in_max
        table = graph.__dict__["_rf_table"] = (
            rows,
            tuple([top_min := (row[2] if row[2] > top_min else top_min) for row in rows]),
            tuple([top_max := (row[3] if row[3] > top_max else top_max) for row in rows]),
        )
    per_conv, min_maxima, max_maxima = table
    resolution = graph.input.resolution
    at_min, at_max = bisect_right(min_maxima, resolution), bisect_right(max_maxima, resolution)
    first_min = per_conv[at_min][:2] if at_min < len(per_conv) else (None, None)  # the first unproductive conv's ordinal and id
    first_max = per_conv[at_max][:2] if at_max < len(per_conv) else (None, None)  # those of the first whose r_in_max crosses
    return tuple.__new__(BorderReport, (resolution, per_conv, first_min[0], first_max[0], first_min[1], first_max[1]))


def unproductive_closure(graph: ArchGraph, report: BorderReport) -> frozenset[str]:
    """Nodes of any kind all of whose input-to-node paths cross unproductive territory.

    A node belongs to the closure when it is an unproductive convolution
    itself or when every path from the input reaches it through one; a node
    fed by any productive path stays out, so removing the closure can never
    sever productive dataflow. `report` is `classify(graph)`.
    """
    unproductive = set(report.unproductive_conv_ids)
    if not unproductive:
        return frozenset()
    blocked: set[str] = set()
    for nid in graph.order:
        if nid in unproductive:
            blocked.add(nid)
            continue
        preds = graph.predecessors[nid]
        if preds and all(p in blocked for p in preds):
            blocked.add(nid)
    return frozenset(blocked)
