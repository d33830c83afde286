"""Productive/unproductive classification of convolutional layers.

A convolution whose input receptive field already exceeds the input
resolution i = max(height, width) cannot integrate novel information into a
single feature-map position. The first conv ordinal where the minimum input
receptive field crosses i is the operative border; the analogous ordinal for
the maximum receptive field is reported for diagnostics. Each conv's row
holds its receptive fields and the range of its finite jumps, none of which
depends on the input size; the rule compares them with i only in the report.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

from .graph_ir import ArchGraph, Conv2d
from .rf_analysis import RFAnnotation, propagate_dag

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

    Rows do not depend on the input size, so the first call keeps a table on `graph`, read from
    `annotations` (which must be `propagate_dag(graph)`) or from one walk, and later calls, on `graph`
    or on a :meth:`ArchGraph.with_input` sibling, reuse it and return its rows as `per_conv`. It holds
    the rows in ordinal order and the running maxima of `r_in_min` and of `r_in_max`, the borders' step
    functions of the input size: a border is the first position whose running maximum exceeds the
    resolution, found by `bisect_right`.
    """
    table = graph.__dict__.get("_rf_table")
    if table is None:
        if annotations is None:
            annotations = propagate_dag(graph)
        convs = (annotations[nid] for nid, node in zip(graph.order, graph.nodes) if type(node.kind) is Conv2d)  # `order` validates
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

