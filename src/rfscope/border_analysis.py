"""Productive/unproductive classification of convolutional layers.

A convolution whose input receptive field already exceeds the input
resolution i = max(height, width) cannot integrate novel information into a
single feature-map position. The first conv ordinal where the minimum input
receptive field crosses i is the operative border; the analogous ordinal for
the maximum receptive field is reported for diagnostics. `analyze` returns the
border with the graph's RF annotations and cost report.
"""
from __future__ import annotations

from typing import NamedTuple

from .graph_ir import ArchGraph, _Record, _set
from .rf_analysis import RFAnnotation, propagate_dag
from .shape_cost_model import CostReport, cost_report

PRODUCTIVE = "productive"
UNPRODUCTIVE = "unproductive"


class ConvClassification(NamedTuple):
    ordinal: int
    node_id: str
    r_in_min: int | float
    r_in_max: int | float
    classification: str


class BorderReport(_Record):
    """Border location and per-conv classification for one graph at one resolution."""

    __slots__ = ("resolution", "per_conv", "border_min", "border_max", "border_min_node", "border_max_node")

    def __init__(
        self, resolution: int, per_conv: tuple[ConvClassification, ...], border_min: int | None,
        border_max: int | None, border_min_node: str | None, border_max_node: str | None,
    ) -> None:
        _set(self, "resolution", resolution)
        _set(self, "per_conv", per_conv)
        _set(self, "border_min", border_min)
        _set(self, "border_max", border_max)
        _set(self, "border_min_node", border_min_node)
        _set(self, "border_max_node", border_max_node)

    @property
    def unproductive_conv_ids(self) -> tuple[str, ...]:
        return tuple(c.node_id for c in self.per_conv if c.classification == UNPRODUCTIVE)


def classify(graph: ArchGraph, annotations: dict[str, RFAnnotation] | None = None) -> BorderReport:
    """Evaluate the border rule on every convolution's input receptive field.

    Head layers (global pooling, dense, softmax) are exempt: they sit past
    the border by construction, so classifying them would be noise. On a
    sequential graph min and max receptive fields coincide and the two
    border ordinals are equal.
    """
    if annotations is None:
        annotations = propagate_dag(graph)
    resolution = graph.input.resolution
    rows: list[ConvClassification] = []
    first_min = first_max = None  # the first unproductive row, and the first whose r_in_max crosses
    new = tuple.__new__  # builds a record from a tuple of its fields, skipping the keyword-argument shim
    for node_id, ordinal in graph.conv_ordinals.items():
        _, _, _, r_in_min, r_in_max, _, _ = annotations[node_id]
        label = UNPRODUCTIVE if r_in_min > resolution else PRODUCTIVE
        row = new(ConvClassification, (ordinal, node_id, r_in_min, r_in_max, label))
        rows.append(row)
        if first_min is None and r_in_min > resolution:
            first_min = row
        if first_max is None and r_in_max > resolution:
            first_max = row
    return BorderReport(
        resolution=resolution,
        per_conv=tuple(rows),
        border_min=first_min and first_min.ordinal,
        border_max=first_max and first_max.ordinal,
        border_min_node=first_min and first_min.node_id,
        border_max_node=first_max and first_max.node_id,
    )


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


class Analysis(NamedTuple):
    """One graph's receptive-field annotations, border report and cost report."""

    annotations: dict[str, RFAnnotation]
    border: BorderReport
    cost: CostReport


def analyze(graph: ArchGraph) -> Analysis:
    """Annotate, classify and cost `graph` in that order, one walk each: an RF error precedes a ShapeError."""
    annotations = propagate_dag(graph)
    return Analysis(annotations, classify(graph, annotations), cost_report(graph))
