"""Parameter/MAC accounting: `cost_report` gives a graph's totals, `propagate_shapes` every node's cost and shape.

Two reporting conventions are exposed side by side because the literature is
inconsistent: `total_macs` (and `gflops_mac1`, which divides it by 1e9) treat
one multiply-accumulate as one operation, while `total_flops` doubles it.

Elementwise work (batch norm, activations, additions, pooling windows) is
counted too; convolutions and dense layers dominate it.
"""
from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .graph_ir import (
    PADDING_SAME,
    PADDING_VALID,
    Activation,
    Add,
    ArchGraph,
    Attention,
    BatchNorm,
    Concat,
    Conv2d,
    Dense,
    GlobalAvgPool,
    Pool,
    Softmax,
    safe_repr,
)

DEFAULT_SE_RATIO = 16
SPATIAL_ATTENTION_KERNEL = 7


class ShapeError(ValueError):
    """Shapes do not propagate: merge mismatch or a window larger than its input."""

    def __init__(self, node_id: str, message: str):
        self.node_id = node_id
        super().__init__(f"node {node_id!r}: {message}")


class LayerCost(NamedTuple):
    params: int
    macs: int
    out_height: int
    out_width: int
    out_channels: int


class CostReport(NamedTuple):
    """A graph's total trainable parameters and multiply-accumulates; :func:`propagate_shapes` has each node's."""

    total_params: int
    total_macs: int

    @property
    def total_flops(self) -> int:
        return 2 * self.total_macs

    @property
    def gflops_mac1(self) -> float:
        """Total MACs in units of 1e9, the MAC-counts-as-one-FLOP convention."""
        return self.total_macs / 1e9


def _cost_plan(graph: ArchGraph) -> tuple:
    """What :func:`cost_report` and :func:`propagate_shapes` need besides the input's size, from one walk in node order.

    Sizes live in slots: slot 0 is (1, 1), slot 1 the input's, and each distinct
    `(in slot, window, stride, 2 * padding)` rule of a conv or pool makes one more
    (a strided same conv's rule is `(1, stride, 0)`: ceil(n / s) == (n - 1) // s + 1).
    Steps, in node order, are those rules and the merges whose inputs sit in
    different slots. Each node has one row, in node order: `(out slot, out channels, area slot, p0, pf,
    m0, mf)` gives its params `p0 + pf * area` and MACs `m0 + mf * area`.
    The totals are the sums of every node's `p0` and `m0` plus, per area slot, the sums of its
    nodes' `pf` and `mf`, each times the slot's area.
    """
    rules: dict[tuple[int, int, int, int], int] = {}  # a rule -> the slot it makes
    rows: dict[str, tuple] = {}  # node id -> its row; a successor reads the first two fields
    steps: list[tuple] = []  # (node id, *rule), or a merge's (node id, in slot, other slots, 0, shape tail)
    p0_sum = m0_sum = 0
    pf_sums, mf_sums = [0, 0], [0, 0]  # per slot, the sums of `pf` and `mf` of the nodes whose area it is
    predecessors = graph.predecessors
    for nid, node in zip(graph.order, graph.nodes):
        kind = node.kind
        cls = type(kind)
        preds = predecessors[nid]
        slot, c = rows[preds[0]][:2] if preds else (1, graph.input.channels)
        rule, out_slot, out_c = None, slot, c
        p0 = pf = m0 = mf = 0
        if cls is Conv2d:
            if kind.padding != PADDING_SAME:
                pad = 0 if kind.padding == PADDING_VALID else int(kind.padding)
                rule = (slot, kind.dilation * (kind.kernel - 1) + 1, kind.stride, 2 * pad)
            elif kind.stride > 1:
                rule = (slot, 1, kind.stride, 0)
            out_c = kind.filters
            mf = kind.kernel**2 * c * out_c
            p0 = mf + out_c if kind.bias else mf
        elif cls is BatchNorm:
            p0, mf = 2 * c, c
        elif cls is Activation:
            mf = c
        elif cls is Add or cls is Concat:
            others = tuple(rows[p][0] for p in preds[1:] if rows[p][0] != slot)
            if others:
                steps.append((nid, slot, others, 0, (c,) if cls is Add else ()))
            mf, out_c = (c, c) if cls is Add else (0, sum(rows[p][1] for p in preds))
        elif cls is Pool:
            rule = (slot, kind.kernel, kind.stride, 2 * kind.padding)
            mf = kind.kernel**2 * c
        elif cls is Attention:
            p0, m0, mf = _attention_cost(kind.variant, c)
        elif cls is GlobalAvgPool:
            out_slot, mf = 0, c
        elif cls is Dense:
            out_slot, out_c, p0 = 0, kind.units, kind.units if kind.bias else 0
            pf = mf = c * out_c
        area = slot
        if rule is not None:
            if rule not in rules:
                rules[rule] = len(rules) + 2
                steps.append((nid, *rule))
                pf_sums.append(0)
                mf_sums.append(0)
            out_slot = area = rules[rule]  # a window's MACs count its outputs
        rows[nid] = (out_slot, out_c, area, p0, pf, m0, mf)
        p0_sum, m0_sum = p0_sum + p0, m0_sum + m0
        pf_sums[area] += pf
        mf_sums[area] += mf
    plan = graph.__dict__["_cost_plan"] = (tuple(steps), tuple(rows.values()), p0_sum, m0_sum, tuple(pf_sums), tuple(mf_sums))
    return plan


def _sizes(graph: ArchGraph) -> tuple:
    """The graph's :func:`_cost_plan`, and each slot's (height, width) and area at the input's size, or the first step's ShapeError."""
    plan = graph.__dict__.get("_cost_plan") or _cost_plan(graph)
    hw = [(1, 1), (graph.input.height, graph.input.width)]  # each slot's (height, width)
    for nid, slot, window, stride, pad2 in plan[0]:
        h, w = hw[slot]
        if not stride:  # a merge: `window` holds its other inputs' slots, `pad2` the tail of its shapes
            for other in window:
                if hw[other] != (h, w):
                    label = "element-wise add over mismatched shapes" if pad2 else "concat over mismatched spatial dims"
                    raise ShapeError(nid, f"{label} {safe_repr((h, w) + pad2)} vs {safe_repr(hw[other] + pad2)}")
            continue
        out_h, out_w = (h + pad2 - window) // stride + 1, (w + pad2 - window) // stride + 1
        if out_h < 1 or out_w < 1:
            padded = safe_repr((h if out_h < 1 else w) + pad2)
            raise ShapeError(nid, f"window {safe_repr(window)} exceeds padded input extent {padded}")
        hw.append((out_h, out_w))
    return plan, hw, [h * w for h, w in hw]


def cost_report(graph: ArchGraph, shapes: dict[str, LayerCost] | None = None) -> CostReport:
    """Total trainable parameters and multiply-accumulates, as exact integers.

    The first call on a graph keeps its :func:`_cost_plan` on it for every later call on the graph and on its
    :meth:`ArchGraph.with_input` siblings of the same channel count. A call is one pass over the plan's size steps
    and one over its slots' areas; only :func:`propagate_shapes` builds per-layer records. `shapes` is not read.

    Same padding means out = ceil(in / stride); valid and explicit padding
    follow the usual floor rule. Element-wise adds require identical input
    shapes; concatenation requires matching spatial dims and sums channels.
    """
    (_, _, p0_sum, m0_sum, pf_sums, mf_sums), _, areas = _sizes(graph)
    return tuple.__new__(CostReport, (p0_sum + sum(map(mul, pf_sums, areas)), m0_sum + sum(map(mul, mf_sums, areas))))


def propagate_shapes(graph: ArchGraph) -> dict[str, LayerCost]:
    """Every node's record by node id, in node order, from its row of the cost plan and :func:`cost_report`'s size walk."""
    (_, rows, *_), hw, areas = _sizes(graph)
    new = tuple.__new__  # each record built without the keyword-argument shim
    return {nid: new(LayerCost, (p0 + pf * areas[a], m0 + mf * areas[a], *hw[s], c))
            for nid, (s, c, a, p0, pf, m0, mf) in zip(graph.order, rows)}


def _attention_cost(variant: str, channels: int) -> tuple[int, int, int]:
    """(params, fixed MACs, MACs per position) of an attention layer over `channels` channels.

    Modeling defaults: a squeeze-excite bottleneck holds 2*C*(C/ratio)
    weights; spatial attention is one 7x7 conv over stacked avg/max maps;
    cbam combines both.
    """
    params = fixed = per_position = 0
    if variant != "spatial":  # the squeeze-excite half
        params = fixed = 2 * channels * max(1, channels // DEFAULT_SE_RATIO)
        per_position = 2 * channels
    if variant != "se":  # the spatial half
        weights = SPATIAL_ATTENTION_KERNEL**2 * 2
        params += weights
        per_position += 3 * channels + weights
    return params, fixed, per_position
