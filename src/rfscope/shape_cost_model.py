"""Feature-map shape propagation and parameter/MAC accounting.

Two reporting conventions are exposed side by side because the literature is
inconsistent: `total_macs` (and `gflops_mac1`, which divides it by 1e9) treat
one multiply-accumulate as one operation, while `total_flops` doubles it.

Elementwise work (batch norm, activations, additions, pooling windows) is
counted too; convolutions and dense layers dominate it.
"""
from __future__ import annotations

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
    node_id: str
    params: int
    macs: int
    out_height: int
    out_width: int
    out_channels: int


class CostReport(NamedTuple):
    per_layer: tuple[LayerCost, ...]
    total_params: int
    total_macs: int

    @property
    def total_flops(self) -> int:
        return 2 * self.total_macs

    @property
    def gflops_mac1(self) -> float:
        """Total MACs in units of 1e9, the MAC-counts-as-one-FLOP convention."""
        return self.total_macs / 1e9


def _window_out(extent: int, window: int, stride: int, padding: int, node_id: str) -> int:
    out = (extent + 2 * padding - window) // stride + 1
    if out < 1:
        padded = safe_repr(extent + 2 * padding)
        raise ShapeError(node_id, f"window {safe_repr(window)} exceeds padded input extent {padded}")
    return out


def cost_report(graph: ArchGraph, shapes: dict[str, LayerCost] | None = None) -> CostReport:
    """Per-layer and total trainable parameters and multiply-accumulates.

    Every node's output shape, params and MACs come from one pass over the
    graph. `shapes` is accepted and not read: a graph's shapes are a function
    of the graph, so the walk derives them with the costs.

    Same padding means out = ceil(in / stride); valid and explicit padding
    follow the usual floor rule. Element-wise adds require identical input
    shapes; concatenation requires matching spatial dims and sums channels.
    """
    costs: dict[str, LayerCost] = {}  # a successor reads its input's (h, w, c) from positions 3-5
    total_params = total_macs = 0
    predecessors = graph.predecessors
    source = (None, 0, 0, graph.input.height, graph.input.width, graph.input.channels)  # what the Input node reads
    new = tuple.__new__  # builds a record from a tuple of its fields, skipping the keyword-argument shim
    for nid, node in zip(graph.order, graph.nodes):
        kind = node.kind
        preds = predecessors[nid]
        cls = type(kind)
        _, _, _, h, w, c = costs[preds[0]] if preds else source
        out_h, out_w, out_c = h, w, c
        params = macs = 0
        if cls is Conv2d:
            if kind.padding == PADDING_SAME:
                out_h, out_w = -(-h // kind.stride), -(-w // kind.stride)
            else:
                k_eff = kind.dilation * (kind.kernel - 1) + 1
                pad = 0 if kind.padding == PADDING_VALID else int(kind.padding)
                out_h = _window_out(h, k_eff, kind.stride, pad, nid)
                out_w = _window_out(w, k_eff, kind.stride, pad, nid)
            out_c = kind.filters
            weights = kind.kernel**2 * c * out_c
            params = weights + out_c if kind.bias else weights
            macs = weights * out_h * out_w
        elif cls is BatchNorm:
            params, macs = 2 * c, h * w * c
        elif cls is Activation:
            macs = h * w * c
        elif cls is Add:
            for p in preds[1:]:
                other = costs[p][3:]
                if other != (h, w, c):
                    detail = f"{safe_repr((h, w, c))} vs {safe_repr(other)}"
                    raise ShapeError(nid, f"element-wise add over mismatched shapes {detail}")
            macs = h * w * c
        elif cls is Pool:
            out_h = _window_out(h, kind.kernel, kind.stride, kind.padding, nid)
            out_w = _window_out(w, kind.kernel, kind.stride, kind.padding, nid)
            macs = kind.kernel**2 * out_h * out_w * c
        elif cls is Concat:
            for p in preds[1:]:
                if costs[p][3:5] != (h, w):
                    detail = f"{safe_repr((h, w))} vs {safe_repr(costs[p][3:5])}"
                    raise ShapeError(nid, f"concat over mismatched spatial dims {detail}")
            out_c = sum(costs[p][5] for p in preds)
        elif cls is Attention:
            params, macs = _attention_cost(kind.variant, h * w, c)
        elif cls is GlobalAvgPool:
            out_h = out_w = 1
            macs = h * w * c
        elif cls is Dense:
            out_h, out_w, out_c = 1, 1, kind.units
            macs = h * w * c * out_c
            params = macs + out_c if kind.bias else macs
        # Input and Softmax keep their input's shape and carry no parameters and no counted work.
        costs[nid] = new(LayerCost, (nid, params, macs, out_h, out_w, out_c))
        total_params += params
        total_macs += macs
    return CostReport(tuple(costs.values()), total_params, total_macs)


def propagate_shapes(graph: ArchGraph) -> dict[str, LayerCost]:
    """Every node's :func:`cost_report` row by node id, which holds its output (height, width, channels)."""
    return {c.node_id: c for c in cost_report(graph).per_layer}


def _attention_cost(variant: str, area: int, channels: int) -> tuple[int, int]:
    """(params, MACs) of an attention layer over `area` positions of `channels` channels.

    Modeling defaults: a squeeze-excite bottleneck holds 2*C*(C/ratio)
    weights; spatial attention is one 7x7 conv over stacked avg/max maps;
    cbam combines both.
    """
    params = macs = 0
    if variant != "spatial":  # the squeeze-excite half
        bottleneck = 2 * channels * max(1, channels // DEFAULT_SE_RATIO)
        params += bottleneck
        macs += 2 * channels * area + bottleneck
    if variant != "se":  # the spatial half
        weights = SPATIAL_ATTENTION_KERNEL**2 * 2
        params += weights
        macs += (3 * channels + weights) * area
    return params, macs

