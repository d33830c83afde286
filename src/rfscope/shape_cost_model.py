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
    _Record,
    _set,
)
from .rf_analysis import effective_kernel

DEFAULT_SE_RATIO = 16
SPATIAL_ATTENTION_KERNEL = 7


class ShapeError(ValueError):
    """Shapes do not propagate: merge mismatch or a window larger than its input."""

    def __init__(self, node_id: str, message: str):
        self.node_id = node_id
        super().__init__(f"node {node_id!r}: {message}")


class ShapeInfo(NamedTuple):
    node_id: str
    out_height: int
    out_width: int
    out_channels: int

    @property
    def spatial(self) -> tuple[int, int]:
        return (self.out_height, self.out_width)


class LayerCost(NamedTuple):
    node_id: str
    params: int
    macs: int
    out_shape: ShapeInfo


class CostReport(_Record):
    __slots__ = ("per_layer", "total_params", "total_macs")

    def __init__(self, per_layer: tuple[LayerCost, ...], total_params: int, total_macs: int) -> None:
        _set(self, "per_layer", per_layer)
        _set(self, "total_params", total_params)
        _set(self, "total_macs", total_macs)

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
        raise ShapeError(node_id, f"window {window} exceeds padded input extent {extent + 2 * padding}")
    return out


def _walk(graph: ArchGraph) -> tuple[dict[str, ShapeInfo], CostReport]:
    """Every node's output shape, params and MACs, in one pass over the graph.

    Same padding means out = ceil(in / stride); valid and explicit padding
    follow the usual floor rule. Element-wise adds require identical input
    shapes; concatenation requires matching spatial dims and sums channels.
    """
    shapes: dict[str, ShapeInfo] = {}
    per_layer: list[LayerCost] = []
    total_params = total_macs = 0
    predecessors = graph.predecessors
    source = (None, graph.input.height, graph.input.width, graph.input.channels)  # what the Input node reads
    new = tuple.__new__  # builds a record from a tuple of its fields, skipping the keyword-argument shim
    for nid, node in zip(graph.order, graph.nodes):
        kind = node.kind
        preds = predecessors[nid]
        cls = type(kind)
        _, h, w, c = shapes[preds[0]] if preds else source
        out_h, out_w, out_c = h, w, c
        params = macs = 0
        if cls is Conv2d:
            if kind.padding == PADDING_SAME:
                out_h, out_w = -(-h // kind.stride), -(-w // kind.stride)
            else:
                k_eff = effective_kernel(kind.kernel, kind.dilation)
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
                other = shapes[p][1:]
                if other != (h, w, c):
                    raise ShapeError(nid, f"element-wise add over mismatched shapes {(h, w, c)} vs {other}")
            macs = h * w * c
        elif cls is Pool:
            out_h = _window_out(h, kind.kernel, kind.stride, kind.padding, nid)
            out_w = _window_out(w, kind.kernel, kind.stride, kind.padding, nid)
            macs = kind.kernel**2 * out_h * out_w * c
        elif cls is Concat:
            for p in preds[1:]:
                if shapes[p].spatial != (h, w):
                    raise ShapeError(nid, f"concat over mismatched spatial dims {(h, w)} vs {shapes[p].spatial}")
            out_c = sum(shapes[p].out_channels for p in preds)
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
        shapes[nid] = info = new(ShapeInfo, (nid, out_h, out_w, out_c))
        per_layer.append(new(LayerCost, (nid, params, macs, info)))
        total_params += params
        total_macs += macs
    return shapes, CostReport(tuple(per_layer), total_params, total_macs)


def propagate_shapes(graph: ArchGraph) -> dict[str, ShapeInfo]:
    """Output (height, width, channels) of every node, from the walk that :func:`cost_report` makes."""
    return _walk(graph)[0]


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


def cost_report(graph: ArchGraph, shapes: dict[str, ShapeInfo] | None = None) -> CostReport:
    """Per-layer and total trainable parameters and multiply-accumulates.

    Shapes and costs come from one walk over the graph. `shapes` is accepted
    and not read: a graph's shapes are a function of the graph, so the walk
    derives them with the costs.
    """
    return _walk(graph)[1]
