"""Feature-map shape propagation and parameter/MAC accounting.

Two reporting conventions are exposed side by side because the literature is
inconsistent: `total_macs` (and `gflops_mac1`, which divides it by 1e9) treat
one multiply-accumulate as one operation, while `total_flops` doubles it.

Elementwise work (batch norm, activations, additions, pooling windows) is
counted too; convolutions and dense layers dominate it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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
)
from .rf_analysis import effective_kernel

DEFAULT_SE_RATIO = 16
SPATIAL_ATTENTION_KERNEL = 7

# One input, output shape equal to it: the common case, tested first.
_UNARY_SHAPE_NEUTRAL_KINDS = (BatchNorm, Activation, Attention, Softmax)


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

    @property
    def elements(self) -> int:
        return self.out_height * self.out_width * self.out_channels


class LayerCost(NamedTuple):
    node_id: str
    params: int
    macs: int
    out_shape: ShapeInfo


@dataclass(frozen=True)
class CostReport:
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
        raise ShapeError(node_id, f"window {window} exceeds padded input extent {extent + 2 * padding}")
    return out


def propagate_shapes(graph: ArchGraph) -> dict[str, ShapeInfo]:
    """Output (height, width, channels) of every node.

    Same padding means out = ceil(in / stride); valid and explicit padding
    follow the usual floor rule. Element-wise adds require identical input
    shapes; concatenation requires matching spatial dims and sums channels.
    """
    shapes: dict[str, ShapeInfo] = {}
    node_map = graph.node_map
    predecessors = graph.predecessors
    for nid in graph.order:
        kind = node_map[nid].kind
        preds = predecessors[nid]
        if isinstance(kind, _UNARY_SHAPE_NEUTRAL_KINDS):
            src = shapes[preds[0]]
            info = ShapeInfo(nid, src.out_height, src.out_width, src.out_channels)
        elif isinstance(kind, Conv2d):
            src = shapes[preds[0]]
            k_eff = effective_kernel(kind.kernel, kind.dilation)
            if kind.padding == PADDING_SAME:
                h = math.ceil(src.out_height / kind.stride)
                w = math.ceil(src.out_width / kind.stride)
            else:
                pad = 0 if kind.padding == PADDING_VALID else int(kind.padding)
                h = _window_out(src.out_height, k_eff, kind.stride, pad, nid)
                w = _window_out(src.out_width, k_eff, kind.stride, pad, nid)
            info = ShapeInfo(nid, h, w, kind.filters)
        elif isinstance(kind, Pool):
            src = shapes[preds[0]]
            h = _window_out(src.out_height, kind.kernel, kind.stride, kind.padding, nid)
            w = _window_out(src.out_width, kind.kernel, kind.stride, kind.padding, nid)
            info = ShapeInfo(nid, h, w, src.out_channels)
        elif isinstance(kind, Add):
            inputs = [shapes[p] for p in preds]
            first = inputs[0]
            for other in inputs[1:]:
                if other[1:] != first[1:]:  # (height, width, channels)
                    raise ShapeError(nid, f"element-wise add over mismatched shapes {first[1:]} vs {other[1:]}")
            info = ShapeInfo(nid, *first[1:])
        elif isinstance(kind, GlobalAvgPool):
            info = ShapeInfo(nid, 1, 1, shapes[preds[0]].out_channels)
        elif isinstance(kind, Dense):
            info = ShapeInfo(nid, 1, 1, kind.units)
        elif isinstance(kind, Concat):
            inputs = [shapes[p] for p in preds]
            first = inputs[0]
            for other in inputs[1:]:
                if other.spatial != first.spatial:
                    raise ShapeError(nid, f"concat over mismatched spatial dims {first.spatial} vs {other.spatial}")
            info = ShapeInfo(nid, first.out_height, first.out_width, sum(p.out_channels for p in inputs))
        else:  # Input, the one kind left
            info = ShapeInfo(nid, graph.input.height, graph.input.width, graph.input.channels)
        shapes[nid] = info
    return shapes


def _se_squeeze(channels: int) -> int:
    return max(1, channels // DEFAULT_SE_RATIO)


def _attention_params(variant: str, channels: int) -> int:
    # Modeling defaults: a squeeze-excite bottleneck holds 2*C*(C/ratio)
    # weights; spatial attention is one 7x7 conv over stacked avg/max maps;
    # cbam combines both.
    se = 2 * channels * _se_squeeze(channels)
    spatial = SPATIAL_ATTENTION_KERNEL**2 * 2
    if variant == "se":
        return se
    if variant == "spatial":
        return spatial
    return se + spatial


def _attention_macs(variant: str, in_shape: ShapeInfo) -> int:
    area = in_shape.out_height * in_shape.out_width
    channels = in_shape.out_channels
    se = 2 * channels * area + 2 * channels * _se_squeeze(channels)
    spatial = 2 * channels * area + SPATIAL_ATTENTION_KERNEL**2 * 2 * area + channels * area
    if variant == "se":
        return se
    if variant == "spatial":
        return spatial
    return se + spatial


def cost_report(graph: ArchGraph, shapes: dict[str, ShapeInfo] | None = None) -> CostReport:
    """Per-layer and total trainable parameters and multiply-accumulates."""
    if shapes is None:
        shapes = propagate_shapes(graph)
    per_layer: list[LayerCost] = []
    node_map = graph.node_map
    predecessors = graph.predecessors
    for nid in graph.order:
        kind = node_map[nid].kind
        out = shapes[nid]
        preds = predecessors[nid]
        in_shape = shapes[preds[0]] if preds else out

        params = 0
        macs = 0
        if isinstance(kind, Conv2d):
            params = kind.kernel**2 * in_shape.out_channels * kind.filters
            if kind.bias:
                params += kind.filters
            macs = kind.kernel**2 * in_shape.out_channels * kind.filters * out.out_height * out.out_width
        elif isinstance(kind, Dense):
            in_features = in_shape.elements
            params = in_features * kind.units + (kind.units if kind.bias else 0)
            macs = in_features * kind.units
        elif isinstance(kind, BatchNorm):
            params = 2 * out.out_channels
            macs = out.elements
        elif isinstance(kind, (Activation, Add)):
            macs = out.elements
        elif isinstance(kind, Pool):
            macs = kind.kernel**2 * out.elements
        elif isinstance(kind, GlobalAvgPool):
            macs = in_shape.elements
        elif isinstance(kind, Attention):
            params = _attention_params(kind.variant, in_shape.out_channels)
            macs = _attention_macs(kind.variant, in_shape)
        # Input, Concat, Softmax carry no parameters and no counted work.
        per_layer.append(LayerCost(nid, params, macs, out))
    return CostReport(
        per_layer=tuple(per_layer),
        total_params=sum(c.params for c in per_layer),
        total_macs=sum(c.macs for c in per_layer),
    )
