"""Deterministic builders for the stock architectures the analyses target.

`build_named` is the one entry point. It is pure: equal arguments produce
structurally equal graphs, nodes are declared in a fixed order, and ids are
stable, so conv ordinals (and therefore reported border layers) are
reproducible across runs. Each structure is built once and its node and edge
tuples are shared by every graph built from it, at any input size.

Classifier heads are the 32x32-friendly variant throughout: global average
pooling into a single dense layer into softmax.
"""
from __future__ import annotations

import re
from functools import lru_cache

from .graph_ir import (
    Activation,
    Add,
    ArchGraph,
    BatchNorm,
    Conv2d,
    Dense,
    GlobalAvgPool,
    Input,
    InputSpec,
    LayerKind,
    Pool,
    Softmax,
    make_graph,
)

_VGG_PLANS = {
    "vgg11": (1, 1, 2, 2, 2),
    "vgg13": (2, 2, 2, 2, 2),
    "vgg16": (2, 2, 3, 3, 3),
    "vgg19": (2, 2, 4, 4, 4),
}
_VGG_FILTERS = (64, 128, 256, 512, 512)

_RESNET_PLANS = {"resnet18": (2, 2, 2, 2), "resnet34": (3, 4, 6, 3)}
_RESNET_FILTERS = (64, 128, 256, 512)

_MPNET_BLOCKS = {"mpnet18": 2, "mpnet36": 4}
_MPNET_FILTERS = (64, 128, 256, 512)

FAMILIES = (*_VGG_PLANS, *_RESNET_PLANS, *_MPNET_BLOCKS)


_DEFAULT_INPUT = InputSpec(32, 32, 3)


class _GraphBuilder:
    def __init__(self) -> None:
        self.layers: list[tuple[str, LayerKind]] = []
        self.edges: list[tuple[str, str]] = []

    def add(self, node_id: str, kind: LayerKind, *preds: str) -> str:
        self.layers.append((node_id, kind))
        for pred in preds:
            self.edges.append((pred, node_id))
        return node_id


def _vgg_body(b: _GraphBuilder, prev: str, plan: tuple[int, ...], dilation: int) -> str:
    conv_n = 0
    for stage, (blocks, filters) in enumerate(zip(plan, _VGG_FILTERS), start=1):
        for _ in range(blocks):
            conv_n += 1
            prev = b.add(f"conv{conv_n}", Conv2d(kernel=3, filters=filters, dilation=dilation, bias=True), prev)
            prev = b.add(f"relu{conv_n}", Activation("relu"), prev)
        prev = b.add(f"pool{stage}", Pool(mode="max", kernel=2, stride=2, padding=0), prev)
    return prev


def _conv_bn_relu(b: _GraphBuilder, prev: str, base: str, kernel: int, filters: int, stride: int = 1) -> str:
    prev = b.add(f"{base}_conv", Conv2d(kernel=kernel, filters=filters, stride=stride, bias=False), prev)
    prev = b.add(f"{base}_bn", BatchNorm(), prev)
    return b.add(f"{base}_relu", Activation("relu"), prev)


def _resnet_body(b: _GraphBuilder, prev: str, plan: tuple[int, ...], skips: bool, stem: bool) -> str:
    prev = _conv_bn_relu(b, prev, "stem", kernel=7, filters=64, stride=2 if stem else 1)
    if stem:
        prev = b.add("stem_pool", Pool(mode="max", kernel=3, stride=2, padding=1), prev)

    in_channels = 64
    for stage, (blocks, filters) in enumerate(zip(plan, _RESNET_FILTERS), start=1):
        for block in range(1, blocks + 1):
            base = f"s{stage}b{block}"
            stride = 2 if stage > 1 and block == 1 else 1
            block_in = prev
            prev = b.add(f"{base}_conv1", Conv2d(kernel=3, filters=filters, stride=stride, bias=False), prev)
            prev = b.add(f"{base}_bn1", BatchNorm(), prev)
            prev = b.add(f"{base}_relu1", Activation("relu"), prev)
            prev = b.add(f"{base}_conv2", Conv2d(kernel=3, filters=filters, bias=False), prev)
            prev = b.add(f"{base}_bn2", BatchNorm(), prev)
            if skips:
                if stride != 1 or in_channels != filters:
                    skip = b.add(f"{base}_proj", Conv2d(kernel=1, filters=filters, stride=stride, bias=False), block_in)
                    skip = b.add(f"{base}_proj_bn", BatchNorm(), skip)
                else:
                    skip = block_in
                prev = b.add(f"{base}_add", Add(), prev, skip)
            prev = b.add(f"{base}_relu2", Activation("relu"), prev)
            in_channels = filters
    return prev


def _mpnet_module(b: _GraphBuilder, prev: str, base: str, filters: int, deep_wide_path: bool) -> str:
    """One multipath block: a 3x3 path and a 7x7 path merged by addition.

    The 3x3 path is declared first so its conv takes the earlier ordinal.
    With `deep_wide_path` the 7x7 path holds two convolutions, widening the
    gap between the smallest and largest receptive field per block.
    """
    narrow = _conv_bn_relu(b, prev, f"{base}_k3", kernel=3, filters=filters)
    wide = _conv_bn_relu(b, prev, f"{base}_k7a", kernel=7, filters=filters)
    if deep_wide_path:
        wide = _conv_bn_relu(b, wide, f"{base}_k7b", kernel=7, filters=filters)
    return b.add(f"{base}_add", Add(), narrow, wide)


def _mpnet_body(b: _GraphBuilder, prev: str, blocks: int, deep: bool) -> str:
    # Reconstruction of the multipath model organisms: four stages, each a
    # stride-2 max pool followed by the stage's blocks, filters doubling per
    # stage. mpnet18 uses two shallow blocks per stage; mpnet36 uses four
    # blocks whose wide path is two convolutions deep (a best-effort guess;
    # only mpnet18's borders are treated as ground truth).
    for stage, filters in enumerate(_MPNET_FILTERS, start=1):
        prev = b.add(f"s{stage}_pool", Pool(mode="max", kernel=2, stride=2, padding=0), prev)
        for block in range(1, blocks + 1):
            prev = _mpnet_module(b, prev, f"s{stage}m{block}", filters, deep_wide_path=deep)
    return prev


_NAME_RE = re.compile(r"^(?P<family>[a-z0-9]+?)(?P<opts>(?:-(?:dil[0-9]+|noskip|nostem))*)$")


def build_named(name: str, input_spec: InputSpec | None = None, num_classes: int = 10) -> ArchGraph:
    """Build a zoo model from its shorthand name, such as 'resnet18-noskip' or 'vgg19-dil3'.

    Options come in any order, and the last `-dilN` wins. The graph is named by the canonical
    shorthand: the family, then `-dilN` unless N is 1, `-noskip` and `-nostem`. `num_classes` must be
    an `int` (not a bool) of at least 2.
    """
    match = _NAME_RE.match(name)
    if not match or match.group("family") not in FAMILIES:
        raise ValueError(
            f"unknown zoo model {name!r}; families: {', '.join(FAMILIES)} "
            f"(options: -dilN, -noskip, -nostem)"
        )
    family, opts = match.group("family"), match.group("opts").split("-")[1:]
    dilations = [int(opt[3:]) for opt in opts if opt.startswith("dil")]
    dilation, skips, stem = dilations[-1] if dilations else 1, "noskip" not in opts, "nostem" not in opts
    if isinstance(num_classes, bool) or not isinstance(num_classes, int):
        raise ValueError(f"num_classes must be an integer >= 2, got {num_classes!r}")
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    if dilation != 1 and family not in _VGG_PLANS:
        raise ValueError("-dilN is a vgg-only option")
    if not skips and family not in _RESNET_PLANS:
        raise ValueError("-noskip is a resnet-only option")
    if not stem and family not in _RESNET_PLANS:
        raise ValueError("-nostem is a resnet-only option")

    canonical = family + (f"-dil{dilation}" if dilation != 1 else "")
    canonical += ("" if skips else "-noskip") + ("" if stem else "-nostem")
    shared = _structure(family, dilation, skips, stem, num_classes)
    return ArchGraph(canonical, _DEFAULT_INPUT if input_spec is None else input_spec, shared.nodes, shared.edges)


@lru_cache(maxsize=64)
def _structure(family: str, dilation: int, skips: bool, stem: bool, num_classes: int) -> ArchGraph:
    """One zoo structure at a placeholder input; never analyzed, it only lends its node and edge tuples."""
    b = _GraphBuilder()
    prev = b.add("input", Input())
    if family in _VGG_PLANS:
        prev = _vgg_body(b, prev, _VGG_PLANS[family], dilation)
    elif family in _RESNET_PLANS:
        prev = _resnet_body(b, prev, _RESNET_PLANS[family], skips, stem)
    else:
        prev = _mpnet_body(b, prev, _MPNET_BLOCKS[family], deep=family == "mpnet36")
    prev = b.add("gap", GlobalAvgPool(), prev)
    prev = b.add("fc", Dense(units=num_classes, bias=True), prev)
    b.add("softmax", Softmax(), prev)
    return make_graph(family, _DEFAULT_INPUT, b.layers, b.edges)
