"""Deterministic builders for the stock architectures the analyses target.

All builders are pure: equal specs produce structurally equal graphs, nodes
are declared in a fixed order, and ids are stable, so conv ordinals (and
therefore reported border layers) are reproducible across runs.

Classifier heads are the 32x32-friendly variant throughout: global average
pooling into a single dense layer into softmax.
"""
from __future__ import annotations

import re

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
    _Record,
    _set,
    make_graph,
)

FAMILIES = ("vgg11", "vgg13", "vgg16", "vgg19", "resnet18", "resnet34", "mpnet18", "mpnet36")

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


_DEFAULT_INPUT = InputSpec(32, 32, 3)


class ZooSpec(_Record):
    """A zoo model request: family plus the options that family supports."""

    __slots__ = ("family", "input", "num_classes", "dilation", "skips_enabled", "stem_downsampling")

    def __init__(
        self, family: str, input: InputSpec = _DEFAULT_INPUT, num_classes: int = 10, dilation: int = 1,
        skips_enabled: bool = True, stem_downsampling: bool = True,
    ) -> None:
        _set(self, "family", family)
        _set(self, "input", input)
        _set(self, "num_classes", num_classes)
        _set(self, "dilation", dilation)
        _set(self, "skips_enabled", skips_enabled)
        _set(self, "stem_downsampling", stem_downsampling)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; known: {', '.join(FAMILIES)}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {self.dilation}")
        if self.dilation != 1 and not self.family.startswith("vgg"):
            raise ValueError("dilation is a vgg-only option")
        if not self.skips_enabled and not self.family.startswith("resnet"):
            raise ValueError("skips_enabled=False is a resnet-only option")
        if not self.stem_downsampling and not self.family.startswith("resnet"):
            raise ValueError("stem_downsampling=False is a resnet-only option")

    @property
    def display_name(self) -> str:
        name = self.family
        if self.dilation != 1:
            name += f"-dil{self.dilation}"
        if not self.skips_enabled:
            name += "-noskip"
        if not self.stem_downsampling:
            name += "-nostem"
        return name


class _GraphBuilder:
    def __init__(self) -> None:
        self.layers: list[tuple[str, LayerKind]] = []
        self.edges: list[tuple[str, str]] = []

    def add(self, node_id: str, kind: LayerKind, *preds: str) -> str:
        self.layers.append((node_id, kind))
        for pred in preds:
            self.edges.append((pred, node_id))
        return node_id

    def chain(self, prev: str, node_id: str, kind: LayerKind) -> str:
        return self.add(node_id, kind, prev)


def _attach_head(b: _GraphBuilder, prev: str, num_classes: int) -> None:
    prev = b.chain(prev, "gap", GlobalAvgPool())
    prev = b.chain(prev, "fc", Dense(units=num_classes, bias=True))
    b.chain(prev, "softmax", Softmax())


def _build_vgg(spec: ZooSpec) -> ArchGraph:
    b = _GraphBuilder()
    prev = b.add("input", Input())
    conv_n = 0
    for stage, (blocks, filters) in enumerate(zip(_VGG_PLANS[spec.family], _VGG_FILTERS), start=1):
        for _ in range(blocks):
            conv_n += 1
            prev = b.chain(
                prev,
                f"conv{conv_n}",
                Conv2d(kernel=3, filters=filters, stride=1, dilation=spec.dilation, padding="same", bias=True),
            )
            prev = b.chain(prev, f"relu{conv_n}", Activation("relu"))
        prev = b.chain(prev, f"pool{stage}", Pool(mode="max", kernel=2, stride=2, padding=0))
    _attach_head(b, prev, spec.num_classes)
    return make_graph(spec.display_name, spec.input, b.layers, b.edges)


def _conv_bn_relu(
    b: _GraphBuilder, prev: str, base: str, kernel: int, filters: int, stride: int = 1
) -> str:
    prev = b.chain(prev, f"{base}_conv", Conv2d(kernel=kernel, filters=filters, stride=stride, padding="same", bias=False))
    prev = b.chain(prev, f"{base}_bn", BatchNorm())
    return b.chain(prev, f"{base}_relu", Activation("relu"))


def _build_resnet(spec: ZooSpec) -> ArchGraph:
    b = _GraphBuilder()
    prev = b.add("input", Input())
    prev = _conv_bn_relu(b, prev, "stem", kernel=7, filters=64, stride=2 if spec.stem_downsampling else 1)
    if spec.stem_downsampling:
        prev = b.chain(prev, "stem_pool", Pool(mode="max", kernel=3, stride=2, padding=1))

    in_channels = 64
    for stage, (blocks, filters) in enumerate(zip(_RESNET_PLANS[spec.family], _RESNET_FILTERS), start=1):
        for block in range(1, blocks + 1):
            base = f"s{stage}b{block}"
            stride = 2 if stage > 1 and block == 1 else 1
            block_in = prev
            prev = b.chain(prev, f"{base}_conv1", Conv2d(kernel=3, filters=filters, stride=stride, padding="same", bias=False))
            prev = b.chain(prev, f"{base}_bn1", BatchNorm())
            prev = b.chain(prev, f"{base}_relu1", Activation("relu"))
            prev = b.chain(prev, f"{base}_conv2", Conv2d(kernel=3, filters=filters, stride=1, padding="same", bias=False))
            prev = b.chain(prev, f"{base}_bn2", BatchNorm())
            if spec.skips_enabled:
                if stride != 1 or in_channels != filters:
                    skip = b.chain(block_in, f"{base}_proj", Conv2d(kernel=1, filters=filters, stride=stride, padding="same", bias=False))
                    skip = b.chain(skip, f"{base}_proj_bn", BatchNorm())
                else:
                    skip = block_in
                prev = b.add(f"{base}_add", Add(), prev, skip)
            prev = b.chain(prev, f"{base}_relu2", Activation("relu"))
            in_channels = filters
    _attach_head(b, prev, spec.num_classes)
    return make_graph(spec.display_name, spec.input, b.layers, b.edges)


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


def _build_mpnet(spec: ZooSpec) -> ArchGraph:
    # Reconstruction of the multipath model organisms: four stages, each a
    # stride-2 max pool followed by the stage's blocks, filters doubling per
    # stage. mpnet18 uses two shallow blocks per stage; mpnet36 uses four
    # blocks whose wide path is two convolutions deep (a best-effort guess;
    # only mpnet18's borders are treated as ground truth).
    b = _GraphBuilder()
    prev = b.add("input", Input())
    blocks = _MPNET_BLOCKS[spec.family]
    deep = spec.family == "mpnet36"
    for stage, filters in enumerate(_MPNET_FILTERS, start=1):
        prev = b.chain(prev, f"s{stage}_pool", Pool(mode="max", kernel=2, stride=2, padding=0))
        for block in range(1, blocks + 1):
            prev = _mpnet_module(b, prev, f"s{stage}m{block}", filters, deep_wide_path=deep)
    _attach_head(b, prev, spec.num_classes)
    return make_graph(spec.display_name, spec.input, b.layers, b.edges)


def build(spec: ZooSpec) -> ArchGraph:
    """Construct the requested zoo architecture."""
    if spec.family.startswith("vgg"):
        return _build_vgg(spec)
    if spec.family.startswith("resnet"):
        return _build_resnet(spec)
    return _build_mpnet(spec)


_NAME_RE = re.compile(r"^(?P<family>[a-z0-9]+?)(?P<opts>(?:-(?:dil[0-9]+|noskip|nostem))*)$")


def parse_zoo_name(name: str) -> dict[str, object]:
    """Split a zoo shorthand like 'resnet18-noskip' or 'vgg19-dil3' into spec kwargs."""
    match = _NAME_RE.match(name)
    if not match or match.group("family") not in FAMILIES:
        raise ValueError(
            f"unknown zoo model {name!r}; families: {', '.join(FAMILIES)} "
            f"(options: -dilN, -noskip, -nostem)"
        )
    kwargs: dict[str, object] = {"family": match.group("family")}
    for opt in match.group("opts").split("-"):
        if not opt:
            continue
        if opt == "noskip":
            kwargs["skips_enabled"] = False
        elif opt == "nostem":
            kwargs["stem_downsampling"] = False
        else:
            kwargs["dilation"] = int(opt[3:])
    return kwargs


def build_named(name: str, input_spec: InputSpec | None = None, num_classes: int = 10) -> ArchGraph:
    """Build a zoo model from its shorthand name."""
    kwargs = parse_zoo_name(name)
    if input_spec is not None:
        kwargs["input"] = input_spec
    kwargs["num_classes"] = num_classes
    return build(ZooSpec(**kwargs))  # type: ignore[arg-type]
