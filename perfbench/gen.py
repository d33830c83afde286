"""Seeded synthetic architecture generator with closed-form expectations.

Every generated graph is a stem (7x7 stride-2 conv, 3x3 stride-2 max pool),
a sequence of blocks and a global-pool classifier head. Block kinds:

* ``res``   residual block: two 3x3 convs (the first may be strided or
  dilated) plus an identity skip, or a 1x1 projection skip when the block
  changes stride or width;
* ``multi`` multipath block: a 3x3 path and a wide path of two kxk convs
  (k in {5, 7}) merged by addition.

Every path into a node carries the same jump, because branches are
spatially aligned; so a node's exact receptive-field range over all paths
is the interval (lo, hi) of the path states, and each block maps that
interval in closed form:

* ``res``:   conv1 sees (lo, hi); conv2 sees (lo + (ke - 1) j, hi + (ke - 1) j);
  a 1x1 projection sees (lo, hi); the merge leaves
  (lo, hi + (ke - 1) j + 2 j s) at jump j s.
* ``multi``: the narrow conv and the first wide conv see (lo, hi), the
  second wide conv sees (lo + (k - 1) j, hi + (k - 1) j); the merge leaves
  (lo + 2 j, hi + 2 (k - 1) j).

The skip path of a residual block adds nothing to ``lo``, so a chain of
residual blocks never crosses a border on the min side; only ``multi``
blocks and the stem move it. Shapes and costs are tracked alongside, with
the conventions the README states (same padding, elementwise work counted).

Declaring nodes in a topological order makes the program's conv ordinals
equal to declaration order, so the expected ordinals need no graph walk.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from rfscope import (
    Activation,
    Add,
    BatchNorm,
    Conv2d,
    Dense,
    GlobalAvgPool,
    Input,
    InputSpec,
    Pool,
    Softmax,
    make_graph,
)


@dataclass(frozen=True)
class ExpectedConv:
    ordinal: int
    node_id: str
    r_in_min: int
    r_in_max: int


@dataclass(frozen=True)
class Generated:
    """A generated graph plus what the generator knows about it."""

    graph: object
    convs: tuple[ExpectedConv, ...]
    total_params: int
    total_macs: int
    stem_ids: tuple[str, str]

    def border(self, resolution: int) -> tuple[int | None, int | None]:
        bmin = next((c.ordinal for c in self.convs if c.r_in_min > resolution), None)
        bmax = next((c.ordinal for c in self.convs if c.r_in_max > resolution), None)
        return bmin, bmax


_CLASSES = 10


class _Builder:
    """Emits layers in topological order while tracking (lo, hi, j, size, channels)."""

    def __init__(self, size: int, channels: int) -> None:
        self.layers: list[tuple[str, object]] = [("input", Input())]
        self.edges: list[tuple[str, str]] = []
        self.convs: list[ExpectedConv] = []
        self.params = 0
        self.macs = 0
        # Per-node output state: (lo, hi, jump, spatial size, channels).
        self.state = {"input": (1, 1, 1, size, channels)}

    def _emit(self, nid: str, kind: object, preds: tuple[str, ...], out: tuple) -> str:
        self.layers.append((nid, kind))
        self.edges.extend((p, nid) for p in preds)
        self.state[nid] = out
        return nid

    def conv(self, nid: str, prev: str, k: int, filters: int, stride: int = 1, dilation: int = 1) -> str:
        lo, hi, j, size, c_in = self.state[prev]
        self.convs.append(ExpectedConv(len(self.convs) + 1, nid, lo, hi))
        ke = dilation * (k - 1) + 1
        out_size = math.ceil(size / stride)
        self.params += k * k * c_in * filters
        self.macs += k * k * c_in * filters * out_size * out_size
        kind = Conv2d(kernel=k, filters=filters, stride=stride, dilation=dilation, padding="same", bias=False)
        return self._emit(nid, kind, (prev,), (lo + (ke - 1) * j, hi + (ke - 1) * j, j * stride, out_size, filters))

    def bn(self, nid: str, prev: str) -> str:
        lo, hi, j, size, c = self.state[prev]
        self.params += 2 * c
        self.macs += size * size * c
        return self._emit(nid, BatchNorm(), (prev,), self.state[prev])

    def relu(self, nid: str, prev: str) -> str:
        lo, hi, j, size, c = self.state[prev]
        self.macs += size * size * c
        return self._emit(nid, Activation("relu"), (prev,), self.state[prev])

    def pool(self, nid: str, prev: str, k: int, stride: int, padding: int) -> str:
        lo, hi, j, size, c = self.state[prev]
        out_size = (size + 2 * padding - k) // stride + 1
        if out_size < 1:
            raise ValueError(f"pool {nid} would leave no output at size {size}")
        self.macs += k * k * out_size * out_size * c
        kind = Pool(mode="max", kernel=k, stride=stride, padding=padding)
        return self._emit(nid, kind, (prev,), (lo + (k - 1) * j, hi + (k - 1) * j, j * stride, out_size, c))

    def add(self, nid: str, a: str, b: str) -> str:
        la, ha, ja, sa, ca = self.state[a]
        lb, hb, jb, sb, cb = self.state[b]
        if (ja, sa, ca) != (jb, sb, cb):
            raise ValueError(f"merge {nid} joins misaligned branches")
        self.macs += sa * sa * ca
        return self._emit(nid, Add(), (a, b), (min(la, lb), max(ha, hb), ja, sa, ca))

    def head(self, prev: str) -> None:
        _, _, _, size, c = self.state[prev]
        self.macs += size * size * c
        self._emit("head_gap", GlobalAvgPool(), (prev,), None)
        self.params += c * _CLASSES + _CLASSES
        self.macs += c * _CLASSES
        self._emit("head_fc", Dense(units=_CLASSES, bias=True), ("head_gap",), None)
        self._emit("head_softmax", Softmax(), ("head_fc",), None)


def _res_block(b: _Builder, prev: str, base: str, filters: int, stride: int, dilation: int) -> str:
    c_in = b.state[prev][4]
    x = b.conv(f"{base}_c1", prev, 3, filters, stride, dilation)
    x = b.relu(f"{base}_r1", b.bn(f"{base}_b1", x))
    x = b.bn(f"{base}_b2", b.conv(f"{base}_c2", x, 3, filters))
    skip = prev
    if stride != 1 or c_in != filters:
        skip = b.bn(f"{base}_pb", b.conv(f"{base}_p", prev, 1, filters, stride))
    return b.relu(f"{base}_r2", b.add(f"{base}_add", x, skip))


def _multi_block(b: _Builder, prev: str, base: str, filters: int, wide_k: int) -> str:
    narrow = b.relu(f"{base}_nr", b.bn(f"{base}_nb", b.conv(f"{base}_n", prev, 3, filters)))
    wide = b.relu(f"{base}_war", b.bn(f"{base}_wab", b.conv(f"{base}_wa", prev, wide_k, filters)))
    wide = b.relu(f"{base}_wbr", b.bn(f"{base}_wbb", b.conv(f"{base}_wb", wide, wide_k, filters)))
    return b.add(f"{base}_add", narrow, wide)


_STEM_NODES = 5
_HEAD_NODES = 3


def _plan(rng: random.Random, target_nodes: int, stages: int, multi_share: float) -> list[list[tuple]]:
    """Block plan per stage: ('res', stride, dilation) or ('multi', wide_k).

    The share of multipath blocks is exact and only their order is random,
    so graphs of one size cost about the same to analyze whatever the seed.
    """
    budget = target_nodes - _STEM_NODES - _HEAD_NODES - 9 * (stages - 1)
    total = max(int(budget / (10 * multi_share + 7 * (1 - multi_share))), 1)
    n_multi = round(total * multi_share)
    blocks = [("multi", rng.choice((5, 7))) for _ in range(n_multi)]
    blocks += [("res", 1, rng.choice((1, 1, 2))) for _ in range(total - n_multi)]
    rng.shuffle(blocks)
    per_stage: list[list[tuple]] = [[("res", 2, 1)] if stage else [] for stage in range(stages)]
    for k, block in enumerate(blocks):
        per_stage[k % stages].append(block)
    return per_stage


def generate(seed: int, target_nodes: int, resolution: int, stages: int = 4, multi_share: float = 0.35) -> Generated:
    """A residual/multipath DAG of about `target_nodes` nodes at `resolution`."""
    rng = random.Random(seed)
    plan = _plan(rng, target_nodes, stages, multi_share)
    b = _Builder(resolution, 3)
    x = b.relu("stem_r", b.bn("stem_b", b.conv("stem_c", "input", 7, 16, 2)))
    x = b.pool("stem_pool", x, 3, 2, 1)
    widths = (16, 32, 48, 64, 80, 96)
    for stage, blocks in enumerate(plan):
        filters = widths[min(stage, len(widths) - 1)]
        for i, block in enumerate(blocks):
            base = f"s{stage}b{i}"
            if block[0] == "res":
                x = _res_block(b, x, base, filters, block[1], block[2])
            else:
                x = _multi_block(b, x, base, filters, block[1])
    b.head(x)
    graph = make_graph(
        f"gen{seed}-{target_nodes}",
        InputSpec(resolution, resolution, 3),
        b.layers,
        b.edges,
    )
    return Generated(graph, tuple(b.convs), b.params, b.macs, ("stem_c", "stem_pool"))


def generate_with_border(seed: int, target_nodes: int) -> Generated:
    """A generated graph whose input resolution puts border_min nearest the middle of its convs.

    The receptive-field ranges do not depend on the resolution, so the graph
    is generated once to read them and again at the chosen resolution. The
    border is the possible one closest to the middle, and never outside 40%
    to 60% of the convs, so rewrites of graphs of one size keep and remove
    about the same share of the graph whatever the seed.
    """
    probe = generate(seed, target_nodes, 64, stages=2, multi_share=0.5)
    n = len(probe.convs)
    # border_min at resolution R is the first conv whose running maximum of
    # r_in_min exceeds R; a conv where that maximum steps up is the border
    # for R = the maximum just before it.
    running = [0]
    for conv in probe.convs:
        running.append(max(running[-1], conv.r_in_min))
    steps = [i for i in range(int(0.4 * n) + 1, int(0.6 * n) + 1) if running[i] > running[i - 1]]
    if not steps:
        raise ValueError(f"seed {seed}: no mid-graph border among {n} convs")
    resolution = running[min(steps, key=lambda i: abs(i - n / 2)) - 1]
    final = generate(seed, target_nodes, resolution, stages=2, multi_share=0.5)
    bmin, _ = final.border(resolution)
    if bmin is None or not 0.4 * n <= bmin <= 0.6 * n:
        raise ValueError(f"seed {seed}: border {bmin} of {n} convs is not mid-graph")
    return final
