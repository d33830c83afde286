"""Seeded random architecture DAGs, seeded mutations of zoo graphs, the
brute-force path oracle, a validation counter, the zoo variants and sweep
sizes that tests iterate over, and a runner for fresh interpreters.

Graphs are guaranteed valid by construction: convolutions preserve the
channel count of their predecessor, so element-wise merges always see equal
widths; diamonds never nest and each closes with a single merge node, so the
graph has one input, one sink, and at most two merge nodes.

Mutated zoo graphs are the opposite: edits of the edge list and layer list
that may or may not leave the graph valid.

The oracle folds the receptive-field transfer along every input-to-node path
one at a time, independently of the per-jump frontiers of `propagate_dag`.
"""
from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

from rfscope import (
    Activation,
    Add,
    ArchGraph,
    Attention,
    BatchNorm,
    Concat,
    Conv2d,
    Input,
    InputSpec,
    LayerKind,
    Pool,
    RFState,
    build_named,
    layer_rf_transfer,
    make_graph,
)
from rfscope import graph_ir

# Every zoo variant, and the input sizes of a 16-step resolution sweep.
ZOO_VARIANTS = (
    "vgg11", "vgg13", "vgg16", "vgg19", "vgg19-dil3",
    "resnet18", "resnet34", "resnet18-noskip", "resnet34-noskip", "resnet18-nostem", "resnet34-nostem",
    "mpnet18", "mpnet36",
)
SWEEP_SIZES = tuple(range(32, 513, 32))

KERNELS = (1, 3, 5, 7)
STRIDES = (1, 1, 2)


def _random_kind(rng: random.Random, channels: int, preserve_spatial: bool = False) -> tuple[str, LayerKind]:
    roll = rng.random()
    if roll < 0.55:
        return "conv", Conv2d(
            kernel=rng.choice(KERNELS),
            filters=channels,
            stride=1 if preserve_spatial else rng.choice(STRIDES),
            padding="same",
            bias=False,
        )
    if roll < 0.75:
        if preserve_spatial:
            # k3/s1/p1 is the only pool here that keeps height and width.
            return "pool", Pool(mode=rng.choice(("max", "avg")), kernel=3, stride=1, padding=1)
        return "pool", Pool(mode=rng.choice(("max", "avg")), kernel=rng.choice((2, 3)), stride=rng.choice((1, 2)), padding=1)
    if roll < 0.85:
        return "bn", BatchNorm()
    if roll < 0.95:
        return "act", Activation("relu")
    return "attn", Attention(rng.choice(("se", "spatial", "cbam")))


def random_graph(seed: int, max_layer_nodes: int = 12, shape_safe: bool = False) -> ArchGraph:
    """With `shape_safe`, diamond branches keep spatial dims so merges also
    pass shape propagation (needed when cost reports run on the graph)."""
    rng = random.Random(seed)
    counter = itertools.count(1)
    layers: list[tuple[str, LayerKind]] = [("input", Input())]
    edges: list[tuple[str, str]] = []

    def new_node(prefix: str, kind: LayerKind, *preds: str) -> str:
        nid = f"{prefix}{next(counter)}"
        layers.append((nid, kind))
        edges.extend((p, nid) for p in preds)
        return nid

    endpoint = "input"
    channels = 3
    remaining = rng.randint(3, max_layer_nodes)
    merges_left = rng.randint(0, 2)
    while remaining > 0:
        if merges_left > 0 and remaining >= 3 and rng.random() < 0.5:
            fork = endpoint
            len_a = rng.randint(1, min(2, remaining - 2))
            len_b = rng.randint(1, min(2, remaining - len_a - 1))
            side_a = fork
            for _ in range(len_a):
                prefix, kind = _random_kind(rng, channels, preserve_spatial=shape_safe)
                side_a = new_node(prefix, kind, side_a)
            side_b = fork
            for _ in range(len_b):
                prefix, kind = _random_kind(rng, channels, preserve_spatial=shape_safe)
                side_b = new_node(prefix, kind, side_b)
            merge_kind: LayerKind = Add() if rng.random() < 0.7 else Concat()
            endpoint = new_node("merge", merge_kind, side_a, side_b)
            if isinstance(merge_kind, Concat):
                channels *= 2
            remaining -= len_a + len_b + 1
            merges_left -= 1
        else:
            prefix, kind = _random_kind(rng, channels)
            endpoint = new_node(prefix, kind, endpoint)
            remaining -= 1
    return make_graph(f"random{seed}", InputSpec(32, 32, 3), layers, edges)


MUTATION_MODELS = ("vgg11", "resnet18", "mpnet18")


def mutated_graph(seed: int) -> ArchGraph:
    """A zoo graph after 0-3 seeded edits: an edge dropped, duplicated,
    reversed or added, or a layer dropped (spliced out, or left with dangling
    edges). The result is valid or not; nothing here checks which."""
    rng = random.Random(seed)
    graph = build_named(rng.choice(MUTATION_MODELS))
    layers = [(n.id, n.kind) for n in graph.nodes]
    edges = list(graph.edges)
    for _ in range(rng.randint(0, 3)):
        op = rng.choice(("drop_edge", "duplicate_edge", "reverse_edge", "add_edge", "drop_layer"))
        if op == "drop_edge" and edges:
            edges.pop(rng.randrange(len(edges)))
        elif op == "duplicate_edge" and edges:
            edges.insert(rng.randrange(len(edges) + 1), rng.choice(edges))
        elif op == "reverse_edge" and edges:
            i = rng.randrange(len(edges))
            edges[i] = edges[i][::-1]
        elif op == "add_edge" and len(layers) > 1:
            src, dst = rng.sample([nid for nid, _ in layers], 2)
            edges.append((src, dst))
        elif op == "drop_layer" and len(layers) > 1:
            nid = layers.pop(rng.randrange(len(layers)))[0]
            if rng.random() < 0.7:
                preds = [a for a, b in edges if b == nid]
                succs = [b for a, b in edges if a == nid]
                edges = [e for e in edges if nid not in e] + [(a, b) for a in preds for b in succs]
    return make_graph(f"{graph.name}-mut{seed}", graph.input, layers, edges)


def count_validations(monkeypatch) -> list[str]:
    """Names of the graphs validated from now on, through any rfscope binding of `validate`."""
    calls = []
    real = graph_ir.validate

    def counting(graph):
        calls.append(graph.name)
        return real(graph)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rfscope" and getattr(module, "validate", None) is real:
            monkeypatch.setattr(module, "validate", counting)
    return calls


def enumerate_paths(graph: ArchGraph, target: str) -> list[list[str]]:
    """Every input-to-`target` path as a list of node ids, walked with an explicit stack."""
    ancestors = {target}
    stack = [target]
    while stack:
        for pred in graph.predecessors[stack.pop()]:
            if pred not in ancestors:
                ancestors.add(pred)
                stack.append(pred)
    paths = []
    partial = [[graph.order[0]]]
    while partial:
        path = partial.pop()
        if path[-1] == target:
            paths.append(path)
            continue
        for succ in reversed(graph.successors[path[-1]]):
            if succ in ancestors:
                partial.append(path + [succ])
    return paths


def fold_along(graph: ArchGraph, path: list[str]) -> list[RFState]:
    """State after each node of `path`, folded from (r=1, j=1)."""
    states = []
    state = RFState(1, 1)
    for nid in path:
        state = layer_rf_transfer(state, graph.node_map[nid].kind)
        states.append(state)
    return states


def path_enumeration_oracle(graph: ArchGraph, node_id: str, at: str = "out") -> tuple[float, float]:
    """Exact (r_min, r_max) over every input-to-node path, entering the node (at="in") or leaving it."""
    values = []
    for path in enumerate_paths(graph, node_id):
        states = [RFState(1, 1)] + fold_along(graph, path)
        values.append((states[-2] if at == "in" else states[-1]).r_value)
    return min(values), max(values)


def run_fresh(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """`python *args` in a new interpreter that imports rfscope from this checkout's `src/`."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=60)
