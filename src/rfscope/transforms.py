"""Graph-to-graph rewrite passes with before/after analysis deltas.

Both passes return a fresh graph plus a :class:`TransformDelta`; inputs are
never mutated. Tail truncation removes everything past the border and
installs a minimal classifier head; stem-downsampling removal neutralizes
early stride so receptive fields grow more slowly, trading compute for
later borders.
"""
from __future__ import annotations

from collections.abc import Container, Mapping, Sequence
from typing import NamedTuple

from .graph_ir import (
    HEAD_KINDS,
    MERGE_KINDS,
    ArchGraph,
    Conv2d,
    Dense,
    GlobalAvgPool,
    GraphValidationError,
    LayerKind,
    Pool,
    Softmax,
    make_graph,
)
from .rf_analysis import BorderReport, classify, unproductive_closure
from .shape_cost_model import CostReport, cost_report


class TransformError(RuntimeError):
    """A rewrite cannot be applied to this graph."""


class TransformDelta(NamedTuple):
    """Border and cost of a rewrite's input and output, with the node ids it removed or modified."""

    pass_name: str
    before_border: BorderReport
    before_cost: CostReport
    after_border: BorderReport
    after_cost: CostReport
    removed_node_ids: tuple[str, ...]
    modified_node_ids: tuple[str, ...]

    @property
    def changed(self) -> bool:
        return bool(self.removed_node_ids or self.modified_node_ids)

    @property
    def params_delta(self) -> int:
        return self.after_cost.total_params - self.before_cost.total_params

    @property
    def macs_delta(self) -> int:
        return self.after_cost.total_macs - self.before_cost.total_macs


class ComparisonReport(NamedTuple):
    """Side-by-side border and cost analysis of two graphs over the same input."""

    name_a: str
    name_b: str
    border_a: BorderReport
    border_b: BorderReport
    cost_a: CostReport
    cost_b: CostReport

    @property
    def params_delta(self) -> int:
        return self.cost_b.total_params - self.cost_a.total_params

    @property
    def macs_delta(self) -> int:
        return self.cost_b.total_macs - self.cost_a.total_macs

    @property
    def params_rel(self) -> float:
        return self.params_delta / self.cost_a.total_params if self.cost_a.total_params else 0.0

    @property
    def macs_rel(self) -> float:
        return self.macs_delta / self.cost_a.total_macs if self.cost_a.total_macs else 0.0


def _rebuild(
    graph: ArchGraph, name: str, keep: list[str], edges: list[tuple[str, str]], kinds: dict[str, LayerKind]
) -> ArchGraph:
    """The graph of nodes `keep`, declared in that order, with `kinds` and `edges`."""
    rebuilt = make_graph(name, graph.input, [(nid, kinds[nid]) for nid in keep], edges)
    try:
        rebuilt.order  # the rebuilt graph's one validation, cached for the analyses that follow
    except GraphValidationError as exc:
        raise TransformError(
            "rewritten graph failed validation: " + "; ".join(str(v) for v in exc.violations)
        ) from None
    return rebuilt


def _fresh_id(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    n = 2
    while f"{base}{n}" in taken:
        n += 1
    return f"{base}{n}"


def _old_head_chain(graph: ArchGraph) -> list[str]:
    """Trailing classifier chain: walk back from the sink over head kinds."""
    chain: list[str] = []
    nid = graph.order[-1]  # the one sink, the last declared node
    while isinstance(graph.node_map[nid].kind, HEAD_KINDS):
        chain.append(nid)
        nid = graph.predecessors[nid][0]  # head kinds are unary
    return chain


def _upstream(nid: str, dropped: Container[str], preds: Mapping[str, Sequence[str]]) -> str:
    """The first node not in `dropped` on the chain of first predecessors from `nid`."""
    while nid in dropped:
        nid = preds[nid][0]
    return nid


def truncate_at_border(graph: ArchGraph, num_classes: int) -> tuple[ArchGraph, TransformDelta]:
    """Replace everything past the border with a global-pool classifier head.

    Nodes all of whose input paths cross unproductive territory are removed
    together with the old head; a fresh GlobalAvgPool -> Dense -> Softmax
    head is attached to the last remaining node. A merge whose inputs come
    from one node, once the merges before it collapse, collapses to a
    pass-through, and side branches left without a consumer are pruned as
    dead code. Without a border the pass is a no-op and returns the input
    graph unchanged.
    """
    if isinstance(num_classes, bool) or not isinstance(num_classes, int) or num_classes < 2:
        raise ValueError(f"num_classes must be an integer >= 2, got {num_classes!r}")
    border, cost = classify(graph), cost_report(graph)
    if border.border_min is None:
        return graph, TransformDelta("truncate", border, cost, border, cost, (), ())

    removed = set(unproductive_closure(graph, border))
    removed.update(_old_head_chain(graph))

    keep = [n.id for n in graph.nodes if n.id not in removed]
    kinds: dict[str, LayerKind] = {nid: graph.node_map[nid].kind for nid in keep}
    live = [(a, b) for a, b in graph.edges if a not in removed and b not in removed]
    preds_of: dict[str, list[str]] = {nid: [] for nid in keep}
    for a, b in live:
        preds_of[b].append(a)

    # A merge whose inputs, read through the merges collapsed before it, come
    # from one node, its source, becomes an identity pass-through. Each collapsed
    # merge lists the targets of its surviving out-edges. Those edges are
    # re-sourced at its source and follow the other surviving edges, grouped by
    # merge in declaration order.
    source: dict[str, str] = {}
    for nid in keep:
        if isinstance(kinds[nid], MERGE_KINDS):
            inputs = {source.get(p, p) for p in preds_of[nid]}
            if len(inputs) == 1:
                source[nid] = inputs.pop()
    collapsed: dict[str, list[str]] = {nid: [] for nid in source}
    edges: list[tuple[str, str]] = []
    for a, b in live:
        if b in collapsed:
            continue
        if a in collapsed:
            collapsed[a].append(b)
        else:
            edges.append((a, b))
    for nid, targets in collapsed.items():
        edges += [(source[nid], b) for b in targets]
    edges = list(dict.fromkeys(edges))

    # Attach the head to the last node that survives the collapse. The Input always
    # survives (it is no conv, head kind or merge) and kept edges point forward in
    # declaration order, so that node is a dead end. Every node with no path to it,
    # such as a side branch left without a consumer, is pruned. A backward sweep
    # over `keep` meets each node after all of its successors, and a path through
    # a collapsed merge is a path of the rewired graph.
    tail_end = next(nid for nid in reversed(keep) if nid not in collapsed)
    ancestors = {tail_end}
    for nid in reversed(keep):
        if nid in ancestors:
            ancestors.update(preds_of[nid])
    removed.update(nid for nid in keep if nid in collapsed or nid not in ancestors)
    keep = [nid for nid in keep if nid not in removed]
    edges = [e for e in edges if e[1] in ancestors]

    taken = set(keep)
    gap_id = _fresh_id("head_gap", taken)
    fc_id = _fresh_id("head_fc", taken)
    softmax_id = _fresh_id("head_softmax", taken)
    kinds.update({gap_id: GlobalAvgPool(), fc_id: Dense(units=num_classes, bias=True), softmax_id: Softmax()})
    edges += [(tail_end, gap_id), (gap_id, fc_id), (fc_id, softmax_id)]

    after = _rebuild(graph, f"{graph.name}-truncated", keep + [gap_id, fc_id, softmax_id], edges, kinds)
    after_border, after_cost = classify(after), cost_report(after)
    return after, TransformDelta("truncate", border, cost, after_border, after_cost, tuple(sorted(removed)), ())


def _refuse_split_merge(graph: ArchGraph, chosen: list[str], kept: list[str]) -> None:
    """Refuse to neutralize a strided layer while a parallel one into the same merge keeps its stride.

    A residual block's strided conv and its strided projection shortcut, for
    example, must lose their strides together, or their add would join
    feature maps of different sizes. Each node keeps a bitmask of the chosen
    layers upstream, and the fewest chosen layers upstream of a kept layer
    upstream (all of them when there is none). A kept layer upstream lacks
    one of the node's chosen layers exactly when that fewest is the lower.
    """
    bits = {d: 1 << i for i, d in enumerate(chosen)}
    kept_set, chosen_up, fewest = set(kept), {}, {}
    for nid in graph.order:
        preds = graph.predecessors[nid]
        mask, least = bits.get(nid, 0), len(chosen)
        for p in preds:
            mask, least = mask | chosen_up[p], min(least, fewest[p])
        count = mask.bit_count()
        least = min(least, count) if nid in kept_set else least
        if least < count:  # only a merge joins paths, and targets are in topological order
            ancestors = set(preds)
            for a in reversed(graph.order):
                if a in ancestors:
                    ancestors.update(graph.predecessors[a])
            d, p = next(
                (d, p) for i, d in enumerate(chosen) if mask >> i & 1
                for p in kept if p in ancestors and not chosen_up[p] >> i & 1
            )
            raise TransformError(
                f"neutralizing {d!r} but not the parallel strided layer {p!r} would leave "
                f"merge {nid!r} joining feature maps of different sizes; choose a count that covers both"
            )
        chosen_up[nid], fewest[nid] = mask, least


def remove_stem_downsampling(graph: ArchGraph, count: int) -> tuple[ArchGraph, TransformDelta]:
    """Neutralize the first `count` downsampling layers in topological order.

    Strided convolutions keep their weights and drop to stride 1; strided
    pools are removed outright and their edges spliced through. Every jump
    downstream of all neutralized layers shrinks by the product of the
    neutralized strides, so receptive fields grow more slowly and feature
    maps (hence MACs) grow larger. Raises :class:`TransformError` when the
    first `count` would split parallel strided layers that feed one merge.
    """
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    targets = [  # the stride-carrying layers in topological order; `order` validates first
        nid for nid, node in zip(graph.order, graph.nodes)
        if isinstance(node.kind, (Conv2d, Pool)) and node.kind.stride > 1
    ]
    if len(targets) < count:
        raise TransformError(
            f"graph has only {len(targets)} downsampling layers, cannot neutralize {count}"
        )
    chosen = targets[:count]
    _refuse_split_merge(graph, chosen, targets[count:])
    border, cost = classify(graph), cost_report(graph)

    modified: list[str] = []
    removed: list[str] = []
    kinds: dict[str, LayerKind] = {n.id: n.kind for n in graph.nodes}
    for nid in chosen:
        kind = kinds[nid]
        if isinstance(kind, Conv2d):
            kinds[nid] = kind._replace(stride=1)
            modified.append(nid)
        else:
            removed.append(nid)

    dropped = set(removed)
    keep = [n.id for n in graph.nodes if n.id not in dropped]
    edges = [(_upstream(a, dropped, graph.predecessors), b) for a, b in graph.edges if b not in dropped]
    after = _rebuild(graph, f"{graph.name}-nostem", keep, edges, kinds)
    after_border, after_cost = classify(after), cost_report(after)
    return after, TransformDelta(
        f"remove-stem-downsampling:{count}", border, cost, after_border, after_cost, tuple(removed), tuple(modified)
    )


def compare(graph_a: ArchGraph, graph_b: ArchGraph) -> ComparisonReport:
    """Side-by-side analysis of two graphs; both must consume the same input."""
    for graph in (graph_a, graph_b):
        graph.order  # raises GraphValidationError unless the graph is valid
    if graph_a.input != graph_b.input:
        raise ValueError(
            f"input specs differ: {graph_a.input} vs {graph_b.input}; comparison would be meaningless"
        )
    border_a, cost_a = classify(graph_a), cost_report(graph_a)
    border_b, cost_b = classify(graph_b), cost_report(graph_b)
    return ComparisonReport(
        name_a=graph_a.name,
        name_b=graph_b.name,
        border_a=border_a,
        border_b=border_b,
        cost_a=cost_a,
        cost_b=cost_b,
    )
