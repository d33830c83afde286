"""Independent receptive-field references for the correctness gate.

Nothing here calls into rfscope's analysis code: graphs are read as plain
data (nodes, kinds, edges) and walked with this module's own algorithms.
Semantics follow the README: a layer with effective kernel k and stride s
maps (r, j) to (r + (k - 1) j, j s); global pooling and dense layers make the
receptive field global (infinite); other kinds pass the state through. A
conv is unproductive when the smallest receptive field entering it exceeds
max(height, width).

Two exact algorithms:

* ``enumerate_paths`` follows every input-to-node path with an explicit
  stack (no recursion, so deep chains are fine) and records the state
  entering each node. Its cost is the number of path prefixes, so it serves
  the zoo models and small generated graphs.
* ``jump_fold`` keeps, per node and per distinct jump, the smallest and
  largest r entering the node. The transfer is increasing in r at a fixed
  jump, so per-jump extremes fold exactly; it serves graphs with too many
  paths to enumerate, such as the outputs of the rewrite passes.
"""
from __future__ import annotations

import heapq
import math

INF = math.inf
# Path prefixes enumerate_paths may visit before it gives up.
PATH_BUDGET = 3_000_000


class PathBudgetError(RuntimeError):
    """Enumeration would visit more path prefixes than allowed."""


def _transfer(kind: object, r: float, j: int) -> tuple[float, int]:
    """One layer's transfer on a path state; r == inf marks a global state."""
    name = type(kind).__name__
    if r == INF:
        return INF, j
    if name == "Conv2d":
        span = kind.dilation * (kind.kernel - 1) + 1
        return r + (span - 1) * j, j * kind.stride
    if name == "Pool":
        return r + (kind.kernel - 1) * j, j * kind.stride
    if name in ("GlobalAvgPool", "Dense"):
        return INF, j
    return r, j


def topological_ids(graph) -> list[str]:
    """Kahn's algorithm, ties broken by the smaller declaration index."""
    index = {n.id: n.declaration_index for n in graph.nodes}
    indeg = {n.id: 0 for n in graph.nodes}
    succ: dict[str, list[str]] = {n.id: [] for n in graph.nodes}
    for a, b in graph.edges:
        indeg[b] += 1
        succ[a].append(b)
    heap = [(index[nid], nid) for nid, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, nid = heapq.heappop(heap)
        order.append(nid)
        for s in succ[nid]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(heap, (index[s], s))
    if len(order) != len(indeg):
        raise ValueError(f"{graph.name}: not acyclic")
    return order


def conv_order(graph) -> list[str]:
    kinds = {n.id: n.kind for n in graph.nodes}
    return [nid for nid in topological_ids(graph) if type(kinds[nid]).__name__ == "Conv2d"]


def downsampling_ids(graph) -> list[str]:
    """Convs and pools with stride > 1, in topological order."""
    kinds = {n.id: n.kind for n in graph.nodes}
    return [
        nid
        for nid in topological_ids(graph)
        if type(kinds[nid]).__name__ in ("Conv2d", "Pool") and kinds[nid].stride > 1
    ]


def enumerate_paths(graph) -> dict[str, tuple[float, float]]:
    """(r_in_min, r_in_max) per node over every input-to-node path."""
    kinds = {n.id: n.kind for n in graph.nodes}
    succ: dict[str, list[str]] = {n.id: [] for n in graph.nodes}
    has_pred = set()
    for a, b in graph.edges:
        succ[a].append(b)
        has_pred.add(b)
    (start,) = [n.id for n in graph.nodes if n.id not in has_pred]
    lo: dict[str, float] = {}
    hi: dict[str, float] = {}
    stack = [(start, 1, 1)]
    visits = 0
    while stack:
        nid, r, j = stack.pop()
        visits += 1
        if visits > PATH_BUDGET:
            raise PathBudgetError(f"{graph.name}: more than {PATH_BUDGET} path prefixes")
        if nid in lo:
            if r < lo[nid]:
                lo[nid] = r
            if r > hi[nid]:
                hi[nid] = r
        else:
            lo[nid] = hi[nid] = r
        r2, j2 = _transfer(kinds[nid], r, j)
        for s in succ[nid]:
            stack.append((s, r2, j2))
    return {nid: (lo[nid], hi[nid]) for nid in lo}


def jump_fold(graph) -> dict[str, tuple[float, float]]:
    """(r_in_min, r_in_max) per node from per-jump extremes."""
    kinds = {n.id: n.kind for n in graph.nodes}
    preds: dict[str, list[str]] = {n.id: [] for n in graph.nodes}
    for a, b in graph.edges:
        preds[b].append(a)
    out: dict[str, dict[int, tuple[float, float]]] = {}
    result = {}
    for nid in topological_ids(graph):
        incoming: dict[int, tuple[float, float]] = {}
        if not preds[nid]:
            incoming[1] = (1, 1)
        for p in preds[nid]:
            for j, (a, b) in out[p].items():
                if j in incoming:
                    ca, cb = incoming[j]
                    incoming[j] = (min(a, ca), max(b, cb))
                else:
                    incoming[j] = (a, b)
        result[nid] = (min(a for a, _ in incoming.values()), max(b for _, b in incoming.values()))
        leaving: dict[int, tuple[float, float]] = {}
        for j, (a, b) in incoming.items():
            ra, j2 = _transfer(kinds[nid], a, j)
            rb, _ = _transfer(kinds[nid], b, j)
            if j2 in leaving:
                ca, cb = leaving[j2]
                leaving[j2] = (min(ra, ca), max(rb, cb))
            else:
                leaving[j2] = (ra, rb)
        out[nid] = leaving
    return result


def border_summary(graph, ranges: dict[str, tuple[float, float]]) -> tuple:
    """(border_min, border_max, ((ordinal, id, r_in_min, r_in_max), ...)) at the graph's resolution."""
    resolution = max(graph.input.height, graph.input.width)
    rows = tuple((i, nid, *ranges[nid]) for i, nid in enumerate(conv_order(graph), start=1))
    bmin = next((row[0] for row in rows if row[2] > resolution), None)
    bmax = next((row[0] for row in rows if row[3] > resolution), None)
    return bmin, bmax, rows


def report_summary(report) -> tuple:
    """The same summary read from an rfscope BorderReport."""
    rows = tuple((c.ordinal, c.node_id, c.r_in_min, c.r_in_max) for c in report.per_conv)
    return report.border_min, report.border_max, rows
