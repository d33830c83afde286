"""Property-based and randomized-oracle tests for the receptive-field engine."""
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dagtools import (
    GLOBAL,
    ZOO_VARIANTS,
    chain_graph,
    classify_by_two_scans,
    effective_kernel,
    enumerate_paths,
    fold_along,
    layer_rf_transfer,
    path_enumeration_oracle,
    per_jump_extremes,
    random_graph,
)
from rfscope import (
    Activation,
    Attention,
    BatchNorm,
    Conv2d,
    GlobalAvgPool,
    InputSpec,
    Pool,
    RFState,
    build_named,
    classify,
    make_graph,
    propagate_dag,
    propagate_shapes,
    validate,
)
from rfscope.graph_ir import MERGE_KINDS, RF_NEUTRAL_KINDS

ORACLE_SEEDS = range(25)
PATH_SEEDS = range(30)


@given(st.integers(1, 32), st.integers(1, 8))
def test_effective_kernel_matches_tap_span(kernel, dilation):
    taps = [t * dilation for t in range(kernel)]
    assert effective_kernel(kernel, dilation) == taps[-1] - taps[0] + 1


@given(st.integers(1, 500), st.integers(1, 64), st.integers(1, 9), st.integers(1, 4), st.integers(1, 3))
def test_conv_transfer_identities(r, j, kernel, stride, dilation):
    state = RFState(r, j)
    out = layer_rf_transfer(state, Conv2d(kernel=kernel, stride=stride, dilation=dilation, filters=4))
    assert out.r - r == (effective_kernel(kernel, dilation) - 1) * j
    assert out.j == j * stride
    assert out.r >= r


@given(st.integers(1, 500), st.integers(1, 64), st.integers(1, 5), st.integers(1, 4))
def test_pool_transfer_identities(r, j, kernel, stride):
    out = layer_rf_transfer(RFState(r, j), Pool(mode="max", kernel=kernel, stride=stride))
    assert out.r - r == (kernel - 1) * j
    assert out.j == j * stride


@given(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 3)), min_size=1, max_size=16))
def test_sequential_fold_matches_reference(pairs):
    layers = [(f"c{i}", Conv2d(kernel=k, stride=s, filters=4)) for i, (k, s) in enumerate(pairs)]
    annotations = propagate_dag(chain_graph("chain", InputSpec(32, 32, 3), layers))
    r, j = 1, 1
    for (k, s), (nid, _) in zip(pairs, layers):
        r, j = r + (k - 1) * j, j * s
        assert annotations[nid].out_frontier == (RFState(r, j),)


def r_range(states):
    return min(s.r for s in states), max(s.r for s in states)


def assert_frontier_invariants(graph):
    """What propagate_dag relies on: at most two states per jump, ordered
    (j, r), the global state (inf, 0) first and only once, the extremes those
    of the frontier; merges fold their inputs' out-frontiers as
    `per_jump_extremes` does, RF-neutral layers pass the frontier through, and
    convs and pools map it state by state, as the path oracle's transfer does.
    Returns how many merges had inputs all at one jump, the global state's
    jump 0 included, and how many not."""
    annotations = propagate_dag(graph)
    one_jump = per_jump = 0
    for nid, ann in annotations.items():
        for frontier in (ann.in_frontier, ann.out_frontier):
            finite = [s for s in frontier if s.j]
            assert frontier[: len(frontier) - len(finite)] in ((), (GLOBAL,)), nid
            keys = [(s.j, s.r) for s in finite]
            assert keys == sorted(set(keys)), nid
            jumps = [s.j for s in finite]
            assert all(jumps.count(j) <= 2 for j in jumps), nid
        assert (ann.r_in_min, ann.r_in_max) == r_range(ann.in_frontier), nid
        assert (ann.r_out_min, ann.r_out_max) == r_range(ann.out_frontier), nid
        kind = graph.node_map[nid].kind
        if isinstance(kind, MERGE_KINDS):
            states = [s for pred in graph.predecessors[nid] for s in annotations[pred].out_frontier]
            assert ann.in_frontier == per_jump_extremes(states), nid
            if len({s.j for s in states}) == 1:
                one_jump += 1
            else:
                per_jump += 1
        if isinstance(kind, RF_NEUTRAL_KINDS):
            assert ann.out_frontier == ann.in_frontier, nid
        elif isinstance(kind, (Conv2d, Pool)):
            assert ann.out_frontier == tuple(layer_rf_transfer(s, kind) for s in ann.in_frontier), nid
    return one_jump, per_jump


def test_frontier_invariants_on_100_random_dags():
    counts = [assert_frontier_invariants(random_graph(seed)) for seed in range(100)]
    one_jump, per_jump = map(sum, zip(*counts))
    assert one_jump and per_jump  # merges of one jump, and of several jumps or a global state


@pytest.mark.parametrize("name", ZOO_VARIANTS)
def test_frontier_invariants_on_zoo(name):
    assert_frontier_invariants(build_named(name))


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_dag_matches_oracle(seed):
    graph = random_graph(seed)
    annotations = propagate_dag(graph)
    for nid, ann in annotations.items():
        assert (ann.r_in_min, ann.r_in_max) == path_enumeration_oracle(graph, nid, at="in")
        assert (ann.r_out_min, ann.r_out_max) == path_enumeration_oracle(graph, nid, at="out")


@pytest.mark.parametrize("seed", PATH_SEEDS)
def test_r_monotone_and_j_is_stride_product_along_paths(seed):
    graph = random_graph(seed)
    sink = graph.order[-1]
    for path in enumerate_paths(graph, sink):
        states = fold_along(graph, path)
        stride_product = 1
        prev_r = 1
        for nid, state in zip(path, states):
            kind = graph.node_map[nid].kind
            assert state.r >= prev_r
            grows = (isinstance(kind, Conv2d) and effective_kernel(kind.kernel, kind.dilation) > 1) or (
                isinstance(kind, Pool) and kind.kernel > 1
            )
            if grows:
                assert state.r > prev_r
            if isinstance(kind, (Conv2d, Pool)):
                stride_product *= kind.stride
            assert state.j == stride_product
            prev_r = state.r


@pytest.mark.parametrize("seed", PATH_SEEDS)
def test_frontier_members_are_path_witnessed(seed):
    graph = random_graph(seed)
    annotations = propagate_dag(graph)
    for nid, ann in annotations.items():
        in_states = set(fold_along(graph, path[:-1])[-1] if len(path) > 1 else RFState(1, 1)
                        for path in enumerate_paths(graph, nid))
        out_states = {fold_along(graph, path)[-1] for path in enumerate_paths(graph, nid)}
        assert set(ann.in_frontier) <= in_states
        assert set(ann.out_frontier) <= out_states


def assert_frontiers_match_paths(graph):
    """Each node's frontiers are the per-jump extremes of its path states,
    and its extremes the smallest and largest r over those paths."""
    annotations = propagate_dag(graph)
    for nid, ann in annotations.items():
        in_states = []
        out_states = []
        for path in enumerate_paths(graph, nid):
            states = [RFState(1, 1)] + fold_along(graph, path)
            in_states.append(states[-2])
            out_states.append(states[-1])
        assert ann.in_frontier == per_jump_extremes(in_states), nid
        assert ann.out_frontier == per_jump_extremes(out_states), nid
        assert (ann.r_in_min, ann.r_in_max) == r_range(in_states), nid
        assert (ann.r_out_min, ann.r_out_max) == r_range(out_states), nid


@settings(max_examples=60)
@given(st.integers(0, 10_000))
@example(9)  # a Pareto frontier of merge8 drops both states at jump 2
@example(24)  # a merge whose first input has one jump and whose last input has another
def test_frontiers_are_per_jump_path_extremes(seed):
    assert_frontiers_match_paths(random_graph(seed))


def insert_on_edge(graph, edge, node_id, kind):
    layers = [(n.id, n.kind) for n in graph.nodes]
    layers.insert(graph.order.index(edge[0]) + 1, (node_id, kind))
    edges = [e for e in graph.edges if e != edge] + [(edge[0], node_id), (node_id, edge[1])]
    return make_graph(graph.name, graph.input, layers, edges)


def neutral_kinds_for(channels):
    return [
        BatchNorm(),
        Activation("relu"),
        Attention("se"),
        Conv2d(kernel=1, stride=1, filters=channels, bias=False),
    ]


@pytest.mark.parametrize("graph_name", ["vgg11", "seed0", "seed3", "seed7"])
def test_neutral_insertion_leaves_conv_rf_unchanged(graph_name):
    if graph_name == "vgg11":
        graph = build_named("vgg11")
    else:
        graph = random_graph(int(graph_name[4:]), shape_safe=True)
    baseline = {c.node_id: (c.r_in_min, c.r_in_max) for c in classify(graph).per_conv}
    channels = {nid: c.out_channels for nid, c in propagate_shapes(graph).items()}
    for edge in graph.edges:
        for offset, kind in enumerate(neutral_kinds_for(channels[edge[0]])):
            probe = insert_on_edge(graph, edge, f"probe{offset}", kind)
            assert validate(probe) == []
            probed = {c.node_id: (c.r_in_min, c.r_in_max) for c in classify(probe).per_conv}
            for nid, values in baseline.items():
                assert probed[nid] == values, (edge, kind, nid)


def test_global_rf_extremes_are_infinite_past_head():
    graph = build_named("vgg11")
    annotations = propagate_dag(graph)
    assert annotations["gap"].r_out_min == math.inf
    assert annotations["fc"].r_in_min == math.inf
    assert annotations["softmax"].r_out_max == math.inf


@settings(max_examples=30)
@given(st.integers(0, 10_000))
def test_random_graphs_always_validate(seed):
    assert validate(random_graph(seed)) == []
    assert validate(random_graph(seed, shape_safe=True)) == []


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_global_branch_meets_finite_ones_at_a_merge(seed):
    # A global path into a merge must not hide the finite paths' jumps: the
    # finite j range of each frontier is what the CLI prints as j_min/j_max.
    # A graph without a merge gets the probe on its last edge.
    graph = random_graph(seed)
    merges = [nid for nid in graph.order if len(graph.predecessors[nid]) > 1]
    edge = (graph.predecessors[merges[0]][0], merges[0]) if merges else graph.edges[-1]
    assert_frontiers_match_paths(insert_on_edge(graph, edge, "gap_probe", GlobalAvgPool()))


def test_classify_borders_match_two_scans():
    """`classify` against the two-scan reference on 100 random DAGs at resolutions 1, 8, 32
    and one more size per seed, covering each way the two borders can fall."""
    cases = {"border_max first": 0, "no border": 0, "every conv unproductive": 0}
    for seed in range(100):
        graph = random_graph(seed)
        annotations = propagate_dag(graph)
        layers = [(n.id, n.kind) for n in graph.nodes]
        for resolution in (1, 8, 32, 5 * seed + 1):
            at = make_graph(graph.name, InputSpec(resolution, resolution, 3), layers, graph.edges)
            report = classify(at, annotations)
            assert report == classify_by_two_scans(at, annotations), (seed, resolution)
            if report.border_max is not None and (report.border_min is None or report.border_max < report.border_min):
                cases["border_max first"] += 1
            if report.border_min is None and report.border_max is None:
                cases["no border"] += 1
            if report.per_conv and len(report.unproductive_conv_ids) == len(report.per_conv):
                cases["every conv unproductive"] += 1
    assert all(cases.values()), cases


def assert_borders_step_at_every_breakpoint(graph):
    """A classified graph's `with_input` siblings at each distinct finite r_in_min and r_in_max
    value b, and at b + 1, classify as a graph of the same structure walked afresh at that size,
    name the unproductive convs that the two-scan reference finds, and share the graph's rows.
    The borders step only at those values, so these sizes cover every step; size 1 is added
    so a graph without a conv is checked too. Returns the reports for the caller's case count."""
    warm = classify(graph)
    values = {r for c in warm.per_conv for r in (c.r_in_min, c.r_in_max) if r != math.inf}
    layers = [(n.id, n.kind) for n in graph.nodes]
    reports = []
    for size in sorted({1} | values | {b + 1 for b in values}):
        spec = InputSpec(size, size, graph.input.channels)
        fresh = make_graph(graph.name, spec, layers, graph.edges)
        report, reference = classify(graph.with_input(spec)), classify_by_two_scans(fresh)
        assert report == reference == classify(fresh), (graph.name, size)
        assert report.unproductive_conv_ids == reference.unproductive_conv_ids, (graph.name, size)
        assert report.per_conv is warm.per_conv, (graph.name, size)
        reports.append(report)
    return reports


def border_cases(reports):
    """Which of the ways a border can fall the reports show."""
    return {
        "no conv": any(not r.per_conv for r in reports),
        "no conv crosses": any(r.per_conv and r.border_min is None and r.border_max is None for r in reports),
        "every conv crosses": any(r.per_conv and len(r.unproductive_conv_ids) == len(r.per_conv) for r in reports),
        "infinite fields": any(c.r_in_max == math.inf for r in reports for c in r.per_conv),
        "border_max first": any(r.border_max is not None and (r.border_min is None or r.border_max < r.border_min) for r in reports),
    }


@pytest.mark.parametrize("name", ZOO_VARIANTS)
def test_zoo_borders_step_at_every_breakpoint(name):
    assert_borders_step_at_every_breakpoint(build_named(name))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_random_borders_step_at_every_breakpoint(seed):
    assert_borders_step_at_every_breakpoint(random_graph(seed))


def test_breakpoints_cover_each_way_a_border_falls():
    """Hand-built chains and 40 random DAGs between them show every case of `border_cases`."""
    spec = InputSpec(32, 32, 3)
    graphs = [
        chain_graph("no-conv", spec, [("pool", Pool(mode="max", kernel=3, stride=2)), ("bn", BatchNorm())]),
        # Past a pool no conv sees a field of 1, so at size 1 every conv crosses.
        chain_graph("after-pool", spec, [("pool", Pool(mode="max", kernel=3, stride=2, padding=1))]
                    + [(f"c{i}", Conv2d(kernel=3, filters=4, padding=1)) for i in range(3)]),
        # A conv past a global pool has an infinite field and crosses at every size.
        chain_graph("past-gap", spec, [("a", Conv2d(kernel=3, filters=4)), ("b", Conv2d(kernel=5, filters=4)),
                                       ("gap", GlobalAvgPool()), ("c", Conv2d(kernel=1, filters=4))]),
    ]
    graphs += [random_graph(seed) for seed in range(40)]
    cases = border_cases([r for g in graphs for r in assert_borders_step_at_every_breakpoint(g)])
    assert all(cases.values()), cases
