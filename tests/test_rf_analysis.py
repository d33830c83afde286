import math

import pytest

from dagtools import enumerate_paths, path_enumeration_oracle, r_value
from rfscope import (
    Activation,
    Add,
    Attention,
    BatchNorm,
    Concat,
    Conv2d,
    Dense,
    FrontierLimitError,
    GlobalAvgPool,
    Input,
    InputSpec,
    Pool,
    RFState,
    build_named,
    chain_graph,
    effective_kernel,
    make_graph,
    propagate_dag,
)
from rfscope import rf_analysis
from rfscope.rf_analysis import GLOBAL_STATE, INITIAL_STATE

IN32 = InputSpec(32, 32, 3)


def fold_ks(pairs):
    """Independent reference fold over (kernel, stride) pairs: r += (k-1)*j, j *= s."""
    r, j = 1, 1
    states = []
    for k, s in pairs:
        r = r + (k - 1) * j
        j = j * s
        states.append((r, j))
    return states


# (kernel, stride) sequences of the plain-conv prefixes used below.
VGG16_PREFIX = [(3, 1), (3, 1), (2, 2), (3, 1), (3, 1), (2, 2), (3, 1), (3, 1), (3, 1), (2, 2), (3, 1)]
VGG11_PREFIX = [(3, 1), (2, 2), (3, 1), (2, 2), (3, 1), (3, 1), (2, 2), (3, 1), (3, 1)]


def conv(k, s=1, d=1, f=8):
    return Conv2d(kernel=k, stride=s, dilation=d, filters=f, bias=False)


def maxpool(k, s):
    return Pool(mode="max", kernel=k, stride=s)


def chain_states(kinds):
    """State leaving each layer of a plain chain over `kinds`, read from `propagate_dag`."""
    layers = [(f"l{i}", kind) for i, kind in enumerate(kinds)]
    annotations = propagate_dag(chain_graph("chain", IN32, layers))
    states = []
    for nid, _ in layers:
        (state,) = annotations[nid].out_frontier
        states.append(state)
    return states


class TestEffectiveKernel:
    def test_no_dilation(self):
        assert effective_kernel(3, 1) == 3

    def test_dilation_3_inflates_3x3_to_7x7(self):
        assert effective_kernel(3, 3) == 7

    def test_pointwise_is_dilation_invariant(self):
        assert effective_kernel(1, 5) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            effective_kernel(0, 1)
        with pytest.raises(ValueError):
            effective_kernel(3, 0)


def transfer(state, *kinds):
    """State leaving the last of `kinds` in a chain that hands the first one `state`, read from
    `propagate_dag`: a leading conv of kernel r and stride j maps the input's (1, 1) to (r, j)."""
    return chain_states([conv(state.r, s=state.j), *kinds])[-1]


class TestLayerTransfer:
    def test_first_3x3_conv(self):
        assert transfer(RFState(1, 1), conv(3)) == RFState(3, 1)

    def test_pool_grows_and_doubles_jump(self):
        assert transfer(RFState(5, 1), maxpool(2, 2)) == RFState(6, 2)

    def test_attention_is_neutral(self):
        assert transfer(RFState(11, 4), Attention("se")) == RFState(11, 4)

    @pytest.mark.parametrize("kind", [BatchNorm(), Activation("relu"), Add(), Input()])
    def test_identity_kinds(self, kind):
        if isinstance(kind, Input):
            # A graph's one Input node starts every path at (1, 1).
            assert propagate_dag(chain_graph("one", IN32, []))["input"].out_frontier == (INITIAL_STATE,)
        elif isinstance(kind, Add):
            # A merge of two neutral branches off the seed.
            layers = [("input", Input()), ("seed", conv(9, s=2)), ("a", BatchNorm()), ("b", BatchNorm()), ("x", kind)]
            edges = [("input", "seed"), ("seed", "a"), ("seed", "b"), ("a", "x"), ("b", "x")]
            assert propagate_dag(make_graph("merge", IN32, layers, edges))["x"].out_frontier == (RFState(9, 2),)
        else:
            assert transfer(RFState(9, 2), kind) == RFState(9, 2)

    def test_pointwise_conv_grows_nothing_but_strides(self):
        assert transfer(RFState(9, 2), conv(1, s=2)) == RFState(9, 4)

    def test_dilated_conv_uses_effective_kernel(self):
        assert transfer(RFState(1, 1), conv(3, d=3)) == RFState(7, 1)

    def test_global_marks_and_absorbs(self):
        g = transfer(RFState(9, 2), GlobalAvgPool())
        assert g.global_rf and r_value(g) == math.inf
        assert transfer(RFState(9, 2), GlobalAvgPool(), conv(3)) == GLOBAL_STATE
        assert transfer(RFState(9, 2), Dense(units=10)).global_rf


class TestPropagateSequential:
    """The recurrence folded along a plain chain, through `propagate_dag` on `chain_graph`."""

    def test_matches_reference_fold_on_vgg16_prefix(self):
        layers = [conv(k) if s == 1 else maxpool(k, s) for k, s in VGG16_PREFIX]
        got = chain_states(layers)
        assert [(s.r, s.j) for s in got] == fold_ks(VGG16_PREFIX)

    def test_vgg16_prefix_landmarks(self):
        # After the 7th conv r = 40; the pool after it hands conv8 an input of 44.
        states = fold_ks(VGG16_PREFIX)
        assert states[-3] == (40, 4)
        assert states[-2] == (44, 8)

    def test_vgg11_prefix_landmarks(self):
        states = fold_ks(VGG11_PREFIX)
        assert states[-3][0] == 30  # entering the 5th conv
        assert states[-2][0] == 46  # entering the 6th conv

    def test_single_pointwise_conv(self):
        assert chain_states([conv(1)]) == [RFState(1, 1)]


def two_path_diamond():
    layers = [
        ("input", Input()),
        ("k3", conv(3, f=4)),
        ("k7", conv(7, f=4)),
        ("add", Add()),
    ]
    edges = [("input", "k3"), ("input", "k7"), ("k3", "add"), ("k7", "add")]
    return make_graph("diamond", IN32, layers, edges)


def residual_block_graph():
    """Stem reaching state (11, 4), then an identity skip around two 3x3 convs."""
    layers = [
        ("input", Input()),
        ("stem", conv(7, s=2)),
        ("pool", Pool(mode="max", kernel=3, stride=2, padding=1)),
        ("c1", conv(3)),
        ("c2", conv(3)),
        ("add", Add()),
    ]
    edges = [("input", "stem"), ("stem", "pool"), ("pool", "c1"), ("c1", "c2"), ("c2", "add"), ("pool", "add")]
    return make_graph("resblock", IN32, layers, edges)


def with_tail(graph, kind):
    """`graph` with `kind` appended after its sink as node "x"."""
    layers = [(n.id, n.kind) for n in graph.nodes] + [("x", kind)]
    return make_graph(graph.name, graph.input, layers, [*graph.edges, (graph.sink_id, "x")])


def three_way_merge():
    """Branches at jumps 1, 1 and 2 into one add: its frontier holds two jumps."""
    layers = [("input", Input()), ("a", conv(3)), ("b", conv(7)), ("c", conv(3, s=2)), ("add", Add())]
    edges = [("input", "a"), ("input", "b"), ("input", "c"), ("a", "add"), ("b", "add"), ("c", "add")]
    return make_graph("three-way", IN32, layers, edges)


def one_jump_then_two_jumps():
    """A branch at (5, 2) added ahead of the three-way merge, whose frontier starts at jump 1."""
    graph = three_way_merge()
    layers = [(n.id, n.kind) for n in graph.nodes] + [("d", conv(5, s=2)), ("add2", Add())]
    edges = [*graph.edges, ("input", "d"), ("d", "add2"), ("add", "add2")]
    return make_graph("one-jump-then-two-jumps", IN32, layers, edges)


def global_and_finite_merge():
    """A global-pooling branch and a conv branch concatenated."""
    layers = [("input", Input()), ("a", conv(3, f=3)), ("gap", GlobalAvgPool()), ("cat", Concat())]
    edges = [("input", "a"), ("input", "gap"), ("a", "cat"), ("gap", "cat")]
    return make_graph("global-and-finite", IN32, layers, edges)


def merge_of(branches):
    """Each branch a chain of convs off the input, all merged by one Add named "add"."""
    layers, edges = [("input", Input())], []
    ends = []
    for b, convs in enumerate(branches):
        prev = "input"
        for i, layer in enumerate(convs):
            nid = f"b{b}c{i}"
            layers.append((nid, layer))
            edges.append((prev, nid))
            prev = nid
        ends.append(prev)
    layers.append(("add", Add()))
    edges += [(end, "add") for end in ends]
    return make_graph("merge", IN32, layers, edges)


def three_input_one_jump_add():
    """Inputs (5, 1), (1, 1) and a residual add holding (3, 1) and (9, 1): the min
    comes from the second input, the max from the last state of the third."""
    layers = [
        ("input", Input()), ("p", conv(3)), ("q", conv(9)), ("m", Add()),
        ("a", conv(5)), ("b", conv(1)), ("add", Add()),
    ]
    edges = [
        ("input", "p"), ("input", "q"), ("p", "m"), ("q", "m"),
        ("input", "a"), ("input", "b"), ("a", "add"), ("b", "add"), ("m", "add"),
    ]
    return make_graph("three-input-one-jump", IN32, layers, edges)


def one_jump_concat():
    """The residual block's add, (11, 4) and (27, 4), concatenated with a 7x7 conv off the pool at (35, 4)."""
    graph = residual_block_graph()
    layers = [(n.id, n.kind) for n in graph.nodes] + [("c3", conv(7)), ("cat", Concat())]
    edges = [*graph.edges, ("pool", "c3"), ("add", "cat"), ("c3", "cat")]
    return make_graph("one-jump-concat", IN32, layers, edges)


# name -> (graph, in-frontier of "x", out-frontier of "x"), worked by hand with r += (k_eff - 1) * j, j *= s.
MERGE_TAILS = {
    # The add holds r 11 (skip) and 27 (two 3x3 convs at j = 4); k_eff = 5 adds 4 * 4 = 16.
    "strided-dilated-conv-after-residual": (
        with_tail(residual_block_graph(), conv(3, s=2, d=2)),
        (RFState(11, 4), RFState(27, 4)), (RFState(27, 8), RFState(43, 8)),
    ),
    "pool-after-residual": (
        with_tail(residual_block_graph(), Pool(mode="max", kernel=3, stride=2, padding=1)),
        (RFState(11, 4), RFState(27, 4)), (RFState(19, 8), RFState(35, 8)),
    ),
    # Each jump shifts by its own 2 * j.
    "conv-after-two-jump-merge": (
        with_tail(three_way_merge(), conv(3, s=2)),
        (RFState(3, 1), RFState(7, 1), RFState(3, 2)), (RFState(5, 2), RFState(9, 2), RFState(7, 4)),
    ),
    # The first input holds jump 2 alone, the second jumps 1 and 2: no one-jump shortcut applies.
    "conv-after-one-jump-then-two-jump-inputs": (
        with_tail(one_jump_then_two_jumps(), conv(3)),
        (RFState(3, 1), RFState(7, 1), RFState(3, 2), RFState(5, 2)),
        (RFState(5, 1), RFState(9, 1), RFState(7, 2), RFState(9, 2)),
    ),
    "conv-after-global-and-finite-merge": (
        with_tail(global_and_finite_merge(), conv(3, f=3)),
        (RFState(3, 1), GLOBAL_STATE), (RFState(5, 1), GLOBAL_STATE),
    ),
    # One jump: the smallest r of all inputs and the largest, wherever each sits.
    "conv-after-three-input-one-jump-add": (
        with_tail(three_input_one_jump_add(), conv(3, s=2)),
        (RFState(1, 1), RFState(9, 1)), (RFState(3, 2), RFState(11, 2)),
    ),
    # A 5x5 conv and two 3x3 convs both reach (5, 1): one state.
    "conv-after-one-jump-add-of-equal-extremes": (
        with_tail(merge_of([[conv(5)], [conv(3), conv(3)]]), conv(3)),
        (RFState(5, 1),), (RFState(7, 1),),
    ),
    "pool-after-one-jump-concat": (
        with_tail(one_jump_concat(), maxpool(2, 2)),
        (RFState(11, 4), RFState(35, 4)), (RFState(15, 8), RFState(39, 8)),
    ),
    # The first input at jump 2, the second at jump 1: the per-jump fold keeps both jumps.
    "conv-after-merge-of-two-jumps": (
        with_tail(merge_of([[conv(3, s=2)], [conv(5)]]), conv(3)),
        (RFState(5, 1), RFState(3, 2)), (RFState(7, 1), RFState(7, 2)),
    ),
}


class TestPropagateDag:
    @pytest.mark.parametrize("name", MERGE_TAILS)
    def test_exact_frontiers_after_a_merge(self, name):
        graph, in_frontier, out_frontier = MERGE_TAILS[name]
        ann = propagate_dag(graph)["x"]
        assert (ann.in_frontier, ann.out_frontier) == (in_frontier, out_frontier)
        assert (ann.r_out_min, ann.r_out_max) == path_enumeration_oracle(graph, "x", at="out")


    def test_chain_frontiers_are_singletons(self):
        g = chain_graph("chain", IN32, [("c1", conv(3)), ("c2", conv(3, s=2)), ("p", maxpool(2, 2))])
        for ann in propagate_dag(g).values():
            assert len(ann.in_frontier) == 1 and len(ann.out_frontier) == 1
            assert ann.r_in_min == ann.r_in_max

    def test_diamond_merge_extremes(self):
        ann = propagate_dag(two_path_diamond())
        assert ann["add"].r_in_min == 3
        assert ann["add"].r_in_max == 7
        assert set(ann["add"].in_frontier) == {RFState(3, 1), RFState(7, 1)}

    def test_residual_block_min_sticks_max_grows(self):
        ann = propagate_dag(residual_block_graph())
        assert ann["pool"].out_frontier == (RFState(11, 4),)
        assert ann["c1"].r_out_max == 19
        assert ann["add"].r_in_min == 11
        assert ann["add"].r_in_max == 27

    def test_global_propagates_downstream(self):
        g = chain_graph("gap-mid", IN32, [("c1", conv(3)), ("gap", GlobalAvgPool()), ("c2", conv(3))])
        ann = propagate_dag(g)
        assert ann["c2"].r_in_min == math.inf
        assert ann["c2"].r_out_max == math.inf

    def test_frontier_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(rf_analysis, "FRONTIER_CAP", 1)
        with pytest.raises(FrontierLimitError) as err:
            propagate_dag(two_path_diamond())
        assert "add" in str(err.value)


class TestOracle:
    def test_chain_matches_sequential(self):
        layers = [("c1", conv(3)), ("p1", maxpool(2, 2)), ("c2", conv(5))]
        g = chain_graph("chain", IN32, layers)
        for (nid, _), state in zip(layers, chain_states([k for _, k in layers])):
            assert path_enumeration_oracle(g, nid, at="out") == (state.r, state.r)

    def test_diamond_extremes(self):
        assert path_enumeration_oracle(two_path_diamond(), "add", at="in") == (3, 7)
        assert path_enumeration_oracle(two_path_diamond(), "add", at="out") == (3, 7)

    def test_input_node(self):
        g = two_path_diamond()
        assert path_enumeration_oracle(g, "input", at="in") == (1, 1)

    def test_stacked_diamonds_match_dag(self):
        layers = [("input", Input())]
        edges = []
        prev = "input"
        for i in range(4):  # four stacked diamonds: 16 paths
            a, b, m = f"a{i}", f"b{i}", f"m{i}"
            layers += [(a, conv(3, f=3)), (b, conv(5, f=3)), (m, Add())]
            edges += [(prev, a), (prev, b), (a, m), (b, m)]
            prev = m
        g = make_graph("stack", IN32, layers, edges)
        assert len(enumerate_paths(g, "m3")) == 16
        ann = propagate_dag(g)["m3"]
        assert path_enumeration_oracle(g, "m3", at="in") == (ann.r_in_min, ann.r_in_max) == (9, 17)
        assert path_enumeration_oracle(g, "m3", at="out") == (ann.r_out_min, ann.r_out_max)

    def test_deep_chain_matches_dag(self):
        # 1,200 convs: a path far longer than Python's default recursion limit.
        layers = [(f"c{i}", conv(3)) for i in range(1, 1201)]
        g = chain_graph("deep", IN32, layers)
        ann = propagate_dag(g)["c1200"]
        assert path_enumeration_oracle(g, "c1200", at="in") == (ann.r_in_min, ann.r_in_max) == (2399, 2399)
        assert path_enumeration_oracle(g, "c1200", at="out") == (ann.r_out_min, ann.r_out_max) == (2401, 2401)
