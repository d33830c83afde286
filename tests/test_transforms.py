import cProfile
import pstats
from pathlib import Path

import pytest

from dagtools import SWEEP_SIZES, ZOO_VARIANTS, mutated_graph, random_graph, truncate_by_heap_drain
from rfscope import (
    Activation,
    Add,
    Conv2d,
    Dense,
    FrontierLimitError,
    GlobalAvgPool,
    Input,
    InputSpec,
    Pool,
    ShapeError,
    Softmax,
    TransformError,
    analyze,
    build_named,
    chain_graph,
    classify,
    compare,
    make_graph,
    propagate_dag,
    propagate_shapes,
    remove_stem_downsampling,
    truncate_at_border,
    validate,
)
from rfscope import rf_analysis
from rfscope.cli import main

IN32 = InputSpec(32, 32, 3)


def _shapes_propagate(graph):
    if validate(graph):
        return False
    try:
        propagate_shapes(graph)
    except ShapeError:
        return False
    return True


def _interleaved_collapse():
    """At 8x8, u1-u3 are unproductive, so merges m1, m2 and m3 each keep one input.

    The out-edges of m1 and m2 interleave in the edge list, m1 feeds m3, and
    m3's edge into `join` re-sources to a copy of the kept edge (b, join).
    """

    def conv(kernel):
        return Conv2d(kernel=kernel, filters=4, bias=False)

    layers = [("input", Input()), ("a", conv(1)), ("b", conv(1)), ("big", conv(9))]
    layers += [(f"u{i}", conv(1)) for i in (1, 2, 3)]
    layers += [("m1", Add()), ("m2", Add()), ("m3", Add())]
    layers += [(nid, Activation("relu")) for nid in "pqrst"]
    layers += [("join", Add()), ("gap", GlobalAvgPool()), ("fc", Dense(units=10)), ("softmax", Softmax())]
    edges = [
        ("input", "a"), ("a", "b"), ("b", "big"), ("big", "u1"), ("big", "u2"), ("big", "u3"),
        ("b", "m1"), ("u1", "m1"), ("b", "m2"), ("u2", "m2"), ("m1", "m3"), ("u3", "m3"),
        ("m2", "p"), ("m1", "q"), ("m2", "r"), ("m1", "s"), ("m3", "t"),
        ("b", "join"), ("p", "join"), ("q", "join"), ("r", "join"), ("s", "join"), ("t", "join"), ("m3", "join"),
        ("join", "gap"), ("gap", "fc"), ("fc", "softmax"),
    ]
    return make_graph("interleaved-collapse", InputSpec(8, 8, 3), layers, edges)


class TestTruncateAtBorder:
    def test_vgg16_tail_replaced_by_classifier(self):
        g = build_named("vgg16")
        after, delta = truncate_at_border(g, num_classes=10)
        assert validate(after) == []
        removed = set(delta.removed_node_ids)
        assert {f"conv{t}" for t in range(8, 14)} <= removed
        assert {"pool4", "pool5", "gap", "fc", "softmax"} <= removed
        assert "pool3" not in removed  # sits before conv8's input
        # Fresh head hangs off the last productive trunk node.
        assert isinstance(after.node_map["head_gap"].kind, GlobalAvgPool)
        assert after.node_map["head_fc"].kind == Dense(units=10, bias=True)
        assert isinstance(after.node_map[after.sink_id].kind, Softmax)
        assert after.predecessors["head_gap"] == ("pool3",)
        # conv7 carries 256 filters, so the new dense layer sees 256 features.
        fc_cost = next(c for c in delta.after_cost.per_layer if c.node_id == "head_fc")
        assert fc_cost.params == 256 * 10 + 10
        assert delta.after_border.border_min is None
        assert delta.params_delta < -10_000_000

    def test_no_border_is_a_noop(self):
        g = build_named("vgg16", input_spec=InputSpec(512, 512, 3))
        after, delta = truncate_at_border(g, num_classes=10)
        assert after == g
        assert not delta.changed
        assert delta.removed_node_ids == () and delta.modified_node_ids == ()

    def test_noskip_resnet_truncates_at_conv5(self):
        g = build_named("resnet18-noskip")
        before = classify(g)
        assert before.border_min == 5
        after, delta = truncate_at_border(g, num_classes=10)
        assert validate(after) == []
        assert delta.after_border.border_min is None
        assert all(c.classification == "productive" for c in delta.after_border.per_conv)

    def test_multipath_truncation_collapses_severed_merges(self):
        g = build_named("mpnet18")
        after, delta = truncate_at_border(g, num_classes=10)
        assert validate(after) == []
        # Convs 1..10 survive (stage 3 module 1 is the last productive module).
        assert len(delta.after_border.per_conv) == 10
        assert delta.after_border.border_min is None
        assert "s3m2_add" in delta.removed_node_ids

    def test_idempotence(self):
        g = build_named("vgg16")
        once, delta1 = truncate_at_border(g, num_classes=10)
        twice, delta2 = truncate_at_border(once, num_classes=10)
        assert twice == once
        assert not delta2.changed

    def test_never_increases_macs(self):
        for name in ("vgg11", "vgg16", "resnet18-noskip", "mpnet18", "mpnet36"):
            _, delta = truncate_at_border(build_named(name), num_classes=10)
            assert delta.macs_delta <= 0, name

    def test_rejects_bad_class_count(self):
        with pytest.raises(ValueError):
            truncate_at_border(build_named("vgg16"), num_classes=1)

    @pytest.mark.parametrize("family", ["zoo", "random", "mutated", "interleaved"])
    def test_matches_the_heap_drain_oracle(self, family):
        if family == "zoo":
            graphs = [build_named(name, input_spec=InputSpec(s, s, 3)) for name in ZOO_VARIANTS for s in SWEEP_SIZES]
        elif family == "random":
            graphs = [
                random_graph(seed, shape_safe=True).with_input(InputSpec(s, s, 3))
                for seed in range(100) for s in (8, 16, 32, 64, 128)
            ]
        elif family == "mutated":
            graphs = [g for g in map(mutated_graph, range(2000)) if _shapes_propagate(g)]
        else:
            graphs = [_interleaved_collapse()]
        truncated = 0
        for g in graphs:
            after, delta = truncate_at_border(g, num_classes=10)
            expected = truncate_by_heap_drain(g, num_classes=10)
            if expected is None:
                assert after is g and not delta.changed
                continue
            truncated += 1
            got = ([n.id for n in after.nodes], list(after.edges), delta.removed_node_ids)
            assert got == expected, (g.name, g.input)
        assert truncated

    def test_border_at_last_conv_keeps_prefix(self):
        g = chain_graph(
            "short",
            InputSpec(4, 4, 3),
            [("c1", Conv2d(kernel=5, filters=8, bias=False)), ("c2", Conv2d(kernel=5, filters=8, bias=False))],
        )
        assert classify(g).border_min == 2
        after, delta = truncate_at_border(g, num_classes=2)
        assert set(delta.removed_node_ids) == {"c2"}
        assert after.predecessors["head_gap"] == ("c1",)


class TestRemoveStemDownsampling:
    def test_resnet18_stem(self):
        g = build_named("resnet18")
        after, delta = remove_stem_downsampling(g, 2)
        assert validate(after) == []
        assert delta.modified_node_ids == ("stem_conv",)
        assert delta.removed_node_ids == ("stem_pool",)
        assert after.node_map["stem_conv"].kind.stride == 1
        assert "stem_pool" not in after.node_map
        # Pool's consumer is rewired to the pool's predecessor.
        assert after.predecessors["s1b1_conv1"] == ("stem_relu",)

    def test_jump_divided_by_exactly_four(self):
        g = build_named("resnet18")
        after, _ = remove_stem_downsampling(g, 2)
        before_ann = propagate_dag(g)
        after_ann = propagate_dag(after)
        for nid in after.node_map:
            if nid == "stem_pool" or nid not in before_ann:
                continue
            before_js = sorted(s.j for s in before_ann[nid].out_frontier if not s.global_rf)
            after_js = sorted(s.j for s in after_ann[nid].out_frontier if not s.global_rf)
            if nid in ("input", "stem_conv", "stem_bn", "stem_relu"):
                continue  # between the two neutralized layers the factor is 2, not 4
            assert before_js == [j * 4 for j in after_js], nid

    def test_receptive_fields_strictly_shrink_downstream(self):
        g = build_named("resnet18")
        after, _ = remove_stem_downsampling(g, 2)
        before = {c.node_id: c for c in classify(g).per_conv}
        after_rows = {c.node_id: c for c in classify(after).per_conv}
        for nid, row in after_rows.items():
            if nid == "stem_conv":
                assert row.r_in_min == before[nid].r_in_min  # upstream of any change
            else:
                assert row.r_in_min < before[nid].r_in_min, nid
                assert row.r_in_max < before[nid].r_in_max, nid

    def test_border_moves_later_or_vanishes(self):
        for name in ("resnet18", "resnet34"):
            g = build_named(name)
            _, delta = remove_stem_downsampling(g, 2)
            b_before = delta.before_border.border_min
            b_after = delta.after_border.border_min
            assert b_after is None or b_after >= b_before

    def test_never_decreases_macs(self):
        for name in ("resnet18", "resnet34", "vgg16"):
            _, delta = remove_stem_downsampling(build_named(name), 2)
            assert delta.macs_delta >= 0, name

    def test_single_strided_conv_chain(self):
        g = chain_graph(
            "strided",
            IN32,
            [("c1", Conv2d(kernel=3, filters=8, stride=2, bias=False)), ("c2", Conv2d(kernel=3, filters=8, bias=False))],
        )
        after, delta = remove_stem_downsampling(g, 1)
        assert delta.modified_node_ids == ("c1",)
        assert after.node_map["c1"].kind.stride == 1
        before_ann, after_ann = propagate_dag(g), propagate_dag(after)
        assert before_ann["c2"].out_frontier[0].j == 2 * after_ann["c2"].out_frontier[0].j

    def test_requires_enough_downsampling_layers(self):
        g = chain_graph("flat", IN32, [("c1", Conv2d(kernel=3, filters=8, bias=False))])
        with pytest.raises(TransformError):
            remove_stem_downsampling(g, 1)
        with pytest.raises(ValueError):
            remove_stem_downsampling(build_named("resnet18"), 0)

    def test_first_count_in_topological_order(self):
        g = build_named("vgg16")
        _, delta = remove_stem_downsampling(g, 2)
        assert delta.removed_node_ids == ("pool1", "pool2")

    @pytest.mark.parametrize("name", ["resnet18-nostem", "resnet34-nostem"])
    def test_refuses_to_split_parallel_strided_layers(self, name):
        # The first block's strided conv and its strided projection shortcut
        # feed one add: neutralizing only the conv would join 32x32 and 16x16 maps.
        g = build_named(name)
        with pytest.raises(TransformError, match="'s2b1_conv1' but not .* 's2b1_proj' .* merge 's2b1_add'"):
            remove_stem_downsampling(g, 1)
        after, delta = remove_stem_downsampling(g, 2)
        assert delta.modified_node_ids == ("s2b1_conv1", "s2b1_proj")
        assert after.node_map["s2b1_proj"].kind.stride == 1

    @pytest.mark.parametrize("name", ZOO_VARIANTS)
    def test_truncate_after_stem_removal_leaves_no_unproductive_conv(self, name):
        for size in SWEEP_SIZES:
            g = build_named(name, input_spec=InputSpec(size, size, 3))
            for count in (0, 1, 2):
                if name.endswith("-nostem") and count == 1:
                    with pytest.raises(TransformError, match="parallel strided layer 's2b1_proj'"):
                        remove_stem_downsampling(g, count)
                    continue
                rewritten = remove_stem_downsampling(g, count)[0] if count else g
                truncated, _ = truncate_at_border(rewritten, num_classes=10)
                assert classify(truncated).unproductive_conv_ids == (), (size, count)


class TestCompare:
    def test_self_comparison_is_zero(self):
        g = build_named("vgg11")
        report = compare(g, g)
        assert report.params_delta == 0 and report.macs_delta == 0
        assert report.border_a == report.border_b

    def test_truncation_comparison(self):
        g = build_named("vgg16")
        after, _ = truncate_at_border(g, num_classes=10)
        report = compare(g, after)
        assert report.params_delta < 0
        assert report.border_a.border_min == 8
        assert report.border_b.border_min is None

    def test_stem_removal_comparison(self):
        g = build_named("resnet18")
        after, _ = remove_stem_downsampling(g, 2)
        report = compare(g, after)
        assert report.macs_delta > 0
        assert report.macs_rel > 10  # roughly fifteen-fold

    def test_mismatched_inputs_rejected(self):
        g32 = build_named("vgg11")
        g64 = g32.with_input(InputSpec(64, 64, 3))
        with pytest.raises(ValueError):
            compare(g32, g64)


# The walks an analysis is assembled from: the check, the RF pass, the border rule, the shape and cost walk.
WALKS = ("validate", "propagate_dag", "classify", "_walk")


def walk_counts(run):
    """How often `run()` calls each of rfscope's `WALKS`, as cProfile counts them."""
    profile = cProfile.Profile()
    profile.runcall(run)
    counts = dict.fromkeys(WALKS, 0)
    for (filename, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items():
        if name in counts and Path(filename).parent.name == "rfscope":
            counts[name] += calls
    return counts


def diamond(name, pad7):
    """Input into a 3x3 and a 7x7 conv that meet at an add: the add's frontier holds two states.

    With `pad7` False the 7x7 conv shrinks its map, so the add also breaks shape propagation.
    """
    layers = [
        ("input", Input()),
        ("k3", Conv2d(kernel=3, filters=4, padding=1)),
        ("k7", Conv2d(kernel=7, filters=4, padding=3 if pad7 else 0)),
        ("add", Add()),
    ]
    edges = [("input", "k3"), ("input", "k7"), ("k3", "add"), ("k7", "add")]
    return make_graph(name, IN32, layers, edges)


class TestOneAnalysis:
    @pytest.mark.parametrize("name", ZOO_VARIANTS)
    def test_delta_reports_are_the_analyses_of_input_and_output(self, name):
        passes = [lambda g: truncate_at_border(g, 10)]
        passes += [lambda g, count=count: remove_stem_downsampling(g, count) for count in (1, 2)]
        for size in SWEEP_SIZES:
            g = build_named(name, input_spec=InputSpec(size, size, 3))
            for run in passes:
                try:
                    after, delta = run(g)
                except TransformError:
                    continue
                assert (delta.before_border, delta.before_cost) == analyze(g)[1:], size
                assert (delta.after_border, delta.after_cost) == analyze(after)[1:], size

    @pytest.mark.parametrize(
        "run, walks",
        [
            (analyze, 1),
            (lambda g: truncate_at_border(g, 10), 2),
            (lambda g: remove_stem_downsampling(g, 2), 2),
            (lambda g: compare(g, build_named("resnet34")), 2),
            (lambda g: main(["analyze", "zoo:resnet34"]), 1),
        ],
        ids=["analyze", "truncate_at_border", "remove_stem_downsampling", "compare", "cli-analyze"],
    )
    def test_each_walk_runs_once_per_graph(self, run, walks, capsys):
        g = build_named("resnet34")  # fresh, so its validation is counted too
        assert walk_counts(lambda: run(g)) == dict.fromkeys(WALKS, walks)

    def test_frontier_error_precedes_shape_error(self, monkeypatch):
        both = diamond("both", pad7=False)
        with pytest.raises(ShapeError, match="'add'"):
            analyze(both)
        monkeypatch.setattr(rf_analysis, "FRONTIER_CAP", 1)
        for run in (analyze, lambda g: truncate_at_border(g, 10), lambda g: compare(g, g)):
            with pytest.raises(FrontierLimitError, match="'add'"):
                run(both)

    def test_compare_raises_the_first_graphs_error(self, monkeypatch):
        monkeypatch.setattr(rf_analysis, "FRONTIER_CAP", 1)
        frontier_only = diamond("frontier", pad7=True)
        shape_only = chain_graph("shape", IN32, [("big", Conv2d(kernel=40, filters=4, padding=0))])
        with pytest.raises(FrontierLimitError):
            compare(frontier_only, shape_only)
        with pytest.raises(ShapeError, match="'big'"):
            compare(shape_only, frontier_only)
