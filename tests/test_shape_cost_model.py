import json
from pathlib import Path

import pytest

from dagtools import SWEEP_SIZES, ZOO_VARIANTS, chain_graph, cost_by_shape_records, random_graph, walk_counts

from rfscope import (
    Activation,
    Add,
    Attention,
    BatchNorm,
    Concat,
    Conv2d,
    Dense,
    GlobalAvgPool,
    Input,
    InputSpec,
    LayerCost,
    Pool,
    ShapeError,
    Softmax,
    build_named,
    cost_report,
    make_graph,
    propagate_shapes,
)

IN32 = InputSpec(32, 32, 3)


def single(kind, input_spec=IN32, node="x"):
    return chain_graph("single", input_spec, [(node, kind)])


def spatial_of(kind, input_spec=IN32):
    row = propagate_shapes(single(kind, input_spec))["x"]
    return (row.out_height, row.out_width)


class TestPropagateShapes:
    def test_same_conv_keeps_size(self):
        assert spatial_of(Conv2d(kernel=3, filters=64)) == (32, 32)

    def test_max_pool_halves(self):
        assert spatial_of(Pool(mode="max", kernel=2, stride=2)) == (16, 16)

    def test_same_padding_uses_ceil(self):
        assert spatial_of(Conv2d(kernel=3, filters=8, stride=2), InputSpec(33, 33, 3)) == (17, 17)

    def test_valid_padding(self):
        assert spatial_of(Conv2d(kernel=3, filters=8, padding="valid")) == (30, 30)

    def test_explicit_padding(self):
        assert spatial_of(Conv2d(kernel=5, filters=8, padding=2)) == (32, 32)

    def test_dilation_enters_window_size(self):
        # k_eff = 7: valid output is 32 - 7 + 1 = 26.
        assert spatial_of(Conv2d(kernel=3, filters=8, dilation=3, padding="valid")) == (26, 26)

    def test_resnet_style_pool(self):
        assert spatial_of(Pool(mode="max", kernel=3, stride=2, padding=1)) == (16, 16)

    def test_window_larger_than_input_fails(self):
        with pytest.raises(ShapeError) as err:
            spatial_of(Conv2d(kernel=7, filters=8, padding="valid"), InputSpec(3, 3, 3))
        assert "x" in str(err.value)

    def test_gap_and_dense_collapse_spatial(self):
        g = chain_graph("head", IN32, [("c", Conv2d(kernel=3, filters=24)), ("gap", GlobalAvgPool()), ("fc", Dense(units=10))])
        shapes = propagate_shapes(g)
        gap, fc = shapes["gap"], shapes["fc"]
        assert (gap.out_height, gap.out_width, gap.out_channels) == (1, 1, 24)
        assert (fc.out_height, fc.out_width, fc.out_channels) == (1, 1, 10)

    def test_add_requires_equal_shapes(self):
        layers = [
            ("input", Input()),
            ("a", Conv2d(kernel=3, filters=8, stride=2, bias=False)),
            ("b", Conv2d(kernel=3, filters=8, stride=1, bias=False)),
            ("add", Add()),
        ]
        edges = [("input", "a"), ("input", "b"), ("a", "add"), ("b", "add")]
        g = make_graph("bad-add", IN32, layers, edges)
        with pytest.raises(ShapeError) as err:
            cost_report(g)
        assert "add" in str(err.value)

    def test_concat_sums_channels(self):
        layers = [
            ("input", Input()),
            ("a", Conv2d(kernel=3, filters=8, bias=False)),
            ("b", Conv2d(kernel=5, filters=24, bias=False)),
            ("cat", Concat()),
        ]
        edges = [("input", "a"), ("input", "b"), ("a", "cat"), ("b", "cat")]
        shapes = propagate_shapes(make_graph("cat", IN32, layers, edges))
        cat = shapes["cat"]
        assert (cat.out_height, cat.out_width, cat.out_channels) == (32, 32, 32)

    def test_chain_composition(self):
        # Analyzing a prefix then continuing equals analyzing the whole chain.
        layers = [
            ("c1", Conv2d(kernel=3, filters=16, stride=2)),
            ("p1", Pool(mode="max", kernel=2, stride=2)),
            ("c2", Conv2d(kernel=3, filters=32)),
        ]
        whole = propagate_shapes(chain_graph("whole", IN32, layers))
        prefix = propagate_shapes(chain_graph("prefix", IN32, layers[:2]))
        assert whole["c1"] == prefix["c1"] and whole["p1"] == prefix["p1"]
        mid = prefix["p1"]
        suffix_input = InputSpec(mid.out_height, mid.out_width, mid.out_channels)
        suffix = propagate_shapes(chain_graph("suffix", suffix_input, layers[2:]))
        assert suffix["c2"] == whole["c2"]


def params_of(kind, input_spec=IN32):
    return propagate_shapes(single(kind, input_spec))["x"].params


class TestParams:
    def test_conv_3x3_64_to_64_with_bias(self):
        g = chain_graph("two", IN32, [("c0", Conv2d(kernel=3, filters=64, bias=False)), ("x", Conv2d(kernel=3, filters=64))])
        assert propagate_shapes(g)["x"].params == 36_928

    def test_dense_512_to_10(self):
        g = chain_graph("d", IN32, [("c", Conv2d(kernel=3, filters=512)), ("gap", GlobalAvgPool()), ("x", Dense(units=10))])
        assert propagate_shapes(g)["x"].params == 5_130

    def test_batch_norm_two_per_channel(self):
        g = chain_graph("bn", IN32, [("c", Conv2d(kernel=3, filters=128, bias=False)), ("x", BatchNorm())])
        assert propagate_shapes(g)["x"].params == 256

    def test_dilation_adds_no_params(self):
        assert params_of(Conv2d(kernel=3, filters=8, dilation=3)) == params_of(Conv2d(kernel=3, filters=8))

    @pytest.mark.parametrize("kind", [Pool(mode="max", kernel=2, stride=2), Add(), Activation(), GlobalAvgPool(), Softmax()])
    def test_parameter_free_kinds(self, kind):
        g = chain_graph("free", IN32, [("c", Conv2d(kernel=3, filters=8)), ("x", kind), ("c2", Conv2d(kernel=3, filters=8))])
        if isinstance(kind, Add):
            return  # arity constraint; covered by zoo totals
        assert propagate_shapes(g)["x"].params == 0

    def test_se_attention_bottleneck(self):
        g = chain_graph("se", IN32, [("c", Conv2d(kernel=3, filters=64, bias=False)), ("x", Attention("se"))])
        assert propagate_shapes(g)["x"].params == 2 * 64 * 4


class TestMacs:
    def test_conv_3x3_64_to_64_at_32(self):
        g = chain_graph("two", IN32, [("c0", Conv2d(kernel=3, filters=64, bias=False)), ("x", Conv2d(kernel=3, filters=64))])
        assert propagate_shapes(g)["x"].macs == 37_748_736

    def test_dense_512_to_10(self):
        g = chain_graph("d", IN32, [("c", Conv2d(kernel=3, filters=512)), ("gap", GlobalAvgPool()), ("x", Dense(units=10))])
        assert propagate_shapes(g)["x"].macs == 5_120

    def test_elementwise_counted(self):
        for kind in (BatchNorm(), Activation(), Pool(mode="avg", kernel=2, stride=2), GlobalAvgPool()):
            g = chain_graph("e", IN32, [("c", Conv2d(kernel=3, filters=8, bias=False)), ("x", kind)])
            assert propagate_shapes(g)["x"].macs > 0

    def test_softmax_never_counted(self):
        g = chain_graph("s", IN32, [("c", Conv2d(kernel=3, filters=8)), ("gap", GlobalAvgPool()), ("fc", Dense(units=10)), ("x", Softmax())])
        assert propagate_shapes(g)["x"].macs == 0

    # 64 channels at 32x32 (1,024 positions): squeeze-excite holds 2 * 64 * (64 // 16) = 512 weights and
    # costs 2 * 64 per position plus its 512; spatial holds 7 * 7 * 2 = 98 and costs 3 * 64 + 98 per position.
    @pytest.mark.parametrize(
        "variant, params, macs",
        [("se", 512, 2 * 64 * 1024 + 512), ("spatial", 98, 290 * 1024), ("cbam", 610, 418 * 1024 + 512)],
        ids=["se", "spatial", "cbam"],
    )
    def test_attention_by_hand(self, variant, params, macs):
        g = chain_graph("attn", IN32, [("c", Conv2d(kernel=3, filters=64, bias=False)), ("x", Attention(variant))])
        row = propagate_shapes(g)["x"]
        assert (row.params, row.macs) == (params, macs)

    def test_dense_on_a_feature_map_reads_every_position(self):
        # 32 * 48 * 4 inputs to each of 10 units, plus 10 biases.
        g = chain_graph("flat", TALL_WIDE, [("c", Conv2d(kernel=3, filters=4, bias=False)), ("x", Dense(units=10))])
        row = propagate_shapes(g)["x"]
        assert (row.params, row.macs, row.out_height, row.out_width, row.out_channels) == (61_450, 61_440, 1, 1, 10)

    def test_pool_counts_window_elements(self):
        g = chain_graph("p", IN32, [("c", Conv2d(kernel=3, filters=8, bias=False)), ("x", Pool(mode="max", kernel=2, stride=2))])
        # 16x16x8 outputs, 4 window elements each.
        assert propagate_shapes(g)["x"].macs == 4 * 16 * 16 * 8


# Height and width differ on the way through, so a layer that reads or writes them
# swapped changes a shape. Hand-worked on a 32x48x3 input:
#   a    3x3/2 valid conv, 8 filters:    (32 - 3) // 2 + 1 = 15, (48 - 3) // 2 + 1 = 23
#   p    3x3/2 max pool, padding 1:      (15 + 2 - 3) // 2 + 1 = 8, (23 + 2 - 3) // 2 + 1 = 12
#   b    1x1/2 same conv on a, 4 filters: ceil(15 / 2) = 8, ceil(23 / 2) = 12
#   cat  concat of p and b:               8 + 4 = 12 channels
#   gap  global average pool:             1 x 1
TALL_WIDE = InputSpec(32, 48, 3)
NON_SQUARE_LAYERS = [
    ("input", Input()),
    ("a", Conv2d(kernel=3, filters=8, stride=2, padding="valid")),
    ("p", Pool(mode="max", kernel=3, stride=2, padding=1)),
    ("b", Conv2d(kernel=1, filters=4, stride=2)),
    ("cat", Concat()),
    ("gap", GlobalAvgPool()),
]
NON_SQUARE_EDGES = [("input", "a"), ("a", "p"), ("a", "b"), ("p", "cat"), ("b", "cat"), ("cat", "gap")]


class TestNonSquareInput:
    def test_every_node_keeps_height_before_width(self):
        g = make_graph("tall-wide", TALL_WIDE, NON_SQUARE_LAYERS, NON_SQUARE_EDGES)
        report, shapes = cost_report(g), propagate_shapes(g)
        assert [shape_record(nid, c) for nid, c in shapes.items()] == [
            ("input", 32, 48, 3),
            ("a", 15, 23, 8),
            ("p", 8, 12, 8),
            ("b", 8, 12, 4),
            ("cat", 8, 12, 12),
            ("gap", 1, 1, 12),
        ]
        # a: 9 * 3 * 8 = 216 weights + 8 biases, 216 * 15 * 23 MACs; p: 9 * 8 * 12 * 8;
        # b: 1 * 8 * 4 = 32 weights + 4 biases, 32 * 8 * 12 MACs; gap: 8 * 12 * 12.
        assert [(c.params, c.macs) for c in shapes.values()] == [
            (0, 0), (224, 74_520), (0, 6_912), (36, 3_072), (0, 0), (0, 1_152)
        ]
        assert (report.total_params, report.total_macs) == (260, 85_656)

    def test_concat_mismatch_names_height_then_width(self):
        edges = [("input", "a"), ("a", "p"), ("a", "cat"), ("p", "cat"), ("cat", "gap")]
        layers = [layer for layer in NON_SQUARE_LAYERS if layer[0] != "b"]
        with pytest.raises(ShapeError) as err:
            cost_report(make_graph("tall-wide-mismatch", TALL_WIDE, layers, edges))
        assert str(err.value) == "node 'cat': concat over mismatched spatial dims (15, 23) vs (8, 12)"


def walk_or_error(walk, graph):
    try:
        return walk(graph)
    except ShapeError as err:
        return str(err)


def shape_record(nid, row):
    return (nid, row.out_height, row.out_width, row.out_channels)


def report_rows(graph):
    """`propagate_shapes` and `cost_report` in the oracle's terms: shapes, per-layer rows (by node id) and totals."""
    report = cost_report(graph)
    per_layer = [(nid, c.params, c.macs, shape_record(nid, c)) for nid, c in propagate_shapes(graph).items()]
    shapes = {row[0]: row[3] for row in per_layer}
    return shapes, per_layer, report.total_params, report.total_macs


PLAN_SIZES = (*SWEEP_SIZES, 1, 7, 16, 31)  # the sweep sizes, and sizes at which the vgg pools run out of input


class TestMatchesShapeRecordWalk:
    """`cost_report` equals the walk that kept one shape record per node for its successors."""

    @pytest.mark.parametrize("name", ZOO_VARIANTS)
    def test_zoo_at_square_and_non_square_sizes(self, name):
        for size in SWEEP_SIZES:
            for spec in (InputSpec(size, size, 3), InputSpec(size, size + 16, 3), InputSpec(size + 16, size, 3)):
                g = build_named(name, spec)
                assert report_rows(g) == cost_by_shape_records(g), spec

    @pytest.mark.parametrize("shape_safe", [False, True])
    def test_random_graphs_with_their_errors(self, shape_safe):
        errors = 0
        for seed in range(500):
            g = random_graph(seed, shape_safe=shape_safe)
            for graph in (g, g.with_input(TALL_WIDE)):
                expected = walk_or_error(cost_by_shape_records, graph)
                assert walk_or_error(report_rows, graph) == expected, (seed, graph.input)
                errors += isinstance(expected, str)
        assert errors > 0 or shape_safe

    @pytest.mark.parametrize("name", ZOO_VARIANTS)
    def test_zoo_plan_built_at_one_size_serves_every_sibling(self, name):
        # A plan holds no size, so one built at 224x224 answers at every other size, failing ones included.
        g = build_named(name, InputSpec(224, 224, 3))
        cost_report(g)
        plan = g.__dict__["_cost_plan"]
        for size in PLAN_SIZES:
            for spec in (InputSpec(size, size, 3), InputSpec(size, size + 16, 3), InputSpec(size + 16, size, 3)):
                sibling = g.with_input(spec)
                expected = walk_or_error(cost_by_shape_records, build_named(name, spec))
                assert walk_or_error(report_rows, sibling) == expected, spec
                assert sibling.__dict__["_cost_plan"] is plan

    @pytest.mark.parametrize("shape_safe", [False, True])
    def test_random_plans_with_their_errors(self, shape_safe):
        specs = [InputSpec(s, s, 3) for s in (1, 2, 7, 33, 64)] + [InputSpec(9, 40, 3), InputSpec(40, 9, 3)]
        errors = 0
        for seed in range(300):
            g = random_graph(seed, shape_safe=shape_safe)
            walk_or_error(report_rows, g)  # keeps the plan even where the walk raises at 32x32
            for spec in specs:
                expected = walk_or_error(cost_by_shape_records, make_graph("fresh", spec, [(n.id, n.kind) for n in g.nodes], g.edges))
                assert walk_or_error(report_rows, g.with_input(spec)) == expected, (seed, spec)
                errors += isinstance(expected, str)
        assert errors > 0 or shape_safe


class TestOnePlanPerStructure:
    """`cost_report` keeps a plan that reads no input size, so one plan serves every size."""

    def test_windows_past_a_global_pool(self):
        # Past the global pool each window makes a step like any other: a 1x1/2 same conv and a 2x2/2 pool
        # with padding 1 keep (1, 1), a 3x3 conv with padding 2 grows it to (3, 3), and a 5x5 valid conv then fails.
        layers = [
            ("gap", GlobalAvgPool()),
            ("s", Conv2d(kernel=1, filters=4, stride=2)),
            ("p", Pool(mode="max", kernel=2, stride=2, padding=1)),
            ("grow", Conv2d(kernel=3, filters=4, padding=2)),
            ("v", Conv2d(kernel=5, filters=4, padding="valid")),
        ]
        g = chain_graph("past-gap", IN32, layers[:-1])
        assert report_rows(g) == cost_by_shape_records(g)
        assert [shape_record(nid, r) for nid, r in propagate_shapes(g).items()][-3:] == [("s", 1, 1, 4), ("p", 1, 1, 4), ("grow", 3, 3, 4)]
        assert [step[0] for step in g.__dict__["_cost_plan"][0]] == ["s", "p", "grow"]
        failing = chain_graph("past-gap-fails", IN32, layers)
        assert walk_or_error(report_rows, failing) == "node 'v': window 5 exceeds padded input extent 3"

    def test_a_sweep_builds_the_plan_once(self):
        def sweep(graph):
            for size in SWEEP_SIZES:
                graph = graph.with_input(InputSpec(size, size, 3))
                cost_report(graph)

        counts = walk_counts(lambda: sweep(build_named("mpnet36")))
        assert counts == {"validate": 1, "propagate_dag": 0, "classify": 0, "cost_report": 16, "_cost_plan": 1}

    def test_a_channel_change_builds_a_new_plan(self):
        g = build_named("resnet18", InputSpec(64, 64, 3))
        cost_report(g)
        gray = g.with_input(InputSpec(64, 64, 1))
        counts = walk_counts(lambda: cost_report(gray))
        assert counts == {"validate": 1, "propagate_dag": 0, "classify": 0, "cost_report": 1, "_cost_plan": 1}
        assert gray.__dict__["_cost_plan"] is not g.__dict__["_cost_plan"]
        assert report_rows(gray) == cost_by_shape_records(build_named("resnet18", InputSpec(64, 64, 1)))
        stem = next(n.id for n in g.nodes if isinstance(n.kind, Conv2d))
        assert propagate_shapes(gray)[stem].params < propagate_shapes(g)[stem].params


def merge_then_window(window_first):
    """A strided and a plain same conv meet at an add, which fails at any size; a 40x40 pool fails at
    32x32. `window_first` puts the pool before the branches, else after the add."""
    layers = [
        ("input", Input()),
        ("a", Conv2d(kernel=3, filters=8, stride=2)),
        ("b", Conv2d(kernel=3, filters=8)),
        ("add", Add()),
        ("p", Pool(mode="max", kernel=40, stride=1)),
    ]
    edges = [("input", "a"), ("input", "b"), ("a", "add"), ("b", "add"), ("add", "p")]
    if window_first:
        layers = [layers[0], layers[4], *layers[1:4]]
        edges = [("input", "p"), ("p", "a"), ("p", "b"), ("a", "add"), ("b", "add")]
    return make_graph("precedence", InputSpec(96, 96, 3), layers, edges)


class TestErrorPrecedence:
    """The first failing node in node order raises, whether the plan was built at this size or another."""

    def test_merge_before_window(self):
        g = merge_then_window(window_first=False)
        assert walk_or_error(report_rows, g) == "node 'add': element-wise add over mismatched shapes (48, 48, 8) vs (96, 96, 8)"
        small = g.with_input(InputSpec(32, 32, 3))
        assert walk_or_error(report_rows, small) == "node 'add': element-wise add over mismatched shapes (16, 16, 8) vs (32, 32, 8)"
        assert walk_or_error(report_rows, small) == walk_or_error(cost_by_shape_records, small)

    def test_window_before_merge(self):
        g = merge_then_window(window_first=True)
        assert walk_or_error(report_rows, g) == "node 'add': element-wise add over mismatched shapes (29, 29, 8) vs (57, 57, 8)"
        small = g.with_input(InputSpec(32, 32, 3))
        assert walk_or_error(report_rows, small) == "node 'p': window 40 exceeds padded input extent 32"
        assert walk_or_error(report_rows, small) == walk_or_error(cost_by_shape_records, small)

    def test_window_error_names_the_failing_extent(self):
        g = chain_graph("wide", InputSpec(50, 30, 3), [("p", Pool(mode="avg", kernel=40, stride=1))])
        assert walk_or_error(report_rows, g) == "node 'p': window 40 exceeds padded input extent 30"
        assert walk_or_error(report_rows, g.with_input(InputSpec(30, 50, 3))) == "node 'p': window 40 exceeds padded input extent 30"


class TestReportTotals:
    def test_totals_are_sums_and_flops_double(self):
        # `propagate_shapes` builds the records and `cost_report` sums per slot, over one size walk: the totals
        # are the records' sums, and where the walk fails, both raise the same error.
        def sums(graph):
            records = propagate_shapes(graph).values()
            return sum(c.params for c in records), sum(c.macs for c in records)

        graphs = [build_named(name, InputSpec(size, size, 3)) for name in ZOO_VARIANTS for size in SWEEP_SIZES]
        graphs += [random_graph(seed, shape_safe=safe) for safe in (False, True) for seed in range(200)]
        errors = 0
        for g in graphs:
            for graph in (g, g.with_input(TALL_WIDE)):
                expected = walk_or_error(sums, graph)
                assert walk_or_error(cost_report, graph) == expected, (graph.name, graph.input)
                errors += isinstance(expected, str)
        assert errors > 0
        report = cost_report(build_named("vgg11"))
        assert report.total_flops == 2 * report.total_macs
        assert report.gflops_mac1 == report.total_macs / 1e9

    def test_removing_param_bearing_node_decreases_params(self):
        layers = [("c1", Conv2d(kernel=3, filters=8)), ("bn", BatchNorm()), ("c2", Conv2d(kernel=3, filters=8))]
        with_bn = cost_report(chain_graph("with", IN32, layers))
        without = cost_report(chain_graph("without", IN32, [layers[0], layers[2]]))
        assert without.total_params < with_bn.total_params

    def test_destriding_never_decreases_macs_and_keeps_conv_params(self):
        g = build_named("resnet18")
        relaxed_nodes = []
        for node in g.nodes:
            kind = node.kind
            if isinstance(kind, Conv2d) and kind.stride > 1:
                kind = kind._replace(stride=1)
            relaxed_nodes.append((node.id, kind))
        relaxed = make_graph("relaxed", g.input, relaxed_nodes, g.edges)
        base, more = cost_report(g), cost_report(relaxed)
        assert more.total_macs >= base.total_macs
        assert more.total_params == base.total_params


# Totals per "model@size", recorded from the code that walked shapes and costs
# separately; read only.
SWEEP_COSTS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "digests.json").read_text("utf-8")
)["sweep_costs"]


class TestOneWalk:
    def test_sweep_totals_match_the_recorded_values(self):
        seen = {}
        for name in ZOO_VARIANTS:
            for size in SWEEP_SIZES:
                report = cost_report(build_named(name, InputSpec(size, size, 3)))
                seen[f"{name}@{size}"] = [report.total_params, report.total_macs]
        assert len(seen) == 208
        assert seen == SWEEP_COSTS

    @pytest.mark.parametrize("name", ZOO_VARIANTS)
    def test_shapes_are_the_report_shapes(self, name):
        for size in (32, 224):
            g = build_named(name, InputSpec(size, size, 3))
            shapes = propagate_shapes(g)
            report = cost_report(g)
            assert list(shapes) == list(g.order)
            assert cost_report(g, shapes=shapes) == report


class TestPerLayerByPosition:
    """`propagate_shapes` gives `graph.nodes[i]`'s record i-th, from the plan's row for that node."""

    def test_a_lone_input_gives_one_row(self):
        g = make_graph("lone", IN32, [("input", Input())], [])
        row = LayerCost(params=0, macs=0, out_height=32, out_width=32, out_channels=3)
        assert cost_report(g) == (0, 0)
        assert propagate_shapes(g) == {"input": row}
        assert propagate_shapes(g.with_input(InputSpec(5, 7, 1))) == {"input": LayerCost(0, 0, 5, 7, 1)}

    @pytest.mark.parametrize("name", ZOO_VARIANTS)
    def test_one_record_per_node_in_node_order(self, name):
        g = build_named(name)
        shapes = propagate_shapes(g)
        assert list(shapes) == [node.id for node in g.nodes]
        assert len(g.__dict__["_cost_plan"][1]) == len(g.nodes)
        assert report_rows(g) == cost_by_shape_records(g)
