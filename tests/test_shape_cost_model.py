import json
from pathlib import Path

import pytest

from dagtools import SWEEP_SIZES, ZOO_VARIANTS

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
    Pool,
    ShapeError,
    Softmax,
    build_named,
    chain_graph,
    cost_report,
    make_graph,
    propagate_shapes,
)

IN32 = InputSpec(32, 32, 3)


def single(kind, input_spec=IN32, node="x"):
    return chain_graph("single", input_spec, [(node, kind)])


def shape_of(kind, input_spec=IN32):
    return propagate_shapes(single(kind, input_spec))["x"]


class TestPropagateShapes:
    def test_same_conv_keeps_size(self):
        assert shape_of(Conv2d(kernel=3, filters=64)).spatial == (32, 32)

    def test_max_pool_halves(self):
        assert shape_of(Pool(mode="max", kernel=2, stride=2)).spatial == (16, 16)

    def test_same_padding_uses_ceil(self):
        assert shape_of(Conv2d(kernel=3, filters=8, stride=2), InputSpec(33, 33, 3)).spatial == (17, 17)

    def test_valid_padding(self):
        assert shape_of(Conv2d(kernel=3, filters=8, padding="valid")).spatial == (30, 30)

    def test_explicit_padding(self):
        assert shape_of(Conv2d(kernel=5, filters=8, padding=2)).spatial == (32, 32)

    def test_dilation_enters_window_size(self):
        # k_eff = 7: valid output is 32 - 7 + 1 = 26.
        assert shape_of(Conv2d(kernel=3, filters=8, dilation=3, padding="valid")).spatial == (26, 26)

    def test_resnet_style_pool(self):
        assert shape_of(Pool(mode="max", kernel=3, stride=2, padding=1)).spatial == (16, 16)

    def test_window_larger_than_input_fails(self):
        with pytest.raises(ShapeError) as err:
            shape_of(Conv2d(kernel=7, filters=8, padding="valid"), InputSpec(3, 3, 3))
        assert "x" in str(err.value)

    def test_gap_and_dense_collapse_spatial(self):
        g = chain_graph("head", IN32, [("c", Conv2d(kernel=3, filters=24)), ("gap", GlobalAvgPool()), ("fc", Dense(units=10))])
        shapes = propagate_shapes(g)
        assert (shapes["gap"].spatial, shapes["gap"].out_channels) == ((1, 1), 24)
        assert (shapes["fc"].spatial, shapes["fc"].out_channels) == ((1, 1), 10)

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
            propagate_shapes(g)
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
        assert shapes["cat"].out_channels == 32
        assert shapes["cat"].spatial == (32, 32)

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
        assert suffix["c2"].spatial == whole["c2"].spatial
        assert suffix["c2"].out_channels == whole["c2"].out_channels


def params_of(kind, input_spec=IN32):
    report = cost_report(single(kind, input_spec))
    return next(c.params for c in report.per_layer if c.node_id == "x")


def macs_of(kind, input_spec=IN32, **kwargs):
    report = cost_report(single(kind, input_spec), **kwargs)
    return next(c.macs for c in report.per_layer if c.node_id == "x")


class TestParams:
    def test_conv_3x3_64_to_64_with_bias(self):
        g = chain_graph("two", IN32, [("c0", Conv2d(kernel=3, filters=64, bias=False)), ("x", Conv2d(kernel=3, filters=64))])
        report = cost_report(g)
        assert next(c.params for c in report.per_layer if c.node_id == "x") == 36_928

    def test_dense_512_to_10(self):
        g = chain_graph("d", IN32, [("c", Conv2d(kernel=3, filters=512)), ("gap", GlobalAvgPool()), ("x", Dense(units=10))])
        report = cost_report(g)
        assert next(c.params for c in report.per_layer if c.node_id == "x") == 5_130

    def test_batch_norm_two_per_channel(self):
        g = chain_graph("bn", IN32, [("c", Conv2d(kernel=3, filters=128, bias=False)), ("x", BatchNorm())])
        report = cost_report(g)
        assert next(c.params for c in report.per_layer if c.node_id == "x") == 256

    def test_dilation_adds_no_params(self):
        assert params_of(Conv2d(kernel=3, filters=8, dilation=3)) == params_of(Conv2d(kernel=3, filters=8))

    @pytest.mark.parametrize("kind", [Pool(mode="max", kernel=2, stride=2), Add(), Activation(), GlobalAvgPool(), Softmax()])
    def test_parameter_free_kinds(self, kind):
        g = chain_graph("free", IN32, [("c", Conv2d(kernel=3, filters=8)), ("x", kind), ("c2", Conv2d(kernel=3, filters=8))])
        if isinstance(kind, Add):
            return  # arity constraint; covered by zoo totals
        report = cost_report(g)
        assert next(c.params for c in report.per_layer if c.node_id == "x") == 0

    def test_se_attention_bottleneck(self):
        g = chain_graph("se", IN32, [("c", Conv2d(kernel=3, filters=64, bias=False)), ("x", Attention("se"))])
        report = cost_report(g)
        assert next(c.params for c in report.per_layer if c.node_id == "x") == 2 * 64 * 4


class TestMacs:
    def test_conv_3x3_64_to_64_at_32(self):
        g = chain_graph("two", IN32, [("c0", Conv2d(kernel=3, filters=64, bias=False)), ("x", Conv2d(kernel=3, filters=64))])
        report = cost_report(g)
        assert next(c.macs for c in report.per_layer if c.node_id == "x") == 37_748_736

    def test_dense_512_to_10(self):
        g = chain_graph("d", IN32, [("c", Conv2d(kernel=3, filters=512)), ("gap", GlobalAvgPool()), ("x", Dense(units=10))])
        report = cost_report(g)
        assert next(c.macs for c in report.per_layer if c.node_id == "x") == 5_120

    def test_elementwise_counted(self):
        for kind in (BatchNorm(), Activation(), Pool(mode="avg", kernel=2, stride=2), GlobalAvgPool()):
            g = chain_graph("e", IN32, [("c", Conv2d(kernel=3, filters=8, bias=False)), ("x", kind)])
            assert next(c.macs for c in cost_report(g).per_layer if c.node_id == "x") > 0

    def test_softmax_never_counted(self):
        g = chain_graph("s", IN32, [("c", Conv2d(kernel=3, filters=8)), ("gap", GlobalAvgPool()), ("fc", Dense(units=10)), ("x", Softmax())])
        assert next(c.macs for c in cost_report(g).per_layer if c.node_id == "x") == 0

    def test_pool_counts_window_elements(self):
        g = chain_graph("p", IN32, [("c", Conv2d(kernel=3, filters=8, bias=False)), ("x", Pool(mode="max", kernel=2, stride=2))])
        # 16x16x8 outputs, 4 window elements each.
        assert next(c.macs for c in cost_report(g).per_layer if c.node_id == "x") == 4 * 16 * 16 * 8


class TestReportTotals:
    def test_totals_are_sums_and_flops_double(self):
        report = cost_report(build_named("vgg11"))
        assert report.total_params == sum(c.params for c in report.per_layer)
        assert report.total_macs == sum(c.macs for c in report.per_layer)
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
            assert list(shapes) == list(g.order) == [c.node_id for c in report.per_layer]
            assert list(shapes.values()) == [c.out_shape for c in report.per_layer]
            assert cost_report(g, shapes=shapes) == report
