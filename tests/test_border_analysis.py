import json
import math

import pytest

from dagtools import SWEEP_SIZES, ZOO_VARIANTS, chain_graph, classify_by_two_scans, random_graph
from rfscope import (
    PRODUCTIVE,
    UNPRODUCTIVE,
    Activation,
    ArchGraph,
    Conv2d,
    FrontierLimitError,
    InputSpec,
    Pool,
    build_named,
    classify,
    cost_report,
    make_graph,
    propagate_dag,
    propagate_shapes,
    serialize,
    unproductive_closure,
    validate,
)
from rfscope import rf_analysis
from rfscope.cli import EXIT_INVALID, EXIT_OK, main
from rfscope.graph_ir import HEAD_KINDS


def conv(k, s=1, f=8):
    return Conv2d(kernel=k, stride=s, filters=f, bias=False)


def unproductive_tail(graph):
    """The removal set for tail truncation: the closure minus head-exempt kinds."""
    closure = unproductive_closure(graph, classify(graph))
    return frozenset(nid for nid in closure if not isinstance(graph.node_map[nid].kind, HEAD_KINDS))


def deep_chain(n_convs, input_spec=InputSpec(16, 16, 3)):
    """n stride-1 5x5 convs: the receptive field after conv t is 1 + 4t."""
    return chain_graph("deep", input_spec, [(f"c{t}", conv(5)) for t in range(1, n_convs + 1)])


class TestClassify:
    def test_sequential_border_is_first_crossing(self):
        # Conv t sees r_in = 4t - 3; at i = 16 the first input above 16 is conv5 (r_in = 17).
        report = classify(deep_chain(8))
        assert report.border_min == report.border_max == 5
        assert report.border_min_node == "c5"
        assert report.unproductive_conv_ids == ("c5", "c6", "c7", "c8")

    def test_rule_is_strict_inequality(self):
        # r_in = 17 exactly at i = 17 stays productive.
        report = classify(deep_chain(8, InputSpec(17, 17, 3)))
        assert report.per_conv[4].r_in_min == 17
        assert report.unproductive_conv_ids == ("c6", "c7", "c8")
        assert report.border_min == 6  # conv6 input is 21 > 17

    def test_huge_resolution_has_no_border(self):
        report = classify(deep_chain(8, InputSpec(10**9, 10**9, 3)))
        assert report.border_min is None and report.border_max is None
        assert report.unproductive_conv_ids == ()

    def test_resolution_is_max_of_sides(self):
        tall = classify(deep_chain(8, InputSpec(64, 16, 3)))
        assert tall.resolution == 64
        assert tall.border_min == classify(deep_chain(8, InputSpec(64, 64, 3))).border_min

    def test_heads_are_exempt(self):
        report = classify(build_named("vgg11"))
        assert {c.node_id for c in report.per_conv} == {f"conv{t}" for t in range(1, 9)}

    def test_border_max_not_later_than_border_min(self):
        for name in ("mpnet18", "mpnet36", "resnet18", "vgg16"):
            report = classify(build_named(name))
            if report.border_min is not None and report.border_max is not None:
                assert report.border_max <= report.border_min

    def test_resolution_monotonicity(self):
        g32 = build_named("vgg16")
        g64 = g32.with_input(InputSpec(64, 64, 3))
        r32, r64 = classify(g32), classify(g64)
        assert r64.border_min is None or r64.border_min >= r32.border_min
        assert set(r64.unproductive_conv_ids) <= set(r32.unproductive_conv_ids)

    def test_vgg13_border_analytic(self):
        # Independent fold over the stack (3x3 convs, 2x2 pools): the input to
        # the 7th conv is 36 > 32, so the analytic border sits at conv7.
        r, j = 1, 1
        inputs = []
        for k, s in [(3, 1), (3, 1), (2, 2), (3, 1), (3, 1), (2, 2), (3, 1), (3, 1), (2, 2), (3, 1)]:
            if k == 3:
                inputs.append(r)
            r, j = r + (k - 1) * j, j * s
        assert inputs[6] == 36
        assert classify(build_named("vgg13")).border_min == 7

    def test_determinism(self):
        a = classify(build_named("mpnet36"))
        b = classify(build_named("mpnet36"))
        assert a == b


def with_filters(graph, scale, only=None):
    """`graph` with the filters of conv `only` (or of every conv) multiplied by `scale`."""
    nodes = tuple(
        n._replace(kind=n.kind._replace(filters=n.kind.filters * scale))
        if isinstance(n.kind, Conv2d) and only in (None, n.id)
        else n
        for n in graph.nodes
    )
    return graph._replace(nodes=nodes)


class TestMetamorphic:
    @pytest.mark.parametrize("name", ZOO_VARIANTS)
    def test_conv_filters_never_move_rf_or_border(self, name):
        graph = build_named(name)
        annotations, report = propagate_dag(graph), classify(graph)
        # A conv feeding an add must keep its partner's width; widening it
        # alone gives an invalid graph, which is no probe. (In mpnet18 every
        # conv feeds an add, so only the scale of all convs applies.)
        singles = [with_filters(graph, 2, only=n.id) for n in graph.nodes if isinstance(n.kind, Conv2d)]
        for probe in [with_filters(graph, 3)] + [p for p in singles if not validate(p)]:
            assert propagate_dag(probe) == annotations
            assert classify(probe) == report

    @pytest.mark.parametrize("name", ZOO_VARIANTS)
    def test_border_min_never_decreases_as_resolution_grows(self, name):
        borders = [classify(build_named(name, InputSpec(s, s, 3))).border_min for s in SWEEP_SIZES]
        ranks = [math.inf if b is None else b for b in borders]
        assert ranks == sorted(ranks), borders


class TestUnproductiveTail:
    def test_vgg16_tail_contents(self):
        g = build_named("vgg16")
        tail = unproductive_tail(g)
        expected = {f"conv{t}" for t in range(8, 14)} | {f"relu{t}" for t in range(8, 14)} | {"pool4", "pool5"}
        assert tail == expected

    def test_no_border_gives_empty_tail(self):
        g = deep_chain(8, InputSpec(10**9, 10**9, 3))
        assert unproductive_tail(g) == frozenset()

    def test_border_at_last_conv(self):
        g = chain_graph(
            "edge",
            InputSpec(8, 8, 3),
            [("c1", conv(5)), ("c2", conv(5)), ("r2", Activation("relu")), ("p2", Pool(mode="max", kernel=2, stride=2))],
        )
        # c2 input r = 5 <= 8? conv inputs: c1 -> 1, c2 -> 5; no border at i=8.
        assert unproductive_tail(g) == frozenset()
        small = g.with_input(InputSpec(4, 4, 3))
        assert unproductive_tail(small) == {"c2", "r2", "p2"}

    def test_closure_includes_head_tail_excludes_it(self):
        g = build_named("vgg16")
        closure = unproductive_closure(g, classify(g))
        tail = unproductive_tail(g)
        assert {"gap", "fc", "softmax"} <= closure
        assert not {"gap", "fc", "softmax"} & tail

    def test_node_fed_by_productive_path_is_kept(self):
        # In mpnet18 the first unproductive module is s3m2; s3m1's merge is fed
        # by productive convs and must stay out of the tail.
        g = build_named("mpnet18")
        tail = unproductive_tail(g)
        assert "s3m1_add" not in tail
        assert "s3m2_k3_conv" in tail and "s3m2_k7a_conv" in tail
        assert "s4m2_add" in tail

    def test_tail_shrinks_with_resolution(self):
        g32 = build_named("mpnet18")
        g48 = g32.with_input(InputSpec(48, 48, 3))
        assert unproductive_tail(g48) <= unproductive_tail(g32)


class TestZooBorders:
    def test_vgg_family(self):
        assert classify(build_named("vgg11")).border_min == 6
        assert classify(build_named("vgg16")).border_min == 8
        assert classify(build_named("vgg19")).border_min == 8

    def test_sequential_resnet_and_dilation(self):
        assert classify(build_named("resnet18-noskip")).border_min == 5
        assert classify(build_named("vgg19-dil3")).border_min == 5

    def test_mpnet18_two_borders(self):
        report = classify(build_named("mpnet18"))
        assert report.border_min == 11
        assert report.border_max == 7

    def test_skip_networks_pin_current_behavior(self):
        # All-paths semantics: identity skips carry the stem's receptive field
        # deep into the net, so minimum-side borders land late. Pinned for
        # regression, not as external ground truth.
        assert classify(build_named("resnet18")).border_min == 15
        assert classify(build_named("resnet34")).border_min == 21
        report36 = classify(build_named("mpnet36"))
        assert report36.border_min == 15
        assert report36.border_max == 6


def outcome(run, graph):
    """`run(graph)`, or the type and text of the error it raises."""
    try:
        return run(graph)
    except Exception as exc:
        return type(exc), str(exc)


def cell(value):
    """A receptive-field or jump cell as the CLI prints it."""
    return "global" if value == math.inf else value


class TestAnalyze:
    """The `analyze` command reports the RF walk, `classify`, `cost_report` and `propagate_shapes`, in that order."""

    @pytest.mark.parametrize("name", ZOO_VARIANTS)
    def test_is_the_three_walks_on_the_zoo(self, name, capsys):
        for size in SWEEP_SIZES:
            g = build_named(name, InputSpec(size, size, 3))
            border, cost = classify_by_two_scans(g), cost_report(g)  # jump ranges from the frontiers
            costs = propagate_shapes(g)
            rows = [
                {
                    "ordinal": c.ordinal, "id": c.node_id, "r_in_min": cell(c.r_in_min), "r_in_max": cell(c.r_in_max),
                    "j_min": cell(c.j_min), "j_max": cell(c.j_max), "params": costs[c.node_id].params,
                    "macs": costs[c.node_id].macs,
                    "classification": UNPRODUCTIVE if c.node_id in border.unproductive_conv_ids else PRODUCTIVE,
                }
                for c in border.per_conv
            ]
            assert main(["analyze", f"zoo:{name}", "--input-size", str(size), str(size), "--format", "json"]) == EXIT_OK
            payload = json.loads(capsys.readouterr().out)
            got = (payload["border_min"], payload["border_max"], payload["per_conv"], payload["totals"]["params"], payload["totals"]["macs"])
            assert got == (border.border_min, border.border_max, rows, cost.total_params, cost.total_macs), size

    @pytest.mark.parametrize("shape_safe", [False, True])
    def test_is_the_three_walks_on_random_graphs(self, shape_safe, tmp_path, capsys):
        path = tmp_path / "random.json"
        for seed in range(300):
            g = random_graph(seed, shape_safe=shape_safe)
            walks = tuple(outcome(run, g) for run in (propagate_dag, classify, cost_report, propagate_shapes))
            error = next((w for w in walks if type(w) is tuple), None)  # the first walk's error, if any
            path.write_text(serialize(g))
            code = main(["analyze", str(path)])
            captured = capsys.readouterr()
            expected = (EXIT_OK, "", True) if error is None else (EXIT_INVALID, f"rfscope: {error[1]}\n", False)
            assert (code, captured.err, bool(captured.out)) == expected, seed


def walked(graph):
    """`classify` from a new RF walk, on a copy of `graph` that holds no cached RF table."""
    copy = ArchGraph(graph.name, graph.input, graph.nodes, graph.edges)
    return classify(copy, propagate_dag(copy))


class TestRFTable:
    @pytest.mark.parametrize("name", ZOO_VARIANTS)
    def test_every_way_to_a_size_matches_a_walk(self, name):
        base = build_named(name)
        classify(base)
        layers = [(n.id, n.kind) for n in base.nodes]
        for size in SWEEP_SIZES:
            spec = InputSpec(size, size, 3)
            expected = walked(base.with_input(spec))
            fresh = make_graph(name, spec, layers, base.edges)  # shares nothing with `base`
            sibling = build_named(name, spec)  # shares the structure, not the table
            resized = base.with_input(spec)  # carries the table
            for graph in (fresh, sibling, resized):
                assert classify(graph) == expected, (size, graph)
                assert classify(graph) == expected, (size, graph)  # a repeat reads the kept table

    def test_random_graphs_resized_match_a_walk(self):
        for seed in range(300):
            graph = random_graph(seed)
            classify(graph)
            for size in (1, 8, 3 * seed + 2):
                resized = graph.with_input(InputSpec(size, size + 1, 3))
                assert classify(resized) == walked(resized), (seed, size)

    def test_caller_annotations_are_not_read(self):
        # Another graph's walk, passed as `annotations`, neither enters the report nor the kept table.
        noskip = build_named("resnet18-noskip")
        report = classify(noskip, propagate_dag(build_named("resnet18")))
        assert report == classify(build_named("resnet18-noskip"))
        assert (report.border_min, report.border_max) == (5, 5)
        assert classify(noskip.with_input(InputSpec(64, 64, 3))).border_min == 8

    def test_a_frontier_error_is_never_kept(self, monkeypatch):
        g = build_named("mpnet18")  # each block's add merges a 3x3 and a 7x7 path: two states
        monkeypatch.setattr(rf_analysis, "FRONTIER_CAP", 1)
        for _ in range(2):
            with pytest.raises(FrontierLimitError, match="'s1m1_add'"):
                classify(g)
        monkeypatch.undo()
        report = classify(g)
        # The cap applies when a graph's receptive fields are first computed.
        monkeypatch.setattr(rf_analysis, "FRONTIER_CAP", 1)
        assert classify(g) == classify(g.with_input(g.input)) == report
