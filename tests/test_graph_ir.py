import pytest

from dagtools import (
    ZOO_VARIANTS,
    chain_graph,
    count_validations,
    mutated_graph,
    random_graph,
    reachability_walks,
    successors,
    validate_by_passes,
)
from rfscope import (
    Activation,
    Add,
    ArchGraph,
    Conv2d,
    Dense,
    GlobalAvgPool,
    GraphValidationError,
    Input,
    InputSpec,
    LayerNode,
    Pool,
    Softmax,
    build_named,
    classify,
    cost_report,
    make_graph,
    parse,
    propagate_dag,
    propagate_shapes,
    remove_stem_downsampling,
    serialize,
    topological_order,
    truncate_at_border,
    unproductive_closure,
    validate,
)

IN8 = InputSpec(8, 8, 3)


class WideConv(Conv2d):
    """A subclass is not a layer kind: the analyses dispatch on the exact class."""


def diamond(merge_first="a"):
    """Input fans out to convs a and b, merged by an Add; `merge_first` is declared earlier."""
    a = ("a", Conv2d(kernel=3, filters=4, bias=False))
    b = ("b", Conv2d(kernel=7, filters=4, bias=False))
    order = [a, b] if merge_first == "a" else [b, a]
    layers = [("input", Input())] + order + [("add", Add())]
    edges = [("input", "a"), ("input", "b"), ("a", "add"), ("b", "add")]
    return make_graph("diamond", IN8, layers, edges)


class TestInputSpec:
    def test_resolution_is_max_side(self):
        assert InputSpec(32, 48, 3).resolution == 48
        assert InputSpec(48, 32, 3).resolution == 48

    @pytest.mark.parametrize("bad", [dict(height=0, width=8, channels=3), dict(height=8, width=8, channels=0)])
    def test_rejects_nonpositive_dims(self, bad):
        with pytest.raises(ValueError):
            InputSpec(**bad)


class TestValidate:
    def test_minimal_chain_is_ok(self):
        g = chain_graph("tiny", IN8, [("c1", Conv2d(kernel=3, filters=4)), ("fc", Dense(units=2))])
        assert validate(g) == []

    def test_cycle_is_reported(self):
        layers = [("input", Input()), ("a", Add()), ("b", Conv2d(kernel=3, filters=3)), ("c", Conv2d(kernel=3, filters=3))]
        edges = [("input", "a"), ("a", "b"), ("b", "a"), ("b", "c")]
        g = make_graph("cyclic", IN8, layers, edges)
        assert [str(v) for v in validate(g)] == ["[declaration_order] b->a: 'b' is not declared before 'a'"]

    def test_self_edge_is_not_declared_before_itself(self):
        layers = [("input", Input()), ("c1", Conv2d(kernel=3, filters=3))]
        g = make_graph("loop", IN8, layers, [("input", "c1"), ("c1", "c1")])
        assert [str(v) for v in validate(g)] == ["[declaration_order] c1->c1: 'c1' is not declared before 'c1'"]

    def test_merge_with_single_predecessor(self):
        g = chain_graph("bad-merge", IN8, [("c1", Conv2d(kernel=3, filters=4)), ("add", Add())])
        violations = validate(g)
        assert any(v.rule == "merge_arity" and v.subject == "add" for v in violations)
        assert any("arity < 2" in v.message for v in violations)

    def test_duplicate_ids(self):
        layers = [("input", Input()), ("c", Conv2d(kernel=3, filters=4)), ("c", Activation("relu"))]
        g = make_graph("dup", IN8, layers, [("input", "c"), ("c", "c")])
        assert any(v.rule == "unique_ids" for v in validate(g))

    def test_edge_to_unknown_node(self):
        g = chain_graph("ghost", IN8, [("c1", Conv2d(kernel=3, filters=4))])
        g = make_graph("ghost", IN8, [(n.id, n.kind) for n in g.nodes], list(g.edges) + [("c1", "nope")])
        assert any(v.rule == "edge_endpoints" and "nope" in v.message for v in validate(g))

    def test_two_inputs_rejected(self):
        layers = [("in1", Input()), ("in2", Input()), ("add", Add())]
        g = make_graph("twin", IN8, layers, [("in1", "add"), ("in2", "add")])
        assert [str(v) for v in validate(g)] == ["[single_input] twin: expected exactly one Input node, found 2"]

    def test_two_sinks_rejected(self):
        layers = [("input", Input()), ("a", Conv2d(kernel=3, filters=4)), ("b", Conv2d(kernel=3, filters=4))]
        g = make_graph("fork", IN8, layers, [("input", "a"), ("input", "b")])
        assert [str(v) for v in validate(g)] == ["[single_sink] fork: expected exactly one sink node, found 2: ['a', 'b']"]

    WIDTHS = [
        ("input", Input()),
        ("a", Conv2d(kernel=3, filters=16, bias=False)),
        ("b", Conv2d(kernel=3, filters=8, bias=False)),
        ("add", Add()),
    ]
    WIDTHS_EDGES = [("input", "a"), ("input", "b"), ("a", "add"), ("b", "add")]

    def test_add_channel_mismatch(self):
        g = make_graph("widths", IN8, self.WIDTHS, self.WIDTHS_EDGES)
        assert [str(v) for v in validate(g)] == [
            "[merge_channels] add: element-wise add over unequal channel counts [8, 16]"
        ]

    def test_channel_rule_waits_for_a_later_arity_break(self):
        # The channel mismatch at `add` comes first in node order, but an arity rule broken later holds it back.
        g = make_graph("widths", IN8, self.WIDTHS + [("tail", Add())], self.WIDTHS_EDGES + [("add", "tail")])
        assert [str(v) for v in validate(g)] == ["[merge_arity] tail: merge arity < 2 (got 1)"]

    def test_non_square_kernel_rejected(self):
        g = chain_graph("rect", IN8, [("c1", Conv2d(kernel=(3, 5), filters=4))])
        bad = [v for v in validate(g) if v.rule == "layer_fields"]
        assert bad and "square" in bad[0].message

    def test_field_violations_follow_field_order(self):
        conv = Conv2d(kernel=0, filters=0, stride=0, dilation=0, padding=-1, bias="yes")
        g = chain_graph("bad", IN8, [("c1", conv), ("act", Activation(3))])
        assert [(v.rule, v.subject, v.message) for v in validate(g)] == [
            ("layer_fields", "c1", "kernel must be a positive square scalar, got 0"),
            ("layer_fields", "c1", "filters must be a positive integer, got 0"),
            ("layer_fields", "c1", "stride must be a positive square scalar, got 0"),
            ("layer_fields", "c1", "dilation must be an integer >= 1, got 0"),
            ("layer_fields", "c1", "padding must be 'same', 'valid', or an integer >= 0, got -1"),
            ("layer_fields", "c1", "bias must be a boolean, got 'yes'"),
            ("layer_fields", "act", "name must be a string, got 3"),
        ]

    def test_unreachable_node_rejected(self):
        layers = [("input", Input()), ("c1", Conv2d(kernel=3, filters=4)), ("loose", Activation())]
        g = make_graph("island", IN8, layers, [("input", "c1"), ("loose", "c1")])
        assert [(v.rule, v.subject, v.message) for v in validate(g)] == [
            ("declaration_order", "loose->c1", "'loose' is not declared before 'c1'"),
        ]

    def test_nodes_out_of_declaration_order_rejected(self):
        nodes = (LayerNode("c1", Conv2d(3, 4), 1), LayerNode("input", Input(), 0))
        g = ArchGraph("perm", IN8, nodes, (("input", "c1"),))
        assert [str(v) for v in validate(g)] == [
            "[declaration_order] perm: node 'c1' is at position 0 but has declaration index 1",
            "[declaration_order] input->c1: 'input' is not declared before 'c1'",
        ]

    def test_input_with_a_predecessor_breaks_an_arity_rule(self):
        layers = [("c0", Conv2d(3, 4)), ("input", Input()), ("c1", Conv2d(3, 4))]
        g = make_graph("fed-input", IN8, layers, [("c0", "input"), ("input", "c1")])
        assert [str(v) for v in validate(g)] == ["[unary_arity] c0: expected exactly one predecessor, got 0"]

    def test_other_rules_reject_an_input_with_a_predecessor(self):
        # No in-degree rule is checked for the Input: walking predecessors back
        # from it meets a backward edge, a second Input or a layer with none.
        fed = 0
        for seed in range(2000):
            graph = mutated_graph(seed)
            rules = {v.rule for v in validate(graph)}
            if "edge_endpoints" in rules:  # validate stops before its degree rules
                continue
            if any(graph.predecessors[n.id] for n in graph.nodes if isinstance(n.kind, Input)):
                fed += 1
                assert rules & {"single_input", "unary_arity", "merge_arity", "declaration_order"}, graph.name
        assert fed

    def test_arity_rules_imply_reachability(self):
        # Every node a reachability walk misses breaks an Input or arity rule,
        # and on an accepted graph the walks miss nothing.
        missed, accepted = 0, 0
        for seed in range(2000):
            graph = mutated_graph(seed)
            walks = reachability_walks(graph)
            rules = {v.rule for v in validate(graph)}
            if walks:
                missed += 1
                assert rules & {"single_input", "unary_arity", "merge_arity"}, graph.name
            if not rules:
                accepted += 1
                assert walks == [], graph.name
        assert missed and accepted

    def test_one_walk_matches_the_passes(self):
        # Rule, subject, message and order all match the separate passes `validate` once made.
        graphs = [mutated_graph(seed) for seed in range(2000)]
        graphs += [random_graph(seed, shape_safe=safe) for seed in range(500) for safe in (False, True)]
        graphs += [build_named(name) for name in ZOO_VARIANTS]
        rules = set()
        for g in graphs:
            violations = validate(g)
            assert violations == validate_by_passes(g), g.name
            rules.update(v.rule for v in violations)
        assert {"single_input", "single_sink", "unary_arity", "merge_arity", "merge_channels"} <= rules

    @pytest.mark.parametrize("kind", [object(), WideConv(kernel=3, filters=4)], ids=["object", "conv-subclass"])
    def test_only_the_layer_kind_classes_are_kinds(self, kind):
        layers = [("c1", Conv2d(kernel=3, filters=4)), ("odd", kind), ("c2", Conv2d(kernel=3, filters=4))]
        g = chain_graph("odd", InputSpec(32, 32, 3), layers)
        violations = validate(g)
        assert [(v.rule, v.subject) for v in violations] == [("layer_kind", "odd")]
        assert f"{type(kind).__name__} is not a layer kind" in violations[0].message
        with pytest.raises(GraphValidationError):
            classify(g)

    def test_every_zoo_builder_validates(self):
        for name in ("vgg11", "vgg16", "resnet18", "resnet34", "resnet18-noskip", "mpnet18", "mpnet36", "vgg19-dil3"):
            assert validate(build_named(name)) == [], name


class TestTopologicalOrder:
    def test_chain_order(self):
        g = chain_graph("chain", IN8, [("c1", Conv2d(kernel=3, filters=4)), ("r1", Activation()), ("p1", Pool(mode="max", kernel=2, stride=2))])
        assert topological_order(g) == ["input", "c1", "r1", "p1"]

    def test_declaration_tie_break(self):
        assert topological_order(diamond("a")) == ["input", "a", "b", "add"]
        assert topological_order(diamond("b")) == ["input", "b", "a", "add"]

    def test_stable_across_calls_and_rebuilds(self):
        g1, g2 = diamond(), diamond()
        assert g1 == g2
        assert topological_order(g1) == topological_order(g2) == topological_order(g1)

    def test_is_permutation_and_respects_edges(self):
        g = build_named("resnet18")
        order = topological_order(g)
        assert sorted(order) == sorted(n.id for n in g.nodes)
        position = {nid: i for i, nid in enumerate(order)}
        assert all(position[a] < position[b] for a, b in g.edges)

    def test_rejects_invalid_graph(self):
        g = chain_graph("bad", IN8, [("add", Add())])
        with pytest.raises(GraphValidationError):
            topological_order(g)


class TestGraphEnds:
    @staticmethod
    def assert_ends(g):
        inputs = [n.id for n in g.nodes if isinstance(n.kind, Input)]
        succs = successors(g)
        sinks = [n.id for n in g.nodes if not succs[n.id]]
        assert [g.order[0]] == inputs
        assert [g.order[-1]] == sinks

    @pytest.mark.parametrize("name", ZOO_VARIANTS)
    def test_zoo(self, name):
        self.assert_ends(build_named(name))

    def test_100_random_dags(self):
        for seed in range(100):
            self.assert_ends(random_graph(seed))

    def test_invalid_graph_has_no_sink(self):
        g = chain_graph("bad", IN8, [("c1", Conv2d(kernel=3, filters=4)), ("add", Add())])
        with pytest.raises(GraphValidationError):
            g.order[-1]


class TestConvIndex:
    """Border ordinals, read from the rows of `classify`."""

    @staticmethod
    def ordinals(g):
        return {c.node_id: c.ordinal for c in classify(g).per_conv}

    def test_vgg16_has_13_convs_in_order(self):
        ordinals = self.ordinals(build_named("vgg16"))
        assert len(ordinals) == 13
        assert ordinals["conv1"] == 1 and ordinals["conv13"] == 13
        assert sorted(ordinals.values()) == list(range(1, 14))

    def test_conv_free_graph_is_empty(self):
        g = chain_graph("headonly", IN8, [("gap", GlobalAvgPool()), ("fc", Dense(units=2)), ("sm", Softmax())])
        assert self.ordinals(g) == {}

    def test_mpnet18_interleaves_paths_per_module(self):
        ordinals = self.ordinals(build_named("mpnet18"))
        assert len(ordinals) == 16
        for stage in range(1, 5):
            for module in range(1, 3):
                narrow = ordinals[f"s{stage}m{module}_k3_conv"]
                wide = ordinals[f"s{stage}m{module}_k7a_conv"]
                assert wide == narrow + 1

    def test_dense_and_respects_topological_order(self):
        g = build_named("resnet34")
        ordinals = self.ordinals(g)
        order = {nid: i for i, nid in enumerate(g.order)}
        ranked = sorted(ordinals, key=lambda nid: ordinals[nid])
        assert sorted(ordinals.values()) == list(range(1, len(ordinals) + 1))
        assert ranked == sorted(ranked, key=lambda nid: order[nid])


class TestCachedOrder:
    @pytest.mark.parametrize("name", ZOO_VARIANTS)
    def test_order_is_the_topological_order(self, name):
        g = build_named(name)
        assert list(g.order) == topological_order(g)

    @pytest.mark.parametrize(
        "run",
        [
            propagate_dag,
            classify,
            propagate_shapes,
            cost_report,
            lambda g: unproductive_closure(g, classify(g)),
            lambda g: truncate_at_border(g, 10),
            lambda g: remove_stem_downsampling(g, 1),
        ],
        ids=["propagate_dag", "classify", "propagate_shapes", "cost_report",
             "unproductive_closure", "truncate_at_border", "remove_stem_downsampling"],
    )
    def test_invalid_graph_raises_on_every_call(self, run):
        # A strided conv feeding a one-input add: the merge-arity rule fails.
        g = chain_graph("bad", IN8, [("c1", Conv2d(kernel=3, filters=4, stride=2)), ("add", Add())])
        for _ in range(2):
            with pytest.raises(GraphValidationError):
                run(g)

    def test_graph_is_validated_once(self, monkeypatch):
        g = build_named("resnet34")
        calls = count_validations(monkeypatch)
        classify(g)
        cost_report(g)
        assert len(calls) == 1
        classify(g)
        cost_report(g)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["vgg16", "resnet34", "mpnet18"])
    def test_analysis_builds_no_node_map(self, name):
        # The analyses walk graph.nodes beside graph.order, so no id-to-node map is built for them.
        g = build_named(name)
        classify(g)
        cost_report(g)
        assert "node_map" not in g.__dict__

    def test_parsed_graph_is_validated_once(self, monkeypatch):
        text = serialize(build_named("resnet34"))
        calls = count_validations(monkeypatch)
        g = parse(text)
        classify(g)
        cost_report(g)
        assert calls == [g.name]

    def test_with_input_keeps_the_check_only_while_the_channels_stay(self, monkeypatch):
        # The add joins the input with a 3-filter conv: valid at 3 input channels, not at 4.
        layers = [("input", Input()), ("c", Conv2d(kernel=3, filters=3)), ("add", Add())]
        g = make_graph("skip", IN8, layers, [("input", "c"), ("input", "add"), ("c", "add")])
        g.order
        calls = count_validations(monkeypatch)
        resized = g.with_input(InputSpec(64, 48, 3))
        assert (resized.input, resized.order, calls) == (InputSpec(64, 48, 3), g.order, [])
        with pytest.raises(GraphValidationError, match="merge_channels"):
            g.with_input(InputSpec(8, 8, 4)).order
        assert calls == ["skip"]
        # A graph never checked is resized without a check, even an invalid one.
        unchecked = make_graph("skip", IN8, layers, [("input", "c")])
        assert unchecked.with_input(InputSpec(9, 9, 3)).input == InputSpec(9, 9, 3)
        assert calls == ["skip"]
        # Every cache goes by the same rule, the receptive-field table included: all are kept while the check is.
        classify(g)
        assert g.with_input(InputSpec(2, 2, 3)).__dict__ == g.__dict__
        assert classify(g.with_input(InputSpec(2, 2, 3))).per_conv == classify(g).per_conv
        assert calls == ["skip"]
        with pytest.raises(GraphValidationError, match="merge_channels"):
            classify(g.with_input(InputSpec(2, 2, 4)))
        assert g.with_input(InputSpec(8, 8, 4)).__dict__ == {}
        assert calls == ["skip", "skip"]

    def test_order_reports_the_violations_of_validate(self):
        layers = [("input", Input()), ("a", Add()), ("b", Conv2d(kernel=3, filters=3)), ("c", Conv2d(kernel=3, filters=3))]
        g = make_graph("cyclic", IN8, layers, [("input", "a"), ("a", "b"), ("b", "a"), ("b", "c")])
        with pytest.raises(GraphValidationError) as err:
            g.order
        assert err.value.violations == validate(g)
        assert [v.subject for v in err.value.violations if v.rule == "declaration_order"] == ["b->a"]

    @pytest.mark.parametrize(
        "rewrite",
        [lambda g: truncate_at_border(g, 10), lambda g: remove_stem_downsampling(g, 2)],
        ids=["truncate_at_border", "remove_stem_downsampling"],
    )
    def test_rewrite_validates_input_and_output_once(self, monkeypatch, rewrite):
        g = build_named("resnet34")
        calls = count_validations(monkeypatch)
        after, _ = rewrite(g)
        assert calls == [g.name, after.name]
