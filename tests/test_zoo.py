import pytest

from rfscope import (
    Add,
    BatchNorm,
    Conv2d,
    Dense,
    GlobalAvgPool,
    InputSpec,
    Pool,
    Softmax,
    ZooSpec,
    build,
    build_named,
    cost_report,
    parse_zoo_name,
    validate,
)

ALL_NAMES = (
    "vgg11",
    "vgg13",
    "vgg16",
    "vgg19",
    "resnet18",
    "resnet34",
    "mpnet18",
    "mpnet36",
    "resnet18-noskip",
    "resnet34-noskip",
    "resnet18-nostem",
    "vgg19-dil3",
)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_builders_validate(name):
    assert validate(build_named(name)) == []


@pytest.mark.parametrize(
    "name,n_convs",
    [
        ("vgg11", 8),
        ("vgg13", 10),
        ("vgg16", 13),
        ("vgg19", 16),
        ("resnet18", 20),  # 1 stem + 16 block convs + 3 projections
        ("resnet18-noskip", 17),
        ("resnet34", 36),  # 1 + 32 + 3 projections
        ("resnet34-noskip", 33),
        ("mpnet18", 16),
        ("mpnet36", 48),
    ],
)
def test_conv_counts(name, n_convs):
    assert len(build_named(name).conv_ordinals) == n_convs


def test_vgg16_has_five_pools_and_single_dense_head():
    g = build_named("vgg16")
    kinds = [type(n.kind) for n in g.nodes]
    assert kinds.count(Pool) == 5
    assert kinds.count(Dense) == 1
    assert isinstance(g.node_map[g.sink_id].kind, Softmax)
    assert isinstance(g.node_map["gap"].kind, GlobalAvgPool)


def test_builders_are_referentially_transparent():
    for name in ("vgg16", "resnet34", "mpnet36"):
        assert build_named(name) == build_named(name)


def test_distinct_specs_differ():
    assert build_named("resnet18") != build_named("resnet18-noskip")
    assert build(ZooSpec("vgg16")) != build(ZooSpec("vgg16", num_classes=100))


def test_num_classes_sets_head_width():
    g = build(ZooSpec("vgg11", num_classes=42))
    assert g.node_map["fc"].kind == Dense(units=42, bias=True)


def test_dilation_applies_to_every_vgg_conv():
    g = build_named("vgg19-dil3")
    convs = [n.kind for n in g.nodes if isinstance(n.kind, Conv2d)]
    assert convs and all(k.dilation == 3 for k in convs)


def test_resnet_stem_shape():
    g = build_named("resnet18")
    stem = g.node_map["stem_conv"].kind
    assert (stem.kernel, stem.stride, stem.filters) == (7, 2, 64)
    pool = g.node_map["stem_pool"].kind
    assert (pool.kernel, pool.stride, pool.padding) == (3, 2, 1)


def test_resnet_nostem_variant():
    g = build_named("resnet18-nostem")
    assert g.node_map["stem_conv"].kind.stride == 1
    assert "stem_pool" not in g.node_map


def test_resnet_projection_blocks():
    g = build_named("resnet18")
    projections = [n.id for n in g.nodes if n.id.endswith("_proj")]
    assert projections == ["s2b1_proj", "s3b1_proj", "s4b1_proj"]
    assert all(g.node_map[p].kind.kernel == 1 and g.node_map[p].kind.stride == 2 for p in projections)


def test_noskip_removes_adds_and_projections():
    g = build_named("resnet34-noskip")
    assert not any(isinstance(n.kind, Add) for n in g.nodes)
    assert not any(n.id.endswith("_proj") for n in g.nodes)


def test_skip_and_noskip_conv_params_differ_only_by_projections():
    def conv_params(graph):
        report = cost_report(graph)
        return {
            c.node_id: c.params
            for c in report.per_layer
            if isinstance(graph.node_map[c.node_id].kind, Conv2d)
        }

    with_skips = conv_params(build_named("resnet18"))
    without = conv_params(build_named("resnet18-noskip"))
    projections = {nid for nid in with_skips if nid.endswith("_proj")}
    assert {k: v for k, v in with_skips.items() if k not in projections} == without


def test_mpnet_stage_structure():
    g = build_named("mpnet18")
    pools = [n.id for n in g.nodes if isinstance(n.kind, Pool)]
    assert pools == ["s1_pool", "s2_pool", "s3_pool", "s4_pool"]
    assert all(g.node_map[p].kind.stride == 2 for p in pools)
    filters = {s: g.node_map[f"s{s}m1_k3_conv"].kind.filters for s in range(1, 5)}
    assert filters == {1: 64, 2: 128, 3: 256, 4: 512}
    # Both paths feed the merge; convolutions carry batch norm and relu.
    assert set(g.predecessors["s1m1_add"]) == {"s1m1_k3_relu", "s1m1_k7a_relu"}
    assert isinstance(g.node_map["s1m1_k3_bn"].kind, BatchNorm)


def test_mpnet36_wide_path_is_two_convs_deep():
    g = build_named("mpnet36")
    assert "s1m1_k7b_conv" in g.node_map
    assert set(g.predecessors["s1m1_add"]) == {"s1m1_k3_relu", "s1m1_k7b_relu"}


def test_zoo_name_parsing():
    assert parse_zoo_name("vgg19-dil3") == {"family": "vgg19", "dilation": 3}
    assert parse_zoo_name("resnet18-noskip-nostem") == {
        "family": "resnet18",
        "skips_enabled": False,
        "stem_downsampling": False,
    }
    with pytest.raises(ValueError):
        parse_zoo_name("alexnet")
    with pytest.raises(ValueError):
        build_named("vgg16-noskip")  # skip toggles are resnet-only


def test_option_validation():
    with pytest.raises(ValueError):
        ZooSpec("mpnet18", dilation=2)
    with pytest.raises(ValueError):
        ZooSpec("vgg16", skips_enabled=False)
    with pytest.raises(ValueError):
        ZooSpec("vgg16", num_classes=1)


def test_custom_input_size():
    g = build(ZooSpec("vgg16", input=InputSpec(64, 48, 3)))
    assert g.input == InputSpec(64, 48, 3)
    assert g.input.resolution == 64
