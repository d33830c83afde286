import pytest

from rfscope import zoo
from rfscope import (
    Add,
    BatchNorm,
    Conv2d,
    Dense,
    GlobalAvgPool,
    InputSpec,
    Pool,
    Softmax,
    build_named,
    classify,
    cost_report,
    propagate_shapes,
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
    assert sum(type(n.kind) is Conv2d for n in build_named(name).nodes) == n_convs


def test_vgg16_has_five_pools_and_single_dense_head():
    g = build_named("vgg16")
    kinds = [type(n.kind) for n in g.nodes]
    assert kinds.count(Pool) == 5
    assert kinds.count(Dense) == 1
    assert isinstance(g.node_map[g.order[-1]].kind, Softmax)
    assert isinstance(g.node_map["gap"].kind, GlobalAvgPool)


def test_builders_are_referentially_transparent():
    for name in ("vgg16", "resnet34", "mpnet36"):
        assert build_named(name) == build_named(name)


def test_distinct_specs_differ():
    assert build_named("resnet18") != build_named("resnet18-noskip")
    assert build_named("vgg16") != build_named("vgg16", num_classes=100)


def test_num_classes_sets_head_width():
    g = build_named("vgg11", num_classes=42)
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
        return {
            node.id: c.params
            for node, c in zip(graph.nodes, propagate_shapes(graph).values())
            if isinstance(node.kind, Conv2d)
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
    dilated = build_named("vgg19-dil3")  # vgg19, dilation 3, every other option at its default
    assert dilated.name == "vgg19-dil3" and len(classify(dilated).per_conv) == 16
    assert {n.kind.dilation for n in dilated.nodes if isinstance(n.kind, Conv2d)} == {3}
    plain = build_named("resnet18-noskip-nostem")  # resnet18 without skips and without stem downsampling
    assert plain.name == "resnet18-noskip-nostem" and len(classify(plain).per_conv) == 17
    assert not any(isinstance(n.kind, Add) for n in plain.nodes)
    assert plain.node_map["stem_conv"].kind.stride == 1 and "stem_pool" not in plain.node_map
    with pytest.raises(ValueError):
        build_named("alexnet")
    with pytest.raises(ValueError):
        build_named("vgg16-noskip")  # skip toggles are resnet-only


def test_option_validation():
    with pytest.raises(ValueError):
        build_named("mpnet18-dil2")
    with pytest.raises(ValueError):
        build_named("vgg16-noskip")
    with pytest.raises(ValueError):
        build_named("vgg16", num_classes=1)


FAMILY_LIST = "vgg11, vgg13, vgg16, vgg19, resnet18, resnet34, mpnet18, mpnet36"


def test_build_named_canonical_names_and_error_order():
    # The graph takes the canonical name: family, -dilN unless N is 1, -noskip, -nostem.
    for name, canonical in [
        ("resnet18-nostem-noskip", "resnet18-noskip-nostem"),
        ("vgg11-dil1", "vgg11"),
        ("vgg11-dil2-dil3", "vgg11-dil3"),  # the last dilation wins
    ]:
        assert build_named(name).name == canonical
        assert build_named(name) == build_named(canonical)
    # Each case would trip every later check too, so each text also pins the order of the six.
    for name, num_classes, message in [
        (
            "alexnet-dil0-noskip",
            1,
            f"unknown zoo model 'alexnet-dil0-noskip'; families: {FAMILY_LIST} (options: -dilN, -noskip, -nostem)",
        ),
        ("mpnet18-dil0-noskip-nostem", 1, "num_classes must be >= 2, got 1"),
        ("mpnet18-dil0-noskip-nostem", 2, "dilation must be >= 1, got 0"),
        ("mpnet18-dil2-noskip-nostem", 10, "-dilN is a vgg-only option"),
        ("vgg11-noskip-nostem", 10, "-noskip is a resnet-only option"),
        ("vgg11-nostem", 10, "-nostem is a resnet-only option"),
    ]:
        with pytest.raises(ValueError) as caught:
            build_named(name, num_classes=num_classes)
        assert str(caught.value) == message


def test_custom_input_size():
    g = build_named("vgg16", InputSpec(64, 48, 3))
    assert g.input == InputSpec(64, 48, 3)
    assert g.input.resolution == 64


def test_sizes_and_spellings_of_one_structure_share_its_tuples():
    base = build_named("resnet18-noskip-nostem")
    for sibling in (
        build_named("resnet18-noskip-nostem", InputSpec(224, 224, 3)),
        build_named("resnet18-nostem-noskip", InputSpec(64, 48, 3)),
    ):
        assert sibling.nodes is base.nodes and sibling.edges is base.edges
    assert build_named("vgg19-dil1").nodes is build_named("vgg19").nodes


def test_num_classes_and_options_are_part_of_the_structure_key():
    wide = build_named("vgg11", num_classes=100)  # built first, so a key without num_classes would keep its head
    narrow = build_named("vgg11")
    assert (wide.node_map["fc"].kind.units, narrow.node_map["fc"].kind.units) == (100, 10)
    assert wide.nodes is not narrow.nodes
    # 2 and 2.0 are equal keys to the memo, so only an int reaches it: a float or bool width is refused at the call.
    assert type(build_named("vgg11", num_classes=2).node_map["fc"].kind.units) is int
    for bad in (2.0, True):
        with pytest.raises(ValueError, match=rf"^num_classes must be an integer >= 2, got {bad!r}$"):
            build_named("vgg11", num_classes=bad)
    for names in (("resnet18", "resnet18-noskip", "resnet18-nostem"), ("vgg19", "vgg19-dil2", "vgg19-dil3")):
        graphs = [build_named(name) for name in names]
        assert len({id(g.nodes) for g in graphs}) == 3, names


def test_the_structure_memo_is_bounded():
    maxsize = zoo._structure.cache_info().maxsize
    assert maxsize is not None
    for num_classes in range(2, maxsize + 12):
        build_named("vgg11", num_classes=num_classes)
    assert zoo._structure.cache_info().currsize == maxsize


def test_each_call_returns_a_new_graph_with_empty_caches():
    first = build_named("mpnet18")
    classify(first)
    cost_report(first)
    assert first.__dict__
    second = build_named("mpnet18")
    assert second is not first and second == first
    assert second.__dict__ == {}
