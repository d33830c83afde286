import inspect
import json

import pytest

from dagtools import random_graph

from rfscope import (
    Activation,
    Add,
    Attention,
    BatchNorm,
    Concat,
    Conv2d,
    Dense,
    DocumentError,
    DocumentSemanticError,
    GlobalAvgPool,
    Input,
    InputSpec,
    Pool,
    Softmax,
    build_named,
    make_graph,
    parse,
    parse_document,
    serialize,
    serialize_document,
    validate,
)
from rfscope.archjson import _KIND_TAGS, _parse_layer
from rfscope.graph_ir import _KIND_FIELDS, LAYER_KINDS

ZOO_NAMES = (
    "vgg11",
    "vgg13",
    "vgg16",
    "vgg19",
    "resnet18",
    "resnet34",
    "mpnet18",
    "mpnet36",
    "resnet18-noskip",
    "vgg19-dil3",
)


# One instance per kind tag with every field set away from its default.
NON_DEFAULT_KINDS = {
    "input": Input(),
    "conv2d": Conv2d(kernel=5, filters=7, stride=2, dilation=3, padding=1, bias=False),
    "pool": Pool(mode="avg", kernel=3, stride=2, padding=1),
    "global_avg_pool": GlobalAvgPool(),
    "dense": Dense(units=12, bias=False),
    "add": Add(),
    "concat": Concat(),
    "batch_norm": BatchNorm(),
    "activation": Activation("sigmoid"),
    "attention": Attention("cbam"),
    "softmax": Softmax(),
}


def minimal_doc():
    return {
        "name": "tiny",
        "input": {"height": 8, "width": 8, "channels": 3},
        "layers": [
            {"id": "input", "kind": "input"},
            {"id": "c1", "kind": "conv2d", "kernel": 3, "filters": 4},
            {"id": "fc", "kind": "dense", "units": 2},
        ],
        "edges": [["input", "c1"], ["c1", "fc"]],
    }


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_round_trip_zoo(name):
    g = build_named(name)
    assert parse(serialize(g)) == g


def test_round_trip_random_graphs():
    for seed in range(100):
        g = random_graph(seed)
        assert parse(serialize(g)) == g, g.name


def test_serialize_is_stable_text():
    g = build_named("vgg16")
    assert serialize(g) == serialize(g)
    assert serialize(g).endswith("\n")


def test_accepts_bytes_and_str():
    g = build_named("vgg11")
    text = serialize(g)
    assert parse(text) == parse(text.encode("utf-8"))


def test_defaults_fill_optional_conv_fields():
    g = parse(json.dumps(minimal_doc()))
    assert g.node_map["c1"].kind == Conv2d(kernel=3, filters=4, stride=1, dilation=1, padding="same", bias=True)


def test_every_kind_tag_has_a_case():
    assert set(NON_DEFAULT_KINDS) == set(_KIND_TAGS)
    assert all(type(kind) is _KIND_TAGS[tag] for tag, kind in NON_DEFAULT_KINDS.items())


@pytest.mark.parametrize("tag", sorted(NON_DEFAULT_KINDS))
def test_defaults_fill_optional_fields(tag):
    kind = NON_DEFAULT_KINDS[tag]
    parameters = inspect.signature(type(kind)).parameters.values()
    required = {p.name: getattr(kind, p.name) for p in parameters if p.default is p.empty}
    assert _parse_layer(0, {"id": "x", "kind": tag, **required}) == ("x", type(kind)(**required))


def test_declaration_index_is_array_position():
    doc = minimal_doc()
    g = parse(json.dumps(doc))
    assert [(n.id, n.declaration_index) for n in g.nodes] == [("input", 0), ("c1", 1), ("fc", 2)]
    # Array order must be topological: listing fc before c1 (same edges) is rejected.
    doc["layers"] = [doc["layers"][0], doc["layers"][2], doc["layers"][1]]
    with pytest.raises(DocumentSemanticError) as err:
        parse(json.dumps(doc))
    assert [str(v) for v in err.value.violations] == ["[declaration_order] c1->fc: 'c1' is not declared before 'fc'"]


def test_missing_required_key_names_the_layer():
    doc = minimal_doc()
    del doc["layers"][1]["kernel"]
    with pytest.raises(DocumentError) as err:
        parse(json.dumps(doc))
    assert "layers[1]" in str(err.value) and "c1" in str(err.value) and "kernel" in str(err.value)


def test_unknown_key_rejected_with_path():
    doc = minimal_doc()
    doc["layers"][1]["kernell"] = 3
    with pytest.raises(DocumentError) as err:
        parse(json.dumps(doc))
    assert "kernell" in str(err.value)


def test_unknown_kind_rejected():
    doc = minimal_doc()
    doc["layers"][1]["kind"] = "conv3d"
    with pytest.raises(DocumentError) as err:
        parse(json.dumps(doc))
    assert "conv3d" in str(err.value)


@pytest.mark.parametrize("kind", [["conv2d"], {"conv2d": 1}, None, 3])
def test_kind_that_is_not_a_string_is_a_document_error(kind):
    doc = minimal_doc()
    doc["layers"][1]["kind"] = kind
    with pytest.raises(DocumentError) as err:
        parse(json.dumps(doc))
    assert err.value.path.endswith(".kind")
    assert "unknown kind" in str(err.value)


def test_non_square_kernel_is_a_layer_fields_violation():
    doc = minimal_doc()
    doc["layers"][1]["kernel"] = [3, 5]
    with pytest.raises(DocumentSemanticError) as err:
        parse(json.dumps(doc))
    assert [str(v) for v in err.value.violations] == ["[layer_fields] c1: kernel must be a positive square scalar, got [3, 5]"]


def test_every_bad_field_of_a_layer_is_reported():
    doc = minimal_doc()
    doc["layers"][1].update(kernel=None, bias="yes")
    with pytest.raises(DocumentSemanticError) as err:
        parse(json.dumps(doc))
    assert [str(v) for v in err.value.violations] == [
        "[layer_fields] c1: kernel must be a positive square scalar, got None",
        "[layer_fields] c1: bias must be a boolean, got 'yes'",
    ]


def _pool_layer(**fields):
    return {"id": "p1", "kind": "pool", "mode": "max", "kernel": 2, "stride": 2, **fields}


@pytest.mark.parametrize(
    "edit,message",
    [
        (
            lambda doc: doc["layers"][1].update(kernel=1.5),
            "graph validation failed: [layer_fields] c1: kernel must be a positive square scalar, got 1.5",
        ),
        (
            lambda doc: doc["layers"].insert(2, _pool_layer(stride=1.5)),
            "graph validation failed: [layer_fields] p1: stride must be a positive square scalar, got 1.5",
        ),
        (lambda doc: doc["input"].update(height=1.5), "$.input: input height must be a positive integer, got 1.5"),
        (
            lambda doc: doc["layers"].insert(2, _pool_layer(padding=1.5)),
            "graph validation failed: [layer_fields] p1: padding must be an integer >= 0, got 1.5",
        ),
        (
            lambda doc: doc["layers"][2].update(units=1.5),
            "graph validation failed: [layer_fields] fc: units must be a positive integer, got 1.5",
        ),
    ],
    ids=["conv-kernel", "pool-stride", "input-height", "pool-padding", "dense-units"],
)
def test_only_square_fields_mention_squareness(edit, message):
    doc = minimal_doc()
    edit(doc)
    with pytest.raises(DocumentError) as err:
        parse_document(doc)
    assert str(err.value) == message


def test_unknown_edge_target_is_semantic_error():
    doc = minimal_doc()
    doc["edges"].append(["fc", "nowhere"])
    with pytest.raises(DocumentSemanticError) as err:
        parse(json.dumps(doc))
    assert any("unknown" in v.message for v in err.value.violations)


def test_cycle_is_semantic_error():
    doc = minimal_doc()
    doc["edges"].append(["fc", "c1"])
    with pytest.raises(DocumentSemanticError) as err:
        parse(json.dumps(doc))
    assert [str(v) for v in err.value.violations] == ["[declaration_order] fc->c1: 'fc' is not declared before 'c1'"]


def test_syntax_error_reports_position():
    with pytest.raises(DocumentError) as err:
        parse('{"name": "x",\n  "oops"')
    assert "line 2" in str(err.value)


def test_overlong_integer_is_a_document_error():
    with pytest.raises(DocumentError, match="number cannot be decoded"):
        parse('{"name": ' + "1" * 5000 + "}")


def test_unknown_top_level_key():
    doc = minimal_doc()
    doc["version"] = 2
    with pytest.raises(DocumentError) as err:
        parse(json.dumps(doc))
    assert "$.version" in str(err.value)


def test_bad_input_spec():
    doc = minimal_doc()
    doc["input"]["height"] = 0
    with pytest.raises(DocumentError) as err:
        parse(json.dumps(doc))
    assert "height" in str(err.value)


@pytest.mark.parametrize("tag", sorted(NON_DEFAULT_KINDS))
def test_serialize_document_lists_every_field(tag):
    kind = NON_DEFAULT_KINDS[tag]
    (layer,) = serialize_document(make_graph("one", InputSpec(8, 8, 3), [("x", kind)], []))["layers"]
    assert list(layer) == ["id", "kind"] + list(kind._fields)
    assert layer == {"id": "x", "kind": tag, **{name: getattr(kind, name) for name in kind._fields}}
    assert _parse_layer(0, layer) == ("x", kind)
    assert list(_KIND_FIELDS[type(kind)]) == list(kind._fields)
    assert len(_KIND_TAGS) == len(LAYER_KINDS) and set(_KIND_TAGS.values()) == LAYER_KINDS


# JSON values to put in each field: wrong types, out-of-range values and valid ones.
FIELD_VALUES = [None, True, False, 0, -1, 3, 1.5, float("nan"), 1e308, 2**63, 10**400]
FIELD_VALUES += ["", "x", "yes", "conv2d", "same", "valid", "avg", "cbam", [], {}]


@pytest.mark.parametrize(
    "tag,field", [(tag, field) for tag, kind in sorted(NON_DEFAULT_KINDS.items()) for field in kind._fields]
)
def test_validate_accepts_exactly_the_fields_parse_accepts(tag, field):
    disagreements = []
    for value in FIELD_VALUES:
        kind = NON_DEFAULT_KINDS[tag]._replace(**{field: value})
        graph = make_graph("one", InputSpec(8, 8, 3), [("input", Input()), ("x", kind)], [("input", "x")])
        try:
            parsed = parse(serialize(graph))
        except DocumentError:
            parsed = None
        if (validate(graph) == []) != (parsed is not None):
            disagreements.append(value)
        assert parsed is None or parsed == graph
    assert disagreements == []


def test_parse_document_on_decoded_object():
    assert parse_document(minimal_doc()).name == "tiny"
