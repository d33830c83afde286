"""The result records are immutable values with a stable, field-by-field repr.

Each analysis record comes from a real analysis of a one-conv graph. The
expected strings are the dataclass-style reprs the records have always
printed, so a change of record type cannot change what a user sees. The
twenty class records (layer kinds, graph parts, reports, the zoo request)
also keep the rest of the frozen-dataclass contract: equality within the
exact class, hashing, no assignment, strict constructors, `_replace` through
validation, and copy and pickle.
"""
import copy
import pickle

import pytest

from rfscope import Conv2d, InputSpec, chain_graph, classify, cost_report, propagate_dag, propagate_shapes

STATE = "RFState(r=3, j=2, global_rf=False)"
SHAPE = "ShapeInfo(node_id='c1', out_height=4, out_width=4, out_channels=4)"
CONV = "ConvClassification(ordinal=1, node_id='c1', r_in_min=1, r_in_max=1, classification='productive')"
INPUT_COST = (
    "LayerCost(node_id='input', params=0, macs=0, "
    "out_shape=ShapeInfo(node_id='input', out_height=8, out_width=8, out_channels=3))"
)
CONV_COST = f"LayerCost(node_id='c1', params=112, macs=1728, out_shape={SHAPE})"

RECORDS = {
    "RFState": (lambda a: a["annotations"]["c1"].out_frontier[0], STATE),
    "RFAnnotation": (
        lambda a: a["annotations"]["c1"],
        "RFAnnotation(node_id='c1', in_frontier=(RFState(r=1, j=1, global_rf=False),), "
        f"out_frontier=({STATE},), r_in_min=1, r_in_max=1, r_out_min=3, r_out_max=3)",
    ),
    "ConvClassification": (lambda a: a["border"].per_conv[0], CONV),
    "ShapeInfo": (lambda a: a["shapes"]["c1"], SHAPE),
    "LayerCost": (lambda a: a["cost"].per_layer[1], CONV_COST),
    "BorderReport": (
        lambda a: a["border"],
        f"BorderReport(resolution=8, per_conv=({CONV},), border_min=None, border_max=None, "
        "border_min_node=None, border_max_node=None)",
    ),
    "CostReport": (
        lambda a: a["cost"],
        f"CostReport(per_layer=({INPUT_COST}, {CONV_COST}), total_params=112, total_macs=1728)",
    ),
}


@pytest.fixture(scope="module")
def analysis():
    g = chain_graph("one-conv", InputSpec(8, 8, 3), [("c1", Conv2d(kernel=3, filters=4, stride=2))])
    annotations = propagate_dag(g)
    shapes = propagate_shapes(g)
    return {
        "annotations": annotations,
        "border": classify(g, annotations),
        "shapes": shapes,
        "cost": cost_report(g, shapes=shapes),
    }


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable_with_a_stable_repr(analysis, name):
    pick, expected = RECORDS[name]
    record = pick(analysis)
    assert type(record).__name__ == name
    assert repr(record) == expected
    for field in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


# The class records: the eleven layer kinds, the graph and its parts, the reports and the zoo request.
def class_records():
    from rfscope import (
        Activation,
        Add,
        ArchGraph,
        Attention,
        BatchNorm,
        Concat,
        Dense,
        GlobalAvgPool,
        Input,
        LayerNode,
        Pool,
        Softmax,
        Violation,
        ZooSpec,
        build_named,
        compare,
        truncate_at_border,
    )

    graph = chain_graph("one-conv", InputSpec(8, 8, 3), [("c1", Conv2d(kernel=3, filters=4, stride=2))])
    vgg = build_named("vgg11")
    _, delta = truncate_at_border(vgg, 10)
    comparison = compare(vgg, build_named("vgg13"))
    return [
        Conv2d(3, 4),
        Pool("max", 2, 2),
        GlobalAvgPool(),
        Dense(10),
        Add(),
        Concat(),
        BatchNorm(),
        Activation(),
        Attention("se"),
        Input(),
        Softmax(),
        InputSpec(8, 8, 3),
        LayerNode("c1", Conv2d(3, 4), 1),
        Violation("unique_ids", "c1", "duplicate node id"),
        ArchGraph(graph.name, graph.input, graph.nodes, graph.edges),
        classify(graph),
        cost_report(graph),
        delta,
        comparison,
        ZooSpec("resnet18", skips_enabled=False),
    ]


CLASS_RECORDS = class_records()
CLASS_IDS = [type(record).__name__ for record in CLASS_RECORDS]


def test_every_class_record_is_covered():
    from rfscope.graph_ir import _Record

    assert len(CLASS_RECORDS) == 20
    assert {type(record) for record in CLASS_RECORDS} == set(_Record.__subclasses__())


@pytest.mark.parametrize(
    "index, expected",
    [
        (0, "Conv2d(kernel=3, filters=4, stride=1, dilation=1, padding='same', bias=True)"),
        (
            12,
            "LayerNode(id='c1', kind=Conv2d(kernel=3, filters=4, stride=1, dilation=1, padding='same', bias=True), "
            "declaration_index=1)",
        ),
        (11, "InputSpec(height=8, width=8, channels=3)"),
        (13, "Violation(rule='unique_ids', subject='c1', message='duplicate node id')"),
        (
            19,
            "ZooSpec(family='resnet18', input=InputSpec(height=32, width=32, channels=3), num_classes=10, "
            "dilation=1, skips_enabled=False, stem_downsampling=True)",
        ),
        (4, "Add()"),
        (
            14,
            "ArchGraph(name='one-conv', input=InputSpec(height=8, width=8, channels=3), "
            "nodes=(LayerNode(id='input', kind=Input(), declaration_index=0), LayerNode(id='c1', "
            "kind=Conv2d(kernel=3, filters=4, stride=2, dilation=1, padding='same', bias=True), "
            "declaration_index=1)), edges=(('input', 'c1'),))",
        ),
    ],
    ids=lambda value: CLASS_IDS[value] if isinstance(value, int) else "",
)
def test_class_record_repr_is_the_dataclass_repr(index, expected):
    assert repr(CLASS_RECORDS[index]) == expected


class WideConv(Conv2d):
    """A subclass is not a layer kind, and its records never equal a Conv2d."""


def test_equality_needs_the_exact_class():
    from rfscope import Add, Concat

    assert Add() != Concat()
    assert WideConv(3, 4) != Conv2d(3, 4) and Conv2d(3, 4) != WideConv(3, 4)
    assert WideConv(3, 4) == WideConv(3, 4)
    assert Conv2d(3, 4) != (3, 4, 1, 1, "same", True)


@pytest.mark.parametrize("record", CLASS_RECORDS, ids=CLASS_IDS)
def test_equal_class_records_hash_equal(record):
    twin = record._replace()
    assert twin is not record and type(twin) is type(record)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)


@pytest.mark.parametrize("record", CLASS_RECORDS, ids=CLASS_IDS)
def test_class_record_fields_cannot_be_set_or_deleted(record):
    for name in (*type(record)._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("record", CLASS_RECORDS, ids=CLASS_IDS)
def test_bad_constructor_arguments_raise_type_error(record):
    cls = type(record)
    values = record._asdict()
    with pytest.raises(TypeError):
        cls(**values, not_a_field=1)
    if cls._fields:
        first = cls._fields[0]
        with pytest.raises(TypeError):
            cls(*values.values(), **{first: values[first]})
        if len(cls._fields) > len(cls.__init__.__defaults__ or ()):  # a field without a default
            with pytest.raises(TypeError):
                cls()
    else:
        with pytest.raises(TypeError):
            cls(1)


def test_replace_keeps_the_class_and_runs_validation_again():
    from rfscope import ZooSpec

    assert Conv2d(3, 4)._replace(stride=2) == Conv2d(3, 4, stride=2)
    assert type(WideConv(3, 4)._replace(stride=2)) is WideConv
    assert InputSpec(8, 8, 3)._replace(width=16) == InputSpec(8, 16, 3)
    with pytest.raises(ValueError, match="height"):
        InputSpec(8, 8, 3)._replace(height=0)
    with pytest.raises(ValueError, match="resnet-only"):
        ZooSpec("vgg11")._replace(skips_enabled=False)
    with pytest.raises(TypeError):
        Conv2d(3, 4)._replace(not_a_field=1)


@pytest.mark.parametrize("record", CLASS_RECORDS, ids=CLASS_IDS)
def test_class_records_copy_and_pickle_to_equal_values(record):
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert clone == record
        assert repr(clone) == repr(record)
