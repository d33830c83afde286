"""The records are immutable values with a stable, field-by-field repr.

One rule picks the record type. A value a caller builds and the library
checks is a class record (a `graph_ir._Record`): the eleven layer kinds and
the graph and its parts. Everything an analysis, a rewrite
or `validate` returns is a `typing.NamedTuple`.

Each tuple record comes from a real analysis, rewrite or validation of a
one-conv graph. The expected strings are the dataclass-style reprs the
records have always printed, so a change of record type cannot change what a
user sees. `LayerCost` holds its output dimensions as its own fields, so it
prints `out_height`, `out_width` and `out_channels` where it once printed a
nested `ShapeInfo`; `propagate_shapes` returns these records, and
`CostReport` holds only the totals. The fourteen
class records and the five reports keep the rest of the frozen-dataclass
contract: hashing, no assignment, strict constructors, and copy and pickle. Only the class records also keep equality within the
exact class and `_replace` through validation.
"""
import copy
import inspect
import pickle

import pytest

from dagtools import chain_graph
from rfscope import (
    ArchGraph,
    Conv2d,
    InputSpec,
    classify,
    compare,
    cost_report,
    propagate_dag,
    propagate_shapes,
    remove_stem_downsampling,
    validate,
)

STATE = "RFState(r=3, j=2)"
CONV = "ConvClassification(ordinal=1, node_id='c1', r_in_min=1, r_in_max=1, j_min=1, j_max=1)"
INPUT_COST = "LayerCost(params=0, macs=0, out_height=8, out_width=8, out_channels=3)"
CONV_COST = "LayerCost(params=112, macs=1728, out_height=4, out_width=4, out_channels=4)"
BORDER = (
    f"BorderReport(resolution=8, per_conv=({CONV},), border_min=None, border_max=None, "
    "border_min_node=None, border_max_node=None)"
)
COST = "CostReport(total_params=112, total_macs=1728)"
NOSTEM_COST = "CostReport(total_params=112, total_macs=6912)"

RECORDS = {
    "RFState": (lambda a: a["annotations"]["c1"].out_frontier[0], STATE),
    "RFAnnotation": (
        lambda a: a["annotations"]["c1"],
        "RFAnnotation(node_id='c1', in_frontier=(RFState(r=1, j=1),), "
        f"out_frontier=({STATE},), r_in_min=1, r_in_max=1, r_out_min=3, r_out_max=3)",
    ),
    "ConvClassification": (lambda a: a["border"].per_conv[0], CONV),
    "LayerCost": (lambda a: a["shapes"]["c1"], CONV_COST),
    "BorderReport": (lambda a: a["border"], BORDER),
    "CostReport": (lambda a: a["cost"], COST),
    "TransformDelta": (
        lambda a: a["delta"],
        f"TransformDelta(pass_name='remove-stem-downsampling:1', before_border={BORDER}, before_cost={COST}, "
        f"after_border={BORDER}, after_cost={NOSTEM_COST}, removed_node_ids=(), modified_node_ids=('c1',))",
    ),
    "ComparisonReport": (
        lambda a: a["comparison"],
        f"ComparisonReport(name_a='one-conv', name_b='one-conv-nostem', border_a={BORDER}, border_b={BORDER}, "
        f"cost_a={COST}, cost_b={NOSTEM_COST})",
    ),
    "Violation": (
        lambda a: a["violations"][0],
        "Violation(rule='unique_ids', subject='c1', message='duplicate node id')",
    ),
}

ONE_CONV = chain_graph("one-conv", InputSpec(8, 8, 3), [("c1", Conv2d(kernel=3, filters=4, stride=2))])


@pytest.fixture(scope="module")
def analysis():
    g = ONE_CONV
    annotations = propagate_dag(g)
    shapes = propagate_shapes(g)
    nostem, delta = remove_stem_downsampling(g, 1)
    return {
        "annotations": annotations,
        "border": classify(g, annotations),
        "shapes": shapes,
        "cost": cost_report(g),
        "delta": delta,
        "comparison": compare(g, nostem),
        "violations": validate(ArchGraph(g.name, g.input, g.nodes + g.nodes[1:], g.edges)),
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


def test_propagate_shapes_returns_the_cost_rows(analysis):
    assert {nid: repr(c) for nid, c in analysis["shapes"].items()} == {"input": INPUT_COST, "c1": CONV_COST}


# The class records: the eleven layer kinds and the graph and its parts.
def class_records():
    from rfscope import (
        Activation,
        Add,
        Attention,
        BatchNorm,
        Concat,
        Dense,
        GlobalAvgPool,
        Input,
        LayerNode,
        Pool,
        Softmax,
    )

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
        ArchGraph(ONE_CONV.name, ONE_CONV.input, ONE_CONV.nodes, ONE_CONV.edges),
    ]


# The reports the library returns, each a NamedTuple.
def reports():
    from rfscope import Violation, build_named, compare, truncate_at_border

    vgg = build_named("vgg11")
    _, delta = truncate_at_border(vgg, 10)
    comparison = compare(vgg, build_named("vgg13"))
    return [
        Violation("unique_ids", "c1", "duplicate node id"),
        classify(ONE_CONV),
        cost_report(ONE_CONV),
        delta,
        comparison,
    ]


CLASS_RECORDS = class_records()
CLASS_IDS = [type(record).__name__ for record in CLASS_RECORDS]
REPORTS = reports()
CONTRACT_RECORDS = CLASS_RECORDS + REPORTS
CONTRACT_IDS = [type(record).__name__ for record in CONTRACT_RECORDS]


def test_every_class_record_is_covered():
    from rfscope.graph_ir import _Record

    assert len(CLASS_RECORDS) == 14
    assert {type(record) for record in CLASS_RECORDS} == set(_Record.__subclasses__())
    assert all(isinstance(report, tuple) and not isinstance(report, _Record) for report in REPORTS)


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
        (4, "Add()"),
        (
            13,
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


EMPTY = inspect.Parameter.empty

# Every class record's constructor parameters in order, each positional-or-keyword, with its default.
SIGNATURES = {
    "Conv2d": [("kernel", EMPTY), ("filters", EMPTY), ("stride", 1), ("dilation", 1), ("padding", "same"), ("bias", True)],
    "Pool": [("mode", EMPTY), ("kernel", EMPTY), ("stride", EMPTY), ("padding", 0)],
    "GlobalAvgPool": [],
    "Dense": [("units", EMPTY), ("bias", True)],
    "Add": [],
    "Concat": [],
    "BatchNorm": [],
    "Activation": [("name", "relu")],
    "Attention": [("variant", EMPTY)],
    "Input": [],
    "Softmax": [],
    "InputSpec": [("height", EMPTY), ("width", EMPTY), ("channels", EMPTY)],
    "LayerNode": [("id", EMPTY), ("kind", EMPTY), ("declaration_index", EMPTY)],
    "ArchGraph": [("name", EMPTY), ("input", EMPTY), ("nodes", EMPTY), ("edges", EMPTY)],
}


@pytest.mark.parametrize("record", CLASS_RECORDS, ids=CLASS_IDS)
def test_constructor_signature_is_pinned(record):
    parameters = inspect.signature(type(record)).parameters.values()
    expected = [(name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default) for name, default in SIGNATURES[type(record).__name__]]
    assert [(p.name, p.kind, p.default) for p in parameters] == expected


class WideConv(Conv2d):
    """A subclass is not a layer kind, and its records never equal a Conv2d."""


def test_equality_needs_the_exact_class():
    from rfscope import Add, Concat

    assert Add() != Concat()
    assert WideConv(3, 4) != Conv2d(3, 4) and Conv2d(3, 4) != WideConv(3, 4)
    assert WideConv(3, 4) == WideConv(3, 4)
    assert Conv2d(3, 4) != (3, 4, 1, 1, "same", True)


def test_reports_are_plain_tuples():
    from rfscope import Violation

    violation = Violation("unique_ids", "c1", "duplicate node id")
    assert violation == ("unique_ids", "c1", "duplicate node id")
    rule, subject, message = violation
    assert (rule, violation[1], message) == tuple(violation)
    assert str(violation) == "[unique_ids] c1: duplicate node id"


@pytest.mark.parametrize("record", CONTRACT_RECORDS, ids=CONTRACT_IDS)
def test_equal_class_records_hash_equal(record):
    twin = record._replace()
    assert twin is not record and type(twin) is type(record)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)


@pytest.mark.parametrize("record", CONTRACT_RECORDS, ids=CONTRACT_IDS)
def test_class_record_fields_cannot_be_set_or_deleted(record):
    for name in (*type(record)._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("record", CONTRACT_RECORDS, ids=CONTRACT_IDS)
def test_bad_constructor_arguments_raise_type_error(record):
    cls = type(record)
    values = record._asdict()
    with pytest.raises(TypeError):
        cls(**values, not_a_field=1)
    if cls._fields:
        first = cls._fields[0]
        with pytest.raises(TypeError):
            cls(*values.values(), **{first: values[first]})
        defaults = cls._field_defaults if isinstance(record, tuple) else cls.__init__.__defaults__ or ()
        if len(cls._fields) > len(defaults):  # a field without a default
            with pytest.raises(TypeError):
                cls()
    else:
        with pytest.raises(TypeError):
            cls(1)


def test_replace_keeps_the_class_and_runs_validation_again():
    assert Conv2d(3, 4)._replace(stride=2) == Conv2d(3, 4, stride=2)
    assert type(WideConv(3, 4)._replace(stride=2)) is WideConv
    assert InputSpec(8, 8, 3)._replace(width=16) == InputSpec(8, 16, 3)
    with pytest.raises(ValueError, match="height"):
        InputSpec(8, 8, 3)._replace(height=0)
    with pytest.raises(TypeError):
        Conv2d(3, 4)._replace(not_a_field=1)


@pytest.mark.parametrize("record", CONTRACT_RECORDS, ids=CONTRACT_IDS)
def test_class_records_copy_and_pickle_to_equal_values(record):
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert clone == record
        assert repr(clone) == repr(record)
