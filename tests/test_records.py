"""The result records are immutable values with a stable, field-by-field repr.

Each record comes from a real analysis of a one-conv graph. The expected
strings are the dataclass-style reprs the records have always printed, so a
change of record type cannot change what a user sees.
"""
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
    for field in type(record).__annotations__:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
