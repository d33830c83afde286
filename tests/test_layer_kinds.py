"""Every layer kind's receptive-field transfer, shape, params and MACs on a one-layer graph, by hand.

Each kind's rules are defined once, in the one dispatch per node of
`propagate_dag` and of the shapes-and-costs walk; this table pins each of
them against values worked out from the formulas in the README.
"""
import typing

import pytest

from dagtools import chain_graph
from rfscope import (
    Activation,
    Add,
    Attention,
    BatchNorm,
    Concat,
    Conv2d,
    Dense,
    GlobalAvgPool,
    GraphValidationError,
    Input,
    InputSpec,
    LayerKind,
    Pool,
    RFState,
    Softmax,
    make_graph,
    propagate_dag,
    propagate_shapes,
)
from rfscope.rf_analysis import GLOBAL_STATE, INITIAL_STATE

IN = InputSpec(16, 16, 32)  # 256 positions of 32 channels: 8,192 elements
ELEMENTS = 16 * 16 * 32


def merged(kind):
    """`x` merges two activations of the input."""
    layers = [("input", Input()), ("a", Activation()), ("b", Activation()), ("x", kind)]
    edges = [("input", "a"), ("input", "b"), ("a", "x"), ("b", "x")]
    return make_graph("merge", IN, layers, edges)


# kind -> (graph, node, out state, (height, width, channels), params, MACs)
CASES = {
    # k_eff = 2 * (3 - 1) + 1 = 5; valid: (16 - 5) // 2 + 1 = 6; weights 3 * 3 * 32 * 16 = 4,608.
    Conv2d: (
        chain_graph("one", IN, [("x", Conv2d(kernel=3, filters=16, stride=2, dilation=2, padding="valid"))]),
        "x", RFState(5, 2), (6, 6, 16), 4_608 + 16, 4_608 * 6 * 6,
    ),
    # (16 + 2 - 3) // 2 + 1 = 8; nine window elements per output.
    Pool: (
        chain_graph("one", IN, [("x", Pool(mode="max", kernel=3, stride=2, padding=1))]),
        "x", RFState(3, 2), (8, 8, 32), 0, 9 * 8 * 8 * 32,
    ),
    GlobalAvgPool: (chain_graph("one", IN, [("x", GlobalAvgPool())]), "x", GLOBAL_STATE, (1, 1, 32), 0, ELEMENTS),
    Dense: (
        chain_graph("one", IN, [("x", Dense(units=10))]),
        "x", GLOBAL_STATE, (1, 1, 10), ELEMENTS * 10 + 10, ELEMENTS * 10,
    ),
    Add: (merged(Add()), "x", INITIAL_STATE, (16, 16, 32), 0, ELEMENTS),
    Concat: (merged(Concat()), "x", INITIAL_STATE, (16, 16, 64), 0, 0),
    BatchNorm: (chain_graph("one", IN, [("x", BatchNorm())]), "x", INITIAL_STATE, (16, 16, 32), 64, ELEMENTS),
    Activation: (chain_graph("one", IN, [("x", Activation())]), "x", INITIAL_STATE, (16, 16, 32), 0, ELEMENTS),
    # se: 2 * 32 * (32 // 16) weights and 2 * 32 * 256 + 2 * 32 * 2 MACs; spatial:
    # 7 * 7 * 2 weights and 2 * 32 * 256 + 7 * 7 * 2 * 256 + 32 * 256 MACs.
    Attention: (
        chain_graph("one", IN, [("x", Attention("cbam"))]),
        "x", INITIAL_STATE, (16, 16, 32), 128 + 98, 16_512 + 49_664,
    ),
    Input: (chain_graph("one", IN, []), "input", INITIAL_STATE, (16, 16, 32), 0, 0),
    Softmax: (chain_graph("one", IN, [("x", Softmax())]), "x", INITIAL_STATE, (16, 16, 32), 0, 0),
}


def test_every_layer_kind_has_a_case():
    assert set(CASES) == set(typing.get_args(LayerKind))


@pytest.mark.parametrize("cls", typing.get_args(LayerKind), ids=lambda cls: cls.__name__)
def test_one_layer_graph(cls):
    graph, node, state, shape, params, macs = CASES[cls]
    kind = graph.node_map[node].kind
    assert type(kind) is cls
    assert propagate_dag(graph)[node].out_frontier == (state,)
    cost = propagate_shapes(graph)[node]
    assert (cost.out_height, cost.out_width, cost.out_channels, cost.params, cost.macs) == (*shape, params, macs)


@pytest.mark.parametrize(
    "kind", [object(), type("WideConv", (Conv2d,), {})(kernel=3, filters=4)], ids=["object", "conv-subclass"]
)
def test_transfer_refuses_what_is_not_a_layer_kind(kind):
    with pytest.raises(GraphValidationError, match="is not a layer kind"):
        propagate_dag(chain_graph("one", IN, [("x", kind)]))
