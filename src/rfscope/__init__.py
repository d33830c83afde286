"""Training-free receptive-field analysis and rewriting of CNN architecture graphs.

The package centers on three questions about a convolutional architecture at
a fixed input resolution: how large is each layer's receptive field over
every computational path, which convolutions sit past the border where the
minimum receptive field exceeds the input, and what do the two standard
remedies (truncating the unproductive tail, removing stem downsampling) do
to parameter and MAC budgets.

Every public name is imported from its module on first access, so
``import rfscope`` loads no submodule and a caller pays only for the
modules it uses.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "graph_ir": (
        "ArchGraph", "InputSpec", "LayerKind", "LayerNode", "Violation",
        "Conv2d", "Pool", "GlobalAvgPool", "Dense", "Add", "Concat",
        "BatchNorm", "Activation", "Attention", "Input", "Softmax",
        "GraphValidationError", "validate",
        "topological_order", "make_graph", "chain_graph",
    ),
    "rf_analysis": (
        "RFState", "RFAnnotation", "effective_kernel", "propagate_dag",
        "FrontierLimitError",
    ),
    "border_analysis": (
        "BorderReport", "ConvClassification", "classify",
        "unproductive_closure", "PRODUCTIVE", "UNPRODUCTIVE", "Analysis", "analyze",
    ),
    "shape_cost_model": (
        "ShapeInfo", "LayerCost", "CostReport", "ShapeError",
        "propagate_shapes", "cost_report",
    ),
    "transforms": (
        "TransformDelta", "ComparisonReport", "TransformError",
        "truncate_at_border", "remove_stem_downsampling", "compare",
    ),
    "zoo": ("ZooSpec", "FAMILIES", "build", "build_named", "parse_zoo_name"),
    "archjson": (
        "parse", "parse_document", "serialize", "serialize_document",
        "DocumentError", "DocumentSemanticError",
    ),
}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]


def __getattr__(name: str):
    """Import the module that defines `name` and keep the name in the package namespace."""
    for module, names in _EXPORTS.items():
        if name in names:
            value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
