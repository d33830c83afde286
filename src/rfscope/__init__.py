"""Training-free receptive-field analysis and rewriting of CNN architecture graphs.

The package centers on three questions about a convolutional architecture at
a fixed input resolution: how large is each layer's receptive field over
every computational path, which convolutions sit past the border where the
minimum receptive field exceeds the input, and what do the two standard
remedies (truncating the unproductive tail, removing stem downsampling) do
to parameter and MAC budgets.
"""

__version__ = "0.1.0"

from .archjson import (
    DocumentError,
    DocumentSemanticError,
    parse,
    parse_document,
    serialize,
    serialize_document,
)
from .border_analysis import (
    PRODUCTIVE,
    UNPRODUCTIVE,
    BorderReport,
    ConvClassification,
    classify,
    unproductive_closure,
)
from .graph_ir import (
    Activation,
    Add,
    ArchGraph,
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
    LayerNode,
    Pool,
    Softmax,
    Violation,
    chain_graph,
    make_graph,
    topological_order,
    validate,
)
from .rf_analysis import (
    FrontierLimitError,
    RFAnnotation,
    RFState,
    effective_kernel,
    layer_rf_transfer,
    propagate_dag,
)
from .shape_cost_model import (
    CostReport,
    LayerCost,
    ShapeError,
    ShapeInfo,
    cost_report,
    propagate_shapes,
)
from .transforms import (
    ComparisonReport,
    TransformDelta,
    TransformError,
    compare,
    remove_stem_downsampling,
    truncate_at_border,
)
from .zoo import FAMILIES, ZooSpec, build, build_named, parse_zoo_name

__all__ = [
    "__version__",
    # graph_ir
    "ArchGraph", "InputSpec", "LayerKind", "LayerNode", "Violation",
    "Conv2d", "Pool", "GlobalAvgPool", "Dense", "Add", "Concat",
    "BatchNorm", "Activation", "Attention", "Input", "Softmax",
    "GraphValidationError", "validate",
    "topological_order", "make_graph", "chain_graph",
    # rf_analysis
    "RFState", "RFAnnotation", "effective_kernel", "layer_rf_transfer",
    "propagate_dag", "FrontierLimitError",
    # border_analysis
    "BorderReport", "ConvClassification", "classify",
    "unproductive_closure", "PRODUCTIVE", "UNPRODUCTIVE",
    # shape_cost_model
    "ShapeInfo", "LayerCost", "CostReport", "ShapeError",
    "propagate_shapes", "cost_report",
    # transforms
    "TransformDelta", "ComparisonReport", "TransformError",
    "truncate_at_border", "remove_stem_downsampling", "compare",
    # zoo
    "ZooSpec", "FAMILIES", "build", "build_named", "parse_zoo_name",
    # archjson
    "parse", "parse_document", "serialize", "serialize_document",
    "DocumentError", "DocumentSemanticError",
]
