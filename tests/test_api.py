"""The package's public surface: `rfscope.__all__` and the names it exposes stay in step.

Names load on first access, so each check runs in a fresh interpreter, where
no earlier test has resolved them.
"""
import json

import pytest

import rfscope
from dagtools import run_fresh


def fresh_value(code):
    """The JSON value that `code`, run in a fresh interpreter after `import rfscope`, prints."""
    proc = run_fresh("-c", "import json, rfscope\n" + code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_exported_name_resolves():
    assert fresh_value("print(json.dumps([n for n in rfscope.__all__ if not hasattr(rfscope, n)]))") == []


def test_all_has_no_duplicates():
    assert len(rfscope.__all__) == len(set(rfscope.__all__))


def test_dir_lists_every_exported_name_before_any_is_used():
    assert fresh_value("print(json.dumps(sorted(set(rfscope.__all__) - set(dir(rfscope)))))") == []


def test_star_import_binds_exactly_all():
    names = fresh_value(
        "ns = {}\nexec('from rfscope import *', ns)\nprint(json.dumps(sorted(set(ns) - {'__builtins__'})))"
    )
    assert names == sorted(rfscope.__all__)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        rfscope.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from rfscope import no_such_name  # noqa: F401


def test_all_lists_exactly_the_public_names():
    public = fresh_value(
        "from types import ModuleType\n"
        "for name in rfscope.__all__:\n"
        "    getattr(rfscope, name)\n"
        "print(json.dumps(sorted(n for n, v in vars(rfscope).items()\n"
        "                        if not n.startswith('_') and not isinstance(v, ModuleType))))"
    )
    assert set(rfscope.__all__) - {"__version__"} == set(public)


# Every public name, pinned, so that none leaves or arrives by accident. The receptive-field
# transfer of one path state, `layer_rf_transfer`, left with the path oracle for tests/dagtools.py.
PUBLIC_NAMES = """
    __version__ ArchGraph InputSpec LayerKind LayerNode Violation Conv2d Pool GlobalAvgPool Dense Add
    Concat BatchNorm Activation Attention Input Softmax GraphValidationError validate topological_order
    make_graph chain_graph RFState RFAnnotation effective_kernel propagate_dag FrontierLimitError
    BorderReport ConvClassification classify unproductive_closure PRODUCTIVE UNPRODUCTIVE Analysis analyze
    ShapeInfo LayerCost CostReport ShapeError propagate_shapes cost_report TransformDelta ComparisonReport
    TransformError truncate_at_border remove_stem_downsampling compare ZooSpec FAMILIES build build_named
    parse_zoo_name parse parse_document serialize serialize_document DocumentError DocumentSemanticError
""".split()


def test_all_is_the_pinned_list():
    assert rfscope.__all__ == PUBLIC_NAMES
    assert not hasattr(rfscope, "layer_rf_transfer")
