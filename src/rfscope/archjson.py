"""JSON interchange format for architecture graphs.

A document holds the graph name, the input spec, a `layers` array (whose
order defines declaration order), and an `edges` array of [source, target]
pairs. Each layer must come after its predecessors: every edge runs from an
earlier layer to a later one. Parsing checks the document's shape: a shape
error, such as an unknown or missing key, carries its JSON path. The graph
must then pass full validation, which judges every field value and reports a
bad one as a `layer_fields` violation. Serialization writes every field
explicitly so that parse(serialize(g)) reproduces g exactly.
"""
from __future__ import annotations

import json
from typing import Any

from .graph_ir import (
    ArchGraph,
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
    Softmax,
    Violation,
    _KIND_FIELDS,
    make_graph,
)


class DocumentError(ValueError):
    """A document cannot be turned into a graph; `path` locates the problem."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class DocumentSemanticError(DocumentError):
    """The document parses but the graph it describes is invalid."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        detail = "; ".join(str(v) for v in violations)
        super().__init__("", f"graph validation failed: {detail}")


_KIND_TAGS: dict[str, type] = {
    "input": Input,
    "conv2d": Conv2d,
    "pool": Pool,
    "global_avg_pool": GlobalAvgPool,
    "dense": Dense,
    "add": Add,
    "concat": Concat,
    "batch_norm": BatchNorm,
    "activation": Activation,
    "attention": Attention,
    "softmax": Softmax,
}
_TAG_BY_TYPE = {cls: tag for tag, cls in _KIND_TAGS.items()}


def _parse_layer(index: int, raw: Any) -> tuple[str, LayerKind]:
    path = f"layers[{index}]"
    if not isinstance(raw, dict):
        raise DocumentError(path, f"expected an object, got {type(raw).__name__}")
    layer_id = raw.get("id")
    if not isinstance(layer_id, str) or not layer_id:
        raise DocumentError(f"{path}.id", "every layer needs a nonempty string id")
    where = f"{path} (id {layer_id!r})"
    tag = raw.get("kind")
    if not isinstance(tag, str) or tag not in _KIND_TAGS:  # an array or object is unhashable
        raise DocumentError(f"{where}.kind", f"unknown kind {tag!r}; known: {', '.join(sorted(_KIND_TAGS))}")
    cls = _KIND_TAGS[tag]
    fields = _KIND_FIELDS[cls]
    for key in raw:
        if key not in fields and key not in ("id", "kind"):
            raise DocumentError(f"{where}.{key}", f"unknown key for kind {tag!r}")
    for position, field_name in enumerate(fields):
        if field_name not in raw and position < len(fields) - len(cls.__init__.__defaults__ or ()):  # no default
            raise DocumentError(f"{where}.{field_name}", f"missing required key for kind {tag!r}")
    # The values go in unchecked: `validate`, which `parse_document` runs on the graph, judges each one.
    return layer_id, cls(**{name: raw[name] for name in fields if name in raw})


def parse_document(doc: Any) -> ArchGraph:
    """Turn an already-decoded JSON object into a validated graph."""
    if not isinstance(doc, dict):
        raise DocumentError("$", f"expected a JSON object, got {type(doc).__name__}")
    for key in doc:
        if key not in ("name", "input", "layers", "edges"):
            raise DocumentError(f"$.{key}", "unknown top-level key")
    for key in ("name", "input", "layers", "edges"):
        if key not in doc:
            raise DocumentError(f"$.{key}", "missing required top-level key")
    if not isinstance(doc["name"], str):
        raise DocumentError("$.name", f"expected a string, got {doc['name']!r}")

    raw_input = doc["input"]
    if not isinstance(raw_input, dict):
        raise DocumentError("$.input", "expected an object with height, width, channels")
    for key in raw_input:
        if key not in ("height", "width", "channels"):
            raise DocumentError(f"$.input.{key}", "unknown key")
    for key in ("height", "width", "channels"):
        if key not in raw_input:
            raise DocumentError(f"$.input.{key}", "missing required key")
    try:
        input_spec = InputSpec(**raw_input)
    except ValueError as exc:
        raise DocumentError("$.input", str(exc)) from None

    if not isinstance(doc["layers"], list):
        raise DocumentError("$.layers", "expected an array of layer objects")
    layers = [_parse_layer(i, raw) for i, raw in enumerate(doc["layers"])]

    if not isinstance(doc["edges"], list):
        raise DocumentError("$.edges", "expected an array of [source, target] pairs")
    edges: list[tuple[str, str]] = []
    for i, raw in enumerate(doc["edges"]):
        if not (isinstance(raw, list) and len(raw) == 2 and all(isinstance(x, str) for x in raw)):
            raise DocumentError(f"$.edges[{i}]", f"expected a [source, target] string pair, got {raw!r}")
        edges.append((raw[0], raw[1]))

    graph = make_graph(doc["name"], input_spec, layers, edges)
    try:
        graph.order  # the graph's one validation, cached for the analyses that follow
    except GraphValidationError as exc:
        raise DocumentSemanticError(exc.violations) from None
    return graph


def parse(data: bytes | str) -> ArchGraph:
    """Parse a UTF-8 JSON document into a validated graph."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DocumentError("$", f"document is not valid UTF-8: {exc}") from None
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise DocumentError("$", f"JSON syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise DocumentError("$", "document nests arrays or objects too deeply to decode") from None
    except ValueError as exc:  # an integer longer than the interpreter converts
        raise DocumentError("$", f"number cannot be decoded: {exc}") from None
    return parse_document(doc)


def _layer_to_dict(kind: LayerKind, layer_id: str) -> dict[str, Any]:
    return {"id": layer_id, "kind": _TAG_BY_TYPE[type(kind)], **kind._asdict()}


def serialize_document(graph: ArchGraph) -> dict[str, Any]:
    """Graph as a plain JSON-ready dict; layers appear in node order, which is declaration order."""
    return {
        "name": graph.name,
        "input": graph.input._asdict(),
        "layers": [_layer_to_dict(n.kind, n.id) for n in graph.nodes],
        "edges": [[a, b] for a, b in graph.edges],
    }


def serialize(graph: ArchGraph) -> str:
    """Graph as canonical JSON text (stable key order, two-space indent)."""
    return json.dumps(serialize_document(graph), indent=2) + "\n"
