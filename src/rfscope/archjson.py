"""JSON interchange format for architecture graphs.

A document holds the graph name, the input spec, a `layers` array (whose
order defines declaration order), and an `edges` array of [source, target]
pairs. Each layer must come after its predecessors: every edge runs from an
earlier layer to a later one. Parsing checks the document's shape: a shape
error, such as an unknown or missing key, raises `DocumentError` with its JSON
path. The graph must then pass full validation, which judges every field value
and reports a bad one as a `layer_fields` violation: a graph that breaks a rule
raises `GraphValidationError`. Both are `ValueError`s, so `except ValueError`
catches either. Serialization writes every field explicitly so that
parse(serialize(g)) reproduces g exactly.
"""
from __future__ import annotations

import json
import re
from collections.abc import Container
from typing import Any

from .graph_ir import LAYER_KINDS, ArchGraph, InputSpec, LayerKind, make_graph


class DocumentError(ValueError):
    """The text is not a graph document; `path` locates the problem."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


# A kind's tag is its class name in snake case: Conv2d is "conv2d", GlobalAvgPool "global_avg_pool".
_KIND_TAGS: dict[str, type] = {re.sub(r"(?<=[a-z0-9])(?=[A-Z])", "_", cls.__name__).lower(): cls for cls in LAYER_KINDS}
_TAG_BY_TYPE = {cls: tag for tag, cls in _KIND_TAGS.items()}
# Per tag: the kind, the keys a layer of it may hold, the fields without a default (the defaulted
# fields come last) and the noun its key errors use.
_LAYER_KEYS = {
    tag: (cls, {"id", "kind", *cls._fields}, cls._fields[: len(cls._fields) - len(cls._defaults)], f"key for kind {tag!r}")
    for tag, cls in _KIND_TAGS.items()
}
_TOP_LEVEL_KEYS = ("name", "input", "layers", "edges")


def _check_keys(path: str, obj: dict[str, Any], known: Container[str], required: tuple[str, ...], noun: str) -> None:
    """Reject the first key of `obj` not in `known`, then the first of `required` missing from it."""
    for key in obj:
        if key not in known:
            raise DocumentError(f"{path}.{key}", f"unknown {noun}")
    for key in required:
        if key not in obj:
            raise DocumentError(f"{path}.{key}", f"missing required {noun}")


def _parse_layer(index: int, raw: Any) -> tuple[str, LayerKind]:
    path = f"layers[{index}]"
    if not isinstance(raw, dict):
        raise DocumentError(path, f"expected an object, got {type(raw).__name__}")
    layer_id = raw.get("id")
    if not isinstance(layer_id, str) or not layer_id:
        raise DocumentError(f"{path}.id", "every layer needs a nonempty string id")
    where = f"{path} (id {layer_id!r})"
    tag = raw.get("kind")
    if not isinstance(tag, str) or tag not in _LAYER_KEYS:  # an array or object is unhashable
        raise DocumentError(f"{where}.kind", f"unknown kind {tag!r}; known: {', '.join(sorted(_KIND_TAGS))}")
    cls, known, required, noun = _LAYER_KEYS[tag]
    _check_keys(where, raw, known, required, noun)
    # The values go in unchecked: `validate`, which `parse` runs on the graph, judges each one.
    return layer_id, cls(**{name: raw[name] for name in cls._fields if name in raw})


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
    if not isinstance(doc, dict):
        raise DocumentError("$", f"expected a JSON object, got {type(doc).__name__}")
    _check_keys("$", doc, _TOP_LEVEL_KEYS, _TOP_LEVEL_KEYS, "top-level key")
    if not isinstance(doc["name"], str):
        raise DocumentError("$.name", f"expected a string, got {doc['name']!r}")

    raw_input = doc["input"]
    if not isinstance(raw_input, dict):
        raise DocumentError("$.input", "expected an object with height, width, channels")
    _check_keys("$.input", raw_input, InputSpec._fields, InputSpec._fields, "key")
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
    graph.order  # the graph's one validation, cached for the analyses that follow; raises GraphValidationError
    return graph


def serialize(graph: ArchGraph) -> str:
    """Graph as canonical JSON text (stable key order, two-space indent), every layer field explicit."""
    doc = {
        "name": graph.name,
        "input": graph.input._asdict(),
        "layers": [{"id": n.id, "kind": _TAG_BY_TYPE[type(n.kind)], **n.kind._asdict()} for n in graph.nodes],
        "edges": [[a, b] for a, b in graph.edges],
    }
    return json.dumps(doc, indent=2) + "\n"
