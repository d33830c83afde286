"""Typed DAG representation of CNN architectures.

An :class:`ArchGraph` is an immutable graph of layer nodes with exactly one
input and one sink. Every edge runs from an earlier-declared node to a later
one, so the graph has no cycle and its declaration order is the topological
order every pass walks. All analysis and rewrite passes in this package
consume and produce these graphs; none of them mutate their input.

Kernel sizes, strides, and dilations are scalars: only square layers are
supported, and non-square configurations are rejected by :func:`validate`.
"""
from __future__ import annotations

from functools import cached_property
from typing import Any, Callable, Iterable, NamedTuple, Union, get_args

PADDING_SAME = "same"
PADDING_VALID = "valid"

POOL_MODES = ("max", "avg")
ATTENTION_VARIANTS = ("se", "spatial", "cbam")

_set = object.__setattr__  # how each record's __init__ writes its fields past the frozen __setattr__


def _positive_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _nonnegative_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


class _Record:
    """An immutable value whose fields are its ``__slots__``, in ``__init__`` order.

    It gives every record a field-by-field repr, equality within the exact
    class, a hash over the field values, ``_asdict``, ``_replace`` (back
    through ``__init__``, so validation reruns) and ``copy``/``pickle`` support.

    A record class that writes no ``__init__`` gets one compiled from its
    fields, as ``collections.namedtuple`` compiles ``__new__``: it takes the
    fields in order, and ``_defaults`` holds the defaults of the trailing ones.
    A layer kind declares its fields as the keys of ``_checks``: each maps to
    the one check :func:`validate` runs on the field's value and the message
    it reports when that check fails. So a check must reject every wrong type,
    without hashing the value.
    """

    __slots__ = ()
    _checks: dict[str, tuple[Callable[[Any], bool], str]] = {}
    _defaults: tuple[Any, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        if fields and "__init__" not in cls.__dict__:
            namespace = {"_set": _set}
            body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
            exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
            init = cls.__init__ = namespace["__init__"]
            init.__defaults__ = cls._defaults
            init.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _asdict(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self._fields}

    def _replace(self, **changes: Any) -> Any:
        return type(self)(**{**self._asdict(), **changes})

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        return type(self), self._values()


class InputSpec(_Record):
    """Spatial size and channel count of the image a graph consumes."""

    __slots__ = ("height", "width", "channels")

    def __init__(self, height: int, width: int, channels: int) -> None:
        for name, value in (("height", height), ("width", width), ("channels", channels)):
            if not _positive_int(value):
                raise ValueError(f"input {name} must be a positive integer, got {value!r}")
            _set(self, name, value)

    @property
    def resolution(self) -> int:
        """max(height, width): the budget receptive fields are judged against."""
        return max(self.height, self.width)


_SQUARE = (_positive_int, "must be a positive square scalar")
_COUNT = (_positive_int, "must be a positive integer")
_BIAS = (lambda value: isinstance(value, bool), "must be a boolean")


class Conv2d(_Record):
    _checks = {
        "kernel": _SQUARE,
        "filters": _COUNT,
        "stride": _SQUARE,
        "dilation": (_positive_int, "must be an integer >= 1"),
        "padding": (
            lambda value: value in (PADDING_SAME, PADDING_VALID) or _nonnegative_int(value),
            "must be 'same', 'valid', or an integer >= 0",
        ),
        "bias": _BIAS,
    }
    __slots__ = tuple(_checks)
    _defaults = (1, 1, PADDING_SAME, True)


class Pool(_Record):
    _checks = {
        "mode": (lambda value: value in POOL_MODES, f"must be one of {POOL_MODES}"),
        "kernel": _SQUARE,
        "stride": _SQUARE,
        "padding": (_nonnegative_int, "must be an integer >= 0"),
    }
    __slots__ = tuple(_checks)
    _defaults = (0,)


class GlobalAvgPool(_Record):
    __slots__ = ()


class Dense(_Record):
    _checks = {"units": _COUNT, "bias": _BIAS}
    __slots__ = tuple(_checks)
    _defaults = (True,)


class Add(_Record):
    __slots__ = ()


class Concat(_Record):
    __slots__ = ()


class BatchNorm(_Record):
    __slots__ = ()


class Activation(_Record):
    _checks = {"name": (lambda value: isinstance(value, str), "must be a string")}
    __slots__ = tuple(_checks)
    _defaults = ("relu",)


class Attention(_Record):
    _checks = {"variant": (lambda value: value in ATTENTION_VARIANTS, f"must be one of {ATTENTION_VARIANTS}")}
    __slots__ = tuple(_checks)


class Input(_Record):
    __slots__ = ()


class Softmax(_Record):
    __slots__ = ()


LayerKind = Union[
    Conv2d,
    Pool,
    GlobalAvgPool,
    Dense,
    Add,
    Concat,
    BatchNorm,
    Activation,
    Attention,
    Input,
    Softmax,
]

# A node's kind is an instance of exactly one of these classes; subclasses are not layer kinds.
LAYER_KINDS = frozenset(get_args(LayerKind))

# Kinds that never alter receptive-field state.
RF_NEUTRAL_KINDS = (BatchNorm, Activation, Attention, Softmax, Add, Concat, Input)

# Classifier-head kinds: the trailing chain of them is what truncation replaces.
HEAD_KINDS = (GlobalAvgPool, Dense, Softmax)

MERGE_KINDS = (Add, Concat)


class LayerNode(_Record):
    __slots__ = ("id", "kind", "declaration_index")


def safe_repr(value: Any) -> str:
    """`repr` of an int, or of a list or tuple of ints, where an int with more digits than `str`
    converts reads as its bit length: a message about an absurd document must still print."""
    if isinstance(value, (list, tuple)):
        items = ", ".join(map(safe_repr, value))
        return f"[{items}]" if isinstance(value, list) else f"({items})"
    try:
        return repr(value)
    except ValueError:
        return f"<{value.bit_length()}-bit integer>"


class Violation(NamedTuple):
    """One broken graph invariant; validation reports these as data."""

    rule: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.subject}: {self.message}"


class GraphValidationError(ValueError):
    """A graph breaks a rule: raised by `parse` and by every operation that requires a valid graph."""

    def __init__(self, violations: list[Violation]):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"graph validation failed: {lines}")


class ArchGraph(_Record):
    """Immutable layer DAG: nodes in declaration order plus an ordered edge list.

    Its ``__dict__`` holds only caches: those of the ``cached_property`` members, the per-conv
    receptive-field table that :func:`~rfscope.rf_analysis.classify` builds from its own walk (one row
    per conv and the running maxima it bisects) and the cost plan that :func:`~rfscope.shape_cost_model.cost_report` and
    :func:`~rfscope.shape_cost_model.propagate_shapes` share (its size steps, one row per node and size-free totals).
    Each cache is a function of the nodes, the edges and the input's channel
    count, never of the input's size, and no cache is mutated once stored.
    """

    __slots__ = ("name", "input", "nodes", "edges", "__dict__")

    @cached_property
    def node_map(self) -> dict[str, LayerNode]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def predecessors(self) -> dict[str, tuple[str, ...]]:
        preds: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for src, dst in self.edges:
            if dst in preds:
                preds[dst].append(src)
        return {k: tuple(v) for k, v in preds.items()}

    @cached_property
    def order(self) -> tuple[str, ...]:
        """Node ids in declaration order, which :func:`validate` checks is topological.

        Graphs are immutable, so one :func:`validate` on first use serves
        every later pass over this instance. An invalid graph caches nothing
        and raises :class:`GraphValidationError` on every access.
        """
        violations = validate(self)
        if violations:
            raise GraphValidationError(violations)
        return tuple(n.id for n in self.nodes)

    def with_input(self, spec: InputSpec) -> ArchGraph:
        """This graph with another input. While the channel count is kept, every cache carries over,
        :func:`validate`'s check included, since none reads the input's size; otherwise none does."""
        graph = ArchGraph(self.name, spec, self.nodes, self.edges)
        if spec.channels == self.input.channels:
            graph.__dict__.update(self.__dict__)
        return graph


def make_graph(
    name: str,
    input_spec: InputSpec,
    layers: Iterable[tuple[str, LayerKind]],
    edges: Iterable[tuple[str, str]],
) -> ArchGraph:
    """Build a graph from (id, kind) pairs; declaration order is list order."""
    nodes = tuple(LayerNode(nid, kind, idx) for idx, (nid, kind) in enumerate(layers))
    return ArchGraph(name=name, input=input_spec, nodes=nodes, edges=tuple((a, b) for a, b in edges))


def _kind_violations(node: LayerNode) -> list[Violation]:
    kind = node.kind
    if type(kind) not in LAYER_KINDS:
        known = ", ".join(sorted(cls.__name__ for cls in LAYER_KINDS))
        return [Violation("layer_kind", node.id, f"{type(kind).__name__} is not a layer kind; expected one of {known}")]
    out: list[Violation] = []
    for name, (check, expect) in kind._checks.items():
        value = getattr(kind, name)
        if not check(value):
            out.append(Violation("layer_fields", node.id, f"{name} {expect}, got {value!r}"))
    return out


def validate(graph: ArchGraph) -> list[Violation]:
    """Check every graph invariant; an empty list means the graph is valid.

    Violations are data, not exceptions: arbitrary candidate graphs are
    accepted and each problem is reported against the node or edge that
    breaks the rule. Ids and kinds come first in node order, then the
    node-position rule, then the edge rules in edge order; any of these ends
    the check. Then come the single-input and single-sink rules and the arity
    rules in node order. The channel rule is reported only when all of those hold.
    """
    violations: list[Violation] = []

    position: dict[str, int] = {}
    for i, node in enumerate(graph.nodes):
        if node.id in position:
            violations.append(Violation("unique_ids", node.id, "duplicate node id"))
        position[node.id] = i
        violations.extend(_kind_violations(node))

    for i, node in enumerate(graph.nodes):
        if node.declaration_index != i:
            message = f"node {node.id!r} is at position {i} but has declaration index {node.declaration_index!r}"
            violations.append(Violation("declaration_order", graph.name, message))
            break

    seen_edges: set[tuple[str, str]] = set()
    for src, dst in graph.edges:
        duplicate = (src, dst) in seen_edges
        seen_edges.add((src, dst))
        src_at, dst_at = position.get(src), position.get(dst)
        if src_at is not None and dst_at is not None and src_at < dst_at and not duplicate:
            continue  # a good edge: no label to format
        label = f"{src}->{dst}"
        if src_at is None:
            violations.append(Violation("edge_endpoints", label, f"unknown source node {src!r}"))
        if dst_at is None:
            violations.append(Violation("edge_endpoints", label, f"unknown target node {dst!r}"))
        elif src_at is not None and src_at >= dst_at:
            violations.append(Violation("declaration_order", label, f"{src!r} is not declared before {dst!r}"))
        if duplicate:
            violations.append(Violation("edge_endpoints", label, "duplicate edge"))

    if violations:
        # The rules below assume well-formed ids and edges that point forward, hence no cycle.
        return violations

    preds, sources = graph.predecessors, {src for src, _ in graph.edges}
    inputs, sinks, arity, widths = 0, [], [], []
    channels: dict[str, int] = {}  # each node's out-channels
    for node in graph.nodes:
        nid, kind = node.id, node.kind
        cls = type(kind)
        if nid not in sources:
            sinks.append(nid)
        if cls is Input:
            inputs += 1
            channels[nid] = graph.input.channels
            continue
        node_preds = preds[nid]
        if cls is Add or cls is Concat:
            if len(node_preds) < 2:
                arity.append(Violation("merge_arity", nid, f"merge arity < 2 (got {len(node_preds)})"))
        elif len(node_preds) != 1:
            arity.append(Violation("unary_arity", nid, f"expected exactly one predecessor, got {len(node_preds)}"))
        if arity:  # counts are carried while no arity rule breaks; each predecessor, declared earlier, has one
            continue
        if cls is Conv2d:
            channels[nid] = kind.filters
        elif cls is Dense:
            channels[nid] = kind.units
        elif cls is Concat:
            channels[nid] = sum(channels[p] for p in node_preds)
        else:
            channels[nid] = channels[node_preds[0]]
            if cls is Add:
                counts = sorted({channels[p] for p in node_preds})
                if len(counts) > 1:
                    message = f"element-wise add over unequal channel counts {safe_repr(counts)}"
                    widths.append(Violation("merge_channels", nid, message))

    if inputs != 1:
        violations.append(Violation("single_input", graph.name, f"expected exactly one Input node, found {inputs}"))
    if len(sinks) != 1:
        violations.append(
            Violation("single_sink", graph.name, f"expected exactly one sink node, found {len(sinks)}: {sorted(sinks)}")
        )
    # These rules put every node on an input-to-sink path, so no reachability rule is checked:
    # walking predecessors back from a node ends at a source, which can only be the one Input,
    # and walking successors on ends at the one sink.
    return violations + arity or widths


def topological_order(graph: ArchGraph) -> list[str]:
    """The checked :attr:`ArchGraph.order` as a list; raises :class:`GraphValidationError` on an invalid graph."""
    return list(graph.order)
