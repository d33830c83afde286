"""Command-line surface.

Subcommands: analyze, optimize, compare, validate, and zoo (list/emit).
Architectures are given either as JSON files or as `zoo:NAME` shorthands.
Reports go to stdout, diagnostics to stderr; exit codes are part of the
contract: 0 success, 2 validation failure, 3 no-op optimization, 64 usage
error, 66 file error. Each command imports only the modules it runs, so a
short command does not pay for the rest of the package.

Each command's arguments are declared once, in `_COMMANDS`. `_match` reads a
plain command line from it without importing argparse; every other form
(help, version, abbreviations, `--opt=value` and every usage error) goes to
the argparse parser that `_build_parser` makes from it, so its texts are
argparse's.
"""
from __future__ import annotations

import io
import math
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

import rfscope

from .graph_ir import GraphValidationError, InputSpec

if TYPE_CHECKING:
    import argparse
    from typing import IO, Any, Callable, Sequence

    from .graph_ir import ArchGraph
    from .rf_analysis import BorderReport
    from .shape_cost_model import CostReport
    from .transforms import ComparisonReport, TransformDelta

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOOP = 3
EXIT_USAGE = 64
EXIT_FILE = 66

FORMATS = ("text", "json", "csv")
_DIGITS = getattr(sys, "get_int_max_str_digits", int)()  # `str` prints no longer int; 0, or Python < 3.10.7: no limit
_PRINTABLE = 10**_DIGITS if _DIGITS else math.inf


class UsageError(Exception):
    """Bad argument values discovered after the command line is read (unknown zoo name, bad pass spec)."""


class _Unprintable(ValueError):
    """A receptive field with more digits than `str` converts; no report is written."""


def _open(path: str, mode: str) -> IO[Any]:
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except ValueError as exc:  # a path no file can have, such as one with a NUL byte
        raise OSError(f"{exc}: {path!r}") from None


def _load_graph(ref: str, input_size: Sequence[int] | None, classes: int) -> ArchGraph:
    if ref.startswith("zoo:"):
        from .zoo import build_named

        try:
            graph = build_named(ref[len("zoo:"):], num_classes=classes)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    else:
        from .archjson import parse

        with _open(ref, "rb") as handle:
            graph = parse(handle.read())
    try:
        return graph if input_size is None else graph.with_input(InputSpec(*input_size, graph.input.channels))
    except ValueError as exc:
        raise UsageError(f"--input-size: {exc}") from None


def _write_stdout(text: str) -> None:
    """Write `text` to stdout; a process started with stdout closed (`>&-`) has `sys.stdout` None."""
    if sys.stdout is None:
        raise OSError("standard output is closed")
    sys.stdout.write(text)


def _write_stderr(text: str) -> None:
    """Write a diagnostic to stderr, or drop it when stderr is closed (`2>&-`), as argparse does:
    `sys.stderr` is then None, or a stream whose writes fail."""
    try:
        sys.stderr.write(text)
    except (AttributeError, OSError):
        pass


def _write_report(payload: dict[str, Any], fmt: str, render: Callable[[dict[str, Any]], str]) -> None:
    """Write `payload` to stdout as indented JSON when `fmt` is "json", else as `render(payload)`."""
    if fmt == "json":
        import json

        _write_stdout(json.dumps(payload, indent=2) + "\n")
    else:
        _write_stdout(render(payload))


def _conv(ordinal: int | None) -> str:
    return f"conv{ordinal}" if ordinal else "none"


def _num(value: int | float) -> int | str:
    """An RF cell: `global` for an infinite field, else the integer, refused past the digit limit."""
    if value >= _PRINTABLE and value != math.inf:
        raise _Unprintable(f"receptive field too large to print: more than {_DIGITS} digits, the interpreter's limit")
    return "global" if value == math.inf else int(value)


def _analysis_payload(graph: ArchGraph) -> dict[str, Any]:
    from .rf_analysis import PRODUCTIVE, UNPRODUCTIVE, classify
    from .shape_cost_model import cost_report, propagate_shapes

    border, cost = classify(graph), cost_report(graph)  # in this order, so an RF error precedes a ShapeError
    cost_by_id, unproductive = propagate_shapes(graph), set(border.unproductive_conv_ids)
    rows = [
        {
            "ordinal": conv.ordinal,
            "id": conv.node_id,
            "r_in_min": _num(conv.r_in_min),
            "r_in_max": _num(conv.r_in_max),
            "j_min": _num(conv.j_min),
            "j_max": _num(conv.j_max),
            "params": cost_by_id[conv.node_id].params,
            "macs": cost_by_id[conv.node_id].macs,
            "classification": UNPRODUCTIVE if conv.node_id in unproductive else PRODUCTIVE,
        }
        for conv in border.per_conv
    ]
    return {
        "name": graph.name,
        "input": graph.input._asdict(),
        "resolution": graph.input.resolution,
        "border_min": border.border_min,
        "border_max": border.border_max,
        "border_min_node": border.border_min_node,
        "border_max_node": border.border_max_node,
        "per_conv": rows,
        "totals": _cost_payload(cost),
    }


_TABLE_COLUMNS = (
    "ordinal",
    "id",
    "r_in_min",
    "r_in_max",
    "j_min",
    "j_max",
    "params",
    "macs",
    "classification",
)


def _render_analysis_text(payload: dict[str, Any]) -> str:
    out = io.StringIO()
    spec = payload["input"]
    out.write(f"rfscope {rfscope.__version__} analysis: {payload['name']}\n")
    out.write(
        f"input: {spec['height']}x{spec['width']}x{spec['channels']} (resolution {payload['resolution']})\n"
    )
    out.write(f"border_min: {_conv(payload['border_min'])}  border_max: {_conv(payload['border_max'])}\n")
    totals = payload["totals"]
    out.write(
        f"totals: params={totals['params']} macs={totals['macs']} "
        f"flops={totals['flops']} gflops_mac1={totals['gflops_mac1']:.6f}\n\n"
    )
    id_width = max([len("id")] + [len(r["id"]) for r in payload["per_conv"]])
    line = "{:>6} {:<{w}} {:>9} {:>9} {:>9} {:>9} {:>12} {:>14} {}\n"  # one cell per _TABLE_COLUMNS
    out.write(line.format("conv", "id", "r_in_min", "r_in_max", "j_min", "j_max", "params", "macs", "class", w=id_width))
    for r in payload["per_conv"]:
        out.write(line.format(*[r[c] for c in _TABLE_COLUMNS], w=id_width))
    return out.getvalue()


def _render_analysis_csv(payload: dict[str, Any]) -> str:
    import csv

    out = io.StringIO()
    writer = csv.DictWriter(out, _TABLE_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(payload["per_conv"])
    return out.getvalue()


def _side_payload(border: BorderReport, cost: CostReport) -> dict[str, Any]:
    return {
        "border": {
            "resolution": border.resolution,
            "border_min": border.border_min,
            "border_max": border.border_max,
            "unproductive_convs": len(border.unproductive_conv_ids),
        },
        "cost": _cost_payload(cost),
    }


def _cost_payload(report: CostReport) -> dict[str, Any]:
    return {
        "params": report.total_params,
        "macs": report.total_macs,
        "flops": report.total_flops,
        "gflops_mac1": report.gflops_mac1,
    }


def _delta_payload(delta: TransformDelta) -> dict[str, Any]:
    return {
        "pass": delta.pass_name,
        "changed": delta.changed,
        "removed_node_ids": list(delta.removed_node_ids),
        "modified_node_ids": list(delta.modified_node_ids),
        "before": _side_payload(delta.before_border, delta.before_cost),
        "after": _side_payload(delta.after_border, delta.after_cost),
        "deltas": {"params": delta.params_delta, "macs": delta.macs_delta},
    }


def _render_delta_text(payload: dict[str, Any]) -> str:
    out = io.StringIO()
    out.write(f"pass: {payload['pass']} (changed: {str(payload['changed']).lower()})\n")
    for side in ("before", "after"):
        b = payload[side]["border"]
        c = payload[side]["cost"]
        out.write(
            f"{side:>6}: border_min={_conv(b['border_min'])} "
            f"unproductive_convs={b['unproductive_convs']} params={c['params']} "
            f"macs={c['macs']} gflops_mac1={c['gflops_mac1']:.6f}\n"
        )
    out.write(f"deltas: params={payload['deltas']['params']:+d} macs={payload['deltas']['macs']:+d}\n")
    if payload["removed_node_ids"]:
        out.write(f"removed: {', '.join(payload['removed_node_ids'])}\n")
    if payload["modified_node_ids"]:
        out.write(f"modified: {', '.join(payload['modified_node_ids'])}\n")
    return out.getvalue()


def _compare_payload(report: ComparisonReport) -> dict[str, Any]:
    return {
        "a": {"name": report.name_a, **_side_payload(report.border_a, report.cost_a)},
        "b": {"name": report.name_b, **_side_payload(report.border_b, report.cost_b)},
        "deltas": {
            "params": report.params_delta,
            "macs": report.macs_delta,
            "params_rel": report.params_rel,
            "macs_rel": report.macs_rel,
        },
    }


def _render_compare_text(payload: dict[str, Any]) -> str:
    out = io.StringIO()
    for side in ("a", "b"):
        s = payload[side]
        out.write(
            f"{s['name']}: border_min={_conv(s['border']['border_min'])} "
            f"params={s['cost']['params']} macs={s['cost']['macs']}\n"
        )
    d = payload["deltas"]
    out.write(
        f"deltas (b - a): params={d['params']:+d} ({d['params_rel']:+.2%}) "
        f"macs={d['macs']:+d} ({d['macs_rel']:+.2%})\n"
    )
    return out.getvalue()


def _parse_pass_spec(spec: str) -> tuple[str, int]:
    if spec == "truncate":
        return "truncate", 0
    if spec == "remove-stem-downsampling":
        return "remove-stem-downsampling", 2
    if spec.startswith("remove-stem-downsampling:"):
        raw = spec.split(":", 1)[1]
        try:
            count = int(raw)
            if str(count) != raw:  # only the spelling the report echoes: no sign, space, zero pad, `_` or other digits
                raise ValueError(raw)
        except ValueError:
            raise UsageError(f"bad downsampling count {raw!r} in --pass {spec!r}") from None
        if count < 1:
            raise UsageError(f"downsampling count must be >= 1, got {count}")
        return "remove-stem-downsampling", count
    raise UsageError(f"unknown pass {spec!r}; expected truncate or remove-stem-downsampling[:N]")


def _cmd_analyze(args: argparse.Namespace) -> int:
    graph = _load_graph(args.arch, args.input_size, args.classes)
    payload = _analysis_payload(graph)
    _write_report(payload, args.format, _render_analysis_csv if args.format == "csv" else _render_analysis_text)
    return EXIT_OK


def _cmd_optimize(args: argparse.Namespace) -> int:
    from .transforms import remove_stem_downsampling, truncate_at_border

    graph = _load_graph(args.arch, args.input_size, args.classes)
    pass_name, count = _parse_pass_spec(args.pass_spec)
    if pass_name == "truncate":
        if args.classes < 2:
            raise UsageError(f"--classes must be >= 2 for the truncate pass, got {args.classes}")
        rewritten, delta = truncate_at_border(graph, num_classes=args.classes)
    else:
        rewritten, delta = remove_stem_downsampling(graph, count)
    # The payload is built first, so a cost too large to report leaves no
    # document, and the document is written next, so a file error leaves stdout empty.
    payload = _delta_payload(delta)
    if args.emit is not None:
        from .archjson import serialize

        with _open(args.emit, "w") as handle:
            handle.write(serialize(rewritten))
    _write_report(payload, args.format, _render_delta_text)
    if not delta.changed:
        _write_stderr("optimize: pass was a no-op (no border layer)\n")
        return EXIT_NOOP
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    from .transforms import compare

    graph_a = _load_graph(args.arch_a, args.input_size, args.classes)
    graph_b = _load_graph(args.arch_b, args.input_size, args.classes)
    try:
        report = compare(graph_a, graph_b)
    except ValueError as exc:
        if type(exc) is not ValueError:  # a ShapeError, say, which main reports as analyze does
            raise
        _write_stderr(f"compare: {exc}\n")  # the two inputs differ
        return EXIT_INVALID
    payload = _compare_payload(report)
    _write_report(payload, args.format, _render_compare_text)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    graph = _load_graph(args.arch, args.input_size, args.classes)
    graph.order  # raises GraphValidationError, reported by main, unless the graph is valid
    _write_stdout(f"ok: {graph.name} ({len(graph.nodes)} nodes, {len(graph.edges)} edges)\n")
    return EXIT_OK


def _cmd_zoo_list(args: argparse.Namespace) -> int:
    from .zoo import FAMILIES

    for name in FAMILIES:
        _write_stdout(name + "\n")
    _write_stdout("# options: NAME-dilN (vgg), NAME-noskip, NAME-nostem (resnet)\n")
    return EXIT_OK


def _cmd_zoo_emit(args: argparse.Namespace) -> int:
    from .archjson import serialize

    text = serialize(_load_graph(f"zoo:{args.name}", args.input_size, args.classes))
    if args.out is not None:
        with _open(args.out, "w") as handle:
            handle.write(text)
    else:
        _write_stdout(text)
    return EXIT_OK


_SIZE_OPTIONS = {
    "--input-size": {"nargs": 2, "type": int, "metavar": ("H", "W"), "help": "override input height and width"},
    "--classes": {"type": int, "default": 10, "help": "class count for zoo heads (default 10)"},
}
_ARCH = {"arch": {"help": "architecture JSON file or zoo:NAME shorthand"}}
_TEXT_OR_JSON = {"--format": {"choices": ("text", "json"), "default": "text"}}

# Each command's words: its help, handler, positionals and options, each
# argument as the keywords of argparse's `add_argument`. A command with no
# handler groups the commands under it.
_COMMANDS = {
    ("analyze",): ("receptive-field, border, and cost report", _cmd_analyze, _ARCH, {
        **_SIZE_OPTIONS, "--format": {"choices": FORMATS, "default": "text"},
    }),
    ("optimize",): ("apply a rewrite pass and report the delta", _cmd_optimize, _ARCH, {
        **_SIZE_OPTIONS,
        "--pass": {"dest": "pass_spec", "required": True, "metavar": "PASS", "help": "truncate | remove-stem-downsampling[:N]"},
        "--emit": {"metavar": "OUT_JSON", "help": "write the rewritten architecture to this file"},
        **_TEXT_OR_JSON,
    }),
    ("compare",): ("side-by-side analysis of two architectures", _cmd_compare, {"arch_a": {}, "arch_b": {}}, {
        **_SIZE_OPTIONS, **_TEXT_OR_JSON,
    }),
    ("validate",): ("check a document; exit 0 if the graph is valid", _cmd_validate, _ARCH, _SIZE_OPTIONS),
    ("zoo",): ("built-in architectures", None, {}, {}),
    ("zoo", "list"): ("list builder names", _cmd_zoo_list, {}, {}),
    ("zoo", "emit"): ("write a zoo model as an architecture document", _cmd_zoo_emit, {"name": {}}, {
        "--out": {"metavar": "FILE", "help": "output path (stdout when omitted)"}, **_SIZE_OPTIONS,
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of `_COMMANDS`, for the command lines `_match` declines."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str) -> None:  # type: ignore[override]
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="rfscope", description="Receptive-field border analysis for CNN architecture graphs.")
    parser.add_argument("--version", action="version", version=f"rfscope {rfscope.__version__}")
    groups = {(): parser.add_subparsers(dest="command", required=True, parser_class=_Parser)}
    for words, (help_text, run, positionals, options) in _COMMANDS.items():
        p = groups[words[:-1]].add_parser(words[-1], help=help_text)
        if run is None:
            groups[words] = p.add_subparsers(dest=f"{words[-1]}_command", required=True, parser_class=_Parser)
        else:
            p.set_defaults(run=run)
        for name, keywords in (*positionals.items(), *options.items()):
            p.add_argument(name, **keywords)
    return parser


def _match(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse reads from `argv`, or None unless `argv` is plain: a command's words,
    its positionals, then its options, each spelled in full, given at most once and followed by
    exactly its count of values. No positional or value starts with `-`."""
    words = tuple(argv[:2]) if tuple(argv[:2]) in _COMMANDS else tuple(argv[:1])
    _, run, positionals, options = _COMMANDS.get(words, ("", None, {}, {}))
    n = len(words) + len(positionals)
    if run is None or len(argv) < n or any(token.startswith("-") for token in argv[len(words):n]):
        return None
    args = dict(zip(("command", f"{words[0]}_command"), words), run=run)
    args.update(zip(positionals, argv[len(words):]))
    found: dict[str, Any] = {}
    while n < len(argv):
        flag, spec = argv[n], options.get(argv[n])
        if spec is None or flag in found:
            return None
        arity = spec.get("nargs", 1)
        values, n = argv[n + 1:n + 1 + arity], n + 1 + arity
        if len(values) < arity or any(value.startswith("-") for value in values):
            return None
        try:
            values = [spec.get("type", str)(value) for value in values]
        except ValueError:
            return None
        if "choices" in spec and values[0] not in spec["choices"]:
            return None
        found[flag] = values if "nargs" in spec else values[0]
    for flag, spec in options.items():
        if spec.get("required") and flag not in found:
            return None
        args[spec.get("dest", flag[2:].replace("-", "_"))] = found.get(flag, spec.get("default"))
    return SimpleNamespace(**args)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _match(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.run(args)
    except UsageError as exc:
        _write_stderr(f"rfscope: error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        _write_stderr(f"rfscope: file error: {exc}\n")
        return EXIT_FILE
    # The package loads each error class below on first access, so a clause
    # loads its module only when an exception reaches it.
    except (rfscope.DocumentError, GraphValidationError) as exc:
        _write_stderr(f"rfscope: invalid architecture document: {exc}\n")
        return EXIT_INVALID
    except (rfscope.TransformError, rfscope.ShapeError, rfscope.FrontierLimitError, _Unprintable) as exc:
        _write_stderr(f"rfscope: {exc}\n")
        return EXIT_INVALID
    except OverflowError as exc:  # a MAC count past the float range, from an absurd size or width
        _write_stderr(f"rfscope: cost too large to report: {exc}\n")
        return EXIT_INVALID


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
