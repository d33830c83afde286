"""Command-line surface.

Subcommands: analyze, optimize, compare, validate, and zoo (list/emit).
Architectures are given either as JSON files or as `zoo:NAME` shorthands.
Reports go to stdout, diagnostics to stderr; exit codes are part of the
contract: 0 success, 2 validation failure, 3 no-op optimization, 64 usage
error, 66 file error. Each command imports only the modules it runs, so a
short command does not pay for the rest of the package.
"""
from __future__ import annotations

import argparse
import io
import math
import sys
from typing import TYPE_CHECKING

import rfscope

from .graph_ir import GraphValidationError, InputSpec

if TYPE_CHECKING:
    from typing import IO, Any, Callable, Sequence

    from .border_analysis import BorderReport
    from .graph_ir import ArchGraph
    from .shape_cost_model import CostReport
    from .transforms import ComparisonReport, TransformDelta

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOOP = 3
EXIT_USAGE = 64
EXIT_FILE = 66

FORMATS = ("text", "json", "csv")


class UsageError(Exception):
    """Bad argument values discovered after argparse (unknown zoo name, bad pass spec)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rfscope", description="Receptive-field border analysis for CNN architecture graphs.")
    parser.add_argument("--version", action="version", version=f"rfscope {rfscope.__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_arch_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("arch", help="architecture JSON file or zoo:NAME shorthand")
        p.add_argument("--input-size", nargs=2, type=int, metavar=("H", "W"), help="override input height and width")
        p.add_argument("--classes", type=int, default=10, help="class count for zoo heads (default 10)")

    p = sub.add_parser("analyze", help="receptive-field, border, and cost report")
    add_arch_args(p)
    p.add_argument("--format", choices=FORMATS, default="text")

    p = sub.add_parser("optimize", help="apply a rewrite pass and report the delta")
    add_arch_args(p)
    p.add_argument("--pass", dest="pass_spec", required=True, metavar="PASS",
                   help="truncate | remove-stem-downsampling[:N]")
    p.add_argument("--emit", metavar="OUT_JSON", help="write the rewritten architecture to this file")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("compare", help="side-by-side analysis of two architectures")
    p.add_argument("arch_a")
    p.add_argument("arch_b")
    p.add_argument("--input-size", nargs=2, type=int, metavar=("H", "W"))
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("validate", help="check a document; exit 0 if the graph is valid")
    add_arch_args(p)

    p = sub.add_parser("zoo", help="built-in architectures")
    zoo_sub = p.add_subparsers(dest="zoo_command", required=True, parser_class=_Parser)
    zoo_sub.add_parser("list", help="list builder names")
    p = zoo_sub.add_parser("emit", help="write a zoo model as an architecture document")
    p.add_argument("name")
    p.add_argument("--out", metavar="FILE", help="output path (stdout when omitted)")
    p.add_argument("--input-size", nargs=2, type=int, metavar=("H", "W"))
    p.add_argument("--classes", type=int, default=10)
    return parser


def _input_spec(input_size: Sequence[int], channels: int) -> InputSpec:
    try:
        return InputSpec(input_size[0], input_size[1], channels)
    except ValueError as exc:
        raise UsageError(f"--input-size: {exc}") from None


def _build_zoo(name: str, input_size: Sequence[int] | None, classes: int) -> ArchGraph:
    from .zoo import build_named

    spec = None if input_size is None else _input_spec(input_size, 3)
    try:
        return build_named(name, input_spec=spec, num_classes=classes)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _open(path: str, mode: str) -> IO[Any]:
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except ValueError as exc:  # a path no file can have, such as one with a NUL byte
        raise OSError(f"{exc}: {path!r}") from None


def _load_graph(ref: str, input_size: Sequence[int] | None, classes: int) -> ArchGraph:
    if ref.startswith("zoo:"):
        return _build_zoo(ref[len("zoo:"):], input_size, classes)
    from .archjson import parse

    with _open(ref, "rb") as handle:
        graph = parse(handle.read())
    if input_size is not None:
        graph = graph.with_input(_input_spec(input_size, graph.input.channels))
    return graph


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


def _num(value: int | float) -> int | str:
    return "global" if isinstance(value, float) and math.isinf(value) else int(value)


def _analysis_payload(graph: ArchGraph) -> dict[str, Any]:
    from .border_analysis import analyze

    annotations, border, cost = analyze(graph)
    cost_by_id = {c.node_id: c for c in cost.per_layer}
    rows = []
    for conv in border.per_conv:
        finite_j = [s.j for s in annotations[conv.node_id].in_frontier if not s.global_rf]
        rows.append(
            {
                "ordinal": conv.ordinal,
                "id": conv.node_id,
                "r_in_min": _num(conv.r_in_min),
                "r_in_max": _num(conv.r_in_max),
                "j_min": min(finite_j) if finite_j else "global",
                "j_max": max(finite_j) if finite_j else "global",
                "params": cost_by_id[conv.node_id].params,
                "macs": cost_by_id[conv.node_id].macs,
                "classification": conv.classification,
            }
        )
    return {
        "name": graph.name,
        "input": graph.input._asdict(),
        "resolution": graph.input.resolution,
        "border_min": border.border_min,
        "border_max": border.border_max,
        "border_min_node": border.border_min_node,
        "border_max_node": border.border_max_node,
        "per_conv": rows,
        "totals": {
            "params": cost.total_params,
            "macs": cost.total_macs,
            "flops": cost.total_flops,
            "gflops_mac1": cost.gflops_mac1,
        },
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
    bmin = payload["border_min"]
    bmax = payload["border_max"]
    out.write(f"border_min: {'conv%d' % bmin if bmin else 'none'}")
    out.write(f"  border_max: {'conv%d' % bmax if bmax else 'none'}\n")
    totals = payload["totals"]
    out.write(
        f"totals: params={totals['params']} macs={totals['macs']} "
        f"flops={totals['flops']} gflops_mac1={totals['gflops_mac1']:.6f}\n\n"
    )
    id_width = max([len("id")] + [len(r["id"]) for r in payload["per_conv"]])
    header = (
        f"{'conv':>6} {'id':<{id_width}} {'r_in_min':>9} {'r_in_max':>9} "
        f"{'j_min':>9} {'j_max':>9} {'params':>12} {'macs':>14} class\n"
    )
    out.write(header)
    for r in payload["per_conv"]:
        out.write(
            f"{r['ordinal']:>6} {r['id']:<{id_width}} {str(r['r_in_min']):>9} {str(r['r_in_max']):>9} "
            f"{str(r['j_min']):>9} {str(r['j_max']):>9} {r['params']:>12} {r['macs']:>14} "
            f"{r['classification']}\n"
        )
    return out.getvalue()


def _render_analysis_csv(payload: dict[str, Any]) -> str:
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_TABLE_COLUMNS)
    for r in payload["per_conv"]:
        writer.writerow([r[c] for c in _TABLE_COLUMNS])
    return out.getvalue()


def _border_payload(report: BorderReport) -> dict[str, Any]:
    return {
        "resolution": report.resolution,
        "border_min": report.border_min,
        "border_max": report.border_max,
        "unproductive_convs": len(report.unproductive_conv_ids),
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
        "before": {"border": _border_payload(delta.before_border), "cost": _cost_payload(delta.before_cost)},
        "after": {"border": _border_payload(delta.after_border), "cost": _cost_payload(delta.after_cost)},
        "deltas": {"params": delta.params_delta, "macs": delta.macs_delta},
    }


def _render_delta_text(payload: dict[str, Any]) -> str:
    out = io.StringIO()
    out.write(f"pass: {payload['pass']} (changed: {str(payload['changed']).lower()})\n")
    for side in ("before", "after"):
        b = payload[side]["border"]
        c = payload[side]["cost"]
        bmin = b["border_min"]
        out.write(
            f"{side:>6}: border_min={'conv%d' % bmin if bmin else 'none'} "
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
        "a": {
            "name": report.name_a,
            "border": _border_payload(report.border_a),
            "cost": _cost_payload(report.cost_a),
        },
        "b": {
            "name": report.name_b,
            "border": _border_payload(report.border_b),
            "cost": _cost_payload(report.cost_b),
        },
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
        bmin = s["border"]["border_min"]
        out.write(
            f"{s['name']}: border_min={'conv%d' % bmin if bmin else 'none'} "
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
    if args.emit:
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


def _cmd_zoo(args: argparse.Namespace) -> int:
    if args.zoo_command == "list":
        from .zoo import FAMILIES

        for name in FAMILIES:
            _write_stdout(name + "\n")
        _write_stdout("# options: NAME-dilN (vgg), NAME-noskip, NAME-nostem (resnet)\n")
        return EXIT_OK
    from .archjson import serialize

    text = serialize(_build_zoo(args.name, args.input_size, args.classes))
    if args.out:
        with _open(args.out, "w") as handle:
            handle.write(text)
    else:
        _write_stdout(text)
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "optimize": _cmd_optimize,
    "compare": _cmd_compare,
    "validate": _cmd_validate,
    "zoo": _cmd_zoo,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        _write_stderr(f"rfscope: error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        _write_stderr(f"rfscope: file error: {exc}\n")
        return EXIT_FILE
    # The package loads each error class below on first access, so a clause
    # loads its module only when an exception reaches it.
    except rfscope.DocumentError as exc:
        _write_stderr(f"rfscope: invalid architecture document: {exc}\n")
        return EXIT_INVALID
    except GraphValidationError as exc:
        for violation in exc.violations:
            _write_stderr(f"{violation}\n")
        return EXIT_INVALID
    except (rfscope.TransformError, rfscope.ShapeError, rfscope.FrontierLimitError) as exc:
        _write_stderr(f"rfscope: {exc}\n")
        return EXIT_INVALID
    except OverflowError as exc:  # a MAC count past the float range, from an absurd size or width
        _write_stderr(f"rfscope: cost too large to report: {exc}\n")
        return EXIT_INVALID


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
