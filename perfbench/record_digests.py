"""Record the byte-level goldens the correctness gate compares against.

    PYTHONPATH=src python3 perfbench/record_digests.py

Writes perfbench/digests.json: for every zoo-model command the CLI mix can
issue, its exit code and the SHA-256 of its stdout; the SHA-256 of
``serialize`` output for both rewrite passes on every rewrite zoo input;
and total parameters and MACs for every sweep (model, size). Run it only to
re-record after an intended output change, and say so in the change.
"""
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from rfscope import InputSpec, build_named, cost_report, remove_stem_downsampling, serialize, truncate_at_border  # noqa: E402
from rfscope.cli import main  # noqa: E402

import workloads as wl  # noqa: E402


def zoo_commands() -> list[list[str]]:
    commands = []
    for m in wl.REWRITE_MODELS:
        subject = f"zoo:{m}"
        commands += [["analyze", subject, "--format", fmt] for fmt in ("text", "json", "csv")]
        commands.append(["optimize", subject, "--pass", "truncate"])
        commands.append(["optimize", subject, "--pass", "remove-stem-downsampling:2", "--emit", wl.EMIT])
    commands += [["compare", f"zoo:{a}", f"zoo:{b}"] for a, b in wl.CLI_PAIRS]
    commands += [["zoo", "emit", m] for m in wl.SWEEP_MODELS]
    return commands


def main_digest(argv: list[str], emit_path: str) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([emit_path if a == wl.EMIT else a for a in argv])
    return [code, wl.sha256(out.getvalue())]


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        emit_path = str(Path(tmp) / "emit.json")
        cli = {" ".join(argv): main_digest(argv, emit_path) for argv in zoo_commands()}
    rewrites = {}
    for m in wl.REWRITE_MODELS:
        for s in wl.REWRITE_SIZES:
            graph = build_named(m, InputSpec(s, s, 3))
            rewrites[f"{m}@{s}/truncate"] = wl.sha256(serialize(truncate_at_border(graph, 10)[0]))
            rewrites[f"{m}@{s}/remove-stem"] = wl.sha256(serialize(remove_stem_downsampling(graph, 2)[0]))
    costs = {}
    for m in wl.SWEEP_MODELS:
        for s in wl.SWEEP_SIZES:
            report = cost_report(build_named(m, InputSpec(s, s, 3)))
            costs[f"{m}@{s}"] = [report.total_params, report.total_macs]
    return {"cli": cli, "serialize": rewrites, "sweep_costs": costs}


if __name__ == "__main__":
    wl.DIGESTS_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {wl.DIGESTS_PATH}")
