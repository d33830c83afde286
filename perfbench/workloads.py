"""The four benchmark workloads.

Each workload is built from the seed in its constructor (that is the
set-up the benchmark times), then driven op by op:

* ``prepare(i)`` makes op i's input, untimed;
* ``key(prepared)`` names that input; ops with one key repeat the same work;
* ``op(prepared)`` is the timed call into rfscope;
* ``check(prepared, output)`` compares the output against the independent
  reference and returns False on a mismatch;
* ``finish()`` runs checks deferred until after the timed loop (references
  too costly to compute while measuring) and returns the number of ops they
  failed;
* ``staged(prepared, tracer)`` is the traced form of the op: the pipeline
  called stage by stage, every stage in its own span;
* ``subject(prepared)`` is the graph the traced run's layer probes use.

``round_size`` ops cover the workload's input mix once, one op per key; the
timed loop only stops at a round boundary, so every run measures the same
mix and every key the same number of times.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

from rfscope import (
    ArchGraph,
    InputSpec,
    build_named,
    classify,
    cost_report,
    parse,
    propagate_dag,
    propagate_shapes,
    remove_stem_downsampling,
    serialize,
    topological_order,
    truncate_at_border,
    validate,
)

import gen
import reference

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

SWEEP_MODELS = (
    "vgg11", "vgg13", "vgg16", "vgg19", "vgg19-dil3",
    "resnet18", "resnet34", "resnet18-noskip", "resnet34-noskip", "resnet18-nostem", "resnet34-nostem",
    "mpnet18", "mpnet36",
)
SWEEP_SIZES = tuple(range(32, 513, 32))
# Models with a border at 32 and 64, so both rewrite passes change them.
REWRITE_MODELS = tuple(m for m in SWEEP_MODELS if not m.endswith("-nostem"))
REWRITE_SIZES = (32, 64)
REWRITE_SYNTHETIC = (300, 600, 900, 1200)
DEEP_LADDER = (1200, 2150, 3100, 4050, 5000)
DEEP_RESOLUTIONS = (128, 160, 192, 224, 256)
CLI_DOC_NODES = 1200
CLI_PAIRS = (
    ("resnet18", "resnet18-nostem"),
    ("vgg16", "vgg19"),
    ("resnet34", "resnet34-noskip"),
    ("mpnet18", "mpnet36"),
    ("vgg19", "vgg19-dil3"),
)
EMIT = "EMIT"
CLI_CODE = "from rfscope.cli import entrypoint; entrypoint()"


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def fresh(graph: ArchGraph) -> ArchGraph:
    """An equal graph object with none of the per-instance cached properties filled."""
    return ArchGraph(graph.name, graph.input, graph.nodes, graph.edges)


def counts(graph) -> dict:
    return {"name": graph.name, "nodes": len(graph.nodes), "edges": len(graph.edges)}


class _ZooReference:
    """Path-enumeration ranges per zoo model; receptive fields do not depend on resolution."""

    def __init__(self) -> None:
        self._ranges: dict[str, dict] = {}

    def summary(self, name: str, graph) -> tuple:
        if name not in self._ranges:
            self._ranges[name] = reference.enumerate_paths(graph)
        return reference.border_summary(graph, self._ranges[name])


def _expected_summary(g: gen.Generated) -> tuple:
    bmin, bmax = g.border(g.graph.input.height)
    return bmin, bmax, tuple((c.ordinal, c.node_id, c.r_in_min, c.r_in_max) for c in g.convs)


class Sweep:
    """Every zoo family and option variant at 16 resolutions; an op analyzes one (model, size)."""

    name = "sweep"

    def __init__(self, seed: int, scratch: Path) -> None:
        self.rng = random.Random(seed)
        self.keys = [(m, s) for m in SWEEP_MODELS for s in SWEEP_SIZES]
        self.graphs = {(m, s): build_named(m, InputSpec(s, s, 3)) for m, s in self.keys}
        self.round_size = len(self.keys)
        self._order: list[tuple[str, int]] = []
        self._seen: dict[tuple, Counter] = defaultdict(Counter)

    def inputs(self) -> list[dict]:
        return [dict(counts(self.graphs[k]), size=k[1]) for k in self.keys]

    def prepare(self, i: int):
        if i % self.round_size == 0:
            self._order = self.rng.sample(self.keys, len(self.keys))
        return self._order[i % self.round_size]

    def key(self, key) -> str:
        return f"{key[0]}@{key[1]}"

    def op(self, key):
        graph = self.graphs[key]
        return classify(graph), cost_report(graph)

    def check(self, key, out) -> bool:
        report, cost = out
        summary = (reference.report_summary(report), cost.total_params, cost.total_macs)
        self._seen[key][summary] += 1
        return True

    def finish(self) -> int:
        costs = load_digests()["sweep_costs"]
        zoo = _ZooReference()
        failed = 0
        for (model, size), seen in self._seen.items():
            expected = (
                zoo.summary(model, self.graphs[(model, size)]),
                *costs[f"{model}@{size}"],
            )
            failed += sum(n for summary, n in seen.items() if summary != expected)
        return failed

    def staged(self, key, tracer) -> dict:
        return analysis_stages(self.graphs[key], tracer)

    def subject(self, key):
        return self.graphs[key]

    def zoo_key(self, key, i: int) -> tuple[str, int]:
        return key


class DeepAnalyze:
    """Seeded residual/multipath DAGs of 1.2k-5k nodes; no graph repeats."""

    name = "deep-analyze"

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.round_size = len(DEEP_LADDER)
        self._order: list[int] = []
        self._inputs: list[dict] = []

    def inputs(self) -> list[dict]:
        return self._inputs

    def prepare(self, i: int) -> gen.Generated:
        if i % self.round_size == 0:
            self._order = self.rng.sample(DEEP_LADDER, len(DEEP_LADDER))
        graph_seed = self.seed * 100_003 + i
        g = gen.generate(graph_seed, self._order[i % self.round_size], self.rng.choice(DEEP_RESOLUTIONS))
        if len(self._inputs) < 64:
            self._inputs.append(dict(counts(g.graph), size=g.graph.input.height))
        return g

    def key(self, g: gen.Generated) -> str:
        # No graph repeats; graphs of one ladder size cost about the same.
        return g.graph.name.rsplit("-", 1)[1]

    def op(self, g: gen.Generated):
        return classify(g.graph), cost_report(g.graph)

    def check(self, g: gen.Generated, out) -> bool:
        report, cost = out
        return (
            reference.report_summary(report) == _expected_summary(g)
            and (cost.total_params, cost.total_macs) == (g.total_params, g.total_macs)
        )

    def finish(self) -> int:
        return 0

    def staged(self, g: gen.Generated, tracer) -> dict:
        return analysis_stages(g.graph, tracer)

    def subject(self, g: gen.Generated):
        return g.graph

    def zoo_key(self, g, i: int) -> tuple[str, int]:
        return SWEEP_MODELS[i % len(SWEEP_MODELS)], 32


class Rewrite:
    """truncate_at_border and remove_stem_downsampling on fresh graphs, then serialize and parse."""

    name = "rewrite"

    def __init__(self, seed: int, scratch: Path) -> None:
        self.rng = random.Random(seed)
        self.subjects: list[tuple[str, object]] = []
        for m in REWRITE_MODELS:
            for s in REWRITE_SIZES:
                self.subjects.append((f"{m}@{s}", build_named(m, InputSpec(s, s, 3))))
        for k, nodes in enumerate(REWRITE_SYNTHETIC):
            g = gen.generate_with_border(seed * 1009 + k, nodes)
            self.subjects.append((g.graph.name, g))
        self.round_size = len(self.subjects)
        self.serialize_digests = load_digests()["serialize"]
        self._order: list[int] = []
        self._before: dict[str, Counter] = defaultdict(Counter)

    def inputs(self) -> list[dict]:
        return [counts(s.graph if isinstance(s, gen.Generated) else s) for _, s in self.subjects]

    def prepare(self, i: int):
        if i % self.round_size == 0:
            self._order = self.rng.sample(range(self.round_size), self.round_size)
        label, subject = self.subjects[self._order[i % self.round_size]]
        graph = subject.graph if isinstance(subject, gen.Generated) else subject
        return label, subject, fresh(graph)

    def key(self, prepared) -> str:
        return prepared[0]

    def op(self, prepared):
        graph = prepared[2]
        truncated, t_delta = truncate_at_border(graph, 10)
        stemless, s_delta = remove_stem_downsampling(graph, 2)
        t_text = serialize(truncated)
        s_text = serialize(stemless)
        return truncated, t_delta, stemless, s_delta, t_text, parse(t_text), s_text, parse(s_text)

    def check(self, prepared, out) -> bool:
        label, subject, graph = prepared
        truncated, t_delta, stemless, s_delta, t_text, t_parsed, s_text, s_parsed = out
        # Input guard: a no-op rewrite must never be timed as if it were work.
        if not (t_delta.changed and s_delta.changed):
            return False
        if t_parsed != truncated or s_parsed != stemless:
            return False
        if t_delta.after_border.border_min is not None:
            return False
        for after, delta in ((truncated, t_delta), (stemless, s_delta)):
            expected = reference.border_summary(after, reference.jump_fold(after))
            if reference.report_summary(delta.after_border) != expected:
                return False
        if set(s_delta.modified_node_ids + s_delta.removed_node_ids) != set(reference.downsampling_ids(graph)[:2]):
            return False
        before = reference.report_summary(t_delta.before_border)
        if reference.report_summary(s_delta.before_border) != before:
            return False
        if isinstance(subject, gen.Generated):
            cost = t_delta.before_cost
            return before == _expected_summary(subject) and (cost.total_params, cost.total_macs) == (
                subject.total_params,
                subject.total_macs,
            )
        if sha256(t_text) != self.serialize_digests[f"{label}/truncate"]:
            return False
        if sha256(s_text) != self.serialize_digests[f"{label}/remove-stem"]:
            return False
        self._before[label][before] += 1
        return True

    def finish(self) -> int:
        zoo = _ZooReference()
        graphs = dict(self.subjects)
        failed = 0
        for label, seen in self._before.items():
            expected = zoo.summary(label.split("@")[0], graphs[label])
            failed += sum(n for summary, n in seen.items() if summary != expected)
        return failed

    def staged(self, prepared, tracer) -> dict:
        graph = prepared[2]
        with tracer.span("transforms.truncate"):
            truncated, t_delta = truncate_at_border(graph, 10)
        with tracer.span("transforms.remove_stem"):
            stemless, s_delta = remove_stem_downsampling(graph, 2)
        for out in (truncated, stemless):
            with tracer.span("archjson.serialize"):
                text = serialize(out)
            with tracer.span("archjson.parse"):
                parse(text)
        return {"deltas": (t_delta, s_delta), "stemless": stemless}

    def subject(self, prepared):
        return fresh(prepared[2])

    def zoo_key(self, prepared, i: int) -> tuple[str, int]:
        label = prepared[0]
        if "@" in label:
            model, size = label.split("@")
            return model, int(size)
        return REWRITE_MODELS[i % len(REWRITE_MODELS)], 32


class CliMix:
    """The CLI command mix over zoo models and one generated ~1.2k-node document.

    The seed picks the models and the document; one round issues every
    command of the mix once, in an order shuffled per round, so each command
    is repeated as often as there are rounds. Two zoo models to the one
    document put the median command well inside the zoo commands, never on
    the gap between them and the slower document commands.
    """

    def __init__(self, seed: int, scratch: Path) -> None:
        self.rng = random.Random(seed)
        scratch.mkdir(parents=True, exist_ok=True)
        self.doc = gen.generate_with_border(seed * 7919 + 1, CLI_DOC_NODES)
        self.doc_path = scratch / "doc.json"
        self.doc_path.write_text(serialize(self.doc.graph), encoding="utf-8")
        self.emit_path = scratch / "emit.json"
        self.digests = load_digests()
        models = self.rng.sample(REWRITE_MODELS, 2)
        a, b = self.rng.choice(CLI_PAIRS)
        emitted = self.rng.choice(SWEEP_MODELS)
        self.commands: list[tuple[list[str], str | None]] = []
        for subject_model, subject in [(m, f"zoo:{m}") for m in models] + [(None, str(self.doc_path))]:
            self.commands += [(["analyze", subject, "--format", fmt], subject_model) for fmt in ("text", "json", "csv")]
            self.commands.append((["optimize", subject, "--pass", "truncate"], subject_model))
            self.commands.append(
                (["optimize", subject, "--pass", "remove-stem-downsampling:2", "--emit", EMIT], subject_model)
            )
        self.commands.append((["compare", f"zoo:{a}", f"zoo:{b}"], a))
        self.commands.append((["validate", str(self.doc_path)], None))
        self.commands.append((["zoo", "emit", emitted], emitted))
        self.round_size = len(self.commands)
        self._order: list[tuple[list[str], str | None]] = []

    def argv(self, i: int) -> tuple[list[str], str | None]:
        """Op i's arguments and its zoo model (None when the subject is the document)."""
        if i % self.round_size == 0:
            self._order = self.rng.sample(self.commands, len(self.commands))
        argv, model = self._order[i % self.round_size]
        return list(argv), model

    def resolve(self, argv: list[str]) -> list[str]:
        return [str(self.emit_path) if a == EMIT else a for a in argv]

    def main(self, argv: list[str]) -> tuple[int, bytes, bytes]:
        """rfscope.cli.main in this process with stdout and stderr captured; leaves any emitted file."""
        from rfscope.cli import main as cli_main  # argparse and csv stay out of the library workloads' set-up

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(self.resolve(argv))
        return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")

    def check(self, argv: list[str], code: int, out: bytes, err: bytes) -> bool:
        if b"Traceback" in err:
            return False
        emitted = None
        if EMIT in argv:
            emitted = self.emit_path.read_bytes()
            self.emit_path.unlink()
        if str(self.doc_path) in argv:
            return code == 0 and self._check_doc(argv, out.decode("utf-8"), emitted)
        expected_code, digest = self.digests["cli"][" ".join(argv)]
        if (code, sha256(out)) != (expected_code, digest):
            return False
        if emitted is not None:
            return sha256(emitted) == self.digests["serialize"][f"{argv[1][4:]}@32/remove-stem"]
        return True

    def _check_doc(self, argv: list[str], out: str, emitted: bytes | None) -> bool:
        g = self.doc
        bmin, bmax = g.border(g.graph.input.height)
        rows = [(c.ordinal, c.node_id, c.r_in_min, c.r_in_max) for c in g.convs]
        command = argv[0]
        if command == "validate":
            return out == f"ok: {g.graph.name} ({len(g.graph.nodes)} nodes, {len(g.graph.edges)} edges)\n"
        if command == "analyze":
            fmt = argv[-1]
            if fmt == "json":
                p = json.loads(out)
                got = [(r["ordinal"], r["id"], r["r_in_min"], r["r_in_max"]) for r in p["per_conv"]]
                return (p["border_min"], p["border_max"], got, p["totals"]["params"], p["totals"]["macs"]) == (
                    bmin, bmax, rows, g.total_params, g.total_macs,
                )
            if fmt == "csv":
                table = list(csv.reader(io.StringIO(out)))
                got = [(int(r[0]), r[1], int(r[2]), int(r[3])) for r in table[1:]]
                return table[0][:4] == ["ordinal", "id", "r_in_min", "r_in_max"] and got == rows
            lines = out.splitlines()
            got = [(int(f[0]), f[1], int(f[2]), int(f[3])) for f in (line.split() for line in lines[6:])]
            return (
                lines[2] == f"border_min: conv{bmin}  border_max: conv{bmax}"
                and f"params={g.total_params} macs={g.total_macs} " in lines[3]
                and got == rows
            )
        if "truncate" in argv:
            return out.startswith("pass: truncate (changed: true)\n") and (
                f"before: border_min=conv{bmin} " in out and " after: border_min=none " in out
            )
        stem_conv, stem_pool = g.stem_ids
        doc = json.loads(emitted)
        layers = {layer["id"]: layer for layer in doc["layers"]}
        return (
            out.startswith("pass: remove-stem-downsampling:2 (changed: true)\n")
            and f"modified: {stem_conv}\n" in out
            and f"removed: {stem_pool}\n" in out
            and len(doc["layers"]) == len(g.graph.nodes) - 1
            and stem_pool not in layers
            and layers[stem_conv]["stride"] == 1
        )

    def subject(self, model: str | None):
        if model is None:
            return parse(self.doc_path.read_bytes())
        return build_named(model)


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class Cli:
    """Sequential `rfscope` subprocesses cycling the CLI mix."""

    name = "cli"

    def __init__(self, seed: int, scratch: Path) -> None:
        self.mix = CliMix(seed, scratch)
        self.round_size = self.mix.round_size
        self.root = HERE.parent
        self.env = cli_env(self.root)

    def inputs(self) -> list[dict]:
        graphs = [self.mix.doc.graph] + [build_named(m) for m in SWEEP_MODELS]
        return [counts(g) for g in graphs]

    def prepare(self, i: int):
        return self.mix.argv(i)

    def key(self, prepared) -> str:
        return " ".join(prepared[0])

    def op(self, prepared):
        argv, _ = prepared
        proc = subprocess.run(
            [sys.executable, "-c", CLI_CODE, *self.mix.resolve(argv)],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, prepared, out) -> bool:
        return self.mix.check(prepared[0], *out)

    def finish(self) -> int:
        return 0

    def staged(self, prepared, tracer) -> dict:
        with tracer.span("cli.subprocess"):
            self.op(prepared)
        if EMIT in prepared[0]:
            self.mix.emit_path.unlink()
        return {}

    def calibration(self) -> None:
        """A bare interpreter start: what every op pays before rfscope runs, and what the host slows alike."""
        subprocess.run([sys.executable, "-c", "pass"], cwd=self.root, env=self.env, check=True)

    def inprocess(self, prepared) -> int:
        """The op through rfscope.cli.main in this process, for the profilers."""
        return self.mix.main(prepared[0])[0]

    def subject(self, prepared):
        return self.mix.subject(prepared[1])

    def zoo_key(self, prepared, i: int) -> tuple[str, int]:
        return (prepared[1] or REWRITE_MODELS[i % len(REWRITE_MODELS)]), 32


def analysis_stages(graph, tracer):
    """validate -> topological_order -> propagate_dag -> classify -> propagate_shapes -> cost_report."""
    with tracer.span("graph_ir.validate"):
        violations = validate(graph)
    if violations:
        raise ValueError(f"{graph.name}: {violations[0]}")
    with tracer.span("graph_ir.topological_order"):
        topological_order(graph)
    with tracer.span("rf_analysis.propagate_dag"):
        annotations = propagate_dag(graph)
    with tracer.span("border_analysis.classify"):
        report = classify(graph, annotations)
    with tracer.span("shape_cost_model.propagate_shapes"):
        shapes = propagate_shapes(graph)
    with tracer.span("shape_cost_model.cost_report"):
        cost_report(graph, shapes=shapes)
    return {"annotations": annotations, "report": report}


WORKLOADS = {w.name: w for w in (Cli, Sweep, DeepAnalyze, Rewrite)}
