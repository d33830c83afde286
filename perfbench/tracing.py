"""The traced run: per-layer metrics measured from outside the program.

Spans are recorded by the benchmark around its own calls into each rfscope
module; nothing in the program is patched. ``cProfile``, ``gc.callbacks``
and ``tracemalloc`` only observe, each in its own phase, so one observer's
cost never lands in another's numbers:

1. call counts: a fixed list of ops under ``cProfile`` (fixed, so the
   counts repeat exactly from run to run);
2. allocation peak: a fixed list of ops under ``tracemalloc``;
3. one round of the plain timed loop, its outputs checked like an
   untraced run's;
4. staged rounds: each op called stage by stage, one span per stage, then
   probes of the layers the op itself does not reach, with a ``gc``
   callback timing the collections of both (the staged op alone can be a
   subprocess wait with none). They alternate with rounds of the same
   staged calls under a tracer that records nothing, the baseline for the
   tracing overhead;
5. CLI: bare interpreter start, ``-X importtime`` and in-process
   ``rfscope.cli.main`` over the CLI mix.
"""
from __future__ import annotations

import cProfile
import gc
import pstats
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path

from rfscope import (
    InputSpec,
    build_named,
    classify,
    compare,
    cost_report,
    parse,
    remove_stem_downsampling,
    serialize,
    truncate_at_border,
    unproductive_closure,
)

import workloads

PROFILE_OPS = {"cli": 8, "sweep": 16, "deep-analyze": 3, "rewrite": 8}
ALLOC_OPS = {"cli": 8, "sweep": 16, "deep-analyze": 2, "rewrite": 8}
COUNTED = {
    ("graph_ir.py", "validate"): "graph_ir.validate_calls",
    ("graph_ir.py", "topological_order"): "graph_ir.topological_order_calls",
    ("rf_analysis.py", "propagate_dag"): "rf_analysis.propagate_dag_calls",
    ("rf_analysis.py", "prune_frontier"): "rf_analysis.prune_frontier_calls",
}
SPAN_METRICS = (
    "archjson.parse",
    "archjson.serialize",
    "zoo.build_named",
    "graph_ir.validate",
    "graph_ir.topological_order",
    "rf_analysis.propagate_dag",
    "border_analysis.classify",
    "border_analysis.unproductive_closure",
    "shape_cost_model.propagate_shapes",
    "shape_cost_model.cost_report",
    "transforms.truncate",
    "transforms.remove_stem",
    "transforms.compare",
)
INTERPRETER_RUNS = 5
IMPORT_RUNS = 3
CLI_MAIN_OPS = 16


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op_id: int | None = None

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.op_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def durations_ms(self, name: str) -> list[float]:
        return [(s[2] - s[1]) * 1e3 for s in self.spans if s[0] == name]

    def dump(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "op")
        return [dict(zip(keys, s)) for s in self.spans]


class NullTracer:
    """The Tracer interface recording nothing: the staged op without tracing."""

    op_id = None

    @staticmethod
    def span(name: str):
        return nullcontext()


class GcObserver:
    """Times every collection through gc.callbacks."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started
            self.collections += 1

    def __enter__(self) -> "GcObserver":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def unit(metric: str) -> str:
    suffixes = (("_ms", "ms"), ("_kib", "KiB"), ("_pct", "%"), ("_ratio", "ratio"), ("frontier", "states"), ("_states", "states"))
    return next((name for suffix, name in suffixes if metric.endswith(suffix)), "count")


def call_counts(run, arg) -> dict[str, int]:
    """Calls into the counted rfscope functions made by run(arg)."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        run(arg)
    finally:
        prof.disable()
    out = dict.fromkeys(COUNTED.values(), 0)
    for (filename, _, func), (_, ncalls, *_rest) in pstats.Stats(prof).stats.items():
        path = Path(filename)
        key = COUNTED.get((path.name, func))
        if key and path.parent.name == "rfscope":
            out[key] += ncalls
    return out


def reference_breakdown() -> dict[str, dict[str, int]]:
    """Call counts of single public calls on resnet34 at 32x32, each on a fresh graph."""
    graph = build_named("resnet34")
    calls = {
        "analyze": lambda g: (classify(g), cost_report(g)),
        "truncate": lambda g: truncate_at_border(g, 10),
        "remove-stem": lambda g: remove_stem_downsampling(g, 2),
    }
    return {label: call_counts(fn, workloads.fresh(graph)) for label, fn in calls.items()}


def _timed(cmd: list[str], env: dict, cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    t = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, timeout=120)
    return (time.perf_counter() - t) * 1e3, proc


def import_rows(stderr: str) -> dict[str, float]:
    """Cumulative import time in ms for every rfscope module in -X importtime output."""
    rows = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if name == "rfscope" or name.startswith("rfscope."):
            rows[name] = int(cumulative) / 1e3
    return rows


def cli_probe(seed: int, scratch: Path) -> tuple[dict, dict, int, int]:
    """cli.* metrics, import rows, and (attempted, failed) for the in-process mix."""
    root = workloads.HERE.parent
    env = workloads.cli_env(root)
    interpreter = [_timed([sys.executable, "-c", "pass"], env, root)[0] for _ in range(INTERPRETER_RUNS)]
    imports = []
    for _ in range(IMPORT_RUNS):
        _, proc = _timed([sys.executable, "-X", "importtime", "-c", "import rfscope.cli"], env, root)
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.decode("utf-8", "replace"))
        imports.append(import_rows(proc.stderr.decode("utf-8")))
    mix = workloads.CliMix(seed, scratch / "cli-probe")
    main_ms = []
    failed = 0
    for i in range(CLI_MAIN_OPS):
        argv, _ = mix.argv(i)
        t = time.perf_counter()
        code, out, err = mix.main(argv)
        main_ms.append((time.perf_counter() - t) * 1e3)
        failed += not mix.check(argv, code, out, err)
    rows = {name: statistics.median(r[name] for r in imports) for name in imports[0]}
    metrics = {
        "cli.interpreter_ms": statistics.median(interpreter),
        # The rfscope package row nests inside rfscope.cli's cumulative time.
        "cli.import_ms": statistics.median(r["rfscope.cli"] for r in imports),
        "cli.main_ms": statistics.median(main_ms),
    }
    return metrics, rows, CLI_MAIN_OPS, failed


def layer_probe(w, prepared, i: int, tracer: Tracer, done: dict, tally: dict) -> None:
    """Spans for every library layer the staged op did not already cover."""
    graph = w.subject(prepared)
    name, size = w.zoo_key(prepared, i)
    with tracer.span("zoo.build_named"):
        build_named(name, InputSpec(size, size, 3))
    if "report" not in done:
        done = dict(done, **workloads.analysis_stages(graph, tracer))
    annotations = done["annotations"]
    tally["frontier_states"].append(sum(len(a.out_frontier) for a in annotations.values()))
    tally["max_frontier"] = max(
        [tally["max_frontier"]] + [max(len(a.in_frontier), len(a.out_frontier)) for a in annotations.values()]
    )
    with tracer.span("border_analysis.unproductive_closure"):
        unproductive_closure(graph, done["report"])
    with tracer.span("archjson.serialize"):
        text = serialize(graph)
    with tracer.span("archjson.parse"):
        parse(text)
    if "deltas" not in done:
        with tracer.span("transforms.truncate"):
            _, t_delta = truncate_at_border(graph, 10)
        with tracer.span("transforms.remove_stem"):
            stemless, s_delta = remove_stem_downsampling(graph, 2)
        done = dict(done, deltas=(t_delta, s_delta), stemless=stemless)
    with tracer.span("transforms.compare"):
        compare(graph, done["stemless"])
    deltas = done["deltas"]
    tally["removed_nodes"].append(sum(len(d.removed_node_ids) for d in deltas))
    tally["passes"] += len(deltas)
    tally["noops"] += sum(not d.changed for d in deltas)


def traced_run(w, seed: int, seconds: float, scratch: Path, timed_loop) -> dict:
    """Every per-layer metric for workload `w`, plus the spans and tables behind them."""
    i = 0
    run = getattr(w, "inprocess", w.op)
    counted: dict[str, list[int]] = {key: [] for key in COUNTED.values()}
    for _ in range(PROFILE_OPS[w.name]):
        for key, n in call_counts(run, w.prepare(i)).items():
            counted[key].append(n)
        i += 1

    peaks = []
    for _ in range(ALLOC_OPS[w.name]):
        prepared = w.prepare(i)
        tracemalloc.start()
        try:
            run(prepared)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        i += 1

    i = -(-i // w.round_size) * w.round_size
    checked, failed, i = timed_loop(w, 0, i)
    attempted = len(checked)

    # Untraced and traced rounds of the same staged calls alternate, so
    # machine drift over the run lands on both sides of the overhead
    # comparison alike. Each round covers the workload's whole input mix.
    tracer = Tracer()
    null = NullTracer()
    observer = GcObserver()
    tally = {"frontier_states": [], "max_frontier": 0, "removed_nodes": [], "passes": 0, "noops": 0}
    untraced: list[float] = []
    staged_ops = 0
    deadline = time.perf_counter() + seconds
    while not untraced or time.perf_counter() < deadline:
        for _ in range(w.round_size):
            prepared = w.prepare(i)
            t = time.perf_counter()
            w.staged(prepared, null)
            untraced.append(time.perf_counter() - t)
            i += 1
        for _ in range(w.round_size):
            prepared = w.prepare(i)
            tracer.op_id = i
            with observer:
                with tracer.span("op"):
                    done = w.staged(prepared, tracer)
                with tracer.span("probe"):
                    layer_probe(w, prepared, i, tracer, done, tally)
            staged_ops += 1
            i += 1

    breakdown = reference_breakdown()
    cli_metrics, import_table, cli_attempted, cli_failed = cli_probe(seed, scratch)
    attempted += cli_attempted
    failed += cli_failed + w.finish()

    traced_ms = tracer.durations_ms("op")
    op_ms = statistics.median(traced_ms)
    base_ms = statistics.median(untraced) * 1e3
    # Overhead per pair of adjacent rounds, so drift between pairs cancels.
    size = w.round_size
    overheads = [
        statistics.median(traced_ms[k : k + size]) / statistics.median(untraced[k : k + size]) / 1e3 - 1
        for k in range(0, len(untraced), size)
    ]
    metrics = dict(cli_metrics)
    for name in SPAN_METRICS:
        metrics[f"{name}_ms"] = statistics.median(tracer.durations_ms(name))
    for key, values in counted.items():
        metrics[key] = statistics.median(values)
    metrics.update(
        {
            "rf_analysis.frontier_states": statistics.median(tally["frontier_states"]),
            "rf_analysis.max_frontier": tally["max_frontier"],
            "transforms.removed_nodes": statistics.median(tally["removed_nodes"]),
            "transforms.noop_ratio": tally["noops"] / tally["passes"],
            "runtime.gc_pause_ms": observer.pause_s * 1e3 / staged_ops,
            "runtime.gc_collections": observer.collections / staged_ops,
            "runtime.alloc_peak_kib": statistics.median(peaks) / 1024,
            "trace.overhead_pct": 100 * statistics.median(overheads),
        }
    )
    return {
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "call_counts_per_op": counted,
        "resnet34_breakdown": breakdown,
        "import_rows_ms": import_table,
        "spans": tracer.dump(),
        "untraced_op_ms": base_ms,
        "staged_op_ms": op_ms,
    }
