"""rfscope benchmark: one workload per invocation, result as the last stdout line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Workloads (see workloads.py): ``cli`` (sequential rfscope subprocesses),
``sweep`` (every zoo variant at 16 resolutions), ``deep-analyze`` (seeded
1.2k-5k node DAGs) and ``rewrite`` (truncate and stem removal, then
serialize and parse). One worker process runs the ops in a closed loop with
one caller. The benchmark is run from a source checkout: workers import
rfscope from ``src/`` and refuse to run without it.

With ``--trace 0`` the result holds the end-to-end metrics. They count each
input key's fastest repeat, divided by the fastest run of a calibration
timed after every op (``calibration`` below; for ``cli`` a bare interpreter
start), since on a shared machine the CPU runs slower in stretches of
seconds and its speed drifts over minutes; the same figures in ms and the
wall-clock ones are printed beside them. Set-up is timed in SETUP_RUNS
worker processes started one after another, around the one that measures
the ops, and reported as their median. The collector stays
on and untuned: an op pays for the collections its allocations trigger.
With ``--trace 1`` it holds the per-layer metrics of tracing.py, and the
spans go to ``.bench_build/perfbench/``.
"""
import time

WORKER_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("cli", "sweep", "deep-analyze", "rewrite")
SETUP_RUNS = 15
RUN_BUDGET_S = 170
UNITS = {
    "mix_cost": "x",
    "op_cost.p50": "x",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
CALIBRATION_NODES = 200
ENVIRONMENT_NOTE = (
    "shared, unpinned machine: other tenants share the cores and memory, no CPU pinning or "
    "frequency control; compare medians of many runs, never single runs"
)


def tail(samples_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at least ten samples above it."""
    ordered = sorted(samples_ms)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def calibration() -> int:
    """Fixed pure-Python work of rfscope's kind, timed after every in-process op to track the CPU's speed.

    A walk over a small DAG held in dicts, folding (min, max) tuples along its
    edges; it never calls rfscope, so a change to the program cannot move it.
    """
    preds: dict[int, list[int]] = {}
    for node in range(1, CALIBRATION_NODES):
        preds[node] = [p for p in (node - 1, node - 2, node - 5) if p >= 0]
    ranges = {0: (1, 1)}
    for node in range(1, CALIBRATION_NODES):
        spans = [ranges[p] for p in preds[node]]
        ranges[node] = (min(lo for lo, _ in spans) + 2, max(hi for _, hi in spans) + 2)
    labels = {f"n{node}": hi - lo for node, (lo, hi) in ranges.items()}
    return len(set(labels.values()))


def best_per_key(samples: list) -> dict[str, float]:
    """The fastest of each key's repeats, in seconds, from timed_loop's samples."""
    best: dict[str, float] = {}
    for key, seconds, _ in samples:
        best[key] = min(seconds, best.get(key, seconds))
    return best


def timed_loop(w, seconds: float, start: int = 0) -> tuple[list[tuple[str, float, float]], int, int]:
    """Run ops from index `start` until `seconds` have passed and a round is complete.

    Returns (key, op seconds, calibration seconds) per op, the number of
    failed ops and the next index.
    """
    samples: list[tuple[str, float, float]] = []
    calibrate = getattr(w, "calibration", calibration)
    failed = 0
    i = start
    began = time.perf_counter()
    while (i - start) % w.round_size or i == start or time.perf_counter() - began < seconds:
        prepared = w.prepare(i)
        key = w.key(prepared)
        t = time.perf_counter()
        try:
            out = w.op(prepared)
        except Exception:
            out = None
            failed += 1
            traceback.print_exc(limit=4, file=sys.stderr)
        op_s = time.perf_counter() - t
        t = time.perf_counter()
        calibrate()
        samples.append((key, op_s, time.perf_counter() - t))
        if out is not None:
            try:
                ok = w.check(prepared, out)
            except Exception:
                traceback.print_exc(limit=4, file=sys.stderr)
                ok = False
            if not ok:
                failed += 1
                print(f"check failed: op {i} of {w.name}", file=sys.stderr)
        i += 1
    return samples, failed, i


def worker(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import rfscope

    if Path(rfscope.__file__).resolve().parent != ROOT / "src" / "rfscope":
        raise SystemExit(f"rfscope imported from {rfscope.__file__}, not from this checkout")
    import workloads

    scratch = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, scratch)
        setup_s = time.perf_counter() - WORKER_START
        if args.setup_only:
            return {"setup_s": setup_s}
        if args.trace:
            import tracing

            result = tracing.traced_run(w, args.seed, args.seconds, scratch, timed_loop)
        else:
            samples, failed, _ = timed_loop(w, args.seconds)
            failed += w.finish()
            result = {"samples": samples, "attempted": len(samples), "failed": failed}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result.update(
        setup_s=setup_s,
        peak_rss_mib=resource.getrusage(who).ru_maxrss / 1024,
        inputs=w.inputs(),
        rfscope_version=rfscope.__version__,
    )
    return result


def spawn_worker(args, extra: list[str], deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    # A session of its own lets a timeout stop the worker and any rfscope process it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"{args.workload} worker did not finish within {RUN_BUDGET_S} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{args.workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def environment(args, inputs: list[dict]) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
        "note": ENVIRONMENT_NOTE,
    }


def run_workload(args) -> dict:
    """Spawn the workers for one workload and assemble its result record."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    setups = []
    if args.trace:
        main = spawn_worker(args, [], deadline)
    else:
        # Set-up workers run one at a time, half before and half after the
        # measuring worker, so the median spans the whole run's machine state.
        before = SETUP_RUNS // 2
        setups = [spawn_worker(args, ["--setup-only"], deadline)["setup_s"] for _ in range(before)]
        main = spawn_worker(args, [], deadline)
        setups += [spawn_worker(args, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_RUNS - 1 - before)]
    setups.append(main["setup_s"])
    details: dict = {"setup_s_runs": setups}
    if args.trace:
        metrics = main["metrics"]
        for key in ("call_counts_per_op", "resnet34_breakdown", "import_rows_ms", "untraced_op_ms", "staged_op_ms"):
            details[key] = main[key]
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        spans_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"spans": main["spans"], **details}) + "\n", encoding="utf-8")
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        samples_ms = [s * 1e3 for _, s, _ in main["samples"]]
        best_ms = sorted(s * 1e3 for s in best_per_key(main["samples"]).values())
        calibration_ms = min(c for _, _, c in main["samples"]) * 1e3
        tail_ms, tail_pct, beyond = tail(samples_ms)
        values = {
            "mix_cost": sum(best_ms) / calibration_ms,
            "op_cost.p50": statistics.median(best_ms) / calibration_ms,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": main["peak_rss_mib"],
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
        details.update(
            best={
                "calibration_ms": calibration_ms,
                "mix_ms": sum(best_ms),
                "op_ms.p50": statistics.median(best_ms),
            },
            wall={
                "ops_per_s": len(samples_ms) / sum(samples_ms) * 1e3,
                "op_ms.p50": statistics.median(samples_ms),
                "op_ms.tail": tail_ms,
            },
            tail_percentile=tail_pct,
            tail_samples_beyond=beyond,
            samples=len(samples_ms),
            keys=len(best_ms),
            error_rate=main["failed"] / main["attempted"],
            peak_rss_source="RUSAGE_CHILDREN" if args.workload == "cli" else "RUSAGE_SELF",
        )
    return {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
        "details": details,
        "environment": environment(args, main["inputs"]),
    }


def print_record(record: dict) -> None:
    env = record["environment"]
    print(f"== {env['workload']} seed={env['seed']} trace={env['trace']} "
          f"python={env['python']} nproc={env['nproc']} ({env['note']})")
    for name, m in record["metrics"].items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    details = record["details"]
    if "error_rate" in details:
        print(f"  {'error_rate':<42} {details['error_rate']:>14.6g} ratio")
        print(f"  {details['keys']} input keys x {details['samples'] // details['keys']} repeats; "
              "costs are each key's fastest repeat over the fastest calibration")
        for kind in ("best", "wall"):
            for name, value in details[kind].items():
                print(f"  {kind + ' ' + name:<42} {value:>14.6g} {'1/s' if name == 'ops_per_s' else 'ms'}")
        print(f"  wall op_ms.tail is p{details['tail_percentile']:.1f} of {details['samples']} ops "
              f"({details['tail_samples_beyond']} beyond)")
    else:
        for label, calls in details["resnet34_breakdown"].items():
            shown = " ".join(f"{k.split('.')[-1]}={v}" for k, v in calls.items())
            print(f"  calls resnet34@32 {label}: {shown}")
        rows = " ".join(f"{k}={v:.2f}" for k, v in details["import_rows_ms"].items())
        print(f"  import ms (cumulative): {rows}")
    print(f"  environment: {json.dumps({k: v for k, v in env.items() if k != 'inputs'})}")
    print(f"  inputs: {len(env['inputs'])} graphs, nodes/edges: "
          + " ".join(f"{i['nodes']}/{i['edges']}" for i in env["inputs"][:24])
          + (" ..." if len(env["inputs"]) > 24 else ""))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append each result record as a JSON line to this file")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    if not (ROOT / "src" / "rfscope" / "__init__.py").is_file():
        print(f"no rfscope sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record = run_workload(argparse.Namespace(**dict(vars(args), workload=name)))
        print_record(record)
        records.append(record)
        if args.out:
            with args.out.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
    if len(records) == 1:
        final = {k: records[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {
                f"{r['environment']['workload']}.{k}": v for r in records for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
