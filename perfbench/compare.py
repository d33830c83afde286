"""Compare two sets of benchmark results; a report, not a gate.

    python3 perfbench/run.py --workload sweep --seed 1 --out base.jsonl   # repeat per seed
    python3 perfbench/compare.py base.jsonl change.jsonl

Each file holds result records, one JSON object per line, as written by
``run.py --out``. For every workload and end-to-end metric it prints each
side's median and quartiles over its runs, the spread (interquartile range
over median) and the ratio of the medians, change over base. Given one file
it prints that side alone. Timings on a shared machine are noisy: read the
spread before reading the ratio.
"""
import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(path: Path) -> dict:
    """{(workload, metric): ([values], unit)} from a JSON-lines result file."""
    values: dict = defaultdict(lambda: ([], None))
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        workload = record["environment"]["workload"]
        for name, metric in record["metrics"].items():
            values[(workload, name)] = (values[(workload, name)][0] + [metric["value"]], metric["unit"])
    return dict(values)


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(values: list[float]) -> str:
    q1, q2, q3 = summary(values)
    spread = (q3 - q1) / q2 if q2 else float("nan")
    return f"{q2:>12.5g} [{q1:.5g}, {q3:.5g}] spread {spread:6.1%} n={len(values)}"


def main() -> None:
    parser = argparse.ArgumentParser(description="median, quartiles and ratios between result files")
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    args = parser.parse_args()
    base = load(args.base)
    change = load(args.change) if args.change else {}
    for key in sorted(set(base) | set(change)):
        workload, name = key
        unit = (base.get(key) or change.get(key))[1]
        line = f"{workload:<13} {name:<34} {unit:<6}"
        if key in base:
            line += f" base {fmt(base[key][0])}"
        if key in change:
            line += f" | change {fmt(change[key][0])}"
        if key in base and key in change:
            b = summary(base[key][0])[1]
            c = summary(change[key][0])[1]
            line += f" | ratio {c / b:.4f}" if b else " | ratio n/a"
        print(line)


if __name__ == "__main__":
    main()
