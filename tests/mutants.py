"""Replayable mutation checks: each mutant breaks one spot of `src/` and names the tests that must catch it.

A mutant is a file under `src/`, an exact old text that occurs once in `src/`, the
new text that replaces it, and the ids of the tests that must fail under it. For
each mutant the runner copies `src/` to a temporary directory, makes the one
replacement in the copy, and runs the listed tests with pytest importing
`rfscope` from the copy. A mutant is killed when every listed test fails; it
survives when any of them passes. Before any mutant, the listed tests are run
once on an unchanged copy, where each must pass.

Run it from the repository root:

    PYTHONPATH=src python tests/mutants.py

It prints one line per mutant and exits 1 when the baseline fails or a mutant
survives. It needs only the standard library and pytest. pytest does not collect
this file; `tests/test_mutants.py` checks that every old text still occurs
exactly once, so code that moves takes its mutant along.

Tests that start a fresh interpreter import the checkout's own `src/`, not the
copy, so a mutant lists only tests that run in the pytest process.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIMEOUT_S = 300  # per pytest run; a run of the listed tests takes a few seconds


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


TRANSFORMS = "tests/test_transforms.py::"
WALK_COUNTS = TRANSFORMS + "TestOneAnalysis::test_each_walk_runs_once_per_graph"
MERGE_TAILS = "tests/test_rf_analysis.py::TestPropagateDag::test_exact_frontiers_after_a_merge"
PROPERTIES = "tests/test_properties.py::"
VALIDATE = "tests/test_graph_ir.py::TestValidate::"

MUTANTS = (
    # The one analysis core.
    Mutant(
        "analyze-reclassifies",
        "rfscope/border_analysis.py",
        "classify(graph, annotations), cost_report(graph)",
        "classify(graph), cost_report(graph)",
        (f"{WALK_COUNTS}[analyze]", f"{WALK_COUNTS}[truncate_at_border]", f"{WALK_COUNTS}[cli-analyze]"),
    ),
    Mutant(
        "compare-analyzes-a-twice",
        "rfscope/transforms.py",
        "_, border_b, cost_b = analyze(graph_b)",
        "_, border_b, cost_b = analyze(graph_a)",
        (
            f"{TRANSFORMS}TestCompare::test_truncation_comparison",
            f"{TRANSFORMS}TestCompare::test_stem_removal_comparison",
            "tests/test_cli.py::test_compare_reports_direction",
        ),
    ),
    Mutant(
        "truncate-after-is-the-input",
        "rfscope/transforms.py",
        'analyze(after)\n    return after, TransformDelta("truncate"',
        'analyze(graph)\n    return after, TransformDelta("truncate"',
        (
            f"{TRANSFORMS}TestOneAnalysis::test_delta_reports_are_the_analyses_of_input_and_output[vgg16]",
            f"{TRANSFORMS}TestTruncateAtBorder::test_vgg16_tail_replaced_by_classifier",
        ),
    ),
    # A conv or pool on one-jump paths shifts both extremes by (k_eff - 1) * j.
    Mutant(
        "one-jump-shift-drops-the-jump",
        "rfscope/rf_analysis.py",
        "out_min, out_max = in_min + growth * j, in_max + growth * j",
        "out_min, out_max = in_min + growth, in_max + growth",
        (
            "tests/test_rf_analysis.py::TestPropagateSequential::test_matches_reference_fold_on_vgg16_prefix",
            "tests/test_rf_analysis.py::TestPropagateDag::test_residual_block_min_sticks_max_grows",
            f"{PROPERTIES}test_frontier_invariants_on_zoo[vgg16]",
        ),
    ),
    Mutant(
        "one-jump-map-ignores-global",
        "rfscope/rf_analysis.py",
        "if j == last_j and not last_global:",
        "if j == last_j:",
        (
            "tests/test_rf_analysis.py::TestLayerTransfer::test_global_marks_and_absorbs",
            f"{MERGE_TAILS}[conv-after-global-and-finite-merge]",
            f"{PROPERTIES}test_global_branch_meets_finite_ones_at_a_merge[4]",
        ),
    ),
    Mutant(
        "one-jump-map-keeps-one-state",
        "rfscope/rf_analysis.py",
        "if out_min == out_max:",
        "if out_min <= out_max:",
        (
            f"{MERGE_TAILS}[pool-after-residual]",
            "tests/test_rf_analysis.py::TestOracle::test_stacked_diamonds_match_dag",
            f"{PROPERTIES}test_frontier_invariants_on_zoo[resnet18]",
        ),
    ),
    # A merge of one-jump inputs keeps their min and max; any other merge folds per jump.
    Mutant(
        "merge-max-read-from-lo",
        "rfscope/rf_analysis.py",
        "math.inf if has_global else max(hi.values())",
        "math.inf if has_global else max(lo.values())",
        (f"{PROPERTIES}test_dag_matches_oracle[24]", f"{PROPERTIES}test_frontiers_are_per_jump_path_extremes"),
    ),
    Mutant(
        "one-jump-merge-skips-first-jump",
        "rfscope/rf_analysis.py",
        "if first_j != j or last_j != j or last_global:",
        "if last_j != j or last_global:",
        (f"{MERGE_TAILS}[conv-after-one-jump-then-two-jump-inputs]",),
    ),
    Mutant(
        "one-jump-merge-skips-last-jump",
        "rfscope/rf_analysis.py",
        "if first_j != j or last_j != j or last_global:",
        "if first_j != j or last_global:",
        (f"{PROPERTIES}test_frontier_members_are_path_witnessed[24]", f"{PROPERTIES}test_frontiers_are_per_jump_path_extremes"),
    ),
    Mutant(
        "one-jump-merge-keeps-two-states",
        "rfscope/rf_analysis.py",
        "return ((low,) if r_lo == r_hi else (low, new(RFState, (r_hi, j, False)))), r_lo, r_hi",
        "return (low, new(RFState, (r_hi, j, False))), r_lo, r_hi",
        (f"{MERGE_TAILS}[conv-after-one-jump-add-of-equal-extremes]", "tests/test_layer_kinds.py::test_one_layer_graph[Add]"),
    ),
    # classify finds both borders in the pass that builds the rows.
    Mutant(
        "first-max-read-from-r-in-min",
        "rfscope/border_analysis.py",
        "if first_max is None and r_in_max > resolution:",
        "if first_max is None and r_in_min > resolution:",
        (
            f"{PROPERTIES}test_classify_borders_match_two_scans",
            "tests/test_border_analysis.py::TestZooBorders::test_mpnet18_two_borders",
            "tests/test_acceptance.py::test_border_golden_mpnet18_both_sides",
        ),
    ),
    # validate reports the channel rule only when no structural rule breaks.
    Mutant(
        "validate-reports-widths-first",
        "rfscope/graph_ir.py",
        "return violations + arity or widths",
        "return violations + widths + arity",
        (f"{VALIDATE}test_channel_rule_waits_for_a_later_arity_break", f"{VALIDATE}test_one_walk_matches_the_passes"),
    ),
    Mutant(
        "validate-reports-widths-with-arity",
        "rfscope/graph_ir.py",
        "return violations + arity or widths",
        "return violations + arity + widths",
        (f"{VALIDATE}test_channel_rule_waits_for_a_later_arity_break", f"{VALIDATE}test_one_walk_matches_the_passes"),
    ),
)


def _failed(output: str) -> set[str]:
    """The node ids that pytest's `-rfE` summary in `output` names as failed or in error."""
    ids = set()
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                ids.add(line[len(tag):].split(" - ")[0])
    return ids


def _run(src: Path, tests: list[str]) -> tuple[int, set[str], str]:
    """pytest over `tests` with `rfscope` imported from `src`: exit code, failed ids and output.
    A run that outlasts `TIMEOUT_S`, as a mutant that loops forever would, fails every test."""
    argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "-o", f"pythonpath={src}", *tests]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, set(tests), f"timed out after {TIMEOUT_S} s"
    return proc.returncode, _failed(proc.stdout), proc.stdout + proc.stderr


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="rfscope-mutants-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        listed = sorted({t for m in MUTANTS for t in m.tests})
        code, failed, output = _run(copy, listed)
        if code != 0:
            print(output)
            print(f"baseline: the listed tests must pass on unchanged code (pytest exit {code})")
            return 1
        survivors = 0
        for mutant in MUTANTS:
            target = copy / mutant.path
            original = target.read_text("utf-8")
            if original.count(mutant.old) != 1:
                print(f"STALE     {mutant.name}: the old text does not occur exactly once in {mutant.path}")
                survivors += 1
                continue
            target.write_text(original.replace(mutant.old, mutant.new), "utf-8")
            try:
                _, failed, _ = _run(copy, list(mutant.tests))
            finally:
                target.write_text(original, "utf-8")
            passed = [t for t in mutant.tests if t not in failed]
            if passed or not mutant.tests:
                survivors += 1
                print(f"SURVIVED  {mutant.name}: passed {passed or 'no listed test'}")
            else:
                print(f"killed    {mutant.name} by {len(mutant.tests)} tests")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
