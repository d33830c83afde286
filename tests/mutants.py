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
BREAKPOINTS = PROPERTIES + "test_zoo_borders_step_at_every_breakpoint"
VALIDATE = "tests/test_graph_ir.py::TestValidate::"
SHAPES = "tests/test_shape_cost_model.py::"
NON_SQUARE = SHAPES + "TestNonSquareInput::"
SHAPE_RECORDS = SHAPES + "TestMatchesShapeRecordWalk::"
ARCHJSON = "tests/test_archjson.py::"
STEM = TRANSFORMS + "TestRemoveStemDownsampling::"
ONE_ANALYSIS = TRANSFORMS + "TestOneAnalysis::"
ZOO = "tests/test_zoo.py::"
CLI_PINS = "tests/test_cli.py::test_cli_output_matches_pinned_digest"
CLI_DIGESTS = "tests/test_cli_digests.py::test_cli_output_matches_recorded_digest"
PLAIN_READER = "tests/test_cli.py::test_a_plain_command_line_reads_as_argparse_reads_it"
PLAIN_DECLINES = "tests/test_cli.py::test_other_forms_go_to_argparse"

MUTANTS = (
    # The one analysis core: the report classifies before it costs, so an RF error comes first.
    Mutant(
        "cli-costs-before-classify",
        "rfscope/cli.py",
        "border, cost = classify(graph), cost_report(graph)  # in this order",
        "cost, border = cost_report(graph), classify(graph)  # in this order",
        (f"{ONE_ANALYSIS}test_frontier_error_precedes_shape_error",),
    ),
    Mutant(
        "compare-analyzes-a-twice",
        "rfscope/transforms.py",
        "border_b, cost_b = classify(graph_b), cost_report(graph_b)",
        "border_b, cost_b = classify(graph_a), cost_report(graph_a)",
        (
            f"{TRANSFORMS}TestCompare::test_truncation_comparison",
            f"{TRANSFORMS}TestCompare::test_stem_removal_comparison",
            "tests/test_cli.py::test_compare_reports_direction",
        ),
    ),
    Mutant(
        "truncate-after-is-the-input",
        "rfscope/transforms.py",
        'classify(after), cost_report(after)\n    return after, TransformDelta("truncate"',
        'classify(graph), cost_report(graph)\n    return after, TransformDelta("truncate"',
        (
            f"{TRANSFORMS}TestOneAnalysis::test_delta_reports_are_the_analyses_of_input_and_output[vgg16]",
            f"{TRANSFORMS}TestTruncateAtBorder::test_vgg16_tail_replaced_by_classifier",
        ),
    ),
    # Truncation appends each collapsed merge's re-sourced out-edges grouped by merge.
    Mutant(
        "truncate-resources-in-edge-order",
        "rfscope/transforms.py",
        "    for nid, targets in collapsed.items():\n        edges += [(source[nid], b) for b in targets]\n",
        "    edges += [(source[a], b) for a, b in live if a in collapsed and b not in collapsed]\n",
        (
            f"{TRANSFORMS}TestTruncateAtBorder::test_matches_the_heap_drain_oracle[interleaved]",
            f"{TRANSFORMS}TestTruncateAtBorder::test_matches_the_heap_drain_oracle[mutated]",
        ),
    ),
    # A merge collapses when its inputs, read through the merges collapsed before it, come from one node.
    Mutant(
        "truncate-collapses-before-rewiring",
        "rfscope/transforms.py",
        "inputs = {source.get(p, p) for p in preds_of[nid]}",
        "inputs = set(preds_of[nid])",
        (
            f"{TRANSFORMS}TestTruncateAtBorder::test_merges_sharing_a_skip_source_collapse[Add-Add]",
            f"{TRANSFORMS}TestTruncateAtBorder::test_matches_the_heap_drain_oracle[shared-skip]",
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
        "if j == last_j:",
        "if j == last_j or not j:",
        (
            f"{MERGE_TAILS}[conv-after-global-and-finite-merge]",
            f"{PROPERTIES}test_global_branch_meets_finite_ones_at_a_merge[4]",
        ),
    ),
    # The global state (inf, 0) is a fixed point of the recurrence only at jump 0.
    Mutant(
        "global-state-at-jump-one",
        "rfscope/rf_analysis.py",
        "GLOBAL_STATE = RFState(math.inf, 0)",
        "GLOBAL_STATE = RFState(math.inf, 1)",
        (f"{MERGE_TAILS}[strided-conv-after-global-pool]", "tests/test_rf_analysis.py::TestLayerTransfer::test_global_marks_and_absorbs"),
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
        "min(lo.values()), max(hi.values())",
        "min(lo.values()), max(lo.values())",
        (f"{PROPERTIES}test_dag_matches_oracle[24]", f"{PROPERTIES}test_frontiers_are_per_jump_path_extremes"),
    ),
    Mutant(
        "one-jump-merge-skips-first-jump",
        "rfscope/rf_analysis.py",
        "if first_j != j or last_j != j:",
        "if last_j != j:",
        (f"{MERGE_TAILS}[conv-after-one-jump-then-two-jump-inputs]",),
    ),
    Mutant(
        "one-jump-merge-skips-last-jump",
        "rfscope/rf_analysis.py",
        "if first_j != j or last_j != j:",
        "if first_j != j:",
        (f"{PROPERTIES}test_frontier_members_are_path_witnessed[24]", f"{PROPERTIES}test_frontiers_are_per_jump_path_extremes"),
    ),
    Mutant(
        "one-jump-merge-keeps-two-states",
        "rfscope/rf_analysis.py",
        "return ((low,) if r_lo == r_hi else (low, new(RFState, (r_hi, j)))), r_lo, r_hi",
        "return (low, new(RFState, (r_hi, j))), r_lo, r_hi",
        (f"{MERGE_TAILS}[conv-after-one-jump-add-of-equal-extremes]", "tests/test_layer_kinds.py::test_one_layer_graph[Add]"),
    ),
    # A conv's in-frontier is ordered (j, r): its largest finite jump is the last state's.
    Mutant(
        "jump-range-from-the-wrong-end",
        "rfscope/rf_analysis.py",
        "f[-1][1] or inf))",
        "f[0][1] or (f[1][1] if len(f) > 1 else inf)))",
        (
            "tests/test_cli.py::test_analyze_jump_range_spans_finite_paths_past_a_global_branch",
            f"{PROPERTIES}test_classify_borders_match_two_scans",
        ),
    ),
    # classify bisects the running maxima of r_in_min and of r_in_max, each for the first one past the resolution.
    Mutant(
        "first-max-read-from-r-in-min",
        "rfscope/rf_analysis.py",
        "(row[3] if row[3] > top_max else top_max)",
        "(row[2] if row[2] > top_max else top_max)",
        (
            f"{PROPERTIES}test_classify_borders_match_two_scans",
            "tests/test_border_analysis.py::TestZooBorders::test_mpnet18_two_borders",
            "tests/test_acceptance.py::test_border_golden_mpnet18_both_sides",
            f"{BREAKPOINTS}[mpnet18]",
        ),
    ),
    Mutant(
        "border-bisects-left",
        "rfscope/rf_analysis.py",
        "from bisect import bisect_right\n",
        "from bisect import bisect_left as bisect_right\n",
        (f"{BREAKPOINTS}[vgg11]", f"{BREAKPOINTS}[resnet18]", f"{PROPERTIES}test_breakpoints_cover_each_way_a_border_falls"),
    ),
    # A resnet's projection conv sees a smaller field than the conv before it, so raw values are not sorted.
    Mutant(
        "border-bisects-raw-r-in-min",
        "rfscope/rf_analysis.py",
        "tuple([top_min := (row[2] if row[2] > top_min else top_min) for row in rows])",
        "tuple([row[2] for row in rows])",
        (f"{BREAKPOINTS}[resnet18]", f"{BREAKPOINTS}[resnet34]"),
    ),
    # The rule is strict: a conv whose r_in_min equals the resolution stays productive.
    Mutant(
        "unproductive-ids-not-strict",
        "rfscope/rf_analysis.py",
        "if c.r_in_min > self.resolution)",
        "if c.r_in_min >= self.resolution)",
        (
            "tests/test_border_analysis.py::TestClassify::test_rule_is_strict_inequality",
            f"{BREAKPOINTS}[vgg11]",
            f"{BREAKPOINTS}[resnet18]",
        ),
    ),
    # classify keeps each graph's per-conv RF table, and with_input carries it while the check carries.
    Mutant(
        "classify-walks-every-time",
        "rfscope/rf_analysis.py",
        'table = graph.__dict__.get("_rf_table")',
        "table = None",
        (
            f"{ONE_ANALYSIS}test_a_graph_walks_its_receptive_fields_once",
            f"{ONE_ANALYSIS}test_with_input_siblings_share_one_check_and_one_rf_walk",
        ),
    ),
    # classify builds its table from its own walk only; a caller's annotations are not read.
    Mutant(
        "classify-reads-caller-annotations",
        "rfscope/rf_analysis.py",
        "zip(propagate_dag(graph).values(), graph.nodes)",
        "zip((annotations or propagate_dag(graph)).values(), graph.nodes)",
        ("tests/test_border_analysis.py::TestRFTable::test_caller_annotations_are_not_read",),
    ),
    Mutant(
        "with-input-carries-rf-table-across-channels",
        "rfscope/graph_ir.py",
        "        if spec.channels == self.input.channels:\n            graph.__dict__.update(",
        '        graph.__dict__.update((k, v) for k, v in self.__dict__.items() if k == "_rf_table")\n'
        "        if spec.channels == self.input.channels:\n            graph.__dict__.update(",
        ("tests/test_graph_ir.py::TestCachedOrder::test_with_input_keeps_the_check_only_while_the_channels_stay",),
    ),
    # build_named builds each (structure, num_classes) once and shares its tuples across sizes.
    Mutant(
        "zoo-memo-key-drops-num-classes",
        "rfscope/zoo.py",
        "shared = _structure(family, dilation, skips, stem, num_classes)",
        "shared = _structure(family, dilation, skips, stem, 10)",
        (f"{ZOO}test_num_classes_and_options_are_part_of_the_structure_key", f"{ZOO}test_num_classes_sets_head_width"),
    ),
    # Only an int reaches the memo, where 2 and 2.0 would be one key.
    Mutant(
        "zoo-accepts-a-float-num-classes",
        "rfscope/zoo.py",
        "if isinstance(num_classes, bool) or not isinstance(num_classes, int):",
        "if isinstance(num_classes, bool):",
        (f"{ZOO}test_num_classes_and_options_are_part_of_the_structure_key",),
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
    # The cost plan's steps read and store height before width; MACs alone cannot tell them apart.
    Mutant(
        "walk-reads-width-as-height",
        "rfscope/shape_cost_model.py",
        "h, w = hw[slot]",
        "w, h = hw[slot]",
        (
            f"{NON_SQUARE}test_every_node_keeps_height_before_width",
            f"{SHAPE_RECORDS}test_zoo_at_square_and_non_square_sizes[resnet18]",
            f"{SHAPE_RECORDS}test_random_graphs_with_their_errors[False]",
        ),
    ),
    Mutant(
        "walk-stores-width-as-height",
        "rfscope/shape_cost_model.py",
        "hw.append((out_h, out_w))",
        "hw.append((out_w, out_h))",
        (
            f"{NON_SQUARE}test_every_node_keeps_height_before_width",
            f"{NON_SQUARE}test_concat_mismatch_names_height_then_width",
            f"{SHAPE_RECORDS}test_zoo_at_square_and_non_square_sizes[mpnet18]",
        ),
    ),
    # Every size change of the plan is a step, and every step runs.
    Mutant(
        "strided-same-conv-keeps-its-slot",
        "rfscope/shape_cost_model.py",
        "rule = (slot, 1, kind.stride, 0)",
        "rule = None",
        (
            f"{SHAPES}TestPropagateShapes::test_same_padding_uses_ceil",
            f"{SHAPE_RECORDS}test_zoo_at_square_and_non_square_sizes[resnet18]",
            f"{SHAPES}TestOneWalk::test_sweep_totals_match_the_recorded_values",
        ),
    ),
    Mutant(
        "add-across-slots-never-checked",
        "rfscope/shape_cost_model.py",
        "if others:",
        "if others and cls is Concat:",
        (
            f"{SHAPES}TestPropagateShapes::test_add_requires_equal_shapes",
            f"{SHAPES}TestErrorPrecedence::test_merge_before_window",
            f"{SHAPE_RECORDS}test_random_graphs_with_their_errors[False]",
        ),
    ),
    Mutant(
        "attention-drops-its-fixed-macs",
        "rfscope/shape_cost_model.py",
        "params = fixed = 2 * channels",
        "params = 2 * channels",
        (
            f"{SHAPES}TestMacs::test_attention_by_hand[se]",
            f"{SHAPES}TestMacs::test_attention_by_hand[cbam]",
            f"{SHAPE_RECORDS}test_random_graphs_with_their_errors[False]",
        ),
    ),
    Mutant(
        "heads-read-the-area-of-their-output",
        "rfscope/shape_cost_model.py",
        "        area = slot\n",
        "        area = out_slot\n",
        (
            f"{SHAPES}TestMacs::test_dense_on_a_feature_map_reads_every_position",
            f"{SHAPES}TestOneWalk::test_sweep_totals_match_the_recorded_values",
        ),
    ),
    # A node's area factors are summed at the slot whose area it reads: a global pool reads its input's.
    Mutant(
        "slot-factor-at-the-out-slot",
        "rfscope/shape_cost_model.py",
        "mf_sums[area] += mf",
        "mf_sums[out_slot] += mf",
        (
            f"{SHAPES}TestOneWalk::test_sweep_totals_match_the_recorded_values",
            f"{SHAPE_RECORDS}test_zoo_at_square_and_non_square_sizes[vgg11]",
        ),
    ),
    # Siblings share the plan, and it holds no size.
    Mutant(
        "plan-kept-per-graph-only",
        "rfscope/shape_cost_model.py",
        'graph.__dict__.get("_cost_plan") or _cost_plan(graph)',
        "_cost_plan(graph)",
        (
            f"{SHAPES}TestOnePlanPerStructure::test_a_sweep_builds_the_plan_once",
            f"{SHAPE_RECORDS}test_zoo_plan_built_at_one_size_serves_every_sibling[vgg11]",
        ),
    ),
    # propagate_shapes returns every node's record, the input's included.
    Mutant(
        "shapes-skip-the-input-row",
        "rfscope/shape_cost_model.py",
        "in zip(graph.order, rows)}",
        "in zip(graph.order[1:], rows[1:])}",
        (
            f"{SHAPES}TestOneWalk::test_shapes_are_the_report_shapes[vgg11]",
            f"{SHAPES}TestOneWalk::test_shapes_are_the_report_shapes[resnet18]",
            f"{SHAPES}TestPerLayerByPosition::test_a_lone_input_gives_one_row",
        ),
    ),
    # A node reads its input's slot and channels from the first two fields of its predecessor's row,
    # `(out slot, out channels, area slot, ...)`; this mutant reads the out and area slots instead.
    Mutant(
        "plan-reads-a-predecessor-row-out-of-order",
        "rfscope/shape_cost_model.py",
        "rows[preds[0]][:2]",
        "rows[preds[0]][0:3:2]",
        (
            f"{SHAPES}TestParams::test_conv_3x3_64_to_64_with_bias",
            f"{SHAPES}TestPropagateShapes::test_chain_composition",
            f"{SHAPE_RECORDS}test_zoo_at_square_and_non_square_sizes[resnet18]",
        ),
    ),
    # A concat's channels are the sum of its inputs' channel fields, not of their slot fields.
    Mutant(
        "concat-sums-the-slot-field",
        "rfscope/shape_cost_model.py",
        "sum(rows[p][1] for p in preds)",
        "sum(rows[p][0] for p in preds)",
        (
            f"{SHAPES}TestPropagateShapes::test_concat_sums_channels",
            f"{NON_SQUARE}test_every_node_keeps_height_before_width",
            f"{SHAPE_RECORDS}test_random_graphs_with_their_errors[True]",
        ),
    ),
    # The size walk that cost_report and propagate_shapes share starts from the input's height, then width.
    Mutant(
        "sizes-height-and-width-swapped",
        "rfscope/shape_cost_model.py",
        "hw = [(1, 1), (graph.input.height, graph.input.width)]",
        "hw = [(1, 1), (graph.input.width, graph.input.height)]",
        (
            f"{SHAPES}TestPerLayerByPosition::test_a_lone_input_gives_one_row",
            f"{NON_SQUARE}test_every_node_keeps_height_before_width",
            f"{NON_SQUARE}test_concat_mismatch_names_height_then_width",
        ),
    ),
    # Parse requires exactly the fields without a default, in field order.
    Mutant(
        "required-keys-count-a-default",
        "rfscope/archjson.py",
        "len(cls._fields) - len(cls._defaults)]",
        "len(cls._fields) - len(cls._defaults) + 1]",
        (f"{ARCHJSON}test_defaults_fill_optional_conv_fields", f"{ARCHJSON}test_defaults_fill_optional_fields[conv2d]"),
    ),
    Mutant(
        "required-keys-drop-the-first",
        "rfscope/archjson.py",
        "cls._fields[: len(cls._fields)",
        "cls._fields[1 : len(cls._fields)",
        (f"{ARCHJSON}test_missing_required_key_names_the_layer",),
    ),
    # A top-level value of the wrong type is a document error at its path.
    Mutant(
        "layers-object-accepted",
        "rfscope/archjson.py",
        'if not isinstance(doc["layers"], list):',
        "if False:",
        (f"{ARCHJSON}test_key_errors_name_the_path_and_the_key[layers-type]",),
    ),
    # A compiled constructor takes its trailing fields' defaults from `_defaults`.
    Mutant(
        "compiled-init-drops-defaults",
        "rfscope/graph_ir.py",
        "            init.__defaults__ = cls._defaults\n",
        "",
        (
            f"{ARCHJSON}test_defaults_fill_optional_conv_fields",
            f"{ARCHJSON}test_round_trip_zoo[resnet18]",
            "tests/test_zoo.py::test_builders_validate[resnet18]",
            "tests/test_records.py::test_constructor_signature_is_pinned[Conv2d]",
        ),
    ),
    # The split check keeps per node a bitmask of the chosen layers upstream, not a set of every
    # strided layer upstream: the set walk it replaced refuses alike but stores nodes x strided layers.
    Mutant(
        "split-check-keeps-strided-sets",
        "rfscope/transforms.py",
        "    for nid in graph.order:\n"
        "        preds = graph.predecessors[nid]\n"
        "        mask, least = bits.get(nid, 0), len(chosen)\n",
        "    strided_up = {}\n"
        "    for nid in graph.order:\n"
        "        preds = graph.predecessors[nid]\n"
        "        up = frozenset().union(*(strided_up[p] for p in preds))\n"
        "        strided_up[nid] = up | {nid} if nid in chosen or nid in kept else up\n"
        "        mask, least = bits.get(nid, 0), len(chosen)\n",
        (f"{STEM}test_split_check_memory_is_linear",),
    ),
    Mutant(
        "split-pair-ignores-kept-ancestry",
        "rfscope/transforms.py",
        "for p in kept if p in ancestors and not chosen_up[p] >> i & 1",
        "for p in kept if p in ancestors",
        (f"{STEM}test_split_check_matches_the_set_walk",),
    ),
    # A rewrite whose graph fails validation is refused as a TransformError.
    Mutant(
        "rebuild-lets-validation-errors-through",
        "rfscope/transforms.py",
        "    except GraphValidationError as exc:\n        raise TransformError(",
        "    except TransformError as exc:\n        raise TransformError(",
        (f"{STEM}test_rewrite_that_fails_validation_is_refused",),
    ),
    # Truncation can leave an add over unequal channel counts, so its rebuilt graph is validated too.
    Mutant(
        "rebuild-skips-its-validation",
        "rfscope/transforms.py",
        "        rebuilt.order  # the rebuilt graph's one validation, cached for the analyses that follow\n",
        "        pass\n",
        (
            f"{TRANSFORMS}TestTruncateAtBorder::test_rewrite_that_fails_validation_is_refused",
            f"{STEM}test_rewrite_that_fails_validation_is_refused",
        ),
    ),
    # `parse` validates the graph it builds, and a broken rule raises `GraphValidationError`.
    Mutant(
        "parse-skips-its-validation",
        "rfscope/archjson.py",
        "    graph.order  # the graph's one validation, cached for the analyses that follow; raises GraphValidationError\n",
        "",
        (
            f"{ARCHJSON}test_parse_raises_one_error_class_per_fault",
            f"{ARCHJSON}test_cycle_is_semantic_error",
            f"{ARCHJSON}test_validate_accepts_exactly_the_fields_parse_accepts[conv2d-kernel]",
        ),
    ),
    # The CLI reports a graph that breaks a rule as it reports a malformed document, and exits 2.
    Mutant(
        "cli-misses-graph-validation-error",
        "rfscope/cli.py",
        "except (rfscope.DocumentError, GraphValidationError) as exc:",
        "except rfscope.DocumentError as exc:",
        (
            "tests/test_cli.py::test_wrongly_typed_field_is_a_layer_fields_violation[Conv2d-kernel]",
            "tests/test_cli.py::test_validate_exit_matches_graph_validation_on_mutated_documents[0]",
        ),
    ),
    # A message that holds an integer past `str`'s digit limit shows its bit length and exits 2.
    Mutant(
        "safe-repr-lets-the-digit-limit-through",
        "rfscope/graph_ir.py",
        "    except ValueError:\n        return f\"<{value.bit_length()}-bit integer>\"",
        "    except TypeError:\n        return f\"<{value.bit_length()}-bit integer>\"",
        tuple(
            f"tests/test_cli.py::test_an_integer_past_the_digit_limit_in_a_message_reads_as_its_bit_length[{case}]"
            for case in ("window", "channels", "add-shapes", "concat-dims")
        ),
    ),
    # A new head layer's id steps past the ids of the kept nodes.
    Mutant(
        "fresh-id-ignores-taken",
        "rfscope/transforms.py",
        "    if base not in taken:\n        return base\n",
        "    return base\n",
        (f"{TRANSFORMS}TestTruncateAtBorder::test_head_ids_step_past_kept_ones",),
    ),
    # A zoo graph is named by its canonical shorthand, options in one fixed order.
    Mutant(
        "canonical-name-drops-nostem",
        "rfscope/zoo.py",
        '("" if stem else "-nostem")',
        '("" if stem else "")',
        ("tests/test_zoo.py::test_build_named_canonical_names_and_error_order",),
    ),
    # A pass count is accepted only as the report echoes it back.
    Mutant(
        "pass-count-any-int-spelling",
        "rfscope/cli.py",
        "if str(count) != raw:",
        "if False:",
        tuple(
            f"tests/test_cli.py::test_bad_request_fails_cleanly_with_empty_stdout[pass-count-{case}]"
            for case in ("space", "plus", "zero-pad", "underscore", "arabic-indic-digit")
        ),
    ),
    # An explicit empty output path is opened like any other, so it fails.
    Mutant(
        "emit-drops-empty-path",
        "rfscope/cli.py",
        "if args.emit is not None:",
        "if args.emit:",
        ("tests/test_cli.py::test_bad_request_fails_cleanly_with_empty_stdout[emit-empty-path]",),
    ),
    # The plain reader returns argparse's namespace or declines: a value outside an option's choices,
    # a repeated option and a value that starts with `-` all go to argparse.
    Mutant(
        "plain-reader-skips-choices",
        "rfscope/cli.py",
        'if "choices" in spec and values[0] not in spec["choices"]:',
        "if False:",
        (PLAIN_READER,),
    ),
    Mutant(
        "plain-reader-takes-a-repeated-option",
        "rfscope/cli.py",
        "if spec is None or flag in found:",
        "if spec is None:",
        (f"{PLAIN_DECLINES}[repeated]",),
    ),
    Mutant(
        "plain-reader-takes-a-value-with-a-dash",
        "rfscope/cli.py",
        "if len(values) < arity or any(value.startswith(\"-\") for value in values):",
        "if len(values) < arity:",
        (PLAIN_READER, f"{PLAIN_DECLINES}[value-with-dash]"),
    ),
    # A diagnostic is dropped, and the exit code kept, when stderr is None or its writes raise OSError.
    Mutant(
        "stderr-fallback-misses-oserror",
        "rfscope/cli.py",
        "    except (AttributeError, OSError):\n        pass",
        "    except AttributeError:\n        pass",
        tuple(
            f"tests/test_cli.py::test_closed_stderr_keeps_the_exit_code[{case}-write-raises]"
            for case in ("missing-file", "stdout-closed-too", "unknown-zoo-name", "shape-error")
        ),
    ),
    # A zoo ref is resized as a file is, by `with_input`.
    Mutant(
        "load-graph-skips-the-resize",
        "rfscope/cli.py",
        "graph if input_size is None else graph.with_input(InputSpec(*input_size, graph.input.channels))",
        "graph",
        (
            f"{CLI_PINS}[analyze zoo:vgg16 --input-size 48 64]",
            f"{CLI_PINS}[analyze FILE --input-size 48 64 --format json]",
            f"{CLI_PINS}[zoo emit vgg11 --input-size 40 24]",
            "tests/test_cli.py::test_analyze_input_size_override",
        ),
    ),
    # The class column reads the report's unproductive ids.
    Mutant(
        "cli-class-column-swapped",
        "rfscope/cli.py",
        "UNPRODUCTIVE if conv.node_id in unproductive else PRODUCTIVE",
        "PRODUCTIVE if conv.node_id in unproductive else UNPRODUCTIVE",
        tuple(f"{CLI_DIGESTS}[analyze zoo:vgg16 --format {f}]" for f in ("text", "json", "csv")),
    ),
    # Both sides of a delta and of a comparison carry the unproductive conv count.
    Mutant(
        "side-payload-drops-unproductive-convs",
        "rfscope/cli.py",
        '            "unproductive_convs": len(border.unproductive_conv_ids),\n',
        "",
        (
            f"{CLI_PINS}[optimize zoo:vgg16 --pass truncate --format json]",
            f"{CLI_PINS}[compare zoo:vgg16 zoo:vgg11 --format json]",
        ),
    ),
    # An RF value with more digits than `str` converts exits 2 before anything is written.
    Mutant(
        "rf-digit-rule-off",
        "rfscope/cli.py",
        "if value >= _PRINTABLE and value != math.inf:",
        "if False:",
        tuple(f"tests/test_cli.py::test_rf_value_past_the_digit_limit_exits_2_before_writing[{f}]" for f in ("text", "json", "csv")),
    ),
)


def _failed(output: str, tests: list[str]) -> set[str]:
    """The `tests` that pytest's `-rfE` summary in `output` names as failed or in error.
    An error collecting a file, `ERROR tests/x.py - ...`, fails every listed test in it."""
    named = set()
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                named.add(line[len(tag):].split(" - ")[0])
    return {t for t in tests if t in named or t.partition("::")[0] in named}


def _run(src: Path, tests: list[str]) -> tuple[int, set[str], str]:
    """pytest over `tests` with `rfscope` imported from `src`: exit code, failed ids and output.
    A file that fails to collect stops pytest before any test runs (exit 2 or 4), so the
    listed tests of the other files run again without it. A run that outlasts `TIMEOUT_S`,
    as a mutant that loops forever would, fails every test."""
    argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "-o", f"pythonpath={src}", *tests]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, set(tests), f"timed out after {TIMEOUT_S} s"
    failed, output = _failed(proc.stdout, tests), proc.stdout + proc.stderr
    rest = [t for t in tests if t not in failed]
    if proc.returncode in (2, 4) and failed and rest:
        _, more, more_output = _run(src, rest)
        failed, output = failed | more, output + more_output
    return proc.returncode, failed, output


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
