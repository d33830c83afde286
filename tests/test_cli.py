import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dagtools import count_validations, mutated_graph
from rfscope import build_named, parse, serialize, validate
from rfscope.cli import EXIT_FILE, EXIT_INVALID, EXIT_NOOP, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json_reports_border(capsys):
    code, out, err = run(capsys, "analyze", "zoo:vgg16", "--input-size", "32", "32", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["border_min"] == 8
    assert payload["border_max"] == 8
    assert payload["resolution"] == 32
    assert len(payload["per_conv"]) == 13


def test_analyze_formats_agree_on_numbers(capsys):
    _, json_out, _ = run(capsys, "analyze", "zoo:mpnet18", "--format", "json")
    _, csv_out, _ = run(capsys, "analyze", "zoo:mpnet18", "--format", "csv")
    _, text_out, _ = run(capsys, "analyze", "zoo:mpnet18", "--format", "text")
    payload = json.loads(json_out)
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(rows) == len(payload["per_conv"])
    for json_row, csv_row in zip(payload["per_conv"], rows):
        for key in ("ordinal", "r_in_min", "r_in_max", "params", "macs"):
            assert str(json_row[key]) == csv_row[key]
        assert json_row["classification"] == csv_row["classification"]
        assert f" {json_row['macs']} " in text_out


def test_analyze_output_is_deterministic(capsys):
    first = run(capsys, "analyze", "zoo:resnet18", "--format", "json")
    second = run(capsys, "analyze", "zoo:resnet18", "--format", "json")
    assert first == second
    csv_first = run(capsys, "analyze", "zoo:resnet18", "--format", "csv")
    csv_second = run(capsys, "analyze", "zoo:resnet18", "--format", "csv")
    assert csv_first == csv_second


def test_analyze_file_document(tmp_path, capsys):
    path = tmp_path / "vgg11.json"
    path.write_text(serialize(build_named("vgg11")))
    code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["border_min"] == 6


def test_analyze_input_size_override(capsys):
    code, out, _ = run(capsys, "analyze", "zoo:vgg16", "--input-size", "224", "224", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["border_min"] is None


def test_validate_accepts_zoo(capsys):
    code, out, _ = run(capsys, "validate", "zoo:resnet34")
    assert code == EXIT_OK
    assert out.startswith("ok:")


def test_validate_rejects_cyclic_document(tmp_path, capsys):
    doc = {
        "name": "cyclic",
        "input": {"height": 8, "width": 8, "channels": 3},
        "layers": [
            {"id": "input", "kind": "input"},
            {"id": "a", "kind": "add"},
            {"id": "b", "kind": "conv2d", "kernel": 3, "filters": 3},
            {"id": "c", "kind": "conv2d", "kernel": 3, "filters": 3},
        ],
        "edges": [["input", "a"], ["a", "b"], ["b", "a"], ["b", "c"]],
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(path))
    assert code == EXIT_INVALID
    assert "cycle" in err


def test_optimize_stem_removal_macs_delta(capsys):
    code, out, _ = run(capsys, "optimize", "zoo:resnet18", "--pass", "remove-stem-downsampling:2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    delta = payload["deltas"]["macs"]
    assert abs(delta - 0.52e9) <= 0.2 * 0.52e9
    assert payload["modified_node_ids"] == ["stem_conv"]


def test_optimize_truncate_emits_document(tmp_path, capsys):
    out_path = tmp_path / "trimmed.json"
    code, out, _ = run(
        capsys, "optimize", "zoo:vgg16", "--pass", "truncate", "--classes", "10", "--emit", str(out_path), "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["changed"] is True
    emitted = parse(out_path.read_bytes())
    assert "head_fc" in emitted.node_map
    assert "conv13" not in emitted.node_map


def test_optimize_noop_exit_code(capsys):
    code, out, err = run(capsys, "optimize", "zoo:vgg16", "--input-size", "512", "512", "--pass", "truncate", "--format", "json")
    assert code == EXIT_NOOP
    assert json.loads(out)["changed"] is False
    assert "no-op" in err


def test_optimize_unknown_pass(capsys):
    code, _, err = run(capsys, "optimize", "zoo:vgg16", "--pass", "prune-filters")
    assert code == EXIT_USAGE
    assert "unknown pass" in err


def test_optimize_default_stem_count_is_two(capsys):
    code, out, _ = run(capsys, "optimize", "zoo:resnet34", "--pass", "remove-stem-downsampling", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pass"] == "remove-stem-downsampling:2"


def test_compare_reports_direction(capsys):
    code, out, _ = run(capsys, "compare", "zoo:resnet18", "zoo:resnet18-nostem", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["deltas"]["macs"] > 0


def test_zoo_list_names(capsys):
    code, out, _ = run(capsys, "zoo", "list")
    assert code == EXIT_OK
    for name in ("vgg16", "resnet34", "mpnet18"):
        assert name in out.split()


def test_zoo_emit_round_trips(tmp_path, capsys):
    path = tmp_path / "mpnet18.json"
    code, _, _ = run(capsys, "zoo", "emit", "mpnet18", "--out", str(path))
    assert code == EXIT_OK
    assert parse(path.read_bytes()) == build_named("mpnet18")


def test_zoo_emit_stdout(capsys):
    code, out, _ = run(capsys, "zoo", "emit", "vgg11")
    assert code == EXIT_OK
    assert parse(out) == build_named("vgg11")


def test_unknown_zoo_name(capsys):
    code, _, err = run(capsys, "analyze", "zoo:lenet")
    assert code == EXIT_USAGE
    assert "lenet" in err


def test_unknown_flag(capsys):
    code, _, err = run(capsys, "analyze", "zoo:vgg16", "--bogus")
    assert code == EXIT_USAGE
    assert "error" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/no/such/arch.json")
    assert code == EXIT_FILE
    assert "file error" in err


def test_malformed_document_is_validation_failure(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == EXIT_INVALID
    assert "syntax" in err.lower()


def test_shape_failure_maps_to_validation_exit(capsys):
    # Five 2x2 pools on an 8x8 input shrink the map below one pixel.
    code, _, err = run(capsys, "analyze", "zoo:vgg16", "--input-size", "8", "8")
    assert code == EXIT_INVALID
    assert "window" in err


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "rfscope" in out


def _vgg11_file(tmp_path):
    path = tmp_path / "vgg11.json"
    path.write_text(serialize(build_named("vgg11")))
    return str(path)


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["analyze", "zoo:vgg16", "--input-size", "0", "32"], EXIT_USAGE),
        (["analyze", "FILE", "--input-size", "32", "0"], EXIT_USAGE),
        (["zoo", "emit", "vgg16", "--input-size", "-1", "5"], EXIT_USAGE),
        (["optimize", "FILE", "--pass", "truncate", "--classes", "1"], EXIT_USAGE),
        (["optimize", "zoo:vgg16", "--pass", "truncate", "--emit", "MISSING_DIR"], EXIT_FILE),
    ],
    ids=["input-size-zoo", "input-size-file", "zoo-emit-input-size", "classes-file", "emit-missing-dir"],
)
def test_bad_request_fails_cleanly_with_empty_stdout(tmp_path, capsys, argv, expected):
    subs = {"FILE": _vgg11_file(tmp_path), "MISSING_DIR": str(tmp_path / "missing" / "x.json")}
    code, out, err = run(capsys, *[subs.get(a, a) for a in argv])
    assert code == expected
    assert "Traceback" not in err
    assert err
    assert out == ""


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_deeply_nested_document_is_invalid_not_a_crash(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run(capsys, command, str(path))
    assert code == EXIT_INVALID
    assert "Traceback" not in err
    assert err
    assert out == ""


def test_half_stem_removal_is_refused_by_name(capsys):
    code, out, err = run(capsys, "optimize", "zoo:resnet18-nostem", "--pass", "remove-stem-downsampling:1")
    assert code == EXIT_INVALID
    assert "'s2b1_proj'" in err and "'s2b1_add'" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("module", ["rfscope", "rfscope.cli"])
def test_python_m_runs_the_cli(capsys, module):
    _, expected, _ = run(capsys, "zoo", "list")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", module, "zoo", "list"], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout == expected


@pytest.mark.parametrize(
    "argv, validations",
    [
        (["analyze", "FILE"], 1),
        (["validate", "FILE"], 1),
        (["optimize", "FILE", "--pass", "truncate"], 2),
        (["compare", "FILE", "FILE"], 2),
        (["analyze", "zoo:resnet18"], 1),
        (["validate", "zoo:resnet18"], 1),
    ],
    ids=["analyze", "validate", "optimize-truncate", "compare", "analyze-zoo", "validate-zoo"],
)
def test_each_graph_is_validated_once(tmp_path, capsys, monkeypatch, argv, validations):
    path = tmp_path / "resnet18.json"
    path.write_text(serialize(build_named("resnet18")))
    calls = count_validations(monkeypatch)
    code, _, _ = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert code == EXIT_OK
    assert len(calls) == validations


def test_mutated_documents_cover_both_outcomes():
    outcomes = {not validate(mutated_graph(seed)) for seed in range(100)}
    assert outcomes == {True, False}


@pytest.mark.parametrize("seed", range(100))
def test_validate_exit_matches_graph_validation_on_mutated_documents(tmp_path, capsys, seed):
    graph = mutated_graph(seed)
    path = tmp_path / "mutated.json"
    path.write_text(serialize(graph))
    violations = validate(graph)
    code, out, err = run(capsys, "validate", str(path))
    assert "Traceback" not in err
    if violations:
        detail = "; ".join(str(v) for v in violations)
        assert (code, out, err) == (EXIT_INVALID, "", f"rfscope: invalid architecture document: graph validation failed: {detail}\n")
    else:
        assert (code, out, err) == (EXIT_OK, f"ok: {graph.name} ({len(graph.nodes)} nodes, {len(graph.edges)} edges)\n", "")
