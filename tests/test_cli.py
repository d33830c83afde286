import copy
import csv
import hashlib
import io
import json
import random
from typing import get_args

import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from dagtools import count_validations, mutated_graph, run_fresh
from rfscope import (
    Activation,
    Add,
    Attention,
    Concat,
    Conv2d,
    Dense,
    GlobalAvgPool,
    Input,
    InputSpec,
    Pool,
    build_named,
    make_graph,
    parse,
    serialize,
    validate,
)
from rfscope.cli import EXIT_FILE, EXIT_INVALID, EXIT_NOOP, EXIT_OK, EXIT_USAGE, _build_parser, _match, entrypoint, main
from rfscope.graph_ir import LayerKind


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


def test_analyze_jump_range_spans_finite_paths_past_a_global_branch(tmp_path, capsys):
    # c1 is reached through b1 (jump 1), through the stride-2 pool b2
    # (jump 2) and through the global branch g; j_max is the largest
    # finite jump, whatever the global path does.
    layers = [
        ("input", Input()),
        ("c0", Conv2d(kernel=3, filters=4)),
        ("b1", Conv2d(kernel=2, filters=4, padding="valid")),
        ("b2", Pool(mode="max", kernel=2, stride=2)),
        ("g", GlobalAvgPool()),
        ("add", Add()),
        ("c1", Conv2d(kernel=1, filters=4)),
        ("gap", GlobalAvgPool()),
        ("fc", Dense(units=10)),
    ]
    edges = [
        ("input", "c0"), ("c0", "b1"), ("c0", "b2"), ("c0", "g"),
        ("b1", "add"), ("b2", "add"), ("g", "add"), ("add", "c1"), ("c1", "gap"), ("gap", "fc"),
    ]
    path = tmp_path / "global-branch.json"
    path.write_text(serialize(make_graph("global-branch", InputSpec(2, 2, 3), layers, edges)))
    code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
    assert code == EXIT_OK
    c1 = json.loads(out)["per_conv"][-1]
    assert (c1["id"], c1["r_in_min"], c1["r_in_max"], c1["j_min"], c1["j_max"]) == ("c1", 4, "global", 1, 2)


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
    assert "[declaration_order] b->a: 'b' is not declared before 'a'\n" in err


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


def test_optimize_cost_overflow_writes_no_document(tmp_path, capsys):
    path = tmp_path / "vgg11-huge.json"
    path.write_text(serialize(build_named("vgg11", input_spec=InputSpec(10**300, 10**300, 3))))
    out_path = tmp_path / "out.json"
    code, out, err = run(capsys, "optimize", str(path), "--pass", "remove-stem-downsampling:1", "--emit", str(out_path))
    assert (code, out) == (EXIT_INVALID, "")
    assert err.startswith("rfscope: cost too large to report: ")
    assert not out_path.exists()


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


def test_compare_reports_a_shape_error_as_analyze_does(capsys):
    code, out, err = run(capsys, "compare", "zoo:vgg11", "zoo:vgg13", "--input-size", "1", "1")
    assert (code, out, err) == (EXIT_INVALID, "", "rfscope: node 'pool1': window 2 exceeds padded input extent 1\n")


def test_compare_refuses_graphs_with_different_inputs(tmp_path, capsys):
    path = tmp_path / "vgg11-64.json"
    path.write_text(serialize(build_named("vgg11", input_spec=InputSpec(64, 64, 3))))
    code, out, err = run(capsys, "compare", str(path), "zoo:vgg11")
    assert (code, out) == (EXIT_INVALID, "")
    assert err == (
        "compare: input specs differ: InputSpec(height=64, width=64, channels=3) vs "
        "InputSpec(height=32, width=32, channels=3); comparison would be meaningless\n"
    )


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


def test_nul_byte_in_path_is_a_file_error(capsys):
    assert run(capsys, "analyze", "a\x00b") == (EXIT_FILE, "", "rfscope: file error: embedded null byte: 'a\\x00b'\n")


@pytest.mark.parametrize("argv", [["analyze", "zoo:vgg11"], ["zoo", "list"], ["validate", "zoo:vgg11"]])
def test_closed_stdout_is_a_file_error(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdout", None)  # what a process started with `>&-` sees
    assert run(capsys, *argv) == (EXIT_FILE, "", "rfscope: file error: standard output is closed\n")


def test_closed_stdout_is_a_file_error_in_a_fresh_process(tmp_path):
    proc = run_fresh("-m", "rfscope", "analyze", "zoo:vgg11", stdout_closed=True)
    assert (proc.returncode, proc.stderr) == (EXIT_FILE, "rfscope: file error: standard output is closed\n")
    proc = run_fresh("-m", "rfscope", "zoo", "emit", "vgg11", "--out", str(tmp_path / "v.json"), stdout_closed=True)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert parse((tmp_path / "v.json").read_bytes()) == build_named("vgg11")


@pytest.mark.parametrize(
    "argv, stdout_closed, code",
    [
        (["analyze", "/no/such.json"], False, EXIT_FILE),
        (["analyze", "zoo:vgg11"], True, EXIT_FILE),
        (["analyze", "zoo:nosuch"], False, EXIT_USAGE),
        (["analyze", "zoo:vgg11", "--bogus"], False, EXIT_USAGE),
        (["optimize", "zoo:vgg11", "--input-size", "512", "512", "--pass", "truncate"], False, EXIT_NOOP),
        (["analyze", "zoo:vgg11"], False, EXIT_OK),
    ],
    ids=["missing-file", "stdout-closed-too", "unknown-zoo-name", "unknown-flag", "no-op", "ok"],
)
def test_closed_stderr_keeps_the_exit_code_in_a_fresh_process(argv, stdout_closed, code):
    proc = run_fresh("-m", "rfscope", *argv, stdout_closed=stdout_closed, stderr_closed=True)
    assert (proc.returncode, proc.stderr) == (code, "")


class _FailingStream(io.StringIO):
    def write(self, text):
        raise OSError("stream is gone")


@pytest.mark.parametrize("stderr", [None, _FailingStream()], ids=["none", "write-raises"])
@pytest.mark.parametrize(
    "argv, stdout_closed, code",
    [
        (["analyze", "/no/such.json"], False, EXIT_FILE),
        (["analyze", "zoo:vgg11"], True, EXIT_FILE),
        (["analyze", "zoo:nosuch"], False, EXIT_USAGE),
        (["analyze", "zoo:vgg16", "--input-size", "8", "8"], False, EXIT_INVALID),
    ],
    ids=["missing-file", "stdout-closed-too", "unknown-zoo-name", "shape-error"],
)
def test_closed_stderr_keeps_the_exit_code(monkeypatch, argv, stdout_closed, code, stderr):
    # `2>&-` leaves `sys.stderr` None; a stream whose reader is gone raises on write instead.
    monkeypatch.setattr("sys.stderr", stderr)
    if stdout_closed:
        monkeypatch.setattr("sys.stdout", None)
    assert main(argv) == code


@pytest.mark.parametrize(
    "argv, code", [(["zoo", "list"], EXIT_OK), (["analyze", "zoo:nosuch"], EXIT_USAGE)], ids=["ok", "unknown-zoo-name"]
)
def test_entrypoint_exits_with_the_code_of_main(capsys, monkeypatch, argv, code):
    monkeypatch.setattr("sys.argv", ["rfscope", *argv])
    with pytest.raises(SystemExit) as caught:
        entrypoint()
    assert caught.value.code == code
    assert bool(capsys.readouterr().err) == (code != EXIT_OK)


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


@pytest.mark.parametrize("command", [["analyze"], ["optimize"], ["compare"], ["validate"], ["zoo", "emit"]], ids="-".join)
def test_help_documents_input_size_and_classes(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal's width
    code, out, err = run(capsys, *command, "--help")
    assert (code, err) == (EXIT_OK, "")
    assert "override input height and width" in out
    assert "class count for zoo heads (default 10)" in out


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "rfscope" in out


def _vgg11_file(tmp_path):
    path = tmp_path / "vgg11.json"
    path.write_text(serialize(build_named("vgg11")))
    return str(path)


UNKNOWN_NOPE = (
    "unknown zoo model 'nope'; families: vgg11, vgg13, vgg16, vgg19, resnet18, resnet34, mpnet18, mpnet36 "
    "(options: -dilN, -noskip, -nostem)"
)
# The exact usage text of some bad requests, keyed by argv; the argv fuzz checks only exit codes.
# A zoo ref's name and class count are checked before `--input-size`, as a file is read first.
USAGE_TEXT = {
    "analyze zoo:vgg16 --input-size 0 32": "--input-size: input height must be a positive integer, got 0",
    "analyze zoo:nope --input-size 0 32": UNKNOWN_NOPE,
    "zoo emit nope --input-size 0 32": UNKNOWN_NOPE,
    "analyze zoo:vgg11 --classes 1 --input-size 0 32": "num_classes must be >= 2, got 1",
    "optimize zoo:vgg11 --pass remove-stem-downsampling:0": "downsampling count must be >= 1, got 0",
    "optimize zoo:vgg11 --pass remove-stem-downsampling:-1": "downsampling count must be >= 1, got -1",
    "optimize zoo:vgg11 --pass remove-stem-downsampling:x": "bad downsampling count 'x' in --pass 'remove-stem-downsampling:x'",
    "optimize zoo:vgg11 --pass remove-stem-downsampling: 1": "bad downsampling count ' 1' in --pass 'remove-stem-downsampling: 1'",
    "optimize zoo:vgg11 --pass remove-stem-downsampling:+1": "bad downsampling count '+1' in --pass 'remove-stem-downsampling:+1'",
    "optimize zoo:vgg11 --pass remove-stem-downsampling:01": "bad downsampling count '01' in --pass 'remove-stem-downsampling:01'",
    "optimize zoo:vgg11 --pass remove-stem-downsampling:1_0": "bad downsampling count '1_0' in --pass 'remove-stem-downsampling:1_0'",
    "optimize zoo:vgg11 --pass remove-stem-downsampling:١": "bad downsampling count '١' in --pass 'remove-stem-downsampling:١'",
}


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["analyze", "zoo:vgg16", "--input-size", "0", "32"], EXIT_USAGE),
        (["analyze", "FILE", "--input-size", "32", "0"], EXIT_USAGE),
        (["zoo", "emit", "vgg16", "--input-size", "-1", "5"], EXIT_USAGE),
        (["optimize", "FILE", "--pass", "truncate", "--classes", "1"], EXIT_USAGE),
        (["optimize", "zoo:vgg16", "--pass", "truncate", "--emit", "MISSING_DIR"], EXIT_FILE),
        (["optimize", "zoo:vgg16", "--pass", "truncate", "--emit", "NUL_PATH"], EXIT_FILE),
        (["optimize", "zoo:vgg16", "--pass", "truncate", "--emit", ""], EXIT_FILE),
        (["zoo", "emit", "vgg11", "--out", "NUL_PATH"], EXIT_FILE),
        (["zoo", "emit", "vgg11", "--out", ""], EXIT_FILE),
        (["analyze", "zoo:vgg11", "--classes", str(10**400)], EXIT_INVALID),
        (["compare", "FILE", "zoo:vgg11", "--input-size", str(10**200), str(10**200)], EXIT_INVALID),
        (["optimize", "zoo:vgg11", "--pass", "remove-stem-downsampling:0"], EXIT_USAGE),
        (["optimize", "zoo:vgg11", "--pass", "remove-stem-downsampling:-1"], EXIT_USAGE),
        (["optimize", "zoo:vgg11", "--pass", "remove-stem-downsampling:x"], EXIT_USAGE),
        (["optimize", "zoo:vgg11", "--pass", "remove-stem-downsampling: 1"], EXIT_USAGE),
        (["optimize", "zoo:vgg11", "--pass", "remove-stem-downsampling:+1"], EXIT_USAGE),
        (["optimize", "zoo:vgg11", "--pass", "remove-stem-downsampling:01"], EXIT_USAGE),
        (["optimize", "zoo:vgg11", "--pass", "remove-stem-downsampling:1_0"], EXIT_USAGE),
        (["optimize", "zoo:vgg11", "--pass", "remove-stem-downsampling:١"], EXIT_USAGE),
        (["analyze", "zoo:nope", "--input-size", "0", "32"], EXIT_USAGE),
        (["zoo", "emit", "nope", "--input-size", "0", "32"], EXIT_USAGE),
        (["analyze", "zoo:vgg11", "--classes", "1", "--input-size", "0", "32"], EXIT_USAGE),
    ],
    ids=[
        "input-size-zoo", "input-size-file", "zoo-emit-input-size", "classes-file", "emit-missing-dir",
        "emit-nul-path", "emit-empty-path", "zoo-emit-nul-path", "zoo-emit-empty-path", "classes-overflow",
        "input-size-overflow", "pass-count-zero", "pass-count-negative", "pass-count-not-a-number", "pass-count-space",
        "pass-count-plus", "pass-count-zero-pad", "pass-count-underscore", "pass-count-arabic-indic-digit",
        "unknown-zoo-name-before-input-size", "zoo-emit-unknown-name-before-input-size", "classes-before-input-size",
    ],
)
def test_bad_request_fails_cleanly_with_empty_stdout(tmp_path, capsys, argv, expected):
    subs = {
        "FILE": _vgg11_file(tmp_path),
        "MISSING_DIR": str(tmp_path / "missing" / "x.json"),
        "NUL_PATH": str(tmp_path / "a\x00b.json"),
    }
    code, out, err = run(capsys, *[subs.get(a, a) for a in argv])
    assert code == expected
    assert "Traceback" not in err
    assert err
    assert out == ""
    if " ".join(argv) in USAGE_TEXT:
        assert err == f"rfscope: error: {USAGE_TEXT[' '.join(argv)]}\n"


def test_kind_array_is_invalid_not_a_crash(tmp_path, capsys):
    path = tmp_path / "kind.json"
    doc = {"name": "x", "input": {"height": 8, "width": 8, "channels": 3}, "edges": []}
    doc["layers"] = [{"id": "c", "kind": ["conv2d"]}]
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (EXIT_INVALID, "")
    assert err.startswith("rfscope: invalid architecture document: layers[0] (id 'c').kind: unknown kind ['conv2d']")


# A valid instance of every layer kind that has fields.
FIELDED_KINDS = {type(kind): kind for kind in (Conv2d(3, 4), Pool("max", 2, 2), Dense(2), Activation(), Attention("se"))}


@pytest.mark.parametrize("cls,field", [(cls, field) for cls in get_args(LayerKind) for field in cls._checks])
def test_wrongly_typed_field_is_a_layer_fields_violation(tmp_path, capsys, cls, field):
    graph = make_graph("x", InputSpec(8, 8, 3), [("input", Input()), ("x", FIELDED_KINDS[cls])], [("input", "x")])
    doc = json.loads(serialize(graph))
    path = tmp_path / "bad.json"
    _, message = cls._checks[field]
    for value in ([3], {"kernel": 3}, 1.5, True, None):
        if field == "bias" and value is True:
            continue  # the one value here that a field accepts
        doc["layers"][1][field] = value
        path.write_text(json.dumps(doc))
        line = f"graph validation failed: [layer_fields] x: {field} {message}, got {value!r}"
        assert run(capsys, "validate", str(path)) == (EXIT_INVALID, "", f"rfscope: invalid architecture document: {line}\n")


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
    proc = run_fresh("-m", module, "zoo", "list")
    assert proc.returncode == EXIT_OK
    assert proc.stdout == expected


def _digits_text(digits):
    """A chain of three 1x1 convs on an 8x8 input whose last conv has a jump of 10 ** (digits - 1),
    a `digits`-digit integer; each stride is under `json`'s digit limit."""
    strides = (10 ** (digits // 2), 10 ** (digits - 1 - digits // 2), 1)
    layers = [("input", Input())] + [(f"c{i}", Conv2d(kernel=1, filters=4, stride=s)) for i, s in enumerate(strides, 1)]
    return serialize(make_graph("digits", InputSpec(8, 8, 3), layers, [("input", "c1"), ("c1", "c2"), ("c2", "c3")]))


def _digits_document(tmp_path, digits):
    """`_digits_text(digits)` written to a file in `tmp_path`; its path."""
    path = tmp_path / f"digits{digits}.json"
    path.write_text(_digits_text(digits))
    return str(path)


# Exit code and stdout sha256 of commands no digest in perfbench/digests.json covers, recorded
# with the code from before zoo refs and files shared one resize path. FILE is mpnet18 with a one-channel input;
# J4300 and J4301 are `_digits_document`s whose last jump has 4,300 and 4,301 digits.
PINNED = {
    "analyze FILE --input-size 48 64": (0, "146a7b30c8888346fe7b0fc82d4083faad145dae826d8a5e54c4dc0ca82d326d"),
    "analyze FILE --input-size 48 64 --format csv": (0, "463422e6b6a18d8c160231b20fe5776ff9ab5e49003b8ad72a6fc90a9e5a16f4"),
    "analyze FILE --input-size 48 64 --format json": (0, "d86f8e1253693671ade631aec1bb42970fc434bc64331a88f75a22ea2947de73"),
    "analyze J4300": (0, "c3b868b2bf553a253588962a86952742e4060e0fbffc7735bd3b772a6557ce5d"),
    "analyze J4300 --format csv": (0, "8b512ef7033ad5f4da5816e75f5478e7bc4ed2ed9d2f6f701150da57531f21d0"),
    "analyze J4300 --format json": (0, "9f9735d8caaeea94d35ecc0a14ebe00d940addad39149582bce8d5f112a10b64"),
    "analyze zoo:vgg16 --input-size 48 64": (0, "51c6dd44d01e6e48ddd4f59197fbfd8cdad34510d2e6334fa142896116af2920"),
    "analyze zoo:vgg16 --input-size 48 64 --format csv": (0, "2b205563c9ecb9a4d1e93d7893da63da6952d567b0b99843cda8bab57264ab2f"),
    "analyze zoo:vgg16 --input-size 48 64 --format json": (0, "7c75194fc4a0d75595b924226e1112dc0a53834523c9a095d283499a4550cac8"),
    "compare J4301 J4301": (0, "d4e33156113d16db21b30fbc9c7c2426730330eee59c8163652ecd3412d8d33b"),
    "compare zoo:mpnet18 zoo:vgg16 --format json --input-size 40 56": (0, "d7b49878fac37cc1946313173ea6d8e13ead16ffe0c0edcda915b84dc396a6e6"),
    "compare zoo:resnet18 zoo:resnet18-noskip --format json": (0, "d78a159c56efbf24f17e700291c650d295fd6d9a47425af4d01d5e5901266930"),
    "compare zoo:vgg16 FILE --format json --input-size 40 56": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "compare zoo:vgg16 zoo:vgg11 --format json": (0, "d7b6426efa97e3e3f775ed54d22c7ea16b4264d2226ca924996109f0a04b2647"),
    "optimize J4301 --pass remove-stem-downsampling:1": (0, "8cd70c9bd96c5e486b8eb7577fb04cbc374f09d4fe3fc391e29bf221aff13791"),
    "optimize J4301 --pass truncate": (3, "ac5ce971a858af8c6f259633c9d770d0a8cf8eda7b148d842dd0da35f39ff916"),
    "optimize zoo:mpnet18 --pass truncate --format json --input-size 64 48": (0, "be0110bb2f47dd408448e2b9be876a60babcba10be690b1677a697c445905978"),
    "optimize zoo:resnet18 --pass remove-stem-downsampling --format json": (0, "274e665e3cff5f07e480f3dfa5d9366dfa8e9c89ac3a7af55b0ebb5a74b1f976"),
    "optimize zoo:resnet18 --pass remove-stem-downsampling:1 --format json": (0, "d9fb271b89f2047abd772e46bbfc68700c4e313fe4e583b571f157d25272d905"),
    "optimize zoo:resnet34 --pass remove-stem-downsampling --format json --input-size 48 48 --classes 7": (0, "c94cb8f3e7e03236c89e34c95686bf0ecfc014a55f59a140d718a52798edc125"),
    "optimize zoo:vgg11 --pass truncate --format json": (0, "c0606de9a1b905b4c4a90865280d9549a4363edb4b37f3ba118cfd2b34c94927"),
    "optimize zoo:vgg16 --pass truncate --format json": (0, "49d06a6e597c76371e5d97ef2653ad9495098f24e16d2e6234efd86c8d14998d"),
    "validate FILE --input-size 40 40": (0, "9ee38c2e0a8d7a65760ccccc321c737deb756976816ce0cd2641a0130440e8de"),
    "validate J4301": (0, "4219149cf17b7488440e674d2a3b2864f1f236144f48ca2acac60bdc20f0ea44"),
    "validate zoo:mpnet18 --input-size 40 40": (0, "9ee38c2e0a8d7a65760ccccc321c737deb756976816ce0cd2641a0130440e8de"),
    "zoo emit resnet18-nostem --input-size 64 64 --classes 7": (0, "b8d7c7e04645ce08cde9257723a32554ce8f6720dbb132f9574fff31fa0e67af"),
    "zoo emit vgg11 --input-size 40 24": (0, "ac341ec39369555884e8f46a9feb4d8789daf232ee9c2f897ac7a5d4061e1c6a"),
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_cli_output_matches_pinned_digest(tmp_path, capsys, command):
    path = tmp_path / "mpnet18-gray.json"
    path.write_text(serialize(build_named("mpnet18", InputSpec(32, 32, 1))))
    subs = {"FILE": str(path), "J4300": _digits_document(tmp_path, 4300), "J4301": _digits_document(tmp_path, 4301)}
    code, out, err = run(capsys, *[subs.get(a, a) for a in command.split(" ")])
    assert "Traceback" not in err
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == PINNED[command]


RF_TOO_LARGE = "rfscope: receptive field too large to print: more than {} digits, the interpreter's limit\n"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_rf_value_past_the_digit_limit_exits_2_before_writing(tmp_path, capsys, fmt):
    assert run(capsys, "analyze", _digits_document(tmp_path, 4301), "--format", fmt) == (EXIT_INVALID, "", RF_TOO_LARGE.format(4300))


@pytest.mark.parametrize("limit, digits, code", [(640, 640, EXIT_OK), (640, 641, EXIT_INVALID), (5000, 4301, EXIT_OK)])
def test_the_digit_rule_follows_the_interpreter_limit(tmp_path, limit, digits, code):
    proc = run_fresh("-X", f"int_max_str_digits={limit}", "-m", "rfscope", "analyze", _digits_document(tmp_path, digits))
    assert (proc.returncode, proc.stderr) == (code, "" if code == EXIT_OK else RF_TOO_LARGE.format(limit))
    jump = "1" + "0" * (digits - 1)  # 10 ** (digits - 1), spelled without this process's digit limit
    assert f" {jump} {jump} " in proc.stdout if code == EXIT_OK else proc.stdout == ""


@pytest.mark.parametrize(
    "argv, validations",
    [
        (["analyze", "FILE"], 1),
        (["validate", "FILE"], 1),
        (["optimize", "FILE", "--pass", "truncate"], 2),
        (["compare", "FILE", "FILE"], 2),
        (["analyze", "zoo:resnet18"], 1),
        (["validate", "zoo:resnet18"], 1),
        (["analyze", "FILE", "--input-size", "64", "64"], 1),
        (["validate", "FILE", "--input-size", "64", "64"], 1),
        (["optimize", "FILE", "--pass", "truncate", "--input-size", "64", "64"], 2),
        (["compare", "FILE", "FILE", "--input-size", "64", "64"], 2),
    ],
    ids=[
        "analyze", "validate", "optimize-truncate", "compare", "analyze-zoo", "validate-zoo",
        "analyze-resized", "validate-resized", "optimize-truncate-resized", "compare-resized",
    ],
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


# Argv fuzzing. Tokens hold no "/", and the test runs in tmp_path, so every
# file a generated command can write lands in tmp_path.
_ODD = st.one_of(
    st.sampled_from(["", " ", "-", "--", "-h", "\x00", "a\x00b", "zoo:", "zoo:\x00", "zoo:vgg11\x00", "..", "@x"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="/"), max_size=8),
)
_INT = st.one_of(
    st.sampled_from([0, -1, 1, 2, 3, 2**31, 2**63, -(2**63), 10**400]),
    st.integers(min_value=-(10**6), max_value=10**6),
).map(str)
_ARCH = st.one_of(
    st.sampled_from(["zoo:vgg11", "zoo:resnet18-nostem", "zoo:nope", "FILE", "missing.json", ".", "a\x00b"]), _ODD
)
_HEAD = st.one_of(
    st.tuples(st.sampled_from(["analyze", "optimize", "validate"]), _ARCH),
    st.tuples(st.just("compare"), _ARCH, _ARCH),
    st.tuples(st.just("zoo"), st.just("emit"), st.one_of(st.sampled_from(["vgg11", "resnet18-nostem"]), _ODD)),
    st.just(("zoo", "list")),
    st.lists(_ODD, max_size=2).map(tuple),
)
_FLAG = st.one_of(
    st.tuples(st.just("--input-size"), _INT, _INT),
    st.tuples(st.just("--classes"), _INT),
    st.tuples(st.just("--format"), st.one_of(st.sampled_from(["text", "json", "csv"]), _ODD)),
    st.tuples(
        st.just("--pass"),
        st.one_of(st.sampled_from(["truncate", "remove-stem-downsampling"]), _INT.map("remove-stem-downsampling:{}".format), _ODD),
    ),
    st.tuples(st.sampled_from(["--emit", "--out"]), st.one_of(st.sampled_from(["out.json", ".", "no/out.json", "o\x00.json"]), _ODD)),
    st.tuples(_ODD),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(head=_HEAD, flags=st.lists(_FLAG, max_size=3))
def test_any_argv_keeps_the_exit_code_contract(tmp_path, capsys, monkeypatch, head, flags):
    monkeypatch.chdir(tmp_path)
    file = _vgg11_file(tmp_path)
    argv = [file if a == "FILE" else a for a in (*head, *(token for flag in flags for token in flag))]
    code, _, err = run(capsys, *argv)
    assert code in {EXIT_OK, EXIT_INVALID, EXIT_NOOP, EXIT_USAGE, EXIT_FILE}, (argv, err)
    assert "Traceback" not in err
    assert code == EXIT_OK or err, argv


# Plain command lines: every command in the form `_match` reads, each option with a value it accepts.
_CANONICAL = st.one_of(
    st.tuples(st.sampled_from(["analyze", "validate"]), _ARCH),
    st.tuples(st.just("optimize"), _ARCH, st.just("--pass"), st.sampled_from(["truncate", "remove-stem-downsampling:2"])),
    st.tuples(st.just("compare"), _ARCH, _ARCH),
    st.tuples(st.just("zoo"), st.just("emit"), st.sampled_from(["vgg11", "resnet18-nostem"])),
    st.just(("zoo", "list")),
)
_NATURAL = st.integers(min_value=0, max_value=10**6).map(str)
_PLAIN_FLAG = st.one_of(
    st.tuples(st.just("--input-size"), _NATURAL, _NATURAL),
    st.tuples(st.just("--classes"), _NATURAL),
    st.tuples(st.just("--format"), st.sampled_from(["text", "json", "csv"])),
    st.tuples(st.sampled_from(["--emit", "--out"]), st.sampled_from(["out.json", "."])),
)


@settings(max_examples=500, deadline=None)
@given(head=st.one_of(_HEAD, _CANONICAL), flags=st.lists(st.one_of(_FLAG, _PLAIN_FLAG), max_size=4))
@example(head=("analyze", "zoo:vgg11"), flags=[("--format", "x")])
@example(head=("analyze", "zoo:vgg11"), flags=[("--classes", "3"), ("--classes", "4")])
@example(head=("zoo", "emit", "vgg11"), flags=[("--out", "--")])
def test_a_plain_command_line_reads_as_argparse_reads_it(head, flags):
    argv = [*head, *(token for flag in flags for token in flag)]
    matched = _match(argv)
    if matched is not None:
        assert vars(matched) == vars(_build_parser().parse_args(argv)), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "zoo:vgg11"],
        ["analyze", "zoo:vgg11", "--format", "csv", "--classes", "5", "--input-size", "64", "48"],
        ["optimize", "zoo:vgg11", "--pass", "truncate", "--emit", "out.json", "--format", "json"],
        ["compare", "zoo:vgg11", "zoo:vgg13", "--input-size", "64", "64"],
        ["validate", "zoo:vgg11", "--classes", "7"],
        ["zoo", "list"],
        ["zoo", "emit", "vgg11", "--out", "out.json", "--classes", "3"],
    ],
    ids=["analyze", "analyze-options", "optimize", "compare", "validate", "zoo-list", "zoo-emit"],
)
def test_every_command_has_a_plain_form(argv):
    matched = _match(argv)
    assert matched is not None
    assert vars(matched) == vars(_build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "zoo:vgg11", "--format=json"],
        ["analyze", "zoo:vgg11", "--form", "json"],
        ["analyze", "zoo:vgg11", "--format", "text", "--format", "json"],
        ["zoo", "emit", "vgg11", "--input-size", "-1", "5"],
        ["analyze", "--", "zoo:vgg11"],
        ["analyze", "zoo:vgg11", "-h"],
        ["analyze", "zoo:vgg11", "--classes", "1" * 5000],
    ],
    ids=["equals-sign", "abbreviation", "repeated", "value-with-dash", "double-dash", "help", "past-the-digit-limit"],
)
def test_other_forms_go_to_argparse(argv):
    assert _match(argv) is None


# Document fuzzing: zoo documents with values retyped, keys and elements
# dropped, or keys repeated, at random paths, run through every command that
# reads a file.
_FUZZ_DOCS = {name: json.loads(serialize(build_named(name))) for name in ("vgg11", "resnet18-nostem", "mpnet18")}
_DROP = object()
_VALUES = [None, True, False, 0, -1, 1.5, float("nan"), 1e308, 2**63, 10**400, "", "x", "conv2d", "same", [], {}, _DROP]


def _paths(node, prefix=()):
    """The path of every value in a decoded JSON document, the document itself first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*prefix, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _render(node, repeats):
    """`node` as JSON text, each object followed by its repeated keys from `repeats` (by object id)."""
    if isinstance(node, dict):
        pairs = [*node.items(), *repeats.get(id(node), ())]
        return "{" + ", ".join(f"{json.dumps(key)}: {_render(value, repeats)}" for key, value in pairs) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(_render(value, repeats) for value in node) + "]"
    return json.dumps(node)


def _mutated_document(choose):
    """A zoo document as JSON text with 1-3 values retyped or dropped, then 0-2 keys repeated.

    `choose` picks one element of a sequence: a Hypothesis draw or a seeded
    `random.Random.choice`. A repeated key carries a retyped value or its
    own value again; `json` keeps the last one.
    """
    doc = copy.deepcopy(_FUZZ_DOCS[choose(sorted(_FUZZ_DOCS))])
    for _ in range(choose(range(1, 4))):
        path = choose(list(_paths(doc)))
        value = choose(_VALUES)
        if not path:
            doc = {} if value is _DROP else value
        elif value is _DROP:
            del _at(doc, path[:-1])[path[-1]]
        else:
            _at(doc, path[:-1])[path[-1]] = value
    repeats = {}
    for _ in range(choose(range(3))):
        nodes = [_at(doc, path) for path in _paths(doc)]
        objects = [node for node in nodes if isinstance(node, dict) and node]
        if not objects:
            break
        node = choose(objects)
        key = choose(list(node))
        value = choose(_VALUES)
        repeats.setdefault(id(node), []).append((key, node[key] if value is _DROP else value))
    return _render(doc, repeats)


_DOCUMENT_COMMANDS = (
    ("analyze", "FILE", "--format", "text"),
    ("analyze", "FILE", "--format", "json"),
    ("validate", "FILE"),
    ("optimize", "FILE", "--pass", "truncate"),
    ("optimize", "FILE", "--pass", "remove-stem-downsampling"),
    ("compare", "FILE", "zoo:vgg11"),
)


@st.composite
def _drawn_document(draw):
    return _mutated_document(lambda seq: draw(st.sampled_from(seq)))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_drawn_document())
def test_any_document_keeps_the_exit_code_contract(tmp_path, capsys, text):
    path = tmp_path / "mutated.json"
    path.write_text(text)
    for command in _DOCUMENT_COMMANDS:
        argv = [str(path) if a == "FILE" else a for a in command]
        code, _, err = run(capsys, *argv)
        assert code in {EXIT_OK, EXIT_INVALID, EXIT_NOOP, EXIT_USAGE, EXIT_FILE}, (argv, err)
        assert "Traceback" not in err
        assert code == EXIT_OK or err, argv


@pytest.mark.parametrize("seed", range(10))
def test_mutated_documents_keep_the_exit_code_contract_in_a_fresh_process(tmp_path, seed):
    path = tmp_path / "mutated.json"
    path.write_text(_mutated_document(random.Random(seed).choice))
    command = _DOCUMENT_COMMANDS[seed % len(_DOCUMENT_COMMANDS)]
    proc = run_fresh("-m", "rfscope", *[str(path) if a == "FILE" else a for a in command], cwd=tmp_path)
    assert proc.returncode in {EXIT_OK, EXIT_INVALID, EXIT_NOOP, EXIT_USAGE, EXIT_FILE}, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.returncode == EXIT_OK or proc.stderr


# Built-document fuzzing: documents built from scratch, reaching what the mutations of zoo
# documents above cannot. Any numeric field, the input's size and channels included, may hold
# an integer of up to 4,300 digits, the most `json` decodes. A body is long chains of strided
# convs and pools, and stacked stages of parallel convs with strides 1-8 merged by a Concat or
# an Add, at times with the stage's input as one more branch.
_LIMIT = 4300
_HUGE = st.tuples(st.integers(1, _LIMIT), st.integers(2, 10)).map(lambda t: t[1] * 10 ** (t[0] - 1) - 1)
# Each numeric field draws from its usual values or from _HUGE.
_KERNEL, _DILATION, _STRIDE, _WIDTH, _UNITS = (st.one_of(st.integers(1, n), _HUGE) for n in (3, 2, 8, 8, 10))
_CONV_PADDING = st.one_of(st.sampled_from(["same", "valid", 0, 1]), _HUGE)
_POOL_PADDING = st.one_of(st.integers(0, 1), _HUGE)
_SIZE = st.one_of(st.sampled_from([1, 2, 7, 32, 224]), _HUGE)
_STAGE_STRIDES = st.lists(st.integers(1, 8), min_size=2, max_size=8, unique=True)


@st.composite
def _built_document(draw):
    layers, edges = [{"id": "input", "kind": "input"}], []

    def add(layer, *preds):
        layers.append({"id": f"n{len(layers)}", **layer})
        edges.extend([p, layers[-1]["id"]] for p in preds)
        return layers[-1]["id"]

    def conv(prev, stride, filters):
        fields = {"kernel": draw(_KERNEL), "filters": filters, "stride": stride, "dilation": draw(_DILATION)}
        return add({"kind": "conv2d", "padding": draw(_CONV_PADDING), **fields}, prev)

    prev = "input"
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):  # a chain of strided convs and pools
            for _ in range(draw(st.integers(1, 40))):
                if draw(st.booleans()):
                    prev = conv(prev, draw(_STRIDE), draw(_WIDTH))
                else:
                    pool = {"mode": "max", "kernel": draw(_KERNEL), "stride": draw(_STRIDE), "padding": draw(_POOL_PADDING)}
                    prev = add({"kind": "pool", **pool}, prev)
        else:  # stacked stages of parallel convs
            for _ in range(draw(st.integers(1, 5))):
                filters = draw(_WIDTH)
                branches = [conv(prev, stride, filters) for stride in draw(_STAGE_STRIDES)]
                branches += [prev] if draw(st.booleans()) else []
                prev = add({"kind": draw(st.sampled_from(["concat", "add"]))}, *branches)
    if draw(st.booleans()):
        prev = add({"kind": "global_avg_pool"}, prev)
        prev = add({"kind": "dense", "units": draw(_UNITS)}, prev)
        add({"kind": "softmax"}, prev)
    spec = {field: draw(_SIZE) for field in ("height", "width", "channels")}
    return json.dumps({"name": "built", "input": spec, "layers": layers, "edges": edges})


def _concat_stages_text(stages):
    """`stages` stacked stages of eight parallel 3x3 convs with strides 1-8, each merged by a Concat,
    on a 1x1 input, where every stride gives the same 1x1 map."""
    layers, edges, prev = [("input", Input())], [], "input"
    for stage in range(1, stages + 1):
        convs = [f"s{stage}c{stride}" for stride in range(1, 9)]
        layers += [(nid, Conv2d(kernel=3, filters=4, stride=stride)) for stride, nid in enumerate(convs, 1)]
        layers.append((f"s{stage}cat", Concat()))
        edges += [(prev, nid) for nid in convs] + [(nid, f"s{stage}cat") for nid in convs]
        prev = f"s{stage}cat"
    return serialize(make_graph("concat-stages", InputSpec(1, 1, 3), layers, edges))


# The largest integer `json` decodes, and documents whose error messages once raised a
# ValueError converting a longer one: a conv's window, dilation * (kernel - 1) + 1, the channel
# count a Concat sums, which an Add compares, and the map size of a conv with that much padding.
_NINES = 10**_LIMIT - 1


def _padded_merge(merge):
    """A `merge` of a 1x1 conv with padding `_NINES` and one without, whose maps differ in size."""
    layers = [("input", Input()), ("a", Conv2d(1, 4, padding=_NINES)), ("b", Conv2d(1, 4, padding=0)), ("m", merge)]
    return serialize(make_graph("padded", InputSpec(8, 8, 3), layers, [("input", "a"), ("input", "b"), ("a", "m"), ("b", "m")]))


_LONG_WINDOW = serialize(
    make_graph(
        "window",
        InputSpec(8, 8, 3),
        [("input", Input()), ("c", Conv2d(_NINES, 4, dilation=_NINES, padding="valid"))],
        [("input", "c")],
    )
)
_LONG_CHANNELS = serialize(
    make_graph(
        "channels",
        InputSpec(8, 8, 3),
        [("input", Input()), ("a", Conv2d(1, _NINES)), ("b", Conv2d(1, _NINES)), ("cat", Concat()), ("d", Conv2d(1, 3)), ("add", Add())],
        [("input", "a"), ("input", "b"), ("a", "cat"), ("b", "cat"), ("input", "d"), ("cat", "add"), ("d", "add")],
    )
)


@pytest.mark.parametrize(
    "text, command, message",
    [
        (_LONG_WINDOW, "analyze", "rfscope: node 'c': window <28569-bit integer> exceeds padded input extent 8\n"),
        (
            _LONG_CHANNELS,
            "validate",
            "rfscope: invalid architecture document: graph validation failed: "
            "[merge_channels] add: element-wise add over unequal channel counts [3, <14286-bit integer>]\n",
        ),
        (
            _padded_merge(Add()),
            "analyze",
            "rfscope: node 'm': element-wise add over mismatched shapes "
            "(<14286-bit integer>, <14286-bit integer>, 4) vs (8, 8, 4)\n",
        ),
        (
            _padded_merge(Concat()),
            "analyze",
            "rfscope: node 'm': concat over mismatched spatial dims (<14286-bit integer>, <14286-bit integer>) vs (8, 8)\n",
        ),
    ],
    ids=["window", "channels", "add-shapes", "concat-dims"],
)
def test_an_integer_past_the_digit_limit_in_a_message_reads_as_its_bit_length(tmp_path, capsys, text, command, message):
    path = tmp_path / "long.json"
    path.write_text(text)
    assert run(capsys, command, str(path)) == (EXIT_INVALID, "", message)


# Decimal integer arguments from small to just past the 4,300-digit limit that `int` parses.
_NEAR_LIMIT = st.one_of(st.sampled_from(["1", "2", "32"]), st.integers(_LIMIT - 2, _LIMIT + 1).map(lambda d: "9" * d))
_BUILT_COMMANDS = (
    ("analyze", "FILE"),
    ("analyze", "FILE", "--format", "json"),
    ("analyze", "FILE", "--format", "csv"),
    ("validate", "FILE"),
    ("optimize", "FILE", "--pass", "truncate"),
    ("optimize", "FILE", "--pass", "remove-stem-downsampling"),
    ("compare", "FILE", "FILE"),
    ("compare", "FILE", "zoo:vgg11"),
)
_BUILT_FLAGS = st.lists(
    st.one_of(st.tuples(st.just("--input-size"), _NEAR_LIMIT, _NEAR_LIMIT), st.tuples(st.just("--classes"), _NEAR_LIMIT)),
    max_size=2,
)
_BUILT_ARGV = st.tuples(
    st.one_of(
        st.sampled_from(_BUILT_COMMANDS),
        _NEAR_LIMIT.map(lambda n: ("optimize", "FILE", "--pass", f"remove-stem-downsampling:{n}")),
    ),
    _BUILT_FLAGS,
).map(lambda t: (*t[0], *(token for flag in t[1] for token in flag)))


@settings(max_examples=60, deadline=2000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@seed(4300)
@example(text=_digits_text(4301), argv=("analyze", "FILE"))
@example(text=_concat_stages_text(5), argv=("analyze", "FILE"))
@example(text=_LONG_WINDOW, argv=("analyze", "FILE"))
@example(text=_LONG_CHANNELS, argv=("validate", "FILE"))
@given(text=_built_document(), argv=_BUILT_ARGV)
def test_any_built_document_keeps_the_exit_code_contract(tmp_path, capsys, text, argv):
    path = tmp_path / "built.json"
    path.write_text(text)
    argv = [str(path) if a == "FILE" else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert code in {EXIT_OK, EXIT_INVALID, EXIT_NOOP, EXIT_USAGE, EXIT_FILE}, (argv, err)
    assert "Traceback" not in err
    assert code == EXIT_OK or err, argv
