import copy
import csv
import io
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dagtools import count_validations, mutated_graph, run_fresh
from rfscope import (
    Activation,
    Add,
    Attention,
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
    serialize_document,
    validate,
)
from rfscope.cli import EXIT_FILE, EXIT_INVALID, EXIT_NOOP, EXIT_OK, EXIT_USAGE, main
from rfscope.graph_ir import _KIND_FIELDS


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
        (["optimize", "zoo:vgg16", "--pass", "truncate", "--emit", "NUL_PATH"], EXIT_FILE),
        (["zoo", "emit", "vgg11", "--out", "NUL_PATH"], EXIT_FILE),
        (["analyze", "zoo:vgg11", "--classes", str(10**400)], EXIT_INVALID),
        (["compare", "FILE", "zoo:vgg11", "--input-size", str(10**200), str(10**200)], EXIT_INVALID),
    ],
    ids=[
        "input-size-zoo", "input-size-file", "zoo-emit-input-size", "classes-file", "emit-missing-dir",
        "emit-nul-path", "zoo-emit-nul-path", "classes-overflow", "input-size-overflow",
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


@pytest.mark.parametrize("cls,field", [(cls, field) for cls, fields in _KIND_FIELDS.items() for field in fields])
def test_wrongly_typed_field_is_a_layer_fields_violation(tmp_path, capsys, cls, field):
    graph = make_graph("x", InputSpec(8, 8, 3), [("input", Input()), ("x", FIELDED_KINDS[cls])], [("input", "x")])
    doc = serialize_document(graph)
    path = tmp_path / "bad.json"
    _, message = _KIND_FIELDS[cls][field]
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


# Document fuzzing: zoo documents with values retyped, keys and elements
# dropped, or keys repeated, at random paths, run through every command that
# reads a file.
_FUZZ_DOCS = {name: serialize_document(build_named(name)) for name in ("vgg11", "resnet18-nostem", "mpnet18")}
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
