"""What a fresh interpreter loads: `import rfscope` and each command pull in only the modules they run."""
import json

import pytest

from dagtools import run_fresh
from rfscope import build_named, serialize

# Runs `body`, writes the names of the loaded modules to the file argv[1] and exits with
# `code`. It imports nothing itself, so every module it reports was loaded by `body`.
PROBE = """import sys
code = 0
{body}
with open(sys.argv[1], "w") as handle:
    handle.write("\\n".join(sorted(sys.modules)))
sys.exit(code)
"""
CLI = "from rfscope.cli import main\ncode = main(sys.argv[2:])"

CYCLIC_DOCUMENT = {
    "name": "cyclic",
    "input": {"height": 8, "width": 8, "channels": 3},
    "layers": [
        {"id": "input", "kind": "input"},
        {"id": "a", "kind": "activation", "name": "relu"},
        {"id": "b", "kind": "activation", "name": "relu"},
    ],
    "edges": [["input", "a"], ["a", "b"], ["b", "a"]],
}


def probe(tmp_path, body, *argv):
    """(exit code, stdout, stderr, modules loaded) of `body` run in a fresh interpreter."""
    out = tmp_path / "modules.txt"
    proc = run_fresh("-c", PROBE.format(body=body), str(out), *argv, cwd=tmp_path)
    return proc.returncode, proc.stdout, proc.stderr, set(out.read_text().split("\n"))


def rfscope_modules(modules):
    return {m for m in modules if m.startswith("rfscope.")}


# The records are plain slots classes, and a plain command line is read without argparse,
# so no command of the benchmark's mix pays for these standard modules at start-up.
ARGPARSE = {"argparse", "gettext"}
UNNEEDED = {"dataclasses", "inspect", *ARGPARSE}


@pytest.fixture(scope="module")
def bare(tmp_path_factory):
    """Modules a bare interpreter already holds here; they say nothing about rfscope."""
    return probe(tmp_path_factory.mktemp("bare"), "pass")[3]


@pytest.fixture
def doc(tmp_path):
    path = tmp_path / "resnet18.json"
    path.write_text(serialize(build_named("resnet18")))
    return str(path)


def test_import_rfscope_loads_no_submodule(tmp_path):
    assert rfscope_modules(probe(tmp_path, "import rfscope")[3]) == set()


def test_import_cli_loads_only_graph_ir(tmp_path, bare):
    loaded = probe(tmp_path, "import rfscope.cli")[3]
    assert rfscope_modules(loaded) == {"rfscope.graph_ir", "rfscope.cli"}
    assert UNNEEDED & loaded <= bare


ANALYSIS = {"rfscope.rf_analysis", "rfscope.shape_cost_model"}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["validate", "FILE"], {"rfscope.archjson"}),
        (["validate", "zoo:vgg11"], {"rfscope.zoo"}),
        (["analyze", "zoo:vgg11"], {"rfscope.zoo", *ANALYSIS}),
        (["analyze", "FILE"], {"rfscope.archjson", *ANALYSIS}),
        (["optimize", "zoo:vgg11", "--pass", "truncate"], {"rfscope.zoo", "rfscope.transforms", *ANALYSIS}),
        (
            ["optimize", "FILE", "--pass", "remove-stem-downsampling:2", "--emit", "out.json"],
            {"rfscope.archjson", "rfscope.transforms", *ANALYSIS},
        ),
        (["compare", "FILE", "zoo:resnet18"], {"rfscope.zoo", "rfscope.archjson", "rfscope.transforms", *ANALYSIS}),
        (["zoo", "emit", "vgg11"], {"rfscope.zoo", "rfscope.archjson"}),
        (["zoo", "list"], {"rfscope.zoo"}),
    ],
    ids=[
        "validate-file", "validate-zoo", "analyze-zoo", "analyze-file", "optimize-zoo", "optimize-file-emit", "compare",
        "zoo-emit", "zoo-list",
    ],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, bare, doc, argv, modules):
    code, _, err, loaded = probe(tmp_path, CLI, *[doc if a == "FILE" else a for a in argv])
    assert (code, err) == (0, "")
    assert rfscope_modules(loaded) == {"rfscope.graph_ir", "rfscope.cli", *modules}
    assert UNNEEDED & loaded <= bare


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_only_the_chosen_output_format_is_loaded(tmp_path, bare, fmt):
    code, _, _, loaded = probe(tmp_path, CLI, "analyze", "zoo:vgg11", "--format", fmt)
    assert code == 0
    assert UNNEEDED & loaded <= bare
    for module, wanted in (("csv", fmt == "csv"), ("json", fmt == "json")):
        if module not in bare:
            assert (module in loaded) == wanted


@pytest.mark.parametrize(
    "document, argv, stderr",
    [
        (
            "{",
            ["validate", "FILE"],
            "rfscope: invalid architecture document: $: JSON syntax error at line 1, column 2: "
            "Expecting property name enclosed in double quotes\n",
        ),
        (
            json.dumps(CYCLIC_DOCUMENT),
            ["validate", "FILE"],
            "rfscope: invalid architecture document: graph validation failed: "
            "[declaration_order] b->a: 'b' is not declared before 'a'\n",
        ),
        (
            None,
            ["optimize", "zoo:resnet18-nostem", "--pass", "remove-stem-downsampling:1"],
            "rfscope: neutralizing 's2b1_conv1' but not the parallel strided layer 's2b1_proj' would leave "
            "merge 's2b1_add' joining feature maps of different sizes; choose a count that covers both\n",
        ),
        (
            None,
            ["analyze", "zoo:vgg11", "--input-size", "1", "1"],
            "rfscope: node 'pool1': window 2 exceeds padded input extent 1\n",
        ),
    ],
    ids=["DocumentError", "GraphValidationError", "TransformError", "ShapeError"],
)
def test_errors_of_lazily_loaded_modules_exit_2_in_a_fresh_process(tmp_path, document, argv, stderr):
    path = tmp_path / "doc.json"
    if document is not None:
        path.write_text(document)
    code, out, err, _ = probe(tmp_path, CLI, *[str(path) if a == "FILE" else a for a in argv])
    assert (code, out, err) == (2, "", stderr)


ZOO_EMIT_HELP = """\
usage: rfscope zoo emit [-h] [--out FILE] [--input-size H W]
                        [--classes CLASSES]
                        name

positional arguments:
  name

options:
  -h, --help         show this help message and exit
  --out FILE         output path (stdout when omitted)
  --input-size H W   override input height and width
  --classes CLASSES  class count for zoo heads (default 10)
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["zoo", "emit", "--help"], (0, ZOO_EMIT_HELP, "")),
        (["--version"], (0, "rfscope 0.1.0\n", "")),
        (
            ["analyze", "zoo:vgg11", "--format", "x"],
            (64, "", "rfscope analyze: error: argument --format: invalid choice: 'x' (choose from 'text', 'json', 'csv')\n"),
        ),
        (["zoo", "emit", "vgg11", "--cl", "x"], (64, "", "rfscope zoo emit: error: argument --classes: invalid int value: 'x'\n")),
    ],
    ids=["help", "version", "invalid-choice", "abbreviation-invalid-int"],
)
def test_help_version_and_usage_errors_go_through_argparse(tmp_path, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal's width
    code, out, err, loaded = probe(tmp_path, CLI, *argv)
    assert (code, out, err) == expected
    assert ARGPARSE <= loaded
