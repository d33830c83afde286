"""Byte-stability of every recorded CLI command and rewritten document against
perfbench/digests.json.

The CLI goldens were recorded from the CLI's stdout, and the `serialize` goldens
from the documents of both rewrite passes; these tests only read them. An `EMIT`
argument stands for the path the command writes its document to.
"""
import hashlib
import json
from pathlib import Path

import pytest

from rfscope import InputSpec, build_named, remove_stem_downsampling, serialize, truncate_at_border
from rfscope.cli import main

DIGESTS = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "digests.json").read_text("utf-8"))
EMIT = "EMIT"
# The passes behind the `serialize` goldens, keyed `MODEL@SIZE/PASS`.
REWRITES = {
    "truncate": lambda graph: truncate_at_border(graph, 10),
    "remove-stem": lambda graph: remove_stem_downsampling(graph, 2),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", sorted(DIGESTS["cli"]))
def test_cli_output_matches_recorded_digest(command, tmp_path, capsys):
    expected_code, digest = DIGESTS["cli"][command]
    argv = command.split(" ")
    emit_path = tmp_path / "emitted.json"
    code = main([str(emit_path) if a == EMIT else a for a in argv])
    out = capsys.readouterr().out
    assert code == expected_code
    assert sha256(out.encode("utf-8")) == digest
    if EMIT in argv:
        model = argv[1][len("zoo:"):]
        assert sha256(emit_path.read_bytes()) == DIGESTS["serialize"][f"{model}@32/remove-stem"]


@pytest.mark.parametrize("key", sorted(DIGESTS["serialize"]))
def test_rewritten_document_matches_recorded_digest(key):
    subject, pass_name = key.split("/")
    model, size = subject.split("@")
    rewritten, _ = REWRITES[pass_name](build_named(model, input_spec=InputSpec(int(size), int(size), 3)))
    assert sha256(serialize(rewritten).encode("utf-8")) == DIGESTS["serialize"][key]
