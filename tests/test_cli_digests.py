"""Byte-stability of every recorded CLI command against perfbench/digests.json.

The goldens were recorded from the CLI's stdout; this test only reads them.
An `EMIT` argument stands for the path the command writes its document to.
"""
import hashlib
import json
from pathlib import Path

import pytest

from rfscope.cli import main

DIGESTS = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "digests.json").read_text("utf-8"))
EMIT = "EMIT"


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
