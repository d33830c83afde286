"""Line coverage of `src/rfscope` under the tier-1 suite: the function-body lines no test runs.

The runner starts pytest in this process over the whole suite with a trace
function installed by `sys.settrace` and `threading.settrace`. It records each
line of `src/rfscope` that runs, then prints, per module, the lines of function
bodies (lambdas and comprehensions included) that never ran, as ranges of
consecutive line numbers. Module and class bodies run at import and are not
listed, nor is a function's `def` (or first decorator) line.

Run it from the repository root:

    PYTHONPATH=src python tests/linecov.py

It takes about as long as the suite under a trace function, a minute or two.
It exits with pytest's exit code. It needs only the standard library and
pytest. pytest does not collect this file.

Tests that start a fresh interpreter, through `dagtools.run_fresh` or
`subprocess`, run their `rfscope` code outside this process, so the lines only
they reach are listed as never run.
"""
from __future__ import annotations

import inspect
import os
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rfscope"


def _body_lines(code: CodeType) -> set[int]:
    """The lines that hold instructions of the function bodies in `code` and the code nested in it."""
    lines: set[int] = set()
    if code.co_flags & inspect.CO_OPTIMIZED:  # a function, lambda or comprehension; not a module or class body
        lines = {line for _, _, line in code.co_lines() if line is not None} - {code.co_firstlineno}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _body_lines(const)
    return lines


def _ranges(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated ranges, such as `3-5, 9`."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main() -> int:
    paths = sorted(PACKAGE.glob("*.py"))
    ran: dict[str, set[int]] = {str(path): set() for path in paths}
    by_filename: dict[str, set[int] | None] = {}  # a code object's filename -> its module's lines, or None

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in by_filename:
            by_filename[filename] = ran.get(os.path.realpath(filename))
        lines = by_filename[filename]
        if lines is None:
            return None  # no line events for code outside the package

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print(f"\nfunction-body lines of src/rfscope that no in-process test ran (pytest exit {int(code)}):")
    for path in paths:
        missed = sorted(_body_lines(compile(path.read_text("utf-8"), str(path), "exec")) - ran[str(path)])
        print(f"  {path.relative_to(PACKAGE.parent)}: {_ranges(missed) if missed else 'none'}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
