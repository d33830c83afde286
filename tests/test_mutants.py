"""The mutants of `tests/mutants.py` still aim at code that exists: each old text occurs
exactly once in `src/`, in the mutant's file, and each listed test's file exists."""
import pytest

from mutants import MUTANTS, ROOT, SRC


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once_in_src(mutant):
    counts = {path: path.read_text("utf-8").count(mutant.old) for path in SRC.rglob("*.py")}
    assert {path: n for path, n in counts.items() if n} == {SRC / mutant.path: 1}
    assert mutant.new != mutant.old
    assert mutant.tests
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert (ROOT / path).is_file(), test
        assert f"def {name.split('::')[-1].split('[')[0]}(" in (ROOT / path).read_text("utf-8"), test
