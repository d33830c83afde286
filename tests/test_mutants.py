"""The mutants of `tests/mutants.py` still aim at code that exists: each old text occurs
exactly once in `src/`, in the mutant's file, and each listed test's file exists. The
runner reads pytest's summary as it is printed."""
import pytest

from mutants import MUTANTS, ROOT, SRC, _failed

# The `-rfE` summary of a run whose listed test file fails at import: pytest names the file, not its tests.
COLLECTION_ERROR = """\
=========================== short test summary info ============================
ERROR tests/test_records.py - TypeError: Conv2d.__init__() missing 3 required...
1 error in 0.95s
"""
FAILED_TEST = """\
=========================== short test summary info ============================
FAILED tests/test_archjson.py::test_defaults_fill_optional_conv_fields - TypeError: Conv2d.__init__() missing 3 required...
1 failed, 1 passed in 0.62s
"""


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


def test_a_collection_error_fails_every_listed_test_of_its_file():
    records = ["tests/test_records.py::test_constructor_signature_is_pinned[Conv2d]", "tests/test_records.py::test_reports_are_plain_tuples"]
    archjson = ["tests/test_archjson.py::test_defaults_fill_optional_conv_fields", "tests/test_archjson.py::test_round_trip_zoo[resnet18]"]
    assert _failed(COLLECTION_ERROR, records + archjson) == set(records)
    assert _failed(FAILED_TEST, records + archjson) == {archjson[0]}
    assert _failed(COLLECTION_ERROR + FAILED_TEST, archjson[1:]) == set()
