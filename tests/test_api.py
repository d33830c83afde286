"""The package's public surface: `rfscope.__all__` and the names it exposes stay in step."""
from types import ModuleType

import rfscope


def test_every_exported_name_resolves():
    missing = [name for name in rfscope.__all__ if not hasattr(rfscope, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(rfscope.__all__) == len(set(rfscope.__all__))


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(rfscope).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(rfscope.__all__) - {"__version__"} == public
