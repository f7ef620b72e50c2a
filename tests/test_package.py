"""The package root's export list."""

from __future__ import annotations

import types

import gantrysched


def test_all_lists_exactly_the_public_names():
    """An export dropped from ``__all__`` or from the imports alone fails here."""
    public = {
        name
        for name, value in vars(gantrysched).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(gantrysched.__all__) == sorted(public)
