"""Shared test set-up."""

import pytest


@pytest.fixture(autouse=True)
def no_ambient_cache_dir(monkeypatch):
    """TPL_CACHE overrides every other cache setting, so a value in the
    caller's environment would redirect the tests that pass a cache
    directory by flag. Tests that need the variable set it themselves."""
    monkeypatch.delenv("TPL_CACHE", raising=False)
