"""Fixtures shared by the test suites under ``tests`` and ``rpdbench``."""

import pytest


@pytest.fixture(autouse=True)
def private_cache(tmp_path, monkeypatch):
    """Each test starts with an empty parse cache of its own, never the user's;
    subprocesses inherit it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
