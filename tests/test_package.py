"""The public API list itself: sorted, unique and importable; one version."""

from pathlib import Path

import pytest

import rpd


def test_all_is_sorted_and_unique():
    assert rpd.__all__ == sorted(set(rpd.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in rpd.__all__ if not hasattr(rpd, name)]
    assert missing == []


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert rpd.__version__ == tomllib.load(fh)["project"]["version"]
