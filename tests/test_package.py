"""The public API list itself: sorted, unique and importable, each name listed by the module
that defines it; one version; one module table; README options that the CLI has."""

import importlib
import re
from pathlib import Path

import pytest

import rpd

ROOT = Path(__file__).resolve().parents[1]


def test_all_is_sorted_and_unique():
    assert rpd.__all__ == sorted(set(rpd.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in rpd.__all__ if not hasattr(rpd, name)]
    assert missing == []


def test_each_module_lists_its_own_names():
    # Every module but the CLI is re-exported: each name once, by the module that defines it.
    stems = sorted(p.stem for p in (ROOT / "src" / "rpd").glob("*.py")
                   if p.stem not in ("__init__", "cli"))
    modules = [importlib.import_module(f"rpd.{stem}") for stem in stems]
    foreign = [(module.__name__, name) for module in modules for name in module.__all__
               if getattr(module, name).__module__ != module.__name__]
    assert foreign == []
    assert rpd.__all__ == sorted(name for module in modules for name in module.__all__)


def test_star_import_binds_all():
    namespace = {}
    exec("from rpd import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == rpd.__all__
    assert all(namespace[name] is getattr(rpd, name) for name in rpd.__all__)


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = ROOT / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert rpd.__version__ == tomllib.load(fh)["project"]["version"]


def test_readme_module_table_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"^\| `rpd\.(\w+)` \|", readme, flags=re.MULTILINE)
    modules = [p.stem for p in (ROOT / "src" / "rpd").glob("*.py") if p.stem != "__init__"]
    assert sorted(listed) == sorted(modules)


def test_readme_options_are_cli_options():
    from rpd.cli import main

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = {option for line in readme.splitlines() if not line.startswith("pip install")
             for option in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line)}
    options = {option for command in main.commands.values() for param in command.params
               for option in (*param.opts, *param.secondary_opts)}
    assert named and sorted(named - options) == []
