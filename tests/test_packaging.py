"""Tests of the package metadata in ``pyproject.toml``.

Every console script must resolve to a callable of :mod:`repro.cli`, and
the scripts the CLI module documents must be exactly the ones installed.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

import repro
from repro import cli

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture(scope="module")
def project():
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["project"]


SCRIPTS = (
    "repro-align",
    "repro-bella",
    "repro-bench",
    "repro-service",
    "repro-fuzz",
    "repro-obs",
)


@pytest.mark.parametrize("script", SCRIPTS)
def test_console_script_resolves_to_a_callable(project, script):
    module_name, _, attr = project["scripts"][script].partition(":")
    target = getattr(importlib.import_module(module_name), attr)
    assert callable(target)


def test_installed_scripts_are_the_documented_ones(project):
    documented = set(re.findall(r"``(repro-[a-z]+)``", cli.__doc__))
    assert documented == set(project["scripts"]) == set(SCRIPTS)


def test_dependencies_and_extras(project):
    assert project["dependencies"] == ["numpy", "scipy"]
    assert set(project["optional-dependencies"]) == {"test", "lint"}
    assert {"pytest", "hypothesis"} <= set(project["optional-dependencies"]["test"])
    assert "ruff" in project["optional-dependencies"]["lint"]


def test_version_is_read_from_the_package(project):
    assert "version" in project["dynamic"]
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
