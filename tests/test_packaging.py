"""Tests of the package metadata in ``pyproject.toml``.

Every console script must resolve to a callable of :mod:`repro.cli`, and
the scripts the CLI module documents must be exactly the ones installed.
Only BELLA's SpGEMM stage needs scipy; the API and serving path import
with numpy alone.
"""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
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


def test_api_and_serving_path_do_not_import_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, repro.api, repro.service, repro.distrib; "
        "assert 'scipy' not in sys.modules, sorted("
        "m for m in sys.modules if m.startswith('scipy'))[:5]"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
