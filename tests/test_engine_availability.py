"""Engine availability gating: registry, errors, CLI, conformance defaults.

An engine whose optional dependency is missing stays *registered* (configs
naming it still validate, ``--list-engines`` still shows it) but is
*unavailable*: building it fails with a ConfigurationError that carries the
recorded reason, and every default engine sweep skips it. No bundled engine
has an optional dependency, so a test-registered dummy engine stands in.
"""

from __future__ import annotations

import pytest

from repro.api import AlignConfig
from repro.cli import main_align
from repro.engine import (
    available_engines,
    describe_engines,
    engine_from_config,
    get_engine,
    list_engines,
    register_engine,
    unregister_engine,
)
from repro.engine.engines import ReferenceEngine
from repro.errors import ConfigurationError
from repro.testing import ConformanceRunner

@pytest.fixture
def ghost_engine():
    """A registered-but-unavailable engine with a recorded reason."""
    register_engine(
        "ghost",
        ReferenceEngine,
        available=False,
        reason="the optional dependency ghostlib is not installed (pip install ghostlib)",
    )
    yield "ghost"
    unregister_engine("ghost")


class TestRegistrySurface:
    def test_unavailable_engine_stays_listed(self, ghost_engine):
        assert ghost_engine in list_engines()
        assert ghost_engine not in available_engines()

    def test_describe_engines_carries_reason(self, ghost_engine):
        rows = {row["name"]: row for row in describe_engines()}
        row = rows[ghost_engine]
        assert row["available"] is False
        assert "ghostlib" in row["reason"]
        # Available engines carry no reason.
        assert rows["reference"]["available"] is True
        assert rows["reference"]["reason"] is None

    def test_get_engine_raises_with_reason(self, ghost_engine):
        with pytest.raises(ConfigurationError) as excinfo:
            get_engine(ghost_engine)
        message = str(excinfo.value)
        assert "registered but unavailable" in message
        assert "pip install ghostlib" in message

    def test_config_naming_unavailable_engine_validates_but_fails_to_build(
        self, ghost_engine
    ):
        # Validation (construction, round-trip) must succeed: the name is
        # registered. Only building the engine surfaces the missing dep.
        config = AlignConfig(engine=ghost_engine)
        assert AlignConfig.from_json(config.to_json()) == config
        with pytest.raises(ConfigurationError) as excinfo:
            engine_from_config(config)
        message = str(excinfo.value)
        assert message.startswith("engine: ")
        assert "registered but unavailable" in message
        assert "ghostlib" in message

    def test_reregistration_still_rejected(self, ghost_engine):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_engine(ghost_engine, ReferenceEngine)


class TestCliSurface:
    def test_list_engines_marks_unavailable(self, ghost_engine, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main_align(["--list-engines"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        ghost_line = next(line for line in out.splitlines() if "ghost" in line)
        assert "[unavailable:" in ghost_line
        assert "ghostlib" in ghost_line


class TestConformanceDefaults:
    def test_default_sweep_skips_unavailable(self, ghost_engine):
        runner = ConformanceRunner(AlignConfig(xdrop=15), include_service=False)
        assert ghost_engine not in runner.engine_names

    def test_explicit_unavailable_engine_rejected_with_reason(self, ghost_engine):
        with pytest.raises(ConfigurationError) as excinfo:
            ConformanceRunner(AlignConfig(xdrop=15), engines=["reference", ghost_engine])
        message = str(excinfo.value)
        assert "registered but unavailable" in message
        assert "ghostlib" in message
