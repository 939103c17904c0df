"""Property tests of the AlignConfig serialisation surface (repro.api).

Hypothesis generates randomized *valid* configs and checks the
``to_json``/``from_json``/``load`` round-trip is the identity, plus the
error-message contract of ``engine_from_config`` on unknown options.
Hypothesis tests deliberately use no function-scoped pytest fixtures
(``tempfile`` instead of ``tmp_path``) so every example runs under the
same conditions.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AlignConfig, ServiceConfig
from repro.core.scoring import ScoringScheme
from repro.engine import available_engines, engine_from_config, list_engines
from repro.errors import ConfigurationError

_ENGINES = list_engines()
#: Engines the build-the-config tests can construct with *arbitrary*
#: scoring: the available ones (optional deps present).
_BUILDABLE_ENGINES = available_engines()

scorings = st.builds(
    ScoringScheme,
    match=st.integers(min_value=1, max_value=10),
    mismatch=st.integers(min_value=-10, max_value=0),
    gap=st.integers(min_value=-10, max_value=-1),
)

service_configs = st.builds(
    ServiceConfig,
    max_batch_size=st.integers(min_value=1, max_value=512),
    max_wait_seconds=st.floats(
        min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
    ),
    cache_capacity=st.integers(min_value=0, max_value=1 << 16),
    queue_capacity=st.integers(min_value=1, max_value=1 << 16),
    submit_timeout=st.floats(
        min_value=0.001, max_value=60.0, allow_nan=False, allow_infinity=False
    ),
)

#: JSON-scalar engine options under keys that collide with nothing real.
engine_options = st.dictionaries(
    st.sampled_from(["opt_a", "opt_b", "opt_c"]),
    st.one_of(st.integers(-100, 100), st.booleans(), st.text(max_size=8)),
    max_size=2,
)

configs = st.builds(
    AlignConfig,
    engine=st.sampled_from(_ENGINES),
    scoring=scorings,
    xdrop=st.integers(min_value=0, max_value=5000),
    workers=st.integers(min_value=1, max_value=16),
    trace=st.booleans(),
    seed_policy=st.sampled_from(["start", "middle"]),
    bin_width=st.integers(min_value=1, max_value=5000),
    bandwidth=st.one_of(st.none(), st.integers(min_value=1, max_value=1000)),
    service=service_configs,
)


class TestConfigRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(config=configs)
    def test_json_round_trip_is_identity(self, config):
        assert AlignConfig.from_json(config.to_json()) == config

    @settings(max_examples=30, deadline=None)
    @given(config=configs)
    def test_dict_round_trip_is_identity(self, config):
        assert AlignConfig.from_dict(config.to_dict()) == config

    @settings(max_examples=15, deadline=None)
    @given(config=configs)
    def test_save_load_file_round_trip(self, config):
        handle, path = tempfile.mkstemp(suffix=".json")
        os.close(handle)
        try:
            config.save(path)
            assert AlignConfig.load(path) == config
        finally:
            os.unlink(path)

    @settings(max_examples=30, deadline=None)
    @given(config=configs, options=engine_options)
    def test_engine_options_survive_round_trip(self, config, options):
        config = config.replace(engine_options=options)
        restored = AlignConfig.from_json(config.to_json())
        assert restored.engine_options == options

    @settings(max_examples=30, deadline=None)
    @given(config=configs, engine=st.sampled_from(_BUILDABLE_ENGINES))
    def test_round_tripped_config_builds_same_engine_type(self, config, engine):
        # No engine_options here, so every engine factory accepts the
        # uniform fields; the restored config must build the same type.
        config = config.replace(engine=engine)
        rebuilt = AlignConfig.from_json(config.to_json())
        a = engine_from_config(config)
        b = engine_from_config(rebuilt)
        assert type(a) is type(b)
        assert a.xdrop == b.xdrop and a.scoring == b.scoring


class TestEngineFromConfigErrorMessages:
    @settings(max_examples=25, deadline=None)
    @given(
        engine=st.sampled_from(_BUILDABLE_ENGINES),
        option=st.text(
            alphabet=st.characters(whitelist_categories=("Ll",)),
            min_size=3,
            max_size=12,
        ),
    )
    def test_unknown_option_names_itself_and_accepted_params(self, engine, option):
        import inspect

        from repro.engine.base import _REGISTRY

        params = set(inspect.signature(_REGISTRY[engine].factory.__init__).parameters)
        if option in params or option in ("scoring", "xdrop", "workers", "trace"):
            return  # hypothesis found a real parameter name; not this test's target
        config = AlignConfig(engine=engine, engine_options={option: 1})
        with pytest.raises(ConfigurationError) as excinfo:
            engine_from_config(config)
        message = str(excinfo.value)
        assert option in message
        assert "accepted" in message or "shadow" in message

    def test_unknown_engine_names_alternatives(self):
        with pytest.raises(ConfigurationError, match="available"):
            AlignConfig(engine="warp-drive")

    def test_shadowing_option_is_rejected_by_name(self):
        config = AlignConfig(engine="batched", engine_options={"xdrop": 5})
        with pytest.raises(ConfigurationError, match="'xdrop'.*shadow"):
            engine_from_config(config)

    @pytest.mark.parametrize("engine", available_engines())
    def test_every_engine_reports_its_accepted_params(self, engine):
        config = AlignConfig(
            engine=engine, engine_options={"definitely_not_an_option": True}
        )
        with pytest.raises(ConfigurationError) as excinfo:
            engine_from_config(config)
        message = str(excinfo.value)
        assert "definitely_not_an_option" in message
        assert engine in message
        assert "accepted:" in message
