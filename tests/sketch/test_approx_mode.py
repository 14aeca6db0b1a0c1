"""The approx-mode knob: module global, env var, EngineConfig field."""

from __future__ import annotations

import pytest

from repro import sketch
from repro.core.config import EngineConfig, use_engine


class TestModuleSwitch:
    def test_default_is_exact(self):
        assert sketch._approx == "exact"

    def test_set_and_read(self):
        EngineConfig(approx="sketch").activate()
        assert sketch._approx == "sketch"

    def test_use_engine_approx_scopes_and_restores(self):
        with use_engine(approx="sketch"):
            assert sketch._approx == "sketch"
        assert sketch._approx == "exact"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="sketch"):
            with use_engine(approx="bogus"):
                pass
        assert sketch._approx == "exact"


class TestEngineConfigApprox:
    def test_default_and_explicit(self):
        assert EngineConfig().approx == "exact"
        assert EngineConfig(approx="sketch").approx == "sketch"

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError, match="approx"):
            EngineConfig(approx="guess")

    def test_from_env_reads_repro_approx(self, monkeypatch):
        monkeypatch.setenv("REPRO_APPROX", "sketch")
        assert EngineConfig.from_env().approx == "sketch"

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_APPROX", "fast")
        with pytest.raises(ValueError):
            EngineConfig.from_env()

    def test_activate_sets_module_mode(self):
        EngineConfig(approx="sketch").activate()
        assert sketch._approx == "sketch"
        EngineConfig(approx="exact").activate()
        assert sketch._approx == "exact"
