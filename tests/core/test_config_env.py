"""Env-knob hardening (PR 8): a typo in ``REPRO_BACKEND`` /
``REPRO_DC_TILE`` must raise the *same* clear message as the
:class:`EngineConfig` constructor — plus the variable it came from —
both through :meth:`EngineConfig.from_env` and through each knob's lazy
resolution path.  The cache bounds, which have no environment variable,
are validated by the constructor the same way ``dc_tile`` is."""

from __future__ import annotations

import pytest

from repro.core.config import EngineConfig
from repro.dc import engine as dc_engine
from repro.relational import kernels
from repro.relational.errors import KernelBackendError


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for var in ("REPRO_BACKEND", "REPRO_DC_TILE"):
        monkeypatch.delenv(var, raising=False)
    yield


class TestFromEnvDefaults:
    def test_unset_variables_keep_defaults(self):
        config = EngineConfig.from_env()
        assert config == EngineConfig()

    def test_valid_values_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        monkeypatch.setenv("REPRO_DC_TILE", "512")
        config = EngineConfig.from_env()
        assert config.backend == "python"
        assert config.dc_tile == 512


class TestBackendKnob:
    CONSTRUCTOR_MESSAGE = "backend must be 'auto', 'python' or 'numpy', got"

    def test_constructor_message(self):
        with pytest.raises(ValueError, match=self.CONSTRUCTOR_MESSAGE):
            EngineConfig(backend="nmupy")

    def test_from_env_matches_constructor_message(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "nmupy")
        with pytest.raises(KernelBackendError) as excinfo:
            EngineConfig.from_env()
        assert self.CONSTRUCTOR_MESSAGE in str(excinfo.value)
        assert "'nmupy'" in str(excinfo.value)
        assert "$REPRO_BACKEND" in str(excinfo.value)

    def test_resolution_path_matches_too(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "nmupy")
        with pytest.raises(KernelBackendError) as excinfo:
            kernels.active_backend_name()
        assert self.CONSTRUCTOR_MESSAGE in str(excinfo.value)
        assert "$REPRO_BACKEND" in str(excinfo.value)


class TestDcTileKnob:
    CONSTRUCTOR_MESSAGE = "dc_tile must be a positive integer, got"

    def test_constructor_message(self):
        with pytest.raises(ValueError, match=self.CONSTRUCTOR_MESSAGE):
            EngineConfig(dc_tile=0)

    @pytest.mark.parametrize("bad", ["zero", "0", "-4", "4.5"])
    def test_from_env_matches_constructor_message(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_DC_TILE", bad)
        with pytest.raises(ValueError) as excinfo:
            EngineConfig.from_env()
        assert self.CONSTRUCTOR_MESSAGE in str(excinfo.value)
        assert repr(bad) in str(excinfo.value) or bad in str(excinfo.value)
        assert "$REPRO_DC_TILE" in str(excinfo.value)

    def test_resolution_path_matches_too(self, monkeypatch):
        monkeypatch.setenv("REPRO_DC_TILE", "zero")
        with pytest.raises(ValueError) as excinfo:
            dc_engine.effective_tile()
        assert self.CONSTRUCTOR_MESSAGE in str(excinfo.value)
        assert "$REPRO_DC_TILE" in str(excinfo.value)


class TestCacheBounds:
    @pytest.mark.parametrize("field", ["partition_cache_size", "delta_track_limit"])
    @pytest.mark.parametrize("bad", [True, False, 2.5, "8", 0, -3])
    def test_constructor_rejects_non_positive_int(self, field, bad):
        with pytest.raises(ValueError) as excinfo:
            EngineConfig(**{field: bad})
        message = str(excinfo.value)
        assert f"{field} must be a positive integer or None, got" in message
        assert repr(bad) in message

