"""Tests for kernel backend selection (env var, overrides, config)."""

import pytest

from repro.core.config import EngineConfig, use_engine
from repro.dc import engine as dc_engine
from repro.relational import kernels, statistics
from repro.relational.errors import KernelBackendError

requires_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="NumPy not installed"
)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)


class TestResolution:
    def test_auto_prefers_numpy_when_available(self):
        expected = "numpy" if kernels.numpy_available() else "python"
        EngineConfig().activate()
        assert kernels.active_backend_name() == expected
        assert kernels.get_backend().NAME == expected

    def test_available_backends_always_include_python(self):
        assert "python" in kernels.available_backends()

    def test_env_var_selects_python(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        EngineConfig.from_env().activate()
        assert kernels.active_backend_name() == "python"
        assert kernels.get_backend().NAME == "python"

    @requires_numpy
    def test_env_var_selects_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        EngineConfig.from_env().activate()
        assert kernels.get_backend().NAME == "numpy"

    def test_env_var_unknown_name_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fortran")
        with pytest.raises(ValueError, match=r"\(from \$REPRO_BACKEND\)"):
            EngineConfig.from_env()

    def test_env_var_numpy_without_numpy_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        monkeypatch.setattr(kernels, "_numpy_probe", False)
        with pytest.raises(KernelBackendError):
            EngineConfig.from_env().activate()

    def test_auto_falls_back_silently_without_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels, "_numpy_probe", False)
        EngineConfig().activate()
        assert kernels.active_backend_name() == "python"
        assert kernels.available_backends() == ("python",)


class TestOverrides:
    def test_use_engine_backend_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        if kernels.numpy_available():
            with use_engine(backend="numpy"):
                assert kernels.get_backend().NAME == "numpy"
        with use_engine(backend="python"):
            assert kernels.active_backend_name() == "python"

    def test_use_engine_auto_ignores_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        with use_engine(backend="auto"):
            expected = "numpy" if kernels.numpy_available() else "python"
            assert kernels.active_backend_name() == expected

    def test_use_engine_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="backend must be"):
            with use_engine(backend="gpu"):
                pass

    def test_use_engine_numpy_missing_raises_immediately(self, monkeypatch):
        monkeypatch.setattr(kernels, "_numpy_probe", False)
        before = kernels.get_backend()
        with pytest.raises(KernelBackendError):
            with use_engine(backend="numpy", dc_tile=7):
                pass
        assert kernels.get_backend() is before
        assert dc_engine._tile == EngineConfig().dc_tile  # nothing half-installed

    def test_use_engine_restores_previous(self):
        EngineConfig(backend="python").activate()
        with use_engine(backend="auto") as config:
            assert config.backend == "auto"
        assert kernels.get_backend().NAME == "python"

    def test_use_engine_restores_on_error(self):
        before = kernels.get_backend()
        with pytest.raises(RuntimeError):
            with use_engine(backend="python"):
                raise RuntimeError("boom")
        assert kernels.get_backend() is before


class TestEngineConfig:
    def test_default_is_auto(self):
        assert EngineConfig().backend == "auto"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(backend="gpu")

    def test_resolve_matches_availability(self):
        expected = "numpy" if kernels.numpy_available() else "python"
        assert EngineConfig().resolve() == expected
        assert EngineConfig(backend="python").resolve() == "python"

    def test_resolve_loads_nothing(self, monkeypatch):
        monkeypatch.setattr(kernels, "_numpy_probe", False)
        assert EngineConfig().resolve() == "python"
        assert EngineConfig(backend="numpy").resolve() == "numpy"

    def test_activate_installs_choice(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "auto")
        EngineConfig(backend="python").activate()
        assert kernels.get_backend().NAME == "python"

    def test_activate_numpy_missing_raises(self, monkeypatch):
        monkeypatch.setattr(kernels, "_numpy_probe", False)
        with pytest.raises(KernelBackendError):
            EngineConfig(backend="numpy").activate()

    def test_cache_bounds_validated(self):
        with pytest.raises(ValueError):
            EngineConfig(partition_cache_size=0)
        with pytest.raises(ValueError):
            EngineConfig(delta_track_limit=-1)
        assert EngineConfig(partition_cache_size=None).partition_cache_size is None

    def test_activate_installs_cache_bounds(self):
        with use_engine(backend="python", partition_cache_size=7, delta_track_limit=3):
            assert statistics._partition_cache_limit == 7
            assert statistics._tracker_limit == 3
        assert statistics._partition_cache_limit == 8192
