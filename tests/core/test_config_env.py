"""Env-knob hardening: a bad ``REPRO_*`` value must raise the *same*
message as the :class:`EngineConfig` constructor — plus the variable it
came from — and both paths must accept the same spellings.  The
variables are read once, when ``import repro`` activates
:meth:`EngineConfig.from_env`.  The cache bounds, which have no
environment variable, are validated by the constructor the same way
``dc_tile`` is."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.config import _KNOBS, EngineConfig

ENV_KNOBS = [knob for knob in _KNOBS if knob.env]

#: Spellings tried on every knob that has a variable: valid and invalid
#: for each, in the case and whitespace variants a unit file may carry.
SPELLINGS = [
    "auto",
    "python",
    "numpy",
    "NumPy",
    " python",
    "nmupy",
    "exact",
    "sketch",
    " Sketch ",
    "SKETCH",
    "512",
    " 64 ",
    "0",
    "-4",
    "4.5",
    "zero",
]


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for knob in ENV_KNOBS:
        monkeypatch.delenv(knob.env, raising=False)
    yield


def _python(variable: str, value: str, *args: str):
    """Run a fresh interpreter with ``variable=value`` in its environment."""
    env = dict(os.environ)
    env[variable] = value
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _import_repro(variable: str, value: str, code: str = ""):
    """Run ``import repro`` (then ``code``) in a fresh interpreter."""
    return _python(variable, value, "-c", f"import repro\n{code}")


def _spelled(field: str, text: str) -> object:
    """The constructor value a variable's text spells: an integer knob's
    text means the integer it parses to, any other text itself."""
    if isinstance(getattr(EngineConfig(), field), int):
        try:
            return int(text)
        except ValueError:
            pass
    return text


@pytest.mark.parametrize("text", SPELLINGS)
@pytest.mark.parametrize("knob", ENV_KNOBS, ids=lambda knob: knob.field)
def test_env_and_constructor_agree(monkeypatch, knob, text):
    monkeypatch.setenv(knob.env, text)
    try:
        expected = EngineConfig(**{knob.field: _spelled(knob.field, text)})
    except ValueError as error:
        with pytest.raises(ValueError) as excinfo:
            EngineConfig.from_env()
        assert type(excinfo.value) is type(error)
        assert str(excinfo.value) == f"{error} (from ${knob.env})"
    else:
        assert EngineConfig.from_env() == expected


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
        with pytest.raises(ValueError) as excinfo:
            EngineConfig.from_env()
        assert self.CONSTRUCTOR_MESSAGE in str(excinfo.value)
        assert "'nmupy'" in str(excinfo.value)
        assert "$REPRO_BACKEND" in str(excinfo.value)

    def test_resolution_path_matches_too(self):
        """``import repro`` is where the variable is read."""
        result = _import_repro("REPRO_BACKEND", "nmupy")
        assert result.returncode != 0
        assert (
            f"ValueError: {self.CONSTRUCTOR_MESSAGE} 'nmupy' (from $REPRO_BACKEND)"
            in result.stderr
        )
        code = "from repro.relational import kernels\nprint(kernels.get_backend().NAME)"
        result = _import_repro("REPRO_BACKEND", "python", code)
        assert result.stdout.strip() == "python", result.stderr


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

    def test_resolution_path_matches_too(self):
        """``import repro`` is where the variable is read."""
        result = _import_repro("REPRO_DC_TILE", "zero")
        assert result.returncode != 0
        assert (
            f"ValueError: {self.CONSTRUCTOR_MESSAGE} 'zero' (from $REPRO_DC_TILE)"
            in result.stderr
        )
        code = "from repro.dc import engine\nprint(engine._tile)"
        result = _import_repro("REPRO_DC_TILE", "512", code)
        assert result.stdout.strip() == "512", result.stderr


class TestCli:
    """The CLI imports ``repro`` first, so a bad variable fails that
    import: the interpreter prints the traceback and exits with 1 before
    ``repro.cli.main`` (and its ``error: ...`` handler) runs."""

    def test_bad_backend_name(self):
        result = _python("REPRO_BACKEND", "nmupy", "-m", "repro.cli", "--help")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1] == (
            f"ValueError: {TestBackendKnob.CONSTRUCTOR_MESSAGE} 'nmupy' "
            "(from $REPRO_BACKEND)"
        )

    def test_numpy_backend_without_numpy(self):
        code = "import sys\nsys.modules['numpy'] = None\nimport repro.cli"
        result = _python("REPRO_BACKEND", "numpy", "-c", code)
        assert result.returncode == 1
        assert result.stderr.splitlines()[-1].endswith(
            "KernelBackendError: kernel backend 'numpy' unavailable: NumPy is "
            "not installed; install the [fast] extra or select the python backend"
        )


class TestCacheBounds:
    @pytest.mark.parametrize("field", ["partition_cache_size", "delta_track_limit"])
    @pytest.mark.parametrize("bad", [True, False, 2.5, "8", 0, -3])
    def test_constructor_rejects_non_positive_int(self, field, bad):
        with pytest.raises(ValueError) as excinfo:
            EngineConfig(**{field: bad})
        message = str(excinfo.value)
        assert f"{field} must be a positive integer or None, got" in message
        assert repr(bad) in message
