"""Fail-fast validation of the ``REPRO_*`` environment variables.

Each variable gets the same three checks: an invalid value raises
:class:`~repro.envvars.EnvVarError` whose one-line message names the
variable, a valid value resolves, and unset/blank falls back to the
default.  The point is the *where*: the variables are read only by
:meth:`~repro.mc.parallel.EngineConfig.resolve`, so the error fires at
the resolution entry point (``Session``, CLI startup, daemon boot),
not as a deep traceback at first use inside a worker.
"""

from __future__ import annotations

import pytest

from repro.envvars import EnvVarError, env_choice, env_int
from repro.mc.parallel import ENV_JOBS, EngineConfig
from repro.mc.portfolio import ENV_EXECUTOR, resolve_executor
from repro.ta.bounds import ENV_ABSTRACTION, EXTRA_M
from repro.zones.backend import ENV_VAR as ENV_ZONE_BACKEND


class TestHelpers:
    def test_env_choice_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_CHOICE", raising=False)
        assert env_choice("REPRO_TEST_CHOICE", ("a", "b"),
                          default="a") == "a"

    def test_env_choice_blank_returns_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CHOICE", "   ")
        assert env_choice("REPRO_TEST_CHOICE", ("a", "b"),
                          default="b") == "b"

    def test_env_choice_valid_passes_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CHOICE", "b")
        assert env_choice("REPRO_TEST_CHOICE", ("a", "b")) == "b"

    def test_env_choice_invalid_is_one_line_and_named(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CHOICE", "zzz")
        with pytest.raises(EnvVarError) as err:
            env_choice("REPRO_TEST_CHOICE", ("a", "b"))
        message = str(err.value)
        assert "\n" not in message
        assert "REPRO_TEST_CHOICE" in message
        assert "'zzz'" in message
        assert "a" in message and "b" in message

    def test_env_int_valid(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", " 7 ")
        assert env_int("REPRO_TEST_INT", minimum=1) == 7

    def test_env_int_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_INT", raising=False)
        assert env_int("REPRO_TEST_INT", default=3) == 3

    @pytest.mark.parametrize("raw", ["two", "1.5", "", " "])
    def test_env_int_non_integer(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_INT", raw)
        if not raw.strip():
            assert env_int("REPRO_TEST_INT", default=None) is None
            return
        with pytest.raises(EnvVarError) as err:
            env_int("REPRO_TEST_INT", minimum=1)
        assert "REPRO_TEST_INT" in str(err.value)

    def test_env_int_below_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "0")
        with pytest.raises(EnvVarError) as err:
            env_int("REPRO_TEST_INT", minimum=1)
        assert ">= 1" in str(err.value)


class TestReproJobs:
    def test_valid(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "3")
        assert EngineConfig.resolve().jobs == 3

    def test_invalid_names_variable(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "two")
        with pytest.raises(EnvVarError) as err:
            EngineConfig.resolve()
        assert ENV_JOBS in str(err.value)
        assert "\n" not in str(err.value)

    def test_zero_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "0")
        with pytest.raises(EnvVarError):
            EngineConfig.resolve()

    def test_unset_falls_back(self, monkeypatch):
        monkeypatch.delenv(ENV_JOBS, raising=False)
        assert EngineConfig.resolve().jobs is None  # sequential engine


class TestReproExecutor:
    def test_valid(self, monkeypatch):
        monkeypatch.setenv(ENV_EXECUTOR, "process")
        assert EngineConfig.resolve().executor == "process"

    def test_invalid_names_variable(self, monkeypatch):
        monkeypatch.setenv(ENV_EXECUTOR, "fork-bomb")
        with pytest.raises(EnvVarError) as err:
            EngineConfig.resolve()
        message = str(err.value)
        assert ENV_EXECUTOR in message
        assert "thread" in message and "process" in message
        assert "\n" not in message

    def test_unset_defaults_to_thread(self, monkeypatch):
        monkeypatch.delenv(ENV_EXECUTOR, raising=False)
        assert EngineConfig.resolve().executor == "thread"

    def test_explicit_argument_still_validated(self):
        with pytest.raises(ValueError):
            resolve_executor("bogus")
        with pytest.raises(ValueError):
            EngineConfig.resolve(executor="bogus")


class TestReproZoneBackend:
    def test_valid_alias(self, monkeypatch):
        monkeypatch.setenv(ENV_ZONE_BACKEND, "python")
        assert EngineConfig.resolve().backend == "reference"

    def test_invalid_names_variable(self, monkeypatch):
        monkeypatch.setenv(ENV_ZONE_BACKEND, "cuda")
        with pytest.raises(EnvVarError) as err:
            EngineConfig.resolve()
        message = str(err.value)
        assert ENV_ZONE_BACKEND in message
        assert "reference" in message
        assert "\n" not in message

    def test_unset_is_auto(self, monkeypatch):
        monkeypatch.delenv(ENV_ZONE_BACKEND, raising=False)
        assert EngineConfig.resolve().backend == "auto"


class TestReproAbstraction:
    def test_valid(self, monkeypatch):
        monkeypatch.setenv(ENV_ABSTRACTION, "lu")
        assert EngineConfig.resolve().abstraction == "extra_lu"

    def test_invalid_names_variable(self, monkeypatch):
        monkeypatch.setenv(ENV_ABSTRACTION, "none")
        with pytest.raises(EnvVarError) as err:
            EngineConfig.resolve()
        message = str(err.value)
        assert ENV_ABSTRACTION in message
        assert "extra_m" in message
        assert "\n" not in message

    def test_unset_defaults_to_extra_m(self, monkeypatch):
        monkeypatch.delenv(ENV_ABSTRACTION, raising=False)
        assert EngineConfig.resolve().abstraction == EXTRA_M
