"""Tests for the executor's default worker count."""

import os

import pytest

from repro.exec.executor import default_workers


def test_default_workers_bounds():
    w = default_workers()
    assert 1 <= w <= 8
    assert w <= (os.cpu_count() or 1)


class TestWorkerOverride:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_env_override_floors_at_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert default_workers() == 1

    def test_env_override_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError):
            default_workers()

    def test_garbage_message_names_variable_and_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(
            ValueError, match=r"REPRO_WORKERS must be an integer, got 'many'"
        ) as excinfo:
            default_workers()
        # The int() parse failure is implementation detail, not context:
        # the re-raise uses `from None` so the traceback shows exactly
        # one error, not "During handling ... another exception".
        assert excinfo.value.__cause__ is None
        assert excinfo.value.__suppress_context__
