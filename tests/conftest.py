"""Shared fixtures for the anleak test suite."""

import collections

import numpy as np
import pytest
from hypothesis import settings

from anleak import montecarlo

settings.register_profile("anleak", deadline=None)
settings.load_profile("anleak")


@pytest.fixture
def rng():
    """Deterministic generator, fresh per test."""
    return np.random.default_rng(1234)


@pytest.fixture
def draw_counts(monkeypatch):
    """Count the spectrum draws made through `anleak.montecarlo`.

    Keys: ``log_sv`` (`expected_log_sv_sum` calls), ``ergodic`` and
    ``universal`` (the per-batch spectra behind `ergodic_leakage` and
    `universal_constant`).
    """
    counts = collections.Counter()

    def counted(key, name):
        original = getattr(montecarlo, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(montecarlo, name, wrapper)

    counted("log_sv", "expected_log_sv_sum")
    counted("ergodic", "_ergodic_spectra")
    counted("universal", "_universal_spectra")
    return counts
