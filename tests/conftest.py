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
    """Count `MonteCarlo` cache misses, the draws a shared instance makes.

    Keys name the stream: ``log_sv`` (an `SvKind` tag, through
    `expected_log_sv_sum`), ``ergodic`` and ``universal`` (the per-batch
    spectra behind `ergodic_leakage` and `universal_constant`).
    """
    counts = collections.Counter()
    streams = {kind.value: "log_sv" for kind in montecarlo.SvKind}
    streams[montecarlo._TAG_ERGODIC] = "ergodic"
    streams[montecarlo._TAG_UNIVERSAL] = "universal"
    memo = montecarlo.MonteCarlo._memo

    def counted(self, tag, args, compute):
        if (tag, args) not in self._cache:
            counts[streams[tag]] += 1
        return memo(self, tag, args, compute)

    monkeypatch.setattr(montecarlo.MonteCarlo, "_memo", counted)
    return counts
