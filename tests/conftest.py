"""Shared fixtures for the anleak test suite."""

import collections
import threading

import numpy as np
import pytest
from hypothesis import settings

from anleak import SvKind, montecarlo

settings.register_profile("anleak", deadline=None)
settings.load_profile("anleak")


@pytest.fixture
def rng():
    """Deterministic generator, fresh per test."""
    return np.random.default_rng(1234)


@pytest.fixture
def draw_counts(monkeypatch):
    """Count the seeded draws a test makes: `montecarlo._run_trials` calls.

    Keys name the stream tag: ``log_sv`` (any `SvKind`, through
    `expected_log_sv_sum`), ``ergodic`` (the leakage and its constant),
    ``universal``, ``split``, ``distributions`` and ``transmit_power``.
    """
    counts = collections.Counter()
    streams = {kind.value: "log_sv" for kind in SvKind}
    streams.update({
        montecarlo._TAG_ERGODIC: "ergodic",
        montecarlo._TAG_UNIVERSAL: "universal",
        montecarlo._TAG_SPLIT: "split",
        montecarlo._TAG_DISTRIBUTIONS: "distributions",
        montecarlo._TAG_TRANSMIT_POWER: "transmit_power",
    })
    run_trials = montecarlo._run_trials
    lock = threading.Lock()  # `validate` draws its streams on a thread pool

    def counted(tag, *args):
        with lock:
            counts[streams[tag]] += 1
        return run_trials(tag, *args)

    monkeypatch.setattr(montecarlo, "_run_trials", counted)
    return counts
