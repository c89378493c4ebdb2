"""Matrix helpers against scipy and identity oracles."""

import math

import numpy as np
import pytest
import scipy.linalg

from anleak.errors import DegenerateChannelError
from anleak.linalg import sample_gaussian, squared_singular_values, zero_forcing


def _complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


# ---------------------------------------------------------------------------
# Gaussian sampling
# ---------------------------------------------------------------------------


def test_sample_gaussian_moments(rng):
    z = sample_gaussian(200, 300, 2.5, rng)
    assert z.shape == (200, 300)
    assert z.dtype == np.complex128
    n = z.size
    assert abs(z.mean()) <= 5.0 * math.sqrt(2.5 / n)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(2.5, rel=0.02)
    # Circular symmetry: the plain (not conjugated) second moment vanishes.
    assert abs(np.mean(z**2)) <= 5.0 * math.sqrt(2.5 / n)


def test_sample_gaussian_edge_shapes(rng):
    assert sample_gaussian(0, 5, 1.0, rng).shape == (0, 5)
    z = sample_gaussian(3, 4, 0.0, rng)
    assert np.all(z == 0.0)


def test_sample_gaussian_rejects(rng):
    with pytest.raises(ValueError):
        sample_gaussian(-1, 2, 1.0, rng)
    with pytest.raises(ValueError):
        sample_gaussian(2, 2, -0.5, rng)
    with pytest.raises(ValueError):
        sample_gaussian(2, 2, math.nan, rng)


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(("rows", "cols"), [(1, 1), (3, 3), (2, 5), (7, 4), (6, 50)])
def test_singular_values_match_scipy(rng, rows, cols):
    a = _complex(rng, rows, cols)
    expected = scipy.linalg.svdvals(a) ** 2
    assert squared_singular_values(a) == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_squared_singular_values_stacked(rng):
    stack = np.stack([_complex(rng, 3, 5) for _ in range(4)])
    sq = squared_singular_values(stack)
    assert sq.shape == (4, 3)
    for i in range(4):
        assert sq[i] == pytest.approx(
            scipy.linalg.svdvals(stack[i]) ** 2, rel=1e-10, abs=1e-10
        )


def test_spectra_of_empty_matrices():
    assert squared_singular_values(np.zeros((0, 4))).shape == (0,)
    assert squared_singular_values(np.zeros((4, 0))).shape == (0,)


def test_nan_inputs_are_rejected(rng):
    with pytest.raises(ValueError):
        zero_forcing(np.array([[1.0, math.inf, 0.0]]), 0)


# ---------------------------------------------------------------------------
# Zero-forcing precoder and null basis
# ---------------------------------------------------------------------------


def test_zero_forcing_contract(rng):
    # The flagship's user channel, and small blocks down to a square one.
    for k, m, n in [(16, 64, 48), (3, 8, 5), (3, 8, 2), (3, 3, 0)]:
        h = _complex(rng, k, m)
        precoder, basis = zero_forcing(h, n)
        assert precoder.shape == (m, k) and basis.shape == (m, n)
        assert np.abs(h @ precoder - math.sqrt(m) * np.eye(k)).max() <= 1e-12
        assert np.abs(basis.conj().T @ basis - np.eye(n)).max(initial=0.0) <= 1e-12
        assert np.abs(h @ basis).max(initial=0.0) <= 1e-12
        # The Gram route, sqrt(m) h^H (h h^H)^-1, agrees with the QR route.
        gram = math.sqrt(m) * h.conj().T @ np.linalg.inv(h @ h.conj().T)
        assert np.abs(precoder - gram).max() <= 1e-12 * np.abs(gram).max()


def test_zero_forcing_rejects(rng):
    with pytest.raises(ValueError):
        zero_forcing(_complex(rng, 4, 3), 0)
    with pytest.raises(ValueError):
        zero_forcing(_complex(rng, 2, 6), 5)
    h = _complex(rng, 2, 6)
    with pytest.raises(DegenerateChannelError):
        zero_forcing(np.vstack([h, h[0] + h[1]]), 3)
    # A singular value ratio of 1e-11, below the 1e-10 tolerance, that the
    # Gram route could not resolve.
    u, _, vh = np.linalg.svd(_complex(rng, 3, 8), full_matrices=False)
    with pytest.raises(DegenerateChannelError):
        zero_forcing(u @ np.diag([1.0, 0.5, 1e-11]) @ vh, 5)
    zero_forcing(u @ np.diag([1.0, 0.5, 1e-9]) @ vh, 5)
