"""Matrix helpers against scipy and identity oracles."""

import math

import numpy as np
import pytest
import scipy.linalg

from anleak.errors import DegenerateChannelError
from anleak.linalg import sample_gaussian, scaled_pseudo_inverse, squared_singular_values


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
        scaled_pseudo_inverse(np.array([[1.0, math.inf, 0.0]]))


# ---------------------------------------------------------------------------
# Pseudo-inverse
# ---------------------------------------------------------------------------


def test_scaled_pseudo_inverse_contract(rng):
    h = _complex(rng, 3, 8)
    p = scaled_pseudo_inverse(h)
    assert p.shape == (8, 3)
    assert h @ p == pytest.approx(math.sqrt(8) * np.eye(3), abs=1e-9)
    square = _complex(rng, 3, 3)
    assert square @ scaled_pseudo_inverse(square) == pytest.approx(
        math.sqrt(3) * np.eye(3), abs=1e-9
    )


def test_scaled_pseudo_inverse_rejects(rng):
    with pytest.raises(ValueError):
        scaled_pseudo_inverse(_complex(rng, 4, 3))
    h = _complex(rng, 2, 6)
    with pytest.raises(DegenerateChannelError):
        scaled_pseudo_inverse(np.vstack([h, h[0] + h[1]]))
