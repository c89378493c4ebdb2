"""Closed-form special functions against mpmath and geometric oracles."""

import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import exp1

from anleak import special
from anleak import (
    EULER_GAMMA,
    digamma,
    expected_logdet_wishart,
    log_grassmann_volume,
    log_stiefel_volume,
)

mpmath.mp.dps = 40


@pytest.mark.parametrize(
    "x",
    [0.1, 0.5, 1.0, 1.5, 2.0, 7.0, 15.999, 16.0, 16.25, 123.456, 1e6 + 0.5, 1e8],
)
def test_digamma_matches_mpmath(x):
    assert digamma(x) == pytest.approx(float(mpmath.digamma(x)), abs=1e-12)


def test_digamma_at_one_is_minus_euler_gamma():
    assert digamma(1.0) == -EULER_GAMMA


@pytest.mark.parametrize("n", [2, 3, 10, 1000, 4096])
def test_digamma_exact_at_integers(n):
    harmonic = float(mpmath.harmonic(n - 1))
    assert digamma(float(n)) == pytest.approx(-EULER_GAMMA + harmonic, abs=5e-13)


def test_digamma_large_integer_uses_asymptotics():
    x = float(1 << 21)
    assert digamma(x) == pytest.approx(float(mpmath.digamma(x)), abs=1e-11)


@pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.inf, math.nan])
def test_digamma_rejects_nonpositive(x):
    with pytest.raises(ValueError):
        digamma(x)


@given(st.floats(min_value=1e-3, max_value=1e6))
def test_digamma_recurrence(x):
    assert digamma(x + 1.0) == pytest.approx(
        digamma(x) + 1.0 / x, rel=1e-10, abs=1e-10
    )


@pytest.mark.parametrize("t", [1, 2, 3, 5, 17])
def test_stiefel_single_vector_is_sphere_area(t):
    # One orthonormal vector in C^t lives on the real (2t-1)-sphere,
    # whose area is 2 pi^t / Gamma(t).
    expected = float(mpmath.log(2 * mpmath.pi**t / mpmath.gamma(t)))
    assert log_stiefel_volume(t, 1) == pytest.approx(expected, rel=1e-13, abs=1e-13)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=40))
def test_stiefel_peels_off_one_sphere(m, extra):
    # Fixing the frame's first vector sweeps a sphere and leaves a frame
    # of m-1 vectors in one dimension fewer.
    t = m + extra
    whole = log_stiefel_volume(t, m)
    peeled = log_stiefel_volume(t, 1) + log_stiefel_volume(t - 1, m - 1)
    assert whole == pytest.approx(peeled, rel=1e-12, abs=1e-9)


def test_stiefel_empty_frame():
    assert log_stiefel_volume(5, 0) == 0.0


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60))
def test_grassmann_complement_symmetry(m, extra):
    t = m + extra
    a = log_grassmann_volume(t, m)
    b = log_grassmann_volume(t, t - m)
    assert a == pytest.approx(b, abs=1e-8 * max(1.0, abs(a)))


def test_grassmann_full_subspace_is_a_point():
    assert log_grassmann_volume(7, 7) == 0.0


def test_volume_rejects_bad_arguments():
    with pytest.raises(ValueError):
        log_stiefel_volume(3, 4)
    with pytest.raises(ValueError):
        log_stiefel_volume(3.0, 1)
    with pytest.raises(ValueError):
        log_grassmann_volume(-1, 0)
    with pytest.raises(ValueError):
        log_grassmann_volume(4, True)


def test_wishart_logdet_small_case_closed_form():
    # 2x3 unit complex Gaussian block: psi(3) + psi(2) = 5/2 - 2 gamma.
    assert expected_logdet_wishart(2, 3) == pytest.approx(
        2.5 - 2 * EULER_GAMMA, abs=1e-14
    )
    assert expected_logdet_wishart(2, 3) == pytest.approx(
        1.3455686701969342, abs=1e-14
    )


@pytest.mark.parametrize(("m", "t"), [(1, 1), (1, 9), (4, 8), (16, 64)])
def test_wishart_logdet_matches_mpmath(m, t):
    expected = float(sum(mpmath.digamma(t - i + 1) for i in range(1, m + 1)))
    assert expected_logdet_wishart(m, t) == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_wishart_empty_matrix_is_zero():
    assert expected_logdet_wishart(0, 5) == 0.0


@pytest.mark.parametrize(("m", "t"), [(3, 2), (-1, 5), (2, -1)])
def test_wishart_rejects_bad_dims(m, t):
    with pytest.raises(ValueError):
        expected_logdet_wishart(m, t)


# The control-variate arguments a = N_E s2 of validate's ergodic-slope check
# (64 e-4 and 64 e-4.3), then the series' range down to tiny and up to 1.
E1_ARGS = [64e-4, 64 * 10**-4.3, 1e-12, 1e-6, 0.01, 0.1, 0.5, 0.999, 1.0]


@pytest.mark.parametrize("a", E1_ARGS)
def test_exp1_matches_scipy_and_mpmath(a):
    assert special._exp1(a) == pytest.approx(float(exp1(a)), rel=1e-14)
    assert special._exp1(a) == pytest.approx(float(mpmath.e1(a)), rel=1e-14)


@pytest.mark.parametrize("a", E1_ARGS)
def test_log1p_over_exp_mean_is_its_integral(a):
    # E ln(1 + a/X) for X ~ Exp(1), split where ln(1 + a/x) bends and at
    # the density's scale.
    integral = mpmath.quad(
        lambda x: mpmath.exp(-x) * mpmath.log1p(a / x), [0, a, 1, mpmath.inf]
    )
    assert special._log1p_over_exp_mean(a) == pytest.approx(float(integral), rel=1e-13)


@pytest.mark.parametrize("a", [0.0, -1e-3, 1.0 + 1e-9, math.inf, math.nan])
def test_exp1_series_rejects_arguments_out_of_its_range(a):
    for fn in (special._exp1, special._log1p_over_exp_mean):
        with pytest.raises(ValueError, match="E1 series"):
            fn(a)
