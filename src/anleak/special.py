"""Special functions for closed-form random-matrix constants.

Everything here is exact scalar math (no sampling): the digamma function,
log-volumes of complex Stiefel and Grassmann manifolds, and the expected
log-determinant of a complex Wishart matrix.  These are the building blocks
of the closed-form constant terms in the leakage bounds, so they are kept
dependency-light (stdlib ``math`` only) and accurate to ~1e-12 or better.
The exponential integral ``E1`` and the mean of ``ln(1 + a/X)`` over an
``Exp(1)`` variable ``X`` are the means of ``validate``'s ergodic-slope
control variates.

Conventions
-----------
* All logarithms here are natural logs; callers convert to bits at the
  reporting boundary.
* ``LogVolume`` values are natural-log volumes (the raw volumes overflow
  float range already for moderate dimensions).
* The complex Stiefel manifold of ``m`` orthonormal vectors in C^t has
  volume ``prod_{i=t-m+1}^{t} 2 pi^i / (i-1)!``; the Grassmann volume is
  the Stiefel volume divided by the volume of the unitary group U(m),
  i.e. ``|S(t, m)| / |S(m, m)|``.
"""

from __future__ import annotations

import functools
import math

__all__ = [
    "EULER_GAMMA",
    "LogVolume",
    "digamma",
    "log_stiefel_volume",
    "log_grassmann_volume",
    "expected_logdet_wishart",
]

#: Euler-Mascheroni constant, correctly rounded double.
EULER_GAMMA = 0.5772156649015329

#: Natural-log volume (plain float; alias used in signatures for clarity).
LogVolume = float

_LN_2 = math.log(2.0)
_LN_PI = math.log(math.pi)

# psi(x) ~ ln x - 1/(2x) - sum_k B_{2k} / (2k x^{2k});  coefficients
# B_2/2 = 1/12, B_4/4 = -1/120, B_6/6 = 1/252, B_8/8 = -1/240, B_10/10 = 5/660.
_PSI_SERIES = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
)

# Upward recurrence until the asymptotic series is this accurate (~6e-15).
_PSI_CUTOFF = 16.0

# Integer arguments up to this bound use the exact harmonic-sum form.
_HARMONIC_LIMIT = 1 << 20

# Largest argument of `_exp1`'s power series: up to it no term exceeds 1 in
# size, so the alternating sum loses no digits; 20 terms leave < 1e-19.
_E1_SERIES_LIMIT = 1.0
_E1_SERIES_TERMS = 20


def digamma(x: float) -> float:
    """Digamma function ``psi(x)`` for real ``x > 0``.

    Positive integers use the exact form ``psi(n) = -gamma + sum_{p=1}^{n-1} 1/p``
    (compensated summation, so consecutive-integer identities hold to the
    last bit).  Other arguments are shifted upward with
    ``psi(x) = psi(x+1) - 1/x`` until the asymptotic Bernoulli series applies.

    Parameters
    ----------
    x : float
        Argument, must be strictly positive.

    Returns
    -------
    float
        ``psi(x)`` accurate to about 1e-13 absolute.

    Raises
    ------
    ValueError
        If ``x`` is not strictly positive or not finite.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"digamma requires x > 0, got {x!r}")
    if x.is_integer() and x <= _HARMONIC_LIMIT:
        return _digamma_int(int(x))
    shift = 0.0
    while x < _PSI_CUTOFF:
        shift -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    power = inv2
    for coeff in _PSI_SERIES:
        series += coeff * power
        power *= inv2
    return shift + math.log(x) - 0.5 / x - series


@functools.cache
def _digamma_int(n: int) -> float:
    """``psi(n)`` by its harmonic sum; cached, as the bounds ask for the
    same few hundred integers again at every point."""
    return -EULER_GAMMA + math.fsum(1.0 / p for p in range(1, n))


def _exp1_sum(a: float) -> float:
    """``S(a) = sum_{k>=1} (-a)^k / (k k!)`` for ``0 < a <= 1``, so that
    ``E1(a) = -gamma - ln a - S(a)``."""
    a = float(a)
    if not 0.0 < a <= _E1_SERIES_LIMIT:
        raise ValueError(f"the E1 series needs 0 < a <= {_E1_SERIES_LIMIT:g}, got {a!r}")
    terms, power = [], 1.0
    for k in range(1, _E1_SERIES_TERMS + 1):
        power *= -a / k  # (-a)^k / k!
        terms.append(power / k)
    return math.fsum(terms)


def _exp1(a: float) -> float:
    """Exponential integral ``E1(a) = int_a^inf e^-t / t dt`` for
    ``0 < a <= 1``, by its power series (Abramowitz & Stegun 5.1.11)."""
    total = _exp1_sum(a)  # checks a
    return -EULER_GAMMA - math.log(a) - total


def _log1p_over_exp_mean(a: float) -> float:
    """``E ln(1 + a / X)`` in nats for ``X ~ Exp(1)`` and ``0 < a <= 1``.

    ``int_0^inf e^-x ln(1 + a/x) dx = e^a E1(a) + ln a + gamma``.  With
    `_exp1`'s series that is ``-(e^a - 1)(gamma + ln a) - e^a S(a)``, in
    which the two ``ln a`` terms have already cancelled, so it keeps its
    digits as ``a -> 0``, where it tends to ``a (1 - gamma - ln a)``.
    """
    total = _exp1_sum(a)  # checks a
    return -math.expm1(a) * (EULER_GAMMA + math.log(a)) - math.exp(a) * total


def log_stiefel_volume(t: int, m: int) -> LogVolume:
    """Natural-log volume of the complex Stiefel manifold ``St(t, m)``.

    The manifold of ``m`` orthonormal columns in ``C^t`` has volume
    ``prod_{i=t-m+1}^{t} 2 pi^i / Gamma(i)``.

    Parameters
    ----------
    t, m : int
        Ambient dimension and frame size, ``0 <= m <= t``.

    Returns
    -------
    float
        ``ln |St(t, m)|`` (0.0 for the empty frame ``m = 0``).
    """
    t, m = _check_dims(t, m)
    return math.fsum(
        _LN_2 + i * _LN_PI - math.lgamma(i) for i in range(t - m + 1, t + 1)
    )


def log_grassmann_volume(t: int, m: int) -> LogVolume:
    """Natural-log volume of the complex Grassmann manifold ``Gr(t, m)``.

    Quotient volume ``|St(t, m)| / |St(m, m)|``; satisfies the complement
    symmetry ``|Gr(t, m)| = |Gr(t, t - m)|``.

    Parameters
    ----------
    t, m : int
        Ambient dimension and subspace dimension, ``0 <= m <= t``.

    Returns
    -------
    float
        ``ln |Gr(t, m)|``.
    """
    t, m = _check_dims(t, m)
    return log_stiefel_volume(t, m) - log_stiefel_volume(m, m)


def expected_logdet_wishart(m: int, t: int) -> float:
    """Mean log-determinant of a complex Wishart matrix, in nats.

    For ``S`` an ``m x t`` matrix of i.i.d. unit-variance complex Gaussians
    with ``t >= m``, ``E[ln det (S S^H)] = sum_{i=1}^{m} psi(t - i + 1)``.

    Parameters
    ----------
    m : int
        Matrix side (number of rows of ``S``), ``m >= 0``.
    t : int
        Number of columns of ``S`` (degrees of freedom), ``t >= m``.

    Returns
    -------
    float
        The expectation in nats; 0.0 for ``m = 0``.
    """
    m = _check_count(m, "m")
    t = _check_count(t, "t")
    if t < m:
        raise ValueError(f"need t >= m, got t={t} < m={m}")
    return math.fsum(digamma(t - i + 1) for i in range(1, m + 1))


def _check_count(value: int, name: str) -> int:
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return int(value)


def _check_dims(t: int, m: int) -> tuple[int, int]:
    t = _check_count(t, "t")
    m = _check_count(m, "m")
    if m > t:
        raise ValueError(f"need m <= t, got m={m} > t={t}")
    return t, m
