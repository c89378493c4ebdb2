"""The exact eigenvalue laws against independent quadrature and sampling.

Every quadrature oracle here is built from scipy or mpmath functions, not
from `anleak.laws`, and the laws must match it to the stated error of
1e-9 bits; no band is widened to absorb quadrature error.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import eval_genlaguerre, exp1, gammaln

from anleak import ExactFirst, SvKind, SystemConfig, ergodic_constant, expected_log_sv_sum
from anleak.laws import jacobi_nodes, laguerre_nodes
from anleak.montecarlo import _universal_law

STATED_ERROR = 1e-9 * math.log(2.0)  # 1e-9 bits, in nats


def _laguerre_density(m, n):
    """One-point density of the ``m x n`` Laguerre ensemble, through scipy."""
    a = n - m
    k = np.arange(m)
    log_norm = 0.5 * (gammaln(k + 1) - gammaln(k + a + 1))

    def rho(x):
        phi = np.exp(log_norm + 0.5 * (a * math.log(x) - x)) * eval_genlaguerre(k, a, x)
        return float(np.sum(phi**2))

    return rho


def _quad(f, s2, top):
    """``int_0^top f`` by scipy, split at the scales of ``s2`` and below ``top``."""
    cuts = {0.0, top, *(p for p in (s2, 10 * s2, 100 * s2, 1e-3, 1e-2, 0.1, 1.0) if p < top)}
    cuts.update(np.linspace(2.0, top, 24)[:-1])
    edges = sorted(cuts)
    return math.fsum(
        integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )


# (m, n): square blocks, a thin and a tall one, and the flagship data block.
LAGUERRE_SHAPES = [(1, 1), (2, 2), (4, 4), (8, 8), (16, 16), (64, 64), (3, 7), (16, 64)]


@pytest.mark.parametrize("s2", [1.0, 1e-3, 1e-6])
@pytest.mark.parametrize("shape", LAGUERRE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_laguerre_nodes_match_scipy_quadrature(shape, s2):
    m, n = shape
    x, w = laguerre_nodes(m, n)
    rho = _laguerre_density(m, n)
    top = 2.0 * (math.sqrt(m) + math.sqrt(n)) ** 2 + 60.0
    for f in (lambda t: np.log1p(t / s2), lambda t: np.log(t + s2)):
        oracle = _quad(lambda t: rho(t) * float(f(t)), s2, top)
        assert abs(float(w @ f(x)) - oracle) <= STATED_ERROR, (f, oracle)


def test_laguerre_nodes_single_entry_oracle():
    # E ln(1 + |g|^2) = e E1(1) for one CN(0, 1) entry; the weights sum to m.
    x, w = laguerre_nodes(1, 1)
    assert abs(float(w @ np.log1p(x)) - math.e * float(exp1(1.0))) <= 1e-14
    for m, n in LAGUERRE_SHAPES:
        assert abs(laguerre_nodes(m, n)[1].sum() - m) <= 1e-12 * m
    with pytest.raises(ValueError):
        laguerre_nodes(3, 2)


def _log_moment(j, c):
    """``int_0^inf ln(1 + x/c) x^j e^-x dx`` in closed form, ``j <= 2``.

    By parts it is ``j! sum_{i<=j} K_i / i!`` with
    ``K_i = int x^i e^-x / (x + c) dx``, ``K_0 = e^c E1(c)`` and
    ``K_i = (i-1)! - c K_{i-1}``.
    """
    ks = [math.exp(c) * float(exp1(c))]
    for i in range(1, j + 1):
        ks.append(math.factorial(i - 1) - c * ks[-1])
    return math.factorial(j) * sum(k / math.factorial(i) for i, k in enumerate(ks))


# Square data and noise blocks of one and two rows; their densities are
# e^-x and e^-x (2 - 2x + x^2), so the inner integral has a closed form.
SQUARE_UNIVERSAL = {
    1: (SystemConfig(M=3, K=1, N_E=1, N_J=1, T=2, alpha2=1.5, beta2=0.7), (1.0,)),
    2: (SystemConfig(M=5, K=2, N_E=2, N_J=2, T=4, alpha2=1.5, beta2=0.7), (2.0, -2.0, 1.0)),
}


@pytest.mark.parametrize("s2", [1.0, 1e-3, 1e-6])
@pytest.mark.parametrize("m", list(SQUARE_UNIVERSAL))
def test_universal_law_matches_scipy_quadrature(m, s2):
    cfg, poly = SQUARE_UNIVERSAL[m]
    assert cfg.N_E == cfg.K == m and cfg.N_J == cfg.t_prime == m

    def inner(y):
        c = (cfg.beta2 * y + s2) / cfg.alpha2
        return sum(p * _log_moment(j, c) for j, p in enumerate(poly))

    rho = _laguerre_density(m, m)
    oracle = _quad(lambda y: rho(y) * inner(y), s2 / cfg.beta2, 100.0) / cfg.t_prime
    at = replace(cfg, snr_e_db=-10.0 * math.log10(s2))
    assert at.sigma_z2 == s2
    assert abs(_universal_law(at) * math.log(2.0) - oracle) <= STATED_ERROR


def _jacobi_oracle(q, a, b, f, near):
    """``E sum f(x_i)`` over the Jacobi ensemble by 30-digit mpmath quadrature
    of its one-point density ``w sum_k P_k^2 / h_k``, split at the scale
    ``near`` of a singularity of ``f`` below 0."""
    with mpmath.workdps(30):

        def weight(x):
            return x**b * (1 - x) ** a

        def poly(k, x):
            return mpmath.jacobi(k, a, b, 2 * x - 1)

        cuts = sorted({0, *(mpmath.mpf(c) for c in (near, 10 * near, 100 * near, 1e-3) if c < 0.5)})
        cuts += [0.5, 1 - mpmath.mpf("1e-3"), 1]
        norms = [mpmath.quad(lambda x: poly(k, x) ** 2 * weight(x), cuts) for k in range(q)]
        return float(
            mpmath.quad(
                lambda x: f(x) * weight(x) * sum(poly(k, x) ** 2 / h for k, h in enumerate(norms)),
                cuts,
            )
        )


# (lo, hi, q, a, b): ln(lo + (hi - lo) x) has its branch point at
# -lo / (hi - lo), about lo / hi below x = 0.
JACOBI_CASES = [
    (1.0, 1000.0, 2, 1, 1),
    (1.0, 1000.0, 3, 1, 0),  # exponent 0 at x = 0, next to the branch point
    (1.0, 1000.0, 3, 0, 0),
    (1e-6, 1.0, 3, 2, 0),  # a 1e-6 power ratio with exponent 0 at x = 0
    (1e-12, 1.0, 1, 0, 0),
    (1e-300, 1.0, 4, 1, 0),  # branch point far inside the first node's scale
    (1.2, 2.0, 8, 8, 24),  # sweep-ne's N_E = 32 point
]


@pytest.mark.parametrize(("lo", "hi", "q", "a", "b"), JACOBI_CASES)
def test_jacobi_nodes_match_mpmath_at_extreme_power_ratios(lo, hi, q, a, b):
    x, w = jacobi_nodes(q, a, b)
    law = float(w @ np.log(lo + (hi - lo) * x))
    oracle = _jacobi_oracle(q, a, b, lambda t: mpmath.log(lo + (hi - lo) * t), lo / hi)
    assert abs(law - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_jacobi_nodes_weights_and_argument_checks():
    for q, a, b in [(1, 0, 0), (3, 1, 0), (8, 8, 24), (64, 0, 64), (32, 64, 64)]:
        x, w = jacobi_nodes(q, a, b)
        assert abs(w.sum() - q) <= 1e-13 * q**2
        assert 0.0 < x.min() and x.max() < 1.0 and not w.flags.writeable
    for q, a, b in [(0, 0, 0), (1, -1, 0), (1, 0, -1)]:
        with pytest.raises(ValueError):
            jacobi_nodes(q, a, b)


@pytest.mark.parametrize(
    "ratio", [1e-3, 1e3, 1e-6, 1e6], ids=["1:1000", "1000:1", "1:1e6", "1e6:1"]
)
def test_two_power_law_agrees_with_sampling_at_extreme_ratios(ratio):
    # The wide JOINT and Gbar laws through ExactFirst (N_E < K + N_J) with
    # alpha2 : beta2 far from 1, so the branch point of ln det sits about
    # min(ratio, 1 / ratio) from an end of the Jacobi support.
    cfg = SystemConfig(M=8, K=2, N_E=3, N_J=4, T=12, alpha2=ratio, beta2=1.0)
    exact = ExactFirst(trials=4000, seed=2)
    pairs = [
        (exact.log_sv_sum(SvKind.JOINT, cfg), expected_log_sv_sum(SvKind.JOINT, cfg, 4000, 2)),
        (exact.ergodic_constant(cfg), ergodic_constant(cfg, 4000, 2)),
    ]
    for law, sampled in pairs:
        assert law.std_error == 0.0
        assert abs(law.mean - sampled.mean) <= 4.0 * sampled.std_error, (law, sampled)


# One power on both blocks, N_J > 0: Gbar is 3 x 6 and G2 is 3 x 4.
ONE_POWER = SystemConfig(M=8, K=2, N_E=3, N_J=4, T=12, alpha2=1.3, beta2=1.3)


@pytest.mark.parametrize("s2", [1.0, 1e-3])
def test_one_power_ergodic_leakage_matches_scipy_quadrature(s2):
    # E sum ln(1 + p lambda / s2) over each block's Laguerre density, by
    # scipy, differenced: the Gbar block less the noise block G2.
    cfg, p = ONE_POWER, ONE_POWER.alpha2

    def block(m, n):
        rho = _laguerre_density(min(m, n), max(m, n))
        top = 2.0 * (math.sqrt(m) + math.sqrt(n)) ** 2 + 60.0
        return _quad(lambda t: rho(t) * math.log1p(p * t / s2), s2 / p, top)

    oracle = block(cfg.N_E, cfg.K + cfg.N_J) - block(cfg.N_E, cfg.N_J)
    at = replace(cfg, snr_e_db=-10.0 * math.log10(s2))
    assert at.sigma_z2 == s2
    est = ExactFirst(trials=2, seed=0).ergodic_leakage(at)
    assert est.std_error == 0.0
    assert abs(est.mean * math.log(2.0) - oracle) <= STATED_ERROR, (est, oracle)


def test_one_power_ergodic_leakage_single_stream_oracle():
    # Criterion 02: one CN(0, 1) entry at unit noise leaks e E1(1) / ln 2 bits.
    cfg = SystemConfig(M=2, K=1, N_E=1, N_J=0, T=2, alpha2=1.0, beta2=0.0, snr_e_db=0.0)
    est = ExactFirst(trials=2, seed=0).ergodic_leakage(cfg)
    oracle = math.e * float(exp1(1.0)) / math.log(2.0)
    assert abs(est.mean - oracle) <= 1e-9
    assert est.std_error == 0.0
