"""The exact eigenvalue laws against independent quadrature and sampling.

Every quadrature oracle here is built from scipy or mpmath functions, not
from `anleak.laws`, and the laws must match it to the stated error of
1e-9 bits; no band is widened to absorb quadrature error.
"""

import decimal
import functools
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import eval_genlaguerre, exp1, gammaln

from anleak import (
    ExactFirst,
    SvKind,
    SystemConfig,
    balanced_config,
    ergodic_constant,
    expected_log_sv_sum,
    twopower,
)
from anleak.laws import jacobi_nodes, laguerre_nodes
from anleak.laws import _laguerre_log1p, _legendre, _universal_law

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


def test_the_stored_legendre_rule_is_numpys_leggauss():
    # `_legendre` mirrors a stored positive half.  It is numpy's rule to
    # 2 ulp on any numpy (bit for bit on numpy 2.4.6), and its nodes ascend.
    x, w = _legendre()
    ref_x, ref_w = np.polynomial.legendre.leggauss(64)
    assert np.all(np.abs(x - ref_x) <= 2 * np.spacing(np.abs(ref_x)))
    assert np.all(np.abs(w - ref_w) <= 2 * np.spacing(ref_w))
    assert np.all(np.diff(x) > 0)


def test_the_stored_legendre_rule_integrates_every_monomial_it_should():
    # A route that reads no numpy.polynomial: a 64-point Gauss-Legendre rule
    # integrates x^k over [-1, 1] exactly for k <= 127, to 2/(k+1) for even
    # k and 0 for odd k.
    x, w = _legendre()
    for k in range(128):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.sum(w * x**k) - exact) <= 1e-14, k


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
    exact = ExactFirst()
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
    est = ExactFirst().ergodic_leakage(at)
    assert est.std_error == 0.0
    assert abs(est.mean * math.log(2.0) - oracle) <= STATED_ERROR, (est, oracle)


def test_one_power_ergodic_leakage_single_stream_oracle():
    # Criterion 02: one CN(0, 1) entry at unit noise leaks e E1(1) / ln 2 bits.
    cfg = SystemConfig(M=2, K=1, N_E=1, N_J=0, T=2, alpha2=1.0, beta2=0.0, snr_e_db=0.0)
    est = ExactFirst().ergodic_leakage(cfg)
    oracle = math.e * float(exp1(1.0)) / math.log(2.0)
    assert abs(est.mean - oracle) <= 1e-9
    assert est.std_error == 0.0


def _two_power_oracle(n_e, k, alpha2, nj, beta2, s2, dps=80):
    """``E sum ln(1 + lambda / s2)`` in nats over the eigenvalues of
    ``Gbar^H Gbar``, ``Gbar`` an ``n_e x (k + nj)`` block with column powers
    ``alpha2`` (``k``) and ``beta2`` (``nj``), as ``tr(Psi^-1 Phi)`` of the
    polynomial ensemble by a dense mpmath solve at ``dps`` digits.

    ``I_n(sigma) = int x^n e^(-x/sigma) ln(1 + x/s2) dx`` comes from
    ``J_0 = e^(mu c) E1(mu c)``, ``J_k = (k-1)!/mu^k - c J_(k-1)`` (``mu =
    1/sigma``, ``c = s2``) and ``I_n = n!/mu^(n+1) sum_{k<=n} mu^k J_k/k!``.
    Tall and square blocks (``c0 = n_e - m >= 0``) have rows
    ``x^(c0+p) e^(-x/sigma)``, ``p`` below each power's multiplicity, and
    columns ``x^j``.  Wide ones have the column-scaled confluent
    Vandermonde ``d^p/dsigma^p [sigma^j, l! sigma^(d+1+l)]``,
    ``d = m - n_e - 1``, and ``Phi`` is 0 in its first ``d + 1`` columns
    and ``d^p/dsigma^p sigma^d I_l(sigma)``, by Leibniz, in the others.
    Either way the ``I_n`` that row ``p`` reads are a prefix of those the
    power's last row reads, so each power's ``I_n`` are formed once.
    ``Psi`` does not read ``s2``: `_oracle_psi_lu` factors it once per
    block, powers and digits.
    """
    lu, perm = _oracle_psi_lu(n_e, k, alpha2, nj, beta2, dps)
    with mpmath.workdps(dps):
        m, c = k + nj, mpmath.mpf(s2)
        fac = mpmath.factorial
        phi = mpmath.matrix(m, m)
        r = 0
        for sigma, count in ((mpmath.mpf(alpha2), k), (mpmath.mpf(beta2), nj)):
            if not count:
                continue
            mu = 1 / sigma
            js = [mpmath.exp(mu * c) * mpmath.e1(mu * c)]
            for i in range(1, n_e + count):
                js.append(fac(i - 1) / mu**i - c * js[-1])
            big_i = [
                fac(n) / mu ** (n + 1) * mpmath.fsum(mu**i * js[i] / fac(i) for i in range(n + 1))
                for n in range(n_e + count)
            ]
            for p in range(count):
                if n_e >= m:
                    for j in range(m):
                        phi[r, j] = big_i[n_e - m + p + j]
                else:
                    d = m - n_e - 1
                    for l in range(n_e):
                        # d^p/dsigma^p of sigma^d x^l e^(-x/sigma), term by term.
                        phi[r, d + 1 + l] = mpmath.fsum(
                            math.comb(p, i) * _falling(d, p - i) * sigma ** (d - (p - i))
                            * _derivative_of_moment(big_i, sigma, l, i)
                            for i in range(p + 1)
                        )
                r += 1
        # The 10 guard bits that `mpmath.lu_solve` adds, as the factors have.
        with mpmath.workprec(mpmath.mp.prec + 10):
            diag = [mpmath.mp.U_solve(lu, mpmath.mp.L_solve(lu, phi.column(j), perm))[j]
                    for j in range(m)]
        return mpmath.fsum(diag)


@functools.cache
def _oracle_psi_lu(n_e, k, alpha2, nj, beta2, dps):
    """The LU factors of `_two_power_oracle`'s ``Psi`` for all ``m``
    columns, at the 10 guard bits that `mpmath.lu_solve` adds; every call
    shares them, so they are only read."""
    with mpmath.workdps(dps):
        m = k + nj
        fac = mpmath.factorial
        rows = [(mpmath.mpf(sigma), p) for sigma, count in ((alpha2, k), (beta2, nj))
                for p in range(count)]
        psi = mpmath.matrix(m, m)
        for r, (sigma, p) in enumerate(rows):
            for j in range(m):
                if n_e >= m:
                    c0 = n_e - m
                    psi[r, j] = fac(c0 + p + j) * sigma ** (c0 + p + j + 1)
                else:
                    d = m - n_e - 1
                    scale = 1 if j <= d else fac(j - d - 1)
                    psi[r, j] = scale * _falling(j, p) * sigma ** (j - p)
        with mpmath.workprec(mpmath.mp.prec + 10):
            return mpmath.mp.LU_decomp(psi)


def _falling(a, p):
    """The falling factorial ``a (a - 1) ... (a - p + 1)``."""
    return mpmath.fprod(a - i for i in range(p))


def _derivative_of_moment(big_i, sigma, l, i):
    """``d^i/dsigma^i I_l(sigma)``: ``d/dsigma e^(-x/sigma) = x/sigma^2
    e^(-x/sigma)``, so it is ``sum_q a_iq sigma^(-i-q) I_(l+q)`` with
    ``a_00 = 1``, ``a_(i+1,q) += -(i+q) a_iq`` and ``a_(i+1,q+1) += a_iq``."""
    coef = {0: 1}
    for step in range(i):
        nxt = {}
        for q, a in coef.items():
            nxt[q] = nxt.get(q, 0) - (step + q) * a
            nxt[q + 1] = nxt.get(q + 1, 0) + a
        coef = nxt
    return mpmath.fsum(a * sigma ** (-i - q) * big_i[l + q] for q, a in coef.items())


# (N_E, K, alpha2, N_J, beta2) of at most five columns: tall, square and
# wide blocks, with the larger group and the larger power on either side.
TWO_POWER_ORACLE_SHAPES = {
    "tall": (7, 2, 1.5, 3, 0.7),
    "square": (5, 2, 1.5, 3, 0.7),
    "wide-by-one": (4, 2, 1.5, 3, 0.7),
    "wide": (3, 2, 1.5, 3, 0.7),
    "tall-more-data": (6, 3, 0.4, 2, 2.5),
    "square-more-data": (5, 3, 2.5, 2, 0.4),
    "wide-more-data": (2, 3, 0.4, 1, 2.5),
    "one-row": (1, 1, 2.0, 1, 0.5),
}


@pytest.mark.parametrize("snr_db", [-20.0, 0.0, 30.0, 60.0, 3000.0])
@pytest.mark.parametrize("shape", list(TWO_POWER_ORACLE_SHAPES))
def test_two_power_law_matches_the_mpmath_oracle(shape, snr_db):
    s2 = 10.0 ** (-snr_db / 10.0)
    law = twopower.two_power_log1p(*TWO_POWER_ORACLE_SHAPES[shape], s2)
    oracle = float(_two_power_oracle(*TWO_POWER_ORACLE_SHAPES[shape], s2))
    assert abs(law - oracle) <= STATED_ERROR, (law, oracle)


@pytest.mark.parametrize("shape", list(TWO_POWER_ORACLE_SHAPES))
def test_two_power_law_at_the_lowest_snr_is_its_first_order_term(shape):
    # At -3000 dB, ln(1 + x/s2) = x/s2 to 1e-290 relative, so the law is
    # E tr(Gbar^H Gbar) / s2 = N_E (K alpha2 + N_J beta2) / s2; the forward
    # recurrence of the oracle would lose 300 digits a step here.
    n_e, k, alpha2, nj, beta2 = TWO_POWER_ORACLE_SHAPES[shape]
    first = n_e * (k * alpha2 + nj * beta2) / 1e300
    assert twopower.two_power_log1p(n_e, k, alpha2, nj, beta2, 1e300) == pytest.approx(
        first, rel=1e-12
    )


# The benchmark's N_E sweep at 30 dB (M=64 K=8 N_J=40 T=192 alpha2=2, so
# beta2 = 1.2): its wide point from `_two_power_oracle` at 300 digits, its
# tall and square points from the same route at 300 and 400 digits.
SWEEP_NE_BITS = {
    32: 19.3890403772,
    48: 101.1113179425,
    64: 122.2276788933,
    96: 133.3190106635,
}


@pytest.mark.parametrize("n_e", list(SWEEP_NE_BITS))
def test_two_power_leakage_at_the_sweep_points(n_e):
    cfg = balanced_config(M=64, K=8, N_E=n_e, N_J=40, T=192, alpha2=2.0)
    assert (cfg.beta2, cfg.sigma_z2) == (1.2, 1e-3)
    est = ExactFirst().ergodic_leakage(cfg)
    assert est.std_error == 0.0
    assert abs(est.mean - SWEEP_NE_BITS[n_e]) <= 1e-9, est


def test_two_power_log_means_match_mpmath():
    # T_n(z) = sum_{k<=n} r_k with r_k = e^z E_(k+1)(z), on both sides of
    # the switch from the series of E1 to the continued fraction at z = 40.
    # mpmath's E_n needs the margin: at 80 digits E_121(150) is off in its
    # 30th.  Below z = 1 (where E_n is slow) r_k comes from e^z E1(z) and
    # r_k = (1 - z r_(k-1)) / k, which loses nothing there.
    for z in ("1e-300", "1e-8", "0.3", "7", "39.5", "40.5", "150", "1e4", "1e300"):
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            means = twopower._log_means(decimal.Decimal(z), 120)
        with mpmath.workdps(160):
            x = mpmath.mpf(z)
            if x < 1:
                rs = [mpmath.exp(x) * mpmath.e1(x)]
                for k in range(1, 121):
                    rs.append((1 - x * rs[-1]) / k)
            else:
                rs = [mpmath.exp(x) * mpmath.expint(k + 1, x) for k in range(121)]
            for n in (0, 1, 5, 30, 120):
                oracle = mpmath.fsum(rs[: n + 1])
                assert abs(mpmath.mpf(str(means[n])) / oracle - 1) <= mpmath.mpf("1e-55"), (z, n)


# Blocks of 26 columns at powers near each other, where the weights reach
# 1e61 at a ratio of 1.011 (140 digits) and 1e162 at 1 + 1e-6 (212 digits);
# `two_power_log1p` answers the last two, below its hand-over (n = 26:
# delta* = 2.9e-4), with the near-equal expansion: (shape, oracle digits).
NEAR_EQUAL_ORACLE_SHAPES = {
    "tall-1.011": ((30, 6, 1.011, 20, 1.0), 160),
    "square-1.011": ((26, 6, 1.011, 20, 1.0), 160),
    "wide-1.011": ((20, 6, 1.011, 20, 1.0), 160),
    "square-larger-noise-1.011": ((26, 6, 1.0, 20, 1.011), 160),
    "square-1.0001": ((26, 6, 1.0001, 20, 1.0), 220),
    "square-1.000001": ((26, 6, 1.000001, 20, 1.0), 320),
}


@pytest.mark.parametrize("snr_db", [-20.0, 30.0])
@pytest.mark.parametrize("name", list(NEAR_EQUAL_ORACLE_SHAPES))
def test_two_power_law_matches_the_oracle_at_near_equal_powers(name, snr_db):
    shape, dps = NEAR_EQUAL_ORACLE_SHAPES[name]
    s2 = 10.0 ** (-snr_db / 10.0)
    law = twopower.two_power_log1p(*shape, s2)
    oracle = float(_two_power_oracle(*shape, s2, dps=dps))
    assert abs(law - oracle) <= STATED_ERROR, (law, oracle)
    assert twopower._law(*shape).digits > 100


def _largest_weight_digits(law) -> int:
    """Digits before the point of a law's largest weight."""
    return max(abs(w) for _, _, ws in law.nodes for w in ws).adjusted() + 1


def test_two_power_law_confirms_its_digits():
    # Built at too few digits, the law fails its g = 1 and g = x identities
    # and is rebuilt, to the same value.
    shape, s2 = (64, 8, 2.0, 40, 1.2), 1e-3
    want = twopower.two_power_log1p(*shape, s2)
    twopower._law.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(twopower, "_DIGITS", 40)
            law = twopower._law(*shape)
            assert law.digits > 40
            assert law(s2) == want
    finally:
        twopower._law.cache_clear()


def test_the_identities_catch_what_the_margin_rule_lets_through():
    # With 5 digits kept beyond the largest weight the margin rule holds at
    # once; the weights then carry a 1e-4 error, which only the g = 1 and
    # g = x identities see.  Unchecked, that law is wrong; checked, it is
    # rebuilt at more digits to the value of the default rule.
    shape, s2 = NEAR_EQUAL_ORACLE_SHAPES["square-1.011"][0], 1e-3
    want = twopower.two_power_log1p(*shape, s2)
    first = _largest_weight_digits(twopower._law(*shape)) + 5
    twopower._law.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(twopower, "_MARGIN", 5)
            patch.setattr(twopower, "_DIGITS", first)
            patch.setattr(twopower, "_IDENTITY_TOL", decimal.Decimal("Infinity"))
            unchecked = twopower._law(*shape)
            assert unchecked.digits == first
            assert abs(unchecked(s2) - want) > 1e-6
            twopower._law.cache_clear()
            patch.undo()
            patch.setattr(twopower, "_MARGIN", 5)
            patch.setattr(twopower, "_DIGITS", first)
            checked = twopower._law(*shape)
            assert checked.digits > first
            assert abs(checked(s2) - want) <= STATED_ERROR
    finally:
        twopower._law.cache_clear()


def _identity_errors(law, n_e, k, alpha2, nj, beta2):
    """Relative errors of a law's ``g = 1`` and ``g = x`` identities at its
    own digits: the weights sum to the count of eigenvalues they carry, and
    their mean is ``E tr Gbar^H Gbar`` less the Laguerre block's."""
    m = k + nj
    with decimal.localcontext() as ctx:
        ctx.prec = law.digits
        a, b = decimal.Decimal(alpha2), decimal.Decimal(beta2)
        if n_e < m:
            mass, mean = n_e, n_e * (k * a + nj * b)
        else:
            ns, s_s, nl, s_l = (k, a, nj, b) if nj >= k else (nj, b, k, a)
            mass, mean = ns, ns * (n_e * s_s + nl * s_l)
        weights = [w for _, _, ws in law.nodes for w in ws]
        got_mean = sum(sigma * sum(w * (start + i + 1) for i, w in enumerate(ws))
                       for sigma, start, ws in law.nodes)
        return abs(sum(weights) / mass - 1), abs(got_mean / mean - 1)


def _hand_over(n_e, k, nj, side=1.0) -> float:
    """The ratio ``1 + delta*`` of the hand-over, just above it (``side``
    1, where the law answers) or just below (-1, the expansion):
    ``delta* = (m / max(K, N_J)) (3 tau / n)^(1/3)``."""
    m = k + nj
    delta = m / max(k, nj) * (3.0 * twopower._TAU / min(n_e, m)) ** (1.0 / 3.0)
    return 1.0 + delta * (1.0 + side * 1e-9)


# (N_E, K, N_J) and the digits the law confirms at just above the hand-over.
HAND_OVER_DIGITS = {(48, 8, 40): 243, (64, 16, 48): 312}


def test_the_law_confirms_its_identities_at_the_hand_over():
    # With no cap, the law answers down to delta*, where its digits are
    # largest: its g = 1 and g = x identities hold there to the rule's
    # 1e-24, at pinned digits.  Equal powers are the one-power law's.
    for (n_e, k, nj), digits in HAND_OVER_DIGITS.items():
        ratio = _hand_over(n_e, k, nj)
        law = twopower._law(n_e, k, ratio, nj, 1.0)
        assert law.digits == digits
        for error in _identity_errors(law, n_e, k, ratio, nj, 1.0):
            assert error <= twopower._IDENTITY_TOL
    with pytest.raises(ValueError):
        twopower.two_power_log1p(5, 2, 1.0, 3, 1.0, 1e-3)


def test_an_extreme_power_ratio_reaches_the_law(monkeypatch):
    # At alpha2 = 1e-300, delta' is about 1e300, whose cube overflows a
    # float: the near-equal gate decides before it cubes, and the law answers.
    asked = []
    monkeypatch.setattr(twopower, "_law", lambda *shape: asked.append(shape) or (lambda s2: s2))
    assert twopower.two_power_log1p(64, 16, 1e-300, 48, 4 / 3, 1e-3) == 1e-3
    assert asked == [(64, 16, 1e-300, 48, 4 / 3)]


@pytest.mark.parametrize("digits", [100, 250, 700])
def test_euler_constant_matches_mpmath(digits):
    with mpmath.workdps(digits + 20):
        error = abs(mpmath.mpf(str(twopower._euler(digits))) - mpmath.euler)
        assert error < mpmath.mpf(10) ** -(digits + 1)


# Tall, square and wide blocks of K = 8, N_J = 40.
EXPANSION_SHAPES = {"tall": 64, "square": 48, "wide": 32}


@pytest.mark.parametrize("delta", [2e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("name", list(EXPANSION_SHAPES))
def test_the_near_equal_expansion_lies_within_its_proven_remainder(name, delta):
    # law - expansion is the third-order remainder, at most (n/3) delta'^3
    # nats with delta' = (max(K, N_J)/m) delta, on either side of the
    # hand-over and with the larger power on either group.
    n_e = EXPANSION_SHAPES[name]
    bound = min(n_e, 48) / 3.0 * (40 / 48 * delta) ** 3
    for shape in ((n_e, 8, 1.0 + delta, 40, 1.0), (n_e, 8, 1.0, 40, 1.0 + delta)):
        law = twopower._law(*shape)
        for snr_db in (0.0, 30.0, 60.0):
            s2 = 10.0 ** (-snr_db / 10.0)
            residual = law(s2) - twopower._near_equal(*shape, s2)
            assert abs(residual) <= bound, (shape, snr_db, residual, bound)


@pytest.mark.parametrize("snr_db", [0.0, 30.0, 60.0])
@pytest.mark.parametrize("name", list(EXPANSION_SHAPES))
def test_the_expansion_coefficient_is_the_laws_second_derivative(name, snr_db):
    # At a fixed mean power pbar, with alpha2 = pbar + N_J D / m and beta2
    # = pbar - K D / m, the even part of the law in D is F1(pbar) - C D^2
    # + O(D^4), and the expansion is F1(pbar) - C D^2 exactly.  C read from
    # the law at D = 0.02 and 0.01 and extrapolated (Richardson) matches
    # the expansion's to 1e-7 relative, far inside what the remainder
    # bound alone would catch.
    n_e, k, nj, s2 = EXPANSION_SHAPES[name], 8, 40, 10.0 ** (-snr_db / 10.0)
    f1 = _laguerre_log1p(n_e, k + nj, 1.0, s2)

    def powers(d):
        return 1.0 + nj * d / (k + nj), 1.0 - k * d / (k + nj)

    def even(d):
        (a1, b1), (a2, b2) = powers(d), powers(-d)
        pair = twopower._law(n_e, k, a1, nj, b1)(s2) + twopower._law(n_e, k, a2, nj, b2)(s2)
        return (f1 - pair / 2.0) / d**2

    alpha2, beta2 = powers(0.02)
    expansion = (f1 - twopower._near_equal(n_e, k, alpha2, nj, beta2, s2)) / 0.02**2
    law = (4.0 * even(0.01) - even(0.02)) / 3.0
    assert abs(expansion - law) <= 1e-7 * abs(law), (expansion, law)


@pytest.mark.parametrize("snr_db", [0.0, 30.0, 60.0])
def test_the_two_routes_agree_at_the_hand_over(snr_db):
    # Just above delta* the law answers and just below the expansion does;
    # there the two lie within _TAU of each other.
    s2 = 10.0 ** (-snr_db / 10.0)
    for n_e, k, nj in HAND_OVER_DIGITS:
        above, below = _hand_over(n_e, k, nj), _hand_over(n_e, k, nj, -1.0)
        law = twopower.two_power_log1p(n_e, k, above, nj, 1.0, s2)
        expansion = twopower.two_power_log1p(n_e, k, below, nj, 1.0, s2)
        assert law == twopower._law(n_e, k, above, nj, 1.0)(s2)
        assert expansion == twopower._near_equal(n_e, k, below, nj, 1.0, s2)
        assert abs(law - expansion) <= twopower._TAU


@pytest.mark.parametrize("snr_db", [0.0, 30.0])
@pytest.mark.parametrize("shape", ["tall", "square", "wide"])
def test_the_near_equal_expansion_matches_the_mpmath_oracle(shape, snr_db):
    # Five columns at a ratio of 1 + 1e-5, and the 5-column block at 1 +
    # 1e-9, where the expansion meets the one-power Laguerre law.
    n_e, k, _, nj, _ = TWO_POWER_ORACLE_SHAPES[shape]
    s2 = 10.0 ** (-snr_db / 10.0)
    near = (n_e, k, 1.0 + 1e-5, nj, 1.0)
    oracle = float(_two_power_oracle(*near, s2, dps=120))
    assert abs(twopower.two_power_log1p(*near, s2) - oracle) <= STATED_ERROR
    assert twopower.two_power_log1p(n_e, k, 1.0 + 1e-9, nj, 1.0, s2) == pytest.approx(
        _laguerre_log1p(n_e, k + nj, 1.0, s2), rel=1e-8
    )


def test_the_square_near_equal_point_matches_the_pinned_fit():
    # The sweep-ne base's square point at alpha2 = 1.33334 (beta2 =
    # 1.333332, delta = 6e-6): a 20000-trial seed-0 control-variate fit of
    # the ergodic leakage read 96.42598502496219 +- 5.857e-10 bits.  The
    # expansion lies within 4 of its standard errors and draws nothing.
    cfg = SystemConfig(M=64, K=8, N_E=48, N_J=40, T=192, alpha2=1.33334, beta2=1.333332)
    est = ExactFirst().ergodic_leakage(cfg)
    assert est.std_error == 0.0
    assert abs(est.mean - 96.42598502496219) <= 4.0 * 5.857280585817797e-10


def _dense_tall(n_e, ns, s_s, nl, s_l):
    """``twopower._tall``'s weights by the dense route, at the context's
    precision: every row ``C[a][k]``, each projection
    ``Q_a = sum_{p < nl} C[a][p] / h_p pi_p`` as a matrix product, and
    ``P_L = sum_a Q_a E_a`` as ``ns`` convolutions."""
    dec = decimal.getcontext().create_decimal
    m, c, rho = ns + nl, n_e - ns - nl, s_s / s_l
    fact = [math.factorial(i) for i in range(2 * m + c + 2)]
    pi = np.zeros((m, m), dtype=object)
    for kk in range(m):
        for i in range(kk + 1):
            pi[kk, i] = dec((-1) ** (kk - i) * math.comb(kk + c, kk - i) * fact[kk] // fact[i])
    minus_delta = 1 - 1 / rho
    scaled = np.array([dec(f) * rho ** (i + 1) for i, f in enumerate(fact)], dtype=object)
    rows = np.array(
        [
            [
                sum(
                    dec(math.comb(kk, j) * fact[a] // fact[a - j]) * minus_delta ** (kk - j)
                    * scaled[a - j + kk + c]
                    for j in range(min(a, kk) + 1)
                )
                for kk in range(m)
            ]
            for a in range(ns)
        ],
        dtype=object,
    )
    e = twopower._inverse(rows[:, nl:]).T @ pi[nl:]
    norms = np.array([dec(fact[p] * fact[p + c]) for p in range(nl)], dtype=object)
    q = (rows[:, :nl] / norms) @ pi[:nl, :nl]
    p_s = np.zeros(m + ns - 1, dtype=object)
    p_l = np.zeros(nl + m - 1, dtype=object)
    for a in range(ns):
        p_s[a : a + m] += e[a]
        p_l += np.convolve(q[a], e[a])
    w_l = -p_l * np.array([dec(f) for f in fact[c : c + len(p_l)]], dtype=object)
    return [list(p_s * scaled[c : c + len(p_s)]), list(w_l)]


# (N_E, K, alpha2, N_J, beta2) of tall and square blocks.
TALL_SHAPES = {
    "sweep-ne-48": (48, 8, 2.0, 40, 1.2),
    "sweep-ne-64": (64, 8, 2.0, 40, 1.2),
    "sweep-ne-96": (96, 8, 2.0, 40, 1.2),
    "square": (26, 6, 1.5, 20, 0.7),
    "one-data-column": (12, 1, 1.5, 8, 0.7),  # no H_j: U = V = 0
    "as-many-data-as-noise": (20, 6, 0.7, 6, 1.5),
    "more-data-than-noise": (24, 12, 1.5, 8, 0.7),  # alpha2 is the Laguerre block
    "near-equal-1.0003": (48, 8, 1.0003, 40, 1.0),
}


@pytest.mark.parametrize("name", list(TALL_SHAPES))
def test_tall_weights_match_the_dense_projections(name):
    # The three-term recurrence for Q_a and the three-convolution form of
    # P_L against every row projected and convolved, at the law's digits,
    # to all but 5 of the digits it keeps beyond its largest weight.
    n_e, k, alpha2, nj, beta2 = TALL_SHAPES[name]
    law = twopower._law(*TALL_SHAPES[name])
    ns, s_s, nl, s_l = (k, alpha2, nj, beta2) if nj >= k else (nj, beta2, k, alpha2)
    with decimal.localcontext() as ctx:
        ctx.prec = law.digits
        args = (n_e, ns, decimal.Decimal(s_s), nl, decimal.Decimal(s_l))
        got = [ws for _, _, ws in twopower._tall(*args)]
        want = _dense_tall(*args)
        assert [len(ws) for ws in got] == [len(ws) for ws in want]
        top = max(abs(w) for ws in want for w in ws)
        error = max(abs(g - w) for gs, ws in zip(got, want) for g, w in zip(gs, ws))
        tol = decimal.Decimal(10) ** -(law.digits - (top.adjusted() + 1) - 5)
        assert error <= tol * top, (error / top, law.digits)


def _full_leibniz_wide(n_e, x0, mu0, x1, mu1):
    """``twopower._wide``'s weights with the Leibniz sum over every row
    ``p >= q``, its exact zeros ``gamma_pq = 0`` (``q <= d < p``) included."""
    dec = decimal.getcontext().create_decimal
    m = mu0 + mu1
    d = m - n_e - 1
    fact = [math.factorial(i) for i in range(m + n_e + mu0 + 1)]
    delta = x0 - x1
    taylor = [dec((-1) ** i * math.comb(mu1 + i - 1, i)) / delta ** (mu1 + i) for i in range(mu0)]
    power = [dec(math.comb(mu1, j)) * delta ** (mu1 - j) for j in range(mu1 + 1)]
    neg = twopower._powers(-x0, m, 0)
    shift = np.zeros((m, n_e), dtype=object)
    for l in range(n_e):
        for j in range(d + 1 + l, m):
            shift[j, l] = dec(math.comb(j, d + 1 + l)) * neg[j - d - 1 - l] / dec(fact[l])
    coef = np.zeros((mu0, n_e), dtype=object)
    for p in range(mu0):
        top = mu0 - 1 - p
        head = 1 / dec(fact[p])
        row = head * shift[p]
        for deg in range(top + 1, top + mu1 + 1):
            t_coef = sum(taylor[i] * power[deg - i] for i in range(max(0, deg - mu1), top + 1))
            row += (head * t_coef) * shift[p + deg]
        coef[p] = row
    gamma = [[0] * mu0 for _ in range(mu0)]
    gamma[0][0] = 1
    for p in range(mu0 - 1):
        for q in range(p + 1):
            gamma[p + 1][q] += (d - p - q) * gamma[p][q]
            gamma[p + 1][q + 1] += gamma[p][q]
    inverse = twopower._powers(1 / x0, 2 * mu0, 0) * x0**d
    w = np.zeros(n_e + mu0 - 1, dtype=object)
    for q in range(mu0):
        scales = np.array([dec(gamma[p][q]) * inverse[p + q] for p in range(q, mu0)], dtype=object)
        w[q : q + n_e] += scales @ coef[q:]
    fact_w = np.array([dec(f) for f in fact[: len(w)]], dtype=object)
    return list(w * fact_w * twopower._powers(x0, len(w), 1))


# (N_E, K, alpha2, N_J, beta2) of wide blocks; d = K + N_J - N_E - 1.
WIDE_SHAPES = {
    "d-0": (47, 8, 2.0, 40, 1.2),
    "sweep-ne-32": (32, 8, 2.0, 40, 1.2),  # d = 15: zeros at N_J's rows, none at K's
    "d-past-both": (2, 2, 1.5, 5, 0.7),  # d = 4 >= mu0 - 1 at both powers
}


@pytest.mark.parametrize("name", list(WIDE_SHAPES))
def test_wide_weights_skip_only_exact_zeros(name):
    n_e, k, alpha2, nj, beta2 = WIDE_SHAPES[name]
    with decimal.localcontext() as ctx:
        ctx.prec = twopower._law(*WIDE_SHAPES[name]).digits
        a, b = decimal.Decimal(alpha2), decimal.Decimal(beta2)
        for block in [(n_e, a, k, b, nj), (n_e, b, nj, a, k)]:
            assert twopower._wide(*block) == _full_leibniz_wide(*block)


# The digits each law confirms at, so that a build losing digits fails here
# rather than silently rebuilding: the four sweep-ne blocks, the flagship at
# alpha2 = 1.003 (beta2 = 0.999, a ratio of 1.004004) and a wide flagship
# block at a ratio of 1.01.
CONFIRMED_DIGITS = {
    "sweep-ne-32": ((32, 8, 2.0, 40, 1.2), 100),
    "sweep-ne-48": ((48, 8, 2.0, 40, 1.2), 100),
    "sweep-ne-64": ((64, 8, 2.0, 40, 1.2), 100),
    "sweep-ne-96": ((96, 8, 2.0, 40, 1.2), 100),
    "flagship-1.003": ((64, 16, 1.003, 48, 0.999), 234),
    "wide-flagship-1.01": ((32, 16, 1.01, 48, 1.0), 209),
}


@pytest.mark.parametrize("name", list(CONFIRMED_DIGITS))
def test_the_law_confirms_at_its_pinned_digits(name):
    shape, digits = CONFIRMED_DIGITS[name]
    assert twopower._law(*shape).digits == digits

