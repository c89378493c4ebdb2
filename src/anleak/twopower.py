"""Exact ergodic leakage at two powers, in extended precision.

The effective channel ``Gbar = G Sigma^1/2`` has an ``N_E x m`` CN(0, 1)
block ``G``, ``m = K + N_J``, and column powers
``Sigma = diag(alpha2 I_K, beta2 I_N_J)``.  The nonzero eigenvalues of
``Gbar^H Gbar`` form a polynomial ensemble (Baik, Ben Arous & Peche 2005,
*Ann. Probab.* 33; for ``N_E < m``, Chiani, Win & Zanella 2003, *IEEE
Trans. IT* 49): their joint density is a determinant with one row function
per column of ``Gbar``, confluent within each power, times the Vandermonde
determinant of the eigenvalues, so for any ``g``

    E sum g(lambda) = tr(Psi^-1 Phi),

``Psi`` the matrix of row functions against the columns and ``Phi`` the
same with ``g`` inside each integral.  Every entry of ``Phi`` is a
combination of ``I_n(sigma) = int x^n e^(-x/sigma) g(x) dx`` at the two
powers, so the law is a set of weights ``w[sigma][n]`` that do not depend
on the noise floor, with ``E sum g = sum w[sigma][n] I_n(sigma)``.

* Tall and square blocks (``N_E >= m``): the rows are
  ``x^(c+p) e^(-x/sigma)``, ``c = N_E - m``, ``p`` below each power's
  multiplicity, and the columns ``x^j``, ``j < m``.  Taking the columns
  and the rows of the power ``sigma_L`` with more columns in that
  power's monic Laguerre basis ``pi_k`` (weight ``x^c e^(-x/sigma_L)``)
  makes ``Psi`` block lower-triangular: the ``n_L`` rows of that power
  give the Laguerre law of an ``n_L x (N_E - n_S)`` block, evaluated in
  double precision (`laws._laguerre_log1p`), and the other
  ``n_S`` rows a rank-``n_S`` correction through an ``n_S x n_S`` Schur
  complement, whose entries ``int x^(c+a) e^(-x/sigma_S) pi_k`` have an
  ``a + 1``-term closed form (Rodrigues' formula, integrated by parts).
  The projections ``Q_a`` of the small group's rows on the Laguerre
  block's degrees follow each other by the three-term recurrence of the
  ``pi_k`` (Szego 1939), ``Q_a = y Q_(a-1) + beta pi_n_L + gamma
  pi_(n_L-1)``, so the Laguerre side of the correction is
  ``Q_0 P_S + pi_n_L U + pi_(n_L-1) V``: three convolutions, not one per
  row (`_tall`).
* Wide blocks (``N_E < m``): with ``d = m - N_E - 1`` the rows are
  ``sigma^j`` for ``j <= d`` and ``l! sigma^(d+1+l)`` for ``l < N_E``, a
  column-scaled confluent Vandermonde in ``sigma``, whose inverse is the
  Hermite interpolation basis at the two powers; ``Phi`` is 0 in the
  first ``d + 1`` columns and ``d^p/dsigma^p`` of
  ``sigma^d int x^l e^(-x/sigma) g`` in the others, which is
  ``sum_q gamma_pq sigma^(d-p-q) I_(l+q)`` with ``gamma_00 = 1``,
  ``gamma_(p+1,q) += (d-p-q) gamma_pq`` and
  ``gamma_(p+1,q+1) += gamma_pq``, exactly 0 for ``q <= d < p``, terms
  the sum skips.

For ``g = ln(1 + x/s2)``, ``I_n(sigma) = n! sigma^(n+1) T_n(s2/sigma)``
with ``T_n(z) = E ln(1 + Y/z)`` for ``Y ~ Gamma(n + 1)``, a sum of
``r_k = E 1/(Y_k + z)`` (`_log_means`).

The weights are large and of both signs: they cancel to a result of
order ``m`` from terms up to ``1e55`` on the benchmark's blocks, and up to
``1e162`` at a power ratio of 1.001 on ``K = 8, N_J = 40``.  So they are
built and applied in stdlib `decimal`, at a precision set by a rule and
then confirmed: at least ``_MARGIN`` digits beyond the largest weight, and
two exact identities, ``g = 1`` (the weights sum to the count of
eigenvalues they carry) and ``g = x`` (their mean is ``E tr Gbar^H Gbar``
less the Laguerre block's), must hold to ``_IDENTITY_TOL`` relative.  A
law that fails either is rebuilt at more digits.  Euler's constant, which
the series of ``E1`` needs, is computed at the working precision
(`_euler`).

As the powers merge the digits the law needs grow without bound, so near
equal powers the answer is a second-order expansion about the mean power
instead (`_near_equal`).  With ``n = min(N_E, m)``, ``Delta = alpha2 -
beta2``, ``delta = |Delta| / min(alpha2, beta2)`` and ``pbar = (K alpha2
+ N_J beta2) / m``, write ``Sigma = pbar I + D`` and ``M = s2 I + pbar G
G^H``.  Along ``M_t = M + t G D G^H``, ``d/dt ln det M_t = tr(M_t^-1 G D
G^H)``, ``d^2/dt^2 = -tr((M_t^-1 G D G^H)^2)`` and ``d^3/dt^3 = 2
tr((M_t^-1 G D G^H)^3)``.  At ``t = 0`` the columns are exchangeable and
``sum D = 0``, so the first derivative has mean 0 and the second
``-(K N_J Delta^2 / m) b``, ``b = E[W_11 W_22]`` for ``W = G^H M^-1 G``;
by unitary invariance ``b = (m T11 - T2) / (m (m^2 - 1))`` with ``T2 = E
tr W^2`` and ``T11 = E (tr W)^2``, Laguerre statistics of ``f(x) = x /
(s2 + pbar x)`` over the ``n`` nonzero eigenvalues of ``G^H G``:
``T2 = tr F2`` and ``T11 = (tr F)^2 + tr F2 - ||F||_F^2``, ``F`` and
``F2`` the matrices of ``f`` and ``f^2`` against the orthonormal Laguerre
functions (the determinantal kernel; Forrester, *Log-gases and Random
Matrices*, 2010), on the rule of `laws.laguerre_rows`.  So

    E sum ln(1 + lambda / s2) = F1(pbar) - (K N_J Delta^2 / 2m) b + R3,

``F1(p)`` the one-power Laguerre law.  The remainder is proven: ``D``
is ``N_J Delta / m`` on the ``K`` columns and ``-K Delta / m`` on the
others, so ``|D_i| <= max(K, N_J) |Delta| / m``, while ``pbar + t D_i``
lies between ``pbar`` and a column power, at least ``min(alpha2,
beta2)``, for ``0 <= t <= 1``.  With ``delta' = (max(K, N_J) / m)
delta`` that gives ``|D_i| <= delta' (pbar + t D_i)``, so ``-delta' M_t
<= G D G^H <= delta' M_t``; ``M_t^-1/2 G D G^H M_t^-1/2`` has rank at
most ``n`` and eigenvalues in ``[-delta', delta']``, the third
derivative is at most ``2 n delta'^3`` and ``|R3| <= (n / 3) delta'^3``
nats, on every draw.  The expansion answers where that bound is at most
``_TAU`` = 1e-10 nats, so up to ``delta* = (m / max(K, N_J)) (3 _TAU /
n)^(1/3)``: ``2.21e-4`` on ``K = 8, N_J = 40`` (``n = 48``) and
``2.23e-4`` on ``K = 16, N_J = 48`` (``n = 64``).  Above ``delta*`` the
law answers, at the digits its rule asks for, with no cap.  Just
above ``delta*`` it builds, on a 2-vCPU Xeon host, at 243 digits on
``K = 8, N_J = 40`` (24 ms with ``N_E >= m``, 64 ms at ``N_E = m - 16``),
312 on ``K = 16, N_J = 48`` (0.10 s, 0.36 s), 470 on ``K = 20, N_J = 80``
(0.41 s, 2.3 s) and 594 on ``K = 32, N_J = 96`` (1.6 s, 8.1 s); at a
ratio of 2 the same blocks need 100-201 digits.  Every pair of distinct
powers gets an answer, but far from equal powers the digits and the build
time grow with the power ratio, with no cap: on the flagship (``N_E =
64``, ``K = 16``, ``N_J = 48``, ``beta2`` balanced) ``alpha2 = 1e-10``
takes 409 digits and a 0.6 s ``anleak bounds``, ``1e-30`` 1030 digits
and 3.7 s, ``1e-100`` 89 s, and ``1e-300`` gave no answer in 6.4 min.

This module is imported only by the two-power path of
`laws.ExactFirst`, so no other command loads it or `decimal`; it imports
nothing that samples.
"""

from __future__ import annotations

import decimal
import functools
import math
from decimal import Decimal

import numpy as np

from .laws import _laguerre_log1p, laguerre_rows

__all__ = ["two_power_log1p"]

_DIGITS = 100  # first precision tried; the benchmark's blocks need at most 95
_MARGIN = 40  # digits kept beyond the largest weight
_IDENTITY_TOL = Decimal("1e-24")  # relative error allowed in the g = 1 and g = x identities
_SERIES_Z = 40  # below this z, r_0 comes from the E1 series; above, a continued fraction
_TAU = 1e-10  # nats: the largest proven remainder the near-equal expansion may carry


def two_power_log1p(
    n_e: int, k: int, alpha2: float, nj: int, beta2: float, s2: float
) -> float:
    """``E sum ln(1 + lambda / s2)`` in nats over the eigenvalues of
    ``Gbar^H Gbar`` for an ``n_e x (k + nj)`` effective channel with ``k``
    columns of power ``alpha2`` and ``nj`` of power ``beta2``; both counts
    at least 1 and the powers positive and distinct.  Where the
    near-equal expansion's remainder bound ``(n/3) delta'^3`` is at most
    ``_TAU`` it answers (`_near_equal`); elsewhere the exact law does.

    The law's digits, and so its build time, grow with the power ratio
    and nothing caps them: on the flagship block a ratio of 1e10 builds
    in under a second, 1e30 in seconds, 1e100 in minutes, and 1e300 gave
    no answer in 6.4 min (figures in the module docstring)."""
    if min(k, nj) < 1 or min(alpha2, beta2) <= 0.0 or alpha2 == beta2:
        raise ValueError(
            f"two powers need k, nj >= 1 and distinct positive powers, got "
            f"{k}, {nj}, {alpha2}, {beta2}"
        )
    m = k + nj
    delta = max(k, nj) / m * abs(alpha2 - beta2) / min(alpha2, beta2)  # delta'
    # No delta' >= 1 passes, so the cube is taken only where it cannot overflow.
    if delta < 1.0 and min(n_e, m) / 3.0 * delta**3 <= _TAU:
        return _near_equal(n_e, k, alpha2, nj, beta2, s2)
    return _law(n_e, k, alpha2, nj, beta2)(s2)


def _near_equal(n_e: int, k: int, alpha2: float, nj: int, beta2: float, s2: float) -> float:
    """``F1(pbar) - (k nj Delta^2 / 2m) b``, the expansion of the module
    docstring, within ``(n/3) delta'^3`` nats of the exact value."""
    m = k + nj
    pbar = (k * alpha2 + nj * beta2) / m
    x, phi = laguerre_rows(min(n_e, m), max(n_e, m))
    f = x / (s2 + pbar * x)
    kernel, kernel2 = (phi * f) @ phi.T, (phi * (f * f)) @ phi.T
    t1, t2 = np.trace(kernel), np.trace(kernel2)
    t11 = t1 * t1 + t2 - np.sum(kernel * kernel)
    b = (m * t11 - t2) / (m * (m * m - 1))
    return _laguerre_log1p(n_e, m, pbar, s2) - k * nj * (alpha2 - beta2) ** 2 / (2 * m) * float(b)


class _Law:
    """Weights on ``T_n(s2 / sigma)`` at each power, at ``digits`` digits,
    and the Laguerre block ``(rows, cols, power)`` they correct, if any."""

    def __init__(self, digits: int, nodes: list, share: tuple | None):
        self.digits, self.nodes, self.share = digits, nodes, share

    def __call__(self, s2: float) -> float:
        with decimal.localcontext() as ctx:
            ctx.prec = self.digits
            s = Decimal(s2)
            total = Decimal(0)
            for sigma, start, weights in self.nodes:
                means = _log_means(s / sigma, start + len(weights) - 1)[start:]
                total += sum(map(Decimal.__mul__, weights, means))
        value = float(total)
        if self.share is not None:
            value += _laguerre_log1p(*self.share, s2)
        return value


@functools.cache
def _law(n_e: int, k: int, alpha2: float, nj: int, beta2: float) -> _Law:
    """The law of one geometry, at two distinct powers, built once per process."""
    m = k + nj
    digits = _DIGITS
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec = digits
            a, b = Decimal(alpha2), Decimal(beta2)
            if n_e < m:
                nodes = [(a, 0, _wide(n_e, a, k, b, nj)), (b, 0, _wide(n_e, b, nj, a, k))]
                share, mass, mean = None, n_e, n_e * (k * a + nj * b)
            else:
                # The power with more columns is the Laguerre block.
                ns, s_s, nl, s_l = (k, a, nj, b) if nj >= k else (nj, b, k, a)
                nodes = _tall(n_e, ns, s_s, nl, s_l)
                share = (n_e - ns, nl, float(s_l))
                mass, mean = ns, ns * (n_e * s_s + nl * s_l)
            largest = max(abs(w) for _, _, ws in nodes for w in ws).adjusted() + 1
            got_mass = sum(w for _, _, ws in nodes for w in ws)
            got_mean = sum(sigma * sum(w * (start + i + 1) for i, w in enumerate(ws))
                           for sigma, start, ws in nodes)
            holds = (
                abs(got_mass / mass - 1) <= _IDENTITY_TOL
                and abs(got_mean / mean - 1) <= _IDENTITY_TOL
            )
        if holds and digits >= largest + _MARGIN:
            return _Law(digits, nodes, share)
        digits = max(digits + _MARGIN, largest + _MARGIN + 10)


def _factorials(top: int) -> list:
    """``n!`` for ``n <= top`` as integers."""
    out = [1]
    for i in range(1, top + 1):
        out.append(out[-1] * i)
    return out


def _tall(n_e: int, ns: int, s_s: Decimal, nl: int, s_l: Decimal) -> list:
    """Correction weights of a tall or square block, in units of ``s_l``:
    ``[(s_s, c, w_S), (s_l, c, w_L)]``, ``c = n_e - m``.

    With ``y = x / s_l``, ``rho = s_s / s_l`` and ``delta = 1/rho - 1``, the
    monic Laguerre polynomials of weight ``y^c e^-y`` are
    ``pi_k = sum_i (-1)^(k-i) C(k+c, k-i) k!/i! y^i`` with norms
    ``h_k = k! (k+c)!``, and the small group's rows against them are
    ``C[a][k] = sum_{j <= min(a, k)} C(k, j) a!/(a-j)! (-delta)^(k-j)
    (a-j+k+c)! rho^(a-j+k+c+1)``.  The correction density is
    ``y^c (e^(-y/rho) P_S(y) - e^-y P_L(y))`` with
    ``P_S = sum_a y^a E_a``, ``P_L = sum_a Q_a E_a``,
    ``E_a = sum_k (D^-1)[k][a] pi_(nl+k)`` for the Schur block
    ``D = C[:, nl:]`` and ``Q_a = sum_{p < nl} C[a][p] / h_p pi_p``, the
    projection of ``y^a e^(-delta y)`` on degree ``< nl``.

    The projections follow from the three-term recurrence: a remainder
    orthogonal to degree ``< nl`` projects, times ``y``, onto ``pi_(nl-1)``
    alone, so ``Q_a = y Q_(a-1) + beta_(a-1) pi_nl + gamma_(a-1) pi_(nl-1)``
    with ``beta_j = -C[j][nl-1] / h_(nl-1)`` and
    ``gamma_j = C[j][nl] / h_(nl-1)``.  Hence
    ``P_L = Q_0 P_S + pi_nl U + pi_(nl-1) V``, ``U = sum_j beta_j H_j``,
    ``V = sum_j gamma_j H_j``, ``H_(ns-1) = 0`` and
    ``H_j = E_(j+1) + y H_(j+1)``: three convolutions, the terms above
    degree ``nl + m - 2`` cancelling exactly, and for ``a >= 1`` only the
    columns ``k >= nl - 1`` of ``C``.  Arrays hold decimals (numpy object
    arrays), so products round to the context's precision.
    """
    dec = decimal.getcontext().create_decimal
    m = ns + nl
    c = n_e - m
    rho = s_s / s_l
    fact = _factorials(2 * m + c + 1)
    pi = np.zeros((m, m), dtype=object)  # pi[k, i]: the y^i coefficient of pi_k
    for kk in range(m):
        v = 1
        pi[kk, kk] = Decimal(1)
        for i in range(kk - 1, -1, -1):
            v = -v * (i + 1) * (c + i + 1) // (kk - i)
            pi[kk, i] = dec(v)
    minus_delta = 1 - 1 / rho
    dpow = [minus_delta**i for i in range(m + 1)]
    # scaled[i] = i! rho^(i+1)
    scaled = np.array([dec(f) for f in fact], dtype=object) * _powers(rho, len(fact), 1)

    def row(a: int, first: int) -> np.ndarray:  # C[a][first:]
        return np.array(
            [
                sum(
                    dec(math.comb(kk, j) * fact[a] // fact[a - j]) * dpow[kk - j]
                    * scaled[a - j + kk + c]
                    for j in range(min(a, kk) + 1)
                )
                for kk in range(first, m)
            ],
            dtype=object,
        )

    head = row(0, 0)
    tail = np.array([head[nl - 1 :]] + [row(a, nl - 1) for a in range(1, ns)])  # C[:, nl-1:]
    e = _inverse(tail[:, 1:]).T @ pi[nl:]  # e[a]: E_a
    norms = np.array([dec(fact[p] * fact[p + c]) for p in range(nl)], dtype=object)
    q0 = (head[:nl] / norms) @ pi[:nl, :nl]  # Q_0
    p_s = np.zeros(m + ns - 1, dtype=object)
    for a in range(ns):
        p_s[a : a + m] += e[a]
    h = np.zeros(m + ns - 1, dtype=object)  # H_j
    u, v = h.copy(), h.copy()  # h_(nl-1) U and h_(nl-1) V
    for j in range(ns - 2, -1, -1):
        h = np.concatenate(([0], h[:-1]))
        h[:m] += e[j + 1]
        u -= tail[j, 0] * h
        v += tail[j, 1] * h
    top = nl + m - 1  # P_L's length
    p_l = (
        np.convolve(q0, p_s)[:top]
        + (np.convolve(pi[nl, : nl + 1], u)[:top] + np.convolve(pi[nl - 1, :nl], v)[:top])
        / norms[nl - 1]
    )
    w_s = p_s * scaled[c : c + len(p_s)]
    w_l = -p_l * np.array([dec(f) for f in fact[c : c + top]], dtype=object)
    return [(s_s, c, list(w_s)), (s_l, c, list(w_l))]


def _wide(n_e: int, x0: Decimal, mu0: int, x1: Decimal, mu1: int) -> list:
    """Weights of a wide block at the power ``x0`` (multiplicity ``mu0``;
    the other power ``x1``, ``mu1``), from ``T_0`` on.

    The Hermite basis polynomial of row ``(x0, p)`` is, in ``t = sigma - x0``
    with ``Delta = x0 - x1``, ``t^p / p! (t + Delta)^mu1 S(t)``, ``S`` the
    Taylor polynomial of ``(t + Delta)^-mu1`` to degree ``mu0 - 1 - p``; so
    its ``t``-coefficients are ``1/p!`` at ``t^p`` and otherwise lie at
    ``t^mu0`` and above.  Its ``sigma^(d+1+l)`` coefficients, ``l < n_e``,
    pair with ``Phi``'s column ``l`` over ``l!``.
    """
    dec = decimal.getcontext().create_decimal
    m = mu0 + mu1
    d = m - n_e - 1
    fact = _factorials(m + n_e + mu0)
    delta = x0 - x1
    taylor = [dec((-1) ** i * math.comb(mu1 + i - 1, i)) / delta ** (mu1 + i) for i in range(mu0)]
    power = [dec(math.comb(mu1, j)) * delta ** (mu1 - j) for j in range(mu1 + 1)]
    neg = _powers(-x0, m, 0)
    # shift[j, l]: the sigma^(d+1+l) coefficient of t^j, over l!.
    shift = np.zeros((m, n_e), dtype=object)
    for l in range(n_e):
        for j in range(d + 1 + l, m):
            shift[j, l] = dec(math.comb(j, d + 1 + l)) * neg[j - d - 1 - l] / dec(fact[l])
    coef = np.zeros((mu0, n_e), dtype=object)  # coef[p, l]: from row (x0, p)
    for p in range(mu0):
        top = mu0 - 1 - p
        head = 1 / dec(fact[p])
        row = head * shift[p]
        for deg in range(top + 1, top + mu1 + 1):
            t_coef = sum(taylor[i] * power[deg - i] for i in range(max(0, deg - mu1), top + 1))
            row += (head * t_coef) * shift[p + deg]
        coef[p] = row
    # d^p/dsigma^p of sigma^d e^(-x/sigma) = sum_q gamma[p][q] sigma^(d-p-q) x^q e^(-x/sigma),
    # gamma[p][q] = C(p, q) (d-q)(d-q-1)...(d-p+1): exactly 0 for q <= d < p.
    gamma = [[0] * mu0 for _ in range(mu0)]
    gamma[0][0] = 1
    for p in range(mu0 - 1):
        for q in range(p + 1):
            gamma[p + 1][q] += (d - p - q) * gamma[p][q]
            gamma[p + 1][q + 1] += gamma[p][q]
    inverse = _powers(1 / x0, 2 * mu0, 0) * x0**d  # inverse[e] = x0^(d - e)
    w = np.zeros(n_e + mu0 - 1, dtype=object)
    for q in range(mu0):
        last = mu0 if q > d else min(mu0, d + 1)  # rows past d carry gamma 0
        scales = np.array(
            [dec(gamma[p][q]) * inverse[p + q] for p in range(q, last)], dtype=object
        )
        w[q : q + n_e] += scales @ coef[q:last]
    return list(w * np.array([dec(f) for f in fact[: len(w)]], dtype=object) * _powers(x0, len(w), 1))


def _powers(x: Decimal, count: int, first: int) -> np.ndarray:
    """``x^first, ..., x^(first + count - 1)`` as an object array."""
    out = [x**first]
    for _ in range(count - 1):
        out.append(out[-1] * x)
    return np.array(out, dtype=object)


def _inverse(a: np.ndarray) -> np.ndarray:
    """The inverse of a square object array of decimals, by Gauss-Jordan
    with partial pivoting, at the context's precision."""
    n = len(a)
    aug = np.concatenate([a, np.eye(n, dtype=int).astype(object)], axis=1)
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r, col]))
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = aug[col] / aug[col, col]
        for r in range(n):
            if r != col and aug[r, col]:
                aug[r] = aug[r] - aug[r, col] * aug[col]
    return aug[:, n:]


def _log_means(z: Decimal, top: int) -> list:
    """``T_n(z) = E ln(1 + Y/z)`` for ``Y ~ Gamma(n + 1)``, ``n <= top``, at
    the context's precision.

    ``T_n = sum_{k<=n} r_k`` with ``r_k = E 1/(Y_k + z) = j_k / k!`` for
    ``j_k = int y^k e^-y / (y + z) dy``, so ``r_0 = e^z E1(z)`` and
    ``r_k = (1 - z r_(k-1)) / k``.  That recurrence is stable upward for
    ``k > z`` and downward for ``k < z``.  For ``z <= 40`` ``r_0`` comes
    from the series of ``E1`` and the recurrence runs upward, with
    ``2 z / ln 10`` guard digits for the cancellation of both; above, ``r``
    at ``k* = min(top, floor z)`` comes from the continued fraction of
    ``e^z z^k Gamma(-k, z)`` and the recurrence runs down from ``k*`` and
    up from it.
    """
    digits = decimal.getcontext().prec
    with decimal.localcontext() as ctx:
        if z <= _SERIES_Z:
            ctx.prec = digits + int(2 * float(z) / math.log(10)) + 10
            tiny = Decimal(10) ** -ctx.prec
            term, ein, i = Decimal(1), Decimal(0), 0
            while True:
                i += 1
                term = -term * z / i
                ein -= term / i
                if i > z and abs(term) <= tiny * abs(ein):
                    break
            r = z.exp() * (ein - _euler(ctx.prec) - z.ln())
            rs = [r]
            for i in range(1, top + 1):
                r = (1 - z * r) / i
                rs.append(r)
        else:
            ctx.prec = digits + 10
            start = min(top, int(z))
            rs = [Decimal(0)] * (top + 1)
            rs[start] = _continued_fraction(z, start)
            for i in range(start, 0, -1):
                rs[i - 1] = (1 - i * rs[i]) / z
            for i in range(start + 1, top + 1):
                rs[i] = (1 - z * rs[i - 1]) / i
        total, out = Decimal(0), []
        for r in rs:
            total += r
            out.append(total)
    return [+t for t in out]


@functools.cache
def _euler(digits: int) -> Decimal:
    """Euler's constant to within ``10^-(digits + 1)``, by Brent and
    McMillan's algorithm B1 (*Math. Comp.* 34, 1980): with ``A_0 = -ln n``,
    ``B_0 = 1``, ``B_k = B_(k-1) n^2 / k^2`` and ``A_k = (A_(k-1) n^2 / k +
    B_k) / k``, ``sum A / sum B`` exceeds it by less than ``pi e^(-4n)``.
    Both sums are dominated by positive terms near ``k = n`` and do not
    cancel, so ten guard digits carry the rounding."""
    n = math.ceil(((digits + 2) * math.log(10) + math.log(math.pi)) / 4)
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 10
        tiny = Decimal(10) ** -ctx.prec
        nn = n * n
        a = u = -Decimal(n).ln()
        b = v = Decimal(1)
        k = 0
        while k <= n or abs(a) + b > tiny * v:
            k += 1
            b = b * nn / (k * k)
            a = (a * nn / k + b) / k
            u += a
            v += b
        return u / v


def _continued_fraction(z: Decimal, n: int) -> Decimal:
    """``r_n(z) = E 1/(Y_n + z)`` by the continued fraction
    ``1 / (z+1+n - 1(1+n) / (z+3+n - 2(2+n) / (z+5+n - ...)))`` of
    ``e^z z^n Gamma(-n, z)``, evaluated by modified Lentz; it converges in
    a few dozen terms for ``z > 40``."""
    tol = Decimal(10) ** (2 - decimal.getcontext().prec)
    f = c = z + 1 + n
    d = Decimal(0)
    for j in range(1, 100_000):
        a, b = -j * (j + n), z + 2 * j + 1 + n
        d = 1 / (b + a * d)
        c = b + a / c
        step = c * d
        f *= step
        if abs(step - 1) <= tol:
            return 1 / f
    raise ArithmeticError(f"continued fraction for r_{n}({z}) did not converge")
