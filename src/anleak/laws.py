"""Exact eigenvalue laws of the leakage constants, and `ExactFirst`, which answers from them.

Two laws of complex Gaussian spectra, evaluated with numpy alone as
Gauss-Legendre nodes and weights for their one-point densities; the
expectations built on them stay within 1e-9 bits of scipy and mpmath
quadrature (``tests/test_laws.py``):

* `laguerre_nodes` — the Laguerre unitary ensemble, the eigenvalues of
  ``H H^H`` for an ``m x n`` CN(0, 1) block ``H`` with ``m <= n``
  (Telatar 1999).
* `jacobi_nodes` — the Jacobi unitary ensemble on [0, 1], the eigenvalues
  of a complex matrix-variate beta (Olkin & Rubin 1964).

Both densities are ``rho = sum_{k<m} phi_k^2`` over the first ``m``
orthonormal functions ``phi_k = p_k sqrt(w)`` of the ensemble's weight
``w``, built by their normalised three-term recurrence, and both are
integrated by Gauss-Legendre in ``x = v^2``, with the segment at ``v = 0``
graded geometrically, so the hard edge at 0 and a functional's log
singularity just below it are smooth in ``v``.

The node rules fix no unit: callers integrate their own functionals, in
nats.  `laguerre_rows` gives the orthonormal functions themselves on the
Laguerre rule, for two-point statistics: matrices ``int f p_j p_k w`` of
the determinantal kernel.

A third law lives in its own module, `anleak.twopower`: the eigenvalues of
``Gbar^H Gbar`` at two column powers, a polynomial ensemble whose weights
cancel too far for double precision.  It is evaluated in stdlib `decimal`,
with the Laguerre law above as its largest part on tall blocks, and near
equal powers by a second-order expansion whose coefficient is such a
two-point statistic; only the two-power ergodic leakage imports it.

`ExactFirst`, which ``sweep`` and ``bounds`` use, answers from these laws
with standard error 0: every high-SNR log-determinant (digamma sums, plus
a Jacobi-ensemble mean for two powers on a wide block; see `_log_sv_law`),
the universal constant (a 2-D quadrature over two Laguerre densities,
`_universal_law`) and the ergodic leakage: at one power two Laguerre
one-point integrals (`_laguerre_log1p`), at two the polynomial-ensemble
law of `anleak.twopower`, which only that path imports (its exact law, or
near equal powers a second-order expansion with a proven remainder below
1e-10 nats).  So it draws nothing and holds no run: each value is an
`McEstimate` of 0 trials.  `montecarlo.MonteCarlo` has the same four
methods and samples every quantity, all its ``trials``, so it stays the
cross-check of every law.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .special import expected_logdet_wishart

if TYPE_CHECKING:  # channel imports this module's `McEstimate` and run rule
    from .channel import SystemConfig

__all__ = ["laguerre_nodes", "laguerre_rows", "jacobi_nodes", "McEstimate", "SvKind", "ExactFirst"]

_LN2 = math.log(2.0)
_LAW_ROWS = 128  # noise nodes per chunk of `_universal_law`'s 2-D sum
_SEGMENTS = 16  # Gauss-Legendre segments in v = sqrt(x) per 64 rows
_GRADED = 12  # geometric pieces, ratio 4, that replace a first segment at v = 0
_NEGLIGIBLE = 1e-18  # nodes weighing less, relative to the heaviest, are dropped
_EDGE_MARGIN = 8.0  # singular-value margin beyond the bulk: density below e^-64


@functools.cache
def laguerre_nodes(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes ``x`` and weights ``w`` with ``E sum_i f(lambda_i) = w @ f(x)``.

    ``lambda_i`` are the ``m`` eigenvalues of ``H H^H`` for an ``m x n``
    CN(0, 1) block, ``1 <= m <= n``; ``w`` sums to ``m``.  The squared
    singular values ``v^2`` lie, up to an ``e^-64`` tail, within
    ``sqrt(n) - sqrt(m) - 8 <= v <= sqrt(n) + sqrt(m) + 8``; that range is
    cut into 16 Gauss-Legendre segments of 64 nodes (16 more for every 64
    rows beyond the first 64).  Where it starts at ``v = 0``, the first
    segment is split geometrically toward 0, so a functional's singularity
    at ``x = -s2`` is resolved for ``s2`` down to about 1e-14 times the
    squared segment width.
    Nodes weighing under 1e-18 of the heaviest are dropped.  The arrays are
    cached and read-only.
    """
    v, dv, recurrence = _laguerre_rule(m, n)
    rho = _density(*recurrence)
    return _nodes(recurrence[0], rho * 2.0 * v * dv)


@functools.cache
def laguerre_rows(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes ``x`` and rows ``phi[k] = p_k(x) sqrt(w(x) dx)``, ``k < m``, of
    the orthonormal functions behind `laguerre_nodes`, on its rule and with
    no node dropped, so that ``(phi * f(x)) @ phi.T`` is the matrix
    ``int f p_j p_k w dx`` of the Laguerre weight ``w = x^(n-m) e^-x /
    (n-m)!`` and ``(phi**2).sum(axis=0)`` is the one-point density times
    ``dx``.  The arrays are cached and read-only."""
    v, dv, recurrence = _laguerre_rule(m, n)
    rows = np.array(list(_orthonormal(*recurrence))) * np.sqrt(2.0 * v * dv)
    for arr in (recurrence[0], rows):
        arr.flags.writeable = False
    return recurrence[0], rows


def _laguerre_rule(m: int, n: int) -> tuple:
    """`laguerre_nodes`' points ``v`` and weights ``dv`` in ``v = sqrt(x)``,
    and the ``(x, half_log_w, centre, step)`` of its recurrence."""
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    a = n - m
    lo = max(0.0, math.sqrt(n) - math.sqrt(m) - _EDGE_MARGIN)
    hi = math.sqrt(n) + math.sqrt(m) + _EDGE_MARGIN
    v, dv = _rule(lo, hi, m)
    x = v * v
    k = np.arange(m, dtype=float)
    half_log_w = 0.5 * (a * np.log(x) - x - math.lgamma(a + 1.0))
    return v, dv, (x, half_log_w, 2.0 * k + 1.0 + a, np.sqrt(k * (k + a)))


@functools.cache
def jacobi_nodes(q: int, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes ``x`` and weights ``w`` with ``E sum_i f(x_i) = w @ f(x)``.

    ``x_i`` are ``q`` eigenvalues on [0, 1] with joint density
    proportional to ``prod x_i^b (1 - x_i)^a |Delta(x)|^2``, ``q >= 1`` and
    integers ``a, b >= 0``; ``w`` sums to ``q``.  The density is a
    polynomial, so the rule in ``v = sqrt(x)`` (16 segments of 64 nodes,
    16 more for every 64 of ``q + max(a, b)``) integrates it exactly; the
    first segment is graded toward ``x = 0`` as in `laguerre_nodes`, so
    ``f`` may have a log singularity as close as about 1e-17 below 0.  A
    singularity just above 1 is moved below 0 by ``x -> 1 - x``, which
    swaps ``a`` and ``b``.  Nodes weighing under 1e-18 of the heaviest are
    dropped.  The arrays are cached and read-only.
    """
    if q < 1 or a < 0 or b < 0:
        raise ValueError(f"need q >= 1 and a, b >= 0, got q={q}, a={a}, b={b}")
    v, dv = _rule(0.0, 1.0, q + max(a, b))
    x = v * v
    k = np.arange(q, dtype=float)
    s = 2.0 * k + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        centre = 0.5 + 0.5 * (b * b - a * a) / (s * (s + 2.0))
        step = np.sqrt(k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
    centre[0] = (b + 1.0) / (a + b + 2.0)
    step[0] = 0.0
    log_beta = math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)
    half_log_w = 0.5 * (b * np.log(x) + a * np.log1p(-x) - log_beta)
    return _nodes(x, _density(x, half_log_w, centre, step) * 2.0 * v * dv)


def _rule(lo: float, hi: float, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points ``v`` and weights ``dv`` over ``lo <= v <= hi``:
    16 segments of 64 nodes per 64 ``rows``, and a first segment that
    starts at ``v = 0`` split into 12 geometric pieces toward 0."""
    edges = np.linspace(lo, hi, _SEGMENTS * -(-rows // 64) + 1)
    if lo == 0.0:
        edges = np.concatenate(([0.0], edges[1] * 4.0 ** -np.arange(_GRADED, 0, -1), edges[1:]))
    t, tw = _legendre()
    half = 0.5 * np.diff(edges)[:, None]
    v, dv = (edges[:-1, None] + half * (t + 1.0)).ravel(), (half * tw).ravel()
    return v, dv


@functools.cache
def _legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 64-point Gauss-Legendre rule on [-1, 1], nodes ascending, mirrored
    once per process from its stored positive half.  It is numpy's
    ``leggauss(64)`` bit for bit (numpy 2.4: its nodes are exactly
    antisymmetric, its weights exactly symmetric), so no law depends on
    numpy's build and no command loads `numpy.polynomial`."""
    x, w = np.array(_LEGENDRE_NODES), np.array(_LEGENDRE_WEIGHTS)
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


# `_legendre`'s positive nodes, ascending, and their weights: numpy's
# ``leggauss(64)[k][32:]`` written as float literals.
_LEGENDRE_NODES = (
    0.02435029266342443, 0.07299312178779904, 0.12146281929612054, 0.16964442042399283,
    0.21742364374000708, 0.2646871622087674, 0.31132287199021097, 0.3572201583376681,
    0.4022701579639916, 0.4463660172534641, 0.48940314570705296, 0.5312794640198946,
    0.571895646202634, 0.6111553551723933, 0.6489654712546573, 0.6852363130542333,
    0.7198818501716109, 0.7528199072605319, 0.7839723589433414, 0.8132653151227975,
    0.8406292962525803, 0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
    0.9295691721319396, 0.9464113748584028, 0.9610087996520538, 0.973326827789911,
    0.983336253884626, 0.9910133714767443, 0.9963401167719552, 0.9993050417357722,
)
_LEGENDRE_WEIGHTS = (
    0.048690957009139814, 0.04857546744150351, 0.048344762234802996, 0.04799938859645842,
    0.04754016571483042, 0.046968182816210076, 0.04628479658131447, 0.045491627927418184,
    0.044590558163756566, 0.04358372452932355, 0.04247351512365361, 0.041262563242623576,
    0.039953741132720544, 0.03855015317861564, 0.03705512854024009, 0.0354722132568823,
    0.033805161837141794, 0.032057928354851495, 0.030234657072402554, 0.028339672614259535,
    0.02637746971505491, 0.0243527025687112, 0.02227017380838297, 0.020134823153530088,
    0.017951715775697284, 0.01572603047602503, 0.01346304789671786, 0.011168139460131028,
    0.008846759826363397, 0.006504457968978502, 0.004147033260564499, 0.00178328072169414,
)


def _density(
    x: np.ndarray, half_log_w: np.ndarray, centre: np.ndarray, step: np.ndarray
) -> np.ndarray:
    """``sum_{k<m} w p_k(x)^2``, ``m = len(step)``, over `_orthonormal`."""
    rho = np.zeros_like(x)
    for phi in _orthonormal(x, half_log_w, centre, step):
        rho += phi**2
    return rho


def _orthonormal(
    x: np.ndarray, half_log_w: np.ndarray, centre: np.ndarray, step: np.ndarray
):
    """Yield ``p_k(x) sqrt(w(x))``, ``k < m``, for the polynomials
    orthonormal under the probability weight ``w``, by their recurrence
    ``step[k+1] p_{k+1} = (x - centre[k]) p_k - step[k] p_{k-1}``, ``p_0 = 1``.

    ``m = len(step)``; ``step[0]`` is unused.  The recurrence runs with a
    per-node log scale, rescaled at every step, so neither the polynomials
    nor the weight over- or underflow where the density matters.
    """
    log_w = half_log_w.copy()
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    m = len(step)
    for k in range(m):
        yield cur * np.exp(log_w)
        if k + 1 == m:
            break
        nxt = ((x - centre[k]) * cur - step[k] * prev) / step[k + 1]
        scale = np.maximum(np.abs(cur), np.abs(nxt))
        scale[scale == 0.0] = 1.0
        prev, cur = cur / scale, nxt / scale
        log_w += np.log(scale)


def _nodes(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop nodes weighing under 1e-18 of the heaviest; freeze the rest."""
    keep = w > _NEGLIGIBLE * w.max()
    x, w = x[keep], w[keep]
    for arr in (x, w):
        arr.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class McEstimate:
    """A mean with its standard error: sampled, or exact from a law.

    Attributes
    ----------
    mean : float
        Sample mean over the valid trials, or the law's exact value.
    std_error : float
        Sample standard deviation divided by ``sqrt(trials)``; 0 when exact.
    trials : int
        Number of valid trials that entered the mean.  0 means no trial
        entered: the mean is exact, and then ``std_error`` must be 0.
    excluded : int
        Trials dropped by the degenerate-spectrum guard.
    """

    mean: float
    std_error: float
    trials: int
    excluded: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.std_error) and self.std_error >= 0.0):
            raise ValueError(f"std_error must be finite and >= 0, got {self.std_error!r}")
        if self.trials < 0 or (self.trials == 0 and self.std_error != 0.0):
            raise ValueError(f"need trials >= 1, or 0 with std_error 0, got {self.trials}")
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean!r}")
        if self.excluded < 0:
            raise ValueError(f"excluded must be >= 0, got {self.excluded}")


def _check_run_args(trials: int, seed: int, workers: int = 1) -> tuple[int, int, int]:
    """The package's one run rule: integer ``trials >= 2``, ``seed >= 0``,
    ``workers >= 1``, returned as ``int``.  Any integer type counts (numpy's
    too, through `operator.index`); a bool does not."""
    rules = (("trials", trials, 2), ("seed", seed, 0), ("workers", workers, 1))
    out = []
    for name, value, low in rules:
        try:
            if isinstance(value, (bool, np.bool_)):
                raise TypeError
            number = operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if number < low:
            raise ValueError(f"{name} must be >= {low}, got {number}")
        out.append(number)
    return tuple(out)


class SvKind(Enum):
    """Which product spectrum ``log_sv_sum`` averages.

    Members name the matrices by role in the transmission model:

    * ``JOINT`` — full effective channel (data and noise columns) times a
      unit-Gaussian block of ``T`` symbols; ``N_E x (K + N_J)`` by
      ``(K + N_J) x T``.
    * ``AN_TAIL`` — noise-part channel times the post-training unit block
      of ``T - K`` symbols.
    * ``AN_POST`` — noise-part channel times a unit block of ``t_prime``
      symbols.
    * ``AN_EXCESS`` — the last ``N_E - K`` rows of the noise-part channel
      times a unit block of ``t_prime`` symbols.
    * ``DATA`` — the effective data channel alone (``N_E x K``, variance
      ``alpha2``).

    A member's value is its stream tag, part of `montecarlo`'s determinism
    contract: never renumber.  Tag 6 is retired (the unit noise block).
    """

    JOINT = 1
    AN_TAIL = 2
    AN_EXCESS = 3
    AN_POST = 4
    DATA = 5


# Each kind's `montecarlo._product` arguments ``(rows, k, alpha2, nj, beta2, dof)``.
_SV_ARGS = {
    SvKind.JOINT: lambda c: (c.N_E, c.K, c.alpha2, c.N_J, c.beta2, c.T),
    SvKind.AN_TAIL: lambda c: (c.N_E, 0, 0.0, c.N_J, c.beta2, c.T - c.K),
    SvKind.AN_EXCESS: lambda c: (c.N_E - c.K, 0, 0.0, c.N_J, c.beta2, c.t_prime),
    SvKind.AN_POST: lambda c: (c.N_E, 0, 0.0, c.N_J, c.beta2, c.t_prime),
    SvKind.DATA: lambda c: (c.N_E, c.K, c.alpha2, 0, 0.0, None),
}


def _sv_args(kind: SvKind, cfg: SystemConfig) -> tuple:
    if not isinstance(kind, SvKind):
        raise ValueError(f"kind must be an SvKind, got {kind!r}")
    return _SV_ARGS[kind](cfg)


def _sv_rank(kind: SvKind, args: tuple) -> int:
    """Generic rank ``min(rows, cols)`` of a kind's product; raises
    `ValueError` when it has columns but no rows or too short a unit block."""
    rows, k, _, nj, _, dof = args
    cols = k + nj
    if cols == 0:
        return 0
    if rows < 1 or (dof is not None and dof < cols):
        raise ValueError(
            f"{kind.name} needs rows >= 1 and a unit block of >= {cols} symbols, "
            f"got {rows} rows and {dof} symbols"
        )
    return min(rows, cols)


def _gbar_args(cfg: SystemConfig) -> tuple:
    """Product arguments of the ``N_E x (K + N_J)`` effective channel alone."""
    return cfg.N_E, cfg.K, cfg.alpha2, cfg.N_J, cfg.beta2, None


def _log_sv_law(
    rows: int, k: int, alpha2: float, nj: int, beta2: float, dof: int | None
) -> float:
    """``E sum ln lambda^2`` of a `montecarlo._product` draw in nats.

    The draw is ``Z D A`` with ``Z`` a ``rows x m`` CN(0, 1) block,
    ``m = k + nj``, ``D`` the diagonal of column scales and ``A A^H`` a
    complex Wishart ``W_m(dof)``.  For ``rows >= m`` the determinant splits
    into ``det D^2 det(Z^H Z) det(A A^H)``; for ``rows < m`` the LQ split
    of ``Z D`` leaves a ``W_rows(dof)`` determinant (Goodman 1963) times
    ``det(alpha2 W1 + beta2 W2)``, ``W1``/``W2`` the Gram matrices of the
    two column groups.  With one power ``d^2`` that is ``d^(2 rows)`` times
    a ``W_rows(m)``; with two it is ``det S det(beta2 + (alpha2 - beta2) B)``
    for ``S = W1 + W2 ~ W_rows(m)`` and ``B = S^-1/2 W1 S^-1/2`` an
    independent matrix-variate beta (Olkin & Rubin 1964).  ``B`` has
    ``(rows - nj)^+`` eigenvalues 1, ``(rows - k)^+`` eigenvalues 0 and the
    other ``q`` a Jacobi ensemble, integrated over `jacobi_nodes` from the
    end nearer the branch point of ``ln det``.
    """
    m = k + nj

    def logdet(p: int, t: int | None) -> float:
        return 0.0 if t is None else expected_logdet_wishart(p, t)

    if m == 0:
        return 0.0
    if rows >= m:
        scale = sum(n * math.log(d2) for n, d2 in ((k, alpha2), (nj, beta2)) if n)
        return scale + logdet(m, rows) + logdet(m, dof)
    if k == 0 or nj == 0 or alpha2 == beta2:
        d2 = alpha2 if k else beta2
        return rows * math.log(d2) + logdet(rows, m) + logdet(rows, dof)
    q = min(rows, k) + min(rows, nj) - rows
    ends = (rows - nj) * math.log(alpha2) if rows > nj else 0.0
    ends += (rows - k) * math.log(beta2) if rows > k else 0.0
    # ln(lo + (hi - lo) y) with y the eigenvalue weight on the larger power,
    # whose branch point -lo / (hi - lo) lies below y = 0, where the nodes
    # are graded.  Each power is paired with its weight's exponent at 0.
    (lo, b_lo), (hi, b_hi) = sorted(((alpha2, abs(rows - k)), (beta2, abs(rows - nj))))
    y, w = jacobi_nodes(q, b_lo, b_hi)
    return ends + float(w @ np.log(lo + (hi - lo) * y)) + logdet(rows, m) + logdet(rows, dof)


def _laguerre_log1p(rows: int, cols: int, p: float, s2: float) -> float:
    """``E sum ln(1 + p lambda / s2)`` in nats over the squared singular
    values ``lambda`` of a ``rows x cols`` CN(0, 1) block, by its Laguerre
    law (`laguerre_nodes`); 0 when the block has no columns."""
    if cols == 0:
        return 0.0
    x, w = laguerre_nodes(min(rows, cols), max(rows, cols))
    return float(w @ np.log1p(p * x / s2))


def _check_universal(cfg: SystemConfig) -> None:
    """The universal constant's rule, on the law and the sampled route: ``t' >= 1``."""
    if cfg.t_prime < 1:
        raise ValueError(f"universal constant needs t_prime >= 1, got {cfg.t_prime}")


def _universal_law(cfg: SystemConfig) -> float:
    """The universal constant in bits, by quadrature.

    ``G1`` and the noise block are independent, so the mean of the
    per-trial double sum of `montecarlo._universal_values` is a 2-D
    integral over the product of their one-point densities
    (`laguerre_nodes`), taken ``_LAW_ROWS`` noise nodes at a time.
    """
    _check_universal(cfg)
    rows, k, s2 = cfg.N_E, cfg.K, cfg.sigma_z2
    x, wx = laguerre_nodes(min(rows, k), max(rows, k))
    g = cfg.alpha2 * x
    nj, tp = cfg.N_J, cfg.t_prime
    total = max(0.0, 1.0 - nj / tp) * float(wx @ np.log(g + s2))
    if nj:
        y, wy = laguerre_nodes(min(nj, tp), max(nj, tp))
        denom = cfg.beta2 * y + s2
        for start in range(0, y.size, _LAW_ROWS):
            part = slice(start, start + _LAW_ROWS)
            total += float(wy[part] @ (np.log1p(g / denom[part, None]) @ wx)) / tp
    return total / _LN2


class ExactFirst:
    """The estimator of ``sweep`` and ``bounds``: every value from its law.

    It has `montecarlo.MonteCarlo`'s four estimator methods and no run.
    ``log_sv_sum`` and ``ergodic_constant`` come from `_log_sv_law`,
    ``universal_constant`` from `_universal_law` and ``ergodic_leakage``
    from the Laguerre law at one power and `twopower.two_power_log1p` at
    two, each as ``McEstimate(mean, 0.0, 0)``.  It draws nothing.
    """

    def log_sv_sum(self, kind: SvKind, cfg: SystemConfig) -> McEstimate:
        args = _sv_args(kind, cfg)
        _sv_rank(kind, args)
        return McEstimate(_log_sv_law(*args), 0.0, 0)

    def ergodic_constant(self, cfg: SystemConfig) -> McEstimate:
        full = _log_sv_law(*_gbar_args(cfg))
        an = _log_sv_law(cfg.N_E, 0, 0.0, cfg.N_J, cfg.beta2, None)
        return McEstimate((full - an) / _LN2, 0.0, 0)

    def universal_constant(self, cfg: SystemConfig) -> McEstimate:
        return McEstimate(_universal_law(cfg), 0.0, 0)

    def ergodic_leakage(self, cfg: SystemConfig) -> McEstimate:
        """The ergodic leakage, ``E full - E an``, drawing nothing.

        ``an = sum ln(1 + lambda(G2 G2^H) / s2)`` is a Laguerre one-point
        integral (Telatar 1999) over the ``N_E x N_J`` noise block,
        `_laguerre_log1p`.  So is ``full``, over ``Gbar Gbar^H``, with one
        power (``alpha2 = beta2``, or ``N_J = 0``; ``K >= 1``, so it is
        ``alpha2``); with two it is the polynomial-ensemble law of
        `twopower.two_power_log1p`, imported here, since only two powers
        need it.  Either way the standard error is 0.
        """
        s2 = cfg.sigma_z2
        if cfg.N_J and cfg.alpha2 != cfg.beta2:
            from .twopower import two_power_log1p

            full = two_power_log1p(cfg.N_E, cfg.K, cfg.alpha2, cfg.N_J, cfg.beta2, s2)
        else:
            full = _laguerre_log1p(cfg.N_E, cfg.K + cfg.N_J, cfg.alpha2, s2)
        an = _laguerre_log1p(cfg.N_E, cfg.N_J, cfg.beta2, s2)
        return McEstimate((full - an) / _LN2, 0.0, 0)
