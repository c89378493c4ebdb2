"""Exact eigenvalue laws behind the finite-SNR and two-power constants.

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

Neither fixes a unit: callers integrate their own functionals, in nats.
`laguerre_rows` gives the orthonormal functions themselves on the Laguerre
rule, for two-point statistics: matrices ``int f p_j p_k w`` of the
determinantal kernel.

A third law lives in its own module, `anleak.twopower`: the eigenvalues of
``Gbar^H Gbar`` at two column powers, a polynomial ensemble whose weights
cancel too far for double precision.  It is evaluated in stdlib `decimal`,
with the Laguerre law above as its largest part on tall blocks, and near
equal powers by a second-order expansion whose coefficient is such a
two-point statistic; only the two-power ergodic leakage imports it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["laguerre_nodes", "laguerre_rows", "jacobi_nodes"]

_SEGMENTS = 16  # Gauss-Legendre segments in v = sqrt(x) per 64 rows
_NODES = 64  # nodes per segment
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
    """The 64-point Gauss-Legendre rule on [-1, 1], built once per process."""
    return np.polynomial.legendre.leggauss(_NODES)


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
