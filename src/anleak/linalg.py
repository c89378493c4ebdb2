"""Complex matrix primitives with validation suited to channel math.

Thin, contract-enforcing wrappers around LAPACK (via numpy): complex
Gaussian draws, squared singular values through the smaller-side Gram
matrix and the scaled zero-forcing pseudo-inverse, which validates shape,
finiteness and rank up front so the channel layer above can assume clean
inputs; the artificial-noise null-space basis is built from a user channel
that has passed those checks.

Rank tolerance: a matrix counts as rank deficient when its smallest
singular value is at most ``1e-10`` times its largest.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateChannelError

__all__ = [
    "CMatrix",
    "sample_gaussian",
    "squared_singular_values",
    "gram_spectrum",
    "scaled_pseudo_inverse",
]

#: Complex matrix alias (2-D complex128 ndarray).
CMatrix = NDArray[np.complex128]

_RANK_RTOL = 1e-10


def _as_matrix(a, name: str = "matrix") -> CMatrix:
    """Validate and convert to a finite 2-D complex128 array."""
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.number):
        raise ValueError(f"{name} must be numeric, got dtype {arr.dtype}")
    arr = arr.astype(np.complex128, copy=False)
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


def sample_gaussian(
    rows: int, cols: int, variance: float, rng: np.random.Generator
) -> CMatrix:
    """Draw an i.i.d. circularly-symmetric complex Gaussian matrix.

    Entries are ``CN(0, variance)``: real and imaginary parts independent
    ``N(0, variance / 2)``.

    Parameters
    ----------
    rows, cols : int
        Matrix shape; either may be zero.
    variance : float
        Per-entry complex variance, ``>= 0``.  Zero gives an all-zero matrix.
    rng : numpy.random.Generator
        Source of randomness.  Real parts are drawn before imaginary parts.
    """
    if rows < 0 or cols < 0:
        raise ValueError(f"shape must be nonnegative, got ({rows}, {cols})")
    if not (math.isfinite(variance) and variance >= 0.0):
        raise ValueError(f"variance must be finite and >= 0, got {variance!r}")
    if variance == 0.0:
        return np.zeros((rows, cols), dtype=np.complex128)
    return _sample_gaussians(rows, cols, variance, [rng])[0]


def _sample_gaussians(rows: int, cols: int, variance: float, rngs) -> NDArray[np.complex128]:
    """`sample_gaussian` from each generator, stacked, for a ``variance``
    that has passed its checks and is not 0: each generator fills its own
    rows of one float buffer, and the batch is assembled at once."""
    z = np.empty((len(rngs), 2, rows, cols))
    for part, rng in zip(z, rngs):
        rng.standard_normal(out=part)
    out = np.empty((len(rngs), rows, cols), dtype=np.complex128)
    scale = math.sqrt(variance / 2.0)
    np.multiply(z[:, 0], scale, out=out.real)
    np.multiply(z[:, 1], scale, out=out.imag)
    return out


def squared_singular_values(a) -> NDArray[np.float64]:
    """Squared singular values, descending; accepts stacked input.

    For input of shape ``(..., r, c)`` returns shape ``(..., min(r, c))``.
    Negative Gram eigenvalues caused by roundoff are clipped to zero.
    """
    arr = np.asarray(a)
    if arr.ndim < 2:
        raise ValueError(f"need at least 2 dimensions, got shape {arr.shape}")
    arr = arr.astype(np.complex128, copy=False)
    r, c = arr.shape[-2], arr.shape[-1]
    if min(r, c) == 0:
        return np.zeros(arr.shape[:-2] + (0,))
    swap = arr.conj().swapaxes(-1, -2)
    return gram_spectrum(arr @ swap if r <= c else swap @ arr)


def gram_spectrum(gram) -> NDArray[np.float64]:
    """Eigenvalues of (stacked) Hermitian Gram matrices, descending, with
    negative ones caused by roundoff clipped to zero."""
    w = np.linalg.eigvalsh(gram)
    return np.flip(np.clip(w, 0.0, None), axis=-1)


def _null_basis(h: CMatrix, n: int) -> CMatrix:
    """Orthonormal basis ``V`` of ``n <= m - k`` directions in the null space
    of a ``k x m`` ``h`` that has passed `scaled_pseudo_inverse`'s checks:
    ``h @ V = 0`` and ``V^H V = I``.  It is the trailing block of a complete
    QR factorization of ``h^H``, so a deterministic function of ``h``."""
    k = h.shape[0]
    q, _ = np.linalg.qr(h.conj().T, mode="complete")
    return np.ascontiguousarray(q[:, k : k + n])


def scaled_pseudo_inverse(h) -> CMatrix:
    """Zero-forcing pseudo-inverse scaled so that ``h @ result = sqrt(m) I``.

    For ``h`` of shape ``k x m`` with full row rank, returns
    ``sqrt(m) * h^H (h h^H)^{-1}`` of shape ``m x k``.

    Raises
    ------
    DegenerateChannelError
        If ``h`` is rank deficient at relative tolerance 1e-10.
    """
    h = _as_matrix(h, "h")
    k, m = h.shape
    if k < 1 or m < k:
        raise ValueError(f"need 1 <= rows <= cols, got shape {h.shape}")
    _require_full_row_rank(h)
    gram = h @ h.conj().T
    return math.sqrt(m) * np.linalg.solve(gram, h).conj().T


def _require_full_row_rank(h: CMatrix) -> None:
    # The Gram route of squared_singular_values() cannot resolve singular
    # value ratios below ~sqrt(eps), so the 1e-10 gate needs a genuine SVD;
    # the guard only ever sees small k x m matrices, where that costs nothing.
    s = np.linalg.svd(h, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= _RANK_RTOL * s[0]:
        raise DegenerateChannelError(
            f"matrix of shape {h.shape} is rank deficient "
            f"(smallest/largest singular value = {s[-1]:.3e}/{s[0]:.3e})"
        )
