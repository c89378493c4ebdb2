"""Complex matrix primitives with validation suited to channel math.

Thin, contract-enforcing wrappers around LAPACK (via numpy): complex
Gaussian draws, squared singular values through the smaller-side Gram
matrix, and the scaled zero-forcing precoder with its artificial-noise
null-space basis, which validates shape, finiteness and rank up front so
the channel layer above can assume clean inputs.

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
    "zero_forcing",
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
        Source of randomness.  Entries are drawn row by row, each real
        part just before its imaginary part.
    """
    if rows < 0 or cols < 0:
        raise ValueError(f"shape must be nonnegative, got ({rows}, {cols})")
    if not (math.isfinite(variance) and variance >= 0.0):
        raise ValueError(f"variance must be finite and >= 0, got {variance!r}")
    if variance == 0.0:
        return np.zeros((rows, cols), dtype=np.complex128)
    return _sample_gaussians(rows, cols, variance, rng, 1)[0]


def _sample_gaussians(
    rows: int, cols: int, variance: float, rng: np.random.Generator, n: int
) -> NDArray[np.complex128]:
    """``n`` stacked `sample_gaussian` draws in one generator call, for a
    ``variance`` that has passed its checks and is not 0: the normals of
    shape ``(n, rows, 2 cols)``, scaled and read in place as complex."""
    z = rng.standard_normal((n, rows, 2 * cols)).view(np.complex128)
    z *= math.sqrt(variance / 2.0)
    return z


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
    w = np.linalg.eigvalsh(arr @ swap if r <= c else swap @ arr)
    return np.flip(np.clip(w, 0.0, None), axis=-1)


def zero_forcing(h, n: int) -> tuple[CMatrix, CMatrix]:
    """Scaled zero-forcing precoder and artificial-noise basis of ``h``.

    For ``h`` of shape ``k x m`` with full row rank and ``0 <= n <= m -
    k``, returns ``(precoder, an_basis)``, both from one complete QR
    factorization ``h^H = Q R``, with ``R1`` the top ``k x k`` block of
    ``R``:

    * ``precoder = sqrt(m) h^H (h h^H)^-1 = sqrt(m) Q[:, :k] R1^-H``
      (``m x k``), so ``h @ precoder = sqrt(m) I``;
    * ``an_basis = Q[:, k:k + n]`` (``m x n``), orthonormal directions in
      the null space of ``h``: ``h @ an_basis = 0``.

    Raises
    ------
    DegenerateChannelError
        If ``h`` is rank deficient at relative tolerance 1e-10.
    """
    h = _as_matrix(h, "h")
    k, m = h.shape
    if k < 1 or m < k:
        raise ValueError(f"need 1 <= rows <= cols, got shape {h.shape}")
    if not 0 <= n <= m - k:
        raise ValueError(f"need 0 <= n <= {m - k} null directions, got {n}")
    q, r = np.linalg.qr(h.conj().T, mode="complete")
    r1 = r[:k]
    # R1 has the singular values of h.  The Gram route of
    # squared_singular_values() cannot resolve ratios below ~sqrt(eps), so
    # the 1e-10 gate takes a genuine SVD, of this small k x k block.
    s = np.linalg.svd(r1, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= _RANK_RTOL * s[0]:
        raise DegenerateChannelError(
            f"matrix of shape {h.shape} is rank deficient "
            f"(smallest/largest singular value = {s[-1]:.3e}/{s[0]:.3e})"
        )
    precoder = np.linalg.solve(r1, q[:, :k].conj().T).conj().T  # Q1 R1^-H
    return math.sqrt(m) * precoder, np.ascontiguousarray(q[:, k : k + n])
