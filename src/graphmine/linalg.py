"""Dense symmetric eigenvalues and randomized truncated SVD.

These two kernels are the only decomposition primitives the embedding and
fingerprint models use.  Both rest on LAPACK's symmetric eigensolver
(``numpy.linalg.eigh``): dense inputs are validated up front, and a LAPACK
failure surfaces as :class:`~graphmine.errors.NoConvergence`.  The SVD
draws its sketch from a :class:`~graphmine.graph_core.RandomSource`.
Results are byte-identical across reruns on the same BLAS build and thread
count; across thread counts they may differ in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import MatrixTooLarge, NoConvergence, NotSymmetric, RankTooLarge
from .graph_core import RandomSource, _sparse

if TYPE_CHECKING:
    from scipy import sparse as _sp

__all__ = [
    "SvdResult",
    "eigvals_symmetric",
    "randomized_svd",
    "DENSE_SIZE_CAP",
]

DENSE_SIZE_CAP = 1024

_SYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class SvdResult:
    """Truncated factorization A ~ U diag(s) V^T with s descending."""

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray


def _check_square_symmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > DENSE_SIZE_CAP:
        raise MatrixTooLarge(f"dense eigensolver is capped at {DENSE_SIZE_CAP}, got {n}")
    if not np.isfinite(a).all():
        raise NotSymmetric("non-finite entry")
    if n > 0:
        dev = float(np.max(np.abs(a - a.T)))
        if dev > _SYMMETRY_TOL:
            raise NotSymmetric(f"asymmetry {dev:.3e} exceeds {_SYMMETRY_TOL:.0e}")
    return a


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigensolver failed: {exc}") from exc


def eigvals_symmetric(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a dense symmetric matrix, ascending.

    Taken from the full decomposition rather than ``eigvalsh``, whose last
    bits differ; downstream standardization amplifies that difference.
    """
    return _eigh(_check_square_symmetric(a))[0]


def randomized_svd(a: _sp.spmatrix, k: int, rng: RandomSource) -> SvdResult:
    """Truncated SVD of a scipy sparse matrix via a Gaussian sketch.

    Oversampling 10 and 4 power iterations (with QR re-orthonormalization
    each step) are fixed.  The small projected Gram matrix is diagonalized by
    LAPACK's symmetric eigensolver, so the result is deterministic given
    ``rng`` (and the BLAS thread count).  Signs are canonicalized so the
    largest-magnitude entry of each left vector is positive.  The products
    run on a float64 CSR copy with sorted column indices; ``a`` itself is
    never modified.
    """
    rows, cols = a.shape
    if k < 1 or k > min(rows, cols):
        raise RankTooLarge(f"rank {k} not in 1..{min(rows, cols)}")
    m = _sparse().csr_matrix(a, dtype=np.float64, copy=True)
    m.sort_indices()
    sketch = min(k + 10, min(rows, cols))
    gen = rng.generator()
    omega = gen.standard_normal((cols, sketch))
    y = m @ omega
    q, _ = np.linalg.qr(y)
    for _ in range(4):
        w, _ = np.linalg.qr(m.T @ q)
        q, _ = np.linalg.qr(m @ w)
    b = q.T @ m  # sketch x cols, dense
    lam, ub = _eigh(b @ b.T)
    order = np.argsort(lam, kind="stable")[::-1][:k]
    lam = np.maximum(lam[order], 0.0)
    sigma = np.sqrt(lam)
    ub = ub[:, order]
    u = q @ ub
    v = b.T @ ub
    # columns of v carry a sigma factor; divide it out where sigma > 0
    good = sigma > (sigma[0] * 1e-13 if sigma.size and sigma[0] > 0 else 0.0)
    v[:, good] /= sigma[good]
    v[:, ~good] = 0.0
    # sign canonicalization: largest-|entry| of each u column made positive
    flip = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])])
    flip[flip == 0.0] = 1.0
    u *= flip
    v *= flip
    return SvdResult(U=u, singular_values=sigma, V=v)
