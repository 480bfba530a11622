"""Dense symmetric eigenvalues and randomized truncated SVD.

These two kernels are the only decomposition primitives the embedding and
fingerprint models use.  Both rest on LAPACK's symmetric eigensolver
(``numpy.linalg.eigh``): dense inputs are validated up front, and a LAPACK
failure surfaces as :class:`~graphmine.errors.NoConvergence`.  The SVD
draws its sketch from a :class:`~graphmine.graph_core.RandomSource`; its
QR steps call LAPACK ``dgeqrf``/``dorgqr`` through numpy's ``lapack_lite``
(the routines ``np.linalg.qr`` runs, so Q has its bytes), and its sparse x
dense products run over column blocks sized for the L2 cache, each output
entry summing the same terms in the same order.  Results are byte-identical
across reruns on the same BLAS build and thread count; across thread
counts they may differ in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.linalg import lapack_lite

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

# Bytes of one column block of a sparse product's dense operand: 1.5 MB, so
# the block stays in a 2 MB L2 cache while the sparse rows stream past it.
_BLOCK_BYTES = 3 << 19


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


def _lapack(routine: str, *args) -> None:
    """Run a ``lapack_lite`` routine; a nonzero ``info`` is NoConvergence."""
    info = getattr(lapack_lite, routine)(*args, 0)["info"]
    if info != 0:
        raise NoConvergence(f"LAPACK {routine} failed: info {info}")


def _qr_q(y: np.ndarray) -> np.ndarray:
    """Q of the reduced QR of ``y``, as ``np.linalg.qr(y)[0]``, bit for bit.

    One column-major copy of ``y`` goes through ``dgeqrf`` then ``dorgqr``,
    each with the workspace size LAPACK asks for, as numpy sizes it; R is
    never formed.  Q is returned C-contiguous.
    """
    m, n = y.shape
    k = min(m, n)
    a = np.array(y.T, dtype=np.float64, order="C")  # y, column-major
    q = a[:k]  # dorgqr overwrites the first k columns with Q
    tau = np.empty(k)
    for routine, shape, out in (("dgeqrf", (m, n), a), ("dorgqr", (m, k, k), q)):
        work = np.empty(1)
        _lapack(routine, *shape, out, max(1, m), tau, work, -1)  # workspace query
        work = np.empty(max(1, shape[1], int(work[0])))
        _lapack(routine, *shape, out, max(1, m), tau, work, work.size)
    return np.ascontiguousarray(q.T)


def _product(m: _sp.spmatrix, x: np.ndarray) -> np.ndarray:
    """``m @ x`` over column blocks of ``x`` of at most ``_BLOCK_BYTES``."""
    width = max(1, _BLOCK_BYTES // (8 * x.shape[0]))
    if x.shape[1] <= width:
        return m @ x
    out = np.empty((m.shape[0], x.shape[1]))
    for j in range(0, x.shape[1], width):
        out[:, j: j + width] = m @ x[:, j: j + width]
    return out


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
    q = _qr_q(_product(m, omega))
    for _ in range(4):
        w = _qr_q(_product(m.T, q))
        q = _qr_q(_product(m, w))
    b = _product(m.T, q).T  # sketch x cols, dense: q.T @ m as scipy computes it
    lam, ub = _eigh(b @ b.T)
    order = np.argsort(lam, kind="stable")[::-1][:k]
    lam = np.maximum(lam[order], 0.0)
    sigma = np.sqrt(lam)
    ub = ub[:, order]
    u = q @ ub
    v = b.T @ ub
    # columns of v carry a sigma factor; divide it out where sigma > 0
    good = sigma > sigma[0] * 1e-13
    v[:, good] /= sigma[good]
    v[:, ~good] = 0.0
    # sign canonicalization: largest-|entry| of each u column made positive
    flip = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])])
    flip[flip == 0.0] = 1.0
    u *= flip
    v *= flip
    return SvdResult(U=u, singular_values=sigma, V=v)
