"""Frozen copy of ``randomized_svd`` as it was before its QR and products
were rewritten: the reference the byte-identity tests compare against.

This copy never changes with the package.  ``graphmine.randomized_svd``
must return the same U, singular values and V, bit for bit, for every
input.
"""

import numpy as np

from graphmine import RankTooLarge
from graphmine.linalg import SvdResult, _eigh


def randomized_svd_by_numpy_qr(a, k, rng):
    """``randomized_svd``: ``np.linalg.qr`` and whole-operand products."""
    from scipy import sparse

    rows, cols = a.shape
    if k < 1 or k > min(rows, cols):
        raise RankTooLarge(f"rank {k} not in 1..{min(rows, cols)}")
    m = sparse.csr_matrix(a, dtype=np.float64, copy=True)
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
    good = sigma > sigma[0] * 1e-13
    v[:, good] /= sigma[good]
    v[:, ~good] = 0.0
    # sign canonicalization: largest-|entry| of each u column made positive
    flip = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])])
    flip[flip == 0.0] = 1.0
    u *= flip
    v *= flip
    return SvdResult(U=u, singular_values=sigma, V=v)
