"""Frozen copy of ``NetMfModel``'s fit as it was before its proximity was
built in place: the reference the byte-identity tests compare against.

This copy never changes with the package.  ``NetMfModel`` must return the
same embedding, bit for bit, for every graph and hyperparameter.  The
proximity is formed with copies (``acc @ diags(1/deg)``, then a scaled
copy, then a log-clamped copy of the data) and factored by the frozen
numpy-QR SVD.
"""

import numpy as np

from graphmine import RandomSource, transition_matrix
from frozen_linalg import randomized_svd_by_numpy_qr


def netmf_embedding_by_copies(g, dimensions, order, negatives, seed):
    """``NetMfModel(dimensions, order, negatives, seed).fit(g).get_embedding()``."""
    from scipy import sparse

    p = transition_matrix(g)
    deg = g.degrees.astype(np.float64)
    vol = float(deg.sum())
    d_inv = sparse.diags(1.0 / deg)
    power = acc = p
    for _ in range(2, order + 1):
        power = power @ p
        acc = acc + power
    m = (vol / (negatives * order)) * (acc @ d_inv)
    m.data = np.log(np.maximum(m.data, 1.0))
    m.eliminate_zeros()
    u, s = randomized_svd_by_numpy_qr(m, dimensions, RandomSource(seed, 0))
    return u * np.sqrt(s)
