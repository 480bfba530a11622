"""Frozen copy of ``normalized_laplacian`` as it was when it built a scipy
CSR: the reference the byte-identity tests compare against.

This copy never changes with the package.  ``normalized_laplacian`` must
return the dense array this copy gives after ``.toarray()``, bit for bit,
for every graph.
"""

import numpy as np


def normalized_laplacian_by_csr(g):
    """``normalized_laplacian(g)``: the sparse identity plus the CSR of the
    off-diagonal entries, densified; ``g`` has no isolated node."""
    from scipy import sparse

    deg = g.degrees.astype(np.float64)
    n = g.node_count
    inv_sqrt = 1.0 / np.sqrt(deg)
    off_values = -np.repeat(inv_sqrt, g.degrees) * inv_sqrt[g.targets]
    off = sparse.csr_matrix((off_values, g.targets, g.offsets), shape=(n, n))
    return (sparse.eye(n, format="csr") + off).toarray()
