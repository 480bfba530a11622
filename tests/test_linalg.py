import numpy as np
import pytest

from graphmine import (
    DENSE_SIZE_CAP,
    MatrixTooLarge,
    NoConvergence,
    NotSymmetric,
    RandomSource,
    RankTooLarge,
    eig_symmetric,
    eigvals_symmetric,
    randomized_svd,
)


def _random_symmetric(n, seed):
    gen = RandomSource(seed, 0).generator()
    a = gen.standard_normal((n, n))
    return 0.5 * (a + a.T)


def _sparse_from_dense(a):
    from scipy import sparse

    return sparse.csr_matrix(a)


# --- symmetric eigendecomposition ---

def test_eigenvalues_match_lapack_reference():
    for n in [1, 2, 3, 5, 8, 13, 21, 34, 64]:
        a = _random_symmetric(n, n)
        got = eig_symmetric(a)
        expected = np.linalg.eigvalsh(a)
        scale = max(1.0, float(np.linalg.norm(a)))
        assert np.max(np.abs(got.eigenvalues - expected)) < 1e-10 * scale


def test_eigenvectors_diagonalize_the_input():
    for seed in range(5):
        a = _random_symmetric(12, 100 + seed)
        dec = eig_symmetric(a)
        v = dec.eigenvectors
        assert np.allclose(v.T @ v, np.eye(12), atol=1e-12)
        assert np.allclose(a @ v, v * dec.eigenvalues, atol=1e-10)


def test_eigenvalues_are_ascending():
    dec = eig_symmetric(_random_symmetric(10, 7))
    assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_eigvals_only_agrees_with_full_decomposition():
    a = _random_symmetric(9, 3)
    assert np.array_equal(eigvals_symmetric(a), eig_symmetric(a).eigenvalues)


def test_diagonal_matrix_is_immediate():
    a = np.diag([3.0, -1.0, 2.0, 0.0])
    assert np.array_equal(eigvals_symmetric(a), np.array([-1.0, 0.0, 2.0, 3.0]))


def test_one_by_one_matrix():
    assert np.array_equal(eigvals_symmetric(np.array([[5.0]])), [5.0])


def test_trace_is_preserved():
    for seed in range(10):
        a = _random_symmetric(10, 50 + seed)
        vals = eigvals_symmetric(a)
        assert abs(vals.sum() - np.trace(a)) < 1e-12


def test_rejects_asymmetric_and_non_square():
    with pytest.raises(NotSymmetric):
        eig_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(NotSymmetric):
        eig_symmetric(np.zeros((3, 4)))


def test_rejects_non_finite_entries():
    nan = np.full((3, 3), np.nan)
    inf_diagonal = np.diag([1.0, 1.0, 1.0, np.inf])
    for a in (nan, inf_diagonal):
        with pytest.raises(NotSymmetric, match="non-finite"):
            eig_symmetric(a)
        with pytest.raises(NotSymmetric, match="non-finite"):
            eigvals_symmetric(a)


def test_lapack_failure_surfaces_as_no_convergence(monkeypatch):
    def failing_eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(NoConvergence):
        eigvals_symmetric(np.eye(3))
    with pytest.raises(NoConvergence):
        randomized_svd(_sparse_from_dense(np.eye(4)), 2, RandomSource(0, 0))


def test_rejects_oversized_matrix():
    n = DENSE_SIZE_CAP + 1
    with pytest.raises(MatrixTooLarge):
        eigvals_symmetric(np.zeros((n, n)))


def test_extreme_scales_converge():
    """Large inputs keep relative accuracy; tiny inputs stay within an
    absolute 1e-12 of the reference."""
    big = _random_symmetric(8, 11) * 1e12
    got = eigvals_symmetric(big)
    ref = np.linalg.eigvalsh(big)
    assert np.max(np.abs(got - ref)) < 1e-10 * np.linalg.norm(big)
    tiny = _random_symmetric(6, 11) * 1e-20
    assert np.max(np.abs(eigvals_symmetric(tiny) - np.linalg.eigvalsh(tiny))) < 1e-12


# --- randomized truncated SVD ---

def test_svd_rank_one_is_exact():
    gen = RandomSource(5, 0).generator()
    u = gen.standard_normal(30)
    v = gen.standard_normal(20)
    a = _sparse_from_dense(np.outer(u, v))
    res = randomized_svd(a, 3, RandomSource(1, 0))
    top = np.linalg.norm(u) * np.linalg.norm(v)
    assert abs(res.singular_values[0] - top) < 1e-9 * top
    assert np.all(res.singular_values[1:] < 1e-9 * top)


def test_svd_matches_reference_when_sketch_covers_the_space():
    # min(dims) <= k + 10 makes the sketch span the full column space
    for seed in range(5):
        gen = RandomSource(seed, 0).generator()
        dense = gen.standard_normal((25, 9))
        res = randomized_svd(_sparse_from_dense(dense), 6, RandomSource(9, 0))
        expected = np.linalg.svd(dense, compute_uv=False)[:6]
        assert np.max(np.abs(res.singular_values - expected)) < 1e-8


def test_svd_recovers_exact_low_rank():
    gen = RandomSource(3, 0).generator()
    q1, _ = np.linalg.qr(gen.standard_normal((40, 3)))
    q2, _ = np.linalg.qr(gen.standard_normal((25, 3)))
    dense = q1 @ np.diag([5.0, 3.0, 1.0]) @ q2.T
    res = randomized_svd(_sparse_from_dense(dense), 3, RandomSource(2, 0))
    assert np.allclose(res.singular_values, [5.0, 3.0, 1.0], atol=1e-9)
    rebuilt = res.U @ np.diag(res.singular_values) @ res.V.T
    assert np.max(np.abs(rebuilt - dense)) < 1e-9


def test_svd_factors_are_orthonormal():
    gen = RandomSource(8, 0).generator()
    dense = gen.standard_normal((30, 12))
    res = randomized_svd(_sparse_from_dense(dense), 5, RandomSource(4, 0))
    assert np.allclose(res.U.T @ res.U, np.eye(5), atol=1e-10)
    assert np.allclose(res.V.T @ res.V, np.eye(5), atol=1e-10)


def test_svd_identity_singular_values():
    res = randomized_svd(_sparse_from_dense(np.eye(8)), 8, RandomSource(0, 0))
    assert np.allclose(res.singular_values, 1.0, atol=1e-10)


def test_svd_is_deterministic_and_seed_sensitive():
    gen = RandomSource(6, 0).generator()
    dense = gen.standard_normal((20, 20))
    a = _sparse_from_dense(dense)
    r1 = randomized_svd(a, 4, RandomSource(3, 1))
    r2 = randomized_svd(a, 4, RandomSource(3, 1))
    assert np.array_equal(r1.U, r2.U)
    assert np.array_equal(r1.singular_values, r2.singular_values)
    assert np.array_equal(r1.V, r2.V)
    r3 = randomized_svd(a, 4, RandomSource(4, 1))
    assert np.allclose(r1.singular_values, r3.singular_values, atol=1e-8)


def test_svd_sign_convention():
    gen = RandomSource(12, 0).generator()
    dense = gen.standard_normal((15, 10))
    res = randomized_svd(_sparse_from_dense(dense), 4, RandomSource(1, 0))
    peak = np.argmax(np.abs(res.U), axis=0)
    assert np.all(res.U[peak, np.arange(4)] > 0)


def test_svd_leaves_the_callers_matrix_unmodified():
    from scipy import sparse

    gen = RandomSource(8, 0).generator()
    dense = gen.standard_normal((12, 15)) * (gen.random((12, 15)) < 0.4)
    ordered = sparse.csr_matrix(dense)
    # same matrix with every row's entries stored in reverse column order
    rows = [slice(ordered.indptr[i], ordered.indptr[i + 1]) for i in range(12)]
    shuffled = sparse.csr_matrix(
        (np.concatenate([ordered.data[r][::-1] for r in rows]),
         np.concatenate([ordered.indices[r][::-1] for r in rows]),
         ordered.indptr.copy()),
        shape=(12, 15),
    )
    indices, data = shuffled.indices.copy(), shuffled.data.copy()
    got = randomized_svd(shuffled, 4, RandomSource(2, 0))
    assert np.array_equal(shuffled.indices, indices)
    assert np.array_equal(shuffled.data, data)
    want = randomized_svd(ordered, 4, RandomSource(2, 0))
    assert np.array_equal(got.U, want.U)
    assert np.array_equal(got.singular_values, want.singular_values)


def test_svd_rejects_bad_rank():
    a = _sparse_from_dense(np.eye(5))
    with pytest.raises(RankTooLarge):
        randomized_svd(a, 0, RandomSource(0, 0))
    with pytest.raises(RankTooLarge):
        randomized_svd(a, 6, RandomSource(0, 0))
