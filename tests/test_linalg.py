import re

import numpy as np
import pytest

from graphmine import (
    DENSE_SIZE_CAP,
    InputContractError,
    MatrixTooLarge,
    NetMfModel,
    NoConvergence,
    NotSymmetric,
    RandomSource,
    RankTooLarge,
    eigvals_symmetric,
    erdos_renyi_gnm,
    linalg,
    node_embedding,
    randomized_svd,
)
from frozen_linalg import randomized_svd_by_numpy_qr


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
        got = eigvals_symmetric(a)
        expected = np.linalg.eigvalsh(a)
        scale = max(1.0, float(np.linalg.norm(a)))
        assert np.max(np.abs(got - expected)) < 1e-10 * scale


def test_eigenvalues_are_ascending():
    assert np.all(np.diff(eigvals_symmetric(_random_symmetric(10, 7))) >= 0)


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
        eigvals_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(NotSymmetric):
        eigvals_symmetric(np.zeros((3, 4)))


def test_rejects_non_finite_entries():
    nan = np.full((3, 3), np.nan)
    inf_diagonal = np.diag([1.0, 1.0, 1.0, np.inf])
    for a in (nan, inf_diagonal):
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
    _, s = randomized_svd(a, 3, RandomSource(1, 0))
    top = np.linalg.norm(u) * np.linalg.norm(v)
    assert abs(s[0] - top) < 1e-9 * top
    assert np.all(s[1:] < 1e-9 * top)


def test_svd_matches_reference_when_sketch_covers_the_space():
    # min(dims) <= k + 10 makes the sketch span the full column space
    for seed in range(5):
        gen = RandomSource(seed, 0).generator()
        dense = gen.standard_normal((25, 9))
        _, s = randomized_svd(_sparse_from_dense(dense), 6, RandomSource(9, 0))
        expected = np.linalg.svd(dense, compute_uv=False)[:6]
        assert np.max(np.abs(s - expected)) < 1e-8


def test_svd_recovers_exact_low_rank():
    gen = RandomSource(3, 0).generator()
    q1, _ = np.linalg.qr(gen.standard_normal((40, 3)))
    q2, _ = np.linalg.qr(gen.standard_normal((25, 3)))
    dense = q1 @ np.diag([5.0, 3.0, 1.0]) @ q2.T
    u, s = randomized_svd(_sparse_from_dense(dense), 3, RandomSource(2, 0))
    assert np.allclose(s, [5.0, 3.0, 1.0], atol=1e-9)
    rebuilt = u @ (u.T @ dense)
    assert np.max(np.abs(rebuilt - dense)) < 1e-9


def test_svd_factors_are_orthonormal():
    gen = RandomSource(8, 0).generator()
    dense = gen.standard_normal((30, 12))
    u, _ = randomized_svd(_sparse_from_dense(dense), 5, RandomSource(4, 0))
    assert np.allclose(u.T @ u, np.eye(5), atol=1e-10)


def test_svd_returns_u_and_descending_s_as_a_pair():
    dense = RandomSource(13, 0).generator().standard_normal((18, 11))
    res = randomized_svd(_sparse_from_dense(dense), 4, RandomSource(0, 0))
    assert type(res) is tuple and len(res) == 2
    u, s = res
    assert u.shape == (18, 4) and s.shape == (4,)
    assert np.all(np.diff(s) <= 0)


def test_svd_identity_singular_values():
    _, s = randomized_svd(_sparse_from_dense(np.eye(8)), 8, RandomSource(0, 0))
    assert np.allclose(s, 1.0, atol=1e-10)


def test_svd_is_deterministic_and_seed_sensitive():
    gen = RandomSource(6, 0).generator()
    dense = gen.standard_normal((20, 20))
    a = _sparse_from_dense(dense)
    u1, s1 = randomized_svd(a, 4, RandomSource(3, 1))
    u2, s2 = randomized_svd(a, 4, RandomSource(3, 1))
    assert np.array_equal(u1, u2)
    assert np.array_equal(s1, s2)
    _, s3 = randomized_svd(a, 4, RandomSource(4, 1))
    assert np.allclose(s1, s3, atol=1e-8)


def test_svd_sign_convention():
    gen = RandomSource(12, 0).generator()
    dense = gen.standard_normal((15, 10))
    u, _ = randomized_svd(_sparse_from_dense(dense), 4, RandomSource(1, 0))
    peak = np.argmax(np.abs(u), axis=0)
    assert np.all(u[peak, np.arange(4)] > 0)


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
    got_u, got_s = randomized_svd(shuffled, 4, RandomSource(2, 0))
    assert np.array_equal(shuffled.indices, indices)
    assert np.array_equal(shuffled.data, data)
    want_u, want_s = randomized_svd(ordered, 4, RandomSource(2, 0))
    assert np.array_equal(got_u, want_u)
    assert np.array_equal(got_s, want_s)


def _matrix_the_products_read(a):
    seen = []
    product = linalg._product
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_product", lambda m, x: seen.append(m) or product(m, x))
        randomized_svd(a, 3, RandomSource(0, 0))
    return seen[0]  # the first product is m @ omega


def test_svd_reads_a_sorted_float64_csr_without_a_copy():
    from scipy import sparse

    gen = RandomSource(9, 0).generator()
    a = sparse.csr_matrix(gen.standard_normal((14, 11)) * (gen.random((14, 11)) < 0.4))
    m = _matrix_the_products_read(a)
    for field in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(m, field), getattr(a, field)), field


def test_svd_copies_an_unsorted_an_integer_and_a_coo_input():
    from scipy import sparse

    gen = RandomSource(10, 0).generator()
    dense = gen.integers(-3, 4, size=(14, 11)) * (gen.random((14, 11)) < 0.4)
    ordered = sparse.csr_matrix(dense.astype(np.float64))
    rows = [slice(ordered.indptr[i], ordered.indptr[i + 1]) for i in range(14)]
    inputs = {
        "unsorted": sparse.csr_matrix(
            (np.concatenate([ordered.data[r][::-1] for r in rows]),
             np.concatenate([ordered.indices[r][::-1] for r in rows]),
             ordered.indptr.copy()),
            shape=(14, 11),
        ),
        "int64": sparse.csr_matrix(dense.astype(np.int64)),
        "coo": sparse.coo_matrix(dense.astype(np.float64)),
    }
    want_u, want_s = randomized_svd(ordered, 3, RandomSource(0, 0))
    for name, a in inputs.items():
        fields = ("row", "col", "data") if name == "coo" else ("data", "indices", "indptr")
        before = [getattr(a, f).copy() for f in fields]
        m = _matrix_the_products_read(a)
        assert m.dtype == np.float64 and m.has_sorted_indices, name
        assert not np.shares_memory(m.data, a.data), name
        for f, values in zip(fields, before):
            got = getattr(a, f)
            assert got.dtype == values.dtype and np.array_equal(got, values), (name, f)
        got_u, got_s = randomized_svd(a, 3, RandomSource(0, 0))
        assert np.array_equal(got_u, want_u), name
        assert np.array_equal(got_s, want_s), name


def test_svd_rejects_bad_rank():
    a = _sparse_from_dense(np.eye(5))
    with pytest.raises(RankTooLarge):
        randomized_svd(a, 0, RandomSource(0, 0))
    with pytest.raises(RankTooLarge):
        randomized_svd(a, 6, RandomSource(0, 0))


@pytest.mark.parametrize("k", [2.5, "3", True, None])
def test_svd_rejects_a_rank_that_is_not_an_integer(k):
    a = _sparse_from_dense(np.eye(5))
    with pytest.raises(InputContractError, match=f"^k must be an integer, got {re.escape(repr(k))}$"):
        randomized_svd(a, k, RandomSource(0, 0))
    assert randomized_svd(a, np.int64(2), RandomSource(0, 0))[1].shape == (2,)


# --- LAPACK QR and blocked products, against the frozen numpy-QR copy ---

def _assert_same_svd(a, k, seed):
    got = randomized_svd(a, k, RandomSource(seed, 0))
    want = randomized_svd_by_numpy_qr(a, k, RandomSource(seed, 0))
    for field, g, w in zip(("U", "s"), got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), field


@pytest.mark.parametrize(
    "shape, k",
    [((40, 40), 5), ((60, 25), 7), ((25, 60), 7), ((30, 12), 4), ((12, 30), 12), ((9, 9), 9)],
)
def test_svd_bytes_match_the_numpy_qr_copy(shape, k):
    # (30, 12) at k=4, (12, 30) and (9, 9) cap the sketch at min(rows, cols)
    gen = RandomSource(shape[0] * 7 + k, 0).generator()
    dense = gen.standard_normal(shape) * (gen.random(shape) < 0.3)
    _assert_same_svd(_sparse_from_dense(dense), k, seed=k)


@pytest.mark.parametrize("columns_per_block", [1, 4, 7, 16, 17, 40])
def test_svd_bytes_hold_over_column_blocks(monkeypatch, columns_per_block):
    # the sketch has 17 columns: blocks of 1, 4 and 7 leave a ragged last
    # block, 16 a last block of one column, and 17 and 40 give one block;
    # the blocks are exactly that wide for the operand with `rows` rows
    gen = RandomSource(columns_per_block, 0).generator()
    dense = gen.standard_normal((80, 50)) * (gen.random((80, 50)) < 0.2)
    a = _sparse_from_dense(dense)
    for rows in (80, 50):  # the operands of m.T @ x and of m @ x
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 8 * rows * columns_per_block)
        _assert_same_svd(a, 7, seed=3)


def test_netmf_proximity_svd_bytes_match_the_numpy_qr_copy(monkeypatch):
    g = erdos_renyi_gnm(1024, 6144, RandomSource(11, 0), connected=True)
    seen = []

    def both(m, k, rng):
        seen.append(m.shape)
        _assert_same_svd(m, k, seed=42)
        return randomized_svd(m, k, rng)

    monkeypatch.setattr(node_embedding, "randomized_svd", both)
    NetMfModel(dimensions=128).fit(g)
    assert seen == [(1024, 1024)]


def test_qr_q_is_numpys_q_bit_for_bit():
    gen = RandomSource(21, 0).generator()
    base = gen.standard_normal((64, 64))
    inputs = {
        "C-ordered": np.ascontiguousarray(base[:, :20]),
        "F-ordered": np.asfortranarray(base[:, :20]),
        "strided": base[::2, ::3],
        "n x 1": base[:, :1],
        "n x n": base,
        "past LAPACK's block crossover": gen.standard_normal((300, 140)),
    }
    for name, y in inputs.items():
        q = linalg._qr_q(y)
        want = np.linalg.qr(y)[0]
        assert q.shape == want.shape and q.tobytes() == want.tobytes(), name
        assert q.flags.c_contiguous, name


@pytest.mark.parametrize("routine", ["dgeqrf", "dorgqr"])
def test_nonzero_lapack_info_raises_no_convergence(monkeypatch, routine):
    monkeypatch.setattr(linalg.lapack_lite, routine, lambda *args: {"info": 3})
    with pytest.raises(NoConvergence, match=f"LAPACK {routine} failed: info 3"):
        randomized_svd(_sparse_from_dense(np.eye(6)), 2, RandomSource(0, 0))


def test_nan_entry_still_fails_in_the_eigensolver():
    dense = RandomSource(2, 0).generator().standard_normal((30, 20))
    dense[3, 4] = np.nan
    with pytest.raises(NoConvergence, match="^LAPACK eigensolver failed: Eigenvalues did not converge$"):
        randomized_svd(_sparse_from_dense(dense), 5, RandomSource(0, 0))
