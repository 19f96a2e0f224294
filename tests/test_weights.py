import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import wextrap.weights as weights
from wextrap import (
    DimensionMismatch,
    NegativeQuadraticForm,
    NonpositiveWeight,
    NotHermitian,
    NotPositiveDefinite,
    WeightOperator,
    mgs_factorize,
    validate,
)

from conftest import random_pd_matrix


def inner(w, y, z):
    """The weighted inner product y* M z, conjugate-linear in y."""
    return np.vdot(y, w.apply(z))


def test_identity_factory():
    w = WeightOperator.identity(3)
    assert w.kind == "identity"
    assert w.dimension == 3
    z = np.array([1.0, 2.0, 2.0])
    assert_allclose(w.apply(z), z)
    assert w.norm(z) == 3.0


def test_diag_inner_small():
    w = WeightOperator.diagonal([2.0, 3.0])
    assert inner(w, [1.0, 1.0], [1.0, 1.0]) == pytest.approx(5.0)


def test_dense_indefinite_rejected():
    # eigenvalues 3 and -1
    with pytest.raises(NotPositiveDefinite):
        WeightOperator.dense([[1.0, 2.0], [2.0, 1.0]])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(1, 1), (0, 2)], ids=["diag", "offdiag"])
def test_dense_nonfinite_rejected(entry, value):
    # a NaN passes the hermiticity test (every comparison with it is
    # false) and may pass a Cholesky; the finiteness test comes first
    m = random_pd_matrix(np.random.default_rng(5), 3)
    m[entry] = value
    m[entry[::-1]] = value
    with pytest.raises(NotPositiveDefinite, match="non-finite"):
        WeightOperator.dense(m)
    with pytest.raises(NotPositiveDefinite):
        validate(m)


def test_dense_nonhermitian_rejected():
    with pytest.raises(NotHermitian):
        WeightOperator.dense([[1.0, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("weights, match", [
    ([1.0, np.inf], r"^weight 1 is inf, expected > 0$"),
    ([1.0, -np.inf], r"^weight 1 is -inf, expected > 0$"),
    ([2.0, np.nan, 0.5], r"^weight 1 is nan, expected > 0$"),
    ([1.0, 0.0], r"^weight 1 is 0\.0, expected > 0$"),
    ([1.0, -2.0], r"^weight 1 is -2\.0, expected > 0$"),
], ids=["inf", "-inf", "nan", "zero", "negative"])
def test_diag_nonpositive_rejected(weights, match):
    # the first entry that is not finite and positive, as a Python float
    with pytest.raises(NonpositiveWeight, match=match):
        WeightOperator.diagonal(weights)


def test_inner_standard_basis_orthogonal():
    w = WeightOperator.identity(2)
    assert inner(w, [1.0, 0.0], [0.0, 1.0]) == 0.0


def test_inner_conjugate_first_slot():
    w = WeightOperator.identity(2)
    assert inner(w, [1j, 0.0], [1.0, 0.0]) == pytest.approx(-1j)


def test_inner_diag_quadratic_form():
    w = WeightOperator.diagonal([4.0, 9.0])
    assert inner(w, [1.0, 1.0], [1.0, 1.0]) == pytest.approx(13.0)


def test_norm_pythagorean():
    assert WeightOperator.identity(2).norm([3.0, 4.0]) == pytest.approx(5.0)


def test_norm_diag():
    w = WeightOperator.diagonal([4.0, 9.0])
    assert w.norm([1.0, 0.0]) == pytest.approx(2.0)
    assert w.norm([1.0, 1.0]) == pytest.approx(np.sqrt(13.0))


def test_norm_zero_vector():
    for w in (WeightOperator.identity(4),
              WeightOperator.diagonal([1.0, 2.0, 3.0, 4.0]),
              WeightOperator.dense(random_pd_matrix(
                  np.random.default_rng(0), 4))):
        assert w.norm(np.zeros(4)) == 0.0


def test_dimension_mismatch():
    w = WeightOperator.diagonal([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        w.norm([1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        w.apply([1.0])


def test_conjugate_symmetry_property():
    rng = np.random.default_rng(42)
    for trial in range(25):
        n = int(rng.integers(2, 12))
        w = WeightOperator.dense(random_pd_matrix(rng, n))
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = inner(w, y, z)
        b = inner(w, z, y)
        assert abs(a - np.conj(b)) <= 1e-13 * max(1.0, abs(a))


def test_conjugate_linearity_first_argument():
    rng = np.random.default_rng(7)
    w = WeightOperator.dense(random_pd_matrix(rng, 5))
    y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    a = 0.3 - 1.7j
    assert_allclose(inner(w, a * y, z), np.conj(a) * inner(w, y, z),
                    rtol=1e-13)


def test_norm_positive_definite():
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = int(rng.integers(1, 10))
        w = WeightOperator.dense(random_pd_matrix(rng, n))
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        nz = w.norm(z)
        assert nz > 0.0
        assert_allclose(nz * nz, inner(w, z, z).real, rtol=1e-12)


def test_norm_matches_cholesky_route():
    # |||z|||^2 = ||L* z||_2^2 with M = L L* gives an independent route
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(2, 9))
        w = WeightOperator.dense(random_pd_matrix(rng, n))
        lower = scipy.linalg.cholesky(w.matrix(), lower=True)
        assert_allclose(lower @ lower.conj().T, w.matrix(), atol=1e-10)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert_allclose(w.norm(z), np.linalg.norm(lower.conj().T @ z),
                        rtol=1e-12)


def test_isometry_of_weighted_orthonormal_columns():
    """P with P*MP = I maps the standard inner product onto the weighted one."""
    rng = np.random.default_rng(19)
    for trial in range(10):
        n = int(rng.integers(3, 10))
        j = int(rng.integers(1, n))
        w = WeightOperator.dense(random_pd_matrix(rng, n))
        a = rng.standard_normal((n, j)) + 1j * rng.standard_normal((n, j))
        p = mgs_factorize(a, w).q
        y = rng.standard_normal(j) + 1j * rng.standard_normal(j)
        z = rng.standard_normal(j) + 1j * rng.standard_normal(j)
        assert_allclose(inner(w, p @ y, p @ z), np.vdot(y, z), rtol=1e-12,
                        atol=1e-12)
        assert_allclose(w.norm(p @ z), np.linalg.norm(z), rtol=1e-12)


def test_norm_is_one_application(weight_calls):
    w = WeightOperator.dense(random_pd_matrix(np.random.default_rng(29), 4))
    weight_calls.clear()
    w.norm(np.ones(4))
    assert weight_calls == ["norm", "apply"]


def test_negative_quadratic_form_detects_corruption():
    # no public constructor produces an indefinite operator, so corrupt one
    bad = WeightOperator("dense", 2, matrix=np.array([[1.0, 0.0],
                                                     [0.0, -1.0]]))
    with pytest.raises(NegativeQuadraticForm):
        bad.norm([0.0, 1.0])


def three_weights(rng, n):
    return (WeightOperator.identity(n),
            WeightOperator.diagonal(rng.uniform(0.2, 3.0, n)),
            WeightOperator.dense(random_pd_matrix(rng, n)))


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_block_norm_matches_column_norms(complex_):
    rng = np.random.default_rng(31)
    n, m = 9, 5
    for w in three_weights(rng, n):
        block = rng.standard_normal((n, m))
        if complex_:
            block = block + 1j * rng.standard_normal((n, m))
        # column-major, so every column is a contiguous vector
        block = np.asfortranarray(block)
        norms = w.norm(block)
        assert norms.shape == (m,)
        by_column = [w.norm(col) for col in block.T]
        assert_allclose(norms, by_column, rtol=1e-14)
        if w.kind != "dense":
            # M V is formed entry by entry: the same vdot as for a vector
            assert np.array_equal(norms, by_column)
        assert_allclose(w.apply(block),
                        np.column_stack([w.apply(col) for col in block.T]),
                        rtol=1e-14)


def test_block_norm_of_no_columns():
    for w in three_weights(np.random.default_rng(37), 4):
        assert w.norm(np.zeros((4, 0))).shape == (0,)


@pytest.mark.parametrize("matrix, bad, match", [
    # z*Mz < 0 for the second basis vector
    ([[1.0, 0.0], [0.0, -1.0]], [0.0, 1.0], "< 0"),
    # not hermitian: z*Mz = 2 + 1j for z = (1, 1j)
    ([[1.0, 1.0], [0.0, 1.0]], [1.0, 1j], "imaginary"),
], ids=["negative", "complex"])
def test_block_norm_checks_every_column(matrix, bad, match):
    corrupt = WeightOperator("dense", 2, matrix=np.array(matrix, complex))
    block = np.array([[1.0, 0.0], [1.0, 0.0], bad, [1.0, 0.0]]).T
    assert_allclose(corrupt.norm(block[:, [0, 1, 3]]), 1.0)
    with pytest.raises(NegativeQuadraticForm, match=match):
        corrupt.norm(block)
    with pytest.raises(NegativeQuadraticForm, match=match):
        corrupt.norm(bad)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_block_norms_are_the_vector_norms_bit_for_bit(complex_):
    # wider than one cast chunk; a dense M returns a C-ordered M V, and
    # a real one needs its columns cast to contiguous complex vectors
    rng = np.random.default_rng(53)
    n, m = 300, 150
    assert m > weights._CHUNK
    weights_ = (*three_weights(rng, n),
                WeightOperator.dense(random_pd_matrix(rng, n, complex_=False)))
    for w in weights_:
        for order in "FC":
            block = rng.standard_normal((n, m))
            if complex_:
                block = block + 1j * rng.standard_normal((n, m))
            z = w._check_dim(np.asarray(block, order=order))
            mz = w.apply(z)
            by_column = np.array([w._form_norm(z[:, j], mz[:, j])
                                  for j in range(m)])
            assert w._form_norm(z, mz).tobytes() == by_column.tobytes()


@pytest.mark.parametrize("first, then", [("negative", "complex"),
                                         ("complex", "negative")])
def test_block_norm_raises_at_the_first_bad_column(first, then):
    # z*Mz is -1 for (0, 1) and 1j for (1, 1j); both bad columns sit past
    # the first cast chunk, and the block raises what the vector path
    # raises for the first of them
    corrupt = WeightOperator("dense", 2,
                             matrix=np.array([[1.0, 1.0], [0.0, -1.0]], complex))
    bad = {"negative": [0.0, 1.0], "complex": [1.0, 1j]}
    block = np.zeros((2, 150), complex)
    block[0] = 1.0
    block[:, 100], block[:, 130] = bad[first], bad[then]
    assert_allclose(corrupt.norm(block[:, :100]), 1.0)
    with pytest.raises(NegativeQuadraticForm) as by_vector:
        corrupt.norm(np.array(bad[first]))
    with pytest.raises(NegativeQuadraticForm) as by_block:
        corrupt.norm(block)
    assert str(by_block.value) == str(by_vector.value)


def test_flagged_block_column_never_returns_a_norm(monkeypatch):
    # should the vector path accept a column the block checks flag (two
    # BLAS builds summing it in another rounding), the block still raises
    form_norm = WeightOperator._form_norm
    monkeypatch.setattr(
        WeightOperator, "_form_norm",
        lambda self, z, mz: form_norm(self, z, mz) if z.ndim == 2 else 0.0)
    z = np.ones((4, 3))
    mz = z.copy()
    mz[:, 1] = -1.0
    with pytest.raises(NegativeQuadraticForm, match="column 1"):
        WeightOperator.identity(4)._form_norm(z, mz)


def test_block_norm_casts_no_whole_block():
    # the complex casts are made a chunk of columns at a time: the peak
    # stays below one complex copy of the block
    block = np.asfortranarray(np.random.default_rng(59).standard_normal((300, 648)))
    w = WeightOperator.identity(300)
    tracemalloc.start()
    try:
        w.norm(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block.size * 16


def test_block_dimension_mismatch():
    for w in three_weights(np.random.default_rng(41), 3):
        for shape in ((4, 2), (2, 3), (3, 2, 1)):
            with pytest.raises(DimensionMismatch):
                w.norm(np.ones(shape))
            with pytest.raises(DimensionMismatch):
                w.apply(np.ones(shape))


def test_vector_norm_is_one_vdot():
    # a vector keeps the route it had before blocks: one vdot with M z,
    # so run's factors and every history byte stay the same
    def vdot_norm(w, z):
        q = complex(np.vdot(z, w.apply(z)))
        return float(np.sqrt(max(q.real, 0.0)))

    rng = np.random.default_rng(43)
    n = 11
    for w in three_weights(rng, n):
        vectors = [np.zeros(n), rng.standard_normal(n),
                   rng.standard_normal(n) + 1j * rng.standard_normal(n)]
        for z in vectors:
            got = w.norm(z)
            assert type(got) is float
            assert got == vdot_norm(w, np.asarray(z, complex))


def test_validate_dispatch():
    assert validate(np.array([1.0, 2.0])).kind == "diagonal"
    assert validate(np.eye(3) * 2.0).kind == "dense"
    w = WeightOperator.identity(2)
    assert validate(w) is w


def test_validate_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        validate(np.ones((2, 3)))


def test_hermiticity_tolerance_boundary():
    m = np.array([[2.0, 1.0], [1.0 + 5e-13, 2.0]])
    w = WeightOperator.dense(m)  # asymmetry below 1e-12 is accepted
    assert w.kind == "dense"
    with pytest.raises(NotHermitian):
        WeightOperator.dense(np.array([[2.0, 1.0], [1.0 + 1e-11, 2.0]]))


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_dense_check_reads_the_whole_matrix_in_row_blocks(complex_):
    # the deviation the message prints and the scale are those of the
    # whole matrix, to the bit, wherever the worst entry lies; N spans
    # several row blocks and ends in a partial one
    rng = np.random.default_rng(61)
    n = 2 * weights._ROWS + 7
    m = random_pd_matrix(rng, n, complex_=complex_)
    w = WeightOperator.dense(m)
    assert w._scale == float(np.max(np.abs(m)))
    for i, j in [(0, n - 1), (n - 1, 1), (weights._ROWS, weights._ROWS + 3)]:
        bad = m.copy()
        bad[i, j] += 3e-9 * (1 + 1j if complex_ else 1)
        dev = np.max(np.abs(bad - bad.conj().T))
        with pytest.raises(NotHermitian) as info:
            WeightOperator.dense(bad)
        assert str(info.value) == (f"max |M - M*| entry deviation {dev:.3e} "
                                   "exceeds 1e-12")


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_dense_peak(complex_):
    # beside the copy of M and its Cholesky factor the check makes only
    # row blocks: no conjugate, difference or abs of the whole matrix
    m = random_pd_matrix(np.random.default_rng(62), 400, complex_=complex_)
    tracemalloc.start()
    try:
        WeightOperator.dense(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * m.nbytes


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_dense_weight_holds_m_and_its_factor(complex_):
    # the validation's Cholesky factor is kept, as L^H: conjugated in
    # place and transposed as a view, so the weight holds M's copy and
    # one factor, 2x M, and no conjugate copy of either
    m = random_pd_matrix(np.random.default_rng(62), 400, complex_=complex_)
    tracemalloc.start()
    try:
        w = WeightOperator.dense(m)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 2.05 * m.nbytes
    lh = w._factor
    assert_allclose(lh.conj().T @ lh, m, rtol=0, atol=1e-13 * abs(m).max())
    assert np.array_equal(lh, np.triu(lh))


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_blocked_back_substitution_is_a_triangular_solve(complex_):
    # N = 200 spans four row blocks, the last a partial one.  The frame's
    # blocked product skips the same zero triangle
    rng = np.random.default_rng(75)
    n, m = 200, 7
    assert n > 3 * weights._ROWS and n % weights._ROWS
    u = scipy.linalg.cholesky(random_pd_matrix(rng, n, complex_))
    b = rng.standard_normal((n, m))
    if complex_:
        b = b + 1j * rng.standard_normal((n, m))
    got = weights._back_substitute(u, b)
    want = scipy.linalg.solve_triangular(u, b)
    assert_allclose(got, want, rtol=0, atol=1e-14 * abs(want).max())
    assert weights._back_substitute(u, b[:, :0]).shape == (n, 0)
    assert_allclose(weights._upper_product(u, b), u @ b, rtol=0,
                    atol=1e-14 * abs(u @ b).max())


@pytest.mark.parametrize("data", ["real", "complex"])
@pytest.mark.parametrize("kind", ["diag", "real-dense", "dense"])
def test_frame_and_unframe(kind, data):
    # the frame maps the weighted norm to the Euclidean one, and an
    # orthonormal basis of a frame maps back to a weighted-orthonormal
    # Q with P = M Q; a real L acts on complex data as a real product
    rng = np.random.default_rng(76)
    n, m = 150, 6
    if kind == "diag":
        w = WeightOperator.diagonal(rng.uniform(0.2, 3.0, n))
    else:
        w = WeightOperator.dense(random_pd_matrix(rng, n, kind == "dense"))
    u = rng.standard_normal((n, m))
    if data == "complex":
        u = u + 1j * rng.standard_normal((n, m))
    x = w._frame(u)
    assert x.dtype == np.result_type(u, w.matrix())
    assert_allclose(np.linalg.norm(x, axis=0), w.norm(u), rtol=1e-14)
    qx, _ = np.linalg.qr(x)
    q, p = w._unframe(qx)
    assert_allclose(w._frame(q), qx, rtol=0, atol=1e-14)
    assert_allclose(p, w.apply(q), rtol=0, atol=1e-13 * abs(p).max())
    assert_allclose(q.conj().T @ p, np.eye(m), rtol=0, atol=1e-14)
    ident = WeightOperator.identity(n)
    assert ident._frame(u) is u
    q, p = ident._unframe(qx)
    assert q is p is qx


def test_dense_matrix_is_a_read_only_view():
    # the operator is immutable, so its matrix is lent, not copied
    m = random_pd_matrix(np.random.default_rng(24), 5)
    w = WeightOperator.dense(m)
    view = w.matrix()
    assert np.shares_memory(view, w.matrix())
    assert not view.flags.writeable
    assert np.array_equal(view, m)
    with pytest.raises(ValueError):
        view[0, 0] = 0.0


def test_private_dense_keeps_an_array_in_its_field():
    # the history loader hands its freshly decoded M to _dense, which
    # keeps it; dense copies its argument, and _dense copies an array
    # that is not in its field (complex by dtype, real by value)
    m = random_pd_matrix(np.random.default_rng(25), 5, complex_=False)
    assert np.shares_memory(WeightOperator._dense(m).matrix(), m)
    assert not np.shares_memory(WeightOperator.dense(m).matrix(), m)
    w = WeightOperator._dense(m.astype(complex))
    assert w.matrix().dtype == float
    assert np.array_equal(w.matrix(), m)


def test_apply_matches_explicit_matrix():
    rng = np.random.default_rng(23)
    n = 6
    m = random_pd_matrix(rng, n)
    w = WeightOperator.dense(m)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert_allclose(w.apply(z), m @ z, rtol=1e-13)
    d = rng.uniform(0.5, 2.0, n)
    wd = WeightOperator.diagonal(d)
    assert_allclose(wd.apply(z), d * z, rtol=1e-13)
    assert_allclose(inner(wd, z, z).real, (np.abs(z) ** 2 * d).sum(),
                    rtol=1e-13)
