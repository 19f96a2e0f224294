import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from wextrap import (
    NonFiniteIterate,
    RankDeficient,
    WeightOperator,
    equivalence_check,
    fom_solve,
    gmr_solve,
    load_history,
    mgs_factorize,
    orthogonalize_column,
    qr,
    run,
    save_history,
)

from wextrap.krylov import _problem, _Stages

from cgs_reference import gs_factorize
from conftest import (
    random_contraction,
    random_sequence,
    random_weight,
    run_grown,
)

SQ2 = np.sqrt(2.0)


def assert_p_is_mq(f, w):
    # the stored P must be M Q, to roundoff
    mq = w.matrix() @ f.q
    assert np.linalg.norm(f.p - mq) <= 1e-13 * np.linalg.norm(mq)


@pytest.mark.parametrize("factorize", [mgs_factorize, gs_factorize])
def test_single_column_identity_weight(factorize):
    f = factorize(np.array([[3.0], [4.0]]), WeightOperator.identity(2))
    assert_allclose(f.q[:, 0], [0.6, 0.8], rtol=1e-15)
    assert_allclose(f.r, [[5.0]], rtol=1e-15)


@pytest.mark.parametrize("factorize", [mgs_factorize, gs_factorize])
def test_single_column_diag_weight(factorize):
    f = factorize(np.array([[1.0], [0.0]]), WeightOperator.diagonal([4.0, 9.0]))
    assert_allclose(f.r[0, 0], 2.0, rtol=1e-15)
    assert_allclose(f.q[:, 0], [0.5, 0.0], rtol=1e-15)


@pytest.mark.parametrize("factorize", [mgs_factorize, gs_factorize])
def test_two_columns_hand_oracle(factorize):
    a = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    f = factorize(a, WeightOperator.identity(3))
    assert_allclose(f.r, [[SQ2, 1.0 / SQ2], [0.0, 1.0 / SQ2]], rtol=1e-14)
    assert_allclose(f.q[:, 1], [1.0 / SQ2, -1.0 / SQ2, 0.0], rtol=1e-13)


def test_append_column_orthogonal_complement():
    w = WeightOperator.identity(3)
    f = mgs_factorize(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]), w)
    assert_allclose(f.q[:, 1], [0.0, 1.0, 0.0], atol=1e-15)
    assert_allclose(f.r[0, 1], 1.0)  # rho_1
    assert_allclose(f.r[1, 1], 1.0)


def test_append_collinear_column_raises():
    a = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(RankDeficient) as info:
        mgs_factorize(a, WeightOperator.identity(3))
    assert info.value.index == 1
    assert info.value.residual_norm <= info.value.threshold


def test_incremental_equals_one_shot():
    # run grows its factors one stage at a time, mgs_factorize in one
    # call: one append path, so the results are bit-identical
    rng = np.random.default_rng(31)
    for kind in ("identity", "diag", "dense"):
        w = random_weight(rng, 9, kind)
        hist, grown = run_grown(random_sequence(rng, 9, 7, complex_=True), w)
        assert grown.k == 6
        whole = mgs_factorize(hist.differences[:, :6], w)
        assert_array_equal(grown.q, whole.q)
        assert_array_equal(grown.r, whole.r)
        assert_array_equal(grown.p, whole.p)


@pytest.mark.parametrize("grow", ["run", "mgs_factorize"])
def test_grown_factors_are_views_later_appends_leave_alone(monkeypatch,
                                                           grow):
    # every stage's factors are a leading view of the one set of
    # buffers, and no later column writes into it: the kernel sees each
    # leading view before the loop writes the next column.  Both grow
    # the factors of the difference block's frame, in the loop's buffers
    grown, orthogonalize = [], qr.orthogonalize_column

    def recording(view, a):
        grown.append((view, view.q.copy(), view.r.copy(), view.p.copy()))
        return orthogonalize(view, a)

    returned, loop = [], qr._grow

    def capturing(*args, **kwargs):
        out = loop(*args, **kwargs)
        returned.append(out[1])
        return out

    monkeypatch.setattr(qr, "orthogonalize_column", recording)
    monkeypatch.setattr(qr, "_grow", capturing)
    rng = np.random.default_rng(32)
    w = random_weight(rng, 8, "dense")
    x = random_sequence(rng, 8, 7, complex_=True)
    if grow == "run":
        run(x, w)
    else:
        mgs_factorize(x[1:].T - x[:-1].T, w)
    final, = returned
    views = [final.leading(j + 1) for j in range(final.k)]
    assert [seen.k for seen, *_ in grown] == list(range(final.k))
    assert final.k == 6
    for view in views:
        for a, b in ((view.q, final.q), (view.r, final.r), (view.p, final.p)):
            assert np.shares_memory(a, b)
    # the view of j columns is seen before column j is written
    for view, (seen, q, r, p) in zip(views, grown[1:]):
        assert np.shares_memory(seen.q, final.q)
        for got in (view, seen):
            assert_array_equal(got.q, q)
            assert_array_equal(got.r, r)
            assert_array_equal(got.p, p)


@pytest.mark.parametrize("kind", ["identity", "diag", "dense"])
def test_a_stop_returns_the_loops_own_views(monkeypatch, kind):
    # the loop has one exit: after a stop its Q and P are leading views
    # of the buffers it grew them in, sized for every planned column,
    # and a happy breakdown's Arnoldi basis is a column-major leading
    # view of the loop's Q buffer, not a copy of the columns used
    rng = np.random.default_rng(36)
    n, count = 6, 5
    w = random_weight(rng, n, kind)
    a = rng.standard_normal((n, count))
    a[:, 3] = a[:, 0] - 2.0 * a[:, 2]  # column 3 is dependent
    a, = qr._in_field(w, a)
    seen = []

    def column(j, factors):
        seen.append(factors)
        return a[:, j]

    _, factors, norms = qr._grow(w, count, a.dtype, column)
    assert factors.k == 3 and len(norms) == 4
    for got, buffer in ((factors.q, seen[1].q), (factors.p, seen[1].p)):
        assert np.shares_memory(got, buffer)
        assert got.base.shape == (n, count)
    assert (factors.p is factors.q) == (kind == "identity")

    grown, grow = [], qr._grow

    def capturing(*args, **kwargs):
        out = grow(*args, **kwargs)
        grown.append(out[1])
        return out

    monkeypatch.setattr("wextrap.krylov._grow", capturing)
    # two eigenvalues: the third Arnoldi step breaks down
    t = np.diag([0.5, 0.5, -0.25, -0.25])
    stages = _Stages(*_problem(t, np.array([1.0, -2.0, 0.5, 3.0]),
                               np.zeros(4), random_weight(rng, 4, kind)), 3)
    loop, = grown
    assert loop.k == 2 and stages.basis.shape == (4, 2)
    assert stages.basis.flags.f_contiguous
    assert np.shares_memory(stages.basis, loop.q)
    assert stages.basis.base is loop.q.base
    assert stages.basis.base.shape == (4, 4)


def _grown_factors(source, w, rng, tmp_path, products):
    """Final factors (None for Arnoldi, which keeps only Q; a run's
    as its loop returned them, not regrown) and the number of columns
    whose M-product the growth took; ``products`` is cleared of any
    product taken before that growth."""
    n = w.dimension
    if source == "run-early-stop":
        # three distinct eigenvalues: the terminal stage is k = 3 of 7,
        # and the loop returns leading views of its 8-column buffers
        t = np.resize([0.5, -0.3, 0.2], n)
        x = [rng.standard_normal(n)]
        for _ in range(8):
            x.append(t * x[-1] + 1.0)
        hist, grown = run_grown(np.array(x), w)
        assert hist.detected_k0 == 3 and grown.k == 3
        return grown, 4
    x = random_sequence(rng, n, 7, complex_=True)
    if source == "run":
        return run_grown(x, w)[1], 6
    if source == "mgs_factorize":
        return mgs_factorize(x[1:].T - x[:-1].T, w), 6
    if source == "load_history":
        path = tmp_path / "hist.json"
        save_history(run(x, w), path)
        products.clear()
        return load_history(path).factors, 6
    _Stages(*_problem(random_contraction(rng, n), rng.standard_normal(n),
                      np.zeros(n), w), 5)
    return None, 6


@pytest.mark.parametrize("source", ["run", "run-early-stop", "mgs_factorize",
                                    "load_history", "arnoldi"])
@pytest.mark.parametrize("kind", ["identity", "diag", "dense"])
def test_identity_weight_keeps_one_array_as_q_and_p(monkeypatch, tmp_path,
                                                    kind, source):
    # under the identity P = M Q is Q: a view grown under it and the
    # final factors of an identity weight hold one array as both, with
    # P = Q's floats; the other weights' final factors keep a separate
    # P.  A known block is grown in its frame under the identity, so
    # only Arnoldi grows views under M.  Each column takes one apply:
    # of M in Arnoldi, of the frame's identity weight otherwise
    grown, orthogonalize = [], qr.orthogonalize_column

    def recording(view, a):
        grown.append(view)
        return orthogonalize(view, a)

    monkeypatch.setattr(qr, "orthogonalize_column", recording)
    products, apply = [], WeightOperator.apply

    def counting(self, z):
        products.append((self.kind, np.shape(z)))
        return apply(self, z)

    monkeypatch.setattr(WeightOperator, "apply", counting)
    rng = np.random.default_rng(34)
    n = 9
    w = random_weight(rng, n, kind)
    final, columns = _grown_factors(source, w, rng, tmp_path, products)
    grower = w.kind if source == "arnoldi" else "identity"
    assert products == [(grower, (n,))] * columns
    for f in grown:
        assert f.weight.kind == grower
    views = [f for f in grown if grower != "identity"] + (
        [final, final.leading(2)] if final is not None else [])
    assert all(f.p is f.q for f in grown if grower == "identity")
    for f in views:
        if kind == "identity":
            assert f.p is f.q
        else:
            assert not np.shares_memory(f.p, f.q)
            assert_p_is_mq(f, w)


@pytest.mark.parametrize("source", ["run", "run-early-stop", "mgs_factorize",
                                    "load_history", "arnoldi"])
def test_every_growth_source_runs_the_one_loop(monkeypatch, tmp_path, source):
    # each source grows its factors by one call of qr._grow, and no
    # column is orthogonalized outside it
    calls, inside = [], []
    grow, orthogonalize = qr._grow, qr.orthogonalize_column

    def growing(*args, **kwargs):
        calls.append("grow")
        inside.append(True)
        try:
            return grow(*args, **kwargs)
        finally:
            inside.pop()

    def orthogonalizing(*args):
        calls.append("column" if inside else "outside")
        return orthogonalize(*args)

    for name in ("wextrap.qr", "wextrap.krylov"):
        monkeypatch.setattr(f"{name}._grow", growing)
    for name in ("wextrap.qr", "wextrap.extrapolate"):
        monkeypatch.setattr(f"{name}.orthogonalize_column", orthogonalizing)
    rng = np.random.default_rng(35)
    w = random_weight(rng, 9, "dense")
    _, columns = _grown_factors(source, w, rng, tmp_path, calls)
    assert calls == ["grow"] + ["column"] * columns


@pytest.mark.parametrize("source", ["mgs_factorize", "arnoldi"])
def test_column_n_is_dependent_whatever_its_norm(monkeypatch, source):
    # N + 1 columns of N-vectors are dependent: with no rank tolerance
    # at all, the loop still stops at column N, whose deflated norm is
    # roundoff and not 0
    monkeypatch.setattr("wextrap.qr.RANK_TOL", 0.0)
    rng = np.random.default_rng(6)
    w = WeightOperator.identity(3)
    if source == "mgs_factorize":
        with pytest.raises(RankDeficient) as info:
            mgs_factorize(rng.standard_normal((3, 4)), w)
        # rejected as column N, not by a residual against a threshold
        assert info.value.index == 3
        assert info.value.residual_norm is None
        assert str(info.value) == ("column 3 of 3-vectors is dependent on "
                                   "its predecessors, whatever its norm")
    else:
        stages = _Stages(*_problem(random_contraction(rng, 3),
                                   rng.standard_normal(3), np.zeros(3), w), 5)
        assert stages.basis.shape == (3, 3)
        assert stages.hess.shape == (4, 3) and stages.hess[3, 2] != 0.0


#: a linear problem whose r_0 = d has a squared norm beyond float64
T6 = np.diag([0.5, 0.25, 0.1, 0.2, 0.3, 0.4])
D6 = np.ones(6) * 2.0**520

#: a growth path each, fed columns scaled by 2^520
OVERFLOWING = {
    "run": lambda w: run(
        random_sequence(np.random.default_rng(8), 6, 5) * 2.0**520, w),
    "mgs_factorize": lambda w: mgs_factorize(
        np.random.default_rng(8).standard_normal((6, 3)) * 2.0**520, w),
    "fom_solve": lambda w: fom_solve(T6, D6, np.zeros(6), w, 4),
    "gmr_solve": lambda w: gmr_solve(T6, D6, np.zeros(6), w, 4),
    "equivalence_check": lambda w: equivalence_check(
        T6, D6, np.zeros(6), w, 4),
}


@pytest.mark.parametrize("kind", ["identity", "diag", "dense"])
@pytest.mark.parametrize("call", sorted(OVERFLOWING))
def test_a_column_beyond_the_float64_range_raises(call, kind):
    # its weighted norm is inf (NaN where a complex form meets inf -
    # inf): a range error naming the column, never a dependent column
    # that stops a run as rank-deficient, or an Arnoldi breakdown whose
    # solutions read zeros
    w = random_weight(np.random.default_rng(13), 6, kind)
    with pytest.raises(NonFiniteIterate) as info:
        OVERFLOWING[call](w)
    assert info.value.index == 0
    norm = "nan" if kind == "dense" else "inf"
    assert str(info.value) == (f"column 0 has weighted norm {norm}, "
                               "outside the float64 range")


def test_leading_views_restrict_bit_identically():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((8, 4))
    w = random_weight(rng, 8, "diag")
    f = mgs_factorize(a, w)
    g = f.leading(2)
    assert g.k == 2
    assert_array_equal(g.q, f.q[:, :2])
    assert_array_equal(g.r, f.r[:2, :2])


def test_orthonormality_and_reconstruction_mgs():
    rng = np.random.default_rng(101)
    for trial in range(30):
        n = int(rng.integers(3, 16))
        k = int(rng.integers(1, n + 1))
        a = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        w = random_weight(rng, n)
        f = mgs_factorize(a, w)
        assert f.orthonormality_defect() < 1e-10
        assert_p_is_mq(f, w)
        err = np.linalg.norm(f.q @ f.r - a, axis=0)
        assert np.all(err <= 1e-12 * np.linalg.norm(a, axis=0))
        assert np.all(np.diag(f.r).real > 0.0)
        assert np.all(np.diag(f.r).imag == 0.0)
        # strictly triangular below the diagonal, structural zeros
        assert np.all(f.r[np.tril_indices(k, -1)] == 0.0)


def test_gs_matches_mgs_well_conditioned():
    rng = np.random.default_rng(77)
    for trial in range(20):
        a = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        w = random_weight(rng, 8)
        f = mgs_factorize(a, w)
        g = gs_factorize(a, w)
        assert np.max(np.abs(f.q - g.q)) < 1e-8
        assert np.max(np.abs(f.r - g.r)) < 1e-8


def test_cgs2_beats_gs_on_nearly_dependent_columns():
    rng = np.random.default_rng(13)
    a1 = rng.standard_normal(40)
    a2 = a1 + 1e-9 * rng.standard_normal(40)
    a3 = rng.standard_normal(40)
    a = np.column_stack([a1, a2, a3])
    w = WeightOperator.identity(40)
    dev_cgs2 = mgs_factorize(a, w).orthonormality_defect()
    dev_gs = gs_factorize(a, w).orthonormality_defect()
    assert dev_cgs2 <= dev_gs


def test_identity_weight_reduces_to_standard_qr():
    rng = np.random.default_rng(55)
    for trial in range(10):
        n, k = 10, 6
        a = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        f = mgs_factorize(a, WeightOperator.identity(n))
        q, r = np.linalg.qr(a)
        # normalize the reference to a positive diagonal
        signs = np.diag(r).copy()
        signs = signs / np.abs(signs)
        q = q * signs
        r = (r.T * np.conj(signs)).T
        assert np.max(np.abs(f.q - q)) < 1e-10
        assert np.max(np.abs(f.r - r)) < 1e-10


def test_weighted_norm_equals_triangular_norm():
    # |||U z||| = ||R z||_2 for any coefficient vector z
    rng = np.random.default_rng(303)
    for trial in range(20):
        n = int(rng.integers(4, 12))
        k = int(rng.integers(1, n))
        a = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        w = random_weight(rng, n)
        f = mgs_factorize(a, w)
        z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        assert_allclose(w.norm(a @ z), np.linalg.norm(f.r @ z), rtol=1e-10)


def test_cgs2_orthogonal_on_graded_columns():
    rng = np.random.default_rng(4)
    n = 30
    base = rng.standard_normal((n, 6))
    # grade the columns so later ones nearly repeat earlier ones
    a = np.copy(base)
    for j in range(1, 6):
        a[:, j] = a[:, j - 1] + 10.0 ** (-2 * j) * base[:, j]
    w = WeightOperator.identity(n)
    # the second pass is what single-pass classical Gram-Schmidt lacks
    once = gs_factorize(a, w).orthonormality_defect()
    twice = mgs_factorize(a, w).orthonormality_defect()
    assert twice <= once
    assert twice < 1e-13


def test_rank_tolerance_is_relative_to_column_norm():
    w = WeightOperator.identity(3)
    # a tiny but independent column is fine ...
    g = mgs_factorize(np.array([[1.0, 0.0], [0.0, 1e-100], [0.0, 0.0]]), w)
    assert g.k == 2
    # ... while a huge nearly-dependent one is rejected
    with pytest.raises(RankDeficient):
        mgs_factorize(np.array([[1.0, 1e100], [0.0, 1e85], [0.0, 0.0]]), w)


def test_orthogonalize_column_reports_without_extending():
    rng = np.random.default_rng(2)
    w = random_weight(rng, 5, "dense")
    a = rng.standard_normal((5, 2))
    f = mgs_factorize(a, w)
    coeffs, res, m_res, rnorm = orthogonalize_column(
        f, a @ np.array([2.0, -1.0]))
    assert_allclose(coeffs, f.r @ np.array([2.0, -1.0]), rtol=1e-10)
    assert_allclose(m_res, w.apply(res), rtol=1e-13)
    assert rnorm <= 1e-12 * w.norm(a @ np.array([2.0, -1.0]))
    assert f.k == 2  # untouched


def test_more_columns_than_rows_rejected():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 4))
    with pytest.raises(RankDeficient) as info:
        mgs_factorize(a, WeightOperator.identity(3))
    assert info.value.index == 3


def test_timing_battery():
    """500 random factorizations stay well inside the budget."""
    import time

    rng = np.random.default_rng(1000)
    start = time.monotonic()
    for trial in range(500):
        n = int(rng.integers(3, 12))
        k = int(rng.integers(1, n + 1))
        a = rng.standard_normal((n, k))
        w = random_weight(rng, n)
        f = mgs_factorize(a, w)
        assert f.orthonormality_defect() < 1e-10
        assert_p_is_mq(f, w)
    assert time.monotonic() - start < 10.0
