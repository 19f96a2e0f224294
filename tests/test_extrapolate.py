import base64
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import solve_triangular

from wextrap import (
    DimensionMismatch,
    FixedPointProblem,
    InsufficientVectors,
    LambdaNotPositive,
    NonFiniteIterate,
    RunStatus,
    WeightOperator,
    WQRFactors,
    iterate,
    load_history,
    mgs_factorize,
    residual,
    run,
    save_history,
    verify_history,
)
from wextrap import extrapolate, qr
from wextrap.qr import orthogonalize_column

import rational_oracle as ro
from conftest import (
    linear_solution,
    random_linear_problem,
    random_pd_matrix,
    random_sequence,
    random_weight,
    run_grown,
)


def held_arrays(history):
    """Every array a history holds: its fields, the factors once grown,
    and each record's gammas and s."""
    for value in vars(history).values():
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, WQRFactors):
            yield from (value.q, value.r, value.p)
    for rec in history.records:
        for solve in (rec.mpe, rec.rre):
            yield from (a for a in (solve.gamma, solve.s) if a is not None)


def iterates_from(u):
    """Iterates x_0 = 0, x_{j+1} = x_j + u_j of the difference columns."""
    return np.vstack([np.zeros(u.shape[0], dtype=u.dtype),
                      np.cumsum(u.T, axis=0)])


def demo_run(k, m=6):
    xs = ro.as_float_rows(ro.demo_iterates(m))
    return run(xs, WeightOperator.identity(2), k_max=k), xs


def assemble(x0, factors, gamma):
    """s_k = x_0 + Q_{k-1} R_{k-1} xi with xi_j = 1 - (gamma_0 + ... +
    gamma_j), from the leading k columns of ``factors``: one stage at a
    time, the reference for run's one pair of products."""
    k = len(gamma) - 1
    xi = 1.0 - np.cumsum(gamma)[:k]
    return x0 + factors.q[:, :k] @ (factors.r[:k, :k] @ xi)


def two_solve_rre(r):
    """The reduced-rank gamma by two triangular solves, R* y = e then
    R h = y, normalized to sum one: an independent route to run's."""
    y = solve_triangular(r, np.ones(r.shape[0]), lower=False, trans="C")
    h = solve_triangular(r, y, lower=False)
    return h / h.sum()


# -- coefficient solves against the exact-rational oracle -------------

def test_mpe_demo_stage_one_matches_oracle():
    oracle = ro.mpe_stage(ro.demo_iterates(3), 1)
    # freeze the oracle's own output so a regression there is loud too
    assert oracle["gamma"] == [Fraction(-17, 35), Fraction(52, 35)]
    assert oracle["alpha"] == Fraction(35, 52)
    assert oracle["phi2"] == Fraction(117, 4900)

    hist, _ = demo_run(1)
    solve = hist.record(1).mpe
    assert solve.exists
    assert_allclose(solve.gamma, ro.as_float(oracle["gamma"]), atol=1e-12)
    assert_allclose(solve.alpha, float(oracle["alpha"]), atol=1e-12)
    assert_allclose(solve.phi, np.sqrt(float(oracle["phi2"])), atol=1e-12)
    # c = alpha * gamma recovers the unnormalized polynomial coefficients
    c = solve.alpha * solve.gamma
    assert_allclose(c, [-17.0 / 52.0, 1.0], atol=1e-13)


def test_rre_demo_stage_one_matches_oracle():
    oracle = ro.rre_stage(ro.demo_iterates(3), 1)
    assert oracle["gamma"] == [Fraction(-43, 97), Fraction(140, 97)]
    assert oracle["lam"] == Fraction(9, 388)

    hist, _ = demo_run(1)
    solve = hist.record(1).rre
    assert_allclose(solve.gamma, ro.as_float(oracle["gamma"]), atol=1e-12)
    assert_allclose(solve.lam, float(oracle["lam"]), atol=1e-14)
    assert_allclose(solve.phi, np.sqrt(float(oracle["lam"])), atol=1e-13)


def test_demo_assembly_matches_oracle():
    m_or = ro.mpe_stage(ro.demo_iterates(3), 1)
    r_or = ro.rre_stage(ro.demo_iterates(3), 1)
    assert m_or["s"] == [Fraction(26, 35), Fraction(39, 35)]
    assert r_or["s"] == [Fraction(70, 97), Fraction(105, 97)]

    hist, xs = demo_run(1)
    rec = hist.record(1)
    assert_allclose(rec.mpe.s, ro.as_float(m_or["s"]), atol=1e-12)
    assert_allclose(rec.rre.s, ro.as_float(r_or["s"]), atol=1e-12)
    # the recorded vectors are assemble's, from either stage's factors
    for factors in (hist.factors, hist.factors.leading(1)):
        assert_allclose(assemble(xs[0], factors, rec.rre.gamma), rec.rre.s,
                        atol=1e-15)


def test_stage_zero_degenerate_forms():
    hist, xs = demo_run(0)
    rec = hist.record(0)
    m, r = rec.mpe, rec.rre
    assert not rec.terminal
    assert m.exists and m.alpha == 1.0
    assert_allclose(m.gamma, [1.0])
    assert_allclose(r.gamma, [1.0], atol=1e-15)
    u0_norm = np.linalg.norm(xs[1] - xs[0])
    # phi_0 = |||u_0||| for both methods; lam = r_00^2
    assert_allclose(m.phi, u0_norm, rtol=1e-14)
    assert_allclose(r.phi, u0_norm, rtol=1e-14)
    assert_allclose(r.lam, u0_norm ** 2, rtol=1e-13)
    assert_allclose(m.s, xs[0])


def test_mpe_nonexistence_forced():
    # <u_0, u_1> = |||u_0|||^2 makes c' = (-1), alpha = 0
    u = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    hist = run(iterates_from(u), WeightOperator.identity(3))
    rec = hist.record(1)
    assert not rec.terminal
    solve = rec.mpe
    assert not solve.exists
    assert abs(solve.alpha) < 1e-14
    assert solve.gamma is None and solve.phi is None and solve.s is None


def test_rre_stagnation_pattern():
    u = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    solve = run(iterates_from(u), WeightOperator.identity(3)).record(1).rre
    assert_allclose(solve.gamma, [1.0, 0.0], atol=1e-14)
    assert_allclose(solve.lam, 1.0, rtol=1e-14)


def test_rre_matches_gram_route():
    """The recursion vs the analytical normal-equation form."""
    rng = np.random.default_rng(50)
    for trial in range(20):
        n = int(rng.integers(4, 14))
        k = int(rng.integers(1, min(n - 1, 7)))
        u = rng.standard_normal((n, k + 1)) + 1j * rng.standard_normal(
            (n, k + 1))
        w = random_weight(rng, n)
        gram = np.array([[np.vdot(u[:, i], w.apply(u[:, j]))
                          for j in range(k + 1)] for i in range(k + 1)])
        y = np.linalg.solve(gram, np.ones(k + 1))
        lam = 1.0 / y.sum()
        solve = run(iterates_from(u), w).record(k).rre
        assert_allclose(solve.gamma, lam.real * y, rtol=1e-8, atol=1e-10)
        assert_allclose(solve.lam, lam.real, rtol=1e-8)


def test_rre_recursion_matches_two_triangular_solves():
    # random complex sequences under random HPD weights, every stage
    rng = np.random.default_rng(52)
    for trial in range(20):
        n = int(rng.integers(5, 16))
        x = random_sequence(rng, n, int(rng.integers(3, n + 1)),
                            complex_=True)
        w = random_weight(rng, n, "dense")
        hist = run(x, w)
        assert not hist.records[-1].terminal
        for rec in hist.records:
            gamma = two_solve_rre(hist.factors.leading(rec.k + 1).r)
            assert_allclose(rec.rre.gamma, gamma, rtol=1e-10, atol=1e-12)
            assert_allclose(rec.rre.lam, 1.0 / np.linalg.norm(
                solve_triangular(hist.factors.leading(rec.k + 1).r,
                                 np.ones(rec.k + 1), trans="C")) ** 2,
                            rtol=1e-10)


def test_rre_recursion_as_accurate_as_two_solves_when_ill_conditioned():
    # x_{j+1} = T x_j + d with T = diag(0.95 U(0.1, 1)): the difference
    # block is a power-basis Krylov matrix, cond(R_20) about 1e12+.
    # The exact-rational oracle referees on the very columns the run
    # factored; neither route may lose much more than the other.
    rng = np.random.default_rng(0)
    n, k = 40, 20
    t = 0.95 * rng.uniform(0.1, 1.0, n)
    d = rng.standard_normal(n)
    x = [np.zeros(n)]
    for _ in range(k + 1):
        x.append(t * x[-1] + d)
    hist = run(np.array(x), WeightOperator.identity(n), k_max=k)
    assert hist.stages == k + 1 and not hist.records[-1].terminal
    exact = ro.rre_gammas(hist.differences.real.T[:k + 1])

    def worst(gammas):
        return max(np.linalg.norm(g - ro.as_float(e))
                   / np.linalg.norm(ro.as_float(e))
                   for g, e in zip(gammas, exact))

    recursion = worst([rec.rre.gamma for rec in hist.records])
    two_solves = worst([two_solve_rre(hist.factors.leading(j + 1).r)
                        for j in range(k + 1)])
    assert two_solves > 1e-6  # the case is ill-conditioned indeed
    assert recursion <= 2.0 * two_solves


def test_residual_estimate_equals_direct_norm():
    rng = np.random.default_rng(60)
    for trial in range(30):
        n = 20
        count = int(rng.integers(4, 11))
        x = random_sequence(rng, n, count, complex_=bool(trial % 2))
        w = random_weight(rng, n)
        u = np.diff(x, axis=0).T
        for rec in run(x, w).records:
            m, r = rec.mpe, rec.rre
            uk = u[:, :rec.k + 1]
            phi_direct_r = w.norm(uk @ r.gamma)
            assert_allclose(r.phi, phi_direct_r, rtol=1e-10)
            assert abs(r.gamma.sum() - 1.0) <= 1e-12
            if m.exists:
                phi_direct_m = w.norm(uk @ m.gamma)
                assert_allclose(m.phi, phi_direct_m, rtol=1e-10)
                assert abs(m.gamma.sum() - 1.0) <= 1e-12


def test_representation_consistency():
    # s = sum gamma_i x_i must equal x_0 + U_{k-1} xi
    rng = np.random.default_rng(71)
    for trial in range(20):
        n = int(rng.integers(5, 15))
        count = int(rng.integers(4, n + 1))
        x = random_sequence(rng, n, count, complex_=True)
        w = random_weight(rng, n)
        for rec in run(x, w).records:
            for solve in (rec.mpe, rec.rre):
                if not solve.exists:
                    continue
                k = solve.gamma.size - 1
                s_sum = (solve.gamma[:, None] * x[:k + 1]).sum(axis=0)
                scale = np.linalg.norm(s_sum)
                assert np.linalg.norm(solve.s - s_sum) <= 1e-11 * max(
                    1.0, scale)


def test_gamma_scale_invariance():
    # gamma does not depend on the c_k = 1 normalization of c
    hist, _ = demo_run(1)
    solve = hist.record(1).mpe
    r = hist.factors.r
    c_scaled = np.empty(2, dtype=complex)
    c_scaled[0] = np.linalg.solve(r[:1, :1], -7.5 * r[:1, 1])[0]
    c_scaled[1] = 7.5
    assert_allclose(c_scaled / c_scaled.sum(), solve.gamma, rtol=1e-13)


def test_run_takes_one_solve(monkeypatch):
    # every stage's c comes from one solve against the final R, the
    # terminal stage's included, whatever the stage count
    calls = []
    solve = np.linalg.solve

    def counting(a, b):
        calls.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    rng = np.random.default_rng(63)
    x = random_sequence(rng, 12, 14)
    for k in (0, 1, 5, 12):
        calls.clear()
        hist = run(x, WeightOperator.identity(12), k_max=k)
        assert hist.records[-1].terminal == (k == 12)
        assert calls == [(hist.factors.k, hist.factors.k)]


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("kind", ["identity", "diag", "dense"])
def test_mpe_gammas_match_per_stage_solves(kind, complex_):
    # stage k's c' solves R_{k-1} c' = -rho_k on its own; the terminal
    # stage (k = N) takes rho from the kernel against the final factors
    rng = np.random.default_rng(64)
    n = 10
    weight = random_weight(rng, n, kind)
    x = random_sequence(rng, n, n + 2, complex_=complex_)
    hist = run(x, weight)
    assert hist.detected_k0 == n and hist.records[-1].terminal
    r = hist.factors.r
    rho_n = orthogonalize_column(hist.factors, hist.differences[:, n])[0]
    for rec in hist.records:
        k = rec.k
        rho = rho_n if rec.terminal else r[:k, k]
        c = np.append(np.linalg.solve(r[:k, :k], -rho), 1.0)
        assert rec.mpe.exists
        assert_allclose(rec.mpe.gamma, c / c.sum(), rtol=1e-12)
        assert rec.mpe.gamma.dtype == hist.x0.dtype


def test_lambda_guard_on_underflowing_iterates():
    # differences near 1e-160 make r_00^2 subnormal and mu_0 = 1/r_00^2
    # overflow; the guard raises before a zero lam and NaN gamma
    x = random_sequence(np.random.default_rng(8), 6, 5) * 1e-160
    with pytest.raises(LambdaNotPositive, match="mu"):
        run(x, WeightOperator.identity(6))


# -- run() driver -----------------------------------------------------

def test_run_demo_terminates_at_k0(demo_problem):
    xs = iterate(demo_problem, 6)
    hist = run(np.asarray(xs), WeightOperator.identity(2), k_max=2)
    assert hist.stages == 3
    assert hist.status is RunStatus.RANK_DEFICIENT
    assert hist.detected_k0 == 2
    rec = hist.record(2)
    assert rec.terminal
    assert_allclose(rec.mpe.s, [1.0, 1.0], atol=1e-12)
    assert_allclose(rec.rre.s, [1.0, 1.0], atol=1e-12)
    assert rec.mpe.phi <= 1e-12
    # solution matches the problem's own fixed point
    assert_allclose(rec.rre.s, linear_solution(demo_problem), atol=1e-12)


def test_run_stagnation_demo():
    x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 1.0, 0.0]])
    hist = run(x, WeightOperator.identity(3))
    rec = hist.record(1)
    assert not rec.mpe.exists
    assert rec.mpe.s is None
    assert_allclose(rec.rre.s, hist.record(0).rre.s, atol=1e-15)
    assert_allclose(rec.rre.s, [0.0, 0.0, 0.0], atol=1e-15)
    assert_allclose(rec.rre.gamma, [1.0, 0.0], atol=1e-14)


def test_run_kmax_zero():
    rng = np.random.default_rng(1)
    x = random_sequence(rng, 4, 3)
    hist = run(x, WeightOperator.identity(4), k_max=0)
    assert hist.stages == 1
    rec = hist.record(0)
    assert_allclose(rec.mpe.s, x[0])
    assert_allclose(rec.rre.phi, WeightOperator.identity(4).norm(x[1] - x[0]),
                    rtol=1e-14)


def test_run_constant_sequence_converges_immediately():
    x = np.tile([2.0, 3.0], (4, 1))
    hist = run(x, WeightOperator.identity(2))
    assert hist.status is RunStatus.CONVERGED
    assert hist.detected_k0 == 0
    rec = hist.record(0)
    assert rec.terminal
    assert_allclose(rec.mpe.s, [2.0, 3.0])
    assert_allclose(rec.rre.s, [2.0, 3.0])


def test_run_insufficient_vectors():
    x = np.zeros((3, 5))
    with pytest.raises(InsufficientVectors):
        run(x, WeightOperator.identity(5), k_max=3)


def test_run_differences_from_iterates():
    xs = np.array([[0.0, 0.0], [1.0, 2.0], [4.0, 3.0], [5.0, 7.0]])
    hist = run(xs, WeightOperator.identity(2), k_max=1)
    # column j is u_j = x_{j+1} - x_j, so U_k is the leading k+1 columns
    assert hist.differences.shape == (2, 3)
    assert_allclose(hist.differences, [[1.0, 3.0, 1.0], [2.0, 1.0, 4.0]])
    assert_allclose(hist.differences[:, :2], [[1.0, 3.0], [2.0, 1.0]])
    with pytest.raises(InsufficientVectors, match="at least 2 iterates"):
        run(xs[:1], WeightOperator.identity(2))


def test_run_rejects_nonfinite():
    x = np.ones((4, 2))
    x[2, 1] = np.nan
    with pytest.raises(NonFiniteIterate) as info:
        run(x, WeightOperator.identity(2))
    assert info.value.index == 2


def test_run_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        run(np.zeros(4), WeightOperator.identity(4))
    with pytest.raises(DimensionMismatch):
        run(np.zeros((4, 3)), WeightOperator.identity(2))


def test_run_one_mproduct_per_column(weight_calls):
    # the CGS2 kernel's one apply per difference column gives r_kk;
    # |||u_k||| follows by Pythagoras, with no norm of its own.  The
    # loop runs in the differences' frame, so each apply is the frame's
    # identity weight, not M (test_dense_run_makes_no_product_with_m)
    rng = np.random.default_rng(61)
    weight = random_weight(rng, 10, "dense")
    x = np.asarray(iterate(random_linear_problem(rng, 10), 8))
    weight_calls.clear()
    hist = run(x, weight, k_max=6)
    # counted before the factors are read: a first read regrows them
    assert weight_calls == ["apply"] * 7
    assert hist.factors.k == 7
    u_norms = [weight.norm(hist.differences[:, k]) for k in range(7)]
    assert_allclose([rec.u_norm for rec in hist.records], u_norms,
                    rtol=1e-13)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_dense_run_makes_no_product_with_m(monkeypatch, complex_):
    # the difference block is framed (L^H U, M = L L^H) a column block
    # at a time, and the loop runs under the identity weight: no apply, norm or GEMV
    # with M, and the first read of factors maps the frame's Q back
    # without one either
    applied, apply = [], WeightOperator.apply

    def counting(self, z):
        applied.append(self.kind)
        return apply(self, z)

    monkeypatch.setattr(WeightOperator, "apply", counting)
    rng = np.random.default_rng(74)
    n = 10
    weight = WeightOperator.dense(random_pd_matrix(rng, n, complex_))
    hist = run(random_sequence(rng, n, 9, complex_), weight)
    assert hist.stages == 8 and applied == ["identity"] * 8
    f = hist.factors
    assert f.k == 8 and applied == ["identity"] * 16
    assert_allclose(weight.matrix() @ f.q, f.p, rtol=0,
                    atol=1e-13 * np.abs(f.p).max())
    assert f.orthonormality_defect() < 1e-14


def test_early_stop_frees_unused_factor_columns():
    # T with three distinct eigenvalues: the run reaches its terminal
    # stage at k = 3 of k_max = 100.  Its loop returns leading views of
    # buffers sized for 101 columns, which the run drops: the history
    # holds a copy of R's leading 3 x 3 block and no Q or P.  Apart,
    # the loop's factors are mgs_factorize's, Q and P column-major
    rng = np.random.default_rng(62)
    n, k_max = 500, 100
    t = np.resize([0.5, -0.3, 0.2], n)
    d = rng.standard_normal(n)
    x = np.empty((k_max + 2, n), dtype=complex)
    x[0] = rng.standard_normal(n)
    for i in range(k_max + 1):
        x[i + 1] = t * x[i] + d
    weight = WeightOperator.identity(n)
    tracemalloc.start()
    try:
        hist = run(x, weight, k_max=k_max)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert hist.detected_k0 == 3 and hist.r.shape == (3, 3)
    assert held < 1.5 * hist.differences.nbytes
    _, grown = run_grown(x, weight, k_max=k_max)
    assert grown.k == 3
    one_shot = mgs_factorize(hist.differences[:, :3], weight)
    for got, want in ((grown.q, one_shot.q), (grown.r, one_shot.r),
                      (grown.p, one_shot.p)):
        assert_array_equal(got, want)
    assert grown.q.flags.f_contiguous
    assert grown.p.flags.f_contiguous


@pytest.fixture
def loop_peak(monkeypatch):
    """Where the stage phase starts (the entry to
    ``extrapolate._records``, once the run has dropped Q and P), records
    the tracemalloc peak under ``"peak"`` and resets it, so a peak read
    after a run is the stage phase's."""
    records, loop = extrapolate._records, {}

    def resetting(*args, **kwargs):
        loop["peak"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        return records(*args, **kwargs)

    monkeypatch.setattr(extrapolate, "_records", resetting)
    return loop


@pytest.mark.parametrize("kind, n, bound", [("identity", 2000, 0.5),
                                             ("diag", 2000, 0.75),
                                             ("dense", 600, 0.75)],
                         ids=["identity", "diag", "dense"])
def test_early_stop_frees_the_grown_buffers_before_the_stages(loop_peak,
                                                              kind, n, bound):
    # `stop` independent differences and then a zero one: the run
    # converges at stage `stop` of k_max = 2 stop.  At the stop the loop
    # returns leading views of its full buffers and copies nothing, so
    # the run's peak up to the stage phase is the differences and the
    # full buffers plus under 0.3 of one buffer (0.16 to 0.26 here;
    # 0.58 to 0.67 when the stop copied Q's leading block).  The run
    # drops the views before the stage phase, so its scratch, measured
    # from where that phase starts, stays under the bound, and its peak
    # too is under the full buffers plus 0.3 of one.  The weights are
    # real, so the buffers are float64
    rng = np.random.default_rng(66)
    stop = 40
    x = np.empty((2 * stop + 2, n))
    x[:stop + 1] = rng.standard_normal((stop + 1, n))
    x[stop + 1:] = x[stop]
    weight = (WeightOperator.dense(random_pd_matrix(rng, n, complex_=False))
              if kind == "dense" else random_weight(rng, n, kind))
    tracemalloc.start()
    try:
        hist = run(x, weight, k_max=2 * stop)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hist.status is RunStatus.CONVERGED and hist.detected_k0 == stop
    buffer = n * (2 * stop + 1) * 8  # the differences', Q's and P's
    full = 2 if weight.kind == "identity" else 3
    assert loop_peak["peak"] - full * buffer < 0.3 * buffer
    assert peak - held < bound * buffer
    assert peak - full * buffer < 0.3 * buffer


def test_stage_phase_builds_xi_in_gammas_block(loop_peak):
    # xi overwrites the gamma block once the records have copied their
    # gammas, so the stage phase's scratch, measured from where that
    # phase starts, stays under 1.75 gamma blocks (1.35 here; a xi block of
    # its own made it 2.03)
    rng = np.random.default_rng(73)
    n, k = 300, 80
    x = np.asarray(iterate(random_linear_problem(rng, n, 0.95), k + 1))
    tracemalloc.start()
    try:
        hist = run(x, WeightOperator.identity(n), k_max=k)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hist.status is RunStatus.COMPLETED
    gamma_block = (k + 2) * (2 * k + 2) * hist.differences.itemsize
    assert peak - held < 1.75 * gamma_block


@pytest.mark.parametrize("early", [False, True], ids=["full", "early-stop"])
@pytest.mark.parametrize("kind", ["identity", "diag", "dense"])
def test_stage_phase_reads_no_q_or_p(monkeypatch, kind, early):
    # once the QR loop returns, every s comes from the differences and
    # R: a run whose returned Q and P are NaN gives the same records,
    # and its history holds no array that shares memory with them
    rng = np.random.default_rng(67)
    n = 12
    weight = random_weight(rng, n, kind)
    if early:  # three distinct eigenvalues: terminal at stage 3 of 8
        problem = FixedPointProblem.linear(
            np.diag(np.resize([0.5, -0.3, 0.2], n)), rng.standard_normal(n),
            rng.standard_normal(n))
        x = np.asarray(iterate(problem, 9))
    else:
        x = random_sequence(rng, n, 9, complex_=True)
    clean = run(x, weight)
    grow, returned = extrapolate._grow_known, []

    def poisoned(*args, **kwargs):
        r, factors, norms = grow(*args, **kwargs)
        factors.q[...] = np.nan
        factors.p[...] = np.nan
        returned.extend([factors.q, factors.p])
        return r, factors, norms

    monkeypatch.setattr(extrapolate, "_grow_known", poisoned)
    hist = run(x, weight)
    assert not any(np.shares_memory(a, b)
                   for a in held_arrays(hist) for b in returned)
    assert hist.detected_k0 == (3 if early else None)
    assert hist.stages == clean.stages == (4 if early else 8)
    for got, want in zip(hist.records, clean.records):
        assert (got.k, got.u_norm, got.rdiag, got.terminal) == \
            (want.k, want.u_norm, want.rdiag, want.terminal)
        for a, b in ((got.mpe, want.mpe), (got.rre, want.rre)):
            assert (a.exists, a.phi, a.alpha, a.lam) == \
                (b.exists, b.phi, b.alpha, b.lam)
            if b.s is None:
                assert a.s is None and a.gamma is None
                continue
            assert_array_equal(a.gamma, b.gamma)
            assert weight.norm(a.s - b.s) <= 1e-13 * weight.norm(b.s)


@pytest.mark.parametrize("stop", ["full", "early-stop", "k-max"])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("kind", ["identity", "diag", "dense"])
def test_factors_regrow_bit_identically(tmp_path, kind, complex_, stop):
    # the history keeps R alone; its factors, grown on first read, are
    # bit for bit the ones the run's loop returned and a loaded copy's:
    # each frames the stored difference block in the same column
    # blocks, whatever the run accepted of it.  mgs_factorize frames only the columns it is
    # given, so under a dense M (a GEMM's bits depend on its width) it
    # agrees to roundoff when they are fewer, and bit for bit
    # otherwise.  M is complex only for complex data; T's three
    # eigenvalues stop an early run at stage 3, and a k-max run is given
    # 9 iterates for stage 4
    rng = np.random.default_rng(70)
    n = 12
    weight = (WeightOperator.dense(random_pd_matrix(rng, n, complex_))
              if kind == "dense" else random_weight(rng, n, kind))
    if stop == "early-stop":
        d = rng.standard_normal(n) + (1j * rng.standard_normal(n)
                                      if complex_ else 0.0)
        x = np.asarray(iterate(FixedPointProblem.linear(
            np.diag(np.resize([0.5, -0.3, 0.2], n)), d,
            np.zeros(n, d.dtype)), 9))
    else:
        x = random_sequence(rng, n, 9, complex_)
    hist, grown = run_grown(x, weight, k_max=4 if stop == "k-max" else None)
    assert hist.detected_k0 == (3 if stop == "early-stop" else None)
    # R's buffer itself when the run does not stop early, else a copy
    # of its leading block
    assert_array_equal(hist.r, grown.r)
    assert np.shares_memory(hist.r, grown.r) == (stop != "early-stop")
    m = grown.k
    width = hist.differences.shape[1]
    assert m == {"full": 8, "early-stop": 3, "k-max": 5}[stop]
    assert (m < width) == (stop != "full")
    save_history(hist, tmp_path / "hist.json")
    back = load_history(tmp_path / "hist.json")
    one_shot = mgs_factorize(hist.differences[:, :m], weight)
    for f in (hist.factors, back.factors, one_shot):
        assert f.k == m and f.q.dtype == grown.q.dtype
        assert (f.p is f.q) == (kind == "identity")
        for got, want in ((f.q, grown.q), (f.r, grown.r), (f.p, grown.p)):
            if f is one_shot and kind == "dense" and m < width:
                assert_allclose(got, want, rtol=0,
                                atol=1e-13 * np.abs(want).max())
            else:
                assert_array_equal(got, want)


def test_frame_is_made_in_fixed_column_blocks(monkeypatch, tmp_path):
    # a known block is framed _FRAME_COLS columns at a time, at fixed
    # offsets, as the loop reaches them: an early stop or a small k_max
    # frames one block however many iterates the run is given, and a
    # full run frames each block once.  A column's frame bits depend on
    # its block alone, so R is the same floats whatever k_max, and the
    # run, its factors and a loaded copy agree bit for bit across blocks
    widths, frame = [], WeightOperator._frame

    def recording(self, u):
        widths.append(u.shape[1])
        return frame(self, u)

    monkeypatch.setattr(WeightOperator, "_frame", recording)
    b = qr._FRAME_COLS
    rng = np.random.default_rng(77)
    n, count = 80, 2 * b + 8
    weight = WeightOperator.dense(random_pd_matrix(rng, n))
    stop = FixedPointProblem.linear(np.diag(np.resize([0.5, -0.3, 0.2], n)),
                                    rng.standard_normal(n),
                                    rng.standard_normal(n))
    assert run(np.asarray(iterate(stop, count)), weight).detected_k0 == 3
    assert widths == [b]
    x = np.asarray(iterate(random_linear_problem(rng, n), count))
    widths.clear()
    small = run(x, weight, k_max=b // 2)
    assert small.stages == b // 2 + 1 and widths == [b]
    widths.clear()
    hist, grown = run_grown(x, weight)
    assert hist.differences.shape[1] == count == 2 * b + 8
    assert grown.k == count and widths == [b, b, 8]
    assert_array_equal(small.r, hist.r[:b // 2 + 1, :b // 2 + 1])
    mid = run(x, weight, k_max=b + 4)
    assert_array_equal(mid.r, hist.r[:b + 5, :b + 5])
    save_history(hist, tmp_path / "hist.json")
    back = load_history(tmp_path / "hist.json")
    for f in (hist.factors, back.factors):
        for got, want in ((f.q, grown.q), (f.r, grown.r), (f.p, grown.p)):
            assert_array_equal(got, want)
    assert hist.factors.orthonormality_defect() < 1e-13


def test_factors_are_grown_once(monkeypatch, tmp_path):
    # a run's first read of factors regrows them, one kernel call per
    # accepted column, and keeps them; a second read, a first read on a
    # loaded history (the loader keeps the frame's factors it grew) and
    # the relation check of a fresh run call the kernel not at all.
    # Q and P are mapped back from the frame once per history, on the
    # first read of its factors: never by the load or the check
    calls, orthogonalize = [], qr.orthogonalize_column
    unframed, unframe = [], WeightOperator._unframe

    def counting(*args):
        calls.append(args[0].k)
        return orthogonalize(*args)

    def mapping(self, qx):
        unframed.append(qx.shape[1])
        return unframe(self, qx)

    monkeypatch.setattr(qr, "orthogonalize_column", counting)
    monkeypatch.setattr(WeightOperator, "_unframe", mapping)
    rng = np.random.default_rng(71)
    weight = random_weight(rng, 10, "dense")
    hist = run(iterate(random_linear_problem(rng, 10), 7), weight)
    save_history(hist, tmp_path / "hist.json")
    back = load_history(tmp_path / "hist.json")
    calls.clear()
    verify_history(hist)
    verify_history(back)
    assert calls == [] and unframed == []
    first = hist.factors
    assert calls == list(range(first.k)) and first.k == 7
    assert unframed == [7]
    calls.clear()
    assert hist.factors is first and back.factors is back.factors
    assert calls == [] and unframed == [7, 7]


def test_history_built_without_r_has_no_factors():
    # the kept factors are no constructor argument, and a history given
    # no R has none to regrow
    weight = WeightOperator.identity(3)
    hist = extrapolate.RunHistory(weight, np.zeros(3), np.zeros((3, 0)))
    assert hist.r is None and hist.factors is None
    with pytest.raises(TypeError):
        extrapolate.RunHistory(weight, np.zeros(3), np.zeros((3, 0)),
                               _factors=None)


@pytest.mark.parametrize("early", [False, True], ids=["full", "early-stop"])
@pytest.mark.parametrize("kind", ["identity", "diag", "dense"])
def test_run_holds_its_outputs_alone(kind, early):
    # beside the differences, x0, the one s block (every record's s is a
    # row of it), R and each record's copy of its gammas, a run holds
    # only its records' Python objects, about 1.1 KiB per stage
    # (1.5 KiB allowed): neither Q nor P, each N x (k_max + 1) here
    # 8 KiB a column, far above that slack
    rng = np.random.default_rng(72)
    n, k = 400, 30
    weight = random_weight(rng, n, kind)
    problem = random_linear_problem(rng, n, 0.95)
    if early:  # six distinct eigenvalues: terminal at stage 6
        problem = FixedPointProblem.linear(
            np.diag(np.resize([0.5, -0.3, 0.2, 0.1, -0.6, 0.7], n)),
            problem.d, problem.x0)
    x = np.asarray(iterate(problem, k + 1))
    tracemalloc.start()
    try:
        hist = run(x, weight, k_max=k)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert hist.detected_k0 == (6 if early else None)
    stages, m = hist.stages, hist.r.shape[0]
    gammas = sum(solve.gamma.nbytes for rec in hist.records
                 for solve in (rec.mpe, rec.rre) if solve.gamma is not None)
    outputs = (hist.differences.nbytes + hist.x0.nbytes
               + (stages + m) * n * hist.differences.itemsize
               + hist.r.nbytes + gammas)
    assert held <= outputs + 1536 * stages


def test_run_holds_no_copy_of_the_iterates():
    # real iterates stored as complex128: the differences are taken from
    # their real view into the one (N, m) float64 block, so beside its
    # outputs the run holds no float copy of the iterates and no
    # transposed temporary, each about one N x (k + 2) float64 block
    rng = np.random.default_rng(64)
    n, k = 3000, 10
    x = random_sequence(rng, n, k + 2).astype(complex)
    tracemalloc.start()
    try:
        hist = run(x, WeightOperator.identity(n), k_max=k)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hist.differences.dtype == float and hist.x0.dtype == float
    assert hist.differences.flags.c_contiguous
    assert_array_equal(hist.differences, np.diff(x.real, axis=0).T)
    assert_array_equal(hist.x0, x[0].real)
    assert peak - held < 0.5 * n * (k + 2) * 8


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("kind", ["identity", "dense"])
def test_runs_to_different_k_max_agree_to_roundoff(kind, complex_, tmp_path):
    # the QR loop is the same floats whatever k_max; the blocked stage
    # solve and products round differently at another size, so the
    # stages two runs share agree to roundoff, not bit for bit
    rng = np.random.default_rng(65)
    n, k_max = 60, 30
    weight = random_weight(rng, n, kind)
    x = np.asarray(iterate(random_linear_problem(rng, n), k_max + 1))
    if not complex_:
        x = x.real
    full = run(x, weight, k_max=k_max)
    assert full.stages == k_max + 1
    for j in (0, 5, 17, 29):
        part = run(x, weight, k_max=j)
        for mine, theirs in zip(part.records, full.records):
            assert (mine.u_norm, mine.rdiag) == (theirs.u_norm, theirs.rdiag)
            for a, b in ((mine.mpe, theirs.mpe), (mine.rre, theirs.rre)):
                assert a.exists == b.exists
                assert_allclose(a.gamma, b.gamma, rtol=1e-9,
                                atol=1e-12 * np.abs(b.gamma).max())
                assert_allclose(a.s, b.s, rtol=1e-11,
                                atol=1e-13 * np.abs(b.s).max())
                assert_allclose(a.phi, b.phi, rtol=1e-11)
    # the same input and k_max write the same bytes
    for name in ("a.json", "b.json"):
        save_history(run(x, weight, k_max=17), tmp_path / name)
    assert (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "b.json").read_bytes()


def test_run_kmax_clamped_to_dimension():
    """Asking beyond stage N is meaningless; the run stops at N."""
    rng = np.random.default_rng(17)
    x = random_sequence(rng, 3, 9)
    hist = run(x, WeightOperator.identity(3), k_max=7)
    assert hist.k_max == 3
    assert hist.stages <= 4
    assert hist.records[-1].terminal


def test_extrapolation_at_k0_solves_linear_systems():
    rng = np.random.default_rng(90)
    for trial in range(5):
        problem = random_linear_problem(rng, 8)
        xs = iterate(problem, 10)
        hist = run(np.asarray(xs), random_weight(rng, 8))
        rec = hist.records[-1]
        assert rec.terminal
        exact = linear_solution(problem)
        assert np.linalg.norm(rec.mpe.s - exact) <= 1e-8 * (
            1.0 + np.linalg.norm(exact))
        assert np.linalg.norm(rec.mpe.s - rec.rre.s) <= 1e-10 * (
            1.0 + np.linalg.norm(rec.rre.s))


def test_exact_residual_matches_estimate_on_linear(demo_problem):
    """For linear f the estimate phi is the true residual norm."""
    xs = iterate(demo_problem, 6)
    hist = run(np.asarray(xs), WeightOperator.identity(2), k_max=1)
    rec = hist.record(1)
    for solve in (rec.mpe, rec.rre):
        r_true = residual(demo_problem, solve.s)
        assert_allclose(np.linalg.norm(r_true), solve.phi, rtol=1e-10)


def test_history_serialization_shape(demo_problem):
    from wextrap import history_rows, history_to_dict

    xs = iterate(demo_problem, 6)
    hist = run(np.asarray(xs), WeightOperator.identity(2), k_max=2)
    doc = history_to_dict(hist)
    assert doc["format"] == "wextrap-history"
    assert doc["version"] == 2
    assert doc["weight"] == {"kind": "identity"}
    assert len(doc["records"]) == 3
    rec1 = doc["records"][1]
    assert rec1["mpe"]["exists"] is True
    block = rec1["mpe"]["gamma"]
    assert block["shape"] == [2]
    gamma = np.frombuffer(base64.b64decode(block["b64"]), block["dtype"])
    assert_allclose(gamma, [-17.0 / 35.0, 52.0 / 35.0], atol=1e-13)
    # the demo is real, so every array is stored as real
    blocks = [doc["x0"], doc["differences"]] + [
        rec[m][key] for rec in doc["records"] for m in ("mpe", "rre")
        for key in ("gamma", "s")]
    assert {b["dtype"] for b in blocks} == {"<f8"}
    rows = history_rows(hist)
    assert [row["k"] for row in rows] == [0, 1, 2]
    assert rows[1]["phi_rre"] == pytest.approx(np.sqrt(9.0 / 388.0))
