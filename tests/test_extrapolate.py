import base64
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import solve_triangular

from wextrap import (
    DimensionMismatch,
    InsufficientVectors,
    LambdaNotPositive,
    MpeNonexistent,
    NonFiniteIterate,
    RunStatus,
    WeightOperator,
    assemble,
    iterate,
    mgs_factorize,
    residual,
    run,
)

import rational_oracle as ro
from conftest import (
    linear_solution,
    random_linear_problem,
    random_sequence,
    random_weight,
)


def iterates_from(u):
    """Iterates x_0 = 0, x_{j+1} = x_j + u_j of the difference columns."""
    return np.vstack([np.zeros(u.shape[0], dtype=u.dtype),
                      np.cumsum(u.T, axis=0)])


def demo_run(k, m=6):
    xs = ro.as_float_rows(ro.demo_iterates(m))
    return run(xs, WeightOperator.identity(2), k_max=k), xs


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
    for factors in (hist.factors, hist.factors_at(0)):
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
    with pytest.raises(MpeNonexistent):
        assemble(np.zeros(3), hist.factors, solve.gamma)


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
            gamma = two_solve_rre(hist.factors_at(rec.k).r)
            assert_allclose(rec.rre.gamma, gamma, rtol=1e-10, atol=1e-12)
            assert_allclose(rec.rre.lam, 1.0 / np.linalg.norm(
                solve_triangular(hist.factors_at(rec.k).r,
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
    two_solves = worst([two_solve_rre(hist.factors_at(j).r)
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
    # the CGS2 kernel's one product with M per difference column gives
    # r_kk; |||u_k||| follows by Pythagoras, with no norm of its own
    rng = np.random.default_rng(61)
    weight = random_weight(rng, 10, "dense")
    x = np.asarray(iterate(random_linear_problem(rng, 10), 8))
    weight_calls.clear()
    hist = run(x, weight, k_max=6)
    assert hist.factors.k == 7
    assert weight_calls == ["apply"] * 7
    u_norms = [weight.norm(hist.differences[:, k]) for k in range(7)]
    assert_allclose([rec.u_norm for rec in hist.records], u_norms,
                    rtol=1e-13)


def test_early_stop_frees_unused_factor_columns():
    # T with three distinct eigenvalues: the run reaches its terminal
    # stage at k = 3 of k_max = 100, and keeps a copy of the leading
    # Q/P/R block, not buffers sized for 101 columns
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
    assert hist.detected_k0 == 3 and hist.factors.k == 3
    assert held < 1.5 * hist.differences.nbytes
    one_shot = mgs_factorize(hist.differences[:, :3], weight)
    for got, want in ((hist.factors.q, one_shot.q),
                      (hist.factors.r, one_shot.r),
                      (hist.factors.p, one_shot.p)):
        assert_array_equal(got, want)
    assert hist.factors.q.flags.f_contiguous
    assert hist.factors.p.flags.f_contiguous


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
