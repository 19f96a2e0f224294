import base64
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

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
    mpe_coefficients,
    residual,
    rre_coefficients,
    run,
)

import rational_oracle as ro
from conftest import (
    random_linear_problem,
    random_sequence,
    random_weight,
)


def demo_factors(k, m=6):
    xs = ro.as_float_rows(ro.demo_iterates(m))
    u = np.diff(xs, axis=0).T
    return mgs_factorize(u[:, :k + 1], WeightOperator.identity(2)), xs


# -- coefficient solves against the exact-rational oracle -------------

def test_mpe_demo_stage_one_matches_oracle():
    oracle = ro.mpe_stage(ro.demo_iterates(3), 1)
    # freeze the oracle's own output so a regression there is loud too
    assert oracle["gamma"] == [Fraction(-17, 35), Fraction(52, 35)]
    assert oracle["alpha"] == Fraction(35, 52)
    assert oracle["phi2"] == Fraction(117, 4900)

    factors, _ = demo_factors(1)
    solve = mpe_coefficients(factors)
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

    factors, _ = demo_factors(1)
    solve = rre_coefficients(factors)
    assert_allclose(solve.gamma, ro.as_float(oracle["gamma"]), atol=1e-12)
    assert_allclose(solve.lam, float(oracle["lam"]), atol=1e-14)
    assert_allclose(solve.phi, np.sqrt(float(oracle["lam"])), atol=1e-13)


def test_demo_assembly_matches_oracle():
    m_or = ro.mpe_stage(ro.demo_iterates(3), 1)
    r_or = ro.rre_stage(ro.demo_iterates(3), 1)
    assert m_or["s"] == [Fraction(26, 35), Fraction(39, 35)]
    assert r_or["s"] == [Fraction(70, 97), Fraction(105, 97)]

    factors, xs = demo_factors(1)
    x0 = xs[0]
    s_mpe = assemble(x0, factors, mpe_coefficients(factors).gamma)
    s_rre = assemble(x0, factors, rre_coefficients(factors).gamma)
    assert_allclose(s_mpe, ro.as_float(m_or["s"]), atol=1e-12)
    assert_allclose(s_rre, ro.as_float(r_or["s"]), atol=1e-12)


def test_stage_zero_degenerate_forms():
    factors, xs = demo_factors(0)
    m = mpe_coefficients(factors)
    r = rre_coefficients(factors)
    assert m.exists and m.alpha == 1.0
    assert_allclose(m.gamma, [1.0])
    assert_allclose(r.gamma, [1.0], atol=1e-15)
    u0_norm = np.linalg.norm(xs[1] - xs[0])
    # phi_0 = |||u_0||| for both methods; lam = r_00^2
    assert_allclose(m.phi, u0_norm, rtol=1e-14)
    assert_allclose(r.phi, u0_norm, rtol=1e-14)
    assert_allclose(r.lam, u0_norm ** 2, rtol=1e-13)
    assert_allclose(assemble(xs[0], factors, m.gamma), xs[0])


def test_mpe_nonexistence_forced():
    # <u_0, u_1> = |||u_0|||^2 makes c' = (-1), alpha = 0
    u = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    factors = mgs_factorize(u, WeightOperator.identity(3))
    solve = mpe_coefficients(factors)
    assert not solve.exists
    assert abs(solve.alpha) < 1e-14
    assert solve.gamma is None and solve.phi is None and solve.s is None
    with pytest.raises(MpeNonexistent):
        assemble(np.zeros(3), factors, solve.gamma)


def test_rre_stagnation_pattern():
    u = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    factors = mgs_factorize(u, WeightOperator.identity(3))
    solve = rre_coefficients(factors)
    assert_allclose(solve.gamma, [1.0, 0.0], atol=1e-14)
    assert_allclose(solve.lam, 1.0, rtol=1e-14)


def test_rre_matches_gram_route():
    """Triangular solves vs the analytical normal-equation form."""
    rng = np.random.default_rng(50)
    for trial in range(20):
        n = int(rng.integers(4, 14))
        k = int(rng.integers(1, min(n - 1, 7)))
        u = rng.standard_normal((n, k + 1)) + 1j * rng.standard_normal(
            (n, k + 1))
        w = random_weight(rng, n)
        gram = np.array([[w.inner(u[:, i], u[:, j])
                          for j in range(k + 1)] for i in range(k + 1)])
        y = np.linalg.solve(gram, np.ones(k + 1))
        lam = 1.0 / y.sum()
        solve = rre_coefficients(mgs_factorize(u, w))
        assert_allclose(solve.gamma, lam.real * y, rtol=1e-8, atol=1e-10)
        assert_allclose(solve.lam, lam.real, rtol=1e-8)


def test_residual_estimate_equals_direct_norm():
    rng = np.random.default_rng(60)
    for trial in range(30):
        n = 20
        count = int(rng.integers(4, 11))
        x = random_sequence(rng, n, count, complex_=bool(trial % 2))
        w = random_weight(rng, n)
        u = np.diff(x, axis=0).T
        factors = mgs_factorize(u, w)
        m = mpe_coefficients(factors)
        r = rre_coefficients(factors)
        phi_direct_r = w.norm(u @ r.gamma)
        assert_allclose(r.phi, phi_direct_r, rtol=1e-10)
        assert abs(r.gamma.sum() - 1.0) <= 1e-12
        if m.exists:
            phi_direct_m = w.norm(u @ m.gamma)
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
        u = np.diff(x, axis=0).T
        factors = mgs_factorize(u, w)
        for solve in (mpe_coefficients(factors), rre_coefficients(factors)):
            if not solve.exists:
                continue
            k = solve.gamma.size - 1
            s_sum = (solve.gamma[:, None] * x[:k + 1]).sum(axis=0)
            s_lib = assemble(x[0], factors, solve.gamma)
            scale = np.linalg.norm(s_sum)
            assert np.linalg.norm(s_lib - s_sum) <= 1e-11 * max(1.0, scale)


def test_gamma_scale_invariance():
    # gamma does not depend on the c_k = 1 normalization of c
    factors, _ = demo_factors(1)
    solve = mpe_coefficients(factors)
    r = factors.r
    c_scaled = np.empty(2, dtype=complex)
    c_scaled[0] = np.linalg.solve(r[:1, :1], -7.5 * r[:1, 1])[0]
    c_scaled[1] = 7.5
    assert_allclose(c_scaled / c_scaled.sum(), solve.gamma, rtol=1e-13)


def test_lambda_guard_on_broken_factors():
    # lam = ||R^{-*}e||^{-2} is positive for every nonsingular R, so the
    # guard can only fire on corrupted factors: overflowed or NaN entries
    from wextrap.qr import WQRFactors

    w = WeightOperator.identity(2)
    underflowed = WQRFactors(w, np.eye(2, dtype=complex),
                             np.diag([1.0, 1e-300]).astype(complex),
                             np.eye(2, dtype=complex))
    with pytest.raises(LambdaNotPositive):
        rre_coefficients(underflowed)


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
    # solution matches the problem's own known fixed point
    assert_allclose(rec.rre.s, demo_problem.known_solution, atol=1e-12)


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
        exact = problem.known_solution
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
