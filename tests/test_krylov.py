import numpy as np
import pytest
from numpy.testing import assert_allclose

from wextrap import (
    FixedPointProblem,
    InsufficientVectors,
    WeightOperator,
    equivalence_check,
    fom_solve,
    gmr_solve,
    iterate,
    make_mpe_failure_problem,
    residual,
    run,
    verify_history,
)
from wextrap.krylov import _Stages
from wextrap.qr import RANK_TOL

import rational_oracle as ro
from conftest import random_contraction, random_pd_matrix, random_weight

DEMO_T = np.diag([0.5, 0.25])
DEMO_D = np.array([0.5, 0.75])
DEMO_X0 = np.zeros(2)


def test_identity_operator_breaks_down_immediately():
    # A = I - T with T = 0: the Krylov space is one-dimensional
    stages = _Stages(np.zeros((3, 3)), np.array([1.0, 2.0, 2.0]),
                     np.zeros(3), WeightOperator.identity(3), 3)
    assert stages.beta == pytest.approx(3.0)
    # the breakdown column is kept, with a tiny subdiagonal entry
    assert stages.hess.shape == (2, 1)
    assert abs(stages.hess[1, 0]) <= RANK_TOL


def test_two_eigencomponents_complete_at_two():
    stages = _Stages(DEMO_T, DEMO_D, DEMO_X0, WeightOperator.identity(2), 4)
    assert stages.hess.shape == (3, 2)
    a_v1 = stages.basis[:, 1] - DEMO_T @ stages.basis[:, 1]
    assert abs(stages.hess[2, 1]) <= RANK_TOL * np.linalg.norm(a_v1)


def test_zero_initial_residual():
    x_star = np.array([1.0, 1.0])
    stages = _Stages(DEMO_T, DEMO_D, x_star, WeightOperator.identity(2), 3)
    assert stages.beta == 0.0
    assert stages.hess.shape == (1, 0)


def test_basis_orthonormality_random():
    rng = np.random.default_rng(200)
    n = 20
    t = random_contraction(rng, n)
    d = rng.standard_normal(n)
    w = random_weight(rng, n, "dense")
    stages = _Stages(t, d, np.zeros(n), w, 8)
    assert stages.hess.shape == (9, 8)
    v = stages.basis
    m = v.shape[1]
    gram = np.array([[np.vdot(v[:, i], w.apply(v[:, j]))
                      for j in range(m)] for i in range(m)])
    assert np.max(np.abs(gram - np.eye(m))) < 1e-10


def test_arnoldi_one_mproduct_per_step(weight_calls):
    # M v_j is kept beside v_j: k steps take k products, plus one for beta
    rng = np.random.default_rng(205)
    n = 12
    t = random_contraction(rng, n)
    w = random_weight(rng, n, "dense")
    weight_calls.clear()
    stages = _Stages(t, rng.standard_normal(n), np.zeros(n), w, 5)
    assert stages.hess.shape == (6, 5)
    assert weight_calls == ["apply"] * 6


def test_arnoldi_relation():
    # A V_m = V_{m+1} H within the usual roundoff
    rng = np.random.default_rng(210)
    n = 12
    t = random_contraction(rng, n)
    d = rng.standard_normal(n)
    w = random_weight(rng, n)
    stages = _Stages(t, d, np.zeros(n), w, 5)
    v = stages.basis
    assert v.shape == (n, 6)
    a_v = v[:, :5] - t @ v[:, :5]
    assert np.max(np.abs(a_v - v @ stages.hess)) < 1e-12


def test_fom_demo_matches_oracle():
    oracle = ro.mpe_stage(ro.demo_iterates(3), 1)
    w1 = fom_solve(DEMO_T, DEMO_D, DEMO_X0, WeightOperator.identity(2), 1)
    assert_allclose(w1, ro.as_float(oracle["s"]), atol=1e-12)


def test_gmr_demo_matches_oracle():
    oracle = ro.rre_stage(ro.demo_iterates(3), 1)
    w1 = gmr_solve(DEMO_T, DEMO_D, DEMO_X0, WeightOperator.identity(2), 1)
    assert_allclose(w1, ro.as_float(oracle["s"]), atol=1e-12)


def test_full_dimension_is_exact():
    rng = np.random.default_rng(220)
    n = 7
    t = random_contraction(rng, n)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = np.linalg.solve(np.eye(n) - t, d)
    w = random_weight(rng, n)
    for solver in (fom_solve, gmr_solve):
        got = solver(t, d, np.zeros(n), w, n)
        assert np.linalg.norm(got - x) < 1e-9 * (1 + np.linalg.norm(x))


def test_stage_zero_returns_x0():
    w = WeightOperator.identity(2)
    assert_allclose(fom_solve(DEMO_T, DEMO_D, DEMO_X0, w, 0), DEMO_X0)
    assert_allclose(gmr_solve(DEMO_T, DEMO_D, DEMO_X0, w, 0), DEMO_X0)


def test_fom_not_defined_mirrors_mpe():
    problem = make_mpe_failure_problem(5)
    w = WeightOperator.identity(5)
    assert fom_solve(problem.t, problem.d, problem.x0, w, 1) is None
    hist = run(np.asarray(iterate(problem, 4)), w, k_max=1)
    assert hist.record(1).mpe.exists is False
    # gmr has no existence condition there
    w1 = gmr_solve(problem.t, problem.d, problem.x0, w, 1)
    assert np.all(np.isfinite(w1))


def test_gmr_residual_estimate_and_monotonicity():
    rng = np.random.default_rng(230)
    n = 15
    t = random_contraction(rng, n)
    d = rng.standard_normal(n)
    x0 = rng.standard_normal(n)
    w = random_weight(rng, n, "diag")
    prev = None
    for k in range(6):
        wk, est = gmr_solve(t, d, x0, w, k, with_residual=True)
        true_norm = w.norm(t @ wk + d - wk)
        assert_allclose(est, true_norm, rtol=1e-10, atol=1e-13)
        if prev is not None:
            assert est <= prev * (1.0 + 1e-12)
        prev = est


def coupled_stages(t, d, x0, weight, k_max):
    """verify_history's stages on the run equivalence_check makes."""
    problem = FixedPointProblem.linear(t, d, x0)
    hist = run(iterate(problem, k_max + 2), weight, k_max=k_max)
    return verify_history(hist).stages


def test_equivalence_demo():
    cmp = equivalence_check(DEMO_T, DEMO_D, DEMO_X0,
                            WeightOperator.identity(2), 2)
    assert cmp.ks == [0, 1, 2]
    assert all(cmp.definedness_consistent)
    for k in (1, 2):
        assert cmp.fom_mpe_defect[k] < 1e-10
        assert cmp.gmr_rre_defect[k] < 1e-10
    assert cmp.residual_match_rre[1] < 1e-10
    assert cmp.gmr_estimate_defect[1] < 1e-10
    # U_k gamma is the exact residual (above), so the coupling
    # identities on the same run are the exact-residual ones
    st = coupled_stages(DEMO_T, DEMO_D, DEMO_X0,
                        WeightOperator.identity(2), 2)[1]
    assert st.identity_316_residual < 1e-9
    assert st.identity_317_residual < 1e-9
    assert st.identity_318_residual < 1e-9
    assert st.monotone_355 is True


def test_equivalence_random_weights():
    rng = np.random.default_rng(240)
    for trial in range(6):
        n = 10
        t = random_contraction(rng, n)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x0 = rng.standard_normal(n)
        for w in (WeightOperator.identity(n),
                  WeightOperator.dense(random_pd_matrix(rng, n))):
            cmp = equivalence_check(t, d, x0, w, 4)
            assert all(cmp.definedness_consistent)
            for value in cmp.fom_mpe_defect + cmp.gmr_rre_defect:
                assert value is None or value < 1e-8
            for value in cmp.residual_match_mpe + cmp.residual_match_rre:
                assert value is None or value < 1e-8
            for st in coupled_stages(t, d, x0, w, 4):
                for value in (st.identity_316_residual,
                              st.identity_317_residual,
                              st.identity_318_residual):
                    assert value is None or value < 1e-8


def test_equivalence_check_six_norms_per_stage(weight_calls):
    # per stage with an MPE extrapolant: the FOM-MPE and GMR-RRE gaps,
    # and for each method |||r(s)||| and |||U_k gamma - r(s)|||
    rng = np.random.default_rng(250)
    n = 10
    t = random_contraction(rng, n)
    d = rng.standard_normal(n)
    w = WeightOperator.dense(random_pd_matrix(rng, n))
    weight_calls.clear()
    cmp = equivalence_check(t, d, np.zeros(n), w, 4)
    assert all(cmp.mpe_exists) and len(cmp.ks) == 5
    assert weight_calls.count("norm") == 6 * 5


def test_equivalence_on_failure_problem():
    problem = make_mpe_failure_problem(6)
    cmp = equivalence_check(problem.t, problem.d, problem.x0,
                            WeightOperator.identity(6), 1)
    assert cmp.fom_defined[1] is False
    assert cmp.mpe_exists[1] is False
    assert cmp.definedness_consistent[1] is True
    assert cmp.fom_mpe_defect[1] is None


def test_weighted_residual_identity_on_linear(demo_problem):
    """U_k gamma_k equals the exact residual r(s_k) for linear f."""
    xs = iterate(demo_problem, 5)
    hist = run(np.asarray(xs), WeightOperator.identity(2), k_max=1)
    rec = hist.record(1)
    u1 = hist.differences[:, :2]
    for solve in (rec.mpe, rec.rre):
        r_true = residual(demo_problem, solve.s)
        assert np.linalg.norm(u1 @ solve.gamma - r_true) < 1e-10


@pytest.mark.parametrize("solve", [
    lambda w: fom_solve(DEMO_T, DEMO_D, DEMO_X0, w, -1),
    lambda w: gmr_solve(DEMO_T, DEMO_D, DEMO_X0, w, -1, with_residual=True),
    lambda w: equivalence_check(DEMO_T, DEMO_D, DEMO_X0, w, -1),
], ids=["fom_solve", "gmr_solve", "equivalence_check"])
def test_negative_stage_rejected(solve):
    with pytest.raises(InsufficientVectors, match="must be nonnegative"):
        solve(WeightOperator.identity(2))


def _single_pass_problem(case):
    rng = np.random.default_rng(250)
    if case == "breakdown":
        # T = 0: A = I, so the Krylov space is invariant after one step
        n = 6
        return (np.zeros((n, n)), rng.standard_normal(n),
                rng.standard_normal(n), WeightOperator.identity(n), 4)
    if case == "mpe_failure":
        problem = make_mpe_failure_problem(6)
        return (problem.t, problem.d, problem.x0,
                WeightOperator.identity(6), 3)
    n = 14
    t = random_contraction(rng, n)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return t, d, rng.standard_normal(n), random_weight(rng, n, case), 8


@pytest.mark.parametrize("case", ["identity", "diag", "dense", "breakdown",
                                  "mpe_failure"])
def test_single_pass_matches_fresh_solves(case):
    """Every stage equivalence_check reads from its one Krylov process
    agrees with a standalone k-step solve."""
    t, d, x0, w, k_max = _single_pass_problem(case)
    cmp = equivalence_check(t, d, x0, w, k_max)
    hist = run(np.asarray(iterate(FixedPointProblem.linear(t, d, x0),
                                  k_max + 1)), w, k_max=k_max)
    assert cmp.ks == [rec.k for rec in hist.records]
    for idx, k in enumerate(cmp.ks):
        rec = hist.records[idx]
        w_fom = fom_solve(t, d, x0, w, k)
        w_gmr, est = gmr_solve(t, d, x0, w, k, with_residual=True)
        assert cmp.fom_defined[idx] is (w_fom is not None)
        # |defect(single pass) - defect(fresh)| is at most the weighted
        # distance between the two stage vectors
        if cmp.fom_mpe_defect[idx] is not None:
            assert abs(cmp.fom_mpe_defect[idx] - w.norm(w_fom - rec.mpe.s)) \
                <= 1e-12 * w.norm(w_fom)
        if cmp.gmr_rre_defect[idx] is not None:
            assert abs(cmp.gmr_rre_defect[idx] - w.norm(w_gmr - rec.rre.s)) \
                <= 1e-12 * w.norm(w_gmr)
        if cmp.gmr_estimate_defect[idx] is not None:
            r_true = w.norm(t @ rec.rre.s + d - rec.rre.s)
            scale = max(r_true, 1e-14 * w.norm(t @ x0 + d - x0))
            assert abs(cmp.gmr_estimate_defect[idx]
                       - abs(est - r_true) / scale) <= 1e-12 * est / scale
    if case == "breakdown":
        x_star = np.linalg.solve(np.eye(len(d)) - t, d)
        for k in range(1, k_max + 1):
            w_gmr, est = gmr_solve(t, d, x0, w, k, with_residual=True)
            assert_allclose(fom_solve(t, d, x0, w, k), x_star, rtol=1e-12)
            assert_allclose(w_gmr, x_star, rtol=1e-12)
            assert est <= 1e-12 * w.norm(x_star)
    if case == "mpe_failure":
        assert cmp.fom_defined[1] is False


def test_equivalence_check_applies_t_linearly_often():
    """A callable T gives the matrix path's answer, and the check applies
    it O(k) times: once per iterate, per residual and per Arnoldi step."""
    rng = np.random.default_rng(260)
    n, k = 100, 20
    t = np.asarray(random_contraction(rng, n), dtype=complex)
    d = rng.standard_normal(n)
    x0 = np.zeros(n)
    w = WeightOperator.identity(n)
    calls = []

    def counting_t(z):
        calls.append(1)
        return t @ z

    cmp = equivalence_check(counting_t, d, x0, w, k)
    assert cmp.ks[-1] == k
    assert len(calls) <= 4 * k + 5
    assert cmp == equivalence_check(t, d, x0, w, k)
    for solve in (fom_solve, gmr_solve):
        calls.clear()
        solve(counting_t, d, x0, w, k)
        assert len(calls) <= k + 1
