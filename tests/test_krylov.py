import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wextrap import (
    DimensionMismatch,
    FixedPointProblem,
    InsufficientVectors,
    WeightOperator,
    equivalence_check,
    fom_solve,
    gmr_solve,
    iterate,
    residual,
    run,
    verify_history,
)
from wextrap import cli, extrapolate, krylov
from wextrap.krylov import _problem, _Stages
from wextrap.mmio import write_matrix, write_vector
from wextrap.qr import RANK_TOL

from adversarial import make_mpe_failure_problem, make_near_stagnation_problem
import rational_oracle as ro
from conftest import random_contraction, random_pd_matrix, random_weight

DEMO_T = np.diag([0.5, 0.25])
DEMO_D = np.array([0.5, 0.75])
DEMO_X0 = np.zeros(2)


def test_identity_operator_breaks_down_immediately():
    # A = I - T with T = 0: the Krylov space is one-dimensional
    stages = _Stages(*_problem(np.zeros((3, 3)), np.array([1.0, 2.0, 2.0]),
                               np.zeros(3), WeightOperator.identity(3)), 3)
    assert stages.beta == pytest.approx(3.0)
    # the breakdown column is kept, with a tiny subdiagonal entry
    assert stages.hess.shape == (2, 1)
    assert abs(stages.hess[1, 0]) <= RANK_TOL


def test_two_eigencomponents_complete_at_two():
    stages = _Stages(*_problem(DEMO_T, DEMO_D, DEMO_X0,
                               WeightOperator.identity(2)), 4)
    assert stages.hess.shape == (3, 2)
    a_v1 = stages.basis[:, 1] - DEMO_T @ stages.basis[:, 1]
    assert abs(stages.hess[2, 1]) <= RANK_TOL * np.linalg.norm(a_v1)


def test_zero_initial_residual():
    x_star = np.array([1.0, 1.0])
    stages = _Stages(*_problem(DEMO_T, DEMO_D, x_star,
                               WeightOperator.identity(2)), 3)
    assert stages.beta == 0.0
    assert stages.hess.shape == (1, 0)


def test_basis_orthonormality_random():
    rng = np.random.default_rng(200)
    n = 20
    t = random_contraction(rng, n)
    d = rng.standard_normal(n)
    w = random_weight(rng, n, "dense")
    stages = _Stages(*_problem(t, d, np.zeros(n), w), 8)
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
    stages = _Stages(*_problem(t, rng.standard_normal(n), np.zeros(n), w), 5)
    assert stages.hess.shape == (6, 5)
    assert weight_calls == ["apply"] * 6


def test_arnoldi_relation():
    # A V_m = V_{m+1} H within the usual roundoff
    rng = np.random.default_rng(210)
    n = 12
    t = random_contraction(rng, n)
    d = rng.standard_normal(n)
    w = random_weight(rng, n)
    stages = _Stages(*_problem(t, d, np.zeros(n), w), 5)
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


def test_equivalence_check_one_block_product_for_its_norms(weight_calls):
    # k + 1 products in run, k + 1 in Arnoldi, and one block product for
    # every stage's FOM-MPE and GMR-RRE gaps, |||r(s)||| and
    # |||U_k gamma - r(s)|||, whatever k
    rng = np.random.default_rng(250)
    n = 10
    t = random_contraction(rng, n)
    d = rng.standard_normal(n)
    w = WeightOperator.dense(random_pd_matrix(rng, n))
    for k in (1, 4, 7):
        weight_calls.clear()
        cmp = equivalence_check(t, d, np.zeros(n), w, k)
        assert all(cmp.mpe_exists) and len(cmp.ks) == k + 1
        assert weight_calls.count("norm") == 1
        assert weight_calls.count("apply") == 2 * (k + 1) + 1


@pytest.mark.parametrize("shape, n", [((3, 4), 3), ((4, 3), 3), ((4, 4), 3),
                                      ((3, 3), 4)],
                         ids=["shape0", "shape1", "shape2", "weight4"])
@pytest.mark.parametrize("solve", [fom_solve, gmr_solve, equivalence_check])
def test_matrix_t_must_be_n_by_n(shape, n, solve):
    # the message names T's shape and the weight's dimension, so a
    # weight of the wrong size is not blamed on T
    with pytest.raises(DimensionMismatch, match=re.escape(
            f"T of shape {shape}, weight of dimension {n}")):
        solve(np.ones(shape), np.ones(n), np.zeros(n),
              WeightOperator.identity(n), 2)


@pytest.mark.parametrize("d_len, x0_len", [(3, 4), (4, 3), (1, 4), (4, 5)],
                         ids=["short-d", "short-x0", "length-1-d", "long-x0"])
@pytest.mark.parametrize("entry", ["fom_solve", "gmr_solve",
                                   "equivalence_check", "krylov-compare"])
def test_d_and_x0_must_be_n_vectors(entry, d_len, x0_len, tmp_path, capsys):
    # the message names both shapes and the weight's dimension, as the
    # T message does; the CLI reports it with exit 3
    t, d, x0 = 0.5 * np.eye(4), np.ones(d_len), np.zeros(x0_len)
    message = (f"d of shape ({d_len},), x0 of shape ({x0_len},), "
               "weight of dimension 4")
    if entry == "krylov-compare":
        paths = [str(tmp_path / name) for name in ("T.mtx", "d.vec", "x0.vec")]
        write_matrix(paths[0], t)
        write_vector(paths[1], d)
        write_vector(paths[2], x0)
        rc = cli.main(["krylov-compare", "--linear", *paths[:2],
                       "--x0", paths[2], "--k-max", "2"])
        assert rc == 3
        assert message in capsys.readouterr().err
        return
    with pytest.raises(DimensionMismatch, match=re.escape(message)):
        getattr(krylov, entry)(t, d, x0, WeightOperator.identity(4), 2)


def test_equivalence_check_converged_at_stage_zero():
    # T = 0 and d = 0 from x0 = 0: x_1 = x_0, so the run's only record
    # is terminal at k = 0 and both sides sit at x0 with no residual
    cmp = equivalence_check(np.zeros((3, 3)), np.zeros(3), np.zeros(3),
                            WeightOperator.identity(3), 3)
    assert cmp.ks == [0]
    assert cmp.fom_defined == cmp.mpe_exists == [True]
    assert cmp.definedness_consistent == [True]
    for defects in (cmp.fom_mpe_defect, cmp.gmr_rre_defect,
                    cmp.residual_match_mpe, cmp.residual_match_rre,
                    cmp.gmr_estimate_defect):
        assert defects == [0.0]


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
    if case == "two_step_breakdown":
        # two eigenvalues: K_2 is invariant, and H_2 is regular, so FOM
        # is defined at the breakdown stage (a consistent system)
        return (np.diag([0.5, 0.5, -0.25, -0.25]),
                np.array([1.0, -2.0, 0.5, 3.0]), np.zeros(4),
                WeightOperator.identity(4), 3)
    n = 14
    t = random_contraction(rng, n)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return t, d, rng.standard_normal(n), random_weight(rng, n, case), 8


@pytest.mark.parametrize("case", ["identity", "diag", "dense", "breakdown",
                                  "two_step_breakdown", "mpe_failure"])
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
    # the matrix takes r(s) from one block product, which sums in another
    # order than the callable's products one column at a time: only the
    # fields read from r(s) may move, at roundoff
    ref = equivalence_check(t, d, x0, w, k)
    for name in ("ks", "fom_defined", "mpe_exists", "definedness_consistent",
                 "fom_mpe_defect", "gmr_rre_defect"):
        assert getattr(cmp, name) == getattr(ref, name)
    for name in ("residual_match_mpe", "residual_match_rre",
                 "gmr_estimate_defect"):
        got, want = getattr(cmp, name), getattr(ref, name)
        assert [v is None for v in got] == [v is None for v in want]
        assert all(abs(a - b) <= 1e-12
                   for a, b in zip(got, want) if a is not None)
    for solve in (fom_solve, gmr_solve):
        calls.clear()
        solve(counting_t, d, x0, w, k)
        assert len(calls) <= k + 1


def test_callable_t_is_handed_vectors_only():
    """A callable need not accept a block: every application is to one
    (N,) vector, k + 1 for the iterates, one per Arnoldi step and one per
    residual column of each method."""
    rng = np.random.default_rng(262)
    n, k = 12, 6
    t = random_contraction(rng, n)
    d = rng.standard_normal(n)
    x0 = np.zeros(n)
    w = WeightOperator.identity(n)
    calls = []

    def vector_t(z):
        if np.ndim(z) != 1 or len(z) != n:
            raise ValueError(f"T applied to shape {np.shape(z)}")
        calls.append(1)
        return t @ z

    cmp = equivalence_check(vector_t, d, x0, w, k)
    assert cmp.ks == list(range(k + 1))
    residuals = sum(cmp.mpe_exists) + sum(
        v is not None for v in cmp.gmr_rre_defect)
    assert len(calls) == (k + 1) + (k + 1) + residuals
    for k_solve in (0, 1, k):
        calls.clear()
        assert fom_solve(vector_t, d, x0, w, k_solve).shape == (n,)
        w_gmr, _ = gmr_solve(vector_t, d, x0, w, k_solve, with_residual=True)
        assert w_gmr.shape == (n,)
        assert len(calls) == 2 * (k_solve + 1)


@pytest.mark.parametrize("field", [float, complex])
@pytest.mark.parametrize("kind", ["identity", "diag", "dense"])
def test_residual_columns_match_per_column_products(monkeypatch, field,
                                                    kind):
    """The r(s) columns of the one block product with T are each stage's
    T s + d - s to roundoff.  They are read from the block whose norms
    equivalence_check takes: [FOM - MPE | GMR - RRE | S | r(S) | ...],
    S holding MPE's then RRE's s."""
    rng = np.random.default_rng(264)
    n, k = 16, 9
    t = random_contraction(rng, n)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if field is float:
        t, d = t.real, d.real
    w = (WeightOperator.dense(random_pd_matrix(rng, n, field is complex))
         if kind == "dense" else random_weight(rng, n, kind))
    blocks = []
    norm = WeightOperator.norm

    def keeping(self, z):
        blocks.append(np.array(z))
        return norm(self, z)

    monkeypatch.setattr(WeightOperator, "norm", keeping)
    cmp = equivalence_check(t, d, np.zeros(n), w, k)
    (block,) = [b for b in blocks if b.ndim == 2]
    assert block.dtype == field
    paired, rre = (sum(v is not None for v in getattr(cmp, name))
                   for name in ("fom_mpe_defect", "gmr_rre_defect"))
    width = sum(cmp.mpe_exists) + rre
    assert width == 2 * (k + 1)
    s = block[:, paired + rre:][:, :width]
    r = block[:, paired + rre + width:][:, :width]
    for j in range(width):
        want = t @ s[:, j] + d - s[:, j]
        bound = np.abs(t) @ np.abs(s[:, j]) + np.abs(d) + np.abs(s[:, j])
        assert np.all(np.abs(r[:, j] - want) <= 1e-14 * bound)


@pytest.mark.parametrize("case, k_max, verdict", [
    ("mpe_failure", 4, ([0, 1, 2], [True, False, True])),
    ("near_stagnation", 4, ([0, 1, 2], [True, True, True])),
    ("identity", 2, ([0, 1], [True, False])),
])
def test_verdicts_on_the_undefined_and_near_stagnating_fixtures(case, k_max,
                                                               verdict):
    # the fields a caller judges, as they read before r(s) was taken
    # from one block product
    if case == "identity":
        t, d, x0 = np.eye(3), np.ones(3), np.zeros(3)
    else:
        problem = (make_mpe_failure_problem(6) if case == "mpe_failure"
                   else make_near_stagnation_problem(6, eps=1e-12))
        t, d, x0 = problem.t, problem.d, problem.x0
    cmp = equivalence_check(t, d, x0, WeightOperator.identity(len(d)), k_max)
    ks, defined = verdict
    assert cmp.ks == ks
    assert cmp.fom_defined == cmp.mpe_exists == defined
    assert all(cmp.definedness_consistent)


def _per_stage_solves(stages, k):
    """Stage-k FOM and GMR by the per-stage route: the square Hessenberg
    system H_m y = beta e_1 and the (m+1) x m least-squares problem."""
    m = min(k, stages.hess.shape[1])
    h = stages.hess[:m + 1, :m]
    rhs = np.zeros(m + 1, dtype=complex)
    rhs[0] = stages.beta
    y_fom = np.linalg.solve(h[:m], rhs[:m])
    y_gmr = np.linalg.lstsq(h, rhs, rcond=None)[0]
    return [stages.x0 + stages.basis[:, :m] @ y for y in (y_fom, y_gmr)]


def _rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("case", ["identity", "diag", "dense", "breakdown",
                                  "two_step_breakdown"])
def test_one_solve_matches_per_stage_solves(case):
    """FOM and GMR read from the one triangular solve agree with the
    square Hessenberg solve and the least-squares solve of each stage."""
    t, d, x0, w, k_max = _single_pass_problem(case)
    stages = _Stages(*_problem(t, d, x0, w), k_max)
    w_gmr, w_fom, defined, _ = stages.every(range(1, k_max + 1))
    assert defined.all()
    for k in range(1, k_max + 1):
        fom_ref, gmr_ref = _per_stage_solves(stages, k)
        assert _rel_err(w_fom[:, k - 1], fom_ref) <= 1e-12
        assert _rel_err(w_gmr[:, k - 1], gmr_ref) <= 1e-12


@pytest.mark.parametrize("case", ["identity", "diag", "dense", "breakdown",
                                  "two_step_breakdown", "mpe_failure"])
def test_every_stage_in_one_product_matches_each_stage(case):
    """The stage columns equivalence_check reads (one product with the
    basis per method) are each stage's fom_solve and gmr_solve, to
    roundoff; FOM's column is x0 where it is not defined."""
    t, d, x0, w, k_max = _single_pass_problem(case)
    stages = _Stages(*_problem(t, d, x0, w), k_max)
    ks = list(range(k_max + 1))
    w_gmr, w_fom, defined, estimates = stages.every(ks)
    for k in ks:
        gmr, estimate = gmr_solve(t, d, x0, w, k, with_residual=True)
        fom = fom_solve(t, d, x0, w, k)
        assert defined[k] == (fom is not None)
        assert estimates[k] == estimate
        assert_allclose(w_gmr[:, k], gmr, rtol=1e-13,
                        atol=1e-14 * np.abs(gmr).max())
        want = stages.x0 if fom is None else fom
        assert_allclose(w_fom[:, k], want, rtol=1e-13,
                        atol=1e-14 * np.abs(want).max())
    assert defined.all() == (case != "mpe_failure")


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
def test_near_stagnation_fom_against_rational_oracle(eps):
    # the FOM step is scaled by 1/|c|^2, large as eps shrinks; against
    # the exact minimal-polynomial extrapolant of the same iterates it
    # must be as accurate as the square Hessenberg solve
    problem = make_near_stagnation_problem(6, eps=eps)
    xs = np.asarray(iterate(problem, 3))
    assert not np.any(xs.imag)
    # the Krylov space is invariant from stage 2
    stages = _Stages(*_problem(problem.t, problem.d, problem.x0,
                               WeightOperator.identity(6)), 2)
    _, w_fom, defined, _ = stages.every([1, 2])
    assert defined.all()
    for k in (1, 2):
        exact = ro.as_float(
            ro.mpe_stage(ro.frac_vectors(xs.real.tolist()), k)["s"])
        fom_ref, _ = _per_stage_solves(stages, k)
        assert _rel_err(w_fom[:, k - 1], exact) \
            <= max(2.0 * _rel_err(fom_ref, exact), 1e-15)


@pytest.mark.parametrize("k", [1, 4, 8])
def test_stages_take_one_solve(monkeypatch, k):
    # every stage's FOM and GMR are read from one triangular solve
    calls = []
    solve = np.linalg.solve

    def counting(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counting)
    rng = np.random.default_rng(270)
    n = 12
    stages = _Stages(*_problem(random_contraction(rng, n),
                               rng.standard_normal(n), np.zeros(n),
                               WeightOperator.identity(n)), k)
    assert stages.every(range(k + 1))[2].all()
    assert len(calls) == 1


def test_one_coupling_algebra_for_both_pipelines(monkeypatch):
    # the run's MPE/RRE and Arnoldi's FOM/GMR take their coefficients
    # from the one function, and the Krylov problem is prepared once
    calls = {"coefficients": 0, "in_field": 0}

    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(extrapolate, "_coefficients", counting(
        "coefficients", extrapolate._coefficients))
    monkeypatch.setattr(krylov, "_in_field", counting(
        "in_field", krylov._in_field))
    t, d, x0, w, k_max = _single_pass_problem("dense")
    equivalence_check(t, d, x0, w, k_max)
    assert calls == {"coefficients": 2, "in_field": 1}
    calls["coefficients"] = 0
    fom_solve(t, d, x0, w, k_max)
    assert calls["coefficients"] == 1
    assert not hasattr(krylov, "_givens")
    assert not hasattr(krylov, "_triangularize")


def _zero_column_problem(case):
    n = 4
    if case == "identity":
        # T = I: A = 0, so A r_0 = 0
        return np.eye(n), np.ones(n), np.zeros(n)
    t = np.diag([1.0, 0.5, 0.25, 0.125])
    if case == "unit_eigenvector":
        # r_0 = 2 e_1 lies on T's eigenvalue 1
        return t, 2.0 * np.eye(n)[0], np.zeros(n)
    # A = diag(0, 1/2, 1/2, 1/2) is singular on K_2 = span{e_1, (0,1,1,1)}:
    # the second column is zero only in the frame of the first
    return np.diag([1.0, 0.5, 0.5, 0.5]), np.ones(n), np.zeros(n)


@pytest.mark.parametrize("case", ["identity", "unit_eigenvector",
                                  "singular_on_krylov_space"])
def test_zero_column_makes_fom_undefined_and_gmr_stagnate(case):
    t, d, x0 = _zero_column_problem(case)
    w = WeightOperator.identity(len(d))
    stages = _Stages(*_problem(t, d, x0, w), 3)
    last = stages.hess.shape[1]
    assert not stages.every([last])[2][0]
    assert fom_solve(t, d, x0, w, last) is None
    w_prev, est_prev = gmr_solve(t, d, x0, w, last - 1, with_residual=True)
    for k in (last, last + 1):
        w_k, est = gmr_solve(t, d, x0, w, k, with_residual=True)
        assert np.array_equal(w_k, w_prev)
        assert est == est_prev > 0.0
    cmp = equivalence_check(t, d, x0, w, 3)
    assert all(cmp.definedness_consistent)
    assert cmp.fom_defined[-1] is False and cmp.mpe_exists[-1] is False
    for name in ("fom_mpe_defect", "gmr_rre_defect", "residual_match_mpe",
                 "residual_match_rre", "gmr_estimate_defect"):
        assert all(v is None or v < 1e-12 for v in getattr(cmp, name))


def test_zero_column_identity_values():
    w = WeightOperator.identity(4)
    args = (np.eye(4), np.ones(4), np.zeros(4), w)
    assert fom_solve(*args, 1) is None
    w1, est = gmr_solve(*args, 1, with_residual=True)
    assert np.array_equal(w1, np.zeros(4)) and est == 2.0


def test_fom_gmr_gaps_are_relative():
    # near stagnation |||s_mpe(1)||| is about 1/eps: the FOM-MPE gap is
    # measured against it, not as an absolute weighted norm
    eps = 1e-7
    problem = make_near_stagnation_problem(6, eps=eps)
    w = WeightOperator.identity(6)
    args = (problem.t, problem.d, problem.x0, w)
    cmp = equivalence_check(*args, 2)
    hist = run(np.asarray(iterate(problem, 3)), w, k_max=2)
    for k in (1, 2):
        rec = hist.records[k]
        w_fom = fom_solve(*args, k)
        w_gmr = gmr_solve(*args, k)
        assert cmp.fom_mpe_defect[k] == pytest.approx(
            w.norm(w_fom - rec.mpe.s) / w.norm(rec.mpe.s), rel=1e-6)
        assert cmp.gmr_rre_defect[k] == pytest.approx(
            w.norm(w_gmr - rec.rre.s) / w.norm(rec.rre.s), rel=1e-6, abs=1e-15)
    assert w.norm(hist.records[1].mpe.s) > 0.1 / eps
    assert max(cmp.fom_mpe_defect + cmp.gmr_rre_defect) < 1e-8
