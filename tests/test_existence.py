"""One coupling scalar decides MPE existence, RRE stagnation and FOM
definedness.

sigma_k = sqrt(nu_k / mu_k) is read three ways: by ``run`` from its
coupling recursion, by ``verify_history`` from the RRE coefficient
step in the triangular frame, and by the Krylov check from the same
recursion in the Arnoldi frame (where it is the Givens cosine |c_k|).
All three judge it against ``extrapolate.EXIST_TOL``.
The seeded reproductions below have ill-conditioned difference blocks,
where separate tests used to disagree and report false 3-1 / 3-15
violations and FOM/MPE definedness mismatches.  Their other defects
are roundoff on those blocks, so the tests do not assert ``ok``.
"""

import numpy as np
import pytest

from wextrap import (
    FixedPointProblem,
    WeightOperator,
    extrapolate,
    iterate,
    quadratic_problem,
    run,
    verify_history,
)
from wextrap.krylov import equivalence_check

from adversarial import make_near_stagnation_problem


def assert_one_decision(report, comparison=None):
    assert "3-1" not in report.violations
    assert "3-15" not in report.violations
    for st in report.stages:
        if st.stagnation_detected is not None:
            assert st.mpe_exists == (not st.stagnation_detected), st.k
    if comparison is not None:
        assert all(comparison.definedness_consistent)
        assert comparison.fom_defined == comparison.mpe_exists


def linear_case(t, d, x0, weight, k):
    xs = np.asarray(iterate(FixedPointProblem.linear(t, d, x0), k + 1))
    report = verify_history(run(xs, weight, k_max=k))
    return report, equivalence_check(t, d, x0, weight, k)


def diagonal_case(n, k, draw):
    # reproductions A and B: a diagonal T, identity weight, x0 = 0
    rng = np.random.default_rng(0)
    t = np.diag(draw(rng, n))
    return linear_case(t, rng.standard_normal(n), np.zeros(n),
                       WeightOperator.identity(n), k)


def test_reproduction_a():
    # at k = 19 the exact-rational alpha is 1.6e-9, not 0: MPE exists
    assert_one_decision(*diagonal_case(
        200, 20, lambda rng, n: 0.95 * rng.uniform(0.1, 1.0, n)))


def test_reproduction_b():
    assert_one_decision(*diagonal_case(
        2000, 100, lambda rng, n: 0.98 * np.cos(rng.uniform(0.0, np.pi, n))))


def test_reproduction_d():
    # a symmetric T with spectrum in (-0.99, 0.99) and a dense weight
    n, rng = 300, np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t = q @ np.diag(rng.uniform(-0.99, 0.99, n)) @ q.T
    a = rng.standard_normal((n, n))
    m = a @ a.T / n + np.eye(n)
    report, comparison = linear_case(t, rng.standard_normal(n), np.zeros(n),
                                     WeightOperator.dense(m), 60)
    assert_one_decision(report, comparison)


def test_reproduction_e():
    # a nonlinear map whose extrapolants have converged by k = 9 while
    # phi_rre still falls: no stage stagnates
    xs = np.asarray(iterate(quadratic_problem(50), 12))
    report = verify_history(run(xs, WeightOperator.identity(50), k_max=11))
    assert not any(st.stagnation_detected for st in report.stages)
    assert_one_decision(report)


@pytest.mark.parametrize("eps", [1e-5, 1e-7, 1e-9, 1e-11, 1e-12, 1e-13,
                                 1e-14])
def test_near_stagnation_one_decision(eps):
    # sigma_1 is about 10 eps: stage 1 exists down to eps = 1e-12 and
    # stagnates below, the same way on all three sides
    problem = make_near_stagnation_problem(6, eps=eps)
    assert_one_decision(*linear_case(problem.t, problem.d, problem.x0,
                                     WeightOperator.identity(6), 4))


def test_exist_tol_reaches_every_reader(monkeypatch):
    # sigma_1 is about 1e-4 here: a tolerance above it makes stage 1 a
    # nonexistent MPE, an undefined FOM and a stagnating RRE at once
    monkeypatch.setattr(extrapolate, "EXIST_TOL", 1e-3)
    problem = make_near_stagnation_problem(6)
    report, comparison = linear_case(problem.t, problem.d, problem.x0,
                                     WeightOperator.identity(6), 4)
    assert not report.stages[1].mpe_exists
    assert comparison.fom_defined[1] is False
    assert report.stages[1].stagnation_detected is True
    assert all(st.stagnation_consistent is not False for st in report.stages)
    assert all(comparison.definedness_consistent)
