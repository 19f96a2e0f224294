import numpy as np
import pytest
from numpy.testing import assert_allclose

from wextrap import (
    DimensionMismatch,
    FixedPointProblem,
    NonFiniteIterate,
    RunStatus,
    WeightOperator,
    cosine_problem,
    iterate,
    make_mpe_failure_problem,
    make_mpe_failure_sequence,
    make_near_stagnation_problem,
    mgs_factorize,
    mpe_coefficients,
    quadratic_problem,
    residual,
    run,
)
from wextrap.problems import BUILTIN_MAPS

from conftest import linear_solution, random_weight


def test_demo_iterates_exact_dyadic(demo_problem):
    xs = iterate(demo_problem, 3)
    assert_allclose(np.asarray(xs), [
        [0.0, 0.0],
        [0.5, 0.75],
        [0.75, 0.9375],
        [0.875, 0.984375],
    ], rtol=0, atol=0)


def test_linear_solution_autocomputed(demo_problem):
    # the fixed point follows from the problem's own T and d
    solution = linear_solution(demo_problem)
    assert_allclose(solution, [1.0, 1.0], atol=1e-15)
    assert_allclose(residual(demo_problem, solution), np.zeros(2),
                    atol=1e-15)


def test_residual_at_x0_is_first_difference(demo_problem):
    xs = iterate(demo_problem, 1)
    assert_allclose(residual(demo_problem, xs[0]), xs[1] - xs[0])


def test_identity_map_constant_sequence():
    problem = FixedPointProblem.nonlinear(lambda x: x, np.array([1.0, 2.0]))
    xs = iterate(problem, 4)
    assert_allclose(np.asarray(xs), np.tile([1.0, 2.0], (5, 1)))
    hist = run(np.asarray(xs), WeightOperator.identity(2))
    assert hist.status is RunStatus.CONVERGED
    assert hist.detected_k0 == 0


def test_divergent_but_finite_sequence():
    t = 2.0 * np.eye(2)
    problem = FixedPointProblem.linear(t, np.array([1.0, 1.0]),
                                       np.array([1.0, 0.5]))
    xs = iterate(problem, 10)
    assert np.all(np.isfinite(np.asarray(xs)))
    assert np.linalg.norm(xs[10]) > 100 * np.linalg.norm(xs[1])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflow_reports_offending_index():
    problem = FixedPointProblem.nonlinear(lambda x: x * x, np.array([1e200]))
    with pytest.raises(NonFiniteIterate) as info:
        iterate(problem, 5)
    assert info.value.index == 1


def test_iterate_needs_at_least_one_step(demo_problem):
    with pytest.raises(DimensionMismatch):
        iterate(demo_problem, 0)


def test_failure_sequence_canonical_form():
    seq = make_mpe_failure_sequence(3)
    assert_allclose(np.asarray(seq), [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [2.0, 1.0, 0.0],
    ])


def test_failure_sequence_alpha_property():
    rng = np.random.default_rng(310)
    for trial in range(10):
        n = int(rng.integers(3, 12))
        w = random_weight(rng, n)
        seq = make_mpe_failure_sequence(n, w)
        u = np.diff(np.asarray(seq), axis=0).T
        solve = mpe_coefficients(mgs_factorize(u, w))
        assert not solve.exists
        # c = (-1, 1) up to rounding, so sum |c_i| ~= 2
        assert abs(solve.alpha) < 1e-12


def test_failure_problem_reproduces_sequence():
    problem = make_mpe_failure_problem(4)
    xs = iterate(problem, 2)
    assert_allclose(np.asarray(xs), np.asarray(make_mpe_failure_sequence(4)),
                    atol=1e-14)
    # (I - T) is nonsingular: the problem itself is solvable
    assert np.linalg.norm(residual(problem, linear_solution(problem))) < 1e-12


def test_failure_problem_weighted():
    rng = np.random.default_rng(320)
    w = random_weight(rng, 5, "dense")
    problem = make_mpe_failure_problem(5, w)
    hist = run(np.asarray(iterate(problem, 3)), w, k_max=1)
    assert hist.record(1).mpe.exists is False


def test_near_stagnation_rejects_zero_eps():
    with pytest.raises(ValueError):
        make_near_stagnation_problem(4, eps=0.0)


def test_near_stagnation_is_solvable():
    problem = make_near_stagnation_problem(5)
    r = residual(problem, linear_solution(problem))
    assert np.linalg.norm(r) < 1e-9


def test_cosine_problem_converges_to_dottie():
    problem = cosine_problem(3)
    xs = iterate(problem, 60)
    # x = cos(x) has a single real fixed point
    assert_allclose(np.asarray(xs)[-1].real, np.full(3, 0.7390851332151607),
                    atol=1e-9)


def test_quadratic_problem_known_solution():
    problem = quadratic_problem(4)
    # the small root of x = q + x^2/4, for the map's q
    q = np.linspace(0.05, 0.3, 4)
    solution = 2.0 * (1.0 - np.sqrt(1.0 - q))
    assert_allclose(residual(problem, solution), np.zeros(4), atol=1e-15)
    xs = iterate(problem, 40)
    assert_allclose(xs[40], solution, atol=1e-10)


def test_builtin_map_registry():
    assert set(BUILTIN_MAPS) == {"cosine", "quadratic"}


def test_sequences_are_complex_row_arrays(demo_problem):
    # one iterate per row, the layout run() takes
    xs = iterate(demo_problem, 3)
    assert type(xs) is np.ndarray
    assert xs.shape == (4, 2)
    assert xs.dtype == complex
    seq = make_mpe_failure_sequence(5)
    assert type(seq) is np.ndarray
    assert seq.shape == (3, 5)
    assert seq.dtype == complex


def test_linear_contraction_rate_diagonal():
    # error contracts per step at the rate max |T_ii| on diagonal T
    t = np.diag([0.5, 0.25])
    problem = FixedPointProblem.linear(t, np.array([0.5, 0.75]), np.zeros(2))
    xs = np.asarray(iterate(problem, 8))
    sol = linear_solution(problem)
    errs = np.linalg.norm(xs - sol, axis=1)
    for i in range(1, 8):
        assert errs[i] <= 0.5 * errs[i - 1] + 1e-15


def test_apply_dimension_guard(demo_problem):
    with pytest.raises(DimensionMismatch):
        demo_problem.apply(np.zeros(3))
