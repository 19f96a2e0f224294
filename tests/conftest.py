"""Shared generators for the test suite.

Every test that needs randomness builds its own `numpy` Generator with
an explicit seed, so failures reproduce from the test name alone.
"""

import numpy as np
import pytest

from wextrap import FixedPointProblem, WeightOperator, extrapolate, run

#: one "criterion N (...): PASS/FAIL" line per acceptance criterion,
#: echoed after the run so the verdicts survive output capturing
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_RESULTS):
            terminalreporter.write_line(line)


def random_pd_matrix(rng, n, complex_=True):
    """Hermitian positive definite with moderate condition number."""
    a = rng.standard_normal((n, n))
    if complex_:
        a = a + 1j * rng.standard_normal((n, n))
    m = a.conj().T @ a + 0.5 * n * np.eye(n)
    return 0.5 * (m + m.conj().T)


def random_weight(rng, n, kind=None):
    if kind is None:
        kind = rng.choice(["identity", "diag", "dense"])
    if kind == "identity":
        return WeightOperator.identity(n)
    if kind == "diag":
        return WeightOperator.diagonal(rng.uniform(0.2, 3.0, n))
    return WeightOperator.dense(random_pd_matrix(rng, n))


def random_sequence(rng, n, count, complex_=False):
    """Iid Gaussian iterates; their differences are generically full rank."""
    x = rng.standard_normal((count, n))
    if complex_:
        x = x + 1j * rng.standard_normal((count, n))
    return x


def run_grown(iterates, weight, **kwargs):
    """``run(iterates, weight, **kwargs)`` and the factors its QR loop
    returned, which the history drops (it keeps their R alone).  Wraps
    whatever ``extrapolate._grow`` currently is, so a test's own patch
    of it still runs."""
    grown, grow = [], extrapolate._grow

    def capturing(*args, **kw):
        out = grow(*args, **kw)
        grown.append(out[1])
        return out

    extrapolate._grow = capturing
    try:
        history = run(iterates, weight, **kwargs)
    finally:
        extrapolate._grow = grow
    factors, = grown
    return history, factors


def random_contraction(rng, n, radius=0.8):
    """T with distinct eigenvalues spread on an annulus of the given radius.

    Eigenvalues are placed at distinct angles with jittered moduli and
    conjugate-paired through a real Schur-like similarity, keeping the
    Krylov matrices of the iteration well conditioned.  The similarity
    is a mildly perturbed orthogonal matrix, so T is diagonalizable but
    not normal.
    """
    angles = 2.0 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
    moduli = radius * rng.uniform(0.55, 1.0, n)
    lam = moduli * np.exp(1j * angles)
    q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    s = q + 0.2 * (rng.standard_normal((n, n))
                   + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    return s @ np.diag(lam) @ np.linalg.inv(s)


def random_linear_problem(rng, n, radius=0.8):
    t = random_contraction(rng, n, radius)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return FixedPointProblem.linear(t, d, x0)


def linear_solution(problem):
    """The fixed point of a linear problem, from (I - T) x = d."""
    return np.linalg.solve(np.eye(problem.dimension) - problem.t, problem.d)


@pytest.fixture
def demo_problem():
    """T = diag(0.5, 0.25), d = (0.5, 0.75), x0 = 0; fixed point (1, 1)."""
    t = np.diag([0.5, 0.25])
    d = np.array([0.5, 0.75])
    return FixedPointProblem.linear(t, d, np.zeros(2))


@pytest.fixture
def weight_calls(monkeypatch):
    """Names of the WeightOperator methods called, in call order; a
    product with M is one "apply"."""
    calls = []
    for name in ("apply", "norm"):
        method = getattr(WeightOperator, name)

        def counting(self, *args, _name=name, _method=method):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(WeightOperator, name, counting)
    return calls
