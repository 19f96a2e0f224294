"""Adversarial fixed-point problems for the test suite.

Constructions that force the minimal-polynomial method to fail (or very
nearly fail) at stage 1 under any chosen weight: an exact coefficient
sum of zero, and a near-stagnation whose sum is -eps.  The Krylov,
relation, existence and CLI tests, and the CI's krylov-compare steps,
run on them.
"""

import numpy as np

from wextrap import DimensionMismatch, FixedPointProblem, WeightOperator, validate


def _orthogonal_pair(n: int, weight: WeightOperator):
    """u0 = e_1 and a direction v made weight-orthogonal to it."""
    u0 = np.zeros(n, dtype=complex)
    u0[0] = 1.0
    e2 = np.zeros(n, dtype=complex)
    e2[1] = 1.0
    v = e2 - (np.vdot(u0, weight.apply(e2)) / weight.norm(u0) ** 2) * u0
    return u0, v


def make_mpe_failure_sequence(n: int, weight=None) -> np.ndarray:
    """Three iterates, one per row of a complex (3, n) array, whose
    stage-1 minimal-polynomial solve has a vanishing coefficient sum.

    u_1 = u_0 + v with <u_0, v> = 0 in the given weight, so the
    least-squares coefficient is exactly -1 and the sum 1 + c_0 is 0.
    The reduced-rank result then repeats stage 0.
    """
    if n < 3:
        raise DimensionMismatch(f"failure fixture needs dimension >= 3, got {n}")
    weight = WeightOperator.identity(n) if weight is None else validate(weight)
    u0, v = _orthogonal_pair(n, weight)
    u1 = u0 + v
    x0 = np.zeros(n, dtype=complex)
    return np.stack([x0, x0 + u0, x0 + u0 + u1])


def _two_column_problem(n, weight, eps, vscale=None) -> FixedPointProblem:
    # T acts as u0 -> (1+eps) u0 + v, v -> 0.15 u0 + 0.3 v, and 0.3 I
    # on the weight-orthogonal complement; d = u0 and x0 = 0, so the
    # induced first two differences are u0 and (1+eps) u0 + v.
    if n < 3:
        raise DimensionMismatch(f"fixture needs dimension >= 3, got {n}")
    weight = WeightOperator.identity(n) if weight is None else validate(weight)
    u0, v = _orthogonal_pair(n, weight)
    if vscale is not None:
        v = v * (vscale / weight.norm(v))
    rest = 0.3
    t = rest * np.eye(n, dtype=complex)
    dual0 = np.conj(weight.apply(u0 / weight.norm(u0) ** 2))
    dualv = np.conj(weight.apply(v / weight.norm(v) ** 2))
    t += np.outer((1.0 + eps - rest) * u0 + v, dual0)
    t += np.outer(0.15 * u0, dualv)
    return FixedPointProblem.linear(t, d=u0, x0=np.zeros(n, dtype=complex))


def make_mpe_failure_problem(n: int, weight=None) -> FixedPointProblem:
    """Linear problem whose iterates reproduce the failure sequence.

    The induced Galerkin solver is undefined at stage 1 for the same
    reason the minimal-polynomial extrapolant is: the projected 1x1
    system is exactly zero.  (I - T) is nonsingular, so the problem
    itself is perfectly solvable.
    """
    return _two_column_problem(n, weight, eps=0.0)


def make_near_stagnation_problem(n: int, weight=None, eps: float = 1e-5
                                 ) -> FixedPointProblem:
    """Linear problem that almost stagnates at stage 1.

    The stage-1 coefficient sum is -eps instead of zero: the
    minimal-polynomial estimate spikes while consecutive reduced-rank
    estimates agree to O(eps^2) -- a one-stage peak with a matching
    plateau.
    """
    if eps == 0.0:
        raise ValueError("eps must be nonzero; use make_mpe_failure_problem")
    return _two_column_problem(n, weight, eps=eps, vscale=0.1)
