"""Fixed-point problems and iterate sequences.

Provides the inputs the extrapolation engine consumes: linear
iterations x_{m+1} = T x_m + d, user-supplied nonlinear maps, a couple
of built-in nonlinear fixtures, and adversarial constructions that
force the minimal-polynomial method to fail (or very nearly fail) at
stage 1 under any chosen weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NonFiniteIterate
from .weights import WeightOperator, validate

__all__ = [
    "FixedPointProblem",
    "iterate",
    "residual",
    "make_mpe_failure_sequence",
    "make_mpe_failure_problem",
    "make_near_stagnation_problem",
    "cosine_problem",
    "quadratic_problem",
    "BUILTIN_MAPS",
]


@dataclass(frozen=True)
class FixedPointProblem:
    """x = f(x), either linear (f(x) = Tx + d) or a raw callable."""

    kind: str
    x0: np.ndarray
    t: np.ndarray | None = None
    d: np.ndarray | None = None
    f: Callable | None = None

    @classmethod
    def linear(cls, t, d, x0=None) -> "FixedPointProblem":
        t = np.asarray(t, dtype=complex)
        d = np.asarray(d, dtype=complex)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or d.shape != (t.shape[0],):
            raise DimensionMismatch(
                f"T of shape {t.shape} and d of shape {d.shape} do not match"
            )
        if x0 is None:
            x0 = np.zeros(t.shape[0], dtype=complex)
        x0 = np.asarray(x0, dtype=complex)
        if x0.shape != (t.shape[0],):
            raise DimensionMismatch(f"x0 of shape {x0.shape}")
        return cls("linear", x0, t=t, d=d)

    @classmethod
    def nonlinear(cls, f: Callable, x0) -> "FixedPointProblem":
        x0 = np.asarray(x0, dtype=complex)
        if x0.ndim != 1:
            raise DimensionMismatch("x0 must be a vector")
        return cls("nonlinear", x0, f=f)

    @property
    def dimension(self) -> int:
        return self.x0.shape[0]

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dimension,):
            raise DimensionMismatch(
                f"vector of shape {x.shape}, problem of dimension "
                f"{self.dimension}"
            )
        if self.kind == "linear":
            return self.t @ x + self.d
        return np.asarray(self.f(x), dtype=complex)


def iterate(problem: FixedPointProblem, m: int) -> np.ndarray:
    """x_0 .. x_m by repeated application of the map, one iterate per
    row of a complex (m+1, N) array.

    Divergent sequences are legitimate inputs; only an actual overflow
    to inf/nan stops the recurrence, with the offending index reported.
    """
    if m < 1:
        raise DimensionMismatch(f"need m >= 1 iterations, got {m}")
    out = np.empty((m + 1, problem.dimension), dtype=complex)
    out[0] = problem.x0
    if not np.all(np.isfinite(out[0])):
        raise NonFiniteIterate(0)
    for i in range(1, m + 1):
        out[i] = problem.apply(out[i - 1])
        if not np.all(np.isfinite(out[i])):
            raise NonFiniteIterate(i)
    return out


def residual(problem: FixedPointProblem, x) -> np.ndarray:
    """r(x) = f(x) - x; zero exactly at a fixed point."""
    x = np.asarray(x, dtype=complex)
    return problem.apply(x) - x


# -- adversarial constructions --------------------------------------

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


# -- built-in nonlinear fixtures ------------------------------------

def cosine_problem(n: int, x0=None) -> FixedPointProblem:
    """Componentwise x -> cos(x); contracts to the cosine fixed point."""
    if x0 is None:
        x0 = np.zeros(n)
    return FixedPointProblem.nonlinear(np.cos, x0)


def quadratic_problem(n: int, x0=None) -> FixedPointProblem:
    """Componentwise x -> q + x^2/4 with small positive q; contracts
    near the small root of the quadratic."""
    q = np.linspace(0.05, 0.3, n)

    def f(x):
        return q + 0.25 * x * x

    if x0 is None:
        x0 = np.zeros(n)
    return FixedPointProblem.nonlinear(f, x0)


BUILTIN_MAPS = {
    "cosine": cosine_problem,
    "quadratic": quadratic_problem,
}
