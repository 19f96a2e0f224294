"""Fixed-point problems and iterate sequences.

Provides the inputs the extrapolation engine consumes: linear
iterations x_{m+1} = T x_m + d, user-supplied nonlinear maps and a
couple of built-in nonlinear fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NonFiniteIterate

__all__ = [
    "FixedPointProblem",
    "iterate",
    "residual",
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
