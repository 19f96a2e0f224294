"""Weighted QR factorization by classical Gram-Schmidt run twice (CGS2).

Factor A = Q R where the columns of Q are orthonormal in the inner
product ``<y, z> = y* M z`` (so Q* M Q = I) and R is upper triangular
with positive real diagonal.  For a full-rank A and positive definite
M this factorization is unique, which makes R a faithful frame for
least-squares work in the weighted geometry: ``|||A z||| = ||R z||_2``
for every coefficient vector z.

The factors keep P = M Q beside Q.  The one kernel projects a new
column a onto the whole basis, c = P* a, subtracts Q c, and projects
once more ("twice is enough", Giraud, Langou and Rozloznik 2005).  Its
one product with M gives both r_kk and the next column of P; |||a||| is
hypot(||c||, r_kk) by Pythagoras.  :func:`mgs_factorize` is repeated
:func:`append_column`, so incremental and one-shot factorization of
the same columns give identical floats.  The Arnoldi process of
:mod:`wextrap.krylov` runs the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RankDeficient
from .weights import WeightOperator, validate

__all__ = [
    "RANK_TOL",
    "WQRFactors",
    "empty_factors",
    "orthogonalize_column",
    "append_column",
    "mgs_factorize",
]

#: a deflated column whose weighted norm falls at or below RANK_TOL
#: times the incoming column's weighted norm is treated as dependent
RANK_TOL = 1e-13


@dataclass(frozen=True)
class WQRFactors:
    """Q and R factors tied to the weight that defines orthonormality.

    ``q`` has shape (N, k) with Q* M Q = I; ``r`` has shape (k, k),
    upper triangular with positive real diagonal; ``p`` is M Q, so that
    projections onto the basis take no product with M.  Instances are
    immutable; :func:`append_column` returns a new object whose leading
    blocks are shared with (and bit-identical to) its predecessor.
    """

    weight: WeightOperator
    q: np.ndarray
    r: np.ndarray
    p: np.ndarray

    @property
    def k(self) -> int:
        """Number of factored columns."""
        return self.q.shape[1]

    @property
    def dimension(self) -> int:
        return self.weight.dimension

    def leading(self, j: int) -> "WQRFactors":
        """Factors of the first ``j`` columns (a view, not a copy)."""
        if not 0 <= j <= self.k:
            raise DimensionMismatch(f"leading block {j} of {self.k} columns")
        return WQRFactors(self.weight, self.q[:, :j], self.r[:j, :j],
                          self.p[:, :j])

    def orthonormality_defect(self) -> float:
        """max entry of |Q* M Q - I|."""
        g = self.q.conj().T @ np.column_stack(
            [self.weight.apply(self.q[:, i]) for i in range(self.k)]
        ) if self.k else np.zeros((0, 0))
        return float(np.max(np.abs(g - np.eye(self.k)))) if self.k else 0.0


def empty_factors(weight) -> WQRFactors:
    weight = validate(weight)
    n = weight.dimension
    empty = np.zeros((n, 0), dtype=complex)
    return WQRFactors(weight, empty, np.zeros((0, 0), dtype=complex), empty)


def orthogonalize_column(factors: WQRFactors, a):
    """Deflate ``a`` against the factored basis without appending.

    Returns ``(coeffs, residual, m_residual, rnorm)``: the projection
    coefficients onto the existing columns (two classical Gram-Schmidt
    passes), the deflated vector, its product with M, and its weighted
    norm.  The incoming column's weighted norm is ``hypot(||coeffs||,
    rnorm)``.  Never raises on rank deficiency; callers decide what a
    small ``rnorm`` means.
    """
    weight = factors.weight
    a = np.asarray(a, dtype=complex)
    if a.shape != (weight.dimension,):
        raise DimensionMismatch(
            f"column of shape {a.shape}, expected ({weight.dimension},)"
        )
    return _deflate(weight, factors.q, factors.p, a)


def _deflate(weight: WeightOperator, q, p, a):
    # CGS2 against the stored p = M q, q weighted-orthonormal; the one
    # product with M gives both the norm and the next p column
    c = (a.conj() @ p).conj()
    w = a - q @ c
    d = (w.conj() @ p).conj()
    w -= q @ d
    c += d
    mw = weight.apply(w)
    return c, w, mw, weight._form_norm(w, mw)


def _extend(factors: WQRFactors, coeffs, w, mw, rnorm) -> WQRFactors:
    # assemble the k+1 column factorization from an orthogonalized column
    k = factors.k
    q = np.column_stack([factors.q, w / rnorm])
    p = np.column_stack([factors.p, mw / rnorm])
    r = np.zeros((k + 1, k + 1), dtype=complex)
    r[:k, :k] = factors.r
    r[:k, k] = coeffs
    r[k, k] = rnorm
    return WQRFactors(factors.weight, q, r, p)


def append_column(factors: WQRFactors, a,
                  rank_tol: float = RANK_TOL) -> WQRFactors:
    """Extend the factorization by one column.

    Raises :class:`RankDeficient` when the deflated column's weighted
    norm is at or below ``rank_tol`` times the incoming column's
    weighted norm, i.e. the new column lies (numerically) in the span
    of the previous ones.
    """
    coeffs, w, mw, rnorm = orthogonalize_column(factors, a)
    threshold = rank_tol * float(np.hypot(np.linalg.norm(coeffs), rnorm))
    if rnorm <= threshold:
        raise RankDeficient(factors.k, residual_norm=rnorm,
                            threshold=threshold)
    return _extend(factors, coeffs, w, mw, rnorm)


def mgs_factorize(a, weight, rank_tol: float = RANK_TOL) -> WQRFactors:
    """Weighted QR factorization of the columns of ``a`` by the CGS2
    kernel.

    Implemented as repeated :func:`append_column`, so the result is
    bit-identical to building the factorization incrementally.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D column matrix, got shape {a.shape}")
    factors = empty_factors(weight)
    if a.shape[0] != factors.dimension:
        raise DimensionMismatch(
            f"columns of dimension {a.shape[0]}, weight of dimension "
            f"{factors.dimension}"
        )
    for j in range(a.shape[1]):
        factors = append_column(factors, a[:, j], rank_tol)
    return factors
