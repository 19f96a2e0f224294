"""Weighted QR factorization by modified Gram-Schmidt.

Factor A = Q R where the columns of Q are orthonormal in the inner
product ``<y, z> = y* M z`` (so Q* M Q = I) and R is upper triangular
with positive real diagonal.  For a full-rank A and positive definite
M this factorization is unique, which makes R a faithful frame for
least-squares work in the weighted geometry: ``|||A z||| = ||R z||_2``
for every coefficient vector z.

:func:`mgs_factorize` deflates the working column against each basis
vector in turn, with an optional single reorthogonalization pass.  It
is built literally as repeated :func:`append_column`, so incremental
and one-shot factorization of the same columns produce identical
floats.  The same deflation kernel serves the Arnoldi process of
:mod:`wextrap.krylov`.
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
    upper triangular with positive real diagonal.  Instances are
    immutable; :func:`append_column` returns a new object whose leading
    blocks are shared with (and bit-identical to) its predecessor.
    """

    weight: WeightOperator
    q: np.ndarray
    r: np.ndarray

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
        return WQRFactors(self.weight, self.q[:, :j], self.r[:j, :j])

    def orthonormality_defect(self) -> float:
        """max entry of |Q* M Q - I|."""
        g = self.q.conj().T @ np.column_stack(
            [self.weight.apply(self.q[:, i]) for i in range(self.k)]
        ) if self.k else np.zeros((0, 0))
        return float(np.max(np.abs(g - np.eye(self.k)))) if self.k else 0.0


def empty_factors(weight) -> WQRFactors:
    weight = validate(weight)
    n = weight.dimension
    return WQRFactors(weight, np.zeros((n, 0), dtype=complex),
                      np.zeros((0, 0), dtype=complex))


def orthogonalize_column(factors: WQRFactors, a, reorthogonalize: bool = False):
    """Deflate ``a`` against the factored basis without appending.

    Returns ``(coeffs, residual, rnorm)``: the projection coefficients
    onto the existing columns (modified Gram-Schmidt order), the
    deflated vector, and its weighted norm.  Never raises on rank
    deficiency; callers decide what a small ``rnorm`` means.
    """
    weight = factors.weight
    a = np.asarray(a, dtype=complex)
    if a.shape != (weight.dimension,):
        raise DimensionMismatch(
            f"column of shape {a.shape}, expected ({weight.dimension},)"
        )
    return _deflate(weight, factors.q, a, reorthogonalize)


def _deflate(weight: WeightOperator, q, a, reorthogonalize: bool = False):
    # modified Gram-Schmidt kernel: deflate a against the columns of q,
    # which must be weighted-orthonormal; shared with the Arnoldi process
    k = q.shape[1]
    coeffs = np.zeros(k, dtype=complex)
    w = a.copy()
    for sweep in range(2 if reorthogonalize else 1):
        for i in range(k):
            c = weight.inner(q[:, i], w)
            coeffs[i] = coeffs[i] + c if sweep else c
            w = w - c * q[:, i]
    return coeffs, w, weight.norm(w)


def _extend(factors: WQRFactors, coeffs, w, rnorm) -> WQRFactors:
    # assemble the k+1 column factorization from an orthogonalized column
    k = factors.k
    q = np.empty((factors.dimension, k + 1), dtype=complex)
    q[:, :k] = factors.q
    q[:, k] = w / rnorm
    r = np.zeros((k + 1, k + 1), dtype=complex)
    r[:k, :k] = factors.r
    r[:k, k] = coeffs
    r[k, k] = rnorm
    return WQRFactors(factors.weight, q, r)


def append_column(factors: WQRFactors, a, reorthogonalize: bool = False,
                  rank_tol: float = RANK_TOL) -> WQRFactors:
    """Extend the factorization by one column.

    Raises :class:`RankDeficient` when the deflated column's weighted
    norm is at or below ``rank_tol`` times the incoming column's
    weighted norm, i.e. the new column lies (numerically) in the span
    of the previous ones.
    """
    coeffs, w, rnorm = orthogonalize_column(factors, a, reorthogonalize)
    # at rank_tol = 0 the threshold is 0 whatever the incoming norm, so
    # that weight product is skipped
    threshold = 0.0 if rank_tol == 0.0 else \
        rank_tol * factors.weight.norm(np.asarray(a, dtype=complex))
    if rnorm <= threshold:
        raise RankDeficient(factors.k, residual_norm=rnorm,
                            threshold=threshold)
    return _extend(factors, coeffs, w, rnorm)


def mgs_factorize(a, weight, reorthogonalize: bool = False,
                  rank_tol: float = RANK_TOL) -> WQRFactors:
    """Modified Gram-Schmidt factorization of the columns of ``a``.

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
        factors = append_column(factors, a[:, j], reorthogonalize, rank_tol)
    return factors
