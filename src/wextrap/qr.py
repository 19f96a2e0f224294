"""Weighted QR factorization by Gram-Schmidt.

Factor A = Q R where the columns of Q are orthonormal in the inner
product ``<y, z> = y* M z`` (so Q* M Q = I) and R is upper triangular
with positive real diagonal.  For a full-rank A and positive definite
M this factorization is unique, which makes R a faithful frame for
least-squares work in the weighted geometry: ``|||A z||| = ||R z||_2``
for every coefficient vector z.

Two variants are provided.  :func:`mgs_factorize` (modified
Gram-Schmidt) deflates the working column against each basis vector in
turn and is the numerical default; it is built literally as repeated
:func:`append_column`, so incremental and one-shot factorization of
the same columns produce identical floats.  :func:`gs_factorize`
(classical Gram-Schmidt) forms all projection coefficients against the
original column and is kept as an independent cross-check route, not a
default.  Both accept an optional single reorthogonalization pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InsufficientVectors, RankDeficient
from .weights import WeightOperator, validate

__all__ = [
    "RANK_TOL",
    "WQRFactors",
    "DifferenceMatrix",
    "empty_factors",
    "orthogonalize_column",
    "append_column",
    "mgs_factorize",
    "gs_factorize",
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

    def reconstruct(self) -> np.ndarray:
        """Q R, for comparison against the original columns."""
        return self.q @ self.r

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
    weight = factors.weight
    coeffs, w, rnorm = orthogonalize_column(factors, a, reorthogonalize)
    incoming = weight.norm(np.asarray(a, dtype=complex))
    if rnorm <= rank_tol * incoming:
        raise RankDeficient(factors.k, residual_norm=rnorm,
                            threshold=rank_tol * incoming)
    return _extend(factors, coeffs, w, rnorm)


def _columns_of(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D column matrix, got shape {a.shape}")
    return a


def mgs_factorize(a, weight, reorthogonalize: bool = False,
                  rank_tol: float = RANK_TOL) -> WQRFactors:
    """Modified Gram-Schmidt factorization of the columns of ``a``.

    Implemented as repeated :func:`append_column`, so the result is
    bit-identical to building the factorization incrementally.
    """
    a = _columns_of(a)
    factors = empty_factors(weight)
    if a.shape[0] != factors.dimension:
        raise DimensionMismatch(
            f"columns of dimension {a.shape[0]}, weight of dimension "
            f"{factors.dimension}"
        )
    for j in range(a.shape[1]):
        factors = append_column(factors, a[:, j], reorthogonalize, rank_tol)
    return factors


def gs_factorize(a, weight, reorthogonalize: bool = False,
                 rank_tol: float = RANK_TOL) -> WQRFactors:
    """Classical Gram-Schmidt factorization (cross-check variant).

    Projection coefficients are all taken against the original column,
    ``r_ij = <q_i, a_j>``, before any subtraction.  Less stable than
    :func:`mgs_factorize`; use it to corroborate, not to compute.
    """
    a = _columns_of(a)
    weight = validate(weight)
    if a.shape[0] != weight.dimension:
        raise DimensionMismatch(
            f"columns of dimension {a.shape[0]}, weight of dimension "
            f"{weight.dimension}"
        )
    n, m = a.shape
    q = np.zeros((n, m), dtype=complex)
    r = np.zeros((m, m), dtype=complex)
    for j in range(m):
        col = a[:, j]
        coeffs = np.array(
            [weight.inner(q[:, i], col) for i in range(j)], dtype=complex
        )
        w = col - q[:, :j] @ coeffs if j else col.copy()
        if reorthogonalize:
            second = np.array(
                [weight.inner(q[:, i], w) for i in range(j)], dtype=complex
            )
            if j:
                w = w - q[:, :j] @ second
                coeffs = coeffs + second
        rnorm = weight.norm(w)
        incoming = weight.norm(col)
        if rnorm <= rank_tol * incoming:
            raise RankDeficient(j, residual_norm=rnorm,
                                threshold=rank_tol * incoming)
        q[:, j] = w / rnorm
        r[:j, j] = coeffs
        r[j, j] = rnorm
    return WQRFactors(weight, q, r)


@dataclass(frozen=True)
class DifferenceMatrix:
    """First differences of an iterate sequence, stored columnwise.

    Column j is ``u_j = x_{j+1} - x_j``.  ``block(k)`` returns the
    N x (k+1) matrix U_k = [u_0, ..., u_k] that the extrapolation
    methods factor.
    """

    columns: np.ndarray

    @classmethod
    def from_iterates(cls, iterates) -> "DifferenceMatrix":
        x = np.asarray(iterates, dtype=complex)
        if x.ndim != 2:
            raise DimensionMismatch(
                f"iterates must form a 2-D (count, dimension) array, got {x.shape}"
            )
        if x.shape[0] < 2:
            raise InsufficientVectors(
                f"need at least 2 iterates to difference, got {x.shape[0]}"
            )
        return cls(np.ascontiguousarray((x[1:] - x[:-1]).T))

    @property
    def count(self) -> int:
        return self.columns.shape[1]

    @property
    def dimension(self) -> int:
        return self.columns.shape[0]

    def column(self, j: int) -> np.ndarray:
        return self.columns[:, j]

    def block(self, k: int) -> np.ndarray:
        """U_k = [u_0, ..., u_k]."""
        if not 0 <= k < self.count:
            raise DimensionMismatch(f"block {k} of {self.count} difference columns")
        return self.columns[:, : k + 1]
