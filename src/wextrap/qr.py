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
hypot(||c||, r_kk) by Pythagoras.

A factorization grows in place.  The loop that factors the columns
allocates Q, P and R once (:func:`_buffers`), sized to the column count
it already knows, and :func:`_append` writes each accepted column into
them.  Every :class:`WQRFactors` a caller sees is a leading view of
those buffers.  That loop is their only writer and never writes a
column twice, so an earlier view keeps its values while the
factorization grows.  :func:`wextrap.extrapolate.run`,
:func:`mgs_factorize` (and so the history loader) and the Arnoldi
process of :mod:`wextrap.krylov` all grow this way, so a run's factors
and a one-shot factorization of the same columns are the same floats.
A run that stops before its last planned column keeps a copy of the
leading block instead, so the unused columns are freed.
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
    projections onto the basis take no product with M.  The arrays are
    leading views of buffers that only the loop growing them writes,
    and it never rewrites the first k columns.
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
        if not self.k:
            return 0.0
        mq = np.array([self.weight.apply(col) for col in self.q.T]).T
        return float(np.max(np.abs(self.q.conj().T @ mq - np.eye(self.k))))


def _buffers(weight: WeightOperator, columns: int) -> WQRFactors:
    """Zeroed room for ``columns`` columns, to be grown by :func:`_append`
    from its empty leading view.  Q and P are column-major, so each of
    their columns and every leading block is contiguous."""
    n = weight.dimension
    return WQRFactors(weight, np.zeros((n, columns), complex, order="F"),
                      np.zeros((columns, columns), complex),
                      np.zeros((n, columns), complex, order="F"))


def _append(room: WQRFactors, coeffs, w, mw, rnorm) -> WQRFactors:
    """Write one orthogonalized column into ``room`` after the
    ``len(coeffs)`` columns already there, and return the grown leading
    view.  ``(coeffs, w, mw, rnorm)`` is what :func:`orthogonalize_column`
    gave against the current view; the caller has judged its rank."""
    k = len(coeffs)
    np.divide(w, rnorm, out=room.q[:, k])
    np.divide(mw, rnorm, out=room.p[:, k])
    room.r[:k, k] = coeffs
    room.r[k, k] = rnorm
    return room.leading(k + 1)


def empty_factors(weight) -> WQRFactors:
    return _buffers(validate(weight), 0)


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
    q, p = factors.q, factors.p
    # CGS2 against the stored p = M q, q weighted-orthonormal; the one
    # product with M gives both the norm and the next p column
    c = (a.conj() @ p).conj()
    w = a - q @ c
    d = (w.conj() @ p).conj()
    w -= q @ d
    c += d
    mw = weight.apply(w)
    return c, w, mw, weight._form_norm(w, mw)


def mgs_factorize(a, weight, rank_tol: float = RANK_TOL) -> WQRFactors:
    """Weighted QR factorization of the columns of ``a`` by the CGS2
    kernel, grown one column at a time as :func:`wextrap.extrapolate.run`
    grows its factors, so the two give bit-identical floats.

    Raises :class:`RankDeficient` when a deflated column's weighted norm
    is at or below ``rank_tol`` times that column's weighted norm, i.e.
    the column lies (numerically) in the span of the previous ones.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D column matrix, got shape {a.shape}")
    weight = validate(weight)
    if a.shape[0] != weight.dimension:
        raise DimensionMismatch(
            f"columns of dimension {a.shape[0]}, weight of dimension "
            f"{weight.dimension}"
        )
    room = _buffers(weight, a.shape[1])
    factors = room.leading(0)
    for j in range(a.shape[1]):
        coeffs, w, mw, rnorm = orthogonalize_column(factors, a[:, j])
        threshold = rank_tol * float(np.hypot(np.linalg.norm(coeffs), rnorm))
        if rnorm <= threshold:
            raise RankDeficient(j, residual_norm=rnorm, threshold=threshold)
        factors = _append(room, coeffs, w, mw, rnorm)
    return factors
