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
hypot(||c||, r_kk) by Pythagoras.  Under the identity weight P is Q:
the factors hold one array as both ``q`` and ``p``, and no second
N x k buffer is made or written.

A factorization grows in place, by the one loop :func:`_grow` that
:func:`wextrap.extrapolate.run`, :func:`mgs_factorize` (and so the
history loader) and the Arnoldi process of :mod:`wextrap.krylov` all
call, so a run's factors and a one-shot factorization of the same
columns are the same floats.  A run keeps only R and regrows Q and P
through this loop when they are asked for, which relies on that.  It
allocates Q, P and R once, writes R's column for every column it tries
and Q's and P's for every accepted one.  Every :class:`WQRFactors` a
caller sees is a leading view of those buffers, which only that loop
writes and never a column twice, so an earlier view keeps its values.
The loop holds the one rank test and has one exit: a stop before the
last planned column returns the same leading views, and nothing
copies Q or P.

The buffers take the field of the factored columns and the weight
(:func:`wextrap.weights._in_field`): float64 when both are real by
value, so a real factorization costs real GEMVs, and complex128
otherwise.  :func:`mgs_factorize` decides it from its input, as
:func:`wextrap.extrapolate.run` does, so a reloaded history regrows its
factors in the field of the run that wrote it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RankDeficient
from .weights import WeightOperator, _in_field, validate

__all__ = [
    "RANK_TOL",
    "WQRFactors",
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
    projections onto the basis take no product with M.  Under the
    identity weight ``p`` is ``q``, the same array.  The arrays are
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

    def leading(self, j: int) -> "WQRFactors":
        """Factors of the first ``j`` columns (a view, not a copy)."""
        if not 0 <= j <= self.k:
            raise DimensionMismatch(f"leading block {j} of {self.k} columns")
        q = self.q[:, :j]
        return WQRFactors(self.weight, q, self.r[:j, :j],
                          q if self.p is self.q else self.p[:, :j])

    def orthonormality_defect(self) -> float:
        """max entry of |Q* M Q - I|, with M Q from one block product."""
        if not self.k:
            return 0.0
        mq = self.weight.apply(self.q)
        return float(np.max(np.abs(self.q.conj().T @ mq - np.eye(self.k))))


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
    a = np.asarray(a)
    a = np.asarray(a, dtype=np.result_type(a, factors.q))
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


def _grow(weight: WeightOperator, count: int, dtype, column,
          rank_tol: float | None = None):
    """The one loop that grows a weighted QR: factor ``column(j,
    factors)`` for j < ``count`` against the factors of the first j
    columns, in buffers of ``dtype`` allocated once (Q and P
    column-major, one array as both under the identity weight).  Each
    column's coefficients and r_jj go into R's buffer, and an accepted
    column's Q and P columns into theirs (one divide where P is Q).

    It stops at the first dependent column: column N, or one whose
    deflated norm is at or below ``rank_tol`` (:data:`RANK_TOL`, read at
    call time, when None) times its own weighted norm.  That column
    goes into R's buffer only.  Returns ``(r, factors, norms)``: R's
    buffer, which holds the dependent column, the leading views of the
    accepted columns, and ``norms`` the weighted norm of every column
    tried.
    """
    if rank_tol is None:
        rank_tol = RANK_TOL
    n = weight.dimension
    q = np.zeros((n, count), dtype, order="F")
    room = WQRFactors(weight, q, np.zeros((count, count), dtype),
                      q if weight.kind == "identity"
                      else np.zeros((n, count), dtype, order="F"))
    factors, norms = room.leading(0), []
    for j in range(count):
        c, w, mw, rnorm = orthogonalize_column(factors, column(j, factors))
        norms.append(float(np.hypot(np.linalg.norm(c), rnorm)))
        room.r[:j, j], room.r[j, j] = c, rnorm
        if j == n or rnorm <= rank_tol * norms[j]:
            break
        np.divide(w, rnorm, out=room.q[:, j])
        if room.p is not room.q:
            np.divide(mw, rnorm, out=room.p[:, j])
        factors = room.leading(j + 1)
    return room.r, factors, norms


def mgs_factorize(a, weight, rank_tol: float | None = None) -> WQRFactors:
    """Weighted QR factorization of the columns of ``a`` by :func:`_grow`,
    which grows :func:`wextrap.extrapolate.run`'s factors too, so the two
    give bit-identical floats.  Raises :class:`RankDeficient` at the
    first dependent column, judged against ``rank_tol`` (RANK_TOL when
    None); column N of N-vectors raises it with no residual or
    threshold."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D column matrix, got shape {a.shape}")
    weight = validate(weight)
    if a.shape[0] != weight.dimension:
        raise DimensionMismatch(
            f"columns of dimension {a.shape[0]}, weight of dimension "
            f"{weight.dimension}"
        )
    a, = _in_field(weight, a)
    rank_tol = RANK_TOL if rank_tol is None else rank_tol
    r, factors, norms = _grow(weight, a.shape[1], a.dtype,
                              lambda j, _: a[:, j], rank_tol)
    j = factors.k
    if j < len(norms):
        if j == weight.dimension:  # dependent whatever its norm
            raise RankDeficient(j)
        raise RankDeficient(j, residual_norm=float(r[j, j].real),
                            threshold=rank_tol * norms[j])
    return factors
