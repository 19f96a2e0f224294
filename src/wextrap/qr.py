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

A factorization grows in place, by the one loop :func:`_grow`.  It
allocates Q, P and R once, writes R's column for every column it tries
and Q's and P's for every accepted one.  Every :class:`WQRFactors` it
hands out is a leading view of those buffers, which only that loop
writes and never a column twice, so an earlier view keeps its values.
The loop holds the one rank test and has one exit: a stop before the
last planned column returns the same leading views, and nothing
copies Q or P.

A block whose columns are all known in advance is factored in its
frame (:func:`_grow_known`): with M = L L^H, the weighted QR of U has
the R of the Euclidean QR of L^H U.  The block is framed
:data:`_FRAME_COLS` columns at a time, at fixed offsets, as the loop
reaches them (L^H U under a dense M, one GEMM per row block of L^H;
sqrt(w) U under a diagonal weight; U itself under the identity), and
the loop runs under the identity weight, so it makes no product with
M.  A stop frames no more than the block it stops in.  Q and
P = M Q are mapped back from the frame's Q only when asked for
(:func:`_unframed`).
:func:`wextrap.extrapolate.run` (which keeps R alone), its history's
``factors``, :func:`mgs_factorize` and the history loader all take
this path; the Arnoldi process of :mod:`wextrap.krylov`, whose next
column depends on the last, calls the loop under M itself.  A GEMM's
bits in a column depend on the block's width, so a run, its
``factors`` and its reloaded history frame the same blocks of the
same stored differences, whatever ``k_max`` or the stop, and hold the
same R bit for bit; :func:`mgs_factorize` frames the columns it is
given, and agrees with them to roundoff under a dense M when they are
fewer.

The buffers take the field of the factored columns and the weight
(:func:`wextrap.weights._in_field`): float64 when both are real by
value, so a real factorization costs real GEMVs, and complex128
otherwise.  :func:`mgs_factorize` decides it from its input, as
:func:`wextrap.extrapolate.run` does; the history loader passes the
field of the run that wrote the file (that of the weight, x0 and the
differences), so it regrows the run's factors in the run's field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RankDeficient
from .weights import WeightOperator, _in, _in_field, validate

__all__ = [
    "RANK_TOL",
    "WQRFactors",
    "orthogonalize_column",
    "mgs_factorize",
]

#: a deflated column whose weighted norm falls at or below RANK_TOL
#: times the incoming column's weighted norm is treated as dependent
RANK_TOL = 1e-13

#: columns of a known block framed at a time by :func:`_grow_known`: one
#: GEMM's worth, so a full frame stays BLAS-3 and an early stop frames
#: at most this many columns it does not use
_FRAME_COLS = 32


@dataclass(frozen=True)
class WQRFactors:
    """Q and R factors tied to the weight that defines orthonormality.

    ``q`` has shape (N, k) with Q* M Q = I; ``r`` has shape (k, k),
    upper triangular with positive real diagonal; ``p`` is M Q, so that
    projections onto the basis take no product with M.  Under the
    identity weight ``p`` is ``q``, the same array.  The factors the
    loop hands out are leading views of buffers that only it writes,
    and it never rewrites the first k columns; Q and P mapped back
    from a frame are arrays of their own.
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


def _grow_known(weight: WeightOperator, u, count: int, dtype,
                rank_tol: float | None = None):
    """:func:`_grow` over the first ``count`` columns of a known block
    ``u``, in ``dtype``, in their frame (``weight._frame``: L^H u under
    a dense M), under the identity weight, so it makes no product with
    M.  The frame is made :data:`_FRAME_COLS` columns at a time, at
    fixed offsets into ``u``, as the loop reaches them: a stop frames
    no more than the block it stops in, and a column's frame bits
    depend on ``u``'s width only through its own block's.  Returns
    ``_grow``'s ``(r, factors, norms)``: R is the weighted R of u's
    columns, and the factors are the frame's, Euclidean;
    :func:`_unframed` maps them to Q and P.  Under the identity weight
    the frame is ``u`` and this is ``_grow`` itself."""
    euclid = (weight if weight.kind == "identity"
              else WeightOperator.identity(weight.dimension))
    block = {}  # the one framed block, by its first column

    def column(j, _):
        a = j - j % _FRAME_COLS
        if a not in block:
            block.clear()
            block[a] = weight._frame(_in(dtype, u[:, a:a + _FRAME_COLS]))
        return block[a][:, j - a]

    return _grow(euclid, count, dtype, column, rank_tol)


def _unframed(weight: WeightOperator, frame: WQRFactors) -> WQRFactors:
    """The weighted factors of the frame's factors ``frame``: their R,
    Q and P = M Q (``weight._unframe``)."""
    q, p = weight._unframe(frame.q)
    return WQRFactors(weight, q, frame.r, p)


def mgs_factorize(a, weight) -> WQRFactors:
    """Weighted QR factorization of the columns of ``a``, grown in their
    frame by :func:`_grow_known`, as :func:`wextrap.extrapolate.run`
    grows its R: bit for bit the run's floats when ``a`` is the run's
    whole difference block, and the same to roundoff otherwise.  Raises
    :class:`RankDeficient` at the first dependent column, judged against
    :data:`RANK_TOL` (read at call time); column N of N-vectors raises
    it with no residual or threshold."""
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
    r, factors, norms = _grow_known(weight, a, a.shape[1], a.dtype)
    j = factors.k
    if j < len(norms):
        if j == weight.dimension:  # dependent whatever its norm
            raise RankDeficient(j)
        raise RankDeficient(j, residual_norm=float(r[j, j].real),
                            threshold=RANK_TOL * norms[j])
    return _unframed(weight, factors)
