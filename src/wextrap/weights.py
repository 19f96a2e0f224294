"""Weighted inner-product space.

A hermitian positive definite matrix M defines the inner product
``<y, z> = y* M z`` and the norm ``|||z||| = sqrt(z* M z)``.  Three
representations are supported: identity (the Euclidean product),
diagonal (positive weights, ``<y, z> = sum a_i conj(y_i) z_i``), and a
general dense hermitian matrix.  A dense matrix must be finite and
hermitian, and is validated by its Cholesky factorization, whose
existence is the positive-definiteness test.

:meth:`WeightOperator.apply` and :meth:`WeightOperator.norm` take an
(N,) vector or an (N, m) block of column vectors.  A block costs one
product with M for all of its columns (a GEMM when M is dense, where m
vectors one at a time would be m GEMVs).  Its norms are then read
column by column, each with the vector's checks, from one vdot of the
column with its column of MV.  For the identity and a diagonal weight
MV is formed entry by entry, so the norms of a column-major block are
bit-identical to its columns' vector norms; a dense weight differs
only by the GEMM's rounding.  Callers that need many weighted norms
at once (:func:`wextrap.relations.verify_history`,
:func:`wextrap.krylov.equivalence_check`) stack them into one block.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeQuadraticForm,
    NonpositiveWeight,
    NotHermitian,
    NotPositiveDefinite,
)

__all__ = ["WeightOperator", "validate"]

#: absolute tolerance on max |M - M*| entry deviation for dense input
HERMITICITY_ATOL = 1e-12

#: relative bound on the imaginary residue of a quadratic form z*Mz
_IMAG_RTOL = 1e-12


class WeightOperator:
    """Validated weight operator M.

    Instances are immutable after construction and safe to share across
    threads.  Use the factory classmethods (:meth:`identity`,
    :meth:`diagonal`, :meth:`dense`) or :func:`validate` instead of
    calling the constructor directly.
    """

    __slots__ = ("kind", "dimension", "_diag", "_matrix", "_scale")

    def __init__(self, kind, dimension, diag=None, matrix=None, scale=1.0):
        self.kind = kind
        self.dimension = dimension
        self._diag = diag
        self._matrix = matrix
        self._scale = scale

    @classmethod
    def identity(cls, dimension: int) -> "WeightOperator":
        if dimension < 1:
            raise DimensionMismatch(f"dimension must be >= 1, got {dimension}")
        return cls("identity", int(dimension))

    @classmethod
    def diagonal(cls, weights) -> "WeightOperator":
        w = np.atleast_1d(np.asarray(weights))
        if w.ndim != 1 or w.size < 1:
            raise DimensionMismatch("diagonal weights must form a nonempty vector")
        if np.iscomplexobj(w):
            if np.max(np.abs(w.imag)) > HERMITICITY_ATOL:
                raise NonpositiveWeight("diagonal weights must be real")
            w = w.real
        w = w.astype(float)
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            bad = int(np.argmin(w))
            raise NonpositiveWeight(f"weight {bad} is {w[bad]!r}, expected > 0")
        return cls("diagonal", w.size, diag=w, scale=float(w.max()))

    @classmethod
    def dense(cls, matrix) -> "WeightOperator":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionMismatch(f"weight matrix must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise NotPositiveDefinite("weight matrix has a non-finite entry")
        dev = np.max(np.abs(m - m.conj().T))
        if dev > HERMITICITY_ATOL:
            raise NotHermitian(
                f"max |M - M*| entry deviation {dev:.3e} exceeds {HERMITICITY_ATOL:.0e}"
            )
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(str(exc)) from None
        return cls("dense", m.shape[0], matrix=m,
                   scale=float(np.max(np.abs(m))))

    # -- application -------------------------------------------------

    def _check_dim(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        if z.ndim not in (1, 2) or z.shape[0] != self.dimension:
            raise DimensionMismatch(
                f"expected vector of dimension {self.dimension} or an "
                f"({self.dimension}, m) block, got shape {z.shape}"
            )
        return z

    def apply(self, z) -> np.ndarray:
        """Return M z, for a vector z or column by column for an (N, m)
        block in one product.  The identity weight copies a vector but
        returns a block as it is (as a complex array)."""
        z = self._check_dim(z)
        if self.kind == "identity":
            return z.copy() if z.ndim == 1 else z
        if self.kind == "diagonal":
            return self._diag * z if z.ndim == 1 else self._diag[:, None] * z
        return self._matrix @ z

    def norm(self, z):
        """Induced norm sqrt(z* M z) from one application of M.

        For an (N, m) block, the m column norms as an array, from one
        block product.  Each quadratic form must be real and
        nonnegative up to roundoff or :class:`NegativeQuadraticForm` is
        raised."""
        mz = self.apply(z)
        return self._form_norm(np.asarray(z, dtype=complex), mz)

    def _form_norm(self, z, mz):
        # sqrt(z* M z) given mz = M z, with the quadratic-form checks
        if z.ndim == 2:
            # each column with the vector's checks; one vdot per column
            # keeps no N x m temporary beside z and MV
            return np.array([self._form_norm(z[:, j], mz[:, j])
                             for j in range(z.shape[1])])
        q = complex(np.vdot(z, mz))
        if abs(q.imag) > _IMAG_RTOL * (1.0 + abs(q.real)):
            raise NegativeQuadraticForm(
                f"quadratic form has imaginary residue {q.imag:.3e}"
            )
        scale = self._scale * float(np.vdot(z, z).real)
        if q.real < -1e-12 * max(scale, abs(q.real)):
            raise NegativeQuadraticForm(f"z*Mz = {q.real:.3e} < 0")
        return float(np.sqrt(max(q.real, 0.0)))

    def matrix(self) -> np.ndarray:
        """Dense N x N representation of M; for a dense weight, a
        read-only view of the stored matrix rather than a copy."""
        if self.kind == "identity":
            return np.eye(self.dimension, dtype=complex)
        if self.kind == "diagonal":
            return np.diag(self._diag).astype(complex)
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    def __repr__(self):
        return f"WeightOperator({self.kind}, N={self.dimension})"


def validate(raw) -> WeightOperator:
    """Validate a raw weight specification into a :class:`WeightOperator`.

    A 1-D array (or list of scalars) is taken as diagonal weights; a 2-D
    square array as a dense hermitian matrix.  An existing operator
    passes through unchanged.
    """
    if isinstance(raw, WeightOperator):
        return raw
    arr = np.asarray(raw)
    if arr.ndim <= 1:
        return WeightOperator.diagonal(arr)
    if arr.ndim == 2:
        return WeightOperator.dense(arr)
    raise DimensionMismatch(f"cannot interpret array of shape {arr.shape} as a weight")
