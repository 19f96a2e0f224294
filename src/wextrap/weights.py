"""Weighted inner-product space.

A hermitian positive definite matrix M defines the inner product
``<y, z> = y* M z`` and the norm ``|||z||| = sqrt(z* M z)``.  Three
representations are supported: identity (the Euclidean product),
diagonal (positive weights, ``<y, z> = sum a_i conj(y_i) z_i``), and a
general dense hermitian matrix.  A dense matrix must be finite and
hermitian, and is validated by its Cholesky factorization M = L L^H,
whose existence is the positive-definiteness test.  The weight keeps
the factor, as L^H, beside its copy of M: it holds 2x the bytes of M.

The frame.  Under M = L L^H, |||z||| = ||L^H z||_2: the weighted
geometry is the Euclidean one of the frame L^H z (sqrt(w) z for
diagonal weights w, z itself for the identity).  Only this module
knows the factor.  ``WeightOperator._frame`` maps a block of known
columns into its frame (under a dense M, L^H U in row blocks that skip
the zero triangle, half the flops of one GEMM), and
``WeightOperator._unframe`` maps a basis of the frame with orthonormal
columns back to Q, orthonormal under M, and P = M Q; under a dense M,
Q is a back substitution with L^H in row blocks (numpy has no
triangular solve).
:mod:`wextrap.qr` factors every known block in its frame, framing a
fixed number of columns at a time, so no product with M is made
column by column.

The field.  The paper's relations hold over C^N, but real data is the
common case, and real arithmetic costs less: a real GEMV about half a
complex one, a real Cholesky about a third.
So every computation runs in float64 when the weight and every data
array it touches hold no nonzero imaginary part, and in complex128
otherwise (:func:`_field`).  The rule reads values, not dtypes: a
complex array whose imaginary parts are all zero is real data.  The
identity and a diagonal weight are real; a dense M is kept as float64
when its entries are real and as complex128 otherwise, and
:meth:`WeightOperator.matrix` returns it in that field.

:meth:`WeightOperator.apply` and :meth:`WeightOperator.norm` take an
(N,) vector or an (N, m) block of column vectors, real or complex.  A
complex vector under a real weight is complex data, and M z stays
complex.  A real dense M applies to it as one real product with its
real and imaginary parts side by side (N x 2m), never by a complex copy
of M.  A block costs one product with M for all of its columns (a GEMM
when M is dense, where m vectors one at a time would be m GEMVs).  A
vector's norm is one vdot of z with M z in their own field, a real dot
for real data, so a real vector's norm may differ in its last bit
between float64 and complex128 storage.  A block's norms are one
``np.vecdot`` sweep over its columns, which calls the same BLAS dot on
each column as vdot does on that column, and the vector's checks are
made on all the columns at once; a failing column raises what the
vector path raises for it.  So a block's norms are
bit-identical to the vector norms of its columns against its MV; for
the identity and a diagonal weight MV is formed entry by entry, so they
are the columns' own vector norms, and a dense weight differs only by
the GEMM's rounding.  Callers that need many weighted norms at once
(:func:`wextrap.relations.verify_history`,
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

#: rows of a dense M read at a time by :func:`_blocked_check`, and of
#: its factor by :func:`_upper_product` and :func:`_back_substitute`
_ROWS = 64


class WeightOperator:
    """Validated weight operator M.

    Instances are immutable after construction and safe to share across
    threads.  Use the factory classmethods (:meth:`identity`,
    :meth:`diagonal`, :meth:`dense`) or :func:`validate` instead of
    calling the constructor directly.
    """

    __slots__ = ("kind", "dimension", "_diag", "_matrix", "_scale", "_dtype",
                 "_factor")

    def __init__(self, kind, dimension, diag=None, matrix=None, scale=1.0,
                 factor=None):
        self.kind = kind
        self.dimension = dimension
        self._diag = diag
        self._matrix = matrix
        self._scale = scale
        # L^H of a dense M = L L^H, the validation's Cholesky factor
        self._factor = factor
        # float, or complex for a dense M with a nonzero imaginary part
        self._dtype = complex if np.iscomplexobj(matrix) else float

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
        bad = np.flatnonzero(~(np.isfinite(w) & (w > 0.0)))
        if bad.size:
            raise NonpositiveWeight(
                f"weight {bad[0]} is {float(w[bad[0]])!r}, expected > 0")
        return cls("diagonal", w.size, diag=w, scale=float(w.max()))

    @classmethod
    def dense(cls, matrix) -> "WeightOperator":
        """Dense hermitian positive definite M, kept as a copy in its
        field beside its Cholesky factor.  The hermiticity check and
        ``scale`` (max |M| entry) read M :data:`_ROWS` rows at a time,
        so beside the copy and the factor only row blocks are made
        (:func:`_blocked_check`).  The factor L is kept as L^H: L is
        conjugated in place and transposed as a view, so the weight
        holds two N x N arrays and never makes a third."""
        m = np.asarray(matrix)
        # a copy in M's field: a real M is float64 whatever its dtype was
        field = _field(m)
        return cls._dense(np.array(m.real if field is float else m,
                                   dtype=field))

    @classmethod
    def _dense(cls, m) -> "WeightOperator":
        """:meth:`dense` of an array the weight may keep as it is: ``m``
        itself when it is float64 or complex128 in its field (the
        history loader's freshly decoded M), else a copy in its field."""
        field = _field(m)
        m = _in(field, m)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionMismatch(f"weight matrix must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise NotPositiveDefinite("weight matrix has a non-finite entry")
        dev, scale = _blocked_check(m)
        if dev > HERMITICITY_ATOL:
            raise NotHermitian(
                f"max |M - M*| entry deviation {dev:.3e} exceeds {HERMITICITY_ATOL:.0e}"
            )
        try:
            factor = np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(str(exc)) from None
        if field is complex:
            np.conjugate(factor, out=factor)
        return cls("dense", m.shape[0], matrix=m, scale=scale,
                   factor=factor.T)

    # -- application -------------------------------------------------

    def _check_dim(self, z: np.ndarray) -> np.ndarray:
        # z keeps its field under a real M, and is complex under a complex M
        z = np.asarray(z)
        z = np.asarray(z, dtype=complex if np.iscomplexobj(z) else self._dtype)
        if z.ndim not in (1, 2) or z.shape[0] != self.dimension:
            raise DimensionMismatch(
                f"expected vector of dimension {self.dimension} or an "
                f"({self.dimension}, m) block, got shape {z.shape}"
            )
        return z

    def apply(self, z) -> np.ndarray:
        """Return M z, for a vector z or column by column for an (N, m)
        block in one product, in the field of M and z.  The identity
        weight copies a vector but returns a block as it is."""
        z = self._check_dim(z)
        if self.kind == "identity":
            return z.copy() if z.ndim == 1 else z
        if self.kind == "diagonal":
            return self._diag * z if z.ndim == 1 else self._diag[:, None] * z
        return _real_parts(np.matmul, self._matrix, z)

    def _frame(self, u):
        """The (N, m) block ``u`` in the frame where this weight is the
        Euclidean one: ``u`` itself under the identity, sqrt(w) u under
        a diagonal weight and L^H u under a dense M = L L^H, one GEMM
        per row block (:func:`_upper_product`).  So |||u||| =
        ||frame(u)||_2, and the weighted QR of u has the R of the
        Euclidean QR of its frame.  A GEMM's bits in a column depend on
        the block's width, so callers that must agree frame the same
        block."""
        if self.kind == "identity":
            return u
        if self.kind == "diagonal":
            return np.sqrt(self._diag)[:, None] * u
        return _real_parts(_upper_product, self._factor, u)

    def _unframe(self, qx):
        """``(q, p)`` from an (N, k) basis ``qx`` of a frame with
        orthonormal columns: Q = L^-H Q_X, whose columns are orthonormal
        under this weight, and P = M Q.  Under the identity ``qx`` is
        both, one array; under a diagonal weight Q = Q_X / sqrt(w) and
        P = sqrt(w) Q_X.  Under a dense M, Q is a blocked back
        substitution (:func:`_back_substitute`) and P the product
        :meth:`apply` makes, M Q in the field of both, without a call
        of :meth:`apply`: a trace of it counts the algorithm's products
        alone."""
        if self.kind == "identity":
            return qx, qx
        if self.kind == "diagonal":
            root = np.sqrt(self._diag)[:, None]
            return qx / root, root * qx
        q = _real_parts(_back_substitute, self._factor, qx)
        return q, _real_parts(np.matmul, self._matrix, q)

    def norm(self, z):
        """Induced norm sqrt(z* M z) from one application of M, summed
        in the field of z and M z.

        For an (N, m) block, the m column norms as an array, from one
        block product.  Each quadratic form must be real and
        nonnegative up to roundoff or :class:`NegativeQuadraticForm` is
        raised."""
        z = self._check_dim(z)
        return self._form_norm(z, self.apply(z))

    def _form_norm(self, z, mz):
        # sqrt(z* M z) given mz = M z, with the quadratic-form checks
        if z.ndim == 2:
            return self._block_norms(z, mz)
        q = np.vdot(z, mz)
        if abs(q.imag) > _IMAG_RTOL * (1.0 + abs(q.real)):
            raise NegativeQuadraticForm(
                f"quadratic form has imaginary residue {q.imag:.3e}"
            )
        scale = self._scale * float(np.vdot(z, z).real)
        if q.real < -1e-12 * max(scale, abs(q.real)):
            raise NegativeQuadraticForm(f"z*Mz = {q.real:.3e} < 0")
        return float(np.sqrt(max(q.real, 0.0)))

    def _block_norms(self, z, mz):
        # the vector path's arithmetic on every column at once: vecdot
        # along a column is the BLAS dot that vdot calls on the column,
        # and the checks are its scalar ones elementwise.  The vector
        # path's scalars overflow to inf silently, so the ufuncs here do too
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.vecdot(z, mz, axis=0)
            zz = np.vecdot(z, z, axis=0).real
            re = q.real
            bad = np.flatnonzero(
                (abs(q.imag) > _IMAG_RTOL * (1.0 + abs(re)))
                | (re < -1e-12 * np.maximum(self._scale * zz, abs(re))))
            if bad.size:  # the vector path raises its error for the first
                j = bad[0]
                self._form_norm(z[:, j], mz[:, j])
                # and should it read the column otherwise, a flagged
                # column still never returns a norm
                raise NegativeQuadraticForm(
                    f"column {j}: z*Mz = {complex(q[j]):.3e} fails the "
                    "quadratic-form checks")
            # Python's max(q.real, 0.0): keeps -0.0 and NaN as they are
            return np.sqrt(np.where(re < 0.0, 0.0, re))

    def matrix(self) -> np.ndarray:
        """Dense N x N representation of M in its field (float64 unless
        a dense M is complex); for a dense weight, a read-only view of the
        stored matrix rather than a copy."""
        if self.kind == "identity":
            return np.eye(self.dimension)
        if self.kind == "diagonal":
            return np.diag(self._diag)
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


def _blocked_check(m):
    """``(max |M - M*| entry, max |M| entry)`` of a finite square M,
    :data:`_ROWS` rows at a time: rows a..b of M - M* are those rows of
    M less the conjugate of columns a..b, taken as they lie.  A real M
    is not conjugated and its differences are made absolute in place,
    so every temporary is a row block.  The maxima are the whole
    matrix's, to the bit."""
    real = m.dtype == float
    dev = scale = 0.0
    for a in range(0, m.shape[0], _ROWS):
        rows, cols = m[a:a + _ROWS], m[:, a:a + _ROWS].T
        diff = rows - (cols if real else cols.conj())
        dev = max(dev, float(np.abs(diff, out=diff if real else None).max()))
        scale = max(scale, float(np.abs(rows).max()))
    return dev, scale


def _real_parts(op, a, z):
    """``op(a, z)`` for an N x N matrix ``a`` and an (N,) or (N, m)
    ``z``.  A real ``a`` acts on a complex ``z`` as one real op on the
    real and imaginary parts of its entries side by side (N x 2m),
    never through a complex copy of ``a``."""
    if a.dtype == float and z.dtype == complex:
        parts = np.ascontiguousarray(z).view(float)
        if z.ndim == 1:
            parts = parts.reshape(-1, 2)
        return op(a, parts).view(complex).reshape(z.shape)
    return op(a, z)


def _upper_product(u, b):
    """U B for an upper triangular N x N ``u`` and an (N, m) ``b``:
    :data:`_ROWS` rows at a time, each block one GEMM against the rows
    of B from its diagonal down, so U's zero triangle costs no flops."""
    y = np.empty(b.shape, np.result_type(u, b))
    for a in range(0, u.shape[0], _ROWS):
        np.matmul(u[a:a + _ROWS, a:], b[a:], out=y[a:a + _ROWS])
    return y


def _back_substitute(u, b):
    """Y with U Y = B, for an upper triangular N x N ``u`` and an (N, m)
    ``b``: :data:`_ROWS` rows at a time from the last, each block one
    GEMM against the rows already solved and one solve against its
    diagonal block.  numpy has no triangular solve, but every entry
    below that block's diagonal is 0, so its LU pivots on the diagonal
    and leaves the block as it is: the solve is back substitution."""
    y = np.empty(b.shape, np.result_type(u, b))
    for a in reversed(range(0, u.shape[0], _ROWS)):
        e = a + _ROWS
        y[a:e] = np.linalg.solve(u[a:e, a:e], b[a:e] - u[a:e, e:] @ y[e:])
    return y


def _field(*arrays):
    """float when no array holds a nonzero imaginary part, else complex:
    the field a computation on these arrays runs in (the module
    docstring's rule, applied to values, not dtypes)."""
    if any(np.iscomplexobj(a) and a.imag.any() for a in arrays):
        return complex
    return float


def _field_of(weight, *arrays):
    """The field of ``weight`` and ``arrays``: float when M and every
    array are real by value, else complex."""
    return complex if weight._dtype is complex else _field(*arrays)


def _in_field(weight, *arrays):
    """``arrays`` in the field of ``weight`` and themselves: all float64
    when M and every array are real by value, else all complex128.  A
    complex array made float is a float64 copy of its real part (all it
    holds), laid out as the array was, so BLAS reads it contiguously."""
    arrays = [np.asarray(a) for a in arrays]
    dtype = _field_of(weight, *arrays)
    return [_in(dtype, a) for a in arrays]


def _in(dtype, a):
    """``a`` as ``dtype`` (float64 or complex128), given that it holds
    values of that field: a complex array made float is a float64 copy
    of its real part, laid out as the array was."""
    a = np.asarray(a)
    if np.dtype(dtype) == float and np.iscomplexobj(a):
        return np.array(a.real, float)
    return np.asarray(a, dtype=dtype)
