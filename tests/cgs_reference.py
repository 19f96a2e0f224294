"""Classical Gram-Schmidt reference for the weighted QR tests.

A second factorization route that the tests compare the package's
two-pass (CGS2) kernel against: every projection coefficient of a
column is taken against the original column before any subtraction,
as ``vdot(q_i, M a_j)`` with M applied through ``weight.apply``.  It shares only the weight operator and the
factor container with :mod:`wextrap.qr`.
"""

import numpy as np

from wextrap.errors import DimensionMismatch, RankDeficient
from wextrap.qr import RANK_TOL, WQRFactors
from wextrap.weights import validate


def gs_factorize(a, weight, reorthogonalize: bool = False,
                 rank_tol: float = RANK_TOL) -> WQRFactors:
    """Classical Gram-Schmidt factorization (cross-check variant).

    Projection coefficients are all taken against the original column,
    ``r_ij = <q_i, a_j>``, before any subtraction.  Less stable than
    :func:`wextrap.qr.mgs_factorize`; use it to corroborate, not to
    compute.
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
    n, m = a.shape
    q = np.zeros((n, m), dtype=complex)
    r = np.zeros((m, m), dtype=complex)
    for j in range(m):
        col = a[:, j]
        m_col = weight.apply(col)
        coeffs = np.array(
            [np.vdot(q[:, i], m_col) for i in range(j)], dtype=complex
        )
        w = col - q[:, :j] @ coeffs if j else col.copy()
        if reorthogonalize:
            m_w = weight.apply(w)
            second = np.array(
                [np.vdot(q[:, i], m_w) for i in range(j)], dtype=complex
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
    return WQRFactors(weight, q, r, weight.matrix() @ q)
