"""Vector extrapolation from an iterate sequence.

Given iterates x_0, x_1, ... of a fixed-point process and their first
differences u_j = x_{j+1} - x_j, stage k builds an accelerated vector

    s_k = sum_i gamma_i x_i,      sum_i gamma_i = 1,

from the difference block U_k = [u_0, ..., u_k].  Two choices of
gamma are computed side by side, both working entirely in the
triangular frame of the weighted QR factorization U_k = Q_k R_k, at
the cost of one back substitution per stage:

* minimal-polynomial coefficients (``mpe``): solve the least-squares
  problem min ||| U_{k-1} c' + u_k ||| by back substitution
  R_{k-1} c' = -rho_k, where rho_k is the last column of R_k above the
  diagonal; set c_k = (c', 1) and gamma = c_k / alpha_k with
  alpha_k = sum(c_k).  The method is defined only when alpha_k is
  nonzero; numerically, when |alpha_k| > EXIST_TOL * sum|c_i|.

* reduced-rank coefficients (``rre``): minimize ||| U_k gamma |||
  subject to sum gamma_i = 1.  The minimizer is lam * h_k with
  h_k = R_k^{-1} R_k^{-*} e and lam = 1 / sum(h_k); splitting off R_k's
  last row and column gives the paper's coupling recursion

      h_k = [h_{k-1}; 0] + conj(alpha_k) c_k / r_kk^2,
      mu_k = mu_{k-1} + nu_k,    nu_k = |alpha_k|^2 / r_kk^2,

  with mu_k = sum(h_k) = 1 / lam.  So the reduced-rank result follows
  from the minimal-polynomial c_k in O(k) work, with no solve of its
  own and no division by alpha_k; mu_k is real and positive whenever
  R_k is nonsingular.

Cheap residual estimates come for free from the same factors:
phi = ||| U_k gamma ||| equals r_kk |gamma_k| for ``mpe`` and
sqrt(lam) for ``rre``; no product with U_k is ever formed.

The accelerated vector is assembled as s_k = x_0 + Q_{k-1} eta with
eta = R_{k-1} xi and xi_j = 1 - (gamma_0 + ... + gamma_j), again
avoiding any multiplication by U_k itself.

:func:`run` drives the whole pipeline over a sequence, factoring
incrementally with the CGS2 kernel of :mod:`wextrap.qr` (one product
with M per difference column; |||u_k||| follows from the same
deflation by Pythagoras) and recording both methods at every stage.
It stops early when an incoming difference is numerically zero (the
iteration converged on its own) or when the difference block loses
rank -- the latter signals the terminal degree: there the
least-squares system is consistent, the two methods coincide, and the
extrapolated vector is exact for linear problems.
"""

from __future__ import annotations

import base64
import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    InsufficientVectors,
    LambdaNotPositive,
    MpeNonexistent,
    NonFiniteIterate,
)
from .qr import RANK_TOL, WQRFactors, _append, _buffers, \
    orthogonalize_column
from .weights import validate

__all__ = [
    "EXIST_TOL",
    "CONVERGE_ATOL",
    "CoefficientSolve",
    "ExtrapolationRecord",
    "RunStatus",
    "RunHistory",
    "assemble",
    "run",
    "history_to_dict",
    "history_rows",
]

#: existence threshold: mpe is declared undefined when
#: |sum c_i| <= EXIST_TOL * sum |c_i|
EXIST_TOL = 1e-12

#: an incoming difference with weighted norm at or below this absolute
#: value means the underlying iteration has already converged
CONVERGE_ATOL = 1e-300


@dataclass(frozen=True)
class CoefficientSolve:
    """Outcome of one coefficient solve at a fixed stage.

    ``gamma`` holds the k+1 convex-combination coefficients (summing
    to one), ``phi`` the estimated weighted residual norm
    ||| U_k gamma |||, and ``s`` the assembled vector once attached.
    For ``mpe`` the solve may not exist (``exists`` False, ``gamma``
    and ``phi`` None, ``alpha`` near zero); ``rre`` always exists.
    """

    method: str
    exists: bool
    gamma: np.ndarray | None
    phi: float | None
    alpha: complex | None = None
    lam: float | None = None
    s: np.ndarray | None = None


@dataclass(frozen=True)
class ExtrapolationRecord:
    """Both methods' results at stage k.

    ``u_norm`` is ||| u_k ||| (for a linear iteration this is the true
    weighted residual norm of iterate x_k), ``rdiag`` the diagonal
    entry r_kk produced when u_k was orthogonalized.  On the terminal
    stage ``rdiag`` is the trial value that failed the rank test and
    ``terminal`` is set.
    """

    k: int
    u_norm: float
    rdiag: float
    mpe: CoefficientSolve
    rre: CoefficientSolve
    terminal: bool = False


class RunStatus(enum.Enum):
    COMPLETED = "completed"
    CONVERGED = "converged"
    RANK_DEFICIENT = "rank_deficient"


@dataclass
class RunHistory:
    """Everything :func:`run` saw and produced.

    ``differences`` is the N x m array of first differences, column j
    being u_j = x_{j+1} - x_j, so U_k is ``differences[:, :k + 1]``.
    ``factors`` is the factorization of all difference columns that
    were actually appended; stage k's factors are its leading
    (k+1)-column block, so nothing is stored twice.
    """

    weight: object
    x0: np.ndarray
    differences: np.ndarray
    records: list[ExtrapolationRecord] = field(default_factory=list)
    factors: WQRFactors | None = None
    status: RunStatus = RunStatus.COMPLETED
    detected_k0: int | None = None
    k_max: int = 0

    @property
    def stages(self) -> int:
        return len(self.records)

    def record(self, k: int) -> ExtrapolationRecord:
        return self.records[k]

    def factors_at(self, k: int) -> WQRFactors:
        """Factors of U_k; valid for every non-terminal stage."""
        return self.factors.leading(k + 1)


def _mpe(r, rho, rdiag):
    """The minimal-polynomial half of a stage: ``(c, solve)``.

    ``r`` is R_{k-1} (k x k), ``rho`` the k projection coefficients of
    u_k on the basis, ``rdiag`` the deflated norm.  R_{k-1} is upper
    triangular with a positive diagonal, so the partial pivoting in
    ``np.linalg.solve`` never swaps a row: it is a back substitution.
    """
    c = np.append(np.linalg.solve(r, -rho), 1.0)
    alpha = complex(c.sum())
    exists = abs(alpha) > EXIST_TOL * float(np.abs(c).sum())
    if not exists:
        return c, CoefficientSolve("mpe", False, None, None, alpha=alpha)
    gamma = c / alpha
    phi = float(rdiag) * abs(gamma[-1])
    return c, CoefficientSolve("mpe", True, gamma, phi, alpha=alpha)


def _stage(r, rho, rdiag, h, mu):
    """Both methods at a non-terminal stage: ``(mpe, rre, h, mu)``.

    The reduced-rank half is the coupling recursion of the module
    docstring, carried in the unnormalized h_{k-1} and mu_{k-1}
    (empty and 0 before stage 0).
    """
    c, mpe = _mpe(r, rho, rdiag)
    scaled = abs(mpe.alpha) / rdiag
    mu = mu + scaled * scaled
    if not math.isfinite(mu) or mu <= 0.0:
        raise LambdaNotPositive(
            f"mu = sum(h) = {mu!r} is not finite and positive; the "
            "factors are not a valid weighted QR")
    h = np.append(h, 0.0) + (mpe.alpha.conjugate() / rdiag / rdiag) * c
    lam = 1.0 / mu
    rre = CoefficientSolve("rre", True, h * lam, math.sqrt(lam), lam=lam)
    return mpe, rre, h, mu


def assemble(x0, factors: WQRFactors, gamma) -> np.ndarray:
    """Build s_k = x_0 + Q_{k-1} R_{k-1} xi from the coefficients.

    ``gamma`` has k+1 entries; only the leading k columns of the
    factorization are used, so passing either stage-k or stage-(k-1)
    factors works.  Stage 0 returns x_0 itself.
    """
    if gamma is None:
        raise MpeNonexistent("cannot assemble an extrapolant without "
                             "coefficients (alpha was numerically zero)")
    gamma = np.asarray(gamma, dtype=complex)
    x0 = np.asarray(x0, dtype=complex)
    k = gamma.size - 1
    if k == 0:
        return x0.copy()
    if factors.k < k:
        raise DimensionMismatch(
            f"assembly at stage {k} needs {k} factored columns, have {factors.k}"
        )
    xi = 1.0 - np.cumsum(gamma)[:k]
    eta = factors.r[:k, :k] @ xi
    return x0 + factors.q[:, :k] @ eta


def _terminal_records(x0, factors, coeffs, rnorm, u_norm, k,
                      previous: ExtrapolationRecord | None):
    """Solves for the terminal stage, where the system is consistent.

    The least-squares problem min ||| U_{k-1} c' + u_k ||| now has a
    (numerically) exact solution, so the two methods coincide: the
    reduced-rank coefficients are taken equal to the
    minimal-polynomial ones and lam = phi^2 (both essentially zero).
    If even here alpha vanishes, the minimal-polynomial method is
    undefined at its own terminal degree; the reduced-rank record then
    repeats the previous stage, extending the stagnation one step.
    """
    _, mpe = _mpe(factors.r, coeffs, rnorm)
    if mpe.exists:
        s = assemble(x0, factors, mpe.gamma)
        mpe = replace(mpe, s=s)
        rre = CoefficientSolve("rre", True, mpe.gamma.copy(), mpe.phi,
                               lam=mpe.phi ** 2, s=s.copy())
    elif previous is not None and previous.rre.gamma is not None:
        gamma = np.append(previous.rre.gamma, 0.0)
        rre = CoefficientSolve("rre", True, gamma, previous.rre.phi,
                               lam=previous.rre.lam,
                               s=None if previous.rre.s is None
                               else previous.rre.s.copy())
    else:
        rre = CoefficientSolve("rre", False, None, None)
    return ExtrapolationRecord(k, u_norm, float(rnorm), mpe, rre, terminal=True)


def run(iterates, weight, k_max: int | None = None,
        rank_tol: float = RANK_TOL) -> RunHistory:
    """Run both extrapolation methods over an iterate sequence.

    Parameters
    ----------
    iterates : array_like, shape (m+1, N)
        The sequence x_0, ..., x_m, one iterate per row.
    weight : WeightOperator or array_like
        Weight defining the inner product; validated via
        :func:`wextrap.weights.validate`.
    k_max : int, optional
        Last stage to compute.  Defaults to every stage the sequence
        supports, capped at the space dimension N (at stage N the
        difference block has N+1 columns and is structurally
        dependent, so no run can go further).
    rank_tol : float
        Threshold for rank loss; minimal-polynomial existence is judged
        against :data:`EXIST_TOL` and plain convergence of the
        underlying iteration against :data:`CONVERGE_ATOL`.

    Returns
    -------
    RunHistory
        One record per computed stage; ``status`` tells how the run
        ended and ``detected_k0`` the terminal stage if one was hit.
    """
    x = np.asarray(iterates, dtype=complex)
    if x.ndim != 2:
        raise DimensionMismatch(
            f"iterates must form a 2-D (count, dimension) array, got {x.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise NonFiniteIterate(int(bad[0]))
    weight = validate(weight)
    if x.shape[1] != weight.dimension:
        raise DimensionMismatch(
            f"iterates of dimension {x.shape[1]}, weight of dimension "
            f"{weight.dimension}"
        )
    if x.shape[0] < 2:
        raise InsufficientVectors(
            f"need at least 2 iterates to difference, got {x.shape[0]}"
        )
    diffs = np.ascontiguousarray((x[1:] - x[:-1]).T)
    n = weight.dimension
    available = diffs.shape[1] - 1  # stage k consumes differences u_0..u_k
    if k_max is None:
        k_max = min(available, n)
    else:
        k_max = min(int(k_max), n)
    if k_max < 0:
        raise InsufficientVectors("k_max must be nonnegative")
    if k_max > available:
        raise InsufficientVectors(
            f"stage {k_max} needs {k_max + 2} iterates, got {x.shape[0]}"
        )

    x0 = x[0].copy()
    history = RunHistory(weight=weight, x0=x0, differences=diffs,
                         k_max=k_max)
    # Q, P and R for every stage, allocated once; each stage's factors
    # are a leading view of them
    room = _buffers(weight, k_max + 1)
    factors = room.leading(0)
    h, mu = np.zeros(0, dtype=complex), 0.0

    for k in range(k_max + 1):
        u = diffs[:, k]
        coeffs, w, mw, rnorm = orthogonalize_column(factors, u)
        u_norm = float(np.hypot(np.linalg.norm(coeffs), rnorm))
        previous = history.records[-1] if history.records else None

        converged = u_norm <= CONVERGE_ATOL
        if converged or k == n or rnorm <= rank_tol * u_norm:
            history.records.append(_terminal_records(
                x0, factors, coeffs, rnorm, u_norm, k, previous))
            history.status = RunStatus.CONVERGED if converged \
                else RunStatus.RANK_DEFICIENT
            history.detected_k0 = k
            break

        mpe, rre, h, mu = _stage(factors.r, coeffs, rnorm, h, mu)
        factors = _append(room, coeffs, w, mw, rnorm)
        if mpe.exists:
            mpe = replace(mpe, s=assemble(x0, factors, mpe.gamma))
        rre = replace(rre, s=assemble(x0, factors, rre.gamma))
        history.records.append(ExtrapolationRecord(
            k, u_norm, float(rnorm), mpe, rre))

    if factors.k < room.k:
        # stopped early: keep the leading block, not the unused columns
        factors = WQRFactors(weight, factors.q.copy(order="F"),
                             factors.r.copy(), factors.p.copy(order="F"))
    history.factors = factors
    return history


# -- serialization ---------------------------------------------------

def _pair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _block(a) -> dict:
    """One array as its little-endian IEEE-754 bytes in base64: exact,
    byte-deterministic and platform-independent.  Stored as ``"<f8"``
    when every imaginary part is zero, else as ``"<c16"``."""
    a = np.asarray(a)
    dtype = "<c16" if np.iscomplexobj(a) and a.imag.any() else "<f8"
    # the contiguous copy is freed before the decode: it, the base64
    # bytes and their str are never alive at once
    encoded = base64.b64encode(
        np.ascontiguousarray(a.real if dtype == "<f8" else a, dtype=dtype))
    return {"dtype": dtype, "shape": list(a.shape),
            "b64": encoded.decode("ascii")}


def _solve_to_dict(solve: CoefficientSolve) -> dict:
    out = {"method": solve.method, "exists": bool(solve.exists)}
    out["gamma"] = None if solve.gamma is None else _block(solve.gamma)
    out["phi"] = None if solve.phi is None else float(solve.phi)
    out["alpha"] = None if solve.alpha is None else _pair(solve.alpha)
    out["lam"] = None if solve.lam is None else float(solve.lam)
    out["s"] = None if solve.s is None else _block(solve.s)
    return out


def history_to_dict(history: RunHistory) -> dict:
    """JSON-ready dict of the version-2 history format.

    Every array (``x0``, the (N, m) ``differences``, the weight's
    ``weights`` or ``matrix``, each solve's ``gamma`` and ``s``) is a
    block ``{"dtype", "shape", "b64"}``; scalars stay JSON numbers and
    ``alpha`` an ``[re, im]`` pair.  Key order is irrelevant: serialize
    with sort_keys for byte-stable output.
    """
    w = history.weight
    if w.kind == "identity":
        weight_spec = {"kind": "identity"}
    elif w.kind == "diagonal":
        # M applied to ones is the stored weights, exactly
        weight_spec = {"kind": "diagonal",
                       "weights": _block(w.apply(np.ones(w.dimension)).real)}
    else:
        weight_spec = {"kind": "dense", "matrix": _block(w.matrix())}
    return {
        "format": "wextrap-history",
        "version": 2,
        "dimension": int(w.dimension),
        "k_max": int(history.k_max),
        "status": history.status.value,
        "detected_k0": history.detected_k0,
        "weight": weight_spec,
        "x0": _block(history.x0),
        "differences": _block(history.differences),
        "records": [
            {
                "k": rec.k,
                "u_norm": float(rec.u_norm),
                "rdiag": float(rec.rdiag),
                "terminal": bool(rec.terminal),
                "mpe": _solve_to_dict(rec.mpe),
                "rre": _solve_to_dict(rec.rre),
            }
            for rec in history.records
        ],
    }


def history_rows(history: RunHistory) -> list[dict]:
    """Flat per-stage scalars for tables and CSV output."""
    rows = []
    for rec in history.records:
        rows.append({
            "k": rec.k,
            "u_norm": rec.u_norm,
            "mpe_exists": rec.mpe.exists,
            "phi_mpe": rec.mpe.phi,
            "phi_rre": rec.rre.phi,
            "terminal": rec.terminal,
        })
    return rows
