"""Vector extrapolation from an iterate sequence.

Given iterates x_0, x_1, ... of a fixed-point process and their first
differences u_j = x_{j+1} - x_j, stage k builds an accelerated vector

    s_k = sum_i gamma_i x_i,      sum_i gamma_i = 1,

from the difference block U_k = [u_0, ..., u_k].  Two choices of
gamma are computed side by side, both working entirely in the
triangular frame of the weighted QR factorization U_k = Q_k R_k.  One
triangular solve against the final R gives every stage:

* minimal-polynomial coefficients (``mpe``): solve the least-squares
  problem min ||| U_{k-1} c' + u_k ||| by back substitution
  R_{k-1} c' = -rho_k, where rho_k is the last column of R_k above the
  diagonal.  Each R_{k-1} is a leading block of the final R, so column
  k of R^{-1} (-triu(R, 1)) is stage k's c', and one solve gives every
  stage's (Sidi, J. Comput. Appl. Math. 36, 1991); the terminal
  stage's rho is one more right-hand side.  Set c_k = (c', 1) and
  gamma = c_k / alpha_k with alpha_k = sum(c_k).  The method is
  defined only when alpha_k is nonzero; numerically, when sigma_k
  below exceeds EXIST_TOL.

* reduced-rank coefficients (``rre``): minimize ||| U_k gamma |||
  subject to sum gamma_i = 1.  The minimizer is lam * h_k with
  h_k = R_k^{-1} R_k^{-*} e and lam = 1 / sum(h_k); splitting off R_k's
  last row and column gives the paper's coupling recursion

      h_k = [h_{k-1}; 0] + conj(alpha_k) c_k / r_kk^2,
      mu_k = mu_{k-1} + nu_k,    nu_k = |alpha_k|^2 / r_kk^2,

  with mu_k = sum(h_k) = 1 / lam.  So the reduced-rank result follows
  from the minimal-polynomial c_k in O(k) work, with no solve of its
  own and no division by alpha_k; mu_k is real and positive whenever
  R_k is nonsingular.  sigma_k = sqrt(nu_k / mu_k) is 0 exactly where
  the minimal-polynomial vector does not exist and the reduced-rank one
  stagnates.  The one exception is the terminal stage, whose r_kk is a
  rejected trial value: existence there is |alpha_k| > EXIST_TOL * sum|c_i|.

Cheap residual estimates come for free from the same factors:
phi = ||| U_k gamma ||| equals r_kk |gamma_k| for ``mpe`` and
sqrt(lam) for ``rre``; no product with U_k is ever formed.

Since sum gamma = 1, the accelerated vector is

    s_k = x_0 + U_{k-1} xi,      xi_j = 1 - (gamma_0 + ... + gamma_j),

a combination of the differences the run keeps (Sidi's x_0 + Q R xi
suits his algorithm, which overwrites U with Q).  With every stage's
xi as a column of one array, one product gives every s.

:func:`run` drives the whole pipeline over a sequence in two phases.
The QR loop is the one growth loop of :mod:`wextrap.qr` (one product
with M per difference column; |||u_k||| follows from the same deflation
by Pythagoras).  It stops at the first difference numerically in the
span of the earlier ones, a zero one included (the iteration converged
on its own): the terminal degree, where the least-squares system is
consistent, the two methods coincide, and the extrapolated vector is
exact for linear problems.  The stage phase then computes both methods
at every stage from R and the differences, as arrays with one column
per stage: the one solve for c, column sums for alpha, cumulative sums
for mu and h, and the one product for s.  Nothing after the loop reads
Q or P, so the history keeps R alone and regrows Q and P only if
``factors`` is read.  The coefficient phase (everything but s) takes
the constraint as its one parameter, and :mod:`wextrap.krylov` runs it
with gamma_0 = 1 (alpha_k = c_k[0]) for FOM and GMR.

:func:`run` computes in the field of its inputs: float64 when the
weight and the iterates hold no nonzero imaginary part (a complex array
of real values included, as :func:`wextrap.problems.iterate` returns),
complex128 otherwise.  The differences, the factors, h_k and every
gamma and s take that dtype; ``alpha`` is a Python complex in both.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InsufficientVectors,
    LambdaNotPositive,
    NonFiniteIterate,
)
# orthogonalize_column: benchmarks/test_smoke.py reads it through here
from .qr import WQRFactors, _grow, orthogonalize_column  # noqa: F401
from .weights import _field_of, validate

__all__ = [
    "EXIST_TOL",
    "CONVERGE_ATOL",
    "CoefficientSolve",
    "ExtrapolationRecord",
    "RunStatus",
    "RunHistory",
    "run",
    "history_rows",
]

#: stage k adds a direction (mpe exists, rre moves, FOM is defined)
#: when sigma_k > EXIST_TOL; see the module docstring
EXIST_TOL = 1e-12

#: a terminal difference with weighted norm at or below this absolute
#: value marks the run converged (the rank test has already stopped it)
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
    ``r`` is the triangular factor R of the difference columns the run
    accepted (all but a terminal stage's), all the coupling needs.
    ``factors`` adds Q and P = M Q: they are regrown on first read and
    kept (a loaded history keeps the ones the loader grew), so a run
    holds no N x m block beside its differences and s until then.
    Stage k's factors are the leading (k+1)-column block,
    ``factors.leading(k + 1)``, so nothing is stored twice.
    """

    weight: object
    x0: np.ndarray
    differences: np.ndarray
    records: list[ExtrapolationRecord] = field(default_factory=list)
    r: np.ndarray | None = None
    status: RunStatus = RunStatus.COMPLETED
    detected_k0: int | None = None
    k_max: int = 0
    _factors: WQRFactors | None = field(default=None, init=False,
                                        repr=False)

    @property
    def factors(self) -> WQRFactors | None:
        """The weighted QR of the m accepted difference columns, grown
        on first read by the run's own loop (:func:`wextrap.qr._grow`,
        with no rank test: the run has already judged these columns),
        so bit for bit the factors the run grew, and kept.  None while
        ``r`` is None."""
        if self._factors is None and self.r is not None:
            u = self.differences
            _, self._factors, _ = _grow(self.weight, self.r.shape[0],
                                        self.r.dtype, lambda j, _: u[:, j],
                                        0.0)
        return self._factors

    @property
    def stages(self) -> int:
        return len(self.records)

    def record(self, k: int) -> ExtrapolationRecord:
        return self.records[k]


def _coefficients(r, m: int, count: int, constraint):
    """The coupling algebra of the module docstring at stages
    0..``count``-1, from R's buffer ``r``: m accepted columns, and a
    terminal stage's projection coefficients rho and trial r_kk in
    column m when ``count`` > m.  ``constraint(c)`` is each stage's
    alpha_k = e* c_k for the constraint e* gamma = 1 (the column sums
    for a run, the first row for Arnoldi, where gamma_0 = 1).

    Returns ``(alpha, exists, gamma, phi, lam, rre)`` as stage columns.
    ``gamma`` holds the minimal-polynomial gammas in its first ``count``
    columns and the reduced-rank ones of the m non-terminal stages after
    them, zero-padded.  ``phi`` and ``lam`` are per column of ``gamma``
    (a minimal-polynomial column's lam is phi^2), and ``rre[k]`` is the
    column of stage k's reduced-rank result.

    Column k of -triu(r, 1) is -rho_k, zero-padded, so one solve
    against R gives every c'.  R is upper triangular with a positive
    diagonal, so the partial pivoting in ``np.linalg.solve`` swaps no
    row: each column is a back substitution, and its rows from k down
    come out zero.
    """
    c = np.zeros((m + 1, count), dtype=r.dtype)
    c[:m] = np.linalg.solve(r[:m, :m], -np.triu(r[:m, :count], 1))
    c[np.arange(count), np.arange(count)] = 1.0  # c_k = (c', 1)
    alpha = constraint(c)
    rdiag = r.diagonal()[:count].real
    # the coupling recursion, every stage at once (cumsum adds in the
    # recursion's order); an overflow here is a mu the check below
    # reports, not a numpy warning
    with np.errstate(over="ignore"):
        sigma = np.abs(alpha[:m]) / rdiag[:m]
        mu = np.cumsum(sigma * sigma)
        step = alpha[:m].conj() / rdiag[:m] / rdiag[:m]
    bad = np.flatnonzero(~(np.isfinite(mu) & (mu > 0.0)))
    if bad.size:
        raise LambdaNotPositive(
            f"mu = sum(h) = {float(mu[bad[0]])!r} is not finite and "
            "positive; the factors are not a valid weighted QR")
    exists = np.empty(count, dtype=bool)
    exists[:m] = sigma > EXIST_TOL * np.sqrt(mu)
    if count > m:  # the terminal r_kk is a rejected trial value
        exists[m] = abs(alpha[m]) > EXIST_TOL * np.abs(c[:, m]).sum()
    lam = 1.0 / mu

    # mpe = c_k / alpha_k, rre = h_k lam_k, whose row m stays an exact 0
    gamma = np.zeros((m + 1, count + m), dtype=r.dtype)
    np.divide(c, alpha, out=gamma[:, :count], where=exists)
    np.multiply(np.cumsum(c[:m, :m] * step, axis=1), lam,
                out=gamma[:m, count:])
    phi = np.concatenate([rdiag * np.abs(gamma.diagonal()[:count]),
                          np.sqrt(lam)])
    lam = np.concatenate([phi[:count] ** 2, lam])
    rre = np.arange(count, 2 * count)
    if count > m:
        # the terminal system is consistent where mpe exists, and the
        # methods coincide; where it does not, rre repeats the previous
        # stage, extending the stagnation one step (stage 0, whose
        # alpha is 1 = sum|c|, always exists)
        rre[m] = m if exists[m] else count + m - 1
    return alpha, exists, gamma, phi, lam, rre


def _records(x0, u, r, u_norms):
    """Both methods at every stage, from the differences and R.

    ``u`` holds the m accepted difference columns, ``u_norms`` one
    entry per stage, and ``r`` the R buffer, whose column of a terminal
    stage holds its projection coefficients rho and trial r_kk.
    """
    m, count = u.shape[1], len(u_norms)
    alpha, exists, gamma, phi, lam, rre = _coefficients(
        r, m, count, lambda c: c.sum(axis=0))
    # each record keeps a copy of its own k+1 entries, not a view that
    # holds the padding too; taken first, as xi overwrites gamma
    mpe_gamma = [gamma[:k + 1, k].copy() if exists[k] else None
                 for k in range(count)]
    rre_gamma = [gamma[:k + 1, rre[k]].copy() for k in range(count)]
    # s = x_0 + U xi with xi_j = 1 - (gamma_0 + ... + gamma_j) for j < k,
    # built in gamma's own rows: every s of both methods from one product
    stage = np.concatenate([np.arange(count), np.arange(m)])
    xi = gamma[:m]
    np.cumsum(xi, axis=0, out=xi)
    np.subtract(1.0, xi, out=xi)
    xi[np.arange(m)[:, None] >= stage] = 0.0
    s = xi.T @ u.T
    s += x0

    records = []
    for k in range(count):
        if exists[k]:
            mpe = CoefficientSolve("mpe", True, mpe_gamma[k], float(phi[k]),
                                   alpha=complex(alpha[k]), s=s[k])
        else:
            mpe = CoefficientSolve("mpe", False, None, None,
                                   alpha=complex(alpha[k]))
        j = rre[k]
        records.append(ExtrapolationRecord(
            k, u_norms[k], float(r[k, k].real), mpe,
            CoefficientSolve("rre", True, rre_gamma[k], float(phi[j]),
                             lam=float(lam[j]), s=s[j]),
            terminal=k == m))
    return records


def run(iterates, weight, k_max: int | None = None) -> RunHistory:
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

    Rank loss is judged against :data:`wextrap.qr.RANK_TOL`,
    minimal-polynomial existence against :data:`EXIST_TOL` and plain
    convergence of the underlying iteration against
    :data:`CONVERGE_ATOL`.

    The run has two phases.  The QR loop (:func:`wextrap.qr._grow`)
    factors one difference column at a time and stops at the terminal
    stage; :data:`CONVERGE_ATOL` only names how it ended.  Then every
    stage is computed at once from R and the differences, with no read
    of Q or P: one triangular solve gives every c, and one product with
    the differences every s.  The factors of a stage do not depend on
    ``k_max``, but the blocked solve and product round differently at
    different sizes.  So runs of the same iterates to different
    ``k_max`` agree on their common stages to roundoff, not bit for
    bit; the same input and ``k_max`` always give the same bytes.

    The iterates are never copied: their differences are taken straight
    into the one (N, m) block the history keeps, in the run's field (from
    the real view of complex iterates that hold real values), and x0 is
    a copy of one row.  The loop's Q and P, views of its buffers at any
    stop, are dropped once it returns: the history keeps R (after an
    early stop an m x m copy, made once they are gone), and regrows
    them bit for bit if ``factors`` is read.

    Returns
    -------
    RunHistory
        One record per computed stage; ``status`` tells how the run
        ended and ``detected_k0`` the terminal stage if one was hit.
    """
    x = np.asarray(iterates)
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
    n = weight.dimension
    field = _field_of(weight, x)
    if field is float and np.iscomplexobj(x):
        x = x.real  # a view: the iterates are never copied
    # the differences straight into their (N, m) block, in the field
    diffs = np.empty((n, x.shape[0] - 1), field)
    np.subtract(x[1:].T, x[:-1].T, out=diffs, dtype=field)
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

    x0 = np.array(x[0], field)
    history = RunHistory(weight=weight, x0=x0, differences=diffs,
                         k_max=k_max)
    # it stops at the terminal stage, where the least-squares problem
    # min ||| U_{k-1} c' + u_k ||| is (numerically) consistent
    r, factors, u_norms = _grow(weight, k_max + 1, field,
                                lambda k, _: diffs[:, k])
    # dropping the factors frees Q and P; R is copied only after a stop
    m = factors.k
    del factors
    history.r = np.ascontiguousarray(r[:m, :m])
    if len(u_norms) > m:
        history.status = RunStatus.CONVERGED \
            if u_norms[-1] <= CONVERGE_ATOL else RunStatus.RANK_DEFICIENT
        history.detected_k0 = m
    history.records = _records(x0, diffs[:, :m], r, u_norms)
    return history


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
