"""Weighted FOM and GMR solvers for (I - T) x = d.

Both methods search the affine Krylov space x_0 + K_k(A; r_0), with
A = I - T applied as an operator and r_0 = d - A x_0.  The basis of
K_k is built by one Arnoldi process, and that process is the weighted
QR factorization of :mod:`wextrap.qr` applied to the columns
[r_0, A v_0, ..., A v_{k-1}], grown by the extrapolation's loop
(:func:`wextrap.qr._grow`: M v_j beside each v_j, one product with M
per step), which stops at a happy breakdown or at column N.  So
V_{k+1} = Q satisfies <v_i, v_j> = delta_ij, beta = |||r_0||| = r_00,
A V_k = V_{k+1} H~ with H~ the factor R without its first column, and
the projected problem is a small Hessenberg system:

* FOM imposes the Galerkin condition <z, r(w_k)> = 0 for all z in
  K_k, i.e. solves the square Hessenberg system H_k y = beta e_1.
  That system can be singular; FOM is then not defined at stage k (a
  status, not an error), mirroring the nonexistence of the
  minimal-polynomial extrapolant.

* GMR minimizes the weighted residual norm over the space.  Because
  the basis is orthonormal in <., .>, the weighted norm of
  V_{k+1}(beta e_1 - H~ y) equals the Euclidean norm of the
  coordinate vector, and the minimization reduces to a (k+1) x k
  least-squares problem solved with Givens rotations.

The absolute value of the k-th Givens cosine doubles as the FOM
existence test: it vanishes exactly when H_k is singular, and it is
scale-free: FOM is defined when |c_k| > extrapolate.EXIST_TOL.

The process runs once, to the last stage asked for, and one Givens
sweep and one triangular solve serve every stage 0..k.  Rotation j
zeroes H~'s entry (j+1, j) and is applied once, to rows j and j+1 of
every later column and of the right-hand side g (beta e_1 at the
start).  Stage m's GMR coefficients solve R_m y = g[:m], with R_m the
leading m x m block of the final triangular factor R and g[:m] a
prefix of the final g.  So the one solve R X = diag(g[:k]) gives every
stage: column j of X is stage j+1's step g_j R^-1 e_j (each leading
block of R^-1 inverts the matching block of R), and stage m's
coefficients are the sum of its first m steps.  In the same frame
FOM's square system shares R_m's first m - 1 rows and g's first m - 1
entries; its last equation keeps the unrotated pivot and right-hand
side, which makes its last coefficient GMR's over |c_m|^2.  FOM's
coefficients are therefore GMR's plus step * (1/|c_m|^2 - 1), i.e.

    x^F_m = x^G_{m-1} + (x^G_m - x^G_{m-1}) / |c_m|^2

(Brown, SIAM J. Sci. Stat. Comput. 12, 1991; Saad, Iterative Methods
for Sparse Linear Systems, 2003, section 6.5).  This is the paper's
coupling mu_k = mu_{k-1} + nu_k (3-16, 3-18) in the Krylov frame: with
nu_m / mu_m = |c_m|^2, the new GMR (reduced-rank) result weighs the
FOM (minimal-polynomial) one by |c_m|^2 and the previous GMR one by
1 - |c_m|^2.  FOM's existence and its value read the one number
|c_m| = sigma_m, and no stage takes a solve of its own.

A zero Hessenberg column (A v_j = 0, as for T = I or r_0 on an
eigenvector of T with eigenvalue 1) and, more generally, a column
whose rotated pair on rows j and j+1 is at or below RANK_TOL times the
column's norm (A v_j numerically in the span of the earlier A v_i)
takes the rotation with c = 0, which swaps the row pair.  FOM is then
not defined; g_j moves down unchanged, so GMR stagnates with step 0
and keeps its residual estimate.  Such a column also fails the Arnoldi
rank test, so it is the last one, and an exactly zero pivot it leaves
in R is read as 1 in the solve, where it multiplies a zero g_j.

The whole check runs in the problem's field: float64 when the weight,
d, x0 and a matrix T hold no nonzero imaginary part, complex128
otherwise (the rule of :mod:`wextrap.weights`).  A callable T cannot
be inspected, so it makes the field complex.  The basis, the Hessenberg
matrix, the rotations and every residual column take that dtype, and a
real rotation is real (its cosine and sine real).  Each rotation is
applied entry by entry, as two row updates, so every entry of R and g
rounds the same whatever the number of columns: a run to k steps and a
run to fewer agree bit for bit on the stages they share.

The process has no step-by-step entry point: :func:`fom_solve`,
:func:`gmr_solve` and :func:`equivalence_check` all run it as one
``_Stages`` object and read its stages one way, as stage columns.

Applied to the iterates x_{m+1} = T x_m + d, the two extrapolation
methods of :mod:`wextrap.extrapolate` produce the same vectors as FOM
and GMR stage by stage; :func:`equivalence_check` runs both pipelines
once each and measures the difference on arrays with one column per
stage, the terminal one included (U_k gamma is one product with the
zero-padded gammas).  The exact residuals r(s) = T s + d - s of both
methods come from one application of T to the block of their s
columns: one product for a matrix T, while a callable T is applied to
the columns one at a time inside that application, since a callable
need not accept a block.  Every weighted norm the check needs (the
FOM-MPE and GMR-RRE gaps with |||s||| to make them relative, |||r(s)|||
and |||U_k gamma - r(s)||| for both methods) comes from one block
product with M, the blocks written in place into the one column-major
array it reads.  U_k gamma is the exact residual r(s_k) for linear iterates
because sum gamma = 1, so the coupling identities that
:func:`wextrap.relations.verify_history` measures on U_k gamma hold on
the exact residuals too, and are not measured here a second time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionMismatch, InsufficientVectors
from . import extrapolate, qr
from .qr import _grow
from .relations import _rel, _spread, _stage_list
from .weights import _in_field, validate

__all__ = [
    "fom_solve",
    "gmr_solve",
    "KrylovComparison",
    "equivalence_check",
]


def _problem(t, d, x0, weight):
    """(T, apply_t, d, x0, weight) in the problem's field.
    ``apply_t(z, out=None)`` takes an N-vector or an N x m block of
    columns.  A matrix T must be N x N and is applied in that field, to
    a block as one product; a callable T is taken as it is and makes
    the field complex."""
    weight = validate(weight)
    n = weight.dimension
    if not callable(t):
        t = np.asarray(t)
        if t.shape != (n, n):
            raise DimensionMismatch(
                f"T of shape {t.shape}, expected ({n}, {n})")
    d, x0 = np.asarray(d), np.asarray(x0)
    if d.shape != (n,) or x0.shape != d.shape:
        raise DimensionMismatch(f"d and x0 must have dimension {n}")
    if callable(t):
        d, x0 = np.asarray(d, complex), np.asarray(x0, complex)
        return t, partial(_columnwise, t), d, x0, weight
    t, d, x0 = _in_field(weight, t, d, x0)
    return t, partial(np.matmul, t), d, x0, weight


def _columnwise(t, z, out=None):
    """The callable ``t`` on a vector, or on a block one (N,) column at
    a time, since a callable need not accept a block; into ``out``, a
    new complex array unless given."""
    if out is None:
        out = np.empty(z.shape, dtype=complex)
    if z.ndim == 1:
        out[:] = t(z)
        return out
    for j in range(z.shape[1]):
        out[:, j] = t(z[:, j])
    return out


def _givens(a, b, scale):
    """The unitary 2x2 [[p, q], [u, v]] zeroing b, as ((p, q, u, v),
    |cosine|), real for a real pair.  A pair at or below
    :data:`wextrap.qr.RANK_TOL` (read at call time) * scale (its
    column's norm) is a zero column in the frame of the
    earlier ones: it takes the rotation with c = 0, which swaps the row
    pair."""
    r = np.hypot(abs(a), abs(b))
    if r <= qr.RANK_TOL * scale:
        return (0.0, 1.0, 1.0, 0.0), 0.0
    return (np.conj(a) / r, np.conj(b) / r, -b / r, a / r), abs(a) / r


def _triangularize(hess, beta):
    """One Givens sweep over [H~ | beta e_1]: rotation j zeroes
    hess[j+1, j] and is applied once, entry by entry, to rows j and j+1
    of every column from j on, the right-hand side g included.

    Returns (R, g, cosines, residuals): R the m x m triangular factor,
    g the rotated right-hand side of length m+1, cosines the
    per-column |c_j| and residuals[j] the stage-j least-squares
    residual (beta at stage 0).  Stage j reads R[:j, :j] and g[:j].
    """
    m = hess.shape[1]
    rg = np.zeros((m + 1, m + 1), dtype=hess.dtype)
    rg[:, :m], rg[0, m] = hess, beta
    cosines = []
    residuals = [float(beta)]
    for j in range(m):
        (p, q, u, v), cos = _givens(rg[j, j], rg[j + 1, j],
                                    np.linalg.norm(rg[:, j]))
        top, bottom = rg[j, j:].copy(), rg[j + 1, j:]
        rg[j, j:] = p * top + q * bottom
        rg[j + 1, j:] = u * top + v * bottom
        rg[j + 1, j] = 0.0
        cosines.append(cos)
        residuals.append(float(abs(rg[j + 1, m])))
    return rg[:m, :m], rg[:, m], cosines, residuals


def _check_stage(k, name):
    if k < 0:
        raise InsufficientVectors(f"{name} must be nonnegative")


class _Stages:
    """The Krylov process run once to k steps; every stage 0..k reads
    its FOM and GMR solutions from the one basis, Givens sweep and
    triangular solve (column m-1 of ``steps`` and ``gmr_y``).

    ``beta`` is |||r_0|||, ``basis`` the N x j weighted-orthonormal
    basis (j = k + 1 without breakdown) and ``hess`` the (j+1) x j
    Hessenberg matrix of the j steps taken.  A step breaks down when
    A v_{j-1} is column N or fails the rank test of
    :data:`wextrap.qr.RANK_TOL` (happy breakdown).  Its Hessenberg column
    is kept (the subdiagonal entry is the tiny deflated norm), so
    stage-j solves remain available and exact, and later stages read
    them too.  A zero initial residual takes no step.
    """

    def __init__(self, t, d, x0, weight, k: int):
        _check_stage(k, "k")
        _, apply_t, d, x0, weight = _problem(t, d, x0, weight)
        self.x0 = x0

        def column(j, factors):  # r_0, then A v_{j-1}
            if j == 0:
                return apply_t(x0) + d - x0
            return factors.q[:, j - 1] - apply_t(factors.q[:, j - 1])

        # a zero r_0 or a happy breakdown stops the loop, its column in
        # R's buffer only (not Q or P), as the last column of H~
        room, factors, norms = _grow(weight, k + 1, d.dtype, column)
        steps = len(norms) - 1
        # r_00 = |||r_0|||, and stays 0 when r_0 = 0 took no step
        self.beta = beta = float(room.r[0, 0].real)
        self.basis = factors.q
        self.hess = room.r[:steps + 1, 1:steps + 1]
        r, g, self.cosines, self.residuals = _triangularize(self.hess, beta)
        # column j is stage j+1's GMR step g_j R^-1 e_j: R^-1 is upper
        # triangular and each leading block inverts R's matching block.
        # A zero pivot comes only from a zero pair (see _givens), whose
        # swap left g_j = 0, so a unit pivot keeps its step 0 and R regular
        self.steps = np.linalg.solve(r + np.diag(r.diagonal() == 0),
                                     np.diag(g[:-1]))
        self.gmr_y = np.cumsum(self.steps, axis=1)

    def every(self, ks):
        """GMR and FOM at every stage of ``ks`` as stage columns:
        ``(gmr, fom, defined, estimates)``.  Stage m's coefficients are
        column m of [0 | gmr_y], zero from row m down, so one product
        with the basis gives every solution of a method; FOM's column
        is x0 where it is not defined."""
        m = np.minimum(ks, self.hess.shape[1])
        pad = np.zeros((len(self.steps), 1), dtype=self.steps.dtype)
        y = np.concatenate([pad, self.gmr_y], axis=1)[:, m]
        steps = np.concatenate([pad, self.steps], axis=1)[:, m]
        cos = np.array([1.0] + self.cosines)[m]
        defined = cos > extrapolate.EXIST_TOL
        # Brown's relation: GMR plus step * (1/|c|^2 - 1)
        scale = np.where(defined, cos, 1.0) ** -2 - 1
        w = self.basis[:, :len(y)] @ np.concatenate(
            [y, np.where(defined, y + steps * scale, 0.0)], axis=1)
        w += self.x0[:, None]
        return (w[:, :len(m)], w[:, len(m):], defined,
                np.array(self.residuals)[m])


def fom_solve(t, d, x0, weight, k: int):
    """Galerkin solution at stage k, or None when it is not defined.

    None mirrors the nonexistence of the minimal-polynomial
    extrapolant on the induced iterate sequence; it is a status, not a
    failure.  k = 0 returns x0.  Past a happy breakdown the invariant-
    space (exact) solution is returned.
    """
    _, fom, defined, _ = _Stages(t, d, x0, weight, k).every([k])
    return fom[:, 0].copy() if defined[0] else None


def gmr_solve(t, d, x0, weight, k: int, with_residual: bool = False):
    """Weighted-residual minimizer at stage k (always defined).

    With ``with_residual`` the estimated weighted residual norm
    (the rotated right-hand side's last entry) is returned alongside.
    """
    gmr, _, _, estimates = _Stages(t, d, x0, weight, k).every([k])
    w = gmr[:, 0].copy()
    return (w, float(estimates[0])) if with_residual else w


@dataclass(frozen=True)
class KrylovComparison:
    """Per-stage agreement between the solver and extrapolation
    pipelines.

    Lists are indexed by stage; None marks stages where a quantity
    does not apply (undefined method).  Every defect is relative:
    ``fom_mpe_defect`` is |||w_fom - s_mpe||| / |||s_mpe||| and
    ``gmr_rre_defect`` the same for GMR against RRE (absolute when
    |||s||| = 0), ``residual_match_*`` the defect of U_k gamma = r(s_k),
    and ``gmr_estimate_defect`` that of the Givens residual estimate
    against |||r(s_k^rre)|||.
    """

    ks: list
    fom_defined: list
    mpe_exists: list
    definedness_consistent: list
    fom_mpe_defect: list
    gmr_rre_defect: list
    residual_match_mpe: list
    residual_match_rre: list
    gmr_estimate_defect: list


def equivalence_check(t, d, x0, weight, k_max: int) -> KrylovComparison:
    """Run solvers and extrapolation side by side on (I - T) x = d.

    The iterate sequence x_{m+1} = T x_m + d is generated internally
    from the same x0.  All residuals here are exact: r(x) = Tx + d - x,
    every stage's from one application of T to the block of s columns
    (a callable T takes them one column at a time).  T is applied
    k_max + 1 times for the iterates, once per Arnoldi step and once per
    residual column.
    """
    _check_stage(k_max, "k_max")
    t, apply_t, d, x0, weight = _problem(t, d, x0, weight)
    n = weight.dimension

    iters = np.empty((k_max + 2, n), dtype=d.dtype)
    iters[0] = x0
    for m in range(k_max + 1):
        iters[m + 1] = apply_t(iters[m]) + d
    hist = extrapolate.run(iters, weight, k_max=k_max)
    records = hist.records
    stages = _Stages(t, d, x0, weight, records[-1].k)
    ks = [rec.k for rec in records]
    w_gmr, w_fom, defined, estimate = stages.every(ks)

    # stage columns, the terminal one included: each method's s side by
    # side in one block S, stage j's gamma zero-padded in the matching
    # column of G
    mpe = np.array([rec.mpe.exists for rec in records], dtype=bool)
    rre = np.array([rec.rre.s is not None for rec in records], dtype=bool)
    paired = defined & mpe
    solves = ([(j, records[j].mpe) for j in np.flatnonzero(mpe)]
              + [(j, records[j].rre) for j in np.flatnonzero(rre)])
    u = hist.differences[:, :len(records)]
    g = np.zeros((len(records), len(solves)), dtype=u.dtype)
    # every weighted norm from one block product with M, its blocks
    # written in place: FOM - MPE, GMR - RRE, and then S, r(S) and
    # U_k gamma - r(S), each with MPE's columns before RRE's
    masks = (paired, rre, mpe, rre, mpe, rre, mpe, rre)
    edges = np.cumsum([0] + [mask.sum() for mask in masks])
    joint = np.empty((n, edges[-1]), order="F",
                     dtype=np.result_type(d, w_gmr, u))
    s, r, gap = (joint[:, edges[i]:edges[i + 2]] for i in (2, 4, 6))
    for col, (j, solve) in enumerate(solves):
        g[:j + 1, col], s[:, col] = solve.gamma, solve.s
    # the exact residual r(s) = T s + d - s, one application of T
    apply_t(s, out=r)
    r += d[:, None]
    r -= s
    np.matmul(u, g, out=gap)
    gap -= r
    # each difference is formed as a vector first
    s_mpe, s_rre = np.split(s, [mpe.sum()], axis=1)
    np.subtract(w_fom[:, paired], s_mpe[:, paired[mpe]],
                out=joint[:, edges[0]:edges[1]])
    np.subtract(w_gmr[:, rre], s_rre, out=joint[:, edges[1]:edges[2]])
    fom_mpe, gmr_rre, size_mpe, size_rre, res_mpe, res_rre, match_mpe, \
        match_rre = (_spread(mask, norms) for mask, norms in zip(
            masks, np.split(weight.norm(joint), edges[1:-1])))
    floor_mpe, floor_rre = (np.maximum(res, 1e-14 * stages.beta)
                            for res in (res_mpe, res_rre))
    return KrylovComparison(
        ks=ks,
        fom_defined=defined.tolist(),
        mpe_exists=mpe.tolist(),
        definedness_consistent=(defined == mpe).tolist(),
        fom_mpe_defect=_stage_list(_rel(fom_mpe, size_mpe), paired),
        gmr_rre_defect=_stage_list(_rel(gmr_rre, size_rre), rre),
        residual_match_mpe=_stage_list(_rel(match_mpe, floor_mpe), mpe),
        residual_match_rre=_stage_list(_rel(match_rre, floor_rre), rre),
        gmr_estimate_defect=_stage_list(_rel(
            abs(estimate - res_rre), floor_rre), rre))
