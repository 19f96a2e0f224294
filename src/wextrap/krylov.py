"""Weighted FOM and GMR solvers for (I - T) x = d.

Both methods search the affine Krylov space x_0 + K_k(A; r_0), with
A = I - T applied as an operator and r_0 = d - A x_0.  The basis of
K_k is built by one Arnoldi process, and that process is the weighted
QR factorization of :mod:`wextrap.qr` applied to the columns
[r_0, A v_0, ..., A v_{k-1}], grown one column at a time with the same
CGS2 kernel and in-place append as the extrapolation's factors (M v_j
is kept beside each v_j, one product with M per step).  So
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
  least-squares problem solved with complex Givens rotations.

The absolute value of the k-th Givens cosine doubles as the FOM
existence test: it vanishes exactly when H_k is singular, and it is
scale-free, so one relative threshold covers all problems.

The process runs once, to the last stage asked for, and one Givens
sweep over its Hessenberg matrix serves every stage 0..k.  It has no
step-by-step entry point: :func:`fom_solve`, :func:`gmr_solve` and
:func:`equivalence_check` all run it through one driver.

Applied to the iterates x_{m+1} = T x_m + d, the two extrapolation
methods of :mod:`wextrap.extrapolate` produce the same vectors as FOM
and GMR stage by stage; :func:`equivalence_check` runs both pipelines
once each and measures the difference.  It also checks that U_k gamma
is the exact residual r(s_k), which holds for linear iterates because
sum gamma = 1.  So the coupling identities that
:func:`wextrap.relations.verify_history` measures on U_k gamma hold on
the exact residuals too, and are not measured here a second time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .errors import DimensionMismatch, InsufficientVectors
from .extrapolate import run
from .qr import RANK_TOL, _append, _buffers, orthogonalize_column
from .relations import _rel
from .weights import validate

__all__ = [
    "FOM_TOL",
    "fom_solve",
    "gmr_solve",
    "KrylovComparison",
    "equivalence_check",
]

#: FOM is undefined when the k-th Givens cosine magnitude is at or
#: below this; chosen from the same relative-tolerance family as the
#: extrapolation existence test so the two notions line up
FOM_TOL = 1e-12


def _as_operator(t):
    if callable(t):
        return t
    return partial(np.matmul, np.asarray(t, dtype=complex))


def _givens(a, b):
    """Unitary 2x2 zeroing b; returns (rotation, |cosine|)."""
    r = np.hypot(abs(a), abs(b))
    if r == 0.0:
        return np.eye(2, dtype=complex), 1.0
    g = np.array([[np.conj(a) / r, np.conj(b) / r],
                  [-b / r, a / r]], dtype=complex)
    return g, abs(a) / r


def _triangularize(hess, beta):
    """Apply Givens rotations column by column.

    Returns (R, g, cosines, residuals): R the m x m triangular factor,
    g the rotated right-hand side of length m+1, cosines the
    per-column |c_j| and residuals[j] the stage-j least-squares
    residual (beta at stage 0).  Rotation j touches only column j and
    g[j:j+2], so stage j reads R[:j, :j] and g[:j] from the same sweep.
    """
    m = hess.shape[1]
    r = hess.copy()
    g = np.zeros(m + 1, dtype=complex)
    g[0] = beta
    rots = []
    cosines = []
    residuals = [float(beta)]
    for j in range(m):
        for i, rot in enumerate(rots):
            r[i:i + 2, j] = rot @ r[i:i + 2, j]
        rot, cos = _givens(r[j, j], r[j + 1, j])
        r[j:j + 2, j] = rot @ r[j:j + 2, j]
        r[j + 1, j] = 0.0
        g[j:j + 2] = rot @ g[j:j + 2]
        rots.append(rot)
        cosines.append(cos)
        residuals.append(float(abs(g[j + 1])))
    return r[:m, :m], g, cosines, residuals


def _check_stage(k, name):
    if k < 0:
        raise InsufficientVectors(f"{name} must be nonnegative")


def _check_rhs(weight, d, x0):
    """d and x0 as complex vectors of the weight's dimension."""
    d, x0 = np.asarray(d, dtype=complex), np.asarray(x0, dtype=complex)
    if d.shape != (weight.dimension,) or x0.shape != d.shape:
        raise DimensionMismatch(
            f"d and x0 must have dimension {weight.dimension}")
    return d, x0


class _Stages:
    """The Krylov process run once to k steps; every stage 0..k reads
    its FOM and GMR solutions from the one basis and Givens sweep.

    ``beta`` is |||r_0|||, ``basis`` the N x j weighted-orthonormal
    basis (j = k + 1 without breakdown) and ``hess`` the (j+1) x j
    Hessenberg matrix of the j steps taken.  A step breaks down when
    A v_{j-1} fails the rank test of :data:`wextrap.qr.RANK_TOL`: it
    lies in the current space (happy breakdown).  Its Hessenberg column
    is kept (the subdiagonal entry is the tiny deflated norm), so
    stage-j solves remain available and exact, and later stages read
    them too.  A zero initial residual takes no step.
    """

    def __init__(self, t, d, x0, weight, k: int):
        _check_stage(k, "k")
        weight = validate(weight)
        apply_t = _as_operator(t)
        d, x0 = _check_rhs(weight, d, x0)
        self.x0 = x0
        room = _buffers(weight, k + 1)
        factors = room.leading(0)
        for steps in range(k + 1):
            if steps == 0:
                column = apply_t(x0) + d - x0
            else:
                v = factors.q[:, steps - 1]
                column = v - apply_t(v)
            h, w, mw, hnorm = orthogonalize_column(factors, column)
            # a zero r_0, or a happy breakdown against |||A v_j||| by
            # Pythagoras: the column goes into R's buffer only (not Q
            # or P), as the last column of H~
            if hnorm <= RANK_TOL * np.hypot(np.linalg.norm(h), hnorm):
                room.r[:steps, steps], room.r[steps, steps] = h, hnorm
                break
            factors = _append(room, h, w, mw, hnorm)
        # r_00 = |||r_0|||, and stays 0 when r_0 = 0 took no step
        self.beta = beta = float(room.r[0, 0].real)
        self.basis = factors.q
        self.hess = room.r[:steps + 1, 1:steps + 1]
        self.r, self.g, self.cosines, self.residuals = _triangularize(
            self.hess, beta)

    def fom(self, k: int):
        m = min(k, self.hess.shape[1])
        if m == 0:
            return self.x0.copy()
        if self.cosines[m - 1] <= FOM_TOL:
            return None
        rhs = np.zeros(m, dtype=complex)
        rhs[0] = self.beta
        y = np.linalg.solve(self.hess[:m, :m], rhs)
        return self.x0 + self.basis[:, :m] @ y

    def gmr(self, k: int):
        """(solution, estimated weighted residual norm) at stage k."""
        m = min(k, self.hess.shape[1])
        if m == 0:
            return self.x0.copy(), self.residuals[0]
        # R is triangular with a nonzero diagonal: no row is swapped,
        # so the solve is a back substitution
        y = np.linalg.solve(self.r[:m, :m], self.g[:m])
        return self.x0 + self.basis[:, :m] @ y, self.residuals[m]


def fom_solve(t, d, x0, weight, k: int):
    """Galerkin solution at stage k, or None when it is not defined.

    None mirrors the nonexistence of the minimal-polynomial
    extrapolant on the induced iterate sequence; it is a status, not a
    failure.  k = 0 returns x0.  Past a happy breakdown the invariant-
    space (exact) solution is returned.
    """
    return _Stages(t, d, x0, weight, k).fom(k)


def gmr_solve(t, d, x0, weight, k: int, with_residual: bool = False):
    """Weighted-residual minimizer at stage k (always defined).

    With ``with_residual`` the estimated weighted residual norm
    (the rotated right-hand side's last entry) is returned alongside.
    """
    w, res = _Stages(t, d, x0, weight, k).gmr(k)
    return (w, res) if with_residual else w


@dataclass(frozen=True)
class KrylovComparison:
    """Per-stage agreement between the solver and extrapolation
    pipelines.

    Lists are indexed by stage; None marks stages where a quantity
    does not apply (undefined method).  ``residual_match_*`` is the
    relative defect of U_k gamma = r(s_k), and ``gmr_estimate_defect``
    that of the Givens residual estimate against |||r(s_k^rre)|||.
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
    from the same x0.  All residuals here are exact: r(x) = Tx + d - x.
    """
    _check_stage(k_max, "k_max")
    weight = validate(weight)
    apply_t = _as_operator(t)
    d, x0 = _check_rhs(weight, d, x0)

    def res(x):
        return apply_t(x) + d - x

    iters = [x0]
    for _ in range(k_max + 1):
        iters.append(apply_t(iters[-1]) + d)
    hist = run(np.array(iters), weight, k_max=k_max)
    stages = _Stages(apply_t, d, x0, weight, hist.records[-1].k)

    def resid_scale(rnorm):
        return max(rnorm, 1e-14 * stages.beta)

    out = {f.name: [] for f in fields(KrylovComparison)}
    for rec in hist.records:
        k = rec.k
        w_fom = stages.fom(k)
        w_gmr, gmr_res = stages.gmr(k)
        fom_def = w_fom is not None
        out["ks"].append(k)
        out["fom_defined"].append(fom_def)
        out["mpe_exists"].append(rec.mpe.exists)
        out["definedness_consistent"].append(fom_def == rec.mpe.exists)
        out["fom_mpe_defect"].append(
            None if not (fom_def and rec.mpe.exists)
            else weight.norm(w_fom - rec.mpe.s))
        out["gmr_rre_defect"].append(
            None if rec.rre.s is None else weight.norm(w_gmr - rec.rre.s))

        u_k = hist.differences[:, :k + 1]
        if rec.mpe.exists:
            r_mpe = res(rec.mpe.s)
            nr_m = weight.norm(r_mpe)
            out["residual_match_mpe"].append(_rel(
                weight.norm(u_k @ rec.mpe.gamma - r_mpe), resid_scale(nr_m)))
        else:
            out["residual_match_mpe"].append(None)
        if rec.rre.s is not None:
            r_rre = res(rec.rre.s)
            nr_k = weight.norm(r_rre)
            out["residual_match_rre"].append(_rel(
                weight.norm(u_k @ rec.rre.gamma - r_rre), resid_scale(nr_k)))
            out["gmr_estimate_defect"].append(_rel(
                abs(gmr_res - nr_k), resid_scale(nr_k)))
        else:
            out["residual_match_rre"].append(None)
            out["gmr_estimate_defect"].append(None)
    return KrylovComparison(**out)
