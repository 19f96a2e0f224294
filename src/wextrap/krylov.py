"""Weighted FOM and GMR solvers for (I - T) x = d.

Both methods search the affine Krylov space x_0 + K_k(A; r_0), with
A = I - T applied as an operator and r_0 = d - A x_0.  The basis of
K_k is built by one Arnoldi process, and that process is the weighted
QR factorization of :mod:`wextrap.qr` applied to the columns
[r_0, A v_0, ..., A v_{k-1}], grown by the extrapolation's loop
(:func:`wextrap.qr._grow`: M v_j beside each v_j, one product with M
per step), which stops at a happy breakdown or at column N.  So
V_{k+1} = Q satisfies <v_i, v_j> = delta_ij, beta = |||r_0||| = r_00,
and A V_k = V_{k+1} H~: R = [beta e_1 | H~].  The projected problem is
a small Hessenberg system:

* FOM imposes the Galerkin condition <z, r(w_k)> = 0 for all z in
  K_k, i.e. solves the square Hessenberg system H_k y = beta e_1.
  That system can be singular; FOM is then not defined at stage k (a
  status, not an error), mirroring the nonexistence of the
  minimal-polynomial extrapolant.

* GMR minimizes the weighted residual norm over the space.

Both are the run's coupling in the Arnoldi frame (gamma_0 = 1).  With
z = [1; -y] the stage-m residual is r_0 - A V_m y = Q R_{m+1} z, whose
weighted norm is ||R_{m+1} z||_2: the extrapolation's problem on
U = Q R with the constraint sum gamma = 1 replaced by gamma_0 = 1.  GMR
is its reduced-rank solution and FOM its minimal-polynomial one (the
Galerkin condition zeroes R_{m+1} z's first m rows, as c_m does).  So
:func:`wextrap.extrapolate._coefficients`, with alpha_k = c_k[0] in
place of the column sum, gives every stage of both from one triangular
solve: FOM is c_m / alpha_m, GMR follows from the coupling recursion
mu_m = mu_{m-1} + nu_m with residual estimate sqrt(lam_m) =
1/sqrt(mu_m), and FOM is defined where sqrt(nu_m / mu_m) >
extrapolate.EXIST_TOL.  That ratio is the m-th Givens cosine |c_m|, and
the recursion reproduces the known relation

    x^F_m = x^G_{m-1} + (x^G_m - x^G_{m-1}) / |c_m|^2

(Brown, SIAM J. Sci. Stat. Comput. 12, 1991; Saad, Iterative Methods
for Sparse Linear Systems, 2003, section 6.5) with no rotation formed.
One product x = x0 - V Z[1:], Z the stages' gammas as columns, gives
every solution of both methods.

A happy breakdown (A v_j numerically in the span of the earlier
columns, a zero A v_j included, as for T = I or r_0 on an eigenvector
of T with eigenvalue 1) is the run's terminal stage.  FOM is defined
there when |alpha| > EXIST_TOL * sum|c|; the projected system is then
consistent and GMR takes FOM's solution.  Otherwise GMR stagnates, with
the previous stage's solution and estimate.

The whole check runs in the problem's field: float64 when the weight,
d, x0 and a matrix T hold no nonzero imaginary part, complex128
otherwise (the rule of :mod:`wextrap.weights`).  A callable T cannot
be inspected, so it makes the field complex.  The basis, the Hessenberg
matrix, the coefficients and every residual column take that dtype.
The factors of a stage do not depend on k, but the one solve and
product round differently at different sizes, so runs to different k
agree on their common stages to roundoff, not bit for bit, as
:func:`wextrap.extrapolate.run`'s do.

The process has no step-by-step entry point: :func:`fom_solve`,
:func:`gmr_solve` and :func:`equivalence_check` each prepare the
problem once (``_problem``), run the process as one ``_Stages`` object
and read its stages one way, as stage columns.

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
from . import extrapolate
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
    """(apply_t, d, x0, weight) in the problem's field.
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
                f"T of shape {t.shape}, weight of dimension {n}")
    d, x0 = np.asarray(d), np.asarray(x0)
    if d.shape != (n,) or x0.shape != d.shape:
        raise DimensionMismatch(f"d of shape {d.shape}, x0 of shape "
                                f"{x0.shape}, weight of dimension {n}")
    if callable(t):
        d, x0 = np.asarray(d, complex), np.asarray(x0, complex)
        return partial(_columnwise, t), d, x0, weight
    t, d, x0 = _in_field(weight, t, d, x0)
    return partial(np.matmul, t), d, x0, weight


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


def _check_stage(k, name):
    if k < 0:
        raise InsufficientVectors(f"{name} must be nonnegative")


class _Stages:
    """The Krylov process run once to k steps on the problem
    ``(apply_t, d, x0, weight)`` that :func:`_problem` prepared; every
    stage 0..k reads its FOM and GMR solutions from the one basis and
    the one set of coefficients (``coefficients``, from
    :func:`wextrap.extrapolate._coefficients`).

    ``beta`` is |||r_0|||, ``basis`` the N x j weighted-orthonormal
    basis (j = k + 1 without breakdown, and after one a view that keeps
    the loop's (k+1)-column Q buffer) and ``hess`` the (j+1) x j
    Hessenberg matrix of the j steps taken.  A step breaks down when
    A v_{j-1} is column N or fails the rank test of
    :data:`wextrap.qr.RANK_TOL` (happy breakdown).  Its Hessenberg
    column is kept (the subdiagonal entry is the tiny deflated norm)
    and makes stage j the terminal one, which later stages read too.
    A zero initial residual takes no step.
    """

    def __init__(self, apply_t, d, x0, weight, k: int):
        _check_stage(k, "k")
        self.x0 = x0

        def column(j, factors):  # r_0, then A v_{j-1}
            if j == 0:
                return apply_t(x0) + d - x0
            return factors.q[:, j - 1] - apply_t(factors.q[:, j - 1])

        # a zero r_0 or a happy breakdown stops the loop, its column in
        # R's buffer only (not Q or P), as the last column of H~
        r, factors, norms = _grow(weight, k + 1, d.dtype, column)
        steps = len(norms) - 1
        # r_00 = |||r_0|||, and stays 0 when r_0 = 0 took no step
        self.beta = float(r[0, 0].real)
        self.basis = factors.q
        self.hess = r[:steps + 1, 1:steps + 1]
        # the constraint gamma_0 = 1: alpha_k is c_k's first entry
        self.coefficients = extrapolate._coefficients(
            r, factors.k, len(norms), lambda c: c[0])

    def every(self, ks):
        """GMR and FOM at every stage of ``ks`` as stage columns:
        ``(gmr, fom, defined, estimates)``.  Stage m's solution is
        x0 - V gamma[1:] for its gamma, zero from row m + 1 down, so one
        product with the basis gives every solution of both methods;
        FOM's column is x0 where it is not defined."""
        _, exists, gamma, phi, _, rre = self.coefficients
        m = np.minimum(ks, len(rre) - 1)
        w = self.basis @ gamma[1:, np.concatenate([rre[m], m])]
        np.subtract(self.x0[:, None], w, out=w)
        return w[:, :len(m)], w[:, len(m):], exists[m], phi[rre[m]]


def fom_solve(t, d, x0, weight, k: int):
    """Galerkin solution at stage k, or None when it is not defined.

    None mirrors the nonexistence of the minimal-polynomial
    extrapolant on the induced iterate sequence; it is a status, not a
    failure.  k = 0 returns x0.  Past a happy breakdown the invariant-
    space (exact) solution is returned.
    """
    _, fom, defined, _ = _Stages(*_problem(t, d, x0, weight), k).every([k])
    return fom[:, 0].copy() if defined[0] else None


def gmr_solve(t, d, x0, weight, k: int, with_residual: bool = False):
    """Weighted-residual minimizer at stage k (always defined).

    With ``with_residual`` the estimated weighted residual norm
    (sqrt(lam) = 1/sqrt(mu) of the coupling recursion) is returned
    alongside.
    """
    gmr, _, _, estimates = _Stages(*_problem(t, d, x0, weight),
                                   k).every([k])
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
    and ``gmr_estimate_defect`` that of GMR's residual estimate
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
    apply_t, d, x0, weight = _problem(t, d, x0, weight)
    n = weight.dimension

    iters = np.empty((k_max + 2, n), dtype=d.dtype)
    iters[0] = x0
    for m in range(k_max + 1):
        iters[m + 1] = apply_t(iters[m]) + d
    hist = extrapolate.run(iters, weight, k_max=k_max)
    records = hist.records
    stages = _Stages(apply_t, d, x0, weight, records[-1].k)
    ks = [rec.k for rec in records]
    w_gmr, w_fom, defined, estimate = stages.every(ks)

    # stage columns, the terminal one included: each method's s side by
    # side in one block S, stage j's gamma zero-padded in the matching
    # column of G
    mpe = np.array([rec.mpe.exists for rec in records], dtype=bool)
    paired = defined & mpe
    solves = ([(j, records[j].mpe) for j in np.flatnonzero(mpe)]
              + [(j, rec.rre) for j, rec in enumerate(records)])
    u = hist.differences[:, :len(records)]
    g = np.zeros((len(records), len(solves)), dtype=u.dtype)
    # every weighted norm from one block product with M, its blocks
    # written in place: FOM - MPE, GMR - RRE, and then S, r(S) and
    # U_k gamma - r(S), each with MPE's columns before RRE's (every
    # record carries an RRE result)
    edges = np.cumsum([0, paired.sum()]
                      + [len(records), mpe.sum()] * 3 + [len(records)])
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
    np.subtract(w_gmr, s_rre, out=joint[:, edges[1]:edges[2]])
    norms = np.split(weight.norm(joint), edges[1:-1])
    fom_mpe, size_mpe, res_mpe, match_mpe = (
        _spread(mask, v) for mask, v in zip((paired, mpe, mpe, mpe),
                                            norms[0::2]))
    gmr_rre, size_rre, res_rre, match_rre = norms[1::2]
    floor_mpe, floor_rre = (np.maximum(res, 1e-14 * stages.beta)
                            for res in (res_mpe, res_rre))
    return KrylovComparison(
        ks=ks,
        fom_defined=defined.tolist(),
        mpe_exists=mpe.tolist(),
        definedness_consistent=(defined == mpe).tolist(),
        fom_mpe_defect=_stage_list(_rel(fom_mpe, size_mpe), paired),
        gmr_rre_defect=_rel(gmr_rre, size_rre).tolist(),
        residual_match_mpe=_stage_list(_rel(match_mpe, floor_mpe), mpe),
        residual_match_rre=_rel(match_rre, floor_rre).tolist(),
        gmr_estimate_defect=_rel(abs(estimate - res_rre),
                                 floor_rre).tolist())
