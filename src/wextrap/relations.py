"""Consistency checks coupling the two extrapolation methods.

A run produced by :func:`wextrap.extrapolate.run` is not just a pile
of numbers: the reduced-rank and minimal-polynomial results at
consecutive stages are tied together by a family of exact identities.
This module measures how well a history satisfies them.  Each identity
carries a short catalog label used in reports and CLI output:

``3-8``
    master recursion in the triangular frame:
    R_k g_k / ||R_k g_k||^2 = [R_{k-1} g_{k-1} / ||R_{k-1} g_{k-1}||^2 ; 0]
    + (conj(alpha_k)/r_kk) e_last, with g_j the reduced-rank gamma at
    stage j and alpha_k the minimal-polynomial coefficient sum.  Valid
    at every stage, whether or not the minimal-polynomial vector
    exists.  :func:`wextrap.extrapolate.run` builds its reduced-rank
    gamma by this very recursion (its unnormalized h_k is R_k^{-1}
    times the left side), yet the check stays independent: it
    re-derives every alpha_k from the final R with one solve of its
    own and never reads the run's h_k, mu_k or recorded alpha_k.
``3-1`` / ``3-15``
    stagnation equivalence: s_k^rre = s_{k-1}^rre exactly when the
    minimal-polynomial vector at k does not exist; the coefficients
    then embed as gamma_k^rre = [gamma_{k-1}^rre ; 0].
``3-16`` / ``3-17`` / ``3-18`` / ``3-55``
    coupling identities where the minimal-polynomial vector exists:
    1/phi_rre(k)^2 = 1/phi_rre(k-1)^2 + 1/phi_mpe(k)^2, the same
    relation for the residual vectors U_k gamma / phi^2, the same
    relation for the extrapolated vectors s / phi^2, and strict
    decrease of phi_rre.
``91`` / ``92``
    consequences: phi_mpe(k) recovered from consecutive reduced-rank
    estimates, and 1/phi_rre(k)^2 as the sum of 1/phi_mpe(i)^2 over
    the stages i <= k where the minimal-polynomial vector exists.

The identities measured by a relative defect form :data:`CATALOG`, one
row per label: the :class:`StageRelations` field that holds the
defect, the default threshold, and the per-stage defect function,
which returns None where the identity does not apply (stage 0,
terminal stage, or nonexistent minimal-polynomial vector as the case
requires).  The 3-1 and 3-55 flags are boolean and sit beside the
table.  One pass over the records fills every :class:`StageRelations`,
and :func:`verify_history` judges the defects against thresholds.
Every weighted norm that pass needs comes from two block products with
M over all stages, whatever their number
(:meth:`wextrap.weights.WeightOperator.norm` on an N x m block): the
first gives phi and the stagnation distances, the second the 3-17 and
3-18 defects, which need the first's phi.  Its
report keeps the raw measurements: ``report.stages[k].<field>`` is
the one way to read a stage's defects and flags, and
``report.peaks``/``plateaus``/``overlap`` the one way to read where
the estimates peak and plateau.  A violation is reported (``ok``
false), never raised.  For linear iterates U_k gamma is the exact
residual r(s_k) (:func:`wextrap.krylov.equivalence_check` measures
that), so these identities cover the Krylov solvers too.

By default every check recomputes the quantities it relates directly
from the difference columns and triangular factors, so the two sides
are independent of the estimates cached in the records.  Verifying a
reloaded history file instead uses the recorded values
(``use_recorded_phi=True``), which is what makes tampering visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .extrapolate import RunHistory

__all__ = [
    "STAG_TOL",
    "PLATEAU_TOL",
    "MONOTONE_SLACK",
    "Identity",
    "CATALOG",
    "DEFAULT_THRESHOLDS",
    "StageRelations",
    "RelationReport",
    "verify_history",
]

#: relative threshold declaring two consecutive reduced-rank vectors equal
STAG_TOL = 1e-10

#: a stage with phi_rre ratio above 1 - PLATEAU_TOL counts as plateau
PLATEAU_TOL = 1e-6

#: slack allowed on the nonincreasing phi_rre comparison
MONOTONE_SLACK = 1e-12


def _rel(defect: float, scale: float) -> float:
    return float(defect / scale) if scale > 0 else float(defect)


def _norms(weight, vectors: dict) -> dict:
    """|||v||| for every ``key: v`` in ``vectors``, from one product
    with M over the N x m block of their columns.  The norms are numpy
    floats, so 1/|||v|||^2 follows numpy's error state."""
    block = np.array(list(vectors.values()), dtype=complex)
    block = block.reshape(len(vectors), weight.dimension).T
    return dict(zip(vectors, weight.norm(block)))


class _Stage:
    """One record as the catalog's defect functions see it.

    The residual vectors U_k gamma are formed once and serve both the
    phi estimates and identity 3-17.  ``checked`` is false at stage 0
    and at the terminal stage, where no two-stage identity applies;
    ``coupled`` adds that the minimal-polynomial vector exists, which
    is where the coupling identities apply.

    The weighted norms come in two block products over every stage
    (:func:`_measure`).  The constructor adds its pass-1 vectors to
    ``first``: U_k gamma for both methods (unless the recorded phi is
    used), and s_rre(k) - s_rre(k-1) with s_rre(k) and, at stage 0,
    u_0 for the stagnation test, which scales with the data: stage k
    stagnates when |||s_rre(k) - s_rre(k-1)||| <= stag_tol *
    (|||u_0||| + |||s_rre(k)|||).  :meth:`settle` reads them and adds
    the 3-17/3-18 numerators and denominators, which need pass 1's phi,
    to ``second``.  Each difference is formed as a vector first, so a
    defect is measured on it and never by cancelling two separate
    norms.
    """

    def __init__(self, history: RunHistory, rec, prev: "_Stage | None",
                 use_recorded_phi: bool, cprimes, first: dict):
        self.history, self.rec, self.prev = history, rec, prev
        self.cprimes = cprimes
        u = history.differences[:, :rec.k + 1]
        self.u_mpe = None if rec.mpe.gamma is None else u @ rec.mpe.gamma
        self.u_rre = None if rec.rre.gamma is None else u @ rec.rre.gamma
        if use_recorded_phi:  # as numpy floats, like pass 1's
            self.phi_mpe, self.phi_rre = (
                None if phi is None else np.float64(phi)
                for phi in (rec.mpe.phi, rec.rre.phi))
        else:  # pass 1 sets each phi whose U_k gamma exists
            self.phi_mpe = self.phi_rre = None
            for name, v in (("phi_mpe", self.u_mpe), ("phi_rre", self.u_rre)):
                if v is not None:
                    first[self, name] = v
        if prev is None:  # |||u_0|||, the data's scale for stagnation
            first[self, "u0"] = u[:, 0]
        self.checked = prev is not None and not rec.terminal
        self.coupled = self.checked and rec.mpe.exists
        if self.checked:
            first[self, "step"] = rec.rre.s - prev.rec.rre.s
            first[self, "size"] = rec.rre.s
        self.stagnates = None

    def settle(self, stag_tol: float, second: dict) -> None:
        """Judge stagnation and carry S_k from pass 1's norms; add the
        pass-2 vectors of 3-17 and 3-18."""
        rec, prev = self.rec, self.prev
        # S_k and the running sum of 1/phi_mpe^2 over it (identity 92)
        if prev is not None:
            self.s_set, self.inv_sum, self.u0 = \
                prev.s_set, prev.inv_sum, prev.u0
        else:
            self.s_set, self.inv_sum = (), 0.0
        if rec.mpe.exists and not rec.terminal:
            self.s_set += (rec.k,)
            self.inv_sum += 1.0 / self.phi_mpe ** 2
        if self.checked:
            self.stagnates = bool(
                self.step <= stag_tol * (self.u0 + self.size))
        if self.coupled:
            fr, fp, fm = self.phi_rre, prev.phi_rre, self.phi_mpe
            v = self.u_rre / fr ** 2
            second[self, "num_317"] = \
                v - prev.u_rre / fp ** 2 - self.u_mpe / fm ** 2
            second[self, "den_317"] = v
            lhs = rec.rre.s / fr ** 2
            second[self, "num_318"] = \
                lhs - (prev.rec.rre.s / fp ** 2 + rec.mpe.s / fm ** 2)
            second[self, "den_318"] = lhs


def _cprimes(history: RunHistory):
    """Column k holds stage k's c' with R_{k-1} c' = -rho_k in rows
    0..k-1, and exact zeros below.  Every R_{k-1} is a leading block of
    the final R, so one solve of R X = -triu(R, 1) serves every stage.
    R is upper triangular with a positive diagonal, so
    ``np.linalg.solve`` swaps no row and back-substitutes."""
    r = history.factors.r
    return np.linalg.solve(r, -np.triu(r, 1))


def _master(st: _Stage) -> float | None:
    """3-8.  Both sides live in the triangular frame.  The left side
    uses the stage-k reduced-rank coefficients; the right side uses the
    stage-(k-1) ones plus the minimal-polynomial coefficient sum from
    :func:`_cprimes`, so no cached scalar enters."""
    if not st.checked:
        return None
    k = st.rec.k
    r = st.history.factors_at(k).r
    lhs_vec = r @ st.rec.rre.gamma
    lhs = lhs_vec / (np.linalg.norm(lhs_vec) ** 2)
    prev_vec = r[:k, :k] @ st.prev.rec.rre.gamma
    alpha = 1.0 + complex(st.cprimes[:k, k].sum())
    rhs = np.empty(k + 1, dtype=complex)
    rhs[:k] = prev_vec / (np.linalg.norm(prev_vec) ** 2)
    rhs[k] = np.conj(alpha) / r[k, k].real
    return _rel(np.linalg.norm(lhs - rhs), np.linalg.norm(lhs))


def _coupling(st: _Stage) -> float | None:
    """3-16: 1/phi_rre(k)^2 = 1/phi_rre(k-1)^2 + 1/phi_mpe(k)^2."""
    if not st.coupled:
        return None
    fr, fp, fm = st.phi_rre, st.prev.phi_rre, st.phi_mpe
    return _rel(abs(1.0 / fr ** 2 - 1.0 / fp ** 2 - 1.0 / fm ** 2),
                1.0 / fr ** 2)


def _embedding(st: _Stage) -> float | None:
    """3-15, on stagnating stages only."""
    if not st.stagnates:
        return None
    gamma = st.rec.rre.gamma
    padded = np.append(st.prev.rec.rre.gamma, 0.0)
    return _rel(np.linalg.norm(gamma - padded), np.linalg.norm(gamma))


def _eq91(st: _Stage) -> float | None:
    if not st.coupled:
        return None
    ratio = st.phi_rre / st.prev.phi_rre
    if ratio >= 1.0:
        return float("inf")
    recovered = st.phi_rre / np.sqrt(1.0 - ratio ** 2)
    return _rel(abs(st.phi_mpe - recovered), st.phi_mpe)


def _eq92(st: _Stage) -> float | None:
    if st.rec.terminal:
        return None
    return _rel(abs(1.0 / st.phi_rre ** 2 - st.inv_sum),
                1.0 / st.phi_rre ** 2)


class Identity(NamedTuple):
    """One thresholded row of the identity catalog."""

    label: str
    field: str  # the StageRelations attribute holding the defect
    threshold: float
    defect: Callable  # _Stage -> relative defect, None where inapplicable


#: the thresholded identities, in report order; the thresholds are
#: editorial choices (the identities are exact, floating point is not),
#: surfaced in the report and overridable
CATALOG = (
    Identity("3-8", "identity_38_residual", 1e-9, _master),
    Identity("3-15", "identity_315_residual", 1e-9, _embedding),
    Identity("3-16", "identity_316_residual", 1e-9, _coupling),
    Identity("3-17", "identity_317_residual", 1e-9,
             lambda st: _rel(st.num_317, st.den_317) if st.coupled else None),
    Identity("3-18", "identity_318_residual", 1e-9,
             lambda st: _rel(st.num_318, st.den_318) if st.coupled else None),
    Identity("91", "eq91_defect", 1e-9, _eq91),
    Identity("92", "eq92_defect", 1e-9, _eq92),
)

#: per-identity defect thresholds used by verify_history
DEFAULT_THRESHOLDS = {row.label: row.threshold for row in CATALOG}


@dataclass(frozen=True)
class StageRelations:
    """All measurements for one stage; None marks not-applicable."""

    k: int
    mpe_exists: bool
    terminal: bool
    stagnation_detected: bool | None
    stagnation_consistent: bool | None
    identity_38_residual: float | None
    identity_315_residual: float | None
    identity_316_residual: float | None
    identity_317_residual: float | None
    identity_318_residual: float | None
    eq91_defect: float | None
    eq92_defect: float | None
    monotone_355: bool | None
    nonincreasing: bool | None
    s_set: tuple


def _measure(history: RunHistory, use_recorded_phi: bool,
             stag_tol: float) -> list:
    """The one pass: a :class:`StageRelations` per record, with every
    weighted norm from two block products with M (see :class:`_Stage`)."""
    weight = history.weight
    cprimes = _cprimes(history)
    stages, prev, first, second = [], None, {}, {}
    for rec in history.records:
        prev = _Stage(history, rec, prev, use_recorded_phi, cprimes, first)
        stages.append(prev)
    for (st, name), value in _norms(weight, first).items():
        setattr(st, name, value)
    for st in stages:
        st.settle(stag_tol, second)
    for (st, name), value in _norms(weight, second).items():
        setattr(st, name, value)
    out = []
    for st in stages:
        rec, prev = st.rec, st.prev
        consistent = noninc = monotone = None
        if st.checked:
            consistent = st.stagnates != rec.mpe.exists
            if st.phi_rre is not None and prev.phi_rre is not None:
                noninc = bool(
                    st.phi_rre <= prev.phi_rre * (1.0 + MONOTONE_SLACK))
        if st.coupled:
            monotone = bool(st.phi_rre < prev.phi_rre * (1.0 + MONOTONE_SLACK))
        out.append(StageRelations(
            k=rec.k, mpe_exists=rec.mpe.exists, terminal=rec.terminal,
            stagnation_detected=st.stagnates,
            stagnation_consistent=consistent,
            monotone_355=monotone, nonincreasing=noninc, s_set=st.s_set,
            **{row.field: row.defect(st) for row in CATALOG}))
    return out


def _true_ranges(flags: dict) -> list:
    ranges, start, prev = [], None, None
    for k in sorted(flags):
        if flags[k] and start is None:
            start = k
        if not flags[k] and start is not None:
            ranges.append((start, prev))
            start = None
        prev = k
    if start is not None:
        ranges.append((start, prev))
    return ranges


@dataclass(frozen=True)
class RelationReport:
    """The verdict of :func:`verify_history` with its measurements.

    ``peaks``, ``plateaus`` and ``overlap`` are maximal stage ranges
    (inclusive) before the terminal stage, read from the recorded
    estimates.  A stage k > 0 peaks when its minimal-polynomial
    estimate exceeds the last defined one before it, or is itself
    undefined; it plateaus when phi_rre(k)/phi_rre(k-1) >
    1 - PLATEAU_TOL; the overlap is where both hold.  ``violations``
    maps each label that fails to its worst (stage, defect), the first
    such stage on a tie; ``ok`` is true when it is empty.
    """

    stages: list
    peaks: list
    plateaus: list
    overlap: list
    ok: bool
    worst: tuple | None  # (identity label, stage, defect)
    thresholds: dict
    violations: dict  # label -> (stage, defect) where it fails worst

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "worst": None if self.worst is None else {
                "identity": self.worst[0], "k": self.worst[1],
                "defect": self.worst[2]},
            "thresholds": dict(self.thresholds),
            "peaks": [list(r) for r in self.peaks],
            "plateaus": [list(r) for r in self.plateaus],
            "overlap": [list(r) for r in self.overlap],
            "stages": [
                {
                    "k": st.k,
                    "mpe_exists": st.mpe_exists,
                    "terminal": st.terminal,
                    "stagnation_detected": st.stagnation_detected,
                    "stagnation_consistent": st.stagnation_consistent,
                    **{"defect_" + row.label.replace("-", "_"):
                       getattr(st, row.field) for row in CATALOG},
                    "monotone_3_55": st.monotone_355,
                    "nonincreasing": st.nonincreasing,
                    "s_set": list(st.s_set),
                }
                for st in self.stages
            ],
        }


def verify_history(history: RunHistory, use_recorded_phi: bool = False,
                   thresholds: dict | None = None,
                   stag_tol: float = STAG_TOL) -> RelationReport:
    """Run every check and judge the defects against thresholds.

    Never raises on a violation; inconsistencies are folded into the
    report (``ok`` false, ``worst`` naming the identity label and
    stage of the largest threshold-relative defect).  A NaN defect
    counts as an infinite one: it fails, and it is the worst.
    """
    thr = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        thr.update(thresholds)
    # a phi whose square leaves the float range (an edited file) gives
    # inf or NaN defects, judged below, not an exception or a warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        stages = _measure(history, use_recorded_phi, stag_tol)

    inf = float("inf")
    failures = []  # (threshold-relative defect, label, k, defect)
    for st in stages:
        if st.stagnation_consistent is False:
            failures.append((inf, "3-1", st.k, inf))
        if st.nonincreasing is False:
            failures.append((inf, "3-55", st.k, inf))
        if st.monotone_355 is False:
            failures.append((inf, "3-55", st.k, inf))
        for row in CATALOG:
            defect = getattr(st, row.field)
            if defect is not None:
                ratio = defect / thr[row.label]
                failures.append((inf if math.isnan(ratio) else ratio,
                                 row.label, st.k, defect))

    peak, plateau = {}, {}
    last_defined = prev_rre = None
    for idx, rec in enumerate(history.records):
        if rec.terminal:
            break
        if idx > 0:
            peak[rec.k] = rec.mpe.phi is None or (
                last_defined is not None and rec.mpe.phi > last_defined)
            plateau[rec.k] = rec.rre.phi / prev_rre > 1.0 - PLATEAU_TOL
        if rec.mpe.phi is not None:
            last_defined = rec.mpe.phi
        prev_rre = rec.rre.phi
    both = {k: peak[k] and plateau[k] for k in peak}

    violations = {}  # the first stage of each label's largest ratio > 1
    for ratio, label, k, defect in sorted(failures, key=lambda f: f[0],
                                          reverse=True):
        if ratio > 1.0:
            violations.setdefault(label, (k, defect))
    ok = not violations
    worst = None
    if failures:
        ratio, label, k, defect = max(failures, key=lambda f: f[0])
        worst = (label, k, defect)
    return RelationReport(stages, _true_ranges(peak), _true_ranges(plateau),
                          _true_ranges(both), ok, worst, thr, violations)
