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
    exists.
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

Checks return per-stage defects (relative residuals of the two sides),
with ``None`` marking stages where an identity does not apply (stage
0, terminal stage, or nonexistent minimal-polynomial vector as the
case requires).  Defects are reported as numbers and judged against
thresholds only in :func:`verify_history`, so callers can inspect the
raw measurements.

By default every check recomputes the quantities it relates directly
from the difference columns and triangular factors, so the two sides
are independent of the estimates cached in the records.  Verifying a
reloaded history file instead uses the recorded values
(``use_recorded_phi=True``), which is what makes tampering visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular

from .errors import TheoremViolation
from .extrapolate import RunHistory

__all__ = [
    "STAG_TOL",
    "PLATEAU_TOL",
    "MONOTONE_SLACK",
    "DEFAULT_THRESHOLDS",
    "StagnationEntry",
    "CouplingEntry",
    "PeakPlateau",
    "StageRelations",
    "RelationReport",
    "check_master_identity",
    "check_stagnation",
    "check_coupling",
    "check_corollaries",
    "peak_plateau_report",
    "verify_history",
]

#: relative threshold declaring two consecutive reduced-rank vectors equal
STAG_TOL = 1e-10

#: a stage with phi_rre ratio above 1 - PLATEAU_TOL counts as plateau
PLATEAU_TOL = 1e-6

#: slack allowed on the nonincreasing phi_rre comparison
MONOTONE_SLACK = 1e-12

#: per-identity defect thresholds used by verify_history; editorial
#: choices (the identities are exact, floating point is not), surfaced
#: in the report and overridable
DEFAULT_THRESHOLDS = {
    "3-8": 1e-9,
    "3-15": 1e-9,
    "3-16": 1e-9,
    "3-17": 1e-9,
    "3-18": 1e-9,
    "91": 1e-9,
    "92": 1e-9,
}


def _phi_tables(history: RunHistory, use_recorded: bool):
    """Per-stage (phi_mpe, phi_rre), recomputed from raw columns unless
    told to trust the records."""
    phi_m, phi_r = [], []
    for rec in history.records:
        if use_recorded:
            phi_m.append(rec.mpe.phi)
            phi_r.append(rec.rre.phi)
            continue
        u = history.differences.block(rec.k)
        phi_m.append(None if rec.mpe.gamma is None
                     else history.weight.norm(u @ rec.mpe.gamma))
        phi_r.append(None if rec.rre.gamma is None
                     else history.weight.norm(u @ rec.rre.gamma))
    return phi_m, phi_r


def _rel(defect: float, scale: float) -> float:
    return float(defect / scale) if scale > 0 else float(defect)


def check_master_identity(history: RunHistory) -> list:
    """Per-stage relative defect of identity 3-8, None where k = 0 or
    the stage is terminal.

    Both sides live in the triangular frame.  The left side uses the
    stage-k reduced-rank coefficients; the right side uses the
    stage-(k-1) ones plus a fresh back-substitution for the
    minimal-polynomial coefficient sum, so no cached scalar enters.
    """
    out = []
    for idx, rec in enumerate(history.records):
        if idx == 0 or rec.terminal:
            out.append(None)
            continue
        k = rec.k
        r = history.factors_at(k).r
        lhs_vec = r @ rec.rre.gamma
        lhs = lhs_vec / (np.linalg.norm(lhs_vec) ** 2)
        prev_vec = r[:k, :k] @ history.records[idx - 1].rre.gamma
        cprime = solve_triangular(r[:k, :k], -r[:k, k], lower=False)
        alpha = 1.0 + complex(cprime.sum())
        rhs = np.empty(k + 1, dtype=complex)
        rhs[:k] = prev_vec / (np.linalg.norm(prev_vec) ** 2)
        rhs[k] = np.conj(alpha) / r[k, k].real
        out.append(_rel(np.linalg.norm(lhs - rhs), np.linalg.norm(lhs)))
    return out


class StagnationEntry(NamedTuple):
    stagnates: bool
    mpe_exists: bool
    embedding_defect: float | None  # identity 3-15, stagnating stages only


def check_stagnation(history: RunHistory, stag_tol: float = STAG_TOL,
                     raise_on_violation: bool = True) -> list:
    """Per-stage (stagnates, mpe_exists, embedding defect), None at
    stage 0 and terminal stages.

    ``stagnates`` holds when the weighted distance between consecutive
    reduced-rank vectors is at most ``stag_tol * (1 + |||s_k|||)``.
    The two flags must be opposite at every checked stage; a mismatch
    raises :class:`TheoremViolation`, which indicates a library bug
    (or a tampered history), never a property of the input sequence.
    """
    weight = history.weight
    out = []
    for idx, rec in enumerate(history.records):
        if idx == 0 or rec.terminal:
            out.append(None)
            continue
        prev = history.records[idx - 1]
        dist = weight.norm(rec.rre.s - prev.rre.s)
        stagnates = bool(dist <= stag_tol * (1.0 + weight.norm(rec.rre.s)))
        if stagnates == rec.mpe.exists and raise_on_violation:
            raise TheoremViolation(
                f"stage {rec.k}: stagnation={stagnates} but minimal-polynomial "
                f"existence={rec.mpe.exists}; the two are required to be "
                "opposite (identity 3-1)"
            )
        embed = None
        if stagnates:
            padded = np.append(prev.rre.gamma, 0.0)
            embed = _rel(np.linalg.norm(rec.rre.gamma - padded),
                         np.linalg.norm(rec.rre.gamma))
        out.append(StagnationEntry(stagnates, rec.mpe.exists, embed))
    return out


@dataclass(frozen=True)
class CouplingEntry:
    identity_316_residual: float
    identity_317_residual: float
    identity_318_residual: float
    monotone_355: bool


def check_coupling(history: RunHistory, use_recorded_phi: bool = False
                   ) -> list:
    """Defects of identities 3-16/3-17/3-18 and the 3-55 flag per
    stage; None where the minimal-polynomial vector is absent, at
    stage 0, and at terminal stages."""
    return _coupling(history, *_phi_tables(history, use_recorded_phi))


def _coupling(history: RunHistory, phi_m: list, phi_r: list) -> list:
    weight = history.weight
    out = []
    for idx, rec in enumerate(history.records):
        if idx == 0 or rec.terminal or not rec.mpe.exists:
            out.append(None)
            continue
        k = rec.k
        prev = history.records[idx - 1]
        fr, fr_prev, fm = phi_r[idx], phi_r[idx - 1], phi_m[idx]
        d316 = _rel(abs(1.0 / fr ** 2 - 1.0 / fr_prev ** 2 - 1.0 / fm ** 2),
                    1.0 / fr ** 2)
        u_k = history.differences.block(k)
        v_rre = (u_k @ rec.rre.gamma) / fr ** 2
        v_prev = (history.differences.block(k - 1) @ prev.rre.gamma) / fr_prev ** 2
        v_mpe = (u_k @ rec.mpe.gamma) / fm ** 2
        d317 = _rel(weight.norm(v_rre - v_prev - v_mpe), weight.norm(v_rre))
        lhs_s = rec.rre.s / fr ** 2
        rhs_s = prev.rre.s / fr_prev ** 2 + rec.mpe.s / fm ** 2
        d318 = _rel(weight.norm(lhs_s - rhs_s), weight.norm(lhs_s))
        monotone = bool(fr < fr_prev * (1.0 + MONOTONE_SLACK))
        out.append(CouplingEntry(d316, d317, d318, monotone))
    return out


def check_corollaries(history: RunHistory, use_recorded_phi: bool = False):
    """(defects of 91, defects of 92, S_k sets) per stage.

    91 applies where the minimal-polynomial vector exists (and k >= 1,
    non-terminal); 92 at every non-terminal stage, accumulating over
    the existence set S_k.
    """
    return _corollaries(history, *_phi_tables(history, use_recorded_phi))


def _corollaries(history: RunHistory, phi_m: list, phi_r: list):
    eq91, eq92, s_sets = [], [], []
    s_set: tuple[int, ...] = ()
    inv_sum = 0.0
    for idx, rec in enumerate(history.records):
        if rec.terminal:
            eq91.append(None)
            eq92.append(None)
            s_sets.append(s_set)
            continue
        if rec.mpe.exists:
            s_set = s_set + (rec.k,)
            inv_sum += 1.0 / phi_m[idx] ** 2
        s_sets.append(s_set)
        if idx == 0 or not rec.mpe.exists:
            eq91.append(None)
        else:
            ratio = phi_r[idx] / phi_r[idx - 1]
            if ratio < 1.0:
                recovered = phi_r[idx] / np.sqrt(1.0 - ratio ** 2)
                eq91.append(_rel(abs(phi_m[idx] - recovered), phi_m[idx]))
            else:
                eq91.append(float("inf"))
        eq92.append(_rel(abs(1.0 / phi_r[idx] ** 2 - inv_sum),
                         1.0 / phi_r[idx] ** 2))
    return eq91, eq92, s_sets


@dataclass(frozen=True)
class PeakPlateau:
    """Maximal stage ranges (inclusive) where the minimal-polynomial
    estimate rises (or is undefined) and where the reduced-rank
    estimate fails to decrease meaningfully, plus their intersection.
    The ratio threshold is an editorial knob, included for the
    record."""

    peaks: list
    plateaus: list
    overlap: list
    plateau_tol: float


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


def _intersect_ranges(a: list, b: list) -> list:
    out = []
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo <= hi:
                out.append((lo, hi))
    return sorted(out)


def peak_plateau_report(history: RunHistory,
                        plateau_tol: float = PLATEAU_TOL) -> PeakPlateau:
    """Locate peak and plateau ranges on the recorded estimates.

    A stage peaks when its minimal-polynomial estimate exceeds the
    last defined one before it, or is itself undefined; it plateaus
    when phi_rre(k)/phi_rre(k-1) > 1 - plateau_tol.  Works on any
    history with at least two stages.
    """
    peak_flags, plateau_flags = {}, {}
    last_defined = None
    prev_rre = None
    for idx, rec in enumerate(history.records):
        if rec.terminal:
            break
        if idx > 0:
            peak_flags[rec.k] = (
                rec.mpe.phi is None
                or (last_defined is not None and rec.mpe.phi > last_defined)
            )
            plateau_flags[rec.k] = rec.rre.phi / prev_rre > 1.0 - plateau_tol
        if rec.mpe.phi is not None:
            last_defined = rec.mpe.phi
        prev_rre = rec.rre.phi
    peaks = _true_ranges(peak_flags)
    plateaus = _true_ranges(plateau_flags)
    return PeakPlateau(peaks, plateaus, _intersect_ranges(peaks, plateaus),
                       plateau_tol)


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


@dataclass(frozen=True)
class RelationReport:
    stages: list
    peaks: list
    plateaus: list
    overlap: list
    ok: bool
    worst: tuple | None  # (identity label, stage, defect)
    thresholds: dict

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
                    "defect_3_8": st.identity_38_residual,
                    "defect_3_15": st.identity_315_residual,
                    "defect_3_16": st.identity_316_residual,
                    "defect_3_17": st.identity_317_residual,
                    "defect_3_18": st.identity_318_residual,
                    "defect_91": st.eq91_defect,
                    "defect_92": st.eq92_defect,
                    "monotone_3_55": st.monotone_355,
                    "nonincreasing": st.nonincreasing,
                    "s_set": list(st.s_set),
                }
                for st in self.stages
            ],
        }


def verify_history(history: RunHistory, use_recorded_phi: bool = False,
                   thresholds: dict | None = None,
                   stag_tol: float = STAG_TOL,
                   plateau_tol: float = PLATEAU_TOL) -> RelationReport:
    """Run every check and judge the defects against thresholds.

    Never raises on a violation; inconsistencies are folded into the
    report (``ok`` false, ``worst`` naming the identity label and
    stage of the largest threshold-relative defect).
    """
    thr = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        thr.update(thresholds)
    master = check_master_identity(history)
    stagn = check_stagnation(history, stag_tol, raise_on_violation=False)
    phi_m, phi_r = _phi_tables(history, use_recorded_phi)
    coupling = _coupling(history, phi_m, phi_r)
    eq91, eq92, s_sets = _corollaries(history, phi_m, phi_r)

    stages = []
    failures = []  # (ratio, label, k, defect)

    def judge(label, k, defect):
        if defect is None:
            return
        limit = thr[label]
        failures.append((defect / limit, label, k, defect))

    for idx, rec in enumerate(history.records):
        st_entry = stagn[idx]
        stag_flag = None if st_entry is None else st_entry.stagnates
        consistent = None
        embed = None
        if st_entry is not None:
            consistent = st_entry.stagnates != st_entry.mpe_exists
            embed = st_entry.embedding_defect
            if not consistent:
                failures.append((float("inf"), "3-1", rec.k, float("inf")))
        cpl = coupling[idx]
        noninc = None
        if idx > 0 and not rec.terminal and phi_r[idx] is not None \
                and phi_r[idx - 1] is not None:
            noninc = bool(phi_r[idx] <= phi_r[idx - 1] * (1.0 + MONOTONE_SLACK))
            if not noninc:
                failures.append((float("inf"), "3-55", rec.k, float("inf")))
        if cpl is not None and not cpl.monotone_355:
            failures.append((float("inf"), "3-55", rec.k, float("inf")))

        judge("3-8", rec.k, master[idx])
        judge("3-15", rec.k, embed)
        if cpl is not None:
            judge("3-16", rec.k, cpl.identity_316_residual)
            judge("3-17", rec.k, cpl.identity_317_residual)
            judge("3-18", rec.k, cpl.identity_318_residual)
        judge("91", rec.k, eq91[idx])
        judge("92", rec.k, eq92[idx])

        stages.append(StageRelations(
            k=rec.k,
            mpe_exists=rec.mpe.exists,
            terminal=rec.terminal,
            stagnation_detected=stag_flag,
            stagnation_consistent=consistent,
            identity_38_residual=master[idx],
            identity_315_residual=embed,
            identity_316_residual=None if cpl is None
            else cpl.identity_316_residual,
            identity_317_residual=None if cpl is None
            else cpl.identity_317_residual,
            identity_318_residual=None if cpl is None
            else cpl.identity_318_residual,
            eq91_defect=eq91[idx],
            eq92_defect=eq92[idx],
            monotone_355=None if cpl is None else cpl.monotone_355,
            nonincreasing=noninc,
            s_set=s_sets[idx],
        ))

    pp = peak_plateau_report(history, plateau_tol) if len(history.records) > 1 \
        else PeakPlateau([], [], [], plateau_tol)
    over_threshold = [f for f in failures if f[0] > 1.0]
    ok = not over_threshold
    worst = None
    if failures:
        ratio, label, k, defect = max(failures, key=lambda f: f[0])
        worst = (label, k, defect)
    return RelationReport(stages, pp.peaks, pp.plateaus, pp.overlap,
                          ok, worst, thr)
