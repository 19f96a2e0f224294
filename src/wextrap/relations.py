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
    then embed as gamma_k^rre = [gamma_{k-1}^rre ; 0].  Both sides judge
    sigma_k = sqrt(nu_k / mu_k) against ``extrapolate.EXIST_TOL``.
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
row per label: the :class:`StageRelations` field that holds the defect
and the default threshold.  The 3-1 and 3-55 flags are boolean and sit
beside the table.  :func:`verify_history` measures the whole history at
once, as arrays with one column per stage: the m non-terminal stages'
gamma, zero-padded into m x m blocks G, and their s vectors as N x m
blocks.  U_k gamma for every stage is the one product U G, column k of
R G is R_k g_k, and each row's defect is one array expression over
stage k and stage k - 1.  Where a row applies (past stage 0, and where
the minimal-polynomial vector exists or the reduced-rank one
stagnates, as the row requires) is a boolean mask, and the report reads
None elsewhere; the terminal stage checks nothing and carries S_k
over.  3-8 and 3-1 stay independent of the run's own recursion: they
read R G, and 3-8 takes every alpha_k from one solve against the final
R, never the run's h_k, mu_k or recorded alpha_k.  Every weighted norm
comes from two block products with M, whatever the number of stages
(:meth:`wextrap.weights.WeightOperator.norm` on an N x m block): the
first gives phi (none is taken for recorded phi), the second the 3-17
and 3-18 defects, which need the first's phi.  The report keeps the raw
measurements: ``report.stages[k].<field>`` is the one way to read a
stage's defects and flags, and ``report.peaks``/``plateaus``/
``overlap`` the one way to read where the estimates peak and plateau.
The verdict is judged on the same stage columns, as one array of
threshold-relative defects with a row per label and a column per
stage, and the peaks and plateaus on the recorded phi columns; the
:class:`StageRelations` objects are built once, for the report.  A
threshold is a number above 0 (``inf`` included).  A violation is
reported (``ok`` false), never raised.  For linear
iterates U_k gamma is the exact residual r(s_k)
(:func:`wextrap.krylov.equivalence_check` measures that), so these
identities cover the Krylov solvers too.

By default every check recomputes the quantities it relates directly
from the difference columns and triangular factors, so the two sides
are independent of the estimates cached in the records.  Verifying a
reloaded history file instead uses the recorded values
(``use_recorded_phi=True``), which is what makes tampering visible.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import extrapolate
from .extrapolate import RunHistory

__all__ = [
    "PLATEAU_TOL",
    "MONOTONE_SLACK",
    "Identity",
    "CATALOG",
    "DEFAULT_THRESHOLDS",
    "StageRelations",
    "RelationReport",
    "verify_history",
]

#: a stage with phi_rre ratio above 1 - PLATEAU_TOL counts as plateau
PLATEAU_TOL = 1e-6

#: slack allowed on the nonincreasing phi_rre comparison
MONOTONE_SLACK = 1e-12


def _rel(defect, scale):
    """defect / scale, or the defect itself where the scale is not
    positive (NaN included), elementwise without a warning."""
    return np.divide(defect, scale, out=np.array(defect, dtype=float),
                     where=scale > 0)


def _norms(weight, blocks: list) -> list:
    """The column norms of each N x m_i block in ``blocks``, from one
    product with M over all of them.  The joint block is column-major,
    so each norm reads a contiguous column.  The norms are numpy
    floats, so 1/|||v|||^2 follows numpy's error state."""
    widths = np.cumsum([b.shape[1] for b in blocks])
    joint = np.empty((weight.dimension, widths[-1]),
                     dtype=np.result_type(*blocks), order="F")
    norms = weight.norm(np.concatenate(blocks, axis=1, out=joint))
    return np.split(norms, widths[:-1])


def _stage_arrays(solves, mask, n: int):
    """(G, S): stage j's gamma zero-padded as column j of the m x m
    array G, and its s as column j of the n x m array S, for every
    stage j that ``mask`` selects; zero columns elsewhere.  Both are
    complex when any selected gamma or s is, else real."""
    m, picked = len(solves), np.flatnonzero(mask)
    dtype = complex if any(np.iscomplexobj(solves[j].gamma)
                           or np.iscomplexobj(solves[j].s)
                           for j in picked) else float
    g = np.zeros((m, m), dtype=dtype)
    s = np.zeros((n, m), dtype=dtype)
    for j in picked:
        g[:j + 1, j], s[:, j] = solves[j].gamma, solves[j].s
    return g, s


def _spread(mask, values):
    """``values`` at the True entries of ``mask``, NaN elsewhere."""
    out = np.full(mask.shape, np.nan)
    out[mask] = values
    return out


def _stage_list(values, mask) -> list:
    """Python values per stage, None where ``mask`` is False."""
    return [v if ok else None
            for v, ok in zip(np.asarray(values).tolist(), mask.tolist())]


class Identity(NamedTuple):
    """One thresholded row of the identity catalog."""

    label: str
    field: str  # the StageRelations attribute holding the defect
    threshold: float


#: the thresholded identities, in report order; the thresholds are
#: editorial choices (the identities are exact, floating point is not),
#: surfaced in the report and overridable
CATALOG = (
    Identity("3-8", "identity_38_residual", 1e-9),
    Identity("3-15", "identity_315_residual", 1e-9),
    Identity("3-16", "identity_316_residual", 1e-9),
    Identity("3-17", "identity_317_residual", 1e-9),
    Identity("3-18", "identity_318_residual", 1e-9),
    Identity("91", "eq91_defect", 1e-9),
    Identity("92", "eq92_defect", 1e-9),
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


def _measure(history: RunHistory, recs: list, phi) -> dict:
    """The stage columns of the m non-terminal records ``recs``: each
    measured :class:`StageRelations` field as (value per stage, where
    it applies).  Column k of every array below is stage k, and column
    ``prev[k]`` its predecessor (stage 0, its own, is never checked).
    ``phi`` is the recorded (phi_rre, phi_mpe) pair of columns, or None
    to measure them."""
    weight, m, n = history.weight, len(recs), history.weight.dimension
    every = np.ones(m, dtype=bool)
    exists = np.array([rec.mpe.exists for rec in recs], dtype=bool)
    g_rre, s_rre = _stage_arrays([rec.rre for rec in recs], every, n)
    g_mpe, s_mpe = _stage_arrays([rec.mpe for rec in recs], exists, n)
    # N x m even where a history with no non-terminal stage stores U
    # as [0, 0]
    u = history.differences[:, :m].reshape(n, m)
    ug_rre, ug_mpe = u @ g_rre, u @ g_mpe  # U_k gamma for every stage
    prev = np.maximum(np.arange(m) - 1, 0)
    checked = np.arange(m) > 0
    coupled = checked & exists

    if phi is None:  # pass 1; it is not taken for recorded phi
        phi_rre, phi_mpe = _norms(weight, [ug_rre, ug_mpe[:, exists]])
        phi = phi_rre, _spread(exists, phi_mpe)
    fr, fm = phi
    fp = fr[prev]

    # pass 2: the vector couplings 3-17 (U_k gamma / phi^2) and 3-18
    # (s / phi^2) on the coupled stages; each difference is formed as a
    # vector, never by cancelling two norms
    c = np.flatnonzero(coupled)
    v, lhs = ug_rre[:, c] / fr[c] ** 2, s_rre[:, c] / fr[c] ** 2
    num317, den317, num318, den318 = _norms(weight, [
        v - ug_rre[:, c - 1] / fp[c] ** 2 - ug_mpe[:, c] / fm[c] ** 2, v,
        lhs - (s_rre[:, c - 1] / fp[c] ** 2 + s_mpe[:, c] / fm[c] ** 2), lhs])

    # 3-8 in the triangular frame, independent of the run's h_k, mu_k
    # and recorded alpha_k: column k of R G is R_k g_k, and alpha_k is
    # 1 + sum(c'), with R_{k-1} c' = -rho_k from one solve against the
    # final R (every R_{k-1} is a leading block of it, and the solve is
    # a back substitution)
    r = history.r[:m, :m]
    rg = r @ g_rre
    lhs38 = rg / np.linalg.norm(rg, axis=0) ** 2
    alpha = 1.0 + np.linalg.solve(r, -np.triu(r, 1)).sum(axis=0)
    gap = lhs38 - lhs38[:, prev]
    ks = np.flatnonzero(checked)
    gap[ks, ks] -= alpha[ks].conj() / r.diagonal().real[ks]
    # stagnation: |||U (g_k - g_{k-1})||| / |||U g_{k-1}||| is sigma_k,
    # formed from the coefficient step so that no two residuals cancel
    dg = g_rre - g_rre[:, prev]
    stagnates = np.linalg.norm(r @ dg, axis=0) <= (
        extrapolate.EXIST_TOL * np.linalg.norm(rg[:, prev], axis=0))

    inv_fr = 1.0 / fr ** 2
    ratio = fr / fp
    slack = fp * (1.0 + MONOTONE_SLACK)
    return {  # field: (value per stage, where it applies)
        "identity_38_residual": (_rel(np.linalg.norm(gap, axis=0),
                                      np.linalg.norm(lhs38, axis=0)), checked),
        "identity_315_residual": (_rel(np.linalg.norm(dg, axis=0),
                                       np.linalg.norm(g_rre, axis=0)),
                                  checked & stagnates),
        "identity_316_residual": (_rel(
            abs(inv_fr - 1.0 / fp ** 2 - 1.0 / fm ** 2), inv_fr), coupled),
        "identity_317_residual": (
            _spread(coupled, _rel(num317, den317)), coupled),
        "identity_318_residual": (
            _spread(coupled, _rel(num318, den318)), coupled),
        "eq91_defect": (np.where(ratio >= 1.0, np.inf, _rel(
            abs(fm - fr / np.sqrt(1.0 - ratio ** 2)), fm)), coupled),
        # 1/phi_rre^2 against the running sum of 1/phi_mpe^2 over S_k
        "eq92_defect": (_rel(abs(inv_fr - np.cumsum(
            np.where(exists, 1.0 / fm ** 2, 0.0))), inv_fr), every),
        "stagnation_detected": (stagnates, checked),
        "stagnation_consistent": (stagnates != exists, checked),
        "monotone_355": (fr < slack, coupled),
        "nonincreasing": (fr <= slack, checked),
    }


def _runs(flags) -> list:
    """The maximal (first, last) stage ranges where ``flags`` holds;
    ``flags[i]`` is stage i + 1."""
    padded = np.concatenate(([False], flags, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return list(zip((edges[::2] + 1).tolist(), edges[1::2].tolist()))


#: the report key of each StageRelations field that is not its own
_KEYS = {**{row.field: "defect_" + row.label.replace("-", "_")
            for row in CATALOG}, "monotone_355": "monotone_3_55"}


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
            "stages": [{**{_KEYS.get(f.name, f.name): getattr(st, f.name)
                           for f in fields(st)}, "s_set": list(st.s_set)}
                       for st in self.stages],
        }


def verify_history(history: RunHistory, use_recorded_phi: bool = False,
                   thresholds: dict | None = None) -> RelationReport:
    """Run every check and judge the defects against thresholds.

    Never raises on a violation; inconsistencies are folded into the
    report (``ok`` false, ``worst`` naming the identity label and
    stage of the largest threshold-relative defect).  A NaN defect
    counts as an infinite one: it fails, and it is the worst.
    ``thresholds`` overrides catalog labels only, each with a number
    above 0 (``inf`` included, a bool not); any other key or value
    raises ValueError before anything is measured.

    The verdict is judged on the stage columns: one array of
    threshold-relative defects, a row per label (3-1, 3-55, then the
    catalog's) and a column per non-terminal stage, -inf where the row
    does not apply and inf for a failed flag or a NaN ratio.  Each
    row's first maximum above 1 is its violation, and the first
    maximum in stage order, 3-1 before 3-55 before the catalog within
    a stage, is ``worst``.  The key order of ``violations`` is not
    part of the contract (the CLI prints its labels in catalog order,
    then 3-1 and 3-55).
    """
    unknown = sorted(set(thresholds or ()) - set(DEFAULT_THRESHOLDS))
    if unknown:
        raise ValueError(f"unknown identity label(s) {unknown}; the "
                         f"catalog's labels are {list(DEFAULT_THRESHOLDS)}")
    for label, value in (thresholds or {}).items():
        if isinstance(value, bool) or not (
                isinstance(value, numbers.Real) and value > 0):
            raise ValueError(f"threshold for identity {label} is {value!r},"
                             " not a number above 0")
    thr = {**DEFAULT_THRESHOLDS, **(thresholds or {})}
    records = history.records
    m = sum(not rec.terminal for rec in records)
    recs = records[:m]
    # the recorded estimates; a None phi reads NaN
    fr = np.array([rec.rre.phi for rec in recs], dtype=float)
    fm = np.array([rec.mpe.phi for rec in recs], dtype=float)
    # a phi whose square leaves the float range (an edited file) gives
    # inf or NaN defects, judged below, not an exception or a warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        columns = _measure(history, recs, (fr, fm) if use_recorded_phi
                           else None)
        consistent, checked = columns["stagnation_consistent"]
        falls, coupled = columns["monotone_355"]
        inf = np.full(m, np.inf)
        rows = [("3-1", inf, checked & ~consistent, 1.0),
                ("3-55", inf, coupled & ~falls
                 | checked & ~columns["nonincreasing"][0], 1.0),
                *((row.label, *columns[row.field], thr[row.label])
                  for row in CATALOG)]
        labels, values, masks, scales = zip(*rows)
        defects = np.array(values, dtype=float)
        ratios = np.where(masks, defects / np.array(scales)[:, None], -np.inf)
        ratios[np.isnan(ratios)] = np.inf
        # the last defined MPE phi before each stage, as its index
        defined = ~np.isnan(fm)
        last = np.maximum.accumulate(np.where(defined, np.arange(m), -1))
        peak = ~defined[1:] | (last[:-1] >= 0) & (fm[1:] > fm[last[:-1]])
        plateau = fr[1:] / fr[:-1] > 1.0 - PLATEAU_TOL

    violations, worst = {}, None
    if m:  # a run that stops at stage 0 judges nothing
        firsts = ratios.argmax(axis=1).tolist()
        violations = {labels[i]: (j, defects[i, j].item())
                      for i, j in enumerate(firsts) if ratios[i, j] > 1.0}
        j, i = divmod(int(ratios.T.argmax()), len(labels))  # stage-major
        worst = (labels[i], j, defects[i, j].item())

    # the terminal stage checks nothing and carries S_k over
    per_stage = {name: _stage_list(*col) + [None] * (len(records) - m)
                 for name, col in columns.items()}
    # S_k is a prefix of the stages where MPE exists, ends[k] long
    exists = [rec.mpe.exists for rec in recs]
    s_all = np.flatnonzero(exists).tolist()
    ends = np.cumsum(exists, dtype=int).tolist() + [len(s_all)]
    stages = [StageRelations(
        k=rec.k, mpe_exists=rec.mpe.exists, terminal=rec.terminal,
        s_set=tuple(s_all[:ends[j]]),
        **{name: column[j] for name, column in per_stage.items()})
        for j, rec in enumerate(records)]
    return RelationReport(stages, _runs(peak), _runs(plateau),
                          _runs(peak & plateau), not violations, worst, thr,
                          violations)
