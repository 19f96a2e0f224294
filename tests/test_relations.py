from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wextrap import (
    WeightOperator,
    iterate,
    make_mpe_failure_sequence,
    make_near_stagnation_problem,
    run,
    verify_history,
)
from wextrap.relations import DEFAULT_THRESHOLDS

import rational_oracle as ro
from conftest import random_linear_problem, random_sequence, random_weight


@pytest.fixture
def demo_history(demo_problem):
    xs = iterate(demo_problem, 6)
    return run(np.asarray(xs), WeightOperator.identity(2), k_max=2)


@pytest.fixture
def stagnation_history():
    x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 1.0, 0.0]])
    return run(x, WeightOperator.identity(3))


def stages(history):
    return verify_history(history).stages


def test_master_identity_demo(demo_history):
    defects = [st.identity_38_residual for st in stages(demo_history)]
    assert defects[0] is None            # no k-1 to relate to
    assert defects[1] < 1e-10
    assert defects[2] is None            # terminal stage


def test_master_identity_stagnation(stagnation_history):
    # alpha = 0 makes the second right-hand term vanish exactly
    assert stages(stagnation_history)[1].identity_38_residual < 1e-12


def test_master_identity_random_runs():
    rng = np.random.default_rng(110)
    for trial in range(15):
        n = 20
        x = random_sequence(rng, n, 9, complex_=bool(trial % 2))
        hist = run(x, random_weight(rng, n))
        for st in stages(hist):
            defect = st.identity_38_residual
            assert defect is None or defect < 1e-9


def test_stagnation_flags_demo(demo_history):
    entries = stages(demo_history)
    assert entries[0].stagnation_detected is None
    assert entries[1].stagnation_detected is False
    assert entries[1].mpe_exists is True
    assert entries[1].stagnation_consistent is True


def test_stagnation_flags_fixture(stagnation_history):
    entry = stages(stagnation_history)[1]
    assert entry.stagnation_detected is True
    assert entry.mpe_exists is False
    assert entry.stagnation_consistent is True
    assert entry.identity_315_residual < 1e-12


def test_stagnation_biconditional_random():
    # generic sequences never stagnate and always have alpha != 0
    rng = np.random.default_rng(120)
    for trial in range(25):
        n = int(rng.integers(4, 20))
        count = int(rng.integers(3, min(n + 1, 9)))
        hist = run(random_sequence(rng, n, count), random_weight(rng, n))
        for entry in stages(hist):
            if entry.stagnation_detected is None:
                continue
            assert entry.stagnation_detected is False
            assert entry.mpe_exists is True


def test_stagnation_violation_detected(demo_history):
    # doctor the record so the flags disagree with the theorem
    rec = demo_history.records[1]
    demo_history.records[1] = replace(rec, mpe=replace(rec.mpe, exists=False))
    report = verify_history(demo_history)   # never raises
    assert report.ok is False
    assert report.worst[:2] == ("3-1", 1)
    assert report.stages[1].stagnation_consistent is False


def test_coupling_demo_exact(demo_history):
    entries = stages(demo_history)
    assert entries[0].identity_316_residual is None
    assert entries[0].monotone_355 is None
    entry = entries[1]
    assert entry.identity_316_residual < 1e-12
    assert entry.identity_317_residual < 1e-12
    assert entry.identity_318_residual < 1e-10
    assert entry.monotone_355 is True


def test_coupling_oracle_values():
    """The coupled phi^2 values themselves, frozen from the rational side."""
    xs = ro.demo_iterates(3)
    phi2_r0 = ro.rre_stage(xs, 0)["phi2"]
    phi2_r1 = ro.rre_stage(xs, 1)["phi2"]
    phi2_m1 = ro.mpe_stage(xs, 1)["phi2"]
    assert phi2_r0 == Fraction(13, 16)
    assert phi2_r1 == Fraction(9, 388)
    assert phi2_m1 == Fraction(117, 4900)
    assert 1 / phi2_r1 == 1 / phi2_r0 + 1 / phi2_m1


def test_coupling_skipped_when_mpe_missing(stagnation_history):
    entry = stages(stagnation_history)[1]
    for value in (entry.identity_316_residual, entry.identity_317_residual,
                  entry.identity_318_residual, entry.monotone_355):
        assert value is None


def corollaries(history):
    """(defects of 91, defects of 92, S_k sets) per stage."""
    entries = stages(history)
    return ([st.eq91_defect for st in entries],
            [st.eq92_defect for st in entries],
            [st.s_set for st in entries])


def test_corollaries_demo(demo_history):
    eq91, eq92, s_sets = corollaries(demo_history)
    assert eq92[0] == 0.0 or eq92[0] < 1e-15
    assert eq91[1] < 1e-12
    assert eq92[1] < 1e-12
    assert s_sets[0] == (0,)
    assert s_sets[1] == (0, 1)


def test_corollaries_stagnation_collapse(stagnation_history):
    eq91, eq92, s_sets = corollaries(stagnation_history)
    assert s_sets[1] == (0,)
    # eq (92) collapses to phi_rre(1) = phi_mpe(0)
    assert eq92[1] < 1e-14
    assert eq91[1] is None


def test_corollaries_random():
    rng = np.random.default_rng(130)
    for trial in range(15):
        hist = run(random_sequence(rng, 20, 10), random_weight(rng, 20),
                   k_max=8)
        eq91, eq92, _ = corollaries(hist)
        for value in eq91 + eq92:
            assert value is None or value < 1e-9


def test_verify_history_single_stage():
    # k_max = 0: one stage, nothing to relate and no peak or plateau
    rng = np.random.default_rng(160)
    hist = run(random_sequence(rng, 5, 3), WeightOperator.identity(5),
               k_max=0)
    assert hist.stages == 1
    report = verify_history(hist)
    assert report.ok is True
    assert report.peaks == [] and report.plateaus == []
    assert report.overlap == []
    assert report.stages[0].stagnation_detected is None


def test_peak_plateau_monotone_history(demo_history):
    report = verify_history(demo_history)
    assert report.peaks == []
    assert report.plateaus == []
    assert report.overlap == []


def test_peak_plateau_stagnation(stagnation_history):
    report = verify_history(stagnation_history)
    assert report.plateaus == [(1, 1)]
    assert report.peaks == [(1, 1)]      # undefined counts as peaking
    assert report.overlap == [(1, 1)]


def test_peak_plateau_near_defective():
    problem = make_near_stagnation_problem(6)
    xs = iterate(problem, 8)
    hist = run(np.asarray(xs), WeightOperator.identity(6), k_max=4)
    report = verify_history(hist)
    assert any(lo <= 1 <= hi for lo, hi in report.peaks)
    assert any(lo <= 1 <= hi for lo, hi in report.plateaus)
    assert report.overlap != []
    # the estimate spikes while the reduced-rank one barely moves
    rec = hist.record(1)
    assert rec.mpe.phi > 100.0 * hist.record(0).mpe.phi
    assert rec.rre.phi / hist.record(0).rre.phi > 1.0 - 1e-6


def test_verify_history_demo_ok(demo_history):
    report = verify_history(demo_history)
    assert report.ok is True
    st = report.stages[1]
    for value in (st.identity_38_residual, st.identity_316_residual,
                  st.identity_317_residual, st.identity_318_residual,
                  st.eq91_defect, st.eq92_defect):
        assert value < DEFAULT_THRESHOLDS["3-16"]
    assert st.nonincreasing is True
    assert report.worst[2] < 1e-9


def test_verify_history_stagnation_ok(stagnation_history):
    report = verify_history(stagnation_history)
    assert report.ok is True
    st = report.stages[1]
    assert st.stagnation_detected is True
    assert st.identity_316_residual is None
    assert st.identity_315_residual < 1e-12


def test_verify_history_thresholds_override(demo_history):
    # absurdly tight thresholds turn roundoff into failures
    report = verify_history(demo_history,
                            thresholds={k: 1e-30 for k in DEFAULT_THRESHOLDS})
    assert report.ok is False
    label, k, defect = report.worst
    assert k == 1
    assert defect > 1e-30


def test_verify_history_detects_phi_tampering(demo_history):
    rec = demo_history.records[1]
    demo_history.records[1] = replace(
        rec, rre=replace(rec.rre, phi=rec.rre.phi * 1.5))
    clean = verify_history(demo_history, use_recorded_phi=False)
    assert clean.ok is True              # recomputation ignores the lie
    report = verify_history(demo_history, use_recorded_phi=True)
    assert report.ok is False
    assert report.stages[1].identity_316_residual > 1e-3


@pytest.mark.parametrize("method", ["rre", "mpe"])
def test_verify_history_fails_on_nan_defect(demo_history, method):
    # NaN compares false with every threshold; it must fail, and rank
    # as the worst defect, instead of slipping through
    rec = demo_history.records[1]
    solve = getattr(rec, method)
    s = solve.s.copy()
    s[0] = np.nan
    demo_history.records[1] = replace(rec, **{method: replace(solve, s=s)})
    report = verify_history(demo_history)
    assert np.isnan(report.stages[1].identity_318_residual)
    assert report.ok is False
    label, k, defect = report.worst
    assert (label, k) == ("3-18", 1) and np.isnan(defect)


def test_verify_history_random_linear_problems():
    rng = np.random.default_rng(140)
    for trial in range(10):
        n = 12
        problem = random_linear_problem(rng, n)
        xs = iterate(problem, 9)
        hist = run(np.asarray(xs), random_weight(rng, n), k_max=6)
        report = verify_history(hist)
        assert report.ok, report.worst


def test_report_to_dict_keys(demo_history):
    doc = verify_history(demo_history).to_dict()
    assert doc["ok"] is True
    stage1 = doc["stages"][1]
    for key in ("defect_3_8", "defect_3_16", "defect_3_17", "defect_3_18",
                "defect_91", "defect_92", "monotone_3_55"):
        assert key in stage1
    assert doc["thresholds"]["3-16"] == DEFAULT_THRESHOLDS["3-16"]


def test_weighted_failure_sequence_relations():
    # the failure construction respects arbitrary weights
    rng = np.random.default_rng(150)
    for trial in range(8):
        n = int(rng.integers(3, 9))
        w = random_weight(rng, n)
        seq = make_mpe_failure_sequence(n, w)
        hist = run(np.asarray(seq), w)
        entry = stages(hist)[1]
        assert entry.stagnation_detected is True
        assert entry.mpe_exists is False
        assert entry.stagnation_consistent is True
        dist = w.norm(hist.record(1).rre.s - hist.record(0).rre.s)
        assert dist <= 1e-12
