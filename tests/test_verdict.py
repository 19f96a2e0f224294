"""The verdict of verify_history against a per-stage reference.

``verify_history`` judges its stage columns as one array of
threshold-relative defects.  The reference below judges the same
report the long way, one StageRelations object at a time: a list of
(ratio, label, stage, defect) failures in stage order, a stable sort
for each label's worst stage, ``max`` for the worst one, and a loop
over the records for peaks and plateaus.  Both must agree on every
field and on the report's JSON, over seeded histories that include
ill-conditioned runs, edge runs, tampered estimates and failing flags.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from wextrap import (
    FixedPointProblem,
    WeightOperator,
    iterate,
    quadratic_problem,
    run,
    verify_history,
)
from wextrap.relations import (
    CATALOG,
    DEFAULT_THRESHOLDS,
    MONOTONE_SLACK,
    PLATEAU_TOL,
)

from adversarial import make_mpe_failure_sequence, make_near_stagnation_problem
from conftest import random_linear_problem, random_sequence, random_weight


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


def reference_verdict(history, report) -> dict:
    """ok, worst, violations, peaks, plateaus and overlap, judged one
    stage at a time from ``report.stages`` and the records."""
    inf = float("inf")
    failures = []  # (threshold-relative defect, label, k, defect)
    for st in report.stages:
        if st.stagnation_consistent is False:
            failures.append((inf, "3-1", st.k, inf))
        if st.nonincreasing is False:
            failures.append((inf, "3-55", st.k, inf))
        if st.monotone_355 is False:
            failures.append((inf, "3-55", st.k, inf))
        for row in CATALOG:
            defect = getattr(st, row.field)
            if defect is not None:
                ratio = defect / report.thresholds[row.label]
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

    violations = {}
    for ratio, label, k, defect in sorted(failures, key=lambda f: f[0],
                                          reverse=True):
        if ratio > 1.0:
            violations.setdefault(label, (k, defect))
    worst = None
    if failures:
        ratio, label, k, defect = max(failures, key=lambda f: f[0])
        worst = (label, k, defect)
    return {"ok": not violations, "worst": worst, "violations": violations,
            "peaks": _true_ranges(peak), "plateaus": _true_ranges(plateau),
            "overlap": _true_ranges(both)}


def reference_dict(report) -> dict:
    """The report's JSON document, with every stage key listed."""
    return {
        "ok": report.ok,
        "worst": None if report.worst is None else {
            "identity": report.worst[0], "k": report.worst[1],
            "defect": report.worst[2]},
        "thresholds": dict(report.thresholds),
        "peaks": [list(r) for r in report.peaks],
        "plateaus": [list(r) for r in report.plateaus],
        "overlap": [list(r) for r in report.overlap],
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
            for st in report.stages
        ],
    }


def linear_run(t, d, weight, k):
    x0 = np.zeros(t.shape[0])
    xs = np.asarray(iterate(FixedPointProblem.linear(t, d, x0), k + 1))
    return run(xs, weight, k_max=k)


def reproduction_a():
    rng = np.random.default_rng(0)
    t = np.diag(0.95 * rng.uniform(0.1, 1.0, 200))
    return linear_run(t, rng.standard_normal(200),
                      WeightOperator.identity(200), 20)


def near_stagnation(eps):
    problem = make_near_stagnation_problem(6, eps=eps)
    return linear_run(problem.t, problem.d, WeightOperator.identity(6), 4)


def reproduction_e():
    xs = np.asarray(iterate(quadratic_problem(50), 12))
    return run(xs, WeightOperator.identity(50), k_max=11)


def workload(n, k, dense, seed):
    # the benchmark workloads' shape: T = Q B Q^T, B of 2 x 2 blocks that
    # rotate by U(0, pi) and scale by 0.98, from x0 = 0
    rng = np.random.default_rng([seed, n, k])
    theta = rng.uniform(0.0, np.pi, n // 2)
    b = np.zeros((n, n))
    for j, (c, s) in enumerate(zip(np.cos(theta), np.sin(theta))):
        b[2 * j:2 * j + 2, 2 * j:2 * j + 2] = 0.98 * np.array([[c, -s],
                                                               [s, c]])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = rng.standard_normal(n)
    weight = WeightOperator.identity(n)
    if dense:
        a = rng.standard_normal((n, n))
        weight = WeightOperator.dense(a @ a.T / n + np.eye(n))
    return linear_run(q @ b @ q.T, d, weight, k)


def random_run(seed, complex_):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    xs = random_sequence(rng, n, int(rng.integers(2, n + 3)), complex_)
    return run(xs, random_weight(rng, n))


def random_linear_run(seed, k=6):
    rng = np.random.default_rng(seed)
    w = random_weight(rng, 8)
    return run(np.asarray(iterate(random_linear_problem(rng, 8), k + 1)), w)


def demo_run(k_max=None):
    # T = diag(0.5, 0.25): the run converges at stage 2
    problem = FixedPointProblem.linear(np.diag([0.5, 0.25]),
                                       np.array([0.5, 0.75]), np.zeros(2))
    return run(np.asarray(iterate(problem, 6)), WeightOperator.identity(2),
               k_max=k_max)


def tampered(history, stage, method, **values):
    rec = history.records[stage]
    solve = getattr(rec, method)
    history.records[stage] = replace(rec, **{method: replace(solve, **values)})
    return history


def scaled_phi(history, stage, method, factor):
    phi = getattr(history.records[stage], method).phi
    return tampered(history, stage, method, phi=phi * factor)


def poisoned_s(history, stage, method):
    s = getattr(history.records[stage], method).s.copy()
    s[0] = np.nan
    return tampered(history, stage, method, s=s)


def mpe_declared_missing(history, *stages):
    for stage in stages:
        tampered(history, stage, "mpe", exists=False, phi=None, gamma=None,
                 s=None)
    return history


def flags_at_two_stages():
    # 3-1 fails at stages 2 and 4, where RRE progresses, and with the
    # recorded phi 3-55 fails at stage 2 too, where phi_rre rises
    history = mpe_declared_missing(random_linear_run(10), 2, 4)
    return scaled_phi(history, 2, "rre", 3.0)


def phi_rises_at_two_stages():
    history = scaled_phi(random_linear_run(11), 2, "rre", 3.0)
    return scaled_phi(history, 4, "rre", 3.0)


def phi_at_the_monotone_slack():
    # phi_rre(2) = phi_rre(1) (1 + MONOTONE_SLACK): nonincreasing, yet no
    # strict decrease, so 3-55 fails on its strict half alone
    history = random_linear_run(13)
    phi = history.records[1].rre.phi * (1.0 + MONOTONE_SLACK)
    return tampered(history, 2, "rre", phi=phi)


E1 = np.array([1.0, 0.0, 0.0])

#: name: a function building the history to judge
HISTORIES = {
    "reproduction_a": reproduction_a,
    "reproduction_c": lambda: near_stagnation(1e-5),
    "near_stagnation_1e-13": lambda: near_stagnation(1e-13),
    "reproduction_e": reproduction_e,
    **{f"dense_weight_{seed}": (lambda seed=seed: workload(24, 6, True, seed))
       for seed in (1, 2)},
    **{f"deep_identity_{seed}": (lambda seed=seed: workload(20, 8, False,
                                                            seed))
       for seed in (1, 2)},
    **{f"random_real_{seed}": (lambda seed=seed: random_run(seed, False))
       for seed in range(6)},
    **{f"random_complex_{seed}": (lambda seed=seed: random_run(seed, True))
       for seed in range(6)},
    **{f"random_linear_{seed}": (lambda seed=seed: random_linear_run(seed))
       for seed in range(4)},
    "converged": demo_run,
    "demo_k_max_2": lambda: demo_run(2),
    "rank_deficient": lambda: run(np.array([0 * E1, E1, 2 * E1]),
                                  WeightOperator.identity(3)),
    "terminal_only": lambda: run(np.zeros((2, 3)),
                                 WeightOperator.identity(3)),
    "stagnation": lambda: run(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                        [2.0, 1.0, 0.0]]),
                              WeightOperator.identity(3)),
    "mpe_failure": lambda: run(np.asarray(make_mpe_failure_sequence(
        5, WeightOperator.identity(5))), WeightOperator.identity(5)),
    "rre_phi_x1.5": lambda: scaled_phi(random_linear_run(7), 2, "rre", 1.5),
    "mpe_phi_x1.5": lambda: scaled_phi(random_linear_run(7), 3, "mpe", 1.5),
    "rre_phi_1e-170": lambda: tampered(random_linear_run(8), 1, "rre",
                                       phi=1e-170),
    "rre_phi_1e170": lambda: tampered(random_linear_run(8), 3, "rre",
                                      phi=1e170),
    "mpe_phi_1e-170": lambda: tampered(random_linear_run(8), 2, "mpe",
                                       phi=1e-170),
    "nan_rre_s": lambda: poisoned_s(random_linear_run(9), 2, "rre"),
    "nan_mpe_s": lambda: poisoned_s(random_linear_run(9), 3, "mpe"),
    "flags_at_two_stages": flags_at_two_stages,
    "mpe_missing_at_stage_0": lambda: mpe_declared_missing(
        random_linear_run(12), 0),
    "phi_at_the_monotone_slack": phi_at_the_monotone_slack,
    "phi_rises_at_two_stages": phi_rises_at_two_stages,
}

THRESHOLDS = {
    "default": None,
    "tight": {label: 1e-30 for label in DEFAULT_THRESHOLDS},
    "infinite": {label: float("inf") for label in DEFAULT_THRESHOLDS},
}


@pytest.mark.parametrize("thresholds", sorted(THRESHOLDS))
@pytest.mark.parametrize("use_recorded_phi", [False, True])
@pytest.mark.parametrize("name", sorted(HISTORIES))
def test_verdict_matches_the_per_stage_reference(name, use_recorded_phi,
                                                 thresholds):
    history = HISTORIES[name]()
    report = verify_history(history, use_recorded_phi=use_recorded_phi,
                            thresholds=THRESHOLDS[thresholds])
    expected = reference_verdict(history, report)
    # json.dumps compares NaN defects as equal, and (k, defect) tuples
    # as the lists the report's JSON holds
    assert report.ok is expected["ok"]
    assert json.dumps(report.worst) == json.dumps(expected["worst"])
    assert json.dumps(report.violations, sort_keys=True) == json.dumps(
        expected["violations"], sort_keys=True)
    for key in ("peaks", "plateaus", "overlap"):
        assert getattr(report, key) == expected[key], key
    assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
        reference_dict(report), sort_keys=True)


def test_flags_tie_break_in_stage_order():
    # the first failing stage is each flag's violation and the worst;
    # at that stage 3-1 comes before 3-55, and both before every
    # catalog row's defect
    report = verify_history(flags_at_two_stages(), use_recorded_phi=True,
                            thresholds=THRESHOLDS["tight"])
    assert report.stages[4].stagnation_consistent is False
    assert report.violations["3-1"] == (2, float("inf"))
    assert report.violations["3-55"] == (2, float("inf"))
    assert report.worst == ("3-1", 2, float("inf"))


def test_flag_precedes_an_infinite_catalog_defect_at_its_stage():
    # a recorded phi_rre that rises fails 3-55 and makes 91 infinite at
    # the same stage; the flag is the worst, at the first such stage
    report = verify_history(phi_rises_at_two_stages(), use_recorded_phi=True)
    assert report.stages[2].eq91_defect == float("inf")
    assert report.violations["3-55"] == (2, float("inf"))
    assert report.violations["91"] == (2, float("inf"))
    assert report.worst == ("3-55", 2, float("inf"))


def test_a_defect_at_its_threshold_passes():
    # a ratio of exactly 1 is no violation, in the reference as here
    history = random_linear_run(3)
    report = verify_history(history, thresholds=THRESHOLDS["tight"])
    at = {label: defect for label, (k, defect) in report.violations.items()
          if label in DEFAULT_THRESHOLDS and defect > 0.0}
    assert len(at) >= 4
    report = verify_history(history, thresholds=at)
    assert report.ok and report.violations == {}
    assert reference_verdict(history, report)["violations"] == {}
    assert report.worst[2] == at[report.worst[0]]
