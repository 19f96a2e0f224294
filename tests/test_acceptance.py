"""Acceptance battery: one test per published claim of the toolkit.

Each test guards one numbered criterion and records a PASS/FAIL line
that the conftest terminal-summary hook prints after the run.  The
random batteries are seeded, so every verdict is reproducible.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rational_oracle as oracle
from adversarial import make_mpe_failure_problem, make_mpe_failure_sequence
from cgs_reference import gs_factorize
from conftest import (
    ACCEPTANCE_RESULTS,
    random_contraction,
    random_pd_matrix,
    random_weight,
)
from wextrap import (
    WeightOperator,
    cli,
    equivalence_check,
    mgs_factorize,
    run,
    verify_history,
    write_matrix,
    write_vector,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append(f"criterion {number} ({label}): FAIL")
        raise
    ACCEPTANCE_RESULTS.append(f"criterion {number} ({label}): PASS")


@pytest.fixture(scope="module")
def random_runs():
    """200 random sequences (N=20, k <= 8) with per-trial PD weights.

    Shared by the residual-formula, existence, identity, and corollary
    criteria, which all quantify over the same ensemble.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    runs = []
    for trial in range(200):
        k = int(rng.integers(1, 9))
        x = rng.standard_normal((k + 2, 20))
        if trial % 2:
            x = x + 1j * rng.standard_normal(x.shape)
        weight = WeightOperator.dense(random_pd_matrix(rng, 20,
                                                       complex_=bool(trial % 2)))
        runs.append((x, weight, run(x, weight)))
    return {"runs": runs, "build_seconds": time.perf_counter() - t0}


def test_criterion_1_residual_formulas(random_runs):
    with criterion(1, "residual-norm formulas"):
        t0 = time.perf_counter()
        for x, weight, hist in random_runs["runs"]:
            u = np.diff(x, axis=0).T
            for rec in hist.records:
                cols = u[:, :rec.k + 1]
                direct = weight.norm(cols @ rec.rre.gamma)
                assert abs(rec.rre.phi - direct) <= 1e-10 * direct
                assert rec.mpe.exists
                direct = weight.norm(cols @ rec.mpe.gamma)
                assert abs(rec.mpe.phi - direct) <= 1e-10 * direct
        elapsed = random_runs["build_seconds"] + time.perf_counter() - t0
        assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"


def test_criterion_2_existence_stagnation_biconditional(random_runs):
    with criterion(2, "existence/stagnation biconditional"):
        # constructed failure fixture: nonexistence with exact stagnation
        rng = np.random.default_rng(31)
        for w in [WeightOperator.identity(6), random_weight(rng, 6, "diag"),
                  random_weight(rng, 6, "dense")]:
            x = np.asarray(make_mpe_failure_sequence(6, w))
            hist = run(x, w)
            rec = hist.record(1)
            assert rec.mpe.exists is False
            gap = w.norm(rec.rre.s - hist.record(0).rre.s)
            assert gap <= 1e-12
            report = verify_history(hist)
            assert report.stages[1].stagnation_detected is True
            assert report.stages[1].stagnation_consistent is True

        # random ensemble: existence everywhere, never a stagnation flag
        for x, weight, hist in random_runs["runs"]:
            report = verify_history(hist)
            for st in report.stages:
                assert st.mpe_exists is True
                if st.stagnation_detected is not None:
                    assert st.stagnation_detected is False
                    assert st.stagnation_consistent is True


def test_criterion_3_coupling_identities(random_runs):
    with criterion(3, "residual coupling identities"):
        for x, weight, hist in random_runs["runs"]:
            report = verify_history(hist)
            for st in report.stages:
                for defect in (st.identity_316_residual,
                               st.identity_317_residual,
                               st.identity_318_residual):
                    if defect is not None:
                        assert defect <= 1e-9
            phis = [rec.rre.phi for rec in hist.records]
            exists = [rec.mpe.exists for rec in hist.records]
            for k in range(1, len(phis)):
                assert phis[k] <= phis[k - 1]
                if exists[k]:
                    assert phis[k] < phis[k - 1]


def test_criterion_4_linear_demo_closed_forms():
    with criterion(4, "linear demo closed forms"):
        xs = oracle.demo_iterates(3)
        m1 = oracle.mpe_stage(xs, 1)
        r1 = oracle.rre_stage(xs, 1)
        # the oracle works in exact rationals; freeze its outputs
        assert m1["gamma"] == [F(-17, 35), F(52, 35)]
        assert m1["s"] == [F(26, 35), F(39, 35)]
        assert r1["gamma"] == [F(-43, 97), F(140, 97)]
        assert r1["s"] == [F(70, 97), F(105, 97)]

        t = np.diag([0.5, 0.25])
        d = np.array([0.5, 0.75])
        x = np.asarray(iterate_linear(t, d, np.zeros(2), 2))
        hist = run(x, WeightOperator.identity(2), k_max=1)
        rec = hist.record(1)
        assert_allclose(rec.mpe.gamma, oracle.as_float(m1["gamma"]),
                        rtol=0, atol=1e-12)
        assert_allclose(rec.mpe.s, oracle.as_float(m1["s"]),
                        rtol=0, atol=1e-12)
        assert_allclose(rec.rre.gamma, oracle.as_float(r1["gamma"]),
                        rtol=0, atol=1e-12)
        assert_allclose(rec.rre.s, oracle.as_float(r1["s"]),
                        rtol=0, atol=1e-12)


def iterate_linear(t, d, x0, m):
    out = [np.asarray(x0, dtype=complex)]
    for _ in range(m):
        out.append(t @ out[-1] + d)
    return np.array(out)


def test_criterion_5_terminal_stage_exactness():
    with criterion(5, "finite termination at k0"):
        t = np.diag([0.5, 0.25])
        d = np.array([0.5, 0.75])
        x = iterate_linear(t, d, np.zeros(2), 4)
        hist = run(x, WeightOperator.identity(2))
        assert hist.detected_k0 == 2
        rec = hist.record(2)
        assert_allclose(rec.mpe.s, [1.0, 1.0], rtol=0, atol=1e-12)
        assert_allclose(rec.rre.s, [1.0, 1.0], rtol=0, atol=1e-12)

        rng = np.random.default_rng(55)
        w = WeightOperator.identity(15)
        for trial in range(50):
            t = random_contraction(rng, 15)
            d = rng.standard_normal(15) + 1j * rng.standard_normal(15)
            solution = np.linalg.solve(np.eye(15) - t, d)
            x = iterate_linear(t, d, np.zeros(15), 17)
            hist = run(x, w)
            # distinct eigenvalues and a generic u0: the minimal
            # polynomial has full degree, so detection must hit N
            assert hist.detected_k0 == 15
            rec = hist.records[-1]
            assert rec.terminal
            scale = np.linalg.norm(solution)
            assert np.linalg.norm(rec.mpe.s - solution) <= 1e-8 * scale
            assert np.linalg.norm(rec.rre.s - solution) <= 1e-8 * scale


def test_criterion_6_solver_extrapolation_equivalence():
    with criterion(6, "FOM/GMR vs MPE/RRE equivalence"):
        rng = np.random.default_rng(66)
        for trial in range(50):
            t = random_contraction(rng, 30)
            d = rng.standard_normal(30) + 1j * rng.standard_normal(30)
            x0 = rng.standard_normal(30)
            for weight in [WeightOperator.identity(30),
                           WeightOperator.dense(random_pd_matrix(rng, 30))]:
                cmp = equivalence_check(t, d, x0, weight, k_max=6)
                assert all(cmp.definedness_consistent)
                for fom, gmr in zip(cmp.fom_mpe_defect, cmp.gmr_rre_defect):
                    if fom is not None:
                        assert fom <= 1e-8
                    if gmr is not None:
                        assert gmr <= 1e-8

        # mapped failure fixture: solver and extrapolant fail together
        problem = make_mpe_failure_problem(8)
        cmp = equivalence_check(problem.t, problem.d, problem.x0,
                                WeightOperator.identity(8), k_max=1)
        assert cmp.fom_defined[1] is False
        assert cmp.mpe_exists[1] is False
        assert all(cmp.definedness_consistent)


def test_criterion_7_weighted_qr_battery():
    with criterion(7, "weighted QR battery"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(77)
        for trial in range(500):
            m = int(rng.integers(2, 25))
            k = int(rng.integers(1, min(m, 8) + 1))
            a = rng.standard_normal((m, k))
            if trial % 3 == 0:
                a = a + 1j * rng.standard_normal((m, k))
            weight = random_weight(rng, m)
            f = mgs_factorize(a, weight)

            assert f.orthonormality_defect() <= 1e-10
            recon = np.linalg.norm(f.q @ f.r - a)
            assert recon <= 1e-12 * np.linalg.norm(a)

            g = gs_factorize(a, weight)
            scale = np.linalg.norm(f.q)
            assert np.linalg.norm(g.q - f.q) <= 1e-8 * scale
            assert np.linalg.norm(g.r - f.r) <= 1e-8 * np.linalg.norm(f.r)

            if weight.kind == "identity":
                qr_q, qr_r = np.linalg.qr(a)
                # rotate the reference factor onto our positive-diagonal
                # convention before comparing
                diag = np.diag(qr_r)
                phases = diag / np.abs(diag)
                assert np.linalg.norm(qr_q * phases - f.q) <= 1e-10 * scale

            # incremental: the factors of every leading column block are
            # the leading block of the factors
            for j in range(1, k):
                inc = mgs_factorize(a[:, :j], weight)
                assert np.linalg.norm(inc.q - f.q[:, :j]) <= 1e-12 * scale
                assert np.linalg.norm(inc.r - f.r[:j, :j]) \
                    <= 1e-12 * np.linalg.norm(f.r)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"criterion 7 took {elapsed:.2f}s"


def test_criterion_8_corollaries(random_runs):
    with criterion(8, "corollaries (91)/(92)"):
        for x, weight, hist in random_runs["runs"]:
            report = verify_history(hist)
            for st in report.stages:
                if st.eq91_defect is not None:
                    assert st.eq91_defect <= 1e-9
                if st.eq92_defect is not None:
                    assert st.eq92_defect <= 1e-9

        # stagnation collapse: the convex combination degenerates
        x = np.asarray(make_mpe_failure_sequence(4))
        report = verify_history(run(x, WeightOperator.identity(4)))
        st = report.stages[1]
        assert st.s_set == (0,)
        assert st.eq91_defect is None
        assert st.eq92_defect <= 1e-14


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "CLI byte determinism"):
        rng = np.random.default_rng(99)
        t_path = tmp_path / "T.mtx"
        d_path = tmp_path / "d.vec"
        write_matrix(t_path, random_contraction(rng, 6))
        write_vector(d_path, rng.standard_normal(6))
        args = ["accelerate", "--linear", str(t_path), str(d_path),
                "--k-max", "3"]
        out1, out2 = tmp_path / "one.json", tmp_path / "two.json"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        blob1, blob2 = out1.read_bytes(), out2.read_bytes()
        assert blob1 == blob2
        assert json.loads(blob1)["format"] == "wextrap-history"
