"""End-to-end checks of the command-line front end.

Everything runs in-process through cli.main so exit codes and printed
output are asserted directly.  One final test makes sure the packaging
wires up: it runs the entry point that pyproject.toml declares under
[project.scripts], and ``python -m wextrap``, each in a fresh
interpreter on this source tree, without needing an installed
``wextrap`` executable.
"""

import base64
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import wextrap
from wextrap import cli, extrapolate
from wextrap.krylov import equivalence_check
from wextrap.mmio import (
    read_matrix,
    read_vector,
    write_matrix,
    write_sequence,
    write_vector,
)
from wextrap.problems import BUILTIN_MAPS
from wextrap.relations import CATALOG

from adversarial import make_mpe_failure_sequence, make_near_stagnation_problem
from conftest import random_contraction, random_pd_matrix


def demo_files(tmp_path):
    t_path = tmp_path / "T.mtx"
    d_path = tmp_path / "d.vec"
    write_matrix(t_path, np.diag([0.5, 0.25]))
    write_vector(d_path, np.array([0.5, 0.75]))
    return str(t_path), str(d_path)


def big_files(tmp_path, n=10, seed=7):
    rng = np.random.default_rng(seed)
    t = random_contraction(rng, n)
    d = rng.standard_normal(n)
    t_path = tmp_path / "T10.mtx"
    d_path = tmp_path / "d10.vec"
    write_matrix(t_path, t)
    write_vector(d_path, d)
    return str(t_path), str(d_path)


DATA = Path(__file__).parent / "data"


def test_committed_matrix_market_inputs_run_and_verify(tmp_path, capsys):
    # the inputs CI also runs: a comment line inside T's body, and M in
    # symmetric storage
    m = read_matrix(DATA / "M.mtx")
    assert np.array_equal(m, m.T) and np.linalg.eigvalsh(m).min() > 0
    out = tmp_path / "hist.json"
    assert cli.main(["accelerate", "--linear", str(DATA / "T.mtx"),
                     str(DATA / "d.vec"), "--weight",
                     f"dense:{DATA / 'M.mtx'}", "--k-max", "6",
                     "--out", str(out)]) == 0
    assert cli.main(["verify-relations", "--history", str(out)]) == 0
    assert json.loads(out.read_text())["weight"]["kind"] == "dense"


def complex_problem_files(tmp_path):
    """T = 0.5 diag(exp(i theta_j)) with distinct angles, a complex d and
    a complex hermitian positive definite M: a complex-field problem."""
    rng = np.random.default_rng(12)
    n = 6
    paths = [tmp_path / name for name in ("Tc.mtx", "dc.vec", "Mc.mtx")]
    write_matrix(paths[0], 0.5 * np.diag(np.exp(1j * np.linspace(0.3, 2.8, n))))
    write_vector(paths[1], rng.standard_normal(n) + 1j * rng.standard_normal(n))
    write_matrix(paths[2], random_pd_matrix(rng, n))
    return [str(p) for p in paths]


@pytest.mark.parametrize("case", ["real", "real_float64", "complex"])
def test_cli_history_matches_library_bytes(tmp_path, case):
    # the CLI reads complex arrays of real values where a library caller
    # may hold float64 ones; both decide the field by values, so both
    # compute in the same field and write the same bytes
    if case == "complex":
        t_path, d_path, m_path = complex_problem_files(tmp_path)
    else:
        t_path, d_path, m_path = (str(DATA / name)
                                  for name in ("T.mtx", "d.vec", "M.mtx"))
    t, d, m = read_matrix(t_path), read_vector(d_path), read_matrix(m_path)
    if case == "real_float64":
        t, d, m = t.real.copy(), d.real.copy(), m.real.copy()
    # as cli._resolve_problem builds it: x0 zero, k_max + 1 iterates
    x0 = np.zeros(t.shape[0], dtype=t.dtype)
    hist = wextrap.run(wextrap.iterate(wextrap.FixedPointProblem.linear(
        t, d, x0), 7), wextrap.WeightOperator.dense(m), k_max=6)
    assert hist.factors.q.dtype == (complex if case == "complex" else float)
    library, out = tmp_path / "library.json", tmp_path / "cli.json"
    wextrap.save_history(hist, library)
    assert cli.main(["accelerate", "--linear", t_path, d_path, "--weight",
                     f"dense:{m_path}", "--k-max", "6",
                     "--out", str(out)]) == 0
    assert out.read_bytes() == library.read_bytes()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("line", [3, 4], ids=["diag", "offdiag"])
def test_nonfinite_dense_weight_exit_2(tmp_path, capsys, line, value):
    # body line 3 of the symmetric M.mtx is M[0, 0], line 4 is M[1, 0]
    lines = (DATA / "M.mtx").read_text().splitlines()
    lines[line] = value
    m_path = tmp_path / "M.mtx"
    m_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "hist.json"
    assert cli.main(["accelerate", "--linear", str(DATA / "T.mtx"),
                     str(DATA / "d.vec"), "--weight", f"dense:{m_path}",
                     "--k-max", "6", "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


# -- accelerate -------------------------------------------------------

def test_accelerate_writes_requested_stage_count(tmp_path, capsys):
    t_path, d_path = big_files(tmp_path)
    out = tmp_path / "hist.json"
    rc = cli.main(["accelerate", "--linear", t_path, d_path,
                   "--k-max", "4", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["records"]) == 5
    assert [r["k"] for r in doc["records"]] == [0, 1, 2, 3, 4]
    lines = capsys.readouterr().out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("k=")) == 5
    assert any(ln.startswith("status: completed") for ln in lines)


def test_accelerate_marks_stagnation_and_missing_mpe(tmp_path, capsys):
    seq = tmp_path / "stag.txt"
    write_sequence(seq, np.asarray(make_mpe_failure_sequence(3)))
    rc = cli.main(["accelerate", "--sequence", str(seq),
                   "--out", str(tmp_path / "h.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "MPE: —" in out
    assert "(stagnated)" in out


def test_accelerate_demo_hits_terminal_stage(tmp_path, capsys):
    t_path, d_path = demo_files(tmp_path)
    rc = cli.main(["accelerate", "--linear", t_path, d_path, "--iters", "6",
                   "--out", str(tmp_path / "h.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "(terminal)" in out
    assert "status: rank_deficient (k0 = 2)" in out


@pytest.mark.parametrize("value", ["both", "mpe", "rre"])
def test_accelerate_has_no_methods_option(tmp_path, capsys, value):
    # the table always shows both methods; the option that chose one is
    # gone, and argparse rejects it with its usage exit code
    t_path, d_path = demo_files(tmp_path)
    out = tmp_path / "h.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["accelerate", "--linear", t_path, d_path,
                  "--methods", value, "--out", str(out)])
    assert exc.value.code == 2
    assert "--methods" in capsys.readouterr().err
    assert not out.exists()


def test_history_json_is_byte_reproducible(tmp_path):
    t_path, d_path = big_files(tmp_path)
    args = ["accelerate", "--linear", t_path, d_path, "--k-max", "3"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_accelerate_csv_matches_history(tmp_path):
    t_path, d_path = big_files(tmp_path)
    out = tmp_path / "h.json"
    csv_path = tmp_path / "h.csv"
    rc = cli.main(["accelerate", "--linear", t_path, d_path, "--k-max", "3",
                   "--out", str(out), "--csv", str(csv_path)])
    assert rc == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "phi_mpe", "phi_rre"]
    doc = json.loads(out.read_text())
    assert len(rows) - 1 == len(doc["records"])
    for row, rec in zip(rows[1:], doc["records"]):
        assert int(row[0]) == rec["k"]
        assert float(row[2]) == rec["rre"]["phi"]


def test_accelerate_csv_reads_the_records(tmp_path):
    # MPE does not exist at stage 1: its cell is empty exactly there, and
    # every other cell is repr of the recorded phi
    seq = tmp_path / "stag.txt"
    write_sequence(seq, np.asarray(make_mpe_failure_sequence(3)))
    out, csv_path = tmp_path / "h.json", tmp_path / "h.csv"
    assert cli.main(["accelerate", "--sequence", str(seq), "--out", str(out),
                     "--csv", str(csv_path)]) == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    records = json.loads(out.read_text())["records"]
    assert [rec["mpe"]["exists"] for rec in records] == [True, False]
    assert rows == [["k", "phi_mpe", "phi_rre"]] + [
        [str(rec["k"]),
         repr(rec["mpe"]["phi"]) if rec["mpe"]["exists"] else "",
         repr(rec["rre"]["phi"])] for rec in records]


# -- verify-relations -------------------------------------------------

def test_verify_fresh_run_passes(tmp_path, capsys):
    t_path, d_path = demo_files(tmp_path)
    rc = cli.main(["verify-relations", "--linear", t_path, d_path,
                   "--iters", "6"])
    assert rc == 0
    assert "all relation checks passed" in capsys.readouterr().out


def test_verify_detects_tampered_phi(tmp_path, capsys):
    t_path, d_path = big_files(tmp_path)
    out = tmp_path / "h.json"
    assert cli.main(["accelerate", "--linear", t_path, d_path,
                     "--k-max", "4", "--out", str(out)]) == 0

    doc = json.loads(out.read_text())
    doc["records"][2]["rre"]["phi"] *= 1.05
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc, sort_keys=True, indent=2))

    rc = cli.main(["verify-relations", "--history", str(tampered)])
    assert rc == 1
    err_lines = capsys.readouterr().err.splitlines()
    fails = [ln for ln in err_lines if ln.startswith("FAIL")]
    assert fails, "expected FAIL diagnostics on stderr"
    # catalog order puts the naming identity first
    assert "(3-16)" in fails[0]


@pytest.mark.parametrize("phi", [1e-170, 1e170])
def test_verify_phi_out_of_float_range_exit_1(tmp_path, capsys, phi):
    # phi^2 underflows or overflows: the edited file still loads, and the
    # verdict is a FAIL line per identity, not a traceback or a warning
    doc = json.loads((DATA / "history_v2.json").read_text())
    doc["records"][1]["rre"]["phi"] = phi
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    rc = cli.main(["verify-relations", "--history", str(edited)])
    assert rc == 1
    fails = [ln for ln in capsys.readouterr().err.splitlines()
             if ln.startswith("FAIL")]
    assert any(ln.startswith("FAIL: identity (3-16) at k=") for ln in fails)
    assert any(ln.startswith("FAIL: identity (3-18) at k=1:")
               for ln in fails)


def _drop_difference_columns(doc):
    # 6 records need 6 difference columns; keep 5 of the 7
    block = doc["differences"]
    a = np.frombuffer(base64.b64decode(block["b64"]), dtype=block["dtype"])
    a = np.ascontiguousarray(a.reshape(block["shape"])[:, :5])
    block.update(shape=list(a.shape),
                 b64=base64.b64encode(a.tobytes()).decode("ascii"))


def _solve(doc, method, k=2):
    return doc["records"][k][method]


def _poison(block, value=float("nan")):
    # set one entry of an array block to a non-finite value
    a = np.frombuffer(base64.b64decode(block["b64"]),
                      dtype=block["dtype"]).copy()
    a[-1] = value
    block.update(b64=base64.b64encode(a.tobytes()).decode("ascii"))


#: edits of the v2 fixture (6 records, N = 5) that leave valid JSON the
#: verifier could not judge
MALFORMED_EDITS = {
    "mpe-phi-null": lambda doc: _solve(doc, "mpe").update(phi=None),
    "mpe-gamma-null": lambda doc: _solve(doc, "mpe").update(gamma=None),
    "mpe-s-null": lambda doc: _solve(doc, "mpe").update(s=None),
    "rre-phi-null": lambda doc: _solve(doc, "rre").update(phi=None),
    "rre-gamma-null": lambda doc: _solve(doc, "rre").update(gamma=None),
    "rre-s-null": lambda doc: _solve(doc, "rre").update(s=None),
    "rre-unflagged-gamma-null":
        lambda doc: _solve(doc, "rre").update(exists=False, gamma=None),
    "terminal-mpe-phi-null":
        lambda doc: _solve(doc, "mpe", k=5).update(phi=None),
    "rre-phi-string": lambda doc: _solve(doc, "rre").update(phi="0.5"),
    "rre-phi-zero": lambda doc: _solve(doc, "rre").update(phi=0.0),
    "rre-phi-negative": lambda doc: _solve(doc, "rre").update(phi=-1.5),
    "mpe-phi-nan":
        lambda doc: _solve(doc, "mpe").update(phi=float("nan")),
    "mpe-phi-inf":
        lambda doc: _solve(doc, "mpe").update(phi=float("inf")),
    "k-renumbered": lambda doc: doc["records"][2].update(k=3),
    "record-dropped": lambda doc: doc["records"].pop(2),
    "early-terminal": lambda doc: doc["records"][2].update(terminal=True),
    "gamma-too-long": lambda doc: _solve(doc, "mpe").update(
        gamma=_solve(doc, "mpe", k=3)["gamma"]),
    "s-wrong-length": lambda doc: _solve(doc, "rre").update(
        s=_solve(doc, "rre", k=3)["gamma"]),
    "too-few-differences": _drop_difference_columns,
    "x0-nan": lambda doc: _poison(doc["x0"]),
    "differences-nan": lambda doc: _poison(doc["differences"]),
    "differences-inf": lambda doc: _poison(doc["differences"], float("inf")),
    "mpe-gamma-nan": lambda doc: _poison(_solve(doc, "mpe")["gamma"]),
    "rre-gamma-nan": lambda doc: _poison(_solve(doc, "rre")["gamma"]),
    "mpe-s-nan": lambda doc: _poison(_solve(doc, "mpe")["s"]),
    "rre-s-nan": lambda doc: _poison(_solve(doc, "rre")["s"]),
    "rre-s-inf": lambda doc: _poison(_solve(doc, "rre")["s"], float("-inf")),
    "k-max-string": lambda doc: doc.update(k_max="abc"),
    "k-max-null": lambda doc: doc.update(k_max=None),
    "detected-k0-string": lambda doc: doc.update(detected_k0="5"),
}


@pytest.mark.parametrize("edit", sorted(MALFORMED_EDITS))
def test_verify_malformed_history_exits_2(tmp_path, capsys, edit):
    # a file the verifier cannot judge is a parse error (2), never a
    # relation defect (1) and never a traceback
    fixture = Path(__file__).parent / "data" / "history_v2.json"
    doc = json.loads(fixture.read_text())
    MALFORMED_EDITS[edit](doc)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify-relations", "--history", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_history_with_an_extra_difference_row_exits_2(tmp_path,
                                                            capsys):
    # a difference block of N + 1 rows is a bad file, as a wrong-length
    # x0 is: exit 2, not the dimension-mismatch code
    fixture = Path(__file__).parent / "data" / "history_v2.json"
    doc = json.loads(fixture.read_text())
    block = doc["differences"]
    u = np.frombuffer(base64.b64decode(block["b64"]), block["dtype"])
    u = np.vstack([u.reshape(block["shape"]), np.ones((1, block["shape"][1]))])
    block.update(shape=list(u.shape),
                 b64=base64.b64encode(u.tobytes()).decode("ascii"))
    path = tmp_path / "extra-row.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify-relations", "--history", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: difference columns of dimension 6, weight of "
        "dimension 5\n")


@pytest.mark.parametrize("rows", ["none", "n"])
def test_verify_history_with_no_records_passes(tmp_path, capsys, rows):
    # a file with no records has no stage to check, whether its
    # differences block is stored as [0, 0] or as [N, 0]
    fixture = Path(__file__).parent / "data" / "history_v2.json"
    doc = json.loads(fixture.read_text())
    n = doc["x0"]["shape"][0] if rows == "n" else 0
    doc.update(records=[], detected_k0=None,
               differences={"dtype": "<f8", "shape": [n, 0], "b64": ""})
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify-relations", "--history", str(path)]) == 0
    assert "all relation checks passed" in capsys.readouterr().out


def test_verify_untampered_history_file_passes(tmp_path, capsys):
    t_path, d_path = big_files(tmp_path)
    out = tmp_path / "h.json"
    assert cli.main(["accelerate", "--linear", t_path, d_path,
                     "--k-max", "4", "--out", str(out)]) == 0
    rc = cli.main(["verify-relations", "--history", str(out)])
    assert rc == 0
    assert "all relation checks passed" in capsys.readouterr().out


def test_verify_report_json(tmp_path, capsys):
    t_path, d_path = demo_files(tmp_path)
    report = tmp_path / "rep.json"
    rc = cli.main(["verify-relations", "--linear", t_path, d_path,
                   "--iters", "6", "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["ok"] is True
    assert {s["k"] for s in doc["stages"]} == {0, 1, 2}
    assert "3-16" in doc["thresholds"]


def test_verify_tight_threshold_fails(tmp_path, capsys):
    t_path, d_path = big_files(tmp_path)
    rc = cli.main(["verify-relations", "--linear", t_path, d_path,
                   "--k-max", "4", "--threshold", "1e-30"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["verify-relations", "--history", str(DATA / "history_v2.json")],
    ["krylov-compare", "--linear", str(DATA / "T.mtx"), str(DATA / "d.vec"),
     "--weight", "dense:" + str(DATA / "M.mtx"), "--k-max", "6"],
], ids=["verify-relations", "krylov-compare"])
def test_threshold_nan_is_a_parse_error(capsys, command):
    # NaN compares false with every defect: krylov-compare would pass
    # whatever the gaps, verify-relations fail every label
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--threshold", "nan"])
    assert exc.value.code == 2
    assert "'nan' is not a positive number" in capsys.readouterr().err
    assert cli.main([*command, "--threshold", "inf"]) == 0


def test_verify_doctored_flags_one_fail_line(tmp_path, capsys):
    # MPE declared missing at stages 2 and 3, where RRE progresses: 3-1
    # fails at both, and is reported once, at its first such stage
    out = tmp_path / "h.json"
    assert cli.main(["accelerate", "--linear", *big_files(tmp_path),
                     "--k-max", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for k in (2, 3):
        doc["records"][k]["mpe"].update(exists=False, phi=None, gamma=None,
                                        s=None)
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = cli.main(["verify-relations", "--history", str(doctored)])
    assert rc == 1
    fails = [ln for ln in capsys.readouterr().err.splitlines()
             if "(3-1)" in ln]
    assert fails == ["FAIL: stagnation/existence mismatch (3-1) at k=2"]


def near_stagnation_files(tmp_path):
    problem = make_near_stagnation_problem(6)
    t_path = tmp_path / "Tns.mtx"
    d_path = tmp_path / "dns.vec"
    write_matrix(t_path, problem.t)
    write_vector(d_path, problem.d)
    return str(t_path), str(d_path)


@pytest.mark.parametrize("row", CATALOG, ids=[row.label for row in CATALOG])
def test_verify_reports_every_catalog_identity(tmp_path, capsys,
                                               monkeypatch, row):
    if row.label == "3-15":
        # 3-15 applies on stagnating stages only; a loose existence
        # tolerance makes the near-stagnating stage 1 (sigma_1 about
        # 1e-4) count, leaving a genuine embedding defect of about 1e-3
        monkeypatch.setattr(extrapolate, "EXIST_TOL", 1e-3)
        args = ["--linear", *near_stagnation_files(tmp_path),
                "--k-max", "3"]
    else:
        args = ["--linear", *big_files(tmp_path), "--k-max", "4"]
    report = tmp_path / "rep.json"
    rc = cli.main(["verify-relations", *args, "--threshold", "1e-30",
                   "--report", str(report)])
    assert rc == 1
    assert f"FAIL: identity ({row.label})" in capsys.readouterr().err
    stages = json.loads(report.read_text())["stages"]
    key = "defect_" + row.label.replace("-", "_")
    assert all(key in st for st in stages)
    assert any(st[key] is not None for st in stages)


# -- krylov-compare ---------------------------------------------------

def test_krylov_compare_linear_ok(tmp_path, capsys):
    t_path, d_path = big_files(tmp_path)
    rc = cli.main(["krylov-compare", "--linear", t_path, d_path,
                   "--k-max", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max defect" in out
    assert out.count("FOM-MPE") == 5  # stages 0..4


def test_krylov_compare_zero_hessenberg_column_exit_0(tmp_path, capsys):
    # T = I: A v_0 = 0, so FOM is not defined at stage 1 and GMR stays
    # at x0, as the extrapolation side stops there
    t_path, d_path = tmp_path / "I.mtx", tmp_path / "ones.vec"
    write_matrix(t_path, np.eye(3))
    write_vector(d_path, np.ones(3))
    rc = cli.main(["krylov-compare", "--linear", str(t_path), str(d_path),
                   "--k-max", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "k=1  FOM-MPE: (not defined)  GMR-RRE: 0.000e+00" in out
    assert "MISMATCH" not in out


def test_krylov_compare_gaps_are_relative(tmp_path, capsys):
    # near stagnation |||s_mpe(1)||| is about 1e7; an absolute FOM-MPE
    # gap of 2e-2 is 2e-9 relative to it, below the 1e-8 threshold
    problem = make_near_stagnation_problem(6, eps=1e-7)
    t_path, d_path = tmp_path / "Tns.mtx", tmp_path / "dns.vec"
    write_matrix(t_path, problem.t)
    write_vector(d_path, problem.d)
    rc = cli.main(["krylov-compare", "--linear", str(t_path), str(d_path),
                   "--k-max", "4"])
    assert rc == 0
    assert "max defect" in capsys.readouterr().out


@pytest.mark.parametrize("edit", [
    lambda cmp: cmp.gmr_rre_defect.__setitem__(2, float("nan")),
    lambda cmp: cmp.definedness_consistent.__setitem__(2, False),
], ids=["nan-gap", "definedness-mismatch"])
def test_krylov_compare_defect_exit_1(tmp_path, capsys, monkeypatch, edit):
    # a NaN gap fails as an infinite one, as does a stage where FOM and
    # MPE disagree on definedness; equivalence_check runs as the CLI
    # calls it, with stage 2 of its result edited
    def doctored(*args):
        cmp = equivalence_check(*args)
        edit(cmp)
        return cmp
    monkeypatch.setattr(cli, "equivalence_check", doctored)
    t_path, d_path = big_files(tmp_path)
    rc = cli.main(["krylov-compare", "--linear", t_path, d_path,
                   "--k-max", "4"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "max defect" not in captured.out
    assert captured.err.splitlines() == [
        "FAIL: worst solver/extrapolation defect inf at or above 1e-08"]


@pytest.mark.parametrize("d", [[0.5, 0.75, 1.0], [0.5]])
def test_krylov_compare_wrong_length_d_exit_3(tmp_path, capsys, d):
    # a longer d cannot be added to T x0 and a length-1 d would
    # broadcast into it; both must be reported before any iterate
    t_path, _ = demo_files(tmp_path)
    d_path = tmp_path / "d_bad.vec"
    write_vector(d_path, np.array(d))
    rc = cli.main(["krylov-compare", "--linear", t_path, str(d_path)])
    assert rc == 3
    assert "dimension" in capsys.readouterr().err


def test_krylov_compare_non_square_t_exit_3(tmp_path, capsys):
    # a 3 x 4 T cannot act on the 3-vectors of d and x0: a dimension
    # error (3), never the defect code 1 or a traceback
    t_path, d_path = tmp_path / "T34.mtx", tmp_path / "d.vec"
    write_matrix(t_path, np.ones((3, 4)))
    write_vector(d_path, np.ones(3))
    rc = cli.main(["krylov-compare", "--linear", str(t_path), str(d_path)])
    assert rc == 3
    assert "T of shape (3, 4)" in capsys.readouterr().err


def test_krylov_compare_rejects_nonlinear_map(capsys):
    rc = cli.main(["krylov-compare", "--map", "cosine"])
    assert rc == 4
    assert "nonlinear" in capsys.readouterr().err


# -- qr ---------------------------------------------------------------

def test_qr_writes_parseable_factors(tmp_path, capsys):
    rng = np.random.default_rng(19)
    a = rng.standard_normal((6, 3))
    a_path = tmp_path / "A.mtx"
    write_matrix(a_path, a)
    q_path, r_path = tmp_path / "Q.mtx", tmp_path / "R.mtx"
    rc = cli.main(["qr", str(a_path), "--check",
                   "--q-out", str(q_path), "--r-out", str(r_path)])
    assert rc == 0
    assert "orthonormality deviation" in capsys.readouterr().out
    q = read_matrix(q_path)
    r = read_matrix(r_path)
    assert_allclose(q @ r, a, atol=1e-12)
    assert_allclose(q.conj().T @ q, np.eye(3), atol=1e-10)
    assert np.allclose(np.tril(r, -1), 0.0)


def test_qr_singular_input_exit_5(tmp_path, capsys):
    # the exception's own message, after the exit-5 prefix
    a = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(wextrap.RankDeficient) as exc:
        wextrap.mgs_factorize(a, wextrap.WeightOperator.identity(3))
    a_path = tmp_path / "S.mtx"
    write_matrix(a_path, a)
    rc = cli.main(["qr", str(a_path)])
    assert rc == 5
    assert capsys.readouterr().err == f"rank deficiency: {exc.value}\n"
    assert "column 1 is numerically dependent" in str(exc.value)


def test_qr_more_columns_than_rows_exit_5(tmp_path, capsys):
    # column N of N-vectors is dependent whatever its residual: the
    # message names it so and quotes no residual or threshold
    a_path = tmp_path / "A23.mtx"
    write_matrix(a_path, np.random.default_rng(23).standard_normal((2, 3)))
    rc = cli.main(["qr", str(a_path)])
    assert rc == 5
    assert capsys.readouterr().err == (
        "rank deficiency: column 2 of 2-vectors is dependent on its "
        "predecessors, whatever its norm\n")


# -- error paths ------------------------------------------------------

def test_missing_input_file_exit_2(tmp_path, capsys):
    rc = cli.main(["accelerate", "--sequence",
                   str(tmp_path / "does-not-exist.txt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_dimension_mismatch_exit_3(tmp_path, capsys):
    t_path, _ = demo_files(tmp_path)
    bad_d = tmp_path / "bad_d.vec"
    write_vector(bad_d, np.array([1.0, 2.0, 3.0]))
    rc = cli.main(["accelerate", "--linear", t_path, str(bad_d)])
    assert rc == 3


@pytest.mark.parametrize("name", sorted(BUILTIN_MAPS))
def test_builtin_map_accelerates_and_verifies(tmp_path, monkeypatch, capsys,
                                              name):
    # the README example, run to completion and verified from its file
    monkeypatch.setenv("WEXTRAP_OUTPUT_DIR", str(tmp_path))
    assert cli.main(["accelerate", "--map", name, "--dim", "8",
                     "--iters", "12"]) == 0
    assert cli.main(["verify-relations", "--history",
                     str(tmp_path / "history.json")]) == 0
    assert "all relation checks passed" in capsys.readouterr().out


def test_map_without_dim_exit_2(capsys):
    rc = cli.main(["accelerate", "--map", "cosine"])
    assert rc == 2
    assert "--dim" in capsys.readouterr().err


def test_bad_weight_spec_exit_2(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    write_sequence(seq, np.arange(8.0).reshape(4, 2))
    rc = cli.main(["accelerate", "--sequence", str(seq),
                   "--weight", "cholesky:w.vec"])
    assert rc == 2
    assert "weight" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["foo:bar", "diag"])
def test_weight_spec_has_one_message(tmp_path, capsys, spec):
    # an unknown kind and a missing file name read the same
    seq = tmp_path / "seq.txt"
    write_sequence(seq, np.arange(8.0).reshape(4, 2))
    rc = cli.main(["accelerate", "--sequence", str(seq), "--weight", spec])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: weight spec {spec!r} not understood; use identity, "
        "diag:<file> or dense:<file>\n")


def test_overflowing_sequence_exit_2(tmp_path, capsys):
    # |||u_0|||^2 leaves the float64 range: a range error (2), never a
    # rank-deficient run that exits 0 and writes a history
    seq, out = tmp_path / "seq.txt", tmp_path / "hist.json"
    write_sequence(seq, np.random.default_rng(8).standard_normal((5, 6))
                   * 2.0**520)
    rc = cli.main(["accelerate", "--sequence", str(seq), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: column 0 has weighted norm inf, outside the float64 range\n")
    assert not out.exists()


def test_krylov_compare_overflowing_d_exit_2(tmp_path, capsys):
    # r_0 = d beyond the float64 range: exit 2, never "max defect 0"
    t_path, d_path = tmp_path / "T.mtx", tmp_path / "d.vec"
    write_matrix(t_path, np.diag([0.5, 0.25, 0.1, 0.2, 0.3, 0.4]))
    write_vector(d_path, np.ones(6) * 2.0**520)
    rc = cli.main(["krylov-compare", "--linear", str(t_path), str(d_path)])
    assert rc == 2
    assert "column 0 has weighted norm inf" in capsys.readouterr().err


# -- weight loading ---------------------------------------------------

def test_diag_weight_vector_and_matrix_forms_agree(tmp_path):
    t_path, d_path = big_files(tmp_path, n=4, seed=11)
    w = np.array([2.0, 0.5, 1.5, 3.0])
    vec_form = tmp_path / "w.vec"
    write_vector(vec_form, w)
    mtx_form = tmp_path / "w.mtx"
    write_matrix(mtx_form, np.diag(w))

    out1, out2 = tmp_path / "h1.json", tmp_path / "h2.json"
    base = ["accelerate", "--linear", t_path, d_path, "--k-max", "2"]
    assert cli.main(base + ["--weight", f"diag:{vec_form}",
                            "--out", str(out1)]) == 0
    assert cli.main(base + ["--weight", f"diag:{mtx_form}",
                            "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["weight"]["kind"] == "diagonal"


@pytest.mark.parametrize("shape", [(1, 4), (4, 1)], ids=["row", "column"])
def test_diag_weight_row_and_column_files_load(tmp_path, shape):
    t_path, d_path = big_files(tmp_path, n=4, seed=11)
    w = np.array([2.0, 0.5, 1.5, 3.0])
    vec_form, mtx_form = tmp_path / "w.vec", tmp_path / "w.mtx"
    write_vector(vec_form, w)
    write_matrix(mtx_form, w.reshape(shape))
    out1, out2 = tmp_path / "h1.json", tmp_path / "h2.json"
    base = ["accelerate", "--linear", t_path, d_path, "--k-max", "2"]
    assert cli.main(base + ["--weight", f"diag:{vec_form}",
                            "--out", str(out1)]) == 0
    assert cli.main(base + ["--weight", f"diag:{mtx_form}",
                            "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_diag_weight_of_a_full_matrix_exit_2(tmp_path, capsys):
    # a diag: weight is its file's diagonal; a full matrix is a dense:
    # weight, never silently cut to diag(M)
    t_path, d_path = big_files(tmp_path, n=5, seed=11)
    m_path = tmp_path / "M.mtx"
    write_matrix(m_path, random_pd_matrix(np.random.default_rng(14), 5,
                                             complex_=False))
    out = tmp_path / "h.json"
    rc = cli.main(["accelerate", "--linear", t_path, d_path,
                   "--weight", f"diag:{m_path}", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {m_path}: nonzero entries off the diagonal; a diag: weight "
        "is a diagonal, use dense:<file> for a full matrix\n")
    assert not out.exists()


def test_complex_diag_weight_exit_2(tmp_path, capsys):
    # a diag: weight file with a non-real entry is rejected, not truncated
    t_path, d_path = demo_files(tmp_path)
    w_path = tmp_path / "w.vec"
    write_vector(w_path, np.array([1.0 + 2.0j, 3.0]))
    out = tmp_path / "h.json"
    rc = cli.main(["accelerate", "--linear", t_path, d_path,
                   "--weight", f"diag:{w_path}", "--out", str(out)])
    assert rc == 2
    assert "diagonal weights must be real" in capsys.readouterr().err
    assert not out.exists()


def test_dense_weight_changes_the_run(tmp_path):
    t_path, d_path = big_files(tmp_path, n=4, seed=12)
    rng = np.random.default_rng(13)
    m = rng.standard_normal((4, 4))
    w_path = tmp_path / "W.mtx"
    write_matrix(w_path, m @ m.T + 2.0 * np.eye(4))
    out1, out2 = tmp_path / "h1.json", tmp_path / "h2.json"
    base = ["accelerate", "--linear", t_path, d_path, "--k-max", "2"]
    assert cli.main(base + ["--out", str(out1)]) == 0
    assert cli.main(base + ["--weight", f"dense:{w_path}",
                            "--out", str(out2)]) == 0
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    assert d2["weight"]["kind"] == "dense"
    assert d1["records"][1]["rre"]["phi"] != d2["records"][1]["rre"]["phi"]


# -- output directory -------------------------------------------------

def test_output_dir_env_var(tmp_path, monkeypatch, capsys):
    outdir = tmp_path / "results"
    outdir.mkdir()
    monkeypatch.setenv("WEXTRAP_OUTPUT_DIR", str(outdir))
    t_path, d_path = demo_files(tmp_path)
    rc = cli.main(["accelerate", "--linear", t_path, d_path, "--iters", "6",
                   "--out", "run.json"])
    assert rc == 0
    assert (outdir / "run.json").exists()
    rc = cli.main(["accelerate", "--linear", t_path, d_path, "--iters", "6"])
    assert rc == 0
    assert (outdir / "history.json").exists()


# -- console script ---------------------------------------------------

def _load_toml(path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(path, "rb") as fh:
        return tomllib.load(fh)


def test_console_script_entry_point(tmp_path):
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = _load_toml(pyproject)["project"].get("scripts", {})
    assert "wextrap" in scripts
    module, _, func = scripts["wextrap"].partition(":")
    # what the wrapper that pip generates from the declaration runs
    launcher = ["-c", f"import sys, {module}; sys.exit({module}.{func}())"]

    a_path = tmp_path / "A.mtx"
    write_matrix(a_path, np.array([[3.0], [4.0]]))
    args = ["qr", str(a_path), "--check",
            "--q-out", str(tmp_path / "Q.mtx"), "--r-out", str(tmp_path / "R.mtx")]
    # a fresh interpreter that imports the wextrap under test
    env = dict(os.environ)
    env.pop("WEXTRAP_OUTPUT_DIR", None)
    src = str(Path(wextrap.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for command in (launcher, ["-m", "wextrap"]):
        proc = subprocess.run([sys.executable, *command, *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0
        assert "orthonormality deviation" in proc.stdout


def test_runtime_is_numpy_only():
    # scipy is a test dependency only: the package must not import it
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    deps = _load_toml(pyproject)["project"]["dependencies"]
    assert [d.split(">")[0].split("=")[0] for d in deps] == ["numpy"]
    env = dict(os.environ)
    src = str(Path(wextrap.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, wextrap.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
