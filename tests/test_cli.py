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
from wextrap import cli
from wextrap.mmio import read_matrix, write_matrix, write_sequence, write_vector
from wextrap.problems import (
    make_mpe_failure_sequence,
    make_near_stagnation_problem,
)
from wextrap.relations import CATALOG

from conftest import random_contraction


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


def _drop_difference_columns(doc):
    # 6 records need 6 difference columns; keep 5 of the 7
    block = doc["differences"]
    a = np.frombuffer(base64.b64decode(block["b64"]), dtype=block["dtype"])
    a = np.ascontiguousarray(a.reshape(block["shape"])[:, :5])
    block.update(shape=list(a.shape),
                 b64=base64.b64encode(a.tobytes()).decode("ascii"))


def _solve(doc, method, k=2):
    return doc["records"][k][method]


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


def near_stagnation_files(tmp_path):
    problem = make_near_stagnation_problem(6)
    t_path = tmp_path / "Tns.mtx"
    d_path = tmp_path / "dns.vec"
    write_matrix(t_path, problem.t)
    write_vector(d_path, problem.d)
    return str(t_path), str(d_path)


@pytest.mark.parametrize("row", CATALOG, ids=[row.label for row in CATALOG])
def test_verify_reports_every_catalog_identity(tmp_path, capsys, row):
    if row.label == "3-15":
        # 3-15 applies on stagnating stages only; a loose stagnation
        # tolerance makes the near-stagnating stage 1 count, leaving a
        # genuine embedding defect of about 1e-3
        args = ["--linear", *near_stagnation_files(tmp_path),
                "--k-max", "3", "--stag-tol", "1e-3"]
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
    a_path = tmp_path / "S.mtx"
    write_matrix(a_path, np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]))
    rc = cli.main(["qr", str(a_path)])
    assert rc == 5
    err = capsys.readouterr().err
    assert "rank deficiency" in err
    assert "column 1" in err


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
