import json
from pathlib import Path

import numpy as np
import pytest
import scipy.io
from numpy.testing import assert_allclose, assert_array_equal

from wextrap import (
    FixedPointProblem,
    ParseError,
    WeightOperator,
    iterate,
    load_history,
    read_matrix,
    read_sequence,
    read_vector,
    run,
    save_history,
    verify_history,
    write_matrix,
    write_sequence,
    write_vector,
)

from conftest import (
    random_linear_problem,
    random_pd_matrix,
    random_sequence,
    random_weight,
)


@pytest.mark.parametrize("fmt", ["array", "coordinate"])
def test_real_matrix_round_trip(tmp_path, fmt):
    rng = np.random.default_rng(41)
    a = rng.standard_normal((5, 3))
    path = tmp_path / "a.mtx"
    write_matrix(path, a, fmt=fmt)
    assert_array_equal(read_matrix(path), a.astype(complex))


@pytest.mark.parametrize("fmt", ["array", "coordinate"])
def test_complex_matrix_round_trip(tmp_path, fmt):
    rng = np.random.default_rng(42)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "a.mtx"
    write_matrix(path, a, fmt=fmt)
    assert_array_equal(read_matrix(path), a)


def test_read_agrees_with_scipy_on_own_output(tmp_path):
    rng = np.random.default_rng(43)
    a = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    path = tmp_path / "a.mtx"
    write_matrix(path, a, fmt="coordinate")
    assert_allclose(np.asarray(scipy.io.mmread(path).todense()),
                    read_matrix(path), rtol=0, atol=0)


@pytest.mark.parametrize("sym", ["symmetric", "hermitian", "skew-symmetric"])
def test_symmetry_expansion_matches_scipy(tmp_path, sym):
    # lower triangle stored; reader must mirror it the same way scipy does
    body = {
        "symmetric": ["2.0", "1.0", "-0.5", "3.0", "0.25", "4.0"],
        "hermitian": ["2.0 0.0", "1.0 -1.0", "-0.5 2.0", "3.0 0.0",
                      "0.25 0.5", "4.0 0.0"],
        "skew-symmetric": ["1.0", "-0.5", "0.25"],
    }[sym]
    field = "complex" if sym == "hermitian" else "real"
    if sym == "skew-symmetric":
        lines = [f"%%MatrixMarket matrix array {field} {sym}", "3 3"] + body
    else:
        lines = [f"%%MatrixMarket matrix array {field} {sym}", "3 3"] + body
    path = tmp_path / "s.mtx"
    path.write_text("\n".join(lines) + "\n")
    ours = read_matrix(path)
    theirs = np.asarray(scipy.io.mmread(path))
    assert_allclose(ours, theirs, rtol=0, atol=0)


def test_coordinate_duplicates_summed(tmp_path):
    path = tmp_path / "dup.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 3\n"
                    "1 1 1.5\n"
                    "1 1 2.5\n"
                    "2 2 0.0\n")
    a = read_matrix(path)
    assert_array_equal(a, [[4.0, 0.0], [0.0, 0.0]])


def test_malformed_header_names_line_one(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
    with pytest.raises(ParseError) as info:
        read_matrix(path)
    assert info.value.line == 1
    assert "header" in str(info.value)
    assert str(path) in str(info.value)


def test_unsupported_field_rejected(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix array pattern general\n2 2\n")
    with pytest.raises(ParseError, match="pattern"):
        read_matrix(path)


def test_bad_token_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n"
                    "2 1\n"
                    "1.0\n"
                    "oops\n")
    with pytest.raises(ParseError) as info:
        read_matrix(path)
    assert info.value.line == 4
    assert info.value.column == 1
    assert f"{path}:4:1" in str(info.value)


def test_wrong_entry_count_rejected(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n")
    with pytest.raises(ParseError, match="expected 4 entries"):
        read_matrix(path)


def test_coordinate_index_bounds(tmp_path):
    path = tmp_path / "oob.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 1\n"
                    "3 1 1.0\n")
    with pytest.raises(ParseError, match=r"outside 2 x 2"):
        read_matrix(path)


def test_nonsquare_symmetric_rejected(tmp_path):
    path = tmp_path / "rect.mtx"
    path.write_text("%%MatrixMarket matrix array real symmetric\n2 3\n")
    with pytest.raises(ParseError, match="square"):
        read_matrix(path)


def test_vector_round_trip_with_comments(tmp_path):
    path = tmp_path / "v.vec"
    path.write_text("% a comment\n# another style\n1.5\n-2.0  3.0\n\n0.5\n")
    assert_array_equal(read_vector(path), [1.5, -2.0, 3.0, 0.5])
    out = tmp_path / "w.vec"
    write_vector(out, np.array([1.0, -0.25, 1e-17]))
    assert_array_equal(read_vector(out), [1.0, -0.25, 1e-17])


def test_vector_complex_tokens(tmp_path):
    path = tmp_path / "v.vec"
    path.write_text("1+2j\n-3j\n0.5\n")
    assert_array_equal(read_vector(path), [1 + 2j, -3j, 0.5])
    out = tmp_path / "w.vec"
    write_vector(out, np.array([1 + 2j, -3j, 0.5]))
    assert_array_equal(read_vector(out), [1 + 2j, -3j, 0.5])


def test_vector_bad_token_position(tmp_path):
    path = tmp_path / "v.vec"
    path.write_text("1.0\n2.0 bogus\n")
    with pytest.raises(ParseError) as info:
        read_vector(path)
    assert info.value.line == 2
    assert info.value.column == 5


def test_sequence_round_trip_exact(tmp_path):
    rng = np.random.default_rng(44)
    xs = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    path = tmp_path / "seq.txt"
    write_sequence(path, xs)
    assert_array_equal(read_sequence(path), xs)


def test_sequence_ragged_rows_rejected(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("1.0 2.0\n3.0\n")
    with pytest.raises(ParseError) as info:
        read_sequence(path)
    assert info.value.line == 2


def test_history_round_trip(tmp_path):
    rng = np.random.default_rng(45)
    problem = random_linear_problem(rng, 8)
    weight = random_weight(rng, 8, "diag")
    xs = np.asarray(iterate(problem, 6))
    hist = run(xs, weight, k_max=4)
    path = tmp_path / "hist.json"
    save_history(hist, path)
    back = load_history(path)

    assert back.status is hist.status
    assert back.detected_k0 == hist.detected_k0
    assert len(back.records) == len(hist.records)
    # refactorized triangular factors must reproduce the originals exactly
    assert_array_equal(back.factors.q, hist.factors.q)
    assert_array_equal(back.factors.r, hist.factors.r)
    for old, new in zip(hist.records, back.records):
        assert new.k == old.k
        assert new.u_norm == old.u_norm
        assert new.mpe.exists == old.mpe.exists
        if old.mpe.gamma is not None:
            assert_allclose(new.mpe.gamma, old.mpe.gamma, rtol=0, atol=0)
        assert_allclose(new.rre.gamma, old.rre.gamma, rtol=0, atol=0)
        assert new.rre.phi == old.rre.phi

    report = verify_history(back)
    assert report.ok


def test_history_round_trip_below_default_rank_tol(tmp_path):
    # a run may accept columns under a rank_tol below the default; the
    # file does not record it, and loading must not reject them
    rng = np.random.default_rng(0)
    n = 50
    t = np.diag(0.95 * rng.uniform(0.1, 1.0, n))
    d = rng.standard_normal(n)
    xs = np.asarray(iterate(FixedPointProblem.linear(t, d, np.zeros(n)), 31))
    hist = run(xs, WeightOperator.identity(n), k_max=30, rank_tol=1e-16)
    assert hist.stages == 31
    path = tmp_path / "hist.json"
    save_history(hist, path)
    back = load_history(path)
    assert np.array_equal(back.factors.q, hist.factors.q)
    assert np.array_equal(back.factors.r, hist.factors.r)


def test_load_history_one_norm_per_appended_column(tmp_path, weight_calls):
    # regrowing the factors takes one product with M per column, which
    # gives r_kk and the next column of M Q; with no rank test there is
    # no incoming-column norm to take
    rng = np.random.default_rng(47)
    n = 12
    weight = random_weight(rng, n, "dense")
    hist = run(np.asarray(iterate(random_linear_problem(rng, n), 11)),
               weight, k_max=10)
    assert hist.factors.k == 11
    path = tmp_path / "hist.json"
    save_history(hist, path)
    weight_calls.clear()
    back = load_history(path)
    assert back.factors.k == 11
    assert weight_calls == ["apply"] * 11


def test_version_1_fixture_loads_and_verifies():
    # written by an earlier version that factored with modified
    # Gram-Schmidt and recorded a second-pass flag, which is ignored
    path = Path(__file__).parent / "data" / "history_v1.json"
    assert "reorthogonalized" in json.loads(path.read_text())
    hist = load_history(path)
    assert hist.status.value == "rank_deficient"
    assert hist.detected_k0 == 5 and hist.stages == 6
    f = hist.factors
    assert f.k == 5
    u = hist.differences[:, :5]
    assert np.linalg.norm(f.q @ f.r - u) <= 1e-12 * np.linalg.norm(u)
    assert f.orthonormality_defect() <= 1e-13
    assert verify_history(hist, use_recorded_phi=True).ok


def test_version_2_fixture_loads_verifies_and_resaves(tmp_path):
    # written from seed 8 (random_weight(rng, 5, "dense"), then 7
    # iterates of random_linear_problem(rng, 5), run with k_max=6): a
    # complex dense weight and complex iterates pin the "<c16" blocks
    path = Path(__file__).parent / "data" / "history_v2.json"
    doc = json.loads(path.read_text())
    assert doc["version"] == 2
    assert doc["weight"]["matrix"]["dtype"] == "<c16"
    assert doc["differences"]["shape"] == [5, 7]
    hist = load_history(path)
    assert hist.status.value == "rank_deficient"
    assert hist.detected_k0 == 5 and hist.stages == 6
    assert verify_history(hist, use_recorded_phi=True).ok
    # decoding and encoding involve no arithmetic: the bytes come back
    # exactly on any platform
    out = tmp_path / "again.json"
    save_history(hist, out)
    assert out.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("kind", ["identity", "diag", "dense"])
def test_history_v2_round_trip_is_exact(tmp_path, kind, field):
    rng = np.random.default_rng(48)
    n = 9
    if kind == "dense" and field == "real":
        weight = WeightOperator.dense(random_pd_matrix(rng, n, complex_=False))
    else:
        weight = random_weight(rng, n, kind)
    xs = random_sequence(rng, n, 8, complex_=field == "complex")
    hist = run(xs, weight, k_max=6)
    path = tmp_path / "hist.json"
    save_history(hist, path)
    doc = json.loads(path.read_text())
    assert doc["x0"]["dtype"] == ("<c16" if field == "complex" else "<f8")
    back = load_history(path)

    assert back.x0.flags.writeable and back.differences.flags.writeable
    assert_array_equal(back.x0, hist.x0)
    assert_array_equal(back.differences, hist.differences)
    assert np.array_equal(back.factors.q, hist.factors.q)
    assert np.array_equal(back.factors.r, hist.factors.r)
    for old, new in zip(hist.records, back.records):
        for method in ("mpe", "rre"):
            a, b = getattr(old, method), getattr(new, method)
            assert (a.gamma is None) == (b.gamma is None)
            if a.gamma is not None:
                assert np.array_equal(a.gamma, b.gamma)
                assert np.array_equal(a.s, b.s)
    again = tmp_path / "again.json"
    save_history(back, again)
    assert again.read_bytes() == path.read_bytes()


def _tampered_v2(tmp_path, edit):
    rng = np.random.default_rng(49)
    hist = run(random_sequence(rng, 6, 5), WeightOperator.identity(6),
               k_max=3)
    path = tmp_path / "hist.json"
    save_history(hist, path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def _load_fails(path, match):
    with pytest.raises(ParseError, match=match) as info:
        load_history(path)
    assert info.value.path == str(path)


def test_history_block_rejects_unknown_dtype(tmp_path):
    path = _tampered_v2(tmp_path, lambda doc: doc["x0"].update(dtype="|O"))
    _load_fails(path, "unsupported array dtype '|O'")


def test_history_block_rejects_shape_length_mismatch(tmp_path):
    def grow(doc):
        doc["records"][1]["rre"]["gamma"]["shape"] = [3]  # holds 2 entries
    _load_fails(_tampered_v2(tmp_path, grow), "holds 16 bytes")


def test_history_block_rejects_invalid_base64(tmp_path):
    def garble(doc):
        # a lenient decoder would skip the "*" and read the right bytes
        b64 = doc["differences"]["b64"]
        doc["differences"]["b64"] = b64[:8] + "*" + b64[8:]
    _load_fails(_tampered_v2(tmp_path, garble), "invalid base64")


def test_history_rejects_unknown_version(tmp_path):
    path = _tampered_v2(tmp_path, lambda doc: doc.update(version=3))
    _load_fails(path, "unsupported history version 3")


def test_history_v2_ignores_unknown_keys(tmp_path):
    def extend(doc):
        doc["notes"] = "added by a later writer"
        for rec in doc["records"]:
            rec["diagnostics"] = {"cond_r": 1.0}
    back = load_history(_tampered_v2(tmp_path, extend))
    assert back.stages == 4


def test_history_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"hello": "world"}\n')
    with pytest.raises(ParseError, match="format marker"):
        load_history(path)


def test_history_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "wextrap-history",\n')
    with pytest.raises(ParseError) as info:
        load_history(path)
    assert info.value.line is not None


def test_parse_error_location_formatting():
    err = ParseError("boom", path="f.mtx", line=3, column=7)
    assert str(err) == "f.mtx:3:7: boom"
    assert ParseError("boom").args[0] == "boom"


def test_write_matrix_comment_survives_read(tmp_path):
    path = tmp_path / "c.mtx"
    write_matrix(path, np.eye(2), comment="weighted QR factor\nsecond line")
    text = path.read_text()
    assert "% weighted QR factor" in text
    assert_array_equal(read_matrix(path), np.eye(2))
