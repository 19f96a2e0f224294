import base64
import dataclasses
import itertools
import json
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.io
from numpy.testing import assert_allclose, assert_array_equal

from wextrap import (
    FixedPointProblem,
    ParseError,
    WeightOperator,
    history_to_dict,
    iterate,
    load_history,
    mmio,
    qr,
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
    run_grown,
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


def _random_mm(rng, fmt, field, sym, rows, cols):
    """Header, size line and data lines of a random Matrix Market file
    with no duplicate coordinates and real diagonals when hermitian."""
    if sym == "general":
        cells = [(i, j) for j in range(cols) for i in range(rows)]
    else:
        low = 1 if sym == "skew-symmetric" else 0
        cells = [(i, j) for j in range(cols) for i in range(j + low, rows)]
    if fmt == "coordinate":
        keep = rng.permutation(len(cells))[: len(cells) // 2 + 1]
        cells = [cells[k] for k in keep]

    def number():
        if field == "integer":
            return str(rng.integers(-9, 10))
        return repr(float(rng.choice([-0.0, 0.5, rng.standard_normal()])))

    data = []
    for i, j in cells:
        text = number()
        if field == "complex":
            text += " " + ("0.0" if sym == "hermitian" and i == j
                           else number())
        data.append(text if fmt == "array" else f"{i + 1} {j + 1} {text}")
    size = f"{rows} {cols}" + (f" {len(cells)}" if fmt == "coordinate"
                               else "")
    return [f"%%MatrixMarket matrix {fmt} {field} {sym}", size], data


@pytest.mark.parametrize("sym", ["general", "symmetric", "hermitian",
                                 "skew-symmetric"])
@pytest.mark.parametrize("field", ["real", "integer", "complex"])
@pytest.mark.parametrize("fmt", ["array", "coordinate"])
def test_read_matrix_matches_scipy_with_comments(tmp_path, fmt, field, sym):
    rng = np.random.default_rng(52)
    rows = 5
    cols = 3 if sym == "general" else rows
    head, data = _random_mm(rng, fmt, field, sym, rows, cols)
    clean = tmp_path / "clean.mtx"
    clean.write_text("\n".join(head + data) + "\n")
    # comment and blank lines between data lines, indentation, trailing
    # blanks; scipy reads none of these inside the body
    noisy = tmp_path / "noisy.mtx"
    body = []
    for k, text in enumerate(data):
        body.append(["  " + text, text + "\t", text][k % 3])
        body.extend([["% between entries", ""], ["   "], []][k % 3])
    noisy.write_text("\n".join(head[:1] + ["% before the size line", "",
                                           head[1], "%"] + body))
    ours = read_matrix(noisy)
    assert ours.dtype == np.complex128 and ours.flags["C_CONTIGUOUS"]
    assert ours.tobytes() == read_matrix(clean).tobytes()
    theirs = scipy.io.mmread(clean)
    if fmt == "coordinate":
        theirs = theirs.toarray()
    assert_allclose(ours, theirs, rtol=0, atol=0)


def test_read_matrix_keeps_signed_zero_in_array_storage(tmp_path):
    path = tmp_path / "z.mtx"
    path.write_text("%%MatrixMarket matrix array complex general\n"
                    "2 1\n-0.0 0.0\n1.0 -0.0\n")
    a = read_matrix(path)
    assert np.signbit(a.real).tolist() == [[True], [False]]
    assert np.signbit(a.imag).tolist() == [[False], [True]]


def test_coordinate_duplicates_sum_in_file_order(tmp_path):
    # (1 + 1e16) - 1e16 is 0, while (1e16 - 1e16) + 1 would be 1
    path = tmp_path / "dup.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "1 2 3\n1 1 1.0\n1 1 1e16\n1 1 -1e16\n")
    assert read_matrix(path)[0, 0] == 0.0


def _big_array_lines(tmp_path, n):
    path = tmp_path / "big.mtx"
    write_matrix(path, np.arange(1.0, n * n + 1).reshape(n, n))
    return path, path.read_text().splitlines()


def _assert_parse_error(path, message, line, column=None):
    with pytest.raises(ParseError, match=re.escape(message)) as info:
        read_matrix(path)
    assert (info.value.line, info.value.column) == (line, column)
    where = f"{path}:{line}" + ("" if column is None else f":{column}")
    assert str(info.value) == f"{where}: {message}"


def test_bad_token_deep_in_array_reports_line_and_column(tmp_path):
    path, lines = _big_array_lines(tmp_path, 200)
    lines[40_000] = "  1.5x"  # entry 39 999, after the header and size
    path.write_text("\n".join(lines) + "\n")
    _assert_parse_error(path, "cannot parse number '1.5x'", 40_001, 3)


@pytest.mark.parametrize("edit, message, line, column", [
    (lambda lines: lines + ["1.0"], "more data lines than entries", 40_003,
     None),
    (lambda lines: lines[:-1], "expected 40000 entries, found 39999",
     40_001, None),
    (lambda lines: lines[:30_001] + ["1.0 2.0"] + lines[30_002:],
     "expected 1 value(s) per line, got '1.0 2.0'", 30_002, None),
    # the first bad line wins over a count that is also wrong
    (lambda lines: lines[:11] + ["nope"] + lines[12:] + ["1.0"],
     "cannot parse number 'nope'", 12, 1),
])
def test_array_body_errors_deep_in_file(tmp_path, edit, message, line,
                                        column):
    path, lines = _big_array_lines(tmp_path, 200)
    path.write_text("\n".join(edit(lines)) + "\n")
    _assert_parse_error(path, message, line, column)


@pytest.mark.parametrize("entry, message", [
    ("101 1 0.5", "index (101, 1) outside 100 x 100"),
    ("1 0 0.5", "index (1, 0) outside 100 x 100"),
    ("0 5 0.5", "index (0, 5) outside 100 x 100"),
    ("5 101 0.5", "index (5, 101) outside 100 x 100"),
    ("1.0 1 0.5", "indices must be integers, got '1.0 1 0.5'"),
    ("1 1", "expected 'i j value' with 1 number(s), got '1 1'"),
    (None, "size line promised 10000 entries, found 9999"),
])
def test_coordinate_body_errors_deep_in_file(tmp_path, entry, message):
    path = tmp_path / "big.mtx"
    write_matrix(path, np.ones((100, 100)), fmt="coordinate")
    lines = path.read_text().splitlines()
    if entry is None:
        del lines[-1]
        line = len(lines)
    else:
        lines[9_000] = entry
        line = 9_001
    path.write_text("\n".join(lines) + "\n")
    _assert_parse_error(path, message, line)


@pytest.mark.parametrize("reader, text, line, column", [
    # an indented bad token
    (read_matrix, "%%MatrixMarket matrix array real general\n2 1\n1.0\n"
     "   oops\n", 4, 4),
    # a bad token that also occurs inside an earlier token
    (read_matrix, "%%MatrixMarket matrix array complex general\n1 1\n"
     "1e5 1e\n", 3, 5),
    (read_vector, "1e5 1e\n", 1, 5),
    (read_sequence, "1.0 2.0\n\t1e5 1e\n", 2, 6),
], ids=["indented", "complex-pair", "vector", "sequence"])
def test_parse_error_column_is_the_raw_offset(tmp_path, reader, text, line,
                                              column):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        reader(path)
    assert (info.value.line, info.value.column) == (line, column)
    assert f"{path}:{line}:{column}: cannot parse number" in str(info.value)


@pytest.mark.parametrize("fmt", ["array", "coordinate"])
def test_write_matrix_edge_values_byte_for_byte(tmp_path, fmt):
    real = np.array([[-0.0, 5e-324, 0.1], [1e308, -1.5, 1 / 3]])
    cplx = np.array([[complex(1.5, -0.0), complex(-0.0, 2.0)],
                     [complex(5e-324, 1e308), complex(0.1, -0.1)]])
    for a, field in ((real, "real"), (cplx, "complex")):
        rows, cols = a.shape
        expected = [f"%%MatrixMarket matrix {fmt} {field} general",
                    f"{rows} {cols}" + (f" {rows * cols}"
                                        if fmt == "coordinate" else "")]
        for j, i in itertools.product(range(cols), range(rows)):
            text = repr(float(a[i, j].real))
            if field == "complex":
                text += " " + repr(float(a[i, j].imag))
            expected.append(text if fmt == "array"
                            else f"{i + 1} {j + 1} {text}")
        path = tmp_path / f"{field}.mtx"
        write_matrix(path, a, fmt=fmt)
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
        assert_array_equal(read_matrix(path), a)


def _whole_text_matrix(a, fmt, comment):
    # the Matrix Market text as one string, built whole: the reference
    # for the streaming writer's bytes
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    field = "complex" if np.any(a.imag != 0.0) else "real"
    rows, cols = a.shape
    lines = [f"%%MatrixMarket matrix {fmt} {field} general"]
    lines += [f"% {c}" for c in comment.splitlines()]
    values = map(repr, a.real.ravel(order="F").tolist())
    if field == "complex":
        values = map("{} {!r}".format, values,
                     a.imag.ravel(order="F").tolist())
    if fmt == "array":
        lines.append(f"{rows} {cols}")
    else:
        lines.append(f"{rows} {cols} {rows * cols}")
        values = [f"{i} {j} {value}" for (j, i), value in zip(
            itertools.product(range(1, cols + 1), range(1, rows + 1)),
            values)]
    return ("\n".join([*lines, *values]) + "\n").encode()


@pytest.mark.parametrize("fmt", ["array", "coordinate"])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_write_matrix_streams_the_whole_text_bytes(tmp_path, field, fmt):
    # one column at a time, the same bytes as the text built whole
    rng = np.random.default_rng(57)
    a = rng.standard_normal((37, 23))
    if field == "complex":
        a = a + 1j * rng.standard_normal(a.shape)
    path = tmp_path / "a.mtx"
    write_matrix(path, a, fmt=fmt, comment="two\nlines")
    assert path.read_bytes() == _whole_text_matrix(a, fmt, "two\nlines")
    assert_array_equal(read_matrix(path), a)


@pytest.mark.parametrize("fmt", ["array", "coordinate"])
def test_write_matrix_peak(tmp_path, fmt):
    # the body is written column by column: beside the complex copy of
    # the matrix, the writer holds one column's text, never the whole
    # text (about 6x the copy as a list of str)
    a = np.random.default_rng(58).standard_normal((200, 200))
    path = tmp_path / "a.mtx"
    tracemalloc.start()
    try:
        write_matrix(path, a, fmt=fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * a.astype(complex).nbytes
    assert path.read_bytes() == _whole_text_matrix(a, fmt, "")


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
    hist, grown = run_grown(xs, weight, k_max=4)
    path = tmp_path / "hist.json"
    save_history(hist, path)
    back = load_history(path)

    assert back.status is hist.status
    assert back.detected_k0 == hist.detected_k0
    assert len(back.records) == len(hist.records)
    # refactorized triangular factors must reproduce the run's exactly
    assert_array_equal(back.factors.q, grown.q)
    assert_array_equal(back.factors.r, grown.r)
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


def test_history_round_trip_below_default_rank_tol(tmp_path, monkeypatch):
    # older versions let a run accept columns under a rank tolerance
    # below RANK_TOL; no file records it, and loading must not reject
    # them
    monkeypatch.setattr(qr, "RANK_TOL", 1e-16)
    rng = np.random.default_rng(0)
    n = 50
    t = np.diag(0.95 * rng.uniform(0.1, 1.0, n))
    d = rng.standard_normal(n)
    xs = np.asarray(iterate(FixedPointProblem.linear(t, d, np.zeros(n)), 31))
    hist, grown = run_grown(xs, WeightOperator.identity(n), k_max=30)
    assert hist.stages == 31
    path = tmp_path / "hist.json"
    save_history(hist, path)
    back = load_history(path)
    assert np.array_equal(back.factors.q, grown.q)
    assert np.array_equal(back.factors.r, grown.r)


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
    hist, grown = run_grown(xs, weight, k_max=6)
    path = tmp_path / "hist.json"
    save_history(hist, path)
    doc = json.loads(path.read_text())
    assert doc["x0"]["dtype"] == ("<c16" if field == "complex" else "<f8")
    back = load_history(path)

    assert back.x0.flags.writeable and back.differences.flags.writeable
    assert_array_equal(back.x0, hist.x0)
    assert_array_equal(back.differences, hist.differences)
    assert np.array_equal(back.factors.q, grown.q)
    assert np.array_equal(back.factors.r, grown.r)
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
    # the weight block holds the weight's own values, bit for bit
    spec = doc["weight"]
    if kind == "diag":
        assert np.array_equal(_decoded(spec["weights"]),
                              weight.matrix().diagonal().real)
    elif kind == "dense":
        assert np.array_equal(_decoded(spec["matrix"]), weight.matrix())


def _decoded(block):
    raw = base64.b64decode(block["b64"])
    return np.frombuffer(raw, dtype=block["dtype"]).reshape(block["shape"])


def test_history_to_dict_diagonal_weight_stays_vector_sized():
    # the N weights are written without forming the N x N matrix
    # (64 MB of complex entries at this N)
    rng = np.random.default_rng(50)
    n = 2000
    weights = rng.uniform(0.2, 3.0, n)
    hist = run(random_sequence(rng, n, 4), WeightOperator.diagonal(weights),
               k_max=2)
    tracemalloc.start()
    try:
        doc = history_to_dict(hist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert np.array_equal(_decoded(doc["weight"]["weights"]), weights)


def test_history_to_dict_dense_weight_peak():
    # the real part of a dense weight is copied once to be encoded; that
    # copy is freed before its base64 bytes become a str, so the copy,
    # the bytes and the str (3.67x the matrix together) never coexist
    rng = np.random.default_rng(51)
    n = 2000
    b = rng.uniform(-1.0, 1.0, (n, n))
    matrix = 2.0 * np.eye(n) + (b + b.T) / (2 * n)
    hist = run(random_sequence(rng, n, 4), WeightOperator.dense(matrix),
               k_max=2)
    tracemalloc.start()
    try:
        doc = history_to_dict(hist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.2 * matrix.nbytes
    assert doc["weight"]["matrix"]["dtype"] == "<f8"
    assert np.array_equal(_decoded(doc["weight"]["matrix"]), matrix)


def _compact_json(hist) -> bytes:
    return (json.dumps(history_to_dict(hist), sort_keys=True,
                       separators=(",", ":")) + "\n").encode()


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("kind", ["identity", "diag", "dense"])
def test_save_history_is_the_compact_json_of_history_to_dict(tmp_path, kind,
                                                             field):
    # a few records, and many: the records' texts are made one at a
    # time and spliced into the document
    rng = np.random.default_rng(52)
    for n, k_max in ((7, 5), (120, 110)):
        if kind == "dense" and field == "real":
            weight = WeightOperator.dense(random_pd_matrix(rng, n,
                                                           complex_=False))
        else:
            weight = random_weight(rng, n, kind)
        hist = run(random_sequence(rng, n, k_max + 2,
                                   complex_=field == "complex"),
                   weight, k_max=k_max)
        assert hist.stages == k_max + 1
        path = tmp_path / "hist.json"
        save_history(hist, path)
        assert path.read_bytes() == _compact_json(hist)


@pytest.mark.parametrize("status", ["rank_deficient", "converged"])
def test_save_history_of_an_early_stop_is_the_compact_json(tmp_path, status):
    if status == "converged":  # u_0 = 0: the run ends at stage 0
        xs = np.tile([2.0, 3.0], (4, 1))
    else:  # four distinct eigenvalues: the block loses rank at k = 4
        rng = np.random.default_rng(53)
        problem = FixedPointProblem.linear(
            np.diag(rng.uniform(0.1, 0.9, 4)), rng.standard_normal(4),
            np.zeros(4))
        xs = np.asarray(iterate(problem, 9))
    hist = run(xs, WeightOperator.identity(xs.shape[1]), k_max=8)
    assert hist.status.value == status
    path = tmp_path / "hist.json"
    save_history(hist, path)
    assert path.read_bytes() == _compact_json(hist)


def test_save_history_dense_weight_peak(tmp_path):
    # the payloads go to the file as they are: neither their str nor an
    # escaped copy of the whole text is ever made
    rng = np.random.default_rng(51)
    n = 2000
    b = rng.uniform(-1.0, 1.0, (n, n))
    matrix = 2.0 * np.eye(n) + (b + b.T) / (2 * n)
    hist = run(random_sequence(rng, n, 4), WeightOperator.dense(matrix),
               k_max=2)
    path = tmp_path / "hist.json"
    tracemalloc.start()
    try:
        save_history(hist, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * matrix.nbytes
    assert path.read_bytes() == _compact_json(hist)


def test_save_history_dense_weight_peak_is_one_chunk(tmp_path):
    # each payload is encoded chunk by chunk as it is written: beside
    # the history, the save holds one chunk's base64, not the matrix's
    rng = np.random.default_rng(51)
    n = 2000
    b = rng.uniform(-1.0, 1.0, (n, n))
    matrix = 2.0 * np.eye(n) + (b + b.T) / (2 * n)
    hist = run(random_sequence(rng, n, 4), WeightOperator.dense(matrix),
               k_max=2)
    path = tmp_path / "hist.json"
    tracemalloc.start()
    try:
        save_history(hist, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * matrix.nbytes
    assert path.read_bytes() == _compact_json(hist)


def test_save_history_scratch_grows_by_a_record_text_per_record(tmp_path):
    # the skeleton is encoded a record at a time, so beside the history
    # a save holds the skeleton's pieces (under 0.5 KB of text per
    # record here) and one chunk's encoding, not a dict tree of every
    # record and the JSON encoder's token list of the whole document
    def scratch(k_max):
        rng = np.random.default_rng(65)
        n = 400
        hist = run(random_sequence(rng, n, k_max + 2),
                   WeightOperator.identity(n), k_max=k_max)
        path = tmp_path / f"hist{k_max}.json"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            save_history(hist, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == _compact_json(hist)
        return peak - before

    few, many = scratch(10), scratch(160)
    assert many - few <= 3000 * 150


#: float64 entries in one chunk of the history writer
_PER_CHUNK = mmio._CHUNK // 8


@pytest.mark.parametrize("n", [_PER_CHUNK - 1, _PER_CHUNK, _PER_CHUNK + 1],
                         ids=["chunk-8", "chunk", "chunk+8"])
def test_chunked_payloads_join_to_the_whole_base64(tmp_path, n):
    # the n diagonal weights are one chunk of bytes, or one chunk -/+ 8;
    # the complex x0 and s (16n bytes) span two or three chunks, and the
    # complex differences (32n bytes) four or five, the last ending in
    # "=" padding unless n is a multiple of 3
    assert mmio._CHUNK % 3 == 0 and _PER_CHUNK % 3 == 0
    rng = np.random.default_rng(59)
    hist = run(random_sequence(rng, n, 3, complex_=True),
               WeightOperator.diagonal(rng.uniform(0.5, 2.0, n)), k_max=1)
    doc = history_to_dict(hist)
    assert doc["weight"]["weights"]["dtype"] == "<f8"
    assert doc["x0"]["dtype"] == doc["differences"]["dtype"] == "<c16"
    assert doc["differences"]["b64"].endswith("=") == (n % 3 != 0)
    path = tmp_path / "hist.json"
    save_history(hist, path)
    assert path.read_bytes() == _compact_json(hist)


def test_save_history_of_an_empty_payload(tmp_path):
    # a history with no records and an N x 0 differences block: a
    # payload of 0 bytes writes an empty base64 string
    rng = np.random.default_rng(60)
    hist = run(random_sequence(rng, 5, 4), WeightOperator.identity(5),
               k_max=2)
    hist = dataclasses.replace(hist, differences=np.zeros((5, 0)),
                               records=[], detected_k0=None)
    path = tmp_path / "hist.json"
    save_history(hist, path)
    assert history_to_dict(hist)["differences"]["b64"] == ""
    assert path.read_bytes() == _compact_json(hist)


def test_failed_save_leaves_the_existing_file(tmp_path):
    rng = np.random.default_rng(54)
    hist = run(random_sequence(rng, 6, 5), WeightOperator.identity(6),
               k_max=3)
    path = tmp_path / "hist.json"
    save_history(hist, path)
    before = path.read_bytes()
    rec = hist.records[1]
    hist.records[1] = dataclasses.replace(rec, mpe=dataclasses.replace(
        rec.mpe, gamma=np.array(["a", "b"], dtype=object)))
    with pytest.raises(ValueError):
        save_history(hist, path)
    assert path.read_bytes() == before


def test_save_history_checks_its_payload_slots(tmp_path, monkeypatch):
    # a block whose payload is listed twice leaves one payload without
    # a slot: the save must raise before it opens the file
    block = mmio._block

    def doubled(a, payloads=None):
        out = block(a, payloads)
        if payloads is not None:
            payloads.append(payloads[-1])
        return out

    monkeypatch.setattr(mmio, "_block", doubled)
    rng = np.random.default_rng(55)
    hist = run(random_sequence(rng, 6, 5), WeightOperator.identity(6),
               k_max=3)
    path = tmp_path / "hist.json"
    with pytest.raises(RuntimeError, match="payload slots"):
        save_history(hist, path)
    assert not path.exists()


def _tampered_v2(tmp_path, edit, dense=False):
    rng = np.random.default_rng(49)
    weight = WeightOperator.dense(random_pd_matrix(rng, 6, complex_=False)) \
        if dense else WeightOperator.identity(6)
    hist = run(random_sequence(rng, 6, 5), weight, k_max=3)
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


@pytest.mark.parametrize("b64", ["AAA*", "AAA", "=AAA", "AAA\u00e9", 5, []],
                         ids=["digit", "padding", "leading", "non-ASCII",
                              "int", "list"])
@pytest.mark.parametrize("block", ["x0", "matrix"])
def test_history_block_base64_errors_keep_their_messages(tmp_path, block,
                                                         b64):
    # a str is decoded in place on Python 3.11+, and anything else by
    # base64.b64decode: each bad "b64" fails with the message
    # b64decode(validate=True) gives it, the dense weight's consumed
    # block included
    try:
        base64.b64decode(b64, validate=True)
    except ValueError as exc:
        match = f"invalid base64 in array block: {exc}"
    except TypeError as exc:
        match = f"history file structure invalid: {exc!r}"

    def edit(doc):
        where = doc["weight"] if block == "matrix" else doc
        where[block]["b64"] = b64
    path = _tampered_v2(tmp_path, edit, dense=block == "matrix")
    _load_fails(path, re.escape(match))


def test_history_rejects_unknown_version(tmp_path):
    path = _tampered_v2(tmp_path, lambda doc: doc.update(version=3))
    _load_fails(path, "unsupported history version 3")


@pytest.mark.parametrize("key, value, match", [
    ("k_max", "abc", "k_max = 'abc' is not an integer"),
    ("k_max", None, "k_max = None is not an integer"),
    ("k_max", 3.5, "k_max = 3.5 is not an integer"),
    ("k_max", True, "k_max = True is not an integer"),
    ("detected_k0", "2", "detected_k0 = '2' is neither"),
    ("detected_k0", [2], r"detected_k0 = \[2\] is neither"),
    ("dimension", 2.5, "dimension = 2.5 is not an integer"),
    ("dimension", True, "dimension = True is not an integer"),
    ("dimension", "6", "dimension = '6' is not an integer"),
])
def test_history_rejects_malformed_run_scalars(tmp_path, key, value, match):
    # read inside the structure check, so a bad value is a ParseError
    # (exit 2), not a ValueError/TypeError traceback
    path = _tampered_v2(tmp_path, lambda doc: doc.update({key: value}))
    _load_fails(path, match)


@pytest.mark.parametrize("shape", [(7,), (6, 1)], ids=["long", "2-D"])
def test_history_rejects_x0_of_the_wrong_shape(tmp_path, shape):
    # an x0 that is not one N-vector would be written back as it is
    def edit(doc):
        b64 = base64.b64encode(np.ones(shape).tobytes()).decode("ascii")
        doc["x0"] = {"dtype": "<f8", "shape": list(shape), "b64": b64}
    _load_fails(_tampered_v2(tmp_path, edit),
                re.escape(f"x0 of shape {shape}, expected (6,)"))


def test_history_rejects_dimension_other_than_the_weights(tmp_path):
    # the committed file's dense weight is 5 x 5
    doc = json.loads((Path(__file__).parent / "data"
                      / "history_v2.json").read_text())
    path = tmp_path / "hist.json"
    path.write_text(json.dumps(dict(doc, dimension=6)))
    _load_fails(path, "dimension = 6, the weight's is 5")


def test_history_keeps_valid_run_scalars(tmp_path):
    def edit(doc):
        doc["detected_k0"] = None
        del doc["k_max"]  # defaults to the last record's stage
    back = load_history(_tampered_v2(tmp_path, edit))
    assert back.detected_k0 is None
    assert type(back.k_max) is int and back.k_max == back.stages - 1


def test_history_v2_ignores_unknown_keys(tmp_path):
    def extend(doc):
        doc["notes"] = "added by a later writer"
        for rec in doc["records"]:
            rec["diagnostics"] = {"cond_r": 1.0}
    back = load_history(_tampered_v2(tmp_path, extend))
    assert back.stages == 4


def _no_records(doc):
    doc.update(records=[], detected_k0=None,
               differences={"dtype": "<f8", "shape": [0, 0], "b64": ""})


@pytest.mark.parametrize("source, dtype", [
    ("real-identity", np.float64), ("complex-dense", np.complex128)])
def test_history_with_empty_difference_block_loads(tmp_path, source, dtype):
    # a file with no records may store its differences as a [0, 0]
    # block: it loads as it is, with N x 0 factors in the weight's field
    if source == "real-identity":
        path = _tampered_v2(tmp_path, _no_records)
    else:
        doc = json.loads((Path(__file__).parent / "data"
                          / "history_v2.json").read_text())
        _no_records(doc)
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
    back = load_history(path)
    n = back.weight.dimension
    assert back.records == [] and back.differences.shape == (0, 0)
    f = back.factors
    assert (f.q.shape, f.r.shape, f.p.shape) == ((n, 0), (0, 0), (n, 0))
    assert f.q.dtype == f.r.dtype == f.p.dtype == dtype


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


def test_load_history_dense_weight_peak(tmp_path):
    # M's base64 text (4/3 of M) is freed once decoded, before the
    # decoded bytes are copied, and from Python 3.11 binascii decodes
    # the str in place.  So the peak is the weight's check (M, the
    # weight's copy and its Cholesky factor, in row blocks), 3.04x M
    # measured.  Python 3.10 first copies the text to ASCII bytes: 3.7x
    rng = np.random.default_rng(63)
    n = 400
    b = rng.uniform(-1.0, 1.0, (n, n))
    matrix = 2.0 * np.eye(n) + (b + b.T) / (2 * n)
    hist = run(random_sequence(rng, n, 4), WeightOperator.dense(matrix),
               k_max=2)
    path = tmp_path / "hist.json"
    save_history(hist, path)
    tracemalloc.start()
    try:
        back = load_history(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (3.1 if sys.version_info >= (3, 11) else 3.75) \
        * matrix.nbytes
    assert_array_equal(back.weight.matrix(), matrix)


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
