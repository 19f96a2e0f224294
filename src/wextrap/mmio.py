"""File formats: Matrix Market, plain vectors/sequences, history JSON.

The Matrix Market reader is deliberately hand-rolled rather than
delegated, so that malformed files are reported with the exact line
(and column where it makes sense) that broke parsing -- the error
contract of this module.  Array and coordinate formats are supported,
with real/integer/complex fields and general/symmetric/hermitian/
skew-symmetric storage.  Explicit zeros in coordinate files are kept.

Vector files are whitespace-separated numbers; sequence files hold one
vector per line.  Entries may be written as plain floats or in Python
complex syntax (``1.5+0.25j``).

Run histories persist as compact JSON with sorted keys, so identical
runs serialize to identical bytes.  In the version-2 format every array
is a block ``{"dtype", "shape", "b64"}`` holding its little-endian
IEEE-754 bytes (``"<f8"`` when every imaginary part is zero, else
``"<c16"``), which is exact and platform-independent; scalars are JSON
numbers, and the complex ``alpha`` is a ``[real, imag]`` pair.
:func:`save_history` writes version 2; :func:`load_history` also reads
version 1, where every complex entry is a ``[real, imag]`` pair, and
ignores keys it does not know.  Loading reconstructs a full
:class:`~wextrap.extrapolate.RunHistory`, refactorizing the stored
difference columns so the triangular factors match the original run
bit for bit.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np

from .errors import DimensionMismatch, ParseError
from .extrapolate import (
    CoefficientSolve,
    ExtrapolationRecord,
    RunHistory,
    RunStatus,
    history_to_dict,
)
from .qr import empty_factors, mgs_factorize
from .weights import WeightOperator

__all__ = [
    "read_matrix",
    "write_matrix",
    "read_vector",
    "write_vector",
    "read_sequence",
    "write_sequence",
    "save_history",
    "load_history",
]

_FORMATS = ("array", "coordinate")
_FIELDS = ("real", "integer", "complex")
_SYMMETRIES = ("general", "symmetric", "hermitian", "skew-symmetric")


def _fail(msg, path, line=None, column=None):
    raise ParseError(msg, path=str(path), line=line, column=column)


def _parse_number(token, field, path, lineno, line):
    try:
        return float(token)
    except ValueError:
        pass
    if field is None:  # free-form vector files also accept complex syntax
        try:
            return complex(token)
        except ValueError:
            pass
    col = line.find(token) + 1
    _fail(f"cannot parse number {token!r}", path, lineno, col)


def _data_lines(lines):
    for lineno, raw in lines:
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        yield lineno, text


def read_matrix(path) -> np.ndarray:
    """Dense complex matrix from a Matrix Market file."""
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()
    if not raw_lines:
        _fail("empty file, expected a MatrixMarket header", path, 1)
    header = raw_lines[0].strip()
    parts = header.split()
    if not header.startswith("%%MatrixMarket"):
        _fail(f"malformed header {header!r}: expected "
              "'%%MatrixMarket matrix <format> <field> <symmetry>'", path, 1)
    if len(parts) != 5 or parts[1].lower() != "matrix":
        _fail(f"malformed header {header!r}: expected 5 fields "
              "'%%MatrixMarket matrix <format> <field> <symmetry>'", path, 1)
    fmt, field, sym = (p.lower() for p in parts[2:5])
    if fmt not in _FORMATS:
        _fail(f"unsupported format {fmt!r} (supported: {_FORMATS})", path, 1)
    if field not in _FIELDS:
        _fail(f"unsupported field {field!r} (supported: {_FIELDS})", path, 1)
    if sym not in _SYMMETRIES:
        _fail(f"unsupported symmetry {sym!r} (supported: {_SYMMETRIES})",
              path, 1)

    numbered = list(enumerate(raw_lines[1:], start=2))
    data = _data_lines(numbered)
    try:
        lineno, size_line = next(data)
    except StopIteration:
        _fail("missing size line", path, len(raw_lines))
    size_tokens = size_line.split()
    expected = 3 if fmt == "coordinate" else 2
    if len(size_tokens) != expected:
        _fail(f"size line needs {expected} integers, got {size_line!r}",
              path, lineno)
    try:
        dims = [int(tok) for tok in size_tokens]
    except ValueError:
        _fail(f"size line needs integers, got {size_line!r}", path, lineno)
    rows, cols = dims[0], dims[1]
    if rows < 1 or cols < 1:
        _fail(f"matrix dimensions must be positive, got {rows} x {cols}",
              path, lineno)
    if sym != "general" and rows != cols:
        _fail(f"{sym} storage requires a square matrix, got {rows} x {cols}",
              path, lineno)
    out = np.zeros((rows, cols), dtype=complex)

    per_entry = 2 if field == "complex" else 1
    if fmt == "array":
        if sym == "general":
            entries = [(i, j) for j in range(cols) for i in range(rows)]
        elif sym == "skew-symmetric":
            entries = [(i, j) for j in range(cols) for i in range(j + 1, rows)]
        else:
            entries = [(i, j) for j in range(cols) for i in range(j, rows)]
        pos = 0
        for lineno, text in data:
            tokens = text.split()
            if len(tokens) != per_entry:
                _fail(f"expected {per_entry} value(s) per line, got {text!r}",
                      path, lineno)
            if pos >= len(entries):
                _fail("more data lines than entries", path, lineno)
            value = _parse_number(tokens[0], field, path, lineno, text)
            if field == "complex":
                value = complex(value,
                                _parse_number(tokens[1], field, path, lineno,
                                              text))
            i, j = entries[pos]
            out[i, j] = value
            pos += 1
        if pos != len(entries):
            _fail(f"expected {len(entries)} entries, found {pos}", path,
                  len(raw_lines))
    else:
        nnz = dims[2]
        seen = 0
        for lineno, text in data:
            tokens = text.split()
            if len(tokens) != 2 + per_entry:
                _fail(f"expected 'i j value' with {per_entry} number(s), "
                      f"got {text!r}", path, lineno)
            try:
                i, j = int(tokens[0]) - 1, int(tokens[1]) - 1
            except ValueError:
                _fail(f"indices must be integers, got {text!r}", path, lineno)
            if not (0 <= i < rows and 0 <= j < cols):
                _fail(f"index ({i + 1}, {j + 1}) outside {rows} x {cols}",
                      path, lineno)
            value = _parse_number(tokens[2], field, path, lineno, text)
            if field == "complex":
                value = complex(value,
                                _parse_number(tokens[3], field, path, lineno,
                                              text))
            out[i, j] += value
            seen += 1
        if seen != nnz:
            _fail(f"size line promised {nnz} entries, found {seen}", path,
                  len(raw_lines))

    if sym in ("symmetric", "hermitian", "skew-symmetric"):
        lower = np.tril(out, -1)
        if sym == "symmetric":
            out = out + lower.T
        elif sym == "hermitian":
            out = out + lower.conj().T
        else:
            out = out - lower.T
    return out


def _fmt_value(z, field) -> str:
    if field == "complex":
        return f"{float(z.real)!r} {float(z.imag)!r}"
    return repr(float(z.real))


def write_matrix(path, a, fmt: str = "array", comment: str | None = None
                 ) -> None:
    """Write a dense matrix; field is complex iff any imaginary part
    is nonzero.  Coordinate output keeps every stored entry, zeros
    included, scanning columns first."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    field = "complex" if np.any(a.imag != 0.0) else "real"
    rows, cols = a.shape
    lines = [f"%%MatrixMarket matrix {fmt} {field} general"]
    if comment:
        lines.extend(f"% {c}" for c in comment.splitlines())
    if fmt == "array":
        lines.append(f"{rows} {cols}")
        for j in range(cols):
            for i in range(rows):
                lines.append(_fmt_value(a[i, j], field))
    elif fmt == "coordinate":
        lines.append(f"{rows} {cols} {rows * cols}")
        for j in range(cols):
            for i in range(rows):
                lines.append(f"{i + 1} {j + 1} {_fmt_value(a[i, j], field)}")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_vector(path) -> np.ndarray:
    """1-D vector from whitespace-separated numbers."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith(("%", "#")):
                continue
            for token in text.split():
                values.append(_parse_number(token, None, path, lineno, text))
    if not values:
        _fail("no numbers found", path)
    return np.asarray(values, dtype=complex)


def write_vector(path, v) -> None:
    v = np.asarray(v, dtype=complex)
    with open(path, "w", encoding="utf-8") as fh:
        for z in v:
            fh.write(_entry_repr(z) + "\n")


def _entry_repr(z) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    text = repr(z)  # "(1+2j)" -> "1+2j", round-trips through complex()
    return text[1:-1] if text.startswith("(") else text


def read_sequence(path) -> np.ndarray:
    """(count, dimension) array, one vector per nonempty line."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith(("%", "#")):
                continue
            row = [_parse_number(tok, None, path, lineno, text)
                   for tok in text.split()]
            if width is None:
                width = len(row)
            elif len(row) != width:
                _fail(f"vector has {len(row)} entries, previous ones had "
                      f"{width}", path, lineno)
            rows.append(row)
    if len(rows) < 2:
        _fail(f"a sequence needs at least 2 vectors, found {len(rows)}", path)
    return np.asarray(rows, dtype=complex)


def write_sequence(path, vectors) -> None:
    vectors = np.atleast_2d(np.asarray(vectors, dtype=complex))
    with open(path, "w", encoding="utf-8") as fh:
        for row in vectors:
            fh.write(" ".join(_entry_repr(z) for z in row) + "\n")


# -- run histories ---------------------------------------------------

def save_history(history: RunHistory, path) -> None:
    """Write the version-2 history format: compact JSON with sorted
    keys, so identical runs give identical bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(history_to_dict(history), sort_keys=True,
                            separators=(",", ":")))
        fh.write("\n")


def _array(obj, path) -> np.ndarray:
    """A stored array as a fresh complex array.

    ``obj`` is a version-2 block ``{"dtype", "shape", "b64"}`` or a
    version-1 nested list of ``[re, im]`` pairs.
    """
    if not isinstance(obj, dict):
        pairs = np.asarray(obj, dtype=float)
        if pairs.ndim < 2 or pairs.shape[-1] != 2:
            _fail(f"expected [re, im] pairs, got shape {pairs.shape}", path)
        return pairs.view(complex)[..., 0]
    dtype, shape = obj["dtype"], obj["shape"]
    if dtype not in ("<f8", "<c16"):
        _fail(f"unsupported array dtype {dtype!r}", path)
    if not all(type(n) is int and n >= 0 for n in shape):
        _fail(f"invalid array shape {shape!r}", path)
    try:
        raw = base64.b64decode(obj["b64"], validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        _fail(f"invalid base64 in array block: {exc}", path)
    needed = math.prod(shape) * np.dtype(dtype).itemsize
    if len(raw) != needed:
        _fail(f"array block holds {len(raw)} bytes, shape {shape} of "
              f"{dtype} needs {needed}", path)
    # astype copies out of the read-only buffer
    return np.frombuffer(raw, dtype=dtype).reshape(shape).astype(complex)


def _solve_from_dict(doc, method, path) -> CoefficientSolve:
    return CoefficientSolve(
        method=method,
        exists=bool(doc["exists"]),
        gamma=None if doc["gamma"] is None else _array(doc["gamma"], path),
        phi=doc["phi"],
        alpha=None if doc["alpha"] is None else complex(*doc["alpha"]),
        lam=doc["lam"],
        s=None if doc["s"] is None else _array(doc["s"], path),
    )


def _check_records(records, columns, dimension, path) -> None:
    """Reject a history the verifier cannot judge: records out of
    order, an early terminal stage, a solve missing a part it must
    carry, or arrays of the wrong size.  Values are not judged beyond
    a finite positive phi, so a tampered number still reaches the
    verifier."""
    if columns.shape[1] < len(records):
        _fail(f"{len(records)} records need as many difference columns, "
              f"the file holds {columns.shape[1]}", path)
    last = len(records) - 1
    for idx, rec in enumerate(records):
        if rec.k != idx:
            _fail(f"record {idx} is numbered k = {rec.k}", path)
        if rec.terminal and idx != last:
            _fail(f"record {idx} is terminal but not the last", path)
        for solve in (rec.mpe, rec.rre):
            where = f"record {idx} {solve.method}"
            required = solve.exists or (solve.method == "rre"
                                        and not rec.terminal)
            missing = [name for name in ("gamma", "phi", "s")
                       if getattr(solve, name) is None]
            if required and missing:
                _fail(f"{where} lacks {', '.join(missing)}", path)
            if solve.gamma is not None and solve.gamma.shape != (idx + 1,):
                _fail(f"{where} gamma of shape {solve.gamma.shape}, "
                      f"expected ({idx + 1},)", path)
            if solve.s is not None and solve.s.shape != (dimension,):
                _fail(f"{where} s of shape {solve.s.shape}, expected "
                      f"({dimension},)", path)
            # a converged run's terminal stage may carry phi = 0
            phi = solve.phi
            if phi is not None and not (
                    type(phi) in (int, float) and math.isfinite(phi)
                    and (phi > 0.0 or (rec.terminal and phi == 0.0))):
                _fail(f"{where} phi = {phi!r} is not finite and positive",
                      path)


def load_history(path) -> RunHistory:
    """Rebuild a RunHistory from a version-2 or version-1 history file.

    The triangular factors are not stored; they are regrown from the
    stored difference columns with the same incremental factorization
    the original run used, which reproduces them exactly.  Keys the
    loader does not read are ignored: the second-pass flag that older
    files carry, and any key a later writer adds to a version-2 file.
    A file the verifier could not judge (see :func:`_check_records`)
    raises :class:`ParseError`, as malformed JSON does.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=str(path),
                         line=exc.lineno, column=exc.colno) from None
    try:
        if doc.get("format") != "wextrap-history":
            _fail("not a history file (missing format marker)", path)
        version = doc.get("version")
        if type(version) is not int or version not in (1, 2):
            _fail(f"unsupported history version {version!r}", path)
        wspec = doc["weight"]
        if wspec["kind"] == "identity":
            weight = WeightOperator.identity(int(doc["dimension"]))
        elif wspec["kind"] == "diagonal":
            weights = wspec["weights"]  # v1: a plain list of reals
            weight = WeightOperator.diagonal(
                weights if version == 1 else _array(weights, path))
        else:
            weight = WeightOperator.dense(_array(wspec["matrix"], path))
        x0 = _array(doc["x0"], path)
        if version == 2:
            columns = _array(doc["differences"], path)
        elif doc["differences"]:  # v1: a list of columns
            columns = np.ascontiguousarray(
                _array(doc["differences"], path).T)
        else:
            columns = np.zeros((weight.dimension, 0), dtype=complex)
        if columns.ndim != 2:
            _fail(f"differences of shape {columns.shape}, expected (N, m)",
                  path)
        records = []
        for rdoc in doc["records"]:
            records.append(ExtrapolationRecord(
                k=int(rdoc["k"]),
                u_norm=float(rdoc["u_norm"]),
                rdiag=float(rdoc["rdiag"]),
                mpe=_solve_from_dict(rdoc["mpe"], "mpe", path),
                rre=_solve_from_dict(rdoc["rre"], "rre", path),
                terminal=bool(rdoc["terminal"]),
            ))
        status = RunStatus(doc["status"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"history file structure invalid: {exc!r}",
                         path=str(path)) from None
    if columns.shape[0] != weight.dimension and columns.size:
        raise DimensionMismatch(
            f"difference columns of dimension {columns.shape[0]}, weight of "
            f"dimension {weight.dimension}")
    _check_records(records, columns, weight.dimension, path)
    appended = len(records) - (1 if records and records[-1].terminal else 0)
    if appended > 0:
        # the run already accepted these columns under its own rank_tol,
        # which the file does not record: regrow them without a rank test
        factors = mgs_factorize(columns[:, :appended], weight, rank_tol=0.0)
    else:
        factors = empty_factors(weight)
    return RunHistory(
        weight=weight,
        x0=x0,
        differences=columns,
        records=records,
        factors=factors,
        status=status,
        detected_k0=doc.get("detected_k0"),
        k_max=int(doc.get("k_max", len(records) - 1)),
    )
