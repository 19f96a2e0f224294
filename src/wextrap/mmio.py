"""File formats: Matrix Market, plain vectors/sequences, history JSON.

The Matrix Market reader is deliberately hand-rolled rather than
delegated, so that malformed files are reported with the exact line
(and column where it makes sense) that broke parsing -- the error
contract of this module.  Array and coordinate formats are supported,
with real/integer/complex fields and general/symmetric/hermitian/
skew-symmetric storage.  Explicit zeros in coordinate files are kept,
and duplicate coordinates are summed in file order.

The body is parsed in bulk: one list of its data lines, a check of
their count against the count the size line implies (before the output
is allocated), one ``np.array(tokens, dtype=float)`` conversion, which
applies Python's ``float`` to each token, and one placement by reshape,
triangle indices or ``np.add.at``.  Only when one of these checks fails
does :func:`_locate` re-read the body line by line, to raise the
:class:`ParseError` of the first bad line.  Which files are accepted,
the values read and every error's message, line and column are the same
as for a line-by-line parse.  A column counts from the start of the
raw line, indentation included.  The writer writes array format: it
formats each entry with ``repr`` of a Python float, which reads back
exactly, and writes the body one column at a time, so it never holds
the whole text.

Vector files are whitespace-separated numbers; sequence files hold one
vector per line, and a vector is written as a sequence of one-entry
vectors.  Entries may be written as plain floats or in Python
complex syntax (``1.5+0.25j``).

Run histories persist as compact JSON with sorted keys, so identical
runs serialize to identical bytes.  This module alone writes and reads
the format.  In version 2 every array (``x0``, the (N, m)
``differences``, the weight's ``weights`` or ``matrix``, each solve's
``gamma`` and ``s``) is a block ``{"dtype", "shape", "b64"}`` holding
its little-endian IEEE-754 bytes in base64 (``"<f8"`` when every
imaginary part is zero, else ``"<c16"``), which is exact,
byte-deterministic and platform-independent; scalars are JSON numbers,
and the complex ``alpha`` is a ``[real, imag]`` pair.
:func:`save_history` writes version 2: exactly the compact sorted-key
JSON of :func:`history_to_dict`, but the JSON encoder sees only a
skeleton in which each block's ``"b64"`` holds the slot ``"#i"`` of
its array in a payload list, and sees it a record at a time.  Each
payload, already in its stored dtype and C-contiguous, is
base64-encoded in fixed chunks as the file is written, never held
whole and never re-escaped.  So a save's scratch is the skeleton's
text, one record's dict and one chunk at binascii's twice its size.
:func:`load_history` also reads version 1, where every complex entry
is a ``[real, imag]`` pair, and ignores keys it does not know.  It
decodes a block's base64 str in place on Python 3.11+ (``b64decode``
copies it to ASCII bytes first, as on 3.10).  Loading reconstructs a
full :class:`~wextrap.extrapolate.RunHistory`, refactorizing the
stored difference columns as the run did, in the run's field, so R
matches the original run bit for bit.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import re
import sys

import numpy as np

from .errors import ParseError
from .extrapolate import (
    CoefficientSolve,
    ExtrapolationRecord,
    RunHistory,
    RunStatus,
)
from .qr import _grow_known
from .weights import WeightOperator, _field_of

__all__ = [
    "read_matrix",
    "write_matrix",
    "read_vector",
    "write_vector",
    "read_sequence",
    "write_sequence",
    "history_to_dict",
    "save_history",
    "load_history",
]

_FORMATS = ("array", "coordinate")
_FIELDS = ("real", "integer", "complex")
_SYMMETRIES = ("general", "symmetric", "hermitian", "skew-symmetric")


def _fail(msg, path, line=None, column=None):
    raise ParseError(msg, path=str(path), line=line, column=column)


def _tokens(raw):
    """The whitespace-separated tokens of a raw (unstripped) line, each
    as ``(column, token)`` with its 1-based column in that line."""
    out, pos = [], 0
    for token in raw.split():
        # only whitespace lies between pos and the token's start
        pos = raw.find(token, pos)
        out.append((pos + 1, token))
        pos += len(token)
    return out


def _parse_number(token, column, field, path, lineno):
    try:
        return float(token)
    except ValueError:
        pass
    if field is None:  # free-form vector files also accept complex syntax
        try:
            return complex(token)
        except ValueError:
            pass
    _fail(f"cannot parse number {token!r}", path, lineno, column)


def _locate(raw_lines, first, fmt, field, rows, cols, count, path):
    """Re-read a Matrix Market body line by line and raise the
    ParseError of its first malformed line, or of a wrong entry count.

    ``first`` is the number of lines before the body (header, size line
    and any comments).  :func:`read_matrix` calls this only once one of
    its bulk checks has failed; it returns only on a sound body.
    """
    per_entry = 2 if field == "complex" else 1
    found = 0
    for lineno, raw in enumerate(raw_lines[first:], start=first + 1):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        tokens = _tokens(raw)
        if fmt == "array":
            if len(tokens) != per_entry:
                _fail(f"expected {per_entry} value(s) per line, got {text!r}",
                      path, lineno)
            if found >= count:
                _fail("more data lines than entries", path, lineno)
        else:
            if len(tokens) != 2 + per_entry:
                _fail(f"expected 'i j value' with {per_entry} number(s), "
                      f"got {text!r}", path, lineno)
            try:
                i, j = int(tokens[0][1]), int(tokens[1][1])
            except ValueError:
                _fail(f"indices must be integers, got {text!r}", path, lineno)
            if not (1 <= i <= rows and 1 <= j <= cols):
                _fail(f"index ({i}, {j}) outside {rows} x {cols}", path,
                      lineno)
            tokens = tokens[2:]
        for column, token in tokens:
            _parse_number(token, column, field, path, lineno)
        found += 1
    if found != count:
        _fail(f"expected {count} entries, found {found}" if fmt == "array"
              else f"size line promised {count} entries, found {found}",
              path, len(raw_lines))


def read_matrix(path) -> np.ndarray:
    """Dense complex matrix from a Matrix Market file."""
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()
    if not raw_lines:
        _fail("empty file, expected a MatrixMarket header", path, 1)
    header = raw_lines[0].strip()
    parts = header.split()
    if (len(parts) != 5 or parts[0] != "%%MatrixMarket"
            or parts[1].lower() != "matrix"):
        _fail(f"malformed header {header!r}: expected "
              "'%%MatrixMarket matrix <format> <field> <symmetry>'", path, 1)
    fmt, field, sym = (p.lower() for p in parts[2:5])
    if fmt not in _FORMATS:
        _fail(f"unsupported format {fmt!r} (supported: {_FORMATS})", path, 1)
    if field not in _FIELDS:
        _fail(f"unsupported field {field!r} (supported: {_FIELDS})", path, 1)
    if sym not in _SYMMETRIES:
        _fail(f"unsupported symmetry {sym!r} (supported: {_SYMMETRIES})",
              path, 1)

    for lineno, raw in enumerate(raw_lines[1:], start=2):
        size_line = raw.strip()
        if size_line and not size_line.startswith("%"):
            break
    else:
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
    if fmt == "coordinate":
        count = dims[2]
    elif sym == "general":
        count = rows * cols
    elif sym == "skew-symmetric":  # the zero diagonal is not stored
        count = rows * (rows - 1) // 2
    else:
        count = rows * (rows + 1) // 2

    def locate():
        _locate(raw_lines, lineno, fmt, field, rows, cols, count, path)

    # the body in bulk: each check below is all-or-nothing, and when one
    # fails, locate() re-reads the body to name the first bad line
    body = [text for raw in raw_lines[lineno:]
            if (text := raw.strip()) and text[0] != "%"]
    if len(body) != count:
        locate()
    per_entry = 2 if field == "complex" else 1
    width = per_entry + (2 if fmt == "coordinate" else 0)
    if width == 1:
        value_tokens = [body]  # a line of two tokens fails float() below
    else:
        split = [text.split() for text in body]
        if any(len(tokens) != width for tokens in split):
            locate()
        value_tokens = [[tokens[k] for tokens in split]
                        for k in range(width - per_entry, width)]
    try:
        # float() semantics token by token, so the same tokens pass
        values = np.array(value_tokens, dtype=float)
        if fmt == "coordinate":
            i = [int(tokens[0]) for tokens in split]
            j = [int(tokens[1]) for tokens in split]
    except ValueError:
        locate()
        raise
    if fmt == "coordinate" and count and not (
            1 <= min(i) and max(i) <= rows and 1 <= min(j) and max(j) <= cols):
        locate()
    if field == "complex":  # each (re, im) pair is one complex128
        values = np.ascontiguousarray(values.T).view(complex)[:, 0]
    else:
        values = values[0]

    out = np.zeros((rows, cols), dtype=complex)
    if fmt == "coordinate":
        # unbuffered and in file order: duplicates sum as written
        np.add.at(out, (np.array(i, dtype=np.intp) - 1,
                        np.array(j, dtype=np.intp) - 1), values)
    elif sym == "general":
        out[...] = values.reshape(cols, rows).T
    else:
        # the upper triangle by rows lists the lower triangle by columns
        j, i = np.triu_indices(rows, 1 if sym == "skew-symmetric" else 0)
        out[i, j] = values

    if sym in ("symmetric", "hermitian", "skew-symmetric"):
        lower = np.tril(out, -1)
        if sym == "symmetric":
            out = out + lower.T
        elif sym == "hermitian":
            out = out + lower.conj().T
        else:
            out = out - lower.T
    return out


def write_matrix(path, a) -> None:
    """Write a dense matrix in array format; field is complex iff any
    imaginary part is nonzero.  The body is written one column at a
    time."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    field = "complex" if np.any(a.imag != 0.0) else "real"
    rows, cols = a.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"%%MatrixMarket matrix array {field} general\n"
                 f"{rows} {cols}\n")
        # column by column, none without rows; repr of a Python float
        # reads back exactly
        for j in range(cols if rows else 0):
            values = map(repr, a.real[:, j].tolist())
            if field == "complex":
                values = map("{} {!r}".format, values,
                             a.imag[:, j].tolist())
            fh.write("\n".join(values) + "\n")


def _rows(path):
    """``(line number, numbers)`` for every line of a free-form vector
    file that is neither blank nor a ``%`` or ``#`` comment."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if text and not text.startswith(("%", "#")):
                yield lineno, [_parse_number(token, column, None, path,
                                             lineno)
                               for column, token in _tokens(raw)]


def read_vector(path) -> np.ndarray:
    """1-D vector from whitespace-separated numbers."""
    values = [z for _, row in _rows(path) for z in row]
    if not values:
        _fail("no numbers found", path)
    return np.asarray(values, dtype=complex)


def write_vector(path, v) -> None:
    """One entry per line: a sequence of one-entry vectors."""
    write_sequence(path, np.reshape(v, (-1, 1)))


def _entry_repr(z) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    text = repr(z)  # "(1+2j)" -> "1+2j", round-trips through complex()
    return text[1:-1] if text.startswith("(") else text


def read_sequence(path) -> np.ndarray:
    """(count, dimension) array, one vector per nonempty line."""
    rows = []
    for lineno, row in _rows(path):
        if rows and len(row) != len(rows[0]):
            _fail(f"vector has {len(row)} entries, previous ones had "
                  f"{len(rows[0])}", path, lineno)
        rows.append(row)
    if len(rows) < 2:
        _fail(f"a sequence needs at least 2 vectors, found {len(rows)}", path)
    return np.asarray(rows, dtype=complex)


def write_sequence(path, vectors) -> None:
    vectors = np.atleast_2d(np.asarray(vectors, dtype=complex))
    with open(path, "w", encoding="utf-8") as fh:
        for row in vectors:
            # a row as Python complex: a numpy scalar per entry is slower
            fh.write(" ".join(map(_entry_repr, row.tolist())) + "\n")


# -- run histories ---------------------------------------------------

def _pair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _block(a, payloads=None) -> dict:
    """One array as a version-2 block.  Without ``payloads`` its
    ``"b64"`` is the base64 itself; with a ``payloads`` list the stored
    array (a copy only where ``a`` is not already in its stored dtype
    and C-contiguous) is appended to it and ``"b64"`` holds the slot
    ``"#i"`` of its index instead."""
    a = np.asarray(a)
    dtype = "<c16" if np.iscomplexobj(a) and a.imag.any() else "<f8"
    stored = np.ascontiguousarray(a.real if dtype == "<f8" else a,
                                  dtype=dtype)
    if payloads is None:
        # a copy is freed before the decode: it, the base64 bytes and
        # their str are never alive at once
        encoded = base64.b64encode(stored)
        del stored
        b64 = encoded.decode("ascii")
    else:
        b64 = f"#{len(payloads)}"
        payloads.append(stored)
    return {"dtype": dtype, "shape": list(a.shape), "b64": b64}


def _solve_to_dict(solve: CoefficientSolve, payloads) -> dict:
    out = {"method": solve.method, "exists": bool(solve.exists)}
    out["gamma"] = (None if solve.gamma is None
                    else _block(solve.gamma, payloads))
    out["phi"] = None if solve.phi is None else float(solve.phi)
    out["alpha"] = None if solve.alpha is None else _pair(solve.alpha)
    out["lam"] = None if solve.lam is None else float(solve.lam)
    out["s"] = None if solve.s is None else _block(solve.s, payloads)
    return out


def history_to_dict(history: RunHistory) -> dict:
    """JSON-ready dict of the version-2 history format (see the module
    docstring).  Key order is irrelevant: serialize with sort_keys for
    byte-stable output."""
    return _history_doc(history, None, [_record_doc(rec, None)
                                        for rec in history.records])


def _record_doc(rec, payloads) -> dict:
    return {
        "k": rec.k,
        "u_norm": float(rec.u_norm),
        "rdiag": float(rec.rdiag),
        "terminal": bool(rec.terminal),
        "mpe": _solve_to_dict(rec.mpe, payloads),
        "rre": _solve_to_dict(rec.rre, payloads),
    }


def _history_doc(history: RunHistory, payloads, records) -> dict:
    """:func:`history_to_dict` with ``records`` as its records, or with a
    ``payloads`` list its skeleton (see :func:`_block`)."""
    w = history.weight
    if w.kind == "identity":
        weight_spec = {"kind": "identity"}
    elif w.kind == "diagonal":
        # M applied to ones is the stored weights, exactly
        weight_spec = {"kind": "diagonal", "weights": _block(
            w.apply(np.ones(w.dimension)), payloads)}
    else:
        weight_spec = {"kind": "dense",
                       "matrix": _block(w.matrix(), payloads)}
    return {
        "format": "wextrap-history",
        "version": 2,
        "dimension": int(w.dimension),
        "k_max": int(history.k_max),
        "status": history.status.value,
        "detected_k0": history.detected_k0,
        "weight": weight_spec,
        "x0": _block(history.x0, payloads),
        "differences": _block(history.differences, payloads),
        "records": records,
    }


#: bytes of a history payload encoded per base64 call: a multiple of 3,
#: so every chunk but the last encodes with no "=" padding, and the
#: encoded chunks joined are the whole payload's base64.  binascii
#: allocates twice its input for a call's output before trimming it to
#: 4/3, so a call's scratch is 96 KiB
_CHUNK = 3 * 2 ** 14

#: the compact sorted-key form of every history file
_COMPACT = {"sort_keys": True, "separators": (",", ":")}


def save_history(history: RunHistory, path) -> None:
    """Write the version-2 history format: compact JSON with sorted
    keys, so identical runs give identical bytes.

    The file is exactly ``json.dumps(history_to_dict(history),
    sort_keys=True, separators=(",", ":"))`` and a newline, but the
    JSON encoder sees only the skeleton, whose slots mark where each
    array's base64 goes, one record at a time: each record's compact
    text is encoded from its own dict, and the texts are spliced into
    the top-level document's ``"records"``.  That base64, which never
    needs escaping, is encoded :data:`_CHUNK` bytes at a time as the
    file is written.  So beside the history a save holds the skeleton's
    text, one record's dict and one chunk's encoding, never a dict tree
    of every record, the encoder's token list of the whole document or
    an array's whole base64.  Every check and conversion runs before
    the file is opened, so a save that fails in them leaves an existing
    file as it was; an I/O error mid-write can leave a partial file.
    """
    payloads = []
    head, tail = json.dumps(_history_doc(history, payloads, []),
                            **_COMPACT).split('"records":[]')
    records = (json.dumps(_record_doc(rec, payloads), **_COMPACT)
               for rec in history.records)
    # pieces of the skeleton alternate with the index in a slot; a "#"
    # elsewhere in the skeleton would fail the check below.  Only the
    # pieces outlive this line
    pieces = re.split(rb'#(\d+)(?=")', f'{head}"records":['
                      f'{",".join(records)}]{tail}'.encode("ascii"))
    slots = [int(i) for i in pieces[1::2]]
    if sorted(slots) != list(range(len(payloads))):
        raise RuntimeError(f"history skeleton holds {len(slots)} payload "
                           f"slots for {len(payloads)} payloads")
    with open(path, "wb") as fh:
        fh.write(pieces[0])
        for slot, text in zip(slots, pieces[2::2]):
            _write_base64(fh, payloads[slot])
            fh.write(text)
        fh.write(b"\n")


def _write_base64(fh, a) -> None:
    """Write the base64 of C-contiguous ``a``'s bytes, :data:`_CHUNK`
    bytes at a time; an array of at most one chunk in one call."""
    if a.nbytes <= _CHUNK:
        fh.write(base64.b64encode(a))
        return
    raw = a.reshape(-1).view(np.uint8)
    for start in range(0, raw.size, _CHUNK):
        fh.write(base64.b64encode(raw[start:start + _CHUNK]))


#: binascii.a2b_base64 takes strict_mode from Python 3.11 on
_A2B_STRICT = sys.version_info >= (3, 11)


def _array(obj, path, consume=False) -> np.ndarray:
    """A stored array as a fresh array in its stored field.

    ``obj`` is a version-2 block ``{"dtype", "shape", "b64"}``, read as
    float64 (``"<f8"``) or complex128 (``"<c16"``), or a version-1
    nested list of ``[re, im]`` pairs, read as complex128.  A NaN or infinite
    entry is a parse error: no run writes one, and the verifier could
    not judge it.  With ``consume`` the block's base64 text leaves it
    and is freed once decoded, before the decoded bytes are copied.
    """
    if not isinstance(obj, dict):
        pairs = np.asarray(obj, dtype=float)
        if pairs.ndim < 2 or pairs.shape[-1] != 2:
            _fail(f"expected [re, im] pairs, got shape {pairs.shape}", path)
        return _finite(pairs.view(complex)[..., 0], path)
    dtype, shape = obj["dtype"], obj["shape"]
    if dtype not in ("<f8", "<c16"):
        _fail(f"unsupported array dtype {dtype!r}", path)
    if not all(type(n) is int and n >= 0 for n in shape):
        _fail(f"invalid array shape {shape!r}", path)
    text = obj.pop("b64") if consume else obj["b64"]
    try:
        # from Python 3.11 b64decode(validate=True) is this strict
        # decode after an ASCII copy of a str; binascii reads it in place
        raw = (binascii.a2b_base64(text, strict_mode=True)
               if _A2B_STRICT and isinstance(text, str)
               else base64.b64decode(text, validate=True))
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        _fail(f"invalid base64 in array block: {exc}", path)
    del text
    needed = math.prod(shape) * np.dtype(dtype).itemsize
    if len(raw) != needed:
        _fail(f"array block holds {len(raw)} bytes, shape {shape} of "
              f"{dtype} needs {needed}", path)
    # astype copies out of the read-only buffer, into native byte order
    return _finite(np.frombuffer(raw, dtype=dtype).reshape(shape)
                   .astype(float if dtype == "<f8" else complex), path)


def _finite(a, path) -> np.ndarray:
    if not np.isfinite(a).all():
        _fail("array block holds a non-finite value", path)
    return a


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


def _check_records(records, columns, x0, dimension, path) -> None:
    """Reject a history the verifier cannot judge: records out of
    order, an early terminal stage, a solve missing a part it must
    carry, or arrays of the wrong size.  Values are not judged beyond
    a finite positive phi, so a tampered number still reaches the
    verifier."""
    if x0.shape != (dimension,):
        _fail(f"x0 of shape {x0.shape}, expected ({dimension},)", path)
    if columns.shape[0] != dimension and columns.size:  # N x 0 or [0, 0]
        _fail(f"difference columns of dimension {columns.shape[0]}, weight "
              f"of dimension {dimension}", path)
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

    The factors are not stored; they are regrown from the stored
    difference block as the original run grew its R
    (:func:`wextrap.qr._grow_known` on the stored block, in the field
    of the weight, x0 and the differences, which is the run's), so R
    is the run's bit for bit.  The history keeps the frame's factors, so
    reading its ``factors`` regrows nothing: it maps them back to the
    Q and P = M Q the run's ``factors`` would give.  Keys the loader
    does not read are ignored: the second-pass flag that older files
    carry, and any key a later writer adds to a version-2 file.  A
    file the verifier could not judge (see :func:`_check_records`)
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
        dimension = doc["dimension"]
        if type(dimension) is not int:
            _fail(f"dimension = {dimension!r} is not an integer", path)
        wspec = doc["weight"]
        if wspec["kind"] == "identity":
            weight = WeightOperator.identity(dimension)
        elif wspec["kind"] == "diagonal":
            weights = wspec["weights"]  # v1: a plain list of reals
            weight = WeightOperator.diagonal(
                weights if version == 1 else _array(weights, path))
        else:
            # the block's base64 text leaves the document, so it is
            # freed once decoded, and the weight keeps the decoded M
            weight = WeightOperator._dense(_array(wspec["matrix"], path,
                                                  consume=True))
        if weight.dimension != dimension:
            _fail(f"dimension = {dimension}, the weight's is "
                  f"{weight.dimension}", path)
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
        k_max = doc.get("k_max", len(records) - 1)
        detected_k0 = doc.get("detected_k0")
        if type(k_max) is not int:
            _fail(f"k_max = {k_max!r} is not an integer", path)
        if detected_k0 is not None and type(detected_k0) is not int:
            _fail(f"detected_k0 = {detected_k0!r} is neither an integer nor "
                  "null", path)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"history file structure invalid: {exc!r}",
                         path=str(path)) from None
    _check_records(records, columns, x0, weight.dimension, path)
    appended = len(records) - (1 if records and records[-1].terminal else 0)
    # the run already accepted these columns under its rank test, which
    # older versions let a caller loosen and no file records: regrow
    # them without one, framing the stored block as the run did, in the
    # run's field (that of the weight, x0 and the differences).
    # With none appended the factors are N x 0, whatever the shape of
    # an empty block
    _, frame, _ = _grow_known(weight, columns, appended,
                              _field_of(weight, x0, columns), 0.0)
    history = RunHistory(
        weight=weight,
        x0=x0,
        differences=columns,
        records=records,
        r=frame.r,
        status=status,
        detected_k0=detected_k0,
        k_max=k_max,
    )
    history._frame = frame
    return history
