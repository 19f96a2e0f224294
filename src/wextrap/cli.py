"""Command-line interface.

Exit codes are a stable contract: 0 success, 1 a relation/equivalence
defect above threshold, 2 I/O or parse trouble, 3 dimension mismatch,
4 wrong problem kind for the subcommand, 5 rank deficiency.

The default output directory is the current one, overridable with the
WEXTRAP_OUTPUT_DIR environment variable; relative --out paths resolve
against it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import mmio
from .errors import (
    DimensionMismatch,
    InsufficientVectors,
    ParseError,
    RankDeficient,
    WextrapError,
)
from .extrapolate import history_rows, run
from .krylov import equivalence_check
from .problems import BUILTIN_MAPS, FixedPointProblem, iterate
from .qr import RANK_TOL, mgs_factorize
from .relations import (
    CATALOG,
    DEFAULT_THRESHOLDS,
    STAG_TOL,
    verify_history,
)
from .weights import WeightOperator


def _out_path(name_or_none, default_name):
    base = Path(os.environ.get("WEXTRAP_OUTPUT_DIR", "."))
    if name_or_none is None:
        return base / default_name
    p = Path(name_or_none)
    return p if p.is_absolute() else base / p


def _positive(text):
    value = float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive number")
    return value


def _load_weight(spec, dimension):
    if spec is None or spec == "identity":
        return WeightOperator.identity(dimension)
    kind, sep, path = spec.partition(":")
    if not sep or not path:
        raise ParseError(
            f"weight spec {spec!r} not understood; use identity, "
            "diag:<file> or dense:<file>")
    if kind == "diag":
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
        if first.startswith("%%MatrixMarket"):
            data = mmio.read_matrix(path)
            values = np.diag(data) if min(data.shape) > 1 else data.ravel()
        else:
            values = mmio.read_vector(path)
        return WeightOperator.diagonal(values)
    if kind == "dense":
        return WeightOperator.dense(mmio.read_matrix(path))
    raise ParseError(f"unknown weight kind {kind!r}; use identity, "
                     "diag:<file> or dense:<file>")


def _load_x0(spec, dimension):
    if spec is None or spec == "zero":
        return np.zeros(dimension, dtype=complex)
    return mmio.read_vector(spec)


def _resolve_problem(args):
    """(problem-or-None, iterates, dimension) from the input flags."""
    if getattr(args, "sequence", None):
        x = mmio.read_sequence(args.sequence)
        return None, x, x.shape[1]
    if getattr(args, "linear", None):
        t = mmio.read_matrix(args.linear[0])
        d = mmio.read_vector(args.linear[1])
        x0 = _load_x0(args.x0, t.shape[0])
        problem = FixedPointProblem.linear(t, d, x0)
    elif getattr(args, "map", None):
        if args.dim is None:
            raise ParseError("--map needs --dim")
        factory = BUILTIN_MAPS[args.map]
        problem = factory(args.dim, x0=_load_x0(args.x0, args.dim))
    else:
        raise ParseError(
            "no input given; use --sequence, --linear T d, or --map NAME")
    iters = args.iters
    if iters is None:
        iters = args.k_max + 1 if args.k_max is not None else 10
    return problem, iterate(problem, iters), problem.dimension


def _print_history_table(history, methods):
    show_mpe = methods in ("both", "mpe")
    show_rre = methods in ("both", "rre")
    for rec in history.records:
        parts = [f"k={rec.k}", f"|u|={rec.u_norm:.6e}"]
        if show_mpe:
            parts.append("MPE: " + ("—" if not rec.mpe.exists
                                    else f"{rec.mpe.phi:.6e}"))
        if show_rre:
            # RRE stagnates exactly where MPE does not exist (3-1)
            marker = " (terminal)" if rec.terminal \
                else "" if rec.mpe.exists else " (stagnated)"
            phi = "—" if rec.rre.phi is None else f"{rec.rre.phi:.6e}"
            parts.append("RRE: " + phi + marker)
        print("  ".join(parts))
    print(f"status: {history.status.value}"
          + ("" if history.detected_k0 is None
             else f" (k0 = {history.detected_k0})"))


def _run_from_args(args):
    _, x, dim = _resolve_problem(args)
    weight = _load_weight(args.weight, dim)
    return run(x, weight, k_max=args.k_max, rank_tol=args.rank_tol)


def cmd_accelerate(args):
    history = _run_from_args(args)
    _print_history_table(history, args.methods)
    out = _out_path(args.out, "history.json")
    mmio.save_history(history, out)
    print(f"history written to {out}")
    if args.csv:
        csv_path = _out_path(args.csv, "history.csv")
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "phi_mpe", "phi_rre"])
            for row in history_rows(history):
                writer.writerow([
                    row["k"],
                    "" if row["phi_mpe"] is None else repr(row["phi_mpe"]),
                    "" if row["phi_rre"] is None else repr(row["phi_rre"]),
                ])
        print(f"csv written to {csv_path}")
    return 0


def cmd_verify(args):
    if args.history:
        history = mmio.load_history(args.history)
        recorded = True
    else:
        history = _run_from_args(args)
        recorded = False
    thresholds = None
    if args.threshold is not None:
        thresholds = {label: args.threshold for label in DEFAULT_THRESHOLDS}
    report = verify_history(history, use_recorded_phi=recorded,
                            thresholds=thresholds, stag_tol=args.stag_tol)
    for st in report.stages:
        cells = [f"k={st.k}", f"mpe={'yes' if st.mpe_exists else 'no'}"]
        for row in CATALOG:
            value = getattr(st, row.field)
            cells.append(f"{row.label}: " + ("n/a" if value is None
                                             else f"{value:.2e}"))
        if st.stagnation_detected is not None:
            cells.append("stagnated" if st.stagnation_detected else "progress")
        print("  ".join(cells))
    if report.peaks or report.plateaus:
        print(f"peaks: {report.peaks}  plateaus: {report.plateaus}  "
              f"overlap: {report.overlap}")
    if args.report:
        path = _out_path(args.report, "relations.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report.to_dict(), sort_keys=True, indent=2))
            fh.write("\n")
        print(f"report written to {path}")
    if not report.ok:
        _print_failures(report)
        return 1
    print("all relation checks passed")
    return 0


def _print_failures(report):
    """One FAIL line per identity with a defect above threshold."""
    for row in CATALOG:
        limit = report.thresholds[row.label]
        worst_k = worst = None
        for st in report.stages:
            value = getattr(st, row.field)
            if value is not None and value > limit \
                    and (worst is None or value > worst):
                worst_k, worst = st.k, value
        if worst is not None:
            print(f"FAIL: identity ({row.label}) at k={worst_k}: defect "
                  f"{worst:.3e} exceeds threshold {limit:g}", file=sys.stderr)
    for st in report.stages:
        if st.stagnation_consistent is False:
            print(f"FAIL: stagnation/existence mismatch (3-1) at k={st.k}",
                  file=sys.stderr)
        if st.monotone_355 is False or st.nonincreasing is False:
            print(f"FAIL: residual-norm decrease (3-55) violated at k={st.k}",
                  file=sys.stderr)


def cmd_krylov_compare(args):
    if args.map:
        print("krylov-compare requires a linear problem (--linear T d); "
              f"--map {args.map} is nonlinear", file=sys.stderr)
        return 4
    if not args.linear:
        raise ParseError("krylov-compare needs --linear T d")
    t = mmio.read_matrix(args.linear[0])
    d = mmio.read_vector(args.linear[1])
    x0 = _load_x0(args.x0, t.shape[0])
    weight = _load_weight(args.weight, t.shape[0])
    cmp = equivalence_check(t, d, x0, weight, args.k_max)
    bad = 0.0
    for i, k in enumerate(cmp.ks):
        fom = cmp.fom_mpe_defect[i]
        gmr = cmp.gmr_rre_defect[i]
        fom_text = f"{fom:.3e}" if fom is not None else (
            "(not defined)" if not cmp.fom_defined[i] else "n/a")
        gmr_text = f"{gmr:.3e}" if gmr is not None else "n/a"
        flag = "" if cmp.definedness_consistent[i] else "  MISMATCH"
        print(f"k={k}  FOM-MPE: {fom_text}  GMR-RRE: {gmr_text}{flag}")
        for value in (fom, gmr):
            if value is not None:
                bad = max(bad, value)
        if not cmp.definedness_consistent[i]:
            bad = float("inf")
    if bad >= args.threshold:
        print(f"FAIL: worst solver/extrapolation defect {bad:.3e} at or "
              f"above {args.threshold:g}", file=sys.stderr)
        return 1
    print(f"max defect {bad:.3e} < {args.threshold:g}")
    return 0


def cmd_qr(args):
    a = mmio.read_matrix(args.matrix)
    weight = _load_weight(args.weight, a.shape[0])
    try:
        factors = mgs_factorize(a, weight, rank_tol=args.rank_tol)
    except RankDeficient as exc:
        print(f"rank deficiency: column {exc.index} is dependent "
              f"(residual {exc.residual_norm:.3e}, threshold "
              f"{exc.threshold:.3e})", file=sys.stderr)
        return 5
    q_path = _out_path(args.q_out, "Q.mtx")
    r_path = _out_path(args.r_out, "R.mtx")
    mmio.write_matrix(q_path, factors.q)
    mmio.write_matrix(r_path, factors.r)
    print(f"factors written to {q_path} and {r_path}")
    if args.check:
        print(f"orthonormality deviation: "
              f"{factors.orthonormality_defect():.3e}")
    return 0


def _add_input_flags(sub, with_map=True):
    sub.add_argument("--sequence", metavar="FILE",
                     help="iterate sequence, one vector per line")
    sub.add_argument("--linear", nargs=2, metavar=("T.mtx", "d.vec"),
                     help="linear map T (MatrixMarket) and offset d")
    if with_map:
        sub.add_argument("--map", choices=sorted(BUILTIN_MAPS),
                         help="built-in nonlinear map")
        sub.add_argument("--dim", type=int, help="dimension for --map")
    sub.add_argument("--x0", default=None, metavar="FILE|zero",
                     help="initial vector (default zero)")
    sub.add_argument("--iters", type=int, default=None,
                     help="iterates to generate (default k_max+1 or 10)")
    sub.add_argument("--weight", default=None,
                     metavar="identity|diag:FILE|dense:FILE")
    sub.add_argument("--k-max", dest="k_max", type=int, default=None)
    sub.add_argument("--rank-tol", dest="rank_tol", type=_positive,
                     default=RANK_TOL)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wextrap",
        description="Vector extrapolation and weighted Krylov solvers")
    subs = parser.add_subparsers(dest="command", required=True)

    acc = subs.add_parser("accelerate",
                          help="run both extrapolation methods on a sequence")
    _add_input_flags(acc)
    acc.add_argument("--methods", choices=["both", "mpe", "rre"],
                     default="both")
    acc.add_argument("--out", default=None, help="history JSON path")
    acc.add_argument("--csv", default=None, help="also write per-k CSV")
    acc.set_defaults(func=cmd_accelerate)

    ver = subs.add_parser("verify-relations",
                          help="check the identity catalog on a run")
    _add_input_flags(ver)
    ver.add_argument("--history", metavar="FILE",
                     help="verify a stored history instead of running")
    ver.add_argument("--threshold", type=_positive, default=None,
                     help="defect threshold applied to every identity")
    ver.add_argument("--stag-tol", dest="stag_tol", type=_positive,
                     default=STAG_TOL)
    ver.add_argument("--report", default=None, help="write JSON report here")
    ver.set_defaults(func=cmd_verify)

    kry = subs.add_parser("krylov-compare",
                          help="compare FOM/GMR against the extrapolants")
    kry.add_argument("--linear", nargs=2, metavar=("T.mtx", "d.vec"))
    kry.add_argument("--map", choices=sorted(BUILTIN_MAPS),
                     help="rejected; present so the mistake is diagnosable")
    kry.add_argument("--x0", default=None)
    kry.add_argument("--weight", default=None)
    kry.add_argument("--k-max", dest="k_max", type=int, default=4)
    kry.add_argument("--threshold", type=_positive, default=1e-8)
    kry.set_defaults(func=cmd_krylov_compare)

    qr = subs.add_parser("qr", help="weighted QR factorization of a matrix")
    qr.add_argument("matrix", help="MatrixMarket file to factor")
    qr.add_argument("--weight", default=None)
    qr.add_argument("--rank-tol", dest="rank_tol", type=_positive,
                    default=RANK_TOL)
    qr.add_argument("--check", action="store_true",
                    help="print the orthonormality deviation")
    qr.add_argument("--q-out", default=None)
    qr.add_argument("--r-out", default=None)
    qr.set_defaults(func=cmd_qr)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DimensionMismatch, InsufficientVectors) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RankDeficient as exc:
        print(f"error: rank deficiency at column {exc.index}",
              file=sys.stderr)
        return 5
    except WextrapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
