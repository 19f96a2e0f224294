"""The package's public surface.

Every name a module lists in ``__all__`` must resolve, so a stale entry
fails here rather than at a user's ``from wextrap import *``; and the
names the library no longer provides must stay gone.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import wextrap
from wextrap import (
    FixedPointProblem,
    RunHistory,
    WeightOperator,
    WQRFactors,
    cli,
    extrapolate,
    krylov,
    mmio,
    qr,
    relations,
)

MODULES = ["wextrap"] + sorted(
    f"wextrap.{info.name}" for info in pkgutil.iter_modules(wextrap.__path__)
    if not info.name.startswith("_")
)

#: names the library once exported and no longer has
REMOVED = [
    "BREAKDOWN_TOL",
    "Breakdown",
    "CouplingEntry",
    "DifferenceMatrix",
    "FOM_TOL",
    "KrylovState",
    "MpeNonexistent",
    "PeakPlateau",
    "STAG_TOL",
    "StagnationEntry",
    "TheoremViolation",
    "VectorSequence",
    "append_column",
    "arnoldi_step",
    "assemble",
    "check_corollaries",
    "check_coupling",
    "check_master_identity",
    "check_stagnation",
    "empty_factors",
    "gs_factorize",
    "history_rows",
    "initial_state",
    "make_mpe_failure_problem",
    "make_mpe_failure_sequence",
    "make_near_stagnation_problem",
    "mpe_coefficients",
    "peak_plateau_report",
    "rre_coefficients",
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate __all__ entry"
    missing = [name for name in exported if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    for module in MODULES:
        assert not hasattr(importlib.import_module(module), name), module
    with pytest.raises(ImportError):
        exec(f"from wextrap import {name}", {})


def test_history_format_has_one_owner():
    # mmio writes and reads the history format; extrapolate knows none
    # of it
    assert wextrap.history_to_dict is mmio.history_to_dict
    for name in ("history_to_dict", "_history_doc", "_block", "base64"):
        assert not hasattr(extrapolate, name), name


def test_removed_methods_are_gone():
    assert not hasattr(WeightOperator, "cholesky_lower")
    assert not hasattr(WeightOperator, "inner")
    assert not hasattr(WQRFactors, "reconstruct")
    assert not hasattr(WQRFactors, "dimension")
    # a stage's factors are hist.factors.leading(k + 1)
    assert not hasattr(RunHistory, "factors_at")


def test_orthogonalization_switch_is_gone():
    # one kernel, with no user switch on it
    for fn in (wextrap.run, wextrap.orthogonalize_column,
               wextrap.mgs_factorize):
        assert "reorthogonalize" not in inspect.signature(fn).parameters
    assert "reorthogonalized" not in {
        f.name for f in dataclasses.fields(RunHistory)}
    parser = cli.build_parser()
    for argv in (["accelerate", "--reorth"], ["verify-relations", "--reorth"],
                 ["qr", "A.mtx", "--reorth"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_write_matrix_has_one_format():
    # array format, with no comment lines: the one form callers write
    assert list(inspect.signature(mmio.write_matrix).parameters) == [
        "path", "a"]


def test_unset_knobs_are_gone():
    # tolerances no caller set are module constants, not parameters
    assert "converge_atol" not in inspect.signature(wextrap.run).parameters
    assert "fom_tol" not in inspect.signature(wextrap.fom_solve).parameters
    assert "solve_for_solution" not in inspect.signature(
        FixedPointProblem.linear).parameters
    assert "known_solution" not in inspect.signature(
        FixedPointProblem.nonlinear).parameters
    assert "known_solution" not in {
        f.name for f in dataclasses.fields(FixedPointProblem)}
    # the verifier reports a violation; nothing raises one
    assert "raise_on_violation" not in inspect.signature(
        wextrap.verify_history).parameters
    assert "exist_tol" not in inspect.signature(wextrap.run).parameters
    assert "plateau_tol" not in inspect.signature(
        wextrap.verify_history).parameters
    assert "plateau_tol" not in {
        f.name for f in dataclasses.fields(relations.RelationReport)}
    # the rank tolerance is qr.RANK_TOL and the stagnation test reads
    # extrapolate.EXIST_TOL, both at call time
    for fn in (wextrap.run, wextrap.mgs_factorize):
        assert "rank_tol" not in inspect.signature(fn).parameters
    assert "stag_tol" not in inspect.signature(
        wextrap.verify_history).parameters
    assert "stag_tol" not in inspect.signature(relations._measure).parameters
    parser = cli.build_parser()
    for argv in (["accelerate", "--exist-tol", "1e-12"],
                 ["verify-relations", "--exist-tol", "1e-12"],
                 ["verify-relations", "--plateau-tol", "1e-6"],
                 ["accelerate", "--rank-tol", "1e-13"],
                 ["verify-relations", "--rank-tol", "1e-13"],
                 ["qr", "A.mtx", "--rank-tol", "1e-13"],
                 ["verify-relations", "--stag-tol", "1e-10"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_krylov_copy_of_the_catalog_is_gone():
    # verify_history measures 3-16, 3-17, 3-18 and 3-55 once, on U_k
    # gamma; equivalence_check measures U_k gamma = r(s)
    names = {f.name for f in dataclasses.fields(krylov.KrylovComparison)}
    for name in ("coupling_222", "coupling_223", "coupling_224",
                 "monotone_225"):
        assert name not in names
    assert not hasattr(relations, "_intersect_ranges")
    # the growth loop writes its columns itself: no append helper
    assert not hasattr(qr, "_append")
    # the "(stagnated)" marker reads MPE existence, and the 3-1 and
    # 3-15 checks of verify-relations read extrapolate.EXIST_TOL:
    # neither subcommand takes a stagnation tolerance
    parser = cli.build_parser()
    for command in ("accelerate", "verify-relations"):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--stag-tol", "1e-3"])
