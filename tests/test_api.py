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
    krylov,
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
    "KrylovState",
    "PeakPlateau",
    "StagnationEntry",
    "TheoremViolation",
    "VectorSequence",
    "append_column",
    "arnoldi_step",
    "check_corollaries",
    "check_coupling",
    "check_master_identity",
    "check_stagnation",
    "gs_factorize",
    "initial_state",
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


def test_removed_methods_are_gone():
    assert not hasattr(WeightOperator, "cholesky_lower")
    assert not hasattr(WeightOperator, "inner")
    assert not hasattr(WQRFactors, "reconstruct")


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


def test_unset_knobs_are_gone():
    # tolerances no caller set are module constants, not parameters
    assert "converge_atol" not in inspect.signature(wextrap.run).parameters
    assert "fom_tol" not in inspect.signature(wextrap.fom_solve).parameters
    assert "fom_tol" not in inspect.signature(krylov._Stages.fom).parameters
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
    parser = cli.build_parser()
    for argv in (["accelerate", "--exist-tol", "1e-12"],
                 ["verify-relations", "--exist-tol", "1e-12"],
                 ["verify-relations", "--plateau-tol", "1e-6"]):
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
    # the "(stagnated)" marker reads MPE existence; only verify-relations,
    # whose 3-1 and 3-15 checks detect stagnation, takes a tolerance
    parser = cli.build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["accelerate", "--stag-tol", "1e-3"])
    args = parser.parse_args(["verify-relations", "--stag-tol", "1e-3"])
    assert args.stag_tol == 1e-3
