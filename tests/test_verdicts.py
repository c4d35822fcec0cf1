"""The verdicts of a small slice of algebras and runs outside the gated
ladder, the known false failures among them.

Each known false failure is a strict xfail that absorbs only its own
exception and names the roadmap item that mends it: once the item lands,
the run passes, the xfail turns into a failure, and its mark goes.  A run
that fails in any other way fails the test.  b5 and b6 pass today and must
keep passing.
"""

import json
import random
from fractions import Fraction as F

import numpy as np
import pytest

from liequad import (
    ResidualNonzero,
    SingularMatrix,
    StructureConstants,
    adapted_chain,
    build_group,
    change_basis,
    group_invariants_report,
    multiplication,
    preadjoint_oracle,
    sym_exp,
    verify_group,
)
from liequad.liealg import mat_inverse
from conftest import borel_constants, fixture_path, run_cli


def filiform(n: int) -> StructureConstants:
    """L_n: [e_n, e_k] = e_{k-1} for k = 2..n-1."""
    return StructureConstants.from_brackets(n, {(n, k): {k - 1: F(1)} for k in range(2, n)})


def random_basis(sc: StructureConstants, seed: int) -> StructureConstants:
    """sc in the basis of a random invertible P with entries in {-2, ..., 2},
    drawn row by row and drawn again while P is singular."""
    rng = random.Random(seed)
    n = sc.dim
    while True:
        P = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        try:
            mat_inverse(P)
        except SingularMatrix:
            continue
        return change_basis(sc, P)


def _level0_failure(reason: str):
    return pytest.mark.xfail(strict=True, raises=ResidualNonzero, reason=reason)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: borel_constants(5), id="b5"),
    pytest.param(lambda: borel_constants(6), id="b6"),
    pytest.param(lambda: borel_constants(7), id="b7", marks=_level0_failure(
        "item C: a spurious -1.164e-10 e^x term of Ad^-1 (2^-33 rounding noise, a regression of item K) "
        "survives the 1e-10 cut; level-0 residual 1.169e-10")),
    pytest.param(lambda: filiform(16), id="L16", marks=_level0_failure(
        "item C-a: float coefficients drop the 1/14! terms; level-0 residual 1.606e-10")),
    pytest.param(lambda: random_basis(filiform(8), 0), id="L8-random0", marks=_level0_failure(
        "item C-a: float coefficients in a random rational basis; level-0 residual 4.167e-9")),
    pytest.param(lambda: random_basis(borel_constants(3), 0), id="b3-random0", marks=_level0_failure(
        "item C-b: two routes to the rate -1/71 differ by one ulp, so the terms never merge; "
        "level-0 residual 5.308")),
])
def test_multiply_verdict(make):
    """The `multiply` path: synthesis, the group axioms and the oracle.  A
    known false failure is ResidualNonzero at level 0, during synthesis."""
    _, chain = adapted_chain(make())
    try:
        law = multiplication(chain, tol=1e-10)
    except ResidualNonzero as exc:
        assert exc.level == 0, f"ResidualNonzero at level {exc.level}"
        raise
    report = verify_group(law, samples=100, seed=1, tol=1e-8)
    report.extend(preadjoint_oracle(chain, law, samples=100, seed=2, tol=1e-8))
    assert report.passed, [c.name for c in report.checks if not c.passed]


class BracketResidual(Exception):
    """The frame's bracket relations failed, and only symbolic lines of the
    `coframe` report failed."""


@pytest.mark.parametrize("make", [
    pytest.param(lambda: borel_constants(5), id="b5"),
    pytest.param(lambda: borel_constants(6), id="b6"),
    pytest.param(lambda: filiform(16), id="L16", marks=pytest.mark.xfail(strict=True, raises=BracketResidual, reason=(
        "item C-a: float coefficients drop the 1/14! terms; the structure-equation and bracket-relation "
        "residuals are 1.606e-10"))),
])
def test_coframe_verdict(make):
    """The `coframe` path: the coframe and frame of the chain and their
    invariants, with the command's defaults."""
    _, chain = adapted_chain(make())
    report = group_invariants_report(build_group(chain), samples=50, seed=0, tol_zero=1e-10)
    failed = [c for c in report.checks if not c.passed]
    if "[X_i, X_j] = C^k_ij X_k" in [c.name for c in failed] and all(c.mode == "symbolic" for c in failed):
        raise BracketResidual([(c.name, c.error) for c in failed])
    assert not failed, [c.name for c in failed]


class RhoCheckFailed(Exception):
    """Only the rho^* tau = omega lines of a `reduce` run failed."""


@pytest.mark.parametrize("basepoint, mode", [
    pytest.param("x4=-20", "numeric", marks=pytest.mark.xfail(strict=True, raises=RhoCheckFailed, reason=(
        "item N: the 1e-10 cut drops the genuine e^-20-scaled terms, so rho is wrong (error 2.977e2)"))),
    pytest.param("x4=30", "symbolic", marks=pytest.mark.xfail(strict=True, raises=RhoCheckFailed, reason=(
        "item N: rho is right (numeric error 1.1e-12), but the symbolic check fails falsely (error 2.0)"))),
])
def test_far_basepoint_reduce_verdict(tmp_path, basepoint, mode):
    out = tmp_path / "trace.json"
    res = run_cli([
        "reduce", fixture_path("algebra_fiveparam_a1_b2.json"),
        fixture_path("forms_product_group_fiveparam_a1_b2.json"),
        "--basepoint", basepoint, "--mode", mode, "-o", str(out)])
    assert res.exit_code in (0, 1), res.output
    failed = [c["name"] for c in json.loads(out.read_text())["report"]["checks"] if not c["passed"]]
    if failed and all(name.startswith("rho^* tau^") for name in failed):
        raise RhoCheckFailed(failed)
    assert not failed


class Cancellation(Exception):
    """A numeric value of a symbolic matrix exponential is off its reference."""


@pytest.mark.xfail(strict=True, raises=Cancellation, reason=(
    "close eigenvalues (FOUND line on matexp._putzer): the entries are differences of terms of size 1e12 "
    "that cancel when evaluated; no roadmap item evaluates such pairs in divided-difference form yet"))
def test_close_eigenvalues_evaluate_accurately():
    from scipy.linalg import expm

    A = [[F(0), F(1)], [F(0), F(1, 10 ** 12)]]
    error = float(np.abs(sym_exp(A, "t").at(1.0) - expm(np.array(A, dtype=float))).max())
    if error > 1e-10:
        raise Cancellation(f"|E(1) - expm(A)| = {error:.3e}")
