"""Command-line surface: validate / coframe / multiply / reduce / pfaff.

Every command reads JSON, prints a verification report (one line per
check, each naming the mode that ran), writes a JSON result and exits 0
iff every check passed.  Runs are deterministic under a fixed seed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction

import click

from . import jsonio
from .errors import LiequadError, SchemaError
from .exppoly import ExpPoly
from .liealg import adapted_chain, is_solvable, transform_forms, validate as validate_constants
from .liegroup import (
    build_group,
    group_invariants_report,
    multiplication,
    preadjoint_oracle,
    verify_group,
)
from .pfaffian import first_integrals
from .reduction import reduce_full, verify_rho
from .report import Report


@dataclass
class RunConfig:
    tol_zero: float = 1e-10
    tol_sample: float = 1e-8
    samples: int = 100
    seed: int = 0
    basepoint: dict | None = None
    mode: str = "auto"

    def __post_init__(self):
        if self.tol_zero <= 0 or self.tol_sample <= 0:
            raise SchemaError("tolerances must be positive")
        if self.samples < 1:
            raise SchemaError("sample count must be >= 1")


def _parse_basepoint(text: str | None) -> dict | None:
    if not text:
        return None
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise SchemaError(f"bad basepoint entry {piece!r}; expected name=value")
        name, value = piece.split("=", 1)
        try:
            out[name.strip()] = Fraction(value.strip())
        except ValueError as exc:
            raise SchemaError(f"bad basepoint value {value!r}") from exc
    return out


def common_options(fn):
    fn = click.option("--tol-zero", type=float, default=1e-10, show_default=True,
                      help="coefficient zero tolerance")(fn)
    fn = click.option("--tol-sample", type=float, default=1e-8, show_default=True,
                      help="numeric sampling tolerance")(fn)
    fn = click.option("--samples", type=int, default=100, show_default=True,
                      help="number of sample points per numeric check")(fn)
    fn = click.option("--seed", type=int, default=0, show_default=True,
                      help="seed for all sampling")(fn)
    fn = click.option("--basepoint", type=str, default=None,
                      help="quadrature basepoint, e.g. 'x=0,u_x=1'")(fn)
    fn = click.option("--mode", type=click.Choice(["auto", "symbolic", "numeric"]),
                      default="auto", show_default=True,
                      help="verification mode for pullback checks")(fn)
    fn = click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
                      help="write the JSON result here (default: stdout)")(fn)
    return fn


def _emit(doc: dict, report: Report | None, output: str | None):
    if report is not None:
        doc = dict(doc)
        doc["report"] = report.to_dict()
        for line in report.lines():
            click.echo(line)
    if output:
        jsonio.write_json(output, doc)
        click.echo(f"wrote {output}")
    else:
        click.echo(json.dumps(doc, indent=2, sort_keys=True))
    if report is not None and not report.passed:
        sys.exit(1)


def _fail(exc: LiequadError):
    click.echo(json.dumps({"error": {"code": exc.code, "message": str(exc)}}, sort_keys=True), err=True)
    sys.exit(2)


@click.group()
def main():
    """Solvable Lie algebras: coframes, group laws and first integrals by
    quadratures and matrix exponentials."""


@main.command("validate")
@click.argument("algebra", type=click.Path(exists=True, dir_okay=False))
@common_options
def cmd_validate(algebra, tol_zero, tol_sample, samples, seed, basepoint, mode, output):
    """Check antisymmetry/Jacobi, solvability, and build the adapted chain."""
    try:
        RunConfig(tol_zero, tol_sample, samples, seed, _parse_basepoint(basepoint), mode)
        sc = jsonio.load_algebra(jsonio.read_json(algebra))
        report = Report()
        vr = validate_constants(sc)
        report.add("antisymmetry", not vr.antisymmetry_violations, "exact",
                   detail=f"{len(vr.antisymmetry_violations)} violations")
        report.add("Jacobi identity", not vr.jacobi_violations, "exact",
                   detail=f"{len(vr.jacobi_violations)} violations")
        doc = {"dim": sc.dim, "valid": vr.ok}
        solvable = vr.ok and is_solvable(sc)
        report.add("solvable", solvable, "exact")
        doc["solvable"] = solvable
        if solvable:
            change, chain = adapted_chain(sc)
            doc["basis_change"] = [[str(x) for x in row] for row in change.matrix()]
            doc["ad_restricted"] = [
                [[str(x) for x in row] for row in chain.ad_matrix(s)]
                for s in range(chain.n)
            ]
        _emit(doc, report, output)
    except LiequadError as exc:
        _fail(exc)


@main.command("coframe")
@click.argument("algebra", type=click.Path(exists=True, dir_okay=False))
@common_options
def cmd_coframe(algebra, tol_zero, tol_sample, samples, seed, basepoint, mode, output):
    """Left-invariant coframe and frame on R^n, with invariant checks."""
    try:
        cfg = RunConfig(tol_zero, tol_sample, samples, seed, _parse_basepoint(basepoint), mode)
        sc = jsonio.load_algebra(jsonio.read_json(algebra))
        _, chain = adapted_chain(sc)
        group = build_group(chain)
        report = group_invariants_report(group, samples=min(cfg.samples, 50), seed=cfg.seed,
                                         tol_symbolic=cfg.tol_zero, tol_numeric=1e-9)
        doc = jsonio.dump_forms_file(group.chart, group.tau)
        doc["frame"] = [
            [c.to_text() for c in X.components] for X in group.frame
        ]
        _emit(doc, report, output)
    except LiequadError as exc:
        _fail(exc)


@main.command("multiply")
@click.argument("algebra", type=click.Path(exists=True, dir_okay=False))
@common_options
def cmd_multiply(algebra, tol_zero, tol_sample, samples, seed, basepoint, mode, output):
    """Global multiplication map, verified and cross-checked."""
    try:
        cfg = RunConfig(tol_zero, tol_sample, samples, seed, _parse_basepoint(basepoint), mode)
        sc = jsonio.load_algebra(jsonio.read_json(algebra))
        _, chain = adapted_chain(sc)
        law = multiplication(chain, tol=cfg.tol_zero)
        report = verify_group(law, samples=cfg.samples, seed=cfg.seed, tol=cfg.tol_sample, mode=cfg.mode)
        report.extend(preadjoint_oracle(chain, law, samples=cfg.samples, seed=cfg.seed + 1, tol=cfg.tol_sample))
        doc = jsonio.dump_grouplaw(law)
        _emit(doc, report, output)
    except LiequadError as exc:
        _fail(exc)


@main.command("reduce")
@click.argument("algebra", type=click.Path(exists=True, dir_okay=False))
@click.argument("forms", type=click.Path(exists=True, dir_okay=False))
@click.option("--stop-after", type=int, default=None,
              help="partial reduction: stop after r quadratures")
@common_options
def cmd_reduce(algebra, forms, stop_after, tol_zero, tol_sample, samples, seed,
               basepoint, mode, output):
    """Reduce structure-equation forms to exact differentials; emit the trace."""
    try:
        cfg = RunConfig(tol_zero, tol_sample, samples, seed, _parse_basepoint(basepoint), mode)
        sc = jsonio.load_algebra(jsonio.read_json(algebra))
        chart, omegas = jsonio.load_forms_file(jsonio.read_json(forms))
        if len(omegas) != sc.dim:
            raise SchemaError(f"expected {sc.dim} forms, found {len(omegas)}")
        change, chain = adapted_chain(sc)
        omegas_ad = transform_forms(change, omegas)
        trace = reduce_full(omegas_ad, chain, cfg.basepoint, stop_after=stop_after, tol=cfg.tol_zero)
        report = Report()
        worst = max(trace.residuals)
        report.add("structure equations at every level", worst <= cfg.tol_zero,
                   "symbolic" if omegas[0].scls is ExpPoly else "exact", worst)
        if trace.complete:
            group = build_group(chain)
            report.extend(
                verify_rho(trace, group.tau, omegas_ad, samples=cfg.samples, seed=cfg.seed,
                           tol=cfg.tol_sample, mode=cfg.mode)
            )
        doc = jsonio.dump_trace(trace)
        _emit(doc, report, output)
    except LiequadError as exc:
        _fail(exc)


@main.command("pfaff")
@click.argument("system", type=click.Path(exists=True, dir_okay=False))
@common_options
def cmd_pfaff(system, tol_zero, tol_sample, samples, seed, basepoint, mode, output):
    """First integrals of a Pfaffian system with solvable symmetry."""
    try:
        cfg = RunConfig(tol_zero, tol_sample, samples, seed, _parse_basepoint(basepoint), mode)
        psys, sym = jsonio.load_pfaffian_file(jsonio.read_json(system))
        bp = cfg.basepoint
        if bp is None:
            bp = {nm: Fraction(0) for nm in psys.domain.chart.names}
        functions, report = first_integrals(
            psys, sym, bp, verify_samples=min(cfg.samples, 20), seed=cfg.seed
        )
        doc = {
            "chart": list(psys.domain.chart.names),
            "basepoint": {k: str(v) for k, v in bp.items()},
            "integrals": [jsonio.dump_scalar(f) for f in functions],
        }
        _emit(doc, report, output)
    except LiequadError as exc:
        _fail(exc)


if __name__ == "__main__":
    main()
