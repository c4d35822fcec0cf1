"""Command-line surface: validate / coframe / multiply / reduce / pfaff.

Every command reads JSON, prints a verification report (one line per
check, each naming the mode that ran), writes a JSON result and exits 0
iff every check passed.  Runs are deterministic under a fixed seed.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

import click

from . import jsonio
from .errors import LiequadError, SchemaError
from .exppoly import ExpPoly
from .forms import full_basepoint
from .liealg import adapted_chain, is_solvable, transform_forms, validate as validate_constants
from .liegroup import (
    build_group,
    coframe,
    group_invariants_report,
    multiplication,
    preadjoint_oracle,
    verify_group,
)
from .pfaffian import first_integrals
from .reduction import reduce_full, verify_rho
from .report import Report
from .varset import VarSet


@dataclass
class RunConfig:
    """The settings of one run; its defaults are the option defaults."""

    tol_zero: float = 1e-10
    tol_sample: float = 1e-8
    samples: int = 100
    seed: int = 0
    basepoint: str | None = None
    mode: str = "auto"

    def __post_init__(self):
        if self.tol_zero <= 0 or self.tol_sample <= 0:
            raise SchemaError("tolerances must be positive")
        if self.samples < 1:
            raise SchemaError("sample count must be >= 1")

    def basepoint_on(self, chart: VarSet) -> dict | None:
        """The --basepoint values, every name checked against the chart."""
        if not self.basepoint:
            return None
        out = {}
        for piece in filter(None, (p.strip() for p in self.basepoint.split(","))):
            name, eq, value = (part.strip() for part in piece.partition("="))
            if not eq:
                raise SchemaError(f"bad basepoint entry {piece!r}; expected name=value")
            if name not in chart.names:
                raise SchemaError(f"basepoint name {name!r} is not in the chart {list(chart.names)}")
            try:
                out[name] = Fraction(value)
            except ValueError as exc:
                raise SchemaError(f"bad basepoint value {value!r}") from exc
        return out


# RunConfig field -> (click type, help); the flag is the field name in dashes
OPTIONS = {
    "tol_zero": (float, "bound on the measured symbolic residuals"),
    "tol_sample": (float, "numeric sampling tolerance"),
    "samples": (int, "number of sample points per numeric check"),
    "seed": (int, "seed for all sampling"),
    "basepoint": (str, "quadrature basepoint, e.g. 'x=0,u_x=1'"),
    "mode": (click.Choice(["auto", "symbolic", "numeric"]), "verification mode for pullback checks"),
}


def run_options(*names: str, **defaults):
    """Give a command the options `names` of OPTIONS (defaults from RunConfig
    unless `defaults` overrides them) and -o.  The body gets the RunConfig
    and returns (doc, report); a LiequadError becomes the exit-2 error
    document."""

    def decorate(body):
        @click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
                      help="write the JSON result here (default: stdout)")
        @functools.wraps(body)
        def command(output, **params):
            try:
                doc, report = body(RunConfig(**{name: params.pop(name) for name in names}), **params)
            except LiequadError as exc:
                error = {"error": {"code": exc.code, "message": str(exc)}}
                click.echo(json.dumps(error, sort_keys=True), err=True)
                sys.exit(2)
            for line in report.lines():
                click.echo(line)
            doc = {**doc, "report": report.to_dict()}
            if output:
                jsonio.write_json(output, doc)
                click.echo(f"wrote {output}")
            else:
                click.echo(json.dumps(doc, indent=2, sort_keys=True))
            if not report.passed:
                sys.exit(1)

        for name in reversed(names):
            kind, text = OPTIONS[name]
            command = click.option("--" + name.replace("_", "-"), name, type=kind, show_default=True,
                                   default=defaults.get(name, getattr(RunConfig, name)), help=text)(command)
        return command

    return decorate


@click.group()
def main():
    """Solvable Lie algebras: coframes, group laws and first integrals by
    quadratures and matrix exponentials."""


@main.command("validate")
@click.argument("algebra", type=click.Path(exists=True, dir_okay=False))
@run_options("seed")
def cmd_validate(cfg, algebra):
    """Check antisymmetry/Jacobi, solvability, and build the adapted chain."""
    sc = jsonio.load_algebra(jsonio.read_json(algebra))
    report = Report()
    vr = validate_constants(sc)
    report.add("antisymmetry", not vr.antisymmetry_violations, "exact",
               detail=f"{len(vr.antisymmetry_violations)} violations")
    report.add("Jacobi identity", not vr.jacobi_violations, "exact",
               detail=f"{len(vr.jacobi_violations)} violations")
    solvable = vr.ok and is_solvable(sc)
    report.add("solvable", solvable, "exact")
    doc = {"dim": sc.dim, "valid": vr.ok, "solvable": solvable}
    if solvable:
        change, chain = adapted_chain(sc)
        doc["basis_change"] = [[str(x) for x in row] for row in change.matrix()]
        doc["ad_restricted"] = [
            [[str(x) for x in row] for row in chain.ad_matrix(s)]
            for s in range(chain.n)
        ]
    return doc, report


@main.command("coframe")
@click.argument("algebra", type=click.Path(exists=True, dir_okay=False))
@run_options("tol_zero", "samples", "seed", samples=50)
def cmd_coframe(cfg, algebra):
    """Left-invariant coframe and frame on R^n, with invariant checks."""
    sc = jsonio.load_algebra(jsonio.read_json(algebra))
    _, chain = adapted_chain(sc)
    group = build_group(chain)
    report = group_invariants_report(group, samples=cfg.samples, seed=cfg.seed,
                                     tol_symbolic=cfg.tol_zero)
    doc = jsonio.dump_forms_file(group.chart, group.tau)
    doc["frame"] = [
        [c.to_text() for c in X.components] for X in group.frame
    ]
    return doc, report


@main.command("multiply")
@click.argument("algebra", type=click.Path(exists=True, dir_okay=False))
@run_options("tol_zero", "tol_sample", "samples", "seed", "mode")
def cmd_multiply(cfg, algebra):
    """Global multiplication map, verified and cross-checked."""
    sc = jsonio.load_algebra(jsonio.read_json(algebra))
    _, chain = adapted_chain(sc)
    law = multiplication(chain, tol=cfg.tol_zero)
    report = verify_group(law, samples=cfg.samples, seed=cfg.seed, tol=cfg.tol_sample, mode=cfg.mode)
    report.extend(preadjoint_oracle(chain, law, samples=cfg.samples, seed=cfg.seed + 1, tol=cfg.tol_sample))
    return jsonio.dump_grouplaw(law), report


@main.command("reduce")
@click.argument("algebra", type=click.Path(exists=True, dir_okay=False))
@click.argument("forms", type=click.Path(exists=True, dir_okay=False))
@click.option("--stop-after", type=int, default=None,
              help="partial reduction: stop after r quadratures")
@run_options("tol_zero", "tol_sample", "samples", "seed", "basepoint", "mode")
def cmd_reduce(cfg, algebra, forms, stop_after):
    """Reduce structure-equation forms to exact differentials; emit the trace."""
    if stop_after is not None and stop_after < 0:
        raise SchemaError(f"--stop-after must be >= 0, got {stop_after}")
    sc = jsonio.load_algebra(jsonio.read_json(algebra))
    chart, omegas = jsonio.load_forms_file(jsonio.read_json(forms))
    if len(omegas) != sc.dim:
        raise SchemaError(f"expected {sc.dim} forms, found {len(omegas)}")
    basepoint = cfg.basepoint_on(chart)
    change, chain = adapted_chain(sc)
    omegas_ad = transform_forms(change, omegas)
    trace = reduce_full(omegas_ad, chain, basepoint, stop_after=stop_after, tol=cfg.tol_zero)
    report = Report()
    worst = max(trace.residuals)
    report.add("structure equations at every level", worst <= cfg.tol_zero,
               "symbolic" if omegas[0].scls is ExpPoly else "exact", worst)
    if trace.complete:
        report.extend(
            verify_rho(trace, coframe(chain), omegas_ad, samples=cfg.samples, seed=cfg.seed,
                       tol=cfg.tol_sample, mode=cfg.mode)
        )
    return jsonio.dump_trace(trace), report


@main.command("pfaff")
@click.argument("system", type=click.Path(exists=True, dir_okay=False))
@run_options("samples", "seed", "basepoint", samples=20)
def cmd_pfaff(cfg, system):
    """First integrals of a Pfaffian system with solvable symmetry."""
    psys, sym = jsonio.load_pfaffian_file(jsonio.read_json(system))
    chart = psys.domain.chart
    bp = full_basepoint(chart, cfg.basepoint_on(chart))
    functions, report = first_integrals(psys, sym, bp, verify_samples=cfg.samples, seed=cfg.seed)
    doc = {
        "chart": list(chart.names),
        "basepoint": {k: str(v) for k, v in bp.items()},
        "integrals": [jsonio.dump_scalar(f) for f in functions],
    }
    return doc, report


if __name__ == "__main__":
    main()
