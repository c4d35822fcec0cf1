"""One pass of the `groups` workload, run in a fresh process.

    python perfbench/groups_worker.py --seed N --out PASS.json [--trace]

Set-up is the interpreter start, the import and the input generation; the
exact checks of the inputs run once per run, in `run.py`.  Then, for each
algebra of the ladder, it runs the path `liequad multiply` runs, minus
start-up and JSON: `adapted_chain` and `multiplication` (synthesis), then
`verify_group` and `preadjoint_oracle` (verification).  The correctness
checks of the 5-dim draws run after the timed work, outside the tracer.
"""

from __future__ import annotations

import argparse
import json
import time

t_import = time.perf_counter()
import sympy  # noqa: E402,F401

t_sympy = time.perf_counter()
import liequad as lq  # noqa: E402

t_liequad = time.perf_counter()

import algebras  # noqa: E402
import checks  # noqa: E402
import tracer as tr  # noqa: E402

SAMPLES = 100
TOL_ZERO = 1e-10
TOL_SAMPLE = 1e-8


def run_pass(ladder, seed: int, tracer) -> tuple[list[dict], dict]:
    results = []
    laws = {}
    for name, sc, ab in ladder:
        if tracer is not None:
            tracer.request = name
        res = {"name": name, "dim": sc.dim, "synth_s": 0.0, "verify_s": 0.0,
               "error": None, "typed": False, "passed": False}
        phase, t0 = "synth_s", time.perf_counter()
        try:
            _, chain = lq.adapted_chain(sc)
            law = lq.multiplication(chain, tol=TOL_ZERO)
            t1 = time.perf_counter()
            res["synth_s"] = t1 - t0
            phase, t0 = "verify_s", t1
            report = lq.verify_group(law, samples=SAMPLES, seed=seed, tol=TOL_SAMPLE)
            report.extend(lq.preadjoint_oracle(chain, law, samples=SAMPLES, seed=seed + 1,
                                               tol=TOL_SAMPLE))
            res["verify_s"] = time.perf_counter() - t0
            res["passed"] = report.passed
            if not report.passed:
                res["error"] = "failed check: " + "; ".join(
                    c.name for c in report.checks if not c.passed)
            if ab is not None:
                laws[name] = law
        except lq.LiequadError as exc:
            res[phase] = time.perf_counter() - t0
            res["error"] = type(exc).__name__
            res["typed"] = True
        results.append(res)
    return results, laws


def check_draws(ladder, results, laws) -> list[str]:
    """Compare the 5-dim draws with the closed-form law, pointwise at 1e-10,
    and note a law that is right but not equal term for term.  A golden with
    a perturbed rate must be rejected.  Returns self-check problems."""
    by_name = {r["name"]: r for r in results}
    draws = [(name, ab) for name, _, ab in ladder if name in laws]
    for name, (a, b) in draws:
        mu = laws[name].mu
        golden = checks.fiveparam_law(mu.source, a, b)
        if not checks.law_agrees(mu.components, golden, TOL_ZERO):
            by_name[name].update(passed=False, error="differs from the closed-form law")
        elif not checks.law_close(mu.components, golden, TOL_ZERO):
            by_name[name]["note"] = (f"(a, b) = ({a}, {b}): equals the closed-form law "
                                     "pointwise, but not term for term")
    if not draws:
        return ["no 5-dim draw was available for the perturbed-golden check"]
    name, (a, b) = draws[0]
    mu = laws[name].mu
    if checks.law_agrees(mu.components, checks.fiveparam_law(mu.source, a, b + 1e-6), TOL_ZERO):
        return [f"self-check: perturbed golden for {name} was accepted"]
    return []


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    ladder = algebras.ladder(args.seed)
    ready_at = time.monotonic()
    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        tr.install(tracer)
    start = time.perf_counter()
    results, laws = run_pass(ladder, args.seed, tracer)
    wall = time.perf_counter() - start
    if tracer is not None:
        tr.uninstall(tracer)
    problems = check_draws(ladder, results, laws)
    doc = {
        "ready_at": ready_at,
        "wall_s": wall,
        "startup": {"sympy_s": t_sympy - t_import, "liequad_s": t_liequad - t_sympy},
        "results": results,
        "problems": problems,
    }
    if tracer is not None:
        doc["stats"] = tracer.summary()
        doc["missing"] = tracer.missing
        doc["spans"] = tracer.spans
    with open(args.out, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
