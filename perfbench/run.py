"""liequad benchmark: two closed-loop workloads, one client, one process at a time.

    python3 perfbench/run.py --workload cli|groups --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from `src/`.

- `cli`: the five README commands as fresh `python -m liequad.cli`
  processes on the fixtures (a round), repeated for S seconds.  Every output
  is checked: exit code 0, `report.passed`, and for `multiply` and `pfaff`
  the goldens in `fixtures/`.
- `groups`: the scaling ladder of generated algebras (`algebras.py`), one
  pass per fresh worker process (`groups_worker.py`), repeated for S seconds.

With `--trace 0` the end-to-end metrics are measured untraced.  With
`--trace 1` untraced rounds alternate with rounds under the tracer
(`tracer.py`), at least two of each; the per-layer metrics are reported per
round, and the tracing overhead is the difference of their median times.
Metric names and units come from BENCHMARK.json.  A human-readable table
precedes the last line of output, which is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
DEADLINE_S = 170.0
SETUP_REPEATS = 5
MIN_TRACED_ROUNDS = 2

BASEPOINT = "x=0,u=0,u_x=1,u_xx=1"
ALGEBRA = "fixtures/algebra_fiveparam_a1_b2.json"
# The README commands, in README order, with their flags.
COMMANDS = {
    "validate": ["validate", ALGEBRA],
    "coframe": ["coframe", ALGEBRA, "-o", "coframe.json"],
    "multiply": ["multiply", ALGEBRA, "-o", "grouplaw.json"],
    "reduce": ["reduce", "fixtures/algebra_heisenberg.json",
               "fixtures/forms_normalized_third_order.json",
               "--basepoint", BASEPOINT, "-o", "trace.json"],
    "pfaff": ["pfaff", "fixtures/pfaffian_third_order_ode.json",
              "--basepoint", BASEPOINT, "-o", "integrals.json"],
}
GOLDEN_MU = "fixtures/golden_mu_fiveparam_a1_b2.json"
GOLDEN_INTEGRALS = "fixtures/golden_integrals_third_order.json"


class Timeout(Exception):
    pass


class Run:
    """State of one benchmark run: deadline, operation counts, self-checks."""

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []  # wrong outputs and failed self-checks
        self.notes: set[str] = set()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.rounds = 0

    def proc(self, argv: list[str]) -> subprocess.CompletedProcess:
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 1:
            raise Timeout()
        try:
            return subprocess.run([sys.executable, *argv], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise Timeout() from exc

    def fail(self, op: str, kind: str, wrong: bool):
        self.failures.append(f"{op}: {kind}")
        if wrong:
            self.problems.append(f"{op}: {kind}")


def repeat_rounds(run: Run, trace: bool, one_round) -> tuple[list, list]:
    """Untraced rounds until S seconds have passed.  When tracing, untraced
    and traced rounds alternate, at least two of each, until S seconds have
    passed.  `one_round(traced)` runs one round."""
    t0 = time.monotonic()
    plain, traced = [], []
    while True:
        least = min(len(plain), len(traced)) if trace else len(plain)
        if time.monotonic() - t0 >= run.seconds and least >= (MIN_TRACED_ROUNDS if trace else 1):
            return plain, traced
        use_trace = trace and len(traced) < len(plain)
        (traced if use_trace else plain).append(one_round(use_trace))


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


# ----------------------------------------------------------------------
# output checks, shared by untraced and traced rounds

def golden_mu(perturb: float = 0.0):
    import liequad as lq
    from liequad.varset import doubled_chart

    chart = doubled_chart(5)
    doc = json.loads((ROOT / GOLDEN_MU).read_text())
    comps = [lq.ExpPoly.parse(chart, doc["mu"][f"z{i + 1}"]) for i in range(5)]
    if perturb:
        comps[0] = comps[0] + lq.ExpPoly.constant(chart, perturb)
    return chart, comps


def golden_integrals(perturb: bool = False):
    import liequad as lq

    doc = json.loads((ROOT / GOLDEN_INTEGRALS).read_text())
    chart = lq.VarSet.of(*doc["basepoint"])
    bp = {k: lq.RationalFunction.parse(chart, v).constant_value()
          for k, v in doc["basepoint"].items()}
    out = []
    for name in ("f1", "f2", "f3"):
        g = lq.RationalFunction.parse(chart, doc["integrals"][name])
        if perturb and name == "f3":
            g = g + lq.RationalFunction.parse(chart, f"{chart.names[0]}/1000")
        out.append(g - lq.RationalFunction.constant(chart, g.evaluate_exact(bp)))
    return chart, out


def mu_matches(doc: dict, golden) -> bool:
    import checks
    import liequad as lq

    chart, comps = golden
    found = [lq.ExpPoly.parse(chart, doc["mu"][f"z{i + 1}"]) for i in range(len(comps))]
    return checks.law_close(found, comps, 1e-10)


def integrals_match(doc: dict, golden) -> bool:
    from liequad import jsonio

    chart, integrals = golden
    if tuple(doc["chart"]) != chart.names:
        return False
    found = [jsonio.load_scalar(d, chart) for d in doc["integrals"]]
    return len(found) == len(integrals) and all(f == g for f, g in zip(found, integrals))


def read_result(name: str, proc: subprocess.CompletedProcess, outdir: Path) -> dict:
    if "-o" in COMMANDS[name]:
        return json.loads((outdir / COMMANDS[name][-1]).read_text())
    m = re.search(r"^\{", proc.stdout, re.M)
    return json.loads(proc.stdout[m.start():])


def check_command(run: Run, name: str, proc, outdir: Path, goldens: dict) -> dict | None:
    """Count the command as attempted; record a failure if it did not give a
    verified, golden-equal result.  Returns the parsed result or None."""
    run.attempted += 1
    if proc.returncode == 2:
        try:
            code = json.loads(proc.stderr.strip().splitlines()[-1])["error"]["code"]
        except (ValueError, KeyError, IndexError, TypeError):
            code = None
        if code:
            run.fail(name, f"typed error {code}", wrong=False)
            return None
    if proc.returncode != 0:
        run.fail(name, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}", wrong=True)
        return None
    from liequad import LiequadError

    try:
        doc = read_result(name, proc, outdir)
        if not doc["report"]["passed"]:
            run.fail(name, "report.passed is false", wrong=True)
        elif name == "multiply" and not mu_matches(doc, goldens["mu"]):
            run.fail(name, f"differs from {GOLDEN_MU}", wrong=True)
        elif name == "pfaff" and not integrals_match(doc, goldens["integrals"]):
            run.fail(name, f"differs from {GOLDEN_INTEGRALS}", wrong=True)
    except (OSError, ValueError, KeyError, TypeError, AttributeError, LiequadError) as exc:
        run.fail(name, f"unreadable output ({type(exc).__name__}: {exc})", wrong=True)
        return None
    return doc


def perturbed_golden_check(run: Run, docs: dict):
    """The checks must reject deliberately perturbed goldens."""
    if "multiply" in docs and mu_matches(docs["multiply"], golden_mu(perturb=1e-6)):
        run.problems.append("self-check: perturbed multiply golden was accepted")
    if "pfaff" in docs and integrals_match(docs["pfaff"], golden_integrals(perturb=True)):
        run.problems.append("self-check: perturbed pfaff golden was accepted")


# ----------------------------------------------------------------------
# cli workload

def cli_argv(name: str, run: Run, outdir: Path) -> list[str]:
    argv = list(COMMANDS[name])
    if "-o" in argv:
        argv[-1] = str(outdir / argv[-1])
    return argv + ["--seed", str(run.seed)]


def cli_round(run: Run, goldens: dict, traced: bool) -> dict:
    """Five commands, each a fresh process.  Returns wall times and, when
    traced, the launcher's stats per command."""
    outdir = OUT / "cli"
    outdir.mkdir(parents=True, exist_ok=True)
    walls, docs, traces = {}, {}, {}
    for name in COMMANDS:
        argv = cli_argv(name, run, outdir)
        if "-o" in argv:
            Path(argv[argv.index("-o") + 1]).unlink(missing_ok=True)
        if traced:
            stats_path = outdir / f"stats-{name}.json"
            stats_path.unlink(missing_ok=True)
            argv = [str(BENCH / "tracer.py"), str(stats_path), "--", *argv]
        else:
            argv = ["-m", "liequad.cli", *argv]
        walls[name], proc = timed(run.proc, argv)
        doc = check_command(run, name, proc, outdir, goldens)
        if doc is not None:
            docs[name] = doc
        if traced and stats_path.exists():
            traces[name] = json.loads(stats_path.read_text())
    return {"walls": walls, "docs": docs, "traces": traces}


def run_cli(run: Run, trace: bool) -> tuple[dict, list[str], dict]:
    goldens = {"mu": golden_mu(), "integrals": golden_integrals()}
    run.proc(["-c", "import liequad.cli"])  # compile bytecode before timing
    setups = []
    if not trace:
        setups = [timed(run.proc, ["-c", "import liequad"])[0] for _ in range(SETUP_REPEATS)]
    rounds, traced_rounds = repeat_rounds(run, trace, lambda traced: cli_round(run, goldens, traced))
    perturbed_golden_check(run, rounds[0]["docs"])
    table = {f"{name}_s": [r["walls"][name] for r in rounds] for name in COMMANDS}
    table["round_s"] = [sum(r["walls"].values()) for r in rounds]
    table["setup_s"] = setups
    layers = {"rounds": [cli_layers(r) for r in traced_rounds],
              "traced_walls": [sum(r["walls"].values()) for r in traced_rounds]}
    return table, [f"{name}_s" for name in COMMANDS], layers


def cli_layers(rnd: dict) -> dict:
    """Sum the traced stats of the five command processes of one round."""
    stats: dict[str, dict] = {}
    startup = {"sympy_s": 0.0, "liequad_s": 0.0}
    missing: set[str] = set()
    for doc in rnd["traces"].values():
        missing.update(doc["missing"])
        for k in startup:
            startup[k] += doc["startup"][k]
        for name, st in doc["stats"].items():
            acc = stats.setdefault(name, {})
            for field, v in st.items():
                acc[field] = acc.get(field, 0) + v
    return {"stats": stats, "startup": startup, "missing": sorted(missing)}


# ----------------------------------------------------------------------
# groups workload

def groups_pass(run: Run, traced: bool) -> dict:
    outdir = OUT / "groups"
    outdir.mkdir(parents=True, exist_ok=True)
    run.rounds += 1
    index = run.rounds
    out = outdir / f"pass-{index}.json"
    out.unlink(missing_ok=True)
    argv = [str(BENCH / "groups_worker.py"), "--seed", str(run.seed), "--out", str(out)]
    if traced:
        argv.append("--trace")
    spawned = time.monotonic()
    proc = run.proc(argv)
    if proc.returncode != 0 or not out.exists():
        run.attempted += 1
        run.fail(f"groups pass {index}", f"worker exit {proc.returncode}: "
                 f"{proc.stderr.strip()[-300:]}", wrong=True)
        return {}
    doc = json.loads(out.read_text())
    doc["setup_s"] = doc["ready_at"] - spawned
    for res in doc["results"]:
        run.attempted += 1
        if "note" in res:
            run.notes.add(f"{res['name']} {res['note']}")
        if res["error"] is not None:
            run.fail(res["name"], res["error"], wrong=not res["typed"])
    run.problems.extend(doc["problems"])
    return doc


def run_groups(run: Run, trace: bool) -> tuple[dict, list[str], dict]:
    import algebras

    algebras.check(algebras.ladder(run.seed))
    passes, traced_passes = repeat_rounds(run, trace, lambda traced: groups_pass(run, traced))
    passes = [p for p in passes if p]
    traced_passes = [p for p in traced_passes if p]
    table = {
        "setup_s": [p["setup_s"] for p in passes],
        "synth_s": [sum(r["synth_s"] for r in p["results"]) for p in passes],
        "verify_s": [sum(r["verify_s"] for r in p["results"]) for p in passes],
        "round_s": [p["wall_s"] for p in passes],
    }
    ops = []
    for p in passes:
        for r in p["results"]:
            op = f"{r['name']}_s"
            if op not in table:
                ops.append(op)
            table.setdefault(op, []).append(r["synth_s"] + r["verify_s"])
    layers = {"rounds": [{k: p[k] for k in ("stats", "startup", "missing")} for p in traced_passes],
              "traced_walls": [p["wall_s"] for p in traced_passes]}
    return table, ops, layers


# ----------------------------------------------------------------------
# metrics

def end_to_end(table: dict, ops: list[str]) -> dict:
    medians = {k: statistics.median(v) for k, v in table.items() if v}
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": medians["setup_s"],
        "round_s": medians["round_s"],
        "op_geomean_s": math.exp(statistics.fmean(math.log(medians[k]) for k in ops)),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def layer_value(name: str, rnd: dict):
    """Per-layer metric `<traced name>.<calls|self_s|total_s>` from one
    round's stats, plus the `startup.*` and `distinct_frac` metrics."""
    if name.startswith("startup."):
        return rnd["startup"][name.split(".", 1)[1]]
    stat, field = name.rsplit(".", 1)
    st = rnd["stats"].get(stat, {})
    if field == "distinct_frac":
        return st["distinct"] / st["calls"] if st.get("calls") else 0.0
    return st.get(field, 0)


def per_layer(names: list[str], layers: dict, untraced_round_s: float, run: Run) -> dict:
    rounds = layers["rounds"]
    for name in sorted({m for r in rounds for m in r["missing"]}):
        print(f"note: {name} is not defined by the program; its metrics read 0")
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = statistics.median(layers["traced_walls"]) - untraced_round_s
            continue
        values = [layer_value(name, r) for r in rounds]
        if name.endswith((".calls", ".distinct_frac")) and len(set(values)) > 1:
            run.problems.append(f"self-check: {name} differs between traced rounds: {values}")
        out[name] = statistics.median(values)
        if name.endswith(".calls"):
            out[name] = int(out[name])
    return out


def percentile_text(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}={sorted(values)[math.ceil(n * p / 100) - 1]:.4f}"
    return "p-: under 20 samples"


def print_table(workload: str, run: Run, table: dict, e2e: dict | None):
    print(f"# liequad benchmark, workload {workload}, seed {run.seed}")
    for name, values in table.items():
        if values:
            print(f"{name:>28} {statistics.median(values):10.4f} s  median  "
                  f"{percentile_text(values)}  n={len(values)}")
    frac = len(run.failures) / max(run.attempted, 1)
    print(f"{'fail_frac':>28} {frac:10.4f}    {len(run.failures)}/{run.attempted} operations")
    for f in sorted(set(run.failures)):
        print(f"{'':>28} failed: {f} (x{run.failures.count(f)})")
    if e2e is not None:
        print(f"{'peak_rss_mb':>28} {e2e['peak_rss_mb']:10.1f} MB")
        print(f"{'op_geomean_s':>28} {e2e['op_geomean_s']:10.4f} s")
    for note in sorted(run.notes):
        print(f"note: {note}")
    for p in run.problems:
        print(f"PROBLEM: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("cli", "groups"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for needed in ("src/liequad/__init__.py", "fixtures", "BENCHMARK.json"):
        if not (ROOT / needed).exists():
            print(f"run.py: {ROOT / needed} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    run = Run(args.seed, args.seconds)
    workload = run_cli if args.workload == "cli" else run_groups
    try:
        table, ops, layers = workload(run, bool(args.trace))
    except Timeout:
        print(f"run.py: the run did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        return 3
    if not table["round_s"] or args.trace and not layers["rounds"]:
        print("run.py: no round completed", file=sys.stderr)
        return 4
    if args.trace:
        declared = spec["per_layer"]
        metrics = per_layer([m["name"] for m in declared], layers,
                            statistics.median(table["round_s"]), run)
        print_table(args.workload, run, table, None)
    else:
        declared = spec["end_to_end"]
        metrics = end_to_end(table, ops)
        if set(metrics) != {m["name"] for m in declared}:
            print("run.py: computed metrics do not match BENCHMARK.json", file=sys.stderr)
            return 5
        print_table(args.workload, run, table, metrics)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
