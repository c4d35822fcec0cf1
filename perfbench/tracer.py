"""Call tracer for liequad, applied from outside the package.

`install(tracer)` wraps the public functions of each layer and rebinds every
attribute in `liequad.*` (module globals and class attributes) that holds an
original, so a function imported by name into several modules is traced
wherever it is called.  `uninstall(tracer)` restores the originals.  Names
the program no longer defines are skipped and listed in `tracer.missing`.

Stage functions record a span (name, start, end, parent span, request).
Scalar-ring methods are called hundreds of thousands of times per operation,
so they keep only aggregated calls and times.  For every traced name the
tracer keeps:

- `calls`
- `self_s`: duration minus the time of traced callees;
- `total_s`: duration of the outermost call only, so recursion and nested
  readers count once.

Run as a script, it is the traced CLI launcher:

    python perfbench/tracer.py STATS.json -- multiply fixtures/... -o out.json

times the imports, runs `liequad.cli:main` in-process under the tracer and
writes the stats to STATS.json.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from fractions import Fraction

# module -> public stage functions recorded as spans
STAGES = {
    "liealg": ["validate", "adapted_chain", "transform_forms"],
    "matexp": ["sym_exp"],
    "hermite": ["integrate_rational"],
    "forms": ["structure_residual", "potential", "pullback"],
    "reduction": ["reduce_step", "reduce_full", "verify_rho"],
    "liegroup": [
        "build_group", "product_group_forms", "ad_rep", "multiplication",
        "verify_group", "preadjoint_oracle", "group_invariants_report", "inverse_at",
    ],
    "pfaffian": ["transversality", "normalize", "first_integrals"],
}

# jsonio readers and writers are traced under one name each
JSONIO_GROUPS = {"load_": "jsonio.load", "read_": "jsonio.load",
                 "dump_": "jsonio.dump", "write_": "jsonio.dump"}

# (module, class) -> methods with aggregated stats only
METHODS = {
    ("exppoly", "ExpPoly"): ["__init__", "__mul__", "__add__", "substitute", "diff",
                             "antideriv", "evaluate"],
    ("rational", "RationalFunction"): ["__init__", "__mul__", "__add__", "__truediv__",
                                       "diff", "evaluate", "compose"],
    ("forms", "DiffForm"): ["wedge", "exterior_d"],
    ("liegroup", "GroupLaw"): ["multiply"],
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.spans: list[dict] = []
        self.request = ""
        self.sym_exp_inputs: set = set()
        self.missing: list[str] = []
        self._stack: list[list] = []  # [child_s, span_id or None]
        self._active: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []  # (owner, attr, original)

    def wrap(self, name: str, fn, span: bool):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        active = self._active
        active[name] = 0
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, len(self.spans) if span else None]
            if span:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                self.spans.append({"id": frame[1], "parent": parent, "name": name,
                                   "request": self.request})
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                dur = end - start
                stats[0] += 1
                stats[1] += dur - frame[0]
                if not active[name]:
                    stats[2] += dur
                if stack:
                    stack[-1][0] += dur
                if span:
                    self.spans[frame[1]].update(start=start, end=end)

        return traced

    def record_sym_exp(self, fn):
        """Keep the distinct inputs of `sym_exp`, outside its timed span."""
        inputs = self.sym_exp_inputs

        @functools.wraps(fn)
        def recorder(A, *args, **kwargs):
            key = tuple(tuple(Fraction(x) for x in row) for row in A)
            inputs.add((key, args, tuple(sorted(kwargs.items()))))
            return fn(A, *args, **kwargs)

        return recorder

    def summary(self) -> dict:
        out = {name: {"calls": c, "self_s": s, "total_s": t}
               for name, (c, s, t) in self.stats.items()}
        out.setdefault("matexp.sym_exp", {"calls": 0})["distinct"] = len(self.sym_exp_inputs)
        return out


def _liequad_modules():
    import liequad

    for info in pkgutil.iter_modules(liequad.__path__):
        importlib.import_module(f"liequad.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "liequad" or name.startswith("liequad."))]


def install(tracer: Tracer):
    """Wrap the traced functions and rebind them everywhere in liequad."""
    modules = _liequad_modules()
    mod = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    replace: dict[int, object] = {}
    for short, names in STAGES.items():
        for fname in names:
            fn = getattr(mod.get(short), fname, None)
            if fn is None:
                tracer.missing.append(f"{short}.{fname}")
                continue
            wrapped = tracer.wrap(f"{short}.{fname}", fn, span=True)
            if short == "matexp" and fname == "sym_exp":
                wrapped = tracer.record_sym_exp(wrapped)
            replace[id(fn)] = wrapped
    jsonio = mod.get("jsonio")
    for fname, fn in (vars(jsonio) if jsonio else {}).items():
        group = next((g for p, g in JSONIO_GROUPS.items() if fname.startswith(p)), None)
        if group and callable(fn) and getattr(fn, "__module__", "") == "liequad.jsonio":
            replace[id(fn)] = tracer.wrap(group, fn, span=True)
    for m in modules:
        for attr, val in list(vars(m).items()):
            if id(val) in replace:
                tracer._patched.append((m, attr, val))
                setattr(m, attr, replace[id(val)])
    for (short, cname), methods in METHODS.items():
        cls = getattr(mod.get(short), cname, None)
        for meth in methods:
            fn = getattr(cls, "__dict__", {}).get(meth)
            if fn is None:
                tracer.missing.append(f"{short}.{cname}.{meth}")
                continue
            wrapped = tracer.wrap(f"{short}.{cname}.{meth}", fn, span=False)
            for attr, val in list(cls.__dict__.items()):
                if val is fn:
                    tracer._patched.append((cls, attr, val))
                    setattr(cls, attr, wrapped)


def uninstall(tracer: Tracer):
    while tracer._patched:
        owner, attr, val = tracer._patched.pop()
        setattr(owner, attr, val)


def _launch(stats_path: str, cli_args: list[str]) -> int:
    t0 = time.perf_counter()
    import sympy  # noqa: F401

    t1 = time.perf_counter()
    import liequad.cli

    t2 = time.perf_counter()
    tracer = Tracer()
    install(tracer)
    tracer.request = cli_args[0]
    main = tracer.wrap("cli", liequad.cli.main, span=True)
    try:
        main(cli_args, prog_name="liequad")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    uninstall(tracer)
    doc = {"startup": {"sympy_s": t1 - t0, "liequad_s": t2 - t1},
           "stats": tracer.summary(), "missing": tracer.missing, "spans": tracer.spans}
    with open(stats_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[2] != "--":
        sys.exit("usage: tracer.py STATS.json -- COMMAND [ARGS...]")
    sys.exit(_launch(sys.argv[1], sys.argv[3:]))
