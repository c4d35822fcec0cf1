"""The per-layer benchmark metrics name program functions: every name in
`perfbench/tracer.py`'s STAGES and METHODS must still resolve in liequad,
so a rename cannot silently drop a metric.  The tracer is read with `ast`,
not imported."""

import ast
import importlib
import os

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")

# liegroup.inverse_at was deleted; its metric still reads 0 until the
# harness retires it
RETIRED = {"liegroup.inverse_at"}


def _tracer_tables():
    tree = ast.parse(open(TRACER, encoding="utf-8").read())
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("STAGES", "METHODS"):
                tables[name] = ast.literal_eval(node.value)
    return tables["STAGES"], tables["METHODS"]


def test_traced_names_resolve_in_liequad():
    stages, methods = _tracer_tables()
    missing = []
    for short, names in stages.items():
        module = importlib.import_module(f"liequad.{short}")
        missing += [f"{short}.{fn}" for fn in names
                    if f"{short}.{fn}" not in RETIRED and not callable(getattr(module, fn, None))]
    for (short, cname), names in methods.items():
        cls = getattr(importlib.import_module(f"liequad.{short}"), cname, None)
        # the tracer wraps what the class itself defines
        missing += [f"{short}.{cname}.{m}" for m in names if m not in getattr(cls, "__dict__", {})]
    assert not missing, missing
    assert stages and methods
