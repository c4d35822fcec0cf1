"""JSON schemas: algebras, forms, Pfaffian systems, traces, group laws.

All scalar payloads use the canonical text serialization of their class;
indices are 1-based in files and 0-based in memory.  Emitted documents
re-parse to structurally equal values.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import SchemaError
from .exacttext import evaluate_text, read_fraction
from .liealg import StructureConstants
from .varset import VarSet


def _integer(value, field: str) -> int:
    """An integer field: an int, an integral float or a decimal-integer
    string.  A bool or a non-integral number is a schema error, not
    truncated; other malformed values raise TypeError or ValueError."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise SchemaError(f"{field!r} must be an integer, got {value!r}")
    return int(value)


def _list(value, field: str) -> list:
    """A list field; any other value is a schema error, not iterated."""
    if not isinstance(value, list):
        raise SchemaError(f"{field!r} must be a list, got {value!r}")
    return value


def _chart(doc: dict) -> VarSet:
    """The chart of a forms or Pfaffian document: a list of names, so that
    a string "xyz" is not read as the chart x, y, z."""
    names = _list(doc["chart"], "chart")
    if not all(isinstance(name, str) for name in names):
        raise SchemaError(f"'chart' must be a list of names, got {names!r}")
    return VarSet(tuple(names))


def load_algebra(doc: dict) -> StructureConstants:
    """{"dim": n, "brackets": [{"i":…, "j":…, "coeffs": {k: rational-string}}],
    "params": {name: rational-string}}"""
    try:
        dim = _integer(doc["dim"], "dim")
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError("algebra document needs an integer 'dim'") from exc
    if dim < 1:
        raise SchemaError(f"algebra dimension must be at least 1, got {dim}")
    params = doc.get("params") or {}
    if not isinstance(params, dict):
        raise SchemaError(f"'params' must be an object, got {params!r}")
    params = {name: read_fraction(value, f"parameter {name!r}") for name, value in params.items()}
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for entry in _list(doc.get("brackets", []), "brackets"):
        try:
            i, j = _integer(entry["i"], "i"), _integer(entry["j"], "j")
            coeffs = {_integer(k, "target"): evaluate_text(v, params) for k, v in entry["coeffs"].items()}
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad bracket entry {entry!r}") from exc
        if (i, j) in brackets:
            raise SchemaError(f"bracket [e_{i}, e_{j}] is listed twice")
        brackets[(i, j)] = coeffs
    try:
        return StructureConstants.from_brackets(dim, brackets)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


# ----------------------------------------------------------------------
# scalars

def dump_scalar(s) -> dict:
    """The document of a scalar, by the `kind` its class names."""
    kind = getattr(s, "kind", None)
    if kind in ("exppoly", "rational"):
        return {"kind": kind, "text": s.to_text()}
    if kind == "log-extended":
        return {
            "kind": "log-extended",
            "rational": s.rational_part.to_text(),
            "logs": [
                {"coeff": str(c), "arg": a.to_text()} for c, a in s.log_terms
            ],
        }
    raise SchemaError(f"unknown scalar type {type(s).__name__}")


def _scalar_class(kind: str):
    """ExpPoly for "exppoly", RationalFunction for "rational", each
    class loaded on first use."""
    if kind == "exppoly":
        from .exppoly import ExpPoly

        return ExpPoly
    if kind == "rational":
        from .rational import RationalFunction

        return RationalFunction
    raise KeyError(kind)


def load_scalar(doc: dict, chart: VarSet):
    if not isinstance(doc, dict):
        raise SchemaError(f"a scalar must be an object, got {doc!r}")
    kind = doc.get("kind")
    if kind in ("exppoly", "rational"):
        if "text" not in doc:
            raise SchemaError(f"{kind} scalar needs a 'text'")
        return _scalar_class(kind).parse(chart, doc["text"])
    if kind == "log-extended":
        from .rational import LogExtendedScalar, RationalFunction

        try:
            rat = RationalFunction.parse(chart, doc["rational"])
            logs = [
                (read_fraction(item["coeff"], "log coefficient"), RationalFunction.parse(chart, item["arg"]))
                for item in doc["logs"]
            ]
            return LogExtendedScalar(chart, rat, logs)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad log-extended scalar: {exc}") from exc
    raise SchemaError(f"unknown scalar kind {kind!r}")


# ----------------------------------------------------------------------
# forms

def dump_form(form: DiffForm) -> dict:
    terms = []
    for idx in sorted(form.coeffs):
        c = form.coeffs[idx]
        terms.append({"idx": [i + 1 for i in idx], "coeff": c.to_text()})
    return {"degree": form.degree, "scalar_kind": form.scls.kind, "terms": terms}


def load_form(doc: dict, chart: VarSet) -> DiffForm:
    from .forms import DiffForm

    try:
        degree = _integer(doc["degree"], "degree")
        scls = _scalar_class(doc["scalar_kind"])
        coeffs = {}
        for term in doc["terms"]:
            idx = tuple(_integer(i, "idx") - 1 for i in _list(term["idx"], "idx"))
            if not all(0 <= i < len(chart) for i in idx):
                raise SchemaError(
                    f"form index {term['idx']} outside 1..{len(chart)} of the chart"
                )
            if idx in coeffs:
                raise SchemaError(f"form index {term['idx']} is listed twice")
            coeffs[idx] = scls.parse(chart, term["coeff"])
        return DiffForm(chart, degree, coeffs, scls)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad form document: {exc}") from exc


def dump_forms_file(chart: VarSet, forms) -> dict:
    return {"chart": list(chart.names), "forms": [dump_form(f) for f in forms]}


def load_forms_file(doc: dict) -> tuple[VarSet, list[DiffForm]]:
    try:
        chart = _chart(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad chart: {exc}") from exc
    return chart, [load_form(d, chart) for d in _list(doc.get("forms", []), "forms")]


# ----------------------------------------------------------------------
# Pfaffian systems

def load_pfaffian_file(doc: dict):
    """{"chart": [...], "excluded": [poly-strings], "theta": [form-docs],
    "symmetry": [{"components": [rational-strings]}], "brackets": algebra-doc}"""
    from .forms import Domain, VectorField
    from .pfaffian import PfaffianSystem, SymmetryAlgebra
    from .rational import RationalFunction

    try:
        chart = _chart(doc)
        excluded = _list(doc.get("excluded", []), "excluded")
        domain = Domain(chart, tuple(RationalFunction.parse(chart, t) for t in excluded))
        theta = [load_form(d, chart) for d in _list(doc["theta"], "theta")]
        fields = [
            VectorField(chart, [RationalFunction.parse(chart, t) for t in _list(vf["components"], "components")],
                        RationalFunction)
            for vf in _list(doc["symmetry"], "symmetry")
        ]
        constants = load_algebra(doc["brackets"])
        if not len(theta) == len(fields) == constants.dim:
            raise SchemaError("need as many generators and symmetry fields as the algebra's dimension")
        return PfaffianSystem(domain, theta), SymmetryAlgebra(fields, constants)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad Pfaffian system document: {exc}") from exc


# ----------------------------------------------------------------------
# traces and group laws

def dump_trace(trace) -> dict:
    steps = []
    for step in trace.steps:
        factor = None
        if step.factor is not None:
            factor = [[dump_scalar(c) for c in row] for row in step.factor]
        steps.append({"level": step.level, "f": dump_scalar(step.f), "factor": factor})
    return {
        "chart": list(trace.chart.names),
        "basepoint": {k: str(v) for k, v in trace.basepoint.items()},
        "steps": steps,
        "functions": [dump_scalar(f) for f in trace.functions if f is not None],
        "complete": trace.complete,
        "residual_forms": [dump_form(f) for f in trace.residual_forms],
    }


def dump_grouplaw(law) -> dict:
    n = law.group.n
    mu = {
        f"z{i + 1}": law.mu.components[i].to_text() for i in range(n)
    }
    ad = [[e.to_text() for e in row] for row in law.ad]
    return {
        "chart": list(law.group.chart.names),
        "doubled_chart": list(law.mu.source.names),
        "mu": mu,
        "ad": ad,
    }


def write_json(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _unique_keys(pairs: list) -> dict:
    """The object of a JSON document; a key listed twice is an error, as a
    plain dict would keep only its last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} is listed twice in one object")
        doc[key] = value
    return doc


def read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except ValueError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
