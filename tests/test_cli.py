"""CLI surface: JSON I/O, golden outputs, determinism, error codes."""

import argparse
import ast
import json
import os
import shlex
import subprocess
import sys

import pytest
from fractions import Fraction

from liequad import ExpPoly, RationalFunction, SchemaError, StructureConstants, VarSet, adapted_chain, multiplication
from liequad.cli import build_parser
from liequad import jsonio
from conftest import fixture_path, run_cli as _run


def _dump_algebra(sc: StructureConstants) -> dict:
    """The algebra document of sc: each nonzero bracket [e_i, e_j], i < j,
    with its coefficients as exact text."""
    brackets = []
    for j in range(sc.dim):
        for k in range(j + 1, sc.dim):
            coeffs = {str(i + 1): str(sc.C[i][j][k]) for i in range(sc.dim) if sc.C[i][j][k] != 0}
            if coeffs:
                brackets.append({"i": j + 1, "j": k + 1, "coeffs": coeffs})
    return {"dim": sc.dim, "brackets": brackets}


def test_validate_abelian(tmp_path):
    out = tmp_path / "report.json"
    res = _run(["validate", fixture_path("algebra_abelian3.json"), "-o", str(out)])
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    assert doc["solvable"] is True
    assert doc["report"]["passed"] is True
    # trivial chain: all restricted adjoints vanish
    assert all(
        all(x == "0" for row in mat for x in row) for mat in doc["ad_restricted"]
    )


def test_validate_rejects_jacobi_violation(tmp_path):
    bad = {
        "dim": 3,
        "brackets": [
            {"i": 1, "j": 2, "coeffs": {"1": "1"}},
            {"i": 1, "j": 3, "coeffs": {"2": "1"}},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    res = _run(["validate", str(path)])
    assert res.exit_code == 1
    assert "[FAIL] Jacobi identity" in res.output


def test_validate_schema_error_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    res = _run(["validate", str(path)])
    assert res.exit_code == 2


@pytest.mark.parametrize("dim", [0, -2])
@pytest.mark.parametrize("command", ["validate", "coframe", "multiply"])
def test_dimension_below_one_is_schema_error(tmp_path, command, dim):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"dim": dim, "brackets": []}))
    res = _run([command, str(path)])
    assert res.exit_code == 2
    assert json.loads(res.stderr)["error"]["code"] == "schema-error"


@pytest.mark.parametrize("target", ["0", "9"])
def test_bracket_target_out_of_range_is_schema_error(tmp_path, target):
    """A coefficient on e_0 would silently become one on e_3 (C[-1]); one
    on e_9 would index past the constants."""
    path = tmp_path / "bad_target.json"
    path.write_text(json.dumps({"dim": 3, "brackets": [{"i": 2, "j": 3, "coeffs": {target: "1"}}]}))
    res = _run(["validate", str(path)])
    assert res.exit_code == 2
    assert json.loads(res.stderr)["error"]["code"] == "schema-error"


def test_multiply_tol_zero_reaches_the_oracle(tmp_path):
    """On L16 both reductions meet a level-0 residual of about 1.6e-10; at
    --tol-zero 1e-6 the oracle accepts it as the law's reduction does."""
    from liequad import StructureConstants

    n = 16
    sc = StructureConstants.from_brackets(n, {(n, k): {k - 1: Fraction(1)} for k in range(2, n)})
    algebra = tmp_path / "filiform16.json"
    jsonio.write_json(str(algebra), _dump_algebra(sc))
    res = _run(["multiply", str(algebra), "--tol-zero", "1e-6", "-o", str(tmp_path / "grouplaw.json")])
    line = next(ln for ln in res.output.splitlines() if "d theta~^i" in ln)
    assert line.startswith("[pass]"), res.output


def test_multiply_irrational_spectrum_writes_readable_text(tmp_path):
    """[e3,e1] = e1 + e2, [e3,e2] = -e1: ad e3 has the eigenvalues
    (1 +- i sqrt 3)/2, decided as a = 1/2 exactly and b = sqrt(3/4) rounded
    once.  The rates agree exactly, so the symbolic check passes, and every
    entry of the law and of Ad reads back from its text."""
    path, out = tmp_path / "algebra.json", tmp_path / "grouplaw.json"
    brackets = [
        {"i": 3, "j": 1, "coeffs": {"1": "1", "2": "1"}},
        {"i": 3, "j": 2, "coeffs": {"1": "-1"}},
    ]
    path.write_text(json.dumps({"dim": 3, "brackets": brackets}))
    res = _run(["multiply", str(path), "-o", str(out)])
    assert res.exit_code == 0, res.output
    line = next(ln for ln in res.output.splitlines() if "mu^* tau^i = omega^i" in ln)
    assert line.startswith("[pass]") and "[symbolic]" in line, line
    doc = json.loads(out.read_text())
    texts = list(doc["mu"].values()) + [t for row in doc["ad"] for t in row]
    assert not any("np." in t for t in texts)
    law = multiplication(adapted_chain(jsonio.load_algebra({"dim": 3, "brackets": brackets}))[1])
    entries = list(law.mu.components) + [e for row in law.ad for e in row]
    assert len(entries) == 12
    for p in entries:
        assert ExpPoly.parse(p.chart, p.to_text()) == p, p.to_text()


def test_multiply_matches_golden_law(tmp_path):
    out = tmp_path / "grouplaw.json"
    res = _run(["multiply", fixture_path("algebra_fiveparam_a1_b2.json"), "-o", str(out)])
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    golden = json.loads(open(fixture_path("golden_mu_fiveparam_a1_b2.json")).read())
    D = VarSet(tuple(doc["doubled_chart"]))
    for key, text in golden["mu"].items():
        computed = ExpPoly.parse(D, doc["mu"][key])
        expected = ExpPoly.parse(D, text)
        assert computed.isclose(expected, 1e-10), key
    assert doc["report"]["passed"] is True
    modes = {c["name"]: c["mode"] for c in doc["report"]["checks"]}
    assert modes["mu^* tau^i = omega^i"] == "symbolic"


def test_multiply_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["multiply", fixture_path("algebra_fiveparam_a1_b2.json"), "--seed", "7"]
    r1 = _run(argv + ["-o", str(out1)])
    r2 = _run(argv + ["-o", str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert r1.output.replace(str(out1), "") == r2.output.replace(str(out2), "")


def test_pfaff_matches_golden_integrals(tmp_path):
    out = tmp_path / "integrals.json"
    res = _run(
        [
            "pfaff",
            fixture_path("pfaffian_third_order_ode.json"),
            "--basepoint",
            "x=0,u=0,u_x=1,u_xx=1",
            "-o",
            str(out),
        ]
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    golden = json.loads(open(fixture_path("golden_integrals_third_order.json")).read())
    chart = VarSet(tuple(doc["chart"]))
    bp = {k: Fraction(v) for k, v in golden["basepoint"].items()}
    for i, key in enumerate(["f1", "f2", "f3"]):
        computed = jsonio.load_scalar(doc["integrals"][i], chart)
        expected = RationalFunction.parse(chart, golden["integrals"][key])
        shift = expected.evaluate_exact(bp)
        assert computed == expected - RationalFunction.constant(chart, shift), key


def test_reduce_on_golden_forms(tmp_path):
    out = tmp_path / "trace.json"
    res = _run(
        [
            "reduce",
            fixture_path("algebra_heisenberg.json"),
            fixture_path("forms_normalized_third_order.json"),
            "--basepoint",
            "x=0,u=0,u_x=1,u_xx=1",
            "-o",
            str(out),
        ]
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    assert doc["complete"] is True
    assert len(doc["functions"]) == 3
    assert doc["report"]["passed"] is True
    # the input-forms line records the measured worst residual
    assert doc["report"]["checks"][0]["name"] == "structure equations of the input forms"
    assert doc["report"]["checks"][0]["error"] == 0.0


def test_reduce_partial_stop(tmp_path):
    out = tmp_path / "trace.json"
    res = _run(
        [
            "reduce",
            fixture_path("algebra_fiveparam_a1_b2.json"),
            fixture_path("forms_product_group_fiveparam_a1_b2.json"),
            "--stop-after",
            "2",
            "-o",
            str(out),
        ]
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    assert doc["complete"] is False
    assert len(doc["residual_forms"]) == 3
    assert len(doc["steps"]) == 2
    # one line for the input block and the remaining block
    check = doc["report"]["checks"][0]
    assert check["name"] == "structure equations of the input and the remaining forms"
    assert check["passed"] and check["error"] < 1e-10


def test_reduce_full_product_group_forms(tmp_path):
    out = tmp_path / "trace.json"
    res = _run(
        [
            "reduce",
            fixture_path("algebra_fiveparam_a1_b2.json"),
            fixture_path("forms_product_group_fiveparam_a1_b2.json"),
            "-o",
            str(out),
        ]
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    golden = json.loads(open(fixture_path("golden_mu_fiveparam_a1_b2.json")).read())
    D = VarSet(tuple(doc["chart"]))
    for i, key in enumerate(["z1", "z2", "z3", "z4", "z5"]):
        computed = jsonio.load_scalar(doc["functions"][i], D)
        assert computed.isclose(ExpPoly.parse(D, golden["mu"][key]), 1e-10)


def test_reduce_exact_filiform16_forms(tmp_path):
    """The L16 coframe un-reduced over Q: rho^* tau = omega holds exactly,
    with tau built in rho's rational class."""
    from liequad import StructureConstants, adapted_chain, coordinate_chart, unreduce

    n = 16
    sc = StructureConstants.from_brackets(n, {(n, k): {k - 1: Fraction(1)} for k in range(2, n)})
    P, chain = adapted_chain(sc)
    # the forms are the chain's own, so the input basis must be adapted already
    assert P == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    U = coordinate_chart(n, "u")
    forms = unreduce(chain, [RationalFunction.coordinate(U, nm) for nm in U.names])
    algebra, forms_file, out = tmp_path / "algebra.json", tmp_path / "forms.json", tmp_path / "trace.json"
    jsonio.write_json(str(algebra), _dump_algebra(sc))
    jsonio.write_json(str(forms_file), jsonio.dump_forms_file(U, forms))
    res = _run(["reduce", str(algebra), str(forms_file), "-o", str(out)])
    assert res.exit_code == 0, res.output
    checks = json.loads(out.read_text())["report"]["checks"]
    rho_lines = [c for c in checks if c["name"].startswith("rho^* tau^")]
    assert len(rho_lines) == n
    assert all(c["mode"] == "exact" and c["error"] == 0.0 for c in rho_lines)


def test_reduce_with_a_log_integrating_factor_and_a_small_bracket(tmp_path):
    """[e3, e1] = e1, [e3, e2] = a e1 with a = 1/1000000007 and the forms
    (dx/u - a dy, dy, du/u): the integrating factor keeps a exactly, so the
    reduction completes (it stopped as not closed when a was guessed from a
    float), and the run ends where rho meets the log term, as for dx/x."""
    algebra, forms = tmp_path / "algebra.json", tmp_path / "forms.json"
    algebra.write_text(json.dumps({"dim": 3, "brackets": [{"i": 1, "j": 3, "coeffs": {"1": "-1"}},
                                                          {"i": 2, "j": 3, "coeffs": {"1": "-1/1000000007"}}]}))
    forms.write_text(json.dumps({"chart": ["x", "y", "u"], "forms": [
        {"degree": 1, "scalar_kind": "rational",
         "terms": [{"idx": [1], "coeff": "1/u"}, {"idx": [2], "coeff": "-1/1000000007"}]},
        {"degree": 1, "scalar_kind": "rational", "terms": [{"idx": [2], "coeff": "1"}]},
        {"degree": 1, "scalar_kind": "rational", "terms": [{"idx": [3], "coeff": "1/u"}]}]}))
    res = _run(["reduce", str(algebra), str(forms), "--basepoint", "x=0,y=0,u=1"])
    _assert_error_document(res, "class-mismatch")


def test_rational_numeric_rho_check_samples_off_the_poles(tmp_path):
    """The normalized third-order forms have u_x and u_xx in their
    denominators; the numeric check of rho draws its points away from those
    zeros, so every seed passes with float-rounding errors."""
    out = tmp_path / "trace.json"
    for seed in range(10):
        res = _run(["reduce", fixture_path("algebra_heisenberg.json"),
                    fixture_path("forms_normalized_third_order.json"),
                    "--basepoint", "x=0,u=0,u_x=1,u_xx=1", "--mode", "numeric",
                    "--seed", str(seed), "-o", str(out)])
        assert res.exit_code == 0, (seed, res.output)
        checks = json.loads(out.read_text())["report"]["checks"]
        rho_lines = [c for c in checks if c["name"].startswith("rho^* tau^")]
        assert len(rho_lines) == 3 and all(c["mode"] == "numeric" for c in rho_lines)
        assert max(c["error"] for c in rho_lines) <= 1e-11, (seed, rho_lines)


def test_reduce_overflowing_exponential_is_an_error_document():
    """At x4 = -1000 the normalized product-group functions carry constants
    whose exponentials overflow in the symbolic pullback."""
    res = _run(["reduce", fixture_path("algebra_fiveparam_a1_b2.json"),
                fixture_path("forms_product_group_fiveparam_a1_b2.json"), "--basepoint", "x4=-1000"])
    _assert_error_document(res, "non-finite-coefficient")


def _abelian3_forms(tmp_path, *coeffs):
    """Forms coeffs[i] dx_{i+1} over (x1, x2, x3), as a forms file."""
    doc = {"chart": ["x1", "x2", "x3"], "forms": [
        {"degree": 1, "scalar_kind": "exppoly", "terms": [{"idx": [i + 1], "coeff": c}]}
        for i, c in enumerate(coeffs)
    ]}
    path = tmp_path / "forms.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _reduce_abelian3(tmp_path, forms, *options):
    out = tmp_path / "trace.json"
    res = _run(["reduce", fixture_path("algebra_abelian3.json"), forms, "-o", str(out), *options])
    return res, (json.loads(out.read_text()) if out.exists() else None)


def test_reduce_integrates_cos_times_sin(tmp_path):
    res, doc = _reduce_abelian3(tmp_path, _abelian3_forms(tmp_path, "1.0", "1.0", "cos(1.0*x3)*sin(1.0*x3)"))
    assert res.exit_code == 0, res.output
    assert doc["functions"][2]["text"] == "0.25 + -0.25*cos(2.0*x3)"


def test_rho_with_log_terms_is_a_class_mismatch(tmp_path):
    """dx/x integrates to log x: the reduction completes, but rho has no
    rational component there, so the run ends in an error document."""
    doc = {"chart": ["x", "y", "z"], "forms": [
        {"degree": 1, "scalar_kind": "rational", "terms": [{"idx": [i + 1], "coeff": c}]}
        for i, c in enumerate(["1/x", "1", "1"])
    ]}
    forms = tmp_path / "forms.json"
    forms.write_text(json.dumps(doc))
    res = _run(["reduce", fixture_path("algebra_abelian3.json"), str(forms), "--basepoint", "x=1"])
    _assert_error_document(res, "class-mismatch")


def test_tol_zero_does_not_drop_a_small_coefficient(tmp_path):
    """--tol-zero bounds the measured residuals; a quadrature of a small
    nonzero coefficient is not skipped."""
    forms = _abelian3_forms(tmp_path, "0.001", "1.0", "1.0")
    res, doc = _reduce_abelian3(tmp_path, forms, "--tol-zero", "0.01")
    assert res.exit_code == 0, res.output
    assert doc["functions"][0]["text"] == "0.001*x1"


@pytest.mark.parametrize("text", [
    "nan*x1", "inf*x1", "1e400", "exp(x1*x2)", "x1/x2", "sqrt(x1)", "x1^-1", "z1",
])
def test_bad_exppoly_form_text_is_schema_error(tmp_path, text):
    res, _ = _reduce_abelian3(tmp_path, _abelian3_forms(tmp_path, text, "1.0", "1.0"))
    assert res.exit_code == 2
    assert json.loads(res.stderr)["error"]["code"] == "schema-error"


def test_coframe_abelian(tmp_path):
    out = tmp_path / "coframe.json"
    res = _run(["coframe", fixture_path("algebra_abelian3.json"), "-o", str(out)])
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert len(doc["forms"]) == 3
    assert doc["forms"][0]["terms"][0]["coeff"] == "1.0"


def test_forms_round_trip():
    chart, forms = jsonio.load_forms_file(
        jsonio.read_json(fixture_path("forms_normalized_third_order.json"))
    )
    doc = jsonio.dump_forms_file(chart, forms)
    chart2, forms2 = jsonio.load_forms_file(doc)
    assert chart2 == chart
    for a, b in zip(forms, forms2):
        assert (a - b).is_zero()
    chart3, forms3 = jsonio.load_forms_file(
        jsonio.read_json(fixture_path("forms_product_group_fiveparam_a1_b2.json"))
    )
    doc3 = jsonio.dump_forms_file(chart3, forms3)
    _, forms4 = jsonio.load_forms_file(doc3)
    for a, b in zip(forms3, forms4):
        assert (a - b).max_abs_coeff() <= 1e-14


def test_scalar_round_trip_log_extended():
    from liequad import LogExtendedScalar

    V = VarSet.of("x", "u")
    f = LogExtendedScalar(
        V,
        RationalFunction.parse(V, "-x"),
        [(Fraction(1), RationalFunction.parse(V, "u"))],
    )
    doc = jsonio.dump_scalar(f)
    back = jsonio.load_scalar(doc, V)
    assert back == f


def test_algebra_round_trip():
    doc = jsonio.read_json(fixture_path("algebra_fiveparam_a1_b2.json"))
    sc = jsonio.load_algebra(doc)
    doc2 = _dump_algebra(sc)
    sc2 = jsonio.load_algebra(doc2)
    assert sc2.C == sc.C


def test_reduce_from_non_adapted_presentation(tmp_path):
    """Forms given in a non-adapted basis: the command re-expresses them in
    the adapted basis and reduces; here they are the coframe in disguise,
    so the quadrature functions are the coordinates."""
    from fractions import Fraction as Fr

    from liequad import adapted_chain, build_group, transform_forms
    from liequad.liealg import StructureConstants, mat_inverse

    sc = StructureConstants.from_brackets(3, {(3, 1): {2: "1"}})
    P, chain = adapted_chain(sc)
    group = build_group(chain)
    # push the coframe back through the inverse change so the file carries
    # forms satisfying the structure equations of the input basis
    disguised = transform_forms(mat_inverse(P), group.tau)
    algebra_path = tmp_path / "algebra.json"
    forms_path = tmp_path / "forms.json"
    algebra_path.write_text(json.dumps(_dump_algebra(sc)))
    forms_doc = jsonio.dump_forms_file(group.chart, disguised)
    forms_path.write_text(json.dumps(forms_doc))
    out = tmp_path / "trace.json"
    res = _run(["reduce", str(algebra_path), str(forms_path), "-o", str(out)])
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    D = VarSet(tuple(doc["chart"]))
    for i, fdoc in enumerate(doc["functions"]):
        f = jsonio.load_scalar(fdoc, D)
        assert f.isclose(ExpPoly.coordinate(D, D.names[i]), 1e-9)


def test_pfaff_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = [
        "pfaff",
        fixture_path("pfaffian_third_order_ode.json"),
        "--basepoint",
        "x=0,u=0,u_x=1,u_xx=1",
        "--seed",
        "3",
    ]
    r1 = _run(argv + ["-o", str(out1)])
    r2 = _run(argv + ["-o", str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bad_bracket_indices_rejected(tmp_path):
    doc = {"dim": 2, "brackets": [{"i": 1, "j": 7, "coeffs": {"1": "1"}}]}
    path = tmp_path / "oob.json"
    path.write_text(json.dumps(doc))
    res = _run(["validate", str(path)])
    assert res.exit_code == 2


def test_form_bad_index_length_rejected(tmp_path):
    doc = {
        "chart": ["x1", "x2"],
        "forms": [
            {"degree": 1, "scalar_kind": "rational", "terms": [{"idx": [1, 2], "coeff": "1"}]}
        ],
    }
    with pytest.raises(Exception):
        jsonio.load_forms_file(doc)


@pytest.mark.parametrize("index", [0, 9])
def test_form_index_outside_the_chart_is_schema_error(tmp_path, index):
    doc = json.loads(open(fixture_path("forms_normalized_third_order.json")).read())
    doc["forms"][0]["terms"][1]["idx"] = [index]
    (tmp_path / "forms.json").write_text(json.dumps(doc))
    res = _run(["reduce", fixture_path("algebra_heisenberg.json"), str(tmp_path / "forms.json"),
                "--basepoint", BASEPOINT])
    _assert_error_document(res, "schema-error")


def test_bracket_coefficients_not_a_mapping_is_schema_error(tmp_path):
    path = tmp_path / "list_coeffs.json"
    path.write_text(json.dumps({"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": ["1"]}]}))
    res = _run(["validate", str(path)])
    assert res.exit_code == 2
    assert json.loads(res.stderr)["error"]["code"] == "schema-error"


# a pair listed twice was summed: the first two cancel to the abelian
# algebra, the third doubles C^1_12, the fourth splits one bracket
TWICE_LISTED = {
    "opposite_signs_cancel": [(1, 2, "1"), (2, 1, "1")],
    "consistent_pair_doubles": [(1, 2, "1"), (2, 1, "-1")],
    "same_order": [(1, 2, "1/2"), (1, 2, "1/2")],
}


@pytest.mark.parametrize("case", sorted(TWICE_LISTED))
@pytest.mark.parametrize("command", ["validate", "multiply"])
def test_bracket_pair_listed_twice_is_schema_error(tmp_path, case, command):
    doc = {"dim": 2, "brackets": [{"i": i, "j": j, "coeffs": {"1": c}}
                                  for i, j, c in TWICE_LISTED[case]]}
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="twice"):
        jsonio.load_algebra(doc)
    res = _run([command, str(path)])
    _assert_error_document(res, "schema-error")


# a plain dict kept the last of two equal keys, reading the first document
# as C^1_23 = 5; bytes that are not UTF-8 raised UnicodeDecodeError (exit 1)
UNREADABLE = {
    "key-listed-twice": (b'{"dim": 3, "brackets": [{"i": 2, "j": 3, "coeffs": {"1": "1", "1": "5"}}]}',
                         "listed twice"),
    "not-utf8": (b'{"dim": 3, "brackets": [], "note": "\xff"}', "utf-8"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_json_is_schema_error(tmp_path, case):
    data, message = UNREADABLE[case]
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    res = _run(["validate", str(path)])
    _assert_error_document(res, "schema-error")
    assert message in json.loads(res.stderr)["error"]["message"]


def _unit_forms(kind):
    return [{"degree": 1, "scalar_kind": kind, "terms": [{"idx": [i], "coeff": "1"}]} for i in (1, 2, 3)]


# a well-formed document of each kind, with the command that reads it
SHAPE_READERS = {
    "algebra": (lambda path: ["validate", path],
                lambda: {"dim": 3, "brackets": [{"i": 2, "j": 3, "coeffs": {"1": "1"}}]}),
    "forms": (lambda path: ["reduce", fixture_path("algebra_abelian3.json"), path],
              lambda: {"chart": ["x", "y", "z"], "forms": _unit_forms("exppoly")}),
    "pfaffian": (lambda path: ["pfaff", path],
                 lambda: {"chart": ["x", "y", "z"], "theta": _unit_forms("rational"),
                          "symmetry": [{"components": ["1" if k == i else "0" for k in range(3)]}
                                       for i in range(3)],
                          "brackets": {"dim": 3, "brackets": []}}),
}
# each of these once ended in a traceback (exit 1), except a string where a
# list belongs, which was read as its characters: the chart x, y, z, the
# excluded sets x = 0 and y = 0, or the components 1, 0, 0
BAD_SHAPES = {
    "params-list": ("algebra", {"params": [1]}),
    "brackets-number": ("algebra", {"brackets": 5}),
    "forms-number": ("forms", {"forms": 5}),
    "forms-chart-string": ("forms", {"chart": "xyz"}),
    "pfaffian-chart-string": ("pfaffian", {"chart": "xyz"}),
    "pfaffian-excluded-string": ("pfaffian", {"excluded": "xy"}),
    "pfaffian-components-string": ("pfaffian", {"symmetry": [{"components": c} for c in ("100", "010", "001")]}),
}


@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
def test_document_of_the_wrong_shape_is_schema_error(tmp_path, case):
    kind, change = BAD_SHAPES[case]
    command, document = SHAPE_READERS[kind]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document()))
    assert _run(command(str(path))).exit_code == 0
    path.write_text(json.dumps({**document(), **change}))
    _assert_error_document(_run(command(str(path))), "schema-error")


def test_bracket_pair_written_high_index_first_is_legal():
    """[e_2, e_1] = -e_1 alone is [e_1, e_2] = e_1, as filiform generators write it."""
    doc = {"dim": 2, "brackets": [{"i": 2, "j": 1, "coeffs": {"1": "-1"}}]}
    sc = jsonio.load_algebra(doc)
    assert sc.C[0][0][1] == Fraction(1) and sc.C[0][1][0] == Fraction(-1)
    assert sc == StructureConstants.from_brackets(2, {(1, 2): {1: Fraction(1)}})
    with pytest.raises(ValueError, match="twice"):
        StructureConstants.from_brackets(2, {(1, 2): {1: Fraction(1)}, (2, 1): {1: Fraction(-1)}})


def test_nonpositive_tolerance_rejected():
    res = _run(["coframe", fixture_path("algebra_abelian3.json"), "--tol-zero", "-1"])
    assert res.exit_code == 2
    assert json.loads(res.stderr)["error"]["code"] == "schema-error"


@pytest.mark.parametrize("value", ["nan", "inf", "1", "2"])
@pytest.mark.parametrize("command, flag", [("coframe", "--tol-zero"), ("multiply", "--tol-zero"),
                                           ("multiply", "--tol-sample")])
def test_nan_tolerance_rejected(command, flag, value):
    """A tolerance is a number in (0, 1).  NaN passes a `tol <= 0` test;
    every check then compares against NaN and fails, so the run reported
    false FAIL lines and exited 1.  At inf every bounded line passes, and
    from 1 on a nonzero exact residual, whose size is 1.0, passes too."""
    res = _run([command, fixture_path("algebra_abelian3.json"), flag, value])
    _assert_error_document(res, "schema-error")


def test_tolerance_below_one_rejects_a_nonzero_exact_residual(tmp_path):
    """dx, dy, dz fail the Heisenberg structure equations; their exact
    residual has size 1.0, so any tolerance below 1 stops the run at level 0."""
    forms = [{"degree": 1, "scalar_kind": "rational", "terms": [{"idx": [i], "coeff": "1"}]} for i in (1, 2, 3)]
    (tmp_path / "forms.json").write_text(json.dumps({"chart": ["x", "y", "z"], "forms": forms}))
    res = _run(["reduce", fixture_path("algebra_heisenberg.json"), str(tmp_path / "forms.json"),
                "--tol-zero", "0.999"])
    _assert_error_document(res, "residual-nonzero")
    assert "level-0" in json.loads(res.stderr)["error"]["message"]


OPTIONS = {
    "validate": {"--seed", "-o"},
    "coframe": {"--tol-zero", "--samples", "--seed", "-o"},
    "multiply": {"--tol-zero", "--tol-sample", "--samples", "--seed", "--mode", "-o"},
    "reduce": {"--tol-zero", "--tol-sample", "--samples", "--seed", "--basepoint", "--mode",
               "--stop-after", "-o"},
    "pfaff": {"--samples", "--seed", "--basepoint", "-o"},
}
FLAG_VALUES = {"--tol-zero": "1e-10", "--tol-sample": "1e-8", "--samples": "5", "--seed": "0",
               "--basepoint": "x=0", "--mode": "auto", "--stop-after": "1", "-o": "out.json"}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_each_command_takes_only_the_options_it_reads(command):
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    listed = {a.option_strings[0] for a in subparsers.choices[command]._actions
              if a.option_strings and not isinstance(a, argparse._HelpAction)}
    assert listed == OPTIONS[command]
    help_text = _run([command, "--help"]).output
    for flag in FLAG_VALUES:
        assert (flag in help_text) == (flag in OPTIONS[command]), flag


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in sorted(OPTIONS) for flag in sorted(FLAG_VALUES)
    if flag not in OPTIONS[command]
])
def test_removed_flag_is_a_usage_error(command, flag):
    res = _run([command, fixture_path("algebra_abelian3.json"), flag, FLAG_VALUES[flag]])
    assert res.exit_code == 2
    assert "unrecognized arguments" in res.output and flag in res.output


@pytest.mark.parametrize("args", [
    [],
    ["frobnicate"],
    ["validate"],
    ["validate", "{algebra}", "--frobnicate"],
    ["coframe", "{algebra}", "--se", "3"],
    ["multiply", "{algebra}", "--samp", "5"],
    ["multiply", "{algebra}", "--samples", "five"],
    ["multiply", "{algebra}", "--tol-zero", "small"],
    ["reduce", "{algebra}", "{algebra}", "--stop-after", "1.5"],
    ["multiply", "{algebra}", "--mode", "exact"],
    ["validate", "{tmp}/missing.json"],
    ["validate", "{tmp}"],
    ["validate", "{algebra}", "-o", "{tmp}"],
    ["reduce", "{algebra}", "{tmp}/missing.json"],
], ids=lambda args: " ".join(args) or "no-command")
def test_usage_error_exits_2_without_a_document(tmp_path, args):
    """A malformed command line exits 2 with a usage message on stderr, and
    prints no report and no JSON document; an abbreviated option is not
    taken for the option it starts."""
    res = _run([a.format(algebra=fixture_path("algebra_abelian3.json"), tmp=tmp_path) for a in args])
    assert res.exit_code == 2
    assert res.output == res.stderr and "usage: " in res.stderr and "error: " in res.stderr
    assert '"error"' not in res.stderr
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("args", [["--help"], *([command, "--help"] for command in sorted(OPTIONS))])
def test_help_exits_0(args):
    res = _run(args)
    assert res.exit_code == 0 and res.stderr == ""
    assert res.output.startswith("usage: liequad")


def _assert_error_document(res, code):
    assert res.exit_code == 2, res.output
    assert json.loads(res.stderr.strip().splitlines()[-1])["error"]["code"] == code


def test_negative_stop_after_is_schema_error():
    res = _run(["reduce", fixture_path("algebra_fiveparam_a1_b2.json"),
                fixture_path("forms_product_group_fiveparam_a1_b2.json"), "--stop-after", "-1"])
    _assert_error_document(res, "schema-error")


@pytest.mark.parametrize("degree, idx", [(0, []), (2, [1, 2])], ids=["degree-0", "degree-2"])
@pytest.mark.parametrize("algebra, forms", [
    ("algebra_heisenberg.json", "forms_normalized_third_order.json"),
    ("algebra_fiveparam_a1_b2.json", "forms_product_group_fiveparam_a1_b2.json"),
], ids=["rational", "exppoly"])
def test_reduce_rejects_a_form_that_is_not_a_1_form(tmp_path, algebra, forms, degree, idx):
    """The first form replaced by a 0-form or a 2-form is a schema error,
    not a traceback from the structure-equation check."""
    doc = json.loads(open(fixture_path(forms)).read())
    doc["forms"][0] = {"degree": degree, "scalar_kind": doc["forms"][0]["scalar_kind"],
                       "terms": [{"idx": idx, "coeff": "1"}]}
    (tmp_path / "forms.json").write_text(json.dumps(doc))
    res = _run(["reduce", fixture_path(algebra), str(tmp_path / "forms.json")])
    _assert_error_document(res, "schema-error")
    assert f"form 1 has degree {degree}" in json.loads(res.stderr)["error"]["message"]


@pytest.mark.parametrize("command", ["reduce", "pfaff"])
@pytest.mark.parametrize("basepoint, named", [
    ("x=0,u=0,u_x=1,u_xx=1,q=5", "'q'"),
    ("x=1/0,u=0,u_x=1,u_xx=1", "basepoint value of 'x'"),
    ("x=0,x=1,u=0,u_x=1,u_xx=1", "basepoint name 'x' is given twice"),
], ids=["outside-the-chart", "zero-denominator", "name-twice"])
def test_bad_basepoint_is_schema_error(command, basepoint, named):
    """A name outside the chart, a zero denominator (not a traceback) and a
    name given twice (not its last value kept) are schema errors."""
    if command == "reduce":
        files = [fixture_path("algebra_heisenberg.json"), fixture_path("forms_normalized_third_order.json")]
    else:
        files = [fixture_path("pfaffian_third_order_ode.json")]
    res = _run([command, *files, "--basepoint", basepoint])
    _assert_error_document(res, "schema-error")
    assert named in json.loads(res.stderr)["error"]["message"]


def test_zero_denominator_in_a_document_is_schema_error(tmp_path):
    """An algebra parameter and a log coefficient are read by
    `exacttext.read_fraction`: a zero denominator is a schema error."""
    doc = {"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"1": "a"}}], "params": {"a": "1/0"}}
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    res = _run(["validate", str(path)])
    _assert_error_document(res, "schema-error")
    assert "parameter 'a'" in json.loads(res.stderr)["error"]["message"]
    scalar = {"kind": "log-extended", "rational": "0", "logs": [{"coeff": "1/0", "arg": "u"}]}
    with pytest.raises(SchemaError, match="log coefficient"):
        jsonio.load_scalar(scalar, VarSet.of("x", "u"))


@pytest.mark.parametrize("command", ["reduce", "pfaff"])
def test_form_index_listed_twice_is_schema_error(tmp_path, command):
    """A second term with the same idx would overwrite the first; here the
    term 5 dx comes before the fixture's 1 dx (reduce) or -u_x dx (the
    Pfaffian theta^1), and the document is rejected instead."""
    extra = {"idx": [1], "coeff": "5"}
    if command == "reduce":
        doc = json.loads(open(fixture_path("forms_normalized_third_order.json")).read())
        doc["forms"][0]["terms"].insert(0, extra)
        (tmp_path / "forms.json").write_text(json.dumps(doc))
        args = [fixture_path("algebra_heisenberg.json"), str(tmp_path / "forms.json")]
    else:
        doc = _pfaffian_doc()
        doc["theta"][0]["terms"].insert(0, extra)
        (tmp_path / "system.json").write_text(json.dumps(doc))
        args = [str(tmp_path / "system.json")]
    res = _run([command, *args, "--basepoint", BASEPOINT])
    _assert_error_document(res, "schema-error")
    assert "form index [1] is listed twice" in json.loads(res.stderr)["error"]["message"]


def test_reduce_basepoint_on_a_pole_is_an_error_document():
    """Without --basepoint the basepoint is the origin, where u_x = 0 is a
    pole of the quadratures of the normalized ODE forms."""
    res = _run(["reduce", fixture_path("algebra_heisenberg.json"),
                fixture_path("forms_normalized_third_order.json")])
    _assert_error_document(res, "basepoint-on-pole")
    res = _run(["reduce", fixture_path("algebra_heisenberg.json"),
                fixture_path("forms_normalized_third_order.json"), "--basepoint", "x=1,u_xx=1"])
    _assert_error_document(res, "basepoint-on-pole")


def test_pfaff_records_every_coordinate_of_the_basepoint(tmp_path):
    """A partial --basepoint is completed with zeros, as `reduce` does."""
    out = tmp_path / "integrals.json"
    res = _run(["pfaff", fixture_path("pfaffian_third_order_ode.json"),
                "--basepoint", "u_x=1,u_xx=1", "-o", str(out)])
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    assert doc["basepoint"] == {"x": "0", "u": "0", "u_x": "1", "u_xx": "1"}


@pytest.mark.parametrize("where", ["brackets", "components"])
def test_pfaffian_document_missing_key_is_schema_error(tmp_path, where):
    doc = _pfaffian_doc()
    if where == "brackets":
        del doc["brackets"]
    else:
        del doc["symmetry"][1]["components"]
    (tmp_path / "system.json").write_text(json.dumps(doc))
    res = _run(["pfaff", str(tmp_path / "system.json"), "--basepoint", BASEPOINT])
    _assert_error_document(res, "schema-error")


def test_excluded_sets_covering_the_box_give_an_error_document(tmp_path):
    doc = _pfaffian_doc()
    doc["excluded"] = ["0"]
    (tmp_path / "system.json").write_text(json.dumps(doc))
    res = _run(["pfaff", str(tmp_path / "system.json"), "--basepoint", BASEPOINT])
    _assert_error_document(res, "empty-domain")


def test_unbound_parameter_is_schema_error(tmp_path):
    doc = {
        "dim": 2,
        "brackets": [{"i": 1, "j": 2, "coeffs": {"1": "q"}}],
    }
    path = tmp_path / "unbound.json"
    path.write_text(json.dumps(doc))
    res = _run(["validate", str(path)])
    assert res.exit_code == 2
    assert "schema-error" in res.output or "schema-error" in (res.stderr or "")


@pytest.mark.parametrize("text, value", [
    ("1/2", Fraction(1, 2)),
    ("-b", Fraction(-2)),
    ("2*a - b/3", Fraction(7, 3)),
    ("0.25", Fraction(1, 4)),
    ("a^2", Fraction(9, 4)),
    ("(a+1)/2", Fraction(5, 4)),
])
def test_bracket_coefficients_load_exactly(text, value):
    doc = {
        "dim": 2,
        "params": {"a": "3/2", "b": "2"},
        "brackets": [{"i": 1, "j": 2, "coeffs": {"1": text}}],
    }
    assert jsonio.load_algebra(doc).C[0][0][1] == value


@pytest.mark.parametrize("text", ["sqrt(4)", "1/0", "a**(1/2)", "__import__('os')"])
def test_bad_bracket_coefficient_is_schema_error(tmp_path, text):
    doc = {
        "dim": 2,
        "params": {"a": "3/2"},
        "brackets": [{"i": 1, "j": 2, "coeffs": {"1": text}}],
    }
    path = tmp_path / "bad_coeff.json"
    path.write_text(json.dumps(doc))
    res = _run(["validate", str(path)])
    assert res.exit_code == 2
    assert "schema-error" in res.output or "schema-error" in (res.stderr or "")


def test_exppoly_commands_do_not_load_sympy(tmp_path):
    algebra = fixture_path("algebra_fiveparam_a1_b2.json")
    forms = fixture_path("forms_product_group_fiveparam_a1_b2.json")
    script = f"""
import sys
import liequad
from liequad.cli import main
for command in ("validate", "coframe", "multiply"):
    main([command, {algebra!r}, "-o", {str(tmp_path / "out.json")!r}])
main(["reduce", {algebra!r}, {forms!r}, "-o", {str(tmp_path / "out.json")!r}])
assert "sympy" not in sys.modules, "sympy was loaded"
from liequad import RationalFunction
assert "sympy" not in sys.modules, "the rational class loaded sympy"
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(jsonio.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ----------------------------------------------------------------------
# document text is parsed, never evaluated

PAYLOAD = "__import__('os')._exit(7)"
BASEPOINT = "x=0,u=0,u_x=1,u_xx=1"


def _subprocess(args, cwd):
    src = os.path.dirname(os.path.dirname(os.path.abspath(jsonio.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def _assert_schema_error(proc):
    assert proc.returncode == 2, (proc.returncode, proc.stdout, proc.stderr)
    assert json.loads(proc.stderr.strip().splitlines()[-1])["error"]["code"] == "schema-error"


def _pfaffian_doc():
    return json.loads(open(fixture_path("pfaffian_third_order_ode.json")).read())


def test_form_coefficient_is_not_executed(tmp_path):
    doc = json.loads(open(fixture_path("forms_normalized_third_order.json")).read())
    doc["forms"][0]["terms"][1]["coeff"] = PAYLOAD
    (tmp_path / "forms.json").write_text(json.dumps(doc))
    proc = _subprocess(["-m", "liequad.cli", "reduce", fixture_path("algebra_heisenberg.json"),
                        "forms.json", "--basepoint", BASEPOINT], tmp_path)
    _assert_schema_error(proc)


def test_exppoly_form_coefficient_is_not_executed(tmp_path):
    forms = _abelian3_forms(tmp_path, PAYLOAD, "1.0", "1.0")
    proc = _subprocess(["-m", "liequad.cli", "reduce", fixture_path("algebra_abelian3.json"), forms], tmp_path)
    _assert_schema_error(proc)


@pytest.mark.parametrize("where", ["symmetry", "excluded"])
def test_pfaffian_text_is_not_executed(tmp_path, where):
    doc = _pfaffian_doc()
    if where == "symmetry":
        doc["symmetry"][2]["components"][0] = PAYLOAD
    else:
        doc["excluded"].append(PAYLOAD)
    (tmp_path / "system.json").write_text(json.dumps(doc))
    proc = _subprocess(["-m", "liequad.cli", "pfaff", "system.json", "--basepoint", BASEPOINT], tmp_path)
    _assert_schema_error(proc)


def test_log_argument_is_not_executed(tmp_path):
    doc = {"kind": "log-extended", "rational": "0", "logs": [{"coeff": "1", "arg": PAYLOAD}]}
    script = f"""
import sys
from liequad import SchemaError, VarSet, jsonio
try:
    jsonio.load_scalar({doc!r}, VarSet.of("x", "u"))
except SchemaError as exc:
    print('{{"error": {{"code": "%s"}}}}' % exc.code, file=sys.stderr)
    sys.exit(2)
"""
    _assert_schema_error(_subprocess(["-c", script], tmp_path))


ROOT = os.path.join(os.path.dirname(__file__), "..")

# runs the command line given after -c with every scipy import refused
WITHOUT_SCIPY = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, BlockScipy())
try:
    from scipy.integrate import quad
except ImportError:
    pass
else:
    sys.exit("scipy was not blocked")
from liequad.cli import main
main(sys.argv[1:])
"""


def _readme_commands() -> list[list[str]]:
    """The arguments of each `liequad` line of the README, continuation
    lines joined, with fixture paths made absolute."""
    text = open(os.path.join(ROOT, "README.md"), encoding="utf-8").read().replace("\\\n", " ")
    return [[os.path.join(ROOT, a) if a.startswith("fixtures/") else a for a in shlex.split(line)[1:]]
            for line in text.splitlines() if line.startswith("liequad ")]


def test_readme_commands_run_without_scipy(tmp_path):
    """scipy is a test dependency only: the runtime never imports it."""
    commands = _readme_commands()
    assert [args[0] for args in commands] == ["validate", "coframe", "multiply", "reduce", "pfaff"]
    for args in commands:
        plain = _subprocess(["-m", "liequad.cli", *args], tmp_path)
        blocked = _subprocess(["-c", WITHOUT_SCIPY, *args], tmp_path)
        assert plain.returncode == blocked.returncode == 0, (args[0], blocked.stderr)
        assert blocked.stdout == plain.stdout, args[0]


def _at_load(tree):
    """The nodes of tree outside function bodies: what runs when a module
    loads."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(n for n in ast.iter_child_nodes(node)
                    if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def _imports(source: str, walk=ast.walk):
    """(line, names) of each import in source, at any depth (or only those
    `walk` reaches): the modules and the dotted names it imports, a
    relative one with its leading dots."""
    for node in walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield node.lineno, [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            sep = "" if module.endswith(".") else "."
            yield node.lineno, [module] + [module + sep + a.name for a in node.names]


def _test_only_imports(source: str) -> list[int]:
    """Lines of source, at any depth, that import scipy or the test catalog."""
    return [line for line, names in _imports(source)
            if any(n.split(".")[0] == "scipy" or n in (".catalog", "liequad.catalog")
                   or n.startswith((".catalog.", "liequad.catalog.")) for n in names)]


def _imports_of(top: str, source: str) -> list[int]:
    """Lines of source, at any depth, that import the package `top` or a
    part of it."""
    return [line for line, names in _imports(source) if any(n.split(".")[0] == top for n in names)]


def test_package_imports_neither_scipy_nor_the_catalog():
    import pathlib

    for bad in ("def line_integral():\n    from scipy.integrate import quad", "import scipy.linalg",
                "from scipy import linalg", "from .catalog import sl2", "from . import catalog",
                "from liequad import catalog", "import liequad.catalog"):
        assert _test_only_imports(bad) == [bad.count("\n") + 1], bad
    assert _test_only_imports("import numpy\nfrom .liealg import lin_comb\nfrom . import forms") == []
    package = pathlib.Path(jsonio.__file__).parent
    for path in sorted(package.rglob("*.py")):
        lines = _test_only_imports(path.read_text())
        assert not lines, f"{path.name} imports scipy or the catalog at lines {lines}"


def test_no_module_imports_sympy():
    """sympy is the tests' oracle only: no module imports it, the log part
    of a quadrature included (`hermite._residues`)."""
    import pathlib

    for bad in ("import sympy as sp", "import numpy, sympy", "from sympy.polys.rings import PolyElement",
                "from sympy import QQ", "def dump(s):\n    import sympy as sp", "def f():\n    from sympy import sstr"):
        assert _imports_of("sympy", bad) == [bad.count("\n") + 1], bad
    assert _imports_of("sympy", "import numpy\nfrom .rational import RationalFunction\nfrom . import hermite") == []
    package = pathlib.Path(jsonio.__file__).parent
    importers = [path.name for path in sorted(package.rglob("*.py")) if _imports_of("sympy", path.read_text())]
    assert importers == []


def test_no_module_imports_click():
    """The command line parses with the standard library's argparse: no
    module imports click, so numpy is the one runtime dependency."""
    import pathlib

    for bad in ("import click", "from click.testing import CliRunner", "import json, click",
                "def main():\n    import click"):
        assert _imports_of("click", bad) == [bad.count("\n") + 1], bad
    assert _imports_of("click", "import argparse\nfrom .clickable import x\nimport clicks") == []
    package = pathlib.Path(jsonio.__file__).parent
    importers = [path.name for path in sorted(package.rglob("*.py")) if _imports_of("click", path.read_text())]
    assert importers == []


def test_reduce_and_pfaff_run_without_sympy(tmp_path):
    """The rational class and Hermite's method need no sympy: `reduce` and
    `pfaff` on the README fixtures never load it, and `import liequad`
    loads no rational module."""
    commands = [args for args in _readme_commands() if args[0] in ("reduce", "pfaff")]
    assert [args[0] for args in commands] == ["reduce", "pfaff"]
    script = """
import sys
import liequad
assert "liequad.rational" not in sys.modules, "import liequad loaded the rational class"
assert "liequad.qpoly" not in sys.modules, "import liequad loaded the field"
from liequad.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    assert not exc.code, exc.code
assert "sympy" not in sys.modules, "sympy was loaded"
"""
    for args in commands:
        proc = _subprocess(["-c", script, *args], tmp_path)
        assert proc.returncode == 0, (args[0], proc.stdout + proc.stderr)


def test_only_the_float_commands_load_numpy(tmp_path):
    """`import liequad` loads neither numpy nor the float class `exppoly`,
    and `validate`, `reduce` and `pfaff` on the README fixtures, which run
    on the rational class, load neither; `coframe` and `multiply` load
    both.  No command loads click."""
    script = """
import sys
import liequad
assert "numpy" not in sys.modules, "import liequad loaded numpy"
assert "liequad.exppoly" not in sys.modules, "import liequad loaded the float class"
from liequad.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    assert not exc.code, exc.code
assert "click" not in sys.modules, "the command line loaded click"
print(sorted({"numpy", "liequad.exppoly"} & set(sys.modules)))
"""
    commands = _readme_commands()
    assert [args[0] for args in commands] == ["validate", "coframe", "multiply", "reduce", "pfaff"]
    for args in commands:
        proc = _subprocess(["-c", script, *args], tmp_path)
        assert proc.returncode == 0, (args[0], proc.stdout + proc.stderr)
        floats = args[0] in ("coframe", "multiply")
        assert proc.stdout.splitlines()[-1] == ("['liequad.exppoly', 'numpy']" if floats else "[]"), args[0]


def test_the_float_class_loads_numpy_with_its_module(tmp_path):
    """`exppoly` imports numpy when it loads, so a process that evaluates
    floats pays for numpy at its import, not inside its first operation."""
    script = """
import sys
import liequad.exppoly
assert "numpy" in sys.modules, "import liequad.exppoly left numpy unloaded"
"""
    proc = _subprocess(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _numpy_and_exppoly_at_load(sources: dict) -> tuple[set, set]:
    """The modules of sources ({module: text}) that import numpy, and those
    that import `exppoly`, when they load (outside function bodies)."""
    numpy, exppoly = set(), set()
    for module, text in sources.items():
        for _, names in _imports(text, _at_load):
            if any(n.split(".")[0] == "numpy" for n in names):
                numpy.add(module)
            if any(n.removeprefix("liequad").lstrip(".").split(".")[0] == "exppoly" for n in names):
                exppoly.add(module)
    return numpy, exppoly


def test_numpy_loads_only_with_the_float_class():
    """numpy is imported at module level only in `exppoly`, and no module
    imports `exppoly` at module level, so numpy loads with the float class
    and nothing else; a function may import either where it runs."""
    probes = {
        "top": "import numpy as np\n",
        "from": "from numpy.linalg import det\n",
        "cls": "class A:\n    import numpy\n",
        "guarded": "try:\n    from .exppoly import ExpPoly\nexcept ImportError:\n    pass\n",
        "pkg": "from . import exppoly\n",
        "local": "def f():\n    import numpy as np\n    from .exppoly import ExpPoly\n",
        "method": "class B:\n    def f(self):\n        from liequad.exppoly import ExpPoly\n",
    }
    assert _numpy_and_exppoly_at_load(probes) == ({"top", "from", "cls"}, {"guarded", "pkg"})
    assert _numpy_and_exppoly_at_load(_package_sources()) == ({"exppoly"}, set())


def test_star_import_binds_the_lazy_scalar_classes():
    """`from liequad import *` and `dir(liequad)` include the scalar
    classes that load on first use."""
    import liequad
    from liequad import LogExtendedScalar, RationalFunction

    namespace = {}
    exec("from liequad import *", namespace)
    assert namespace["ExpPoly"] is ExpPoly
    assert namespace["RationalFunction"] is RationalFunction
    assert namespace["LogExtendedScalar"] is LogExtendedScalar
    assert {"ExpPoly", "RationalFunction", "LogExtendedScalar", "sym_exp"} <= set(dir(liequad))
    assert set(liequad.__all__) <= set(dir(liequad))


def test_quadratic_log_parts_leave_numpy_unloaded(tmp_path):
    """A monic integer quadratic splits by its discriminant, exactly, so a
    log part whose factors have degree <= 2 loads no numpy: integer roots,
    clustered ones beyond the float spacing too, split off, and an
    irrational pair stays whole and raises its typed error."""
    script = """
import sys
from liequad import LogExtendedScalar, NonElementaryInClass, RationalFunction, VarSet, qpoly
chart = VarSet.of("x", "u")
for text in ("1/x + 2*x/(x^2-u)", "1/(x^2-1)"):
    assert isinstance(RationalFunction.parse(chart, text).antideriv("x"), LogExtendedScalar), text
try:
    RationalFunction.parse(chart, "1/(x^2-2)").antideriv("x")
except NonElementaryInClass:
    pass
else:
    sys.exit("1/(x^2-2) integrated in the class")
r = 10**20  # (x - r)(x - r - 1): the roots are 1 apart, below the float spacing at r
factors, roots = qpoly.low_factors({(2,): 1, (1,): -(2 * r + 1), (0,): r * (r + 1)})
assert sorted(factors, key=str) == sorted([{(0,): -r, (1,): 1}, {(0,): -r - 1, (1,): 1}], key=str), factors
assert roots == []
assert "numpy" not in sys.modules, "a quadratic log part loaded numpy"
"""
    proc = _subprocess(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_log_part_leaves_sympy_unloaded(tmp_path):
    """A log part is integrated without sympy."""
    script = """
import sys
from liequad import LogExtendedScalar, RationalFunction, VarSet
f = RationalFunction.parse(VarSet.of("x", "u"), "1/x + 2*x/(x^2-u)")
assert isinstance(f.antideriv("x"), LogExtendedScalar)
assert "sympy" not in sys.modules, "the log part loaded sympy"
"""
    proc = _subprocess(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_only_exppoly_names_its_truncation_constant():
    """`exppoly.ZERO_TOL` is the ring's truncation; a residual bound
    defaults to `report.TOL_ZERO`, so no other module reads the first."""
    for bad in ("from .exppoly import ZERO_TOL", "from .exppoly import ExpPoly, ZERO_TOL as Z",
                "tol = exppoly.ZERO_TOL",
                "def closed(omega):\n    return omega.exterior_d().max_abs_coeff() <= ZERO_TOL"):
        assert _uses("ZERO_TOL", {"bad": bad}), bad
    assert not _uses("ZERO_TOL", {"good": "from .report import TOL_ZERO\n# ZERO_TOL\ntol = TOL_ZERO"})
    assert {module for module, _ in _uses("ZERO_TOL")} == {"exppoly"}


def _bounded_is_zero(source: str) -> list[int]:
    """Lines of the `def is_zero` in source that take a parameter besides self."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.FunctionDef) and fn.name == "is_zero":
            a = fn.args
            if len(a.posonlyargs + a.args) > 1 or a.vararg or a.kwonlyargs or a.kwarg:
                found.append(fn.lineno)
    return found


def test_is_zero_takes_no_tolerance():
    """`is_zero()` means "holds no term"; a bound on a measured value is
    `max_abs_coeff() <= tol`."""
    import pathlib

    for bad in ("class A:\n    def is_zero(self, tol=1e-10):\n        pass",
                "def is_zero(self, tol: float | None = None):\n    pass",
                "def is_zero(self, *, tol):\n    pass", "def is_zero(self, *args):\n    pass",
                "def is_zero(self, **kw):\n    pass"):
        assert _bounded_is_zero(bad) == [bad.count("\n")], bad
    assert _bounded_is_zero("def is_zero(self):\n    return not self._t\ndef isclose(self, o, tol):\n    pass") == []
    package = pathlib.Path(jsonio.__file__).parent
    for path in sorted(package.rglob("*.py")):
        lines = _bounded_is_zero(path.read_text())
        assert not lines, f"{path.name} has an is_zero with a parameter at lines {lines}"


def _lin_comb_per_row(source: str) -> list[int]:
    """Lines of list comprehensions that call lin_comb with coefficients
    drawn from the comprehension and items that do not depend on it: a
    scalar matrix times a vector of items, which is `liealg.mat_vec`."""
    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    found = []
    for comp in ast.walk(ast.parse(source)):
        if not isinstance(comp, ast.ListComp):
            continue
        bound = set().union(*(names(g.target) for g in comp.generators))
        for call in ast.walk(comp.elt):
            func = getattr(call, "func", None)
            if (isinstance(call, ast.Call) and "lin_comb" in (getattr(func, "id", None), getattr(func, "attr", None))
                    and call.args and names(call.args[0]) & bound
                    and not any(names(a) & bound for a in call.args[1:])):
                found.append(comp.lineno)
    return found


def test_package_multiplies_scalar_matrices_and_item_vectors_with_mat_vec():
    import pathlib

    for bad in ("hat = list(omegas) if factor is None else [lin_comb(row, omegas) for row in factor]",
                "forms = [lin_comb(row, forms[:m]) for row in inv_factor] + forms[m:]",
                "omegas = [t + lin_comb(row, pi1) for t, row in zip(pi2, ad_y_inv)]",
                "theta_t = [lin_comb([compose(e, p1) for e in row], theta) for row in law.ad]",
                "E = [[liealg.lin_comb([S[a][b] for S in series], powers) for b in r] for a in r]"):
        assert _lin_comb_per_row(bad), bad
    for good in ("hat = mat_vec(factor, omegas)", "rhs = lin_comb([C[k][i][j] for k in r], fields)",
                 "ok = [lin_comb(row, items[i]) for i, row in enumerate(M)]"):
        assert not _lin_comb_per_row(good), good
    package = pathlib.Path(jsonio.__file__).parent
    for path in sorted(package.rglob("*.py")):
        lines = _lin_comb_per_row(path.read_text())
        assert not lines, f"{path.name} multiplies a matrix and a vector with lin_comb at lines {lines}"


@pytest.mark.parametrize("text", ["sqrt(x)", "x.real", "x[0]", "x < u", "exp(x)", "x^u", "x^(1/2)", "1/(x - x)"])
def test_bad_rational_text_is_schema_error(text):
    from liequad import SchemaError

    with pytest.raises(SchemaError):
        RationalFunction.parse(VarSet.of("x", "u"), text)


def test_rational_text_grammar():
    V = VarSet.of("x", "u")
    x, u = RationalFunction.coordinate(V, "x"), RationalFunction.coordinate(V, "u")
    parse = lambda text: RationalFunction.parse(V, text)
    assert parse("x^2 - u**3") == x * x - u * u * u
    assert parse("(x + 1)*(x - 1)/(u^2 + 1)") == (x * x - 1) / (u * u + 1)
    assert parse("(x^2 - 1)/(x + 1)") == x - 1
    assert parse("-x^-2 + 0.25*u") == RationalFunction.constant(V, -1) / (x * x) + u * Fraction(1, 4)
    doc = json.loads(open(fixture_path("golden_integrals_third_order.json")).read())
    W = VarSet.of(*doc["basepoint"])
    X, U, UX, UXX = (RationalFunction.coordinate(W, n) for n in W.names)
    f3 = RationalFunction.parse(W, doc["integrals"]["f3"])
    assert f3 == RationalFunction.one(W) / UX - UX * UX * UX / UXX
    f2 = RationalFunction.parse(W, doc["integrals"]["f2"])
    assert f2 == (UX ** 6 + U * UXX * UXX * 2) / (UXX * UXX * 2)
    f1 = RationalFunction.parse(W, doc["integrals"]["f1"])
    num = UX ** 10 + U * UXX ** 2 * UX ** 4 * 3 + X * UX * UXX ** 3 * 3 - U * UXX ** 3 * 3
    assert f1 == num / (UX * UXX ** 3 * 3)


def test_no_document_text_reaches_sympify():
    """The exact parser is the only reader of document text: no module of
    the package names sympify (which evaluates strings as Python)."""
    import ast
    import pathlib

    package = pathlib.Path(jsonio.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            named = (
                (isinstance(node, ast.Name) and node.id == "sympify")
                or (isinstance(node, ast.Attribute) and node.attr == "sympify")
                or (isinstance(node, ast.alias) and "sympify" in (node.name, node.asname))
            )
            assert not named, f"{path.name}:{getattr(node, 'lineno', '?')} names sympify"


def test_every_parse_classmethod_reads_text_with_evaluate_text():
    """Each scalar class reads document text through the one exact parser:
    every `parse` classmethod of the package calls evaluate_text."""
    import ast
    import pathlib

    package = pathlib.Path(jsonio.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not (isinstance(fn, ast.FunctionDef) and fn.name == "parse"
                        and any(isinstance(d, ast.Name) and d.id == "classmethod" for d in fn.decorator_list)):
                    continue
                calls = {node.func.id for node in ast.walk(fn)
                         if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
                assert "evaluate_text" in calls, f"{path.name}: {cls.name}.parse does not call evaluate_text"
                found.append(cls.name)
    assert {"ExpPoly", "RationalFunction"} <= set(found)


def _fraction_calls(source: str) -> list[int]:
    """The lines of the calls Fraction(...) of a non-literal outside a
    function named read_fraction."""
    import ast

    found = []

    def walk(node, inside):
        inside = inside or isinstance(node, ast.FunctionDef) and node.name == "read_fraction"
        if isinstance(node, ast.Call) and not inside:
            func = node.func
            named = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if named == "Fraction":
                try:
                    for arg in node.args:
                        ast.literal_eval(arg)
                except ValueError:
                    found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(ast.parse(source), False)
    return found


def test_document_and_flag_values_are_read_by_read_fraction():
    """cli.py and jsonio.py turn text into a Fraction only through
    `exacttext.read_fraction`, which makes a zero denominator or malformed
    text a schema error."""
    import pathlib

    probe = ("def f(value):\n    a = Fraction(value)\n    b = fractions.Fraction(str(value))\n"
             "    return a, b, Fraction('1/2'), Fraction(-3)\n\n"
             "def read_fraction(text):\n    return Fraction(str(text))\n")
    assert _fraction_calls(probe) == [2, 3]
    package = pathlib.Path(jsonio.__file__).parent
    for name in ("cli.py", "jsonio.py"):
        assert _fraction_calls((package / name).read_text()) == [], name


def _package_sources() -> dict:
    """{module: text} of the package's modules."""
    import pathlib

    package = pathlib.Path(jsonio.__file__).parent
    return {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}


def _uses(name: str, sources: dict | None = None) -> set:
    """(module, top-level definition) of every use of a name, as a name, an
    attribute or an import, in sources ({module: text}, the package's
    modules by default)."""
    if sources is None:
        sources = _package_sources()
    found = set()
    for module, text in sources.items():
        for top in ast.parse(text).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr == name) or (
                        isinstance(node, ast.Name) and node.id == name) or (
                        isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names)):
                    found.add((module, getattr(top, "name", f"line {top.lineno}")))
    return found


def _definitions(sources: dict | None = None) -> set:
    """(module, name) of every function or method defined in sources
    ({module: text}, the package's modules by default)."""
    if sources is None:
        sources = _package_sources()
    return {(module, node.name) for module, text in sources.items() for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_one_gcd_and_one_square_free_split():
    """Integer gcds and Yun's square-free split live in `qpoly`, and the
    split runs in two places: `matexp._spectrum` (a characteristic
    polynomial, of a matrix or of the residues of an integrand) and
    `hermite.integrate_rational` (a denominator).  The one gcd elsewhere
    is `hermite._Poly.gcdex`, the extended Euclid over K[v] whose Bezout
    cofactors solve each Hermite step; `qpoly` gives no cofactors of that
    kind."""
    probe = {"bad": "def _gcd(p, q):\n    pass\nclass P:\n    def _square_free(self):\n        pass\n"}
    assert _definitions(probe) == {("bad", "_gcd"), ("bad", "_square_free")}
    outside = {(module, name) for module, name in _definitions()
               if module != "qpoly" and ("gcd" in name or "square_free" in name)}
    assert outside == {("hermite", "gcdex")}
    assert _uses("square_free") == {("matexp", "_spectrum"), ("hermite", "integrate_rational")}


def test_no_float_is_guessed_back_into_a_rational():
    """No float is guessed back into a rational: `matexp` decides each
    spectrum from the exact characteristic polynomial, and `hermite` and
    `rational._log_factor` read it."""
    assert _uses("limit_denominator") == set()


SCALAR_CLASSES = {"ExpPoly", "RationalFunction", "LogExtendedScalar"}


def _scalar_class_tests(source: str) -> list:
    """Lines of source that test a value against a scalar class (isinstance,
    issubclass, or an is / == comparison with the class) or import the
    rational module."""
    import ast

    def is_class(node):
        return (isinstance(node, ast.Name) and node.id in SCALAR_CLASSES) or (
            isinstance(node, ast.Attribute) and node.attr in SCALAR_CLASSES)

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in (
                "isinstance", "issubclass") and len(node.args) == 2:
            if any(is_class(n) for n in ast.walk(node.args[1])):
                found.append(node.lineno)
        elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) for op in node.ops):
            if any(is_class(n) for n in [node.left, *node.comparators]):
                found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            if module in (".rational", "liequad.rational") or (
                    module in (".", "liequad") and any(a.name == "rational" for a in node.names)):
                found.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name == "liequad.rational" for a in node.names):
            found.append(node.lineno)
    return found


def test_pipeline_modules_never_test_the_scalar_class():
    """Each class-specific step is a method of the scalar classes, so the
    modules that run the pipeline over any class neither test which class
    a value has nor import `rational`."""
    import pathlib

    for bad in ("isinstance(c, ExpPoly)", "isinstance(c, (int, RationalFunction))", "issubclass(t, ExpPoly)",
                "f.scls is ExpPoly", "type(f) is not rational.LogExtendedScalar", "type(f) == ExpPoly",
                "from .rational import LogExtendedScalar", "from . import rational", "import liequad.rational"):
        assert _scalar_class_tests(bad) == [1], bad
    assert _scalar_class_tests("isinstance(c, scls)\ntype(c) is self.scls\nfrom .exppoly import ExpPoly") == []
    package = pathlib.Path(jsonio.__file__).parent
    for stem in ("forms", "matexp", "reduction", "liegroup", "cli"):
        lines = _scalar_class_tests((package / f"{stem}.py").read_text())
        assert not lines, f"{stem}.py tests the scalar class or imports rational at lines {lines}"


def test_one_matrix_product():
    """`liealg._sparse_product` is the one matrix product: `mat_mul` wraps
    it, and `factor_product`, behind the frame and Ad(x), keeps its sparse
    rows from one factor to the next."""
    assert _uses("_sparse_product") == {("liealg", "mat_mul"), ("liealg", "factor_product")}


def _folds_of_add(source: str) -> list[int]:
    """Lines of source that call `reduce` (or `functools.reduce`) with
    `operator.add` or a bare `add`: a left fold that copies its growing sum
    once per piece."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and node.args:
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            first = node.args[0]
            if name == "reduce" and "add" in (getattr(first, "id", None), getattr(first, "attr", None)):
                found.append(node.lineno)
    return found


def test_matrix_rows_and_residuals_sum_without_a_fold_of_add():
    """`liealg.mat_vec` and `forms.structure_residual` sum by the class
    `sum` of their terms, one running sum for `ExpPoly` and `DiffForm`."""
    import pathlib

    for bad in ("total = reduce(operator.add, terms)", "from functools import reduce\nx = reduce(add, xs, zero)",
                "x = functools.reduce(operator.add, xs)"):
        assert _folds_of_add(bad) == [bad.count("\n") + 1], bad
    assert _folds_of_add("x = type(terms[0]).sum(terms)\ny = reduce(max, xs)") == []
    package = pathlib.Path(jsonio.__file__).parent
    for stem in ("liealg", "forms"):
        lines = _folds_of_add((package / f"{stem}.py").read_text())
        assert not lines, f"{stem}.py folds with operator.add at lines {lines}"


def test_multiply_with_large_constants_passes_the_rho_line(tmp_path):
    """mu(x, x^{-1}) = 0 is measured relative to max(1, |x|, |x^{-1}|): with
    a constant 1e200 every line passes (it failed at 1.700e+184)."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 3, "brackets": [{"i": 2, "j": 3, "coeffs": {"1": "1e200"}}]}))
    res = _run(["multiply", str(path)])
    assert res.exit_code == 0, res.output
    assert "rho(x,y) = mu(y, x^{-1})" in res.output and "[FAIL]" not in res.output


def test_no_numeric_eigenvalues_outside_the_root_step():
    """No module asks numpy for eigenvalues; numeric roots are taken only of
    square-free factors, in the one root step `qpoly.low_factors`, which
    `matexp._spectrum` reads (for eigenvalues, and for residues in
    `hermite._residues`)."""
    assert not _uses("eigvals") | _uses("eig")
    assert _uses("roots") == {("qpoly", "low_factors")}
    assert _uses("low_factors") == {("matexp", "_spectrum")}
    assert ("hermite", "_residues") in _uses("_spectrum")


# ----------------------------------------------------------------------
# malformed documents end in a report or an error document, never a traceback

def _documents_with_a_key_deleted(doc):
    """Each top-level key deleted, then each key of the first list or dict
    entry under it."""
    for key, value in doc.items():
        yield key, {k: v for k, v in doc.items() if k != key}
        entry = value[0] if isinstance(value, list) and value else value
        if isinstance(entry, dict):
            for inner in entry:
                cut = json.loads(json.dumps(doc))
                target = cut[key][0] if isinstance(value, list) else cut[key]
                del target[inner]
                yield f"{key}.{inner}", cut


# each input fixture with the command that reads it; "{}" is the document
READERS = {
    "algebra_abelian3.json": ["validate", "{}"],
    "algebra_heisenberg.json": ["validate", "{}"],
    "algebra_fiveparam_a1_b2.json": ["validate", "{}"],
    "forms_normalized_third_order.json": ["reduce", fixture_path("algebra_heisenberg.json"), "{}",
                                          "--basepoint", BASEPOINT],
    "forms_product_group_fiveparam_a1_b2.json": ["reduce", fixture_path("algebra_fiveparam_a1_b2.json"),
                                                 "{}", "--samples", "5"],
    "pfaffian_third_order_ode.json": ["pfaff", "{}", "--basepoint", BASEPOINT],
}
MALFORMED = [
    (name, deleted, doc)
    for name in READERS
    for deleted, doc in _documents_with_a_key_deleted(json.loads(open(fixture_path(name)).read()))
]


@pytest.mark.parametrize("name, deleted, doc", MALFORMED, ids=[f"{n}-{d}" for n, d, _ in MALFORMED])
def test_document_with_a_key_deleted_exits_cleanly(tmp_path, name, deleted, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    res = _run([str(path) if arg == "{}" else arg for arg in READERS[name]])
    assert res.exit_code in (0, 1, 2), res.output
    if res.exit_code == 2:
        assert "error" in json.loads(res.stderr.strip().splitlines()[-1])


# integer fields given a bool or a non-integral number, each of which the
# loaders once truncated: 3.5 -> 3, true -> 1, 2.9 -> 2, 1.7 -> 1, 1.6 -> 1
NON_INTEGRAL_ALGEBRA = {
    "dim-3.5": lambda a: a.update(dim=a["dim"] + 0.5),
    "dim-true": lambda a: a.update(dim=True, brackets=[]),
    "bracket-i-2.9": lambda a: a["brackets"][0].update(i=a["brackets"][0]["i"] + 0.9),
}
NON_INTEGRAL_FORM = {
    "degree-1.7": lambda f: f.update(degree=f["degree"] + 0.7),
    "idx-1.6": lambda f: f["terms"][0].update(idx=[f["terms"][0]["idx"][0] + 0.6]),
}


def _with(name, mutate, tmp_path):
    doc = json.loads(open(fixture_path(name)).read())
    mutate(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("case", sorted(NON_INTEGRAL_ALGEBRA))
@pytest.mark.parametrize("command", ["validate", "reduce", "pfaff"])
def test_non_integral_algebra_field_is_schema_error(tmp_path, command, case):
    mutate = NON_INTEGRAL_ALGEBRA[case]
    if command == "pfaff":
        args = ["pfaff", _with("pfaffian_third_order_ode.json", lambda d: mutate(d["brackets"]), tmp_path),
                "--basepoint", BASEPOINT]
    else:
        args = [command, _with("algebra_heisenberg.json", mutate, tmp_path)]
        if command == "reduce":
            args += [fixture_path("forms_normalized_third_order.json"), "--basepoint", BASEPOINT]
    _assert_error_document(_run(args), "schema-error")


@pytest.mark.parametrize("case", sorted(NON_INTEGRAL_FORM))
@pytest.mark.parametrize("command", ["reduce", "pfaff"])
def test_non_integral_form_field_is_schema_error(tmp_path, command, case):
    mutate = NON_INTEGRAL_FORM[case]
    if command == "pfaff":
        args = ["pfaff", _with("pfaffian_third_order_ode.json", lambda d: mutate(d["theta"][0]), tmp_path),
                "--basepoint", BASEPOINT]
    else:
        args = ["reduce", fixture_path("algebra_heisenberg.json"),
                _with("forms_normalized_third_order.json", lambda d: mutate(d["forms"][0]), tmp_path),
                "--basepoint", BASEPOINT]
    _assert_error_document(_run(args), "schema-error")


# ----------------------------------------------------------------------
# one table of malformed and extreme input, run in-process: each case exits
# 0 or 2 with its documented error code, and none ends in a traceback

def _forms(*forms, chart=("x", "y", "z")):
    return {"chart": list(chart), "forms": list(forms)}


def _form(terms, degree=1, kind="exppoly"):
    return {"degree": degree, "scalar_kind": kind, "terms": terms}


UNIT_FORMS = _unit_forms("exppoly")
# a number too large for a float, as the only bracket of a nilpotent algebra
# and as the nonzero eigenvalue of [e1, e2] = c e1
HUGE_NILPOTENT = {"dim": 3, "brackets": [{"i": 2, "j": 3, "coeffs": {"1": "1e400"}}]}
HUGE_SPECTRUM = {"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"1": "1e400"}}]}
ZERO_RATIONAL_FORMS = _forms(*[_form([], kind="rational")] * 3, chart=("x1", "x2", "x3"))
ABELIAN3 = fixture_path("algebra_abelian3.json")
# case -> (arguments, "{}" standing for the document; the document; exit
# code; error code).  The first five once ended in a traceback: an
# OverflowError in `matexp` or at the basepoint, and 0**0 in the rational
# class.  A string idx was read as its characters.
BAD_INPUT = {
    "coframe-huge-nilpotent": (["coframe", "{}"], HUGE_NILPOTENT, 2, "non-finite-coefficient"),
    "multiply-huge-nilpotent": (["multiply", "{}"], HUGE_NILPOTENT, 2, "non-finite-coefficient"),
    "multiply-huge-spectrum": (["multiply", "{}"], HUGE_SPECTRUM, 2, "non-finite-coefficient"),
    "reduce-huge-basepoint": (["reduce", fixture_path("algebra_fiveparam_a1_b2.json"),
                               fixture_path("forms_product_group_fiveparam_a1_b2.json"), "--basepoint", "x4=1e400"],
                              None, 2, "non-finite-coefficient"),
    "reduce-zero-rational-forms": (["reduce", fixture_path("algebra_heisenberg.json"), "{}"],
                                   ZERO_RATIONAL_FORMS, 0, None),
    "reduce-idx-string": (["reduce", ABELIAN3, "{}"],
                          _forms(_form([{"idx": "1", "coeff": "1"}]), *UNIT_FORMS[1:]), 2, "schema-error"),
    "reduce-chart-missing": (["reduce", ABELIAN3, "{}"], {"forms": UNIT_FORMS}, 2, "schema-error"),
    "reduce-terms-not-a-list": (["reduce", ABELIAN3, "{}"], _forms(_form(5), *UNIT_FORMS[1:]), 2, "schema-error"),
    "reduce-unknown-scalar-kind": (["reduce", ABELIAN3, "{}"],
                                   _forms(*(dict(f, scalar_kind="complex") for f in UNIT_FORMS)), 2, "schema-error"),
    "reduce-chart-name-twice": (["reduce", ABELIAN3, "{}"], _forms(*UNIT_FORMS, chart=("x", "x", "z")),
                                2, "schema-error"),
    "reduce-0-form": (["reduce", ABELIAN3, "{}"], _forms(_form([{"idx": [], "coeff": "1"}], degree=0),
                                                         *UNIT_FORMS[1:]), 2, "schema-error"),
    "reduce-no-basepoint-value": (["reduce", fixture_path("algebra_heisenberg.json"),
                                   fixture_path("forms_normalized_third_order.json"), "--basepoint", "x"],
                                  None, 2, "schema-error"),
    "coframe-samples-0": (["coframe", ABELIAN3, "--samples", "0"], None, 2, "schema-error"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_exits_with_its_documented_code(tmp_path, case):
    args, doc, exit_code, code = BAD_INPUT[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    res = _run([str(path) if arg == "{}" else arg for arg in args])
    assert "Traceback" not in res.output + res.stderr
    if exit_code == 0:
        assert res.exit_code == 0, res.output
        return
    _assert_error_document(res, code)
    # the message names no 400-digit number
    assert "0" * 20 not in res.stderr


def test_reduce_of_zero_rational_forms_gives_zero_functions(tmp_path):
    """Zero forms satisfy the abelian structure equations of any chain; each
    quadrature gives 0, and e^{0 A} is the identity."""
    forms = tmp_path / "forms.json"
    forms.write_text(json.dumps(ZERO_RATIONAL_FORMS))
    out = tmp_path / "trace.json"
    res = _run(["reduce", fixture_path("algebra_heisenberg.json"), str(forms), "-o", str(out)])
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    assert doc["complete"] is True
    assert doc["functions"] == [{"kind": "rational", "text": "0"}] * 3


def test_string_idx_is_schema_error():
    """"13" is not the indices 1, 3 of a 2-form, as "xyz" is not a chart."""
    doc = _form([{"idx": "13", "coeff": "1"}], degree=2)
    with pytest.raises(SchemaError, match="'idx' must be a list"):
        jsonio.load_form(doc, VarSet.of("x", "y", "z"))


@pytest.mark.parametrize("doc", [{"kind": "exppoly"}, {"kind": "rational"}, "x", ["x"]],
                         ids=["exppoly-no-text", "rational-no-text", "string", "list"])
def test_malformed_scalar_document_is_schema_error(doc):
    with pytest.raises(SchemaError):
        jsonio.load_scalar(doc, VarSet.of("x", "u"))
