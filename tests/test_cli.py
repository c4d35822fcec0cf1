"""CLI surface: JSON I/O, golden outputs, determinism, error codes."""

import json
import os
import subprocess
import sys

import click
import pytest
from fractions import Fraction

from click.testing import CliRunner

from liequad import ExpPoly, RationalFunction, VarSet
from liequad.cli import main
from liequad import jsonio
from conftest import fixture_path


runner = CliRunner()


def _run(args):
    return runner.invoke(main, args, catch_exceptions=False)


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
    # the per-level residual line records the measured worst residual
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
        assert a.isclose(b, 1e-14)


def test_scalar_round_trip_log_extended():
    from liequad import LogExtendedScalar

    V = VarSet.of("x", "u")
    f = LogExtendedScalar(
        V,
        RationalFunction.parse(V, "-x"),
        [(Fraction(1), RationalFunction.parse(V, "u").expr)],
    )
    doc = jsonio.dump_scalar(f)
    back = jsonio.load_scalar(doc, V)
    assert back == f


def test_algebra_round_trip():
    doc = jsonio.read_json(fixture_path("algebra_fiveparam_a1_b2.json"))
    sc = jsonio.load_algebra(doc)
    doc2 = jsonio.dump_algebra(sc)
    sc2 = jsonio.load_algebra(doc2)
    assert sc2.C == sc.C


def test_reduce_from_non_adapted_presentation(tmp_path):
    """Forms given in a non-adapted basis: the command re-expresses them in
    the adapted basis and reduces; here they are the coframe in disguise,
    so the quadrature functions are the coordinates."""
    from fractions import Fraction as Fr

    from liequad import adapted_chain, build_group, transform_forms
    from liequad.liealg import BasisChange, StructureConstants

    sc = StructureConstants.from_brackets(3, {(3, 1): {2: "1"}})
    change, chain = adapted_chain(sc)
    group = build_group(chain)
    # push the coframe back through the inverse change so the file carries
    # forms satisfying the structure equations of the input basis
    Pinv = BasisChange(tuple(tuple(r) for r in change.inverse_matrix()))
    disguised = transform_forms(Pinv, group.tau)
    algebra_path = tmp_path / "algebra.json"
    forms_path = tmp_path / "forms.json"
    algebra_path.write_text(json.dumps(jsonio.dump_algebra(sc)))
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


def test_duplicate_bracket_entries_accumulate():
    doc = {
        "dim": 3,
        "brackets": [
            {"i": 2, "j": 3, "coeffs": {"1": "1/2"}},
            {"i": 2, "j": 3, "coeffs": {"1": "1/2"}},
        ],
    }
    sc = jsonio.load_algebra(doc)
    assert sc.C[0][1][2] == Fraction(1)


def test_nonpositive_tolerance_rejected():
    res = _run(["coframe", fixture_path("algebra_abelian3.json"), "--tol-zero", "-1"])
    assert res.exit_code == 2
    assert json.loads(res.stderr)["error"]["code"] == "schema-error"


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
    listed = {p.opts[0] for p in main.commands[command].params if isinstance(p, click.Option)}
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
    assert "No such option" in res.output and flag in res.output


def _assert_error_document(res, code):
    assert res.exit_code == 2, res.output
    assert json.loads(res.stderr.strip().splitlines()[-1])["error"]["code"] == code


def test_negative_stop_after_is_schema_error():
    res = _run(["reduce", fixture_path("algebra_fiveparam_a1_b2.json"),
                fixture_path("forms_product_group_fiveparam_a1_b2.json"), "--stop-after", "-1"])
    _assert_error_document(res, "schema-error")


@pytest.mark.parametrize("command", ["reduce", "pfaff"])
def test_basepoint_name_outside_the_chart_is_schema_error(command):
    if command == "reduce":
        files = [fixture_path("algebra_heisenberg.json"), fixture_path("forms_normalized_third_order.json")]
    else:
        files = [fixture_path("pfaffian_third_order_ode.json")]
    res = _run([command, *files, "--basepoint", "x=0,u=0,u_x=1,u_xx=1,q=5"])
    _assert_error_document(res, "schema-error")
    assert "'q'" in json.loads(res.stderr)["error"]["message"]


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
    script = f"""
import sys
import liequad
from liequad.cli import main
for command in ("validate", "coframe", "multiply"):
    main([command, {algebra!r}, "-o", {str(tmp_path / "out.json")!r}], standalone_mode=False)
assert "sympy" not in sys.modules, "sympy was loaded"
from liequad import RationalFunction
assert "sympy" in sys.modules
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
