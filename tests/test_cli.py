"""CLI behaviour: golden outputs, determinism, file emission, error paths."""

import argparse
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET
from contextlib import redirect_stdout, redirect_stderr
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catoptrix.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_CASES = [
    ("interior_symmetric.json", ["interior", "--z1", "0.5,0", "--z2", "-0.5,0"]),
    ("interior_origin.json", ["interior", "--z1", "0,0", "--z2", "0.5,0"]),
    ("infinity_axial.json", ["infinity", "--r", "2", "--theta", "0"]),
    ("envelope_a2_s4.json", ["envelope", "--a", "2", "--samples", "4"]),
    ("directrix_a2_phi0.json", ["directrix", "--a", "2", "--phi", "0"]),
    ("directrix_a2_phi_halfpi.json", ["directrix", "--a", "2", "--phi", "1.5707963267948966"]),
]


def _run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_byte_equality(name, argv):
    rc, out, _ = _run(argv)
    assert rc == 0
    golden = (GOLDEN_DIR / name).read_bytes()
    assert out.encode("utf-8") == golden
    # and identical flags produce byte-identical output on a second run
    rc2, out2, _ = _run(argv)
    assert rc2 == 0 and out2 == out


def test_symmetric_pair_values():
    rc, out, _ = _run(["interior", "--z1", "0.5,0", "--z2", "-0.5,0"])
    record = json.loads(out)
    assert rc == 0 and record["status"] == "ok"
    w = record["results"]["w"]
    assert abs(w[0] - 1.0) < 1e-12 and abs(w[1]) < 1e-12
    assert abs(record["results"]["s"] - 0.5) < 1e-12


def test_json_reals_round_trip():
    rc, out, _ = _run(["interior", "--z1", "0.37,0.11", "--z2", "-0.25,0.42"])
    record = json.loads(out)
    # 17 significant digits round-trip: parse and re-derive
    from catoptrix import minimizing_root

    res = minimizing_root(complex(0.37, 0.11), complex(-0.25, 0.42))
    assert record["results"]["w"][0] == res.w.real
    assert record["results"]["w"][1] == res.w.imag
    assert record["results"]["s"] == res.s_value


def test_domain_error_exit_code_and_record():
    rc, out, err = _run(["infinity", "--r", "0.5", "--theta", "0.785"])
    assert rc == 2
    record = json.loads(out)
    assert record["status"] == "InvalidObserver"
    assert record["results"] is None
    assert "error" in record and "InvalidObserver" in err


def test_emit_is_the_one_wire_format_rule():
    # a complex number prints as [re, im], a tuple as an array and a value
    # record as an object of its fields in declaration order
    from catoptrix.cli import _emit
    from catoptrix.interior import EllipseParams

    record = {"w": complex(-0.0, 0.5), "t": (1.0, math.inf), "e": EllipseParams(2.0, 1.0, 0.5, 0.25)}
    assert _emit(record) == (
        '{"w": [0, 0.5], "t": [1, null], "e": {"focal_sum": 2, "major": 1, "minor": 0.5, "eccentricity": 0.25}}'
    )


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "argv,field,echoed",
    [
        (["interior", "--z1", "nan,0", "--z2", "0.3,0"], "z1", [None, 0]),
        (["infinity", "--r", "inf", "--theta", "0.3"], "r", None),
    ],
    ids=["nan-point", "inf-radius"],
)
def test_non_finite_input_echoes_as_null(argv, field, echoed):
    rc, out, _ = _run(argv)
    assert rc == 2
    record = json.loads(out, parse_constant=_reject_constant)
    assert record["status"] == "NonFinitePoint"
    assert record["inputs"][field] == echoed


@pytest.mark.parametrize(
    "argv,message",
    [
        (["interior", "--z1", "0.5,0", "--z2", "-0.5,0", "--json"], "unrecognized arguments: --json"),
        (["interior", "--z1", "0.5,0"], "required: --z2"),
        (["interior", "--z1", "abc", "--z2", "0,0"], "expected RE,IM, got 'abc'"),
        # the oracles' grid is fixed; the flags that set it are gone
        (["oracle", "smetric", "--z1", "0.4,0", "--z2", "0,0.3", "--grid", "1000"], "unrecognized arguments: --grid 1000"),
        (["oracle", "infinity", "--r", "2", "--theta", "1.2", "--refine-iters", "60"], "unrecognized arguments: --refine-iters 60"),
        (["oracle", "discriminant", "--coeffs", "1,2,3"], "expected five coefficients, got 3"),
        (["oracle", "discriminant", "--coeffs", "1,x,3,4,5"], "expected A,B,C,D,E, got '1,x,3,4,5'"),
    ],
    ids=["unknown-flag", "missing-z2", "malformed-z1", "removed-grid", "removed-refine-iters", "three-coeffs",
         "malformed-coeffs"],
)
def test_usage_error_prints_one_record(argv, message):
    rc, out, err = _run(argv)
    assert rc == 2
    assert out.count("\n") == 1
    record = json.loads(out)
    assert record["status"] == "UsageError"
    assert [record[k] for k in ("command", "inputs", "results", "diagnostics")] == [None] * 4
    assert message in record["error"]
    assert err.startswith("usage: catoptrix")


def test_help_still_exits_zero():
    with pytest.raises(SystemExit) as info, redirect_stdout(io.StringIO()) as out:
        main(["interior", "--help"])
    assert info.value.code == 0
    assert "--z1" in out.getvalue()


@pytest.mark.parametrize("flag", ["--csv", "--svg"])
def test_unwritable_output_is_an_os_error_record(tmp_path, flag):
    path = tmp_path / "missing" / "out"
    rc, out, err = _run(["envelope", "--a", "2", "--samples", "4", flag, str(path)])
    assert rc == 2
    record = json.loads(out)
    assert record["status"] == "OSError"
    assert record["inputs"] == {"a": 2.0, "samples": 4}
    assert record["results"] is None and str(path) in record["error"]
    assert "OSError" in err


def test_os_error_record_names_the_files_already_written(tmp_path):
    # the csv is written before the svg fails; the record says so
    csv_path, svg_path = tmp_path / "ok.csv", tmp_path / "missing" / "x.svg"
    argv = ["envelope", "--a", "2", "--samples", "4", "--csv", str(csv_path), "--svg", str(svg_path)]
    rc, out, _ = _run(argv)
    assert rc == 2
    record = json.loads(out)
    assert record["status"] == "OSError" and record["results"] is None
    assert record["diagnostics"]["csv"] == str(csv_path)
    assert record["diagnostics"]["svg"] is None
    assert list(record["diagnostics"])[-2:] == ["csv", "svg"]
    assert csv_path.read_text().count("\n") == 5


@pytest.mark.parametrize(
    "argv,command,inputs",
    [
        (
            ["infinity", "--r", "0.5", "--theta", "45", "--degrees"],
            "infinity",
            {"r": 0.5, "theta": math.radians(45)},
        ),
        (
            ["oracle", "smetric", "--z1", "1.5,0", "--z2", "0,0"],
            "oracle-smetric",
            {"z1": [1.5, 0.0], "z2": [0.0, 0.0]},
        ),
        (
            ["envelope", "--a", "2", "--samples", "4", "--directrices", "-3"],
            "envelope",
            {"a": 2.0, "samples": 4, "directrices": -3},
        ),
    ],
    ids=["degrees-echoed-in-radians", "oracle-command-and-order", "rejected-directrices"],
)
def test_error_record_echoes_like_success(argv, command, inputs):
    rc, out, _ = _run(argv)
    assert rc == 2
    record = json.loads(out)
    assert record["command"] == command
    assert record["inputs"] == inputs
    assert list(record["inputs"]) == list(inputs)


def test_value_flags_match_the_parser():
    # _join_flag_values glues exactly these flags to their values
    from catoptrix.cli import _VALUE_FLAGS, _build_parser

    def value_options(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from value_options(sub)
            elif action.nargs != 0:
                yield from action.option_strings

    assert set(value_options(_build_parser())) == _VALUE_FLAGS


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["oracle", "discriminant", "--coeffs", "1,2,3,4,5", "--r", "3", "--theta", "1"],
            "discriminant takes --coeffs or --r and --theta, not both",
        ),
        (
            ["envelope", "--a", "2", "--samples", "4", "--directrices", "-3"],
            "directrices must not be negative",
        ),
        (["envelope", "--a", "2", "--samples", "0"], "samples must be positive"),
        (["oracle", "discriminant", "--r", "3"], "discriminant needs --coeffs or both --r and --theta"),
    ],
    ids=["coeffs-with-observer", "negative-directrices", "no-samples", "r-without-theta"],
)
def test_conflicting_or_negative_flags_are_invalid(argv, message):
    rc, out, _ = _run(argv)
    assert rc == 2
    record = json.loads(out)
    assert record["status"] == "InvalidArgument"
    assert record["error"] == message
    assert record["results"] is None


@pytest.mark.parametrize(
    "argv, status",
    [
        (["interior", "--z1", "1.5e308,1.5e308", "--z2", "0,0.5"], "PointOutsideDomain"),
        (["oracle", "smetric", "--z1", "1.5e308,1.5e308", "--z2", "0,0.5"], "PointOutsideDomain"),
        (["envelope", "--a", "2e77", "--samples", "4"], "NonFinitePoint"),
        (["infinity", "--r", "1e200", "--theta", "0.3", "--svg"], "ok"),
    ],
    ids=["interior-modulus", "oracle-smetric-modulus", "envelope-a4", "infinity-svg-parabola"],
)
def test_finite_input_past_float64_prints_one_record(tmp_path, argv, status):
    # finite flags whose arithmetic passes float64: the modulus in the disk
    # test, a ** 4 in the envelope residual, and the square in the
    # plane-wave figure's parabola, which is still drawn
    if argv[-1] == "--svg":
        argv = argv + [str(tmp_path / "far.svg")]
    rc, out, _ = _run(argv)
    assert out.count("\n") == 1
    record = json.loads(out)
    assert record["status"] == status and rc == (0 if status == "ok" else 2)
    if status == "ok":
        root = ET.parse(tmp_path / "far.svg").getroot()
        assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 1


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POINT = st.tuples(_FINITE, _FINITE).map(lambda p: f"{p[0]!r},{p[1]!r}")


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    argv=st.one_of(
        st.tuples(st.just("interior"), st.just("--z1"), _POINT, st.just("--z2"), _POINT),
        st.tuples(st.just("infinity"), st.just("--r"), _FINITE.map(repr), st.just("--theta"),
                  _FINITE.map(repr), st.just("--verify")),
        st.tuples(st.just("envelope"), st.just("--a"), _FINITE.map(repr), st.just("--samples"),
                  st.integers(1, 8).map(str)),
        st.tuples(st.just("directrix"), st.just("--a"), _FINITE.map(repr), st.just("--phi"), _FINITE.map(repr)),
    )
)
def test_extreme_finite_input_prints_one_record(argv):
    # the oracle commands are left out: their numpy scans may warn on
    # overflow, which the test run turns into an error
    rc, out, _ = _run(list(argv))
    assert rc in (0, 2) and out.count("\n") == 1
    record = json.loads(out, parse_constant=_reject_constant)
    assert (record["status"] == "ok") == (rc == 0)


def test_shadow_region_error_code():
    rc, out, _ = _run(["infinity", "--r", "2", "--theta", "3.0"])
    assert rc == 2
    assert json.loads(out)["status"] == "ShadowRegion"


def test_invalid_focus_error_code():
    rc, out, _ = _run(["envelope", "--a", "0.8", "--samples", "8"])
    assert rc == 2
    assert json.loads(out)["status"] == "InvalidFocus"


def test_infinity_verify_block():
    rc, out, _ = _run(["infinity", "--r", "2", "--theta", "0.7853981633974483", "--verify"])
    record = json.loads(out)
    assert rc == 0
    verify = record["diagnostics"]["verify"]
    assert verify["delta"] > 0 and verify["p"] < 0 and verify["d"] < 0
    assert verify["four_real_distinct"] is True
    assert len(verify["mobius_images"]) == 4
    assert all(isinstance(v, float) for v in verify["mobius_images"])


@pytest.mark.parametrize("r", ["5e50", "1e60", "1e80", "1e300", "1e308", "1.7e308"])
def test_infinity_verify_block_for_a_far_observer(r):
    # the image quartic's invariants, verify_circle_theorem's closed form
    # scaled back by r^6, r^2 and r^4, overflow float64 here: they print as
    # null where they do not fit, and classify by the closed form's signs
    rc, out, _ = _run(["infinity", "--r", r, "--theta", "0.3", "--verify"])
    record = json.loads(out)
    assert rc == 0
    verify = record["diagnostics"]["verify"]
    assert verify["delta"] is None
    assert verify["classification"] == "FourRealDistinct" and verify["four_real_distinct"] is True


@pytest.mark.parametrize(
    "theta",
    [1.5707963079004843, -1.5707963079004843, 1.570796308135573, 1.570796306916724, 1.5707963083874499,
     math.pi / 2],
)
def test_infinity_verify_block_keeps_its_digits_at_the_rim(theta):
    # an ulp from the rim, near theta = pi/2, the generic invariants of the
    # image quartic cancel: delta came out up to 65% off. Each printed value
    # is within 16 ulps of the 50-digit invariants of the same float observer
    import mpmath

    from conftest import textbook_invariants

    r = 1.0000000000000002
    rc, out, _ = _run(["infinity", "--r", repr(r), "--theta", repr(theta), "--verify"])
    assert rc == 0
    verify = json.loads(out)["diagnostics"]["verify"]
    with mpmath.workdps(50):
        s, c, rr = mpmath.sin(theta), mpmath.cos(theta), mpmath.mpf(r)
        exact = textbook_invariants(rr * s, 2 * (2 * rr * c - 1), -6 * rr * s, -2 * (2 * rr * c + 1), rr * s)
        for name, ref in zip(("delta", "p", "d"), exact):
            assert abs(verify[name] - ref) <= 16 * math.ulp(float(ref)), (name, verify[name], ref)
    assert verify["classification"] == "FourRealDistinct"


@pytest.mark.parametrize(
    "r,theta,extra",
    [("2", "0", []), ("1e16", "3.141592653589793", []), ("1e16", "180", ["--degrees"])],
    ids=["theta-0", "theta-pi", "theta-180-degrees"],
)
def test_infinity_verify_on_the_axis_raises_as_verify_circle_theorem_does(r, theta, extra):
    # past r of about 8.2e15 the float pi observer leaves the shadow (Im f =
    # r*sin(pi) >= 1) and is answered; its image quartic still degenerates
    from catoptrix import DegenerateLeadingCoefficient, ObserverPolar, verify_circle_theorem

    obs = ObserverPolar(float(r), math.radians(float(theta)) if extra else float(theta))
    with pytest.raises(DegenerateLeadingCoefficient) as raised:
        verify_circle_theorem(obs)
    rc, out, _ = _run(["infinity", "--r", r, "--theta", theta, *extra, "--verify"])
    record = json.loads(out)
    assert rc == 2
    assert record["status"] == raised.value.code and record["error"] == str(raised.value)


def test_degrees_flag():
    rc1, out1, _ = _run(["infinity", "--r", "2", "--theta", "90", "--degrees"])
    rc2, out2, _ = _run(["infinity", "--r", "2", "--theta", repr(math.pi / 2)])
    assert rc1 == rc2 == 0
    r1 = json.loads(out1)["results"]
    r2 = json.loads(out2)["results"]
    assert abs(r1["phi"] - r2["phi"]) < 1e-12


def test_envelope_csv_exact_format(tmp_path):
    csv_path = tmp_path / "curve.csv"
    rc, out, _ = _run(["envelope", "--a", "2", "--samples", "4", "--csv", str(csv_path)])
    assert rc == 0
    text = csv_path.read_text()
    lines = text.splitlines()
    assert lines[0] == "theta,x,y,implicit_residual"
    assert len(lines) == 5
    assert text.endswith("\n")
    thetas = [float(line.split(",")[0]) for line in lines[1:]]
    assert thetas == sorted(thetas)
    assert -math.pi < thetas[0] and thetas[-1] <= math.pi
    expected = [-math.pi / 2, 0.0, math.pi / 2, math.pi]
    for got, want in zip(thetas, expected):
        assert abs(got - want) < 1e-12
    # theta = 0 row is exactly the origin with zero residual
    row0 = lines[2].split(",")
    assert row0 == ["0", "0", "0", "0"]
    for line in lines[1:]:
        assert abs(float(line.split(",")[3])) < 1e-9


def test_envelope_json_residuals():
    rc, out, _ = _run(["envelope", "--a", "2", "--samples", "64"])
    record = json.loads(out)
    assert rc == 0
    assert abs(record["results"]["phi_max"] - math.pi / 3) < 1e-12
    assert record["diagnostics"]["max_implicit_residual"] < 1e-9
    assert len(record["results"]["samples"]) == 64


def test_svg_outputs_are_well_formed(tmp_path):
    jobs = [
        (["interior", "--z1", "0.4,0", "--z2", "0,0.3", "--svg"], "interior.svg"),
        (["infinity", "--r", "2", "--theta", "1.0", "--svg"], "infinity.svg"),
        (["envelope", "--a", "2", "--directrices", "12", "--svg"], "envelope.svg"),
    ]
    for argv, name in jobs:
        path = tmp_path / name
        rc, out, _ = _run(argv + [str(path)])
        assert rc == 0
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert json.loads(out)["diagnostics"]["svg"] == str(path)


def _svg_numbers(path):
    for element in ET.parse(path).getroot():
        for name in ("cx", "cy", "r", "x1", "y1", "x2", "y2", "points"):
            for value in element.get(name, "").replace(",", " ").split():
                yield float(value)


@pytest.mark.parametrize("r, theta", [("8e307", "3.0"), ("1e308", "0.3"), ("1.5e308", "-1.2"), ("1.7e308", "0.3")])
def test_infinity_svg_coordinates_are_finite_for_a_far_observer(tmp_path, r, theta):
    # the canvas arithmetic, up to about 2.8*r, once overflowed here and
    # wrote nan coordinates under status ok
    path = tmp_path / "far.svg"
    rc, out, _ = _run(["infinity", "--r", r, "--theta", theta, "--svg", str(path)])
    assert rc == 0 and json.loads(out)["status"] == "ok"
    numbers = list(_svg_numbers(path))
    assert numbers and all(map(math.isfinite, numbers))


def test_oracle_smetric_command():
    rc, out, _ = _run(["oracle", "smetric", "--z1", "0.5,0", "--z2", "-0.5,0"])
    record = json.loads(out)
    assert rc == 0
    assert abs(record["results"]["s"] - 0.5) < 1e-9
    assert record["diagnostics"]["s_deviation"] < 1e-9


def test_oracle_angle_deviation_wraps_at_the_cut():
    # both answers lie at w = -1, 1.3e-8 apart but on either side of the
    # branch cut of the angle: their deviation is not 2*pi
    rc, out, _ = _run(["oracle", "smetric", "--z1", "-0.5,0.2", "--z2", "-0.5,-0.2"])
    assert rc == 0
    assert json.loads(out)["diagnostics"]["angle_deviation"] < 1e-6


def test_oracle_infinity_command():
    rc, out, _ = _run(["oracle", "infinity", "--r", "2", "--theta", "1.2"])
    record = json.loads(out)
    assert rc == 0
    assert record["diagnostics"]["angle_deviation"] < 1e-6


def test_oracle_discriminant_command():
    rc, out, _ = _run(["oracle", "discriminant", "--r", "3", "--theta", "1.0"])
    record = json.loads(out)
    assert rc == 0
    assert record["diagnostics"]["sign_agreement"] is True
    rc, out, _ = _run(["oracle", "discriminant", "--coeffs", "1,0,0,0,-1"])
    record = json.loads(out)
    assert rc == 0
    assert abs(record["results"]["resultant_delta"] - (-256.0)) < 1e-9


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def test_numpy_loads_only_for_the_oracles(tmp_path):
    # a fresh interpreter, because this one has numpy loaded already; each
    # command loads only the modules it runs, and svg and oracle none of them:
    # svg loads envelope, which it draws with, and no module whose types it
    # only names. dataclasses, and with it inspect, loads only with interior,
    # whose ReflectionResult is still a dataclass; numpy imports inspect itself
    code = textwrap.dedent(
        """
        import contextlib, io, os, sys
        import catoptrix, catoptrix.cli
        from catoptrix.cli import main

        out = sys.argv[1]

        def loaded():
            return {m.split(".")[1] for m in sys.modules if m.startswith("catoptrix.")}

        expected = {"cli", "errors"}
        assert loaded() == expected, loaded()

        def run(argv, added):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv)
            assert rc == 0, (argv, rc)
            expected.update(added)
            assert loaded() == expected, (argv, loaded())

        for argv, added in [
            (["envelope", "--a", "2", "--samples", "16"], {"numeric", "envelope"}),
            (["envelope", "--a", "2", "--samples", "16", "--svg", os.path.join(out, "e.svg")], {"svg"}),
            (["infinity", "--r", "2", "--theta", "0.7", "--verify"], {"quartic", "infinity"}),
            (["infinity", "--r", "2", "--theta", "0.7", "--svg", os.path.join(out, "i.svg")], set()),
            (["directrix", "--a", "2", "--phi", "0.3"], set()),
        ]:
            run(argv, added)
            assert "dataclasses" not in sys.modules and "inspect" not in sys.modules, argv
        assert "numpy" not in sys.modules
        run(["oracle", "discriminant", "--coeffs", "1,0,0,0,-1"], {"oracle"})
        assert "numpy" in sys.modules and "dataclasses" not in sys.modules
        run(["interior", "--z1", "0.37,0.11", "--z2", "-0.25,0.42"], {"interior"})
        assert "dataclasses" in sys.modules and "inspect" in sys.modules
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=_src_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_oracle_discriminant_command_for_a_far_observer():
    # the image quartic's invariants overflow float64 here; the command, run
    # as users run it, prints one record (numpy warns on stderr that the
    # resultant overflows)
    argv = ["oracle", "discriminant", "--r", "1e80", "--theta", "0.3"]
    proc = subprocess.run(
        [sys.executable, "-m", "catoptrix.cli", *argv], env=_src_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["diagnostics"]["classification"] == "FourRealDistinct"
    assert record["diagnostics"]["sign_agreement"] is True


def test_oracle_discriminant_command_past_float64_names_the_observer():
    # past r of about 3.0e307 the image quartic's coefficients overflow: the
    # error names r and theta, and the record echoes them as given
    rc, out, _ = _run(["oracle", "discriminant", "--r", "1e308", "--theta", "0.5"])
    record = json.loads(out)
    assert rc == 2
    assert record["status"] == "NonFinitePoint"
    assert record["inputs"] == {"r": 1e308, "theta": 0.5}
    assert record["error"].startswith("observer r=1e+308, theta=0.5: ")


# python -m catoptrix.cli, as users and the benchmark run it: cli is then
# __main__, and its call-time relative imports must still resolve
MODULE_CASES = [
    *(pytest.param(name, argv, id=name) for name, argv in GOLDEN_CASES),
    pytest.param(None, ["oracle", "discriminant", "--coeffs", "1,0,0,0,-1"], id="oracle-discriminant"),
    pytest.param(None, ["infinity", "--r", "0.5", "--theta", "0.785"], id="domain-error"),
    pytest.param(None, ["interior", "--z1", "0.5,0", "--z2", "-0.5,0", "--json"], id="usage-error"),
]


@pytest.mark.parametrize("name,argv", MODULE_CASES)
def test_python_m_matches_in_process(name, argv):
    proc = subprocess.run(
        [sys.executable, "-m", "catoptrix.cli", *argv], env=_src_env(), capture_output=True, timeout=60
    )
    rc, out, _ = _run(argv)
    assert proc.returncode == rc
    assert proc.stdout == out.encode("utf-8")
    if name is not None:
        assert proc.stdout == (GOLDEN_DIR / name).read_bytes()

