"""CLI behaviour: golden outputs, determinism, file emission, error paths."""

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


def test_oracle_smetric_command():
    rc, out, _ = _run(["oracle", "smetric", "--z1", "0.5,0", "--z2", "-0.5,0", "--grid", "100000"])
    record = json.loads(out)
    assert rc == 0
    assert abs(record["results"]["s"] - 0.5) < 1e-9
    assert record["diagnostics"]["s_deviation"] < 1e-9


def test_oracle_infinity_command():
    rc, out, _ = _run(["oracle", "infinity", "--r", "2", "--theta", "1.2", "--grid", "20000"])
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


def test_numpy_loads_only_for_the_oracles():
    # a fresh interpreter, because this one has numpy loaded already; each
    # command loads only the modules it runs, and svg and oracle none of them
    code = textwrap.dedent(
        """
        import contextlib, io, sys
        import catoptrix, catoptrix.cli
        from catoptrix.cli import main

        def loaded():
            return {m.split(".")[1] for m in sys.modules if m.startswith("catoptrix.")}

        assert loaded() == {"cli", "errors"}, loaded()
        steps = [
            (["interior", "--z1", "0.37,0.11", "--z2", "-0.25,0.42"], {"numeric", "quartic", "interior"}),
            (["infinity", "--r", "2", "--theta", "0.7", "--verify"], {"infinity"}),
            (["envelope", "--a", "2", "--samples", "16"], {"envelope"}),
            (["directrix", "--a", "2", "--phi", "0.3"], set()),
        ]
        expected = {"cli", "errors"}
        for argv, added in steps:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv)
            assert rc == 0, (argv, rc)
            expected |= added
            assert loaded() == expected, (argv, loaded())
        assert "numpy" not in sys.modules
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(["oracle", "discriminant", "--coeffs", "1,0,0,0,-1"])
        assert rc == 0, rc
        assert "numpy" in sys.modules
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


# python -m catoptrix.cli, as users and the benchmark run it: cli is then
# __main__, and its call-time relative imports must still resolve
MODULE_CASES = [
    *(pytest.param(name, argv, id=name) for name, argv in GOLDEN_CASES),
    pytest.param(None, ["oracle", "discriminant", "--coeffs", "1,0,0,0,-1"], id="oracle-discriminant"),
    pytest.param(None, ["infinity", "--r", "0.5", "--theta", "0.785"], id="domain-error"),
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

