"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. Each criterion pins its tolerance here; nothing is deferred
to later calibration.
"""

import cmath
import io
import math
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from catoptrix import (
    ObserverPolar,
    QuarticCoeffs,
    RootNature,
    directrix,
    ellipse_params,
    envelope_implicit,
    envelope_param,
    infinity_quartic_coeffs,
    infinity_real_coeffs,
    infinity_reflection,
    interior_quartic_coeffs,
    limacon_residual,
    minimizing_root,
    oracle_infinity_path,
    oracle_smetric,
    point_line_distance,
    real_quartic_invariants,
    s_metric,
    solve_quartic,
    tangency_point,
)
from catoptrix.cli import main as cli_main
from catoptrix.numeric import unit_from_angle

GOLDEN_DIR = Path(__file__).parent / "golden"


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


def _angle_distance(w1: complex, w2: complex) -> float:
    return abs(cmath.phase(w1 * w2.conjugate()))


def _random_observers(seed: int, n: int):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        r = float(1.0 + 99.0 * rng.random())
        theta = float(rng.uniform(0.0, math.pi / 2))
        if theta == 0.0:
            theta = 1e-9
        out.append(ObserverPolar(r, theta))
    return out


def _random_interior_pairs(seed: int, n: int):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < n:
        v = rng.uniform(-1.0, 1.0, 4)
        z1, z2 = complex(v[0], v[1]), complex(v[2], v[3])
        if abs(z1) < 0.98 and abs(z2) < 0.98 and abs(z1 - z2) > 1e-3:
            pairs.append((z1, z2))
    return pairs


def test_criterion_1_unit_circle_theorem():
    failures = 0
    worst = 0.0
    for obs in _random_observers(1001, 10_000):
        roots = solve_quartic(infinity_quartic_coeffs(obs))
        for w in roots.roots:
            dev = abs(abs(w) - 1.0)
            worst = max(worst, dev)
            if dev > 1e-7:
                failures += 1
        nature = real_quartic_invariants(*infinity_real_coeffs(obs.r, obs.theta))
        if not (
            nature.classification is RootNature.FOUR_REAL_DISTINCT
            and nature.delta > 0
            and nature.p < 0
            and nature.d < 0
        ):
            failures += 1
    ok = failures == 0
    _report(1, "unit-circle theorem, 10^4 observers", ok, f"worst modulus dev {worst:.2e}")
    assert ok


def test_criterion_2_mobius_consistency():
    worst = 0.0
    for obs in _random_observers(1002, 1000):
        roots = solve_quartic(infinity_quartic_coeffs(obs))
        images = sorted(((1j * (1 + w) / (1 - w)).real for w in roots.roots))
        image_roots = solve_quartic(QuarticCoeffs(*infinity_real_coeffs(obs.r, obs.theta)))
        reals = sorted(w.real for w in image_roots.roots)
        worst = max(worst, max(abs(w.imag) for w in image_roots.roots))
        for got, want in zip(images, reals):
            worst = max(worst, abs(got - want))
    ok = worst <= 1e-7
    _report(2, "Moebius image multiset, 10^3 observers", ok, f"worst deviation {worst:.2e}")
    assert ok


def test_criterion_3_reflection_law_reality():
    worst_inf = 0.0
    for obs in _random_observers(1003, 1000):
        res = infinity_reflection(obs)
        worst_inf = max(worst_inf, res.reality_residual)
    worst_int = 0.0
    for z1, z2 in _random_interior_pairs(1004, 1000):
        res = minimizing_root(z1, z2)
        worst_int = max(worst_int, res.reflection_residual)
    ok = worst_inf <= 1e-9 and worst_int <= 1e-9
    _report(
        3,
        "reflection-law reality residuals",
        ok,
        f"infinity {worst_inf:.2e}, interior {worst_int:.2e}",
    )
    assert ok


def test_criterion_4_closed_symmetric_forms():
    worst_collinear = 0.0
    for x in np.linspace(0.005, 0.995, 100):
        worst_collinear = max(worst_collinear, abs(s_metric(0, float(x)) - x / (2.0 - x)))
    worst_diametral = 0.0
    for t in np.linspace(0.005, 0.995, 100):
        # From the definition: on |w| = 1, |w - t| + |w + t| >= |2w| = 2 by the
        # triangle inequality, with equality at w = +-1, so the minimal focal
        # sum is 2 and s(t, -t) = 2t / 2 = t. (t / sqrt(1 + t^2) is the ratio
        # at the maximizing points w = +-i, where the focal sum is 2 sqrt(1 + t^2).)
        target = t
        worst_diametral = max(worst_diametral, abs(s_metric(float(t), float(-t)) - target))
    ok = bool(worst_collinear <= 1e-12 and worst_diametral <= 1e-12)
    _report(
        4,
        "closed symmetric forms",
        ok,
        f"s(0,x) dev {worst_collinear:.2e}; s(t,-t) vs t dev {worst_diametral:.2e}",
    )
    assert ok


def test_criterion_5_eccentricity_identity():
    worst = 0.0
    for z1, z2 in _random_interior_pairs(1005, 1000):
        ecc = ellipse_params(z1, z2).eccentricity
        worst = max(worst, abs(ecc - s_metric(z1, z2)))
    ok = worst <= 1e-12
    _report(5, "eccentricity equals the metric, 10^3 pairs", ok, f"worst {worst:.2e}")
    assert ok


def test_criterion_6_oracle_agreement():
    worst_s = 0.0
    for z1, z2 in _random_interior_pairs(1006, 1000):
        w_oracle, _ = oracle_smetric(z1, z2)
        res = minimizing_root(z1, z2)
        worst_s = max(worst_s, _angle_distance(res.w, w_oracle))
    worst_i = 0.0
    for obs in _random_observers(1007, 1000):
        w_oracle, _ = oracle_infinity_path(obs)
        res = infinity_reflection(obs)
        worst_i = max(worst_i, _angle_distance(res.w, w_oracle))
    ok = worst_s <= 1e-6 and worst_i <= 1e-6
    _report(
        6,
        "oracle agreement in boundary angle, 10^3 each",
        ok,
        f"interior {worst_s:.2e}, infinity {worst_i:.2e}",
    )
    assert ok


def test_criterion_7_directrix_envelope_identities():
    rng = np.random.default_rng(1008)
    ok = True
    details = []
    for a in (1.5, 2.0, 3.0, 10.0):
        worst_fd = 0.0
        worst_tg = 0.0
        for _ in range(1000):
            w = unit_from_angle(float(rng.uniform(-math.pi, math.pi)))
            line = directrix(a, w)
            worst_fd = max(worst_fd, abs(point_line_distance(w, line) - abs(w - a)))
            tp = tangency_point(a, w)
            worst_tg = max(worst_tg, point_line_distance(tp, line))
        worst_pi = 0.0
        for theta in np.linspace(-math.pi, math.pi, 2500, endpoint=True):
            z = envelope_param(a, float(theta))
            worst_pi = max(worst_pi, abs(envelope_implicit(a, z)))
        worst_lim = 0.0
        grid = np.linspace(-a - 3.0, a + 3.0, 100)
        for x in grid:
            for y in grid:
                diff = abs(
                    limacon_residual(a, float(x), float(y))
                    - envelope_implicit(a, complex(x, y))
                )
                scale = max(1.0, abs(complex(x, y)) ** 4)
                worst_lim = max(worst_lim, diff / scale)
        ok = ok and worst_fd < 1e-9 and worst_tg < 1e-9 and worst_pi < 1e-9 and worst_lim < 1e-9
        details.append(f"a={a}: fd {worst_fd:.1e} tg {worst_tg:.1e} pi {worst_pi:.1e} lim {worst_lim:.1e}")
    # hand values, exact to 1e-12
    rf = directrix(2.0, 1 + 0j).real_form()
    hand1 = max(abs(rf[0] - 1.0), abs(rf[1]), abs(rf[2]))
    rf = directrix(2.0, 1j).real_form()
    hand2 = max(abs(rf[0] - 1.0), abs(rf[1] - 0.5), abs(rf[2] + 3.0))
    ok = ok and hand1 <= 1e-12 and hand2 <= 1e-12
    _report(7, "directrix and envelope identities", ok, "; ".join(details))
    assert ok


def test_criterion_8_vieta_closures():
    worst = 0.0
    for z1, z2 in _random_interior_pairs(1009, 1000):
        q = interior_quartic_coeffs(z1, z2)
        if q.c4 == 0:
            continue
        roots = solve_quartic(q)
        mono = np.poly(np.array(roots.roots))
        target = np.array(q.as_tuple()) / q.c4
        scale = max(1.0, float(np.max(np.abs(target))))
        worst = max(worst, float(np.max(np.abs(mono - target))) / scale)
    worst_prod = 0.0
    for obs in _random_observers(1010, 1000):
        q = infinity_quartic_coeffs(obs)
        roots = solve_quartic(q)
        mono = np.poly(np.array(roots.roots))
        target = np.array(q.as_tuple()) / q.c4
        scale = max(1.0, float(np.max(np.abs(target))))
        worst = max(worst, float(np.max(np.abs(mono - target))) / scale)
        prod = complex(np.prod(np.array(roots.roots)))
        worst_prod = max(worst_prod, abs(prod + cmath.exp(2j * obs.theta)))
    ok = worst <= 1e-8 and worst_prod <= 1e-8
    _report(
        8,
        "Vieta closures, 10^3 instances each",
        ok,
        f"coefficient dev {worst:.2e}, root product dev {worst_prod:.2e}",
    )
    assert ok


def test_criterion_9_cli_determinism():
    cases = [
        ("interior_symmetric.json", ["interior", "--z1", "0.5,0", "--z2", "-0.5,0"]),
        ("interior_origin.json", ["interior", "--z1", "0,0", "--z2", "0.5,0"]),
        ("infinity_axial.json", ["infinity", "--r", "2", "--theta", "0"]),
        ("envelope_a2_s4.json", ["envelope", "--a", "2", "--samples", "4"]),
        ("directrix_a2_phi0.json", ["directrix", "--a", "2", "--phi", "0"]),
        ("directrix_a2_phi_halfpi.json", ["directrix", "--a", "2", "--phi", "1.5707963267948966"]),
    ]
    ok = True
    for name, argv in cases:
        golden = (GOLDEN_DIR / name).read_bytes()
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = cli_main(argv)
            ok = ok and rc == 0 and buf.getvalue().encode("utf-8") == golden
    _report(9, "CLI golden-file byte equality, six commands", ok)
    assert ok
