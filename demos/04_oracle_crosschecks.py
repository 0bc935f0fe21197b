"""Brute force versus closed form.

Every closed-form path in the library has an independent slow twin: a dense
boundary grid with golden-section refinement for each of the two reflection
problems, and a Sylvester-resultant determinant for the quartic
discriminant. This script runs them side by side.
"""

import cmath
import math

from catoptrix import (
    ObserverPolar,
    infinity_reflection,
    infinity_real_coeffs,
    minimizing_root,
    oracle_infinity_path,
    oracle_quartic_discriminant,
    oracle_smetric,
    real_quartic_invariants,
)

print("triangular ratio metric: grid search over the boundary circle")
for z1, z2 in ((0.4 + 0j, 0.3j), (0.5 + 0j, -0.5 + 0j), (-0.1 + 0.6j, 0.3 - 0.2j)):
    w_o, s_o = oracle_smetric(z1, z2)
    res = minimizing_root(z1, z2)
    dphi = abs(cmath.phase(w_o * res.w.conjugate()))
    print(f"  ({z1}, {z2}):")
    print(f"    oracle  s = {s_o:.12f} at arg w = {cmath.phase(w_o):+.9f}")
    print(f"    closed  s = {res.s_value:.12f} at arg w = {cmath.phase(res.w):+.9f}"
          f"   (angle gap {dphi:.1e})")

print("\nplane-wave path functional: grid search over the lit arc")
for (r, theta) in ((2.0, math.pi / 2), (2.0, 1.2), (5.0, 0.4)):
    obs = ObserverPolar(r, theta)
    w_o, defect_o = oracle_infinity_path(obs)
    res = infinity_reflection(obs)
    dphi = abs(cmath.phase(w_o * res.w.conjugate()))
    print(f"  r = {r}, theta = {theta:.4f}:")
    print(f"    oracle  phi = {cmath.phase(w_o):.9f}, defect = {defect_o:.12f}")
    print(f"    closed  phi = {res.phi:.9f}, defect = {res.path_defect:.12f}"
          f"   (angle gap {dphi:.1e})")

print("\nquartic discriminant: closed form vs Sylvester resultant")
cases = [
    ("x^4 - 1", (1.0, 0.0, 0.0, 0.0, -1.0)),
    ("(x-1)(x-2)(x-3)(x-4)", (1.0, -10.0, 35.0, -50.0, 24.0)),
    ("image quartic, r=3 theta=1", infinity_real_coeffs(3.0, 1.0)),
]
for label, coeffs in cases:
    nat = real_quartic_invariants(*coeffs)
    res_delta = oracle_quartic_discriminant(*coeffs)
    agree = (res_delta > 0) == (nat.delta > 0)
    print(f"  {label}:")
    print(f"    closed delta = {nat.delta:+.6e}, resultant delta = {res_delta:+.6e},"
          f" signs agree: {agree}")
    print(f"    P = {nat.p:+.6e}, D = {nat.d:+.6e} -> {nat.classification.value}")
