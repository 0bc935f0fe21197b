"""The family of parabola directrices and its teardrop envelope.

Fix an observer at a > 1 on the real axis. Light arriving from some direction
reflects at a mirror point w into the observer; the associated parabola is
tangent to the circle at w with focus a, and its directrix is a line that
moves as w sweeps the circle. The moving line envelopes a limacon of Pascal
with an inner loop, and only the arc |arg w| <= asin(sqrt(a^2-1)/a) is
reachable without the ray crossing the mirror.
"""

import math
from pathlib import Path

from catoptrix import (
    directrix,
    envelope_implicit,
    envelope_param,
    limacon_residual,
    mirror_point,
    point_line_distance,
    tangency_point,
    valid_arc,
)
from catoptrix.numeric import unit_from_angle
from catoptrix.svg import envelope_figure

OUT = Path(__file__).parent / "output"

a = 2.0
print(f"observer a = {a}")

w = unit_from_angle(math.pi / 2)
line = directrix(a, w)
A, B, C = line.real_form()
print(f"\ndirectrix at w = i: {A:.3f} x + {B:.3f} y + {C:.3f} = 0  (2x + y = 6)")
print(f"  mirror point a* = {mirror_point(a, w):.6f}")
print(f"  tangency point  = {tangency_point(a, w):.6f}")
print(f"  focus-directrix property: dist(w, line) = {point_line_distance(w, line):.12f}"
      f" vs |w - a| = {abs(w - a):.12f}")

print(f"\nenvelope: z = 2 e^(i t) - a e^(2 i t);  reachable arc phi_max = {valid_arc(a):.12f}"
      f" (= pi/3 for a = 2)")

print("\nparametric points land on the implicit quartic curve:")
for t in (0.0, 0.7, math.pi / 2, math.pi):
    z = envelope_param(a, t)
    print(f"  t = {t:+.4f}: z = {z:+.6f}, implicit residual = {envelope_implicit(a, z):+.2e}")

print("\nthe implicit form is a limacon of Pascal (same residuals in both forms):")
for (x, y) in ((0.0, 0.0), (-4.0, 0.0), (1.3, 0.8)):
    e2 = envelope_implicit(a, complex(x, y))
    lim = limacon_residual(a, x, y)
    print(f"  ({x:+.1f}, {y:+.1f}): envelope {e2:+.6e}, limacon {lim:+.6e}")

# the inner loop closes exactly at the reachable-arc bound
t_star = math.acos(1.0 / a)
z_plus = envelope_param(a, t_star)
z_minus = envelope_param(a, -t_star)
print(f"\nloop crossing: z(+t*) = z(-t*) = {z_plus:.6f} with t* = {t_star:.12f}")
print(f"  |z(+t*) - z(-t*)| = {abs(z_plus - z_minus):.2e},  valid_arc(a) = {valid_arc(a):.12f}")

OUT.mkdir(exist_ok=True)
svg_path = OUT / "directrix_envelope.svg"
thetas = [-math.pi + math.tau * (k + 1) / 720 for k in range(721)]
lines = [directrix(a, unit_from_angle(-math.pi + math.tau * (j + 1) / 36)) for j in range(36)]
svg_path.write_text(envelope_figure(a, thetas, lines))
print(f"\nfigure written to {svg_path}")

csv_path = OUT / "envelope_curve.csv"
with csv_path.open("w", newline="") as fh:
    fh.write("theta,x,y,implicit_residual\n")
    for k in range(720):
        t = -math.pi + math.tau * (k + 1) / 720
        z = envelope_param(a, t)
        fh.write(f"{t!r},{z.real!r},{z.imag!r},{envelope_implicit(a, z)!r}\n")
print(f"curve samples written to {csv_path}")
