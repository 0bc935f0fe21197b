"""Minimal SVG emitters for the figures. Presentation only: fixed styling,
deterministic output, no plotting dependency."""

from __future__ import annotations

import math
from typing import Iterable

from .envelope import LineCoeffs, envelope_param, valid_arc
from .infinity import InfinityResult, ObserverPolar
from .interior import EllipseParams, ReflectionResult

_SIZE = 640


def _fmt(x: float) -> str:
    return format(x, ".6f")


class _Canvas:
    """Maps the math box [-extent, extent]^2 onto a fixed-size SVG viewport."""

    def __init__(self, extent: float) -> None:
        self.extent = extent
        self.scale = _SIZE / (2.0 * extent)
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
            f'viewBox="0 0 {_SIZE} {_SIZE}">',
            f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        ]

    def _xy(self, z: complex) -> tuple[float, float]:
        return (
            (z.real + self.extent) * self.scale,
            (self.extent - z.imag) * self.scale,
        )

    def circle(self, center: complex, radius: float, stroke: str) -> None:
        cx, cy = self._xy(center)
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius * self.scale)}" '
            f'fill="none" stroke="{stroke}" stroke-width="1.500000"/>'
        )

    def dot(self, z: complex, color: str, radius: float = 4.0) -> None:
        cx, cy = self._xy(z)
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" fill="{color}"/>'
        )

    def polyline(self, points: Iterable[complex], stroke: str) -> None:
        coords = " ".join("{},{}".format(_fmt(x), _fmt(y)) for x, y in map(self._xy, points))
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            'stroke-width="1.500000"/>'
        )

    def segment(self, a: complex, b: complex, stroke: str) -> None:
        x1, y1 = self._xy(a)
        x2, y2 = self._xy(b)
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="1.000000"/>'
        )

    def infinite_line(self, line: LineCoeffs, stroke: str) -> None:
        # clip A*x + B*y + C = 0 against the viewport box
        a, b, c = line.real_form()
        e = self.extent
        pts = []
        if abs(b) > 1e-12:
            for x in (-e, e):
                y = -(a * x + c) / b
                if -e <= y <= e:
                    pts.append(complex(x, y))
        if abs(a) > 1e-12:
            for y in (-e, e):
                x = -(b * y + c) / a
                if -e <= x <= e:
                    pts.append(complex(x, y))
        uniq: list[complex] = []
        for p in pts:
            if all(abs(p - q) > 1e-9 for q in uniq):
                uniq.append(p)
        if len(uniq) >= 2:
            self.segment(uniq[0], uniq[1], stroke)

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def interior_figure(z1: complex, z2: complex, result: ReflectionResult, ellipse: EllipseParams) -> str:
    """Unit circle, the two points, the reflection point, and the maximal ellipse."""
    canvas = _Canvas(1.35)
    canvas.circle(0j, 1.0, "#444444")
    center = (z1 + z2) / 2.0
    d = z2 - z1
    u = d / abs(d) if abs(d) > 0 else 1.0 + 0j
    pts = []
    for k in range(257):
        t = math.tau * k / 256
        pts.append(center + u * complex(ellipse.major * math.cos(t), ellipse.minor * math.sin(t)))
    canvas.polyline(pts, "#1f77b4")
    canvas.segment(z1, result.w, "#999999")
    canvas.segment(z2, result.w, "#999999")
    canvas.dot(z1, "#d62728")
    canvas.dot(z2, "#d62728")
    canvas.dot(result.w, "#2ca02c")
    return canvas.render()


def infinity_figure(obs: ObserverPolar, result: InfinityResult) -> str:
    """Unit circle, the four roots, the observer, the incoming and reflected
    rays, and the tangential parabola through the selected root.

    The figure is drawn in units of 2^k, with k > 0 only where the canvas
    arithmetic, up to about 2.8*r, would overflow. A power of two scales
    every coordinate without rounding, and the canvas maps the scaled box
    onto the same pixels, so no pixel moves."""
    unit = math.ldexp(1.0, -max(0, math.frexp(obs.r)[1] - 1021))
    f = obs.point * unit
    extent = max(1.5, abs(f) * 1.15)
    canvas = _Canvas(extent)
    canvas.circle(0j, unit, "#444444")
    w = result.w * unit
    canvas.segment(complex(extent, w.imag), w, "#ff7f0e")  # incoming horizontal ray
    canvas.segment(w, f, "#ff7f0e")
    # parabola with focus f and vertical directrix x = Re w + |w - f|
    d = w.real + abs(w - f)
    if d - f.real > 1e-9:
        pts = []
        span = 1.2 * extent
        for k in range(257):
            y = -span + 2 * span * k / 256
            # divide before the second factor: (y - f.imag) ** 2 overflows from about r = 1e154
            x = 0.5 * (d + f.real) - (y - f.imag) / (2.0 * (d - f.real)) * (y - f.imag)
            if abs(x) <= 2 * extent:
                pts.append(complex(x, y))
        if len(pts) >= 2:
            canvas.polyline(pts, "#1f77b4")
    for root in result.all_roots.roots:
        canvas.dot(root * unit, "#9467bd", 3.0)
    canvas.dot(w, "#2ca02c")
    canvas.dot(f, "#d62728")
    return canvas.render()


def envelope_figure(a: float, thetas: Iterable[float], directrix_lines: Iterable[LineCoeffs]) -> str:
    """Unit circle, the parametric envelope, and optionally some directrices."""
    extent = a + 2.5
    canvas = _Canvas(extent)
    canvas.circle(0j, 1.0, "#444444")
    for line in directrix_lines:
        canvas.infinite_line(line, "#cccccc")
    canvas.polyline([envelope_param(a, t) for t in thetas], "#1f77b4")
    phi = valid_arc(a)
    canvas.dot(envelope_param(a, phi), "#2ca02c", 3.0)
    canvas.dot(envelope_param(a, -phi), "#2ca02c", 3.0)
    canvas.dot(complex(a, 0.0), "#d62728")
    return canvas.render()
