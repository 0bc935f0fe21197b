"""Command-line frontend.

Subcommands: interior, infinity, envelope, directrix, oracle. Each prints one
JSON record to stdout (fixed field order, 17-significant-digit reals, so
identical flags give byte-identical output); human-readable messages go to
stderr. Exit code 0 on success, 2 on domain errors, with the error code in
the record's status field.

Each subcommand imports the library modules it runs when it runs, so a
process loads only those: ``svg`` only under ``--svg``, and ``oracle``, with
numpy, only for ``catoptrix oracle``.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from typing import Any, Optional, Sequence

from .errors import CatoptrixError

__all__ = ["main"]


def __getattr__(name: str) -> Any:
    # bench/layers.py traces the library by wrapping names on this module
    # (cli.minimizing_root, cli.oracle_smetric, ...), so every name the
    # package exports resolves here as well. The runners import from the
    # defining modules at call time and so call the wrapped functions too.
    # A solve trace built into the library (ROADMAP.md) would delete this.
    import catoptrix

    if name in catoptrix.__all__:
        return getattr(catoptrix, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_VALUE_FLAGS = {
    "--z1", "--z2", "--r", "--theta", "--a", "--phi", "--samples",
    "--grid", "--refine-iters", "--csv", "--svg", "--directrices", "--coeffs",
}


def _fmt_float(x: float) -> str:
    return format(float(x) + 0.0, ".17g")  # + 0.0 folds -0.0 into 0.0


def _emit(obj: Any) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-digit reals."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_emit(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _parse_point(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected RE,IM, got {text!r}") from exc


def _parse_coeffs(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected A,B,C,D,E, got {text!r}") from exc
    if len(vals) != 5:
        raise argparse.ArgumentTypeError(f"expected five coefficients, got {len(vals)}")
    return vals


def _join_flag_values(argv: Sequence[str]) -> list[str]:
    # argparse mistakes values like "-0.5,0" for option strings; gluing each
    # value flag to its argument with '=' sidesteps that
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catoptrix",
        description="Reflection points on the unit-circle mirror, the "
        "triangular ratio metric, and the directrix-envelope limacon.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("interior", help="reflection point and metric for two points in the disk")
    p_int.add_argument("--z1", type=_parse_point, required=True, metavar="RE,IM")
    p_int.add_argument("--z2", type=_parse_point, required=True, metavar="RE,IM")
    p_int.add_argument("--json", action="store_true", help="emit JSON (the default)")
    p_int.add_argument("--svg", metavar="PATH", default=None)

    p_inf = sub.add_parser("infinity", help="reflection point for a plane wave from the +x side")
    p_inf.add_argument("--r", type=float, required=True)
    p_inf.add_argument("--theta", type=float, required=True, help="observer angle (radians)")
    p_inf.add_argument("--degrees", action="store_true", help="interpret angles in degrees")
    p_inf.add_argument("--verify", action="store_true", help="add the two-route circle check")
    p_inf.add_argument("--json", action="store_true", help="emit JSON (the default)")
    p_inf.add_argument("--svg", metavar="PATH", default=None)

    p_env = sub.add_parser("envelope", help="sample the directrix-envelope limacon")
    p_env.add_argument("--a", type=float, required=True)
    p_env.add_argument("--samples", type=int, default=720)
    p_env.add_argument("--csv", metavar="PATH", default=None)
    p_env.add_argument("--svg", metavar="PATH", default=None)
    p_env.add_argument("--directrices", type=int, default=0, help="directrix lines to overlay in the SVG")
    p_env.add_argument("--json", action="store_true", help="emit JSON (the default)")

    p_dir = sub.add_parser("directrix", help="directrix of the tangential parabola at w = e^{i*phi}")
    p_dir.add_argument("--a", type=float, required=True)
    p_dir.add_argument("--phi", type=float, required=True)
    p_dir.add_argument("--degrees", action="store_true", help="interpret angles in degrees")
    p_dir.add_argument("--json", action="store_true", help="emit JSON (the default)")

    p_or = sub.add_parser("oracle", help="brute-force cross-checks")
    or_sub = p_or.add_subparsers(dest="oracle_command", required=True)

    o_sm = or_sub.add_parser("smetric", help="grid maximization of the metric ratio")
    o_sm.add_argument("--z1", type=_parse_point, required=True, metavar="RE,IM")
    o_sm.add_argument("--z2", type=_parse_point, required=True, metavar="RE,IM")
    o_sm.add_argument("--grid", type=int, default=100_000)
    o_sm.add_argument("--refine-iters", type=int, default=80)

    o_in = or_sub.add_parser("infinity", help="grid minimization of the plane-wave path")
    o_in.add_argument("--r", type=float, required=True)
    o_in.add_argument("--theta", type=float, required=True)
    o_in.add_argument("--degrees", action="store_true")
    o_in.add_argument("--grid", type=int, default=100_000)
    o_in.add_argument("--refine-iters", type=int, default=80)

    o_di = or_sub.add_parser("discriminant", help="Sylvester-resultant quartic discriminant")
    group = o_di.add_argument_group("coefficients")
    group.add_argument("--coeffs", type=_parse_coeffs, default=None, metavar="A,B,C,D,E")
    group.add_argument("--r", type=float, default=None, help="build the image-quartic coefficients from r, theta")
    group.add_argument("--theta", type=float, default=None)
    o_di.add_argument("--degrees", action="store_true")

    return parser


def _run_interior(args: argparse.Namespace) -> dict[str, Any]:
    from .interior import _ellipse_of, minimizing_root

    inputs = {"z1": _pair(args.z1), "z2": _pair(args.z2)}
    result = minimizing_root(args.z1, args.z2)
    ellipse = _ellipse_of(result, args.z1, args.z2)
    diagnostics: dict[str, Any] = {
        "candidates": [_pair(w) for w in result.candidates.roots],
        "on_circle": list(result.on_circle_mask),
        "residuals": list(result.candidates.residuals),
        "reflection_residual": result.reflection_residual,
        "tie_indices": list(result.tie_indices),
        "degree_dropped": result.degree_dropped,
        "svg": None,
    }
    if args.svg:
        from .svg import interior_figure

        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(interior_figure(args.z1, args.z2, result, ellipse))
        diagnostics["svg"] = args.svg
    return {
        "command": "interior",
        "inputs": inputs,
        "results": {
            "w": _pair(result.w),
            "s": result.s_value,
            "focal_sum": result.focal_sum,
            "ellipse": {
                "focal_sum": ellipse.focal_sum,
                "major": ellipse.major,
                "minor": ellipse.minor,
                "eccentricity": ellipse.eccentricity,
            },
        },
        "diagnostics": diagnostics,
        "status": "ok",
    }


def _run_infinity(args: argparse.Namespace) -> dict[str, Any]:
    from .infinity import ObserverPolar, infinity_reflection
    from .quartic import RootNature, infinity_real_coeffs, real_quartic_invariants

    theta = math.radians(args.theta) if args.degrees else args.theta
    inputs = {"r": float(args.r), "theta": float(theta)}
    obs = ObserverPolar(args.r, theta)
    result = infinity_reflection(obs)
    diagnostics: dict[str, Any] = {
        "root_moduli": [abs(w) for w in result.all_roots.roots],
        "residuals": list(result.all_roots.residuals),
        "verify": None,
        "svg": None,
    }
    if args.verify:
        nature = real_quartic_invariants(*infinity_real_coeffs(obs.r, obs.theta))
        diagnostics["verify"] = {
            "delta": nature.delta,
            "p": nature.p,
            "d": nature.d,
            "classification": nature.classification.value,
            "four_real_distinct": nature.classification is RootNature.FOUR_REAL_DISTINCT,
            "mobius_images": list(result.mobius_images) if result.mobius_images else None,
        }
    if args.svg:
        from .svg import infinity_figure

        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(infinity_figure(obs, result))
        diagnostics["svg"] = args.svg
    return {
        "command": "infinity",
        "inputs": inputs,
        "results": {
            "w": _pair(result.w),
            "phi": result.phi,
            "path_defect": result.path_defect,
            "reality_residual": result.reality_residual,
            "degenerate_axis": result.degenerate_axis,
            "roots": [_pair(w) for w in result.all_roots.roots],
            "mobius_images": list(result.mobius_images) if result.mobius_images else None,
        },
        "diagnostics": diagnostics,
        "status": "ok",
    }


def _envelope_rows(a: float, samples: int) -> list[tuple[float, float, float, float]]:
    from .envelope import envelope_implicit, envelope_param

    rows = []
    for k in range(samples):
        theta = -math.pi + math.tau * (k + 1) / samples
        z = envelope_param(a, theta)
        rows.append((theta, z.real, z.imag, envelope_implicit(a, z)))
    return rows


def _run_envelope(args: argparse.Namespace) -> dict[str, Any]:
    from .envelope import valid_arc

    inputs = {"a": float(args.a), "samples": int(args.samples)}
    if args.samples < 1:
        raise ValueError("samples must be positive")
    phi_max = valid_arc(args.a)
    rows = _envelope_rows(args.a, args.samples)
    diagnostics: dict[str, Any] = {
        "max_implicit_residual": max(abs(r[3]) for r in rows),
        "csv": None,
        "svg": None,
    }
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write("theta,x,y,implicit_residual\n")
            for theta, x, y, res in rows:
                fh.write(
                    f"{_fmt_float(theta)},{_fmt_float(x)},{_fmt_float(y)},{_fmt_float(res)}\n"
                )
        diagnostics["csv"] = args.csv
    if args.svg:
        from .envelope import directrix
        from .numeric import unit_from_angle
        from .svg import envelope_figure

        thetas = [-math.pi + math.tau * (k + 1) / 720 for k in range(721)]
        lines = []
        k = max(0, args.directrices)
        for j in range(k):
            lines.append(directrix(args.a, unit_from_angle(-math.pi + math.tau * (j + 1) / k)))
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(envelope_figure(args.a, thetas, lines))
        diagnostics["svg"] = args.svg
    return {
        "command": "envelope",
        "inputs": inputs,
        "results": {
            "phi_max": phi_max,
            "samples": [list(row) for row in rows],
        },
        "diagnostics": diagnostics,
        "status": "ok",
    }


def _run_directrix(args: argparse.Namespace) -> dict[str, Any]:
    from .envelope import directrix, mirror_point, point_line_distance, tangency_point
    from .numeric import unit_from_angle

    phi = math.radians(args.phi) if args.degrees else args.phi
    inputs = {"a": float(args.a), "phi": float(phi)}
    w = unit_from_angle(phi)
    line = directrix(args.a, w)
    normalized = line.normalized()
    mirror = mirror_point(args.a, w)
    contact = tangency_point(args.a, w)
    dist = point_line_distance(w, line)
    focus_dist = abs(w - args.a)
    return {
        "command": "directrix",
        "inputs": inputs,
        "results": {
            "w": _pair(w),
            "line": {
                "alpha": _pair(normalized.alpha),
                "beta": _pair(normalized.beta),
                "gamma": _pair(normalized.gamma),
            },
            "line_real_form": list(line.real_form()),
            "mirror_point": _pair(mirror),
            "tangency_point": _pair(contact),
            "focus_directrix_distance": dist,
            "tangency_focus_distance": focus_dist,
        },
        "diagnostics": {"distance_mismatch": abs(dist - focus_dist)},
        "status": "ok",
    }


def _run_oracle(args: argparse.Namespace) -> dict[str, Any]:
    from .infinity import ObserverPolar, infinity_reflection
    from .interior import minimizing_root
    from .oracle import OracleConfig, oracle_infinity_path, oracle_quartic_discriminant, oracle_smetric
    from .quartic import infinity_real_coeffs, real_quartic_invariants

    if args.oracle_command == "smetric":
        cfg = OracleConfig(grid=args.grid, refine_iters=args.refine_iters)
        inputs = {
            "z1": _pair(args.z1),
            "z2": _pair(args.z2),
            "grid": cfg.grid,
            "refine_iters": cfg.refine_iters,
        }
        w, s = oracle_smetric(args.z1, args.z2, cfg)
        closed = minimizing_root(args.z1, args.z2)
        return {
            "command": "oracle-smetric",
            "inputs": inputs,
            "results": {"w": _pair(w), "s": s},
            "diagnostics": {
                "closed_form": {"w": _pair(closed.w), "s": closed.s_value},
                "angle_deviation": abs(cmath.phase(w) - cmath.phase(closed.w)),
                "s_deviation": abs(s - closed.s_value),
            },
            "status": "ok",
        }
    if args.oracle_command == "infinity":
        theta = math.radians(args.theta) if args.degrees else args.theta
        cfg = OracleConfig(grid=args.grid, refine_iters=args.refine_iters)
        inputs = {"r": float(args.r), "theta": float(theta), "grid": cfg.grid, "refine_iters": cfg.refine_iters}
        obs = ObserverPolar(args.r, theta)
        w, defect = oracle_infinity_path(obs, cfg)
        closed = infinity_reflection(obs)
        return {
            "command": "oracle-infinity",
            "inputs": inputs,
            "results": {"w": _pair(w), "phi": cmath.phase(w), "path_defect": defect},
            "diagnostics": {
                "closed_form": {"w": _pair(closed.w), "phi": closed.phi},
                "angle_deviation": abs(cmath.phase(w) - closed.phi),
            },
            "status": "ok",
        }
    # discriminant
    if args.coeffs is not None:
        coeffs = args.coeffs
    elif args.r is not None and args.theta is not None:
        theta = math.radians(args.theta) if args.degrees else args.theta
        coeffs = infinity_real_coeffs(args.r, theta)
    else:
        raise ValueError("discriminant needs --coeffs or both --r and --theta")
    inputs = {"coeffs": [float(c) for c in coeffs]}
    resultant_delta = oracle_quartic_discriminant(*coeffs)
    nature = real_quartic_invariants(*coeffs)
    return {
        "command": "oracle-discriminant",
        "inputs": inputs,
        "results": {"resultant_delta": resultant_delta},
        "diagnostics": {
            "closed_form_delta": nature.delta,
            "p": nature.p,
            "d": nature.d,
            "classification": nature.classification.value,
            "sign_agreement": (resultant_delta > 0) == (nature.delta > 0),
        },
        "status": "ok",
    }


_RUNNERS = {
    "interior": _run_interior,
    "infinity": _run_infinity,
    "envelope": _run_envelope,
    "directrix": _run_directrix,
    "oracle": _run_oracle,
}


def _echo_inputs(args: argparse.Namespace) -> dict[str, Any]:
    skip = {"command", "oracle_command", "json", "svg", "csv", "verify", "degrees", "directrices"}
    echoed: dict[str, Any] = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        if isinstance(value, complex):
            echoed[key] = _pair(value)
        elif isinstance(value, tuple):
            echoed[key] = list(value)
        else:
            echoed[key] = value
    return echoed


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(_join_flag_values(argv))
    try:
        record = _RUNNERS[args.command](args)
    except (CatoptrixError, ValueError) as exc:
        code = exc.code if isinstance(exc, CatoptrixError) else "InvalidArgument"
        record = {
            "command": args.command,
            "inputs": _echo_inputs(args),
            "results": None,
            "diagnostics": None,
            "status": code,
            "error": str(exc),
        }
        print(_emit(record))
        print(f"catoptrix {args.command}: {code}: {exc}", file=sys.stderr)
        return 2
    print(_emit(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
