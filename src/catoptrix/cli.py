"""Command-line frontend.

Subcommands: interior, infinity, envelope, directrix, oracle (smetric,
infinity, discriminant). Every exit prints one JSON record to stdout (fixed
field order, 17-significant-digit reals, so identical flags give
byte-identical output; a NaN or infinite real prints as null); human-readable
messages go to stderr. Runners do no I/O: each returns results and
diagnostics as the library's own values, and the text of each file its
--csv/--svg flags ask for. ``_emit`` alone owns the wire format: a complex
number prints as [re, im], a tuple as an array, and a value record
(``EllipseParams``, the normalized ``LineCoeffs``) as an object of its fields
in declaration order. ``main`` alone writes the files and the record:
``command`` (``oracle-smetric`` and so on for the oracles; each leaf
subparser declares its command name and runner once, as defaults),
``inputs`` (one echo of the parsed flags, angles in radians), ``results``,
``diagnostics`` (ending with each output flag's path, null if not written),
``status`` and, unless the status is ok, ``error``.
Exit code 0 on ok, 2 on any other status: a domain error's code,
InvalidArgument, OSError (a file that cannot be written; ``results`` is null)
or UsageError (argparse rejected the flags; the record's other fields are null).

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
from typing import Any, NoReturn, Optional, Sequence

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
    "--csv", "--svg", "--directrices", "--coeffs",
}


def _fmt_float(x: float) -> str:
    return format(float(x) + 0.0, ".17g")  # + 0.0 folds -0.0 into 0.0


def _emit(obj: Any) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-digit reals, NaN/inf as
    null, a complex number as [re, im], a tuple or list as an array, and a
    value record as an object of its fields in declaration order."""
    # the kinds records hold most come first; a bool is tested before int,
    # its base class
    if isinstance(obj, float):
        return _fmt_float(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([_emit(v) for v in obj]) + "]"
    if isinstance(obj, complex):
        return f"[{_emit(obj.real)}, {_emit(obj.imag)}]"
    if isinstance(obj, dict):
        return "{" + ", ".join([f"{json.dumps(str(k))}: {_emit(v)}" for k, v in obj.items()]) + "}"
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
    fields = getattr(obj, "_fields", None)  # a numeric._Record, read without importing numeric
    if fields is not None:
        return _emit({name: getattr(obj, name) for name in fields})
    raise TypeError(f"cannot serialize {type(obj)!r}")


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


class _UsageError(Exception):
    """A flag argparse rejects; main turns it into a UsageError record."""


class _Parser(argparse.ArgumentParser):
    # subparsers inherit the class, so every level raises instead of exiting
    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="catoptrix",
        description="Reflection points on the unit-circle mirror, the "
        "triangular ratio metric, and the directrix-envelope limacon.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("interior", help="reflection point and metric for two points in the disk")
    p_int.add_argument("--z1", type=_parse_point, required=True, metavar="RE,IM")
    p_int.add_argument("--z2", type=_parse_point, required=True, metavar="RE,IM")
    p_int.add_argument("--svg", metavar="PATH", default=None)
    p_int.set_defaults(run=_run_interior)

    p_inf = sub.add_parser("infinity", help="reflection point for a plane wave from the +x side")
    p_inf.add_argument("--r", type=float, required=True)
    p_inf.add_argument("--theta", type=float, required=True, help="observer angle (radians)")
    p_inf.add_argument("--degrees", action="store_true", help="interpret angles in degrees")
    p_inf.add_argument("--verify", action="store_true", help="add image-quartic invariants, Moebius images")
    p_inf.add_argument("--svg", metavar="PATH", default=None)
    p_inf.set_defaults(run=_run_infinity)

    p_env = sub.add_parser("envelope", help="sample the directrix-envelope limacon")
    p_env.add_argument("--a", type=float, required=True)
    p_env.add_argument("--samples", type=int, default=720)
    p_env.add_argument("--csv", metavar="PATH", default=None)
    p_env.add_argument("--svg", metavar="PATH", default=None)
    p_env.add_argument("--directrices", type=int, default=None, help="directrix lines to overlay in the SVG")
    p_env.set_defaults(run=_run_envelope)

    p_dir = sub.add_parser("directrix", help="directrix of the tangential parabola at w = e^{i*phi}")
    p_dir.add_argument("--a", type=float, required=True)
    p_dir.add_argument("--phi", type=float, required=True)
    p_dir.add_argument("--degrees", action="store_true", help="interpret angles in degrees")
    p_dir.set_defaults(run=_run_directrix)

    p_or = sub.add_parser("oracle", help="brute-force cross-checks")
    or_sub = p_or.add_subparsers(dest="oracle_command", required=True)

    o_sm = or_sub.add_parser("smetric", help="grid maximization of the metric ratio")
    o_sm.add_argument("--z1", type=_parse_point, required=True, metavar="RE,IM")
    o_sm.add_argument("--z2", type=_parse_point, required=True, metavar="RE,IM")
    o_sm.set_defaults(command="oracle-smetric", run=_run_oracle_smetric)

    o_in = or_sub.add_parser("infinity", help="grid minimization of the plane-wave path")
    o_in.add_argument("--r", type=float, required=True)
    o_in.add_argument("--theta", type=float, required=True)
    o_in.add_argument("--degrees", action="store_true")
    o_in.set_defaults(command="oracle-infinity", run=_run_oracle_infinity)

    o_di = or_sub.add_parser("discriminant", help="Sylvester-resultant quartic discriminant")
    group = o_di.add_argument_group("coefficients")
    group.add_argument("--coeffs", type=_parse_coeffs, default=None, metavar="A,B,C,D,E")
    group.add_argument("--r", type=float, default=None, help="build the image-quartic coefficients from r, theta")
    group.add_argument("--theta", type=float, default=None)
    o_di.add_argument("--degrees", action="store_true")
    o_di.set_defaults(command="oracle-discriminant", run=_run_oracle_discriminant)

    return parser


_Run = tuple[dict[str, Any], dict[str, Any], dict[str, str]]  # results, diagnostics, file texts


def _run_interior(args: argparse.Namespace) -> _Run:
    from .interior import _ellipse_of, minimizing_root

    result = minimizing_root(args.z1, args.z2)
    ellipse = _ellipse_of(result)
    diagnostics = {
        "candidates": result.candidates.roots,
        "on_circle": result.on_circle_mask,
        "residuals": result.candidates.residuals,
        "reflection_residual": result.reflection_residual,
        "tie_indices": result.tie_indices,
        "degree_dropped": result.degree_dropped,
    }
    files = {}
    if args.svg:
        from .svg import interior_figure

        files["svg"] = interior_figure(args.z1, args.z2, result, ellipse)
    return {"w": result.w, "s": result.s_value, "focal_sum": result.focal_sum, "ellipse": ellipse}, diagnostics, files


def _run_infinity(args: argparse.Namespace) -> _Run:
    from .infinity import ObserverPolar, _image_invariants, infinity_reflection, verify_circle_theorem
    from .quartic import _nature

    obs = ObserverPolar(args.r, args.theta)
    result = infinity_reflection(obs)
    diagnostics: dict[str, Any] = {
        "root_moduli": [abs(w) for w in result.all_roots.roots],
        "residuals": result.all_roots.residuals,
        "verify": None,
    }
    if args.verify:
        # raises on the axis, theta = 0 or |theta| = pi, where the image
        # quartic degenerates
        four_real_distinct = verify_circle_theorem(obs)
        # the invariants of the image quartic divided by r, in the closed
        # form verify_circle_theorem evaluates, keep their digits next to the
        # rim, where the generic ones cancel; they are homogeneous of degrees
        # 6, 2 and 4, so they scale back by r^6, r^2 and r^4 with their signs
        r = obs.r
        delta, p, d = _image_invariants(r, obs.theta)
        nature = _nature(delta, p, d)
        delta, p, d = delta * r * r * r * r * r * r, p * r * r, d * r * r * r * r
        diagnostics["verify"] = {
            "delta": delta,
            "p": p,
            "d": d,
            "classification": nature.value,
            "four_real_distinct": four_real_distinct,
            "mobius_images": result.mobius_images,
        }
    files = {}
    if args.svg:
        from .svg import infinity_figure

        files["svg"] = infinity_figure(obs, result)
    return {
        "w": result.w,
        "phi": result.phi,
        "path_defect": result.path_defect,
        "reality_residual": result.reality_residual,
        "degenerate_axis": result.degenerate_axis,
        "roots": result.all_roots.roots,
        "mobius_images": result.mobius_images,
    }, diagnostics, files


def _envelope_rows(a: float, samples: int) -> list[tuple[float, float, float, float]]:
    from .envelope import envelope_implicit, envelope_param

    rows = []
    for k in range(samples):
        theta = -math.pi + math.tau * (k + 1) / samples
        z = envelope_param(a, theta)
        rows.append((theta, z.real, z.imag, envelope_implicit(a, z)))
    return rows


def _run_envelope(args: argparse.Namespace) -> _Run:
    from .envelope import valid_arc

    k = args.directrices or 0
    if args.samples < 1:
        raise ValueError("samples must be positive")
    if k < 0:
        raise ValueError("directrices must not be negative")
    phi_max = valid_arc(args.a)
    rows = _envelope_rows(args.a, args.samples)
    files = {}
    if args.csv:
        table = ["theta,x,y,implicit_residual", *(",".join(map(_fmt_float, row)) for row in rows)]
        files["csv"] = "\n".join(table) + "\n"
    if args.svg:
        from .envelope import directrix
        from .numeric import unit_from_angle
        from .svg import envelope_figure

        thetas = [-math.pi + math.tau * (j + 1) / 720 for j in range(721)]
        lines = [directrix(args.a, unit_from_angle(-math.pi + math.tau * (j + 1) / k)) for j in range(k)]
        files["svg"] = envelope_figure(args.a, thetas, lines)
    diagnostics = {"max_implicit_residual": max(abs(r[3]) for r in rows)}
    return {"phi_max": phi_max, "samples": rows}, diagnostics, files


def _run_directrix(args: argparse.Namespace) -> _Run:
    from .envelope import directrix, mirror_point, point_line_distance, tangency_point
    from .numeric import unit_from_angle

    w = unit_from_angle(args.phi)
    line = directrix(args.a, w)
    dist = point_line_distance(w, line)
    focus_dist = abs(w - args.a)
    return {
        "w": w,
        "line": line.normalized(),
        "line_real_form": line.real_form(),
        "mirror_point": mirror_point(args.a, w),
        "tangency_point": tangency_point(args.a, w),
        "focus_directrix_distance": dist,
        "tangency_focus_distance": focus_dist,
    }, {"distance_mismatch": abs(dist - focus_dist)}, {}


def _run_oracle_smetric(args: argparse.Namespace) -> _Run:
    from .interior import minimizing_root
    from .oracle import oracle_smetric

    w, s = oracle_smetric(args.z1, args.z2)
    closed = minimizing_root(args.z1, args.z2)
    return {"w": w, "s": s}, {
        "closed_form": {"w": closed.w, "s": closed.s_value},
        "angle_deviation": abs(cmath.phase(w * closed.w.conjugate())),
        "s_deviation": abs(s - closed.s_value),
    }, {}


def _run_oracle_infinity(args: argparse.Namespace) -> _Run:
    from .infinity import ObserverPolar, infinity_reflection
    from .oracle import oracle_infinity_path

    obs = ObserverPolar(args.r, args.theta)
    w, defect = oracle_infinity_path(obs)
    closed = infinity_reflection(obs)
    return {"w": w, "phi": cmath.phase(w), "path_defect": defect}, {
        "closed_form": {"w": closed.w, "phi": closed.phi},
        "angle_deviation": abs(cmath.phase(w * closed.w.conjugate())),
    }, {}


def _run_oracle_discriminant(args: argparse.Namespace) -> _Run:
    from .oracle import oracle_quartic_discriminant
    from .quartic import real_quartic_invariants

    resultant_delta = oracle_quartic_discriminant(*args.coeffs)
    nature = real_quartic_invariants(*args.coeffs)
    return {"resultant_delta": resultant_delta}, {
        "closed_form_delta": nature.delta,
        "p": nature.p,
        "d": nature.d,
        "classification": nature.classification.value,
        "sign_agreement": (resultant_delta > 0) == (nature.delta > 0),
    }, {}


def _prepare(args: argparse.Namespace) -> None:
    """Put the flags in the form runners and echo share: angles in radians,
    the discriminant's coefficients."""
    for key in ("theta", "phi"):
        if getattr(args, "degrees", False) and getattr(args, key, None) is not None:
            setattr(args, key, math.radians(getattr(args, key)))
    if args.command == "oracle-discriminant":
        if args.coeffs is not None and (args.r is not None or args.theta is not None):
            raise ValueError("discriminant takes --coeffs or --r and --theta, not both")
        if args.coeffs is None:
            if args.r is None or args.theta is None:
                raise ValueError("discriminant needs --coeffs or both --r and --theta")
            from .quartic import infinity_real_coeffs

            args.coeffs = infinity_real_coeffs(args.r, args.theta)
        args.r = args.theta = None  # the coefficients stand for r and theta


def _echo_inputs(args: argparse.Namespace) -> dict[str, Any]:
    # the parsed inputs, in the parser's definition order (that of vars(args))
    skip = {"command", "oracle_command", "run", "svg", "csv", "verify", "degrees"}
    return {key: value for key, value in vars(args).items() if key not in skip and value is not None}


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = results = diagnostics = None
    status = "ok"
    try:
        args = _build_parser().parse_args(_join_flag_values(argv))
        _prepare(args)
        results, diagnostics, files = args.run(args)
        # the command's output flags end its diagnostics: the path once written
        diagnostics.update((key, None) for key in ("csv", "svg") if key in vars(args))
        for key, text in files.items():
            with open(getattr(args, key), "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            diagnostics[key] = getattr(args, key)
    except _UsageError as exc:
        status, error = "UsageError", str(exc)
    except CatoptrixError as exc:
        status, error = exc.code, str(exc)
    except ValueError as exc:
        status, error = "InvalidArgument", str(exc)
    except OSError as exc:
        status, error, results = "OSError", str(exc), None
    command = None if args is None else args.command
    record = {
        "command": command,
        "inputs": None if args is None else _echo_inputs(args),
        "results": results,
        "diagnostics": diagnostics,
        "status": status,
    }
    if status != "ok":
        record["error"] = error
        prog = "catoptrix" if command is None else f"catoptrix {command}"
        print(f"{prog}: {status}: {error}", file=sys.stderr)
    print(_emit(record))
    return 0 if status == "ok" else 2


if __name__ == "__main__":
    sys.exit(main())
