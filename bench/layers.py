"""Per-layer metrics of the traced run.

The layers are the library's modules. ``patches`` wraps, for one recorder,
every name through which one module calls another (and the entry points the
benchmark calls); ``layer_metrics`` turns the recorded spans and counters
into the per-layer metrics. ``svg`` is presentation only and no workload
writes a figure; ``errors`` does no work.

Counts and ratios come from the workload's own traced operations. Every
traced run must report every per-layer metric, so a time of a layer the
workload never calls comes from the probe: a few chunks of traced
operations of every other workload, run after the main loop. Times are
scaled to the nominal machine speed, like the end-to-end ones (see
calibration.py).
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Callable, Optional

import catoptrix.cli as cli
from catoptrix import envelope, infinity, interior, numeric, oracle, quartic
from catoptrix.errors import NoConvergence, NoRootOnCircle, ShadowRegion

from spans import Recorder, self_times

# name -> unit, in the order the benchmark reports them
PER_LAYER: dict[str, str] = {
    "numeric.ensure_point.calls_per_op": "calls/op",
    "numeric.on_unit_circle.calls_per_op": "calls/op",
    "quartic.solve_quartic.calls_per_op": "calls/op",
    "quartic.solve_quartic.p50_us": "us",
    "quartic.solve_quartic.self_share": "ratio",
    "quartic.polished_roots.calls_per_op": "calls/op",
    "quartic.polished_roots.p50_us": "us",
    "quartic.polish_iters_per_root": "iters/root",
    "quartic.close_pair_ratio": "ratio",
    "quartic.real_quartic_invariants.p50_us": "us",
    "quartic.no_convergence_count": "count",
    "interior.interior_quartic_coeffs.p50_us": "us",
    "interior.minimizing_root.p50_us": "us",
    "interior.minimizing_root.self_p50_us": "us",
    "interior.exterior_reflection.p50_us": "us",
    "interior.exterior_reflection.self_p50_us": "us",
    "interior.no_root_on_circle_count": "count",
    "interior.on_circle_root_ratio": "ratio",
    "interior.exterior_none_ratio": "ratio",
    "interior.ellipse_params.solves_per_call": "solves/call",
    "infinity.infinity_quartic_coeffs.p50_us": "us",
    "infinity.infinity_reflection.p50_us": "us",
    "infinity.infinity_reflection.self_p50_us": "us",
    "infinity.verify_circle_theorem.p50_us": "us",
    "infinity.solves_per_op": "solves/op",
    "infinity.shadow_ratio": "ratio",
    "infinity.no_root_on_circle_count": "count",
    "infinity.mobius_none_ratio": "ratio",
    "envelope.envelope_param.calls_per_op": "calls/op",
    "envelope.envelope_param.p50_us": "us",
    "envelope.envelope_implicit.p50_us": "us",
    "envelope.directrix.p50_us": "us",
    "oracle.oracle_smetric.p50_ms": "ms",
    "oracle.oracle_infinity_path.p50_ms": "ms",
    "oracle.oracle_quartic_discriminant.p50_us": "us",
    "oracle.self_share": "ratio",
    "oracle.max_s_deviation": "abs",
    "oracle.max_angle_deviation": "rad",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.p50_us": "us",
    "cli.main.self_p50_us": "us",
    "cli.solves_per_interior_cmd": "solves/cmd",
    "cli.stdout_bytes_per_cmd": "bytes/cmd",
    "trace.overhead_ratio": "ratio",
}

SOLVES = ("quartic.solve_quartic", "quartic.polished_roots")
ORACLES = ("oracle.oracle_smetric", "oracle.oracle_infinity_path", "oracle.oracle_quartic_discriminant")


def _rootset_observer(tag: Optional[str]) -> Callable:
    def observe(rec: Recorder, res: object, exc: Optional[BaseException]) -> None:
        if tag is not None:
            rec.counts[tag] += 1
        if isinstance(exc, NoConvergence):
            rec.counts["quartic.no_convergence"] += 1
        if res is not None:
            rec.counts["quartic.rootsets"] += 1
            rec.counts["quartic.roots"] += len(res.roots)
            rec.counts["quartic.polish_iters"] += sum(res.polish_iterations)
            rec.counts["quartic.close_pairs"] += res.has_close_pair
    return observe


def _reflection_observer(rec: Recorder, res: object, exc: Optional[BaseException]) -> None:
    if isinstance(exc, NoRootOnCircle):
        rec.counts["interior.no_root_on_circle"] += 1


def _exterior_observer(rec: Recorder, res: object, exc: Optional[BaseException]) -> None:
    _reflection_observer(rec, res, exc)
    if exc is None and res is None:
        rec.counts["interior.exterior_none"] += 1


def _infinity_observer(rec: Recorder, res: object, exc: Optional[BaseException]) -> None:
    if isinstance(exc, ShadowRegion):
        rec.counts["infinity.shadow"] += 1
    elif isinstance(exc, NoRootOnCircle):
        rec.counts["infinity.no_root_on_circle"] += 1
    elif exc is None:
        rec.counts["infinity.answered"] += 1
        rec.counts["infinity.mobius_none"] += res.mobius_images is None


def patches(rec: Recorder) -> list[tuple[str, str, Callable]]:
    """(module, attribute, wrapper) for every traced name."""
    out: list[tuple[str, str, Callable]] = []

    def put(wrapper: Callable, attr: str, *modules: object) -> None:
        out.extend((m.__name__, attr, wrapper) for m in modules)

    def span(module: object, attr: str, *modules: object, observe: Optional[Callable] = None) -> None:
        layer = module.__name__.rsplit(".", 1)[-1]
        put(rec.span(f"{layer}.{attr}", getattr(module, attr), observe), attr, *modules)

    put(rec.counter("numeric.ensure_point", numeric.ensure_point),
        "ensure_point", numeric, quartic, interior, envelope, oracle)
    put(rec.counter("on_unit_circle@interior", numeric.on_unit_circle, count_true=True),
        "on_unit_circle", interior)
    put(rec.counter("on_unit_circle@infinity", numeric.on_unit_circle), "on_unit_circle", infinity)

    put(rec.span("quartic.solve_quartic", quartic.solve_quartic, _rootset_observer(None)),
        "solve_quartic", interior)
    put(rec.span("quartic.solve_quartic", quartic.solve_quartic, _rootset_observer("infinity.solves")),
        "solve_quartic", infinity)
    span(quartic, "polished_roots", interior, observe=_rootset_observer(None))
    span(quartic, "real_quartic_invariants", quartic, infinity, cli)

    span(interior, "interior_quartic_coeffs", interior)
    span(interior, "minimizing_root", interior, cli, observe=_reflection_observer)
    span(interior, "exterior_reflection", interior, observe=_exterior_observer)
    span(interior, "ellipse_params", interior, cli)

    span(infinity, "infinity_quartic_coeffs", infinity)
    span(infinity, "infinity_reflection", infinity, cli, observe=_infinity_observer)
    span(infinity, "verify_circle_theorem", infinity)

    for attr in ("envelope_param", "envelope_implicit", "directrix"):
        span(envelope, attr, envelope, cli)
    for attr in ("oracle_smetric", "oracle_infinity_path", "oracle_quartic_discriminant"):
        span(oracle, attr, oracle, cli)
    span(cli, "main", cli)
    return out


class View:
    """Durations and self times by span name, for one recorder, each scaled
    by factor(op) of the operation it belongs to."""

    def __init__(self, rec: Recorder, factor: Callable[[int], float]) -> None:
        self.rec = rec
        self.spans = rec.spans
        selfs = self_times(self.spans)
        self.dur: dict[str, list[float]] = defaultdict(list)
        self.self: dict[str, list[float]] = defaultdict(list)
        self.self_total: dict[str, float] = defaultdict(float)
        self.root_total = 0.0
        for s, own in zip(self.spans, selfs):
            f = factor(s.op)
            self.dur[s.name].append((s.end - s.start) * f)
            self.self[s.name].append(own * f)
            self.self_total[s.name] += own * f
            if s.parent < 0:
                self.root_total += (s.end - s.start) * f

    def under(self, names: tuple[str, ...], ancestor: str) -> int:
        """Spans named in names that have a span called ancestor above them."""
        n = 0
        for s in self.spans:
            if s.name not in names:
                continue
            p = s.parent
            while p >= 0 and self.spans[p].name != ancestor:
                p = self.spans[p].parent
            n += p >= 0
        return n


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    m: View,
    main_ops: int,
    p: View,
    stats: object,
    overhead_ratio: float,
    interpreter_ms: float,
    import_ms: float,
) -> dict[str, float]:
    """The per-layer metrics from the workload's own traced operations (m)
    and the probe (p)."""

    def timed(name: str) -> View:
        return m if m.dur.get(name) else p

    def p50(name: str, unit_ns: float, own: bool = False) -> float:
        v = timed(name)
        return statistics.median((v.self if own else v.dur)[name]) / unit_ns

    def per_op(name: str) -> float:
        return _ratio(len(m.dur.get(name, ())), main_ops)

    c = m.rec.counts
    us, ms = 1e3, 1e6
    cli_view = timed("cli.main")
    interior_cmds = [op for op, label in cli_view.rec.labels.items() if label == "interior"]
    interior_ops = set(interior_cmds)
    cli_solves = sum(1 for s in cli_view.spans if s.name in SOLVES and s.op in interior_ops)
    ellipse_view = timed("interior.ellipse_params")
    exterior_calls = len(m.dur.get("interior.exterior_reflection", ()))
    infinity_calls = len(m.dur.get("infinity.infinity_reflection", ()))

    out = {
        "numeric.ensure_point.calls_per_op": _ratio(c["numeric.ensure_point"], main_ops),
        "numeric.on_unit_circle.calls_per_op": _ratio(
            c["on_unit_circle@interior"] + c["on_unit_circle@infinity"], main_ops),
        "quartic.solve_quartic.calls_per_op": per_op("quartic.solve_quartic"),
        "quartic.solve_quartic.p50_us": p50("quartic.solve_quartic", us),
        "quartic.solve_quartic.self_share": _ratio(m.self_total["quartic.solve_quartic"], m.root_total),
        "quartic.polished_roots.calls_per_op": per_op("quartic.polished_roots"),
        "quartic.polished_roots.p50_us": p50("quartic.polished_roots", us),
        "quartic.polish_iters_per_root": _ratio(c["quartic.polish_iters"], c["quartic.roots"]),
        "quartic.close_pair_ratio": _ratio(c["quartic.close_pairs"], c["quartic.rootsets"]),
        "quartic.real_quartic_invariants.p50_us": p50("quartic.real_quartic_invariants", us),
        "quartic.no_convergence_count": c["quartic.no_convergence"],
        "interior.interior_quartic_coeffs.p50_us": p50("interior.interior_quartic_coeffs", us),
        "interior.minimizing_root.p50_us": p50("interior.minimizing_root", us),
        "interior.minimizing_root.self_p50_us": p50("interior.minimizing_root", us, own=True),
        "interior.exterior_reflection.p50_us": p50("interior.exterior_reflection", us),
        "interior.exterior_reflection.self_p50_us": p50("interior.exterior_reflection", us, own=True),
        "interior.no_root_on_circle_count": c["interior.no_root_on_circle"],
        "interior.on_circle_root_ratio": _ratio(c["on_unit_circle@interior.true"], c["on_unit_circle@interior"]),
        "interior.exterior_none_ratio": _ratio(c["interior.exterior_none"], exterior_calls),
        "interior.ellipse_params.solves_per_call": _ratio(
            ellipse_view.under(SOLVES, "interior.ellipse_params"),
            len(ellipse_view.dur["interior.ellipse_params"])),
        "infinity.infinity_quartic_coeffs.p50_us": p50("infinity.infinity_quartic_coeffs", us),
        "infinity.infinity_reflection.p50_us": p50("infinity.infinity_reflection", us),
        "infinity.infinity_reflection.self_p50_us": p50("infinity.infinity_reflection", us, own=True),
        "infinity.verify_circle_theorem.p50_us": p50("infinity.verify_circle_theorem", us),
        "infinity.solves_per_op": _ratio(c["infinity.solves"], main_ops),
        "infinity.shadow_ratio": _ratio(c["infinity.shadow"], infinity_calls),
        "infinity.no_root_on_circle_count": c["infinity.no_root_on_circle"],
        "infinity.mobius_none_ratio": _ratio(c["infinity.mobius_none"], c["infinity.answered"]),
        "envelope.envelope_param.calls_per_op": per_op("envelope.envelope_param"),
        "envelope.envelope_param.p50_us": p50("envelope.envelope_param", us),
        "envelope.envelope_implicit.p50_us": p50("envelope.envelope_implicit", us),
        "envelope.directrix.p50_us": p50("envelope.directrix", us),
        "oracle.oracle_smetric.p50_ms": p50("oracle.oracle_smetric", ms),
        "oracle.oracle_infinity_path.p50_ms": p50("oracle.oracle_infinity_path", ms),
        "oracle.oracle_quartic_discriminant.p50_us": p50("oracle.oracle_quartic_discriminant", us),
        "oracle.self_share": _ratio(sum(m.self_total[n] for n in ORACLES), m.root_total),
        "oracle.max_s_deviation": stats.max_s_deviation,
        "oracle.max_angle_deviation": stats.max_angle_deviation,
        "cli.interpreter_ms": interpreter_ms,
        "cli.import_ms": import_ms,
        "cli.main.p50_us": p50("cli.main", us),
        "cli.main.self_p50_us": p50("cli.main", us, own=True),
        "cli.solves_per_interior_cmd": _ratio(cli_solves, len(interior_cmds)),
        "cli.stdout_bytes_per_cmd": statistics.fmean(stats.stdout_bytes) if stats.stdout_bytes else 0.0,
        "trace.overhead_ratio": overhead_ratio,
    }
    assert list(out) == list(PER_LAYER)
    return out
