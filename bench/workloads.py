"""The four benchmark workloads: their operations, output checks and outcomes.

Each operation takes one generated instance and returns what the library
returned; a typed ``CatoptrixError`` is caught by the caller. ``classify``
turns (instance, result, error) into one of three outcomes:

- ``ok``: an answer that passed every output check;
- ``outcome``: a documented non-answer (``ShadowRegion`` for a plane-wave
  observer behind the mirror, ``None`` from an occluded
  ``exterior_reflection``);
- ``failed``: a typed error on an in-domain input that has an answer, or an
  answer that failed a check (a wrong answer).

Library calls go through module attributes (``interior.minimizing_root``)
so the traced run's wrappers, installed on those attributes, see them.
"""

from __future__ import annotations

import ast
import cmath
import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

import catoptrix.cli as cli
from catoptrix import DEFAULT_TOLERANCES, infinity, interior, oracle, quartic
from catoptrix.errors import CatoptrixError, ShadowRegion

import families

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"

UNIT_TOL = DEFAULT_TOLERANCES.unit_circle_tol
AGREE_TOL = DEFAULT_TOLERANCES.oracle_agreement_tol
# the bound the acceptance suite pins on both reflection-law residuals
RESIDUAL_BOUND = 1e-9
# rounding slack for focal_sum >= |z1 - z2|, in units of the focal sum
TRIANGLE_SLACK = 4 * sys.float_info.epsilon
PHI_SLACK = 1e-9


def golden_cases() -> list[tuple[str, list[str]]]:
    """The (golden file, argv) pairs of ``tests/test_cli.py``, read from that
    file so the two lists cannot drift apart; their stdout must equal
    ``tests/golden`` byte for byte."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "GOLDEN_CASES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("tests/test_cli.py defines no GOLDEN_CASES")


# seeded argv sets per cli command kind; each is run again and again
CLI_POOL = 3


def child_env() -> dict[str, str]:
    """Environment of every child interpreter: the checkout's sources and
    one thread per numeric library."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Stats:
    """Deviations and sizes the checks see, for the per-layer metrics."""

    max_s_deviation: float = 0.0
    max_angle_deviation: float = 0.0
    stdout_bytes: list[int] = field(default_factory=list)


def angle_distance(w1: complex, w2: complex) -> float:
    return abs(cmath.phase(w1 * w2.conjugate()))


# --- interior ---------------------------------------------------------------


def interior_call(inst: tuple) -> Any:
    family, z1, z2 = inst
    if family == "exterior":
        return interior.exterior_reflection(z1, z2)
    return interior.minimizing_root(z1, z2)


def reflection_checks(z1: complex, z2: complex, res: Any) -> Optional[str]:
    """First failed check on a ReflectionResult, or None."""
    if not abs(abs(res.w) - 1.0) <= UNIT_TOL:
        return "w_off_circle"
    if not res.reflection_residual <= RESIDUAL_BOUND:
        return "reflection_residual"
    if not 0.0 <= res.s_value < 1.0:
        return "s_out_of_range"
    if not res.focal_sum >= abs(z1 - z2) - TRIANGLE_SLACK * res.focal_sum:
        return "focal_sum_below_distance"
    return None


def interior_classify(inst: tuple, res: Any, exc: Optional[BaseException], stats: Stats) -> tuple[str, str]:
    family, z1, z2 = inst
    if exc is not None:
        return "failed", type(exc).__name__
    if res is None and family == "exterior":
        return "outcome", "occluded"
    bad = reflection_checks(z1, z2, res)
    return ("failed", bad) if bad else ("ok", "")


def interior_subsample(seed: int, stats: Stats, k: int = 4) -> list[tuple[tuple, str]]:
    """Compare the first k uniform-family pairs of the run with the grid
    oracle. The other families are left out on purpose: the oracle's grid
    cannot resolve a focal-sum minimum narrower than its spacing (near-rim
    pairs) and picks either side of a tie (symmetric pairs)."""
    bad = []
    stream = families.family_stream(seed, "interior", "uniform")
    for _ in range(k):
        inst = next(stream)
        _, z1, z2 = inst
        try:
            res = interior.minimizing_root(z1, z2)
        except CatoptrixError:
            continue  # counted as a failure by the timed loop already
        _, s = oracle.oracle_smetric(z1, z2)
        dev = abs(s - res.s_value)
        stats.max_s_deviation = max(stats.max_s_deviation, dev)
        if not dev <= AGREE_TOL:
            bad.append((inst, f"oracle_s_deviation={dev:.3e}"))
    return bad


# --- plane-wave -------------------------------------------------------------


def _on_axis(obs: Any) -> bool:
    # verify_circle_theorem raises by design at theta = 0 (mod pi)
    return obs.theta == 0.0 or abs(obs.theta) == math.pi


def plane_wave_call(inst: tuple) -> Any:
    _, r, theta = inst
    obs = infinity.ObserverPolar(r, theta)
    try:
        res: Any = infinity.infinity_reflection(obs)
    except ShadowRegion as shadow:
        res = shadow
    verified = None if _on_axis(obs) else infinity.verify_circle_theorem(obs)
    return res, verified


def plane_wave_classify(inst: tuple, out: Any, exc: Optional[BaseException], stats: Stats) -> tuple[str, str]:
    _, r, theta = inst
    if exc is not None:
        return "failed", type(exc).__name__
    res, verified = out
    if verified is False:
        return "failed", "circle_theorem_false"
    if isinstance(res, ShadowRegion):
        return "outcome", "shadow"
    if not abs(abs(res.w) - 1.0) <= UNIT_TOL:
        return "failed", "w_off_circle"
    if not res.reality_residual <= RESIDUAL_BOUND:
        return "failed", "reality_residual"
    if abs(theta) <= math.pi / 2.0:
        phi = math.copysign(1.0, theta) * res.phi
        if not -PHI_SLACK <= phi <= math.pi / 2.0 + PHI_SLACK:
            return "failed", "phi_out_of_range"
    return "ok", ""


def plane_wave_subsample(seed: int, stats: Stats, k: int = 3) -> list[tuple[tuple, str]]:
    """Compare the first k lit-side observers of the run (|theta| <= pi/2,
    the oracle's domain) with the grid oracle's path minimizer."""
    bad = []
    stream = families.round_robin(seed, "plane-wave")
    done = 0
    while done < k:
        inst = next(stream)
        _, r, theta = inst
        if abs(theta) > math.pi / 2.0:
            continue
        obs = infinity.ObserverPolar(r, theta)
        try:
            res = infinity.infinity_reflection(obs)
        except CatoptrixError:
            continue  # counted as a failure by the timed loop already
        w, _ = oracle.oracle_infinity_path(obs)
        dev = angle_distance(w, res.w)
        stats.max_angle_deviation = max(stats.max_angle_deviation, dev)
        if not dev <= AGREE_TOL:
            bad.append((inst, f"oracle_angle_deviation={dev:.3e}"))
        done += 1
    return bad


# --- crosscheck -------------------------------------------------------------


def crosscheck_call(inst: tuple) -> Any:
    family = inst[0]
    if family == "smetric":
        _, z1, z2 = inst
        return oracle.oracle_smetric(z1, z2), interior.minimizing_root(z1, z2)
    _, r, theta = inst
    if family == "infinity_path":
        obs = infinity.ObserverPolar(r, theta)
        return oracle.oracle_infinity_path(obs), infinity.infinity_reflection(obs)
    coeffs = quartic.infinity_real_coeffs(r, theta)
    return oracle.oracle_quartic_discriminant(*coeffs), quartic.real_quartic_invariants(*coeffs)


def crosscheck_classify(inst: tuple, out: Any, exc: Optional[BaseException], stats: Stats) -> tuple[str, str]:
    if exc is not None:
        return "failed", type(exc).__name__
    family = inst[0]
    found, closed = out
    if family == "smetric":
        dev = abs(found[1] - closed.s_value)
        stats.max_s_deviation = max(stats.max_s_deviation, dev)
    elif family == "infinity_path":
        dev = angle_distance(found[0], closed.w)
        stats.max_angle_deviation = max(stats.max_angle_deviation, dev)
    else:
        dev = abs(found - closed.delta) / max(1.0, abs(closed.delta))
    if not dev <= AGREE_TOL:
        return "failed", f"{family}_deviation={dev:.3e}"
    return "ok", ""


# --- cli --------------------------------------------------------------------


def cli_instances(seed: int) -> list[tuple[str, list[str]]]:
    """One cycle of the cli workload as (label, argv): the six golden argv
    sets and, per command kind, one of its CLI_POOL seeded argv sets, so
    every argv set repeats once per CLI_POOL golden rounds."""
    golden = golden_cases()
    pools = {
        kind: [next(stream)[1] for _ in range(CLI_POOL)]
        for kind, stream in (
            (kind, families.family_stream(seed, "cli", kind)) for kind in families.FAMILIES["cli"]
        )
    }
    cycle = []
    for j in range(CLI_POOL):
        cycle.extend(("golden", argv) for _, argv in golden)
        cycle.extend((kind, pool[j]) for kind, pool in pools.items())
    return cycle


def cli_in_process(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue().encode("utf-8")


def cli_expected(argvs: list[list[str]]) -> dict[tuple[str, ...], bytes]:
    """Reference stdout per argv: the golden file where there is one, else
    what the in-process ``main`` prints (a subprocess must match it)."""
    expected = {}
    for name, argv in golden_cases():
        expected[tuple(argv)] = (GOLDEN_DIR / name).read_bytes()
    for argv in argvs:
        key = tuple(argv)
        if key not in expected:
            expected[key] = cli_in_process(argv)[1]
    return expected


def cli_subprocess(argv: list[str], env: dict[str, str]) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "catoptrix.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=False,
    )
    return proc.returncode, proc.stdout


def cli_classify_with(expected: dict[tuple[str, ...], bytes]) -> Callable:
    def classify(inst: tuple, out: Any, exc: Optional[BaseException], stats: Stats) -> tuple[str, str]:
        if exc is not None:
            return "failed", type(exc).__name__
        rc, stdout = out
        stats.stdout_bytes.append(len(stdout))
        if rc != 0:
            return "failed", f"exit_code={rc}"
        if stdout != expected[tuple(inst[1])]:
            return "failed", "stdout_mismatch"
        return "ok", ""

    return classify


# --- workload table ---------------------------------------------------------


@dataclass
class Workload:
    """How one workload runs.

    chunk         operations timed back to back before their checks run, a
                  multiple of the number of families, so that every chunk
                  holds the same mix of families
    ops_per_run   distinct instances a run draws from its seed and repeats,
                  a multiple of chunk; enough that the interior failure
                  ratio varies little from seed to seed
    tail_pct      fixed tail percentile of the instances' fastest runs, chosen
                  so that at least ten instances lie beyond it (six of the
                  thirty cli commands)
    setup_module  the package a user of this workload imports
    errors_known  whether typed errors on in-domain inputs occur today; where
                  they do not, one makes the run incorrect
    """

    chunk: int
    ops_per_run: int
    tail_pct: float
    setup_module: str
    instances: Callable[[int], Iterator[tuple]]
    call: Callable[[tuple], Any]
    classify: Callable[..., tuple[str, str]]
    subsample: Optional[Callable[[int, Stats], list]] = None
    errors_known: bool = False


def _cycle(items: list) -> Iterator:
    while True:
        yield from items


def make_workload(name: str, seed: int, in_process: bool = False) -> Workload:
    """The workload called name. in_process runs cli commands through
    ``main`` in this interpreter (the traced run) instead of a child process."""
    if name == "interior":
        return Workload(7 * 36, 7 * 36 * 300, 99.5, "catoptrix",
                        lambda s: families.round_robin(s, name), interior_call,
                        interior_classify, interior_subsample, errors_known=True)
    if name == "plane-wave":
        return Workload(5 * 51, 5 * 51 * 100, 99.5, "catoptrix",
                        lambda s: families.round_robin(s, name), plane_wave_call,
                        plane_wave_classify, plane_wave_subsample)
    if name == "crosscheck":
        return Workload(3, 3 * 40, 90.0, "catoptrix",
                        lambda s: families.round_robin(s, name), crosscheck_call,
                        crosscheck_classify)
    if name == "cli":
        cycle = cli_instances(seed)
        expected = cli_expected([argv for _, argv in cycle])
        if in_process:
            call = lambda inst: cli_in_process(inst[1])  # noqa: E731
            chunk = len(cycle)
        else:
            env = child_env()
            call = lambda inst: cli_subprocess(inst[1], env)  # noqa: E731
            chunk = 1
        return Workload(chunk, len(cycle), 80.0, "catoptrix.cli",
                        lambda s: _cycle(cycle), call,
                        cli_classify_with(expected))
    raise ValueError(f"unknown workload {name!r}")

