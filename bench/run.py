"""catoptrix benchmark: seeded workloads run against the library and the CLI.

    python3 bench/run.py --workload interior --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): ``interior``,
``plane-wave``, ``crosscheck`` and ``cli``. Each is a closed loop with one
caller in one process with one thread; inputs come only from ``--seed``.
A run draws a fixed number of distinct instances from the seed and repeats
them in the timed loop for ``--seconds`` seconds, and until each ran twice
(once in a traced run). It
checks every output outside the timed region, prints a human-readable report
and, as its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. ``attempted`` and ``failed`` count the distinct instances, so
they depend on the seed only and not on how fast the machine is; a repeat
that ends otherwise than the first time makes the run incorrect.

``--trace 0`` reports the end-to-end metrics; ``ok_ratio`` is one minus the
failure ratio (failed over attempted operations). Times are scaled to the
nominal machine speed of ``calibration.py``, chunk by chunk.
``throughput_ops_s`` is the median over eight stretches of the run and
``latency_p50_us`` the median over every operation; ``latency_tail_us`` is
taken over the fastest run of each instance, so that it shows the instances
that are slow to solve and not the moments the machine was busy with
something else. ``correct`` is false on any wrong answer, and on
any typed error in a workload that has none today (every workload but
``interior``). ``--trace 1`` alternates untraced and traced chunks of the
same loop, then runs a probe of the other workloads, and reports the
per-layer metrics (see ``layers.py``), with ``trace.overhead_ratio`` the
traced over the untraced throughput. ``--workload all`` runs every workload
in turn, each in its own process.

The benchmark needs the repository's ``src/catoptrix`` next to this
directory; without it, it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

import calibration

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("interior", "plane-wave", "crosscheck", "cli")
END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_us": "us",
    "latency_tail_us": "us",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 9
# the untraced loop runs each instance at least this often, so that each has
# a fastest run that is not its only one
MIN_LAPS = 2
# groups of consecutive chunks whose median throughput the run reports; the
# shortest run (MIN_LAPS of the 30 cli commands) still gives each group 7
THROUGHPUT_GROUPS = 8
# operations of each other workload the traced run's probe performs: whole
# chunks, so each family is timed at least nine times
PROBE_OPS = {"interior": 7 * 36, "plane-wave": 5 * 51, "crosscheck": 3 * 9, "cli": 2 * 30}
EXAMPLES_PER_REASON = 3


class Tally:
    """Outcomes per family, each distinct instance counted once, and a few
    failing instances per reason."""

    def __init__(self) -> None:
        self.status: dict[int, str] = {}
        self.by_family: dict[str, Counter] = defaultdict(Counter)
        self.reasons: Counter = Counter()
        self.examples: dict[tuple[str, str], list] = defaultdict(list)
        self.wrong = 0

    def add(self, pos: int, inst: tuple, status: str, reason: str, wrong: bool) -> None:
        """Count the operation on the run's pos-th instance, the first time
        only; wrong marks a failure that makes the run incorrect (see
        run_chunk)."""
        if pos in self.status:
            if self.status[pos] != status:
                self.fail(inst, f"{self.status[pos]}_then_{status}", wrong=True)
            return
        self.status[pos] = status
        self.by_family[inst[0]][status] += 1
        if status == "failed":
            self.fail(inst, reason, wrong)

    def fail(self, inst: tuple, reason: str, wrong: bool) -> None:
        key = (inst[0], reason)
        self.reasons[key] += 1
        self.wrong += wrong
        if len(self.examples[key]) < EXAMPLES_PER_REASON:
            self.examples[key].append(inst[1:])

    @property
    def attempted(self) -> int:
        return sum(sum(c.values()) for c in self.by_family.values())

    @property
    def failed(self) -> int:
        return sum(c["failed"] for c in self.by_family.values())

    def report(self, title: str) -> list[str]:
        lines = [f"  {title}: {'family':<24}{'ops':>9}{'ok':>9}{'outcome':>9}{'failed':>9}"]
        for family, c in self.by_family.items():
            lines.append(
                f"  {'':<{len(title) + 2}}{family:<24}{sum(c.values()):>9}"
                f"{c['ok']:>9}{c['outcome']:>9}{c['failed']:>9}"
            )
        for (family, reason), n in self.reasons.items():
            lines.append(f"  failed {n} x {family} {reason}, e.g.")
            lines.extend(f"    {inst!r}" for inst in self.examples[(family, reason)])
        return lines


def run_chunk(wl, chunk, stats, tally, lat, rec=None, op_base=0, pos=0) -> int:
    """Run one chunk of operations back to back, each timed alone, then
    check them outside the timed region; the chunk starts at the run's
    pos-th instance. Appends the latencies (ns) to lat and returns the time
    the chunk took (ns). A failure is wrong if it is an answer that failed a
    check, or a typed error where none is known."""
    from catoptrix.errors import CatoptrixError

    call = wl.call
    results = []
    chunk_start = perf_counter_ns()
    for op, inst in enumerate(chunk, op_base):
        if rec is not None:
            rec.begin_op(op, inst[0])
        t0 = perf_counter_ns()
        try:
            res, exc = call(inst), None
        except CatoptrixError as e:
            res, exc = None, e
        lat.append(perf_counter_ns() - t0)
        results.append((res, exc))
    busy = perf_counter_ns() - chunk_start
    for k, (inst, (res, exc)) in enumerate(zip(chunk, results), pos):
        status, reason = wl.classify(inst, res, exc, stats)
        tally.add(k, inst, status, reason, wrong=status == "failed" and (exc is None or not wl.errors_known))
    return busy


def run_instances(wl, seed) -> list[tuple]:
    """The run's distinct instances: the first wl.ops_per_run of its seed."""
    return list(itertools.islice(wl.instances(seed), wl.ops_per_run))


def run_loop(wl, insts, seconds, stats, tally, every=None, hook=None):
    """Closed loop over insts, chunk by chunk and round and round, for
    `seconds` and until each instance ran MIN_LAPS times; calls hook()
    between chunks once per `every` seconds, from the start. Returns the
    per-operation latencies (ns), the time each chunk took and the
    calibration timed after each chunk."""
    lat = array("q")
    chunk_busy = []
    cal = []
    pos = 0
    start = time.perf_counter()
    next_hook = start
    while time.perf_counter() < start + seconds or len(lat) < MIN_LAPS * len(insts):
        if hook is not None and time.perf_counter() >= next_hook:
            hook()
            next_hook += every
        chunk_busy.append(run_chunk(wl, insts[pos:pos + wl.chunk], stats, tally, lat, pos=pos))
        pos = (pos + wl.chunk) % len(insts)
        cal.append(calibration.calibrate())
    return lat, chunk_busy, cal


def scaled(wl, lat, chunk_busy, cal):
    """The latencies and the time each chunk took, each chunk scaled by its
    calibration factor (see calibration.py). Every chunk holds the same mix
    of instance families."""
    f = calibration.factors(cal)
    n = wl.chunk
    return [x * f[i // n] for i, x in enumerate(lat)], [b * fj for b, fj in zip(chunk_busy, f)]


def throughput(ops_per_chunk: int, busy: list) -> float:
    """Operations per second: the median over THROUGHPUT_GROUPS runs of
    consecutive chunks (the last takes the remainder), so that a burst of
    other work on the machine moves one group and not the figure. Each group
    holds many chunks, so a rare slow instance shows in every group."""
    k = len(busy) // THROUGHPUT_GROUPS
    groups = [busy[g * k:(g + 1) * k] for g in range(THROUGHPUT_GROUPS - 1)]
    groups.append(busy[(THROUGHPUT_GROUPS - 1) * k:])
    return statistics.median(len(g) * ops_per_chunk / (sum(g) / 1e9) for g in groups)


def warm_up(wl, seed) -> None:
    from catoptrix.errors import CatoptrixError

    for inst in itertools.islice(wl.instances(seed), wl.chunk):
        try:
            wl.call(inst)
        except CatoptrixError:
            pass


def fastest(lat, n: int) -> list:
    """The fastest run of each of a run's n instances; operation i of the
    loop ran instance i % n."""
    return [min(lat[i::n]) for i in range(n)]


def tail(lat, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile pct of lat, and the samples beyond it."""
    ordered = sorted(lat)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def import_seconds(module: str, env) -> float:
    """Seconds a fresh interpreter takes to import module."""
    code = f"import time\nt = time.perf_counter()\nimport {module}\nprint(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                         check=True, text=True).stdout
    return float(out)


def interpreter_seconds(env) -> float:
    """Seconds a bare ``python -c pass`` takes."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - t0


def at_nominal_speed(measure) -> float:
    """measure(), in seconds, scaled by the calibrations just before and
    after it (see calibration.py)."""
    before = calibration.calibrate()
    seconds = measure()
    return seconds * calibration.NOMINAL_NS * 2 / (before + calibration.calibrate())


def subsample_check(wl, seed, stats, tally) -> list[str]:
    if wl.subsample is None:
        return []
    lines = []
    for inst, reason in wl.subsample(seed, stats):
        # the timed loop counted this operation ok; it is a wrong answer
        tally.by_family[inst[0]]["ok"] -= 1
        tally.by_family[inst[0]]["failed"] += 1
        tally.fail(inst, reason, wrong=True)
        lines.append(f"  oracle subsample disagrees: {inst!r} {reason}")
    return lines


def run_untraced(name: str, seed: int, seconds: float) -> tuple[dict, Tally, list[str]]:
    import workloads

    wl = workloads.make_workload(name, seed)
    stats = workloads.Stats()
    tally = Tally()
    warm_up(wl, seed)
    # the imports are spread over the run, outside the timed chunks, so that
    # their median sees the same machine as the operations do
    env = workloads.child_env()
    import_setup = lambda: import_seconds(wl.setup_module, env)  # noqa: E731
    setup: list[float] = []
    insts = run_instances(wl, seed)
    lat, chunk_busy, cal = run_loop(wl, insts, seconds, stats, tally, every=seconds / SETUP_REPEATS,
                                    hook=lambda: setup.append(at_nominal_speed(import_setup)))
    while len(setup) < SETUP_REPEATS:
        setup.append(at_nominal_speed(import_setup))
    # for cli the largest child is a command process: an import alone is smaller
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    lines = subsample_check(wl, seed, stats, tally)
    lat_scaled, busy = scaled(wl, lat, chunk_busy, cal)
    tail_ns, beyond = tail(fastest(lat_scaled, len(insts)), wl.tail_pct)
    metrics = {
        "throughput_ops_s": throughput(wl.chunk, busy),
        "latency_p50_us": statistics.median(lat_scaled) / 1e3,
        "latency_tail_us": tail_ns / 1e3,
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    lines.append(
        f"  times scaled to a {calibration.NOMINAL_NS / 1e3:g} us calibration pass; it took"
        f" {statistics.median(cal) / 1e3:.6g} us (median), so unscaled: {throughput(wl.chunk, chunk_busy):.6g} 1/s,"
        f" p50 {statistics.median(lat) / 1e3:.6g} us, tail {tail(fastest(lat, len(insts)), wl.tail_pct)[0] / 1e3:.6g} us"
    )
    lines.append(
        f"  {len(insts)} distinct instances, run {len(lat) / len(insts):.3g} times each; latency_tail_us"
        f" is p{wl.tail_pct:g} of their fastest runs ({beyond} beyond it);"
        f" setup_s is the median of {SETUP_REPEATS} imports of {wl.setup_module}"
    )
    return metrics, tally, lines


def run_traced(name: str, seed: int, seconds: float) -> tuple[dict, Tally, list[str]]:
    import layers
    import workloads
    from spans import Recorder, install

    wl = workloads.make_workload(name, seed, in_process=True)
    stats = workloads.Stats()
    tally = Tally()
    warm_up(wl, seed)
    # untraced and traced chunks alternate over the same instances, so that
    # both see the same machine state
    main = Recorder()
    patches = layers.patches(main)
    insts = run_instances(wl, seed)
    lat = {False: array("q"), True: array("q")}
    busy = {False: 0, True: 0}
    cal = []
    pos = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(lat[True]) < len(insts):
        chunk = insts[pos:pos + wl.chunk]
        for on in (False, True):
            with install(patches if on else []):
                busy[on] += run_chunk(wl, chunk, stats, tally, lat[on],
                                      rec=main if on else None, op_base=len(lat[on]), pos=pos)
        pos = (pos + wl.chunk) % len(insts)
        cal.append(calibration.calibrate())
    overhead = (len(lat[True]) / busy[True]) / (len(lat[False]) / busy[False])
    main_factors = calibration.factors(cal)

    # the probe: the other workloads' operations, each scaled by the
    # calibration timed just before its workload's part
    probe = Recorder()
    probe_tally = Tally()
    probe_factors: list[float] = []
    for other in WORKLOAD_NAMES:
        if other == name:
            continue
        owl = workloads.make_workload(other, seed, in_process=True)
        ops = list(itertools.islice(owl.instances(seed), PROBE_OPS[other]))
        factor = calibration.factors([calibration.calibrate()])[0]
        with install(layers.patches(probe)):
            run_chunk(owl, ops, stats, probe_tally, array("q"), rec=probe, op_base=len(probe_factors))
        probe_factors.extend([factor] * len(ops))
    lines = subsample_check(wl, seed, stats, tally)
    env = workloads.child_env()
    interpreter_ms = statistics.median(
        at_nominal_speed(lambda: interpreter_seconds(env)) for _ in range(SETUP_REPEATS)) * 1e3
    import_ms = statistics.median(
        at_nominal_speed(lambda: import_seconds("catoptrix.cli", env)) for _ in range(SETUP_REPEATS)) * 1e3
    metrics = layers.layer_metrics(
        layers.View(main, lambda op: main_factors[op // wl.chunk]), len(lat[True]),
        layers.View(probe, probe_factors.__getitem__), stats, overhead, interpreter_ms, import_ms,
    )
    lines.append(f"  traced {len(lat[True])} ops, untraced {len(lat[False])}; probe of the other workloads:")
    lines.extend(probe_tally.report("probe"))
    return metrics, tally, lines


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        import layers

        metrics, tally, lines = run_traced(name, seed, seconds)
        units = layers.PER_LAYER
    else:
        metrics, tally, lines = run_untraced(name, seed, seconds)
        units = END_TO_END
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    for line in tally.report("ops") + lines:
        print(line)
    for key, value in metrics.items():
        print(f"  {key:<44} {value:>16.6g} {units[key]}")
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> dict:
    """Every workload, each in its own process; metrics keyed workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "catoptrix" / "__init__.py").is_file():
        print(f"bench: no catoptrix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads: one thread
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
