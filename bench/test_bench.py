"""Tests of the benchmark itself: inputs, metric names, self time, outcomes."""

import dataclasses
import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from catoptrix import interior as interior_module
from catoptrix import minimizing_root
from catoptrix.errors import NoRootOnCircle, ShadowRegion

import calibration
import families
import layers
import run as bench_run
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _take(seed, workload, n):
    return list(itertools.islice(families.round_robin(seed, workload), n))


def test_generator_is_deterministic_per_seed():
    for workload in families.FAMILIES:
        first = _take(7, workload, 60)
        assert first == _take(7, workload, 60)
        assert first != _take(8, workload, 60)


def test_family_stream_does_not_depend_on_other_families():
    stream = families.family_stream(7, "interior", "near_rim")
    alone = list(itertools.islice(stream, 20))
    mixed = [inst for inst in _take(7, "interior", 140) if inst[0] == "near_rim"]
    assert alone == mixed


def test_interior_families_are_in_domain_at_fixed_shares():
    insts = _take(3, "interior", 7 * 2000)
    shares = {family: 0 for family in families.FAMILIES["interior"]}
    for family, z1, z2 in insts:
        shares[family] += 1
        assert abs(z1 - z2) >= 1e-14
        if family == "exterior":
            assert 1.0 < abs(z1) < 5.0 and 1.0 < abs(z2) < 5.0
        else:
            assert abs(z1) < 1.0 and abs(z2) < 1.0
        if family == "near_coincident_origin":
            assert 1e-3 <= abs(z1) < 1e-2
    assert set(shares.values()) == {2000}
    assert any(0j in (z1, z2) for f, z1, z2 in insts if f == "near_origin")


def test_plane_wave_families_cover_the_edges():
    insts = _take(3, "plane-wave", 5 * 40)
    for _, r, theta in insts:
        assert 1.0 < r <= 1e3 and -3.1415926535897932 < theta <= 3.1415926535897932
    thetas = {theta for f, _, theta in insts if f == "axis"}
    assert thetas == {0.0, 3.141592653589793}


def test_metric_names_are_well_formed_and_match_the_declaration():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == bench_run.END_TO_END
    assert declared_layer == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOAD_NAMES)
    names = [*declared_e2e, *declared_layer, *(w["name"] for w in spec["workloads"])]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        spans.Span("root", 0, 100, -1, 0),
        spans.Span("a", 10, 30, 0, 0),
        spans.Span("a.child", 12, 20, 1, 0),
        spans.Span("b", 25, 50, 0, 0),  # overlaps a: the union counts once
        spans.Span("c", 90, 120, 0, 0),  # runs past its parent: clipped
    ]
    assert spans.self_times(tree) == [100 - 40 - 10, 20 - 8, 8, 25, 30]


def test_install_records_nested_spans_and_restores_the_originals():
    original = interior_module.solve_quartic
    rec = spans.Recorder()
    with spans.install(layers.patches(rec)):
        rec.begin_op(0, "uniform")
        interior_module.minimizing_root(0.3 + 0.1j, -0.2 + 0.4j)
    assert interior_module.solve_quartic is original
    by_name = {s.name: s for s in rec.spans}
    root = by_name["interior.minimizing_root"]
    solve = by_name["quartic.solve_quartic"]
    assert root.parent == -1 and rec.spans[solve.parent] is root
    assert rec.counts["numeric.ensure_point"] > 0


def test_outcomes_are_classified():
    stats = workloads.Stats()
    shadow = (ShadowRegion("behind the mirror"), True)
    assert workloads.plane_wave_classify(("near_pi", 2.0, 3.0), shadow, None, stats)[0] == "outcome"
    occluded = ("exterior", 2.0 + 0j, -2.0 + 0j)
    assert workloads.interior_classify(occluded, None, None, stats)[0] == "outcome"
    pair = ("near_coincident_origin", 0.002 + 0.001j, 0.0021 + 0.001j)
    status, reason = workloads.interior_classify(pair, None, NoRootOnCircle("none"), stats)
    assert (status, reason) == ("failed", "NoRootOnCircle")


def test_answers_are_checked():
    stats = workloads.Stats()
    z1, z2 = 0.3 + 0.1j, -0.2 + 0.4j
    res = minimizing_root(z1, z2)
    assert workloads.interior_classify(("uniform", z1, z2), res, None, stats) == ("ok", "")
    off = dataclasses.replace(res, w=res.w * 1.01)
    assert workloads.interior_classify(("uniform", z1, z2), off, None, stats) == ("failed", "w_off_circle")
    bad_s = dataclasses.replace(res, s_value=1.0)
    assert workloads.interior_classify(("uniform", z1, z2), bad_s, None, stats)[1] == "s_out_of_range"
    assert workloads.plane_wave_classify(("uniform", 2.0, 3.0), (None, False), None, stats)[0] == "failed"


def test_a_typed_error_is_wrong_only_where_none_is_known():
    def raises(inst):
        raise NoRootOnCircle("none")

    pair = ("uniform", 0.3 + 0.1j, -0.2 + 0.4j)
    for known in (False, True):
        wl = workloads.Workload(1, 1, 50.0, "catoptrix", None, raises, workloads.interior_classify,
                                errors_known=known)
        tally = bench_run.Tally()
        bench_run.run_chunk(wl, [pair], workloads.Stats(), tally, bench_run.array("q"))
        assert (tally.failed, tally.wrong) == (1, int(not known))


def test_a_repeat_counts_once_and_must_end_as_before():
    tally = bench_run.Tally()
    pair = ("uniform", 0.3 + 0.1j, -0.2 + 0.4j)
    for _ in range(3):
        tally.add(0, pair, "ok", "", wrong=False)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 0, 0)
    tally.add(0, pair, "failed", "NoRootOnCircle", wrong=False)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 0, 1)


def test_attempted_depends_on_the_seed_only():
    wl = workloads.make_workload("crosscheck", 5)
    insts = bench_run.run_instances(wl, 5)
    assert len(insts) == wl.ops_per_run and wl.ops_per_run % wl.chunk == 0
    assert insts == bench_run.run_instances(workloads.make_workload("crosscheck", 5), 5)


def test_calibration_factors_use_the_median_of_their_neighbours():
    nominal = calibration.NOMINAL_NS
    cal = [nominal, nominal, 10 * nominal, nominal, 2 * nominal, 2 * nominal, 2 * nominal]
    # the outlier at index 2 moves no factor; the step to twice as slow does
    assert calibration.factors(cal) == [1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5]


def test_golden_cases_come_from_the_cli_tests():
    cases = workloads.golden_cases()
    assert len(cases) == 6
    for name, argv in cases:
        assert (workloads.GOLDEN_DIR / name).is_file() and argv[0] in ("interior", "infinity", "envelope", "directrix")


def test_tail_is_nearest_rank():
    assert bench_run.tail(list(range(1, 1001)), 99.0) == (990, 10)


def test_throughput_is_the_median_group():
    busy = [1e9] * 16
    busy[3] = 9e9  # a burst of other work moves one group only
    assert bench_run.throughput(10, busy) == 10.0


def test_fastest_takes_each_instance_over_its_repeats():
    assert bench_run.fastest([5, 9, 1, 4, 2, 7, 3], 3) == [3, 2, 1]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "interior",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
