"""Tests of the benchmark's arithmetic, tracer, input generation and checks."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from bench import calibrate, checks, stats, tracing, workloads
from bench.run import WORKLOAD_NAMES, Runner, layer_metrics
from borninfeld import cli, field


# -- order statistics -------------------------------------------------------


def test_median_odd_and_even():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert stats.median([7.0]) == 7.0


def test_percentile_matches_numpy_linear_rule():
    rng = np.random.default_rng(5)
    sample = list(rng.exponential(size=37))
    for q in (0.0, 0.1, 0.5, 0.9, 1.0):
        assert stats.percentile(sample, q) == pytest.approx(np.percentile(sample, 100 * q))
    assert stats.percentile(range(11), 0.9) == 9.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 1.5)


def test_samples_beyond_percentile():
    assert stats.samples_beyond(100, 0.9) == 10
    assert stats.samples_beyond(99, 0.9) == 10
    assert stats.samples_beyond(90, 0.9) == 9
    assert stats.samples_beyond(19, 0.5) == 9
    assert stats.samples_beyond(0, 0.5) == 0


def test_failed_frac_base():
    assert stats.failed_frac(0, 10) == 0.0
    assert stats.failed_frac(1, 4) == 0.25
    with pytest.raises(ValueError):
        stats.failed_frac(0, 0)
    with pytest.raises(ValueError):
        stats.failed_frac(5, 4)


# -- machine-speed reference -----------------------------------------------


def test_reference_time_is_the_median_of_the_samples_near_a_call():
    track = calibrate.SpeedTrack()
    with pytest.raises(ValueError):
        track.local(0.0, 1.0)
    for at, seconds in [(0.0, 1.0), (1.0, 3.0), (1.5, 2.0), (10.0, 9.0)]:
        track.add(at, seconds)
    assert calibrate.WINDOW_S == 2.0
    assert track.local(2.0, 3.0) == 2.0  # samples at 0, 1 and 1.5 lie within 2 s
    assert track.local(1.5, 8.5) == 2.5  # all four
    with pytest.raises(ValueError):
        track.local(6.0, 6.5)  # none within 2 s
    assert track.last_time() == 10.0


def test_reference_unit_is_timed():
    assert 0.0 < calibrate.reference_unit() < 10.0


# -- spans and self time ----------------------------------------------------


def test_self_time_with_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    names = ["root", "a", "b", "c"]
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    agg = tracing.aggregate(names, parents, starts, ends)
    assert agg["root"]["self_s"] == pytest.approx(3.0)
    assert agg["a"]["self_s"] == pytest.approx(3.0)
    assert agg["b"]["self_s"] == pytest.approx(3.0)
    assert agg["c"]["self_s"] == pytest.approx(1.0)
    assert agg["b"]["total_s"] == pytest.approx(4.0)
    assert sum(e["self_s"] for e in agg.values()) == pytest.approx(10.0)


def test_self_time_sums_over_repeated_names():
    agg = tracing.aggregate(["f", "g", "g"], [-1, 0, 0], [0.0, 1.0, 2.0], [5.0, 1.5, 3.0])
    assert agg["g"]["calls"] == 2
    assert agg["g"]["self_s"] == pytest.approx(1.5)
    assert agg["f"]["self_s"] == pytest.approx(3.5)


def test_tracer_wraps_cross_module_references_and_restores(tmp_path):
    originals = (cli.main, field.discrete_energy_gradient, cli.refined_constant_ctilde)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main is not originals[0]
        # bound by ``from .quad import refined_constant_ctilde`` in cli
        assert cli.refined_constant_ctilde is not originals[2]
        assert cli.main(["constants", "--dim", "3", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert (cli.main, field.discrete_energy_gradient, cli.refined_constant_ctilde) == originals
    agg = tracer.aggregate()
    assert agg["cli.main"]["calls"] == 1
    assert agg["cli.cmd_constants"]["calls"] == 1
    assert agg["quad.refined_constant_ctilde"]["calls"] == 1
    assert agg["quad.adaptive_gauss_kronrod"]["calls"] >= 1
    assert "field.discrete_energy_gradient" not in agg
    self_sum = sum(e["self_s"] for e in agg.values())
    assert self_sum == pytest.approx(agg["cli.main"]["total_s"], rel=1e-9)


def test_layer_metrics_ratios_and_empty_layers():
    agg = {
        "field.discrete_energy_gradient": {"calls": 10, "total_s": 2.0, "self_s": 2.0},
        "field.minimize_energy": {"calls": 1, "total_s": 3.0, "self_s": 1.0},
    }
    m = layer_metrics(agg, {"iterations": 5, "grad_nodes": 1000}, 0, 0.5)
    assert m["field.grad_calls_per_iter"]["value"] == 2.0
    assert m["field.grad_us_per_node"]["value"] == pytest.approx(2000.0)
    assert m["radial.flux_gradient_magnitude.calls"]["value"] == 0
    empty = layer_metrics({}, {}, 0, 0.0)
    assert empty["field.grad_calls_per_iter"]["value"] == 0.0
    assert isinstance(empty["conditions.self_s"]["value"], float)


# -- generated inputs -------------------------------------------------------


def test_command_line_offers_every_workload():
    assert WORKLOAD_NAMES == workloads.WORKLOADS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_seed_generates_identical_inputs(name, tmp_path):
    a, b = workloads.generate(name, 7), workloads.generate(name, 7)
    workloads.materialize(b.ops, tmp_path)  # where the files go is not an input
    assert a.input_hash() == b.input_hash()
    assert [op.config for op in a.ops] == [op.config for op in b.ops]
    if name != "solve-fine":  # one fixed config, independent of the seed
        assert workloads.generate(name, 8).input_hash() != a.input_hash()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generated_configs_pass_load_config_and_assembly_guards(name, tmp_path):
    workload = workloads.generate(name, 3)
    workloads.materialize(workload.ops, tmp_path)
    for op in workload.ops:
        if op.config is None:
            continue
        cfg = cli.load_config(op.config_path, need_box=op.kind == "solve")
        if op.kind == "solve":
            box = cfg["box"]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                field.assemble_problem(cfg["config"], box["lo"], box["hi"], box["h"],
                                       cfg["order_m"], cfg["boundary_rule"])


def test_solve_stream_is_stratified():
    ops = workloads.generate("solve-batch", 1).ops
    stress = [abs(op.config["charges"][0]["a"]) for op in ops[:2]]
    assert stress == [20.0, 1.0]
    key = lambda op: (op.config["order_m"], op.config["boundary_rule"],
                      len(op.config["charges"]))
    first = [key(op) for op in ops[2:8]]
    assert {(m, rule) for m, rule, _ in first} == {
        (m, rule) for m in workloads.SOLVE_ORDERS for rule in workloads.BOUNDARY_RULES}
    assert {n for _, _, n in first} == {1, 2, 3}
    # every round repeats the same six problems, as images under symmetries
    assert [key(op) for op in ops[8:14]] == first
    size = lambda op: sorted((sorted(np.abs(q["pos"])), abs(q["a"]))
                             for q in op.config["charges"])
    assert [size(op) for op in ops[8:14]] == [size(op) for op in ops[2:8]]


def test_runs_measure_whole_rounds_after_the_lead():
    w = workloads.generate("solve-batch", 1)
    assert (w.lead, w.round_size, w.trace_ops) == (2, 6, 8)
    rounds = w.rounds()
    first = next(rounds)
    assert first == w.ops[2:8]
    for _ in range((len(w.ops) - 2) // 6 - 1):
        next(rounds)
    assert next(rounds) == first  # the stream cycles
    rc = workloads.generate("radial-cert", 1)
    kinds = [op.kind for op in next(rc.rounds())]
    assert rc.lead == 0
    assert len(kinds) == 24
    assert {k: kinds.count(k) for k in kinds} == {"radial": 8, "check": 8, "constants": 8}


def test_solve_seeds_are_symmetric_images_of_one_problem_set():
    a, b = workloads.generate("solve-batch", 1).ops, workloads.generate("solve-batch", 2).ops
    assert [op.config for op in a] != [op.config for op in b]
    for x, y in zip(a, b):
        cx, cy = x.config, y.config
        assert (cx["order_m"], cx["boundary_rule"]) == (cy["order_m"], cy["boundary_rule"])
        key = lambda c: sorted((sorted(np.abs(q["pos"])), abs(q["a"])) for q in c["charges"])
        assert key(cx) == key(cy)


# -- checks -----------------------------------------------------------------


def test_warmup_calls_pass_their_checks(tmp_path):
    ops = workloads.warmup_ops()
    workloads.materialize(ops, tmp_path)
    runner = Runner(tmp_path)
    assert all(runner.run(op) for op in ops)
    assert (runner.attempted, runner.failed) == (len(ops), 0)


def test_solve_check_catches_a_corrupted_field(tmp_path):
    op = workloads.warmup_ops()[0]
    workloads.materialize([op], tmp_path)
    runner = Runner(tmp_path)
    seconds, out_dir, rc = runner.call(op)
    assert checks.check_solve(op, rc, out_dir) is None
    csv = out_dir / "field.csv"
    lines = csv.read_text().splitlines()
    center = len(lines) // 2
    x, y, z, u = lines[center].split(",")
    lines[center] = ",".join([x, y, z, repr(float(u) + 1e-6)])
    csv.write_text("\n".join(lines) + "\n")
    assert "differs" in checks.check_solve(op, rc, out_dir)
    assert not runner.record(op, seconds, out_dir, rc)
    assert stats.failed_frac(runner.failed, runner.attempted) == 1.0


def test_radial_check_uses_the_asymptotic_prediction(tmp_path):
    op = workloads.warmup_ops()[1]
    runner = Runner(tmp_path)
    seconds, out_dir, rc = runner.call(op)
    assert checks.check_radial(op, rc, out_dir) is None
    wrong = workloads.Op("radial", op.argv, expect={**op.expect, "m": 8})
    assert checks.check_radial(wrong, rc, out_dir) is not None
