"""Closed-loop benchmark of the borninfeld command line.

Usage, from the repository root:

    python3 bench/run.py --workload solve-batch --seed 1 --seconds 40 --trace 0

One caller runs ``borninfeld.cli.main([...])`` in this process, one call at a
time, each call waiting for the previous one, as a user at the CLI does.  The
process is single-threaded: the BLAS and OpenMP thread variables are set to 1
before numpy is imported.  Every output is checked outside the timed region.

``--trace 0`` measures the end-to-end metrics for ``--seconds``.  ``--trace 1``
runs the workload's fixed traced set instead, each call once with and once
without span tracing (stopping early only past twice ``--seconds``), and
reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload listed in
``BENCHMARK.json``, each in a fresh process.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Set-up is timed in fresh processes, half before and half after the
# measured phase, so one slow stretch of the machine does not set the median.
SETUP_PROBES = 6
# The machine-speed reference (bench/calibrate.py) runs between calls once
# REF_EVERY_S has passed since its last run: one unit per REF_EVERY_S passed,
# at most REF_MAX_UNITS, so a long call gets several samples beside it.
REF_EVERY_S = 0.5
REF_MAX_UNITS = 4
# Small calls of every command run untimed for this long before measuring,
# until the interpreter and the allocator have settled.
WARMUP_S = 4.0
# Cache sizes of the machine the committed results in bench/results were
# measured on (lscpu: 2 x 4 MiB L2, one 105 MiB L3).  The benchmark reads
# nothing outside its checkout, so it does not probe the host for them.
REFERENCE_CACHES = {"l2_bytes_per_core": 4 * 2**20, "l3_bytes": 105 * 2**20}
WORKLOAD_NAMES = ("solve-batch", "radial-cert", "solve-fine")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _workdir(args) -> Path:
    return ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"


def _remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        path.parent.rmdir()  # only succeeds once no other run uses it


def _set_up(args, workdir: Path):
    """Import the package and generate the inputs: the work setup_s times."""
    import borninfeld.cli  # noqa: F401  (imports numpy, scipy and every layer)
    from bench import workloads

    workload = workloads.generate(args.workload, args.seed)
    workloads.materialize(workload.ops, workdir)
    return workload


def _setup_probe(args, t0: float) -> int:
    workdir = _workdir(args)
    try:
        _set_up(args, workdir)
        print(repr(time.perf_counter() - t0))
    finally:
        _remove_workdir(workdir)
    return 0


def _setup_seconds(args, count: int) -> list[float]:
    """Set-up time of ``count`` fresh processes, each measured inside."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Runner:
    """Executes and checks operations, keeping every sample and failure."""

    def __init__(self, workdir: Path):
        from bench import checks

        self.checks = checks.CHECKS
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.latency: dict[str, list[float]] = {}

    def call(self, op) -> tuple[float, Path, str | None]:
        """Run one CLI call; returns (seconds, output dir, failure or None)."""
        from borninfeld import cli

        out_dir = self.workdir / f"out-{op.kind}"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = op.command_line() + ["--out", str(out_dir)]
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        except (Exception, SystemExit):
            rc = None
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
        return seconds, out_dir, error if rc is None else rc

    def record(self, op, seconds: float, out_dir: Path, outcome) -> bool:
        """Check one call's outputs and account for it; True when it passed."""
        self.attempted += 1
        if isinstance(outcome, str):
            reason = f"raised: {outcome}"
        else:
            try:
                reason = self.checks[op.kind](op, outcome, out_dir)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output: {exc!r}"
        if reason is not None:
            self.failed += 1
            print(f"FAILED {' '.join(op.command_line())}: {reason}", file=sys.stderr)
            return False
        self.latency.setdefault(op.kind, []).append(seconds)
        return True

    def run(self, op) -> bool:
        seconds, out_dir, outcome = self.call(op)
        return self.record(op, seconds, out_dir, outcome)


def _context(args, workload) -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    array_bytes = workload.grid_nodes * 8
    return {
        "workload": workload.name,
        "seed": args.seed,
        "input_hash": workload.input_hash(),
        "ops_generated": len(workload.ops),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: min(int(os.environ[v]), nproc) for v in THREAD_VARS},
        "reference_caches": REFERENCE_CACHES,
        "grid_nodes": workload.grid_nodes,
        "array_bytes": array_bytes,
        "array_over_l2": array_bytes / REFERENCE_CACHES["l2_bytes_per_core"],
        "array_over_l3": array_bytes / REFERENCE_CACHES["l3_bytes"],
    }


def _metric(name: str, value: float, unit: str, n: int | None = None) -> dict:
    count = "" if n is None else f"  (n={n})"
    print(f"  {name:<42} {value:>16.9g} {unit}{count}")
    return {"value": value, "unit": unit}


def _tail_metric(name: str, samples: list[float], unit: str) -> None:
    """Print the highest of p99, p90 and p75 that has ten samples beyond it."""
    from bench import stats

    tail = [q for q in (99, 90, 75) if stats.samples_beyond(len(samples), q / 100) >= 10]
    if tail:
        _metric(f"{name}_p{tail[0]}", stats.percentile(samples, tail[0] / 100), unit,
                len(samples))


def _measure(args, workload, runner: Runner) -> dict:
    from bench import calibrate, stats

    setup = _setup_seconds(args, SETUP_PROBES // 2)
    track = calibrate.SpeedTrack()
    track.sample(REF_MAX_UNITS)
    timed = []  # (stratum, command, start, seconds) of every passed call

    def run(stratum, op):
        t0 = time.perf_counter()
        seconds, out_dir, outcome = runner.call(op)
        if runner.record(op, seconds, out_dir, outcome):
            timed.append((stratum, op.kind, t0, seconds))
        gap = time.perf_counter() - track.last_time()
        if gap >= REF_EVERY_S:
            track.sample(min(REF_MAX_UNITS, int(gap / REF_EVERY_S)))

    # the lead, then whole rounds, at least one, until --seconds have passed;
    # a call's stratum is its place in the lead or in the round
    start = time.perf_counter()
    for i, op in enumerate(workload.ops[:workload.lead]):
        run(i, op)
    rounds = workload.rounds()
    while True:
        for j, op in enumerate(next(rounds)):
            run(workload.lead + j, op)
        if time.perf_counter() - start >= args.seconds:
            break
    wall = time.perf_counter() - start
    track.sample(REF_MAX_UNITS)
    setup += _setup_seconds(args, SETUP_PROBES - len(setup))
    if not timed:
        raise RuntimeError("no call passed its checks")
    in_ref = [s / track.local(t0, t0 + s) for _, _, t0, s in timed]
    strata_ref, strata_s = {}, {}
    for (stratum, _, _, seconds), x in zip(timed, in_ref):
        strata_ref.setdefault(stratum, []).append(x)
        strata_s.setdefault(stratum, []).append(seconds)
    pass_ref = [stats.median(v) for v in strata_ref.values()]
    pass_s = [stats.median(v) for v in strata_s.values()]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"end-to-end metrics, workload {workload.name}, seed {args.seed}, "
          f"{len(timed)} calls in {len(pass_ref)} strata:")
    metrics = {
        "setup_s": _metric("setup_s", stats.median(setup), "s", len(setup)),
        "call_ref_p50": _metric("call_ref_p50", stats.median(pass_ref), "ref",
                                len(pass_ref)),
        "calls_per_kref": _metric("calls_per_kref", 1000 * len(pass_ref) / sum(pass_ref),
                                  "1/kref", len(pass_ref)),
        "peak_rss_mb": _metric("peak_rss_mb", peak_rss_mb, "MB"),
    }
    print("  samples: " + json.dumps({k: [round(x, 6) for x in v]
                                     for k, v in sorted(runner.latency.items())}))
    print("  samples in ref, by stratum: "
          + json.dumps({k: [round(x, 4) for x in v] for k, v in strata_ref.items()}))
    print("  not gated:")
    _tail_metric("call_ref", in_ref, "ref")
    _metric("ref_unit_s", stats.median(track.seconds), "s", len(track.seconds))
    _metric("call_s_p50", stats.median(pass_s), "s", len(pass_s))
    _metric("calls_per_s", len(pass_s) / sum(pass_s), "1/s", len(pass_s))
    _metric("wall_s", wall, "s")
    _metric(f"failed_frac (base {runner.attempted} attempted)",
            stats.failed_frac(runner.failed, runner.attempted), "1", runner.attempted)
    for kind, samples in sorted(runner.latency.items()):
        _metric(f"{kind}_s_p50", stats.median(samples), "s", len(samples))
        _tail_metric(f"{kind}_s", samples, "s")
        if kind == "solve":
            _metric("solves_per_s", len(samples) / sum(samples), "1/s", len(samples))
    return metrics


def _trace_hooks():
    def grad_nodes(counters, args, result):
        nx, ny, nz = args[0].shape
        counters["grad_nodes"] = counters.get("grad_nodes", 0) + nx * ny * nz

    def iterations(counters, args, result):
        counters["iterations"] = counters.get("iterations", 0) + result.iterations

    return {
        "field.discrete_energy_gradient": grad_nodes,
        "field.minimize_energy": iterations,
    }


def layer_metrics(agg: dict, counters: dict, csv_bytes: int, overhead_s: float) -> dict:
    """Per-layer metrics from span aggregates; see README.md for the map."""

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum((agg.get(n, {}).get("self_s", 0.0) for n in names), 0.0)

    def total_s(*names):
        return sum((agg.get(n, {}).get("total_s", 0.0) for n in names), 0.0)

    def layer_self_s(layer):
        return self_s(*(n for n in agg if n.startswith(layer + ".")))

    grad_calls = calls("field.discrete_energy_gradient")
    grad_self = self_s("field.discrete_energy_gradient")
    iterations = counters.get("iterations", 0)
    nodes = counters.get("grad_nodes", 0)
    values = {
        "cli.self_s": (layer_self_s("cli"), "s"),
        "cli.load_config.self_s": (self_s("cli.load_config"), "s"),
        "cli.csv_bytes": (csv_bytes, "bytes"),
        "field.minimize_energy.self_s": (self_s("field.minimize_energy"), "s"),
        "field.discrete_energy_gradient.calls": (grad_calls, "count"),
        "field.discrete_energy_gradient.self_s": (grad_self, "s"),
        "field.grad_us_per_node": (1e6 * grad_self / nodes if nodes else 0.0, "us"),
        "field.discrete_energy_hessp.calls": (calls("field.discrete_energy_hessp"),
                                              "count"),
        "field.discrete_energy_hessp.self_s": (self_s("field.discrete_energy_hessp"),
                                               "s"),
        "field.iterations": (iterations, "count"),
        "field.grad_calls_per_iter": (grad_calls / iterations if iterations else 0.0,
                                      "calls/iter"),
        "field.assemble_problem.self_s": (self_s("field.assemble_problem"), "s"),
        "field.reports.self_s": (self_s("field.extremum_report", "field.segment_report",
                                        "field.gradient_sup"), "s"),
        "quad.exact_radial_profile.calls": (calls("quad.exact_radial_profile"), "count"),
        "quad.exact_radial_profile.self_s": (self_s("quad.exact_radial_profile"), "s"),
        "quad.adaptive_gauss_kronrod.calls": (calls("quad.adaptive_gauss_kronrod"),
                                              "count"),
        "quad.adaptive_gauss_kronrod.self_s": (self_s("quad.adaptive_gauss_kronrod"),
                                               "s"),
        "quad.constants.total_s": (total_s("quad.shape_constant_A",
                                           "quad.refined_constant_ctilde"), "s"),
        "radial.approx_radial_profile.self_s": (self_s("radial.approx_radial_profile"),
                                                "s"),
        "radial.fit_singularity.self_s": (self_s("radial.fit_singularity"), "s"),
        "radial.flux_gradient_magnitude.calls": (calls("radial.flux_gradient_magnitude"),
                                                 "count"),
        "radial.flux_gradient_magnitude.self_s": (
            self_s("radial.flux_gradient_magnitude"), "s"),
        "conditions.self_s": (layer_self_s("conditions"), "s"),
        "core.taylor_coefficients.calls": (calls("core.taylor_coefficients"), "count"),
        "core.self_s": (layer_self_s("core"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _trace(args, workload, runner: Runner) -> dict:
    from bench import tracing

    tracer = tracing.Tracer(_trace_hooks())
    traced_s = untraced_s = 0.0
    csv_bytes = 0
    pairs = 0
    start = time.perf_counter()
    for i, op in enumerate(workload.ops[: workload.trace_ops]):
        # each call runs twice, so the fixed set gets twice the budget
        if time.perf_counter() - start >= 2 * args.seconds:
            break
        # alternate which run goes first so warm-cache effects cancel
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                seconds, out_dir, outcome = runner.call(op)
            finally:
                tracer.uninstall()
            if traced:
                traced_s += seconds
                csv_bytes += sum(p.stat().st_size for p in out_dir.glob("*.csv"))
            else:
                untraced_s += seconds
            runner.record(op, seconds, out_dir, outcome)
        pairs += 1
    agg = tracer.aggregate()
    overhead = traced_s - untraced_s
    metrics = layer_metrics(agg, tracer.counters, csv_bytes, overhead)
    span_self = sum(entry["self_s"] for entry in agg.values())
    print(f"per-layer metrics, workload {workload.name}, seed {args.seed}, "
          f"{pairs} of {workload.trace_ops} traced calls:")
    for name, m in metrics.items():
        _metric(name, m["value"], m["unit"])
    print(f"  traced wall {traced_s:.6g} s = span self times {span_self:.6g} s "
          f"+ gap {traced_s - span_self:.6g} s; untraced wall {untraced_s:.6g} s")
    return metrics


def _run_workload(args) -> int:
    from bench import calibrate, workloads

    workdir = _workdir(args)
    try:
        workload = _set_up(args, workdir)
        warmup = workloads.warmup_ops()
        workloads.materialize(warmup, workdir / "warmup")
        runner = Runner(workdir)
        warm_start = time.perf_counter()
        while time.perf_counter() - warm_start < WARMUP_S:
            for op in warmup:
                runner.run(op)
            calibrate.reference_unit()
        runner.latency.clear()
        print("context: " + json.dumps(_context(args, workload), sort_keys=True))
        if args.trace:
            metrics = _trace(args, workload, runner)
        else:
            metrics = _measure(args, workload, runner)
    finally:
        _remove_workdir(workdir)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    from bench import workloads

    status = 0
    for name in workloads.DEFAULT_WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    t0 = time.perf_counter()
    args = _parse_args(argv)
    if not (ROOT / "src" / "borninfeld" / "__init__.py").is_file():
        print(f"error: package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # the package and the benchmark are imported as ``borninfeld`` and
    # ``bench.*``; the script's own directory must not shadow other modules
    if sys.path and Path(sys.path[0]).resolve() == ROOT / "bench":
        del sys.path[0]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return _run_all(args)
    if args.setup_probe:
        return _setup_probe(args, t0)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
