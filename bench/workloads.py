"""Seeded generation of the CLI calls each workload makes.

A workload is a stream of operations.  Each operation is one call of
``borninfeld.cli.main`` with the arguments a user would type, plus the run
configuration file it reads, if any.  The stream depends only on the
workload name and the seed; the program sees nothing but the generated
arguments and files.

Cost drivers are stratified, not drawn: the solve stream repeats one round
of six solves, every (order, boundary rule) pair with 1-3 charges, and the
radial/certificate stream cycles through every (order, dimension) pair.
Solve inputs of different seeds are symmetric images of one base set, and
radial/certificate inputs differ only in strengths and positions, whose
effect on cost is small.  That keeps the median of a run a property of the
program rather than of the draw.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from borninfeld.core import min_order_for_guarantee

# Grid of every solve: the box [-4, 4]^3 at spacing 0.25 has 33^3 nodes.
BOX_HALF = 4.0
H_BATCH = 0.25
H_FINE = 0.125
SOLVER_TOL = 1e-9
BASE_SOLVE_SEED = 2024

SOLVE_ORDERS = (2, 8, 16)
BOUNDARY_RULES = ("radial-superposition", "zero")
RADIAL_CASES = tuple((m, n) for n in (3, 4) for m in (2, 4, 8, 16))
CHECK_DIMS = (3, 4, 5)
CONSTANTS_DIMS = (3, 4, 5, 6, 7)

WORKLOADS = ("solve-batch", "radial-cert", "solve-fine")
# Workloads listed in BENCHMARK.json; solve-fine is one 50-70 s solve and
# is run by hand (see README.md).
DEFAULT_WORKLOADS = ("solve-batch", "radial-cert")

_ROUNDS = {"solve-batch": 8, "radial-cert": 32, "solve-fine": 1}


@dataclass
class Op:
    """One CLI call: ``argv`` without ``--out``; ``config`` is written to
    ``config_path`` by ``materialize`` and that path replaces ``{config}``."""

    kind: str
    argv: list[str]
    config: dict | None = None
    config_name: str | None = None
    expect: dict = field(default_factory=dict)
    config_path: Path | None = None

    def command_line(self) -> list[str]:
        return [str(self.config_path) if a == "{config}" else a for a in self.argv]


@dataclass
class Workload:
    """An operation stream: ``lead`` calls that open every run, then rounds of
    ``round_size`` calls, each round covering every stratum once.  A run
    measures the lead and then whole rounds; ``ops[:trace_ops]`` is the
    traced run's fixed set."""

    name: str
    ops: list[Op]
    lead: int
    round_size: int
    grid_nodes: int

    @property
    def trace_ops(self) -> int:
        return self.lead + self.round_size

    def rounds(self):
        """The stream's rounds after the lead, cycling back to the first."""
        body = self.ops[self.lead:]
        count = len(body) // self.round_size
        k = 0
        while True:
            i = (k % count) * self.round_size
            yield body[i:i + self.round_size]
            k += 1

    def input_hash(self) -> str:
        digest = hashlib.sha256()
        for op in self.ops:
            digest.update(
                json.dumps([op.kind, op.argv, op.config], sort_keys=True).encode()
            )
        return digest.hexdigest()[:16]


def materialize(ops: list[Op], workdir: Path) -> None:
    """Write every config file and resolve ``{config}`` in the arguments."""
    cfg_dir = workdir / "inputs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for op in ops:
        if op.config is None:
            continue
        op.config_path = cfg_dir / op.config_name
        op.config_path.write_text(json.dumps(op.config, indent=2) + "\n")


def _solve_op(name: str, charges, m: int, rule: str, h: float) -> Op:
    config = {
        "dim": 3,
        "charges": [{"pos": [float(x) for x in p], "a": float(a)} for p, a in charges],
        "box": {"lo": -BOX_HALF, "hi": BOX_HALF, "h": h},
        "order_m": m,
        "boundary_rule": rule,
        "tolerances": {"solver": SOLVER_TOL},
    }
    return Op("solve", ["solve", "{config}"], config, f"{name}.json", {"tol": SOLVER_TOL})


def sample_cluster(rng, n: int, h: float = H_BATCH) -> list[tuple[float, float, float]]:
    """Random n-charge cluster, node-snapped in [-1.6, 1.6]^3, pairwise
    distance >= 2 + h, clearing the box by at least the closest spacing.

    This is the generator of the acceptance suite's property criterion.
    """
    while True:
        pts: list[np.ndarray] = []
        tries = 0
        while len(pts) < n and tries < 400:
            tries += 1
            p = np.round(rng.uniform(-1.6, 1.6, 3) / h) * h
            if all(np.linalg.norm(p - q) >= 2.0 + h for q in pts):
                pts.append(p)
        if len(pts) < n:
            continue
        if n >= 2:
            spacing = min(
                float(np.linalg.norm(a - b))
                for i, a in enumerate(pts)
                for b in pts[i + 1 :]
            )
            clearance = BOX_HALF - max(float(np.max(np.abs(p))) for p in pts)
            if clearance < spacing:
                continue
        return [tuple(float(x) for x in p) for p in pts]


def _signed(rng, lo: float, hi: float, size=None):
    return rng.uniform(lo, hi, size) * rng.choice([-1.0, 1.0], size)


def _base_solve_batch() -> list[tuple[str, list, int, str]]:
    """The two stress solves and the round of six every seed maps by
    symmetries of the box.

    Drawn once from a fixed generator: the round cycles through m in
    SOLVE_ORDERS x both boundary rules with 1-3 charges (each order gets two
    different counts), and takes one magnitude from each of twelve equal bins
    of [0.3, 1.5].
    """
    rng = np.random.default_rng(BASE_SOLVE_SEED)
    base = [
        ("stress-a20-m16", [((0.0, 0.0, 0.0), 20.0)], 16, "radial-superposition"),
        ("stress-a1-m64", [((0.0, 0.0, 0.0), 1.0)], 64, "radial-superposition"),
    ]
    combos = [(m, rule) for m in SOLVE_ORDERS for rule in BOUNDARY_RULES]
    counts = [1 + j % 3 for j in range(len(combos))]
    k = sum(counts)
    mags = list(rng.permutation(0.3 + 1.2 * (np.arange(k) + rng.uniform(size=k)) / k))
    for j, ((m, rule), n) in enumerate(zip(combos, counts)):
        pts = sample_cluster(rng, n)
        strengths = [mags.pop() * rng.choice([-1.0, 1.0]) for _ in range(n)]
        base.append((f"solve-{j}", list(zip(pts, strengths)), m, rule))
    return base


def _solve_batch(rng) -> tuple[list[Op], int, int]:
    # The seed picks, per solve, one of the 48 symmetries of the cube box and
    # a global sign: the inputs differ between seeds while the discrete
    # problem, and so the work to solve it, stays the same.  Run-to-run
    # spread then measures the program and the machine, not the draw.  Every
    # round repeats the same six problems, so a run's per-stratum medians do
    # not depend on how many rounds it fits.
    base = _base_solve_batch()
    lead, body = base[:2], base[2:]
    stream = lead + [(f"{name}-r{r}", charges, m, rule)
                     for r in range(_ROUNDS["solve-batch"])
                     for name, charges, m, rule in body]
    ops = []
    for name, charges, m, rule in stream:
        perm = rng.permutation(3)
        flips = rng.choice([-1.0, 1.0], 3)
        sign = rng.choice([-1.0, 1.0])
        mapped = [(tuple(float(x) for x in flips * np.asarray(p)[perm]), sign * a)
                  for p, a in charges]
        ops.append(_solve_op(name, mapped, m, rule, H_BATCH))
    return ops, len(lead), len(body)


def _solve_fine(rng) -> tuple[list[Op], int, int]:
    dipole = [((0.0, 0.0, 0.0), 1.0), ((2.0, 0.0, 0.0), -1.0)]
    return [_solve_op("dipole-fine", dipole, 2, "radial-superposition", H_FINE)], 0, 1


def _check_config(rng) -> dict:
    dim = int(rng.choice(CHECK_DIMS))
    n = int(rng.integers(2, 7))
    spread = float(np.exp(rng.uniform(np.log(0.5), np.log(8.0))))
    pos = rng.uniform(-spread, spread, (n, dim))
    strengths = _signed(rng, 0.2, 2.0, n)
    return {
        "dim": dim,
        "charges": [{"pos": [float(x) for x in p], "a": float(a)}
                    for p, a in zip(pos, strengths)],
    }


def _radial_cert(rng) -> tuple[list[Op], int, int]:
    ops = []
    for r in range(_ROUNDS["radial-cert"]):
        for i, (m, dim) in enumerate(RADIAL_CASES):
            a = float(_signed(rng, 0.3, 5.0))
            ops.append(Op("radial", ["radial", "--a", repr(a), "--dim", str(dim),
                                     "--order", str(m)],
                          expect={"a": a, "dim": dim, "m": m}))
            ops.append(Op("check", ["check", "{config}"], _check_config(rng),
                          f"check-{r}-{i}.json"))
            dim_c = CONSTANTS_DIMS[(r * len(RADIAL_CASES) + i) % len(CONSTANTS_DIMS)]
            lowest = min_order_for_guarantee(dim_c)
            orders = sorted(int(x) for x in
                            rng.choice(np.arange(lowest, lowest + 16), 2, replace=False))
            ops.append(Op("constants", ["constants", "--dim", str(dim_c), "--orders",
                                        ",".join(map(str, orders))],
                          expect={"dim": dim_c, "orders": orders}))
    return ops, 0, 3 * len(RADIAL_CASES)


def grid_nodes(h: float) -> int:
    return (round(2 * BOX_HALF / h) + 1) ** 3


def generate(name: str, seed: int) -> Workload:
    """The operation stream of workload ``name`` for ``seed``."""
    builders = {"solve-batch": _solve_batch, "radial-cert": _radial_cert,
                "solve-fine": _solve_fine}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    ops, lead, round_size = builders[name](rng)
    nodes = {"solve-batch": grid_nodes(H_BATCH), "solve-fine": grid_nodes(H_FINE)}
    return Workload(name, ops, lead, round_size, nodes.get(name, 0))


def warmup_ops() -> list[Op]:
    """Small calls of every command, run untimed before measuring so lazy
    imports and first-call set-up do not land in the first sample."""
    tiny = _solve_op("warmup-solve", [((0.0, 0.0, 0.0), 1.0)], 2,
                     "radial-superposition", H_BATCH)
    tiny.config["box"] = {"lo": -1.0, "hi": 1.0, "h": H_BATCH}
    return [
        tiny,
        Op("radial", ["radial", "--a", "1.0", "--order", "4", "--points", "300"],
           expect={"a": 1.0, "dim": 3, "m": 4}),
        Op("check", ["check", "{config}"],
           {"dim": 3, "charges": [{"pos": [0, 0, 0], "a": 1.0},
                                  {"pos": [4, 0, 0], "a": -1.0}]}, "warmup-check.json"),
        Op("constants", ["constants", "--dim", "3", "--orders", "4"],
           expect={"dim": 3, "orders": [4]}),
    ]
