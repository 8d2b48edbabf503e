"""Command-line front end: constants, certificates, radial runs, grid solves.

One JSON config per run, machine-readable JSON reports plus CSV data files,
and a total exit-code convention:

    0  success (a certificate applies, a solve converged, ...)
    1  no implemented certificate applies (check only)
    2  invalid input (schema violation, malformed file, bad arguments)
    3  quadrature accuracy failure
    4  solver non-convergence

Reports are deterministic: identical config and seed produce byte-identical
files.  Infinite margins serialize as the string "inf".
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import conditions, field, radial
from .core import (
    ChargeConfig,
    GuaranteeRangeError,
    asymptotics_spec,
    best_constant_cbar,
    min_order_for_guarantee,
    sphere_measure,
)
from .quad import AccuracyError, refined_constant_ctilde, shape_constant_A

__all__ = ["main"]


class ConfigError(ValueError):
    """Run configuration failed schema validation."""


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

_TOP_KEYS = {"dim", "charges", "box", "order_m", "boundary_rule", "tolerances"}
_BOX_KEYS = {"lo", "hi", "h"}
_TOL_KEYS = {"solver", "quadrature"}


def _fail(path: str, message: str):
    raise ConfigError(f"config field '{path}': {message}")


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        _fail(path, message)


def _as_vector(value, path: str) -> list[float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)] * 3
    _require(
        isinstance(value, list) and len(value) == 3, path, "expected a number or [x, y, z]"
    )
    for i, x in enumerate(value):
        _require(
            isinstance(x, (int, float)) and not isinstance(x, bool),
            f"{path}[{i}]",
            "expected a number",
        )
    return [float(x) for x in value]


def load_config(path: Path, *, need_box: bool) -> dict:
    """Parse and validate a run configuration; unknown keys are rejected."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    _require(isinstance(raw, dict), "<root>", "expected a JSON object")
    unknown = set(raw) - _TOP_KEYS
    _require(not unknown, "<root>", f"unknown keys {sorted(unknown)}")
    _require("dim" in raw, "dim", "missing required key")
    _require(
        isinstance(raw["dim"], int) and not isinstance(raw["dim"], bool),
        "dim",
        "expected an integer",
    )
    _require("charges" in raw, "charges", "missing required key")
    _require(
        isinstance(raw["charges"], list) and raw["charges"], "charges",
        "expected a non-empty list",
    )
    charges = []
    for i, entry in enumerate(raw["charges"]):
        p = f"charges[{i}]"
        _require(isinstance(entry, dict), p, "expected an object")
        unknown = set(entry) - {"pos", "a"}
        _require(not unknown, p, f"unknown keys {sorted(unknown)}")
        _require("pos" in entry, f"{p}.pos", "missing required key")
        _require("a" in entry, f"{p}.a", "missing required key")
        pos = entry["pos"]
        _require(
            isinstance(pos, list) and len(pos) == raw["dim"],
            f"{p}.pos",
            f"expected a list of {raw['dim']} numbers",
        )
        for j, x in enumerate(pos):
            _require(
                isinstance(x, (int, float)) and not isinstance(x, bool),
                f"{p}.pos[{j}]",
                "expected a number",
            )
        _require(
            isinstance(entry["a"], (int, float)) and not isinstance(entry["a"], bool),
            f"{p}.a",
            "expected a number",
        )
        charges.append((tuple(float(x) for x in pos), float(entry["a"])))
    out = {"dim": raw["dim"], "charges": charges}

    if need_box:
        _require("box" in raw, "box", "missing required key (needed for solves)")
        _require("order_m" in raw, "order_m", "missing required key (needed for solves)")
    if "box" in raw:
        box = raw["box"]
        _require(isinstance(box, dict), "box", "expected an object")
        unknown = set(box) - _BOX_KEYS
        _require(not unknown, "box", f"unknown keys {sorted(unknown)}")
        for key in _BOX_KEYS:
            _require(key in box, f"box.{key}", "missing required key")
        lo = _as_vector(box["lo"], "box.lo")
        hi = _as_vector(box["hi"], "box.hi")
        _require(
            isinstance(box["h"], (int, float)) and not isinstance(box["h"], bool)
            and box["h"] > 0,
            "box.h",
            "expected a positive number",
        )
        out["box"] = {"lo": lo, "hi": hi, "h": float(box["h"])}
    if "order_m" in raw:
        _require(
            isinstance(raw["order_m"], int)
            and not isinstance(raw["order_m"], bool)
            and raw["order_m"] >= 1,
            "order_m",
            "expected an integer >= 1",
        )
        out["order_m"] = raw["order_m"]
    rule = raw.get("boundary_rule", "radial-superposition")
    _require(
        rule in ("zero", "radial-superposition"),
        "boundary_rule",
        "expected 'zero' or 'radial-superposition'",
    )
    out["boundary_rule"] = rule
    tolerances = raw.get("tolerances", {})
    _require(isinstance(tolerances, dict), "tolerances", "expected an object")
    unknown = set(tolerances) - _TOL_KEYS
    _require(not unknown, "tolerances", f"unknown keys {sorted(unknown)}")
    for key, value in tolerances.items():
        _require(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            and value > 0,
            f"tolerances.{key}",
            "expected a positive number",
        )
    out["tolerances"] = {k: float(v) for k, v in tolerances.items()}
    try:
        out["config"] = ChargeConfig(out["dim"], out["charges"])
    except ValueError as exc:
        raise ConfigError(f"invalid charge configuration: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def _jsonable(obj):
    """Recursively convert report content to strict JSON (inf -> 'inf')."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    return obj


def _is_number_or_sentinel(value) -> bool:
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool)
    ) or value in ("inf", "-inf", "nan")


_RESULT_KEYS = {
    "constants": {"sphere_measure", "best_constant", "central_value_scale",
                  "refined_constant", "refined_over_sphere", "orders"},
    "check": {"verdicts", "per_segment", "conclusive"},
    "radial": {"profile_csv", "n_samples", "u_fit", "du_fit", "guaranteed",
               "predicted"},
    "solve": {"field_csv", "energy", "grad_norm", "iterations", "cg_iterations",
              "converged", "extremum", "segments", "gradient_sup"},
}


def validate_report(report: dict) -> None:
    """Check an emitted report against the command's result schema."""
    for key in ("command", "inputs", "results", "seed"):
        if key not in report:
            raise ValueError(f"report missing key {key!r}")
    command = report["command"]
    if command not in _RESULT_KEYS:
        raise ValueError(f"unknown report command {command!r}")
    if not isinstance(report["inputs"], dict) or not isinstance(
        report["results"], dict
    ):
        raise ValueError("report inputs/results must be objects")
    missing = _RESULT_KEYS[command] - set(report["results"])
    if missing:
        raise ValueError(f"report results missing keys {sorted(missing)}")
    if command == "check":
        for verdict in report["results"]["verdicts"]:
            for key in ("level", "rule", "lhs", "rhs", "margin"):
                if key not in verdict:
                    raise ValueError(f"verdict missing key {key!r}")
            if not _is_number_or_sentinel(verdict["margin"]):
                raise ValueError("verdict margin must be numeric or inf")


def _write_report(report: dict, out_dir: Path) -> Path:
    report = _jsonable(report)
    validate_report(report)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_field_csv(path: Path, lo, h: float, values: np.ndarray) -> None:
    """Rows ``x, y, z, u`` over every node, last axis fastest, as csv.writer."""
    axes = [
        [_fmt(c) for c in (float(lo[d]) + h * np.arange(n)).tolist()]
        for d, n in enumerate(values.shape)
    ]
    u = map(_fmt, values.ravel().tolist())
    with path.open("w", newline="") as handle:
        handle.write("x,y,z,u\r\n")
        handle.writelines(
            f"{x},{y},{z},{v}\r\n" for (x, y, z), v in zip(itertools.product(*axes), u)
        )


def _verdict_dict(v: conditions.Verdict) -> dict:
    out = {
        "level": v.level.value,
        "rule": v.rule,
        "lhs": v.lhs,
        "rhs": v.rhs,
        "margin": v.margin,
    }
    if v.per_segment is not None:
        out["per_segment"] = [_pair_dict(p) for p in v.per_segment]
    return out


def _pair_dict(p: conditions.PairVerdict) -> dict:
    return {"j": p.j, "l": p.l, "level": p.level.value, "separation": p.separation}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_constants(args) -> int:
    N = args.dim
    if not isinstance(N, int) or N < 3:
        raise ConfigError(f"dimension must be an integer >= 3, got {N}")
    orders = args.orders or []
    quad_tol = args.tol if args.tol is not None else 1e-10
    per_order = []
    for m in orders:
        try:
            spec = asymptotics_spec(m, N, 1.0, override_guarantee=args.override_guarantee)
        except GuaranteeRangeError as exc:
            raise ConfigError(str(exc)) from exc
        per_order.append(
            {
                "m": spec.m,
                "kappa": spec.kappa,
                "gamma": spec.gamma,
                "K": spec.K,
                "Kprime": spec.Kprime,
                "u_exponent": spec.u_exponent,
                "grad_exponent": spec.grad_exponent,
                "holder": spec.holder,
                "guaranteed": spec.guaranteed,
            }
        )
    omega = sphere_measure(N)
    ctilde = refined_constant_ctilde(N, quad_tol)
    report = {
        "command": "constants",
        "seed": args.seed,
        "inputs": {"dim": N, "orders": orders, "quad_tol": quad_tol},
        "results": {
            "sphere_measure": omega,
            "best_constant": best_constant_cbar(N),
            "central_value_scale": shape_constant_A(N, quad_tol),
            "refined_constant": ctilde,
            "refined_over_sphere": ctilde / omega,
            "min_guaranteed_order": min_order_for_guarantee(N),
            "orders": per_order,
        },
    }
    path = _write_report(report, Path(args.out))
    print(f"constants: dim={N}, report written to {path}")
    return 0


def cmd_check(args) -> int:
    cfg = load_config(Path(args.config), need_box=False)
    config: ChargeConfig = cfg["config"]
    quad_tol = (
        args.tol
        if args.tol is not None
        else cfg["tolerances"].get("quadrature", 1e-10)
    )
    ctilde = refined_constant_ctilde(config.dim, quad_tol)
    verdicts = [conditions.check_global(config), conditions.check_refined(config, ctilde)]
    if config.n == 2:
        a1, a2 = config.strengths
        if a1 * a2 < 0:
            verdicts.append(conditions.check_two_charge(config))
    segments = conditions.classify_segments(config, ctilde)
    conclusive = any(v.conclusive for v in verdicts) or (
        bool(segments)
        and all(p.level is not conditions.VerdictLevel.INCONCLUSIVE for p in segments)
    )
    report = {
        "command": "check",
        "seed": args.seed,
        "inputs": {
            "config": str(args.config),
            "dim": config.dim,
            "n_charges": config.n,
            "min_distance": config.min_distance(),
            "ctilde": ctilde,
        },
        "results": {
            "verdicts": [_verdict_dict(v) for v in verdicts],
            "per_segment": [_pair_dict(p) for p in segments],
            "conclusive": conclusive,
        },
    }
    path = _write_report(report, Path(args.out))
    for v in verdicts:
        margin = "inf" if math.isinf(v.margin) else f"{v.margin:.6g}"
        print(f"check[{v.rule}]: {v.level.value} (margin {margin})")
    print(f"report written to {path}")
    return 0 if conclusive else 1


def cmd_radial(args) -> int:
    if args.a == 0:
        raise ConfigError("charge strength must be nonzero")
    if args.dim < 3:
        raise ConfigError("dimension must be >= 3")
    if args.order < 1:
        raise ConfigError("order must be >= 1")
    if not (0 < args.rmin < args.rmax):
        raise ConfigError("radial grid needs 0 < rmin < rmax")
    if args.points < 2:
        raise ConfigError("radial grid needs at least 2 points")
    rgrid = np.geomspace(args.rmin, args.rmax, args.points)
    profile = radial.approx_radial_profile(args.a, args.order, args.dim, rgrid)
    window = tuple(args.fit_window)
    u_fit, du_fit = radial.fit_singularity(profile, window)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "profile.csv"
    with csv_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["r", "u", "du"])
        for r, u, du in profile.rows():
            writer.writerow([_fmt(r), _fmt(u), _fmt(du)])
    predicted = None
    if 2 * args.order != args.dim:
        spec = asymptotics_spec(
            args.order, args.dim, args.a, override_guarantee=True
        )
        predicted = {
            "u_exponent": spec.u_exponent,
            "grad_exponent": spec.grad_exponent,
            "K": spec.K,
            "Kprime": spec.Kprime,
            "guaranteed": spec.guaranteed,
        }
    report = {
        "command": "radial",
        "seed": args.seed,
        "inputs": {
            "a": args.a,
            "dim": args.dim,
            "order": args.order,
            "rmin": args.rmin,
            "rmax": args.rmax,
            "points": args.points,
            "fit_window": list(window),
        },
        "results": {
            "profile_csv": csv_path.name,
            "n_samples": profile.n_samples,
            "central_value": profile.u0 if profile.u0 is not None else "nan",
            "u_fit": {
                "exponent": u_fit.exponent,
                "coefficient": u_fit.coefficient,
                "residual": u_fit.residual,
                "window": list(u_fit.window),
            },
            "du_fit": {
                "exponent": du_fit.exponent,
                "coefficient": du_fit.coefficient,
                "residual": du_fit.residual,
                "window": list(du_fit.window),
            },
            "guaranteed": u_fit.guaranteed,
            "predicted": predicted,
        },
    }
    path = _write_report(report, Path(args.out))
    flag = "" if u_fit.guaranteed else " [unguaranteed]"
    print(
        f"radial: m={args.order} fit exponent {u_fit.exponent:.6g} "
        f"coefficient {u_fit.coefficient:.6g}{flag}"
    )
    print(f"report written to {path}")
    return 0


def cmd_solve(args) -> int:
    cfg = load_config(Path(args.config), need_box=True)
    config: ChargeConfig = cfg["config"]
    box = cfg["box"]
    tol = args.tol if args.tol is not None else cfg["tolerances"].get("solver", 1e-9)
    try:
        problem = field.assemble_problem(
            config, box["lo"], box["hi"], box["h"], cfg["order_m"],
            cfg["boundary_rule"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    result = field.minimize_energy(problem, tol=tol, max_iter=args.max_iter)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "field.csv"
    _write_field_csv(csv_path, problem.lo, problem.h, result.values)
    if result.converged:
        extremum = [
            {
                "node": list(r.node),
                "strength": r.strength,
                "kind": r.kind,
                "margin": r.margin,
                "matches_charge_sign": r.matches_charge_sign,
            }
            for r in field.extremum_report(result)
        ]
        segments = [
            {
                "j": s.j,
                "l": s.l,
                "distance": s.distance,
                "same_sign": s.same_sign,
                "chord_defect": s.chord_defect,
                "light_ratio": s.light_ratio,
                "near_light": s.near_light,
            }
            for s in field.segment_report(result)
        ]
    else:
        extremum = []
        segments = []
    sup = field.gradient_sup(result)
    report = {
        "command": "solve",
        "seed": args.seed,
        "inputs": {
            "config": str(args.config),
            "dim": config.dim,
            "n_charges": config.n,
            "order_m": cfg["order_m"],
            "h": box["h"],
            "boundary_rule": cfg["boundary_rule"],
            "tol": tol,
        },
        "results": {
            "field_csv": csv_path.name,
            "energy": result.energy,
            "grad_norm": result.grad_norm,
            "iterations": result.iterations,
            "cg_iterations": result.cg_iterations,
            "converged": result.converged,
            "snap_distances": list(problem.snap_distances),
            "extremum": extremum,
            "segments": segments,
            "gradient_sup": {
                "sup": sup.sup,
                "argmax_distance": sup.argmax_distance,
            },
        },
    }
    path = _write_report(report, Path(args.out))
    status = "converged" if result.converged else "NOT converged"
    print(
        f"solve: {status}, energy {result.energy:.6g}, residual "
        f"{result.grad_norm:.3g}, report written to {path}"
    )
    return 0 if result.converged else 4


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borninfeld",
        description="Constants, solvability certificates, radial solutions, "
        "and grid solves for point-charge Born-Infeld electrostatics.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--tol", type=float, default=None, help="tolerance override")
    common.add_argument("--seed", type=int, default=0, help="seed recorded in reports")
    common.add_argument(
        "--override-guarantee",
        action="store_true",
        help="allow orders outside the guaranteed asymptotic range",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", parents=[common], help="closed-form and quadrature constants")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument(
        "--orders",
        type=lambda s: [int(x) for x in s.split(",") if x],
        default=[],
        help="comma-separated expansion orders, e.g. 4,8,16",
    )
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("check", parents=[common], help="solvability certificates for a config")
    p.add_argument("config", help="JSON run configuration")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("radial", parents=[common], help="order-m radial profile and fits")
    p.add_argument("--a", type=float, required=True, help="charge strength")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--order", type=int, required=True, help="expansion order m")
    p.add_argument("--rmin", type=float, default=1e-7)
    p.add_argument("--rmax", type=float, default=1e3)
    p.add_argument("--points", type=int, default=1200)
    p.add_argument(
        "--fit-window", type=float, nargs=2, default=[1e-6, 1e-4],
        metavar=("RLO", "RHI"),
    )
    p.set_defaults(func=cmd_radial)

    p = sub.add_parser("solve", parents=[common], help="grid solve for a charge configuration")
    p.add_argument("config", help="JSON run configuration")
    p.add_argument("--max-iter", type=int, default=5000, help="most Newton steps")
    p.set_defaults(func=cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
