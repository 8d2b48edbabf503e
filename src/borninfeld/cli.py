"""Command-line front end: constants, certificates, radial runs, grid solves.

One JSON config per run, machine-readable JSON reports plus CSV data files,
and an exit-code convention:

    0  success (a certificate applies, a solve converged, ...)
    1  no implemented certificate applies (check only)
    2  invalid input, raised as ``core.InputError``: a schema violation, a
       malformed file, a bad argument, or a value outside the problem's
       hypotheses or outside binary64
    3  quadrature accuracy failure (``quad.AccuracyError``)
    4  solver non-convergence

Any other exception is a bug; it is not caught and ends the run with a
traceback (exit status 1).

Ctilde's quadrature tolerance is a ``quad`` constant, so ``check`` and
``constants`` report the same Ctilde(N); ``solve`` takes its tolerance
from the config's ``tolerances.solver`` only (default 1e-9).

Reports are deterministic: identical config and arguments produce
byte-identical files.  ``--seed`` is a label recorded in every report; the
package has no randomness, so it drives nothing.  Infinite margins
serialize as the string "inf".
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import itertools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import conditions, field, radial
from .core import (
    ChargeConfig,
    InputError,
    asymptotics_spec,
    best_constant_cbar,
    min_order_for_guarantee,
    sphere_measure,
)
from .quad import AccuracyError, refined_constant_ctilde, shape_constant_A

__all__ = ["main"]


class ConfigError(InputError):
    """Run configuration failed schema validation."""


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

_TOP_KEYS = {"dim", "charges", "box", "order_m", "boundary_rule", "tolerances"}
_BOX_KEYS = {"lo", "hi", "h"}
_TOL_KEYS = {"solver"}


def _fail(path: str, message: str):
    raise ConfigError(f"config field '{path}': {message}")


def _object(value, path: str, keys: set, required=(), note: str = "") -> dict:
    """``value`` as a JSON object with keys from ``keys`` only, ``required``
    among them; a missing key's path is the key under ``path``."""
    root = path == "<root>"
    if not isinstance(value, dict):
        _fail(path, "expected a JSON object" if root else "expected an object")
    unknown = set(value) - keys
    if unknown:
        _fail(path, f"unknown keys {sorted(unknown)}")
    for key in required:
        if key not in value:
            _fail(key if root else f"{path}.{key}", "missing required key" + note)
    return value


def _number(value, path: str, positive: bool = False) -> float:
    """``value`` as a finite binary64 number, > 0 if ``positive``.

    json.loads accepts Infinity, NaN and integers past binary64, which no
    coordinate or strength can use; an infinite tolerance ends a solve before
    its first step, a NaN one after it.
    """
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        if value > 0 or not positive:
            return float(value)
    _fail(path, "expected a positive finite number" if positive else "expected a finite number")


def _numbers(value, path: str, n: int, message: str) -> list[float]:
    """``value`` as a list of n finite numbers; ``message`` if it is not one."""
    if not (isinstance(value, list) and len(value) == n):
        _fail(path, message)
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(value)]


def _vector(value, path: str) -> list[float]:
    """A box corner: one finite number for every axis, or [x, y, z]."""
    if not isinstance(value, list):
        with contextlib.suppress(ConfigError):
            return [_number(value, path)] * 3
    return _numbers(value, path, 3, "expected a finite number or [x, y, z]")


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
    _object(raw, "<root>", _TOP_KEYS, ("dim", "charges"))
    dim = raw["dim"]
    if type(dim) is not int:
        _fail("dim", "expected an integer")
    if not (isinstance(raw["charges"], list) and raw["charges"]):
        _fail("charges", "expected a non-empty list")
    charges = []
    for i, entry in enumerate(raw["charges"]):
        p = f"charges[{i}]"
        _object(entry, p, {"pos", "a"}, ("pos", "a"))
        pos = _numbers(entry["pos"], f"{p}.pos", dim, f"expected a list of {dim} numbers")
        charges.append((tuple(pos), _number(entry["a"], f"{p}.a")))
    out = {}
    if need_box:
        _object(raw, "<root>", _TOP_KEYS, ("box", "order_m"), " (needed for solves)")
    if "box" in raw:
        box = _object(raw["box"], "box", _BOX_KEYS, ("lo", "hi", "h"))
        lo, hi = _vector(box["lo"], "box.lo"), _vector(box["hi"], "box.hi")
        out["box"] = {"lo": lo, "hi": hi, "h": _number(box["h"], "box.h", positive=True)}
    if "order_m" in raw:
        if not (type(raw["order_m"]) is int and raw["order_m"] >= 1):
            _fail("order_m", "expected an integer >= 1")
        out["order_m"] = raw["order_m"]
    rule = raw.get("boundary_rule", "radial-superposition")
    if rule not in ("zero", "radial-superposition"):
        _fail("boundary_rule", "expected 'zero' or 'radial-superposition'")
    out["boundary_rule"] = rule
    tolerances = _object(raw.get("tolerances", {}), "tolerances", _TOL_KEYS)
    out["tolerances"] = {
        k: _number(v, f"tolerances.{k}", positive=True) for k, v in tolerances.items()
    }
    out["config"] = ChargeConfig(dim, charges)
    return out


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def _jsonable(obj):
    """Recursively convert report content to strict JSON (inf -> 'inf').

    A result record (a dataclass instance) becomes the object of its fields.
    """
    if isinstance(obj, enum.Enum):
        return obj.value
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
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # field by field: dataclasses.asdict would deep-copy every value
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def _is_number_or_sentinel(value) -> bool:
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool)
    ) or value in ("inf", "-inf", "nan")


_RESULT_KEYS = {
    "constants": {"sphere_measure", "best_constant", "central_value_scale",
                  "refined_constant", "refined_over_sphere", "min_guaranteed_order",
                  "orders"},
    "check": {"verdicts", "per_segment", "conclusive"},
    "radial": {"profile_csv", "n_samples", "central_value", "u_fit", "du_fit",
               "guaranteed", "predicted"},
    "solve": {"field_csv", "energy", "grad_norm", "iterations", "cg_iterations",
              "cg_per_step", "charge_blocks", "converged", "stop_reason",
              "snap_distances", "extremum", "segments", "gradient_sup"},
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
            # every field of a Verdict; an unset per_segment is left out
            for f in dataclasses.fields(conditions.Verdict):
                if f.name not in verdict and f.name != "per_segment":
                    raise ValueError(f"verdict missing key {f.name!r}")
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


def _column(values: np.ndarray):
    """The values as CSV fields, formatted lazily while the file is written."""
    return map(_fmt, values.ravel().tolist())


def _write_field_csv(path: Path, lo, h: float, values: np.ndarray) -> None:
    """Rows ``x, y, z, u`` over every node, last axis fastest.

    Each x-plane is one ``%`` format of a template that holds the node
    coordinates and a ``%.17g`` slot per value (the bytes of ``_fmt``), and
    is written on its own, so the whole file is never one string.
    """
    xs, ys, zs = (
        list(_column(float(lo[d]) + h * np.arange(n))) for d, n in enumerate(values.shape)
    )
    rows = [f"{y},{z},%.17g\r\n" for y, z in itertools.product(ys, zs)]
    with path.open("w", newline="") as handle:
        handle.write("x,y,z,u\r\n")
        for x, plane in zip(xs, values):
            prefix = x + ","
            handle.write((prefix + prefix.join(rows)) % tuple(plane.ravel().tolist()))


def _fields(record, *names: str) -> dict:
    """The named attributes of a record a report takes only in part, keyed
    by name; a whole record goes into a report as it is (``_jsonable``)."""
    return {name: getattr(record, name) for name in names}


_FIT_KEYS = ("exponent", "coefficient", "residual", "window")


def _verdict_dict(v: conditions.Verdict) -> dict:
    """The verdict's fields, without ``per_segment`` when it is None."""
    out = {f.name: getattr(v, f.name) for f in dataclasses.fields(v)}
    if v.per_segment is None:
        del out["per_segment"]
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_constants(args) -> int:
    N = args.dim
    orders = args.orders
    per_order = [
        _fields(
            asymptotics_spec(m, N, 1.0, override_guarantee=args.override_guarantee),
            "m", "kappa", "gamma", "K", "Kprime", "u_exponent", "grad_exponent",
            "holder", "guaranteed",
        )
        for m in orders
    ]
    # best_constant_cbar rejects N < 3; sphere_measure would accept N = 2
    cbar = best_constant_cbar(N)
    omega = sphere_measure(N)
    ctilde = refined_constant_ctilde(N)
    report = {
        "command": "constants",
        "seed": args.seed,
        "inputs": {"dim": N, "orders": orders},
        "results": {
            "sphere_measure": omega,
            "best_constant": cbar,
            "central_value_scale": shape_constant_A(N),
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
    ctilde = refined_constant_ctilde(config.dim)
    verdicts = [conditions.check_global(config), conditions.check_refined(config, ctilde)]
    with contextlib.suppress(conditions.NotApplicableError):  # not one +/- pair
        verdicts.append(conditions.check_two_charge(config))
    segments = verdicts[1].per_segment or ()
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
            "per_segment": segments,
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
    if not (0 < args.rmin < args.rmax < math.inf):
        raise ConfigError(
            f"--rmin and --rmax need 0 < rmin < rmax < inf, got {args.rmin:g} and "
            f"{args.rmax:g}"
        )
    if args.points < 2:
        raise ConfigError("radial grid needs at least 2 points")
    rgrid = np.geomspace(args.rmin, args.rmax, args.points)
    profile = radial.approx_radial_profile(args.a, args.order, args.dim, rgrid)
    window = tuple(args.fit_window)
    u_fit, du_fit = radial.fit_singularity(profile, window)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "profile.csv"
    # one ``%`` format of a ``%.17g`` template (the bytes of ``_fmt``), rows
    # ending in \r\n as csv.writer writes them
    rows = np.column_stack((profile.r, profile.u, profile.du))
    template = "%.17g,%.17g,%.17g\r\n" * len(rows)
    csv_path.write_text(
        "r,u,du\r\n" + template % tuple(rows.ravel().tolist()), newline=""
    )
    predicted = None
    if 2 * args.order != args.dim:
        spec = asymptotics_spec(args.order, args.dim, args.a, override_guarantee=True)
        predicted = _fields(
            spec, "u_exponent", "grad_exponent", "K", "Kprime", "guaranteed"
        )
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
            "u_fit": _fields(u_fit, *_FIT_KEYS),
            "du_fit": _fields(du_fit, *_FIT_KEYS),
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
    if args.max_iter < 0:
        raise ConfigError(f"--max-iter must be >= 0, got {args.max_iter}")
    cfg = load_config(Path(args.config), need_box=True)
    config: ChargeConfig = cfg["config"]
    box = cfg["box"]
    tol = cfg["tolerances"].get("solver", 1e-9)
    problem = field.assemble_problem(
        config, box["lo"], box["hi"], box["h"], cfg["order_m"], cfg["boundary_rule"]
    )
    result = field.minimize_energy(problem, tol=tol, max_iter=args.max_iter)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "field.csv"
    _write_field_csv(csv_path, problem.lo, problem.h, result.values)
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
            "cg_per_step": result.cg_per_step,
            "charge_blocks": result.charge_blocks,
            "converged": result.converged,
            "stop_reason": result.stop_reason,
            "snap_distances": list(problem.snap_distances),
            "extremum": field.extremum_report(result) if result.converged else [],
            "segments": field.segment_report(result) if result.converged else [],
            "gradient_sup": field.gradient_sup(result),
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


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, e.g. 4,8,16, got {text!r}"
        ) from None


class _Parser(argparse.ArgumentParser):
    """argparse that takes any dash-led number, -1e-2 and -inf too, as a value.

    Plain argparse reads only the likes of -2 and -0.5 as numbers, so
    ``--a -1e-2`` failed while ``--a=-1e-2`` worked.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="borninfeld",
        description="Constants, solvability certificates, radial solutions, "
        "and grid solves for point-charge Born-Infeld electrostatics.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--seed", type=int, default=0, help="report label; drives nothing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", parents=[common], help="closed-form and quadrature constants")
    p.add_argument(
        "--override-guarantee",
        action="store_true",
        help="allow orders outside the guaranteed asymptotic range",
    )
    p.add_argument("--dim", type=int, required=True)
    p.add_argument(
        "--orders",
        type=_int_list,
        default=(),
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
        "--fit-window", type=float, nargs=2, default=(1e-6, 1e-4),
        metavar=("RLO", "RHI"),
    )
    p.set_defaults(func=cmd_radial)

    p = sub.add_parser("solve", parents=[common], help="grid solve for a charge configuration")
    p.add_argument("config", help="JSON run configuration")
    p.add_argument("--max-iter", type=int, default=5000, help="most Newton steps")
    p.set_defaults(func=cmd_solve)
    return parser


# built by the first ``main`` call and reused by every later one in the process
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    """Run one command and return its exit code; callable repeatedly."""
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    # the command is looked up now, not taken as bound when the parser was
    # built, so a wrapper or patch on ``cmd_*`` installed since then runs
    command = globals()[args.func.__name__]
    try:
        return command(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(
            f"accuracy failure: {exc} "
            f"(estimate {exc.estimate:g}, error bound {exc.error_bound:g})",
            file=sys.stderr,
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
