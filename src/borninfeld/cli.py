"""Command-line front end: constants, certificates, radial runs, grid solves.

One JSON config per run, machine-readable JSON reports plus CSV data files,
and an exit-code convention:

    0  success (a certificate applies, a solve converged, ...)
    1  no implemented certificate applies (check only)
    2  invalid input, raised as ``core.InputError``: a schema violation, a
       malformed file, a bad argument (an ``--out`` that cannot be a
       directory, or an output file that cannot be written, too), or a
       value outside the problem's hypotheses or outside binary64
    3  quadrature accuracy failure (``quad.AccuracyError``)
    4  solver non-convergence

Any other exception is a bug; it is not caught and ends the run with a
traceback (exit status 1).

Ctilde's quadrature tolerance is a ``quad`` constant, so ``check`` and
``constants`` report the same Ctilde(N); ``solve`` takes its tolerance
from the config's ``tolerances.solver`` only (default 1e-9).

Reports are deterministic: identical config and arguments produce
byte-identical files.  ``--seed`` is a label recorded in every report; the
package has no randomness, so it drives nothing.  Non-finite numbers
serialize as the strings "inf", "-inf" and "nan".
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import functools
import itertools
import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from . import conditions, radial
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


def _json(obj, out: list, pad: str) -> None:
    """Append ``obj`` to ``out`` as ``json.dumps(indent=2, sort_keys=True)`` writes
    it at line start ``pad``, but with inf, -inf and nan as "inf", "-inf" and "nan",
    an enum as its value, a numpy scalar as its ``item()`` and a result record (a
    dataclass instance) as the object of its fields; other types are a TypeError."""
    kind = type(obj)
    if kind is float:
        out.append(float.__repr__(obj) if math.isfinite(obj) else
                   '"nan"' if obj != obj else '"inf"' if obj > 0 else '"-inf"')
    elif kind is str:
        out.append(_quote(obj))
    elif kind is dict:
        _items([(_quote(k) + ": ", v) for k, v in sorted(obj.items())], out, pad, "{}")
    elif kind is list or kind is tuple:
        _items([("", v) for v in obj], out, pad, "[]")
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is bool or obj is None:
        out.append("true" if obj else "false" if obj is False else "null")
    elif isinstance(obj, enum.Enum):
        _json(obj.value, out, pad)
    elif isinstance(obj, (np.floating, np.integer)):
        _json(obj.item(), out, pad)
    elif dataclasses.is_dataclass(kind):
        _items([(key, getattr(obj, name)) for key, name in _record_keys(kind)], out, pad, "{}")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _items(items: list, out: list, pad: str, ends: str) -> None:
    """Append the (key prefix, value) ``items`` in order, one a line, in ``ends``."""
    inner = pad + "  "
    sep = ends[0] + inner
    for key, value in items:
        out += sep, key
        _json(value, out, inner)
        sep = "," + inner
    out.append(pad + ends[1] if items else ends)


@functools.cache
def _record_keys(kind: type) -> tuple:
    """('"name": ', name) for a record type's fields, sorted by name."""
    return tuple((_quote(n) + ": ", n) for n in sorted(f.name for f in dataclasses.fields(kind)))


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


@contextlib.contextmanager
def _refused(what: str):
    """Exit 2 with "cannot <what>: <reason>" when the file system refuses an
    output: a file at ``--out`` or above it, a directory in an output file's
    place, no permission."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot {what}: {exc.strerror}") from exc


def _check_out(out: str) -> None:
    """Refuse, before a command's long work, an ``--out`` that is a file or
    lies below one.  It makes nothing, so a command that fails after it
    leaves no directory behind."""
    with _refused(f"use --out {out}"), contextlib.suppress(FileNotFoundError):
        Path(out).stat()  # missing: made later; below a file: refused
        Path(out).mkdir(exist_ok=True)  # it exists: kept if a directory, else refused


def _out_dir(out: str) -> Path:
    """The ``--out`` directory, made if missing; exit 2 if it cannot be."""
    with _refused(f"use --out {out}"):
        Path(out).mkdir(parents=True, exist_ok=True)
    return Path(out)


def _write_report(report: dict, out_dir: Path) -> Path:
    validate_report(report)
    text = []
    _json(report, text, "\n")
    path = out_dir / "report.json"
    with _refused(f"write {path}"):
        path.write_text("".join(text) + "\n")
    return path


# ---------------------------------------------------------------------------
# CSV files: the bytes of '%.17g' for whole arrays
# ---------------------------------------------------------------------------

_CHUNK = 8192  # values per formatting call: its temporaries stay near 2 MB
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant
_MARGIN = 2.0**-40  # far above a double-double product's error, in units of N
_S_MIN = -294  # 10^s, s in [-294, 342], brings every nonzero binary64 into [1e16, 1e17)
_P10 = 10 ** np.arange(19, dtype=np.int64)
_SEP, _EOL, _MINUS = np.frombuffer(b",\0\0\0\r\n\0\0\0\0-\0", np.uint32)  # 4-byte words


@functools.cache
def _tables():
    """Lookup tables of ``_words``, built on its first call."""
    hi, lo = [], []  # 5^s = hi + lo to 2^-106 or better, from 5^s 2^800 for s < 0
    for s in range(_S_MIN, 343):
        v, shift = (5**s, 0) if s >= 0 else ((1 << 800) // 5**-s, 800)
        hi.append(math.ldexp(float(v), -shift))
        lo.append(math.ldexp(float(v - int(float(v))), -shift))
    hi, c = np.array(hi), np.array(hi) * _SPLIT
    hh = c - (c - hi)  # Dekker's split of hi into two 26-bit halves
    digits = np.arange(10_000, dtype=np.int16)[:, None] // np.int16([1000, 100, 10, 1]) % 10
    text = (digits + 48).astype(np.uint8)
    lead = np.logical_or.accumulate(digits > 0, axis=1)  # from the first nonzero digit on
    trail = np.logical_or.accumulate(digits[:, ::-1] > 0, axis=1)[:, ::-1]  # to the last one
    # 0000-9999 in full, without leading zeros, without trailing zeros; 000-999
    # in full and without leading zeros but the last, each with NUL and with "."
    groups = np.concatenate([text, text * lead, text * trail]).view(np.uint32)
    keep = lead[:1000, 1:] | [False, False, True]
    units = np.array([np.insert(text[:1000, 1:] * m, 3, p, 1) for m in (1, keep) for p in (0, 46)])
    exps = np.array([b"e%+03d" % X * (not -4 <= X < 17) for X in range(-324, 309)], "S8")
    return (hi, hh, hi - hh, np.array(lo)), groups, units.view(np.uint32), exps.view(np.uint32)


def _words(x: np.ndarray, sep: int) -> np.ndarray:
    """Each value's ``'%.17g' % v`` bytes after ``sep``, as a row of uint32
    words padded with NULs, which the CSV writer drops: separator and sign,
    integer digits and point, the fraction's five 4-digit groups, exponent.

    The digits are N, the integer nearest |v|·10^s, s = 16 − ⌊log10 |v|⌋.
    10^s = 2^s·5^s: 2^s is a shift, then Dekker's exact product (Numer. Math.
    18, 1971) with hi of 5^s = hi + lo gives P + T, |T| ≤ ulp(P)/2: exact
    for 0 ≤ s ≤ 22, within _MARGIN beyond.  ``format`` itself takes inf,
    nan and the products that close to a rounding tie or a decade.
    """
    scale, groups, units, exps = _tables()
    a = np.abs(x)
    zero, ok = a == 0, a < np.inf
    np.copyto(a, 1.0, where=zero | ~ok)
    k = np.floor(np.log10(a))
    for again in (True, False):  # once more if log10 rounded across a power of ten
        s = (16 - k).astype(np.int32)
        h, hh, hl, lo = (t.take(s - _S_MIN) for t in scale)
        y = np.ldexp(a, s)
        c = y * _SPLIT
        yh = c - (c - y)
        yl = y - yh
        P = y * h
        T = ((yh * hh - P) + yh * hl + yl * hh) + yl * hl
        T += y * lo
        c = P + T
        T -= c - P
        P = c
        low, high = (P - 1e16) + T < 0, (P - 1e17) + T >= 0
        if not (again and (low.any() or high.any())):
            break
        k += high
        k -= low
    r = np.rint(T)
    N = P.astype(np.int64) + r.astype(np.int64)  # P is even: ties go to even N
    off = np.abs(T - r)
    near = (np.abs(off - 0.5) <= _MARGIN) | ((P == 1e16) | (P == 1e17)) & (off <= _MARGIN)
    X = k.astype(np.intp) + (N == 10**17)  # rounded up into the next decade
    N[N == 10**17] = 10**16
    sci = (X < -4) | (X > 16)
    fallback = np.flatnonzero(~ok | (lo != 0) & near)
    v = X * ~sci  # digits before the point, less one
    I, F = np.divmod(N, _P10.take(np.minimum(16 - v, 18)))  # F: 16 − v digits, a8 and b12
    a8, b12 = np.divmod(F, _P10.take(np.maximum(8 - v, 0)))  # its first 8 and last 12 of 20
    a8 *= _P10.take(np.maximum(v - 8, 0))
    b12 *= _P10.take(np.minimum(v + 4, 12))
    I *= ~zero
    U = I // 1000  # the integer part's digits before its last three
    g0, g1 = np.divmod(a8, 10**4)  # the five 4-digit groups
    g2, rest = np.divmod(b12, 10**8)
    g3, g4 = np.divmod(rest, 10**4)
    o = 4 * (U.max(initial=0) > 0)  # four words for U's 4-digit groups, if any
    words = np.zeros((8 + o, x.size), np.uint32)
    np.bitwise_or(np.signbit(x) * _MINUS, sep, out=words[0])
    for j in range(o):  # without leading zeros (table offset 10000) from U's top group on
        g = U // _P10[12 - 4 * j] % 10**4
        groups.take(g + 10000 * (U < _P10[16 - 4 * j]), out=words[1 + j])
    units.take(I - 1000 * U + 1000 * (F != 0) + 2000 * (U == 0), out=words[1 + o])
    # a group drops its trailing zeros (table offset 20000) when all later ones are 0
    tails = ((g1 == 0) & (b12 == 0), b12 == 0, rest == 0, g4 == 0, True)
    for row, g, tail in zip(words[2 + o:], (g0, g1, g2, g3, g4), tails):
        groups.take(g + 20000 * tail, out=row)
    if sci.any():
        e = exps.take(2 * (X * sci + 324) + [[0], [1]])  # the two words of its exponent
        words[6 + o] |= e[0]  # an exponent's mantissa has no fifth fraction group
        words[7 + o] = e[1]
    if fallback.size:
        text = [np.uint32(sep).tobytes() + format(v, ".17g").encode() for v in x[fallback]]
        text = np.array(text, f"S{4 * len(words)}").view(np.uint32)
        words[:, fallback] = text.reshape(-1, len(words)).T
    return words[:7 + o + words[-1].any()].T


def _write_rows(path: Path, header: str, n: int, block) -> None:
    """The header, n rows by ``block(i, j)`` (rows i to j, each CRLF first), a last CRLF."""
    with _refused(f"write {path}"), path.open("wb") as handle:
        handle.write(header.encode())
        for i in range(0, n, _CHUNK):
            handle.write(block(i, min(i + _CHUNK, n)).tobytes().translate(None, b"\0"))
        handle.write(b"\r\n")


def _write_field_csv(path: Path, lo, h: float, values: np.ndarray) -> None:
    """Rows ``x, y, z, u`` over every node, last axis fastest.  The "x" and
    ",y,z" prefixes are formatted once and gathered beside each block."""
    xs, ys, zs = (
        [w.tobytes().translate(None, b"\0") for w in _words(lo[d] + h * np.arange(n), sep)]
        for d, (n, sep) in enumerate(zip(values.shape, (_EOL, _SEP, _SEP)))
    )
    x_pre, yz_pre = (  # NUL-padded to whole words
        np.array(t, f"S{-(-max(map(len, t)) // 4) * 4}").view(np.uint32).reshape(len(t), -1)
        for t in (xs, [y + z for y, z in itertools.product(ys, zs)])
    )

    def block(i, j):
        x, yz = np.divmod(np.arange(i, j), len(yz_pre))
        u = _words(values.ravel()[i:j], _SEP)
        return np.hstack([x_pre.take(x, axis=0), yz_pre.take(yz, axis=0), u])

    _write_rows(path, "x,y,z,u", values.size, block)


def _fields(record, *names: str) -> dict:
    """The named attributes of a record a report takes only in part, keyed
    by name; a whole record goes into a report as it is (``_json``)."""
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
    path = _write_report(report, _out_dir(args.out))
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
    path = _write_report(report, _out_dir(args.out))
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
    if not 2 <= args.points <= 10**5:  # 10^5 radii: 0.2 s, 100 MB; 10^6: 0.8 GB
        raise ConfigError(f"radial grid needs 2 to 100000 points, got {args.points}")
    _check_out(args.out)
    rgrid = np.geomspace(args.rmin, args.rmax, args.points)
    profile = radial.approx_radial_profile(args.a, args.order, args.dim, rgrid)
    window = tuple(args.fit_window)
    u_fit, du_fit = radial.fit_singularity(profile, window)
    out_dir = _out_dir(args.out)
    csv_path = out_dir / "profile.csv"
    columns = ((profile.r, _EOL), (profile.u, _SEP), (profile.du, _SEP))
    _write_rows(csv_path, "r,u,du", len(profile.r),
                lambda i, j: np.hstack([_words(c[i:j], sep) for c, sep in columns]))
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
            **_fields(args, "a", "dim", "order", "rmin", "rmax", "points"),
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
    path = _write_report(report, out_dir)
    flag = "" if u_fit.guaranteed else " [unguaranteed]"
    print(
        f"radial: m={args.order} fit exponent {u_fit.exponent:.6g} "
        f"coefficient {u_fit.coefficient:.6g}{flag}"
    )
    print(f"report written to {path}")
    return 0


def cmd_solve(args) -> int:
    from . import field  # the grid solver: no other command loads it

    if args.max_iter < 0:
        raise ConfigError(f"--max-iter must be >= 0, got {args.max_iter}")
    cfg = load_config(Path(args.config), need_box=True)
    config: ChargeConfig = cfg["config"]
    box = cfg["box"]
    tol = cfg["tolerances"].get("solver", 1e-9)
    problem = field.assemble_problem(
        config, box["lo"], box["hi"], box["h"], cfg["order_m"], cfg["boundary_rule"]
    )
    _check_out(args.out)
    result = field.minimize_energy(problem, tol=tol, max_iter=args.max_iter)
    out_dir = _out_dir(args.out)
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
            **_fields(result, "energy", "grad_norm", "iterations", "cg_iterations",
                      "cg_per_step", "charge_blocks", "converged", "stop_reason"),
            "snap_distances": list(problem.snap_distances),
            "extremum": field.extremum_report(result) if result.converged else [],
            "segments": field.segment_report(result) if result.converged else [],
            "gradient_sup": field.gradient_sup(result),
        },
    }
    path = _write_report(report, out_dir)
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
