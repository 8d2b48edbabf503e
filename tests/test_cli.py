"""End-to-end tests of the command-line interface and its file outputs."""

import argparse
import csv
import dataclasses
import enum
import inspect
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy import special

from borninfeld import cli, conditions, field, quad, radial
from borninfeld.cli import main, validate_report
from borninfeld.quad import AccuracyError, refined_constant_ctilde


def run_cli(args):
    return main(list(args))


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


DIPOLE = {
    "dim": 3,
    "charges": [
        {"pos": [0.0, 0.0, 0.0], "a": 1.0},
        {"pos": [2.0, 0.0, 0.0], "a": -1.0},
    ],
}


class TestConstantsCommand:
    def test_reference_values(self, tmp_path):
        assert run_cli(["constants", "--dim", "3", "--orders", "4", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        validate_report(report)
        results = report["results"]
        assert results["best_constant"] == pytest.approx(2 * math.pi / 3, rel=1e-12)
        assert results["central_value_scale"] == pytest.approx(0.5230248, abs=1e-6)
        assert results["refined_over_sphere"] == pytest.approx(0.097, abs=0.001)
        (entry,) = results["orders"]
        assert entry["m"] == 4
        assert entry["K"] == pytest.approx(-1.1515, abs=1e-4)
        assert entry["guaranteed"] is True

    def test_empty_orders(self, tmp_path):
        assert run_cli(["constants", "--dim", "3", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["orders"] == []

    def test_dimension_guard_exit_2(self, tmp_path):
        assert run_cli(["constants", "--dim", "2", "--out", str(tmp_path)]) == 2

    def test_exit_3_message_gives_estimate_and_bound(self, tmp_path, capsys, monkeypatch):
        # no Ctilde numerator panel gets below this bound
        monkeypatch.setattr(quad, "_CTILDE_TOL", 1e-30)
        args = ["constants", "--dim", "3", "--out", str(tmp_path)]
        with pytest.raises(AccuracyError) as caught:
            refined_constant_ctilde(3)
        exc = caught.value
        assert run_cli(args) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (
            f"accuracy failure: {exc} "
            f"(estimate {exc.estimate:g}, error bound {exc.error_bound:g})"
        )

    def test_out_of_range_order_needs_override(self, tmp_path):
        args = ["constants", "--dim", "3", "--orders", "2", "--out", str(tmp_path)]
        assert run_cli(args) == 2
        assert run_cli(args + ["--override-guarantee"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["orders"][0]["guaranteed"] is False

    def test_unparsable_orders_exit_2_with_readable_message(self, tmp_path, capsys):
        argv = ["constants", "--dim", "3", "--orders", "x", "--out", str(tmp_path)]
        with pytest.raises(SystemExit) as caught:
            run_cli(argv)
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert "argument --orders: expected comma-separated integers" in err
        assert "<lambda>" not in err


class TestCheckCommand:
    def test_wide_dipole_exit_0(self, tmp_path):
        config = write_config(tmp_path / "c.json", DIPOLE)
        assert run_cli(["check", config, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        validate_report(report)
        levels = {v["rule"]: v["level"] for v in report["results"]["verdicts"]}
        assert levels["global-sum-threshold"] == "GLOBAL_CLASSICAL"
        assert report["results"]["conclusive"] is True

    def test_narrow_dipole_exit_1(self, tmp_path):
        payload = {
            "dim": 3,
            "charges": [
                {"pos": [0.0, 0.0, 0.0], "a": 1.0},
                {"pos": [1.0, 0.0, 0.0], "a": -1.0},
            ],
        }
        config = write_config(tmp_path / "c.json", payload)
        assert run_cli(["check", config, "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["conclusive"] is False

    def test_single_charge_margin_serializes_as_inf(self, tmp_path):
        payload = {"dim": 3, "charges": [{"pos": [0.0, 0.0, 0.0], "a": 1.0}]}
        config = write_config(tmp_path / "c.json", payload)
        assert run_cli(["check", config, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["verdicts"][0]["margin"] == "inf"

    def test_missing_dim_exit_2(self, tmp_path):
        config = write_config(
            tmp_path / "c.json", {"charges": [{"pos": [0, 0, 0], "a": 1.0}]}
        )
        assert run_cli(["check", config, "--out", str(tmp_path)]) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        payload = dict(DIPOLE)
        payload["mystery"] = 1
        config = write_config(tmp_path / "c.json", payload)
        assert run_cli(["check", config, "--out", str(tmp_path)]) == 2

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 3,')
        assert run_cli(["check", str(path), "--out", str(tmp_path)]) == 2

    def test_verdict_and_pair_keys(self, tmp_path):
        # verdicts and pairs go into the report whole, so a field added to
        # conditions.Verdict or PairVerdict shows here
        config = write_config(tmp_path / "c.json", DIPOLE)
        assert run_cli(["check", config, "--out", str(tmp_path)]) == 0
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        verdict = {"level", "rule", "lhs", "rhs", "margin"}
        keys = {v["rule"]: set(v) for v in results["verdicts"]}
        assert keys == {
            "global-sum-threshold": verdict,
            "refined-energy-threshold": verdict | {"per_segment"},
            "two-charge-exact": verdict,
        }
        (pair,) = results["per_segment"]
        assert set(pair) == {"j", "l", "level", "separation"}
        assert results["verdicts"][1]["per_segment"] == [pair]

    def test_schema_requires_every_verdict_key_but_per_segment(self, tmp_path):
        config = write_config(tmp_path / "c.json", DIPOLE)
        assert run_cli(["check", config, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        refined = report["results"]["verdicts"][1]
        del refined["per_segment"]
        validate_report(report)
        del refined["rhs"]
        with pytest.raises(ValueError, match="verdict missing key 'rhs'"):
            validate_report(report)

    def test_byte_identical_reports(self, tmp_path):
        config = write_config(tmp_path / "c.json", DIPOLE)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(["check", config, "--seed", "7", "--out", str(out1)]) == 0
        assert run_cli(["check", config, "--seed", "7", "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


class TestRadialCommand:
    def test_order_four_fit(self, tmp_path):
        assert (
            run_cli(
                [
                    "radial", "--a", "1", "--order", "4", "--points", "900",
                    "--out", str(tmp_path),
                ]
            )
            == 0
        )
        report = json.loads((tmp_path / "report.json").read_text())
        validate_report(report)
        fit = report["results"]["u_fit"]
        assert fit["exponent"] == pytest.approx(5 / 7, rel=0.01)
        assert abs(fit["coefficient"]) == pytest.approx(1.1515, rel=0.02)
        assert report["results"]["guaranteed"] is True
        with (tmp_path / "profile.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["r", "u", "du"]
        assert len(rows) == 901
        r, u, du = (float(x) for x in rows[1])
        assert r == pytest.approx(1e-7)
        assert du < 0

    def test_newtonian_profile(self, tmp_path):
        assert (
            run_cli(
                [
                    "radial", "--a", "1", "--order", "1", "--points", "200",
                    "--rmin", "1e-6", "--rmax", "100",
                    "--fit-window", "1e-5", "1e-4",
                    "--out", str(tmp_path),
                ]
            )
            == 0
        )
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["u_fit"]["exponent"] == pytest.approx(-1.0, abs=1e-5)
        assert report["results"]["guaranteed"] is False
        with (tmp_path / "profile.csv").open() as handle:
            rows = list(csv.reader(handle))
        r, u, _ = (float(x) for x in rows[50])
        assert u == pytest.approx(1.0 / (4 * math.pi * r), rel=1e-10)

    def test_unguaranteed_flag_for_low_order(self, tmp_path):
        assert (
            run_cli(
                [
                    "radial", "--a", "1", "--order", "2", "--points", "500",
                    "--rmax", "10", "--out", str(tmp_path),
                ]
            )
            == 0
        )
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["guaranteed"] is False
        assert report["results"]["predicted"]["guaranteed"] is False

    def test_invalid_arguments_exit_2(self, tmp_path):
        assert run_cli(["radial", "--a", "0", "--order", "4", "--out", str(tmp_path)]) == 2
        assert (
            run_cli(
                [
                    "radial", "--a", "1", "--order", "4", "--rmin", "1",
                    "--rmax", "0.5", "--out", str(tmp_path),
                ]
            )
            == 2
        )

    @pytest.mark.parametrize("a", ["-1e-2", "-1E+1", "-.5e0"])
    def test_negative_strength_parses_space_separated(self, tmp_path, a):
        # argparse reads a dash-led number in scientific notation as a flag
        # unless the parser is told otherwise
        args = ["radial", "--order", "4", "--points", "200"]
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        assert run_cli(args + ["--a", a, "--out", str(spaced)]) == 0
        assert run_cli(args + [f"--a={a}", "--out", str(joined)]) == 0
        for name in ("report.json", "profile.csv"):
            assert (spaced / name).read_bytes() == (joined / name).read_bytes()

    def test_negative_infinite_strength_exit_2_names_the_strength(self, tmp_path, capsys):
        argv = ["radial", "--a", "-inf", "--order", "4", "--out", str(tmp_path)]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert "charge strength must be finite and nonzero, got -inf" in err
        assert "usage" not in err

    def test_infinite_rmax_names_the_flags(self, tmp_path, capsys):
        argv = ["radial", "--a", "1", "--order", "4", "--rmax", "inf", "--out", str(tmp_path)]
        assert run_cli(argv) == 2
        assert "--rmin and --rmax need 0 < rmin < rmax < inf" in capsys.readouterr().err


def _field_csv_by_loop(path, lo, h, values):
    """Per-node writer the vectorized one replaced; the byte-level reference."""
    lo = np.asarray(lo)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "y", "z", "u"])
        nx, ny, nz = values.shape
        for i in range(nx):
            for j in range(ny):
                for k in range(nz):
                    x, y, z = lo + h * np.array([i, j, k])
                    writer.writerow([format(v, ".17g") for v in (x, y, z, values[i, j, k])])


def test_profile_csv_bytes_match_csv_writer(tmp_path):
    # the radii column is kept for the next call on the same grid: the
    # default grid and 300 points, each missed and then hit, and the default
    # missed again
    for k, points in enumerate((1200, 1200, 300, 300, 1200)):
        out = tmp_path / str(k)
        argv = ["radial", "--a", "-1.5", "--order", "3", "--points", str(points)]
        assert run_cli(argv + ["--out", str(out)]) == 0
        profile = radial.approx_radial_profile(-1.5, 3, 3, np.geomspace(1e-7, 1e3, points))
        with (out / "old.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["r", "u", "du"])
            for r, u, du in zip(profile.r, profile.u, profile.du):
                writer.writerow([format(v, ".17g") for v in (r, u, du)])
        assert (out / "profile.csv").read_bytes() == (out / "old.csv").read_bytes()


def test_field_csv_bytes_match_per_node_writer(tmp_path):
    # the row prefixes are kept for the next file on the same grid: each
    # grid missed and then hit, and the first missed again
    rng = np.random.default_rng(7)
    a, b = (
        (lo, h, rng.normal(0.0, 1.0, shape) * 10.0 ** rng.integers(-20, 20, shape))
        for shape, lo, h in (((4, 5, 6), (-1.3, 0.1, 2.0), 0.1),
                             ((3, 2, 7), (0.0, -0.0, 1e-9), 2.5))
    )
    a[2][0, 0, 0] = b[2][0, 0, 0] = 0.0
    a[2][1, 1, 3] = b[2][1, 1, 3] = -0.0
    for k, (lo, h, values) in enumerate((a, a, b, b, a)):
        cli._write_field_csv(tmp_path / f"new{k}.csv", lo, h, values)
        _field_csv_by_loop(tmp_path / f"old{k}.csv", lo, h, values)
        assert (tmp_path / f"new{k}.csv").read_bytes() == (tmp_path / f"old{k}.csv").read_bytes()


def test_grid_caches_are_read_only(tmp_path):
    r, column = cli._radial_grid(1e-7, 1e3, 9000)
    assert len(r) == 9000 and [len(w) for w in column] == [cli._CHUNK, 9000 - cli._CHUNK]
    values = np.zeros((3, 3, 3))
    cli._write_field_csv(tmp_path / "field.csv", (0.0, 0.0, 0.0), 0.5, values)
    prefixes = cli._field_prefixes((0.0, 0.0, 0.0), 0.5, values.shape)
    for array in (r, *column, *prefixes):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    assert cli._radial_grid(1e-7, 1e3, 9000)[0] is r


def test_field_csv_blocks_split_planes(tmp_path):
    # 7 planes of 40 x 41 nodes: the first block of nodes ends inside a
    # plane and the last is short; values span subnormals to 1e300
    shape = (7, 40, 41)
    assert math.prod(shape) % cli._CHUNK and cli._CHUNK % (shape[1] * shape[2])
    rng = np.random.default_rng(11)
    values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-320, 300, shape)
    values[3, 0, :5] = [0.0, -0.0, 5e-324, 1e-320, 1e300]
    lo, h = (-1e-3, 2.5, -7.0), 1e-3
    cli._write_field_csv(tmp_path / "new.csv", lo, h, values)
    _field_csv_by_loop(tmp_path / "old.csv", lo, h, values)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _csv_texts(values, sep=0):
    """The bytes ``cli._words`` gives each value, its NUL padding dropped."""
    words = cli._words(np.asarray(values, dtype=float), sep)
    return [row.tobytes().translate(None, b"\0") for row in words]


def _format17(values, prefix=b""):
    return [prefix + format(v, ".17g").encode() for v in np.asarray(values, dtype=float).tolist()]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64),
    st.lists(st.floats(), max_size=64),
)
def test_words_match_format_on_any_binary64(patterns, floats):
    values = np.concatenate([np.array(patterns, np.uint64).view(np.float64), floats])
    assert _csv_texts(values) == _format17(values)


def test_words_match_format_on_edge_values():
    tiny, normal = 5e-324, 2.2250738585072014e-308
    values = [0.0, tiny, 2 * tiny, np.nextafter(normal, 0), normal, sys.float_info.max]
    values += [math.inf, math.nan]
    for e in range(-323, 309):
        power = float(f"1e{e}")
        values += [np.nextafter(power, 0), power, np.nextafter(power, math.inf)]
    # exact 17-digit ties: q / 2^(s+1) scaled by 10^s is q 5^s / 2, q odd
    for s in range(23):
        first = -(-2 * 10**16 // 5**s) | 1
        last = (2 * 10**17 - 1) // 5**s - 1 | 1
        for q in (*range(first, first + 40, 2), *range(last - 40, last + 1, 2)):
            assert (q * 5**s) % 2 == 1 and 2 * 10**16 <= q * 5**s < 2 * 10**17
            values.append(math.ldexp(q, -(s + 1)))
    values = np.array(values)
    values = np.concatenate([values, -values])
    assert _csv_texts(values) == _format17(values)
    assert _csv_texts(values, cli._SEP) == _format17(values, b",")
    assert _csv_texts(values, cli._EOL) == _format17(values, b"\r\n")


# ---------------------------------------------------------------------------
# report.json: the bytes of json.dumps(indent=2, sort_keys=True)
# ---------------------------------------------------------------------------


def _reference(obj):
    """The report rules that json.dumps(_, indent=2, sort_keys=True) is given:
    an enum as its value, a numpy scalar as its item(), non-finite floats as
    strings and a record as the dict of its fields."""
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {k: _reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return "nan" if math.isnan(obj) else obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _reference(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def _report_text(obj) -> str:
    out = []
    cli._json(obj, out, "\n")
    return "".join(out)


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e-7,
                1.7976931348623157e308, math.inf, -math.inf, math.nan]
_FLOATS = st.floats(allow_subnormal=True) | st.sampled_from(_EDGE_FLOATS)
_TEXT = st.text(st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f a\u00e9\u2028\U0001f600')) | st.text()
_SCALARS = st.one_of(
    _FLOATS,
    st.integers() | st.integers(-(2**80), 2**80),
    st.booleans(),
    st.none(),
    _TEXT,
    st.sampled_from(conditions.VerdictLevel),
    _FLOATS.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.builds(conditions.PairVerdict, j=st.integers(0, 9), l=st.integers(0, 9),
              level=st.sampled_from(conditions.VerdictLevel), separation=_FLOATS),
    st.builds(field.SegmentRecord, j=st.integers(0, 9), l=st.integers(0, 9),
              distance=_FLOATS, same_sign=st.booleans(), chord_defect=_FLOATS,
              light_ratio=_FLOATS, near_light=st.booleans()),
)
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=200)
@given(_TREES)
def test_report_writer_matches_json_dumps(tree):
    assert _report_text(tree) == json.dumps(_reference(tree), indent=2, sort_keys=True)


def test_report_writer_on_empty_and_nested_containers():
    tree = {"b": [], "a": {}, "c": [[], {}, ([()],)], "": {"z": (1,), "y": [{}]}}
    assert _report_text(tree) == json.dumps(_reference(tree), indent=2, sort_keys=True)
    record = field.SegmentRecord(j=1, l=0, distance=math.inf, same_sign=True,
                                 chord_defect=-0.0, light_ratio=math.nan, near_light=False)
    assert json.loads(_report_text([record])) == [{
        "chord_defect": -0.0, "distance": "inf", "j": 1, "l": 0, "light_ratio": "nan",
        "near_light": False, "same_sign": True,
    }]


@pytest.mark.parametrize(
    "value", [np.zeros(2), {1, 2}, object(), conditions.PairVerdict, np.bool_(True), b"x"],
    ids=["array", "set", "object", "record-type", "numpy-bool", "bytes"],
)
def test_report_writer_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(_reference(value))
    with pytest.raises(TypeError, match="not JSON serializable"):
        _report_text({"results": [value]})


_REPORT_RUNS = {
    "constants": ["constants", "--dim", "3", "--orders", "4,8,16"],
    "check-dipole": ["check", "{dipole}"],
    "check-one-charge": ["check", "{single}"],
    "radial": ["radial", "--a", "1", "--order", "4", "--points", "50"],
    "radial-unpredicted": ["radial", "--a", "2", "--order", "2", "--dim", "4", "--points", "50"],
    "solve": ["solve", "{solve}"],
}


@pytest.mark.parametrize("run", sorted(_REPORT_RUNS))
def test_report_json_is_its_own_canonical_dump(tmp_path, run):
    # what json.dumps writes back from the parsed report is the report: indent 2,
    # sorted keys, ASCII with \\u escapes, and one final newline
    configs = {
        "dipole": DIPOLE,
        "single": {"dim": 3, "charges": [{"pos": [0.0, 0.0, 0.0], "a": 1.0}]},
        "solve": TestSolveCommand.SOLVE,
    }
    argv = [a.format(**{k: write_config(tmp_path / f"{k}.json", c) for k, c in configs.items()})
            for a in _REPORT_RUNS[run]]
    assert run_cli(argv + ["--out", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "report.json").read_text()
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text
    results = json.loads(text)["results"]
    if run == "check-one-charge":
        assert results["verdicts"][0]["margin"] == "inf"
    if run == "radial-unpredicted":
        assert results["predicted"] is None


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize("command", ["constants", "check", "radial", "solve"])
def test_unusable_out_exit_2(tmp_path, capsys, command, below):
    argv = {
        "constants": ["constants", "--dim", "3"],
        "check": ["check", write_config(tmp_path / "c.json", DIPOLE)],
        "radial": ["radial", "--a", "1", "--order", "4", "--points", "50"],
        "solve": ["solve", write_config(tmp_path / "s.json", TestSolveCommand.SOLVE)],
    }[command]
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    out = blocker / "out" if below else blocker
    assert run_cli(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot use --out {out}: ")
    assert ("Not a directory" if below else "File exists") in err
    assert "Traceback" not in err
    assert blocker.read_text() == "not a directory"


def _argv(tmp_path, command):
    """A call of ``command`` that succeeds, without ``--out``."""
    return {
        "constants": ["constants", "--dim", "3"],
        "check": ["check", write_config(tmp_path / "c.json", DIPOLE)],
        "radial": ["radial", "--a", "1", "--order", "4", "--points", "50"],
        "solve": ["solve", write_config(tmp_path / "s.json", TestSolveCommand.SOLVE)],
    }[command]


@pytest.mark.parametrize(
    "command, name",
    [("constants", "report.json"), ("check", "report.json"), ("radial", "profile.csv"),
     ("radial", "report.json"), ("solve", "field.csv"), ("solve", "report.json")],
)
def test_directory_in_an_output_file_place_exit_2(tmp_path, capsys, command, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert run_cli(_argv(tmp_path, command) + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out / name}: Is a directory\n"
    assert (out / name).is_dir()


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize(
    "command, work",
    [("radial", (radial, "approx_radial_profile")), ("solve", (field, "minimize_energy"))],
    ids=["radial", "solve"],
)
def test_unusable_out_exit_2_before_the_work(tmp_path, monkeypatch, capsys, command,
                                             work, below):
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{work[1]} ran")

    monkeypatch.setattr(*work, unreachable)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    out = blocker / "out" if below else blocker
    assert run_cli(_argv(tmp_path, command) + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot use --out {out}: " + (
        "Not a directory\n" if below else "File exists\n")


@pytest.mark.parametrize("refuses", ["mkdir", "write_text", "open"])
@pytest.mark.parametrize("command", ["constants", "check", "radial", "solve"])
def test_unwritable_out_exit_2(tmp_path, monkeypatch, capsys, command, refuses):
    # as a directory without write permission would; reads still work, so
    # the config loads
    argv = _argv(tmp_path, command)
    original = getattr(Path, refuses)

    def refused(self, *args, **kwargs):
        mode = args[0] if args else kwargs.get("mode", "r")
        if refuses == "open" and "w" not in mode:
            return original(self, *args, **kwargs)
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(Path, refuses, refused)
    out = tmp_path / "out"
    assert run_cli(argv + ["--out", str(out)]) == 2
    first = {"radial": "profile.csv", "solve": "field.csv"}.get(command, "report.json")
    what = {"mkdir": f"use --out {out}", "write_text": f"write {out / 'report.json'}",
            "open": f"write {out / first}"}[refuses]
    assert capsys.readouterr() == ("", f"error: cannot {what}: Permission denied\n")


_IMPORT_PROBE = """
import json, sys
import borninfeld


def grid():
    return [m for m in ("borninfeld.field", "borninfeld._linear") if m in sys.modules]


bare = grid()
from borninfeld.cli import main

out, config, solve_config = sys.argv[1:]
codes = [
    main(["constants", "--dim", "3", "--orders", "4", "--out", out]),
    main(["check", config, "--out", out]),
    main(["radial", "--a", "1", "--order", "4", "--points", "50", "--out", out]),
]
light = sorted(m for m in sys.modules if m.startswith("scipy"))
light_grid = grid()
codes.append(main(["solve", solve_config, "--out", out]))
solve = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps({"codes": codes, "light": light, "solve": solve,
                  "grid": [bare, light_grid, grid()]}))
"""


def _fresh_env():
    """The environment of a fresh process that imports this checkout's package."""
    src = Path(cli.__file__).resolve().parents[1]
    return dict(
        os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    )


def test_scipy_stays_off_the_import_path(tmp_path):
    # This module imports scipy itself, so the probe runs in a fresh process.
    config = write_config(tmp_path / "c.json", DIPOLE)
    solve_config = write_config(tmp_path / "s.json", TestSolveCommand.SOLVE)
    argv = [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "out"), config, solve_config]
    done = subprocess.run(
        argv, env=_fresh_env(), capture_output=True, text=True, check=True
    )
    probe = json.loads(done.stdout.splitlines()[-1])
    assert probe["codes"] == [0, 0, 0, 0]
    # import borninfeld.cli, constants, check and radial load no scipy module
    assert probe["light"] == []
    # nor does solve: the incomplete Beta of its boundary data and starting
    # guess is evaluated with numpy alone, so all four commands load none
    assert probe["solve"] == []
    # the grid solver loads for solve only: not with the package, nor with
    # the cli, constants, check or radial
    assert probe["grid"] == [[], [], ["borninfeld.field", "borninfeld._linear"]]


_SPACING = "grid spacing must be finite, in [1e-100, 1e100]"


class TestSolveCommand:
    SOLVE = {
        "dim": 3,
        "charges": [{"pos": [0.0, 0.0, 0.0], "a": 1.0}],
        "box": {"lo": -2.0, "hi": 2.0, "h": 0.25},
        "order_m": 2,
        "boundary_rule": "radial-superposition",
    }

    def test_thin_clearance_warns_in_one_stderr_line(self, tmp_path, capsys):
        # each call prints the solver's UserWarning as one "warning:" line,
        # not Python's file:line format; library callers still get the warning
        charges = [{"pos": [-1.0, 0.0, 0.0], "a": 1.0}, {"pos": [1.0, 0.0, 0.0], "a": -1.0}]
        box = {"lo": -3.0, "hi": 3.0, "h": 0.25}
        config = write_config(tmp_path / "solve.json", dict(self.SOLVE, charges=charges, box=box))
        for out in ("a", "b"):
            assert run_cli(["solve", config, "--out", str(tmp_path / out)]) == 0
            captured = capsys.readouterr()
            assert captured.err == (
                "warning: boundary clearance 2 is below twice the min charge spacing 2; "
                "truncation effects grow\n"
            )
            assert captured.out.startswith("solve: converged")
        with pytest.warns(UserWarning, match="boundary clearance 2 is below"):
            field.assemble_problem(cli.load_config(Path(config), need_box=True)["config"],
                                   -3.0, 3.0, 0.25, 2)

    def test_other_warnings_keep_their_filters(self, tmp_path, capsys, monkeypatch):
        def assemble(*args, _assemble=field.assemble_problem):
            warnings.warn("a future change", FutureWarning)
            return _assemble(*args)

        monkeypatch.setattr(field, "assemble_problem", assemble)
        config = write_config(tmp_path / "solve.json", self.SOLVE)
        with pytest.warns(FutureWarning, match="a future change"):
            assert run_cli(["solve", config, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        with warnings.catch_warnings():
            warnings.simplefilter("error", FutureWarning)
            with pytest.raises(FutureWarning):
                run_cli(["solve", config, "--out", str(tmp_path)])

    def test_single_charge_solve(self, tmp_path):
        config = write_config(tmp_path / "solve.json", self.SOLVE)
        assert run_cli(["solve", config, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        validate_report(report)
        results = report["results"]
        assert results["converged"] is True
        assert results["stop_reason"] == "converged"
        assert results["energy"] < 0
        assert len(results["cg_per_step"]) == results["iterations"]
        assert sum(results["cg_per_step"]) == results["cg_iterations"]
        (extremum,) = results["extremum"]
        assert extremum["kind"] == "max"
        assert extremum["matches_charge_sign"] is True
        with (tmp_path / "field.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["x", "y", "z", "u"]
        assert len(rows) == 17**3 + 1

    def test_paper_limit_order_10000_solve(self, tmp_path):
        # the closed form takes every cell but the charge's, so m = 10^4 costs
        # about what m = 1000 does, and the two truncations agree to rounding
        energies = []
        for m in (1000, 10_000):
            out = tmp_path / str(m)
            config = write_config(tmp_path / f"{m}.json", dict(self.SOLVE, order_m=m))
            assert run_cli(["solve", config, "--out", str(out)]) == 0
            results = json.loads((out / "report.json").read_text())["results"]
            assert results["converged"] is True
            energies.append(results["energy"])
        assert energies[1] == pytest.approx(energies[0], rel=1e-12)

    def test_non_cubic_box_solve(self, tmp_path):
        # 9 x 17 x 25 nodes: a swapped stride would pass every cubic test
        payload = dict(self.SOLVE)
        payload["box"] = {"lo": [-1.0, -2.0, -3.0], "hi": [1.0, 2.0, 3.0], "h": 0.25}
        config = write_config(tmp_path / "solve.json", payload)
        assert run_cli(["solve", config, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["converged"] is True
        (extremum,) = report["results"]["extremum"]
        assert extremum["node"] == [4, 8, 12]
        assert extremum["kind"] == "max"
        data = np.loadtxt(tmp_path / "field.csv", delimiter=",", skiprows=1)
        grid = data[:, :3].reshape(9, 17, 25, 3)
        for d, (lo, n) in enumerate(zip((-1.0, -2.0, -3.0), (9, 17, 25))):
            index = [0, 0, 0]
            index[d] = slice(None)
            assert np.array_equal(grid[tuple(index)][:, d], lo + 0.25 * np.arange(n))
        u = data[:, 3].reshape(9, 17, 25)
        assert u[4, 8, 12] == u.max()
        # the box and the charge are mirror symmetric in each axis
        for flipped in (u[::-1], u[:, ::-1], u[:, :, ::-1]):
            assert np.max(np.abs(flipped - u)) <= 1e-8

    def test_report_lists_each_charge_block(self, tmp_path):
        # one node from the x = -2 face the 3^3 block loses its outer layer
        payload = dict(self.SOLVE, charges=[{"pos": [-1.75, 0.0, 0.0], "a": 1.0}])
        config = write_config(tmp_path / "solve.json", payload)
        reports = []
        for out in ("a", "b"):
            assert run_cli(["solve", config, "--out", str(tmp_path / out)]) == 0
            reports.append((tmp_path / out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["results"]["charge_blocks"] == [18]

    @pytest.mark.filterwarnings("ignore:boundary clearance")
    def test_box_too_small_exit_2(self, tmp_path):
        payload = dict(self.SOLVE)
        payload["charges"] = [{"pos": [0.0, 0.0, 0.0], "a": 1.0},
                              {"pos": [1.9, 0.0, 0.0], "a": -1.0}]
        payload["box"] = {"lo": -2.0, "hi": 2.0, "h": 0.125}
        config = write_config(tmp_path / "solve.json", payload)
        assert run_cli(["solve", config, "--out", str(tmp_path)]) == 2

    def test_missing_box_exit_2(self, tmp_path):
        payload = {k: v for k, v in self.SOLVE.items() if k != "box"}
        config = write_config(tmp_path / "solve.json", payload)
        assert run_cli(["solve", config, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "lo", [-math.inf, [-2.0, math.nan, -2.0]], ids=["scalar-inf", "nan-entry"]
    )
    def test_non_finite_box_bound_exit_2(self, tmp_path, capsys, lo):
        # json.dumps writes -Infinity and NaN, which json.loads accepts back
        payload = dict(self.SOLVE, box={"lo": lo, "hi": 2.0, "h": 0.25})
        config = write_config(tmp_path / "solve.json", payload)
        assert run_cli(["solve", config, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "box.lo" in err
        assert "finite" in err

    @pytest.mark.parametrize(
        "box, message",
        [({"lo": -1e300, "hi": 1e300, "h": 1e300}, _SPACING),
         ({"lo": -1.0, "hi": 1.0, "h": 5e-324}, _SPACING),
         ({"lo": -1e-200, "hi": 1e-200, "h": 1e-200}, _SPACING),
         ({"lo": -1.0, "hi": 1.0, "h": 1e-50}, "node counts must be finite and numpy"),
         ({"lo": -1e300, "hi": 1e300, "h": 1e-100}, "node count must be finite")],
        ids=["h-1e300", "h-5e-324", "h-1e-200", "nodes-2e50", "nodes-inf"],
    )
    def test_spacing_outside_binary64_range_exit_2(self, tmp_path, capsys, box,
                                                   message):
        config = write_config(tmp_path / "solve.json", dict(self.SOLVE, box=box))
        assert run_cli(["solve", config, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [(["radial", "--a", "1", "--order", "1000000000000"], "order m must be at most"),
         (["constants", "--dim", "3", "--orders", "1000000000000"], "order m must be at most"),
         (["radial", "--a", "1", "--order", "4", "--points", "1000000000"],
          "radial grid needs 2 to 100000 points, got 1000000000"),
         (["solve", "{config}"], "order m must be at most 100000, got 1" + "0" * 400)],
        ids=["radial-order", "constants-orders", "radial-points", "solve-order"],
    )
    def test_oversized_inputs_exit_2_before_allocating(self, tmp_path, capsys, argv, message):
        config = write_config(tmp_path / "solve.json", dict(self.SOLVE, order_m=10**400))
        argv = [config if a == "{config}" else a for a in argv]
        start = time.perf_counter()
        assert run_cli(argv + ["--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 0.1
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_non_convergence_exit_4(self, tmp_path):
        payload = dict(self.SOLVE, tolerances={"solver": 1e-13})
        config = write_config(tmp_path / "solve.json", payload)
        assert run_cli(["solve", config, "--out", str(tmp_path), "--max-iter", "1"]) == 4
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["converged"] is False
        assert report["results"]["stop_reason"] == "max_iter"
        assert report["results"]["grad_norm"] > 0

    def test_zero_max_iter_takes_no_step_and_negative_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "solve.json", self.SOLVE)
        out = tmp_path / "out"
        assert run_cli(["solve", config, "--max-iter", "-3", "--out", str(out)]) == 2
        assert "--max-iter must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli(["solve", config, "--max-iter", "0", "--out", str(out)]) == 4
        results = json.loads((out / "report.json").read_text())["results"]
        assert (results["iterations"], results["stop_reason"]) == (0, "max_iter")

    def test_boundary_data_over_bound_exit_3(self, tmp_path, monkeypatch, capsys):
        exact = field._single_charge_field

        def inflated(*args):
            u0, u = exact(*args)
            return u0, 100.0 * u

        monkeypatch.setattr(field, "_single_charge_field", inflated)
        config = write_config(tmp_path / "solve.json", self.SOLVE)
        assert run_cli(["solve", config, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "exceeds the central-value bound" in err
        assert "Traceback" not in err

    def test_incomplete_beta_non_convergence_exit_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(quad, "_BETA_MAX_TERMS", 2)
        config = write_config(tmp_path / "solve.json", self.SOLVE)
        assert run_cli(["solve", config, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "not converged after 2 terms" in err
        assert "Traceback" not in err

    def test_objective_beyond_binary64_exit_2(self, tmp_path, capsys):
        payload = dict(self.SOLVE, charges=[{"pos": [0.0, 0.0, 0.0], "a": 1e300}],
                       box={"lo": -1.0, "hi": 1.0, "h": 0.25})
        config = write_config(tmp_path / "solve.json", payload)
        assert run_cli(["solve", config, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "starting energy is -inf" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_huge_but_finite_objective_exit_4(self, tmp_path):
        # a = 1e100 starts finite; every trial along the first Newton
        # direction overflows the energy series, so the line search fails,
        # without an overflow warning (a RuntimeWarning fails the test)
        payload = dict(self.SOLVE, charges=[{"pos": [0.0, 0.0, 0.0], "a": 1e100}],
                       box={"lo": -1.0, "hi": 1.0, "h": 0.25})
        config = write_config(tmp_path / "solve.json", payload)
        assert run_cli(["solve", config, "--out", str(tmp_path)]) == 4
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        assert results["stop_reason"] == "line_search_failed"

    @pytest.mark.parametrize(
        "box, m, rule",
        [({"lo": -1.0, "hi": 1.0, "h": 0.5}, 1, "zero"),
         ({"lo": -1000.0, "hi": 1000.0, "h": 250.0}, 8, "radial-superposition")],
        ids=["gradient-norm", "curvature"],
    )
    def test_underflowing_solver_sums_exit_4(self, tmp_path, box, m, rule):
        # a = 1e-200 squares to below binary64: the gradient's 2-norm, then
        # PCG's curvature d.Hd, underflow to 0 while max |g| > tol; both once
        # divided by zero
        payload = {"dim": 3, "charges": [{"pos": [0.0, 0.0, 0.0], "a": 1e-200}],
                   "box": box, "order_m": m, "boundary_rule": rule,
                   "tolerances": {"solver": 1e-300}}
        config = write_config(tmp_path / "solve.json", payload)
        assert run_cli(["solve", config, "--out", str(tmp_path)]) == 4
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        assert results["stop_reason"] == "line_search_failed"

    @pytest.mark.parametrize(
        "a, edits, message",
        [(1e-128, {"box": {"lo": -2e-81, "hi": 2e-81, "h": 2.5e-82}, "order_m": 1000},
          "starting energy is inf"),
         (5e-324, {}, "too weak for binary64")],
        ids=["energy-series-overflows", "charge-length-underflows"],
    )
    def test_start_outside_binary64_exit_2_without_warning(self, tmp_path, capsys, a,
                                                           edits, message):
        # the order-1000 series overflows at the start; (|a|/omega)^(1/2) is 0
        # for a = 5e-324.  Exit 2 with no warning (a RuntimeWarning fails the test)
        payload = dict(self.SOLVE, charges=[{"pos": [0.0, 0.0, 0.0], "a": a}], **edits)
        config = write_config(tmp_path / "solve.json", payload)
        assert run_cli(["solve", config, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:boundary clearance")
    def test_dipole_solve_reports_extrema(self, tmp_path):
        payload = {
            "dim": 3,
            "charges": [
                {"pos": [-1.0, 0.0, 0.0], "a": 1.0},
                {"pos": [1.0, 0.0, 0.0], "a": -1.0},
            ],
            "box": {"lo": -4.0, "hi": 4.0, "h": 0.25},
            "order_m": 2,
            "boundary_rule": "radial-superposition",
        }
        config = write_config(tmp_path / "solve.json", payload)
        assert run_cli(["solve", config, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        kinds = {e["strength"]: e["kind"] for e in report["results"]["extremum"]}
        assert kinds[1.0] == "max"
        assert kinds[-1.0] == "min"
        (segment,) = report["results"]["segments"]
        assert segment["near_light"] is False

    @pytest.mark.filterwarnings("ignore:boundary clearance")
    def test_record_keys(self, tmp_path):
        # extremum, segment and gradient sup records go into the report
        # whole, so a field added to one of them shows here
        charges = [{"pos": [-1.0, 0.0, 0.0], "a": 1.0}, {"pos": [1.0, 0.0, 0.0], "a": -1.0}]
        box = {"lo": -3.0, "hi": 3.0, "h": 0.25}
        config = write_config(tmp_path / "solve.json", dict(self.SOLVE, charges=charges, box=box))
        assert run_cli(["solve", config, "--out", str(tmp_path)]) == 0
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        assert [set(e) for e in results["extremum"]] == 2 * [
            {"node", "strength", "kind", "margin", "matches_charge_sign"}
        ]
        (segment,) = results["segments"]
        assert set(segment) == {
            "j", "l", "distance", "same_sign", "chord_defect", "light_ratio",
            "near_light",
        }
        assert set(results["gradient_sup"]) == {"sup", "argmax_distance"}


# ---------------------------------------------------------------------------
# Error taxonomy: InputError -> 2, AccuracyError -> 3, anything else escapes
# ---------------------------------------------------------------------------

BAD_TOLERANCES = pytest.mark.parametrize(
    "tol", [math.inf, math.nan, 0.0, -1.0], ids=["inf", "nan", "zero", "negative"]
)


@BAD_TOLERANCES
@pytest.mark.parametrize("command,key", [("solve", "solver")])
def test_config_tolerance_must_be_positive_and_finite(
    tmp_path, capsys, command, key, tol
):
    payload = dict(TestSolveCommand.SOLVE, tolerances={key: tol})
    config = write_config(tmp_path / "c.json", payload)
    assert run_cli([command, config, "--out", str(tmp_path / "out")]) == 2
    assert f"tolerances.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "solve"])
def test_quadrature_tolerance_key_exit_2(tmp_path, capsys, command):
    # Ctilde's quadrature tolerance is fixed, so the key is unknown
    payload = dict(TestSolveCommand.SOLVE, tolerances={"quadrature": 1e-4})
    config = write_config(tmp_path / "c.json", payload)
    assert run_cli([command, config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "'tolerances': unknown keys ['quadrature']" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["radial", "--a", "1", "--order", "4", "--tol", "1e-3"],
        ["constants", "--dim", "3", "--tol", "1e-3"],
        ["check", "{config}", "--tol", "1e-3"],
        ["solve", "{config}", "--tol", "1e-3"],
        ["radial", "--a", "1", "--order", "4", "--override-guarantee"],
        ["check", "{config}", "--override-guarantee"],
        ["solve", "{config}", "--override-guarantee"],
    ],
    ids=["radial-tol", "constants-tol", "check-tol", "solve-tol", "radial-override",
         "check-override", "solve-override"],
)
def test_flags_a_command_does_not_read_are_rejected(tmp_path, argv):
    config = write_config(tmp_path / "c.json", TestSolveCommand.SOLVE)
    argv = [config if a == "{config}" else a for a in argv]
    with pytest.raises(SystemExit) as caught:
        run_cli(argv + ["--out", str(tmp_path / "out")])
    assert caught.value.code == 2


def test_every_option_is_read_by_its_command():
    # an option no command reads parses and then changes nothing
    parser = cli._build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, subparser in sub.choices.items():
        source = inspect.getsource(subparser.get_default("func"))
        for action in subparser._actions:
            if action.dest != "help":
                assert f"args.{action.dest}" in source, (
                    f"{name} defines {action.option_strings or action.dest} "
                    "but never reads it"
                )


def test_every_config_key_is_read_by_a_command(tmp_path):
    # a key load_config accepts but no command reads validates and then
    # changes nothing; dim and charges reach the commands only as
    # cfg["config"], the ChargeConfig built from them, never as a second copy
    cfg = cli.load_config(Path(write_config(tmp_path / "c.json", DIPOLE)), need_box=False)
    assert "dim" not in cfg and "charges" not in cfg
    source = "".join(
        inspect.getsource(f) for name, f in vars(cli).items() if name.startswith("cmd_")
    )
    assert 'cfg["config"]' in source
    for key in (cli._TOP_KEYS - {"dim", "charges"}) | cli._BOX_KEYS | cli._TOL_KEYS:
        assert f'["{key}"]' in source or f'.get("{key}"' in source, (
            f"config key {key!r} is accepted but never read"
        )


@pytest.mark.parametrize("command", ["constants", "check", "radial", "solve"])
def test_report_schema_is_every_results_key_a_command_writes(tmp_path, command):
    # validate_report requires _RESULT_KEYS[command], so a key missing from
    # the schema is one a report could drop unnoticed
    argv = {
        "constants": ["constants", "--dim", "3", "--orders", "4"],
        "check": ["check", write_config(tmp_path / "c.json", DIPOLE)],
        "radial": ["radial", "--a", "1", "--order", "4"],
        "solve": ["solve", write_config(tmp_path / "s.json", TestSolveCommand.SOLVE)],
    }[command]
    assert run_cli(argv + ["--out", str(tmp_path / "out")]) == 0
    results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
    assert set(results) == cli._RESULT_KEYS[command]


@pytest.mark.parametrize("command", ["constants", "check", "radial", "solve"])
def test_report_envelope_records_the_command_and_seed(tmp_path, command):
    out = tmp_path / "out"
    assert run_cli(_argv(tmp_path, command) + ["--seed", "7", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"command", "seed", "inputs", "results"}
    assert (report["command"], report["seed"]) == (command, 7)


def test_repeated_calls_build_one_parser_and_share_no_state(tmp_path, monkeypatch):
    # main builds its parser once per process; a default handed to one call
    # must not carry into the next, and commands are looked up per call
    builds = []
    build = cli._build_parser

    def counted_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counted_build)
    monkeypatch.setattr(cli, "_parser", None)
    calls = [
        ["radial", "--a", "1", "--order", "4", "--fit-window", "1e-7", "1e-5"],
        ["radial", "--a", "1", "--order", "4"],
        ["constants", "--dim", "3", "--orders", "4,8"],
        ["constants", "--dim", "3"],
    ]
    ran = []
    for i, argv in enumerate(calls):
        assert main(argv + ["--out", str(tmp_path / "same" / str(i))]) == 0
        if i == 0:
            original = cli.cmd_constants

            def patched(args):
                ran.append(args.orders)
                return original(args)

            monkeypatch.setattr(cli, "cmd_constants", patched)
    assert builds == [1]
    assert ran == [(4, 8), ()]
    for i, argv in enumerate(calls):
        fresh = tmp_path / "fresh" / str(i)
        subprocess.run(
            [sys.executable, "-m", "borninfeld", *argv, "--out", str(fresh)],
            env=_fresh_env(), capture_output=True, check=True,
        )
        same = tmp_path / "same" / str(i)
        names = sorted(p.name for p in same.iterdir())
        assert names == sorted(p.name for p in fresh.iterdir())
        for name in names:
            assert (same / name).read_bytes() == (fresh / name).read_bytes(), (argv, name)


def test_traced_call_after_the_parser_is_built_records_the_command(tmp_path):
    from bench import tracing

    assert main(["constants", "--dim", "3", "--out", str(tmp_path)]) == 0
    assert cli._parser is not None
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["constants", "--dim", "3", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert tracer.aggregate()["cli.cmd_constants"]["calls"] == 1


def test_charges_cancelling_on_one_node_exit_2(tmp_path, capsys):
    # charges that snap to one node, cancelling or not, are 0 apart: the
    # resolution guard rejects them, and nothing is merged or warned about
    for a in (-1.0, 0.5):
        payload = dict(
            TestSolveCommand.SOLVE,
            charges=[{"pos": [0.0, 0.0, 0.0], "a": 1.0}, {"pos": [0.05, 0.0, 0.0], "a": a}],
        )
        config = write_config(tmp_path / "c.json", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["solve", config, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "spacing 0.25 is too coarse" in err and "(separation 0)" in err
        assert not (tmp_path / "out").exists()


def test_internal_error_escapes_main(tmp_path, monkeypatch):
    # a ValueError from a bug is not invalid input: it must surface as a traceback
    def bug(N):
        raise ValueError("bug")

    monkeypatch.setattr(cli, "shape_constant_A", bug)
    with pytest.raises(ValueError, match="^bug$"):
        run_cli(["constants", "--dim", "3", "--out", str(tmp_path)])


def ctilde_over_omega(N: int) -> float:
    """Ctilde(N)/omega_{N-1} from its Gamma form, independent of quadrature."""
    q = N - 1
    p = 2 * q
    B = special.beta(0.5 - 1.0 / p, 1.0 / p) / p
    head = -math.gamma(1 + 1 / (2 * q)) * math.gamma(-0.5 - 1 / (2 * q))
    return head / (2 * q * math.sqrt(math.pi)) / B**N


@pytest.mark.parametrize("N", range(3, 8))
def test_check_and_constants_report_the_same_ctilde(tmp_path, N):
    payload = {"dim": N, "charges": [{"pos": [0.0] * N, "a": 1.0}]}
    config = write_config(tmp_path / "c.json", payload)
    assert run_cli(["check", config, "--out", str(tmp_path / "check")]) == 0
    assert run_cli(["constants", "--dim", str(N), "--out", str(tmp_path / "const")]) == 0
    check, constants = (
        json.loads((tmp_path / d / "report.json").read_text()) for d in ("check", "const")
    )
    assert check["inputs"]["ctilde"] == constants["results"]["refined_constant"]


@pytest.mark.parametrize(
    "N,code", [(65, 0), (66, 0), (87, 0), (88, 0), (100, 0), (343, 0), (344, 2)]
)
def test_constants_at_high_dimension(tmp_path, capsys, N, code):
    # From N = 344 Gamma(N/2) overflows; it used to escape as OverflowError.
    # From N = 88 r^(2(N-1)) overflows at the numerator's outer Kronrod
    # nodes, where its integrand must still read as a finite zero.
    assert run_cli(["constants", "--dim", str(N), "--out", str(tmp_path)]) == code
    if code == 0:
        report = json.loads((tmp_path / "report.json").read_text())
        ratio = report["results"]["refined_over_sphere"]
        assert ratio == pytest.approx(ctilde_over_omega(N), rel=1e-9)
    else:
        assert "binary64" in capsys.readouterr().err


@pytest.mark.parametrize("N,code", [(66, 1), (88, 1)])
def test_check_at_high_dimension(tmp_path, N, code):
    # no certificate applies to this dipole (exit 1), but the report carries
    # Ctilde; at N = 88 its numerator quadrature used to leave binary64
    origin = [0.0] * N
    payload = {
        "dim": N,
        "charges": [{"pos": origin, "a": 1.0}, {"pos": [3.0] + origin[1:], "a": -1.0}],
    }
    config = write_config(tmp_path / "c.json", payload)
    assert run_cli(["check", config, "--out", str(tmp_path)]) == code
    report = json.loads((tmp_path / "report.json").read_text())
    ratio = report["inputs"]["ctilde"] / quad.sphere_measure(N)
    assert ratio == pytest.approx(ctilde_over_omega(N), rel=1e-9)


def test_radial_central_value_of_a_huge_charge(tmp_path, capsys):
    # |a| = 1e100 puts u0 near 6.6e49; the head integral used to chase an
    # absolute 1e-10 and exit 3.  In the default window u - u0 is below the
    # rounding of u0, so the fit runs where the growth is resolvable.
    argv = [
        "radial", "--a", "1e100", "--order", "4", "--rmin", "1e30", "--rmax", "1e52",
        "--fit-window", "1e33", "1e37", "--out", str(tmp_path),
    ]
    assert run_cli(argv) == 0
    results = json.loads((tmp_path / "report.json").read_text())["results"]
    assert math.isfinite(results["central_value"])
    assert results["central_value"] == pytest.approx(6.5677704353645e49, rel=1e-12)
    assert results["u_fit"]["exponent"] == pytest.approx(5 / 7, rel=1e-3)
    capsys.readouterr()
    default = ["radial", "--a", "1e100", "--order", "4", "--out", str(tmp_path / "d")]
    assert run_cli(default) == 2
    assert "field equals its central value" in capsys.readouterr().err


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_check_with_overflowing_strength_sum_exit_2(tmp_path, capsys, sign):
    payload = {
        "dim": 3,
        "charges": [
            {"pos": [0.0, 0.0, 0.0], "a": sign * 1e308},
            {"pos": [1.0, 0.0, 0.0], "a": sign * 1e308},
        ],
    }
    config = write_config(tmp_path / "c.json", payload)
    assert run_cli(["check", config, "--out", str(tmp_path)]) == 2
    name = "positive" if sign > 0 else "negative"
    assert f"sum of the {name} strengths exceeds binary64" in capsys.readouterr().err


def test_radial_segment_failure_says_where(tmp_path, monkeypatch, capsys):
    # Make the engine fail on the second slope segment of its segment call
    # (the one whose intervals start above 0) and check the exit-3 message
    # locates the segment.
    engine = radial.adaptive_gauss_kronrod

    def failing(f, lo, hi, *args, **kwargs):
        if np.all(np.asarray(lo) > 0.0):
            exc = AccuracyError("tolerance not reached", estimate=1.25, error_bound=0.5)
            exc.interval = 1
            raise exc
        return engine(f, lo, hi, *args, **kwargs)

    monkeypatch.setattr(radial, "adaptive_gauss_kronrod", failing)
    argv = [
        "radial", "--a", "1", "--order", "4", "--points", "7", "--out", str(tmp_path),
    ]
    assert run_cli(argv) == 3
    err = capsys.readouterr().err
    assert "slope segment [" in err and "of the radii [" in err
    assert "estimate 1.25" in err and "error bound 0.5" in err


def test_radial_slope_past_alpha_m_times_dbl_max(tmp_path):
    # the flux target at r_min is 1.5e308, beyond alpha_2 * DBL_MAX: the
    # root find's upper bound must not overflow, or the first slope segment
    # ends at inf and the quadrature exits 3
    argv = [
        "radial", "--a", "1", "--order", "2", "--rmin", "2.3e-155", "--rmax", "1",
        "--points", "50", "--fit-window", "1e-36", "1e-6", "--out", str(tmp_path),
    ]
    assert run_cli(argv) == 0
    with (tmp_path / "profile.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert float(rows[1][2]) == pytest.approx(-6.700720245173168e102, rel=1e-14)
    assert all(math.isfinite(float(x)) for row in rows[1:] for x in row)


def test_radial_at_dimension_46_exit_2(tmp_path, capsys):
    # omega_45 (1e-7)^45 underflows to 0 at the default r_min
    argv = ["radial", "--a", "1", "--order", "4", "--dim", "46", "--out", str(tmp_path)]
    assert run_cli(argv) == 2
    assert "binary64 cannot hold" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Fuzzing the boundary: malformed input exits 2, never a traceback
# ---------------------------------------------------------------------------

FUZZ_BASE = {
    "dim": 3,
    "charges": [{"pos": [0.0, 0.0, 0.0], "a": 1.0}],
    "box": {"lo": [-2.0, -2.0, -2.0], "hi": 2.0, "h": 0.25},
    "order_m": 2,
    "boundary_rule": "radial-superposition",
    "tolerances": {"solver": 1e-9},
}
NUMBER_SLOTS = [
    ("dim",), ("charges", 0, "a"), ("charges", 0, "pos", 1), ("box", "lo"),
    ("box", "lo", 2), ("box", "hi"), ("box", "h"), ("order_m",),
    ("tolerances", "solver"),
]
CONTAINER_SLOTS = [
    ("charges",), ("charges", 0), ("charges", 0, "pos"), ("box",), ("tolerances",),
    ("boundary_rule",),
]
REQUIRED = [
    ("dim",), ("charges",), ("charges", 0, "pos"), ("charges", 0, "a"),
    ("box", "lo"), ("box", "hi"), ("box", "h"),
]
REQUIRED_FOR_SOLVE = [("box",), ("order_m",)]
# well-typed values out of range: load_config rejects order_m = 0, h = -0.25
# and the 2-long pos, and the domain's check (ChargeConfig) rejects a = 0
OUT_OF_RANGE = [
    (("charges", 0, "a"), 0.0), (("order_m",), 0), (("box", "h"), -0.25),
    (("charges", 0, "pos"), [0.0, 0.0]),
]
OUT_OF_RANGE_FOR_SOLVE = [(("box", "h"), 0.3), (("box", "hi"), -2.0)]
KNOWN_KEYS = set(FUZZ_BASE) | {"pos", "a", "lo", "hi", "h", "solver"}
_junk_scalars = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.lists(st.text(max_size=2), max_size=2),
)
JUNK = {"number": st.one_of(_junk_scalars, st.just({}), st.just({"x": 1})),
        "container": _junk_scalars}


def _edit(config: dict, path: tuple, value=None, delete: bool = False) -> None:
    *parents, last = path
    for key in parents:
        config = config[key]
    if delete:
        del config[last]
    else:
        config[last] = value


@st.composite
def malformed_runs(draw):
    """(command, config text) with exactly one defect in a valid config."""
    command = draw(st.sampled_from(["check", "solve"]))
    config = json.loads(json.dumps(FUZZ_BASE))
    kind = draw(st.sampled_from(
        ["junk", "non-finite", "missing", "unknown", "out-of-range", "truncated"]
    ))
    if kind == "truncated":
        text = json.dumps(config)
        return command, text[: draw(st.integers(0, len(text) - 1))]
    if kind == "junk":
        path = draw(st.sampled_from(NUMBER_SLOTS + CONTAINER_SLOTS))
        junk = JUNK["number" if path in NUMBER_SLOTS else "container"]
        _edit(config, path, draw(junk))
    elif kind == "non-finite":
        value = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        _edit(config, draw(st.sampled_from(NUMBER_SLOTS)), value)
    elif kind == "missing":
        extra = REQUIRED_FOR_SOLVE if command == "solve" else []
        _edit(config, draw(st.sampled_from(REQUIRED + extra)), delete=True)
    elif kind == "unknown":
        parent = draw(st.sampled_from([(), ("charges", 0), ("box",), ("tolerances",)]))
        names = st.text(min_size=1, max_size=4).filter(lambda k: k not in KNOWN_KEYS)
        key = draw(names)
        _edit(config, parent + (key,), 1)
    else:
        extra = OUT_OF_RANGE_FOR_SOLVE if command == "solve" else []
        path, value = draw(st.sampled_from(OUT_OF_RANGE + extra))
        _edit(config, path, value)
    return command, json.dumps(config)


@pytest.mark.parametrize("command", ["check", "solve"])
def test_fuzz_base_config_is_valid(tmp_path, command):
    config = write_config(tmp_path / "c.json", FUZZ_BASE)
    assert run_cli([command, config, "--out", str(tmp_path)]) == 0


@settings(max_examples=150)
@given(run=malformed_runs())
def test_malformed_config_exit_2(tmp_path_factory, run):
    command, text = run
    work = tmp_path_factory.mktemp("malformed")
    (work / "c.json").write_text(text)
    assert run_cli([command, str(work / "c.json"), "--out", str(work)]) == 2
    assert not (work / "report.json").exists()


MISSING = object()


def _message_case(path, value, message, need_box=True):
    """One defect of FUZZ_BASE: ``value`` at ``path`` (the whole config at
    ``()``), or the key deleted for MISSING; ``message`` follows 'config field '."""
    shown = "missing" if value is MISSING else repr(value)
    return pytest.param(path, value, need_box, f"config field {message}",
                        id=f"{'.'.join(map(str, path)) or '<root>'}={shown}")


CONFIG_MESSAGES = [
    _message_case((), [1], "'<root>': expected a JSON object"),
    _message_case(("extra",), 1, "'<root>': unknown keys ['extra']"),
    _message_case(("dim",), MISSING, "'dim': missing required key"),
    _message_case(("charges",), MISSING, "'charges': missing required key"),
    _message_case(("box",), MISSING, "'box': missing required key (needed for solves)"),
    _message_case(("order_m",), MISSING,
                  "'order_m': missing required key (needed for solves)"),
    _message_case(("dim",), 3.0, "'dim': expected an integer"),
    _message_case(("charges",), [], "'charges': expected a non-empty list"),
    _message_case(("charges", 0), 1.0, "'charges[0]': expected an object"),
    _message_case(("charges", 0, "q"), 1, "'charges[0]': unknown keys ['q']"),
    _message_case(("charges", 0, "pos"), MISSING, "'charges[0].pos': missing required key"),
    _message_case(("charges", 0, "a"), MISSING, "'charges[0].a': missing required key"),
    _message_case(("charges", 0, "pos"), [0.0, 0.0],
                  "'charges[0].pos': expected a list of 3 numbers"),
    _message_case(("charges", 0, "pos", 1), math.nan,
                  "'charges[0].pos[1]': expected a finite number"),
    _message_case(("charges", 0, "a"), math.inf, "'charges[0].a': expected a finite number"),
    _message_case(("charges", 0, "a"), True, "'charges[0].a': expected a finite number"),
    _message_case(("box",), [], "'box': expected an object"),
    _message_case(("box", "step"), 1, "'box': unknown keys ['step']"),
    _message_case(("box", "lo"), MISSING, "'box.lo': missing required key"),
    _message_case(("box", "h"), MISSING, "'box.h': missing required key"),
    _message_case(("box", "lo"), -math.inf, "'box.lo': expected a finite number or [x, y, z]"),
    _message_case(("box", "lo"), [-2.0, -2.0],
                  "'box.lo': expected a finite number or [x, y, z]"),
    _message_case(("box", "hi"), "2", "'box.hi': expected a finite number or [x, y, z]"),
    _message_case(("box", "lo", 2), math.nan, "'box.lo[2]': expected a finite number"),
    _message_case(("box", "h"), 0, "'box.h': expected a positive finite number"),
    _message_case(("box", "h"), -math.inf, "'box.h': expected a positive finite number"),
    _message_case(("order_m",), 0, "'order_m': expected an integer >= 1"),
    _message_case(("order_m",), 2.0, "'order_m': expected an integer >= 1"),
    _message_case(("boundary_rule",), "dirichlet",
                  "'boundary_rule': expected 'zero' or 'radial-superposition'"),
    _message_case(("tolerances",), [], "'tolerances': expected an object"),
    _message_case(("tolerances", "quadrature"), 1e-4,
                  "'tolerances': unknown keys ['quadrature']"),
    _message_case(("tolerances", "solver"), -1.0,
                  "'tolerances.solver': expected a positive finite number"),
    _message_case(("tolerances", "solver"), math.nan,
                  "'tolerances.solver': expected a positive finite number"),
    # check needs no order_m, but checks one that is there
    _message_case(("order_m",), -1, "'order_m': expected an integer >= 1", need_box=False),
]


@pytest.mark.parametrize("path, value, need_box, message", CONFIG_MESSAGES)
def test_config_messages(tmp_path, path, value, need_box, message):
    config = json.loads(json.dumps(FUZZ_BASE))
    if not path:
        config = value
    else:
        _edit(config, path, value, delete=value is MISSING)
    with pytest.raises(cli.ConfigError) as caught:
        cli.load_config(Path(write_config(tmp_path / "c.json", config)), need_box=need_box)
    assert str(caught.value) == message


@pytest.mark.parametrize("slot", [("charges", 0, "a"), ("box", "h"), ("tolerances", "solver")])
def test_integer_past_binary64_exit_2(tmp_path, capsys, slot):
    # json.loads reads 10^400 as an int, which float() cannot convert
    config = json.loads(json.dumps(FUZZ_BASE))
    _edit(config, slot, 10**400)
    assert run_cli(["solve", write_config(tmp_path / "c.json", config),
                    "--out", str(tmp_path / "out")]) == 2
    assert "finite number" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize(
    "content, message",
    [
        # a UTF-16 byte-order mark: the file is not UTF-8, and stays refused
        (b'\xff\xfe{"dim": 3}', "cannot read config file {}: 'utf-8' codec can't decode"),
        (b"[" * 1000 + b"]" * 1000, "cannot parse config file {}: maximum recursion depth"),
        (b'{"dim": ' + b"1" * 5000 + b"}", "cannot parse config file {}: Exceeds the limit"),
    ],
    ids=["not-utf-8", "nested-1000-deep", "5000-digit-integer"],
)
def test_undecodable_or_unparsable_config_exit_2(tmp_path, capsys, command, content,
                                                 message):
    path = tmp_path / "c.json"
    path.write_bytes(content)
    out = tmp_path / "out"
    assert run_cli([command, str(path), "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: " + message.format(path))
    assert not out.exists()


def test_check_on_a_directory_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["check", str(tmp_path), "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: cannot read config file {tmp_path}: ")
    assert "Is a directory" in line
    assert not out.exists()


def _break(*path, value=MISSING):
    """Delete the key at ``path`` of a report, or set it to ``value``."""
    def apply(report):
        _edit(report, path, value, delete=value is MISSING)
    return apply


@pytest.mark.parametrize(
    "breaks, message",
    [
        (_break("seed"), "report missing key 'seed'"),
        (_break("command", value="plot"), "unknown report command 'plot'"),
        (_break("inputs", value=[]), "report inputs/results must be objects"),
        (_break("results", "conclusive"), "report results missing keys ['conclusive']"),
        (_break("results", "verdicts", 0, "margin", value="wide"),
         "verdict margin must be numeric or inf"),
    ],
    ids=["envelope-key", "command", "inputs", "results-key", "margin"],
)
def test_validate_report_refuses_a_broken_report(tmp_path, breaks, message):
    assert run_cli(["check", write_config(tmp_path / "c.json", DIPOLE),
                    "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    validate_report(report)  # as emitted, it passes
    breaks(report)
    with pytest.raises(ValueError) as caught:
        validate_report(report)
    assert str(caught.value) == message


@st.composite
def extreme_runs(draw):
    """(command, config): a well-formed 3-d config at the edges of binary64,
    1 or 2 charges on distinct interior nodes of a 9^3 or 17^3 grid."""
    # strength and tolerance exponents are each mixed with the range below
    # -150, where squares of the field's scale underflow binary64
    command = draw(st.sampled_from(["check", "solve"]))
    nodes = draw(st.sampled_from([9, 17]))
    half = 10.0 ** draw(st.floats(-100.0, 99.0))
    h = 2 * half / (nodes - 1)
    sites = draw(st.lists(st.integers(0, (nodes - 2) ** 3 - 1), min_size=1, max_size=2,
                          unique=True))
    charges = [
        {"pos": [-half + h * (1 + i) for i in np.unravel_index(site, (nodes - 2,) * 3)],
         "a": draw(st.sampled_from([-1.0, 1.0]))
         * 10.0 ** draw(st.one_of(st.floats(-323.3, 308.0), st.floats(-323.3, -150.0)))}
        for site in sites
    ]
    tol = 10.0 ** draw(st.one_of(st.floats(-300.0, 300.0), st.floats(-300.0, -150.0)))
    config = {
        "dim": 3, "charges": charges, "box": {"lo": -half, "hi": half, "h": h},
        "order_m": draw(st.integers(1, 1000)),
        "boundary_rule": draw(st.sampled_from(["zero", "radial-superposition"])),
        "tolerances": {"solver": tol},
    }
    return command, config


@pytest.mark.filterwarnings("ignore:boundary clearance")
@settings(max_examples=120)
@given(run=extreme_runs())
def test_well_formed_extremes_exit_with_a_documented_code(tmp_path_factory, run):
    # strengths 5e-324 to 1e308, boxes +-1e-100 to +-1e99, m up to 1000,
    # tolerances 1e-300 to 1e300: every outcome is an exit code, never a
    # traceback or a RuntimeWarning
    command, config = run
    work = tmp_path_factory.mktemp("extreme")
    argv = [command, write_config(work / "c.json", config), "--out", str(work)]
    code = run_cli(argv + ["--max-iter", "4"] if command == "solve" else argv)
    event(f"{command} exit {code}")
    assert code in ({0, 1, 2} if command == "check" else {0, 2, 3, 4})


@settings(max_examples=120)
@given(
    # each range mixed with the region where most calls succeed
    a=st.one_of(
        st.floats(-1e300, 1e300),
        st.floats(-30.0, 30.0),
        st.sampled_from([math.inf, -math.inf, math.nan]),
    ),
    dim=st.one_of(st.integers(-2, 400), st.integers(3, 8)),
    order=st.one_of(st.integers(-2, 64), st.integers(1, 16)),
    points=st.one_of(st.integers(-2, 64), st.integers(48, 64)),
)
def test_radial_arguments_exit_0_2_or_3(tmp_path_factory, a, dim, order, points):
    out = tmp_path_factory.mktemp("radial")
    argv = [
        "radial", f"--a={a!r}", "--dim", str(dim), "--order", str(order),
        "--points", str(points), "--out", str(out),
    ]
    code = run_cli(argv)
    event(f"exit {code}")
    assert code in (0, 2, 3)
    if code == 0:
        with (out / "profile.csv").open() as handle:
            rows = list(csv.reader(handle))[1:]
        assert all(math.isfinite(float(x)) for row in rows for x in row)
        results = json.loads((out / "report.json").read_text())["results"]
        if 2 * order > dim:
            assert math.isfinite(results["central_value"])
            assert math.isfinite(results["u_fit"]["exponent"])


@settings(max_examples=40)
@given(dim=st.one_of(st.integers(-2, 400), st.integers(3, 70)))
def test_constants_dimension_exit_0_2_or_3(tmp_path_factory, dim):
    out = tmp_path_factory.mktemp("constants")
    code = run_cli(["constants", "--dim", str(dim), "--out", str(out)])
    event(f"exit {code}")
    assert code in (0, 2, 3)
    if code == 0:
        report = json.loads((out / "report.json").read_text())
        ratio = report["results"]["refined_over_sphere"]
        assert ratio == pytest.approx(ctilde_over_omega(dim), rel=1e-9)
