"""End-to-end tests of the command-line interface and its file outputs."""

import csv
import json
import math

import numpy as np
import pytest

from borninfeld import cli, field
from borninfeld.cli import main, validate_report


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

    def test_unattainable_tolerance_exit_3(self, tmp_path):
        args = ["constants", "--dim", "3", "--tol", "1e-30", "--out", str(tmp_path)]
        assert run_cli(args) == 3

    def test_out_of_range_order_needs_override(self, tmp_path):
        args = ["constants", "--dim", "3", "--orders", "2", "--out", str(tmp_path)]
        assert run_cli(args) == 2
        assert run_cli(args + ["--override-guarantee"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["orders"][0]["guaranteed"] is False


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
                    writer.writerow(
                        [cli._fmt(x), cli._fmt(y), cli._fmt(z), cli._fmt(values[i, j, k])]
                    )


def test_field_csv_bytes_match_per_node_writer(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.normal(0.0, 1.0, (4, 5, 6)) * 10.0 ** rng.integers(-20, 20, (4, 5, 6))
    values[0, 0, 0] = 0.0
    values[1, 2, 3] = -0.0
    lo, h = (-1.3, 0.1, 2.0), 0.1
    cli._write_field_csv(tmp_path / "new.csv", lo, h, values)
    _field_csv_by_loop(tmp_path / "old.csv", lo, h, values)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestSolveCommand:
    SOLVE = {
        "dim": 3,
        "charges": [{"pos": [0.0, 0.0, 0.0], "a": 1.0}],
        "box": {"lo": -2.0, "hi": 2.0, "h": 0.25},
        "order_m": 2,
        "boundary_rule": "radial-superposition",
    }

    def test_single_charge_solve(self, tmp_path):
        config = write_config(tmp_path / "solve.json", self.SOLVE)
        assert run_cli(["solve", config, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        validate_report(report)
        results = report["results"]
        assert results["converged"] is True
        assert results["energy"] < 0
        (extremum,) = results["extremum"]
        assert extremum["kind"] == "max"
        assert extremum["matches_charge_sign"] is True
        with (tmp_path / "field.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["x", "y", "z", "u"]
        assert len(rows) == 17**3 + 1

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

    def test_non_convergence_exit_4(self, tmp_path):
        config = write_config(tmp_path / "solve.json", self.SOLVE)
        assert (
            run_cli(
                ["solve", config, "--out", str(tmp_path), "--max-iter", "1",
                 "--tol", "1e-13"]
            )
            == 4
        )
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["converged"] is False
        assert report["results"]["grad_norm"] > 0

    def test_boundary_data_over_bound_exit_3(self, tmp_path, monkeypatch, capsys):
        exact = field.exact_radial_profile

        def inflated(*args, **kwargs):
            profile = exact(*args, **kwargs)
            profile.u[:] *= 100.0
            return profile

        monkeypatch.setattr(field, "exact_radial_profile", inflated)
        config = write_config(tmp_path / "solve.json", self.SOLVE)
        assert run_cli(["solve", config, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "exceeds the central-value bound" in err
        assert "Traceback" not in err

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
