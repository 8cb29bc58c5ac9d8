import csv
import io
import json

import numpy as np
import pytest

from radarbias import registration
from radarbias.cli import main

import oracles


def example_config(name="a"):
    ex = oracles.REGISTRATION_EXAMPLES[name]
    w = oracles.EXAMPLE_WEIGHTS
    return {
        "relative_bias": list(ex["relative_bias"]),
        "sensor1": dict(zip(("p_t", "azimuth", "elevation"), ex["geom1"])),
        "sensor2": dict(zip(("p_t", "azimuth", "elevation"), ex["geom2"])),
        "weights": dict(w),
    }


def scenario_doc(n_runs=200, n_steps=40, master_seed=5):
    return {
        "config": {"period": 1.0, "meas_var": 1.0, "process_var": 2.0,
                   "bias_var": 4.0, "rho": 2.0},
        "gains": {"alpha": 0.2, "beta": 0.04385},
        "n_runs": n_runs, "n_steps": n_steps, "master_seed": master_seed,
        "initial_state": [0.0, 0.0], "burn_in": None,
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRegister:
    def test_reference_example(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(example_config("a")))
        code, out, _ = run(capsys, "register", "--config", str(path))
        assert code == 0
        doc = json.loads(out)
        ex = oracles.REGISTRATION_EXAMPLES["a"]["expected"]
        assert doc["bias1"]["range_m"] == pytest.approx(ex[0], rel=1e-3)
        assert doc["bias1"]["azimuth_rad"] == pytest.approx(ex[1], rel=1e-3)
        assert doc["bias2"]["elevation_rad"] == pytest.approx(ex[5], rel=1e-3)
        assert doc["cost"] == pytest.approx(
            oracles.REGISTRATION_EXAMPLES["a"]["cost"], rel=1e-3)
        assert doc["constraint_residual_m"] < 1e-6

    def test_csv_format(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(example_config("a")))
        code, out, _ = run(capsys, "register", "--config", str(path),
                           "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["dr1_m"]) == pytest.approx(-1.7678e2, rel=1e-3)

    def test_stdin_config(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(example_config())))
        code, out, _ = run(capsys, "register", "--config", "-")
        assert code == 0
        assert json.loads(out)["cost"] == pytest.approx(1.6250e4, rel=1e-3)

    def test_singular_geometry_exit_two(self, tmp_path, capsys):
        doc = example_config()
        doc["sensor2"]["p_t"] = 0.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "register", "--config", str(path))
        assert code == 2
        assert "singular geometry: sensor 2" in err

    def test_wide_weight_spread_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(oracles.WIDE_WEIGHT_SPREAD_CONFIG))
        code, out, err = run(capsys, "register", "--config", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["constraint_residual_m"] < 1e-6

    @pytest.mark.filterwarnings("error")
    def test_overflowing_system_exit_two(self, tmp_path, capsys):
        doc = {
            "relative_bias": [100.0, 200.0, 300.0],
            "sensor1": {"p_t": 2.3e34, "azimuth": 2.7, "elevation": -0.4},
            "sensor2": {"p_t": 5.9e150, "azimuth": 0.7, "elevation": 0.0},
            "weights": {"k_r1_sq": 5.1e65, "k_psi1_sq": 2.8e-283, "k_theta1_sq": 8.7e-211,
                        "k_r2_sq": 2.3e264, "k_psi2_sq": 6.5e-258, "k_theta2_sq": 8e-222},
        }
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "register", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_malformed_json_exit_three(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "register", "--config", str(path))
        assert code == 3
        assert "error:" in err

    def test_missing_field_exit_three(self, tmp_path, capsys):
        doc = example_config()
        del doc["weights"]["k_r1_sq"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "register", "--config", str(path))
        assert code == 3
        assert "k_r1_sq" in err

    def test_nonpositive_weight_exit_three(self, tmp_path, capsys):
        doc = example_config()
        doc["weights"]["k_r2_sq"] = -1.0
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "register", "--config", str(path))
        assert code == 3

    def test_from_dict_matches_hand_built_problem(self):
        ex = oracles.REGISTRATION_EXAMPLES["a"]
        by_hand = registration.RegistrationProblem(
            relative_bias=np.array(ex["relative_bias"]),
            geom1=registration.SensorGeometry(*ex["geom1"]),
            geom2=registration.SensorGeometry(*ex["geom2"]),
            weights=registration.BiasCostWeights(**oracles.EXAMPLE_WEIGHTS))
        want = registration.solve_absolute_bias(by_hand)
        got = registration.solve_absolute_bias(
            registration.RegistrationProblem.from_dict(example_config("a")))
        assert got.bias1 == want.bias1 and got.bias2 == want.bias2

    def test_output_file(self, tmp_path, capsys):
        cfg = tmp_path / "a.json"
        cfg.write_text(json.dumps(example_config()))
        out_path = tmp_path / "result.json"
        code, out, _ = run(capsys, "register", "--config", str(cfg),
                           "--output", str(out_path))
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["cost"] == pytest.approx(
            1.6250e4, rel=1e-3)


class TestGains:
    def test_single_point(self, capsys):
        code, out, _ = run(capsys, "gains", "--rho", "2", "--alpha", "0.2")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["beta"]) == pytest.approx(0.04385, abs=5e-5)
        assert float(rows[0]["excluded_root"]) == pytest.approx(3.6)

    def test_header_columns(self, capsys):
        code, out, _ = run(capsys, "gains", "--rho", "2", "--alpha", "0.2")
        assert code == 0
        header = out.splitlines()[0]
        assert header == "rho,alpha,beta,eig1_mod,eig2_mod,S11dot,S21dot,excluded_root"

    def test_grid(self, capsys):
        code, out, _ = run(capsys, "gains", "--grid", "2,10:0.2,0.5")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        wanted = {(10.0, 0.5): 0.2959}
        for row in rows:
            key = (float(row["rho"]), float(row["alpha"]))
            if key in wanted:
                assert float(row["beta"]) == pytest.approx(wanted[key], abs=5e-5)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "gains", "--rho", "10", "--alpha", "0.5",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc[0]["beta"] == pytest.approx(0.2959, abs=5e-5)

    def test_zero_alpha_exit_two(self, capsys):
        code, _, err = run(capsys, "gains", "--rho", "2", "--alpha", "0")
        assert code == 2
        assert "error:" in err

    def test_large_noise_ratio(self, capsys):
        code, out, _ = run(capsys, "gains", "--rho", "1e300", "--alpha", "1.9")
        assert code == 0
        assert float(next(csv.DictReader(io.StringIO(out)))["beta"]) == 0.199448

    def test_float_max_noise_ratio_exit_two(self, capsys):
        # S22 of the predicted covariance overflows: one error line, no warning
        code, out, err = run(capsys, "gains", "--rho", "1.7976931348623157e308",
                             "--alpha", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv,message", [
        (["--grid", "2.0,0.0:0.5"], "error: noise ratio must be positive, got 0.0\n"),
        (["--grid", "2.0:0.5,2.5,3.0"], "error: no valid velocity gain for alpha=2.5, rho=2.0 "
                                        "(roots found: -0.802512, -1)\n"),
    ])
    def test_first_failing_grid_point(self, capsys, argv, message):
        code, out, err = run(capsys, "gains", *argv)
        assert (code, out, err) == (2, "", message)

    def test_csv_and_json_rows_agree(self, capsys):
        grid = ("--grid", "0.5,2,40:0.1,0.45,1.3", "--period", "0.8", "--meas-var", "2",
                "--bias-var", "3")
        code, csv_out, _ = run(capsys, "gains", *grid)
        assert code == 0
        code, json_out, _ = run(capsys, "gains", *grid, "--format", "json")
        assert code == 0
        assert csv_out.endswith("\r\n") and csv_out.count("\r\n") == 10
        csv_rows = [{k: float(v) for k, v in row.items()}
                    for row in csv.DictReader(io.StringIO(csv_out))]
        json_rows = json.loads(json_out)
        assert len(csv_rows) == 9
        assert csv_rows == json_rows

    def test_missing_arguments_exit_three(self, capsys):
        code, _, _ = run(capsys, "gains", "--rho", "2")
        assert code == 3

    def test_nonpositive_period_exit_three(self, capsys):
        code, _, _ = run(capsys, "gains", "--rho", "2", "--alpha", "0.2",
                         "--period", "0")
        assert code == 3


class TestSimulate:
    def test_small_scenario(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_doc()))
        code, out, _ = run(capsys, "simulate", "--config", str(path))
        assert code == 0
        doc = json.loads(out)
        assert np.shape(doc["empirical_S"]) == (2, 2)
        assert doc["n_samples"] == 200 * 20
        assert len(doc["run_seeds"]) == 200

    def test_stream_version_reported(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_doc(n_runs=20, n_steps=4)))
        code, out, _ = run(capsys, "simulate", "--config", str(path))
        assert code == 0
        assert json.loads(out)["stream_version"] == 2

    def test_seed_override_and_determinism(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_doc(master_seed=1)))
        _, out1, _ = run(capsys, "simulate", "--config", str(path),
                         "--seed", "99")
        _, out2, _ = run(capsys, "simulate", "--config", str(path),
                         "--seed", "99")
        doc1, doc2 = json.loads(out1), json.loads(out2)
        doc1.pop("wall_time_s"), doc2.pop("wall_time_s")
        assert doc1 == doc2

    def test_overflowing_gain_exit_two(self, tmp_path, capsys):
        doc = scenario_doc()
        doc["gains"] = {"alpha": 1e110, "beta": 0.5}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: gains fail validation") and len(err.splitlines()) == 1

    def test_csv_format(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_doc()))
        code, out, _ = run(capsys, "simulate", "--config", str(path),
                           "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["entry"] for r in rows] == ["S11", "S12", "S21", "S22"]

    def test_invalid_gains_exit_two(self, tmp_path, capsys):
        doc = scenario_doc()
        doc["gains"]["beta"] = 3.6
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert "beta_not_excluded" in err

    def test_bad_scenario_exit_three(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"config": {}}))
        code, _, _ = run(capsys, "simulate", "--config", str(path))
        assert code == 3


class TestTransform:
    def test_identity_pair(self, capsys):
        code, out, _ = run(capsys, "transform", "--from", "cartesian",
                           "--to", "cartesian", "--point", "1,2,3")
        assert code == 0
        assert json.loads(out)["point"] == [1.0, 2.0, 3.0]

    def test_spherical_to_cartesian(self, capsys):
        code, out, _ = run(capsys, "transform", "--from", "spherical",
                           "--to", "cartesian", "--point", "1,0,0")
        assert code == 0
        assert json.loads(out)["point"] == pytest.approx([1.0, 0.0, 0.0])

    def test_enu_round_trip(self, capsys):
        # values starting with a dash use the --option=value form
        point = "1000,-2000,500"
        args = ["--site1=0.1,0.7", "--site2=-0.4,0.2"]
        code, out, _ = run(capsys, "transform", "--from", "enu1", "--to", "enu2",
                           "--point=" + point, *args)
        assert code == 0
        mid = json.loads(out)["point"]
        code, out, _ = run(capsys, "transform", "--from", "enu2", "--to", "enu1",
                           "--point=" + ",".join(repr(v) for v in mid), *args)
        assert code == 0
        back = json.loads(out)["point"]
        np.testing.assert_allclose(back, [1000.0, -2000.0, 500.0], atol=1e-9)

    def test_velocity_mode_preserves_norm(self, capsys):
        args = ["--site1=0.1,0.7", "--site2=-0.4,0.2", "--velocity"]
        code, out, _ = run(capsys, "transform", "--from", "enu1", "--to", "enu2",
                           "--point", "10,20,-5", *args)
        assert code == 0
        v = np.array(json.loads(out)["point"])
        assert np.linalg.norm(v) == pytest.approx(np.linalg.norm([10, 20, -5]),
                                                  rel=1e-6)

    def test_face_frame(self, capsys):
        code, out, _ = run(capsys, "transform", "--from", "enu1", "--to", "face",
                           "--point", "0,1,0", "--face-angles",
                           f"{np.pi / 2},0")
        assert code == 0
        assert json.loads(out)["point"] == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)

    def test_unsupported_pair_exit_three(self, capsys):
        code, _, err = run(capsys, "transform", "--from", "spherical",
                           "--to", "eci", "--point", "1,0,0")
        assert code == 3
        assert "unsupported frame pair" in err

    def test_missing_site_exit_three(self, capsys):
        code, _, _ = run(capsys, "transform", "--from", "enu1", "--to", "enu2",
                         "--point", "1,0,0")
        assert code == 3

    def test_invalid_earth_model_exit_three(self, capsys):
        code, _, _ = run(capsys, "transform", "--from", "cartesian",
                         "--to", "spherical", "--point", "1,0,0",
                         "--eccentricity", "1.5")
        assert code == 3

    def test_zero_vector_exit_two(self, capsys):
        code, _, err = run(capsys, "transform", "--from", "cartesian",
                           "--to", "spherical", "--point", "0,0,0")
        assert code == 2
        assert "zero vector" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("velocity", [False, True])
    @pytest.mark.parametrize("src, dst", [
        ("cartesian", "spherical"), ("enu1", "enu2"), ("enu2", "enu1"), ("enu1", "eci"),
        ("eci", "enu2"), ("enu2", "face"), ("face", "enu1")])
    def test_overflowing_result_exit_two(self, capsys, src, dst, velocity, fmt):
        # every input is finite; the result of each pair exceeds a double
        code, out, err = run(capsys, "transform", "--from", src, "--to", dst,
                             "--point", "1.7e308,1.7e308,1.7e308", "--site1", "0.1,0.2",
                             "--site2", "0.3,0.4", "--face-angles", "0.3,0.2",
                             "--format", fmt, *(["--velocity"] if velocity else []))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_large_finite_range(self, capsys):
        code, out, _ = run(capsys, "transform", "--from", "cartesian",
                           "--to", "spherical", "--point", "1e200,0,0")
        assert code == 0
        assert json.loads(out)["point"] == [1e200, 0.0, 0.0]


class TestNonFinite:
    """Non-finite numbers are input errors: exit 3 and no NaN on stdout."""

    @pytest.mark.parametrize("argv", [
        ["gains", "--alpha", "0.2", "--rho", "2", "--bias-var", "nan"],
        ["gains", "--alpha", "0.2", "--rho", "nan"],
        ["gains", "--grid", "1,inf:0.2", "--format", "json"],
        ["transform", "--from", "spherical", "--to", "cartesian", "--point", "nan,0,0"],
        ["transform", "--from", "cartesian", "--to", "spherical", "--point", "1,inf,0",
         "--format", "csv"],
        ["transform", "--from", "enu1", "--to", "enu2", "--point", "1,2,3",
         "--site1", "nan,0", "--site2", "0,0"],
        ["transform", "--from", "enu1", "--to", "enu2", "--point", "1,2,3",
         "--site1", "0,0", "--site2", "0.1,0", "--r-ee", "nan", "--format", "csv"],
        ["gains", "--rho", "2", "--alpha", "0.2", "--period", "1e200", "--meas-var", "1e-200"],
        ["gains", "--rho", "2", "--alpha", "0.2", "--period", "1e-200"],
    ])
    def test_cli_numbers(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 3
        assert "nan" not in out.lower() and "inf" not in out.lower()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_relative_bias(self, tmp_path, capsys, value):
        doc = example_config()
        doc["relative_bias"][1] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # writes the NaN/Infinity tokens
        code, out, err = run(capsys, "register", "--config", str(path))
        assert code == 3
        assert "NaN" not in out and "relative_bias" in err

    @pytest.mark.parametrize("field", ["p_t", "azimuth"])
    def test_sensor_geometry(self, tmp_path, capsys, field):
        doc = example_config()
        doc["sensor1"][field] = float("nan")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "register", "--config", str(path))
        assert code == 3
        assert "NaN" not in out and "finite" in err

    def test_simulate_initial_state(self, tmp_path, capsys):
        doc = scenario_doc()
        doc["initial_state"] = [float("nan"), 0.0]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "simulate", "--config", str(path))
        assert code == 3
        assert "NaN" not in out


def test_console_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "radarbias", "gains", "--rho", "2",
         "--alpha", "0.2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "0.04385" in proc.stdout
