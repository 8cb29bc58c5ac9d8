import csv
import io
import json

import numpy as np
import pytest

from radarbias import cli, coords, errors, registration, steady_state
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
        "config": {"period": 1.0, "meas_var": 1.0, "process_var": 2.0, "bias_var": 4.0},
        "gains": {"alpha": 0.2, "beta": 0.04385},
        "n_runs": n_runs, "n_steps": n_steps, "master_seed": master_seed, "burn_in": None,
    }


def config_file(tmp_path, doc):
    """``doc`` written to a JSON file; the file's path."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRegister:
    def test_reference_example(self, tmp_path, capsys):
        code, out, _ = run(capsys, "register", "--config",
                           config_file(tmp_path, example_config("a")))
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
        code, out, _ = run(capsys, "register", "--config",
                           config_file(tmp_path, example_config("a")), "--format", "csv")
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
        code, _, err = run(capsys, "register", "--config", config_file(tmp_path, doc))
        assert code == 2
        assert "singular geometry: sensor 2" in err

    def test_wide_weight_spread_exit_zero(self, tmp_path, capsys):
        code, out, err = run(capsys, "register", "--config",
                             config_file(tmp_path, oracles.WIDE_WEIGHT_SPREAD_CONFIG))
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
        code, out, err = run(capsys, "register", "--config", config_file(tmp_path, doc))
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
        code, _, err = run(capsys, "register", "--config", config_file(tmp_path, doc))
        assert code == 3
        assert "k_r1_sq" in err

    def test_nonpositive_weight_exit_three(self, tmp_path, capsys):
        doc = example_config()
        doc["weights"]["k_r2_sq"] = -1.0
        code, _, _ = run(capsys, "register", "--config", config_file(tmp_path, doc))
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
        out_path = tmp_path / "result.json"
        code, out, _ = run(capsys, "register", "--output", str(out_path),
                           "--config", config_file(tmp_path, example_config()))
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

    @pytest.mark.parametrize("rhos,alphas,bias_var", [
        ([2.0], [0.2], 0.0),
        ([2.0, 4.0, 6.0, 8.0, 10.0], [0.2, 0.4, 0.5], 4.0),
        # the benchmark's 100x100 gain-design grid: log-spaced rho, seeded jitter
        ((10.0 ** (np.linspace(-2.0, 2.0, 100)
                   + np.random.default_rng(3).uniform(-1e-3, 1e-3, 100))).tolist(),
         (1.5 * np.arange(1, 101) / 100 * (1.0 - np.random.default_rng(4).uniform(
             0.0, 1e-3, 100))).tolist(), 4.0),
        # values printed with negative and positive exponents, and positionally
        # up to 1e16 where six-digit formatting would use an exponent
        ([1e-3, 0.5, 1e4], [1e-4, 3e-3, 0.7, 1.99], 3e16),
        ([2.0], [0.2], 1.5e6),
    ])
    def test_json_bytes_equal_standard_encoder(self, capsys, rhos, alphas, bias_var):
        grid = ",".join(map(repr, rhos)) + ":" + ",".join(map(repr, alphas))
        code, out, _ = run(capsys, "gains", "--grid", grid, "--bias-var", repr(bias_var),
                           "--format", "json")
        assert code == 0
        table = steady_state.gain_table(rhos, alphas, bias_var=bias_var)
        assert out.splitlines(True) == oracles.gains_json_reference(
            table, steady_state.GAIN_SWEEP_HEADER).splitlines(True)

    def test_missing_arguments_exit_three(self, capsys):
        code, _, _ = run(capsys, "gains", "--rho", "2")
        assert code == 3

    def test_nonpositive_period_exit_three(self, capsys):
        code, _, _ = run(capsys, "gains", "--rho", "2", "--alpha", "0.2",
                         "--period", "0")
        assert code == 3

    @pytest.mark.parametrize("argv", [["--rho", "1e308", "--alpha", "1"],
                                      ["--grid", "1,1e308:0.5"]])
    def test_overflowing_process_noise_names_rho(self, capsys, argv):
        # the point's rho meas_var / period^2 overflows: an input error naming both
        code, out, err = run(capsys, "gains", *argv, "--meas-var", "10")
        assert (code, out) == (3, "")
        assert err == ("error: rho 1e+308 gives process_var = rho meas_var / period^2 = inf: "
                       "it overflows a double\n")


class TestSimulate:
    def test_small_scenario(self, tmp_path, capsys):
        code, out, _ = run(capsys, "simulate", "--config", config_file(tmp_path, scenario_doc()))
        assert code == 0
        doc = json.loads(out)
        assert np.shape(doc["empirical_S"]) == (2, 2)
        assert doc["n_samples"] == 200 * 20
        assert len(doc["run_seeds"]) == 200

    @pytest.mark.parametrize("n_runs", [1, 2, 2000])
    def test_json_bytes_equal_standard_encoder(self, tmp_path, capsys, n_runs):
        code, out, _ = run(capsys, "simulate", "--config",
                           config_file(tmp_path, scenario_doc(n_runs=n_runs, n_steps=4)))
        assert code == 0
        doc = json.loads(out)
        assert doc["run_seeds"] == np.random.SeedSequence(5).generate_state(n_runs).tolist()
        assert out.splitlines(True) == (
            json.dumps(doc, indent=2, allow_nan=False) + "\n").splitlines(True)

    def test_stream_version_reported(self, tmp_path, capsys):
        code, out, _ = run(capsys, "simulate", "--config",
                           config_file(tmp_path, scenario_doc(n_runs=20, n_steps=4)))
        assert code == 0
        assert json.loads(out)["stream_version"] == 2

    def test_seed_override_and_determinism(self, tmp_path, capsys):
        path = config_file(tmp_path, scenario_doc(master_seed=1))
        _, out1, _ = run(capsys, "simulate", "--config", path,
                         "--seed", "99")
        _, out2, _ = run(capsys, "simulate", "--config", path,
                         "--seed", "99")
        doc1, doc2 = json.loads(out1), json.loads(out2)
        doc1.pop("wall_time_s"), doc2.pop("wall_time_s")
        assert doc1 == doc2

    def test_overflowing_gain_exit_two(self, tmp_path, capsys):
        doc = scenario_doc()
        doc["gains"] = {"alpha": 1e110, "beta": 0.5}
        code, out, err = run(capsys, "simulate", "--config", config_file(tmp_path, doc))
        assert code == 2
        assert out == ""
        assert err.startswith("error: gains fail validation") and len(err.splitlines()) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_sum_exit_two(self, tmp_path, capsys, fmt):
        # a finite bias variance whose sum of squared errors overflows: once the
        # serializer's error (json) or inf and nan entries with exit 0 (csv)
        doc = scenario_doc()
        doc["config"]["bias_var"] = 1e308
        code, out, err = run(capsys, "simulate", "--config", config_file(tmp_path, doc),
                             "--format", fmt)
        assert (code, out) == (2, "")
        assert err == "error: empirical covariance or its relative error overflows\n"

    def test_csv_format(self, tmp_path, capsys):
        code, out, _ = run(capsys, "simulate", "--config", config_file(tmp_path, scenario_doc()),
                           "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["entry"] for r in rows] == ["S11", "S12", "S21", "S22"]

    def test_invalid_gains_exit_two(self, tmp_path, capsys):
        doc = scenario_doc()
        doc["gains"]["beta"] = 3.6
        code, _, err = run(capsys, "simulate", "--config", config_file(tmp_path, doc))
        assert code == 2
        assert "beta_not_excluded" in err

    def test_fractional_counts_exit_three(self, tmp_path, capsys):
        # int() would truncate these to 10 runs of 1 step and exit 0
        doc = dict(scenario_doc(), n_runs=10.9, n_steps=True, master_seed=3.7, burn_in=0.5)
        assert run(capsys, "simulate", "--config", config_file(tmp_path, doc)) == (
            3, "", "error: bad scenario document: n_runs must be a whole number, got 10.9\n")

    def test_integral_float_counts_accepted(self, tmp_path, capsys):
        outputs = []
        for counts in ({"n_runs": 20, "n_steps": 4}, {"n_runs": 2e1, "n_steps": 4.0}):
            config = config_file(tmp_path, dict(scenario_doc(), **counts))
            outputs.append(run(capsys, "simulate", "--config", config, "--format", "csv"))
        assert outputs[0][0] == 0 and outputs[1] == outputs[0]

    def test_bad_scenario_exit_three(self, tmp_path, capsys):
        code, _, _ = run(capsys, "simulate", "--config", config_file(tmp_path, {"config": {}}))
        assert code == 3

    @pytest.mark.parametrize("override", [False, True])
    def test_negative_seed_exit_three(self, tmp_path, capsys, override):
        # numpy's SeedSequence once rejected it with a message naming no field
        doc = scenario_doc(master_seed=5 if override else -1)
        seed = ["--seed", "-1"] if override else []
        assert run(capsys, "simulate", "--config", config_file(tmp_path, doc), *seed) == (
            3, "", "error: bad scenario document: master_seed must be nonnegative, got -1\n")

    def test_zero_measurement_noise_runs(self, tmp_path, capsys):
        # the ratio process_var * period^2 / meas_var has no value here; nothing needs it
        doc = scenario_doc(n_runs=50, n_steps=20)
        doc["config"]["meas_var"] = 0.0
        code, out, _ = run(capsys, "simulate", "--config", config_file(tmp_path, doc),
                           "--format", "csv")
        assert code == 0 and len(out.splitlines()) == 5

    @pytest.mark.parametrize("rho", [3.0, "2"])
    def test_rho_key_is_ignored(self, tmp_path, capsys, rho):
        # the ratio follows from the noise levels; an inconsistent or string rho once exited 3
        plain, with_rho = scenario_doc(n_runs=20, n_steps=4), scenario_doc(n_runs=20, n_steps=4)
        with_rho["config"]["rho"] = rho
        outputs = [run(capsys, "simulate", "--config", config_file(tmp_path, doc), "--format",
                       "csv") for doc in (plain, with_rho)]
        assert outputs[0][0] == 0 and outputs[1] == outputs[0]


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


_FRAMES = ("spherical", "cartesian", "enu1", "enu2", "eci", "face")
_SITE1, _SITE2 = coords.GeodeticSite(0.1, 0.7), coords.GeodeticSite(-0.4, 0.2)
_FACE = (0.3, 0.2)
#: what transform computes for each supported pair, as library calls:
#: (point, velocity) -> result
_TRANSFORMS = {
    ("spherical", "cartesian"):
        lambda p, vel: coords.spherical_to_cartesian(coords.SphericalTriple.from_array(p)),
    ("cartesian", "spherical"): lambda p, vel: coords.cartesian_to_spherical(p).as_array(),
    ("enu1", "enu2"): lambda p, vel: (coords.enu1_velocity_to_enu2 if vel
                                      else coords.enu1_position_to_enu2)(p, _SITE1, _SITE2),
    ("enu2", "enu1"): lambda p, vel: (coords.enu1_velocity_to_enu2(p, _SITE2, _SITE1) if vel
                                      else coords.enu2_position_to_enu1(p, _SITE1, _SITE2)),
}
for _frame, _site in (("enu1", _SITE1), ("enu2", _SITE2)):
    _TRANSFORMS[_frame, "eci"] = lambda p, vel, s=_site: (
        coords.eci_to_enu(s).T @ p if vel else coords.enu_position_to_eci(p, s))
    _TRANSFORMS["eci", _frame] = lambda p, vel, s=_site: (
        coords.eci_to_enu(s) @ p if vel else coords.eci_position_to_enu(p, s))
    _TRANSFORMS[_frame, "face"] = lambda p, vel: coords.enu_to_face(*_FACE) @ p
    _TRANSFORMS["face", _frame] = lambda p, vel: coords.face_to_enu(*_FACE) @ p


class TestTransformPairs:
    """Every (--from, --to, --velocity) combination, byte for byte."""

    @pytest.mark.parametrize("velocity", [False, True])
    @pytest.mark.parametrize("dst", _FRAMES)
    @pytest.mark.parametrize("src", _FRAMES)
    def test_every_combination(self, capsys, src, dst, velocity):
        argv = ["transform", "--from", src, "--to", dst, "--point", "1000,0.3,0.2",
                "--site1", "0.1,0.7", "--site2=-0.4,0.2", "--face-angles", "0.3,0.2",
                *(["--velocity"] if velocity else [])]
        point = np.array([1000.0, 0.3, 0.2])
        transform = (lambda p, vel: p) if src == dst else _TRANSFORMS.get((src, dst))
        if transform is None:
            message = f"error: unsupported frame pair {src} -> {dst}\n"
            assert run(capsys, *argv) == (3, "", message)
            return
        values = [float(v) for v in transform(point, velocity)]
        components = (["range_m", "azimuth_rad", "elevation_rad"]
                      if dst == "spherical" else ["x_m", "y_m", "z_m"])
        want_json = json.dumps({"frame": dst, "point": values, "components": components},
                               indent=2) + "\n"
        want_csv = ",".join(components) + "\r\n" + ",".join(map(repr, values)) + "\r\n"
        assert run(capsys, *argv) == (0, want_json, "")
        assert run(capsys, *argv, "--format", "csv") == (0, want_csv, "")

    @pytest.mark.parametrize("src, dst, extra, message", [
        ("enu1", "enu2", [], "--site1 LON,LAT is required for this frame pair"),
        ("enu2", "enu1", [], "--site1 LON,LAT is required for this frame pair"),
        ("eci", "enu2", ["--site1=0,0"], "--site2 LON,LAT is required for this frame pair"),
        ("enu2", "enu1", ["--site1=0.1", "--site2=0,0"], "--site1 expects LON,LAT"),
        ("enu1", "enu2", ["--site1=0,0", "--site2=1,2,3"], "--site2 expects LON,LAT"),
        ("enu1", "eci", ["--site1=a,0"], "bad site1 list 'a,0': could not convert string "
                                         "to float: 'a'"),
        ("eci", "enu2", ["--site2=,"], "empty site2 list"),
        ("enu1", "enu2", ["--site1=0,2", "--site2=0,0"], "latitude 2.0 outside [-pi/2, pi/2]"),
        ("enu1", "face", [], "--face-angles AZ,EL is required for the face frame"),
        ("face", "enu2", ["--face-angles=0.3"], "--face-angles expects AZ,EL"),
        ("enu2", "face", ["--face-angles=inf,0"], "face-angles values must be finite, "
                                                  "got 'inf,0'"),
    ])
    def test_missing_or_malformed_pair_argument(self, capsys, src, dst, extra, message):
        argv = ["transform", "--from", src, "--to", dst, "--point", "1,2,3", *extra]
        assert run(capsys, *argv) == (3, "", f"error: {message}\n")


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
        # a point whose root fails once hid these flags behind a domain error, exit 2
        ["gains", "--rho", "2", "--alpha", "2.5", "--bias-var", "nan"],
        ["gains", "--rho", "2", "--alpha", "2.5", "--period", "nan"],
        ["gains", "--rho", "2", "--alpha", "2.5", "--meas-var", "inf"],
        ["gains", "--rho", "2", "--alpha", "2.5", "--period", "1e200", "--meas-var", "1e-200"],
    ])
    def test_cli_numbers(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 3
        assert "nan" not in out.lower() and "inf" not in out.lower()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_relative_bias(self, tmp_path, capsys, value):
        doc = example_config()
        doc["relative_bias"][1] = value
        path = config_file(tmp_path, doc)  # writes the NaN/Infinity tokens
        code, out, err = run(capsys, "register", "--config", path)
        assert code == 3
        assert "NaN" not in out and "relative_bias" in err

    @pytest.mark.parametrize("field", ["p_t", "azimuth"])
    def test_sensor_geometry(self, tmp_path, capsys, field):
        doc = example_config()
        doc["sensor1"][field] = float("nan")
        code, out, err = run(capsys, "register", "--config", config_file(tmp_path, doc))
        assert code == 3
        assert "NaN" not in out and "finite" in err


def with_value(doc, keys, value):
    """``doc`` with the entry at the path ``keys`` set to ``value``."""
    *outer, last = keys
    sub = doc
    for key in outer:
        sub = sub[key]
    sub[last] = value
    return doc


@pytest.mark.parametrize("command,keys,value,message", [
    ("simulate", ("n_runs",), "10", "scenario document: n_runs must be a number, got '10'"),
    ("simulate", ("n_runs",), "1e1", "scenario document: n_runs must be a number, got '1e1'"),
    ("simulate", ("config", "period"), "1.0",
     "scenario document: period must be a number, got '1.0'"),
    ("simulate", ("gains", "alpha"), True,
     "scenario document: alpha must be a number, got True"),
    ("simulate", ("config", "bias_var"), "4",
     "scenario document: bias_var must be a number, got '4'"),
    ("register", ("relative_bias", 0), True,
     "registration document: relative_bias must be a number, got True"),
    ("register", ("weights", "k_theta2_sq"), "5e9",
     "registration document: k_theta2_sq must be a number, got '5e9'"),
    ("register", ("sensor2", "p_t"), "50000",
     "registration document: p_t must be a number, got '50000'"),
    # an integer beyond a double once raised OverflowError, a traceback and exit 1
    pytest.param("register", ("sensor1", "p_t"), 10**400,
                 "registration document: p_t does not fit a double", id="register-p_t-10**400"),
    pytest.param("simulate", ("config", "period"), 10**400,
                 "scenario document: period does not fit a double", id="simulate-period-10**400"),
])
def test_strings_and_booleans_are_not_numbers(tmp_path, capsys, command, keys, value,
                                              message):
    # float() and int() take both, so these documents once ran and exited 0
    doc = with_value(scenario_doc() if command == "simulate" else example_config(),
                     keys, value)
    assert run(capsys, command, "--config", config_file(tmp_path, doc)) == (
        3, "", f"error: bad {message}\n")


@pytest.mark.parametrize("argv", [
    ["gains", "--period", "abc"], ["transform", "--to", "bogus"], ["simulate"], ["bogus"]])
def test_usage_errors_exit_three(capsys, argv):
    # argparse's own exit code is 2, which the CLI keeps for domain errors
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: radarbias") and err.count("error:") == 1
    assert err.splitlines()[-1].startswith("radarbias")


@pytest.mark.parametrize("command, argv, message", [
    ("register", ["--config", "."], "cannot read .: "),
    ("register", ["--config", "LIST"], "config document must be a JSON object\n"),
    ("simulate", ["--config", "LIST"], "config document must be a JSON object\n"),
    ("gains", ["--grid", "2"], "--grid expects 'RHO,RHO,...:ALPHA,ALPHA,...'\n"),
    ("gains", ["--rho", "2", "--alpha", "0.2", "--meas-var", "0"],
     "meas-var 0.0 must be positive\n"),
    ("transform", ["--from", "cartesian", "--to", "spherical", "--point", "1,2"],
     "--point must have exactly 3 entries, got 2\n"),
    ("transform", ["--from", "cartesian", "--to", "spherical", "--point", "1,2,3,4"],
     "--point must have exactly 3 entries, got 4\n"),
])
def test_input_errors_exit_three(tmp_path, capsys, command, argv, message):
    argv = [config_file(tmp_path, [1, 2]) if a == "LIST" else a for a in argv]
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: " + message) and err.count("\n") == 1


UNWRITABLE_ARGV = {
    "register": ["--config", "EXAMPLE"],
    "gains": ["--rho", "2", "--alpha", "0.2"],
    "simulate": ["--config", "SCENARIO"],
    "transform": ["--from", "cartesian", "--to", "spherical", "--point", "1,0,0"],
}


@pytest.mark.parametrize("command", sorted(UNWRITABLE_ARGV))
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_output_exits_three(tmp_path, capsys, command, target):
    docs = {"EXAMPLE": example_config(), "SCENARIO": scenario_doc(n_runs=20, n_steps=10)}
    argv = [config_file(tmp_path, docs[a]) if a in docs else a for a in UNWRITABLE_ARGV[command]]
    path = str(tmp_path / "missing" / "out.txt" if target == "missing-directory" else tmp_path)
    code, out, err = run(capsys, command, *argv, "--output", path)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: radarbias")


DOMAIN_ERRORS = (errors.SingularGeometry, errors.SingularSystem, errors.NoValidRoot,
                 errors.InvalidGains, errors.DegenerateDenominator,
                 errors.NonFiniteCovariance, errors.NonFiniteTransform, errors.ZeroVector)


def test_domain_errors_are_these_eight():
    subclasses = {cls for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, errors.DomainError)}
    assert subclasses - {errors.DomainError} == set(DOMAIN_ERRORS)


@pytest.mark.parametrize("error", DOMAIN_ERRORS)
def test_domain_error_exits_two(monkeypatch, capsys, error):
    def fail(args):
        raise error("no solution")

    monkeypatch.setattr(cli, "cmd_register", fail)
    assert run(capsys, "register", "--config", "-") == (2, "", f"error: {error('no solution')}\n")


def csv_writer_text(out):
    """What ``csv.writer`` prints for the rows ``csv.reader`` reads back from ``out``."""
    buf = io.StringIO()
    csv.writer(buf).writerows(csv.reader(io.StringIO(out)))
    return buf.getvalue()


#: 23 x 23 = 529 rows over rho 1e-3 to 1e4 and alpha 0.01 to 1.95
GRID_23 = (",".join(map(repr, np.geomspace(1e-3, 1e4, 23).tolist())) + ":"
           + ",".join(map(repr, np.linspace(0.01, 1.95, 23).tolist())))
GAINS_ARGV = [
    ["--rho", "2", "--alpha", "0.2"],
    ["--grid", "2,4,6,8,10:0.2,0.4,0.5", "--bias-var", "4"],
    ["--grid", GRID_23, "--period", "0.7", "--meas-var", "2", "--bias-var", "3e16"],
]


class TestStandardWriters:
    """Every CSV is what csv.writer prints; gains JSON is what json.dumps prints."""

    @pytest.mark.parametrize("command,argv", [
        ("register", ["--config", "problem"]),
        *[("gains", argv) for argv in GAINS_ARGV],
        ("simulate", ["--config", "scenario"]),
        ("transform", ["--from", "spherical", "--to", "cartesian", "--point", "1000,0.5,0.1"]),
        ("transform", ["--from", "enu1", "--to", "enu2", "--point=5e4,1e4,0",
                       "--site1=0.1,0.7", "--site2=-0.4,0.2"]),
        ("transform", ["--from", "enu1", "--to", "enu2", "--point", "10,20,-5",
                       "--site1=0.1,0.7", "--site2=-0.4,0.2", "--velocity"]),
    ])
    def test_csv(self, tmp_path, capsys, command, argv):
        docs = {"problem": example_config("a"), "scenario": scenario_doc(n_runs=50, n_steps=10)}
        argv = [config_file(tmp_path, docs[a]) if a in docs else a for a in argv]
        code, out, err = run(capsys, command, *argv, "--format", "csv")
        assert (code, err) == (0, "")
        # line lists: a failing comparison of the whole text diffs slowly
        assert out.splitlines(True) == csv_writer_text(out).splitlines(True)
        if GRID_23 in argv:
            assert out.count("\r\n") == 1 + 23 * 23

    @pytest.mark.parametrize("argv", GAINS_ARGV)
    def test_gains_json(self, capsys, argv):
        code, out, err = run(capsys, "gains", *argv, "--format", "json")
        assert (code, err) == (0, "")
        encoded = json.dumps(json.loads(out), indent=2) + "\n"
        assert out.splitlines(True) == encoded.splitlines(True)


def test_console_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "radarbias", "gains", "--rho", "2",
         "--alpha", "0.2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "0.04385" in proc.stdout


def test_seed_zero_overrides_the_document(tmp_path, capsys):
    outputs = []
    for master_seed, override in ((5, ["--seed", "0"]), (0, []), (5, [])):
        path = config_file(tmp_path, scenario_doc(n_runs=20, n_steps=10, master_seed=master_seed))
        code, out, _ = run(capsys, "simulate", "--config", path, *override)
        doc = json.loads(out)
        doc.pop("wall_time_s")
        outputs.append((code, doc))
    assert outputs[0] == outputs[1] != outputs[2]
