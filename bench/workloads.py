"""The benchmark's three workloads: inputs from a seed, one job, its checks.

Every workload is a closed loop with one caller in one process and no
threads: a job starts only after the previous one has returned. All
inputs come from the benchmark's own generator keyed by ``--seed``; the
program receives them only as arguments, files and constructed objects.
Checks run after a job, outside its timing, and never call the function
they check.
"""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path

import numpy as np

import checks
from radarbias import cli, coords, filter_core, registration, steady_state


def call_cli(argv: list[str]) -> int:
    """``radarbias.cli.main`` in-process; an argparse exit becomes its exit code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


class Workload:
    """One workload: build inputs in ``__init__``, then run and check jobs.

    ``problems_per_job`` is the number of user-visible results a job
    delivers. A job may time its parts (the same parts, in the same order,
    in every job); ``problems_timed`` says the parts are its problems, so
    their times are problem latencies. ``direct_calls`` counts the calls the last job made to traced
    functions that nothing else in the program calls, so a traced job must
    record exactly these. ``layers`` must record calls on this workload;
    ``named`` are the functions its per-layer metrics are about.
    """

    name = ""
    problems_per_job = 1
    problems_timed = False
    layers: tuple[str, ...] = ()
    named: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.direct_calls: dict[str, int] = {}
        self.output_bytes = 0

    def run_job(self, index: int):
        """Run one job; return (payload for ``check``, per-part times in ns or None)."""
        raise NotImplementedError

    def check(self, payload) -> tuple[int, int, list[str]]:
        """Check one job's outputs; return (problems attempted, problems failed, messages).

        Batched workloads deliver one checked result per job, so they count
        one problem per job.
        """
        raise NotImplementedError

    def _read_output(self, path: Path) -> str:
        text = path.read_text(encoding="utf-8")
        self.output_bytes = len(text.encode("utf-8"))
        path.unlink()
        return text


# ---------------------------------------------------------------------------


class McVerify(Workload):
    """``radarbias simulate`` on the paper's acceptance scenario, JSON output."""

    name = "mc-verify"
    N_RUNS, N_STEPS = 20_000, 200
    ALPHA, RHO, BIAS_VAR = 0.2, 2.0, 4.0
    problems_per_job = N_RUNS
    layers = ("cli", "sim_harness", "steady_state")
    named = ("cli.main", "sim_harness.run_monte_carlo", "sim_harness.run_seed_sequence",
             "steady_state.validate_gains", "steady_state.predicted_covariances",
             "steady_state.steady_mn", "steady_state.steady_mq")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.master_seed = int(self.rng.integers(0, 2**62))
        scenario = {
            "config": {"period": 1.0, "meas_var": 1.0, "process_var": self.RHO,
                       "bias_var": self.BIAS_VAR, "rho": self.RHO},
            "gains": {"alpha": self.ALPHA, "beta": checks.cubic_root(self.ALPHA, self.RHO)},
            "n_runs": self.N_RUNS, "n_steps": self.N_STEPS,
            "master_seed": self.master_seed, "initial_state": [0.0, 0.0], "burn_in": None,
        }
        self.config_path = workdir / "scenario.json"
        self.config_path.write_text(json.dumps(scenario), encoding="utf-8")
        self.output_path = workdir / "report.json"

    def run_job(self, index):
        # each job gets its own master seed through the CLI's --seed override
        rc = call_cli(["simulate", "--config", str(self.config_path),
                       "--seed", str(self.master_seed + index),
                       "--format", "json", "--output", str(self.output_path)])
        self.direct_calls = {"cli.main": 1}
        return rc, None

    def check(self, rc):
        if rc != 0:
            return 1, 1, [f"simulate exited with {rc}"]
        report = json.loads(self._read_output(self.output_path), parse_constant=_reject_constant)
        failures = []
        want = self.N_RUNS * (self.N_STEPS - self.N_STEPS // 2)
        if report["n_samples"] != want:
            failures.append(f"n_samples {report['n_samples']} != {want}")
        if len(report["run_seeds"]) != self.N_RUNS:
            failures.append(f"{len(report['run_seeds'])} run seeds for {self.N_RUNS} runs")
        emp, pred = np.array(report["empirical_S"]), np.array(report["predicted_S"])
        for (i, j), bound, label in (((0, 0), 0.05, "S11"), ((1, 0), 0.10, "S21")):
            rel = abs(emp[i, j] - pred[i, j]) / abs(pred[i, j])
            if not rel < bound:
                failures.append(f"{label} relative error {rel:.3g} >= {bound}")
        return 1, int(bool(failures)), failures


# ---------------------------------------------------------------------------


class RegistrationBatch(Workload):
    """Transform, relative bias and closed-form solve for a batch of two-site problems."""

    name = "registration-batch"
    N_PROBLEMS = 2000
    problems_per_job = N_PROBLEMS
    problems_timed = True
    layers = ("coords", "registration")
    named = ("coords.enu2_position_to_enu1", "coords.enu1_position_to_enu2",
             "registration.solve_absolute_bias", "registration.build_A",
             "registration.kkt_stationarity_residual")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng, n = self.rng, self.N_PROBLEMS
        # geometries and weights follow the synthetic-scenario convention:
        # p_t in [5 km, 100 km], |elevation| <= 1.2 rad, angle weights ~ 2 p_t^2
        geom = np.stack([rng.uniform(5e3, 1e5, (n, 2)), rng.uniform(-np.pi, np.pi, (n, 2)),
                         rng.uniform(-1.2, 1.2, (n, 2))], axis=-1)           # (n, sensor, 3)
        k_r = rng.uniform(0.5, 4.0, (n, 2))
        k_ang = 2.0 * geom[:, :, :1] ** 2 * rng.uniform(0.25, 4.0, (n, 2, 2))
        weights = np.concatenate([k_r[:, :, None], k_ang], axis=-1)        # (n, sensor, 3)
        truth = rng.normal(0.0, [200.0, 5e-3, 5e-3], (n, 2, 3))
        # two sites up to ~30 km apart anywhere off the poles
        lon1, lat1 = rng.uniform(-np.pi, np.pi, n), rng.uniform(-1.2, 1.2, n)
        lon2, lat2 = lon1 + rng.uniform(-5e-3, 5e-3, n), lat1 + rng.uniform(-5e-3, 5e-3, n)

        a = np.array([[checks.a_matrix(*g) for g in pair] for pair in geom])  # (n, 2, 3, 3)
        bias_enu = np.einsum("nsij,nsj->nsi", a, truth)
        p_t2, az2, el2 = geom[:, 1, 0], geom[:, 1, 1], geom[:, 1, 2]
        target_from_2 = p_t2[:, None] * np.stack(
            [np.cos(el2) * np.cos(az2), np.cos(el2) * np.sin(az2), np.sin(el2)], axis=-1)

        self.sites = [(coords.GeodeticSite(lon1[i], lat1[i]), coords.GeodeticSite(lon2[i], lat2[i]))
                      for i in range(n)]
        # the surveyed baseline (site 2's origin in ENU(1)); sensor 1 reports
        # target - bias1 relative to site 1, sensor 2 reports target - bias2
        # relative to site 2 in its own ENU(2), so the relative bias the
        # three steps recover is A2 e2 - A1 e1
        self.baseline = np.array([coords.enu2_position_to_enu1(np.zeros(3), s1, s2)
                                  for s1, s2 in self.sites], dtype=float)
        self.p1 = self.baseline + target_from_2 - bias_enu[:, 0]
        self.q2 = np.array([coords.enu1_position_to_enu2(
            self.baseline[i] + target_from_2[i] - bias_enu[i, 1], *self.sites[i])
            for i in range(n)], dtype=float)
        self.expected_bias = bias_enu[:, 1] - bias_enu[:, 0]
        self.geoms = [tuple(registration.SensorGeometry(*g) for g in pair) for pair in geom]
        self.weights = [registration.BiasCostWeights(*w[0], *w[1]) for w in weights]
        self.geom, self.weight_array, self.a = geom, weights, a
        np.savez(workdir / "registration.npz", geometry=geom, weights=weights,
                 sites=np.stack([lon1, lat1, lon2, lat2], axis=-1),
                 p1_enu1=self.p1, p2_enu2=self.q2, baseline_enu1=self.baseline)
        self._oracle = None

    def run_job(self, index):
        results, latencies = [], []
        clock = time.perf_counter_ns
        for i in range(self.N_PROBLEMS):
            site1, site2 = self.sites[i]
            geom1, geom2 = self.geoms[i]
            start = clock()
            try:
                p2 = coords.enu2_position_to_enu1(self.q2[i], site1, site2)
                b = registration.relative_bias_from_positions(
                    self.p1[i], p2 - self.baseline[i], self.baseline[i])
                sol = registration.solve_absolute_bias(
                    registration.RegistrationProblem(b, geom1, geom2, self.weights[i]))
                results.append((b, sol))
            except Exception as exc:  # an item that raises is a failed problem
                results.append(exc)
            latencies.append(clock() - start)
        n = self.N_PROBLEMS
        self.direct_calls = {"coords.enu2_position_to_enu1": n,
                             "registration.relative_bias_from_positions": n,
                             "registration.solve_absolute_bias": n}
        return results, latencies

    def oracle(self) -> np.ndarray:
        """Dense-KKT increments of every problem, (n, 6); computed once."""
        if self._oracle is None:
            self._oracle = np.array([
                checks.kkt_solve(self.expected_bias[i], self.geom[i, 0], self.geom[i, 1],
                                 self.weight_array[i, 0], self.weight_array[i, 1])
                for i in range(self.N_PROBLEMS)])
        return self._oracle

    def check(self, results):
        failures = [f"problem {i}: {r!r}" for i, r in enumerate(results)
                    if isinstance(r, Exception)]
        ok = [i for i, r in enumerate(results) if not isinstance(r, Exception)]
        if not ok:
            return len(results), len(failures), failures
        b = np.array([results[i][0] for i in ok])
        e = np.array([[*results[i][1].bias1.as_array(), *results[i][1].bias2.as_array()]
                      for i in ok])
        a, geom = self.a[ok], self.geom[ok]
        residual = np.linalg.norm(np.einsum("nij,nj->ni", a[:, 1], e[:, 3:])
                                  - np.einsum("nij,nj->ni", a[:, 0], e[:, :3]) - b, axis=1)
        # compare in meters: angle increments times the sensor-target distance
        scale = np.concatenate([np.ones((len(ok), 1)), geom[:, 0, :1], geom[:, 0, :1],
                                np.ones((len(ok), 1)), geom[:, 1, :1], geom[:, 1, :1]], axis=1)
        ref = self.oracle()[ok] * scale
        rel = np.linalg.norm(e * scale - ref, axis=1) / np.linalg.norm(ref, axis=1)
        bias_err = np.linalg.norm(b - self.expected_bias[ok], axis=1)
        failed = len(results) - len(ok)
        for k, i in enumerate(ok):
            wrong = [msg for bad, msg in (
                (not residual[k] < 1e-6, f"constraint residual {residual[k]:.3g} m"),
                (not rel[k] < 1e-6, f"increments off the KKT oracle by {rel[k]:.3g}"),
                (not bias_err[k] < 1e-6, f"relative bias off by {bias_err[k]:.3g} m")) if bad]
            if wrong:
                failed += 1
                failures.append(f"problem {i}: {'; '.join(wrong)}")
        return len(results), failed, failures


# ---------------------------------------------------------------------------


class GainDesign(Workload):
    """``radarbias gains`` over a dense grid, then filter runs on a subset of rows."""

    name = "gain-design"
    N_RHO, N_ALPHA = 100, 100
    BIAS_VAR = 4.0
    # rows verified with filter_core, as (rho index, alpha index); fixed so
    # the filter work per job does not depend on the seed
    SUBSET = tuple((i, j) for i in (5, 20, 35, 50, 65, 80, 95) for j in (15, 35, 55, 75, 99))
    CONVERGED_RTOL = 1e-12
    MAX_STEPS = 5000
    problems_per_job = N_RHO * N_ALPHA
    layers = ("cli", "steady_state", "filter_core")
    named = ("cli.main", "steady_state.gain_sweep", "steady_state.solve_beta",
             "steady_state.predicted_covariances", "steady_state.steady_mn",
             "steady_state.steady_mq", "filter_core.step", "filter_core.time_update",
             "filter_core.optimal_gain", "filter_core.measurement_update")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        # a log-spaced rho grid over [1e-2, 1e2] and alpha over (0, 1.5],
        # each point shifted by a small seeded jitter that keeps the order
        self.rhos = 10.0 ** (np.linspace(-2.0, 2.0, self.N_RHO)
                             + rng.uniform(-1e-3, 1e-3, self.N_RHO))
        self.alphas = (1.5 * np.arange(1, self.N_ALPHA + 1) / self.N_ALPHA
                       * (1.0 - rng.uniform(0.0, 1e-3, self.N_ALPHA)))
        self.grid_arg = (",".join(repr(float(r)) for r in self.rhos) + ":"
                         + ",".join(repr(float(a)) for a in self.alphas))
        self.measurements = rng.normal(0.0, 1.0, 512)
        self.subset = []
        for i, j in self.SUBSET:
            rho, alpha = float(self.rhos[i]), float(self.alphas[j])
            model = steady_state.SteadyStateConfig.from_rho(
                rho, bias_var=self.BIAS_VAR).to_filter_model()
            gain = np.array([[alpha], [checks.cubic_root(alpha, rho)]])   # period 1
            self.subset.append((i * self.N_ALPHA + j, model, gain))
        (workdir / "gain-inputs.json").write_text(json.dumps({
            "grid": self.grid_arg, "subset": self.SUBSET,
            "measurements": self.measurements.tolist()}), encoding="utf-8")
        self.output_path = workdir / "gains.csv"

    def converge(self, model, gain):
        """Filter from a unit prior until S settles; (steps, predicted S, converged)."""
        state = filter_core.FilterState.initial(model, np.zeros(2), noise_cov=np.eye(2))
        z, previous = self.measurements, None
        for k in range(self.MAX_STEPS):
            state = filter_core.step(model, state, z[k % z.size], gain=gain)
            s = state.total_cov
            if previous is not None and (np.max(np.abs(s - previous))
                                         <= self.CONVERGED_RTOL * np.max(np.abs(s))):
                return k + 1, filter_core.time_update(model, state).total_cov, True
            previous = s
        return self.MAX_STEPS, filter_core.time_update(model, state).total_cov, False

    def run_job(self, index):
        # the parts are the CLI table and each filter run, timed one by one
        clock = time.perf_counter_ns
        start = clock()
        rc = call_cli(["gains", "--grid", self.grid_arg, "--bias-var", str(self.BIAS_VAR),
                       "--format", "csv", "--output", str(self.output_path)])
        part_ns = [clock() - start]
        runs = []
        for row, model, gain in self.subset:
            start = clock()
            fixed = self.converge(model, gain)
            middle = clock()
            optimal = self.converge(model, None)
            part_ns += [middle - start, clock() - middle]
            runs.append((row, fixed, optimal))
        self.direct_calls = {"cli.main": 1,
                             "filter_core.step": sum(f[0] + o[0] for _, f, o in runs)}
        return (rc, runs), part_ns

    def check(self, payload):
        rc, runs = payload
        if rc != 0:
            return 1, 1, [f"gains exited with {rc}"]
        lines = list(csv.reader(self._read_output(self.output_path).splitlines()))
        header = ["rho", "alpha", "beta", "eig1_mod", "eig2_mod", "S11dot", "S21dot",
                  "excluded_root"]
        if lines[0] != header:
            return 1, 1, [f"unexpected CSV header {lines[0]}"]
        table = np.array(lines[1:], dtype=float)
        if table.shape != (self.N_RHO * self.N_ALPHA, len(header)):
            return 1, 1, [f"table has shape {table.shape}"]
        rho = np.repeat(self.rhos, self.N_ALPHA)
        alpha = np.tile(self.alphas, self.N_RHO)
        failures = []

        def report(mask, what):
            bad = np.flatnonzero(~mask)
            if bad.size:
                failures.append(f"{bad.size} rows {what}, first row {bad[0]}")

        report(np.abs(table[:, 0] - rho) <= checks.printed_half_unit(rho) * 1.001,
               "with a wrong rho")
        report(np.abs(table[:, 1] - alpha) <= checks.printed_half_unit(alpha) * 1.001,
               "with a wrong alpha")
        report(checks.cubic_root_within_print(alpha, table[:, 2], rho),
               "whose beta misses the cubic root")
        report((table[:, 3] < 1.0) & (table[:, 4] < 1.0), "printing an unstable modulus")
        report(np.all(checks.closed_loop_moduli(alpha, table[:, 2]) < 1.0, axis=1),
               "with unstable gains")
        for row, (_, fixed, fixed_ok), (_, best, best_ok) in runs:
            s11, s21 = table[row, 5], table[row, 6]
            if not (fixed_ok and best_ok):
                failures.append(f"row {row}: filter did not converge")
            for got, want, label in ((fixed[0, 0], s11, "S11dot"), (fixed[1, 0], s21, "S21dot")):
                if not abs(got / want - 1.0) <= 1e-5:
                    failures.append(f"row {row}: filter {label} {got:.9g} vs table {want:.6g}")
            if not np.trace(best) <= np.trace(fixed) * (1.0 + 1e-9):
                failures.append(f"row {row}: trace-optimal gain beaten by the fixed gain")
        return 1, int(bool(failures)), failures


WORKLOADS = {w.name: w for w in (McVerify, RegistrationBatch, GainDesign)}
