"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest bench -q``.
"""

import itertools
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import JobProfile, Tracer  # noqa: E402


class TestPercentileRule:
    @pytest.mark.parametrize("n, want", [
        (10, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
        (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9), (10**6, 99.9)])
    def test_highest_percentile_with_ten_beyond(self, n, want):
        assert checks.tail_percentile(n) == want

    def test_ten_samples_beyond_p99_of_1000(self):
        values = list(range(1, 1001))
        p99 = checks.percentile(values, 99)
        assert p99 == 990
        assert sum(v > p99 for v in values) == checks.MIN_SAMPLES_BEYOND

    def test_nearest_rank(self):
        assert checks.percentile([3, 1, 2], 50) == 2
        assert checks.percentile([5.0], 99) == 5.0


class TestSelfTime:
    def test_nested_spans(self):
        spans = [("a", 0, 100, -1), ("b", 10, 40, 0), ("c", 20, 30, 1), ("d", 50, 60, 0)]
        assert checks.self_times(spans) == [60, 20, 10, 10]

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [("a", 0, 100, -1), ("b", 10, 50, 0), ("c", 40, 120, 0)]
        assert checks.self_times(spans)[0] == 10

    def test_tracer_records_nesting_and_restores(self):
        module = types.ModuleType("fake")
        exec("def inner(x):\n    return x + 1\n"
             "def outer(x):\n    return inner(x) * 2\n"
             "def _private():\n    return 0\n", module.__dict__)
        originals = dict(vars(module))
        with Tracer({"fake": module}) as tracer:
            assert module.outer(1) == 4
            spans = tracer.take()
        assert [s[0] for s in spans] == ["fake.outer", "fake.inner"]
        assert spans[1][3] == 0
        profile = JobProfile(spans, job_ns=spans[0][2] - spans[0][1])
        assert profile.calls == {"fake.outer": 1, "fake.inner": 1}
        assert profile.self_ns["fake.outer"] + profile.self_ns["fake.inner"] \
            == spans[0][2] - spans[0][1]
        assert profile.outside_ns == 0
        assert all(getattr(module, k) is v for k, v in originals.items())



class FakeWorkload:
    """Three jobs of three problems each, with fixed per-problem latencies (ns)."""

    problems_per_job = 3
    direct_calls: dict = {}

    def __init__(self, latencies, problems_timed=True):
        self.latencies = iter(latencies)
        self.problems_timed = problems_timed

    def run_job(self, index):
        return None, next(self.latencies)

    def check(self, payload):
        return 3, 0, []


class TestBestOfRepeats:
    def test_each_problem_keeps_its_fastest_repeat(self):
        fake = FakeWorkload([[30, 10, 50], [20, 40, 60], [25, 15, 5]])
        job_s, best, _ = run.run_jobs(fake, 0.0, run.Tally(), itertools.count(), min_jobs=3)
        assert len(job_s) == 3
        assert best.tolist() == [20, 10, 5]
        values = run.end_to_end(fake, [0.5, 0.25, 1.0], job_s, best, 2048)
        assert values["job_s"] == pytest.approx(35e-9)
        assert values["problems_per_s"] == pytest.approx(3 / 35e-9)
        assert (values["problem_p50_us"], values["problem_p99_us"]) == (0.01, 0.02)
        assert values["setup_s"] == 0.5
        assert values["peak_rss_mb"] == 2.0

    def test_batched_job_sums_its_fastest_parts(self):
        fake = FakeWorkload([], problems_timed=False)
        best = run.np.array([300, 200, 100])
        values = run.end_to_end(fake, [1.0], [0.75, 0.5, 2.0], best, 1024)
        assert values["job_s"] == pytest.approx(600e-9)
        assert values["problem_p50_us"] == values["problem_p99_us"] == pytest.approx(0.6)

    def test_single_part_job_reports_its_fastest_job(self):
        fake = FakeWorkload([], problems_timed=False)
        values = run.end_to_end(fake, [1.0], [0.75, 0.5, 2.0], None, 1024)
        assert values["job_s"] == 0.5
        assert values["problem_p50_us"] == values["problem_p99_us"] == 0.5e6

class TestOracles:
    def test_kkt_oracle_matches_solver_on_readme_example(self):
        import radarbias as rb

        weights = rb.BiasCostWeights(k_r1_sq=2, k_psi1_sq=1.25e9, k_theta1_sq=1.25e9,
                                     k_r2_sq=2, k_psi2_sq=5e9, k_theta2_sq=5e9)
        problem = rb.RegistrationProblem(
            relative_bias=np.array([200.0, 500.0, 300.0]),
            geom1=rb.SensorGeometry(p_t=25000, azimuth=0.0, elevation=0.7854),
            geom2=rb.SensorGeometry(p_t=50000, azimuth=0.0, elevation=2.3562),
            weights=weights)
        sol = rb.solve_absolute_bias(problem)
        got = np.concatenate([sol.bias1.as_array(), sol.bias2.as_array()])
        want = checks.kkt_solve(problem.relative_bias, (25000, 0.0, 0.7854),
                                (50000, 0.0, 2.3562), weights.sensor1(), weights.sensor2())
        scale = np.array([1.0, 25000, 25000, 1.0, 50000, 50000])
        assert np.linalg.norm((got - want) * scale) <= 1e-6 * np.linalg.norm(want * scale)
        # the README's published figures, to their printed precision
        np.testing.assert_allclose(want, [-176.78, -1.0e-2, -1.4142e-3,
                                          35.355, 5.0e-3, -3.5355e-3], rtol=2e-4)

    def test_cubic_check_accepts_printed_root_and_rejects_corrupted(self):
        from radarbias import solve_beta

        alpha, rho = np.array([0.2, 0.9, 1.5]), np.array([2.0, 0.01, 100.0])
        beta = np.array([solve_beta(a, r) for a, r in zip(alpha, rho)])
        printed = np.array([float(f"{b:.6g}") for b in beta])
        assert checks.cubic_root_within_print(alpha, printed, rho).all()
        corrupted = np.array([float(f"{b * (1 + 1e-4):.6g}") for b in beta])
        assert not checks.cubic_root_within_print(alpha, corrupted, rho).any()

    def test_bisection_root_and_moduli(self):
        beta = checks.cubic_root(0.2, 2.0)
        assert beta == pytest.approx(0.043851, abs=5e-7)
        assert abs(checks.gain_cubic(0.2, beta, 2.0)) < 1e-15
        assert (checks.closed_loop_moduli(0.2, beta) < 1.0).all()
        assert (checks.closed_loop_moduli(0.2, 4.0 - 0.4) >= 1.0).any()


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
