"""Mutation survey: which decisions in src/radarbias does the tier-1 suite pin?

A mutant is one small edit to a module: a threshold, a loop count, a
comparison or a documented limit changed, or a check switched off. For
each mutant the script copies ``src/``, ``tests/``, ``pyproject.toml`` and
``README.md`` into a new temporary directory and applies the edit there.
It then runs the mutated module's own test file, ``tests/test_<module>.py``,
with tier-1's flags and ``-x``, and the whole tier-1 suite only when that
file passes, one subprocess at a time. The mutant is killed when a run
fails or times out, and survived when the suite passes: a failure in the
module's file is a tier-1 failure, found without the files before it. The
checkout itself is never written. An unmutated copy runs the suite first;
if it fails, the survey stops.

    python tests/mutants.py             # every mutant, one table row each
    python tests/mutants.py 3 17        # mutants 3 and 17 only
    python tests/mutants.py --check     # each old text occurs exactly once; runs nothing

A mutant that its module's file kills takes seconds; any other takes up to
a full tier-1 run more (about 45 s on 2 CPUs). A run that takes longer than
``TIMEOUT_FACTOR`` times the unmutated suite's wall time is stopped, and its
mutant killed: a mutant can make LAPACK hang on a non-finite matrix. Each
table row gives the mutant's wall time. Hypothesis runs with a fixed seed,
so a survey repeats. The script uses the stdlib only, and pytest does not
collect it (its name does not start with test_).
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src/radarbias")
COPIED = ("src", "tests", "pyproject.toml", "README.md")
TIER1 = [sys.executable, "-X", "dev", "-W", "error", "-m", "pytest", "-q", "-x",
         "-p", "no:cacheprovider", "--hypothesis-seed=0", "--continue-on-collection-errors"]
#: a suite run may take this many times the unmutated suite's wall time; a mutant whose
#: run takes longer (tier-1 hangs) is killed
TIMEOUT_FACTOR = 3

#: (file under src/radarbias, old text, new text); the old text occurs once in its file
MUTANTS = [
    # registration: documented limits, both ways
    ("registration.py", "MIN_RANGE_M = 1e-6", "MIN_RANGE_M = 1e-3"),
    ("registration.py", "MIN_RANGE_M = 1e-6", "MIN_RANGE_M = 1e-9"),
    ("registration.py", "if not geom.p_t >= MIN_RANGE_M:", "if not geom.p_t > MIN_RANGE_M:"),
    ("registration.py", "_COND_LIMIT = 1e14", "_COND_LIMIT = 1e15"),
    ("registration.py", "_COND_LIMIT = 1e14", "_COND_LIMIT = 1e13"),
    ("registration.py", "_CONSTRAINT_RTOL = 1e-9", "_CONSTRAINT_RTOL = 1e-6"),
    ("registration.py", "_CONSTRAINT_RTOL = 1e-9", "_CONSTRAINT_RTOL = 1e-12"),
    ("registration.py", "max(_CONSTRAINT_RTOL * bias_norm, sys.float_info.min)",
     "_CONSTRAINT_RTOL * bias_norm"),
    # registration: the solve
    ("registration.py", "for _ in range(3):", "for _ in range(2):"),
    ("registration.py", "if not all(map(math.isfinite, bmat.ravel().tolist())):", "if False:"),
    ("registration.py", "(cost, objective, constraint_resid, kkt)",
     "(cost, objective, constraint_resid)"),
    ("registration.py", "return resid_norm / scale if scale else resid_norm",
     "return resid_norm / scale"),
    # registration: input checks
    ("registration.py", "if isinstance(value, (bool, str)):", "if isinstance(value, bool):"),
    ("registration.py", "if not 0 < value < math.inf:", "if not 0 < value:"),
    ("registration.py",
     "if not all(map(math.isfinite, (self.p_t, self.azimuth, self.elevation))):", "if False:"),
    ("registration.py", "if not all(map(math.isfinite, b.tolist())):", "if False:"),
    ("registration.py", "if b.shape != (3,):", "if False:"),
    # steady_state: tolerances and the root
    ("steady_state.py", "_ZERO_TOL = 1e-12", "_ZERO_TOL = 1e-10"),
    ("steady_state.py", "_ZERO_TOL = 1e-12", "_ZERO_TOL = 1e-14"),
    ("steady_state.py", "return np.abs(den) < _ZERO_TOL", "return den == 0.0"),
    ("steady_state.py", "    return beta - f / (6 * beta * beta / scale + rho / scale * c1)",
     "    return beta"),
    ("steady_state.py", "scale = np.maximum(rho, 1.0)", "scale = 1.0"),
    ("steady_state.py", "if not r > 0:", "if not r >= 0:"),
    # steady_state: validity checks
    ("steady_state.py", "im = np.sqrt(np.maximum(-radicand, 0.0)) / 2.0", "im = 0.0"),
    ("steady_state.py", "np.hypot(base - half, im)", "np.hypot(base - half, 0.0)"),
    ("steady_state.py", '"stable": np.maximum(*moduli) < 1.0,',
     '"stable": np.maximum(*moduli) <= 1.0,'),
    ("steady_state.py", "eigvalsh(block[0]) > 0))", "eigvalsh(block[0]) >= 0))"),
    ("steady_state.py", "return not variance > 0 or bool(", "return bool("),
    ("steady_state.py", "if _vanishes(block[1]) or not _finite(block[0]):",
     "if _vanishes(block[1]):"),
    ("steady_state.py",
     'if checks["alpha_nonzero"] and checks["beta_nonzero"] and checks["beta_not_excluded"]:',
     "if True:"),
    ("steady_state.py", "    if not _finite(stack):\n", "    if False:\n"),
    # steady_state: config checks
    ("steady_state.py", "if not rho >= 0:", "if False:"),
    ("steady_state.py", "        cls(period, meas_var, 0.0, bias_var)\n", "        pass\n"),
    ("steady_state.py", "if not meas_var > 0:", "if not meas_var >= 0:"),
    ("steady_state.py", "if math.isinf(process_var):", "if False:"),
    ("steady_state.py", "if not (self.period > 0 and 0 < self.period * self.period < math.inf):",
     "if not self.period > 0:"),
    ("steady_state.py", "if self.meas_var < 0 or self.process_var < 0 or self.bias_var < 0:",
     "if self.meas_var < 0 or self.process_var < 0:"),
    # steady_state: the gain table's noise-level check and point checks
    ("steady_state.py", "    SteadyStateConfig.from_rho(0.0, period, meas_var, bias_var)\n",
     "    pass\n"),
    ("steady_state.py", "_finite(s_dot),\n             ~_vanishes(mn[1]), ~_vanishes(mq[1])])",
     "_finite(s_dot)])"),
    # filter_core: the gain equation
    ("filter_core.py", "_GAIN_COND_LIMIT = 1e12", "_GAIN_COND_LIMIT = 1e13"),
    ("filter_core.py", "_GAIN_COND_LIMIT = 1e12", "_GAIN_COND_LIMIT = 1e11"),
    ("filter_core.py", "if bracket.shape == (1, 1):", "if False:"),
    ("filter_core.py", "if not (math.isfinite(value) and value != 0.0):",
     "if not math.isfinite(value):"),
    ("filter_core.py", "if not (math.isfinite(value) and value != 0.0):",
     "if not value != 0.0:"),
    ("filter_core.py", "if not np.isfinite(bracket).all():", "if False:"),
    ("filter_core.py", "if not cond <= _GAIN_COND_LIMIT:", "if cond > _GAIN_COND_LIMIT:"),
    # filter_core: the kept terms
    ("filter_core.py", "if kept is None or kept[0] != key:", "if True:"),
    ("filter_core.py", "if kept is None or kept[0] != key or kept[1] is not terms:", "if True:"),
    ("filter_core.py", "if kept is None or kept[0] != key or kept[1] is not terms:",
     "if kept is None or kept[0] != key:"),
    # filter_core: shape checks
    ("filter_core.py", "if state.gain is None:", "if False:"),
    ("filter_core.py", "if k_gain.shape != (n, q):", "if False:"),
    ("filter_core.py", "if z.shape != (q,):", "if False:"),
    ("filter_core.py", "if arr.shape != want:", "if False:"),
    ("filter_core.py", "if x.shape != (n,):", "if False:"),
    # sim_harness: the scenario
    ("sim_harness.py", "if self.n_runs < 1 or self.n_steps < 1:",
     "if self.n_runs < 0 or self.n_steps < 0:"),
    ("sim_harness.py", "not 0 <= self.burn_in < self.n_steps",
     "not 0 <= self.burn_in <= self.n_steps"),
    ("sim_harness.py", "if self.master_seed < 0:", "if False:"),
    # the scenario counts' whole-number rule, which registration._number applies
    ("registration.py", "or isinstance(value, float) and not value.is_integer())", "or False)"),
    ("sim_harness.py", "return self.n_steps // 2 if", "return self.n_steps // 3 if"),
    # sim_harness: the run
    ("sim_harness.py", "if not report.ok:", "if False:"),
    ("sim_harness.py", "if k >= burn_in:", "if k > burn_in:"),
    ("sim_harness.py", "threading.Semaphore(8)", "threading.Semaphore(2)"),
    ("sim_harness.py", "                    ready[c].clear()\n", "                    pass\n"),
    ("sim_harness.py", "np.isfinite(empirical).all() and np.isfinite(rel).all()",
     "np.isfinite(empirical).all()"),
    ("sim_harness.py", "where=pred != 0.0", "where=True"),
    # coords: the pointing rows that the face rotation, the site frames and A share
    ("coords.py", "(-s_psi, c_psi, 0.0)", "(s_psi, c_psi, 0.0)"),
    # coords: input checks and the kept frames
    ("coords.py", "if not abs(self.latitude) <= math.pi / 2:",
     "if not abs(self.latitude) < math.pi / 2:"),
    ("coords.py", "if not math.isfinite(self.longitude):", "if False:"),
    ("coords.py", "if not 0 < self.equatorial_radius_m < math.inf:",
     "if not 0 < self.equatorial_radius_m:"),
    ("coords.py", "if not 0 <= self.eccentricity < 1:", "if not 0 <= self.eccentricity <= 1:"),
    ("coords.py", "if r == 0.0:", "if False:"),
    ("coords.py", "if not math.isfinite(r):", "if False:"),
    ("coords.py", "if psi == -math.pi:", "if False:"),
    ("coords.py", "at_pole = r_xy == 0.0", "at_pole = False"),
    ("coords.py", "wgs84 = earth is WGS84 or earth == WGS84", "wgs84 = earth == WGS84"),
    ("coords.py", 'frame = site.__dict__.get("_frame_ld") if wgs84 else None', "frame = None"),
    ("coords.py", "                array.setflags(write=False)\n", "                pass\n"),
    # cli
    ("cli.py", 'return float(f"{float(x):.6g}")', 'return float(f"{float(x):.7g}")'),
    ("cli.py", 'if not text.endswith("\\n"):', "if False:"),
    ("cli.py", "if not isinstance(doc, dict):", "if False:"),
    ("cli.py", "    if not values:\n", "    if False:\n"),
    ("cli.py", "if not all(map(math.isfinite, values)):\n        raise ConfigError",
     "if False:\n        raise ConfigError"),
    ("cli.py", "if not all(map(math.isfinite, values)):\n        raise NonFiniteTransform",
     "if False:\n        raise NonFiniteTransform"),
    ("cli.py", "if len(values) != 2:", "if len(values) < 2:"),
    ("cli.py", "if len(point) != 3:", "if len(point) < 3:"),
    ("cli.py", "if args.seed is not None:", "if args.seed:"),
    ("cli.py", "self.exit(3, ", "self.exit(2, "),
    ("cli.py", "except (ValueError, MemoryError) as exc:", "except ValueError as exc:"),
    ("cli.py", "return 2 if isinstance(exc, DomainError) else 3", "return 3"),
    # appended, so the numbers above stay: the whole-number rule and a NaN noise ratio
    ("registration.py", "if kind is int and (isinstance(value, bool)",
     "if (isinstance(value, bool)"),
    ("registration.py", "and not value.is_integer())", "and value.is_integer())"),
    ("registration.py", "if kind is int and (isinstance(value, bool)\n",
     "if kind is int and (False\n"),
    ("steady_state.py", "if not rho >= 0:", "if rho < 0:"),
    # appended: the draw scheduler's failure and stop paths, a run too large to allocate
    # and a document's null, list or object in place of a number
    ("sim_harness.py", "                if failure:\n", "                if False:\n"),
    ("sim_harness.py", "end = 0  #", "end = 2 * n_steps  #"),
    ("sim_harness.py", "permits.release(2)", "permits.release(3)"),
    ("sim_harness.py", "except (MemoryError, ValueError):", "except MemoryError:"),
    ("registration.py", "    except TypeError:", "    except ZeroDivisionError:"),
    # appended: the filter's one form of S, and the M and D updates
    ("filter_core.py", "return _symmetrize(m_cov + d.dot(model.bias_cov).dot(d.T))",
     "return m_cov + d.dot(model.bias_cov).dot(d.T)"),
    ("filter_core.py", "l_eff.dot(m_cov).dot(l_eff_t) + knk_t)", "l_eff.dot(m_cov).dot(l_eff_t))"),
    ("filter_core.py", "d = l_eff.dot(d) - k_wjb", "d = l_eff.dot(d) + k_wjb"),
]


def check() -> list[str]:
    """The problems of the mutant list against the checkout; empty when every mutant applies."""
    problems = []
    for number, (name, old, new) in enumerate(MUTANTS, 1):
        path = ROOT / PACKAGE / name
        count = path.read_text(encoding="utf-8").count(old) if path.is_file() else 0
        if count != 1:
            problems.append(f"mutant {number}: old text occurs {count} times in {name}: {old!r}")
        if old == new:
            problems.append(f"mutant {number}: old and new text are the same")
    return problems


def _copy_tree(target: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, target / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", ".pytest_cache"))
        else:
            shutil.copy2(source, target / name)


def _pytest(tree: Path, target: str, timeout: float | None) -> tuple[str, str]:
    """Tier-1's pytest run on ``target`` in ``tree``: (result, first failure)."""
    try:
        proc = subprocess.run([*TIER1, target], cwd=tree, env=dict(os.environ, PYTHONPATH="src"),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "killed", f"timeout after {timeout:.0f} s"
    if proc.returncode == 0:
        return "survived", ""
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", proc.stdout, re.MULTILINE)
    return "killed", failed.group(1) if failed else f"pytest exit {proc.returncode}"


def run_suite(mutant, timeout: float | None = None) -> tuple[str, str]:
    """Tier-1 on a new copy of the tree, with ``mutant`` applied: (result, first failure).

    The mutated module's own test file runs first; the whole suite runs only
    when it passes (and always when ``mutant`` is None). Each run is stopped
    after ``timeout`` seconds.
    """
    with tempfile.TemporaryDirectory(prefix="radarbias-mutant-") as tmp:
        tmp = Path(tmp)
        _copy_tree(tmp)
        if mutant is not None:
            name, old, new = mutant
            path = tmp / PACKAGE / name
            path.write_text(path.read_text(encoding="utf-8").replace(old, new, 1),
                            encoding="utf-8")
            own = f"tests/test_{name}"
            if (tmp / own).is_file():
                result = _pytest(tmp, own, timeout)
                if result[0] == "killed":
                    return result
        return _pytest(tmp, "tests", timeout)


def _cell(text: str) -> str:
    return "`" + " ".join(text.split()).replace("|", "\\|") + "`"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("numbers", nargs="*", type=int, help="mutants to run (1-based)")
    parser.add_argument("--check", action="store_true",
                        help="only check that each old text occurs exactly once")
    args = parser.parse_args(argv)
    problems = check()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    if args.check:
        print(f"{len(MUTANTS)} mutants apply")
        return 0
    numbers = args.numbers or range(1, len(MUTANTS) + 1)
    if not set(numbers) <= set(range(1, len(MUTANTS) + 1)):
        parser.error(f"mutant numbers run from 1 to {len(MUTANTS)}")

    start = time.perf_counter()
    result, failure = run_suite(None)
    timeout = TIMEOUT_FACTOR * (time.perf_counter() - start)
    if result != "survived":
        print(f"the unmutated suite fails ({failure}); no survey", file=sys.stderr)
        return 1
    print(f"unmutated suite: {timeout / TIMEOUT_FACTOR:.0f} s, so a run stops after "
          f"{timeout:.0f} s\n")
    print("| # | module | old | new | result | first failure | s |")
    print("| ---: | --- | --- | --- | --- | --- | ---: |")
    survived = 0
    for number in numbers:
        name, old, new = MUTANTS[number - 1]
        start = time.perf_counter()
        result, failure = run_suite(MUTANTS[number - 1], timeout)
        survived += result == "survived"
        print(f"| {number} | `{name[:-3]}` | {_cell(old)} | {_cell(new)} | {result} | "
              f"{_cell(failure) if failure else ''} | {time.perf_counter() - start:.0f} |",
              flush=True)
    print(f"\n{len(numbers) - survived} killed, {survived} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
