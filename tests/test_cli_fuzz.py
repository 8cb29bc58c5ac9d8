"""Fuzzed command lines and config documents for all four subcommands.

Whatever the argv or document, the CLI exits 0, 2 or 3, prints no
traceback, raises no warning, and prints standard JSON (no NaN or
Infinity) or CSV whose numbers are finite. Runs stay at most 300 x 40.
"""

import csv
import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radarbias import cli
from radarbias.cli import main

from test_cli import UNWRITABLE_ARGV, config_file, example_config, scenario_doc


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def check_cli(argv, stdin=""):
    """Run ``main(argv)`` in-process, check the CLI's invariants; its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), redirect_stdout(out), \
            redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if code != 0:
        assert out == ""
        if err.startswith("usage: radarbias"):
            assert code == 3 and ": error: " in err.splitlines()[-1]
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        return code
    assert err == ""
    output = argv[argv.index("--output") + 1] if "--output" in argv else "-"
    text = out if output == "-" else Path(output).read_text(encoding="utf-8")
    if text.startswith(("{", "[")):
        json.loads(text, parse_constant=_reject_constant)
    else:
        rows = list(csv.reader(io.StringIO(text)))
        for row in rows[1:]:
            assert all(math.isfinite(float(v)) for h, v in zip(rows[0], row) if h != "entry")
    return code


DELETE = object()


def with_changes(doc, changes):
    """A copy of ``doc`` with each ``(keys, value)`` set, or deleted for value DELETE."""
    doc = json.loads(json.dumps(doc))
    for keys, value in changes:
        try:
            inner = doc
            for key in keys[:-1]:
                inner = inner[key]
            if value is DELETE:
                del inner[keys[-1]]
            else:
                inner[keys[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier change replaced or deleted the container
    return doc


def text_list(element, min_size=0, max_size=4):
    return st.lists(element, min_size=min_size, max_size=max_size).map(",".join)


def floats_text(low, high):
    return st.floats(min_value=low, max_value=high).map(repr)


#: option values as typed: any float, out-of-range and malformed text
WIDE_NUMBER = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0", "-0", "5e-324", "1e400", "-1e400", "nan", "inf", "abc", "", " "]),
)
WIDE_OPTION = st.one_of(
    WIDE_NUMBER, text_list(WIDE_NUMBER),
    st.builds("{}:{}".format, text_list(WIDE_NUMBER), text_list(WIDE_NUMBER)),
    st.sampled_from(["json", "csv", "xml", "bogus"]),
)


def options(good, extra=()):
    """``--name=value`` flags from ``good`` values, up to two of them dropped or made wide.

    ``extra`` names options that are only ever set to wide values.
    """
    names = sorted(good) + list(extra)
    changes = st.lists(st.tuples(st.sampled_from(names), st.none() | WIDE_OPTION), max_size=2)

    def flags(values, changes):
        for name, value in changes:
            values.pop(name, None)
            if value is not None:
                values[name] = value
        return [f"--{name.replace('_', '-')}={value}" for name, value in values.items()]

    return st.builds(flags, st.fixed_dictionaries(good), changes)


FORMAT = st.sampled_from(["json", "csv"])


@settings(max_examples=300, deadline=None)
@given(argv=options({"rho": text_list(floats_text(1e-3, 1e3), 1), "format": FORMAT,
                     "alpha": text_list(floats_text(0.01, 1.95), 1),
                     "period": floats_text(0.01, 100.0), "meas_var": floats_text(0.01, 100.0),
                     "bias_var": floats_text(0.0, 1e3)}, extra=["grid"]))
def test_fuzzed_gains(argv):
    check_cli(["gains", *argv])


ANGLE = floats_text(-1.5, 1.5)


@settings(max_examples=300, deadline=None)
@given(argv=options({"from": st.sampled_from(cli._FRAMES), "to": st.sampled_from(cli._FRAMES),
                     "point": text_list(floats_text(-1e6, 1e6), 3, 3),
                     "site1": text_list(ANGLE, 2, 2), "site2": text_list(ANGLE, 2, 2),
                     "face_angles": text_list(ANGLE, 2, 2), "format": FORMAT},
                    extra=["r_ee", "eccentricity"]),
       velocity=st.booleans())
def test_fuzzed_transform(argv, velocity):
    check_cli(["transform", *argv, *(["--velocity"] if velocity else [])])


#: document values: numbers of every size and the types that are not numbers
JSON_VALUE = st.one_of(
    st.floats(), st.floats(min_value=-1e6, max_value=1e6), st.floats(1e-3, 1e6),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-9, 2.0, math.pi / 2, 1e308, 1.7976931348623157e308]),
    st.integers(-10**30, 10**30), st.just(10**400), st.booleans(), st.none(),
    st.text(max_size=4), st.lists(st.floats(), max_size=3), st.just(DELETE),
)
NOT_A_DOCUMENT = st.sampled_from(["", "{not json", "[1, 2]", "3", '"x"', "null"])
REGISTRATION_KEYS = [("relative_bias",), ("relative_bias", 1), ("unused",),
                     *[(sensor, key) for sensor in ("sensor1", "sensor2")
                       for key in ("p_t", "azimuth", "elevation")],
                     *[("weights", key) for key in example_config()["weights"]]]


@settings(max_examples=300, deadline=None)
@given(changes=st.lists(st.tuples(st.sampled_from(REGISTRATION_KEYS), JSON_VALUE), max_size=2),
       not_a_document=st.none() | NOT_A_DOCUMENT, fmt=FORMAT)
def test_fuzzed_register(changes, not_a_document, fmt):
    doc = not_a_document or json.dumps(with_changes(example_config("a"), changes))
    check_cli(["register", "--config", "-", f"--format={fmt}"], stdin=doc)


SCENARIO = scenario_doc(n_runs=50, n_steps=20)
SCENARIO_KEYS = [("config",), ("gains",), ("master_seed",), ("burn_in",), ("unused",),
                 *[("config", key) for key in SCENARIO["config"]],
                 *[("gains", key) for key in SCENARIO["gains"]]]
#: counts that allocate little: at most 300 runs of 40 steps
N_RUNS = st.one_of(st.integers(1, 300), st.integers(-2, 300),
                   st.sampled_from([1.5, 300.0, True, "3", None, DELETE]))
N_STEPS = st.one_of(st.integers(1, 40), st.integers(-2, 40),
                    st.sampled_from([2.5, 40.0, False, "3", None, DELETE]))


@settings(max_examples=200, deadline=None)
@given(changes=st.lists(st.tuples(st.sampled_from(SCENARIO_KEYS), JSON_VALUE), max_size=2),
       n_runs=N_RUNS, n_steps=N_STEPS, seed=st.none() | st.integers(-5, 2**70).map(str),
       not_a_document=st.none() | NOT_A_DOCUMENT, fmt=FORMAT)
def test_fuzzed_simulate(changes, n_runs, n_steps, seed, not_a_document, fmt):
    changes += [(("n_runs",), n_runs), (("n_steps",), n_steps)]
    doc = not_a_document or json.dumps(with_changes(SCENARIO, changes))
    argv = ["simulate", "--config", "-", f"--format={fmt}"]
    check_cli(argv + ([f"--seed={seed}"] if seed else []), stdin=doc)


BIAS_VAR_1E308 = with_changes(SCENARIO, [(("config", "bias_var"), 1e308)])
N_RUNS_1E15 = with_changes(SCENARIO, [(("n_runs",), 10**15)])


@pytest.mark.parametrize("argv, doc, code", [
    # four exits that such a fuzz would have caught, fixed before it existed
    pytest.param(["simulate"], BIAS_VAR_1E308, 2, id="simulate-overflowing-sum"),
    pytest.param(["simulate", "--format=csv"], BIAS_VAR_1E308, 2,
                 id="simulate-overflowing-sum-csv"),
    pytest.param(["register"], with_changes(example_config(), [(("sensor1", "p_t"), 10**400)]), 3,
                 id="register-int-beyond-double"),
    pytest.param(["gains", "--period", "abc"], None, 3, id="usage-error"),
    pytest.param(["bogus"], None, 3, id="unknown-subcommand"),
    pytest.param(["register"],
                 with_changes(example_config(), [(("weights", "k_r1_sq"), math.inf)]), 3,
                 id="register-infinite-weight"),
    pytest.param(["register"], with_changes(example_config(), [(("sensor2", "p_t"), 0.0)]), 2,
                 id="register-singular-geometry"),
    # every array of this run is larger than any address space, so it fails at once
    pytest.param(["simulate"], N_RUNS_1E15, 3, id="simulate-too-large"),
    pytest.param(["simulate", "--format=csv"], N_RUNS_1E15, 3, id="simulate-too-large-csv"),
])
def test_fixed_exits(argv, doc, code):
    if doc is not None:
        argv = [*argv, "--config", "-"]
    assert check_cli(argv, stdin=json.dumps(doc)) == code


@pytest.mark.parametrize("command", sorted(UNWRITABLE_ARGV))
@pytest.mark.parametrize("target", ["missing-directory", "directory", "file"])
def test_output_paths(tmp_path, command, target):
    docs = {"EXAMPLE": example_config(), "SCENARIO": scenario_doc(n_runs=20, n_steps=10)}
    argv = [config_file(tmp_path, docs[a]) if a in docs else a for a in UNWRITABLE_ARGV[command]]
    path = {"missing-directory": tmp_path / "missing" / "out.txt", "directory": tmp_path,
            "file": tmp_path / "out.txt"}[target]
    assert check_cli([command, *argv, "--output", str(path)]) == (0 if target == "file" else 3)
