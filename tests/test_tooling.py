"""The README's library example, failing property tests under ``-W error``, and hangs."""

import importlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import radarbias

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
#: the source tree this suite imports, for subprocesses
PYTHONPATH = os.pathsep.join(filter(None, [str(Path(radarbias.__file__).resolve().parents[1]),
                                           os.environ.get("PYTHONPATH")]))


def test_readme_python_block_runs():
    """The README's one ``python`` block runs as written and prints S11 119.677."""
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                          re.MULTILINE | re.DOTALL)
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", block],
                          capture_output=True, text=True, timeout=20,
                          env={**os.environ, "PYTHONPATH": PYTHONPATH})
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert "[[119.67" in proc.stdout


FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 10
"""


@pytest.mark.parametrize("libcst", ["installed", "missing"])
def test_failing_property_prints_its_example_under_w_error(tmp_path, libcst):
    """With tests/conftest.py, a failing @given test fails normally under -X dev -W error.

    Without the conftest, hypothesis's patch writer imports libcst on the
    failure, libcst's DeprecationWarning becomes an error in pytest's report
    hook, and the run ends in INTERNALERROR (exit 3). A ``libcst`` module
    that raises ImportError stands in for a machine without libcst. The
    ``installed`` case needs libcst, so where it is missing (as on CI) it
    skips, and only that case tests the conftest.
    """
    if libcst == "installed":
        try:
            importlib.import_module("libcst")
        except ImportError:
            pytest.skip("libcst is not installed")
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    if libcst == "missing":
        (tmp_path / "libcst.py").write_text('raise ImportError("no libcst here")\n',
                                            encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "pytest", "-q", "-p",
         "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": PYTHONPATH})
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout and "INTERNALERROR" not in proc.stdout


HANGING_TEST = """\
import threading


def test_passes():
    pass


def test_waits_for_nothing():
    threading.Event().wait()
"""


def test_a_hanging_test_ends_the_run_and_prints_its_stack(tmp_path):
    """With tests/conftest.py, a test that blocks forever ends the run with exit 1.

    The run uses pytest's default fd capture, as the tier-1 command does,
    and the copied conftest lowers the limit to 2 s; the thread dump on
    stderr names the blocked test.
    """
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    with open(tmp_path / "conftest.py", "a", encoding="utf-8") as conftest:
        conftest.write("\nHANG_SECONDS = 2\n")
    (tmp_path / "test_hanging.py").write_text(HANGING_TEST, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_hanging.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": PYTHONPATH})
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Timeout (0:00:02)!" in proc.stderr, proc.stderr
    assert re.search(r"test_hanging\.py\", line \d+ in test_waits_for_nothing", proc.stderr)
