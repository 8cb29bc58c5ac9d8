"""Test-session setup shared by every test module.

On a failing property test, hypothesis imports ``hypothesis.extra._patching``
to write a patch file. That module imports libcst, whose import raises a
DeprecationWarning (``mypy_extensions.TypedDict is deprecated``); under
``python -X dev -W error -m pytest`` the warning becomes an exception inside
pytest's report hook, and the run ends in INTERNALERROR without the
falsifying example. Importing the module once here, with that warning
ignored, leaves it cached, so the hook's own import is silent. Without
libcst the import fails and hypothesis skips the patch file by itself.

A test that runs longer than ``HANG_SECONDS`` (30 s; the slowest takes
about 3 s) is taken to hang, for instance on a deadlocked draw scheduler:
the stdlib ``faulthandler`` prints every thread's stack and ends the run
with exit 1. The stacks go to a copy of stderr made in
``pytest_configure``, while pytest's capture is suspended, so they reach
the terminal under the default fd capture as well. faulthandler has one
timer, so this replaces pytest's own ``faulthandler_timeout``. The run
ends without reaping child processes, so a test that starts one gives it a
timeout below ``HANG_SECONDS``.
"""

import faulthandler
import os
import warnings

import pytest

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

HANG_SECONDS = 30
_DUMP_FD = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_DUMP_FD] = os.dup(2)


def pytest_unconfigure(config):
    faulthandler.cancel_dump_traceback_later()
    os.close(config.stash[_DUMP_FD])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True, file=item.config.stash[_DUMP_FD])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
