"""Test-session setup shared by every test module.

On a failing property test, hypothesis imports ``hypothesis.extra._patching``
to write a patch file. That module imports libcst, whose import raises a
DeprecationWarning (``mypy_extensions.TypedDict is deprecated``); under
``python -X dev -W error -m pytest`` the warning becomes an exception inside
pytest's report hook, and the run ends in INTERNALERROR without the
falsifying example. Importing the module once here, with that warning
ignored, leaves it cached, so the hook's own import is silent. Without
libcst the import fails and hypothesis skips the patch file by itself.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
