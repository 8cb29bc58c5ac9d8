"""Golden CLI cases: each recorded command still gives the same exit code, stderr and stdout.

Each line of ``tests/golden/*.jsonl`` is one case: the argv after
``radarbias``, the text fed to stdin (``stdin``, for ``--config -``; absent
when the case reads none), the exit code, the exact stderr and the SHA-256
of stdout. An argv entry may hold ``{output}``, which stands for a file in
a new temporary directory, as in ``--output {output}``; the case then
also records the SHA-256 of the file the command wrote (``output_sha256``),
and the path is put back to ``{output}`` in stderr. The cases run
in-process through ``cli.main``, with argparse's width fixed at 80
columns. A ``simulate`` report's ``wall_time_s`` is masked before
hashing. ``transform`` prints its long-double results in full, so its
cases are checked only where ``np.longdouble`` is x87 extended precision,
on which they were recorded.

    python tests/test_golden.py --regen     # rewrite every case from its argv and stdin

Regenerate only for a change of behaviour made on purpose, and list the
cases that changed; a case that changes by accident is a fault to mend.
To add a case, append a line holding only its ``argv`` (and ``stdin``) and
regenerate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from radarbias import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
EXTENDED = np.finfo(np.longdouble).nmant == 63
OUTPUT = "{output}"


def _sha256(text: str) -> str:
    text = re.sub(r'"wall_time_s": [^,\n}]+', '"wall_time_s": 0', text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_case(case: dict) -> dict:
    """The recorded fields of ``radarbias *argv`` with the case's stdin, run in-process."""
    case = {key: value for key, value in case.items() if key != "output_sha256"}
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory(prefix="radarbias-golden-") as tmp, \
            mock.patch("sys.stdin", io.StringIO(case.get("stdin", ""))), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        output = Path(tmp) / "output"
        try:
            code = cli.main([arg.replace(OUTPUT, str(output)) for arg in case["argv"]])
        except SystemExit as exc:
            code = exc.code
        written = ({"output_sha256": _sha256(output.read_bytes().decode("utf-8"))}
                   if output.exists() else {})
    return {**case, "exit": code, "stderr": err.getvalue().replace(str(output), OUTPUT),
            "stdout_sha256": _sha256(out.getvalue()), **written}


def _cases(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _changed(transform: bool) -> list[str]:
    files = sorted(GOLDEN.glob("*.jsonl"))
    assert files
    return [f"{path.name}:{number}: {' '.join(case['argv'])[:120]}"
            for path in files for number, case in enumerate(_cases(path), 1)
            if (case["argv"][:1] == ["transform"]) == transform and run_case(case) != case]


def test_golden_cases_reproduce():
    changed = _changed(transform=False)
    assert not changed, "golden cases changed:\n" + "\n".join(changed)


@pytest.mark.skipif(not EXTENDED, reason="transform cases were recorded with an x87 extended "
                    "np.longdouble, whose digits this platform's long double does not carry")
def test_golden_transform_cases_reproduce():
    changed = _changed(transform=True)
    assert not changed, "golden transform cases changed:\n" + "\n".join(changed)


def regen() -> None:
    if not EXTENDED:
        sys.exit("regenerate where np.longdouble is x87 extended, or the transform cases change")
    for path in sorted(GOLDEN.glob("*.jsonl")):
        lines = [json.dumps(run_case(case)) for case in _cases(path)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"{path.name}: {len(lines)} cases")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: {sys.argv[0]} --regen")
    regen()
