"""Golden CLI cases: each recorded argv still gives the same exit code, stderr and stdout.

Each line of ``tests/golden/*.jsonl`` is one case: the argv after
``radarbias``, the exit code, the exact stderr and the SHA-256 of stdout.
The cases run in-process through ``cli.main``.

    python tests/test_golden.py --regen     # rewrite every case from its argv

Regenerate only for a change of behaviour made on purpose, and list the
cases that changed; a case that changes by accident is a fault to mend.
To add a case, append a line holding only its ``argv`` and regenerate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from radarbias import cli

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_case(argv: list[str]) -> dict:
    """The recorded fields of ``radarbias *argv``, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "exit": code, "stderr": err.getvalue(),
            "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}


def _cases(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def test_golden_cases_reproduce():
    files = sorted(GOLDEN.glob("*.jsonl"))
    assert files
    changed = [f"{path.name}:{number}: {' '.join(case['argv'])[:120]}"
               for path in files for number, case in enumerate(_cases(path), 1)
               if run_case(case["argv"]) != case]
    assert not changed, "golden cases changed:\n" + "\n".join(changed)


def regen() -> None:
    for path in sorted(GOLDEN.glob("*.jsonl")):
        lines = [json.dumps(run_case(case["argv"])) for case in _cases(path)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"{path.name}: {len(lines)} cases")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: {sys.argv[0]} --regen")
    regen()
