"""Statement coverage of src/radarbias by the tier-1 suite, with the stdlib only.

Runs tier-1 in this process, with ``--hypothesis-seed=0`` so a run repeats,
under a ``sys.settrace`` tracer that ``threading.settrace`` also gives to
every thread the suite starts. A statement is a node of the module's
``ast`` other than a docstring; it counts as run when the tracer sees a
line event on any line of its head (its decorators to the line before its
body, or all its lines when it has no body). The check fails when the
suite fails, when a statement never runs that ``NOT_RUN`` does not list,
or when a listed statement runs, so the list stays exact.

    python tests/coverage_check.py

The tracer slows tier-1 by about 1.5x (51 s against 34 s on 2 CPUs).
pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "radarbias"
PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
               "--continue-on-collection-errors", str(ROOT / "tests")]

#: (module, first line of the statement's text): why tier-1 does not run it
NOT_RUN = {
    ("cli.py", "sys.exit(main())"):
        "the script guard; the console entry point is tested in a child process",
    ("__main__.py", "import sys"):
        "python -m radarbias runs only in test_console_entry_point's child process, "
        "which the tracer does not follow",
    ("__main__.py", "from .cli import main"): "as for __main__.py's import sys",
    ("__main__.py", "sys.exit(main())"): "as for __main__.py's import sys",
    ("steady_state.py", 'raise DomainError(f"gain table point alpha={a}, rho={r} fails a check "'):
        "gain_table's array checks fail exactly where its single-point functions raise, "
        "so the raise after them is not reached",
}

_HITS: dict[str, set[int]] = defaultdict(set)
_FILES = {str(path) for path in PACKAGE.glob("*.py")}


def _line(frame, event, arg):
    if event == "line":
        _HITS[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    # the global tracer: line events only in the package's frames
    return _line if frame.f_code.co_filename in _FILES else None


def statements(path: Path):
    """(head lines, first line of text) of each statement of the module at ``path``."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    lines = source.splitlines()
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and id(node) not in docstrings:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            body = getattr(node, "body", None)
            last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
            yield range(first, last + 1), lines[node.lineno - 1].strip()


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    import pytest

    threading.settrace(_call)
    sys.settrace(_call)
    try:
        code = pytest.main(PYTEST_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"coverage check: tier-1 failed (pytest exit {code})", file=sys.stderr)
        return 1

    problems, unlisted, run, total = [], set(NOT_RUN), 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        hits = _HITS[str(path)]
        for head, text in statements(path):
            total += 1
            run += not hits.isdisjoint(head)
            listed = (path.name, text) in NOT_RUN
            unlisted.discard((path.name, text))
            if hits.isdisjoint(head) != listed:
                problems.append(f"{'listed in NOT_RUN but run' if listed else 'not run'}: "
                                f"{path.relative_to(ROOT)}:{head.start}: {text}")
    problems += [f"listed in NOT_RUN but not found: {name}: {text}" for name, text in unlisted]
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"coverage check: {run} of {total} statements run; {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
