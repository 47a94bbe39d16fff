"""List the statements of ``src/posetspace`` that the Tier-1 suite never runs.

Run from anywhere; extra arguments go to pytest:

    python tests/reach.py [pytest args ...]

The suite runs in this process under a ``sys.settrace`` line tracer that
follows only frames of the package's files.  A statement counts unless it
is a ``def``, a ``class``, an import or a docstring, and it counts as run
when its first line was.  The report gives the totals, then each unreached
``raise`` and each other unreached statement as ``file:line`` with its
source.  A ``global`` or ``nonlocal`` line never runs, and a statement
that shares its line with the one before it counts as run with it.
Tracing makes the suite about five times slower.  pytest does not collect
this file: its name does not start with ``test_``.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "posetspace"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(path: Path) -> list:
    """The counted statements of a file, as (line, is_raise), in line order."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring
        out.append((node.lineno, isinstance(node, ast.Raise)))
    return sorted(out)


def traced_run(args) -> tuple:
    """pytest's exit code on ``args``, and the (file, line) pairs run in the package."""
    hits, ours = set(), {}

    def lines(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = Path(name).resolve().parent == PACKAGE
        return lines if ours[name] else None

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(calls)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return code, {(str(Path(name).resolve()), line) for name, line in hits}


def main(argv) -> int:
    code, hits = traced_run(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    counted = raises = 0
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line, is_raise in statements(path):
            counted += 1
            raises += is_raise
            if (str(path), line) not in hits:
                missed.append((not is_raise, path.name, line, source[line - 1].strip()))
    missed.sort()
    missed_raises = sum(not other for other, *_ in missed)
    print(f"\npytest exit code {code}")
    print(f"unreached: {len(missed)} of {counted} statements, {missed_raises} of {raises} raise statements")
    for other, name, line, text in missed:
        print(f"{'    ' if other else 'raise'} {name}:{line}: {text}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
