"""List the statements of ``src/marginlab`` that no test executes.

``coverage`` is not a dependency of this project, so this script runs
pytest in this process under ``sys.settrace``, records the lines executed
in the package's files, and prints each statement none of whose lines ran,
as ``path:line: source``. Not collected by pytest (it runs the suite
itself); run it from the repository root:

    PYTHONPATH=src python tests/unreached.py [PYTEST ARGS...]

Without arguments it runs ``tests`` with the two slowest acceptance tests
deselected; tracing makes the suite a few times slower. It exits with
pytest's status.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "marginlab"
SLOW = ("tests/test_acceptance.py::"
        "test_capacity_sweep_reproduces_margin_ordering",
        "tests/test_acceptance.py::"
        "test_projected_margins_rank_models_at_least_as_well")
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                *(arg for test in SLOW for arg in ("--deselect", test))]

# executed line numbers per package file, and the local tracer of each
# code filename seen (None for files outside the package)
executed: dict[Path, set[int]] = {}
_tracers: dict[str, object] = {}


def _tracer_for(filename: str):
    path = Path(os.path.abspath(filename))
    if path.parent != PACKAGE:
        return None
    lines = executed.setdefault(path, set())

    def local(frame, event, arg):
        lines.add(frame.f_lineno)
        return local
    return local


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    local = _tracers.get(filename, _trace)
    if local is _trace:
        local = _tracers[filename] = _tracer_for(filename)
    if local is not None:
        local(frame, event, arg)
    return local


def _statements(path: Path):
    """(first line, last line) of each statement of the file at ``path``
    whose lines should run: a compound statement's header only, from its
    first decorator on; docstrings, ``try`` and declarations left out."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(
                node, (ast.Try, ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield first, max(first, last)


def main(args: list[str]) -> int:
    sys.settrace(_trace)
    threading.settrace(_trace)
    try:
        status = pytest.main(args or DEFAULT_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = executed.get(path, set())
        source = path.read_text().splitlines()
        for first, last in sorted(set(_statements(path))):
            if ran.isdisjoint(range(first, last + 1)):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: "
                      f"{source[first - 1].strip()}")
    print(f"{missed} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
