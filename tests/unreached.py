"""List the statements of ``src/marginlab`` that no test executes.

``coverage`` is not a dependency of this project, so this script runs
pytest in this process under ``sys.settrace``, records the lines executed
in the package's files, and prints each statement none of whose lines ran,
as ``path:line: source``. Not collected by pytest (it runs the suite
itself); run it from the repository root:

    PYTHONPATH=src python tests/unreached.py [PYTEST ARGS...]

Without arguments it runs ``tests`` with the two slowest acceptance tests
deselected. Hypothesis runs only the examples a test names (its
``explicit`` phase): which statements generated examples reach depends on
the Hypothesis release, so a statement counts as tested only when a named
example or an example-based test reaches it. The body of an
``if __name__ == "__main__":`` guard is not listed, since importing a
module never runs it. It exits 1 when it lists a statement, else with
pytest's status.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import Phase, settings

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


def _main_guard_bodies(tree: ast.AST) -> set[ast.AST]:
    """The nodes inside the bodies of ``if __name__ == "__main__":``."""
    inside = set()
    for node in ast.walk(tree):
        test = getattr(node, "test", None)
        if isinstance(node, ast.If) and isinstance(test, ast.Compare) \
                and isinstance(test.left, ast.Name) \
                and test.left.id == "__name__":
            for stmt in node.body:
                inside.update(ast.walk(stmt))
    return inside


def _statements(path: Path):
    """(first line, last line) of each statement of the file at ``path``
    whose lines should run: a compound statement's header only, from its
    first decorator on; docstrings, ``try``, declarations and the bodies
    of ``__main__`` guards left out."""
    tree = ast.parse(path.read_text(), str(path))
    guarded = _main_guard_bodies(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in guarded or isinstance(
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
    # loaded before pytest imports the tests, whose settings inherit it
    settings.register_profile("named-examples", phases=[Phase.explicit])
    settings.load_profile("named-examples")
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
    return 1 if missed else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
