import ast
import subprocess
import sys
from pathlib import Path

import marginlab


def test_public_names_resolve_once_in_sorted_order():
    names = marginlab.__all__
    assert [n for n in names if not hasattr(marginlab, n)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    # the margin API is the engine and its table
    assert {"search_margins", "MarginTable"} <= set(names)


def test_sweep_module_does_not_import_the_cli():
    # the library runs the sweep without the command-line front end
    code = ("import sys, marginlab.sweep; "
            "sys.exit('marginlab.cli' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code])
    assert done.returncode == 0


def test_only_the_cli_imports_the_sweep():
    # the pipeline steps the sweep shares with the single commands live in
    # data and margin; the sweep module keeps only the sweep's config and grid
    src = Path(marginlab.__file__).parent
    importers = {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and node.module == "sweep" and node.level == 1
                 for alias in node.names]
        if names:
            importers[path.name] = sorted(names)
    assert importers == {"cli.py": ["_load_sweep_config",
                                    "run_capacity_sweep"]}
