import subprocess
import sys

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
