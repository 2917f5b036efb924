import ast
import dataclasses
import re
import subprocess
import sys
from pathlib import Path

import marginlab
from marginlab.sweep import ExperimentConfig


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


def _file_calls(tree: ast.AST) -> list[str]:
    """The calls in ``tree`` that write a file or read or write JSON: an
    ``open`` whose mode writes, appends or updates, ``.write_text``,
    ``.write_bytes``, ``json.dump`` and ``json.load``/``json.loads``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if name == "open":
            # open(path, mode) or Path.open(mode), or mode=...
            args = node.args[1:] if isinstance(func, ast.Name) else node.args
            modes = args[:1] + [k.value for k in node.keywords
                                if k.arg == "mode"]
            if any(not isinstance(m, ast.Constant)
                   or set(str(m.value)) & set("wxa+") for m in modes):
                found.append(f"open:{node.lineno}")
        elif name in ("write_text", "write_bytes"):
            found.append(f"{name}:{node.lineno}")
        elif (isinstance(func, ast.Attribute) and name in ("dump", "load",
                                                            "loads")
              and isinstance(func.value, ast.Name)
              and func.value.id == "json"):
            found.append(f"json.{name}:{node.lineno}")
    return found


def test_only_the_file_layer_writes_files_and_reads_json():
    # every output goes through _atomic.write_file, and every JSON input
    # through _atomic.read_json
    src = Path(marginlab.__file__).parent
    users = [path.name for path in sorted(src.glob("*.py"))
             if _file_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert users == ["_atomic.py"]


def test_file_call_scan_sees_each_kind_of_call():
    code = ("open(p, 'w'); open(p, mode='ab'); Path(p).open('x')\n"
            "p.write_text(t); p.write_bytes(b); json.dump(d, fh)\n"
            "json.load(fh); json.loads(t)\n"
            "open(p); open(p, 'rb'); p.read_text(); json.dumps(d)\n")
    assert [c.partition(":")[0] for c in _file_calls(ast.parse(code))] == [
        "open", "open", "open", "write_text", "write_bytes", "json.dump",
        "json.load", "json.loads"]


def _readme_library_spans() -> set[str]:
    """The backticked spans of README's Library section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([^`]+)`", section))


def test_readme_library_names_every_table_field_config_field_and_status():
    spans = _readme_library_spans()
    names = [field.name for cls in (marginlab.MarginTable, ExperimentConfig)
             for field in dataclasses.fields(cls)]
    names += [status.value for status in marginlab.SearchStatus]
    assert [name for name in names if name not in spans] == []
    # the closed form's old no-margin column is gone from the table
    assert "stuck" not in spans
