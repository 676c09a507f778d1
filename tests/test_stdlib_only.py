"""The runtime stays stdlib-only: importing the package, its CLI and its
reproduce suite loads no third-party module."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
before = set(sys.modules)
import {modules}
print("\\n".join(sorted({{name.partition(".")[0] for name in set(sys.modules) - before}})))
"""


def third_party(modules, *path):
    """The top-level modules outside the standard library that importing
    modules (an import statement's list) loads, in a fresh interpreter
    with src and path on PYTHONPATH."""
    path = os.pathsep.join([str(SRC), *map(str, path)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(modules=modules)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
        check=True,
    )
    return sorted(name for name in proc.stdout.split() if name not in sys.stdlib_module_names)


def test_imports_load_only_the_standard_library():
    loaded = third_party("maxplushybrid, maxplushybrid.cli, maxplushybrid.reproduce")
    assert loaded == ["maxplushybrid"], f"non-stdlib modules imported: {loaded}"


def test_the_package_needs_no_data_file(tmp_path):
    # the bundled documents come from their builders, so the modules alone
    # serve a fixture by name
    package = tmp_path / "maxplushybrid"
    package.mkdir()
    for module in (SRC / "maxplushybrid").glob("*.py"):
        (package / module.name).write_text(module.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "maxplushybrid", "eval", "gaubert_mpa", "--word", "ab"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "output: 12\n" in proc.stdout
