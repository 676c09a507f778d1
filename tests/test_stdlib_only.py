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
import maxplushybrid, maxplushybrid.cli, maxplushybrid.reproduce
print("\\n".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_imports_load_only_the_standard_library():
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert "maxplushybrid" in loaded
    foreign = sorted(name for name in loaded if name != "maxplushybrid" and name not in sys.stdlib_module_names)
    assert not foreign, f"non-stdlib modules imported: {foreign}"


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
