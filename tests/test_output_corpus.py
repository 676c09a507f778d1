"""scripts/output_corpus.py digests each run of one fixed corpus of mph
runs.  Its first runs print the same lines under two hash seeds, each of
them ends with exit 0, 1 or 2 and no traceback, and the script loads only
the standard library.  No digest is pinned: a change that means to alter
an output lists the runs whose lines differ from its parent's."""

import importlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

from test_stdlib_only import SRC, third_party

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SLICE = 200  # the refused inputs and most of gaubert_mpa's runs

PRINT_SLICE = (
    "import itertools, sys, output_corpus; "
    f"sys.exit(output_corpus.digest(itertools.islice(output_corpus.runs(), {SLICE})))"
)


def test_a_slice_prints_the_same_lines_under_two_hash_seeds(tmp_path):
    path = os.pathsep.join([str(SCRIPTS), str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    printed = []
    for seed in ("1", "2"):
        work = tmp_path / seed
        work.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", PRINT_SLICE],
            capture_output=True,
            text=True,
            cwd=work,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        printed.append(proc.stdout)
    assert len(printed[0].splitlines()) == SLICE + 1
    assert printed[0] == printed[1]


def test_each_run_of_a_slice_exits_0_1_or_2_without_a_traceback(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    corpus = importlib.import_module("output_corpus")
    monkeypatch.chdir(tmp_path)
    codes = set()
    for run in itertools.islice(corpus.runs(), SLICE):
        code, out, err = corpus.execute(run)
        assert code in (0, 1, 2) and "Traceback" not in out + err, (run.label, code, err)
        codes.add(code)
    assert codes == {0, 1, 2}


def test_the_script_loads_only_the_standard_library():
    assert third_party("output_corpus", SCRIPTS) == ["maxplushybrid", "output_corpus"]
