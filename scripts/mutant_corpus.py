#!/usr/bin/env python3
"""Plant each fault of one fixed list in a copy of the repository and run the tests that must catch it.

Each mutant names a file, an exact text that must occur once in it, the text
that replaces it, and the test files to run.  For each one the repository is
copied to a temporary directory (everything the tests import, perfbench/
included), the text is replaced there, and the test files run with
`python -m pytest -x` and PYTHONPATH=src.  One line per mutant reads KILLED,
with the first failing test, or SURVIVED.  The exit code is 1 when a mutant
survives, when pytest could not run, or when an old text no longer occurs
exactly once (the list must move with the code), and 0 otherwise.
A mutant whose tests run past TIMEOUT_S counts as killed.

    python scripts/mutant_corpus.py

A mutant that changes no behaviour (an equivalent mutant) stays off the list.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", "out")
TIMEOUT_S = 300  # the slowest listed mutant's tests took 86 s on a 2-vCPU host


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


SMPL, TROPICAL = "src/maxplushybrid/smpl.py", "src/maxplushybrid/tropical.py"
EQUIVALENCE, CLI = "src/maxplushybrid/equivalence.py", "src/maxplushybrid/cli.py"

MUTANTS = (
    # -- the table step of every symbol_liveness system ----------------------
    Mutant(
        "program without input_free",
        SMPL,
        "return None if table is None or not self.input_free else (self.x0, table)",
        "return None if table is None else (self.x0, table)",
        ("tests/test_symbol_steps.py",),
    ),
    Mutant(
        "bare path keyed on symbol_steps",
        SMPL,
        "    program = s.program\n    if program is not None and not (inp.u or inp.v or inp.r or inp.p):\n"
        "        found = program[1].get(inp.w)",
        "    table = s.symbol_steps\n    if table is not None and not (inp.u or inp.v or inp.r or inp.p):\n"
        "        found = table.get(inp.w)",
        ("tests/test_symbol_steps.py",),
    ),
    Mutant(
        "table step on the step input's u, not the controller's",
        SMPL,
        "symbol_step(found, 0, x_prev, win)",
        "symbol_step(found, 0, x_prev, inp.u + inp.r + inp.p)",
        ("tests/test_symbol_steps.py",),
    ),
    Mutant(
        "table step without its halt",
        SMPL,
        "    if not has_finite_entry(x):\n        return None\n    return new_record(k + 1,",
        "    return new_record(k + 1,",
        ("tests/test_symbol_steps.py",),
    ),
    Mutant(
        "successor_modes left empty on a table step",
        SMPL,
        "record.y, record.successor_modes, u, v)",
        "record.y, (), u, v)",
        ("tests/test_symbol_steps.py",),
    ),
    Mutant(
        "a library rule's symbols check dropped",
        SMPL,
        "if named is not None and named != self.symbols:",
        "if False:",
        ("tests/test_smpl.py",),
    ),
    # -- faults planted by hand when the list began ---------------------------
    Mutant(
        "_first_difference one level deeper",
        EQUIVALENCE,
        "level, depth = list(words), 0",
        "level, depth = list(words), -1",
        ("tests/test_equivalence.py",),
    ),
    Mutant(
        "sampled sequences left unsorted",
        CLI,
        "        seqs.sort(key=len)\n",
        "",
        ("tests/test_cli_flags.py", "tests/test_io_cli.py", "tests/test_command_output.py"),
    ),
    Mutant(
        "sampled lengths stop short of the bound",
        CLI,
        "length = rng.randint(1, bound)",
        "length = rng.randint(1, max(1, bound - 1))",
        ("tests/test_cli_flags.py", "tests/test_io_cli.py", "tests/test_command_output.py"),
    ),
    Mutant(
        "bisimulation skips fa2's initial states",
        EQUIVALENCE,
        "    if not all(\n        any((s1, s2) in pairs for s1 in fa1.initial) for s2 in fa2.initial\n    ):\n        return None\n",
        "",
        ("tests/test_equivalence.py",),
    ),
    Mutant(
        "integral_below ignores magnitude",
        TROPICAL,
        "(-limit < v < limit and v.is_integer())",
        "v.is_integer()",
        ("tests/test_behaviour_memo.py", "tests/test_tropical.py", "tests/test_same_program.py"),
    ),
    Mutant(
        "successor_modes checks only the first mode",
        SMPL,
        "if first not in s.modes or last not in s.modes:",
        "if first not in s.modes:",
        ("tests/test_lean_step.py", "tests/test_direct_step.py"),
    ),
    Mutant(
        "memo keys pairs whose sys2 is not shift-exact",
        EQUIVALENCE,
        "if exact1 and (exact2 or s2 is None) else None",
        "if exact1 else None",
        ("tests/test_behaviour_memo.py",),
    ),
    Mutant(
        "TOP counted as finite",
        TROPICAL,
        "        if a != EPS and a != TOP:\n            return True",
        "        if a != EPS:\n            return True",
        ("tests/test_symbol_steps.py", "tests/test_tropical.py"),
    ),
)


def stale(mutant: Mutant) -> str | None:
    """Why the mutant no longer applies to the repository, or None."""
    count = (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)
    return None if count == 1 else f"its old text occurs {count} times in {mutant.file}"


def first_failure(output: str) -> str:
    """The first test pytest's summary names as failed or in error."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return "no test named"


def run(mutant: Mutant) -> tuple[str, str]:
    """(verdict, detail) of the mutant's tests on a mutated copy."""
    with tempfile.TemporaryDirectory() as work:
        copy = pathlib.Path(work) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        target = copy / mutant.file
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *mutant.tests]
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "KILLED", f"timed out after {TIMEOUT_S} s"
    if done.returncode == 0:
        return "SURVIVED", ""
    if done.returncode == 1:
        return "KILLED", first_failure(done.stdout)
    return "ERROR", f"pytest exited {done.returncode}: {done.stdout.strip().splitlines()[-1:] or done.stderr.strip()}"


def main() -> int:
    faults = [(mutant.name, stale(mutant)) for mutant in MUTANTS]
    faults = [(name, why) for name, why in faults if why is not None]
    for name, why in faults:
        print(f"STALE     {name}: {why}")
    if faults:
        return 1
    status = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict, detail = run(mutant)
        print(f"{verdict:<9} {mutant.name} ({time.perf_counter() - start:.0f} s){': ' + detail if detail else ''}", flush=True)
        status |= verdict != "KILLED"
    return status


if __name__ == "__main__":
    sys.exit(main())
