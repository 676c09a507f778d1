#!/usr/bin/env python3
"""Digest every output of one fixed corpus of mph runs (README, Output corpus).

Each run goes through cli.main of the maxplushybrid on PYTHONPATH, in process,
in a temporary directory with relative file names, since reports echo their
command line.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import shlex
import sys
import tempfile
import traceback
from typing import Callable, Iterable, Iterator, NamedTuple

from maxplushybrid import cli, fixtures
from maxplushybrid.serialization import mpa_body, serialize_body

REFUSED = (  # unknown flags, empty symbols, a repeated key, 5000-deep nesting, then unfitting documents
    "", "eval gaubert_mpa --word ab --seed 1", "reproduce --bound 2", "translate production_line --to smpl",
    "eval gaubert_mpa --word a,,b", "simulate production_line --word l1,,l2", "eval alpha.json --word ab",
    "simulate production_line --inputs deep-steps.json", "eval missing.json --word ab", "abstract feedback_demo",
    "abstract gaubert_mpa --style fused", "check production_line gaubert_mpa --relation behaviour",
    "check fa.json gaubert_mpa --relation behaviour --bound 40", "check gaubert_mpa fa.json --relation language",
    "check fa.json fa.json --relation bisimulation --exact", "check fa.json fa.json --relation simulation --bound 3",
    "check gaubert_mpa gaubert_mpa --relation behaviour --bound 0",
)


class Run(NamedTuple):
    label: str
    act: Callable[[], int]  # prints the run's output and returns its exit code
    save: str | None = None  # the file that keeps stdout for later runs


def mph(*argv: str, save: str | None = None) -> Iterator[Run]:
    """The run of argv; a report command's in text and in JSON."""
    documents = argv[:1] in ((), ("translate",), ("abstract",))
    for full in [argv] if documents else [argv, (*argv, "--format", "json")]:
        yield Run(shlex.join(("mph", *full)), lambda full=full: cli.main(list(full)), save)


def write(name: str, text: str) -> Iterator[Run]:
    yield Run(f"write {name}", lambda: print(text, end="") or 0, name)


def fa_checks(fa1: str, fa2: str, bound: int) -> Iterator[Run]:
    for flags in (("language", "--bound", str(bound)), ("language", "--exact"), ("simulation",), ("bisimulation",)):
        yield from mph("check", fa1, fa2, "--relation", *flags)
    yield from mph("check", fa2, fa1, "--relation", "simulation")


def behaviour_checks(model1: str, model2: str, *flags: str) -> Iterator[Run]:
    for bound in ("1", "4", "6"):
        yield from mph("check", model1, model2, "--relation", "behaviour", "--bound", bound, *flags)


def translation_first_checks(model: str, stem: str) -> Iterator[Run]:
    """Each translation of an automaton checked against the automaton, the
    order in which a translation's runs are sys1's."""
    for kind in ("smpl", "maha"):
        yield from behaviour_checks(f"{stem}-{kind}.json", model)


def translation_pair_checks(stem: str) -> Iterator[Run]:
    """An automaton's smpl and maha translations checked against each
    other, in both orders, at bounds 6 and 12."""
    smpl, maha = f"{stem}-smpl.json", f"{stem}-maha.json"
    for pair in ((smpl, maha), (maha, smpl)):
        for bound in ("6", "12"):
            yield from mph("check", *pair, "--relation", "behaviour", "--bound", bound)


def model_runs(model: str, stem: str, words: Iterable[str], steps: str, to=("maha",)) -> Iterator[Run]:
    """A model and its translations, run on each word and on the steps
    file, and checked against the maha one; stem names their files."""
    paths = (model, *(f"{stem}-{kind}.json" for kind in to))
    for kind, path in zip(to, paths[1:]):
        yield from mph("translate", model, "--to", kind, save=path)
    for word in words:
        for path in paths:
            yield from mph("simulate", path, "--word", word)
    for path in paths:
        yield from mph("simulate", path, "--inputs", steps)
    yield from behaviour_checks(model, f"{stem}-maha.json")


def mpa_runs(model: str, stem: str, body: dict, bound: int) -> Iterator[Run]:
    """An automaton through both translations and abstractions, and three mutants: a raised weight
    and a dropped transition at the first finite one (each automaton here has one), a flipped final weight."""
    words = ("", "a", "b", "ab", "ba", "aab", "abb", "bba", "aaa", "abab")
    yield from model_runs(model, stem, words, "ab-steps.json", to=("smpl", "maha"))
    yield from mph("abstract", model, save=f"{stem}-fa.json")
    yield from mph("abstract", f"{stem}-maha.json", "--style", "fused", save=f"{stem}-fused.json")
    for word in words:
        for path in (model, f"{stem}-fa.json"):
            yield from mph("eval", path, "--word", word)
    yield from fa_checks(f"{stem}-fa.json", f"{stem}-fused.json", bound)
    mu = body["mu"]
    s, i, j = next((s, i, j) for s in mu for i, row in enumerate(mu[s]) for j, w in enumerate(row) if w != "-inf")
    raised, dropped = json.loads(json.dumps(body)), json.loads(json.dumps(body))
    raised["mu"][s][i][j] += 1
    dropped["mu"][s][i][j] = "-inf"
    flipped = {**body, "beta": [0 if body["beta"][0] == "-inf" else "-inf", *body["beta"][1:]]}
    for kind, mutant in (("raised", raised), ("dropped", dropped), ("flipped", flipped)):
        yield from write(f"{stem}-{kind}.json", json.dumps(mutant))
        yield from mph("abstract", f"{stem}-{kind}.json", save=f"{stem}-{kind}-fa.json")
        yield from fa_checks(f"{stem}-fa.json", f"{stem}-{kind}-fa.json", 5)
        yield from behaviour_checks(f"{stem}-maha.json", f"{stem}-{kind}.json")


def deep_behaviour_checks(gaubert: dict) -> Iterator[Run]:
    """Behaviour checks at bound 12, where models with integer weights step
    each normalised pair of states once; a copy of gaubert_mpa whose finite
    weights are 0.1 steps every prefix, and so does one with an unreachable
    fourth state of weights 0.5, against gaubert_mpa in either order."""
    deep = ("--relation", "behaviour", "--bound", "12")
    for pair in (("production_line", "line-maha.json"), ("gaubert_mpa", "gaubert-maha.json"),
                 ("gaubert-maha.json", "gaubert-raised.json")):
        yield from mph("check", *pair, *deep)
    mu = {s: [[w if w == "-inf" else 0.1 for w in row] for row in rows] for s, rows in gaubert["mu"].items()}
    yield from write("tenths.json", json.dumps({**gaubert, "mu": mu}))
    yield from mph("translate", "tenths.json", "--to", "maha", save="tenths-maha.json")
    yield from mph("check", "tenths.json", "tenths-maha.json", *deep)
    halves = {
        **gaubert,
        "states": [*gaubert["states"], "4"],
        "alpha": [*gaubert["alpha"], "-inf"],
        "beta": [*gaubert["beta"], 0.5],
        "mu": {s: [*([*row, "-inf"] for row in rows), [0.5] * (len(rows) + 1)] for s, rows in gaubert["mu"].items()},
    }
    yield from write("halves.json", json.dumps(halves))
    yield from mph("check", "gaubert_mpa", "halves.json", *deep)
    yield from mph("check", "halves.json", "gaubert_mpa", *deep)


def step_refusals(line: dict) -> Iterator[Run]:
    """Steps of another width than the model reads, refused with the step
    and the file named: a u of width 2 and a v entry on the open feedback
    loop, an r entry on the production line, each on the model and on its
    maha translation.  Then behaviour checks, in both orders, between the
    line and a copy that reads r of width 1, refused before any step, and
    between the closed feedback loop and its open copy, whose u is drawn
    at the open loop's width."""
    for name, steps in (("u2-steps.json", [{"w": "m1", "u": [3, 1]}]), ("v-steps.json", [{"w": "m1", "u": [3], "v": [0]}])):
        yield from write(name, json.dumps(steps))
        for path in ("open.json", "open-maha.json"):
            yield from mph("simulate", path, "--inputs", name)
    yield from write("r-steps.json", json.dumps([{"w": "l1"}, {"w": "l2", "r": [1]}]))
    for path in ("production_line", "line-maha.json"):
        yield from mph("simulate", path, "--inputs", "r-steps.json")
    # an r column of EPS in every B and D row: the copy's steps are the line's
    modes = [
        {**mode, "B": [[["-inf"]] * len(a) for a in mode["A"]], "D": [[["-inf"]] * len(c) for c in mode["C"]]}
        for mode in line["modes"]
    ]
    yield from write("r-line.json", json.dumps({**line, "dims": {**line["dims"], "n_r": 1}, "modes": modes}))
    for pair in (("r-line.json", "production_line"), ("feedback_demo", "open.json")):
        for model1, model2 in (pair, pair[::-1]):
            yield from mph("check", model1, model2, "--relation", "behaviour", "--bound", "3")


def externally_driven_runs(line: dict) -> Iterator[Run]:
    """production_line and gaubert_mpa's smpl translation with
    externally_driven switching over the same symbols, whose steps go
    through the rule rather than a table: each run on words and on its
    steps file, abstracted in both styles (fused is refused), and checked
    against its symbol_liveness original in both orders."""
    gaubert = json.loads(pathlib.Path("gaubert-smpl.json").read_text(encoding="utf-8"))
    for original, body, stem, words, steps in (
        ("production_line", line, "driven-line", ["l1,l1,l2,l1,l2,l2"], "line-steps.json"),
        ("gaubert-smpl.json", gaubert, "driven-gaubert", ["aab", "b,b,a"], "ab-steps.json"),
    ):
        driven = {**body, "switching": {"type": "externally_driven", "symbols": body["switching"]["symbols"]}}
        yield from write(f"{stem}.json", json.dumps(driven))
        yield from model_runs(f"{stem}.json", stem, words, steps)
        for style in ("standard", "fused"):
            yield from mph("abstract", f"{stem}.json", "--style", style)
        for pair in ((f"{stem}.json", original), (original, f"{stem}.json")):
            yield from behaviour_checks(*pair)


def overflow_runs() -> Iterator[Run]:
    """A one-state automaton of weight 1e308, whose second sum overflows to
    +inf, and its smpl translation: each simulated on aaa, and checked
    against the other in both orders."""
    big = {"kind": "mpa", "states": ["1"], "alphabet": ["a"], "alpha": [0], "mu": {"a": [[1e308]]}, "beta": [0]}
    yield from write("big.json", json.dumps(big))
    yield from mph("translate", "big.json", "--to", "smpl", save="bigs.json")
    for path in ("big.json", "bigs.json"):
        yield from mph("simulate", path, "--word", "aaa")
    for pair in (("big.json", "bigs.json"), ("bigs.json", "big.json")):
        yield from mph("check", *pair, "--relation", "behaviour")


def empty_alphabet_runs() -> Iterator[Run]:
    """A one-state automaton with no symbols: it has no switching system,
    whose modes are one per symbol, so simulate, translate and a behaviour
    check refuse it, while eval, abstract and a language check run."""
    empty = {"kind": "mpa", "states": ["p"], "alphabet": [], "alpha": [0], "mu": {}, "beta": [0]}
    yield from write("empty.json", json.dumps(empty))
    yield from mph("simulate", "empty.json", "--word", "")
    for kind in ("smpl", "maha"):
        yield from mph("translate", "empty.json", "--to", kind)
    for relation in ("behaviour", "language"):
        yield from mph("check", "empty.json", "empty.json", "--relation", relation)
    yield from mph("eval", "empty.json", "--word", "")
    yield from mph("abstract", "empty.json")


def runs() -> Iterator[Run]:
    """The corpus in order: a run reads only files that earlier runs saved."""
    bundled = {name: fixtures.fixture_text(name) for name in fixtures.FIXTURE_NAMES}
    for name, text in bundled.items():
        yield from write(f"{name}.json", text)
    yield from write("deep-steps.json", "[" * 5000 + "]" * 5000)
    yield from write("alpha.json", bundled["gaubert_mpa"].replace('"alpha":', '"alpha": [0], "alpha":'))
    fa = {"kind": "fa", "states": ["s"], "alphabet": ["a", "b"], "delta": {}, "initial": ["s"], "final": []}
    yield from write("fa.json", json.dumps(fa))
    for command in REFUSED:
        yield from mph(*shlex.split(command))
    yield from write("ab-steps.json", json.dumps([{"w": w} for w in "abb"]))
    yield from mpa_runs("gaubert_mpa", "gaubert", json.loads(bundled["gaubert_mpa"]), 6)
    yield from translation_first_checks("gaubert_mpa", "gaubert")
    yield from translation_pair_checks("gaubert")
    yield from write("line-steps.json", json.dumps([{"w": w} for w in ("l1", "l2", "l2", "l1")]))
    yield from model_runs("production_line", "line", ["l1,l1,l2,l1,l2,l2"], "line-steps.json")
    yield from mph("abstract", "production_line", save="line-fa.json")
    yield from mph("abstract", "line-maha.json", save="at.json")
    yield from fa_checks("line-fa.json", "at.json", 6)
    yield from mph("check", "at.json", "at.json", "--relation", "bisimulation")
    line = json.loads(bundled["production_line"])
    yield from externally_driven_runs(line)
    yield from deep_behaviour_checks(json.loads(bundled["gaubert_mpa"]))
    yield from write("repeated.json", json.dumps({**line, "switching": {**line["switching"], "symbols": ["l1", "l1"]}}))
    yield from mph("abstract", "repeated.json")
    yield from behaviour_checks("repeated.json", "repeated.json")
    yield from write("u-steps.json", json.dumps([{"w": "m1", "u": [3]}, {"w": "m2", "u": [-1]}, {"w": "m2", "u": [0]}]))
    yield from model_runs("feedback_demo", "feedback", ["m1,m2,m1,m2"], "u-steps.json")
    yield from write("open.json", json.dumps({**json.loads(bundled["feedback_demo"]), "controller": None}))
    yield from mph("simulate", "open.json", "--word", "m1,m2")
    yield from model_runs("open.json", "open", [], "u-steps.json")
    yield from behaviour_checks("open.json", "open-maha.json", "--seed", "7")
    yield from step_refusals(line)
    rng = random.Random(7)
    for i, n_states in enumerate((1, 2, 3, 4, 5, 6, 8, 12) * 2):
        body = mpa_body(fixtures.random_mpa(rng, n_states=n_states), {"name": f"r{i}"})
        yield from write(f"r{i}.json", serialize_body(body))
        yield from mpa_runs(f"r{i}.json", f"r{i}", body, 5)
        if i == 3:
            yield from translation_first_checks("r3.json", "r3")
            yield from translation_pair_checks("r3")
    yield from overflow_runs()
    yield from empty_alphabet_runs()
    for seed in ("42", "7"):
        yield from mph("reproduce", "--seed", seed)


def execute(run: Run) -> tuple[int | None, str, str]:
    """(exit code, stdout, stderr); no code, and a traceback, if it raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run.act()
        except (Exception, SystemExit):
            code = None
            traceback.print_exc()
    if run.save is not None:
        pathlib.Path(run.save).write_text(out.getvalue(), encoding="utf-8")
    return code, out.getvalue(), err.getvalue()


def digest(corpus: Iterable[Run]) -> int:
    """Print sha256(exit code, stdout, stderr) and the label of each run, then a total; 1 when a run
    raised, ended with a code other than 0, 1 or 2, or printed a traceback, else 0."""
    lines, status = [], 0
    for run in corpus:
        code, out, err = execute(run)
        lines.append(f"{hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()}  {run.label}\n")
        sys.stdout.write(lines[-1])
        if code not in (0, 1, 2) or "Traceback" in out + err:
            print(f"fault: {run.label}", file=sys.stderr)
            status = 1
    print(f"{hashlib.sha256(''.join(lines).encode()).hexdigest()}  total of {len(lines)} runs")
    return status


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        sys.exit(digest(runs()))
