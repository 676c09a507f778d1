"""The flags each mph command takes, and argv fuzzing through cli.main.

--format goes with the commands that print a report (eval, simulate,
check, reproduce), --seed with the ones that draw (check, reproduce) and
--bound with check; translate and abstract write a document and take
none of the three.  A flag a command does not read is a usage error, exit
2, as any argv that mph refuses is: stdout stays empty and stderr says
why, and no argv raises.
"""

import argparse
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplushybrid import cli
from test_support_rule import run_main

SHARED = {"--format": "json", "--seed": "1", "--bound": "2"}
TAKES = {
    "eval": {"--format"},
    "simulate": {"--format"},
    "translate": set(),
    "abstract": set(),
    "check": {"--format", "--seed", "--bound"},
    "reproduce": {"--format", "--seed"},
}
BASE = {
    "eval": ("eval", "gaubert_mpa", "--word", "ab"),
    "simulate": ("simulate", "production_line", "--word", "l1"),
    "translate": ("translate", "gaubert_mpa", "--to", "smpl"),
    "abstract": ("abstract", "gaubert_mpa"),
    "check": ("check", "gaubert_mpa", "gaubert_mpa", "--relation", "behaviour"),
    "reproduce": ("reproduce",),
}
PAIRS = [(command, flag) for command in sorted(TAKES) for flag in sorted(SHARED)]


def shared_options(command):
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {o for action in sub.choices[command]._actions for o in action.option_strings} & set(SHARED)


class TestFlagsPerCommand:
    def test_each_command_has_exactly_the_flags_it_reads(self):
        assert {command: shared_options(command) for command in TAKES} == TAKES
        assert sum(map(len, TAKES.values())) == 7

    @pytest.mark.parametrize("command,flag", [p for p in PAIRS if p[1] in TAKES[p[0]]])
    def test_a_kept_flag_is_accepted(self, command, flag):
        code, out, err = run_main(*BASE[command], flag, SHARED[flag])
        assert code == 0, err
        assert out and not err

    @pytest.mark.parametrize("command,flag", [p for p in PAIRS if p[1] not in TAKES[p[0]]])
    def test_a_removed_flag_exits_two(self, command, flag):
        code, out, err = run_main(*BASE[command], flag, SHARED[flag])
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {flag} {SHARED[flag]}" in err


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Small documents and --inputs files beside the bundled fixtures:
    translations, an abstraction, a one-state automaton, text that is
    not JSON and a path that does not exist."""
    root = tmp_path_factory.mktemp("argv")
    written = {}

    def write(name, text):
        path = root / name
        path.write_text(text)
        written[name] = str(path)

    for model in ("gaubert_mpa", "production_line", "feedback_demo"):
        write(f"{model}-maha.json", run_main("translate", model, "--to", "maha")[1])
    write("gaubert_mpa-smpl.json", run_main("translate", "gaubert_mpa", "--to", "smpl")[1])
    write("gaubert_mpa-fa.json", run_main("abstract", "gaubert_mpa")[1])
    write("one.json", json.dumps({
        "kind": "mpa", "states": ["1"], "alphabet": ["a", "b"],
        "alpha": [0], "mu": {"a": [[1]], "b": [["-inf"]]}, "beta": [0],
    }))
    write("broken.json", "{")
    write("steps-l.json", json.dumps([{"w": "l1"}, {"w": "l2"}]))
    write("steps-a.json", json.dumps([{"w": "a"}, {"w": "b"}]))
    write("steps-u.json", json.dumps([{"w": "m1", "u": [5]}]))
    write("steps-bad.json", "[1]")
    written["missing.json"] = str(root / "missing.json")
    return written


MODELS = ("gaubert_mpa", "production_line", "feedback_demo", "gaubert_mpa-maha.json",
          "production_line-maha.json", "feedback_demo-maha.json", "gaubert_mpa-smpl.json",
          "gaubert_mpa-fa.json", "one.json", "broken.json", "missing.json")
POSITIONALS = {"eval": 1, "simulate": 1, "translate": 1, "abstract": 1, "check": 2, "reproduce": 0}
OPTIONS = {
    "eval": ("--word",),
    "simulate": ("--word", "--inputs", "-K"),
    "translate": ("--to",),
    "abstract": ("--style",),
    "check": ("--relation", "--exact"),
    "reproduce": (),
}
VALUES = {
    "--format": ("json", "text", "yaml"),
    "--seed": ("-1", "0", "7", "x"),
    "--bound": ("-1", "0", "1", "3", "x"),
    "--word": ("ab", "a", "b,b,a", "l1,l2", "m1,m2", "", "a,,b", "zz"),
    "--inputs": ("steps-l.json", "steps-a.json", "steps-u.json", "steps-bad.json", "missing.json"),
    "-K": ("0", "2", "-1"),
    "--to": ("smpl", "maha", "fa"),
    "--style": ("standard", "fused", "other"),
    "--relation": ("language", "simulation", "bisimulation", "behaviour", "equal"),
}


@st.composite
def argvs(draw):
    """A command, its models and a subset of its own options and of the
    three shared flags, each with a value that may be refused."""
    command = draw(st.sampled_from(sorted(TAKES)))
    argv = [command] + [draw(st.sampled_from(MODELS)) for _ in range(POSITIONALS[command])]
    flags = draw(st.lists(st.sampled_from(OPTIONS[command] + tuple(SHARED)), unique=True, max_size=4))
    for flag in flags:
        argv.append(flag)
        if flag != "--exact":
            argv.append(draw(st.sampled_from(VALUES[flag])))
    return argv


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_no_argv_raises(files, argv):
    argv = [files.get(arg, arg) for arg in argv]
    code, out, err = run_main(*argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out == "" and err, (argv, err)
