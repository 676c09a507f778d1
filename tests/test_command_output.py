"""What each mph command prints, through cli.main.

The sha256 of stdout of one run of each command kind and format is
pinned, as the reproduce reports are in test_acceptance.py: a change that
means to alter an output updates its pin.  Documents are written to the
working directory under fixed names, since reports echo their command
line.
"""

import hashlib
import json

import pytest

from maxplushybrid import cli, fixtures
from test_support_rule import run_main

# A one-state automaton over {a, b} whose language and outputs differ from
# gaubert_mpa's.
ONE_STATE_MPA = {
    "kind": "mpa", "states": ["1"], "alphabet": ["a", "b"],
    "alpha": [0], "mu": {"a": [[1]], "b": [["-inf"]]}, "beta": [0],
}


def write_documents():
    """The translations and abstractions the pinned runs read, written
    into the working directory by mph itself."""
    with open("one.json", "w") as handle:
        json.dump(ONE_STATE_MPA, handle)
    for argv, name in (
        (("translate", "gaubert_mpa", "--to", "maha"), "gaubert-maha.json"),
        (("translate", "production_line", "--to", "maha"), "line-maha.json"),
        (("translate", "feedback_demo", "--to", "maha"), "feedback-maha.json"),
        (("abstract", "gaubert_mpa"), "gaubert-fa.json"),
        (("abstract", "gaubert-maha.json", "--style", "fused"), "gaubert-fused.json"),
        (("abstract", "one.json"), "one-fa.json"),
    ):
        code, out, err = run_main(*argv)
        assert code == 0, err
        with open(name, "w") as handle:
            handle.write(out)


# (argv, exit code): sha256 of stdout.
PINNED = {
    (("eval", "gaubert_mpa", "--word", "ab"), 0):
        "e8b3e6b8de4b2a0660a2d640d7892e267efe15f3f3a9e7fd248045b572c09f4f",
    (("eval", "gaubert_mpa", "--word", "ab", "--format", "json"), 0):
        "00c2ccf8d69b2b829609d70437cd2b64553aa614b1232188ec304794e6c104f8",
    (("eval", "gaubert-fa.json", "--word", "ab"), 0):
        "b77c0d1910f9c680fb18e06b6855ca35ca56626b647040ca1f257f1634af99a9",
    (("eval", "gaubert-fa.json", "--word", "b", "--format", "json"), 1):
        "6b92862b589d5219f7415552274ec454566e8c05c695363bf9224d3337e70e9b",
    (("simulate", "gaubert_mpa", "--word", "abba"), 0):
        "6764d3788959819653ad68dbd7c82206a0035cb858084e9785ed669cd898498a",
    (("simulate", "gaubert_mpa", "--word", "abba", "--format", "json"), 0):
        "8acb5f7c56d549202d64491ec91de37e918643f1ecf4b7546fab7d48a4a59320",
    (("simulate", "production_line", "--word", "l1,l2,l2,l1"), 0):
        "9e019096b6b339508d0ad44813d288b710c2d07d3e71635e3a64a6960641497e",
    (("simulate", "production_line", "--word", "l1,l2,l2,l1", "--format", "json"), 0):
        "e24f88438778ff53d8b298d1be4349d6068d02291b7ac110be772837ec48af95",
    (("simulate", "feedback-maha.json", "--word", "m1,m2,m2,m1"), 0):
        "f883b442c5348f6b5ded91804d841ba02350ca00452481c297a28b3869855395",
    (("simulate", "feedback-maha.json", "--word", "m1,m2,m2,m1", "--format", "json"), 0):
        "d08256180210cea87c80f53ba0e3af2fc3197ae5e8d7a52393da0d2f22237129",
    (("check", "gaubert-fa.json", "gaubert-fused.json", "--relation", "language"), 0):
        "59776651a60f0f52619210f83a99057ddb880ab35b2e82c2c13b885afde72f7b",
    (("check", "gaubert-fa.json", "one-fa.json", "--relation", "language", "--format", "json"), 1):
        "b21357ebf29125a79979ed73400ce05eeb8814cc230015b0d9ad00970ebd634e",
    (("check", "gaubert-fa.json", "gaubert-fused.json", "--relation", "language", "--exact",
      "--format", "json"), 0):
        "cbf3e331b050875a82f075f493928ecc41844e00a739a0416ac277258a95e33b",
    (("check", "gaubert-fa.json", "one-fa.json", "--relation", "language", "--exact"), 1):
        "fe3b52debb9df72b3d15be40562df9ba76b5960d81bb235f6db36f16c76808e5",
    (("check", "gaubert-fa.json", "gaubert-fa.json", "--relation", "simulation"), 0):
        "b8a80d367f6df158d8c8a2f15b8a07dae1b368f2612750b6303e950520ea677d",
    (("check", "gaubert-fa.json", "one-fa.json", "--relation", "simulation", "--format", "json"), 1):
        "3aa07f4e718f7f175db04a0af1663f5b026f562b995cb031356cce3239777471",
    (("check", "gaubert-fa.json", "gaubert-fa.json", "--relation", "bisimulation", "--format", "json"), 0):
        "3ae73692630d6d07ae4a35adb695ced199218458f2ec4160a96211c57564e91e",
    (("check", "gaubert-fa.json", "one-fa.json", "--relation", "bisimulation"), 1):
        "e1036bb6e9fc278cc8c050ec8c3ad4eae3ebd398479d5493a34766a05ede8339",
    (("check", "production_line", "line-maha.json", "--relation", "behaviour"), 0):
        "ec559e61d40974d4655053f84a9b71fea9de3dc1143df5ffbb31cc1c72c3efa0",
    (("check", "feedback_demo", "feedback-maha.json", "--relation", "behaviour", "--format", "json"), 0):
        "d58306bace5eb4404cb702344ce5cbfc587eb06f2d21d28ea8c1fdc618fd6035",
    (("check", "gaubert_mpa", "one.json", "--relation", "behaviour", "--format", "json"), 1):
        "e9096c06675968e79196eacafb10caf7c17ff86e3e54f7a3bd63911e4abc036d",
    (("check", "one.json", "gaubert-maha.json", "--relation", "behaviour", "--bound", "3"), 1):
        "59396547023ca0944581c21640f9da89a7a93f6a3414b52a119bed93f74f6fe3",
    (("translate", "gaubert_mpa", "--to", "smpl"), 0):
        "f0bfcffc1e54e5c96472b87a3999b93974c142a26459165f9096bd0695e1c691",
    (("translate", "feedback_demo", "--to", "maha"), 0):
        "487935606989928d87fe0d97a0f060a2eba3389efef5cdeb794c34f47047af3b",
    (("abstract", "production_line"), 0):
        "8d01b54e3a61d44a4293a101771abf309806001c9c4758b3f848579a40c7c861",
    (("abstract", "gaubert-maha.json", "--style", "fused"), 0):
        "e4ceac77cf28d628db6985521c1a1f659e8c64b0781fc69c66b99e17cf4a21c0",
}


@pytest.fixture
def documents(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_documents()


@pytest.mark.parametrize("argv,code", list(PINNED), ids=[" ".join(argv) for argv, _ in PINNED])
def test_output_is_pinned(documents, argv, code):
    got, out, err = run_main(*argv)
    assert (got, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[argv, code]


@pytest.mark.parametrize("relation", ["language", "simulation", "bisimulation"])
def test_fa_relations_name_both_alphabets(tmp_path, relation):
    paths = []
    for name, alphabet in (("ab", ["a", "b"]), ("ac", ["a", "c"])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "kind": "fa", "states": ["s"], "alphabet": alphabet,
            "delta": {"s": {alphabet[1]: ["s"]}}, "initial": ["s"], "final": ["s"],
        }))
        paths.append(str(path))
    code, out, err = run_main("check", *paths, "--relation", relation)
    assert (code, out) == (2, "")
    assert err == "error: alphabet mismatch: ['a', 'b'] against ['a', 'c']\n"


@pytest.mark.parametrize("switching", ["symbol_liveness", "externally_driven"])
@pytest.mark.parametrize("kind", ["smpl", "maha"])
def test_a_document_without_modes_exits_two(tmp_path, kind, switching):
    # a system has at least one mode, so its alphabet is never empty
    body = json.loads(fixtures.fixture_text("production_line"))
    body["modes"] = []
    body["switching"] = {"type": switching, "symbols": []}
    if kind == "maha":
        body = {"kind": "maha", "loop": "open", "system": body}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(body))
    for argv in (("simulate", str(path), "--word", "l1"), ("abstract", str(path)),
                 ("check", str(path), str(path), "--relation", "behaviour")):
        code, out, err = run_main(*argv)
        assert (code, out, err) == (2, "", "error: smpl: need at least one mode\n"), argv


# relation flags: (true pair, false pair); every check reads documents
# that write_documents writes or bundled fixtures
CONTRACT = {
    ("language",): (("gaubert-fa.json", "gaubert-fused.json"), ("gaubert-fa.json", "one-fa.json")),
    ("language", "--exact"): (("gaubert-fa.json", "gaubert-fused.json"), ("gaubert-fa.json", "one-fa.json")),
    ("simulation",): (("gaubert-fa.json", "gaubert-fa.json"), ("gaubert-fa.json", "one-fa.json")),
    ("bisimulation",): (("gaubert-fa.json", "gaubert-fa.json"), ("gaubert-fa.json", "one-fa.json")),
    ("behaviour",): (("production_line", "line-maha.json"), ("gaubert_mpa", "one.json")),
}


def report_keys(out, fmt):
    """A report's top-level entries, each value as JSON spells it (text
    reports: the rest of its line, or None for a value on later lines)."""
    if fmt == "json":
        return json.loads(out)
    keys = {}
    for line in out.splitlines()[1:]:
        if not line.startswith(" "):
            key, _, value = line.partition(":")
            keys[key] = value.strip() or None
    return keys


@pytest.mark.parametrize("holds", [True, False])
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("flags", list(CONTRACT), ids=" ".join)
def test_every_check_reports_regime_bound_and_witness(documents, flags, fmt, holds):
    models = CONTRACT[flags][not holds]
    code, out, err = run_main("check", *models, "--relation", *flags, "--format", fmt)
    assert (code, err) == (0 if holds else 1, "")
    report = report_keys(out, fmt)
    assert report["verdict"] in ((True, "true") if holds else (False, "false"))
    exact = flags[0] in ("simulation", "bisimulation") or "--exact" in flags
    assert report["regime"] in (("exact",) if exact else ("exhaustive", "sampled"))
    # a bounded check run without --bound checks up to 6
    assert report.get("bound") in ((None,) if exact else (6, "6"))
    # evidence: the pairs of a relation that holds, a word or steps that differ
    assert ("witness" in report) == (holds == (flags[0] in ("simulation", "bisimulation")))
    # and nothing else: no per-relation key
    assert set(report) <= {"command", "regime", "bound", "witness", "verdict"}


def test_text_lines_keep_nesting_and_empty_containers():
    value = {"a": [[1, [2, []]], [], {}], "b": {}, "c": [], "d": None, "e": [True, False, None],
             "f": [{"x": [[]], "y": "s"}]}
    assert cli._text_lines(value) == [
        "a:",
        "  - - 1",
        "    - - 2",
        "      - []",
        "  - []",
        "  - {}",
        "b: {}",
        "c: []",
        "d: null",
        "e: [true, false, null]",
        "f:",
        "  - x:",
        "      - []",
        "    y: s",
    ]
