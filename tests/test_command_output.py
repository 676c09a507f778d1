"""What each mph command prints, through cli.main.

The sha256 of stdout of one run of each command kind and format is
pinned, as the reproduce reports are in test_acceptance.py: a change that
means to alter an output updates its pin.  Documents are written to the
working directory under fixed names, since reports echo their command
line.
"""

import contextlib
import hashlib
import io
import json

import pytest

from maxplushybrid import cli, fixtures

# A one-state automaton over {a, b} whose language and outputs differ from
# gaubert_mpa's.
ONE_STATE_MPA = {
    "kind": "mpa", "states": ["1"], "alphabet": ["a", "b"],
    "alpha": [0], "mu": {"a": [[1]], "b": [["-inf"]]}, "beta": [0],
}


def run_main(*argv):
    """cli.main in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


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
        "28f323844eab1bc51a05a8f8fc848df6e3d0a3b056dd73067dbb5fb27b73b8d1",
    (("eval", "gaubert_mpa", "--word", "ab", "--format", "json"), 0):
        "00c2ccf8d69b2b829609d70437cd2b64553aa614b1232188ec304794e6c104f8",
    (("eval", "gaubert-fa.json", "--word", "ab"), 0):
        "6e0112fafb0c33696672833df56cf64f51d6bffac6ea3dd2dc6466999437a0c1",
    (("eval", "gaubert-fa.json", "--word", "b", "--format", "json"), 1):
        "6b92862b589d5219f7415552274ec454566e8c05c695363bf9224d3337e70e9b",
    (("simulate", "gaubert_mpa", "--word", "abba"), 0):
        "25307769faebd9392a2025462f7878b9556fb8c43e43d94988d149e473f257a8",
    (("simulate", "gaubert_mpa", "--word", "abba", "--format", "json"), 0):
        "8acb5f7c56d549202d64491ec91de37e918643f1ecf4b7546fab7d48a4a59320",
    (("simulate", "production_line", "--word", "l1,l2,l2,l1"), 0):
        "9688ecabf9703ce95f7977737989b24a6af7b7aa203857ef336ed313bcb2a3c7",
    (("simulate", "production_line", "--word", "l1,l2,l2,l1", "--format", "json"), 0):
        "e24f88438778ff53d8b298d1be4349d6068d02291b7ac110be772837ec48af95",
    (("simulate", "feedback-maha.json", "--word", "m1,m2,m2,m1"), 0):
        "08f4665e8d5bb030cae6e8093cc9f7434941827eb801cf80c2fc900fad1505ff",
    (("simulate", "feedback-maha.json", "--word", "m1,m2,m2,m1", "--format", "json"), 0):
        "d08256180210cea87c80f53ba0e3af2fc3197ae5e8d7a52393da0d2f22237129",
    (("check", "gaubert-fa.json", "gaubert-fused.json", "--relation", "language"), 0):
        "164462088e1af820813c9e4aeb60d751fcf3c4c509f8ed81ef196c5861dceb45",
    (("check", "gaubert-fa.json", "one-fa.json", "--relation", "language", "--format", "json"), 1):
        "c34d10e0aed9044d10a1f1992db3e831bf7901bc4d1caebe8046bdbf690868a7",
    (("check", "gaubert-fa.json", "gaubert-fused.json", "--relation", "language", "--exact",
      "--format", "json"), 0):
        "76ec0c982a17231c61eb654a506fba8ab751bafb3a5ba8367fee96f59d554bbd",
    (("check", "gaubert-fa.json", "one-fa.json", "--relation", "language", "--exact"), 1):
        "6e32f61a7cf4300894dbc21eb576addff80ed5705768b665085dd0b14d4e84a1",
    (("check", "gaubert-fa.json", "gaubert-fa.json", "--relation", "simulation"), 0):
        "2918ec6c730501ef414f24a82c4e5888ea4763c61bdd56a6c85ebd17024d4a1a",
    (("check", "gaubert-fa.json", "one-fa.json", "--relation", "simulation", "--format", "json"), 1):
        "56626114f458693c85cfb00340f6264660a177d2f42bb3d16d82b17a82d771b4",
    (("check", "gaubert-fa.json", "gaubert-fa.json", "--relation", "bisimulation", "--format", "json"), 0):
        "7dc73c8433d8708d0c4ea90a9b49a68f21b65f1cdedf44d5d57c5618fd322440",
    (("check", "gaubert-fa.json", "one-fa.json", "--relation", "bisimulation"), 1):
        "1c8a41cff9a05659237b9074f68941547e9f8bf3b849a406c7ae9f825a468337",
    (("check", "production_line", "line-maha.json", "--relation", "behaviour"), 0):
        "ec559e61d40974d4655053f84a9b71fea9de3dc1143df5ffbb31cc1c72c3efa0",
    (("check", "feedback_demo", "feedback-maha.json", "--relation", "behaviour", "--format", "json"), 0):
        "d58306bace5eb4404cb702344ce5cbfc587eb06f2d21d28ea8c1fdc618fd6035",
    (("check", "gaubert_mpa", "one.json", "--relation", "behaviour", "--format", "json"), 1):
        "c6e209d93ceb7971596c50f01191c25b5261d7f0129988c2bf75ebc4a83fb4b9",
    (("check", "one.json", "gaubert-maha.json", "--relation", "behaviour", "--bound", "3"), 1):
        "c480fd0f8cca4960f96f23228065da79ede50dc0692b9ac9b53ff1c1b7ba3c46",
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
