import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from maxplushybrid import cli, equivalence, fixtures
from maxplushybrid.cli import _behaviour_inputs
from maxplushybrid.hybrid import from_smpl_open, run
from maxplushybrid.mpa import MpaBehaviour
from maxplushybrid.serialization import (
    ModelFormatError,
    decode_weight,
    encode_weight,
    fa_body,
    maha_body,
    parse_model,
    _canonical_value,
    serialize_body,
    smpl_body,
)
from maxplushybrid.smpl import ControllerHook, SmplBehaviour, StepInput, simulate, static_feedback, word_inputs
from maxplushybrid.tropical import EPS, TOP, TropicalMatrix


def run_cli(*args, stdin_text=None):
    return subprocess.run(
        [sys.executable, "-m", "maxplushybrid", *args],
        capture_output=True,
        text=True,
        input=stdin_text,
    )


class TestWeightCodec:
    def test_sentinels(self):
        assert encode_weight(EPS) == "-inf"
        assert encode_weight(TOP) == "+inf"
        assert decode_weight("-inf") == EPS
        assert decode_weight("+inf") == TOP

    def test_integral_floats_become_integers(self):
        assert encode_weight(3.0) == 3
        assert encode_weight(-2.5) == -2.5
        assert decode_weight(3) == 3.0

    def test_integral_floats_from_2_to_the_53_stay_floats(self):
        # every int below 2**53 is exact in a float; 1e308 as an int would be 309 digits
        for big in (1e308, -1e308, 3 * 2.0**53, 2.0**53):
            for written in (encode_weight(big), _canonical_value([big])[0], _canonical_value(big)):
                assert type(written) is float and decode_weight(written) == big
            text = serialize_body({"w": [big], "v": big})
            assert json.loads(text) == {"w": [big], "v": big} and not re.search(r"\d{20}", text)
        for exact in (2.0**53 - 1, -(2.0**53 - 1)):
            for written in (encode_weight(exact), _canonical_value([exact])[0], _canonical_value(exact)):
                assert type(written) is int and written == exact

    def test_bad_values(self):
        with pytest.raises(ModelFormatError):
            decode_weight("oops")
        with pytest.raises(ModelFormatError):
            decode_weight(True)


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=False),
    st.sampled_from((-0.0, 0.0, 2.0, 1e300, -1e300, EPS, TOP, "-inf", "+inf")),
    st.text(max_size=3),
)
json_values = st.recursive(
    json_scalars,
    lambda sub: st.one_of(
        st.lists(sub, max_size=4),
        st.lists(sub, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=2), st.integers(-3, 3)), sub, max_size=3),
    ),
    max_leaves=20,
)


class TestCanonicalValue:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_matches_one_call_per_value(self, value):
        # repr tells ints from floats, -0.0 from 0.0, tuples from lists
        # and the key order
        assert repr(_canonical_value(value)) == repr(oracles.canonical_value_by_recursion(value))

    def test_kept_scalars(self):
        body = {"m": [[-0.0, 1e300, "-inf", True, 2.5], (1.0, [2.0]), 3.0], 1: False}
        got = _canonical_value(body)
        assert repr(got) == repr(oracles.canonical_value_by_recursion(body))
        assert repr(got["m"][0][:2]) == repr([0, 1e300])
        # a tuple is canonicalised as the list JSON writes it as
        assert repr(got["m"][1]) == repr([1, [2]]) and got["m"][2] == 3 and got["1"] is False
        assert serialize_body({"a": (1.0, [2.0])}) == serialize_body({"a": [1, [2]]})

    def test_documents_are_byte_identical(self):
        for name in fixtures.FIXTURE_NAMES:
            body = json.loads(fixtures.fixture_text(name))
            want = json.dumps(oracles.canonical_value_by_recursion(body), sort_keys=True, indent=2) + "\n"
            assert serialize_body(body) == want


class TestBehaviourInputs:
    @pytest.mark.parametrize("name,bound", [("gaubert_mpa", 6), ("production_line", 4)])
    def test_exhaustive_words_share_one_input_per_symbol(self, name, bound):
        doc = parse_model(fixtures.fixture_text(name))
        symbols = doc.body["alphabet"] if doc.kind == "mpa" else doc.body["switching"]["symbols"]
        args = argparse.Namespace(model1=name, model2=name, seed=0)
        regime, seqs = _behaviour_inputs(args, doc, doc, bound)
        assert regime == "exhaustive"
        seqs = list(seqs)
        assert seqs == [word_inputs(w) for w in equivalence.exhaustive_words(symbols, bound)]
        assert len({id(inp) for seq in seqs for inp in seq}) == len(symbols)

    def test_a_refused_kind_builds_no_sequence(self, tmp_path, monkeypatch):
        def unbuilt(alphabet, max_len):
            # a generator, so it fails on its first next, not when called
            raise AssertionError("a sequence was built for a refused document")
            yield

        at = tmp_path / "at.json"
        at.write_text(run_cli("abstract", "gaubert_mpa").stdout)
        monkeypatch.setattr(equivalence, "exhaustive_words", unbuilt)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["check", str(at), "gaubert_mpa", "--relation", "behaviour", "--bound", "40"])
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue() == "error: behaviour checks need mpa, smpl or maha documents, got 'fa'\n"


class TestParsing:
    # sha256 of each bundled document, which no committed file states
    FIXTURE_SHA256 = {
        "gaubert_mpa": "3e8dc8f83a3ad13dd4a89e90b2a4fc7d09c28d31cc2d6dcd23589f19806e7143",
        "production_line": "178ec2eb92d11f5c51163c205ebbaeee3382eb7b697a0803d31dd99f575889cf",
        "feedback_demo": "0ebe7ee877875efbc92b59932dd48131b011343369f45aca06ee15e09eb26bfe",
    }

    def test_fixture_documents_are_pinned_byte_for_byte(self):
        assert set(self.FIXTURE_SHA256) == set(fixtures.FIXTURE_NAMES)
        for name, digest in self.FIXTURE_SHA256.items():
            assert hashlib.sha256(fixtures.fixture_text(name).encode("utf-8")).hexdigest() == digest, name

    def test_fixture_documents_round_trip_byte_for_byte(self):
        for name in fixtures.FIXTURE_NAMES:
            text = fixtures.fixture_text(name)
            doc = parse_model(text)
            assert serialize_body(doc.body) == text

    def test_gaubert_document_builds_the_automaton(self, gaubert):
        doc = parse_model(fixtures.fixture_text("gaubert_mpa"))
        assert doc.kind == "mpa"
        assert doc.model == gaubert

    @pytest.mark.parametrize("name", ["production_line", "feedback_demo"])
    def test_smpl_document_builds_the_system(self, name, production, feedback):
        system = {"production_line": production, "feedback_demo": feedback}[name]
        doc = parse_model(fixtures.fixture_text(name))
        assert doc.model.n_modes == system.n_modes
        for q in system.modes:
            assert doc.model.modes[q].form == system.modes[q].form
        assert doc.model.x0 == system.x0
        assert doc.model.dims == system.dims
        assert doc.model.switching.kind == system.switching.kind
        assert doc.model.switching.spec == system.switching.spec
        assert getattr(doc.model.controller, "spec", None) == getattr(system.controller, "spec", None)
        assert doc.model.closed_loop == system.closed_loop

    def test_syntax_error_carries_position(self):
        with pytest.raises(ModelFormatError) as err:
            parse_model('{"kind": "mpa",\n  broken\n}')
        assert err.value.line == 2

    def test_wrong_row_count_is_a_semantic_error(self):
        body = json.loads(fixtures.fixture_text("gaubert_mpa"))
        body["mu"]["a"] = body["mu"]["a"][:2]
        with pytest.raises(ModelFormatError) as err:
            parse_model(json.dumps(body))
        assert "3x3" in str(err.value)

    def test_unknown_kind(self):
        with pytest.raises(ModelFormatError):
            parse_model('{"kind": "petri"}')

    def test_missing_field_names_the_key(self):
        with pytest.raises(ModelFormatError) as err:
            parse_model('{"kind": "mpa", "states": ["1"]}')
        assert "alphabet" in str(err.value)

    def test_maha_document_round_trips_through_translation(self, gaubert):
        inner = smpl_body(
            __import__("maxplushybrid.smpl", fromlist=["from_mpa"]).from_mpa(gaubert),
            meta={"translated_from": "mpa"},
        )
        body = maha_body(inner)
        doc = parse_model(serialize_body(body))
        assert doc.kind == "maha"
        assert doc.model.system.meta["translated_from"] == "mpa"

    def test_fa_round_trip(self, gaubert):
        from maxplushybrid.mpa import to_finite_abstraction

        body = fa_body(to_finite_abstraction(gaubert))
        text = serialize_body(body)
        doc = parse_model(text)
        assert serialize_body(doc.body) == text
        assert doc.model.initial == frozenset({"1"})


class TestControllerSpec:
    """A closed loop's controller is written from the hook's own spec, not
    from the system's meta."""

    def test_a_replaced_controller_writes_its_own_gain(self, feedback):
        gain = TropicalMatrix.from_rows([[5, 7]])
        system = dataclasses.replace(feedback, controller=static_feedback(gain))
        assert smpl_body(system)["controller"] == {"type": "static_feedback", "gain": [[5, 7]]}

    def test_a_closed_loop_without_meta_round_trips(self, feedback):
        system = dataclasses.replace(feedback, meta={})
        text = serialize_body(smpl_body(system))
        back = parse_model(text).model
        # the document states every compared field of the system
        assert serialize_body(smpl_body(back)) == text
        assert back.closed_loop and back.controller.spec == system.controller.spec
        for word in equivalence.exhaustive_words(("m1", "m2"), 4):
            inputs = word_inputs(word)
            assert SmplBehaviour(back).fold(inputs) == SmplBehaviour(system).fold(inputs), word

    def test_a_hook_of_bare_closures_is_refused(self, feedback):
        bare = ControllerHook(f_u=feedback.controller.f_u, f_v=feedback.controller.f_v)
        with pytest.raises(ModelFormatError, match="controller hook has no declarative form"):
            smpl_body(dataclasses.replace(feedback, controller=bare))


class TestCliCommands:
    def test_eval_word_value(self):
        result = run_cli("eval", "gaubert_mpa", "--word", "ab", "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["output"] == 12
        assert payload["accepted"] is True

    def test_eval_rejected_word_still_exits_zero_for_mpa(self):
        result = run_cli("eval", "gaubert_mpa", "--word", "b", "--format", "json")
        assert result.returncode == 0
        assert json.loads(result.stdout)["output"] == "-inf"

    def test_translate_then_simulate_reaches_the_word_value(self, tmp_path):
        translated = run_cli("translate", "gaubert_mpa", "--to", "smpl")
        assert translated.returncode == 0
        model = tmp_path / "translated.json"
        model.write_text(translated.stdout)
        result = run_cli(
            "simulate", str(model), "--word", "aab", "--format", "json"
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["trace"][-1]["y"] == [14]
        assert payload["halted_at"] is None

    def test_simulate_reports_halts(self):
        result = run_cli("simulate", "gaubert_mpa", "--word", "aab", "--format", "json")
        assert result.returncode == 0
        assert json.loads(result.stdout)["halted_at"] is None
        # "b" leaves no finite weight: the run halts there, before any record
        result = run_cli("simulate", "gaubert_mpa", "--word", "b,b,a", "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert (payload["trace"], payload["halted_at"]) == ([], 1)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from("ab"), max_size=7))
    def test_mpa_simulate_is_the_stepper_fold(self, word):
        gaubert = fixtures.gaubert_mpa()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["simulate", "gaubert_mpa", "--word", ",".join(word), "--format", "json"])
        assert code == 0
        trace = MpaBehaviour(gaubert).fold(word_inputs(word))
        payload = json.loads(out.getvalue())
        assert payload["halted_at"] == trace.halted_at
        assert payload["trace"] == [
            {
                "k": rec.k,
                "symbol": word[rec.k - 1],
                "state": [encode_weight(v) for v in rec.x],
                "output": encode_weight(rec.y[0]),
            }
            for rec in trace.records
        ]

    def test_abstraction_language_check_pipeline(self, tmp_path):
        at = tmp_path / "at.json"
        hoat = tmp_path / "hoat.json"
        maha = tmp_path / "maha.json"
        at.write_text(run_cli("abstract", "gaubert_mpa").stdout)
        maha.write_text(
            run_cli("translate", "gaubert_mpa", "--to", "maha").stdout
        )
        hoat.write_text(
            run_cli("abstract", str(maha), "--style", "fused").stdout
        )
        result = run_cli(
            "check", str(at), str(hoat), "--relation", "language", "--bound", "6"
        )
        assert result.returncode == 0
        bisim = run_cli(
            "check", str(at), str(hoat), "--relation", "bisimulation"
        )
        assert bisim.returncode == 0

    def test_check_reports_false_with_witness_and_exit_one(self, tmp_path):
        at_text = run_cli("abstract", "gaubert_mpa").stdout
        body = json.loads(at_text)
        body["final"] = []
        crippled = tmp_path / "crippled.json"
        crippled.write_text(serialize_body(body))
        at = tmp_path / "at.json"
        at.write_text(at_text)
        result = run_cli(
            "check",
            str(at),
            str(crippled),
            "--relation",
            "language",
            "--bound",
            "4",
            "--format",
            "json",
        )
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["verdict"] is False
        assert payload["witness"] == []

    def test_behaviour_check_between_model_classes(self, tmp_path):
        smpl_doc = tmp_path / "sys.json"
        smpl_doc.write_text(run_cli("translate", "gaubert_mpa", "--to", "smpl").stdout)
        result = run_cli(
            "check",
            "gaubert_mpa",
            str(smpl_doc),
            "--relation",
            "behaviour",
            "--bound",
            "5",
            "--format",
            "json",
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["regime"] == "exhaustive"

    def test_usage_errors_exit_two(self):
        assert run_cli("eval", "gaubert_mpa").returncode == 2  # missing --word
        assert run_cli("eval", "no_such_file.json", "--word", "a").returncode == 2
        assert (
            run_cli("check", "gaubert_mpa", "gaubert_mpa", "--relation", "language").returncode
            == 2
        )  # language checks need fa documents
        assert run_cli("frobnicate").returncode == 2

    def test_model_errors_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "mpa"}')
        result = run_cli("eval", str(bad), "--word", "a")
        assert result.returncode == 2
        assert "error" in result.stderr

    def test_stdin_models_are_accepted(self):
        maha_text = run_cli("translate", "gaubert_mpa", "--to", "maha").stdout
        result = run_cli(
            "abstract", "-", "--style", "fused", stdin_text=maha_text
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["kind"] == "fa"

    def test_simulate_with_structured_inputs_file(self, tmp_path):
        steps = [{"w": "l1"}, {"w": "l1"}, {"w": "l2"}]
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps(steps))
        result = run_cli(
            "simulate",
            "production_line",
            "--inputs",
            str(inputs),
            "--format",
            "json",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["trace"][0]["x"] == [1, 2, 4]
        assert payload["trace"][0]["y"] == [4]

    @pytest.mark.parametrize("model", ["production_line", "production_line-as-maha"])
    def test_inputs_symbol_outside_the_alphabet_exits_two(self, tmp_path, model):
        if model.endswith("-as-maha"):
            path = tmp_path / "h.json"
            path.write_text(run_cli("translate", "production_line", "--to", "maha").stdout)
            model = str(path)
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps([{"w": "l1"}, {"w": "zz"}]))
        result = run_cli("simulate", model, "--inputs", str(inputs))
        assert result.returncode == 2
        assert result.stderr == (
            f"error: inputs[1].w 'zz' in {str(inputs)!r} is not in the alphabet ['l1', 'l2']\n"
        )
        assert result.stdout == ""

    def test_mpa_inputs_need_a_symbol_on_every_step(self, tmp_path):
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps([{"w": "a"}, {"u": []}]))
        result = run_cli("simulate", "gaubert_mpa", "--inputs", str(inputs))
        assert result.returncode == 2
        assert result.stderr == (
            f"error: inputs[1].w in {str(inputs)!r} is missing; an mpa step reads a symbol\n"
        )
        assert result.stdout == ""

    @pytest.mark.parametrize("model", ["production_line", "production_line-as-maha"])
    def test_inputs_need_a_symbol_when_the_switching_reads_one(self, tmp_path, model):
        if model.endswith("-as-maha"):
            path = tmp_path / "h.json"
            path.write_text(run_cli("translate", "production_line", "--to", "maha").stdout)
            model = str(path)
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps([{"w": "l1"}, {"u": []}]))
        result = run_cli("simulate", model, "--inputs", str(inputs))
        assert result.returncode == 2
        assert result.stderr == (
            f"error: inputs[1].w in {str(inputs)!r} is missing; a step reads one of ['l1', 'l2']\n"
        )
        assert result.stdout == ""

    @pytest.mark.parametrize("model, w", [("production_line", "l1"), ("gaubert_mpa", "a")])
    def test_inputs_key_outside_the_step_fields_exits_two(self, tmp_path, model, w):
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps([{"w": w}, {"w": w, "R": [5]}]))
        result = run_cli("simulate", model, "--inputs", str(inputs))
        assert result.returncode == 2
        assert result.stderr == (
            f"error: inputs[1].R in {str(inputs)!r} is not a step field; a step takes w, u, v, r, p\n"
        )
        assert result.stdout == ""

    @pytest.mark.parametrize("key, value", [("u", [5]), ("v", ["-inf"]), ("r", [1, 2]), ("p", [0])])
    def test_mpa_inputs_take_no_continuous_signals(self, tmp_path, key, value):
        # an empty vector passes: behaviour witnesses carry "u": [] on every step
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps([{"w": "a", key: []}, {"w": "a", key: value}]))
        result = run_cli("simulate", "gaubert_mpa", "--inputs", str(inputs))
        assert result.returncode == 2
        assert result.stderr == f"error: inputs[1].{key} must be empty: an mpa step reads its symbol w only\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("steps", [[{"u": []}], [{"w": "a"}]])
    def test_simulate_rejects_an_fa_document_before_reading_inputs(self, tmp_path, steps):
        model = tmp_path / "at.json"
        model.write_text(run_cli("abstract", "gaubert_mpa").stdout)
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps(steps))
        result = run_cli("simulate", str(model), "--inputs", str(inputs))
        assert result.returncode == 2
        assert result.stderr == "error: simulate expects an mpa, smpl or maha document, got 'fa'\n"
        assert result.stdout == ""

    def test_mpa_inputs_file_runs_like_the_word(self, tmp_path):
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps([{"w": "a"}, {"w": "b"}, {"w": "a"}]))
        by_file = run_cli("simulate", "gaubert_mpa", "--inputs", str(inputs), "--format", "json")
        by_word = run_cli("simulate", "gaubert_mpa", "--word", "aba", "--format", "json")
        assert by_file.returncode == by_word.returncode == 0
        assert json.loads(by_file.stdout)["trace"] == json.loads(by_word.stdout)["trace"]

    def test_reproduce_passes_and_is_deterministic(self):
        first = run_cli("reproduce", "--seed", "42", "--format", "json")
        second = run_cli("reproduce", "--seed", "42", "--format", "json")
        assert first.returncode == 0
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        assert payload["passed"] == payload["total"]

    def test_reproduce_failure_names_the_check_and_exits_one(self, monkeypatch, capsys):
        from maxplushybrid import cli, reproduce

        def broken_suite(seed):
            return [
                reproduce.CheckResult("mpa-word-values", True, "fine"),
                reproduce.CheckResult("production-step", False, "weights corrupted"),
            ]

        monkeypatch.setattr(reproduce, "run_suite", broken_suite)
        code = cli.main(["reproduce", "--seed", "42"])
        out = capsys.readouterr().out
        assert code == 1
        assert "production-step" in out and "FAIL" in out


def fixture_variant(name, drop_controller=False, **dims):
    """The bundled document with its dims updated.  A document must carry
    the u++r++p width it declares, so a mode that gives no B and D gets
    them written out as all-EPS columns of that width."""
    body = json.loads(fixtures.fixture_text(name))
    if drop_controller:
        del body["controller"]
    body["dims"].update(dims)
    return with_eps_inputs(body)


def with_eps_inputs(body):
    width = sum(body["dims"].get(key, 0) for key in ("n_u", "n_r", "n_p"))
    for mode in body["modes"]:
        if width and "B" not in mode and "D" not in mode:
            mode["B"] = [[["-inf"] * width for _ in a] for a in mode["A"]]
            mode["D"] = [[["-inf"] * width for _ in c] for c in mode["C"]]
    return body


class TestInputWidths:
    def test_short_exogenous_window_is_an_error_not_padding(self, tmp_path):
        # B and D are all-EPS columns of the declared u++r++p width
        body = fixture_variant("production_line", n_r=1)
        system = parse_model(serialize_body(body)).model
        inputs = word_inputs(("l1",))  # r = ()
        with pytest.raises(ValueError, match=r"width 0 \(0\+0\+0\), expected 1"):
            simulate(system, inputs)
        with pytest.raises(ValueError, match=r"width 0 \(0\+0\+0\), expected 1"):
            run(from_smpl_open(system), inputs)
        model = tmp_path / "m.json"
        model.write_text(serialize_body(body))
        result = run_cli("simulate", str(model), "--word", "l1")
        assert result.returncode == 2
        assert result.stderr == (
            "error: --word gives each step a symbol only, but this model also reads r (width 1) "
            "on every step; pass the steps with --inputs\n"
        )

    @pytest.mark.parametrize(
        "body, word, read",
        [
            (fixture_variant("feedback_demo", drop_controller=True), "m1,m2", "u (width 1)"),
            (fixture_variant("production_line", n_r=1, n_p=2), "l1", "r (width 1) and p (width 2)"),
        ],
        ids=["open-loop-u", "r-and-p"],
    )
    def test_word_is_refused_where_a_step_reads_more_than_its_symbol(self, tmp_path, body, word, read):
        model = tmp_path / "m.json"
        model.write_text(serialize_body(body))
        maha = tmp_path / "maha.json"
        maha.write_text(run_cli("translate", str(model), "--to", "maha").stdout)
        for path in (model, maha):
            result = run_cli("simulate", str(path), "--word", word)
            assert (result.returncode, result.stdout) == (2, "")
            assert result.stderr == (
                f"error: --word gives each step a symbol only, but this model also reads {read} "
                "on every step; pass the steps with --inputs\n"
            )

    def test_word_runs_a_closed_loop_whose_controller_gives_u(self):
        result = run_cli("simulate", "feedback_demo", "--word", "m1,m2", "--format", "json")
        assert result.returncode == 0, result.stderr
        assert [rec["y"] for rec in json.loads(result.stdout)["trace"]] == [[2], [3]]

    def test_extra_exogenous_inputs_are_an_error_not_ignored(self, tmp_path):
        # externally driven switching reads no window, so only the step checks it
        body = fixture_variant("production_line")
        body["switching"]["type"] = "externally_driven"
        del body["switching"]["kind"]  # the type's own kind
        system = parse_model(serialize_body(body)).model
        inputs = (StepInput(w="l1", r=(5.0,), p=(1.0, 2.0)),)
        message = r"widths \(0, 1, 2\), expected \(0, 0, 0\)"
        with pytest.raises(ValueError, match=message):
            simulate(system, inputs)
        with pytest.raises(ValueError, match=message):
            run(from_smpl_open(system), inputs)
        model = tmp_path / "m.json"
        model.write_text(serialize_body(body))
        steps = tmp_path / "inputs.json"
        steps.write_text(json.dumps([{"w": "l1", "r": [5], "p": [1, 2]}]))
        result = run_cli("simulate", str(model), "--inputs", str(steps))
        assert result.returncode == 2
        # the CLI refuses the step before any model steps it, naming the step and the file
        assert result.stderr == f"error: inputs[0].r in {str(steps)!r} has width 1, expected 0\n"

    def test_misplaced_exogenous_inputs_are_an_error_when_the_rule_stepped_the_mode(
        self, tmp_path
    ):
        # the u++r++p width is right, so symbol liveness computes the next
        # state; the step that reuses it must still check each part
        body = fixture_variant("production_line", n_r=1)
        system = parse_model(serialize_body(body)).model
        inputs = (StepInput(w="l1", p=(5.0,)),)
        message = r"widths \(0, 0, 1\), expected \(0, 1, 0\)"
        with pytest.raises(ValueError, match=message):
            simulate(system, inputs)
        with pytest.raises(ValueError, match=message):
            run(from_smpl_open(system), inputs)
        model = tmp_path / "m.json"
        model.write_text(serialize_body(body))
        steps = tmp_path / "inputs.json"
        steps.write_text(json.dumps([{"w": "l1", "p": [5]}]))
        result = run_cli("simulate", str(model), "--inputs", str(steps))
        assert result.returncode == 2
        assert result.stderr == f"error: inputs[0].r in {str(steps)!r} has width 0, expected 1\n"

    def test_behaviour_check_draws_r_at_its_own_width(self, tmp_path):
        body = fixture_variant("feedback_demo", drop_controller=True, n_u=0, n_r=1)
        model = tmp_path / "m.json"
        model.write_text(serialize_body(body))
        result = run_cli(
            "check", str(model), str(model), "--relation", "behaviour", "--format", "json"
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["regime"] == "sampled"
        body["modes"][0]["B"][0][0][0] = 5  # mode 1 now reads r with a larger weight
        mutant = tmp_path / "mutant.json"
        mutant.write_text(serialize_body(body))
        result = run_cli(
            "check", str(model), str(mutant), "--relation", "behaviour", "--format", "json"
        )
        assert result.returncode == 1, result.stderr
        witness = json.loads(result.stdout)["witness"]
        assert all(step["u"] == [] and len(step["r"]) == 1 for step in witness)

    def test_behaviour_check_reads_widths_inside_maha_documents(self, tmp_path):
        model = tmp_path / "m.json"
        model.write_text(serialize_body(fixture_variant("feedback_demo", drop_controller=True)))
        maha = tmp_path / "h.json"
        maha.write_text(run_cli("translate", str(model), "--to", "maha").stdout)
        for pair in ((maha, maha), (model, maha), (maha, model)):
            result = run_cli(
                "check", *map(str, pair), "--relation", "behaviour", "--format", "json"
            )
            assert result.returncode == 0, result.stderr
            assert json.loads(result.stdout)["regime"] == "sampled"


class TestCountFlags:
    """--bound and -K/--steps take counts; a value that checks nothing
    exits 2 with a message naming the flag, never a vacuous verdict."""

    def test_negative_bound_is_rejected(self):
        result = run_cli("check", "gaubert_mpa", "gaubert_mpa", "--relation", "behaviour", "--bound", "-3")
        assert result.returncode == 2
        assert "argument --bound: must not be negative, got -3" in result.stderr
        assert result.stdout == ""

    def test_negative_steps_are_rejected(self):
        result = run_cli("simulate", "gaubert_mpa", "--word", "ab", "-K", "-2")
        assert result.returncode == 2
        assert "argument -K/--steps: must not be negative, got -2" in result.stderr
        assert result.stdout == ""

    def test_behaviour_check_needs_a_positive_bound_in_either_regime(self, tmp_path):
        sampled = tmp_path / "m.json"
        sampled.write_text(serialize_body(fixture_variant("feedback_demo", drop_controller=True)))
        for model in ("gaubert_mpa", str(sampled)):
            result = run_cli("check", model, model, "--relation", "behaviour", "--bound", "0")
            assert result.returncode == 2
            assert result.stderr == "error: --bound must be at least 1 for behaviour checks\n"
            assert result.stdout == ""


def malformed(name, edit):
    body = json.loads(fixtures.fixture_text(name))
    edit(body)
    return json.dumps(body)


def set_path(*path_and_value):
    *path, key, value = path_and_value

    def edit(body):
        for step in path:
            body = body[step]
        body[key] = value

    return edit


@pytest.mark.parametrize(
    "argv, text, where",
    [
        (("simulate", "production_line", "--inputs"), "[1, 2]", "inputs[0]"),
        (("simulate", "production_line", "--inputs"), '[{"u": 5, "w": "l1"}]', "inputs[0].u"),
        (
            ("eval", "--word", "a"),
            '{"kind": "fa", "states": ["p", "q"], "alphabet": ["a"],'
            ' "delta": {"p": ["q"]}, "initial": ["p"], "final": ["q"]}',
            "delta['p']",
        ),
        (("eval", "--word", "a"), '{"kind": "maha", "system": 5}', "'system'"),
        (("eval", "--word", "a"), malformed("gaubert_mpa", set_path("meta", [1])), "mpa 'meta'"),
        (("simulate", "--word", "l1"), malformed("production_line", set_path("meta", 5)), "smpl 'meta'"),
        (("simulate", "--word", "l1"), malformed("production_line", set_path("dims", "n", None)), "dims 'n'"),
        (("simulate", "--word", "l1"), malformed("production_line", set_path("dims", "n_u", [1])), "dims 'n_u'"),
        (("simulate", "--word", "l1"), malformed("production_line", set_path("modes", 0, 5)), "modes[0]"),
        (("simulate", "--word", "m1"), malformed("feedback_demo", set_path("controller", 5)), "'controller'"),
        (("simulate", "--word", "m1"), malformed("feedback_demo", set_path("modes", 0, "B", 5)), "modes[0] 'B'"),
        (
            ("simulate", "--word", "m1"),
            malformed("feedback_demo", set_path("modes", 0, "D", [[[0, 0]]])),
            "modes[0]: B and D matrices must share one input width",
        ),
        (
            ("simulate", "--word", "l1"),
            json.dumps({"kind": "maha", "system": json.loads(fixtures.fixture_text("production_line")), "meta": 5}),
            "maha 'meta'",
        ),
    ],
    ids=[
        "inputs-not-objects", "inputs-u-not-a-list", "fa-delta-not-nested", "maha-system-not-an-object",
        "mpa-meta-not-an-object", "smpl-meta-not-an-object", "dims-n-null", "dims-n_u-not-an-integer",
        "mode-not-an-object", "controller-not-an-object", "mode-B-not-a-list", "mode-D-wider-than-B",
        "maha-meta-not-an-object",
    ],
)
def test_malformed_outside_input_exits_two_without_traceback(tmp_path, argv, text, where):
    path = tmp_path / "input.json"
    path.write_text(text)
    if argv[0] == "eval":
        argv = (argv[0], str(path)) + argv[1:]
    else:
        argv = argv + (str(path),)
    result = run_cli(*argv)
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr
    assert where in result.stderr


class TestSmplDocumentsAcrossCommands:
    @pytest.mark.parametrize(
        "name,controller,loop,word",
        [
            ("production_line", "kept", "open", "l1,l2,l2,l1"),
            ("production_line", None, "open", "l1,l2,l2,l1"),
            ("feedback_demo", "kept", "closed", "m1,m2,m2,m1"),
        ],
    )
    def test_translation_loop_follows_the_controller(self, tmp_path, name, controller, loop, word):
        # "controller": null is an open loop, as the smpl reader takes it
        body = json.loads(fixtures.fixture_text(name))
        if controller is None:
            body["controller"] = None
        model = tmp_path / "m.json"
        model.write_text(serialize_body(body))
        translated = run_cli("translate", str(model), "--to", "maha")
        assert translated.returncode == 0, translated.stderr
        assert json.loads(translated.stdout)["loop"] == loop
        maha = tmp_path / "h.json"
        maha.write_text(translated.stdout)
        runs = [run_cli("simulate", str(path), "--word", word, "--format", "json") for path in (model, maha)]
        assert [r.returncode for r in runs] == [0, 0], runs[1].stderr
        system, hybrid = map(json.loads, (r.stdout for r in runs))
        assert system["halted_at"] == hybrid["halted_at"]
        # record for record, through the x inside z = (mode, x, u, v) on the closed loop
        n = len(system["trace"][0]["x"])
        assert [
            (h["k"], h["mode"], h["x"][1 : 1 + n] if loop == "closed" else h["x"], h["y"]) for h in hybrid["trace"]
        ] == [(s["k"], s["mode"], s["x"], s["y"]) for s in system["trace"]]

    def test_abstract_takes_an_smpl_document_through_its_translation(self, tmp_path):
        direct = run_cli("abstract", "production_line")
        assert direct.returncode == 0, direct.stderr
        maha = tmp_path / "h.json"
        maha.write_text(run_cli("translate", "production_line", "--to", "maha").stdout)
        via_maha = run_cli("abstract", str(maha))
        assert via_maha.returncode == 0, via_maha.stderr
        got, want = parse_model(direct.stdout).model, parse_model(via_maha.stdout).model
        assert (got.states, got.alphabet, got.delta, got.initial, got.final) == (
            want.states,
            want.alphabet,
            want.delta,
            want.initial,
            want.final,
        )

    def test_closed_loop_smpl_document_cannot_be_abstracted(self):
        result = run_cli("abstract", "feedback_demo")
        assert result.returncode == 2
        assert result.stderr == (
            "error: finite abstraction reads each mode's matrix form over the "
            "system's x, but a closed loop's state is the augmented (mode, x, u, v)\n"
        )
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "name,drop_controller,fault",
        [
            ("production_line", False, "mode 1 has L = 2, M = 1 and input width 0"),
            ("feedback_demo", True, "mode 1 has L = 1, M = 1 and input width 1"),
        ],
    )
    def test_fused_abstraction_does_not_trust_meta(self, tmp_path, name, drop_controller, fault):
        body = fixture_variant(name, drop_controller=drop_controller)
        body["meta"]["translated_from"] = "mpa"
        model = tmp_path / "forged.json"
        model.write_text(serialize_body(body))
        maha = tmp_path / "forged-maha.json"
        maha.write_text(run_cli("translate", str(model), "--to", "maha").stdout)
        for path in (model, maha):
            result = run_cli("abstract", str(path), "--style", "fused")
            assert result.returncode == 2
            assert result.stderr.startswith(
                "error: fused abstraction applies to the translation of a max-plus automaton, but "
            )
            assert fault in result.stderr
            assert result.stdout == ""

    @pytest.mark.parametrize("relation", ["simulation", "bisimulation", "behaviour"])
    def test_exact_applies_to_language_checks_only(self, tmp_path, relation):
        at = tmp_path / "at.json"
        at.write_text(run_cli("abstract", "gaubert_mpa").stdout)
        models = (str(at), str(at)) if relation != "behaviour" else ("gaubert_mpa", "gaubert_mpa")
        result = run_cli("check", *models, "--relation", relation, "--exact")
        assert result.returncode == 2
        assert result.stderr == "error: --exact applies to --relation language only\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("flags", [("simulation",), ("bisimulation",), ("language", "--exact")])
    def test_bound_applies_to_bounded_checks_only(self, tmp_path, flags):
        at = tmp_path / "at.json"
        at.write_text(run_cli("abstract", "gaubert_mpa").stdout)
        result = run_cli("check", str(at), str(at), "--relation", *flags, "--bound", "3")
        assert result.returncode == 2
        assert result.stderr == (
            "error: --bound applies to --relation behaviour, and to --relation language without --exact\n"
        )
        assert result.stdout == ""

    def test_behaviour_check_between_documents_of_other_widths(self, tmp_path):
        # both documents read r, at widths 1 and 0: refused before any
        # step, naming both, in either order
        model = tmp_path / "m.json"
        model.write_text(serialize_body(fixture_variant("production_line", n_r=1)))
        for first, second, widths in ((str(model), "production_line", (1, 0)), ("production_line", str(model), (0, 1))):
            result = run_cli("check", first, second, "--relation", "behaviour")
            assert result.returncode == 2
            assert result.stderr == (
                f"error: {first!r} reads r of width {widths[0]} and {second!r} r of width {widths[1]} "
                "on every step; a behaviour check gives both models the same steps\n"
            )
            assert result.stdout == ""

    def test_behaviour_check_draws_a_field_only_one_document_reads(self, tmp_path):
        # the closed loop's controller computes its u, so u is drawn at the
        # open copy's width, in either order
        model = tmp_path / "open.json"
        model.write_text(serialize_body(fixture_variant("feedback_demo", drop_controller=True)))
        for models in (("feedback_demo", str(model)), (str(model), "feedback_demo")):
            result = run_cli("check", *models, "--relation", "behaviour", "--bound", "3", "--format", "json")
            assert result.returncode == 1, result.stderr
            report = json.loads(result.stdout)
            del report["command"]
            assert report == {
                "bound": 3,
                "regime": "sampled",
                "verdict": False,
                "witness": [{"u": [5], "w": "m1"}],
            }
