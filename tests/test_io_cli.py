import json
import subprocess
import sys

import pytest

from maxplushybrid import fixtures
from maxplushybrid.hybrid import from_smpl_open, run
from maxplushybrid.serialization import (
    ModelFormatError,
    decode_weight,
    encode_weight,
    fa_body,
    maha_body,
    parse_model,
    serialize_body,
    serialize_model,
    smpl_body,
)
from maxplushybrid.smpl import StepInput, simulate, word_inputs
from maxplushybrid.tropical import EPS, TOP


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

    def test_bad_values(self):
        with pytest.raises(ModelFormatError):
            decode_weight("oops")
        with pytest.raises(ModelFormatError):
            decode_weight(True)


class TestParsing:
    def test_fixture_documents_round_trip_byte_for_byte(self):
        for name in fixtures.FIXTURE_NAMES:
            text = fixtures.fixture_text(name)
            doc = parse_model(text)
            assert serialize_model(doc) == text

    def test_gaubert_document_builds_the_automaton(self, gaubert):
        doc = parse_model(fixtures.fixture_text("gaubert_mpa"))
        assert doc.kind == "mpa"
        assert doc.model == gaubert

    def test_production_document_builds_the_system(self, production):
        doc = parse_model(fixtures.fixture_text("production_line"))
        assert doc.model.x0 == production.x0
        assert doc.model.modes[1].form == production.modes[1].form
        assert doc.model.switching.spec == production.switching.spec

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
        body = maha_body(inner, loop="open")
        doc = parse_model(serialize_body(body))
        assert doc.kind == "maha"
        assert doc.model.meta["source_provenance"] == "mpa"

    def test_fa_round_trip(self, gaubert):
        from maxplushybrid.mpa import to_finite_abstraction

        body = fa_body(to_finite_abstraction(gaubert))
        text = serialize_body(body)
        doc = parse_model(text)
        assert serialize_model(doc) == text
        assert doc.model.initial == frozenset({"1"})


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
    body = json.loads(fixtures.fixture_text(name))
    if drop_controller:
        del body["controller"]
    body["dims"].update(dims)
    return body


class TestInputWidths:
    def test_short_exogenous_window_is_an_error_not_padding(self, tmp_path):
        # B and D default to all-EPS columns of the declared u++r++p width
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
        assert result.stderr.startswith("error:") and "expected 1" in result.stderr

    def test_extra_exogenous_inputs_are_an_error_not_ignored(self, tmp_path):
        # externally driven switching reads no window, so only the step checks it
        body = fixture_variant("production_line")
        body["switching"]["type"] = "externally_driven"
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
        assert result.stderr.startswith("error:") and "expected (0, 0, 0)" in result.stderr

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
        assert result.stderr.startswith("error:") and "expected (0, 1, 0)" in result.stderr

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
            ("simulate", "--word", "l1"),
            json.dumps({"kind": "maha", "system": json.loads(fixtures.fixture_text("production_line")), "meta": 5}),
            "maha 'meta'",
        ),
    ],
    ids=[
        "inputs-not-objects", "inputs-u-not-a-list", "fa-delta-not-nested", "maha-system-not-an-object",
        "mpa-meta-not-an-object", "smpl-meta-not-an-object", "dims-n-null", "dims-n_u-not-an-integer",
        "mode-not-an-object", "controller-not-an-object", "mode-B-not-a-list", "maha-meta-not-an-object",
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
