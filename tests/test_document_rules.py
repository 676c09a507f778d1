"""Document rules that parse_model enforces: the switching kind each rule
type accepts, dims widths that the document's matrices carry, finite
weight numbers, and no traceback from any one hostile leaf in a bundled
document or from any hostile --inputs file.  A --word with an empty
comma-separated part exits 2 too, naming the part's position.
symbol_liveness symbols may repeat: the input alphabet is the distinct
symbols, which every command reads."""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplushybrid import equivalence, fixtures
from maxplushybrid.serialization import ModelFormatError, maha_body, parse_model, serialize_body, smpl_body
from maxplushybrid.smpl import SwitchingKind
from oracles import classify_switching
from test_support_rule import run_main


def bundled(name):
    return json.loads(fixtures.fixture_text(name))


def mpa_as_smpl():
    code, out, _ = run_main("translate", "gaubert_mpa", "--to", "smpl")
    assert code == 0
    return json.loads(out)


class TestSwitchingKind:
    @pytest.mark.parametrize(
        "kind", ["state_dependent_autonomous", "state_dependent_controlled", "externally_driven"]
    )
    def test_symbol_liveness_rejects_kinds_that_ignore_what_it_reads(self, tmp_path, kind):
        body = mpa_as_smpl()
        body["switching"]["kind"] = kind
        with pytest.raises(ModelFormatError, match=f"switching.kind '{kind}'"):
            parse_model(json.dumps(body))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(body))
        code, out, err = run_main("simulate", str(path), "--word", "ab")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "switching.kind" in err and "symbol_liveness" in err

    @pytest.mark.parametrize("kind", ["constrained", "constrained_controlled"])
    def test_symbol_liveness_takes_the_constrained_kinds(self, kind):
        body = mpa_as_smpl()
        body["switching"]["kind"] = kind
        system = parse_model(json.dumps(body)).model
        assert system.switching.kind is SwitchingKind(kind)

    def test_externally_driven_takes_only_its_own_kind(self, tmp_path):
        body = bundled("production_line")
        body["switching"]["type"] = "externally_driven"  # still declares constrained
        with pytest.raises(ModelFormatError, match="switching.kind 'constrained'"):
            parse_model(json.dumps(body))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(body))
        assert run_main("translate", str(path), "--to", "maha")[0] == 2
        body["switching"]["kind"] = "externally_driven"
        assert parse_model(json.dumps(body)).model.switching.kind is SwitchingKind.EXTERNALLY_DRIVEN

    def test_an_omitted_kind_is_the_types_own(self):
        body = bundled("production_line")
        del body["switching"]["kind"]
        system = parse_model(json.dumps(body)).model
        assert system.switching.kind is SwitchingKind.CONSTRAINED
        assert classify_switching(system) is SwitchingKind.CONSTRAINED
        body["switching"]["type"] = "externally_driven"
        system = parse_model(json.dumps(body)).model
        assert system.switching.kind is SwitchingKind.EXTERNALLY_DRIVEN
        assert classify_switching(system) is SwitchingKind.EXTERNALLY_DRIVEN


HUGE = 10**20  # fails before allocating anything if the parse-time check goes


class TestDimsCarriedByMatrices:
    def write(self, tmp_path, name, **dims):
        body = bundled(name)
        body["dims"].update(dims)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(body))
        return str(path)

    def test_huge_n_v_exits_two_on_simulate_and_check(self, tmp_path):
        path = self.write(tmp_path, "production_line", n_v=HUGE)
        for argv in (("simulate", path, "--word", "l1"), ("check", path, path, "--relation", "behaviour", "--bound", "2")):
            code, out, err = run_main(*argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: dims 'n_v' must be 0")

    def test_huge_n_u_exits_two_on_translate(self, tmp_path):
        path = self.write(tmp_path, "production_line", n_u=HUGE)
        code, out, err = run_main("translate", path, "--to", "maha")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: dims u++r++p width {HUGE} (n_u {HUGE} + n_r 0 + n_p 0)")

    @pytest.mark.parametrize("field", ["n", "n_y", "n_r", "n_p"])
    def test_huge_widths_are_model_errors(self, tmp_path, field):
        for name in ("production_line", "feedback_demo"):
            path = self.write(tmp_path, name, **{field: HUGE})
            code, out, err = run_main("simulate", path, "--word", "l1" if name == "production_line" else "m1")
            assert (code, out) == (2, ""), err
            assert err.startswith("error: ")

    def test_a_width_given_by_another_modes_matrix_is_carried(self):
        # feedback_demo's modes all give B and D; dropping one mode's pair
        # leaves it to EPS blocks of the width the other mode carries
        body = bundled("feedback_demo")
        del body["modes"][1]["B"], body["modes"][1]["D"]
        form = parse_model(json.dumps(body)).model.modes[2].form
        assert form.n_input == 1 and form.B[0].is_all_epsilon() and form.D[0].is_all_epsilon()

    def test_a_system_with_v_does_not_serialise(self):
        # what smpl_body writes, parse_model must read: n_v = 0 round-trips,
        # and a system built with v is refused before any document is written
        system = parse_model(json.dumps(mpa_as_smpl())).model
        text = serialize_body(smpl_body(system))
        assert serialize_body(smpl_body(parse_model(text).model)) == text
        with_v = dataclasses.replace(system, dims=dataclasses.replace(system.dims, n_v=1))
        with pytest.raises(ModelFormatError, match="^dims 'n_v' must be 0 to serialise, got 1"):
            smpl_body(with_v)


NAN, INF, OVERFLOW = float("nan"), float("inf"), 10**400  # json writes NaN, Infinity, 400 digits


def open_loop_feedback():
    """The bundled feedback_demo without its controller: u is an input."""
    body = bundled("feedback_demo")
    del body["controller"]
    return body


class TestWeightNumbers:
    """A weight number must be finite: the infinities are "-inf" and "+inf",
    and NaN, Infinity and numbers beyond a float's range exit 2 naming the
    field."""

    def run_on(self, tmp_path, body, *argv):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(body))
        return run_main(argv[0], str(path), *argv[1:])

    @pytest.mark.parametrize("value, says", [(NAN, "weight NaN is not a number"), (INF, "out of range"), (OVERFLOW, "out of range")])
    @pytest.mark.parametrize("where", ["x0", "alpha", "matrix", "inputs"])
    def test_non_finite_numbers_exit_two_naming_the_field(self, tmp_path, value, says, where):
        if where == "x0":
            body, field, argv = bundled("production_line"), "x0", ("simulate", "--word", "l1")
            body["x0"][1] = value
        elif where == "alpha":
            body, field, argv = bundled("gaubert_mpa"), "alpha", ("eval", "--word", "ab")
            body["alpha"][1] = value
        elif where == "matrix":
            body, field, argv = bundled("production_line"), "modes[1].C", ("translate", "--to", "maha")
            body["modes"][1]["C"][0][0][0] = value
        else:
            inputs = tmp_path / "inputs.json"
            inputs.write_text(json.dumps([{"w": "m1", "u": [1]}, {"w": "m2", "u": [value]}]))
            body, field, argv = open_loop_feedback(), "inputs[1].u", ("simulate", "--inputs", str(inputs))
        code, out, err = self.run_on(tmp_path, body, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and f"{field}: " in err and says in err, err

    @pytest.mark.parametrize("key", ["u", "r", "p"])
    @pytest.mark.parametrize("infinity", ["-inf", "+inf"])
    def test_inputs_refuse_infinite_continuous_inputs(self, tmp_path, key, infinity):
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps([{"w": "m1", "u": [0]}, {"w": "m1", "u": [0], key: [infinity]}]))
        code, out, err = self.run_on(tmp_path, open_loop_feedback(), "simulate", "--inputs", str(inputs))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: inputs[1].{key} must be finite"), err

    def test_finite_inputs_still_run(self, tmp_path):
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps([{"w": "m1", "u": [30]}, {"w": "m2", "u": [-2.5]}]))
        code, out, err = self.run_on(tmp_path, open_loop_feedback(), "simulate", "--inputs", str(inputs), "--format", "json")
        assert code == 0, err
        assert [rec["k"] for rec in json.loads(out)["trace"]] == [1, 2]


class TestStepWidths:
    """An --inputs step whose u, v, r or p has another width than the
    system reads exits 2, naming the step, the field and the file; a closed
    loop's controller computes u and v, so those of its steps are dropped."""

    @pytest.mark.parametrize("maha", [False, True], ids=["smpl", "maha"])
    @pytest.mark.parametrize(
        "name, steps, says",
        [
            ("production_line", [{"w": "l1"}, {"w": "l2", "r": [1]}], "inputs[1].r in {!r} has width 1, expected 0"),
            ("open", [{"w": "m1", "u": [3]}, {"w": "m1", "u": [3, 1]}], "inputs[1].u in {!r} has width 2, expected 1"),
            ("open", [{"w": "m1", "u": [3], "v": [0]}], "inputs[0].v in {!r} has width 1, expected 0"),
            ("open", [{"w": "m1", "u": [3], "p": [0]}], "inputs[0].p in {!r} has width 1, expected 0"),
        ],
        ids=["r", "u", "v", "p"],
    )
    def test_a_step_of_another_width_exits_two(self, tmp_path, name, steps, says, maha):
        body = open_loop_feedback() if name == "open" else bundled(name)
        model, inputs = tmp_path / "m.json", tmp_path / "inputs.json"
        model.write_text(json.dumps(maha_body(body) if maha else body))
        inputs.write_text(json.dumps(steps))
        assert run_main("simulate", str(model), "--inputs", str(inputs)) == (2, "", f"error: {says.format(str(inputs))}\n")

    def test_a_closed_loop_drops_its_steps_u_and_v(self, tmp_path):
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps([{"w": "m1", "u": [1, 2, 3], "v": [9]}]))
        code, out, err = run_main("simulate", "feedback_demo", "--inputs", str(inputs))
        assert (code, err) == (0, "")



class TestNames:
    """State and symbol names are JSON strings; any other value exits 2,
    naming its field, and is never coerced into a string."""

    def run_on(self, tmp_path, body, *argv):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(body))
        return run_main(argv[0], str(path), *argv[1:])

    def test_non_string_switching_symbols_exit_two(self, tmp_path):
        body = bundled("production_line")
        body["switching"]["symbols"] = [1, [2]]
        for argv in (("simulate", "--word", "1"), ("translate", "--to", "maha")):
            code, out, err = self.run_on(tmp_path, body, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and "switching symbols[0]" in err, err

    @pytest.mark.parametrize(
        "kind,path,field",
        [
            ("mpa", ("states", 1), "mpa states[1]"),
            ("mpa", ("alphabet", 0), "mpa alphabet[0]"),
            ("fa", ("states", 0), "fa states[0]"),
            ("fa", ("alphabet", 1), "fa alphabet[1]"),
            ("fa", ("initial", 0), "fa initial[0]"),
            ("fa", ("final", 0), "fa final[0]"),
        ],
    )
    def test_non_string_automaton_names_exit_two(self, tmp_path, kind, path, field):
        body = bundled("gaubert_mpa")
        if kind == "fa":
            code, out, _ = run_main("abstract", "gaubert_mpa")
            assert code == 0
            body = json.loads(out)
        body[path[0]][path[1]] = 7
        code, out, err = self.run_on(tmp_path, body, "abstract")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and f"{field} must be a string, got 7" in err, err

    def test_non_string_delta_target_exits_two(self, tmp_path):
        code, out, _ = run_main("abstract", "gaubert_mpa")
        body = json.loads(out)
        src = sorted(body["delta"])[0]
        symbol = sorted(body["delta"][src])[0]
        body["delta"][src][symbol] = [None]
        code, out, err = self.run_on(tmp_path, body, "abstract")
        assert (code, out) == (2, "")
        assert f"fa delta[{src!r}][{symbol!r}][0] must be a string, got None" in err, err


class TestExternallyDrivenSymbols:
    def test_a_repeated_symbol_exits_two_naming_it(self, tmp_path):
        body = bundled("production_line")
        body["switching"] = {"type": "externally_driven", "symbols": ["l1", "l1"]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(body))
        for argv in (("simulate", str(path), "--word", "l1,l1"), ("translate", str(path), "--to", "maha")):
            code, out, err = run_main(*argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and "'l1'" in err, err

    def test_distinct_symbols_still_run(self, tmp_path):
        body = bundled("production_line")
        body["switching"] = {"type": "externally_driven", "symbols": ["l2", "l1"]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(body))
        code, out, err = run_main("simulate", str(path), "--word", "l1,l2", "--format", "json")
        assert code == 0, err
        assert [rec["mode"] for rec in json.loads(out)["trace"]] == [2, 1]


class TestRepeatedLivenessSymbols:
    """Two modes on one symbol: a step on it admits every live mode that
    carries it, and the input alphabet is the distinct symbols."""

    @staticmethod
    def write(tmp_path, body, symbols):
        body["switching"]["symbols"] = symbols
        path = tmp_path / "m.json"
        path.write_text(json.dumps(body))
        return str(path)

    def test_the_one_step_abstraction_reads_the_alphabet(self, tmp_path):
        path = self.write(tmp_path, bundled("production_line"), ["l1", "l1"])
        code, out, err = run_main("abstract", path)
        assert code == 0, err
        fa = json.loads(out)
        assert fa["alphabet"] == ["l1", "1"]
        assert fa["delta"]["q1.x1"]["l1"] == ["q2.x1"] and fa["delta"]["q2.x1"]["l1"] == ["q1.x1"]
        code, out, err = run_main("abstract", path, "--style", "fused")
        assert (code, out) == (2, "")
        assert err == (
            "error: fused abstraction applies to the translation of a max-plus automaton, "
            "but mode 1 has L = 2, M = 1 and input width 0, not 1, 1 and 0\n"
        )

    def test_the_fused_abstraction_still_wants_one_symbol_per_mode(self, tmp_path):
        path = self.write(tmp_path, mpa_as_smpl(), ["a", "a"])
        assert run_main("abstract", path)[0] == 0
        code, out, err = run_main("abstract", path, "--style", "fused")
        assert (code, out) == (2, "")
        assert err.endswith("but its switching is not symbol_liveness with one distinct symbol per mode\n"), err

    def test_behaviour_checks_each_word_once(self, tmp_path, monkeypatch):
        path = self.write(tmp_path, bundled("production_line"), ["l1", "l1"])
        handed = []
        inclusion = equivalence.behavioural_inclusion_upto

        def recording(sys1, sys2, sequences):
            handed.extend(sequences)
            return inclusion(sys1, sys2, handed)

        monkeypatch.setattr(equivalence, "behavioural_inclusion_upto", recording)
        code, out, err = run_main("check", path, path, "--relation", "behaviour", "--bound", "6", "--format", "json")
        assert code == 0, err
        assert json.loads(out)["regime"] == "exhaustive"
        assert [len(seq) for seq in handed] == [1, 2, 3, 4, 5, 6]


def as_fa():
    code, out, _ = run_main("abstract", "gaubert_mpa")
    assert code == 0
    return json.loads(out)


def as_maha(name):
    code, out, _ = run_main("translate", name, "--to", "maha")
    assert code == 0
    return json.loads(out)


SMPL_FIELDS = "kind, dims, x0, modes, switching, controller, meta"


class TestUnknownFields:
    """A key that no builder reads exits 2, naming its path and the keys
    its container takes; meta stays free-form.  A fault that names its
    path prints once, with no kind prefix, wherever in the document it
    lies; only a model constructor's own faults get the kind prefix."""

    @pytest.mark.parametrize(
        "build,path,says",
        [
            (lambda: bundled("gaubert_mpa"), ("extra",),
             "extra is not a field; the mpa document takes kind, states, alphabet, alpha, mu, beta, meta"),
            (as_fa, ("extra",),
             "extra is not a field; the fa document takes kind, states, alphabet, delta, initial, final, meta"),
            (lambda: bundled("production_line"), ("extra",),
             f"extra is not a field; the smpl document takes {SMPL_FIELDS}"),
            (lambda: as_maha("production_line"), ("extra",),
             "extra is not a field; the maha document takes kind, loop, system, meta"),
            (lambda: as_maha("feedback_demo"), ("system", "contoller"),
             f"system.contoller is not a field; system takes {SMPL_FIELDS}"),
            (lambda: bundled("production_line"), ("dims", "n_q"),
             "dims.n_q is not a field; dims takes n, n_u, n_v, n_y, n_r, n_p"),
            (lambda: bundled("production_line"), ("modes", 0, "E"),
             "modes[0].E is not a field; modes[0] takes A, B, C, D"),
            (lambda: bundled("production_line"), ("switching", "extra"),
             "switching.extra is not a field; switching takes type, kind, symbols"),
            (lambda: bundled("feedback_demo"), ("controller", "extra"),
             "controller.extra is not a field; controller takes type, gain"),
            (lambda: bundled("gaubert_mpa"), ("mu", "c"),
             "mu.c is not a field; mu takes a, b"),
            (lambda: bundled("gaubert_mpa"), ("alpha", 0),
             "alpha: unknown weight sentinel 'garbage'"),
            (as_fa, ("initial",),
             "fa 'initial' must be a JSON list"),
        ],
    )
    def test_an_unknown_key_exits_two_naming_its_path(self, tmp_path, build, path, says):
        body = build()
        node = body
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = "garbage"
        model = tmp_path / "m.json"
        model.write_text(json.dumps(body))
        code, out, err = run_main("translate", str(model), "--to", "maha")
        assert (code, out) == (2, "")
        assert err == f"error: {says}\n"

    def test_a_misspelled_controller_is_not_an_open_loop(self, tmp_path):
        body = bundled("feedback_demo")
        body["contoller"] = body.pop("controller")
        model, inputs = tmp_path / "m.json", tmp_path / "u.json"
        model.write_text(json.dumps(body))
        inputs.write_text(json.dumps([{"w": "m1", "u": [5]}]))
        code, out, err = run_main("simulate", str(model), "--inputs", str(inputs))
        assert (code, out) == (2, "")
        assert err == f"error: contoller is not a field; the smpl document takes {SMPL_FIELDS}\n"

    @pytest.mark.parametrize("kind", ["fa", "maha", "", None, 1, ["smpl"]])
    def test_a_maha_system_of_another_kind_exits_two(self, tmp_path, kind):
        body = as_maha("production_line")
        body["system"]["kind"] = kind
        model = tmp_path / "m.json"
        model.write_text(json.dumps(body))
        code, out, err = run_main("simulate", str(model), "--word", "l1")
        assert (code, out) == (2, "")
        assert err == f"error: system.kind must be 'smpl', got {kind!r}\n"

    def test_meta_is_free_form_and_a_system_may_carry_its_kind(self, tmp_path):
        body = as_maha("production_line")
        body["meta"]["anything"] = {"at": ["all"]}
        body["system"]["kind"] = "smpl"
        model = tmp_path / "m.json"
        model.write_text(json.dumps(body))
        code, out, err = run_main("simulate", str(model), "--word", "l1")
        assert code == 0, err


class TestBehaviourAlphabets:
    @pytest.mark.parametrize("models", [("production_line", "gaubert_mpa"), ("gaubert_mpa", "production_line")])
    def test_different_symbol_sets_exit_two_in_either_order(self, models):
        code, out, err = run_main("check", *models, "--relation", "behaviour")
        assert (code, out) == (2, "")
        assert err.startswith("error: alphabet mismatch"), err

    def test_the_same_symbols_in_another_order_are_compared(self, tmp_path):
        body = bundled("production_line")
        body["switching"]["symbols"] = ["l2", "l1"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(body))
        code, out, err = run_main("check", "production_line", str(path), "--relation", "behaviour", "--format", "json")
        assert code in (0, 1), err
        assert json.loads(out)["regime"] == "exhaustive"


# One leaf (or one list) of a bundled document, replaced by a hostile value.
HOSTILE = (None, True, False, -0.0, HUGE, "nan", "-inf", [], {}, [[0], [0, 1]], [0, [1]], OVERFLOW, NAN, INF)


def _nodes(value, path=()):
    """Paths to every node below the root."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _replaced(body, path, value):
    body = json.loads(json.dumps(body))
    node = body
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return body


DOCUMENTS = {
    "production_line": (bundled("production_line"), "l1"),
    "feedback_demo": (bundled("feedback_demo"), "m1"),
    "gaubert_mpa": (bundled("gaubert_mpa"), "a"),
    "production_line-as-maha": (json.loads(serialize_body(maha_body(bundled("production_line")))), "l1"),
}


@st.composite
def hostile_documents(draw):
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    body, symbol = DOCUMENTS[name]
    path = draw(st.sampled_from(list(_nodes(body))))
    return _replaced(body, path, draw(st.sampled_from(HOSTILE))), symbol


@settings(max_examples=200, deadline=None)
@given(hostile_documents())
def test_one_hostile_leaf_never_raises(document):
    body, symbol = document
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "m.json")
        Path(path).write_text(json.dumps(body))
        for argv in (
            ("simulate", path, "--word", symbol, "--format", "json"),
            ("translate", path, "--to", "maha"),
            ("abstract", path),
            ("check", path, path, "--relation", "behaviour", "--bound", "2", "--format", "json"),
        ):
            code, out, err = run_main(*argv)
            assert code in (0, 1, 2), (argv, code)
            if code == 1:
                assert json.loads(out)["verdict"] is False, argv
            if code == 2:
                assert out == "" and err.startswith("error: "), (argv, err)


# --inputs files: lists of step objects over the five step keys and one
# the CLI does not know, each value hostile, a symbol or a vector that may
# have the wrong width.
SIMULATED = {
    "production_line": bundled("production_line"),
    "feedback_demo": bundled("feedback_demo"),
    "gaubert_mpa": bundled("gaubert_mpa"),
    "feedback_demo-open": open_loop_feedback(),
}
SYMBOLS = ("l1", "l2", "m1", "m2", "a", "b")
ENTRIES = (0, 2, -1.5, "-inf", "+inf", "nan", None, True, OVERFLOW, NAN, INF, [1])

step_values = st.one_of(
    st.sampled_from(HOSTILE),
    st.sampled_from(SYMBOLS),
    st.lists(st.sampled_from(ENTRIES), max_size=3),
)
step_objects = st.dictionaries(st.sampled_from(("w", "u", "v", "r", "p", "extra")), step_values, max_size=6)


@settings(max_examples=150, deadline=None)
@given(st.lists(step_objects, max_size=4))
def test_hostile_inputs_files_never_raise(steps):
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs.json"
        inputs.write_text(json.dumps(steps))
        for name, body in SIMULATED.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(body))
            code, out, err = run_main("simulate", str(path), "--inputs", str(inputs), "--format", "json")
            assert code in (0, 2), (name, code)
            if code == 0:
                assert err == "" and "trace" in json.loads(out), name
            else:
                assert out == "" and err.startswith("error: "), (name, err)


class TestEmptyWordParts:
    @pytest.mark.parametrize(
        "argv, word, position",
        [
            (("eval", "gaubert_mpa"), "a,,b", 2),
            (("eval", "gaubert_mpa"), ",", 1),
            (("eval", "gaubert_mpa"), "a,b,", 3),
            (("simulate", "production_line"), "l1,,l2", 2),
            (("simulate", "production_line"), ",l1", 1),
        ],
    )
    def test_an_empty_part_of_a_comma_separated_word_exits_2(self, argv, word, position):
        code, out, err = run_main(*argv, "--word", word)
        assert (code, out) == (2, "")
        assert err == f"error: --word {word!r} has an empty symbol at position {position}\n"
