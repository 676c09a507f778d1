"""One support rule for every finite abstraction, and one JSON reader.

Every finite abstraction keeps an edge or a label exactly where a weight
is finite: the hybrid abstractions read them off the one-step transition
graphs (expressions.transition_graph_f and transition_graph_h) and the
finite entries of the start state, and the weight-free abstraction off
row_support.  The abstractions are held to the entry-by-entry scans they
replaced (tests/oracles.py): equal on systems without +inf, and equal to
the scan of the same system with its +inf weights made EPS otherwise,
which is the scan's result minus exactly the +inf entries' edges and
labels.

Model documents and --inputs files are read by serialization.read_json,
which refuses a key repeated within one object and nesting deeper than
MAX_DEPTH: through cli.main each exits 2 with a message and no output.
serialize_body keeps the same limit, so that what translate writes reads
back.
"""

import contextlib
import dataclasses
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from maxplushybrid import cli, fixtures
from maxplushybrid.expressions import MatrixForm, transition_graph_f, transition_graph_h, u_label, x_label, y_label
from maxplushybrid.hybrid import HybridAutomaton, finite_abstraction, from_smpl_open, mpa_chain_abstraction
from maxplushybrid.mpa import to_finite_abstraction
from maxplushybrid.serialization import (
    MAX_DEPTH,
    ModelFormatError,
    UnreadableJson,
    _canonical_value,
    _nests_too_deep,
    read_json,
    serialize_body,
)
from maxplushybrid.smpl import MatrixMode, SmplDims, SmplSystem, externally_driven_rule, from_mpa, symbol_liveness_rule
from maxplushybrid.tropical import EPS, TOP, TropicalMatrix

SYMBOLS = ("a", "b", "c")

finite = st.integers(-3, 6).map(float)
weights = st.one_of(st.just(EPS), finite, finite)
weights_with_top = st.one_of(st.just(EPS), st.just(TOP), finite, finite)


def run_main(*argv, stdin_text=None):
    """cli.main in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        if stdin_text is not None:
            stack.enter_context(pytest.MonkeyPatch.context()).setattr("sys.stdin", io.StringIO(stdin_text))
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@st.composite
def random_mpas(draw):
    """fixtures.random_mpa of 1-12 states over 1-3 symbols."""
    seed = draw(st.integers(0, 2**32 - 1))
    n, k = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    return fixtures.random_mpa(random.Random(seed), n, SYMBOLS[:k])


def matrices(draw, w, rows, cols, count):
    return tuple(
        TropicalMatrix(rows, cols, tuple(draw(st.lists(w, min_size=rows * cols, max_size=rows * cols))))
        for _ in range(count)
    )


@st.composite
def open_loops(draw, w=weights):
    """Open-loop systems of 1-3 modes and 1-3 states whose modes take u,
    r or p inputs through B and D, with rows of one or two branches, under
    symbol liveness or externally driven switching."""
    n, n_modes = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dims = SmplDims(n=n, n_u=draw(st.integers(1, 2)), n_r=draw(st.integers(0, 1)), n_p=draw(st.integers(0, 1)))
    width = dims.input_width
    modes = {}
    for q in range(1, n_modes + 1):
        branches, out_branches = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        modes[q] = MatrixMode(
            MatrixForm(
                matrices(draw, w, n, n, branches),
                matrices(draw, w, n, width, branches),
                matrices(draw, w, 1, n, out_branches),
                matrices(draw, w, 1, width, out_branches),
            )
        )
    # distinct symbols: an abstraction's alphabet takes each symbol once
    symbols = tuple(draw(st.permutations(SYMBOLS)))[:n_modes]
    rule = symbol_liveness_rule(modes, symbols, width) if draw(st.booleans()) else externally_driven_rule(symbols)
    x0 = tuple(draw(st.lists(w, min_size=n, max_size=n)))
    return HybridAutomaton(SmplSystem(n_modes, modes, rule, x0, dims))


@st.composite
def translations_with_top(draw):
    """The translation of a random MPA with +inf planted in some entries of
    its modes' A and C and of x0, so it keeps the fused abstraction's shape."""
    s = from_mpa(draw(random_mpas()))

    def plant(m):
        entries = draw(st.lists(st.booleans(), min_size=len(m.entries), max_size=len(m.entries)))
        return TropicalMatrix(m.rows, m.cols, tuple(TOP if top else w for w, top in zip(m.entries, entries)))

    modes = {
        q: MatrixMode(dataclasses.replace(mode.form, A=(plant(mode.form.A[0]),), C=(plant(mode.form.C[0]),)))
        for q, mode in s.modes.items()
    }
    x0 = plant(TropicalMatrix.row_vector(s.x0)).entries
    return HybridAutomaton(dataclasses.replace(s, modes=modes, x0=x0))


def without_top(h: HybridAutomaton) -> HybridAutomaton:
    return HybridAutomaton(oracles.top_as_eps(h.system))


def assert_within(fa, reference):
    """fa keeps a subset of the reference's edges and labels."""
    for key, targets in fa.delta.items():
        assert targets <= reference.delta[key]
    assert fa.initial <= reference.initial and fa.final <= reference.final


class TestAbstractionsAgainstTheScans:
    @settings(max_examples=150, deadline=None)
    @given(random_mpas())
    def test_every_abstraction_of_an_mpa(self, a):
        h = from_smpl_open(from_mpa(a))
        assert to_finite_abstraction(a) == oracles.weight_free_by_scan(a)
        assert mpa_chain_abstraction(h) == oracles.fused_abstraction_by_scan(h)
        assert finite_abstraction(h) == oracles.one_step_abstraction_by_scan(h)

    @settings(max_examples=150, deadline=None)
    @given(open_loops())
    def test_one_step_abstraction_of_systems_with_inputs(self, h):
        assert finite_abstraction(h) == oracles.one_step_abstraction_by_scan(h)

    @settings(max_examples=150, deadline=None)
    @given(translations_with_top())
    def test_top_weights_carry_no_edge_or_label_in_the_fused_abstraction(self, h):
        fa, reference = mpa_chain_abstraction(h), oracles.fused_abstraction_by_scan(h)
        assert fa == oracles.fused_abstraction_by_scan(without_top(h))
        assert_within(fa, reference)
        assert finite_abstraction(h) == oracles.one_step_abstraction_by_scan(without_top(h))

    @settings(max_examples=150, deadline=None)
    @given(open_loops(weights_with_top))
    def test_top_weights_carry_no_edge_or_label_in_the_one_step_abstraction(self, h):
        fa, reference = finite_abstraction(h), oracles.one_step_abstraction_by_scan(h)
        assert fa == oracles.one_step_abstraction_by_scan(without_top(h))
        assert_within(fa, reference)

    def test_a_top_start_entry_is_no_initial_label(self):
        # the scans took a +inf start entry as an initial label
        s = from_mpa(fixtures.gaubert_mpa())
        h = HybridAutomaton(dataclasses.replace(s, x0=(TOP,) + s.x0[1:]))
        assert oracles.fused_abstraction_by_scan(h).initial == {"q1.x1", "q2.x1"}
        assert mpa_chain_abstraction(h).initial == finite_abstraction(h).initial == frozenset()

    @settings(max_examples=150, deadline=None)
    @given(open_loops(weights_with_top))
    def test_graphs_against_the_entry_by_entry_loop(self, h):
        for mode in h.system.modes.values():
            f = mode.form
            assert transition_graph_f(f) == (
                oracles.finite_edges_by_entry(f.A, x_label, x_label)
                | oracles.finite_edges_by_entry(f.B, u_label, x_label)
            )
            assert transition_graph_h(f) == (
                oracles.finite_edges_by_entry(f.C, x_label, y_label)
                | oracles.finite_edges_by_entry(f.D, u_label, y_label)
            )


# A +inf weight leaves no finite entry behind, so the liveness rule halts
# the run; the abstractions must not step or start where the run cannot.
TOP_WEIGHT = {
    "kind": "smpl",
    "dims": {"n": 1},
    "x0": [0],
    "modes": [{"A": [[["+inf"]]], "C": [[[0]]]}],
    "switching": {"type": "symbol_liveness", "symbols": ["a"]},
}
TOP_START = {
    "kind": "smpl",
    "dims": {"n": 2},
    "x0": ["+inf", "-inf"],
    "modes": [{"A": [[[0, "-inf"], ["-inf", 0]]], "C": [[[0, 0]]]}],
    "switching": {"type": "symbol_liveness", "symbols": ["a"]},
}


class TestTopWeightsThroughTheCli:
    def write(self, tmp_path, body):
        path = tmp_path / "top.json"
        path.write_text(json.dumps(body))
        return str(path)

    def abstraction(self, path, style):
        code, out, err = run_main("abstract", path, "--style", style)
        assert code == 0, err
        return json.loads(out)

    def test_a_top_weight_is_no_fused_edge(self, tmp_path):
        path = self.write(tmp_path, TOP_WEIGHT)
        code, out, _ = run_main("simulate", path, "--word", "a", "--format", "json")
        assert code == 0 and json.loads(out)["halted_at"] == 1
        for style in ("fused", "standard"):
            fa = self.abstraction(path, style)
            assert fa["delta"] == {}, style
            assert fa["initial"] == fa["final"] == ["q1.x1"]

    def test_a_top_start_entry_is_no_initial_state(self, tmp_path):
        path = self.write(tmp_path, TOP_START)
        code, out, _ = run_main("simulate", path, "--word", "a", "--format", "json")
        assert code == 0 and json.loads(out)["halted_at"] == 1
        for style in ("fused", "standard"):
            assert self.abstraction(path, style)["initial"] == [], style


def nested(depth, leaf=1):
    text = json.dumps(leaf)
    return "[" * depth + text + "]" * depth


def with_repeat(name, key, repeated):
    """A bundled document's text with key written a second time, first,
    inside the object that holds it."""
    text = fixtures.fixture_text(name)
    needle = f'"{key}": '
    assert needle in text
    return text.replace(needle, f"{needle}{json.dumps(repeated)},\n{needle}", 1)


def deep_meta(name, depth):
    """A bundled document's text with a list nested depth deep in meta."""
    return fixtures.fixture_text(name).replace('"meta": {', f'"meta": {{"deep": {nested(depth)},', 1)


class TestTheJsonReader:
    @pytest.mark.parametrize(
        "argv,document,inputs,where",
        [
            (("eval", "{doc}", "--word", "ab"), with_repeat("gaubert_mpa", "alpha", ["-inf", "-inf", 5]), None, "'alpha'"),
            (("simulate", "{doc}", "--word", "l1"), with_repeat("production_line", "n", 5), None, "'n'"),
            (("eval", "{doc}", "--word", "ab"), with_repeat("gaubert_mpa", "a", [[0]]), None, "'a'"),
            (
                ("simulate", "production_line", "--inputs", "{inputs}"),
                None,
                '[{"w": "l1"}, {"w": "l1", "w": "l2"}]',
                "'w'",
            ),
            (("eval", "{doc}", "--word", "ab"), deep_meta("gaubert_mpa", 5000), None, "nest deeper"),
            (("translate", "{doc}", "--to", "maha"), deep_meta("production_line", 900), None, "nest deeper"),
            (("simulate", "production_line", "--inputs", "{inputs}"), None, nested(5000), "nest deeper"),
        ],
        ids=[
            "repeated-top-level-key", "repeated-key-in-dims", "repeated-key-in-mu", "repeated-key-in-a-step",
            "list-5000-deep-under-meta", "meta-900-deep-on-translate", "inputs-5000-deep",
        ],
    )
    def test_refusals_exit_two(self, tmp_path, argv, document, inputs, where):
        files = {"{doc}": tmp_path / "doc.json", "{inputs}": tmp_path / "inputs.json"}
        for key, text in (("{doc}", document), ("{inputs}", inputs)):
            if text is not None:
                files[key].write_text(text)
        argv = [str(files[arg]) if arg in files else arg for arg in argv]
        code, out, err = run_main(*argv)
        assert code == 2, err
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert where in err
        # the message names the file it read
        assert ("doc.json" if document is not None else "inputs.json") in err

    def test_a_document_on_stdin(self):
        code, out, err = run_main("eval", "-", "--word", "ab", stdin_text=with_repeat("gaubert_mpa", "alpha", [0, 0, 0]))
        assert (code, out) == (2, "")
        assert err == "error: model on stdin: repeated key 'alpha': an object takes each key once\n"

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_the_bundled_documents_read_back(self, name):
        text = fixtures.fixture_text(name)
        assert read_json(text) == json.loads(text)

    def test_depth_limit_is_exact(self):
        assert read_json(nested(MAX_DEPTH)) == json.loads(nested(MAX_DEPTH))
        with pytest.raises(UnreadableJson, match="nest deeper"):
            read_json(nested(MAX_DEPTH + 1))

    def test_the_writer_keeps_the_depth_limit(self):
        body = {"deep": json.loads(nested(MAX_DEPTH - 1))}
        assert read_json(serialize_body(body)) == body
        with pytest.raises(ModelFormatError, match=f"^the document would nest deeper than {MAX_DEPTH} levels$"):
            serialize_body({"deep": json.loads(nested(MAX_DEPTH))})

    @pytest.mark.parametrize("depth", [MAX_DEPTH - 3, MAX_DEPTH - 2])
    def test_translate_writes_only_what_reads_back(self, tmp_path, depth):
        # the maha body, its system and the system's meta hold the list
        document = tmp_path / "doc.json"
        document.write_text(deep_meta("production_line", depth))
        assert run_main("simulate", str(document), "--word", "l1")[0] == 0
        code, out, err = run_main("translate", str(document), "--to", "maha")
        if 3 + depth <= MAX_DEPTH:
            assert code == 0, err
            translated = tmp_path / "maha.json"
            translated.write_text(out)
            code, _, err = run_main("simulate", str(translated), "--word", "l1")
            assert code == 0, err
        else:
            assert (code, out) == (2, "")
            assert err == f"error: the document would nest deeper than {MAX_DEPTH} levels\n"

    def test_brackets_inside_strings_do_not_nest(self):
        text = json.dumps(["[" * (2 * MAX_DEPTH), {"k\\\"[": '\\"' + "{" * MAX_DEPTH}])
        assert read_json(text) == json.loads(text)

    @settings(max_examples=300, deadline=None)
    @given(
        st.recursive(
            st.none() | st.integers() | st.text(alphabet='[]{}"\\ab\u00e9\n', max_size=6),
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(alphabet='[]{}"\\a', max_size=3), inner, max_size=3),
            max_leaves=40,
        ),
        st.integers(0, 8),
        st.booleans(),
    )
    def test_nesting_against_recursion(self, value, limit, indent):
        text = json.dumps(value, indent=1 if indent else None, ensure_ascii=not indent)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("maxplushybrid.serialization.MAX_DEPTH", limit)
            assert _nests_too_deep(text) == (oracles.nesting_by_recursion(value) > limit)

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            st.none() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
            max_leaves=40,
        ),
        st.integers(0, 8),
    )
    def test_writer_depth_against_recursion(self, value, limit):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("maxplushybrid.serialization.MAX_DEPTH", limit)
            if oracles.nesting_by_recursion(value) > limit:
                with pytest.raises(ModelFormatError, match="nest deeper"):
                    _canonical_value(value)
            else:
                assert _canonical_value(value) == oracles.canonical_value_by_recursion(value)
