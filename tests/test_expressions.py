import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from maxplushybrid.expressions import (
    ConjunctiveForm,
    Const,
    InputVar,
    MatrixForm,
    Max,
    Min,
    NotMaxMinPlusError,
    Plus,
    Scale,
    Var,
    eval_expr,
    eval_points,
    to_conjunctive,
    to_matrix_form,
    transition_graph_f,
    transition_graph_h,
)
from maxplushybrid.fixtures import (
    production_line_output_expr,
    production_line_state_exprs,
)
from maxplushybrid.tropical import EPS, TOP, TropicalMatrix, oplus

finite = st.integers(min_value=-8, max_value=8).map(float)
extended = st.one_of(st.just(EPS), st.just(TOP), finite)


class TestEval:
    def test_max_of_var_and_shifted_var(self):
        e = Max(Var(0), Plus(Var(1), Const(3)))
        assert eval_expr(e, (5.0, 1.0)) == 5.0

    def test_third_station_update_at_the_initial_state(self):
        e = production_line_state_exprs((1.0, 2.0, 3.0))[1][2]
        assert eval_expr(e, (0.0, 0.0, EPS)) == 4.0

    def test_scale(self):
        assert eval_expr(Scale(2.0, Var(0)), (3.0,)) == 6.0
        assert eval_expr(Scale(-1.0, Var(0)), (EPS,)) == TOP
        assert eval_expr(Scale(0.0, Var(0)), (TOP,)) == 0.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            eval_expr(Var(2), (0.0,))
        with pytest.raises(IndexError):
            eval_expr(InputVar(0), (0.0,), ())

    def test_plus_uses_the_preference_rule(self):
        assert eval_expr(Plus(Var(0), Var(1)), (EPS, TOP)) == EPS


# Weights that tell apart the tie-breaking and preference rules: both
# infinities, both zeros and small finite values.
weights = st.one_of(st.sampled_from((EPS, TOP, 0.0, -0.0)), finite)
factors = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, -2.5)), finite)


def any_trees(n_state=3, n_input=3, index_range=None, non_nodes=False):
    """Trees of all seven node kinds.  Indices fall in range for n_state
    and n_input, or anywhere in index_range when that is given."""
    leaves = [weights.map(Const)]
    for width, node in ((n_state, Var), (n_input, InputVar)):
        if index_range is not None:
            leaves.append(st.integers(*index_range).map(node))
        elif width:
            leaves.append(st.integers(0, width - 1).map(node))
    if non_nodes:
        leaves.append(st.sampled_from((None, "x0", 1.0)))
    return st.recursive(
        st.one_of(leaves),
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda t: Max(*t)),
            st.tuples(sub, sub).map(lambda t: Min(*t)),
            st.tuples(sub, sub).map(lambda t: Plus(*t)),
            st.tuples(factors, sub).map(lambda t: Scale(*t)),
        ),
        max_leaves=10,
    )


def outcome(f, *args):
    """The value with its type and the sign of a zero, or the error raised."""
    try:
        v = f(*args)
    except (IndexError, TypeError) as exc:
        return type(exc), str(exc)
    return type(v), repr(v)


def at_point(e, x, u=()):
    """eval_points at the one point (x, u)."""
    [value] = eval_points(e, [x], [u])
    return value


class TestBatchedEvaluation:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_values_match_the_recursive_evaluation(self, data):
        n_x, n_u = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        e = data.draw(any_trees(n_x, n_u))
        for _ in range(3):
            x = tuple(data.draw(st.lists(weights, min_size=n_x, max_size=n_x)))
            u = tuple(data.draw(st.lists(weights, min_size=n_u, max_size=n_u)))
            want = outcome(oracles.eval_expr_recursive, e, x, u)
            assert outcome(at_point, e, x, u) == want
            assert outcome(eval_expr, e, x, u) == want
            if not n_u:
                assert outcome(lambda e, x: eval_points(e, [x])[0], e, x) == want

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_many_points_in_one_call_match_point_by_point(self, data):
        n_x, n_u = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        e = data.draw(any_trees(n_x, n_u))
        points = data.draw(
            st.lists(
                st.tuples(
                    st.lists(weights, min_size=n_x, max_size=n_x).map(tuple),
                    st.lists(weights, min_size=n_u, max_size=n_u).map(tuple),
                ),
                min_size=1,
                max_size=8,
            )
        )
        xs, us = [x for x, _ in points], [u for _, u in points]
        got = eval_points(e, xs, us)
        assert [repr(v) for v in got] == [repr(oracles.eval_expr_recursive(e, x, u)) for x, u in points]
        if not n_u:
            assert [repr(v) for v in eval_points(e, xs)] == [repr(v) for v in got]

    def test_zero_points_give_no_values(self):
        assert eval_points(Max(Var(0), Plus(InputVar(1), Const(2.0))), [], []) == []
        assert eval_points(Scale(2.0, Min(Var(0), Const(1.0))), []) == []

    @settings(max_examples=300, deadline=None)
    @given(any_trees(index_range=(-2, 4), non_nodes=True), st.data())
    def test_errors_match_the_recursive_evaluation(self, e, data):
        x = tuple(data.draw(st.lists(weights, max_size=3)))
        u = tuple(data.draw(st.lists(weights, max_size=3)))
        assert outcome(at_point, e, x, u) == outcome(oracles.eval_expr_recursive, e, x, u)

    @settings(max_examples=300, deadline=None)
    @given(any_trees(index_range=(-2, 4), non_nodes=True), st.data())
    def test_a_batch_raises_at_the_first_node_some_point_fails(self, e, data):
        vectors = st.lists(weights, max_size=4).map(tuple)
        xs = data.draw(st.lists(vectors, max_size=4))
        us = [data.draw(vectors) for _ in xs]
        error = oracles.first_batch_error(e, xs, us)
        if error is None:
            got = eval_points(e, xs, us)
            assert [repr(v) for v in got] == [repr(oracles.eval_expr_recursive(e, x, u)) for x, u in zip(xs, us)]
        else:
            with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
                eval_points(e, xs, us)

    def test_examples(self):
        assert at_point(Plus(Var(0), Var(1)), (TOP, EPS)) == EPS
        assert at_point(Plus(Var(0), Var(1)), (EPS, TOP)) == EPS
        assert at_point(Plus(Const(TOP), Var(0)), (EPS,)) == EPS
        assert at_point(Plus(Var(0), Const(EPS)), (TOP,)) == EPS
        assert repr(at_point(Max(Var(0), Var(1)), (-0.0, 0.0))) == "-0.0"
        assert repr(at_point(Min(Var(0), Var(1)), (0.0, -0.0))) == "0.0"
        assert at_point(Scale(0.0, Var(0)), (EPS,)) == 0.0
        assert at_point(Scale(-2.0, Var(0)), (TOP,)) == EPS
        assert at_point(Plus(InputVar(1), Const(2.0)), (), (0.0, 5.0)) == 7.0

    def test_errors_raise_when_called_leftmost_first(self):
        e = Max(Var(5), Min(Var(-1), "not a node"))
        with pytest.raises(IndexError, match="x5"):
            at_point(e, (0.0,))
        with pytest.raises(IndexError, match="x-1"):
            at_point(e, tuple([0.0] * 6))
        # x5 is in range at the first point only; the walk meets it first
        with pytest.raises(IndexError, match="x5"):
            eval_points(e, [tuple([0.0] * 6), (0.0,)])
        with pytest.raises(IndexError, match="u-1"):
            at_point(InputVar(-1), (), (0.0,))
        with pytest.raises(TypeError, match="not an expression node"):
            at_point(Plus(Var(0), "not a node"), (0.0,))


class TestFragment:
    def test_members(self):
        assert to_conjunctive(Max(Var(0), Plus(Var(1), Const(3))), 2).rows == ((0.0, 3.0),)
        assert to_conjunctive(Min(Var(0), InputVar(0)), 1, 1).rows == ((EPS, 0.0), (0.0, EPS))
        assert to_conjunctive(Plus(Const(-2.0), Var(0)), 1).rows == ((-2.0,),)

    @pytest.mark.parametrize(
        "e",
        [
            Scale(2.0, Var(0)),
            Plus(Var(0), Var(1)),
            Const(1.0),
            Max(Var(0), Const(1.0)),
            Plus(Var(0), Const(EPS)),
            Plus(Const(TOP), Var(0)),
            Plus(Const(1.0), Const(2.0)),
        ],
        ids=repr,
    )
    def test_non_members(self, e):
        with pytest.raises(NotMaxMinPlusError):
            to_conjunctive(e, 2)

    def test_the_first_node_outside_the_fragment_is_named(self):
        with pytest.raises(NotMaxMinPlusError, match=r"Scale\(factor=2\.0"):
            to_conjunctive(Min(Var(0), Max(Var(1), Scale(2.0, Var(0)))), 2)

    @settings(max_examples=200)
    @given(st.data())
    def test_a_tree_is_refused_or_rewritten_exactly(self, data):
        e = data.draw(any_trees(2, 1))
        try:
            cf = to_conjunctive(e, 2, 1)
        except NotMaxMinPlusError:
            return
        for _ in range(5):
            x = tuple(data.draw(finite) for _ in range(2))
            u = (data.draw(finite),)
            assert oracles.conjunctive_value(cf, x, u) == eval_expr(e, x, u)

    def test_out_of_range_variables(self):
        with pytest.raises(IndexError, match="x2"):
            to_conjunctive(Max(Var(0), Var(2)), 2)
        with pytest.raises(IndexError, match="u0"):
            to_conjunctive(InputVar(0), 2)
        with pytest.raises(IndexError, match="x-1"):
            to_conjunctive(Var(-1), 2)


class TestDominance:
    @given(
        st.lists(st.one_of(st.just(EPS), finite), min_size=3, max_size=3),
        st.lists(st.one_of(st.just(EPS), finite), min_size=3, max_size=3),
        st.lists(finite, min_size=3, max_size=3),
    )
    def test_dominance_implies_pointwise_order(self, cp, cq, x):
        p, q = tuple(cp), tuple(cq)
        if oracles.dominates(p, q):
            value_p, value_q = (
                oracles.conjunctive_value(ConjunctiveForm((row,), 3), tuple(x)) for row in (p, q)
            )
            assert value_q <= value_p


def mmp_trees(n_state: int, n_input: int = 0):
    leaves = st.integers(min_value=0, max_value=n_state - 1).map(Var)
    if n_input:
        leaves = st.one_of(
            leaves, st.integers(min_value=0, max_value=n_input - 1).map(InputVar)
        )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda t: Max(*t)),
            st.tuples(sub, sub).map(lambda t: Min(*t)),
            st.tuples(sub, st.integers(min_value=-6, max_value=6)).map(
                lambda t: Plus(t[0], Const(float(t[1])))
            ),
        ),
        max_leaves=9,
    )


class TestConjunctive:
    def test_single_projection(self):
        cf = to_conjunctive(Max(Plus(Var(0), Const(1.0)), Var(1)), 2)
        assert cf == ConjunctiveForm(((1.0, 0.0),), 2)

    def test_third_station_update_splits_into_the_two_route_projections(self):
        e = production_line_state_exprs((1.0, 2.0, 3.0))[1][2]
        cf = to_conjunctive(e, 3)
        assert set(cf.rows) == {(4.0, 2.0, 6.0), (1.0, 5.0, 6.0)}

    def test_min_with_dominated_branch_collapses(self):
        e = Min(Max(Var(0), Var(1)), Var(0))
        cf = to_conjunctive(e, 2)
        assert cf.rows == ((0.0, EPS),)
        for x in ((0.0, 5.0), (5.0, 0.0), (EPS, 2.0)):
            assert oracles.conjunctive_value(cf, x) == eval_expr(e, x)

    def test_rejects_non_fragment_input(self):
        with pytest.raises(NotMaxMinPlusError):
            to_conjunctive(Scale(2.0, Var(0)), 1)

    @settings(max_examples=200)
    @given(st.data())
    def test_value_preserved_on_random_points(self, data):
        e = data.draw(mmp_trees(3, 1))
        cf = to_conjunctive(e, 3, 1)
        for _ in range(10):
            x = tuple(data.draw(finite) for _ in range(3))
            u = (data.draw(finite),)
            assert oracles.conjunctive_value(cf, x, u) == eval_expr(e, x, u)

    @settings(max_examples=100)
    @given(st.data())
    def test_result_is_an_antichain(self, data):
        e = data.draw(mmp_trees(2))
        cf = to_conjunctive(e, 2)
        assert cf.rows == tuple(sorted(cf.rows))
        for i, p in enumerate(cf.rows):
            for j, q in enumerate(cf.rows):
                if i != j:
                    assert not oracles.dominates(p, q)

    @given(extended, extended, extended)
    def test_min_max_distribution_identity(self, a, b, c):
        assert oplus(a, oracles.oplus_dual(b, c)) == oracles.oplus_dual(oplus(a, b), oplus(a, c))


class TestMatrixForm:
    def test_production_mode_one_padding_and_rows(self):
        exprs = production_line_state_exprs((1.0, 2.0, 3.0))[1]
        forms = [to_conjunctive(e, 3) for e in exprs]
        out = [to_conjunctive(e, 3) for e in production_line_output_expr()]
        mf = to_matrix_form(forms, out, 3)
        assert len(mf.A) == 2 and len(mf.C) == 1
        assert mf.A[0].row(0) == mf.A[1].row(0) == (1.0, 0.0, 3.0)
        assert mf.A[0].row(1) == mf.A[1].row(1) == (1.0, 2.0, EPS)
        assert {mf.A[0].row(2), mf.A[1].row(2)} == {(4.0, 2.0, 6.0), (1.0, 5.0, 6.0)}
        assert mf.C[0].row(0) == (EPS, EPS, 0.0)

    def test_pure_max_plus_dynamics_stay_single_branch(self):
        forms = [
            to_conjunctive(Max(Var(0), Plus(Var(1), Const(2.0))), 2),
            to_conjunctive(Var(0), 2),
        ]
        out = [to_conjunctive(Var(1), 2)]
        mf = to_matrix_form(forms, out, 2)
        assert len(mf.A) == 1
        assert mf.A[0].entries == (0.0, 2.0, 0.0, EPS)

    @settings(max_examples=60)
    @given(st.data())
    def test_matrix_form_reproduces_componentwise_values(self, data):
        exprs = [data.draw(mmp_trees(3)) for _ in range(3)]
        forms = [to_conjunctive(e, 3) for e in exprs]
        out = [to_conjunctive(Var(0), 3)]
        mf = to_matrix_form(forms, out, 3)
        for _ in range(10):
            x = tuple(data.draw(finite) for _ in range(3))
            got = mf.eval_state(x)
            want = tuple(eval_expr(e, x) for e in exprs)
            assert got == want

    def test_empty_component_list_rejected(self):
        with pytest.raises(ValueError):
            to_matrix_form([], [to_conjunctive(Var(0), 1)], 0)

    def test_forms_built_for_other_widths_rejected(self):
        # the same row width, split elsewhere
        forms = [to_conjunctive(Var(0), 1, 1)] * 2
        with pytest.raises(ValueError, match="disagrees with declared dims"):
            to_matrix_form(forms, forms[:1], 2)
        with pytest.raises(ValueError, match="disagrees with declared dims"):
            to_matrix_form(forms[:1], forms[:1], 1)


# Small weights tie often, and -0.0 tells the first of two tied zero terms
# from the second.
entry = st.one_of(st.sampled_from([EPS, EPS, TOP, -0.0, -0.0, 0.0, 1.0]), finite)


def matrices(data, count, rows, cols, weights=entry):
    """count matrices, some of them repeats of earlier ones."""
    out = []
    for _ in range(count):
        if out and data.draw(st.booleans()):
            out.append(data.draw(st.sampled_from(out)))
        else:
            ent = tuple(data.draw(weights) for _ in range(rows * cols))
            out.append(TropicalMatrix(rows, cols, ent))
    return tuple(out)


def signed(values):
    """Values with the sign of zero kept, so ties must resolve alike."""
    return [repr(v) for v in values]


class TestCompiledMaps:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_maps_match_the_min_of_matrix_products(self, data):
        n = data.draw(st.integers(0, 5))
        n_y = data.draw(st.integers(0, 5))
        width = data.draw(st.sampled_from([0, 1, 2, 3]))
        n_branches = data.draw(st.integers(1, 3))
        n_out_branches = data.draw(st.integers(1, 3))
        mf = MatrixForm(
            A=matrices(data, n_branches, n, n),
            B=matrices(data, n_branches, n, width),
            C=matrices(data, n_out_branches, n_y, n),
            D=matrices(data, n_out_branches, n_y, width),
        )
        for _ in range(4):
            x = tuple(data.draw(entry) for _ in range(n))
            u = tuple(data.draw(entry) for _ in range(width))
            assert signed(mf.eval_state(x, u)) == signed(oracles.min_of_products(mf.A, mf.B, x, u))
            assert signed(mf.eval_output(x, u)) == signed(oracles.min_of_products(mf.C, mf.D, x, u))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_row_kinds_match_the_guarded_loop(self, data):
        # Single-branch rows (a plain max) and rows of several branches (a
        # min of maxes), TOP weights added to EPS states unguarded, against
        # the loop that guards every term and takes every row's min, the
        # sign of zero included.
        n = data.draw(st.integers(0, 4))
        width = data.draw(st.sampled_from([0, 1, 2, 3]))
        n_branches = data.draw(st.integers(1, 3))
        mf = MatrixForm(
            A=matrices(data, n_branches, n, n),
            B=matrices(data, n_branches, n, width),
            C=matrices(data, 1, 1, n),
            D=matrices(data, 1, 1, width),
        )
        state_rows = oracles.compile_branches(mf.A, mf.B)
        output_rows = oracles.compile_branches(mf.C, mf.D)
        for _ in range(4):
            x = tuple(data.draw(entry) for _ in range(n))
            u = tuple(data.draw(entry) for _ in range(width))
            assert signed(mf.eval_state(x, u)) == signed(oracles.eval_branches(state_rows, x, u))
            assert signed(mf.eval_output(x, u)) == signed(oracles.eval_branches(output_rows, x, u))
        misshaped = [((0.0,) * (n + 1), (0.0,) * width)]
        if width:  # u is not read at width 0
            misshaped.append(((0.0,) * n, (0.0,) * (width + 1)))
        for x, u in misshaped:
            with pytest.raises(ValueError) as want:
                oracles.eval_branches(state_rows, x, u)
            with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
                mf.eval_state(x, u)

    def test_ties_keep_the_first_minimum_across_repeated_branches(self):
        # At x = (-0.0, EPS) the branches take 0.0, -0.0 and 0.0 again: the
        # first minimum is +0.0, and stays so once the repeat is dropped.
        rows = ([0.0, EPS], [-0.0, 5.0], [0.0, EPS])
        mf = MatrixForm(
            A=tuple(TropicalMatrix.from_rows([r, r]) for r in rows),
            B=(TropicalMatrix.epsilon(2, 0),) * 3,
            C=tuple(TropicalMatrix.from_rows([r]) for r in rows),
            D=(TropicalMatrix.epsilon(1, 0),) * 3,
        )
        x = (-0.0, EPS)
        assert signed(oracles.min_of_products(mf.A, mf.B, x, ())) == ["0.0", "0.0"]
        assert signed(mf.eval_state(x)) == ["0.0", "0.0"]
        assert signed(mf.eval_output(x)) == ["0.0"]

    def test_padded_rows_compile_to_one_branch(self):
        exprs = production_line_state_exprs((1.0, 2.0, 3.0))[1]
        mf = to_matrix_form([to_conjunctive(e, 3) for e in exprs], [to_conjunctive(Var(2), 3)], 3)
        rows, n_x, n_u = mf._state_map
        assert (n_x, n_u) == (3, 0)
        # the padded rows are single branches (a plain max); the third
        # component is a true min of two branches
        assert [single for single, _ in rows] == [True, True, False]
        assert len(rows[2][1]) == 2

    def test_shape_errors(self):
        mf = MatrixForm(
            A=(oracles.identity_matrix(2),),
            B=(TropicalMatrix.epsilon(2, 1),),
            C=(TropicalMatrix.from_rows([[0.0, EPS]]),),
            D=(TropicalMatrix.epsilon(1, 1),),
        )
        with pytest.raises(ValueError, match="shape mismatch"):
            mf.eval_state((0.0,), (0.0,))
        with pytest.raises(ValueError, match="shape mismatch"):
            mf.eval_state((0.0, 0.0), ())
        with pytest.raises(ValueError, match="shape mismatch"):
            mf.eval_output((0.0, 0.0), (0.0, 1.0))

    def test_u_is_not_read_at_input_width_zero(self):
        mf = MatrixForm(
            A=(TropicalMatrix.from_rows([[1.0, EPS], [0.0, 2.0]]),),
            B=(TropicalMatrix.epsilon(2, 0),),
            C=(TropicalMatrix.from_rows([[EPS, 0.0]]),),
            D=(TropicalMatrix.epsilon(1, 0),),
        )
        for u in ((), (5.0,), (EPS, TOP, 1.0)):
            assert mf.eval_state((1.0, EPS), u) == (2.0, 1.0)
            assert mf.eval_output((1.0, 3.0), u) == (3.0,)

    @pytest.mark.parametrize("b_widths, d_widths", [((1, 2), (1,)), ((1,), (2,)), ((0,), (1,))])
    def test_one_input_width_across_b_and_d(self, b_widths, d_widths):
        with pytest.raises(ValueError, match="one input width"):
            MatrixForm(
                A=tuple(oracles.identity_matrix(2) for _ in b_widths),
                B=tuple(TropicalMatrix.epsilon(2, w) for w in b_widths),
                C=tuple(TropicalMatrix.epsilon(1, 2) for _ in d_widths),
                D=tuple(TropicalMatrix.epsilon(1, w) for w in d_widths),
            )


class TestTransitionGraphs:
    def test_production_modes_partition(self, production):
        g1 = transition_graph_f(production.modes[1].form)
        g2 = transition_graph_f(production.modes[2].form)
        assert g1 - g2 == {("x3", "x1")}
        assert g2 - g1 == {("x3", "x2")}
        assert len(g1 & g2) == 7

    def test_mode_graphs_of_the_translated_word_automaton(self, gaubert):
        from maxplushybrid.smpl import from_mpa

        system = from_mpa(gaubert)
        g_a = transition_graph_f(system.modes[1].form)
        g_b = transition_graph_f(system.modes[2].form)
        assert g_a == {("x1", "x2"), ("x1", "x3"), ("x2", "x3")}
        assert g_b == {
            ("x2", "x1"),
            ("x2", "x2"),
            ("x3", "x1"),
            ("x3", "x2"),
            ("x3", "x3"),
        }

    def test_all_epsilon_dynamics_have_no_edges(self):
        from maxplushybrid.expressions import MatrixForm
        from maxplushybrid.tropical import TropicalMatrix

        mf = MatrixForm(
            A=(TropicalMatrix.epsilon(2, 2),),
            B=(TropicalMatrix.epsilon(2, 0),),
            C=(TropicalMatrix.epsilon(1, 2),),
            D=(TropicalMatrix.epsilon(1, 0),),
        )
        assert transition_graph_f(mf) == frozenset()
        assert transition_graph_h(mf) == frozenset()

    def test_output_graph_of_the_production_line(self, production):
        gh = transition_graph_h(production.modes[1].form)
        assert gh == {("x3", "y1")}

    def test_top_entries_do_not_count_as_edges(self):
        from maxplushybrid.expressions import MatrixForm
        from maxplushybrid.tropical import TOP, TropicalMatrix

        mf = MatrixForm(
            A=(TropicalMatrix.from_rows([[TOP, 0.0], [EPS, EPS]]),),
            B=(TropicalMatrix.epsilon(2, 0),),
            C=(TropicalMatrix.from_rows([[0.0, TOP]]),),
            D=(TropicalMatrix.epsilon(1, 0),),
        )
        assert transition_graph_f(mf) == {("x2", "x1")}
        assert transition_graph_h(mf) == {("x1", "y1")}

    def test_edges_match_large_perturbation_sensitivity(self, production):
        rng = random.Random(5)
        for mode in (1, 2):
            mf = production.modes[mode].form
            graph = transition_graph_f(mf)
            for i in range(3):
                label = f"x{i + 1}"
                edge_targets = {dst for src, dst in graph if src == label}
                probes = [
                    tuple(float(rng.randint(-5, 5)) for _ in range(3))
                    for _ in range(50)
                ]
                # concentrated points activate each branch in turn
                for branch in mf.A:
                    for j in range(3):
                        row = branch.row(j)
                        probes.append(
                            tuple(
                                -c if c != EPS else -1000.0 for c in row
                            )
                        )
                changed = set()
                for x in probes:
                    base = mf.eval_state(x)
                    bumped = tuple(
                        v + 10000.0 if k == i else v for k, v in enumerate(x)
                    )
                    after = mf.eval_state(bumped)
                    for j in range(3):
                        if base[j] != after[j]:
                            changed.add(f"x{j + 1}")
                assert changed == edge_targets
