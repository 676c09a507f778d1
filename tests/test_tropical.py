import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplushybrid.tropical import (
    EPS,
    TOP,
    UNIT,
    TropicalMatrix,
    has_finite_entry,
    oplus,
    oplus_dual,
    otimes,
)
from oracles import (
    apply_by_support,
    apply_dense,
    boolean_support,
    left_apply_by_rows,
    otimes_dense,
    path_of_length_exists,
    step_row_dense,
)

weights = st.one_of(
    st.just(EPS), st.just(TOP), st.integers(min_value=-20, max_value=20).map(float)
)
finite_or_eps = st.one_of(
    st.just(EPS), st.integers(min_value=-9, max_value=9).map(float)
)


# Both zeros and both infinities: the sign of a zero tells tied terms apart.
signed_weights = st.one_of(st.sampled_from((EPS, TOP, 0.0, -0.0)), finite_or_eps)


def mat(rows):
    return TropicalMatrix.from_rows(rows)


MU_A = mat([[EPS, 1, 3], [EPS, EPS, 4], [EPS, EPS, EPS]])
MU_B = mat([[EPS, EPS, EPS], [2, 1, EPS], [7, 5, 1]])


class TestScalarOps:
    def test_oplus_identity_and_absorption(self):
        assert oplus(EPS, 3.0) == 3.0
        assert oplus(2.0, 5.0) == 5.0
        assert oplus(TOP, EPS) == TOP

    def test_otimes(self):
        assert otimes(2.0, 3.0) == 5.0
        assert otimes(0.0, 7.0) == 7.0
        assert otimes(0.0, EPS) == EPS

    def test_max_plus_takes_preference_on_mixed_infinities(self):
        assert otimes(EPS, TOP) == EPS
        assert otimes(TOP, EPS) == EPS

    def test_duals(self):
        assert oplus_dual(TOP, 3.0) == 3.0
        assert oplus_dual(2.0, 5.0) == 2.0

    @given(weights, weights)
    def test_dual_pair_mirrors_primal_under_negation(self, a, b):
        # negation swaps the roles of the two semirings
        assert oplus_dual(a, b) == -oplus(-a, -b)


class TestSemiringLaws:
    @given(weights, weights, weights)
    def test_oplus_associative_commutative_idempotent(self, a, b, c):
        assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c))
        assert oplus(a, b) == oplus(b, a)
        assert oplus(a, a) == a

    @given(weights, weights, weights)
    def test_otimes_associative(self, a, b, c):
        assert otimes(otimes(a, b), c) == otimes(a, otimes(b, c))

    @given(weights, weights, weights)
    def test_distributivity(self, a, b, c):
        assert otimes(a, oplus(b, c)) == oplus(otimes(a, b), otimes(a, c))

    @given(weights)
    def test_identities_and_absorption(self, a):
        assert oplus(a, EPS) == a
        assert otimes(a, EPS) == EPS
        assert otimes(a, UNIT) == a
        assert otimes(UNIT, a) == a


class TestMatrixOps:
    def test_product_of_the_a_matrix_with_itself(self):
        assert MU_A.otimes(MU_A).entries == (
            EPS, EPS, 5.0,
            EPS, EPS, EPS,
            EPS, EPS, EPS,
        )

    def test_epsilon_matrix_absorbs(self):
        out = MU_A.otimes(TropicalMatrix.epsilon(3, 3))
        assert out.is_all_epsilon()

    def test_row_vector_product_with_b_matrix_dies(self):
        alpha = TropicalMatrix.row_vector((0.0, EPS, EPS))
        assert alpha.otimes(MU_B).is_all_epsilon()

    def test_cube_of_the_a_matrix_is_all_epsilon(self):
        assert MU_A.power(2) != MU_A.power(3)
        assert MU_A.power(3).is_all_epsilon()

    def test_power_one_is_identity_operation(self):
        assert MU_A.power(1) == MU_A

    def test_oplus_idempotent(self):
        assert MU_A.oplus(MU_A) == MU_A

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            MU_A.otimes(TropicalMatrix.epsilon(2, 2))
        with pytest.raises(ValueError):
            MU_A.oplus(TropicalMatrix.epsilon(2, 3))

    def test_identity_matrix_is_neutral(self):
        eye = TropicalMatrix.identity(3)
        assert eye.otimes(MU_A) == MU_A
        assert MU_A.otimes(eye) == MU_A

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            TropicalMatrix.from_rows([[math.nan]])

    @given(
        st.lists(
            st.lists(finite_or_eps, min_size=3, max_size=3), min_size=3, max_size=3
        ),
        st.lists(
            st.lists(finite_or_eps, min_size=3, max_size=3), min_size=3, max_size=3
        ),
        st.lists(
            st.lists(finite_or_eps, min_size=3, max_size=3), min_size=3, max_size=3
        ),
    )
    def test_product_associativity(self, ra, rb, rc):
        a, b, c = mat(ra), mat(rb), mat(rc)
        assert a.otimes(b).otimes(c) == a.otimes(b.otimes(c))

    @settings(max_examples=300)
    @given(st.data())
    def test_apply_matches_the_dense_loop(self, data):
        rows = data.draw(st.integers(min_value=0, max_value=6))
        cols = data.draw(st.integers(min_value=0, max_value=6))
        entries = data.draw(st.lists(weights, min_size=rows * cols, max_size=rows * cols))
        m = TropicalMatrix(rows, cols, tuple(entries))
        x = tuple(data.draw(st.lists(weights, min_size=cols, max_size=cols)))
        assert m.apply(x) == apply_dense(m, x)
        assert m.apply(list(x)) == apply_dense(m, x)  # again, over the kept support
        y = tuple(data.draw(st.lists(weights, min_size=rows, max_size=rows)))
        assert m.left_apply(y) == step_row_dense(TropicalMatrix.row_vector(y), m).entries

    @settings(max_examples=300)
    @given(st.data())
    def test_apply_matches_the_guarded_loop_to_the_sign_of_zero(self, data):
        # The kernel adds TOP weights to EPS states unguarded; the oracle
        # guards every term.
        rows = data.draw(st.integers(min_value=0, max_value=5))
        cols = data.draw(st.integers(min_value=0, max_value=5))
        entries = data.draw(st.lists(signed_weights, min_size=rows * cols, max_size=rows * cols))
        m = TropicalMatrix(rows, cols, tuple(entries))
        x = tuple(data.draw(st.lists(signed_weights, min_size=cols, max_size=cols)))
        assert [repr(v) for v in m.apply(x)] == [repr(v) for v in apply_by_support(m, x)]
        y = tuple(data.draw(st.lists(signed_weights, min_size=rows, max_size=rows)))
        assert [repr(v) for v in m.left_apply(y)] == [repr(v) for v in left_apply_by_rows(m, y)]

    @settings(max_examples=300)
    @given(st.data())
    def test_product_and_power_match_the_dense_loop_to_the_sign_of_zero(self, data):
        def signed(x):
            return [(v, math.copysign(1.0, v)) for v in x.entries]

        def draw_matrix(rows, cols):
            entries = data.draw(st.lists(signed_weights, min_size=rows * cols, max_size=rows * cols))
            return TropicalMatrix(rows, cols, tuple(entries))

        n, m, p = (data.draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
        a, b = draw_matrix(n, m), draw_matrix(m, p)
        assert signed(a.otimes(b)) == signed(otimes_dense(a, b))
        k = data.draw(st.integers(min_value=1, max_value=4))
        square = draw_matrix(n, n)
        dense = square
        for _ in range(k - 1):
            dense = otimes_dense(dense, square)
        assert signed(square.power(k)) == signed(dense)

    def test_apply_keeps_the_shape_check(self):
        for m in (MU_A, TropicalMatrix.epsilon(0, 2), TropicalMatrix.epsilon(2, 0)):
            with pytest.raises(ValueError, match="shape mismatch"):
                m.apply((0.0,) * (m.cols + 1))
            with pytest.raises(ValueError, match="shape mismatch"):
                m.left_apply((0.0,) * (m.rows + 1))
        assert TropicalMatrix.epsilon(2, 0).apply(()) == (EPS, EPS)
        assert TropicalMatrix.epsilon(0, 2).apply((1.0, TOP)) == ()
        assert TropicalMatrix.epsilon(0, 2).left_apply(()) == (EPS, EPS)
        assert TropicalMatrix.epsilon(2, 0).left_apply((1.0, TOP)) == ()

    def test_apply_lets_eps_absorb_top(self):
        m = mat([[TOP, 0.0], [EPS, TOP]])
        assert m.apply((EPS, 2.0)) == (2.0, TOP)
        assert m.apply((EPS, EPS)) == (EPS, EPS)
        assert m.apply((1.0, EPS)) == (TOP, EPS)


class TestSupport:
    def test_support_of_the_a_matrix(self):
        assert boolean_support(MU_A).entries == (
            EPS, UNIT, UNIT,
            EPS, EPS, UNIT,
            EPS, EPS, EPS,
        )

    def test_support_of_epsilon_matrix(self):
        assert boolean_support(TropicalMatrix.epsilon(2, 2)).is_all_epsilon()

    def test_support_commutes_with_product_without_top(self):
        values = (EPS, 0.0, 1.0)
        for a_entries in itertools.product(values, repeat=4):
            a = TropicalMatrix(2, 2, a_entries)
            for b_entries in itertools.product(values, repeat=4):
                b = TropicalMatrix(2, 2, b_entries)
                lhs = boolean_support(a.otimes(b))
                rhs = boolean_support(a).otimes(boolean_support(b))
                assert lhs == rhs

    def test_finite_entry_checks(self):
        assert not has_finite_entry((EPS, TOP))
        assert has_finite_entry((EPS, 0.0))
        assert MU_A.power(3).is_all_epsilon()

    @settings(max_examples=150)
    @given(st.data())
    def test_power_support_matches_path_existence(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        entries = data.draw(
            st.lists(finite_or_eps, min_size=n * n, max_size=n * n)
        )
        k = data.draw(st.integers(min_value=1, max_value=5))
        m = TropicalMatrix(n, n, tuple(entries))
        adjacency = [
            [j for j in range(n) if m[i, j] != EPS] for i in range(n)
        ]
        support = boolean_support(m.power(k))
        for i in range(n):
            for j in range(n):
                expected = path_of_length_exists(adjacency, i, j, k)
                assert (support[i, j] == UNIT) == expected
