"""Acceptance suite: one test per criterion, each printing a verdict line.

Every expected number is either asserted exactly (integer-valued weights)
or recomputed through an independent oracle inside the test; run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import hashlib
import itertools
import random
import subprocess
import sys
import time

import pytest

from maxplushybrid import equivalence, fixtures, hybrid, mpa, reproduce, smpl
from maxplushybrid.expressions import eval_expr, to_conjunctive, transition_graph_f
from maxplushybrid.tropical import (
    EPS,
    TOP,
    TropicalMatrix,
    UNIT,
    oplus,
    otimes,
)
from oracles import (
    boolean_support,
    conjunctive_value,
    language_upto,
    path_of_length_exists,
    random_inputs_per_step,
    random_nfa,
    vec_leq,
    widen_nfa,
    word_value_by_paths,
)


def report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion}] PASS: {detail}")


def test_criterion_1_word_values_by_two_routes(gaubert):
    start = time.perf_counter()
    expected = {("a", "b"): 12.0, ("a", "a", "b"): 14.0, ("b",): EPS}
    for word, want in expected.items():
        assert mpa.eval_output(gaubert, word) == want
        assert word_value_by_paths(gaubert, word) == want
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"ab=12 aab=14 b=-inf via recursion and path oracle in {elapsed:.3f}s")


def test_criterion_2_initial_step_death_and_power_collapse(gaubert):
    alpha_row = TropicalMatrix.row_vector(gaubert.alpha)
    assert alpha_row.otimes(gaubert.mu["b"]).is_all_epsilon()
    square = gaubert.mu["a"].power(2)
    cube = gaubert.mu["a"].power(3)
    assert square != cube
    assert cube.is_all_epsilon()
    assert (cube.rows, cube.cols) == (3, 3)
    report(2, "alpha^T x mu(b) all-epsilon; mu(a)^2 != mu(a)^3 = all-epsilon 3x3")


def test_criterion_3_translation_behaviour_on_all_short_words(gaubert):
    start = time.perf_counter()
    system = smpl.from_mpa(gaubert)
    words = [
        w
        for k in range(1, 7)
        for w in itertools.product(gaubert.alphabet, repeat=k)
    ]
    assert len(words) == 126
    accepted_count = 0
    for w in words:
        accepted = mpa.accepts(gaubert, w)
        trace = smpl.simulate(system, smpl.word_inputs(w))
        if accepted:
            accepted_count += 1
            assert trace.completed, f"accepted word {w} must not halt"
            assert trace.records[-1].y == (mpa.eval_output(gaubert, w),)
        # acceptance coincides with a completed run whose final output is
        # not the zero weight
        accepting_run = trace.completed and trace.records[-1].y[0] != EPS
        assert accepted == accepting_run, w
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(
        3,
        f"126 words, {accepted_count} accepted; acceptance, halts and outputs "
        f"agree in {elapsed:.3f}s",
    )


def test_criterion_4_translated_hybrid_traces_match(gaubert, production, feedback):
    start = time.perf_counter()
    rng = random.Random(42)

    def run_case(system, automaton, x_slice=None):
        symbols = system.switching.symbols
        for _ in range(50):
            inputs = tuple(
                smpl.StepInput(
                    w=rng.choice(symbols),
                    u=tuple(
                        float(rng.randint(-3, 6)) for _ in range(system.dims.n_u)
                    ),
                )
                for _ in range(20)
            )
            st = smpl.simulate(system, inputs)
            ht = hybrid.run(automaton, inputs)
            assert st.halted_at == ht.halted_at
            for rs, rh in zip(st.records, ht.records):
                x_h = rh.x if x_slice is None else rh.x[x_slice[0] : x_slice[1]]
                assert rs.mode == rh.mode
                assert rs.x == x_h
                assert rs.y == rh.y

    run_case(smpl.from_mpa(gaubert), hybrid.from_smpl_open(smpl.from_mpa(gaubert)))
    run_case(production, hybrid.from_smpl_open(production))
    closed = hybrid.from_smpl_closed(feedback)
    run_case(feedback, closed, x_slice=closed.meta["state_layout"]["x"])
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(
        4,
        f"open (2 fixtures) and closed loop: 50 runs x 20 steps each match "
        f"exactly in {elapsed:.3f}s",
    )


def test_criterion_5_abstraction_language_equality_and_bisimulation(gaubert):
    start = time.perf_counter()

    def languages_equal(a):
        at = mpa.to_finite_abstraction(a)
        hoat = hybrid.mpa_chain_abstraction(
            hybrid.from_smpl_open(smpl.from_mpa(a))
        )
        equal, witness = equivalence.language_equal_upto(at, hoat, 6)
        assert equal, f"languages differ at {witness}"
        return at, hoat

    at, hoat = languages_equal(gaubert)
    assert equivalence.bisimulation(at, hoat) is not None
    rng = random.Random(42)
    for _ in range(20):
        languages_equal(fixtures.random_mpa(rng))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(
        5,
        f"bounded languages equal on 21 automata, bisimulation witness found "
        f"in {elapsed:.3f}s",
    )


def test_criterion_6_production_line(production):
    start = time.perf_counter()
    tau = (1.0, 2.0, 3.0)
    exprs = fixtures.production_line_state_exprs(tau)
    out_expr = fixtures.production_line_output_expr()[0]

    # first step in the recycling mode, expected values from the raw trees
    expected_x = tuple(eval_expr(e, production.x0) for e in exprs[1])
    expected_y = eval_expr(out_expr, expected_x)
    assert expected_x == (1.0, 2.0, 4.0) and expected_y == 4.0
    rec = smpl.step(production, smpl.SmplBehaviour(production).init(), smpl.StepInput(w="l1"))
    assert rec.x == expected_x and rec.y == (expected_y,)

    # the two-branch rewrite of the third component agrees everywhere
    third_form = to_conjunctive(exprs[1][2], 3)
    assert third_form.rows == ((1.0, 5.0, 6.0), (4.0, 2.0, 6.0))
    rng = random.Random(42)
    for _ in range(1000):
        x = tuple(
            EPS if rng.random() < 0.2 else float(rng.randint(-9, 15))
            for _ in range(3)
        )
        assert conjunctive_value(third_form, x) == eval_expr(exprs[1][2], x)

    # dependency-edge partition between the two modes
    g1 = transition_graph_f(production.modes[1].form)
    g2 = transition_graph_f(production.modes[2].form)
    assert g1 - g2 == {("x3", "x1")}
    assert g2 - g1 == {("x3", "x2")}
    assert len(g1 & g2) == 7
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    report(
        6,
        f"x(1)=(1,2,4) y(1)=4 from the tree oracle; rewrite exact on 1000 "
        f"states; edge partition 1/1/7 in {elapsed:.3f}s",
    )


def test_criterion_7_property_suites():
    start = time.perf_counter()
    rng = random.Random(42)
    scalars = (EPS, TOP) + tuple(float(v) for v in range(-12, 13))

    # semiring laws on 1000 seeded triples, exact
    for _ in range(1000):
        a, b, c = (rng.choice(scalars) for _ in range(3))
        assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c))
        assert oplus(a, b) == oplus(b, a)
        assert oplus(a, a) == a
        assert otimes(otimes(a, b), c) == otimes(a, otimes(b, c))
        assert otimes(a, oplus(b, c)) == oplus(otimes(a, b), otimes(a, c))
        assert oplus(a, EPS) == a and otimes(a, EPS) == EPS
        assert otimes(a, UNIT) == a and otimes(UNIT, a) == a

    # componentwise order coincides with the join characterisation
    for _ in range(1000):
        x = tuple(rng.choice(scalars) for _ in range(4))
        y = tuple(rng.choice(scalars) for _ in range(4))
        joined = tuple(oplus(p, q) for p, q in zip(x, y))
        assert vec_leq(x, joined)
        assert vec_leq(x, y) == (joined == y)

    # conjunctive rewrites preserve values on 1000 seeded points, exact
    exprs = fixtures.production_line_state_exprs((1.0, 2.0, 3.0))
    forms = {
        (mode, i): to_conjunctive(e, 3)
        for mode, component in exprs.items()
        for i, e in enumerate(component)
    }
    for _ in range(1000):
        x = tuple(
            EPS if rng.random() < 0.2 else float(rng.randint(-9, 15))
            for _ in range(3)
        )
        for (mode, i), form in forms.items():
            assert conjunctive_value(form, x) == eval_expr(exprs[mode][i], x)

    # support of powers vs path existence: every boolean matrix up to 4x4
    for n in range(1, 5):
        max_power = 4 if n <= 3 else 2
        for bits in range(2 ** (n * n)):
            entries = tuple(
                UNIT if (bits >> e) & 1 else EPS for e in range(n * n)
            )
            m = TropicalMatrix(n, n, entries)
            adjacency = [
                [j for j in range(n) if entries[i * n + j] == UNIT]
                for i in range(n)
            ]
            power = m
            for k in range(1, max_power + 1):
                if k > 1:
                    power = power.otimes(m)
                support = boolean_support(power)
                for i in range(n):
                    for j in range(n):
                        assert (support[i, j] == UNIT) == path_of_length_exists(
                            adjacency, i, j, k
                        )

    # simulation witnesses imply bounded language inclusion
    found = 0
    attempts = 0
    while found < 20 and attempts < 200:
        attempts += 1
        fa1 = random_nfa(rng)
        fa2 = widen_nfa(rng, fa1) if attempts % 2 else random_nfa(rng)
        witness = equivalence.greatest_simulation(fa1, fa2)
        if witness is None:
            continue
        found += 1
        for bound in range(1, 7):
            assert language_upto(fa1, bound) <= language_upto(fa2, bound)
    assert found == 20
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(7, f"semiring, order, rewrite, support and inclusion suites in {elapsed:.1f}s")


def test_criterion_8_reproduce_is_byte_deterministic():
    def run_once():
        return subprocess.run(
            [sys.executable, "-m", "maxplushybrid", "reproduce", "--seed", "42"],
            capture_output=True,
            text=True,
        )

    first = run_once()
    second = run_once()
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip()
    report(8, "reproduce --seed 42 emits byte-identical reports on two runs")


# sha256 of the `mph reproduce --seed 42` report as text and with
# `--format json`.  The report must stay byte-identical across changes that
# keep every verdict and number; a change that means to alter it updates
# these pins.
REPRODUCE_SEED_42_SHA256 = {
    (): "48101707488b03a43bc38b9ae729acd8fe685090bc64a15eb316d5433153c8e0",
    ("--format", "json"): "96e834d6842a8179912a68ff85c77104645447b3251cdbc10d56d9ee03f6db28",
}

# The same for `--seed 7`, whose draws differ from seed 42's.
REPRODUCE_SEED_7_SHA256 = {
    (): "ddd9c68aa678c3811bb7a3aafa4b4302aada9e87627136873fcb2be9c9c50c21",
    ("--format", "json"): "7fe45fa7b5caab3286d6c684416c54dae3b3f0186a2e22e75e861bb8b1d0663a",
}


def assert_reproduce_pinned(seed, digests):
    for extra, digest in digests.items():
        result = subprocess.run(
            [sys.executable, "-m", "maxplushybrid", "reproduce", "--seed", str(seed), *extra],
            capture_output=True,
        )
        assert result.returncode == 0
        assert hashlib.sha256(result.stdout).hexdigest() == digest, extra


def test_reproduce_seed_42_report_is_pinned():
    assert_reproduce_pinned(42, REPRODUCE_SEED_42_SHA256)


def test_reproduce_seed_7_report_is_pinned():
    assert_reproduce_pinned(7, REPRODUCE_SEED_7_SHA256)


@pytest.mark.parametrize("seed", [42, 7, 1234])
@pytest.mark.parametrize(
    "system",
    [smpl.from_mpa(fixtures.gaubert_mpa()), fixtures.production_line_smpl(), fixtures.feedback_demo_smpl()],
    ids=["gaubert", "production_line", "feedback_demo"],
)
def test_reproduce_draws_the_same_step_inputs(seed, system):
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    for length in (20, 1, 0, 20):
        got = reproduce._random_inputs(got_rng, system, length)
        want = random_inputs_per_step(want_rng, system, length)
        assert [inp._asdict() for inp in got] == [inp._asdict() for inp in want]
        assert got_rng.getstate() == want_rng.getstate()
