"""The closed loop's performance signal z = (mode, x, u, v) has one codec:
smpl.performance_signal builds it and smpl.signal_x reads x back.  Every
reader of x in z is held to it here, on random closed loops, and each
expected state is computed from the switching system's own records and
matrices, not read out of z: a reader that takes the wrong slice of z
fails."""

from hypothesis import given, settings
from hypothesis import strategies as st

from maxplushybrid.hybrid import HybridAutomaton, MahaBehaviour, hybrid_step
from maxplushybrid.smpl import (
    MatrixMode,
    SmplBehaviour,
    SmplDims,
    SmplSystem,
    externally_driven_rule,
    performance_signal,
    signal_x,
    static_feedback,
    symbol_liveness_rule,
    word_inputs,
)
from maxplushybrid.tropical import EPS, TropicalMatrix

weights = st.one_of(st.just(EPS), st.integers(-3, 6).map(float))


@st.composite
def closed_loops(draw):
    """A system of 1 to 3 modes over x of width 1 to 4 and u of width 0 to
    2 under static feedback, its gain and a word of its symbols."""
    n, n_u, n_modes = draw(st.integers(1, 4)), draw(st.integers(0, 2)), draw(st.integers(1, 3))

    def matrix(rows, cols):
        return [[draw(weights) for _ in range(cols)] for _ in range(rows)]

    modes = {
        q: MatrixMode.from_parts(
            matrix(n, n), matrix(1, n), matrix(n, n_u) if n_u else None, matrix(1, n_u) if n_u else None
        )
        for q in range(1, n_modes + 1)
    }
    if draw(st.booleans()):
        # repeated symbols make steps with several candidate modes
        symbols = draw(st.lists(st.sampled_from("ab"), min_size=n_modes, max_size=n_modes))
        rule = symbol_liveness_rule(modes, symbols, n_u)
    else:
        rule = externally_driven_rule([f"m{q}" for q in modes])
    gain = TropicalMatrix.from_rows(matrix(n_u, n)) if n_u else TropicalMatrix.epsilon(0, n)
    x0 = tuple(draw(weights) for _ in range(n))
    system = SmplSystem(n_modes, modes, rule, x0, SmplDims(n=n, n_u=n_u), controller=static_feedback(gain))
    word = draw(st.lists(st.sampled_from(rule.alphabet), min_size=1, max_size=6))
    return system, gain, word_inputs(word)


@settings(max_examples=80, deadline=None)
@given(closed_loops())
def test_every_reader_of_x_agrees_with_the_codec(loop):
    system, gain, inputs = loop
    h = HybridAutomaton(system)
    lo, hi = h.meta["state_layout"]["x"]
    run = SmplBehaviour(system).fold(inputs)
    maha = MahaBehaviour(h).fold(inputs)
    assert maha.halted_at == run.halted_at
    before = (SmplBehaviour(system).init(),) + run.records
    hybrid_before = (MahaBehaviour(h).init(),) + maha.records
    for k, (rec, z_rec, inp) in enumerate(zip(before, hybrid_before, inputs)):
        z = performance_signal(rec.mode, rec.x, rec.u, rec.v)
        assert z_rec.x == z
        assert signal_x(z, len(rec.x)) == h.x_of(z) == z[lo:hi] == rec.x
        u = system.controller.f_u(z, inp)
        assert u == gain.apply(rec.x)
        # every successor from this state, from the mode's own matrices
        successors = hybrid_step(h, z_rec, inp)
        want = run.records[k].successor_modes if k < len(run.records) else ()  # else the run halts
        assert tuple(succ.mode for succ in successors) == want
        for succ in successors:
            x = system.modes[succ.mode].form.eval_state(rec.x, u)
            assert h.x_of(succ.x) == x
            assert succ.x == performance_signal(succ.mode, x, u, ())
    for rec, z_rec in zip(run.records, maha.records):
        assert z_rec == rec._replace(x=performance_signal(rec.mode, rec.x, rec.u, rec.v), u=(), v=())
