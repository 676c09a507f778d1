"""End-to-end verification suite over the bundled fixtures.

Each check recomputes an expected value through a route independent of the
code path it validates: word values against explicit path enumeration,
matrix-form steps against raw expression evaluation, abstractions against
exhaustive bounded-language search.  The report content is a deterministic
function of the seed so runs can be compared byte for byte.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import equivalence, fixtures, hybrid, mpa, smpl
from .expressions import eval_expr, transition_graph_f
from .tropical import EPS, TropicalMatrix, otimes


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str


def brute_force_word_value(a: mpa.MaxPlusAutomaton, word) -> float:
    """Maximum accumulated weight over every state path, by enumeration."""
    best = EPS
    n = a.n
    for path in itertools.product(range(n), repeat=len(word) + 1):
        acc = a.alpha[path[0]]
        for step_index, symbol in enumerate(word):
            acc = otimes(acc, a.mu[symbol][path[step_index], path[step_index + 1]])
        acc = otimes(acc, a.beta[path[-1]])
        best = max(best, acc)
    return best


def check_word_values() -> CheckResult:
    a = fixtures.gaubert_mpa()
    expected = {("a", "b"): 12.0, ("a", "a", "b"): 14.0, ("b",): EPS}
    problems = []
    for word, want in expected.items():
        via_recursion = mpa.eval_output(a, word)
        via_paths = brute_force_word_value(a, word)
        if via_recursion != want or via_paths != want:
            problems.append(
                f"{''.join(word)}: recursion {via_recursion}, paths {via_paths}, want {want}"
            )
    return CheckResult(
        "mpa-word-values",
        not problems,
        "; ".join(problems) or "ab=12 aab=14 b=-inf via recursion and path enumeration",
    )


def check_power_collapse() -> CheckResult:
    a = fixtures.gaubert_mpa()
    alpha_row = TropicalMatrix.row_vector(a.alpha)
    dead_after_b = alpha_row.otimes(a.mu["b"]).is_all_epsilon()
    square = a.mu["a"].power(2)
    cube = a.mu["a"].power(3)
    ok = dead_after_b and square != cube and cube.is_all_epsilon()
    return CheckResult(
        "mpa-power-collapse",
        ok,
        "alpha^T b-step dies; a-matrix square differs from its all-epsilon cube",
    )


def check_behavioural_translation() -> CheckResult:
    a = fixtures.gaubert_mpa()
    system = smpl.from_mpa(a)
    failures = []
    count = 0
    for word in equivalence.exhaustive_words(a.alphabet, 6):
        count += 1
        value = mpa.eval_output(a, word)
        accepted = value != EPS
        trace = smpl.simulate(system, smpl.word_inputs(word))
        final_y = trace.records[-1].y[0] if trace.completed and trace.records else EPS
        if accepted and not trace.completed:
            failures.append(f"{''.join(word)}: accepted but the run halts")
        if trace.completed and final_y != value:
            failures.append(f"{''.join(word)}: final output {final_y} disagrees")
        if accepted != (trace.completed and final_y != EPS):
            failures.append(f"{''.join(word)}: acceptance vs accepting run mismatch")
    return CheckResult(
        "mpa-smpl-behaviour",
        not failures,
        "; ".join(failures[:3]) or f"{count} words agree on acceptance, halts and outputs",
    )


def _random_inputs(rng: random.Random, system: smpl.SmplSystem, length: int):
    symbols = system.switching.symbols or (None,)
    seqs = []
    for _ in range(length):
        seqs.append(
            smpl.StepInput(
                u=tuple(float(rng.randint(-3, 6)) for _ in range(system.dims.n_u)),
                w=rng.choice(symbols),
            )
        )
    return tuple(seqs)


def _traces_match(
    system: smpl.SmplSystem, automaton: hybrid.HybridAutomaton, inputs
) -> str | None:
    st = smpl.simulate(system, inputs)
    ht = hybrid.run(automaton, inputs)
    if st.halted_at != ht.halted_at:
        return f"halt points differ: {st.halted_at} vs {ht.halted_at}"
    layout = automaton.meta.get("state_layout")
    for rec_s, rec_h in zip(st.records, ht.records):
        if rec_s.mode != rec_h.mode:
            return f"step {rec_s.k}: mode {rec_s.mode} vs {rec_h.mode}"
        x_h = rec_h.x
        if layout is not None:
            lo, hi = layout["x"]
            x_h = rec_h.x[lo:hi]
        if rec_s.x != x_h:
            return f"step {rec_s.k}: state {rec_s.x} vs {x_h}"
        if rec_s.y != rec_h.y:
            return f"step {rec_s.k}: output {rec_s.y} vs {rec_h.y}"
    return None


def check_open_loop_traces(seed: int) -> CheckResult:
    rng = random.Random(seed)
    problems = []
    cases = {
        "gaubert": smpl.from_mpa(fixtures.gaubert_mpa()),
        "production": fixtures.production_line_smpl(),
    }
    for name, system in sorted(cases.items()):
        automaton = hybrid.from_smpl_open(system)
        for i in range(50):
            inputs = _random_inputs(rng, system, 20)
            mismatch = _traces_match(system, automaton, inputs)
            if mismatch:
                problems.append(f"{name}[{i}]: {mismatch}")
                break
    return CheckResult(
        "smpl-maha-open-traces",
        not problems,
        "; ".join(problems) or "2 fixtures x 50 random runs of length 20 match exactly",
    )


def check_closed_loop_traces(seed: int) -> CheckResult:
    rng = random.Random(seed)
    system = fixtures.feedback_demo_smpl()
    automaton = hybrid.from_smpl_closed(system)
    expected_dim = 1 + system.dims.n + system.dims.n_u + system.dims.n_v
    if automaton.n != expected_dim:
        return CheckResult(
            "smpl-maha-closed-traces",
            False,
            f"augmented dimension {automaton.n} != {expected_dim}",
        )
    problems = []
    for i in range(50):
        inputs = _random_inputs(rng, system, 20)
        mismatch = _traces_match(system, automaton, inputs)
        if mismatch:
            problems.append(f"run[{i}]: {mismatch}")
            break
    return CheckResult(
        "smpl-maha-closed-traces",
        not problems,
        "; ".join(problems)
        or "augmented-state runs match the closed loop on 50 random runs",
    )


def check_abstraction_language(seed: int) -> CheckResult:
    problems = []

    def compare(a: mpa.MaxPlusAutomaton, label: str) -> None:
        weight_free = mpa.to_finite_abstraction(a)
        chain = hybrid.from_smpl_open(smpl.from_mpa(a))
        fused = hybrid.mpa_chain_abstraction(chain)
        equal, witness = equivalence.language_equal_upto(weight_free, fused, 6)
        if not equal:
            problems.append(f"{label}: differs at {witness}")

    compare(fixtures.gaubert_mpa(), "gaubert")
    rng = random.Random(seed)
    for i in range(20):
        compare(fixtures.random_mpa(rng), f"random[{i}]")
    return CheckResult(
        "abstraction-language",
        not problems,
        "; ".join(problems) or "bounded languages equal up to length 6 on 21 automata",
    )


def check_abstraction_bisimulation() -> CheckResult:
    a = fixtures.gaubert_mpa()
    weight_free = mpa.to_finite_abstraction(a)
    fused = hybrid.mpa_chain_abstraction(hybrid.from_smpl_open(smpl.from_mpa(a)))
    witness = equivalence.bisimulation(weight_free, fused)
    ok = witness is not None
    detail = "no witness"
    if witness is not None:
        matching = all(
            (s, f"q{q}.x{s}") in witness.pairs
            for s in a.states
            for q in (1, 2)
        )
        ok = matching
        detail = f"witness with {len(witness.pairs)} pairs covers the index-matched pairs"
    return CheckResult("abstraction-bisimulation", ok, detail)


def check_production_step() -> CheckResult:
    tau = (1.0, 2.0, 3.0)
    system = fixtures.production_line_smpl(tau)
    exprs = fixtures.production_line_state_exprs(tau)[1]
    out_expr = fixtures.production_line_output_expr()[0]
    x0 = system.x0
    expected_x = tuple(eval_expr(e, x0) for e in exprs)
    expected_y = eval_expr(out_expr, expected_x)
    rec = smpl.step(system, None, x0, smpl.StepInput(w="l1"))
    ok = rec.mode == 1 and rec.x == expected_x and rec.y == (expected_y,)
    return CheckResult(
        "production-step",
        ok,
        f"x(1)={tuple(int(v) for v in rec.x)} y(1)={int(rec.y[0])} "
        "against raw expression evaluation",
    )


def check_production_conjunctive(seed: int) -> CheckResult:
    tau = (1.0, 2.0, 3.0)
    system = fixtures.production_line_smpl(tau)
    exprs = fixtures.production_line_state_exprs(tau)
    rng = random.Random(seed)
    failures = 0
    for _ in range(1000):
        x = tuple(
            EPS if rng.random() < 0.15 else float(rng.randint(-8, 12))
            for _ in range(3)
        )
        for mode in (1, 2):
            want = tuple(eval_expr(e, x) for e in exprs[mode])
            got = system.modes[mode].next_state(x, ())
            if want != got:
                failures += 1
    return CheckResult(
        "production-conjunctive",
        failures == 0,
        f"{failures} mismatches on 1000 random states across both modes",
    )


def check_production_partition() -> CheckResult:
    system = fixtures.production_line_smpl()
    graphs = {
        mode: transition_graph_f(system.modes[mode].form).edges
        for mode in (1, 2)
    }
    common = graphs[1] & graphs[2]
    only_1 = graphs[1] - graphs[2]
    only_2 = graphs[2] - graphs[1]
    ok = (
        only_1 == {("x3", "x1")}
        and only_2 == {("x3", "x2")}
        and len(common) == 7
        and ("x3", "x3") in common
    )
    return CheckResult(
        "production-abstraction-partition",
        ok,
        f"mode-1-only {sorted(only_1)}, mode-2-only {sorted(only_2)}, "
        f"{len(common)} shared edges",
    )


def check_production_abstraction_structure() -> CheckResult:
    system = fixtures.production_line_smpl()
    automaton = hybrid.from_smpl_open(system)
    abstraction = hybrid.finite_abstraction(automaton)
    ok = (
        len(abstraction.states) == 6
        and abstraction.initial == frozenset({"q1.x1", "q1.x2", "q2.x1", "q2.x2"})
        and abstraction.final == frozenset({"q1.x3", "q2.x3"})
    )
    return CheckResult(
        "production-abstraction-structure",
        ok,
        "duplicated station nodes per mode with the expected entries and exits",
    )


def run_suite(seed: int = 42) -> list[CheckResult]:
    return [
        check_word_values(),
        check_power_collapse(),
        check_behavioural_translation(),
        check_open_loop_traces(seed),
        check_closed_loop_traces(seed + 1),
        check_abstraction_language(seed + 2),
        check_abstraction_bisimulation(),
        check_production_step(),
        check_production_conjunctive(seed + 3),
        check_production_partition(),
        check_production_abstraction_structure(),
    ]
