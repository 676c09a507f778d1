"""The four benchmark workloads.

A workload has three parts:

* ``plan(lib, seed, quick, variant)`` draws the inputs from the seed and
  computes the known answer of every operation with ``reference`` (untimed);
* ``build(lib, plan, workdir)`` generates, translates and abstracts the
  models through the library; it is the timed set-up;
* the returned ``Op`` list: ``run`` is the timed library call, ``check``
  compares its result with ``expected`` and returns a fault or None.

The sizes below are fixed per workload and only the weights, words and
faults depend on the seed, so every seed measures the same mix of sizes.
Every timed pass plans and builds its own ``variant`` (see ``generators``):
the same operations at the same cost, on models, words and states that no
other pass uses.  The operation lists of all variants line up one to one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import os
import random
from typing import Any, Callable

import generators as gen
import reference as ref

EPS = float("-inf")


@dataclasses.dataclass
class Op:
    label: str
    run: Callable[[], Any]
    expected: Any
    check: Callable[[Any, Any], str | None]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    plan: Callable
    build: Callable
    # Run variant 0 once more after the timed phase, to compare outputs.
    replay: bool = False


# -- simulate -----------------------------------------------------------------

SIM_SIZES = (3, 4, 6, 8, 11, 16)
SIM_SEQUENCES = 14  # input sequences per model
SIM_STEPS = 32
SIM_SAMPLES = 3  # steps per run re-derived with eval_expr
SHIFT_RANGE = 10**6  # start states are shifted by up to this much


def plan_simulate(lib, seed: int, quick: bool, variant: int) -> dict:
    """Every run starts from its own shifted state (and, in closed loop,
    shifted inputs), so no two runs, in one pass or in two, share a state."""
    rng = random.Random(seed)
    shifts = gen.variant_rng(seed, variant)
    sizes = (3, 5) if quick else SIM_SIZES
    n_seq, steps = (2, 6) if quick else (SIM_SEQUENCES, SIM_STEPS)
    line_symbols = gen.variant_symbols(gen.LINE_SYMBOLS, variant)
    models = []
    for k in sizes:
        models.append(("line", gen.line_taus(rng, k), line_symbols))
    models.append(("feedback", None, ("m1", "m2")))
    runs = []
    for index, (kind, _, symbols) in enumerate(models):
        for _ in range(n_seq):
            word = tuple(rng.choice(symbols) for _ in range(steps))
            u = tuple(float(rng.randint(-3, 6)) for _ in range(steps))
            samples = tuple(sorted(rng.sample(range(1, steps + 1), min(SIM_SAMPLES, steps))))
            modes = tuple(symbols.index(word[j - 1]) + 1 for j in samples)
            runs.append([index, word, u, (steps, None, samples, modes)])
    rng.shuffle(runs)
    for run in runs:
        run.insert(3, float(shifts.randrange(SHIFT_RANGE)))
    return {"models": models, "runs": runs}


def _matrix_exprs(ex, mats, inputs):
    """Max-plus rows of single-branch matrices as expression trees."""
    rows = []
    for j in range(mats.rows):
        terms = [ex.Plus(ex.Var(i), ex.Const(w)) for i, w in enumerate(mats.row(j)) if w != EPS]
        terms += [ex.Plus(ex.InputVar(p), ex.Const(w)) for p, w in enumerate(inputs.row(j)) if w != EPS]
        rows.append(ex.max_of(*terms))
    return tuple(rows)


def build_simulate(lib, plan: dict, workdir: str) -> list[Op]:
    smpl, hybrid, ex = lib.smpl, lib.hybrid, lib.expressions
    built = []
    for kind, tau, symbols in plan["models"]:
        if kind == "line":
            system = gen.line_smpl(lib, tau, symbols=symbols)
            state = gen.line_state_exprs(lib, tau)
            out = gen.line_output_exprs(lib, len(tau))
            ref_model = {"state": state, "out": {1: out, 2: out}, "gain": None}
        else:
            system = lib.fixtures.feedback_demo_smpl()
            forms = {q: system.modes[q].form for q in (1, 2)}
            ref_model = {
                "state": {q: _matrix_exprs(ex, f.A[0], f.B[0]) for q, f in forms.items()},
                "out": {q: _matrix_exprs(ex, f.C[0], f.D[0]) for q, f in forms.items()},
                "gain": _matrix_exprs(ex, lib.fixtures.FEEDBACK_GAIN, lib.tropical.TropicalMatrix.epsilon(1, 0)),
            }
        built.append((system, ref_model))
    ops = []
    for index, word, u, shift, expected in plan["runs"]:
        system, ref_model = built[index]
        system = dataclasses.replace(system, x0=gen.shift_vector(system.x0, shift))
        if ref_model["gain"] is None:
            automaton = hybrid.from_smpl_open(system)
            inputs = tuple(smpl.StepInput(w=w) for w in word)
        else:
            automaton = hybrid.from_smpl_closed(system)
            inputs = tuple(smpl.StepInput(w=w, u=(v + shift,)) for w, v in zip(word, u))
        ops.append(
            Op(
                label=f"simulate {system.meta.get('name')} x{len(word)}",
                run=_simulate_run(smpl, hybrid, system, automaton, inputs),
                expected=expected,
                check=_simulate_check(ex, system, automaton, ref_model),
            )
        )
    return ops


def _simulate_run(smpl, hybrid, system, automaton, inputs):
    return lambda: (smpl.simulate(system, inputs), hybrid.run(automaton, inputs))


def _simulate_check(ex, system, automaton, ref_model):
    layout = automaton.meta.get("state_layout")
    lo, hi = layout["x"] if layout else (0, system.dims.n)

    def check(result, expected) -> str | None:
        st, ht = result
        steps, halted, samples, modes = expected
        if st.halted_at != halted or ht.halted_at != halted:
            return f"halted at {st.halted_at} / {ht.halted_at}, expected {halted}"
        if len(st.records) != steps or len(ht.records) != steps:
            return f"{len(st.records)} / {len(ht.records)} records, expected {steps}"
        for rs, rh in zip(st.records, ht.records):
            if (rs.mode, rs.successor_modes, rs.x, rs.y) != (rh.mode, rh.successor_modes, rh.x[lo:hi], rh.y):
                return f"step {rs.k}: SMPL and MAHA records differ"
        for j, mode in zip(samples, modes):
            rec = st.records[j - 1]
            x_prev = system.x0 if j == 1 else st.records[j - 2].x
            win = ()
            if ref_model["gain"] is not None:
                win = tuple(ex.eval_expr(e, x_prev) for e in ref_model["gain"])
            want_x = tuple(ex.eval_expr(e, x_prev, win) for e in ref_model["state"][mode])
            want_y = tuple(ex.eval_expr(e, want_x, win) for e in ref_model["out"][mode])
            if (rec.mode, rec.x, rec.y) != (mode, want_x, want_y):
                return f"step {j}: got mode {rec.mode} x {rec.x}, expressions give mode {mode} x {want_x}"
        return None

    return check


# -- behaviour ------------------------------------------------------------------

# (states, word bound, automata); gaubert_mpa comes first with its own
# bound.  What an inclusion check costs is set by how many words of the
# bound the automaton accepts, which depends only on which of its weights
# are finite.  So that every seed measures the same work, that pattern is
# drawn from a fixed seed per automaton ("shape"), and the run's seed draws
# the finite weights and the planted faults.
BEH_CASES = ((3, 6, 3), (4, 6, 3), (6, 6, 3), (8, 5, 3), (10, 5, 3), (12, 5, 3))
BEH_GAUBERT_BOUND = 7


def plan_behaviour(lib, seed: int, quick: bool, variant: int) -> dict:
    rng = random.Random(seed)
    cases = [("gaubert", 3, 4 if quick else BEH_GAUBERT_BOUND)]
    for n, bound, count in ((3, 3, 1), (5, 3, 1)) if quick else BEH_CASES:
        cases += [("random", n, bound)] * count
    planned = []
    for index, (name, n, bound) in enumerate(cases):
        shapes = random.Random(f"behaviour/{index}/{n}")
        weight_seed = rng.randrange(1 << 30)
        # Draw shapes until the automaton accepts some word within the
        # bound, so that a fault planted on an accepted path is observable.
        for _ in range(CASE_TRIES):
            case_seed = None if name == "gaubert" else shapes.randrange(1 << 30)
            a = _behaviour_mpa(lib, name, n, case_seed, weight_seed, variant)
            levels = ref.words_by_level(a.alphabet, bound)
            traces = ref.behaviour_traces(a, levels)
            accepted = next((w for level in levels for w in level if traces[w][0] is not None), None)
            if accepted is not None:
                break
        else:
            raise RuntimeError(f"{name}{n}: no automaton accepting within {bound} symbols")
        for side in (0, 1):
            cex = ref.first_behaviour_counterexample(traces, side, traces, 1, levels)
            if cex is not None:
                raise RuntimeError(f"{name}: reference translation fails at {cex}")
        path = ref.best_path(a, accepted)
        edges = [(accepted[e], path[e], path[e + 1]) for e in range(len(accepted))]
        rng.shuffle(edges)
        symbol, i, j = edges[0]
        fault = (symbol, i, j, a.mu[symbol][i, j] + 1.0)
        # One planted fault per automaton, the two kinds in turn, so that the
        # cheap early-exit mutant checks stay a third of the operations.  A
        # raised weight on a maximising path always shows at the first
        # accepted word; a dropped transition shows unless another path
        # makes up for it, so the one that shows first is taken, which
        # keeps the mutant's cost from depending on the draw.
        side1, side2 = ("mpa", "smpl") if index % 2 == 0 else ("smpl", "maha")
        if side1 == "smpl":
            order = {w: k for k, w in enumerate(w for level in levels for w in level)}
            first = None
            for symbol, i, j in edges:
                mutant = gen.mpa_with_weight(lib, a, symbol, i, j, EPS)
                cex = ref.first_behaviour_counterexample(traces, 1, ref.behaviour_traces(mutant, levels), 1, levels)
                if cex is not None and (first is None or order[cex] < order[first]):
                    first, fault = cex, (symbol, i, j, EPS)
        mutant_traces = ref.behaviour_traces(gen.mpa_with_weight(lib, a, *fault), levels)
        cex = ref.first_behaviour_counterexample(traces, 0 if side1 == "mpa" else 1, mutant_traces, 1, levels)
        if cex is None:
            raise RuntimeError(f"{name}: planted fault {fault} is not observable")
        pairs = [
            ("mpa", "smpl", None, (True, None)),
            ("smpl", "maha", None, (True, None)),
            (side1, side2, fault, (False, cex)),
        ]
        planned.append({
            "name": name, "n": n, "bound": bound, "seed": case_seed, "weight_seed": weight_seed,
            "variant": variant, "pairs": pairs,
        })
    return {"cases": planned}


def _behaviour_mpa(lib, name, n, case_seed, weight_seed, variant):
    if name == "gaubert":
        return gen.mpa_variant(lib, lib.fixtures.gaubert_mpa(), variant)
    return gen.random_mpa(lib, case_seed, n, variant, weight_seed)


def build_behaviour(lib, plan: dict, workdir: str) -> list[Op]:
    smpl, hybrid, eq = lib.smpl, lib.hybrid, lib.equivalence
    ops = []
    for case in plan["cases"]:
        a = _behaviour_mpa(lib, case["name"], case["n"], case["seed"], case["weight_seed"], case["variant"])
        a_smpl = smpl.from_mpa(a)
        seqs = [smpl.word_inputs(w) for w in eq.exhaustive_words(a.alphabet, case["bound"])]
        for side1, side2, fault, expected in case["pairs"]:
            target = a_smpl if fault is None else smpl.from_mpa(gen.mpa_with_weight(lib, a, *fault))
            sys1 = eq.MpaBehaviour(a) if side1 == "mpa" else eq.SmplBehaviour(a_smpl)
            if side2 == "smpl":
                sys2 = eq.SmplBehaviour(target)
            else:
                sys2 = eq.MahaBehaviour(hybrid.from_smpl_open(target))
            label = f"behaviour {case['name']}{case['n']} {side1}->{side2} L{case['bound']}"
            ops.append(
                Op(
                    label=label + (" mutant" if fault else ""),
                    run=functools.partial(eq.behavioural_inclusion_upto, sys1, sys2, seqs),
                    expected=expected,
                    check=_inclusion_check,
                )
            )
    return ops


def _inclusion_check(result, expected) -> str | None:
    ok, cex = result
    got = (ok, None if cex is None else tuple(inp.w for inp in cex))
    if got != expected:
        return f"verdict {got}, expected {expected}"
    return None


# -- abstraction ------------------------------------------------------------------

# (states, automata) of the random automata, and the line sizes.  How many
# refinement rounds a random automaton needs varies from draw to draw, so
# every size takes several draws.  What a verdict costs is set by the
# abstractions, which for a random automaton depend only on which of its
# weights are finite (its shape), and by the planted fault: dropping the
# final labels of one mode rather than the other can triple the cost of a
# failing relation verdict.  Drawn from the run's seed, they moved the
# median verdict's time by a fifth from seed to seed.  So shapes and faults
# are drawn from a fixed seed per case, and the run's seed draws the lines'
# processing times, which do not change the line abstractions' cost.  Both
# kinds top out at 48 abstract states: with 64 the
# fixpoints on the largest pairs made up most of a pass and their fastest
# times spread by a quarter between runs on a shared 2-vCPU host.
ABS_MPA_CASES = ((4, 3), (6, 3), (8, 3), (12, 3), (16, 3), (24, 3))
ABS_LINE_SIZES = (3, 6, 12, 16, 20, 24)
ABS_BOUND = 6
EXACT_CAP = 12  # language_equal_exact's default state cap
FAULT_TRIES = 200
CASE_TRIES = 50


def plant_fault(lib, rng: random.Random, fa1, fa2, bound: int):
    """A seeded fault in fa2 that makes its language differ from fa1's
    within ``bound`` symbols: (kind, target, shortest witness), or None.

    Single faults that the reachable state sets of fa2 show to matter are
    tried first: a final state flipped, or the one transition into the only
    final state of a successor set dropped.  Dense automata have none; then
    one mode's final labels are dropped.
    """
    single = set()
    for word, states in ref.reachable_sets(fa2, bound):
        accepting = states & fa2.final
        if states and not accepting:
            single.update(("final", s) for s in states)
        if len(accepting) == 1:
            single.add(("final", next(iter(accepting))))
        if len(word) == bound:
            continue
        for symbol in fa2.alphabet:
            into_final = [(s, t) for s in states for t in fa2.delta.get((s, symbol), ()) if t in fa2.final]
            if len(into_final) == 1:
                single.add(("transition", (into_final[0][0], symbol, into_final[0][1])))
    single = sorted(single)
    rng.shuffle(single)
    modes = sorted({int(s[1:s.index(".")]) for s in fa2.states})
    rng.shuffle(modes)
    for kind, target in single[:FAULT_TRIES] + [("mode_final", q) for q in modes]:
        witness = ref.shortest_difference(fa1, gen.fa_mutant(lib, fa2, kind, target), bound)
        if witness is not None:
            return kind, target, witness
    return None


def plan_abstraction(lib, seed: int, quick: bool, variant: int) -> dict:
    rng = random.Random(seed)
    mpa_cases, line_sizes = (((3, 1), (5, 1)), (3, 4)) if quick else (ABS_MPA_CASES, ABS_LINE_SIZES)
    planned = []
    sizes = [("mpa", n) for n, count in mpa_cases for _ in range(count)]
    for index, (kind, size) in enumerate(sizes + [("line", k) for k in line_sizes]):
        fixed = random.Random(f"abstraction/{index}/{size}")
        for _ in range(CASE_TRIES):
            if kind == "mpa":
                case = (kind, size, fixed.randrange(1 << 30))
            else:
                case = (kind, size, (gen.line_taus(rng, size), gen.line_taus(rng, size)))
            fa1, fa2, related = _abstraction_pair(lib, case, variant)
            fault = plant_fault(lib, fixed, fa1, fa2, ABS_BOUND)
            if fault is not None:
                break
        else:
            raise RuntimeError(f"{kind}{size}: no observable planted fault")
        proof = ref.relation_fault(fa1, fa2, related, symmetric=True)
        if proof is not None:
            raise RuntimeError(f"{kind}{size}: expected relation is not a bisimulation: {proof}")
        mutant = gen.fa_mutant(lib, fa2, fault[0], fault[1])
        planned.append({
            "case": case,
            "variant": variant,
            "fault": fault[:2],
            "witness": fault[2],
            # The side that accepts the witness comes first, so that no
            # simulation of it by the other side can exist.
            "mutant_first": ref.accepts(mutant, fault[2]),
            "related": sorted(related),
        })
    return {"cases": planned}


def _abstraction_pair(lib, case, variant):
    """The two abstractions the paper proves equivalent, and a relation
    between their states that witnesses it."""
    kind, size, data = case
    hybrid = lib.hybrid
    if kind == "mpa":
        a = gen.random_mpa(lib, data, size, variant)
        weight_free = lib.mpa.to_finite_abstraction(a)
        fused = hybrid.mpa_chain_abstraction(hybrid.from_smpl_open(lib.smpl.from_mpa(a)))
        modes = range(1, len(a.alphabet) + 1)
        related = {(s, f"q{q}.x{i + 1}") for i, s in enumerate(a.states) for q in modes}
        return weight_free, fused, related
    tau1, tau2 = data
    symbols = gen.variant_symbols(gen.LINE_SYMBOLS, variant)
    fa1 = hybrid.finite_abstraction(hybrid.from_smpl_open(gen.line_smpl(lib, tau1, symbols=symbols)))
    fa2 = hybrid.finite_abstraction(hybrid.from_smpl_open(gen.line_smpl(lib, tau2, symbols=symbols)))
    return fa1, fa2, {(s, s) for s in fa1.states}


def build_abstraction(lib, plan: dict, workdir: str) -> list[Op]:
    eq = lib.equivalence
    ops = []
    for index, entry in enumerate(plan["cases"]):
        kind, size = entry["case"][:2]
        fa1, fa2, _ = _abstraction_pair(lib, entry["case"], entry["variant"])
        mutant = gen.fa_mutant(lib, fa2, *entry["fault"])
        related = frozenset(map(tuple, entry["related"]))
        witness = entry["witness"]
        small = max(len(fa1.states), len(fa2.states)) <= EXACT_CAP
        pairs = [("", fa1, fa2, True)]
        pairs.append((" mutant", mutant, fa1, False) if entry["mutant_first"] else (" mutant", fa1, mutant, False))
        for suffix, left, right, equal in pairs:
            label = f"{kind}{size}#{index}{suffix}"
            word = None if equal else witness
            upto = functools.partial(eq.language_equal_upto, left, right, ABS_BOUND)
            ops.append(Op(f"language_upto {label}", upto, (equal, word), _language_check))
            if small:
                exact = functools.partial(eq.language_equal_exact, left, right)
                ops.append(Op(f"language_exact {label}", exact, (equal, word), _language_check))
            for fn, symmetric in ((eq.greatest_simulation, False), (eq.bisimulation, True)):
                ops.append(
                    Op(
                        f"{fn.__name__} {label}",
                        functools.partial(fn, left, right),
                        (equal, related if equal else None),
                        functools.partial(_relation_check, left, right, symmetric, f"{fn.__name__} {label}"),
                    )
                )
    return ops


def _language_check(result, expected) -> str | None:
    if tuple(result) != expected:
        return f"verdict {result}, expected {expected}"
    return None


# The greatest relation of each operation, once proven a (bi)simulation.
# The variants only rename symbols, so every variant must return the same
# pairs of states.
_validated: dict[str, frozenset] = {}


def _relation_check(fa1, fa2, symmetric, key, result, expected) -> str | None:
    holds, related = expected
    if (result is not None) != holds:
        return f"relation found: {result is not None}, expected {holds}"
    if result is None:
        return None
    if not related <= result.pairs:
        return "the greatest relation misses pairs of a known bisimulation"
    if key in _validated:
        return None if result.pairs == _validated[key] else "relation differs from the first variant's"
    fault = ref.relation_fault(fa1, fa2, result.pairs, symmetric)
    if fault is None:
        _validated[key] = result.pairs
    return fault


# -- cli --------------------------------------------------------------------------

CLI_LINE_SIZES = (4, 6, 8, 12, 16)
CLI_RANDOM_SIZES = (3, 4, 5, 6)  # small: their check cost depends on the draw
CLI_STEPS = 24
CLI_BOUND = 6
CLI_EVAL_LENGTH = 12  # symbols of the word evaluated on the bundled fixture
README_SEED = 42


def plan_cli(lib, seed: int, quick: bool, variant: int) -> dict:
    """Variant 0 runs the README's commands with its values (``eval ab`` is
    12, ``simulate aab`` ends at 14, ``reproduce --seed 42``); the other
    variants rename symbols, shift weights, states and inputs, and take
    another word and another reproduce seed."""
    rng = random.Random(seed)
    shifts = gen.variant_rng(seed, variant)
    line_sizes = (4,) if quick else CLI_LINE_SIZES
    random_sizes = (3,) if quick else CLI_RANDOM_SIZES
    line_symbols = gen.variant_symbols(gen.LINE_SYMBOLS, variant)
    lines = []
    for k in line_sizes:
        tau = gen.line_taus(rng, k)
        word = tuple(rng.choice(line_symbols) for _ in range(CLI_STEPS))
        x0 = (float(shifts.randrange(SHIFT_RANGE)),) * k
        # Reference final output: the raw update expressions, step by step.
        exprs = gen.line_state_exprs(lib, tau)
        x = x0
        for w in word:
            x = tuple(lib.expressions.eval_expr(e, x) for e in exprs[line_symbols.index(w) + 1])
        lines.append({"k": k, "tau": tau, "x0": x0, "symbols": line_symbols, "word": word, "final_y": x[-1]})
    randoms = []
    for n in random_sizes:
        for _ in range(CASE_TRIES):
            case_seed = rng.randrange(1 << 30)
            a = gen.random_mpa(lib, case_seed, n, variant)
            weight_free = lib.mpa.to_finite_abstraction(a)
            fused = lib.hybrid.mpa_chain_abstraction(lib.hybrid.from_smpl_open(lib.smpl.from_mpa(a)))
            fault = plant_fault(lib, rng, weight_free, fused, CLI_BOUND)
            if fault is not None:
                break
        else:
            raise RuntimeError(f"random{n}: no observable planted fault")
        randoms.append({"n": n, "seed": case_seed, "fault": fault[:2], "witness": fault[2]})
    u_shift = float(shifts.randrange(SHIFT_RANGE))
    feedback_inputs = [
        {"w": rng.choice(("m1", "m2")), "u": [rng.randint(-3, 6) + u_shift]} for _ in range(CLI_STEPS)
    ]
    gaubert = lib.fixtures.gaubert_mpa()
    g = gen.mpa_variant(lib, gaubert, variant)
    aab = tuple(g.alphabet[i] for i in (0, 0, 1))
    if variant == 0:
        eval_word, eval_value, aab_value = ("a", "b"), 12, 14  # the README's values
    else:
        eval_word, eval_value = (), EPS
        while eval_value == EPS:
            eval_word = tuple(shifts.choice(gaubert.alphabet) for _ in range(CLI_EVAL_LENGTH))
            eval_value = ref.word_value(gaubert, eval_word)
        aab_value = ref.word_value(g, aab)
    return {
        "variant": variant,
        "lines": lines,
        "randoms": randoms,
        "feedback_inputs": feedback_inputs,
        "eval": (eval_word, eval_value),
        "aab": (aab, aab_value),
        "reproduce_seed": README_SEED + variant,
    }


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def build_cli(lib, plan: dict, workdir: str) -> list[Op]:
    ser, smpl, hybrid, mpa = lib.serialization, lib.smpl, lib.hybrid, lib.mpa
    variant = plan["variant"]
    os.makedirs(workdir, exist_ok=True)

    def write_doc(name: str, body: dict) -> str:
        return _write(workdir, name, ser.serialize_body(body))

    g = gen.mpa_variant(lib, lib.fixtures.gaubert_mpa(), variant)
    g_json = write_doc("g.json", ser.mpa_body(g))
    sys_body = ser.smpl_body(smpl.from_mpa(g), meta={"translated_from": "mpa"})
    sys_json = write_doc("sys.json", sys_body)
    h_json = write_doc("h.json", ser.maha_body(sys_body))
    at_json = write_doc("at.json", ser.fa_body(mpa.to_finite_abstraction(g)))
    fused_json = write_doc(
        "fused.json", ser.fa_body(hybrid.mpa_chain_abstraction(hybrid.from_smpl_open(smpl.from_mpa(g))))
    )
    feedback_json = _write(workdir, "feedback_inputs.json", json.dumps(plan["feedback_inputs"]))
    eval_word, eval_value = plan["eval"]
    aab, aab_value = plan["aab"]
    ab = ",".join(g.alphabet)
    aab = ",".join(aab)
    seed = plan["reproduce_seed"]

    commands = [
        (["eval", "gaubert_mpa", "--word", ",".join(eval_word), "--format", "json"], 0, {"output": eval_value}),
        (["eval", at_json, "--word", ab, "--format", "json"], 0, {"accepted": True}),
        (["translate", g_json, "--to", "smpl"], 0, {"kind": "smpl"}),
        (["translate", g_json, "--to", "maha"], 0, {"kind": "maha"}),
        (["simulate", sys_json, "--word", aab, "--format", "json"], 0, {"final_y": [aab_value]}),
        (["simulate", h_json, "--word", aab, "--format", "json"], 0, {"final_y": [aab_value]}),
        (["simulate", "feedback_demo", "--inputs", feedback_json, "--format", "json"], 0,
         {"halted_at": None, "steps": CLI_STEPS}),
        (["abstract", g_json], 0, {"kind": "fa", "states": 3}),
        (["abstract", h_json, "--style", "fused"], 0, {"kind": "fa", "states": 6}),
        (["check", at_json, fused_json, "--relation", "language", "--bound", "6", "--format", "json"], 0,
         {"verdict": True}),
        (["check", at_json, fused_json, "--relation", "language", "--exact", "--format", "json"], 0,
         {"verdict": True}),
        (["check", at_json, fused_json, "--relation", "simulation", "--format", "json"], 0, {"verdict": True}),
        (["check", at_json, fused_json, "--relation", "bisimulation", "--format", "json"], 0, {"verdict": True}),
        (["check", g_json, sys_json, "--relation", "behaviour", "--bound", "6", "--format", "json"], 0,
         {"verdict": True}),
        (["reproduce", "--seed", str(seed)], 0, {"summary": f"11/11 checks passed (seed {seed})"}),
    ]
    for line in plan["lines"]:
        k = line["k"]
        system = gen.line_smpl(lib, line["tau"], x0=line["x0"], symbols=line["symbols"])
        body = ser.smpl_body(system, meta={"name": f"line{k}"})
        line_json = write_doc(f"line{k}.json", body)
        line_h_json = write_doc(f"line{k}_h.json", ser.maha_body(body))
        word = ",".join(line["word"])
        commands += [
            (["translate", line_json, "--to", "maha"], 0, {"kind": "maha"}),
            (["simulate", line_json, "--word", word, "--format", "json"], 0, {"final_y": [line["final_y"]]}),
            (["abstract", line_h_json], 0, {"kind": "fa", "states": 2 * k}),
        ]
    for case in plan["randoms"]:
        n = case["n"]
        a = gen.random_mpa(lib, case["seed"], n, variant)
        a_json = write_doc(f"r{n}.json", ser.mpa_body(a))
        a_sys = write_doc(f"r{n}_sys.json", ser.smpl_body(smpl.from_mpa(a), meta={"translated_from": "mpa"}))
        a_at = write_doc(f"r{n}_at.json", ser.fa_body(mpa.to_finite_abstraction(a)))
        fused = hybrid.mpa_chain_abstraction(hybrid.from_smpl_open(smpl.from_mpa(a)))
        a_fused = write_doc(f"r{n}_fused.json", ser.fa_body(fused))
        a_mutant = write_doc(f"r{n}_mutant.json", ser.fa_body(gen.fa_mutant(lib, fused, *case["fault"])))
        witness = list(case["witness"])
        commands += [
            (["check", a_at, a_fused, "--relation", "bisimulation", "--format", "json"], 0, {"verdict": True}),
            (["check", a_json, a_sys, "--relation", "behaviour", "--bound", "4", "--format", "json"], 0,
             {"verdict": True}),
            (["check", a_at, a_mutant, "--relation", "language", "--bound", str(CLI_BOUND), "--format", "json"], 1,
             {"verdict": False, "witness": witness}),
            (["check", a_at, a_mutant, "--relation", "bisimulation", "--format", "json"], 1, {"verdict": False}),
        ]
    return [
        Op(label, _cli_run(lib.cli, argv), (code, facts),
           functools.partial(_cli_check, command=label if variant == 0 else None))
        for argv, code, facts in commands
        for label in [" ".join(["mph"] + argv)]
    ]


def _cli_run(cli, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    return run


def _cli_facts(stdout: str) -> dict:
    """The checked facts of one command's stdout."""
    if stdout.startswith("$ mph reproduce"):
        return {"summary": stdout.rstrip("\n").rsplit("\n", 1)[-1]}
    doc = json.loads(stdout)
    facts = {k: doc[k] for k in ("output", "accepted", "kind", "verdict", "witness", "halted_at") if k in doc}
    if doc.get("kind") == "fa":
        facts["states"] = len(doc["states"])
    if "trace" in doc:
        facts["steps"] = len(doc["trace"])
        if doc["trace"]:
            facts["final_y"] = [float(v) for v in doc["trace"][-1].get("y", [])] or None
    return facts


# stdout of the first run of each variant-0 command line, for the
# byte-equality check when variant 0 runs again
_first_stdout: dict[str, str] = {}


def _cli_check(result, expected, command: str | None) -> str | None:
    code, stdout, stderr = result
    want_code, want = expected
    if code != want_code:
        return f"exit {code}, expected {want_code}: {stderr.strip()[:200]}"
    try:
        facts = _cli_facts(stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc}"
    for key, value in want.items():
        if facts.get(key) != value:
            return f"{key} = {facts.get(key)!r}, expected {value!r}"
    if command is not None and _first_stdout.setdefault(command, stdout) != stdout:
        return "stdout differs from the first run"
    return None


WORKLOADS = {
    "simulate": Workload("simulate", plan_simulate, build_simulate),
    "behaviour": Workload("behaviour", plan_behaviour, build_behaviour),
    "abstraction": Workload("abstraction", plan_abstraction, build_abstraction),
    "cli": Workload("cli", plan_cli, build_cli, replay=True),
}
