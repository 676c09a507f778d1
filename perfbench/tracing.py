"""Traced runs: wrappers around the library's public functions.

``install`` replaces each function or method named in ``TRACED`` with a
wrapper that records a span (id, parent id, op id, name, start, end) and
per-name totals: calls, time and self time (span time minus the time of
the wrapped calls made inside it).  A name may be counted "within" another
one, e.g. MatrixForm.eval_state calls made while a ``smpl.step`` span is open;
those counts give the per-step ratios.  Spans are kept in memory up to
``SPAN_CAP`` and written out by ``Tracer.dump``; the totals are always
complete.  ``layer_metrics`` turns the totals into the per-layer metrics
listed in BENCHMARK.json.
"""

from __future__ import annotations

import collections
import functools
import json
import time

SPAN_CAP = 200_000

# (span name, module, class or None, attribute).  Module-level functions are
# replaced in every library module that imported them by name.
TRACED = (
    ("tropical.apply", "tropical", "TropicalMatrix", "apply"),
    ("tropical.otimes", "tropical", "TropicalMatrix", "otimes"),
    ("expressions.eval_state", "expressions", "MatrixForm", "eval_state"),
    ("expressions.eval_expr", "expressions", None, "eval_expr"),
    ("mpa.eval_output", "mpa", None, "eval_output"),
    ("smpl.simulate", "smpl", None, "simulate"),
    ("smpl.step", "smpl", None, "step"),
    ("smpl.successor_set", "smpl", "SwitchingRule", "successor_set"),
    ("hybrid.run", "hybrid", None, "run"),
    ("hybrid.hybrid_step", "hybrid", None, "hybrid_step"),
    ("hybrid.abstraction", "hybrid", None, "finite_abstraction"),
    ("hybrid.abstraction", "hybrid", None, "mpa_chain_abstraction"),
    ("finite.step", "finite", "FiniteAutomaton", "step"),
    ("finite.successors", "finite", "FiniteAutomaton", "successors"),
    ("finite.reachable", "finite", "FiniteAutomaton", "reachable"),
    ("equivalence.language_upto", "equivalence", None, "language_equal_upto"),
    ("equivalence.language_exact", "equivalence", None, "language_equal_exact"),
    ("equivalence.simulation", "equivalence", None, "greatest_simulation"),
    ("equivalence.simulation", "equivalence", None, "bisimulation"),
    ("equivalence.behaviour", "equivalence", None, "behavioural_inclusion_upto"),
    ("equivalence.trace", "equivalence", "MpaBehaviour", "trace"),
    ("equivalence.trace", "equivalence", "SmplBehaviour", "trace"),
    ("equivalence.trace", "equivalence", "MahaBehaviour", "trace"),
    ("serialization.parse_model", "serialization", None, "parse_model"),
    ("serialization.serialize_body", "serialization", None, "serialize_body"),
    ("cli.main", "cli", None, "main"),
)

# Calls of the first name counted while a span of the second is open.
WITHIN = {
    "expressions.eval_state": ("smpl.step", "hybrid.hybrid_step"),
    "smpl.successor_set": ("hybrid.hybrid_step",),
    "finite.successors": ("equivalence.simulation",),
    "smpl.step": ("equivalence.behaviour",),
    "hybrid.hybrid_step": ("equivalence.behaviour",),
    "tropical.otimes": ("equivalence.behaviour",),
}

# eval_expr recurses through its module global; only outermost calls count.
NOT_REENTRANT = {"expressions.eval_expr"}


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.active: collections.Counter = collections.Counter()
        self.within: collections.Counter = collections.Counter()
        self.counters: collections.Counter = collections.Counter()
        self.stack: list[list] = []  # [child seconds, span id] per open span
        self.spans: list[tuple] = []
        self.next_id = 0
        self.op_id = 0  # set by the runner; 0 is set-up
        self.sys1 = None  # first system of the open behaviour check

    def wrap(self, name, fn, on_enter=None, on_exit=None):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        active, stack, spans = self.active, self.stack, self.spans
        parents = WITHIN.get(name, ())
        reentrant = name not in NOT_REENTRANT
        within = self.within
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not reentrant and active[name]:
                return fn(*args, **kwargs)
            for parent in parents:
                if active[parent]:
                    within[name, parent] += 1
            if on_enter is not None:
                on_enter(args)
            tracer.next_id += 1
            frame = [0.0, tracer.next_id]
            parent_id = stack[-1][1] if stack else 0
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[0]
                if len(spans) < SPAN_CAP:
                    spans.append((frame[1], parent_id, tracer.op_id, name, start, end))
            if on_exit is not None:
                on_exit(args, result)
            return result

        return wrapper

    # Hooks reading what the wrapped calls did.

    def _simulate_done(self, args, trace) -> None:
        if trace.halted_at is not None:
            self.counters["smpl.halts"] += 1
        self.counters["smpl.nondeterministic_steps"] += sum(
            1 for rec in trace.records if len(rec.successor_modes) > 1
        )

    def _abstraction_done(self, args, fa) -> None:
        self.counters["hybrid.abstraction.states"] += len(fa.states)
        self.counters["hybrid.abstraction.transitions"] += sum(len(t) for t in fa.delta.values())

    def _behaviour_start(self, args) -> None:
        self.sys1 = args[0]

    def _trace_done(self, args, trace) -> None:
        if args[0] is self.sys1:
            self.counters["equivalence.behaviour.sequences"] += 1
            if trace is None:
                self.counters["equivalence.behaviour.vacuous"] += 1

    def hooks(self, name):
        return {
            "smpl.simulate": (None, self._simulate_done),
            "hybrid.abstraction": (None, self._abstraction_done),
            "equivalence.behaviour": (self._behaviour_start, None),
            "equivalence.trace": (None, self._trace_done),
        }.get(name, (None, None))

    def dump(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "span_fields": ["id", "parent", "op", "name", "start", "end"]}, handle)
            handle.write("\n")
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


def install(tracer: Tracer, lib) -> None:
    """Wrap every TRACED entry of the imported library in place."""
    modules = [lib.package] + [getattr(lib, name) for name in lib.MODULES]
    for name, module_name, class_name, attr in TRACED:
        module = getattr(lib, module_name)
        on_enter, on_exit = tracer.hooks(name)
        if class_name is not None:
            cls = getattr(module, class_name)
            setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], on_enter, on_exit))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, on_enter, on_exit)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    reproduce = lib.reproduce
    for key, value in list(vars(reproduce).items()):
        if key.startswith("check_") and callable(value):
            setattr(reproduce, key, tracer.wrap("reproduce.check", value))


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}."""
    totals = collections.defaultdict(lambda: [0, 0.0, 0.0], tracer.totals)
    within, counters = tracer.within, tracer.counters

    def calls(name):
        return totals[name][0]

    def self_s(*names):
        return sum(totals[n][2] for n in names)

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    steps, hsteps = calls("smpl.step"), calls("hybrid.hybrid_step")
    sequences = counters["equivalence.behaviour.sequences"]
    behaviour_steps = (
        within["smpl.step", "equivalence.behaviour"]
        + within["hybrid.hybrid_step", "equivalence.behaviour"]
        + within["tropical.otimes", "equivalence.behaviour"]
    )
    count, seconds, ratio = "count", "s", "ratio"
    return {
        "tropical.apply.calls": (calls("tropical.apply"), count),
        "tropical.apply.self_s": (self_s("tropical.apply"), seconds),
        "tropical.otimes.calls": (calls("tropical.otimes"), count),
        "tropical.otimes.self_s": (self_s("tropical.otimes"), seconds),
        "expressions.eval_state.calls": (calls("expressions.eval_state"), count),
        "expressions.eval_state.self_s": (self_s("expressions.eval_state"), seconds),
        "expressions.eval_expr.calls": (calls("expressions.eval_expr"), count),
        "mpa.eval_output.calls": (calls("mpa.eval_output"), count),
        "mpa.eval_output.self_s": (self_s("mpa.eval_output"), seconds),
        "smpl.step.calls": (steps, count),
        "smpl.step.self_s": (self_s("smpl.step"), seconds),
        "smpl.successor_set.calls": (calls("smpl.successor_set"), count),
        "smpl.successor_set.self_s": (self_s("smpl.successor_set"), seconds),
        "smpl.eval_state_per_step": (per(within["expressions.eval_state", "smpl.step"], steps), ratio),
        "smpl.halts": (counters["smpl.halts"], count),
        "smpl.nondeterministic_steps": (counters["smpl.nondeterministic_steps"], count),
        "hybrid.hybrid_step.calls": (hsteps, count),
        "hybrid.hybrid_step.self_s": (self_s("hybrid.hybrid_step"), seconds),
        "hybrid.successor_set_per_step": (per(within["smpl.successor_set", "hybrid.hybrid_step"], hsteps), ratio),
        "hybrid.eval_state_per_step": (per(within["expressions.eval_state", "hybrid.hybrid_step"], hsteps), ratio),
        "hybrid.abstraction.self_s": (self_s("hybrid.abstraction"), seconds),
        "hybrid.abstraction.states": (counters["hybrid.abstraction.states"], count),
        "hybrid.abstraction.transitions": (counters["hybrid.abstraction.transitions"], count),
        "finite.step.calls": (calls("finite.step"), count),
        "finite.successors.calls": (calls("finite.successors"), count),
        "finite.self_s": (self_s("finite.step", "finite.successors", "finite.reachable"), seconds),
        "equivalence.language_upto.self_s": (self_s("equivalence.language_upto"), seconds),
        "equivalence.language_exact.self_s": (self_s("equivalence.language_exact"), seconds),
        "equivalence.simulation.self_s": (self_s("equivalence.simulation"), seconds),
        "equivalence.fixpoint.successor_calls": (within["finite.successors", "equivalence.simulation"], count),
        "equivalence.behaviour.self_s": (self_s("equivalence.behaviour", "equivalence.trace"), seconds),
        "equivalence.behaviour.sequences": (sequences, count),
        "equivalence.behaviour.vacuous_ratio": (per(counters["equivalence.behaviour.vacuous"], sequences), ratio),
        "equivalence.model_steps_per_sequence": (per(behaviour_steps, sequences), ratio),
        "serialization.parse_model.calls": (calls("serialization.parse_model"), count),
        "serialization.parse_model.self_s": (self_s("serialization.parse_model"), seconds),
        "serialization.serialize_body.self_s": (self_s("serialization.serialize_body"), seconds),
        "cli.main.calls": (calls("cli.main"), count),
        "cli.main.self_s": (self_s("cli.main"), seconds),
        "reproduce.check.self_s": (self_s("reproduce.check"), seconds),
    }
