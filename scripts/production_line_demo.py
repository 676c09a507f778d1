#!/usr/bin/env python3
"""Walk the two-mode production line end to end.

Builds the line from its update expressions, shows the two-branch rewrite
of the third station, simulates a short schedule, and prints the per-mode
dependency graphs together with the finite abstraction.
"""

import argparse

from maxplushybrid import fixtures, hybrid, smpl
from maxplushybrid.expressions import transition_graph_f
from maxplushybrid.serialization import encode_weight


def fmt(values):
    return "(" + ", ".join(str(encode_weight(v)) for v in values) + ")"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tau", type=float, nargs=3, default=(1.0, 2.0, 3.0))
    parser.add_argument("--schedule", default="l1,l1,l2,l1,l2,l2")
    args = parser.parse_args()

    system = fixtures.production_line_smpl(tuple(args.tau))
    print(f"processing times tau = {tuple(args.tau)}, x(0) = {fmt(system.x0)}")

    for mode in (1, 2):
        form = system.modes[mode].form
        print(f"\nmode {mode}: min over {len(form.A)} branches")
        for branch, a in enumerate(form.A, start=1):
            rows = [fmt(a.row(i)) for i in range(a.rows)]
            print(f"  branch {branch}: " + "  ".join(rows))

    schedule = tuple(args.schedule.split(","))
    trace = smpl.simulate(system, tuple(smpl.StepInput(w=w) for w in schedule))
    print(f"\nschedule {schedule}:")
    for rec in trace.records:
        print(f"  k={rec.k} mode={rec.mode} x={fmt(rec.x)} y={fmt(rec.y)}")
    if not trace.completed:
        print(f"  halted at step {trace.halted_at}: no admissible mode")

    print("\none-step dependency edges:")
    graphs = {m: transition_graph_f(system.modes[m].form) for m in (1, 2)}
    print(f"  shared : {sorted(graphs[1] & graphs[2])}")
    print(f"  mode 1 : {sorted(graphs[1] - graphs[2])}")
    print(f"  mode 2 : {sorted(graphs[2] - graphs[1])}")

    isa = hybrid.finite_abstraction(hybrid.from_smpl_open(system))
    print("\nfinite abstraction (label moves under '1', mode under l1/l2):")
    print(f"  states : {list(isa.states)}")
    print(f"  initial: {sorted(isa.initial)}")
    print(f"  final  : {sorted(isa.final)}")
    for (state, symbol), targets in sorted(isa.delta.items()):
        print(f"  {state} --{symbol}--> {sorted(targets)}")


if __name__ == "__main__":
    main()
