"""Seeded model generators for the benchmark workloads.

Every generator takes the imported library as ``lib`` (see ``run.load_library``)
so that set-up can re-import the package and rebuild the models inside the
timed set-up phase.  Everything random is drawn from ``random.Random`` objects
seeded from the workload seed, so the same seed yields the same models.

Every timed pass of a workload works on its own *variant* of the models
(``variant_symbols``, ``mpa_variant`` and the start-state shifts drawn by
``variant_rng``): the same sizes and structure, so the same cost, but other
symbols, weights and states, so that nothing computed in one pass can be
reused by the next.
"""

from __future__ import annotations

import dataclasses
import random

EPS = float("-inf")

LINE_SYMBOLS = ("l1", "l2")
MPA_SYMBOLS = ("a", "b")
WEIGHT_SHIFT = 97.0  # added to every finite transition weight, per variant


def variant_rng(seed: int, variant: int) -> random.Random:
    """The generator of one variant's shifts (string seeds do not depend on
    the hash seed)."""
    return random.Random(f"{seed}/{variant}")


def variant_symbols(symbols: tuple[str, ...], variant: int) -> tuple[str, ...]:
    """The alphabet of a variant: variant 0 keeps the names.  A common
    suffix keeps the symbols in the same sorted order."""
    if variant == 0:
        return tuple(symbols)
    tag = f"_{variant}" if variant > 0 else f"_m{-variant}"
    return tuple(s + tag for s in symbols)


def shift_vector(values, c: float) -> tuple[float, ...]:
    """Add c to every finite entry."""
    return tuple(v + c if v != EPS else v for v in values)


def line_taus(rng: random.Random, k: int) -> tuple[float, ...]:
    """Processing times of a k-station line, integers 1..5."""
    return tuple(float(rng.randint(1, 5)) for _ in range(k))


def line_state_exprs(lib, tau: tuple[float, ...]):
    """Completion-time updates of a k-station two-mode production line.

    Station 1 is fed by station 2 (blocking) and, in mode 1, by the product
    recycled from the last station; in mode 2 the recycled product goes to
    station 2 instead.  Interior stations follow their upstream neighbour and
    block on their downstream one.  The last station takes whichever of its
    two feeding routes finishes first, which is the one min node and makes
    the matrix form two branches deep.  For k = 3 this is exactly the
    bundled ``production_line`` fixture.
    """
    ex = lib.expressions
    k = len(tau)
    if k < 3:
        raise ValueError("a production line needs at least three stations")
    x = [ex.Var(i) for i in range(k)]

    def sh(i: int, c: float):
        return ex.shifted(x[i], c)

    last = k - 1
    final_station = ex.max_of(
        sh(last - 2, tau[last - 2]),
        sh(last - 1, tau[last - 1]),
        sh(last, 2 * tau[last]),
        ex.min_of(
            ex.Plus(x[last - 2], ex.Const(tau[last - 2] + tau[last])),
            ex.Plus(x[last - 1], ex.Const(tau[last - 1] + tau[last])),
        ),
    )
    modes = {}
    for mode in (1, 2):
        exprs = []
        for i in range(k - 1):
            terms = [sh(i - 1, tau[i - 1])] if i > 0 else []
            terms.append(sh(i, tau[i]))
            if i + 1 < last:
                terms.append(x[i + 1])
            if (mode, i) in ((1, 0), (2, 1)):
                terms.append(sh(last, tau[last]))
            exprs.append(ex.max_of(*terms))
        exprs.append(final_station)
        modes[mode] = tuple(exprs)
    return modes


def line_output_exprs(lib, k: int):
    """The line's output is the last station's completion time."""
    return (lib.expressions.Var(k - 1),)


def line_smpl(lib, tau: tuple[float, ...], x0=None, symbols: tuple[str, ...] = LINE_SYMBOLS):
    """Switching system of the line, built through the conjunctive rewrite;
    mode q is entered on ``symbols[q - 1]``."""
    ex, smpl = lib.expressions, lib.smpl
    k = len(tau)
    exprs = line_state_exprs(lib, tau)
    out_exprs = line_output_exprs(lib, k)
    modes = {}
    for mode, state_exprs in exprs.items():
        state_forms = [ex.to_conjunctive(e, k) for e in state_exprs]
        output_forms = [ex.to_conjunctive(e, k) for e in out_exprs]
        modes[mode] = smpl.MatrixMode(ex.to_matrix_form(state_forms, output_forms, k))
    dims = smpl.SmplDims(n=k, n_u=0, n_v=0, n_y=1)
    rule = smpl.symbol_liveness_rule(modes, symbols, dims.input_width)
    return smpl.SmplSystem(
        n_modes=2,
        modes=modes,
        switching=rule,
        x0=tuple(x0) if x0 is not None else (0.0,) * k,
        dims=dims,
        meta={"name": f"line{k}", "tau": list(tau)},
    )


def random_mpa(lib, seed: int, n: int, variant: int = 0, weight_seed: int | None = None):
    """``fixtures.random_mpa`` of n states from its own seeded generator, as
    its ``mpa_variant``.  With ``weight_seed``, every finite weight is drawn
    again from that seed, in the ranges ``fixtures.random_mpa`` uses, and
    which weights are finite stays as ``seed`` drew it."""
    a = lib.fixtures.random_mpa(random.Random(seed), n_states=n)
    if weight_seed is not None:
        a = reweighted(lib, a, random.Random(weight_seed))
    return mpa_variant(lib, a, variant)


def reweighted(lib, a, rng: random.Random):
    """The automaton with every finite weight redrawn: transitions 0..9,
    initial and final weights 0..5."""

    def draw(values, hi: int) -> tuple[float, ...]:
        return tuple(v if v == EPS else float(rng.randint(0, hi)) for v in values)

    mu = {s: lib.tropical.TropicalMatrix(a.mu[s].rows, a.mu[s].cols, draw(a.mu[s].entries, 9)) for s in a.alphabet}
    return dataclasses.replace(a, alpha=draw(a.alpha, 5), mu=mu, beta=draw(a.beta, 5))


def mpa_variant(lib, a, variant: int):
    """The automaton with its symbols renamed by ``variant_symbols`` and
    ``WEIGHT_SHIFT * variant`` added to every finite transition weight.

    Every path of a word of length L gains the same L * shift, so which
    words are accepted, which paths maximise and where two automata first
    differ stay the same; every weight, state and output changes.
    """
    if variant == 0:
        return a
    c = WEIGHT_SHIFT * variant
    symbols = variant_symbols(a.alphabet, variant)
    mu = {
        new: lib.tropical.TropicalMatrix(a.mu[old].rows, a.mu[old].cols, shift_vector(a.mu[old].entries, c))
        for old, new in zip(a.alphabet, symbols)
    }
    return dataclasses.replace(a, alphabet=symbols, mu=mu, meta=dict(a.meta, variant=variant))


def mpa_with_weight(lib, a, symbol: str, i: int, j: int, weight: float):
    """Copy of the automaton with mu(symbol)[i, j] replaced."""
    m = a.mu[symbol]
    entries = list(m.entries)
    entries[i * m.cols + j] = weight
    mu = dict(a.mu)
    mu[symbol] = lib.tropical.TropicalMatrix(m.rows, m.cols, tuple(entries))
    return dataclasses.replace(a, mu=mu, meta={"mutant": [symbol, i, j, weight]})


def fa_mutant(lib, fa, kind: str, target):
    """Finite automaton with one planted fault.

    ``kind`` is "transition" (target = (source, symbol, dest), dropped),
    "final" (target = state, whose finality is flipped) or "mode_final"
    (target = mode q: no state "q<q>.*" is final, as if that mode's output
    row had been lost in translation).
    """
    delta = {key: set(v) for key, v in fa.delta.items()}
    final = set(fa.final)
    if kind == "transition":
        src, symbol, dst = target
        delta[(src, symbol)].discard(dst)
    elif kind == "final":
        final ^= {target}
    elif kind == "mode_final":
        final = {s for s in final if not s.startswith(f"q{target}.")}
    else:
        raise ValueError(kind)
    return lib.finite.FiniteAutomaton(
        states=fa.states,
        alphabet=fa.alphabet,
        delta={key: frozenset(v) for key, v in delta.items() if v},
        initial=fa.initial,
        final=frozenset(final),
        meta={"mutant": [kind, list(target) if isinstance(target, tuple) else target]},
    )
