"""Language equality, simulation preorders and behavioural inclusion.

Both language checks walk pairs of state sets breadth-first, one level
per word length, so the first pair that differs on finality carries the
shortest counterexample; the bounded check stops at its length.
The greatest simulation keeps one bitset of candidate matches per state
and revisits a state only when a successor's bitset shrinks (Henzinger,
Henzinger and Kopke); the preimage of a bitset under a symbol is computed
once per call and shared by the states that hold an equal bitset.  The
greatest bisimulation refines a partition of the two automata's disjoint
union until no block splits: in rounds that re-sign every state while the
block count grows fast, then by a split-driven worklist that re-signs
only the predecessors of the states that changed block, the largest part
of a split block keeping its id (Hopcroft; Paige and Tarjan).

Behavioural inclusion compares models of different classes through the
stepper protocol of smpl.Stepper (init, step, fold): a model's behaviour
is its runs that do not halt, and two runs agree where their records'
outputs y do.  A max-plus automaton and its translations halt where the
row dies and output its value at every step, so each includes the other.
Each class's stepper lives beside its step code (smpl.SmplBehaviour,
hybrid.MahaBehaviour, mpa.MpaBehaviour) and is re-exported here; every
class steps as its switching system, which an automaton shares with its
translation.  Every class steps a bare symbol through smpl.symbol_step
where it has a program (smpl.Stepper.program: the start vector and the
table of each symbol's candidate modes and their compiled state and
output maps that symbol_step runs), so two steppers with one program
run one function on equal data over every sequence of bare symbols,
step for step, and the bounded check passes those over without a step:
that is how a model and its translations are judged, the identity case
of max-plus conjugacy (Beal, Lombardy and Sakarovitch 2006).
Every other sequence goes to the stepping walk, stepped_inclusion_upto.
Input sequences share prefixes, so that walk goes over a graph of them,
one child per input, and keeps the two systems' states per prefix for the
length of one call.  Input-free max-plus runs are homogeneous: adding c to
a state adds c to every later state and output, and halting reads only
which entries are finite.  So a prefix whose pair of states equals an
earlier one's up to one shared constant shares that prefix's children (the
normalisation of max-plus determinisation, Mohri 1997), and each
normalised pair is stepped once.  A stepper only says whether its runs are
shift-exact (smpl.Stepper.shift_exact, its system's): every max-plus
automaton and every switching system, or its translation, without
controller or inputs whose rule is a document symbol_liveness or
externally_driven one, in each case only with integer weights, so that
floats keep the shift exact.  The key itself, normalised_pair, is this
module's alone.  Other models walk the plain trie of prefixes.
Verdicts and witnesses are those of stepping every prefix.
"""

from __future__ import annotations

import collections
import itertools
import operator
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence

from .finite import FiniteAutomaton, Word
# The three steppers are re-exported: the benchmark names them through this module.
from .hybrid import MahaBehaviour
from .mpa import MpaBehaviour
from .smpl import SmplBehaviour, StepInput, Stepper, StepRecord
from .tropical import EPS, EXACT_STEPS, TOP, is_finite


EXACT_STATE_CAP = 12


def require_same_alphabet(first: Sequence[str], second: Sequence[str]) -> None:
    """Refuse two models over different symbol sets, naming both alphabets."""
    if set(first) != set(second):
        raise ValueError(f"alphabet mismatch: {list(first)} against {list(second)}")


def _first_difference(fa1: FiniteAutomaton, fa2: FiniteAutomaton, max_len: int | None) -> Word | None:
    """The least word by (length, word), of at most max_len symbols (None:
    any number), that exactly one side accepts.  Breadth-first over pairs of
    state sets, one level per length, symbols sorted: each pair keeps the
    first word that reached it, which is its least word."""
    require_same_alphabet(fa1.alphabet, fa2.alphabet)
    symbols = sorted(fa1.alphabet)
    words = {(fa1.initial, fa2.initial): ()}
    level, depth = list(words), 0
    while level:
        for s1, s2 in level:
            if bool(s1 & fa1.final) != bool(s2 & fa2.final):
                return words[s1, s2]
        if depth == max_len:
            break
        depth += 1
        frontier = []
        for s1, s2 in level:
            for symbol in symbols:
                pair = (fa1.step(s1, symbol), fa2.step(s2, symbol))
                if pair not in words:
                    words[pair] = words[s1, s2] + (symbol,)
                    frontier.append(pair)
        level = frontier
    return None


def language_equal_upto(fa1: FiniteAutomaton, fa2: FiniteAutomaton, max_len: int) -> tuple[bool, Word | None]:
    """Equality of the languages cut at max_len symbols; on failure the
    shortest word accepted by exactly one side is returned."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    witness = _first_difference(fa1, fa2, max_len)
    return witness is None, witness


def language_equal_exact(fa1: FiniteAutomaton, fa2: FiniteAutomaton) -> tuple[bool, Word | None]:
    """Unbounded language equality with the same shortest witness.  The walk
    is exponential in the state count, so both automata are capped at
    EXACT_STATE_CAP states; use the bounded check beyond that."""
    for fa in (fa1, fa2):
        if len(fa.states) > EXACT_STATE_CAP:
            raise ValueError(f"exact equality is limited to {EXACT_STATE_CAP} states, got {len(fa.states)}")
    witness = _first_difference(fa1, fa2, None)
    return witness is None, witness


@dataclass(frozen=True)
class SimulationWitness:
    pairs: frozenset[tuple[str, str]]


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _simulation_pairs(fa1: FiniteAutomaton, fa2: FiniteAutomaton) -> set[tuple[str, str]]:
    """Greatest simulation of fa1 by fa2, after Henzinger, Henzinger and
    Kopke: each fa1 state keeps one bitset over fa2's states, and a state
    is revisited only when a successor's bitset has shrunk."""
    index2 = {s: j for j, s in enumerate(fa2.states)}
    # pre2[a][j]: the fa2 states with an a-move into state j.
    pre2 = {a: [0] * len(fa2.states) for a in fa2.alphabet}
    for (s, a), targets in fa2.delta.items():
        bit = 1 << index2[s]
        row = pre2[a]
        for t in targets:
            row[index2[t]] |= bit
    final2 = sum(1 << index2[s] for s in fa2.final)
    anything = (1 << len(fa2.states)) - 1
    rel = {s: final2 if s in fa1.final else anything for s in fa1.states}
    moves: dict[str, list[tuple[str, str]]] = {s: [] for s in fa1.states}
    into: dict[str, set[str]] = {s: set() for s in fa1.states}  # symbols
    preds: dict[str, set[str]] = {s: set() for s in fa1.states}
    for (s, a), targets in fa1.delta.items():
        for t in targets:
            moves[s].append((a, t))
            into[t].add(a)
            preds[t].add(s)
    # matchers[a, t1]: the fa2 states with an a-move into rel[t1], which are
    # all that can still match an fa1 move on a into t1.
    matchers: dict[tuple[str, str], int] = {}
    # images[a, bitset]: that a-preimage, shared by every fa1 state that
    # holds an equal bitset.
    images: dict[tuple[str, int], int] = {}

    def refresh(t1: str) -> None:
        held = rel[t1]
        for a in into[t1]:
            acc = images.get((a, held))
            if acc is None:
                row = pre2[a]
                acc = 0
                for j in _bits(held):
                    acc |= row[j]
                images[a, held] = acc
            matchers[a, t1] = acc

    for t1 in fa1.states:
        refresh(t1)
    queue = list(fa1.states)
    queued = set(queue)
    while queue:
        s1 = queue.pop()
        queued.discard(s1)
        row = rel[s1]
        for move in moves[s1]:
            row &= matchers[move]
        if row != rel[s1]:
            rel[s1] = row
            refresh(s1)
            for p in preds[s1] - queued:
                queued.add(p)
                queue.append(p)
    return {(s1, fa2.states[j]) for s1 in fa1.states for j in _bits(rel[s1])}


def _bisimulation_pairs(fa1: FiniteAutomaton, fa2: FiniteAutomaton) -> set[tuple[str, str]]:
    """Greatest bisimulation between fa1 and fa2: the coarsest partition of
    their disjoint union that refines finality and in which the members of
    a block have equal signatures, their sets of (symbol, successor block).
    The pairs of the relation are the fa1 and fa2 states that share a block.

    Union nodes are indices, fa1's states first, so a state name used by
    both automata stands for two nodes.  Refinement starts in rounds that
    re-sign every node, which is cheapest while the block count grows
    geometrically or few nodes are left to split.  Once a round adds fewer
    blocks than a quarter of the count it had and of the nodes outside
    them (a k-station line adds two per round), a split-driven worklist
    takes over.  When a block splits, its largest group keeps the block id
    and the others move to new ids, so a node moves O(log n) times
    (Hopcroft's rule, as in Paige and Tarjan).  A pass re-signs only the
    predecessors of the nodes that moved: each of them has a successor in
    a block the last pass created, and a member of its block outside the
    pass has none, so those members stay one group, whose signature has
    not changed.
    """
    n1 = len(fa1.states)
    nodes = n1 + len(fa2.states)
    labels: list[list[str]] = [[] for _ in range(nodes)]
    targets: list[list[int]] = [[] for _ in range(nodes)]
    for offset, fa in ((0, fa1), (n1, fa2)):
        index = dict(zip(fa.states, range(offset, offset + len(fa.states)))).__getitem__
        for (s, a), ts in fa.delta.items():
            v = index(s)
            labels[v] += [a] * len(ts)
            targets[v] += map(index, ts)
    # Finality is the first partition; False and True act as block ids 0 and 1.
    block = [*map(fa1.final.__contains__, fa1.states), *map(fa2.final.__contains__, fa2.states)]
    count = len(set(block))
    while True:
        get = block.__getitem__
        keys: dict[tuple[int, frozenset], int] = {}
        ids = [
            keys.setdefault((block[v], frozenset(zip(labels[v], map(get, targets[v])))), len(keys))
            for v in range(nodes)
        ]
        if len(keys) == count:
            return _pairs_sharing_a_block(fa1, fa2, block)
        added = len(keys) - count
        if 4 * added < min(count, nodes - len(keys)):
            break
        count = len(keys)
        block = ids

    # The last round's largest group of each block keeps the block's id.
    sizes = collections.Counter(ids)
    keeper: dict[int, int] = {}
    for k, (b, _) in enumerate(keys):
        if b not in keeper or sizes[k] > sizes[keeper[b]]:
            keeper[b] = k
    fresh = max(block) + 1
    remap = []
    for k, (b, _) in enumerate(keys):
        if keeper[b] != k:
            b, fresh = fresh, fresh + 1
        remap.append(b)
    new = list(map(remap.__getitem__, ids))
    moved = list(itertools.compress(range(nodes), map(operator.ne, block, new)))
    block = new
    members: dict[int, set[int]] = collections.defaultdict(set)
    for v, b in enumerate(block):
        members[b].add(v)
    preds: list[list[int]] = [[] for _ in range(nodes)]
    for v, ts in enumerate(targets):
        for t in ts:
            preds[t].append(v)

    while moved:
        work = set(itertools.chain.from_iterable(map(preds.__getitem__, moved)))
        # Every signature of a pass is taken before any block id changes.
        get = block.__getitem__
        keyed: dict[tuple[int, frozenset], list[int]] = collections.defaultdict(list)
        for v in work:
            keyed[block[v], frozenset(zip(labels[v], map(get, targets[v])))].append(v)
        resigned: dict[int, list[list[int]]] = collections.defaultdict(list)
        for (b, _), group in keyed.items():
            resigned[b].append(group)
        moved = []
        for b, groups in resigned.items():
            mem = members[b]
            rest = len(mem) - sum(map(len, groups))
            if not rest and len(groups) == 1:
                continue
            largest = max(groups, key=len)
            if len(largest) > rest:
                members[b] = set(largest)
                leaving: list[Iterable[int]] = [group for group in groups if group is not largest]
                if rest:
                    unchanged = mem - members[b]
                    for group in leaving:
                        unchanged.difference_update(group)
                    leaving.append(unchanged)
            else:
                for group in groups:
                    mem.difference_update(group)
                leaving = groups
            for group in leaving:
                members[fresh] = set(group)
                for v in group:
                    block[v] = fresh
                moved += group
                fresh += 1
    return _pairs_sharing_a_block(fa1, fa2, block)


def _pairs_sharing_a_block(fa1: FiniteAutomaton, fa2: FiniteAutomaton, block: list[int]) -> set[tuple[str, str]]:
    """The (fa1 state, fa2 state) pairs whose union nodes share a block."""
    left: dict[int, list[str]] = collections.defaultdict(list)
    for s, b in zip(fa1.states, block):
        left[b].append(s)
    return {(s1, s2) for s2, b in zip(fa2.states, block[len(fa1.states):]) for s1 in left.get(b, ())}


def _initials_covered(
    fa1: FiniteAutomaton, fa2: FiniteAutomaton, pairs: set[tuple[str, str]]
) -> bool:
    return all(
        any((s1, s2) in pairs for s2 in fa2.initial) for s1 in fa1.initial
    )


def greatest_simulation(
    fa1: FiniteAutomaton, fa2: FiniteAutomaton
) -> SimulationWitness | None:
    """Greatest relation where fa2 can match every fa1 move and finality.

    Returned only when every initial state of fa1 is related to some
    initial state of fa2, which is what makes it a simulation witness.
    """
    require_same_alphabet(fa1.alphabet, fa2.alphabet)
    pairs = _simulation_pairs(fa1, fa2)
    if not _initials_covered(fa1, fa2, pairs):
        return None
    return SimulationWitness(frozenset(pairs))


def bisimulation(
    fa1: FiniteAutomaton, fa2: FiniteAutomaton
) -> SimulationWitness | None:
    """Greatest relation that is a simulation in both directions at once.

    Computed as one relation, it stays transition-closed under both
    automata, which intersecting two one-way simulations would not.
    """
    require_same_alphabet(fa1.alphabet, fa2.alphabet)
    pairs = _bisimulation_pairs(fa1, fa2)
    if not _initials_covered(fa1, fa2, pairs):
        return None
    if not all(
        any((s1, s2) in pairs for s1 in fa1.initial) for s2 in fa2.initial
    ):
        return None
    return SimulationWitness(frozenset(pairs))


def behavioural_inclusion_upto(
    sys1: Stepper,
    sys2: Stepper,
    input_sequences: Iterable[Sequence[StepInput]],
) -> tuple[bool, tuple[StepInput, ...] | None]:
    """Every trace of sys1 must be reproduced exactly by sys2.

    A sequence is in a model's behaviour when its run does not halt;
    sequences outside sys1's behaviour impose nothing.  The iteration order
    of input_sequences determines which counterexample is reported, so feed
    it length-ordered when the shortest one matters.

    When the two steppers have one program (smpl.Stepper.program), both
    run smpl.symbol_step on equal table entries and equal vectors at every
    step of a sequence of its symbols alone (StepInput(w=s)), and halt at
    the same step, so every such sequence is in both behaviours or in
    neither, with equal outputs.  Those sequences are passed over without
    a step, as they come; every other sequence goes, in order, to
    stepped_inclusion_upto, so verdict, witness and errors are its own.
    """
    program = sys1.program
    if program is None or program != sys2.program:
        return stepped_inclusion_upto(sys1, sys2, input_sequences)
    plain = {StepInput(w=symbol) for symbol in program[1]}
    return stepped_inclusion_upto(sys1, sys2, itertools.filterfalse(plain.issuperset, map(tuple, input_sequences)))


def stepped_inclusion_upto(
    sys1: Stepper,
    sys2: Stepper,
    input_sequences: Iterable[Sequence[StepInput]],
) -> tuple[bool, tuple[StepInput, ...] | None]:
    """behavioural_inclusion_upto by stepping both models over every
    sequence, whatever their programs.

    The walk keeps a graph of the prefixes seen, one node per prefix
    holding sys1's state (None once dead, which makes every extension
    vacuous) and sys2's state (None once dead or once an output
    disagreed), with one child per input; a sequence steps only past the
    longest prefix already in it.  When the walk first steps past a node
    whose states are keyed (sys1 shift-exact, and sys2 too unless its
    state is dead), it keys the node's pair by normalised_pair.  A node
    whose key an earlier node holds shares that node's children: the two
    pairs differ by one constant, so every extension has the same
    verdict, and each normalised pair is stepped once, whatever its depth
    or prefix.  Without keys the graph is the trie of the prefixes; the
    states of a stepper that is not shift-exact need not even hold
    weights.  Verdict and witness are those of stepping every prefix: the
    sequences are still judged one by one, in order.
    """
    root = [sys1.init(), sys2.init(), None]
    exact1, exact2 = sys1.shift_exact, sys2.shift_exact
    shared: dict[Hashable, dict] = {}
    for seq in input_sequences:
        seq = tuple(seq)
        node = root
        for inp in seq:
            s1, s2, children = node
            if s1 is None:
                break
            if children is None:
                key = normalised_pair(s1, s2) if exact1 and (exact2 or s2 is None) else None
                children = node[2] = {} if key is None else shared.setdefault(key, {})
            child = children.get(inp)
            if child is None:
                s1 = sys1.step(s1, inp)
                if s1 is not None and s2 is not None:
                    s2 = sys2.step(s2, inp)
                    if s2 is not None and s2.y != s1.y:
                        s2 = None
                child = children[inp] = [s1, s2, None]
            node = child
        s1, s2, _ = node
        if s1 is not None and s2 is None:
            return False, seq
    return True, None


def normalised_pair(s1: StepRecord, s2: StepRecord | None) -> Hashable | None:
    """The key of a pair of shift-exact states: both less c, the largest
    finite entry of s1's x (0 when it has none), as (mode, x - c) of s1
    and of s2, with None for a dead s2, since sys2 then plays no further
    part.  It holds every record field a step may read: the mode, as the
    next step's previous mode, and x up to the shift.  c is finite, so
    EPS and TOP stay as they are.  None at EXACT_STEPS steps or more,
    where exactness is no longer assured (tropical)."""
    if s1.k >= EXACT_STEPS:
        return None
    c = max(s1.x, default=0.0)
    if c == EPS or c == TOP:
        c = max(filter(is_finite, s1.x), default=0.0)
    return s1.mode, tuple([a - c for a in s1.x]), None if s2 is None else (s2.mode, tuple([a - c for a in s2.x]))


def exhaustive_words(alphabet: Sequence[str], max_len: int) -> Iterable[Word]:
    """Every non-empty word of at most max_len symbols, shortest first."""
    for k in range(1, max_len + 1):
        yield from itertools.product(tuple(alphabet), repeat=k)
