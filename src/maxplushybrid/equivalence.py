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
stepper protocol of smpl.Stepper (init, step, complete, fold); two runs
agree where their records' outputs y do.  Each class's stepper lives
beside its step code (smpl.SmplBehaviour, hybrid.MahaBehaviour,
mpa.MpaBehaviour) and is re-exported here.  Input
sequences share prefixes, so the bounded check walks a trie of them, one
level per input keyed by the input, steps each distinct prefix once and
keeps the two systems' states per prefix for the length of one call.
"""

from __future__ import annotations

import collections
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .finite import FiniteAutomaton, Word
# The three steppers are re-exported: the benchmark names them through this module.
from .hybrid import MahaBehaviour
from .mpa import MpaBehaviour
from .smpl import SmplBehaviour, StepInput, Stepper


EXACT_STATE_CAP = 12


def _first_difference(fa1: FiniteAutomaton, fa2: FiniteAutomaton, max_len: int | None) -> Word | None:
    """The least word by (length, word), of at most max_len symbols (None:
    any number), that exactly one side accepts.  Breadth-first over pairs of
    state sets, one level per length, symbols sorted: each pair keeps the
    first word that reached it, which is its least word."""
    if set(fa1.alphabet) != set(fa2.alphabet):
        raise ValueError("alphabet mismatch")
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
    if set(fa1.alphabet) != set(fa2.alphabet):
        raise ValueError("alphabet mismatch")
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
    if set(fa1.alphabet) != set(fa2.alphabet):
        raise ValueError("alphabet mismatch")
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

    Sequences outside sys1's behaviour impose nothing.  The iteration order
    of input_sequences determines which counterexample is reported, so feed
    it length-ordered when the shortest one matters.

    Each distinct input prefix is stepped once: the walk keeps a trie of
    the prefixes seen, each node holding sys1's state (None once dead,
    which makes every extension vacuous) and sys2's state (None once dead
    or once an output disagreed), and a sequence only steps past the
    longest prefix already in it.
    """
    root = (sys1.init(), sys2.init(), {})
    for seq in input_sequences:
        seq = tuple(seq)
        s1, s2, children = root
        for inp in seq:
            if s1 is None:
                break
            node = children.get(inp)
            if node is None:
                s1 = sys1.step(s1, inp)
                if s1 is not None and s2 is not None:
                    s2 = sys2.step(s2, inp)
                    if s2 is not None and s2.y != s1.y:
                        s2 = None
                node = children[inp] = (s1, s2, {})
            s1, s2, children = node
        if s1 is not None and sys1.complete(s1) and (s2 is None or not sys2.complete(s2)):
            return False, seq
    return True, None


def exhaustive_words(alphabet: Sequence[str], max_len: int) -> Iterable[Word]:
    """Every non-empty word of at most max_len symbols, shortest first."""
    for k in range(1, max_len + 1):
        yield from itertools.product(tuple(alphabet), repeat=k)
