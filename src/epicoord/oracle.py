"""Brute-force reference computations and seeded random-instance generation.

Deliberately naive in what is computed: answers are assembled straight from
the definitions so the main engine can be checked against them exactly.  The
reference reads only a structure's `space` and `partitions`: its integer
weights come from the measures (`_integer_weights`), and a player's block
from the partition's `blocks` and `block_of` (`_block_at`), never from the
engine's tables, so a fault in the engine's block numbering cannot reach
both sides.  `_event` is the one input check and `parse_probability` the one
level check.

Monderer & Samet's (1989) per-state definitions live here: a player's
conditional belief in an event at a state, `min_belief` (the weakest of both
players' beliefs in an event and in the target), an event's
`evidence_level`, the strict `super_p_evident` fixpoint, and the weak checks
`is_p_evident` and `is_c_indicating`.  Two independent routes to common
p-belief are provided — an exhaustive scan over every union of cells in
each meet component (exponential in the largest component's cell count,
capped at 12 states) and a candidate-level fixed-point search
(polynomial, usable on larger spaces) — and they are required to agree with
each other.  A cell is the set of states that share both players' blocks.
An event's cell closure, every state of every cell it meets, meets the same
blocks at no lower level, and a union of cells is no higher than its part
inside any one meet component, the cells linked through shared blocks (see
`_block_answers`).  So the exhaustive scan computes, component by component,
the level of every union of the component's cells from its definition and
drops no case.  It lays each player's cells out block by block, so that a
player's level table over the unions is the min-product of one small value
table per block, built one block at a time in a list comprehension rather
than by visiting the blocks union by union.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .epistemic import Event, InformationStructure, _entry
from .rational import format_rational, parse_probability
from .worldmodel import Partition, StateSpace

EXHAUSTIVE_STATE_LIMIT = 12


@dataclass(frozen=True)
class RandomStructureConfig:
    """Seeded recipe for a random information structure plus target event."""

    seed: int
    num_states: int = 8
    uniform_measure: bool = False

    def __post_init__(self) -> None:
        # A seed of None would draw afresh on each call and True would replay seed 1.
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if not isinstance(self.num_states, int) or isinstance(self.num_states, bool):
            raise ValueError(f"num_states must be an int, got {self.num_states!r}")
        if self.num_states < 1:
            raise ValueError("num_states must be at least 1")
        if not isinstance(self.uniform_measure, bool):
            raise ValueError(f"uniform_measure must be a bool, got {self.uniform_measure!r}")


def _random_partition(rng: random.Random, num_states: int) -> Partition:
    max_blocks = rng.randint(1, num_states)
    return Partition.from_labels([rng.randrange(max_blocks) for _ in range(num_states)])


def random_structure(config: RandomStructureConfig) -> tuple[InformationStructure, Event]:
    """Deterministic-in-seed structure with positive measures and a nonempty target."""
    rng = random.Random(config.seed)
    n = config.num_states
    width = max(1, (n - 1).bit_length())
    states = tuple(tuple((i >> b) & 1 for b in reversed(range(width))) for i in range(n))
    if config.uniform_measure:
        measures = tuple(Fraction(1, n) for _ in range(n))
    else:
        weights = [rng.randint(1, 9) for _ in range(n)]
        total = sum(weights)
        measures = tuple(Fraction(w, total) for w in weights)
    space = StateSpace(states, measures)
    partitions = (_random_partition(rng, n), _random_partition(rng, n))
    target = frozenset(i for i in range(n) if rng.random() < 0.5)
    if not target:
        target = frozenset({rng.randrange(n)})
    return InformationStructure(space, partitions), target


# One entry, like the two answer tables below: the per-state definitions are
# called in inner loops on the structure in use.
@lru_cache(maxsize=1)
def _integer_weights(structure: InformationStructure) -> tuple[int, ...]:
    """Each state's measure times the least common denominator of all of them."""
    measures = structure.space.measures
    denominator = math.lcm(*(m.denominator for m in measures))
    return tuple(m.numerator * (denominator // m.denominator) for m in measures)


def _block_at(structure: InformationStructure, player: int, state: int) -> frozenset[int]:
    """The information set of `player` holding state index `state`, read from the partitions' `block_of`.

    A bad player or state raises the engine's `IndexError` (`_entry`) before any block is read.
    """
    partitions = structure.partitions
    block = _entry((partitions[0].block_of, partitions[1].block_of), player, state)
    return partitions[player].blocks[block]


def _belief(weights: tuple[int, ...], block: frozenset[int], event: Event) -> Fraction:
    """mu(event | block), unchecked: `event` is a frozenset of state indices inside the space."""
    return Fraction(sum(map(weights.__getitem__, event & block)), sum(map(weights.__getitem__, block)))


def conditional_belief(structure: InformationStructure, player: int, event: Event, state: int) -> Fraction:
    """The probability `player` assigns to `event` at `state`: mu(E | block)."""
    event = structure._event(event, "event")
    return _belief(_integer_weights(structure), _block_at(structure, player, state), event)


def min_belief(structure: InformationStructure, event: Event, target: Event, state: int) -> Fraction:
    """The weakest of both players' beliefs in the event and in the target at `state`."""
    event, target = structure._event(event, "event"), structure._event(target, "target event")
    return _weakest(structure, _integer_weights(structure), event, target, state)


def _weakest(
    structure: InformationStructure, weights: tuple[int, ...], event: Event, target: Event, state: int
) -> Fraction:
    """`min_belief` of frozensets already checked against the space, on the structure's `weights`."""
    blocks = _block_at(structure, 0, state), _block_at(structure, 1, state)
    return min(_belief(weights, block, members) for block in blocks for members in (event, target))


def evidence_level(structure: InformationStructure, event: Event, target: Event) -> Fraction:
    """The largest p at which `event` is p-evident and target-indicating.

    This is the minimum of min_belief over the event's members; the empty
    event has no evidence level and is rejected.
    """
    event = structure._event(event, "event")
    if not event:
        raise ValueError("the empty event has no evidence level")
    target = structure._event(target, "target event")
    weights = _integer_weights(structure)
    return min(_weakest(structure, weights, event, target, state) for state in event)


def super_p_evident(structure: InformationStructure, event: Event, target: Event, level: Fraction) -> Event:
    """Largest subset whose members all keep strictly-above-`level` belief in it and the target.

    Removing a member only lowers the others' beliefs, so the fixpoint of
    removing every member whose min_belief is <= level does not depend on the
    order of removal; the result may be empty.
    """
    event, target = structure._event(event, "event"), structure._event(target, "target event")
    level = parse_probability(level, "level")
    weights = _integer_weights(structure)
    while True:
        failing = {state for state in event if _weakest(structure, weights, event, target, state) <= level}
        if not failing:
            return event
        event -= failing


def is_p_evident(structure: InformationStructure, event: Event, level: Fraction) -> bool:
    """Does every member state give both players belief >= level in the event?"""
    event = frozenset(event)
    return is_c_indicating(structure, event, event, level)


def is_c_indicating(structure: InformationStructure, event: Event, target: Event, level: Fraction) -> bool:
    """Does every member state give both players belief >= level in the target?"""
    event, target = structure._event(event, "event"), structure._event(target, "target event")
    level = parse_probability(level, "level")
    weights = _integer_weights(structure)
    return all(
        _belief(weights, _block_at(structure, player, state), target) >= level for state in event for player in (0, 1)
    )


# One entry: callers query one structure at a time, and the table is built by
# a pass over every union of cells in each meet component, so it is worth
# keeping for the 2n queries.
@lru_cache(maxsize=1)
def _block_answers(
    structure: InformationStructure, target: Event
) -> dict[tuple[int, frozenset[int]], Fraction]:
    """The exhaustive answer of every (player, block), from one scan of the unions of cells per meet component.

    level(E) is the least min(w(E & B), w(T & B)) / w(B) over the blocks B of
    either player that meet E; a block's answer is the largest level(E) over
    the events E that meet it (such a block believes E at least at level(E)).
    A cell is the set of states that share both players' blocks (the coarsest
    common refinement of the two partitions), and the cell closure of E is every state of every cell that E
    meets.  The closure meets exactly the blocks that E meets and weighs at
    least as much in each one, so its level is at least level(E); it holds
    every state that E holds.  So the largest level over the events that meet
    a block is reached on a union of cells.

    A meet component (Aumann 1976) is a class of cells linked through shared
    blocks of either player (`_meet_components`); every block lies inside one.
    The parts of a union U in different components meet disjoint sets of
    blocks, and U & B is the part inside B's component, so level(U) is the min
    of its parts' levels: a union that holds a cell c is beaten by its part
    inside c's component, which holds c too.  So each component is scanned on
    its own, over the unions of its cells as bitmasks, each cell weighing the
    sum of its states: the scan costs the sum over components of 2^(cells in
    it), not 2^cells.  All values are integers over one scale K, the lcm of
    the block weights.  Per component and per player:

    - the cells are laid out block by block, fewest cells first, so each
      block owns a contiguous run of bits and a union is one part per block;
    - value_B, over the 2^(cells in B) parts of B, holds
      min(w(part), w(T & B)) * K / w(B) from the subset sums of B's cells,
      and K at the empty part, which does not meet B and so must not lower
      the min;
    - the player's table is the min over its blocks of value_B(E & B), built
      one block at a time as a product: each entry of the table so far is
      paired with each entry of value_B, which fills the block's higher bits.

    Player 1's table is read through a permutation onto player 0's layout, and
    the pointwise min of the two is level(E).  A union meets B exactly when it
    holds some cell of B, so a block's answer is the max over its cells c of
    the largest level among the unions holding c.
    """
    structure._event(target, "target event")
    weights = _integer_weights(structure)
    weighed = _weighed_blocks(structure, target, weights)
    scale = math.lcm(*(weight for _, _, weight, _ in weighed))
    first, second = (partition.block_of for partition in structure.partitions)
    cells: dict[tuple[int, int], int] = {}
    for cell, weight in zip(zip(first, second), weights):
        cells[cell] = cells.get(cell, 0) + weight
    # Each player's blocks in the partition's order, as (weight, on-target weight, cells).
    blocks = ([], [])
    for player, _, weight, on_target in weighed:
        blocks[player].append((weight, on_target, []))
    for cell in cells:
        blocks[0][cell[0]][2].append(cell)
        blocks[1][cell[1]][2].append(cell)
    best = {}
    for component in _meet_components(blocks):
        tables = []
        layouts = []
        for own_blocks in component:
            table = [scale]
            layout = []
            for weight, on_target, own in sorted(own_blocks, key=lambda entry: len(entry[2])):
                sums = [0]
                for cell in own:
                    sums += [inside + cells[cell] for inside in sums]
                factor = scale // weight
                values = [scale] + [(inside if inside < on_target else on_target) * factor for inside in sums[1:]]
                table = [x if x < y else y for y in values for x in table]
                layout += own
            tables.append(table)
            layouts.append(layout)
        own_table, other_table = tables
        layout, other_layout = layouts
        # The index in player 1's layout of each union of player 0's, by doubling
        # over player 0's cells: bit i of player 0's index holds layout[i].
        bit_of = {cell: 1 << position for position, cell in enumerate(other_layout)}
        aligned = [0]
        for cell in layout:
            bit = bit_of[cell]
            aligned += [index | bit for index in aligned]
        level = [one if one < other else other for one, other in zip(own_table, map(other_table.__getitem__, aligned))]
        # Fold the top bit away one at a time: the top half of what is left is the
        # unions holding that bit's cell, and the max of the halves carries the rest
        # down.  level[0], the empty union, is K but lies in no top half.
        for position in reversed(range(len(layout))):
            half = 1 << position
            best[layout[position]] = max(level[half:])
            level = [low if low > high else high for low, high in zip(level[:half], level[half:])]
    return {
        (player, block): Fraction(max(map(best.__getitem__, own)), scale)
        for (player, block, _, _), (_, _, own) in zip(weighed, blocks[0] + blocks[1])
    }


def _meet_components(blocks):
    """Each player's blocks, split by meet component: one pair of lists per component.

    Two cells are linked when they share a block of either player, and a meet
    component is a class of linked cells.  `blocks` holds each player's blocks
    as (weight, on-target weight, cells), a cell being its pair of block
    indices, so the labels come from the partitions' `block_of` rows only:
    each player-0 block starts with its own label, and each player-1 block
    merges the labels of the player-0 blocks its cells lie in.
    """
    label = list(range(len(blocks[0])))
    for _, _, own in blocks[1]:
        joined = {label[cell[0]] for cell in own}
        if len(joined) > 1:
            kept = min(joined)
            label = [kept if mark in joined else mark for mark in label]
    components = {mark: ([], []) for mark in label}
    for player, row in enumerate(blocks):
        for entry in row:
            # A block lies in the component of its first cell's player-0 block.
            components[label[entry[2][0][0]]][player].append(entry)
    return components.values()


def brute_force_common_p_belief(
    structure: InformationStructure, target: Event, player: int, state: int
) -> Fraction:
    """Definitional answer by exhaustive scan over every union of cells in each meet component.

    An event E supports level p exactly when p <= level(E) and the player's
    belief in E is >= p.  Every block meeting E believes E at least at
    level(E), and a block missing E believes it at 0, so the answer is the
    max of level(E) over the events E meeting the player's block.  Each
    event's cell closure meets the same blocks at no lower level, so the max
    is reached on a union of cells, and the max over the unions holding a
    cell on a union inside its meet component (see `_block_answers`).
    Exponential in the cell count of the largest meet component; capped at
    12 states.
    The cap, then a bad target, raise `ValueError`, before a bad player or
    state raises `IndexError`, in the engine's order.
    """
    n = len(structure)
    if n > EXHAUSTIVE_STATE_LIMIT:
        raise ValueError(f"exhaustive oracle is capped at {EXHAUSTIVE_STATE_LIMIT} states, got {n}")
    answers = _block_answers(structure, frozenset(target))
    return answers[player, _block_at(structure, player, state)]


def largest_p_evident_indicating_event(
    structure: InformationStructure, target: Event, level: Fraction
) -> Event:
    """Largest event whose members all hold belief >= level in it and in the target.

    Computed by batch-removing violators from the full space until stable;
    may be empty.  Weak inequality, in contrast to super_p_evident's strict one.
    """
    target = structure._event(target, "target event")
    level = parse_probability(level, "level")
    weights = _integer_weights(structure)
    return _largest_event(structure.universe(), weights, _weighed_blocks(structure, target, weights), level)


def _weighed_blocks(
    structure: InformationStructure, target: Event, weights: tuple[int, ...]
) -> list[tuple[int, frozenset[int], int, int]]:
    """(player, block, weight, on-target weight) for every block of either player."""
    return [
        (player, block, sum(weights[i] for i in block), sum(weights[i] for i in block & target))
        for player, partition in enumerate(structure.partitions)
        for block in partition.blocks
    ]


def _largest_event(universe: Event, weights: tuple[int, ...], blocks, level: Fraction) -> Event:
    """`largest_p_evident_indicating_event` from weights and block sums computed by the caller."""
    current = universe
    while current:
        survivors = current
        for _, block, weight, on_target in blocks:
            inside = sum(weights[i] for i in block & current)
            if min(inside, on_target) * level.denominator < level.numerator * weight:
                survivors -= block
        if survivors == current:
            break
        current = survivors
    return current


def _candidate_levels(blocks, weights: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Every realizable conditional-belief value, descending, plus 0 and 1.

    Any achievable answer is a ratio of a subset-sum of block weights to the
    block weight, so per-block subset sums enumerate the complete candidate
    set exactly (the sums dedupe to at most block-weight + 1 values).
    """
    candidates = {Fraction(0), Fraction(1)}
    for _, block, block_weight, _ in blocks:
        sums = {0}
        for index in block:
            sums |= {s + weights[index] for s in sums}
        candidates.update(Fraction(s, block_weight) for s in sums)
    return tuple(sorted(candidates, reverse=True))


# One entry, like `_block_answers`: the table answers the 2n queries of the structure in use.
@lru_cache(maxsize=1)
def _fixedpoint_answers(
    structure: InformationStructure, target: Event
) -> dict[tuple[int, frozenset[int]], Fraction]:
    """The fixed-point answer of every (player, block), from one descending scan of the levels.

    A block's answer is the first candidate level, from the top, at which it
    believes the largest p-evident target-indicating event at >= that level.
    Level 0 keeps the whole space, so every block is answered by then.  The
    weights and block sums are computed once for the whole scan.
    """
    structure._event(target, "target event")
    weights = _integer_weights(structure)
    blocks = _weighed_blocks(structure, target, weights)
    universe = structure.universe()
    answers: dict[tuple[int, frozenset[int]], Fraction] = {}
    for level in _candidate_levels(blocks, weights):
        event = _largest_event(universe, weights, blocks, level)
        for player, block, weight, _ in blocks:
            if (player, block) not in answers:
                inside = sum(weights[i] for i in event & block)
                if inside * level.denominator >= level.numerator * weight:
                    answers[player, block] = level
        if len(answers) == len(blocks):
            break
    return answers


def fixedpoint_common_p_belief(
    structure: InformationStructure, target: Event, player: int, state: int
) -> Fraction:
    """Candidate-level oracle: largest realizable p whose largest p-evident
    target-indicating event the player still considers possible at >= p.

    Polynomial per candidate, so usable well past the exhaustive route's
    12-state cap; the two routes must agree wherever both run.  One scan
    answers every block of the structure, and its table is kept.  A bad
    target raises `ValueError` before a bad player or state raises
    `IndexError`, in the engine's order.
    """
    answers = _fixedpoint_answers(structure, frozenset(target))
    return answers[player, _block_at(structure, player, state)]


def structure_to_json(structure: InformationStructure, target: Event) -> dict:
    """World-model-free dump used by the fuzz command's counterexample output."""
    target = structure._event(target, "target event")
    return {
        "states": [list(state) for state in structure.space.states],
        "measures": [format_rational(m) for m in structure.space.measures],
        "partitions": [
            [sorted(block) for block in partition.blocks]
            for partition in structure.partitions
        ],
        "target": sorted(target),
    }
