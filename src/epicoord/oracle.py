"""Brute-force reference computations and seeded random-instance generation.

Deliberately naive: answers are assembled straight from the definitions so the
main engine can be checked against them exactly.  Two independent routes are
provided — an exhaustive scan over all events (exponential, capped at 12
states) and a candidate-level fixed-point search (polynomial, usable on larger
spaces) — and they are required to agree with each other.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .epistemic import Event, InformationStructure
from .rational import format_rational
from .worldmodel import Partition, StateSpace

EXHAUSTIVE_STATE_LIMIT = 12


@dataclass(frozen=True)
class RandomStructureConfig:
    """Seeded recipe for a random information structure plus target event."""

    seed: int
    num_states: int = 8
    uniform_measure: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.num_states <= EXHAUSTIVE_STATE_LIMIT:
            raise ValueError(f"num_states must be in 1..{EXHAUSTIVE_STATE_LIMIT}")


def _random_partition(rng: random.Random, num_states: int) -> Partition:
    max_blocks = rng.randint(1, num_states)
    labels = [rng.randrange(max_blocks) for _ in range(num_states)]
    remap: dict[int, int] = {}
    block_of = []
    members: list[set[int]] = []
    for index, label in enumerate(labels):
        if label not in remap:
            remap[label] = len(members)
            members.append(set())
        block_id = remap[label]
        members[block_id].add(index)
        block_of.append(block_id)
    return Partition(tuple(frozenset(m) for m in members), tuple(block_of))


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


class _BeliefTables:
    """Integer-weight belief arithmetic shared by both oracle routes."""

    def __init__(self, structure: InformationStructure, target: Event):
        self.structure = structure
        self.target = target
        n = len(structure)
        denom = math.lcm(*(m.denominator for m in structure.space.measures))
        self.weights = [int(m * denom) for m in structure.space.measures]
        self.block_at = [
            [structure.block(player, state) for state in range(n)] for player in (0, 1)
        ]
        self._block_weight: dict[frozenset[int], int] = {}
        self._belief_cache: dict[tuple[Event, frozenset[int]], Fraction] = {}
        self._level_cache: dict[Event, Fraction] = {}
        self.target_belief = [
            [self.belief_in_block(target, self.block_at[player][state]) for state in range(n)]
            for player in (0, 1)
        ]

    def _weight(self, members) -> int:
        return sum(self.weights[index] for index in members)

    def belief_in_block(self, event: Event, block: frozenset[int]) -> Fraction:
        key = (event, block)
        cached = self._belief_cache.get(key)
        if cached is None:
            if block not in self._block_weight:
                self._block_weight[block] = self._weight(block)
            cached = Fraction(self._weight(event & block), self._block_weight[block])
            self._belief_cache[key] = cached
        return cached

    def belief(self, player: int, event: Event, state: int) -> Fraction:
        return self.belief_in_block(event, self.block_at[player][state])

    def level(self, event: Event) -> Fraction:
        """min over members and players of min(belief in event, belief in target)."""
        cached = self._level_cache.get(event)
        if cached is not None:
            return cached
        best = Fraction(1)
        for player in (0, 1):
            for state in event:
                value = min(
                    self.belief(player, event, state), self.target_belief[player][state]
                )
                if value < best:
                    best = value
        self._level_cache[event] = best
        return best


# One entry: callers query one structure at a time, and an entry holds a belief
# and a level for every event scanned, up to 2^n of them.
@lru_cache(maxsize=1)
def _tables(structure: InformationStructure, target: Event) -> _BeliefTables:
    return _BeliefTables(structure, target)


def _all_nonempty_events(n: int) -> list[Event]:
    return [
        frozenset(i for i in range(n) if mask >> i & 1) for mask in range(1, 1 << n)
    ]


def brute_force_common_p_belief(
    structure: InformationStructure, target: Event, player: int, state: int
) -> Fraction:
    """Definitional answer by exhaustive scan over every nonempty event.

    An event E supports level p exactly when p <= level(E) and the player's
    belief in E is >= p, so the answer is max over E of min(level(E),
    belief(E)).  Exponential in the state count; capped at 12 states.
    """
    n = len(structure)
    if n > EXHAUSTIVE_STATE_LIMIT:
        raise ValueError(f"exhaustive oracle is capped at {EXHAUSTIVE_STATE_LIMIT} states, got {n}")
    tables = _tables(structure, target)
    best = Fraction(0)
    for event in _all_nonempty_events(n):
        candidate = min(tables.level(event), tables.belief(player, event, state))
        if candidate > best:
            best = candidate
    return best


def largest_p_evident_indicating_event(
    structure: InformationStructure, target: Event, level: Fraction
) -> Event:
    """Largest event whose members all hold belief >= level in it and in the target.

    Computed by batch-removing violators from the full space until stable;
    may be empty.  Weak inequality, in contrast to super_p_evident's strict one.
    """
    tables = _tables(structure, target)
    current: Event = structure.universe()
    while current:
        survivors = frozenset(
            state
            for state in current
            if all(
                tables.belief(player, current, state) >= level
                and tables.target_belief[player][state] >= level
                for player in (0, 1)
            )
        )
        if survivors == current:
            break
        current = survivors
    return current


def _candidate_levels(structure: InformationStructure, target: Event) -> tuple[Fraction, ...]:
    """Every realizable conditional-belief value, descending, plus 0 and 1.

    Any achievable answer is a ratio of a subset-sum of block weights to the
    block weight, so per-block subset sums enumerate the complete candidate
    set exactly (the sums dedupe to at most block-weight + 1 values).
    """
    tables = _tables(structure, target)
    candidates = {Fraction(0), Fraction(1)}
    for player in (0, 1):
        for block in structure.partitions[player].blocks:
            block_weight = sum(tables.weights[i] for i in block)
            sums = {0}
            for index in block:
                sums |= {s + tables.weights[index] for s in sums}
            candidates.update(Fraction(s, block_weight) for s in sums)
    return tuple(sorted(candidates, reverse=True))


def fixedpoint_common_p_belief(
    structure: InformationStructure, target: Event, player: int, state: int
) -> Fraction:
    """Candidate-level oracle: largest realizable p whose largest p-evident
    target-indicating event the player still considers possible at >= p.

    Polynomial per candidate, so usable well past the exhaustive route's
    12-state cap; the two routes must agree wherever both run.
    """
    tables = _tables(structure, target)
    for level in _candidate_levels(structure, target):
        event = largest_p_evident_indicating_event(structure, target, level)
        if event and tables.belief(player, event, state) >= level:
            return level
    return Fraction(0)


def structure_to_json(structure: InformationStructure, target: Event) -> dict:
    """World-model-free dump used by the fuzz command's counterexample output."""
    return {
        "states": [list(state) for state in structure.space.states],
        "measures": [format_rational(m) for m in structure.space.measures],
        "partitions": [
            [sorted(block) for block in partition.blocks]
            for partition in structure.partitions
        ],
        "target": sorted(target),
    }
