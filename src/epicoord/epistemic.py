"""The exact engine for graded common belief over finite information structures.

`InformationStructure` owns the engine's belief arithmetic: it reads its state
weights from the space, which scales the measures once to integer weights
over their common denominator when it is built, so a belief is a ratio of
integer sums over one information set.  A structure is hashed on those
integer weights and its block maps, not on its measures.  It also numbers
both players' blocks once, player 0's first, and keeps, for each numbered
block, its integer weight, summed in one pass over the states, and the
integer weight of its overlap with each companion block it meets; the
ladder's peel and the level-k strategies both work on that one numbering.
Each structure keeps one memo, keyed by target, holding one value per
target: its `EvidentLadder`, built only for a target checked against the
space.  The ladder carries the table its peel starts from, `on_target`: how
much of each block lies on the target, summed in one pass over the target's
states.  The level-k steps, the certainty heuristics and the attack game
read that table, and a block is certain of the target exactly when its
weight on the target equals its weight.  Each ladder also keeps `game`'s
level-k tables for its target, `_level_tables`, one per payoffs, and the
matched companion's per-block A-weights, `_matched_sums`, so they are freed
with it; the memo and each ladder's tables keep at most `CACHE_SIZE`
entries by one rule, `_remember`.

The central construction is the nested sequence of maximally evident
target-indicating events: starting from the full space, repeatedly shrink to
the largest subset whose members all hold strictly higher belief in both the
subset and the target than the current evidence level.  The sequence is
finite, unique, and player-independent, so it is stored as each state's
depth; a player's perceived maximal common belief at a state is the level of
the deepest depth in the player's information set.  Everything here is exact,
with no epsilons, because weak-vs-strict inequality is load-bearing.

A belief depends on the state only through the information set, so the
ladder is one integer peel over blocks, from the full space to empty, that
removes each state once and picks each rung's blocks from a heap of their
floor keys (`_build_ladder`).  It marks each state's depth as it removes
the state, keeps the rung at which each block loses its last survivor and
builds each player's row of answers from that record, so a
`common_p_belief` query is one memo read and one row lookup.  The
per-state definitions the peel is checked against live in `oracle`, which
reads none of these tables.

Every public query reads each event or target argument once, at entry,
through `InformationStructure._event`, which freezes any iterable of state
indices and refuses one outside the space; a query with a memo freezes for
the key and checks on a miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush

from .worldmodel import (
    Partition,
    StateSpace,
    WorldModelSpec,
    build_information_partition,
    enumerate_states,
)

Event = frozenset[int]

# Entries kept in a structure's memo of ladders and in each ladder's level-k
# tables (`_remember`), and by `from_world_model`'s cache, keyed on a whole model.
CACHE_SIZE = 64

# Bits of the floor key the ladder's peel keeps per block in its heap, read when a
# ladder is built.  Any width gives the same answers: blocks that share the least
# key are compared exactly, and the losers go back on the heap.  At 62 bits two
# distinct beliefs share a key only when block totals reach 2**31, so a rung
# almost never pushes a loser back.
_KEY_BITS = 62


def _entry(rows, player: int, state: int):
    """`rows[player][state]`, for two rows of equal length, one per player.

    A bad player, then a bad state (a negative one too), raises `IndexError`
    before any row is read, so no index wraps to another entry.  Only an
    exact `int` is a player or a state: a `bool` is an int to Python, and it
    is refused with a float, a string or `None`.
    """
    if type(player) is not int or player not in (0, 1):
        raise IndexError(f"player must be 0 or 1, got {player!r}")
    if type(state) is not int or not 0 <= state < len(rows[0]):
        raise IndexError(f"state index {state!r} out of range 0..{len(rows[0]) - 1}")
    return rows[player][state]


def _remember(memo: dict, key, value):
    """Store `value` under `key` in `memo` and return it; at `CACHE_SIZE` entries the oldest is dropped first."""
    if len(memo) >= CACHE_SIZE:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


@dataclass(frozen=True)
class InformationStructure:
    """A finite state space with an exact measure and one partition per player."""

    space: StateSpace
    partitions: tuple[Partition, Partition]

    def __post_init__(self) -> None:
        if not isinstance(self.space, StateSpace):
            raise ValueError(f"space must be a StateSpace, got {type(self.space).__name__}")
        object.__setattr__(self, "partitions", tuple(self.partitions))
        if len(self.partitions) != 2:
            raise ValueError("exactly two player partitions are required")
        for player, partition in enumerate(self.partitions):
            if not isinstance(partition, Partition):
                raise ValueError(f"partition for player {player} must be a Partition, got {type(partition).__name__}")
            if len(partition.block_of) != len(self.space.states):
                raise ValueError(f"partition for player {player} does not cover the state space")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # Computed once: the oracle's three `lru_cache`s and callers' dicts hash a structure.
        # The measures sum to 1, so equal structures have equal integer weights
        # and equal block maps; hashing those integers skips the modular
        # inverse `Fraction.__hash__` takes per state.
        return hash((self._weights, *(partition.block_of for partition in self.partitions)))

    @cached_property
    def _memo(self) -> dict[Event, EvidentLadder]:
        """This structure's `EvidentLadder` for each target met lately, oldest first (`evident_ladder`)."""
        return {}

    @cached_property
    def _weights(self) -> tuple[int, ...]:
        """Each state's measure times the least common denominator of all of them, as the space keeps them."""
        return self.space._weights

    @cached_property
    def _blocks(self) -> tuple[frozenset[int], ...]:
        """Both players' blocks under one numbering: player 0's in order, then player 1's."""
        return self.partitions[0].blocks + self.partitions[1].blocks

    @cached_property
    def _block_ids(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """`_block_ids[player][state]`: the number, in `_blocks`, of `player`'s block holding `state`."""
        first, second = self.partitions
        return first.block_of, tuple(map(len(first.blocks).__add__, second.block_of))

    def _block_weights(self, states) -> tuple[int, ...]:
        """The integer weight in `states`, checked state indices, of each block of `_blocks`.

        One pass over `states` credits each state's weight to the block holding
        it in both rows of `_block_ids`.
        """
        weights, (first, second) = self._weights, self._block_ids
        table = [0] * len(self._blocks)
        for state in states:
            weight = weights[state]
            table[first[state]] += weight
            table[second[state]] += weight
        return tuple(table)

    @cached_property
    def _totals(self) -> tuple[int, ...]:
        """The integer weight of each block of `_blocks`: the full space's `_block_weights`."""
        return self._block_weights(range(len(self.space.states)))

    @cached_property
    def _overlaps(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each block of `_blocks`: each companion block it meets, by number, with the overlap's integer weight."""
        weights = self._weights
        overlaps = []
        for partition, companion in zip(self.partitions, self._block_ids[::-1]):
            for block in partition.blocks:
                groups: dict[int, int] = {}
                for state in block:
                    groups[companion[state]] = groups.get(companion[state], 0) + weights[state]
                overlaps.append(tuple(groups.items()))
        return tuple(overlaps)

    def __len__(self) -> int:
        return len(self.space.states)

    @cached_property
    def _universe(self) -> Event:
        return frozenset(range(len(self.space.states)))

    def universe(self) -> Event:
        """Every state index, as one frozenset built once per structure."""
        return self._universe

    def _event(self, states, what: str) -> Event:
        """`states`, any iterable of state indices, frozen once; an index outside the space is refused."""
        states = frozenset(states)
        if not self._universe.issuperset(states):
            raise ValueError(f"{what} references state indices outside the space")
        return states

    def _block_id(self, player: int, state: int) -> int:
        """The number, in `_blocks`, of `player`'s block holding state index `state`.

        A bad player or state raises `_entry`'s `IndexError`.
        """
        return _entry(self._block_ids, player, state)

    def block(self, player: int, state: int) -> frozenset[int]:
        """The information set of `player` containing state index `state`."""
        return self._blocks[self._block_id(player, state)]

    def measure_of(self, event: Event) -> Fraction:
        event, weights = self._event(event, "event"), self._weights
        # The measures sum to 1, so the weights sum to their common denominator.
        return Fraction(sum(map(weights.__getitem__, event)), sum(weights))


@lru_cache(maxsize=CACHE_SIZE)
def from_world_model(spec: WorldModelSpec) -> InformationStructure:
    """Enumerate a world model's states and build both players' partitions."""
    space = enumerate_states(spec)
    return InformationStructure(
        space,
        (
            build_information_partition(spec, space, 0),
            build_information_partition(spec, space, 1),
        ),
    )


@dataclass(frozen=True)
class LadderRung:
    event: Event
    level: Fraction


@dataclass(frozen=True)
class EvidentLadder:
    """The nested maximally evident target-indicating events, shallowest first.

    Stored as `depth[s]`, the index of the deepest rung containing state `s`,
    and one level per rung: rung k is the states of depth >= k.  Rung 0 is the
    full space; each later rung is a strict subset of its predecessor with a
    strictly larger evidence level.  `block_depth[b]` is the deepest rung
    meeting block b of the structure's `_blocks` (player 0's blocks, then
    player 1's): the largest depth among the block's members, which is the
    rung at which the peel empties the block.

    `answers[player][state]` is `levels[block_depth[b]]` for `player`'s block b
    holding `state`, the `common_p_belief` answer, built once with the ladder.
    `on_target[b]` is block b's integer weight on the target, the table the
    peel starts from, which the level-k steps, the certainty heuristics and
    the attack game read.  Both follow from the structure and the target, so
    they take no part in equality, hashing or the repr; nor do
    `_level_tables`, the level-k tables `game` keeps for the target, and
    `_matched_sums`, the per-block A-weights of the probability-matching
    companion that `game` stores once it has summed them.
    """

    depth: tuple[int, ...]
    levels: tuple[Fraction, ...]
    block_depth: tuple[int, ...]
    answers: tuple[tuple[Fraction, ...], tuple[Fraction, ...]] = field(compare=False, repr=False)
    on_target: tuple[int, ...] = field(compare=False, repr=False)
    _matched_sums: tuple | None = field(default=None, init=False, compare=False, repr=False)

    @cached_property
    def _level_tables(self) -> dict:
        """`game`'s level-k tables of this target, under `payoffs._integers` or None for matching, oldest first."""
        return {}

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.rungs)

    @property
    def rungs(self) -> tuple[LadderRung, ...]:
        return tuple(
            LadderRung(frozenset(s for s, d in enumerate(self.depth) if d >= k), level)
            for k, level in enumerate(self.levels)
        )


def evident_ladder(structure: InformationStructure, target: Event) -> EvidentLadder:
    """Walk the full nested sequence of maximally evident target-indicating events.

    Any iterable of state indices is a target.  The ladder is built once
    per (structure, target) by `_build_ladder`, after the target is checked
    against the space, and kept in the structure's memo, which holds at most
    `CACHE_SIZE` targets and drops the oldest first (`_remember`).  It refers
    to no structure, so a structure's memo is freed with it by reference
    counting, and a ladder dropped from the memo takes its level-k tables with it.
    """
    target = frozenset(target)
    ladder = structure._memo.get(target)
    if ladder is None:
        ladder = _remember(structure._memo, target, _build_ladder(structure, structure._event(target, "target event")))
    return ladder


def _build_ladder(structure: InformationStructure, target: Event) -> EvidentLadder:
    """The ladder of `target`, a frozenset checked against the space, built
    afresh: `evident_ladder` stores it.

    One peel runs from the full space to empty, on blocks: a belief depends
    on the state only through the information set.  Each block of `_blocks`
    reads two integer weights, its total (`_totals`) and its part on the
    target (`on_target`, the target's `_block_weights`), and keeps a third,
    its part that still survives, so its weakest belief in the survivors and
    in the target is min(surviving, on_target) / total.  A state survives
    only while both of its blocks stay strictly above the level.  Each block
    also keeps a floor key, that belief times 2**_KEY_BITS rounded down: a
    smaller key means a strictly smaller belief, and equal beliefs share a key.

    The keys live in a heap of integer entries, key * B + b for block b of
    the B blocks, so the least entry holds the least key.  `entries[b]` is
    block b's one live entry, or -1 once no member survives; a popped entry
    that is not its block's live entry is stale and skipped.  Each rung pops
    the least live entry, then every live entry sharing its key, and
    compares those few blocks exactly, cross-multiplied: the least belief
    among them is the survivors' evidence level, and the blocks attaining it
    are exactly the ones failing at that level, the rung's work list; the
    others are pushed back.  A popped block loses all its survivors; each
    removal lowers the surviving weight of the other player's block holding
    the state, read from the companion row of `_block_ids` (player 1's for
    player 0's blocks, and the other way round), and only that block, if its
    belief fell, is checked again, queued if it is now at or below the level
    and re-keyed if not, which pushes a new entry only when its entry
    changes.  The states peeled at a rung are the ones whose deepest rung it
    is, so each state is removed once and pushes at most one entry, and a
    ladder costs O((n + blocks) log blocks), plus one push per loser of a
    shared key, which at 62 bits needs block totals of 2**31.  A rung that
    removes no state would loop forever, so it raises `RuntimeError` instead.

    A state's depth is the rung that removes it, written in `depth` as it
    leaves: the rung whose work list holds the first of its two blocks to be
    popped.  The peel records, in `died`, the rung at which each block loses
    its last survivor, where the block is popped or where its companions'
    removals empty it, and that is the block's deepest rung, `block_depth`.
    A popped block empties at its rung and no block empties before all its
    states have left, so a state's depth is always the lesser of its two
    blocks' dying rungs.  The answer rows, `levels[block_depth[b]]` at each
    (player, state), are built here too, so a query is one lookup.
    """
    on_target, total = structure._block_weights(target), structure._totals
    weights, blocks, block_ids = structure._weights, structure._blocks, structure._block_ids
    first_count, count = len(structure.partitions[0].blocks), len(blocks)
    bits = _KEY_BITS
    # Every block survives whole, so its weakest belief is its part on the target.
    surviving = list(total)
    entries = [(on << bits) // weight * count + b for b, (on, weight) in enumerate(zip(on_target, total))]
    heap = entries.copy()
    heapify(heap)
    depth = [-1] * len(structure)
    died = [0] * count
    levels: list[Fraction] = []
    remaining = len(structure)
    while remaining:
        rung = len(levels)
        # The least live entry holds the least key; every live entry below `limit` shares it.
        entry = heappop(heap)
        b = entry % count
        while entries[b] != entry:
            entry = heappop(heap)
            b = entry % count
        limit = entry - b + count
        tied = [b]
        while heap and heap[0] < limit:
            entry = heappop(heap)
            b = entry % count
            if entries[b] == entry:
                tied.append(b)
        low, low_total, work, losers = 1, 1, [], []
        for b in tied:
            held = surviving[b]
            if on_target[b] < held:
                held = on_target[b]
            # held / total[b] against low / low_total, cross-multiplied.
            this, least = held * low_total, low * total[b]
            if this < least:
                losers += work
                low, low_total, work = held, total[b], [b]
            elif this == least:
                work.append(b)
            else:
                losers.append(b)
        for b in losers:
            heappush(heap, entries[b])
        removed = 0
        while work:
            b = work.pop()
            companion = block_ids[b < first_count]
            for state in blocks[b]:
                if depth[state] < 0:
                    depth[state] = rung
                    removed += 1
                    weight = weights[state]
                    surviving[b] -= weight
                    other = companion[state]
                    surviving[other] -= weight
                    # Only a block left lighter than its part on the target loses belief,
                    # and its least belief is then its surviving weight; any other one
                    # stays above the level or is queued already.
                    if surviving[other] < on_target[other]:
                        if not surviving[other]:
                            entries[other] = -1
                            died[other] = rung
                        elif surviving[other] * low_total <= low * total[other]:
                            work.append(other)
                        else:
                            entry = (surviving[other] << bits) // total[other] * count + other
                            if entry != entries[other]:
                                entries[other] = entry
                                heappush(heap, entry)
            entries[b] = -1
            died[b] = rung
        level = Fraction(low, low_total)
        if not removed:
            raise RuntimeError(f"ladder rung {rung} at level {level} removed no state")
        levels.append(level)
        remaining -= removed
    first, second = block_ids
    block_levels = tuple(map(levels.__getitem__, died))
    answers = (tuple(map(block_levels.__getitem__, first)), tuple(map(block_levels.__getitem__, second)))
    return EvidentLadder(tuple(depth), tuple(levels), tuple(died), answers, on_target)


def common_p_belief(structure: InformationStructure, target: Event, player: int, state: int) -> Fraction:
    """Largest p such that `player` p-believes at `state` that `target` is common p-belief.

    Equals the evidence level of the deepest ladder rung that intersects the
    player's information set; since all states carry positive measure, a
    nonempty intersection is exactly positive belief.  Depends on `state`
    only through the player's block, so the ladder builds every answer once,
    `levels[block_depth[_block_id(player, state)]]`, and a query reads its
    row, `answers[player][state]`, from the target's ladder in the
    structure's memo.  It goes through `evident_ladder` only when that read
    fails: no ladder yet (`KeyError`) or a target that is not hashable, such
    as a `set` (`TypeError`).
    A bad target raises `ValueError` first; then a bad player or state raises
    `_entry`'s `IndexError`, so no negative index reads another entry.
    """
    try:
        answers = structure._memo[target].answers
    except (KeyError, TypeError):
        answers = evident_ladder(structure, target).answers
    # `_entry`'s check inline, and `_entry` only to raise: a call on every query costs ladder-large ops/s.
    # Only an exact int takes this path; anything else, a `bool` too, goes through `_entry`.
    if type(player) is int and type(state) is int and player in (0, 1) and 0 <= state < len(answers[0]):
        return answers[player][state]
    return _entry(answers, player, state)

