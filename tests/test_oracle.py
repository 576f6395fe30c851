import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from epicoord import (
    InformationStructure,
    Partition,
    PayoffParams,
    RandomStructureConfig,
    StateSpace,
    brute_force_common_p_belief,
    cognitive_strategy,
    common_p_belief,
    conditional_belief,
    evidence_level,
    fixedpoint_common_p_belief,
    from_world_model,
    is_c_indicating,
    is_p_evident,
    iterated_matching,
    iterated_maximization_prob,
    largest_p_evident_indicating_event,
    matched_p_belief_prob,
    min_belief,
    pair_heuristic,
    private_heuristic,
    random_structure,
    rational_p_belief_action,
    super_p_evident,
    x_event,
)
from epicoord.oracle import (
    EXHAUSTIVE_STATE_LIMIT,
    _block_answers,
    _fixedpoint_answers,
    _integer_weights,
    _weighed_blocks,
    structure_to_json,
)

from .conftest import email_chain
from .test_worldmodel import observed_specs


# Each query gets a set holding one index outside the space, as its target or event.
OUTSIDE_QUERIES = {
    "common_p_belief": lambda structure, outside, target: common_p_belief(structure, outside, 0, 0),
    "brute_force": lambda structure, outside, target: brute_force_common_p_belief(structure, outside, 0, 0),
    "fixedpoint": lambda structure, outside, target: fixedpoint_common_p_belief(structure, outside, 0, 0),
    "super_p_evident": lambda structure, outside, target: super_p_evident(structure, outside, target, Fraction(1, 2)),
    "evidence_level": lambda structure, outside, target: evidence_level(structure, outside, target),
    "measure_of": lambda structure, outside, target: structure.measure_of(outside),
    "conditional_belief": lambda structure, outside, target: conditional_belief(structure, 0, outside, 0),
    "min_belief-event": lambda structure, outside, target: min_belief(structure, outside, target, 0),
    "min_belief-target": lambda structure, outside, target: min_belief(structure, frozenset({0}), outside, 0),
    "largest_p_evident": lambda structure, outside, target: largest_p_evident_indicating_event(
        structure, outside, Fraction(0)
    ),
    "is_c_indicating": lambda structure, outside, target: is_c_indicating(
        structure, structure.universe(), outside, Fraction(0)
    ),
    "iterated_matching": lambda structure, outside, target: iterated_matching(structure, outside, 1, 0, 0),
    "iterated_maximization_prob": lambda structure, outside, target: iterated_maximization_prob(
        structure, outside, PayoffParams(1, 0, Fraction(1, 2), 0), 1, 0, 0
    ),
    "private_heuristic": lambda structure, outside, target: private_heuristic(structure, outside, 0, 0),
    "pair_heuristic": lambda structure, outside, target: pair_heuristic(structure, outside, 0, 0),
}


@pytest.mark.parametrize("query", OUTSIDE_QUERIES.values(), ids=OUTSIDE_QUERIES.keys())
@pytest.mark.parametrize("where", ["negative", "past-end"])
def test_indices_outside_the_space_rejected(query, where):
    structure, target = random_structure(RandomStructureConfig(seed=3, num_states=6))
    outside = frozenset({-1 if where == "negative" else len(structure)})
    with pytest.raises(ValueError, match="references state indices outside the space"):
        query(structure, outside, target)


def at_every_state(answer, *args):
    """A query asking `answer(structure, fresh(), *args, player, state)` at every (player, state)."""
    return lambda structure, fresh: [
        answer(structure, fresh(), *args, player, state) for player in (0, 1) for state in range(len(structure))
    ]


def each_level(answer):
    """A query asking `answer(structure, fresh(), level)` at each of `LEVELS`."""
    return lambda structure, fresh: [answer(structure, fresh(), level) for level in LEVELS]


PAYOFFS = PayoffParams(1, 0, Fraction(1, 3), 0)  # risk threshold 1/3

# Levels at which a yes-or-no query is asked, so that it meets both answers.
LEVELS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))

# The ways of spelling an event besides a frozenset.
SPELLINGS = {
    "set": set,
    "list": list,
    "reversed list with a repeated index": lambda states: [*sorted(states, reverse=True), min(states)],
    "generator": lambda states: (state for state in states),
}

# Each query takes `fresh`, which spells the drawn target anew on every call, as the
# target or as the event named in the key; every spelling must answer as the frozenset.
SET_TARGET_QUERIES = {
    "super_p_evident": lambda structure, fresh: super_p_evident(structure, structure.universe(), fresh(), Fraction(1, 3)),
    "evidence_level": lambda structure, fresh: evidence_level(structure, structure.universe(), fresh()),
    "private_heuristic": at_every_state(private_heuristic),
    "pair_heuristic": at_every_state(pair_heuristic),
    "cognitive_strategy": at_every_state(cognitive_strategy, PAYOFFS),
    "is_c_indicating": lambda structure, fresh: is_c_indicating(
        structure, structure.universe(), fresh(), Fraction(1, 3)
    ),
    "common_p_belief": at_every_state(common_p_belief),
    "rational_p_belief_action": at_every_state(rational_p_belief_action, PAYOFFS),
    "matched_p_belief_prob": at_every_state(matched_p_belief_prob),
    "iterated_maximization_prob": at_every_state(iterated_maximization_prob, PAYOFFS, 2),
    "iterated_matching": at_every_state(iterated_matching, 2),
    # The exhaustive oracle answers only within its state cap.
    "brute_force_common_p_belief": lambda structure, fresh: len(structure) <= EXHAUSTIVE_STATE_LIMIT
    and at_every_state(brute_force_common_p_belief)(structure, fresh),
    "fixedpoint_common_p_belief": at_every_state(fixedpoint_common_p_belief),
    "measure_of-event": lambda structure, fresh: structure.measure_of(fresh()),
    "conditional_belief-event": lambda structure, fresh: [
        conditional_belief(structure, player, fresh(), state) for player in (0, 1) for state in range(len(structure))
    ],
    "min_belief-event": lambda structure, fresh: [
        min_belief(structure, fresh(), structure.universe(), state) for state in range(len(structure))
    ],
    "min_belief-target": lambda structure, fresh: [
        min_belief(structure, structure.universe(), fresh(), state) for state in range(len(structure))
    ],
    "evidence_level-event": lambda structure, fresh: evidence_level(structure, fresh(), structure.universe()),
    "super_p_evident-event": each_level(
        lambda structure, event, level: super_p_evident(structure, event, structure.universe(), level)
    ),
    "is_p_evident-event": each_level(is_p_evident),
    "is_c_indicating-event": each_level(
        lambda structure, event, level: is_c_indicating(structure, event, frozenset(range(0, len(structure), 2)), level)
    ),
    "largest_p_evident_indicating_event": each_level(largest_p_evident_indicating_event),
}


@pytest.mark.parametrize("query", SET_TARGET_QUERIES.values(), ids=SET_TARGET_QUERIES.keys())
def test_set_targets_answer_as_frozensets(query):
    for seed in range(8):
        structure, target = random_structure(RandomStructureConfig(seed=seed, num_states=6 + seed))
        expected = query(structure, lambda: target)
        for spelling, spell in SPELLINGS.items():
            assert query(structure, lambda: spell(target)) == expected, (seed, spelling)


def test_each_argument_is_checked_once(monkeypatch):
    structure, target = random_structure(RandomStructureConfig(seed=0, num_states=12))
    event = structure.universe()
    calls = []
    check = InformationStructure._event
    monkeypatch.setattr(
        InformationStructure, "_event", lambda self, states, what: calls.append(what) or check(self, states, what)
    )
    for query in (
        lambda: min_belief(structure, event, target, 0),
        lambda: evidence_level(structure, event, target),
        lambda: super_p_evident(structure, event, target, Fraction(1, 2)),
        lambda: is_c_indicating(structure, event, target, Fraction(0)),
    ):
        calls.clear()
        query()
        assert calls == ["event", "target event"]


# Each query takes a level, read exactly once its events are read.
LEVEL_QUERIES = {
    "super_p_evident": super_p_evident,
    "is_p_evident": lambda structure, event, target, level: is_p_evident(structure, event, level),
    "is_c_indicating": is_c_indicating,
    "largest_p_evident_indicating_event": lambda structure, event, target, level: (
        largest_p_evident_indicating_event(structure, target, level)
    ),
}


@pytest.mark.parametrize("query", LEVEL_QUERIES.values(), ids=LEVEL_QUERIES.keys())
def test_levels_are_read_exactly(query):
    structure, target = random_structure(RandomStructureConfig(seed=0, num_states=6))
    event = structure.universe()
    assert query(structure, event, target, "1/2") == query(structure, event, target, Fraction(1, 2))
    refused = {
        0.5: "level: refusing inexact float",
        "half": "level: not a rational number",
        True: "level: refusing boolean",
        Fraction(-1, 2): r"level must lie in \[0, 1\], got -1/2",
        Fraction(3, 2): r"level must lie in \[0, 1\], got 3/2",
    }
    for level, message in refused.items():
        with pytest.raises(ValueError, match=message):
            query(structure, event, target, level)
    outside = frozenset({len(structure)})
    with pytest.raises(ValueError, match="references state indices outside the space"):
        query(structure, outside, outside, 0.5)


def single_state_structure():
    space = StateSpace(((1,),), (Fraction(1),))
    partition = Partition((frozenset({0}),), (0,))
    return InformationStructure(space, (partition, partition))


class TestBruteForce:
    def test_loudspeaker_broadcast_state(self, loudspeaker, loudspeaker_target):
        index = loudspeaker.space.index_of((1, 1))
        assert brute_force_common_p_belief(loudspeaker, loudspeaker_target, 0, index) == 1

    def test_full_space_target(self, loudspeaker):
        universe = loudspeaker.universe()
        for player in (0, 1):
            for state in range(len(loudspeaker)):
                assert brute_force_common_p_belief(loudspeaker, universe, player, state) == 1

    def test_singleton_space(self):
        structure = single_state_structure()
        assert brute_force_common_p_belief(structure, frozenset({0}), 0, 0) == 1
        assert brute_force_common_p_belief(structure, frozenset(), 0, 0) == 0

    def test_size_cap(self, messenger, messenger_target):
        with pytest.raises(ValueError, match="capped"):
            brute_force_common_p_belief(messenger, messenger_target, 0, 0)


def reference_block_answers(structure, target):
    """The exhaustive answer of every (player, block), visiting every block for every event.

    The per-event, per-block loop that `_block_answers` replaced, kept as its
    reference: O(2^n * blocks), with fractions as (numerator, denominator)
    pairs compared by cross-multiplying.
    """
    structure._event(target, "target event")
    n = len(structure)
    weights = _integer_weights(structure)
    sums = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + weights[low.bit_length() - 1]
    weighed = _weighed_blocks(structure, target, weights)
    blocks = [(sum(1 << i for i in block), weight, on_target) for _, block, weight, on_target in weighed]
    best = [(0, 1)] * len(blocks)
    for event in range(1, 1 << n):
        level, level_weight = 1, 1
        met = []
        for index, (mask, weight, on_target) in enumerate(blocks):
            inside = sums[event & mask]
            if inside:
                part = min(inside, on_target)
                if part * level_weight < level * weight:
                    level, level_weight = part, weight
                met.append(index)
        for index in met:
            kept, kept_weight = best[index]
            if level * kept_weight > kept * level_weight:
                best[index] = level, level_weight
    return {(player, block): Fraction(*answer) for (player, block, _, _), answer in zip(weighed, best)}


def assert_table_matches_reference(structure, target):
    """The drawn target, the empty one and the full space give the reference's table."""
    for event in (target, frozenset(), structure.universe()):
        assert _block_answers.__wrapped__(structure, event) == reference_block_answers(structure, event)


def literal_level(structure, target, event):
    """level(E), from the measures: the least min(mu(E | B), mu(T | B)) over the
    blocks B of either player that meet E."""
    measures = structure.space.measures

    def mu(states):
        return sum((measures[s] for s in states), Fraction(0))

    return min(
        min(mu(event & block), mu(target & block)) / mu(block)
        for partition in structure.partitions
        for block in partition.blocks
        if event & block
    )


def met_blocks(structure, event):
    """The (player, block) pairs whose block meets `event`."""
    return {
        (player, block)
        for player, partition in enumerate(structure.partitions)
        for block in partition.blocks
        if block & event
    }


def cell_closure(structure, event):
    """Every state of every cell that `event` meets, a cell being one block of each player intersected."""
    first, second = ({s: block for block in partition.blocks for s in block} for partition in structure.partitions)
    return frozenset().union(*(first[s] & second[s] for s in event))


@pytest.mark.parametrize("size", range(1, 9))
def test_the_cell_closure_dominates_the_event(size):
    """The lemma behind `_block_answers`: the cell closure of an event holds it,
    meets the same blocks, and has at least its level."""
    for seed in range(6):
        structure, target = random_structure(RandomStructureConfig(seed=seed, num_states=size))
        for mask in range(1, 1 << size):
            event = frozenset(s for s in range(size) if mask >> s & 1)
            closure = cell_closure(structure, event)
            assert event <= closure
            assert met_blocks(structure, closure) == met_blocks(structure, event)
            assert literal_level(structure, target, closure) >= literal_level(structure, target, event)


def meet_components(structure):
    """Aumann's meet as sets of states: both players' blocks, merged wherever two overlap."""
    components = []
    for partition in structure.partitions:
        for block in partition.blocks:
            merged = set(block)
            apart = []
            for component in components:
                if component & merged:
                    merged |= component
                else:
                    apart.append(component)
            components = apart + [frozenset(merged)]
    return components


@pytest.mark.parametrize("size", range(1, 9))
def test_a_union_is_as_low_as_its_lowest_component_part(size):
    """The lemma behind `_block_answers`' split: the parts of an event in
    different meet components meet disjoint blocks, each only its own
    component's, so the event's level is the least of its parts' levels."""
    split = 0
    for seed in range(12):
        structure, target = random_structure(RandomStructureConfig(seed=seed, num_states=size))
        components = meet_components(structure)
        split += len(components) > 1
        for mask in range(1, 1 << size):
            event = frozenset(s for s in range(size) if mask >> s & 1)
            parts = [(event & component, component) for component in components if event & component]
            for part, component in parts:
                assert all(block <= component for _, block in met_blocks(structure, part))
            assert literal_level(structure, target, event) == min(
                literal_level(structure, target, part) for part, _ in parts
            )
    # From three states on, some of these seeds draw more than one component.
    assert split or size < 3


class TestBlockAnswers:
    @pytest.mark.parametrize("uniform", [False, True], ids=["weighted", "uniform"])
    @pytest.mark.parametrize("size", range(1, EXHAUSTIVE_STATE_LIMIT + 1))
    def test_matches_the_per_block_loop(self, size, uniform):
        for seed in range(40):
            config = RandomStructureConfig(seed=seed, num_states=size, uniform_measure=uniform)
            assert_table_matches_reference(*random_structure(config))

    @given(observed_specs())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_per_block_loop_on_world_models(self, spec):
        structure = from_world_model(spec)
        assume(len(structure) <= EXHAUSTIVE_STATE_LIMIT)
        assert_table_matches_reference(structure, x_event(spec, structure.space))

    @pytest.mark.parametrize("variables", range(1, 11))
    def test_matches_the_per_block_loop_on_email_chains(self, variables):
        for delta in (Fraction(1, 20), Fraction(1, 4), Fraction(2, 3)):
            for loss in (Fraction(1, 10), Fraction(1, 2), Fraction(19, 20)):
                spec = email_chain(variables, delta, loss)
                structure = from_world_model(spec)
                assert_table_matches_reference(structure, x_event(spec, structure.space))

    @pytest.mark.parametrize(
        "first,second",
        [
            ("coarse", "coarse"),
            ("fine", "fine"),
            ("coarse", "fine"),
            ("largest-first", "fine"),
            ("coarse", "largest-first"),
            ("largest-first", "largest-first"),
        ],
    )
    def test_table_sizes_at_the_extremes(self, first, second):
        # A single block's value table has 2^12 entries; a singleton's has two.
        # The largest-first partition lists its blocks by falling size, each
        # block's states scattered over the index range: {0, 3, 5, 7, 9, 11},
        # {1, 4, 8}, then the singletons {2}, {6} and {10}.
        labels = {
            "coarse": [0] * EXHAUSTIVE_STATE_LIMIT,
            "fine": range(EXHAUSTIVE_STATE_LIMIT),
            "largest-first": [0, 1, 2, 0, 1, 0, 3, 0, 1, 0, 4, 0],
        }
        partitions = (Partition.from_labels(labels[first]), Partition.from_labels(labels[second]))
        for seed in range(3):
            drawn, target = random_structure(RandomStructureConfig(seed=seed, num_states=EXHAUSTIVE_STATE_LIMIT))
            assert_table_matches_reference(InformationStructure(drawn.space, partitions), target)

    def test_a_target_that_splits_cells(self):
        # Four cells of two states each: {0, 1}, {2, 3}, {4, 5} and {6, 7}; the
        # target holds one state of each, and events of half a cell too.
        partitions = (
            Partition.from_labels((0, 0, 0, 0, 1, 1, 1, 1)),
            Partition.from_labels((0, 0, 1, 1, 1, 1, 2, 2)),
        )
        for seed in range(6):
            drawn, _ = random_structure(RandomStructureConfig(seed=seed, num_states=8))
            structure = InformationStructure(drawn.space, partitions)
            for target in (frozenset({0, 2, 4, 6}), frozenset({1, 2, 3, 5}), frozenset({7})):
                assert_table_matches_reference(structure, target)

    @pytest.mark.parametrize("finer", [0, 1])
    def test_one_partition_refines_the_other(self, finer):
        # The cells are then the finer partition's blocks.
        coarse = Partition.from_labels((0, 0, 0, 1, 1, 2, 2, 2, 2, 3, 3, 3))
        fine = Partition.from_labels((0, 1, 1, 2, 2, 3, 4, 4, 5, 6, 6, 6))
        partitions = (fine, coarse) if finer == 0 else (coarse, fine)
        for seed in range(3):
            drawn, target = random_structure(RandomStructureConfig(seed=seed, num_states=EXHAUSTIVE_STATE_LIMIT))
            assert_table_matches_reference(InformationStructure(drawn.space, partitions), target)

    @pytest.mark.parametrize(
        "first,second,targets",
        [
            # Two 6-state components: {0..5}, linked by a cycle of pairs, and {6..11}.
            (
                (0, 0, 1, 1, 2, 2, 3, 3, 3, 4, 4, 4),
                (0, 1, 1, 2, 2, 0, 3, 4, 5, 4, 5, 5),
                (frozenset({1, 2, 4}), frozenset({6, 10}), frozenset({0, 7})),
            ),
            # A single cell, states 3 and 8, beside a 10-state component.
            (
                (0, 1, 1, 9, 0, 2, 2, 3, 9, 3, 4, 4),
                (0, 1, 2, 9, 1, 2, 3, 3, 9, 4, 4, 4),
                (frozenset({3}), frozenset({3, 8}), frozenset({0, 5, 11}), frozenset({5, 8})),
            ),
        ],
        ids=["block-diagonal", "single-cell-beside-ten"],
    )
    def test_split_into_meet_components(self, first, second, targets):
        # Every target but the last of each row lies inside one component.
        partitions = (Partition.from_labels(first), Partition.from_labels(second))
        for seed in range(3):
            drawn, _ = random_structure(RandomStructureConfig(seed=seed, num_states=EXHAUSTIVE_STATE_LIMIT))
            structure = InformationStructure(drawn.space, partitions)
            assert len(meet_components(structure)) == 2
            for target in targets:
                assert_table_matches_reference(structure, target)

    def test_exact_where_the_common_scale_is_large(self):
        # Distinct prime denominators make the block weights' lcm, the table's
        # one integer scale, far wider than any single weight.
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
        measures = [Fraction(1, 2 * p) for p in primes]
        measures.append(1 - sum(measures))
        space = StateSpace(tuple((i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1) for i in range(12)), measures)
        structure = InformationStructure(
            space,
            (
                Partition.from_labels((0, 0, 0, 1, 1, 2, 2, 2, 2, 3, 3, 3)),
                Partition.from_labels((0, 1, 2, 1, 3, 0, 2, 3, 3, 0, 2, 2)),
            ),
        )
        weights = _integer_weights(structure)
        target = frozenset({0, 2, 3, 5, 8, 9, 11})
        scale = math.lcm(*(weight for _, _, weight, _ in _weighed_blocks(structure, target, weights)))
        assert scale > 2**64 * max(weights)
        for event in (target, frozenset(), structure.universe()):
            table = _block_answers.__wrapped__(structure, event)
            assert table == reference_block_answers(structure, event)
            assert table == _fixedpoint_answers.__wrapped__(structure, event)
        assert len(set(_block_answers.__wrapped__(structure, target).values())) > 2

    @pytest.mark.parametrize("size", range(1, EXHAUSTIVE_STATE_LIMIT + 1))
    def test_relabeling_the_states_relabels_the_answers(self, size):
        # The table lays each player's cells out block by block, fewest cells first,
        # so a relabeling moves every block to other bits; the answers must follow.
        for seed in range(12):
            structure, target = random_structure(RandomStructureConfig(seed=seed, num_states=size))
            order = list(range(size))
            random.Random(seed).shuffle(order)
            moved, moved_target = relabeled(structure, target, order)
            answers = _block_answers.__wrapped__(structure, target)
            moved_answers = _block_answers.__wrapped__(moved, moved_target)
            assert moved_answers == {
                (player, frozenset(order[i] for i in block)): answer for (player, block), answer in answers.items()
            }
            assert moved_answers == reference_block_answers(moved, moved_target)

    @pytest.mark.parametrize("size", range(1, EXHAUSTIVE_STATE_LIMIT + 1))
    def test_swapping_the_partitions_swaps_the_players(self, size):
        for seed in range(12):
            structure, target = random_structure(RandomStructureConfig(seed=seed, num_states=size))
            swapped = InformationStructure(structure.space, structure.partitions[::-1])
            answers = _block_answers.__wrapped__(structure, target)
            assert _block_answers.__wrapped__(swapped, target) == {
                (1 - player, block): answer for (player, block), answer in answers.items()
            }


def relabeled(structure, target, order):
    """The structure and target with state index i renamed `order[i]`, in space, partitions and target."""
    space = structure.space
    states = [None] * len(order)
    measures = [None] * len(order)
    for old, new in enumerate(order):
        states[new] = space.states[old]
        measures[new] = space.measures[old]
    partitions = []
    for partition in structure.partitions:
        block_of = [None] * len(order)
        for old, new in enumerate(order):
            block_of[new] = partition.block_of[old]
        partitions.append(Partition(tuple(frozenset(order[i] for i in block) for block in partition.blocks), block_of))
    moved = InformationStructure(StateSpace(tuple(states), tuple(measures)), tuple(partitions))
    return moved, frozenset(order[i] for i in target)


@pytest.mark.parametrize("route", [brute_force_common_p_belief, fixedpoint_common_p_belief])
@pytest.mark.parametrize("player,state", [(0, -1), (1, -1), (0, 6), (2, 0)])
def test_out_of_range_query_raises(route, player, state):
    structure, target = random_structure(RandomStructureConfig(seed=3, num_states=6))
    with pytest.raises(IndexError):
        route(structure, target, player, state)


@pytest.mark.parametrize(
    "route,num_states,message",
    [
        (brute_force_common_p_belief, 6, "target event references state indices outside the space"),
        (fixedpoint_common_p_belief, 6, "target event references state indices outside the space"),
        (brute_force_common_p_belief, 14, "exhaustive oracle is capped at 12 states, got 14"),
    ],
    ids=["brute_force-target", "fixedpoint-target", "brute_force-cap"],
)
@pytest.mark.parametrize("player,state", [(5, 0), (0, 99), (1, -1)])
def test_the_reference_checks_arguments_in_the_engine_order(route, num_states, message, player, state):
    """A bad target, and on the exhaustive route the cap, raise `ValueError` before a bad player or state."""
    structure, _ = random_structure(RandomStructureConfig(seed=3, num_states=num_states))
    with pytest.raises(ValueError, match=message):
        route(structure, {99}, player, state)
    if num_states == 6:
        with pytest.raises(ValueError, match=message):
            common_p_belief(structure, {99}, player, state)


class _Unreadable:
    """Stands in for an engine table that the reference must not read: any read fails."""

    def _refuse(self, *args):
        raise AssertionError("the reference read an engine table")

    __getitem__ = __iter__ = __len__ = __contains__ = __getattr__ = _refuse


ENGINE_TABLES = ("_weights", "_blocks", "_block_ids", "_totals", "_overlaps", "_memo")


def reference_answers(structure, target):
    """Every per-state definition and both oracles, on a fixed spread of events and levels."""
    n = len(structure)
    events = [frozenset(s for s in range(n) if s % step == rest) for step in (1, 2, 3) for rest in range(step)]
    events += [target, structure.universe() - target]
    levels = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    answers = []
    for event in events:
        answers.append([conditional_belief(structure, p, event, s) for p in (0, 1) for s in range(n)])
        answers.append([min_belief(structure, event, target, s) for s in range(n)])
        answers.append(event and evidence_level(structure, event, target))
        for level in levels:
            answers.append(super_p_evident(structure, event, target, level))
            answers.append(is_p_evident(structure, event, level))
            answers.append(is_c_indicating(structure, event, target, level))
            answers.append(largest_p_evident_indicating_event(structure, event, level))
        if event:
            for route in (brute_force_common_p_belief, fixedpoint_common_p_belief):
                answers.append([route(structure, event, p, s) for p in (0, 1) for s in range(n)])
    for player, state in ((2, 0), (0, n), (1, -1)):
        for query in (
            lambda: conditional_belief(structure, player, target, state),
            lambda: min_belief(structure, target, target, state if player < 2 else n),
            lambda: brute_force_common_p_belief(structure, target, player, state),
            lambda: fixedpoint_common_p_belief(structure, target, player, state),
        ):
            with pytest.raises(IndexError):
                query()
    return answers


@pytest.mark.parametrize("seed,size", [(11, 9), (12, 12), (13, 7)])
def test_the_reference_reads_no_engine_table(seed, size):
    """The reference reads only `space` and `partitions`: on a structure whose engine
    tables fail on any read, every per-state definition and both oracles answer as on
    an equal structure built separately."""
    config = RandomStructureConfig(seed=seed, num_states=size)
    expected = reference_answers(*random_structure(config))
    structure, target = random_structure(config)
    hash(structure)
    for name in ENGINE_TABLES:
        structure.__dict__[name] = _Unreadable()
    # Equal structures share the oracle's cache entries, so the poisoned one must build its own.
    for cache in (_integer_weights, _block_answers, _fixedpoint_answers):
        cache.cache_clear()
    assert reference_answers(structure, target) == expected


class TestFixedpointVariant:
    def test_agrees_with_exhaustive(self):
        for seed in range(72):
            size = 1 + seed % 12
            config = RandomStructureConfig(
                seed=seed, num_states=size, uniform_measure=(seed % 5 == 0)
            )
            structure, target = random_structure(config)
            for player in (0, 1):
                for state in range(size):
                    assert fixedpoint_common_p_belief(
                        structure, target, player, state
                    ) == brute_force_common_p_belief(structure, target, player, state)

    def test_handles_the_18_state_messenger_space(self, messenger, messenger_target):
        index = messenger.space.index_of((1, 1, 0, 1, 0))
        assert fixedpoint_common_p_belief(messenger, messenger_target, 0, index) == Fraction(1, 4)
        index = messenger.space.index_of((1, 1, 1, 1, 1))
        assert fixedpoint_common_p_belief(messenger, messenger_target, 1, index) == 1

    def test_matches_engine_on_messenger(self, messenger, messenger_target):
        for player in (0, 1):
            for state in range(len(messenger)):
                assert fixedpoint_common_p_belief(
                    messenger, messenger_target, player, state
                ) == common_p_belief(messenger, messenger_target, player, state)


class TestLargestEvent:
    def test_level_zero_is_everything(self, loudspeaker, loudspeaker_target):
        assert largest_p_evident_indicating_event(
            loudspeaker, loudspeaker_target, Fraction(0)
        ) == loudspeaker.universe()

    def test_high_level_keeps_only_mutual_certainty(self, loudspeaker):
        target = frozenset({loudspeaker.space.index_of((1, 1))})
        event = largest_p_evident_indicating_event(loudspeaker, target, Fraction(99, 100))
        assert event == frozenset({loudspeaker.space.index_of((1, 1))})

    def test_unattainable_level_is_empty(self, loudspeaker):
        # no one is ever certain of the silent good state, so nothing survives at level 1
        target = frozenset({loudspeaker.space.index_of((1, 0))})
        assert largest_p_evident_indicating_event(loudspeaker, target, Fraction(1)) == frozenset()


class TestRandomStructure:
    def test_deterministic_in_seed(self):
        first = random_structure(RandomStructureConfig(seed=7))
        second = random_structure(RandomStructureConfig(seed=7))
        assert first == second
        assert first != random_structure(RandomStructureConfig(seed=8))

    def test_validity_over_many_seeds(self):
        for seed in range(100):
            structure, target = random_structure(RandomStructureConfig(seed=seed))
            assert sum(structure.space.measures, Fraction(0)) == 1
            assert all(m > 0 for m in structure.space.measures)
            assert target and target <= structure.universe()
            for partition in structure.partitions:
                covered = frozenset().union(*partition.blocks)
                assert covered == structure.universe()

    def test_single_state_config(self):
        structure, target = random_structure(RandomStructureConfig(seed=0, num_states=1))
        assert len(structure) == 1
        assert target == frozenset({0})
        assert structure.partitions[0].blocks == (frozenset({0}),)

    @pytest.mark.parametrize(
        "num_states,message",
        [
            (2.5, "num_states must be an int, got 2.5"),
            (True, "num_states must be an int, got True"),
            ("8", "num_states must be an int, got '8'"),
            (0, "num_states must be at least 1"),
        ],
    )
    def test_config_refuses_a_state_count_that_is_no_positive_int(self, num_states, message):
        with pytest.raises(ValueError, match=message):
            RandomStructureConfig(seed=0, num_states=num_states)

    @pytest.mark.parametrize(
        "seed,message",
        [
            (None, "seed must be an int, got None"),
            (True, "seed must be an int, got True"),
            (1.0, "seed must be an int, got 1.0"),
            ("1", "seed must be an int, got '1'"),
        ],
    )
    def test_config_refuses_a_seed_that_is_no_int(self, seed, message):
        """A seed that is no int would not replay: None draws afresh on each call, True is seed 1."""
        with pytest.raises(ValueError, match=message):
            RandomStructureConfig(seed=seed)

    @pytest.mark.parametrize("uniform_measure", ["no", 0, 1, None])
    def test_config_refuses_a_uniform_flag_that_is_no_bool(self, uniform_measure):
        """A truthy flag that is no bool, such as "no", would draw a uniform measure."""
        with pytest.raises(ValueError, match=f"uniform_measure must be a bool, got {uniform_measure!r}"):
            RandomStructureConfig(seed=0, uniform_measure=uniform_measure)

    def test_config_bounds(self):
        with pytest.raises(ValueError, match="num_states must be at least 1"):
            RandomStructureConfig(seed=0, num_states=0)
        for n in (13, 64):
            structure, target = random_structure(RandomStructureConfig(seed=0, num_states=n))
            assert len(structure) == n
            assert target and target <= structure.universe()

    def test_draws_up_to_twelve_states_are_pinned(self):
        # Fuzz runs up to 12 states and the benchmark's oracle inputs come from this draw.
        digest = hashlib.sha256()
        for n in range(1, 13):
            for seed in range(40):
                for uniform in (False, True):
                    config = RandomStructureConfig(seed=seed, num_states=n, uniform_measure=uniform)
                    dump = structure_to_json(*random_structure(config))
                    digest.update(json.dumps(dump, sort_keys=True).encode())
        assert digest.hexdigest()[:16] == "1a77b61793442f32"

    def test_uniform_measure_style(self):
        structure, _ = random_structure(RandomStructureConfig(seed=3, uniform_measure=True))
        assert set(structure.space.measures) == {Fraction(1, 8)}


def test_structure_dump_is_json_serializable(loudspeaker, loudspeaker_target):
    dump = structure_to_json(loudspeaker, loudspeaker_target)
    text = json.dumps(dump)
    parsed = json.loads(text)
    assert parsed["states"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert parsed["measures"] == ["3/8", "3/8", "1/8", "1/8"]
    assert sorted(parsed["target"]) == [2, 3]


def test_structure_dump_checks_its_target():
    structure, target = random_structure(RandomStructureConfig(seed=3, num_states=6))
    with pytest.raises(ValueError, match="target event references state indices outside the space"):
        structure_to_json(structure, [99])
    assert structure_to_json(structure, list(target)) == structure_to_json(structure, target)
