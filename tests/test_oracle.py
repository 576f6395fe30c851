import hashlib
import json
from fractions import Fraction

import pytest

from epicoord import (
    InformationStructure,
    Partition,
    RandomStructureConfig,
    StateSpace,
    brute_force_common_p_belief,
    common_p_belief,
    evidence_level,
    fixedpoint_common_p_belief,
    is_c_indicating,
    largest_p_evident_indicating_event,
    random_structure,
    super_p_evident,
)
from epicoord.oracle import structure_to_json


# Each query gets a set holding one index outside the space, as its target or event.
OUTSIDE_QUERIES = {
    "common_p_belief": lambda structure, outside, target: common_p_belief(structure, outside, 0, 0),
    "brute_force": lambda structure, outside, target: brute_force_common_p_belief(structure, outside, 0, 0),
    "fixedpoint": lambda structure, outside, target: fixedpoint_common_p_belief(structure, outside, 0, 0),
    "super_p_evident": lambda structure, outside, target: super_p_evident(structure, outside, target, Fraction(1, 2)),
    "evidence_level": lambda structure, outside, target: evidence_level(structure, outside, target),
    "measure_of": lambda structure, outside, target: structure.measure_of(outside),
    "largest_p_evident": lambda structure, outside, target: largest_p_evident_indicating_event(
        structure, outside, Fraction(0)
    ),
    "is_c_indicating": lambda structure, outside, target: is_c_indicating(
        structure, structure.universe(), outside, Fraction(0)
    ),
}


@pytest.mark.parametrize("query", OUTSIDE_QUERIES.values(), ids=OUTSIDE_QUERIES.keys())
@pytest.mark.parametrize("where", ["negative", "past-end"])
def test_indices_outside_the_space_rejected(query, where):
    structure, target = random_structure(RandomStructureConfig(seed=3, num_states=6))
    outside = frozenset({-1 if where == "negative" else len(structure)})
    with pytest.raises(ValueError, match="references state indices outside the space"):
        query(structure, outside, target)


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


@pytest.mark.parametrize("route", [brute_force_common_p_belief, fixedpoint_common_p_belief])
@pytest.mark.parametrize("player,state", [(0, -1), (1, -1), (0, 6), (2, 0)])
def test_out_of_range_query_raises(route, player, state):
    structure, target = random_structure(RandomStructureConfig(seed=3, num_states=6))
    with pytest.raises(IndexError):
        route(structure, target, player, state)


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
