import dataclasses
import gc
import math
import random
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicoord import (
    InformationStructure,
    LadderRung,
    Partition,
    RandomStructureConfig,
    StateSpace,
    brute_force_common_p_belief,
    builtin_loudspeaker,
    builtin_messenger,
    cognitive_strategy,
    common_p_belief,
    conditional_belief,
    evidence_level,
    evident_ladder,
    fixedpoint_common_p_belief,
    from_world_model,
    is_c_indicating,
    is_p_evident,
    iterated_matching,
    iterated_maximization_prob,
    largest_p_evident_indicating_event,
    matched_policy,
    min_belief,
    pair_heuristic,
    private_heuristic,
    random_structure,
    super_p_evident,
    x_event,
)
from epicoord import epistemic, game, oracle
from epicoord.epistemic import CACHE_SIZE
from epicoord.experiments import PAYOFF_CONDITION_1
from epicoord.rational import on_one_scale

from .conftest import DELTA, email_chain
from .test_worldmodel import observed_specs


def states_of(structure, event):
    return {structure.space.states[i] for i in event}


def event_of(structure, states):
    return frozenset(structure.space.index_of(s) for s in states)


def weakest_belief(structure, event, target, state):
    return min(
        conditional_belief(structure, player, members, state)
        for player in (0, 1)
        for members in (event, target)
    )


def assert_own_equal_ladder(structure, twin, target):
    """`twin`, equal to `structure` but built apart, builds its own ladder, equal to `structure`'s."""
    ladder = evident_ladder(structure, target)
    own = evident_ladder(twin, target)
    assert own is not ladder and own == ladder and own.answers == ladder.answers
    for player in (0, 1):
        for state in range(len(structure)):
            assert common_p_belief(twin, target, player, state) == common_p_belief(structure, target, player, state)


def literal_super_p_evident(structure, event, target, level):
    """Remove, in batch, every state whose weakest belief is <= level, until none is."""
    current = frozenset(event)
    while True:
        violators = frozenset(
            state for state in current if weakest_belief(structure, current, target, state) <= level
        )
        if not violators:
            return current
        current -= violators


def definitional_rungs(structure, target):
    """The ladder walk on frozensets, straight from the definitions, one state at a time."""
    rungs = []
    event = structure.universe()
    while event:
        level = min(weakest_belief(structure, event, target, state) for state in event)
        rungs.append(LadderRung(event, level))
        event = literal_super_p_evident(structure, event, target, level)
    return tuple(rungs)


def literal_block_peel(structure, target):
    """(depth, levels) of the ladder by a plain peel on blocks, with no floor keys and no heap.

    Each rung's level is the least belief, min(surviving, on target) / total,
    over the blocks that still hold a survivor, found by one exact scan; the
    rung then removes every state of a block at or below that level, again
    and again, until no such block is left.
    """
    measures = structure.space.measures
    scale = math.lcm(*(measure.denominator for measure in measures))
    weights = [measure.numerator * (scale // measure.denominator) for measure in measures]
    first, second = structure.partitions
    blocks = first.blocks + second.blocks
    rows = (first.block_of, [len(first.blocks) + b for b in second.block_of])
    on = [sum(weights[s] for s in block if s in target) for block in blocks]
    total = [sum(weights[s] for s in block) for block in blocks]
    surviving = total.copy()
    depth = [None] * len(measures)
    levels = []
    live = set(range(len(blocks)))
    while live:
        low, low_total = 1, 1
        for b in live:
            held = min(surviving[b], on[b])
            if held * low_total < low * total[b]:
                low, low_total = held, total[b]
        while failing := [b for b in live if min(surviving[b], on[b]) * low_total <= low * total[b]]:
            for b in failing:
                for state in blocks[b]:
                    if depth[state] is None:
                        depth[state] = len(levels)
                        for row in rows:
                            surviving[row[state]] -= weights[state]
            live = {b for b in live if surviving[b]}
        levels.append(Fraction(low, low_total))
    return tuple(depth), tuple(levels)


def assert_block_table_matches_states(structure, target):
    """The ladder's per-block rung is the per-state definition: the block's deepest member depth.

    The table is flat, player 0's blocks in partition order, then player 1's.
    """
    ladder = evident_ladder(structure, target)
    deepest_of = [
        (player, block, max(ladder.depth[member] for member in block))
        for player, partition in enumerate(structure.partitions)
        for block in partition.blocks
    ]
    assert ladder.block_depth == tuple(deepest for _, _, deepest in deepest_of)
    for player, block, deepest in deepest_of:
        for state in block:
            assert common_p_belief(structure, target, player, state) == ladder.levels[deepest]


def seeded_ladder_cases():
    """Random structures of 9-40 states, one seed each, and a 24-variable e-mail chain."""
    cases = [
        random_structure(RandomStructureConfig(seed=seed, num_states=n))
        for seed, n in enumerate((9, 12, 16, 20, 24, 32, 40))
    ]
    spec = email_chain(24, Fraction(1, 3), Fraction(1, 10))
    structure = from_world_model(spec)
    cases.append((structure, x_event(spec, structure.space)))
    return cases


@st.composite
def peel_cases(draw):
    """A structure of 1-64 states with weights 1..9 and a target, plus an (event, level) pair.

    Each partition is all singletons, the whole space, or random labels;
    the target is empty, full or random.
    """
    n = draw(st.integers(1, 64))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    labels = st.one_of(
        st.just(list(range(n))),
        st.just([0] * n),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    )
    space = StateSpace(
        tuple((index,) for index in range(n)),
        tuple(Fraction(w, sum(weights)) for w in weights),
    )
    structure = InformationStructure(
        space, (Partition.from_labels(draw(labels)), Partition.from_labels(draw(labels)))
    )
    states = st.frozensets(st.integers(0, n - 1))
    target = draw(st.one_of(st.just(frozenset()), st.just(structure.universe()), states))
    event = draw(states)
    level = draw(st.fractions(min_value=0, max_value=1, max_denominator=12))
    return structure, target, event, level


class TestConditionalBelief:
    def test_loudspeaker_uninformed_block(self, loudspeaker, loudspeaker_target):
        index = loudspeaker.space.index_of((1, 0))
        assert conditional_belief(loudspeaker, 0, loudspeaker_target, index) == Fraction(1, 4)

    def test_full_space_is_certain(self, loudspeaker):
        universe = loudspeaker.universe()
        for player in (0, 1):
            for state in range(len(loudspeaker)):
                assert conditional_belief(loudspeaker, player, universe, state) == 1

    def test_empty_event_is_null(self, loudspeaker):
        for player in (0, 1):
            for state in range(len(loudspeaker)):
                assert conditional_belief(loudspeaker, player, frozenset(), state) == 0

    def test_index_out_of_range(self, loudspeaker, loudspeaker_target):
        with pytest.raises(IndexError):
            conditional_belief(loudspeaker, 0, loudspeaker_target, 99)
        # The player is checked before the partitions are indexed, so the message names it.
        with pytest.raises(IndexError, match=re.escape("player must be 0 or 1, got 2")):
            conditional_belief(loudspeaker, 2, loudspeaker_target, 0)


class TestMinBelief:
    def test_trivial_full_space(self, loudspeaker):
        universe = loudspeaker.universe()
        assert min_belief(loudspeaker, universe, universe, 0) == 1

    def test_zero_at_observed_bad_state(self, loudspeaker, loudspeaker_target):
        index = loudspeaker.space.index_of((0, 1))
        assert min_belief(loudspeaker, loudspeaker.universe(), loudspeaker_target, index) == 0

    def test_uninformed_state(self, loudspeaker, loudspeaker_target):
        index = loudspeaker.space.index_of((1, 0))
        assert min_belief(loudspeaker, loudspeaker.universe(), loudspeaker_target, index) == Fraction(1, 4)


class TestEvidenceLevel:
    def test_full_space_against_itself(self, loudspeaker):
        universe = loudspeaker.universe()
        assert evidence_level(loudspeaker, universe, universe) == 1

    def test_full_space_against_target(self, loudspeaker, loudspeaker_target):
        assert evidence_level(loudspeaker, loudspeaker.universe(), loudspeaker_target) == 0

    def test_certain_singleton(self, loudspeaker, loudspeaker_target):
        event = event_of(loudspeaker, [(1, 1)])
        assert evidence_level(loudspeaker, event, loudspeaker_target) == 1

    def test_empty_event_rejected(self, loudspeaker, loudspeaker_target):
        with pytest.raises(ValueError):
            evidence_level(loudspeaker, frozenset(), loudspeaker_target)

    def test_generator_events_answer_as_frozensets(self):
        # A one-shot iterable is frozen once, before any check reads it.
        structure, target = random_structure(RandomStructureConfig(seed=0, num_states=6))
        assert evidence_level(structure, frozenset({0}), target) == Fraction(1, 16)
        assert evidence_level(structure, iter((0,)), iter(target)) == Fraction(1, 16)
        with pytest.raises(ValueError, match="the empty event has no evidence level"):
            evidence_level(structure, iter(()), target)
        for level in (Fraction(0), Fraction(1, 16), Fraction(1, 2)):
            assert super_p_evident(structure, iter(range(6)), iter(target), level) == (
                super_p_evident(structure, structure.universe(), target, level)
            )
            assert super_p_evident(structure, iter(()), target, level) == frozenset()


class TestSuperPEvident:
    def test_first_shrink_removes_observed_bad_state(self, loudspeaker, loudspeaker_target):
        result = super_p_evident(loudspeaker, loudspeaker.universe(), loudspeaker_target, Fraction(0))
        assert states_of(loudspeaker, result) == {(1, 1), (1, 0), (0, 0)}

    def test_second_shrink_keeps_only_certainty(self, loudspeaker, loudspeaker_target):
        event = event_of(loudspeaker, [(1, 1), (1, 0), (0, 0)])
        result = super_p_evident(loudspeaker, event, loudspeaker_target, Fraction(1, 4))
        assert states_of(loudspeaker, result) == {(1, 1)}

    def test_level_one_empties_everything(self, loudspeaker, loudspeaker_target):
        assert super_p_evident(loudspeaker, loudspeaker.universe(), loudspeaker_target, Fraction(1)) == frozenset()


class TestCommonPBelief:
    def test_loudspeaker_broadcast_state(self, loudspeaker, loudspeaker_target):
        index = loudspeaker.space.index_of((1, 1))
        assert common_p_belief(loudspeaker, loudspeaker_target, 0, index) == 1

    def test_loudspeaker_silent_state(self, loudspeaker, loudspeaker_target):
        index = loudspeaker.space.index_of((1, 0))
        assert common_p_belief(loudspeaker, loudspeaker_target, 0, index) == Fraction(1, 4)

    def test_full_space_target(self, loudspeaker):
        universe = loudspeaker.universe()
        for player in (0, 1):
            for state in range(len(loudspeaker)):
                assert common_p_belief(loudspeaker, universe, player, state) == 1

    def test_messenger_private_state_equals_prior(self, messenger, messenger_target):
        index = messenger.space.index_of((1, 1, 0, 1, 0))
        assert common_p_belief(messenger, messenger_target, 0, index) == Fraction(1, 4)

    def test_index_out_of_range(self, loudspeaker, loudspeaker_target):
        with pytest.raises(IndexError):
            common_p_belief(loudspeaker, loudspeaker_target, 0, -1)

    @pytest.mark.parametrize(
        "player,state,message",
        [
            (2, 0, "player must be 0 or 1, got 2"),
            (-1, 0, "player must be 0 or 1, got -1"),
            (0, 4, "state index 4 out of range 0..3"),
            (1, -1, "state index -1 out of range 0..3"),
        ],
    )
    def test_bad_index_refused_before_the_table_is_read(self, loudspeaker, loudspeaker_target, player, state, message):
        # A negative index would otherwise read another player's or another state's answer.
        with pytest.raises(IndexError, match=re.escape(message)):
            common_p_belief(loudspeaker, loudspeaker_target, player, state)
        with pytest.raises(IndexError, match=re.escape(message)):
            loudspeaker.block(player, state)
        # The level-k reads check the index inline, at a kept level and at ones not yet stepped to,
        # and refuse it before any level is stepped: the tables keep level 0 alone.
        tables = evident_ladder(loudspeaker, loudspeaker_target)._level_tables
        tables.clear()
        for level in (0, 3, 40):
            with pytest.raises(IndexError, match=re.escape(message)):
                iterated_matching(loudspeaker, loudspeaker_target, level, player, state)
            assert list(tables[None].kept) == [0]
            with pytest.raises(IndexError, match=re.escape(message)):
                iterated_maximization_prob(loudspeaker, loudspeaker_target, PAYOFF_CONDITION_1, level, player, state)
            assert list(tables[PAYOFF_CONDITION_1._integers].kept) == [0]

    def test_bad_target_refused_before_a_bad_index(self, loudspeaker):
        with pytest.raises(ValueError, match="target event"):
            common_p_belief(loudspeaker, frozenset({len(loudspeaker)}), 2, -1)

    # Every (player, state) read of the engine and both oracles.
    READS = {
        "common_p_belief": common_p_belief,
        "block": lambda structure, target, player, state: structure.block(player, state),
        "matched_policy.prob": lambda structure, target, *where: matched_policy(structure, target).prob(*where),
        "iterated_matching": lambda structure, target, *where: iterated_matching(structure, target, 0, *where),
        "iterated_maximization_prob": lambda structure, target, *where: iterated_maximization_prob(
            structure, target, PAYOFF_CONDITION_1, 0, *where
        ),
        "cognitive_strategy": lambda structure, target, *where: cognitive_strategy(
            structure, target, PAYOFF_CONDITION_1, *where
        ),
        "private_heuristic": private_heuristic,
        "pair_heuristic": pair_heuristic,
        "brute_force_common_p_belief": brute_force_common_p_belief,
        "fixedpoint_common_p_belief": fixedpoint_common_p_belief,
    }

    @pytest.mark.parametrize("read", sorted(READS))
    @pytest.mark.parametrize(
        "player,state,message",
        [
            (True, 1, "player must be 0 or 1, got True"),
            (False, 1, "player must be 0 or 1, got False"),
            (1, True, "state index True out of range 0..5"),
            (0, False, "state index False out of range 0..5"),
        ],
    )
    def test_a_bool_is_no_player_or_state(self, read, player, state, message):
        # True == 1 and False == 0, so a bool would otherwise read the int's entry.
        structure, target = random_structure(RandomStructureConfig(seed=3, num_states=6))
        self.READS[read](structure, target, int(player), int(state))
        with pytest.raises(IndexError, match=re.escape(message)):
            self.READS[read](structure, target, player, state)

    @pytest.mark.parametrize("read", sorted(READS))
    @pytest.mark.parametrize(
        "player,state,message",
        [
            (1.0, 1, "player must be 0 or 1, got 1.0"),
            ("0", 1, "player must be 0 or 1, got '0'"),
            (0, 1.0, "state index 1.0 out of range 0..5"),
            (1, 2.5, "state index 2.5 out of range 0..5"),
            (0, "1", "state index '1' out of range 0..5"),
            (1, None, "state index None out of range 0..5"),
        ],
    )
    def test_a_non_int_is_no_player_or_state(self, read, player, state, message):
        # Only an exact int indexes a row; anything else gets the same IndexError, not a TypeError.
        structure, target = random_structure(RandomStructureConfig(seed=3, num_states=6))
        with pytest.raises(IndexError, match=re.escape(message)):
            self.READS[read](structure, target, player, state)


class TestEvidentLadder:
    def test_loudspeaker_rungs(self, loudspeaker, loudspeaker_target):
        ladder = evident_ladder(loudspeaker, loudspeaker_target)
        assert ladder.levels == (Fraction(0), Fraction(1, 4), Fraction(1))
        assert states_of(loudspeaker, ladder.rungs[0].event) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert states_of(loudspeaker, ladder.rungs[1].event) == {(0, 0), (1, 0), (1, 1)}
        assert states_of(loudspeaker, ladder.rungs[2].event) == {(1, 1)}

    def test_full_space_target_single_rung(self, loudspeaker):
        ladder = evident_ladder(loudspeaker, loudspeaker.universe())
        assert len(ladder) == 1
        assert ladder.rungs[0].event == loudspeaker.universe()
        assert ladder.rungs[0].level == 1

    def test_messenger_levels_and_rungs(self, messenger, messenger_target):
        ladder = evident_ladder(messenger, messenger_target)
        assert ladder.levels == (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))
        all_good = {s for s in messenger.space.states if s[0] == 1}
        assert states_of(messenger, ladder.rungs[1].event) == all_good | {(0, 0, 0, 0, 0)}
        assert states_of(messenger, ladder.rungs[2].event) == {
            (1, 1, 1, 0, 0),
            (1, 1, 1, 0, 1),
            (1, 1, 1, 1, 0),
            (1, 1, 1, 1, 1),
        }
        assert states_of(messenger, ladder.rungs[3].event) == {(1, 1, 1, 1, 1)}

    @pytest.mark.parametrize("variables", [3, 4, 5, 8, 200])
    def test_email_game_closed_form(self, variables):
        """Rubinstein's e-mail game, a third reference independent of both oracles.

        With prior delta and loss eps, a = delta*eps / (delta*eps + 1 - delta)
        is the belief in x = 1 of the player who got no message, b = (1 - eps)
        / (2 - eps) a mid-chain player's belief that the message it sent
        arrived, and c = 1 - eps that belief for the chain's last message.  The
        ladder's levels are 0 followed by the strict running records of (a, b, c).
        """
        grid = [Fraction(k, 20) for k in range(1, 20, 3)]
        for delta in grid:
            for loss in grid:
                spec = email_chain(variables, delta, loss)
                structure = from_world_model(spec)
                a = delta * loss / (delta * loss + 1 - delta)
                b = (1 - loss) / (2 - loss)
                c = 1 - loss
                expected = [Fraction(0)]
                for value in (a, b, c):
                    if value > expected[-1]:
                        expected.append(value)
                levels = evident_ladder(structure, x_event(spec, structure.space)).levels
                assert levels == tuple(expected), (delta, loss)

    @pytest.mark.parametrize(
        "delta,loss",
        [(Fraction(1, 3), Fraction(1, 10)), (Fraction(1, 4), Fraction(1, 10)), (Fraction(3, 5), Fraction(3, 10))],
    )
    def test_email_game_truncation_limit(self, delta, loss):
        """The truncated chain answers as the infinite one: with V variables, the state
        with j delivered messages has the same answers for every V >= j + 3, and the
        x = 0 state the same for every V, so those answers are the countable game's."""
        limits = {}
        for variables in range(4, 41):
            spec = email_chain(variables, delta, loss)
            structure = from_world_model(spec)
            target = x_event(spec, structure.space)
            states = {"x=0": (0,) * variables}
            states.update({j: (1,) * (j + 1) + (0,) * (variables - 1 - j) for j in range(variables - 2)})
            for name, state in states.items():
                index = structure.space.index_of(state)
                answers = tuple(common_p_belief(structure, target, player, index) for player in (0, 1))
                assert limits.setdefault(name, answers) == answers, (name, variables)
        if (delta, loss) == (Fraction(1, 3), Fraction(1, 10)):
            assert limits["x=0"] == (0, Fraction(1, 21))
            assert limits[0] == (Fraction(9, 19), Fraction(1, 21))
            assert all(limits[j] == (Fraction(9, 19), Fraction(9, 19)) for j in range(1, 38))

    @pytest.mark.parametrize("bits", [0, 1, 3])
    def test_narrow_keys_give_the_same_answers(self, monkeypatch, bits):
        """At 62 bits distinct beliefs almost never share a floor key, so the exact
        comparison among a key's blocks runs on ties alone; narrow keys make
        most blocks share one and send every rung through that comparison."""
        monkeypatch.setattr(epistemic, "_KEY_BITS", bits)
        for seed, (structure, target) in enumerate(seeded_ladder_cases()):
            # Uncached: a stored ladder was built with the shipped key width.
            ladder = epistemic._build_ladder(structure, target)
            walk = definitional_rungs(structure, target)
            assert ladder.levels == tuple(rung.level for rung in walk)
            assert ladder.depth == tuple(
                max(k for k, rung in enumerate(walk) if state in rung.event) for state in range(len(structure))
            )
            assert ladder.block_depth == tuple(max(ladder.depth[s] for s in block) for block in structure._blocks)
            for player in (0, 1):
                for state in range(len(structure)):
                    assert ladder.answers[player][state] == (
                        ladder.levels[ladder.block_depth[structure._block_id(player, state)]]
                    ) == fixedpoint_common_p_belief(structure, target, player, state)
            rng = random.Random(seed)
            for _ in range(3):
                event = frozenset(rng.sample(range(len(structure)), rng.randint(1, len(structure))))
                assert evidence_level(structure, event, target) == min(
                    weakest_belief(structure, event, target, state) for state in event
                )
                # The ladder's own levels put blocks exactly at the level.
                for level in (rng.choice(ladder.levels), Fraction(rng.randint(0, 12), 12)):
                    assert super_p_evident(structure, event, target, level) == (
                        literal_super_p_evident(structure, event, target, level)
                    )

    @pytest.mark.parametrize("smaller_first", [True, False])
    def test_distinct_beliefs_sharing_a_key_at_the_shipped_width(self, smaller_first):
        """Block totals of 2**32 + 1 and 2**32 + 3 put two distinct beliefs on one
        62-bit floor key, so a rung pops both, compares them exactly, and pushes
        the loser back; either block may come off the heap first."""
        x = 1 << 31
        low, high = [x, x + 1], [x + 1, x + 2]
        weights = low + high if smaller_first else high + low
        space = StateSpace(tuple((s,) for s in range(4)), tuple(Fraction(w, sum(weights)) for w in weights))
        structure = InformationStructure(space, (Partition.from_labels([0, 0, 1, 1]), Partition.from_labels(range(4))))
        target = frozenset({0, 2})
        smaller, larger = Fraction(x, 2 * x + 1), Fraction(x + 1, 2 * x + 3)

        on_target, totals = structure._block_weights(target), structure._totals
        assert min(totals[:2]) >= 1 << 31
        beliefs = [Fraction(on, weight) for on, weight in zip(on_target[:2], totals[:2])]
        keys = [(on << epistemic._KEY_BITS) // weight for on, weight in zip(on_target[:2], totals[:2])]
        assert sorted(beliefs) == [smaller, larger] and keys[0] == keys[1]

        ladder = evident_ladder(structure, target)
        assert ladder.levels == (0, smaller, larger)
        assert ladder.rungs == definitional_rungs(structure, target)
        assert_block_table_matches_states(structure, target)

    def test_answer_rows_are_the_block_table(self, loudspeaker, loudspeaker_target, messenger, messenger_target):
        cases = [(loudspeaker, loudspeaker_target), (messenger, messenger_target), *seeded_ladder_cases()]
        for structure, target in cases:
            ladder = evident_ladder(structure, target)
            assert len(ladder.answers) == 2
            for player in (0, 1):
                assert len(ladder.answers[player]) == len(structure)
                for state in range(len(structure)):
                    assert ladder.answers[player][state] == (
                        ladder.levels[ladder.block_depth[structure._block_id(player, state)]]
                    ) == fixedpoint_common_p_belief(structure, target, player, state)
                    assert common_p_belief(structure, target, player, state) is ladder.answers[player][state]

    def test_block_emptied_only_through_its_companions(self):
        """Player 1's block {1, 3} is never popped: state 1 leaves at rung 0 with
        player 0's block {1}, and state 3 at rung 2 with player 0's block {3, 4}.
        The peel records the block's dying rung where its companion's removal
        empties it, and that rung is its deepest."""
        structure, target = random_structure(RandomStructureConfig(seed=0, num_states=6))
        popped = set()

        class Reads(tuple):
            # The peel reads a block's members only where it pops the block.
            def __getitem__(self, b):
                popped.add(b)
                return tuple.__getitem__(self, b)

        # Preset before the ladder first reads the cached property.
        structure.__dict__["_blocks"] = Reads(structure._blocks)
        ladder = epistemic._build_ladder(structure, target)
        never = [b for b in range(len(structure._blocks)) if b not in popped]
        assert [structure._blocks[b] for b in never] == [frozenset({1, 3})]
        assert ladder.block_depth[never[0]] == 2 and len(ladder) == 3

        walk = definitional_rungs(structure, target)
        assert ladder.levels == tuple(rung.level for rung in walk)
        assert ladder.depth == tuple(
            max(k for k, rung in enumerate(walk) if state in rung.event) for state in range(len(structure))
        )
        assert ladder.block_depth == tuple(max(ladder.depth[s] for s in block) for block in structure._blocks)
        assert ladder.block_depth == tuple(
            max(k for k, rung in enumerate(walk) if rung.event & block) for block in structure._blocks
        )

    def test_equal_ladders_built_apart_compare_and_hash_equal(self):
        for structure, target in seeded_ladder_cases():
            cached = evident_ladder(structure, target)
            apart = epistemic._build_ladder(structure, target)
            assert apart is not cached and apart.answers is not cached.answers
            assert apart == cached and hash(apart) == hash(cached)
            assert apart.answers == cached.answers and repr(apart) == repr(cached)
            assert apart.on_target == cached.on_target == structure._block_weights(target)
            assert "answers" not in repr(apart) and "on_target" not in repr(apart)
            # Neither record takes part in equality or hashing.
            other = dataclasses.replace(apart, answers=((), ()), on_target=())
            assert other == cached and hash(other) == hash(cached)

    def test_rung_that_removes_nothing_raises(self):
        # A peel that removes no state would leave the ladder looping on one rung forever.
        # Blocks preset empty on a fresh structure: a popped block has no state to remove.
        structure, target = random_structure(RandomStructureConfig(seed=0, num_states=5))
        structure.__dict__["_blocks"] = (frozenset(),) * len(structure._blocks)
        with pytest.raises(RuntimeError, match=r"ladder rung 0 at level .* removed no state"):
            epistemic._build_ladder(structure, target)


class TestBeliefKernel:
    SEEDS = range(40)

    def test_expectation_and_belief_match_literal_sums(self):
        for seed in self.SEEDS:
            structure, target = random_structure(RandomStructureConfig(seed=seed))
            measures = structure.space.measures
            for player in (0, 1):
                for state in range(len(structure)):
                    block = structure.block(player, state)
                    mass = sum((measures[member] for member in block), Fraction(0))
                    in_target = sum((measures[m] for m in block & target), Fraction(0)) / mass
                    assert conditional_belief(structure, player, target, state) == in_target
            assert structure.measure_of(target) == sum((measures[m] for m in target), Fraction(0))

    def test_weights_and_hash_are_computed_on_first_use(self):
        structure, target = random_structure(RandomStructureConfig(seed=0))
        twin = InformationStructure(structure.space, structure.partitions)
        assert not {"_hash", "_weights", "_totals"} & vars(twin).keys()
        assert twin == structure and hash(twin) == hash(structure)
        assert conditional_belief(twin, 0, target, 0) == conditional_belief(structure, 0, target, 0)
        assert {"_hash", "_weights"} <= vars(twin).keys()
        # The per-state definitions need no block table; the ladder builds it.
        evidence_level(twin, twin.universe(), target)
        assert "_totals" not in vars(twin)
        evident_ladder(twin, target)
        assert "_totals" in vars(twin)

    def test_hash_is_shared_by_equal_structures_built_apart(self):
        # Equal measures spelled differently.  Each structure keeps its own memo,
        # so the second builds its own ladder, equal to the first one's.
        states = ((0,), (1,), (2,))
        one = InformationStructure(
            StateSpace(states, ("1/2", "1/4", "1/4")),
            (Partition.from_labels("aab"), Partition.from_labels("abb")),
        )
        two = InformationStructure(
            StateSpace(states, (Fraction(2, 4), Fraction(1, 4), "0.25")),
            (Partition.from_labels([7, 7, 3]), Partition.from_labels([1, 2, 2])),
        )
        assert one is not two and one == two and hash(one) == hash(two)
        target = frozenset({0, 1})
        assert_own_equal_ladder(one, two, target)

    @given(st.one_of(observed_specs(), st.sampled_from((builtin_loudspeaker(DELTA), builtin_messenger(DELTA)))))
    @settings(max_examples=60, deadline=None)
    def test_weights_come_from_the_space_and_give_equal_ladders(self, spec):
        structure = from_world_model(spec)
        space = structure.space
        assert structure._weights == tuple(on_one_scale(space.measures)[0])
        by_hand = InformationStructure(
            StateSpace(space.states, space.measures),
            tuple(Partition(partition.blocks, partition.block_of) for partition in structure.partitions),
        )
        assert by_hand is not structure and by_hand == structure and hash(by_hand) == hash(structure)
        assert_own_equal_ladder(structure, by_hand, x_event(spec, space))

    def test_structures_differing_only_in_measure_keep_their_own_answers(self):
        quarter_spec, third_spec = builtin_messenger(Fraction(1, 4)), builtin_messenger(Fraction(1, 3))
        quarter, third = from_world_model(quarter_spec), from_world_model(third_spec)
        assert quarter.space.states == third.space.states and quarter.partitions == third.partitions
        assert quarter != third
        cases = ((quarter, x_event(quarter_spec, quarter.space)), (third, x_event(third_spec, third.space)))
        answers = {quarter: [], third: []}
        # Alternate between the two structures at every (player, state).
        for player in (0, 1):
            for state in range(len(quarter)):
                for structure, target in cases:
                    answer = common_p_belief(structure, target, player, state)
                    assert answer == fixedpoint_common_p_belief(structure, target, player, state)
                    answers[structure].append(answer)
        assert answers[quarter] != answers[third]

    def test_set_and_list_targets_read_the_frozenset_entry(self):
        config = RandomStructureConfig(seed=0, num_states=6)
        structure, _ = random_structure(config)
        ladder, policy = evident_ladder(structure, frozenset({0, 1})), matched_policy(structure, frozenset({0, 1}))
        targets = (lambda: {0, 1}, lambda: [0, 1], lambda: [1, 0, 1], lambda: (s for s in (0, 1)))
        for target in targets:
            assert evident_ladder(structure, target()) is ladder
            assert matched_policy(structure, target()) == policy
            assert common_p_belief(structure, target(), 1, 5) is ladder.answers[1][5]
        assert list(structure._memo) == [frozenset({0, 1})]
        # A one-shot iterable asked first is read once: the ladder stored under
        # its states is theirs, not the empty target's.
        queries = (evident_ladder, matched_policy, lambda structure, target: common_p_belief(structure, target, 1, 5))
        for query in queries:
            fresh, _ = random_structure(config)
            query(fresh, (s for s in (0, 1)))
            assert list(fresh._memo) == [frozenset({0, 1})]
            assert common_p_belief(fresh, frozenset({0, 1}), 1, 5) == ladder.answers[1][5]
            assert evident_ladder(fresh, frozenset({0, 1})) == ladder
            assert evident_ladder(fresh, frozenset({0, 1})).answers == ladder.answers
            assert matched_policy(fresh, frozenset({0, 1})) == policy
        # Every per-target reader keeps one value per target in the memo: the target's ladder.
        fresh, target = random_structure(config)[0], frozenset({0, 1})
        payoffs = game.PayoffParams(1, 0, Fraction(1, 2), 0)
        instance = game.GameInstance(fresh, payoffs, target)
        game.private_heuristic(fresh, target, 0, 0)
        game.pair_heuristic(fresh, target, 1, 5)
        game.iterated_matching(fresh, target, 2, 0, 0)
        game.iterated_maximization_prob(fresh, target, payoffs, 2, 1, 5)
        game.cognitive_strategy(fresh, target, payoffs, 0, 0)
        game.noiseless_check(instance)
        game.matched_policy(fresh, target)
        game.rational_policy(instance)
        assert list(fresh._memo) == [target]
        assert type(fresh._memo[target]) is epistemic.EvidentLadder
        assert fresh._memo[target] is evident_ladder(fresh, target)
        # The level-k tables live on the ladder: the structure keeps no memo beside `_memo`.
        assert not hasattr(fresh, "_level_tables")
        assert list(fresh._memo[target]._level_tables) == [None, payoffs._integers]

    def test_memo_is_freed_with_its_structure(self):
        """No ladder in the memo refers back to its structure, so reference counting alone
        frees a queried structure: long fuzz runs stay bounded without the cyclic collector."""
        gc.disable()
        try:
            structure, target = random_structure(RandomStructureConfig(seed=3, num_states=9))
            common_p_belief(structure, target, 0, 0)
            matched_policy(structure, target)
            pair_heuristic(structure, target, 1, 0)
            alive = weakref.ref(structure)
            del structure
            assert alive() is None
        finally:
            gc.enable()

    def test_evicted_ladder_takes_its_level_tables(self):
        """A ladder dropped from the memo at its bound frees its level-k tables with it, and a
        re-read builds a fresh ladder whose tables hold only the table that read needs."""
        structure, target = random_structure(RandomStructureConfig(seed=5, num_states=8))
        before = iterated_matching(structure, target, 3, 0, 0)
        ladder = evident_ladder(structure, target)
        assert list(ladder._level_tables) == [None]
        alive = weakref.ref(ladder._level_tables[None])
        del ladder
        others = [frozenset(s for s in range(8) if mask >> s & 1) for mask in range(256)]
        for other in [other for other in others if other != target][:CACHE_SIZE]:
            evident_ladder(structure, other)
        assert target not in structure._memo
        assert alive() is None
        assert iterated_maximization_prob(structure, target, PAYOFF_CONDITION_1, 2, 1, 0) in (0, 1)
        assert list(evident_ladder(structure, target)._level_tables) == [PAYOFF_CONDITION_1._integers]
        assert iterated_matching(structure, target, 3, 0, 0) == before

    @pytest.mark.parametrize("uniform", [False, True], ids=["weighted", "uniform"])
    def test_totals_and_target_table_match_literal_sums(self, uniform, loudspeaker_spec, messenger_spec):
        configs = [
            RandomStructureConfig(seed=seed, num_states=1 + seed % 16, uniform_measure=uniform) for seed in self.SEEDS
        ]
        # The sizes of the benchmark's ladder-large workload.
        configs += [
            RandomStructureConfig(seed=seed, num_states=n, uniform_measure=uniform)
            for seed, n in enumerate((64, 128, 192))
        ]
        cases = [random_structure(config) for config in configs]
        # World models carry their own measures, whatever `uniform` says.
        for spec in (email_chain(16, Fraction(1, 3), Fraction(1, 10)), loudspeaker_spec, messenger_spec):
            structure = from_world_model(spec)
            cases.append((structure, x_event(spec, structure.space)))
        for structure, target in cases:
            weights = structure._weights
            blocks = structure._blocks
            assert structure._totals == tuple(sum(weights[s] for s in block) for block in blocks)
            for event in (target, structure.universe(), frozenset()):
                table = evident_ladder(structure, event).on_target
                assert table == tuple(sum(weights[s] for s in block if s in event) for block in blocks)
            # A target outside the space is refused before the memo stores or drops anything.
            kept = list(structure._memo)
            for outside in (target | {len(structure)}, frozenset({-1})):
                with pytest.raises(ValueError, match="target event"):
                    evident_ladder(structure, outside)
                assert list(structure._memo) == kept

    @pytest.mark.parametrize(
        "partitions,message",
        [
            ((Partition.from_labels([0, 0]),), "exactly two player partitions are required"),
            (
                (Partition.from_labels([0, 1]), Partition.from_labels([0])),
                "partition for player 1 does not cover the state space",
            ),
        ],
        ids=["one-partition", "short-partition"],
    )
    def test_malformed_structure_rejected(self, partitions, message):
        space = StateSpace(((0,), (1,)), (Fraction(1, 2),) * 2)
        with pytest.raises(ValueError, match=message):
            InformationStructure(space, partitions)

    def test_space_and_partitions_must_be_their_types(self):
        # Each check comes from the types: a tuple of states is no space, and labels are no partition.
        space = StateSpace(((0,), (1,)), (Fraction(1, 2),) * 2)
        partition = Partition.from_labels([0, 1])
        with pytest.raises(ValueError, match="^space must be a StateSpace, got tuple$"):
            InformationStructure(((0,), (1,)), (partition, partition))
        with pytest.raises(ValueError, match="^partition for player 1 must be a Partition, got list$"):
            InformationStructure(space, (partition, [0, 1]))
        with pytest.raises(ValueError, match="^partition for player 0 must be a Partition, got tuple$"):
            InformationStructure(space, (((0,), (1,)), partition))

    @pytest.mark.parametrize(
        "kinds",
        [("singletons", "one-block"), ("one-block", "random"), ("random", "singletons"), ("random", "random")],
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_block_numbering_and_overlaps(self, kinds, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 24)
        labels = {
            "singletons": lambda: list(range(n)),
            "one-block": lambda: [0] * n,
            "random": lambda: [rng.randrange(rng.randint(1, n)) for _ in range(n)],
        }
        weights = [rng.randint(1, 9) for _ in range(n)]
        space = StateSpace(tuple((i,) for i in range(n)), tuple(Fraction(w, sum(weights)) for w in weights))
        structure = InformationStructure(space, tuple(Partition.from_labels(labels[kind]()) for kind in kinds))
        first, second = structure.partitions
        assert structure.universe() is structure.universe() and structure.universe() == frozenset(range(n))
        assert structure._blocks == first.blocks + second.blocks
        for player in (0, 1):
            for state in range(n):
                assert state in structure._blocks[structure._block_ids[player][state]]
        for b, block in enumerate(structure._blocks):
            companion = 1 if b < len(first.blocks) else 0
            grouping = {}
            for state in block:
                grouping.setdefault(structure._block_ids[companion][state], []).append(state)
            literal = {other: sum(structure._weights[s] for s in states) for other, states in grouping.items()}
            assert dict(structure._overlaps[b]) == literal
            assert len(structure._overlaps[b]) == len(literal)
            assert sum(w for _, w in structure._overlaps[b]) == sum(structure._weights[s] for s in block)

    @pytest.mark.parametrize("seed", range(4))
    def test_full_space_peel_starts_from_block_totals(self, seed):
        """Any iterable spelling of an event answers as its frozenset, the full
        space included, and a list with a duplicate entry is not the full space."""
        structure, target = random_structure(RandomStructureConfig(seed=seed, num_states=9 + seed))
        n = len(structure)
        ladder = evident_ladder(structure, target)
        partial = [0, *range(n - 1)]
        for entries in (list(range(n)), partial, sorted(target)):
            frozen = frozenset(entries)
            # A generator is read once: it must be frozen before anything else reads it.
            for spell in (set, list, lambda listed: listed[::-1], iter):
                for level in (Fraction(0), *ladder.levels):
                    assert super_p_evident(structure, spell(entries), target, level) == (
                        super_p_evident(structure, frozen, target, level)
                    ) == literal_super_p_evident(structure, frozen, target, level)
                assert evidence_level(structure, spell(entries), target) == (
                    evidence_level(structure, frozen, target)
                ) == min(weakest_belief(structure, frozen, target, state) for state in frozen)
        assert evidence_level(structure, list(range(n)), target) == ladder.levels[0]
        assert n - 1 not in super_p_evident(structure, partial, target, Fraction(0))

    def test_rungs_match_definitional_walk(self):
        cases = [random_structure(RandomStructureConfig(seed=seed)) for seed in self.SEEDS]
        cases += [random_structure(RandomStructureConfig(seed=seed, num_states=24)) for seed in range(4)]
        for structure, target in cases:
            walk = definitional_rungs(structure, target)
            ladder = evident_ladder(structure, target)
            assert ladder.rungs == walk
            assert tuple(ladder) == walk
            assert len(ladder) == len(walk)
            assert ladder.levels == tuple(rung.level for rung in walk)

    @given(peel_cases())
    @settings(max_examples=150, deadline=None)
    def test_peel_matches_literal_walk(self, case):
        structure, target, event, level = case
        ladder = evident_ladder(structure, target)
        walk = definitional_rungs(structure, target)
        assert ladder.levels == tuple(rung.level for rung in walk)
        assert ladder.depth == tuple(
            max(k for k, rung in enumerate(walk) if state in rung.event) for state in range(len(structure))
        )
        assert super_p_evident(structure, event, target, level) == (
            literal_super_p_evident(structure, event, target, level)
        )
        if event:
            assert evidence_level(structure, event, target) == min(
                weakest_belief(structure, event, target, state) for state in event
            )
        assert_block_table_matches_states(structure, target)

    @pytest.mark.parametrize("seed,n", [(1, 2000), (2, 3000), (4, 4000)])
    def test_deep_ladder_matches_literal_block_peel(self, seed, n):
        # 148, 187 and 256 rungs, each picked from the heap after many re-keys and stale entries.
        structure, target = random_structure(RandomStructureConfig(seed=seed, num_states=n))
        ladder = evident_ladder(structure, target)
        assert (ladder.depth, ladder.levels) == literal_block_peel(structure, target)
        assert len(ladder) > 100

    @pytest.mark.parametrize("variables", [50, 200])
    @pytest.mark.parametrize("value", [1, 0])
    def test_email_chain_matches_literal_block_peel(self, variables, value):
        # Block totals 164 and 663 bits wide; on the x = 0 target a rung pops several blocks sharing one key.
        spec = email_chain(variables, Fraction(1, 3), Fraction(1, 10))
        structure = from_world_model(spec)
        target = x_event(spec, structure.space)
        if not value:
            target = structure.universe() - target
        ladder = evident_ladder(structure, target)
        assert (ladder.depth, ladder.levels) == literal_block_peel(structure, target)

    @pytest.mark.parametrize("n", [64, 128, 192])
    def test_block_table_matches_states_at_large_sizes(self, n):
        for seed in range(3):
            assert_block_table_matches_states(*random_structure(RandomStructureConfig(seed=seed, num_states=n)))

    @pytest.mark.parametrize("seed,n", [(0, 16), (1, 24), (2, 32), (3, 40)])
    def test_common_p_belief_matches_fixedpoint_beyond_exhaustive_cap(self, seed, n):
        structure, target = random_structure(RandomStructureConfig(seed=seed, num_states=n))
        for player in (0, 1):
            for state in range(n):
                assert common_p_belief(structure, target, player, state) == (
                    fixedpoint_common_p_belief(structure, target, player, state)
                )

    def test_common_p_belief_matches_fixedpoint_at_64_states(self):
        structure, target = random_structure(RandomStructureConfig(seed=4, num_states=64))
        for player in (0, 1):
            for state in range(64):
                assert common_p_belief(structure, target, player, state) == (
                    fixedpoint_common_p_belief(structure, target, player, state)
                )

    def test_caches_stay_within_their_bound(self):
        # More distinct targets than the bound on one structure: its memo keeps the latest.
        structure, _ = random_structure(RandomStructureConfig(seed=0, num_states=8))
        targets = [frozenset(s for s in range(8) if mask >> s & 1) for mask in range(1, CACHE_SIZE + 10)]
        for target in targets:
            evident_ladder(structure, target)
            matched_policy(structure, target)
            assert common_p_belief(structure, target, 1, 7) == fixedpoint_common_p_belief(structure, target, 1, 7)
            assert len(structure._memo) <= CACHE_SIZE
        assert list(structure._memo) == targets[-CACHE_SIZE:]
        # More distinct keys than the bound: every size, every delta differs.
        for n in range(1, CACHE_SIZE + 9):
            structure, target = random_structure(RandomStructureConfig(seed=0, num_states=n))
            iterated_matching(structure, target, 2, 0, 0)
            from_world_model(builtin_loudspeaker(Fraction(n, CACHE_SIZE + 9)))
            small = random_structure(RandomStructureConfig(seed=n, num_states=4))
            brute_force_common_p_belief(*small, 0, 0)
            fixedpoint_common_p_belief(*small, 0, 0)
        # More distinct payoffs than the bound on one structure and target: its ladder keeps the latest level tables.
        payoffs = [game.PayoffParams(1, 0, Fraction(k, CACHE_SIZE + 10), 0) for k in range(1, CACHE_SIZE + 10)]
        tables = evident_ladder(structure, target)._level_tables
        for each in payoffs:
            game.iterated_maximization_prob(structure, target, each, 2, 0, 0)
            assert len(tables) <= CACHE_SIZE
        assert list(tables) == [each._integers for each in payoffs[-CACHE_SIZE:]]
        for cache, bound in (
            (from_world_model, CACHE_SIZE),
            # The oracle keeps only the weights and answers of the structure in use.
            (oracle._integer_weights, 1),
            (oracle._block_answers, 1),
            (oracle._fixedpoint_answers, 1),
        ):
            info = cache.cache_info()
            assert info.maxsize == bound and info.currsize <= bound


class TestDefinitionalChecks:
    def test_universe_is_zero_evident(self, loudspeaker):
        assert is_p_evident(loudspeaker, loudspeaker.universe(), Fraction(0))

    def test_certain_singleton_is_one_evident(self, loudspeaker):
        event = event_of(loudspeaker, [(1, 1)])
        assert is_p_evident(loudspeaker, event, Fraction(1))

    def test_mixed_pair_is_not_half_indicating(self, loudspeaker, loudspeaker_target):
        event = event_of(loudspeaker, [(1, 1), (0, 1)])
        assert not is_c_indicating(loudspeaker, event, loudspeaker_target, Fraction(1, 2))


class TestRandomStructureProperties:
    SEEDS = range(40)

    def test_partition_invariance(self):
        for seed in self.SEEDS:
            structure, target = random_structure(RandomStructureConfig(seed=seed))
            for player in (0, 1):
                for block in structure.partitions[player].blocks:
                    values = {
                        common_p_belief(structure, target, player, state) for state in block
                    }
                    assert len(values) == 1

    def test_ladder_validity(self):
        for seed in self.SEEDS:
            structure, target = random_structure(RandomStructureConfig(seed=seed))
            ladder = evident_ladder(structure, target)
            assert ladder.rungs[0].event == structure.universe()
            assert len(ladder) <= len(structure)
            for rung in ladder:
                assert is_p_evident(structure, rung.event, rung.level)
                assert is_c_indicating(structure, rung.event, target, rung.level)
            for earlier, later in zip(ladder.rungs, ladder.rungs[1:]):
                assert later.event < earlier.event
                assert later.level > earlier.level

    def test_rungs_are_largest_events_at_their_levels(self):
        for seed in self.SEEDS:
            structure, target = random_structure(RandomStructureConfig(seed=seed))
            for rung in evident_ladder(structure, target):
                assert (
                    largest_p_evident_indicating_event(structure, target, rung.level)
                    == rung.event
                )

    def test_zero_or_threshold_belief_on_rungs(self):
        for seed in self.SEEDS:
            structure, target = random_structure(RandomStructureConfig(seed=seed))
            for rung in evident_ladder(structure, target):
                for player in (0, 1):
                    for state in range(len(structure)):
                        belief = conditional_belief(structure, player, rung.event, state)
                        assert belief == 0 or belief >= rung.level

    def test_union_closure(self):
        for seed in self.SEEDS:
            structure, target = random_structure(RandomStructureConfig(seed=seed))
            rng = random.Random(seed + 10_000)
            n = len(structure)
            for _ in range(3):
                first = frozenset(rng.sample(range(n), rng.randint(1, n)))
                second = frozenset(rng.sample(range(n), rng.randint(1, n)))
                level = min(
                    evidence_level(structure, first, target),
                    evidence_level(structure, second, target),
                )
                union = first | second
                assert is_p_evident(structure, union, level)
                assert is_c_indicating(structure, union, target, level)

    def test_containment_across_levels(self):
        for seed in self.SEEDS:
            structure, target = random_structure(RandomStructureConfig(seed=seed))
            rng = random.Random(seed + 20_000)
            low, high = sorted(Fraction(rng.randint(0, 16), 16) for _ in range(2))
            assert largest_p_evident_indicating_event(structure, target, high) <= (
                largest_p_evident_indicating_event(structure, target, low)
            )
