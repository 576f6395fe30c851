import re
from fractions import Fraction
from functools import partial

import pytest

from epicoord import (
    Action,
    GameInstance,
    InformationStructure,
    ObservationRule,
    Partition,
    PayoffParams,
    RandomStructureConfig,
    StateSpace,
    VariableSpec,
    WorldModelSpec,
    cognitive_strategy,
    common_p_belief,
    conditional_belief,
    evident_ladder,
    from_world_model,
    iterated_matching,
    iterated_maximization,
    iterated_maximization_prob,
    knowledge_conditions,
    matched_p_belief_prob,
    pair_heuristic,
    private_heuristic,
    random_structure,
    rational_p_belief_action,
    risk_threshold,
    x_event,
)
from epicoord.experiments import PAYOFF_CONDITION_1

from .conftest import DELTA, email_chain


def naive_maximization(structure, target, payoffs, level, player, state):
    """Literal unmemoized recursion; the level-by-level path must agree exactly."""
    if level == 0:
        belief = conditional_belief(structure, player, target, state)
        return Fraction(int(belief > risk_threshold(payoffs)))
    block = structure.block(player, state)
    mass = structure.measure_of(block)
    total = Fraction(0)
    for member in block:
        weight = structure.space.measures[member] / mass
        partner = naive_maximization(structure, target, payoffs, level - 1, 1 - player, member)
        good = conditional_belief(structure, player, target, member)
        total += weight * (
            good * partner * payoffs.a + (1 - good) * partner * payoffs.d + (1 - partner) * payoffs.b
        )
    return Fraction(int(total > payoffs.c))


def naive_matching(structure, target, level, player, state):
    belief = conditional_belief(structure, player, target, state)
    if level == 0:
        return belief
    block = structure.block(player, state)
    mass = structure.measure_of(block)
    total = Fraction(0)
    for member in block:
        weight = structure.space.measures[member] / mass
        total += weight * naive_matching(structure, target, level - 1, 1 - player, member)
    return belief * total


def messenger_cases(messenger, messenger_target):
    for level in range(4):
        for player in (0, 1):
            for state in range(len(messenger)):
                yield messenger, messenger_target, level, player, state


def random_cases():
    """(structure, target, level, player, state) on random structures of 1-12 states,
    levels 0-4, one state per information set (the naive recursion is exponential).
    Even sizes get a uniform measure, which makes exact ties with 1/2 reachable."""
    for num_states in range(1, 13):
        structure, target = random_structure(
            RandomStructureConfig(seed=num_states, num_states=num_states, uniform_measure=num_states % 2 == 0)
        )
        for level in range(5):
            for player in (0, 1):
                for block in structure.partitions[player].blocks:
                    yield structure, target, level, player, min(block)


class TestPayoffs:
    def test_risk_threshold_payoff_condition_1(self):
        assert risk_threshold(PAYOFF_CONDITION_1) == Fraction(10, 11)

    @pytest.mark.parametrize("p_star", [Fraction(1, 20), Fraction(1, 2), Fraction(19, 20)])
    def test_sweep_parameterization_inverts(self, p_star):
        payoffs = PayoffParams(Fraction(1), Fraction(0), p_star, Fraction(0))
        assert risk_threshold(payoffs) == p_star

    def test_invariant_rejects_degenerate_payoffs(self):
        with pytest.raises(ValueError):
            PayoffParams(Fraction(1), Fraction(1), Fraction(1), Fraction(0))  # b == c
        with pytest.raises(ValueError):
            PayoffParams(Fraction(1), Fraction(0), Fraction(2), Fraction(0))  # c > a
        with pytest.raises(ValueError):
            PayoffParams(Fraction(2), Fraction(0), Fraction(1), Fraction(1))  # d == c

    def test_boolean_payoff_rejected(self):
        with pytest.raises(ValueError, match="boolean"):
            PayoffParams(2, 0, True, 0)

    def test_parse(self):
        payoffs = PayoffParams.parse("1.1,0,1,0.4")
        assert (payoffs.a, payoffs.b, payoffs.c, payoffs.d) == (
            Fraction(11, 10),
            Fraction(0),
            Fraction(1),
            Fraction(2, 5),
        )
        with pytest.raises(ValueError):
            PayoffParams.parse("1,2,3")


class TestRationalAndMatched:
    def test_rational_loudspeaker(self, loudspeaker, loudspeaker_target):
        broadcast = loudspeaker.space.index_of((1, 1))
        silent = loudspeaker.space.index_of((1, 0))
        assert rational_p_belief_action(
            loudspeaker, loudspeaker_target, PAYOFF_CONDITION_1, 0, broadcast
        ) is Action.A
        assert rational_p_belief_action(
            loudspeaker, loudspeaker_target, PAYOFF_CONDITION_1, 0, silent
        ) is Action.B

    def test_rational_secondary_participant_holds_back(self, messenger, messenger_target):
        index = messenger.space.index_of((1, 1, 1, 0, 1))
        assert rational_p_belief_action(
            messenger, messenger_target, PAYOFF_CONDITION_1, 1, index
        ) is Action.B

    def test_matched_condition_values(self, messenger, messenger_target, loudspeaker, loudspeaker_target):
        private = matched_p_belief_prob(
            messenger, messenger_target, 0, messenger.space.index_of((1, 1, 0, 1, 0))
        )
        secondary = matched_p_belief_prob(
            messenger, messenger_target, 1, messenger.space.index_of((1, 1, 1, 0, 1))
        )
        tertiary = matched_p_belief_prob(
            messenger, messenger_target, 0, messenger.space.index_of((1, 1, 1, 1, 0))
        )
        common = matched_p_belief_prob(
            loudspeaker, loudspeaker_target, 0, loudspeaker.space.index_of((1, 1))
        )
        assert private == DELTA
        assert secondary == tertiary == Fraction(1, 2)
        assert common == 1

    def test_action_implies_matched_above_threshold(self):
        payoffs = PayoffParams(Fraction(3), Fraction(0), Fraction(2), Fraction(1))
        for seed in range(25):
            structure, target = random_structure(RandomStructureConfig(seed=seed))
            for player in (0, 1):
                for state in range(len(structure)):
                    action = rational_p_belief_action(structure, target, payoffs, player, state)
                    prob = matched_p_belief_prob(structure, target, player, state)
                    assert (action is Action.A) == (prob > risk_threshold(payoffs))

    def test_block_measurability(self):
        for seed in range(25):
            structure, target = random_structure(RandomStructureConfig(seed=seed))
            for player in (0, 1):
                for block in structure.partitions[player].blocks:
                    probs = {matched_p_belief_prob(structure, target, player, s) for s in block}
                    assert len(probs) == 1


def gated_model() -> WorldModelSpec:
    """8 states: a is drawn only when x = 1 and b only when a = 1; player 0 sees x, and a
    when c = 1; player 1 sees c, and b when a = 1."""
    variables = (
        VariableSpec("x", Fraction(1, 3)),
        VariableSpec("a", Fraction(1, 2), gate=("x",)),
        VariableSpec("b", Fraction(2, 3), gate=("a",)),
        VariableSpec("c", Fraction(1, 4)),
    )
    rules = (
        ObservationRule((), 0, ("x",)),
        ObservationRule((), 1, ("c",)),
        ObservationRule(("a",), 1, ("b",)),
        ObservationRule(("c",), 0, ("a",)),
    )
    return WorldModelSpec(variables, rules)


def world_model_cases(levels=range(4)):
    """(structure, target, level, player, state) at every state of short e-mail chains
    (4-6 variables) and of `gated_model`."""
    specs = [email_chain(variables, DELTA, Fraction(1, 10)) for variables in (4, 5, 6)] + [gated_model()]
    for spec in specs:
        structure = from_world_model(spec)
        target = x_event(spec, structure.space)
        for level in levels:
            for player in (0, 1):
                for state in range(len(structure)):
                    yield structure, target, level, player, state


# Cheap enough an attack that the chains' well-informed players play A at low levels.
CHEAP_ATTACK = PayoffParams(Fraction(1), Fraction(0), Fraction(1, 5), Fraction(0))


class TestIteratedMaximization:
    def test_level0_examples(self, loudspeaker, loudspeaker_target):
        broadcast = loudspeaker.space.index_of((1, 1))
        silent = loudspeaker.space.index_of((1, 0))
        assert iterated_maximization(
            loudspeaker, loudspeaker_target, PAYOFF_CONDITION_1, 0, 0, broadcast
        ) is Action.A
        assert iterated_maximization(
            loudspeaker, loudspeaker_target, PAYOFF_CONDITION_1, 0, 0, silent
        ) is Action.B

    @pytest.mark.parametrize(
        "level,expected",
        [
            (0, (1, 1, 1, 1)),
            (1, (0, 1, 1, 1)),
            (2, (0, 0, 1, 1)),
            (3, (0, 0, 0, 1)),
        ],
    )
    def test_condition_values_by_level(self, level, expected):
        conditions = knowledge_conditions(DELTA)
        values = tuple(
            iterated_maximization_prob(
                c.structure(), c.target(), PAYOFF_CONDITION_1, level, c.participant, c.state_index()
            )
            for c in conditions
        )
        assert values == tuple(Fraction(v) for v in expected)

    def test_agrees_with_naive_recursion(self, messenger, messenger_target):
        ties = PayoffParams(Fraction(1), Fraction(0), Fraction(1, 2), Fraction(0))
        cases = [(PAYOFF_CONDITION_1, *case) for case in messenger_cases(messenger, messenger_target)]
        cases += [(ties, *case) for case in random_cases()]
        for payoffs, structure, target, level, player, state in cases:
            assert iterated_maximization_prob(
                structure, target, payoffs, level, player, state
            ) == naive_maximization(structure, target, payoffs, level, player, state)

    def test_agrees_with_naive_recursion_on_world_models(self):
        for payoffs in (PAYOFF_CONDITION_1, CHEAP_ATTACK):
            for structure, target, level, player, state in world_model_cases():
                assert iterated_maximization_prob(
                    structure, target, payoffs, level, player, state
                ) == naive_maximization(structure, target, payoffs, level, player, state)

    def test_values_are_exact_zeros_and_ones(self, messenger, messenger_target):
        cases = [*world_model_cases(range(6)), *messenger_cases(messenger, messenger_target)]
        values = [iterated_maximization_prob(structure, target, CHEAP_ATTACK, *where) for structure, target, *where in cases]
        assert {type(value) for value in values} == {Fraction}
        assert set(values) == {0, 1}

    def test_block_belief_is_independent_of_partner_play(self, messenger, messenger_target):
        """Level k multiplies the block's target belief by the partner's expected
        play; pairing the two state by state, as cognitive_strategy does, differs."""
        payoffs = PayoffParams(Fraction(1), Fraction(0), Fraction(1, 5), Fraction(0))
        state = messenger.space.index_of((0, 0, 0, 0, 0))
        block = messenger.block(0, state)
        mass = sum(messenger.space.measures[member] for member in block)
        correlated = Fraction(0)
        for member in block:
            partner = iterated_maximization_prob(messenger, messenger_target, payoffs, 0, 1, member)
            match_payoff = payoffs.a if member in messenger_target else payoffs.d
            correlated += messenger.space.measures[member] / mass * (
                partner * match_payoff + (1 - partner) * payoffs.b
            )
        assert Fraction(int(correlated > payoffs.c)) == 1
        assert iterated_maximization_prob(messenger, messenger_target, payoffs, 1, 0, state) == 0

    @pytest.mark.parametrize("payoffs", [None, "1.1,0,1,0.4", (1.1, 0, 1, 0.4)])
    def test_payoffs_that_are_no_payoff_params_refused(self, payoffs):
        """Without the refusal, no payoffs read the matching family's value (1/16 here)."""
        private = knowledge_conditions(DELTA)[0]
        structure, target, state = private.structure(), private.target(), private.state_index()
        assert iterated_matching(structure, target, 2, 0, state) == Fraction(1, 16)
        message = f"payoffs must be a PayoffParams, got {payoffs!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            iterated_maximization_prob(structure, target, payoffs, 2, 0, state)
        with pytest.raises(ValueError, match=re.escape(message)):
            iterated_maximization(structure, target, payoffs, 2, 0, state)

    @pytest.mark.parametrize("payoffs", [None, "1.1,0,1,0.4"])
    def test_every_payoff_reading_rule_refuses_them(self, payoffs):
        private = knowledge_conditions(DELTA)[0]
        structure, target, state = private.structure(), private.target(), private.state_index()
        message = re.escape(f"payoffs must be a PayoffParams, got {payoffs!r}")
        with pytest.raises(ValueError, match=message):
            rational_p_belief_action(structure, target, payoffs, 0, state)
        with pytest.raises(ValueError, match=message):
            cognitive_strategy(structure, target, payoffs, 1, state)
        with pytest.raises(ValueError, match=message):
            GameInstance(structure, payoffs, target)

    def test_negative_level_rejected(self, loudspeaker, loudspeaker_target):
        with pytest.raises(ValueError):
            iterated_maximization_prob(loudspeaker, loudspeaker_target, PAYOFF_CONDITION_1, -1, 0, 0)

    @pytest.mark.parametrize("level", [1.5, True, "1"])
    def test_level_that_is_no_integer_rejected(self, loudspeaker, loudspeaker_target, level):
        message = f"level must be an integer >= 0, got {level!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            iterated_maximization_prob(loudspeaker, loudspeaker_target, PAYOFF_CONDITION_1, level, 0, 0)
        with pytest.raises(ValueError, match=re.escape(message)):
            iterated_matching(loudspeaker, loudspeaker_target, level, 0, 0)


def one_block_structure(num_states: int, on_target: int):
    """Uniform states; player 0 sees nothing, player 1 sees the state.  The
    target is the first `on_target` states, so player 0's target belief (and
    common p-belief) is on_target / num_states."""
    space = StateSpace(tuple((i,) for i in range(num_states)), (Fraction(1, num_states),) * num_states)
    partitions = Partition.from_labels([0] * num_states), Partition.from_labels(range(num_states))
    return InformationStructure(space, partitions), frozenset(range(on_target))


def off_target_companion_structure(last: int):
    """12 uniform states; player 0's blocks are {0..last} and the rest, player 1 sees
    nothing.  The target is every state but 0, so player 1's belief 11/12 clears the
    risk threshold 10/11 of payoffs 1.1,0,1,0.4: at level 0 it plays A everywhere."""
    space = StateSpace(tuple((i,) for i in range(12)), (Fraction(1, 12),) * 12)
    labels = [0] * (last + 1) + [1] * (11 - last)
    partitions = Partition.from_labels(labels), Partition.from_labels([0] * 12)
    return InformationStructure(space, partitions), frozenset(range(1, 12))


class TestIntegerTieRules:
    """Payoffs with different denominators, at beliefs that tie exactly: a tie plays B."""

    @pytest.mark.parametrize("payoffs,num_states,tie", [("1.1,0,1,0.4", 11, 10), ("2,1/3,1,0", 5, 2)])
    def test_level0_belief_at_the_risk_threshold_plays_b(self, payoffs, num_states, tie):
        payoffs = PayoffParams.parse(payoffs)
        assert risk_threshold(payoffs) == Fraction(tie, num_states)
        for on_target, expected in ((tie, Action.B), (tie + 1, Action.A)):
            structure, target = one_block_structure(num_states, on_target)
            assert iterated_maximization(structure, target, payoffs, 0, 0, 0) is expected, on_target
            assert rational_p_belief_action(structure, target, payoffs, 0, 0) is expected, on_target

    @pytest.mark.parametrize(
        "payoffs,structure_at,tie",
        [
            # Player 1 attacks exactly on the target (it sees the state), so player 0's
            # A is worth 1.1 * belief one level up.
            ("1.1,0,1,0.4", partial(one_block_structure, 11), 10),
            # Player 1 attacks everywhere, off the target too, so over player 0's block
            # {0..last} A is worth (1.1 * last + 0.4) / (last + 1): exactly c = 1 at last = 6.
            ("1.1,0,1,0.4", off_target_companion_structure, 6),
        ],
    )
    def test_companion_play_making_a_worth_c_plays_b(self, payoffs, structure_at, tie):
        """At level 1, against player 1's level-0 play."""
        payoffs = PayoffParams.parse(payoffs)
        for at, expected in ((tie, Action.B), (tie + 1, Action.A)):
            structure, target = structure_at(at)
            action = iterated_maximization(structure, target, payoffs, 1, 0, 0)
            assert action is expected, at
            naive = naive_maximization(structure, target, payoffs, 1, 0, 0)
            assert naive == (1 if expected is Action.A else 0)


class TestIteratedMatching:
    def test_level0_and_level1_certainty(self, loudspeaker, loudspeaker_target):
        broadcast = loudspeaker.space.index_of((1, 1))
        assert iterated_matching(loudspeaker, loudspeaker_target, 0, 0, broadcast) == 1
        assert iterated_matching(loudspeaker, loudspeaker_target, 1, 0, broadcast) == 1

    @pytest.mark.parametrize(
        "level,expected",
        [
            (0, (Fraction(1), Fraction(1), Fraction(1), Fraction(1))),
            (1, (Fraction(1, 4), Fraction(1), Fraction(1), Fraction(1))),
            (2, (Fraction(1, 16), Fraction(5, 8), Fraction(1), Fraction(1))),
            (3, (Fraction(11, 512), Fraction(17, 32), Fraction(13, 16), Fraction(1))),
        ],
    )
    def test_condition_values_by_level(self, level, expected):
        conditions = knowledge_conditions(DELTA)
        values = tuple(
            iterated_matching(c.structure(), c.target(), level, c.participant, c.state_index())
            for c in conditions
        )
        assert values == expected

    def test_agrees_with_naive_recursion(self, messenger, messenger_target):
        cases = [*messenger_cases(messenger, messenger_target), *random_cases()]
        for structure, target, level, player, state in cases:
            assert iterated_matching(structure, target, level, player, state) == (
                naive_matching(structure, target, level, player, state)
            )

    def test_agrees_with_naive_recursion_on_world_models(self):
        for structure, target, level, player, state in world_model_cases():
            assert iterated_matching(structure, target, level, player, state) == (
                naive_matching(structure, target, level, player, state)
            )

    def test_falls_with_k_and_settles_on_common_knowledge(self):
        """Non-increasing in k at every (player, state); at k = the block count, exactly 1
        where the target is common knowledge (common p-belief 1) and below 1 elsewhere."""
        for num_states in range(1, 13):
            for seed in range(40):
                structure, target = random_structure(
                    RandomStructureConfig(seed=seed, num_states=num_states, uniform_measure=seed % 3 == 0)
                )
                limit = len(structure._blocks)
                for player in (0, 1):
                    for state in range(num_states):
                        values = [iterated_matching(structure, target, k, player, state) for k in range(limit + 1)]
                        assert all(deeper <= shallower for shallower, deeper in zip(values, values[1:]))
                        common = common_p_belief(structure, target, player, state) == 1
                        assert (values[-1] == 1) is common

    def test_bounded_by_own_belief(self):
        for seed in range(20):
            structure, target = random_structure(RandomStructureConfig(seed=seed))
            for level in range(4):
                for player in (0, 1):
                    for state in range(len(structure)):
                        value = iterated_matching(structure, target, level, player, state)
                        assert 0 <= value <= 1
                        if level >= 1:
                            assert value <= conditional_belief(structure, player, target, state)


class TestLevelsReadOutOfOrder:
    """A deep read first, then shallow re-reads below it: only level 0 and the
    levels read are kept, so each re-read is stepped again from a kept level."""

    ORDER = (2000, 0, 1, 2, 3, 4, 5, 1999)

    @pytest.mark.parametrize("family", ["maximization", "matching"])
    def test_reads_match_fresh_caches_and_naive_recursion(self, messenger, messenger_target, family):
        payoffs = PayoffParams(Fraction(1), Fraction(0), Fraction(1, 5), Fraction(0))

        def read(level, player, state):
            if family == "maximization":
                return iterated_maximization_prob(messenger, messenger_target, payoffs, level, player, state)
            return iterated_matching(messenger, messenger_target, level, player, state)

        def naive(level, player, state):
            if family == "maximization":
                return naive_maximization(messenger, messenger_target, payoffs, level, player, state)
            return naive_matching(messenger, messenger_target, level, player, state)

        cases = [(player, min(block)) for player in (0, 1) for block in messenger.partitions[player].blocks]
        tables = evident_ladder(messenger, messenger_target)._level_tables
        tables.clear()
        values = {level: [read(level, *case) for case in cases] for level in self.ORDER}
        key = payoffs._integers if family == "maximization" else None
        assert sorted(tables[key].kept) == sorted(self.ORDER)
        for level in self.ORDER:
            tables.clear()
            assert [read(level, *case) for case in cases] == values[level]
        for level in range(6):
            assert values[level] == [naive(level, *case) for case in cases]


class TestHeuristics:
    def test_broadcast_state_triggers_both(self, loudspeaker, loudspeaker_target):
        index = loudspeaker.space.index_of((1, 1))
        assert private_heuristic(loudspeaker, loudspeaker_target, 0, index) is Action.A
        assert pair_heuristic(loudspeaker, loudspeaker_target, 0, index) is Action.A

    def test_unvisited_agent_stays_safe(self, messenger, messenger_target):
        index = messenger.space.index_of((1, 1, 0, 1, 0))
        assert private_heuristic(messenger, messenger_target, 1, index) is Action.B
        assert pair_heuristic(messenger, messenger_target, 1, index) is Action.B

    def test_agent_seat_actions_per_condition(self):
        expectations = {
            "private": (Action.B, Action.B),
            "secondary": (Action.A, Action.B),
            "tertiary": (Action.A, Action.A),
            "common": (Action.A, Action.A),
        }
        for condition in knowledge_conditions(DELTA):
            structure, target = condition.structure(), condition.target()
            seat, state = condition.agent, condition.state_index()
            expected_private, expected_pair = expectations[condition.name]
            assert private_heuristic(structure, target, seat, state) is expected_private
            assert pair_heuristic(structure, target, seat, state) is expected_pair


def per_state_pair(structure, target, player, state):
    """The pair heuristic as defined: the companion-certain event collected state by state."""
    if conditional_belief(structure, player, target, state) != 1:
        return Action.B
    companion_certain = frozenset(
        index for index in range(len(structure)) if conditional_belief(structure, 1 - player, target, index) == 1
    )
    return Action.A if conditional_belief(structure, player, companion_certain, state) == 1 else Action.B


def per_state_cognitive(structure, target, payoffs, player, state):
    """The cognitive agent as defined: a literal measure-weighted sum over the block."""
    block = structure.block(player, state)
    total = Fraction(0)
    for member in block:
        partner = matched_p_belief_prob(structure, target, 1 - player, member)
        match_payoff = payoffs.a if member in target else payoffs.d
        total += structure.space.measures[member] * (partner * match_payoff + (1 - partner) * payoffs.b)
    utility = total / structure.measure_of(block)
    return Action.A if utility > payoffs.c else Action.B


class TestAgainstPerStateForms:
    def test_pair_heuristic(self):
        seen = set()
        for seed in range(300):
            structure, target = random_structure(RandomStructureConfig(seed=seed, num_states=1 + seed % 12))
            for player in (0, 1):
                for state in range(len(structure)):
                    expected = per_state_pair(structure, target, player, state)
                    assert pair_heuristic(structure, target, player, state) is expected, (seed, player, state)
                    seen.add(expected)
                    certain = conditional_belief(structure, player, target, state) == 1
                    private = Action.A if certain else Action.B
                    assert private_heuristic(structure, target, player, state) is private, (seed, player, state)
                    seen.add(private)
        assert seen == {Action.A, Action.B}

    def test_cognitive_strategy(self):
        seen = set()
        for seed in range(300):
            structure, target = random_structure(RandomStructureConfig(seed=seed, num_states=1 + seed % 12))
            c = Fraction(1 + seed % 7, 8)
            payoffs = PayoffParams(1, Fraction(seed % 3, 24), c, Fraction(seed % 5, 48))
            for player in (0, 1):
                for state in range(len(structure)):
                    expected = per_state_cognitive(structure, target, payoffs, player, state)
                    assert cognitive_strategy(structure, target, payoffs, player, state) is expected, (seed, player, state)
                    seen.add(expected)
        assert seen == {Action.A, Action.B}


class TestCognitiveStrategy:
    def test_broadcast_state_attacks(self, loudspeaker, loudspeaker_target):
        index = loudspeaker.space.index_of((1, 1))
        assert cognitive_strategy(
            loudspeaker, loudspeaker_target, PAYOFF_CONDITION_1, 0, index
        ) is Action.A

    def test_certain_bad_state_stays_safe(self, loudspeaker, loudspeaker_target):
        index = loudspeaker.space.index_of((0, 1))
        assert cognitive_strategy(
            loudspeaker, loudspeaker_target, PAYOFF_CONDITION_1, 0, index
        ) is Action.B

    @pytest.mark.parametrize(
        "name,threshold",
        [
            ("private", Fraction(5, 64)),
            ("secondary", Fraction(3, 8)),
            ("tertiary", Fraction(1, 2)),
        ],
    )
    def test_agent_risk_thresholds(self, name, threshold):
        """At payoffs (1, 0, p*, 0) the agent attacks iff p* is strictly below
        its condition-specific expected value of attacking; ties stay safe."""
        condition = next(c for c in knowledge_conditions(DELTA) if c.name == name)
        structure, target = condition.structure(), condition.target()
        seat, state = condition.agent, condition.state_index()
        step = Fraction(1, 128)
        for p_star, expected in [
            (threshold - step, Action.A),
            (threshold, Action.B),
            (threshold + step, Action.B),
        ]:
            payoffs = PayoffParams(Fraction(1), Fraction(0), p_star, Fraction(0))
            assert cognitive_strategy(structure, target, payoffs, seat, state) is expected
