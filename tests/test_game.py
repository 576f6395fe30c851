import math
import random
import re
import types
from fractions import Fraction

import pytest

import epicoord
from epicoord import (
    Action,
    GameInstance,
    InformationStructure,
    Partition,
    PayoffParams,
    Policy,
    RandomStructureConfig,
    StateSpace,
    best_response,
    builtin_loudspeaker,
    builtin_messenger,
    cognitive_strategy,
    common_p_belief,
    conditional_belief,
    expected_utility,
    from_world_model,
    is_partition_measurable,
    matched_p_belief_prob,
    matched_policy,
    noiseless_check,
    payoff_of_a,
    random_structure,
    rational_p_belief_action,
    rational_policy,
    risk_threshold,
    stage_payoff,
    verify_equilibrium,
    x_event,
)
from epicoord import game as game_module
from epicoord.experiments import PAYOFF_CONDITION_1
from epicoord.game import Violation, _violations

from .conftest import DELTA, email_chain


def loudspeaker_game():
    return GameInstance.from_world_model(builtin_loudspeaker(DELTA), PAYOFF_CONDITION_1)


def messenger_game():
    return GameInstance.from_world_model(builtin_messenger(DELTA), PAYOFF_CONDITION_1)


def random_payoffs(rng: random.Random) -> PayoffParams:
    b, d = (Fraction(rng.randint(0, 6), 4) for _ in range(2))
    c = max(b, d) + Fraction(rng.randint(1, 6), 4)
    return PayoffParams(c + Fraction(rng.randint(1, 6), 4), b, c, d)


def random_policy(rng: random.Random, structure, kind: str) -> Policy:
    """Pure or mixed play constant on each block, or mixed play state by state."""
    values = (Fraction(0), Fraction(1)) if kind == "pure" else tuple(Fraction(k, 6) for k in range(7))
    rows = []
    for partition in structure.partitions:
        if kind == "non-measurable":
            rows.append(tuple(rng.choice(values) for _ in partition.block_of))
        else:
            per_block = [rng.choice(values) for _ in partition.blocks]
            rows.append(tuple(per_block[b] for b in partition.block_of))
    return Policy(tuple(rows))


def reference_violations(game: GameInstance, policy: Policy) -> tuple:
    """The definition, state by state: compare the chosen mix with its flip."""
    violations = []
    for player in (0, 1):
        for state in range(len(game.structure)):
            chosen_prob = policy.prob(player, state)
            chosen_utility = expected_utility(game, player, state, chosen_prob, policy)
            other_utility = expected_utility(game, player, state, 1 - chosen_prob, policy)
            if other_utility > chosen_utility:
                violations.append(
                    (
                        player,
                        state,
                        game.structure.space.states[state],
                        Action.A if chosen_prob == 1 else Action.B,
                        other_utility - chosen_utility,
                    )
                )
    return tuple(violations)


def per_block_noiseless(game: GameInstance) -> bool:
    """The noiseless condition as defined: each block's `Fraction` belief against the prior."""
    structure = game.structure
    prior = structure.measure_of(game.target)
    for player in (0, 1):
        for block in structure.partitions[player].blocks:
            belief = conditional_belief(structure, player, game.target, min(block))
            if belief > prior and belief != 1:
                return False
    return True


def noisy_structure():
    """Player 0's hint lifts target belief to 1/2 without certainty."""
    space = StateSpace(
        ((0, 0), (0, 1), (1, 0)),
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
    )
    coarse = Partition((frozenset({0, 1}), frozenset({2})), (0, 0, 1))
    fine = Partition((frozenset({0}), frozenset({1}), frozenset({2})), (0, 1, 2))
    return InformationStructure(space, (coarse, fine))


class TestExpectedUtility:
    def test_playing_safe_is_worth_c_exactly(self):
        game = messenger_game()
        companion = Policy.constant(len(game.structure), Fraction(1, 3))
        for player in (0, 1):
            for state in range(len(game.structure)):
                assert expected_utility(game, player, state, Fraction(0), companion) == game.payoffs.c

    def test_broadcast_state_against_constant_companions(self):
        game = loudspeaker_game()
        index = game.structure.space.index_of((1, 1))
        always_a = Policy.constant(len(game.structure), Fraction(1))
        always_b = Policy.constant(len(game.structure), Fraction(0))
        assert expected_utility(game, 0, index, Fraction(1), always_a) == game.payoffs.a
        assert expected_utility(game, 0, index, Fraction(1), always_b) == game.payoffs.b

    def test_linear_in_own_mix(self):
        rng = random.Random(5)
        for seed in range(10):
            structure, target = random_structure(RandomStructureConfig(seed=seed))
            game = GameInstance(structure, PAYOFF_CONDITION_1, target)
            companion = Policy(
                tuple(
                    tuple(Fraction(rng.randint(0, 4), 4) for _ in range(len(structure)))
                    for _ in (0, 1)
                )
            )
            for player in (0, 1):
                state = rng.randrange(len(structure))
                low = expected_utility(game, player, state, Fraction(0), companion)
                high = expected_utility(game, player, state, Fraction(1), companion)
                mix = Fraction(rng.randint(0, 8), 8)
                blended = expected_utility(game, player, state, mix, companion)
                assert blended == mix * high + (1 - mix) * low

    def test_linear_in_companion_entry(self):
        structure, target = random_structure(RandomStructureConfig(seed=11))
        game = GameInstance(structure, PAYOFF_CONDITION_1, target)
        n = len(structure)
        rng = random.Random(11)
        base = [[Fraction(rng.randint(0, 4), 4) for _ in range(n)] for _ in (0, 1)]
        state = rng.randrange(n)
        entry = min(structure.block(0, state))

        def utility(value):
            rows = [list(base[0]), list(base[1])]
            rows[1][entry] = value
            return expected_utility(game, 0, state, Fraction(1), Policy((tuple(rows[0]), tuple(rows[1]))))

        lam = Fraction(3, 7)
        assert utility(lam * 1 + (1 - lam) * 0) == lam * utility(Fraction(1)) + (1 - lam) * utility(Fraction(0))

    @pytest.mark.parametrize("kind", ["pure", "mixed", "non-measurable"])
    def test_equals_the_literal_sum_over_members(self, kind):
        rng = random.Random(17)
        for seed in range(40):
            structure, target = random_structure(RandomStructureConfig(seed=seed, num_states=1 + seed % 12))
            game = GameInstance(structure, random_payoffs(rng), target)
            companion = random_policy(rng, structure, kind)
            measures = structure.space.measures
            for player in (0, 1):
                for state in range(len(structure)):
                    block = structure.block(player, state)
                    mine = Fraction(rng.randint(0, 4), 4)
                    total = sum(
                        measures[m] * stage_payoff(game.payoffs, m in target, mine, companion.prob(1 - player, m))
                        for m in block
                    )
                    expected = total / sum(measures[m] for m in block)
                    assert expected_utility(game, player, state, mine, companion) == expected

    @pytest.mark.parametrize(
        "payoffs",
        [
            PayoffParams(Fraction(5, 3), Fraction(1, 7), Fraction(4, 3), Fraction(2, 7)),
            PayoffParams(Fraction(10, 7), Fraction(-1, 3), Fraction(1), Fraction(6, 7)),
        ],
    )
    def test_equals_the_literal_sum_against_matched_companions(self, payoffs):
        """Matched play is common p-belief, whose levels differ in denominator
        across a block, so the block's common denominator grows large."""
        scales = set()
        for seed in range(40):
            structure, target = random_structure(RandomStructureConfig(seed=seed, num_states=1 + seed % 12))
            game = GameInstance(structure, payoffs, target)
            companion = matched_policy(structure, target)
            measures = structure.space.measures
            for player in (0, 1):
                for state in range(len(structure)):
                    block = structure.block(player, state)
                    total = sum(
                        measures[m] * payoffs.value_of_a(m in target, companion.prob(1 - player, m)) for m in block
                    )
                    expected = total / sum(measures[m] for m in block)
                    assert payoff_of_a(game, player, state, companion) == expected, (seed, player, state)
                    scales.add(math.lcm(*(companion.prob(1 - player, m).denominator for m in block)))
        assert max(scales) > 10_000

    def test_value_of_a_matrix_corners(self):
        p = PAYOFF_CONDITION_1
        assert p.value_of_a(1, 1) == p.a
        assert p.value_of_a(True, Fraction(1)) == p.a
        assert p.value_of_a(0, 1) == p.d
        assert p.value_of_a(False, Fraction(1)) == p.d
        assert p.value_of_a(1, 0) == p.b
        assert p.value_of_a(0, 0) == p.b

    def test_value_of_a_is_linear_in_a_belief(self):
        rng = random.Random(3)
        for _ in range(50):
            p = random_payoffs(rng)
            belief, partner = Fraction(rng.randint(0, 12), 12), Fraction(rng.randint(0, 12), 12)
            blended = belief * p.value_of_a(1, partner) + (1 - belief) * p.value_of_a(0, partner)
            assert p.value_of_a(belief, partner) == blended
            blended = partner * p.value_of_a(belief, 1) + (1 - partner) * p.value_of_a(belief, 0)
            assert p.value_of_a(belief, partner) == blended

    def test_stage_payoff_matrix_corners(self):
        p = PAYOFF_CONDITION_1
        assert stage_payoff(p, True, Fraction(1), Fraction(1)) == p.a
        assert stage_payoff(p, False, Fraction(1), Fraction(1)) == p.d
        assert stage_payoff(p, True, Fraction(1), Fraction(0)) == p.b
        assert stage_payoff(p, True, Fraction(0), Fraction(1)) == p.c


class TestBestResponse:
    def test_against_an_always_a_companion(self):
        """Against all-A, A is worth belief·a + (1 − belief)·d over the block:
        the player plays A iff that beats c, and B at an exact tie."""
        game = messenger_game()
        structure = game.structure
        always_a = Policy.constant(len(structure), Fraction(1))
        seen, ties = set(), 0
        for player in (0, 1):
            for state in range(len(structure)):
                belief = conditional_belief(structure, player, game.target, state)
                worth = belief * game.payoffs.a + (1 - belief) * game.payoffs.d
                expected = Action.A if worth > game.payoffs.c else Action.B
                assert best_response(game, player, state, always_a) is expected, (player, state)
                seen.add(expected)
                if 0 < belief < 1:
                    # At payoffs (1, 0, c, 0) A is worth the belief itself.
                    for c, action in ((belief, Action.B), (belief / 2, Action.A)):
                        shifted = GameInstance(structure, PayoffParams(1, 0, c, 0), game.target)
                        assert best_response(shifted, player, state, always_a) is action, (player, state, c)
                    ties += 1
        assert seen == {Action.A, Action.B}
        assert ties > 0


class TestNoiselessCheck:
    def test_builtin_models_are_noiseless(self):
        assert noiseless_check(messenger_game())
        assert noiseless_check(loudspeaker_game())

    def test_noisy_hint_fails(self):
        structure = noisy_structure()
        game = GameInstance(structure, PAYOFF_CONDITION_1, frozenset({1}))
        assert not noiseless_check(game)

    @pytest.mark.parametrize("uniform", [False, True], ids=["weighted", "uniform"])
    def test_matches_the_per_block_beliefs(self, uniform):
        # Uniform measures give exact belief == prior ties, which are not noise.
        seen = set()
        for seed in range(400):
            config = RandomStructureConfig(seed=seed, num_states=1 + seed % 16, uniform_measure=uniform)
            structure, target = random_structure(config)
            game = GameInstance(structure, PAYOFF_CONDITION_1, target)
            expected = per_block_noiseless(game)
            assert noiseless_check(game) is expected, seed
            seen.add(expected)
        assert seen == {False, True}


class TestVerifyEquilibrium:
    def test_messenger_payoff_condition_1(self):
        report = verify_equilibrium(messenger_game())
        assert report.applicable
        assert report.violations == ()
        assert report.passed

    def test_loudspeaker_payoff_condition_1(self):
        report = verify_equilibrium(loudspeaker_game())
        assert report.passed

    def test_high_prior_is_not_applicable(self):
        game = GameInstance.from_world_model(builtin_loudspeaker(Fraction(19, 20)), PAYOFF_CONDITION_1)
        report = verify_equilibrium(game)
        assert not report.applicable
        assert "prior" in report.reason
        assert not report.passed

    def test_noisy_structure_is_not_applicable(self):
        game = GameInstance(noisy_structure(), PAYOFF_CONDITION_1, frozenset({1}))
        report = verify_equilibrium(game)
        assert not report.applicable
        assert "noisy" in report.reason

    def test_rubinstein_paradox(self):
        """Rubinstein's e-mail game at payoffs (1, 0, r, 0), with r at or above the
        beliefs inside the chain but below the one at its truncated end: the threshold
        rule attacks only at that end, and it is an equilibrium."""
        spec = email_chain(12, Fraction(1, 3), Fraction(1, 10))
        game = GameInstance.from_world_model(spec, PayoffParams(1, 0, Fraction(1, 2), 0))
        assert len(game.structure) == 13
        report = verify_equilibrium(game)
        assert report.applicable
        assert report.passed
        policy = rational_policy(game)
        attacks = [[s for s in range(13) if policy.prob(player, s) == 1] for player in (0, 1)]
        assert attacks == [[11, 12], [12]]
        assert all(p in (0, 1) for row in policy.prob_a for p in row)


class TestDeviationGaps:
    @pytest.mark.parametrize("kind", ["pure", "mixed", "non-measurable"])
    def test_block_gaps_equal_the_per_state_definition(self, kind):
        rng = random.Random(kind)
        with_violations = 0
        for seed in range(150):
            structure, target = random_structure(RandomStructureConfig(seed=seed, num_states=1 + seed % 12))
            game = GameInstance(structure, random_payoffs(rng), target)
            policy = random_policy(rng, structure, kind)
            expected = reference_violations(game, policy)
            actual = tuple((v.player, v.state_index, v.state, v.chosen, v.gap) for v in _violations(game, policy))
            assert actual == expected, (seed, kind)
            with_violations += bool(expected)
        assert with_violations >= 100


    def two_state_game(self, c):
        """Two equally likely states, the first on the target; player 0 sees nothing
        and player 1 sees the state.  At payoffs (1, 0, c, 0) against an all-A
        player 1, player 0's payoff of A is its target belief, 1/2."""
        space = StateSpace(((0,), (1,)), (Fraction(1, 2), Fraction(1, 2)))
        structure = InformationStructure(space, (Partition.from_labels([0, 0]), Partition.from_labels([0, 1])))
        return GameInstance(structure, PayoffParams(1, 0, c, 0), frozenset({0}))

    @pytest.mark.parametrize("own", [Fraction(0), Fraction(1), Fraction(1, 2)])
    def test_zero_gain_is_no_violation(self, own):
        game = self.two_state_game(Fraction(1, 2))
        policy = Policy(((own, own), (Fraction(1), Fraction(1))))
        assert payoff_of_a(game, 0, 0, policy) == game.payoffs.c
        assert [v for v in _violations(game, policy) if v.player == 0] == []
        assert _violations(game, policy) == tuple(Violation(*v) for v in reference_violations(game, policy))

    @pytest.mark.parametrize("c", [Fraction(1, 3), Fraction(2, 3)])
    def test_own_play_of_one_half_is_no_violation(self, c):
        game = self.two_state_game(c)
        half = Fraction(1, 2)
        policy = Policy(((half, half), (Fraction(1), Fraction(1))))
        assert payoff_of_a(game, 0, 0, policy) != c
        assert [v for v in _violations(game, policy) if v.player == 0] == []
        assert _violations(game, policy) == tuple(Violation(*v) for v in reference_violations(game, policy))


def probability_calls(value):
    """(argument name, call) for each probability that the per-state payoff helpers
    take, the call passing `value` there; the name is the one their errors give."""
    game = messenger_game()
    payoffs, matched, half = game.payoffs, matched_policy(game.structure, game.target), Fraction(1, 2)
    return [
        ("my_prob_a", lambda: expected_utility(game, 0, 3, value, matched)),
        ("my_prob_a", lambda: stage_payoff(payoffs, True, value, half)),
        ("partner", lambda: stage_payoff(payoffs, True, half, value)),
        ("partner", lambda: payoffs.value_of_a(1, value)),
        ("on_target", lambda: payoffs.value_of_a(value, half)),
    ]


class TestPolicy:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            Policy(((Fraction(2),), (Fraction(0),)))

    @pytest.mark.parametrize("entry", [Fraction(-1, 2), Fraction(3, 2), "1.5", 2])
    def test_entry_outside_unit_interval_refused(self, entry):
        with pytest.raises(ValueError, match=r"action probabilities must lie in \[0, 1\]"):
            Policy(((entry,), (Fraction(0),)))
        for name, call in probability_calls(entry):
            with pytest.raises(ValueError, match=rf"{name} must lie in \[0, 1\]"):
                call()

    @pytest.mark.parametrize("entry,value", [(0, Fraction(0)), (1, Fraction(1)), ("1/3", Fraction(1, 3))])
    def test_entry_inside_unit_interval_accepted(self, entry, value):
        assert Policy(((entry,), (entry,))).prob_a == ((value,), (value,))
        exact = [call() for _, call in probability_calls(value)]
        assert [call() for _, call in probability_calls(entry)] == exact

    def test_rational_policy_is_partition_measurable(self):
        game = messenger_game()
        assert is_partition_measurable(game.structure, rational_policy(game))

    def test_non_measurable_policy_detected(self):
        game = loudspeaker_game()
        n = len(game.structure)
        rows = [[Fraction(0)] * n, [Fraction(0)] * n]
        rows[0][game.structure.space.index_of((0, 0))] = Fraction(1)  # splits the silent block
        assert not is_partition_measurable(game.structure, Policy((tuple(rows[0]), tuple(rows[1]))))

    def test_float_entries_rejected(self):
        with pytest.raises(ValueError, match="float"):
            Policy(((0.5,), (0.5,)))
        with pytest.raises(ValueError, match="float"):
            Policy.constant(3, 0.5)
        for _, call in probability_calls(0.5):
            with pytest.raises(ValueError, match="refusing inexact float 0.5"):
                call()

    @pytest.mark.parametrize(
        "rows,lengths",
        [
            (((1, 1, 1),) * 3, "[3, 3, 3]"),
            (((1, 1, 1),), "[3]"),
            (((1, 1, 1), (1, 1, 1, 1, 1)), "[3, 5]"),
            ((), "[]"),
        ],
        ids=["three-rows", "one-row", "unequal-rows", "no-rows"],
    )
    def test_two_rows_of_equal_length_required(self, rows, lengths):
        with pytest.raises(ValueError, match=rf"two rows of equal length.*lengths {re.escape(lengths)}"):
            Policy(rows)

    @pytest.mark.parametrize("direction", ["messenger-on-loudspeaker", "loudspeaker-on-messenger"])
    def test_companion_of_another_size_refused(self, direction):
        games = [messenger_game(), loudspeaker_game()]
        if direction == "loudspeaker-on-messenger":
            games.reverse()
        other, game = games
        companion = matched_policy(other.structure, other.target)
        sizes = rf"covers {len(other.structure)} states, but the structure has {len(game.structure)}"
        for call in (payoff_of_a, best_response):
            with pytest.raises(ValueError, match=sizes):
                call(game, 0, 0, companion)
        with pytest.raises(ValueError, match=sizes):
            expected_utility(game, 0, 0, Fraction(1), companion)
        with pytest.raises(ValueError, match=sizes):
            _violations(game, companion)
        with pytest.raises(ValueError, match=sizes):
            is_partition_measurable(game.structure, companion)

    def test_boolean_entries_rejected(self):
        with pytest.raises(ValueError, match="boolean"):
            Policy(((True,), (False,)))

    def test_entries_parsed_exactly(self):
        policy = Policy((("1/2", "0.25"), (1, Fraction(1, 3))))
        assert policy.prob_a == ((Fraction(1, 2), Fraction(1, 4)), (Fraction(1), Fraction(1, 3)))
        assert all(type(p) is Fraction for row in policy.prob_a for p in row)

    @pytest.mark.parametrize(
        "player,state,message",
        [
            (2, 0, "player must be 0 or 1, got 2"),
            (-1, 0, "player must be 0 or 1, got -1"),
            (0, 18, "state index 18 out of range 0..17"),
            (1, -1, "state index -1 out of range 0..17"),
        ],
    )
    def test_bad_index_refused_as_common_p_belief_does(self, messenger, messenger_target, player, state, message):
        # A negative index would otherwise read the other player's row or the last state.
        with pytest.raises(IndexError, match=re.escape(message)):
            matched_policy(messenger, messenger_target).prob(player, state)
        with pytest.raises(IndexError, match=re.escape(message)):
            common_p_belief(messenger, messenger_target, player, state)

    def test_set_target_is_stored_frozen(self):
        game = messenger_game()
        thawed = GameInstance(game.structure, game.payoffs, set(game.target))
        assert isinstance(thawed.target, frozenset)
        assert thawed == game
        assert verify_equilibrium(thawed) == verify_equilibrium(game)

    def test_target_outside_space_rejected(self):
        structure, _ = random_structure(RandomStructureConfig(seed=1, num_states=4))
        with pytest.raises(ValueError):
            GameInstance(structure, PAYOFF_CONDITION_1, frozenset({99}))


class TestNothingBuiltToValidate:
    def test_a_game_instance_builds_no_ladder(self):
        structure, target = random_structure(RandomStructureConfig(seed=1, num_states=4))
        game = GameInstance(structure, PAYOFF_CONDITION_1, iter(target))
        assert game.target == target and structure._memo == {}
        with pytest.raises(ValueError, match="^target event references state indices outside the space$"):
            GameInstance(structure, PAYOFF_CONDITION_1, {99})
        assert structure._memo == {}

    def test_the_cognitive_agent_builds_no_game_instance(self, monkeypatch):
        structure, target = random_structure(RandomStructureConfig(seed=2, num_states=12))
        game = GameInstance(structure, PAYOFF_CONDITION_1, target)
        companion = matched_policy(structure, target)
        expected = {(p, s): best_response(game, p, s, companion) for p in (0, 1) for s in range(len(structure))}

        def refuse(*args, **kwargs):
            raise AssertionError("a GameInstance was built")

        monkeypatch.setattr(game_module, "GameInstance", refuse)
        for (player, state), action in expected.items():
            assert cognitive_strategy(structure, iter(target), PAYOFF_CONDITION_1, player, state) is action


POLICY_PAYOFFS = ["1.1,0,1,0.4", "1,0,1/2,0", "1,0,3/10,0", "2,1/3,1,0"]


def policy_structures():
    """Random structures (seeds 0-29 at 1, 3, 7, 12 and 40 states, every third
    seed uniform), both builtins at delta 1/4 and 1/2, and an e-mail chain."""
    for num_states in (1, 3, 7, 12, 40):
        for seed in range(30):
            yield random_structure(RandomStructureConfig(seed, num_states, uniform_measure=seed % 3 == 0))
    specs = [builtin(delta) for builtin in (builtin_loudspeaker, builtin_messenger) for delta in (DELTA, Fraction(1, 2))]
    for spec in specs + [email_chain(12, Fraction(1, 3), Fraction(1, 10))]:
        structure = from_world_model(spec)
        yield structure, x_event(spec, structure.space)


class TestPoliciesEqualThePerStateRules:
    """The policies are read off the ladder's per-block table; the per-state
    rules read common p-belief one (player, state) at a time."""

    @pytest.mark.parametrize("payoffs", POLICY_PAYOFFS)
    def test_at_every_player_and_state(self, payoffs):
        params = PayoffParams.parse(payoffs)
        threshold = risk_threshold(params)
        ties = 0
        for structure, target in policy_structures():
            matched = matched_policy(structure, target)
            rational = rational_policy(GameInstance(structure, params, target))
            for player in (0, 1):
                for state in range(len(structure)):
                    belief = matched_p_belief_prob(structure, target, player, state)
                    assert matched.prob(player, state) == belief, (payoffs, player, state)
                    plays_a = rational_p_belief_action(structure, target, params, player, state) is Action.A
                    assert (rational.prob(player, state) == 1) is plays_a, (payoffs, player, state)
                    assert rational.prob(player, state) in (0, 1)
                    ties += belief == threshold
        if payoffs == "1,0,1/2,0":
            # The messenger's tertiary state ties the threshold: the rule plays B there.
            assert ties


# The package's public names other than its submodules.  The first set is the attack game's
# payoff types, rules and policies, which `epicoord.game` defines.
GAME_EXPORTS = frozenset(
    """
    Action EquilibriumReport GameInstance PayoffParams Policy Violation best_response
    cognitive_strategy expected_utility is_partition_measurable iterated_matching
    iterated_maximization iterated_maximization_prob matched_p_belief_prob matched_policy
    noiseless_check pair_heuristic payoff_of_a private_heuristic rational_p_belief_action
    rational_policy risk_threshold stage_payoff verify_equilibrium
    """.split()
)
OTHER_EXPORTS = frozenset(
    """
    AgentStrategy CONDITION_NAMES Event EvidentLadder HumanData InformationStructure
    KnowledgeCondition LadderRung ModelFit ModelKind ObservationRule ObservationTrace
    PAYOFF_CONDITION_1 Partition PredictionTable RandomStructureConfig SpecError State StateSpace
    SweepResult VariableSpec WorldModelSpec brute_force_common_p_belief build_information_partition
    builtin_loudspeaker builtin_messenger common_p_belief compare_models conditional_belief
    default_risk_grid enumerate_states event_where evidence_level evident_ladder fit_level
    fixedpoint_common_p_belief format_rational from_world_model human_agent_sweep is_c_indicating
    is_p_evident knowledge_conditions largest_p_evident_indicating_event load_spec marginal_value
    min_belief mse parse_event_predicate parse_rational predict random_structure run_observations
    spec_from_json spec_to_json super_p_evident trace_values x_event
    """.split()
)


class TestPublicSurface:
    def test_the_exported_names_are_pinned(self):
        exported = {
            name
            for name in dir(epicoord)
            if not name.startswith("_") and not isinstance(getattr(epicoord, name), types.ModuleType)
        }
        assert exported == GAME_EXPORTS | OTHER_EXPORTS
