import gc
import random
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicoord import experiments
from epicoord import game as game_module
from epicoord import (
    Action,
    AgentStrategy,
    HumanData,
    KnowledgeCondition,
    ModelKind,
    PayoffParams,
    RandomStructureConfig,
    builtin_loudspeaker,
    builtin_messenger,
    cognitive_strategy,
    compare_models,
    default_risk_grid,
    fit_level,
    from_world_model,
    human_agent_sweep,
    iterated_matching,
    iterated_maximization,
    knowledge_conditions,
    marginal_value,
    matched_p_belief_prob,
    mse,
    pair_heuristic,
    predict,
    private_heuristic,
    random_structure,
    rational_p_belief_action,
    verify_equilibrium,
    x_event,
)
from epicoord.experiments import (
    CONDITION_NAMES,
    LEVEL_GRID,
    PAYOFF_CONDITION_1,
    SWEEP_STRATEGIES,
    PredictionTable,
    agent_action,
    play,
)
from epicoord.game import GameInstance, _matched_a_weights, matched_policy, payoff_of_a

from .conftest import DELTA, email_chain, make_human
from .test_cli import GOLDEN_PAYOFFS

# Agent-seat behavior at payoffs (1, 0, p*, 0), frozen from hand analysis and
# cross-checked in test_strategies: the cognitive agent attacks iff p* is
# strictly below its per-condition expected value of attacking (here per δ),
# the private heuristic attacks wherever it observed the good state, the pair
# heuristic additionally requires certainty about the partner.
COGNITIVE_THRESHOLDS = {
    Fraction(1, 10): {
        "private": Fraction(1, 50),
        "secondary": Fraction(3, 10),
        "tertiary": Fraction(1, 2),
        "common": Fraction(1),
    },
    Fraction(1, 4): {
        "private": Fraction(5, 64),
        "secondary": Fraction(3, 8),
        "tertiary": Fraction(1, 2),
        "common": Fraction(1),
    },
    Fraction(3, 5): {
        "private": Fraction(9, 25),
        "secondary": Fraction(3, 5),
        "tertiary": Fraction(3, 5),
        "common": Fraction(1),
    },
}
PRIVATE_PLAYS = ("secondary", "tertiary", "common")
PAIR_PLAYS = ("tertiary", "common")


def per_grid_fraction_sweep(grid, conditions, human, strategies):
    """The sweep's grid scan as defined: each cell a `Fraction` sum of gain - p* over the conditions playing A."""
    payoffs = PayoffParams(Fraction(1), Fraction(0), Fraction(1, 2), Fraction(0))
    gains = [
        payoffs.value_of_a(c.state_index() in c.target(), human.prob_a[c.name]) for c in conditions
    ]
    values = {}
    for strategy in strategies:
        bounds = [experiments._attack_bound(strategy, c) for c in conditions]
        values[strategy] = tuple(
            sum((gain - p for gain, bound in zip(gains, bounds) if p < bound), Fraction(0)) for p in grid
        )
    return values


def literal_mse(table, human):
    """Mean squared error as defined: sum of (p - h)^2 over the conditions, over four, in `Fraction`s."""
    return sum((table.probs[name] - human.prob_a[name]) ** 2 for name in CONDITION_NAMES) / 4


def random_human(rng, max_n=1000):
    counts = {name: rng.randint(1, max_n) for name in CONDITION_NAMES}
    return HumanData(counts, {name: Fraction(rng.randint(0, n), n) for name, n in counts.items()})


probabilities = st.builds(
    lambda n, k: Fraction(min(k, n), n), st.integers(1, 1 << 20), st.integers(0, 1 << 20)
)


class TestKnowledgeConditions:
    def test_shapes_and_seats(self):
        conditions = knowledge_conditions(DELTA)
        assert tuple(c.name for c in conditions) == CONDITION_NAMES
        by_name = {c.name: c for c in conditions}
        assert by_name["private"].state == (1, 1, 0, 1, 0)
        assert by_name["secondary"].state == (1, 1, 1, 0, 1)
        assert by_name["tertiary"].state == (1, 1, 1, 1, 0)
        assert by_name["common"].state == (1, 1)
        assert [c.participant for c in conditions] == [0, 1, 0, 0]
        assert [c.agent for c in conditions] == [1, 0, 1, 1]
        # first three share the messenger model, the fourth is the loudspeaker
        assert by_name["private"].model is by_name["tertiary"].model
        assert len(by_name["common"].model.variables) == 2

    def test_states_have_positive_measure(self):
        for condition in knowledge_conditions(Fraction(1, 3)):
            assert condition.state_index() >= 0

    def test_each_condition_is_resolved_once(self):
        conditions = knowledge_conditions(DELTA)
        for condition in conditions:
            assert condition.structure() is condition.structure()
            assert condition.target() is condition.target()
            assert condition.state_index() == condition.state_index()
        # Resolving a condition leaves its equality and hash to its fields.
        fresh = knowledge_conditions(DELTA)
        assert conditions == fresh and hash(conditions) == hash(fresh)
        assert {fresh[0]: "private"}[conditions[0]] == "private"
        for condition, twin in zip(conditions, fresh):
            assert twin.structure() == condition.structure() and twin.target() == condition.target()
            assert twin.state_index() == condition.state_index()

    def test_zero_measure_state_is_refused_when_made(self):
        # tell_plan_1 = 1 while visit_1 = 0: the gate pins it to 0, so the state has no measure.
        with pytest.raises(ValueError, match="zero measure"):
            KnowledgeCondition("impossible", builtin_messenger(DELTA), (0, 0, 0, 0, 1), participant=0)

    @pytest.mark.parametrize("delta", ["0", "1", "5/4"])
    def test_delta_must_be_interior(self, delta):
        with pytest.raises(ValueError, match=rf"^delta must lie strictly in \(0, 1\), got {delta}$"):
            knowledge_conditions(delta)

    @pytest.mark.parametrize("participant", [2, -1, True, False, 1.0, "0", None])
    def test_participant_must_be_the_integer_0_or_1(self, monkeypatch, participant):
        # Refused before the structure is resolved: True would silently seat player 1.
        monkeypatch.setattr(experiments, "from_world_model", None)
        with pytest.raises(ValueError, match=re.escape(f"participant must be the integer 0 or 1, got {participant!r}")):
            KnowledgeCondition("private", builtin_messenger(DELTA), (1, 1, 0, 1, 0), participant=participant)


class TestPredict:
    def test_matched_table(self):
        table = predict(ModelKind.MATCHED, knowledge_conditions(DELTA))
        assert table.probs == {
            "private": Fraction(1, 4),
            "secondary": Fraction(1, 2),
            "tertiary": Fraction(1, 2),
            "common": Fraction(1),
        }

    def test_rational_table(self):
        table = predict(ModelKind.RATIONAL, knowledge_conditions(DELTA), PAYOFF_CONDITION_1)
        assert table.probs == {
            "private": Fraction(0),
            "secondary": Fraction(0),
            "tertiary": Fraction(0),
            "common": Fraction(1),
        }

    def test_itermatch_level0_is_certainty_everywhere(self):
        table = predict(ModelKind.ITERMATCH, knowledge_conditions(DELTA), level=0)
        assert set(table.probs.values()) == {Fraction(1)}

    @pytest.mark.parametrize(
        "delta", [Fraction(1, 10), Fraction(1, 4), Fraction(2, 5), Fraction(1, 2), Fraction(3, 4)]
    )
    def test_matched_invariants_across_delta(self, delta):
        table = predict(ModelKind.MATCHED, knowledge_conditions(delta))
        assert table.probs["secondary"] == table.probs["tertiary"]
        assert table.probs["common"] == 1
        assert table.probs["private"] == delta

    def test_threshold_models_invariant_to_affine_payoff_rescale(self):
        conditions = knowledge_conditions(DELTA)
        base = PAYOFF_CONDITION_1
        scaled = PayoffParams("2.2", "0", "2", "0.8")
        shifted = PayoffParams("2.1", "1", "2", "1.4")
        for payoffs in (scaled, shifted):
            assert predict(ModelKind.RATIONAL, conditions, payoffs).probs == (
                predict(ModelKind.RATIONAL, conditions, base).probs
            )
            assert predict(ModelKind.ITERMAX, conditions, payoffs, 0).probs == (
                predict(ModelKind.ITERMAX, conditions, base, 0).probs
            )

    def test_missing_arguments_rejected(self):
        conditions = knowledge_conditions(DELTA)
        with pytest.raises(ValueError, match="payoffs must be a PayoffParams, got None"):
            predict(ModelKind.RATIONAL, conditions)
        with pytest.raises(ValueError, match=re.escape("level must be an integer >= 0, got None")):
            predict(ModelKind.ITERMAX, conditions, PAYOFF_CONDITION_1)
        with pytest.raises(ValueError, match=re.escape("level must be an integer >= 0, got None")):
            predict(ModelKind.ITERMATCH, conditions)


# Each rule with its own function and the arguments it reads besides
# (structure, target, ..., player, state), in the function's order.
PLAY_RULES = [
    ("rational", rational_p_belief_action, ("payoffs",)),
    ("matched", matched_p_belief_prob, ()),
    ("itermax", iterated_maximization, ("payoffs", "level")),
    ("itermatch", iterated_matching, ("level",)),
    ("cognitive", cognitive_strategy, ("payoffs",)),
    ("private", private_heuristic, ()),
    ("pair", pair_heuristic, ()),
]


class TestPlay:
    def test_rules_are_every_model_and_agent(self):
        names = {rule for rule, _, _ in PLAY_RULES} | {AgentStrategy.ALWAYS_B.value}
        assert names == {kind.value for kind in ModelKind} | {strategy.value for strategy in AgentStrategy}

    @pytest.mark.parametrize("rule,function,reads", PLAY_RULES, ids=[rule for rule, _, _ in PLAY_RULES])
    def test_play_is_the_rules_own_function(self, rule, function, reads):
        for spec in (builtin_messenger(DELTA), builtin_loudspeaker(DELTA)):
            structure = from_world_model(spec)
            target = x_event(spec, structure.space)
            for payoffs in map(PayoffParams.parse, GOLDEN_PAYOFFS):
                for level in (0, 3):
                    arguments = {"payoffs": payoffs, "level": level}
                    for player in (0, 1):
                        for state in range(len(structure)):
                            expected = function(structure, target, *map(arguments.get, reads), player, state)
                            value = play(rule, structure, target, payoffs, level, player, state)
                            assert (type(value), value) == (type(expected), expected), (rule, player, state)

    @pytest.mark.parametrize("rule", [rule for rule, _, _ in PLAY_RULES])
    def test_a_bad_target_is_refused_before_a_bad_player(self, rule):
        """`common_p_belief`'s error order for every rule: a target outside the space
        raises `ValueError` before a bad player raises `IndexError`."""
        structure = from_world_model(builtin_messenger(DELTA))
        with pytest.raises(ValueError, match="outside the space"):
            play(rule, structure, {999}, PAYOFF_CONDITION_1, 2, 5, 0)

    @pytest.mark.parametrize("read", [rule for rule, _, _ in PLAY_RULES] + ["verify_equilibrium", "matched_policy"])
    def test_a_dropped_structure_is_freed(self, read):
        """Nothing a rule keeps on a structure refers back to it, so reference counting
        alone frees a dropped structure, with the cyclic collector off."""
        gc.disable()
        try:
            structure, target = random_structure(RandomStructureConfig(seed=5, num_states=40))
            if read == "verify_equilibrium":
                verify_equilibrium(GameInstance(structure, PAYOFF_CONDITION_1, target))
            elif read == "matched_policy":
                matched_policy(structure, target)
            else:
                play(read, structure, target, PAYOFF_CONDITION_1, 2, 0, 0)
            alive = weakref.ref(structure)
            del structure
            assert alive() is None
        finally:
            gc.enable()

    def test_a_rule_name_answers_as_its_member(self, synthetic_human):
        """Every entry that takes a `ModelKind` or `AgentStrategy` takes its value as `play` does."""
        conditions = knowledge_conditions(DELTA)
        for kind, payoffs, level in (
            (ModelKind.RATIONAL, PAYOFF_CONDITION_1, None),
            (ModelKind.MATCHED, None, None),
            (ModelKind.ITERMAX, PAYOFF_CONDITION_1, 3),
            (ModelKind.ITERMATCH, None, 3),
        ):
            assert predict(kind.value, conditions, payoffs, level) == predict(kind, conditions, payoffs, level)
        for kind in (ModelKind.ITERMAX, ModelKind.ITERMATCH):
            fitted = fit_level(kind, conditions, PAYOFF_CONDITION_1, synthetic_human)
            assert fit_level(kind.value, conditions, PAYOFF_CONDITION_1, synthetic_human) == fitted
        with pytest.raises(ValueError, match="matched has no recursion level to fit"):
            fit_level("matched", conditions, PAYOFF_CONDITION_1, synthetic_human)
        for strategy in AgentStrategy:
            for condition in conditions:
                action = agent_action(strategy, condition, PAYOFF_CONDITION_1)
                assert agent_action(strategy.value, condition, PAYOFF_CONDITION_1) is action
            value = marginal_value(strategy, conditions, synthetic_human, PAYOFF_CONDITION_1)
            assert marginal_value(strategy.value, conditions, synthetic_human, PAYOFF_CONDITION_1) == value
        grid = default_risk_grid()
        for strategies in [(strategy,) for strategy in AgentStrategy] + [SWEEP_STRATEGIES]:
            names = tuple(strategy.value for strategy in strategies)
            swept = human_agent_sweep(grid, conditions, synthetic_human, names)
            assert swept == human_agent_sweep(grid, conditions, synthetic_human, strategies)
            assert all(type(key) is AgentStrategy for key in swept.values)

    def test_an_unknown_rule_name_is_refused(self, synthetic_human):
        conditions = knowledge_conditions(DELTA)
        for call in (
            lambda: predict("bogus", conditions, PAYOFF_CONDITION_1, 0),
            lambda: fit_level("bogus", conditions, PAYOFF_CONDITION_1, synthetic_human),
            lambda: agent_action("bogus", conditions[0], PAYOFF_CONDITION_1),
            # Refused at entry, with no condition to play.
            lambda: marginal_value("bogus", (), synthetic_human, PAYOFF_CONDITION_1),
            lambda: human_agent_sweep(default_risk_grid(), conditions, synthetic_human, ("cognitive", "bogus")),
        ):
            with pytest.raises(ValueError, match="'bogus' is not a valid"):
                call()

    def test_always_b_and_unknown_rules(self):
        private = knowledge_conditions(DELTA)[0]
        structure, target, state = private.structure(), private.target(), private.state_index()
        assert play("always_b", structure, target, None, None, 0, state) is Action.B
        with pytest.raises(ValueError, match="unknown play rule 'always_a'"):
            play("always_a", structure, target, PAYOFF_CONDITION_1, 0, 0, state)


class TestMse:
    def test_perfect_prediction(self):
        human = make_human(Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), Fraction(1))
        table = predict(ModelKind.MATCHED, knowledge_conditions(DELTA))
        assert mse(table, human) == 0

    def test_opposite_extremes(self):
        human = make_human(1, 1, 1, 1)
        table = predict(ModelKind.RATIONAL, knowledge_conditions(DELTA), PAYOFF_CONDITION_1)
        assert mse(table, human) == Fraction(3, 4)

    def test_hand_computed_value(self, synthetic_human):
        table = predict(ModelKind.MATCHED, knowledge_conditions(DELTA))
        expected = (
            (Fraction(1, 4) - Fraction(1, 5)) ** 2
            + (Fraction(1, 2) - Fraction(11, 20)) ** 2
            + (Fraction(1, 2) - Fraction(3, 5)) ** 2
            + (Fraction(1) - Fraction(17, 20)) ** 2
        ) / 4
        assert mse(table, synthetic_human) == expected

    @pytest.mark.parametrize("delta", [DELTA, Fraction(37, 100)])
    @pytest.mark.parametrize("level", LEVEL_GRID)
    def test_matches_literal_sum_on_itermatch_tables(self, level, delta, synthetic_human):
        table = predict(ModelKind.ITERMATCH, knowledge_conditions(delta), level=level)
        rng = random.Random(level)
        for human in (synthetic_human, random_human(rng), random_human(rng)):
            assert mse(table, human) == literal_mse(table, human)

    def test_itermatch_denominators_reach_past_two_to_the_sixteenth(self):
        table = predict(ModelKind.ITERMATCH, knowledge_conditions(DELTA), level=5)
        assert max(p.denominator for p in table.probs.values()) >= 1 << 16

    @given(st.lists(probabilities, min_size=8, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_literal_sum_on_drawn_tables(self, values):
        table = PredictionTable("drawn", None, dict(zip(CONDITION_NAMES, values[:4])))
        human = make_human(*values[4:])
        assert mse(table, human) == literal_mse(table, human)

    def test_missing_condition_rejected(self, synthetic_human):
        table = predict(ModelKind.MATCHED, knowledge_conditions(DELTA)[:3])
        with pytest.raises(ValueError, match="missing"):
            mse(table, synthetic_human)


class TestFitLevel:
    def test_tie_breaks_toward_smaller_level(self):
        # itermax predicts (1,1,1,1) at k=0 and (0,1,1,1) at k=1, so a human
        # private proportion of 1/2 ties them; the smaller level must win.
        human = make_human(Fraction(1, 2), 1, 1, 1)
        conditions = knowledge_conditions(DELTA)
        assert fit_level(ModelKind.ITERMAX, conditions, PAYOFF_CONDITION_1, human) == 0

    def test_recovers_exact_generator_level(self):
        conditions = knowledge_conditions(DELTA)
        level_three = predict(ModelKind.ITERMATCH, conditions, level=3)
        human = make_human(*(level_three.probs[name] for name in CONDITION_NAMES))
        assert fit_level(ModelKind.ITERMATCH, conditions, PAYOFF_CONDITION_1, human) == 3

    def test_levelless_models_rejected(self, synthetic_human):
        with pytest.raises(ValueError):
            fit_level(ModelKind.MATCHED, knowledge_conditions(DELTA), PAYOFF_CONDITION_1, synthetic_human)


class TestHumanDataCsv:
    def test_parses_decimals_and_rationals(self, tmp_path):
        path = tmp_path / "human.csv"
        path.write_text(
            "condition,n,prob_a\n"
            "private,34,0.15\n"
            "secondary,36,11/20\n"
            "tertiary,33,0.6\n"
            "common,35,0.85\n"
        )
        human = HumanData.from_csv(path)
        assert human.prob_a["private"] == Fraction(3, 20)
        assert human.prob_a["secondary"] == Fraction(11, 20)
        assert human.counts["common"] == 35

    def test_byte_order_mark_accepted(self, tmp_path):
        """A spreadsheet export starts with a UTF-8 byte-order mark; it reads like the plain file."""
        text = "condition,n,prob_a\nprivate,34,0.15\nsecondary,36,11/20\ntertiary,33,0.6\ncommon,35,0.85\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert HumanData.from_csv(marked) == HumanData.from_csv(plain)

    def test_missing_condition(self, tmp_path):
        path = tmp_path / "human.csv"
        path.write_text("condition,n,prob_a\nprivate,10,0.5\n")
        with pytest.raises(ValueError, match="missing"):
            HumanData.from_csv(path)

    def test_unknown_condition(self, tmp_path):
        path = tmp_path / "human.csv"
        path.write_text(
            "condition,n,prob_a\nprivate,1,0\nsecondary,1,0\ntertiary,1,0\ncommon,1,0\nextra,1,0\n"
        )
        with pytest.raises(ValueError, match="unknown"):
            HumanData.from_csv(path)

    def test_duplicate_condition(self, tmp_path):
        path = tmp_path / "human.csv"
        path.write_text("condition,n,prob_a\nprivate,1,0\nprivate,1,0\n")
        with pytest.raises(ValueError, match="duplicate"):
            HumanData.from_csv(path)

    @pytest.mark.parametrize(
        "row,message",
        [
            ("secondary,abc,1/2", "line 3: n must be an integer, got 'abc'"),
            ("secondary,5,half", "line 3: prob_a: not a rational number: 'half'"),
        ],
        ids=["n", "prob_a"],
    )
    def test_unparsable_value_names_path_and_line(self, tmp_path, row, message):
        path = tmp_path / "human.csv"
        path.write_text(f"condition,n,prob_a\nprivate,1,0\n{row}\n")
        with pytest.raises(ValueError) as excinfo:
            HumanData.from_csv(path)
        assert str(excinfo.value) == f"{path}, {message}"

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "human.csv"
        path.write_text("cond,count,p\nprivate,1,0\n")
        with pytest.raises(ValueError, match="columns"):
            HumanData.from_csv(path)

    def test_probability_out_of_range(self):
        with pytest.raises(ValueError):
            make_human(2, 0, 0, 0)

    def test_float_probability_refused(self):
        values = {name: Fraction(1, 2) for name in CONDITION_NAMES}
        with pytest.raises(ValueError, match="refusing inexact float 0.25"):
            HumanData({name: 10 for name in values}, {**values, "tertiary": 0.25})

    @pytest.mark.parametrize(
        "count,shown",
        [(-3, "-3"), (0, "0"), (0.5, "0.5"), (True, "True"), ("10", "'10'"), (Fraction(10), "Fraction(10, 1)")],
        ids=["negative", "zero", "float", "bool", "text", "fraction"],
    )
    def test_count_must_be_an_integer_of_at_least_1(self, count, shown):
        values = {name: Fraction(1, 2) for name in CONDITION_NAMES}
        counts = {name: 10 for name in CONDITION_NAMES}
        message = f"condition 'secondary': count {shown} is not an integer of at least 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            HumanData({**counts, "secondary": count}, values)

    def test_counts_name_exactly_the_four_conditions(self):
        values = {name: Fraction(1, 2) for name in CONDITION_NAMES}
        with pytest.raises(ValueError, match=re.escape("counts: missing conditions: ['common']")):
            HumanData({"private": -3, "secondary": 0.5, "tertiary": 1}, values)
        with pytest.raises(ValueError, match=re.escape("counts: unknown conditions: ['extra']")):
            HumanData({**{name: 10 for name in CONDITION_NAMES}, "extra": 10}, values)


def expected_margin(strategy, human, p_star):
    if strategy is AgentStrategy.PRIVATE:
        plays = PRIVATE_PLAYS
    elif strategy is AgentStrategy.PAIR:
        plays = PAIR_PLAYS
    else:
        plays = tuple(n for n in CONDITION_NAMES if COGNITIVE_THRESHOLDS[DELTA][n] > p_star)
    return sum((human.prob_a[name] - p_star for name in plays), Fraction(0))


class TestMarginalValue:
    def test_always_b_is_zero_everywhere(self, synthetic_human):
        conditions = knowledge_conditions(DELTA)
        for p_star in default_risk_grid():
            payoffs = PayoffParams(Fraction(1), Fraction(0), p_star, Fraction(0))
            assert marginal_value(AgentStrategy.ALWAYS_B, conditions, synthetic_human, payoffs) == 0

    @pytest.mark.parametrize(
        "strategy", [AgentStrategy.COGNITIVE, AgentStrategy.PRIVATE, AgentStrategy.PAIR]
    )
    def test_matches_closed_form_margins(self, strategy, synthetic_human):
        conditions = knowledge_conditions(DELTA)
        for p_star in default_risk_grid():
            payoffs = PayoffParams(Fraction(1), Fraction(0), p_star, Fraction(0))
            assert marginal_value(strategy, conditions, synthetic_human, payoffs) == (
                expected_margin(strategy, synthetic_human, p_star)
            )

    def test_agent_action_takes_the_companion_seat(self):
        condition = knowledge_conditions(DELTA)[0]  # private: agent is unvisited player 1
        action = agent_action(AgentStrategy.PRIVATE, condition, PAYOFF_CONDITION_1)
        assert action.value == "B"


class TestSweep:
    def test_values_match_marginal_value(self, synthetic_human):
        conditions = knowledge_conditions(DELTA)
        grid = (Fraction(1, 20), Fraction(1, 2), Fraction(19, 20))
        result = human_agent_sweep(grid, conditions, synthetic_human)
        for strategy, values in result.values.items():
            for p_star, value in zip(grid, values):
                payoffs = PayoffParams(Fraction(1), Fraction(0), p_star, Fraction(0))
                assert value == marginal_value(strategy, conditions, synthetic_human, payoffs)

    def test_default_grid(self):
        grid = default_risk_grid()
        assert len(grid) == 19
        assert grid[0] == Fraction(1, 20)
        assert grid[-1] == Fraction(19, 20)
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_grid_validation(self, synthetic_human):
        conditions = knowledge_conditions(DELTA)
        with pytest.raises(ValueError):
            human_agent_sweep((Fraction(0), Fraction(1, 2)), conditions, synthetic_human)
        with pytest.raises(ValueError):
            human_agent_sweep((Fraction(1, 2), Fraction(1, 4)), conditions, synthetic_human)
        with pytest.raises(ValueError, match="refusing inexact float 0.5"):
            human_agent_sweep((Fraction(1, 4), 0.5), conditions, synthetic_human)
        # Each end of the rule, at its exact value: a repeated point, and p* = 1.
        with pytest.raises(ValueError, match="^risk grid must be strictly increasing$"):
            human_agent_sweep((Fraction(1, 4), Fraction(1, 4)), conditions, synthetic_human)
        with pytest.raises(ValueError, match=r"^risk grid values must lie strictly in \(0, 1\)$"):
            human_agent_sweep((Fraction(1),), conditions, synthetic_human)

    @pytest.mark.parametrize("delta", [Fraction(1, 10), Fraction(1, 4), Fraction(3, 5)])
    @pytest.mark.parametrize(
        "human",
        [
            make_human(Fraction(1, 5), Fraction(11, 20), Fraction(3, 5), Fraction(17, 20)),
            make_human(0, 1, Fraction(1, 3), 1, n=7),
        ],
        ids=["synthetic", "extremes"],
    )
    def test_matches_marginal_value_on_and_around_each_utility(self, delta, human):
        """Each cognitive utility and its neighbours at 10^-6 are on the grid; a
        point exactly on one is a tie, where the agent plays B."""
        conditions = knowledge_conditions(delta)
        placeholder = PayoffParams(Fraction(1), Fraction(0), Fraction(1, 2), Fraction(0))
        utilities = {
            c.name: payoff_of_a(
                GameInstance(c.structure(), placeholder, c.target()),
                c.agent,
                c.state_index(),
                matched_policy(c.structure(), c.target()),
            )
            for c in conditions
        }
        assert utilities == COGNITIVE_THRESHOLDS[delta]
        step = Fraction(1, 10**6)
        grid = tuple(sorted({p for u in utilities.values() for p in (u - step, u, u + step) if 0 < p < 1}))
        strategies = (*SWEEP_STRATEGIES, AgentStrategy.ALWAYS_B)
        result = human_agent_sweep(grid, conditions, human, strategies)
        assert result.grid == grid
        for strategy in strategies:
            expected = tuple(
                marginal_value(strategy, conditions, human, PayoffParams(Fraction(1), Fraction(0), p, Fraction(0)))
                for p in grid
            )
            assert result.values[strategy] == expected, strategy
        assert set(result.values[AgentStrategy.ALWAYS_B]) == {0}
        for condition in conditions:
            if utilities[condition.name] in grid:
                tie = PayoffParams(Fraction(1), Fraction(0), utilities[condition.name], Fraction(0))
                assert agent_action(AgentStrategy.COGNITIVE, condition, tie) is Action.B

    @pytest.mark.parametrize("delta", sorted(COGNITIVE_THRESHOLDS))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_grid_fraction_sum_on_awkward_grids(self, delta, seed):
        """Sevenths, ninths and each cognitive utility with its 10^-6 neighbours,
        against human proportions over samples of up to 1000."""
        conditions = knowledge_conditions(delta)
        step = Fraction(1, 10**6)
        awkward = {Fraction(k, 7) for k in range(1, 7)} | {Fraction(k, 9) for k in range(1, 9)}
        awkward |= {u + s for u in COGNITIVE_THRESHOLDS[delta].values() for s in (-step, 0, step)}
        grid = tuple(sorted(p for p in awkward if 0 < p < 1))
        strategies = (*SWEEP_STRATEGIES, AgentStrategy.ALWAYS_B)
        rng = random.Random(seed)
        for human in (random_human(rng), random_human(rng), random_human(rng, max_n=7)):
            result = human_agent_sweep(grid, conditions, human, strategies)
            assert result.values == per_grid_fraction_sweep(grid, conditions, human, strategies)

    @pytest.mark.parametrize("length", [1, 19, 99])
    def test_each_agent_is_decided_once_per_condition(self, monkeypatch, synthetic_human, length):
        decided = []

        def counted_read(structure, target, player, state):
            decided.append(("cognitive", player, state))
            return _matched_a_weights(structure, target, player, state)

        def counted_action(strategy, condition, payoffs):
            decided.append((strategy.value, condition.name))
            return agent_action(strategy, condition, payoffs)

        monkeypatch.setattr(experiments, "_matched_a_weights", counted_read)
        monkeypatch.setattr(experiments, "agent_action", counted_action)
        conditions = knowledge_conditions(DELTA)
        grid = tuple(Fraction(k, length + 1) for k in range(1, length + 1))
        human_agent_sweep(grid, conditions, synthetic_human, (*SWEEP_STRATEGIES, AgentStrategy.ALWAYS_B))
        assert len(decided) == len(set(decided)) == 4 * len(conditions)
        assert sum(entry[0] == "cognitive" for entry in decided) == len(conditions)

    def test_a_condition_at_x_0_gives_the_agent_no_gain(self, synthetic_human):
        """At x = 0, A pays d = 0 against any human mix, so an agent that attacks there only
        gives up p*.  The built-in conditions all sit at x = 1: here the messenger's
        all-zero state, where the cognitive agent (player 1) attacks below 5/64."""
        bad = KnowledgeCondition("private", builtin_messenger(DELTA), (0, 0, 0, 0, 0), 0)
        assert bad.state_index() not in bad.target()
        assert experiments._attack_bound(AgentStrategy.COGNITIVE, bad) == Fraction(5, 64)
        grid = (Fraction(1, 20), Fraction(5, 64), Fraction(1, 10), Fraction(1, 2))
        strategies = (*SWEEP_STRATEGIES, AgentStrategy.ALWAYS_B)
        for conditions in ((bad,), (*knowledge_conditions(DELTA), bad)):
            result = human_agent_sweep(grid, conditions, synthetic_human, strategies)
            assert result.values == per_grid_fraction_sweep(grid, conditions, synthetic_human, strategies)
            for strategy in strategies:
                expected = tuple(
                    marginal_value(strategy, conditions, synthetic_human, PayoffParams(1, 0, p, 0)) for p in grid
                )
                assert result.values[strategy] == expected, strategy
            if conditions == (bad,):
                assert result.values[AgentStrategy.COGNITIVE] == (Fraction(-1, 20), 0, 0, 0)

    @pytest.mark.parametrize(
        "spec",
        [builtin_messenger(DELTA), builtin_loudspeaker(DELTA), email_chain(12, Fraction(1, 3), Fraction(1, 10))],
        ids=["messenger", "loudspeaker", "email-chain-12"],
    )
    def test_the_cognitive_bound_is_the_payoff_of_a_against_matched(self, spec):
        """At every state and seat: the bound equals `payoff_of_a` against `matched_policy`
        at (1, 0, 1/2, 0), and `cognitive_strategy` attacks just below it and not at it."""
        structure = from_world_model(spec)
        target = x_event(spec, structure.space)
        game = GameInstance(structure, PayoffParams(1, 0, Fraction(1, 2), 0), target)
        matched, step = matched_policy(structure, target), Fraction(1, 10**6)
        inside = 0
        for state in structure.space.states:
            for participant in (0, 1):
                condition = KnowledgeCondition("private", spec, state, participant)
                agent, index = condition.agent, condition.state_index()
                bound = experiments._attack_bound(AgentStrategy.COGNITIVE, condition)
                assert bound == payoff_of_a(game, agent, index, matched), (state, participant)
                for c, action in ((bound - step, Action.A), (bound, Action.B)):
                    if 0 < c < 1:
                        payoffs = PayoffParams(1, 0, c, 0)
                        assert cognitive_strategy(structure, target, payoffs, agent, index) is action, (state, c)
                inside += 0 < bound < 1
        assert inside

    def test_the_sweep_builds_no_payoffs_game_instance_or_policy(self, monkeypatch, synthetic_human):
        grid, strategies = default_risk_grid(), (*SWEEP_STRATEGIES, AgentStrategy.ALWAYS_B)

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep built payoffs, a GameInstance or a Policy")

        monkeypatch.setattr(game_module, "GameInstance", refuse)
        monkeypatch.setattr(game_module, "Policy", refuse)
        monkeypatch.setattr(experiments, "PayoffParams", refuse)
        # Fresh conditions, so every ladder is built under the refusals.
        result = human_agent_sweep(grid, knowledge_conditions(Fraction(1, 3)), synthetic_human, strategies)
        monkeypatch.undo()
        conditions = knowledge_conditions(Fraction(1, 3))
        for strategy in strategies:
            expected = tuple(
                marginal_value(strategy, conditions, synthetic_human, PayoffParams(1, 0, p, 0)) for p in grid
            )
            assert result.values[strategy] == expected, strategy

    def test_empty_grid(self, synthetic_human):
        strategies = (*SWEEP_STRATEGIES, AgentStrategy.ALWAYS_B)
        result = human_agent_sweep((), knowledge_conditions(DELTA), synthetic_human, strategies)
        assert result.grid == ()
        assert result.values == {strategy: () for strategy in strategies}

    def test_repeated_runs_are_identical(self, synthetic_human):
        conditions = knowledge_conditions(DELTA)
        grid = default_risk_grid()
        first = human_agent_sweep(grid, conditions, synthetic_human)
        second = human_agent_sweep(grid, conditions, synthetic_human)
        assert first.values == second.values


class TestCompareModels:
    def test_rows_and_ordering(self, synthetic_human):
        fits = compare_models(knowledge_conditions(DELTA), PAYOFF_CONDITION_1, synthetic_human)
        assert [fit.kind for fit in fits] == [
            ModelKind.RATIONAL,
            ModelKind.MATCHED,
            ModelKind.ITERMAX,
            ModelKind.ITERMATCH,
        ]
        assert fits[0].level is None and fits[1].level is None
        assert fits[2].level in range(6) and fits[3].level in range(6)
        for fit in fits:
            assert fit.error == mse(fit.table, synthetic_human)

    def test_each_table_is_predicted_once(self, monkeypatch, synthetic_human):
        predicted = []

        def counted_predict(kind, conditions, payoffs=None, level=None, *rest):
            predicted.append((kind, level))
            return predict(kind, conditions, payoffs, level, *rest)

        monkeypatch.setattr(experiments, "predict", counted_predict)
        compare_models(knowledge_conditions(DELTA), PAYOFF_CONDITION_1, synthetic_human)
        assert len(predicted) == len(set(predicted)) == 1 + 1 + 6 + 6

    @pytest.mark.parametrize("delta", sorted(COGNITIVE_THRESHOLDS))
    def test_fitted_rows_match_a_literal_grid_search(self, delta):
        conditions = knowledge_conditions(delta)
        rng = random.Random(str(delta))
        for human in (random_human(rng), random_human(rng, max_n=3)):
            fits = compare_models(conditions, PAYOFF_CONDITION_1, human)
            for fit in fits[2:]:
                errors = {
                    k: literal_mse(predict(fit.kind, conditions, PAYOFF_CONDITION_1, k), human) for k in LEVEL_GRID
                }
                best = min(LEVEL_GRID, key=lambda k: (errors[k], k))
                assert (fit.level, fit.error) == (best, errors[best])
                assert fit.table == predict(fit.kind, conditions, PAYOFF_CONDITION_1, best)
                assert fit_level(fit.kind, conditions, PAYOFF_CONDITION_1, human) == best
