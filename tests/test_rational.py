"""The one [0, 1] check and the one common-denominator scaling of `epicoord.rational`,
read through every entry point that takes a probability."""

import math
import re
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epicoord import (
    HumanData,
    Policy,
    VariableSpec,
    builtin_loudspeaker,
    builtin_messenger,
    expected_utility,
    stage_payoff,
)
from epicoord.experiments import CONDITION_NAMES, PAYOFF_CONDITION_1
from epicoord.game import GameInstance, matched_policy
from epicoord.rational import on_one_scale

from .conftest import DELTA

HALF = Fraction(1, 2)


@cache
def _messenger_game():
    """The messenger game and its matched policy, built on first use, so collecting the tests builds no ladder."""
    game = GameInstance.from_world_model(builtin_messenger(DELTA), PAYOFF_CONDITION_1)
    return game, matched_policy(game.structure, game.target)


def _expected_utility(p):
    game, matched = _messenger_game()
    return expected_utility(game, 0, 3, p, matched)


def _entry_points():
    """(the field an entry point's error names, a call passing one probability there)."""
    halves = {name: HALF for name in CONDITION_NAMES}
    return {
        "policy": ("action probabilities", lambda p: Policy(((p,), (HALF,)))),
        "value_of_a-on_target": ("on_target", lambda p: PAYOFF_CONDITION_1.value_of_a(p, HALF)),
        "value_of_a-partner": ("partner", lambda p: PAYOFF_CONDITION_1.value_of_a(1, p)),
        "stage_payoff": ("my_prob_a", lambda p: stage_payoff(PAYOFF_CONDITION_1, True, p, HALF)),
        "expected_utility": ("my_prob_a", _expected_utility),
        "bias": ("'bias'", lambda p: VariableSpec("x", p)),
        "messenger-delta": ("delta", builtin_messenger),
        "loudspeaker-delta": ("delta", builtin_loudspeaker),
        "prob_a": ("prob_a", lambda p: HumanData({name: 10 for name in halves}, {**halves, "secondary": p})),
    }


ENTRY_POINTS = _entry_points()
REFUSED = {"above-1": Fraction(11, 10), "below-0": Fraction(-1, 10), "float": 0.5, "bool": True}


@pytest.mark.parametrize(
    "entry,value",
    [
        (entry, value)
        for entry in ENTRY_POINTS
        for value in REFUSED
        # A bool `on_target` is the state bit, which `value_of_a` takes by design.
        if (entry, value) != ("value_of_a-on_target", "bool")
    ],
)
def test_probability_outside_unit_interval_refused(entry, value):
    field, call = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=re.escape(field) + r"( must lie in \[0, 1\], got |: refusing )"):
        call(REFUSED[value])


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("value", [0, 1])
def test_probability_at_either_end_accepted(entry, value):
    ENTRY_POINTS[entry][1](value)


@given(st.lists(st.fractions(max_denominator=10**6), max_size=12))
def test_on_one_scale_is_exact_over_the_lcm(values):
    numerators, denominator = on_one_scale(values)
    assert denominator == math.lcm(*(v.denominator for v in values))
    assert [Fraction(n, denominator) for n in numerators] == values
