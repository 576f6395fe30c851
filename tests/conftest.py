import os
from fractions import Fraction
from pathlib import Path

import pytest

from epicoord import (
    HumanData,
    ObservationRule,
    VariableSpec,
    WorldModelSpec,
    builtin_loudspeaker,
    builtin_messenger,
    from_world_model,
    x_event,
)

DELTA = Fraction(1, 4)


def human_data_path() -> Path:
    env = os.environ.get("EPICOORD_HUMAN_DATA")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data" / "human_conditions.csv"


requires_human_data = pytest.mark.skipif(
    not human_data_path().exists(),
    reason="observed-proportions CSV not provided; set EPICOORD_HUMAN_DATA or add data/human_conditions.csv",
)


@pytest.fixture(scope="session")
def loudspeaker_spec():
    return builtin_loudspeaker(DELTA)


@pytest.fixture(scope="session")
def messenger_spec():
    return builtin_messenger(DELTA)


@pytest.fixture(scope="session")
def loudspeaker(loudspeaker_spec):
    return from_world_model(loudspeaker_spec)


@pytest.fixture(scope="session")
def messenger(messenger_spec):
    return from_world_model(messenger_spec)


@pytest.fixture(scope="session")
def loudspeaker_target(loudspeaker_spec, loudspeaker):
    return x_event(loudspeaker_spec, loudspeaker.space)


@pytest.fixture(scope="session")
def messenger_target(messenger_spec, messenger):
    return x_event(messenger_spec, messenger.space)


def make_human(private, secondary, tertiary, common, n=40) -> HumanData:
    values = {
        "private": Fraction(private),
        "secondary": Fraction(secondary),
        "tertiary": Fraction(tertiary),
        "common": Fraction(common),
    }
    return HumanData({name: n for name in values}, values)


@pytest.fixture
def synthetic_human():
    # deliberately made-up proportions with the low / mid / mid / high shape
    return make_human(Fraction(1, 5), Fraction(11, 20), Fraction(3, 5), Fraction(17, 20))


def email_chain(variables: int, delta: Fraction, loss: Fraction) -> WorldModelSpec:
    """Rubinstein's (1989) electronic-mail game as a gated world model.

    Player 0 learns x; while x = 1 the confirmations m1, m2, ... are sent,
    each only if the previous one arrived, and each is lost with probability
    `loss`.  Player 1 reads the odd messages, player 0 the even ones.  Of the
    2^V assignments only V + 1 are reachable.
    """
    specs = [VariableSpec("x", delta)]
    rules = [ObservationRule((), 0, ("x",))]
    for k in range(1, variables):
        specs.append(VariableSpec(f"m{k}", 1 - loss, gate=(specs[-1].name,)))
        rules.append(ObservationRule((), k % 2, (f"m{k}",)))
    return WorldModelSpec(tuple(specs), tuple(rules))
