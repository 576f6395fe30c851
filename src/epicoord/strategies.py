"""Coordination strategies for the two-player attack game.

Four models map a player's information at a state to play: an equilibrium
threshold rule on graded common belief, a probability-matching relaxation of
it, and two bounded-recursion (level-k) families.  Two certainty heuristics
and an expected-utility "cognitive" agent round out the simulated-agent side.
All outputs are exact rationals; action-valued strategies break ties toward
the safe action B.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .epistemic import Event, InformationStructure, common_p_belief
from .rational import parse_rational

ONE = Fraction(1)
ZERO = Fraction(0)


class Action(enum.Enum):
    A = "A"
    B = "B"


class Level0Rule(enum.Enum):
    """Grounding for the level-k recursions.

    PRIMARY is each family's own base case (threshold on the target belief
    for maximization, matching the target belief for matching); ALWAYS_A and
    UNIFORM replace it with constant play for robustness checks.
    """

    PRIMARY = "primary"
    ALWAYS_A = "always_a"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class PayoffParams:
    """Payoffs (a, b, c, d): match on the good state, mismatch while playing A,
    safe action, and match on the bad state.  Requires a > c > max(b, d)."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, parse_rational(getattr(self, name)))
        if not (self.a > self.c > max(self.b, self.d)):
            raise ValueError(
                f"payoffs must satisfy a > c > max(b, d), got "
                f"a={self.a}, b={self.b}, c={self.c}, d={self.d}"
            )

    @classmethod
    def parse(cls, text: str) -> "PayoffParams":
        """Parse a comma-separated ``a,b,c,d`` list of rationals or decimals."""
        parts = [part.strip() for part in text.split(",")]
        if len(parts) != 4:
            raise ValueError(f"expected four comma-separated payoffs, got {text!r}")
        return cls(*parts)


def risk_threshold(payoffs: PayoffParams) -> Fraction:
    """The belief level (c - b) / (a - b) at which risking A breaks even
    against a partner who coordinates."""
    return (payoffs.c - payoffs.b) / (payoffs.a - payoffs.b)


def rational_p_belief_action(
    structure: InformationStructure,
    target: Event,
    payoffs: PayoffParams,
    player: int,
    state: int,
) -> Action:
    """Play A iff perceived maximal common belief in the target strictly
    exceeds the risk threshold; ties go to the safe action."""
    if common_p_belief(structure, target, player, state) > risk_threshold(payoffs):
        return Action.A
    return Action.B


def matched_p_belief_prob(
    structure: InformationStructure, target: Event, player: int, state: int
) -> Fraction:
    """Probability-matching: play A with probability equal to the perceived
    maximal common belief in the target."""
    return common_p_belief(structure, target, player, state)


@lru_cache(maxsize=None)
def _maximization_value(
    structure: InformationStructure,
    target: Event,
    payoffs: PayoffParams,
    level0: Level0Rule,
    level: int,
    player: int,
    block: frozenset[int],
) -> Fraction:
    anchor = min(block)
    belief = structure.conditional_belief(player, target, anchor)
    if level == 0:
        if level0 is Level0Rule.ALWAYS_A:
            return ONE
        if level0 is Level0Rule.UNIFORM:
            return Fraction(1, 2)
        return ONE if belief > risk_threshold(payoffs) else ZERO
    companion = 1 - player
    partner = structure.expectation(player, anchor, lambda member: _maximization_value(
        structure, target, payoffs, level0, level - 1, companion, structure.block(companion, member)
    ))
    utility = partner * (belief * payoffs.a + (1 - belief) * payoffs.d) + (1 - partner) * payoffs.b
    return ONE if utility > payoffs.c else ZERO


def iterated_maximization_prob(
    structure: InformationStructure,
    target: Event,
    payoffs: PayoffParams,
    level: int,
    player: int,
    state: int,
    level0: Level0Rule = Level0Rule.PRIMARY,
) -> Fraction:
    """Probability of A under level-`level` iterated maximization.

    Deterministic (0 or 1) except for the uniform grounding at level 0, which
    is the mixed value 1/2.  Memoized per (player, level, information set).

    The utility of A multiplies the player's block-level belief in the target
    by the companion's expected play over the block, treating the two as
    independent within the block.  `cognitive_strategy` and
    `game.expected_utility` instead pair the companion's play with the target
    state by state, so the two forms can disagree on a block where the
    companion's play and the target are correlated.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    return _maximization_value(
        structure, target, payoffs, level0, level, player, structure.block(player, state)
    )


def iterated_maximization(
    structure: InformationStructure,
    target: Event,
    payoffs: PayoffParams,
    level: int,
    player: int,
    state: int,
    level0: Level0Rule = Level0Rule.PRIMARY,
) -> Action:
    """Best respond to a level-(k-1) companion, grounded at the level-0 rule."""
    value = iterated_maximization_prob(structure, target, payoffs, level, player, state, level0)
    if value == ONE:
        return Action.A
    if value == ZERO:
        return Action.B
    raise ValueError("the uniform level-0 rule yields a mixed act, not a pure action")


@lru_cache(maxsize=None)
def _matching_value(
    structure: InformationStructure,
    target: Event,
    level0: Level0Rule,
    level: int,
    player: int,
    block: frozenset[int],
) -> Fraction:
    anchor = min(block)
    belief = structure.conditional_belief(player, target, anchor)
    if level == 0:
        if level0 is Level0Rule.ALWAYS_A:
            return ONE
        if level0 is Level0Rule.UNIFORM:
            return Fraction(1, 2)
        return belief
    companion = 1 - player
    return belief * structure.expectation(player, anchor, lambda member: _matching_value(
        structure, target, level0, level - 1, companion, structure.block(companion, member)
    ))


def iterated_matching(
    structure: InformationStructure,
    target: Event,
    level: int,
    player: int,
    state: int,
    level0: Level0Rule = Level0Rule.PRIMARY,
) -> Fraction:
    """Probability of A under level-`level` iterated matching: own target
    belief times the expected level-(k-1) companion probability.  Memoized."""
    if level < 0:
        raise ValueError("level must be >= 0")
    return _matching_value(structure, target, level0, level, player, structure.block(player, state))


def private_heuristic(
    structure: InformationStructure, target: Event, player: int, state: int
) -> Action:
    """Play A exactly when the player is certain the target holds."""
    if structure.conditional_belief(player, target, state) == 1:
        return Action.A
    return Action.B


def pair_heuristic(
    structure: InformationStructure, target: Event, player: int, state: int
) -> Action:
    """Play A exactly when the player is certain the target holds and certain
    the companion is certain too."""
    if structure.conditional_belief(player, target, state) != 1:
        return Action.B
    companion = 1 - player
    companion_certain = frozenset(
        index
        for index in range(len(structure))
        if structure.conditional_belief(companion, target, index) == 1
    )
    if structure.conditional_belief(player, companion_certain, state) == 1:
        return Action.A
    return Action.B


def cognitive_strategy(
    structure: InformationStructure,
    target: Event,
    payoffs: PayoffParams,
    player: int,
    state: int,
) -> Action:
    """Maximize expected utility against a companion assumed to probability-match
    on perceived common belief; play A only on a strict improvement over the
    safe payoff."""
    companion = 1 - player

    def payoff_of_a(member: int) -> Fraction:
        partner = matched_p_belief_prob(structure, target, companion, member)
        match_payoff = payoffs.a if member in target else payoffs.d
        return partner * match_payoff + (1 - partner) * payoffs.b

    utility = structure.expectation(player, state, payoff_of_a)
    return Action.A if utility > payoffs.c else Action.B
