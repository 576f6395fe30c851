"""Coordination strategies for the two-player attack game.

Four models map a player's information at a state to play: an equilibrium
threshold rule on graded common belief, a probability-matching relaxation of
it, and two bounded-recursion (level-k) families.  Two certainty heuristics
and an expected-utility "cognitive" agent round out the simulated-agent side.
All outputs are exact rationals; action-valued strategies break ties toward
the safe action B.

Both level-k families run on one routine: from a family's primary level-0
value and response it computes every block of both players level by level,
into a cached list that grows in place on demand, so no depth recurses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .epistemic import CACHE_SIZE, Event, InformationStructure, common_p_belief
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

    def value_of_a(self, on_target, partner) -> Fraction:
        """The payoff of A against a partner playing A with probability `partner`:
        a or d on a match, by `on_target` (a bit, or a belief: it is linear), b on a mismatch."""
        return partner * (on_target * self.a + (1 - on_target) * self.d) + (1 - partner) * self.b


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


def _maximization_primary(payoffs: PayoffParams, belief: Fraction) -> Fraction:
    return ONE if belief > risk_threshold(payoffs) else ZERO


def _maximization_response(payoffs: PayoffParams, belief: Fraction, partner: Fraction) -> Fraction:
    return ONE if payoffs.value_of_a(belief, partner) > payoffs.c else ZERO


def _matching_primary(payoffs: None, belief: Fraction) -> Fraction:
    return belief


def _matching_response(payoffs: None, belief: Fraction, partner: Fraction) -> Fraction:
    return belief * partner


@lru_cache(maxsize=CACHE_SIZE)
def _levels(structure: InformationStructure, target: Event, payoffs, level0: Level0Rule, family):
    primary, _ = family
    beliefs = tuple(
        tuple(structure.conditional_belief(player, target, min(block)) for block in partition.blocks)
        for player, partition in enumerate(structure.partitions)
    )
    ground = {Level0Rule.ALWAYS_A: ONE, Level0Rule.UNIFORM: Fraction(1, 2)}.get(level0)
    level_0 = tuple(tuple(primary(payoffs, b) if ground is None else ground for b in own) for own in beliefs)
    return beliefs, [level_0]


def _level_value(structure, target, payoffs, level0, level, player, state, family) -> Fraction:
    if level < 0:
        raise ValueError("level must be >= 0")
    structure.block(player, state)  # IndexError for a bad player or state
    beliefs, levels = _levels(structure, target, payoffs, level0, family)
    _, respond = family
    while len(levels) <= level:
        # Each player's play at the last level, state by state.
        play = [tuple(v[b] for b in p.block_of) for v, p in zip(levels[-1], structure.partitions)]
        levels.append(tuple(
            tuple(
                respond(payoffs, belief, structure.expectation(own, min(block), play[1 - own].__getitem__))
                for block, belief in zip(partition.blocks, beliefs[own])
            )
            for own, partition in enumerate(structure.partitions)
        ))
    return levels[level][player][structure.partitions[player].block_of[state]]


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
    is the mixed value 1/2.  Computed level by level on whole information sets.

    The utility of A multiplies the player's block-level belief in the target
    by the companion's expected play over the block, treating the two as
    independent within the block.  `cognitive_strategy` and
    `game.expected_utility` instead pair the companion's play with the target
    state by state, so the two forms can disagree on a block where the
    companion's play and the target are correlated.
    """
    family = (_maximization_primary, _maximization_response)
    return _level_value(structure, target, payoffs, level0, level, player, state, family)


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


def iterated_matching(
    structure: InformationStructure,
    target: Event,
    level: int,
    player: int,
    state: int,
    level0: Level0Rule = Level0Rule.PRIMARY,
) -> Fraction:
    """Probability of A under level-`level` iterated matching: own target
    belief times the expected level-(k-1) companion probability."""
    family = (_matching_primary, _matching_response)
    return _level_value(structure, target, None, level0, level, player, state, family)


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
    companion_certain = frozenset().union(*(
        block
        for block in structure.partitions[companion].blocks
        if structure.conditional_belief(companion, target, min(block)) == 1
    ))
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
    utility = structure.expectation(player, state, lambda member: payoffs.value_of_a(
        member in target, matched_p_belief_prob(structure, target, 1 - player, member)
    ))
    return Action.A if utility > payoffs.c else Action.B
