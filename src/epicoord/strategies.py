"""Coordination strategies for the two-player attack game.

Four models map a player's information at a state to play: an equilibrium
threshold rule on graded common belief, a probability-matching relaxation of
it, and two bounded-recursion (level-k) families.  Two certainty heuristics
are simulated agents; the third, the expected-utility "cognitive" agent, is a
best response to a probability-matching companion and lives in `game`, with
the payoff sum it reads.  All outputs are exact rationals; action-valued
strategies break ties toward the safe action B (`PayoffParams._plays_a`).

Both level-k families run on one routine, `_Levels`, from each family's one
base case at level 0: the threshold rule on the player's own target belief for
iterated maximization, and that belief itself for iterated matching.  It
steps every block of the structure's one numbering of both players' blocks
level by level, as integer numerators over one denominator per level, through
the structure's integer block overlaps, so no depth recurses and no level is
reduced until a value is read.  The level-k steps and both heuristics weigh
each block against the target by reading `epistemic`'s per-(structure, target)
table, which also checks the target; certainty is its weight comparison.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .epistemic import CACHE_SIZE, Event, InformationStructure, _target_weights, common_p_belief
from .rational import on_one_scale, parse_probability, parse_rational


class Action(enum.Enum):
    A = "A"
    B = "B"


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

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:  # every read of a level-k value hashes the payoffs in its cache key
        return hash((self.a, self.b, self.c, self.d))

    @cached_property
    def _integers(self) -> tuple[int, int, int, int, int]:
        """a, b, c and d times their least common denominator, followed by that denominator.

        Only `_gain` reads the payoffs here, so every choice between A and B
        stays on integers; elsewhere only the denominator is read.
        """
        numerators, denominator = on_one_scale((self.a, self.b, self.c, self.d))
        return (*numerators, denominator)

    def _gain(self, on: int, off: int, total: int) -> int:
        """The gain of A over B, times `total` and the denominator, against a companion whose A-weight
        over a block of weight `total` is `on` on the target and `off` off it."""
        a, b, c, d, _ = self._integers
        return (a - b) * on + (d - b) * off - (c - b) * total

    def _plays_a(self, on: int, off: int, total: int) -> bool:
        """The one tie rule (total > 0): A only on a strictly positive `_gain`; a tie plays B."""
        return self._gain(on, off, total) > 0

    @classmethod
    def parse(cls, text: str) -> "PayoffParams":
        """Parse a comma-separated ``a,b,c,d`` list of rationals or decimals."""
        parts = [part.strip() for part in text.split(",")]
        if len(parts) != 4:
            raise ValueError(f"expected four comma-separated payoffs, got {text!r}")
        return cls(*parts)

    def value_of_a(self, on_target, partner) -> Fraction:
        """The payoff of A against a partner playing A with probability `partner`:
        a or d on a match, by `on_target` (a bit, or a belief: it is linear), b on a mismatch.
        A belief and `partner` are read exactly and must lie in [0, 1]."""
        if not isinstance(on_target, bool):
            on_target = parse_probability(on_target, "on_target")
        partner = parse_probability(partner, "partner")
        return partner * (on_target * self.a + (1 - on_target) * self.d) + (1 - partner) * self.b


def _check_payoffs(payoffs) -> None:
    """Every payoff-reading rule's one refusal: anything but a `PayoffParams` raises `ValueError`."""
    if not isinstance(payoffs, PayoffParams):
        raise ValueError(f"payoffs must be a PayoffParams, got {payoffs!r}")


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
    """Play A iff perceived maximal common belief in the target strictly exceeds the risk threshold (c - b) / (a - b):
    `_plays_a` against a coordinating companion, so a tie plays B.  Bad payoffs raise `ValueError` (`_check_payoffs`)."""
    _check_payoffs(payoffs)
    belief = common_p_belief(structure, target, player, state)
    return Action.A if payoffs._plays_a(belief.numerator, 0, belief.denominator) else Action.B


def matched_p_belief_prob(
    structure: InformationStructure, target: Event, player: int, state: int
) -> Fraction:
    """Probability-matching: play A with probability equal to the perceived
    maximal common belief in the target."""
    return common_p_belief(structure, target, player, state)


class _Levels:
    """The level-k values of one (structure, target, payoffs), block by block.

    Level k is one integer numerator per block of the structure's `_blocks`
    (both players' blocks, numbered once) over one denominator D_k.  For a
    block B with total weight W_B (`_totals`) and on-target weight t_B (the
    structure's table for the target, which checks it), the next level
    comes from the overlap sum S_B = sum of w(B & B') * N_k[B'] over the
    companion blocks B' that B meets, so the companion's expected play over B
    is S_B / (W_B * D_k).  Each family has one base case, its level 0:

    - matching (no payoffs): level 0 is the block's own target belief
      t_B / W_B, that is m_B * W_B over L, and N_{k+1}[B] = m_B * S_B with
      D_{k+1} = D_k * L, where m_B / L is the reduced t_B / W_B^2 on the
      least common denominator L of them all (`on_one_scale`; L divides the
      lcm of every W_B^2), so no level is ever reduced;
    - maximization: every level is 0 or 1 over D_k = 1, and level 0 is
      `_plays_a(t_B, 0, W_B)`, the threshold rule on the block's own target
      belief.  The companion's A-weight over B is t_B * S_B on the target and
      (W_B - t_B) * S_B off it, over a total of W_B^2, so N_{k+1}[B] is
      `PayoffParams._plays_a` of those three integers.

    The matching values fall with k and settle on common knowledge.  Write
    v_k[B] for level k's value, so v_{k+1} = F(v_k) with F(v)[B] = (t_B / W_B)
    * sum of (w(B & B') / W_B) * v[B'] over the blocks B' that B meets.  F has
    non-negative coefficients, so u <= v pointwise gives F(u) <= F(v): the
    step is a monotone map.  Every v_0[B'] is at most 1 and B's overlap weights
    sum to W_B, so v_1[B] <= t_B / W_B = v_0[B] (N_1 <= N_0 as values).
    Applying F to v_k <= v_{k-1} gives v_{k+1} <= v_k, so every
    block's value is non-increasing in k.  Since F(v)[B] is t_B / W_B times a
    positive average of values at most 1, v_{k+1}[B] = 1 exactly when t_B =
    W_B and v_k[B'] = 1 for every B' that B meets; with v_0[B] = 1 exactly
    when t_B = W_B, v_k[B] = 1 exactly when every block within k overlap steps
    of B lies inside the target.  Any block of B's component of the meet is
    fewer steps away than there are blocks, so from k = the block count on,
    v_k[B] = 1 exactly when that component lies inside the target: the target
    is common knowledge at B, which with every state of positive measure is
    `common_p_belief` = 1.

    A Fraction is built only when a value is read.  Only level 0 and the
    levels already read are kept; a read starts from the deepest kept level
    below it, so memory grows with the reads and not with k.
    """

    def __init__(self, structure: InformationStructure, target: Event, payoffs: PayoffParams | None) -> None:
        # (t_B, W_B) for each block of `_blocks`.
        self.blocks = blocks = list(zip(_target_weights(structure, target), structure._totals))
        self.overlaps = structure._overlaps
        self.payoffs = payoffs
        if payoffs is None:
            self.scale, self.lcm = on_one_scale(Fraction(t, w * w) for t, w in blocks)
            self.kept = {0: ([m * w for m, (_, w) in zip(self.scale, blocks)], self.lcm)}
        else:
            self.kept = {0: ([int(payoffs._plays_a(t, 0, w)) for t, w in blocks], 1)}

    def _step(self, numerators, denominator):
        sums = [sum(w * numerators[b] for b, w in meets) for meets in self.overlaps]
        if self.payoffs is None:
            return [c * s for c, s in zip(self.scale, sums)], denominator * self.lcm
        plays = self.payoffs._plays_a
        return [int(plays(t * s, (w - t) * s, w * w)) for (t, w), s in zip(self.blocks, sums)], 1

    def value(self, level: int, block: int) -> Fraction:
        if level not in self.kept:
            start = max(k for k in self.kept if k < level)
            numerators, denominator = self.kept[start]
            for _ in range(start, level):
                numerators, denominator = self._step(numerators, denominator)
            self.kept[level] = numerators, denominator
        numerators, denominator = self.kept[level]
        return Fraction(numerators[block], denominator)


# One per (structure, target, payoffs); payoffs None is the matching family.
_levels = lru_cache(maxsize=CACHE_SIZE)(_Levels)


def _level_value(structure, target, payoffs, level, player, state) -> Fraction:
    # A bool is an int to Python, but no level.
    if isinstance(level, bool) or not isinstance(level, int) or level < 0:
        raise ValueError(f"level must be an integer >= 0, got {level!r}")
    block = structure._block_id(player, state)
    return _levels(structure, frozenset(target), payoffs).value(level, block)


def iterated_maximization_prob(
    structure: InformationStructure,
    target: Event,
    payoffs: PayoffParams,
    level: int,
    player: int,
    state: int,
) -> Fraction:
    """Probability of A under level-`level` iterated maximization: always 0 or 1.
    Computed level by level on whole information sets.

    The utility of A multiplies the player's block-level belief in the target
    by the companion's expected play over the block, treating the two as
    independent within the block.  `game.payoff_of_a`, which the cognitive
    agent and the equilibrium check read, instead pairs the companion's play
    with the target state by state, so the two forms can disagree on a block
    where the companion's play and the target are correlated.

    Payoffs that are not a `PayoffParams` raise `ValueError` (`_check_payoffs`).
    """
    _check_payoffs(payoffs)
    return _level_value(structure, target, payoffs, level, player, state)


def iterated_maximization(
    structure: InformationStructure,
    target: Event,
    payoffs: PayoffParams,
    level: int,
    player: int,
    state: int,
) -> Action:
    """Best respond to a level-(k-1) companion, grounded at the threshold rule on the own target belief."""
    value = iterated_maximization_prob(structure, target, payoffs, level, player, state)
    return Action.A if value else Action.B


def iterated_matching(
    structure: InformationStructure,
    target: Event,
    level: int,
    player: int,
    state: int,
) -> Fraction:
    """Probability of A under level-`level` iterated matching: own target
    belief times the expected level-(k-1) companion probability."""
    return _level_value(structure, target, None, level, player, state)


def private_heuristic(
    structure: InformationStructure, target: Event, player: int, state: int
) -> Action:
    """Play A exactly when the player is certain the target holds.

    Every state has positive measure, so belief 1 in the target means the
    player's information set lies inside it: its weight on the target equals
    its whole weight.
    """
    block = structure._block_id(player, state)
    on_target = _target_weights(structure, frozenset(target))
    return Action.A if on_target[block] == structure._totals[block] else Action.B


def pair_heuristic(
    structure: InformationStructure, target: Event, player: int, state: int
) -> Action:
    """Play A exactly when the player is certain the target holds and certain
    the companion is certain too.

    Every state has positive measure, so certainty is inclusion: a block is
    certain of the target when its weight on the target equals its whole
    weight.  The player plays A when every companion block its information
    set meets is certain, so its own set lies inside those blocks and hence
    inside the target.
    """
    block = structure._block_id(player, state)
    on_target, totals = _target_weights(structure, frozenset(target)), structure._totals
    certain = all(on_target[other] == totals[other] for other, _ in structure._overlaps[block])
    return Action.A if certain else Action.B
