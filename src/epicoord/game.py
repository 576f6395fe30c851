"""The attack game and every rule that plays it, in exact rationals.

Every choice between A and B is one integer gain of A over B,
`PayoffParams._gain`, under one tie rule, `_plays_a`: A only on a strictly
positive gain, so a tie plays B.  The human models are the threshold rule on
graded common belief, its probability-matching relaxation, and the level-k
families iterated maximization and iterated matching, which run on one
routine, `_Levels`: it steps both players' blocks (`_blocks`) level by level,
as integer numerators over one denominator per level.  One function,
`_level_value`, reads a value: it checks the level, the target and the
index, finds the tables on the target's ladder and reads a computed level at
the cost of a row lookup; maximization levels are 0/1 integers read as the
shared `ONE` or `ZERO`, and a matching read builds one `Fraction`.  The
simulated agents are the two certainty heuristics and the "cognitive" best
response to a probability-matching companion.

The payoff of A, best response and the equilibrium check read a companion's
A-weight on and off the target over a block as two integer sums, and build a
`Fraction` only for a returned value.  Every per-target reader goes through
`evident_ladder`, which checks a target where a structure's memo first meets
it: the level-k steps, the heuristics and the noiseless check read the
ladder's table of block weights on the target (`on_target`), and the
cognitive agent and the threshold profile read its answer rows.  The level-k
tables live on the target's ladder, in `_level_tables`, one per payoffs
(`_level_value`), kept by the ladder memo's rule (`epistemic._remember`), so
they are freed with the ladder.  A `GameInstance` checks its target against
the space without building its ladder, and the cognitive agent builds no
`GameInstance`: `_a_weights` reads a structure and a target.
`verify_equilibrium` checks the threshold profile when signals are noiseless
and the risk threshold exceeds the target's prior, `measure_of` the target.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .epistemic import (
    Event,
    InformationStructure,
    _entry,
    _remember,
    common_p_belief,
    evident_ladder,
    from_world_model,
)
from .rational import on_one_scale, parse_probability, parse_rational
from .worldmodel import State, WorldModelSpec, x_event

ZERO = Fraction(0)
ONE = Fraction(1)


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

    @cached_property
    def _integers(self) -> tuple[int, int, int, int, int]:
        """a, b, c and d times their least common denominator, followed by that denominator.

        Only `_gain` reads the payoffs here, so every choice between A and B
        stays on integers; elsewhere only the denominator is read.  The tuple
        identifies the payoffs exactly, so it keys their level-k tables (`_level_value`).
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
    target ladder's `on_target`, handed in by `_level_value`), the next level
    comes from the overlap sum S_B = sum of w(B & B') * N_k[B'] over the
    companion blocks B' that B meets, so the companion's expected play over B
    is S_B / (W_B * D_k).  Each family has one base case, its level 0:

    - matching (no payoffs): level 0 is the block's own target belief
      t_B / W_B, that is m_B * W_B over L, and N_{k+1}[B] = m_B * S_B with
      D_{k+1} = D_k * L, where m_B / L is t_B / W_B^2 on the least common
      denominator L of them all (`on_one_scale`), so no level is ever reduced;
    - maximization: every level is an action, 0 or 1 over D_k = 1, and level
      0 is `_plays_a(t_B, 0, W_B)`, the threshold rule on the block's own
      target belief.  S_B is then the overlap weight of the companion blocks
      that play A.  The companion's A-weight over B is t_B * S_B on the
      target and (W_B - t_B) * S_B off it, over a total of W_B^2, so
      N_{k+1}[B] is `PayoffParams._plays_a` of those three integers.

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

    `_level_value` reads a kept level with one dict read and one list read.
    Only level 0 and the levels already read are kept; `step_to` steps to
    another level from the deepest kept level below it and keeps it, so
    memory grows with the reads and not with k.  The tables hold the
    structure's tuples and not the structure, so a ladder keeping them in
    `_level_tables` refers to no structure either.
    """

    def __init__(self, structure: InformationStructure, on_target: tuple[int, ...], payoffs: PayoffParams | None) -> None:
        # t_B and W_B for each block of `_blocks`.
        self.on_target, self.totals = on_target, structure._totals
        self.overlaps = structure._overlaps
        self.payoffs = payoffs
        if payoffs is None:
            self.scale, self.lcm = on_one_scale(Fraction(t, w * w) for t, w in zip(self.on_target, self.totals))
            self.kept = {0: ([m * w for m, w in zip(self.scale, self.totals)], self.lcm)}
        else:
            self.kept = {0: ([int(payoffs._plays_a(t, 0, w)) for t, w in zip(self.on_target, self.totals)], 1)}

    def _step(self, numerators, denominator):
        if self.payoffs is None:
            sums = [sum([w * numerators[b] for b, w in meets]) for meets in self.overlaps]
            return [c * s for c, s in zip(self.scale, sums)], denominator * self.lcm
        # Every numerator is 0 or 1, so S_B is the overlap weight of the companion blocks that play A.
        sums = [sum([w for b, w in meets if numerators[b]]) for meets in self.overlaps]
        plays = self.payoffs._plays_a
        return [int(plays(t * s, (w - t) * s, w * w)) for t, w, s in zip(self.on_target, self.totals, sums)], 1

    def step_to(self, level: int):
        """Level `level`, not kept yet: stepped from the deepest kept level below it, then kept."""
        start = max(k for k in self.kept if k < level)
        numerators, denominator = self.kept[start]
        for _ in range(start, level):
            numerators, denominator = self._step(numerators, denominator)
        kept = self.kept[level] = numerators, denominator
        return kept


def _level_value(structure, target, payoffs, level, player, state) -> Fraction:
    """Level `level`'s value at (`player`, `state`) of (target, payoffs) on `structure`; payoffs None is matching.

    The tables are built once and kept in the target ladder's `_level_tables`
    under the payoffs' `_integers`, or None for matching; the dict holds at
    most `CACHE_SIZE` tables and drops the oldest first, by the ladder memo's
    rule (`_remember`).  A bad level raises `ValueError`; then a bad target
    raises `ValueError` (`evident_ladder`) before any table is stored; then a
    bad player or state raises `_entry`'s `IndexError` before any level is
    stepped.  A maximization read returns the shared `ONE` or `ZERO`; a
    matching read builds one `Fraction`.
    """
    rows = structure._block_ids
    # `common_p_belief`'s inline check, with the level: only exact ints read the row directly.
    inline = type(level) is int and type(player) is int and type(state) is int and (
        level >= 0 and player in (0, 1) and 0 <= state < len(rows[0])
    )
    # A bool is an int to Python, but no level.
    if not inline and (isinstance(level, bool) or not isinstance(level, int) or level < 0):
        raise ValueError(f"level must be an integer >= 0, got {level!r}")
    ladder = evident_ladder(structure, target)
    key = None if payoffs is None else payoffs._integers
    levels = ladder._level_tables.get(key)
    if levels is None:
        levels = _remember(ladder._level_tables, key, _Levels(structure, ladder.on_target, payoffs))
    block = rows[player][state] if inline else structure._block_id(player, state)
    numerators, denominator = levels.kept.get(level) or levels.step_to(level)
    if payoffs is None:
        return Fraction(numerators[block], denominator)
    return ONE if numerators[block] else ZERO


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
    its whole weight.  A bad target raises `ValueError` before a bad player or state raises `IndexError`.
    """
    on_target = evident_ladder(structure, target).on_target
    block = structure._block_id(player, state)
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
    inside the target.  A bad target raises `ValueError` before a bad player or state raises `IndexError`.
    """
    on_target, totals = evident_ladder(structure, target).on_target, structure._totals
    block = structure._block_id(player, state)
    certain = all(on_target[other] == totals[other] for other, _ in structure._overlaps[block])
    return Action.A if certain else Action.B


@dataclass(frozen=True)
class GameInstance:
    """An information structure, payoffs, and the good-state event the players
    are trying to coordinate on; bad payoffs or a target outside the space raise `ValueError`."""

    structure: InformationStructure
    payoffs: PayoffParams
    target: Event

    def __post_init__(self) -> None:
        _check_payoffs(self.payoffs)
        object.__setattr__(self, "target", self.structure._event(self.target, "target event"))

    @classmethod
    def from_world_model(cls, spec: WorldModelSpec, payoffs: PayoffParams) -> "GameInstance":
        structure = from_world_model(spec)
        return cls(structure, payoffs, x_event(spec, structure.space))


@dataclass(frozen=True)
class Policy:
    """Per-player, per-state probability of playing A: two rows, one per
    player, each with one exact entry in [0, 1] per state.

    A uniform carrier for pure and mixed strategies; meaningful policies are
    constant on each player's information sets (see is_partition_measurable).
    """

    prob_a: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.prob_a))
        if len(rows) != 2 or len(rows[0]) != len(rows[1]):
            lengths = [len(row) for row in rows]
            raise ValueError(f"a policy needs two rows of equal length, one per player; got rows of lengths {lengths}")
        prob_a = tuple(tuple(parse_probability(p, "action probabilities") for p in row) for row in rows)
        object.__setattr__(self, "prob_a", prob_a)

    def prob(self, player: int, state: int) -> Fraction:
        """A bad player, then a bad state (a negative one too), raises `IndexError` as `common_p_belief` does."""
        return _entry(self.prob_a, player, state)

    @classmethod
    def constant(cls, num_states: int, value: Fraction) -> "Policy":
        row = (value,) * num_states
        return cls((row, row))


def _covering(structure: InformationStructure, rows):
    """A policy's two rows, refused unless they cover the structure's states."""
    if len(rows[0]) != len(structure):
        raise ValueError(f"the companion policy covers {len(rows[0])} states, but the structure has {len(structure)}")
    return rows


def is_partition_measurable(structure: InformationStructure, policy: Policy) -> bool:
    """Is `policy` constant on each player's information sets?  A policy of the wrong size is refused."""
    rows = _covering(structure, policy.prob_a)
    return all(
        len({rows[player][state] for state in block}) == 1
        for player in (0, 1)
        for block in structure.partitions[player].blocks
    )


def stage_payoff(
    payoffs: PayoffParams, x_is_one: bool, my_prob_a: Fraction, other_prob_a: Fraction
) -> Fraction:
    """Row player's bimatrix expectation at a single state: B is worth c
    outright; A pays a or d (by the state bit) on a match and b on a mismatch.
    Both probabilities are read exactly and must lie in [0, 1] (`other_prob_a` by `value_of_a`)."""
    my_prob_a = parse_probability(my_prob_a, "my_prob_a")
    return my_prob_a * payoffs.value_of_a(x_is_one, other_prob_a) + (1 - my_prob_a) * payoffs.c


def _a_weights(structure: InformationStructure, target: Event, block: int, rows) -> tuple[int, int, int]:
    """(on, off, T), T > 0: the A-weight on and off `target`, a frozenset
    checked against the space, over block number `block` of the structure's
    `_blocks` of a companion whose two rows of exact play are `rows`, and the
    block's weight, on one integer scale T = W_B * L (`payoff_of_a`'s sums).
    The companion's row is `rows[block < first_count]`: player 0's blocks come
    first.  Rows that do not cover the structure's states are refused."""
    weights, members = structure._weights, structure._blocks[block]
    plays = _covering(structure, rows)[block < len(structure.partitions[0].blocks)]
    numerators, scale = on_one_scale([plays[member] for member in members])
    on = off = 0
    for member, play in zip(members, numerators):
        share = weights[member] * play
        if member in target:
            on += share
        else:
            off += share
    return on, off, structure._totals[block] * scale


def payoff_of_a(game: GameInstance, player: int, state: int, companion: Policy) -> Fraction:
    """Expected payoff of A over the player's information set B, against the
    companion's policy at each state it contains.

    It is c + [(a - b) * on + (d - b) * off - (c - b) * W_B] / W_B, where on and off
    are the companion's A-weight on and off the target over B and W_B is the
    block's weight.  The sums are integers over the structure's state weights,
    on one denominator L, the lcm of the companion's play denominators in B, and
    the gain of A over B is `PayoffParams._gain` on the payoffs' integer scale,
    so one `Fraction` is built at the end.  Play may differ state by state.
    """
    on, off, total = _a_weights(game.structure, game.target, game.structure._block_id(player, state), companion.prob_a)
    return game.payoffs.c + Fraction(game.payoffs._gain(on, off, total), total * game.payoffs._integers[4])


def expected_utility(game: GameInstance, player: int, state: int, my_prob_a: Fraction, companion: Policy) -> Fraction:
    """Expected payoff of playing A with probability `my_prob_a` against the
    companion's policy: linear in the own mix, since B is worth c outright.
    The mix is read exactly and must lie in [0, 1]."""
    my_prob_a = parse_probability(my_prob_a, "my_prob_a")
    return my_prob_a * payoff_of_a(game, player, state, companion) + (1 - my_prob_a) * game.payoffs.c


def best_response(game: GameInstance, player: int, state: int, companion: Policy) -> Action:
    """Play A only on a strict gain over the safe payoff c (`PayoffParams._plays_a`); a tie plays B."""
    weights = _a_weights(game.structure, game.target, game.structure._block_id(player, state), companion.prob_a)
    return Action.A if game.payoffs._plays_a(*weights) else Action.B


def noiseless_check(game: GameInstance) -> bool:
    """True when any evidence for the target is conclusive: no state lifts a
    player's target belief above the prior without reaching certainty.

    A block's belief is on / total and the prior is P / Q (`measure_of` the
    target), so each block is one integer comparison.
    """
    structure = game.structure
    prior = structure.measure_of(game.target)
    return not any(
        on * prior.denominator > prior.numerator * total and on != total
        for on, total in zip(evident_ladder(structure, game.target).on_target, structure._totals)
    )


def matched_policy(structure: InformationStructure, target: Event) -> Policy:
    """Both players probability-matching on perceived common belief in the target: the
    ladder's answer rows, where block b of `_blocks` plays `levels[block_depth[b]]` at
    each of its states.  A new `Policy` on each call; the rules that play against it
    read the rows from the ladder itself."""
    return Policy(evident_ladder(structure, target).answers)


def rational_policy(game: GameInstance) -> Policy:
    """Both players following the common-belief threshold rule everywhere: A where
    `matched_policy` plays above the risk threshold (`PayoffParams._plays_a`)."""
    plays = game.payoffs._plays_a
    rows = evident_ladder(game.structure, game.target).answers
    return Policy(tuple(tuple(ONE if plays(p.numerator, 0, p.denominator) else ZERO for p in row) for row in rows))


def cognitive_strategy(
    structure: InformationStructure, target: Event, payoffs: PayoffParams, player: int, state: int
) -> Action:
    """The "cognitive" agent: best respond to a companion assumed to
    probability-match on perceived common belief, so a tie plays B.

    Bad payoffs, then a bad target, raise `ValueError`; then a bad player or state raises `IndexError`.
    """
    _check_payoffs(payoffs)
    target = frozenset(target)
    answers = evident_ladder(structure, target).answers
    weights = _a_weights(structure, target, structure._block_id(player, state), answers)
    return Action.A if payoffs._plays_a(*weights) else Action.B


@dataclass(frozen=True)
class Violation:
    player: int
    state_index: int
    state: State
    chosen: Action
    gap: Fraction  # how much the deviation would gain; always > 0


@dataclass(frozen=True)
class EquilibriumReport:
    applicable: bool
    reason: str | None
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return self.applicable and not self.violations


def verify_equilibrium(game: GameInstance) -> EquilibriumReport:
    """Check, at every state and for both players, that deviating from the
    threshold rule against a threshold-rule companion never pays.

    Requires noiseless signals and a risk threshold above the target's prior;
    otherwise the report is marked not applicable rather than pass/fail.
    Pure deviations suffice: expected utility is linear in the own mix.
    """
    threshold = risk_threshold(game.payoffs)
    prior = game.structure.measure_of(game.target)
    if not noiseless_check(game):
        return EquilibriumReport(
            False, "signals are noisy: some belief exceeds the prior without certainty", ()
        )
    if not threshold > prior:
        return EquilibriumReport(
            False,
            f"risk threshold {threshold} does not exceed the target prior {prior}",
            (),
        )
    return EquilibriumReport(True, None, _violations(game, rational_policy(game)))


def _violations(game: GameInstance, policy: Policy) -> tuple[Violation, ...]:
    """Every (player, state) where switching the own play against `policy` pays.

    B is worth c and utility is linear in the own mix, so switching from own
    play p gains (1 - 2p) times the block's one gain of A over B
    (`PayoffParams._gain`).  A state is decided by the two signs, the gain's and
    that of 1 - 2p; the gap is built as a `Fraction` only for an actual violation."""
    structure, payoffs = game.structure, game.payoffs
    gains = []
    for block in range(len(structure._blocks)):
        on, off, total = _a_weights(structure, game.target, block, policy.prob_a)
        gains.append((payoffs._gain(on, off, total), total * payoffs._integers[4]))
    violations = []
    for player, (plays, row) in enumerate(zip(policy.prob_a, structure._block_ids)):
        for state, (own, block) in enumerate(zip(plays, row)):
            gain, scale = gains[block]
            if gain * (own.denominator - 2 * own.numerator) > 0:
                chosen = Action.A if own == ONE else Action.B
                gap = (1 - 2 * own) * Fraction(gain, scale)
                violations.append(Violation(player, state, structure.space.states[state], chosen, gap))
    return tuple(violations)
