"""Attack-game semantics: one payoff-of-A sum per block, which expected utility,
best response (the cognitive agent) and the equilibrium check all read, the
noiseless-signal condition, and exhaustive verification of the threshold profile.

Blocks are named by their number in the structure's `_blocks`: a (player,
state) query finds it once through `_block_id`, and the per-block passes run
over the numbers and reach states through `_block_ids`.  A block's A-weights
are the companion's A-weight on and off the target, two integer sums over the
structure's integer state weights, and the block's total: best response and
the deviation check read them through the payoffs' one integer gain of A over
B (`PayoffParams._gain`, and its tie rule `_plays_a`), and a `Fraction` is
built only for a value that is returned.  A game's target is checked by
building the structure's per-(structure, target) table of block weights on it
(`epistemic`), which the noiseless check then reads as one integer pass.

The matched policy is the ladder's answer rows, `levels[block_depth[b]]` at
each state of block b, and the threshold policy maps the matched rows through
`_plays_a`."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .epistemic import CACHE_SIZE, Event, InformationStructure, _index_error, _target_weights, evident_ladder, from_world_model
from .rational import on_one_scale, parse_probability
from .strategies import Action, PayoffParams, _check_payoffs, risk_threshold
from .worldmodel import State, WorldModelSpec, x_event

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class GameInstance:
    """An information structure, payoffs, and the good-state event the players
    are trying to coordinate on; bad payoffs or a target outside the space raise `ValueError`."""

    structure: InformationStructure
    payoffs: PayoffParams
    target: Event

    def __post_init__(self) -> None:
        _check_payoffs(self.payoffs)
        object.__setattr__(self, "target", frozenset(self.target))
        _target_weights(self.structure, self.target)  # refuses a target outside the space

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
        if player in (0, 1) and 0 <= state < len(self.prob_a[0]):
            return self.prob_a[player][state]
        raise _index_error(player, state, len(self.prob_a[0]))

    @classmethod
    def constant(cls, num_states: int, value: Fraction) -> "Policy":
        row = (value,) * num_states
        return cls((row, row))


def is_partition_measurable(structure: InformationStructure, policy: Policy) -> bool:
    return all(
        len({policy.prob(player, state) for state in block}) == 1
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


def _a_weights(game: GameInstance, block: int, companion: Policy) -> tuple[int, int, int]:
    """(on, off, T), T > 0: the companion's A-weight on and off the target over
    block number `block` of `_blocks`, and the block's weight, on one integer
    scale T = W_B * L (`payoff_of_a`'s sums).  The companion's row is
    `prob_a[block < first_count]`: player 0's blocks come first.  A companion
    whose rows do not cover the structure's states is refused."""
    structure, target = game.structure, game.target
    weights, members = structure._weights, structure._blocks[block]
    plays = companion.prob_a[block < len(structure.partitions[0].blocks)]
    if len(plays) != len(structure):
        raise ValueError(f"the companion policy covers {len(plays)} states, but the structure has {len(structure)}")
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
    on, off, total = _a_weights(game, game.structure._block_id(player, state), companion)
    return game.payoffs.c + Fraction(game.payoffs._gain(on, off, total), total * game.payoffs._integers[4])


def expected_utility(game: GameInstance, player: int, state: int, my_prob_a: Fraction, companion: Policy) -> Fraction:
    """Expected payoff of playing A with probability `my_prob_a` against the
    companion's policy: linear in the own mix, since B is worth c outright.
    The mix is read exactly and must lie in [0, 1]."""
    my_prob_a = parse_probability(my_prob_a, "my_prob_a")
    return my_prob_a * payoff_of_a(game, player, state, companion) + (1 - my_prob_a) * game.payoffs.c


def best_response(game: GameInstance, player: int, state: int, companion: Policy) -> Action:
    """Play A only on a strict gain over the safe payoff c (`PayoffParams._plays_a`); a tie plays B."""
    weights = _a_weights(game, game.structure._block_id(player, state), companion)
    return Action.A if game.payoffs._plays_a(*weights) else Action.B


def noiseless_check(game: GameInstance) -> bool:
    """True when any evidence for the target is conclusive: no state lifts a
    player's target belief above the prior without reaching certainty.

    A block's belief is on / total and the prior is P / W (P the target's
    weight, W the whole space's), so each block is one integer comparison.
    """
    structure = game.structure
    whole, inside = sum(structure._weights), structure._weight(game.target)
    return not any(
        on * whole > inside * total and on != total
        for on, total in zip(_target_weights(structure, game.target), structure._totals)
    )


@lru_cache(maxsize=CACHE_SIZE)
def matched_policy(structure: InformationStructure, target: Event) -> Policy:
    """Both players probability-matching on perceived common belief in the target: the
    ladder's answer rows, where block b of `_blocks` plays `levels[block_depth[b]]` at
    each of its states.  Cached, so the target must be hashable (a `frozenset`)."""
    return Policy(evident_ladder(structure, target).answers)


def rational_policy(game: GameInstance) -> Policy:
    """Both players following the common-belief threshold rule everywhere: A where
    `matched_policy` plays above the risk threshold (`PayoffParams._plays_a`)."""
    plays = game.payoffs._plays_a
    rows = matched_policy(game.structure, game.target).prob_a
    return Policy(tuple(tuple(ONE if plays(p.numerator, 0, p.denominator) else ZERO for p in row) for row in rows))


def cognitive_strategy(
    structure: InformationStructure, target: Event, payoffs: PayoffParams, player: int, state: int
) -> Action:
    """The "cognitive" agent: best respond to a companion assumed to
    probability-match on perceived common belief, so a tie plays B."""
    game = GameInstance(structure, payoffs, target)
    return best_response(game, player, state, matched_policy(game.structure, game.target))


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
        on, off, total = _a_weights(game, block, policy)
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
