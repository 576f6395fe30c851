"""Scenario harness: the four built-in knowledge conditions, per-model
prediction tables, mean-squared-error comparison with a recursion-depth grid
search, and the simulated agent-vs-human risk sweep."""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .epistemic import Event, InformationStructure, from_world_model
from .game import (
    ONE,
    ZERO,
    Action,
    GameInstance,
    PayoffParams,
    cognitive_strategy,
    iterated_matching,
    iterated_maximization,
    matched_p_belief_prob,
    matched_policy,
    pair_heuristic,
    payoff_of_a,
    private_heuristic,
    rational_p_belief_action,
)
from .rational import on_one_scale, parse_probability, parse_rational
from .worldmodel import State, WorldModelSpec, builtin_loudspeaker, builtin_messenger, x_event

CONDITION_NAMES = ("private", "secondary", "tertiary", "common")
DEFAULT_DELTA = Fraction(1, 4)
PAYOFF_CONDITION_1 = PayoffParams("1.1", "0", "1", "0.4")


@dataclass(frozen=True)
class KnowledgeCondition:
    """One scenario: a world model, the realized state, and which seat the
    human participant occupies (the simulated agent takes the other seat).
    A participant other than the integer 0 or 1 raises `ValueError`."""

    name: str
    model: WorldModelSpec
    state: State
    participant: int

    @property
    def agent(self) -> int:
        return 1 - self.participant

    def __post_init__(self) -> None:
        # A bool is an int to Python, but no seat: True would seat player 1.
        if type(self.participant) is not int or self.participant not in (0, 1):
            raise ValueError(f"participant must be the integer 0 or 1, got {self.participant!r}")
        # Resolved once, when the condition is made, since a lookup keyed on the model
        # hashes the whole spec; not fields, so equality and hashing ignore them.
        structure = from_world_model(self.model)
        object.__setattr__(self, "_structure", structure)
        object.__setattr__(self, "_target", x_event(self.model, structure.space))
        object.__setattr__(self, "_state_index", structure.space.index_of(self.state))

    def structure(self) -> InformationStructure:
        return self._structure

    def state_index(self) -> int:
        return self._state_index

    def target(self) -> Event:
        return self._target


def knowledge_conditions(delta=DEFAULT_DELTA) -> tuple[KnowledgeCondition, ...]:
    """The four built-in conditions at a given good-state prior.

    The first three live in the messenger model (x=1, participant visited and
    told of a plan, the partner respectively unvisited / visited without
    follow-up toward the participant / visited with one-sided follow-up); the
    fourth is the loudspeaker broadcast.  The participant is player 0 except
    in the secondary condition.
    """
    delta = parse_rational(delta)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie strictly in (0, 1), got {delta}")
    messenger = builtin_messenger(delta)
    loudspeaker = builtin_loudspeaker(delta)
    return (
        KnowledgeCondition("private", messenger, (1, 1, 0, 1, 0), participant=0),
        KnowledgeCondition("secondary", messenger, (1, 1, 1, 0, 1), participant=1),
        KnowledgeCondition("tertiary", messenger, (1, 1, 1, 1, 0), participant=0),
        KnowledgeCondition("common", loudspeaker, (1, 1), participant=0),
    )


@dataclass
class HumanData:
    """Observed per-condition sample sizes (integers of at least 1) and
    proportions choosing A (exact, in [0, 1]), each naming the four conditions."""

    counts: dict[str, int]
    prob_a: dict[str, Fraction]

    def __post_init__(self) -> None:
        for prefix, values in (("", self.prob_a), ("counts: ", self.counts)):
            missing = set(CONDITION_NAMES) - set(values)
            if missing:
                raise ValueError(f"{prefix}missing conditions: {sorted(missing)}")
            unknown = set(values) - set(CONDITION_NAMES)
            if unknown:
                raise ValueError(f"{prefix}unknown conditions: {sorted(unknown)}")
        self.prob_a = {name: parse_probability(p, f"condition {name!r}: prob_a") for name, p in self.prob_a.items()}
        for name, count in self.counts.items():
            # A bool is an int to Python, but no sample size.
            if isinstance(count, bool) or not isinstance(count, int) or count < 1:
                raise ValueError(f"condition {name!r}: count {count!r} is not an integer of at least 1")

    @classmethod
    def from_csv(cls, path) -> "HumanData":
        """Load ``condition,n,prob_a`` rows; prob_a may be decimal or ``p/q``."""
        path = Path(path)
        counts: dict[str, int] = {}
        prob_a: dict[str, Fraction] = {}
        with path.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv.DictReader(handle)
            fields = set(reader.fieldnames or ())
            required = {"condition", "n", "prob_a"}
            if not required <= fields:
                raise ValueError(
                    f"{path}: expected columns {sorted(required)}, found {sorted(fields)}"
                )
            for row in reader:
                if any(row[column] is None for column in required):
                    raise ValueError(f"{path}, line {reader.line_num}: expected condition,n,prob_a values")
                name = row["condition"].strip()
                if name in prob_a:
                    raise ValueError(f"{path}: duplicate condition {name!r}")
                where = f"{path}, line {reader.line_num}"
                try:
                    counts[name] = int(row["n"])
                except ValueError:
                    raise ValueError(f"{where}: n must be an integer, got {row['n']!r}") from None
                if counts[name] < 1:
                    raise ValueError(f"{where}: n must be at least 1, got {counts[name]}")
                prob_a[name] = parse_probability(row["prob_a"], f"{where}: prob_a")
        return cls(counts, prob_a)


class ModelKind(str, enum.Enum):
    RATIONAL = "rational"
    MATCHED = "matched"
    ITERMAX = "itermax"
    ITERMATCH = "itermatch"


LEVEL_GRID = (0, 1, 2, 3, 4, 5)


@dataclass
class PredictionTable:
    """Per-condition predicted probability of choosing A."""

    model: str
    level: int | None
    probs: dict[str, Fraction]


def predict(
    kind: ModelKind,
    conditions: tuple[KnowledgeCondition, ...],
    payoffs: PayoffParams | None = None,
    level: int | None = None,
) -> PredictionTable:
    """Evaluate one model for the participant seat at each condition state through `play`.

    An action maps to probability 0 or 1; the matching models report their
    exact mixing probability.  `kind` is a `ModelKind` or its value; another
    name raises `ValueError`.  Bad payoffs or levels are refused by the rules.
    """
    kind = ModelKind(kind)
    probs: dict[str, Fraction] = {}
    for c in conditions:
        value = play(kind.value, c.structure(), c.target(), payoffs, level, c.participant, c.state_index())
        probs[c.name] = (ONE if value is Action.A else ZERO) if isinstance(value, Action) else value
    return PredictionTable(kind.value, level, probs)


def mse(table: PredictionTable, human: HumanData) -> Fraction:
    """Mean squared prediction error over the four conditions, exact.

    The eight probabilities go on one integer scale, the lcm of their
    denominators, so the squared differences are one integer sum and one
    `Fraction` is built at the end.
    """
    for name in CONDITION_NAMES:
        if name not in table.probs:
            raise ValueError(f"prediction table is missing condition {name!r}")
    pairs = [(table.probs[name], human.prob_a[name]) for name in CONDITION_NAMES]
    scaled, scale = on_one_scale(x for pair in pairs for x in pair)
    total = sum((p - h) ** 2 for p, h in zip(scaled[::2], scaled[1::2]))
    return Fraction(total, scale * scale * len(CONDITION_NAMES))


def fit_level(
    kind: ModelKind,
    conditions: tuple[KnowledgeCondition, ...],
    payoffs: PayoffParams,
    human: HumanData,
) -> int:
    """Grid-search LEVEL_GRID for the recursion depth minimizing mse; ties go to smaller k.

    Each level's table is predicted once.  `kind` is a `ModelKind` or its
    value; another name raises `ValueError`.
    """
    return _fit(kind, conditions, payoffs, human)[0]


def _fit(
    kind: ModelKind,
    conditions: tuple[KnowledgeCondition, ...],
    payoffs: PayoffParams,
    human: HumanData,
) -> tuple[int, PredictionTable, Fraction]:
    """The best level of LEVEL_GRID with its table and error, predicting each level once."""
    kind = ModelKind(kind)
    if kind not in (ModelKind.ITERMAX, ModelKind.ITERMATCH):
        raise ValueError(f"{kind.value} has no recursion level to fit")
    best = None
    for k in LEVEL_GRID:
        table = predict(kind, conditions, payoffs, k)
        error = mse(table, human)
        # Strictly smaller only, so a tie keeps the smaller level.
        if best is None or error < best[2]:
            best = (k, table, error)
    return best


@dataclass
class ModelFit:
    kind: ModelKind
    level: int | None
    table: PredictionTable
    error: Fraction


def compare_models(
    conditions: tuple[KnowledgeCondition, ...],
    payoffs: PayoffParams,
    human: HumanData,
) -> list[ModelFit]:
    """All four models against the human data, recursion depths fitted."""
    rows: list[ModelFit] = []
    for kind in (ModelKind.RATIONAL, ModelKind.MATCHED):
        table = predict(kind, conditions, payoffs)
        rows.append(ModelFit(kind, None, table, mse(table, human)))
    for kind in (ModelKind.ITERMAX, ModelKind.ITERMATCH):
        rows.append(ModelFit(kind, *_fit(kind, conditions, payoffs, human)))
    return rows


class AgentStrategy(str, enum.Enum):
    COGNITIVE = "cognitive"
    PRIVATE = "private"
    PAIR = "pair"
    ALWAYS_B = "always_b"


SWEEP_STRATEGIES = (AgentStrategy.COGNITIVE, AgentStrategy.PRIVATE, AgentStrategy.PAIR)


def play(
    rule: str, structure: InformationStructure, target: Event, payoffs: PayoffParams | None,
    level: int | None, player: int, state: int,
) -> Action | Fraction:
    """The package's one rule dispatch: the play of a `ModelKind` or `AgentStrategy` value at a
    (player, state), an action or the matching rules' exact probability of A.  A rule ignores
    payoffs or a level it does not read and refuses bad ones; another name raises `ValueError`.
    The names are compared as plain strings: comparing a `str` with a str-enum member is slower."""
    if rule == "rational":
        return rational_p_belief_action(structure, target, payoffs, player, state)
    if rule == "matched":
        return matched_p_belief_prob(structure, target, player, state)
    if rule == "itermax":
        return iterated_maximization(structure, target, payoffs, level, player, state)
    if rule == "itermatch":
        return iterated_matching(structure, target, level, player, state)
    if rule == "cognitive":
        return cognitive_strategy(structure, target, payoffs, player, state)
    if rule == "private":
        return private_heuristic(structure, target, player, state)
    if rule == "pair":
        return pair_heuristic(structure, target, player, state)
    if rule == "always_b":
        return Action.B
    raise ValueError(f"unknown play rule {rule!r}")


def agent_action(
    strategy: AgentStrategy, condition: KnowledgeCondition, payoffs: PayoffParams
) -> Action:
    """The simulated agent's action from the non-participant seat, through `play`.
    `strategy` is an `AgentStrategy` or its value; another name raises `ValueError`."""
    strategy = AgentStrategy(strategy)
    return play(
        strategy.value, condition.structure(), condition.target(), payoffs, None, condition.agent, condition.state_index()
    )


def marginal_value(
    strategy: AgentStrategy,
    conditions: tuple[KnowledgeCondition, ...],
    human: HumanData,
    payoffs: PayoffParams,
) -> Fraction:
    """Summed expected payoff across conditions, over always playing safe.

    The agent's action comes from its own information set; the payoff is then
    evaluated at the realized condition state against the human seat mixing at
    the observed proportion.  Playing B contributes exactly zero.
    `strategy` is an `AgentStrategy` or its value; another name raises `ValueError`.
    """
    strategy = AgentStrategy(strategy)
    total = Fraction(0)
    for condition in conditions:
        action = agent_action(strategy, condition, payoffs)
        if action is Action.B:
            continue
        human_prob = human.prob_a[condition.name]
        x_is_one = condition.state_index() in condition.target()
        total += payoffs.value_of_a(x_is_one, human_prob) - payoffs.c
    return total


def default_risk_grid() -> tuple[Fraction, ...]:
    return tuple(Fraction(k, 20) for k in range(1, 20))


@dataclass
class SweepResult:
    grid: tuple[Fraction, ...]
    values: dict[AgentStrategy, tuple[Fraction, ...]]


def human_agent_sweep(
    grid: tuple[Fraction, ...],
    conditions: tuple[KnowledgeCondition, ...],
    human: HumanData,
    strategies: tuple[AgentStrategy, ...] = SWEEP_STRATEGIES,
) -> SweepResult:
    """Marginal value of each agent strategy at payoffs (1, 0, p*, 0) for each
    risk level p* on the grid.

    The scan is integer-only: the gains and the grid share one scale L, the
    lcm of their denominators, the test p* < bound is one cross-multiplied
    integer comparison, and each cell is one `Fraction` over L.  Each strategy
    is an `AgentStrategy` or its value, and keys its row as the member; another
    name raises `ValueError`.
    """
    strategies = tuple(map(AgentStrategy, strategies))
    grid = tuple(map(parse_rational, grid))
    if any(not 0 < p < 1 for p in grid):
        raise ValueError("risk grid values must lie strictly in (0, 1)")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("risk grid must be strictly increasing")
    # At payoffs (1, 0, p*, 0) only c moves, and no agent decision and no
    # payoff of A reads c, so each (strategy, condition) is decided once, as a
    # bound below which the agent plays A; the grid is then scanned against it.
    # The c of these payoffs is a placeholder that nothing reads.
    payoffs = PayoffParams(Fraction(1), Fraction(0), Fraction(1, 2), Fraction(0))
    gains = [
        payoffs.value_of_a(condition.state_index() in condition.target(), human.prob_a[condition.name])
        for condition in conditions
    ]
    # The gains and the grid on one integer scale: a cell is (sum of gains - count * p*) / scale.
    scaled, scale = on_one_scale((*gains, *grid))
    scaled_gains, scaled_grid = scaled[: len(gains)], scaled[len(gains) :]
    values: dict[AgentStrategy, tuple[Fraction, ...]] = {}
    for strategy in strategies:
        # Each bound n / d is kept as (gain, d, n * scale), since p / scale < n / d
        # exactly when p * d < n * scale; a tie stays B.
        bounds = [
            (g, bound.denominator, bound.numerator * scale)
            for g, bound in zip(scaled_gains, (_attack_bound(strategy, c, payoffs) for c in conditions))
        ]
        row = []
        for p in scaled_grid:
            playing = [g for g, d, n in bounds if p * d < n]
            row.append(Fraction(sum(playing) - len(playing) * p, scale))
        values[strategy] = tuple(row)
    return SweepResult(grid, values)


def _attack_bound(strategy: AgentStrategy, condition: KnowledgeCondition, payoffs: PayoffParams) -> Fraction:
    """The agent plays A at payoffs (1, 0, p*, 0) exactly when p* lies below this bound.

    For the cognitive agent it is the expected payoff of A against the matched
    companion (A iff it beats c strictly, so a tie stays safe); the other agents
    do not read the payoffs, so it is 1 (A at every p* in (0, 1)) or 0 (never).
    """
    if strategy is AgentStrategy.COGNITIVE:
        structure, target = condition.structure(), condition.target()
        game = GameInstance(structure, payoffs, target)
        return payoff_of_a(game, condition.agent, condition.state_index(), matched_policy(structure, target))
    return Fraction(int(agent_action(strategy, condition, payoffs) is Action.A))
