"""Declarative generative world models over gated Bernoulli variables.

A model lists binary variables in dependency order, each drawn from a
Bernoulli whose draw is suppressed (value pinned to 0) while any of its gate
variables is 0, plus guarded observation rules that reveal variable values to
one of two players.  Enumerating every positive-probability assignment yields
a finite state space with an exact rational measure; replaying the rules at a
state yields the ordered trace a player would see there, and grouping states
by trace yields that player's information partition.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import Hashable, Iterable, Mapping

from .rational import format_rational, on_one_scale, parse_probability, parse_rational

State = tuple[int, ...]
# Each fired rule contributes (rule index, observed values); the tag keeps
# traces from colliding when different rules happen to reveal equal tuples.
ObservationTrace = tuple[tuple[int, tuple[int, ...]], ...]


class SpecError(ValueError):
    """A world-model definition that violates its structural rules."""


def _names(names, field: str) -> tuple[str, ...]:
    """A list or tuple of variable names, as a tuple."""
    if not isinstance(names, (list, tuple)) or not all(isinstance(name, str) for name in names):
        raise SpecError(f"{field!r} must be a list of variable names, got {names!r}")
    return tuple(names)


def _check_player(player) -> None:
    """Refuse anything but the plain integer 0 or 1 as a player."""
    if type(player) is not int or player not in (0, 1):
        raise SpecError(f"'player' must be the integer 0 or 1, got {player!r}")


@dataclass(frozen=True)
class VariableSpec:
    """One Bernoulli variable; while any gate variable is 0 its value is forced to 0."""

    name: str
    bias: Fraction
    gate: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise SpecError(f"'name' must be a string, got {self.name!r}")
        try:
            object.__setattr__(self, "bias", parse_probability(self.bias, "'bias'"))
            object.__setattr__(self, "gate", _names(self.gate, "gate"))
        except ValueError as exc:
            raise SpecError(f"variable {self.name!r}: {exc}") from exc


@dataclass(frozen=True)
class ObservationRule:
    """Reveal `observed` values to `player` at states where all guard variables are 1."""

    guard: tuple[str, ...]
    player: int
    observed: tuple[str, ...]

    def __post_init__(self) -> None:
        _check_player(self.player)
        object.__setattr__(self, "guard", _names(self.guard, "guard"))
        object.__setattr__(self, "observed", _names(self.observed, "observed"))


@dataclass(frozen=True)
class WorldModelSpec:
    """An ordered variable list plus ordered observation rules.

    Gates may only reference earlier variables, so the declaration order is a
    topological order of the generative process.  Every model must declare a
    variable named ``x``: the coordination-relevant state bit.
    """

    variables: tuple[VariableSpec, ...]
    observations: tuple[ObservationRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "observations", tuple(self.observations))
        # Each name's position, kept for every later lookup; no field, so
        # equality, hashing and the repr see the variables and rules only.
        position: dict[str, int] = {}
        for var in self.variables:
            if var.name in position:
                raise SpecError(f"duplicate variable name {var.name!r}")
            for gate_name in var.gate:
                if gate_name not in position:
                    raise SpecError(
                        f"variable {var.name!r}: gate {gate_name!r} is not an earlier variable"
                    )
            position[var.name] = len(position)
        if "x" not in position:
            raise SpecError("a world model must declare a variable named 'x'")
        for index, rule in enumerate(self.observations):
            for name in itertools.chain(rule.guard, rule.observed):
                if name not in position:
                    raise SpecError(f"observation rule {index}: unknown variable {name!r}")
        object.__setattr__(self, "_position", position)

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(var.name for var in self.variables)

    def variable_index(self, name: str) -> int:
        try:
            return self._position[name]
        except KeyError:
            raise SpecError(f"unknown variable {name!r}") from None


@dataclass(frozen=True)
class StateSpace:
    """Indexed positive-measure states with an exact probability measure.

    The measures are checked on one integer scale: `_weights` holds each
    state's measure times the least common denominator of all of them, and
    they must sum to that denominator.  `_weights` is no field, so equality,
    hashing and the repr see the states and measures only.
    """

    states: tuple[State, ...]
    measures: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(tuple(s) for s in self.states))
        object.__setattr__(self, "measures", tuple(map(parse_rational, self.measures)))
        if len(self.states) != len(self.measures):
            raise ValueError("states and measures differ in length")
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state assignments")
        weights, denominator = on_one_scale(self.measures)
        if any(weight <= 0 for weight in weights):
            raise ValueError("every enumerated state must have positive measure")
        if sum(weights) != denominator:
            raise ValueError("state measures must sum to exactly 1")
        object.__setattr__(self, "_weights", tuple(weights))

    def __len__(self) -> int:
        return len(self.states)

    @cached_property
    def _index(self) -> dict[State, int]:  # built on first lookup: most spaces never need it
        return {state: index for index, state in enumerate(self.states)}

    def index_of(self, state: State) -> int:
        try:
            return self._index[tuple(state)]
        except KeyError:
            raise ValueError(f"state {tuple(state)} has zero measure or is not in the space") from None


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks covering the state-index range, plus the index -> block map."""

    blocks: tuple[frozenset[int], ...]
    block_of: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(frozenset(b) for b in self.blocks))
        object.__setattr__(self, "block_of", tuple(self.block_of))
        if any(not block for block in self.blocks):
            raise ValueError("partition blocks must be nonempty")
        if sum(len(block) for block in self.blocks) != len(self.block_of):
            raise ValueError("partition blocks must be disjoint and exhaustive")
        for index, block_id in enumerate(self.block_of):
            # Only an exact `int` is a block id: a `bool` is an int to Python, and it is refused with a float.
            if type(block_id) is not int or not 0 <= block_id < len(self.blocks):
                raise ValueError(f"state {index} has block id {block_id!r} outside 0..{len(self.blocks) - 1}")
            if index not in self.blocks[block_id]:
                raise ValueError(f"state {index} is not in its assigned block")

    @classmethod
    def from_labels(cls, labels: Iterable[Hashable]) -> Partition:
        """One block per distinct label of the states in index order, numbered by first appearance."""
        groups: dict[Hashable, list[int]] = {}
        for index, label in enumerate(labels):
            groups.setdefault(label, []).append(index)
        block_of = [0] * sum(map(len, groups.values()))
        for block_id, members in enumerate(groups.values()):
            for index in members:
                block_of[index] = block_id
        return cls(tuple(frozenset(members) for members in groups.values()), tuple(block_of))


def enumerate_states(spec: WorldModelSpec) -> StateSpace:
    """Enumerate every positive-measure assignment with its exact probability.

    An active variable contributes a factor of `bias` (value 1) or `1 - bias`
    (value 0); a gated-off variable contributes no factor but must hold value
    0.  Values that are impossible (a gated-off 1, or a factor of 0 from a
    degenerate bias) are never branched on, so conditional beliefs are defined
    at every enumerated state, the measures sum to exactly 1, and the cost
    follows the number of reachable states times the number of variables
    rather than 2^V.

    The factors are integers: with the bias n/d, value 1 contributes n/d and
    value 0 (d - n)/d.  A partial assignment carries its weight as an integer
    numerator and denominator, each multiplied only by the factors of the
    variables it branched on (one common denominator over every variable
    would make each weight on a long chain thousands of bits wide), and one
    `Fraction` is built per emitted state.

    Assignments are extended one variable at a time in declaration order,
    depth first without recursion: the 0 branch is taken at once and the 1
    branch is deferred on a stack, so the most recently deferred choice is
    revisited first.  Trying 0 before 1 at each variable and backtracking to
    the latest open choice emits the states in lexicographic order, which is
    exactly the order of ``itertools.product((0, 1), repeat=V)`` with the
    impossible assignments left out.
    """
    position = spec._position
    plan = tuple(
        (tuple(position[g] for g in var.gate), var.bias.numerator, var.bias.denominator)
        for var in spec.variables
    )
    values = [0] * len(plan)
    value_at = values.__getitem__
    states: list[State] = []
    measures: list[Fraction] = []
    # Deferred 1 branches, as (variable index, weight numerator, weight
    # denominator), the factor applied; the indices rise from bottom to top,
    # so values below the top one are intact.
    pending: list[tuple[int, int, int]] = []
    start, weight, scale = 0, 1, 1
    while True:
        for index in range(start, len(plan)):
            gates, n, d = plan[index]
            if not n or not all(map(value_at, gates)):  # 0 is the only value, factor 1
                values[index] = 0
            elif n == d:
                values[index] = 1
            else:
                pending.append((index, weight * n, scale * d))
                weight *= d - n
                scale *= d
                values[index] = 0
        states.append(tuple(values))
        measures.append(Fraction(weight, scale))
        if not pending:
            return StateSpace(tuple(states), tuple(measures))
        index, weight, scale = pending.pop()
        values[index] = 1
        start = index + 1


def _player_rules(spec: WorldModelSpec, player: int) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """The player's rules as (rule index, guard positions, observed positions)."""
    _check_player(player)
    position = spec._position
    return [
        (rule_index, tuple(position[g] for g in rule.guard), tuple(position[v] for v in rule.observed))
        for rule_index, rule in enumerate(spec.observations)
        if rule.player == player
    ]


def _check_widths(spec: WorldModelSpec, states: Iterable[State]) -> None:
    """Refuse the first state whose width is not the model's variable count."""
    width = len(spec.variables)
    for state in states:
        if len(state) != width:
            raise SpecError(f"state has {len(state)} values but the model declares {width} variables")


def run_observations(spec: WorldModelSpec, player: int, state: State) -> ObservationTrace:
    """Replay the observation rules for one player at one state.

    Returns the ordered trace of (rule index, observed values) for every rule
    owned by the player whose guard variables are all 1 at the state.
    """
    rules = _player_rules(spec, player)
    _check_widths(spec, (state,))
    return tuple(
        (rule_index, tuple(state[v] for v in observed))
        for rule_index, guard, observed in rules
        if all(state[g] == 1 for g in guard)
    )


def trace_values(trace: ObservationTrace) -> tuple[tuple[int, ...], ...]:
    """Strip rule tags, leaving just the observed value tuples in firing order."""
    return tuple(values for _, values in trace)


# A rule's column entry at a state where its guard fails: equal to no observed value.
_SILENT = object()


def _shows_nothing(state: State) -> tuple[()]:
    """What a rule observing no variable shows where its guard holds."""
    return ()


def build_information_partition(spec: WorldModelSpec, space: StateSpace, player: int) -> Partition:
    """Group the states a player cannot tell apart: equal traces, same block.

    The states are labelled column by column: for each of the player's rules,
    one pass over the states records what the rule shows, or `_SILENT` where
    its guard fails.  A state's label is its row across the columns, so two
    labels are equal exactly when the two traces are.
    """
    rules = _player_rules(spec, player)
    states = space.states
    _check_widths(spec, states)
    ones = (1,) * len(spec.variables)
    columns = []
    for _, guard, observed in rules:
        shown = itemgetter(*observed) if observed else _shows_nothing
        if guard:
            fires = itemgetter(*guard)
            on = fires(ones)  # what the guard reads where it holds
            columns.append([shown(state) if fires(state) == on else _SILENT for state in states])
        else:
            columns.append(list(map(shown, states)))
    return Partition.from_labels(zip(*columns) if columns else [()] * len(states))


_HALF = Fraction(1, 2)


def _checked_delta(value) -> Fraction:
    try:
        return parse_probability(value, "delta")
    except ValueError as exc:
        raise SpecError(str(exc)) from None


def builtin_loudspeaker(delta) -> WorldModelSpec:
    """Public-announcement model: a fair broadcast coin reveals x to both players at once."""
    delta = _checked_delta(delta)
    return WorldModelSpec(
        variables=(
            VariableSpec("x", delta),
            VariableSpec("broadcast", _HALF),
        ),
        observations=(
            ObservationRule(("broadcast",), 0, ("x",)),
            ObservationRule(("broadcast",), 1, ("x",)),
        ),
    )


def builtin_messenger(delta) -> WorldModelSpec:
    """Door-to-door messenger model.

    A visit reveals x to the visited player (player 1 also learns whether
    player 0 was visited); a follow-up "tell plan" pass, possible only after a
    visit, relays what the messenger knows about the other player's situation.
    """
    delta = _checked_delta(delta)
    return WorldModelSpec(
        variables=(
            VariableSpec("x", delta),
            VariableSpec("visit_0", _HALF),
            VariableSpec("visit_1", _HALF),
            VariableSpec("tell_plan_0", _HALF, gate=("visit_0",)),
            VariableSpec("tell_plan_1", _HALF, gate=("visit_1",)),
        ),
        observations=(
            ObservationRule(("visit_0",), 0, ("x",)),
            ObservationRule(("visit_0", "tell_plan_0"), 0, ("visit_1", "tell_plan_1")),
            ObservationRule(("visit_1",), 1, ("x", "visit_0")),
            ObservationRule(("visit_1", "tell_plan_1"), 1, ("tell_plan_0",)),
        ),
    )


# --- JSON interchange -------------------------------------------------------

_VARIABLE_KEYS = {"name", "bias", "gate"}
_RULE_KEYS = {"guard", "player", "observed"}


def _json_objects(document: Mapping, key: str, what: str) -> list[Mapping]:
    """The list under `key`, each of whose entries must be a JSON object."""
    entries = document.get(key, [])
    if not isinstance(entries, (list, tuple)):
        raise SpecError(f"{key!r} must be a list, got {entries!r}")
    for index, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise SpecError(f"{what} {index}: expected an object, got {entry!r}")
    return entries


def spec_from_json(document: Mapping) -> WorldModelSpec:
    """Build a model from the JSON document shape produced by spec_to_json.

    Only the document's shape is checked here; each field is checked by the
    type that holds it, so models built in Python get the same messages.  A
    name that is no string has no name to report, so here its error also
    gets the entry's index.
    """
    if not isinstance(document, Mapping):
        raise SpecError(f"a world model must be a JSON object, got {document!r}")
    unknown = set(document) - {"variables", "observations"}
    if unknown:
        raise SpecError(f"unknown top-level keys: {sorted(unknown)}")
    if "variables" not in document:
        raise SpecError("missing 'variables'")
    variables = []
    for index, entry in enumerate(_json_objects(document, "variables", "variable entry")):
        extra = set(entry) - _VARIABLE_KEYS
        if extra:
            raise SpecError(f"variable entry {entry.get('name', '?')!r}: unknown keys {sorted(extra)}")
        if "name" not in entry or "bias" not in entry:
            raise SpecError(f"variable entry {entry!r}: 'name' and 'bias' are required")
        try:
            variables.append(VariableSpec(entry["name"], entry["bias"], entry.get("gate", ())))
        except SpecError as exc:
            if isinstance(entry["name"], str):
                raise
            raise SpecError(f"variable entry {index}: {exc}") from exc
    observations = []
    for index, entry in enumerate(_json_objects(document, "observations", "observation rule")):
        extra = set(entry) - _RULE_KEYS
        if extra:
            raise SpecError(f"observation rule {index}: unknown keys {sorted(extra)}")
        missing = _RULE_KEYS - set(entry)
        if missing:
            raise SpecError(f"observation rule {index}: missing keys {sorted(missing)}")
        try:
            observations.append(ObservationRule(entry["guard"], entry["player"], entry["observed"]))
        except SpecError as exc:
            raise SpecError(f"observation rule {index}: {exc}") from exc
    return WorldModelSpec(tuple(variables), tuple(observations))


def spec_to_json(spec: WorldModelSpec) -> dict:
    return {
        "variables": [
            {"name": var.name, "bias": format_rational(var.bias), "gate": list(var.gate)}
            for var in spec.variables
        ],
        "observations": [
            {"guard": list(rule.guard), "player": rule.player, "observed": list(rule.observed)}
            for rule in spec.observations
        ],
    }


def load_spec(path) -> WorldModelSpec:
    """Read a world-model JSON file; decimal biases convert to exact rationals."""
    text = Path(path).read_text(encoding="utf-8-sig")
    try:
        document = json.loads(text, parse_float=parse_rational)
    except (json.JSONDecodeError, RecursionError) as exc:  # malformed text, or too deep a nesting
        raise SpecError(f"{path}: invalid JSON ({exc})") from exc
    except ValueError as exc:  # well-formed, but a number too long or with too large an exponent
        raise SpecError(f"{path}: invalid number ({exc})") from exc
    return spec_from_json(document)


# --- event helpers ----------------------------------------------------------


def event_where(spec: WorldModelSpec, space: StateSpace, assignment: Mapping[str, int]) -> frozenset[int]:
    """Indices of the states satisfying every `name: value` constraint; a value is the exact int 0 or 1."""
    pairs = []
    for name, value in assignment.items():
        if type(value) is not int or value not in (0, 1):
            raise SpecError(f"constraint {name}={value!r}: value must be 0 or 1")
        pairs.append((spec.variable_index(name), value))
    return frozenset(
        index
        for index, state in enumerate(space.states)
        if all(state[position] == value for position, value in pairs)
    )


def parse_event_predicate(text: str) -> dict[str, int]:
    """Parse a conjunction like ``x=1,visit_0=0`` (comma or ``&`` separated)."""
    constraints: dict[str, int] = {}
    for raw in re.split(r"[,&]", text):
        clause = raw.strip()
        if not clause:
            raise SpecError(f"empty clause in event predicate {text!r}")
        name, sep, value = clause.partition("=")
        name = name.strip()
        value = value.strip()
        if not sep or value not in ("0", "1") or not name:
            raise SpecError(f"clause {clause!r}: expected the form var=0 or var=1")
        if constraints.get(name, int(value)) != int(value):
            raise SpecError(f"conflicting constraints for {name!r}")
        constraints[name] = int(value)
    return constraints


def x_event(spec: WorldModelSpec, space: StateSpace) -> frozenset[int]:
    """The event that the coordination bit x is 1."""
    return event_where(spec, space, {"x": 1})
