"""Command-line front end.

Subcommands: partition (information sets), pbelief (perceived maximal common
belief), ladder (the nested evident events), act (strategy evaluation), verify
(equilibrium check), compare (model table vs. observed data), sweep (agent
marginal value across risk levels), and fuzz (engine vs. an oracle).
Each model is read by one loader, `_load` (the structure and its target event),
and each result is printed by one printer, `_print` (the JSON payload under
`--format json`, else the command's text renderer; to stdout or `--out`).
Exact rationals are printed as p/q everywhere; human tables add a decimal
rendering alongside.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from pathlib import Path

import click

from . import epistemic, experiments, game, oracle, worldmodel
from .rational import format_rational, parse_rational

_STRATEGY_CHOICES = tuple(rule.value for rule in (*experiments.ModelKind, *experiments.SWEEP_STRATEGIES))
_PAYOFF_STRATEGIES = {"rational", "itermax", "cognitive"}


_BUILTINS = {"builtin:messenger": worldmodel.builtin_messenger, "builtin:loudspeaker": worldmodel.builtin_loudspeaker}


def _load(model: str, delta: str, predicate: str = "x=1") -> tuple[epistemic.InformationStructure, frozenset[int]]:
    """The structure of `--model` and the event where `predicate` holds in it; every model declares x."""
    if model in _BUILTINS:
        spec = _BUILTINS[model](parse_rational(delta))
    elif model.startswith("builtin:"):
        raise ValueError(f"unknown builtin model {model!r}: choose {' or '.join(_BUILTINS)}")
    else:
        spec = worldmodel.load_spec(Path(model))
    structure = epistemic.from_world_model(spec)
    return structure, worldmodel.event_where(spec, structure.space, worldmodel.parse_event_predicate(predicate))


def _state_index(structure: epistemic.InformationStructure, text: str) -> int:
    parts = [part.strip() for part in text.split(",")]
    if any(part not in ("0", "1") for part in parts):
        raise click.ClickException(f"state must be comma-separated bits, got {text!r}")
    return structure.space.index_of(tuple(int(part) for part in parts))


def _state_text(state: worldmodel.State) -> str:
    return "(" + ",".join(str(v) for v in state) + ")"


def _rational_with_decimal(value: Fraction) -> str:
    return f"{format_rational(value)} ({float(value)})"


def _table_cell(value: Fraction) -> str:
    return f"{format_rational(value)} ({float(value):.6g})"


def _violation_text(v: dict) -> str:
    return f"player={v['player']} state={_state_text(v['state'])} chosen={v['chosen']} gap={v['gap']}"


def _print(fmt: str, payload, render, out: str | None = None, indent: int | None = 2) -> None:
    """Print a command's result: `payload` as JSON under `--format json`, else
    the text `render()` returns, which is called only then.  To the file `out`
    when one is given, else to stdout."""
    text = json.dumps(payload, indent=indent) if fmt == "json" else render()
    if out is None:
        click.echo(text)
    else:
        Path(out).write_text(text + "\n")


@click.group()
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["table", "json", "csv"]),
    default="table",
    show_default=True,
    help="Output mode; machine formats render rationals as p/q.",
)
@click.pass_context
def cli(ctx, fmt):
    """Exact common-belief engine and coordination-strategy toolkit."""
    ctx.obj = {"format": fmt}


def _command(*formats: str):
    """Register the decorated function as a subcommand accepting these --format values.

    The format is checked before the body runs, so a usage error (exit 2)
    comes before any input is read; a ValueError or OSError from the body is
    a domain failure (exit 1).  The body receives the format string first.
    """

    def register(body):
        # wraps also copies the options the body's decorators attached (__click_params__).
        @functools.wraps(body)
        def run(**kwargs):
            fmt = click.get_current_context().obj["format"]
            if fmt not in formats:
                raise click.UsageError(f"--format {fmt} is not available here (choose from {', '.join(formats)})")
            try:
                return body(fmt, **kwargs)
            except (ValueError, OSError) as exc:
                raise click.ClickException(str(exc)) from exc

        return cli.command()(run)

    return register


# Options shared by several commands, declared once so each reads the same everywhere.
_model = click.option("--model", required=True, help="Path to a model JSON file, builtin:messenger, or builtin:loudspeaker.")
_delta = click.option("--delta", default="1/4", show_default=True, help="Good-state prior for builtin models.")
_event = click.option("--event", "predicate", default="x=1", show_default=True, help="Conjunction like x=1,visit_0=1.")
_player = click.option("--player", type=click.IntRange(0, 1), required=True)
_state = click.option("--state", required=True, help="Comma-separated bits in variable declaration order.")
_human = click.option("--human", "human_path", required=True, help="CSV with columns condition,n,prob_a.")
_out = click.option("--out", default=None, help="Write the output to a file instead of stdout.")


@_command("table", "json")
@_model
@_delta
@_player
def partition(fmt, model, delta, player):
    """Print one information set per line as sorted state tuples."""
    structure, _ = _load(model, delta)
    # States are indexed in lexicographic order, so sorted indices give sorted tuples.
    states = structure.space.states
    blocks = sorted(
        [states[index] for index in sorted(block)] for block in structure.partitions[player].blocks
    )
    _print(fmt, {"blocks": blocks}, lambda: "\n".join(" ".join(map(_state_text, block)) for block in blocks))


@_command("table", "json")
@_model
@_delta
@_event
@_player
@_state
def pbelief(fmt, model, delta, predicate, player, state):
    """Perceived maximal common belief in the event at a state."""
    structure, target = _load(model, delta, predicate)
    index = _state_index(structure, state)
    value = epistemic.common_p_belief(structure, target, player, index)
    _print(fmt, {"value": format_rational(value)}, lambda: _rational_with_decimal(value), indent=None)


@_command("table", "json")
@_model
@_delta
@_event
def ladder(fmt, model, delta, predicate):
    """The nested maximally evident events with their evidence levels."""
    structure, target = _load(model, delta, predicate)
    states = structure.space.states
    rungs = [
        {"level": format_rational(rung.level), "members": [states[i] for i in sorted(rung.event)]}
        for rung in epistemic.evident_ladder(structure, target).rungs
    ]

    def render() -> str:
        return "\n".join(f"level={r['level']}  members=[{','.join(map(_state_text, r['members']))}]" for r in rungs)

    _print(fmt, {"rungs": rungs}, render)


@_command("table", "json")
@click.option("--strategy", type=click.Choice(_STRATEGY_CHOICES), required=True)
@click.option("--k", "level", type=click.IntRange(min=0), default=0, show_default=True, help="Recursion depth for itermax/itermatch.")
@click.option("--payoffs", default=None, help="a,b,c,d as rationals or decimals; required for rational, itermax, cognitive.")
@_model
@_delta
@_player
@_state
def act(fmt, strategy, level, payoffs, model, delta, player, state):
    """Evaluate one strategy at a state: an action, or an exact probability of A."""
    if strategy in _PAYOFF_STRATEGIES and payoffs is None:
        raise click.UsageError(f"--payoffs is required for strategy {strategy}")
    structure, target = _load(model, delta)
    index = _state_index(structure, state)
    params = game.PayoffParams.parse(payoffs) if payoffs is not None else None
    result = experiments.play(strategy, structure, target, params, level, player, index)
    if isinstance(result, game.Action):
        payload, render = {"action": result.value}, lambda: result.value
    else:
        payload, render = {"prob_a": format_rational(result)}, lambda: _rational_with_decimal(result)
    _print(fmt, payload, render, indent=None)


@_command("table", "json")
@_model
@_delta
@click.option("--payoffs", required=True)
def verify(fmt, model, delta, payoffs):
    """Check the threshold strategy profile for profitable deviations."""
    structure, target = _load(model, delta)
    report = game.verify_equilibrium(game.GameInstance(structure, game.PayoffParams.parse(payoffs), target))
    if not report.applicable:
        status = "N-A"
    elif report.violations:
        status = "FAIL"
    else:
        status = "PASS"
    violations = [
        {"player": v.player, "state": v.state, "chosen": v.chosen.value, "gap": format_rational(v.gap)}
        for v in report.violations
    ]

    def render() -> str:
        if status == "N-A":
            return f"N-A: {report.reason}"
        return "\n".join([status, *map(_violation_text, violations)])

    _print(fmt, {"status": status, "reason": report.reason, "violations": violations}, render)
    if status == "FAIL":
        click.get_current_context().exit(1)


@_command("table", "json", "csv")
@_human
@_delta
@click.option("--payoffs", default="1.1,0,1,0.4", show_default=True)
@_out
def compare(fmt, human_path, delta, payoffs, out):
    """Per-model predictions, fitted recursion depths, and mean squared error."""
    human = experiments.HumanData.from_csv(human_path)
    delta = parse_rational(delta)
    conditions = experiments.knowledge_conditions(delta)
    params = game.PayoffParams.parse(payoffs)
    fits = experiments.compare_models(conditions, params, human)
    payload = {
        "delta": format_rational(delta),
        "payoffs": {k: format_rational(getattr(params, k)) for k in ("a", "b", "c", "d")},
        "models": [
            {
                "model": fit.kind.value,
                "level": fit.level,
                "predictions": {name: format_rational(fit.table.probs[name]) for name in experiments.CONDITION_NAMES},
                "mse": format_rational(fit.error),
            }
            for fit in fits
        ],
    }

    def render() -> str:
        names = experiments.CONDITION_NAMES
        csv = fmt == "csv"
        cell = format_rational if csv else _table_cell
        rows = [["model", "level" if csv else "k", *names, "mse"]]
        for fit in fits:
            level = ("" if csv else "-") if fit.level is None else str(fit.level)
            rows.append([fit.kind.value, level, *(cell(fit.table.probs[name]) for name in names), cell(fit.error)])
        if csv:
            return "\n".join(map(",".join, rows))
        widths = [max(map(len, column)) for column in zip(*rows)]
        return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows)

    _print(fmt, payload, render, out)


def _parse_grid(text: str) -> tuple[Fraction, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise click.UsageError(f"--grid must be start:step:end, got {text!r}")
    start, step, end = (parse_rational(part) for part in parts)
    if step <= 0:
        raise click.UsageError("grid step must be positive")
    if start > end:
        raise click.UsageError(f"--grid {text} holds no risk level: its start exceeds its end")
    # Each value is checked as it is made, so a grid reaching outside (0, 1) is
    # refused before the rest of it is built.
    grid = []
    value = start
    while value <= end:
        if not 0 < value < 1:
            raise ValueError("risk grid values must lie strictly in (0, 1)")
        grid.append(value)
        value += step
    return tuple(grid)


@_command("table", "json", "csv")
@_human
@_delta
@click.option("--grid", "grid_text", default="1/20:1/20:19/20", show_default=True, help="Risk levels start:step:end.")
@_out
def sweep(fmt, human_path, delta, grid_text, out):
    """Agent marginal value per strategy across risk levels, as CSV."""
    grid = _parse_grid(grid_text)
    human = experiments.HumanData.from_csv(human_path)
    conditions = experiments.knowledge_conditions(parse_rational(delta))
    result = experiments.human_agent_sweep(grid, conditions, human)
    payload = {
        "grid": [format_rational(p) for p in result.grid],
        "values": {
            strategy.value: [format_rational(v) for v in values]
            for strategy, values in result.values.items()
        },
    }

    def render() -> str:
        values = payload["values"]
        rows = [f"{p_star},{name},{values[name][i]}" for i, p_star in enumerate(payload["grid"]) for name in values]
        return "\n".join(["p_star,strategy,marginal_value", *rows])

    _print(fmt, payload, render, out)


@_command("table")
@click.option("--seeds", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--states", type=click.IntRange(min=1), default=8, show_default=True)
def fuzz(fmt, seeds, states):
    """Check the engine against the exhaustive oracle up to 12 states, the fixed-point one above.

    Prints the first counterexample and exits 1 on any disagreement.
    """
    exhaustive = states <= oracle.EXHAUSTIVE_STATE_LIMIT
    reference = oracle.brute_force_common_p_belief if exhaustive else oracle.fixedpoint_common_p_belief
    for seed in range(seeds):
        structure, target = oracle.random_structure(
            oracle.RandomStructureConfig(seed=seed, num_states=states)
        )
        for player in (0, 1):
            for state in range(states):
                expected = reference(structure, target, player, state)
                actual = epistemic.common_p_belief(structure, target, player, state)
                if actual != expected:
                    dump = oracle.structure_to_json(structure, target)
                    dump.update(
                        {
                            "seed": seed,
                            "player": player,
                            "state": state,
                            "expected": format_rational(expected),
                            "actual": format_rational(actual),
                        }
                    )
                    _print("json", dump, None)
                    click.get_current_context().exit(1)
    click.echo(f"fuzz: {seeds} seeds x {states} states: engine matches the oracle exactly")

