"""Command-line front end.

Subcommands: partition (information sets), pbelief (perceived maximal common
belief), ladder (the nested evident events), act (strategy evaluation), verify
(equilibrium check), compare (model table vs. observed data), sweep (agent
marginal value across risk levels), and fuzz (engine vs. an oracle).
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


def _load_model(model: str, delta: str) -> tuple[worldmodel.WorldModelSpec, epistemic.InformationStructure]:
    if model in _BUILTINS:
        spec = _BUILTINS[model](parse_rational(delta))
    elif model.startswith("builtin:"):
        raise ValueError(f"unknown builtin model {model!r}: choose {' or '.join(_BUILTINS)}")
    else:
        spec = worldmodel.load_spec(Path(model))
    return spec, epistemic.from_world_model(spec)


def _state_index(structure: epistemic.InformationStructure, text: str) -> int:
    parts = [part.strip() for part in text.split(",")]
    if any(part not in ("0", "1") for part in parts):
        raise click.ClickException(f"state must be comma-separated bits, got {text!r}")
    return structure.space.index_of(tuple(int(part) for part in parts))


def _event_from(spec, space, predicate: str) -> frozenset[int]:
    return worldmodel.event_where(spec, space, worldmodel.parse_event_predicate(predicate))


def _state_text(state: worldmodel.State) -> str:
    return "(" + ",".join(str(v) for v in state) + ")"


def _rational_with_decimal(value: Fraction) -> str:
    return f"{format_rational(value)} ({float(value)})"


def _table_cell(value: Fraction) -> str:
    return f"{format_rational(value)} ({float(value):.6g})"


def _render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(header), *(len(row[i]) for row in rows)) if rows else len(header)
        for i, header in enumerate(headers)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _emit(text: str, out: str | None) -> None:
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
    spec, structure = _load_model(model, delta)
    blocks = [
        sorted(structure.space.states[index] for index in block)
        for block in structure.partitions[player].blocks
    ]
    blocks.sort(key=lambda states: states[0])
    if fmt == "json":
        click.echo(json.dumps({"blocks": [[list(s) for s in block] for block in blocks]}, indent=2))
        return
    for block in blocks:
        click.echo(" ".join(_state_text(state) for state in block))


@_command("table", "json")
@_model
@_delta
@_event
@_player
@_state
def pbelief(fmt, model, delta, predicate, player, state):
    """Perceived maximal common belief in the event at a state."""
    spec, structure = _load_model(model, delta)
    target = _event_from(spec, structure.space, predicate)
    index = _state_index(structure, state)
    value = epistemic.common_p_belief(structure, target, player, index)
    if fmt == "json":
        click.echo(json.dumps({"value": format_rational(value)}))
        return
    click.echo(_rational_with_decimal(value))


@_command("table", "json")
@_model
@_delta
@_event
def ladder(fmt, model, delta, predicate):
    """The nested maximally evident events with their evidence levels."""
    spec, structure = _load_model(model, delta)
    target = _event_from(spec, structure.space, predicate)
    rungs = epistemic.evident_ladder(structure, target).rungs
    if fmt == "json":
        payload = [
            {
                "level": format_rational(rung.level),
                "members": [list(structure.space.states[i]) for i in sorted(rung.event)],
            }
            for rung in rungs
        ]
        click.echo(json.dumps({"rungs": payload}, indent=2))
        return
    for rung in rungs:
        members = sorted(structure.space.states[i] for i in rung.event)
        rendered = ",".join(_state_text(state) for state in members)
        click.echo(f"level={format_rational(rung.level)}  members=[{rendered}]")


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
    spec, structure = _load_model(model, delta)
    target = worldmodel.x_event(spec, structure.space)
    index = _state_index(structure, state)
    params = game.PayoffParams.parse(payoffs) if payoffs is not None else None
    result = experiments.play(strategy, structure, target, params, level, player, index)
    if isinstance(result, game.Action):
        payload, text = {"action": result.value}, result.value
    else:
        payload, text = {"prob_a": format_rational(result)}, _rational_with_decimal(result)
    click.echo(json.dumps(payload) if fmt == "json" else text)


@_command("table", "json")
@_model
@_delta
@click.option("--payoffs", required=True)
def verify(fmt, model, delta, payoffs):
    """Check the threshold strategy profile for profitable deviations."""
    spec, structure = _load_model(model, delta)
    instance = game.GameInstance(structure, game.PayoffParams.parse(payoffs), worldmodel.x_event(spec, structure.space))
    report = game.verify_equilibrium(instance)
    if not report.applicable:
        status = "N-A"
    elif report.violations:
        status = "FAIL"
    else:
        status = "PASS"
    if fmt == "json":
        click.echo(
            json.dumps(
                {
                    "status": status,
                    "reason": report.reason,
                    "violations": [
                        {
                            "player": v.player,
                            "state": list(v.state),
                            "chosen": v.chosen.value,
                            "gap": format_rational(v.gap),
                        }
                        for v in report.violations
                    ],
                },
                indent=2,
            )
        )
    elif status == "N-A":
        click.echo(f"N-A: {report.reason}")
    else:
        click.echo(status)
        for v in report.violations:
            click.echo(
                f"player={v.player} state={_state_text(v.state)} "
                f"chosen={v.chosen.value} gap={format_rational(v.gap)}"
            )
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
    conditions = experiments.knowledge_conditions(parse_rational(delta))
    params = game.PayoffParams.parse(payoffs)
    fits = experiments.compare_models(conditions, params, human)
    if fmt == "json":
        payload = {
            "delta": format_rational(parse_rational(delta)),
            "payoffs": {k: format_rational(getattr(params, k)) for k in ("a", "b", "c", "d")},
            "models": [
                {
                    "model": fit.kind.value,
                    "level": fit.level,
                    "predictions": {
                        name: format_rational(fit.table.probs[name])
                        for name in experiments.CONDITION_NAMES
                    },
                    "mse": format_rational(fit.error),
                }
                for fit in fits
            ],
        }
        _emit(json.dumps(payload, indent=2), out)
        return
    if fmt == "csv":
        lines = [",".join(["model", "level", *experiments.CONDITION_NAMES, "mse"])]
        for fit in fits:
            level = "" if fit.level is None else str(fit.level)
            cells = [format_rational(fit.table.probs[name]) for name in experiments.CONDITION_NAMES]
            lines.append(",".join([fit.kind.value, level, *cells, format_rational(fit.error)]))
        _emit("\n".join(lines), out)
        return
    headers = ["model", "k", *experiments.CONDITION_NAMES, "mse"]
    rows = []
    for fit in fits:
        rows.append(
            [
                fit.kind.value,
                "-" if fit.level is None else str(fit.level),
                *(_table_cell(fit.table.probs[name]) for name in experiments.CONDITION_NAMES),
                _table_cell(fit.error),
            ]
        )
    _emit(_render_table(headers, rows), out)


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
    if fmt == "json":
        payload = {
            "grid": [format_rational(p) for p in result.grid],
            "values": {
                strategy.value: [format_rational(v) for v in values]
                for strategy, values in result.values.items()
            },
        }
        _emit(json.dumps(payload, indent=2), out)
        return
    lines = ["p_star,strategy,marginal_value"]
    for position, p_star in enumerate(result.grid):
        for strategy in experiments.SWEEP_STRATEGIES:
            value = result.values[strategy][position]
            lines.append(f"{format_rational(p_star)},{strategy.value},{format_rational(value)}")
    _emit("\n".join(lines), out)


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
                    click.echo(json.dumps(dump, indent=2))
                    click.get_current_context().exit(1)
    click.echo(f"fuzz: {seeds} seeds x {states} states: engine matches the oracle exactly")

