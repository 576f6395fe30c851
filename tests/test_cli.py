import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from epicoord import (
    Action,
    EquilibriumReport,
    Violation,
    builtin_messenger,
    epistemic,
    experiments,
    from_world_model,
    game,
    iterated_matching,
    oracle,
    pair_heuristic,
    private_heuristic,
    spec_to_json,
    x_event,
)
from epicoord.cli import _parse_grid, cli
from epicoord.rational import format_rational, parse_rational

from .conftest import email_chain

SYNTHETIC_CSV = (
    "condition,n,prob_a\n"
    "private,34,0.2\n"
    "secondary,36,0.55\n"
    "tertiary,33,0.6\n"
    "common,35,0.85\n"
)


@pytest.fixture
def runner():
    return CliRunner()


def write_csv(tmp_path) -> Path:
    path = tmp_path / "human.csv"
    path.write_text(SYNTHETIC_CSV)
    return path


class TestBeliefCommands:
    def test_pbelief_certainty_rendering(self, runner):
        result = runner.invoke(
            cli,
            [
                "pbelief", "--model", "builtin:loudspeaker", "--delta", "1/4",
                "--event", "x=1", "--player", "0", "--state", "1,1",
            ],
        )
        assert result.exit_code == 0
        assert result.output.strip() == "1/1 (1.0)"

    def test_pbelief_private_state(self, runner):
        result = runner.invoke(
            cli,
            [
                "pbelief", "--model", "builtin:messenger", "--delta", "0.25",
                "--player", "0", "--state", "1,1,0,1,0",
            ],
        )
        assert result.exit_code == 0
        assert result.output.strip() == "1/4 (0.25)"

    def test_pbelief_reads_a_non_ascii_model_under_the_c_locale(self, tmp_path):
        """A model file is read as UTF-8 whatever the locale; under LC_ALL=C, with UTF-8 mode
        and locale coercion off, Python's default text encoding is ASCII."""
        path = tmp_path / "model.json"
        path.write_bytes(
            '{"variables": [{"name": "x", "bias": "1/4"}, {"name": "se\u00f1al", "bias": 0.5, "gate": ["x"]}],'
            ' "observations": [{"guard": ["se\u00f1al"], "player": 0, "observed": ["x"]}]}'.encode()
        )
        source = str(Path(epistemic.__file__).parents[1])
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": source}
        args = ["--format", "json", "pbelief", "--model", str(path), "--player", "1", "--state", "1,1"]
        result = subprocess.run(
            [sys.executable, "-m", "epicoord", *args], env=env, capture_output=True, text=True, timeout=60
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, '{"value": "1/7"}\n', "")

    def test_ladder_output(self, runner):
        result = runner.invoke(cli, ["ladder", "--model", "builtin:loudspeaker", "--delta", "1/4"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "level=0/1  members=[(0,0),(0,1),(1,0),(1,1)]",
            "level=1/4  members=[(0,0),(1,0),(1,1)]",
            "level=1/1  members=[(1,1)]",
        ]

    def test_partition_output(self, runner):
        result = runner.invoke(
            cli, ["partition", "--model", "builtin:loudspeaker", "--delta", "1/4", "--player", "0"]
        )
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "(0,0) (1,0)",
            "(0,1)",
            "(1,1)",
        ]

    def test_partition_json(self, runner):
        result = runner.invoke(
            cli,
            ["--format", "json", "partition", "--model", "builtin:loudspeaker", "--player", "1"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert [[0, 0], [1, 0]] in payload["blocks"]

    def test_custom_model_file(self, runner, tmp_path):
        model = {
            "variables": [
                {"name": "x", "bias": "1/4"},
                {"name": "broadcast", "bias": "1/2"},
            ],
            "observations": [
                {"guard": ["broadcast"], "player": 0, "observed": ["x"]},
                {"guard": ["broadcast"], "player": 1, "observed": ["x"]},
            ],
        }
        path = tmp_path / "loud.json"
        path.write_text(json.dumps(model))
        result = runner.invoke(
            cli, ["pbelief", "--model", str(path), "--player", "0", "--state", "1,1"]
        )
        assert result.exit_code == 0
        assert result.output.strip() == "1/1 (1.0)"

    def test_ladder_on_forty_variable_chain(self, runner, tmp_path):
        # 2^40 assignments, 41 reachable states: enumeration must not try them all.
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(spec_to_json(email_chain(40, Fraction(1, 3), Fraction(1, 10)))))
        result = runner.invoke(cli, ["--format", "json", "ladder", "--model", str(path)])
        assert result.exit_code == 0, result.output
        rungs = json.loads(result.output)["rungs"]
        assert len(rungs[0]["members"]) == 41


class TestActCommand:
    def test_rational_action(self, runner):
        result = runner.invoke(
            cli,
            [
                "act", "--strategy", "rational", "--payoffs", "1.1,0,1,0.4",
                "--model", "builtin:loudspeaker", "--player", "0", "--state", "1,1",
            ],
        )
        assert result.exit_code == 0
        assert result.output.strip() == "A"

    def test_matched_probability(self, runner):
        result = runner.invoke(
            cli,
            [
                "act", "--strategy", "matched", "--model", "builtin:messenger",
                "--player", "0", "--state", "1,1,0,1,0",
            ],
        )
        assert result.exit_code == 0
        assert result.output.strip() == "1/4 (0.25)"

    def test_itermatch_level(self, runner):
        result = runner.invoke(
            cli,
            [
                "act", "--strategy", "itermatch", "--k", "1", "--model", "builtin:messenger",
                "--player", "0", "--state", "1,1,0,1,0",
            ],
        )
        assert result.exit_code == 0
        assert result.output.strip() == "1/4 (0.25)"

    @pytest.mark.parametrize(
        "strategy,expected",
        [
            (["itermatch"], {"prob_a": "1/1"}),
            (["itermax", "--payoffs", "1.1,0,1,0.4"], {"action": "A"}),
        ],
        ids=["itermatch", "itermax"],
    )
    def test_deep_level_needs_no_recursion(self, runner, strategy, expected):
        result = runner.invoke(
            cli,
            ["--format", "json", "act", "--strategy", *strategy, "--k", "400",
             "--model", "builtin:loudspeaker", "--player", "0", "--state", "1,1"],
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == expected

    def test_answer_longer_than_python_prints(self, runner):
        # The level-5000 probability has a denominator of more than 4300 digits,
        # more than str(int) converts under Python's default limit.
        result = runner.invoke(
            cli,
            ["--format", "json", "act", "--strategy", "itermatch", "--k", "5000",
             "--model", "builtin:messenger", "--player", "0", "--state", "1,1,0,1,0"],
        )
        assert result.exit_code == 0, result.output
        text = json.loads(result.output)["prob_a"]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            value = parse_rational(text)
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(text.split("/")[1]) > limit
        spec = builtin_messenger(Fraction(1, 4))
        structure = from_world_model(spec)
        index = structure.space.index_of((1, 1, 0, 1, 0))
        assert value == iterated_matching(structure, x_event(spec, structure.space), 5000, 0, index)

    @pytest.mark.parametrize(
        "strategy,heuristic,at_private_state",
        [("private", private_heuristic, "A"), ("pair", pair_heuristic, "B")],
    )
    def test_heuristic_actions_at_every_messenger_state(self, runner, strategy, heuristic, at_private_state):
        spec = builtin_messenger(Fraction(1, 4))
        structure = from_world_model(spec)
        target = x_event(spec, structure.space)
        private_state = structure.space.index_of((1, 1, 0, 1, 0))
        assert heuristic(structure, target, 0, private_state).value == at_private_state
        for player in (0, 1):
            for index, state in enumerate(structure.space.states):
                expected = heuristic(structure, target, player, index).value
                args = ["act", "--strategy", strategy, "--model", "builtin:messenger",
                        "--player", str(player), "--state", ",".join(map(str, state))]
                table = runner.invoke(cli, args)
                assert table.exit_code == 0, table.output
                assert table.output == expected + "\n"
                machine = runner.invoke(cli, ["--format", "json", *args])
                assert machine.exit_code == 0, machine.output
                assert json.loads(machine.output) == {"action": expected}

    @pytest.mark.parametrize("strategy", ["rational", "itermax", "cognitive"])
    def test_payoffs_required_before_the_model_is_read(self, runner, tmp_path, strategy):
        """The missing --payoffs is a usage error (exit 2), not the missing file's domain error (1)."""
        result = runner.invoke(
            cli,
            ["act", "--strategy", strategy, "--model", str(tmp_path / "missing.json"),
             "--player", "0", "--state", "1,1"],
        )
        assert result.exit_code == 2
        assert "--payoffs" in result.output

    def test_strategy_choices_are_the_play_rules(self):
        """`act` offers every model kind and sweep agent, and nothing else (no always_b)."""
        (option,) = [param for param in cli.commands["act"].params if param.name == "strategy"]
        rules = [*experiments.ModelKind, *experiments.SWEEP_STRATEGIES]
        assert sorted(option.type.choices) == sorted(rule.value for rule in rules)

    def test_bad_state_bits(self, runner):
        result = runner.invoke(
            cli,
            ["act", "--strategy", "matched", "--model", "builtin:loudspeaker",
             "--player", "0", "--state", "1,2"],
        )
        assert result.exit_code == 1

    def test_zero_measure_state(self, runner):
        result = runner.invoke(
            cli,
            ["act", "--strategy", "matched", "--model", "builtin:messenger",
             "--player", "0", "--state", "1,0,0,1,0"],
        )
        assert result.exit_code == 1
        assert "zero measure" in result.output


class TestVerifyCommand:
    def test_pass(self, runner):
        result = runner.invoke(
            cli, ["verify", "--model", "builtin:messenger", "--payoffs", "1.1,0,1,0.4"]
        )
        assert result.exit_code == 0
        assert result.output.strip() == "PASS"

    def test_not_applicable(self, runner):
        result = runner.invoke(
            cli,
            ["verify", "--model", "builtin:loudspeaker", "--delta", "19/20",
             "--payoffs", "1.1,0,1,0.4"],
        )
        assert result.exit_code == 0
        assert result.output.startswith("N-A:")

    @pytest.fixture
    def failing_report(self, monkeypatch):
        violation = Violation(1, 3, (1, 1, 0, 1, 0), Action.A, Fraction(1, 8))
        report = EquilibriumReport(True, None, (violation,))
        monkeypatch.setattr(game, "verify_equilibrium", lambda instance: report)

    def test_fail_lists_each_violation(self, runner, failing_report):
        result = runner.invoke(
            cli, ["verify", "--model", "builtin:messenger", "--payoffs", "1.1,0,1,0.4"]
        )
        assert result.exit_code == 1
        assert result.output == "FAIL\nplayer=1 state=(1,1,0,1,0) chosen=A gap=1/8\n"

    def test_fail_json(self, runner, failing_report):
        result = runner.invoke(
            cli,
            ["--format", "json", "verify", "--model", "builtin:messenger", "--payoffs", "1.1,0,1,0.4"],
        )
        assert result.exit_code == 1
        assert json.loads(result.output) == {
            "status": "FAIL",
            "reason": None,
            "violations": [{"player": 1, "state": [1, 1, 0, 1, 0], "chosen": "A", "gap": "1/8"}],
        }


class TestUsageAndErrors:
    def test_unknown_subcommand(self, runner):
        result = runner.invoke(cli, ["frobnicate"])
        assert result.exit_code == 2

    def test_missing_human_file_names_it(self, runner):
        result = runner.invoke(cli, ["compare", "--human", "missing.csv"])
        assert result.exit_code == 1
        assert "missing.csv" in result.output

    def test_unknown_builtin_names_the_builtins(self, runner):
        result = runner.invoke(cli, ["pbelief", "--model", "builtin:nope", "--player", "0", "--state", "1,1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "builtin:nope" in result.output
        assert "builtin:messenger" in result.output and "builtin:loudspeaker" in result.output
        assert "No such file" not in result.output

    def test_unknown_event_variable(self, runner):
        result = runner.invoke(
            cli,
            ["pbelief", "--model", "builtin:loudspeaker", "--event", "zap=1",
             "--player", "0", "--state", "1,1"],
        )
        assert result.exit_code == 1
        assert "zap" in result.output

    def test_short_human_row_names_its_line(self, runner, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("condition,n,prob_a\nprivate\n")
        result = runner.invoke(cli, ["sweep", "--human", str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "line 2" in result.output

    def test_non_object_variable_entry_names_it(self, runner, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"variables": [1]}))
        result = runner.invoke(cli, ["partition", "--model", str(path), "--player", "0"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "variable entry 0" in result.output

    @pytest.mark.parametrize(
        "document,message",
        [
            (
                {"variables": [{"name": "x", "bias": "1/2", "gate": 5}]},
                "variable 'x': 'gate' must be a list of variable names, got 5",
            ),
            (
                {
                    "variables": [{"name": "x", "bias": "1/2"}],
                    "observations": [{"guard": 5, "player": 0, "observed": ["x"]}],
                },
                "observation rule 0: 'guard' must be a list of variable names, got 5",
            ),
            (
                {"variables": [{"name": ["x"], "bias": "1/2"}]},
                "variable entry 0: 'name' must be a string, got ['x']",
            ),
            (
                {"variables": [{"name": "x", "bias": True}]},
                "variable 'x': 'bias': refusing boolean True; pass a number like 1 or '1/4'",
            ),
            (
                {
                    "variables": [{"name": "x", "bias": "1/2"}],
                    "observations": [{"guard": [], "player": True, "observed": ["x"]}],
                },
                "observation rule 0: 'player' must be the integer 0 or 1, got True",
            ),
            (
                {
                    "variables": [{"name": "x", "bias": "1/2"}],
                    "observations": [{"guard": [], "player": 1.0, "observed": ["x"]}],
                },
                "observation rule 0: 'player' must be the integer 0 or 1",
            ),
            ([], "a world model must be a JSON object, got []"),
            ({"variables": [{"name": "x", "bias": "1/2"}], "extra": 1}, "unknown top-level keys: ['extra']"),
            ({"observations": []}, "missing 'variables'"),
            ({"variables": 5}, "'variables' must be a list, got 5"),
            ({"variables": [{"name": "x"}]}, "variable entry {'name': 'x'}: 'name' and 'bias' are required"),
            (
                {
                    "variables": [{"name": "x", "bias": "1/2"}],
                    "observations": [{"guard": [], "player": 0, "observed": ["x"], "extra": 1}],
                },
                "observation rule 0: unknown keys ['extra']",
            ),
            (
                {
                    "variables": [{"name": "x", "bias": "1/2"}],
                    "observations": [{"guard": [], "player": 0}],
                },
                "observation rule 0: missing keys ['observed']",
            ),
        ],
        ids=[
            "gate", "guard", "name", "bias-bool", "player-bool", "player-float",
            "not-an-object", "top-level-key", "no-variables", "variables-not-a-list",
            "variable-without-bias", "rule-key", "rule-missing-key",
        ],
    )
    def test_mistyped_model_field_names_entry_and_field(self, runner, tmp_path, document, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(document))
        result = runner.invoke(cli, ["partition", "--model", str(path), "--player", "0"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert message in result.output

    @pytest.mark.parametrize(
        "where,number",
        [
            ("payoffs", "1" + "0" * 5000),
            ("bias-string", "1/1" + "0" * 5000),
            ("bias-number", "1" + "0" * 5000),
            # An exponent past the limit: the same numbers written short.
            ("delta", "1e-5000"),
            ("payoffs", "1e5000"),
            ("bias-number", "1e-5000"),
            ("bias-string", "1e-5000"),
        ],
        ids=[
            "payoffs", "bias-string", "bias-number",
            "delta-exponent", "payoffs-exponent", "bias-number-exponent", "bias-string-exponent",
        ],
    )
    def test_over_long_number_is_a_domain_error(self, runner, tmp_path, where, number):
        path = tmp_path / "model.json"
        bias = f'"{number}"' if where == "bias-string" else number
        path.write_text(f'{{"variables": [{{"name": "x", "bias": {bias}}}]}}')
        if where == "payoffs":
            args = ["act", "--strategy", "rational", "--payoffs", f"{number},0,1,0",
                    "--model", "builtin:messenger", "--player", "0", "--state", "1,1,0,1,0"]
        elif where == "delta":
            args = ["pbelief", "--model", "builtin:messenger", "--delta", number,
                    "--player", "0", "--state", "1,1,0,1,0"]
        else:
            args = ["ladder", "--model", str(path)]
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "4300 digits" in result.output
        assert len(result.output) < 500

    @pytest.mark.parametrize("bias", ["1e-5000", "1" + "0" * 5000], ids=["exponent", "digits"])
    def test_over_long_number_in_a_model_is_not_called_invalid_json(self, runner, tmp_path, bias):
        path = tmp_path / "model.json"
        path.write_text(f'{{"variables": [{{"name": "x", "bias": {bias}}}]}}')
        result = runner.invoke(cli, ["ladder", "--model", str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"Error: {path}: invalid number (")
        assert "4300 digits" in result.output

    def test_deeply_nested_model_is_a_domain_error(self, runner, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 2000 + "]" * 2000)
        result = runner.invoke(cli, ["partition", "--model", str(path), "--player", "0"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.output.startswith(f"Error: {path}: invalid JSON (")

    def test_non_integer_human_count_names_its_line(self, runner, tmp_path):
        path = tmp_path / "human.csv"
        path.write_text("condition,n,prob_a\nprivate,abc,0.1\n")
        result = runner.invoke(cli, ["sweep", "--human", str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "line 2: n must be an integer" in result.output

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_human_count_below_one_names_its_line(self, runner, tmp_path, count):
        path = tmp_path / "human.csv"
        path.write_text(SYNTHETIC_CSV.replace("tertiary,33,", f"tertiary,{count},"))
        result = runner.invoke(cli, ["compare", "--human", str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert f"{path}, line 4: n must be at least 1, got {int(count)}" in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["partition", "--player", "0"],
            ["pbelief", "--player", "0", "--state", "1,1"],
            ["ladder"],
            ["act", "--strategy", "itermatch", "--k", "2000", "--player", "0", "--state", "1,1"],
            ["verify", "--payoffs", "1.1,0,1,0.4"],
        ],
        ids=lambda args: args[0],
    )
    def test_format_checked_before_any_work(self, runner, tmp_path, args):
        """A usage error (exit 2) comes before the model file is even read (exit 1)."""
        missing = str(tmp_path / "missing.json")
        result = runner.invoke(cli, ["--format", "csv", *args, "--model", missing])
        assert result.exit_code == 2
        assert "--format csv is not available here" in result.output

    def test_empty_sweep_grid_is_a_usage_error(self, runner, tmp_path):
        result = runner.invoke(cli, ["sweep", "--human", str(write_csv(tmp_path)), "--grid", "0.5:0.1:0.4"])
        assert result.exit_code == 2
        assert "holds no risk level" in result.output
        assert "p_star" not in result.output

    @pytest.mark.parametrize(
        "grid,message",
        [("1/2", "--grid must be start:step:end, got '1/2'"), ("1/2:0:1", "grid step must be positive")],
    )
    def test_malformed_sweep_grid_is_a_usage_error(self, runner, tmp_path, grid, message):
        result = runner.invoke(cli, ["sweep", "--human", str(write_csv(tmp_path)), "--grid", grid])
        assert result.exit_code == 2
        assert message in result.output
        assert "p_star" not in result.output

    @pytest.mark.parametrize("grid", ["-1000000:1/10:1/2", "0:1e-9:1", "1/2:1/2:1", "9/10:1/20:1000000"])
    def test_grid_outside_the_unit_interval_is_refused_as_it_is_built(self, grid):
        """A start at or below 0, or a last point at or above 1, is refused
        before any point is made: the count and the last point are exact."""
        with pytest.raises(ValueError, match=r"^risk grid values must lie strictly in \(0, 1\)$"):
            _parse_grid(grid)

    def test_a_grid_of_too_many_points_exits_1_at_once(self, runner, tmp_path):
        """Every point of 1e-9:1e-9:1/2 lies inside (0, 1), but there are 5e8 of them: the
        count is refused before any point is made, with no traceback."""
        result = runner.invoke(cli, ["sweep", "--human", str(write_csv(tmp_path)), "--grid", "1e-9:1e-9:1/2"])
        assert result.exit_code == 1
        assert result.output == "Error: --grid 1e-9:1e-9:1/2 holds 500000000 risk levels; at most 100000 are allowed\n"
        assert "Traceback" not in result.output

    def test_a_grid_at_the_point_cap_is_accepted_one_past_it_refused(self, runner, tmp_path):
        grid = _parse_grid("1/200000:1/200000:1/2")
        assert len(grid) == 100_000
        assert (grid[0], grid[1], grid[-1]) == (Fraction(1, 200000), Fraction(1, 100000), Fraction(1, 2))
        result = runner.invoke(cli, ["sweep", "--human", str(write_csv(tmp_path)), "--grid", "1/200002:1/200002:1/2"])
        assert result.exit_code == 1
        assert result.output == "Error: --grid 1/200002:1/200002:1/2 holds 100001 risk levels; at most 100000 are allowed\n"

    def test_one_point_grid_is_accepted(self, runner, tmp_path):
        """A start equal to its end is one risk level, not an empty grid."""
        assert _parse_grid("1/2:1/2:1/2") == (Fraction(1, 2),)
        result = runner.invoke(cli, ["sweep", "--human", str(write_csv(tmp_path)), "--grid", "1/2:1/2:1/2"])
        assert result.exit_code == 0
        assert [line.split(",")[:2] for line in result.output.splitlines()[1:]] == [
            ["1/2", "cognitive"], ["1/2", "private"], ["1/2", "pair"]
        ]

    def test_grid_end_past_one_is_kept_while_every_point_stays_below(self):
        assert _parse_grid("1/20:1/3:1") == (Fraction(1, 20), Fraction(23, 60), Fraction(43, 60))

    def test_grid_outside_the_unit_interval_exits_1(self, runner, tmp_path):
        result = runner.invoke(cli, ["sweep", "--human", str(write_csv(tmp_path)), "--grid", "-1000000:1/10:1/2"])
        assert result.exit_code == 1
        assert result.output == "Error: risk grid values must lie strictly in (0, 1)\n"

    SHARED_OPTIONS = ("--model", "--delta", "--event", "--player", "--state", "--human", "--out")

    @pytest.mark.parametrize("option", SHARED_OPTIONS)
    def test_shared_option_reads_the_same_in_every_help(self, option):
        records = set()
        for name, command in cli.commands.items():
            ctx = click.Context(command, info_name=name, parent=click.Context(cli, info_name="epicoord"))
            for param in command.params:
                if option in param.opts:
                    records.add(param.get_help_record(ctx))
        assert len(records) == 1, records

    def test_csv_format_rejected_where_meaningless(self, runner):
        result = runner.invoke(
            cli,
            ["--format", "csv", "pbelief", "--model", "builtin:loudspeaker",
             "--player", "0", "--state", "1,1"],
        )
        assert result.exit_code == 2


class TestCompareAndSweep:
    def test_compare_table(self, runner, tmp_path):
        result = runner.invoke(cli, ["compare", "--human", str(write_csv(tmp_path))])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].split() == ["model", "k", "private", "secondary", "tertiary", "common", "mse"]
        assert len(lines) == 5
        assert lines[1].startswith("rational")

    def test_compare_json_round_trips(self, runner, tmp_path):
        result = runner.invoke(
            cli, ["--format", "json", "compare", "--human", str(write_csv(tmp_path))]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        matched = next(m for m in payload["models"] if m["model"] == "matched")
        assert parse_rational(matched["predictions"]["private"]) == Fraction(1, 4)
        assert parse_rational(matched["predictions"]["secondary"]) == Fraction(1, 2)
        assert parse_rational(payload["delta"]) == Fraction(1, 4)

    def test_compare_csv_format(self, runner, tmp_path):
        result = runner.invoke(
            cli, ["--format", "csv", "compare", "--human", str(write_csv(tmp_path))]
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "model,level,private,secondary,tertiary,common,mse"
        assert lines[0].split(",") == ["model", "level", *experiments.CONDITION_NAMES, "mse"]
        assert len(lines) == 5

    def test_sweep_csv_round_trips(self, runner, tmp_path):
        from epicoord import human_agent_sweep, knowledge_conditions, HumanData
        from epicoord.experiments import SWEEP_STRATEGIES

        csv_path = write_csv(tmp_path)
        args = ["sweep", "--human", str(csv_path), "--grid", "1/10:2/10:9/10"]
        result = runner.invoke(cli, args)
        assert result.exit_code == 0
        # The default table format prints the same CSV as --format csv.
        assert runner.invoke(cli, ["--format", "csv", *args]).output == result.output
        lines = result.output.splitlines()
        assert lines[0] == "p_star,strategy,marginal_value"
        human = HumanData.from_csv(csv_path)
        grid = tuple(Fraction(k, 10) for k in (1, 3, 5, 7, 9))
        expected = human_agent_sweep(grid, knowledge_conditions(Fraction(1, 4)), human)
        parsed = {}
        for line in lines[1:]:
            p_star, strategy, value = line.split(",")
            parsed[(parse_rational(p_star), strategy)] = parse_rational(value)
        for strategy in SWEEP_STRATEGIES:
            for p_star, value in zip(grid, expected.values[strategy]):
                assert parsed[(p_star, strategy.value)] == value

    def test_determinism_byte_identical(self, runner, tmp_path):
        csv_path = str(write_csv(tmp_path))
        compare_runs = [
            runner.invoke(cli, ["--format", "json", "compare", "--human", csv_path]).output
            for _ in range(2)
        ]
        assert compare_runs[0] == compare_runs[1]
        sweep_runs = [
            runner.invoke(cli, ["sweep", "--human", csv_path]).output for _ in range(2)
        ]
        assert sweep_runs[0] == sweep_runs[1]

    def test_out_writes_file_and_nothing_without_it(self, runner):
        with runner.isolated_filesystem():
            Path("human.csv").write_text(SYNTHETIC_CSV)
            before = set(os.listdir("."))
            result = runner.invoke(cli, ["sweep", "--human", "human.csv"])
            assert result.exit_code == 0
            assert set(os.listdir(".")) == before
            result = runner.invoke(
                cli, ["sweep", "--human", "human.csv", "--out", "sweep.csv"]
            )
            assert result.exit_code == 0
            assert result.output == ""
            assert Path("sweep.csv").read_text().startswith("p_star,strategy,marginal_value")


class TestFuzzCommand:
    def test_small_run_passes(self, runner):
        result = runner.invoke(cli, ["fuzz", "--seeds", "5", "--states", "6"])
        assert result.exit_code == 0
        assert "matches the oracle" in result.output

    def test_zero_states_rejected(self, runner):
        result = runner.invoke(cli, ["fuzz", "--seeds", "1", "--states", "0"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("seeds,states", [(1, 13), (3, 40), (1, 64)])
    def test_fixedpoint_oracle_answers_above_twelve_states(self, runner, monkeypatch, seeds, states):
        def refuse(*args):
            raise AssertionError("the exhaustive oracle ran")

        monkeypatch.setattr(oracle, "brute_force_common_p_belief", refuse)
        result = runner.invoke(cli, ["fuzz", "--seeds", str(seeds), "--states", str(states)])
        assert result.exit_code == 0, result.output
        assert f"{seeds} seeds x {states} states: engine matches the oracle exactly" in result.output

    def test_exhaustive_oracle_answers_at_twelve_states(self, runner, monkeypatch):
        calls = []
        exhaustive = oracle.brute_force_common_p_belief

        def counted(*args):
            calls.append(args)
            return exhaustive(*args)

        monkeypatch.setattr(oracle, "brute_force_common_p_belief", counted)
        result = runner.invoke(cli, ["fuzz", "--seeds", "1", "--states", "12"])
        assert result.exit_code == 0
        assert len(calls) == 2 * 12

    @pytest.mark.parametrize(
        "states,reference",
        [(6, oracle.brute_force_common_p_belief), (20, oracle.fixedpoint_common_p_belief)],
        ids=["exhaustive", "fixedpoint"],
    )
    def test_disagreement_dumps_the_first_counterexample(self, runner, monkeypatch, states, reference):
        monkeypatch.setattr(epistemic, "common_p_belief", lambda *args: Fraction(2))
        result = runner.invoke(cli, ["fuzz", "--seeds", "3", "--states", str(states)])
        assert result.exit_code == 1
        assert "engine matches" not in result.output
        dump = json.loads(result.output)
        structure, target = oracle.random_structure(oracle.RandomStructureConfig(seed=0, num_states=states))
        assert dump == {
            **oracle.structure_to_json(structure, target),
            "seed": 0,
            "player": 0,
            "state": 0,
            "expected": format_rational(reference(structure, target, 0, 0)),
            "actual": "2/1",
        }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_machine_formats_rejected_before_any_seed(self, runner, monkeypatch, fmt):
        def no_seed(config):
            raise AssertionError("a seed ran")

        monkeypatch.setattr(oracle, "random_structure", no_seed)
        result = runner.invoke(cli, ["--format", fmt, "fuzz", "--seeds", "2", "--states", "4"])
        assert result.exit_code == 2
        assert f"--format {fmt} is not available here" in result.output


GOLDEN_PAYOFFS = ("1.1,0,1,0.4", "1,0,1/5,0", "1,0,3/5,1/2")


def _golden_invocations(group: str, csv_path: str) -> list[list[str]]:
    """The argument lists, in order, whose joined --format json output one digest covers."""
    messenger_states = [
        ",".join(map(str, state))
        for state in from_world_model(builtin_messenger(Fraction(1, 4))).space.states
    ]
    at_every_state = [
        ["--model", "builtin:messenger", "--player", str(player), "--state", state]
        for player in (0, 1)
        for state in messenger_states
    ]
    if group == "ladder":
        return [["ladder", "--model", model] for model in ("builtin:messenger", "builtin:loudspeaker")]
    if group == "pbelief":
        loudspeaker_at_every_state = [
            ["--model", "builtin:loudspeaker", "--player", str(player), "--state", state]
            for player in (0, 1)
            for state in ("0,0", "0,1", "1,0", "1,1")
        ]
        return [["pbelief", *where] for where in at_every_state + loudspeaker_at_every_state]
    if group == "itermax":
        return [
            ["act", "--strategy", "itermax", "--k", str(k), "--payoffs", payoffs, *where]
            for k in range(4)
            for payoffs in GOLDEN_PAYOFFS
            for where in at_every_state
        ]
    if group == "itermatch":
        return [
            ["act", "--strategy", "itermatch", "--k", str(k), *where]
            for k in range(4)
            for where in at_every_state
        ]
    if group == "cognitive":
        return [
            ["act", "--strategy", "cognitive", "--payoffs", payoffs, *where]
            for payoffs in GOLDEN_PAYOFFS
            for where in at_every_state
        ]
    if group == "rational":
        return [
            ["act", "--strategy", "rational", "--payoffs", payoffs, *where]
            for payoffs in GOLDEN_PAYOFFS
            for where in at_every_state
        ]
    if group in ("matched", "private", "pair"):
        return [["act", "--strategy", group, *where] for where in at_every_state]
    if group == "verify":
        return [
            ["verify", "--model", "builtin:messenger", "--payoffs", payoffs]
            for payoffs in GOLDEN_PAYOFFS
        ]
    return [[group, "--human", csv_path]]


# sha256 prefixes of the joined output, captured before belief arithmetic
# moved onto InformationStructure (the rational, matched, private and pair
# groups before `act` went through `experiments.play`); machine formats must
# not change.
GOLDEN_DIGESTS = {
    "ladder": "7b3798fb338a7a1f",
    "pbelief": "6e8bf81d1d3e45f4",
    "itermax": "68998ada6429abb0",
    "itermatch": "4d712525c658d8a7",
    "cognitive": "9d39baba57fbcc81",
    "rational": "071b830aee0c00b5",
    "matched": "b8b8240fcb8b83d0",
    "private": "5e10a627cff99bbb",
    "pair": "0a8b5d8bcfdcc993",
    "verify": "45ff54a765ee80b5",
    "compare": "8e7925a0e2770fe6",
    "sweep": "120769fdb74bc043",
}


class TestGoldenJson:
    @pytest.mark.parametrize("group", sorted(GOLDEN_DIGESTS))
    def test_json_output_is_byte_identical(self, runner, tmp_path, group):
        csv_path = str(write_csv(tmp_path))
        outputs = []
        for args in _golden_invocations(group, csv_path):
            result = runner.invoke(cli, ["--format", "json", *args])
            assert result.exit_code == 0, (args, result.output)
            outputs.append(result.output)
        digest = hashlib.sha256("".join(outputs).encode()).hexdigest()[:16]
        assert digest == GOLDEN_DIGESTS[group]


def _text_invocations(group: str, csv_path: str) -> list[list[str]]:
    """The argument lists, in order, whose exit codes and stdout one text digest covers."""
    messenger_states = [
        ",".join(map(str, state))
        for state in from_world_model(builtin_messenger(Fraction(1, 4))).space.states
    ]
    at_every_state = [
        ["--model", model, "--player", str(player), "--state", state]
        for model, states in (
            ("builtin:messenger", messenger_states),
            ("builtin:loudspeaker", ("0,0", "0,1", "1,0", "1,1")),
        )
        for player in (0, 1)
        for state in states
    ]
    builtins = ("builtin:messenger", "builtin:loudspeaker")
    if group == "partition":
        return [
            ["--format", fmt, "partition", "--model", model, "--player", str(player)]
            for fmt in ("table", "json")
            for model in builtins
            for player in (0, 1)
        ]
    if group == "pbelief":
        return [["pbelief", "--event", event, *where] for event in ("x=1", "x=0") for where in at_every_state]
    if group == "ladder":
        return [["ladder", "--model", model, "--event", event] for model in builtins for event in ("x=1", "x=0")]
    if group == "act":
        settings = {
            "rational": [["--payoffs", "1,0,3/5,1/2"]],
            "itermax": [["--k", k, "--payoffs", "1,0,3/5,1/2"] for k in ("0", "2")],
            "itermatch": [["--k", k] for k in ("0", "2")],
            "cognitive": [["--payoffs", "1,0,3/5,1/2"]],
        }
        return [
            ["act", "--strategy", strategy, *setting, *where]
            for strategy in ("rational", "matched", "itermax", "itermatch", "cognitive", "private", "pair")
            for setting in settings.get(strategy, [[]])
            for where in at_every_state
        ]
    if group == "verify":
        return [
            ["verify", "--model", model, "--delta", delta, "--payoffs", payoffs]
            for model in builtins
            for delta in ("1/4", "19/20")
            for payoffs in GOLDEN_PAYOFFS
        ]
    human = ["--human", csv_path]
    if group == "compare":
        return [
            ["--format", fmt, "compare", *human, *extra]
            for fmt in ("table", "csv")
            for extra in ([], ["--delta", "3/5", "--payoffs", "1,0,3/5,1/2"])
        ]
    if group == "sweep":
        return [
            ["--format", fmt, "sweep", *human, *extra]
            for fmt in ("table", "csv")
            for extra in ([], ["--grid", "1/7:1/9:6/7"])
        ]
    messenger = ["--model", "builtin:messenger", "--player", "0", "--state", "1,1,0,1,0"]
    return [
        ["pbelief", "--model", "builtin:nowhere", "--player", "0", "--state", "1,1"],
        ["ladder", "--model", "missing.json"],
        ["ladder", "--model", csv_path],
        ["pbelief", "--event", "y=1", *messenger],
        ["pbelief", "--model", "builtin:messenger", "--player", "0", "--state", "1,2"],
        ["pbelief", "--model", "builtin:messenger", "--player", "0", "--state", "0,0,0,0,1"],
        ["act", "--strategy", "itermax", *messenger],
        ["act", "--strategy", "rational", "--payoffs", "1,0,2,0", *messenger],
        ["verify", "--model", "builtin:messenger", "--payoffs", "1,0"],
        ["--format", "csv", "ladder", "--model", "builtin:messenger"],
        ["--format", "json", "compare", "--human", csv_path + ".missing"],
        ["compare", "--human", csv_path, "--out", "no/such.csv"],
    ]


# sha256 prefixes of each run's exit code, stdout and stderr, joined, captured
# before every command shared one model loader and one printer: the table and
# CSV bytes, partition's JSON and the refusals must not change.
TEXT_DIGESTS = {
    "partition": "56c4615085c810e4",
    "pbelief": "bca518eba8a3cdc7",
    "ladder": "595034c5f2a1f3b5",
    "act": "150ffa42f5142aff",
    "verify": "cfbfc776a5e56bd7",
    "compare": "6de1a0e9adfbb0e2",
    "sweep": "776a79a98f2ba618",
    "refusals": "38e1dcdd4a81e8c5",
}


def _runs_digest(results) -> str:
    return hashlib.sha256("".join(f"{r.exit_code}\n{r.stdout}\n{r.stderr}" for r in results).encode()).hexdigest()[:16]


class TestGoldenText:
    @pytest.mark.parametrize("group", sorted(TEXT_DIGESTS))
    def test_text_output_is_byte_identical(self, runner, tmp_path, monkeypatch, group):
        # Relative paths, so that no refusal names the temporary directory.
        monkeypatch.chdir(tmp_path)
        write_csv(tmp_path)
        results = [runner.invoke(cli, args) for args in _text_invocations(group, "human.csv")]
        assert _runs_digest(results) == TEXT_DIGESTS[group]

    def test_verify_fail_is_byte_identical(self, runner, monkeypatch):
        violations = (
            Violation(0, 2, (1, 0, 0, 0, 0), Action.B, Fraction(3, 20)),
            Violation(1, 3, (1, 1, 0, 1, 0), Action.A, Fraction(1, 8)),
        )
        monkeypatch.setattr(game, "verify_equilibrium", lambda instance: EquilibriumReport(True, None, violations))
        results = [
            runner.invoke(cli, ["--format", fmt, "verify", "--model", "builtin:messenger", "--payoffs", "1.1,0,1,0.4"])
            for fmt in ("table", "json")
        ]
        assert [r.exit_code for r in results] == [1, 1]
        assert _runs_digest(results) == "7a7e010589bfb830"

    def test_out_file_bytes_are_byte_identical(self, runner, tmp_path):
        csv_path = str(write_csv(tmp_path))
        written = []
        for command in ("compare", "sweep"):
            for fmt in ("table", "json", "csv"):
                out = tmp_path / f"{command}-{fmt}.out"
                result = runner.invoke(cli, ["--format", fmt, command, "--human", csv_path, "--out", str(out)])
                assert (result.exit_code, result.stdout) == (0, "")
                written.append(out.read_bytes())
        assert hashlib.sha256(b"".join(written)).hexdigest()[:16] == "61b0b2d76fa5888c"
