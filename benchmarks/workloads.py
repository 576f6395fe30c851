"""The three workloads: their seeded input pools, one op each, and output checks.

Every call into the package goes through `t.call(name, fn, *args)`, so the
traced run can time each layer from outside; the untraced run passes a
tracer that calls straight through.  Checks run after the timed loop.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import inputs

PAYOFFS_TEXT = "1.1,0,1,0.4"
LEVELS = range(6)
# Messenger ladder and matched predictions at delta = 1/4 (acceptance criterion 3).
CRITERION_3_LADDER = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))
CRITERION_3_MATCHED = {
    "private": Fraction(1, 4),
    "secondary": Fraction(1, 2),
    "tertiary": Fraction(1, 2),
    "common": Fraction(1),
}


def _fr(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def ladder_problems(ladder, structure) -> list[str]:
    """Rung 0 is the whole space, rungs shrink strictly and levels rise strictly."""
    problems = []
    rungs = ladder.rungs
    if not rungs or rungs[0].event != structure.universe():
        problems.append("rung 0 is not the whole space")
    for earlier, later in zip(rungs, rungs[1:]):
        if not later.event < earlier.event:
            problems.append("rungs are not strictly nested")
        if not later.level > earlier.level:
            problems.append("rung levels do not strictly increase")
    return problems


def rung_problems(ep, ladder, structure, target) -> list[str]:
    """Each rung is p-evident and target-indicating at its own level."""
    return [
        f"rung {index} fails its level {_fr(rung.level)}"
        for index, rung in enumerate(ladder.rungs)
        if not (
            ep.is_p_evident(structure, rung.event, rung.level)
            and ep.is_c_indicating(structure, rung.event, target, rung.level)
        )
    ]


class Workload:
    """A pool of seeded inputs, generated at construction, consumed in order."""

    name = ""
    tail_percentile = 50.0
    # The traced run reports per-layer totals over this many first ops: a
    # fixed set, so every count repeats exactly; sized to take about 25 s
    # on 2 cores with Python 3.11.
    trace_ops = 1

    def __init__(self, ep, seed: int, workdir: str) -> None:
        self.ep = ep
        self.rng = random.Random(seed)
        self.pool: list = []

    def __len__(self) -> int:
        return len(self.pool)

    def op(self, index: int, t):
        raise NotImplementedError

    def check(self, results: dict, rng: random.Random) -> dict[int, list[str]]:
        """Problems per op index; an op with any problem counts as failed."""
        raise NotImplementedError

    def answers(self, index: int, result) -> list[str]:
        """Every exact answer of one op, rendered as p/q, for the digest."""
        raise NotImplementedError

    def counts(self, index: int, result) -> dict[str, int]:
        """Work counts computed from the op's inputs and outputs."""
        raise NotImplementedError


class LadderLarge(Workload):
    """Random structures of 64, 128 and 192 states: the ladder, then a cached
    query at every (player, state)."""

    name = "ladder-large"
    tail_percentile = 72.0
    trace_ops = 40
    POOL = 200
    # Sizes in rotation: the median falls in the middle of the 128-state ops
    # and p72 among the 192-state ones, away from any boundary between sizes.
    # (256-state ops would leave fewer than 10 ops beyond p67 in a run.)
    SIZES = (64, 128, 192)
    RUNG_CHECK_OPS = 4
    ORACLE_CHECK_QUERIES = 4

    def __init__(self, ep, seed, workdir):
        super().__init__(ep, seed, workdir)
        self.pool = [
            inputs.large_structure(ep, self.rng, self.SIZES[i % len(self.SIZES)]) for i in range(self.POOL)
        ]

    def op(self, index, t):
        ep = self.ep
        structure, target = self.pool[index]
        ladder = t.call("epistemic.evident_ladder", ep.evident_ladder, structure, target)
        beliefs = [
            t.call("epistemic.common_p_belief", ep.common_p_belief, structure, target, player, state)
            for player in (0, 1)
            for state in range(len(structure))
        ]
        return ladder, beliefs

    def check(self, results, rng):
        ep = self.ep
        problems: dict[int, list[str]] = {}
        for index, (ladder, beliefs) in results.items():
            structure, _ = self.pool[index]
            found = ladder_problems(ladder, structure)
            levels = set(ladder.levels)
            if any(belief not in levels for belief in beliefs):
                found.append("a query answer is not a rung level")
            problems[index] = found
        done = sorted(results)
        for index in rng.sample(done, min(self.RUNG_CHECK_OPS, len(done))):
            structure, target = self.pool[index]
            problems[index] += rung_problems(ep, results[index][0], structure, target)
        for index in rng.sample(done, min(self.ORACLE_CHECK_QUERIES, len(done))):
            structure, target = self.pool[index]
            n = len(structure)
            query = rng.randrange(2 * n)
            player, state = divmod(query, n)
            expected = ep.fixedpoint_common_p_belief(structure, target, player, state)
            if results[index][1][query] != expected:
                problems[index].append(f"query ({player}, {state}) differs from the fixed-point oracle")
        return problems

    def answers(self, index, result):
        ladder, beliefs = result
        return [" ".join(map(_fr, ladder.levels)), " ".join(map(_fr, beliefs))]

    def counts(self, index, result):
        structure, _ = self.pool[index]
        return {
            "epistemic.rungs": len(result[0]),
            "epistemic.blocks": sum(len(p.blocks) for p in structure.partitions),
        }


class FuzzOracle(Workload):
    """`oracle.random_structure` seeds of 8-11 states: engine vs. exhaustive oracle."""

    name = "fuzz-oracle"
    tail_percentile = 93.0
    trace_ops = 168
    POOL = 1000
    # Weights 2:2:2:1 keep the median inside the 9-state ops and p93 inside
    # the 11-state ones, so neither sits on a boundary between sizes.
    SIZES = (8, 9, 10, 8, 9, 10, 11)

    def __init__(self, ep, seed, workdir):
        super().__init__(ep, seed, workdir)
        self.pool = [
            ep.random_structure(
                ep.RandomStructureConfig(
                    seed=self.rng.getrandbits(32), num_states=self.SIZES[i % len(self.SIZES)]
                )
            )
            for i in range(self.POOL)
        ]

    def op(self, index, t):
        ep = self.ep
        structure, target = self.pool[index]
        ladder = t.call("epistemic.evident_ladder", ep.evident_ladder, structure, target)
        expected, actual = [], []
        for player in (0, 1):
            for state in range(len(structure)):
                expected.append(
                    t.call(
                        "oracle.brute_force_common_p_belief",
                        ep.brute_force_common_p_belief, structure, target, player, state,
                    )
                )
                actual.append(
                    t.call("epistemic.common_p_belief", ep.common_p_belief, structure, target, player, state)
                )
        return ladder, expected, actual

    def check(self, results, rng):
        problems = {}
        for index, (ladder, expected, actual) in results.items():
            found = ladder_problems(ladder, self.pool[index][0])
            if expected != actual:
                found.append("engine differs from the brute-force oracle")
            problems[index] = found
        return problems

    def answers(self, index, result):
        ladder, expected, actual = result
        return [" ".join(map(_fr, ladder.levels)), " ".join(map(_fr, expected)), " ".join(map(_fr, actual))]

    def counts(self, index, result):
        structure, _ = self.pool[index]
        n = len(structure)
        return {
            "epistemic.rungs": len(result[0]),
            "epistemic.blocks": sum(len(p.blocks) for p in structure.partitions),
            "oracle.events_scanned": 2 * n * ((1 << n) - 1),
        }


@dataclass
class ModelResult:
    spec: object
    structure: object
    target: frozenset
    ladder: object
    values: list
    report: object


@dataclass
class ExperimentResult:
    delta: Fraction
    fits: list
    sweep: object
    cli_compare: str
    cli_sweep: str


class ModelPipeline(Workload):
    """Seeded world models through the whole stack, in a fixed a, b, c, b rotation:
    (a) e-mail-game chains, (b) random gated specs, (c) the builtins with human data."""

    name = "model-pipeline"
    tail_percentile = 80.0
    trace_ops = 52
    POOL = 320
    ROTATION = "abcb"
    # One chain length: the chains are the slowest quarter of the ops, so
    # the tail percentile sits among them rather than on a boundary between
    # lengths, and enumeration cost does not depend on the seed.
    CHAIN_VARIABLES = 16
    SPEC_VARIABLES = 8
    SPEC_STATES = (30, 80)
    ORACLE_QUERIES_PER_CHAIN = 2
    RUNG_CHECK_SPECS = 3

    def __init__(self, ep, seed, workdir):
        super().__init__(ep, seed, workdir)
        from click.testing import CliRunner

        import epicoord.cli

        self.cli = epicoord.cli.cli
        self.runner = CliRunner()
        self.payoffs = ep.PayoffParams.parse(PAYOFFS_TEXT)
        rng = self.rng
        families = [self.ROTATION[i % len(self.ROTATION)] for i in range(self.POOL)]

        chains = []
        seen: set = set()
        while len(chains) < families.count("a"):
            params = (Fraction(rng.randint(5, 60), 100), Fraction(rng.randint(2, 30), 100))
            if params not in seen:
                seen.add(params)
                chains.append(inputs.email_chain(ep, self.CHAIN_VARIABLES, *params))

        # Sorted by reachable-state count, then dealt out so that every prefix
        # of the run spans the whole size range: each run sees the same mix.
        specs = sorted(
            (inputs.random_gated_spec(ep, rng, self.SPEC_VARIABLES, *self.SPEC_STATES)
             for _ in range(families.count("b"))),
            key=inputs.reachable_count,
        )
        specs = [specs[rank] for rank in inputs.spread_order(len(specs))]

        experiments = []
        deltas = [Fraction(1, 4)] + [
            Fraction(k, 1000)
            for k in rng.sample([k for k in range(50, 601) if k != 250], families.count("c") - 1)
        ]
        for number, delta in enumerate(deltas):
            human, text = inputs.synthetic_human(ep, rng)
            path = os.path.join(workdir, f"human-{number}.csv")
            with open(path, "w") as handle:
                handle.write(text)
            experiments.append((delta, human, path))

        sources = {"a": iter(chains), "b": iter(specs), "c": iter(experiments)}
        self.pool = [(family, next(sources[family])) for family in families]

    def op(self, index, t):
        family, payload = self.pool[index]
        if family == "c":
            return self._experiments(t, *payload)
        return self._model(t, payload)

    def _model(self, t, spec):
        ep = self.ep
        space = t.call("worldmodel.enumerate_states", ep.enumerate_states, spec)
        partitions = tuple(
            t.call("worldmodel.build_information_partition", ep.build_information_partition, spec, space, player)
            for player in (0, 1)
        )
        structure = ep.InformationStructure(space, partitions)
        target = ep.x_event(spec, space)
        ladder = t.call("epistemic.evident_ladder", ep.evident_ladder, structure, target)
        payoffs = self.payoffs
        values = []
        for player in (0, 1):
            for block in partitions[player].blocks:
                state = min(block)
                for level in LEVELS:
                    values.append(
                        t.call(
                            "strategies.iterated_maximization_prob",
                            ep.iterated_maximization_prob, structure, target, payoffs, level, player, state,
                        )
                    )
                    values.append(
                        t.call(
                            "strategies.iterated_matching",
                            ep.iterated_matching, structure, target, level, player, state,
                        )
                    )
                values.append(
                    t.call(
                        "strategies.cognitive_strategy",
                        ep.cognitive_strategy, structure, target, payoffs, player, state,
                    )
                )
                values.append(
                    t.call("strategies.pair_heuristic", ep.pair_heuristic, structure, target, player, state)
                )
        game = ep.GameInstance(structure, payoffs, target)
        report = t.call("game.verify_equilibrium", ep.verify_equilibrium, game)
        return ModelResult(spec, structure, target, ladder, values, report)

    def _invoke(self, args):
        outcome = self.runner.invoke(self.cli, args)
        if outcome.exit_code != 0:
            raise RuntimeError(f"epicoord {' '.join(args)} exited {outcome.exit_code}: {outcome.output}")
        return outcome.output

    def _experiments(self, t, delta, human, path):
        ep = self.ep
        conditions = ep.knowledge_conditions(delta)
        fits = t.call("experiments.compare_models", ep.compare_models, conditions, self.payoffs, human)
        sweep = t.call(
            "experiments.human_agent_sweep", ep.human_agent_sweep, ep.default_risk_grid(), conditions, human
        )
        common = ["--format", "json"]
        options = ["--human", path, "--delta", _fr(delta)]
        cli_compare = t.call("cli.compare", self._invoke, [*common, "compare", *options, "--payoffs", PAYOFFS_TEXT])
        cli_sweep = t.call("cli.sweep", self._invoke, [*common, "sweep", *options])
        return ExperimentResult(delta, fits, sweep, cli_compare, cli_sweep)

    def _expected_compare(self, result):
        payoffs = self.payoffs
        return {
            "delta": _fr(result.delta),
            "payoffs": {k: _fr(getattr(payoffs, k)) for k in ("a", "b", "c", "d")},
            "models": [
                {
                    "model": fit.kind.value,
                    "level": fit.level,
                    "predictions": {name: _fr(fit.table.probs[name]) for name in inputs.CONDITIONS},
                    "mse": _fr(fit.error),
                }
                for fit in result.fits
            ],
        }

    @staticmethod
    def _expected_sweep(sweep):
        return {
            "grid": [_fr(p) for p in sweep.grid],
            "values": {s.value: [_fr(v) for v in values] for s, values in sweep.values.items()},
        }

    def _check_experiments(self, result) -> list[str]:
        ep = self.ep
        found = []
        if json.loads(result.cli_compare) != self._expected_compare(result):
            found.append("cli compare output differs from compare_models")
        if json.loads(result.cli_sweep) != self._expected_sweep(result.sweep):
            found.append("cli sweep output differs from human_agent_sweep")
        matched = next(fit for fit in result.fits if fit.kind is ep.ModelKind.MATCHED).table.probs
        for condition in ep.knowledge_conditions(result.delta):
            expected = ep.fixedpoint_common_p_belief(
                condition.structure(), condition.target(), condition.participant, condition.state_index()
            )
            if matched[condition.name] != expected:
                found.append(f"matched {condition.name} differs from the fixed-point oracle")
        if result.delta == Fraction(1, 4):
            private = ep.knowledge_conditions(result.delta)[0]
            if ep.evident_ladder(private.structure(), private.target()).levels != CRITERION_3_LADDER:
                found.append("messenger ladder at delta=1/4 is not (0, 1/4, 1/2, 1)")
            if matched != CRITERION_3_MATCHED:
                found.append("matched values at delta=1/4 differ from (1/4, 1/2, 1/2, 1)")
        return found

    def _check_model(self, result) -> list[str]:
        found = ladder_problems(result.ladder, result.structure)
        report = result.report
        if report.applicable and not report.passed:
            found.append(f"verify_equilibrium found {len(report.violations)} violations")
        for value in result.values:
            if isinstance(value, Fraction) and not 0 <= value <= 1:
                found.append(f"strategy probability {value} outside [0, 1]")
        return found

    def check(self, results, rng):
        ep = self.ep
        problems = {}
        specs = []
        for index, result in results.items():
            family = self.pool[index][0]
            if family == "c":
                problems[index] = self._check_experiments(result)
                continue
            problems[index] = self._check_model(result)
            if family == "b":
                specs.append(index)
                continue
            n = len(result.structure)
            beliefs = {}
            for query in rng.sample(range(2 * n), self.ORACLE_QUERIES_PER_CHAIN):
                player, state = divmod(query, n)
                beliefs[query] = ep.fixedpoint_common_p_belief(result.structure, result.target, player, state)
                if ep.common_p_belief(result.structure, result.target, player, state) != beliefs[query]:
                    problems[index].append(f"query ({player}, {state}) differs from the fixed-point oracle")
        for index in rng.sample(specs, min(self.RUNG_CHECK_SPECS, len(specs))):
            result = results[index]
            problems[index] += rung_problems(ep, result.ladder, result.structure, result.target)
        return problems

    def answers(self, index, result):
        if isinstance(result, ExperimentResult):
            lines = [
                f"{fit.kind.value} {fit.level} {_fr(fit.error)} "
                + " ".join(_fr(fit.table.probs[name]) for name in inputs.CONDITIONS)
                for fit in result.fits
            ]
            lines += [" ".join(map(_fr, values)) for values in result.sweep.values.values()]
            return lines + [result.cli_compare, result.cli_sweep]
        rendered = [v.value if isinstance(v, self.ep.Action) else _fr(v) for v in result.values]
        return [
            " ".join(map(_fr, result.ladder.levels)),
            " ".join(rendered),
            verify_status(result.report),
        ]

    def counts(self, index, result):
        if isinstance(result, ExperimentResult):
            return {}
        status = verify_status(result.report)
        return {
            "worldmodel.assignments_tried": 1 << len(result.spec.variables),
            "worldmodel.states_kept": len(result.structure),
            "epistemic.rungs": len(result.ladder),
            "epistemic.blocks": sum(len(p.blocks) for p in result.structure.partitions),
            "game.verify.pass": int(status == "pass"),
            "game.verify.fail": int(status == "fail"),
            "game.verify.na": int(status == "na"),
        }


def verify_status(report) -> str:
    if not report.applicable:
        return "na"
    return "pass" if report.passed else "fail"


WORKLOADS = {cls.name: cls for cls in (LadderLarge, FuzzOracle, ModelPipeline)}
