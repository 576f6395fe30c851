"""Check that the tests kill a checked-in list of mutants.

A mutant is a small deliberate bug: a file, an exact old text that occurs in
it exactly once, and the new text that replaces it.  For each mutant the
script copies `src/`, `tests/` and `pyproject.toml` to a temporary directory,
applies the mutant there and runs tier-1 with `-x` under a timeout; a failure
or a timeout kills it.  A mutant that passes tier-1 then meets the fuzz lines
of `tools/fuzz-lines`, which CI runs too.  A mutant that passes both survives.

Every command runs with `PYTHONPATH=<copy>/src` as `python -m pytest` or
`python -m epicoord`, so the copy is what runs even where the package is
installed in editable mode.  The unmutated copy runs first and must pass.

    python tools/mutants.py
    python tools/mutants.py --fuzz-only

The last line gives the count and the whole run's wall time, unmutated copy
included: `N of N mutants killed in M min S s`.  Exit status 0 when every
mutant is killed; 1 when one survives, an old text does not occur exactly
once, or the unmutated copy fails.

`--fuzz-only` skips tier-1 and runs only the fuzz lines, on the unmutated
copy and on each mutant, to show what the fuzz lines catch on their own; its
last line reads `N of N mutants killed by the fuzz lines alone in M min S s`.
A survivor there is the gap it reports, not a failure: the exit status is 1
only when an old text does not occur exactly once or the unmutated copy fails.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1_TIMEOUT = 120


def _fuzz_lines() -> list[tuple[tuple[str, ...], int]]:
    """(arguments of `epicoord fuzz`, timeout in seconds) for each line of
    `tools/fuzz-lines`, the one list that the CI job runs too."""
    lines = []
    for line in (ROOT / "tools" / "fuzz-lines").read_text().splitlines():
        if line and not line.startswith("#"):
            timeout, *args = line.split()
            lines.append((tuple(args), int(timeout)))
    return lines


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str


MUTANTS = (
    Mutant(
        "_plays_a plays A on a tie",
        "src/epicoord/game.py",
        "return self._gain(on, off, total) > 0",
        "return self._gain(on, off, total) >= 0",
    ),
    Mutant(
        "on- and off-target weights swapped in _gain",
        "src/epicoord/game.py",
        "return (a - b) * on + (d - b) * off - (c - b) * total",
        "return (a - b) * off + (d - b) * on - (c - b) * total",
    ),
    Mutant(
        "on- and off-target sums swapped in _a_weights",
        "src/epicoord/game.py",
        "return on, off, structure._totals[block] * scale",
        "return off, on, structure._totals[block] * scale",
    ),
    Mutant(
        "on- and off-target weights swapped in the _Levels step",
        "src/epicoord/game.py",
        "plays(t * s, (w - t) * s, w * w)",
        "plays((w - t) * s, t * s, w * w)",
    ),
    Mutant(
        "the _Levels step weighs the block's total by W_B, not W_B^2",
        "src/epicoord/game.py",
        "plays(t * s, (w - t) * s, w * w)",
        "plays(t * s, (w - t) * s, w)",
    ),
    Mutant(
        "the maximization step sums the weights of companions that play B",
        "src/epicoord/game.py",
        "sums = [sum([w for b, w in meets if numerators[b]]) for meets in self.overlaps]",
        "sums = [sum([w for b, w in meets if not numerators[b]]) for meets in self.overlaps]",
    ),
    Mutant(
        "the level read's inline check accepts a bool player",
        "src/epicoord/game.py",
        "inline = type(level) is int and type(player) is int and type(state) is int and (",
        "inline = type(level) is int and isinstance(player, int) and type(state) is int and (",
    ),
    Mutant(
        "the level read steps before it checks the index",
        "src/epicoord/game.py",
        "    block = rows[player][state] if inline else structure._block_id(player, state)\n"
        "    numerators, denominator = levels.kept.get(level) or levels.step_to(level)\n",
        "    numerators, denominator = levels.kept.get(level) or levels.step_to(level)\n"
        "    block = rows[player][state] if inline else structure._block_id(player, state)\n",
    ),
    Mutant(
        "the level read's inline check lets state == n through",
        "src/epicoord/game.py",
        "level >= 0 and player in (0, 1) and 0 <= state < len(rows[0])",
        "level >= 0 and player in (0, 1) and 0 <= state <= len(rows[0])",
    ),
    Mutant(
        "_Levels grounds itermatch at 1 for every block",
        "src/epicoord/game.py",
        "self.kept = {0: ([m * w for m, w in zip(self.scale, self.totals)], self.lcm)}",
        "self.kept = {0: ([self.lcm] * len(self.totals), self.lcm)}",
    ),
    Mutant(
        "the level table is keyed without the payoffs",
        "src/epicoord/game.py",
        "key = None if payoffs is None else payoffs._integers",
        "key = None",
    ),
    Mutant(
        "the matching scale reads t_B / W_B, not t_B / W_B^2",
        "src/epicoord/game.py",
        "Fraction(t, w * w)",
        "Fraction(t, w)",
    ),
    Mutant(
        "noiseless_check counts a belief equal to the prior as noisy",
        "src/epicoord/game.py",
        "on * prior.denominator > prior.numerator * total",
        "on * prior.denominator >= prior.numerator * total",
    ),
    Mutant(
        "GameInstance skips its target check",
        "src/epicoord/game.py",
        'object.__setattr__(self, "target", self.structure._event(self.target, "target event"))',
        'object.__setattr__(self, "target", frozenset(self.target))',
    ),
    Mutant(
        "_violations counts a zero gain as a violation",
        "src/epicoord/game.py",
        "if gain * (own.denominator - 2 * own.numerator) > 0:",
        "if gain * (own.denominator - 2 * own.numerator) >= 0:",
    ),
    Mutant(
        "_overlaps groups by the own row of _block_ids",
        "src/epicoord/epistemic.py",
        "zip(self.partitions, self._block_ids[::-1])",
        "zip(self.partitions, self._block_ids)",
    ),
    Mutant(
        "_block_weights credits each state to the first row's block only",
        "src/epicoord/epistemic.py",
        "table[second[state]] += weight",
        "pass",
    ),
    Mutant(
        "one memo shared by every structure, keyed on the target alone",
        "src/epicoord/epistemic.py",
        "(`evident_ladder`).\"\"\"\n        return {}\n",
        "(`evident_ladder`).\"\"\"\n        return evident_ladder.__dict__.setdefault(\"shared\", {})\n",
    ),
    Mutant(
        "evident_ladder skips the target check on a miss",
        "src/epicoord/epistemic.py",
        '_build_ladder(structure, structure._event(target, "target event"))',
        "_build_ladder(structure, target)",
    ),
    Mutant(
        "_remember never drops the oldest entry at its bound",
        "src/epicoord/epistemic.py",
        "del memo[next(iter(memo))]",
        "pass",
    ),
    Mutant(
        "_entry lets a negative state wrap to the end of the row",
        "src/epicoord/epistemic.py",
        "if type(state) is not int or not 0 <= state < len(rows[0]):",
        "if type(state) is not int or not state < len(rows[0]):",
    ),
    Mutant(
        "_entry takes a float state",
        "src/epicoord/epistemic.py",
        "if type(state) is not int or not 0 <= state < len(rows[0]):",
        "if not 0 <= state < len(rows[0]):",
    ),
    Mutant(
        "_entry takes a bool for a player",
        "src/epicoord/epistemic.py",
        "if type(player) is not int or player not in (0, 1):",
        "if player not in (0, 1):",
    ),
    Mutant(
        "common_p_belief's inline check takes a bool for a player or a state",
        "src/epicoord/epistemic.py",
        "if type(player) is int and type(state) is int and player in (0, 1)",
        "if player in (0, 1)",
    ),
    Mutant(
        "_build_ladder keeps a companion block at the level",
        "src/epicoord/epistemic.py",
        "elif surviving[other] * low_total <= low * total[other]:",
        "elif surviving[other] * low_total < low * total[other]:",
    ),
    Mutant(
        "super_p_evident keeps a member at the level",
        "src/epicoord/oracle.py",
        "if _weakest(structure, weights, event, target, state) <= level}",
        "if _weakest(structure, weights, event, target, state) < level}",
    ),
    Mutant(
        "evidence_level takes the max of _weakest over the event",
        "src/epicoord/oracle.py",
        "return min(_weakest(structure, weights, event, target, state) for state in event)",
        "return max(_weakest(structure, weights, event, target, state) for state in event)",
    ),
    Mutant(
        "the reference's _weakest reads player 0's block for both players",
        "src/epicoord/oracle.py",
        "blocks = _block_at(structure, 0, state), _block_at(structure, 1, state)",
        "blocks = _block_at(structure, 0, state), _block_at(structure, 0, state)",
    ),
    Mutant(
        "the fixed-point reference reads the block before the target",
        "src/epicoord/oracle.py",
        "    answers = _fixedpoint_answers(structure, frozenset(target))\n"
        "    return answers[player, _block_at(structure, player, state)]\n",
        "    block = _block_at(structure, player, state)\n"
        "    return _fixedpoint_answers(structure, frozenset(target))[player, block]\n",
    ),
    Mutant(
        "_event does not freeze",
        "src/epicoord/epistemic.py",
        "states = frozenset(states)",
        "pass",
    ),
    Mutant(
        "is_c_indicating skips the level check",
        "src/epicoord/oracle.py",
        '    level = parse_probability(level, "level")\n    weights = _integer_weights(structure)\n    return all(',
        "    weights = _integer_weights(structure)\n    return all(",
    ),
    Mutant(
        "oracle._largest_event drops a block at the level",
        "src/epicoord/oracle.py",
        "if min(inside, on_target) * level.denominator < level.numerator * weight:",
        "if min(inside, on_target) * level.denominator <= level.numerator * weight:",
    ),
    Mutant(
        "oracle._block_answers' value table drops the on-target cap",
        "src/epicoord/oracle.py",
        "[(inside if inside < on_target else on_target) * factor for inside in sums[1:]]",
        "[inside * factor for inside in sums[1:]]",
    ),
    Mutant(
        "oracle._block_answers values a block's empty part 0, not the scale",
        "src/epicoord/oracle.py",
        "values = [scale] + [",
        "values = [0] + [",
    ),
    Mutant(
        "oracle._block_answers combines the two players' levels with max",
        "src/epicoord/oracle.py",
        "level = [one if one < other else other for one, other in zip(",
        "level = [one if one > other else other for one, other in zip(",
    ),
    Mutant(
        "oracle._block_answers reads player 1's table without the alignment permutation",
        "src/epicoord/oracle.py",
        "zip(own_table, map(other_table.__getitem__, aligned))",
        "zip(own_table, other_table)",
    ),
    Mutant(
        "oracle cells keyed on player 0's block only",
        "src/epicoord/oracle.py",
        "zip(zip(first, second), weights)",
        "zip(zip(first, first), weights)",
    ),
    Mutant(
        "a cell weighs only its first state",
        "src/epicoord/oracle.py",
        "cells[cell] = cells.get(cell, 0) + weight",
        "cells.setdefault(cell, weight)",
    ),
    Mutant(
        "meet components linked through player-0 blocks only",
        "src/epicoord/oracle.py",
        "        if len(joined) > 1:\n",
        "        if False:\n",
    ),
    Mutant(
        "only the first component is scanned",
        "src/epicoord/oracle.py",
        "for component in _meet_components(blocks):",
        "for component in list(_meet_components(blocks))[:1]:",
    ),
    Mutant(
        "_build_ladder drops tied blocks",
        "src/epicoord/epistemic.py",
        "            elif this == least:\n                work.append(b)\n",
        "",
    ),
    Mutant(
        "_build_ladder leaves a companion block's heap entry stale after a removal",
        "src/epicoord/epistemic.py",
        "                                entries[other] = entry\n                                heappush(heap, entry)\n",
        "                                pass\n",
    ),
    Mutant(
        "_build_ladder does not skip a stale heap entry",
        "src/epicoord/epistemic.py",
        "while entries[b] != entry:",
        "while False:",
    ),
    Mutant(
        "_build_ladder does not push a tied loser back",
        "src/epicoord/epistemic.py",
        "heappush(heap, entries[b])",
        "pass",
    ),
    Mutant(
        "the peel removes a state twice",
        "src/epicoord/epistemic.py",
        "if depth[state] < 0:",
        "if depth[state] <= 0:",
    ),
    Mutant(
        "the peel marks a state's depth one rung late",
        "src/epicoord/epistemic.py",
        "depth[state] = rung",
        "depth[state] = rung + 1",
    ),
    Mutant(
        "_build_ladder records the dying rung only for popped blocks",
        "src/epicoord/epistemic.py",
        "died[other] = rung",
        "pass",
    ),
    Mutant(
        "_build_ladder records each block's dying rung one rung late",
        "src/epicoord/epistemic.py",
        "        rung = len(levels)\n",
        "        rung = len(levels) + 1\n",
    ),
    Mutant(
        "the ladder's answer rows read the rung below each block's deepest",
        "src/epicoord/epistemic.py",
        "block_levels = tuple(map(levels.__getitem__, died))",
        "block_levels = tuple(levels[max(depth - 1, 0)] for depth in died)",
    ),
    Mutant(
        "play sends pair to private_heuristic",
        "src/epicoord/experiments.py",
        "return pair_heuristic(structure, target, player, state)",
        "return private_heuristic(structure, target, player, state)",
    ),
    Mutant(
        "KnowledgeCondition skips its participant check",
        "src/epicoord/experiments.py",
        "if type(self.participant) is not int or self.participant not in (0, 1):",
        "if False:",
    ),
    Mutant(
        "predict reads kind.value without its enum",
        "src/epicoord/experiments.py",
        "    kind = ModelKind(kind)\n    probs: dict[str, Fraction] = {}\n",
        "    probs: dict[str, Fraction] = {}\n",
    ),
    Mutant(
        "_load ignores the event predicate",
        "src/epicoord/cli.py",
        "worldmodel.parse_event_predicate(predicate)",
        'worldmodel.parse_event_predicate("x=1")',
    ),
    Mutant(
        "the printer writes to stdout when --out is given",
        "src/epicoord/cli.py",
        "    if out is None:\n        click.echo(text)\n",
        "    if True:\n        click.echo(text)\n",
    ),
    Mutant(
        "pbelief prints indented JSON",
        "src/epicoord/cli.py",
        "lambda: _rational_with_decimal(value), indent=None)",
        "lambda: _rational_with_decimal(value))",
    ),
    Mutant(
        "_check_payoffs accepts None",
        "src/epicoord/game.py",
        "if not isinstance(payoffs, PayoffParams):",
        "if payoffs is not None and not isinstance(payoffs, PayoffParams):",
    ),
    Mutant(
        "WorldModelSpec's position map puts each variable one place early",
        "src/epicoord/worldmodel.py",
        "position[var.name] = len(position)",
        "position[var.name] = len(position) - 1",
    ),
    Mutant(
        "enumerate_states' deferred 1 branch takes the 0 branch's factor",
        "src/epicoord/worldmodel.py",
        "pending.append((index, weight * n, scale * d))",
        "pending.append((index, weight * (d - n), scale * d))",
    ),
    Mutant(
        "build_information_partition's columns ignore each rule's guard",
        "src/epicoord/worldmodel.py",
        "[shown(state) if fires(state) == on else _SILENT for state in states]",
        "[shown(state) for state in states]",
    ),
    Mutant(
        "parse_probability accepts values above 1",
        "src/epicoord/rational.py",
        "if not 0 <= p.numerator <= p.denominator:",
        "if not 0 <= p.numerator:",
    ),
    Mutant(
        "on_one_scale puts the values over the largest denominator, not the lcm",
        "src/epicoord/rational.py",
        "denominator = math.lcm(*[v.denominator for v in values])",
        "denominator = max([v.denominator for v in values], default=1)",
    ),
)


def _copy(destination: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, destination / name, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy2(ROOT / "pyproject.toml", destination / "pyproject.toml")


def _mutate(mutant: Mutant) -> str:
    """The mutant's file with the mutant applied; its old text must occur exactly once."""
    text = (ROOT / mutant.path).read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"mutant {mutant.name!r}: its old text occurs {count} times in {mutant.path}, not once")
    return text.replace(mutant.old, mutant.new)


def _passes(copy: Path, args: tuple[str, ...], timeout: int) -> bool:
    """Does `python <args>` exit 0 in the copy within `timeout` seconds?"""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        result = subprocess.run(
            (sys.executable, *args), cwd=copy, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def _failing_check(mutant: Mutant | None, text: str, fuzz_only: bool) -> str | None:
    """Run tier-1 (unless `fuzz_only`), then the fuzz lines, on a fresh copy whose
    mutant's file holds `text`: the name of the first check that fails, or None
    when all pass."""
    with tempfile.TemporaryDirectory(prefix="epicoord-mutant-") as scratch:
        copy = Path(scratch)
        _copy(copy)
        if mutant is not None:
            (copy / mutant.path).write_text(text)
        if not fuzz_only and not _passes(copy, ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"), TIER1_TIMEOUT):
            return "tier-1"
        for args, timeout in _fuzz_lines():
            if not _passes(copy, ("-m", "epicoord", "fuzz", *args), timeout):
                return "fuzz " + " ".join(args)
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description="Check that the tests kill every checked-in mutant.")
    parser.add_argument("--fuzz-only", action="store_true", help="run only the fuzz lines, not tier-1, and report")
    fuzz_only = parser.parse_args().fuzz_only
    # Every old text is checked before anything runs, so a stale entry fails at once.
    try:
        texts = [_mutate(mutant) for mutant in MUTANTS]
    except ValueError as exc:
        print(exc)
        return 1
    survivors = 0
    began = time.perf_counter()
    for mutant, text in ((None, ""), *zip(MUTANTS, texts)):
        start = time.perf_counter()
        failing = _failing_check(mutant, text, fuzz_only)
        elapsed = f"{time.perf_counter() - start:.1f} s"
        if mutant is None:
            if failing is not None:
                print(f"the unmutated copy fails {failing} ({elapsed}); no mutant can be judged")
                return 1
            print(f"unmutated copy passes ({elapsed})", flush=True)
        elif failing is None:
            survivors += 1
            print(f"SURVIVED: {mutant.name} ({elapsed})", flush=True)
        else:
            print(f"killed by {failing}: {mutant.name} ({elapsed})", flush=True)
    minutes, seconds = divmod(round(time.perf_counter() - began), 60)
    by = " by the fuzz lines alone" if fuzz_only else ""
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed{by} in {minutes} min {seconds} s")
    return 1 if survivors and not fuzz_only else 0


if __name__ == "__main__":
    sys.exit(main())
