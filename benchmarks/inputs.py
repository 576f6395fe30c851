"""Seeded input generators.  Every function takes the imported package `ep`
and a `random.Random`, so the same seed always yields the same inputs."""

from __future__ import annotations

import math
from fractions import Fraction

CONDITIONS = ("private", "secondary", "tertiary", "common")
# Observed-proportion ranges with the low / mid / mid / high shape of the
# four knowledge conditions.
_HUMAN_RANGES = {
    "private": (0.10, 0.35),
    "secondary": (0.40, 0.65),
    "tertiary": (0.45, 0.70),
    "common": (0.75, 0.95),
}
_GOLDEN = (math.sqrt(5) - 1) / 2


def spread_order(count: int) -> list[int]:
    """A permutation of range(count) whose every prefix spreads evenly over it
    (the golden-ratio sequence), independent of the seed."""
    ranks = sorted(range(count), key=lambda i: (i * _GOLDEN) % 1.0)
    order = [0] * count
    for rank, position in enumerate(ranks):
        order[position] = rank
    return order


def _random_partition(ep, rng, n: int, labels: int):
    block_of: list[int] = []
    members: list[set[int]] = []
    remap: dict[int, int] = {}
    for index in range(n):
        label = rng.randrange(labels)
        if label not in remap:
            remap[label] = len(members)
            members.append(set())
        members[remap[label]].add(index)
        block_of.append(remap[label])
    return ep.Partition(tuple(frozenset(m) for m in members), tuple(block_of))


def large_structure(ep, rng, n: int):
    """An n-state structure, ~n/4 blocks per player, integer weights 1..9.

    `oracle.random_structure` stops at 12 states, so large spaces are built
    here directly from `StateSpace`, `Partition` and `InformationStructure`.
    """
    weights = [rng.randint(1, 9) for _ in range(n)]
    total = sum(weights)
    width = (n - 1).bit_length()
    states = tuple(tuple((i >> b) & 1 for b in reversed(range(width))) for i in range(n))
    space = ep.StateSpace(states, tuple(Fraction(w, total) for w in weights))
    labels = max(1, n // 4)
    partitions = (_random_partition(ep, rng, n, labels), _random_partition(ep, rng, n, labels))
    target = frozenset(i for i in range(n) if rng.random() < 0.5) or frozenset({rng.randrange(n)})
    return ep.InformationStructure(space, partitions), target


def email_chain(ep, variables: int, delta: Fraction, loss: Fraction):
    """Rubinstein's (1989) electronic mail game as a gated world model.

    Player 0 learns x; while x = 1 the machines exchange confirmations
    m1, m2, ..., each sent only if the previous one arrived and lost with
    probability `loss`.  Player 1 reads the odd messages, player 0 the even
    ones.  The 2^V assignments hold only V + 1 reachable states.
    """
    specs = [ep.VariableSpec("x", delta)]
    rules = [ep.ObservationRule((), 0, ("x",))]
    previous = "x"
    for k in range(1, variables):
        name = f"m{k}"
        specs.append(ep.VariableSpec(name, 1 - loss, gate=(previous,)))
        rules.append(ep.ObservationRule((), k % 2, (name,)))
        previous = name
    return ep.WorldModelSpec(tuple(specs), tuple(rules))


def reachable_count(spec) -> int:
    """Positive-measure assignments, counted by branching only on free variables."""
    names = spec.variable_names
    gates = [[names.index(g) for g in var.gate] for var in spec.variables]
    biases = [var.bias for var in spec.variables]
    values = [0] * len(names)

    def count(position: int) -> int:
        if position == len(names):
            return 1
        if any(values[g] == 0 for g in gates[position]):
            values[position] = 0
            return count(position + 1)
        total = 0
        for value, possible in ((1, biases[position] > 0), (0, biases[position] < 1)):
            if possible:
                values[position] = value
                total += count(position + 1)
        return total

    return count(0)


_PRIORS = tuple(Fraction(k, 20) for k in range(3, 11))
_BIASES = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))


def random_gated_spec(ep, rng, variables: int, low: int, high: int):
    """A random gated model whose reachable-state count lies in [low, high].

    `x` comes first and ungated, so every other variable is independent of
    it or switched off by it; signals about x are then noiseless, and the
    equilibrium theorem applies whenever the risk threshold exceeds the prior.
    """
    names = ["x"] + [f"v{i}" for i in range(1, variables)]
    while True:
        specs = [ep.VariableSpec("x", rng.choice(_PRIORS))]
        for i in range(1, variables):
            gate = ()
            if rng.random() < 0.5:
                gate = tuple(sorted(set(rng.sample(names[:i], rng.randint(1, min(2, i))))))
            specs.append(ep.VariableSpec(names[i], rng.choice(_BIASES), gate=gate))
        rules = tuple(
            ep.ObservationRule(
                tuple(rng.sample(names, rng.randint(0, 1))),
                rng.randrange(2),
                tuple(rng.sample(names, rng.randint(1, 2))),
            )
            for _ in range(rng.randint(4, 7))
        )
        spec = ep.WorldModelSpec(tuple(specs), rules)
        if low <= reachable_count(spec) <= high:
            return spec


def synthetic_human(ep, rng):
    """Seeded per-condition sample sizes and exact proportions, plus their CSV text."""
    counts: dict[str, int] = {}
    prob_a: dict[str, Fraction] = {}
    for name in CONDITIONS:
        n = rng.randint(30, 40)
        lo, hi = _HUMAN_RANGES[name]
        counts[name] = n
        prob_a[name] = Fraction(rng.randint(math.ceil(lo * n), math.floor(hi * n)), n)
    rows = ["condition,n,prob_a"]
    rows += [f"{name},{counts[name]},{ep.format_rational(prob_a[name])}" for name in CONDITIONS]
    return ep.HumanData(counts, prob_a), "\n".join(rows) + "\n"
