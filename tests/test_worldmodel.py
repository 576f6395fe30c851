import itertools
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicoord import (
    ObservationRule,
    Partition,
    SpecError,
    StateSpace,
    VariableSpec,
    WorldModelSpec,
    brute_force_common_p_belief,
    build_information_partition,
    builtin_loudspeaker,
    builtin_messenger,
    common_p_belief,
    enumerate_states,
    event_where,
    fixedpoint_common_p_belief,
    from_world_model,
    load_spec,
    parse_event_predicate,
    run_observations,
    spec_from_json,
    spec_to_json,
    trace_values,
    x_event,
)
from epicoord.oracle import EXHAUSTIVE_STATE_LIMIT
from epicoord.rational import format_rational, on_one_scale, parse_rational

from .conftest import DELTA, email_chain


def brute_force_states(spec):
    """Independent enumeration: apply the product-measure rule to all 2^n tuples."""
    names = [v.name for v in spec.variables]
    result = {}
    for assignment in itertools.product((0, 1), repeat=len(names)):
        weight = Fraction(1)
        for var, value in zip(spec.variables, assignment):
            if any(assignment[names.index(g)] == 0 for g in var.gate):
                if value == 1:
                    weight = None
                    break
                continue
            factor = var.bias if value else 1 - var.bias
            if factor == 0:
                weight = None
                break
            weight *= factor
        if weight is not None:
            result[assignment] = weight
    return result


@st.composite
def gated_specs(
    draw,
    size=st.integers(1, 10),
    biases=st.one_of(st.sampled_from((Fraction(0), Fraction(1))), st.fractions(0, 1, max_denominator=6)),
    max_gates=3,
):
    """Models of 1-10 variables, biases including 0 and 1, 0-3 gates on earlier variables."""
    names = ["x"] + [f"v{i}" for i in range(1, draw(size))]
    variables = []
    for i, name in enumerate(names):
        gate = draw(st.lists(st.sampled_from(names[:i]), max_size=max_gates, unique=True)) if i else []
        variables.append(VariableSpec(name, draw(biases), gate=tuple(gate)))
    return WorldModelSpec(tuple(variables))


# Mostly inside (0, 1); the last two, drawn rarely, pin a variable.
OBSERVED_BIASES = st.sampled_from(
    tuple(Fraction(p, q) for p, q in ((1, 2), (1, 3), (2, 3), (1, 6), (5, 6), (1, 4), (3, 4), (0, 1), (1, 1)))
)


@st.composite
def observed_specs(draw, size=st.integers(3, 4), max_rules=4):
    """Models of `size` variables (3-4 by default), at most one gate each, mostly
    biases inside (0, 1), plus 1 to `max_rules` rules.

    Each rule has a guard of at most one variable and observes one or two, so
    most default draws reach 4-12 states with a split partition; a pinned bias, a gate
    or a rule that never fires still leaves room for degenerate draws.
    """
    spec = draw(gated_specs(size, OBSERVED_BIASES, max_gates=1))
    guard = st.lists(st.sampled_from(spec.variable_names), max_size=1)
    observed = st.lists(st.sampled_from(spec.variable_names), min_size=1, max_size=2, unique=True)
    rule = st.builds(ObservationRule, guard, st.integers(0, 1), observed)
    return WorldModelSpec(spec.variables, tuple(draw(st.lists(rule, min_size=1, max_size=max_rules))))


class TestEnumerateStates:
    @given(gated_specs())
    @settings(max_examples=300, deadline=None)
    def test_matches_product_reference_in_order(self, spec):
        space = enumerate_states(spec)
        assert list(zip(space.states, space.measures)) == list(brute_force_states(spec).items())

    def test_forty_variable_email_chain(self):
        # 2^40 assignments, 41 reachable states: out of reach of the exhaustive oracle.
        spec = email_chain(40, Fraction(1, 3), Fraction(1, 10))
        space = enumerate_states(spec)
        assert space.states == tuple((1,) * k + (0,) * (40 - k) for k in range(41))
        assert sum(space.measures, Fraction(0)) == 1
        structure = from_world_model(spec)
        target = x_event(spec, structure.space)
        for player in (0, 1):
            for state in range(len(structure)):
                assert common_p_belief(structure, target, player, state) == (
                    fixedpoint_common_p_belief(structure, target, player, state)
                )

    def test_two_hundred_variable_email_chain(self):
        # A long chain: V + 1 states in order, closed-form measures, trace partitions, integer weights.
        variables, delta, loss = 200, Fraction(1, 3), Fraction(1, 10)
        spec = email_chain(variables, delta, loss)
        structure = from_world_model(spec)
        space = structure.space
        assert space.states == tuple((1,) * k + (0,) * (variables - k) for k in range(variables + 1))
        # State k + 1 has k messages delivered and the next one lost; the top state has all V - 1 delivered.
        assert space.measures == (
            1 - delta,
            *(delta * (1 - loss) ** k * loss for k in range(variables - 1)),
            delta * (1 - loss) ** (variables - 1),
        )
        for player, partition in enumerate(structure.partitions):
            assert partition == Partition.from_labels(run_observations(spec, player, s) for s in space.states)
        assert structure._weights == tuple(on_one_scale(space.measures)[0])

    def test_loudspeaker_example(self, loudspeaker_spec):
        space = enumerate_states(loudspeaker_spec)
        expected = {
            (1, 1): Fraction(1, 8),
            (1, 0): Fraction(1, 8),
            (0, 1): Fraction(3, 8),
            (0, 0): Fraction(3, 8),
        }
        assert dict(zip(space.states, space.measures)) == expected

    def test_messenger_matches_independent_enumeration(self, messenger_spec):
        space = enumerate_states(messenger_spec)
        expected = brute_force_states(messenger_spec)
        assert dict(zip(space.states, space.measures)) == expected
        assert len(space) == 18

    def test_messenger_never_emits_gate_violations(self, messenger_spec):
        space = enumerate_states(messenger_spec)
        for x, v0, v1, tp0, tp1 in space.states:
            assert not (tp0 == 1 and v0 == 0)
            assert not (tp1 == 1 and v1 == 0)

    def test_degenerate_bias_yields_single_state(self):
        spec = WorldModelSpec((VariableSpec("x", Fraction(1)),))
        space = enumerate_states(spec)
        assert space.states == ((1,),)
        assert space.measures == (Fraction(1),)

    @pytest.mark.parametrize("delta", [Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)])
    def test_measures_sum_to_one(self, delta):
        for spec in (builtin_messenger(delta), builtin_loudspeaker(delta)):
            space = enumerate_states(spec)
            assert sum(space.measures, Fraction(0)) == 1

    def test_gated_chain_sums_to_one(self):
        spec = WorldModelSpec(
            (
                VariableSpec("x", Fraction(2, 7)),
                VariableSpec("u", Fraction(1, 3), gate=("x",)),
                VariableSpec("v", Fraction(4, 5), gate=("x", "u")),
            )
        )
        space = enumerate_states(spec)
        assert sum(space.measures, Fraction(0)) == 1
        assert dict(zip(space.states, space.measures)) == brute_force_states(spec)

    def test_index_of_maps_every_state_back(self, messenger_spec, loudspeaker_spec):
        for spec in (messenger_spec, loudspeaker_spec):
            space = enumerate_states(spec)
            assert "_index" not in vars(space)
            for index, state in enumerate(space.states):
                assert space.index_of(state) == index
                assert space.index_of(list(state)) == index

    def test_index_of_rejects_zero_measure_state(self, messenger_spec):
        space = enumerate_states(messenger_spec)
        message = "state (1, 0, 0, 1, 0) has zero measure or is not in the space"
        with pytest.raises(ValueError, match=re.escape(message)):
            space.index_of((1, 0, 0, 1, 0))  # tell_plan_0 without visit_0


class TestRunObservations:
    def test_messenger_trace_example(self, messenger_spec):
        trace = run_observations(messenger_spec, 0, (1, 1, 0, 1, 0))
        assert trace_values(trace) == ((1,), (0, 0))

    def test_loudspeaker_no_broadcast(self, loudspeaker_spec):
        assert run_observations(loudspeaker_spec, 1, (1, 0)) == ()

    def test_loudspeaker_broadcast(self, loudspeaker_spec):
        assert trace_values(run_observations(loudspeaker_spec, 0, (1, 1))) == ((1,),)

    def test_wrong_state_length(self, loudspeaker_spec):
        with pytest.raises(SpecError):
            run_observations(loudspeaker_spec, 0, (1, 1, 0))


class TestPartitions:
    def test_loudspeaker_blocks(self, loudspeaker_spec):
        space = enumerate_states(loudspeaker_spec)
        expected = {
            frozenset({(1, 1)}),
            frozenset({(0, 1)}),
            frozenset({(0, 0), (1, 0)}),
        }
        for player in (0, 1):
            partition = build_information_partition(loudspeaker_spec, space, player)
            blocks = {frozenset(space.states[i] for i in block) for block in partition.blocks}
            assert blocks == expected

    def test_blocks_are_trace_equivalence_classes(self, messenger_spec, loudspeaker_spec):
        # A guarded rule listed first: its traces sort before the earlier states' traces.
        guarded_first = WorldModelSpec(
            (VariableSpec("x", Fraction(1, 2)), VariableSpec("y", Fraction(1, 2))),
            (ObservationRule(("y",), 0, ("x",)), ObservationRule((), 0, ("y",))),
        )
        # Rules that observe nothing still tell whether their guards held.
        observes_nothing = WorldModelSpec(
            (VariableSpec("x", Fraction(1, 2)), VariableSpec("y", Fraction(1, 3))),
            (ObservationRule(("y",), 1, ()), ObservationRule((), 1, ()), ObservationRule(("x", "y"), 0, ())),
        )
        chain = email_chain(8, DELTA, Fraction(1, 10))
        for spec in (messenger_spec, loudspeaker_spec, chain, guarded_first, observes_nothing):
            space = enumerate_states(spec)
            for player in (0, 1):
                partition = build_information_partition(spec, space, player)
                for i, j in itertools.combinations(range(len(space)), 2):
                    same_trace = run_observations(spec, player, space.states[i]) == (
                        run_observations(spec, player, space.states[j])
                    )
                    same_block = partition.block_of[i] == partition.block_of[j]
                    assert same_trace == same_block
                # Blocks are numbered in the order their first states appear.
                firsts = [min(block) for block in partition.blocks]
                assert all(a < b for a, b in zip(firsts, firsts[1:]))

    def test_no_rules_collapse_to_single_block(self):
        spec = WorldModelSpec(
            (VariableSpec("x", Fraction(1, 4)), VariableSpec("y", Fraction(1, 2)))
        )
        space = enumerate_states(spec)
        for player in (0, 1):
            partition = build_information_partition(spec, space, player)
            assert partition.blocks == (frozenset(range(len(space))),)

    def test_ruleless_player_collapses_independently(self, messenger_spec):
        one_sided = WorldModelSpec(
            messenger_spec.variables,
            tuple(rule for rule in messenger_spec.observations if rule.player == 0),
        )
        space = enumerate_states(one_sided)
        assert build_information_partition(one_sided, space, 1).blocks == (
            frozenset(range(len(space))),
        )
        assert len(build_information_partition(one_sided, space, 0).blocks) > 1

    @pytest.mark.parametrize("player", [2, -1, True, "0"], ids=["two", "minus-one", "true", "string"])
    def test_player_must_be_zero_or_one(self, messenger_spec, player):
        # The check and message of ObservationRule: True is no player 1, and 2 is no ruleless player.
        space = enumerate_states(messenger_spec)
        message = "^" + re.escape(f"'player' must be the integer 0 or 1, got {player!r}") + "$"
        with pytest.raises(SpecError, match=message):
            build_information_partition(messenger_spec, space, player)
        with pytest.raises(SpecError, match=message):
            run_observations(messenger_spec, player, space.states[0])

    @pytest.mark.parametrize(
        "spec_of,states,width",
        [
            (builtin_messenger, tuple(itertools.product((0, 1), repeat=2)), 2),
            (builtin_loudspeaker, ((1, 1), (1, 0), (0,)), 1),
            (builtin_loudspeaker, ((1, 1), (1, 0), (0, 1, 0)), 3),
        ],
        ids=["another-model", "narrower-later-state", "wider-later-state"],
    )
    def test_state_width_must_match_the_model(self, spec_of, states, width):
        spec = spec_of(DELTA)
        space = StateSpace(states, (Fraction(1, len(states)),) * len(states))
        message = f"state has {width} values but the model declares {len(spec.variables)} variables"
        for player in (0, 1):
            with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
                build_information_partition(spec, space, player)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition((frozenset({0}), frozenset({0, 1})), (0, 1))
        with pytest.raises(ValueError):
            Partition((frozenset({0}),), (0, 0))

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: StateSpace(((0,), (1,)), (Fraction(1),)), "states and measures differ in length"),
            (lambda: StateSpace(((0,), (0,)), (Fraction(1, 2),) * 2), "duplicate state assignments"),
            (
                lambda: StateSpace(((0,), (1,)), (Fraction(1), Fraction(0))),
                "every enumerated state must have positive measure",
            ),
            (
                lambda: StateSpace(((0,), (1,)), (Fraction(1, 2), Fraction(1, 4))),
                "state measures must sum to exactly 1",
            ),
            (lambda: Partition((frozenset(),), ()), "partition blocks must be nonempty"),
            (lambda: StateSpace(((0,), (1,)), (0.5, Fraction(1, 2))), "refusing inexact float 0.5"),
            (
                lambda: Partition((frozenset({0}), frozenset({1})), (1, 0)),
                "state 0 is not in its assigned block",
            ),
            # blocks[-1] holds state 1, so only the range check refuses it.
            (
                lambda: Partition((frozenset({0}), frozenset({1})), (0, -1)),
                "state 1 has block id -1 outside 0..1",
            ),
            (lambda: Partition((frozenset({0}),), (5,)), "state 0 has block id 5 outside 0..0"),
            # An id equal to the block count is the first one past the end.
            (
                lambda: Partition((frozenset({0}), frozenset({1})), (0, 2)),
                "state 1 has block id 2 outside 0..1",
            ),
            # Only an exact int is a block id: a bool is an int to Python, and it would read blocks[0].
            (lambda: Partition((frozenset({0}),), (False,)), "state 0 has block id False outside 0..0"),
            (lambda: Partition((frozenset({0}),), (0.0,)), "state 0 has block id 0.0 outside 0..0"),
            (lambda: Partition((frozenset({0}),), ("0",)), "state 0 has block id '0' outside 0..0"),
        ],
        ids=[
            "lengths", "duplicates", "zero-measure", "sum", "float-measure", "empty-block", "wrong-block",
            "negative-block-id", "block-id-past-end", "block-id-at-count", "bool-block-id", "float-block-id",
            "str-block-id",
        ],
    )
    def test_malformed_space_or_partition_rejected(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


class TestBuiltins:
    def test_loudspeaker_shape(self):
        spec = builtin_loudspeaker(DELTA)
        assert len(spec.variables) == 2
        assert len(spec.observations) == 2
        assert spec.variables[0].name == "x"
        assert spec.variables[0].bias == DELTA

    def test_messenger_shape(self):
        spec = builtin_messenger(DELTA)
        assert len(spec.variables) == 5
        assert len(spec.observations) == 4
        assert [v.bias for v in spec.variables] == [DELTA] + [Fraction(1, 2)] * 4

    def test_messenger_delta_substitution(self):
        base = builtin_messenger(Fraction(1, 4))
        other = builtin_messenger(Fraction(1, 2))
        assert other.observations == base.observations
        assert [v.name for v in other.variables] == [v.name for v in base.variables]
        assert other.variables[0].bias == Fraction(1, 2)

    def test_delta_out_of_range(self):
        with pytest.raises(SpecError):
            builtin_loudspeaker(Fraction(5, 4))
        with pytest.raises(SpecError):
            builtin_messenger("-1/4")

    def test_boolean_delta_rejected(self):
        with pytest.raises(ValueError, match="boolean"):
            builtin_messenger(True)


class TestValidation:
    def test_duplicate_names(self):
        with pytest.raises(SpecError, match="duplicate"):
            WorldModelSpec((VariableSpec("x", DELTA), VariableSpec("x", DELTA)))

    def test_gate_must_be_earlier(self):
        with pytest.raises(SpecError, match="earlier"):
            WorldModelSpec(
                (VariableSpec("x", DELTA, gate=("y",)), VariableSpec("y", DELTA))
            )

    def test_bias_out_of_range(self):
        with pytest.raises(SpecError, match="bias"):
            WorldModelSpec((VariableSpec("x", Fraction(3, 2)),))

    def test_missing_x(self):
        with pytest.raises(SpecError, match="'x'"):
            WorldModelSpec((VariableSpec("y", DELTA),))

    def test_rule_references_unknown_variable(self):
        with pytest.raises(SpecError, match="rule 0"):
            WorldModelSpec(
                (VariableSpec("x", DELTA),),
                (ObservationRule(("nope",), 0, ("x",)),),
            )

    def test_rule_bad_player(self):
        with pytest.raises(SpecError, match="player"):
            WorldModelSpec(
                (VariableSpec("x", DELTA),),
                (ObservationRule(("x",), 2, ("x",)),),
            )

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: VariableSpec("x", True), "variable 'x': 'bias': refusing boolean True; pass a number like 1 or '1/4'"),
            (lambda: WorldModelSpec((VariableSpec(["x"], DELTA),)), "'name' must be a string, got ['x']"),
            (
                lambda: WorldModelSpec((VariableSpec("x", DELTA), VariableSpec(5, DELTA))),
                "'name' must be a string, got 5",
            ),
            (lambda: VariableSpec(5, "1/2"), "'name' must be a string, got 5"),
            (lambda: ObservationRule((), True, ("x",)), "'player' must be the integer 0 or 1, got True"),
            (lambda: ObservationRule((), 1.0, ("x",)), "'player' must be the integer 0 or 1, got 1.0"),
            (lambda: ObservationRule((), 2, ("x",)), "'player' must be the integer 0 or 1, got 2"),
            (
                lambda: VariableSpec("y", DELTA, gate="x"),
                "variable 'y': 'gate' must be a list of variable names, got 'x'",
            ),
            (
                lambda: ObservationRule("visit_0", 0, ("x",)),
                "'guard' must be a list of variable names, got 'visit_0'",
            ),
            (lambda: ObservationRule((), 0, "x"), "'observed' must be a list of variable names, got 'x'"),
            (lambda: VariableSpec("y", DELTA, gate=5), "variable 'y': 'gate' must be a list of variable names, got 5"),
        ],
        ids=[
            "bias-bool", "name-list", "name-int", "name-bare", "player-bool", "player-float", "player-2",
            "gate-string", "guard-string", "observed-string", "gate-int",
        ],
    )
    def test_mistyped_field_built_in_python(self, build, message):
        """Models built in Python get the checks and messages of the JSON loader.

        The whole message is pinned: a JSON entry's index prefix on a name error
        belongs to the loader, not to a model built in Python.
        """
        with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
            build()


class TestObservedModels:
    @staticmethod
    def check(spec):
        assert spec_from_json(spec_to_json(spec)) == spec
        structure = from_world_model(spec)
        states = structure.space.states
        for player, partition in enumerate(structure.partitions):
            traces = [run_observations(spec, player, state) for state in states]
            # Same block iff same trace: (trace, block) pairs are as many as traces and as blocks.
            pairs = set(zip(traces, partition.block_of))
            assert len(pairs) == len(set(traces)) == len(partition.blocks)
        if len(structure) <= EXHAUSTIVE_STATE_LIMIT:
            oracle = brute_force_common_p_belief
        else:
            oracle = fixedpoint_common_p_belief
        target = x_event(spec, structure.space)
        for player in (0, 1):
            for state in range(len(structure)):
                assert common_p_belief(structure, target, player, state) == (
                    oracle(structure, target, player, state)
                )

    @given(observed_specs())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_partitions_and_oracle(self, spec):
        self.check(spec)

    # 5-6 variables reach up to 64 states: 38 of 60 derandomised draws had 14-64.
    @given(observed_specs(st.integers(5, 6), max_rules=6))
    @settings(max_examples=60, deadline=None)
    def test_past_the_exhaustive_cap(self, spec):
        self.check(spec)


class TestJsonInterchange:
    def test_round_trip(self, messenger_spec):
        assert spec_from_json(spec_to_json(messenger_spec)) == messenger_spec

    def test_load_spec_decimal_and_rational_biases(self, tmp_path):
        document = {
            "variables": [
                {"name": "x", "bias": 0.25, "gate": []},
                {"name": "signal", "bias": "1/3", "gate": ["x"]},
            ],
            "observations": [{"guard": ["signal"], "player": 0, "observed": ["x"]}],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(document))
        spec = load_spec(path)
        assert spec.variables[0].bias == Fraction(1, 4)
        assert spec.variables[1].bias == Fraction(1, 3)

    def test_load_spec_inexact_decimal_is_exact(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"variables": [{"name": "x", "bias": 0.1}]}')
        assert load_spec(path).variables[0].bias == Fraction(1, 10)

    def test_load_spec_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(spec_to_json(builtin_messenger(DELTA))).encode())
        assert load_spec(path) == builtin_messenger(DELTA)

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown"):
            spec_from_json({"variables": [{"name": "x", "bias": "1/4", "oops": 1}]})

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SpecError, match="invalid JSON"):
            load_spec(path)


class TestEvents:
    def test_x_event_loudspeaker(self, loudspeaker_spec):
        space = enumerate_states(loudspeaker_spec)
        members = {space.states[i] for i in x_event(loudspeaker_spec, space)}
        assert members == {(1, 0), (1, 1)}

    def test_event_where_conjunction(self, messenger_spec):
        space = enumerate_states(messenger_spec)
        event = event_where(messenger_spec, space, {"x": 1, "visit_0": 0})
        assert all(space.states[i][0] == 1 and space.states[i][1] == 0 for i in event)
        assert len(event) == 3

    def test_parse_event_predicate(self):
        assert parse_event_predicate("x=1") == {"x": 1}
        assert parse_event_predicate("x=1, visit_0=0") == {"x": 1, "visit_0": 0}
        assert parse_event_predicate("x=1 & visit_0=1") == {"x": 1, "visit_0": 1}

    def test_parse_event_predicate_errors(self):
        for bad in ("", "x", "x=2", "x=1,x=0"):
            with pytest.raises(SpecError):
                parse_event_predicate(bad)

    def test_event_where_unknown_variable(self, loudspeaker_spec):
        space = enumerate_states(loudspeaker_spec)
        with pytest.raises(SpecError, match="unknown variable"):
            event_where(loudspeaker_spec, space, {"nope": 1})

    def test_event_where_value_must_be_a_bit(self, loudspeaker_spec):
        space = enumerate_states(loudspeaker_spec)
        with pytest.raises(SpecError, match=re.escape("constraint x=2: value must be 0 or 1")):
            event_where(loudspeaker_spec, space, {"x": 2})

    # True and 1.0 equal 1, but only the exact int 0 or 1 is a value: neither selects the x = 1 states.
    @pytest.mark.parametrize("value", [True, False, 1.0, "1"], ids=["true", "false", "float", "str"])
    def test_event_where_value_must_be_an_exact_int(self, loudspeaker_spec, value):
        space = enumerate_states(loudspeaker_spec)
        with pytest.raises(SpecError, match=f"^{re.escape(f'constraint x={value!r}: value must be 0 or 1')}$"):
            event_where(loudspeaker_spec, space, {"x": value})


class TestRationalHelpers:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1/4", Fraction(1, 4)),
            ("0.25", Fraction(1, 4)),
            ("1.1", Fraction(11, 10)),
            ("3", Fraction(3)),
            ("1e-4300", Fraction(1, 10**4300)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_rational(text) == expected

    def test_parse_rejects_floats_and_garbage(self):
        with pytest.raises(ValueError):
            parse_rational(0.25)
        with pytest.raises(ValueError):
            parse_rational("one half")

    def test_a_bad_value_of_40_characters_is_quoted_whole(self):
        text = "x" * 40
        with pytest.raises(ValueError, match=f"^{re.escape(f'not a rational number: {text!r}')}$"):
            parse_rational(text)

    def test_an_exponent_value_is_quoted_whole_up_to_40_characters(self):
        """A value of 40 characters is quoted whole, and from 41 on only its first 40 are."""
        for text, shown in (
            ("1e" + "9" * 38, repr("1e" + "9" * 38)),
            ("1e" + "9" * 39, f"the 41-character value {'1e' + '9' * 38!r}..."),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(f'cannot read {shown}: its exponent exceeds')}"):
                parse_rational(text)

    def test_format_always_carries_denominator(self):
        assert format_rational(Fraction(1)) == "1/1"
        assert format_rational(Fraction(1, 4)) == "1/4"
        assert parse_rational(format_rational(Fraction(22, 7))) == Fraction(22, 7)

    def test_format_prints_more_digits_than_str_converts(self):
        value = Fraction(1, 7**6000)  # 5,071 digits
        numerator, denominator = format_rational(value).split("/")
        assert numerator == "1"
        assert len(denominator) == 5071
        assert int(denominator[:50]) == 7**6000 // 10**5021
        assert int(denominator[-50:]) == 7**6000 % 10**50
