import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from markovtoric import (
    InadmissiblePathError,
    ModelSpec,
    ParameterError,
    ParameterPoint,
    SpecificationError,
    as_fraction,
    build_design_matrix,
    enumerate_paths,
    format_symbol,
    path_probability,
    sample_parameters,
    uniform_parameters,
    validate_model,
    validate_parameters,
)
from conftest import make_binary_chain, make_illness_death, make_survival, make_vc_chain
from oracles import block_counts


class TestAsFraction:
    def test_int_and_fraction_pass_through(self):
        assert as_fraction(3) == Fraction(3)
        assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)

    def test_strings_parse_exactly(self):
        assert as_fraction("3/7") == Fraction(3, 7)
        assert as_fraction("0.55") == Fraction(11, 20)

    def test_float_rejected(self):
        with pytest.raises(ParameterError):
            as_fraction(0.1)

    def test_garbage_rejected(self):
        with pytest.raises(ParameterError):
            as_fraction("3/7/2")


class TestModelSpec:
    def test_duplicate_states_rejected(self):
        with pytest.raises(SpecificationError):
            ModelSpec(["0", "0", "1"], 1, 3)

    def test_order_must_leave_room_for_a_transition(self):
        with pytest.raises(SpecificationError):
            ModelSpec(["0", "1"], 3, 3)
        # a bool is not an integer order or horizon, though True == 1
        with pytest.raises(SpecificationError, match="order must be an integer"):
            ModelSpec(["0", "1"], True, 3)
        with pytest.raises(SpecificationError, match="horizon must be an integer"):
            ModelSpec(["0", "1"], 1, True)

    def test_unknown_state_in_forbidden_rejected(self):
        with pytest.raises(SpecificationError):
            ModelSpec(["0", "1"], 1, 3, forbidden=[("0", "9")])

    def test_absorbing_self_loop_cannot_be_forbidden(self):
        with pytest.raises(SpecificationError):
            ModelSpec(["0", "1"], 1, 3, absorbing=["1"],
                      forbidden=[("1", "1")])

    def test_initial_must_be_known_history(self, illness_death):
        with pytest.raises(SpecificationError):
            ModelSpec(["0", "1"], 1, 3, initial=["7"])

    def test_successors_follow_declaration_order(self, illness_death):
        assert illness_death.successors(("0",)) == ("0", "1", "2")
        assert illness_death.successors(("1",)) == ("1", "2")
        assert illness_death.successors(("2",)) == ("2",)

    def test_absorbing_state_only_self_loops(self, illness_death):
        assert illness_death.successors(("2",)) == ("2",)

    def test_histories_exclude_internally_forbidden_blocks(self):
        spec = make_survival()
        # order 1: every state is a history
        assert spec.histories == (("0",), ("1",))
        spec2 = ModelSpec(["0", "1"], 2, 4, forbidden=[("1", "0")])
        assert ("1", "0") not in spec2.histories

    def test_check_sequence_pinpoints_offending_position(self, illness_death):
        with pytest.raises(InadmissiblePathError) as err:
            illness_death.check_sequence(("0", "1", "0", "0"))
        assert "position 3" in str(err.value)

    def test_check_sequence_rejects_wrong_horizon(self, illness_death):
        with pytest.raises(InadmissiblePathError):
            illness_death.check_sequence(("0", "1"))
        with pytest.raises(InadmissiblePathError):
            illness_death.check_sequence(("0", "0", "0", "0", "0"))

    def test_check_sequence_rejects_disallowed_initial_block(self, illness_death):
        with pytest.raises(InadmissiblePathError):
            illness_death.check_sequence(("2", "2", "2", "2"))

    def test_with_horizon_preserves_structure(self, illness_death):
        shorter = illness_death.with_horizon(3)
        assert shorter.horizon == 3
        assert shorter.transition_pairs == illness_death.transition_pairs
        assert shorter.initial_blocks == illness_death.initial_blocks

    def test_levels(self, illness_death, illness_death_hom):
        assert illness_death.levels() == (2, 3, 4)
        assert illness_death_hom.levels() == (None,)

    def test_symbol_enumeration_covers_allowed_support(self, illness_death):
        syms = illness_death.symbols()
        assert ("pi", ("0",)) in syms
        assert ("a", 2, ("0",), "1") in syms
        assert ("a", 2, ("1",), "0") not in syms


def test_format_symbol_compact_and_comma_forms():
    assert format_symbol(("pi", ("0",))) == "pi_0"
    assert format_symbol(("a", None, ("0",), "1")) == "a_01"
    assert format_symbol(("a", 3, ("0", "1"), "2")) == "a3_012"
    assert format_symbol(("a", None, ("VV",), "C")) == "a_VV,C"


class TestValidateModel:
    def test_clean_spec_has_no_findings(self, illness_death):
        assert validate_model(illness_death) == []

    def test_dead_end_before_horizon_is_an_error(self):
        # 1 has no successors at all: paths through 1 stall
        spec = ModelSpec(["0", "1"], 1, 3,
                         forbidden=[("1", "0"), ("1", "1")], initial=["0"])
        findings = validate_model(spec)
        assert any(sev == "error" for sev, _ in findings)

    def test_unreachable_state_is_a_warning(self):
        spec = ModelSpec(["0", "1", "2"], 1, 3,
                         forbidden=[("0", "2"), ("1", "2"), ("2", "0"),
                                    ("2", "1")],
                         absorbing=["2"], initial=["0", "1"])
        findings = validate_model(spec)
        assert any(sev == "warning" and "2" in msg for sev, msg in findings)


class TestParameters:
    def test_uniform_rows_sum_to_one(self, illness_death):
        params = uniform_parameters(illness_death)
        assert validate_parameters(illness_death, params) == []

    def test_row_sum_violation_reported(self, illness_death):
        values = uniform_parameters(illness_death).values
        params = ParameterPoint({**values, ("a", 2, ("0",), "0"): Fraction(1, 2)})
        assert validate_parameters(illness_death, params)

    def test_entry_off_allowed_support_reported(self, illness_death):
        values = uniform_parameters(illness_death).values
        # an explicit zero on a forbidden transition is consistent
        params = ParameterPoint({**values, ("a", 2, ("1",), "0"): Fraction(0)})
        assert validate_parameters(illness_death, params) == []
        params = ParameterPoint({**values, ("a", 2, ("1",), "0"): Fraction(1, 100)})
        problems = validate_parameters(illness_death, params)
        assert any("forbidden" in p for p in problems)

    @pytest.mark.parametrize("edit, problem", [
        ({("pi", ("2",)): 0}, "pi has an entry on disallowed block ('2',)"),
        ({("pi", ("0",)): Fraction(-1, 2), ("pi", ("1",)): Fraction(3, 2)},
         "pi[('0',)] = -1/2 is negative"),
        ({("pi", ("0",)): Fraction(1, 4)}, "pi sums to 3/4, expected 1"),
        ({("a", 7, ("0",), "0"): 0},
         "transition entry on unknown row (level=7, history=('0',))"),
        ({("a", 2, ("0",), "0"): Fraction(-1, 3), ("a", 2, ("0",), "1"): Fraction(2, 3),
          ("a", 2, ("0",), "2"): Fraction(2, 3)},
         "a[2, ('0',), '0'] = -1/3 is negative"),
    ], ids=["disallowed-block", "negative-pi", "pi-sum", "unknown-row",
            "negative-transition"])
    def test_each_problem_is_named(self, illness_death, edit, problem):
        params = ParameterPoint({**uniform_parameters(illness_death).values, **edit})
        assert validate_parameters(illness_death, params) == [problem]

    def test_missing_entries_read_as_zero(self, illness_death):
        assert ParameterPoint({}).values == {}
        assert path_probability(illness_death, ParameterPoint({}), ("0",) * 4) == 0
        # pi_0 and a2_00 are 1, and a3_00 is absent
        params = ParameterPoint({("pi", ("0",)): 1, ("a", 2, ("0",), "0"): 1})
        assert path_probability(illness_death, params, ("0",) * 4) == 0
        assert validate_parameters(illness_death, ParameterPoint({})) == [
            "pi sums to 0, expected 1",
            *(f"row (level={level}, history={h}) sums to 0, expected 1"
              for level in (2, 3, 4) for h in (("0",), ("1",), ("2",)))]


class TestPathProbability:
    def test_factorizes_over_levels(self, illness_death):
        params = uniform_parameters(illness_death)
        # pi has 2 allowed blocks, row 0 has 3 successors, row 1 has 2
        p = path_probability(illness_death, params, ("0", "1", "1", "2"))
        assert p == Fraction(1, 2) * Fraction(1, 3) * Fraction(1, 2) * Fraction(1, 2)

    def test_inadmissible_path_raises(self, illness_death):
        params = uniform_parameters(illness_death)
        with pytest.raises(InadmissiblePathError):
            path_probability(illness_death, params, ("1", "0", "0", "0"))

    def test_uniform_probabilities_sum_to_one(self, illness_death):
        params = uniform_parameters(illness_death)
        total = sum(path_probability(illness_death, params, p)
                    for p in enumerate_paths(illness_death))
        assert total == 1

    def test_homogeneous_pools_levels(self, illness_death_hom):
        params = uniform_parameters(illness_death_hom)
        p = path_probability(illness_death_hom, params, ("0", "0", "0", "0"))
        assert p == Fraction(1, 2) * Fraction(1, 3) ** 3

    def test_symbolic_monomial_matches_numeric(self, illness_death):
        params = uniform_parameters(illness_death)
        path = ("0", "0", "1", "2")
        mono = block_counts(illness_death, path)
        value = Fraction(1)
        for sym, e in mono.items():
            value *= params.values[sym] ** e
        assert value == path_probability(illness_death, params, path)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=2, max_value=5))
def test_uniform_parameters_always_valid(k, extra):
    n = k + extra
    spec = make_binary_chain(k, n)
    assert validate_parameters(spec, uniform_parameters(spec)) == []


@given(st.data())
def test_probabilities_sum_to_one_on_random_small_specs(data):
    k = data.draw(st.integers(min_value=1, max_value=2))
    n = k + data.draw(st.integers(min_value=1, max_value=3))
    hom = data.draw(st.booleans())
    spec = make_binary_chain(k, n, homogeneous=hom)
    params = uniform_parameters(spec)
    total = sum(path_probability(spec, params, p)
                for p in enumerate_paths(spec))
    assert total == 1


@st.composite
def spec_rules(draw):
    """(states, k, n, m, rules): transition rules for ModelSpec and two
    horizons n and m."""
    states = "abcd"[:draw(st.integers(2, 4))]
    k = draw(st.sampled_from([1, 2, 3]))
    rules = {
        "forbidden": draw(st.lists(
            st.tuples(st.sampled_from(states), st.sampled_from(states)),
            unique=True)),
        "absorbing": draw(st.lists(st.sampled_from(states), unique=True)),
        "initial": draw(st.none() | st.lists(
            st.tuples(*[st.sampled_from(states)] * k), min_size=1, max_size=4,
            unique=True)),
        "homogeneous": draw(st.booleans()),
    }
    n, m = (draw(st.integers(k + 1, 6)) for _ in range(2))
    return list(states), k, n, m, rules


# 1 -> 0 forbidden leaves 1 a dead end, not an absorbing state; with
# k = 2 no history ends in a, yet a -> b stays an allowed pair
@example((["0", "1"], 1, 4, 3, {"forbidden": [("1", "0")]}))
@example((["a", "b"], 2, 4, 3, {"forbidden": [("a", "a"), ("b", "a")]}))
@given(spec_rules())
def test_with_horizon_equals_a_fresh_spec_from_the_same_rules(case):
    states, k, n, m, rules = case
    try:
        spec = ModelSpec(states, k, n, **rules)
    except SpecificationError:
        reject()
    shorter, fresh = spec.with_horizon(m), ModelSpec(states, k, m, **rules)
    assert (shorter is spec) == (m == n)
    assert shorter.horizon == m
    assert shorter.homogeneous == fresh.homogeneous
    assert shorter.absorbing == fresh.absorbing
    assert shorter.transition_pairs == fresh.transition_pairs
    assert shorter.histories == fresh.histories
    assert all(shorter.successors(h) == fresh.successors(h)
               for h in itertools.product(states, repeat=k))
    assert shorter.initial_blocks == fresh.initial_blocks
    assert list(enumerate_paths(shorter)) == list(enumerate_paths(fresh))


@st.composite
def small_specs(draw):
    """Specs of either kind with 2-4 states, k in {1, 2}, forbidden
    pairs, a set of absorbing states and an optional restricted initial
    set; n <= k + 3."""
    states = [str(i) for i in range(draw(st.integers(2, 4)))]
    k = draw(st.integers(1, 2))
    pair = st.tuples(st.sampled_from(states), st.sampled_from(states))
    # at most 3 of the >= 4 pairs, so some k-block stays admissible
    forbidden = draw(st.lists(pair, max_size=3, unique=True))
    absorbing = draw(st.lists(st.sampled_from(states), max_size=2, unique=True))
    absorbing = [s for s in absorbing if (s, s) not in forbidden]
    rules = dict(forbidden=forbidden, absorbing=absorbing,
                 homogeneous=draw(st.booleans()))
    histories = ModelSpec(states, k, k + 1, **rules).initial_blocks
    initial = draw(st.none() | st.lists(st.sampled_from(histories), min_size=1,
                                       unique=True))
    return ModelSpec(states, k, draw(st.integers(k + 1, k + 3)), initial=initial,
                     **rules)


@settings(max_examples=80, deadline=None)
@given(small_specs(), st.integers(0, 2**32))
@example(make_illness_death(), 0)
@example(make_vc_chain(5, homogeneous=False), 1)
@example(ModelSpec(["0", "1"], 2, 4, forbidden=[("1", "0")], homogeneous=True), 2)
def test_check_sequence_and_rows_agree_with_the_oracle_and_symbols(spec, seed):
    # check_sequence is the path's monomial, tallied against the oracle
    for path in enumerate_paths(spec):
        assert Counter(spec.check_sequence(path)) == Counter(block_counts(spec, path))
    rows = spec.rows()
    assert spec.symbols() == tuple(itertools.chain.from_iterable(rows))
    assert rows[0] == tuple(("pi", b) for b in spec.initial_blocks)
    assert [row[0][1:3] for row in rows[1:]] == [
        (level, h) for level in spec.levels() for h in spec.histories
        if spec.successors(h)]
    for row in rows[1:]:
        assert {sym[:3] for sym in row} == {row[0][:3]}
        assert tuple(sym[3] for sym in row) == spec.successors(row[0][2])
    assert build_design_matrix(spec).row_symbols == spec.symbols()
    for point in (uniform_parameters(spec), sample_parameters(spec, seed)):
        assert validate_parameters(spec, point) == []
