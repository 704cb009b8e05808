import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from markovtoric import (
    CountVector,
    InadmissiblePathError,
    ModelSpec,
    PathTable,
    RelationError,
    TrajectorySet,
    build_design_matrix,
    counts_from_trajectories,
    enumerate_paths,
    format_symbol,
    generators_for,
    mle_paths_hierarchical,
    recover_parameters,
    verify_relation_set,
)
from conftest import (
    make_binary_chain,
    make_illness_death,
    make_reversible_illness_death,
    make_survival,
    make_vc_chain,
)
from oracles import block_counts, dense_product
from reference_data import WORKED_PATHS


class TestEnumeratePaths:
    def test_illness_death_has_the_fourteen_paths(self, illness_death):
        table = enumerate_paths(illness_death)
        assert ["".join(p) for p in table] == list(WORKED_PATHS)

    def test_unrestricted_count_is_a_power(self):
        spec = ModelSpec(["0", "1", "2"], 1, 4)
        assert len(enumerate_paths(spec)) == 3 ** 4

    def test_survival_model_paths(self, survival):
        table = enumerate_paths(survival)
        assert ["".join(p) for p in table] == ["000", "001", "011"]

    def test_output_is_lexicographic_by_declaration_order(self):
        spec = ModelSpec(["b", "a"], 1, 2)
        table = enumerate_paths(spec)
        assert ["".join(p) for p in table] == ["bb", "ba", "ab", "aa"]

    def test_no_duplicates(self, reversible_illness_death):
        table = enumerate_paths(reversible_illness_death)
        assert len(set(table)) == len(table)

    def test_a_table_with_a_repeated_path_rejected(self):
        with pytest.raises(RelationError, match="^duplicate paths in table$"):
            PathTable([("0", "1"), ("1", "1"), ("0", "1")])

    def test_every_enumerated_path_is_admissible(self, reversible_illness_death):
        for p in enumerate_paths(reversible_illness_death):
            reversible_illness_death.check_sequence(p)

    def test_order_two_respects_initial_blocks(self):
        spec = ModelSpec(["0", "1"], 2, 4, initial=[["0", "0"], ["0", "1"]])
        table = enumerate_paths(spec)
        assert all(p[:2] in {("0", "0"), ("0", "1")} for p in table)
        assert len(table) == 2 * 2 * 2

    def test_matches_brute_force_filter(self, illness_death):
        # illness-death's rules applied directly: start in 0 or 1, never
        # step 1 -> 0, and never leave the absorbing state 2
        brute = [p for p in itertools.product("012", repeat=4)
                 if p[0] in "01" and all((a, b) != ("1", "0") and (a != "2" or b == "2")
                                         for a, b in zip(p, p[1:]))]
        assert list(enumerate_paths(illness_death)) == brute


class TestPathTable:
    def test_index_and_contains(self, illness_death):
        table = enumerate_paths(illness_death)
        path = ("0", "1", "1", "2")
        assert table[table.index(path)] == path
        assert path in table
        assert ("1", "0", "0", "0") not in table

    def test_index_of_missing_path_raises(self, illness_death):
        table = enumerate_paths(illness_death)
        with pytest.raises(InadmissiblePathError):
            table.index(("1", "0", "0", "0"))


def _counts(spec, table):
    trajs = TrajectorySet.from_sequences([("0", "0", "1", "2"), ("1", "1", "2", "2")])
    return counts_from_trajectories(trajs, spec, table=table)


def _hierarchical(spec, table):
    return mle_paths_hierarchical(CountVector(table, (1,) * len(table)), spec, table)


def _recover(spec, table):
    return recover_parameters({j: Fraction(1, len(table)) for j in range(len(table))},
                              spec, table)


# every function that takes a caller's table of a spec's whole path set;
# the relation families and the slice take only the spec
WHOLE_SET_READERS = {
    "generators_for": generators_for,
    "counts_from_trajectories": _counts,
    "mle_paths_hierarchical": _hierarchical,
    "recover_parameters": _recover,
}
TABLE_KEEPERS = ["generators_for", "counts_from_trajectories"]


class TestTheTableRule:
    # a whole-set reader takes only the spec's own table: equal to its
    # enumeration, in declaration order

    @pytest.mark.parametrize("name", WHOLE_SET_READERS)
    def test_a_table_of_another_spec_names_the_path_it_refuses(self, name):
        call = WHOLE_SET_READERS[name]
        table = enumerate_paths(make_reversible_illness_death())
        with pytest.raises(InadmissiblePathError, match=(
                r"^transition \('1',\) -> '0' into position 4 is forbidden$")):
            call(make_illness_death(), table)

    @pytest.mark.parametrize("horizon", [3, 5])
    @pytest.mark.parametrize("name", WHOLE_SET_READERS)
    def test_a_table_of_another_horizon_is_refused(self, name, horizon):
        # a horizon-5 table's length-4 prefixes are all admissible
        spec = make_illness_death()
        with pytest.raises(InadmissiblePathError, match=(
                f"^path has length {horizon}, expected horizon 4$")):
            WHOLE_SET_READERS[name](spec, enumerate_paths(spec.with_horizon(horizon)))

    @pytest.mark.parametrize("name", WHOLE_SET_READERS)
    def test_a_table_missing_a_path_names_it(self, name):
        call = WHOLE_SET_READERS[name]
        spec = make_illness_death()
        own = enumerate_paths(spec)
        table = PathTable(p for p in own if p not in own[5:7])
        with pytest.raises(InadmissiblePathError,
                           match=f"^{re.escape(f'path {own[5]} is not in the table')}$"):
            call(spec, table)

    @pytest.mark.parametrize("name", WHOLE_SET_READERS)
    def test_a_reordered_table_is_refused(self, name):
        call = WHOLE_SET_READERS[name]
        reordered = ModelSpec(["2", "1", "0"], 1, 4, forbidden=[("1", "0")],
                              absorbing=["2"], initial=["0", "1"])
        table = enumerate_paths(reordered)
        assert set(table) == set(enumerate_paths(make_illness_death()))
        with pytest.raises(InadmissiblePathError, match=(
                "^the table is not the spec's PathTable in declaration order$")):
            call(make_illness_death(), table)

    @pytest.mark.parametrize("name", WHOLE_SET_READERS)
    def test_a_plain_tuple_of_the_paths_is_refused(self, name):
        call = WHOLE_SET_READERS[name]
        spec = make_illness_death()
        with pytest.raises(InadmissiblePathError, match="not the spec's PathTable"):
            call(spec, tuple(enumerate_paths(spec)))

    @pytest.mark.parametrize("name", TABLE_KEEPERS)
    def test_results_keep_the_callers_equal_table(self, name):
        call = WHOLE_SET_READERS[name]
        spec = make_illness_death()
        table = enumerate_paths(spec)
        assert call(spec, table).table is table
        assert call(spec, None).table == table

    def test_tables_and_what_holds_them_compare_by_value(self, illness_death):
        a, b = enumerate_paths(illness_death), enumerate_paths(illness_death)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != enumerate_paths(make_reversible_illness_death())
        assert generators_for(illness_death) == generators_for(illness_death)
        assert _counts(illness_death, a) == _counts(illness_death, b)

    def test_generators_of_an_unrestricted_spec_refuse_a_restricted_table(self):
        # the slice of b is not a relation of a: p_0010 is not 0 on a
        a = make_binary_chain(1, 4)
        b = ModelSpec(["0", "1"], 1, 4, forbidden=[("1", "0")])
        with pytest.raises(InadmissiblePathError,
                           match=r"^path \('0', '0', '1', '0'\) is not in the table$"):
            generators_for(a, enumerate_paths(b))
        relset = generators_for(a)
        assert verify_relation_set(relset, a).all_pass and len(relset) > 0

    def test_counts_refuse_a_table_wider_than_the_spec(self):
        a = make_binary_chain(1, 4)
        b = ModelSpec(["0", "1"], 1, 4, forbidden=[("1", "0")])
        trajs = TrajectorySet(((("0", "1", "0", "1"), 1),))
        with pytest.raises(InadmissiblePathError, match=(
                r"^transition \('1',\) -> '0' into position 4 is forbidden$")):
            counts_from_trajectories(trajs, b, table=enumerate_paths(a))


class TestBlockCounts:
    def test_nonhomogeneous_symbols_carry_levels(self, illness_death):
        counts = block_counts(illness_death, ("0", "0", "1", "2"))
        assert counts == {
            ("pi", ("0",)): 1,
            ("a", 2, ("0",), "0"): 1,
            ("a", 3, ("0",), "1"): 1,
            ("a", 4, ("1",), "2"): 1,
        }

    def test_homogeneous_windows_pool(self, illness_death_hom):
        counts = block_counts(illness_death_hom, ("0", "0", "0", "1"))
        assert counts == {
            ("pi", ("0",)): 1,
            ("a", None, ("0",), "0"): 2,
            ("a", None, ("0",), "1"): 1,
        }


class TestDesignMatrix:
    def test_shape(self, illness_death):
        design = build_design_matrix(illness_death)
        rows, cols = design.shape
        assert cols == 14
        assert rows == len(illness_death.symbols())

    def test_columns_are_path_statistics(self, illness_death, illness_death_hom):
        for spec in (illness_death, illness_death_hom):
            design = build_design_matrix(spec)
            for j, path in enumerate(design.table):
                stats = block_counts(spec, path)
                assert design.column(j) == tuple(
                    stats.get(sym, 0) for sym in design.row_symbols)
        # the homogeneous spec repeats windows, so a column entry exceeds 1
        assert max(max(design.column(j)) for j in range(design.shape[1])) > 1

    def test_column_sums_constant(self, illness_death):
        # every path contributes one initial block and n - k windows
        design = build_design_matrix(illness_death)
        n, k = illness_death.horizon, illness_death.order
        for j in range(design.shape[1]):
            assert sum(design.column(j)) == 1 + (n - k)

    def test_apply_dense_and_sparse_agree(self, illness_death_hom):
        design = build_design_matrix(illness_death_hom)
        m = design.shape[1]
        coeffs = {j: 1 if j % 3 == 0 else -1 for j in range(m)}
        assert design.apply(coeffs) == dense_product(design, coeffs)

    def test_row_labels_are_readable(self, illness_death_hom):
        design = build_design_matrix(illness_death_hom)
        labels = {format_symbol(sym) for sym in design.row_symbols}
        assert "pi_0" in labels
        assert "a_01" in labels


@given(st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=3))
def test_binary_enumeration_count(k, extra):
    spec = make_binary_chain(k, k + extra)
    # unrestricted: every initial block, free choice at each later level
    assert len(enumerate_paths(spec)) == 2 ** (k + extra)


@given(st.integers(min_value=2, max_value=6))
@example(1_100)  # past the default recursion limit
@settings(deadline=None)
def test_survival_path_count_is_linear(n):
    # one path per absorption time, plus the path that never absorbs
    assert len(enumerate_paths(make_survival(n))) == n


def test_design_matrix_reuses_given_table():
    spec = make_illness_death()
    table = enumerate_paths(spec)
    design = build_design_matrix(spec, table)
    assert design.table is table


SPARSE_DESIGNS = [build_design_matrix(spec) for spec in (
    make_illness_death(homogeneous=True),
    make_binary_chain(2, 5),
    make_vc_chain(5),
)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPARSE_DESIGNS), st.data())
def test_apply_sparse_matches_dense_apply(design, data):
    m = design.shape[1]
    coeffs = data.draw(st.dictionaries(st.integers(0, m - 1),
                                       st.integers(-3, 3), max_size=6))
    assert design.apply(coeffs) == dense_product(design, coeffs)
    for bad in (-1, m):
        with pytest.raises(RelationError, match="out of range"):
            design.apply({**coeffs, bad: 1})
