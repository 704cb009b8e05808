import pytest
from hypothesis import example, given, settings, strategies as st

from markovtoric import (
    Binomial,
    ModelSpec,
    RelationError,
    build_design_matrix,
    canonicalize,
    enumerate_paths,
    generators_for,
    homogeneous_family,
    kernel_membership,
    nonhomogeneous_generators,
    parse_model_spec,
    permutation_linear_relations,
    slice_linear_generators,
    verify_relation_set,
)
from conftest import (DATA, make_binary_chain, make_illness_death, make_survival,
                      make_vc_chain)
from oracles import (
    brute_force_degree2,
    degree2_diffs,
    homogeneous_family_reference,
    nonhomogeneous_generators_reference,
    lex_larger,
    permutation_classes,
)
from reference_data import ILLNESS_DEATH_RELATIONS

BUNDLED_SPECS = ["competing_risks", "hom_linear", "illness", "illness_hom", "vc_box"]


def as_binomial(table, fixture):
    plus, minus = fixture
    to_side = lambda side: {table.index(tuple(p)): e for p, e in side}
    return canonicalize(to_side(plus), to_side(minus))


class TestCanonicalize:
    def test_common_factor_removed(self):
        b = canonicalize({0: 2, 1: 1}, {0: 1, 2: 1})
        assert b.plus == ((0, 1), (1, 1))
        assert b.minus == ((2, 1),)

    def test_degenerate_rejected(self):
        with pytest.raises(RelationError):
            canonicalize({0: 1, 1: 1}, {1: 1, 0: 1})

    def test_plus_side_is_lex_larger(self):
        b = canonicalize({5: 1}, {0: 1})
        assert b.plus == ((0, 1),)
        assert b.minus == ((5, 1),)

    def test_orientation_ignores_input_order(self):
        assert canonicalize({0: 1}, {1: 1}) == canonicalize({1: 1}, {0: 1})

    def test_accepts_item_iterables(self):
        assert canonicalize([(0, 1), (0, 1)], {1: 2}) == \
            canonicalize({0: 2}, {1: 2})

    def test_negative_exponent_rejected(self):
        with pytest.raises(RelationError):
            canonicalize({0: -1}, {1: 1})

    @pytest.mark.parametrize("exponent", [1.5, True])
    def test_exponent_that_is_not_an_integer_rejected(self, exponent):
        with pytest.raises(RelationError, match=f"^exponent {exponent!r} on index 0 "
                                                "is not an integer$"):
            canonicalize({0: exponent}, {1: 1})

    @given(st.dictionaries(st.integers(0, 5), st.integers(1, 3), min_size=1),
           st.dictionaries(st.integers(0, 5), st.integers(1, 3), min_size=1))
    def test_canonical_form_is_stable(self, u, v):
        try:
            b1 = canonicalize(dict(u), dict(v))
        except RelationError:
            return
        b2 = canonicalize(dict(b1.plus), dict(b1.minus))
        assert b1 == b2

    @settings(max_examples=100)
    @given(st.dictionaries(st.integers(0, 6), st.integers(0, 3)),
           st.dictionaries(st.integers(0, 6), st.integers(0, 3)))
    def test_orientation_matches_dense_lex_reference(self, u, v):
        diff = {i: u.get(i, 0) - v.get(i, 0) for i in u.keys() | v.keys()}
        diff = {i: d for i, d in diff.items() if d}
        try:
            b = canonicalize(u, v)
        except RelationError:
            assert not diff
            return
        plus, minus = dict(b.plus), dict(b.minus)
        assert lex_larger(plus, minus)
        # the same reduced pair as the input, oriented by the reference
        reduced = ({i: d for i, d in diff.items() if d > 0},
                   {i: -d for i, d in diff.items() if d < 0})
        assert (plus, minus) == (reduced if lex_larger(*reduced)
                                 else reduced[::-1])


class TestBinomial:
    def test_text_rendering(self, illness_death):
        table = enumerate_paths(illness_death)
        b = canonicalize({table.index(("0", "0", "1", "1")): 1,
                          table.index(("0", "1", "1", "2")): 1},
                         {table.index(("0", "0", "1", "2")): 1,
                          table.index(("0", "1", "1", "1")): 1})
        text = b.text(table)
        assert " - " in text
        assert text.count("p_") == 4
        assert "p_0011" in text

    def test_text_exponents(self):
        table = enumerate_paths(make_binary_chain(1, 3))
        b = canonicalize({0: 2}, {1: 1, 2: 1})
        assert "^2" in b.text(table)

    def test_degree_and_support(self):
        b = canonicalize({0: 1, 3: 1}, {1: 1, 2: 1})
        assert b.degree() == 2
        assert b.support() == (0, 1, 2, 3)


class TestNonhomogeneousGenerators:
    def test_illness_death_matches_frozen_relations(self, illness_death):
        table = enumerate_paths(illness_death)
        emitted = set(nonhomogeneous_generators(illness_death).binomials)
        frozen = {as_binomial(table, fx) for fx in ILLNESS_DEATH_RELATIONS}
        assert emitted == frozen

    def test_rejects_homogeneous_spec(self, illness_death_hom):
        with pytest.raises(RelationError):
            nonhomogeneous_generators(illness_death_hom)

    def test_all_emitted_pass_kernel(self, reversible_illness_death):
        table = enumerate_paths(reversible_illness_death)
        design = build_design_matrix(reversible_illness_death, table)
        rs = nonhomogeneous_generators(reversible_illness_death)
        assert len(rs) > 0
        for b in rs.binomials:
            assert kernel_membership(b, design).ok

    def test_degree2_complete_for_unrestricted_binary_n3(self):
        spec = make_binary_chain(1, 3)
        table = enumerate_paths(spec)
        design = build_design_matrix(spec, table)
        emitted = set(nonhomogeneous_generators(spec).binomials)
        assert degree2_diffs(emitted) == degree2_diffs(brute_force_degree2(design))

    def test_unrestricted_spec_has_no_slice(self):
        spec = make_binary_chain(1, 3)
        assert nonhomogeneous_generators(spec).slice_paths == ()

    def test_restricted_spec_lists_missing_paths(self, illness_death):
        # the family carries only binomials; generators_for adds the slice
        assert nonhomogeneous_generators(illness_death).slice_paths == ()
        rs = generators_for(illness_death)
        assert len(rs.slice_paths) == 3 ** 4 - 14
        assert ("1", "0", "0", "0") in rs.slice_paths

    def test_no_duplicate_relations(self, illness_death):
        rs = nonhomogeneous_generators(illness_death)
        assert len(set(rs.binomials)) == len(rs.binomials)

    def test_the_grid_gives_the_split_scan_binomial_for_binomial(self):
        # criterion 04's grid, the bundled nonhomogeneous specs, and one
        # restriction each for k = 1, 2, 3; some quadrics recur at a later
        # split (binary k=1 n=4 has them), so the dedup across splits counts
        specs = [ModelSpec(("0", "1", "2")[:size], k, n)
                 for size in (2, 3) for k in (1, 2) for n in range(k + 1, 6)]
        specs += [spec for spec in (parse_model_spec(DATA / f"{name}.yaml")
                                    for name in BUNDLED_SPECS) if not spec.homogeneous]
        for k in (1, 2, 3):
            states = ["2", "0", "1"]
            blocks = ModelSpec(states, k, k + 1).initial_blocks
            specs += [ModelSpec(states, k, k + 3, forbidden=[("1", "0")]),
                      ModelSpec(states, k, k + 3, absorbing=["1"]),
                      ModelSpec(states, k, k + 3, initial=blocks[1::2])]
        for spec in specs:
            got = nonhomogeneous_generators(spec)
            want = nonhomogeneous_generators_reference(spec)
            assert got.binomials == want.binomials, repr(spec)
            assert got.provenance == want.provenance
            for b in got.binomials:
                assert b == canonicalize(dict(b.plus), dict(b.minus))


class TestSliceLinearGenerators:
    def test_complement_of_path_table(self, illness_death):
        sliced = set(slice_linear_generators(illness_death))
        admissible = set(enumerate_paths(illness_death))
        assert not (sliced & admissible)
        assert len(sliced) + len(admissible) == 3 ** 4

    def test_given_table_gives_the_same_paths(self, illness_death):
        table = enumerate_paths(illness_death)
        assert nonhomogeneous_generators(illness_death).slice_paths == ()
        assert generators_for(illness_death, table).slice_paths == \
            slice_linear_generators(illness_death)

    def test_unrestricted_spec_has_none(self):
        spec = make_binary_chain(1, 4)
        assert slice_linear_generators(spec) == ()

    def test_empty_exactly_when_every_sequence_is_admissible(self):
        # the slice decides this from the spec's rules, without enumerating:
        # criterion 04's grid, the bundled specs, and one restriction each
        specs = [ModelSpec(("0", "1", "2")[:size], k, n, homogeneous=hom)
                 for size in (2, 3) for k in (1, 2) for n in range(k + 1, 6)
                 for hom in (False, True)]
        specs += [make_illness_death(), make_illness_death(homogeneous=True),
                  make_survival(), make_vc_chain(5), ModelSpec(["0"], 1, 2, absorbing=["0"]),
                  ModelSpec(["0", "1"], 1, 3, absorbing=["1"]),
                  ModelSpec(["0", "1"], 1, 3, forbidden=[("0", "0")]),
                  ModelSpec(["0", "1"], 2, 3, initial=[["0", "0"], ["1", "1"]])]
        specs += [parse_model_spec(DATA / f"{name}.yaml") for name in BUNDLED_SPECS]
        for spec in specs:
            every = len(enumerate_paths(spec)) == len(spec.states) ** spec.horizon
            assert (slice_linear_generators(spec) == ()) == every, repr(spec)


class TestHomogeneousFamily:
    def test_rejects_nonhomogeneous_spec(self, illness_death):
        with pytest.raises(RelationError):
            homogeneous_family(illness_death)

    def test_all_emitted_pass_kernel(self, illness_death_hom):
        table = enumerate_paths(illness_death_hom)
        design = build_design_matrix(illness_death_hom, table)
        rs = homogeneous_family(illness_death_hom)
        assert len(rs) > 0
        for b in rs.binomials:
            assert kernel_membership(b, design).ok

    def test_mismatched_boundary_swap_not_emitted(self):
        # exchanging different positions with clipped context is unsound:
        # p_001 p_110 - p_101 p_100 is NOT in the pooled kernel
        spec = make_binary_chain(1, 3, homogeneous=True)
        table = enumerate_paths(spec)
        design = build_design_matrix(spec, table)
        bad = canonicalize(
            {table.index(("0", "0", "1")): 1, table.index(("1", "1", "0")): 1},
            {table.index(("1", "0", "1")): 1, table.index(("1", "0", "0")): 1})
        assert not kernel_membership(bad, design).ok
        assert bad not in set(homogeneous_family(spec).binomials)

    def test_same_position_boundary_swap_emitted(self):
        # swapping the last symbol of two paths with a shared final window
        # is sound even though the right context is clipped to nothing
        spec = make_binary_chain(1, 3, homogeneous=True)
        table = enumerate_paths(spec)
        b = canonicalize(
            {table.index(("0", "0", "1")): 1, table.index(("1", "0", "0")): 1},
            {table.index(("0", "0", "0")): 1, table.index(("1", "0", "1")): 1})
        assert b in set(homogeneous_family(spec).binomials)

    def test_squares_can_appear(self):
        # p_010^2 - p_011 p_110-type relations use one path twice
        spec = make_binary_chain(1, 4, homogeneous=True)
        rs = homogeneous_family(spec)
        assert any(e == 2 for b in rs.binomials for _, e in b.plus + b.minus)


MAX_PATHS = 150


@st.composite
def restricted_specs(draw, homogeneous):
    """Specs with 2-4 states in a shuffled declaration order, k in {1, 2},
    optional forbidden pairs, absorbing state and restricted initial set;
    n <= k + 4, lowered until the table has <= MAX_PATHS."""
    nstates = draw(st.integers(2, 4))
    states = draw(st.permutations([str(i) for i in range(nstates)]))
    k = draw(st.integers(1, 2))
    forbidden = draw(st.lists(st.tuples(st.sampled_from(states), st.sampled_from(states)),
                              max_size=3, unique=True))
    absorbing = draw(st.lists(st.sampled_from(states), max_size=1))
    if any((s, s) in forbidden for s in absorbing):
        absorbing = []
    rules = dict(forbidden=forbidden, absorbing=absorbing, homogeneous=homogeneous)
    histories = ModelSpec(states, k, k + 1, **rules).initial_blocks
    initial = draw(st.none() | st.lists(st.sampled_from(histories), min_size=1,
                                       unique=True))
    n = draw(st.integers(k + 1, k + 4))
    spec = ModelSpec(states, k, n, initial=initial, **rules)
    while n > k + 1 and len(enumerate_paths(spec)) > MAX_PATHS:
        n -= 1
        spec = ModelSpec(states, k, n, initial=initial, **rules)
    return spec


@settings(max_examples=60, deadline=None)
@given(restricted_specs(homogeneous=False))
@example(make_illness_death())
@example(ModelSpec(["2", "0", "3", "1"], 1, 5, forbidden=[("1", "0"), ("2", "0")],
                   absorbing=["3"], initial=["0", "1"]))
@example(ModelSpec(["1", "0"], 2, 6, initial=[("0", "1"), ("1", "1")]))
def test_nonhomogeneous_generators_keep_the_split_loop_order(spec):
    # ordered tuples, not sets: relation indices are part of the output
    table = enumerate_paths(spec)
    got = nonhomogeneous_generators(spec)
    want = nonhomogeneous_generators_reference(spec, table)
    assert got.binomials == want.binomials
    assert got.provenance == want.provenance


@settings(max_examples=60, deadline=None)
@given(restricted_specs(homogeneous=True))
@example(make_vc_chain(6))
@example(ModelSpec(["2", "0", "3", "1"], 1, 5, forbidden=[("1", "0"), ("2", "0")],
                   absorbing=["3"], initial=["0", "1"], homogeneous=True))
@example(ModelSpec(["1", "0"], 3, 7, homogeneous=True))
def test_homogeneous_family_keeps_the_all_pairs_order(spec):
    # ordered tuples, not sets: relation indices are part of the output
    table = enumerate_paths(spec)
    got = homogeneous_family(spec)
    want = homogeneous_family_reference(spec, table)
    assert got.binomials == want.binomials
    assert got.provenance == want.provenance


@settings(max_examples=60, deadline=None)
@given(restricted_specs(homogeneous=True))
@example(make_binary_chain(1, 4, homogeneous=True))
@example(make_vc_chain(6))
@example(parse_model_spec(DATA / "hom_linear.yaml"))
def test_fibers_index_the_permutation_classes(spec):
    table = enumerate_paths(spec)
    fibers = build_design_matrix(spec, table).fibers()
    assert sorted(j for f in fibers for j in f) == list(range(len(table)))
    # paths share a fiber exactly when their oracle tallies on the free
    # rows (A') are equal, and the groups come in the same (table) order
    classes = permutation_classes(spec, table)
    assert fibers == classes
    # the relations as the class scan gives them, ordered by representative
    want = tuple(sorted((canonicalize({rep: 1}, {other: 1})
                         for rep, *others in classes for other in others),
                        key=lambda b: b.plus))
    got = permutation_linear_relations(spec)
    assert got.binomials == want
    assert got.provenance == ("hom-linear",) * len(want)


class TestPermutationLinearRelations:
    def test_equal_statistics_paths_are_linked(self):
        spec = make_binary_chain(1, 5, homogeneous=True)
        table = enumerate_paths(spec)
        rs = permutation_linear_relations(spec)
        expected = canonicalize(
            {table.index(("0", "0", "1", "1", "0")): 1},
            {table.index(("0", "1", "1", "0", "0")): 1})
        assert expected in set(rs.binomials)
        assert all(b.degree() == 1 for b in rs.binomials)

    def test_no_relations_at_short_horizon(self):
        # with n = 3 all paths have distinct pooled statistics
        spec = make_binary_chain(1, 3, homogeneous=True)
        assert len(permutation_linear_relations(spec)) == 0

    def test_nonhomogeneous_spec_rejected(self):
        with pytest.raises(RelationError, match="^permutation relations exist "
                                                "only for homogeneous specs$"):
            permutation_linear_relations(make_binary_chain(1, 5))

    def test_all_emitted_pass_kernel(self):
        spec = make_binary_chain(1, 5, homogeneous=True)
        table = enumerate_paths(spec)
        design = build_design_matrix(spec, table)
        for b in permutation_linear_relations(spec).binomials:
            assert kernel_membership(b, design).ok

    def test_paths_equal_up_to_forced_windows_are_linked(self):
        # 01012 and 01210 both use the free windows 10 and 12 once; only
        # the forced windows 01 and 21 (rows of one entry) tell them apart
        spec = parse_model_spec(DATA / "hom_linear.yaml")
        rs = generators_for(spec)
        assert rs.text_lines()[:2] == [
            "p_01010*p_01212 - p_01012*p_01210  [hom-exchange]",
            "p_01012 - p_01210  [hom-linear]"]
        report = verify_relation_set(rs, spec, trials=20, seed=0)
        assert report.entries[1].vanish.ok and report.entries[1].kernel.ok
        assert report.all_pass


class TestGeneratorsFor:
    def test_nonhomogeneous_dispatch(self, illness_death):
        rs = generators_for(illness_death)
        assert set(rs.provenance) == {"nonhom-exchange"}

    def test_homogeneous_dispatch_merges_families(self):
        spec = make_binary_chain(1, 5, homogeneous=True)
        rs = generators_for(spec)
        assert "hom-exchange" in rs.provenance
        assert "hom-linear" in rs.provenance

    def test_restricted_homogeneous_gets_slice(self, illness_death_hom):
        rs = generators_for(illness_death_hom)
        assert len(rs.slice_paths) == 3 ** 4 - 14

    @pytest.mark.parametrize("name", BUNDLED_SPECS)
    def test_families_plus_slice(self, name):
        # each family returns only its binomials; generators_for joins
        # them in family order and attaches the slice once
        spec = parse_model_spec(DATA / f"{name}.yaml")
        table = enumerate_paths(spec)
        families = ((homogeneous_family, permutation_linear_relations)
                    if spec.homogeneous else (nonhomogeneous_generators,))
        sets = [family(spec) for family in families]
        assert all(rs.slice_paths == () for rs in sets)
        rs = generators_for(spec, table)
        assert list(rs) == [pair for fam in sets for pair in fam]
        assert rs.slice_paths == slice_linear_generators(spec)


class TestRelationSet:
    def test_text_lines_cover_relations_and_slice(self, illness_death):
        rs = generators_for(illness_death)
        lines = rs.text_lines()
        assert len(lines) == len(rs) + len(rs.slice_paths)
        assert any("[slice]" in line for line in lines)

    def test_tagged_filters_by_provenance(self):
        spec = make_binary_chain(1, 5, homogeneous=True)
        rs = generators_for(spec)
        linear = [b for b, t in rs if t == "hom-linear"]
        assert linear
        assert all(b.degree() == 1 for b in linear)
