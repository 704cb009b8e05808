import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from markovtoric import (
    Binomial,
    ModelSpec,
    ParameterError,
    RelationError,
    RelationSet,
    build_design_matrix,
    canonicalize,
    enumerate_paths,
    generators_for,
    kernel_membership,
    nonhomogeneous_generators,
    sample_parameters,
    validate_parameters,
    vanishes_on_model,
    verify_relation_set,
)
from markovtoric.iofiles import parse_model_spec
from markovtoric.verify import NONZERO, VANISHES, Witness, _draw_weights
from conftest import DATA, make_binary_chain, make_vc_chain
from oracles import (
    assignment_from_parameters,
    block_counts,
    evaluate_binomial,
    free_block_counts,
    free_fiber_pairs,
    randint_weights,
)
from test_model import small_specs


class TestSampleParameters:
    def test_samples_are_valid_points(self, illness_death):
        params = sample_parameters(illness_death, seed=0)
        assert validate_parameters(illness_death, params) == []

    def test_deterministic_in_seed(self, illness_death):
        a = sample_parameters(illness_death, seed=42)
        b = sample_parameters(illness_death, seed=42)
        assert a.values == b.values

    def test_different_seeds_differ(self, illness_death):
        a = sample_parameters(illness_death, seed=1)
        b = sample_parameters(illness_death, seed=2)
        assert a.values != b.values

    def test_string_seeds_accepted(self, illness_death):
        sample_parameters(illness_death, seed="0:3:1")

    def test_pinned_point(self, illness_death):
        # the sampling stream's values, recorded when each weight was a
        # random.Random.randint call; a change of stream changes them
        F = Fraction
        assert sample_parameters(illness_death, "0:3:1").values == {
            ("pi", ("0",)): F(2, 7), ("pi", ("1",)): F(5, 7),
            ("a", 2, ("0",), "0"): F(49, 120), ("a", 2, ("0",), "1"): F(47, 120),
            ("a", 2, ("0",), "2"): F(1, 5),
            ("a", 2, ("1",), "1"): F(33, 109), ("a", 2, ("1",), "2"): F(76, 109),
            ("a", 2, ("2",), "2"): F(1),
            ("a", 3, ("0",), "0"): F(88, 169), ("a", 3, ("0",), "1"): F(51, 169),
            ("a", 3, ("0",), "2"): F(30, 169),
            ("a", 3, ("1",), "1"): F(49, 96), ("a", 3, ("1",), "2"): F(47, 96),
            ("a", 3, ("2",), "2"): F(1),
            ("a", 4, ("0",), "0"): F(1, 3), ("a", 4, ("0",), "1"): F(32, 89),
            ("a", 4, ("0",), "2"): F(82, 267),
            ("a", 4, ("1",), "1"): F(94, 123), ("a", 4, ("1",), "2"): F(29, 123),
            ("a", 4, ("2",), "2"): F(1),
        }

    @pytest.mark.parametrize("seed", [None, (1, 2), [3], frozenset({4}), object()],
                             ids=["None", "tuple", "list", "frozenset", "object"])
    def test_a_seed_random_does_not_accept_is_refused(self, illness_death, seed):
        # None would draw from OS entropy, so it is no seed either
        with pytest.raises(ParameterError, match="^seed must be an int, float, str, "
                                                 "bytes or bytearray, got "):
            sample_parameters(illness_death, seed)

    @pytest.mark.parametrize("seed", [0, True, 2.5, "s:1:2", b"ab", bytearray(b"ab")])
    def test_every_seed_type_random_accepts_is_deterministic(self, illness_death, seed):
        assert (sample_parameters(illness_death, seed).values
                == sample_parameters(illness_death, seed).values)

    def test_strictly_positive_on_support(self, illness_death):
        params = sample_parameters(illness_death, seed=5)
        assert set(params.values) == set(illness_death.symbols())
        assert all(v > 0 for v in params.values.values())

    def test_a_row_wider_than_the_weight_range_samples(self):
        # 98 initial states: one row wider than the 97 weights, so its
        # weights repeat; the spec's 98**2 paths are never enumerated
        spec = ModelSpec([str(i) for i in range(98)], 1, 2)
        params = sample_parameters(spec, seed=0)
        assert validate_parameters(spec, params) == []
        assert set(params.values) == set(spec.symbols())
        assert all(v > 0 for v in params.values.values())


class TestEvaluateBinomial:
    def test_exact_residual(self):
        b = canonicalize({0: 1}, {1: 1})
        res = evaluate_binomial(b, {0: Fraction(1, 2), 1: Fraction(1, 3)})
        assert res == Fraction(1, 6)

    def test_missing_index_raises(self):
        b = canonicalize({0: 1}, {1: 1})
        with pytest.raises(RelationError):
            evaluate_binomial(b, {0: Fraction(1, 2)})


class TestVanishesOnModel:
    def test_member_vanishes(self, illness_death):
        table = enumerate_paths(illness_death)
        rs = nonhomogeneous_generators(illness_death)
        check = vanishes_on_model(rs.binomials[0], illness_death, table,
                                  trials=20, seed=0)
        assert check.ok and check.witness is None

    def test_non_member_caught_with_witness(self):
        # a_00 + a_11 pooled at the last level differs from a_01 + a_10
        spec = make_binary_chain(1, 4)
        table = enumerate_paths(spec)
        bad = canonicalize(
            {table.index(("0", "0", "0", "0")): 1,
             table.index(("1", "1", "1", "1")): 1},
            {table.index(("0", "0", "0", "1")): 1,
             table.index(("1", "1", "1", "0")): 1})
        check = vanishes_on_model(bad, spec, table, trials=20, seed=0)
        assert not check.ok
        assert check.witness is not None
        assert check.witness.residual != 0

    def test_table_defaults_to_the_spec_paths(self, illness_death):
        table = enumerate_paths(illness_death)
        for b in nonhomogeneous_generators(illness_death).binomials[:2] + (
                canonicalize({0: 1, 5: 1}, {1: 1, 4: 1}),):
            assert (vanishes_on_model(b, illness_death, trials=5, seed=3)
                    == vanishes_on_model(b, illness_death, table, trials=5, seed=3))

    def test_pinned_witness(self):
        # recorded when each weight was a random.Random.randint call:
        # trial 0 vanishes by chance, so the witness is trial 1
        spec = make_binary_chain(1, 4)
        table = enumerate_paths(spec)
        bad = canonicalize(
            {table.index(("0", "0", "0", "0")): 1,
             table.index(("1", "1", "1", "1")): 1},
            {table.index(("0", "0", "0", "1")): 1,
             table.index(("1", "1", "1", "0")): 1})
        check = vanishes_on_model(bad, spec, table, trials=20, seed=9,
                                  relation_index=2416)
        assert check.witness == Witness(1, Fraction(17790993, 350346904576))

    def test_deterministic_witness(self):
        spec = make_binary_chain(1, 4)
        table = enumerate_paths(spec)
        bad = canonicalize(
            {table.index(("0", "0", "0", "0")): 1,
             table.index(("1", "1", "1", "1")): 1},
            {table.index(("0", "0", "0", "1")): 1,
             table.index(("1", "1", "1", "0")): 1})
        c1 = vanishes_on_model(bad, spec, table, trials=5, seed=9)
        c2 = vanishes_on_model(bad, spec, table, trials=5, seed=9)
        assert c1 == c2

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, trials):
        spec = make_binary_chain(1, 4)
        table = enumerate_paths(spec)
        bad = canonicalize(
            {table.index(("0", "0", "0", "0")): 1,
             table.index(("1", "1", "1", "1")): 1},
            {table.index(("0", "0", "0", "1")): 1,
             table.index(("1", "1", "1", "0")): 1})
        with pytest.raises(ParameterError, match="trials must be at least 1"):
            vanishes_on_model(bad, spec, table, trials=trials)
        rs = RelationSet(table, (bad,), ("file",))
        with pytest.raises(ParameterError, match="trials must be at least 1"):
            verify_relation_set(rs, spec, trials=trials)

    @pytest.mark.parametrize("trials", [True, 2.5, "3"])
    def test_trials_that_are_not_integers_rejected(self, trials):
        spec = make_binary_chain(1, 4)
        table = enumerate_paths(spec)
        b = canonicalize({table.index(("0", "0", "1", "0")): 1},
                         {table.index(("0", "1", "0", "0")): 1})
        message = f"^trials must be an integer, got {re.escape(repr(trials))}$"
        with pytest.raises(ParameterError, match=message):
            vanishes_on_model(b, spec, table, trials=trials)
        with pytest.raises(ParameterError, match=message):
            verify_relation_set(RelationSet(table, (b,), ("file",)), spec, trials=trials)

    @pytest.mark.parametrize("index", [-1, 99])
    def test_path_index_out_of_range_rejected(self, index):
        spec = make_binary_chain(1, 4)
        table = enumerate_paths(spec)
        b = Binomial(((index, 1),), ((0, 1),))
        message = rf"path index {index} out of range 0\.\.{len(table) - 1}"
        with pytest.raises(RelationError, match=message):
            vanishes_on_model(b, spec, table, trials=2)
        with pytest.raises(RelationError, match=message):
            kernel_membership(b, build_design_matrix(spec, table))

    def test_relation_index_shifts_the_stream(self, illness_death):
        # the sampled points for different relation indices differ
        p0 = sample_parameters(illness_death, "7:0:0")
        p1 = sample_parameters(illness_death, "7:1:0")
        assert p0.values != p1.values


class TestKernelMembership:
    def test_member(self, illness_death):
        table = enumerate_paths(illness_death)
        design = build_design_matrix(illness_death, table)
        rs = nonhomogeneous_generators(illness_death)
        kc = kernel_membership(rs.binomials[0], design)
        assert kc.ok
        assert all(r == 0 for r in kc.residual)

    def test_non_member_has_nonzero_residual(self):
        spec = make_binary_chain(1, 4)
        table = enumerate_paths(spec)
        design = build_design_matrix(spec, table)
        bad = canonicalize(
            {table.index(("0", "0", "0", "0")): 1,
             table.index(("1", "1", "1", "1")): 1},
            {table.index(("0", "0", "0", "1")): 1,
             table.index(("1", "1", "1", "0")): 1})
        kc = kernel_membership(bad, design)
        assert not kc.ok
        assert any(r != 0 for r in kc.residual)


class TestVerifyRelationSet:
    @pytest.mark.parametrize("seed", [None, [1], (1, 2), object()],
                             ids=["None", "list", "tuple", "object"])
    @pytest.mark.parametrize("entry", ["verify_relation_set", "vanishes_on_model"])
    def test_a_seed_sample_parameters_refuses_is_refused(self, illness_death, entry,
                                                         seed):
        # str(seed) would otherwise name a fixed stream, as "None:0:0" does
        rs = generators_for(illness_death)
        text = re.escape(f"seed must be an int, float, str, bytes or bytearray, "
                         f"got {seed!r}")
        with pytest.raises(ParameterError, match=f"^{text}$"):
            if entry == "verify_relation_set":
                verify_relation_set(rs, illness_death, trials=1, seed=seed)
            else:
                vanishes_on_model(rs.binomials[0], illness_death, rs.table, trials=1,
                                  seed=seed)

    def test_generated_families_verify(self, illness_death):
        rs = generators_for(illness_death)
        report = verify_relation_set(rs, illness_death, trials=5, seed=0)
        assert report.all_pass
        assert report.agreement
        assert len(report.entries) == len(rs)

    def test_routes_agree_even_on_failures(self):
        spec = make_binary_chain(1, 4)
        table = enumerate_paths(spec)
        good = nonhomogeneous_generators(spec).binomials[0]
        bad = canonicalize(
            {table.index(("0", "0", "0", "0")): 1,
             table.index(("1", "1", "1", "1")): 1},
            {table.index(("0", "0", "0", "1")): 1,
             table.index(("1", "1", "1", "0")): 1})
        from markovtoric import RelationSet
        rs = RelationSet(table, (good, bad), ("file", "file"))
        report = verify_relation_set(rs, spec, trials=20, seed=3)
        assert not report.all_pass
        assert report.agreement
        assert [e.ok for e in report.entries] == [True, False]
        assert len(report.failures()) == 1

    @staticmethod
    def _competing_risks_probe():
        # two absorbing causes of death: a22 = a33 = 1 on the whole model,
        # so trading a 22 window for a 33 window leaves p unchanged, while
        # the full design matrix still counts both windows
        spec = parse_model_spec(DATA / "competing_risks.yaml")
        table = enumerate_paths(spec)
        at = {"".join(p): j for j, p in enumerate(table)}
        probe = canonicalize({at["0002"]: 1, at["0033"]: 1},
                             {at["0003"]: 1, at["0022"]: 1})
        return spec, RelationSet(table, (probe,), ("file",))

    def test_forced_row_trade_vanishes_on_model(self):
        spec, rs = self._competing_risks_probe()
        assert vanishes_on_model(rs.binomials[0], spec, rs.table, trials=20).ok

    def test_forced_row_trade_passes_both_routes(self):
        spec, rs = self._competing_risks_probe()
        report = verify_relation_set(rs, spec, trials=20, seed=0)
        assert report.entries[0].vanish.ok
        assert report.entries[0].kernel.ok

    def test_every_competing_risks_candidate_passes_both_routes(self):
        # every degree-2 binomial whose sides have equal A' statistics;
        # 13 of them trade forced windows, so their full statistics differ
        spec, rs = self._competing_risks_probe()
        table = rs.table
        full = [Counter(block_counts(spec, p)) for p in table]
        forced = {}
        for m1, m2 in free_fiber_pairs(spec, table):
            b = canonicalize(Counter(m1), Counter(m2))
            if b.degree() == 2:
                forced[b] = full[m1[0]] + full[m1[1]] != full[m2[0]] + full[m2[1]]
        assert len(forced) == 43
        trades = {b.text(table) for b, f in forced.items() if f}
        assert len(trades) == 13
        assert {"p_0002*p_0033 - p_0003*p_0022",
                "p_0112*p_0133 - p_0113*p_0122"} <= trades
        candidates = sorted(forced, key=lambda b: (b.plus, b.minus))
        relset = RelationSet(table, tuple(candidates), ("scan",) * len(candidates))
        report = verify_relation_set(relset, spec, trials=20, seed=0)
        assert [(e.vanish.ok, e.kernel.ok) for e in report.entries] == [(True, True)] * 43
        assert report.agreement

    def test_each_entry_is_the_relation_checked_alone(self):
        # the set reads each path's factors once; every verdict and
        # witness is still the one vanishes_on_model gives on its own
        spec = make_binary_chain(1, 4)
        table = enumerate_paths(spec)
        members = nonhomogeneous_generators(spec).binomials[:12]
        bad = [canonicalize(Counter((a, b)), Counter((c, d)))
               for a, b, c, d in ((0, 15, 1, 14), (0, 1, 2, 4), (3, 3, 5, 6))]
        binomials = members[:6] + tuple(bad) + members[6:]
        relset = RelationSet(table, binomials, ("file",) * len(binomials))
        report = verify_relation_set(relset, spec, trials=6, seed="s")
        assert [e.vanish.ok for e in report.entries] == [True] * 6 + [False] * 3 + [True] * 6
        for idx, (b, entry) in enumerate(zip(binomials, report.entries)):
            assert entry.vanish == vanishes_on_model(b, spec, table, 6, "s", idx)

    @pytest.mark.parametrize("index", [-1, 16, 99])
    def test_an_index_out_of_range_after_read_paths_rejected(self, index):
        spec = make_binary_chain(1, 4)
        table = enumerate_paths(spec)
        good = nonhomogeneous_generators(spec).binomials[0]
        b = Binomial(((index, 1),), ((good.plus[0][0], 1),))
        relset = RelationSet(table, (good, b), ("file", "file"))
        message = rf"^path index {index} out of range 0\.\.15$"
        with pytest.raises(RelationError, match=message):
            verify_relation_set(relset, spec, trials=2)

    def test_a_design_of_another_spec_is_rejected(self, illness_death,
                                                  illness_death_hom,
                                                  reversible_illness_death):
        relset = generators_for(illness_death)
        other_table = build_design_matrix(reversible_illness_death)
        with pytest.raises(RelationError, match="tables differ"):
            verify_relation_set(relset, illness_death, design=other_table)
        other_rows = build_design_matrix(illness_death_hom, relset.table)
        with pytest.raises(RelationError, match="parameter symbols"):
            verify_relation_set(relset, illness_death, design=other_rows)
        same = build_design_matrix(illness_death, enumerate_paths(illness_death))
        assert verify_relation_set(relset, illness_death, design=same).all_pass

    def test_report_is_deterministic(self, illness_death):
        rs = generators_for(illness_death)
        r1 = verify_relation_set(rs, illness_death, trials=4, seed=11)
        r2 = verify_relation_set(rs, illness_death, trials=4, seed=11)
        assert r1 == r2

    def test_summary_mentions_counts(self, illness_death):
        rs = generators_for(illness_death)
        report = verify_relation_set(rs, illness_death, trials=2, seed=0)
        assert f"{len(rs)}/{len(rs)}" in report.summary()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_assignment_values_are_probabilities(seed):
    spec = make_binary_chain(1, 3)
    table = enumerate_paths(spec)
    params = sample_parameters(spec, seed)
    assignment = assignment_from_parameters(spec, params, table)
    assert sum(assignment.values()) == 1
    assert all(0 < v < 1 for v in assignment.values())


@settings(max_examples=80, deadline=None)
@given(widths=st.lists(st.one_of(st.sampled_from([1, 2, 97, 98, 200]),
                                 st.integers(min_value=0, max_value=12)),
                       min_size=1, max_size=6),
       seed=st.one_of(
           st.integers(min_value=-10**6, max_value=10**20),
           st.text(max_size=8),
           st.builds("{}:{}:{}".format, st.integers(0, 10**6) | st.text(max_size=3),
                     st.integers(0, 10**4), st.integers(0, 40))))
@example(widths=[1, 2, 97, 98, 200], seed=0)
@example(widths=[200, 98, 97, 2, 1], seed="1:0:0")
@example(widths=[0, 0, 0], seed=1)
@example(widths=[300], seed=4)  # the first bulk draw falls short: a refill
@example(widths=[3], seed=2)  # the first two draws are rejected
def test_weights_are_the_randint_stream(widths, seed):
    assert [list(row) for row in _draw_weights(widths, seed)] == \
        randint_weights(widths, seed)


def _fraction_route(binomial, spec, table, trials, seed, idx):
    """The numeric route evaluated with Fractions: one sampled parameter
    point per trial, every path probability, then the exact residual."""
    for t in range(trials):
        params = sample_parameters(spec, f"{seed}:{idx}:{t}")
        assignment = assignment_from_parameters(spec, params, table)
        residual = evaluate_binomial(binomial, assignment)
        if residual != 0:
            return NONZERO, t, residual
    return VANISHES, None, None


def _window_statistics(spec, path):
    k = spec.order
    stats = Counter({path[:k]: 1})
    for end in range(k, len(path)):
        level = None if spec.homogeneous else end + 1
        stats[(level, path[end - k:end + 1])] += 1
    return stats


def _equivalence_case(spec):
    table = enumerate_paths(spec)
    stats = [_window_statistics(spec, p) for p in table]
    return spec, table, generators_for(spec, table).binomials, stats


EQUIVALENCE_CASES = [
    _equivalence_case(ModelSpec(["0", "1", "2"], 1, 4)),
    _equivalence_case(make_binary_chain(1, 5, homogeneous=True)),
    _equivalence_case(make_vc_chain(5)),
]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(EQUIVALENCE_CASES),
       seed=st.one_of(st.integers(min_value=0, max_value=10**6),
                      st.text(max_size=4)),
       idx=st.integers(min_value=0, max_value=10_000),
       member=st.booleans(),
       quadric=st.tuples(*[st.integers(min_value=0, max_value=10_000)] * 4),
       trials=st.integers(min_value=1, max_value=4))
def test_integer_route_matches_fraction_route(case, seed, idx, member,
                                              quadric, trials):
    spec, table, members, stats = case
    if member:
        binomial = members[idx % len(members)]
    else:
        # p_a p_b - p_c p_d with unequal window statistics on the two
        # sides vanishes nowhere on the model
        a, b, c, d = (q % len(table) for q in quadric)
        assume(stats[a] + stats[b] != stats[c] + stats[d])
        binomial = canonicalize(Counter((a, b)), Counter((c, d)))
    check = vanishes_on_model(binomial, spec, table, trials=trials,
                              seed=seed, relation_index=idx)
    status, trial, residual = _fraction_route(binomial, spec, table, trials,
                                              seed, idx)
    assert check.status == status
    if check.witness is None:
        assert trial is None
    else:
        assert (check.witness.trial, check.witness.residual) == (trial, residual)


COMPETING_RISKS = parse_model_spec(DATA / "competing_risks.yaml")


@settings(max_examples=60, deadline=None)
@given(spec=small_specs(), kind=st.sampled_from(["forced", "fiber", "random"]),
       pick=st.integers(0, 10**6), quadric=st.tuples(*[st.integers(0, 10**4)] * 4),
       seed=st.integers(0, 10**6))
@example(spec=COMPETING_RISKS, kind="forced", pick=0, quadric=(0, 0, 0, 0), seed=0)
def test_kernel_route_tests_the_free_rows(spec, kind, pick, quadric, seed):
    # p_a p_b - p_c p_d vanishes on the model exactly when both sides
    # have equal A' statistics: both routes pass then, and both fail
    # otherwise.  A pair is drawn from the degree-2 fibers of A' (its
    # "forced" pairs trade forced windows, so their full statistics
    # differ) or at random.
    table = enumerate_paths(spec)
    assume(2 <= len(table) <= 150)
    free = [free_block_counts(spec, p) for p in table]
    full = [Counter(block_counts(spec, p)) for p in table]
    pairs = free_fiber_pairs(spec, table)
    if kind == "forced":
        pairs = [(m1, m2) for m1, m2 in pairs
                 if full[m1[0]] + full[m1[1]] != full[m2[0]] + full[m2[1]]]
    if kind != "random" and pairs:
        (a, b), (c, d) = pairs[pick % len(pairs)]
    else:
        a, b, c, d = (q % len(table) for q in quadric)
        assume(sorted((a, b)) != sorted((c, d)))
    binomial = canonicalize(Counter((a, b)), Counter((c, d)))
    equal = free[a] + free[b] == free[c] + free[d]
    check = vanishes_on_model(binomial, spec, table, trials=20, seed=seed)
    kernel = kernel_membership(binomial, build_design_matrix(spec, table))
    assert (check.ok, kernel.ok) == (equal, equal)
