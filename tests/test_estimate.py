import random
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from markovtoric import (
    CountVector,
    EstimationError,
    InadmissiblePathError,
    ModelSpec,
    ParameterPoint,
    RelationError,
    TrajectorySet,
    birch_residual,
    build_design_matrix,
    counts_from_trajectories,
    enumerate_paths,
    fitted_path_probabilities,
    loglikelihood,
    mle_homogeneous,
    mle_nonhomogeneous,
    mle_paths_hierarchical,
    path_probability,
    recover_parameters,
    sample_parameters,
    validate_parameters,
)
from conftest import (
    make_binary_chain,
    make_illness_death,
    make_survival,
    make_vc_chain,
)
from oracles import assignment_from_parameters, birch_residual_reference, mle_reference
from reference_data import (
    WORKED_COUNTS,
    WORKED_PATHS,
    WORKED_PI,
    WORKED_POOLED_ROWS,
)
from test_model import small_specs


def worked_trajectories():
    paths = tuple(tuple(p) for p in WORKED_PATHS)
    return TrajectorySet(tuple(zip(paths, WORKED_COUNTS)))


class TestTrajectorySet:
    def test_ragged_lengths_rejected(self):
        with pytest.raises(EstimationError):
            TrajectorySet(((("0", "0"), 1), (("0", "0", "1"), 1)))

    def test_nonpositive_multiplicity_rejected(self):
        with pytest.raises(EstimationError):
            TrajectorySet(((("0", "0"), 0),))

    def test_empty_rejected(self):
        with pytest.raises(EstimationError):
            TrajectorySet(())

    @pytest.mark.parametrize("mult", [2.9, 1.5, 0.5, True, "3", Fraction(2)])
    def test_multiplicity_that_is_not_an_int_rejected(self, mult):
        with pytest.raises(EstimationError) as err:
            TrajectorySet(((("0", "0"), mult),))
        assert f"multiplicity {mult!r} is not an integer" in str(err.value)

    def test_total_weights_multiplicities(self):
        trajs = worked_trajectories()
        assert trajs.total == 685
        assert trajs.length == 4

    def test_from_sequences_aggregates_in_first_seen_order(self):
        trajs = TrajectorySet.from_sequences(
            [("0", "1"), ("0", "0"), ("0", "1")])
        assert trajs.records == ((("0", "1"), 2), (("0", "0"), 1))

    def test_check_names_the_offending_record(self, illness_death):
        trajs = TrajectorySet(((("0", "0", "0", "0"), 1),
                               (("1", "0", "0", "0"), 2)))
        with pytest.raises(EstimationError) as err:
            trajs.check(illness_death)
        assert "record 2" in str(err.value)

    def test_check_passes_valid_data(self, illness_death):
        assert worked_trajectories().check(illness_death) is not None

    def test_check_applies_the_spec_rules_at_the_set_length(self, illness_death):
        # records shorter than the spec's horizon are checked at their own
        # length: initial block and transitions still count
        assert TrajectorySet(((("0", "1"), 1),)).check(illness_death) is not None
        with pytest.raises(EstimationError, match=r"record 1: transition \('1',\)"):
            TrajectorySet(((("1", "0"), 1),)).check(illness_death)
        with pytest.raises(EstimationError, match="record 2: initial block"):
            TrajectorySet(((("0", "1"), 1), (("2", "2"), 1))).check(illness_death)
        with pytest.raises(EstimationError) as err:
            TrajectorySet(((("0",), 1),)).check(illness_death)
        assert "length 1" in str(err.value)


class TestCountVector:
    def test_length_mismatch_rejected(self, illness_death):
        table = enumerate_paths(illness_death)
        with pytest.raises(EstimationError):
            CountVector(table, (1, 2, 3))

    def test_negative_count_rejected(self, illness_death):
        table = enumerate_paths(illness_death)
        with pytest.raises(EstimationError):
            CountVector(table, tuple([-1] + [0] * 13))

    @pytest.mark.parametrize("count", [2.9, 1.5, 0.5, True, False, "3"])
    def test_count_that_is_not_an_int_rejected(self, illness_death, count):
        table = enumerate_paths(illness_death)
        with pytest.raises(EstimationError) as err:
            CountVector(table, tuple([count] + [0] * 13))
        assert f"count {count!r} is not an integer" in str(err.value)

    def test_total_and_indexing(self, illness_death):
        table = enumerate_paths(illness_death)
        cv = CountVector(table, tuple(WORKED_COUNTS))
        assert cv.total == 685
        assert cv[0] == 94


class TestCountsFromTrajectories:
    def test_worked_example_counts(self, illness_death):
        cv = counts_from_trajectories(worked_trajectories(), illness_death)
        assert cv.counts == WORKED_COUNTS

    def test_prefix_convention_on_longer_trajectories(self, illness_death):
        trajs = TrajectorySet(((("0", "0", "1", "1", "2"), 3),))
        cv = counts_from_trajectories(trajs, illness_death, n=4)
        table = cv.table
        assert cv[table.index(("0", "0", "1", "1"))] == 3
        assert cv.total == 3

    def test_n_beyond_data_rejected(self, illness_death):
        with pytest.raises(EstimationError):
            counts_from_trajectories(worked_trajectories(), illness_death, n=5)

    @pytest.mark.parametrize("n", [3.9, "3", True])
    @pytest.mark.parametrize("fit", ["counts", "nonhomogeneous", "homogeneous"])
    def test_n_that_is_not_an_int_rejected(self, fit, n):
        # n is never truncated or parsed: 3.9 and "3" are not horizon 3
        call = {"counts": counts_from_trajectories,
                "nonhomogeneous": mle_nonhomogeneous,
                "homogeneous": mle_homogeneous}[fit]
        spec = make_illness_death(homogeneous=fit == "homogeneous")
        with pytest.raises(EstimationError) as err:
            call(worked_trajectories(), spec, n=n)
        assert f"n {n!r} is not an integer" in str(err.value)

    def test_identical_trajectories_accumulate(self, illness_death):
        trajs = TrajectorySet.from_sequences(
            [("0", "0", "0", "0"), ("0", "0", "0", "0")])
        cv = counts_from_trajectories(trajs, illness_death)
        assert cv[cv.table.index(("0", "0", "0", "0"))] == 2


class TestMleNonhomogeneous:
    def test_worked_example_level2_rows(self, illness_death):
        est = mle_nonhomogeneous(worked_trajectories(), illness_death)
        assert est.values[("pi", ("0",))] == Fraction(469, 685)
        assert est.values[("pi", ("1",))] == Fraction(216, 685)
        assert est.values[("a", 2, ("0",), "0")] == Fraction(313, 469)
        assert est.values[("a", 2, ("0",), "1")] == Fraction(117, 469)
        assert est.values[("a", 2, ("0",), "2")] == Fraction(39, 469)
        assert est.values[("a", 2, ("1",), "1")] == Fraction(171, 216)
        assert est.values[("a", 2, ("1",), "2")] == Fraction(45, 216)

    def test_rows_sum_to_one_where_defined(self, illness_death):
        est = mle_nonhomogeneous(worked_trajectories(), illness_death)
        for level in (2, 3, 4):
            for h in illness_death.histories:
                if (level, h) in est.undefined:
                    continue
                row = sum(est.values[("a", level, h, s)]
                          for s in illness_death.successors(h))
                assert row == 1

    def test_unvisited_row_is_undefined(self, survival):
        trajs = TrajectorySet(((("0", "0", "0"), 2),))
        est = mle_nonhomogeneous(trajs, survival)
        assert (2, ("1",)) in est.undefined
        # the fit gives 0 -> 1 weight 0, so a path into 1 stops before
        # its undefined row; give 0 -> 1 weight and the row is reached
        assert path_probability(survival, est, ("0", "1", "1")) == 0
        reach = ParameterPoint({**est.values, ("a", 2, ("0",), "0"): 0,
                                ("a", 2, ("0",), "1"): 1}, est.undefined)
        with pytest.raises(EstimationError, match=r"row \(level=3, history=\('1',\)\) "
                                                  r"is undefined"):
            path_probability(survival, reach, ("0", "1", "1"))

    def test_homogeneous_spec_rejected(self, illness_death_hom):
        with pytest.raises(EstimationError):
            mle_nonhomogeneous(worked_trajectories(), illness_death_hom)


class TestMleHomogeneous:
    def test_worked_example_pooled_rows(self, illness_death_hom):
        est = mle_homogeneous(worked_trajectories(), illness_death_hom)
        for s, v in WORKED_PI.items():
            assert est.values[("pi", (s,))] == Fraction(v)
        for (h, s), v in WORKED_POOLED_ROWS.items():
            assert est.values[("a", None, (h,), s)] == Fraction(v)

    def test_pi_and_trans_views_keep_their_keys(self, illness_death_hom):
        # the benchmark's workloads read these two views, keyed by block
        # and by (level, history, next)
        est = mle_homogeneous(worked_trajectories(), illness_death_hom)
        assert est.pi == {(s,): Fraction(v) for s, v in WORKED_PI.items()}
        assert est.trans == {(None, (h,), s): Fraction(v)
                             for (h, s), v in WORKED_POOLED_ROWS.items()}
        est = mle_nonhomogeneous(TrajectorySet(((("0", "0", "1"), 1),)),
                                 make_survival())
        assert est.pi == {("0",): 1}
        assert est.trans == {(2, ("0",), "0"): 1, (2, ("0",), "1"): 0,
                             (3, ("0",), "0"): 0, (3, ("0",), "1"): 1}

    def test_prefix_window_ignores_tail(self):
        spec = make_binary_chain(1, 3, homogeneous=True)
        trajs = TrajectorySet(((("0", "0", "1", "1", "1"), 1),))
        est = mle_homogeneous(trajs, spec, n=3)
        # prefix windows: 00, 01
        assert est.values[("a", None, ("0",), "0")] == Fraction(1, 2)
        assert (None, ("1",)) in est.undefined

    def test_slide_window_pools_full_trajectory(self):
        spec = make_binary_chain(1, 3, homogeneous=True)
        trajs = TrajectorySet(((("0", "0", "1", "1", "1"), 1),))
        est = mle_homogeneous(trajs, spec, n=3, window="slide")
        # all windows: 00, 01, 11, 11
        assert est.values[("a", None, ("1",), "1")] == 1
        assert est.window == "slide"

    def test_nonhomogeneous_spec_rejected(self, illness_death):
        with pytest.raises(EstimationError):
            mle_homogeneous(worked_trajectories(), illness_death)

    def test_unknown_window_rejected(self, illness_death_hom):
        with pytest.raises(EstimationError):
            mle_homogeneous(worked_trajectories(), illness_death_hom,
                            window="center")


class TestDefaultHorizon:
    # One rule picks the analysis horizon when n is omitted: the spec's n
    # or the trajectory length, whichever is shorter.

    @pytest.mark.parametrize("length", [6, 3], ids=["longer", "shorter"])
    def test_fits_and_counts_default_to_the_shorter_horizon(self, length):
        spec = make_illness_death()
        hspec = make_illness_death(homogeneous=True)
        trajs = TrajectorySet.from_sequences(
            [("0", "0", "1", "1", "2", "2")[:length],
             ("0", "1", "1", "2", "2", "2")[:length]])
        n = min(spec.horizon, length)
        fits = [(mle_nonhomogeneous, spec, {}),
                (mle_homogeneous, hspec, {}),
                (mle_homogeneous, hspec, {"window": "slide"})]
        for call, s, kw in fits:
            est, want = call(trajs, s, **kw), call(trajs, s, n=n, **kw)
            assert est.horizon == n
            assert (est.values, est.undefined) == (want.values, want.undefined)
        cv, want = (counts_from_trajectories(trajs, spec),
                    counts_from_trajectories(trajs, spec, n=n))
        assert (cv.table.paths, cv.counts) == (want.table.paths, want.counts)
        assert len(cv.table[0]) == n

    def test_fitted_paths_of_trajectories_longer_than_the_spec(self, illness_death):
        trajs = TrajectorySet.from_sequences([("0", "0", "1", "1", "1"),
                                              ("0", "0", "0", "2", "2")])
        table = enumerate_paths(illness_death)
        fitted = fitted_path_probabilities(
            mle_nonhomogeneous(trajs, illness_death), illness_death, table)
        assert fitted[table.index(("0", "0", "1", "1"))] == Fraction(1, 2)
        assert sum(fitted.values()) == 1


def fit(trajs, spec, n, window):
    if spec.homogeneous:
        return mle_homogeneous(trajs, spec, n=n, window=window)
    return mle_nonhomogeneous(trajs, spec, n=n)


FITS = [(False, "prefix"), (True, "prefix"), (True, "slide")]


class TestRecordsAreChecked:
    # A TrajectorySet is not checked against a spec when it is built, so
    # the estimators check the analysed prefix of every record.

    @pytest.mark.parametrize("bad", [("1", "0", "2", "2"), ("0", "0", "x", "x")])
    @pytest.mark.parametrize("homogeneous, window", FITS)
    def test_inadmissible_record_raises_check_sequences_error(
            self, bad, homogeneous, window):
        spec = make_illness_death(homogeneous)
        trajs = TrajectorySet(((("0", "0", "1", "1"), 3), (bad, 1)))
        with pytest.raises(InadmissiblePathError) as want:
            spec.with_horizon(3).check_sequence(bad[:3])
        with pytest.raises(InadmissiblePathError) as err:
            fit(trajs, spec, 3, window)
        assert str(err.value) == str(want.value)

    def test_only_the_analysed_prefix_is_checked(self, illness_death_hom):
        trajs = TrajectorySet(((("0", "1", "1", "0"), 1),))
        est = mle_homogeneous(trajs, illness_death_hom, n=3)
        assert est.values[("a", None, ("1",), "1")] == 1
        with pytest.raises(InadmissiblePathError, match="into position 4"):
            mle_homogeneous(trajs, illness_death_hom, n=3, window="slide")


def random_records(spec, length, rng, count):
    """count random admissible sequences of the given length, each with a
    weight in 1..5, or None when no admissible sequence is that long."""
    k = spec.order
    # viable[r]: the histories from which r more steps can be taken
    viable = [set(spec.histories)]
    for _ in range(length - k):
        viable.append({h for h in spec.histories
                       if any(h[1:] + (s,) in viable[-1] for s in spec.successors(h))})
    starts = [b for b in spec.initial_blocks if b in viable[-1]]
    if not starts:
        return None
    records = []
    for _ in range(count):
        seq = rng.choice(starts)
        for r in range(length - k, 0, -1):
            h = seq[-k:]
            seq += (rng.choice([s for s in spec.successors(h)
                                if h[1:] + (s,) in viable[r - 1]]),)
        records.append((seq, rng.randint(1, 5)))
    return records


@settings(max_examples=80, deadline=None)
@given(small_specs(), st.integers(0, 2**32))
def test_mle_equals_the_block_count_oracle(spec, seed):
    rng = random.Random(seed)
    n, length = spec.horizon, spec.horizon + 2
    records = random_records(spec, length, rng, rng.randint(1, 8))
    if records is None:
        reject()
    trajs = TrajectorySet(tuple(records))
    windows = ("prefix", "slide") if spec.homogeneous else ("prefix",)
    for window in windows:
        analysed = spec.with_horizon(length if window == "slide" else n)
        values, undefined = mle_reference(
            analysed, [(seq[:analysed.horizon], w) for seq, w in records])
        est = fit(trajs, spec, n, window)
        assert (est.values, est.undefined) == (values, undefined)

    # one forbidden step inside the analysed prefix
    seq, _ = rng.choice(records)
    k = spec.order
    steps = [(p, t) for p in range(k, n) for t in spec.states
             if t not in spec.successors(seq[p - k:p])]
    if steps:
        p, t = rng.choice(steps)
        bad = seq[:p] + (t,) + seq[p + 1:]
        trajs = TrajectorySet((*records, (bad, 1)))
        with pytest.raises(InadmissiblePathError) as want:
            spec.check_sequence(bad[:n])
        for window in windows:
            with pytest.raises(InadmissiblePathError) as err:
                fit(trajs, spec, n, window)
            assert str(err.value) == str(want.value)


class TestFittedPathProbabilities:
    def test_sums_to_one_for_complete_nonhomogeneous_fit(self, illness_death):
        est = mle_nonhomogeneous(worked_trajectories(), illness_death)
        table = enumerate_paths(illness_death)
        fitted = fitted_path_probabilities(est, illness_death, table)
        assert sum(fitted.values()) == 1

    def test_zero_row_short_circuits_before_undefined(self, survival):
        # state 1 is never entered, so its row is undefined, but every
        # path that needs it already has probability zero
        trajs = TrajectorySet(((("0", "0", "0"), 2),))
        est = mle_nonhomogeneous(trajs, survival)
        table = enumerate_paths(survival)
        fitted = fitted_path_probabilities(est, survival, table)
        assert fitted[table.index(("0", "0", "0"))] == 1
        assert fitted[table.index(("0", "1", "1"))] == 0

    def test_blocked_path_raises(self):
        # state 1 first appears at the last position, so the pooled row
        # for history (1,) is undefined while paths into it keep
        # positive mass through the earlier factors
        spec = make_binary_chain(1, 3, homogeneous=True)
        trajs = TrajectorySet(((("0", "0", "1"), 1),))
        est = mle_homogeneous(trajs, spec)
        table = enumerate_paths(spec)
        with pytest.raises(EstimationError):
            fitted_path_probabilities(est, spec, table)

    def test_path_probability_is_the_fitted_evaluator(self, illness_death):
        est = mle_nonhomogeneous(worked_trajectories(), illness_death)
        table = enumerate_paths(illness_death)
        fitted = fitted_path_probabilities(est, illness_death, table)
        assert fitted == {j: path_probability(illness_death, est, path)
                          for j, path in enumerate(table)}

    def test_zero_factor_before_undefined_row_gives_zero(self):
        # with initial state 2 allowed, the worked fit puts pi_2 = 0 and
        # leaves the level-2 row of history 2 undefined
        spec = ModelSpec(["0", "1", "2"], 1, 4, forbidden=[("1", "0")],
                         absorbing=["2"])
        est = mle_nonhomogeneous(worked_trajectories(), spec)
        assert (2, ("2",)) in est.undefined
        path = ("2", "2", "2", "2")
        assert path_probability(spec, est, path) == 0
        table = enumerate_paths(spec)
        assert fitted_path_probabilities(est, spec, table)[table.index(path)] == 0

    def test_positive_mass_on_undefined_row_raises(self, illness_death_hom):
        # pooled over the first two positions, no window starts in 2, so
        # the pooled row of history 2 is undefined while 0 -> 2 is not
        est = mle_homogeneous(worked_trajectories(), illness_death_hom, n=2)
        assert (None, ("2",)) in est.undefined
        spec = illness_death_hom.with_horizon(3)
        assert path_probability(spec, est, ("0", "0", "1")) > 0
        with pytest.raises(EstimationError):
            path_probability(spec, est, ("0", "2", "2"))
        with pytest.raises(EstimationError, match="need an undefined row"):
            fitted_path_probabilities(est, spec, enumerate_paths(spec))

    def test_kind_mismatch_rejected(self, illness_death, illness_death_hom):
        est = mle_nonhomogeneous(worked_trajectories(), illness_death)
        with pytest.raises(EstimationError):
            fitted_path_probabilities(est, illness_death_hom,
                                      enumerate_paths(illness_death_hom))


class TestHierarchicalPathMle:
    def test_matches_factorized_estimate_on_worked_counts(self, illness_death):
        table = enumerate_paths(illness_death)
        u = CountVector(table, tuple(WORKED_COUNTS))
        direct = mle_paths_hierarchical(u, illness_death, table)
        est = mle_nonhomogeneous(worked_trajectories(), illness_death)
        fitted = fitted_path_probabilities(est, illness_death, table)
        assert direct == fitted

    def test_vanishing_interior_marginal_gives_none(self):
        spec = make_binary_chain(1, 3)
        table = enumerate_paths(spec)
        counts = [0] * len(table)
        counts[table.index(("0", "0", "0"))] = 5
        u = CountVector(table, tuple(counts))
        out = mle_paths_hierarchical(u, spec, table)
        # paths through unseen interior state 1 are undefined, not zero
        assert out[table.index(("0", "1", "1"))] is None
        assert out[table.index(("0", "0", "0"))] == 1

    def test_homogeneous_spec_rejected(self, illness_death_hom):
        table = enumerate_paths(illness_death_hom)
        u = CountVector(table, tuple(WORKED_COUNTS))
        with pytest.raises(EstimationError):
            mle_paths_hierarchical(u, illness_death_hom, table)

    def test_integer_counts_give_fractions(self, illness_death):
        table = enumerate_paths(illness_death)
        u = CountVector(table, tuple(WORKED_COUNTS))
        fitted = mle_paths_hierarchical(u, illness_death, table)
        values = [v for v in fitted.values() if v is not None]
        assert values and all(type(v) is Fraction for v in values)


def unrestricted_three_state_table():
    return enumerate_paths(ModelSpec(["0", "1", "2"], 1, 4))


class TestTablePathsAreChecked:
    # The 81 unrestricted paths include 67 that illness-death forbids
    # (1 -> 0, leaving 2, starting in 2); a table may not smuggle them in.

    def test_hierarchical_mle_rejects_an_inadmissible_table(self, illness_death):
        table = unrestricted_three_state_table()
        u = CountVector(table, (1,) * len(table))
        with pytest.raises(InadmissiblePathError):
            mle_paths_hierarchical(u, illness_death, table)

    def test_hierarchical_mle_rejects_a_short_table(self, illness_death):
        table = enumerate_paths(illness_death.with_horizon(3))
        u = CountVector(table, (1,) * len(table))
        with pytest.raises(InadmissiblePathError, match="expected horizon 4"):
            mle_paths_hierarchical(u, illness_death, table)

    def test_a_table_of_longer_paths_is_rejected(self, illness_death):
        # its length-4 prefixes are admissible, so only the path check sees it
        table = enumerate_paths(illness_death.with_horizon(5))
        u = CountVector(table, (1,) * len(table))
        with pytest.raises(InadmissiblePathError, match="expected horizon 4"):
            mle_paths_hierarchical(u, illness_death, table)
        p = {j: Fraction(1, len(table)) for j in range(len(table))}
        with pytest.raises(InadmissiblePathError, match="expected horizon 4"):
            recover_parameters(p, illness_death, table)

    def test_recovery_rejects_an_inadmissible_table(self, illness_death):
        table = unrestricted_three_state_table()
        p = {j: Fraction(1, len(table)) for j in range(len(table))}
        with pytest.raises(InadmissiblePathError):
            recover_parameters(p, illness_death, table)


class TestRecoverParameters:
    def test_nonhomogeneous_round_trip(self, illness_death):
        params = sample_parameters(illness_death, seed=17)
        table = enumerate_paths(illness_death)
        p = assignment_from_parameters(illness_death, params, table)
        rec = recover_parameters(p, illness_death, table)
        assert rec.consistent
        # no path starts in 2, so that row is not identifiable
        assert rec.params.undefined == frozenset({(2, ("2",))})
        back = assignment_from_parameters(illness_death, rec.params, table)
        assert back == p

    def test_homogeneous_round_trip_is_consistent(self, illness_death_hom):
        params = sample_parameters(illness_death_hom, seed=23)
        table = enumerate_paths(illness_death_hom)
        p = assignment_from_parameters(illness_death_hom, params, table)
        rec = recover_parameters(p, illness_death_hom, table)
        assert rec.consistent
        back = assignment_from_parameters(illness_death_hom, rec.params, table)
        assert back == p

    def test_off_model_assignment_reports_conflicts(self, illness_death,
                                                    illness_death_hom):
        # a nonhomogeneous point with different levels is outside the
        # homogeneous model, and the window ratios betray it
        params = sample_parameters(illness_death, seed=3)
        table = enumerate_paths(illness_death)
        p = assignment_from_parameters(illness_death, params, table)
        rec = recover_parameters(p, illness_death_hom, table)
        assert not rec.consistent
        c = rec.inconsistencies[0]
        assert c.ratio_a != c.ratio_b

    def test_incomplete_assignment_rejected(self, illness_death):
        table = enumerate_paths(illness_death)
        with pytest.raises(Exception):
            recover_parameters({0: Fraction(1)}, illness_death, table)

    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_integer_weights_give_fractions(self, homogeneous):
        # every p[j] = 1: int sums must still divide exactly
        spec = make_illness_death(homogeneous)
        table = enumerate_paths(spec)
        rec = recover_parameters({j: 1 for j in range(len(table))}, spec, table)
        values = rec.params.values.values()
        assert values and all(type(v) is Fraction for v in values)

    def test_undefined_rows_are_validation_problems(self, illness_death,
                                                    survival):
        params = sample_parameters(illness_death, seed=17)
        table = enumerate_paths(illness_death)
        p = assignment_from_parameters(illness_death, params, table)
        rec = recover_parameters(p, illness_death, table)
        assert validate_parameters(illness_death, rec.params) == [
            "row (level=2, history=('2',)) is undefined"]
        est = mle_nonhomogeneous(TrajectorySet(((("0", "0", "0"), 2),)),
                                 survival)
        assert validate_parameters(survival, est) == [
            "row (level=2, history=('1',)) is undefined",
            "row (level=3, history=('1',)) is undefined"]

    def test_pooled_row_undefined_at_every_level(self, illness_death_hom):
        # all mass on 0000: histories 1 and 2 are never seen at any level
        table = enumerate_paths(illness_death_hom)
        p = {j: int(path == ("0", "0", "0", "0")) for j, path in enumerate(table)}
        rec = recover_parameters(p, illness_death_hom, table)
        assert rec.consistent
        assert rec.params.undefined == {(None, ("1",)), (None, ("2",))}
        assert rec.params.values == {
            ("pi", ("0",)): 1, ("pi", ("1",)): 0,
            **{("a", None, ("0",), s): int(s == "0") for s in ("0", "1", "2")}}
        assert validate_parameters(illness_death_hom, rec.params) == [
            "row (level=None, history=('1',)) is undefined",
            "row (level=None, history=('2',)) is undefined"]

    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_a_history_without_successors_has_no_undefined_row(self, homogeneous):
        # x can be neither entered nor left, so history (x,) has no row
        spec = ModelSpec(["0", "1", "x"], 1, 3, initial=["0", "1"],
                         forbidden=[("0", "x"), ("1", "x"), ("x", "0"),
                                    ("x", "1"), ("x", "x")],
                         homogeneous=homogeneous)
        trajs = TrajectorySet(((("0", "0", "1"), 2), (("1", "1", "0"), 1),
                               (("0", "1", "0"), 3)))
        est = fit(trajs, spec, 3, "prefix")
        assert est.undefined == frozenset()
        assert validate_parameters(spec, est) == []
        table = enumerate_paths(spec)
        fitted = fitted_path_probabilities(est, spec, table)
        rec = recover_parameters(fitted, spec, table)
        assert rec.consistent
        assert validate_parameters(spec, rec.params) == []

    def test_recovered_point_is_valid_when_all_rows_reachable(self):
        spec = make_binary_chain(1, 4)
        params = sample_parameters(spec, seed=29)
        table = enumerate_paths(spec)
        p = assignment_from_parameters(spec, params, table)
        rec = recover_parameters(p, spec, table)
        assert rec.params.undefined == frozenset()
        assert validate_parameters(spec, rec.params) == []


class TestBirchResidual:
    def test_nonhomogeneous_mle_satisfies_moment_equations(self, illness_death):
        table = enumerate_paths(illness_death)
        u = CountVector(table, tuple(WORKED_COUNTS))
        est = mle_nonhomogeneous(worked_trajectories(), illness_death)
        fitted = fitted_path_probabilities(est, illness_death, table)
        design = build_design_matrix(illness_death, table)
        residual = birch_residual(fitted, u, design)
        assert all(r == 0 for r in residual)

    def test_perturbed_point_has_nonzero_residual(self, illness_death):
        table = enumerate_paths(illness_death)
        u = CountVector(table, tuple(WORKED_COUNTS))
        design = build_design_matrix(illness_death, table)
        p = {j: Fraction(1, 14) for j in range(14)}
        residual = birch_residual(p, u, design)
        assert any(r != 0 for r in residual)

    def test_missing_index_rejected(self, illness_death):
        table = enumerate_paths(illness_death)
        u = CountVector(table, tuple(WORKED_COUNTS))
        design = build_design_matrix(illness_death, table)
        with pytest.raises(RelationError, match="missing path index 1$"):
            birch_residual({0: Fraction(1)}, u, design)

    def test_counts_on_another_table_order_rejected(self, illness_death):
        # the same chain with its states declared in reverse has the same
        # 14 paths in another order, so the counts would be misaligned
        design = build_design_matrix(illness_death)
        reordered = ModelSpec(["2", "1", "0"], 1, 4, forbidden=[("1", "0")],
                              absorbing=["2"], initial=["0", "1"])
        table = enumerate_paths(reordered)
        assert len(table) == len(design.table)
        p = {j: Fraction(1, 14) for j in range(14)}
        with pytest.raises(RelationError,
                           match="count vector and design matrix tables differ"):
            birch_residual(p, CountVector(table, tuple(WORKED_COUNTS)), design)
        # an equal table built separately is accepted
        u = CountVector(enumerate_paths(illness_death), tuple(WORKED_COUNTS))
        assert len(birch_residual(p, u, design)) == design.shape[0]


BIRCH_DESIGNS = [build_design_matrix(spec) for spec in (
    make_illness_death(),
    make_illness_death(homogeneous=True),
    make_vc_chain(5),
)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BIRCH_DESIGNS), st.data())
def test_birch_residual_matches_dense_fraction_oracle(design, data):
    m = len(design.table)
    value = st.one_of(st.integers(-3, 3),
                      st.fractions(-2, 2, max_denominator=60))
    p = dict(enumerate(data.draw(st.lists(value, min_size=m, max_size=m))))
    counts = data.draw(st.lists(st.integers(0, 30), min_size=m, max_size=m))
    u = CountVector(design.table, tuple(counts))
    got = birch_residual(p, u, design)
    want = birch_residual_reference(p, u, design)
    assert got == want
    assert all(type(x) is Fraction for x in got)
    assert [str(x) for x in got] == [str(x) for x in want]


class TestLoglikelihood:
    def test_zero_probability_with_positive_count(self, illness_death):
        table = enumerate_paths(illness_death)
        u = CountVector(table, tuple(WORKED_COUNTS))
        p = {j: Fraction(0) for j in range(14)}
        assert loglikelihood(p, u) == float("-inf")

    def test_zero_count_ignores_probability(self, illness_death):
        table = enumerate_paths(illness_death)
        counts = [0] * 14
        counts[0] = 7
        u = CountVector(table, tuple(counts))
        p = {j: Fraction(0) for j in range(14)}
        p[0] = Fraction(1)
        assert loglikelihood(p, u) == 0.0

    def test_fitted_beats_uniform(self, illness_death):
        table = enumerate_paths(illness_death)
        u = CountVector(table, tuple(WORKED_COUNTS))
        est = mle_nonhomogeneous(worked_trajectories(), illness_death)
        fitted = fitted_path_probabilities(est, illness_death, table)
        uniform = {j: Fraction(1, 14) for j in range(14)}
        assert loglikelihood(fitted, u) > loglikelihood(uniform, u)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_hierarchical_identity_on_random_positive_counts(seed):
    spec = make_binary_chain(1, 4)
    table = enumerate_paths(spec)
    rng = random.Random(seed)
    u = CountVector(table, tuple(rng.randint(1, 50) for _ in table))
    trajs = TrajectorySet(tuple(zip(table, u.counts)))
    est = mle_nonhomogeneous(trajs, spec)
    fitted = fitted_path_probabilities(est, spec, table)
    assert mle_paths_hierarchical(u, spec, table) == fitted


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_recovery_round_trip_binary_order_two(seed):
    spec = make_binary_chain(2, 4)
    table = enumerate_paths(spec)
    params = sample_parameters(spec, seed)
    p = assignment_from_parameters(spec, params, table)
    rec = recover_parameters(p, spec, table)
    assert assignment_from_parameters(spec, rec.params, table) == p
