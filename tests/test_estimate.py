import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from markovtoric import (
    CountVector,
    EstimationError,
    InadmissiblePathError,
    ModelSpec,
    ParameterError,
    ParameterPoint,
    PathTable,
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
    write_probabilities,
)
from markovtoric import estimate
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
        assert (cv.table, cv.counts) == (want.table, want.counts)
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
        assert str(err.value) == f"record 2: {want.value}"

    def test_only_the_analysed_prefix_is_checked(self, illness_death_hom):
        trajs = TrajectorySet(((("0", "1", "1", "0"), 1),))
        est = mle_homogeneous(trajs, illness_death_hom, n=3)
        assert est.values[("a", None, ("1",), "1")] == 1
        with pytest.raises(InadmissiblePathError, match="into position 4"):
            mle_homogeneous(trajs, illness_death_hom, n=3, window="slide")


def random_records(spec, length, rng, count, share=0):
    """count random admissible sequences of the given length, each with a
    weight in 1..5, or None when no admissible sequence is that long.
    With probability share, a record after the first keeps the first
    spec.horizon positions of an earlier record and redraws the rest."""
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
        if share and records and rng.random() < share:
            seq = rng.choice(records)[0][:spec.horizon]
        else:
            seq = rng.choice(starts)
        for r in range(length - len(seq), 0, -1):
            h = seq[-k:]
            seq += (rng.choice([s for s in spec.successors(h)
                                if h[1:] + (s,) in viable[r - 1]]),)
        records.append((seq, rng.randint(1, 5)))
    return records


@settings(max_examples=80, deadline=None)
@given(small_specs(), st.integers(0, 2**32))
def test_mle_equals_the_block_count_oracle(spec, seed):
    # about half the records share their analysed prefix with an earlier
    # one and differ, if at all, only after position n
    rng = random.Random(seed)
    n, length = spec.horizon, spec.horizon + 2
    records = random_records(spec, length, rng, rng.randint(1, 8), share=0.5)
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

    prefix_tally = {}
    for seq, w in records:
        prefix_tally[seq[:n]] = prefix_tally.get(seq[:n], 0) + w
    u = counts_from_trajectories(trajs, spec, n=n)
    assert u.counts == tuple(prefix_tally.get(path, 0) for path in u.table)

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
            assert str(err.value) == f"record {len(records) + 1}: {want.value}"


def check_oracle(trajs, spec):
    """The first record that check_sequence refuses at the set's length,
    as (record number, its exception), or None when every record passes."""
    spec = spec.with_horizon(trajs.length)
    for num, (seq, _) in enumerate(trajs.records, start=1):
        try:
            spec.check_sequence(seq)
        except Exception as exc:
            return num, exc
    return None


def inject_fault(spec, seq, kind, rng):
    """seq with one fault of the given kind at a random position, or None
    when the spec leaves no room for that kind of fault."""
    k = spec.order
    if kind == "label":
        p = rng.randrange(len(seq))
        return seq[:p] + ("x",) + seq[p + 1:]
    if kind == "initial":
        blocks = [b for b in itertools.product(spec.states, repeat=k)
                  if b not in spec.initial_blocks]
        return rng.choice(blocks) + seq[k:] if blocks else None
    steps = [(p, t) for p in range(k, len(seq)) for t in spec.states
             if t not in spec.successors(seq[p - k:p])]
    if not steps:
        return None
    p, t = rng.choice(steps)
    return seq[:p] + (t,) + seq[p + 1:]


@settings(max_examples=80, deadline=None)
@given(small_specs(), st.integers(0, 2**32))
@example(ModelSpec(["0", "1", "2"], 1, 3, initial=["0"]), 0)
def test_check_agrees_with_the_per_record_oracle(spec, seed):
    # the set is longer than the spec's horizon, so faults also land on
    # positions past it
    rng = random.Random(seed)
    records = random_records(spec, spec.horizon + 2, rng, rng.randint(1, 8),
                             share=0.5)
    if records is None:
        reject()
    trajs = TrajectorySet(tuple(records))
    assert check_oracle(trajs, spec) is None
    assert trajs.check(spec) is trajs

    for kind in ("label", "initial", "step"):
        r = rng.randrange(len(records))
        bad = inject_fault(spec, records[r][0], kind, rng)
        if bad is None:
            continue
        trajs = TrajectorySet((*records[:r], (bad, 1), *records[r + 1:]))
        num, want = check_oracle(trajs, spec)
        with pytest.raises(EstimationError) as err:
            trajs.check(spec)
        assert str(err.value) == f"record {num}: {want}"
        assert type(err.value.__cause__) is type(want)


def test_check_names_the_record_with_an_unhashable_label(illness_death):
    trajs = TrajectorySet(((("0", ["1"], "1", "1"), 1), (("0", "0", "1", "1"), 2)))
    with pytest.raises(EstimationError,
                       match=r"^record 1: unknown state label \['1'\] at position 2$") as err:
        trajs.check(illness_death)
    assert type(err.value.__cause__) is InadmissiblePathError


def test_check_never_passes_after_the_tally_raises(illness_death, monkeypatch):
    # every record is admissible, so the walk finds no offender and the
    # tally's own exception must surface
    def broken_tally(spec, records):
        raise RuntimeError("tally failed")

    monkeypatch.setattr(estimate, "_tally", broken_tally)
    with pytest.raises(RuntimeError, match="^tally failed$"):
        worked_trajectories().check(illness_death)


# the unhashable label sits at position 2, inside every analysed prefix,
# of the record numbered with the set; the longer record also sends the
# fits through the prefix merge
UNHASHABLE_RECORDS = [
    pytest.param(((("0", ["1"], "1", "1"), 1), (("0", "0", "1", "1"), 2)), 1,
                 id="records0"),
    pytest.param(((("0", "0", "1", "1", "1"), 2), (("0", ["1"], "1", "1", "1"), 1)), 2,
                 id="records1")]


def unhashable_fault(num):
    return rf"^record {num}: unknown state label \['1'\] at position 2$"


@pytest.mark.parametrize("records, num", UNHASHABLE_RECORDS)
def test_nonhomogeneous_fit_names_an_unhashable_label(illness_death, records, num):
    with pytest.raises(InadmissiblePathError, match=unhashable_fault(num)):
        mle_nonhomogeneous(TrajectorySet(records), illness_death, n=3)


@pytest.mark.parametrize("window", ["prefix", "slide"])
@pytest.mark.parametrize("records, num", UNHASHABLE_RECORDS)
def test_homogeneous_fit_names_an_unhashable_label(illness_death_hom, records, num,
                                                   window):
    with pytest.raises(InadmissiblePathError, match=unhashable_fault(num)):
        mle_homogeneous(TrajectorySet(records), illness_death_hom, n=3, window=window)


@pytest.mark.parametrize("records, num", UNHASHABLE_RECORDS)
def test_counts_name_an_unhashable_label(illness_death, records, num):
    with pytest.raises(InadmissiblePathError, match=unhashable_fault(num)):
        counts_from_trajectories(TrajectorySet(records), illness_death, n=3)


# the third of four records steps 1 -> 0, which the spec forbids
# (set, nonhomogeneous spec, homogeneous spec)
ONE_WALK_CALLS = {
    "check": lambda trajs, spec, hom: trajs.check(spec),
    "nonhomogeneous": lambda trajs, spec, hom: mle_nonhomogeneous(trajs, spec),
    "prefix": lambda trajs, spec, hom: mle_homogeneous(trajs, hom),
    "slide": lambda trajs, spec, hom: mle_homogeneous(trajs, hom, window="slide"),
    "counts": lambda trajs, spec, hom: counts_from_trajectories(trajs, spec),
}


@pytest.mark.parametrize("call", ONE_WALK_CALLS)
def test_a_bad_record_is_named_in_one_walk(illness_death, illness_death_hom, monkeypatch,
                                           call):
    trajs = TrajectorySet(((("0", "0", "1", "1"), 2), (("0", "1", "1", "2"), 1),
                           (("1", "0", "0", "0"), 1), (("0", "0", "0", "0"), 1)))
    check_sequence, walked = ModelSpec.check_sequence, []

    def counted(self, seq):
        walked.append(tuple(seq))
        return check_sequence(self, seq)

    monkeypatch.setattr(ModelSpec, "check_sequence", counted)
    want = EstimationError if call == "check" else InadmissiblePathError
    with pytest.raises(want) as err:
        ONE_WALK_CALLS[call](trajs, illness_death, illness_death_hom)
    assert type(err.value) is want
    assert str(err.value) == ("record 3: transition ('1',) -> '0' into position 2 "
                              "is forbidden")
    assert walked == [seq for seq, _ in trajs.records[:3]]
    if call == "check":
        assert type(err.value.__cause__) is InadmissiblePathError


# an unknown label, a forbidden step (1 -> 0) and a non-initial block
BAD_RECORDS = [("0", "x", "1", "1"), ("1", "0", "0", "0"), ("2", "2", "2", "2")]


@pytest.mark.parametrize("after_valid", [False, True])
@pytest.mark.parametrize("bad", BAD_RECORDS)
def test_counts_name_a_bad_record_as_the_fit_does(illness_death, bad, after_valid):
    valid = (("0", "0", "1", "1"), 2), (("0", "1", "1", "2"), 1)
    trajs = TrajectorySet((*valid, (bad, 1)) if after_valid else ((bad, 1), *valid))
    with pytest.raises(InadmissiblePathError) as fit:
        mle_nonhomogeneous(trajs, illness_death)
    with pytest.raises(InadmissiblePathError) as counts:
        counts_from_trajectories(trajs, illness_death)
    assert type(counts.value) is type(fit.value)
    assert str(counts.value) == str(fit.value)
    assert "not in the table" not in str(counts.value)


def test_counts_name_an_admissible_path_missing_from_a_given_table(illness_death):
    missing = ("0", "0", "0", "0")
    table = PathTable(p for p in enumerate_paths(illness_death) if p != missing)
    trajs = TrajectorySet(((("0", "0", "1", "1"), 2), (missing, 1)))
    with pytest.raises(InadmissiblePathError,
                       match=r"^path \('0', '0', '0', '0'\) is not in the table$"):
        counts_from_trajectories(trajs, illness_death, table=table)


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
        with pytest.raises(ParameterError, match="missing path index 1$"):
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
    # negative values are refused (test_assignment_values_are_read_exactly)
    value = st.one_of(st.integers(0, 3),
                      st.fractions(0, 2, max_denominator=60))
    p = dict(enumerate(data.draw(st.lists(value, min_size=m, max_size=m))))
    counts = data.draw(st.lists(st.integers(0, 30), min_size=m, max_size=m))
    u = CountVector(design.table, tuple(counts))
    if not any(counts):  # every p would pass on an empty vector
        with pytest.raises(EstimationError, match="^empty count vector$"):
            birch_residual(p, u, design)
        return
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

    def test_a_certain_path_adds_zero_whatever_its_count(self, illness_death):
        counts = [0] * 14
        counts[0] = 10 ** 400
        u = CountVector(enumerate_paths(illness_death), tuple(counts))
        assert loglikelihood({0: Fraction(1)}, u) == 0.0

    # a count past float range, and three finite terms whose sum is not
    @pytest.mark.parametrize("counts, q", [((10 ** 400, 1), Fraction(1, 2)),
                                           ((10 ** 308,) * 3, Fraction(1, 3))],
                             ids=["count", "sum"])
    def test_a_value_past_float_range_is_an_estimation_error(self, illness_death,
                                                             counts, q):
        u = CountVector(enumerate_paths(illness_death),
                        counts + (0,) * (14 - len(counts)))
        with pytest.raises(EstimationError,
                           match="^the log-likelihood is past float range$"):
            loglikelihood({j: q for j in range(len(counts))}, u)

    def test_fitted_beats_uniform(self, illness_death):
        table = enumerate_paths(illness_death)
        u = CountVector(table, tuple(WORKED_COUNTS))
        est = mle_nonhomogeneous(worked_trajectories(), illness_death)
        fitted = fitted_path_probabilities(est, illness_death, table)
        uniform = {j: Fraction(1, 14) for j in range(14)}
        assert loglikelihood(fitted, u) > loglikelihood(uniform, u)


class TestErrorPaths:
    def test_hierarchical_mle_rejects_counts_on_another_table(self, illness_death):
        other = enumerate_paths(make_binary_chain(1, 4))
        u = CountVector(other, (1,) * len(other))
        with pytest.raises(EstimationError,
                           match="^count vector is indexed by a different table$"):
            mle_paths_hierarchical(u, illness_death)

    def test_hierarchical_mle_rejects_an_empty_count_vector(self, illness_death):
        table = enumerate_paths(illness_death)
        u = CountVector(table, (0,) * len(table))
        with pytest.raises(EstimationError, match="^empty count vector$"):
            mle_paths_hierarchical(u, illness_death, table)

    def test_birch_residual_rejects_an_empty_count_vector(self, illness_death):
        # a point mass on path 0 would get all-zero rows, as would any p
        design = build_design_matrix(illness_death)
        u = CountVector(design.table, (0,) * len(design.table))
        with pytest.raises(EstimationError, match="^empty count vector$"):
            birch_residual({0: Fraction(1)}, u, design)

    def test_a_count_vector_over_a_list_is_another_table(self, illness_death):
        design = build_design_matrix(illness_death)
        u = CountVector(list(design.table), tuple(WORKED_COUNTS))
        with pytest.raises(EstimationError,
                           match="^count vector is indexed by a different table$"):
            mle_paths_hierarchical(u, illness_death)
        p = {j: Fraction(1, 14) for j in range(14)}
        with pytest.raises(RelationError,
                           match="^count vector and design matrix tables differ$"):
            birch_residual(p, u, design)

    def test_recovery_rejects_an_all_zero_assignment(self, illness_death):
        p = {j: Fraction(0) for j in range(14)}
        with pytest.raises(ParameterError,
                           match="^assignment sums to zero; nothing to recover$"):
            recover_parameters(p, illness_death)

    def test_loglikelihood_rejects_a_negative_probability(self, illness_death):
        u = CountVector(enumerate_paths(illness_death), tuple(WORKED_COUNTS))
        p = {j: Fraction(1, 14) for j in range(14)}
        p[1] = Fraction(-1, 14)
        with pytest.raises(ParameterError, match="^negative probability -1/14 at index 1$"):
            loglikelihood(p, u)

    def test_fitted_paths_reject_a_report_of_another_horizon(self, illness_death):
        report = mle_nonhomogeneous(worked_trajectories(), illness_death, n=3)
        with pytest.raises(EstimationError,
                           match="^nonhomogeneous report was tallied at horizon 3, "
                                 "spec needs 4$"):
            fitted_path_probabilities(report, illness_death,
                                      enumerate_paths(illness_death))

    def test_a_horizon_below_order_plus_one_is_rejected(self, illness_death):
        with pytest.raises(EstimationError, match=r"^n = 1 is shorter than order \+ 1$"):
            mle_nonhomogeneous(worked_trajectories(), illness_death, n=1)

    def test_loglikelihood_rejects_a_missing_index_with_a_count(self, illness_death):
        u = CountVector(enumerate_paths(illness_death), tuple(WORKED_COUNTS))
        p = {j: Fraction(1, 14) for j in range(14)}
        del p[1]
        with pytest.raises(ParameterError, match="^assignment is missing path index 1$"):
            loglikelihood(p, u)


# every reader of a path-probability assignment, as f(p, spec, counts, file)
ASSIGNMENT_READERS = {
    "recover_parameters": lambda p, spec, u, f: recover_parameters(p, spec, u.table),
    "birch_residual": lambda p, spec, u, f: birch_residual(
        p, u, build_design_matrix(spec, u.table)),
    "loglikelihood": lambda p, spec, u, f: loglikelihood(p, u),
    "write_probabilities": lambda p, spec, u, f: write_probabilities(p, u.table, f),
}


MISSING = object()


@pytest.mark.parametrize("value, message", [
    (0.5, "refusing float 0.5; pass a string or Fraction for exactness"),
    (None, "cannot read None as a rational"),
    (True, "cannot read True as a rational"),
    (Fraction(-1, 14), "negative probability -1/14 at index 0"),
    (MISSING, "assignment is missing path index 0"),
], ids=["float", "None", "bool", "negative", "missing"])
@pytest.mark.parametrize("reader", ASSIGNMENT_READERS)
def test_assignment_values_are_read_exactly(illness_death, tmp_path, reader, value,
                                            message):
    u = CountVector(enumerate_paths(illness_death), tuple(WORKED_COUNTS))
    assert u[0] > 0  # so loglikelihood reads p[0]
    p = {j: Fraction(1, 14) for j in range(1, 14)}
    if value is not MISSING:
        p[0] = value
    f = tmp_path / "p.txt"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        ASSIGNMENT_READERS[reader](p, illness_death, u, f)
    assert not f.exists()


@pytest.mark.parametrize("edit, key", [
    (lambda p: p.update({14: Fraction(0), "x": Fraction(0)}), "14"),
    (lambda p: p.update({"x": Fraction(0)}), "'x'"),
    (lambda p: p.update({-1: Fraction(0)}), "-1"),
    (lambda p: p.update({True: p.pop(1)}), "True"),
    (lambda p: p.update({1.0: p.pop(1)}), "1.0"),
], ids=["past-the-end", "string", "negative", "bool", "float"])
@pytest.mark.parametrize("reader", ASSIGNMENT_READERS)
def test_assignment_keys_are_path_indices(illness_death, tmp_path, reader, edit, key):
    # a stray key was ignored, and the key True was read as index 1
    u = CountVector(enumerate_paths(illness_death), tuple(WORKED_COUNTS))
    p = {j: Fraction(1, 14) for j in range(14)}
    edit(p)
    f = tmp_path / "p.txt"
    message = f"assignment key {key} is not a path index"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        ASSIGNMENT_READERS[reader](p, illness_death, u, f)
    assert not f.exists()


def test_the_float_image_of_an_exact_fit_is_refused(illness_death):
    # read at their binary values, these floats gave a nonzero Birch residual
    table = enumerate_paths(illness_death)
    u = CountVector(table, tuple(WORKED_COUNTS))
    est = mle_nonhomogeneous(worked_trajectories(), illness_death)
    fitted = fitted_path_probabilities(est, illness_death, table)
    design = build_design_matrix(illness_death, table)
    assert not any(birch_residual(fitted, u, design))
    with pytest.raises(ParameterError, match="^refusing float "):
        birch_residual({j: float(v) for j, v in fitted.items()}, u, design)


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


@settings(max_examples=80, deadline=None)
@given(small_specs(), st.integers(0, 2**32))
@example(make_illness_death(), 0)
@example(make_illness_death(homogeneous=True), 1)
def test_recovery_from_any_nonnegative_rational_assignment(spec, seed):
    # unrelated denominators, some zeros and a total that is not 1
    rng = random.Random(seed)
    table = enumerate_paths(spec)
    q = [0 if rng.random() < 0.25 else Fraction(rng.randint(1, 50), rng.randint(1, 97))
         for _ in table]
    if sum(q) in (0, 1):
        reject()
    rec = recover_parameters(dict(enumerate(q)), spec, table)
    if not spec.homogeneous:
        assert rec.consistent
        assert (rec.params.values, rec.params.undefined) == mle_reference(
            spec, list(zip(table, q)))
    c = Fraction(rng.randint(1, 99), rng.randint(1, 99))
    scaled = recover_parameters({j: c * x for j, x in enumerate(q)}, spec, table)
    assert scaled.params.values == rec.params.values
    assert scaled.params.undefined == rec.params.undefined
    assert scaled.inconsistencies == rec.inconsistencies
    with pytest.raises(ParameterError, match="^assignment sums to zero; nothing to recover$"):
        recover_parameters(dict.fromkeys(range(len(table)), 0), spec, table)
