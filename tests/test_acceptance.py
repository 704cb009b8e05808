"""Checklist acceptance tests for the whole toolkit.

Each test exercises one required end-to-end behavior and prints a
single PASS/FAIL line with its runtime, so a full run doubles as a
status report.  Tolerances are part of the contract: exact rational
equality unless a stated decimal slack appears in the assertion.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from markovtoric import (
    CountVector,
    ModelSpec,
    TrajectorySet,
    birch_residual,
    build_design_matrix,
    canonicalize,
    enumerate_paths,
    fitted_path_probabilities,
    generators_for,
    kernel_membership,
    loglikelihood,
    mle_homogeneous,
    mle_nonhomogeneous,
    mle_paths_hierarchical,
    path_probability,
    recover_parameters,
    sample_parameters,
    vanishes_on_model,
    verify_relation_set,
)
from markovtoric.model import ParameterPoint
from markovtoric.iofiles import (
    read_collapse_map,
    read_corpus_spec,
    collapse_states,
    corpus_to_trajectories,
)

from conftest import (
    DATA,
    make_binary_chain,
    make_illness_death,
    make_reversible_illness_death,
    make_survival,
    make_vc_chain,
)
from oracles import (
    assignment_from_parameters,
    brute_force_degree2,
    degree2_diffs,
    evaluate_binomial,
)
from reference_data import (
    BINARY_POOLED_RELATIONS,
    ILLNESS_DEATH_POOLED_RELATIONS,
    ILLNESS_DEATH_RELATIONS,
    MOMENT_MATCHED_DECIMALS,
    REVERSIBLE_RELATIONS,
    SECOND_ORDER_PI,
    SECOND_ORDER_PRODUCTS,
    SECOND_ORDER_ROWS,
    WORKED_COUNTS,
    WORKED_FITTED_DECIMALS,
    WORKED_PATHS,
    WORKED_PI_DECIMALS,
    WORKED_POOLED_DECIMALS,
)


@contextmanager
def criterion(capsys, num, slug, limit):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - t0
        with capsys.disabled():
            print(f"criterion {num:02d} {slug}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < limit
    verdict = "PASS" if ok else "FAIL (over time limit)"
    with capsys.disabled():
        print(f"criterion {num:02d} {slug}: {verdict} "
              f"({elapsed:.2f}s, limit {limit:g}s)")
    assert ok, f"{slug} took {elapsed:.2f}s, limit is {limit}s"


def as_binomial(table, fixture):
    plus, minus = fixture
    to_side = lambda side: {table.index(tuple(p)): e for p, e in side}
    return canonicalize(to_side(plus), to_side(minus))


def worked_trajectories():
    return TrajectorySet(tuple((tuple(p), c)
                               for p, c in zip(WORKED_PATHS, WORKED_COUNTS)))


def worked_count_vector(table):
    return CountVector(table, WORKED_COUNTS)


def test_criterion_01_path_enumeration(capsys, illness_death):
    with criterion(capsys, 1, "path-enumeration", 1.0):
        table = enumerate_paths(illness_death)
        assert tuple("".join(p) for p in table) == WORKED_PATHS
        free = ModelSpec(("0", "1", "2"), 1, 4)
        assert len(enumerate_paths(free)) == 81


def test_criterion_02_fixture_vanishing_nonhomogeneous(
        capsys, illness_death, reversible_illness_death):
    with criterion(capsys, 2, "fixture-vanishing-nonhomogeneous", 10.0):
        cases = ((illness_death, ILLNESS_DEATH_RELATIONS),
                 (reversible_illness_death, REVERSIBLE_RELATIONS))
        assert len(ILLNESS_DEATH_RELATIONS) == 5
        assert len(REVERSIBLE_RELATIONS) == 66
        for spec, fixtures in cases:
            table = enumerate_paths(spec)
            design = build_design_matrix(spec, table)
            for idx, fx in enumerate(fixtures):
                b = as_binomial(table, fx)
                check = vanishes_on_model(b, spec, table, trials=100,
                                          seed="accept2", relation_index=idx)
                assert check.ok, b.text(table)
                assert kernel_membership(b, design).ok, b.text(table)


def test_criterion_03_fixture_vanishing_homogeneous(capsys, illness_death_hom):
    with criterion(capsys, 3, "fixture-vanishing-homogeneous", 10.0):
        binary_hom = make_binary_chain(1, 3, homogeneous=True)
        cases = ((illness_death_hom, ILLNESS_DEATH_POOLED_RELATIONS),
                 (binary_hom, BINARY_POOLED_RELATIONS))
        assert len(ILLNESS_DEATH_POOLED_RELATIONS) == 26
        assert len(BINARY_POOLED_RELATIONS) == 6
        for spec, fixtures in cases:
            table = enumerate_paths(spec)
            design = build_design_matrix(spec, table)
            for idx, fx in enumerate(fixtures):
                b = as_binomial(table, fx)
                check = vanishes_on_model(b, spec, table, trials=100,
                                          seed="accept3", relation_index=idx)
                assert check.ok, b.text(table)
                assert kernel_membership(b, design).ok, b.text(table)


def test_criterion_04_emitted_family_soundness(capsys):
    with criterion(capsys, 4, "emitted-family-soundness", 60.0):
        specs = []
        for size in (2, 3):
            states = ("0", "1", "2")[:size]
            for k in (1, 2):
                for n in range(k + 1, 6):
                    for hom in (False, True):
                        specs.append(ModelSpec(states, k, n, homogeneous=hom))
        # restricted shapes: forbidden transitions, absorbing states,
        # initial-state constraints
        specs += [make_illness_death(), make_illness_death(homogeneous=True),
                  make_survival(), make_vc_chain(5)]
        total = 0
        for spec in specs:
            relset = generators_for(spec)
            total += len(relset.binomials)
            report = verify_relation_set(relset, spec, trials=2, seed="accept4")
            assert report.all_pass, repr(spec)
            assert report.agreement, repr(spec)
        assert total > 0


def test_criterion_05_degree2_completeness(capsys):
    with criterion(capsys, 5, "degree2-completeness", 60.0):
        for n in (3, 4):
            spec = make_binary_chain(1, n)
            table = enumerate_paths(spec)
            design = build_design_matrix(spec, table)
            emitted = generators_for(spec, table)
            expected = {tuple(sorted(b.diff().items()))
                        for b in brute_force_degree2(design)}
            got = degree2_diffs(b for b, _ in emitted)
            assert got == expected, f"n={n}"
            assert expected, f"n={n} brute-force scan found nothing"


def test_criterion_06_worked_mle(capsys, illness_death_hom):
    with criterion(capsys, 6, "worked-mle", 1.0):
        est = mle_homogeneous(worked_trajectories(), illness_death_hom)
        for s, target in WORKED_PI_DECIMALS.items():
            if (s,) in illness_death_hom.initial_blocks:
                assert abs(float(est.values[("pi", (s,))]) - target) <= 0.001
            else:
                assert target == 0.0
        for (h, s), target in WORKED_POOLED_DECIMALS.items():
            if s in illness_death_hom.successors((h,)):
                assert abs(float(est.values[("a", None, (h,), s)]) - target) <= 0.001
            else:
                assert target == 0.0
        table = enumerate_paths(illness_death_hom)
        fitted = fitted_path_probabilities(est, illness_death_hom, table)
        assert len(fitted) == 14
        for j, target in enumerate(WORKED_FITTED_DECIMALS):
            assert abs(float(fitted[j]) - target) <= 0.001


def test_criterion_07_hierarchical_identity(capsys):
    with criterion(capsys, 7, "hierarchical-identity", 10.0):
        spec = make_binary_chain(1, 4)
        table = enumerate_paths(spec)
        rng = random.Random("accept7")
        for _ in range(50):
            counts = tuple(rng.randint(1, 200) for _ in table)
            u = CountVector(table, counts)
            trajs = TrajectorySet(tuple(zip(table, counts)))
            est = mle_nonhomogeneous(trajs, spec)
            fitted = fitted_path_probabilities(est, spec, table)
            assert mle_paths_hierarchical(u, spec, table) == fitted


def test_criterion_08_local_optimality(capsys, illness_death,
                                       illness_death_hom):
    with criterion(capsys, 8, "local-optimality", 30.0):
        synthetic = (7, 3, 11, 2, 5, 8, 1, 9, 4, 6, 10, 2, 3, 5)
        datasets = []

        table = enumerate_paths(illness_death_hom)
        u = worked_count_vector(table)
        est = mle_homogeneous(worked_trajectories(), illness_death_hom)
        fitted = fitted_path_probabilities(est, illness_death_hom, table)
        datasets.append((illness_death_hom, table, u, fitted))

        table_n = enumerate_paths(illness_death)
        u_n = CountVector(table_n, synthetic)
        trajs = TrajectorySet(tuple(zip(table_n, synthetic)))
        est_n = mle_nonhomogeneous(trajs, illness_death)
        fitted_n = fitted_path_probabilities(est_n, illness_death, table_n)
        datasets.append((illness_death, table_n, u_n, fitted_n))

        for spec, table, u, fitted in datasets:
            best = loglikelihood(fitted, u)
            for i in range(1000):
                params = sample_parameters(spec, f"accept8:{i}")
                q = assignment_from_parameters(spec, params, table)
                ll = loglikelihood(q, u)
                gap = max(abs(float(q[j] - fitted[j]))
                          for j in range(len(table)))
                if gap > 1e-6:
                    assert best > ll
                else:
                    assert best >= ll


def test_criterion_09_moment_residual_distinction(capsys, illness_death_hom):
    with criterion(capsys, 9, "moment-residual-distinction", 1.0):
        table = enumerate_paths(illness_death_hom)
        u = worked_count_vector(table)
        assert u.total == 685
        design = build_design_matrix(illness_death_hom, table)

        matched = {j: Fraction(repr(v))
                   for j, v in enumerate(MOMENT_MATCHED_DECIMALS)}
        res = birch_residual(matched, u, design)
        assert max(abs(r) for r in res) <= Fraction(7, 10)

        plain_fit = {j: Fraction(repr(v))
                     for j, v in enumerate(WORKED_FITTED_DECIMALS)}
        res = birch_residual(plain_fit, u, design)
        assert max(abs(r) for r in res) > Fraction(7, 10)


def test_criterion_10_identifiability_round_trip(capsys):
    with criterion(capsys, 10, "identifiability-round-trip", 30.0):
        specs = (make_binary_chain(1, 3), make_illness_death(),
                 make_reversible_illness_death(), make_binary_chain(2, 4))
        for spec in specs:
            table = enumerate_paths(spec)
            for i in range(100):
                params = sample_parameters(spec, f"accept10:{i}")
                p = assignment_from_parameters(spec, params, table)
                rec = recover_parameters(p, spec, table)
                assert rec.consistent
                back = assignment_from_parameters(spec, rec.params, table)
                assert back == p


def test_criterion_11_corpus_pipeline(capsys):
    with criterion(capsys, 11, "corpus-pipeline", 5.0):
        cs = read_corpus_spec(DATA / "vc_corpus.yaml")
        cm = read_collapse_map(DATA / "vc_collapse.yaml")
        text = (DATA / "sample_corpus.txt").read_text()
        coarse = make_vc_chain(5)
        collapsed = collapse_states(corpus_to_trajectories(text, cs),
                                    cm, coarse)
        assert collapsed.total == 19
        est = mle_homogeneous(collapsed, coarse)
        expected_pi = {("C", "C"): Fraction(5, 19), ("C", "V"): Fraction(8, 19),
                       ("V", "C"): Fraction(5, 19), ("V", "V"): Fraction(1, 19)}
        for block, v in expected_pi.items():
            assert est.values[("pi", block)] == v
        expected_rows = {
            ("V", "V"): {"V": Fraction(0), "C": Fraction(1, 4),
                         "_": Fraction(3, 4)},
            ("V", "C"): {"V": Fraction(1, 12), "C": Fraction(5, 12),
                         "_": Fraction(1, 2)},
            ("C", "V"): {"V": Fraction(3, 14), "C": Fraction(3, 7),
                         "_": Fraction(5, 14)},
            ("C", "C"): {"V": Fraction(1, 2), "C": Fraction(0),
                         "_": Fraction(1, 2)},
            ("V", "_"): {"_": Fraction(1)},
            ("C", "_"): {"_": Fraction(1)},
            ("_", "_"): {"_": Fraction(1)},
        }
        for hist, row in expected_rows.items():
            for s, v in row.items():
                assert est.values[("a", None, hist, s)] == v, (hist, s)

        # printed rounded estimates, fed back in as exact decimals,
        # must reproduce the printed path products
        spec3 = make_vc_chain(3)
        params = ParameterPoint({
            **{("pi", b): Fraction(v) for b, v in SECOND_ORDER_PI.items()},
            **{("a", None, h, s): Fraction(v)
               for h, row in SECOND_ORDER_ROWS.items() for s, v in row.items()}})
        for path_str, printed in SECOND_ORDER_PRODUCTS.items():
            got = path_probability(spec3, params, tuple(path_str))
            assert abs(got - Fraction(printed)) <= Fraction(1, 10_000), path_str


def test_criterion_12_homogeneity_separating_relation(capsys, illness_death,
                                                      illness_death_hom):
    with criterion(capsys, 12, "homogeneity-separating-relation", 5.0):
        table = enumerate_paths(illness_death_hom)
        idx = {s: table.index(tuple(s)) for s in ("0011", "0001", "0111")}
        b = canonicalize({idx["0011"]: 2},
                         {idx["0001"]: 1, idx["0111"]: 1})
        for t in range(100):
            params = sample_parameters(illness_death_hom, f"accept12:{t}")
            assignment = {j: path_probability(illness_death_hom, params,
                                              table[j])
                          for j in b.support()}
            assert evaluate_binomial(b, assignment) == 0
        # time-dependent witness: the same relation separates as soon as
        # the level-2 and level-3 rows differ
        params = sample_parameters(illness_death, "accept12:witness")
        assert (params.values[("a", 2, ("0",), "1")]
                != params.values[("a", 3, ("0",), "1")])
        assignment = {j: path_probability(illness_death, params, table[j])
                      for j in b.support()}
        assert evaluate_binomial(b, assignment) != 0
