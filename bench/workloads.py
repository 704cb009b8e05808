"""The four benchmark workloads and the checks made on their outputs.

Each workload builds its inputs from the seed in setup(), then run()
makes one pass: it calls the package's public API on those inputs, back
to back in one thread, and checks every output.  All calls go through
attributes of the imported package (mt.name, mt.iofiles.name, ...), so
the traced run's rebinding reaches them.

The benchmark keeps its own oracles where a check needs one: a
brute-force path filter, and window statistics that decide whether a
seeded binomial is outside the model before either route sees it.
"""

import hashlib
import itertools
import json
import math
import os
import random
import string
import traceback
from collections import Counter
from fractions import Fraction
from statistics import median
from time import perf_counter

DEFAULT_SEED = 1

# Relation counts fixed by the model shape (relations, slice paths).
PINNED_COUNTS = {
    "binary n=5 homogeneous": (336, 0),
    "binary n=6 homogeneous": (2324, 0),
    "3-state n=3 nonhomogeneous": (27, 0),
    "3-state n=4 nonhomogeneous": (567, 0),
    "3-state n=5 nonhomogeneous": (8262, 0),
    "3-state n=3 homogeneous": (27, 0),
    "3-state n=4 homogeneous": (816, 0),
    "VC n=5 homogeneous": (132, 183),
    "VC n=6 homogeneous": (1008, 605),
    "restricted 4-state n=4 homogeneous": (133, 215),
    "restricted 4-state n=5 homogeneous": (1266, 936),
}

# sha256 of each workload's pass output at full size and DEFAULT_SEED:
# verdicts and witness residuals, emitted relations, fitted values, and
# CLI exit codes plus output bytes.
PINNED_DIGESTS = {
    "verify": "fcb66b09c3ae1b87d96eb6fec612e69db8f6d5acdfbe61558bf908ec568d1301",
    "generate": "6d4dfa319061198027f3742b5d5ac4a49bf684599303d2f0b28cd983cdf77f93",
    "fit": "de864b95b31d4282e635a7969bd81c65236b98a28d32f6b015aae2d8521e98ef",
    "cli": "ee5836b012c020ec6585332923326149fb0e95b19e6f01a7485f8f0d8be32adb",
}

NONMEMBER = "bench-nonmember"


class Checks:
    """Operations attempted and failed, and the digest of one pass.

    An operation is one call into the package together with the checks
    on its output.  It fails if it raises, or if any check on it fails;
    either way it counts once.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.parts = {}
        self._failed_ops = set()
        self._digest = hashlib.sha256()

    def call(self, op, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # any raise is a failed operation
            self._fail(op, "raised\n" + traceback.format_exc())
            return None

    def expect(self, op, ok, detail):
        if not ok:
            self._fail(op, detail)
        return ok

    def _fail(self, op, detail):
        if op not in self._failed_ops:
            self._failed_ops.add(op)
            self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{op}: {detail}")

    def digest(self, *items):
        for item in items:
            data = item if isinstance(item, bytes) else repr(item).encode()
            self._digest.update(len(data).to_bytes(8, "little") + data)

    def time_part(self, label, start):
        self.parts.setdefault(label, []).append(perf_counter() - start)

    def end_pass(self):
        """Close the pass: return its digest and reset per-pass state."""
        digest = self._digest.hexdigest()
        self._digest = hashlib.sha256()
        self._failed_ops = set()
        return digest


# ---------------------------------------------------------------------------
# shared inputs and oracles


def unrestricted(mt, states, n, homogeneous):
    return mt.ModelSpec(states, 1, n, homogeneous=homogeneous)


def vc_chain(mt, n, homogeneous):
    """States V, C, _ with _ absorbing, k = 2, all four letter blocks initial."""
    return mt.ModelSpec(("V", "C", "_"), 2, n, absorbing=["_"],
                        initial=[("V", "V"), ("V", "C"), ("C", "V"), ("C", "C")],
                        homogeneous=homogeneous)


def oracle_paths(states, n, k, forbidden, absorbing, initial):
    """Admissible paths by brute force over states^n, in
    declaration-lexicographic order: the first k states form an initial
    block, and every step avoids forbidden pairs and leaving an
    absorbing state."""
    out = []
    for path in itertools.product(states, repeat=n):
        if path[:k] not in initial:
            continue
        if all((a, b) not in forbidden and (a not in absorbing or b == a)
               for a, b in zip(path, path[1:])):
            out.append(path)
    return out


def window_stats(spec, path):
    """Sufficient statistics of a path: initial block plus (level, window)
    counts, levels pooled for homogeneous specs."""
    k = spec.order
    stats = Counter({("pi", path[:k]): 1})
    for end in range(k, len(path)):
        level = None if spec.homogeneous else end + 1
        stats[(level, path[end - k:end + 1])] += 1
    return stats


def seeded_nonmembers(mt, rng, spec, table, count):
    """Quadrics p_a p_b - p_c p_d whose two sides have different
    sufficient statistics, so they vanish nowhere on the model."""
    stats = [window_stats(spec, p) for p in table]
    out = []
    while len(out) < count:
        a, b, c, d = (rng.randrange(len(table)) for _ in range(4))
        if stats[a] + stats[b] == stats[c] + stats[d]:
            continue
        out.append(mt.canonicalize(Counter((a, b)), Counter((c, d))))
    return out


def with_nonmembers(mt, rng, relset, binomials, nonmembers):
    """A RelationSet over relset.table holding binomials (tagged as in
    relset) with the non-members inserted at seeded positions."""
    tags = dict(zip(relset.binomials, relset.provenance))
    items = [(b, tags[b]) for b in binomials]
    for b in nonmembers:
        pos = rng.randint(0, len(items))
        items.insert(pos, (b, NONMEMBER))
    bins = tuple(b for b, _ in items)
    provs = tuple(t for _, t in items)
    positions = {i for i, t in enumerate(provs) if t == NONMEMBER}
    return mt.RelationSet(relset.table, bins, provs, relset.slice_paths), positions


def check_pinned(chk, op, label, relset):
    want = PINNED_COUNTS[label]
    got = (len(relset), len(relset.slice_paths))
    chk.expect(op, got == want, f"{label}: {got} relations/slice paths, pinned {want}")


def check_verification(chk, op, report, nonmember_positions):
    chk.expect(op, report.agreement, "numeric and kernel routes disagree")
    chk.expect(op, len(nonmember_positions) > 0, "no seeded non-member in the set")
    for entry in report.entries:
        if entry.index in nonmember_positions:
            chk.expect(op, not entry.vanish.ok and entry.vanish.witness is not None
                       and not entry.kernel.ok,
                       f"non-member {entry.index} passed a route")
        else:
            chk.expect(op, entry.vanish.ok and entry.kernel.ok,
                       f"relation {entry.index} failed a route")
        w = entry.vanish.witness
        chk.digest(entry.index, entry.vanish.status, entry.kernel.ok,
                   None if w is None else (w.trial, str(w.residual)))


def relabel(rng, states):
    """Seeded declaration order and single-letter names for the states.

    Returns (declared states, name of each original state).  The model
    is isomorphic for every seed, so counts stay pinned while path order
    and relation indices change with the seed.
    """
    names = rng.sample(string.ascii_lowercase, len(states))
    rename = dict(zip(states, names))
    declared = [rename[s] for s in states]
    rng.shuffle(declared)
    return tuple(declared), rename


class Workload:
    """setup(seed) -> state builds the inputs; run(state, chk) is one pass;
    sizes(state) gives the stated input sizes for the run record."""

    def __init__(self, mt, size, workdir):
        self.mt, self.size, self.cfg = mt, size, self.SIZES[size]

    def check_setup(self, state, chk):
        """Checks on set-up outputs, made once after the timed set-ups."""

    def baselines(self, state, part_s):
        """ROADMAP item 1 baselines this workload can be compared with."""
        return {}


# ---------------------------------------------------------------------------
# verify


class Verify(Workload):
    """verify_relation_set on two pre-generated relation sets.

    (a) unrestricted 3-state k=1 nonhomogeneous, trials=5: a seeded
    sample of its generated relations plus seeded non-members.
    (b) the restricted VC chain, k=2, homogeneous, trials=20, likewise.
    Generation and design matrices are set-up work; the pass is the
    numeric route (dominant) and the kernel route.
    """

    SIZES = {
        "full": {"a_n": 5, "a_sample": 160, "a_trials": 5, "a_nonmembers": 3,
                 "b_n": 6, "b_sample": 50, "b_trials": 20, "b_nonmembers": 2},
        "tiny": {"a_n": 4, "a_sample": 20, "a_trials": 3, "a_nonmembers": 1,
                 "b_n": 5, "b_sample": 10, "b_trials": 4, "b_nonmembers": 1},
    }

    def setup(self, seed):
        mt, cfg = self.mt, self.cfg
        rng = random.Random(f"verify:{seed}")
        parts = []
        for key, label, spec in (
                ("a", f"3-state n={cfg['a_n']} nonhomogeneous",
                 unrestricted(mt, relabel(rng, ("0", "1", "2"))[0], cfg["a_n"], False)),
                ("b", f"VC n={cfg['b_n']} homogeneous",
                 vc_chain(mt, cfg["b_n"], True))):
            table = mt.enumerate_paths(spec)
            full = mt.generators_for(spec, table)
            sample = rng.sample(full.binomials, min(cfg[key + "_sample"], len(full)))
            nonmembers = seeded_nonmembers(mt, rng, spec, table,
                                           cfg[key + "_nonmembers"])
            relset, positions = with_nonmembers(mt, rng, full, sample, nonmembers)
            parts.append({
                "key": key, "label": label, "spec": spec, "full": full,
                "relset": relset, "positions": positions,
                "design": mt.build_design_matrix(spec, table),
                "trials": cfg[key + "_trials"], "seed": f"{seed}{key}",
            })
        return parts

    def check_setup(self, parts, chk):
        for part in parts:
            chk.attempted += 1
            check_pinned(chk, "setup " + part["key"], part["label"], part["full"])

    def run(self, parts, chk):
        for part in parts:
            op = "verify_relation_set " + part["key"]
            start = perf_counter()
            report = chk.call(op, self.mt.verify_relation_set, part["relset"],
                              part["spec"], trials=part["trials"],
                              seed=part["seed"], design=part["design"])
            chk.time_part(part["key"], start)
            if report is not None:
                check_verification(chk, op, report, part["positions"])

    def sizes(self, parts):
        return {p["label"]: {"paths": len(p["relset"].table),
                             "relations_generated": len(p["full"]),
                             "slice_paths": len(p["full"].slice_paths),
                             "relations_verified": len(p["relset"]),
                             "nonmembers": len(p["positions"]),
                             "trials": p["trials"]} for p in parts}

    def baselines(self, parts, part_s):
        """ROADMAP item 1: verify_relation_set(trials=5) over all 8,262
        n=5 nonhomogeneous relations took 10.3 s; scaled from the sample."""
        a = parts[0]
        if self.size != "full":
            return {}
        per_relation = median(part_s["a"]) / len(a["relset"])
        return {"verify 3-state n=5 nonhomogeneous, 8262 relations, trials=5":
                {"baseline_s": 10.3, "measured_s": per_relation * len(a["full"]),
                 "measured_as": f"median over passes of {len(a['relset'])} "
                                f"relations, scaled to {len(a['full'])}"}}


# ---------------------------------------------------------------------------
# generate


class Generate(Workload):
    """enumerate_paths, generators_for, build_design_matrix, then
    kernel_membership on every emitted relation, for three specs.

    The seed chooses the declaration order and names of the states, so
    path order and relation indices differ per seed while every count
    stays pinned.
    """

    SIZES = {
        "full": [("binary n=6 homogeneous", 2, 6, True, False),
                 ("3-state n=4 homogeneous", 3, 4, True, False),
                 ("3-state n=4 nonhomogeneous", 3, 4, False, False),
                 ("restricted 4-state n=5 homogeneous", 4, 5, True, True)],
        "tiny": [("binary n=5 homogeneous", 2, 5, True, False),
                 ("3-state n=3 nonhomogeneous", 3, 3, False, False),
                 ("restricted 4-state n=4 homogeneous", 4, 4, True, True)],
    }

    def setup(self, seed):
        rng = random.Random(f"generate:{seed}")
        cases = []
        for label, nstates, n, hom, restricted in self.cfg:
            states, name = relabel(rng, tuple(str(i) for i in range(nstates)))
            if restricted:
                # 1->0 and 2->0 forbidden, 3 absorbing, chains start in 0 or 1
                forbidden = {(name["1"], name["0"]), (name["2"], name["0"])}
                absorbing = {name["3"]}
                initial = {name["0"], name["1"]}
            else:
                forbidden, absorbing, initial = set(), set(), set(states)
            spec = self.mt.ModelSpec(states, 1, n, forbidden=sorted(forbidden),
                                     absorbing=sorted(absorbing),
                                     initial=sorted(initial), homogeneous=hom)
            expected = oracle_paths(states, n, 1, forbidden, absorbing,
                                    {(s,) for s in initial})
            cases.append({"label": label, "spec": spec, "paths": expected})
        return cases

    def run(self, cases, chk):
        mt = self.mt
        for case in cases:
            label, spec = case["label"], case["spec"]
            op = "enumerate_paths " + label
            table = chk.call(op, mt.enumerate_paths, spec)
            if table is None:
                continue
            chk.expect(op, list(table) == case["paths"],
                       "paths differ from the brute-force oracle")
            op = "generators_for " + label
            relset = chk.call(op, mt.generators_for, spec, table)
            if relset is not None:
                check_pinned(chk, op, label, relset)
            op = "build_design_matrix " + label
            design = chk.call(op, mt.build_design_matrix, spec, table)
            if design is not None:
                chk.expect(op, design.shape == (len(spec.symbols()), len(table)),
                           f"design matrix shape {design.shape}")
            if relset is None or design is None:
                continue
            op = "kernel_membership " + label
            bad = chk.call(op, _kernel_failures, mt, relset, design)
            chk.expect(op, bad == 0, f"{bad} emitted relations fail the kernel route")
            chk.digest(relset.binomials, relset.provenance, relset.slice_paths)
            case["counts"] = (len(table), len(relset), len(relset.slice_paths))

    def sizes(self, cases):
        return {c["label"]: dict(zip(("paths", "relations", "slice_paths"),
                                     c.get("counts", ())))
                for c in cases}


def _kernel_failures(mt, relset, design):
    return sum(1 for b in relset.binomials
               if not mt.kernel_membership(b, design).ok)


# ---------------------------------------------------------------------------
# fit


# Transition weights of the simulated chain, fixed so that the number of
# distinct records, which sets the cost of the tallies, varies little
# between seeds; the seed drives the draws.
TRUE_CHAIN = {
    "init": ("012", (5, 3, 2)),
    "0": ("0123", (4, 3, 2, 1)),
    "1": ("123", (5, 3, 2)),
    "2": ("0123", (2, 2, 4, 2)),
    "3": ("3", (1,)),
}


class Fit(Workload):
    """Closed-form estimation on simulated data from a restricted chain.

    States 0..3, k=1, 1->0 forbidden, 3 absorbing, initial {0, 1, 2};
    seeded draws of trajectories of length L from TRUE_CHAIN, analysed
    at horizon n.  Every call is in estimate, plus one trajectory-file
    round trip through iofiles.
    """

    SIZES = {
        "full": {"trajectories": 60000, "length": 10, "n": 6},
        "tiny": {"trajectories": 2000, "length": 6, "n": 4},
    }

    def __init__(self, mt, size, workdir):
        super().__init__(mt, size, workdir)
        self.traj_file = os.path.join(workdir, "trajectories.txt")

    def setup(self, seed):
        mt, cfg = self.mt, self.cfg
        rng = random.Random(f"fit:{seed}")
        states = ("0", "1", "2", "3")
        cum = {s: (succ, list(itertools.accumulate(weights)))
               for s, (succ, weights) in TRUE_CHAIN.items()}
        init = cum.pop("init")
        tally = Counter()
        rand = rng.random
        for _ in range(cfg["trajectories"]):
            succ, acc = init
            s = succ[_draw(acc, rand)]
            traj = [s]
            for _ in range(cfg["length"] - 1):
                succ, acc = cum[s]
                s = succ[_draw(acc, rand)]
                traj.append(s)
            tally[tuple(traj)] += 1
        trajs = mt.TrajectorySet(tuple(tally.items()))
        common = dict(forbidden=[("1", "0")], absorbing=["3"], initial=["0", "1", "2"])
        spec = mt.ModelSpec(states, 1, cfg["n"], **common)
        hspec = mt.ModelSpec(states, 1, cfg["n"], homogeneous=True, **common)
        table = mt.enumerate_paths(spec)
        return {"trajs": trajs, "spec": spec, "hspec": hspec, "table": table,
                "design": mt.build_design_matrix(spec, table)}

    def run(self, st, chk):
        mt = self.mt
        trajs, spec, hspec, table = st["trajs"], st["spec"], st["hspec"], st["table"]
        n = spec.horizon
        est = chk.call("mle_nonhomogeneous", mt.mle_nonhomogeneous, trajs, spec, n=n)
        for window in ("prefix", "slide"):
            op = "mle_homogeneous " + window
            hom = chk.call(op, mt.mle_homogeneous, trajs, hspec, n=n, window=window)
            if hom is not None:
                _check_rows(chk, op, hom)
                chk.digest(sorted(hom.trans.items(), key=repr))
        u = chk.call("counts_from_trajectories", mt.counts_from_trajectories,
                     trajs, spec, n=n, table=table)
        if est is None or u is None:
            return
        _check_rows(chk, "mle_nonhomogeneous", est)
        chk.expect("counts_from_trajectories", u.total == trajs.total,
                   f"counts total {u.total}, trajectories {trajs.total}")
        fitted = chk.call("fitted_path_probabilities", mt.fitted_path_probabilities,
                          est, spec, table)
        if fitted is None:
            return
        chk.expect("fitted_path_probabilities", sum(fitted.values()) == 1,
                   "fitted probabilities do not sum to exactly 1")
        hier = chk.call("mle_paths_hierarchical", mt.mle_paths_hierarchical,
                        u, spec, table)
        if hier is not None:
            bad = [j for j, v in hier.items() if v is not None and v != fitted[j]]
            chk.expect("mle_paths_hierarchical", not bad,
                       f"{len(bad)} paths differ from the fitted MLE")
        ll = chk.call("loglikelihood", mt.loglikelihood, fitted, u)
        if ll is not None:
            chk.expect("loglikelihood", math.isfinite(ll) and ll < 0,
                       f"log-likelihood {ll}")
        rec = chk.call("recover_parameters", mt.recover_parameters, fitted, spec, table)
        if rec is not None:
            params = rec.params
            pushed = [mt.path_probability(spec, params, p) for p in table]
            chk.expect("recover_parameters",
                       all(pushed[j] == fitted[j] for j in range(len(table))),
                       "recovered parameters do not reproduce the fit")
        birch = chk.call("birch_residual", mt.birch_residual, fitted, u, st["design"])
        if birch is not None:
            chk.expect("birch_residual", all(r == 0 for r in birch),
                       "nonhomogeneous Birch residual is not zero")
        chk.call("write_trajectories", mt.write_trajectories, trajs, self.traj_file)
        back = chk.call("ingest_trajectories", mt.ingest_trajectories,
                        self.traj_file, spec)
        if back is not None:
            chk.expect("ingest_trajectories", back.records == trajs.records,
                       "trajectory round trip changed the records")
        chk.digest([str(fitted[j]) for j in range(len(table))], repr(ll))

    def sizes(self, st):
        return {"trajectories": st["trajs"].total, "records": len(st["trajs"].records),
                "trajectory_length": st["trajs"].length, "n": st["spec"].horizon,
                "paths": len(st["table"]), "design": list(st["design"].shape)}

def _draw(cumulative, rand):
    x = rand() * cumulative[-1]
    for i, c in enumerate(cumulative):
        if x < c:
            return i
    return len(cumulative) - 1


def _check_rows(chk, op, report):
    """Initial distribution and every defined transition row sum to 1."""
    chk.expect(op, sum(report.pi.values()) == 1, "pi does not sum to 1")
    rows = Counter()
    for (level, h, _), v in report.trans.items():
        rows[(level, h)] += v
    chk.expect(op, all(v == 1 for v in rows.values()),
               "a transition row does not sum to 1")


# ---------------------------------------------------------------------------
# cli


VOWELS = "aeiou"
PROBABILITIES_OP = "probabilities file from the cli mle fit"


class Cli(Workload):
    """A scripted in-process session of cli.main over all nine verbs, on
    files written in setup: a seeded Zipf-weighted corpus collapsed to
    V/C, model specs, and a relation file with seeded non-members."""

    SIZES = {
        "full": {"vocabulary": 5000, "words": 60000, "relations_n": 4,
                 "verify_n": 4, "verify_sample": 300, "verify_nonmembers": 2},
        "tiny": {"vocabulary": 200, "words": 1500, "relations_n": 3,
                 "verify_n": 3, "verify_sample": 20, "verify_nonmembers": 1},
    }

    def __init__(self, mt, size, workdir):
        super().__init__(mt, size, workdir)
        # Relative paths: the CLI prints some of them, and output bytes
        # are digested.
        self.dir = os.path.relpath(workdir)

    def f(self, name):
        return os.path.join(self.dir, name)

    def setup(self, seed):
        mt, cfg = self.mt, self.cfg
        rng = random.Random(f"cli:{seed}")
        vocab = set()
        while len(vocab) < cfg["vocabulary"]:
            length = rng.choice((2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 6, 7))
            vocab.add("".join(rng.choice(string.ascii_lowercase) for _ in range(length)))
        vocab = sorted(vocab)
        rng.shuffle(vocab)
        weights = list(itertools.accumulate(1 / r for r in range(1, len(vocab) + 1)))
        words = rng.choices(vocab, cum_weights=weights, k=cfg["words"])
        lines, line = [], []
        for i, w in enumerate(words):
            if rng.random() < 0.05:
                w = w.capitalize()
            if rng.random() < 0.02:
                w += rng.choice(("'s", "1", "'"))
            line.append(w)
            if len(line) == 12 or i == len(words) - 1:
                lines.append(" ".join(line))
                line = []
        text = "\n".join(lines) + "\n"
        _write(self.f("corpus.txt"), text)
        _write(self.f("corpus.yaml"), "alphabet: letters\npad: \"_\"\n"
               "horizon: max\nmin_word_length: 2\n")
        _write(self.f("collapse.yaml"), "\"_\": \"_\"\n" + "".join(
            f"{c}: {'V' if c in VOWELS else 'C'}\n" for c in string.ascii_lowercase))
        vc = ("states: [V, C, \"_\"]\nk: 2\nn: 5\nabsorbing: [\"_\"]\n"
              "initial: [[V, V], [V, C], [C, V], [C, C]]\n")
        _write(self.f("vc_hom.yaml"), vc + "homogeneous: true\n")
        _write(self.f("vc_nonhom.yaml"), vc)
        _write(self.f("three_nonhom.yaml"),
               f"states: [0, 1, 2]\nk: 1\nn: {cfg['relations_n']}\n")
        _write(self.f("three_hom.yaml"),
               f"states: [0, 1, 2]\nk: 1\nn: {cfg['verify_n']}\nhomogeneous: true\n")
        spec = unrestricted(mt, ("0", "1", "2"), cfg["verify_n"], True)
        table = mt.enumerate_paths(spec)
        full = mt.generators_for(spec, table)
        nonmembers = seeded_nonmembers(mt, rng, spec, table, cfg["verify_nonmembers"])
        sample = rng.sample(full.binomials, cfg["verify_sample"])
        relset, positions = with_nonmembers(mt, rng, full, sample, nonmembers)
        mt.write_relations(relset, self.f("three_hom_relations.json"))
        kept = ["".join(c for c in w.lower() if c not in "'0123456789")
                for w in text.split()]
        letters = ("V", "C")
        return {"seed": str(seed), "corpus_bytes": len(text.encode()),
                "words": sum(1 for w in kept if len(w) >= 2),
                "full": full, "relset": relset, "positions": positions,
                "vc_paths": len(oracle_paths(
                    ("V", "C", "_"), 5, 2, set(), {"_"},
                    set(itertools.product(letters, repeat=2))))}

    def check_setup(self, st, chk):
        chk.attempted += 1
        check_pinned(chk, "setup", f"3-state n={self.cfg['verify_n']} homogeneous",
                     st["full"])

    def session(self, st):
        """(argv, expected exit code) for each CLI call, in order."""
        f, seed = self.f, st["seed"]
        vc_hom, vc_nonhom = f("vc_hom.yaml"), f("vc_nonhom.yaml")
        corpus = ["--corpus", f("corpus.txt"), "--corpus-config", f("corpus.yaml"),
                  "--collapse", f("collapse.yaml")]
        return [
            (["validate", "--spec", vc_hom, "--out", f("validate.txt")], 0),
            (["paths", "--spec", vc_hom, "--out", f("paths.txt")], 0),
            (["ingest", "--spec", vc_hom, *corpus, "--emit", "counts",
              "--out", f("counts.txt")], 0),
            (["ingest", "--spec", vc_hom, *corpus, "--out", f("trajectories.txt")], 0),
            (["mle", "--spec", vc_hom, "--counts", f("counts.txt"),
              "--out", f("mle_counts.txt")], 0),
            (["mle", "--spec", vc_nonhom, "--counts", f("counts.txt"),
              "--format", "structured", "--out", f("mle_counts.json")], 0),
            (["mle", "--spec", vc_hom, "--trajectories", f("trajectories.txt"),
              "--window", "slide", "--out", f("mle_trajectories.txt")], 0),
            (self._probabilities, None),
            (["recover", "--spec", vc_nonhom, "--probabilities",
              f("probabilities.txt"), "--out", f("recover.txt")], 0),
            (["birch", "--spec", vc_nonhom, "--probabilities", f("probabilities.txt"),
              "--counts", f("counts.txt"), "--out", f("birch.txt")], 0),
            (["relations", "--spec", f("three_nonhom.yaml"), "--format", "structured",
              "--out", f("relations.json")], 0),
            (["verify", "--spec", f("three_hom.yaml"), "--relations",
              f("three_hom_relations.json"), "--trials", "2", "--seed", seed,
              "--out", f("verify.txt")], 2),
            (["report", "--spec", vc_nonhom, "--counts", f("counts.txt"),
              "--trials", "2", "--seed", seed, "--out", f("report.txt")], 0),
        ]

    def run(self, st, chk):
        main = self.mt.cli.main
        for argv, expected in self.session(st):
            if callable(argv):
                chk.call(PROBABILITIES_OP, argv, chk)
                continue
            op = "cli " + argv[0] + " " + argv[-1]
            code = chk.call(op, main, argv)
            if code is None:
                continue
            chk.expect(op, code == expected, f"exit code {code}, expected {expected}")
            with open(argv[-1], "rb") as fh:
                data = fh.read()
            chk.digest(argv, code, data)
            self._check_output(chk, op, argv[0], data, st)

    def _probabilities(self, chk):
        """Write the session's own fit as a probabilities file."""
        with open(self.f("mle_counts.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        fitted = doc.get("fitted") or []
        chk.expect(PROBABILITIES_OP, sum(Fraction(r["value"]) for r in fitted) == 1,
                   "fitted probabilities do not sum to exactly 1")
        _write(self.f("probabilities.txt"), "".join(
            ",".join(r["path"]) + " " + r["value"] + "\n" for r in fitted))

    def _check_output(self, chk, op, verb, data, st):
        text = data.decode("utf-8")
        if verb == "ingest":
            total = sum(int(line.rsplit(" ", 1)[1]) for line in text.splitlines())
            chk.expect(op, total == st["words"],
                       f"ingest kept {total} words, corpus has {st['words']}")
        elif verb == "relations":
            doc = json.loads(text)
            want = PINNED_COUNTS[f"3-state n={self.cfg['relations_n']} nonhomogeneous"]
            got = (len(doc["relations"]), len(doc["slice"]))
            chk.expect(op, got == want, f"{got} relations/slice paths, pinned {want}")
        elif verb == "verify":
            failed = {int(line[1:line.index("]")]) for line in text.splitlines()
                      if line.startswith("[") and " FAIL " in line}
            chk.expect(op, failed == st["positions"] and failed,
                       f"failed relations {sorted(failed)}, seeded non-members "
                       f"{sorted(st['positions'])}")
        elif verb == "paths":
            chk.expect(op, text.startswith(f"{st['vc_paths']} admissible paths\n"),
                       f"path count line {text.splitlines()[0]!r}, oracle "
                       f"{st['vc_paths']}")
        elif verb == "birch":
            chk.expect(op, text.splitlines()[-1].startswith("max |residual| = 0 "),
                       "Birch residual is not zero")

    def sizes(self, st):
        return {"corpus_bytes": st["corpus_bytes"], "corpus_words": st["words"],
                "calls": sum(1 for a, _ in self.session(st) if not callable(a)),
                "relations_n": self.cfg["relations_n"],
                "verify_relations": len(st["relset"]),
                "verify_nonmembers": len(st["positions"])}


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


WORKLOADS = {"verify": Verify, "generate": Generate, "fit": Fit, "cli": Cli}
