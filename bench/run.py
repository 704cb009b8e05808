"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes back to back, in this one process and thread, for S
seconds, and rebuilds the workload's inputs from the seed between passes
for about a fifth of that time.  Every pass checks its outputs.  A fixed
reference computation runs between every two timed steps, and wall_s and
setup_s are medians of times scaled by it (see Clock).  The last line of
standard output is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones, measured
with nothing wrapped.  With --trace 1 the first half of the time runs
untraced passes and the second half traced passes, and the metrics are
the per-layer ones plus the tracing overhead.

The package is imported from src/ of the checkout that holds this
script; nothing is installed.  Scratch files, the spans of the last
traced pass and a run record go to .bench_work/ in that checkout.
"""

import argparse
import itertools
import json
import os
import platform
import random
import resource
import sys
from collections import Counter
from fractions import Fraction
from statistics import median, median_low
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# Inputs are rebuilt before a pass whenever set-up so far has taken at
# most this share of the time passes took, so that set-up times are
# sampled across the whole run, as pass times are.
SETUP_SHARE = 0.2
# The host's speed drifts, by a tenth and at times by half, for seconds at
# a time, so the median of raw pass times moves with whatever else the
# host runs.
# Each timed step is therefore also scaled by a fixed reference computation
# run just before and just after it; wall_s and setup_s are medians of
# scaled times.  REFERENCE_S is about the reference's time on the 2-vCPU
# host where the benchmark was defined, so scaled times read as seconds
# there.  Raw times are kept in the run record.
REFERENCE_S = 0.05
REFERENCE_SEED = 5
# Python salts str hashes afresh in every process, and the package's set
# and dict orders, and with them its cost, follow the salt: the same
# verify pass took about a tenth longer under some salts than under
# others.  Every run uses this one salt, so runs differ only in the seed.
HASH_SEED = "0"

sys.path.insert(0, HERE)
import spans  # noqa: E402
from workloads import DEFAULT_SEED, PINNED_DIGESTS, WORKLOADS, Checks  # noqa: E402


# Top-level spans must cover at least this share of a traced pass; the
# rest is the benchmark's own checking code and the wrappers' cost around
# top-level calls.
MIN_COVERAGE = 0.8


def load_metrics():
    """End-to-end and per-layer metrics from BENCHMARK.json, by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m for m in bench["end_to_end"]},
            {m["name"]: m for m in bench["per_layer"]})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the benchmark's own test")
    return p.parse_args(argv)


def import_package():
    """Import markovtoric from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "markovtoric", "__init__.py")):
        raise SystemExit(f"error: no package source at {SRC}/markovtoric")
    sys.path.insert(0, SRC)
    import markovtoric
    import markovtoric.cli  # noqa: F401  (bound as markovtoric.cli)
    where = os.path.dirname(os.path.abspath(markovtoric.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise SystemExit(f"error: markovtoric was imported from {where}, not {SRC}")
    return markovtoric


def reference():
    """Fixed work of the kinds the package does, from the standard library
    alone: Counter and tuple keys built over pairs of paths, a window
    tally over a larger path set, and tokenizing, counting and a JSON
    round trip of Fractions.  Each kind tracks the host's speed for some
    workloads better than the others; together they track it for all."""
    paths = list(itertools.product("abc", repeat=5))
    keys = set()
    for i, p in enumerate(paths[:60]):
        for q in paths[i + 1:i + 40]:
            pairs = Counter(zip(p, p[1:]))
            pairs.update(zip(q, q[1:]))
            keys.add(tuple(sorted(pairs.items())))
    paths = list(itertools.product("abcd", repeat=6))
    index = {p: i for i, p in enumerate(paths)}
    windows = Counter()
    for p in paths:
        for w in zip(p, p[1:], p[2:]):
            windows[w] += index[p] & 3
    rng = random.Random(REFERENCE_SEED)
    words = ["".join(rng.choice("abcdefgh") for _ in range(1 + i % 6))
             for i in range(3000)]
    tally = Counter(w for w in " ".join(words).split() if len(w) > 1)
    doc = json.loads(json.dumps([[w, str(Fraction(n, 7))] for w, n in tally.items()]))
    return len(keys), len(windows), len(doc)


def reference_s():
    start = perf_counter()
    reference()
    return perf_counter() - start


class Clock:
    """Times each step against the reference run between steps.

    A step's scaled time is its time multiplied by REFERENCE_S over the
    mean of the reference times just before and just after it: the time
    the step would take on a machine that runs the reference in
    REFERENCE_S.
    """

    def __init__(self):
        self.ref_before = reference_s()
        self.references = [self.ref_before]

    def time(self, step, *args):
        """Run step(*args); return its result, raw time and scaled time."""
        start = perf_counter()
        out = step(*args)
        raw = perf_counter() - start
        ref_after = reference_s()
        self.references.append(ref_after)
        scaled = raw * 2 * REFERENCE_S / (self.ref_before + ref_after)
        self.ref_before = ref_after
        return out, raw, scaled


class Times:
    """Raw and scaled times of one kind of step."""

    def __init__(self):
        self.raw, self.scaled = [], []

    def add(self, raw, scaled):
        self.raw.append(raw)
        self.scaled.append(scaled)


def run_passes(workload, state, chk, clock, seconds, digests, rebuild=None,
               tracer=None, names=()):
    """Passes back to back until seconds have elapsed (at least one).

    rebuild, a (seed, set-up Times) pair, builds the first inputs and
    interleaves timed set-ups with the passes at SETUP_SHARE.  Returns the
    pass Times, the traced passes' coverage and per-layer metrics, and the
    last inputs.
    """
    walls, coverage, layer = Times(), [], []
    deadline = perf_counter() + seconds
    while True:
        if rebuild is not None and sum(rebuild[1].raw) <= SETUP_SHARE * sum(walls.raw):
            state = None  # so old and new inputs are never alive together
            state, *times = clock.time(workload.setup, rebuild[0])
            rebuild[1].add(*times)
        if tracer is not None:
            tracer.begin_pass()
        _, wall, scaled = clock.time(workload.run, state, chk)
        walls.add(wall, scaled)
        digests.append(chk.end_pass())
        if tracer is not None:
            coverage.append(tracer.toplevel_s / wall)
            layer.append(layer_metrics(tracer, names))
        if perf_counter() >= deadline:
            return walls, coverage, layer, state


def layer_metrics(tracer, names):
    """Per-layer metrics of the pass the tracer just recorded.

    NAME.self_s and NAME.calls come from spans, cli.main.self_s sums the
    self time of every cli span (argument parsing plus rendering), and
    the rest are hook counters, 0 when the pass never reached them.
    """
    out = {}
    for name in names:
        base, _, kind = name.rpartition(".")
        if kind == "self_s":
            out[name] = tracer.self_time(base)
        elif kind == "calls":
            out[name] = tracer.call_count(base)
        else:
            out[name] = tracer.counts.get(name, 0)
    out["relations.yield"] = (
        tracer.counts.get("relations.emitted", 0)
        / max(1, tracer.counts.get("relations.canonicalize.generation_calls", 0)))
    out["verify.row_use_ratio"] = spans.row_use_ratio(tracer.row_use)
    out["cli.main.self_s"] = sum(s for nid, s in tracer.self_s.items()
                                 if tracer.names[nid].startswith("cli."))
    return out


def percentile_summary(times):
    """Pass count, then for raw and scaled times the median, the highest
    of p75/p90/p99/p99.9 with at least ten passes beyond it, and every
    pass time."""
    out = {"passes": len(times.raw)}
    for kind in ("raw", "scaled"):
        values = getattr(times, kind)
        ordered = sorted(values)
        out[kind] = {"median_s": median(values), "pass_s": values}
        for pct in (99.9, 99, 90, 75):
            if len(values) * (1 - pct / 100) >= 10:
                idx = min(len(ordered) - 1, int(len(ordered) * pct / 100))
                out[kind][f"p{pct:g}_s"] = ordered[idx]
                break
    return out


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def pin_hash_seed():
    """Re-execute this script in place with PYTHONHASHSEED=HASH_SEED,
    unless it already runs under it; no second process is started."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))


def main(argv=None):
    args = parse_args(argv)
    mt = import_package()
    end_to_end, per_layer = load_metrics()
    os.chdir(ROOT)
    workdir = os.path.join(WORK, args.workload)
    os.makedirs(workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](mt, args.size, workdir)
    chk = Checks()

    setup_s, digests, clock = Times(), [], Clock()
    seconds = args.seconds / 2 if args.trace else args.seconds
    walls, _, _, state = run_passes(workload, None, chk, clock, seconds, digests,
                                    rebuild=(args.seed, setup_s))
    workload.check_setup(state, chk)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "python": platform.python_version(),
              "git_sha": git_sha(), "nproc": os.cpu_count(),
              "inputs": workload.sizes(state),
              "setup_s": {"raw": setup_s.raw, "scaled": setup_s.scaled},
              "untraced": percentile_summary(walls)}

    if args.trace:
        tracer = spans.Tracer()
        uninstall = spans.install(tracer, mt)
        try:
            twalls, coverage, layer, _ = run_passes(
                workload, state, chk, clock, seconds, digests, tracer=tracer,
                names=per_layer)
        finally:
            uninstall()
        tracer.write_spans(os.path.join(WORK, f"spans-{args.workload}.json"))
        metrics = {name: median_low([m[name] for m in layer]) for name in per_layer}
        overhead = median(twalls.scaled) - median(walls.scaled)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_frac"] = overhead / median(walls.scaled)
        metrics["trace.coverage"] = median(coverage)
        metrics["trace.passes"] = len(twalls.raw)
        chk.attempted += 1
        chk.expect("trace coverage", metrics["trace.coverage"] >= MIN_COVERAGE,
                   f"top-level spans cover {metrics['trace.coverage']:.3f} of a "
                   f"traced pass, below {MIN_COVERAGE}")
        record["traced"] = percentile_summary(twalls)
    else:
        metrics = {"wall_s": median(walls.scaled), "setup_s": median(setup_s.scaled),
                   "peak_rss_mb": peak_rss_mb}

    chk.attempted += 1
    chk.expect("determinism", len(set(digests)) == 1,
               f"{len(set(digests))} different outputs over {len(digests)} passes")
    if args.size == "full" and args.seed == DEFAULT_SEED:
        pinned = PINNED_DIGESTS[args.workload]
        chk.attempted += 1
        chk.expect("pinned digest", digests[0] == pinned,
                   f"output digest {digests[0]} differs from the pinned {pinned}")
    if args.trace:
        metrics["fail_frac"] = chk.failed / chk.attempted
    units = per_layer if args.trace else end_to_end

    baselines = workload.baselines(state, chk.parts)
    bound = end_to_end["wall_s"]["bound"]
    for b in baselines.values():
        b["ratio"] = b["measured_s"] / b["baseline_s"]
        b["gap_beyond_wall_s_bound"] = abs(b["ratio"] - 1) > bound
    record.update({"reference_s": {"nominal": REFERENCE_S,
                                   "median": median(clock.references)},
                   "digest": digests[0], "problems": chk.problems,
                   "attempted": chk.attempted, "failed": chk.failed,
                   "fail_frac": chk.failed / chk.attempted, "baselines": baselines,
                   "parts_s": {k: median(v) for k, v in chk.parts.items()},
                   "metrics": metrics})
    with open(os.path.join(WORK, f"record-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, default=str)

    for problem in chk.problems:
        print("FAILED " + problem, file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(walls.raw)} untraced passes, "
          f"{chk.attempted} operations, {chk.failed} failed")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]['unit']}")
    for name, b in baselines.items():
        print(f"  ROADMAP baseline {name}: {b['baseline_s']} s, measured "
              f"{b['measured_s']:.3f} s ({b['measured_as']}), ratio {b['ratio']:.2f}")
    result = {"correct": chk.failed == 0, "attempted": chk.attempted,
              "failed": chk.failed,
              "metrics": {name: {"value": value, "unit": units[name]["unit"]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
