"""Spans and counters recorded around the package's public functions.

The traced run wraps every public function of the seven layer modules,
plus three methods that sit on hot paths, and rebinds each module-level
binding of the original (module attributes and values of module-level
dicts such as the CLI's command table) to the wrapper.  A call made
through any binding therefore opens a span, and calls nested inside it
become its child spans.  Nothing under src/ is edited: the wrappers
live here and are removed when the traced passes end.

A span records its name, start, end and parent.  Spans are kept in
memory, in flat arrays, for the most recent traced pass and written out
when the run ends.  Self time (duration minus the time of child spans),
call counts and the counters fed by the post-call hooks below are summed
per pass.
"""

import functools
import inspect
import json
import os
from array import array
from time import perf_counter

LAYERS = ("model", "paths", "relations", "verify", "estimate", "iofiles", "cli")

# Methods traced under a span name of their own.
METHODS = (
    ("model", "ModelSpec", "check_sequence", "model.check_sequence"),
    ("paths", "PathTable", "index", "paths.table_index"),
    ("estimate", "TrajectorySet", "check", "estimate.trajectory_check"),
)

GENERATOR_SPANS = ("relations.nonhomogeneous_generators",
                   "relations.homogeneous_family",
                   "relations.permutation_linear_relations")


class Tracer:
    """Span recorder with per-pass aggregates.

    Per pass it holds self time and calls by span name, counters fed by
    hooks, the summed duration of top-level spans, and the records that
    row_use_ratio is computed from after the pass ends.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.stack = []
        self._next = 0
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.generator_ids = set()
        self.begin_pass()

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_pass(self):
        self.self_s = {}
        self.calls = {}
        self.counts = {}
        self.toplevel_s = 0.0
        self.row_use = []
        for arr in (self.span_id, self.span_name, self.span_parent,
                    self.span_start, self.span_end):
            del arr[:]

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def parent_name_id(self):
        return self.stack[-1][2] if self.stack else -1

    def wrap(self, name, fn, hook=None):
        """Return fn wrapped in a span called name.

        hook(tracer, bound_arguments, result, duration) runs after the
        span closes, so its cost lands in the parent's self time.
        """
        nid = self.intern(name)
        if name in GENERATOR_SPANS:
            self.generator_ids.add(nid)
        sig = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0, nid]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                tracer.span_id.append(sid)
                tracer.span_name.append(nid)
                tracer.span_parent.append(parent)
                tracer.span_start.append(start)
                tracer.span_end.append(end)
                tracer.self_s[nid] = tracer.self_s.get(nid, 0.0) + dur - frame[1]
                tracer.calls[nid] = tracer.calls.get(nid, 0) + 1
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.toplevel_s += dur
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, result, dur)
            return result

        return wrapper

    def self_time(self, name):
        return self.self_s.get(self._ids.get(name, -1), 0.0)

    def call_count(self, name):
        return self.calls.get(self._ids.get(name, -1), 0)

    def write_spans(self, path):
        """Write the last traced pass's spans: a JSON header beside one
        binary file per column (native byte order, typecodes in the
        header)."""
        columns = {"id": self.span_id, "name": self.span_name,
                   "parent": self.span_parent, "start": self.span_start,
                   "end": self.span_end}
        header = {"names": self.names, "spans": len(self.span_id),
                  "columns": {}}
        for col, arr in columns.items():
            fname = f"{os.path.basename(path)}.{col}.bin"
            with open(os.path.join(os.path.dirname(path), fname), "wb") as fh:
                arr.tofile(fh)
            header["columns"][col] = {"file": fname, "typecode": arr.typecode}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(header, fh)


# ---------------------------------------------------------------------------
# hooks: counters measured where the work happens


def _count_len(key):
    def hook(tr, args, result, dur):
        tr.count(key, len(result))
    return hook


def _design_cells(tr, args, result, dur):
    rows, cols = result.shape
    tr.count("paths.design_cells", rows * cols)


def _emitted(tag):
    def hook(tr, args, result, dur):
        tr.count("relations.emitted", len(result.binomials))
        tr.count("relations.emitted." + tag, len(result.binomials))
    return hook


def _canonicalize(tr, args, result, dur):
    if tr.parent_name_id() in tr.generator_ids:
        tr.count("relations.canonicalize.generation_calls")


def _vanishes(tr, args, result, dur):
    witness = result.witness
    trials_run = result.trials if witness is None else witness.trial + 1
    tr.count("verify.trials_run", trials_run)
    if witness is not None:
        tr.count("verify.witnesses")
    tr.row_use.append((args["spec"], args["table"], args["binomial"], trials_run))


def _mle_nonhomogeneous(tr, args, result, dur):
    recs = len(args["trajs"].records)
    tr.count("estimate.records", recs)
    tr.count("estimate.windows_tallied", recs * (result.horizon - result.order))


def _mle_homogeneous(tr, args, result, dur):
    trajs = args["trajs"]
    last = trajs.length if args["window"] == "slide" else result.horizon
    recs = len(trajs.records)
    tr.count("estimate.records", recs)
    tr.count("estimate.windows_tallied", recs * (last - result.order))


def _counts_from_trajectories(tr, args, result, dur):
    recs = len(args["trajs"].records)
    tr.count("estimate.records", recs)
    tr.count("estimate.windows_tallied", recs)


def _hierarchical(tr, args, result, dur):
    spec = args["spec"]
    occupied = sum(1 for c in args["u"].counts if c)
    tr.count("estimate.windows_tallied",
             occupied * (2 * (spec.horizon - spec.order) - 1))


def _recover(tr, args, result, dur):
    spec = args["spec"]
    tr.count("estimate.windows_tallied",
             len(args["p"]) * (spec.horizon - spec.order + 1))


def _read_file(tr, args, result, dur):
    tr.count("iofiles.bytes_read", os.path.getsize(args["path"]))


def _write_file(tr, args, result, dur):
    tr.count("iofiles.bytes_written", os.path.getsize(args["path"]))


def _corpus(tr, args, result, dur):
    tr.count("iofiles.bytes_read", len(args["text"].encode("utf-8")))


def _dump_json(tr, args, result, dur):
    fh = args["fh"]
    if fh.seekable():
        tr.count("iofiles.bytes_written", fh.tell())


def _cli_main(tr, args, result, dur):
    argv = args["argv"] or ()
    if argv:
        tr.count(f"cli.{argv[0]}.ms", dur * 1000.0)


HOOKS = {
    "paths.enumerate_paths": _count_len("paths.paths"),
    "paths.build_design_matrix": _design_cells,
    "relations.nonhomogeneous_generators": _emitted("nonhom-exchange"),
    "relations.homogeneous_family": _emitted("hom-exchange"),
    "relations.permutation_linear_relations": _emitted("hom-linear"),
    "relations.slice_linear_generators": _count_len("relations.slice_paths"),
    "relations.canonicalize": _canonicalize,
    "verify.vanishes_on_model": _vanishes,
    "estimate.mle_nonhomogeneous": _mle_nonhomogeneous,
    "estimate.mle_homogeneous": _mle_homogeneous,
    "estimate.counts_from_trajectories": _counts_from_trajectories,
    "estimate.mle_paths_hierarchical": _hierarchical,
    "estimate.recover_parameters": _recover,
    "iofiles.tokenize_corpus": _count_len("iofiles.words"),
    "iofiles.corpus_to_trajectories": _corpus,
    "iofiles.parse_model_spec": _read_file,
    "iofiles.ingest_trajectories": _read_file,
    "iofiles.read_counts": _read_file,
    "iofiles.read_probabilities": _read_file,
    "iofiles.read_relations": _read_file,
    "iofiles.read_corpus_spec": _read_file,
    "iofiles.read_collapse_map": _read_file,
    "iofiles.write_trajectories": _write_file,
    "iofiles.write_counts": _write_file,
    "iofiles.write_probabilities": _write_file,
    "iofiles.write_relations": _write_file,
    "iofiles.dump_json": _dump_json,
    "cli.main": _cli_main,
}


def row_use_ratio(records):
    """Parameter rows a relation's support touches over rows sampled per
    point, weighted by trials run.

    sample_parameters draws one row for the initial blocks plus one per
    (level, history) with successors; evaluating the support reads only
    the initial row and the rows of the support paths' windows.
    """
    touched_total = sampled_total = 0
    for spec, table, binomial, trials in records:
        k, n = spec.order, spec.horizon
        levels = spec.levels()
        sampled = 1 + len(levels) * sum(1 for h in spec.histories
                                        if spec.successors(h))
        rows = set()
        for j in binomial.support():
            path = table[j]
            for level in range(k + 1, n + 1):
                lv = None if spec.homogeneous else level
                rows.add((lv, path[level - k - 1:level - 1]))
        touched_total += (1 + len(rows)) * trials
        sampled_total += sampled * trials
    return touched_total / sampled_total if sampled_total else 0.0


def install(tracer, package):
    """Wrap the layer modules' public functions and methods of the
    package; return a function that restores every binding."""
    modules = {name: getattr(package, name) for name in LAYERS}
    wrappers = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{short}.{attr}"
                wrappers[obj] = tracer.wrap(name, obj, HOOKS.get(name))
    restore = []
    for short, cls_name, meth, name in METHODS:
        cls = getattr(modules[short], cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, tracer.wrap(name, original, HOOKS.get(name)))
        restore.append((cls, meth, original))

    for mod in [package, *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                restore.append((mod, attr, obj))
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if inspect.isfunction(val) and val in wrappers:
                        obj[key] = wrappers[val]
                        restore.append((obj, key, val))

    def uninstall():
        for target, key, original in reversed(restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    return uninstall
