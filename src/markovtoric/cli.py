"""Command-line surface.

One verb per capability: validate, paths, relations, verify, mle,
recover, birch, ingest, report.  build_parser builds the parser once
per process; main looks the verb up in COMMANDS at call time and runs
its cmd_*, which returns its exit code, text lines and JSON form; _emit,
the one writer of reports, writes them.
_fit, the one fit path, alone reads and checks the data flags of mle and report.
Text output is human-readable (and for ingest, directly re-readable as
data files); --format structured emits a single JSON document per run.
Exact values appear as rational strings like "469/685", with a rounded
decimal alongside.

Exit codes: 0 success; 1 validation failure; 2 verification-style
failure (a relation does not vanish, recovery is inconsistent, a Birch
residual is nonzero); 3 I/O or parse failure.  A closed stdout keeps the
verb's own code.
"""

import argparse
import functools
import math
import os
import sys
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction

from . import iofiles
from .errors import ModelError, ParseError
from .estimate import (
    TrajectorySet,
    birch_residual,
    counts_from_trajectories,
    fitted_path_probabilities,
    loglikelihood,
    mle_homogeneous,
    mle_nonhomogeneous,
    recover_parameters,
)
from .iofiles import DEFAULT_DECIMALS, decimal_string, fraction_string, numeral
from .model import format_symbol, validate_model
from .paths import build_design_matrix, enumerate_paths
from .relations import generators_for
from .verify import DEFAULT_TRIALS, verify_relation_set

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 means something else here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit_(f"{self.prog}: error: {message}")


class SystemExit_(Exception):
    """A usage error: main prints the message and exits 3."""


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every call."""
    top = _Parser(prog="markovtoric",
                  description="Multistate Markov chains as toric models: "
                              "paths, relations, verification, estimation.")
    common = _Parser(add_help=False)
    common.add_argument("--spec", required=True, help="model spec file (YAML)")
    common.add_argument("--out", help="output file (default stdout)")
    common.add_argument("--format", choices=("text", "structured"),
                        default="text", help="output format (default text)")
    checking = _Parser(add_help=False)
    checking.add_argument("--seed", default="0", type=_seed, help="random seed (default 0)")
    checking.add_argument("--trials", type=numeral, default=DEFAULT_TRIALS,
                          help=f"sampled points per relation (default {DEFAULT_TRIALS})")
    checking.add_argument("--relations", help="relation file (default: generate)")
    rounding = _Parser(add_help=False)
    rounding.add_argument("--decimals", type=numeral, default=DEFAULT_DECIMALS,
                          help="decimal places in rounded views "
                               f"(default {DEFAULT_DECIMALS})")
    data = _Parser(add_help=False)
    data.add_argument("--trajectories", help="trajectory file")
    data.add_argument("--counts", help="counts file")
    data.add_argument("--n", type=numeral, help="analysis horizon (default: the "
                      "shorter of the spec's n and the trajectory length)")
    data.add_argument("--window", choices=("prefix", "slide"), default="prefix",
                      help="homogeneous pooling window (default prefix)")

    # each verb declares only the flags it reads; the parser holds no command
    sub = top.add_subparsers(dest="verb", required=True)
    verbs = {}
    for verb, parents, text in (
        ("validate", [], "check a model spec for structural problems"),
        ("paths", [], "enumerate admissible paths"),
        ("relations", [], "generate the relation families for a spec"),
        ("verify", [checking], "check relations by sampling and kernel membership"),
        ("mle", [rounding, data], "closed-form maximum likelihood estimate"),
        ("recover", [rounding], "recover parameters from path probabilities"),
        ("birch", [rounding], "residual of the moment-matching equations"),
        ("ingest", [], "normalize trajectories or a text corpus"),
        ("report", [checking, rounding, data],
         "combined validation/relations/verification/estimate report")):
        verbs[verb] = sub.add_parser(verb, parents=[common, *parents], help=text)

    verbs["recover"].add_argument("--probabilities", required=True,
                                  help="path probability file")
    p = verbs["birch"]
    p.add_argument("--probabilities", required=True,
                   help="candidate path probability file")
    p.add_argument("--counts", required=True, help="observed counts file")
    p = verbs["ingest"]
    p.add_argument("--trajectories", help="trajectory file")
    p.add_argument("--corpus", help="raw text file")
    p.add_argument("--corpus-config", dest="corpus_config",
                   help="corpus spec file (YAML); required with --corpus")
    p.add_argument("--collapse", help="state collapse map file (YAML)")
    p.add_argument("--fine-spec", dest="fine_spec",
                   help="spec of the pre-collapse chain, to validate --collapse; "
                        "requires --collapse")
    p.add_argument("--n", type=numeral,
                   help="--emit counts horizon (default: as for mle)")
    p.add_argument("--emit", choices=("trajectories", "counts"),
                   default="trajectories", help="output kind (default trajectories)")
    return top


def _emit(args, lines, jsonable):
    """Write jsonable with --format structured, else lines (any iterable of
    strings, written one at a time, each with a newline), to --out or stdout.

    A reader that closes stdout early, as `| head` does, ends the writing
    quietly: the rest is unwanted, not an input fault.  stdout's descriptor
    then points at the null device, so the flush at exit writes nowhere.
    """
    out = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    try:
        with out as fh:
            if args.format == "structured":
                iofiles.dump_json(jsonable, fh)
            else:
                for line in lines:
                    fh.write(line + "\n")
            fh.flush()
    except BrokenPipeError:
        if args.out:
            raise
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return  # a stream with no descriptor has nothing to flush at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def _seed(text):
    # only an integer's canonical text is that int; 010 or 1_0 is a str seed
    try:
        return numeral(text)
    except ValueError:
        return text


# ---------------------------------------------------------------------------
# reports: each returns its text lines and its JSON form


def _value(value, decimals):
    """An exact value as the text 'exact ~ rounded' and as JSON, whose
    decimal is null when the rounded value is past float range."""
    exact, rounded = fraction_string(value), decimal_string(value, decimals)
    decimal = float(rounded)
    if not math.isfinite(decimal):
        decimal = None
    return f"{exact} ~ {rounded}", {"value": exact, "decimal": decimal}


def _parameters(params, decimals, unset):
    """A parameter table by label text: pi by block, then transitions by
    level (None first); unset describes an undefined row."""
    lines, pi, transitions, undefined = [], [], [], []
    # (False, block) or (True, level or 0, (history, next))
    for sym in sorted(params.values, key=lambda sym: (sym[0] == "a", sym[1] or 0,
                                                      sym[2:])):
        text, pair = _value(params.values[sym], decimals)
        lines.append(f"{format_symbol(sym)} = {text}")
        if sym[0] == "pi":
            pi.append({"block": list(sym[1]), **pair})
        else:
            _, level, h, s = sym
            transitions.append({"level": level, "history": list(h), "next": s, **pair})
    for level, h in sorted(params.undefined, key=lambda row: (row[0] or 0, row[1])):
        where = "" if level is None else f" at level {level}"
        lines.append(f"history {','.join(h)}{where}: {unset}")
        undefined.append({"level": level, "history": list(h)})
    return lines, {"pi": pi, "transitions": transitions, "undefined": undefined}


def _estimate(report, decimals):
    """An MLE's provenance line and parameter table."""
    header = {"kind": report.kind, "order": report.order,
              "horizon": report.horizon, "window": report.window,
              "total": report.total}
    lines, table = _parameters(report, decimals, "undefined (never occupied)")
    lines.insert(0, "  ".join(f"{k}: {v}" for k, v in header.items()))
    return lines, {**header, **table}


def _verification(report, relset):
    """One line per relation, and one per witness; the summary is not included."""
    lines, entries = [], []
    for entry in report.entries:
        text = relset.binomials[entry.index].text(relset.table)
        mark = "ok  " if entry.ok else "FAIL"
        lines.append(f"[{entry.index:3d}] {mark} {entry.provenance:16s} {text}")
        rec = {"index": entry.index, "provenance": entry.provenance, "text": text,
               "status": entry.vanish.status, "trials": entry.vanish.trials}
        w = entry.vanish.witness
        if w is not None:
            residual = fraction_string(w.residual)
            lines.append(f"      nonzero at trial {w.trial}: residual {residual}")
            rec["witness"] = {"trial": w.trial, "residual": residual}
        rec["kernel_ok"] = entry.kernel.ok
        entries.append(rec)
    return lines, {"trials": report.trials, "seed": report.seed,
                   "all_pass": report.all_pass, "agreement": report.agreement,
                   "relations": entries,
                   "slice": [list(p) for p in relset.slice_paths]}


def _birch(residual, design, decimals):
    """One line per moment equation, then the largest absolute residual."""
    lines, rows = [], []
    for sym, r in zip(design.row_symbols, residual):
        text, pair = _value(r, decimals)
        symbol = format_symbol(sym)
        lines.append(f"{symbol}: {text}")
        rows.append({"symbol": symbol, **pair})
    text, pair = _value(max((abs(r) for r in residual), default=Fraction(0)),
                        decimals)
    lines.append(f"max |residual| = {text}")
    return lines, {"rows": rows, "max_abs": pair["value"]}


# ---------------------------------------------------------------------------
# verbs: each takes (args, spec) and returns (exit code, lines, JSON form)


def _validation(spec):
    """Error count, text lines and JSON form of the spec's findings."""
    findings = validate_model(spec)
    errors = sum(1 for severity, _ in findings if severity == "error")
    lines = [f"{severity}: {message}" for severity, message in findings]
    jsonable = {"ok": not errors,
                "findings": [{"severity": s, "message": m} for s, m in findings]}
    return errors, lines, jsonable


def cmd_validate(args, spec):
    errors, lines, jsonable = _validation(spec)
    lines.append("model is valid" if not errors
                 else f"model is invalid ({errors} error(s))")
    return EXIT_OK if not errors else EXIT_VALIDATION, lines, jsonable


def cmd_paths(args, spec):
    table = enumerate_paths(spec)
    lines = [f"{len(table)} admissible paths", *(",".join(p) for p in table)]
    return EXIT_OK, lines, {"count": len(table), "paths": [list(p) for p in table]}


def _verified_relations(args, spec):
    """The --relations file, else the generated relations, and their verification.
    A file that holds no binomial would pass vacuously, so it is a ParseError
    naming the file; a generated set may be empty."""
    if args.relations:
        relset = iofiles.read_relations(args.relations, enumerate_paths(spec))
        if not relset.binomials:
            raise ParseError("relation file holds no binomial relation",
                             filename=args.relations)
    else:
        relset = generators_for(spec)
    return relset, verify_relation_set(relset, spec, trials=args.trials, seed=args.seed)


def cmd_relations(args, spec):
    relset = generators_for(spec)
    return EXIT_OK, _relation_lines(relset), iofiles.relations_to_jsonable(relset)


def _relation_lines(relset):
    """The relations' text, built only when it is written."""
    yield f"{len(relset)} relations, {len(relset.slice_paths)} slice variables"
    yield from relset.text_lines()


def cmd_verify(args, spec):
    relset, report = _verified_relations(args, spec)
    lines, jsonable = _verification(report, relset)
    lines.append(report.summary())
    if not report.agreement:
        lines.append("warning: sampling and kernel routes disagree")
    return EXIT_OK if report.all_pass else EXIT_VERIFICATION, lines, jsonable


def _fit(args, spec, required):
    """(data, MLE at --n with --window) of --trajectories or --counts, or None
    without data when not required.  The first fault in this order is reported:
    both data flags, or none when required; --n or --window slide without data;
    --window slide on a nonhomogeneous spec; the data file; the fit."""
    data = args.trajectories or args.counts
    if (args.trajectories and args.counts) or (required and not data):
        raise SystemExit_("exactly one of --trajectories or --counts is required")
    if not data:
        if args.n is not None or args.window == "slide":
            raise SystemExit_("--n and --window slide require --trajectories or --counts")
        return None
    if args.window == "slide" and not spec.homogeneous:
        raise SystemExit_("--window slide requires a homogeneous spec")
    trajs = (iofiles.ingest_trajectories(args.trajectories, spec) if args.trajectories
             else TrajectorySet.from_counts(
                 iofiles.read_counts(args.counts, enumerate_paths(spec))))
    return trajs, (mle_homogeneous(trajs, spec, n=args.n, window=args.window)
                   if spec.homogeneous else mle_nonhomogeneous(trajs, spec, n=args.n))


def cmd_mle(args, spec):
    trajs, report = _fit(args, spec, required=True)
    lines, estimate = _estimate(report, args.decimals)
    jsonable = {"estimate": estimate}
    u = counts_from_trajectories(trajs, spec, n=report.horizon)
    try:
        fitted = fitted_path_probabilities(report, spec.with_horizon(report.horizon),
                                           u.table)
    except ModelError as exc:
        lines.append(f"fitted path probabilities unavailable: {exc}")
        jsonable["fitted"] = None
        jsonable["note"] = str(exc)
    else:
        ll = loglikelihood(fitted, u)
        lines.append("fitted path probabilities:")
        jsonable["fitted"] = []
        for j, p in enumerate(u.table):
            text, pair = _value(fitted[j], args.decimals)
            lines.append(f"  {','.join(p)} = {text}")
            jsonable["fitted"].append({"path": list(p), **pair})
        lines.append(f"log-likelihood: {ll:.6f}")
        jsonable["loglikelihood"] = ll
    return EXIT_OK, lines, jsonable


def cmd_recover(args, spec):
    table = enumerate_paths(spec)
    assignment = iofiles.read_probabilities(args.probabilities, table)
    rec = recover_parameters(assignment, spec)
    lines, jsonable = _parameters(rec.params, args.decimals, "undetermined")
    jsonable["consistent"] = rec.consistent
    jsonable["inconsistencies"] = []
    for c in rec.inconsistencies:
        ratio_a, ratio_b = fraction_string(c.ratio_a), fraction_string(c.ratio_b)
        lines.append(
            f"inconsistent ratios for {','.join(c.history)} -> {c.next_state}: "
            f"level {c.level_a} gives {ratio_a}, level {c.level_b} gives {ratio_b}")
        jsonable["inconsistencies"].append(
            {"history": list(c.history), "next": c.next_state,
             "level_a": c.level_a, "ratio_a": ratio_a,
             "level_b": c.level_b, "ratio_b": ratio_b})
    lines.append("consistent" if rec.consistent else "inconsistent")
    return EXIT_OK if rec.consistent else EXIT_VERIFICATION, lines, jsonable


def cmd_birch(args, spec):
    table = enumerate_paths(spec)
    assignment = iofiles.read_probabilities(args.probabilities, table)
    u = iofiles.read_counts(args.counts, table)
    design = build_design_matrix(spec, table)
    residual = birch_residual(assignment, u, design)
    return (EXIT_VERIFICATION if any(residual) else EXIT_OK,
            *_birch(residual, design, args.decimals))


def cmd_ingest(args, spec):
    if args.fine_spec and not args.collapse:
        raise SystemExit_("--fine-spec requires --collapse")
    if args.collapse and args.trajectories and not args.fine_spec:
        raise SystemExit_("--collapse with --trajectories requires --fine-spec")
    if args.n is not None and args.emit != "counts":
        raise SystemExit_("--n requires --emit counts")
    if not (args.corpus or args.trajectories):
        raise SystemExit_("ingest needs --trajectories or --corpus")
    if args.corpus and args.trajectories:
        raise SystemExit_("exactly one of --trajectories or --corpus is required")
    if bool(args.corpus) != bool(args.corpus_config):
        raise SystemExit_("--corpus requires --corpus-config" if args.corpus
                          else "--corpus-config requires --corpus")
    fine = iofiles.parse_model_spec(args.fine_spec) if args.fine_spec else None
    cm = iofiles.read_collapse_map(args.collapse) if args.collapse else None
    if args.corpus:
        # a collapsed corpus is read through the relabelled config, so each
        # word is mapped once and the config's own pad rules apply
        cs = iofiles.read_corpus_spec(args.corpus_config)
        text = iofiles.read_text(args.corpus)
        try:
            if fine is not None:
                iofiles.corpus_to_trajectories(text, cs, fine)
                cm.validate(fine, spec)
            trajs = iofiles.corpus_to_trajectories(
                text, cs if cm is None else cs.collapsed(cm), spec)
        except ParseError as exc:
            raise ParseError(str(exc), filename=args.corpus)
    else:
        trajs = iofiles.ingest_trajectories(args.trajectories,
                                            spec if fine is None else fine)
        if cm is not None:
            trajs = iofiles.collapse_states(trajs, cm, spec, fine)
    if args.emit == "counts":
        counts = counts_from_trajectories(trajs, spec, n=args.n)
        records = tuple(zip(counts.table, counts.counts))
        jsonable = {"total": counts.total, "horizon": len(counts.table[0]),
                    "counts": [{"path": list(p), "count": c} for p, c in records]}
    else:
        records = trajs.records
        jsonable = {"length": trajs.length, "total": trajs.total,
                    "records": [{"trajectory": list(t), "multiplicity": m}
                                for t, m in records]}
    return EXIT_OK, iofiles.record_lines(records), jsonable


def cmd_report(args, spec):
    fit = _fit(args, spec, required=False)
    errors, finding_lines, validation = _validation(spec)
    relset, verification = _verified_relations(args, spec)
    by_tag = Counter(relset.provenance)
    lines = [f"spec: {args.spec}",
             f"states: {len(spec.states)}  order: {spec.order}"
             f"  horizon: {spec.horizon}"
             f"  {'homogeneous' if spec.homogeneous else 'nonhomogeneous'}"]
    lines += finding_lines
    lines.append(f"paths: {len(relset.table)}")
    lines.append("relations: " + (", ".join(
        f"{v} {k}" for k, v in sorted(by_tag.items())) or "none"))
    if relset.slice_paths:
        lines.append(f"slice variables: {len(relset.slice_paths)}")
    lines.append(verification.summary())
    jsonable = {
        "spec": args.spec,
        "validation": validation,
        "paths": {"count": len(relset.table)},
        "relations": {"by_provenance": by_tag,
                      "slice": len(relset.slice_paths)},
        "verification": _verification(verification, relset)[1],
    }
    if fit:
        est_lines, jsonable["estimate"] = _estimate(fit[1], args.decimals)
        lines += est_lines
    if errors:
        return EXIT_VALIDATION, lines, jsonable
    return EXIT_OK if verification.all_pass else EXIT_VERIFICATION, lines, jsonable


# read by main at call time, so a rebound entry takes effect on the next call
COMMANDS = {"validate": cmd_validate, "paths": cmd_paths, "relations": cmd_relations,
            "verify": cmd_verify, "mle": cmd_mle, "recover": cmd_recover,
            "birch": cmd_birch, "ingest": cmd_ingest, "report": cmd_report}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        spec = iofiles.parse_model_spec(args.spec)
        code, lines, jsonable = COMMANDS[args.verb](args, spec)
        _emit(args, lines, jsonable)
        return code
    except SystemExit_ as exc:
        print(exc, file=sys.stderr)
        return EXIT_IO
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
