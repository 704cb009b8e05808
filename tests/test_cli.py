import argparse
import contextlib
import io
import json
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from markovtoric import (
    enumerate_paths,
    generators_for,
    parse_model_spec,
    read_counts,
    sample_parameters,
    write_relations,
)
from markovtoric import iofiles
from markovtoric.cli import build_parser, main
from conftest import DATA
from oracles import assignment_from_parameters
from reference_data import WORKED_PATHS, WORKED_COUNTS, WORKED_PI


ILLNESS = str(DATA / "illness.yaml")
ILLNESS_HOM = str(DATA / "illness_hom.yaml")
VC_BOX = str(DATA / "vc_box.yaml")


@pytest.fixture
def worked_counts_file(tmp_path):
    f = tmp_path / "counts.txt"
    f.write_text("".join(f"{','.join(p)} {c}\n"
                         for p, c in zip(WORKED_PATHS, WORKED_COUNTS)))
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_spec_exits_zero(self, capsys):
        code, out, _ = run(capsys, "validate", "--spec", ILLNESS)
        assert code == 0
        assert "valid" in out

    def test_structural_error_exits_one(self, capsys, tmp_path):
        f = tmp_path / "bad.yaml"
        # a duplicate state label, and an integer order below 1
        for text in ("states: [0, 0, 1]\nk: 1\nn: 3\n", "states: [a, b]\nk: 0\nn: 3\n"):
            f.write_text(text)
            code, out, err = run(capsys, "validate", "--spec", str(f))
            assert code == 1

    def test_unparseable_spec_exits_three(self, capsys, tmp_path):
        f = tmp_path / "bad.yaml"
        f.write_text("states: [0, 1\n")
        code, _, err = run(capsys, "validate", "--spec", str(f))
        assert code == 3
        assert "error" in err

    def test_missing_file_exits_three(self, capsys):
        code, _, err = run(capsys, "validate", "--spec", "/nonexistent.yaml")
        assert code == 3


@pytest.mark.parametrize("value", ['"no"', "1"])
def test_homogeneous_must_be_boolean(capsys, tmp_path, value):
    f = tmp_path / "spec.yaml"
    f.write_text(f"states: [0, 1]\nk: 1\nn: 3\nhomogeneous: {value}\n")
    code, out, err = run(capsys, "report", "--spec", str(f), "--trials", "1")
    assert code == 3
    assert str(f) in err
    assert "homogeneous" not in out


def _spec_file(tmp_path, text):
    f = tmp_path / "spec.yaml"
    f.write_text(text)
    return f, ["validate", "--spec", str(f)]


def _corpus_config(tmp_path, text):
    f = tmp_path / "corpus.yaml"
    f.write_text(text)
    return f, ["ingest", "--spec", VC_BOX,
               "--corpus", str(DATA / "sample_corpus.txt"),
               "--corpus-config", str(f),
               "--collapse", str(DATA / "vc_collapse.yaml")]


def _collapse_map(tmp_path, text):
    f = tmp_path / "collapse.yaml"
    f.write_text((DATA / "vc_collapse.yaml").read_text() + text)
    return f, ["ingest", "--spec", VC_BOX,
               "--corpus", str(DATA / "sample_corpus.txt"),
               "--corpus-config", str(DATA / "vc_corpus.yaml"),
               "--collapse", str(f)]


def _relation_file(tmp_path, edit):
    spec = parse_model_spec(ILLNESS)
    f = tmp_path / "relations.json"
    write_relations(generators_for(spec), f)
    doc = json.loads(f.read_text())
    edit(doc["relations"][0]["plus"][0])
    f.write_text(json.dumps(doc))
    return f, ["verify", "--spec", ILLNESS, "--relations", str(f),
               "--trials", "1"]


def _path_values(tmp_path, verb, flag, text):
    f = tmp_path / "values.txt"
    f.write_text(text)
    return f, [verb, "--spec", ILLNESS, flag, str(f)]


@pytest.mark.parametrize("make", [
    lambda d: _spec_file(d, "states: 5\nk: 1\nn: 3\n"),
    lambda d: _spec_file(d, "states: [a, b]\nk: 1\nn: 3\nforbid: [[a]]\n"),
    lambda d: _corpus_config(d, "alphabet: letters\npad: _\n"
                                "min_word_length: x\n"),
    lambda d: _relation_file(d, lambda term: term.pop("path")),
    lambda d: _relation_file(d, lambda term: term.update(path=["1", "0", "0", "0"])),
    lambda d: _spec_file(d, "states: [a, b]\nk: x\nn: 3\n"),
    lambda d: _spec_file(d, "states: [a, b]\nk: 1.5\nn: 3\n"),
    lambda d: _spec_file(d, "states: [a, b]\nk: 1\nn: true\n"),
    lambda d: _corpus_config(d, "alphabet: letters\npad: _\ndrop_chars: 5\n"),
    lambda d: _corpus_config(d, "alphabet: letters\npad: _\noverlong: 5\n"),
    lambda d: _corpus_config(d, "alphabet: letters\npad:\n"),
    lambda d: _corpus_config(d, "alphabet: {a: V, b: [C]}\npad: _\n"),
    lambda d: _collapse_map(d, "b: ~\n"),
    lambda d: _collapse_map(d, "c: 1.5\n"),
    lambda d: _spec_file(d, "states: [yes, no]\nk: 1\nn: 3\n"),
    lambda d: _spec_file(d, "states: [a, b]\nk: 1\nn: 3\nforbid: [[on, off]]\n"),
    lambda d: _spec_file(d, "states: [a, b]\nk: 1\nn: 3\ninitial: [yes]\n"),
    lambda d: _collapse_map(d, "yes: C\n"),
    lambda d: _corpus_config(d, "alphabet: letters\npad: _\nhorizon: 0\n"),
    lambda d: _path_values(d, "mle", "--counts", "0,0,0,0 5\n0,0,1,1 -3\n"),
    lambda d: _path_values(d, "recover", "--probabilities",
                           "0,0,0,0 5/4\n0,0,1,1 -1/4\n"),
    lambda d: _path_values(d, "mle", "--counts", "0,0,0,0 0\n"),
    lambda d: _path_values(d, "report", "--counts", "0,0,0,0 0\n0,0,1,1 0\n"),
    lambda d: _spec_file(d, "states: [a, b]\nk: ~\nn: 3\n"),
    lambda d: _spec_file(d, "states: [a, b]\nk: 1\nn:\n"),
    lambda d: _corpus_config(d, "alphabet: letters\npad: _\ndrop_chars: \"'a\"\n"),
    lambda d: _corpus_config(d, "alphabet: letters\npad: _\nmin_word_length: 5\n"
                                "max_word_length: 4\n"),
], ids=["states-not-a-list", "forbid-not-a-pair", "min-word-length-not-int",
        "term-without-path", "path-outside-table", "k-not-int", "k-float",
        "n-bool", "drop-chars-int", "overlong-int", "pad-null",
        "alphabet-list-label", "collapse-null-label", "collapse-float-label",
        "states-bool", "forbid-bool", "initial-bool", "collapse-bool-label",
        "horizon-zero", "count-negative", "probability-negative",
        "mle-counts-all-zero", "report-counts-all-zero", "k-null", "n-null",
        "alphabet-key-dropped", "min-word-length-above-max"])
def test_malformed_input_is_a_named_parse_error(capsys, tmp_path, make):
    f, argv = make(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert str(f) in err


SAMPLE_CORPUS = str(DATA / "sample_corpus.txt")
VC_CORPUS = str(DATA / "vc_corpus.yaml")
VC_COLLAPSE = str(DATA / "vc_collapse.yaml")


def _relations_text():
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "relations.json"
        write_relations(generators_for(parse_model_spec(ILLNESS)), f)
        return f.read_text()


# each input file: its valid text, and the command line that reads it
INPUTS = {
    "spec": (lambda: Path(ILLNESS).read_text(), lambda f: ["validate", "--spec", f]),
    "corpus-config": (lambda: Path(VC_CORPUS).read_text(), lambda f: [
        "ingest", "--spec", VC_BOX, "--corpus", SAMPLE_CORPUS,
        "--corpus-config", f, "--collapse", VC_COLLAPSE]),
    "collapse-map": (lambda: Path(VC_COLLAPSE).read_text(), lambda f: [
        "ingest", "--spec", VC_BOX, "--corpus", SAMPLE_CORPUS,
        "--corpus-config", VC_CORPUS, "--collapse", f]),
    "trajectories": (lambda: "0,0,1,1 3\n",
                     lambda f: ["mle", "--spec", ILLNESS, "--trajectories", f]),
    "counts": (lambda: "0,0,1,1 3\n", lambda f: ["mle", "--spec", ILLNESS, "--counts", f]),
    "probabilities": (lambda: "0,0,0,0 1\n",
                      lambda f: ["recover", "--spec", ILLNESS, "--probabilities", f]),
    "relations": (_relations_text, lambda f: [
        "verify", "--spec", ILLNESS, "--relations", f, "--trials", "1"]),
    "corpus": (lambda: Path(SAMPLE_CORPUS).read_text(), lambda f: [
        "ingest", "--spec", VC_BOX, "--corpus", f, "--corpus-config", VC_CORPUS,
        "--collapse", VC_COLLAPSE]),
}


@pytest.mark.parametrize("kind", INPUTS)
def test_an_input_that_is_not_utf8_is_a_parse_error_naming_it(capsys, tmp_path, kind):
    text, argv = INPUTS[kind]
    f = tmp_path / "input"
    f.write_text(text())
    assert run(capsys, *argv(str(f)))[0] == 0
    # a Latin-1 é at the end of the file
    f.write_bytes(f.read_bytes() + "# café\n".encode("latin-1"))
    code, out, err = run(capsys, *argv(str(f)))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {f}: 'utf-8' codec can't decode byte 0xe9 ")
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", INPUTS)
def test_a_byte_order_mark_is_not_part_of_an_input(capsys, tmp_path, kind):
    text, argv = INPUTS[kind]
    f = tmp_path / "input"
    f.write_text(text(), encoding="utf-8")
    plain = run(capsys, *argv(str(f)))
    assert plain[0] == 0
    f.write_text(text(), encoding="utf-8-sig")
    assert f.read_bytes().startswith(b"\xef\xbb\xbf")
    assert run(capsys, *argv(str(f))) == plain


def test_a_yaml_reader_error_names_the_file(capsys, tmp_path):
    f = tmp_path / "ctl.yaml"
    f.write_text("states: [0, 1]\x07\nk: 1\nn: 3\n")
    code, out, err = run(capsys, "validate", "--spec", str(f))
    assert (code, out) == (3, "")
    assert err == (f"error: {f}: unacceptable character #x0007: special characters "
                   f"are not allowed\n  in \"{f}\", position 14\n")


# the flags of each verb; a verb declares only the flags it reads
VERB_FLAGS = {
    "validate": set(), "paths": set(), "relations": set(),
    "verify": {"--seed", "--trials", "--relations"},
    "mle": {"--decimals", "--trajectories", "--counts", "--n", "--window"},
    "recover": {"--decimals", "--probabilities"},
    "birch": {"--decimals", "--probabilities", "--counts"},
    "ingest": {"--trajectories", "--corpus", "--corpus-config", "--collapse",
               "--fine-spec", "--n", "--emit"},
    "report": {"--seed", "--trials", "--relations", "--decimals",
               "--trajectories", "--counts", "--n", "--window"},
}
REMOVED_FLAGS = [(verb, flag)
                 for verb in ("validate", "paths", "relations", "ingest")
                 for flag in ("--seed", "--trials", "--decimals")]
REMOVED_FLAGS += [("verify", "--decimals"), ("ingest", "--counts")]
REMOVED_FLAGS += [(verb, flag) for verb in ("mle", "recover", "birch")
                  for flag in ("--seed", "--trials")]


def test_each_verb_declares_only_the_flags_it_reads():
    top = build_parser()
    verbs = next(a for a in top._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    declared = {verb: {a.option_strings[0] for a in p._actions
                       if not isinstance(a, argparse._HelpAction)}
                for verb, p in verbs.items()}
    assert declared == {verb: {"--spec", "--out", "--format"} | flags
                        for verb, flags in VERB_FLAGS.items()}
    assert sum(map(len, declared.values())) == 55
    assert len(REMOVED_FLAGS) == 20
    assert not any(flag in declared[verb] for verb, flag in REMOVED_FLAGS)


@pytest.mark.parametrize("verb, flag", REMOVED_FLAGS,
                         ids=[f"{v}{f}" for v, f in REMOVED_FLAGS])
def test_flag_a_verb_does_not_read_is_a_usage_error(capsys, verb, flag):
    required = {"recover": ["--probabilities", "p.txt"],
                "birch": ["--probabilities", "p.txt", "--counts", "c.txt"]}
    code, out, err = run(capsys, verb, "--spec", ILLNESS,
                         *required.get(verb, []), flag, "1")
    assert code == 3
    assert out == ""
    assert f"unrecognized arguments: {flag} 1" in err


class TestUsageErrors:
    def test_unknown_verb(self, capsys):
        assert main(["frobnicate", "--spec", ILLNESS]) == 3

    def test_missing_required_flag(self, capsys):
        assert main(["validate"]) == 3

    def test_mle_requires_exactly_one_data_source(self, capsys,
                                                  worked_counts_file):
        code, _, err = run(capsys, "mle", "--spec", ILLNESS)
        assert code == 3
        code, _, err = run(capsys, "mle", "--spec", ILLNESS,
                           "--counts", worked_counts_file,
                           "--trajectories", worked_counts_file)
        assert code == 3


    # --n and --window slide where no fit would read them
    @pytest.mark.parametrize("verb, data, flags, message", [
        ("mle", True, ["--window", "slide"],
         "--window slide requires a homogeneous spec"),
        ("report", True, ["--window", "slide"],
         "--window slide requires a homogeneous spec"),
        ("report", False, ["--n", "3"],
         "--n and --window slide require --trajectories or --counts"),
        ("report", False, ["--window", "slide"],
         "--n and --window slide require --trajectories or --counts"),
    ], ids=["mle-slide", "report-slide", "report-n-no-data", "report-slide-no-data"])
    def test_a_fit_flag_that_no_fit_reads(self, capsys, worked_counts_file,
                                          verb, data, flags, message):
        counts = ["--counts", worked_counts_file] if data else []
        code, out, err = run(capsys, verb, "--spec", ILLNESS, *counts, *flags)
        assert (code, out, err) == (3, "", message + "\n")

    def test_ingest_n_requires_emit_counts(self, capsys, tmp_path):
        t = tmp_path / "t.txt"
        t.write_text("0,0,1,1 3\n")
        argv = ["ingest", "--spec", ILLNESS, "--trajectories", str(t), "--n", "3"]
        assert run(capsys, *argv) == (3, "", "--n requires --emit counts\n")
        assert run(capsys, *argv, "--emit", "counts")[0] == 0


class TestPaths:
    def test_lists_admissible_paths(self, capsys):
        code, out, _ = run(capsys, "paths", "--spec", ILLNESS)
        assert code == 0
        listed = [line for line in out.splitlines() if "," in line]
        assert len(listed) == 14
        assert listed[0] == "0,0,0,0"

    def test_structured_output(self, capsys):
        code, out, _ = run(capsys, "paths", "--spec", ILLNESS,
                           "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert [tuple(p) for p in doc["paths"]] == [tuple(p) for p in WORKED_PATHS]


class TestRelationsAndVerify:
    def test_relations_then_verify_round_trip(self, capsys, tmp_path):
        rel = tmp_path / "rels.json"
        code, _, _ = run(capsys, "relations", "--spec", ILLNESS,
                         "--format", "structured", "--out", str(rel))
        assert code == 0
        code, out, _ = run(capsys, "verify", "--spec", ILLNESS,
                           "--relations", str(rel), "--trials", "3")
        assert code == 0
        assert "5/5 relations verified" in out

    def test_verify_generates_when_no_file_given(self, capsys):
        code, out, _ = run(capsys, "verify", "--spec", ILLNESS_HOM,
                           "--trials", "2", "--seed", "11")
        assert code == 0

    def test_fabricated_relation_fails_with_exit_two(self, capsys, tmp_path):
        # a binomial that is not on the model: swap two unrelated paths
        rel = tmp_path / "bogus.json"
        rel.write_text(json.dumps({"relations": [{
            "plus": [{"path": ["0", "0", "0", "0"], "power": 1},
                     {"path": ["1", "1", "1", "1"], "power": 1}],
            "minus": [{"path": ["0", "0", "0", "1"], "power": 1},
                      {"path": ["1", "1", "1", "2"], "power": 1}],
            "provenance": "file"}]}))
        code, out, _ = run(capsys, "verify", "--spec", ILLNESS,
                           "--relations", str(rel), "--trials", "3")
        assert code == 2

    def test_relation_above_the_degree_limit_exits_three(self, capsys, tmp_path):
        rel = tmp_path / "high.json"
        rel.write_text(json.dumps({"relations": [{
            "plus": [{"path": ["0", "0", "0", "0"],
                      "power": iofiles.MAX_RELATION_DEGREE + 1}],
            "minus": [{"path": ["0", "0", "0", "1"], "power": 1}],
            "provenance": "file"}]}))
        code, out, err = run(capsys, "verify", "--spec", ILLNESS,
                             "--relations", str(rel), "--trials", "1")
        assert code == 3
        assert out == ""
        assert str(rel) in err

    def test_zero_trials_exits_one_with_named_error(self, capsys):
        code, out, err = run(capsys, "verify", "--spec", ILLNESS,
                             "--trials", "0")
        assert code == 1
        assert out == ""
        assert "trials must be at least 1, got 0" in err

    def test_text_output_counts_relations(self, capsys):
        code, out, _ = run(capsys, "relations", "--spec", ILLNESS)
        assert code == 0
        assert out.count(" - ") >= 5 or "5" in out


class TestMle:
    def test_counts_text_output(self, capsys, worked_counts_file):
        code, out, _ = run(capsys, "mle", "--spec", ILLNESS,
                           "--counts", worked_counts_file)
        assert code == 0
        assert "469/685" in out

    def test_counts_structured_output(self, capsys, worked_counts_file):
        code, out, _ = run(capsys, "mle", "--spec", ILLNESS,
                           "--counts", worked_counts_file,
                           "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) >= {"estimate", "fitted", "loglikelihood"}
        pi = {tuple(e["block"])[0]: e["value"]
              for e in doc["estimate"]["pi"]}
        assert pi["0"] == WORKED_PI["0"]

    def test_pooled_estimate(self, capsys, worked_counts_file):
        code, out, _ = run(capsys, "mle", "--spec", ILLNESS_HOM,
                           "--counts", worked_counts_file)
        assert code == 0
        assert "608/983" in out

    def test_trajectories_with_slide_window(self, capsys, tmp_path):
        t = tmp_path / "t.txt"
        t.write_text("0,0,1,1,1 4\n0,0,0,2,2 1\n")
        code, out, _ = run(capsys, "mle", "--spec", ILLNESS_HOM,
                           "--trajectories", str(t), "--window", "slide")
        assert code == 0

    def test_out_file_written(self, capsys, worked_counts_file, tmp_path):
        dest = tmp_path / "est.json"
        code, _, _ = run(capsys, "mle", "--spec", ILLNESS,
                         "--counts", worked_counts_file,
                         "--format", "structured", "--out", str(dest))
        assert code == 0
        doc = json.loads(dest.read_text())
        assert "estimate" in doc

    @pytest.mark.parametrize("decimals", ["-2", "5000"])
    def test_decimals_out_of_range_exits_one(self, capsys, worked_counts_file,
                                             decimals):
        code, out, err = run(capsys, "mle", "--spec", ILLNESS,
                             "--counts", worked_counts_file,
                             "--decimals", decimals)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_blocked_fitted_reports_note(self, capsys, tmp_path):
        # state 1 appears only at the last position: pooled row for
        # history 1 is undefined but paths into it keep positive mass
        spec = tmp_path / "s.yaml"
        spec.write_text("states: [0, 1]\nk: 1\nn: 3\nhomogeneous: true\n")
        t = tmp_path / "t.txt"
        t.write_text("0,0,1 1\n")
        code, out, _ = run(capsys, "mle", "--spec", str(spec),
                           "--trajectories", str(t),
                           "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["fitted"] is None
        assert "note" in doc


class TestRecover:
    def test_consistent_point_exits_zero(self, capsys, tmp_path,
                                         worked_counts_file, illness_death):
        # fitted nonhomogeneous MLE lies on the model, so recovery is exact
        probs = tmp_path / "p.txt"
        code, _, _ = run(capsys, "mle", "--spec", ILLNESS,
                         "--counts", worked_counts_file,
                         "--format", "structured", "--out", str(probs))
        doc = json.loads(probs.read_text())
        probs.write_text("".join(
            f"{','.join(row['path'])} {row['value']}\n"
            for row in doc["fitted"]))
        code, out, _ = run(capsys, "recover", "--spec", ILLNESS,
                           "--probabilities", str(probs))
        assert code == 0
        assert "consistent" in out

    def test_off_model_point_exits_two(self, capsys, tmp_path):
        # pooled MLE fitted probabilities are generally off the
        # nonhomogeneous window ratios at different levels... use the
        # reverse: a nonhomogeneous point checked against the pooled spec
        table = enumerate_paths_cached()
        from markovtoric import sample_parameters
        from conftest import make_illness_death
        spec = make_illness_death()
        p = assignment_from_parameters(spec, sample_parameters(spec, seed=3),
                                       table)
        probs = tmp_path / "p.txt"
        probs.write_text("".join(
            f"{','.join(table[j])} {p[j]}\n" for j in range(len(table))))
        code, out, _ = run(capsys, "recover", "--spec", ILLNESS_HOM,
                           "--probabilities", str(probs))
        assert code == 2
        assert "inconsistent" in out


def test_mle_and_recover_list_the_same_parameters(capsys, tmp_path):
    # counts proportional to a model point: the MLE and the recovery are
    # that point, so both renderers must list it identically
    spec = parse_model_spec(VC_BOX)
    table = enumerate_paths(spec)
    p = assignment_from_parameters(spec, sample_parameters(spec, seed=11),
                                   table)
    scale = math.lcm(*(v.denominator for v in p.values()))
    counts, probs = tmp_path / "counts.txt", tmp_path / "p.txt"
    counts.write_text("".join(f"{','.join(path)} {p[j] * scale}\n"
                              for j, path in enumerate(table)))
    probs.write_text("".join(f"{','.join(path)} {p[j]}\n"
                             for j, path in enumerate(table)))
    mle = ["mle", "--spec", VC_BOX, "--counts", str(counts)]
    recover = ["recover", "--spec", VC_BOX, "--probabilities", str(probs)]

    def parameter_lines(argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return [line for line in out.splitlines()
                if re.match(r"(pi|a\d*)_\S+ = |history ", line)]

    lines = parameter_lines(mle)
    assert len(lines) == len(spec.symbols())
    assert parameter_lines(recover) == lines

    def tables(argv):
        code, out, _ = run(capsys, *argv, "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        doc = doc.get("estimate", doc)
        return [doc[key] for key in ("pi", "transitions", "undefined")]

    assert tables(recover) == tables(mle)


def _report_argv(tmp_path, spec_file):
    """mle, recover, birch and verify on data files for a spec: counts on
    the model, probabilities off it, and a relation file whose last
    relation is not on the model."""
    spec = parse_model_spec(spec_file)
    table = enumerate_paths(spec)
    p = assignment_from_parameters(spec, sample_parameters(spec, seed=11),
                                   table)
    scale = math.lcm(*(v.denominator for v in p.values()))
    off = {j: (p[j] + p[(j + 1) % len(table)]) / 2 for j in range(len(table))}
    counts, probs = tmp_path / "counts.txt", tmp_path / "p.txt"
    counts.write_text("".join(f"{','.join(path)} {p[j] * scale}\n"
                              for j, path in enumerate(table)))
    probs.write_text("".join(f"{','.join(path)} {off[j]}\n"
                             for j, path in enumerate(table)))
    rels = tmp_path / "relations.json"
    write_relations(generators_for(spec, table), rels)
    doc = json.loads(rels.read_text())
    doc["relations"].append({"plus": [{"path": list(table[0])}],
                             "minus": [{"path": list(table[1])}]})
    rels.write_text(json.dumps(doc))
    spec_arg = ["--spec", spec_file]
    return {"mle": ["mle", *spec_arg, "--counts", str(counts)],
            "recover": ["recover", *spec_arg, "--probabilities", str(probs)],
            "birch": ["birch", *spec_arg, "--probabilities", str(probs),
                      "--counts", str(counts)],
            "verify": ["verify", *spec_arg, "--relations", str(rels),
                       "--trials", "1"]}


def _json_values(node):
    """(exact, decimal or None) of each value and residual of a JSON
    report, in document order."""
    if isinstance(node, list):
        for item in node:
            yield from _json_values(item)
    elif isinstance(node, dict):
        if "value" in node:
            yield node["value"], node["decimal"]
        for key, item in node.items():
            if key in ("residual", "max_abs"):
                yield item, None
            else:
                yield from _json_values(item)


@pytest.mark.parametrize("verb", ["mle", "recover", "birch", "verify"])
@pytest.mark.parametrize("spec_file", [ILLNESS, ILLNESS_HOM, VC_BOX],
                         ids=["illness", "illness_hom", "vc_box"])
def test_text_and_json_reports_agree(capsys, tmp_path, spec_file, verb):
    argv = _report_argv(tmp_path, spec_file)[verb]
    code, text, _ = run(capsys, *argv)
    structured_code, out, _ = run(capsys, *argv, "--format", "structured")
    assert structured_code == code
    doc = json.loads(out)
    # the value on each text line that holds one: 'exact ~ rounded', or a
    # witness's 'residual exact'
    shown = []
    for line in text.splitlines():
        if m := re.search(r" (\S+) ~ (\S+)$", line):
            shown.append((m[1], m[2]))
        elif m := re.search(r" residual (\S+)$", line):
            shown.append((m[1], None))
    values = list(_json_values(doc))
    assert values
    assert [exact for exact, _ in shown] == [exact for exact, _ in values]
    for (_, rounded), (_, decimal) in zip(shown, values):
        assert decimal is None or float(rounded) == decimal
    if verb == "verify":
        marks = [(int(m[1]), m[2].strip()) for m in
                 (re.match(r"\[\s*(\d+)\] (ok  |FAIL) ", line)
                  for line in text.splitlines()) if m]
        assert marks == [(rec["index"], "ok" if rec["status"] == "vanishes-exactly"
                          and rec["kernel_ok"] else "FAIL")
                         for rec in doc["relations"]]
        assert marks[-1][1] == "FAIL"


def enumerate_paths_cached():
    from conftest import make_illness_death
    return enumerate_paths(make_illness_death())


class TestBirch:
    def test_moment_equations_hold_for_fitted_mle(self, capsys, tmp_path,
                                                  worked_counts_file):
        probs = tmp_path / "p.txt"
        code, _, _ = run(capsys, "mle", "--spec", ILLNESS,
                         "--counts", worked_counts_file,
                         "--format", "structured", "--out", str(probs))
        doc = json.loads(probs.read_text())
        probs.write_text("".join(
            f"{','.join(row['path'])} {row['value']}\n"
            for row in doc["fitted"]))
        code, out, _ = run(capsys, "birch", "--spec", ILLNESS,
                           "--probabilities", str(probs),
                           "--counts", worked_counts_file)
        assert code == 0

    def test_uniform_point_fails_with_exit_two(self, capsys, tmp_path,
                                               worked_counts_file):
        table = enumerate_paths_cached()
        probs = tmp_path / "p.txt"
        probs.write_text("".join(f"{','.join(p)} 1/14\n" for p in table))
        code, out, _ = run(capsys, "birch", "--spec", ILLNESS,
                           "--probabilities", str(probs),
                           "--counts", worked_counts_file)
        assert code == 2


class TestIngest:
    def test_emit_counts_is_re_readable(self, capsys, tmp_path):
        t = tmp_path / "t.txt"
        t.write_text("0,0,1,1 3\n0,0,0,0 2\n0,0,1,1 1\n")
        dest = tmp_path / "c.txt"
        code, _, _ = run(capsys, "ingest", "--spec", ILLNESS,
                         "--trajectories", str(t),
                         "--emit", "counts", "--out", str(dest))
        assert code == 0
        from conftest import make_illness_death
        table = enumerate_paths(make_illness_death())
        cv = read_counts(dest, table)
        assert cv[table.index(("0", "0", "1", "1"))] == 4
        assert cv.total == 6

    @pytest.mark.parametrize("line, n, horizon", [
        ("0,0,1 3", [], 3), ("0,0,1,1,2,2 3", [], 4),
        ("0,0,1,1,2,2 3", ["--n", "2"], 2),
    ], ids=["shorter", "longer", "given"])
    def test_emit_counts_reports_the_horizon_it_counted_at(self, capsys, tmp_path,
                                                           line, n, horizon):
        # the spec's n = 4 or the trajectory length, whichever is shorter
        t = tmp_path / "t.txt"
        t.write_text(line + "\n")
        code, out, _ = run(capsys, "ingest", "--spec", ILLNESS, "--trajectories",
                           str(t), "--emit", "counts", "--format", "structured", *n)
        doc = json.loads(out)
        assert (code, doc["horizon"], doc["total"]) == (0, horizon, 3)
        assert {len(c["path"]) for c in doc["counts"]} == {horizon}

    def test_corpus_with_collapse(self, capsys, tmp_path):
        dest = tmp_path / "t.txt"
        code, _, _ = run(capsys, "ingest", "--spec", VC_BOX,
                         "--corpus", str(DATA / "sample_corpus.txt"),
                         "--corpus-config", str(DATA / "vc_corpus.yaml"),
                         "--collapse", str(DATA / "vc_collapse.yaml"),
                         "--out", str(dest))
        assert code == 0
        text = dest.read_text()
        assert "C,C,V,_,_ 4" in text

    def test_collapsed_corpus_is_checked_against_the_fine_spec(self, capsys, tmp_path):
        # a -> a is forbidden in the fine spec but a word of the corpus has it
        coarse = tmp_path / "coarse.yaml"
        coarse.write_text('states: [V, C, "_"]\nk: 1\nn: 4\nabsorbing: ["_"]\n')
        fine = tmp_path / "fine.yaml"
        fine.write_text('states: [a, b, "_"]\nk: 1\nn: 4\nforbid: [[a, a]]\n'
                        'absorbing: ["_"]\n')
        cmap = tmp_path / "collapse.yaml"
        cmap.write_text('"_": "_"\na: V\nb: C\n')
        config = tmp_path / "corpus.yaml"
        config.write_text('alphabet: {a: a, b: b}\npad: "_"\n')
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("aab ab\n")
        t = tmp_path / "t.txt"
        t.write_text("a,a,b,_ 1\na,b,_,_ 1\n")
        common = ["ingest", "--spec", str(coarse), "--collapse", str(cmap),
                  "--fine-spec", str(fine)]
        code, out, err = run(capsys, *common, "--corpus", str(corpus),
                             "--corpus-config", str(config))
        assert code == 1
        assert out == ""
        assert "record 1: transition ('a',) -> 'a' into position 2 is forbidden" in err
        # the same paths as a trajectory file fail the same way
        assert run(capsys, *common, "--trajectories", str(t)) == (1, out, err)
        corpus.write_text("ab ba ab\n")
        code, out, _ = run(capsys, *common, "--corpus", str(corpus),
                           "--corpus-config", str(config))
        assert code == 0
        assert out == "V,C,_ 2\nC,V,_ 1\n"

    @pytest.mark.parametrize("text, horizon, message", [
        ("hello w\u00f6rld\n", "max",
         "character '\u00f6' in word 'w\u00f6rld' is neither mapped nor dropped"),
        ("hello world\n", "3", "word 'hello' has length 5, horizon is 3"),
        ("a b\n", "max", "corpus contains no usable words"),
    ], ids=["unmapped", "overlong", "no-words"])
    def test_corpus_errors_name_the_corpus_file(self, capsys, tmp_path, text,
                                                horizon, message):
        corpus = tmp_path / "c.txt"
        corpus.write_text(text, encoding="utf-8")
        config = tmp_path / "cc.yaml"
        config.write_text(f'alphabet: letters\npad: "_"\nhorizon: {horizon}\n'
                          "min_word_length: 2\n")
        code, out, err = run(capsys, "ingest", "--spec", VC_BOX,
                             "--corpus", str(corpus), "--corpus-config", str(config),
                             "--collapse", str(DATA / "vc_collapse.yaml"))
        assert (code, out, err) == (3, "", f"error: {corpus}: {message}\n")

    def test_corpus_requires_config(self, capsys, tmp_path):
        code, _, _ = run(capsys, "ingest", "--spec", VC_BOX,
                         "--corpus", str(DATA / "sample_corpus.txt"))
        assert code == 3

    def test_fine_spec_requires_collapse(self, capsys, tmp_path):
        t = tmp_path / "t.txt"
        t.write_text("0,0,1,1 3\n")
        code, out, err = run(capsys, "ingest", "--spec", ILLNESS,
                             "--trajectories", str(t), "--fine-spec", ILLNESS)
        assert code == 3
        assert out == ""
        assert "--fine-spec requires --collapse" in err

    def test_collapsed_trajectories_require_fine_spec(self, capsys, tmp_path):
        # the uncollapsed labels are checked against --fine-spec, never
        # against the coarse --spec they are not written in
        coarse = tmp_path / "coarse.yaml"
        coarse.write_text('states: [V, C, "_"]\nk: 1\nn: 3\nabsorbing: ["_"]\n')
        fine = tmp_path / "fine.yaml"
        fine.write_text('states: [a, b, "_"]\nk: 1\nn: 3\nabsorbing: ["_"]\n')
        cmap = tmp_path / "collapse.yaml"
        cmap.write_text('"_": "_"\na: V\nb: C\n')
        t = tmp_path / "t.txt"
        t.write_text("a,b,_ 2\nb,a,a 1\n")
        argv = ["ingest", "--spec", str(coarse), "--trajectories", str(t),
                "--collapse", str(cmap)]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "--collapse with --trajectories requires --fine-spec" in err
        code, out, _ = run(capsys, *argv, "--fine-spec", str(fine))
        assert code == 0
        assert out == "V,C,_ 2\nC,V,V 1\n"


class TestReport:
    def test_full_report_runs(self, capsys, worked_counts_file):
        code, out, _ = run(capsys, "report", "--spec", ILLNESS,
                           "--counts", worked_counts_file, "--trials", "2")
        assert code == 0
        assert "paths: 14" in out
        assert "469/685" in out

    def test_structured_report_well_formed(self, capsys, worked_counts_file):
        code, out, _ = run(capsys, "report", "--spec", ILLNESS_HOM,
                           "--counts", worked_counts_file, "--trials", "2",
                           "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) >= {"validation", "relations", "verification"}

    def test_report_without_data_skips_estimate(self, capsys):
        code, out, _ = run(capsys, "report", "--spec", ILLNESS,
                           "--trials", "2")
        assert code == 0

    def test_reachable_dead_end_exits_one(self, capsys, tmp_path):
        # 1 has no successor, so paths through it stall before the horizon
        f = tmp_path / "dead.yaml"
        f.write_text("states: [0, 1]\nk: 1\nn: 3\nforbid: [[1, 0], [1, 1]]\n"
                     "initial: [0]\n")
        code, out, _ = run(capsys, "report", "--spec", str(f), "--trials", "2")
        assert code == 1
        assert "error: " in out
        assert "relations verified" in out

    def test_non_member_in_relations_file_exits_two(self, capsys, tmp_path):
        rel = tmp_path / "bogus.json"
        rel.write_text(json.dumps({"relations": [{
            "plus": [{"path": ["0", "0", "0", "0"], "power": 1},
                     {"path": ["1", "1", "1", "1"], "power": 1}],
            "minus": [{"path": ["0", "0", "0", "1"], "power": 1},
                      {"path": ["1", "1", "1", "2"], "power": 1}],
            "provenance": "file"}]}))
        code, out, _ = run(capsys, "report", "--spec", ILLNESS,
                           "--relations", str(rel), "--trials", "3")
        assert code == 2
        assert "0/1 relations verified" in out


class TestSeedHandling:
    def test_string_seed_accepted(self, capsys):
        code, _, _ = run(capsys, "verify", "--spec", ILLNESS,
                         "--trials", "2", "--seed", "pepper")
        assert code == 0

    def test_same_seed_same_output(self, capsys):
        _, out1, _ = run(capsys, "verify", "--spec", ILLNESS,
                         "--trials", "3", "--seed", "42",
                         "--format", "structured")
        _, out2, _ = run(capsys, "verify", "--spec", ILLNESS,
                         "--trials", "3", "--seed", "42",
                         "--format", "structured")
        assert out1 == out2


# ---------------------------------------------------------------------------
# main never raises, whatever a data file holds

def _values(largest):
    return st.recursive(
        st.none() | st.booleans() | st.integers(-5, largest) | st.floats()
        | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=4)


FILE_VALUES = _values(10_000)
# a spec's path table has up to |S|^n entries, so a spec's n (and k) is
# drawn small: an n of thousands runs without end rather than failing
SPEC_VALUES = _values(6)


def _base_relations():
    doc = iofiles.relations_to_jsonable(generators_for(parse_model_spec(ILLNESS)))
    doc["relations"] = doc["relations"][:2]
    return doc


# (file kind, where in the file the drawn value goes); () is the whole file
FILE_PLACES = (
    [("corpus", (key,)) for key in sorted(iofiles.CORPUS_KEYS)]
    + [("collapse", ("a",)), ("collapse", ("_",)), ("collapse", ())]
    + [("relations", place) for place in (
        ("relations", 0, "provenance"), ("relations", 0, "plus", 0, "path"),
        ("relations", 0, "plus", 0, "power"), ("relations", 0, "minus"),
        ("relations", 0), ("relations",), ("slice", 0), ("slice",), ())]
    + [("counts", ("count",)), ("counts", ("path",))])
SPEC_PLACES = ([("spec", (key,)) for key in sorted(iofiles.MODEL_KEYS)]
               + [("spec", ("forbid", 0)), ("spec", ("initial", 0)), ("spec", ())])


def _place(doc, where, value):
    if not where:
        return value
    target = doc
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    return doc


def _data_file(directory, kind, where, value):
    f = directory / f"{kind}.data"
    if kind == "corpus":
        doc = {"alphabet": "letters", "pad": "_", "horizon": "max",
               "min_word_length": 2}
        f.write_text(yaml.safe_dump(_place(doc, where, value)))
        return ["ingest", "--spec", VC_BOX,
                "--corpus", str(DATA / "sample_corpus.txt"),
                "--corpus-config", str(f),
                "--collapse", str(DATA / "vc_collapse.yaml")]
    if kind == "collapse":
        doc = yaml.safe_load((DATA / "vc_collapse.yaml").read_text())
        f.write_text(yaml.safe_dump(_place(doc, where, value)))
        return ["ingest", "--spec", VC_BOX,
                "--corpus", str(DATA / "sample_corpus.txt"),
                "--corpus-config", str(DATA / "vc_corpus.yaml"),
                "--collapse", str(f)]
    if kind == "spec":
        doc = yaml.safe_load(Path(ILLNESS).read_text())
        f.write_text(yaml.safe_dump(_place(doc, where, value)))
        return ["report", "--spec", str(f), "--trials", "1"]
    if kind == "relations":
        f.write_text(json.dumps(_place(_base_relations(), where, value)))
        return ["verify", "--spec", ILLNESS, "--relations", str(f),
                "--trials", "1"]
    text = json.dumps(value)
    line = {"count": f"0,0,1,1 {text}", "path": f"{text} 3"}[where[0]]
    f.write_text(f"0,0,0,0 5\n{line}\n1,1,1,2 2\n")
    return ["mle", "--spec", ILLNESS, "--counts", str(f)]


@settings(max_examples=90, deadline=None)
@given(st.tuples(st.sampled_from(FILE_PLACES), FILE_VALUES)
       | st.tuples(st.sampled_from(SPEC_PLACES), SPEC_VALUES))
@example((("corpus", ("drop_chars",)), 5))
@example((("relations", ("relations", 0, "provenance")), 5))
@example((("relations", ("relations", 0, "plus", 0, "power")), 530))
def test_main_never_raises_on_a_data_file(case):
    place, value = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = _data_file(Path(tmp), *place, value)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3)
