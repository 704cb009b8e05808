import json
from fractions import Fraction

import pytest

from markovtoric import enumerate_paths, read_counts, generators_for
from markovtoric.cli import main
from conftest import DATA
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
        # duplicate state label
        f.write_text("states: [0, 0, 1]\nk: 1\nn: 3\n")
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
        from markovtoric.verify import assignment_from_parameters
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

    def test_corpus_requires_config(self, capsys, tmp_path):
        code, _, _ = run(capsys, "ingest", "--spec", VC_BOX,
                         "--corpus", str(DATA / "sample_corpus.txt"))
        assert code == 3


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
