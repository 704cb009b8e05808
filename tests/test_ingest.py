import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from markovtoric import (
    CollapseMap,
    CorpusSpec,
    EstimationError,
    ModelSpec,
    ParameterError,
    ParseError,
    SpecificationError,
    TrajectorySet,
    collapse_states,
    corpus_to_trajectories,
    counts_from_trajectories,
    decimal_string,
    enumerate_paths,
    fraction_string,
    generators_for,
    ingest_trajectories,
    letters_alphabet,
    mle_homogeneous,
    parse_model_spec,
    read_collapse_map,
    read_corpus_spec,
    read_counts,
    read_probabilities,
    read_relations,
    tokenize_corpus,
    write_counts,
    write_probabilities,
    write_relations,
    write_trajectories,
)
from markovtoric.iofiles import DEFAULT_DROP_CHARS, MAX_RELATION_DEGREE, read_text
from conftest import make_binary_chain, make_survival, make_vc_chain
from oracles import corpus_to_trajectories_reference


class TestNumberRendering:
    def test_round_half_even_down(self):
        assert decimal_string(Fraction(1, 8), 2) == "0.12"

    def test_round_half_even_up(self):
        assert decimal_string(Fraction(3, 8), 2) == "0.38"

    def test_negative_value(self):
        assert decimal_string(Fraction(-1, 8), 2) == "-0.12"

    def test_zero_places(self):
        assert decimal_string(Fraction(5, 2), 0) == "2"
        assert decimal_string(Fraction(7, 2), 0) == "4"

    def test_fractional_padding(self):
        assert decimal_string(Fraction(1, 100), 3) == "0.010"

    def test_an_interpreter_without_a_digit_limit_has_no_limit(self, monkeypatch):
        # sys.get_int_max_str_digits is absent before Python 3.10.7
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert decimal_string(Fraction(1, 3)) == "0.333"
        with pytest.raises(ParameterError, match="^cannot write a value to -1 decimal"):
            decimal_string(Fraction(1, 3), -1)

    @pytest.mark.parametrize("places", [True, False, 2.5, "2", None])
    def test_places_that_are_not_an_int_are_refused(self, places):
        with pytest.raises(ParameterError,
                           match=f"^cannot write a value to {re.escape(repr(places))} "
                                 "decimal places$"):
            decimal_string(Fraction(1, 3), places)

    def test_fraction_string(self):
        assert fraction_string(Fraction(469, 685)) == "469/685"
        assert fraction_string(Fraction(3, 1)) == "3"

    def test_a_rational_too_long_for_decimal_is_a_parameter_error(self):
        value = Fraction(10 ** 5000, 3)
        bits = value.numerator.bit_length()
        with pytest.raises(ParameterError, match=f"^a {bits}-bit rational is too "
                                                 "long to write out in decimal$"):
            fraction_string(value)


class TestParseModelSpec:
    def test_reads_bundled_spec(self, data_dir, illness_death):
        spec = parse_model_spec(data_dir / "illness.yaml")
        assert spec.states == illness_death.states
        assert (spec.order, spec.horizon) == (illness_death.order,
                                              illness_death.horizon)
        assert spec.transition_pairs == illness_death.transition_pairs
        assert spec.absorbing == illness_death.absorbing
        assert spec.initial_blocks == illness_death.initial_blocks
        assert not spec.homogeneous

    def test_homogeneous_flag(self, data_dir, illness_death_hom):
        spec = parse_model_spec(data_dir / "illness_hom.yaml")
        assert spec.states == illness_death_hom.states
        assert spec.homogeneous

    def test_numeric_labels_become_strings(self, tmp_path):
        f = tmp_path / "m.yaml"
        f.write_text("states: [0, 1, 010]\nk: 1\nn: 3\ninitial: [0]\n")
        spec = parse_model_spec(f)
        assert spec.states == ("0", "1", "010")

    def test_yaml_1_1_booleans_become_labels(self, tmp_path):
        f = tmp_path / "m.yaml"
        f.write_text("states: [on, off, yes, no]\nk: 1\nn: 3\nforbid: [[on, no]]\n"
                     "homogeneous: TRUE\n")
        spec = parse_model_spec(f)
        assert spec.states == ("on", "off", "yes", "no")
        assert ("on", "no") not in spec.transition_pairs
        assert spec.homogeneous

    def test_a_merge_key_is_not_a_key_given_twice(self, tmp_path):
        f = tmp_path / "m.yaml"
        f.write_text("states: [0, 1]\n<<: {k: 1, n: 3}\n")
        spec = parse_model_spec(f)
        assert (spec.order, spec.horizon) == (1, 3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_model_spec(tmp_path / "nope.yaml")


# every reader, called on a file path
READERS = {
    "text": read_text,
    "spec": parse_model_spec,
    "corpus-config": read_corpus_spec,
    "collapse-map": read_collapse_map,
    "trajectories": lambda f: ingest_trajectories(f, make_survival()),
    "counts": lambda f: read_counts(f, enumerate_paths(make_survival())),
    "probabilities": lambda f: read_probabilities(f, enumerate_paths(make_survival())),
    "relations": lambda f: read_relations(f, enumerate_paths(make_survival())),
}


@pytest.mark.parametrize("kind", READERS)
def test_a_file_that_cannot_be_opened_or_decoded_is_a_parse_error(tmp_path, kind):
    f = tmp_path / "input"
    for problem in ("No such file", "can't decode byte 0xe9"):
        with pytest.raises(ParseError) as err:
            READERS[kind](f)
        assert err.value.filename == f
        assert (err.value.line, err.value.column) == (None, None)
        assert problem in str(err.value)
        f.write_bytes("café\n".encode("latin-1"))


SPEC = "states: [0, 1]\nk: 1\nn: 3\n"
# (reader, file text, error, message after the file's place, line, column);
# the trajectory, count and probability readers read survival's paths 000,
# 001 and 011.  A key given twice, or a YAML 1.1 numeral (010, 0x1, 1_0,
# 1:20) or boolean (on, yes, off), is refused rather than read as some
# other value.
REFUSALS = {
    "spec-unknown-key": ("spec", SPEC + "abzorbing: [1]\n", ParseError,
                         "unknown key 'abzorbing' in model spec", None, None),
    "spec-missing-key": ("spec", "states: [0, 1]\nk: 1\n", ParseError,
                         "model spec is missing required key 'n'", None, None),
    "spec-not-a-mapping": ("spec", "- just\n- a\n- list\n", ParseError,
                           "model spec must be a mapping", None, None),
    "spec-yaml-error": ("spec", "states: [0, 1\nk: 1\n", ParseError,
                        "expected ',' or ']', but got ':'", 2, 2),
    "spec-repeated-key": ("spec", SPEC + "n: 4\n", ParseError,
                          "key 'n' is given twice", 4, 1),
    "spec-unhashable-key": ("spec", SPEC + "? [a, b]\n: 1\n", ParseError,
                            "found unhashable key", 4, 3),
    "spec-octal": ("spec", "states: [0, 1]\nk: 1\nn: 012\n", ParseError,
                   "n must be an integer, got '012'", None, None),
    "spec-hex": ("spec", "states: [0, 1]\nk: 0x1\nn: 3\n", ParseError,
                 "k must be an integer, got '0x1'", None, None),
    "spec-underscore": ("spec", "states: [0, 1]\nk: 1\nn: 1_0\n", ParseError,
                        "n must be an integer, got '1_0'", None, None),
    "spec-sexagesimal": ("spec", "states: [0, 1]\nk: 1\nn: 1:20\n", ParseError,
                         "n must be an integer, got '1:20'", None, None),
    "spec-homogeneous-on": ("spec", SPEC + "homogeneous: on\n", ParseError,
                            "homogeneous must be true or false, got 'on'", None, None),
    "spec-homogeneous-yes": ("spec", SPEC + "homogeneous: yes\n", ParseError,
                             "homogeneous must be true or false, got 'yes'", None, None),
    "spec-homogeneous-off": ("spec", SPEC + "homogeneous: off\n", ParseError,
                             "homogeneous must be true or false, got 'off'", None, None),
    "corpus-unknown-key": ("corpus-config", "pad: '_'\npadd: '_'\n", ParseError,
                           "unknown key 'padd' in corpus spec", None, None),
    "corpus-missing-pad": ("corpus-config", "alphabet: letters\n", ParseError,
                           "corpus spec is missing required key 'pad'", None, None),
    "corpus-repeated-key": ("corpus-config", "pad: _\nalphabet: letters\npad: x\n",
                            ParseError, "key 'pad' is given twice", 3, 1),
    "corpus-repeated-letter": ("corpus-config", "pad: _\nalphabet:\n  a: V\n  a: C\n",
                               ParseError, "key 'a' is given twice", 4, 3),
    "collapse-repeated-key": ("collapse-map", "a: V\nb: C\na: C\n", ParseError,
                              "key 'a' is given twice", 3, 1),
    "trajectory-bad-multiplicity": ("trajectories", "0,0,0 two\n", ParseError,
                                    "multiplicity 'two' is not an integer", 1, None),
    "trajectory-zero-multiplicity": ("trajectories", "0,0,0 0\n", ParseError,
                                     "multiplicity must be positive, got 0", 1, None),
    "trajectory-three-fields": ("trajectories", "0,0,0 1 1\n", ParseError,
                                "expected 'path' or 'path count'", 1, None),
    "trajectory-empty-label": ("trajectories", "0,0,0 1\n0,,1 3\n", ParseError,
                               "empty state label", 2, None),
    "trajectory-no-records": ("trajectories", "# nothing here\n", ParseError,
                              "no trajectory records found", None, None),
    "trajectory-forbidden-step": (
        "trajectories", "0,0,0 1\n0,1,0 1\n", EstimationError,
        "record 2: transition ('1',) -> '0' into position 3 is forbidden", None, None),
    "counts-repeated-path": ("counts", "0,0,0 94\n0,0,0 1\n", ParseError,
                             "duplicate count for path 0,0,0", 2, None),
    "counts-inadmissible-path": ("counts", "0,1,0 3\n", ParseError,
                                 "path ('0', '1', '0') is not in the table", 1, None),
    "counts-not-an-integer": ("counts", "0,0,0 ninety\n", ParseError,
                              "count 'ninety' is not an integer", 1, None),
    "counts-negative": ("counts", "0,0,0 94\n0,0,1 -3\n", ParseError,
                        "count '-3' is negative", 2, None),
    "probabilities-not-a-rational": ("probabilities", "0,0,0 about-half\n", ParseError,
                                     "value 'about-half' is not a rational", 1, None),
    "probabilities-negative": ("probabilities", "0,0,0 5/4\n0,0,1 -1/4\n", ParseError,
                               "value '-1/4' is negative", 2, None),
    "probabilities-repeated-path": ("probabilities", "0,0,0 1/2\n0,0,0 1/3\n",
                                    ParseError, "duplicate value for path 0,0,0", 2, None),
    "relations-repeated-key": ("relations", '{"relations": [], "relations": []}',
                               ParseError, "key 'relations' is given twice", None, None),
    "relation-repeated-key": ("relations", '{"relations": [{"plus": [], "plus": []}]}',
                              ParseError, "key 'plus' is given twice", None, None),
    "term-repeated-key": ("relations", '{"relations": [{"plus": [{"path": ["0", "0", "0"], '
                          '"power": 1, "power": 3}], "minus": [{"path": ["0", "0", "1"]}]}]}',
                          ParseError, "key 'power' is given twice", None, None),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_a_malformed_file_is_refused_with_its_place(tmp_path, case):
    kind, text, error, message, line, column = REFUSALS[case]
    f = tmp_path / "input"
    f.write_text(text)
    with pytest.raises(error) as err:
        READERS[kind](f)
    if error is ParseError:
        assert (err.value.filename, err.value.line, err.value.column) == (f, line, column)
        where = "".join(f":{n}" for n in (line, column) if n is not None)
        message = f"{f}{where}: {message}"
    assert str(err.value) == message


def test_data_files_break_lines_at_newlines_only(tmp_path):
    # \x0c, \x1c, \x85 and \u2028 end a line for str.splitlines, but
    # here they are whitespace inside a record; \r\n and \r are newlines
    f = tmp_path / "counts.txt"
    table = enumerate_paths(make_survival())
    f.write_bytes("0,0,0\x0c2\x1c\r\n0,0,1\x85 1\u2028\r".encode("utf-8"))
    assert read_counts(f, table).counts == (2, 1, 0)
    f.write_bytes(f.read_bytes() + b"0,0,0 3\n")
    with pytest.raises(ParseError) as err:
        read_counts(f, table)
    assert str(err.value) == f"{f}:3: duplicate count for path 0,0,0"


class TestTrajectoryFiles:
    def test_two_field_form(self, tmp_path, illness_death):
        f = tmp_path / "t.txt"
        f.write_text("0,0,1,1 3\n0,0,0,0 2\n")
        trajs = ingest_trajectories(f, illness_death)
        assert trajs.records == ((("0", "0", "1", "1"), 3),
                                 (("0", "0", "0", "0"), 2))

    def test_every_comma_token_is_a_state_label(self, tmp_path, illness_death):
        f = tmp_path / "t.txt"
        # a trailing state label stays part of the path
        f.write_text("0,0,1,2\n")
        assert ingest_trajectories(f, illness_death).records == (
            (("0", "0", "1", "2"), 1),)
        # a trailing integer that is not a state is an unknown label, not
        # a multiplicity that would shorten every history
        f.write_text("0,1,3\n0,0,3\n1,1,3\n")
        with pytest.raises(EstimationError) as err:
            ingest_trajectories(f, ModelSpec(["0", "1", "2"], 1, 3))
        assert str(err.value) == "record 1: unknown state label '3' at position 3"

    def test_comments_and_blanks_skipped(self, tmp_path, illness_death):
        f = tmp_path / "t.txt"
        f.write_text("# header\n\n0,0,0,0 1  # trailing note\n")
        trajs = ingest_trajectories(f, illness_death)
        assert trajs.total == 1

    def test_write_read_round_trip(self, tmp_path, illness_death):
        trajs = TrajectorySet(((("0", "0", "1", "1"), 3),
                               (("1", "1", "2", "2"), 7)))
        f = tmp_path / "t.txt"
        write_trajectories(trajs, f)
        assert ingest_trajectories(f, illness_death).records == trajs.records


class TestCountFiles:
    def test_missing_paths_count_zero(self, tmp_path, illness_death):
        table = enumerate_paths(illness_death)
        f = tmp_path / "c.txt"
        f.write_text("0,0,0,0 94\n1,1,1,1 94\n")
        cv = read_counts(f, table)
        assert cv.total == 188
        assert cv[table.index(("0", "0", "0", "1"))] == 0

    @pytest.mark.parametrize("text", ["", "# none\n", "0,0,0,0 0\n1,1,1,1 0\n"],
                             ids=["empty", "comment-only", "zeros"])
    def test_all_zero_counts_rejected(self, tmp_path, illness_death, text):
        f = tmp_path / "c.txt"
        f.write_text(text)
        with pytest.raises(ParseError) as err:
            read_counts(f, enumerate_paths(illness_death))
        assert str(err.value) == f"{f}: counts file is all zero"

    def test_write_read_round_trip(self, tmp_path, illness_death):
        table = enumerate_paths(illness_death)
        trajs = TrajectorySet(((("0", "0", "1", "1"), 3),
                               (("0", "0", "0", "0"), 2)))
        cv = counts_from_trajectories(trajs, illness_death)
        f = tmp_path / "c.txt"
        write_counts(cv, f)
        assert read_counts(f, table).counts == cv.counts


class TestProbabilityFiles:
    def test_fractions_and_decimals_read_exactly(self, tmp_path, illness_death):
        table = enumerate_paths(illness_death)
        f = tmp_path / "p.txt"
        f.write_text("0,0,0,0 469/685\n0,0,0,1 0.125\n")
        out = read_probabilities(f, table)
        assert out[table.index(("0", "0", "0", "0"))] == Fraction(469, 685)
        assert out[table.index(("0", "0", "0", "1"))] == Fraction(1, 8)
        assert out[table.index(("1", "1", "1", "1"))] == 0

    def test_write_read_round_trip_exact(self, tmp_path, illness_death):
        table = enumerate_paths(illness_death)
        assignment = {j: Fraction(1, 14) for j in range(len(table))}
        f = tmp_path / "p.txt"
        write_probabilities(assignment, table, f)
        assert read_probabilities(f, table) == assignment

    def test_write_rejects_a_missing_index(self, tmp_path, illness_death):
        table = enumerate_paths(illness_death)
        f = tmp_path / "p.txt"
        with pytest.raises(ParameterError,
                           match="^assignment is missing path index 1$"):
            write_probabilities({0: Fraction(1)}, table, f)
        assert not f.exists()


class TestCorpusPipeline:
    def test_tokenizer_drops_digits_and_apostrophes(self):
        cs = CorpusSpec(alphabet=letters_alphabet(), pad="_")
        tally = tokenize_corpus("don't 123 end2end Dont\nDON'T end2end", cs)
        # case and dropped-character variants share one entry, first-seen order
        assert list(tally.items()) == [("dont", 3), ("endend", 2)]

    def test_unmapped_character_is_an_error(self):
        cs = CorpusSpec(alphabet=letters_alphabet(), pad="_")
        with pytest.raises(ParseError) as err:
            tokenize_corpus("naïve", cs)
        assert "ï" in str(err.value)
        # the first unmapped character, in word order, of the first word
        # in the text that holds one
        cs = CorpusSpec(alphabet={"a": "a", "b": "b"}, pad="_", drop_chars="'")
        with pytest.raises(ParseError) as err:
            tokenize_corpus("ab ab BX9C b9 bac", cs)
        assert str(err.value) == ("character 'x' in word 'bx9c' is neither "
                                  "mapped nor dropped")

    def test_short_words_dropped_and_padding_applied(self):
        cs = CorpusSpec(alphabet=letters_alphabet(), pad="_",
                        min_word_length=2)
        trajs = corpus_to_trajectories("a to tree", cs)
        # L = 4, every trajectory has length 5; "tree" still ends padded
        assert trajs.length == 5
        assert dict(trajs.records) == {
            ("t", "o", "_", "_", "_"): 1,
            ("t", "r", "e", "e", "_"): 1,
        }

    def test_word_counts_become_multiplicities(self):
        cs = CorpusSpec(alphabet=letters_alphabet(), pad="_")
        trajs = corpus_to_trajectories("go go stop", cs)
        assert dict(trajs.records) == {
            ("g", "o", "_", "_", "_"): 2,
            ("s", "t", "o", "p", "_"): 1,
        }

    def test_fixed_horizon_overlong_error(self):
        cs = CorpusSpec(alphabet=letters_alphabet(), pad="_", horizon=3)
        with pytest.raises(ParseError) as err:
            corpus_to_trajectories("go stop", cs)
        assert "stop" in str(err.value)

    def test_fixed_horizon_overlong_drop(self):
        # max_word_length is the one length filter: capped at the horizon,
        # it drops the words a fixed horizon would refuse
        cs = CorpusSpec(alphabet=letters_alphabet(), pad="_", horizon=3,
                        max_word_length=3)
        trajs = corpus_to_trajectories("go stop", cs)
        assert dict(trajs.records) == {("g", "o", "_", "_"): 1}

    def test_empty_corpus_is_an_error(self):
        cs = CorpusSpec(alphabet=letters_alphabet(), pad="_",
                        min_word_length=3)
        with pytest.raises(ParseError):
            corpus_to_trajectories("a be do", cs)

    @pytest.mark.parametrize("field, value", [
        ("horizon", "abc"), ("horizon", True), ("horizon", 3.0),
        ("min_word_length", "x"), ("min_word_length", None),
        ("min_word_length", False), ("max_word_length", "5"),
        ("max_word_length", True)])
    def test_lengths_must_be_integers(self, field, value):
        with pytest.raises(SpecificationError) as err:
            CorpusSpec(alphabet=letters_alphabet(), pad="_", **{field: value})
        assert f"{field} must be an integer" in str(err.value)
        assert repr(value) in str(err.value)

    @pytest.mark.parametrize("field, value, shown", [
        ("pad", ["_"], "['_']"), ("pad", None, "None"), ("drop_chars", 5, "5"),
        ("drop_chars", ["'"], '["\'"]'), ("alphabet", ["a", "b"], "['a', 'b']"),
        ("alphabet", "letters", "'letters'"), ("alphabet", {"a": None}, "'a': None"),
        ("alphabet", {"a": 1.5}, "'a': 1.5"), ("alphabet", {True: "a"}, "True: 'a'"),
        # text is lowercased and mapped one character at a time, so these
        # keys could never match
        ("alphabet", {"ab": "C"}, "'ab': 'C'"), ("alphabet", {"A": "C"}, "'A': 'C'"),
        ("alphabet", {"": "C"}, "'': 'C'"), ("alphabet", {"É": "C"}, "'É': 'C'"),
        ("alphabet", {10: "C"}, "10: 'C'")])
    def test_settings_are_checked_by_corpus_spec(self, field, value, shown):
        settings = {"alphabet": letters_alphabet(), "pad": "_", field: value}
        with pytest.raises(SpecificationError) as err:
            CorpusSpec(**settings)
        assert f"{field} must" in str(err.value)
        assert f"got {shown}" in str(err.value)

    def test_labels_are_stored_as_strings(self):
        # 5 is a default drop character, so drop only the apostrophe
        cs = CorpusSpec(alphabet={"a": 0, 5: "C", "é": 1}, pad=2, drop_chars="'")
        assert cs.alphabet == {"a": "0", "5": "C", "é": "1"}
        assert cs.pad == "2"

    @pytest.mark.parametrize("alphabet, drop_chars, key", [
        ({**letters_alphabet(), "'": "q"}, DEFAULT_DROP_CHARS, "\"'\""),
        ({"a": "a", 5: "C"}, DEFAULT_DROP_CHARS, "5"), ({"a": "a", "b": "b"}, "xb", "'b'")],
        ids=["apostrophe", "digit", "letter"])
    def test_an_alphabet_key_may_not_be_a_drop_char(self, alphabet, drop_chars, key):
        # characters are dropped before they are mapped, so such a key is
        # never used: don't would silently become dont
        with pytest.raises(SpecificationError) as err:
            CorpusSpec(alphabet=alphabet, pad="_", drop_chars=drop_chars)
        assert str(err.value) == (f"alphabet key {key} is also in drop_chars, "
                                  f"which are removed before mapping")

    def test_min_word_length_may_not_exceed_max_word_length(self):
        with pytest.raises(SpecificationError) as err:
            CorpusSpec(alphabet=letters_alphabet(), pad="_", min_word_length=4,
                       max_word_length=3)
        assert str(err.value) == ("min_word_length 4 is above max_word_length 3, "
                                  "so no word can be kept")
        cs = CorpusSpec(alphabet=letters_alphabet(), pad="_", min_word_length=3,
                        max_word_length=3)
        assert corpus_to_trajectories("go cat stop", cs).records == (
            (("c", "a", "t", "_"), 1),)

    def test_pad_must_be_absorbing_in_target_spec(self):
        spec = make_binary_chain(1, 3)  # no absorbing states
        cs = CorpusSpec(alphabet={"a": "0", "b": "1"}, pad="2")
        with pytest.raises(SpecificationError):
            corpus_to_trajectories("bba", cs, spec)

    @pytest.mark.parametrize("alphabet, pad, key", [
        ({"a": "_", "b": "b"}, "_", "'a'"), ({"a": 0, "b": 1}, "0", "'a'"),
        ({"a": "V", "b": 2}, 2, "'b'")], ids=["label", "integer-value", "integer-pad"])
    def test_a_letter_may_not_map_onto_the_pad(self, alphabet, pad, key):
        # ba would become ('b', '_', '_'), the trajectory of b
        with pytest.raises(SpecificationError) as err:
            CorpusSpec(alphabet=alphabet, pad=pad)
        assert str(err.value) == (f"alphabet key {key} maps to the pad symbol "
                                  f"'{pad}', so it would read as padding")

    def test_words_with_one_trajectory_share_one_record(self):
        cs = CorpusSpec(alphabet={"a": "V", "e": "V", "b": "C", "d": "C"}, pad="_")
        trajs = corpus_to_trajectories("ab eb ab ed ba", cs)
        assert trajs.records == ((("V", "C", "_"), 4), (("C", "V", "_"), 1))

    def test_absorbing_pad_passes_the_target_check(self):
        spec = ModelSpec(["a", "b", "_"], 1, 4, forbidden=[("b", "b")],
                         absorbing=["_"])
        cs = CorpusSpec(alphabet={"a": "a", "b": "b"}, pad="_")
        trajs = corpus_to_trajectories("ab ba aba ab", cs, spec)
        assert trajs.records == ((("a", "b", "_", "_"), 2),
                                 (("b", "a", "_", "_"), 1),
                                 (("a", "b", "a", "_"), 1))
        # every trajectory is still checked against the target spec
        with pytest.raises(EstimationError, match="record 2: transition"):
            corpus_to_trajectories("ab abb", cs, spec)

    def test_max_word_length_excludes_words_before_the_horizon(self):
        cs = CorpusSpec(alphabet=letters_alphabet(), pad="_", max_word_length=3)
        trajs = corpus_to_trajectories("go stop cat trees", cs)
        # L is the longest surviving word, 3, not 5
        assert trajs.records == ((("g", "o", "_", "_"), 1),
                                 (("c", "a", "t", "_"), 1))

    def test_deterministic(self, data_dir):
        cs = read_corpus_spec(data_dir / "vc_corpus.yaml")
        text = (data_dir / "sample_corpus.txt").read_text()
        assert (corpus_to_trajectories(text, cs).records
                == corpus_to_trajectories(text, cs).records)


def _outcome(pipeline, text, cs, spec):
    try:
        return pipeline(text, cs, spec).records
    except (EstimationError, ParseError, SpecificationError) as exc:
        return type(exc), str(exc)


# words of mapped letters in mixed case, digits and apostrophes; in half
# the texts the unmapped letters x, z and ï, and İ, which lowercases to
# two characters, so that one text can hold two different offending words
_word_lists = st.sampled_from(["aabbccnotABCNOT''019",
                               "aabbccnotABCNOT''019xz\u00ef\u0130"]).flatmap(
    lambda chars: st.lists(st.text(chars, min_size=1, max_size=6), min_size=1,
                           max_size=14))


# gaps include whitespace that str.split breaks on besides space, tab and newline
@settings(max_examples=200, deadline=None)
@given(words=_word_lists,
       gaps=st.lists(st.sampled_from([" ", "  ", "\n", "\t ", "\x0c", "\x1c", "\x85",
                                      "\u2028"]), min_size=14, max_size=14),
       drop_chars=st.sampled_from(["'023456789", "'0234", "x'023456789", "'"]),
       # e is no alphabet value (CorpusSpec refuses one) and no target state
       pad=st.sampled_from(["_", "e"]),
       horizon=st.none() | st.integers(1, 6),
       min_word_length=st.integers(0, 3),
       max_word_length=st.none() | st.integers(1, 6),
       target=st.sampled_from([None, 1, 2]))
@example(words=["Don't", "dont", "ab", "DONT"], gaps=[" "] * 14, drop_chars="'",
         pad="_", horizon=None, min_word_length=1, max_word_length=None, target=None)
@example(words=["ab", "Bx0", "0", "x"], gaps=[" "] * 14, drop_chars="'", pad="_",
         horizon=2, min_word_length=1, max_word_length=None, target=None)
# ab, no and Ab map to one trajectory, which must be one record of 3
@example(words=["ab", "no", "tn", "Ab"], gaps=[" "] * 14, drop_chars="'", pad="_",
         horizon=None, min_word_length=1, max_word_length=None, target=1)
# the first offending word in text order is the last in sorted order
@example(words=["Zb", "ab", "xA", "\u0130t"], gaps=["\x1c", "\u2028", "\x85", "\x0c"]
         + [" "] * 10, drop_chars="'", pad="_", horizon=None, min_word_length=1,
         max_word_length=None, target=None)
def test_tally_pipeline_matches_the_occurrence_list(
        words, gaps, drop_chars, pad, horizon, min_word_length, max_word_length,
        target):
    # CorpusSpec rejects these settings, since they can keep no word
    assume(max_word_length is None or min_word_length <= max_word_length)
    text = "".join(w + g for w, g in zip(words, gaps))
    alphabet = {"a": "a", "b": "b", "c": "c", "d": "d", "n": "a", "o": "b", "t": "c",
                "1": "b"}
    cs = CorpusSpec(alphabet=alphabet, pad=pad, horizon=horizon,
                    min_word_length=min_word_length, max_word_length=max_word_length,
                    drop_chars=drop_chars)
    # order 1 or 2 over a, b, c and an absorbing pad, with c -> c forbidden
    spec = None if target is None else ModelSpec(
        ["a", "b", "c", "_"], target, target + 1, forbidden=[("c", "c")],
        absorbing=["_"])
    assert (_outcome(corpus_to_trajectories, text, cs, spec)
            == _outcome(corpus_to_trajectories_reference, text, cs, spec))


class TestCollapse:
    def test_identity_map_keeps_records(self, illness_death):
        trajs = TrajectorySet(((("0", "0", "1", "1"), 3),))
        cm = CollapseMap({s: s for s in illness_death.states})
        out = collapse_states(trajs, cm, illness_death, illness_death)
        assert out.records == trajs.records

    def test_merged_preimages_pool_multiplicities(self):
        coarse = make_binary_chain(1, 2, homogeneous=False)
        trajs = TrajectorySet(((("a", "b"), 2), (("a", "c"), 3)))
        cm = CollapseMap({"a": "0", "b": "1", "c": "1"})
        out = collapse_states(trajs, cm, coarse)
        assert out.records == ((("0", "1"), 5),)

    def test_missing_image_rejected(self, illness_death):
        cm = CollapseMap({"0": "0", "1": "1"})
        trajs = TrajectorySet(((("0", "2"), 1),))
        with pytest.raises(SpecificationError) as err:
            cm.apply(("0", "2"))
        assert "2" in str(err.value)

    def test_validate_requires_every_fine_state_mapped(self, illness_death):
        cm = CollapseMap({"0": "0", "1": "1"})
        with pytest.raises(SpecificationError):
            cm.validate(illness_death, make_binary_chain(1, 4))

    def test_validate_requires_surjectivity(self):
        fine = make_binary_chain(1, 3)
        coarse = make_binary_chain(1, 3)
        cm = CollapseMap({"0": "0", "1": "0"})
        with pytest.raises(SpecificationError) as err:
            cm.validate(fine, coarse)
        assert "surjective" in str(err.value)

    def test_validate_absorbing_must_map_to_absorbing(self):
        fine = make_survival()
        coarse = make_binary_chain(1, 3)
        cm = CollapseMap({"0": "0", "1": "1"})
        with pytest.raises(SpecificationError) as err:
            cm.validate(fine, coarse)
        assert "absorbing" in str(err.value)

    def test_validate_allowed_must_not_map_onto_forbidden(self):
        fine = make_binary_chain(1, 3)
        coarse = make_survival()
        cm = CollapseMap({"0": "0", "1": "1"})
        with pytest.raises(SpecificationError) as err:
            cm.validate(fine, coarse)
        assert "forbidden" in str(err.value)

    def test_validate_names_the_first_fault_in_declaration_order(self):
        # label-text order would name 'a' -> 'z' first
        fine = ModelSpec(["z", "a"], 1, 2)
        coarse = ModelSpec(["X", "Y"], 1, 2, forbidden=[("X", "Y"), ("Y", "X")])
        with pytest.raises(SpecificationError) as err:
            CollapseMap({"z": "X", "a": "Y"}).validate(fine, coarse)
        assert str(err.value) == ("allowed fine transition 'z' -> 'a' maps onto "
                                  "forbidden coarse transition 'X' -> 'Y'")

    def test_validate_names_the_first_absorbing_fault_in_declaration_order(self):
        # the absorbing states are given as x, _ but declared as _, x
        fine = ModelSpec(["a", "_", "x"], 1, 2, absorbing=["x", "_"])
        coarse = ModelSpec(["A", "B"], 1, 2)
        with pytest.raises(SpecificationError) as err:
            CollapseMap({"a": "A", "_": "B", "x": "B"}).validate(fine, coarse)
        assert str(err.value) == "absorbing fine state '_' maps to non-absorbing 'B'"

    def test_collapse_commutes_with_counting(self, data_dir):
        # pooling words first and relabeling after gives the same counts
        # as relabeling each word before pooling
        cs = read_corpus_spec(data_dir / "vc_corpus.yaml")
        cm = read_collapse_map(data_dir / "vc_collapse.yaml")
        text = (data_dir / "sample_corpus.txt").read_text()
        coarse = make_vc_chain(5)
        pooled_then_mapped = collapse_states(
            corpus_to_trajectories(text, cs), cm, coarse)
        per_word = TrajectorySet.from_sequences(
            cm.apply(t) for t, m in corpus_to_trajectories(text, cs).records
            for _ in range(m))
        a = counts_from_trajectories(pooled_then_mapped, coarse)
        b = counts_from_trajectories(per_word.check(coarse), coarse)
        assert a.counts == b.counts


class TestConfigReaders:
    def test_corpus_spec_letters_shorthand(self, data_dir):
        cs = read_corpus_spec(data_dir / "vc_corpus.yaml")
        assert cs.alphabet == letters_alphabet()
        assert cs.pad == "_"
        assert cs.horizon is None
        assert cs.min_word_length == 2

    def test_collapse_map_reader(self, data_dir):
        cm = read_collapse_map(data_dir / "vc_collapse.yaml")
        assert cm.mapping["a"] == "V"
        assert cm.mapping["b"] == "C"
        assert cm.mapping["_"] == "_"


class TestRelationFiles:
    def test_round_trip_preserves_relations(self, tmp_path, illness_death):
        relset = generators_for(illness_death)
        f = tmp_path / "r.json"
        write_relations(relset, f)
        back = read_relations(f, relset.table)
        assert back.binomials == relset.binomials
        assert back.provenance == relset.provenance

    def test_round_trip_homogeneous_with_slice(self, tmp_path,
                                               illness_death_hom):
        relset = generators_for(illness_death_hom)
        f = tmp_path / "r.json"
        write_relations(relset, f)
        back = read_relations(f, relset.table)
        assert back.binomials == relset.binomials

    def test_reader_canonicalizes(self, tmp_path, illness_death):
        # swapped sides come back in canonical orientation
        relset = generators_for(illness_death)
        f = tmp_path / "r.json"
        write_relations(relset, f)
        doc = json.loads(f.read_text())
        r = doc["relations"][0]
        r["plus"], r["minus"] = r["minus"], r["plus"]
        f.write_text(json.dumps(doc))
        back = read_relations(f, relset.table)
        assert back.binomials[0] == relset.binomials[0]

    def test_unknown_path_rejected(self, tmp_path, illness_death):
        relset = generators_for(illness_death)
        f = tmp_path / "r.json"
        write_relations(relset, f)
        doc = json.loads(f.read_text())
        doc["relations"][0]["plus"][0]["path"] = ["0", "1", "0", "0"]
        f.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as err:
            read_relations(f, relset.table)
        assert str(err.value) == f"{f}: path ('0', '1', '0', '0') is not in the table"

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["relations"][0]["plus"][0].update(
            path="".join(doc["relations"][0]["plus"][0]["path"])),
        lambda doc: doc["slice"].__setitem__(0, "".join(doc["slice"][0])),
        lambda doc: doc["relations"][0]["plus"][0].update(power=1.5),
        lambda doc: doc["relations"][0]["plus"][0].update(power="2"),
        lambda doc: doc["relations"][0]["plus"][0].update(power=True),
        lambda doc: doc["relations"][0]["plus"][0].update(power=0),
        lambda doc: doc["relations"][0]["plus"][0].update(power=-1),
        lambda doc: doc["slice"].__setitem__(0, ["x"]),
        lambda doc: doc["slice"].__setitem__(0, [0, 1]),
        lambda doc: doc["slice"].__setitem__(0, [1, 0, 0, 0]),
        lambda doc: doc["slice"].__setitem__(0, ["0", "0", "0", "0"]),
        lambda doc: doc["relations"][0].update(provenance=5),
        lambda doc: doc["relations"][0].update(provenance=None),
        lambda doc: doc["slice"].append(doc["slice"][0]),
    ], ids=["path-string", "slice-string", "power-1.5", "power-string",
            "power-true", "power-0", "power-negative", "slice-short",
            "slice-int-labels-short", "slice-int-labels", "slice-admissible-path",
            "provenance-int", "provenance-null", "slice-repeated"])
    def test_reinterpreted_value_rejected(self, tmp_path, illness_death, edit):
        # each edit used to read back as some relation instead of failing
        relset = generators_for(illness_death)
        f = tmp_path / "r.json"
        write_relations(relset, f)
        doc = json.loads(f.read_text())
        edit(doc)
        f.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as err:
            read_relations(f, relset.table)
        assert str(f) in str(err.value)

    def test_side_degree_is_bounded(self, tmp_path, illness_death):
        table = enumerate_paths(illness_death)
        f = tmp_path / "r.json"

        def write(powers):
            f.write_text(json.dumps({"relations": [{
                "plus": [{"path": ["0", "0", "0", "0"], "power": e} for e in powers],
                "minus": [{"path": ["0", "0", "0", "1"], "power": 1}]}]}))

        write([MAX_RELATION_DEGREE])
        assert read_relations(f, table).binomials[0].degree() == MAX_RELATION_DEGREE
        # repeated terms merge before the check, into one of degree limit + 1
        write([MAX_RELATION_DEGREE, 1])
        with pytest.raises(ParseError) as err:
            read_relations(f, table)
        assert str(f) in str(err.value)
        # a power too long for int() is a parse error too, not a ValueError
        f.write_text(f.read_text().replace(f"{MAX_RELATION_DEGREE}", "9" * 5000))
        with pytest.raises(ParseError) as err:
            read_relations(f, table)
        assert str(f) in str(err.value)

    def test_slice_read_against_an_empty_table(self, tmp_path):
        # state a has no successor, so no path of length 3 starts there
        spec = ModelSpec(["a", "b"], 1, 3, forbidden=[("a", "a"), ("a", "b")],
                         initial=["a"])
        table = enumerate_paths(spec)
        assert len(table) == 0
        f = tmp_path / "r.json"
        f.write_text('{"relations": [], "slice": [["a", "a", "a"]]}')
        assert read_relations(f, table).slice_paths == (("a", "a", "a"),)
        f.write_text('{"relations": [], "slice": [["a", 1, "a"]]}')
        with pytest.raises(ParseError):
            read_relations(f, table)
