"""File formats, corpus ingestion and state collapsing.

Model specs and corpus configs are small YAML documents.  Trajectories
and counts are plain text, one record per line, with `#` comments.
Relation files are JSON documents whose keys follow the package's field
names.  Exact values are written as rational strings like "469/685";
decimal_string gives a rounded view of one, never a replacement.

Every input file is read as UTF-8 by one reader, read_text; a file that
cannot be opened or decoded is a ParseError naming the file (exit 3 on
the command line).  Every data file is written, one line at a time, by
one writer, _write_lines.
"""

import io
import json
import sys
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction

import yaml

from .errors import InadmissiblePathError, ParameterError, ParseError, SpecificationError
from .estimate import CountVector, TrajectorySet
from .model import ModelSpec, is_integer, is_label
from .relations import RelationSet, canonicalize

DEFAULT_DECIMALS = 3
DEFAULT_DROP_CHARS = "'0123456789"

# Largest total degree of one side of a relation read from a file.  The
# numeric route raises integer weights to each power, so its cost grows
# faster than linearly with the degree; every emitted family has degree
# at most 2.
MAX_RELATION_DEGREE = 64

MODEL_KEYS = {"states", "k", "n", "homogeneous", "forbid", "absorbing", "initial"}
CORPUS_KEYS = {"alphabet", "pad", "horizon", "min_word_length",
               "max_word_length", "overlong", "drop_chars"}


def decimal_string(value, places=DEFAULT_DECIMALS):
    """Round-half-even decimal rendering of an exact rational.  ParameterError
    when places is negative or past Python's int-to-str digit limit."""
    if not 0 <= places <= (sys.get_int_max_str_digits() or places):  # 0: no limit
        raise ParameterError(f"cannot write a value to {places} decimal places")
    q = round(Fraction(value), places)
    scaled = q * 10 ** places
    num = int(scaled)
    sign = "-" if num < 0 else ""
    ip, fp = divmod(abs(num), 10 ** places)
    if places == 0:
        return f"{sign}{ip}"
    return f"{sign}{ip}.{fp:0{places}d}"


def fraction_string(value):
    f = Fraction(value)
    try:
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise ParameterError(f"a {f.numerator.bit_length()}-bit rational is too "
                             f"long to write out in decimal") from None


def read_text(path):
    """The UTF-8 text of a file, without a leading byte-order mark, newlines
    universal; a file that cannot be opened or decoded is a ParseError
    naming it."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(str(exc), filename=path)


def _load_yaml(path, what, keys=None, required=()):
    """The YAML mapping in a file, named what in messages; ParseError unless its
    keys are all in keys (any when None) and include every key in required."""
    stream = io.StringIO(read_text(path))
    stream.name = path  # a ReaderError names the file, not "<unicode string>"
    try:
        doc = yaml.safe_load(stream)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ParseError(str(getattr(exc, "problem", exc)),
                             filename=path, line=mark.line + 1,
                             column=mark.column + 1)
        raise ParseError(str(exc), filename=path)
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a mapping", filename=path)
    unknown = set() if keys is None else set(doc) - keys
    if unknown:
        raise ParseError(f"unknown key {sorted(unknown)[0]!r} in {what}",
                         filename=path)
    for key in required:
        if key not in doc:
            raise ParseError(f"{what} is missing required key {key!r}",
                             filename=path)
    return doc


def _state_labels(value, what, path, length=None):
    """Check a YAML list of state labels."""
    if (not isinstance(value, list) or length not in (None, len(value))
            or not all(is_label(x) for x in value)):
        size = "" if length is None else f"{length} "
        raise ParseError(f"{what} must be a list of {size}state labels, "
                         f"got {value!r}", filename=path)
    return value


def _list_field(doc, key, path):
    value = doc.get(key) or []
    if not isinstance(value, list):
        raise ParseError(f"{key} must be a list, got {value!r}", filename=path)
    return value


def _field(doc, key, path, want, ok, default=None):
    """doc[key], or default when the key is absent; ParseError unless
    ok(value), saying that key must be want."""
    value = doc.get(key, default)
    if not ok(value):
        raise ParseError(f"{key} must be {want}, got {value!r}", filename=path)
    return value


def parse_model_spec(path):
    """Read a model spec file.

    Keys: states (list of labels), k, n, and optionally homogeneous,
    forbid (list of [from, to] pairs), absorbing (list of states),
    initial (list of states for k = 1, or of blocks).  Unknown keys,
    values of the wrong type (k or n not an integer, ...) and a
    homogeneous flag that is not a YAML boolean raise ParseError naming
    the file.  Structural violations (k < 1, duplicate states, an
    absorbing state with a forbidden self-loop, ...) surface as
    SpecificationError from the ModelSpec constructor.
    """
    doc = _load_yaml(path, "model spec", MODEL_KEYS, ("states", "k", "n"))
    states = _state_labels(doc["states"], "states", path)
    forbid = [_state_labels(pair, "each forbid entry", path, 2)
              for pair in _list_field(doc, "forbid", path)]
    absorbing = _state_labels(doc.get("absorbing") or [], "absorbing", path)
    initial = doc.get("initial")
    if initial is not None:
        initial = [block if is_label(block)
                   else _state_labels(block, "each initial block", path)
                   for block in _list_field(doc, "initial", path)]
    homogeneous = _field(doc, "homogeneous", path, "true or false",
                         lambda v: isinstance(v, bool), False)
    return ModelSpec(states, _field(doc, "k", path, "an integer", is_integer),
                     _field(doc, "n", path, "an integer", is_integer),
                     forbidden=forbid, absorbing=absorbing, initial=initial,
                     homogeneous=homogeneous)


def _data_lines(path):
    # split("\n"), not splitlines(), which also breaks at \x0c, \x85, ...
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def ingest_trajectories(path, spec):
    """Read a trajectory file and validate it against a spec.

    Each record is a comma-separated list of state labels, optionally
    followed by an integer multiplicity.  The multiplicity is preferred
    as a whitespace-separated final column; a final comma-separated
    token is also accepted as a multiplicity when it is an integer that
    is not a state label.
    """
    records = []
    for lineno, line in _data_lines(path):
        fields = line.split()
        if len(fields) > 2:
            raise ParseError("expected 'path' or 'path count'",
                             filename=path, line=lineno)
        tokens = [t.strip() for t in fields[0].split(",")]
        if any(not t for t in tokens):
            raise ParseError("empty state label", filename=path, line=lineno)
        mult = 1
        if len(fields) == 2:
            try:
                mult = int(fields[1])
            except ValueError:
                raise ParseError(f"multiplicity {fields[1]!r} is not an integer",
                                 filename=path, line=lineno)
        elif tokens[-1] not in spec.states:
            with suppress(ValueError):
                mult, tokens = int(tokens[-1]), tokens[:-1]
        if mult < 1:
            raise ParseError(f"multiplicity must be positive, got {mult}",
                             filename=path, line=lineno)
        records.append((tuple(tokens), mult))
    if not records:
        raise ParseError("no trajectory records found", filename=path)
    return TrajectorySet(tuple(records)).check(spec)


def record_lines(records):
    """One 'comma,joined,path value' line per (path, value) pair."""
    for p, value in records:
        yield f"{','.join(p)} {value}"


def _write_lines(path, lines):
    """Write each line and a newline to a UTF-8 file, one line at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_trajectories(trajs, path):
    _write_lines(path, record_lines(trajs.records))


def _path_values(path, table, what, parse, kind):
    """(path index, value) of each 'path value' line, the value read by parse.

    what names the value in messages, and kind what parse reads.  A
    line without exactly two fields, a path outside the table, a path
    listed twice, or a value that parse rejects or that is negative
    raises ParseError.
    """
    seen = set()
    for lineno, line in _data_lines(path):
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"expected 'path {what}'", filename=path, line=lineno)
        try:
            j = table.index(tuple(t.strip() for t in fields[0].split(",")))
        except InadmissiblePathError as exc:
            raise ParseError(str(exc), filename=path, line=lineno)
        if j in seen:
            raise ParseError(f"duplicate {what} for path {fields[0]}",
                             filename=path, line=lineno)
        seen.add(j)
        try:
            value = parse(fields[1])
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{what} {fields[1]!r} is not {kind}",
                             filename=path, line=lineno)
        if value < 0:
            raise ParseError(f"{what} {fields[1]!r} is negative",
                             filename=path, line=lineno)
        yield j, value


def read_counts(path, table):
    """Read a counts file: 'comma,separated,path count' per line.

    Paths absent from the file count zero; a path listed twice or a
    count that is not a nonnegative integer is an error rather than a
    silent sum or reinterpretation.
    """
    counts = [0] * len(table)
    for j, count in _path_values(path, table, "count", int, "an integer"):
        counts[j] = count
    return CountVector(table, tuple(counts))


def write_counts(counts, path):
    _write_lines(path, record_lines(zip(counts.table, counts.counts)))


def read_probabilities(path, table):
    """Read 'path value' lines into an assignment over the table.

    Values may be rationals like 469/685 or decimal strings; both are
    read exactly.  Paths absent from the file get probability zero; a
    path listed twice or a negative value is an error rather than a
    silent overwrite or reinterpretation.
    """
    out = {j: Fraction(0) for j in range(len(table))}
    out.update(_path_values(path, table, "value", Fraction, "a rational"))
    return out


def write_probabilities(assignment, table, path, decimals=None):
    text = (fraction_string if decimals is None
            else lambda value: decimal_string(value, decimals))
    _write_lines(path, record_lines((p, text(assignment[j]))
                                    for j, p in enumerate(table)))


# ---------------------------------------------------------------------------
# Corpus pipeline


@dataclass(frozen=True)
class CorpusSpec:
    """How to turn raw text into padded trajectories.

    alphabet maps characters, each one that lowercasing leaves unchanged,
    to state labels; pad is the absorbing pad state appended after each
    word.  horizon fixes L, or None takes the longest surviving word.
    Words shorter than min_word_length are dropped; with max_word_length
    set, longer words are excluded before L is chosen.  overlong says
    what to do with words longer than a fixed horizon: "error" or
    "drop".  drop_chars, a string, are removed from words before mapping
    (case is always lowered first), so none may be an alphabet key.
    Labels are stored as strings; any other value, or a min_word_length
    above max_word_length, raises SpecificationError.
    """

    alphabet: dict
    pad: str
    horizon: object = None
    min_word_length: int = 1
    max_word_length: object = None
    overlong: str = "error"
    drop_chars: str = DEFAULT_DROP_CHARS

    def __post_init__(self):
        if not isinstance(self.alphabet, dict):
            raise SpecificationError(f"alphabet must be a mapping, got {self.alphabet!r}")
        for a, b in self.alphabet.items():
            key = str(a)
            if not (is_label(a) and is_label(b) and len(key) == 1 and key.lower() == key):
                raise SpecificationError(
                    f"alphabet must map characters that lowercasing leaves unchanged "
                    f"to state labels, got {a!r}: {b!r}")
        if not is_label(self.pad):
            raise SpecificationError(f"pad must be a state label, got {self.pad!r}")
        if not isinstance(self.drop_chars, str):
            raise SpecificationError(f"drop_chars must be a string, got {self.drop_chars!r}")
        dropped = next((a for a in self.alphabet if str(a) in self.drop_chars), None)
        if dropped is not None:
            raise SpecificationError(f"alphabet key {dropped!r} is also in drop_chars, "
                                     f"which are removed before mapping")
        if self.overlong not in ("error", "drop"):
            raise SpecificationError(
                f"overlong policy must be 'error' or 'drop', got {self.overlong!r}")
        for name, optional in (("horizon", True), ("min_word_length", False),
                               ("max_word_length", True)):
            value = getattr(self, name)
            if not (is_integer(value) or (optional and value is None)):
                raise SpecificationError(
                    f"{name} must be an integer{' or None' if optional else ''}, "
                    f"got {value!r}")
        if self.horizon is not None and self.horizon < 1:
            raise SpecificationError(f"horizon must be positive, got {self.horizon}")
        if self.max_word_length is not None and self.min_word_length > self.max_word_length:
            raise SpecificationError(
                f"min_word_length {self.min_word_length} is above max_word_length "
                f"{self.max_word_length}, so no word can be kept")
        object.__setattr__(self, "alphabet",
                           {str(a): str(b) for a, b in self.alphabet.items()})
        object.__setattr__(self, "pad", str(self.pad))


def letters_alphabet():
    """Identity map on the 26 lowercase letters."""
    return {c: c for c in "abcdefghijklmnopqrstuvwxyz"}


def tokenize_corpus(text, cs):
    """Counter of the words of a lowercased, whitespace-split text, each
    stripped of drop_chars and counted in first-seen order; a word left
    empty is skipped, and Don't and dont share one entry.  A remaining
    unmapped character is a ParseError naming it and the first word of
    the text holding one, so nothing is silently reinterpreted."""
    drop = str.maketrans("", "", cs.drop_chars)
    mapped = cs.alphabet.keys()
    tally = Counter()
    for raw, count in Counter(text.lower().split()).items():
        word = raw.translate(drop)
        unmapped = set(word) - mapped
        if unmapped:
            ch = next(ch for ch in word if ch in unmapped)
            raise ParseError(
                f"character {ch!r} in word {raw!r} is neither mapped nor dropped")
        if word:
            tally[word] += count
    return tally


def corpus_to_trajectories(text, cs, spec=None):
    """Words to pad-completed trajectories of common length L + 1.

    Each surviving word contributes its mapped characters followed by
    pad symbols up to length L + 1, so a word of length exactly L still
    ends with one pad.  Per-word occurrence counts become multiplicities
    in first-seen order.  When a target spec is given, the pad symbol
    must be one of its absorbing states and every trajectory must be
    admissible.
    """
    top = cs.max_word_length
    words = {w: m for w, m in tokenize_corpus(text, cs).items()
             if cs.min_word_length <= len(w) and (top is None or len(w) <= top)}
    if cs.horizon is None:
        L = max(map(len, words), default=0)
    else:
        L = cs.horizon
        over = next((w for w in words if len(w) > L), None)
        if over is not None:
            if cs.overlong == "error":
                raise ParseError(f"word {over!r} has length {len(over)}, horizon is {L}")
            words = {w: m for w, m in words.items() if len(w) <= L}
    if not words:
        raise ParseError("corpus contains no usable words")
    trajs = TrajectorySet(tuple(
        (tuple(map(cs.alphabet.__getitem__, w)) + (cs.pad,) * (L + 1 - len(w)), m)
        for w, m in words.items()))
    if spec is not None:
        if cs.pad not in spec.absorbing:
            raise SpecificationError(
                f"pad symbol {cs.pad!r} is not an absorbing state of the target spec")
        trajs.check(spec)
    return trajs


@dataclass(frozen=True)
class CollapseMap:
    """A surjective relabeling of fine states onto coarse states."""

    mapping: dict

    def apply(self, seq):
        try:
            return tuple(self.mapping[s] for s in seq)
        except KeyError as exc:
            raise SpecificationError(f"collapse map has no image for state {exc}")

    def validate(self, fine_spec, coarse_spec):
        """Check the map against both specs.

        Every fine state needs an image, the image set must cover the
        coarse states, absorbing fine states must land on absorbing
        coarse states, and no allowed fine transition may map onto a
        forbidden coarse one.
        """
        for s in fine_spec.states:
            if s not in self.mapping:
                raise SpecificationError(f"fine state {s!r} has no image")
        image = set(self.mapping.values())
        missing = [s for s in coarse_spec.states if s not in image]
        if missing:
            raise SpecificationError(
                f"collapse map is not surjective: coarse state {missing[0]!r} "
                f"has no preimage")
        for s in fine_spec.absorbing:
            if self.mapping[s] not in coarse_spec.absorbing:
                raise SpecificationError(
                    f"absorbing fine state {s!r} maps to non-absorbing "
                    f"{self.mapping[s]!r}")
        for a, b in sorted(fine_spec.transition_pairs):
            if (self.mapping[a], self.mapping[b]) not in coarse_spec.transition_pairs:
                raise SpecificationError(
                    f"allowed fine transition {a!r} -> {b!r} maps onto forbidden "
                    f"coarse transition {self.mapping[a]!r} -> {self.mapping[b]!r}")


def collapse_states(trajs, cm, coarse_spec, fine_spec=None):
    """Relabel a TrajectorySet through a collapse map.

    With a fine spec supplied, the map is validated against both specs
    first.  Trajectories that collapse to the same sequence merge their
    multiplicities (first-seen order).  The result must be admissible
    under the coarse spec.
    """
    if fine_spec is not None:
        cm.validate(fine_spec, coarse_spec)
    tally = Counter()
    for traj, mult in trajs.records:
        tally[cm.apply(traj)] += mult
    return TrajectorySet(tuple(tally.items())).check(coarse_spec)


def read_corpus_spec(path):
    """Read a corpus config: CorpusSpec's fields as keys, pad required;
    alphabet: letters (the default) stands for letters_alphabet() and
    horizon: max for None.  CorpusSpec checks every value, and its
    SpecificationError becomes a ParseError naming the file."""
    doc = _load_yaml(path, "corpus spec", CORPUS_KEYS, ("pad",))
    if doc.get("alphabet", "letters") == "letters":
        doc["alphabet"] = letters_alphabet()
    if doc.get("horizon") == "max":
        doc["horizon"] = None
    try:
        return CorpusSpec(**doc)
    except SpecificationError as exc:
        raise ParseError(str(exc), filename=path) from None


def read_collapse_map(path):
    doc = _load_yaml(path, "collapse map")
    for a, b in doc.items():
        if not (is_label(a) and is_label(b)):
            raise ParseError(f"collapse map must map state labels to state labels, "
                             f"got {a!r}: {b!r}", filename=path)
    return CollapseMap({str(a): str(b) for a, b in doc.items()})


# ---------------------------------------------------------------------------
# Relation files and JSON output


def relations_to_jsonable(relset):
    def side(terms):
        return [{"path": list(relset.table[i]), "power": e} for i, e in terms]
    return {
        "relations": [
            {"plus": side(b.plus), "minus": side(b.minus),
             "provenance": tag, "text": b.text(relset.table)}
            for b, tag in relset
        ],
        "slice": [list(p) for p in relset.slice_paths],
    }


def _json_lines(obj):
    """The text of dump_json(obj, fh), line by line, without the newlines
    that end them; the encoder puts at most one newline in a chunk."""
    parts = []
    for chunk in json.JSONEncoder(indent=2).iterencode(obj):
        head, newline, tail = chunk.partition("\n")
        parts.append(head)
        if newline:
            yield "".join(parts)
            parts = [tail]
    yield "".join(parts)


def write_relations(relset, path):
    _write_lines(path, _json_lines(relations_to_jsonable(relset)))


def read_relations(path, table):
    """Load a relation file back against a path table.

    Binomials are re-canonicalized on the way in, so a hand-edited file
    cannot smuggle in a non-canonical or degenerate relation.  A
    malformed term, a path that is not a list, a power that is not a
    positive integer, a side whose total degree (repeated terms merged)
    is above MAX_RELATION_DEGREE, a path outside the table, a slice
    entry that is not an inadmissible path of string labels, or a
    provenance that is not a string raises ParseError.
    """
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, filename=path, line=exc.lineno,
                         column=exc.colno)
    except ValueError as exc:  # an integer past Python's int-to-str digit limit
        raise ParseError(str(exc), filename=path)
    if not isinstance(doc, dict) or "relations" not in doc:
        raise ParseError("relation file must contain a 'relations' list",
                         filename=path)

    def path_list(value, what):
        if not isinstance(value, list):
            raise ParseError(f"{what} must be a list of state labels, got {value!r}",
                             filename=path)
        return tuple(value)

    def slice_entry(value):
        entry = path_list(value, "a slice entry")
        if (not all(isinstance(x, str) for x in entry) or entry in table
                or any(len(p) != len(entry) for p in table[:1])):
            raise ParseError(f"a slice entry must be an inadmissible path of string "
                             f"labels, got {value!r}", filename=path)
        return entry

    def side(terms):
        out = {}
        for term in terms:
            j = table.index(path_list(term["path"], "a term's path"))
            power = _field(term, "power", path, "a positive integer",
                           lambda v: is_integer(v) and v >= 1, 1)
            out[j] = out.get(j, 0) + power
        degree = sum(out.values())
        if degree > MAX_RELATION_DEGREE:
            raise ParseError(f"a relation side has degree {degree}, above the "
                             f"limit {MAX_RELATION_DEGREE}", filename=path)
        return out

    try:
        sides = [(side(rec["plus"]), side(rec["minus"]))
                 for rec in doc["relations"]]
        tags = tuple(_field(rec, "provenance", path, "a string",
                            lambda v: isinstance(v, str), "file")
                     for rec in doc["relations"])
        slice_paths = tuple(slice_entry(p) for p in doc.get("slice", []))
    except InadmissiblePathError as exc:
        raise ParseError(str(exc), filename=path) from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed relation file: {exc!r}",
                         filename=path) from None
    binomials = tuple(canonicalize(plus, minus) for plus, minus in sides)
    return RelationSet(table, binomials, tags, slice_paths)


def dump_json(obj, fh):
    json.dump(obj, fh, indent=2)
    fh.write("\n")
