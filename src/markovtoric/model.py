"""Core objects for discrete-time multistate Markov chains of finite order.

A model is described by a finite set of state labels, a memory order k,
a path length n, transition rules (forbidden pairs and absorbing states)
that give the allowed successor states after each length-k history, and
a set of allowed initial k-blocks.  Transition probabilities either vary
with the time index (nonhomogeneous) or are shared across all steps
(homogeneous).

The probability of an admissible path (i_1, ..., i_n) factors as the
initial-block probability of (i_1, ..., i_k) times one transition factor
per position l in {k+1, ..., n}, where the factor for position l is
indexed by the window (i_{l-k}, ..., i_l).  Time indices follow that
convention throughout: level l labels the transition INTO position l.

Parameter symbols are tuples:

    ("pi", block)                   initial-block weight
    ("a", level, history, state)    transition entry, level None if pooled

State labels are opaque strings; every ordering used in the package is
the declaration order of the states, not the lexicographic order of the
label text.
"""

from fractions import Fraction

from .errors import (
    EstimationError,
    InadmissiblePathError,
    ParameterError,
    SpecificationError,
)


def is_integer(x):
    """Whether x is an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_label(x):
    """Whether x can be a state label: a string, or an int that is not a bool."""
    return isinstance(x, str) or is_integer(x)


def _as_label(x):
    if not is_label(x):
        raise SpecificationError(
            f"state label must be a string or an integer, got {x!r}")
    return str(x)


def _as_block(x, k):
    if isinstance(x, (list, tuple)):
        block = tuple(_as_label(s) for s in x)
    else:
        block = (_as_label(x),)
    if len(block) != k:
        raise SpecificationError(
            f"initial block {block} has length {len(block)}, expected {k}")
    return block


def as_fraction(value):
    """Coerce a number to an exact Fraction.

    Accepts int, Fraction, and strings such as "3/7" or "0.55".  Floats
    are rejected because their binary representation silently changes
    the intended value.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParameterError(f"cannot read {value!r} as a rational: {exc}")
    if isinstance(value, float):
        raise ParameterError(
            f"refusing float {value!r}; pass a string or Fraction for exactness")
    raise ParameterError(f"cannot read {value!r} as a rational")


class ModelSpec:
    """A k-th order multistate Markov chain on paths of length n.

    Instances are immutable once constructed.  A spec is built from its
    transition rules: forbidden (from, to) pairs, absorbing states and
    the allowed initial k-blocks.  Every other structure (allowed
    pairs, histories, successors) is derived from them.

    Args:
        states: state labels in declaration order.
        order: memory length k, at least 1.
        horizon: path length n, at least order + 1.
        forbidden: iterable of (from_state, to_state) pairs to disallow.
        absorbing: iterable of states whose only successor is themselves.
        initial: allowed initial k-blocks; states may be given directly
            when k = 1.  Defaults to every internally admissible block.
        homogeneous: whether one transition table is shared by all steps.

    Raises:
        SpecificationError: on duplicate states, malformed blocks, an
            absorbing state with its self-loop forbidden, or an initial
            block containing a forbidden step.
    """

    __slots__ = ("states", "order", "horizon", "homogeneous", "absorbing",
                 "_state_index", "_succ", "_histories", "_initial", "_initial_set",
                 "_pairs")

    def __init__(self, states, order, horizon, *, forbidden=(), absorbing=(),
                 initial=None, homogeneous=False):
        states = tuple(_as_label(s) for s in states)
        if not states:
            raise SpecificationError("state set is empty")
        if len(set(states)) != len(states):
            raise SpecificationError(f"duplicate state labels in {states}")
        if not is_integer(order) or order < 1:
            raise SpecificationError(f"order must be an integer >= 1, got {order}")
        if not is_integer(horizon) or horizon < order + 1:
            raise SpecificationError(
                f"horizon must be an integer >= order + 1 = {order + 1}, got {horizon}")
        self.states = states
        self.order = order
        self.horizon = horizon
        self.homogeneous = bool(homogeneous)
        self._state_index = {s: i for i, s in enumerate(states)}

        forbidden = {(_as_label(a), _as_label(b)) for a, b in forbidden}
        absorbing = tuple(_as_label(s) for s in absorbing)
        for a, b in forbidden:
            self._require_state(a)
            self._require_state(b)
        for s in absorbing:
            self._require_state(s)
            if (s, s) in forbidden:
                raise SpecificationError(
                    f"absorbing state {s!r} has its self-transition forbidden")
        self._pairs = pairs = frozenset(
            (a, b) for a in states for b in states
            if (a, b) not in forbidden and (a not in absorbing or b == a))
        self.absorbing = absorbing
        self._histories = tuple(self._admissible_blocks(pairs))
        self._succ = {
            h: tuple(b for b in states if (h[-1], b) in pairs)
            for h in self._histories
        }

        if initial is None:
            self._initial = self._histories
        else:
            blocks = tuple(_as_block(b, order) for b in initial)
            if len(set(blocks)) != len(blocks):
                raise SpecificationError("duplicate initial blocks")
            for b in blocks:
                if b not in self._succ:
                    raise SpecificationError(
                        f"initial block {b} contains a forbidden step or unknown history")
            self._initial = tuple(sorted(blocks, key=self.block_key))
        if not self._initial:
            raise SpecificationError("no admissible initial block")
        self._initial_set = frozenset(self._initial)

    def _require_state(self, s):
        if s not in self._state_index:
            raise SpecificationError(f"unknown state label {s!r}")

    def _admissible_blocks(self, pairs):
        # Length-k blocks whose internal steps are all allowed, in
        # declaration-lexicographic order.
        blocks = [()]
        for _ in range(self.order):
            blocks = [b + (s,) for b in blocks for s in self.states
                      if not b or (b[-1], s) in pairs]
        return blocks

    @property
    def histories(self):
        return self._histories

    @property
    def initial_blocks(self):
        """Allowed initial k-blocks in declaration-lexicographic order."""
        return self._initial

    @property
    def transition_pairs(self):
        """Set of (state, state) pairs realized by some allowed transition."""
        return self._pairs

    def block_key(self, block):
        """Sort key placing blocks in declaration-lexicographic order."""
        return tuple(self._state_index[s] for s in block)

    def successors(self, history):
        """Allowed next states after a length-k history (empty if none)."""
        return self._succ.get(tuple(history), ())

    def check_sequence(self, seq):
        """Check that seq is an admissible path and return its parameter symbols.

        Returns the factors of the path's probability monomial, in
        order: [("pi", initial block)] followed by ("a", level, history,
        next) for each level l in k+1..n, level None when homogeneous.
        Raises InadmissiblePathError, naming the first fault, unless seq
        is admissible.
        """
        seq = tuple(seq)
        for pos, s in enumerate(seq, start=1):
            if s not in self._state_index:
                raise InadmissiblePathError(
                    f"unknown state label {s!r} at position {pos}")
        if len(seq) != self.horizon:
            raise InadmissiblePathError(
                f"path has length {len(seq)}, expected horizon {self.horizon}")
        k = self.order
        if seq[:k] not in self._initial_set:
            raise InadmissiblePathError(
                f"initial block {seq[:k]} is not allowed")
        symbols = [("pi", seq[:k])]
        for level in range(k + 1, len(seq) + 1):
            hist = seq[level - k - 1:level - 1]
            nxt = seq[level - 1]
            if nxt not in self._succ.get(hist, ()):
                raise InadmissiblePathError(
                    f"transition {hist} -> {nxt!r} into position {level} is forbidden")
            symbols.append(("a", None if self.homogeneous else level, hist, nxt))
        return symbols

    def with_horizon(self, horizon):
        """The same rules over paths of another length; self if unchanged."""
        if horizon == self.horizon:
            return self
        return self._rebuild(horizon, self.homogeneous)

    def _rebuild(self, horizon, homogeneous):
        return ModelSpec(self.states, self.order, horizon,
                         forbidden=[(a, b) for a in self.states for b in self.states
                                    if (a, b) not in self._pairs],
                         absorbing=self.absorbing, initial=self._initial,
                         homogeneous=homogeneous)

    def levels(self):
        """Transition levels: (k+1, ..., n) or (None,) when homogeneous."""
        if self.homogeneous:
            return (None,)
        return tuple(range(self.order + 1, self.horizon + 1))

    def rows(self):
        """Parameter symbols grouped by simplex row, in symbols() order.

        The first row holds the ("pi", block) symbols of the initial
        blocks; one row of ("a", level, history, next) symbols follows
        per (level, history) that has successors, by level and then
        history, its entries in declaration order of the next state.
        """
        rows = [tuple(("pi", b) for b in self._initial)]
        for level in self.levels():
            for h in self._histories:
                if self._succ[h]:
                    rows.append(tuple(("a", level, h, s) for s in self._succ[h]))
        return tuple(rows)

    def symbols(self):
        """All parameter symbols in canonical order: the rows() flattened,
        so pi blocks, then transition entries by (level, history, next)."""
        return tuple(sym for row in self.rows() for sym in row)

    def __repr__(self):
        kind = "homogeneous" if self.homogeneous else "nonhomogeneous"
        return (f"ModelSpec(states={list(self.states)}, order={self.order}, "
                f"horizon={self.horizon}, {kind})")


def format_symbol(sym):
    """Render a parameter symbol compactly, e.g. pi_01, a_00, a3_01."""
    if sym[0] == "pi":
        return "pi_" + _join(sym[1])
    _, level, hist, nxt = sym
    tag = "a" if level is None else f"a{level}"
    return f"{tag}_{_join(hist + (nxt,))}"


def _join(labels):
    if all(len(s) == 1 for s in labels):
        return "".join(labels)
    return ",".join(labels)


_ZERO = Fraction(0)  # the value of an absent entry; Fractions are immutable


class ParameterPoint:
    """Exact rational parameter values for a ModelSpec.

    Attributes:
        values: mapping from parameter symbol, ("pi", block) or ("a",
            level, history, next) with level None for homogeneous
            models, to Fraction.  An absent symbol reads as zero.
        undefined: (level, history) rows that have no value, such as an
            estimate's never-visited rows.  Undefined is not zero.
    """

    __slots__ = ("values", "undefined")

    def __init__(self, values, undefined=frozenset()):
        self.values = {sym: as_fraction(v) for sym, v in values.items()}
        self.undefined = frozenset((level, tuple(h)) for level, h in undefined)

    @property
    def pi(self):
        """Read-only view {block: value} of the initial-block values.

        Kept, with trans, only because the benchmark's workloads read
        these two views; they go when its pinned digests are re-pinned.
        """
        return {sym[1]: v for sym, v in self.values.items() if sym[0] == "pi"}

    @property
    def trans(self):
        """Read-only view {(level, history, next): value} of the
        transition values; see pi."""
        return {sym[1:]: v for sym, v in self.values.items() if sym[0] == "a"}

    def __repr__(self):
        return (f"{type(self).__name__}(values={self.values!r}, "
                f"undefined={set(self.undefined)!r})")


def uniform_parameters(spec):
    """The uniform parameter point: equal weight on every allowed entry."""
    return ParameterPoint(
        {sym: Fraction(1, len(row)) for row in spec.rows() for sym in row})


def validate_model(spec):
    """Check a ModelSpec for dead ends and unreachable structure.

    Returns:
        A list of (severity, message) pairs where severity is "error"
        or "warning".  An empty list, or a list of warnings only, means
        the spec is usable by every other operation.

    A reachable history with no allowed successor strictly before the
    horizon is an error: paths through it cannot be completed.  States
    appearing in no admissible path are warnings.
    """
    findings = []
    # Earliest position (1-based, position of the block's last state) at
    # which each history block can occur.
    earliest = {}
    frontier = {b: spec.order for b in spec.initial_blocks}
    while frontier:
        nxt_frontier = {}
        for block, pos in frontier.items():
            if block in earliest and earliest[block] <= pos:
                continue
            earliest[block] = pos
            if pos >= spec.horizon:
                continue
            succ = spec.successors(block)
            if not succ:
                findings.append((
                    "error",
                    f"history {block} is reachable at position {pos} "
                    f"but has no allowed successor"))
                continue
            for s in succ:
                child = block[1:] + (s,)
                if earliest.get(child, spec.horizon + 1) > pos + 1:
                    nxt_frontier[child] = min(
                        nxt_frontier.get(child, spec.horizon + 1), pos + 1)
        frontier = nxt_frontier
    seen_states = {s for block in earliest for s in block}
    for s in spec.states:
        if s not in seen_states:
            findings.append(("warning", f"state {s!r} appears in no admissible path"))
    return findings


def validate_parameters(spec, params):
    """Check a ParameterPoint against a ModelSpec.

    Returns a list of violation messages; empty means valid.  Valid
    means: entries only on allowed blocks and transitions, all entries
    nonnegative, no undefined row, the initial row and every history
    row at every level summing to exactly 1.  An absorbing
    self-transition is forced to 1 by its row sum, since it is the
    row's only allowed entry.  Entry problems come first, in the order
    of params.values, then row problems in spec.rows() order.
    """
    problems = []
    allowed = set(spec.symbols())
    level_set, hist_set = set(spec.levels()), set(spec.histories)
    for sym, v in params.values.items():
        if sym in allowed:
            if v < 0:
                where = (f"pi[{sym[1]}]" if sym[0] == "pi"
                         else f"a[{sym[1]}, {sym[2]}, {sym[3]!r}]")
                problems.append(f"{where} = {v} is negative")
        elif sym[0] == "pi":
            problems.append(f"pi has an entry on disallowed block {sym[1]}")
        elif sym[1] not in level_set or sym[2] not in hist_set:
            problems.append(f"transition entry on unknown row "
                            f"(level={sym[1]}, history={sym[2]})")
        elif v != 0:
            problems.append(f"nonzero value {v} on forbidden transition "
                            f"{sym[2]} -> {sym[3]!r}"
                            + ("" if sym[1] is None else f" at level {sym[1]}"))
    for row in spec.rows():
        name = "pi"
        if row[0][0] == "a":
            name = f"row (level={row[0][1]}, history={row[0][2]})"
            if row[0][1:3] in params.undefined:
                problems.append(f"{name} is undefined")
                continue
        total = sum((params.values.get(sym, _ZERO) for sym in row), _ZERO)
        if total != 1:
            problems.append(f"{name} sums to {total}, expected 1")
    return problems


def path_probability(spec, params, path):
    """Exact probability of an admissible path under a parameter table:
    the product of params.values over check_sequence's symbols.

    Factors are read left to right, and the product stops at the first
    zero: later rows are never read, so a zero factor before an
    undefined row gives 0.  The caller is responsible for parameter
    validity; no normalization check is performed here, so tables
    rounded for display can be fed through unchanged.

    Raises:
        InadmissiblePathError: if the path is not admissible.
        EstimationError: if the path reaches an undefined row while
            its product is still nonzero.
    """
    values, undefined = params.values, params.undefined
    first, *factors = spec.check_sequence(path)
    value = values.get(first, _ZERO)
    for sym in factors:
        if not value:
            break
        if sym[1:3] in undefined:
            raise EstimationError(f"row (level={sym[1]}, history={sym[2]}) "
                                  f"is undefined (its history has zero weight)")
        value *= values.get(sym, _ZERO)
    return value
