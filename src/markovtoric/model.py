"""Core objects for discrete-time multistate Markov chains of finite order.

A model is described by a finite set of state labels, a memory order k,
a path length n, a rule giving the allowed successor states after each
length-k history, and a set of allowed initial k-blocks.  Transition
probabilities either vary with the time index (nonhomogeneous) or are
shared across all steps (homogeneous).

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
    InadmissiblePathError,
    ParameterError,
    SpecificationError,
)

Block = tuple
PathT = tuple
Symbol = tuple


def _as_label(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, bool)):
        return str(x)
    raise SpecificationError(f"state label must be a string, got {x!r}")


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

    Instances are immutable once constructed.  Build either from
    pairwise transition rules (forbidden pairs plus absorbing states)
    or from an explicit mapping of length-k histories to their allowed
    successor states.

    Args:
        states: state labels in declaration order.
        order: memory length k, at least 1.
        horizon: path length n, at least order + 1.
        forbidden: iterable of (from_state, to_state) pairs to disallow.
        absorbing: iterable of states whose only successor is themselves.
        initial: allowed initial k-blocks; states may be given directly
            when k = 1.  Defaults to every internally admissible block.
        allowed: explicit mapping from history blocks to successor
            sequences.  Mutually exclusive with forbidden/absorbing.
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
                 initial=None, allowed=None, homogeneous=False):
        states = tuple(_as_label(s) for s in states)
        if not states:
            raise SpecificationError("state set is empty")
        if len(set(states)) != len(states):
            raise SpecificationError(f"duplicate state labels in {states}")
        if not isinstance(order, int) or order < 1:
            raise SpecificationError(f"order must be an integer >= 1, got {order}")
        if not isinstance(horizon, int) or horizon < order + 1:
            raise SpecificationError(
                f"horizon must be an integer >= order + 1 = {order + 1}, got {horizon}")
        self.states = states
        self.order = order
        self.horizon = horizon
        self.homogeneous = bool(homogeneous)
        self._state_index = {s: i for i, s in enumerate(states)}

        if allowed is not None and (tuple(forbidden) or tuple(absorbing)):
            raise SpecificationError(
                "pass either an explicit allowed mapping or forbidden/absorbing rules, not both")

        if allowed is not None:
            succ = {}
            for hist, nxts in allowed.items():
                h = _as_block(hist, order)
                for s in h:
                    self._require_state(s)
                ns = tuple(_as_label(s) for s in nxts)
                for s in ns:
                    self._require_state(s)
                if len(set(ns)) != len(ns):
                    raise SpecificationError(f"duplicate successors for history {h}")
                succ[h] = tuple(sorted(ns, key=self._state_index.__getitem__))
            self._succ = succ
            self._histories = tuple(sorted(succ, key=self.block_key))
            self._pairs = frozenset(
                (h[-1], s) for h, ns in succ.items() for s in ns)
            self.absorbing = tuple(
                s for s in states
                if succ.get((s,) * order, None) == (s,))
        else:
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
            pairs = set()
            for a in states:
                for b in states:
                    if (a, b) in forbidden:
                        continue
                    if a in absorbing and b != a:
                        continue
                    pairs.add((a, b))
            self._pairs = frozenset(pairs)
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

    # Short aliases used heavily in formulas.
    @property
    def k(self):
        return self.order

    @property
    def n(self):
        return self.horizon

    @property
    def histories(self):
        return self._histories

    @property
    def initial_blocks(self):
        return self._initial

    @property
    def transition_pairs(self):
        """Set of (state, state) pairs realized by some allowed transition."""
        return self._pairs

    def state_index(self, s):
        try:
            return self._state_index[s]
        except KeyError:
            raise InadmissiblePathError(f"unknown state label {s!r}") from None

    def block_key(self, block):
        """Sort key placing blocks in declaration-lexicographic order."""
        return tuple(self._state_index[s] for s in block)

    def successors(self, history):
        """Allowed next states after a length-k history (empty if none)."""
        return self._succ.get(tuple(history), ())

    def check_sequence(self, seq, require_horizon=True):
        """Raise InadmissiblePathError unless seq is an admissible path.

        With require_horizon=False the sequence may have any length of
        at least k + 1; transitions and the initial block are still
        checked.
        """
        seq = tuple(seq)
        for pos, s in enumerate(seq, start=1):
            if s not in self._state_index:
                raise InadmissiblePathError(
                    f"unknown state label {s!r} at position {pos}")
        if require_horizon and len(seq) != self.horizon:
            raise InadmissiblePathError(
                f"path has length {len(seq)}, expected horizon {self.horizon}")
        if len(seq) < self.order + 1:
            raise InadmissiblePathError(
                f"sequence of length {len(seq)} is shorter than order + 1 = {self.order + 1}")
        if seq[:self.order] not in self._initial_set:
            raise InadmissiblePathError(
                f"initial block {seq[:self.order]} is not allowed")
        for level in range(self.order + 1, len(seq) + 1):
            hist = seq[level - self.order - 1:level - 1]
            nxt = seq[level - 1]
            if nxt not in self._succ.get(hist, ()):
                raise InadmissiblePathError(
                    f"transition {hist} -> {nxt!r} into position {level} is forbidden")

    def is_admissible(self, path):
        try:
            self.check_sequence(path)
        except InadmissiblePathError:
            return False
        return True

    def unrestricted(self):
        """The companion spec with every transition and initial block allowed."""
        return ModelSpec(self.states, self.order, self.horizon,
                         homogeneous=self.homogeneous)

    def with_horizon(self, horizon):
        """Same model shape over paths of a different length."""
        return ModelSpec(self.states, self.order, horizon,
                         allowed={h: self._succ[h] for h in self._histories},
                         initial=self._initial,
                         homogeneous=self.homogeneous)

    def levels(self):
        """Transition levels: (k+1, ..., n) or (None,) when homogeneous."""
        if self.homogeneous:
            return (None,)
        return tuple(range(self.order + 1, self.horizon + 1))

    def pi_symbols(self):
        return tuple(("pi", b) for b in self._initial)

    def a_symbols(self):
        out = []
        for level in self.levels():
            for h in self._histories:
                for s in self._succ[h]:
                    out.append(("a", level, h, s))
        return tuple(out)

    def symbols(self):
        """All parameter symbols in canonical order: pi blocks, then
        transition entries sorted by (level, history, next state)."""
        return self.pi_symbols() + self.a_symbols()

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


class ParameterPoint:
    """Exact rational parameter values for a ModelSpec.

    Attributes:
        pi: mapping from initial block to Fraction.
        trans: mapping from (level, history, next_state) to Fraction,
            with level None for homogeneous models.
    """

    __slots__ = ("pi", "trans")

    def __init__(self, pi, trans):
        self.pi = {tuple(b): as_fraction(v) for b, v in pi.items()}
        self.trans = {}
        for key, v in trans.items():
            level, hist, nxt = key
            self.trans[(level, tuple(hist), nxt)] = as_fraction(v)

    def initial(self, block):
        return self.pi.get(tuple(block), Fraction(0))

    def transition(self, level, history, nxt):
        return self.trans.get((level, tuple(history), nxt), Fraction(0))

    def value(self, sym):
        """Value of a parameter symbol as produced by ModelSpec.symbols()."""
        if sym[0] == "pi":
            return self.initial(sym[1])
        return self.transition(sym[1], sym[2], sym[3])

    def __repr__(self):
        return f"ParameterPoint(pi={self.pi!r}, trans={self.trans!r})"


def uniform_parameters(spec):
    """The uniform parameter point: equal weight on every allowed entry."""
    m = len(spec.initial_blocks)
    pi = {b: Fraction(1, m) for b in spec.initial_blocks}
    trans = {}
    for level in spec.levels():
        for h in spec.histories:
            succ = spec.successors(h)
            if not succ:
                continue
            for s in succ:
                trans[(level, h, s)] = Fraction(1, len(succ))
    return ParameterPoint(pi, trans)


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
    nonnegative, the initial row and every history row at every level
    summing to exactly 1.  An absorbing self-transition is forced to 1
    by its row sum, since it is the row's only allowed entry.
    """
    problems = []
    allowed_blocks = set(spec.initial_blocks)
    for b, v in params.pi.items():
        if b not in allowed_blocks:
            problems.append(f"pi has an entry on disallowed block {b}")
        elif v < 0:
            problems.append(f"pi[{b}] = {v} is negative")
    total = sum((params.pi.get(b, Fraction(0)) for b in allowed_blocks),
                Fraction(0))
    if total != 1:
        problems.append(f"pi sums to {total}, expected 1")

    level_set = set(spec.levels())
    hist_set = set(spec.histories)
    for (level, h, s), v in params.trans.items():
        if level not in level_set or h not in hist_set:
            problems.append(f"transition entry on unknown row (level={level}, history={h})")
        elif s not in spec.successors(h):
            if v != 0:
                problems.append(
                    f"nonzero value {v} on forbidden transition {h} -> {s!r}"
                    + ("" if level is None else f" at level {level}"))
        elif v < 0:
            problems.append(f"a[{level}, {h}, {s!r}] = {v} is negative")
    for level in spec.levels():
        for h in spec.histories:
            succ = spec.successors(h)
            if not succ:
                continue
            row = sum((params.transition(level, h, s) for s in succ), Fraction(0))
            if row != 1:
                problems.append(
                    f"row (level={level}, history={h}) sums to {row}, expected 1")
    return problems


def require_valid_parameters(spec, params):
    problems = validate_parameters(spec, params)
    if problems:
        raise ParameterError("; ".join(problems))


def path_probability(spec, params, path):
    """Exact probability of an admissible path under a parameter point.

    The caller is responsible for parameter validity; no normalization
    check is performed here, so tables rounded for display can be fed
    through unchanged.

    Raises:
        InadmissiblePathError: if the path is not admissible.
    """
    path = tuple(path)
    spec.check_sequence(path)
    value = params.initial(path[:spec.order])
    for level in range(spec.order + 1, spec.horizon + 1):
        hist = path[level - spec.order - 1:level - 1]
        lv = None if spec.homogeneous else level
        value *= params.transition(lv, hist, path[level - 1])
    return value


def path_probability_extended(spec, params, path):
    """Like path_probability, but inadmissible paths evaluate to 0.

    The path must still have the spec's horizon length and use known
    state labels; only forbidden transitions and disallowed initial
    blocks are silently sent to zero.
    """
    path = tuple(path)
    for s in path:
        spec.state_index(s)
    if len(path) != spec.horizon:
        raise InadmissiblePathError(
            f"path has length {len(path)}, expected horizon {spec.horizon}")
    if not spec.is_admissible(path):
        return Fraction(0)
    return path_probability(spec, params, path)


def symbolic_path_monomial(spec, path):
    """Exponent vector of the path's probability monomial.

    Maps each parameter symbol to its multiplicity in the product
    pi(initial block) * prod_l a(level l window).  Levels are pooled to
    None for homogeneous specs, so repeated windows accumulate.
    """
    path = tuple(path)
    spec.check_sequence(path)
    out = {}
    out[("pi", path[:spec.order])] = 1
    for level in range(spec.order + 1, spec.horizon + 1):
        hist = path[level - spec.order - 1:level - 1]
        lv = None if spec.homogeneous else level
        sym = ("a", lv, hist, path[level - 1])
        out[sym] = out.get(sym, 0) + 1
    return out
