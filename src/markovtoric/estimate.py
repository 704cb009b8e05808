"""Closed-form maximum likelihood estimation from trajectory or count data.

The MLE of each parameter symbol is its tallied weight over the weight
of its row, keyed by the symbols check_sequence gives a path (the
design-matrix row symbols).  These are the exact maximizers of the
multinomial path likelihood, kept as exact rationals; rounding happens
only in reporting.  An inadmissible analysed prefix is an
InadmissiblePathError naming its record.

A row of zero weight has an undefined estimate (0/0).  Undefined is not
zero: such rows are tracked explicitly and surface either as flags or
as errors when a requested quantity actually depends on them.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import EstimationError, InadmissiblePathError, ParameterError, RelationError
from .model import ParameterPoint, _assignment, _join, is_integer, path_probability
from .paths import _spec_table

PREFIX = "prefix"
SLIDE = "slide"


def _as_int(value, what):
    """value if it is an int (not a bool), else EstimationError naming it."""
    if not is_integer(value):
        raise EstimationError(f"{what} {value!r} is not an integer")
    return value


@dataclass(frozen=True)
class TrajectorySet:
    """Observed state sequences with multiplicities.

    records is a tuple of (trajectory, multiplicity) pairs; all
    trajectories share one length and multiplicities are positive.
    Multiplicities stay symbolic: counting operations weight by them
    instead of materializing repeats.
    """

    records: tuple

    def __post_init__(self):
        records = tuple((tuple(t), m) for t, m in self.records)
        mults = [m for _, m in records]
        if not all(map(is_integer, mults)):
            _as_int(next(m for m in mults if not is_integer(m)), "multiplicity")
        object.__setattr__(self, "records", records)
        if not records:
            raise EstimationError("empty trajectory set")
        lengths = {len(t) for t, _ in records}
        if len(lengths) != 1:
            raise EstimationError(f"ragged trajectory lengths {sorted(lengths)}")
        if min(mults) < 1:
            raise EstimationError("multiplicities must be positive")

    @property
    def length(self):
        return len(self.records[0][0])

    @property
    def total(self):
        return sum(m for _, m in self.records)

    def check(self, spec):
        """Validate every record against spec's rules at this set's length,
        as a fit tallies it: a bad record is _tally's "record N: ..." text."""
        if self.length < spec.order + 1:
            raise EstimationError(f"trajectory length {self.length} is shorter "
                                  f"than order + 1 = {spec.order + 1}")
        try:
            _tally(spec.with_horizon(self.length), self.records)
        except InadmissiblePathError as exc:
            raise EstimationError(str(exc)) from exc
        return self

    @classmethod
    def from_sequences(cls, sequences):
        """Aggregate an iterable of raw sequences, preserving first-seen order."""
        return cls(tuple(Counter(map(tuple, sequences)).items()))

    @classmethod
    def from_counts(cls, counts):
        """Logical expansion of a CountVector into full-horizon trajectories."""
        return cls(tuple((p, c) for p, c in zip(counts.table, counts.counts) if c > 0))


@dataclass(frozen=True)
class CountVector:
    """Path counts aligned with a PathTable."""

    table: object
    counts: tuple

    def __post_init__(self):
        counts = tuple(_as_int(c, "count") for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if len(counts) != len(self.table):
            raise EstimationError(
                f"count vector has length {len(counts)}, table has {len(self.table)}")
        if any(c < 0 for c in counts):
            raise EstimationError("counts must be nonnegative")

    @property
    def total(self):
        return sum(self.counts)

    def __getitem__(self, i):
        return self.counts[i]


def _resolve_horizon(trajs, spec, n):
    """n, by default the shorter of the spec's n and the trajectory length."""
    n = min(spec.horizon, trajs.length) if n is None else _as_int(n, "n")
    if n < spec.order + 1:
        raise EstimationError(f"n = {n} is shorter than order + 1")
    if n > trajs.length:
        raise EstimationError(f"n = {n} exceeds the trajectory length {trajs.length}")
    return n


def _prefix_weights(records, n):
    """The summed weight of each distinct seq[:n] of (sequence, weight)
    records, as (prefix, weight) pairs in first-seen order.  Records of
    length n cannot merge, so they are returned as they are."""
    if len(records[0][0]) <= n:
        return records
    weights = {}
    for seq, weight in records:
        prefix = seq[:n]
        weights[prefix] = weights.get(prefix, 0) + weight
    return weights.items()


def counts_from_trajectories(trajs, spec, n=None, table=None):
    """Count each admissible length-n prefix path of the data.

    Length-n analysis of longer trajectories deliberately reads the
    prefix window (positions 1..n), not sliding windows.  The result is
    indexed by the spec's path table at horizon n, one lookup per distinct
    prefix; _tally names a bad record, else a failed lookup's error stands.
    """
    n = _resolve_horizon(trajs, spec, n)
    table = _spec_table(spec.with_horizon(n), table)
    counts = [0] * len(table)
    try:
        for prefix, mult in _prefix_weights(trajs.records, n):
            counts[table.index(prefix)] += mult
    except (TypeError, InadmissiblePathError):  # _tally names a bad record
        _tally(spec.with_horizon(n), trajs.records)
        raise
    return CountVector(table, tuple(counts))


class EstimateReport(ParameterPoint):
    """A fitted ParameterPoint with provenance of how it was tallied.

    Its values hold every symbol of each row that has weight, zeros
    included, and an absent symbol reads as zero.  Its undefined rows
    are the (level, history) rows whose visit count was zero; undefined
    is not zero.  kind is "nonhomogeneous" or "homogeneous"; total is
    the number of trajectories; horizon is the prefix length the
    tallies used; window records whether pooled tallies used the prefix
    or every window of longer trajectories.
    """

    __slots__ = ("kind", "order", "horizon", "total", "window")

    def __init__(self, point, kind, order, horizon, total, window=PREFIX):
        super().__init__(point.values, point.undefined)
        self.kind = kind
        self.order = order
        self.horizon = horizon
        self.total = total
        self.window = window


def _tally(spec, records):
    """Each parameter symbol's summed weight over (sequence, weight)
    records, keyed as check_sequence keys positions 1..spec.horizon, and
    each symbol's row total over spec.rows().  Levels run from n down to
    k over the distinct prefixes of that level's length: each level reads
    its initial block or (k+1)-window from the end of every distinct
    length-l prefix, summed by weight, and folds those prefixes into the
    distinct length-(l-1) prefixes of the next level; each distinct
    window is made a symbol once.  If that fails, the first record that
    check_sequence refuses is named "record N: ..."; else the error stands."""
    k, n = spec.order, spec.horizon
    weights = {}
    try:
        prefixes = _prefix_weights(records, n)
        for level in range(n, k - 1, -1):
            lo = max(level - k - 1, 0)
            sums, shorter = {}, {}
            for prefix, weight in prefixes:
                window = prefix[lo:]
                sums[window] = sums.get(window, 0) + weight
                head = prefix[:-1]
                shorter[head] = shorter.get(head, 0) + weight
            prefixes = shorter.items()
            pooled = None if spec.homogeneous else level
            for window, weight in sums.items():
                key = ("pi", window) if level == k else ("a", pooled, window[:k], window[k])
                weights[key] = weights.get(key, 0) + weight
        if not weights.keys() <= set(spec.symbols()):
            raise EstimationError("tallied a key that is not a parameter symbol")
    except Exception:  # it stands only when every record passes
        for num, (seq, _) in enumerate(records, start=1):
            try:
                spec.check_sequence(seq[:n])
            except InadmissiblePathError as exc:
                raise InadmissiblePathError(f"record {num}: {exc}") from exc
        raise
    totals = {}
    for row in spec.rows():
        totals.update(dict.fromkeys(row, sum(weights.get(sym, 0) for sym in row)))
    return weights, totals


def _conditionals(spec, records):
    """The ParameterPoint of weighted records: each symbol's weight over
    its row's weight.  A row of zero weight is undefined, never zero."""
    weights, totals = _tally(spec, records)
    values = {sym: Fraction(weights.get(sym, 0), t) for sym, t in totals.items() if t}
    undefined = {sym[1:3] for sym, t in totals.items() if not t}
    return ParameterPoint(values, undefined)


def mle_nonhomogeneous(trajs, spec, n=None):
    """Per-time conditional frequencies: the exact nonhomogeneous MLE.

    For each level l the estimate of a^(l)[h, s] is the number of
    trajectories showing history h at positions l-k..l-1 followed by s,
    divided by the number showing h there at all.  The initial-block
    distribution is the empirical frequency of the first k states.
    """
    if spec.homogeneous:
        raise EstimationError("spec is homogeneous; use mle_homogeneous")
    n = _resolve_horizon(trajs, spec, n)
    return EstimateReport(_conditionals(spec.with_horizon(n), trajs.records),
                          "nonhomogeneous", spec.order, n, trajs.total)


def mle_homogeneous(trajs, spec, n=None, window=PREFIX):
    """Pooled window frequencies: the exact homogeneous MLE.

    Transition tallies pool every level's windows into one table.  With
    window="prefix" only windows inside the first n positions count;
    window="slide" pools over the full trajectory length regardless of
    n.  The two agree when n is the trajectory length.  n defaults to
    the shorter of the spec's n and the trajectory length.
    """
    if not spec.homogeneous:
        raise EstimationError("spec is nonhomogeneous; use mle_nonhomogeneous")
    if window not in (PREFIX, SLIDE):
        raise EstimationError(f"unknown window mode {window!r}")
    n = _resolve_horizon(trajs, spec, n)
    last = trajs.length if window == SLIDE else n
    return EstimateReport(_conditionals(spec.with_horizon(last), trajs.records),
                          "homogeneous", spec.order, n, trajs.total, window)


def fitted_path_probabilities(report, spec, table):
    """Push fitted parameters through the parametrization: p_hat = phi(theta_hat).

    Each path goes through path_probability, so a zero factor before an
    undefined row gives 0.  A path that still needs an undefined row
    while carrying positive mass has no well-defined fitted probability,
    and that is an error naming the first few such paths.

    Returns {path index: Fraction} over the table.
    """
    hom = report.kind == "homogeneous"
    if hom != spec.homogeneous:
        raise EstimationError(
            f"report is {report.kind} but the spec is not")
    if not hom and report.horizon != spec.horizon:
        raise EstimationError(
            f"nonhomogeneous report was tallied at horizon {report.horizon}, "
            f"spec needs {spec.horizon}")
    out = {}
    blocked = []
    for j, path in enumerate(table):
        try:
            out[j] = path_probability(spec, report, path)
        except EstimationError:
            blocked.append(path)
    if blocked:
        labels = ", ".join(_join(p) for p in blocked[:5])
        raise EstimationError(
            f"{len(blocked)} paths with positive mass need an undefined row "
            f"(first few: {labels})")
    return out


def mle_paths_hierarchical(u, spec, table=None):
    """Closed-form path MLE from positional window marginals of the counts.

    For the nonhomogeneous model the fitted probability of a path
    factors over its windows:

        p_hat = prod_l count(window of level l) /
                (M * prod_l count(history of level l))

    with numerators over the n-k windows of levels k+1..n and
    denominators over the n-k-1 histories of levels k+2..n.  Marginals
    are summed over the spec's own path table.  A path whose
    denominator vanishes gets None (undefined), never zero.
    """
    if spec.homogeneous:
        raise EstimationError(
            "hierarchical path formula applies to nonhomogeneous specs; "
            "pool with mle_homogeneous instead")
    table = _spec_table(spec, table)
    if u.table != table:
        raise EstimationError("count vector is indexed by a different table")
    if not (M := u.total):
        raise EstimationError("empty count vector")
    factors_of = [spec.check_sequence(path)[1:] for path in table]
    weights, totals = _tally(
        spec, [(path, c) for path, c in zip(table, u.counts) if c])
    out = {}
    for j, factors in enumerate(factors_of):
        num = math.prod(weights.get(f, 0) for f in factors)
        den = M * math.prod(totals[f] for f in factors[1:])
        out[j] = Fraction(num, den) if den != 0 else None
    return out


def _scaled(q):
    """(L, [L * x for x in q]) as ints, L the lcm of the denominators of
    the Fractions q."""
    L = math.lcm(*(x.denominator for x in q))
    return L, [x.numerator * (L // x.denominator) for x in q]


@dataclass(frozen=True)
class Recovery:
    """Parameters recovered from a path-probability assignment.

    The undefined rows of params are the (level, history) rows whose
    conditioning marginal was zero.  inconsistencies is nonempty exactly
    when a homogeneous recovery found two time windows giving different
    exact ratios for the same pooled entry, i.e. when the assignment
    lies outside the homogeneous model; each record carries both
    conflicting ratios.
    """

    params: ParameterPoint
    inconsistencies: tuple = ()

    @property
    def consistent(self):
        return not self.inconsistencies


@dataclass(frozen=True)
class RatioConflict:
    history: tuple
    next_state: str
    level_a: int
    ratio_a: Fraction
    level_b: int
    ratio_b: Fraction


def recover_parameters(p, spec, table=None):
    """Invert the parametrization by marginal ratios.

    The initial distribution is the first-k marginal of p (normalized by
    its total).  Each transition entry is the conditional marginal ratio

        a^(l)[h, s] = p(window l-k..l = h,s) / p(window l-k..l-1 = h).

    Homogeneous specs take the ratio from the first level whose history
    marginal is positive and compare it against every other level
    exactly; disagreement is reported, not averaged, because it means p
    is not in the model.  When p = phi(theta) for valid theta, the
    recovered point reproduces p under phi exactly.  p is read by
    model._assignment and scaled by L, the lcm of its denominators, so
    the tally sums integer weights; marginal ratios do not change under
    scaling, so neither does any value or RatioConflict.
    """
    table = _spec_table(spec, table)
    records = list(zip(table, _scaled(_assignment(p, len(table)))[1]))
    if not any(weight for _, weight in records):
        raise ParameterError("assignment sums to zero; nothing to recover")
    if not spec.homogeneous:
        return Recovery(_conditionals(spec, records))

    twin = spec._rebuild(spec.horizon, homogeneous=False)
    point = _conditionals(twin, records)
    rows = spec.rows()
    values = {sym: point.values[sym] for sym in rows[0]}
    pooled_undefined, conflicts = set(), []
    for row in rows[1:]:
        h = row[0][2]
        defined = [level for level in twin.levels()
                   if (level, h) not in point.undefined]
        if not defined:
            pooled_undefined.add((None, h))
        for level in defined:
            for sym in row:
                r = point.values[("a", level, h, sym[3])]
                witness = values.setdefault(sym, r)
                if r != witness:
                    conflicts.append(RatioConflict(h, sym[3], defined[0], witness,
                                                   level, r))
    return Recovery(ParameterPoint(values, pooled_undefined), tuple(conflicts))


def birch_residual(p, u, design):
    """Exact residual of the Birch equations: M * A p - A u.

    Zero at p exactly when the assignment matches the data's sufficient
    statistics (after scaling counts to total mass M).  Every p_j is read
    by model._assignment; with L the lcm of their denominators, the integer
    vector M * L * p - L * u goes through one sparse product and each
    row is divided by L.  One Fraction per design-matrix row, in row
    order.  An all-zero count vector is an EstimationError.
    """
    table = design.table
    if u.table != table:
        raise RelationError("count vector and design matrix tables differ")
    if not (M := u.total):
        raise EstimationError("empty count vector")
    L, weights = _scaled(_assignment(p, len(table)))
    v = {j: M * w - L * c for j, (w, c) in enumerate(zip(weights, u.counts))}
    return tuple(Fraction(x, L) for x in design.apply(v))


def loglikelihood(p, u):
    """Multinomial log-likelihood sum_i u_i log p_i (natural log, float).

    Zero-count paths add nothing and their p_i is unread; model._assignment
    reads the rest.  A positive count on p_i = 0 gives -inf; p_i = 1 adds
    exactly 0, whatever its count; past float range is an EstimationError.
    """
    support = [j for j, c in enumerate(u.counts) if c]
    if 0 in (qs := _assignment(p, len(u.counts), support)):
        return float("-inf")
    total = 0.0
    try:
        for j, q in zip(support, qs):
            if q != 1:
                total += u.counts[j] * (math.log(q.numerator) - math.log(q.denominator))
    except OverflowError:  # a count past float range
        total = math.nan
    if not math.isfinite(total):
        raise EstimationError("the log-likelihood is past float range")
    return total
