"""Closed-form maximum likelihood estimation from trajectory or count data.

The MLE of each parameter symbol is its tallied weight over the weight
of its row, keyed by the symbols check_sequence gives a path (the
design-matrix row symbols).  These are the exact maximizers of the
multinomial path likelihood, kept as exact rationals; rounding happens
only in reporting.  An inadmissible analysed prefix is an
InadmissiblePathError.

A row of zero weight has an undefined estimate (0/0).  Undefined is not
zero: such rows are tracked explicitly and surface either as flags or
as errors when a requested quantity actually depends on them.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EstimationError, ParameterError, RelationError
from .model import ParameterPoint, _join, is_integer, path_probability
from .paths import enumerate_paths

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
        records = tuple((tuple(t), _as_int(m, "multiplicity")) for t, m in self.records)
        object.__setattr__(self, "records", records)
        if not records:
            raise EstimationError("empty trajectory set")
        lengths = {len(t) for t, _ in records}
        if len(lengths) != 1:
            raise EstimationError(f"ragged trajectory lengths {sorted(lengths)}")
        if any(m < 1 for _, m in records):
            raise EstimationError("multiplicities must be positive")

    @property
    def length(self):
        return len(self.records[0][0])

    @property
    def total(self):
        return sum(m for _, m in self.records)

    def check(self, spec):
        """Validate every record against spec's rules at this set's length,
        reporting the offender."""
        if self.length < spec.order + 1:
            raise EstimationError(f"trajectory length {self.length} is shorter "
                                  f"than order + 1 = {spec.order + 1}")
        spec = spec.with_horizon(self.length)
        for num, (traj, _) in enumerate(self.records, start=1):
            try:
                spec.check_sequence(traj)
            except Exception as exc:
                raise EstimationError(f"record {num}: {exc}") from exc
        return self

    @classmethod
    def from_sequences(cls, sequences):
        """Aggregate an iterable of raw sequences, preserving first-seen order."""
        tally = {}
        for seq in sequences:
            key = tuple(seq)
            tally[key] = tally.get(key, 0) + 1
        return cls(tuple(tally.items()))

    @classmethod
    def from_counts(cls, counts):
        """Logical expansion of a CountVector into full-horizon trajectories."""
        records = [(path, c) for path, c in zip(counts.table, counts.counts) if c > 0]
        return cls(tuple(records))


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


def counts_from_trajectories(trajs, spec, n=None, table=None):
    """Count each admissible length-n prefix path of the data.

    Length-n analysis of longer trajectories deliberately reads the
    prefix window (positions 1..n), not sliding windows.  The result is
    indexed by the path table of the spec at horizon n.
    """
    n = _resolve_horizon(trajs, spec, n)
    if table is None:
        table = enumerate_paths(spec.with_horizon(n))
    counts = [0] * len(table)
    for traj, mult in trajs.records:
        counts[table.index(traj[:n])] += mult
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
    each symbol's row total over spec.rows().  A key that is not a
    design-matrix row symbol sends the records through check_sequence."""
    k = spec.order
    starts = [(None if spec.homogeneous else level, level - k - 1)
              for level in range(k + 1, spec.horizon + 1)]
    # windows become symbols once per key: a 4-tuple per window is slower
    weights, windows = {}, {}
    for seq, weight in records:
        key = ("pi", seq[:k])
        weights[key] = weights.get(key, 0) + weight
        for level, i in starts:
            key = (level, seq[i:i + k], seq[i + k])
            windows[key] = windows.get(key, 0) + weight
    weights.update({("a", *key): w for key, w in windows.items()})
    if not weights.keys() <= set(spec.symbols()):
        for seq, _ in records:
            spec.check_sequence(seq[:spec.horizon])
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
    are summed over the admissible path table.  A path whose
    denominator vanishes gets None (undefined), never zero.
    """
    if spec.homogeneous:
        raise EstimationError(
            "hierarchical path formula applies to nonhomogeneous specs; "
            "pool with mle_homogeneous instead")
    if table is None:
        table = enumerate_paths(spec)
    if u.table is not table and tuple(u.table.paths) != tuple(table.paths):
        raise EstimationError("count vector is indexed by a different table")
    M = u.total
    if M == 0:
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
    recovered point reproduces p under phi exactly.
    """
    if table is None:
        table = enumerate_paths(spec)
    for path in table:
        spec.check_sequence(path)
    missing = [j for j in range(len(table)) if j not in p]
    if missing:
        raise ParameterError(f"assignment missing {len(missing)} path indices "
                             f"(first: {missing[0]})")
    if sum(p[j] for j in range(len(table))) == 0:
        raise ParameterError("assignment sums to zero; nothing to recover")
    records = [(path, p[j]) for j, path in enumerate(table)]
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
    statistics (after scaling counts to total mass M).  Each p_j is read
    as an exact rational; with L the lcm of their denominators, the
    integer vector M * L * p - L * u goes through one sparse product
    and each row is divided by L.  One Fraction per design-matrix row,
    in row order.
    """
    table = design.table
    if u.table is not table and tuple(u.table) != table.paths:
        raise RelationError("count vector and design matrix tables differ")
    q = []
    for j in range(len(table)):
        if j not in p:
            raise RelationError(f"assignment is missing path index {j}")
        q.append(Fraction(p[j]))
    L = math.lcm(*(x.denominator for x in q))
    M = u.total
    v = {j: M * x.numerator * (L // x.denominator) - L * c
         for j, (x, c) in enumerate(zip(q, u.counts))}
    return tuple(Fraction(x, L) for x in design.apply(v))


def loglikelihood(p, u):
    """Multinomial log-likelihood sum_i u_i log p_i (natural log, float).

    Paths with zero count contribute nothing even if their fitted
    probability is zero; a positive count on a zero probability gives
    -inf.
    """
    total = 0.0
    for j, c in enumerate(u.counts):
        if c == 0:
            continue
        if j not in p:
            raise EstimationError(f"assignment is missing path index {j}")
        q = Fraction(p[j])
        if q == 0:
            return float("-inf")
        if q < 0:
            raise EstimationError(f"negative probability {q} at index {j}")
        total += c * (math.log(q.numerator) - math.log(q.denominator))
    return total
