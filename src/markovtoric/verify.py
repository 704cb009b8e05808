"""Dual-route verification of candidate relations.

A binomial can be checked numerically, by evaluating it at random
rational parameter points of the model, and algebraically, by testing
its exponent difference against the integer kernel of the design
matrix.  The numeric route tests vanishing on the normalized model.
The kernel route tests the design matrix's free rows, A': a forced row
(one entry, 1 on the model) constrains nothing, and within a row of two
or more entries, the coordinates of an open simplex, distinct monomials
are distinct functions.  So a binomial vanishes on the model exactly
when A' annihilates its exponent difference, and a disagreement
between the routes means a bug.  The routes stay separate so each can
catch bugs in the other.  All arithmetic is exact; a reported zero is
a zero.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Optional

from .errors import ParameterError, RelationError
from .model import ParameterPoint
from .paths import build_design_matrix, enumerate_paths

DEFAULT_TRIALS = 20
DEFAULT_DENOMINATOR_BOUND = 97

VANISHES = "vanishes-exactly"
NONZERO = "nonzero"


def _row_layout(spec):
    """The sampling stream's rows, spec.rows(): their widths, and the
    place of each symbol as a mapping symbol -> (row, entry).
    ParameterError when a row has more entries than
    DEFAULT_DENOMINATOR_BOUND.
    """
    rows = spec.rows()
    widths = [len(row) for row in rows]
    widest = max(widths)
    if DEFAULT_DENOMINATOR_BOUND < widest:
        raise ParameterError(
            f"denominator bound {DEFAULT_DENOMINATOR_BOUND} is smaller than the "
            f"widest row ({widest} entries)")
    position = {sym: (r, e) for r, row in enumerate(rows) for e, sym in enumerate(row)}
    return widths, position


def _check_trials(trials):
    if trials < 1:
        raise ParameterError(f"trials must be at least 1, got {trials}")


def _draw_weights(widths, seed):
    # The one definition of the sampling stream: integer weights in
    # 1..DEFAULT_DENOMINATOR_BOUND, row by row.  Drawing fewer rows
    # yields a prefix of the same values.
    randint = random.Random(seed).randint
    return [[randint(1, DEFAULT_DENOMINATOR_BOUND) for _ in range(w)]
            for w in widths]


def sample_parameters(spec, seed):
    """Random strictly positive rational parameter point.

    Each row draws one integer weight in 1..DEFAULT_DENOMINATOR_BOUND
    (97) per allowed entry and normalizes exactly, so rows sum to 1 by
    construction and every allowed entry is strictly positive.
    Deterministic in seed; seeds may be any hashable accepted by
    random.Random.  ParameterError when a row has more entries than 97.
    """
    widths, position = _row_layout(spec)
    weights = _draw_weights(widths, seed)
    totals = [sum(row) for row in weights]
    return ParameterPoint(
        {sym: Fraction(weights[r][e], totals[r]) for sym, (r, e) in position.items()})


@dataclass(frozen=True)
class Witness:
    """Reproducible evidence of a nonzero evaluation."""
    trial: int
    residual: Fraction


@dataclass(frozen=True)
class RelationCheck:
    """Outcome of the numeric route for one binomial."""
    status: str
    trials: int
    seed: object
    relation_index: int = 0
    witness: Optional[Witness] = None

    @property
    def ok(self):
        return self.status == VANISHES


@dataclass(frozen=True)
class KernelCheck:
    """Outcome of the integer-kernel route for one binomial."""
    ok: bool
    residual: tuple


def _relation_rng_seed(seed, relation_index):
    # Streams are derived per relation so that verifying a set in any
    # order, or in parallel, reproduces the same points.
    return f"{seed}:{relation_index}"


def vanishes_on_model(binomial, spec, table=None, trials=DEFAULT_TRIALS,
                      seed=0, relation_index=0, *, _layout=None):
    """Evaluate a binomial at sampled model points until one is nonzero.

    Returns a RelationCheck whose status is "vanishes-exactly" when all
    trials give an exact zero, or "nonzero" with a Witness naming the
    first failing trial and its exact residual.  This is a numeric
    certificate, not a proof: it samples strictly positive points, so a
    binomial outside the ideal fails with overwhelming probability but
    a pass is only evidence.

    Trial t uses the point sample_parameters(spec, "seed:index:t")
    would return.  Each path probability there is a product of integer
    weights over a product of row totals, so both sides are evaluated
    in integers and compared by cross-multiplying; a Fraction is built
    only for a witness's residual.  trials must be at least 1.
    """
    if _layout is None:  # else verify_relation_set has checked trials
        _check_trials(trials)
        _layout = _row_layout(spec)
    if table is None:
        table = enumerate_paths(spec)
    widths, position = _layout
    factors = {j: _path_factors(spec, position, table, j)
               for j in binomial.support()}
    plus_entries, plus_rows = _side_exponents(binomial.plus, factors)
    minus_entries, minus_rows = _side_exponents(binomial.minus, factors)
    drawn = widths[:1 + max((r for r, _ in plus_rows + minus_rows), default=0)]
    rng_seed = _relation_rng_seed(seed, relation_index)
    for t in range(trials):
        w = _draw_weights(drawn, f"{rng_seed}:{t}")
        pn = prod(w[r][e] ** c for (r, e), c in plus_entries)
        pd = prod(sum(w[r]) ** c for r, c in plus_rows)
        mn = prod(w[r][e] ** c for (r, e), c in minus_entries)
        md = prod(sum(w[r]) ** c for r, c in minus_rows)
        if pn * md != mn * pd:
            return RelationCheck(NONZERO, trials, seed, relation_index,
                                 Witness(t, Fraction(pn, pd) - Fraction(mn, md)))
    return RelationCheck(VANISHES, trials, seed, relation_index)


def _path_factors(spec, position, table, j):
    # (row, entry) of each factor of path j's probability monomial.
    if not 0 <= j < len(table):
        raise RelationError(f"path index {j} out of range 0..{len(table) - 1}")
    return [position[sym] for sym in spec.check_sequence(table[j])]


def _side_exponents(terms, factors):
    # One side's monomial as ((row, entry), exponent) pairs, and its
    # denominator as (row, exponent of the row total) pairs.
    entries, rows = {}, {}
    for j, e in terms:
        for f in factors[j]:
            entries[f] = entries.get(f, 0) + e
            rows[f[0]] = rows.get(f[0], 0) + e
    return tuple(entries.items()), tuple(rows.items())


def kernel_membership(binomial, design):
    """Exact integer test A'(plus - minus) = 0 on the design matrix's
    free rows; the residual lists A(plus - minus) over every row."""
    residual = design.apply(binomial.diff())
    return KernelCheck(all(residual[i] == 0 for i in design.free_rows),
                       tuple(residual))


@dataclass(frozen=True)
class RelationEntry:
    index: int
    provenance: str
    vanish: RelationCheck
    kernel: KernelCheck

    @property
    def ok(self):
        return self.vanish.ok and self.kernel.ok


@dataclass(frozen=True)
class VerificationReport:
    """Joint outcome of both routes over a RelationSet.

    Entries appear in relation order.  agreement is False when the two
    routes disagree on some relation, which means a bug in one of them,
    since both test vanishing on the model (see the module doc).
    """
    entries: tuple
    trials: int
    seed: object

    @property
    def all_pass(self):
        return all(e.ok for e in self.entries)

    @property
    def agreement(self):
        return all(e.kernel.ok == e.vanish.ok for e in self.entries)

    def failures(self):
        return tuple(e for e in self.entries if not e.ok)

    def summary(self):
        total = len(self.entries)
        bad = len(self.failures())
        return (f"{total - bad}/{total} relations verified "
                f"(trials={self.trials}, seed={self.seed})")


def verify_relation_set(relset, spec, trials=DEFAULT_TRIALS, seed=0,
                        design=None):
    """Run both verification routes over every relation of a set.

    The design matrix defaults to the spec's own; pass one explicitly
    to reuse it across calls.  A design over another path table, or with
    rows other than spec.symbols(), is a RelationError.  Entries keep
    the set's order, and each relation gets its own random stream
    derived from (seed, index).  trials must be at least 1.
    """
    _check_trials(trials)
    if design is None:
        design = build_design_matrix(spec, relset.table)
    elif design.table is not relset.table and tuple(design.table) != relset.table.paths:
        raise RelationError("design matrix and relation set tables differ")
    elif design.row_symbols != spec.symbols():
        raise RelationError("design matrix rows are not the spec's parameter symbols")
    layout = _row_layout(spec)
    entries = []
    for idx, (binomial, tag) in enumerate(relset):
        check = vanishes_on_model(binomial, spec, relset.table, trials,
                                  seed, idx, _layout=layout)
        kc = kernel_membership(binomial, design)
        entries.append(RelationEntry(idx, tag, check, kc))
    return VerificationReport(tuple(entries), trials, seed)
