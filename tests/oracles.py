"""Independent cross-checks used by the tests.

These deliberately avoid the package's own generator logic: the
brute-force scan works straight from the design matrix columns, so a
bug in the relation families cannot hide itself.  The Fraction oracles
evaluate path probabilities and binomials the slow, obvious way, apart
from the integer routes the package uses.
"""

import itertools
from collections import Counter
from fractions import Fraction

from markovtoric import TrajectorySet, canonicalize, enumerate_paths, path_probability
from markovtoric.errors import ParseError, RelationError, SpecificationError
from markovtoric.relations import PROV_HOM, PROV_NONHOM, RelationSet, _dedup, _pair


def block_counts(spec, path):
    """Occurrence count per parameter symbol of one path, tallied from
    the window convention directly rather than through check_sequence.

    One unit on ("pi", initial k-block), one per window ("a", level,
    history, next) for levels k+1..n; homogeneous specs pool windows
    across time (level None), so a repeated window counts above 1.
    """
    k = spec.order
    counts = {("pi", tuple(path[:k])): 1}
    for end in range(k, len(path)):
        sym = ("a", None if spec.homogeneous else end + 1,
               tuple(path[end - k:end]), path[end])
        counts[sym] = counts.get(sym, 0) + 1
    return counts


def free_block_counts(spec, path):
    """block_counts without the forced symbols, which are 1 on the whole
    model: the initial block when there is one initial block, and each
    window whose history has one successor.  The rest are the A' rows."""
    return Counter({sym: c for sym, c in block_counts(spec, path).items()
                    if len(spec.initial_blocks if sym[0] == "pi"
                           else spec.successors(sym[2])) > 1})


def free_fiber_pairs(spec, table):
    """Pairs (m1, m2) of distinct degree-2 monomials, each an index pair
    (a, b) with a <= b, whose free_block_counts sum to the same A'
    statistics, by brute force over every pair of paths."""
    free = [free_block_counts(spec, p) for p in table]
    fibers = {}
    for m in itertools.combinations_with_replacement(range(len(table)), 2):
        fibers.setdefault(frozenset((free[m[0]] + free[m[1]]).items()), []).append(m)
    return [pair for fiber in fibers.values() for pair in itertools.combinations(fiber, 2)]


def mle_reference(spec, records):
    """(values, undefined) fitted to (path, weight) records of length
    spec.horizon: block_counts tallies, each over its row's tally, keyed
    by parameter symbol.

    The rows are enumerated from the initial blocks and, per level and
    history, the allowed successors, not from spec.rows(); a history
    with no successor has no row, and a row of zero tally is undefined.
    """
    tally = {}
    for path, weight in records:
        for sym, c in block_counts(spec, path).items():
            tally[sym] = tally.get(sym, 0) + weight * c
    total = sum(weight for _, weight in records)
    values = {("pi", b): Fraction(tally.get(("pi", b), 0), total)
              for b in spec.initial_blocks}
    undefined = set()
    for level in spec.levels():
        for h in spec.histories:
            row = [("a", level, h, s) for s in spec.successors(h)]
            d = sum(tally.get(sym, 0) for sym in row)
            if row and d == 0:
                undefined.add((level, h))
            elif row:
                values.update({sym: Fraction(tally.get(sym, 0), d) for sym in row})
    return values, undefined


def permutation_classes(spec, table):
    """Path indices grouped by equal block_counts, in table order."""
    classes = {}
    for j, path in enumerate(table):
        classes.setdefault(frozenset(block_counts(spec, path).items()), []).append(j)
    return list(classes.values())


def brute_force_degree2(design):
    """All canonical degree-2 binomials in the design matrix kernel.

    Groups every degree-2 monomial (an unordered pair of columns,
    repeats allowed) by its statistics vector; any two monomials in one
    group form a kernel binomial.  Returns the set of canonical forms,
    skipping degenerate pairs that cancel entirely.  The statistics are
    summed from design.column here, not through the kernel route.
    """
    m = design.shape[1]
    columns = [design.column(j) for j in range(m)]
    groups = {}
    for i, j in itertools.combinations_with_replacement(range(m), 2):
        mono = {i: 2} if i == j else {i: 1, j: 1}
        sig = tuple(a + b for a, b in zip(columns[i], columns[j]))
        groups.setdefault(sig, []).append(mono)
    out = set()
    for members in groups.values():
        for a, b in itertools.combinations(members, 2):
            out.add(canonicalize(dict(a), dict(b)))
    return out


def degree2_diffs(binomials):
    """Exponent-difference vectors (as sorted item tuples) of degree-2 binomials."""
    out = set()
    for b in binomials:
        if b.degree() == 2:
            out.add(tuple(sorted(b.diff().items())))
    return out


def homogeneous_family_reference(spec, table=None):
    """The homogeneous exchange family by the all-pairs scan.

    Tries every path pair (i1 <= i2) and every position pair (r1, r2),
    in that loop order, so the output order is the one the bucketed
    relations.homogeneous_family must reproduce.
    """
    if table is None:
        table = enumerate_paths(spec)
    k, n = spec.order, spec.horizon
    interior = range(k, n - k)  # 0-based positions with full context
    raw = []
    paths = table.paths
    for i1, p1 in enumerate(paths):
        for i2 in range(i1, len(paths)):
            p2 = paths[i2]
            for r1 in range(n):
                for r2 in range(n):
                    x, y = p1[r1], p2[r2]
                    if x == y:
                        continue
                    if r1 != r2:
                        if r1 not in interior or r2 not in interior:
                            continue
                        g = d = k
                    else:
                        g = min(k, r1)
                        d = min(k, n - 1 - r1)
                    if p1[r1 - g:r1] != p2[r2 - g:r2]:
                        continue
                    if p1[r1 + 1:r1 + 1 + d] != p2[r2 + 1:r2 + 1 + d]:
                        continue
                    m1 = p1[:r1] + (y,) + p1[r1 + 1:]
                    m2 = p2[:r2] + (x,) + p2[r2 + 1:]
                    if m1 not in table or m2 not in table:
                        continue
                    try:
                        raw.append(canonicalize(
                            _pair(i1, i2),
                            _pair(table.index(m1), table.index(m2))))
                    except RelationError:
                        continue  # exchanged pair equals the original pair
    binomials, tags = _dedup(raw, PROV_HOM)
    return RelationSet(table, binomials, tags)


def nonhomogeneous_generators_reference(spec, table=None):
    """The nonhomogeneous exchange quadrics by the plain split loop.

    Visits splits r, separator blocks J in first-seen order and member
    pairs in table order, and drops any relation whose crossed paths
    leave the table, so the output order is the one
    relations.nonhomogeneous_generators must reproduce.
    """
    if table is None:
        table = enumerate_paths(spec)
    k, n = spec.order, spec.horizon
    raw = []
    for r in range(1, n - k):
        groups = {}
        for path in table:
            groups.setdefault(path[r:r + k], []).append((path[:r], path[r + k:]))
        for J, members in groups.items():
            for (I, S), (I2, S2) in itertools.combinations(members, 2):
                if I == I2 or S == S2:
                    continue
                cross1, cross2 = I + J + S2, I2 + J + S
                if cross1 not in table or cross2 not in table:
                    continue
                raw.append(canonicalize(
                    {table.index(I + J + S): 1, table.index(I2 + J + S2): 1},
                    {table.index(cross1): 1, table.index(cross2): 1}))
    binomials, tags = _dedup(raw, PROV_NONHOM)
    return RelationSet(table, binomials, tags)


def corpus_to_trajectories_reference(text, cs, spec=None):
    """The corpus pipeline over one entry per word occurrence.

    Every occurrence is cleaned and checked character by character, the
    list is filtered by length, and only the survivors are counted, so
    the records, their order and every error are the ones
    iofiles.corpus_to_trajectories must reproduce from its tally.
    """
    words = []
    for raw in text.lower().split():
        word = "".join(ch for ch in raw if ch not in cs.drop_chars)
        if not word:
            continue
        for ch in word:
            if ch not in cs.alphabet:
                raise ParseError(
                    f"character {ch!r} in word {raw!r} is neither mapped nor dropped")
        words.append(word)
    words = [w for w in words if len(w) >= cs.min_word_length]
    if cs.max_word_length is not None:
        words = [w for w in words if len(w) <= cs.max_word_length]
    if cs.horizon is None:
        if not words:
            raise ParseError("corpus contains no usable words")
        L = max(len(w) for w in words)
    else:
        L = cs.horizon
        over = [w for w in words if len(w) > L]
        if over and cs.overlong == "error":
            raise ParseError(
                f"word {over[0]!r} has length {len(over[0])}, horizon is {L}")
        words = [w for w in words if len(w) <= L]
    if not words:
        raise ParseError("corpus contains no usable words")
    trajs = TrajectorySet(tuple(
        (tuple(cs.alphabet[ch] for ch in w) + (cs.pad,) * (L + 1 - len(w)), mult)
        for w, mult in Counter(words).items()))
    if spec is not None:
        if cs.pad not in spec.absorbing:
            raise SpecificationError(
                f"pad symbol {cs.pad!r} is not an absorbing state of the target spec")
        trajs.check(spec)
    return trajs


def lex_larger(u, v):
    """Whether exponent mapping u is the larger in dense lexicographic order."""
    for i in sorted(set(u) | set(v)):
        du, dv = u.get(i, 0), v.get(i, 0)
        if du != dv:
            return du > dv
    return False


def assignment_from_parameters(spec, params, table):
    """Path-probability assignment {index: Fraction} over a table."""
    return {j: path_probability(spec, params, path)
            for j, path in enumerate(table)}


def evaluate_binomial(binomial, assignment):
    """Exact residual of a binomial at a probability assignment.

    The assignment maps path indices to values; every index in the
    binomial's support must be present.
    """
    plus = Fraction(1)
    for i, e in binomial.plus:
        plus *= _lookup(assignment, i) ** e
    minus = Fraction(1)
    for i, e in binomial.minus:
        minus *= _lookup(assignment, i) ** e
    return plus - minus


def _lookup(assignment, i):
    try:
        return assignment[i]
    except KeyError:
        raise RelationError(f"assignment is missing path index {i}") from None


def dense_product(design, coeffs):
    """A @ x for a {path index: value} mapping, summed over every dense
    design.column, apart from DesignMatrix.apply."""
    rows, m = design.shape
    out = [0] * rows
    for j in range(m):
        for i, a in enumerate(design.column(j)):
            out[i] += a * coeffs.get(j, 0)
    return out


def birch_residual_reference(p, u, design):
    """M * sum_j column(j) * p_j - sum_j column(j) * u_j, densely."""
    ap = dense_product(design, p)
    au = dense_product(design, dict(enumerate(u.counts)))
    return tuple(u.total * x - y for x, y in zip(ap, au))
