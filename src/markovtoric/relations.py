"""Binomial and linear relations that vanish on a model's path distribution.

Relations live in the polynomial ring with one variable per path.  A
binomial is stored as a pair of exponent vectors (plus, minus) over path
indices of a fixed PathTable.  Generation never computes Groebner bases;
every family here is emitted directly from the combinatorial shape of
the parametrization and is sound by construction.  The homogeneous
exchange family is sound but known incomplete: pooled models can satisfy
relations of higher degree that no quadratic family reaches.
"""

import itertools
from dataclasses import dataclass

from .errors import RelationError
from .model import _join, is_integer
from .paths import _spec_table, build_design_matrix, enumerate_paths

PROV_NONHOM = "nonhom-exchange"
PROV_HOM = "hom-exchange"
PROV_LINEAR = "hom-linear"
PROV_SLICE = "slice"


@dataclass(frozen=True)
class Binomial:
    """Canonical binomial p^plus - p^minus over path indices.

    plus and minus are index-sorted ((index, exponent), ...) tuples with
    positive exponents, disjoint after common-factor removal, and plus
    is the lexicographically larger dense exponent vector.  Build
    instances through canonicalize(), unless, as for the nonhomogeneous
    quadrics, the two sides are canonical as written.
    """

    plus: tuple
    minus: tuple

    def degree(self):
        return sum(e for _, e in self.plus)

    def support(self):
        return tuple(sorted({i for i, _ in self.plus} | {i for i, _ in self.minus}))

    def diff(self):
        """Sparse exponent difference plus - minus."""
        d = {i: e for i, e in self.plus}
        for i, e in self.minus:
            d[i] = d.get(i, 0) - e
        return d

    def text(self, table):
        """Human-readable form, e.g. p_011*p_110 - p_010*p_111."""
        def side(terms):
            parts = []
            for i, e in terms:
                var = "p_" + _join(table[i])
                parts.append(var if e == 1 else f"{var}^{e}")
            return "*".join(parts) if parts else "1"
        return f"{side(self.plus)} - {side(self.minus)}"


def canonicalize(plus, minus):
    """Canonical form of a raw binomial given as two exponent mappings.

    Removes the common monomial factor, rejects the degenerate case
    where both sides coincide, and orients the sign so that the plus
    side is the lexicographically larger exponent vector.

    Args:
        plus, minus: mappings or (index, exponent) iterables.

    Raises:
        RelationError: if the two sides are equal after reduction.
    """
    u = _as_exponents(plus)
    v = _as_exponents(minus)
    for i in set(u) & set(v):
        c = min(u[i], v[i])
        u[i] -= c
        v[i] -= c
        if u[i] == 0:
            del u[i]
        if v[i] == 0:
            del v[i]
    if u == v:
        raise RelationError("degenerate binomial: both sides are equal")
    # the supports are now disjoint, so the side holding the smallest
    # index is the lexicographically larger one
    if min(u.keys() | v.keys()) not in u:
        u, v = v, u
    return Binomial(tuple(sorted(u.items())), tuple(sorted(v.items())))


def _as_exponents(side):
    items = side.items() if hasattr(side, "items") else side
    out = {}
    for i, e in items:
        if not is_integer(e):
            raise RelationError(f"exponent {e!r} on index {i} is not an integer")
        if e < 0:
            raise RelationError(f"negative exponent {e} on index {i}")
        if e:
            out[i] = out.get(i, 0) + e
    return out


@dataclass(frozen=True)
class RelationSet:
    """A batch of relations bound to one PathTable.

    binomials and provenance are parallel tuples; provenance tags are
    one of the PROV_* strings.  slice_paths lists inadmissible paths of
    the unrestricted companion model whose variables are pinned to zero
    (each is a linear relation p_path = 0).
    """

    table: object
    binomials: tuple
    provenance: tuple
    slice_paths: tuple = ()

    def __len__(self):
        return len(self.binomials)

    def __iter__(self):
        return iter(zip(self.binomials, self.provenance))

    def text_lines(self):
        lines = [f"{b.text(self.table)}  [{t}]" for b, t in self]
        lines += [f"p_{_join(p)} = 0  [{PROV_SLICE}]" for p in self.slice_paths]
        return lines


def _exchanges(table, moves, tag):
    """RelationSet of the binomials p_i1 p_i2 - p_j1 p_j2 of moves
    (i1, i2, j1, j2), in move order, each canonical form once: the
    homogeneous family's moves, which can share an index.

    The canonical form depends only on the unordered quad {(i1, i2),
    (j1, j2)}, so a repeated quad is skipped before canonicalizing; a
    move that cancels to zero is skipped too.
    """
    binomials, seen = {}, set()  # dict keys: first occurrence wins, in order
    for i1, i2, j1, j2 in moves:
        quad = frozenset({(min(i1, i2), max(i1, i2)), (min(j1, j2), max(j1, j2))})
        if quad in seen:
            continue
        seen.add(quad)
        try:
            binomials[canonicalize(_pair(i1, i2), _pair(j1, j2))] = None
        except RelationError:
            continue
    return RelationSet(table, tuple(binomials), (tag,) * len(binomials))


def nonhomogeneous_generators(spec):
    """Exchange binomials generating the nonhomogeneous vanishing ideal.

    For every split position r in {1, ..., n-k-1}, every separator block
    J of length k, and admissible paths I J S and I' J S' with I != I'
    and S != S', the quadric

        p_{I J S} p_{I' J S'} - p_{I J S'} p_{I' J S}

    vanishes on the model.  The two degenerate splits r = 0 and r = n-k
    produce zero binomials and are skipped.  The crossed paths are
    admissible by construction: every length-(k+1) window of I J S'
    lies in I J or in J S', and its initial block lies in I J.

    Returns a RelationSet over the spec's own path table, deduplicated
    by canonical form, with no slice paths: generators_for adds those.
    The quadrics come out in the order of a scan over splits, separator
    blocks in first-seen order and member pairs in table order, each
    at its first occurrence.
    """
    if spec.homogeneous:
        raise RelationError("spec is homogeneous; use homogeneous_family")
    table = enumerate_paths(spec)
    k, n = spec.order, spec.horizon

    def quadrics():
        # The paths with J at positions r..r+k-1 are every admissible
        # prefix I times every admissible suffix S, so in table order a
        # group is a grid: rows by prefix, columns by suffix.  Rows a < c
        # and columns b < d give the quadric m[a,b] m[c,d] - m[a,d] m[c,b]
        # once, where a scan over member pairs in table order first meets
        # it, and m[a,b] < m[a,d] < m[c,b] < m[c,d] makes it canonical as
        # written.
        for r in range(1, n - k):
            groups = {}
            for i, path in enumerate(table):
                groups.setdefault(path[r:r + k], []).append(i)
            for members in groups.values():
                first = table[members[0]][:r]
                w = next((x for x, i in enumerate(members) if table[i][:r] != first),
                         len(members))
                grid = [members[x:x + w] for x in range(0, len(members), w)]
                for a, row in enumerate(grid):
                    for b, i1 in enumerate(row):
                        for below in grid[a + 1:]:
                            j2 = below[b]
                            for i2, j1 in zip(below[b + 1:], row[b + 1:]):
                                yield i1, i2, j1, j2

    # dict keys: a quadric repeated at another split keeps its first place
    binomials = tuple(Binomial(((i1, 1), (i2, 1)), ((j1, 1), (j2, 1)))
                      for i1, i2, j1, j2 in dict.fromkeys(quadrics()))
    return RelationSet(table, binomials, (PROV_NONHOM,) * len(binomials))


def slice_linear_generators(spec):
    """Paths of the unrestricted companion model that spec forbids.

    Each returned path is a variable pinned to zero on the restricted
    model: together with the companion's binomials these cut out the
    restricted model's ideal.  Output is lexicographic by declaration
    order, and empty, without enumerating, for an unrestricted spec: one
    that allows every ordered pair of states and every initial block, so
    admits all |S|^n sequences (with n >= k + 1, any forbidden pair or
    missing block rules some out).  A restricted spec's list has |S|^n
    minus (admissible count) entries, so call this only at small sizes.
    """
    size = len(spec.states)
    if (len(spec.transition_pairs) == size ** 2
            and len(spec.initial_blocks) == size ** spec.order):
        return ()
    table = enumerate_paths(spec)
    return tuple(path for path in itertools.product(spec.states, repeat=spec.horizon)
                 if path not in table)


def homogeneous_family(spec):
    """Exchange relations for pooled (homogeneous) models.

    Two paths that share a context window around positions r1 and r2,

        path1 = I  G x D J      (x at position r1)
        path2 = I' G y D J'     (y at position r2, y != x)

    can trade x and y without changing the pooled statistics, giving

        p_path1 p_path2 - p_(x->y in path1) p_(y->x in path2).

    The relation is quadratic unless an exchanged path equals path1 or
    path2: then the common factor cancels and a linear p_a - p_b is left.
    The context blocks G and D have length k in the interior.  Near a
    boundary they are clipped, which is sound only when both paths are
    clipped identically, so unequal positions r1 != r2 are allowed only
    with full length-k context on both sides.  The exchanged paths are
    admissible by construction: every length-(k+1) window through the
    traded position lies in G y D, a stretch of path2, and a clipped G
    pins the position, so the initial block comes from path1 or path2.
    The family is sound but known incomplete: it need not generate the
    full pooled ideal.

    Each (path, position) slot is filed under its clipped context
    (G, D) and its letter; two slots can exchange exactly when their
    contexts are equal and their letters differ.  Moves are ordered by
    (path1, path2, r1, r2) with (path1, r1) < (path2, r2), which fixes
    the order of the output.
    """
    if not spec.homogeneous:
        raise RelationError("spec is nonhomogeneous; use nonhomogeneous_generators")
    table = enumerate_paths(spec)
    k, n = spec.order, spec.horizon
    # clipped context (G, D) -> {letter: [(path index, position), ...]}
    contexts = {}
    for i, p in enumerate(table):
        for r in range(n):
            letters = contexts.setdefault((p[max(r - k, 0):r], p[r + 1:r + 1 + k]), {})
            letters.setdefault(p[r], []).append((i, r))
    moves = []
    for letters in contexts.values():
        for (x, xs), (y, ys) in itertools.combinations(letters.items(), 2):
            # (path index, position, exchanged path index) per slot
            to_y = [(i, r, table.index(table[i][:r] + (y,) + table[i][r + 1:]))
                    for i, r in xs]
            to_x = [(i, r, table.index(table[i][:r] + (x,) + table[i][r + 1:]))
                    for i, r in ys]
            for a in to_y:
                for b in to_x:
                    lo, hi = (a, b) if a < b else (b, a)
                    moves.append((lo[0], hi[0], lo[1], hi[1], lo[2], hi[2]))
    moves.sort()
    return _exchanges(table, ((i1, i2, j1, j2) for i1, i2, _, _, j1, j2 in moves),
                      PROV_HOM)


def _pair(i, j):
    return {i: 2} if i == j else {i: 1, j: 1}


def generators_for(spec, table=None):
    """A spec's generating set: its relation families plus its slice.

    Nonhomogeneous specs get the exchange quadrics.  Homogeneous specs
    get the pooled exchange family plus the permutation linear
    relations.  The two can overlap, because the exchange family emits
    some linear relations too: binary k=1 n=4 lists p_0010 - p_0100
    under both tags.  Such repeats are kept.  The families take only the
    spec and carry only binomials; the slice of a restricted spec, of
    either kind, and the one check of a caller's table are here alone.
    """
    table = _spec_table(spec, table)
    families = ((homogeneous_family, permutation_linear_relations) if spec.homogeneous
                else (nonhomogeneous_generators,))
    sets = [family(spec) for family in families]
    return RelationSet(table, sum((s.binomials for s in sets), ()),
                       sum((s.provenance for s in sets), ()),
                       slice_linear_generators(spec))


def permutation_linear_relations(spec):
    """Degree-1 relations p_a - p_b between paths with equal pooled stats.

    Homogeneous models cannot tell apart two paths with equal A'
    statistics (free windows), so their probabilities are equal on the
    whole model.  Such paths share a degree-1 fiber of A'; emits one
    relation per non-representative fiber member, with the fiber's
    first path as representative, in fiber order.
    """
    if not spec.homogeneous:
        raise RelationError("permutation relations exist only for homogeneous specs")
    design = build_design_matrix(spec)
    binomials = tuple(canonicalize({rep: 1}, {other: 1})
                      for rep, *others in design.fibers() for other in others)
    return RelationSet(design.table, binomials, (PROV_LINEAR,) * len(binomials))
