"""Path enumeration, sufficient statistics, the design matrix, and
_spec_table, the one check of a caller's table of a spec's whole path set."""

from .errors import InadmissiblePathError, RelationError


class PathTable(tuple):
    """Immutable indexed tuple of admissible paths, equal by value.

    Paths appear in declaration-lexicographic order and are addressed
    either by position or by the path tuple itself.
    """

    def __new__(cls, paths):
        self = super().__new__(cls, map(tuple, paths))
        self._index = {p: i for i, p in enumerate(self)}
        if len(self._index) != len(self):
            raise RelationError("duplicate paths in table")
        return self

    def index(self, path):
        try:
            return self._index[tuple(path)]
        except KeyError:
            raise InadmissiblePathError(
                f"path {tuple(path)} is not in the table") from None

    def __contains__(self, path):
        return tuple(path) in self._index

    def __repr__(self):
        return f"PathTable({len(self)} paths)"


def enumerate_paths(spec):
    """All admissible paths of the spec, lexicographically by declaration order.

    The initial blocks grow one position at a time, each prefix by a
    copy per successor but the last and in place by the last, so the
    work is linear in the output and no horizon meets a recursion limit.
    Blocks, successors and prefixes all go in declaration order, so the
    output order needs no final sort.
    """
    k = spec.order
    prefixes = [list(block) for block in spec.initial_blocks]
    for _ in range(spec.horizon - k):
        grown = []
        for p in prefixes:
            if succ := spec.successors(p[-k:]):
                for s in succ[:-1]:
                    grown.append(p + [s])
                p.append(succ[-1])
                grown.append(p)
        prefixes = grown
    return PathTable(prefixes)


def _spec_table(spec, table=None):
    """The spec's own path table for a reader of its whole path set: a
    fresh enumeration, or table itself if it is a PathTable equal to it.
    Any other table is an InadmissiblePathError naming its first fault: a
    path the spec refuses, else the first of its paths it lacks, else order."""
    own = enumerate_paths(spec)
    if table is None:
        return own
    if isinstance(table, PathTable) and table == own:
        return table
    for path in table:
        spec.check_sequence(path)
    given = set(map(tuple, table))
    for path in own:
        if path not in given:
            raise InadmissiblePathError(f"path {path} is not in the table")
    raise InadmissiblePathError("the table is not the spec's PathTable in declaration order")


class DesignMatrix:
    """Integer matrix A with one row per parameter symbol and one column
    per path; column j is the sufficient-statistics vector of path j.

    Columns are stored sparsely: column j is the sorted tuple of the row
    indices of path j's factors, with repeats, so a homogeneous path
    that uses a window twice lists that row twice.  column(j) is the
    derived dense view.  A binomial p^u - p^v vanishes on the model
    exactly when A'(u - v) = 0, where A' keeps the free_rows: the
    indices of the rows whose simplex row of ModelSpec.rows() has two
    or more entries.  A forced row is 1 on the whole model.  apply is
    the one product both that kernel check and the Birch residual go
    through.
    """

    __slots__ = ("row_symbols", "table", "free_rows", "_columns")

    def __init__(self, row_symbols, table, columns, free_rows):
        self.row_symbols = tuple(row_symbols)
        self.table = table
        self.free_rows = tuple(free_rows)
        self._columns = tuple(tuple(sorted(c)) for c in columns)

    @property
    def shape(self):
        return (len(self.row_symbols), len(self.table))

    def column(self, j):
        col = [0] * len(self.row_symbols)
        for i in self._columns[j]:
            col[i] += 1
        return tuple(col)

    def fibers(self):
        """The degree-1 fibers of A': path indices grouped by equal column
        on the free rows, each group in table order, the groups in order
        of their first path."""
        free, groups = set(self.free_rows), {}
        for j, col in enumerate(self._columns):
            groups.setdefault(tuple(i for i in col if i in free), []).append(j)
        return list(groups.values())

    def apply(self, coeffs):
        """A @ x for a sparse {path index: integer coefficient} mapping."""
        ncols = len(self.table)
        for j in coeffs:
            if not 0 <= j < ncols:
                raise RelationError(f"path index {j} out of range 0..{ncols - 1}")
        out = [0] * len(self.row_symbols)
        columns = self._columns
        for j, c in coeffs.items():
            for i in columns[j]:
                out[i] += c
        return out

    def __repr__(self):
        r, c = self.shape
        return f"DesignMatrix({r} symbols x {c} paths)"


def build_design_matrix(spec, table=None):
    """Design matrix of the spec over a path table (defaults to its own)."""
    if table is None:
        table = enumerate_paths(spec)
    symbols = spec.symbols()
    pos = {sym: i for i, sym in enumerate(symbols)}
    columns = ([pos[sym] for sym in spec.check_sequence(path)] for path in table)
    free = [pos[sym] for row in spec.rows() if len(row) > 1 for sym in row]
    return DesignMatrix(symbols, table, columns, free)
