"""Path enumeration, sufficient statistics, and the design matrix."""

from .errors import InadmissiblePathError, RelationError


class PathTable:
    """Immutable indexed list of admissible paths.

    Paths appear in declaration-lexicographic order and are addressed
    either by position or by the path tuple itself.
    """

    __slots__ = ("paths", "_index")

    def __init__(self, paths):
        self.paths = tuple(tuple(p) for p in paths)
        self._index = {p: i for i, p in enumerate(self.paths)}
        if len(self._index) != len(self.paths):
            raise RelationError("duplicate paths in table")

    def index(self, path):
        try:
            return self._index[tuple(path)]
        except KeyError:
            raise InadmissiblePathError(
                f"path {tuple(path)} is not in the table") from None

    def __contains__(self, path):
        return tuple(path) in self._index

    def __getitem__(self, i):
        return self.paths[i]

    def __len__(self):
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    def __repr__(self):
        return f"PathTable({len(self.paths)} paths)"


def enumerate_paths(spec):
    """All admissible paths of the spec, lexicographically by declaration order.

    Depth-first extension of each allowed initial block.  Initial blocks
    are visited in declaration-lexicographic order and successors in
    declaration order, so the output order needs no final sort.
    """
    out = []
    k, n = spec.order, spec.horizon

    def extend(prefix):
        if len(prefix) == n:
            out.append(prefix)
            return
        for s in spec.successors(prefix[-k:]):
            extend(prefix + (s,))

    for block in spec.initial_blocks:
        extend(block)
    return PathTable(out)


class DesignMatrix:
    """Integer matrix A with one row per parameter symbol and one column
    per path; column j is the sufficient-statistics vector of path j.

    Columns are stored sparsely: column j is the sorted tuple of the row
    indices of path j's factors, with repeats, so a homogeneous path
    that uses a window twice lists that row twice.  Two paths have equal
    columns exactly when these multisets are equal, so each is its
    path's degree-1 fiber key.  column(j) is the derived dense view.  A
    binomial p^u - p^v vanishes on the model exactly when A'(u - v) = 0,
    where A' keeps the free_rows: the indices of the rows whose
    simplex row of ModelSpec.rows() has two or more entries.  A forced
    row is 1 on the whole model.  apply is the one product both that
    kernel check and the Birch residual go through.
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
        """Path indices grouped by equal column, each group in table
        order, the groups in order of their first path."""
        groups = {}
        for j, col in enumerate(self._columns):
            groups.setdefault(col, []).append(j)
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
