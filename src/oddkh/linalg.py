"""Exact linear algebra over the integers and over GF(2).

Everything downstream (differentials, homology, chain-map and homotopy
decisions) reduces to the operations exported here.  Every integer
computation (elementary divisors and the integer and mod-p ranks read
off them, solves, kernels, cokernels) runs one sparse elimination that
cancels unit (+-1) pivots, then Smith normal form on the block left
over; U, V and V^-1 are built for that block only.  Both eliminations
work on sparse lines.  The unit elimination takes sparse rows {row:
{col: value}}, indexes each column's rows and consumes them; the
public ``IntMatrix`` entry points convert their matrix once
(``_sparse_rows``), and ``complexes`` and ``cobordism`` build rows
directly.  Smith normal form keeps the block as row dicts and as
column dicts, U as rows and V as columns, so each row or column
operation costs the nonzeros it touches.  The unit elimination, on a
forced pivot order, gives the Reidemeister retractions of
``cobordism``.  The GF(2) solver on bitmask rows enumerates every
coherent edge-sign choice of a cube and completes pinned ones.  Matrices are sparse dictionaries of
arbitrary-precision Python integers; there is no floating point
anywhere in this module.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

__all__ = [
    "IntMatrix",
    "SnfResult",
    "smith_normal_form",
    "solve_integer",
    "integer_kernel",
    "integer_cokernel",
    "elementary_divisors",
    "integer_inverse",
    "solve_gf2",
    "modp_rank",
]

class IntMatrix:
    """A sparse rows x cols integer matrix.

    Entries are stored in a dict keyed by (row, col); zeros are never
    stored.  Instances are treated as immutable by every public
    function in the package (internal algorithms copy the dict).
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries: dict[tuple[int, int], int] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        data: dict[tuple[int, int], int] = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError(f"entry ({r},{c}) out of range for {rows}x{cols}")
                if v:
                    data[(r, c)] = v
        self.data = data

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def from_rows(cls, rows_list: list[list[int]]) -> "IntMatrix":
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        entries = {}
        for i, row in enumerate(rows_list):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = v
        return cls(rows, cols, entries)

    def to_rows(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.data.items():
            out[r][c] = v
        return out

    def __getitem__(self, rc: tuple[int, int]) -> int:
        return self.data.get(rc, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    def __hash__(self):
        raise TypeError("unhashable")

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, {len(self.data)} entries)"

    def is_zero(self) -> bool:
        return not self.data

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, {k: -v for k, v in self.data.items()})

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        data = dict(self.data)
        for k, v in other.data.items():
            w = data.get(k, 0) + v
            if w:
                data[k] = w
            else:
                data.pop(k, None)
        return IntMatrix(self.rows, self.cols, data)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def scale(self, s: int) -> "IntMatrix":
        if s == 0:
            return IntMatrix.zero(self.rows, self.cols)
        return IntMatrix(self.rows, self.cols, {k: s * v for k, v in self.data.items()})

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        """Matrix product self * other (self.cols must equal other.rows)."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        # Row-index the right factor once; iterate left entries.
        right_rows: dict[int, list[tuple[int, int]]] = {}
        for (r, c), v in other.data.items():
            right_rows.setdefault(r, []).append((c, v))
        acc: dict[tuple[int, int], int] = {}
        for (r, k), v in self.data.items():
            hits = right_rows.get(k)
            if not hits:
                continue
            for c, w in hits:
                key = (r, c)
                s = acc.get(key, 0) + v * w
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return IntMatrix(self.rows, other.cols, acc)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, {(c, r): v for (r, c), v in self.data.items()})

    def apply(self, vec: list[int]) -> list[int]:
        """self * vec for a dense column vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [0] * self.rows
        for (r, c), v in self.data.items():
            x = vec[c]
            if x:
                out[r] += v * x
        return out

    def column(self, c: int) -> list[int]:
        out = [0] * self.rows
        for (r, cc), v in self.data.items():
            if cc == c:
                out[r] = v
        return out

    def submatrix(self, row_idx: list[int], col_idx: list[int]) -> "IntMatrix":
        rpos = {r: i for i, r in enumerate(row_idx)}
        cpos = {c: j for j, c in enumerate(col_idx)}
        entries = {}
        for (r, c), v in self.data.items():
            if r in rpos and c in cpos:
                entries[(rpos[r], cpos[c])] = v
        return IntMatrix(len(row_idx), len(col_idx), entries)


def _products_vanish(*terms) -> bool:
    """Whether the sum of s * A * B over (s, A, B) terms is zero, summed in one dict.

    Shapes that do not fit raise ValueError, as ``__mul__`` does.
    """
    shape = None
    acc: dict[tuple[int, int], int] = {}
    for s, a, b in terms:
        if a.cols != b.rows or shape not in (None, (a.rows, b.cols)):
            raise ValueError(f"shape mismatch {a.rows}x{a.cols} * {b.rows}x{b.cols}")
        shape = a.rows, b.cols
        right_rows: dict[int, list[tuple[int, int]]] = {}
        for (r, c), v in b.data.items():
            right_rows.setdefault(r, []).append((c, v))
        for (r, k), v in a.data.items():
            for c, w in right_rows.get(k, ()):
                acc[r, c] = acc.get((r, c), 0) + s * v * w
    return not any(acc.values())


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form U*A*V = D with U, V unimodular.

    ``diagonal`` lists the nonnegative elementary divisors d1 | d2 | ...
    including trailing zeros up to min(rows, cols).
    """

    D: IntMatrix
    U: IntMatrix
    V: IntMatrix
    diagonal: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d not in (0, 1))


def _add(lines, cross, transform, dst, src, m):
    """Line dst += m * line src, on A and on its transform.

    ``lines`` holds A by the lines being combined (rows or columns) and
    ``cross`` the same entries by the other lines, kept in step; the
    transform (U by rows, V by columns) follows the same operation.  With
    dst == src and m == -2 this negates the line.
    """
    if not m:
        return
    out = lines[dst]
    for k, v in list(lines[src].items()):
        w = out.get(k, 0) + m * v
        if w:
            out[k] = cross[k][dst] = w
        else:
            del out[k], cross[k][dst]
    out = transform[dst]
    for k, v in list(transform[src].items()):
        w = out.get(k, 0) + m * v
        if w:
            out[k] = w
        else:
            del out[k]


def _swap(lines, cross, transform, i, j):
    """Exchange lines i and j of A and of its transform (see ``_add``)."""
    for k in lines[i].keys() | lines[j].keys():
        line = cross[k]
        vi, vj = line.pop(i, 0), line.pop(j, 0)
        if vj:
            line[i] = vj
        if vi:
            line[j] = vi
    lines[i], lines[j] = lines[j], lines[i]
    transform[i], transform[j] = transform[j], transform[i]


def smith_normal_form(A: IntMatrix) -> SnfResult:
    """Diagonalize A by unimodular row and column operations.

    Parameters
    ----------
    A : IntMatrix
        Any integer matrix, including empty ones.

    Returns
    -------
    SnfResult
        With U*A*V = D exactly, |det U| = |det V| = 1, and the diagonal
        of D a nonnegative divisibility chain.

    Notes
    -----
    A is held twice, as sparse row dicts ``a[r]`` and as sparse column
    dicts ``at[c]``, U as row dicts and V as column dicts, so a row or
    column operation costs the nonzeros of the lines it reads; one
    ``_add`` and one ``_swap`` serve rows (on a, at, U) and columns (on
    at, a, V).  Pivoting picks the entry of smallest absolute value,
    ties broken by lowest (row, col), which keeps the result
    deterministic and tames coefficient growth at this scale.
    """
    rows, cols = A.rows, A.cols
    a: list[dict[int, int]] = [{} for _ in range(rows)]
    at: list[dict[int, int]] = [{} for _ in range(cols)]
    for (r, c), x in A.data.items():
        a[r][c] = at[c][r] = x
    u = [{i: 1} for i in range(rows)]
    vt = [{j: 1} for j in range(cols)]

    limit = min(rows, cols)
    for t in range(limit):
        # Smallest nonzero entry in the remaining block; rows from t on
        # hold no entry left of column t.
        best = min(((abs(x), r, c) for r in range(t, rows) for c, x in a[r].items()), default=None)
        if best is None:
            break
        _, pr, pc = best
        _swap(a, at, u, t, pr)
        _swap(at, a, vt, t, pc)
        # Clear row and column t; a nonzero remainder is smaller than the
        # pivot, so the smallest (lowest index, a row before a column on
        # a tie) becomes the pivot and the sweep runs again.
        while True:
            p = a[t][t]
            for r in [r for r in at[t] if r != t]:
                _add(a, at, u, r, t, -(a[r][t] // p))
            for c in [c for c in a[t] if c != t]:
                _add(at, a, vt, c, t, -(at[c][t] // p))
            rest = [(abs(x), r, 0) for r, x in at[t].items() if r != t]
            rest += [(abs(x), c, 1) for c, x in a[t].items() if c != t]
            if not rest:
                break
            _, k, is_col = min(rest)
            if is_col:
                _swap(at, a, vt, t, k)
            else:
                _swap(a, at, u, t, k)
        if a[t][t] < 0:
            _add(a, at, u, t, t, -2)

    # Enforce the divisibility chain d_i | d_{i+1}.  Rows and columns
    # i, i+1 are diagonal here, so each repair is a closed 2x2 problem.
    changed = True
    while changed:
        changed = False
        for i in range(limit - 1):
            di, dj = a[i].get(i, 0), a[i + 1].get(i + 1, 0)
            if di and dj and dj % di != 0:
                changed = True
                _add(at, a, vt, i, i + 1, 1)
                while a[i + 1].get(i, 0):
                    pii, pji = a[i].get(i, 0), a[i + 1][i]
                    if pii == 0 or abs(pji) < abs(pii):
                        _swap(a, at, u, i, i + 1)
                    else:
                        _add(a, at, u, i + 1, i, -(pji // pii))
                # a[i][i + 1] is a multiple of dj, hence of the new pivot.
                _add(at, a, vt, i + 1, i, -(a[i].get(i + 1, 0) // a[i][i]))
                for k in (i, i + 1):
                    if a[k].get(k, 0) < 0:
                        _add(a, at, u, k, k, -2)

    diagonal = tuple(a[i].get(i, 0) for i in range(limit))
    D = IntMatrix(rows, cols, {(i, i): d for i, d in enumerate(diagonal) if d})
    U = IntMatrix(rows, rows, {(r, c): x for r, line in enumerate(u) for c, x in line.items()})
    V = IntMatrix(cols, cols, {(r, c): x for c, line in enumerate(vt) for r, x in line.items()})
    return SnfResult(D=D, U=U, V=V, diagonal=diagonal)


def _markowitz(rows, cols, heap):
    """Pivots for ``_eliminate_units`` in Markowitz order, chosen lazily.

    Kept out of the elimination's body so that the body's hot locals do
    not become closure cells.
    """
    while heap:
        n, r = heapq.heappop(heap)
        row = rows.get(r)
        # Stale entry; a changed row was pushed again with its new length.
        if row is None or len(row) != n:
            continue
        units = [c for c, v in row.items() if v == 1 or v == -1]
        if units:
            yield r, min(units, key=lambda k: len(cols[k]))


def _forced(rows, order):
    """The given pivots, each checked to be a unit when its turn comes."""
    for r, c in order:
        p = rows[r].get(c) if r in rows else None
        if p != 1 and p != -1:
            raise AssertionError(f"pivot {p} at ({r}, {c}) is not a unit")
        yield r, c


def _sparse_rows(A: IntMatrix) -> dict[int, dict[int, int]]:
    """A's entries as sparse rows {row: {col: value}}, the input of ``_eliminate_units``."""
    rows: dict[int, dict[int, int]] = {}
    for (r, c), v in A.data.items():
        rows.setdefault(r, {})[c] = v
    return rows


def _eliminate_units(rows: dict[int, dict[int, int]], b: list[int] | None = None, order=None):
    """Cancel the unit (+-1) pivots of a matrix by integer row operations.

    The matrix comes as sparse rows {row: {col: value}} with no zero
    entries, which the elimination consumes: it indexes each column's
    rows, then works on the row dicts in place.  Without
    ``order``, pivots are picked Markowitz-style: the shortest row
    holding a unit first, then within that row the unit whose column
    has the fewest nonzeros, which keeps fill-in low.  With
    ``order``, a list of (row, col) pairs, exactly those pivots are
    taken, in that order; each must be a unit when its turn comes, or
    AssertionError is raised.  A pivot row clears its column from every
    other row; the right-hand side ``b``, when given, follows the same
    row operations.

    Returns
    -------
    (block, block_rows, block_cols, pivots, rhs)
        ``block`` is the leftover Schur complement on the rows and
        columns no pivot touched, cut down to its nonzero lines, whose
        original indices are ``block_rows`` and ``block_cols``.
        ``pivots`` lists ``(row, col, entries)`` in elimination order,
        each with the row's entries as they stood when it was picked.
        ``rhs`` is the reduced right-hand side by original row (None
        without ``b``).  The matrix is equivalent to diag(I_k, block) by
        unimodular row and column operations, with k = len(pivots).
    """
    cols: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    rhs = list(b) if b is not None else None
    heap = [(len(row), r) for r, row in rows.items()] if order is None else []
    heapq.heapify(heap)
    pivots: list[tuple[int, int, dict[int, int]]] = []
    for r, c in _markowitz(rows, cols, heap) if order is None else _forced(rows, order):
        row = rows.pop(r)
        p = row[c]
        for k in row:
            cols[k].discard(r)
        for r2 in cols.pop(c):
            other = rows[r2]
            m = other.pop(c) * p
            for k, v in row.items():
                if k == c:
                    continue
                w = other.get(k, 0) - m * v
                if w:
                    if k not in other:
                        cols[k].add(r2)
                    other[k] = w
                else:
                    del other[k]
                    cols[k].discard(r2)
            if rhs is not None:
                rhs[r2] -= m * rhs[r]
            # A changed row goes back on the Markowitz heap with its new
            # length; a forced order never reads the heap.
            if other:
                heapq.heappush(heap, (len(other), r2))
        pivots.append((r, c, row))
    block_rows = sorted(r for r, row in rows.items() if row)
    block_cols = sorted(c for c, rs in cols.items() if rs)
    cpos = {c: j for j, c in enumerate(block_cols)}
    entries = {(i, cpos[c]): v for i, r in enumerate(block_rows) for c, v in rows[r].items()}
    block = IntMatrix(len(block_rows), len(block_cols), entries)
    return block, block_rows, block_cols, pivots, rhs


def elementary_divisors(A: IntMatrix) -> tuple[int, ...]:
    """The nonzero elementary divisors of A, as a divisibility chain."""
    return _divisors(_sparse_rows(A))


def _divisors(rows: dict[int, dict[int, int]]) -> tuple[int, ...]:
    """``elementary_divisors`` of sparse rows, which it consumes.

    One 1 for each unit pivot, followed by the nonzero Smith normal form
    diagonal of the block left over after unit elimination.
    """
    block, _, _, pivots, _ = _eliminate_units(rows)
    tail = smith_normal_form(block).diagonal if block.data else ()
    return (1,) * len(pivots) + tuple(d for d in tail if d)


def integer_inverse(A: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular square matrix."""
    if A.rows != A.cols:
        raise ValueError("only square matrices can be inverted")
    snf = smith_normal_form(A)
    if any(d != 1 for d in snf.diagonal):
        raise ValueError("matrix is not unimodular")
    # U A V = I, so the inverse is V U.
    return snf.V * snf.U


def _back_substitute(pivots, x: dict[int, dict[int, int]], rhs: list[int] | None = None) -> None:
    """Set the pivot coordinates of several vectors so that every pivot row holds.

    ``x`` maps a column to {vector: coordinate}, sparse in both.  Pivots
    are taken in reverse elimination order, so each pivot row reads only
    coordinates that are already final.  With ``rhs`` there is a single
    vector, keyed 0; without it the pivot rows are homogeneous.
    """
    for r, c, row in reversed(pivots):
        acc = {0: rhs[r]} if rhs is not None else {}
        for k, v in row.items():
            if k != c and k in x:
                for j, w in x[k].items():
                    acc[j] = acc.get(j, 0) - v * w
        # The pivot is +-1, so dividing by it is multiplying by it.
        p = row[c]
        xc = {j: w * p for j, w in acc.items() if w}
        if xc:
            x[c] = xc


def _split(A: IntMatrix):
    """Split Z^cols along the unit elimination of A.

    Returns (orders, X, Y) with X cols x n, Y n x cols and Y*X = I.  A
    column with no pivot and no leftover entry seeds a direction of
    order 0, read by Y directly; so does column i of the leftover
    block's Smith V when d_i != 1 (order d_i, 0 past the rank), read by
    row i of V^-1.  X holds the seeds with their pivot coordinates
    back-substituted.  Its order-0 columns are a Z-basis of ker A.  With
    the rows of A read as relations, the rows of Y generate the quotient
    of Z^cols and the columns of X are its coordinate functionals.
    """
    block, _, block_cols, pivots, _ = _eliminate_units(_sparse_rows(A))
    used = set(block_cols).union(c for _, c, _ in pivots)
    dirs = [(0, [(c, 1)], [(c, 1)]) for c in range(A.cols) if c not in used]
    if block.data:
        snf = smith_normal_form(block)
        vinv_t = integer_inverse(snf.V).transpose()
        for j in range(block.cols):
            d = snf.diagonal[j] if j < len(snf.diagonal) else 0
            if d != 1:
                dirs.append((d, zip(block_cols, snf.V.column(j)), zip(block_cols, vinv_t.column(j))))
    x: dict[int, dict[int, int]] = {}
    y_entries = {}
    for j, (_, seed, reader) in enumerate(dirs):
        for c, v in seed:
            if v:
                x.setdefault(c, {})[j] = v
        y_entries.update(((j, c), v) for c, v in reader)
    _back_substitute(pivots, x)
    x_entries = {(i, j): v for i, xs in x.items() for j, v in xs.items()}
    n = len(dirs)
    return [d for d, _, _ in dirs], IntMatrix(A.cols, n, x_entries), IntMatrix(n, A.cols, y_entries)


def integer_kernel(A: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """A Z-basis K of the kernel of A, and an integer left inverse L of K.

    K is A.cols x k with A*K = 0 and L is k x A.cols with L*K = I, so L*x
    is the coordinate vector over K of any kernel vector x.  SNF runs
    only on the block left over after unit elimination (see ``_split``).
    """
    orders, X, Y = _split(A)
    keep = [i for i, d in enumerate(orders) if d == 0]
    every = list(range(A.cols))
    return X.submatrix(every, keep), Y.submatrix(keep, every)


def integer_cokernel(A: IntMatrix) -> tuple[tuple[int, ...], IntMatrix, IntMatrix]:
    """Z^rows / (image of A) as a sum of cyclic groups.

    Returns (orders, C, G): ``orders`` lists each summand's order (0 for
    a free one, never 1), the columns of G (rows x n) are generators,
    and C (n x rows) maps a vector to its coordinates, with C*G = I.
    Coordinate i is defined modulo ``orders[i]``, and C*A vanishes
    modulo the orders.  The columns of A are the relations; they are
    eliminated as the rows of the transpose (see ``_split``).
    """
    orders, X, Y = _split(A.transpose())
    return tuple(orders), X.transpose(), Y.transpose()


def solve_integer(A: IntMatrix, b: list[int]) -> list[int] | None:
    """Solve A x = b over the integers.

    Unit pivots are eliminated first with ``b`` carried along; Smith
    normal form runs only on the leftover block, and the pivot rows are
    then back-substituted.

    Returns
    -------
    list[int] | None
        One integer solution, or None when the system has no integral
        solution.  Use ``integer_kernel`` for the kernel.
    """
    if len(b) != A.rows:
        raise ValueError("right-hand side length mismatch")
    block, block_rows, block_cols, pivots, rhs = _eliminate_units(_sparse_rows(A), b)
    used = set(block_rows).union(r for r, _, _ in pivots)
    if any(rhs[r] for r in range(A.rows) if r not in used):
        return None
    x: dict[int, dict[int, int]] = {}
    if block.data:
        snf = smith_normal_form(block)
        ub = snf.U.apply([rhs[r] for r in block_rows])
        y = [0] * block.cols
        for i, u in enumerate(ub):
            d = snf.diagonal[i] if i < len(snf.diagonal) else 0
            if d == 0:
                if u:
                    return None
            elif u % d:
                return None
            else:
                y[i] = u // d
        x = {c: {0: v} for c, v in zip(block_cols, snf.V.apply(y)) if v}
    _back_substitute(pivots, x, rhs)
    return [x[c][0] if c in x else 0 for c in range(A.cols)]


def solve_gf2(rows: list[int], b: list[int], ncols: int) -> tuple[int | None, list[int]]:
    """Solve a GF(2) linear system given as bitmask rows.

    Parameters
    ----------
    rows : list[int]
        Each entry is a bitmask over ``ncols`` variables (bit j set means
        variable j appears in the equation).
    b : list[int]
        Right-hand side bits, one per row.
    ncols : int
        Number of variables.

    Returns
    -------
    (solution, nullspace_basis)
        ``solution`` is a bitmask assignment or None if inconsistent;
        ``nullspace_basis`` is a list of bitmasks spanning the solution
        space of the homogeneous system.
    """
    if len(rows) != len(b):
        raise ValueError("row/rhs length mismatch")
    # Echelon form driven by lowest set bits, augmented bit at ncols.
    varmask = (1 << ncols) - 1
    pivots: dict[int, int] = {}  # pivot column -> row whose lowest bit it is
    consistent = True
    for w in (r | (bb << ncols) for r, bb in zip(rows, b)):
        while True:
            low = w & varmask
            if low == 0:
                if w:
                    consistent = False
                break
            col = (low & -low).bit_length() - 1
            if col in pivots:
                w ^= pivots[col]
            else:
                pivots[col] = w
                break
    # Back-substitute to reduced form, highest pivot first.  A pivot row
    # processed later only ever gains free-column bits from this, so
    # stale scan bits are harmless: they fail the pivot test and skip.
    for col in sorted(pivots, reverse=True):
        w = pivots[col]
        scan = (w & varmask) ^ (1 << col)
        while scan:
            b2 = (scan & -scan).bit_length() - 1
            scan ^= 1 << b2
            if b2 in pivots:
                w ^= pivots[b2]
        pivots[col] = w
    nullspace = _gf2_nullspace(pivots, ncols)
    if not consistent:
        return None, nullspace
    sol = 0
    for col, w in pivots.items():
        if (w >> ncols) & 1:
            sol |= 1 << col
    return sol, nullspace


def _gf2_nullspace(pivots: dict[int, int], ncols: int) -> list[int]:
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free_cols:
        vec = 1 << f
        for col, w in pivots.items():
            if (w >> f) & 1:
                vec |= 1 << col
        basis.append(vec)
    return basis


def modp_rank(A: IntMatrix, p: int) -> int:
    """Rank of A over the prime field GF(p): its elementary divisors prime to p."""
    return sum(1 for d in elementary_divisors(A) if d % p)
