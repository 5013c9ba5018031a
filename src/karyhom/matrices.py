"""Sparse exact linear algebra over the integers.

Rank, row-space bases and kernel bases over Q all come from one
integer-preserving elimination, `_eliminate`: rows are cross-multiplied
through the gcd of the pivot pair and stripped of their content, so no
fractions (and no floating point, hence no tolerances) appear in it.
Pivots are chosen by Markowitz cost with deterministic tie
breaking, which keeps fill-in low on the incidence-like matrices produced
by boundary maps and makes every run bit-reproducible.  A lazy heap
finds each pivot, so pivot search costs about the entries a pivot
touches rather than a rescan of the whole matrix.

A second, structurally independent elimination modulo a random word-size
prime serves as a cross-check: rank mod p never exceeds the rational
rank, and agreement at a few random primes confirms the exact value.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

from .errors import InputError, LoadError


class SparseIntMatrix:
    """Sparse integer matrix stored as {(row, col): nonzero int}."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        clean = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise InputError(
                        f"entry ({r},{c}) out of range for a {rows}x{cols} matrix"
                    )
                v = int(v)
                if v:
                    clean[(r, c)] = v
        self.entries = clean

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def row_dicts(self):
        """{row: {col: value}} over nonzero rows."""
        out = {}
        for (r, c), v in self.entries.items():
            out.setdefault(r, {})[c] = v
        return out

    def col_dicts(self):
        """{col: {row: value}} over nonzero columns."""
        out = {}
        for (r, c), v in self.entries.items():
            out.setdefault(c, {})[r] = v
        return out

    def transpose(self) -> "SparseIntMatrix":
        return SparseIntMatrix(
            self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def to_dense(self):
        dense = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            dense[r][c] = v
        return dense

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, SparseIntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return f"SparseIntMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def multiply(a: SparseIntMatrix, b: SparseIntMatrix) -> SparseIntMatrix:
    """Exact product a @ b."""
    if a.cols != b.rows:
        raise InputError(f"shape mismatch: {a.cols} vs {b.rows}")
    a_cols = a.col_dicts()
    out = {}
    for (k, c), bv in b.entries.items():
        acol = a_cols.get(k)
        if not acol:
            continue
        for i, av in acol.items():
            key = (i, c)
            out[key] = out.get(key, 0) + av * bv
    return SparseIntMatrix(a.rows, b.cols, {k: v for k, v in out.items() if v})


def _eliminate(matrix: SparseIntMatrix):
    """Fraction-free sparse elimination, yielding (pivot_col, pivot_row).

    The pivot rows are {col: int} dicts spanning the row space.  A pivot
    row is zero at the pivot columns of every row yielded before it: a
    pivot clears its column from every remaining row.  No row is kept
    after its yield, so counting the yields costs what rank costs.

    Pivot selection: lowest Markowitz cost (nnz_row-1)*(nnz_col-1),
    ties broken by smallest row index, then smallest column index.
    Candidates wait in a lazy min-heap of (cost, row, col).  A popped
    item whose entry is gone or whose cost is no longer current is
    dropped.  A pivot changes the costs only of the rows eliminated
    against it and of the columns of the pivot row, so exactly those
    entries are pushed again; the heap minimum is then the minimum over
    all remaining entries, the pivot a full scan would choose.
    """
    rows = {}
    for (r, c), v in matrix.entries.items():
        rows.setdefault(r, {})[c] = v
    col_rows = {}
    for r, row in rows.items():
        for c in row:
            col_rows.setdefault(c, set()).add(r)
    heap = [
        ((len(rows[r]) - 1) * (len(col_rows[c]) - 1), r, c) for r, c in matrix.entries
    ]
    heapify(heap)

    while rows:
        cost, pr, pc = heappop(heap)
        prow = rows.get(pr)
        if prow is None or pc not in prow:
            continue
        if cost != (len(prow) - 1) * (len(col_rows[pc]) - 1):
            continue
        yield pc, prow

        del rows[pr]
        for c in prow:
            s = col_rows[c]
            s.discard(pr)
            if not s:
                del col_rows[c]

        piv = prow[pc]
        eliminated = col_rows.pop(pc, set())
        for r in sorted(eliminated):
            row = rows[r]
            f = row.pop(pc)
            g = gcd(piv, f)
            a, b = piv // g, f // g
            if a != 1:
                for c in row:
                    row[c] *= a
            for c, pv in prow.items():
                if c == pc:
                    continue
                nv = row.get(c, 0) - b * pv
                if nv:
                    if c not in row:
                        col_rows.setdefault(c, set()).add(r)
                    row[c] = nv
                elif c in row:
                    del row[c]
                    s = col_rows[c]
                    s.discard(r)
                    if not s:
                        del col_rows[c]
            if row:
                content = 0
                for v in row.values():
                    content = gcd(content, v)
                    if content == 1:
                        break
                if content > 1:
                    for c in row:
                        row[c] //= content
            else:
                del rows[r]

        for r in eliminated:
            row = rows.get(r)
            if row:
                lr = len(row) - 1
                for c in row:
                    heappush(heap, (lr * (len(col_rows[c]) - 1), r, c))
        for c in prow:
            s = col_rows.get(c)
            if s:
                lc = len(s) - 1
                for r in s:
                    if r not in eliminated:
                        heappush(heap, ((len(rows[r]) - 1) * lc, r, c))


def rank(matrix: SparseIntMatrix) -> int:
    """Rank over the rationals: the number of pivots `_eliminate` finds."""
    return sum(1 for _ in _eliminate(matrix))


def kernel_dim(matrix: SparseIntMatrix) -> int:
    """Dimension of the rational null space: cols - rank."""
    return matrix.cols - rank(matrix)


def row_basis(matrix: SparseIntMatrix) -> list:
    """A basis of the row space over Q, as {col: int} rows."""
    return [row for _, row in _eliminate(matrix)]


def kernel_basis(matrix: SparseIntMatrix) -> list:
    """A basis of the rational null space, as {col: int} vectors.

    One vector per non-pivot column f: x_f = 1, the other non-pivot
    coordinates 0, the pivot coordinates solved from the last pivot row
    back (a pivot row involves only its own and later pivot columns),
    then scaled to coprime integers.

    The solve stays in integers: x holds a positive multiple of the
    rational solution, and solving a pivot coordinate first multiplies x
    by a = |pivot| / g, g = gcd(sum, pivot), then sets the new
    coordinate to -sign(pivot) * sum / g, which is prime to a.  So x
    stays primitive from x_f = 1 on, and ends as the one primitive
    vector with x_f > 0.
    """
    pivots = list(_eliminate(matrix))
    free = set(range(matrix.cols)).difference(pc for pc, _ in pivots)
    basis = []
    for f in sorted(free):
        x = {f: 1}
        for pc, row in reversed(pivots):
            s = sum(v * x[c] for c, v in row.items() if c in x)
            if s:
                p = row[pc]
                g = gcd(s, p)
                a = abs(p) // g
                if a != 1:
                    for c in x:
                        x[c] *= a
                x[pc] = -s // g if p > 0 else s // g
        basis.append(x)
    return basis


def rank_mod_p(matrix: SparseIntMatrix, p: int) -> int:
    """Rank of the matrix over GF(p).

    Deliberately a separate elimination (dense-in-rows, partial
    pivoting on the sparsest row) so it shares no code path with the
    rational rank it cross-checks.
    """
    rows = []
    for row in matrix.row_dicts().values():
        rr = {c: v % p for c, v in row.items() if v % p}
        if rr:
            rows.append(rr)
    rk = 0
    while rows:
        rows.sort(key=len)
        prow = rows.pop(0)
        pc = min(prow)
        inv = pow(prow[pc], p - 2, p)
        prow = {c: (v * inv) % p for c, v in prow.items()}
        rk += 1
        nxt = []
        for row in rows:
            f = row.get(pc)
            if f:
                for c, pv in prow.items():
                    nv = (row.get(c, 0) - f * pv) % p
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
            if row:
                nxt.append(row)
        rows = nxt
    return rk


# Deterministic Miller-Rabin witnesses for n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo: int = 2**30, hi: int = 2**31) -> int:
    """A random prime in [lo, hi)."""
    while True:
        n = rng.randrange(lo | 1, hi, 2)
        if is_probable_prime(n):
            return n


def write_matrix_market(matrix: SparseIntMatrix, f) -> None:
    """Write in MatrixMarket coordinate format (integer, general)."""
    if isinstance(f, (str, bytes)) or hasattr(f, "__fspath__"):
        with open(f, "w", encoding="ascii") as fh:
            write_matrix_market(matrix, fh)
        return
    f.write("%%MatrixMarket matrix coordinate integer general\n")
    f.write(f"{matrix.rows} {matrix.cols} {matrix.nnz}\n")
    for (r, c), v in sorted(matrix.entries.items()):
        f.write(f"{r + 1} {c + 1} {v}\n")


def read_matrix_market(f) -> SparseIntMatrix:
    """Read MatrixMarket coordinate format written by write_matrix_market.

    Only the "coordinate integer general" layout is accepted: a symmetric
    file stores half its entries, which this reader would silently drop.
    """
    if isinstance(f, (str, bytes)) or hasattr(f, "__fspath__"):
        with open(f, "r", encoding="ascii") as fh:
            return read_matrix_market(fh)
    header = f.readline()
    fields = header.lower().split()
    if fields != ["%%matrixmarket", "matrix", "coordinate", "integer", "general"]:
        raise LoadError(f"unsupported MatrixMarket header: {header.strip()!r}")
    line = f.readline()
    while line.startswith("%"):
        line = f.readline()
    try:
        rows, cols, nnz = (int(x) for x in line.split())
        entries = {}
        for _ in range(nnz):
            r, c, v = f.readline().split()
            entries[(int(r) - 1, int(c) - 1)] = int(v)
    except ValueError as exc:
        raise LoadError(f"truncated or malformed MatrixMarket body: {exc}") from exc
    return SparseIntMatrix(rows, cols, entries)
