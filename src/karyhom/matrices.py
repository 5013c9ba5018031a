"""Sparse exact linear algebra over the integers.

Rank, row-space bases and kernel bases over Q, and the pivots of every
whole boundary (`chains.ChainLayout.pivots`, its one caller elsewhere in
the package, which keeps them counted by weight), all come from one
integer-preserving row echelon of {row: {col: int}} rows, `_eliminate`:
rows are cross-multiplied through the gcd of the pivot pair and stripped
of their content, so no fractions (and no floating point, hence no
tolerances) appear in it.  Rows are taken shortest first, ties by key,
and each is reduced at its least column while a pivot row owns that
column; a row that survives becomes the pivot row of its least column.
So every pivot row is zero below its pivot, no two pivots coincide, and
the pivots and pivot rows depend only on the row and column keys, never
on the order the rows or their entries were inserted: every run is
bit-reproducible.

`rank_mod_p` is the cross-check: a one-pass least-key echelon modulo a
prime over the same rows.  Rank mod p never exceeds the rational rank,
so agreement at any one prime confirms the exact value; the tests check
it at fixed large primes.  It shares no code with `_eliminate` (no gcd,
no content strip), so a fault in the exact elimination cannot repeat
itself in the check, and it leaves its rows unchanged, so it can run on
them before `_eliminate` reduces them in place.

`SparseIntMatrix` is the one indexed form, at the export edge:
`chains._indexed` builds it for MatrixMarket export
(`write_matrix_market`) and for `homology.theta_matrix`.  No engine path
reads it.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd


class SparseIntMatrix(namedtuple("SparseIntMatrix", "rows cols entries")):
    """A rows x cols integer matrix as {(row, col): nonzero int}."""

    __slots__ = ()

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def row_dicts(self):
        """{row: {col: value}} over nonzero rows."""
        out = {}
        for (r, c), v in self.entries.items():
            out.setdefault(r, {})[c] = v
        return out


def _eliminate(rows: dict):
    """Fraction-free sparse row echelon of {row: {col: int}} rows,
    yielding (pivot_col, pivot_row).

    Row and column keys are ints: the monomial masks of
    `chains._boundary_rows`, or plain indices.  The row dicts are reduced
    in place.  The pivot rows are {col: int} dicts of content 1 spanning
    the row space.  Rows are taken shortest first, ties by row key.  While
    the least column of a row is owned by a pivot row, the row is reduced
    there by cross-multiplication through gcd(pivot, entry); a row that
    survives is stripped of its content and becomes the pivot row of its
    least column.  So a pivot is the least column of its row, and the
    pivot rows are independent: each is zero at every column below its
    pivot, and no two share a pivot.

    The pivot columns are the least columns of the nonzero vectors of
    the row space, so they do not depend on the row keys or the tie
    order, which choose only the pivot rows.  A step replaces a row by
    a * row - b * prow with a != 0, so every pivot row lies in the row
    space, and every input row is a combination of pivot rows and of the
    row it ends as, zero or a pivot row: the pivot rows span the row
    space.  A nonzero combination of pivot rows has its least column at
    the least pivot p among the rows it uses: the row of p is nonzero at
    p, and every other row it uses is zero at p and below.

    Yielded rows are kept to reduce later rows: a caller must not change
    one before the generator is exhausted.
    """
    owner = {}  # pivot column -> its pivot row
    for r in sorted(rows, key=lambda r: (len(rows[r]), r)):
        row = rows[r]
        while row:
            pc = min(row)
            prow = owner.get(pc)
            if prow is None:
                break
            f = row.pop(pc)
            piv = prow[pc]
            g = gcd(piv, f)
            a, b = piv // g, f // g
            if a != 1:
                for c in row:
                    row[c] *= a
            for c, pv in prow.items():
                if c == pc:
                    continue
                v = row.get(c)
                if v is None:
                    row[c] = -b * pv
                elif v == b * pv:
                    del row[c]
                else:
                    row[c] = v - b * pv
        if not row:
            continue
        content = gcd(*row.values())
        if content > 1:
            for c in row:
                row[c] //= content
        owner[pc] = row
        yield pc, row


def rank(matrix: SparseIntMatrix) -> int:
    """Rank over the rationals: the number of pivots `_eliminate` finds."""
    return sum(1 for _ in _eliminate(matrix.row_dicts()))


def row_basis(rows: dict) -> list:
    """A basis over Q of the span of {row: {col: int}} rows, as {col: int}
    rows.  The rows are reduced in place."""
    return [row for _, row in _eliminate(rows)]


def kernel_basis(rows: dict, ncols: int) -> list:
    """A basis of the rational null space of {row: {col: int}} rows over
    columns 0..ncols-1, as primitive {col: int} vectors sorted by least
    column.  The rows are left unchanged.

    `_eliminate` runs on the transpose tagged with the identity: column
    c of A becomes the row e_c + A e_c, with every A key (an input row
    key) below every e key (base + c), so the rows span all (x, Ax), a
    space of dimension ncols.  The basis is the pivot rows whose pivot
    is an e key.  A pivot is the least key of its row, so such a row has
    no A part: it is an x with Ax = 0; no two pivots coincide, so these
    x are independent.  The pivot rows with an A-key pivot have
    independent A parts in the column space of A, at most rank A of
    them, so at least ncols - rank A pivots are e keys: the x span the
    kernel.
    """
    base = max(rows, default=-1) + 1
    tagged = {c: {base + c: 1} for c in range(ncols)}
    for r, row in rows.items():
        for c, v in row.items():
            tagged[c][r] = v
    return [
        {c - base: v for c, v in prow.items()}
        for pc, prow in sorted(_eliminate(tagged))  # pivots are distinct
        if pc >= base
    ]


def rank_mod_p(rows: dict, p: int) -> int:
    """Rank over GF(p), p prime, of {row: {col: int}} rows with index or
    mask keys, which are left unchanged (see the module docstring).

    Rows are taken shortest first, ties in insertion order.  Each is
    reduced mod p into a fresh dict and, while a pivot row owns its
    least column, reduced there; a row that survives is scaled to pivot
    1 and owns its least column.  The rank is the number of owners.
    """
    owner = {}  # pivot column -> its pivot row, scaled to pivot 1
    for row in sorted(rows.values(), key=len):
        row = {c: r for c, v in row.items() if (r := v % p)}
        while row:
            pc = min(row)
            prow = owner.get(pc)
            if prow is None:
                inv = pow(row[pc], -1, p)
                for c in row:
                    row[c] = row[c] * inv % p
                owner[pc] = row
                break
            f = row[pc]
            for c, pv in prow.items():
                v = (row.get(c, 0) - f * pv) % p
                if v:
                    row[c] = v
                else:
                    del row[c]  # c was in row: a new entry -f * pv is nonzero
    return len(owner)


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
