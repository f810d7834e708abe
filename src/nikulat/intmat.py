"""Exact integer matrix arithmetic: determinants and the Smith normal form.

Matrices are immutable tuples of tuples of Python ints, so every intermediate value is
arbitrary precision.  Products G.x are the lattice's compiled kernels.  The Smith form
returns its diagonal and the inverse of its row transform, all that the lattice reads.
"""

from __future__ import annotations

from dataclasses import dataclass

Matrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]


def freeze(rows) -> Matrix:
    """Copy a row-iterable of int-iterables into a rectangular tuple matrix.

    Entries are not coerced: a float, bool or string raises ``ValueError``.
    """
    out = tuple(map(tuple, rows))
    if not out or not out[0]:
        raise ValueError("matrix must be nonempty")
    bad = [x for row in out for x in row if type(x) is not int]
    if bad:
        raise ValueError(f"matrix entry {bad[0]!r} is not an integer")
    width = len(out[0])
    if any(len(row) != width for row in out):
        raise ValueError("matrix rows have unequal lengths")
    return out


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


# no caller in src: kept because perfbench/tracing.py wraps it by name
def matvec(m: Matrix, v: IntVector) -> IntVector:
    if len(m[0]) != len(v):
        raise ValueError(f"shape mismatch: {len(m)}x{len(m[0])} times vector of length {len(v)}")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def det(m: Matrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination; exact."""
    n = len(m)
    if len(m[0]) != n:
        raise ValueError("determinant of a non-square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """L @ m @ R == diag for unimodular L and R, of which only ``left_inv`` = L^-1 is kept.

    ``diag`` has nonnegative diagonal entries, each dividing the next, which
    ``lattice.discriminant_group`` reads; ``lattice.saturate`` reads both fields.
    """

    diag: Matrix
    left_inv: Matrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.diag[i][i] for i in range(min(len(self.diag), len(self.diag[0]))))


def smith_decomposition(m: Matrix) -> SmithDecomposition:
    """Smith normal form of m and the inverse of its row transform; no column transform.

    Classic pivot-and-reduce elimination: the absolutely smallest nonzero
    entry of the trailing block is moved to the pivot, row/column remainders
    are swapped in until the pivot divides its whole row and column, the
    edging is cleared, and a trailing entry not divisible by the pivot (if
    any) is folded into the pivot row and the step repeats.  Each swap-in
    strictly shrinks the pivot, so the loop terminates.
    """
    m = freeze(m)
    nrows, ncols = len(m), len(m[0])
    a = [list(row) for row in m]
    left_inv = [list(row) for row in identity(nrows)]

    def row_add(i: int, j: int, c: int) -> None:
        # row_i += c * row_j ; inverse transform gets col_j -= c * col_i
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for r in range(nrows):
            left_inv[r][j] -= c * left_inv[r][i]

    def row_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        for r in range(nrows):
            left_inv[r][i], left_inv[r][j] = left_inv[r][j], left_inv[r][i]

    def row_negate(i: int) -> None:
        a[i] = [-x for x in a[i]]
        for r in range(nrows):
            left_inv[r][i] = -left_inv[r][i]

    def col_add(j: int, k: int, c: int) -> None:
        for r in range(nrows):
            a[r][j] += c * a[r][k]

    def col_swap(j: int, k: int) -> None:
        for r in range(nrows):
            a[r][j], a[r][k] = a[r][k], a[r][j]

    for t in range(min(nrows, ncols)):
        # pivot: smallest absolute nonzero entry of the trailing block
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            row_swap(t, pivot[0])
        if pivot[1] != t:
            col_swap(t, pivot[1])

        while True:
            if a[t][t] < 0:
                row_negate(t)
            p = a[t][t]

            i = next((r for r in range(t + 1, nrows) if a[r][t] % p), None)
            if i is not None:
                row_add(i, t, -(a[i][t] // p))
                row_swap(t, i)
                continue
            for r in range(t + 1, nrows):
                if a[r][t]:
                    row_add(r, t, -(a[r][t] // p))

            j = next((c for c in range(t + 1, ncols) if a[t][c] % p), None)
            if j is not None:
                col_add(j, t, -(a[t][j] // p))
                col_swap(t, j)
                continue
            for c in range(t + 1, ncols):
                if a[t][c]:
                    col_add(c, t, -(a[t][c] // p))

            bad = next(
                (r for r in range(t + 1, nrows) if any(a[r][c] % p for c in range(t + 1, ncols))),
                None,
            )
            if bad is not None:
                row_add(t, bad, 1)
                continue
            break

    # a is diagonal up to sign bookkeeping already handled per pivot
    return SmithDecomposition(diag=freeze(a), left_inv=freeze(left_inv))
