"""Smith normal form over the integers, with exact (big) integer arithmetic.

The kernel runs in two phases.  First, sparse elimination on unit pivots:
rows are dicts column -> entry with a column -> rows index, and while some
row holds a +-1 entry, the shortest such row pivots on its +-1 entry of
shortest column, clearing that column by row operations; its row and column
then split off as one invariant factor 1, since the rest of its row is
cleared by column operations that touch nothing else.  Boundary and exponent
matrices are mostly +-1, so this leaves a small residual core.  Second, the
Euclidean SNF loop runs densely on that core.  The invariant factors are
unique, so the pivot order changes only the cost, never the result.
"""

from __future__ import annotations

import heapq
from itertools import compress


def smith_normal_form(matrix):
    """Nonzero invariant factors d_1 | d_2 | ... (all >= 1) of an integer matrix.

    The matrix is a list of rows.  len(result) equals the rank of the matrix;
    the divisibility chain d_1 | d_2 | ... holds.
    """
    cols = len(matrix[0]) if matrix else 0
    columns = range(cols)
    rows = []
    for row in matrix:
        if len(row) != cols:
            raise ValueError("ragged matrix")
        rows.append({j: int(row[j]) for j in compress(columns, row)})
    units = _eliminate_unit_pivots(rows)
    return [1] * units + _euclidean_factors(_dense_core(rows))


def _eliminate_unit_pivots(rows):
    """Eliminate +-1 pivots in place (eliminated rows become None) and
    return how many there were.  No +-1 entry is left in the other rows."""
    column = {}
    for i, row in enumerate(rows):
        for j in row:
            column.setdefault(j, set()).add(i)
    # (row length, row): an entry is stale once its row is gone or has
    # changed length.  A row with no unit is dropped when popped; a row
    # operation that could give it one pushes it again.
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    units = 0
    while heap:
        n, i = heapq.heappop(heap)
        pivot_row = rows[i]
        if pivot_row is None or len(pivot_row) != n:
            continue
        candidates = [j for j, v in pivot_row.items() if v == 1 or v == -1]
        if not candidates:
            continue
        j = min(candidates, key=lambda jj: len(column[jj]))
        units += 1
        rows[i] = None
        for jj in pivot_row:
            column[jj].discard(i)
        p = pivot_row.pop(j)
        for k in column.pop(j):
            row = rows[k]
            q = row.pop(j) * p  # p is its own inverse
            for jj, v in pivot_row.items():
                w = row.get(jj, 0) - q * v
                if w:
                    if jj not in row:
                        column[jj].add(k)
                    row[jj] = w
                elif jj in row:
                    del row[jj]
                    column[jj].discard(k)
            heapq.heappush(heap, (len(row), k))
    return units


def _dense_core(rows):
    """The nonzero rows left after elimination, over their nonzero columns."""
    rows = [row for row in rows if row]
    index = {j: n for n, j in enumerate(sorted({j for row in rows for j in row}))}
    core = []
    for row in rows:
        dense = [0] * len(index)
        for j, v in row.items():
            dense[index[j]] = v
        core.append(dense)
    return core


def _euclidean_factors(a):
    rows = len(a)
    cols = len(a[0]) if rows else 0
    factors = []
    top = 0
    while top < rows and top < cols:
        pivot = _smallest_nonzero(a, top)
        if pivot is None:
            break
        _swap_to_pivot(a, top, pivot)
        _diagonalise_at(a, top, rows, cols)
        if a[top][top] < 0:
            for j in range(top, cols):
                a[top][j] = -a[top][j]
        factors.append(a[top][top])
        top += 1
    return factors


def _smallest_nonzero(a, top):
    best = None
    best_val = None
    for i in range(top, len(a)):
        for j in range(top, len(a[0])):
            v = abs(a[i][j])
            if v and (best_val is None or v < best_val):
                best, best_val = (i, j), v
    return best


def _swap_to_pivot(a, top, pivot):
    i, j = pivot
    a[top], a[i] = a[i], a[top]
    for row in a:
        row[top], row[j] = row[j], row[top]


def _diagonalise_at(a, top, rows, cols):
    """Clear row and column `top` and make the pivot divide the rest."""
    while True:
        d = a[top][top]
        dirty = False
        for i in range(top + 1, rows):
            if a[i][top]:
                q = a[i][top] // d
                for j in range(top, cols):
                    a[i][j] -= q * a[top][j]
                if a[i][top]:
                    # Euclidean step: the remainder is strictly smaller.
                    a[top], a[i] = a[i], a[top]
                    dirty = True
                    break
        if dirty:
            continue
        for j in range(top + 1, cols):
            if a[top][j]:
                q = a[top][j] // d
                for i in range(top, rows):
                    a[i][j] -= q * a[i][top]
                if a[top][j]:
                    for i in range(top, rows):
                        a[i][top], a[i][j] = a[i][j], a[i][top]
                    dirty = True
                    break
        if dirty:
            continue
        bad = _non_divisible_row(a, top, rows, cols)
        if bad is None:
            return
        for j in range(top, cols):
            a[top][j] += a[bad][j]


def _non_divisible_row(a, top, rows, cols):
    d = a[top][top]
    for i in range(top + 1, rows):
        for j in range(top + 1, cols):
            if a[i][j] % d:
                return i
    return None
