"""Smith normal form over the integers, with exact (big) integer arithmetic.

One pivot loop eliminates the rows, kept as dicts column -> entry with a
column -> rows index.  The pivot rule: while some row holds a +-1 entry,
the shortest such row pivots on its +-1 entry of shortest column;
otherwise an entry of least absolute value is the pivot.  A pivot step
first reduces the pivot's column by row operations, leaving each other row
its remainder there.  Once that column is clear, column operations reduce
the rest of the pivot's row; they touch no other row.  A nonzero remainder
is smaller than the pivot, and the loop picks its next pivot.  With no
remainder left, the row and column split off as one diagonal entry |p|; a
+-1 pivot always does so at once.  Every step either removes a row or
lowers the least entry, so the loop ends.  Boundary and exponent matrices
are mostly +-1, so few steps take another pivot.

A gcd/lcm exchange pass then puts the diagonal entries above 1 into the
chain d_1 | d_2 | ....  The invariant factors are unique, so the pivot
order changes only the cost, never the result.
"""

from __future__ import annotations

import heapq
from itertools import compress
from math import gcd


def smith_normal_form(matrix):
    """Nonzero invariant factors d_1 | d_2 | ... (all >= 1) of an integer matrix.

    The matrix is a list of rows of ints.  len(result) equals the rank of
    the matrix; the divisibility chain d_1 | d_2 | ... holds.
    """
    if not _all_ints(matrix):
        raise ValueError("matrix entries must be ints")
    cols = len(matrix[0]) if matrix else 0
    columns = range(cols)
    rows = []
    for row in matrix:
        if len(row) != cols:
            raise ValueError("ragged matrix")
        rows.append({j: row[j] for j in compress(columns, row)})
    column = {}
    for i, row in enumerate(rows):
        for j in row:
            column.setdefault(j, set()).add(i)
    # (row length, row): an entry is stale once its row is gone or has
    # changed length.  A row with no unit is dropped when popped; a change
    # that could give it one pushes it again.
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    diagonal = []
    while pivot := _unit_pivot(heap, rows, column) or _least_entry(rows):
        i, j = pivot
        pivot_row = rows[i]
        p = pivot_row[j]
        # Row operations leave each other row its remainder in column j.
        for k in column[j] - {i}:
            row = rows[k]
            q = row[j] // p
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
        if len(column[j]) > 1:
            continue
        # Column j is clear, so column operations touch the pivot row alone.
        # Beside a +-1 pivot they leave no remainder, and are skipped.
        if p != 1 and p != -1:
            for jj, v in list(pivot_row.items()):
                if r := v % p:
                    pivot_row[jj] = r
                elif jj != j:
                    del pivot_row[jj]
                    column[jj].discard(i)
            if len(pivot_row) > 1:
                heapq.heappush(heap, (len(pivot_row), i))
                continue
        rows[i] = None
        for jj in pivot_row:
            column[jj].discard(i)
        diagonal.append(abs(p))
    chain = _divisibility_chain([d for d in diagonal if d > 1])
    return [1] * (len(diagonal) - len(chain)) + chain


def _all_ints(matrix):
    """Whether every entry is an int.  A sum over ints is an int, and an
    entry of any other type turns it into that type or makes it raise.  The
    sums run in C; an isinstance test per entry would cost about half as
    much again as eliminating a mostly zero boundary matrix."""
    try:
        return type(sum(map(sum, matrix))) is int
    except (TypeError, ArithmeticError):
        return False


def _unit_pivot(heap, rows, column):
    """(row, column) of the next +-1 pivot, or None once no row holds one."""
    while heap:
        n, i = heapq.heappop(heap)
        row = rows[i]
        if row is None or len(row) != n:
            continue
        units = [j for j, v in row.items() if v == 1 or v == -1]
        if units:
            return i, min(units, key=lambda j: len(column[j]))
    return None


def _least_entry(rows):
    """(row, column) of an entry of least absolute value, or None."""
    entries = ((abs(v), i, j) for i, row in enumerate(rows) if row
               for j, v in row.items())
    least = min(entries, default=None)
    return least[1:] if least else None


def _divisibility_chain(d):
    """Diagonal entries, all > 1, exchanged pairwise for their gcd and lcm
    into the chain d_1 | d_2 | ..., which may begin with 1s."""
    for a in range(len(d)):
        for b in range(a + 1, len(d)):
            g = gcd(d[a], d[b])
            d[a], d[b] = g, d[a] // g * d[b]
    return d
