"""Smith normal form over the integers, with exact (big) integer arithmetic.

A matrix is a list of sparse rows, dicts column -> int; columns may be any
hashable, and zero entries are dropped on read.  The kernel works on copies
of the rows with a column -> rows index, and no dense matrix is built.
A C-level pass looks for a zero first: without one, which is the rule
for boundary rows, each row is copied by one C-level dict copy, and only
a matrix that holds a zero (exponent rows of cancelling letters) is read
row by row without its zeros.

A pivot step on entry p at (row i, column j) first reduces column j by row
operations, leaving each other row its remainder there.  Once that column
is clear, column operations reduce the rest of row i; they touch no other
row.  A nonzero remainder is smaller than p, and the next pivot is taken.
With no remainder left, the row and column split off as one diagonal entry
|p|; a +-1 pivot always does so at once.

The pivots come in two phases, each with one rule.  First one sweep visits
each row once, shortest first, and pivots on its first +-1 entry whose
column has the fewest entries, if the row holds a +-1 entry when its turn
comes; a column that holds the pivot alone needs no row operation.
Boundary and exponent matrices are mostly +-1, so the sweep usually
leaves nothing.  Then the remainder loop pivots on an entry of least
absolute value until no row is left; every step either removes a row or
lowers the least entry, so the loop ends.

A gcd/lcm exchange pass then puts the diagonal entries above 1 into the
chain d_1 | d_2 | ....  The invariant factors are unique, so the pivot
order changes only the cost, never the result.
"""

from __future__ import annotations

from math import gcd


def smith_normal_form(matrix):
    """Nonzero invariant factors d_1 | d_2 | ... (all >= 1) of an integer matrix.

    The matrix is a list of rows, each a dict column -> int; a column
    absent from a row is 0 there.  The rows are not changed.  len(result)
    equals the rank of the matrix; the divisibility chain d_1 | d_2 | ...
    holds.  A non-int entry, zero or not, raises ValueError.
    """
    # A sum over ints is an int, and an entry of any other type turns it
    # into that type or makes it raise.  The sums run in C.
    try:
        total = sum(map(sum, map(dict.values, matrix)))
    except (TypeError, ArithmeticError):
        total = None
    if type(total) is not int:
        raise ValueError("matrix rows must be dicts with int entries")
    if all(map(all, map(dict.values, matrix))):
        rows = list(map(dict, matrix))
    else:
        rows = [{j: v for j, v in row.items() if v} for row in matrix]
    column = {}
    for i, row in enumerate(rows):
        for j in row:
            if (held := column.get(j)) is None:
                column[j] = {i}
            else:
                held.add(i)
    # The +-1 sweep.  A row leaves as soon as it pivots, and column j goes
    # with it: a +-1 pivot clears its column and row with no remainder.  Its
    # column is the row's first +-1 entry with the fewest entries; one, the
    # pivot itself, is the fewest there can be, and then no other row holds
    # column j.
    units, none = 0, len(rows) + 1
    for i in sorted(range(len(rows)), key=list(map(len, rows)).__getitem__):
        pivot_row, least = rows[i], none
        for jj, v in pivot_row.items():
            if (v == 1 or v == -1) and (n := len(column[jj])) < least:
                j, least = jj, n
                if least == 1:
                    break
        if least == none:
            continue
        rows[i] = None
        p = pivot_row.pop(j)
        for jj in pivot_row:
            column[jj].discard(i)
        others = column.pop(j)
        units += 1
        others.discard(i)
        for k in others:
            _subtract(rows, column, k, rows[k].pop(j) * p, pivot_row)
    # The remainder loop, on whatever rows the sweep left.
    diagonal = []
    while least := _least_entry(rows):
        i, j = least
        pivot_row = rows[i]
        p = pivot_row[j]
        # Row operations leave each other row its remainder in column j.
        for k in column[j] - {i}:
            _subtract(rows, column, k, rows[k][j] // p, pivot_row)
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
                continue
        rows[i] = None
        for jj in pivot_row:
            column[jj].discard(i)
        diagonal.append(abs(p))
    chain = _divisibility_chain([d for d in diagonal if d > 1])
    return [1] * (units + len(diagonal) - len(chain)) + chain


def _subtract(rows, column, k, q, pivot_row):
    """rows[k] -= q * pivot_row for a nonzero q, dropping zeros and keeping
    the column index up to date."""
    row = rows[k]
    for jj, v in pivot_row.items():
        w = row.get(jj)
        if w is None:
            row[jj] = -q * v
            column[jj].add(k)
        elif w != q * v:
            row[jj] = w - q * v
        else:
            del row[jj]
            column[jj].discard(k)


def _least_entry(rows):
    """(row, column) of an entry of least absolute value, or None.  Only
    the values are compared, never the columns."""
    return min(((i, j) for i, row in enumerate(rows) if row for j in row),
               key=lambda ij: abs(rows[ij[0]][ij[1]]), default=None)


def _divisibility_chain(d):
    """Diagonal entries, all > 1, exchanged pairwise for their gcd and lcm
    into the chain d_1 | d_2 | ..., which may begin with 1s."""
    for a in range(len(d)):
        for b in range(a + 1, len(d)):
            g = gcd(d[a], d[b])
            d[a], d[b] = g, d[a] // g * d[b]
    return d
