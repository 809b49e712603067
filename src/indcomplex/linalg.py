"""Exact sparse linear algebra for boundary matrices.

Every ring shares one elimination, `_eliminate`: a left-to-right column
reduction that keeps a map from pivot row (a column's lowest nonzero row)
to the reduced column that owns it.  While a column's pivot row is taken,
one ring-specific step clears it against the owner:

* GF(2): a column is the set of its nonzero rows; the step is `col ^= piv`.
* GF(p): a column is a dict {row: value mod p}; the step subtracts
  col[r] * piv[r]^-1 * piv, so pivot columns are never normalized.
* Z: a column is a dict {row: int}; the step subtracts a multiple of the
  pivot when its entry divides the column's, and otherwise replaces both by
  extended-gcd combinations (unimodular, so the column lattice is kept).

The field reductions return their pivot rows, which a caller can use to
clear (skip) columns of the next boundary down that are known to reduce to
zero.  The integer echelon also certifies a torsion-free cokernel whenever
every pivot ends up at +-1.
"""

from __future__ import annotations

from math import isqrt
from typing import Callable, Iterable, Mapping


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))


def _eliminate(columns: Iterable, reduce: Callable) -> dict:
    """Reduce each column while its lowest row r is some pivot's row.

    `reduce(col, piv, r, pivots)` returns col cleared at row r by piv =
    pivots[r] (it may also replace pivots[r]); a column left nonzero at a
    free row becomes that row's pivot.  Returns the pivot map, keyed by row.
    """
    pivots: dict = {}
    for col in columns:
        while col:
            r = min(col)
            piv = pivots.get(r)
            if piv is None:
                pivots[r] = col
                break
            col = reduce(col, piv, r, pivots)
    return pivots


def _combine(
    ca: int, a: Mapping[int, int], cb: int, b: Mapping[int, int], p: int = 0
) -> dict[int, int]:
    """ca * a + cb * b, reduced mod p when p is nonzero, dropping zeros."""
    out = dict(a) if ca == 1 else {k: ca * v for k, v in a.items() if ca * v}
    for k, v in b.items():
        val = out.get(k, 0) + cb * v
        if p:
            val %= p
        if val:
            out[k] = val
        else:
            out.pop(k, None)
    return out


def _gf2_step(col: set[int], piv: set[int], r: int, pivots: dict) -> set[int]:
    col ^= piv
    return col


def gf2_rank(columns: Iterable[Iterable[int]]) -> set[int]:
    """Pivot rows of a GF(2) matrix given as columns of nonzero row indices.

    The rank is the number of pivot rows.
    """
    return set(_eliminate((set(rows) for rows in columns), _gf2_step))


def modp_rank(columns: Iterable[Mapping[int, int]], p: int) -> set[int]:
    """Pivot rows of a GF(p) matrix given as sparse columns (row -> value).

    The rank is the number of pivot rows.
    """
    if not is_prime(p):
        raise ValueError(f"GF({p}) is not a field: {p} is not prime")

    def step(col, piv, r, pivots):
        return _combine(1, col, -col[r] * pow(piv[r], -1, p), piv, p)

    cols = ({r: v % p for r, v in raw.items() if v % p} for raw in columns)
    return set(_eliminate(cols, step))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, w) with u*a + w*b = g = gcd(a, b), g > 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_w, w = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_w, w = w, old_w - q * w
    if old_r < 0:
        old_r, old_u, old_w = -old_r, -old_u, -old_w
    return old_r, old_u, old_w


def _z_step(col: dict[int, int], piv: dict[int, int], r: int, pivots: dict) -> dict[int, int]:
    a, b = piv[r], col[r]
    if b % a == 0:
        return _combine(1, col, -(b // a), piv)
    g, u, w = _xgcd(a, b)
    pivots[r] = _combine(u, piv, w, col)
    return _combine(a // g, col, -(b // g), piv)


def integer_column_echelon(
    columns: Iterable[Mapping[int, int]],
) -> dict[int, dict[int, int]]:
    """Column echelon form over Z via unimodular column operations.

    Returns the pivot columns keyed by their lowest nonzero row.  The
    number of pivots is the rank over Q (and over Z), and the pivot columns
    span the same lattice as the input columns.
    """
    return _eliminate(({r: v for r, v in raw.items() if v} for raw in columns), _z_step)


def smith_invariant_factors(columns: Iterable[Mapping[int, int]]) -> list[int]:
    """Nontrivial part of the Smith normal form of the column lattice.

    Returns the invariant factors d_1 | d_2 | ... | d_r (r = rank, all
    positive).  The cokernel of the matrix is torsion-free iff all factors
    are 1.  Each pivot column with a unit pivot contributes a factor 1; the
    other pivot columns are cleared at the unit pivot rows and finished by a
    small dense Smith reduction.
    """
    pivots = integer_column_echelon(columns)
    units = {r: col for r, col in pivots.items() if abs(col[r]) == 1}
    rest = [col for r, col in sorted(pivots.items()) if r not in units]
    # A unit column has no row below its pivot, so clearing rows lowest
    # first only adds entries in rows still to come.
    unit_rows = sorted(units)
    for j, col in enumerate(rest):
        for r in unit_rows:
            if v := col.get(r):
                col = _combine(1, col, -v * units[r][r], units[r])
        rest[j] = col
    dense_rows = sorted({k for col in rest for k in col})
    row_pos = {r: i for i, r in enumerate(dense_rows)}
    mat = [[0] * len(rest) for _ in dense_rows]
    for j, col in enumerate(rest):
        for r, v in col.items():
            mat[row_pos[r]][j] = v
    return [1] * len(units) + _dense_smith_diagonal(mat)


def _dense_smith_diagonal(mat: list[list[int]]) -> list[int]:
    """Classical Smith reduction of a dense integer matrix.

    Returns the positive diagonal entries in divisibility order.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    diag: list[int] = []
    t = 0
    while t < min(m, n):
        # Find a nonzero entry of minimal absolute value in the submatrix.
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = mat[i][j]
                if v and (best is None or abs(v) < abs(mat[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        mat[t], mat[bi] = mat[bi], mat[t]
        for row in mat:
            row[t], row[bj] = row[bj], row[t]

        # Eliminate row/column t; restart whenever a smaller remainder appears.
        while True:
            pivot = mat[t][t]
            restart = False
            for i in range(t + 1, m):
                if mat[i][t]:
                    q = mat[i][t] // pivot
                    for j in range(t, n):
                        mat[i][j] -= q * mat[t][j]
                    if mat[i][t]:
                        mat[t], mat[i] = mat[i], mat[t]
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if mat[t][j]:
                    q = mat[t][j] // pivot
                    for i in range(t, m):
                        mat[i][j] -= q * mat[i][t]
                    if mat[t][j]:
                        for i in range(t, m):
                            mat[i][t], mat[i][j] = mat[i][j], mat[i][t]
                        restart = True
                        break
            if not restart:
                break

        # Enforce divisibility: pivot must divide every remaining entry.
        pivot = mat[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if mat[i][j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(t, n):
                mat[t][j] += mat[offender][j]
            continue
        diag.append(abs(pivot))
        t += 1
    return diag
