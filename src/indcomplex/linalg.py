"""Exact sparse linear algebra for boundary matrices.

Ranks are computed by a left-to-right column reduction: each column is
reduced against the pivot columns found so far, keyed by their highest
nonzero row.  Over GF(2) a column is the set of its nonzero rows and adding
a pivot column is a symmetric difference; over GF(p) and the integers
columns are dicts mapping row index to coefficient.  The field reductions
return their pivot rows, which a caller can use to clear (skip) columns of
the next boundary down that are known to reduce to zero.  Integer
elimination uses extended-gcd column combinations (unimodular, so the
column space is preserved), which also certifies a torsion-free cokernel
whenever every pivot ends up at +-1.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Mapping


def gf2_rank(columns: Iterable[Iterable[int]]) -> set[int]:
    """Pivot rows of a GF(2) matrix given as columns of nonzero row indices.

    The rank is the number of pivot rows.  A column's pivot is its highest
    row; each working column is a set, so adding a pivot column is `^=`.
    """
    pivots: dict[int, set[int]] = {}
    for rows in columns:
        col = set(rows)
        while col:
            r = max(col)
            piv = pivots.get(r)
            if piv is None:
                pivots[r] = col
                break
            col ^= piv
    return set(pivots)


def modp_rank(columns: Iterable[Mapping[int, int]], p: int) -> set[int]:
    """Pivot rows of a GF(p) matrix given as sparse columns (row -> value).

    The rank is the number of pivot rows.
    """
    if p < 2:
        raise ValueError(f"modulus must be a prime >= 2, got {p}")
    pivots: dict[int, dict[int, int]] = {}
    for raw in columns:
        col = {r: v % p for r, v in raw.items() if v % p}
        while col:
            r = max(col)
            piv = pivots.get(r)
            if piv is None:
                inv = pow(col[r], -1, p)
                pivots[r] = {k: (v * inv) % p for k, v in col.items()}
                break
            c = col[r]
            nxt = dict(col)
            for k, v in piv.items():
                val = (nxt.get(k, 0) - c * v) % p
                if val:
                    nxt[k] = val
                else:
                    nxt.pop(k, None)
            col = nxt
    return set(pivots)


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


def _combine(col: dict[int, int], other: dict[int, int], factor: int) -> dict[int, int]:
    """col + factor * other, dropping zeros."""
    out = dict(col)
    for k, v in other.items():
        val = out.get(k, 0) + factor * v
        if val:
            out[k] = val
        else:
            out.pop(k, None)
    return out


def _scaled_combine(
    ca: int, a: dict[int, int], cb: int, b: dict[int, int]
) -> dict[int, int]:
    """ca * a + cb * b, dropping zeros."""
    out = {k: ca * v for k, v in a.items() if ca * v}
    return _combine(out, b, cb) if cb else out


def integer_column_echelon(
    columns: Iterable[Mapping[int, int]],
) -> dict[int, dict[int, int]]:
    """Column echelon form over Z via unimodular column operations.

    Returns the pivot columns keyed by their highest nonzero row.  The
    number of pivots is the rank over Q (and over Z), and the pivot columns
    span the same lattice as the input columns.
    """
    pivots: dict[int, dict[int, int]] = {}
    for raw in columns:
        col = {r: v for r, v in raw.items() if v}
        while col:
            r = max(col)
            piv = pivots.get(r)
            if piv is None:
                pivots[r] = col
                break
            a, b = piv[r], col[r]
            if b % a == 0:
                col = _combine(col, piv, -(b // a))
            else:
                g, u, w = _xgcd(a, b)
                pivots[r] = _scaled_combine(u, piv, w, col)
                col = _scaled_combine(a // g, col, -(b // g), piv)
    return pivots


def smith_invariant_factors(columns: Iterable[Mapping[int, int]]) -> list[int]:
    """Nontrivial part of the Smith normal form of the column lattice.

    Returns the invariant factors d_1 | d_2 | ... | d_r (r = rank, all
    positive).  The cokernel of the matrix is torsion-free iff all factors
    are 1.  Columns that already reduce with unit pivots take a fast path;
    any leftover non-unit block is finished by a small dense Smith
    reduction.
    """
    pivots = integer_column_echelon(columns)
    if all(abs(col[r]) == 1 for r, col in pivots.items()):
        return [1] * len(pivots)
    dense_rows = sorted({k for col in pivots.values() for k in col})
    row_pos = {r: i for i, r in enumerate(dense_rows)}
    mat = [[0] * len(pivots) for _ in dense_rows]
    for j, (_, col) in enumerate(sorted(pivots.items())):
        for r, v in col.items():
            mat[row_pos[r]][j] = v
    return _dense_smith_diagonal(mat)


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
