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

Every reduction returns its pivot rows, which a caller uses to clear (skip)
columns of the next boundary down: the field reductions as a set, the Smith
reduction as a dict of invariant factors whose keys >= 0 are its unit pivot
rows.  Over Z only those may be cleared (see `homology._homology`).  The
integer echelon also certifies a torsion-free cokernel whenever every pivot
ends up at +-1.

A boundary column need not be built to be placed.  Given face masks and a
per-face `build`, the loop reads a face's lowest row off its mask, the face
minus its top vertex, with coefficient +-1.  If that row is free, the mask
itself becomes the pivot and nothing is built; a column is built only when
its row is taken, and a stored mask only when it reduces another column.
This extends clearing's "never build what reduces to zero" to pivots that
are never used (as Ripser does with its implicit boundary matrix: Bauer,
J. Appl. Comput. Topol. 2021).  The elimination itself, every step and
every pivot row, is the same as on the built columns.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

# Miller-Rabin on the 13 prime bases up to 41 is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Whether p is prime, by deterministic Miller-Rabin.

    Raises ValueError for p >= MR_BOUND rather than give an unproven answer.
    """
    if p >= MR_BOUND:
        raise ValueError(f"cannot decide whether {p} is prime: only p < {MR_BOUND} is supported")
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    s = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _eliminate(columns: Iterable, reduce: Callable, build: Callable | None = None) -> dict:
    """Reduce each column while its lowest row r is some pivot's row.

    `reduce(col, piv, r, pivots)` returns col cleared at row r by piv =
    pivots[r] (it may also replace pivots[r]); a column left nonzero at a
    free row becomes that row's pivot.  Returns the pivot map, keyed by row.

    With `build`, each column is given as a face mask and `build(face)`
    makes its boundary column.  A face whose lowest row is free is stored as
    its mask (an int) and built, in place, only when it is used as piv.
    """
    pivots: dict = {}
    for col in columns:
        if build is not None:
            r = col ^ 1 << col.bit_length() - 1
            if r not in pivots:
                pivots[r] = col
                continue
            col = build(col)
        while col:
            r = min(col)
            piv = pivots.get(r)
            if piv is None:
                pivots[r] = col
                break
            if type(piv) is int:
                piv = pivots[r] = build(piv)
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


def gf2_rank(columns: Iterable, build: Callable[[int], set[int]] | None = None) -> set[int]:
    """Pivot rows of a GF(2) matrix given as columns of nonzero row indices,
    or as face masks whose row sets `build` makes (see `_eliminate`).

    The rank is the number of pivot rows.
    """
    if build is None:
        columns = (set(rows) for rows in columns)
    return set(_eliminate(columns, _gf2_step, build))


def modp_rank(
    columns: Iterable, p: int, build: Callable[[int], dict[int, int]] | None = None
) -> set[int]:
    """Pivot rows of a GF(p) matrix given as sparse columns (row -> value),
    or as face masks whose +-1 columns `build` makes (see `_eliminate`).

    The rank is the number of pivot rows.
    """
    if not is_prime(p):
        raise ValueError(f"GF({p}) is not a field: {p} is not prime")

    def step(col, piv, r, pivots):
        return _combine(1, col, -col[r] * pow(piv[r], -1, p), piv, p)

    if build is None:
        columns = ({r: v % p for r, v in raw.items() if v % p} for raw in columns)
    return set(_eliminate(columns, step, build))


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


def smith_invariant_factors(
    columns: Iterable, build: Callable[[int], dict[int, int]] | None = None
) -> dict[int, int]:
    """Nontrivial Smith normal form of the column lattice, its columns given
    as sparse columns (row >= 0 -> int) or as face masks whose +-1 columns
    `build` makes (see `_eliminate`): one positive factor per pivot.

    Each unit pivot's row maps to 1.  The other pivot columns are cleared at
    the unit pivot rows and finished by a small dense Smith reduction, whose
    diagonal goes, in divisibility order, under the keys ~r < 0 of their
    pivot rows r.  So the values, in order, are the invariant factors
    d_1 | d_2 | ... | d_rank, and the cokernel is torsion-free iff all are 1.
    """
    pivots = _eliminate(columns, _z_step, build) if build else integer_column_echelon(columns)
    # A stored face mask is an unbuilt boundary column: its pivot is +-1.
    units = {r: col for r, col in pivots.items() if type(col) is int or abs(col[r]) == 1}
    rest = {r: col for r, col in sorted(pivots.items()) if r not in units}
    # A unit column has no row below its pivot, so clearing rows lowest
    # first only adds entries in rows still to come.
    unit_rows = sorted(units)
    for j, col in rest.items():
        for r in unit_rows:
            if v := col.get(r):
                unit = units[r]
                if type(unit) is int:
                    unit = units[r] = build(unit)
                col = _combine(1, col, -v * unit[r], unit)
        rest[j] = col
    # One dense row per column: the transpose has the same Smith form.
    rows = sorted({r for col in rest.values() for r in col})
    diagonal = _dense_smith_diagonal([[col.get(r, 0) for r in rows] for col in rest.values()])
    factors = dict.fromkeys(units, 1)
    factors.update(zip([~r for r in rest], diagonal))
    return factors


def _dense_smith_diagonal(mat: list[list[int]]) -> list[int]:
    """Classical Smith reduction of a dense integer matrix.

    Returns the positive diagonal entries in divisibility order.  Each pass
    moves an entry of least absolute value to the corner and reduces its row
    and column by it; a nonzero remainder, or an entry it does not divide
    (whose row is added to the corner's), is smaller than the corner or
    leaves one that is, so passes end.
    """
    diag: list[int] = []
    while entries := [(abs(v), i, j) for i, row in enumerate(mat) for j, v in enumerate(row) if v]:
        _, i, j = min(entries)
        mat[0], mat[i] = mat[i], mat[0]
        for row in mat:
            row[0], row[j] = row[j], row[0]
        corner = mat[0][0]
        for row in mat[1:]:
            q = row[0] // corner
            row[:] = [v - q * c for v, c in zip(row, mat[0])]
        for k in range(1, len(mat[0])):
            q = mat[0][k] // corner
            for row in mat:
                row[k] -= q * row[0]
        if any(row[0] for row in mat[1:]) or any(mat[0][1:]):
            continue
        offender = next((row for row in mat[1:] if any(v % corner for v in row)), None)
        if offender is not None:
            mat[0] = [a + b for a, b in zip(mat[0], offender)]
            continue
        diag.append(abs(corner))
        mat = [row[1:] for row in mat[1:]]
    return diag
