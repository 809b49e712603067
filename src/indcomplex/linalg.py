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

import math
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
    columns: Iterable, build: Callable[[int], dict[int, int]] | None = None
) -> dict:
    """Column echelon form over Z via unimodular column operations, of
    sparse columns or of face masks that `build` makes (see `_eliminate`).

    Returns the pivot columns keyed by their lowest nonzero row.  The
    number of pivots is the rank over Q (and over Z), and the pivot columns
    span the same lattice as the input columns.
    """
    if build is None:
        columns = ({r: v for r, v in raw.items() if v} for raw in columns)
    return _eliminate(columns, _z_step, build)


def smith_invariant_factors(
    columns: Iterable, build: Callable[[int], dict[int, int]] | None = None
) -> dict[int, int]:
    """Nontrivial Smith normal form of the column lattice, its columns given
    as sparse columns (row >= 0 -> int) or as face masks whose +-1 columns
    `build` makes (see `_eliminate`): one positive factor per pivot.

    Each unit pivot's row maps to 1.  The other pivot columns are cleared at
    the unit pivot rows and finished by `_smith_finish`, whose diagonal goes,
    in divisibility order, under the keys ~r < 0 of their pivot rows r.  So
    the values, in order, are the invariant factors d_1 | d_2 | ... |
    d_rank, and the cokernel is torsion-free iff all are 1.
    """
    pivots = integer_column_echelon(columns, build)
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
    factors = dict.fromkeys(units, 1)
    factors.update(zip([~r for r in rest], _smith_finish(rest)))
    return factors


def _smith_finish(block: dict[int, dict[int, int]]) -> list[int]:
    """Invariant factors, in divisibility order, of a column echelon block
    keyed by pivot row.

    Each pass runs the shared echelon on the transpose, its vectors fed
    lowest label first, until every vector keeps one entry.  Passes end.
    After a pass the lowest label L holds one entry, +-gcd of its row: every
    vector with an entry there has L as its lowest, and unimodular steps
    keep that gcd.  The next pass reduces this vector first, so its entry
    becomes the gcd of its column: it keeps its value only if it divides the
    whole column, which the pass then clears, and otherwise drops to a
    proper divisor.  Once it divides its row and its column it is alone in
    both, and no later pass touches it; the same then holds for the next
    label.  Last, diag(a, b) ~ diag(gcd(a, b), lcm(a, b)) on each pair in
    order puts the diagonal in divisibility order.
    """
    while any(len(vec) > 1 for vec in block.values()):
        transpose: dict[int, dict[int, int]] = {}
        for j, vec in block.items():
            for i, v in vec.items():
                transpose.setdefault(i, {})[j] = v
        block = _eliminate((transpose[i] for i in sorted(transpose)), _z_step)
    diag = [abs(v) for vec in block.values() for v in vec.values()]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = math.gcd(diag[i], diag[j]), math.lcm(diag[i], diag[j])
    return diag
