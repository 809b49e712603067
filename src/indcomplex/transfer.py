"""Transfer-matrix Euler characteristics of grid independence complexes.

The independence polynomial of the n-by-k grid evaluated at -1 is computed
by sweeping columns: states are the independent row subsets of a single
column (bitmasks with no two consecutive rows), and adjacent columns must
occupy disjoint row sets.  The unreduced Euler characteristic is then
chi = 1 - Z, where Z is that signed sum over all independent sets
(including the empty one).

One column of the sweep is k cell steps (a broken-profile sweep), so the
column-pair matrix is never stored: a column costs O(k * Fib(k + 2))
additions, and the tables that drive it take O(k * Fib(k + 2)) entries; a
width whose tables would not fit in the address space raises MemoryError.

Each column step yields two terms (`_column_terms`).  Past 2L terms, L =
#states + 1, the sweep stops stepping the model and continues by the
minimal linear recurrence of the terms it holds, once an exact check over Z
proves it for every n (`_recurrence`); otherwise it goes on column by
column.  A proven recurrence also proves a period, or else reaches a far
start from the held terms (`_chi_terms`).  Width 6 steps 22 columns, proves
period 28 from its first 44 terms, and cycles them however large n is.
Width 4 has no period and answers n = 10^18 after its 9 steps.

All arithmetic uses Python integers, which are exact at any size, so no
overflow handling is needed even where intermediate state-vector entries
grow without bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import cycle, islice
from operator import mul
from typing import Iterator

from .graphs import admit

# Peak memory per entry of k * Fib(k + 2), with headroom, for `admit`: building
# the tables grew peak RSS by 69-72 B an entry at k = 18..24 (CPython 3.11, x86-64).
BYTES_PER_ENTRY = 128

# Berlekamp-Massey works modulo this prime; an unlucky prime only costs the
# fallback to the column sweep, since every guess is checked over Z.
_PRIME = (1 << 61) - 1

Cell = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _path_sets(k: int) -> list[list[int]]:
    """For m = 0..k, the independent row subsets of an m-row path, ascending.

    A set on m rows either leaves the top row empty (a set on m - 1 rows) or
    uses it (a set on m - 2 rows plus the top bit), and every set of the
    second kind is larger than every set of the first.
    """
    paths = [[0], [0, 1]]
    for m in range(2, k + 1):
        top = 1 << (m - 1)
        paths.append(paths[m - 1] + [s | top for s in paths[m - 2]])
    return paths[: k + 1]


@dataclass(frozen=True)
class TransferModel:
    """Signed transfer matrix over column states, applied cell by cell.

    The matrix entry (s, t) is (-1)^{popcount(t)} when masks s and t are
    disjoint and 0 otherwise; `signs[t]` is that (-1)^{popcount(t)} factor.
    `step` applies the matrix as k cell steps, one per row.  Before cell i
    the frontier mask holds rows < i of the new column and rows >= i of the
    old one.  The level before cell 0 is `states`; each later level lists
    its masks with the row just swept clear first, then set, each block
    ascending, so the level after the last cell is `states` again.
    `cells[i]` holds three index tuples into the level before cell i, one
    entry per mask of the level after it:

    - `keep`, `add`: row i of the new column stays empty, so the entry sums
      the masks with old row i clear and set; `add` points one past the end
      of the level, at a zero, where old rows i and i + 1 would both be set.
    - `place`: row i of the new column is occupied, which needs old row i
      and new row i - 1 clear; the entry is the negated source.

    `compatible[t]` lists the states s with a nonzero entry (s, t), the
    column-pair form of the matrix with about 2.41^k entries.  The sweep
    does not read it; it is built on first access, for callers that count
    or inspect the matrix itself (the benchmark's model counts).
    """

    k: int
    states: tuple[int, ...]
    signs: tuple[int, ...]
    cells: tuple[Cell, ...]

    def step(self, vec: list[int]) -> list[int]:
        """One matrix-vector product: advance the sweep by one column."""
        vec = [*vec, 0]  # the zero that `add` points at
        for keep, add, place in self.cells:
            new = [vec[a] + vec[b] for a, b in zip(keep, add)]
            new += [-vec[p] for p in place]
            new.append(0)
            vec = new
        vec.pop()
        return vec

    @cached_property
    def compatible(self) -> tuple[tuple[int, ...], ...]:
        states = self.states
        return tuple(
            tuple(i for i, s in enumerate(states) if s & t == 0) for t in states
        )


# One width at a time: the guard below admits against the whole address space,
# so tables kept for other widths could make an admitted width run out of memory.
@lru_cache(maxsize=1)
def build_transfer_model(k: int) -> TransferModel:
    """The width-k model, refused before any table is built if they would not
    fit.  An admitted width first drops the cached one, so two are never held
    at once, and `cache_info()` counts hits and misses since the last miss."""
    if k < 1:  # before the cached width is dropped
        raise ValueError(f"k must be >= 1, got {k}")
    # Fib(k + 1), Fib(k + 2), from the 1-row column up; the tables are admitted
    # at each count, so a huge k is refused as soon as they pass the limit.
    fewer, count = 1, 2
    for _ in range(k - 1):
        fewer, count = count, fewer + count
        admit(f"the width-{k} transfer tables", k * count * BYTES_PER_ENTRY)
    _drop_cached_width()
    paths = _path_sets(k)
    states = tuple(paths[k])
    signs = tuple(-1 if s.bit_count() % 2 else 1 for s in states)
    cells = []
    level = states
    for i in range(k):
        # Each level is a product: independent rows below the cell (new
        # column) times independent rows above it (old column).
        bit = 1 << i
        pos = {m: j for j, m in enumerate(level)}
        missing = len(level)
        above = [s << (i + 1) for s in paths[k - i - 1]]
        clear = [a | b for a in above for b in paths[i]]
        placed = [a | bit | b for a in above for b in paths[max(i - 1, 0)]]
        cells.append(
            (
                tuple(pos[m] for m in clear),
                tuple(pos.get(m | bit, missing) for m in clear),
                tuple(pos[m ^ bit] for m in placed),
            )
        )
        level = clear + placed
    return TransferModel(k, states, signs, tuple(cells))


# Bound once, so that a tracer rebinding `build_transfer_model` keeps the drop.
_drop_cached_width = build_transfer_model.cache_clear


def _recurrence(seq: list[int], order: int) -> list[int] | None:
    """Coefficients a_1..a_e with seq[n] = sum(a_i * seq[n - i]) for e <= n < len(seq).

    Berlekamp-Massey modulo `_PRIME` (Massey, "Shift-register synthesis and
    BCH decoding", 1969) guesses the shortest such recurrence mod p; each
    coefficient is lifted to its symmetric residue.  The result is returned
    only if e <= `order` and the recurrence holds exactly over Z on every
    term of `seq`, else None.

    Why the check is a proof, when seq holds 2L terms of a sequence that some
    monic integer Q of degree L annihilates (L = `order`; for chi, Q = (x - 1)
    * charpoly(M)): with P(x) = x^e - a_1 x^(e-1) - ... - a_e, the sequence w
    = P(shift)seq is annihilated by Q too, as shifts commute.  The check makes
    w_0 .. w_(2L-1-e) zero, which covers w_0 .. w_(L-1) as e <= L, and a
    sequence annihilated by a monic Q of degree L is zero once L consecutive
    terms are.  So the recurrence holds for every n, and no value produced
    from it rests on the modular guess.
    """
    p = _PRIME
    s = [x % p for x in seq]
    # Connection polynomials: c is the current one, b the one before the
    # last length change, whose discrepancy was `last`, `gap` terms ago.
    c, b = [1], [1]
    e, gap, last = 0, 1, 1
    for n, term in enumerate(s):
        d = (term + sum(c[i] * s[n - i] for i in range(1, e + 1))) % p
        if d == 0:
            gap += 1
            continue
        scale = d * pow(last, -1, p) % p
        prev = c
        c = c + [0] * (len(b) + gap - len(c))
        for i, bi in enumerate(b):
            c[i + gap] = (c[i + gap] - scale * bi) % p
        if 2 * e <= n:
            e, b, last, gap = n + 1 - e, prev, d, 1
        else:
            gap += 1
    if e > order:
        return None
    coeffs = [(-x) % p for x in c[1:]]  # c has e + 1 entries
    coeffs = [a - p if a > p // 2 else a for a in coeffs]
    if any(
        seq[n] != sum(a * seq[n - i] for i, a in enumerate(coeffs, 1))
        for n in range(e, len(seq))
    ):
        return None
    return coeffs


def _power_of_x(m: int, coeffs: list[int]) -> list[int]:
    """x^m mod P(x) = x^e - a_1 x^(e-1) - ... - a_e, lowest coefficient first, by
    square-and-multiply (Fiduccia, "An efficient formula for linear recurrences",
    1985).  Bit b of m takes r to x^b r^2 by Horner's rule over s -> x s mod P."""
    low = coeffs[::-1]  # x^e = sum_i low[i] x^i mod P
    r = [1] + [0] * (len(coeffs) - 1)
    for bit in bin(m)[2:]:
        acc = [0] * len(r)
        for c in reversed([0] * int(bit) + r):  # the coefficients of x^b r, highest first
            acc = [a * acc[-1] + b + c * t for a, b, t in zip(low, [0, *acc[:-1]], r)]
        r = acc
    return r


def _column_terms(model: TransferModel) -> Iterator[int]:
    """chi(I(Gamma_{n,k})) for n = 1, 2, ... by the model, two terms a step.

    With x_j = M^j signs, chi(n) = 1 - sum_t signs[t] x_a[t] x_b[t] for every
    a + b = n - 1.  Proof: chi(n) = 1 - 1^T M^a x_b, and M = D A with A the
    symmetric disjointness matrix and D = diag(signs), D^2 = I, so (1^T M^a)^T
    = (A D)^a 1 = D (D A)^a D 1 = D x_a.  Step m turns x_(m-1) into x_m and
    gives chi(2m) from (x_(m-1), x_m), then chi(2m + 1) from (x_m, x_m).
    """
    signs = model.signs
    vec = list(signs)
    while True:
        weighted = list(map(mul, signs, vec))  # D x_m
        yield 1 - sum(map(mul, weighted, vec))  # chi(2m + 1)
        vec = model.step(vec)
        yield 1 - sum(map(mul, weighted, vec))  # chi(2m + 2)


def _chi_terms(k: int, start: int = 1) -> Iterator[int]:
    """chi(I(Gamma_{n,k})) for n = start, start + 1, ... without end, holding
    O(L) terms.

    `_column_terms` gives the first 2L terms, L = #states + 1, two a column
    step.  If more are asked for, `_recurrence` proves the minimal recurrence
    of those terms; if it finds none, stepping goes on.  Given a proven
    recurrence of order e, the least p <= 2L - e with chi(n + p) = chi(n) for
    n = 1..e is a period for every n: w(n) = chi(n + p) - chi(n) obeys the
    same recurrence, and e consecutive zeros make w zero throughout.
    Then the held terms repeat, the first at the phase of max(start, 2L + 1),
    so a far start costs no more than a near one.  With no such p, the e terms
    before start, from term m on (counting from 0), are sums of held terms:
    x^m = sum_j r_j x^j mod P (`_power_of_x`) gives chi(m + i) = sum_j r_j
    chi(i + j), as shifts commute, and i + j < 2e <= 2L.  The recurrence goes
    on from them.  Nothing is computed before it is asked for.
    """
    model = build_transfer_model(k)
    order = len(model.states) + 1
    terms = _column_terms(model)
    held: list[int] = []
    for chi in terms:
        held.append(chi)
        if len(held) >= start:
            yield chi
        if len(held) == 2 * order:
            break
    skip = max(start - 1 - len(held), 0)  # terms past the held ones before start
    coeffs = _recurrence(held, order)
    if coeffs is None:
        yield from islice(terms, skip, None)
        return
    e = len(coeffs)
    period = next((p for p in range(1, 2 * order - e + 1) if held[p : p + e] == held[:e]), 0)
    if period:
        yield from islice(cycle(held[:period]), (len(held) + skip) % period, None)
    nonzero = [(i, a) for i, a in enumerate(coeffs, 1) if a]
    r = _power_of_x(len(held) + skip - e, coeffs)
    last = deque((sum(map(mul, r, held[i : i + e])) for i in range(e)), e)
    while True:
        chi = 0
        for i, a in nonzero:
            chi += a * last[-i]
        last.append(chi)
        yield chi


def euler_sweep(k: int, max_n: int) -> list[int]:
    """chi(I(Gamma_{n,k})) for n = 1..max_n, in one incremental sweep (see `_chi_terms`)."""
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    return list(islice(_chi_terms(k), max_n))


def euler_chi(n: int, k: int) -> int:
    """Unreduced Euler characteristic of I(Gamma_{n,k}), in O(#states) memory."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return next(_chi_terms(k, n))


def period_detect(k: int, max_n: int) -> int | None:
    """The least period p <= max_n of n -> chi(I(Gamma_{n,k})), proven, or None.

    chi(n + p) = chi(n) for n = 1..L, L = #states + 1, proves period p for
    every n: the period argument of `_chi_terms`, with the monic integer
    annihilator of degree L of `_recurrence` for the recurrence.  The terms
    stream through a window of L, so memory does not grow with max_n.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    order = len(build_transfer_model(k).states) + 1
    terms = _chi_terms(k)
    head = deque(islice(terms, order), maxlen=order)
    window = head.copy()
    for p, chi in zip(range(1, max_n + 1), terms):
        window.append(chi)
        if window == head:
            return p
    return None
