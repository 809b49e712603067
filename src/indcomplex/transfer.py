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

All arithmetic uses Python integers, which are exact at any size, so no
overflow handling is needed even where intermediate state-vector entries
grow without bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .faces import address_space

# Peak memory per entry of k * Fib(k + 2), with headroom: building the tables
# grew peak RSS by 69-72 B an entry at k = 18..24 (CPython 3.11, x86-64).
BYTES_PER_ENTRY = 128

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


def column_states(k: int) -> list[int]:
    """Row-subset bitmasks independent in a path of k rows, sorted ascending."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _path_sets(k)[k]


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

    def initial(self) -> list[int]:
        return list(self.signs)

    @cached_property
    def compatible(self) -> tuple[tuple[int, ...], ...]:
        states = self.states
        return tuple(
            tuple(i for i, s in enumerate(states) if s & t == 0) for t in states
        )


@lru_cache(maxsize=None)
def build_transfer_model(k: int) -> TransferModel:
    """The width-k model, refused before any table is built if they would not fit."""
    # Fib(k + 1), Fib(k + 2), from the 1-row column up; the loop stops as
    # soon as the tables pass the limit, so a huge k is refused at once.
    limit = address_space()
    fewer, count = 1, 2
    for _ in range(k - 1):
        fewer, count = count, fewer + count
        if k * count * BYTES_PER_ENTRY > limit:
            raise MemoryError(
                f"the width-{k} transfer tables need more than the {limit} bytes "
                "of address space"
            )
    states = tuple(column_states(k))
    signs = tuple(-1 if s.bit_count() % 2 else 1 for s in states)
    paths = _path_sets(k)
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


def euler_sweep(k: int, max_n: int) -> list[int]:
    """chi(I(Gamma_{n,k})) for n = 1..max_n, in one incremental sweep."""
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    model = build_transfer_model(k)
    vec = model.initial()
    out = [1 - sum(vec)]
    for _ in range(max_n - 1):
        vec = model.step(vec)
        out.append(1 - sum(vec))
    return out


def euler_chi(n: int, k: int) -> int:
    """Unreduced Euler characteristic of I(Gamma_{n,k})."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return euler_sweep(k, n)[-1]


def period_detect(k: int, max_n: int) -> int | None:
    """Smallest p with chi(n + p) = chi(n) across the whole window [1, max_n].

    Only periods p <= max_n // 4 are considered, so a reported period is
    confirmed over at least four repetitions.  This verifies periodicity
    empirically on the window; it does not prove it.
    """
    values = euler_sweep(k, max_n)
    for p in range(1, max_n // 4 + 1):
        if all(values[i] == values[i + p] for i in range(max_n - p)):
            return p
    return None
