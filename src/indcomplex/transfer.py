"""Transfer-matrix Euler characteristics of grid independence complexes.

The independence polynomial of the n-by-k grid evaluated at -1 is computed
by sweeping columns: states are the independent row subsets of a single
column (bitmasks with no two consecutive rows), and adjacent columns must
occupy disjoint row sets.  The unreduced Euler characteristic is then
chi = 1 - Z, where Z is that signed sum over all independent sets
(including the empty one).

All arithmetic uses Python integers, which are exact at any size, so no
overflow handling is needed even where intermediate state-vector entries
grow without bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

MAX_K = 24


def column_states(k: int) -> list[int]:
    """Row-subset bitmasks independent in a path of k rows, sorted ascending."""
    if not (1 <= k <= MAX_K):
        raise ValueError(f"k must be in 1..{MAX_K}, got {k}")
    return [m for m in range(1 << k) if m & (m << 1) == 0]


@dataclass(frozen=True)
class TransferModel:
    """Signed transfer matrix over column states, stored sparsely.

    The matrix entry (s, t) is (-1)^{popcount(t)} when masks s and t are
    disjoint and 0 otherwise; `compatible[t]` lists the state indices s with
    a nonzero entry, and `signs[t]` carries the (-1)^{popcount(t)} factor.
    """

    k: int
    states: tuple[int, ...]
    signs: tuple[int, ...]
    compatible: tuple[tuple[int, ...], ...]

    def step(self, vec: list[int]) -> list[int]:
        """One matrix-vector product: advance the sweep by one column."""
        return [
            self.signs[t] * sum(vec[s] for s in comp)
            for t, comp in enumerate(self.compatible)
        ]

    def initial(self) -> list[int]:
        return list(self.signs)


@lru_cache(maxsize=None)
def build_transfer_model(k: int) -> TransferModel:
    states = tuple(column_states(k))
    signs = tuple(-1 if s.bit_count() % 2 else 1 for s in states)
    compatible = tuple(
        tuple(i for i, s in enumerate(states) if s & t == 0) for t in states
    )
    return TransferModel(k, states, signs, compatible)


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
