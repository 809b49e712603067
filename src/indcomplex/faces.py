"""Independence-complex face enumeration and f-vectors.

A graph is treated implicitly as its independence complex: faces are the
independent vertex sets, including the empty face.  Enumeration is bounded
by a face budget derived from the memory the process may use, and guarded by
an exact pre-count, so oversized inputs are rejected deterministically before
any memory is committed.
"""

from __future__ import annotations

import os
import resource
from dataclasses import dataclass
from typing import Iterator

from .graphs import Graph, delete_vertices

# Peak memory per enumerated face, with headroom.  Peak RSS over faces,
# interpreter included, from face lists through elimination (CPython 3.11,
# x86-64): 279 B on the Γ(6,6) and a(7) residuals over GF(2), 284 B on the
# Γ(5,6) residual over Z.
BYTES_PER_FACE = 512


class FaceBudgetExceeded(RuntimeError):
    """Enumeration would exceed the face budget."""


def face_budget() -> int:
    """Faces that fit in memory: the address-space limit (the RLIMIT_AS soft
    limit, or physical RAM when there is none) over BYTES_PER_FACE."""
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit == resource.RLIM_INFINITY:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return limit // BYTES_PER_FACE


def count_faces(g: Graph) -> int:
    """Exact number of independent sets of g (empty set included).

    Sweeps the vertices in order, counting the partial faces on the vertices
    seen so far by the set of later vertices they ban.  Distinct states have
    distinct partial faces, so once the states outnumber the face budget so
    do the faces, and FaceBudgetExceeded is raised.
    """
    budget = face_budget()
    states = {0: 1}
    for v, nbrs in enumerate(g.neighbor_masks):
        later = nbrs >> (v + 1)
        step: dict[int, int] = {}
        for banned, count in states.items():
            rest = banned >> 1
            step[rest] = step.get(rest, 0) + count
            if not banned & 1:
                key = rest | later
                step[key] = step.get(key, 0) + count
        states = step
        if len(states) > budget:
            raise FaceBudgetExceeded(
                f"the first {v + 1} of {len(g)} vertices already have more than "
                f"{budget} faces, the budget"
            )
    return sum(states.values())


def enumerate_faces(g: Graph) -> Iterator[tuple[int, ...]]:
    """Yield every independent set of g exactly once, in lexicographic order
    of sorted member tuples, starting with the empty face."""
    total = count_faces(g)
    budget = face_budget()
    if total > budget:
        raise FaceBudgetExceeded(f"{total} faces exceed the budget of {budget}")
    masks = g.neighbor_masks
    nv = len(g)

    def rec(face: list[int], banned: int, start: int) -> Iterator[tuple[int, ...]]:
        for v in range(start, nv):
            if banned >> v & 1:
                continue
            face.append(v)
            yield tuple(face)
            yield from rec(face, banned | masks[v] | (1 << v), v + 1)
            face.pop()

    yield ()
    yield from rec([], 0, 0)


def faces_by_dimension(g: Graph) -> dict[int, list[tuple[int, ...]]]:
    """Faces grouped by dimension (|face| - 1); each group stays in lex order."""
    out: dict[int, list[tuple[int, ...]]] = {}
    for face in enumerate_faces(g):
        out.setdefault(len(face) - 1, []).append(face)
    return out


@dataclass(frozen=True)
class FVector:
    """Counts of nonempty faces by cardinality: counts[i] = #(i+1)-vertex faces.

    The single empty face is kept separate from the counts.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.counts):
            raise ValueError("face counts must be nonnegative")


def f_vector(g: Graph) -> FVector:
    counts: list[int] = []
    for face in enumerate_faces(g):
        if not face:
            continue
        size = len(face)
        while len(counts) < size:
            counts.append(0)
        counts[size - 1] += 1
    return FVector(tuple(counts))


def euler_from_fvector(fv: FVector) -> int:
    """Unreduced Euler characteristic: alternating sum over nonempty faces."""
    return sum((-1) ** i * c for i, c in enumerate(fv.counts))


def link_graph(g: Graph, v: int) -> Graph:
    """G - N[v]; its independence complex is the link of v in I(G)."""
    return delete_vertices(g, g.neighborhood(v, closed=True))
