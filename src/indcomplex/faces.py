"""Independence-complex faces: exact counts, f-vectors and enumeration.

A graph is treated implicitly as its independence complex: faces are the
independent vertex sets as bitmasks, the empty face 0 included.  One vertex
sweep of the independence polynomial counts the faces, by size if asked,
without listing them.  Enumeration, which homology needs, is admitted only
if its faces fit the address space at BYTES_PER_FACE each: unless 2^|V|
faces, the most any graph has, fit, they are counted exactly first.
"""

from __future__ import annotations

from .graphs import Graph, GraphError, admit, delete_vertices

# Peak memory per face, with headroom.  Peak RSS over faces, interpreter
# included, from face lists through elimination (CPython 3.11, x86-64) on fold
# residuals: 163 B Γ(6,6), 181 B a(7) over GF(2); 222 B Γ(5,6) over Z.
BYTES_PER_FACE = 512


class FaceBudgetExceeded(MemoryError):
    """The faces may not fit in the address space at BYTES_PER_FACE each."""


def _independence_polynomial(g: Graph, x: int) -> int:
    """Sum over the independent sets of g (empty set included) of x^|set|.

    Sweeps the vertices in order, summing the partial faces on the vertices
    seen so far by the set of later vertices they ban.  Distinct states have
    distinct partial faces, so once the states may not fit as faces, neither
    may the faces, and FaceBudgetExceeded is raised; for x > 1 a state's sum
    holds a base-x digit per face size, and that memory counts too.
    """
    weight = 1 + (len(g) + 1) * (x.bit_length() - 1) // (8 * BYTES_PER_FACE)
    states = {0: 1}
    for v, nbrs in enumerate(g.neighbor_masks):
        later = nbrs >> (v + 1)
        step: dict[int, int] = {}
        for banned, count in states.items():
            rest = banned >> 1
            step[rest] = step.get(rest, 0) + count
            if not banned & 1:
                key = rest | later
                step[key] = step.get(key, 0) + count * x
        states = step
        need = len(states) * weight * BYTES_PER_FACE
        admit(f"the face sweep's first {v + 1} of {len(g)} vertices", need, FaceBudgetExceeded)
    return sum(states.values())


def count_faces(g: Graph) -> int:
    """Exact number of independent sets of g (empty set included)."""
    return _independence_polynomial(g, 1)


def faces_by_dimension(g: Graph) -> dict[int, list[int]]:
    """Every independent set of g as a vertex bitmask, grouped by dimension
    (|face| - 1) with the empty face 0 at -1, each group in descending order.
    Unless 2^|V| faces, the most any graph has, fit, the faces are counted
    first and refused if they do not."""
    try:
        admit(f"2^{len(g)} faces", (1 << len(g)) * BYTES_PER_FACE)
    except MemoryError:
        total = count_faces(g)
        admit(f"{total} faces", total * BYTES_PER_FACE, FaceBudgetExceeded)
    out: dict[int, list[int]] = {-1: [0]}
    nbrs = g.neighbor_masks

    def extend(face: int, free: int, d: int) -> None:
        # Add each vertex below face's lowest that no member bans, highest first.
        while free:
            v = free.bit_length() - 1
            free ^= 1 << v
            out.setdefault(d, []).append(face | 1 << v)
            extend(face | 1 << v, free & ~nbrs[v], d + 1)

    extend(0, (1 << len(g)) - 1, 0)
    return out


def f_vector(g: Graph) -> tuple[int, ...]:
    """Counts of nonempty faces by size: entry i counts the (i+1)-vertex faces.

    The independence polynomial at x = 2^b, b = |V| + 1, holds the counts as
    base-x digits; each is below 2^|V|, so none carries into the next.
    """
    b = len(g) + 1
    poly = _independence_polynomial(g, 1 << b)
    return tuple(poly >> i & ((1 << b) - 1) for i in range(b, poly.bit_length(), b))


def euler_from_fvector(counts: tuple[int, ...]) -> int:
    """Unreduced Euler characteristic: alternating sum over nonempty faces."""
    return sum((-1) ** i * c for i, c in enumerate(counts))


def link_graph(g: Graph, v: int) -> Graph:
    """G - N[v]; its independence complex is the link of v in I(G)."""
    if not 0 <= v < len(g):
        raise GraphError(f"vertex index {v} out of range")
    return delete_vertices(g, g.neighbor_masks[v] | 1 << v)
