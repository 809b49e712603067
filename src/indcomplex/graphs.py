"""Grid graphs and their induced subgraph families.

The central objects are the n-by-k square grid graph (vertices at integer
coordinates, edges between L1-distance-1 pairs) and four families of induced
subgraphs of the n-by-6 grid obtained by removing vertices from the last
column.  Vertices are kept in column-major lexicographic order so every
downstream computation (fold scanning, face enumeration) is deterministic.
A set of vertices is a mask: bit i stands for the vertex of index i, and a
graph keeps each vertex's neighbors as such a mask.  The masks are its only
record of the edges; edge lists exist only at the Graph constructor and in JSON.
Every memory guard of the package states its need in bytes to `admit`.
"""

from __future__ import annotations

import os
import resource
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

Vertex = tuple[int, int]

FAMILY_KINDS = ("gamma", "x", "y", "a", "b")

# Vertices removed from the last column of the n-by-6 grid, per family.
_FAMILY_REMOVED_ROWS = {"x": (1, 3, 5), "y": (3, 4), "a": (1, 5), "b": (4,)}


class GraphError(ValueError):
    """Invalid graph construction or vertex index."""


def address_space() -> int:
    """Bytes the process may use: the RLIMIT_AS soft limit, else physical RAM."""
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit == resource.RLIM_INFINITY:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return limit


def admit(what: str, need: int, error: type[MemoryError] = MemoryError) -> None:
    """The one memory guard: refuse, by raising error, work whose estimate of
    need bytes exceeds the address space, before any of it is built."""
    limit = address_space()
    if need > limit:
        raise error(f"{what} may need {need} bytes, more than the {limit} bytes of address space")


def _mask_bytes(vertices: int, bits: int) -> int:
    """Bytes of `vertices` neighbor masks of at most `bits` bits in all; each is
    an int of sys.getsizeof(1) bytes plus one digit per further bits_per_digit bits."""
    size, per = sys.getsizeof(1), sys.int_info.bits_per_digit
    return vertices * size + bits // per * (sys.getsizeof(1 << per) - size)


@dataclass(frozen=True)
class Family:
    """A named induced-subgraph family: gamma(n, k) or x/y/a/b(n) with k = 6."""

    kind: str
    n: int
    k: int = 6

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise GraphError(f"unknown family kind {self.kind!r}")
        if self.n < 1:
            raise GraphError(f"family parameter n must be >= 1, got {self.n}")
        if self.k < 1:
            raise GraphError(f"family parameter k must be >= 1, got {self.k}")
        if self.kind != "gamma" and self.k != 6:
            raise GraphError(f"family {self.kind!r} is only defined for k = 6")

    @property
    def distinguished_vertex(self) -> Vertex:
        """The marked last-column vertex (n, 3) used by the a/b recursions."""
        return (self.n, 3)


class Graph:
    """An immutable finite simple graph with grid-coordinate vertices.

    Vertices are (x, y) integer pairs, kept sorted column-major.  The edges,
    given as index pairs into the input list, are kept only as neighbor masks
    over that order, so equal vertex and edge sets compare equal in any order.
    """

    __slots__ = ("vertices", "neighbor_masks", "family")

    def __init__(
        self,
        vertices: Iterable[Vertex],
        edges: Iterable[tuple[int, int]],
        family: Family | None = None,
    ) -> None:
        raw = [tuple(v) for v in vertices]
        if len(set(raw)) != len(raw):
            raise GraphError("duplicate vertices")
        order = sorted(range(len(raw)), key=lambda i: raw[i])
        remap = {old: new for new, old in enumerate(order)}
        masks = [0] * len(raw)
        for a, b in edges:
            if not (0 <= a < len(raw) and 0 <= b < len(raw)):
                raise GraphError(f"edge ({a}, {b}) references an invalid vertex index")
            if a == b:
                raise GraphError(f"loop at vertex index {a}")
            i, j = remap[a], remap[b]
            masks[i] |= 1 << j
            masks[j] |= 1 << i

        object.__setattr__(self, "vertices", tuple(raw[i] for i in order))
        object.__setattr__(self, "neighbor_masks", tuple(masks))
        object.__setattr__(self, "family", family)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Graph is immutable")

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other: object) -> bool:
        # Structural equality; the family tag is provenance only.
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.neighbor_masks == other.neighbor_masks

    def __hash__(self) -> int:
        return hash((self.vertices, self.neighbor_masks))

    def __repr__(self) -> str:
        edges = sum(m.bit_count() for m in self.neighbor_masks) // 2
        tag = f", family={self.family}" if self.family else ""
        return f"Graph({len(self.vertices)} vertices, {edges} edges{tag})"

    def index(self, vertex: Vertex) -> int:
        i = bisect_left(self.vertices, tuple(vertex))
        if self.vertices[i : i + 1] != (tuple(vertex),):
            raise GraphError(f"vertex {vertex} not in graph")
        return i


def build_gamma(n: int, k: int) -> Graph:
    """The n-by-k grid graph: nk vertices, edges at L1 distance 1."""
    return _grid(n, k, Family("gamma", n, k), ())


def build_family(f: Family) -> Graph:
    """Realize a Family as a graph (gamma, or gamma(n, 6) minus last-column vertices)."""
    if f.kind == "gamma":
        return build_gamma(f.n, f.k)
    return _grid(f.n, 6, f, [(f.n, row) for row in _FAMILY_REMOVED_ROWS[f.kind]])


def _grid(n: int, k: int, family: Family, removed: Iterable[Vertex]) -> Graph:
    """The n-by-k grid minus the vertices removed, as one Graph tagged family."""
    drop = set(removed)
    # Vertex i's highest neighbor is at most k places above it (one place
    # when there is one column), so its mask has at most i + reach + 1 bits.
    count, reach = n * k - len(drop), k if n > 1 else 1
    bits = count * (count + 1) // 2 + count * reach
    admit(f"the neighbor masks of {count} vertices", _mask_bytes(count, bits))
    vertices = [(x, y) for x in range(1, n + 1) for y in range(1, k + 1) if (x, y) not in drop]
    index = {v: i for i, v in enumerate(vertices)}
    edges = []
    for x, y in vertices:
        for w in ((x + 1, y), (x, y + 1)):
            if w in index:
                edges.append((index[(x, y)], index[w]))
    return Graph(vertices, edges, family=family)


def delete_vertices(g: Graph, drop: int) -> Graph:
    """Induced subgraph on the vertices outside the mask drop; vertex order is
    preserved, the family tag is dropped and g is unmodified."""
    if drop >> len(g):  # a negative mask too
        raise GraphError(f"vertex mask {drop:#x} has bits outside the {len(g)} vertices of g")
    keep = [i for i in range(len(g)) if not drop >> i & 1]
    remap = {old: new for new, old in enumerate(keep)}
    edges = [(remap[i], remap[j]) for i, j in _edges(g, drop)]
    return Graph([g.vertices[i] for i in keep], edges)


def _edges(g: Graph, drop: int = 0) -> Iterator[tuple[int, int]]:
    """The edges (i, j), i < j, between vertices outside the mask drop, ascending."""
    for i, nbrs in enumerate(g.neighbor_masks):
        later = 0 if drop >> i & 1 else (nbrs & ~drop) >> (i + 1)
        while later:
            low = later & -later
            yield i, i + low.bit_length()
            later ^= low


def graph_to_json_dict(g: Graph) -> dict:
    """Serialize to the wire schema: n, k, family, vertices, 0-based edges."""
    xs = [x for x, _ in g.vertices]
    ys = [y for _, y in g.vertices]
    fam = g.family
    return {
        "n": fam.n if fam else (max(xs) if xs else 0),
        "k": fam.k if fam else (max(ys) if ys else 0),
        "family": fam.kind if fam else None,
        "vertices": [[x, y] for x, y in g.vertices],
        "edges": [[i, j] for i, j in _edges(g)],
    }


def graph_from_json_dict(data: dict) -> Graph:
    """Deserialize the wire schema; vertex order is re-canonicalized.

    Every vertex must be a pair of ints and every edge a pair of int indices.
    A family tag that does not name a valid Family is dropped.
    """
    try:
        vertices = _int_pairs(data["vertices"], "vertex")
        edges = _int_pairs(data["edges"], "edge")
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from exc
    # Each mask has at most one bit per vertex.
    count = len(vertices)
    admit(f"the neighbor masks of {count} vertices", _mask_bytes(count, count**2))
    family = None
    if data.get("family"):
        try:
            family = Family(data["family"], int(data.get("n", 1)), int(data.get("k", 6)))
        except (TypeError, ValueError):  # GraphError is a ValueError
            family = None
    return Graph(vertices, edges, family=family)


def _int_pairs(items: Iterable, what: str) -> list[tuple[int, int]]:
    pairs = []
    for item in items:
        pair = isinstance(item, (list, tuple)) and len(item) == 2
        if not (pair and all(type(c) is int for c in item)):
            raise GraphError(f"malformed graph JSON: {what} {item!r} is not a pair of ints")
        pairs.append(tuple(item))
    return pairs
