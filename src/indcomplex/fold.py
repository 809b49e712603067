"""Homotopy-preserving graph reductions for independence complexes.

Three unconditional moves are applied exhaustively, in priority order:

* cone: an isolated vertex makes the independence complex contractible;
* K2 strip: a two-vertex complete component contributes one suspension;
* fold: if N(v) is contained in N(w) with v != w, deleting w preserves the
  homotopy type of the independence complex.

The scan order is fixed (lowest indices first) so the trace is a pure
function of the input graph.  No graph is rebuilt while reducing: the
alive vertices are a mask over the input graph, and their alive neighbor
masks, with masks of the degree-0 and degree-1 vertices, are kept up to
date move by move; removing a vertex touches only its neighbors.  The fold
scan resumes near the last fold instead of at vertex 0, so a move costs
work near the vertex it removes, not a pass over the graph.  The residual
graph is built once, from the final mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .graphs import Graph, Vertex, delete_vertices, graph_to_json_dict, set_bits
from .wedge import WedgeOfSpheres


@dataclass(frozen=True)
class Fold:
    """w was removed because N(v) was contained in N(w) at the time."""

    v: Vertex
    w: Vertex

    def to_json_dict(self) -> dict:
        return {"kind": "fold", "v": list(self.v), "w": list(self.w)}


@dataclass(frozen=True)
class Cone:
    """v was isolated, so the complex is a cone (contractible)."""

    v: Vertex

    def to_json_dict(self) -> dict:
        return {"kind": "cone", "v": list(self.v)}


@dataclass(frozen=True)
class StripK2:
    """{a, b} was a full K2 component; stripping it suspends the complex."""

    a: Vertex
    b: Vertex

    def to_json_dict(self) -> dict:
        return {"kind": "strip_k2", "a": list(self.a), "b": list(self.b)}


Move = Union[Fold, Cone, StripK2]


@dataclass(frozen=True)
class ReductionTrace:
    moves: tuple[Move, ...]
    suspensions: int
    contractible: bool
    residual: Graph

    def to_json_dict(self) -> dict:
        return {
            "moves": [m.to_json_dict() for m in self.moves],
            "suspensions": self.suspensions,
            "contractible": self.contractible,
            "residual": graph_to_json_dict(self.residual),
        }


def find_fold(g: Graph, alive: int) -> tuple[int, int] | None:
    """First pair (v, w) of the subgraph of g induced on the vertex mask
    alive with N(v) contained in N(w), least by (w, v); indices are g's.

    Inclusion may be non-strict; equal neighborhoods (twins) are only
    considered in the orientation that removes the larger index.
    """
    masks = g.neighbor_masks
    nbrs = {v: masks[v] & alive for v in set_bits(alive)}
    isolated = sum(1 << v for v, mask in nbrs.items() if not mask)
    return _first_fold(nbrs, alive, isolated)


def _first_fold(nbrs: dict[int, int], ws: int, isolated: int) -> tuple[int, int] | None:
    """First fold (v, w) with w in the mask ws, least by (w, v), where nbrs
    maps each alive vertex to its alive neighbor mask and isolated masks the
    alive vertices without one.

    The only candidates for v are the isolated vertices and the vertices at
    distance 2 from w: if u is in N(v) then u is in N(w), so v is in N(u).
    """
    for w in set_bits(ws):
        mw = nbrs[w]
        near = isolated
        for u in set_bits(mw):
            near |= nbrs[u]
        for v in set_bits(near & ~(1 << w)):
            mv = nbrs[v]
            if mv & ~mw or (mv == mw and w < v):
                continue
            return (v, w)
    return None


def reduce_graph(g: Graph) -> ReductionTrace:
    """Exhaustively apply cone / K2-strip / fold moves, in that priority.

    I(residual) suspended `suspensions` times is homotopy equivalent to
    I(g); if `contractible` is set the whole complex is contractible and
    reduction stopped at the cone move (the residual keeps the cone vertex).

    Each move costs work near the vertices it removes.  `nbrs` holds the
    alive neighbor mask of every alive vertex, and `iso` and `deg1` mask the
    alive vertices of degree 0 and 1; removing a vertex updates only its
    neighbors' masks.  The cone vertex is the lowest bit of `iso`; the K2 strip
    is the lowest a in `deg1` whose one neighbor b is in `deg1` too.

    The fold scan resumes at p: no alive w < p has a fold.  A K2 strip
    changes no other vertex's mask, so p stays.  A fold removing w changes
    only the masks of the v' in the old N(w), so a fold (v', w') that is new
    has v' in the old N(w) (an isolated v' makes the cone move first).  Then
    N(v') is a nonempty part of N(w'), so w' is at distance 2 from v' and
    within distance 3 of w.  So after the fold p becomes the smaller of w
    and the least alive vertex within distance 3 of w.  The residual is
    built once, at the end.
    """
    nbrs = dict(enumerate(g.neighbor_masks))
    everything = alive = (1 << len(g)) - 1
    iso = sum(1 << v for v, mask in nbrs.items() if not mask)
    deg1 = sum(1 << v for v, mask in nbrs.items() if mask.bit_count() == 1)
    moves: list[Move] = []
    suspensions = 0
    contractible = False
    p = 0
    while alive:
        if iso:
            moves.append(Cone(g.vertices[(iso & -iso).bit_length() - 1]))
            contractible = True
            break
        k2 = next((a for a in set_bits(deg1) if deg1 >> (nbrs[a].bit_length() - 1) & 1), None)
        if k2 is not None:
            a, b = k2, nbrs[k2].bit_length() - 1
            moves.append(StripK2(g.vertices[a], g.vertices[b]))
            suspensions += 1
            del nbrs[a], nbrs[b]
            alive &= ~(1 << a | 1 << b)
            deg1 &= alive
            continue
        fold = _first_fold(nbrs, alive >> p << p, 0)
        if fold is None:
            break
        v, w = fold
        moves.append(Fold(g.vertices[v], g.vertices[w]))
        alive &= ~(1 << w)
        deg1 &= alive
        mw = nbrs.pop(w)
        for u in set_bits(mw):
            mask = nbrs[u] = nbrs[u] ^ 1 << w
            if not mask:
                iso |= 1 << u
            elif not mask & (mask - 1):
                deg1 |= 1 << u
        ball = mw  # nonempty: an isolated w would have made the cone move
        for _ in range(2):
            for u in set_bits(ball):
                ball |= nbrs[u]
        p = min(w, (ball & -ball).bit_length() - 1)
    residual = g if alive == everything else delete_vertices(g, set_bits(everything ^ alive))
    return ReductionTrace(tuple(moves), suspensions, contractible, residual)


def homotopy_type_if_closed(trace: ReductionTrace) -> WedgeOfSpheres | None:
    """Read off the homotopy type when the trace fully resolved it.

    Contractible traces give a point; an empty residual gives a single
    sphere S^{suspensions - 1} (each K2 strip suspends the empty complex).
    A nonempty residual gives None: run homology on it and shift.
    """
    if trace.contractible:
        return WedgeOfSpheres.point()
    if len(trace.residual) == 0:
        return WedgeOfSpheres.sphere(trace.suspensions - 1)
    return None
