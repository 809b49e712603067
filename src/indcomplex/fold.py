"""Homotopy-preserving graph reductions for independence complexes.

Three unconditional moves are applied exhaustively, in priority order:

* cone: an isolated vertex makes the independence complex contractible;
* K2 strip: a two-vertex complete component contributes one suspension;
* fold: if N(v) is contained in N(w) with v != w, deleting w preserves the
  homotopy type of the independence complex.

The scan order is fixed (lowest indices first) so the trace is a pure
function of the input graph.  A move only clears bits of one vertex mask
over the input graph's neighbor masks, so no graph is rebuilt while
reducing; the residual graph is built once, from the final mask.
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
    considered in the orientation that removes the larger index.  The only
    candidates for v are the isolated vertices and the vertices at distance
    2 from w: if u is in N(v) then u is in N(w), so v is in N(u).
    """
    masks = g.neighbor_masks
    nbrs = {v: masks[v] & alive for v in set_bits(alive)}
    isolated = sum(1 << v for v, mask in nbrs.items() if not mask)
    for w, mw in nbrs.items():
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
    The moves only clear bits of one vertex mask over g; the residual is
    built from it once, at the end.
    """
    masks = g.neighbor_masks
    everything = alive = (1 << len(g)) - 1
    moves: list[Move] = []
    suspensions = 0
    contractible = False
    while alive:
        nbrs = {v: masks[v] & alive for v in set_bits(alive)}
        iso = next((v for v, mask in nbrs.items() if not mask), None)
        if iso is not None:
            moves.append(Cone(g.vertices[iso]))
            contractible = True
            break
        lone = {a: mask.bit_length() - 1 for a, mask in nbrs.items() if mask.bit_count() == 1}
        k2 = next(((a, b) for a, b in lone.items() if lone.get(b) == a), None)
        if k2 is not None:
            a, b = k2
            moves.append(StripK2(g.vertices[a], g.vertices[b]))
            suspensions += 1
            alive &= ~(1 << a | 1 << b)
            continue
        fold = find_fold(g, alive)
        if fold is None:
            break
        v, w = fold
        moves.append(Fold(g.vertices[v], g.vertices[w]))
        alive &= ~(1 << w)
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
