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
scan covers only a window, the vertices that may still have a fold: after a
fold at w, what is left of the window above w plus the vertices two steps
from a neighbor of w; so a move costs work near the vertex it removes, not
a pass over the graph.  The residual graph is built once, from the final mask.

`reduce_with_splits` adds two moves that split I(G) = I(G - v) u cone
I(G - N[v]) (Adamaszek, "Splittings of independence complexes and the
powers of cycles", JCTA 2012): when the fold takes G - N[v] to a cone, v is
deleted (LinkCone), and when it takes G - v to a cone, N[v] is deleted and
the complex suspended (DeletionCone).  Each such test is the same fold loop,
started from the fold-stuck graph with the window around the deleted
vertices, and it stops at the first cone.  The splits act on the fold's own
mask state, so the residual is still built once.
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


@dataclass(frozen=True)
class Cone:
    """v was isolated, so the complex is a cone (contractible)."""

    v: Vertex


@dataclass(frozen=True)
class StripK2:
    """{a, b} was a full K2 component; stripping it suspends the complex."""

    a: Vertex
    b: Vertex


@dataclass(frozen=True)
class LinkCone:
    """I(G - N[v]) folded to a cone, so I(G) ~ I(G - v): v was deleted."""

    v: Vertex


@dataclass(frozen=True)
class DeletionCone:
    """I(G - v) folded to a cone, so I(G) ~ S I(G - N[v]): N[v] was deleted,
    and the complex suspended once."""

    v: Vertex


Move = Union[Fold, Cone, StripK2, LinkCone, DeletionCone]

# The JSON "kind" of each move; its other keys are the move's vertex fields.
_KINDS = {
    Fold: "fold", Cone: "cone", StripK2: "strip_k2",
    LinkCone: "link_cone", DeletionCone: "deletion_cone",
}


@dataclass(frozen=True)
class ReductionTrace:
    moves: tuple[Move, ...]
    suspensions: int
    contractible: bool
    residual: Graph

    def to_json_dict(self) -> dict:
        return {
            "moves": [
                {"kind": _KINDS[type(m)], **{f: list(v) for f, v in vars(m).items()}}
                for m in self.moves
            ],
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


class _Alive:
    """An induced subgraph of the graph host, kept up to date move by move.

    `alive` masks its vertices, `nbrs` maps each of them to its alive
    neighbor mask, and `iso` and `deg1` mask the alive vertices of degree 0
    and 1 (`deg1` may keep a vertex that has since become isolated).
    Removing a vertex updates only its neighbors' masks.
    """

    __slots__ = ("host", "nbrs", "alive", "iso", "deg1")

    def __init__(self, host: Graph, nbrs: dict[int, int], alive: int, iso: int, deg1: int):
        self.host, self.nbrs, self.alive, self.iso, self.deg1 = host, nbrs, alive, iso, deg1

    @classmethod
    def of(cls, g: Graph) -> "_Alive":
        nbrs = dict(enumerate(g.neighbor_masks))
        iso = sum(1 << v for v, mask in nbrs.items() if not mask)
        deg1 = sum(1 << v for v, mask in nbrs.items() if mask.bit_count() == 1)
        return cls(g, nbrs, (1 << len(g)) - 1, iso, deg1)

    def copy(self) -> "_Alive":
        return _Alive(self.host, dict(self.nbrs), self.alive, self.iso, self.deg1)

    def residual(self) -> Graph:
        everything = (1 << len(self.host)) - 1
        if self.alive == everything:
            return self.host
        return delete_vertices(self.host, set_bits(everything ^ self.alive))

    def remove(self, gone: int) -> int:
        """Delete the vertices of the mask gone, all alive.  Returns the
        vertices that share a neighbor with one that lost a neighbor, in the
        graph after the deletion: the w of every fold (v, w) it created."""
        nbrs = self.nbrs
        alive = self.alive = self.alive & ~gone
        touched = 0
        for x in set_bits(gone):
            touched |= nbrs.pop(x)
        touched &= alive
        for u in set_bits(touched):
            mask = nbrs[u] = nbrs[u] & alive
            if not mask:
                self.iso |= 1 << u
            elif not mask & (mask - 1):
                self.deg1 |= 1 << u
        self.deg1 &= alive
        ring = ball = 0
        for u in set_bits(touched):
            ring |= nbrs[u]
        for u in set_bits(ring):
            ball |= nbrs[u]
        return ball

    def reduce(self, window: int, moves: list[Move]) -> tuple[int, bool]:
        """Apply cone, K2-strip and fold moves, appending each to moves, until
        none applies or a cone does; returns (suspensions, cone reached).

        The fold scan covers only the mask window, which must hold the w of
        every fold (v, w): every alive vertex from scratch, or, when `remove`
        has just deleted vertices from a fold-stuck subgraph, the mask it
        returned.  A K2 strip changes no other vertex's mask, so the window
        stays.  Deleting vertices changes only the masks of the v' that lost a
        neighbor, so a fold (v', w') that is new has such a v' (a fold-stuck
        graph has no twins, and an isolated v' makes the cone move first).
        Then N(v') is a nonempty part of N(w'), so w' shares a neighbor with
        v' and is in the mask `remove` returns.  After a fold removing w, the
        window loses every vertex up to w, where the scan found no fold, and
        gains that mask.
        """
        vertices, nbrs = self.host.vertices, self.nbrs
        suspensions = 0
        while self.alive:
            if self.iso:
                moves.append(Cone(vertices[(self.iso & -self.iso).bit_length() - 1]))
                return suspensions, True
            deg1 = self.deg1
            a = next((a for a in set_bits(deg1) if deg1 >> (nbrs[a].bit_length() - 1) & 1), None)
            if a is not None:
                b = nbrs[a].bit_length() - 1
                moves.append(StripK2(vertices[a], vertices[b]))
                suspensions += 1
                self.remove(1 << a | 1 << b)
                continue
            fold = _first_fold(nbrs, window & self.alive, 0)
            if fold is None:
                break
            v, w = fold
            moves.append(Fold(vertices[v], vertices[w]))
            window = window >> w + 1 << w + 1 | self.remove(1 << w)
        return suspensions, False

    def folds_to_cone_without(self, gone: int) -> bool:
        """Whether the fold reaches a cone on this fold-stuck subgraph minus
        the mask gone, which proves that complex contractible.  It scans only
        near gone, and leaves this subgraph as it is."""
        rest = self.copy()
        return rest.reduce(rest.remove(gone), [])[1]


def reduce_graph(g: Graph) -> ReductionTrace:
    """Exhaustively apply cone / K2-strip / fold moves, in that priority.

    I(residual) suspended `suspensions` times is homotopy equivalent to
    I(g); if `contractible` is set the whole complex is contractible and
    reduction stopped at the cone move (the residual keeps the cone vertex).

    Each move costs work near the vertices it removes: the cone vertex is
    the lowest isolated one, the K2 strip the lowest degree-1 a whose one
    neighbor b has degree 1 too, and the fold scan resumes near the last
    fold (see `_Alive.reduce`).  The residual is built once, at the end.
    """
    state = _Alive.of(g)
    moves: list[Move] = []
    suspensions, contractible = state.reduce(state.alive, moves)
    return ReductionTrace(tuple(moves), suspensions, contractible, state.residual())


def reduce_with_splits(g: Graph) -> ReductionTrace:
    """Fold-reduce g, then split off each vertex whose link or deletion
    folds to a cone, folding again after each split.

    I(G) = I(G - v) u cone I(G - N[v]).  So if I(G - N[v]) is contractible
    then I(G) ~ I(G - v): a LinkCone move deletes v.  If I(G - v) is
    contractible then I(G) ~ S I(G - N[v]): a DeletionCone move deletes N[v]
    and adds a suspension.  A complex counts as contractible only when the
    fold, run on the fold-stuck graph minus those vertices, reaches a cone;
    that is, when `reduce_graph` on that induced subgraph would.  Vertices
    are tried lowest first, the link before the deletion, and after each
    split the scan starts again at the lowest vertex.  The splits continue
    the fold's own state over g, so the moves begin with those of
    `reduce_graph(g)`, and the trace is that one when the fold reaches a
    cone or the empty graph.  I(g) is I(residual) suspended `suspensions`
    times, as for `reduce_graph`; the residual is built once, at the end.
    """
    state = _Alive.of(g)
    moves: list[Move] = []
    suspensions, contractible = state.reduce(state.alive, moves)
    while not contractible:
        for v in set_bits(state.alive):
            star = state.nbrs[v] | 1 << v
            if state.folds_to_cone_without(star):
                moves.append(LinkCone(g.vertices[v]))
                gone = 1 << v
                break
            if state.folds_to_cone_without(1 << v):
                moves.append(DeletionCone(g.vertices[v]))
                suspensions += 1
                gone = star
                break
        else:
            break
        more, contractible = state.reduce(state.remove(gone), moves)
        suspensions += more
    return ReductionTrace(tuple(moves), suspensions, contractible, state.residual())


def homotopy_type_if_closed(trace: ReductionTrace) -> WedgeOfSpheres | None:
    """Read off the homotopy type when the trace fully resolved it.

    Contractible traces give a point; an empty residual gives a single
    sphere S^{suspensions - 1} (each K2 strip and DeletionCone suspends the
    empty complex).
    A nonempty residual gives None: run homology on it and shift.
    """
    if trace.contractible:
        return WedgeOfSpheres.point()
    if len(trace.residual) == 0:
        return WedgeOfSpheres.sphere(trace.suspensions - 1)
    return None
