"""Homotopy-preserving graph reductions for independence complexes.

Three unconditional moves are applied exhaustively, in priority order:

* cone: an isolated vertex makes the independence complex contractible;
* K2 strip: a two-vertex complete component contributes one suspension;
* fold: if N(v) is contained in N(w) with v != w, deleting w preserves the
  homotopy type of the independence complex.

The scan order is fixed (lowest indices first) so the trace is a pure
function of the input graph.  No graph is rebuilt while reducing: the
alive vertices are a mask over the input graph, a list indexed by vertex
holds their alive neighbor masks, and masks of the degree-0 and degree-1
vertices are kept up to date move by move; removing a vertex touches only
its neighbors, and the hot loops walk each mask inline, bit by bit.  The fold
scan covers only a window, the vertices that may still have a fold: after a
fold at w, what is left of the window above w plus the vertices two steps
from a neighbor of w; so a move costs work near the vertex it removes, not
a pass over the graph.  The residual graph is built once, from the final mask.

`reduce_with_splits` adds two moves that split I(G) = I(G - v) u cone
I(G - N[v]) (Adamaszek, "Splittings of independence complexes and the
powers of cycles", JCTA 2012): when the fold takes G - N[v] to a cone, v is
deleted (LinkCone), and when it takes G - v to a cone, N[v] is deleted and
the complex suspended (DeletionCone).  Each such test is the same fold loop,
run on a copy of the fold-stuck state with the window around the deleted
vertices; it records no moves and stops at the first cone.  The splits act
on the fold's own mask state, so the residual is still built once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .graphs import Graph, GraphError, Vertex, delete_vertices, graph_to_json_dict
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
    if alive >> len(g):
        raise GraphError(f"vertex mask {alive:#x} has bits outside the {len(g)} vertices of g")
    nbrs = [m & alive for m in g.neighbor_masks]
    isolated = sum(1 << v for v, mask in enumerate(nbrs) if not mask) & alive
    return _first_fold(nbrs, alive, isolated)


def _first_fold(nbrs: list[int], ws: int, isolated: int) -> tuple[int, int] | None:
    """First fold (v, w) with w in the mask ws, least by (w, v), where nbrs
    holds each alive vertex's alive neighbor mask (0 for the others) and
    isolated masks the alive vertices without one.

    The only candidates for v are the isolated vertices and the vertices at
    distance 2 from w: if u is in N(v) then u is in N(w), so v is in N(u).
    """
    while ws:
        lw = ws & -ws
        mw = nbrs[lw.bit_length() - 1]
        near, m = isolated, mw
        while m:
            low = m & -m
            near |= nbrs[low.bit_length() - 1]
            m ^= low
        near &= ~lw
        while near:
            low = near & -near
            mv = nbrs[low.bit_length() - 1]
            if not mv & ~mw and (mv != mw or low < lw):
                return (low.bit_length() - 1, lw.bit_length() - 1)
            near ^= low
        ws ^= lw
    return None


class _Alive:
    """An induced subgraph of the graph host, kept up to date move by move.

    `alive` masks its vertices, the list `nbrs` holds each host vertex's
    alive neighbor mask (0 once it is removed), and `iso` and `deg1` mask the
    alive vertices of degree 0 and 1 (`deg1` may keep a vertex that has since
    become isolated).  Removing a vertex updates only its neighbors' masks.
    """

    __slots__ = ("host", "nbrs", "alive", "iso", "deg1")

    def __init__(self, host: Graph, nbrs: list[int], alive: int, iso: int, deg1: int):
        self.host, self.nbrs, self.alive, self.iso, self.deg1 = host, nbrs, alive, iso, deg1

    @classmethod
    def of(cls, g: Graph) -> "_Alive":
        nbrs = list(g.neighbor_masks)
        iso = sum(1 << v for v, mask in enumerate(nbrs) if not mask)
        deg1 = sum(1 << v for v, mask in enumerate(nbrs) if mask.bit_count() == 1)
        return cls(g, nbrs, (1 << len(g)) - 1, iso, deg1)

    def copy(self) -> "_Alive":
        return _Alive(self.host, self.nbrs[:], self.alive, self.iso, self.deg1)

    def residual(self) -> Graph:
        everything = (1 << len(self.host)) - 1
        if self.alive == everything:
            return self.host
        return delete_vertices(self.host, everything ^ self.alive)

    def remove(self, gone: int) -> int:
        """Delete the vertices of the mask gone, all alive.  Returns the
        vertices that share a neighbor with one that lost a neighbor, in the
        graph after the deletion: the w of every fold (v, w) it created."""
        nbrs = self.nbrs
        alive = self.alive = self.alive & ~gone
        touched = 0
        while gone:
            low = gone & -gone
            x = low.bit_length() - 1
            touched |= nbrs[x]
            nbrs[x] = 0
            gone ^= low
        touched &= alive
        ring = ball = 0
        while touched:
            low = touched & -touched
            u = low.bit_length() - 1
            mask = nbrs[u] = nbrs[u] & alive
            if not mask:
                self.iso |= low
            elif not mask & (mask - 1):
                self.deg1 |= low
            ring |= mask
            touched ^= low
        self.deg1 &= alive
        while ring:
            low = ring & -ring
            ball |= nbrs[low.bit_length() - 1]
            ring ^= low
        return ball

    def reduce(self, window: int, moves: list[Move] | None) -> tuple[int, bool]:
        """Apply cone, K2-strip and fold moves, appending each to moves (if it
        is not None), until none applies or a cone does; returns
        (suspensions, cone reached).

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
                if moves is not None:
                    moves.append(Cone(vertices[(self.iso & -self.iso).bit_length() - 1]))
                return suspensions, True
            # The lowest a in deg1 whose one neighbor b is in deg1 too.  No
            # vertex of deg1 is isolated here, as the cone move came first.
            deg1 = m = self.deg1
            while m:
                low = m & -m
                b = nbrs[low.bit_length() - 1].bit_length() - 1
                if deg1 >> b & 1:
                    break
                m ^= low
            if m:
                if moves is not None:
                    moves.append(StripK2(vertices[low.bit_length() - 1], vertices[b]))
                suspensions += 1
                self.remove(low | 1 << b)
                continue
            fold = _first_fold(nbrs, window & self.alive, 0)
            if fold is None:
                break
            v, w = fold
            if moves is not None:
                moves.append(Fold(vertices[v], vertices[w]))
            window = window >> w + 1 << w + 1 | self.remove(1 << w)
        return suspensions, False

    def folds_to_cone_without(self, gone: int) -> bool:
        """Whether the fold reaches a cone on this fold-stuck subgraph minus
        the mask gone, which proves that complex contractible.  It scans only
        near gone, and leaves this subgraph as it is."""
        rest = self.copy()
        return rest.reduce(rest.remove(gone), None)[1]


def reduce_graph(g: Graph) -> ReductionTrace:
    """Exhaustively apply cone / K2-strip / fold moves, in that priority: the
    fold-only prefix of the `reduce_with_splits` trace.  The package does not
    call it; the benchmark's `fold_closed` workload and counting hook look it
    up by name, and the tests use it as the fold oracle.

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
    folds to a cone, folding again after each split: the trace that the
    `reduce` command prints and homology computes on.

    I(G) = I(G - v) u cone I(G - N[v]).  So if I(G - N[v]) is contractible
    then I(G) ~ I(G - v): a LinkCone move deletes v.  If I(G - v) is
    contractible then I(G) ~ S I(G - N[v]): a DeletionCone move deletes N[v]
    and adds a suspension.  A complex counts as contractible only when the
    fold, run on the fold-stuck graph minus those vertices, reaches a cone.
    Vertices are tried lowest first, the link before the deletion, and the
    scan restarts at the lowest vertex after each split, as a split can let
    a lower vertex split (in a(9), the split at 25 lets 14 split).  The
    moves begin with the fold's, and are only those when the fold reaches a
    cone or the empty graph.  I(g) is I(residual) suspended `suspensions`
    times, or a cone if `contractible`; the residual is built once.
    """
    state = _Alive.of(g)
    moves: list[Move] = []
    suspensions, contractible = state.reduce(state.alive, moves)
    while not contractible:
        m = state.alive
        while m:
            low = m & -m
            v = low.bit_length() - 1
            star = state.nbrs[v] | low
            if state.folds_to_cone_without(star):
                moves.append(LinkCone(g.vertices[v]))
                gone = low
                break
            if state.folds_to_cone_without(low):
                moves.append(DeletionCone(g.vertices[v]))
                suspensions += 1
                gone = star
                break
            m ^= low
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
