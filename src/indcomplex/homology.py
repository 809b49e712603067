"""Reduced simplicial homology of independence complexes.

Chain groups are indexed by the faces of each dimension, each face its vertex
bitmask, in the augmented convention: the empty face spans dimension -1, so
contractible complexes have all reduced Betti numbers zero and the empty
complex reports a single generator in dimension -1.

Each boundary map is streamed one face at a time, straight from the
per-dimension face lists into the elimination of its ring, with a per-face
builder for its column (sparse {row: ±1}, a row being a facet's mask, or the
row set alone over GF(2)); only ranks and torsion are kept, so no whole
boundary matrix is ever held.  The elimination reads a column's lowest row,
the face minus its top vertex, off the face mask, and builds the column only
when that row is already taken or when the column reduces another.  Every
ring reduces the boundaries from the top dimension down with clearing: a
d-face that is a pivot row of the (d+1)-boundary has a d-boundary column
that reduces to zero, so it is never passed at all (Chen and Kerber,
"Persistent homology computation with a twist", 2011).  Over Z a column
that is only rationally dependent could still matter to the lattice, so
only unit pivot rows are cleared (see `_homology`).  Columns run in
descending mask order and pivots are lowest rows: any order gives the same
ranks, but on the Γ(4,6) residual mixed directions take 6 to 7 times the
integer steps.

The family pipeline first fold-reduces the graph, then splits off each
vertex whose link or deletion folds to a cone (`reduce_with_splits`),
computes homology on what is left, and shifts dimensions up by the number of
suspensions, those of the K2 strips and of the splits.  Γ(5,6) closes with
no face enumerated; Γ(6,6) leaves 10,907 faces and a(11) 1.74 M.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import filterfalse

from . import linalg
from .faces import faces_by_dimension
from .fold import reduce_with_splits
from .graphs import Family, Graph, build_family


@dataclass(frozen=True)
class BettiProfile:
    """Reduced Betti numbers (nonzero entries only) plus torsion summands."""

    reduced_betti: dict[int, int] = field(default_factory=dict)
    torsion: tuple[tuple[int, int], ...] = ()
    coefficient: str = "gf2"
    suspensions_applied: int = 0

    def shifted(self, s: int) -> "BettiProfile":
        return BettiProfile(
            {d + s: b for d, b in self.reduced_betti.items()},
            tuple((d + s, f) for d, f in self.torsion),
            self.coefficient,
            self.suspensions_applied + s,
        )

    def to_json_dict(self) -> dict:
        return {
            "reduced_betti": {str(d): b for d, b in sorted(self.reduced_betti.items())},
            "torsion": [[d, f] for d, f in self.torsion],
            "coefficient": self.coefficient,
            "suspensions_applied": self.suspensions_applied,
        }


def _facets(face: int) -> set[int]:
    """The boundary of a face over GF(2): its facets' masks, the rows."""
    rows = set()
    rest = face
    while rest:
        low = rest & -rest
        rows.add(face ^ low)
        rest ^= low
    return rows


def _signed_facets(face: int) -> dict[int, int]:
    """The boundary of a face as {row: sign}.

    A row is the facet's own mask: dropping the j-th smallest vertex v gives
    face ^ 1 << v, with sign (-1)^j; a vertex's one facet is the empty face 0.
    """
    col = {}
    rest, sign = face, 1
    while rest:
        low = rest & -rest
        col[face ^ low] = sign
        rest ^= low
        sign = -sign
    return col


def _betti_from_ranks(faces: dict[int, list[int]], ranks: dict[int, int]) -> dict[int, int]:
    """b_d = f_d - r_d - r_{d+1} for every d >= -1 (r_d: rank of the d-boundary)."""
    out: dict[int, int] = {}
    for d, group in faces.items():
        b = len(group) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if b:
            out[d] = b
    return out


def _field_prime(coeff: str) -> int:
    """The prime p of a "gf<p>" descriptor, or 0, Z in `_homology`, for "int"."""
    if coeff == "int":
        return 0
    match = re.fullmatch(r"gf([1-9][0-9]*)", coeff)
    if match is None or not linalg.is_prime(int(match[1])):
        raise ValueError(
            f"unknown coefficient descriptor {coeff!r}: expected 'int' or 'gf<p>' with p prime"
        )
    return int(match[1])


def _homology(g: Graph, p: int) -> BettiProfile:
    """Reduced homology of I(g) over GF(p), or over Z with torsion when p = 0.

    The boundaries are reduced from the top dimension down, and the d-faces
    that are pivot rows of the (d+1)-boundary are cleared (never passed).
    Over Z only unit pivot rows are cleared, which keeps the column lattice
    of the d-boundary, so its rank and Smith factors too.  Proof: let z_1 ..
    z_m be the reduced (d+1)-pivot columns whose pivot entry is +-1 (a stored
    face mask counts), with pivot rows s_1 .. s_m.  Each z_i is an integer
    combination of (d+1)-boundary columns, so d(z_i) = 0.  The matrix
    (z_i[s_j]) is triangular with +-1 on the diagonal, as s_i is the lowest
    row of z_i, so it is unimodular; hence each cleared column d(s_j) is an
    integer combination of the columns d(t) of uncleared faces t.  A
    non-unit pivot row is never cleared: it is keyed ~r < 0, never a face.
    """
    faces = faces_by_dimension(g)
    ranks: dict[int, int] = {}
    torsion: list[tuple[int, int]] = []
    # Pivot rows of the boundary one dimension up: the d-faces to clear.
    pivots: set[int] | dict[int, int] = set()
    for d in range(max(faces), -1, -1):
        columns = filterfalse(pivots.__contains__, faces[d])
        if p == 2:
            pivots = linalg.gf2_rank(columns, _facets)
        elif p:
            pivots = linalg.modp_rank(columns, p, _signed_facets)
        else:
            pivots = linalg.smith_invariant_factors(columns, _signed_facets)
            # Non-unit factors of the d-boundary are torsion in dimension d - 1.
            torsion[:0] = [(d - 1, f) for f in pivots.values() if f != 1]
        ranks[d] = len(pivots)
    coeff = f"gf{p}" if p else "int"
    return BettiProfile(_betti_from_ranks(faces, ranks), tuple(torsion), coeff)


def betti_over_field(g: Graph, p: int) -> BettiProfile:
    """Reduced Betti numbers of I(g) over GF(p), without fold reduction."""
    if not linalg.is_prime(p):
        raise ValueError(f"GF({p}) is not a field: {p} is not prime")
    return _homology(g, p)


def integral_homology(g: Graph) -> BettiProfile:
    """Reduced integral homology of I(g): Betti numbers plus torsion invariant
    factors, from every face of I(g) for g as given, with no fold reduction
    and no split.  On a grid or family graph use `betti_of_graph(g, "int")`."""
    return _homology(g, 0)


def betti_of_graph(g: Graph, coeff: str = "gf2") -> BettiProfile:
    """Homology of I(g): fold-reduce and split, compute on the residual,
    shift by the suspensions.

    `coeff` is "int" or "gf<p>" with p prime; anything else raises ValueError.
    """
    p = _field_prime(coeff)
    trace = reduce_with_splits(g)
    if trace.contractible:
        return BettiProfile({}, (), coeff)
    return _homology(trace.residual, p).shifted(trace.suspensions)


def betti_of_family(f: Family, coeff: str = "gf2") -> BettiProfile:
    """Build the family graph, then run `betti_of_graph` on it."""
    return betti_of_graph(build_family(f), coeff=coeff)
