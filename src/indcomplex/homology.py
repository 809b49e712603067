"""Reduced simplicial homology of independence complexes.

Chain groups are indexed by the lex-ordered faces of each dimension, in the
augmented convention: the empty face spans dimension -1, so contractible
complexes have all reduced Betti numbers zero and the empty complex reports
a single generator in dimension -1.

Each boundary map is streamed one column at a time, straight from the
per-dimension face lists into the elimination of its ring (bitmasks over
GF(2), sparse dicts over GF(p) and Z); only ranks and torsion are kept, so
no whole boundary matrix is ever held.

The family pipeline first fold-reduces the graph, computes homology on the
residual, and shifts dimensions up by the number of recorded suspensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from . import linalg
from .faces import FaceBudgetExceeded, faces_by_dimension
from .fold import reduce_graph
from .graphs import Family, Graph, build_family

# Integral Smith reduction is only attempted below this face count.
SNF_FACE_LIMIT = 100_000


@dataclass(frozen=True)
class BettiProfile:
    """Reduced Betti numbers (nonzero entries only) plus torsion summands."""

    reduced_betti: dict[int, int] = field(default_factory=dict)
    torsion: tuple[tuple[int, int], ...] = ()
    coefficient: str = "gf2"
    suspensions_applied: int = 0

    def betti(self, dim: int) -> int:
        return self.reduced_betti.get(dim, 0)

    @property
    def reduced_euler(self) -> int:
        return sum((-1) ** d * b for d, b in self.reduced_betti.items())

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


def _boundary_rows(
    faces: dict[int, list[tuple[int, ...]]], d: int
) -> Iterator[dict[int, int]]:
    """Yield the boundary of each d-face, in lex order, as {row: sign}.

    Rows index the lex-ordered (d-1)-faces.  Dropping a later vertex gives a
    lex-smaller facet, so running j from d down to 0 yields ascending rows;
    the facet omitting vertex j has sign (-1)^j.  For d = 0 the only facet
    is the empty face, so the column is the augmentation row.
    """
    row_index = {f: i for i, f in enumerate(faces[d - 1])}
    for face in faces[d]:
        yield {row_index[face[:j] + face[j + 1 :]]: (-1) ** j for j in range(d, -1, -1)}


def _betti_from_ranks(
    faces: dict[int, list[tuple[int, ...]]], ranks: dict[int, int]
) -> dict[int, int]:
    """b_d = f_d - r_d - r_{d+1} for every d >= -1 (r_d: rank of the d-boundary)."""
    out: dict[int, int] = {}
    for d, group in faces.items():
        b = len(group) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if b:
            out[d] = b
    return out


def betti_over_field(g: Graph, p: int, budget: int | None = None) -> BettiProfile:
    """Reduced Betti numbers of I(g) over GF(p), without fold reduction."""
    faces = faces_by_dimension(g, budget=budget)
    ranks: dict[int, int] = {}
    for d in range(max(faces) + 1):
        columns = _boundary_rows(faces, d)
        if p == 2:
            ranks[d] = linalg.gf2_rank(sum(1 << r for r in col) for col in columns)
        else:
            ranks[d] = linalg.modp_rank(columns, p)
    return BettiProfile(_betti_from_ranks(faces, ranks), (), f"gf{p}")


def integral_homology(g: Graph, budget: int | None = None) -> BettiProfile:
    """Reduced integral homology: Betti numbers plus torsion invariant factors."""
    faces = faces_by_dimension(g, budget=budget)
    total = sum(len(v) for v in faces.values())
    if total > SNF_FACE_LIMIT:
        raise FaceBudgetExceeded(
            f"{total} faces exceed the integral Smith-reduction limit of {SNF_FACE_LIMIT}"
        )
    ranks: dict[int, int] = {}
    torsion: list[tuple[int, int]] = []
    for d in range(max(faces) + 1):
        factors = linalg.smith_invariant_factors(_boundary_rows(faces, d))
        ranks[d] = len(factors)
        # Non-unit factors of the d-boundary are torsion in dimension d - 1.
        torsion.extend((d - 1, f) for f in factors if f != 1)
    return BettiProfile(_betti_from_ranks(faces, ranks), tuple(torsion), "int")


def betti_of_graph(g: Graph, coeff: str = "gf2", budget: int | None = None) -> BettiProfile:
    """Homology of I(g): fold-reduce, compute on the residual, shift by the suspensions."""
    trace = reduce_graph(g)
    if trace.contractible:
        return BettiProfile({}, (), coeff)
    if coeff == "int":
        profile = integral_homology(trace.residual, budget=budget)
    elif coeff.startswith("gf"):
        profile = betti_over_field(trace.residual, int(coeff[2:]), budget=budget)
    else:
        raise ValueError(f"unknown coefficient descriptor {coeff!r}")
    return profile.shifted(trace.suspensions)


def betti_of_family(f: Family, coeff: str = "gf2", budget: int | None = None) -> BettiProfile:
    """Build the family graph, fold-reduce, compute homology, shift suspensions."""
    return betti_of_graph(build_family(f), coeff=coeff, budget=budget)
