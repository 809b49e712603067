"""Wedges of spheres as multisets of dimensions.

A homotopy type of the form S^{d_1} v ... v S^{d_r} is recorded as a map
from sphere dimension to multiplicity; the empty wedge is a point.  The
internal empty-complex convention uses dimension -1 (the (-1)-sphere), so a
k-fold suspension of the empty complex is S^{k-1}.
"""

from __future__ import annotations

from typing import Mapping


class WedgeOfSpheres:
    """Immutable multiset of sphere dimensions; empty means a point."""

    __slots__ = ("_items",)

    def __init__(self, multiplicity: Mapping[int, int]):
        for dim, mult in multiplicity.items():
            if mult < 0:
                raise ValueError(f"negative multiplicity {mult} at dimension {dim}")
        items = sorted((d, m) for d, m in multiplicity.items() if m)
        object.__setattr__(self, "_items", tuple(items))

    def __setattr__(self, name, value):
        raise AttributeError("WedgeOfSpheres is immutable")

    @classmethod
    def point(cls) -> "WedgeOfSpheres":
        return cls({})

    @classmethod
    def sphere(cls, dim: int) -> "WedgeOfSpheres":
        return cls({dim: 1})

    @property
    def is_point(self) -> bool:
        return not self._items

    def suspend(self, times: int = 1) -> "WedgeOfSpheres":
        """Shift every sphere dimension up by `times`."""
        return WedgeOfSpheres({d + times: m for d, m in self._items})

    def wedge(self, *others: "WedgeOfSpheres") -> "WedgeOfSpheres":
        acc = dict(self._items)
        for other in others:
            for d, m in other._items:
                acc[d] = acc.get(d, 0) + m
        return WedgeOfSpheres(acc)

    def times(self, copies: int) -> "WedgeOfSpheres":
        """copies-fold wedge of self with itself."""
        if copies < 0:
            raise ValueError("copies must be nonnegative")
        return WedgeOfSpheres({d: m * copies for d, m in self._items})

    @property
    def chi(self) -> int:
        """Unreduced Euler characteristic: 1 + sum of (-1)^dim over spheres."""
        return 1 + sum((-1) ** d * m for d, m in self._items)

    def betti_numbers(self) -> dict[int, int]:
        """Reduced Betti numbers: one free generator per sphere."""
        return dict(self._items)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WedgeOfSpheres):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        if not self._items:
            return "WedgeOfSpheres(point)"
        body = " v ".join(
            f"S^{d}" if m == 1 else f"{m}xS^{d}" for d, m in self._items
        )
        return f"WedgeOfSpheres({body})"
