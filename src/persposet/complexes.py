"""Simplicial complexes, order complexes of posets, and towers of complexes.

Towers are built only from the slicewise beat-point cores of persistence
posets (homology._core_barcodes); the join of two order-complex towers is
the tower of their ordinal sum (pposets.ordinal_sum).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import ShapeMismatch, UnknownVertex
from .posets import FinitePoset


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed family of nonempty vertex subsets."""

    vertices: tuple[str, ...]
    simplices: frozenset[frozenset[str]]

    def top_degree(self) -> int:
        return max((len(s) for s in self.simplices), default=0) - 1


@dataclass(eq=False)
class SimplicialMap:
    """Vertex map whose simplex images (with collapses) are simplices."""

    source: SimplicialComplex
    target: SimplicialComplex
    vertex_map: dict[str, str]

    def __post_init__(self) -> None:
        target_vertices = set(self.target.vertices)
        for v in self.source.vertices:
            w = self.vertex_map.get(v)
            if w is None or w not in target_vertices:
                raise UnknownVertex(f"vertex {v!r} has no valid image")
        for s in self.source.simplices:
            if self.apply_simplex(s) not in self.target.simplices:
                raise UnknownVertex(f"image of simplex {sorted(s)!r} is not a target simplex")

    def apply_simplex(self, s: Iterable[str]) -> frozenset[str]:
        return frozenset(self.vertex_map[v] for v in s)


@lru_cache(maxsize=4096)
def order_complex(P: FinitePoset) -> SimplicialComplex:
    """Simplices are exactly the nonempty chains of the poset."""
    above = {e: sorted(P.strictly_above(e)) for e in P.elements}
    chains: list[tuple[str, ...]] = []

    def grow(chain: list[str]) -> None:
        chains.append(tuple(chain))
        for nxt in above[chain[-1]]:
            chain.append(nxt)
            grow(chain)
            chain.pop()

    for e in P.elements:
        grow([e])
    return SimplicialComplex(
        vertices=P.elements, simplices=frozenset(frozenset(c) for c in chains)
    )


@dataclass(eq=False)
class ComplexTower:
    """Complexes indexed by {0..T} with slice-to-slice simplicial maps."""

    complexes: tuple[SimplicialComplex, ...]
    maps: tuple[SimplicialMap, ...]

    def __post_init__(self) -> None:
        self.complexes = tuple(self.complexes)
        self.maps = tuple(self.maps)
        if len(self.maps) != len(self.complexes) - 1:
            raise ShapeMismatch(f"expected {len(self.complexes) - 1} maps, got {len(self.maps)}")
        for i, m in enumerate(self.maps):
            if m.source != self.complexes[i] or m.target != self.complexes[i + 1]:
                raise ShapeMismatch(f"map {i} does not connect complexes {i} -> {i + 1}")

    @property
    def T(self) -> int:
        return len(self.complexes) - 1

    def top_degree(self) -> int:
        return max((K.top_degree() for K in self.complexes), default=-1)
