"""Order complexes of posets, in the one form that the reduction (homology._chains) consumes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .posets import FinitePoset


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    """Simplices as name-sorted vertex tuples, ordered by dimension, then lexicographically.

    Hashed by identity: a tuple does not cache its hash, and order_complex
    is cached per poset, so equal cores share one complex.
    """

    vertices: tuple[str, ...]
    simplices: tuple[tuple[str, ...], ...]


@lru_cache(maxsize=4096)
def order_complex(P: FinitePoset) -> SimplicialComplex:
    """Simplices are exactly the nonempty chains of the poset."""
    above: dict[str, list[str]] = {e: [] for e in P.elements}
    for a, b in P.relation:
        above[a].append(b)
    chains: list[tuple[str, ...]] = []

    def grow(chain: list[str]) -> None:
        chains.append(tuple(sorted(chain)))
        for nxt in above[chain[-1]]:
            chain.append(nxt)
            grow(chain)
            chain.pop()

    for e in P.elements:
        grow([e])
    chains.sort(key=lambda s: (len(s), s))
    return SimplicialComplex(vertices=P.elements, simplices=tuple(chains))
