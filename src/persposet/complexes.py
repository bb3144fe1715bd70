"""Order complexes of posets, in the one form that the reduction (homology._chains) consumes."""

from __future__ import annotations

from dataclasses import dataclass

from .posets import FinitePoset


@dataclass(frozen=True)
class SimplicialComplex:
    """Simplices as name-sorted vertex tuples, ordered by dimension, then lexicographically.

    Compared and hashed by value.  No cache is keyed on a complex (the
    reduction cache, homology._core_chains, is keyed on the core poset the
    complex comes from), so nothing needs an identity hash, which would
    make two equal complexes unequal.
    """

    vertices: tuple[str, ...]
    simplices: tuple[tuple[str, ...], ...]


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
