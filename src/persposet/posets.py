"""Finite posets and order-preserving maps.

Single time-slice building blocks: validated strict partial orders, the
one check of monotone maps, deterministic linear extensions, beat-point
cores, weak down- and up-sets, and connected and coned subsets.  A map
between two posets is its name-to-name table, a plain dict; its source
and target travel beside it.  Posets are immutable after construction
and safe to share, and no caller mutates a map it did not build.

Only new_poset validates and closes a relation.  Everything derived from
a poset that is already closed (induced subposets, cores) filters closed
relations and is built directly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Literal

from .errors import (
    CycleError,
    DuplicateElement,
    NonMonotoneStructureMap,
    PartialStructureMap,
    UnknownElement,
)

def transitive_closure(elements: Iterable[str], pairs: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    """Close a strict relation transitively; raise CycleError if x < x appears."""
    elems = sorted(elements)
    index = {e: i for i, e in enumerate(elems)}
    succ: dict[str, set[str]] = {e: set() for e in elems}
    for a, b in pairs:
        if a not in index or b not in index:
            raise UnknownElement(f"pair ({a!r}, {b!r}) references an unknown element")
        succ[a].add(b)
    # Warshall pass over a fixed element order.
    for k in elems:
        reach_k = succ[k]
        for a in elems:
            if k in succ[a]:
                succ[a] |= reach_k
    closed = set()
    for a in elems:
        if a in succ[a]:
            raise CycleError(f"element {a!r} is below itself after closure")
        for b in succ[a]:
            closed.add((a, b))
    return frozenset(closed)


@dataclass(frozen=True)
class FinitePoset:
    """A finite set with a strict partial order, stored transitively closed."""

    elements: tuple[str, ...]
    relation: frozenset[tuple[str, str]]

    def __contains__(self, x: str) -> bool:
        return x in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, a: str, b: str) -> bool:
        return a == b or (a, b) in self.relation

    def is_empty(self) -> bool:
        return not self.elements

    def restrict(self, subset: Iterable[str]) -> "FinitePoset":
        """Induced subposet on a subset of the elements.

        The induced relation of a closed relation is closed, and the stored
        elements are sorted and unique, so both are filtered, not rebuilt.
        An empty subset gives the one shared empty poset, and a subset
        holding every element gives the poset itself: both are frozen,
        so sharing them is safe.
        """
        keep = set(subset)
        if not keep:
            return _EMPTY
        unknown = keep.difference(self.elements)
        if unknown:
            raise UnknownElement(f"elements {sorted(unknown)!r} not in poset")
        if len(keep) == len(self.elements):
            return self
        return FinitePoset(
            elements=tuple(filter(keep.__contains__, self.elements)),
            relation=frozenset((a, b) for (a, b) in self.relation if a in keep and b in keep),
        )


_EMPTY = FinitePoset((), frozenset())


def new_poset(elements: Iterable[str], strict_pairs: Iterable[tuple[str, str]]) -> FinitePoset:
    """Build a validated poset from elements and generating strict pairs."""
    elems = list(elements)
    if len(elems) != len(set(elems)):
        seen, dupes = set(), set()
        for e in elems:
            if e in seen:
                dupes.add(e)
            seen.add(e)
        raise DuplicateElement(f"duplicate identifiers: {sorted(dupes)!r}")
    relation = transitive_closure(elems, strict_pairs)
    return FinitePoset(elements=tuple(sorted(elems)), relation=relation)


def linear_extension(P: FinitePoset, group: dict[str, int] | None = None) -> list[str]:
    """Deterministic topological sort: always pop the currently-minimal
    element of the smallest group, and among those the lexicographically
    smallest.  Without group every element is in one group.

    Kahn's algorithm with a heap of the ready elements.  The relation is
    closed, so an element is ready once all its strict predecessors are out.
    """
    key = (lambda e: (0, e)) if group is None else (lambda e: (group[e], e))
    waiting = {e: 0 for e in P.elements}
    succ: dict[str, list[str]] = {e: [] for e in P.elements}
    for a, b in P.relation:
        waiting[b] += 1
        succ[a].append(b)
    ready = [key(e) for e, n in waiting.items() if n == 0]
    heapq.heapify(ready)
    out: list[str] = []
    while ready:
        _, nxt = heapq.heappop(ready)
        out.append(nxt)
        for b in succ[nxt]:
            waiting[b] -= 1
            if waiting[b] == 0:
                heapq.heappush(ready, key(b))
    return out


def check_map(source: FinitePoset, target: FinitePoset, f: dict[str, str]) -> None:
    """Raise the specific failure when f is not an order-preserving map from source to target.

    This is the library's only check that a map assigns an image to
    exactly the source elements and is monotone.
    """
    targets = set(target.elements)  # FinitePoset.__contains__ scans its element tuple
    for x in source.elements:
        y = f.get(x)
        if y is None:
            raise PartialStructureMap(f"no image assigned to {x!r}")
        if y not in targets:
            raise PartialStructureMap(f"image {y!r} of {x!r} is not a target element")
    if len(f) != len(source):
        extra = next(x for x in f if x not in source)
        raise PartialStructureMap(f"{extra!r} is assigned an image but is not a source element")
    ordered = target.relation
    for a, b in source.relation:
        fa, fb = f[a], f[b]
        if fa != fb and (fa, fb) not in ordered:
            raise NonMonotoneStructureMap(f"{a!r} < {b!r} but images {fa!r}, {fb!r} are not ordered")


def _extreme(candidates: set[str], inner: dict[str, set[str]]) -> str | None:
    """The element of candidates whose inner set holds all the others, if any.

    With inner = strictly-below sets this is the maximum of candidates,
    with strictly-above sets the minimum.  The relation is closed, so each
    inner set of a candidate lies in the other candidates, and at most one
    candidate has all of them.
    """
    others = len(candidates) - 1
    for e in candidates:
        if len(inner[e]) == others:
            return e
    return None


@lru_cache(maxsize=4096)
def core(P: FinitePoset) -> tuple[FinitePoset, dict[str, str]]:
    """Remove beat points until none is left: the core C and the retraction r: P -> C.

    A beat point covers exactly one element or is covered by exactly one;
    it is sent to that element.  Each removal is a strong deformation
    retraction of the order complex (Stong), so C has the homotopy type of
    P.  Elements are scanned in order, down before up, and the scan
    repeats until a pass removes nothing.  r composes the removals: it is
    monotone and fixes C.

    An antichain has no beat point, so with an empty relation the core is
    P itself and r the identity, with no scan.

    Cached: equal posets share one result, so no caller may mutate r.
    """
    if not P.relation:
        return P, {e: e for e in P.elements}
    below: dict[str, set[str]] = {e: set() for e in P.elements}
    above: dict[str, set[str]] = {e: set() for e in P.elements}
    for a, b in P.relation:
        below[b].add(a)
        above[a].add(b)
    sent: dict[str, str] = {}
    removed = True
    while removed:
        removed = False
        for x in P.elements:
            if x in sent:
                continue
            y = _extreme(below[x], below)
            if y is None:
                y = _extreme(above[x], above)
            if y is None:
                continue
            sent[x] = y
            for a in below[x]:
                above[a].discard(x)
            for b in above[x]:
                below[b].discard(x)
            removed = True
    C = P.restrict(e for e in P.elements if e not in sent)
    r = {}
    for x in P.elements:
        y = x
        while y in sent:
            y = sent[y]
        r[x] = y
    return C, r


def weak_sets(P: FinitePoset, direction: Literal["below", "above"]) -> dict[str, set[str]]:
    """Each element's weak down-set ("below") or weak up-set ("above"), from one scan of the closed relation."""
    sets = {e: {e} for e in P.elements}
    if direction == "below":
        for a, b in P.relation:
            sets[b].add(a)
    else:
        for a, b in P.relation:
            sets[a].add(b)
    return sets


def is_connected(P: FinitePoset, subset: Iterable[str]) -> bool:
    """Whether subset induces a connected subposet of P: one component, so not empty.

    Two elements share a component when a path of comparable pairs inside
    subset joins them; the pairs are read off the closed relation and
    merged with union-find.
    """
    parent = {x: x for x in subset}

    def root(x: str) -> str:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    components = len(parent)
    for a, b in P.relation:
        if a in parent and b in parent:
            ra, rb = root(a), root(b)
            if ra != rb:
                parent[ra] = rb
                components -= 1
    return components == 1


def is_cone(P: FinitePoset, subset: Iterable[str]) -> bool:
    """Whether subset has an element comparable to every other element of it; the empty subset has none.

    The order complex of such a subset is a cone on that element, so it
    is contractible.  Comparable pairs are counted off the closed relation.
    """
    partners = dict.fromkeys(subset, 0)
    if not partners:
        return False
    for a, b in P.relation:
        if a in partners and b in partners:
            partners[a] += 1
            partners[b] += 1
    return len(partners) - 1 in partners.values()


def longest_chain(P: FinitePoset) -> int:
    """Number of elements in a longest chain (0 for the empty poset).

    The relation is closed, so a < b gives below(a) a proper subset of
    below(b).  Sorted by the down-set size of their lower element, the
    pairs ending at a come before those leaving a, so one pass gives each
    element the height of its longest chain from below.
    """
    size = dict.fromkeys(P.elements, 0)
    for a, b in P.relation:
        size[b] += 1
    height = dict.fromkeys(P.elements, 1)
    for a, b in sorted(P.relation, key=lambda pair: size[pair[0]]):
        if height[b] <= height[a]:
            height[b] = height[a] + 1
    return max(height.values(), default=0)
