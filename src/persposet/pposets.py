"""Persistence posets: functors from {0..T} to finite posets.

Components are connected by total monotone structure maps and extend
constantly beyond the last explicit index.  This module also provides
element tracks as trajectory rows and the subposets of a row (fibers,
comparison sets, weak up-sets), coherent linear extensions, the
persistence mapping cylinder, the two interpolation chains inside it,
and the slicewise ordinal sum, whose tower is the join of the factors'.

Structure maps and slice maps are plain name-to-name dicts.  Only
validate and PersistenceMap check, both through posets.check_map; every
derived persistence poset is valid by construction and comes from one
of two builders, _tagged_sum (the cylinder, the ordinal sum) or
_sub_tower (the subposets of a row and the chain members).

A row is read once, off the closed relation of each slice: row_sets
gives a puncture step's strict sets, which decide each side's status
(comparison_status), give the slices of a side it builds, and tell
whether the step removes only weak points (removes_weak_points).
Fibers, the cylinder's cross pairs and up_sets_of_image_tracks read whole
posets.weak_sets tables, one scan per slice per call; fibers builds the
fiber over every track, each from the one before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Literal, Mapping, Sequence

from .errors import (
    EmptyAfterNonempty,
    InternalError,
    NaturalityError,
    NonMonotoneStructureMap,
    PartialStructureMap,
    ShapeMismatch,
    UnknownElement,
)
from .posets import (
    FinitePoset,
    check_map,
    is_cone,
    is_connected,
    linear_extension,
    longest_chain,
    weak_sets,
)

Direction = Literal["below", "above"]
CYLINDER_SOURCE_TAG = "X:"
CYLINDER_TARGET_TAG = "Y:"


@dataclass(eq=False)
class PersistencePoset:
    """Sequence of posets of length T+1 with monotone structure maps.

    maps[i] is the name-to-name table of the structure map from
    components[i] to components[i + 1].  Semantics beyond T are the
    constant extension: component(j) equals component(T) and the
    structure maps are identities for j >= T.
    """

    components: tuple[FinitePoset, ...]
    maps: tuple[dict[str, str], ...]

    def __post_init__(self) -> None:
        self.components = tuple(self.components)
        self.maps = tuple(self.maps)
        validate(self)

    @property
    def T(self) -> int:
        return len(self.components) - 1


def validate(pp: PersistencePoset) -> None:
    """Check totality, monotonicity, and the empty-prefix rule."""
    if len(pp.maps) != len(pp.components) - 1:
        raise PartialStructureMap(
            f"expected {len(pp.components) - 1} structure maps, got {len(pp.maps)}"
        )
    seen_nonempty = False
    for i, comp in enumerate(pp.components):
        if comp.is_empty() and seen_nonempty:
            raise EmptyAfterNonempty(f"component {i} is empty after a nonempty one")
        seen_nonempty = seen_nonempty or not comp.is_empty()
    for i, f in enumerate(pp.maps):
        _check_arrow(pp.components[i], pp.components[i + 1], f, f"structure map {i}")


def _check_arrow(source: FinitePoset, target: FinitePoset, f: dict[str, str], name: str) -> None:
    """check_map(source, target, f), with every failure prefixed by name."""
    try:
        check_map(source, target, f)
    except (PartialStructureMap, NonMonotoneStructureMap) as exc:
        raise type(exc)(f"{name}: {exc}") from None


@dataclass(frozen=True)
class ElementTrack:
    """An element of a persistence poset: birth index plus its row of values 0..T, None before birth."""

    birth: int
    trajectory: tuple[str | None, ...]

    @property
    def initial(self) -> str:
        return self.trajectory[self.birth]

    @property
    def label(self) -> str:
        return f"{self.birth}:{self.initial}"


@dataclass(eq=False)
class PersistenceMap:
    """A natural family of monotone slice maps between persistence posets.

    slices[i] is the name-to-name table of the slice map from
    source.components[i] to target.components[i].
    """

    source: PersistencePoset
    target: PersistencePoset
    slices: tuple[dict[str, str], ...]

    def __post_init__(self) -> None:
        self.slices = tuple(self.slices)
        if self.source.T != self.target.T:
            raise NaturalityError("source and target have different lengths")
        if len(self.slices) != self.source.T + 1:
            raise PartialStructureMap(f"expected {self.source.T + 1} slice maps")
        for i, f in enumerate(self.slices):
            _check_arrow(self.source.components[i], self.target.components[i], f, f"slice map {i}")
        for i in range(self.source.T):
            phi = self.source.maps[i]
            psi = self.target.maps[i]
            f_i, f_next = self.slices[i], self.slices[i + 1]
            for x in self.source.components[i].elements:
                if psi[f_i[x]] != f_next[phi[x]]:
                    raise NaturalityError(f"naturality square fails at slice {i}, element {x!r}")

    @property
    def T(self) -> int:
        return self.source.T


def _closed(pp: PersistencePoset, sets: Sequence[set[str]]) -> bool:
    """Whether every structure map i sends sets[i] into sets[i + 1]; stops at the first element that leaves."""
    return all(pp.maps[i][x] in sets[i + 1] for i in range(pp.T) for x in sets[i])


def _sub_tower(
    pp: PersistencePoset,
    base: PersistencePoset,
    sets: Sequence[set[str]] | Mapping[int, set[str]],
    changed: Sequence[int],
) -> PersistencePoset:
    """The subposet of pp on sets, closed under its maps, from base: only the changed slices and their maps differ.

    Only sets[i] for i in changed is read.  Only the maps out of changed
    slices are rebuilt: a map out of an unchanged slice keeps its domain,
    and closure keeps its values in the next slice, changed or not.
    """
    comps = list(base.components)
    maps = list(base.maps)
    T = pp.T
    for i in changed:
        comps[i] = P = pp.components[i].restrict(sets[i])
        if i < T:
            f = pp.maps[i]
            maps[i] = {x: f[x] for x in P.elements}
    return _valid_by_construction(tuple(comps), tuple(maps))


def _valid_by_construction(components: tuple[FinitePoset, ...], maps: tuple[dict[str, str], ...]) -> PersistencePoset:
    """A PersistencePoset that its builder has shown valid, made without running validate."""
    pp = object.__new__(PersistencePoset)
    pp.components, pp.maps = components, maps
    return pp


def persistence_linear_extension(pp: PersistencePoset) -> list[list[str]]:
    """Total orders per component making every structure map monotone.

    The last component is extended by the deterministic topological
    sort.  Walking right to left, each component is extended in one pass
    of the same sort, with each element grouped by the rank of its image
    in the already-extended next component.  This lists the fibers of
    the structure map in image order, each extended with the same
    tie-break: an element never lies below an element of an earlier
    fiber, since a < b gives f(a) <= f(b).  It is the extension of the
    component's order enriched by every pair whose images are strictly
    ordered.
    """
    T = pp.T
    extended: list[list[str]] = [[] for _ in range(T + 1)]
    extended[T] = linear_extension(pp.components[T])
    for i in range(T - 1, -1, -1):
        rank = {y: r for r, y in enumerate(extended[i + 1])}
        f = pp.maps[i]
        extended[i] = linear_extension(pp.components[i], {a: rank[f[a]] for a in pp.components[i].elements})
    return extended


def tracks(pp: PersistencePoset) -> list[ElementTrack]:
    """All maximal element tracks, one per fresh element.

    A fresh element is born at index 0 or is outside the image of the
    previous structure map; its track's row is None before that index.
    Tracks are ordered by birth index and then by the rank of the initial
    element in the coherent linear extension of the birth component, so
    downstream enumerations are reproducible.
    """
    extended = persistence_linear_extension(pp)
    out: list[ElementTrack] = []
    for i in range(pp.T + 1):
        comp = pp.components[i]
        if i == 0:
            fresh = list(comp.elements)
        else:
            image = set(pp.maps[i - 1].values())
            fresh = [e for e in comp.elements if e not in image]
        rank = {e: r for r, e in enumerate(extended[i])}
        for e in sorted(fresh, key=lambda e: rank[e]):
            traj = [None] * i + [e]
            for j in range(i, pp.T):
                traj.append(pp.maps[j][traj[-1]])
            out.append(ElementTrack(birth=i, trajectory=tuple(traj)))
    return out


def fibers(f: PersistenceMap, ys: Sequence[ElementTrack]) -> list[PersistencePoset]:
    """The fiber over each target track of ys, in order.

    Slice i of a fiber is the preimage under f_i of the weak down-set of
    v, the track's value; it is empty before the track's birth.  Every
    weak down-set of target slice i comes from one table, built once per
    call.  A fiber is closed by naturality: f_i(x) <= v gives
    f_{i+1}(phi x) = psi(f_i x) <= psi(v), the track's next value.  So
    each fiber is a sub-tower, without a closure check, even where its
    last slice is empty: then every slice is.

    Slice i depends only on the value at i, so each fiber after the first
    is the sub-tower on the fiber before it whose changed slices are the
    indices where the two tracks' values differ: every other slice, and
    every structure map out of one, is the same object in both, and the
    cached core of a shared slice is found by identity.
    """
    downs = [weak_sets(Q, "below") for Q in f.target.components]

    def preimage(i: int, v: str | None) -> set[str]:
        if v is None:
            return set()
        down, g = downs[i][v], f.slices[i]
        return {x for x in f.source.components[i].elements if g[x] in down}

    out: list[PersistencePoset] = []
    fib, row = f.source, None
    for y in ys:
        changed = [i for i, v in enumerate(y.trajectory) if row is None or row[i] != v]
        fib = _sub_tower(f.source, fib, {i: preimage(i, y.trajectory[i]) for i in changed}, changed)
        row = y.trajectory
        out.append(fib)
    return out


def _tagged_sum(
    A: PersistencePoset, B: PersistencePoset, tags: tuple[str, str], across: Callable[[int], Iterable[tuple[str, str]]]
) -> PersistencePoset:
    """Slicewise A tagged tags[0], B tagged tags[1], and a < b in slice i for each pair (a, b) of across(i).

    Each structure map is the union of the two tagged maps.  Valid by
    construction, with neither validate nor new_poset, when across(i) is
    closed down A and up B (a' < a gives (a', b), b < b' gives (a, b'))
    and the structure maps send it into across(i + 1): each slice is then
    closed, and sorted since tags[0] sorts first in one length; two empty
    prefixes give one; the union map is total, monotone on each copy and
    keeps each cross pair.
    """
    ta, tb = tags
    comps = []
    for i, (P, Q) in enumerate(zip(A.components, B.components)):
        xs, ys = {a: ta + a for a in P.elements}, {b: tb + b for b in Q.elements}
        relation = [(xs[a], xs[b]) for a, b in P.relation] + [(ys[a], ys[b]) for a, b in Q.relation]
        relation += [(xs[a], ys[b]) for a, b in across(i)]
        comps.append(FinitePoset(elements=(*xs.values(), *ys.values()), relation=frozenset(relation)))
    maps = []
    for f, g in zip(A.maps, B.maps):
        union = {ta + x: ta + y for x, y in f.items()}
        union.update((tb + x, tb + y) for x, y in g.items())
        maps.append(union)
    return _valid_by_construction(tuple(comps), tuple(maps))


def persistence_mapping_cylinder(f: PersistenceMap) -> PersistencePoset:
    """Slicewise mapping cylinder: the source tagged CYLINDER_SOURCE_TAG, the target tagged CYLINDER_TARGET_TAG.

    In slice i, x < y across the copies exactly when f_i(x) <= y: closed
    down the source since f_i is monotone, up the target, and kept by the
    maps, since f_{i+1}(phi x) = psi(f_i x) <= psi(y) by naturality.
    """
    def across(i: int) -> list[tuple[str, str]]:
        up, g = weak_sets(f.target.components[i], "above"), f.slices[i]
        return [(x, y) for x in f.source.components[i].elements for y in up[g[x]]]

    return _tagged_sum(f.source, f.target, (CYLINDER_SOURCE_TAG, CYLINDER_TARGET_TAG), across)


@dataclass(eq=False)
class ChainStep:
    """One interpolation step: remove a (possibly truncated) trajectory.

    ``larger`` minus the removed elements equals ``smaller``.  The full
    row ``track.trajectory`` lets comparison sets be formed at every
    index even when the removed piece stops at a merge.
    """

    larger: PersistencePoset
    smaller: PersistencePoset
    removed: tuple[str | None, ...]
    track: ElementTrack


@dataclass(eq=False)
class ChainFiltrations:
    """The two interpolation chains inside a persistence mapping cylinder: each member is a step's side."""

    cylinder: PersistencePoset
    target_steps: list[ChainStep]
    source_steps: list[ChainStep]


def _tagged_track(track: ElementTrack, tag: str) -> ElementTrack:
    return ElementTrack(birth=track.birth, trajectory=tuple(None if e is None else tag + e for e in track.trajectory))


def _grow(
    cylinder: PersistencePoset,
    start: Sequence[set[str]],
    tracks: Iterable[ElementTrack],
) -> list[ChainStep]:
    """Add tracks to the subposet on start, one copy of the cylinder, one at a time: one step per track.

    The first member is the sub-tower on start, closed by construction.
    A step adds the part of its trajectory not already present, and at
    least its first value, fresh at the track's birth index: a track
    added before it was born earlier, so its value there is an image, or
    at the same index with another fresh value, and start holds the
    other copy.  A track that adds nothing raises InternalError.

    Each later member is the sub-tower on the member before it whose
    changed slices are those where the step adds a value.  It is valid
    by construction: the family stays closed, since each added v_i maps
    to v_{i+1}, which is added or already present, so the maps stay
    total; restricted maps stay monotone; and a slice that gains a value
    at i gains or keeps one at every later index.
    """
    current = [set(s) for s in start]
    member = _sub_tower(cylinder, cylinder, current, range(cylinder.T + 1))
    steps: list[ChainStep] = []
    for tr in tracks:
        added = tuple(None if v is None or v in current[i] else v for i, v in enumerate(tr.trajectory))
        changed = [i for i, v in enumerate(added) if v is not None]
        if not changed:
            raise InternalError(f"track {tr.label} adds no value to its chain")
        for i in changed:
            current[i].add(added[i])
        previous = member
        member = _sub_tower(cylinder, previous, current, changed)
        steps.append(ChainStep(larger=member, smaller=previous, removed=added, track=tr))
    return steps


def chain_filtrations(f: PersistenceMap) -> ChainFiltrations:
    """The steps of Y = Y^0 <= ... <= Y^n = M(f) and of M(f) = X^0 >= ... >= X^m = X.

    The growing chain adds the source tracks one at a time in track
    order; the shrinking chain removes the target tracks in track order,
    so each step removes the part of its trajectory not shared with a
    later target track.  That is the growing of the source copy by the
    target tracks in reverse order, read backwards.
    """
    cylinder = persistence_mapping_cylinder(f)
    x_tracks = [_tagged_track(t, CYLINDER_SOURCE_TAG) for t in tracks(f.source)]
    y_tracks = [_tagged_track(t, CYLINDER_TARGET_TAG) for t in tracks(f.target)]
    x_part = [{CYLINDER_SOURCE_TAG + e for e in c.elements} for c in f.source.components]
    y_part = [{CYLINDER_TARGET_TAG + e for e in c.elements} for c in f.target.components]
    return ChainFiltrations(
        cylinder=cylinder,
        target_steps=_grow(cylinder, y_part, x_tracks),
        source_steps=_grow(cylinder, x_part, reversed(y_tracks))[::-1],
    )


def row_sets(pp: PersistencePoset, trajectory: Sequence[str | None]) -> dict[Direction, list[set[str]]]:
    """The strict down- and up-set of each value of a trajectory row in its slice, by direction, empty for None.

    These are the slices of the row's comparison sets, the sides of a
    puncture step; the row may extend past the removed piece.  One scan
    of a slice's closed relation gives both sets.  Raises UnknownElement
    for a value not in its slice.  Every row is a track's trajectory, one
    value per slice, so a row of another length is a library fault
    (InternalError).
    """
    if len(trajectory) != pp.T + 1:
        raise InternalError(f"a row of {len(trajectory)} values for {pp.T + 1} slices")
    below: list[set[str]] = []
    above: list[set[str]] = []
    for i, (P, v) in enumerate(zip(pp.components, trajectory)):
        down: set[str] = set()
        up: set[str] = set()
        if v is not None:
            if v not in P:
                raise UnknownElement(f"slice {i}: trajectory value {v!r} not in component")
            for a, b in P.relation:
                if b == v:
                    down.add(a)
                elif a == v:
                    up.add(b)
        below.append(down)
        above.append(up)
    return {"below": below, "above": above}


SideStatus = Literal["infinite", "finite", "undecided"]


def comparison_status(pp: PersistencePoset, sets: Sequence[set[str]]) -> SideStatus:
    """The status of a comparison set's defect, read off its sets (one side of row_sets).

    The essential bars of degree k count H_k of the last slice, so the
    defect is finite exactly when the sets are closed under the maps and
    the last slice has the homology of a point in every degree compared.
    "infinite": sets not closed (an element merges into the trajectory),
    or an empty or disconnected last slice.  "finite": closed, with a
    cone last slice, so in every degree.  "undecided" otherwise: only the
    barcodes tell.  Closed sets need no other check: the side is
    _sub_tower(pp, pp, sets, range(pp.T + 1)).
    """
    last, ends = pp.components[pp.T], sets[pp.T]
    cone = is_cone(last, ends)
    if not (cone or is_connected(last, ends)) or not _closed(pp, sets):
        return "infinite"
    return "finite" if cone else "undecided"


def removes_weak_points(
    pp: PersistencePoset, removed: Sequence[str | None], sets: Mapping[Direction, Sequence[set[str]]]
) -> bool:
    """Whether every value of removed other than None is a weak point of its slice of pp, read off sets.

    sets is row_sets of a row equal to removed wherever removed is not
    None, as a chain step's trajectory is (_grow).  x is weak when its
    strict down-set or up-set is a cone.  Removing it keeps the homotopy
    type (Barmak and Minian, "Simple homotopy types and finite spaces",
    Adv. Math. 2008), by Quillen's fiber lemma for the inclusion of P
    minus x: the fiber over y other than x has the maximum y, and the
    fiber over x is its strict down-set (dually, up-sets), so every fiber
    is contractible.  Every beat point is weak; an isolated point is not,
    since the empty set is no cone.  So when removed holds at most one
    value per slice, pp minus removed has the barcodes of pp in every
    degree: its inclusion is natural and a homotopy equivalence slice by
    slice.
    """
    below, above = sets["below"], sets["above"]
    return all(
        v is None or is_cone(P, below[i]) or is_cone(P, above[i])
        for i, (P, v) in enumerate(zip(pp.components, removed))
    )


def up_sets_of_image_tracks(pp: PersistencePoset, rows: Sequence[Sequence[str | None]]) -> list[PersistencePoset]:
    """The weak up-set of each trajectory row, in order; each is closed under structure maps.

    Slice i of every up-set is read off one weak up-set table of slice i.
    A row's values map to each other, and a monotone map keeps v <= b as
    phi(v) <= phi(b), so each is a sub-tower, built without a closure check.
    """
    ups = [weak_sets(P, "above") for P in pp.components]
    sets = ([set() if v is None else ups[i][v] for i, v in enumerate(row)] for row in rows)
    return [_sub_tower(pp, pp, s, range(pp.T + 1)) for s in sets]


def ordinal_sum(A: PersistencePoset, B: PersistencePoset) -> PersistencePoset:
    """Slicewise ordinal sum: A's slice, tagged "A:", below B's slice, tagged "B:".

    Every element of A's slice lies below every element of B's slice, so
    the order complex of each slice is the join of the factors' order
    complexes.  The set of all pairs is closed at both ends and kept by any maps.
    """
    if A.T != B.T:
        raise ShapeMismatch(f"ordinal sum of lengths {A.T + 1} and {B.T + 1}")
    return _tagged_sum(
        A, B, ("A:", "B:"), lambda i: [(a, b) for a in A.components[i].elements for b in B.components[i].elements]
    )


def top_degree(pp: PersistencePoset) -> int:
    """Largest chain length across components minus one."""
    longest = max((longest_chain(c) for c in pp.components), default=0)
    return max(longest - 1, 0)
