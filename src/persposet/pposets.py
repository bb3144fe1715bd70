"""Persistence posets: functors from {0..T} to finite posets.

Components are connected by total monotone structure maps and extend
constantly beyond the last explicit index.  This module also provides
element tracks, persistence subposets (comparison sets, fibers, punctures),
slicewise beat-point cores, coherent linear extensions, the persistence
mapping cylinder, and the two interpolation chains used to compare a
map's source and target inside the cylinder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import (
    CycleError,
    EmptyAfterNonempty,
    InconsistentTransfer,
    NaturalityError,
    NonMonotoneStructureMap,
    NotASubposet,
    NotClosed,
    PartialStructureMap,
    UnknownElement,
)
from .posets import (
    CYLINDER_SOURCE_TAG,
    CYLINDER_TARGET_TAG,
    Direction,
    FinitePoset,
    MonotoneMap,
    check_map,
    core as poset_core,
    identity_map,
    linear_extension,
    longest_chain,
    mapping_cylinder,
    new_poset,
)


@dataclass(eq=False)
class PersistencePoset:
    """Sequence of posets of length T+1 with monotone structure maps.

    Semantics beyond T are the constant extension: component(j) equals
    component(T) and the structure maps are identities for j >= T.
    """

    components: tuple[FinitePoset, ...]
    maps: tuple[MonotoneMap, ...]

    def __post_init__(self) -> None:
        self.components = tuple(self.components)
        self.maps = tuple(self.maps)
        validate(self)

    @property
    def T(self) -> int:
        return len(self.components) - 1

    def is_empty(self) -> bool:
        return all(c.is_empty() for c in self.components)


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
        _check_arrow(f, pp.components[i], pp.components[i + 1], f"structure map {i}")


def _check_arrow(f: MonotoneMap, source: FinitePoset, target: FinitePoset, name: str) -> None:
    """f runs source -> target and passes check_map; failures are prefixed by name."""
    if f.source != source or f.target != target:
        raise PartialStructureMap(f"{name} does not connect the components")
    try:
        check_map(f)
    except (PartialStructureMap, NonMonotoneStructureMap) as exc:
        raise type(exc)(f"{name}: {exc}") from None


def constant_pposet(P: FinitePoset, T: int) -> PersistencePoset:
    comps = tuple(P for _ in range(T + 1))
    maps = tuple(identity_map(P) for _ in range(T))
    return PersistencePoset(comps, maps)


@dataclass(frozen=True)
class ElementTrack:
    """An element of a persistence poset: birth index plus its image trajectory."""

    birth: int
    trajectory: tuple[str, ...]

    @property
    def initial(self) -> str:
        return self.trajectory[0]

    def value(self, i: int) -> str:
        """Trajectory value at index i >= birth (constant beyond the end)."""
        if i < self.birth:
            raise IndexError(f"track born at {self.birth} has no value at {i}")
        return self.trajectory[min(i - self.birth, len(self.trajectory) - 1)]

    @property
    def label(self) -> str:
        return f"{self.birth}:{self.initial}"


@dataclass(eq=False)
class PersistenceMap:
    """A natural family of monotone slice maps between persistence posets."""

    source: PersistencePoset
    target: PersistencePoset
    slices: tuple[MonotoneMap, ...]

    def __post_init__(self) -> None:
        self.slices = tuple(self.slices)
        if self.source.T != self.target.T:
            raise NaturalityError("source and target have different lengths")
        if len(self.slices) != self.source.T + 1:
            raise PartialStructureMap(f"expected {self.source.T + 1} slice maps")
        for i, f in enumerate(self.slices):
            _check_arrow(f, self.source.components[i], self.target.components[i], f"slice map {i}")
        for i in range(self.source.T):
            phi = self.source.maps[i]
            psi = self.target.maps[i]
            f_i, f_next = self.slices[i], self.slices[i + 1]
            for x in self.source.components[i].elements:
                if psi.assignment[f_i.assignment[x]] != f_next.assignment[phi.assignment[x]]:
                    raise NaturalityError(f"naturality square fails at slice {i}, element {x!r}")

    @property
    def T(self) -> int:
        return self.source.T

    def slice_at(self, i: int) -> MonotoneMap:
        return self.slices[min(i, self.T)]

    def apply(self, i: int, x: str) -> str:
        return self.slice_at(i).assignment[x]


def restrict(pp: PersistencePoset, subsets: Sequence[Iterable[str]]) -> PersistencePoset:
    """Persistence subposet on per-component subsets.

    Raises NotASubposet when the subsets are not closed under the
    structure maps.
    """
    if len(subsets) != pp.T + 1:
        raise NotASubposet(f"expected {pp.T + 1} subsets")
    sets = [set(s) for s in subsets]
    for i, s in enumerate(sets):
        extra = s - set(pp.components[i].elements)
        if extra:
            raise UnknownElement(f"slice {i}: {sorted(extra)!r} not in component")
    for i in range(pp.T):
        f = pp.maps[i]
        for x in sorted(sets[i]):
            if f.assignment[x] not in sets[i + 1]:
                raise NotASubposet(
                    f"slice {i}: image {f.assignment[x]!r} of {x!r} leaves the subset"
                )
    comps = tuple(pp.components[i].restrict(sets[i]) for i in range(pp.T + 1))
    maps = tuple(
        MonotoneMap(comps[i], comps[i + 1], {x: pp.maps[i].assignment[x] for x in comps[i].elements})
        for i in range(pp.T)
    )
    return PersistencePoset(comps, maps)


def persistence_linear_extension(pp: PersistencePoset) -> list[list[str]]:
    """Total orders per component making every structure map monotone.

    The last component is extended by the deterministic topological
    sort.  Walking right to left, each component first inherits the
    pair (a, b) whenever the images of a and b are strictly ordered in
    the already-extended next component, then is extended to a total
    order with the same tie-break.
    """
    T = pp.T
    extended: list[list[str]] = [[] for _ in range(T + 1)]
    extended[T] = linear_extension(pp.components[T])
    for i in range(T - 1, -1, -1):
        comp = pp.components[i]
        f = pp.maps[i].assignment
        pos = {e: r for r, e in enumerate(extended[i + 1])}
        pairs = set(comp.relation)
        for a in comp.elements:
            for b in comp.elements:
                if a != b and pos[f[a]] < pos[f[b]]:
                    pairs.add((a, b))
        try:
            enriched = new_poset(comp.elements, pairs)
        except CycleError as exc:  # unreachable for a valid persistence poset
            raise InconsistentTransfer(f"slice {i}: {exc}") from exc
        extended[i] = linear_extension(enriched)
    return extended


def tracks(pp: PersistencePoset) -> list[ElementTrack]:
    """All maximal element tracks, one per fresh element.

    A fresh element is born at index 0 or is outside the image of the
    previous structure map.  Tracks are ordered by birth index and then
    by the rank of the initial element in the coherent linear extension
    of the birth component, so downstream enumerations are reproducible.
    """
    extended = persistence_linear_extension(pp)
    out: list[ElementTrack] = []
    for i in range(pp.T + 1):
        comp = pp.components[i]
        if i == 0:
            fresh = list(comp.elements)
        else:
            image = {pp.maps[i - 1].assignment[x] for x in pp.components[i - 1].elements}
            fresh = [e for e in comp.elements if e not in image]
        rank = {e: r for r, e in enumerate(extended[i])}
        for e in sorted(fresh, key=lambda e: rank[e]):
            traj = [e]
            for j in range(i, pp.T):
                traj.append(pp.maps[j].assignment[traj[-1]])
            out.append(ElementTrack(birth=i, trajectory=tuple(traj)))
    return out


def _restrict_along(
    pp: PersistencePoset,
    row: Sequence[str | None],
    keep: Callable[[int, str, str], bool],
) -> PersistencePoset:
    """Persistence subposet of the elements a of component i with keep(i, a, row[i]).

    Components where the row is None (before a track's birth) are empty.
    Raises NotASubposet when the subsets are not closed under the
    structure maps.
    """
    return restrict(pp, [
        set() if v is None else {a for a in pp.components[i].elements if keep(i, a, v)}
        for i, v in enumerate(row)
    ])


def fiber(f: PersistenceMap, y: ElementTrack) -> PersistencePoset:
    """Preimage of the weak down-set of a target track; always a subposet."""
    return _restrict_along(
        f.source,
        _trajectory_row(y, f.T),
        lambda i, x, v: f.target.components[i].leq(f.slices[i].assignment[x], v),
    )


def persistence_mapping_cylinder(
    f: PersistenceMap,
) -> tuple[PersistencePoset, PersistenceMap, PersistenceMap]:
    """Componentwise mapping cylinder with the two canonical inclusions."""
    T = f.T
    cyls = []
    incl_x = []
    incl_y = []
    for i in range(T + 1):
        M, i_x, i_y = mapping_cylinder(f.slices[i])
        cyls.append(M)
        incl_x.append(i_x)
        incl_y.append(i_y)
    maps = []
    for i in range(T):
        phi = f.source.maps[i].assignment
        psi = f.target.maps[i].assignment
        assignment: dict[str, str] = {}
        for x in f.source.components[i].elements:
            assignment[CYLINDER_SOURCE_TAG + x] = CYLINDER_SOURCE_TAG + phi[x]
        for y in f.target.components[i].elements:
            assignment[CYLINDER_TARGET_TAG + y] = CYLINDER_TARGET_TAG + psi[y]
        maps.append(MonotoneMap(cyls[i], cyls[i + 1], assignment))
    cylinder = PersistencePoset(tuple(cyls), tuple(maps))
    i_x_pm = PersistenceMap(f.source, cylinder, tuple(incl_x))
    i_y_pm = PersistenceMap(f.target, cylinder, tuple(incl_y))
    return cylinder, i_x_pm, i_y_pm


@dataclass(eq=False)
class ChainStep:
    """One interpolation step: remove a (possibly truncated) trajectory.

    ``larger`` minus the removed elements equals ``smaller``.  The
    ``trajectory`` records the full underlying trajectory (None before
    birth) so that comparison sets can be formed at every index even
    when the removed piece stops at a merge.
    """

    larger: PersistencePoset
    smaller: PersistencePoset
    removed: tuple[str | None, ...]
    trajectory: tuple[str | None, ...]
    track: ElementTrack


@dataclass(eq=False)
class ChainFiltrations:
    """The two interpolation chains inside a persistence mapping cylinder."""

    cylinder: PersistencePoset
    inclusion_source: PersistenceMap
    inclusion_target: PersistenceMap
    target_chain: list[PersistencePoset]
    target_steps: list[ChainStep]
    source_chain: list[PersistencePoset]
    source_steps: list[ChainStep]


def _tagged_track(track: ElementTrack, tag: str) -> ElementTrack:
    return ElementTrack(birth=track.birth, trajectory=tuple(tag + e for e in track.trajectory))


def _trajectory_row(track: ElementTrack, T: int) -> tuple[str | None, ...]:
    return tuple(track.value(i) if i >= track.birth else None for i in range(T + 1))


def chain_filtrations(f: PersistenceMap) -> ChainFiltrations:
    """Build Y = Y^0 <= ... <= Y^n = M(f) and M(f) = X^0 >= ... >= X^m = X.

    The growing chain adds the source tracks one at a time in track
    order; the shrinking chain removes the target tracks in track
    order.  When tracks merge, a step only adds or removes the part of
    the trajectory not shared with the tracks already present, so every
    chain member is a genuine persistence subposet of the cylinder.
    """
    cylinder, i_x, i_y = persistence_mapping_cylinder(f)
    T = f.T
    x_tracks = [_tagged_track(t, CYLINDER_SOURCE_TAG) for t in tracks(f.source)]
    y_tracks = [_tagged_track(t, CYLINDER_TARGET_TAG) for t in tracks(f.target)]

    y_part = [
        {CYLINDER_TARGET_TAG + e for e in f.target.components[i].elements} for i in range(T + 1)
    ]
    x_part = [
        {CYLINDER_SOURCE_TAG + e for e in f.source.components[i].elements} for i in range(T + 1)
    ]

    # Growing chain: start from the target copy, add source tracks.
    current = [set(s) for s in y_part]
    target_chain = [restrict(cylinder, current)]
    target_steps: list[ChainStep] = []
    for tr in x_tracks:
        removed: list[str | None] = []
        for i in range(T + 1):
            if i < tr.birth or tr.value(i) in current[i]:
                removed.append(None)
            else:
                removed.append(tr.value(i))
        for i in range(tr.birth, T + 1):
            current[i].add(tr.value(i))
        member = restrict(cylinder, current)
        target_steps.append(
            ChainStep(
                larger=member,
                smaller=target_chain[-1],
                removed=tuple(removed),
                trajectory=_trajectory_row(tr, T),
                track=tr,
            )
        )
        target_chain.append(member)

    # Shrinking chain: start from the full cylinder, the growing chain's last
    # member (the same object, so its barcodes can be shared), and remove
    # target tracks.
    current = [set(x_part[i]) | set(y_part[i]) for i in range(T + 1)]
    source_chain = [target_chain[-1]]
    source_steps: list[ChainStep] = []
    for r, tr in enumerate(y_tracks):
        later = y_tracks[r + 1 :]
        removed = []
        for i in range(T + 1):
            if i < tr.birth:
                removed.append(None)
                continue
            v = tr.value(i)
            shared = any(lt.birth <= i and lt.value(i) == v for lt in later)
            removed.append(None if shared else v)
        nxt = [set(s) for s in current]
        for i in range(T + 1):
            if removed[i] is not None:
                nxt[i].discard(removed[i])
        member = restrict(cylinder, nxt)
        source_steps.append(
            ChainStep(
                larger=source_chain[-1],
                smaller=member,
                removed=tuple(removed),
                trajectory=_trajectory_row(tr, T),
                track=tr,
            )
        )
        source_chain.append(member)
        current = nxt

    return ChainFiltrations(
        cylinder=cylinder,
        inclusion_source=i_x,
        inclusion_target=i_y,
        target_chain=target_chain,
        target_steps=target_steps,
        source_chain=source_chain,
        source_steps=source_steps,
    )


def puncture(pp: PersistencePoset, removal: Sequence[str | None]) -> PersistencePoset:
    """Remove at most one element per component; the complement must be closed."""
    if len(removal) != pp.T + 1:
        raise NotClosed(f"expected {pp.T + 1} removal entries")
    subsets = []
    for i in range(pp.T + 1):
        keep = set(pp.components[i].elements)
        r = removal[i]
        if r is not None:
            if r not in keep:
                raise UnknownElement(f"slice {i}: {r!r} not in component")
            keep.discard(r)
        subsets.append(keep)
    try:
        return restrict(pp, subsets)
    except NotASubposet as exc:
        raise NotClosed(str(exc)) from exc


def comparison_set(
    pp: PersistencePoset,
    trajectory: Sequence[str | None],
    direction: Direction,
) -> PersistencePoset:
    """Strict down- or up-set of a trajectory row, empty before its birth.

    Used for the side hypotheses of puncture steps; the trajectory may
    extend past the removed piece.  Raises NotASubposet when an element
    merges into the trajectory.
    """
    for i, v in enumerate(trajectory):
        if v is not None and v not in pp.components[i]:
            raise UnknownElement(f"slice {i}: trajectory value {v!r} not in component")
    if direction == "below":
        return _restrict_along(pp, trajectory, lambda i, a, v: pp.components[i].less(a, v))
    return _restrict_along(pp, trajectory, lambda i, b, v: pp.components[i].less(v, b))


def up_set_of_image_track(
    pp: PersistencePoset, track_values: Sequence[str | None]
) -> PersistencePoset:
    """Weak up-set of a trajectory row; always closed under structure maps."""
    return _restrict_along(pp, track_values, lambda i, b, v: pp.components[i].leq(v, b))


def relabel(pp: PersistencePoset, prefix: str) -> PersistencePoset:
    """Prefix every element identifier, preserving all structure."""
    comps = tuple(
        new_poset(
            [prefix + e for e in c.elements],
            [(prefix + a, prefix + b) for (a, b) in c.relation],
        )
        for c in pp.components
    )
    maps = tuple(
        MonotoneMap(
            comps[i],
            comps[i + 1],
            {prefix + x: prefix + pp.maps[i].assignment[x] for x in pp.components[i].elements},
        )
        for i in range(pp.T)
    )
    return PersistencePoset(comps, maps)


def core(pp: PersistencePoset) -> tuple[PersistencePoset, tuple[MonotoneMap, ...]]:
    """Slicewise beat-point cores C_i with maps g_i = r_{i+1} . phi_i restricted to C_i.

    Also returns the retractions r_i: P_i -> C_i.  The inclusions C_i -> P_i
    are homotopy equivalences with inverses r_i, and they commute with the
    structure maps on homology, so the core has the barcodes of pp in every
    degree.
    """
    cores = [poset_core(c) for c in pp.components]
    comps = tuple(C for C, _ in cores)
    maps = tuple(
        MonotoneMap(
            comps[i],
            comps[i + 1],
            {x: cores[i + 1][1].assignment[pp.maps[i].assignment[x]] for x in comps[i].elements},
        )
        for i in range(pp.T)
    )
    return PersistencePoset(comps, maps), tuple(r for _, r in cores)


def top_degree(pp: PersistencePoset) -> int:
    """Largest chain length across components minus one."""
    longest = max((longest_chain(c) for c in pp.components), default=0)
    return max(longest - 1, 0)
