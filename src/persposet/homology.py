"""Simplicial homology over a prime field, on sparse columns.

The library's one view of homology: persistence posets and monotone maps,
each map a name-to-name dict beside its source and target, go in,
barcodes and ranks come out.  Homology is a homotopy invariant,
so every complex is the order complex of a beat-point core (posets.core):
a slice's core for the barcodes of a persistence poset (pposet_barcodes),
and the cores of a map's source and target for its ranks on homology
(induced_ranks), which are the bars through 0 and 1 of the two-slice
tower from one core to the other.  Every barcode and rank in the
verifier and the CLI comes from these two, through _core_barcodes, the
one place a tower's model is picked.

Most cores are antichains.  The order complex of an antichain is a set
of vertices, whose only homology is H_0, free on the elements over every
field; so a tower of antichains gets its barcode from the elder rule on
the element maps (_discrete_barcode), and a map between antichains has
rank the number of distinct images in degree 0 and 0 above.  Neither
builds a complex.

Otherwise simplices come from complexes.order_complex in a fixed order,
so every reduction, barcode and rank is bit-reproducible.  Each core's
boundary matrices are reduced once per field and cached per core
(_core_chains); the H_k generators and boundary pivot tables that the
reduction (_chains) keeps, top degree first and clearing paired
columns, serve every sweep of a tower (_sweep), which takes maps as
plain vertex maps and runs fresh each time.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from typing import NamedTuple, Sequence

from . import linalg, posets
from .complexes import SimplicialComplex, order_complex
from .errors import InternalError
from .modules import INF, Barcode, FieldSpec, elder_barcode
from .pposets import PersistencePoset

Simplex = tuple[str, ...]

# The barcode of every degree without homology; a Barcode is frozen, so one serves all.
_NO_BARS = Barcode(())


def _boundary_column(simplex: Simplex, faces: dict[Simplex, int], p: int) -> linalg.Column:
    """The boundary of a simplex, its faces with alternating signs, as a sparse column."""
    if len(simplex) < 2:
        return {}
    return {faces[simplex[:i] + simplex[i + 1 :]]: 1 if i % 2 == 0 else p - 1 for i in range(len(simplex))}


def _chain_columns(
    vertex_map: dict[str, str], source: Sequence[Simplex], target: dict[Simplex, int], p: int
) -> list[linalg.Column]:
    """The chain map of a vertex map on the given source simplices, as sparse columns with signs."""
    columns: list[linalg.Column] = []
    for simplex in source:
        image = [vertex_map[v] for v in simplex]
        if len(set(image)) < len(image):
            columns.append({})  # degenerate image contributes nothing
            continue
        inversions = sum(
            1 for a in range(len(image)) for b in range(a + 1, len(image)) if image[a] > image[b]
        )
        columns.append({target[tuple(sorted(image))]: 1 if inversions % 2 == 0 else p - 1})
    return columns


class _Chains(NamedTuple):
    """A complex's simplices and its boundary matrices reduced once over F_p, per degree.

    generators[k], sparse cycles over the k-simplices, are a basis of H_k;
    boundaries[k] is the pivot table of the reduced d_{k+1}, spanning B_k.
    """

    simplices: tuple[tuple[Simplex, ...], ...]
    index: tuple[dict[Simplex, int], ...]
    generators: tuple[tuple[linalg.Column, ...], ...]
    boundaries: tuple[dict[int, linalg.Column], ...]

    def degree(self, k: int) -> tuple:
        """Simplices, their index, the homology generators and the boundary pivots in degree k."""
        if k >= len(self.simplices):
            return (), {}, (), {}
        return self.simplices[k], self.index[k], self.generators[k], self.boundaries[k]


def _chains(K: SimplicialComplex, p: int) -> _Chains:
    """Reduce d_top..d_1 once, top degree first, with the transform carried in negative rows.

    Column j of d_k gets the extra entry -1 - j -> 1.  Every boundary row is
    non-negative, so a column whose boundary part reduces to zero has a
    negative lowest row, is never filed as a pivot, and its negative rows
    are a cycle whose largest simplex is j.  Clearing (Chen-Kerber 2011)
    skips the columns at the pivots of the reduced d_{k+1}, whose cycles
    are paired; the cycles kept are a basis of H_k next to B_k (the
    pairing lemma).  K's simplices are in degree, then lexicographic, order.
    """
    simplices = tuple(tuple(group) for _, group in groupby(K.simplices, len))
    index = tuple({s: j for j, s in enumerate(group)} for group in simplices)
    generators: list[tuple[linalg.Column, ...]] = [()] * len(simplices)
    boundaries: list[dict[int, linalg.Column]] = [{}] * len(simplices)
    for k in reversed(range(len(simplices))):
        pivots: dict[int, linalg.Column] = {}
        found = []
        for j, simplex in enumerate(simplices[k]):
            if j in boundaries[k]:
                continue
            column = _boundary_column(simplex, index[k - 1] if k else {}, p)
            column[-1 - j] = 1
            reduced = linalg.reduce_column(column, pivots, p)
            if max(reduced) < 0:
                found.append({-1 - r: v for r, v in reduced.items()})
            else:
                linalg.insert_pivot(reduced, pivots, p)
        generators[k] = tuple(found)
        if k:
            boundaries[k - 1] = {low: {r: v for r, v in col.items() if r >= 0} for low, col in pivots.items()}
    return _Chains(simplices, index, tuple(generators), tuple(boundaries))


@lru_cache(maxsize=4096)
def _core_chains(C: posets.FinitePoset, p: int) -> _Chains:
    """The reduction of C's order complex over F_p, cached per core and field.

    The library's one cache of homology: equal cores share one reduction,
    and every sweep reads it.
    """
    return _chains(order_complex(C), p)


def _sweep(chains: Sequence[_Chains], maps: Sequence[dict[str, str]], p: int, k_max: int) -> list[Barcode]:
    """Barcodes of a tower's homology in degrees 0..k_max, indexed by degree.

    chains[i] is the reduction of the i-th complex, and maps[i] a
    simplicial vertex map from the i-th complex to the next.  Each degree
    is one elder-rule sweep (modules.elder_barcode) of the H_k generators,
    pushed along the chain maps, against the boundaries.  Degree 0 is
    unreduced.  A degree with no generator at any index has no bars and
    is not swept.
    """

    def steps(k: int):
        previous: tuple[Simplex, ...] = ()
        for i, c in enumerate(chains):
            simplices, index, generators, boundaries = c.degree(k)
            columns = _chain_columns(maps[i - 1], previous, index, p) if i else []
            yield columns, boundaries, generators
            previous = simplices

    return [elder_barcode(steps(k), p) if any(c.degree(k)[2] for c in chains) else _NO_BARS for k in range(k_max + 1)]


def pposet_barcodes(pp: PersistencePoset, field: FieldSpec, k_max: int) -> list[Barcode]:
    """Barcodes of pp's order-complex tower in degrees 0..k_max, indexed by degree.

    The one path from a persistence poset to its barcodes.  Each slice is
    replaced by its beat-point core (posets.core, cached, so equal slices
    share one core), which keeps the barcodes in every degree: the
    inclusions of the cores are homotopy equivalences with the
    retractions as inverses, and they commute with the structure maps on
    homology.  Each structure map becomes the next retraction after it,
    restricted to the core.
    """
    cores = [posets.core(c) for c in pp.components]
    maps = [_onto_cores(f, cores[i][0], cores[i + 1][1]) for i, f in enumerate(pp.maps)]
    return _core_barcodes([C for C, _ in cores], maps, field, k_max)


def induced_ranks(
    source: posets.FinitePoset, target: posets.FinitePoset, g: dict[str, str], field: FieldSpec, k_max: int
) -> list[int]:
    """rank H_k of the map of order complexes of g: source -> target in degrees 0..k_max, indexed by degree.

    Computed on the cores through r . g . incl, where incl includes the
    source's core and r retracts the target onto its core: both are
    isomorphisms on homology, so the ranks are g's.  rank H_k of a map
    counts the bars through 0 and 1 in the barcode of the two-slice tower
    it forms (_core_barcodes).  When both cores are antichains, H_0 of
    each is free on its elements and nothing lies above, so the rank is
    the number of distinct images in degree 0 and 0 above, with no
    complex built and no sweep run.
    """
    (core_x, _), (core_y, retract_y) = posets.core(source), posets.core(target)
    image = _onto_cores(g, core_x, retract_y)
    if not (core_x.relation or core_y.relation):
        return [len(set(image.values())) if k == 0 else 0 for k in range(k_max + 1)]
    return [code.count_through(0, 1) for code in _core_barcodes([core_x, core_y], [image], field, k_max)]


def _onto_cores(g: dict[str, str], source_core: posets.FinitePoset, retraction: dict[str, str]) -> dict[str, str]:
    """r . g on the source's core, in core element order."""
    return {x: retraction[g[x]] for x in source_core.elements}


def _core_barcodes(
    cores: Sequence[posets.FinitePoset], maps: Sequence[dict[str, str]], field: FieldSpec, k_max: int
) -> list[Barcode]:
    """Barcodes in degrees 0..k_max of the order-complex tower of cores joined by maps.

    The one place a tower's model is picked.  A tower of antichains
    builds no complex: its barcode in degree 0 is _discrete_barcode, the
    same bars the sweep gives over every field, and its barcodes above
    are empty.  Any other tower is swept over its cores' cached
    reductions (_core_chains).
    """
    if not any(C.relation for C in cores):
        h0 = _discrete_barcode(cores, maps)
        return [h0 if k == 0 else _NO_BARS for k in range(k_max + 1)]
    return _sweep([_core_chains(C, field.p) for C in cores], maps, field.p, k_max)


def _discrete_barcode(components: Sequence[posets.FinitePoset], maps: Sequence[dict[str, str]]) -> Barcode:
    """The H_0 barcode of a tower of antichains, by the elder rule on the element maps.

    H_0 of an antichain is free on its elements over every field, and a
    map of antichains sends basis elements to basis elements, so the
    sweep never forms a sum: each class, oldest first, claims its image
    or dies, and each unclaimed element opens a bar.  A class dies after
    its birth, so every bar has birth < death and the bars are sorted
    into a Barcode without Barcode.of's checks.
    """
    bars: list[tuple[int, int | float]] = []
    live: list[tuple[int, str]] = []  # (birth, element), oldest first
    for i, C in enumerate(components):
        image = maps[i - 1] if i else {}
        claimed: dict[str, int] = {}
        for birth, x in live:
            y = image[x]
            if y in claimed:
                bars.append((birth, i))
            else:
                claimed[y] = birth
        live = [(birth, y) for y, birth in claimed.items()]
        live += [(i, y) for y in C.elements if y not in claimed]
        if len(live) != len(C):
            raise InternalError(f"index {i}: {len(live)} classes on {len(C)} elements")
    bars.extend((birth, INF) for birth, _ in live)
    return Barcode(tuple(sorted(bars)))
