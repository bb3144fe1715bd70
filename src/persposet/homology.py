"""Simplicial homology over a prime field, on sparse columns.

Simplices are ordered lexicographically within each degree, so every
reduction, barcode and rank is bit-reproducible.  Each complex's boundary
matrices are reduced once over F_p and cached per complex (_chains); the
cycle bases and boundary pivot tables it keeps serve the barcodes of
towers (tower_barcodes), the rank of a map on homology (_induced_rank)
and the reduced Betti numbers (reduced_dim).  The barcodes of a
persistence poset (pposet_barcodes) are computed on its slicewise
beat-point cores, once per distinct set of cores and maps between them;
every barcode in the verifier and the CLI, the join lemma's included,
comes from there.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from . import linalg, posets
from .complexes import ComplexTower, SimplicialComplex, SimplicialMap, order_complex
from .modules import Barcode, FieldSpec, elder_barcode
from .pposets import PersistencePoset

__all__ = ["FieldSpec", "pposet_barcodes", "reduced_dim", "tower_barcodes"]

Simplex = tuple[str, ...]


def _boundary_column(simplex: Simplex, faces: dict[Simplex, int], p: int) -> linalg.Column:
    """The boundary of a simplex, its faces with alternating signs, as a sparse column."""
    if len(simplex) < 2:
        return {}
    return {faces[simplex[:i] + simplex[i + 1 :]]: 1 if i % 2 == 0 else p - 1 for i in range(len(simplex))}


def _chain_columns(
    sm: SimplicialMap, source: Sequence[Simplex], target: dict[Simplex, int], p: int
) -> list[linalg.Column]:
    """The chain map of sm on the given source simplices, as sparse columns with signs."""
    columns: list[linalg.Column] = []
    for simplex in source:
        image = [sm.vertex_map[v] for v in simplex]
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

    cycles[k] spans Z_k as sparse columns over the k-simplices; boundaries[k]
    is the pivot table of the reduced columns of d_{k+1}, which span B_k.
    """

    simplices: tuple[tuple[Simplex, ...], ...]
    index: tuple[dict[Simplex, int], ...]
    cycles: tuple[tuple[linalg.Column, ...], ...]
    boundaries: tuple[dict[int, linalg.Column], ...]

    def degree(self, k: int) -> tuple:
        """Simplices, their index, the cycle basis and the boundary pivots in degree k."""
        if k >= len(self.simplices):
            return (), {}, (), {}
        return self.simplices[k], self.index[k], self.cycles[k], self.boundaries[k]


@lru_cache(maxsize=4096)
def _chains(K: SimplicialComplex, p: int) -> _Chains:
    """Reduce d_1..d_top once, with the transform carried in negative rows.

    Column j of d_k gets the extra entry -1 - j -> 1.  Every boundary row is
    non-negative, so a column whose boundary part reduces to zero has a
    negative lowest row, is never filed as a pivot, and its negative rows
    are the cycle it came from.  In degree 0 every vertex is a cycle.
    """
    by_degree: list[list[Simplex]] = [[] for _ in range(K.top_degree() + 1)]
    for s in K.simplices:
        by_degree[len(s) - 1].append(tuple(sorted(s)))
    simplices = tuple(tuple(sorted(group)) for group in by_degree)
    index = tuple({s: j for j, s in enumerate(group)} for group in simplices)
    cycles: list[tuple[linalg.Column, ...]] = []
    boundaries: list[dict[int, linalg.Column]] = []
    for k, group in enumerate(simplices):
        pivots: dict[int, linalg.Column] = {}
        found = []
        for j, simplex in enumerate(group):
            column = _boundary_column(simplex, index[k - 1] if k else {}, p)
            column[-1 - j] = 1
            reduced = linalg.reduce_column(column, pivots, p)
            if max(reduced) < 0:
                found.append({-1 - r: v for r, v in reduced.items()})
            else:
                linalg.insert_pivot(reduced, pivots, p)
        cycles.append(tuple(found))
        if k:
            boundaries.append({low: {r: v for r, v in col.items() if r >= 0} for low, col in pivots.items()})
    boundaries.append({})
    return _Chains(simplices, index, tuple(cycles), tuple(boundaries))


def tower_barcodes(tower: ComplexTower, field: FieldSpec, k_max: int) -> list[Barcode]:
    """Barcodes of the tower's homology in degrees 0..k_max, indexed by degree.

    Its one caller in the library is the memo's miss (_core_barcodes).
    Each complex's boundary matrices are reduced once (and cached per
    complex); each degree is then one elder-rule sweep
    (modules.elder_barcode) of the cycles, pushed along the chain maps,
    against the boundaries.  Degree 0 is unreduced.  A degree above the
    tower's top degree has no homology, so its barcode is empty and
    nothing is built for it.
    """
    p = field.p
    top = tower.top_degree()
    chains = [_chains(K, p) for K in tower.complexes] if min(k_max, top) >= 0 else []

    def steps(k: int):
        previous: tuple[Simplex, ...] = ()
        for i, c in enumerate(chains):
            simplices, index, cycles, boundaries = c.degree(k)
            columns = _chain_columns(tower.maps[i - 1], previous, index, p) if i else []
            yield columns, boundaries, cycles
            previous = simplices

    return [elder_barcode(steps(k), p) if k <= top else Barcode.of(()) for k in range(k_max + 1)]


def pposet_barcodes(pp: PersistencePoset, field: FieldSpec, k_max: int) -> list[Barcode]:
    """Barcodes of pp's order-complex tower in degrees 0..k_max, indexed by degree.

    The one path from a persistence poset to its barcodes.  Each slice is
    replaced by its beat-point core (posets.core, cached, so equal slices
    share one core), which keeps the barcodes in every degree: the
    inclusions of the cores are homotopy equivalences with the
    retractions as inverses, and they commute with the structure maps on
    homology.  Each structure map becomes the next retraction after it,
    restricted to the core.  The barcodes then depend only on the cores,
    those maps, the field and k_max, and are built once per distinct key
    while the cache holds it.  The list returned is the caller's own.
    """
    cores = [posets.core(c) for c in pp.components]
    maps = tuple(
        tuple((x, cores[i + 1][1].assignment[f.assignment[x]]) for x in cores[i][0].elements)
        for i, f in enumerate(pp.maps)
    )
    return list(_core_barcodes(tuple(C for C, _ in cores), maps, field, k_max))


@lru_cache(maxsize=4096)
def _core_barcodes(
    core_components: tuple[posets.FinitePoset, ...],
    core_maps: tuple[tuple[tuple[str, str], ...], ...],
    field: FieldSpec,
    k_max: int,
) -> tuple[Barcode, ...]:
    """tower_barcodes of the order-complex tower of cores joined by (element, image) maps."""
    complexes = [order_complex(C) for C in core_components]
    maps = [SimplicialMap(complexes[i], complexes[i + 1], dict(m)) for i, m in enumerate(core_maps)]
    return tuple(tower_barcodes(ComplexTower(tuple(complexes), tuple(maps)), field, k_max))


def _induced_rank(sm: SimplicialMap, k: int, p: int) -> int:
    """rank H_k(sm), from the cached reductions of sm's source and target.

    A chain map sends B_k(K) into B_k(L), so the rank is the number of
    cycles of Z_k(K) whose images stay independent modulo B_k(L): each is
    pushed through the chain map and reduced against the boundary pivots
    of L and the survivors so far.
    """
    simplices, _, cycles, _ = _chains(sm.source, p).degree(k)
    _, index, _, boundaries = _chains(sm.target, p).degree(k)
    columns = _chain_columns(sm, simplices, index, p)
    table = dict(boundaries)
    for cycle in cycles:
        reduced = linalg.reduce_column(linalg.apply(columns, cycle, p), table, p)
        if reduced:
            linalg.insert_pivot(reduced, table, p)
    return len(table) - len(boundaries)


def reduced_dim(K: SimplicialComplex, k: int, field: FieldSpec) -> int:
    """Reduced Betti number dim Z_k - rank B_k, less one in degree 0 of a nonempty complex.

    Degree -1 is 1 for the empty complex and 0 otherwise, by convention.
    """
    if k == -1:
        return 1 if K.is_empty() else 0
    if k < -1:
        return 0
    _, _, cycles, boundaries = _chains(K, field.p).degree(k)
    return len(cycles) - len(boundaries) - (k == 0 and not K.is_empty())
