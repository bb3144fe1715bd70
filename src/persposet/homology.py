"""Simplicial homology over a prime field with explicit bases.

Boundary matrices use the fixed lexicographic simplex order, so bases,
induced matrices, and the persistence modules built from towers are
bit-reproducible.  Results are cached per complex; cached arrays are
read-only.

Barcodes of towers come from tower_barcodes: one sparse reduction of
each complex's boundary matrices and one elder-rule sweep per degree.
homology, induced_on_homology and homology_tower are the dense reference
that the tests check it against; the rank table of a certificate and
reduced_dim use them too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .complexes import ComplexTower, SimplicialComplex, SimplicialMap
from .errors import InternalError
from .modules import Barcode, FieldSpec, PersistenceModule, elder_barcode

__all__ = [
    "FieldSpec",
    "HomologyBasis",
    "boundary_matrix",
    "homology",
    "homology_tower",
    "induced_on_homology",
    "reduced_dim",
    "tower_barcodes",
]


@dataclass(frozen=True)
class HomologyBasis:
    """Representative cycles spanning H_k, as columns over the k-simplex basis."""

    degree: int
    dimension: int
    cycles: np.ndarray
    simplices: tuple[tuple[str, ...], ...]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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


def _dense(columns: list[linalg.Column], rows: int) -> np.ndarray:
    mat = linalg.zeros(rows, len(columns))
    for j, column in enumerate(columns):
        for r, v in column.items():
            mat[r, j] = v
    return mat


@lru_cache(maxsize=4096)
def _boundary(K: SimplicialComplex, k: int, p: int) -> np.ndarray:
    faces = {s: i for i, s in enumerate(K.k_simplices(k - 1))}
    return _freeze(_dense([_boundary_column(s, faces, p) for s in K.k_simplices(k)], len(faces)))


def boundary_matrix(K: SimplicialComplex, k: int, field: FieldSpec) -> np.ndarray:
    """The k-th boundary matrix; rows are (k-1)-simplices, columns k-simplices."""
    return _boundary(K, k, field.p)


@lru_cache(maxsize=4096)
def _augmentation(K: SimplicialComplex, p: int) -> np.ndarray:
    return _freeze(np.ones((1, len(K.k_simplices(0))), dtype=np.int64))


def _low_boundary(K: SimplicialComplex, k: int, p: int, reduced: bool) -> np.ndarray:
    if k == 0 and reduced:
        return _augmentation(K, p)
    return _boundary(K, k, p)


@lru_cache(maxsize=4096)
def homology(K: SimplicialComplex, k: int, field: FieldSpec, reduced: bool = False) -> HomologyBasis:
    """Basis of H_k = ker d_k / im d_{k+1} (augmented in degree 0 if reduced)."""
    p = field.p
    d_k = _low_boundary(K, k, p, reduced)
    d_k1 = _boundary(K, k + 1, p)
    kernel = linalg.nullspace(d_k, p)
    image = linalg.column_space_basis(d_k1, p)
    combined = np.hstack([image, kernel]) if kernel.size or image.size else linalg.zeros(kernel.shape[0], 0)
    _, pivots = linalg.row_reduce(combined, p)
    b = image.shape[1]
    reps = [kernel[:, c - b] for c in pivots if c >= b]
    dim = kernel.shape[1] - b
    if len(reps) != dim:
        raise InternalError("independent cycle count disagrees with rank computation")
    cycles = np.stack(reps, axis=1) if reps else linalg.zeros(kernel.shape[0], 0)
    return HomologyBasis(
        degree=k,
        dimension=dim,
        cycles=_freeze(cycles),
        simplices=tuple(K.k_simplices(k)),
    )


def reduced_dim(K: SimplicialComplex, k: int, field: FieldSpec) -> int:
    """Reduced Betti number; degree -1 is 1 for the empty complex by convention."""
    if k == -1:
        return 1 if K.is_empty() else 0
    if k < -1:
        return 0
    return homology(K, k, field, reduced=True).dimension


def _chain_map_matrix(sm: SimplicialMap, k: int, p: int) -> np.ndarray:
    target = {s: i for i, s in enumerate(sm.target.k_simplices(k))}
    return _dense(_chain_columns(sm, sm.source.k_simplices(k), target, p), len(target))


def induced_on_homology(
    sm: SimplicialMap,
    k: int,
    field: FieldSpec,
    source_basis: HomologyBasis,
    target_basis: HomologyBasis,
) -> np.ndarray:
    """Matrix of the induced map H_k(source) -> H_k(target) in the given bases."""
    p = field.p
    chain = _chain_map_matrix(sm, k, p)
    images = (
        linalg.matmul(chain, source_basis.cycles, p)
        if source_basis.cycles.size
        else linalg.zeros(chain.shape[0], source_basis.dimension)
    )
    boundaries = _boundary(sm.target, k + 1, p)
    system = np.hstack([target_basis.cycles, boundaries])
    coords = linalg.solve_matrix(system, images, p)
    if coords is None:
        raise InternalError("image of a cycle failed to decompose over the target basis")
    return coords[: target_basis.dimension, :]


def homology_tower(tower: ComplexTower, k: int, field: FieldSpec) -> PersistenceModule:
    """Persistence module of degree-k homology along a complex tower.

    The dense reference for tower_barcodes, which does not build it.
    """
    bases = [homology(K, k, field) for K in tower.complexes]
    dims = tuple(b.dimension for b in bases)
    transitions = tuple(
        induced_on_homology(tower.maps[i], k, field, bases[i], bases[i + 1])
        for i in range(tower.T)
    )
    return PersistenceModule(field=field, dims=dims, transitions=transitions)


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

    The one path from a complex tower to barcodes: every verifier routine
    and the CLI go through it.  Each complex's boundary matrices are
    reduced once (and cached per complex); each degree is then one
    elder-rule sweep (modules.elder_barcode) of the cycles, pushed along
    the chain maps, against the boundaries.  Degree 0 is unreduced.  A
    degree above the tower's top degree has no homology, so its barcode
    is empty and nothing is built for it.
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
