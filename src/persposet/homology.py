"""Simplicial homology over a prime field with explicit bases.

Boundary matrices use the fixed lexicographic simplex order, so bases,
induced matrices, and the persistence modules built from towers are
bit-reproducible.  Results are cached per complex; cached arrays are
read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .complexes import ComplexTower, SimplicialComplex, SimplicialMap
from .errors import InternalError
from .modules import Barcode, FieldSpec, PersistenceModule, barcode

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


@lru_cache(maxsize=None)
def _boundary(K: SimplicialComplex, k: int, p: int) -> np.ndarray:
    rows = K.k_simplices(k - 1) if k >= 1 else []
    cols = K.k_simplices(k)
    row_index = {s: i for i, s in enumerate(rows)}
    mat = linalg.zeros(len(rows), len(cols))
    for j, simplex in enumerate(cols):
        for drop in range(len(simplex)):
            face = simplex[:drop] + simplex[drop + 1 :]
            if face:
                mat[row_index[face], j] = (-1) ** drop % p
    return _freeze(mat)


def boundary_matrix(K: SimplicialComplex, k: int, field: FieldSpec) -> np.ndarray:
    """The k-th boundary matrix; rows are (k-1)-simplices, columns k-simplices."""
    return _boundary(K, k, field.p)


@lru_cache(maxsize=None)
def _augmentation(K: SimplicialComplex, p: int) -> np.ndarray:
    return _freeze(np.ones((1, len(K.k_simplices(0))), dtype=np.int64))


def _low_boundary(K: SimplicialComplex, k: int, p: int, reduced: bool) -> np.ndarray:
    if k == 0 and reduced:
        return _augmentation(K, p)
    return _boundary(K, k, p)


@lru_cache(maxsize=None)
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
    source = sm.source.k_simplices(k)
    target = sm.target.k_simplices(k)
    target_index = {s: i for i, s in enumerate(target)}
    mat = linalg.zeros(len(target), len(source))
    for j, simplex in enumerate(source):
        image = [sm.vertex_map[v] for v in simplex]
        if len(set(image)) < len(image):
            continue  # degenerate image contributes nothing
        inversions = sum(
            1 for a in range(len(image)) for b in range(a + 1, len(image)) if image[a] > image[b]
        )
        sign = (-1) ** inversions % p
        mat[target_index[tuple(sorted(image))], j] = sign
    return mat


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
    """Persistence module of degree-k homology along a complex tower."""
    bases = [homology(K, k, field) for K in tower.complexes]
    dims = tuple(b.dimension for b in bases)
    transitions = tuple(
        induced_on_homology(tower.maps[i], k, field, bases[i], bases[i + 1])
        for i in range(tower.T)
    )
    return PersistenceModule(field=field, dims=dims, transitions=transitions)


def tower_barcodes(tower: ComplexTower, field: FieldSpec, k_max: int) -> list[Barcode]:
    """Barcodes of the tower's homology in degrees 0..k_max, indexed by degree.

    The one path from a complex tower to barcodes: every verifier routine
    and the CLI go through it.  A degree above the tower's top degree has
    no homology, so its barcode is empty and nothing is built for it.
    """
    top = tower.top_degree()
    return [
        barcode(homology_tower(tower, k, field)) if k <= top else Barcode.of(())
        for k in range(k_max + 1)
    ]
