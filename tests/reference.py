"""Dense reference paths that the tests check the library against.

The library computes on sparse columns only.  This module keeps the
slower dense paths they replaced, over numpy int64 matrices:

- dense linear algebra over F_p: row reduction, rank, nullspace, solve;
- dense homology: boundary matrices, homology bases with representative
  cycles, matrices induced on homology, and homology_tower;
- the module oracles: the rank invariant, eps-triviality cross-checked by
  nilpotency, composite transitions, and the exhaustive interleaving
  search;
- the bottleneck distance as the least eps with a feasible matching, by
  linear scan from 0, where the library searches upward from 1 by
  doubling and bisects;
- converters between dense matrices and the sparse columns of
  PersistenceModule.transitions;
- the interpolation chains built as two mirrored loops, and the coherent
  linear extension of the order enriched by every image-ordered pair,
  closed again with Warshall;
- the slice routines the poset layer replaced: the topological sort that
  re-scans every remaining element at each step, the longest chain over
  it, the beat-point loop without the antichain shortcut and with the
  max-based search for an extreme element, and the poset mapping
  cylinder and ordinal-sum slice rebuilt through new_poset;
- the subposets of a trajectory row selected element by element with a
  predicate (comparison sets, fibers, weak up-sets), which the library
  reads off the closed relation instead, built through restrict, which
  checks that the subsets are closed and raises NotASubposet when they
  are not; the library builds only subsets it has shown closed;
- the weak-point test of one slice element off its strict sets, which
  the library reads off a row's sets (pposets.removes_weak_points);
- a slice restriction that always filters into a new poset, where the
  library shares the empty poset and the whole one, and connectivity and
  cone tests that test each pair with leq;
- the verifier's fiber and comparison-set defects and its puncture step
  with every subposet and its barcodes built, where the library reads an
  INF defect off a last slice that is empty or disconnected and a finite
  one off a closed row whose last slice is a cone;
- the complement of a removed row through restrict, and the puncture
  suite as a loop of puncture_step calls, one per step, each on that
  complement, where the suite builds a side only when the step's outcome
  depends on it;
- simplicial maps and towers of complexes (SimplicialMap, ComplexTower),
  which check every vertex and simplex image when built; the library's
  sweep (homology._sweep) takes plain vertex maps of monotone maps, which
  are simplicial by construction, and the tests pass those maps through
  SimplicialMap instead;
- the barcodes of any tower of complexes (tower_barcodes): the library's
  sweep over each complex's reduction, memoized here per complex, where
  the library sweeps only towers of cores, over reductions cached per
  core;
- the full order-complex tower of a persistence poset, with the induced
  simplicial maps, the simplicial join, the slicewise join of towers and
  the relabelling of a persistence poset;
- the join lemma on those full towers: each factor relabelled, the towers
  joined complex by complex, and each defect read off tower_barcodes
  (acyclicity_defect); the library reads it off the ordinal sum instead;
- the slicewise beat-point core as a validated persistence poset, with
  its retractions, and its order-complex tower;
- the reduced Betti number of a complex off its sparse reduction
  (reduced_dim), which the join lemma reference reads;
- the functools caches of the library, found by a scan of the persposet
  modules, and one call that clears them all;
- small constructors and accessors the library itself no longer needs:
  a complex closed downward from its simplices (in the library's form:
  name-sorted simplex tuples, by degree and then lexicographically), a
  complex's top degree, a degree's simplices in order, the zero module,
  a module's dimension at any index, the boolean form of
  posets.check_map, a constant persistence poset, and the inverses of
  the pposet and cover documents (pposet_from_doc, cover_to_doc) for
  round-trip tests;
- the canonical text of a document as json's own encoder writes it
  (canonical_json), which documents.canonical_json writes by hand.

Elimination is deterministic (the first nonzero entry in a fixed scan
order is the pivot).  FieldSpec keeps p below 2**16, so every int64 dot
product of n < 2**31 terms is exact.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from persposet.complexes import SimplicialComplex, order_complex
from persposet.documents import COVER_SCHEMA, PPOSET_SCHEMA, CoverTower, _is_count, _parse_poset_block, _require
from persposet.errors import (
    DuplicateElement,
    HypothesisUnmet,
    InternalError,
    NonMonotoneStructureMap,
    PartialStructureMap,
    PersistenceError,
    ShapeMismatch,
    UnknownElement,
)
from persposet.homology import _boundary_column, _chain_columns, _chains, _sweep, pposet_barcodes
from persposet.linalg import Column, _inv_scalar
from persposet.modules import INF, Barcode, FieldSpec, PersistenceModule, _matching_feasible, barcode
from persposet.posets import (
    FinitePoset,
    check_map,
    core,
    new_poset,
)
from persposet.pposets import (
    CYLINDER_SOURCE_TAG,
    CYLINDER_TARGET_TAG,
    ChainFiltrations,
    ChainStep,
    PersistenceMap,
    ElementTrack,
    PersistencePoset,
    _sub_tower,
    _tagged_track,
    persistence_mapping_cylinder,
    top_degree,
    tracks,
)
from persposet.verifier import DEFAULT_FIELD, JoinReport, _defect, _distances


class TooLarge(PersistenceError):
    """Input exceeds the scale the exhaustive search is meant for."""


class NotASubposet(PersistenceError):
    """Component subsets are not closed under the structure maps."""


# -- the library's caches -------------------------------------------------------


def library_caches() -> dict[str, object]:
    """Every functools cache among the attributes of the persposet modules and their classes, by name."""
    caches = {}
    for modname, module in sorted(sys.modules.items()):
        if module is None or not modname.startswith("persposet."):
            continue
        for name, obj in vars(module).items():
            candidates = [(f"{modname}.{name}", obj)]
            if isinstance(obj, type) and obj.__module__ == modname:
                candidates += [(f"{modname}.{name}.{attr}", getattr(obj, attr)) for attr in vars(obj)]
            for qualname, candidate in candidates:
                if hasattr(candidate, "cache_info"):
                    caches.setdefault(id(candidate), (qualname, candidate))
    return dict(sorted(caches.values(), key=lambda item: item[0]))


def clear_library_caches() -> None:
    """Clear every functools cache of the library, so that the next call runs cold."""
    for cache in library_caches().values():
        cache.cache_clear()


# -- small constructors and accessors ------------------------------------------


def complex_of(simplices: Iterable[Iterable[str]], vertices: Iterable[str]) -> SimplicialComplex:
    """A complex in the library's form from a closed family of simplices, duplicates dropped."""
    ordered = sorted({tuple(sorted(s)) for s in simplices}, key=lambda s: (len(s), s))
    return SimplicialComplex(vertices=tuple(sorted(vertices)), simplices=tuple(ordered))


def from_simplices(simplices: Iterable[Iterable[str]], vertices: Iterable[str] = ()) -> SimplicialComplex:
    """Close the given simplices downward; extra isolated vertices allowed."""
    closed: set[tuple[str, ...]] = set()
    verts: set[str] = set(vertices)
    for s in simplices:
        fs = frozenset(s)
        if not fs:
            continue
        verts |= fs
        for k in range(1, len(fs) + 1):
            closed.update(itertools.combinations(sorted(fs), k))
    closed.update((v,) for v in verts)
    return complex_of(closed, verts)


def complex_top_degree(K: SimplicialComplex) -> int:
    """The largest dimension of a simplex of K; -1 for the empty complex."""
    return len(K.simplices[-1]) - 1 if K.simplices else -1


def k_simplices(K: SimplicialComplex, k: int) -> list[tuple[str, ...]]:
    """All k-dimensional simplices as sorted tuples, in lexicographic order."""
    return [s for s in K.simplices if len(s) == k + 1]


def zero_module(field: FieldSpec, T: int) -> PersistenceModule:
    return PersistenceModule(field, tuple(0 for _ in range(T + 1)), tuple(() for _ in range(T)))


def dim_at(M: PersistenceModule, i: int) -> int:
    """Dimension at any index i >= 0; the module is constant beyond T."""
    return M.dims[min(i, M.T)]


def constant_pposet(P: FinitePoset, T: int) -> PersistencePoset:
    """P at every index 0..T, with identity structure maps."""
    return PersistencePoset(tuple(P for _ in range(T + 1)), tuple({e: e for e in P.elements} for _ in range(T)))


def pposet_from_doc(obj) -> PersistencePoset:
    """The persistence poset of a pposet document, the inverse of documents.pposet_to_doc."""
    _require(isinstance(obj, dict), "expected a JSON object")
    _require(obj.get("schema") == PPOSET_SCHEMA, f"schema must be {PPOSET_SCHEMA!r}")
    T = obj.get("T")
    _require(_is_count(T), "T must be a non-negative integer")
    return _parse_poset_block(obj, "poset", T)


def cover_to_doc(cover: CoverTower) -> dict:
    """The cover document of a cover tower, the inverse of documents.cover_from_doc."""
    return {
        "schema": COVER_SCHEMA,
        "T": cover.T,
        "sets": {name: [sorted(stage) for stage in seq] for name, seq in sorted(cover.sets.items())},
    }


def canonical_json(doc) -> str:
    """The canonical text of doc by json.dumps, which documents.canonical_json must equal byte for byte."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def is_monotone(source: FinitePoset, target: FinitePoset, f: dict[str, str]) -> bool:
    """True iff f is total on source, lands in target, and preserves strict order."""
    try:
        check_map(source, target, f)
    except (PartialStructureMap, NonMonotoneStructureMap):
        return False
    return True


# -- dense <-> sparse -------------------------------------------------------------


def columns(mat) -> tuple[Column, ...]:
    """The sparse columns of a dense matrix; _dense is the inverse."""
    mat = np.asarray(mat, dtype=np.int64)
    return tuple({r: int(v) for r, v in enumerate(mat[:, j]) if v} for j in range(mat.shape[1]))


def module(field: FieldSpec, dims: Sequence[int], mats: Sequence) -> PersistenceModule:
    """A PersistenceModule from dense transition matrices."""
    return PersistenceModule(field, tuple(dims), tuple(columns(m) for m in mats))


def transition(M: PersistenceModule, i: int) -> np.ndarray:
    """Transition i of M as a dense dims[i + 1] x dims[i] matrix."""
    return _dense(M.transitions[i], M.dims[i + 1])


def composite(M: PersistenceModule, i: int, j: int) -> np.ndarray:
    """Matrix of the composite transition from index i to index j >= i."""
    if j < i:
        raise IndexError("composites run forward only")
    mat = identity(dim_at(M, i))
    for k in range(min(i, M.T), min(j, M.T)):
        mat = matmul(transition(M, k), mat, M.field.p)
    return mat


# -- dense linear algebra over F_p -----------------------------------------------------


def normalize(a: np.ndarray, p: int) -> np.ndarray:
    return np.mod(np.asarray(a, dtype=np.int64), p)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return np.mod(a @ b, p)


def row_reduce(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the pivot column list."""
    m = normalize(a, p).copy()
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = np.mod(m[r] * _inv_scalar(m[r, c], p), p)
        other = np.nonzero(m[:, c])[0]
        for j in other:
            if j != r:
                m[j] = np.mod(m[j] - m[j, c] * m[r], p)
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(row_reduce(a, p)[1])


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Columns form a deterministic basis of the kernel."""
    a = normalize(a, p)
    rows, cols = a.shape
    if cols == 0:
        return zeros(0, 0)
    red, pivots = row_reduce(a, p)
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = zeros(cols, len(free))
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for r, pc in enumerate(pivots):
            basis[pc, k] = (-red[r, fc]) % p
    return basis


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution of a x = b (free variables zero), or None if inconsistent."""
    a = normalize(a, p)
    b = normalize(b.reshape(-1, 1), p)
    aug = np.hstack([a, b])
    red, pivots = row_reduce(aug, p)
    if a.shape[1] in pivots:
        return None
    x = zeros(a.shape[1], 1)
    for r, pc in enumerate(pivots):
        x[pc, 0] = red[r, -1]
    return x[:, 0]


def solve_matrix(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """Columnwise solve of a X = b; None if any column is inconsistent."""
    cols = []
    for j in range(b.shape[1]):
        x = solve(a, b[:, j], p)
        if x is None:
            return None
        cols.append(x)
    if not cols:
        return zeros(a.shape[1], 0)
    return np.stack(cols, axis=1)


def column_space_basis(a: np.ndarray, p: int) -> np.ndarray:
    """The pivot columns of a, as a deterministic basis of the column space."""
    a = normalize(a, p)
    if a.size == 0:
        return zeros(a.shape[0], 0)
    _, pivots = row_reduce(a, p)
    return a[:, pivots] if pivots else zeros(a.shape[0], 0)


# -- simplicial maps and towers -------------------------------------------------------


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
                raise AssertionError(f"vertex {v!r} has no valid image")
        target_simplices = set(self.target.simplices)
        for s in self.source.simplices:
            if self.apply_simplex(s) not in target_simplices:
                raise AssertionError(f"image of simplex {s!r} is not a target simplex")

    def apply_simplex(self, s: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted({self.vertex_map[v] for v in s}))


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
            if m.source is not self.complexes[i] or m.target is not self.complexes[i + 1]:
                raise ShapeMismatch(f"map {i} does not connect complexes {i} -> {i + 1}")

    @property
    def T(self) -> int:
        return len(self.complexes) - 1

    def top_degree(self) -> int:
        return max((complex_top_degree(K) for K in self.complexes), default=-1)


def tower_barcodes(
    complexes: Sequence[SimplicialComplex], maps: Sequence[dict[str, str]], field: FieldSpec, k_max: int
) -> list[Barcode]:
    """Barcodes of a tower of complexes in degrees 0..k_max: the library's sweep over each complex's reduction.

    maps[i] is a simplicial vertex map from complexes[i] to complexes[i + 1].
    The library sweeps only towers of cores, over reductions cached per
    core (homology._core_barcodes); this is the complex-level reference for
    it, and its reductions are this module's own (reduction).
    """
    return _sweep([reduction(K, field.p) for K in complexes], maps, field.p, k_max)


@lru_cache(maxsize=4096)
def reduction(K: SimplicialComplex, p: int):
    """homology._chains, which the library does not cache per complex, memoized per complex and p.

    Complexes compare by value, so equal complexes built apart share one
    reduction; the tests reduce the same complexes many times over.
    """
    return _chains(K, p)


def barcodes_of(tower: ComplexTower, field: FieldSpec, k_max: int) -> list[Barcode]:
    """tower_barcodes of a checked tower, its maps handed over as plain vertex maps."""
    return tower_barcodes(tower.complexes, [m.vertex_map for m in tower.maps], field, k_max)


# -- dense homology ------------------------------------------------------------------


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


def _dense(columns: list[Column], rows: int) -> np.ndarray:
    mat = zeros(rows, len(columns))
    for j, column in enumerate(columns):
        for r, v in column.items():
            mat[r, j] = v
    return mat


@lru_cache(maxsize=4096)
def _boundary(K: SimplicialComplex, k: int, p: int) -> np.ndarray:
    faces = {s: i for i, s in enumerate(k_simplices(K, k - 1))}
    return _freeze(_dense([_boundary_column(s, faces, p) for s in k_simplices(K, k)], len(faces)))


def boundary_matrix(K: SimplicialComplex, k: int, field: FieldSpec) -> np.ndarray:
    """The k-th boundary matrix; rows are (k-1)-simplices, columns k-simplices."""
    return _boundary(K, k, field.p)


@lru_cache(maxsize=4096)
def _augmentation(K: SimplicialComplex, p: int) -> np.ndarray:
    return _freeze(np.ones((1, len(k_simplices(K, 0))), dtype=np.int64))


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
    kernel = nullspace(d_k, p)
    image = column_space_basis(d_k1, p)
    combined = np.hstack([image, kernel]) if kernel.size or image.size else zeros(kernel.shape[0], 0)
    _, pivots = row_reduce(combined, p)
    b = image.shape[1]
    reps = [kernel[:, c - b] for c in pivots if c >= b]
    dim = kernel.shape[1] - b
    if len(reps) != dim:
        raise InternalError("independent cycle count disagrees with rank computation")
    cycles = np.stack(reps, axis=1) if reps else zeros(kernel.shape[0], 0)
    return HomologyBasis(
        degree=k,
        dimension=dim,
        cycles=_freeze(cycles),
        simplices=tuple(k_simplices(K, k)),
    )


def _chain_map_matrix(sm: SimplicialMap, k: int, p: int) -> np.ndarray:
    target = {s: i for i, s in enumerate(k_simplices(sm.target, k))}
    return _dense(_chain_columns(sm.vertex_map, k_simplices(sm.source, k), target, p), len(target))


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
        matmul(chain, source_basis.cycles, p)
        if source_basis.cycles.size
        else zeros(chain.shape[0], source_basis.dimension)
    )
    boundaries = _boundary(sm.target, k + 1, p)
    system = np.hstack([target_basis.cycles, boundaries])
    coords = solve_matrix(system, images, p)
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
    return module(field, dims, transitions)


# -- module oracles ------------------------------------------------------------------


def rank_invariant(M: PersistenceModule) -> np.ndarray:
    """r[i][j] = rank of the composite i -> j, for 0 <= i <= j <= T+1.

    Column T+1 is the composite into the stable regime and equals
    column T because transitions are identities past T.  The tests check
    every barcode against it, through Barcode.count_through.
    """
    T = M.T
    r = np.zeros((T + 2, T + 2), dtype=np.int64)
    for i in range(T + 2):
        mat = identity(dim_at(M, i))
        r[i, i] = dim_at(M, i)
        for j in range(i + 1, T + 2):
            if j <= T:
                mat = matmul(transition(M, j - 1), mat, M.field.p)
            r[i, j] = rank(mat, M.field.p)
    return r


def eps_trivial(M: PersistenceModule, eps: int) -> bool:
    """Whether every class dies within 2*eps steps of its birth.

    Decided on the barcode and cross-checked against nilpotency of the
    2*eps-fold composite transition from every start index.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    code = barcode(M)
    by_barcode = all(d != INF and d - b <= 2 * eps for b, d in code.bars)
    by_nilpotency = not any(composite(M, i, i + 2 * eps).any() for i in range(M.T + 1))
    if by_barcode != by_nilpotency:
        raise InternalError("barcode and nilpotency criteria disagree")
    return by_barcode


# -- exhaustive interleaving oracle ---------------------------------------------


def _morphism_layout(M: PersistenceModule, N: PersistenceModule, eps: int) -> list[tuple[int, int]]:
    """Shapes of the unknown slice maps phi_i : M_i -> N_{i+eps}, i = 0..T."""
    return [(dim_at(N, i + eps), M.dims[i]) for i in range(M.T + 1)]


def _commuting_nullspace(M: PersistenceModule, N: PersistenceModule, eps: int) -> tuple[np.ndarray, list[tuple[int, int]], list[int]]:
    """Basis of all families commuting with the structure maps."""
    p = M.field.p
    shapes = _morphism_layout(M, N, eps)
    offsets = []
    total = 0
    for rows, cols in shapes:
        offsets.append(total)
        total += rows * cols

    def unknown(i: int, r: int, c: int) -> int:
        return offsets[i] + r * shapes[i][1] + c

    eq_rows: list[np.ndarray] = []
    for i in range(M.T):
        A = transition(M, i)  # m_{i+1} x m_i
        B = composite(N, i + eps, i + 1 + eps)
        rows_next, _ = shapes[i + 1]
        for r in range(rows_next):
            for c in range(M.dims[i]):
                row = np.zeros(total, dtype=np.int64)
                for k in range(M.dims[i + 1]):
                    row[unknown(i + 1, r, k)] = (row[unknown(i + 1, r, k)] + A[k, c]) % p
                for k in range(shapes[i][0]):
                    row[unknown(i, k, c)] = (row[unknown(i, k, c)] - B[r, k]) % p
                eq_rows.append(row)
    system = np.stack(eq_rows) if eq_rows else zeros(0, total)
    basis = nullspace(system, p)
    return basis, shapes, offsets


def _unpack(vec: np.ndarray, shapes: list[tuple[int, int]], offsets: list[int]) -> list[np.ndarray]:
    mats = []
    for (rows, cols), off in zip(shapes, offsets):
        mats.append(vec[off : off + rows * cols].reshape(rows, cols))
    return mats


def interleaving_bruteforce(M: PersistenceModule, N: PersistenceModule, eps: int) -> bool:
    """Exhaustively decide whether an eps-interleaving exists.

    Every commuting family M -> N (shifted by eps) is enumerated; for
    each, the two composite-equals-shift equations become a linear
    system in the opposite family, which is solved exactly.  Only meant
    for tiny inputs and guarded accordingly.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    for mod in (M, N):
        if mod.field.p != 2:
            raise TooLarge("oracle scale requires p = 2")
        if mod.T > 3:
            raise TooLarge("oracle scale requires T <= 3")
        if any(d > 2 for d in mod.dims):
            raise TooLarge("oracle scale requires dims <= 2")
    if M.T != N.T:
        raise ShapeMismatch("modules must have the same length")

    phi_basis, _, _ = _commuting_nullspace(M, N, eps)
    psi_basis, _, _ = _commuting_nullspace(N, M, eps)
    if phi_basis.shape[1] <= psi_basis.shape[1]:
        return _search_pairs(M, N, eps)
    return _search_pairs(N, M, eps)


def _search_pairs(M: PersistenceModule, N: PersistenceModule, eps: int) -> bool:
    p = M.field.p
    T = M.T
    phi_basis, phi_shapes, phi_offsets = _commuting_nullspace(M, N, eps)
    psi_basis, psi_shapes, psi_offsets = _commuting_nullspace(N, M, eps)
    n_psi = psi_basis.shape[0]

    # Rows of the linear conditions on psi, given phi:
    #   psi_at(i+eps) @ phi_i = composite(M, i, i+2eps)      (i = 0..T)
    #   phi_at(i+eps) @ psi_i = composite(N, i, i+2eps)      (i = 0..T)
    def psi_unknown(i: int, r: int, c: int) -> int:
        return psi_offsets[i] + r * psi_shapes[i][1] + c

    def conditions(phi_mats: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        rows: list[np.ndarray] = []
        rhs: list[int] = []
        for i in range(T + 1):
            shift = composite(M, i, i + 2 * eps)
            j = min(i + eps, T)
            phi_i = phi_mats[i]
            for r in range(shift.shape[0]):
                for c in range(shift.shape[1]):
                    row = np.zeros(n_psi, dtype=np.int64)
                    for k in range(phi_i.shape[0]):
                        row[psi_unknown(j, r, k)] = (row[psi_unknown(j, r, k)] + phi_i[k, c]) % p
                    rows.append(row)
                    rhs.append(int(shift[r, c]))
        for i in range(T + 1):
            shift = composite(N, i, i + 2 * eps)
            phi_j = phi_mats[min(i + eps, T)]
            for r in range(shift.shape[0]):
                for c in range(shift.shape[1]):
                    row = np.zeros(n_psi, dtype=np.int64)
                    for k in range(psi_shapes[i][0]):
                        row[psi_unknown(i, k, c)] = (row[psi_unknown(i, k, c)] + phi_j[r, k]) % p
                    rows.append(row)
                    rhs.append(int(shift[r, c]))
        mat = np.stack(rows) if rows else zeros(0, n_psi)
        return mat, np.array(rhs, dtype=np.int64)

    k = phi_basis.shape[1]
    for coeffs in itertools.product(range(p), repeat=k):
        vec = normalize(phi_basis @ np.array(coeffs, dtype=np.int64), p) if k else np.zeros(phi_basis.shape[0], dtype=np.int64)
        phi_mats = _unpack(vec, phi_shapes, phi_offsets)
        cond, rhs = conditions(phi_mats)
        reduced = matmul(cond, psi_basis, p) if psi_basis.size else zeros(cond.shape[0], 0)
        if solve(reduced, rhs, p) is not None:
            return True
    return False


def searched_distance(B1: Barcode, B2: Barcode) -> int | float:
    """The least eps in 0..hi with a feasible matching, by linear scan; hi is the largest finite endpoint.

    INF when the essential counts differ, since essential bars match only
    essential bars.
    """
    if B1.essential_count() != B2.essential_count():
        return INF
    hi = max((v for bar in B1.bars + B2.bars for v in bar if v != INF), default=0)
    return next(eps for eps in range(hi + 1) if _matching_feasible(B1.bars, B2.bars, eps))


# -- slice routines and subposets of a trajectory row ---------------------------


def linear_extension(P: FinitePoset) -> list[str]:
    """Deterministic topological sort: always pop the lexicographically
    smallest currently-minimal element, re-scanning every remaining one."""
    remaining = set(P.elements)
    preds: dict[str, set[str]] = {e: set() for e in P.elements}
    for a, b in P.relation:
        preds[b].add(a)
    out: list[str] = []
    while remaining:
        ready = sorted(e for e in remaining if not (preds[e] & remaining))
        nxt = ready[0]
        out.append(nxt)
        remaining.remove(nxt)
    return out


def longest_chain(P: FinitePoset) -> int:
    """Number of elements in a longest chain (0 for the empty poset), over a linear extension."""
    best: dict[str, int] = {}
    top = 0
    for e in linear_extension(P):
        below = [best[a] for a, b in P.relation if b == e]
        best[e] = 1 + (max(below) if below else 0)
        top = max(top, best[e])
    return top


def _extreme(candidates: set[str], inner: dict[str, set[str]]) -> str | None:
    """posets._extreme through max: the candidate with the largest inner set, if that set holds all the others."""
    if not candidates:
        return None
    best = max(candidates, key=lambda e: len(inner[e]))
    return best if len(inner[best]) == len(candidates) - 1 else None


def beat_point_core(P: FinitePoset) -> tuple[FinitePoset, dict[str, str]]:
    """posets.core by its removal loop alone, uncached, with no antichain shortcut and _extreme through max."""
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
    C = FinitePoset(
        elements=tuple(e for e in P.elements if e not in sent),
        relation=frozenset((a, b) for (a, b) in P.relation if a not in sent and b not in sent),
    )
    r = {}
    for x in P.elements:
        y = x
        while y in sent:
            y = sent[y]
        r[x] = y
    return C, r


def mapping_cylinder(X: FinitePoset, Y: FinitePoset, f: dict[str, str]) -> FinitePoset:
    """The poset mapping cylinder of f: X -> Y, its generating pairs closed again by new_poset."""
    check_map(X, Y, f)
    elems = [CYLINDER_SOURCE_TAG + x for x in X.elements] + [CYLINDER_TARGET_TAG + y for y in Y.elements]
    pairs: list[tuple[str, str]] = []
    pairs += [(CYLINDER_SOURCE_TAG + a, CYLINDER_SOURCE_TAG + b) for (a, b) in X.relation]
    pairs += [(CYLINDER_TARGET_TAG + a, CYLINDER_TARGET_TAG + b) for (a, b) in Y.relation]
    for x in X.elements:
        fx = f[x]
        for y in Y.elements:
            if Y.leq(fx, y):
                pairs.append((CYLINDER_SOURCE_TAG + x, CYLINDER_TARGET_TAG + y))
    return new_poset(elems, pairs)


def ordinal_sum_slice(P: FinitePoset, Q: FinitePoset) -> FinitePoset:
    """One slice of pposets.ordinal_sum, closed again by new_poset."""
    return new_poset(
        ["A:" + a for a in P.elements] + ["B:" + b for b in Q.elements],
        [("A:" + a, "A:" + b) for a, b in P.relation]
        + [("B:" + a, "B:" + b) for a, b in Q.relation]
        + [("A:" + a, "B:" + b) for a in P.elements for b in Q.elements],
    )


def restrict(pp: PersistencePoset, subsets: Sequence[Iterable[str]]) -> PersistencePoset:
    """Persistence subposet on per-component subsets.

    Raises NotASubposet when the subsets are not closed under the
    structure maps.  Closure makes the restricted maps total and forbids
    an empty slice after a nonempty one, and restricted monotone maps are
    monotone, so the result is built as a sub-tower, without validate.
    """
    if len(subsets) != pp.T + 1:
        raise NotASubposet(f"expected {pp.T + 1} subsets")
    sets = [set(s) for s in subsets]
    for i, s in enumerate(sets):
        extra = s.difference(pp.components[i].elements)
        if extra:
            raise UnknownElement(f"slice {i}: {sorted(extra)!r} not in component")
    for i in range(pp.T):
        leaving = [x for x in sets[i] if pp.maps[i][x] not in sets[i + 1]]
        if leaving:
            x = min(leaving)
            raise NotASubposet(f"slice {i}: image {pp.maps[i][x]!r} of {x!r} leaves the subset")
    return _sub_tower(pp, pp, sets, range(pp.T + 1))


def _restrict_along(
    pp: PersistencePoset,
    row: Sequence[str | None],
    keep: Callable[[int, str, str], bool],
) -> PersistencePoset:
    """Persistence subposet of the elements a of component i with keep(i, a, row[i]); empty where row is None."""
    return restrict(pp, [
        set() if v is None else {a for a in pp.components[i].elements if keep(i, a, v)}
        for i, v in enumerate(row)
    ])


def fiber(f: PersistenceMap, y: ElementTrack) -> PersistencePoset:
    """Preimage of the weak down-set of a target track, element by element."""
    return _restrict_along(
        f.source,
        y.trajectory,
        lambda i, x, v: f.target.components[i].leq(f.slices[i][x], v),
    )


def comparison_set(pp: PersistencePoset, trajectory: Sequence[str | None], direction: str) -> PersistencePoset:
    """Strict down- or up-set of a trajectory row, element by element; NotASubposet for a row of the wrong length."""
    for i, v in enumerate(trajectory[: pp.T + 1]):
        if v is not None and v not in pp.components[i]:
            raise UnknownElement(f"slice {i}: trajectory value {v!r} not in component")
    if len(trajectory) != pp.T + 1:
        raise NotASubposet(f"expected {pp.T + 1} subsets")
    if direction == "below":
        return _restrict_along(pp, trajectory, lambda i, a, v: (a, v) in pp.components[i].relation)
    return _restrict_along(pp, trajectory, lambda i, b, v: (v, b) in pp.components[i].relation)


def up_set_of_image_track(pp: PersistencePoset, track_values: Sequence[str | None]) -> PersistencePoset:
    """Weak up-set of a trajectory row, element by element."""
    return _restrict_along(pp, track_values, lambda i, b, v: pp.components[i].leq(v, b))


def is_connected(P: FinitePoset, subset: Iterable[str]) -> bool:
    """Whether subset induces a connected subposet, by a search that tests each pair with leq."""
    rest = set(subset)
    if not rest:
        return False
    frontier = [rest.pop()]
    while frontier:
        x = frontier.pop()
        joined = {y for y in rest if P.leq(x, y) or P.leq(y, x)}
        rest -= joined
        frontier += joined
    return not rest


def is_cone(P: FinitePoset, subset: Iterable[str]) -> bool:
    """Whether some element of subset is comparable with every other one, testing each pair with leq."""
    inside = list(subset)
    return any(all(P.leq(a, b) or P.leq(b, a) for b in inside) for a in inside)


def is_weak_point(P: FinitePoset, x: str) -> bool:
    """Whether x is a weak point of P: its strict down-set or its strict up-set is a cone (reference is_cone)."""
    return is_cone(P, [a for a in P.elements if (a, x) in P.relation]) or is_cone(
        P, [b for b in P.elements if (x, b) in P.relation]
    )


def restrict_slice(P: FinitePoset, subset: Iterable[str]) -> FinitePoset:
    """Induced subposet, always filtered into a new poset."""
    keep = set(subset)
    if keep - set(P.elements):
        raise UnknownElement(f"elements {sorted(keep - set(P.elements))!r} not in poset")
    return FinitePoset(
        elements=tuple(e for e in P.elements if e in keep),
        relation=frozenset((a, b) for a, b in P.relation if a in keep and b in keep),
    )


# -- the verifier's defects, every subposet built -------------------------------


def fiber_defects(f: PersistenceMap, field: FieldSpec, k_max: int) -> dict[ElementTrack, int | float]:
    """The defect of every fiber off its built barcodes, with no last-slice rule."""
    return {y: _defect(pposet_barcodes(fiber(f, y), field, max(k_max, 0))) for y in tracks(f.target)}


def comparison_defect(pp: PersistencePoset, trajectory, direction: str, field: FieldSpec, k_max: int) -> int | float:
    """The defect of a comparison set off its built barcodes; INF when it is not a subposet."""
    try:
        sub = comparison_set(pp, trajectory, direction)
    except NotASubposet:
        return INF
    return _defect(pposet_barcodes(sub, field, max(k_max, 0)))


def complement(pp: PersistencePoset, removed: Sequence[str | None]) -> PersistencePoset:
    """pp without the removed value of each slice (None removes nothing), through restrict, which checks closure."""
    return restrict(pp, [set(c.elements) - {r} for c, r in zip(pp.components, removed, strict=True)])


def puncture_step(larger: PersistencePoset, smaller: PersistencePoset, trajectory, field: FieldSpec, k_max: int):
    """verifier._step_violation with both comparison sets built: (eps below, eps above, distances).

    Raises HypothesisUnmet when both defects are INF.
    """
    below, above = (comparison_defect(larger, trajectory, d, field, k_max) for d in ("below", "above"))
    if min(below, above) == INF:
        raise HypothesisUnmet("both comparison sets have infinite acyclicity defect")
    return below, above, _distances(pposet_barcodes(larger, field, k_max), pposet_barcodes(smaller, field, k_max))


def puncture_suite_by_lemma(f: PersistenceMap, field: FieldSpec, k_max: int | None = None):
    """chain_puncture_suite as a loop of puncture_step calls, one per nontrivial step.

    The steps come from the two-loop chain_filtrations below, and each
    step's smaller member is built afresh as the complement of its
    removed row.  Returns (checked, trivial, skipped, violations) and a
    list of (step, result) for the nontrivial steps, result
    puncture_step's (eps below, eps above, distances), or None where the
    hypothesis fails.
    """
    chains = chain_filtrations(f)
    if k_max is None:
        k_max = top_degree(chains.cylinder)
    trivial, violations, results = 0, [], []
    for name, steps in (("grow", chains.target_steps), ("shrink", chains.source_steps)):
        for idx, step in enumerate(steps):
            if all(r is None for r in step.removed):
                trivial += 1
                continue
            smaller = complement(step.larger, step.removed)
            try:
                result = puncture_step(step.larger, smaller, step.track.trajectory, field, k_max)
            except HypothesisUnmet:
                result = None
            results.append((step, result))
            if result is not None:
                below, above, distances = result
                bound = 4 * min(below, above)
                if any(d > bound for d in distances.values()):
                    violations.append(
                        f"{name} step {idx} (track {step.track.label}): "
                        f"distances {distances} exceed bound {bound}"
                    )
    checked = sum(r is not None for _, r in results)
    return (checked, trivial, len(results) - checked, violations), results


# -- interpolation chains and coherent linear extensions ------------------------


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
        f = pp.maps[i]
        pos = {e: r for r, e in enumerate(extended[i + 1])}
        pairs = set(comp.relation)
        for a in comp.elements:
            for b in comp.elements:
                if a != b and pos[f[a]] < pos[f[b]]:
                    pairs.add((a, b))
        enriched = new_poset(comp.elements, pairs)
        extended[i] = linear_extension(enriched)
    return extended


def chain_filtrations(f: PersistenceMap) -> ChainFiltrations:
    """The steps of Y = Y^0 <= ... <= Y^n = M(f) and of M(f) = X^0 >= ... >= X^m = X.

    The growing chain adds the source tracks one at a time in track
    order; the shrinking chain removes the target tracks in track
    order.  When tracks merge, a step only adds or removes the part of
    the trajectory not shared with the tracks already present, so every
    chain member is a genuine persistence subposet of the cylinder.
    """
    cylinder = persistence_mapping_cylinder(f)
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
            if i < tr.birth or tr.trajectory[i] in current[i]:
                removed.append(None)
            else:
                removed.append(tr.trajectory[i])
        for i in range(tr.birth, T + 1):
            current[i].add(tr.trajectory[i])
        member = restrict(cylinder, current)
        target_steps.append(
            ChainStep(
                larger=member,
                smaller=target_chain[-1],
                removed=tuple(removed),
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
            v = tr.trajectory[i]
            shared = any(lt.birth <= i and lt.trajectory[i] == v for lt in later)
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
                track=tr,
            )
        )
        source_chain.append(member)
        current = nxt

    return ChainFiltrations(cylinder=cylinder, target_steps=target_steps, source_steps=source_steps)


def chain_members(chains: ChainFiltrations) -> tuple[list[PersistencePoset], list[PersistencePoset]]:
    """The growing chain Y^0 <= ... <= Y^n and the shrinking chain X^0 >= ... >= X^m, read off the steps.

    Y^0 is the first growing step's smaller side and each step's larger
    side is the next member; X^0 is the first shrinking step's larger
    side and each step's smaller side is the next member.  A chain with no
    steps has one member, the cylinder: with no source tracks the source
    is empty, so Y^0 is the whole cylinder; with no target tracks the
    target is empty, so the source and the cylinder are too.
    """
    grow, shrink = chains.target_steps, chains.source_steps
    target_chain = [grow[0].smaller, *(s.larger for s in grow)] if grow else [chains.cylinder]
    source_chain = [shrink[0].larger, *(s.smaller for s in shrink)] if shrink else [chains.cylinder]
    return target_chain, source_chain


# -- full order-complex towers and the join lemma ---------------------------------


def induced_map(
    source: FinitePoset,
    target: FinitePoset,
    f: dict[str, str],
    source_complex: SimplicialComplex | None = None,
    target_complex: SimplicialComplex | None = None,
) -> SimplicialMap:
    """Simplicial map of order complexes induced by a monotone map f: source -> target."""
    check_map(source, target, f)
    K = source_complex if source_complex is not None else order_complex(source)
    L = target_complex if target_complex is not None else order_complex(target)
    return SimplicialMap(K, L, dict(f))


def join(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """All unions of a simplex of K (or nothing) with a simplex of L (or nothing)."""
    overlap = set(K.vertices) & set(L.vertices)
    if overlap:
        raise DuplicateElement(f"join requires disjoint vertex sets, shared: {sorted(overlap)!r}")
    simplices = [*K.simplices, *L.simplices, *(s + t for s in K.simplices for t in L.simplices)]
    return complex_of(simplices, K.vertices + L.vertices)


def order_complex_tower(pp: PersistencePoset) -> ComplexTower:
    complexes = tuple(order_complex(c) for c in pp.components)
    maps = tuple(
        induced_map(pp.components[i], pp.components[i + 1], pp.maps[i], complexes[i], complexes[i + 1])
        for i in range(pp.T)
    )
    return ComplexTower(complexes, maps)


def join_tower(A: ComplexTower, B: ComplexTower) -> ComplexTower:
    """Slicewise join with the joined vertex maps; vertex sets must be disjoint."""
    if A.T != B.T:
        raise ShapeMismatch("towers must have the same length")
    complexes = tuple(join(A.complexes[i], B.complexes[i]) for i in range(A.T + 1))
    maps = []
    for i in range(A.T):
        vm = dict(A.maps[i].vertex_map)
        vm.update(B.maps[i].vertex_map)
        maps.append(SimplicialMap(complexes[i], complexes[i + 1], vm))
    return ComplexTower(complexes, tuple(maps))


def relabel(pp: PersistencePoset, prefix: str) -> PersistencePoset:
    """Prefix every element identifier, preserving all structure."""
    comps = tuple(
        new_poset(
            [prefix + e for e in c.elements],
            [(prefix + a, prefix + b) for (a, b) in c.relation],
        )
        for c in pp.components
    )
    maps = tuple({prefix + x: prefix + y for x, y in f.items()} for f in pp.maps)
    return PersistencePoset(comps, maps)


def reduced_dim(K: SimplicialComplex, k: int, field: FieldSpec) -> int:
    """Reduced Betti number: the reduction's H_k generators, less one in degree 0 of a nonempty complex.

    Degree -1 is 1 for the empty complex and 0 otherwise, by convention.
    """
    if k == -1:
        return 1 if not K.simplices else 0
    if k < -1:
        return 0
    return len(reduction(K, field.p).degree(k)[2]) - (k == 0 and bool(K.simplices))


def acyclicity_defect(tower: ComplexTower, field: FieldSpec, k_max: int) -> int | float:
    """Least eps such that the tower's homology is eps-close to a point.

    Degree 0, always checked, is compared against the constant point
    module; every higher degree must be eps-trivial.  INF when no finite
    eps works.
    """
    return _defect(barcodes_of(tower, field, max(k_max, 0)))


def verify_join_acyclicity(
    ppA: PersistencePoset,
    ppB: PersistencePoset,
    field: FieldSpec = DEFAULT_FIELD,
    k_max: int | None = None,
) -> JoinReport:
    """The slicewise join of towers inherits the better acyclicity defect.

    Also asserts the field coefficient join dimension identity at every
    slice: reduced Betti numbers of the join are the convolution of the
    factors' reduced Betti numbers (degree -1 of an empty complex counts
    as 1).
    """
    if ppA.T != ppB.T:
        raise HypothesisUnmet("inputs must have the same length")
    A = relabel(ppA, "A:")
    B = relabel(ppB, "B:")
    tower_a = order_complex_tower(A)
    tower_b = order_complex_tower(B)
    eps = min(
        acyclicity_defect(tower_a, field, max(top_degree(A), 0)),
        acyclicity_defect(tower_b, field, max(top_degree(B), 0)),
    )
    if eps == INF:
        raise HypothesisUnmet("neither factor has a finite acyclicity defect")

    joined = join_tower(tower_a, tower_b)
    if k_max is None:
        k_max = max(joined.top_degree(), 0)
    join_defect = acyclicity_defect(joined, field, k_max)

    kunneth_ok = True
    for i in range(joined.T + 1):
        ka, kb, kj = tower_a.complexes[i], tower_b.complexes[i], joined.complexes[i]
        for g in range(complex_top_degree(kj) + 2):
            expected = sum(
                reduced_dim(ka, a, field) * reduced_dim(kb, g - 1 - a, field)
                for a in range(-1, g + 1)
            )
            if reduced_dim(kj, g, field) != expected:
                kunneth_ok = False
    ok = join_defect <= eps and kunneth_ok
    return JoinReport(epsilon=eps, join_defect=join_defect, kunneth_ok=kunneth_ok, ok=ok)


# -- slicewise beat-point cores ---------------------------------------------------


def core_pposet(pp: PersistencePoset) -> tuple[PersistencePoset, tuple[dict[str, str], ...]]:
    """Slicewise beat-point cores C_i with maps g_i = r_{i+1} . phi_i restricted to C_i.

    Also returns the retractions r_i: P_i -> C_i.  The result is a
    PersistencePoset, so validate checks every g_i.
    """
    cores = [core(c) for c in pp.components]
    comps = tuple(C for C, _ in cores)
    maps = tuple({x: cores[i + 1][1][pp.maps[i][x]] for x in comps[i].elements} for i in range(pp.T))
    return PersistencePoset(comps, maps), tuple(r for _, r in cores)


def core_tower(pp: PersistencePoset) -> ComplexTower:
    """Order-complex tower of pp's slicewise beat-point core; it has pp's barcodes."""
    return order_complex_tower(core_pposet(pp)[0])
