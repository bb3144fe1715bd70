"""Persistence modules over a prime field, barcodes, and interleaving.

Indices run over the non-negative integers: a module stores dimensions
and transition matrices for 0..T and extends constantly (identity
transitions) beyond T.  Bars that survive into the stable regime are
recorded with death = infinity.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .errors import InternalError, ShapeMismatch, TooLarge, ValidationError

INF = math.inf


# Below this bound every int64 dot product n * (p - 1)**2 with n < 2**31
# terms is exact, so linalg never wraps around.
MAX_CHARACTERISTIC = 2**16


@dataclass(frozen=True)
class FieldSpec:
    """A prime field, given by its characteristic p < MAX_CHARACTERISTIC."""

    p: int

    def __post_init__(self) -> None:
        in_range = 2 <= self.p < MAX_CHARACTERISTIC
        if not in_range or any(self.p % d == 0 for d in range(2, int(self.p**0.5) + 1)):
            raise ValidationError(
                f"field characteristic must be a prime below {MAX_CHARACTERISTIC}, got {self.p}"
            )


@dataclass(eq=False)
class PersistenceModule:
    """Vector-space dimensions per index with transition matrices."""

    field: FieldSpec
    dims: tuple[int, ...]
    transitions: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        self.dims = tuple(int(d) for d in self.dims)
        if len(self.transitions) != len(self.dims) - 1:
            raise ShapeMismatch(f"expected {len(self.dims) - 1} transitions")
        mats = []
        for i, t in enumerate(self.transitions):
            t = linalg.normalize(t, self.field.p)
            if t.shape != (self.dims[i + 1], self.dims[i]):
                raise ShapeMismatch(
                    f"transition {i} has shape {t.shape}, expected {(self.dims[i + 1], self.dims[i])}"
                )
            t.setflags(write=False)
            mats.append(t)
        self.transitions = tuple(mats)

    @property
    def T(self) -> int:
        return len(self.dims) - 1

    def dim_at(self, i: int) -> int:
        return self.dims[min(i, self.T)]

    def composite(self, i: int, j: int) -> np.ndarray:
        """Matrix of the composite transition from index i to index j >= i."""
        if j < i:
            raise IndexError("composites run forward only")
        mat = linalg.identity(self.dim_at(i))
        for k in range(min(i, self.T), min(j, self.T)):
            mat = linalg.matmul(self.transitions[k], mat, self.field.p)
        return mat

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)


def zero_module(field: FieldSpec, T: int) -> PersistenceModule:
    return PersistenceModule(field, tuple(0 for _ in range(T + 1)), tuple(linalg.zeros(0, 0) for _ in range(T)))


@dataclass(frozen=True)
class Barcode:
    """Multiset of intervals [b, d); d = INF marks essential classes."""

    bars: tuple[tuple[int, int | float], ...]

    @staticmethod
    def of(bars: Iterable[tuple[int, int | float]]) -> "Barcode":
        norm = []
        for b, d in bars:
            b = int(b)
            if d != INF:
                d = int(d)
            if b < 0 or d <= b:
                raise ValueError(f"bad interval [{b}, {d})")
            norm.append((b, d))
        return Barcode(tuple(sorted(norm)))

    def __len__(self) -> int:
        return len(self.bars)

    def essential_count(self) -> int:
        return sum(1 for _, d in self.bars if d == INF)

    def count_through(self, i: int, j: int) -> int:
        """Bars alive at both i and j (the rank the barcode predicts)."""
        return sum(1 for b, d in self.bars if b <= i and j < d)


def rank_invariant(M: PersistenceModule) -> np.ndarray:
    """r[i][j] = rank of the composite i -> j, for 0 <= i <= j <= T+1.

    Column T+1 is the composite into the stable regime and equals
    column T because transitions are identities past T.  The library does
    not call it: it is the reference that the tests check every barcode
    against, through Barcode.count_through.
    """
    T = M.T
    r = np.zeros((T + 2, T + 2), dtype=np.int64)
    for i in range(T + 2):
        mat = linalg.identity(M.dim_at(i))
        r[i, i] = M.dim_at(i)
        for j in range(i + 1, T + 2):
            if j <= T:
                mat = linalg.matmul(M.transitions[j - 1], mat, M.field.p)
            r[i, j] = linalg.rank(mat, M.field.p)
    return r


def _apply(columns: Sequence[linalg.Column], column: linalg.Column, p: int) -> linalg.Column:
    """The image of a sparse column under the matrix with the given sparse columns."""
    out: linalg.Column = {}
    for j, c in column.items():
        for r, v in columns[j].items():
            x = (out.get(r, 0) + c * v) % p
            if x:
                out[r] = x
            else:
                del out[r]
    return out


_Step = tuple[Sequence[linalg.Column], dict[int, linalg.Column], Sequence[linalg.Column]]


def elder_barcode(steps: Iterable[_Step], p: int) -> Barcode:
    """Barcode of V_0 -> V_1 -> ... -> V_T from one forward sweep with the elder rule.

    Step i is (map, boundaries, generators): the map V_{i-1} -> V_i as
    sparse columns (ignored at i = 0), the pivot table of a subspace B_i,
    and sparse generators of a space Z_i with V_i = Z_i / B_i.
    Representatives are kept oldest first.  Each is pushed through the map
    and reduced, in that order, against B_i and the survivors so far, so in
    a dependent set the youngest class reduces to zero and dies: a bar
    [birth, i).  The new generators are reduced next, and each survivor
    opens a bar at i.  Bars alive at T never die.
    """
    bars: list[tuple[int, int | float]] = []
    reps: list[tuple[int, linalg.Column]] = []  # (birth, representative), oldest first
    for i, (columns, boundaries, generators) in enumerate(steps):
        table = dict(boundaries)
        survivors = []
        candidates = [(birth, _apply(columns, rep, p)) for birth, rep in reps]
        candidates += [(i, g) for g in generators]
        for birth, column in candidates:
            reduced = linalg.reduce_column(column, table, p)
            if reduced:
                linalg.insert_pivot(reduced, table, p)
                survivors.append((birth, reduced))
            elif birth < i:
                bars.append((birth, i))
        if len(survivors) != len(generators) - len(boundaries):
            raise InternalError(
                f"index {i}: {len(survivors)} classes, but dim Z - rank B = {len(generators) - len(boundaries)}"
            )
        reps = survivors
    bars.extend((birth, INF) for birth, _ in reps)
    return Barcode.of(bars)


def _sparse_columns(mat: np.ndarray) -> list[linalg.Column]:
    columns: list[linalg.Column] = [{} for _ in range(mat.shape[1])]
    for r, row in enumerate(mat.tolist()):
        for j, v in enumerate(row):
            if v:
                columns[j][r] = v
    return columns


def barcode(M: PersistenceModule) -> Barcode:
    """Interval decomposition by the elder-rule sweep, seeding each index with its standard basis."""
    steps = (
        (_sparse_columns(M.transitions[i - 1]) if i else [], {}, [{j: 1} for j in range(d)])
        for i, d in enumerate(M.dims)
    )
    return elder_barcode(steps, M.field.p)


def module_from_barcode(field: FieldSpec, T: int, bars: Iterable[tuple[int, int | float]]) -> PersistenceModule:
    """Direct sum of interval modules with the given bars."""
    code = Barcode.of(bars)
    for b, d in code.bars:
        if b > T or (d != INF and d > T):
            raise ValueError(f"interval [{b}, {d}) does not fit below T={T}")
    alive = [[idx for idx, (b, d) in enumerate(code.bars) if b <= i and i < d] for i in range(T + 1)]
    dims = tuple(len(a) for a in alive)
    transitions = []
    for i in range(T):
        mat = linalg.zeros(dims[i + 1], dims[i])
        pos_next = {idx: r for r, idx in enumerate(alive[i + 1])}
        for c, idx in enumerate(alive[i]):
            if idx in pos_next:
                mat[pos_next[idx], c] = 1
        transitions.append(mat)
    return PersistenceModule(field, dims, tuple(transitions))


def direct_sum(M: PersistenceModule, N: PersistenceModule) -> PersistenceModule:
    if M.T != N.T:
        raise ShapeMismatch("summands must have the same length")
    if M.field != N.field:
        raise ShapeMismatch("summands must share the coefficient field")
    dims = tuple(M.dims[i] + N.dims[i] for i in range(M.T + 1))
    transitions = []
    for i in range(M.T):
        mat = linalg.zeros(dims[i + 1], dims[i])
        mat[: M.dims[i + 1], : M.dims[i]] = M.transitions[i]
        mat[M.dims[i + 1] :, M.dims[i] :] = N.transitions[i]
        transitions.append(mat)
    return PersistenceModule(M.field, dims, tuple(transitions))


def eps_trivial(M: PersistenceModule, eps: int) -> bool:
    """Whether every class dies within 2*eps steps of its birth.

    Decided on the barcode and cross-checked against nilpotency of the
    2*eps-fold composite transition from every start index.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    code = barcode(M)
    by_barcode = all(d != INF and d - b <= 2 * eps for b, d in code.bars)
    by_nilpotency = not any(M.composite(i, i + 2 * eps).any() for i in range(M.T + 1))
    if by_barcode != by_nilpotency:
        raise InternalError("barcode and nilpotency criteria disagree")
    return by_barcode


def triviality_defect(code: Barcode) -> int | float:
    """Least eps with eps_trivial true for a module with this barcode;
    INF when an essential class survives."""
    if code.essential_count():
        return INF
    return max((math.ceil((d - b) / 2) for b, d in code.bars), default=0)


def point_comparison_defect(code: Barcode) -> int | float:
    """Distance from a barcode to the barcode of a point (one bar [0, inf))."""
    return bottleneck_distance(code, Barcode.of([(0, INF)]))


# -- bottleneck distance -------------------------------------------------------


def _compatible(x: tuple[int, int | float], y: tuple[int, int | float], e: int) -> bool:
    bx, dx = x
    by, dy = y
    if (dx == INF) != (dy == INF):
        return False
    if abs(bx - by) > e:
        return False
    return dx == INF or abs(dx - dy) <= e


def _skippable(bar: tuple[int, int | float], e: int) -> bool:
    b, d = bar
    return d != INF and d - b <= 2 * e


def _perfect_matching(adjacency: list[list[int]], n_right: int) -> bool:
    """Kuhn's augmenting paths; True iff every left node can be matched.

    The depth-first search keeps an explicit stack and visits edges in
    adjacency order, so long augmenting paths need no recursion.
    """
    match_right: list[int | None] = [None] * n_right
    for root in range(len(adjacency)):
        seen = [False] * n_right
        stack = [(root, iter(adjacency[root]))]
        via: list[int] = []  # via[d]: the right node through which stack[d + 1] was entered
        while True:
            u, edges = stack[-1]
            v = next((v for v in edges if not seen[v]), None)
            if v is None:  # no augmenting path through u
                stack.pop()
                if not stack:
                    return False
                via.pop()
                continue
            seen[v] = True
            w = match_right[v]
            if w is None:
                match_right[v] = u
                for (left, _), right in zip(stack, via):
                    match_right[right] = left
                break
            via.append(v)
            stack.append((w, iter(adjacency[w])))
    return True


def _covers(left: Sequence[tuple[int, int | float]], right: Sequence[tuple[int, int | float]], e: int) -> bool:
    """True iff some matching of compatible bars covers every unskippable bar of left.

    right must be sorted by birth: each bar's candidates are the window of
    births within e, found by bisection.
    """
    births = [b for b, _ in right]
    adjacency: list[list[int]] = []
    for bar in left:
        if not _skippable(bar, e):
            lo, hi = bisect_left(births, bar[0] - e), bisect_right(births, bar[0] + e)
            adjacency.append([j for j in range(lo, hi) if _compatible(bar, right[j], e)])
    return _perfect_matching(adjacency, len(right))


def _matching_feasible(b1: Sequence[tuple[int, int | float]], b2: Sequence[tuple[int, int | float]], e: int) -> bool:
    """True iff a matching of compatible bars leaves only skippable bars unmatched.

    By the Mendelsohn-Dulmage theorem, a bipartite matching covering the
    unskippable bars of both sides exists iff one matching covers those
    of b1 and another covers those of b2.
    """
    return _covers(b1, b2, e) and _covers(b2, b1, e)


def bottleneck_distance(B1: Barcode, B2: Barcode) -> int | float:
    """Least integer eps admitting a partial matching within eps.

    Matched bars must agree within eps at both endpoints (infinite
    deaths only match infinite deaths); unmatched bars must have length
    at most 2*eps.  Found by binary search over eps with a bipartite
    matching feasibility test.  Equal barcodes are at distance 0 without a
    search: bars are stored sorted, so equal tuples are equal multisets.
    """
    if B1.bars == B2.bars:
        return 0
    if B1.essential_count() != B2.essential_count():
        return INF
    finite_values = [b for b, _ in B1.bars + B2.bars]
    finite_values += [d for _, d in B1.bars + B2.bars if d != INF]
    hi = max(finite_values, default=0)
    lo = 0
    if not _matching_feasible(B1.bars, B2.bars, hi):
        raise InternalError("no matching at the largest endpoint, where every bar is skippable")
    while lo < hi:
        mid = (lo + hi) // 2
        if _matching_feasible(B1.bars, B2.bars, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


# -- exhaustive interleaving oracle ---------------------------------------------


def _morphism_layout(M: PersistenceModule, N: PersistenceModule, eps: int) -> list[tuple[int, int]]:
    """Shapes of the unknown slice maps phi_i : M_i -> N_{i+eps}, i = 0..T."""
    return [(N.dim_at(i + eps), M.dims[i]) for i in range(M.T + 1)]


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
        A = M.transitions[i]  # m_{i+1} x m_i
        B = N.composite(i + eps, i + 1 + eps)
        rows_next, _ = shapes[i + 1]
        for r in range(rows_next):
            for c in range(M.dims[i]):
                row = np.zeros(total, dtype=np.int64)
                for k in range(M.dims[i + 1]):
                    row[unknown(i + 1, r, k)] = (row[unknown(i + 1, r, k)] + A[k, c]) % p
                for k in range(shapes[i][0]):
                    row[unknown(i, k, c)] = (row[unknown(i, k, c)] - B[r, k]) % p
                eq_rows.append(row)
    system = np.stack(eq_rows) if eq_rows else linalg.zeros(0, total)
    basis = linalg.nullspace(system, p)
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
    #   psi_at(i+eps) @ phi_i = M.composite(i, i+2eps)      (i = 0..T)
    #   phi_at(i+eps) @ psi_i = N.composite(i, i+2eps)      (i = 0..T)
    def psi_unknown(i: int, r: int, c: int) -> int:
        return psi_offsets[i] + r * psi_shapes[i][1] + c

    def conditions(phi_mats: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        rows: list[np.ndarray] = []
        rhs: list[int] = []
        for i in range(T + 1):
            shift = M.composite(i, i + 2 * eps)
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
            shift = N.composite(i, i + 2 * eps)
            phi_j = phi_mats[min(i + eps, T)]
            for r in range(shift.shape[0]):
                for c in range(shift.shape[1]):
                    row = np.zeros(n_psi, dtype=np.int64)
                    for k in range(psi_shapes[i][0]):
                        row[psi_unknown(i, k, c)] = (row[psi_unknown(i, k, c)] + phi_j[r, k]) % p
                    rows.append(row)
                    rhs.append(int(shift[r, c]))
        mat = np.stack(rows) if rows else linalg.zeros(0, n_psi)
        return mat, np.array(rhs, dtype=np.int64)

    k = phi_basis.shape[1]
    for coeffs in itertools.product(range(p), repeat=k):
        vec = linalg.normalize(phi_basis @ np.array(coeffs, dtype=np.int64), p) if k else np.zeros(phi_basis.shape[0], dtype=np.int64)
        phi_mats = _unpack(vec, phi_shapes, phi_offsets)
        cond, rhs = conditions(phi_mats)
        reduced = linalg.matmul(cond, psi_basis, p) if psi_basis.size else linalg.zeros(cond.shape[0], 0)
        if linalg.solve(reduced, rhs, p) is not None:
            return True
    return False


# -- random module generation (for property suites) ------------------------------


def random_module(rng, field: FieldSpec, max_dim: int = 4, t_max: int = 6, T: int | None = None) -> PersistenceModule:
    """Seeded random module with arbitrary transition matrices."""
    if T is None:
        T = rng.randint(0, t_max)
    dims = tuple(rng.randint(0, max_dim) for _ in range(T + 1))
    transitions = []
    for i in range(T):
        mat = np.array(
            [[rng.randrange(field.p) for _ in range(dims[i])] for _ in range(dims[i + 1])],
            dtype=np.int64,
        ).reshape(dims[i + 1], dims[i])
        transitions.append(mat)
    return PersistenceModule(field, dims, tuple(transitions))
