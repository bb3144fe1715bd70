"""Persistence modules over a prime field, barcodes, and interleaving.

Indices run over the non-negative integers: a module stores dimensions
and transition matrices, as sparse columns, for 0..T and extends
constantly (identity transitions) beyond T.  Bars that survive into the stable regime are
recorded with death = infinity.

The distance to the barcode of a point (point_comparison_defect) has a
closed form: INF unless exactly one bar is essential, and otherwise the
larger of that bar's birth and max ceil((d - b) / 2) over the finite
bars.  bottleneck_distance, with its matching search, is its reference.

PersistenceModule checks the shapes of the transitions a caller hands
in and reduces their entries mod p.  The modules the library builds
(direct_sum, module_from_barcode, random_module) have the right shapes
and reduced, nonzero entries by construction, so they skip that pass
(_reduced_module).  Likewise the elder-rule sweep emits only bars with
birth < death, so its barcodes skip Barcode.of's checks.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import linalg
from .errors import InternalError, ShapeMismatch, ValidationError

INF = math.inf


# Below this bound every int64 dot product n * (p - 1)**2 with n < 2**31
# terms is exact, so a dense int64 reference for the sparse arithmetic
# never wraps around.
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
    """Vector-space dimensions per index with transition matrices as sparse columns.

    Transition i maps index i to i + 1: dims[i] columns over rows
    0..dims[i + 1] - 1, with coefficients reduced mod p.
    """

    field: FieldSpec
    dims: tuple[int, ...]
    transitions: tuple[tuple[linalg.Column, ...], ...]

    def __post_init__(self) -> None:
        self.dims = tuple(int(d) for d in self.dims)
        if len(self.transitions) != len(self.dims) - 1:
            raise ShapeMismatch(f"expected {len(self.dims) - 1} transitions")
        p = self.field.p
        reduced = []
        for i, columns in enumerate(self.transitions):
            rows, cols = self.dims[i + 1], self.dims[i]
            if len(columns) != cols or any(not 0 <= r < rows for column in columns for r in column):
                raise ShapeMismatch(f"transition {i} is not {cols} columns over {rows} rows")
            reduced.append(tuple({r: v % p for r, v in column.items() if v % p} for column in columns))
        self.transitions = tuple(reduced)

    @property
    def T(self) -> int:
        return len(self.dims) - 1


def _reduced_module(
    field: FieldSpec, dims: tuple[int, ...], transitions: tuple[tuple[linalg.Column, ...], ...]
) -> PersistenceModule:
    """A PersistenceModule whose builder has shown it valid, made without __post_init__.

    The builder vouches that dims is a tuple of ints, that transition i
    has dims[i] columns over rows 0..dims[i + 1] - 1, and that every
    stored entry is already reduced mod p and nonzero.
    """
    M = object.__new__(PersistenceModule)
    M.field, M.dims, M.transitions = field, dims, transitions
    return M


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


_Step = tuple[Sequence[linalg.Column], dict[int, linalg.Column], Sequence[linalg.Column]]


def elder_barcode(steps: Iterable[_Step], p: int) -> Barcode:
    """Barcode of V_0 -> V_1 -> ... -> V_T from one forward sweep with the elder rule.

    Step i is (map, boundaries, generators): the map Z_{i-1} -> Z_i as
    sparse columns (ignored at i = 0), the pivot table of a subspace B_i
    of Z_i, and sparse generators whose classes are a basis of V_i =
    Z_i / B_i.  Representatives are kept oldest first.  Each is pushed
    through the map and reduced, in that order, against B_i and the
    survivors so far, so in a dependent set the youngest class reduces to
    zero and dies: a bar [birth, i).  The new generators are reduced
    next, and each survivor opens a bar at i.  With B_i they span Z_i, so
    exactly the generators' count survives, or InternalError is raised.
    Bars alive at T never die.  Every bar has birth < death, both
    integers, so the bars are sorted into a Barcode without Barcode.of.

    The kernel reduces in place and files unit-lead columns as they are,
    so it is handed columns the sweep owns: each pushed representative is
    fresh from linalg.apply, and each generator is copied, since the
    caller may share generators between sweeps (homology._core_chains).
    The boundary tables are only read.
    """
    bars: list[tuple[int, int | float]] = []
    reps: list[tuple[int, linalg.Column]] = []  # (birth, representative), oldest first
    for i, (columns, boundaries, generators) in enumerate(steps):
        table = dict(boundaries)
        survivors = []
        for birth, rep in reps:
            reduced = linalg.reduce_column(linalg.apply(columns, rep, p), table, p)
            if reduced:
                linalg.insert_pivot(reduced, table, p)
                survivors.append((birth, reduced))
            else:
                bars.append((birth, i))
        for g in generators:
            reduced = linalg.reduce_column(dict(g), table, p)
            if reduced:
                linalg.insert_pivot(reduced, table, p)
                survivors.append((i, reduced))
        if len(survivors) != len(generators):
            raise InternalError(f"index {i}: {len(survivors)} classes on {len(generators)} generators")
        reps = survivors
    bars.extend((birth, INF) for birth, _ in reps)
    return Barcode(tuple(sorted(bars)))


def barcode(M: PersistenceModule) -> Barcode:
    """Interval decomposition by the elder-rule sweep, seeding each index with its standard basis."""
    steps = (
        (M.transitions[i - 1] if i else (), {}, [{j: 1} for j in range(d)])
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
        pos_next = {idx: r for r, idx in enumerate(alive[i + 1])}
        transitions.append(tuple({pos_next[idx]: 1} if idx in pos_next else {} for idx in alive[i]))
    return _reduced_module(field, dims, tuple(transitions))


def direct_sum(M: PersistenceModule, N: PersistenceModule) -> PersistenceModule:
    if M.T != N.T:
        raise ShapeMismatch("summands must have the same length")
    if M.field != N.field:
        raise ShapeMismatch("summands must share the coefficient field")
    dims = tuple(M.dims[i] + N.dims[i] for i in range(M.T + 1))
    transitions = []
    for i in range(M.T):
        shift = M.dims[i + 1]
        lower = tuple({r + shift: v for r, v in column.items()} for column in N.transitions[i])
        transitions.append(M.transitions[i] + lower)
    return _reduced_module(M.field, dims, tuple(transitions))


def triviality_defect(code: Barcode) -> int | float:
    """Least eps such that every bar has length at most 2*eps;
    INF when an essential class survives."""
    if code.essential_count():
        return INF
    return max((math.ceil((d - b) / 2) for b, d in code.bars), default=0)


def point_comparison_defect(code: Barcode) -> int | float:
    """Distance from a barcode to the barcode of a point (one bar [0, inf)), in closed form.

    This is bottleneck_distance(code, Barcode.of([(0, INF)])) without the
    matching search.  Essential bars match only essential bars, so it is
    INF unless exactly one bar is essential.  That bar then matches the
    point's bar at the cost of its birth, and every finite bar is left
    unmatched at the cost of half its length, rounded up: the distance is
    the larger of the two.
    """
    essential = [b for b, d in code.bars if d == INF]
    if len(essential) != 1:
        return INF
    return max([essential[0], *(math.ceil((d - b) / 2) for b, d in code.bars if d != INF)])


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
    """True iff every left node can be matched: a greedy pass, then Kuhn's augmenting paths.

    Each left node first takes its first free right node, in adjacency
    order.  Only the nodes left over search for an augmenting path.
    That stays exact: a search from an unmatched node that fails has
    visited a set of left nodes with fewer right neighbours than members
    (each reached right node is matched to one of them), so no matching
    covers them all, whatever matching it started from.  The greedy pass
    spares the windows that overlap in a chain, where every search would
    otherwise fail down the whole chain before taking its own node.

    The depth-first search keeps an explicit stack and visits edges in
    adjacency order, so long augmenting paths need no recursion.
    """
    match_right: list[int | None] = [None] * n_right
    left_over = []
    for u, edges in enumerate(adjacency):
        v = next((v for v in edges if match_right[v] is None), None)
        if v is None:
            left_over.append(u)
        else:
            match_right[v] = u
    for root in left_over:
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
    at most 2*eps.  Equal barcodes are at distance 0 without a search:
    bars are stored sorted, so equal tuples are equal multisets.  Unequal
    ones are never at distance 0, since at eps = 0 only identical bars
    match and no bar is skippable.  At the largest endpoint every finite
    bar is skippable and any two essential bars match, which is checked
    first.  Feasibility is monotone in eps, so the least feasible eps is
    found by unbounded search upward from 1 (Bentley and Yao, 1976):
    bipartite matching tests at 1, 2, 4, ... until one holds, then
    bisection of the last gap.  Distance 1 takes one test after the
    check, and a distance d about 2 log2(d).
    """
    if B1.bars == B2.bars:
        return 0
    if B1.essential_count() != B2.essential_count():
        return INF
    finite_values = [b for b, _ in B1.bars + B2.bars]
    finite_values += [d for _, d in B1.bars + B2.bars if d != INF]
    hi = max(finite_values, default=0)
    if not _matching_feasible(B1.bars, B2.bars, hi):
        raise InternalError("no matching at the largest endpoint, where every bar is skippable")
    lo, probe = 1, 1  # infeasible below lo, feasible at hi
    while probe < hi and not _matching_feasible(B1.bars, B2.bars, probe):
        lo, probe = probe + 1, 2 * probe
    hi = min(hi, probe)
    while lo < hi:
        mid = (lo + hi) // 2
        if _matching_feasible(B1.bars, B2.bars, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


# -- random module generation (for property suites) ------------------------------


def random_module(rng, field: FieldSpec, max_dim: int, T: int) -> PersistenceModule:
    """Seeded random module on 0..T, each dimension at most max_dim, with arbitrary transition matrices."""
    dims = tuple(rng.randint(0, max_dim) for _ in range(T + 1))
    transitions = []
    for i in range(T):
        # Entries are drawn row by row, the order seeded suites and digests depend on.
        rows = [[rng.randrange(field.p) for _ in range(dims[i])] for _ in range(dims[i + 1])]
        transitions.append(tuple({r: row[j] for r, row in enumerate(rows) if row[j]} for j in range(dims[i])))
    return _reduced_module(field, dims, tuple(transitions))
