import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persposet.complexes import SimplicialComplex, order_complex
from persposet.homology import FieldSpec
from persposet.posets import new_poset
from persposet.pposets import PersistencePoset
import reference
from reference import (
    SimplicialMap,
    boundary_matrix,
    complex_top_degree,
    constant_pposet,
    from_simplices,
    homology,
    homology_tower,
    induced_on_homology,
    join,
    order_complex_tower,
    reduced_dim,
    transition,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)


def brute_rank(mat, p):
    """Rank by enumerating the column span (oracle for tiny matrices)."""
    mat = np.mod(np.asarray(mat, dtype=np.int64), p)
    cols = [mat[:, j] for j in range(mat.shape[1])]
    span = set()
    for coeffs in itertools.product(range(p), repeat=len(cols)):
        v = np.zeros(mat.shape[0], dtype=np.int64)
        for c, col in zip(coeffs, cols):
            v = (v + c * col) % p
        span.add(tuple(v))
    r = 0
    while p**r < len(span):
        r += 1
    return r


def brute_nullity(mat, p):
    mat = np.mod(np.asarray(mat, dtype=np.int64), p)
    count = 0
    for coeffs in itertools.product(range(p), repeat=mat.shape[1]):
        v = np.array(coeffs, dtype=np.int64)
        if not np.mod(mat @ v, p).any():
            count += 1
    r = 0
    while p**r < count:
        r += 1
    return r


small_matrices = st.builds(
    lambda rows, cols, seed: np.array(
        [(seed * (i * cols + j + 1)) % 7 for i in range(rows) for j in range(cols)],
        dtype=np.int64,
    ).reshape(rows, cols),
    rows=st.integers(0, 4),
    cols=st.integers(0, 4),
    seed=st.integers(0, 100),
)


class TestLinalg:
    @given(small_matrices, st.sampled_from([2, 3, 5]))
    @settings(max_examples=60, deadline=None)
    def test_rank_against_enumeration(self, mat, p):
        assert reference.rank(mat, p) == brute_rank(mat, p)

    @given(small_matrices, st.sampled_from([2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_nullspace(self, mat, p):
        ns = reference.nullspace(mat, p)
        assert ns.shape[1] == brute_nullity(mat, p)
        if ns.size:
            assert not reference.matmul(np.mod(mat, p), ns, p).any()

    @given(small_matrices, st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_solve_consistent_systems(self, mat, p):
        x = np.arange(mat.shape[1], dtype=np.int64) % p
        b = np.mod(mat @ x, p)
        sol = reference.solve(mat, b, p)
        assert sol is not None
        assert not np.mod(mat @ sol - b, p).any()

    def test_solve_inconsistent(self):
        a = np.array([[1], [0]], dtype=np.int64)
        b = np.array([0, 1], dtype=np.int64)
        assert reference.solve(a, b, 2) is None


S = new_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
FOUR_CYCLE = order_complex(S)
CONE = join(FOUR_CYCLE, from_simplices([], vertices=["t"]))
EMPTY = SimplicialComplex(vertices=(), simplices=())
POINT = from_simplices([], vertices=["p"])


class TestBoundary:
    def test_edge_column(self):
        K = order_complex(new_poset("ab", [("a", "b")]))
        for field in (F2, F3):
            col = boundary_matrix(K, 1, field)
            assert col.shape == (2, 1)
            assert col[0, 0] == (field.p - 1) and col[1, 0] == 1

    def test_four_cycle_rank(self):
        mat = boundary_matrix(FOUR_CYCLE, 1, F2)
        assert mat.shape == (4, 4)
        assert reference.rank(mat, 2) == brute_rank(mat, 2) == 3

    def test_empty(self):
        assert boundary_matrix(EMPTY, 1, F2).shape == (0, 0)

    def test_boundary_squared_zero(self):
        for K in (FOUR_CYCLE, CONE):
            for field in (F2, F3):
                for k in range(1, complex_top_degree(K) + 1):
                    d_k = boundary_matrix(K, k, field)
                    d_k1 = boundary_matrix(K, k + 1, field)
                    assert not reference.matmul(d_k, d_k1, field.p).any()


class TestHomology:
    def test_point(self):
        assert homology(POINT, 0, F2).dimension == 1
        assert homology(POINT, 0, F2, reduced=True).dimension == 0
        assert homology(POINT, 1, F2).dimension == 0

    def test_four_cycle(self):
        for field in (F2, F3):
            assert homology(FOUR_CYCLE, 0, field).dimension == 1
            assert homology(FOUR_CYCLE, 1, field, reduced=True).dimension == 1

    def test_cone_acyclic(self):
        for k in range(0, 3):
            assert reduced_dim(CONE, k, F2) == 0

    def test_representatives_are_cycles(self):
        basis = homology(FOUR_CYCLE, 1, F2)
        d1 = boundary_matrix(FOUR_CYCLE, 1, F2)
        assert basis.cycles.shape == (4, 1)
        assert not reference.matmul(d1, basis.cycles, 2).any()

    def test_reduced_dim_minus_one_convention(self):
        assert reduced_dim(EMPTY, -1, F2) == 1
        assert reduced_dim(POINT, -1, F2) == 0

    def test_euler_characteristic(self):
        for K in (FOUR_CYCLE, CONE, POINT):
            for field in (F2, F3):
                chi = sum(
                    (-1) ** k * homology(K, k, field).dimension
                    for k in range(complex_top_degree(K) + 1)
                )
                assert chi == sum((-1) ** (len(s) - 1) for s in K.simplices)


class TestInduced:
    def test_identity(self):
        sm = SimplicialMap(FOUR_CYCLE, FOUR_CYCLE, {v: v for v in FOUR_CYCLE.vertices})
        b = homology(FOUR_CYCLE, 1, F2)
        mat = induced_on_homology(sm, 1, F2, b, b)
        assert mat.shape == (1, 1) and mat[0, 0] == 1

    def test_inclusion_to_cone_kills_cycle(self):
        sm = SimplicialMap(FOUR_CYCLE, CONE, {v: v for v in FOUR_CYCLE.vertices})
        mat = induced_on_homology(sm, 1, F2, homology(FOUR_CYCLE, 1, F2), homology(CONE, 1, F2))
        assert mat.shape == (0, 1)

    def test_edge_collapse_on_h0(self):
        edge = order_complex(new_poset("ab", [("a", "b")]))
        sm = SimplicialMap(edge, POINT, {"a": "p", "b": "p"})
        mat = induced_on_homology(sm, 0, F2, homology(edge, 0, F2), homology(POINT, 0, F2))
        assert mat.shape == (1, 1) and mat[0, 0] == 1

    def test_functoriality_on_homology(self):
        St = new_poset("abcdt", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
                                 ("c", "t"), ("d", "t"), ("a", "t"), ("b", "t")])
        K = order_complex(St)
        incl = SimplicialMap(FOUR_CYCLE, K, {v: v for v in FOUR_CYCLE.vertices})
        collapse = SimplicialMap(K, POINT, {v: "p" for v in K.vertices})
        composed = SimplicialMap(FOUR_CYCLE, POINT, {v: "p" for v in FOUR_CYCLE.vertices})
        for k in (0, 1):
            left = induced_on_homology(
                composed, k, F2, homology(FOUR_CYCLE, k, F2), homology(POINT, k, F2)
            )
            right = reference.matmul(
                induced_on_homology(collapse, k, F2, homology(K, k, F2), homology(POINT, k, F2)),
                induced_on_homology(incl, k, F2, homology(FOUR_CYCLE, k, F2), homology(K, k, F2)),
                2,
            )
            assert np.array_equal(left, right)


class TestTower:
    def test_constant_point(self):
        tower = order_complex_tower(constant_pposet(new_poset("p", []), 2))
        mod = homology_tower(tower, 0, F2)
        assert mod.dims == (1, 1, 1)
        assert all(transition(mod, i)[0, 0] == 1 for i in range(mod.T))

    def test_cycle_dies_in_cone(self):
        St = new_poset("abcdt", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
                                 ("c", "t"), ("d", "t"), ("a", "t"), ("b", "t")])
        pp = PersistencePoset((S, St), ({e: e for e in S.elements},))
        mod = homology_tower(order_complex_tower(pp), 1, F2)
        assert mod.dims == (1, 0)

    def test_empty_prefix_h0(self):
        empty = new_poset([], [])
        pt = new_poset("a", [])
        pp = PersistencePoset((empty, pt), ({},))
        mod = homology_tower(order_complex_tower(pp), 0, F2)
        assert mod.dims == (0, 1)


class TestJoinFormula:
    @staticmethod
    def random_complex(rng, prefix, max_simplices=8):
        pool = [f"{prefix}{i}" for i in range(4)]
        simplices = []
        current = from_simplices([])
        for _ in range(6):
            size = rng.randint(1, 3)
            cand = simplices + [rng.sample(pool, size)]
            K = from_simplices(cand)
            if len(K.simplices) <= max_simplices:
                simplices = cand
                current = K
        return current

    def test_sphere_join_dimension(self):
        K = from_simplices([], vertices=["a", "b"])
        L = from_simplices([], vertices=["c", "d"])
        assert reduced_dim(join(K, L), 1, F2) == 1
        assert reduced_dim(K, 0, F2) * reduced_dim(L, 0, F2) == 1

    @pytest.mark.parametrize("field", [F2, F3])
    def test_join_formula_random(self, field):
        import random

        rng = random.Random(99 + field.p)
        for _ in range(25):
            A = self.random_complex(rng, "a")
            B = self.random_complex(rng, "b")
            J = join(A, B)
            for g in range(complex_top_degree(J) + 2):
                expected = sum(
                    reduced_dim(A, i, field) * reduced_dim(B, g - 1 - i, field)
                    for i in range(-1, g + 1)
                )
                assert reduced_dim(J, g, field) == expected
