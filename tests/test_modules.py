import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persposet.errors import ShapeMismatch
from persposet.modules import (
    INF,
    Barcode,
    FieldSpec,
    PersistenceModule,
    barcode,
    bottleneck_distance,
    direct_sum,
    module_from_barcode,
    point_comparison_defect,
    random_module,
    triviality_defect,
)
from persposet.modules import _compatible, _matching_feasible, _perfect_matching, _skippable
from reference import (
    TooLarge,
    composite,
    eps_trivial,
    interleaving_bruteforce,
    module,
    rank_invariant,
    transition,
    zero_module,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)


def mod(dims, transitions, field=F2):
    mats = [
        np.array(t, dtype=np.int64).reshape(dims[i + 1], dims[i])
        for i, t in enumerate(transitions)
    ]
    return module(field, dims, mats)


@st.composite
def modules(draw, max_dim=3, t_max=4, p=2):
    T = draw(st.integers(0, t_max))
    dims = [draw(st.integers(0, max_dim)) for _ in range(T + 1)]
    transitions = []
    for i in range(T):
        entries = [
            draw(st.integers(0, p - 1)) for _ in range(dims[i] * dims[i + 1])
        ]
        transitions.append(np.array(entries, dtype=np.int64).reshape(dims[i + 1], dims[i]))
    return module(FieldSpec(p), dims, transitions)


class TestSparseTransitions:
    def test_shape_checks(self):
        with pytest.raises(ShapeMismatch):
            PersistenceModule(F2, (1, 1), ())
        with pytest.raises(ShapeMismatch):
            PersistenceModule(F2, (2, 1), (({0: 1},),))
        with pytest.raises(ShapeMismatch):
            PersistenceModule(F2, (1, 1), (({1: 1},),))
        with pytest.raises(ShapeMismatch):
            PersistenceModule(F2, (1, 1), (({-1: 1},),))

    def test_coefficients_reduced_mod_p(self):
        M = PersistenceModule(F3, (2, 2), (({0: 5, 1: 3}, {1: -1}),))
        assert M.transitions == (({0: 2}, {1: 2}),)

    @pytest.mark.parametrize("p", [2, 3])
    def test_random_module_draws_row_by_row(self, p):
        """The dense matrix the draws fill row by row, as seeded suites expect."""
        for seed in range(20):
            M = random_module(random.Random(seed), FieldSpec(p), max_dim=3, T=3)
            rng = random.Random(seed)
            dims = [rng.randint(0, 3) for _ in range(4)]
            assert list(M.dims) == dims
            for i in range(3):
                rows = [[rng.randrange(p) for _ in range(dims[i])] for _ in range(dims[i + 1])]
                assert transition(M, i).tolist() == rows

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_builders_equal_validated_modules(self, p):
        """direct_sum, module_from_barcode and random_module skip __post_init__.

        Each result has the dims and the reduced transitions that the
        validated PersistenceModule of the same data has.
        """
        field = FieldSpec(p)
        rng = random.Random(p)
        for _ in range(40):
            T = rng.randint(0, 5)
            M, N = random_module(rng, field, max_dim=3, T=T), random_module(rng, field, max_dim=3, T=T)
            births = [rng.randint(0, T) for _ in range(rng.randint(0, 5))]
            bars = [(b, INF if b == T or rng.random() < 0.3 else rng.randint(b + 1, T)) for b in births]
            for built in (M, N, direct_sum(M, N), module_from_barcode(field, T, bars)):
                validated = PersistenceModule(field, built.dims, built.transitions)
                assert type(built.dims) is tuple and all(type(d) is int for d in built.dims)
                assert (built.field, built.dims, built.transitions) == (field, validated.dims, validated.transitions)


class TestRankInvariant:
    def test_identity(self):
        r = rank_invariant(mod([1, 1], [[1]]))
        assert r[0, 1] == 1 and r[0, 0] == 1

    def test_death(self):
        r = rank_invariant(mod([1, 1, 1], [[1], [0]]))
        assert r[0, 1] == 1 and r[0, 2] == 0

    def test_zero_module(self):
        r = rank_invariant(zero_module(F2, 2))
        assert not r.any()

    def test_stable_column_duplicates_last(self):
        M = mod([1, 1, 1], [[1], [0]])
        r = rank_invariant(M)
        assert all(r[i, M.T + 1] == r[i, M.T] for i in range(M.T + 1))


class TestBarcode:
    def test_death_and_rebirth(self):
        M = mod([1, 1, 1], [[1], [0]])
        assert barcode(M).bars == ((0, 2), (2, INF))

    def test_constant_identity(self):
        assert barcode(mod([1, 1], [[1]])).bars == ((0, INF),)

    def test_zero(self):
        assert barcode(zero_module(F2, 3)).bars == ()

    @given(modules())
    @settings(max_examples=80, deadline=None)
    def test_rank_reconstruction(self, M):
        code = barcode(M)
        r = rank_invariant(M)
        for i in range(M.T + 1):
            for j in range(i, M.T + 1):
                assert code.count_through(i, j) == r[i, j]

    @given(modules(p=3))
    @settings(max_examples=40, deadline=None)
    def test_rank_reconstruction_p3(self, M):
        code = barcode(M)
        r = rank_invariant(M)
        for i in range(M.T + 1):
            for j in range(i, M.T + 1):
                assert code.count_through(i, j) == r[i, j]

    def test_round_trip_through_interval_modules(self):
        bars = [(0, 2), (1, 3), (1, INF), (2, INF)]
        M = module_from_barcode(F2, 3, bars)
        assert barcode(M) == Barcode.of(bars)


class TestTriviality:
    def test_length_three_bar(self):
        M = module_from_barcode(F2, 3, [(0, 3)])
        assert not eps_trivial(M, 1)
        assert eps_trivial(M, 2)

    def test_zero_module_trivial_at_zero(self):
        assert eps_trivial(zero_module(F2, 2), 0)

    def test_essential_never_trivial(self):
        M = module_from_barcode(F2, 2, [(0, INF)])
        assert not eps_trivial(M, 5)

    def test_defects(self):
        assert triviality_defect(Barcode.of([(0, 1)])) == 1
        assert triviality_defect(barcode(zero_module(F2, 1))) == 0
        assert triviality_defect(Barcode.of([(0, INF)])) == INF

    @given(modules(), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_barcode_and_nilpotency_agree(self, M, eps):
        # eps_trivial asserts the two criteria agree internally
        eps_trivial(M, eps)

    @given(modules())
    @settings(max_examples=60, deadline=None)
    def test_defect_is_least(self, M):
        d = triviality_defect(barcode(M))
        if d == INF:
            assert not eps_trivial(M, M.T + 1)
        else:
            assert eps_trivial(M, d)
            if d > 0:
                assert not eps_trivial(M, d - 1)


class TestDirectSum:
    def test_identity_with_zero(self):
        M = mod([1, 1], [[1]])
        assert barcode(direct_sum(M, zero_module(F2, 1))) == barcode(M)

    def test_union_of_bars(self):
        M = module_from_barcode(F2, 2, [(0, 1)])
        N = module_from_barcode(F2, 2, [(1, 2)])
        assert barcode(direct_sum(M, N)) == Barcode.of([(0, 1), (1, 2)])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            direct_sum(zero_module(F2, 1), zero_module(F2, 2))

    @given(modules(), modules())
    @settings(max_examples=40, deadline=None)
    def test_defect_of_sum_is_max(self, M, N):
        if M.T != N.T:
            return
        L = direct_sum(M, N)
        assert triviality_defect(barcode(L)) == max(
            triviality_defect(barcode(M)), triviality_defect(barcode(N))
        )
        left = sorted(barcode(M).bars + barcode(N).bars)
        assert list(barcode(L).bars) == left


bars = st.tuples(st.integers(0, 8), st.one_of(st.integers(1, 8), st.just(INF))).map(
    lambda bd: (bd[0], bd[1] if bd[1] == INF else bd[0] + bd[1])
)


def _dummy_feasible(b1, b2, e):
    """Reference feasibility: a perfect matching in which dummies absorb skippable bars."""
    n1, n2 = len(b1), len(b2)
    adjacency = []
    for i, bar in enumerate(b1):
        row = [j for j, other in enumerate(b2) if _compatible(bar, other, e)]
        adjacency.append(row + [n2 + i] if _skippable(bar, e) else row)
    for j, other in enumerate(b2):
        row = list(range(n2, n2 + n1))
        adjacency.append(row + [j] if _skippable(other, e) else row)
    return _perfect_matching(adjacency, n1 + n2)


class TestBottleneck:
    def test_essential_shift(self):
        assert bottleneck_distance(Barcode.of([(0, INF)]), Barcode.of([(2, INF)])) == 2

    def test_unmatched_threshold(self):
        assert bottleneck_distance(Barcode.of([(0, 4)]), Barcode.of([])) == 2

    def test_empty(self):
        assert bottleneck_distance(Barcode.of([]), Barcode.of([])) == 0

    def test_infinite_on_essential_mismatch(self):
        assert bottleneck_distance(Barcode.of([(0, INF)]), Barcode.of([])) == INF

    def test_point_comparison(self):
        assert point_comparison_defect(Barcode.of([(0, INF)])) == 0
        assert point_comparison_defect(Barcode.of([(2, INF)])) == 2
        assert point_comparison_defect(barcode(zero_module(F2, 2))) == INF

    def test_three_thousand_bars(self):
        shifted = Barcode.of([(i + 1, i + 2) for i in range(3000)])
        assert bottleneck_distance(Barcode.of([(i, i + 1) for i in range(3000)]), shifted) == 1

    def test_overlapping_windows(self):
        """Bars whose windows overlap in a chain, at full size, well within 2 s each.

        Each bar's first candidate is the one its predecessor wants too, so
        without the greedy pass every augmenting-path search fails down the
        whole chain before taking its own bar: quadratic in the bars.
        """
        shapes = [
            ([(2 * i, 2 * i + 3) for i in range(3000)], [(2 * i + 1, 2 * i + 4) for i in range(3000)]),
            ([(2 * i, INF) for i in range(300)], [(2 * i + 1, INF) for i in range(300)]),
        ]
        for left, right in shapes:
            start = time.perf_counter()
            assert bottleneck_distance(Barcode.of(left), Barcode.of(right)) == 1
            assert time.perf_counter() - start < 2

    def test_deep_augmenting_path(self):
        # Left node i < n-1 first takes right node i; the last left node then
        # needs the augmenting path that shifts all n-1 of them by one.
        n = 3000
        chain = [[i, i + 1] for i in range(n - 1)] + [[0]]
        assert _perfect_matching(chain, n)
        assert not _perfect_matching(chain + [[0]], n)

    @given(st.lists(bars, max_size=6), st.lists(bars, max_size=6), st.integers(0, 9))
    @settings(max_examples=300, deadline=None)
    def test_feasibility_agrees_with_dummy_construction(self, bars1, bars2, e):
        b1, b2 = Barcode.of(bars1).bars, Barcode.of(bars2).bars
        assert _matching_feasible(b1, b2, e) == _dummy_feasible(b1, b2, e)

    @given(modules(max_dim=2, t_max=3), modules(max_dim=2, t_max=3))
    @settings(max_examples=40, deadline=None)
    def test_pseudometric(self, M, N):
        bm, bn = barcode(M), barcode(N)
        assert bottleneck_distance(bm, bm) == 0
        assert bottleneck_distance(bm, bn) == bottleneck_distance(bn, bm)

    @given(modules(max_dim=2, t_max=3), modules(max_dim=2, t_max=3), modules(max_dim=2, t_max=3))
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, A, B, C):
        ab = bottleneck_distance(barcode(A), barcode(B))
        bc = bottleneck_distance(barcode(B), barcode(C))
        ac = bottleneck_distance(barcode(A), barcode(C))
        assert ac <= ab + bc


class TestBruteforce:
    def test_trivial_module_interleaves_with_zero(self):
        M = module_from_barcode(F2, 2, [(0, 1)])
        assert interleaving_bruteforce(M, zero_module(F2, 2), 1)

    def test_essential_never_interleaves_with_zero(self):
        M = module_from_barcode(F2, 2, [(0, INF)])
        for eps in range(4):
            assert not interleaving_bruteforce(M, zero_module(F2, 2), eps)

    def test_identity_at_zero(self):
        M = module_from_barcode(F2, 2, [(0, 2), (1, INF)])
        assert interleaving_bruteforce(M, M, 0)

    def test_monotone_in_eps(self):
        rng = random.Random(5)
        for _ in range(20):
            T = rng.randint(0, 3)
            M = random_module(rng, F2, max_dim=2, T=T)
            N = random_module(rng, F2, max_dim=2, T=T)
            prev = False
            for eps in range(0, T + 2):
                cur = interleaving_bruteforce(M, N, eps)
                assert cur or not prev
                prev = cur

    def test_guards(self):
        with pytest.raises(TooLarge):
            interleaving_bruteforce(zero_module(F3, 1), zero_module(F3, 1), 0)
        with pytest.raises(TooLarge):
            interleaving_bruteforce(zero_module(F2, 5), zero_module(F2, 5), 0)
        big = module_from_barcode(F2, 1, [(0, 1)] * 3)
        with pytest.raises(TooLarge):
            interleaving_bruteforce(big, big, 0)

    def test_agrees_with_bottleneck(self):
        rng = random.Random(11)
        for _ in range(30):
            T = rng.randint(0, 3)
            M = random_module(rng, F2, max_dim=2, T=T)
            N = random_module(rng, F2, max_dim=2, T=T)
            d = bottleneck_distance(barcode(M), barcode(N))
            least = None
            for eps in range(0, T + 2):
                if interleaving_bruteforce(M, N, eps):
                    least = eps
                    break
            if d == INF:
                assert least is None
            else:
                assert least == d


def test_shift_morphism():
    """The eps-shift of a module at index i is its composite transition i -> i + eps."""
    M = mod([1, 1, 1], [[1], [0]])
    assert composite(M, 0, 2)[0, 0] == 0
    assert composite(M, 1, 1)[0, 0] == 1
