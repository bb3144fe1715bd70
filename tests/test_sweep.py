"""The elder-rule sweep against the rank invariant, and its sparse kernel.

Every barcode comes from one forward sweep (modules.elder_barcode).  The
reference is the barcode read from rank_invariant by Moebius inversion,
for modules directly and for towers through the dense homology_tower.
The sweeps build their Barcode without Barcode.of, whose normalised
form is the reference for what they return.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persposet import homology, linalg
from persposet.errors import InternalError
from persposet.homology import FieldSpec, pposet_barcodes
from persposet.modules import INF, Barcode, PersistenceModule, barcode
from persposet.pposets import persistence_mapping_cylinder, top_degree, tracks
import reference
from reference import (
    ComplexTower,
    SimplicialMap,
    barcodes_of,
    core_tower,
    from_simplices,
    homology_tower,
    order_complex_tower,
    rank_invariant,
    zero_module,
)
from tiers import instance

PRIMES = (2, 3, 5, 7)


def barcode_from_ranks(M: PersistenceModule) -> Barcode:
    """Moebius inversion of the rank invariant: the reference barcode."""
    r = rank_invariant(M)
    T = M.T

    def rr(i, j):
        return 0 if i < 0 else int(r[i, j])

    bars = []
    for b in range(T + 1):
        for d in range(b + 1, T + 1):
            mult = (rr(b, d - 1) - rr(b, d)) - (rr(b - 1, d - 1) - rr(b - 1, d))
            assert mult >= 0
            bars += [(b, d)] * mult
        mult = rr(b, T) - rr(b - 1, T)
        assert mult >= 0
        bars += [(b, INF)] * mult
    return Barcode.of(bars)


@st.composite
def modules(draw):
    p = draw(st.sampled_from(PRIMES))
    T = draw(st.integers(0, 8))
    dims = [draw(st.integers(0, 4)) for _ in range(T + 1)]
    transitions = [
        np.array(
            draw(st.lists(st.integers(0, p - 1), min_size=dims[i] * dims[i + 1], max_size=dims[i] * dims[i + 1])),
            dtype=np.int64,
        ).reshape(dims[i + 1], dims[i])
        for i in range(T)
    ]
    return reference.module(FieldSpec(p), dims, transitions)


@given(modules())
@settings(max_examples=300, deadline=None)
def test_module_sweep_matches_rank_invariant(M):
    code = barcode(M)
    assert code == Barcode.of(code.bars)
    r = rank_invariant(M)
    for i in range(M.T + 2):
        for j in range(i, M.T + 2):
            assert code.count_through(i, j) == r[i, j]


def tier_s_towers(seed):
    """Full and core towers of the source, target and every fiber of one tier-S instance."""
    f = instance("S", seed)
    for pp in [f.source, f.target, *(reference.fiber(f, y) for y in tracks(f.target))]:
        yield order_complex_tower(pp)
        yield core_tower(pp)


@given(st.integers(0, 10_000), st.sampled_from((2, 3, 5)))
@settings(max_examples=60, deadline=None)
def test_tower_sweep_matches_rank_invariant(seed, p):
    field = FieldSpec(p)
    for tower in tier_s_towers(seed):
        k_top = max(tower.top_degree(), 0)
        expected = [barcode_from_ranks(homology_tower(tower, k, field)) for k in range(k_top + 1)]
        assert barcodes_of(tower, field, k_top) == expected


@pytest.mark.parametrize("tier", ["S", "M"])
def test_sweep_barcodes_need_no_normalising(tier):
    """elder_barcode and _discrete_barcode skip Barcode.of; each result equals Barcode.of of its bars.

    Both are spied on while the barcodes of an instance's source, target,
    cylinder and fibers are built from cold caches, on the cores and on
    the full order-complex towers.
    """
    seen = {"elder_barcode": 0, "_discrete_barcode": 0}

    @given(st.integers(0, 10_000), st.sampled_from((2, 3)))
    @settings(max_examples=15, deadline=None)
    def check(seed, p):
        f = instance(tier, seed)
        built = {"elder_barcode": [], "_discrete_barcode": []}

        def spy(name):
            original = getattr(homology, name)

            def record(*args):
                built[name].append(original(*args))
                return built[name][-1]

            return mock.patch.object(homology, name, record)

        reference.clear_library_caches()
        with spy("elder_barcode"), spy("_discrete_barcode"):
            fibers = [reference.fiber(f, y) for y in tracks(f.target)]
            for pp in [f.source, f.target, persistence_mapping_cylinder(f), *fibers]:
                pposet_barcodes(pp, FieldSpec(p), top_degree(pp))
                barcodes_of(order_complex_tower(pp), FieldSpec(p), top_degree(pp))
        for name, codes in built.items():
            seen[name] += len(codes)
        for code in built["elder_barcode"] + built["_discrete_barcode"]:
            assert code == Barcode.of(code.bars)
            assert all(type(b) is int and (d == INF or type(d) is int) for b, d in code.bars)

    check()
    assert all(seen.values())


def module(dims, transitions, p=2):
    mats = [np.array(t, dtype=np.int64).reshape(dims[i + 1], dims[i]) for i, t in enumerate(transitions)]
    return reference.module(FieldSpec(p), dims, mats)


@pytest.mark.parametrize(
    "M, bars",
    [
        pytest.param(module([2], []), [(0, INF), (0, INF)], id="T=0"),
        pytest.param(zero_module(FieldSpec(3), 0), [], id="zero-T=0"),
        pytest.param(zero_module(FieldSpec(3), 4), [], id="zero-T=4"),
        # a at 0 and b at 1 merge at 2: the younger b dies
        pytest.param(module([1, 2, 1], [[1, 0], [1, 1]]), [(0, INF), (1, 2)], id="merge"),
        pytest.param(module([1, 2, 1], [[0, 1], [2, 1]], p=3), [(0, INF), (1, 2)], id="merge-p3"),
        # the class of 0 dies at 1, where a new class is born
        pytest.param(module([1, 1], [[0]]), [(0, 1), (1, INF)], id="die-and-born"),
    ],
)
def test_module_hand_cases(M, bars):
    assert barcode(M) == Barcode.of(bars)
    assert barcode_from_ranks(M) == Barcode.of(bars)


def tower(complexes, vertex_maps):
    cs = [from_simplices(s) for s in complexes]
    maps = [SimplicialMap(cs[i], cs[i + 1], vm) for i, vm in enumerate(vertex_maps)]
    return ComplexTower(tuple(cs), tuple(maps))


def test_tower_merge_kills_the_younger_point():
    t = tower([[["a"]], [["a"], ["b"]], [["a", "b"]]], [{"a": "a"}, {"a": "a", "b": "b"}])
    for p in (2, 3):
        assert barcodes_of(t, FieldSpec(p), 0) == [Barcode.of([(0, INF), (1, 2)])]


def test_tower_loop_dies_where_another_is_born():
    hollow = [["a", "b"], ["b", "c"], ["a", "c"]]
    second = [["x", "y"], ["y", "z"], ["x", "z"]]
    t = tower([hollow, [["a", "b", "c"]] + second], [{v: v for v in "abc"}])
    for p in (2, 3):
        codes = barcodes_of(t, FieldSpec(p), 1)
        assert codes[1] == Barcode.of([(0, 1), (1, INF)])
        assert codes[0] == Barcode.of([(0, INF), (1, INF)])


def test_tower_t0_and_empty_complex():
    empty = ComplexTower((from_simplices([]),), ())
    assert barcodes_of(empty, FieldSpec(2), 2) == [Barcode.of(())] * 3
    point = tower([[["a"]]], [])
    assert barcodes_of(point, FieldSpec(5), 1) == [Barcode.of([(0, INF)]), Barcode.of(())]


@given(
    st.sampled_from(PRIMES),
    st.lists(st.lists(st.integers(0, 6), min_size=6, max_size=6), min_size=0, max_size=7),
)
@settings(max_examples=150, deadline=None)
def test_sparse_kernel_rank_matches_dense(p, rows):
    """Reducing and filing every column leaves one pivot per unit of rank."""
    dense = np.array(rows, dtype=np.int64).reshape(len(rows), 6).T % p
    pivots = {}
    for j in range(dense.shape[1]):
        column = {r: int(v) for r, v in enumerate(dense[:, j]) if v}
        reduced = linalg.reduce_column(column, pivots, p)
        assert not reduced or max(reduced) not in pivots
        if reduced:
            linalg.insert_pivot(reduced, pivots, p)
    assert len(pivots) == reference.rank(dense, p)
    assert all(col[low] == 1 and max(col) == low for low, col in pivots.items())


def test_insert_pivot_rejects_an_unreduced_column():
    pivots = {}
    linalg.insert_pivot({0: 1, 2: 2}, pivots, 3)
    assert pivots == {2: {0: 2, 2: 1}}
    with pytest.raises(InternalError):
        linalg.insert_pivot({2: 1}, pivots, 3)
