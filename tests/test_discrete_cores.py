"""Towers of discrete cores: barcodes and ranks read off the element maps.

When every slice core is an antichain, its order complex is a set of
vertices, so the only homology is H_0, free on the elements over every
field.  homology._core_barcodes then runs the elder rule on the element
maps (homology._discrete_barcode) and induced_ranks counts distinct
images, with no complex built and no reduction made.  The references are
the complex paths those shortcuts skip: reference.tower_barcodes of the
full order-complex tower, and the dense rank of the map induced on
homology of the order complexes of the cores
(reference.induced_on_homology).
"""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persposet import homology, posets
from persposet.complexes import order_complex
from persposet.homology import FieldSpec, induced_ranks, pposet_barcodes
from persposet.modules import INF
from persposet.posets import new_poset
from persposet.pposets import PersistenceMap, PersistencePoset
from persposet.verifier import verify_theorem
from reference import (
    SimplicialMap,
    barcodes_of,
    clear_library_caches,
    constant_pposet,
    induced_on_homology,
    order_complex_tower,
    rank,
)
from reference import homology as homology_basis
from tiers import instance

FIELDS = (2, 3, 5)
TIERS = ("S", "M")
CROWN = new_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


def discrete_pposet(sizes, images):
    """Antichains of the given sizes; images[i][j] is the index of element j's image at i + 1."""
    comps = [new_poset([f"e{j}" for j in range(n)], []) for n in sizes]
    maps = [{f"e{j}": f"e{k}" for j, k in enumerate(row)} for row in images]
    return PersistencePoset(tuple(comps), tuple(maps))


@st.composite
def antichain_towers(draw):
    """T <= 5, an empty prefix of any length (all of it included), then slices of 1 to 4 elements."""
    T = draw(st.integers(0, 5))
    first = draw(st.integers(0, T + 1))
    sizes = [0 if i < first else draw(st.integers(1, 4)) for i in range(T + 1)]
    images = [[draw(st.integers(0, sizes[i + 1] - 1)) for _ in range(sizes[i])] for i in range(T)]
    return discrete_pposet(sizes, images)


@settings(max_examples=300, deadline=None)
@given(antichain_towers(), st.integers(0, 3), st.sampled_from(FIELDS))
def test_discrete_barcodes_equal_tower_barcodes(pp, k_max, p):
    field = FieldSpec(p)
    codes = pposet_barcodes(pp, field, k_max)
    assert codes == barcodes_of(order_complex_tower(pp), field, k_max)
    assert len(codes) == k_max + 1 and all(not code.bars for code in codes[1:])


@pytest.mark.parametrize("p", FIELDS)
def test_younger_class_dies_at_a_merge(p):
    """Classes born at 0 and 1 merge at 2: the one born at 1 dies there."""
    pp = discrete_pposet([1, 2, 1], [[0], [0, 0]])
    assert pposet_barcodes(pp, FieldSpec(p), 1)[0].bars == ((0, INF), (1, 2))


def test_empty_tower_has_no_bars():
    pp = discrete_pposet([0, 0, 0], [[], []])
    assert [code.bars for code in pposet_barcodes(pp, FieldSpec(2), 2)] == [(), (), ()]


def test_discrete_tower_builds_no_complex():
    pp = discrete_pposet([2, 3, 1], [[0, 2], [0, 0, 0]])
    clear_library_caches()
    assert pposet_barcodes(pp, FieldSpec(3), 2)[0].bars == ((0, 2), (0, INF), (1, 2))
    assert homology._core_chains.cache_info().misses == 0


def test_crown_tower_still_builds_its_complexes():
    """The crown is its own core and has relations, so it takes the complex path.

    Both slices have the one core, so one reduction serves both.
    """
    clear_library_caches()
    with mock.patch.object(homology, "_chains", wraps=homology._chains) as reductions:
        codes = pposet_barcodes(constant_pposet(CROWN, 1), FieldSpec(2), 2)
    assert [len(code) for code in codes] == [1, 1, 0]
    info = homology._core_chains.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert reductions.call_count == 1


def core_ranks(X, Y, g, p, k_max):
    """rank H_k of r . g . incl on the order complexes of the cores of X and Y, by the dense reference."""
    (core_x, _), (core_y, retract_y) = posets.core(X), posets.core(Y)
    sm = SimplicialMap(order_complex(core_x), order_complex(core_y), homology._onto_cores(g, core_x, retract_y))
    field = FieldSpec(p)
    bases = [(homology_basis(sm.source, k, field), homology_basis(sm.target, k, field)) for k in range(k_max + 1)]
    return [rank(induced_on_homology(sm, k, field, *bases[k]), p) for k in range(k_max + 1)]


def is_discrete(X, Y):
    return not (posets.core(X)[0].relation or posets.core(Y)[0].relation)


@pytest.mark.parametrize("tier", TIERS)
def test_induced_ranks_equal_core_ranks(tier):
    """On discrete and mixed slice maps of tiers S and M; both kinds occur.

    Few tier-S slice maps are mixed (8 of 1,326 on seeds 0-399), so the
    seeds of two of them are always run.
    """
    seen = {True: 0, False: 0}

    @given(st.integers(0, 10_000), st.sampled_from(FIELDS))
    @example(67, 3)
    @example(71, 5)
    @settings(max_examples=20, deadline=None)
    def check(seed, p):
        f = instance(tier, seed)
        for X, Y, g in zip(f.source.components, f.target.components, f.slices):
            seen[is_discrete(X, Y)] += 1
            for k_max in (0, 2):
                assert induced_ranks(X, Y, g, FieldSpec(p), k_max) == core_ranks(X, Y, g, p, k_max)

    check()
    assert seen[True] and seen[False]


@pytest.mark.parametrize("p", FIELDS)
def test_rank_counts_distinct_images(p):
    """Three points onto two, two of them merged: rank 2 in degree 0, not 3."""
    X, Y = new_poset("abc", []), new_poset("xy", [])
    g = {"a": "x", "b": "x", "c": "y"}
    assert induced_ranks(X, Y, g, FieldSpec(p), 2) == [2, 0, 0] == core_ranks(X, Y, g, p, 2)


def test_cold_verify_on_a_discrete_instance_builds_no_complex():
    """Every core of the source, the target and the fibers is an antichain."""
    X, Y = new_poset("abc", []), new_poset("xy", [])
    Z = new_poset("z", [])
    source = PersistencePoset((X, X), ({"a": "a", "b": "a", "c": "c"},))
    target = PersistencePoset((Y, Z), ({"x": "z", "y": "z"},))
    slices = ({"a": "x", "b": "x", "c": "y"}, {"a": "z", "b": "z", "c": "z"})
    f = PersistenceMap(source, target, slices)
    clear_library_caches()
    with mock.patch.object(homology, "_discrete_barcode", wraps=homology._discrete_barcode) as discrete:
        cert = verify_theorem(f, FieldSpec(2), 1)
    assert homology._core_chains.cache_info().misses == 0
    assert discrete.call_count > 0
    assert cert.induced_ranks == {0: [2, 1], 1: [0, 0]}
