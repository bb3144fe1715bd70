"""The certificate's rank table and reduced Betti numbers against the dense reference.

The library reads both from the sparse reduction of each complex
(homology._chains): rank H_k(f) as the bars through 0 and 1 in the barcode
of the two-slice tower from f's source to its target (reference.tower_barcodes,
the library's sweep over uncached reductions), and the reduced Betti
number as the count of H_k generators the reduction keeps, less one in
degree 0.  The reduction keeps exactly the cycles that the pairing lemma
leaves unpaired, which the tests pin here too.
The reference is the dense path of tests/reference.py: homology bases,
the matrix induced on homology and its rank.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from families import PROJECTIVE_PLANE, SPHERE, cross_polytope, face_poset, grid_torus
from persposet import posets
from persposet.complexes import order_complex
from persposet.homology import FieldSpec, _core_chains
from persposet.verifier import verify_theorem
from reference import (
    SimplicialMap,
    complex_top_degree,
    core_tower,
    from_simplices,
    homology,
    induced_map,
    induced_on_homology,
    order_complex_tower,
    rank,
    reduced_dim,
    reduction,
    tower_barcodes,
)
from tiers import instance

TIERS = ("S", "M", "L")
# Tier L order complexes reach about 2,000 simplices, where the dense path is slow.
EXAMPLES = {"S": 30, "M": 15, "L": 4}
FIELDS = (2, 3, 5)


def dense_rank(sm, k, field):
    """rank H_k(sm) from dense homology bases and the induced matrix."""
    mat = induced_on_homology(sm, k, field, homology(sm.source, k, field), homology(sm.target, k, field))
    return rank(mat, field.p)


@pytest.mark.parametrize("tier", TIERS)
def test_rank_table_matches_dense(tier):
    """Every slice and degree of the certificate, and tower_barcodes on the full slice maps."""

    @given(st.integers(0, 10_000), st.sampled_from(FIELDS))
    @settings(max_examples=EXAMPLES[tier], deadline=None)
    def check(seed, p):
        f = instance(tier, seed)
        field = FieldSpec(p)
        cert = verify_theorem(f, field)
        tx, ty = order_complex_tower(f.source), order_complex_tower(f.target)
        slice_maps = [
            induced_map(f.source.components[i], f.target.components[i], f.slices[i], tx.complexes[i], ty.complexes[i])
            for i in range(f.T + 1)
        ]
        assert sorted(cert.induced_ranks) == list(range(cert.k_max + 1))
        tables = [ranks(sm, p, cert.k_max + 1) for sm in slice_maps]
        for k, reported in cert.induced_ranks.items():
            expected = [dense_rank(sm, k, field) for sm in slice_maps]
            assert reported == expected
            assert [table[k] for table in tables] == expected

    check()


@pytest.mark.parametrize("tier", TIERS)
def test_reduced_dim_matches_dense(tier):
    """On every slice complex of the full and core towers of source and target."""

    @given(st.integers(0, 10_000), st.sampled_from(FIELDS))
    @settings(max_examples=EXAMPLES[tier], deadline=None)
    def check(seed, p):
        f = instance(tier, seed)
        field = FieldSpec(p)
        for pp in (f.source, f.target):
            for tower in (order_complex_tower(pp), core_tower(pp)):
                for K in tower.complexes:
                    assert reduced_dim(K, -1, field) == int(not K.simplices)
                    for k in range(complex_top_degree(K) + 2):
                        assert reduced_dim(K, k, field) == homology(K, k, field, reduced=True).dimension

    check()


def assert_unpaired(chains):
    """No generator's largest simplex is a pivot of the reduced boundaries of one degree up.

    By the pairing lemma those are the cycles that span H_k next to B_k;
    the paired ones are cleared, never reduced.
    """
    for k in range(len(chains.simplices)):
        _, _, generators, boundaries = chains.degree(k)
        assert all(g and max(g) not in boundaries for g in generators)


@pytest.mark.parametrize("tier", ["S", "M"])
@pytest.mark.parametrize("p", [2, 3])
def test_core_generators_are_unpaired(tier, p):
    """On the core reduction of every slice of source and target, seeds 0-39."""
    for seed in range(40):
        f = instance(tier, seed)
        for pp in (f.source, f.target):
            for P in pp.components:
                assert_unpaired(_core_chains(posets.core(P)[0], p))


FAMILIES = {
    "sphere": SPHERE,
    "projective-plane": PROJECTIVE_PLANE,
    "torus-4x4": grid_torus(4),
    "octahedron": cross_polytope(3),
}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("facets", FAMILIES.values(), ids=FAMILIES.keys())
def test_family_generators_are_unpaired(facets, p):
    """On the order complexes of the family face posets, whose generators count the dense reduced Betti numbers."""
    K, field = order_complex(face_poset(facets)), FieldSpec(p)
    assert_unpaired(reduction(K, p))
    for k in range(complex_top_degree(K) + 2):
        assert reduced_dim(K, k, field) == homology(K, k, field, reduced=True).dimension


EMPTY = from_simplices([])
POINT = from_simplices([["p"]])
CIRCLE = from_simplices([["a", "b"], ["b", "c"], ["a", "c"]])
TETRAHEDRON_BOUNDARY = from_simplices(["abc", "abd", "acd", "bcd"])
# The six-vertex triangulation of the real projective plane.
RP2 = from_simplices(
    ["123", "134", "145", "156", "162", "235", "346", "452", "563", "624"]
)


def identity(K):
    return SimplicialMap(K, K, {v: v for v in K.vertices})


def ranks(sm, p, degrees):
    """rank H_k(sm) in degrees 0..degrees - 1: the bars through 0 and 1 of the tower source -> target."""
    codes = tower_barcodes([sm.source, sm.target], [sm.vertex_map], FieldSpec(p), degrees - 1)
    return tuple(code.count_through(0, 1) for code in codes)


@pytest.mark.parametrize("p", FIELDS)
def test_identity_on_a_two_sphere(p):
    assert ranks(identity(TETRAHEDRON_BOUNDARY), p, 3) == (1, 0, 1)
    assert [reduced_dim(TETRAHEDRON_BOUNDARY, k, FieldSpec(p)) for k in range(-1, 3)] == [0, 0, 0, 1]


@pytest.mark.parametrize("p", FIELDS)
def test_circle_to_a_point(p):
    collapse = SimplicialMap(CIRCLE, POINT, {v: "p" for v in CIRCLE.vertices})
    assert ranks(collapse, p, 2) == (1, 0)
    assert ranks(identity(CIRCLE), p, 2) == (1, 1)


@pytest.mark.parametrize("p, expected", [(2, (1, 1, 1)), (3, (1, 0, 0)), (5, (1, 0, 0))])
def test_projective_plane_depends_on_the_field(p, expected):
    field = FieldSpec(p)
    assert ranks(identity(RP2), p, 3) == expected
    assert tuple(dense_rank(identity(RP2), k, field) for k in range(3)) == expected
    assert [reduced_dim(RP2, k, field) for k in range(3)] == [0, *expected[1:]]


def test_empty_complex():
    field = FieldSpec(3)
    assert [reduced_dim(EMPTY, k, field) for k in (-2, -1, 0, 1)] == [0, 1, 0, 0]
    assert [reduced_dim(POINT, k, field) for k in (-2, -1, 0, 1)] == [0, 0, 0, 0]
    assert ranks(identity(EMPTY), 3, 2) == (0, 0)
    assert ranks(SimplicialMap(EMPTY, POINT, {}), 3, 1) == (0,)
