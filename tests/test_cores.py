"""Beat-point cores: the poset retraction, the persistence core, and exactness.

The reference for every barcode is the full order-complex tower,
``reference.barcodes_of(reference.order_complex_tower(pp), ...)``; the library itself only
computes barcodes of persistence posets on their cores.  The persistence
core exists in the library only as the cores and maps that
homology.pposet_barcodes hands to homology._core_barcodes;
tests/reference.py builds it as a validated persistence poset.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiers
from persposet.complexes import order_complex
from persposet.documents import parse_instance, random_instance
from persposet.homology import FieldSpec, _core_barcodes, pposet_barcodes
from persposet.posets import check_map, new_poset
from persposet.posets import core as poset_core
from persposet.pposets import tracks
from persposet.verifier import verify_theorem
from reference import (
    NotASubposet,
    barcodes_of,
    comparison_set,
    complex_top_degree,
    constant_pposet,
    core_pposet,
    core_tower,
    fiber,
    homology,
    induced_map,
    induced_on_homology,
    order_complex_tower,
    rank,
    reduced_dim,
)

FIELDS = (2, 3, 5)


def covers(P, x):
    """Lower and upper covers of x, from the relation alone."""
    below = {a for a, b in P.relation if b == x}
    above = {b for a, b in P.relation if a == x}
    lower = {a for a in below if not any((a, c) in P.relation for c in below)}
    upper = {b for b in above if not any((c, b) in P.relation for c in above)}
    return lower, upper


def is_beat_point(P, x):
    lower, upper = covers(P, x)
    return len(lower) == 1 or len(upper) == 1


CROWN = new_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


@st.composite
def posets(draw):
    elements = draw(st.lists(st.sampled_from("abcdefgh"), min_size=0, max_size=7, unique=True))
    pairs = [
        (elements[i], elements[j])
        for i in range(len(elements))
        for j in range(i + 1, len(elements))
        if draw(st.booleans())
    ]
    return new_poset(elements, pairs)


class TestPosetCore:
    def test_chain_reduces_to_a_point(self):
        C, r = poset_core(new_poset("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]))
        assert len(C) == 1
        assert set(r.values()) == set(C.elements)

    def test_cone_reduces_to_a_point(self):
        cone = new_poset("abcdt", list(CROWN.relation) + [(x, "t") for x in "abcd"])
        C, _ = poset_core(cone)
        assert len(C) == 1

    def test_crown_is_its_own_core(self):
        C, r = poset_core(CROWN)
        assert C == CROWN
        assert r == {e: e for e in CROWN.elements}

    def test_empty_and_point(self):
        for P in (new_poset([], []), new_poset("a", [])):
            C, r = poset_core(P)
            assert C == P and r == {e: e for e in P.elements}

    @settings(max_examples=150, deadline=None)
    @given(posets())
    def test_retraction_properties(self, P):
        C, r = poset_core(P)
        check_map(P, C, r)
        assert set(r) == set(P.elements) and set(r.values()) == set(C.elements)
        assert set(C.elements) <= set(P.elements)
        assert C.relation == frozenset((a, b) for (a, b) in P.relation if a in C and b in C)
        assert all(r[c] == c for c in C.elements)
        assert not any(is_beat_point(C, x) for x in C.elements)
        C2, r2 = poset_core(C)
        assert C2 == C and r2 == {c: c for c in C.elements}
        assert (len(C) == 0) == (len(P) == 0)

    @settings(max_examples=60, deadline=None)
    @given(posets(), st.sampled_from(FIELDS))
    def test_same_reduced_homology(self, P, p):
        C, _ = poset_core(P)
        field = FieldSpec(p)
        K, L = order_complex(P), order_complex(C)
        for k in range(-1, complex_top_degree(K) + 1):
            assert reduced_dim(K, k, field) == reduced_dim(L, k, field)


def core_tower_of(pp):
    """The cores and maps that pposet_barcodes reads pp's barcodes off."""
    with mock.patch("persposet.homology._core_barcodes", wraps=_core_barcodes) as spy:
        pposet_barcodes(pp, FieldSpec(2), 0)
    components, maps, _, _ = spy.call_args.args
    return tuple(components), maps


class TestPersistenceCore:
    def test_constant_crown(self):
        pp = constant_pposet(CROWN, 2)
        components, maps = core_tower_of(pp)
        assert components == pp.components
        assert maps == [{e: e for e in CROWN.elements} for _ in range(pp.T)]
        _, retractions = core_pposet(pp)
        assert all(r == {e: e for e in CROWN.elements} for r in retractions)

    def test_maps_compose_structure_with_retraction(self):
        doc = random_instance(3, tiers.S)
        pp = parse_instance(doc).x
        components, maps = core_tower_of(pp)
        C, retractions = core_pposet(pp)
        assert len(retractions) == pp.T + 1
        assert components == C.components
        assert [list(m.items()) for m in maps] == [list(m.items()) for m in C.maps]
        for i in range(pp.T):
            for x, image in maps[i].items():
                assert image == retractions[i + 1][pp.maps[i][x]]


def tier_s_pposets(seed):
    """Source, target, every fiber and closed comparison sets of one tier-S instance."""
    f = tiers.instance("S", seed)
    out = [f.source, f.target, *(fiber(f, y) for y in tracks(f.target))]
    for pp in (f.source, f.target):
        for t in tracks(pp):
            for direction in ("below", "above"):
                try:
                    out.append(comparison_set(pp, t.trajectory, direction))
                except NotASubposet:
                    pass
    return f, out


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_core_barcodes_equal_full_barcodes(seed):
    _, pps = tier_s_pposets(seed)
    for pp in pps:
        full = order_complex_tower(pp)
        k_top = max(full.top_degree(), 0)
        small = core_tower(pp)
        for p in FIELDS:
            field = FieldSpec(p)
            assert barcodes_of(small, field, k_top) == barcodes_of(full, field, k_top)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(FIELDS))
def test_induced_ranks_equal_full_ranks(seed, p):
    f, _ = tier_s_pposets(seed)
    field = FieldSpec(p)
    cert = verify_theorem(f, field)
    tx, ty = order_complex_tower(f.source), order_complex_tower(f.target)
    for k, ranks in cert.induced_ranks.items():
        expected = []
        for i in range(f.T + 1):
            sm = induced_map(
                f.source.components[i], f.target.components[i], f.slices[i], tx.complexes[i], ty.complexes[i]
            )
            mat = induced_on_homology(sm, k, field, homology(sm.source, k, field), homology(sm.target, k, field))
            expected.append(rank(mat, p))
        assert ranks == expected


def test_core_shrinks_tier_m_complexes():
    doc = random_instance(7, tiers.M)
    pp = parse_instance(doc).x
    full = sum(len(K.simplices) for K in order_complex_tower(pp).complexes)
    small = sum(len(K.simplices) for K in core_tower(pp).complexes)
    assert small < full


@pytest.mark.parametrize("p", FIELDS)
def test_degree_above_top_is_empty(p):
    tower = core_tower(constant_pposet(CROWN, 1))
    codes = barcodes_of(tower, FieldSpec(p), 4)
    assert [len(code) for code in codes] == [1, 1, 0, 0, 0]
