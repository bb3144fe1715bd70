"""Slice homology read off barcodes: reduced Betti numbers and towers of cones.

The verifier builds no complex.  The join lemma's Kunneth check reads each
slice's reduced Betti numbers off the barcodes of pposet_barcodes (the bars
through the slice's index), and the cylinder lemma's cone check asks the
barcodes of each up-set to be those of a point.  The reference for the
Betti numbers is the dense reduced homology of the full slice complex
(tests/reference.py).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiers
from persposet.complexes import order_complex
from persposet.documents import random_pposet
from persposet.errors import HypothesisUnmet
from persposet.homology import FieldSpec, pposet_barcodes
from persposet.posets import new_poset
from persposet.pposets import PersistencePoset, ordinal_sum, top_degree, tracks
from persposet.verifier import _is_join_of, _is_point_from, _reduced_bettis, verify_join_acyclicity
import reference
from reference import complex_top_degree, constant_pposet, homology

TIERS = ("S", "M")
EXAMPLES = {"S": 40, "M": 20}
FIELDS = (2, 3, 5)


def cut_pair(rng, T, max_slice):
    """Two random persistence posets as long as each other; the second is empty before a random index."""
    A, B = (random_pposet(rng, T, max_slice, 2 * max_slice) for _ in range(2))
    start = rng.randint(0, T)
    return A, reference.restrict(B, [c.elements if i >= start else () for i, c in enumerate(B.components)])


def pposets_of(tier, seed):
    """An instance's source, target and every fiber, and the ordinal sum of a cut pair.

    A fiber is empty before its track's birth, and so is the pair's
    second factor before its cut, so degree -1 is read on empty slices
    too.  The factors of the pair have at most max_y_tracks elements per
    slice, so the full complexes of their joins stay small enough for the
    dense reference.
    """
    limits = tiers.TIERS[tier]
    f = tiers.instance(tier, seed)
    rng = random.Random(seed)
    A, B = cut_pair(rng, rng.randint(0, limits.t_max), limits.max_y_tracks)
    return [f.source, f.target, *(reference.fiber(f, y) for y in tracks(f.target)), ordinal_sum(A, B)]


@pytest.mark.parametrize("tier", TIERS)
def test_reduced_bettis_equal_dense_slice_homology(tier):
    """Degrees -1 through top + 1 of every slice, with the verifier's degree bound."""

    @given(st.integers(0, 10_000), st.sampled_from(FIELDS))
    @settings(max_examples=EXAMPLES[tier], deadline=None)
    def check(seed, p):
        field = FieldSpec(p)
        for pp in pposets_of(tier, seed):
            codes = pposet_barcodes(pp, field, top_degree(pp))
            for i, P in enumerate(pp.components):
                K = order_complex(P)
                bettis = _reduced_bettis(codes, i)
                read = [bettis[k + 1] if k + 1 < len(bettis) else 0 for k in range(-1, complex_top_degree(K) + 2)]
                dense = [homology(K, k, field, reduced=True).dimension for k in range(complex_top_degree(K) + 2)]
                assert read == [int(not K.simplices), *dense]

    check()


def test_reads_reach_degree_one():
    """The comparison is only sharp if some slice has reduced homology above degree 0."""
    field = FieldSpec(2)
    above_zero = [
        i
        for seed in range(40)
        for pp in pposets_of("S", seed)
        for i in range(pp.T + 1)
        if any(_reduced_bettis(pposet_barcodes(pp, field, top_degree(pp)), i)[2:])
    ]
    assert len(above_zero) >= 10


def test_reads_reach_empty_slices():
    """Degree -1 is only checked if some slice is empty."""
    assert any(c.is_empty() for seed in range(10) for pp in pposets_of("S", seed) for c in pp.components)


def test_join_identity_of_two_point_pairs():
    """S^0 * S^0 is a circle; the lists start at degree -1, and the join's may run past the factors'."""
    assert _is_join_of([0, 1], [0, 1], [0, 0, 1])
    assert _is_join_of([0, 1], [0, 1], [0, 0, 1, 0, 0])
    assert not _is_join_of([0, 1], [0, 1], [0, 0, 0])
    assert not _is_join_of([0, 1], [0, 1], [0, 0, 1, 1])
    assert _is_join_of([1], [0, 0, 2], [0, 0, 2])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(FIELDS))
def test_join_lemma_with_empty_slices_equals_full_tower_reference(seed, p):
    """Where one factor is empty the join is the other factor: degree -1 enters the Kunneth check."""
    rng = random.Random(seed)
    A, B = cut_pair(rng, rng.randint(1, 4), 4)
    reports = []
    for verify in (verify_join_acyclicity, reference.verify_join_acyclicity):
        try:
            reports.append(vars(verify(A, B, FieldSpec(p))))
        except HypothesisUnmet:
            reports.append(None)
    assert reports[0] == reports[1]
    assert reports[0] is None or reports[0]["kunneth_ok"]


def pposet(components, maps):
    comps = [new_poset(elements, pairs) for elements, pairs in components]
    return PersistencePoset(tuple(comps), tuple(dict(m) for m in maps))


CROWN = (["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
IDENTITY = {e: e for e in "abcd"}


@pytest.mark.parametrize("p", FIELDS)
def test_cone_tower_is_a_point_from_its_birth(p):
    """Empty, then a cone with minimum a, then a larger cone."""
    cones = pposet(
        [
            ([], []),
            (["a", "b", "c"], [("a", "b"), ("a", "c")]),
            (["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("c", "d")]),
        ],
        [{}, {"a": "a", "b": "b", "c": "c"}],
    )
    codes = pposet_barcodes(cones, FieldSpec(p), 2)
    assert _is_point_from(codes, 1)
    assert not _is_point_from(codes, 0)


@pytest.mark.parametrize("p", FIELDS)
def test_circle_slice_is_not_a_point(p):
    """The four-element crown is a circle: its degree-1 bar never dies."""
    codes = pposet_barcodes(constant_pposet(new_poset(*CROWN), 2), FieldSpec(p), 1)
    assert [len(code) for code in codes] == [1, 1]
    assert not _is_point_from(codes, 0)


@pytest.mark.parametrize("p", FIELDS)
def test_finite_degree_one_bar_is_not_a_point(p):
    """The crown, then coned off by a top e: a degree-1 bar [0, 1) on a connected tower."""
    coned = pposet([CROWN, (["a", "b", "c", "d", "e"], [*CROWN[1], ("c", "e"), ("d", "e")])], [IDENTITY])
    codes = pposet_barcodes(coned, FieldSpec(p), 2)
    assert codes[1].bars == ((0, 1),)
    assert not _is_point_from(codes, 0)
    assert _is_point_from(codes[:1], 0)


@pytest.mark.parametrize("p", FIELDS)
def test_two_components_are_not_a_point(p):
    codes = pposet_barcodes(constant_pposet(new_poset(["a", "b"], []), 1), FieldSpec(p), 0)
    assert not _is_point_from(codes, 0)
