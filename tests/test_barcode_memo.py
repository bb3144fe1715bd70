"""pposet_barcodes, the core-keyed path from a persistence poset to its barcodes.

The memo (homology._core_barcodes) is keyed on the slicewise beat-point
cores, the structure maps carried onto them, the field and k_max.  The
reference for every barcode is the full order-complex tower,
``reference.barcodes_of(reference.order_complex_tower(pp), ...)``.  The lookups here run in
one warm cache on purpose: a key that forgets part of the content (the
structure maps, the field or k_max) hands out another poset's barcodes.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persposet import homology
from persposet.homology import FieldSpec, pposet_barcodes
from persposet.modules import INF, bottleneck_distance
from persposet.posets import new_poset
from persposet.pposets import (
    PersistenceMap,
    PersistencePoset,
    chain_filtrations,
    fibers,
    top_degree,
    tracks,
)
from persposet.verifier import verify_theorem
from reference import (
    NotASubposet,
    acyclicity_defect,
    barcodes_of,
    chain_members,
    comparison_set,
    constant_pposet,
    fiber,
    order_complex_tower,
)
from tiers import instance

TIERS = ("S", "M")
FIELDS = (2, 3, 5)


def reference(pp, field, k_max):
    return barcodes_of(order_complex_tower(pp), field, k_max)


def two_points(images):
    """Two points a, b at indices 0 and 1; the structure map sends them to images."""
    P = new_poset("ab", [])
    return PersistencePoset((P, P), (dict(zip("ab", images)),))


def face_poset(facets):
    """Nonempty faces of the facets, ordered by proper inclusion."""
    faces = {"".join(face) for s in facets for k in range(1, len(s) + 1) for face in combinations(s, k)}
    pairs = [(a, b) for a in faces for b in faces if a != b and set(a) <= set(b)]
    return new_poset(sorted(faces), pairs)


# The six-vertex real projective plane: H_1 = Z/2, so its homology depends on the field.
RP2 = face_poset(["123", "134", "145", "156", "126", "235", "346", "245", "356", "246"])


def test_structure_maps_are_in_the_key():
    apart, merged = two_points("ab"), two_points("aa")
    assert apart.components == merged.components
    field = FieldSpec(2)
    homology._core_barcodes.cache_clear()
    kept, joined = ((0, INF), (0, INF)), ((0, 1), (0, INF), (1, INF))
    for pp, bars in ((apart, kept), (merged, joined), (apart, kept)):
        codes = pposet_barcodes(pp, field, 0)
        assert codes[0].bars == bars
        assert codes == reference(pp, field, 0)


def test_field_is_in_the_key():
    pp = constant_pposet(RP2, 1)
    homology._core_barcodes.cache_clear()
    betti = {}
    for p in (2, 3, 2, 5):
        codes = pposet_barcodes(pp, FieldSpec(p), 2)
        assert codes == reference(pp, FieldSpec(p), 2)
        betti[p] = [len(code) for code in codes]
    assert betti == {2: [1, 1, 1], 3: [1, 0, 0], 5: [1, 0, 0]}


def test_degree_bound_is_in_the_key():
    crown = constant_pposet(new_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]), 1)
    field = FieldSpec(3)
    homology._core_barcodes.cache_clear()
    for k_max in (0, 2, 1, 0):
        codes = pposet_barcodes(crown, field, k_max)
        assert len(codes) == k_max + 1
        assert codes == reference(crown, field, k_max)


def test_equal_content_is_one_miss():
    f = instance("S", 3)
    y = tracks(f.target)[0]
    first, second = fiber(f, y), fiber(f, y)
    assert first is not second
    field = FieldSpec(2)
    homology._core_barcodes.cache_clear()
    codes = pposet_barcodes(first, field, 1)
    again = pposet_barcodes(second, field, 1)
    info = homology._core_barcodes.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert codes == again and codes is not again
    codes.clear()
    assert pposet_barcodes(second, field, 1) == again


def instance_pposets(f):
    """Source, target, every fiber, chain members and their closed comparison sets."""
    chains = chain_filtrations(f)
    out = [f.source, f.target]
    out += [fiber(f, y) for y in tracks(f.target)]
    target_chain, source_chain = chain_members(chains)
    out += target_chain + source_chain
    for step in chains.target_steps + chains.source_steps:
        for direction in ("below", "above"):
            try:
                out.append(comparison_set(step.larger, step.track.trajectory, direction))
            except NotASubposet:
                pass
    return out


@pytest.fixture(scope="module")
def warm_cache():
    """Clear the memo once; every example of the reference tests then shares it."""
    homology._core_barcodes.cache_clear()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(sorted(TIERS)), st.sampled_from(FIELDS))
def test_memo_equals_full_tower_barcodes(warm_cache, seed, tier, p):
    f = instance(tier, seed)
    field = FieldSpec(p)
    for pp in instance_pposets(f):
        k_max = top_degree(pp)
        assert pposet_barcodes(pp, field, k_max) == reference(pp, field, k_max)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(sorted(TIERS)), st.sampled_from(FIELDS))
def test_certificate_equals_full_tower_reference(warm_cache, seed, tier, p):
    """The certificate's distances and fiber defects, from the full towers of source, target and fibers."""
    f = instance(tier, seed)
    field = FieldSpec(p)
    cert = verify_theorem(f, field)
    codes_x = reference(f.source, field, cert.k_max)
    codes_y = reference(f.target, field, cert.k_max)
    assert cert.distances == {k: bottleneck_distance(a, b) for k, (a, b) in enumerate(zip(codes_x, codes_y))}
    assert cert.fiber_eps == {
        y.label: acyclicity_defect(order_complex_tower(fiber(f, y)), field, cert.k_max)
        for y in tracks(f.target)
    }


def test_source_sharing_a_fiber_core_is_one_miss():
    """The source is not its fiber over p, but both retract to the point c: one miss serves both.

    X is the cone a < b > c and Y the chain p < q, constant over two
    indices; c goes to p and a, b to q.  The fiber over p is {c}, the
    fiber over q is all of X, and every one of them has the core {c}.
    The target's core {q} is the only other miss.
    """
    X = new_poset("abc", [("a", "b"), ("c", "b")])
    Y = new_poset("pq", [("p", "q")])
    g = {"a": "q", "b": "q", "c": "p"}
    f = PersistenceMap(constant_pposet(X, 1), constant_pposet(Y, 1), (g, g))
    over_p = fibers(f, tracks(f.target)[:1])[0]
    assert over_p.components[0].elements == ("c",)
    field = FieldSpec(2)
    homology._core_barcodes.cache_clear()
    cert = verify_theorem(f, field)
    info = homology._core_barcodes.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    assert cert.fiber_eps == {"0:p": 0, "0:q": 0}
    assert cert.distances == {0: 0, 1: 0}
    assert pposet_barcodes(f.source, field, cert.k_max) == reference(over_p, field, cert.k_max)
