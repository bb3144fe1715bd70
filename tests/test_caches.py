"""pposet_barcodes on warm caches, and what the library reuses between barcodes.

The library reuses two things: each poset's beat-point core
(posets.core) and each core's reduction over F_p (homology._core_chains,
keyed on the core and p).  Every sweep of a tower runs fresh, so the
structure maps and k_max reach every barcode.  The reference for every
barcode is the full order-complex tower,
``reference.barcodes_of(reference.order_complex_tower(pp), ...)``.  The
comparisons here run in one warm cache on purpose: a reduction key that
forgets the field hands out another field's cycles and boundaries.
"""

import copy
import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persposet import homology
from persposet.homology import FieldSpec, pposet_barcodes
from persposet.modules import INF, barcode, bottleneck_distance, random_module
from persposet.posets import core, new_poset
from persposet.pposets import (
    PersistenceMap,
    PersistencePoset,
    chain_filtrations,
    fibers,
    persistence_mapping_cylinder,
    top_degree,
    tracks,
)
from persposet.verifier import verify_theorem
from reference import (
    NotASubposet,
    acyclicity_defect,
    barcodes_of,
    chain_members,
    clear_library_caches,
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
    """Two towers on the same cores, joined by different maps: each sweep reads its own maps."""
    apart, merged = two_points("ab"), two_points("aa")
    assert apart.components == merged.components
    field = FieldSpec(2)
    clear_library_caches()
    kept, joined = ((0, INF), (0, INF)), ((0, 1), (0, INF), (1, INF))
    for pp, bars in ((apart, kept), (merged, joined), (apart, kept)):
        codes = pposet_barcodes(pp, field, 0)
        assert codes[0].bars == bars
        assert codes == reference(pp, field, 0)


def test_field_is_in_the_key():
    """One reduction of RP2's one core per field; the second visit of F_2 makes none."""
    pp = constant_pposet(RP2, 1)
    clear_library_caches()
    betti = {}
    for p in (2, 3, 2, 5):
        codes = pposet_barcodes(pp, FieldSpec(p), 2)
        assert codes == reference(pp, FieldSpec(p), 2)
        betti[p] = [len(code) for code in codes]
    assert betti == {2: [1, 1, 1], 3: [1, 0, 0], 5: [1, 0, 0]}
    assert homology._core_chains.cache_info().misses == 3


def test_degree_bound_is_in_the_key():
    """k_max is not in the reduction key, but every sweep reads it: the crown tower is reduced once."""
    crown = constant_pposet(new_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]), 1)
    field = FieldSpec(3)
    clear_library_caches()
    for k_max in (0, 2, 1, 0):
        codes = pposet_barcodes(crown, field, k_max)
        assert len(codes) == k_max + 1
        assert codes == reference(crown, field, k_max)
    assert homology._core_chains.cache_info().misses == 1


def test_equal_content_is_one_miss():
    """Two equal fibers, built apart, with a core that has relations: the second makes no reduction."""
    f = instance("M", 10)
    y = tracks(f.target)[3]
    first, second = fiber(f, y), fiber(f, y)
    assert first is not second
    assert any(core(P)[0].relation for P in first.components)
    field = FieldSpec(2)
    clear_library_caches()
    codes = pposet_barcodes(first, field, 1)
    misses = homology._core_chains.cache_info().misses
    again = pposet_barcodes(second, field, 1)
    assert homology._core_chains.cache_info().misses == misses > 0
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
    """Clear the caches once; every example of the reference tests then shares them, across fields."""
    clear_library_caches()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(sorted(TIERS)), st.sampled_from(FIELDS))
def test_warm_cache_equals_full_tower_barcodes(warm_cache, seed, tier, p):
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


def test_point_cores_make_no_reduction():
    """A cold verify whose every core is a point: the source and its fibers retract to c, the target to q.

    X is the cone a < b > c and Y the chain p < q, constant over two
    indices; c goes to p and a, b to q.  The fiber over p is {c}, the
    fiber over q is all of X, and every one of them has the core {c}.
    Every tower is a tower of antichains, so nothing is reduced.
    """
    X = new_poset("abc", [("a", "b"), ("c", "b")])
    Y = new_poset("pq", [("p", "q")])
    g = {"a": "q", "b": "q", "c": "p"}
    f = PersistenceMap(constant_pposet(X, 1), constant_pposet(Y, 1), (g, g))
    over_p = fibers(f, tracks(f.target)[:1])[0]
    assert over_p.components[0].elements == ("c",)
    field = FieldSpec(2)
    clear_library_caches()
    cert = verify_theorem(f, field)
    assert homology._core_chains.cache_info().misses == 0
    assert cert.fiber_eps == {"0:p": 0, "0:q": 0}
    assert cert.distances == {0: 0, 1: 0}
    assert pposet_barcodes(f.source, field, cert.k_max) == reference(over_p, field, cert.k_max)


@pytest.mark.parametrize("tier, seed", [("S", 67), ("S", 71), ("M", 10), ("M", 11), ("M", 38), ("M", 44)])
def test_cold_verify_reduces_each_core_once_per_field(tier, seed):
    """Over F_2 and then F_3 in one cache: one reduction per distinct core of the swept towers and field.

    The swept towers are those with a core that has relations; a tower of
    antichains is read off its element maps.  Each reduction is one miss
    of the cache on (core, p), and no miss reduces twice.
    """
    f = instance(tier, seed)
    swept = set()

    def record(cores, maps, field, k_max):
        if any(C.relation for C in cores):
            swept.update((C, field.p) for C in cores)
        return core_barcodes(cores, maps, field, k_max)

    core_barcodes = homology._core_barcodes
    clear_library_caches()
    with mock.patch.object(homology, "_core_barcodes", record), \
            mock.patch.object(homology, "_chains", wraps=homology._chains) as reductions:
        for p in (2, 3):
            verify_theorem(f, FieldSpec(p))
    info = homology._core_chains.cache_info()
    assert {p for _, p in swept} == {2, 3}
    assert info.misses == info.currsize == reductions.call_count == len(swept)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("tier", ["S", "M"])
def test_sweeps_leave_what_they_are_handed_as_it_was(tier, p):
    """The sweep reduces in place and files unit-lead columns as they are, so it must copy what it is handed.

    Every core of the source, target and cylinder is reduced first and
    its generators and boundaries copied; two runs of pposet_barcodes
    then leave each cached reduction equal to its copy, add none, and
    give equal barcodes.  modules.barcode leaves a module's transitions
    as they were.
    """
    field = FieldSpec(p)
    for seed in range(20):
        f = instance(tier, seed)
        towers = [f.source, f.target, persistence_mapping_cylinder(f)]
        clear_library_caches()
        entries = [homology._core_chains(core(C)[0], p) for pp in towers for C in pp.components]
        copies = [copy.deepcopy((c.generators, c.boundaries)) for c in entries]
        misses = homology._core_chains.cache_info().misses
        first = [pposet_barcodes(pp, field, top_degree(pp)) for pp in towers]
        second = [pposet_barcodes(pp, field, top_degree(pp)) for pp in towers]
        assert homology._core_chains.cache_info().misses == misses
        assert [(c.generators, c.boundaries) for c in entries] == copies, (tier, seed)
        assert second == first, (tier, seed)
        M = random_module(random.Random(seed), field, max_dim=3, T=4)
        transitions = copy.deepcopy(M.transitions)
        barcode(M)
        assert M.transitions == transitions, (tier, seed)
