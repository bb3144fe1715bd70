"""Fast paths of the poset layer against the slower paths they replace.

- linear_extension is Kahn's algorithm with a heap; the reference
  re-scans every remaining element at each step.
- longest_chain is a DP over the pairs sorted by the down-set size of
  their lower element; the reference walks a linear extension.
- core returns an antichain with the identity, and finds an extreme
  element by the size of its inner set in one loop; the reference runs
  the beat-point loop on every poset and finds that element through max.
- the slices of the cylinder and of the ordinal sum are built directly,
  as one tagged sum; the references close their generating pairs again
  with new_poset.  Their structure maps are the tagged unions of the
  factors' maps.
- comparison sets are read off the closed relation, and fibers and weak
  up-sets off posets.weak_sets tables; the references test each element
  with a predicate.  A comparison set is built off its row's row_sets
  once its status shows it closed; the reference checks closure itself.
  Each fiber after the first built is built from the one before it and
  shares its slices where the two tracks agree.
- each chain's first member restricts every slice of the cylinder, and
  the members after it are built from the member before them,
  restricting only the slices a step changes; a built comparison set
  restricts every slice through the same sub-tower routine.
- fiber_defects builds one weak down-set table per target slice and
  tests each track's last fiber slice once, in one call of
  pposets.fibers, and builds only the fibers whose last slice is
  connected, and the puncture suite builds only the comparison sets whose
  exact defect decides a step's outcome; the counts come from the
  reference connectivity and cone searches and the full towers'
  distances.
"""

import sys
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from persposet import posets, pposets, verifier
from persposet.errors import UnknownElement
from persposet.homology import FieldSpec
from persposet.modules import bottleneck_distance
from persposet.posets import FinitePoset, core, linear_extension, longest_chain, new_poset
from persposet.pposets import (
    CYLINDER_SOURCE_TAG,
    CYLINDER_TARGET_TAG,
    _closed,
    _sub_tower,
    chain_filtrations,
    fibers,
    ordinal_sum,
    persistence_mapping_cylinder,
    row_sets,
    top_degree,
    tracks,
    up_sets_of_image_tracks,
    validate,
)
from persposet.verifier import chain_puncture_suite, fiber_defects
from tiers import instance

TIERS = ("S", "M")
ALL_TIERS = ("S", "M", "L")


def pposets_of(f):
    """The source, the target, the cylinder and every member of both chains."""
    chains = chain_filtrations(f)
    target_chain, source_chain = reference.chain_members(chains)
    return [f.source, f.target, chains.cylinder, *target_chain, *source_chain]


def shape(pp):
    return [(c.elements, c.relation) for c in pp.components], list(pp.maps)


def outcome(build, *args):
    """The shape of what build returns, or the type and message of what it raises."""
    try:
        return shape(build(*args))
    except (reference.NotASubposet, UnknownElement) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("tier", TIERS)
def test_slice_routines_equal_their_references(tier):
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def check(seed):
        f = instance(tier, seed)
        for pp in pposets_of(f):
            for P in pp.components:
                assert linear_extension(P) == reference.linear_extension(P)
                assert longest_chain(P) == reference.longest_chain(P)
                (C, r), (C_ref, r_ref) = core(P), reference.beat_point_core(P)
                assert (C, r) == (C_ref, r_ref)
                assert list(r) == list(P.elements) and set(r.values()) == set(C.elements)
        slices = zip(persistence_mapping_cylinder(f).components, f.source.components, f.target.components, f.slices)
        for fast, X, Y, g in slices:
            slow = reference.mapping_cylinder(X, Y, g)
            assert (fast.elements, fast.relation) == (slow.elements, slow.relation)

    check()


@pytest.mark.parametrize("tier", TIERS)
def test_ordinal_sum_slices_equal_new_poset(tier):
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def check(seed):
        f = instance(tier, seed)
        cylinder = persistence_mapping_cylinder(f)
        for A, B in [(f.source, f.target), (f.target, f.source), (cylinder, f.source)]:
            for P, Q, joined in zip(A.components, B.components, ordinal_sum(A, B).components):
                slow = reference.ordinal_sum_slice(P, Q)
                assert (joined.elements, joined.relation) == (slow.elements, slow.relation)

    check()


@pytest.mark.parametrize("tier", TIERS)
def test_tagged_sum_maps_are_tagged_unions(tier):
    """Each structure map of the cylinder and of an ordinal sum is the union of the factors' maps, tagged."""
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def check(seed):
        f = instance(tier, seed)
        cylinder = persistence_mapping_cylinder(f)
        sums = [(cylinder, f.source, f.target, CYLINDER_SOURCE_TAG, CYLINDER_TARGET_TAG)] + [
            (ordinal_sum(A, B), A, B, "A:", "B:") for A, B in [(f.source, f.target), (cylinder, f.source)]
        ]
        for total, A, B, ta, tb in sums:
            assert len(total.maps) == len(A.maps) == len(B.maps) == f.T
            for i, (h, g, k) in enumerate(zip(total.maps, A.maps, B.maps)):
                union = {ta + x: ta + y for x, y in g.items()}
                union.update((tb + x, tb + y) for x, y in k.items())
                assert h == union
                assert set(h) == set(total.components[i].elements)
                assert set(h.values()) <= set(total.components[i + 1].elements)

    check()


@st.composite
def drawn_posets(draw, most=8):
    """A poset on up to most elements: random forward pairs along a drawn order, closed by new_poset."""
    names = draw(st.lists(st.sampled_from("abcdefghij"), max_size=most, unique=True))
    pairs = [
        (a, b) for i, a in enumerate(names) for b in names[i + 1:] if draw(st.booleans())
    ]
    return new_poset(names, pairs)


@given(drawn_posets())
@settings(max_examples=300, deadline=None)
def test_core_and_longest_chain_equal_their_references_on_drawn_posets(P):
    """The loop-based _extreme gives the core and retraction of the max-based one; the chain DP the walk's length."""
    reference.clear_library_caches()
    assert core(P) == reference.beat_point_core(P)
    assert longest_chain(P) == reference.longest_chain(P)


@pytest.mark.parametrize("tier", ALL_TIERS)
def test_core_equals_max_based_loop_on_every_tier_slice(tier):
    """Every slice of the source, the target and the built fibers of 20 instances, as verify meets them."""
    for seed in range(20):
        f = instance(tier, seed)
        for pp in [f.source, f.target, *(fib for fib in fibers(f, tracks(f.target)) if fib is not None)]:
            for P in pp.components:
                assert core(P) == reference.beat_point_core(P)
                assert longest_chain(P) == reference.longest_chain(P)


@pytest.mark.parametrize("tier", ALL_TIERS)
def test_fibers_equal_reference_and_share_unchanged_slices(tier):
    """Each fiber is None exactly where the reference fiber's last slice is disconnected, and otherwise equals it.

    It equals reference.fiber slice by slice and map by map.  A fiber
    after the first built holds the same slice objects as the fiber built
    before it wherever the two tracks take the same value, and the same
    structure map objects between two such slices.  (Elsewhere they may
    still be one object: restricting to every element or to none gives
    the whole slice or the shared empty poset.)  Its defects, over
    fields 2 and 3, are those of every fiber built by the reference.
    """
    shared = skipped = 0
    for seed in range(20):
        f = instance(tier, seed)
        ys = tracks(f.target)
        built = fibers(f, ys)
        assert len(built) == len(ys)
        for y, fib in zip(ys, built):
            expected = reference.fiber(f, y)
            connected = reference.is_connected(f.source.components[-1], expected.components[-1].elements)
            assert (fib is not None) == connected
            if fib is None:
                skipped += 1
            else:
                assert shape(fib) == shape(expected)
        pairs = [(y, fib) for y, fib in zip(ys, built) if fib is not None]
        for (x, before), (y, fib) in zip(pairs, pairs[1:]):
            same = [u == v for u, v in zip(x.trajectory, y.trajectory)]
            for i, kept in enumerate(same):
                if kept:
                    assert fib.components[i] is before.components[i]
                    shared += 1
            for i in range(f.T):
                if same[i] and same[i + 1]:
                    assert fib.maps[i] is before.maps[i]
        k_max = top_degree(f.source)
        for field in (FieldSpec(2), FieldSpec(3)):
            assert fiber_defects(f, field) == reference.fiber_defects(f, field, k_max)
    assert shared > 0 and skipped > 0


def test_core_of_an_antichain_is_the_loop_result():
    """Includes the empty poset, which the tier instances rarely have as a slice.

    longest_chain's DP gives an antichain the reference's value: 1, or 0
    when empty.
    """
    for elements in ["", "a", "abc", ["x:1", "x:10", "y"]]:
        P = new_poset(elements, [])
        assert longest_chain(P) == reference.longest_chain(P) == min(len(P), 1)
        C, r = core(P)
        C_ref, r_ref = reference.beat_point_core(P)
        assert (C, r) == (C_ref, r_ref)
        assert list(r) == list(P.elements) and set(r.values()) == set(C.elements)


@pytest.mark.parametrize("tier", TIERS)
def test_row_subposets_equal_their_references(tier):
    """Comparison sets, fibers and up-sets equal the predicate-built references, failures included.

    Each step's comparison sets are taken in its larger member, where an
    element that merges into the trajectory leaves the row's sets not
    closed and the reference raises NotASubposet, and in its smaller one,
    where a removed value raises UnknownElement from both.  Closed sets
    are built as the puncture step builds a side.
    """

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def check(seed):
        f = instance(tier, seed)
        chains = chain_filtrations(f)
        rows = [(pp, t.trajectory) for pp in (f.source, f.target) for t in tracks(pp)]
        for step in chains.target_steps + chains.source_steps:
            rows += [(step.larger, step.track.trajectory), (step.smaller, step.track.trajectory)]
        for pp, row in rows:
            for direction in ("below", "above"):
                expected = outcome(reference.comparison_set, pp, row, direction)
                try:
                    sets = row_sets(pp, row)[direction]
                except UnknownElement as exc:
                    assert expected == (UnknownElement, str(exc))
                    continue
                if _closed(pp, sets):
                    assert shape(_sub_tower(pp, pp, sets, range(pp.T + 1))) == expected
                else:
                    assert expected[0] is reference.NotASubposet
        for y, fib in zip(tracks(f.target), fibers(f, tracks(f.target))):
            if fib is not None:
                assert shape(fib) == shape(reference.fiber(f, y))
        rows = [[None if v is None else f.slices[i][v] for i, v in enumerate(tr.trajectory)] for tr in tracks(f.source)]
        for row, upset in zip(rows, up_sets_of_image_tracks(f.target, rows)):
            assert shape(upset) == shape(reference.up_set_of_image_track(f.target, row))

    check()


@pytest.mark.parametrize("tier", TIERS)
def test_chain_members_pass_validate(tier):
    """Chain members after the first skip restrict and validate; each one would pass validate."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def check(seed):
        target_chain, source_chain = reference.chain_members(chain_filtrations(instance(tier, seed)))
        for member in target_chain + source_chain:
            validate(member)

    check()


def last_slice(pp, row, direction):
    """The last slice of a row's comparison set, by the reference predicate."""
    P, v = pp.components[-1], row[-1]
    if v is None:
        return P, []
    return P, [a for a in P.elements if a != v and (P.leq(a, v) if direction == "below" else P.leq(v, a))]


def needs_exact_defect(step, field, k_max):
    """The sides of a step whose exact defect decides its outcome, by the reference helpers.

    A side is open when its row is closed and its last slice connected,
    and finite when it is open and its last slice a cone (or k_max is 0).
    An open side is needed when no side is finite, or when a distance is
    positive.
    """
    open_sides, finite = [], False
    for direction in ("below", "above"):
        try:
            reference.comparison_set(step.larger, step.track.trajectory, direction)
        except reference.NotASubposet:
            continue
        P, ends = last_slice(step.larger, step.track.trajectory, direction)
        if reference.is_connected(P, ends):
            open_sides.append(direction)
            finite = finite or k_max <= 0 or reference.is_cone(P, ends)
    codes = [
        reference.barcodes_of(reference.order_complex_tower(pp), field, k_max) for pp in (step.larger, step.smaller)
    ]
    moved = any(bottleneck_distance(a, b) > 0 for a, b in zip(*codes))
    return open_sides if moved or not finite else []


def test_puncture_suite_traffic():
    """A cold puncture suite builds no poset through new_poset and restricts only what changed.

    _side_defect builds only the comparison sets whose exact defect
    decides a step's outcome, off the row's sets, restricting every
    slice.  _grow builds each chain's first member as the sub-tower of
    the cylinder on one copy, restricting every slice, and every later
    member restricts only the slices its step adds to, sharing the other
    components with the member before it.  All restrict through the one
    sub-tower routine.
    """
    f = instance("S", 3)
    chains = chain_filtrations(f)
    target_chain, source_chain = reference.chain_members(chains)
    firsts = {id(target_chain[0]), id(source_chain[-1])}
    seen, changed = set(firsts), 0
    build_order = chains.target_steps + chains.source_steps[::-1]
    for step in build_order:
        if id(step.larger) in seen:
            continue
        seen.add(id(step.larger))
        kept = [i for i, v in enumerate(step.removed) if v is None]
        changed += len(step.removed) - len(kept)
        assert all(step.larger.components[i] is step.smaller.components[i] for i in kept)
    assert changed > 0

    reference.clear_library_caches()
    slice_callers = []
    slice_restrict = FinitePoset.restrict

    def spy_slice(self, subset):
        slice_callers.append((sys._getframe(2).f_code.co_name, sys._getframe(1).f_code.co_name))
        return slice_restrict(self, subset)

    with mock.patch.object(posets, "new_poset", wraps=posets.new_poset) as spy_new, \
            mock.patch.object(FinitePoset, "restrict", spy_slice):
        report = chain_puncture_suite(f, FieldSpec(2))
    assert len(build_order) == report.checked + report.skipped > 0
    k_max = top_degree(chains.cylinder)
    needed = sum(len(needs_exact_defect(step, FieldSpec(2), k_max)) for step in build_order)
    connected = sum(
        reference.is_connected(*last_slice(step.larger, step.track.trajectory, direction))
        for step in build_order
        for direction in ("below", "above")
    )
    assert 0 < needed < connected
    assert spy_new.call_count == 0
    by_caller = Counter(slice_callers)
    assert by_caller[("_side_defect", "_sub_tower")] == needed * (f.T + 1)
    assert by_caller[("_grow", "_sub_tower")] == len(firsts) * (f.T + 1) + changed
    assert sum(by_caller.values()) == (needed + len(firsts)) * (f.T + 1) + changed


def test_fiber_defects_traffic():
    """fiber_defects builds, and asks barcodes for, exactly the fibers whose last slice is connected.

    It calls pposets.fibers once, on every track in track order, which
    builds one weak down-set table per target slice, tests each track's
    last fiber slice once for connectivity, and builds every connected
    fiber with one _sub_tower.
    """
    f = instance("M", 6)
    ys = tracks(f.target)
    connected = [
        y for y in ys if reference.is_connected(f.source.components[-1], reference.fiber(f, y).components[-1].elements)
    ]
    assert 0 < len(connected) < len(ys)
    with mock.patch.object(verifier, "fibers", wraps=verifier.fibers) as spy_fibers, \
            mock.patch.object(pposets, "weak_sets", wraps=pposets.weak_sets) as spy_tables, \
            mock.patch.object(pposets, "is_connected", wraps=pposets.is_connected) as spy_connected, \
            mock.patch.object(pposets, "_sub_tower", wraps=pposets._sub_tower) as spy_sub_tower, \
            mock.patch.object(verifier, "pposet_barcodes", wraps=verifier.pposet_barcodes) as spy_barcodes:
        fiber_defects(f, FieldSpec(2))
    assert spy_fibers.call_count == 1
    assert spy_fibers.call_args.args[1] == ys
    assert [c.args for c in spy_tables.call_args_list] == [(Q, "below") for Q in f.target.components]
    assert spy_connected.call_count == len(ys)
    assert all(c.args[0] is f.source.components[f.T] for c in spy_connected.call_args_list)
    assert spy_sub_tower.call_count == spy_barcodes.call_count == len(connected)
