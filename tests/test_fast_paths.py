"""Fast paths of the puncture suite against the slower paths they replace.

- FinitePoset.restrict filters the stored closed relation; the reference
  rebuilds the induced order with new_poset.
- chain_puncture_suite takes each step's complement from the chain,
  computes each member's barcodes once and builds a side only when the
  step's outcome depends on it; the reference runs puncture_step on
  every step, against a complement rebuilt through restrict and with
  both sides built, and the full towers give both sides' barcodes.
- a step whose removed values are all weak points of their slices
  (removes_weak_points, read off the row_sets of the step's trajectory)
  returns with no barcode; the reference is the distance between both
  members' barcodes, 0 in every degree.
- both chains reach the full cylinder, whose barcodes the content-keyed
  memo builds once; the reference gives the shrinking chain its own
  equal copy.
- bottleneck_distance returns 0 for equal barcodes, and searches upward
  from 1 for unequal ones; the reference is the feasibility test run at
  every eps from 0 (reference.searched_distance).
"""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from persposet import verifier
from persposet.errors import HypothesisUnmet
from persposet.homology import FieldSpec, pposet_barcodes
from persposet.modules import INF, Barcode, _matching_feasible, bottleneck_distance
from persposet.posets import new_poset
from persposet.pposets import PersistencePoset, chain_filtrations, removes_weak_points, row_sets, top_degree
from persposet.verifier import chain_puncture_suite
import reference
from reference import barcodes_of, order_complex_tower
from tiers import instance

FIELDS = (2, 3, 5)
SEEDS = {"S": range(120), "M": range(40), "L": range(40)}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_restrict_equals_rebuilt_induced_order(seed, data):
    f = instance("S", seed)
    cylinder = chain_filtrations(f).cylinder
    for pp in (f.source, f.target, cylinder):
        for P in pp.components:
            subset = data.draw(st.sets(st.sampled_from(P.elements))) if P.elements else set()
            pairs = [(a, b) for (a, b) in P.relation if a in subset and b in subset]
            reference = new_poset(sorted(subset), pairs)
            fast = P.restrict(subset)
            assert fast.elements == reference.elements
            assert fast.relation == reference.relation


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_step_complement_is_the_smaller_member(seed):
    chains = chain_filtrations(instance("S", seed))
    for step in chains.target_steps + chains.source_steps:
        complement = reference.complement(step.larger, step.removed)
        assert complement.components == step.smaller.components
        assert list(complement.maps) == list(step.smaller.maps)


def recorded_suite(f, field):
    """The suite's report, and for every step it evaluated its arguments and the side defects it built.

    Each entry is (step arguments, {direction: defect}, outcome), the
    outcome HypothesisUnmet or what _step_violation returned.
    """
    calls = []
    step, side_defect = verifier._step_violation, verifier._side_defect

    def recording_side(pp, sets, direction, *rest):
        value = side_defect(pp, sets, direction, *rest)
        calls[-1][1][direction] = value
        return value

    def recording_step(*args):
        calls.append((args, {}, HypothesisUnmet))
        outcome = step(*args)
        calls[-1] = (*calls[-1][:2], outcome)
        return outcome

    with mock.patch.object(verifier, "_step_violation", recording_step), \
            mock.patch.object(verifier, "_side_defect", recording_side):
        suite = chain_puncture_suite(f, field)
    return suite, calls


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(FIELDS))
def test_suite_equals_per_step_lemma_loop(seed, p):
    """Same outcomes as puncture_step with both sides built, and its exact defect wherever the suite builds a side."""
    f = instance("S", seed)
    field = FieldSpec(p)
    suite, calls = recorded_suite(f, field)
    outcomes, results = reference.puncture_suite_by_lemma(f, field)
    assert (suite.checked, suite.trivial, suite.skipped, suite.violations) == outcomes
    assert len(calls) == len(results)
    k_max = top_degree(chain_filtrations(f).cylinder)
    for ((larger, smaller, removed, trajectory, _, step_k_max), built, outcome), (step, result) in zip(calls, results):
        assert (outcome is HypothesisUnmet) == (result is None)
        assert step_k_max == k_max and trajectory == step.track.trajectory and removed == step.removed
        for direction, defect in built.items():
            assert defect == (INF if result is None else dict(zip(("below", "above"), result))[direction])
        # Each step is handed the step's two sides, whose barcodes are those of their full towers.
        assert larger.components == step.larger.components
        complement = reference.complement(step.larger, step.removed)
        assert smaller.components == complement.components
        assert list(smaller.maps) == list(complement.maps)
        for side in (larger, smaller):
            assert pposet_barcodes(side, field, k_max) == barcodes_of(order_complex_tower(side), field, k_max)


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("tier", SEEDS)
def test_a_step_removing_weak_points_keeps_every_barcode(tier, p):
    """Wherever removes_weak_points holds, both members' barcodes are at distance 0 up to the cylinder's top degree.

    The sample is sharp: some step that removes a point that is not weak
    moves a barcode, and some weak step has a bar in degree 1 or more, so
    a row check that always holds fails here.
    """
    field = FieldSpec(p)
    moved = weak_with_higher_bars = 0
    for seed in SEEDS[tier]:
        chains = chain_filtrations(instance(tier, seed))
        k_max = top_degree(chains.cylinder)
        for step in chains.target_steps + chains.source_steps:
            codes = pposet_barcodes(step.larger, field, k_max)
            distances = verifier._distances(codes, pposet_barcodes(step.smaller, field, k_max))
            assert sorted(distances) == list(range(k_max + 1))
            if removes_weak_points(step.larger, step.removed, row_sets(step.larger, step.track.trajectory)):
                assert all(d == 0 for d in distances.values()), (seed, step.track.label, distances)
                weak_with_higher_bars += any(codes[1:])
            else:
                moved += any(d > 0 for d in distances.values())
    assert moved > 0 and weak_with_higher_bars > 0


def unshared_chains(f):
    """chain_filtrations(f) with the shrinking chain's first member an equal but distinct object."""
    chains = chain_filtrations(f)
    if chains.source_steps:
        full = chains.source_steps[0].larger
        copy = PersistencePoset(full.components, full.maps)
        chains.source_steps[0] = replace(chains.source_steps[0], larger=copy)
    return chains


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(FIELDS))
def test_chains_share_the_full_cylinder(seed, p):
    f = instance("S", seed)
    field = FieldSpec(p)
    shared = chain_puncture_suite(f, field)
    with mock.patch.object(verifier, "chain_filtrations", unshared_chains):
        reference = chain_puncture_suite(f, field)
    assert vars(shared) == vars(reference)


def test_suite_steps_have_nonzero_distances():
    """Comparing distances is only sharp if some step moves a barcode; the suite builds that step's sides."""
    f, field = instance("S", 1), FieldSpec(2)
    _, results = reference.puncture_suite_by_lemma(f, field)
    _, calls = recorded_suite(f, field)
    moved = [i for i, (_, r) in enumerate(results) if r is not None and any(d > 0 for d in r[2].values())]
    assert moved
    assert all(calls[i][1] for i in moved)


bars = st.lists(
    st.tuples(st.integers(0, 8), st.one_of(st.integers(1, 8), st.just(INF))).map(
        lambda bd: (bd[0], bd[1] if bd[1] == INF else bd[0] + bd[1])
    ),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(bars)
def test_equal_barcodes_are_at_distance_zero(raw):
    B = Barcode.of(raw)
    assert bottleneck_distance(B, Barcode.of(list(reversed(raw)))) == 0
    assert _matching_feasible(B.bars, B.bars, 0)


@settings(max_examples=300, deadline=None)
@given(bars, bars)
def test_unequal_barcodes_take_the_search_path(raw1, raw2):
    B1, B2 = Barcode.of(raw1), Barcode.of(raw2)
    assume(B1 != B2)
    d = bottleneck_distance(B1, B2)
    assert d > 0
    assert d == reference.searched_distance(B1, B2)


# Births up to 30 and lengths up to 30, so distances of 5 and more occur:
# the search then doubles past 4 and bisects the last gap.
wide_bars = st.lists(
    st.tuples(st.integers(0, 30), st.one_of(st.integers(1, 30), st.just(INF))).map(
        lambda bd: (bd[0], bd[1] if bd[1] == INF else bd[0] + bd[1])
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(wide_bars, wide_bars)
@example([(0, 10)], [(5, 15)])  # 5: tests at 1, 2, 4 fail, 8 holds, then 6 and 5
@example([(0, INF), (3, 20)], [(7, INF)])  # 9: the essential bars cost 7, skipping (3, 20) costs 9
@example([(0, INF), (2, INF)], [(1, INF), (30, INF)])  # 28: no doubling holds below 30, the largest endpoint
def test_upward_search_equals_linear_scan(raw1, raw2):
    """bottleneck_distance searches upward from 1 by doubling and bisects; the reference scans from 0."""
    B1, B2 = Barcode.of(raw1), Barcode.of(raw2)
    assert bottleneck_distance(B1, B2) == reference.searched_distance(B1, B2)
