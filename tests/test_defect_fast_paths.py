"""Fast paths of the defects against the slower paths they replace.

- point_comparison_defect is a closed form; the reference is the
  bottleneck distance to the barcode of a point, with its matching search.
- The verifier reads an INF defect off a fiber or a comparison set whose
  last slice is empty or disconnected, and builds nothing for it; the
  references build every subposet and its barcodes.
- FinitePoset.restrict shares the empty poset and the poset itself; the
  reference filters every subset into a new poset.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from persposet import posets
from persposet.documents import GeneratorLimits, parse_instance, random_instance
from persposet.errors import HypothesisUnmet, NotASubposet, UnknownElement
from persposet.homology import FieldSpec, pposet_barcodes
from persposet.modules import INF, Barcode, bottleneck_distance, point_comparison_defect
from persposet.posets import is_connected
from persposet.pposets import (
    chain_filtrations,
    comparison_ends_connected,
    comparison_set,
    fiber,
    fiber_ends_connected,
    top_degree,
    tracks,
)
from persposet.verifier import _puncture_step, fiber_defects, verify_puncture_lemma

TIERS = {
    "S": GeneratorLimits(t_max=5, max_slice=6, max_y_tracks=4),
    "M": GeneratorLimits(t_max=8, max_slice=10, max_y_tracks=6),
}
SEEDS = {"S": range(12), "M": range(6)}
FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(5)]
POINT = Barcode.of([(0, INF)])


def instance(tier, seed):
    return parse_instance(random_instance(seed, TIERS[tier])).map


CASES = [(tier, field) for tier in TIERS for field in FIELDS]


def case_id(case):
    tier, field = case
    return f"{tier}-F{field.p}"


@st.composite
def barcodes(draw):
    """Barcodes with zero, one or several essential bars, births from 0."""
    finite = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(1, 9)), max_size=6))
    essential = draw(st.lists(st.integers(0, 9), max_size=3))
    return Barcode.of([(b, b + length) for b, length in finite] + [(b, INF) for b in essential])


@given(barcodes())
@settings(max_examples=400, deadline=None)
def test_point_comparison_defect_is_the_bottleneck_distance_to_a_point(code):
    assert point_comparison_defect(code) == bottleneck_distance(code, POINT)


@pytest.mark.parametrize(
    "bars, expected",
    [
        ([], INF),
        ([(0, 3)], INF),
        ([(0, INF)], 0),
        ([(4, INF)], 4),
        ([(1, INF), (0, 3)], 2),
        ([(1, INF), (0, 7)], 4),
        ([(0, INF), (2, INF)], INF),
        ([(0, INF), (0, INF), (1, 2)], INF),
    ],
)
def test_point_comparison_defect_by_hand(bars, expected):
    code = Barcode.of(bars)
    assert point_comparison_defect(code) == expected == bottleneck_distance(code, POINT)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_fiber_rule_equals_the_built_defects(case):
    """A fiber's last slice is connected exactly when its degree-0 barcode has one essential bar.

    fiber_defects, which builds no fiber whose last slice is not, equals
    the defects of every fiber built.
    """
    tier, field = case
    for seed in SEEDS[tier]:
        f = instance(tier, seed)
        k_max = top_degree(f.source)
        for y in tracks(f.target):
            codes = pposet_barcodes(fiber(f, y), field, k_max)
            assert fiber_ends_connected(f, y) == (codes[0].essential_count() == 1)
        assert fiber_defects(f, field) == reference.fiber_defects(f, field, k_max)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_comparison_rule_equals_the_built_defects(case):
    """Every comparison set of every step, in the step's larger and smaller member.

    Where the set is a subposet, its last slice is connected exactly when
    its degree-0 barcode has one essential bar; where its last slice is
    not, the built defect is INF, closed or not.  In the smaller member a
    removed value raises UnknownElement from both.  Every step's report
    equals the one built in full.
    """
    tier, field = case
    for seed in SEEDS[tier]:
        chains = chain_filtrations(instance(tier, seed))
        k_max = top_degree(chains.cylinder)
        for step in chains.target_steps + chains.source_steps:
            check_step(step, field, k_max)


def check_step(step, field, k_max):
    for pp in (step.larger, step.smaller):
        for direction in ("below", "above"):
            try:
                connected = comparison_ends_connected(pp, step.trajectory, direction)
            except UnknownElement as exc:
                with pytest.raises(UnknownElement, match=str(exc)):
                    comparison_set(pp, step.trajectory, direction)
                continue
            try:
                codes = pposet_barcodes(comparison_set(pp, step.trajectory, direction), field, k_max)
                assert connected == (codes[0].essential_count() == 1)
            except NotASubposet:
                pass
            if not connected:
                assert reference.comparison_defect(pp, step.trajectory, direction, field, k_max) == INF
    assert outcome(_puncture_step, step, field, k_max) == outcome(reference.puncture_step, step, field, k_max)


def outcome(run, step, field, k_max):
    """The defects and distances of one step, or HypothesisUnmet."""
    try:
        report = run(step.larger, step.smaller, step.trajectory, field, k_max)
    except HypothesisUnmet:
        return HypothesisUnmet
    if isinstance(report, tuple):
        return report
    return report.below_defect, report.above_defect, report.distances


def truncated_steps():
    """Steps whose removed piece stops at a merge, so the removal ends in None."""
    found = []
    for seed in SEEDS["S"]:
        chains = chain_filtrations(instance("S", seed))
        found += [
            step for step in chains.target_steps + chains.source_steps
            if step.removed[-1] is None and any(v is not None for v in step.removed)
        ]
    return found


def test_a_removal_that_ends_in_none():
    """With the removal as its own trajectory, both last slices are empty, so the hypothesis fails.

    With the full trajectory, the lemma equals the step built in full.
    """
    steps = truncated_steps()
    assert steps
    for step in steps:
        k_max = top_degree(step.larger)
        for direction in ("below", "above"):
            assert not comparison_ends_connected(step.larger, step.removed, direction)
        with pytest.raises(HypothesisUnmet):
            verify_puncture_lemma(step.larger, step.removed)
        with pytest.raises(HypothesisUnmet):
            reference.puncture_step(step.larger, step.smaller, step.removed, FieldSpec(2), k_max)
        try:
            report = verify_puncture_lemma(step.larger, step.removed, trajectory=step.trajectory)
        except HypothesisUnmet:
            report = HypothesisUnmet
        expected = outcome(reference.puncture_step, step, FieldSpec(2), k_max)
        if report is HypothesisUnmet:
            assert expected is HypothesisUnmet
        else:
            assert (report.below_defect, report.above_defect, report.distances) == expected


def test_an_unknown_trajectory_value_raises_before_the_rule():
    """The value is unknown at slice 0 and the last slice is empty: UnknownElement, not HypothesisUnmet."""
    step = truncated_steps()[0]
    trajectory = ("nowhere", *[None] * step.larger.T)
    with pytest.raises(UnknownElement, match="nowhere"):
        verify_puncture_lemma(step.larger, step.removed, trajectory=trajectory)


@pytest.mark.parametrize("tier", TIERS)
def test_restrict_shortcuts_equal_the_filtered_build(tier):
    """The empty subset gives the shared empty poset, every element the poset itself; both equal the filtered build.

    is_connected agrees with the reference search on the same subsets.
    """

    @given(st.integers(0, 10_000), st.data())
    @settings(max_examples=15, deadline=None)
    def check(seed, data):
        f = instance(tier, seed)
        for pp in (f.source, f.target, *chain_filtrations(f).target_chain):
            for P in pp.components:
                part = data.draw(st.sets(st.sampled_from(P.elements))) if P.elements else set()
                for subset in (set(), set(P.elements), part):
                    fast = P.restrict(subset)
                    assert fast == reference.restrict_slice(P, subset)
                    assert is_connected(P, subset) == reference.is_connected(P, subset)
                assert P.restrict([]) is posets._EMPTY
                assert P.restrict(reversed(P.elements)) is P

    check()


def test_restrict_checks_unknown_elements_before_the_whole_poset_shortcut():
    P = posets.new_poset("ab", [("a", "b")])
    with pytest.raises(UnknownElement):
        P.restrict({"a", "z"})
