"""Fast paths of the defects against the slower paths they replace.

- point_comparison_defect is a closed form; the reference is the
  bottleneck distance to the barcode of a point, with its matching search.
- The verifier builds every fiber, each from the one before it; the
  reference builds each fiber on its own (reference.fiber_defects).
- The verifier reads a comparison set's status off its row's sets
  (row_sets): INF when the row is not closed or its last slice is empty
  or disconnected, finite when the row is closed and its last slice a
  cone.  The references build every subposet and its barcodes: every
  step's outcome equals the step built in full (reference.puncture_step),
  and the suite's outcomes equal a loop of it over its steps.
- FinitePoset.restrict shares the empty poset and the poset itself; the
  reference filters every subset into a new poset.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from persposet import posets, verifier
from persposet.errors import HypothesisUnmet, InternalError, UnknownElement
from persposet.homology import FieldSpec
from persposet.modules import INF, Barcode, bottleneck_distance, point_comparison_defect
from persposet.posets import is_connected
from persposet.posets import new_poset
from persposet.pposets import PersistencePoset, chain_filtrations, comparison_status, row_sets, top_degree
from persposet.verifier import chain_puncture_suite, fiber_defects
from tiers import instance

TIERS = ("S", "M")
SEEDS = {"S": range(12), "M": range(6), "L": range(4)}
FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(5)]
POINT = Barcode.of([(0, INF)])


CASES = [(tier, field) for tier in TIERS for field in FIELDS]


def status(pp, row, direction):
    """The status of a row's comparison set in direction, read off its row_sets."""
    return comparison_status(pp, row_sets(pp, row)[direction])


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


@pytest.mark.parametrize("case", [(tier, field) for tier in ("S", "M", "L") for field in FIELDS], ids=case_id)
def test_fiber_defects_equal_the_reference(case):
    """fiber_defects, which builds each fiber from the one before it, equals the defects of every fiber built alone."""
    tier, field = case
    for seed in SEEDS[tier]:
        f = instance(tier, seed)
        assert fiber_defects(f, field) == reference.fiber_defects(f, field, top_degree(f.source))


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_comparison_rule_equals_the_built_defects(case):
    """Every comparison set of every step, in the step's larger and smaller member, at the default k_max and 0.

    Where the status is finite the built defect is finite, and where it
    is infinite the built defect is INF, closed or not.  In the smaller
    member a removed value raises UnknownElement from both.  Every step's
    outcome equals the step built in full, and the suite's outcomes equal
    the per-step reference loop.
    """
    tier, field = case
    seen = set()
    for seed in SEEDS[tier]:
        f = instance(tier, seed)
        chains = chain_filtrations(f)
        for k_max in (top_degree(chains.cylinder), 0):
            for step in chains.target_steps + chains.source_steps:
                seen |= check_step(step, field, k_max)
            suite = chain_puncture_suite(f, field, k_max)
            outcomes, _ = reference.puncture_suite_by_lemma(f, field, k_max)
            assert (suite.checked, suite.trivial, suite.skipped, suite.violations) == outcomes
    # Undecided sides are rare at these tiers; the crown case below has one.
    assert {"infinite", "finite"} <= seen


def check_step(step, field, k_max):
    """Check both sides of a step in both members, and the step's outcome; the statuses seen."""
    seen = set()
    for pp in (step.larger, step.smaller):
        for direction in ("below", "above"):
            try:
                read = status(pp, step.track.trajectory, direction)
            except UnknownElement as exc:
                with pytest.raises(UnknownElement, match=str(exc)):
                    reference.comparison_set(pp, step.track.trajectory, direction)
                continue
            seen.add(read)
            defect = reference.comparison_defect(pp, step.track.trajectory, direction, field, k_max)
            if read == "finite":
                assert defect != INF
            elif read == "infinite":
                assert defect == INF
    check_step_against_built(step, field, k_max)
    return seen


def check_step_against_built(step, field, k_max):
    """_step_violation's outcome is the one the step built in full decides, and each side it builds has the exact defect."""
    built = {}
    side_defect = verifier._side_defect

    def recording_side(pp, sets, direction, *rest):
        built[direction] = side_defect(pp, sets, direction, *rest)
        return built[direction]

    with mock.patch.object(verifier, "_side_defect", recording_side):
        try:
            outcome = verifier._step_violation(
                step.larger, step.smaller, step.removed, step.track.trajectory, field, k_max
            )
        except HypothesisUnmet:
            outcome = HypothesisUnmet
    full = built_outcome(step, field, k_max)
    if full is HypothesisUnmet:
        assert outcome is HypothesisUnmet
        assert all(defect == INF for defect in built.values())
        return
    below, above, distances = full
    bound = 4 * min(below, above)
    assert outcome == (None if all(d <= bound for d in distances.values())
                       else f"distances {distances} exceed bound {bound}")
    for direction, defect in built.items():
        assert defect == {"below": below, "above": above}[direction]


def built_outcome(step, field, k_max, trajectory=None):
    """The step with every subposet built: its defects and distances, or HypothesisUnmet."""
    trajectory = step.track.trajectory if trajectory is None else trajectory
    try:
        return reference.puncture_step(step.larger, step.smaller, trajectory, field, k_max)
    except HypothesisUnmet:
        return HypothesisUnmet


def truncated_steps():
    """Steps whose removed piece stops at a merge, so the removal ends in None."""
    found = []
    for seed in SEEDS["S"]:
        chains = chain_filtrations(instance("S", seed))
        found += [step for step in chains.target_steps + chains.source_steps if step.removed[-1] is None]
    return found


def test_a_removal_that_ends_in_none():
    """With the removal as its own trajectory, both last slices are empty, so the hypothesis fails.

    With the full trajectory, the step's outcome equals the step built in full.
    """
    steps = truncated_steps()
    assert steps
    for step in steps:
        k_max = top_degree(step.larger)
        for direction in ("below", "above"):
            assert status(step.larger, step.removed, direction) == "infinite"
        with pytest.raises(HypothesisUnmet):
            verifier._step_violation(step.larger, step.smaller, step.removed, step.removed, FieldSpec(2), k_max)
        assert built_outcome(step, FieldSpec(2), k_max, step.removed) is HypothesisUnmet
        check_step_against_built(step, FieldSpec(2), k_max)


def test_an_unknown_trajectory_value_raises_before_the_rule():
    """The value is unknown at slice 0 and the last slice is empty: UnknownElement, not HypothesisUnmet."""
    step = truncated_steps()[0]
    trajectory = ("nowhere", *[None] * step.larger.T)
    k_max = top_degree(step.larger)
    with pytest.raises(UnknownElement, match="nowhere"):
        verifier._step_violation(step.larger, step.smaller, step.removed, trajectory, FieldSpec(2), k_max)
    with pytest.raises(UnknownElement, match="nowhere"):
        built_outcome(step, FieldSpec(2), k_max, trajectory)


def test_a_row_of_the_wrong_length_has_no_comparison_set():
    """A row one value short or one value long is a library fault: InternalError, before any status is read.

    Every row is a track's trajectory, one value per slice; the reference
    raises NotASubposet for such a row.
    """
    chains = chain_filtrations(instance("S", 1))
    steps = chains.target_steps + chains.source_steps
    assert steps
    for step in steps:
        row = step.track.trajectory
        for wrong in (row[:-1], (*row, row[-1])):
            for direction in ("below", "above"):
                with pytest.raises(reference.NotASubposet, match=f"expected {step.larger.T + 1} subsets"):
                    reference.comparison_set(step.larger, wrong, direction)
            with pytest.raises(InternalError, match=f"a row of {len(wrong)} values for {step.larger.T + 1} slices"):
                row_sets(step.larger, wrong)
            k_max = top_degree(step.larger)
            with pytest.raises(InternalError):
                verifier._step_violation(step.larger, step.smaller, step.removed, wrong, FieldSpec(2), k_max)


def pposet(components, maps):
    comps = [new_poset(elements, pairs) for elements, pairs in components]
    return PersistencePoset(tuple(comps), tuple(dict(m) for m in maps))


CROWN = ("abcdv", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "v"), ("d", "v")])


def test_a_crown_last_slice_is_finite_only_in_degree_zero():
    """Below v lies a crown, a circle: connected but no cone, so undecided; built, it is 0 at k_max 0 and INF at 1."""
    pp = pposet([CROWN], [])
    assert status(pp, ("v",), "below") == "undecided"
    assert status(pp, ("v",), "above") == "infinite"
    sets = row_sets(pp, ("v",))
    for k_max, expected in ((0, 0), (1, INF)):
        assert verifier._side_defect(pp, sets, "below", FieldSpec(2), k_max) == expected
        assert reference.comparison_defect(pp, ("v",), "below", FieldSpec(2), k_max) == expected
    smaller = reference.complement(pp, ("v",))
    assert reference.puncture_step(pp, smaller, ("v",), FieldSpec(2), 0) == (0, INF, {0: 0})
    assert verifier._step_violation(pp, smaller, ("v",), ("v",), FieldSpec(2), 0) is None
    with pytest.raises(HypothesisUnmet):
        reference.puncture_step(pp, smaller, ("v",), FieldSpec(2), 1)
    with pytest.raises(HypothesisUnmet):
        verifier._step_violation(pp, smaller, ("v",), ("v",), FieldSpec(2), 1)


def test_a_cone_row_that_is_not_closed_is_infinite():
    """Below w lies the single point u, a cone, but x below v maps to w itself, so the row is not closed."""
    pp = pposet([("vx", [("x", "v")]), ("uw", [("u", "w")])], [{"v": "w", "x": "w"}])
    assert status(pp, ("v", "w"), "below") == "infinite"
    with pytest.raises(reference.NotASubposet):
        reference.comparison_set(pp, ("v", "w"), "below")
    assert reference.comparison_defect(pp, ("v", "w"), "below", FieldSpec(2), 1) == INF


def test_a_step_with_a_positive_distance_is_built():
    """Removing v at index 0 splits a from c until m joins them at 1: distance 1 against eps 1 below v."""
    a_c_v = ("acv", [("a", "v"), ("c", "v")])
    a_c_m_v = ("acmv", [("a", "m"), ("c", "m"), ("m", "v"), ("a", "v"), ("c", "v")])
    pp = pposet([a_c_v, a_c_m_v], [{"a": "a", "c": "c", "v": "v"}])
    removal, trajectory = ("v", None), ("v", "v")
    assert status(pp, trajectory, "below") == "finite"
    smaller = reference.complement(pp, removal)
    assert reference.puncture_step(pp, smaller, trajectory, FieldSpec(2), 1) == (1, INF, {0: 1, 1: 0})
    with mock.patch.object(verifier, "_side_defect", wraps=verifier._side_defect) as spy:
        assert verifier._step_violation(pp, smaller, removal, trajectory, FieldSpec(2), 1) is None
    assert [c.args[2] for c in spy.call_args_list] == ["below"]


@pytest.mark.parametrize("tier", TIERS)
def test_restrict_shortcuts_equal_the_filtered_build(tier):
    """The empty subset gives the shared empty poset, every element the poset itself; both equal the filtered build.

    is_connected agrees with the reference search on the same subsets.
    """

    @given(st.integers(0, 10_000), st.data())
    @settings(max_examples=15, deadline=None)
    def check(seed, data):
        f = instance(tier, seed)
        for pp in (f.source, f.target, *reference.chain_members(chain_filtrations(f))[0]):
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
