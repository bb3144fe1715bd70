"""The one reading of a track's row against the references it replaced.

A puncture step reads its track's row once (pposets.row_sets) and asks
every question of those sets: each side's status, the slices of a side
it builds, and whether the step removes only weak points.  The
references build every comparison set element by element through a
restrict that checks closure (reference.comparison_set) and test each
removed value on its own (reference.is_weak_point).  Every step of both
chains is checked, on tiers S, M and L, and the sides the suite builds
over fields 2 and 3.
"""

from unittest import mock

import pytest

import reference
from persposet import verifier
from persposet.homology import FieldSpec
from persposet.pposets import chain_filtrations, comparison_status, removes_weak_points, row_sets
from persposet.verifier import chain_puncture_suite
from tiers import instance

SEEDS = {"S": range(40), "M": range(20), "L": range(20)}
DIRECTIONS = ("below", "above")


def shape(pp):
    return [(c.elements, c.relation) for c in pp.components], list(pp.maps)


def steps_of(f):
    chains = chain_filtrations(f)
    return chains.target_steps + chains.source_steps


@pytest.mark.parametrize("tier", SEEDS)
def test_row_sets_answer_every_question_of_a_step(tier):
    """Per step: the removed row lies on the trajectory, the sets are the reference's slices, and the weak test agrees.

    Where the reference comparison set is not closed, the side's status
    is infinite, so it is never built.
    """
    closed = not_closed = weak = 0
    for seed in SEEDS[tier]:
        for step in steps_of(instance(tier, seed)):
            pp, row = step.larger, step.track.trajectory
            assert all(r in (None, v) for r, v in zip(step.removed, row, strict=True))
            sets = row_sets(pp, row)
            for direction in DIRECTIONS:
                try:
                    expected = reference.comparison_set(pp, row, direction)
                except reference.NotASubposet:
                    assert comparison_status(pp, sets[direction]) == "infinite"
                    not_closed += 1
                    continue
                assert sets[direction] == [set(c.elements) for c in expected.components]
                closed += 1
            by_value = all(v is None or reference.is_weak_point(P, v) for P, v in zip(pp.components, step.removed))
            assert removes_weak_points(pp, step.removed, sets) == by_value
            weak += by_value
    assert closed > 0 and not_closed > 0 and weak > 0


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("tier", SEEDS)
def test_every_built_side_is_the_reference_comparison_set(tier, p):
    """Each side the suite builds equals reference.comparison_set of its step's row, slice by slice and map by map."""
    rows, built, sides = [], [], []
    step_violation, side_defect, sub_tower = verifier._step_violation, verifier._side_defect, verifier._sub_tower

    def recording_step(larger, smaller, removed, trajectory, *rest):
        rows.append(trajectory)
        return step_violation(larger, smaller, removed, trajectory, *rest)

    def recording_side(pp, sets, direction, *rest):
        built.append((pp, rows[-1], direction))
        return side_defect(pp, sets, direction, *rest)

    def recording_sub_tower(*args):
        sides.append(sub_tower(*args))
        return sides[-1]

    with mock.patch.object(verifier, "_step_violation", recording_step), \
            mock.patch.object(verifier, "_side_defect", recording_side), \
            mock.patch.object(verifier, "_sub_tower", recording_sub_tower):
        for seed in SEEDS[tier]:
            chain_puncture_suite(instance(tier, seed), FieldSpec(p))
    assert len(built) == len(sides) > 0
    for (pp, row, direction), side in zip(built, sides):
        assert shape(side) == shape(reference.comparison_set(pp, row, direction))

