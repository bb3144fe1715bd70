"""The interpolation chains and coherent linear extensions against their references.

- chain_filtrations builds both chains with one track-adding routine; the
  reference builds them with two mirrored loops, the shrinking one asking
  of each target track which values a later track shares.
- every step removes at least its track's first value, so no step is
  trivial, and a track that adds nothing raises InternalError.
- persistence_linear_extension extends each component in one heap pass
  keyed by the rank of each element's image; the reference enriches the
  whole component with every image-ordered pair and closes it again.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from persposet.errors import InternalError
from persposet.pposets import (
    CYLINDER_SOURCE_TAG,
    CYLINDER_TARGET_TAG,
    _grow,
    _tagged_track,
    chain_filtrations,
    persistence_linear_extension,
    persistence_mapping_cylinder,
    tracks,
)
from tiers import instance

instances = st.builds(lambda seed, tier: instance(tier, seed), st.integers(0, 10_000), st.sampled_from(["M", "S"]))


def shape(pp):
    """Components, relations and maps of a persistence poset."""
    return [(c.elements, c.relation) for c in pp.components], list(pp.maps)


def step_shape(step):
    return (shape(step.larger), shape(step.smaller), step.removed, step.track)


@settings(max_examples=60, deadline=None)
@given(instances)
def test_chains_equal_the_two_loop_reference(f):
    chains = chain_filtrations(f)
    expected = reference.chain_filtrations(f)
    assert shape(chains.cylinder) == shape(expected.cylinder)
    for members, expected_members in zip(reference.chain_members(chains), reference.chain_members(expected)):
        assert [shape(m) for m in members] == [shape(m) for m in expected_members]
    for name in ("target_steps", "source_steps"):
        assert [step_shape(s) for s in getattr(chains, name)] == [step_shape(s) for s in getattr(expected, name)]


@settings(max_examples=60, deadline=None)
@given(instances)
def test_extension_equals_the_enriched_reference(f):
    for pp in (f.source, f.target):
        assert persistence_linear_extension(pp) == reference.persistence_linear_extension(pp)


@pytest.mark.parametrize("tier", ["S", "M", "L"])
def test_every_step_removes_its_tracks_first_value(tier):
    """A track's first value is fresh at its birth index, so no chain step is trivial (seeds 0-149)."""
    for seed in range(150):
        chains = chain_filtrations(instance(tier, seed))
        for step in chains.target_steps + chains.source_steps:
            assert step.removed[step.track.birth] == step.track.initial


def test_a_repeated_track_raises():
    """A track that adds no value to its chain breaks the invariant above: InternalError, not a trivial step."""
    f = instance("S", 0)
    cylinder = persistence_mapping_cylinder(f)
    start = [{CYLINDER_TARGET_TAG + e for e in c.elements} for c in f.target.components]
    track = _tagged_track(tracks(f.source)[0], CYLINDER_SOURCE_TAG)
    assert len(_grow(cylinder, start, [track])) == 1
    with pytest.raises(InternalError, match="adds no value"):
        _grow(cylinder, start, [track, track])
