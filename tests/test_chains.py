"""The interpolation chains and coherent linear extensions against their references.

- chain_filtrations builds both chains with one track-adding routine; the
  reference builds them with two mirrored loops, the shrinking one asking
  of each target track which values a later track shares.
- persistence_linear_extension extends each component in one heap pass
  keyed by the rank of each element's image; the reference enriches the
  whole component with every image-ordered pair and closes it again.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from persposet.documents import GeneratorLimits, parse_instance, random_instance
from persposet.pposets import chain_filtrations, persistence_linear_extension

TIERS = {
    "S": GeneratorLimits(t_max=5, max_slice=6, max_y_tracks=4),
    "M": GeneratorLimits(t_max=8, max_slice=10, max_y_tracks=6),
}

instances = st.builds(
    lambda seed, tier: parse_instance(random_instance(seed, TIERS[tier])).map,
    st.integers(0, 10_000),
    st.sampled_from(sorted(TIERS)),
)


def shape(pp):
    """Components, relations and map assignments of a persistence poset."""
    return (
        [(c.elements, c.relation) for c in pp.components],
        [m.assignment for m in pp.maps],
    )


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
