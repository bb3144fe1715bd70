"""Every vertex map that the library reduces is simplicial.

homology.tower_barcodes and homology._induced_rank take plain vertex
maps between order complexes of cores, with no check: each is r . g on a
core, for a structure or slice map g that passed posets.check_map and a
retraction r, so it is monotone and sends chains to chains.  Here every
map they receive on tiers S and M is passed through reference.SimplicialMap,
which checks each vertex image and each simplex image when built.
"""

from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persposet import complexes, homology, posets
from persposet.documents import GeneratorLimits, parse_instance, random_instance
from persposet.homology import FieldSpec
from persposet.verifier import chain_puncture_suite, verify_theorem
from reference import ComplexTower, SimplicialMap

TIERS = {
    "S": GeneratorLimits(t_max=5, max_slice=6, max_y_tracks=4),
    "M": GeneratorLimits(t_max=8, max_slice=10, max_y_tracks=6),
}
EXAMPLES = {"S": 100, "M": 40}
FIELDS = (2, 3)


def checked(seen: Counter):
    """Wrappers of tower_barcodes and _induced_rank that build the checked reference objects first."""
    tower_barcodes, induced_rank = homology.tower_barcodes, homology._induced_rank

    def checked_tower_barcodes(cs, maps, field, k_max):
        ComplexTower(tuple(cs), tuple(SimplicialMap(cs[i], cs[i + 1], dict(m)) for i, m in enumerate(maps)))
        seen["tower maps"] += len(maps)
        return tower_barcodes(cs, maps, field, k_max)

    def checked_induced_rank(source, target, vertex_map, k, p):
        SimplicialMap(source, target, dict(vertex_map))
        seen["rank maps"] += 1
        return induced_rank(source, target, vertex_map, k, p)

    return mock.patch.multiple(homology, tower_barcodes=checked_tower_barcodes, _induced_rank=checked_induced_rank)


@pytest.mark.parametrize("tier", TIERS)
def test_every_reduced_map_is_simplicial(tier):
    """verify_theorem, and on tier S the puncture suite, from cold caches so every key reaches the reduction.

    Few tier-S slice maps have cores with relations, so the seeds of two
    that do are always run; both kinds of map must be seen.
    """
    seen: Counter = Counter()

    @given(st.integers(0, 10_000), st.sampled_from(FIELDS))
    @example(67, 3)
    @example(71, 2)
    @settings(max_examples=EXAMPLES[tier], deadline=None)
    def check(seed, p):
        f = parse_instance(random_instance(seed, TIERS[tier])).map
        for cache in (complexes.order_complex, homology._chains, homology._core_barcodes, posets.core):
            cache.cache_clear()
        with checked(seen):
            verify_theorem(f, FieldSpec(p))
            if tier == "S":
                chain_puncture_suite(f, FieldSpec(p))

    check()
    assert seen["tower maps"] and seen["rank maps"]
