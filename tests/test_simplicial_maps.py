"""Every vertex map that the library reduces is simplicial.

homology.tower_barcodes takes plain vertex maps between order complexes
of cores, with no check: each is r . g on a core, for a structure or slice
map g that passed posets.check_map and a retraction r, so it is monotone
and sends chains to chains.  The rank table's maps reach it too, as
two-slice towers.  Here every map it receives on tiers S and M is passed
through reference.SimplicialMap, which checks each vertex image and each
simplex image when built.
"""

import contextlib
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persposet import complexes, homology, posets, verifier
from persposet.homology import FieldSpec
from persposet.verifier import chain_puncture_suite, verify_theorem
from reference import ComplexTower, SimplicialMap
from tiers import instance

TIERS = ("S", "M")
EXAMPLES = {"S": 100, "M": 40}
FIELDS = (2, 3)


@contextlib.contextmanager
def checked(seen: Counter):
    """A wrapper of tower_barcodes that builds the checked reference objects first.

    Maps that arrive while verifier.induced_ranks runs are the rank table's,
    and are counted apart.
    """
    tower_barcodes, induced_ranks = homology.tower_barcodes, verifier.induced_ranks
    in_rank_table = []

    def checked_tower_barcodes(cs, maps, field, k_max):
        ComplexTower(tuple(cs), tuple(SimplicialMap(cs[i], cs[i + 1], dict(m)) for i, m in enumerate(maps)))
        seen["rank maps" if in_rank_table else "tower maps"] += len(maps)
        return tower_barcodes(cs, maps, field, k_max)

    def marked_induced_ranks(*args):
        in_rank_table.append(True)
        try:
            return induced_ranks(*args)
        finally:
            in_rank_table.pop()

    with mock.patch.object(homology, "tower_barcodes", checked_tower_barcodes), \
            mock.patch.object(verifier, "induced_ranks", marked_induced_ranks):
        yield


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
        f = instance(tier, seed)
        for cache in (complexes.order_complex, homology._chains, homology._core_barcodes, posets.core):
            cache.cache_clear()
        with checked(seen):
            verify_theorem(f, FieldSpec(p))
            if tier == "S":
                chain_puncture_suite(f, FieldSpec(p))

    check()
    assert seen["tower maps"] and seen["rank maps"]
