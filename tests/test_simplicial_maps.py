"""Every vertex map that the library sweeps is simplicial.

homology._sweep takes the reductions of the order complexes of cores and
plain vertex maps between them, with no check: each map is r . g on a
core, for a structure or slice map g that passed posets.check_map and a
retraction r, so it is monotone and sends chains to chains.  The rank
table's maps reach it too, as two-slice towers.  Here every map it
receives on tiers S and M is passed through reference.SimplicialMap,
between the complexes the reductions were made from, which checks each
vertex image and each simplex image when built.
"""

import contextlib
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persposet import homology, verifier
from persposet.complexes import SimplicialComplex
from persposet.homology import FieldSpec
from persposet.verifier import chain_puncture_suite, verify_theorem
from reference import ComplexTower, SimplicialMap, clear_library_caches
from tiers import instance

TIERS = ("S", "M")
EXAMPLES = {"S": 100, "M": 40}
FIELDS = (2, 3)


def reduced_complex(chains) -> SimplicialComplex:
    """The complex a reduction was made from: its simplices, degree by degree."""
    vertices = tuple(v for (v,) in chains.simplices[0]) if chains.simplices else ()
    return SimplicialComplex(vertices, tuple(s for group in chains.simplices for s in group))


@contextlib.contextmanager
def checked(seen: Counter):
    """A wrapper of the sweep that builds the checked reference objects first.

    Maps that arrive while verifier.induced_ranks runs are the rank table's,
    and are counted apart.
    """
    sweep, induced_ranks = homology._sweep, verifier.induced_ranks
    in_rank_table = []

    def checked_sweep(chains, maps, p, k_max):
        cs = [reduced_complex(c) for c in chains]
        ComplexTower(tuple(cs), tuple(SimplicialMap(cs[i], cs[i + 1], dict(m)) for i, m in enumerate(maps)))
        seen["rank maps" if in_rank_table else "tower maps"] += len(maps)
        return sweep(chains, maps, p, k_max)

    def marked_induced_ranks(*args):
        in_rank_table.append(True)
        try:
            return induced_ranks(*args)
        finally:
            in_rank_table.pop()

    with mock.patch.object(homology, "_sweep", checked_sweep), \
            mock.patch.object(verifier, "induced_ranks", marked_induced_ranks):
        yield


@pytest.mark.parametrize("tier", TIERS)
def test_every_reduced_map_is_simplicial(tier):
    """verify_theorem, and on tier S the puncture suite, from cold caches.

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
        clear_library_caches()
        with checked(seen):
            verify_theorem(f, FieldSpec(p))
            if tier == "S":
                chain_puncture_suite(f, FieldSpec(p))

    check()
    assert seen["tower maps"] and seen["rank maps"]
