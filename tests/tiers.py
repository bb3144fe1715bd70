"""The size tiers that the tests draw random instances at.

Each tier is GeneratorLimits(t_max, max_slice, max_y_tracks): S is the
acceptance tier, M and L grow the slices and the target's tracks.
"""

from persposet.documents import GeneratorLimits, parse_instance, random_instance
from persposet.pposets import PersistenceMap

S = GeneratorLimits(t_max=5, max_slice=6, max_y_tracks=4)
M = GeneratorLimits(t_max=8, max_slice=10, max_y_tracks=6)
L = GeneratorLimits(t_max=8, max_slice=12, max_y_tracks=8)
TIERS = {"S": S, "M": M, "L": L}


def instance(tier: str, seed: int) -> PersistenceMap:
    """The persistence map of random_instance(seed) at the named tier."""
    return parse_instance(random_instance(seed, TIERS[tier])).map
