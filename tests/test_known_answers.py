"""Known answers up to each complex's top degree: face posets of spheres, the projective plane and tori.

A one-slice tower's barcode in degree k has one bar (0, inf) for each
dimension of H_k of its slice, so the bars count the Betti numbers.  The
projective plane tells the fields apart: H_1 and H_2 over F_2, neither
over F_3.  The 8x8 torus and the boundaries of the 4- and 5-dimensional
cross-polytopes, with 384, 80 and 242 faces, are the cases at scale.
"""

import pytest

from families import PROJECTIVE_PLANE, SPHERE, cross_polytope, face_poset, grid_torus
from persposet.homology import FieldSpec, pposet_barcodes
from persposet.modules import INF
from persposet.pposets import PersistenceMap, PersistencePoset
from persposet.verifier import verify_theorem
from reference import constant_pposet

BETTIS = [
    ("sphere", SPHERE, {2: (1, 0, 1), 3: (1, 0, 1)}),
    ("projective-plane", PROJECTIVE_PLANE, {2: (1, 1, 1), 3: (1, 0, 0)}),
    ("torus-3x3", grid_torus(3), {2: (1, 2, 1), 3: (1, 2, 1)}),
    ("torus-4x4", grid_torus(4), {2: (1, 2, 1), 3: (1, 2, 1)}),
    ("torus-8x8", grid_torus(8), {2: (1, 2, 1), 3: (1, 2, 1)}),
    ("cross-polytope-4", cross_polytope(4), {2: (1, 0, 0, 1), 3: (1, 0, 0, 1)}),
    ("cross-polytope-5", cross_polytope(5), {2: (1, 0, 0, 0, 1), 3: (1, 0, 0, 0, 1)}),
]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("facets, bettis", [case[1:] for case in BETTIS], ids=[case[0] for case in BETTIS])
def test_betti_numbers_of_one_slice(facets, bettis, p):
    """Every degree up to the complex's top degree, the last entry of bettis."""
    codes = pposet_barcodes(PersistencePoset((face_poset(facets),), ()), FieldSpec(p), len(bettis[p]) - 1)
    assert all(bar == (0, INF) for code in codes for bar in code.bars)
    assert tuple(len(code.bars) for code in codes) == bettis[p]


def test_face_names_do_not_collide():
    """The edges {1, 12} and {11, 2} are two faces, so there are four vertices and two edges."""
    P = face_poset([("1", "12"), ("11", "2")])
    assert len(P.elements) == 6
    assert len(P.relation) == 4


def test_identity_on_the_sphere():
    """The identity of a two-slice constant sphere: every fiber is a cone, so eps 0, and rank 1 in degrees 0 and 2."""
    P = face_poset(SPHERE)
    pp = constant_pposet(P, 1)
    identity = {e: e for e in P.elements}
    cert = verify_theorem(PersistenceMap(pp, pp, (identity, identity)), FieldSpec(3))
    assert cert.verdict == "holds"
    assert (cert.m, cert.epsilon, cert.bound) == (14, 0, 0)
    assert cert.distances == {0: 0, 1: 0, 2: 0}
    assert cert.induced_ranks == {0: [1, 1], 1: [0, 0], 2: [1, 1]}
