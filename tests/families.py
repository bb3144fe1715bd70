"""Posets with known homology: face posets of triangulated surfaces and spheres.

The order complex of a simplicial complex's face poset is its barycentric
subdivision, so the poset has the homology of the complex.  A face is
named by its sorted vertex names joined with FACE_SEPARATOR: plain
concatenation would give the faces {1, 12} and {11, 2} one name.
"""

from itertools import combinations, product

from persposet.posets import FinitePoset, new_poset

FACE_SEPARATOR = "."

SPHERE = ["123", "124", "134", "234"]  # the boundary of the tetrahedron
# The six-vertex real projective plane.
PROJECTIVE_PLANE = ["123", "134", "145", "156", "126", "246", "245", "235", "356", "346"]


def face_poset(facets) -> FinitePoset:
    """Every nonempty face of the facets, ordered by inclusion through its cover pairs.

    A facet is an iterable of vertex names; a string is read one
    character per vertex.
    """
    faces = {
        face
        for facet in facets
        for k in range(1, len(set(facet)) + 1)
        for face in combinations(sorted(set(facet)), k)
    }
    name = FACE_SEPARATOR.join
    covers = [(name(face[:i] + face[i + 1 :]), name(face)) for face in faces if len(face) > 1 for i in range(len(face))]
    return new_poset(sorted(map(name, faces)), covers)


def grid_torus(n: int) -> list[tuple[str, str, str]]:
    """The torus as an n-by-n grid of squares with opposite sides glued, each square cut along a diagonal.

    The vertices are the points (i, j) mod n, named "i,j"; n >= 3 gives a
    simplicial complex.
    """

    def v(i: int, j: int) -> str:
        return f"{i % n},{j % n}"

    return [
        triangle
        for i in range(n)
        for j in range(n)
        for triangle in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)), (v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    ]


def cross_polytope(n: int) -> list[tuple[str, ...]]:
    """The boundary of the n-dimensional cross-polytope, a triangulated (n - 1)-sphere.

    A facet takes one signed vertex per coordinate, "+i" or "-i"; the
    vertices +i and -i are never in one face.
    """
    return [tuple(f"{sign}{i}" for i, sign in enumerate(signs)) for signs in product("+-", repeat=n)]
