from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persposet.complexes import SimplicialComplex, order_complex
from persposet.errors import DuplicateElement, ShapeMismatch
from persposet.posets import new_poset
from persposet.pposets import PersistencePoset
from reference import (
    complex_top_degree,
    constant_pposet,
    from_simplices,
    induced_map,
    is_monotone,
    join,
    join_tower,
    k_simplices,
    order_complex_tower,
)


def chains_oracle(P):
    """Independent chain enumeration: filter all vertex subsets."""
    out = set()
    for k in range(1, len(P.elements) + 1):
        for sub in combinations(P.elements, k):
            if all(a == b or (a, b) in P.relation or (b, a) in P.relation for a in sub for b in sub):
                out.add(frozenset(sub))
    return out


ids = st.lists(st.sampled_from("abcdef"), min_size=1, max_size=5, unique=True)


@st.composite
def posets(draw):
    elements = draw(ids)
    pairs = []
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            if draw(st.booleans()):
                pairs.append((elements[i], elements[j]))
    return new_poset(elements, pairs)


S = new_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
FOUR_CYCLE = (
    ("a",), ("b",), ("c",), ("d",),
    ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
)


class TestOrderComplex:
    def test_edge(self):
        K = order_complex(new_poset("ab", [("a", "b")]))
        assert K.simplices == (("a",), ("b",), ("a", "b"))

    def test_circle_is_four_cycle(self):
        assert order_complex(S).simplices == FOUR_CYCLE

    def test_antichain_discrete(self):
        K = order_complex(new_poset("abc", []))
        assert K.simplices == (("a",), ("b",), ("c",))

    @given(posets())
    @example(new_poset("ab", [("b", "a")]))
    @settings(max_examples=50, deadline=None)
    def test_simplices_are_chains(self, P):
        """The one form homology._chains reduces: name-sorted chains, by length then lexicographically."""
        simplices = order_complex(P).simplices
        assert {frozenset(s) for s in simplices} == chains_oracle(P)
        assert all(list(s) == sorted(s) for s in simplices)
        assert list(simplices) == sorted(simplices, key=lambda s: (len(s), s))
        assert len(set(simplices)) == len(simplices)


class TestInducedMap:
    def test_identity(self):
        P = new_poset("ab", [("a", "b")])
        sm = induced_map(P, P, {"a": "a", "b": "b"})
        assert sm.vertex_map == {"a": "a", "b": "b"}

    def test_collapse(self):
        P = new_poset("ab", [("a", "b")])
        Q = new_poset("z", [])
        sm = induced_map(P, Q, {"a": "z", "b": "z"})
        assert sm.apply_simplex(["a", "b"]) == ("z",)

    def test_inclusion_into_cone(self):
        St = new_poset("abcdt", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
                                 ("c", "t"), ("d", "t"), ("a", "t"), ("b", "t")])
        sm = induced_map(S, St, {e: e for e in S.elements})
        assert all(s in sm.target.simplices for s in sm.source.simplices)

    @given(posets(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_functoriality(self, P, data):
        Q = data.draw(posets(), label="Q")
        f = {x: data.draw(st.sampled_from(Q.elements), label=f"f({x})") for x in P.elements}

        if not is_monotone(P, Q, f):
            return
        g = {y: y for y in Q.elements}
        left = induced_map(P, Q, {x: g[f[x]] for x in P.elements})
        right_f = induced_map(P, Q, f)
        right_g = induced_map(Q, Q, g)
        assert left.vertex_map == {
            v: right_g.vertex_map[right_f.vertex_map[v]] for v in P.elements
        }


class TestJoinStarLink:
    def test_sphere_join(self):
        K = from_simplices([], vertices=["a", "b"])
        L = from_simplices([], vertices=["c", "d"])
        J = join(K, L)
        assert J.simplices == FOUR_CYCLE

    def test_cone(self):
        K = order_complex(S)
        apex = from_simplices([], vertices=["t"])
        J = join(K, apex)
        assert ("a", "c", "t") in J.simplices

    def test_join_empty(self):
        K = from_simplices([["a", "b"]])
        E = SimplicialComplex(vertices=(), simplices=())
        assert join(E, K).simplices == K.simplices
        assert join(K, E).simplices == K.simplices

    def test_join_requires_disjoint(self):
        K = from_simplices([["a"]])
        with pytest.raises(DuplicateElement):
            join(K, K)


class TestTowers:
    def test_constant(self):
        pp = constant_pposet(S, 2)
        tower = order_complex_tower(pp)
        assert all(K.simplices == FOUR_CYCLE for K in tower.complexes)

    def test_growth_to_cone(self):
        St = new_poset("abcdt", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
                                 ("c", "t"), ("d", "t"), ("a", "t"), ("b", "t")])
        pp = PersistencePoset((S, St), ({e: e for e in S.elements},))
        tower = order_complex_tower(pp)
        assert complex_top_degree(tower.complexes[0]) == 1
        assert complex_top_degree(tower.complexes[1]) == 2

    def test_empty_prefix(self):
        empty = new_poset([], [])
        pt = new_poset("a", [])
        pp = PersistencePoset((empty, pt), ({},))
        tower = order_complex_tower(pp)
        assert not tower.complexes[0].simplices and tower.complexes[1].simplices

    def test_join_tower(self):
        A = order_complex_tower(constant_pposet(new_poset(["a1", "a2"], []), 1))
        B = order_complex_tower(constant_pposet(new_poset(["b1", "b2"], []), 1))
        J = join_tower(A, B)
        assert all(complex_top_degree(K) == 1 and len(k_simplices(K, 1)) == 4 for K in J.complexes)

    def test_join_tower_length_mismatch(self):
        A = order_complex_tower(constant_pposet(new_poset(["a1"], []), 1))
        B = order_complex_tower(constant_pposet(new_poset(["b1"], []), 2))
        with pytest.raises(ShapeMismatch):
            join_tower(A, B)
