import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persposet.errors import (
    CycleError,
    DuplicateElement,
    NonMonotoneStructureMap,
    PartialStructureMap,
    UnknownElement,
)
from persposet.homology import FieldSpec, pposet_barcodes
from persposet.posets import (
    FinitePoset,
    check_map,
    core,
    linear_extension,
    longest_chain,
    new_poset,
    transitive_closure,
)
from persposet.pposets import PersistenceMap, fibers, persistence_mapping_cylinder, row_sets, tracks
from reference import constant_pposet, is_monotone, is_weak_point


def closure_oracle(elements, pairs):
    """Independent closure: add compositions until nothing changes."""
    rel = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


ids = st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=6, unique=True)


@st.composite
def posets(draw):
    elements = draw(ids)
    pairs = []
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            if draw(st.booleans()):
                pairs.append((elements[i], elements[j]))
    return new_poset(elements, pairs)


class TestNewPoset:
    def test_two_element_chain(self):
        P = new_poset(["a", "b"], [("a", "b")])
        assert P.elements == ("a", "b")
        assert P.relation == frozenset({("a", "b")})

    def test_circle_poset_closure_adds_nothing(self):
        pairs = [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
        P = new_poset(["a", "b", "c", "d"], pairs)
        assert P.relation == closure_oracle("abcd", pairs) == set(pairs)

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            new_poset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateElement):
            new_poset(["a", "a"], [])

    def test_unknown_pair_element(self):
        with pytest.raises(UnknownElement):
            new_poset(["a"], [("a", "z")])

    @given(posets())
    @settings(max_examples=50, deadline=None)
    def test_closure_idempotent(self, P):
        again = transitive_closure(P.elements, P.relation)
        assert again == P.relation

    @given(posets())
    @settings(max_examples=50, deadline=None)
    def test_matches_closure_oracle(self, P):
        assert set(P.relation) == closure_oracle(P.elements, P.relation)


def strict_set(P, x, direction):
    """Strict down- or up-set of x, as the induced subposet on the row_sets of a one-slice row."""
    return P.restrict(row_sets(constant_pposet(P, 0), [x])[direction][0])


class TestDownset:
    def test_chain_prefix(self):
        P = new_poset("abc", [("a", "b"), ("b", "c")])
        D = strict_set(P, "c", "below")
        assert D.elements == ("a", "b") and D.relation == frozenset({("a", "b")})

    def test_circle_antichain(self):
        P = new_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
        D = strict_set(P, "c", "below")
        assert D.elements == ("a", "b") and not D.relation

    def test_minimum_has_empty_downset(self):
        P = new_poset("abc", [("a", "b"), ("a", "c")])
        assert strict_set(P, "a", "below").is_empty()

    def test_weak_includes_element(self):
        # the weak down-set of b is the fiber of the identity over b's track
        P = new_poset("ab", [("a", "b")])
        pp = constant_pposet(P, 0)
        track_b = [t for t in tracks(pp) if t.initial == "b"][0]
        (weak,) = fibers(PersistenceMap(pp, pp, ({e: e for e in P.elements},)), [track_b])
        assert weak.components[0].elements == ("a", "b")

    def test_above(self):
        P = new_poset("abc", [("a", "b"), ("a", "c")])
        assert strict_set(P, "a", "above").elements == ("b", "c")

    def test_unknown(self):
        with pytest.raises(UnknownElement):
            strict_set(new_poset("a", []), "z", "below")


class TestLinearExtension:
    def test_chain(self):
        assert linear_extension(new_poset("ab", [("a", "b")])) == ["a", "b"]

    def test_tie_break(self):
        P = new_poset("abc", [("c", "a"), ("c", "b")])
        assert linear_extension(P) == ["c", "a", "b"]

    def test_antichain_is_sorted(self):
        assert linear_extension(new_poset("ba", [])) == ["a", "b"]

    @given(posets())
    @settings(max_examples=50, deadline=None)
    def test_is_a_linear_extension(self, P):
        order = linear_extension(P)
        assert len(order) == len(P.elements)
        position = {e: i for i, e in enumerate(order)}
        for a, b in P.relation:
            assert position[a] < position[b]


class TestMonotone:
    def test_identity(self):
        P = new_poset("ab", [("a", "b")])
        assert is_monotone(P, P, {"a": "a", "b": "b"})

    def test_constant(self):
        P = new_poset("ab", [("a", "b")])
        Q = new_poset("z", [])
        assert is_monotone(P, Q, {"a": "z", "b": "z"})

    def test_incomparable_images(self):
        P = new_poset("ab", [("a", "b")])
        Q = new_poset("uv", [])
        assert not is_monotone(P, Q, {"a": "u", "b": "v"})

    def test_partial_not_monotone(self):
        P = new_poset("ab", [("a", "b")])
        assert not is_monotone(P, P, {"a": "a"})

    def test_image_of_a_non_element_rejected(self):
        P = new_poset("ab", [("a", "b")])
        f = {"a": "a", "b": "b", "ghost": "a"}
        assert not is_monotone(P, P, f)
        with pytest.raises(PartialStructureMap, match="'ghost'"):
            check_map(P, P, f)

    def test_a_valid_map_is_checked_without_scanning_the_target(self, monkeypatch):
        """Each image is looked up in a set, not in the target's element tuple, so the check is linear."""
        calls = []

        def spy(poset, x):
            calls.append(x)
            return x in poset.elements

        monkeypatch.setattr(FinitePoset, "__contains__", spy)
        P = new_poset("abc", [("a", "b"), ("a", "c")])
        Q = new_poset("uv", [("u", "v")])
        check_map(P, Q, {"a": "u", "b": "v", "c": "v"})
        assert calls == []


def cylinder_slice(X, Y, f):
    """The one slice of the persistence mapping cylinder of the one-slice map f: X -> Y.

    Building the persistence map checks f, so an invalid f raises there.
    """
    g = PersistenceMap(constant_pposet(X, 0), constant_pposet(Y, 0), [f])
    return persistence_mapping_cylinder(g).components[0]


def inclusions(X, Y, M):
    """The canonical inclusions of X and Y into their mapping cylinder M, each checked monotone."""
    i_x = {x: "X:" + x for x in X.elements}
    i_y = {y: "Y:" + y for y in Y.elements}
    assert is_monotone(X, M, i_x) and is_monotone(Y, M, i_y)
    return i_x, i_y


class TestMappingCylinder:
    def test_point_to_point(self):
        X = new_poset("a", [])
        Y = new_poset("b", [])
        M = cylinder_slice(X, Y, {"a": "b"})
        assert M.elements == ("X:a", "Y:b")
        assert M.relation == frozenset({("X:a", "Y:b")})
        inclusions(X, Y, M)

    def test_constant_from_antichain(self):
        X = new_poset(["a1", "a2"], [])
        Y = new_poset("b", [])
        M = cylinder_slice(X, Y, {"a1": "b", "a2": "b"})
        assert M.relation == frozenset({("X:a1", "Y:b"), ("X:a2", "Y:b")})

    def test_empty_source(self):
        X = new_poset([], [])
        Y = new_poset("ab", [("a", "b")])
        M = cylinder_slice(X, Y, {})
        assert M.elements == ("Y:a", "Y:b")
        inclusions(X, Y, M)

    def test_invalid_map_rejected(self):
        P = new_poset("ab", [("a", "b")])
        Q = new_poset("uv", [])
        with pytest.raises(NonMonotoneStructureMap):
            cylinder_slice(P, Q, {"a": "u", "b": "v"})

    @given(posets(), posets(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_restrictions_and_comparison(self, X, Y, data):
        f = {x: data.draw(st.sampled_from(Y.elements), label=f"f({x})") for x in X.elements}
        if not is_monotone(X, Y, f):
            return
        M = cylinder_slice(X, Y, f)
        i_x, i_y = inclusions(X, Y, M)
        # restrictions of the cylinder order equal the original orders
        assert {(a, b) for (a, b) in M.relation if a.startswith("X:") and b.startswith("X:")} == {
            ("X:" + a, "X:" + b) for (a, b) in X.relation
        }
        assert {(a, b) for (a, b) in M.relation if a.startswith("Y:") and b.startswith("Y:")} == {
            ("Y:" + a, "Y:" + b) for (a, b) in Y.relation
        }
        # never y < x, and always i_x(x) <= i_y(f(x))
        assert not any(a.startswith("Y:") and b.startswith("X:") for (a, b) in M.relation)
        for x in X.elements:
            assert M.leq(i_x[x], i_y[f[x]])


def test_longest_chain():
    assert longest_chain(new_poset("abc", [("a", "b"), ("b", "c")])) == 3
    assert longest_chain(new_poset("ab", [])) == 1
    assert longest_chain(new_poset([], [])) == 0


CROWN = new_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


def homology_ranks(P):
    """dim H_k of the order complex of P over F_2, for k = 0 and 1."""
    return [len(code) for code in pposet_barcodes(constant_pposet(P, 0), FieldSpec(2), 1)]


def covers(P, x):
    """The elements x covers and the elements that cover x."""
    below = {a for a, b in P.relation if b == x}
    above = {b for a, b in P.relation if a == x}
    return (
        {y for y in below if not any((y, z) in P.relation for z in below)},
        {y for y in above if not any((z, y) in P.relation for z in above)},
    )


def is_beat_point(P, x):
    return any(len(side) == 1 for side in covers(P, x))


def test_the_crown_minimum_is_not_weak():
    """The crown is a circle; removing its minimal a, whose up-set {c, d} is no cone, kills H_1.

    A point v over the crown cones it off, but v is not weak either: its
    down-set is the crown, connected and no cone, and removing v brings H_1 back.
    """
    assert homology_ranks(CROWN) == [1, 1]
    assert not is_weak_point(CROWN, "a")
    assert homology_ranks(CROWN.restrict("bcd")) == [1, 0]
    coned = new_poset("abcdv", [*CROWN.relation, ("c", "v"), ("d", "v")])
    assert homology_ranks(coned) == [1, 0]
    assert not is_weak_point(coned, "v")


def test_a_weak_point_need_not_be_a_beat_point():
    """Below x lie c and d over the cone point m: a cone, but x covers two elements and is covered by none."""
    P = new_poset("abmcdx", [("a", "m"), ("b", "m"), ("m", "c"), ("m", "d"), ("c", "x"), ("d", "x")])
    assert is_weak_point(P, "x")
    assert covers(P, "x") == ({"c", "d"}, set())
    assert not is_beat_point(P, "x")
    assert homology_ranks(P) == homology_ranks(P.restrict("abmcd")) == [1, 0]


def test_an_isolated_point_is_not_weak():
    """Both strict sets of an isolated point are empty, and the empty set is no cone."""
    assert not is_weak_point(new_poset("z", []), "z")
    assert not is_weak_point(new_poset("abz", [("a", "b")]), "z")
    assert is_weak_point(new_poset("abz", [("a", "b")]), "b")


@settings(max_examples=200, deadline=None)
@given(posets())
def test_the_first_beat_point_core_removes_is_weak(P):
    """core scans the elements in order, so the first beat point of P is the first it removes."""
    beat = [x for x in P.elements if is_beat_point(P, x)]
    if beat:
        assert core(P)[1][beat[0]] != beat[0]
        assert is_weak_point(P, beat[0])
