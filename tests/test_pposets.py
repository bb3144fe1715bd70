import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persposet.errors import (
    EmptyAfterNonempty,
    NonMonotoneStructureMap,
    PartialStructureMap,
    ShapeMismatch,
)
from persposet.posets import new_poset
from persposet.pposets import (
    PersistenceMap,
    PersistencePoset,
    _sub_tower,
    chain_filtrations,
    comparison_status,
    fibers,
    ordinal_sum,
    persistence_linear_extension,
    persistence_mapping_cylinder,
    row_sets,
    top_degree,
    tracks,
    up_sets_of_image_tracks,
    validate,
)
from persposet.modules import INF
from persposet.verifier import fiber_defects
import reference
from reference import constant_pposet
from tiers import instance


def pposet(components, maps):
    comps = [new_poset(els, pairs) for els, pairs in components]
    return PersistencePoset(tuple(comps), tuple(dict(m) for m in maps))


def pmap(x, y, slices):
    return PersistenceMap(x, y, tuple(dict(s) for s in slices))


def identity(pp):
    return pmap(pp, pp, [{e: e for e in c.elements} for c in pp.components])


class TestValidate:
    def test_single_component(self):
        pp = pposet([("a", [])], [])
        validate(pp)

    def test_antichain_to_chain_swap(self):
        pp = pposet(
            [(["a", "b"], []), (["u", "v"], [("u", "v")])],
            [{"a": "v", "b": "u"}],
        )
        validate(pp)

    def test_empty_after_nonempty(self):
        with pytest.raises(EmptyAfterNonempty):
            pposet([("a", []), ([], [])], [{"a": "?"}])

    def test_empty_prefix_allowed(self):
        pp = pposet([([], []), ("a", [])], [{}])
        validate(pp)

    def test_partial_map(self):
        with pytest.raises(PartialStructureMap):
            pposet([(["a", "b"], []), ("z", [])], [{"a": "z"}])

    def test_non_monotone_map(self):
        with pytest.raises(NonMonotoneStructureMap):
            pposet(
                [(["a", "b"], [("a", "b")]), (["u", "v"], [])],
                [{"a": "u", "b": "v"}],
            )


class TestTracks:
    def test_birth_later(self):
        pp = pposet([("a", []), (["a", "b"], [])], [{"a": "a"}])
        ts = tracks(pp)
        assert [(t.birth, t.initial) for t in ts] == [(0, "a"), (1, "b")]
        assert ts[0].trajectory == ("a", "a")
        assert ts[1].trajectory == (None, "b")

    def test_constant_all_fresh_at_zero(self):
        pp = constant_pposet(new_poset("abc", [("a", "b")]), 2)
        ts = tracks(pp)
        assert len(ts) == 3 and all(t.birth == 0 for t in ts)

    def test_merge(self):
        pp = pposet([(["a", "b"], []), ("z", [])], [{"a": "z", "b": "z"}])
        ts = tracks(pp)
        assert [(t.birth, t.initial) for t in ts] == [(0, "a"), (0, "b")]
        assert ts[0].trajectory == ("a", "z") and ts[1].trajectory == ("b", "z")

    def test_every_element_covered(self):
        pp = pposet(
            [(["a", "b"], []), (["z", "w"], []), ("q", [])],
            [{"a": "z", "b": "z"}, {"z": "q", "w": "q"}],
        )
        ts = tracks(pp)
        covered = [set() for _ in range(pp.T + 1)]
        for t in ts:
            for i in range(t.birth, pp.T + 1):
                covered[i].add(t.trajectory[i])
        for i in range(pp.T + 1):
            assert covered[i] == set(pp.components[i].elements)

    def test_rank_order_follows_extension(self):
        # images force b < a in the extension of slice 0, so track b comes first
        pp = pposet(
            [(["a", "b"], []), (["u", "v"], [("u", "v")])],
            [{"a": "v", "b": "u"}],
        )
        assert [t.initial for t in tracks(pp)] == ["b", "a"]


class TestLinearExtension:
    def test_transfer_of_order(self):
        pp = pposet(
            [(["a", "b"], []), (["u", "v"], [("u", "v")])],
            [{"a": "v", "b": "u"}],
        )
        assert persistence_linear_extension(pp) == [["b", "a"], ["u", "v"]]

    def test_equal_images_tie_break(self):
        pp = pposet([(["a", "b"], []), ("z", [])], [{"a": "z", "b": "z"}])
        assert persistence_linear_extension(pp) == [["a", "b"], ["z"]]

    def test_single_chain(self):
        pp = constant_pposet(new_poset("ab", [("a", "b")]), 0)
        assert persistence_linear_extension(pp) == [["a", "b"]]

    def test_structure_maps_monotone_for_extension(self):
        pp = pposet(
            [(["a", "b", "c"], [("a", "b")]), (["u", "v"], [("v", "u")])],
            [{"a": "v", "b": "u", "c": "v"}],
        )
        orders = persistence_linear_extension(pp)
        for i in range(pp.T):
            pos = {e: r for r, e in enumerate(orders[i + 1])}
            f = pp.maps[i]
            prev = {e: r for r, e in enumerate(orders[i])}
            for a in pp.components[i].elements:
                for b in pp.components[i].elements:
                    if prev[a] < prev[b]:
                        assert pos[f[a]] <= pos[f[b]]


class TestSubDownset:
    """Down-sets of a track: strict ones are the row_sets of its trajectory
    row, the weak one is the fiber of the identity over it."""

    def test_constant_chain(self):
        pp = constant_pposet(new_poset("ab", [("a", "b")]), 1)
        tb = [t for t in tracks(pp) if t.initial == "b"][0]
        assert row_sets(pp, tb.trajectory)["below"] == [{"a"}, {"a"}]

    def test_circle_weak(self):
        S = new_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
        pp = constant_pposet(S, 1)
        tc = [t for t in tracks(pp) if t.initial == "c"][0]
        (sub,) = fibers(identity(pp), [tc])
        assert all(c.elements == ("a", "b", "c") for c in sub.components)
        assert all(c.relation == frozenset({("a", "c"), ("b", "c")}) for c in sub.components)

    def test_empty_before_birth(self):
        pp = pposet(
            [("a", []), ("a", []), (["a", "b"], [("a", "b")])],
            [{"a": "a"}, {"a": "a"}],
        )
        tb = [t for t in tracks(pp) if t.initial == "b"][0]
        assert tb.birth == 2
        assert row_sets(pp, tb.trajectory)["below"] == [set(), set(), {"a"}]

    def test_merge_into_track_fails_closure(self):
        # a < b at time 0, both map to z: the strict down-set of track b
        # would be {a} then {}, which no structure map can realize
        pp = pposet([(["a", "b"], [("a", "b")]), ("z", [])], [{"a": "z", "b": "z"}])
        tb = [t for t in tracks(pp) if t.initial == "b"][0]
        assert row_sets(pp, tb.trajectory)["below"] == [{"a"}, set()]
        assert comparison_status(pp, row_sets(pp, tb.trajectory)["below"]) == "infinite"
        with pytest.raises(reference.NotASubposet):
            reference.comparison_set(pp, tb.trajectory, "below")


class TestFiber:
    def test_direct_preimage(self):
        Y = constant_pposet(new_poset("uv", [("u", "v")]), 0)
        X = constant_pposet(new_poset("pq", []), 0)
        f = pmap(X, Y, [{"p": "u", "q": "v"}])
        tu, tv = tracks(Y)
        over_u, over_v = fibers(f, [tu, tv])
        assert over_u.components[0].elements == ("p",)
        # The preimage of v's down-set is the antichain {p, q}: not connected, so its defect is INF.
        assert (over_v.components[0].elements, over_v.components[0].relation) == (("p", "q"), frozenset())
        assert fiber_defects(f) == {tu: 0, tv: INF}

    def test_identity_fiber_is_weak_downset(self):
        P = new_poset("abc", [("a", "b"), ("b", "c")])
        pp = constant_pposet(P, 1)
        for t, fib in zip(tracks(pp), fibers(identity(pp), tracks(pp))):
            weak = [tuple(e for e in P.elements if P.leq(e, v)) for v in t.trajectory]
            assert [c.elements for c in fib.components] == weak

    def test_constant_map_fiber_is_everything(self):
        X = constant_pposet(new_poset("ab", [("a", "b")]), 0)
        Y = constant_pposet(new_poset("p", []), 0)
        f = pmap(X, Y, [{"a": "p", "b": "p"}])
        (t,) = tracks(Y)
        assert fibers(f, [t])[0].components[0].elements == ("a", "b")


class TestCylinderAndChains:
    def test_single_track_cylinder_is_constant_chain(self):
        X = pposet([("a", []), ("a", [])], [{"a": "a"}])
        Y = constant_pposet(new_poset("b", []), 1)
        f = pmap(X, Y, [{"a": "b"}, {"a": "b"}])
        M = persistence_mapping_cylinder(f)
        for c in M.components:
            assert c.elements == ("X:a", "Y:b")
            assert c.relation == frozenset({("X:a", "Y:b")})

    def test_empty_source(self):
        X = pposet([([], [])], [])
        Y = constant_pposet(new_poset("b", []), 0)
        f = pmap(X, Y, [{}])
        M = persistence_mapping_cylinder(f)
        assert M.components[0].elements == ("Y:b",)
        target_chain, source_chain = reference.chain_members(chain_filtrations(f))
        assert len(target_chain) == 1
        assert len(source_chain) == 2
        assert all(not c.elements for c in source_chain[-1].components)

    def test_one_track_each(self):
        X = constant_pposet(new_poset("a", []), 0)
        Y = constant_pposet(new_poset("b", []), 0)
        f = pmap(X, Y, [{"a": "b"}])
        target_chain, source_chain = reference.chain_members(chain_filtrations(f))
        assert len(target_chain) == 2
        assert len(source_chain) == 2
        assert target_chain[-1].components[0].elements == ("X:a", "Y:b")

    def test_merging_tracks_truncate_removals(self):
        X = pposet([(["a", "b"], []), ("z", [])], [{"a": "z", "b": "z"}])
        Y = constant_pposet(new_poset("p", []), 1)
        f = pmap(X, Y, [{"a": "p", "b": "p"}, {"z": "p"}])
        chains = chain_filtrations(f)
        first, second = chains.target_steps
        assert first.removed == ("X:a", "X:z")
        assert second.removed == ("X:b", None)
        assert second.track.trajectory == ("X:b", "X:z")
        # complements stay closed at every step by construction
        for step in chains.target_steps + chains.source_steps:
            assert step.larger.T == step.smaller.T

    def test_chain_members_are_subposets(self):
        X = pposet(
            [(["a", "b"], [("a", "b")]), (["z", "w"], [("z", "w")])],
            [{"a": "z", "b": "w"}],
        )
        Y = pposet([("u", []), (["u", "v"], [("u", "v")])], [{"u": "u"}])
        f = pmap(X, Y, [{"a": "u", "b": "u"}, {"z": "u", "w": "u"}])
        chains = chain_filtrations(f)
        target_chain, source_chain = reference.chain_members(chains)
        for member in target_chain + source_chain:
            validate(member)
        assert [c.elements for c in target_chain[-1].components] == [
            c.elements for c in chains.cylinder.components
        ]
        assert [c.elements for c in source_chain[-1].components] == [
            tuple("X:" + e for e in c.elements) for c in X.components
        ]


def test_comparison_set_uses_full_trajectory():
    pp = pposet([(["a", "b"], [("a", "b")]), (["z", "w"], [("z", "w")])],
                [{"a": "z", "b": "w"}])
    assert row_sets(pp, ["b", "w"]) == {"below": [{"a"}, {"z"}], "above": [set(), set()]}
    assert row_sets(pp, ["a", "z"]) == {"below": [set(), set()], "above": [{"b"}, {"w"}]}


def test_ordinal_sum_and_top_degree():
    pp = constant_pposet(new_poset("ab", [("a", "b")]), 1)
    empty = pposet([([], []), (["x"], [])], [{}])
    total = ordinal_sum(pp, empty)
    assert total.components[0].elements == ("A:a", "A:b")
    assert total.components[1].elements == ("A:a", "A:b", "B:x")
    assert ("A:a", "B:x") in total.components[1].relation and ("A:b", "B:x") in total.components[1].relation
    assert total.maps[0] == {"A:a": "A:a", "A:b": "A:b"}
    assert top_degree(pp) == 1
    assert top_degree(total) == 2
    assert top_degree(pposet([([], [])], [])) == 0
    with pytest.raises(ShapeMismatch):
        ordinal_sum(pp, constant_pposet(new_poset("x", []), 2))


TIERS = ("S", "M")


@pytest.mark.parametrize("tier", TIERS)
def test_track_trajectories_are_rows(tier):
    """Every track of the source, the target and the cylinder is a row of T+1 values, None exactly before birth.

    Each value maps to the next under the structure maps, and the label
    names the birth index and the value there.
    """

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def check(seed):
        f = instance(tier, seed)
        for pp in (f.source, f.target, persistence_mapping_cylinder(f)):
            for t in tracks(pp):
                assert len(t.trajectory) == pp.T + 1
                assert [v is None for v in t.trajectory] == [i < t.birth for i in range(pp.T + 1)]
                for i in range(t.birth, pp.T):
                    assert pp.maps[i][t.trajectory[i]] == t.trajectory[i + 1]
                assert t.label == f"{t.birth}:{t.trajectory[t.birth]}"

    check()


@pytest.mark.parametrize("tier", TIERS)
def test_restricted_pposets_pass_validate(tier):
    """Every persistence subposet built without validate would pass it.

    Every comparison set of every step whose status is not infinite is
    built as the puncture step builds it, off its row_sets, and each is
    then validated, with the first member of each chain and every step's
    complement, which reference.complement builds through the reference
    restrict.  Fibers and weak up-sets are closed by naturality and built
    as sub-towers: each is validated directly and checked, slice by slice
    and map by map, against reference.fiber and
    reference.up_set_of_image_track, which check closure first.  The
    chain members skip validate too; tests/test_poset_fast_paths.py
    validates every one of them.
    """

    def shape(pp):
        return [(c.elements, c.relation) for c in pp.components], list(pp.maps)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def check(seed):
        f = instance(tier, seed)
        chains = chain_filtrations(f)
        built = [chains.target_steps[0].smaller, chains.source_steps[-1].smaller]
        subposets = []
        for step in chains.target_steps + chains.source_steps:
            pp, row = step.larger, step.track.trajectory
            sets = row_sets(pp, row)
            for direction in ("below", "above"):
                if comparison_status(pp, sets[direction]) != "infinite":
                    side = _sub_tower(pp, pp, sets[direction], range(pp.T + 1))
                    subposets.append((side, reference.comparison_set(pp, row, direction)))
            built.append(reference.complement(step.larger, step.removed))
        assert subposets
        subposets += [
            (fib, reference.fiber(f, y)) for y, fib in zip(tracks(f.target), fibers(f, tracks(f.target)))
        ]
        rows = [[None if v is None else f.slices[i][v] for i, v in enumerate(tr.trajectory)] for tr in tracks(f.source)]
        subposets += [
            (upset, reference.up_set_of_image_track(f.target, row))
            for row, upset in zip(rows, up_sets_of_image_tracks(f.target, rows))
        ]
        for pp in built:
            validate(pp)
        for pp, expected in subposets:
            validate(pp)
            assert shape(pp) == shape(expected)

    check()


@pytest.mark.parametrize("tier", TIERS)
def test_cylinders_and_ordinal_sums_pass_validate(tier):
    """persistence_mapping_cylinder and ordinal_sum build without validate; each result would pass it.

    The ordinal sums pair the source, the target, the cylinder and the
    fibers, whose empty prefixes differ from their partners'.
    """

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def check(seed):
        f = instance(tier, seed)
        cylinder = persistence_mapping_cylinder(f)
        validate(cylinder)
        pairs = [(f.source, f.target), (f.target, f.source), (cylinder, f.source)]
        for A, B in pairs + [(reference.fiber(f, y), f.target) for y in tracks(f.target)]:
            validate(ordinal_sum(A, B))
            validate(ordinal_sum(B, A))

    check()
