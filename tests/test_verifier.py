from unittest import mock

import pytest

from persposet import pposets
from persposet.cli import main
from persposet.documents import canonical_json, parse_instance
from persposet.errors import HypothesisUnmet, ValidationError
from persposet.homology import FieldSpec
from persposet.modules import INF
from persposet.posets import new_poset
from persposet.pposets import PersistenceMap, PersistencePoset, fibers, top_degree, tracks
from persposet.verifier import (
    MAX_KMAX,
    _step_violation,
    chain_puncture_suite,
    fiber_defects,
    verify_cylinder_retraction,
    verify_join_acyclicity,
    verify_split_ses_properties,
    verify_theorem,
)
from reference import acyclicity_defect, complement, constant_pposet, order_complex_tower, puncture_step
from tiers import instance

F2 = FieldSpec(2)
F3 = FieldSpec(3)


def pposet(components, maps):
    comps = [new_poset(els, pairs) for els, pairs in components]
    return PersistencePoset(tuple(comps), tuple(dict(m) for m in maps))


def pmap(x, y, slices):
    return PersistenceMap(x, y, tuple(dict(s) for s in slices))


def identity_instance(pp):
    return pmap(pp, pp, [{e: e for e in pp.components[i].elements} for i in range(pp.T + 1)])


S = new_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
S_TOP = new_poset("abcdt", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
                            ("c", "t"), ("d", "t"), ("a", "t"), ("b", "t")])


def s_to_point_instance():
    X = PersistencePoset((S, S_TOP), ({e: e for e in S.elements},))
    Y = constant_pposet(new_poset("p", []), 1)
    return pmap(X, Y, [{e: "p" for e in S.elements}, {e: "p" for e in S_TOP.elements}])


class TestFiberDefects:
    def test_identity_on_chain_all_zero(self):
        pp = constant_pposet(new_poset("abc", [("a", "b"), ("b", "c")]), 1)
        defects = fiber_defects(identity_instance(pp), F2)
        assert all(v == 0 for v in defects.values())

    def test_circle_to_point(self):
        defects = fiber_defects(s_to_point_instance(), F2)
        assert list(defects.values()) == [1]

    def test_empty_fiber_infinite(self):
        # nothing maps below u, so its fiber is empty at every index
        X = constant_pposet(new_poset("x", []), 0)
        Y = constant_pposet(new_poset(["u", "v"], []), 0)
        f = pmap(X, Y, [{"x": "v"}])
        defects = {t.initial: v for t, v in fiber_defects(f, F2).items()}
        assert defects["u"] == INF and defects["v"] == 0

    def test_an_empty_last_preimage_is_built_empty_and_vacuous(self, tmp_path, capsys):
        """Nothing maps to or below u at either index: the fiber over u is built, empty in every slice, and INF."""

        def antichains(elements):
            return {"components": [{"elements": elements, "pairs": []}] * 2, "maps": [{e: e for e in elements}]}

        doc = {"schema": "instance/1", "T": 1, "x": antichains(["x"]), "y": antichains(["u", "v"])}
        doc["map"] = [{"x": "v"}] * 2
        f = parse_instance(doc).map
        ys = tracks(f.target)
        over = {y.initial: fib for y, fib in zip(ys, fibers(f, ys))}
        assert [c.is_empty() for c in over["u"].components] == [True, True]
        assert {t.initial: v for t, v in fiber_defects(f, F2).items()} == {"u": INF, "v": 0}
        path = tmp_path / "instance.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        assert main(["verify", str(path)]) == 1
        assert "verdict: vacuous" in capsys.readouterr().out


class TestVerifyTheorem:
    def test_circle_to_point_holds(self):
        cert = verify_theorem(s_to_point_instance(), F2)
        assert cert.m == 1 and cert.epsilon == 1 and cert.bound == 4
        assert cert.distances[1] == 1
        assert cert.verdict == "holds"
        assert cert.ratio == pytest.approx(0.25)

    def test_classical_degeneration_requires_equality(self):
        # T=0, identity: eps = 0 so bound = 0 and distances must vanish
        pp = constant_pposet(S, 0)
        cert = verify_theorem(identity_instance(pp), F3)
        assert cert.epsilon == 0 and cert.bound == 0
        assert all(d == 0 for d in cert.distances.values())
        assert cert.verdict == "holds"

    def test_identity_holds_trivially(self):
        pp = constant_pposet(new_poset("ab", [("a", "b")]), 2)
        cert = verify_theorem(identity_instance(pp), F2)
        assert cert.epsilon == 0 and cert.verdict == "holds"
        assert all(d == 0 for d in cert.distances.values())

    def test_vacuous_when_fiber_empty(self):
        X = constant_pposet(new_poset("x", []), 0)
        Y = constant_pposet(new_poset(["u", "v"], []), 0)
        cert = verify_theorem(pmap(X, Y, [{"x": "v"}]), F2)
        assert cert.verdict == "vacuous"
        assert cert.bound == INF

    def test_deterministic(self):
        c1 = verify_theorem(s_to_point_instance(), F2)
        c2 = verify_theorem(s_to_point_instance(), F2)
        assert c1.distances == c2.distances and c1.fiber_eps == c2.fiber_eps


def both_outcomes(pp, removal):
    """Remove a row that is also the trajectory: what reference.puncture_step and _step_violation return.

    Each is HypothesisUnmet where that step raises it.
    """
    smaller, k_max = complement(pp, removal), top_degree(pp)
    outcomes = []
    steps = (
        lambda: puncture_step(pp, smaller, removal, F2, k_max),
        lambda: _step_violation(pp, smaller, removal, removal, F2, k_max),
    )
    for step in steps:
        try:
            outcomes.append(step())
        except HypothesisUnmet:
            outcomes.append(HypothesisUnmet)
    return outcomes


class TestPunctureLemma:
    def test_remove_top_of_constant_chain(self):
        pp = constant_pposet(new_poset("at", [("a", "t")]), 1)
        (below, above, distances), outcome = both_outcomes(pp, ["t", "t"])
        assert min(below, above) == 0
        assert all(d == 0 for d in distances.values())
        assert outcome is None

    def test_hypothesis_unmet(self):
        # isolated point in an antichain: both comparison sets are empty forever
        pp = constant_pposet(new_poset(["a", "b"], []), 0)
        assert both_outcomes(pp, ["b"]) == [HypothesisUnmet, HypothesisUnmet]

    def test_bound_on_growing_example(self):
        # remove a circle vertex once the top has appeared: the up-set side
        # is empty then a point, so eps = 1 and the distances stay within 4
        X = PersistencePoset((S, S_TOP), ({e: e for e in S.elements},))
        (below, above, distances), outcome = both_outcomes(X, ["c", "c"])
        assert above == 1 and min(below, above) == 1
        assert distances[1] == 1
        assert outcome is None

    def test_apex_removal_hypothesis_unmet(self):
        # below the apex sits a circle forever, above it nothing: no side
        # ever becomes acyclic, so the statement does not apply
        X = PersistencePoset((S, S_TOP), ({e: e for e in S.elements},))
        assert both_outcomes(X, [None, "t"]) == [HypothesisUnmet, HypothesisUnmet]


class TestJoinAcyclicity:
    def test_cone_with_point(self):
        A = constant_pposet(new_poset("p", []), 1)
        B = constant_pposet(S, 1)
        report = verify_join_acyclicity(A, B, F2)
        assert report.epsilon == 0 and report.join_defect == 0
        assert report.kunneth_ok and report.ok

    def test_sphere_factor_dimension_identity(self):
        # one acyclic factor joined with a two-point sphere: the slicewise
        # dimension identity is checked across every degree of the join
        A = constant_pposet(new_poset("at", [("a", "t")]), 0)
        B = constant_pposet(new_poset(["b1", "b2"], []), 0)
        report = verify_join_acyclicity(A, B, F2)
        assert report.kunneth_ok and report.ok

    def test_defect_one_side(self):
        # A's classifying space is a circle that gets coned off: defect 1
        A = PersistencePoset((S, S_TOP), ({e: e for e in S.elements},))
        B = constant_pposet(new_poset(["u", "v"], []), 1)
        report = verify_join_acyclicity(A, B, F2)
        assert report.epsilon == 1
        assert report.join_defect <= 1 and report.ok

    def test_hypothesis_unmet(self):
        A = constant_pposet(new_poset(["a1", "a2"], []), 0)
        with pytest.raises(HypothesisUnmet):
            verify_join_acyclicity(A, A, F2)


class TestCylinderRetraction:
    def test_empty_source(self):
        X = pposet([([], []), ([], [])], [{}])
        Y = constant_pposet(new_poset("ab", [("a", "b")]), 1)
        report = verify_cylinder_retraction(pmap(X, Y, [{}, {}]), F2)
        assert report.ok and all(d == 0 for d in report.distances.values())

    def test_one_track_over_one_track(self):
        X = constant_pposet(new_poset("x", []), 1)
        Y = constant_pposet(new_poset("y", []), 1)
        f = pmap(X, Y, [{"x": "y"}, {"x": "y"}])
        report = verify_cylinder_retraction(f, F2)
        assert report.ok

    def test_circle_instance(self):
        report = verify_cylinder_retraction(s_to_point_instance(), F3)
        assert report.ok and report.cone_steps_ok

    @pytest.mark.parametrize("seed", range(20))
    def test_cone_checks_build_one_table_per_slice(self, seed):
        """A run builds T + 1 weak up-set tables for the cylinder's cross pairs and at most T + 1 for its cone checks.

        Not one set of tables per source track: the up-sets of every
        track's image are read off the same tables.
        """
        f = instance("M", seed)
        with mock.patch.object(pposets, "weak_sets", wraps=pposets.weak_sets) as tables:
            verify_cylinder_retraction(f, F2)
        assert tables.call_count <= 2 * (f.T + 1)


class TestChainSuite:
    def test_circle_instance_no_violations(self):
        suite = chain_puncture_suite(s_to_point_instance(), F2)
        assert suite.ok and suite.checked > 0

    def test_identity_instance(self):
        pp = constant_pposet(new_poset("abc", [("a", "b"), ("b", "c")]), 1)
        suite = chain_puncture_suite(identity_instance(pp), F2)
        assert suite.ok


class TestSesSuite:
    def test_seeded_run_clean(self):
        report = verify_split_ses_properties(seed=123, count=150, field=F2)
        assert report.ok and report.cases == 150

    def test_seeded_run_clean_p3(self):
        report = verify_split_ses_properties(seed=321, count=60, field=F3)
        assert report.ok


def test_poset_acyclicity_defect_of_cone():
    def poset_defect(pp):
        return acyclicity_defect(order_complex_tower(pp), F2, top_degree(pp))

    assert poset_defect(constant_pposet(new_poset("at", [("a", "t")]), 1)) == 0
    assert poset_defect(pposet([([], [])], [])) == INF


def join_of_chains(f, field, k_max):
    chain = constant_pposet(new_poset("ab", [("a", "b")]), f.T)
    return verify_join_acyclicity(chain, chain, field, k_max)


K_MAX_ROUTINES = pytest.mark.parametrize(
    "check",
    [fiber_defects, verify_theorem, join_of_chains, verify_cylinder_retraction, chain_puncture_suite],
    ids=["fibers", "theorem", "join", "cylinder", "chains"],
)


@K_MAX_ROUTINES
def test_negative_k_max_is_rejected(check):
    """A negative k_max compares no degree, so no routine may return a verdict for it."""
    f = instance("S", 0)
    check(f, F2, 0)
    with pytest.raises(ValidationError, match="k_max must be at least 0"):
        check(f, F2, -1)


@K_MAX_ROUTINES
def test_k_max_above_the_cli_bound_is_rejected(check):
    """The library takes the --kmax bound of the CLI: MAX_KMAX is accepted, one more is not."""
    f = instance("S", 0)
    check(f, F2, MAX_KMAX)
    with pytest.raises(ValidationError, match=f"k_max must be at most {MAX_KMAX}, got {MAX_KMAX + 1}"):
        check(f, F2, MAX_KMAX + 1)
