"""End-to-end verification of the interleaving bound and its lemma chain.

The main certificate compares, degree by degree, the homology of the
classifying spaces of a map's source and target against the bound
4 * m * eps, where m counts the target's element tracks and eps is the
worst acyclicity defect among the fibers.  The remaining routines check
the supporting statements: the puncture step, join acyclicity, the
cylinder retraction, and the split/exact sequence bounds.

Every barcode of a persistence poset, the certificate's and the join
lemma's included, comes from homology.pposet_barcodes, which computes it
on the slicewise beat-point cores, with the same barcodes, reducing
each distinct core at most once per field.  The join of two towers is
the tower of their ordinal sum.  The certificate's rank table comes from
homology.induced_ranks.  The cylinder's cone check and the join lemma's
Kunneth identity read barcodes too: a tower of cones has the barcode of
a point, and the bars through an index count the Betti numbers of that
slice.  So this module builds no complex.

Every fiber is built, and _defect reads each one's value off its
barcodes: INF whenever the degree-0 barcode does not have exactly one
essential bar, as for a fiber whose last slice is empty or disconnected.
The puncture step (_step_violation) reads its track's row once
(pposets.row_sets) and asks every question of those sets.  It builds a
side only when the outcome depends on its value, and a step that
removes only weak points asks for no barcode.  The distance
of degree 0 to a point is read in closed form
(modules.point_comparison_defect), with no matching search.

Every routine takes k_max from 0 to MAX_KMAX, or None for the top
degree of its towers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import HypothesisUnmet, ValidationError
from .homology import FieldSpec, induced_ranks, pposet_barcodes
from .modules import (
    INF,
    Barcode,
    PersistenceModule,
    barcode,
    bottleneck_distance,
    direct_sum,
    module_from_barcode,
    point_comparison_defect,
    random_module,
    triviality_defect,
)
from .pposets import (
    ElementTrack,
    PersistenceMap,
    PersistencePoset,
    _sub_tower,
    chain_filtrations,
    comparison_status,
    fibers,
    ordinal_sum,
    persistence_mapping_cylinder,
    removes_weak_points,
    row_sets,
    top_degree,
    tracks,
    up_sets_of_image_tracks,
)

DEFAULT_FIELD = FieldSpec(2)

# Largest accepted k_max.  Homology in degree k needs a chain of k + 1
# elements in a core slice, whose order complex has 2**(k + 1) - 1
# simplices, so no instance that can be computed has a class in degree 256;
# the bound keeps the per-degree lists of barcodes and ranks small.  The
# CLI bounds --kmax by it too.
MAX_KMAX = 256


def _defect(codes: list[Barcode]) -> int | float:
    """Least eps such that the barcodes, indexed by degree from 0, are eps-close to a point.

    Degree 0 is compared against the constant point module; every higher
    degree must be eps-trivial.  INF when no finite eps works, and so
    whenever degree 0 has no essential bar or more than one: when the
    last slice is empty or disconnected.
    """
    worst = point_comparison_defect(codes[0])
    for code in codes[1:]:
        if code:  # an empty barcode is 0-trivial
            worst = max(worst, triviality_defect(code))
    return worst


def _distances(codes_a: list[Barcode], codes_b: list[Barcode]) -> dict[int, int | float]:
    """Bottleneck distance of two lists of barcodes, indexed by degree, in each degree."""
    return {k: bottleneck_distance(a, b) for k, (a, b) in enumerate(zip(codes_a, codes_b))}


def _degree(k_max: int | None, *towers: PersistencePoset) -> int:
    """k_max, or the largest top degree of towers for None.

    A negative k_max compares no degree, and one above MAX_KMAX only
    adds empty degrees at a cost linear in k_max, so both are rejected.
    """
    if k_max is not None and k_max < 0:
        raise ValidationError(f"k_max must be at least 0, got {k_max}")
    if k_max is not None and k_max > MAX_KMAX:
        raise ValidationError(f"k_max must be at most {MAX_KMAX}, got {k_max}")
    return max(top_degree(pp) for pp in towers) if k_max is None else k_max


def fiber_defects(
    f: PersistenceMap, field: FieldSpec = DEFAULT_FIELD, k_max: int | None = None
) -> dict[ElementTrack, int | float]:
    """Acyclicity defect of the fiber over every track of the target.

    Every fiber is built, in track order, each from the one before it
    (pposets.fibers); one whose last slice is empty or disconnected gets
    INF from _defect.
    """
    k_max = _degree(k_max, f.source)
    ys = tracks(f.target)
    return {y: _defect(pposet_barcodes(fib, field, k_max)) for y, fib in zip(ys, fibers(f, ys))}


@dataclass(eq=False)
class TheoremCertificate:
    """Everything needed to audit one run of the main bound."""

    field: FieldSpec
    k_max: int
    m: int
    fiber_eps: dict[str, int | float]
    epsilon: int | float
    bound: int | float
    distances: dict[int, int | float]
    verdict: str  # holds | violated | vacuous
    ratio: float | None
    induced_ranks: dict[int, list[int]]
    schema: str = "certificate/1"


def verify_theorem(
    f: PersistenceMap, field: FieldSpec = DEFAULT_FIELD, k_max: int | None = None
) -> TheoremCertificate:
    """Compare max_k d_k against 4 * m * eps for a validated instance.

    When some fiber has infinite defect the hypothesis fails and the
    verdict is "vacuous".  The induced map of the instance on homology
    is reported as a per-slice rank table (homology.induced_ranks); the
    bound itself only claims existence of an interleaving, so the verdict
    ignores it.
    """
    k_max = _degree(k_max, f.source, f.target)
    defects = fiber_defects(f, field, k_max)
    m = len(defects)
    epsilon: int | float = max(defects.values(), default=0)
    bound: int | float = INF if epsilon == INF else 4 * m * epsilon

    distances = _distances(pposet_barcodes(f.source, field, k_max), pposet_barcodes(f.target, field, k_max))
    ranks = [
        induced_ranks(X, Y, g, field, k_max) for X, Y, g in zip(f.source.components, f.target.components, f.slices)
    ]

    max_d = max(distances.values(), default=0)
    if epsilon == INF:
        verdict = "vacuous"
    elif max_d <= bound:
        verdict = "holds"
    else:
        verdict = "violated"
    ratio = None
    if epsilon != INF and bound > 0 and max_d != INF:
        ratio = max_d / bound
    return TheoremCertificate(
        field=field,
        k_max=k_max,
        m=m,
        fiber_eps={t.label: v for t, v in defects.items()},
        epsilon=epsilon,
        bound=bound,
        distances=distances,
        verdict=verdict,
        ratio=ratio,
        induced_ranks={k: [r[k] for r in ranks] for k in range(k_max + 1)},
    )


_DIRECTIONS = ("below", "above")


def _side_defect(pp: PersistencePoset, sets, direction: str, field: FieldSpec, k_max: int) -> int | float:
    """The defect of a row's comparison set in direction, built off the row's sets, whose status is not infinite."""
    return _defect(pposet_barcodes(_sub_tower(pp, pp, sets[direction], range(pp.T + 1)), field, k_max))


def _step_violation(
    larger: PersistencePoset, smaller: PersistencePoset, removed, trajectory, field: FieldSpec, k_max: int
) -> str | None:
    """The puncture bound at one step from larger to smaller, larger minus removed: None when it holds, else why not.

    eps is the smaller defect of the strict down- and up-set of the full
    trajectory in larger, all read off one pposets.row_sets, with the
    least work that decides the outcome.  An infinite side is never
    built.  A finite side means the hypothesis holds, and when every
    distance is 0 the bound holds for every finite eps, so no side is
    built.  Undecided sides are built when no side is finite; every side
    that is not infinite is built when a distance is positive, for the
    exact eps that the bound and the message need.  Raises
    HypothesisUnmet when both sides are INF.  The members' barcodes are
    asked for only once the hypothesis holds, and not at all when the
    step removes only weak points (pposets.removes_weak_points): every
    distance is then 0.
    """
    sets = row_sets(larger, trajectory)
    status = {d: comparison_status(larger, sets[d]) for d in _DIRECTIONS}
    open_sides = [d for d in _DIRECTIONS if status[d] != "infinite"]
    defects: dict[str, int | float] = {}
    if "finite" not in status.values():
        defects = {d: _side_defect(larger, sets, d, field, k_max) for d in open_sides}
        if min(defects.values(), default=INF) == INF:
            raise HypothesisUnmet("both comparison sets have infinite acyclicity defect")
    if removes_weak_points(larger, removed, sets):
        return None
    distances = _distances(pposet_barcodes(larger, field, k_max), pposet_barcodes(smaller, field, k_max))
    if all(d == 0 for d in distances.values()):
        return None
    for d in open_sides:
        if d not in defects:
            defects[d] = _side_defect(larger, sets, d, field, k_max)
    bound = 4 * min(defects.values())
    if all(d <= bound for d in distances.values()):
        return None
    return f"distances {distances} exceed bound {bound}"


@dataclass(eq=False)
class JoinReport:
    epsilon: int | float
    join_defect: int | float
    kunneth_ok: bool
    ok: bool


def verify_join_acyclicity(
    ppA: PersistencePoset,
    ppB: PersistencePoset,
    field: FieldSpec = DEFAULT_FIELD,
    k_max: int | None = None,
) -> JoinReport:
    """The slicewise join of towers inherits the better acyclicity defect.

    The join of the factors' order-complex towers is the tower of their
    ordinal sum, so all three defects are read off pposet_barcodes.  Also
    asserts the field coefficient join dimension identity at every slice,
    on the same barcodes: reduced Betti numbers of the join are the
    convolution of the factors' reduced Betti numbers (degree -1 of an
    empty complex counts as 1).  The ordinal sum's barcodes are asked for
    once, in every degree it has and up to k_max.
    """
    if ppA.T != ppB.T:
        raise HypothesisUnmet("inputs must have the same length")
    joined = ordinal_sum(ppA, ppB)
    k_max = _degree(k_max, joined)
    codes_a, codes_b = (pposet_barcodes(pp, field, top_degree(pp)) for pp in (ppA, ppB))
    eps = min(_defect(codes_a), _defect(codes_b))
    if eps == INF:
        raise HypothesisUnmet("neither factor has a finite acyclicity defect")

    codes = pposet_barcodes(joined, field, max(k_max, top_degree(joined)))
    join_defect = _defect(codes[: k_max + 1])

    kunneth_ok = all(
        _is_join_of(_reduced_bettis(codes_a, i), _reduced_bettis(codes_b, i), _reduced_bettis(codes, i))
        for i in range(joined.T + 1)
    )
    ok = join_defect <= eps and kunneth_ok
    return JoinReport(epsilon=eps, join_defect=join_defect, kunneth_ok=kunneth_ok, ok=ok)


def _reduced_bettis(codes: list[Barcode], i: int) -> list[int]:
    """Reduced Betti numbers of slice i in degrees -1, 0, 1, ..., off its tower's barcodes by degree.

    The bars through i count H_k of slice i.  A slice is empty exactly
    when it has no degree-0 bar, so degree -1 is 1 there, and degree 0
    loses one on a nonempty slice.
    """
    betti = [code.count_through(i, i) for code in codes]
    return [int(betti[0] == 0), max(betti[0] - 1, 0), *betti[1:]]


def _is_join_of(a: list[int], b: list[int], joined: list[int]) -> bool:
    """Whether reduced Betti numbers listed from degree -1 satisfy the join identity.

    dim H~_{g+1}(A * B) is the sum of dim H~_i(A) dim H~_j(B) over i + j = g
    from -1 up; counted from degree -1 that is a plain convolution.  The
    identity is checked in the degrees joined covers, which must reach the
    join's top degree; above it both sides vanish.
    """
    expected = [sum(x * b[n - m] for m, x in enumerate(a) if 0 <= n - m < len(b)) for n in range(len(joined))]
    return expected == joined


@dataclass(eq=False)
class CylinderReport:
    distances: dict[int, int | float]
    cone_steps_ok: bool
    ok: bool


def verify_cylinder_retraction(
    f: PersistenceMap, field: FieldSpec = DEFAULT_FIELD, k_max: int | None = None
) -> CylinderReport:
    """The cylinder of a map has the homology of the target, at distance 0.

    Additionally checks that every growing-chain step sits over a cone:
    the weak up-set in the target of the removed track's image has the
    barcodes of a point born with the track.
    """
    cylinder = persistence_mapping_cylinder(f)
    k_max = _degree(k_max, cylinder)
    distances = _distances(pposet_barcodes(cylinder, field, k_max), pposet_barcodes(f.target, field, k_max))

    sources = tracks(f.source)
    rows = [[None if v is None else f.slices[i][v] for i, v in enumerate(tr.trajectory)] for tr in sources]
    upsets = up_sets_of_image_tracks(f.target, rows)
    cone_steps_ok = all(
        _is_point_from(pposet_barcodes(upset, field, k_max), tr.birth) for tr, upset in zip(sources, upsets)
    )
    ok = all(d == 0 for d in distances.values()) and cone_steps_ok
    return CylinderReport(distances=distances, cone_steps_ok=cone_steps_ok, ok=ok)


def _is_point_from(codes: list[Barcode], birth: int) -> bool:
    """Whether barcodes, indexed by degree, are those of a point born at birth.

    They are exactly when every slice from birth on is nonempty with
    vanishing reduced homology in the degrees given, and every earlier
    slice is empty.
    """
    return codes[0] == Barcode.of([(birth, INF)]) and not any(codes[1:])


@dataclass(eq=False)
class ChainSuiteReport:
    checked: int
    trivial: int
    skipped: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def chain_puncture_suite(
    f: PersistenceMap, field: FieldSpec = DEFAULT_FIELD, k_max: int | None = None
) -> ChainSuiteReport:
    """Run the puncture bound at every step of both interpolation chains.

    Every step removes at least its track's first value (pposets._grow),
    so the trivial count, of steps that remove nothing, is always 0.
    Steps whose hypothesis cannot be evaluated (both comparison sets fail
    to be subposets or have infinite defect) are counted as skipped.

    A step's smaller member is its complement.  Each chain member is the
    larger side of one step and the smaller side of the next, and the
    members, their complements and comparison sets share many slices;
    posets.core finds each distinct slice's core once, and
    pposet_barcodes reduces each distinct core at most once per field.
    """
    chains = chain_filtrations(f)
    k_max = _degree(k_max, chains.cylinder)
    checked = skipped = 0
    violations: list[str] = []

    for name, steps in (("grow", chains.target_steps), ("shrink", chains.source_steps)):
        for idx, step in enumerate(steps):
            try:
                violation = _step_violation(
                    step.larger, step.smaller, step.removed, step.track.trajectory, field, k_max
                )
            except HypothesisUnmet:
                skipped += 1
                continue
            checked += 1
            if violation is not None:
                violations.append(f"{name} step {idx} (track {step.track.label}): {violation}")
    return ChainSuiteReport(checked=checked, trivial=0, skipped=skipped, violations=violations)


@dataclass(eq=False)
class SesReport:
    cases: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def _random_trivial_module(rng: random.Random, field: FieldSpec, T: int, eps: int) -> PersistenceModule:
    """Random module whose triviality defect is at most eps."""
    bars = []
    if eps > 0 and T >= 1:
        for _ in range(rng.randint(0, 3)):
            b = rng.randint(0, T - 1)
            length = rng.randint(1, min(2 * eps, T - b))
            bars.append((b, b + length))
    return module_from_barcode(field, T, bars)


def verify_split_ses_properties(seed: int, count: int, field: FieldSpec = DEFAULT_FIELD) -> SesReport:
    """Property suite for the split and exact sequence bounds.

    For random same-length summands M, N and L = M (+) N it checks the
    sum bound, both restriction bounds, and the two 2*eps comparison
    bounds.  It then synthesizes an exact sequence K -> K(+)C -> C(+)I -> I
    with eps-trivial ends and checks the 4*eps middle bound.
    """
    rng = random.Random(seed)
    violations: list[str] = []
    for case in range(count):
        T = rng.randint(0, 5)
        M = random_module(rng, field, max_dim=3, T=T)
        N = random_module(rng, field, max_dim=3, T=T)
        code_m, code_n, code_l = barcode(M), barcode(N), barcode(direct_sum(M, N))
        e1, e2, el = triviality_defect(code_m), triviality_defect(code_n), triviality_defect(code_l)
        if el > e1 + e2:
            violations.append(f"case {case}: defect(L)={el} > {e1}+{e2}")
        if e1 > el or e2 > el:
            violations.append(f"case {case}: summand defect exceeds defect(L)={el}")
        if e1 != INF and bottleneck_distance(code_l, code_n) > 2 * e1:
            violations.append(f"case {case}: d(L,N) > 2*{e1}")
        if e2 != INF and bottleneck_distance(code_m, code_l) > 2 * e2:
            violations.append(f"case {case}: d(M,L) > 2*{e2}")

        eps = rng.randint(0, 3)
        K = _random_trivial_module(rng, field, T, eps)
        I = _random_trivial_module(rng, field, T, eps)
        C = random_module(rng, field, max_dim=3, T=T)
        middle_left = direct_sum(K, C)
        middle_right = direct_sum(C, I)
        d = bottleneck_distance(barcode(middle_left), barcode(middle_right))
        if d > 4 * eps:
            violations.append(f"case {case}: exact-sequence middle distance {d} > 4*{eps}")
    return SesReport(cases=count, violations=violations)
