"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import random
import time

import pytest

import tiers
from persposet.documents import GeneratorLimits, parse_instance, random_instance, random_pposet
from persposet.errors import HypothesisUnmet
from persposet.homology import FieldSpec
from persposet.modules import INF, barcode, bottleneck_distance, random_module
from persposet.pposets import persistence_linear_extension
from persposet.verifier import (
    chain_puncture_suite,
    fiber_defects,
    verify_cylinder_retraction,
    verify_join_acyclicity,
    verify_split_ses_properties,
    verify_theorem,
)
from reference import (
    complex_top_degree,
    eps_trivial,
    from_simplices,
    homology_tower,
    interleaving_bruteforce,
    join,
    order_complex_tower,
    rank_invariant,
    reduced_dim,
)

MAIN_LIMITS = tiers.S
MAIN_COUNT = 500


def report(number, name, ok, detail=""):
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def main_batch():
    """>= 500 finite-eps instances with certificates, fields alternating 2 and 3."""
    kept = []
    elapsed = 0.0
    seed = 0
    while len(kept) < MAIN_COUNT and seed < 8000:
        field = FieldSpec(2 if seed % 2 == 0 else 3)
        t0 = time.time()
        inst = parse_instance(random_instance(seed, MAIN_LIMITS))
        cert = verify_theorem(inst.map, field)
        elapsed += time.time() - t0
        if cert.epsilon != INF:
            kept.append((seed, inst, field, cert))
        seed += 1
    return kept, elapsed, seed


def test_criterion_1_main_theorem(main_batch):
    kept, elapsed, seeds_used = main_batch
    violations = [(s, c.distances, c.bound) for s, _, _, c in kept if c.verdict != "holds"]
    ok = len(kept) >= MAIN_COUNT and not violations and elapsed <= 120
    report(
        1,
        "main theorem suite",
        ok,
        f"({len(kept)} finite-eps instances from {seeds_used} seeds, "
        f"{len(violations)} violations, {elapsed:.1f}s)",
    )


def test_criterion_2_classical_degeneration(main_batch):
    kept, _, _ = main_batch
    cases = [(inst, field, cert) for _, inst, field, cert in kept if cert.epsilon == 0]
    seed = 100_000
    zero_limits = GeneratorLimits(t_max=0, max_slice=6, max_y_tracks=4)
    while len(cases) < 100 and seed < 103_000:
        field = FieldSpec(2 if seed % 2 == 0 else 3)
        inst = parse_instance(random_instance(seed, zero_limits))
        if max(fiber_defects(inst.map, field).values(), default=0) == 0:
            cases.append((inst, field, None))
        seed += 1
    mismatches = 0
    for inst, field, _ in cases:
        tower_x = order_complex_tower(inst.x)
        tower_y = order_complex_tower(inst.y)
        k_top = max(tower_x.top_degree(), tower_y.top_degree(), 0)
        for k in range(k_top + 1):
            bx = barcode(homology_tower(tower_x, k, field))
            by = barcode(homology_tower(tower_y, k, field))
            if bx != by:
                mismatches += 1
    ok = len(cases) >= 100 and mismatches == 0
    report(2, "classical degeneration", ok, f"({len(cases)} eps=0 instances, {mismatches} barcode mismatches)")


@pytest.fixture(scope="module")
def module_batch():
    rng = random.Random(424242)
    out = []
    for i in range(1000):
        field = FieldSpec(2 if i % 2 == 0 else 3)
        out.append(random_module(rng, field, max_dim=4, T=rng.randint(0, 6)))
    return out


def test_criterion_3_barcode_correctness(module_batch):
    bad = 0
    for M in module_batch:
        code = barcode(M)  # raises InternalError on failure
        r = rank_invariant(M)
        for i in range(M.T + 1):
            for j in range(i, M.T + 1):
                if code.count_through(i, j) != r[i, j]:
                    bad += 1
    report(3, "barcode correctness", bad == 0, f"({len(module_batch)} modules, {bad} reconstruction failures)")


def test_criterion_4_interleaving_oracle():
    rng = random.Random(31337)
    mismatches = 0
    pairs = 0
    while pairs < 100:
        T = rng.randint(0, 3)
        M = random_module(rng, FieldSpec(2), max_dim=2, T=T)
        N = random_module(rng, FieldSpec(2), max_dim=2, T=T)
        pairs += 1
        d = bottleneck_distance(barcode(M), barcode(N))
        least = None
        for eps in range(0, T + 2):
            if interleaving_bruteforce(M, N, eps):
                least = eps
                break
        if d == INF:
            if least is not None:
                mismatches += 1
        elif least != d:
            mismatches += 1
    report(4, "interleaving oracle", mismatches == 0, f"({pairs} tiny pairs, {mismatches} mismatches)")


def test_criterion_5_triviality_dual_check(module_batch):
    # eps_trivial asserts internally that the barcode criterion equals
    # nilpotency of the 2*eps-fold composite; exercise every module and eps
    checked = 0
    for M in module_batch:
        for eps in range(0, M.T + 2):
            eps_trivial(M, eps)
            checked += 1
    report(5, "eps-triviality dual check", True, f"({checked} module/eps combinations)")


def _random_complex(rng, prefix, max_simplices=8):
    pool = [f"{prefix}{i}" for i in range(4)]
    chosen = []
    current = from_simplices([])
    for _ in range(6):
        cand = chosen + [rng.sample(pool, rng.randint(1, 3))]
        K = from_simplices(cand)
        if len(K.simplices) <= max_simplices:
            chosen = cand
            current = K
    return current


def test_criterion_6_join_kunneth():
    rng = random.Random(777)
    dim_failures = 0
    for case in range(200):
        field = FieldSpec(2 if case % 2 == 0 else 3)
        A = _random_complex(rng, "a")
        B = _random_complex(rng, "b")
        J = join(A, B)
        for g in range(complex_top_degree(J) + 2):
            expected = sum(
                reduced_dim(A, i, field) * reduced_dim(B, g - 1 - i, field)
                for i in range(-1, g + 1)
            )
            if reduced_dim(J, g, field) != expected:
                dim_failures += 1

    applicable = 0
    join_violations = 0
    for case in range(120):
        rng2 = random.Random(9000 + case)
        field = FieldSpec(2 if case % 2 == 0 else 3)
        T = rng2.randint(0, 3)
        A = random_pposet(rng2, T, 3, 3, name_prefix="a")
        B = random_pposet(rng2, T, 3, 3, name_prefix="b")
        try:
            rep = verify_join_acyclicity(A, B, field)
        except HypothesisUnmet:
            continue
        applicable += 1
        if not rep.ok:
            join_violations += 1
    ok = dim_failures == 0 and join_violations == 0 and applicable >= 30
    report(
        6,
        "join dimension identity and acyclicity",
        ok,
        f"(200 complex pairs, {dim_failures} dim failures; "
        f"{applicable} applicable join towers, {join_violations} violations)",
    )


def test_criterion_7_puncture_lemma(main_batch):
    kept, _, _ = main_batch
    checked = trivial = skipped = 0
    violations = []
    for seed, inst, field, _ in kept:
        suite = chain_puncture_suite(inst.map, field)
        checked += suite.checked
        trivial += suite.trivial
        skipped += suite.skipped
        violations += [f"seed {seed}: {v}" for v in suite.violations]
    ok = not violations and checked > 0
    report(
        7,
        "puncture lemma on chain filtrations",
        ok,
        f"({checked} steps checked, {trivial} trivial, {skipped} hypothesis-unmet, "
        f"{len(violations)} violations)",
    )


def test_criterion_8_cylinder_retraction(main_batch):
    kept, _, _ = main_batch
    failures = []
    for seed, inst, field, _ in kept:
        rep = verify_cylinder_retraction(inst.map, field)
        if not rep.ok:
            failures.append(seed)
    report(8, "cylinder retraction", not failures, f"({len(kept)} instances, {len(failures)} failures)")


def test_criterion_9_linear_extension(main_batch):
    kept, _, _ = main_batch
    problems = 0
    for _, inst, _, _ in kept:
        for pp in (inst.x, inst.y):
            orders = persistence_linear_extension(pp)
            if orders != persistence_linear_extension(pp):
                problems += 1
                continue
            for i, comp in enumerate(pp.components):
                pos = {e: r for r, e in enumerate(orders[i])}
                if set(orders[i]) != set(comp.elements) or len(orders[i]) != len(comp.elements):
                    problems += 1
                if any(pos[a] >= pos[b] for a, b in comp.relation):
                    problems += 1
            for i in range(pp.T):
                pos = {e: r for r, e in enumerate(orders[i])}
                nxt = {e: r for r, e in enumerate(orders[i + 1])}
                f = pp.maps[i]
                for a in pp.components[i].elements:
                    for b in pp.components[i].elements:
                        if pos[a] < pos[b] and nxt[f[a]] > nxt[f[b]]:
                            problems += 1
    report(9, "persistent linear extension", problems == 0, f"({2 * len(kept)} posets, {problems} problems)")


def test_criterion_10_split_exact_sequences():
    rep2 = verify_split_ses_properties(seed=2026, count=500, field=FieldSpec(2))
    rep3 = verify_split_ses_properties(seed=2027, count=500, field=FieldSpec(3))
    violations = rep2.violations + rep3.violations
    report(10, "split and exact sequence bounds", not violations, f"(1000 cases, {len(violations)} violations)")
