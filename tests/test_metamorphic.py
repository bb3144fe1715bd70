"""Metamorphic relations: a change to an instance or a tower that must not change its certificate or barcodes.

Renaming: every element is renamed through a bijection that reverses the
sort order of the names, in the elements, the pairs, the structure-map
tables and the slice-map tables.  The certificate is a function of the
isomorphism class of the instance, so every value that names no element
stays equal.  The relation exercises the tie-breaks by name order in
posets.core, the linear extensions and the track order.

Opposite: reversing every slice's relation, with the same structure
maps, gives a persistence poset pp^op whose maps are still monotone.  A
chain of P is a chain of P^op, so the order complexes are equal, and
pp^op has the barcodes of pp.  The relation exercises every step of
pposet_barcodes that reads which way a pair points: the beat-point scan,
which tries down-sets before up-sets, and the order complex, which grows
each chain upward.

Disjoint union: a tower beside a renamed copy of itself, with no pair
between them, has the order complex of the tower twice in every slice,
so every bar twice.

Cone: the ordinal sum of a tower with a one-point tower puts a maximum
over every slice, so every slice is contractible and the structure maps
are maps of cones: the single bar [0, inf) in degree 0 and nothing above.
"""

import pytest

from persposet.documents import parse_instance, random_instance
from persposet.homology import FieldSpec, pposet_barcodes
from persposet.modules import INF, Barcode
from persposet.posets import FinitePoset, new_poset
from persposet.pposets import PersistencePoset, ordinal_sum, persistence_mapping_cylinder, top_degree
from persposet.verifier import verify_theorem
from reference import constant_pposet
from tiers import TIERS, instance

SEEDS = range(40)


def reversed_names(doc: dict) -> dict[str, str]:
    """A bijection of the instance's element names that reverses their sort order."""
    names = sorted({e for block in (doc["x"], doc["y"]) for c in block["components"] for e in c["elements"]})
    return {name: f"r{len(names) - 1 - i:05d}" for i, name in enumerate(names)}


def renamed(doc: dict, rename: dict[str, str]) -> dict:
    """The instance document with every element renamed."""

    def table(m: dict) -> dict:
        return {rename[a]: rename[b] for a, b in m.items()}

    def block(b: dict) -> dict:
        components = [
            {"elements": [rename[e] for e in c["elements"]], "pairs": [[rename[a], rename[b]] for a, b in c["pairs"]]}
            for c in b["components"]
        ]
        return {"components": components, "maps": [table(m) for m in b["maps"]]}

    return {**doc, "x": block(doc["x"]), "y": block(doc["y"]), "map": [table(m) for m in doc["map"]]}


def invariants(doc: dict, field: FieldSpec) -> tuple:
    """Every value of the certificate that names no element."""
    cert = verify_theorem(parse_instance(doc).map, field)
    return (
        cert.m,
        sorted(cert.fiber_eps.values()),
        cert.epsilon,
        cert.bound,
        cert.distances,
        cert.verdict,
        cert.induced_ranks,
    )


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("tier", ["S", "M"])
def test_renaming_keeps_the_certificate(tier, p):
    mismatches = []
    for seed in SEEDS:
        doc = random_instance(seed, TIERS[tier])
        rename = reversed_names(doc)
        if invariants(doc, FieldSpec(p)) != invariants(renamed(doc, rename), FieldSpec(p)):
            mismatches.append(seed)
    assert mismatches == []


def test_the_renaming_reverses_the_order():
    """The bijection is one to one, and sends the first name to the last."""
    doc = random_instance(3, TIERS["M"])
    rename = reversed_names(doc)
    old = sorted(rename)
    assert len(set(rename.values())) == len(rename)
    assert [rename[name] for name in old] == sorted(rename.values(), reverse=True)


def opposite(pp: PersistencePoset) -> PersistencePoset:
    """pp with every slice's relation reversed and the same structure maps."""
    slices = [FinitePoset(P.elements, frozenset((b, a) for a, b in P.relation)) for P in pp.components]
    return PersistencePoset(tuple(slices), pp.maps)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("tier", ["S", "M"])
def test_the_opposite_keeps_the_barcodes(tier, p):
    """The source, the target and the cylinder of each instance have the barcodes of their opposites."""
    mismatches = []
    for seed in SEEDS:
        f = instance(tier, seed)
        for name, pp in (("source", f.source), ("target", f.target), ("cylinder", persistence_mapping_cylinder(f))):
            k_max = top_degree(pp)
            if pposet_barcodes(opposite(pp), FieldSpec(p), k_max) != pposet_barcodes(pp, FieldSpec(p), k_max):
                mismatches.append((seed, name))
    assert mismatches == []


def towers(f) -> list[tuple[str, PersistencePoset]]:
    """The source, the target and the cylinder of an instance, by name."""
    return [("source", f.source), ("target", f.target), ("cylinder", persistence_mapping_cylinder(f))]


def beside_a_copy(pp: PersistencePoset) -> PersistencePoset:
    """The disjoint union of pp with a copy whose names carry the prefix "copy:"."""

    def tag(name: str) -> str:
        return f"copy:{name}"

    slices = [
        FinitePoset(
            tuple(sorted(P.elements + tuple(map(tag, P.elements)))),
            P.relation | {(tag(a), tag(b)) for a, b in P.relation},
        )
        for P in pp.components
    ]
    maps = [{**m, **{tag(x): tag(y) for x, y in m.items()}} for m in pp.maps]
    return PersistencePoset(tuple(slices), tuple(maps))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("tier", ["S", "M"])
def test_the_union_with_a_copy_doubles_every_bar(tier, p):
    mismatches = []
    for seed in SEEDS:
        for name, pp in towers(instance(tier, seed)):
            k_max = top_degree(pp)
            doubled = [Barcode.of(code.bars * 2) for code in pposet_barcodes(pp, FieldSpec(p), k_max)]
            if pposet_barcodes(beside_a_copy(pp), FieldSpec(p), k_max) != doubled:
                mismatches.append((seed, name))
    assert mismatches == []


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("tier", ["S", "M"])
def test_the_cone_has_the_barcodes_of_a_point(tier, p):
    """Each tower's ordinal sum with a point in every slice: one bar [0, inf) in degree 0, and none above."""
    mismatches = []
    for seed in SEEDS:
        for name, pp in towers(instance(tier, seed)):
            coned = ordinal_sum(pp, constant_pposet(new_poset("o", []), pp.T))
            codes = pposet_barcodes(coned, FieldSpec(p), top_degree(coned))
            if codes != [Barcode.of([(0, INF)])] + [Barcode.of([])] * (len(codes) - 1):
                mismatches.append((seed, name))
    assert mismatches == []
