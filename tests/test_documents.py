import dataclasses
import hashlib
import random
import re

import pytest

from persposet.complexes import order_complex
from persposet.documents import (
    CoverTower,
    GeneratorLimits,
    Scale,
    canonical_json,
    cover_from_doc,
    cover_to_pposet,
    parse_instance,
    pposet_to_doc,
    random_instance,
    random_pposet,
    serialize_instance,
)
from persposet.errors import NotNested, SchemaError, ValidationError
from persposet.pposets import tracks, validate
from reference import cover_to_doc, pposet_from_doc


MINIMAL = {
    "schema": "instance/1",
    "T": 0,
    "x": {"components": [{"elements": ["a"], "pairs": []}], "maps": []},
    "y": {"components": [{"elements": ["p"], "pairs": []}], "maps": []},
    "map": [{"a": "p"}],
}

ONE_STEP = {
    "schema": "instance/1",
    "T": 1,
    "x": {"components": [{"elements": ["a"]}] * 2, "maps": [{"a": "a"}]},
    "y": {"components": [{"elements": ["p"]}] * 2, "maps": [{"p": "p"}]},
    "map": [{"a": "p"}] * 2,
}


class TestInstanceDocuments:
    def test_minimal_instance(self):
        inst = parse_instance(MINIMAL)
        assert inst.map.T == 0 and inst.scale is None

    def test_round_trip_is_identity_on_canonical_form(self):
        doc = random_instance(3, GeneratorLimits(t_max=3))
        inst = parse_instance(doc)
        assert serialize_instance(inst) == doc
        assert canonical_json(serialize_instance(inst)) == canonical_json(doc)

    def test_round_trip_from_string(self):
        doc = random_instance(8, GeneratorLimits(t_max=2))
        inst = parse_instance(canonical_json(doc))
        assert serialize_instance(inst) == doc

    def test_non_monotone_slice_map_reports_location(self):
        bad = {
            "schema": "instance/1",
            "T": 0,
            "x": {"components": [{"elements": ["a", "b"], "pairs": [["a", "b"]]}], "maps": []},
            "y": {"components": [{"elements": ["u", "v"], "pairs": []}], "maps": []},
            "map": [{"a": "u", "b": "v"}],
        }
        with pytest.raises(ValidationError):
            parse_instance(bad)

    def test_schema_errors(self):
        with pytest.raises(SchemaError):
            parse_instance({"schema": "nope"})
        with pytest.raises(SchemaError):
            parse_instance({"schema": "instance/1", "T": -1})
        with pytest.raises(SchemaError):
            parse_instance("not json {{")

    @pytest.mark.parametrize(
        "part, message",
        [
            ({"x": {"components": [{"elements": ["a"]}] * 2, "maps": [{"a": 0}]}}, "x.maps[0]"),
            ({"map": [["a", "p"], {"a": "p"}]}, "map[0]"),
        ],
        ids=["structure-map", "slice-map"],
    )
    def test_map_tables_must_map_names_to_names(self, part, message):
        assert parse_instance(ONE_STEP).map.T == 1
        with pytest.raises(SchemaError, match=re.escape(f"{message}: expected a name-to-name table")):
            parse_instance({**ONE_STEP, **part})

    @pytest.mark.parametrize(
        "component, message",
        [
            ({"elements": ["a", 1]}, "elements must be strings"),
            ({"elements": "ab"}, "elements must be strings"),
            ({"elements": ["a", 1], "pairs": [["a"]]}, "elements must be strings"),
            ({"pairs": [["a"], ["a", "b"]]}, "pairs must be [a, b] string lists"),
            ({"pairs": [["a", "b"], ["b", "c"], ["a", 1]]}, "pairs must be [a, b] string lists"),
            ({"pairs": [["a", "b", "c"]]}, "pairs must be [a, b] string lists"),
            ({"pairs": [[None, "b"]]}, "pairs must be [a, b] string lists"),
            ({"pairs": [("a", "b")]}, "pairs must be [a, b] string lists"),
            ({"pairs": {"a": "b"}}, "pairs must be [a, b] string lists"),
            ({"elements": ["a", "\ud800"]}, "element '\\ud800' is not valid UTF-8"),
            ({"elements": ["a", "b\udfffc"]}, "element 'b\\udfffc' is not valid UTF-8"),
        ],
        ids=[
            "element-not-a-string", "elements-not-a-list", "elements-before-pairs", "first-pair-short",
            "last-pair-member", "pair-of-three", "pair-member-none", "pair-not-a-list", "pairs-not-a-list",
            "lone-surrogate", "surrogate-inside-a-name",
        ],
    )
    def test_component_rejections_keep_their_messages(self, component, message):
        """Each component rejection is one SchemaError with the component's location and its exact message."""
        doc = {**MINIMAL, "x": {"components": [{"elements": ["a", "b", "c"], **component}], "maps": []}}
        doc["map"] = [{"a": "p", "b": "p", "c": "p"}]
        with pytest.raises(SchemaError) as raised:
            parse_instance(doc)
        assert str(raised.value) == f"x.components[0]: {message}"

    @pytest.mark.parametrize(
        "table",
        [{1: "p"}, {"a": 0}, {"a": "p", "b": None}, ["a", "p"], "ap"],
        ids=["key-not-a-string", "value-not-a-string", "last-value", "list", "string"],
    )
    def test_table_rejections_keep_their_message(self, table):
        for part, where in [({"x": {**ONE_STEP["x"], "maps": [table]}}, "x.maps[0]"), ({"map": [{"a": "p"}, table]}, "map[1]")]:
            with pytest.raises(SchemaError) as raised:
                parse_instance({**ONE_STEP, **part})
            assert str(raised.value) == f"{where}: expected a name-to-name table"

    def test_non_ascii_names_that_utf8_writes_are_accepted(self):
        doc = {**MINIMAL, "x": {"components": [{"elements": ["\u00e4", "\U0001f600"], "pairs": []}], "maps": []}}
        doc["map"] = [{"\u00e4": "p", "\U0001f600": "p"}]
        assert parse_instance(doc).x.components[0].elements == ("\u00e4", "\U0001f600")

    def test_scale_validation(self):
        doc = dict(MINIMAL)
        doc["scale"] = {"origin": 0.0, "step": 0.0}
        with pytest.raises(ValidationError):
            parse_instance(doc)
        for origin, step in [(float("nan"), 1.0), (0.0, float("inf")), (float("-inf"), 1.0)]:
            doc["scale"] = {"origin": origin, "step": step}
            with pytest.raises(ValidationError):
                parse_instance(doc)
        doc["scale"] = {"origin": 2.5, "step": 0.5}
        assert parse_instance(doc).scale == Scale(2.5, 0.5)

    def test_pposet_doc_round_trip(self):
        rng = random.Random(4)
        pp = random_pposet(rng, 2, 4, 4)
        doc = pposet_to_doc(pp)
        back = pposet_from_doc(doc)
        assert pposet_to_doc(back) == doc


class TestCover:
    def doc(self):
        return {
            "schema": "cover/1",
            "T": 1,
            "sets": {"U1": [["p1"], ["p1", "p2"]], "U2": [["p3"], ["p2", "p3"]]},
        }

    def test_two_sets_start_overlapping_later(self):
        cover = cover_from_doc(self.doc())
        pp = cover_to_pposet(cover)
        assert pp.components[0].elements == ("U1", "U2")
        assert pp.components[1].elements == ("U1", "U1&U2", "U2")
        assert pp.components[1].relation == frozenset({("U1&U2", "U1"), ("U1&U2", "U2")})

    def test_single_set_is_constant_point(self):
        cover = CoverTower(T=1, sets={"U": (frozenset(["p"]), frozenset(["p"]))})
        pp = cover_to_pposet(cover)
        assert all(c.elements == ("U",) for c in pp.components)

    def test_shrinking_rejected(self):
        with pytest.raises(NotNested):
            CoverTower(T=1, sets={"U": (frozenset(["p1", "p2"]), frozenset(["p1"]))})

    def test_max_arity_truncates(self):
        cover = CoverTower(
            T=0,
            sets={
                "A": (frozenset(["p"]),),
                "B": (frozenset(["p"]),),
                "C": (frozenset(["p"]),),
            },
        )
        full = cover_to_pposet(cover)
        assert "A&B&C" in full.components[0].elements
        capped = cover_to_pposet(cover, max_arity=2)
        assert "A&B&C" not in capped.components[0].elements
        assert "A&B" in capped.components[0].elements

    @pytest.mark.parametrize("arity", [-1, 0])
    def test_max_arity_below_one_rejected(self, arity):
        cover = CoverTower(T=0, sets={"A": (frozenset(["p"]),)})
        with pytest.raises(ValidationError):
            cover_to_pposet(cover, max_arity=arity)

    def test_chains_are_flags(self):
        cover = cover_from_doc(self.doc())
        pp = cover_to_pposet(cover)
        K = order_complex(pp.components[1])
        flags = set()
        for s in K.simplices:
            labels = [set(e.split("&")) for e in s]
            labels.sort(key=len, reverse=True)
            assert all(labels[i] > labels[i + 1] for i in range(len(labels) - 1))
            flags.add(frozenset(s))
        assert frozenset({"U1&U2", "U1"}) in {frozenset(x) for x in K.simplices if len(x) == 2}

    def test_doc_round_trip(self):
        cover = cover_from_doc(self.doc())
        assert cover_from_doc(cover_to_doc(cover)).sets == cover.sets

    def test_label_separator_in_a_set_name_rejected(self):
        """With sets a, b and a&b, two elements would both be labelled a&b."""
        doc = {"schema": "cover/1", "T": 0, "sets": {"a": [["p"]], "b": [["p"]], "a&b": [["p"]]}}
        with pytest.raises(SchemaError, match="'a&b'"):
            cover_from_doc(doc)
        with pytest.raises(SchemaError, match="'&x'"):
            CoverTower(T=0, sets={"&x": (frozenset(["p"]),)})


class TestGenerator:
    def test_deterministic(self):
        lim = GeneratorLimits(t_max=4)
        assert random_instance(17, lim) == random_instance(17, lim)

    def test_stream_of_valid_instances(self):
        lim = GeneratorLimits(t_max=4, max_slice=5, max_y_tracks=3)
        for seed in range(100):
            inst = parse_instance(random_instance(seed, lim))
            validate(inst.x)
            validate(inst.y)
            assert len(tracks(inst.y)) <= 3
            assert all(len(c) <= 5 for c in inst.x.components)
            assert inst.map.T <= 4

    def test_t_zero_limit(self):
        lim = GeneratorLimits(t_max=0)
        inst = parse_instance(random_instance(0, lim))
        assert inst.map.T == 0

    @pytest.mark.parametrize("name, value", [("t_max", -1), ("max_slice", 0), ("max_y_tracks", 0)])
    def test_limits_out_of_range_rejected(self, name, value):
        with pytest.raises(ValidationError, match="generator limits"):
            GeneratorLimits(**{name: value})

    @pytest.mark.parametrize("max_slice, track_budget", [(0, 4), (4, 0)])
    def test_random_pposet_bounds_rejected(self, max_slice, track_budget):
        with pytest.raises(ValidationError, match="random_pposet"):
            random_pposet(random.Random(0), 2, max_slice, track_budget)

    def test_limits_positional_order(self):
        """Callers build limits positionally, as GeneratorLimits(t_max, max_slice, max_y_tracks)."""
        names = [f.name for f in dataclasses.fields(GeneratorLimits)]
        assert names[:3] == ["t_max", "max_slice", "max_y_tracks"]

    def test_random_pposet_valid(self):
        for seed in range(30):
            rng = random.Random(seed)
            pp = random_pposet(rng, rng.randint(0, 3), 4, 4)
            validate(pp)
            assert len(tracks(pp)) <= 4

    def test_generated_documents_are_pinned(self):
        """One digest pins the generator's exact output: instances on tiers S, M
        and T = 0, and the cases `lemma join --seed 0 --count 20` draws.

        The goldens and the bench reference pools depend on every draw."""
        digest = hashlib.sha256()
        for limits in (GeneratorLimits(5, 6, 4), GeneratorLimits(8, 10, 6), GeneratorLimits(t_max=0)):
            for seed in range(50):
                digest.update(canonical_json(random_instance(seed, limits)).encode())
        for seed in range(20):
            rng = random.Random(seed)
            T = rng.randint(0, GeneratorLimits().t_max)
            for prefix in "ab":
                digest.update(canonical_json(pposet_to_doc(random_pposet(rng, T, 3, 3, name_prefix=prefix))).encode())
        assert digest.hexdigest() == "17651ce9e966a7894f50cb62af1cf1cfc0b859dc9fabe38e5e71d820965ee70d"
