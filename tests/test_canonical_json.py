"""documents.canonical_json against json.dumps(doc, sort_keys=True, indent=2), byte for byte.

The writer is checked on drawn JSON values, on the values json spells
its own way or rejects, and on every document the CLI writes, at tiers S
and M over fields 2 and 3.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from persposet import cli
from persposet.documents import canonical_json, random_instance
from tiers import TIERS

# Strings drawn from every code point, surrogates included: non-ASCII,
# control and non-BMP characters, and lone surrogates, which json escapes.
_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.just(-0.0)
    | _TEXT
)
# Keys of one type per dict: json sorts the items, and mixed types do not compare.
_KEYED = [_TEXT, st.integers(), st.floats(allow_nan=False), st.booleans()]
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.one_of(*(st.dictionaries(keys, inner, max_size=4) for keys in _KEYED)),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
def test_drawn_values_match_json(doc):
    assert canonical_json(doc) == reference.canonical_json(doc)


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[], {}]},
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 5e-324],
        {float("nan"): 1, float("inf"): 2, -float("inf"): 3},
        {None: 0},
        {10: "ten", 9: "nine", -1: "minus one"},
        {True: 1, False: 0},
        [_Int(7), _Float(0.5), _Str("sé")],
        {_Int(2): [_Str("b")], _Int(1): (_Float(2.0),)},
        {"\ud800": "\U0001f600", "\x00\x1f": " "},
    ],
)
def test_values_json_spells_its_own_way_match_json(doc):
    """NaN and the infinities, empty containers, tuples, non-str keys and subclasses of the scalar types."""
    assert canonical_json(doc) == reference.canonical_json(doc)


@pytest.mark.parametrize(
    "doc",
    [object(), {1, 2}, b"bytes", [1, {"a": 1j}], {(1, 2): "tuple key"}, {1: "int", "a": "str"}],
)
def test_rejected_values_raise_as_json_does(doc):
    with pytest.raises(TypeError) as expected:
        reference.canonical_json(doc)
    with pytest.raises(TypeError) as raised:
        canonical_json(doc)
    assert str(raised.value) == str(expected.value)


_SEEDS = range(3)


def _cover_doc(seed: int, T: int) -> dict:
    """A seeded nested cover of four sets over T + 1 stages."""
    rng = random.Random(seed)
    sets = {}
    for name in ("U", "V", "W", "Z"):
        stage, seq = set(), []
        for _ in range(T + 1):
            stage |= {f"p{rng.randrange(6)}" for _ in range(rng.randint(0, 2))}
            seq.append(sorted(stage))
        sets[name] = seq
    return {"schema": "cover/1", "T": T, "sets": sets}


def _argvs(tier: str, field: int, seed: int, instance: str, cover: str) -> list[list[str]]:
    """One command line per document kind the CLI writes."""
    limits = TIERS[tier]
    f = ["--field", str(field)]
    cases = ["--seed", str(seed), "--count", "2"]
    return [
        ["verify", instance, *f],
        ["verify", instance, *f, "--scale", "-1.5,0.25"],
        ["fibers", instance, *f],
        ["barcode", instance, *f],
        ["extend", instance],
        ["lemma", "puncture", instance, *f],
        ["lemma", "cylinder", instance, *f],
        ["lemma", "join", *cases, *f],
        ["lemma", "ses", *cases, *f],
        ["random", "--seed", str(seed), "--t-max", str(limits.t_max), "--max-slice", str(limits.max_slice),
         "--max-y-tracks", str(limits.max_y_tracks)],
        ["cover", cover],
    ]


@pytest.mark.parametrize("field", [2, 3])
@pytest.mark.parametrize("tier", ["S", "M"])
def test_every_cli_document_matches_json(tmp_path, tier, field):
    """The report of each command, as its handler returns it, is written as json writes it."""
    kinds = set()
    for seed in _SEEDS:
        instance, cover = tmp_path / f"{seed}.json", tmp_path / f"cover{seed}.json"
        instance.write_text(reference.canonical_json(random_instance(seed, TIERS[tier])), encoding="utf-8")
        cover.write_text(json.dumps(_cover_doc(seed, TIERS[tier].t_max)), encoding="utf-8")
        for argv in _argvs(tier, field, seed, str(instance), str(cover)):
            args = cli.parse_args(argv)
            _, report, _ = args.handler(args)
            assert canonical_json(report) == reference.canonical_json(report), argv
            kinds.add(report["schema"] + ("+scale" if "scale" in report else ""))
    assert kinds == {"certificate/1", "certificate/1+scale", "fibers/1", "barcode/1", "extension/1", "lemma/1",
                     "instance/1", "pposet/1"}
