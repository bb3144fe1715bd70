"""Instance documents, cover ingestion, and seeded random generation.

Documents are UTF-8 JSON in one canonical schema: poset components as
sorted element lists plus sorted strict-pair lists (the full transitive
closure), maps as name-to-name tables.  Canonical serialization sorts
every list so a round trip is bit-exact.

The canonical text of a document is the bytes of json.dumps(doc,
sort_keys=True, indent=2) plus a newline, which canonical_json writes in
one recursive pass.  It alone orders a document's keys, and takes only a
document's value types: any other value or key raises TypeError, and a
NaN or infinite float raises ValueError.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import combinations
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .errors import NotNested, PersistenceError, SchemaError, ValidationError
from .posets import FinitePoset, new_poset
from .pposets import PersistenceMap, PersistencePoset

INSTANCE_SCHEMA = "instance/1"
PPOSET_SCHEMA = "pposet/1"
COVER_SCHEMA = "cover/1"
# Joins the set names of an intersection into its element label, so no set name may contain it.
_LABEL_SEPARATOR = "&"
_MERGE_ATTEMPTS = 2  # merges the generator tries between consecutive slices
_MAX_FRESH = 2  # most elements the generator adds at one slice
_PAIR_PROB = 0.4  # chance that the generator draws a forward pair into a slice's order


@dataclass(frozen=True)
class Scale:
    """Affine index-to-timestamp reporting scale: t = origin + step * i."""

    origin: float
    step: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.origin) and math.isfinite(self.step)):
            raise ValidationError(f"scale values must be finite, got origin {self.origin}, step {self.step}")
        if not self.step > 0:
            raise ValidationError(f"scale step must be positive, got {self.step}")


@dataclass(eq=False)
class InstanceDocument:
    """A parsed instance: persistence posets X, Y, the slicewise map, a scale."""

    map: PersistenceMap
    scale: Scale | None = None

    @property
    def x(self) -> PersistencePoset:
        return self.map.source

    @property
    def y(self) -> PersistencePoset:
        return self.map.target


def canonical_json(doc: Any) -> str:
    """The canonical text of doc: json.dumps(doc, sort_keys=True, indent=2) and a newline, byte for byte.

    Written by hand because json encodes with an indent in pure Python,
    one generator step per value.  Each value is tested by exact type:
    dicts with str keys, lists, tuples (written as lists), str, int, bool,
    None and finite floats, written as json writes them, a dict's items in
    the order of their keys.  Any other value or key, a subclass of an
    accepted type included, raises TypeError, and a NaN or infinite float
    raises ValueError.  A container that holds itself exceeds the
    recursion limit.
    """
    return _json(doc, "\n") + "\n"


def _json(o: Any, nl: str) -> str:
    """The JSON text of o, where nl is a newline and the indent of o's line."""
    t = type(o)
    if t is str:
        return _quote(o)
    if t is int:
        return int.__repr__(o)
    if t is dict:
        return _object(o, nl)
    if t is list or t is tuple:
        return _array(o, nl)
    if t is float:
        if not math.isfinite(o):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        return float.__repr__(o)
    if t is bool:
        return "true" if o else "false"
    if o is None:
        return "null"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _array(o: list | tuple, nl: str) -> str:
    if not o:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join([_json(v, inner) for v in o]) + nl + "]"


def _object(o: dict, nl: str) -> str:
    if not o:
        return "{}"
    inner = nl + "  "
    items = []
    for k, v in sorted(o.items()):
        if type(k) is not str:
            raise TypeError(f"keys must be str, not {type(k).__name__}")
        items.append(_quote(k) + ": " + _json(v, inner))
    return "{" + inner + ("," + inner).join(items) + nl + "}"


# -- poset blocks ---------------------------------------------------------------


def _poset_block(pp: PersistencePoset) -> dict:
    return {
        "components": [
            {
                "elements": sorted(c.elements),
                "pairs": sorted([list(p) for p in c.relation]),
            }
            for c in pp.components
        ],
        "maps": [dict(m) for m in pp.maps],
    }


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _load_json(text: str) -> Any:
    """Parse JSON text; every failure, deep nesting included, is a SchemaError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise SchemaError("not valid JSON: nested too deeply") from None
    except ValueError as exc:  # malformed text, or an integer past the digit limit
        raise SchemaError(f"not valid JSON: {exc}") from None


def _is_count(value: Any) -> bool:
    """A non-negative JSON integer; booleans are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _scale_value(block: dict, key: str) -> float:
    value = block.get(key)
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), "scale: expected {origin, step}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"scale: {key} is too large for a float") from None


def _name_table(obj: Any, where: str) -> dict[str, str]:
    """A structure or slice map's table, checked to map names to names."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            if not (isinstance(k, str) and isinstance(v, str)):
                break
        else:
            return dict(obj)
    raise SchemaError(f"{where}: expected a name-to-name table")


def _element_names(elements: Any, where: str) -> list[str]:
    """A component's element list, checked to hold names that UTF-8 can write.

    str.join accepts exactly a list of strings.  A lone surrogate (the
    JSON escape "\\ud800") parses as a str that no UTF-8 stream can
    print, so it is rejected here, before any output; only a list that is
    not all ASCII is encoded name by name.
    """
    if isinstance(elements, list):
        try:
            text = "".join(elements)
        except TypeError:
            pass
        else:
            if not text.isascii():
                for e in elements:
                    try:
                        e.encode("utf-8")
                    except UnicodeEncodeError:
                        raise SchemaError(f"{where}: element {e!r} is not valid UTF-8") from None
            return elements
    raise SchemaError(f"{where}: elements must be strings")


def _strict_pairs(pairs: Any, where: str) -> list[tuple[str, str]]:
    """A component's pair list as tuples, checked to hold [a, b] string lists."""
    out = []
    if isinstance(pairs, list):
        for p in pairs:
            if not (isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) and isinstance(p[1], str)):
                break
            out.append((p[0], p[1]))
        else:
            return out
    raise SchemaError(f"{where}: pairs must be [a, b] string lists")


def _parse_poset_block(obj: Any, where: str, T: int) -> PersistencePoset:
    _require(isinstance(obj, dict), f"{where}: expected an object")
    comps_raw = obj.get("components")
    maps_raw = obj.get("maps")
    _require(isinstance(comps_raw, list) and len(comps_raw) == T + 1, f"{where}: need {T + 1} components")
    _require(isinstance(maps_raw, list) and len(maps_raw) == T, f"{where}: need {T} maps")
    comps = []
    for i, c in enumerate(comps_raw):
        _require(isinstance(c, dict), f"{where}.components[{i}]: expected an object")
        elements = _element_names(c.get("elements"), f"{where}.components[{i}]")
        pairs = _strict_pairs(c.get("pairs", []), f"{where}.components[{i}]")
        try:
            comps.append(new_poset(elements, pairs))
        except PersistenceError as exc:
            raise ValidationError(f"{where}.components[{i}]: {exc}") from exc
    maps = [_name_table(m, f"{where}.maps[{i}]") for i, m in enumerate(maps_raw)]
    try:
        return PersistencePoset(tuple(comps), tuple(maps))
    except PersistenceError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def pposet_to_doc(pp: PersistencePoset) -> dict:
    return {"schema": PPOSET_SCHEMA, "T": pp.T, **_poset_block(pp)}


# -- instances --------------------------------------------------------------------


def serialize_instance(inst: InstanceDocument) -> dict:
    f = inst.map
    doc = {
        "schema": INSTANCE_SCHEMA,
        "T": f.T,
        "x": _poset_block(f.source),
        "y": _poset_block(f.target),
        "map": [dict(s) for s in f.slices],
    }
    if inst.scale is not None:
        doc["scale"] = {"origin": inst.scale.origin, "step": inst.scale.step}
    return doc


def parse_instance(document: Any) -> InstanceDocument:
    """Validate a document into an instance; errors carry locations."""
    if isinstance(document, str):
        document = _load_json(document)
    _require(isinstance(document, dict), "expected a JSON object")
    _require(document.get("schema") == INSTANCE_SCHEMA, f"schema must be {INSTANCE_SCHEMA!r}")
    T = document.get("T")
    _require(_is_count(T), "T must be a non-negative integer")
    x = _parse_poset_block(document.get("x"), "x", T)
    y = _parse_poset_block(document.get("y"), "y", T)
    map_raw = document.get("map")
    _require(isinstance(map_raw, list) and len(map_raw) == T + 1, f"map: need {T + 1} slice tables")
    slices = tuple(_name_table(m, f"map[{i}]") for i, m in enumerate(map_raw))
    try:
        pm = PersistenceMap(x, y, slices)
    except PersistenceError as exc:
        raise ValidationError(f"map: {exc}") from exc
    scale = None
    if "scale" in document:
        s = document["scale"]
        _require(isinstance(s, dict), "scale: expected {origin, step}")
        scale = Scale(_scale_value(s, "origin"), _scale_value(s, "step"))
    return InstanceDocument(map=pm, scale=scale)


# -- covers -----------------------------------------------------------------------


@dataclass(eq=False)
class CoverTower:
    """Named cover sets, each a nested sequence of point-id sets."""

    T: int
    sets: dict[str, tuple[frozenset[str], ...]]

    def __post_init__(self) -> None:
        for name, seq in self.sets.items():
            if not name:
                raise SchemaError("cover set names must be nonempty")
            if _LABEL_SEPARATOR in name:
                raise SchemaError(f"cover set {name!r}: {_LABEL_SEPARATOR!r} separates intersection labels")
            if len(seq) != self.T + 1:
                raise SchemaError(f"cover set {name!r}: need {self.T + 1} stages")
            for i in range(self.T):
                if not seq[i] <= seq[i + 1]:
                    raise NotNested(f"cover set {name!r} shrinks between {i} and {i + 1}")


def cover_from_doc(obj: Any) -> CoverTower:
    if isinstance(obj, str):
        obj = _load_json(obj)
    _require(isinstance(obj, dict), "expected a JSON object")
    _require(obj.get("schema") == COVER_SCHEMA, f"schema must be {COVER_SCHEMA!r}")
    T = obj.get("T")
    _require(_is_count(T), "T must be a non-negative integer")
    sets_raw = obj.get("sets")
    _require(isinstance(sets_raw, dict) and sets_raw, "sets: expected a nonempty object")
    sets = {}
    for name, seq in sets_raw.items():
        try:
            name.encode("utf-8")  # a lone surrogate would reach the element labels
        except UnicodeEncodeError:
            raise SchemaError(f"sets: set name {name!r} is not valid UTF-8") from None
        _require(
            isinstance(seq, list)
            and all(isinstance(stage, list) and all(isinstance(e, str) for e in stage) for stage in seq),
            f"sets[{name}]: expected a list of point-id lists",
        )
        sets[name] = tuple(frozenset(stage) for stage in seq)
    return CoverTower(T=T, sets=sets)


def cover_to_pposet(cover: CoverTower, max_arity: int | None = None) -> PersistencePoset:
    """Intersection poset of a nested cover, one component per index.

    Elements at index i are the label subsets (up to max_arity) whose
    intersection is nonempty at i, ordered by reverse inclusion of label
    sets; structure maps are the identity on labels, which nestedness
    makes total.
    """
    if max_arity is not None and max_arity < 1:
        raise ValidationError(f"max_arity must be at least 1, got {max_arity}")
    names = sorted(cover.sets)
    arity = len(names) if max_arity is None else min(max_arity, len(names))
    subsets = [
        tuple(combo) for k in range(1, arity + 1) for combo in combinations(names, k)
    ]

    def label(combo: tuple[str, ...]) -> str:
        return _LABEL_SEPARATOR.join(combo)

    comps = []
    for i in range(cover.T + 1):
        present = []
        for combo in subsets:
            inter = set(cover.sets[combo[0]][i])
            for name in combo[1:]:
                inter &= cover.sets[name][i]
            if inter:
                present.append(combo)
        pairs = [
            (label(a), label(b))
            for a in present
            for b in present
            if a != b and set(a) > set(b)
        ]
        comps.append(new_poset([label(c) for c in present], pairs))
    maps = [{e: e for e in comps[i].elements} for i in range(cover.T)]
    return PersistencePoset(tuple(comps), tuple(maps))


# -- random generation ---------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorLimits:
    t_max: int = 4
    max_slice: int = 6
    max_y_tracks: int = 4

    def __post_init__(self) -> None:
        if self.t_max < 0 or self.max_slice < 1 or self.max_y_tracks < 1:
            raise ValidationError(f"generator limits need t_max >= 0 and max_slice, max_y_tracks >= 1, got {self}")


def _random_linear_order(rng: random.Random, P: FinitePoset) -> list[str]:
    """A random-but-seeded topological order of P."""
    remaining = set(P.elements)
    preds: dict[str, set[str]] = {e: set() for e in P.elements}
    for a, b in P.relation:
        preds[b].add(a)
    out = []
    while remaining:
        ready = sorted(e for e in remaining if not (preds[e] & remaining))
        pick = rng.choice(ready)
        out.append(pick)
        remaining.remove(pick)
    return out


def _draw_poset(rng: random.Random, elements, pairs, order: list[str], compatible) -> FinitePoset:
    """The poset on elements generated by pairs and by forward pairs of order (a before b), each drawn with _PAIR_PROB.

    One draw per forward pair, in order, whether or not compatible (None,
    or a test of the pair) keeps the pair.
    """
    drawn = [
        (a, b)
        for i, a in enumerate(order)
        for b in order[i + 1 :]
        if rng.random() < _PAIR_PROB and (compatible is None or compatible(a, b))
    ]
    return new_poset(elements, [*pairs, *drawn])


def _try_merges(rng: random.Random, P: FinitePoset, mergeable) -> dict[str, str]:
    """Pick a representative map collapsing a few classes, keeping the quotient acyclic."""
    rep = {e: e for e in P.elements}

    def find(e: str) -> str:
        while rep[e] != e:
            e = rep[e]
        return e

    for _ in range(_MERGE_ATTEMPTS):
        reps = sorted({find(e) for e in P.elements})
        if len(reps) < 2:
            break
        a, b = rng.sample(reps, 2)
        if mergeable is not None and not mergeable(a, b):
            continue
        root = min(a, b)
        other = max(a, b)
        old = rep[other]
        rep[other] = root
        # reject the merge if the quotient order now has a cycle
        classes = sorted({find(e) for e in P.elements})
        quotient_pairs = {
            (find(u), find(v)) for (u, v) in P.relation if find(u) != find(v)
        }
        try:
            new_poset(classes, quotient_pairs)
        except PersistenceError:
            rep[other] = old
    return {e: find(e) for e in P.elements}


def _random_tower(rng: random.Random, T: int, max_slice: int, budget: float, prefix: str,
                  over: PersistencePoset | None = None) -> tuple[PersistencePoset, list[dict[str, str]]]:
    """Seeded persistence poset with births, merges and growing orders, and its labels per slice.

    A slice holds at most max_slice elements, and the tower at most budget
    tracks (at least one).  Over a persistence poset, each new element
    draws a label in over's slice after the names are drawn; merges join
    only elements whose labels merge and every drawn pair is compatible
    with the labels, so they are the slice maps of a persistence map into
    over.  Without over, every label table is empty.
    """
    counter = 0

    def fresh(n: int, i: int, lab: dict[str, str]) -> list[str]:
        nonlocal counter
        names = [f"{prefix}{counter + k}" for k in range(n)]
        counter += n
        if over is not None:
            choices = sorted(over.components[i].elements)
            lab.update((e, rng.choice(choices)) for e in names)
        return names

    def compatible(i: int, lab: dict[str, str]):
        return None if over is None else lambda a, b: over.components[i].leq(lab[a], lab[b])

    size = rng.randint(1, min(max_slice, budget))
    budget -= size
    labels: list[dict[str, str]] = [{}]
    names = fresh(size, 0, labels[0])
    order = list(names)
    rng.shuffle(order)
    comps = [_draw_poset(rng, names, (), order, compatible(0, labels[0]))]
    maps = []
    for i in range(T):
        prev, lab = comps[-1], labels[i]
        psi = None if over is None else over.maps[i]
        rep = _try_merges(rng, prev, None if psi is None else lambda a, b: psi[lab[a]] == psi[lab[b]])
        classes = sorted(set(rep.values()))
        room = max(0, max_slice - len(classes))
        count = rng.randint(0, min(_MAX_FRESH, room, budget)) if budget > 0 else 0
        budget -= count
        next_lab = {} if psi is None else {c: psi[lab[c]] for c in classes}
        names = fresh(count, i + 1, next_lab)
        quotient_pairs = {(rep[u], rep[v]) for (u, v) in prev.relation if rep[u] != rep[v]}
        base = new_poset(classes + names, quotient_pairs)
        comps.append(_draw_poset(rng, base.elements, base.relation, _random_linear_order(rng, base),
                                 compatible(i + 1, next_lab)))
        maps.append(rep)
        labels.append(next_lab)
    return PersistencePoset(tuple(comps), tuple(maps)), labels


def random_pposet(rng: random.Random, T: int, max_slice: int, track_budget: int,
                  name_prefix: str = "v") -> PersistencePoset:
    """Seeded persistence poset: at most max_slice elements a slice, track_budget tracks (at least one)."""
    if max_slice < 1 or track_budget < 1:
        raise ValidationError(f"random_pposet needs max_slice, track_budget >= 1, got {max_slice}, {track_budget}")
    return _random_tower(rng, T, max_slice, track_budget, name_prefix)[0]


def random_instance(seed: int, limits: GeneratorLimits = GeneratorLimits()) -> dict:
    """Deterministic random instance document: Y first, then X over it.

    Both are drawn by one tower routine.  Y has at most max_y_tracks
    tracks; X has no track budget, and every X element carries a label in
    the matching Y component, which gives the slice maps.
    """
    rng = random.Random(seed)
    T = rng.randint(0, limits.t_max)
    y, _ = _random_tower(rng, T, limits.max_y_tracks, limits.max_y_tracks, "y")
    x, labels = _random_tower(rng, T, limits.max_slice, math.inf, "x", over=y)
    return serialize_instance(InstanceDocument(map=PersistenceMap(x, y, labels)))
