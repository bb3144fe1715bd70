"""Fuzzing the CLI with mutated instance and cover documents and flag values near their bounds.

Every run of cli.main must end with exit code 0, 1 or 2; an exception
escaping it (a traceback) fails the test.  Exit 2 always comes with exactly
one `error:` line on stderr and nothing on stdout, and everything written
must be valid UTF-8, which a lone surrogate in a name is not.  About half of the argv
lists carry one syntax change: the `--flag=value` form, or one of the
rejections in REJECTED, which must exit 2.  Documents stay at tier S,
covers have at most three sets, and --kmax stays small, so no example
computes much.  The `cover` command reads a cover document, whose set
names include lone surrogates, the label separator `&` and the empty name.
"""

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import tiers
from persposet.cli import MAX_KMAX, main
from persposet.documents import random_instance


# Values json.dumps cannot write are spliced into the text after dumping.
RAW = {
    '"__LONG_INT__"': "9" * 5000,
    '"__DEEP__"': "[" * 100_000 + "]" * 100_000,
}

BASES = [random_instance(seed, tiers.S) for seed in range(3)]
BASES += [{**doc, "scale": {"origin": 0, "step": 1}} for doc in BASES[:2]]

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),
    st.just(10**400),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(["\ud800", "y0\udfff"]),  # lone surrogates, which st.text() never draws
    st.just([]),
    st.just({}),
    st.sampled_from(list(RAW)).map(lambda key: key.strip('"')),
)


def mutated(draw, doc):
    """doc as JSON text, with up to three keys dropped or values replaced."""
    for _ in range(draw(st.integers(0, 3))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            if draw(st.booleans()):
                del node[key]
            else:
                node[key] = draw(values)
            break
    text = json.dumps(doc)
    for placeholder, raw in RAW.items():
        text = text.replace(placeholder, raw)
    return text


@st.composite
def documents(draw):
    """A tier-S instance document, mutated."""
    return mutated(draw, copy.deepcopy(draw(st.sampled_from(BASES))))


set_names = st.one_of(st.text(max_size=3), st.sampled_from(["\ud800", "U\udfff", "&", "U&V", ""]))


@st.composite
def covers(draw):
    """A nested cover/1 document of one to three sets over the points p, q, r, mutated."""
    T = draw(st.integers(0, 2))
    sets = {}
    for name in draw(st.lists(set_names, min_size=1, max_size=3, unique=True)):
        stages = [draw(st.sets(st.sampled_from("pqr")))]
        for _ in range(T):
            stages.append(stages[-1] | draw(st.sets(st.sampled_from("pqr"))))
        sets[name] = [sorted(stage) for stage in stages]
    return mutated(draw, {"schema": "cover/1", "T": T, "sets": sets})


def flag(name, valid, invalid):
    """Absent, a value in range, or a value just past a bound."""
    values = st.one_of(st.sampled_from(valid), st.sampled_from(invalid))
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


fields = flag("--field", [2, 3, 5, 65521], [1, 4, 0, -2, 65536, 65537])
kmaxes = flag("--kmax", [0, 1, 2, 3], [-1, MAX_KMAX + 1])
scales = flag("--scale", ["0,1", "10,0.5"], ["abc", "1,0", "0,-1", "nan,1", "1e309,1", "1,2,3"])
counts = flag("--count", [0, 1, 3], [-1])
arities = flag("--max-arity", [1, 2, 3], [0, -1])


# Syntax changes that the parser must reject, whatever the document.
REJECTED = ("unknown-command", "unknown-flag", "prefix-flag", "non-integer", "no-value", "repeated",
            "missing-positional")


def equals_form(argv):
    """Each `--flag value` pair written as `--flag=value`."""
    words, out = iter(argv), []
    for word in words:
        out.append(f"{word}={next(words)}" if isinstance(word, str) and word.startswith("--") else word)
    return out


@st.composite
def argvs(draw):
    """An argv (None marks the document's path) and the syntax change drawn for it, if any."""
    command = draw(st.sampled_from(
        [["validate"], ["extend"], ["barcode"], ["fibers"], ["verify"],
         ["lemma", "puncture"], ["lemma", "cylinder"], ["lemma", "ses"], ["lemma", "join"], ["cover"]]
    ))
    argv = list(command)
    if command[-1] not in ("ses", "join"):
        argv.append(None)  # the document's path
    if command[0] in ("barcode", "fibers", "verify"):
        argv += draw(fields) + draw(kmaxes) + draw(scales)
    elif command[0] == "lemma":
        argv += draw(fields) + draw(kmaxes) + draw(counts)
    elif command[0] == "cover":
        argv += draw(arities)
    change = draw(st.one_of(st.none(), st.sampled_from(("equals-form", *REJECTED))))
    if change == "equals-form":
        argv = equals_form(argv)
    elif change == "unknown-command":
        argv[0] = draw(st.sampled_from(["bogus", "verif", "Verify", ""]))
    elif change == "unknown-flag":
        argv += [draw(st.sampled_from(["--bogus", "--Field", "--k-max"])), "1"]
    elif change == "prefix-flag":
        argv += [draw(st.sampled_from(["--fi", "--km", "--rep", "--sca", "--cou", "--se"])), "1"]
    elif change == "non-integer":
        argv += [draw(st.sampled_from(["--kmax", "--count", "--field"])),
                 draw(st.sampled_from(["x", "1.5", "", "1e3", "0x1", "--"]))]
    elif change == "no-value":
        argv.append(draw(st.sampled_from(["--field", "--kmax", "--count", "--scale"])))
    elif change == "repeated":
        argv += ["--kmax", "1", "--kmax", "1"]
    elif change == "missing-positional":
        argv = [word for word in argv if word is not None] if None in argv else [argv[0], *argv[2:]]
    return argv, change


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents(), covers(), argvs())
def test_cli_exits_0_1_or_2_without_traceback(tmp_path_factory, text, cover, drawn):
    argv, change = drawn
    path = tmp_path_factory.mktemp("fuzz") / "document.json"
    path.write_text(cover if argv[0] == "cover" else text, encoding="utf-8")
    argv = [str(path) if a is None else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"{change or 'no change'}: exit {code}")
    assert code in (0, 1, 2)
    out.getvalue().encode("utf-8")  # a UTF-8 stream could write what was captured
    err.getvalue().encode("utf-8")
    if change in REJECTED:
        assert code == 2
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert err.getvalue() == ""
