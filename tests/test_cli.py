import json
import re
from unittest import mock

import pytest

from persposet import cli
from persposet.cli import MAX_KMAX, build_parser, main
from persposet.documents import GeneratorLimits, canonical_json, random_instance


@pytest.fixture()
def instance_file(tmp_path):
    doc = random_instance(1, GeneratorLimits(t_max=2))
    path = tmp_path / "instance.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    return path


def _assert_one_error_line(captured):
    """Exit 2 output: nothing on stdout, exactly one error line on stderr."""
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


COMMANDS = ["validate", "extend", "barcode", "fibers", "verify", "lemma", "cover", "random"]


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in COMMANDS:
        assert re.search(rf"^ +{name} +\S", out, re.MULTILINE), name


@pytest.mark.parametrize("name", COMMANDS)
def test_command_help_matches_full_parser(capsys, name):
    """main builds only the named command's subparser; its help must not change."""
    with pytest.raises(SystemExit):
        build_parser().parse_args([name, "--help"])
    expected = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == expected


def test_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_validate_ok(instance_file, capsys):
    assert main(["validate", str(instance_file)]) == 0
    assert "valid instance" in capsys.readouterr().out


def test_validate_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "instance/1", "T": 0}', encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file():
    assert main(["validate", "/nonexistent/file.json"]) == 2


def test_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xcc\xff")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_extend(instance_file, capsys):
    assert main(["extend", str(instance_file)]) == 0
    out = capsys.readouterr().out
    assert "x[0]" in out and "y[0]" in out


def test_barcode_delimited_and_report(instance_file, tmp_path, capsys):
    report = tmp_path / "bars.json"
    assert main(["barcode", str(instance_file), "--field", "3", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("x\t") or out.startswith("y\t") or out == ""
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["schema"] == "barcode/1" and doc["field"] == 3


def test_fibers(instance_file, capsys):
    assert main(["fibers", str(instance_file)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out and all("\t" in line for line in out)


def test_verify_text_json_and_exit_codes(instance_file, tmp_path, capsys):
    report = tmp_path / "cert.json"
    code = main(["verify", str(instance_file), "--report", str(report)])
    out = capsys.readouterr().out
    assert "verdict:" in out
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["schema"] == "certificate/1"
    assert code == (0 if doc["verdict"] == "holds" else 1)

    code2 = main(["verify", str(instance_file), "--json"])
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["verdict"] == doc["verdict"]
    assert code2 == code


def test_verify_scale(instance_file, capsys):
    main(["verify", str(instance_file), "--json", "--scale", "10,0.5"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["scale"] == {"origin": 10.0, "step": 0.5}
    assert "scaled" in doc


def test_lemma_puncture_and_cylinder(instance_file, capsys):
    assert main(["lemma", "puncture", str(instance_file)]) == 0
    assert "puncture steps" in capsys.readouterr().out
    assert main(["lemma", "cylinder", str(instance_file)]) == 0
    assert "cylinder distances" in capsys.readouterr().out


def test_lemma_needs_instance(capsys):
    assert main(["lemma", "puncture"]) == 2


def test_lemma_join_and_ses(capsys):
    assert main(["lemma", "join", "--seed", "5", "--count", "10"]) == 0
    assert "join suite" in capsys.readouterr().out
    assert main(["lemma", "ses", "--seed", "5", "--count", "50"]) == 0
    assert "ses suite" in capsys.readouterr().out


def test_lemma_join_passes_kmax(capsys):
    """--kmax reaches every join lemma call, not only the flag check."""
    calls = []
    verify = cli.verify_join_acyclicity

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return verify(*args, **kwargs)

    with mock.patch.object(cli, "verify_join_acyclicity", spy):
        assert main(["lemma", "join", "--seed", "0", "--count", "8", "--kmax", "1"]) == 0
    assert "join suite" in capsys.readouterr().out
    assert len(calls) == 8
    assert all(args[3:] == (1,) or kwargs.get("k_max") == 1 for args, kwargs in calls)


def test_cover(tmp_path, capsys):
    cover = {
        "schema": "cover/1",
        "T": 1,
        "sets": {"U1": [["p1"], ["p1", "p2"]], "U2": [["p3"], ["p2", "p3"]]},
    }
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(cover), encoding="utf-8")
    assert main(["cover", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "pposet/1"
    assert doc["components"][1]["elements"] == ["U1", "U1&U2", "U2"]

    bad = {"schema": "cover/1", "T": 1, "sets": {"U": [["p1", "p2"], ["p1"]]}}
    path.write_text(json.dumps(bad), encoding="utf-8")
    assert main(["cover", str(path)]) == 2


@pytest.mark.parametrize("arity", ["-1", "0"])
def test_cover_rejects_max_arity_below_one(tmp_path, capsys, arity):
    cover = {"schema": "cover/1", "T": 0, "sets": {"U1": [["p1"]], "U2": [["p1"]]}}
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(cover), encoding="utf-8")
    assert main(["cover", str(path), "--max-arity", arity]) == 2
    _assert_one_error_line(capsys.readouterr())


def test_random_deterministic(capsys):
    assert main(["random", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["random", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["schema"] == "instance/1"


@pytest.mark.parametrize(
    "flags",
    [["--field", "4"], ["--scale", "abc"], ["--kmax", "-3"], ["--field", "4294967311"]],
    ids=["field-not-prime", "scale-malformed", "kmax-negative", "field-too-large"],
)
def test_verify_rejects_bad_flags(instance_file, capsys, flags):
    assert main(["verify", str(instance_file), *flags]) == 2
    _assert_one_error_line(capsys.readouterr())


@pytest.mark.parametrize(
    "argv",
    [
        ["random", "--t-max", "-1"],
        ["random", "--max-slice", "-1"],
        ["random", "--max-slice", "0"],
        ["random", "--max-y-tracks", "-1"],
        ["lemma", "ses", "--count", "-5"],
        ["lemma", "join", "--count", "-1"],
    ],
    ids=["t-max-negative", "max-slice-negative", "max-slice-zero", "max-y-tracks-negative",
         "ses-count-negative", "join-count-negative"],
)
def test_rejects_bad_generator_flags(capsys, argv):
    assert main(argv) == 2
    _assert_one_error_line(capsys.readouterr())


@pytest.mark.parametrize("origin, step", [("nan", "1"), ("0", "inf"), ("-inf", "1")])
def test_verify_rejects_non_finite_scale(tmp_path, capsys, origin, step):
    doc = random_instance(1, GeneratorLimits(t_max=2))
    doc["scale"] = {"origin": float(origin), "step": float(step)}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # writes the NaN/Infinity literals
    assert main(["verify", str(path), "--json"]) == 2
    _assert_one_error_line(capsys.readouterr())


@pytest.mark.parametrize(
    "argv, scale",
    [
        (["verify", "--json"], "0,1e308"),
        (["verify"], "0,1e308"),
        (["fibers"], "0,1e308"),
        (["barcode"], "1e308,1e308"),
        (["verify", "--json"], None),
    ],
    ids=["verify-json", "verify-text", "fibers", "barcode", "verify-document-scale"],
)
def test_rejects_a_scale_that_overflows(tmp_path, capsys, argv, scale):
    """A finite scale that sends a finite value (epsilon 4, bound 64, death 1) past the float range.

    Without the check, verify --json printed "bound": Infinity, which is not
    JSON, and barcode printed the timestamp inf for a finite death.
    """
    doc = random_instance(5, GeneratorLimits(t_max=5))
    if scale is None:
        doc["scale"] = {"origin": 0.0, "step": 1e308}
    path, report = tmp_path / "instance.json", tmp_path / "report.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    flags = [f"--scale={scale}"] if scale else []
    assert main([argv[0], str(path), *argv[1:], *flags, "--report", str(report)]) == 2
    _assert_one_error_line(capsys.readouterr())
    assert not report.exists()


@pytest.mark.parametrize("scale", [None, "0,1", "-1e300,1e300"])
def test_verify_json_and_report_are_strict_json(tmp_path, capsys, scale):
    """No Infinity or NaN literal in what verify --json prints or --report writes."""

    def reject(literal):
        raise AssertionError(f"{literal} is not JSON")

    path, report = tmp_path / "instance.json", tmp_path / "report.json"
    path.write_text(canonical_json(random_instance(5, GeneratorLimits(t_max=5))), encoding="utf-8")
    flags = [f"--scale={scale}"] if scale else []
    assert main(["verify", str(path), "--json", *flags, "--report", str(report)]) == 0
    for text in (capsys.readouterr().out, report.read_text(encoding="utf-8")):
        doc = json.loads(text, parse_constant=reject)
        assert (doc["epsilon"], doc["bound"]) == (4, 64)


def _with(doc, **fields):
    return json.dumps({**doc, **fields})


# Seed 0 has T = 1, so "T": true would read as a valid T if booleans counted as numbers.
_DOC = random_instance(0, GeneratorLimits(t_max=2))


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000 + "]" * 100_000,
        _with(_DOC, T="__T__").replace('"__T__"', "7" * 5000),
        _with(_DOC, scale={"origin": 10**400, "step": 1}),
        _with(_DOC, scale={"origin": 0, "step": 10**400}),
        _with(_DOC, T=True),
        _with(_DOC, scale={"origin": True, "step": 1}),
        _with(_DOC, scale={"origin": 0, "step": True}),
    ],
    ids=["nested-too-deeply", "T-5000-digits", "origin-401-digits", "step-401-digits",
         "T-boolean", "origin-boolean", "step-boolean"],
)
def test_validate_rejects_bad_documents(tmp_path, capsys, text):
    assert _DOC["T"] == 1
    path = tmp_path / "instance.json"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    _assert_one_error_line(capsys.readouterr())


@pytest.mark.parametrize("table", ["map", "x.maps", "y.maps"])
def test_validate_rejects_an_image_of_a_non_element(tmp_path, capsys, table):
    """A table entry for an element the source does not have is an error, not a key to write back."""
    doc = json.loads(canonical_json(_DOC))
    owner, _, key = table.rpartition(".")
    tables = doc[owner][key] if owner else doc[key]
    tables[0]["ghost"] = next(iter(tables[0].values()))
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert "'ghost'" in captured.err


def test_cover_rejects_a_set_name_with_the_label_separator(tmp_path, capsys):
    path = tmp_path / "cover.json"
    cover = {"schema": "cover/1", "T": 0, "sets": {"a": [["p1"]], "b": [["p1"]], "a&b": [["p1"]]}}
    path.write_text(json.dumps(cover), encoding="utf-8")
    assert main(["cover", str(path)]) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert "cover set 'a&b'" in captured.err


def test_cover_rejects_nested_point_ids(tmp_path, capsys):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"schema": "cover/1", "T": 0, "sets": {"U": [[["p1"]]]}}), encoding="utf-8")
    assert main(["cover", str(path)]) == 2
    _assert_one_error_line(capsys.readouterr())


@pytest.mark.parametrize(
    "command, kmax",
    [
        (["fibers"], "999999999999999999999"),
        (["verify"], str(MAX_KMAX + 1)),
        (["barcode"], str(MAX_KMAX + 1)),
        (["lemma", "puncture"], str(MAX_KMAX + 1)),
    ],
    ids=["fibers-huge", "verify-past-ceiling", "barcode-past-ceiling", "puncture-past-ceiling"],
)
def test_rejects_kmax_above_ceiling(instance_file, capsys, command, kmax):
    """Only the rejection path runs: nothing is computed for these values."""
    assert main([*command, str(instance_file), "--kmax", kmax]) == 2
    _assert_one_error_line(capsys.readouterr())


def test_kmax_ceiling_is_accepted(instance_file, capsys):
    assert main(["barcode", str(instance_file), "--kmax", str(MAX_KMAX)]) == 0
