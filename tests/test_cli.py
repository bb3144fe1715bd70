import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from persposet import cli
from persposet.cli import MAX_KMAX, main
from persposet.documents import GeneratorLimits, canonical_json, parse_instance, random_instance
from persposet.errors import PersistenceError, ValidationError
from tiers import TIERS


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


# The flags each command accepts, pinned so that a table edit that adds or drops one fails here.
_MEASURE = {"--field", "--kmax", "--report", "--scale"}
FLAGS = {
    "validate": set(),
    "extend": {"--report"},
    "barcode": _MEASURE,
    "fibers": _MEASURE,
    "verify": _MEASURE | {"--json"},
    "lemma": {"--field", "--kmax", "--report", "--seed", "--count"},
    "cover": {"--max-arity", "--report"},
    "random": {"--seed", "--t-max", "--max-slice", "--max-y-tracks", "--report"},
}


def test_help_lists_every_command(capsys):
    for flag in ("--help", "-h"):
        assert main([flag]) == 0
        out = capsys.readouterr().out
        for name in COMMANDS:
            assert re.search(rf"^ +{name} +\S", out, re.MULTILINE), name


@pytest.mark.parametrize("name", COMMANDS)
def test_command_help_matches_full_parser(capsys, name):
    """<command> --help returns 0 and lists exactly the flags the command accepts.

    The help text and the parser both read the one command table; FLAGS
    pins its flags, and test_command_takes_exactly_its_flags checks that
    the parser rejects every other one.
    """
    assert main([name, "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(f"usage: persposet {name}")
    assert set(re.findall(r"^  (--[\w-]+)", captured.out, re.MULTILINE)) == FLAGS[name]


def test_help_word_after_the_separator_is_a_positional(capsys):
    """Every word after `--` is a positional, so `verify -- -h` reads a file named -h."""
    assert main(["verify", "--", "-h"]) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert "'-h'" in captured.err


def test_help_word_as_a_flag_value_is_the_value(instance_file, tmp_path, monkeypatch, capsys):
    """`--report -h` writes the report to the file -h instead of printing the help."""
    monkeypatch.chdir(tmp_path)
    assert main(["verify", str(instance_file), "--report", "-h"]) == 0
    assert "verdict:" in capsys.readouterr().out
    assert json.loads((tmp_path / "-h").read_text(encoding="utf-8"))["verdict"] == "holds"


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["verify", "PATH", "--report", "--help"], "persposet verify"),  # --help is never a flag's value
        (["verify", "PATH", "--report=r.json", "-h"], "persposet verify"),  # the value came with "="
        (["verify", "PATH", "--json", "-h"], "persposet verify"),  # a switch takes no value
        (["lemma", "--kmax", "1", "-h", "--", "ses"], "persposet lemma"),
        (["bogus", "--report", "-h"], "persposet COMMAND"),  # no command, so no flag takes a value
    ],
)
def test_help_word_before_the_separator_asks_for_help(tmp_path, monkeypatch, capsys, argv, usage):
    """A help word before `--` prints the usage, and nothing is read or written, unless it is a flag's value."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith(f"usage: {usage} ")
    assert list(tmp_path.iterdir()) == []


def test_argument_tables_follow_the_command_table():
    """The tables parse_args reads hold each command's flags: those that take a value, and each one's default."""
    assert cli._VALUED.keys() == cli._ROWS.keys() == set(COMMANDS)
    for name in COMMANDS:
        assert cli._VALUED[name] == FLAGS[name] - {"--json"}
        assert {flag for flag, _, _ in cli._ROWS[name]} == FLAGS[name]
        positionals = {"lemma": ["join"], "random": []}.get(name, ["PATH"])
        args = cli.parse_args([name, *positionals])
        for flag, attribute, default in cli._ROWS[name]:
            assert attribute == flag[2:].replace("-", "_")
            assert getattr(args, attribute) == default == cli._COMMANDS[name][2][flag][1]


@pytest.mark.parametrize("name", COMMANDS)
def test_command_takes_exactly_its_flags(capsys, name):
    """The parser reads each of the command's flags, and rejects every other one before anything runs."""
    positionals = {"lemma": ["join"], "random": []}.get(name, ["PATH"])
    for flag in FLAGS[name]:
        switch = flag == "--json"
        args = cli.parse_args([name, *positionals, flag, *([] if switch else ["7"])])
        value = getattr(args, flag[2:].replace("-", "_"))
        assert (value is True) if switch else (str(value) == "7")
    for flag in sorted(set().union(*FLAGS.values()) - FLAGS[name]):
        assert main([name, flag, "1"]) == 2, flag
        captured = capsys.readouterr()
        _assert_one_error_line(captured)
        assert f"takes no flag {flag}" in captured.err


# The flags each lemma suite reads, pinned like FLAGS.
SUITE_FLAGS = {
    "puncture": {"--field", "--kmax", "--report"},
    "cylinder": {"--field", "--kmax", "--report"},
    "join": FLAGS["lemma"],
    "ses": {"--field", "--report", "--seed", "--count"},
}


@pytest.mark.parametrize("suite", SUITE_FLAGS)
def test_lemma_suite_takes_exactly_its_flags(instance_file, capsys, suite):
    """A lemma suite reads each of its flags and rejects every other lemma flag, which it would ignore."""
    positionals = [suite, str(instance_file)] if suite in ("puncture", "cylinder") else [suite]
    for flag in SUITE_FLAGS[suite]:
        assert str(getattr(cli.parse_args(["lemma", *positionals, flag, "7"]), flag[2:])) == "7"
    assert main(["lemma", suite, "--help"]) == 0
    assert f"  {suite}  " in capsys.readouterr().out
    for flag in sorted(FLAGS["lemma"] - SUITE_FLAGS[suite]):
        for argv in (["lemma", *positionals, flag, "1"], ["lemma", flag, "1", *positionals]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            _assert_one_error_line(captured)
            assert f"lemma {suite} takes no flag {flag}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["lemma", "puncture", "INSTANCE", "--field", "3", "--report", "REPORT"],
        ["lemma", "ses", "--seed", "4", "--count", "1", "--field", "2", "--report", "REPORT"],
        ["verify", "INSTANCE", "--field", "3", "--report", "REPORT"],
    ],
    ids=["puncture", "ses", "verify"],
)
def test_bench_argv_forms_parse(instance_file, tmp_path, capsys, argv):
    """The argv forms the benchmark runs exit 0 and write their report."""
    report = tmp_path / "report.json"
    paths = {"INSTANCE": str(instance_file), "REPORT": str(report)}
    assert main([paths.get(word, word) for word in argv]) in (0, 1)
    assert capsys.readouterr().err == ""
    assert json.loads(report.read_text(encoding="utf-8"))


def test_unknown_command(capsys):
    assert main(["bogus"]) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert "unknown command 'bogus'" in captured.err


def test_no_command(capsys):
    assert main([]) == 2
    _assert_one_error_line(capsys.readouterr())


def test_validate_ok(instance_file, capsys):
    assert main(["validate", str(instance_file)]) == 0
    assert "valid instance" in capsys.readouterr().out


def test_validate_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "instance/1", "T": 0}', encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    _assert_one_error_line(capsys.readouterr())


def test_missing_file(capsys):
    assert main(["validate", "/nonexistent/file.json"]) == 2
    _assert_one_error_line(capsys.readouterr())


def test_non_utf8_file(tmp_path, capsys):
    """The one error line names the file and the position of the byte that does not decode."""
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xcc\xff")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert captured.err == (
        f"error: {str(path)!r} is not UTF-8: 'utf-8' codec can't decode byte 0xcc in position 0: "
        "invalid continuation byte\n"
    )


# Documents that _read must read as text mode does: each path is prepared in tmp_path.
_DOCUMENT = canonical_json(random_instance(1, GeneratorLimits(t_max=2))).encode("utf-8")
_READ_CASES = {
    "lf": lambda path: path.write_bytes(_DOCUMENT),
    "crlf": lambda path: path.write_bytes(_DOCUMENT.replace(b"\n", b"\r\n")),
    "lone-cr": lambda path: path.write_bytes(_DOCUMENT.replace(b"\n", b"\r")),
    "bom": lambda path: path.write_bytes(b"\xef\xbb\xbf" + _DOCUMENT),
    "invalid-utf8": lambda path: path.write_bytes(_DOCUMENT[:40] + b"\xcc\xff" + _DOCUMENT[40:]),
    "empty": lambda path: path.write_bytes(b""),
    "directory": lambda path: path.mkdir(),
    "missing": lambda path: None,
}


@pytest.mark.parametrize("case", list(_READ_CASES))
def test_read_is_text_mode_read(tmp_path, capsys, case):
    """_read gives Path.read_text's text, or raises its OSError, and validate reports that error the same way.

    Where text mode's decode error names no file, _read's names the path
    and keeps the decode position.
    """
    path = tmp_path / "doc.json"
    _READ_CASES[case](path)
    try:
        expected = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        error = ValidationError(f"{str(path)!r} is not UTF-8: {exc}")
    except OSError as exc:
        error = exc
    else:
        assert cli._read(str(path)) == expected
        return
    with pytest.raises(type(error)) as raised:
        cli._read(str(path))
    assert str(raised.value) == str(error)
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert captured.err == f"error: {error}\n"


def test_malformed_crlf_document_reports_its_text_mode_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{\r\n  "schema": "instance/1",\r\n  "T": \r\n}\r\n')
    with pytest.raises(PersistenceError) as raised:
        parse_instance(path.read_text(encoding="utf-8"))
    assert "line 4 column 1 (char 36)" in str(raised.value)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {raised.value}\n"


def test_report_replaces_a_longer_file(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text("x" * 100_000, encoding="utf-8")
    assert main(["random", "--seed", "3", "--report", str(report)]) == 0
    assert report.read_bytes() == capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o000])
def test_report_mode_is_text_mode_mode(tmp_path, capsys, umask):
    previous = os.umask(umask)
    try:
        assert main(["random", "--report", str(tmp_path / "report.json")]) == 0
        (tmp_path / "text.json").write_text(capsys.readouterr().out, encoding="utf-8")
    finally:
        os.umask(previous)
    assert os.stat(tmp_path / "report.json").st_mode == os.stat(tmp_path / "text.json").st_mode


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


def test_barcode_and_verify_default_to_one_k_max(tmp_path, capsys):
    """Without --kmax, barcode and verify report the same k_max, the largest top degree of the two towers."""
    path, report = tmp_path / "instance.json", tmp_path / "bars.json"
    seen = set()
    for seed in range(10):
        path.write_text(canonical_json(random_instance(seed, TIERS["M"])), encoding="utf-8")
        assert main(["barcode", str(path), "--report", str(report)]) == 0
        capsys.readouterr()
        main(["verify", str(path), "--json"])
        k_max = json.loads(report.read_text(encoding="utf-8"))["k_max"]
        assert json.loads(capsys.readouterr().out)["k_max"] == k_max
        seen.add(k_max)
    assert len(seen) > 1


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
    for suite in ("puncture", "cylinder"):
        assert main(["lemma", suite]) == 2
        captured = capsys.readouterr()
        _assert_one_error_line(captured)
        assert f"lemma {suite}: missing INSTANCE" in captured.err


@pytest.mark.parametrize("suite", ["join", "ses"])
def test_lemma_rejects_an_instance_it_would_ignore(instance_file, capsys, suite):
    """join and ses generate their own cases; a document given to them is an error, not ignored."""
    assert main(["lemma", suite, str(instance_file), "--count", "1"]) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert f"lemma {suite}: unexpected argument" in captured.err


def test_lemma_rejects_an_unknown_suite(capsys):
    assert main(["lemma", "bogus"]) == 2
    _assert_one_error_line(capsys.readouterr())


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
    _assert_one_error_line(capsys.readouterr())


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
        ["random", "--max-y-tracks", "0"],
        ["lemma", "ses", "--count", "-5"],
        ["lemma", "join", "--count", "-1"],
    ],
    ids=["t-max-negative", "max-slice-negative", "max-slice-zero", "max-y-tracks-negative",
         "max-y-tracks-zero", "ses-count-negative", "join-count-negative"],
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["random", "--se", "3"], "random takes no flag --se"),
        (["random", "--seed", "3", "--seed", "4"], "--seed is given twice"),
        (["random", "--seed=3", "--seed", "3"], "--seed is given twice"),
        (["lemma", "ses", "--count", "x"], "--count expects an integer, got 'x'"),
        (["lemma", "ses", "--count", "1.5"], "--count expects an integer"),
        (["random", "--seed"], "--seed needs a value"),
        (["random", "--seed", "--t-max", "2"], "--seed needs a value"),
        (["verify"], "verify: missing INSTANCE"),
        (["lemma"], "lemma: missing {puncture INSTANCE | cylinder INSTANCE | join | ses}"),
        (["validate", "a.json", "b.json"], "validate a.json: unexpected argument 'b.json'"),
        (["verify", "a.json", "--json=yes"], "--json takes no value"),
        (["verify", "a.json", "-j"], "verify a.json: unexpected argument '-j'"),
    ],
    ids=["prefix", "repeated", "repeated-mixed-forms", "non-integer", "float", "no-value",
         "flag-as-value", "missing-positional", "missing-suite", "extra-positional", "switch-with-value",
         "single-dash"],
)
def test_rejects_bad_syntax(capsys, argv, message):
    """argv is checked in full before any file is read."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert message in captured.err


def test_flags_in_any_position_and_either_form(instance_file, capsys):
    """--flag value and --flag=value, before, between and after positionals, give the same output.

    Every word after `--` is a positional.
    """
    expected = None
    for argv in (
        ["lemma", "puncture", str(instance_file), "--field", "3", "--kmax", "1"],
        ["lemma", "--field=3", "puncture", "--kmax=1", str(instance_file)],
        ["lemma", "--kmax", "1", "--field", "3", "puncture", str(instance_file)],
        ["lemma", "--kmax", "1", "--field", "3", "--", "puncture", str(instance_file)],
    ):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == (expected or out)
        expected = out
    assert "puncture steps" in expected


def test_flag_defaults(capsys):
    """Absent flags take the table's defaults: random --seed 0 --t-max 4 --max-slice 6 --max-y-tracks 4."""
    assert main(["random"]) == 0
    assert capsys.readouterr().out == canonical_json(random_instance(0, GeneratorLimits(4, 6, 4)))


@pytest.mark.parametrize(
    "argv",
    [
        ["extend", "INSTANCE"],
        ["barcode", "INSTANCE"],
        ["fibers", "INSTANCE"],
        ["verify", "INSTANCE"],
        ["verify", "INSTANCE", "--json"],
        ["lemma", "puncture", "INSTANCE"],
        ["lemma", "cylinder", "INSTANCE"],
        ["lemma", "join", "--count", "2"],
        ["lemma", "ses", "--count", "2"],
        ["cover", "COVER"],
        ["random"],
    ],
    ids=lambda argv: "-".join(word.strip("-").lower() for word in argv),
)
def test_unwritable_report_prints_nothing(instance_file, tmp_path, capsys, argv):
    """A --report under a missing directory exits 2 before anything reaches stdout."""
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"schema": "cover/1", "T": 0, "sets": {"U": [["p1"]]}}), encoding="utf-8")
    paths = {"INSTANCE": str(instance_file), "COVER": str(cover)}
    argv = [paths.get(word, word) for word in argv]
    assert main([*argv, "--report", str(tmp_path / "missing" / "report.json")]) == 2
    _assert_one_error_line(capsys.readouterr())


@pytest.mark.parametrize("command", ["validate", "verify", "fibers", "extend"])
def test_lone_surrogate_name_exits_2_in_a_utf8_process(tmp_path, command):
    """An element name with a lone surrogate is rejected before any output, in a process whose stdout is UTF-8.

    The JSON escape parses into a str that a UTF-8 stream cannot write;
    in-process tests capture stdout in a StringIO, which accepts it, so
    the command runs in a subprocess.  Both a source and a target name
    carry one, so extend (source names) and fibers and verify (target
    track labels) would each print one.  verify writes no report either.
    """
    doc = random_instance(1, GeneratorLimits(t_max=2))
    text = json.dumps(doc).replace('"x0"', '"x0\\ud800"').replace('"y0"', '"y0\\ud800"')
    assert text.count("x0\\ud800") > 1 and text.count("y0\\ud800") > 1
    path, report = tmp_path / "instance.json", tmp_path / "report.json"
    path.write_text(text, encoding="utf-8")
    argv = [command, str(path)] + (["--report", str(report)] if command == "verify" else [])
    src = str(Path(cli.__file__).parent.parent)
    env = {**os.environ, "PYTHONIOENCODING": "utf-8", "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "persposet.cli", *argv], capture_output=True, env=env)
    assert done.returncode == 2
    assert done.stdout == b""
    lines = done.stderr.decode("utf-8").splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: x.components[")
    assert lines[0].endswith("element 'x0\\ud800' is not valid UTF-8")
    assert not report.exists()


def test_cover_set_name_with_a_lone_surrogate_exits_2_in_a_utf8_process(tmp_path):
    """A cover set name becomes part of every element label, so one with a lone surrogate is rejected first.

    parse_instance rejects the same name, so without this a pipeline
    from cover to an instance would fail only at its second step.
    """
    path = tmp_path / "cover.json"
    path.write_text('{"schema": "cover/1", "T": 0, "sets": {"a\\ud800": [["p"]], "b": [["p"]]}}', encoding="utf-8")
    src = str(Path(cli.__file__).parent.parent)
    env = {**os.environ, "PYTHONIOENCODING": "utf-8", "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "persposet.cli", "cover", str(path)], capture_output=True, env=env)
    assert done.returncode == 2
    assert done.stdout == b""
    lines = done.stderr.decode("utf-8").splitlines()
    assert lines == ["error: sets: set name 'a\\ud800' is not valid UTF-8"]
