"""Command line surface: validate, extend, barcode, fibers, verify, lemma, cover, random.

Exit codes: 0 success / bound holds, 1 verdict violated (verify also
exits 1 on a vacuous verdict, and lemma on any violation), 2 invalid input.
All output is deterministic; --report writes the machine-readable JSON
document next to the human-readable text on stdout.

The table _COMMANDS defines the command line, and parse_args reads argv
against it: `--flag value` or `--flag=value` anywhere after the command,
in full and at most once.  `-h` or `--help` asks for help anywhere before
`--`, except as a flag's value.  A lemma suite takes only the flags it reads
(_SUITES).  Two tables are built from _COMMANDS once, at import: each
command's flags that take a value (_VALUED), which the help scan reads,
and each flag's (flag, attribute, default) row (_ROWS), which gives the
parsed arguments their defaults.  Every rejection raises ValidationError, so it
exits 2 with one `error:` line and nothing on stdout.  Handlers return
their stdout text and report; main writes --report before it prints.

Every document is read by _read and written by _write, with plain
system calls: at a few kilobytes a document, the io stack's layers cost
more than the bytes.  _read decodes UTF-8 and translates line ends as
text mode does; an OSError names the path, and so does the error for a
file that is not UTF-8.
"""

from __future__ import annotations

import math
import os
import random
import sys
from types import SimpleNamespace

from .documents import (
    GeneratorLimits,
    InstanceDocument,
    Scale,
    canonical_json,
    cover_from_doc,
    cover_to_pposet,
    parse_instance,
    pposet_to_doc,
    random_instance,
    random_pposet,
)
from .errors import HypothesisUnmet, PersistenceError, ValidationError
from .homology import FieldSpec, pposet_barcodes
from .modules import INF
from .pposets import persistence_linear_extension, tracks
from .verifier import (
    DEFAULT_FIELD,
    MAX_KMAX,
    TheoremCertificate,
    _degree,
    chain_puncture_suite,
    fiber_defects,
    verify_cylinder_retraction,
    verify_join_acyclicity,
    verify_split_ses_properties,
    verify_theorem,
)


def _enc(v):
    return "inf" if v == INF else v


def _scaled(v, scale: Scale, timestamp: bool = False):
    """Durations (eps values, distances) scale by the step only; index
    positions (births, deaths) are timestamps t = origin + step * i.  A
    finite value that the scale sends past the float range is rejected."""
    if v == INF:
        return _enc(v)
    t = (scale.origin if timestamp else 0) + scale.step * v
    if not math.isfinite(t):
        raise ValidationError(f"scale origin {scale.origin}, step {scale.step} overflows at value {v}")
    return t


def _read(path: str) -> str:
    """The UTF-8 text of a file, with \\r\\n and lone \\r read as \\n, as text mode reads it.

    A file that is not UTF-8 raises ValidationError, naming the path and
    the position of the first byte that does not decode.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except OSError as exc:  # e.g. reading a directory; say which file, as open() does
        raise type(exc)(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    try:
        text = b"".join(chunks).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path!r} is not UTF-8: {exc}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _write(path: str, text: str) -> None:
    """Write text to a file as UTF-8, creating it or truncating it first."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _load_instance(path: str, scale_flag: str | None = None) -> InstanceDocument:
    inst = parse_instance(_read(path))
    if scale_flag is not None:
        try:
            origin, step = (float(part) for part in scale_flag.split(","))
        except ValueError:
            raise ValidationError(f"--scale expects ORIGIN,STEP, got {scale_flag!r}") from None
        inst.scale = Scale(origin, step)
    return inst


def _text(lines: list[str]) -> str:
    return "".join(f"{line}\n" for line in lines)


def _certificate_doc(cert: TheoremCertificate, scale: Scale | None) -> dict:
    doc = {
        "schema": cert.schema,
        "field": cert.field.p,
        "k_max": cert.k_max,
        "m": cert.m,
        "fiber_defects": {label: _enc(v) for label, v in cert.fiber_eps.items()},
        "epsilon": _enc(cert.epsilon),
        "bound": _enc(cert.bound),
        "distances": {str(k): _enc(v) for k, v in cert.distances.items()},
        "verdict": cert.verdict,
        "ratio": cert.ratio,
        "induced_ranks": {str(k): v for k, v in cert.induced_ranks.items()},
    }
    if scale is not None:
        doc["scale"] = {"origin": scale.origin, "step": scale.step}
        doc["scaled"] = {
            "epsilon": _scaled(cert.epsilon, scale),
            "bound": _scaled(cert.bound, scale),
            "distances": {str(k): _scaled(v, scale) for k, v in cert.distances.items()},
        }
    return doc


def _cmd_validate(args):
    inst = _load_instance(args.instance)
    n, m = len(tracks(inst.x)), len(tracks(inst.y))
    return f"valid instance: T={inst.map.T}, {n} source tracks, {m} target tracks\n", None, 0


def _cmd_extend(args):
    inst = _load_instance(args.instance)
    orders = {name: persistence_linear_extension(pp) for name, pp in (("x", inst.x), ("y", inst.y))}
    lines = [f"{name}[{i}]: " + (" < ".join(order) if order else "(empty)")
             for name, per_index in orders.items() for i, order in enumerate(per_index)]
    return _text(lines), {"schema": "extension/1", "orders": orders}, 0


def _cmd_barcode(args):
    inst = _load_instance(args.instance, args.scale)
    field = FieldSpec(args.field)
    k_max = _degree(args.kmax, inst.x, inst.y)
    report = {"schema": "barcode/1", "field": field.p, "k_max": k_max, "x": {}, "y": {}}
    lines = []
    for name, pp in (("x", inst.x), ("y", inst.y)):
        for k, code in enumerate(pposet_barcodes(pp, field, k_max)):
            report[name][str(k)] = [[b, _enc(d)] for b, d in code.bars]
            for b, d in code.bars:
                line = f"{name}\t{k}\t{b}\t{_enc(d)}"
                if inst.scale is not None:
                    line += f"\t{_scaled(b, inst.scale, timestamp=True)}\t{_scaled(d, inst.scale, timestamp=True)}"
                lines.append(line)
    return _text(lines), report, 0


def _cmd_fibers(args):
    inst = _load_instance(args.instance, args.scale)
    field = FieldSpec(args.field)
    defects = fiber_defects(inst.map, field, args.kmax)
    doc = {"schema": "fibers/1", "field": field.p, "defects": {t.label: _enc(eps) for t, eps in defects.items()}}
    lines = [f"{t.label}\t{_enc(eps)}" for t, eps in defects.items()]
    if inst.scale is not None:
        lines = [f"{line}\t{_scaled(eps, inst.scale)}" for line, eps in zip(lines, defects.values())]
    return _text(lines), doc, 0


def _cmd_verify(args):
    inst = _load_instance(args.instance, args.scale)
    field = FieldSpec(args.field)
    cert = verify_theorem(inst.map, field, args.kmax)
    doc = _certificate_doc(cert, inst.scale)
    code = 0 if cert.verdict == "holds" else 1
    if args.json:
        return canonical_json(doc), doc, code
    lines = [f"m = {cert.m}", f"epsilon = {_enc(cert.epsilon)}"]
    if inst.scale is not None:
        lines[-1] += f" (scaled: {_scaled(cert.epsilon, inst.scale)})"
    lines += [f"  fiber {label}: {_enc(eps)}" for label, eps in sorted(cert.fiber_eps.items())]
    lines.append(f"bound 4*m*epsilon = {_enc(cert.bound)}")
    lines += [f"  degree {k}: distance {_enc(d)}" for k, d in sorted(cert.distances.items())]
    if cert.ratio is not None:
        lines.append(f"observed ratio = {cert.ratio:.4f}")
    lines.append(f"verdict: {cert.verdict}")
    return _text(lines), doc, code


def _cmd_lemma(args):
    field = FieldSpec(args.field)
    if args.suite == "puncture":
        report = chain_puncture_suite(_load_instance(args.instance).map, field, args.kmax)
        lines = [
            f"puncture steps: {report.checked} checked, {report.trivial} trivial, "
            f"{report.skipped} skipped, {len(report.violations)} violations"
        ]
        lines += [f"  VIOLATION {v}" for v in report.violations]
        doc = {"checked": report.checked, "trivial": report.trivial,
               "skipped": report.skipped, "violations": report.violations}
        ok = report.ok
    elif args.suite == "cylinder":
        report = verify_cylinder_retraction(_load_instance(args.instance).map, field, args.kmax)
        distances = {k: _enc(v) for k, v in sorted(report.distances.items())}
        lines = [f"cylinder distances: {distances}", f"cone steps acyclic: {report.cone_steps_ok}"]
        doc = {"distances": {str(k): v for k, v in distances.items()},
               "cone_steps_ok": report.cone_steps_ok, "ok": report.ok}
        ok = report.ok
    elif args.suite == "join":
        violations = applicable = 0
        for i in range(args.count):
            rng = random.Random(args.seed + i)
            T = rng.randint(0, GeneratorLimits.t_max)
            A = random_pposet(rng, T, 3, 3, name_prefix="a")
            B = random_pposet(rng, T, 3, 3, name_prefix="b")
            try:
                report = verify_join_acyclicity(A, B, field, args.kmax)
            except HypothesisUnmet:
                continue
            applicable += 1
            if not report.ok:
                violations += 1
        lines = [f"join suite: {applicable} applicable of {args.count}, {violations} violations"]
        doc = {"count": args.count, "applicable": applicable, "violations": violations}
        ok = violations == 0
    else:
        report = verify_split_ses_properties(args.seed, args.count, field)
        lines = [f"ses suite: {report.cases} cases, {len(report.violations)} violations"]
        lines += [f"  VIOLATION {v}" for v in report.violations]
        doc = {"cases": report.cases, "violations": report.violations}
        ok = report.ok
    return _text(lines), {"schema": "lemma/1", "suite": args.suite, **doc}, 0 if ok else 1


def _cmd_cover(args):
    cover = cover_from_doc(_read(args.cover))
    doc = pposet_to_doc(cover_to_pposet(cover, args.max_arity))
    return canonical_json(doc), doc, 0


def _cmd_random(args):
    limits = GeneratorLimits(t_max=args.t_max, max_slice=args.max_slice, max_y_tracks=args.max_y_tracks)
    doc = random_instance(args.seed, limits)
    return canonical_json(doc), doc, 0


# A flag is (kind, default, help).  Its kind is None for a switch, a
# metavar for a string, or (least, greatest) for an integer, None meaning
# unbounded; --help adds an integer's default to its help.  A generated
# slice needs an element, hence --max-slice >= 1, and the target's first
# slice one to label into, hence --max-y-tracks >= 1.
_LIMITS = GeneratorLimits()
_REPORT = {"--report": ("PATH", None, "write the machine-readable report here")}
_FIELD = {"--field": ((None, None), DEFAULT_FIELD.p, "prime characteristic")}
_COMMON = {**_FIELD, "--kmax": ((0, MAX_KMAX), None, "top homology degree to check"), **_REPORT}
_MEASURE = {**_COMMON, "--scale": ("ORIGIN,STEP", None, "report distances also as timestamps t = origin + step*i")}
_SEED = {"--seed": ((None, None), 0, "random seed")}
_CASES = {**_SEED, "--count": ((0, None), 100, "number of random cases")}

# Each lemma suite's positionals and flags: puncture and cylinder read one
# instance, join and ses draw their own cases, and ses takes no degree.
_SUITES = {
    "puncture": (("instance",), _COMMON),
    "cylinder": (("instance",), _COMMON),
    "join": ((), {**_CASES, **_COMMON}),
    "ses": ((), {**_CASES, **_FIELD, **_REPORT}),
}

# The one definition of the command line: name -> (help, positionals,
# flags, handler).  A positional is a name, or (name, choices) where each
# accepted word maps to the positionals that follow it and the flags it
# takes, which the command's flags must hold.
_COMMANDS = {
    "validate": ("parse and validate an instance document", ("instance",), {}, _cmd_validate),
    "extend": ("coherent linear extension of both posets", ("instance",), _REPORT, _cmd_extend),
    "barcode": ("barcodes of both classifying-space towers", ("instance",), _MEASURE, _cmd_barcode),
    "fibers": ("acyclicity defect of every fiber", ("instance",), _MEASURE, _cmd_fibers),
    "verify": ("verify the 4*m*epsilon bound", ("instance",),
               {"--json": (None, False, "print the certificate as JSON"), **_MEASURE}, _cmd_verify),
    "lemma": ("run a lemma suite", (("suite", _SUITES),), {**_CASES, **_COMMON}, _cmd_lemma),
    "cover": ("intersection poset of a nested cover", ("cover",),
              {"--max-arity": ((1, None), None, "deepest intersection to keep"), **_REPORT}, _cmd_cover),
    "random": ("generate a random instance document", (), {
        **_SEED, "--t-max": ((0, None), _LIMITS.t_max, "last index T"),
        "--max-slice": ((1, None), _LIMITS.max_slice, "most elements in a source slice"),
        "--max-y-tracks": ((1, None), _LIMITS.max_y_tracks, "most target tracks"), **_REPORT}, _cmd_random),
}

# Read by every parse_args call, so built once: each command's flags that
# take a value, and each flag's (flag, attribute, default) row.
_VALUED = {
    name: frozenset(flag for flag, (kind, _, _) in entry[2].items() if kind is not None)
    for name, entry in _COMMANDS.items()
}
_ROWS = {
    name: tuple((flag, flag[2:].replace("-", "_"), default) for flag, (_, default, _) in entry[2].items())
    for name, entry in _COMMANDS.items()
}


def _slot(slot) -> str:
    if isinstance(slot, str):
        return slot.upper()
    return "{" + " | ".join(" ".join([word, *map(str.upper, rest)]) for word, (rest, _) in slot[1].items()) + "}"


def _usage(name: str | None) -> str:
    """The --help text of one command, or of the whole command line."""
    if name is None:
        rows = ["usage: persposet COMMAND ... (persposet COMMAND --help for its flags)", "", "commands:"]
        return _text(rows + [f"  {cmd:<10}{entry[0]}" for cmd, entry in _COMMANDS.items()])
    help_text, positionals, flags, _ = _COMMANDS[name]
    words = ["usage: persposet", name, *map(_slot, positionals), "[flags]" if flags else ""]
    rows = [" ".join(words).rstrip(), "", help_text, "", "flags:"]
    for flag, (kind, default, text) in flags.items():
        metavar = "" if kind is None else kind if isinstance(kind, str) else "N"
        if isinstance(kind, tuple) and default is not None:
            text += f" (default {default})"
        rows.append(f"  {flag + ' ' + metavar:<26}{text}")
    rows.append("  -h, --help                show this help")
    for slot in positionals:
        if not isinstance(slot, str):
            rows += ["", f"flags by {slot[0]}:"]
            rows += [f"  {word:<26}{' '.join(taken)}" for word, (_, taken) in slot[1].items()]
    return _text(rows)


def _integer(flag: str, text: str, least: int | None, greatest: int | None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValidationError(f"{flag} expects an integer, got {text!r}") from None
    if least is not None and value < least:
        raise ValidationError(f"{flag} must be at least {least}, got {value}")
    if greatest is not None and value > greatest:
        raise ValidationError(f"{flag} must be at most {greatest}, got {value}")
    return value


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read argv against _COMMANDS: the handler, then one attribute per positional and flag."""
    name = argv[0] if argv else None
    cut = argv.index("--") if "--" in argv else len(argv)  # every word after "--" is a positional
    head = argv[:cut]
    # A help word before "--" asks for help, unless it is the value of the flag before it.
    if "--help" in head or "-h" in head:
        valued = _VALUED.get(name, ())
        if any(word == "--help" or word == "-h" and before not in valued for before, word in zip([None, *head], head)):
            text = _usage(name if name in _COMMANDS else None)
            return SimpleNamespace(handler=lambda args: (text, None, 0))
    if name not in _COMMANDS:
        what = f"unknown command {name!r}" if argv else "no command given"
        raise ValidationError(f"{what}; the commands are {', '.join(_COMMANDS)}")
    _, slots, flags, handler = _COMMANDS[name]
    given, words, rest = {}, [], iter(argv[1:cut])
    for word in rest:
        if not word.startswith("--"):
            words.append(word)
            continue
        flag, has_value, value = word.partition("=")
        if flag not in flags:
            raise ValidationError(f"{name} takes no flag {flag}")
        if flag in given:
            raise ValidationError(f"{flag} is given twice")
        kind = flags[flag][0]
        if kind is None:
            if has_value:
                raise ValidationError(f"{flag} takes no value")
            value = True
        elif not has_value:
            value = next(rest, "--")  # a missing value reads as the end of the flags
            if value.startswith("--"):
                raise ValidationError(f"{flag} needs a value")
        given[flag] = _integer(flag, value, *kind) if isinstance(kind, tuple) else value
    words += argv[cut + 1:]
    args, slots = {}, list(slots)

    def said() -> str:  # the words read so far, which prefix an error about the next one
        return " ".join([name, *args.values()])

    for word in words:
        if not slots:
            raise ValidationError(f"{said()}: unexpected argument {word!r}")
        slot = slots.pop(0)
        if not isinstance(slot, str):
            slot, choices = slot
            if word not in choices:
                raise ValidationError(f"{said()}: {slot} must be one of {', '.join(choices)}, got {word!r}")
            slots, taken = list(choices[word][0]), choices[word][1]
            extra = next((flag for flag in given if flag not in taken), None)
            if extra is not None:
                raise ValidationError(f"{name} {word} takes no flag {extra}")
        args[slot] = word
    if slots:
        raise ValidationError(f"{said()}: missing {_slot(slots[0])}")
    for flag, attribute, default in _ROWS[name]:
        args[attribute] = given.get(flag, default)
    return SimpleNamespace(handler=handler, **args)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        text, report, code = args.handler(args)
        if getattr(args, "report", None):
            _write(args.report, canonical_json(report))
        print(text, end="")
        return code
    except (OSError, PersistenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
