"""Command line surface: validate, extend, barcode, fibers, verify, lemma, cover, random.

Exit codes: 0 success / bound holds, 1 verdict violated (verify also
exits 1 on a vacuous verdict, and lemma on any violation), 2 invalid input.
All output is deterministic; --report writes the machine-readable JSON
document next to the human-readable text on stdout.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from pathlib import Path
from typing import Iterable

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
from .pposets import persistence_linear_extension, top_degree, tracks
from .verifier import (
    TheoremCertificate,
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


def _parse_scale(flag: str) -> Scale:
    try:
        origin, step = (float(part) for part in flag.split(","))
    except ValueError:
        raise ValidationError(f"--scale expects ORIGIN,STEP, got {flag!r}") from None
    return Scale(origin, step)


def _load_instance(path: str, scale_flag: str | None) -> InstanceDocument:
    inst = parse_instance(Path(path).read_text(encoding="utf-8"))
    if scale_flag is not None:
        inst.scale = _parse_scale(scale_flag)
    return inst


def _write_report(path: str | None, doc: dict) -> None:
    if path:
        Path(path).write_text(canonical_json(doc), encoding="utf-8")


def _certificate_doc(cert: TheoremCertificate, scale: Scale | None) -> dict:
    doc = {
        "schema": cert.schema,
        "field": cert.field.p,
        "k_max": cert.k_max,
        "m": cert.m,
        "fiber_defects": {label: _enc(v) for label, v in sorted(cert.fiber_eps.items())},
        "epsilon": _enc(cert.epsilon),
        "bound": _enc(cert.bound),
        "distances": {str(k): _enc(v) for k, v in sorted(cert.distances.items())},
        "verdict": cert.verdict,
        "ratio": cert.ratio,
        "induced_ranks": {str(k): v for k, v in sorted(cert.induced_ranks.items())},
    }
    if scale is not None:
        doc["scale"] = {"origin": scale.origin, "step": scale.step}
        doc["scaled"] = {
            "epsilon": _scaled(cert.epsilon, scale),
            "bound": _scaled(cert.bound, scale),
            "distances": {str(k): _scaled(v, scale) for k, v in sorted(cert.distances.items())},
        }
    return doc


def _cmd_validate(args) -> int:
    inst = _load_instance(args.instance, None)
    m = len(tracks(inst.y))
    n = len(tracks(inst.x))
    print(f"valid instance: T={inst.map.T}, {n} source tracks, {m} target tracks")
    return 0


def _cmd_extend(args) -> int:
    inst = _load_instance(args.instance, None)
    doc = {}
    for name, pp in (("x", inst.x), ("y", inst.y)):
        orders = persistence_linear_extension(pp)
        doc[name] = orders
        for i, order in enumerate(orders):
            print(f"{name}[{i}]: " + (" < ".join(order) if order else "(empty)"))
    _write_report(args.report, {"schema": "extension/1", "orders": doc})
    return 0


def _cmd_barcode(args) -> int:
    inst = _load_instance(args.instance, args.scale)
    field = FieldSpec(args.field)
    k_max = args.kmax if args.kmax is not None else max(top_degree(inst.x), top_degree(inst.y))
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
    for line in lines:
        print(line)
    _write_report(args.report, report)
    return 0


def _cmd_fibers(args) -> int:
    inst = _load_instance(args.instance, args.scale)
    field = FieldSpec(args.field)
    defects = fiber_defects(inst.map, field, args.kmax)
    doc = {"schema": "fibers/1", "field": field.p, "defects": {t.label: _enc(eps) for t, eps in defects.items()}}
    lines = [f"{t.label}\t{_enc(eps)}" for t, eps in defects.items()]
    if inst.scale is not None:
        lines = [f"{line}\t{_scaled(eps, inst.scale)}" for line, eps in zip(lines, defects.values())]
    for line in lines:
        print(line)
    _write_report(args.report, doc)
    return 0


def _cmd_verify(args) -> int:
    inst = _load_instance(args.instance, args.scale)
    field = FieldSpec(args.field)
    cert = verify_theorem(inst.map, field, args.kmax)
    doc = _certificate_doc(cert, inst.scale)
    if args.json:
        print(canonical_json(doc), end="")
    else:
        print(f"m = {cert.m}")
        line = f"epsilon = {_enc(cert.epsilon)}"
        if inst.scale is not None:
            line += f" (scaled: {_scaled(cert.epsilon, inst.scale)})"
        print(line)
        for label, eps in sorted(cert.fiber_eps.items()):
            print(f"  fiber {label}: {_enc(eps)}")
        print(f"bound 4*m*epsilon = {_enc(cert.bound)}")
        for k, d in sorted(cert.distances.items()):
            print(f"  degree {k}: distance {_enc(d)}")
        if cert.ratio is not None:
            print(f"observed ratio = {cert.ratio:.4f}")
        print(f"verdict: {cert.verdict}")
    _write_report(args.report, doc)
    return 0 if cert.verdict == "holds" else 1


def _cmd_lemma(args) -> int:
    field = FieldSpec(args.field)
    if args.suite == "puncture":
        report = chain_puncture_suite(_load_instance(args.instance, None).map, field, args.kmax)
        lines = [
            f"puncture steps: {report.checked} checked, {report.trivial} trivial, "
            f"{report.skipped} skipped, {len(report.violations)} violations"
        ]
        lines += [f"  VIOLATION {v}" for v in report.violations]
        doc = {"checked": report.checked, "trivial": report.trivial,
               "skipped": report.skipped, "violations": report.violations}
        ok = report.ok
    elif args.suite == "cylinder":
        report = verify_cylinder_retraction(_load_instance(args.instance, None).map, field, args.kmax)
        distances = {k: _enc(v) for k, v in sorted(report.distances.items())}
        lines = [f"cylinder distances: {distances}", f"cone steps acyclic: {report.cone_steps_ok}"]
        doc = {"distances": {str(k): v for k, v in distances.items()},
               "cone_steps_ok": report.cone_steps_ok, "ok": report.ok}
        ok = report.ok
    elif args.suite == "join":
        violations = 0
        applicable = 0
        limits = GeneratorLimits()
        for i in range(args.count):
            rng = random.Random(args.seed + i)
            T = rng.randint(0, limits.t_max)
            A = random_pposet(rng, T, 3, 3, limits, name_prefix="a")
            B = random_pposet(rng, T, 3, 3, limits, name_prefix="b")
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
    for line in lines:
        print(line)
    _write_report(args.report, {"schema": "lemma/1", "suite": args.suite, **doc})
    return 0 if ok else 1


def _cmd_cover(args) -> int:
    cover = cover_from_doc(Path(args.cover).read_text(encoding="utf-8"))
    pp = cover_to_pposet(cover, args.max_arity)
    doc = pposet_to_doc(pp)
    print(canonical_json(doc), end="")
    _write_report(args.report, doc)
    return 0


def _cmd_random(args) -> int:
    limits = GeneratorLimits(t_max=args.t_max, max_slice=args.max_slice, max_y_tracks=args.max_y_tracks)
    doc = random_instance(args.seed, limits)
    print(canonical_json(doc), end="")
    _write_report(args.report, doc)
    return 0


def _add_common(p: argparse.ArgumentParser, scale: bool = True) -> None:
    p.add_argument("--field", type=int, default=2, help="prime characteristic (default 2)")
    p.add_argument("--kmax", type=int, default=None, help="top homology degree to check")
    p.add_argument("--report", default=None, help="write the machine-readable report here")
    if scale:
        p.add_argument("--scale", default=None, metavar="ORIGIN,STEP",
                       help="report distances also as timestamps t = origin + step*i")


def _args_instance(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance")


def _args_extend(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance")
    p.add_argument("--report", default=None)


def _args_measure(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance")
    _add_common(p)


def _args_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance")
    p.add_argument("--json", action="store_true", help="print the certificate as JSON")
    _add_common(p)


def _args_lemma(p: argparse.ArgumentParser) -> None:
    p.add_argument("suite", choices=["puncture", "cylinder", "join", "ses"])
    p.add_argument("instance", nargs="?", help="instance document (puncture and cylinder)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    _add_common(p, scale=False)


def _args_cover(p: argparse.ArgumentParser) -> None:
    p.add_argument("cover")
    p.add_argument("--max-arity", type=int, default=None)
    p.add_argument("--report", default=None)


def _args_random(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-max", type=int, default=4)
    p.add_argument("--max-slice", type=int, default=6)
    p.add_argument("--max-y-tracks", type=int, default=4)
    p.add_argument("--report", default=None)


# The one definition of every command: name -> (help, arguments, handler).
_COMMANDS = {
    "validate": ("parse and validate an instance document", _args_instance, _cmd_validate),
    "extend": ("coherent linear extension of both posets", _args_extend, _cmd_extend),
    "barcode": ("barcodes of both classifying-space towers", _args_measure, _cmd_barcode),
    "fibers": ("acyclicity defect of every fiber", _args_measure, _cmd_fibers),
    "verify": ("verify the 4*m*epsilon bound", _args_verify, _cmd_verify),
    "lemma": ("run a lemma suite", _args_lemma, _cmd_lemma),
    "cover": ("intersection poset of a nested cover", _args_cover, _cmd_cover),
    "random": ("generate a random instance document", _args_random, _cmd_random),
}


def build_parser(commands: Iterable[str] = tuple(_COMMANDS)) -> argparse.ArgumentParser:
    """The CLI parser with subparsers for the given commands only.

    A parser for fewer commands still names them all in its usage line, so
    it prints the same messages as the full one.
    """
    commands = tuple(commands)
    parser = argparse.ArgumentParser(prog="persposet")
    usage = None if len(commands) == len(_COMMANDS) else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=usage)
    for name in commands:
        help_text, add_arguments, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


# Smallest accepted value of each integer flag; a generated slice needs an element.
_FLAG_MINIMUM = {"kmax": 0, "count": 0, "t_max": 0, "max_slice": 1, "max_y_tracks": 0, "max_arity": 1}

# Largest accepted --kmax.  Homology in degree k needs a chain of k + 1
# elements in a core slice, whose order complex has 2**(k + 1) - 1
# simplices, so no instance that can be computed has a class in degree 256;
# the bound keeps the per-degree lists of barcodes and ranks small.
MAX_KMAX = 256


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Building one subparser instead of eight is most of the parse cost.
    known = argv[:1] if argv and argv[0] in _COMMANDS else tuple(_COMMANDS)
    args = build_parser(known).parse_args(argv)
    try:
        if args.command == "lemma" and args.suite in ("puncture", "cylinder") and not args.instance:
            raise ValidationError("this suite needs an instance document")
        for name, least in _FLAG_MINIMUM.items():
            value = getattr(args, name, None)
            if value is not None and value < least:
                raise ValidationError(f"--{name.replace('_', '-')} must be at least {least}, got {value}")
        if getattr(args, "kmax", None) is not None and args.kmax > MAX_KMAX:
            raise ValidationError(f"--kmax must be at most {MAX_KMAX}, got {args.kmax}")
        return args.func(args)
    except (OSError, UnicodeDecodeError, PersistenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
