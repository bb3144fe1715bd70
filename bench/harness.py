"""Cold-cache, closed-loop benchmark of the persposet CLI.

One process, one caller, one operation at a time.  An operation is one
in-process call to ``persposet.cli.main([...])`` with stdout captured and
its ``--report`` file read back and compared with a stored reference.
Every functools cache in the ``persposet.*`` modules is cleared before
each operation, so every operation pays the cost a fresh CLI process pays.

Inputs come from the workload seed: each workload's reference pool is
split into strata of similar cost, and the seed picks one pool entry per
stratum.  The timed phase runs every chosen operation in two rounds of
seeded shuffled order, then spends the time left on further rounds that
run the cheapest operations first.  Each operation's latency is its best
time across rounds, scaled to a reference machine speed (see
``calibration.py``), which removes most of the speed noise of a shared
machine.
"""

from __future__ import annotations

import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from time import perf_counter

from calibration import Timeline

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH / "reference"
WORK_DIR = ROOT / ".bench_work"

MIN_ROUNDS = 2
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # CLI words before the instance path
    limits: tuple[int, int, int] | None  # GeneratorLimits(t_max, max_slice, max_y_tracks); None: no document
    compared: tuple[str, ...]  # report fields compared with the reference

    def argv(self, seed: int, path: Path, report: Path) -> list[str]:
        words = list(self.command)
        if self.limits is None:
            words += ["--seed", str(seed), "--count", "1"]
        else:
            words.append(str(path))
        return words + ["--field", str(field_of(seed)), "--report", str(report)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-M",
            ("verify",), (8, 10, 6),
            ("verdict", "m", "epsilon", "bound", "distances", "fiber_defects"),
        ),
        Workload(
            "puncture-S",
            ("lemma", "puncture"), (5, 6, 4),
            ("checked", "trivial", "skipped", "violations"),
        ),
        Workload(
            "lemma-ses",
            ("lemma", "ses"), None,
            ("cases", "violations"),
        ),
    )
}


def field_of(seed: int) -> int:
    """Fields alternate 2 and 3 by instance seed, as in the acceptance batch."""
    return 2 if seed % 2 == 0 else 3


class CacheEscape(RuntimeError):
    """An operation did not start cold, or repeated with different cache traffic."""


# -- inputs ----------------------------------------------------------------------


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8"))


def select(reference: dict, seed: int, strata: int | None = None) -> list[dict]:
    """One pool entry per stratum, chosen by the workload seed.

    Strata come in blocks as many as a stratum's entries; within a block
    the seed uses every position once, in a shuffled order.  Around any
    rank the picks are then as often from the cheap end of their stratum
    as from the expensive end, which keeps the steep tail of the cost
    distribution, and so p90, from moving with the seed.

    ``strata`` keeps only the first (cheapest) strata; the tests use it
    to run tiny versions of each workload.
    """
    rng = random.Random(seed)
    all_strata = reference["strata"]
    size = len(all_strata[0])
    chosen = []
    for block in range(0, len(all_strata), size):
        positions = list(range(size))
        rng.shuffle(positions)
        for stratum, position in zip(all_strata[block : block + size], positions):
            chosen.append(stratum[position % len(stratum)])
    return chosen if strata is None else chosen[:strata]


_SETUP_CHILD = """
import sys, json
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import persposet.cli
from persposet.documents import GeneratorLimits, canonical_json, random_instance
limits, seeds, out = json.loads(sys.argv[2]), json.loads(sys.argv[3]), Path(sys.argv[4])
if limits is not None:
    for seed in seeds:
        (out / f"{seed}.json").write_text(canonical_json(random_instance(seed, GeneratorLimits(*limits))), encoding="utf-8")
"""


def measure_setup(workload: Workload, seeds: list[int], out: Path, repeats: int) -> list[float]:
    """Wall seconds of fresh interpreters that import persposet and write the instances."""
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), json.dumps(workload.limits), json.dumps(seeds), str(out)],
            check=True,
        )
        samples.append(perf_counter() - t0)
    return samples


# -- caches ----------------------------------------------------------------------


def find_caches() -> dict[str, object]:
    """Every functools cache reachable from a ``persposet.*`` module or its classes."""
    found: dict[int, tuple[str, object]] = {}
    for modname, module in sorted(sys.modules.items()):
        if module is None or not modname.startswith("persposet."):
            continue
        short = modname.split(".", 1)[1]
        for name, obj in vars(module).items():
            candidates = [(f"{short}.{name}", obj)]
            if isinstance(obj, type) and obj.__module__ == modname:
                candidates += [(f"{short}.{name}.{attr}", getattr(obj, attr)) for attr in vars(obj)]
            for qualname, candidate in candidates:
                if hasattr(candidate, "cache_clear") and hasattr(candidate, "cache_info"):
                    found.setdefault(id(candidate), (qualname, candidate))
    return dict(sorted(found.values(), key=lambda item: item[0]))


def cache_traffic(caches: dict[str, object]) -> tuple[tuple[int, int], ...]:
    return tuple((c.cache_info().hits, c.cache_info().misses) for c in caches.values())


def clear_caches(caches: dict[str, object]) -> None:
    for cache in caches.values():
        cache.cache_clear()
    for name, cache in caches.items():
        info = cache.cache_info()
        if info.hits or info.misses or info.currsize:
            raise CacheEscape(f"cache {name} is not empty after clearing: {info}")


# -- correctness -----------------------------------------------------------------


def ses_digest(seed: int) -> str:
    """Digest of the barcodes of every module built by ``lemma ses --seed seed --count 1``.

    Replays the case's draws in the order the suite makes them.
    """
    modules = importlib.import_module("persposet.modules")
    verifier = importlib.import_module("persposet.verifier")
    field = modules.FieldSpec(field_of(seed))
    rng = random.Random(seed)
    T = rng.randint(0, 5)
    M = modules.random_module(rng, field, max_dim=3, T=T)
    N = modules.random_module(rng, field, max_dim=3, T=T)
    eps = rng.randint(0, 3)
    K = verifier._random_trivial_module(rng, field, T, eps)
    I = verifier._random_trivial_module(rng, field, T, eps)
    C = modules.random_module(rng, field, max_dim=3, T=T)
    built = [M, N, modules.direct_sum(M, N), K, I, C, modules.direct_sum(K, C), modules.direct_sum(C, I)]
    codes = [[[b, "inf" if d == modules.INF else d] for b, d in modules.barcode(X).bars] for X in built]
    return sha256(json.dumps(codes).encode()).hexdigest()[:16]


def observed(workload: Workload, exit_code: int, report: Path) -> dict:
    """The reference-comparable part of one operation's result."""
    doc = json.loads(report.read_text(encoding="utf-8"))
    return {"exit": exit_code, "report": {key: doc[key] for key in workload.compared}}


# -- environment -----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


# -- the run ---------------------------------------------------------------------


class Runner:
    """Executes one workload's operations and checks each against its reference."""

    def __init__(self, workload: Workload, entries: list[dict], workdir: Path) -> None:
        self.workload = workload
        self.entries = entries
        self.workdir = workdir
        self.report = workdir / "report.json"
        self.caches = find_caches()
        self.traffic: dict[int, tuple] = {}
        self.timeline = Timeline()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def argv(self, i: int) -> list[str]:
        seed = self.entries[i]["seed"]
        return self.workload.argv(seed, self.workdir / f"{seed}.json", self.report)

    def run_one(self, i: int) -> tuple[float, float] | None:
        """Run operation i cold; its start and seconds, or None if it failed."""
        argv = self.argv(i)
        self.report.unlink(missing_ok=True)
        clear_caches(self.caches)
        gc.collect()
        self.attempted += 1
        main = sys.modules["persposet.cli"].main
        out, err = io.StringIO(), io.StringIO()
        try:
            t0 = perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                exit_code = main(argv)
            seconds = perf_counter() - t0
        except Exception as exc:  # a raising operation is a failed operation
            return self._fail(i, f"raised {type(exc).__name__}: {exc}")
        traffic = cache_traffic(self.caches)
        if self.traffic.setdefault(i, traffic) != traffic:
            raise CacheEscape(
                f"operation {argv} repeated with different cache traffic: {self.traffic[i]} then {traffic}; "
                "some cache survives clearing"
            )
        try:
            got = observed(self.workload, exit_code, self.report)
        except (OSError, ValueError, KeyError) as exc:
            return self._fail(i, f"unreadable report: {exc}")
        expected = {"exit": self.entries[i]["exit"], "report": self.entries[i]["report"]}
        if got != expected:
            return self._fail(i, f"output {got} differs from reference {expected}")
        return t0, seconds

    def _fail(self, i: int, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{' '.join(self.argv(i))}: {message}")
        return None

    def check_digests(self) -> None:
        """Outside the timed phase: barcodes of each ses case against the reference."""
        if self.workload.limits is not None:
            return
        for i, entry in enumerate(self.entries):
            if ses_digest(entry["seed"]) != entry["barcodes"]:
                self._fail(i, "barcode digest differs from reference")

    def round(self, order: list[int], mode: str, tracer=None, deadline: float | None = None) -> None:
        """Run each operation once, with a calibration kernel between operations.

        With a ``deadline``, stop before the first operation whose best
        unscaled time so far would carry it past the deadline.
        """
        self.timeline.calibrate()
        estimate = self.timeline.best(mode, len(self.entries), scaled=False) if deadline is not None else None
        for i in order:
            if estimate is not None and perf_counter() + estimate[i] > deadline:
                break
            if tracer is not None:
                tracer.current_op = i
            timed = self.run_one(i)
            self.timeline.calibrate()
            if timed is not None:
                self.timeline.record(mode, i, *timed)


def _quantiles_ms(best: list[float]) -> tuple[float, float]:
    ms = [b * 1000 for b in best]
    if not ms:
        return float("nan"), float("nan")
    if len(ms) == 1:
        return ms[0], ms[0]
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[-1]


def _shuffled(seed: int, rnd: int, n: int) -> list[int]:
    order = list(range(n))
    random.Random(f"{seed}:{rnd}").shuffle(order)
    return order


def _rounds(seconds: float, seed: int, n: int, step) -> int:
    """Run full rounds until the next one would overrun ``seconds``; at least MIN_ROUNDS."""
    start = perf_counter()
    rounds = 0
    last = 0.0
    while rounds < MIN_ROUNDS or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        step(rounds, _shuffled(seed, rounds, n))
        last = perf_counter() - t0
        rounds += 1
    return rounds


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    strata: int | None = None,
    reference: dict | None = None,
    setup_repeats: int = SETUP_REPEATS,
) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details)."""
    workload = WORKLOADS[name]
    reference = load_reference(name) if reference is None else reference
    entries = select(reference, seed, strata)
    seeds = [e["seed"] for e in entries]
    env = environment(seed)
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = measure_setup(workload, seeds, workdir, setup_repeats)
        import persposet.cli  # noqa: F401  (the program under test, imported once)

        runner = Runner(workload, entries, workdir)
        gc.collect()
        gc.freeze()
        if trace:
            metrics, extra = _traced(runner, seed, seconds, name)
        else:
            metrics, extra = _untraced(runner, seed, seconds, setup)
        runner.check_digests()
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    details = {
        "workload": name,
        "env": env,
        "operations": len(entries),
        "failed_ratio": runner.failed / runner.attempted,
        "errors": runner.errors,
        "caches_found": len(runner.caches),
        "caches_cleared": list(runner.caches),
        "setup_samples_s": setup,
        **extra,
    }
    return result, details


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _untraced(runner: Runner, seed: int, seconds: float, setup: list[float]) -> tuple[dict, dict]:
    n = len(runner.entries)
    t0 = perf_counter()
    deadline = t0 + seconds
    for rnd in range(MIN_ROUNDS):
        runner.round(_shuffled(seed, rnd, n), "plain")
    rounds = MIN_ROUNDS
    while perf_counter() < deadline:
        best = runner.timeline.best("plain", n, scaled=False)
        before = runner.attempted
        runner.round(sorted(range(n), key=lambda i: best[i]), "plain", deadline=deadline)
        if runner.attempted == before:
            break
        rounds += 1
    wall = perf_counter() - t0
    scaled = [b for b in runner.timeline.best("plain", n) if b != float("inf")]
    raw = [b for b in runner.timeline.best("plain", n, scaled=False) if b != float("inf")]
    p50, p90 = _quantiles_ms(scaled)
    raw_p50, raw_p90 = _quantiles_ms(raw)
    metrics = {
        "throughput_ops_s": _metric(len(scaled) / sum(scaled) if scaled else 0.0, "1/s"),
        "latency_p50_ms": _metric(p50, "ms"),
        "latency_p90_ms": _metric(p90, "ms"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    per_op = Counter(op for _, op, _, _ in runner.timeline.samples)
    timings = [per_op[i] for i in range(n)]
    extra = {
        "rounds": rounds,
        "timings_per_operation": [min(timings), statistics.median(timings), max(timings)],
        "latency_samples": len(scaled),
        "timed_wall_s": wall,
        "completed_per_wall_s": runner.attempted / wall,
        "unscaled": {
            "throughput_ops_s": len(raw) / sum(raw) if raw else 0.0,
            "latency_p50_ms": raw_p50,
            "latency_p90_ms": raw_p90,
        },
    }
    return metrics, extra


def _traced(runner: Runner, seed: int, seconds: float, name: str) -> tuple[dict, dict]:
    from tracing import LAYERS, Tracer

    n = len(runner.entries)
    tracer = Tracer()
    passes: list[dict] = []

    def step(rnd: int, order: list[int]) -> None:
        if rnd % 2 == 0:
            runner.round(order, "plain")
            return
        t0 = perf_counter()
        with tracer:
            runner.round(order, "traced", tracer)
        passes.append(tracer.summary(runner.timeline.factor(t0, perf_counter())))

    rounds = _rounds(seconds, seed, n, step)
    if rounds % 2:  # end on a traced round so both modes ran equally often
        step(rounds, _shuffled(seed, rounds, n))
        rounds += 1
    tracer.write(WORK_DIR / f"spans-{name}.npz")

    first = passes[0]
    for other in passes[1:]:
        if other["fn_calls"] != first["fn_calls"] or other["counters"] != first["counters"]:
            raise CacheEscape("call counts differ between traced passes of the same operations")

    def self_ms(values: list[float]) -> float:
        return statistics.median(values) * 1000

    metrics: dict[str, dict] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = _metric(self_ms([p["layer_self_s"][layer] for p in passes]), "ms")
        metrics[f"{layer}.calls"] = _metric(first["layer_calls"][layer], "count")

    def fn_self(fn: str) -> float:
        return self_ms([p["fn_self_s"].get(fn, 0.0) for p in passes])

    calls, counters = first["fn_calls"], first["counters"]
    towers = calls.get("homology.homology_tower", 0)
    homology = list(runner.caches).index("homology.homology") if "homology.homology" in runner.caches else None
    hits = sum(runner.traffic[i][homology][0] for i in runner.traffic) if homology is not None else 0
    lookups = sum(sum(runner.traffic[i][homology]) for i in runner.traffic) if homology is not None else 0
    plain = sum(b for b in runner.timeline.best("plain", n) if b != float("inf"))
    traced = sum(b for b in runner.timeline.best("traced", n) if b != float("inf"))
    overhead = traced / plain - 1 if plain else 0.0
    metrics.update({
        "linalg.row_reduce.self_ms": _metric(fn_self("linalg.row_reduce"), "ms"),
        "linalg.row_reduce.calls": _metric(calls.get("linalg.row_reduce", 0), "count"),
        "linalg.row_reduce.cells": _metric(counters.get("linalg.row_reduce.cells", 0), "count"),
        "complexes.order_complex.simplices": _metric(counters.get("complexes.order_complex.simplices", 0), "count"),
        "complexes.induced_map.self_ms": _metric(fn_self("complexes.induced_map"), "ms"),
        "homology.induced_on_homology.self_ms": _metric(fn_self("homology.induced_on_homology"), "ms"),
        "homology.induced_on_homology.calls": _metric(calls.get("homology.induced_on_homology", 0), "count"),
        "homology.homology.calls": _metric(calls.get("homology.homology", 0), "count"),
        "homology.cache_hit_ratio": _metric(hits / lookups if lookups else 0.0, "ratio"),
        "homology.homology_tower.zero_ratio": _metric(
            counters.get("homology.homology_tower.zero", 0) / towers if towers else 0.0, "ratio"),
        "modules.rank_invariant.self_ms": _metric(fn_self("modules.rank_invariant"), "ms"),
        "modules.barcode.calls": _metric(calls.get("modules.barcode", 0), "count"),
        "modules.bottleneck_distance.self_ms": _metric(fn_self("modules.bottleneck_distance"), "ms"),
        "modules.bottleneck_distance.bars": _metric(counters.get("modules.bottleneck_distance.bars", 0), "count"),
        "pposets.restrict.self_ms": _metric(fn_self("pposets.restrict"), "ms"),
        "pposets.restrict.calls": _metric(calls.get("pposets.restrict", 0), "count"),
        "posets.new_poset.calls": _metric(calls.get("posets.new_poset", 0), "count"),
        "documents.parse_instance.self_ms": _metric(fn_self("documents.parse_instance"), "ms"),
        "documents.canonical_json.self_ms": _metric(fn_self("documents.canonical_json"), "ms"),
        "trace.overhead_pct": _metric(overhead * 100, "%"),
    })
    extra = {
        "rounds": rounds,
        "traced_passes": len(passes),
        "spans_per_pass": int(sum(first["fn_calls"].values())),
        "spans_file": str((WORK_DIR / f"spans-{name}.npz").relative_to(ROOT)),
    }
    return metrics, extra
