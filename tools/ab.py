"""Interleaved in-process A/B timing of one benchmark workload on two source trees.

    python3 tools/ab.py --workload verify-M --seed 7 BASE CHANGE
    python3 tools/ab.py --workload puncture-S --seed 12 ../parent .

BASE and CHANGE are repository roots, each holding ``src/persposet``.
Both trees are imported into this one process under their own package
names.  The operations are the ones ``bench/run.py`` picks for the
workload and seed.  Once the instances are written, the heap is frozen
(``gc.freeze()``) as the benchmark freezes it before its timed phase.
Before each operation every functools cache of both trees is cleared and
the garbage collector runs.  The two trees
alternate operation by operation, and which tree goes first alternates
too.  Each operation's time is its best of ``ROUNDS`` rounds, and each report
is checked against the workload's reference in ``bench/reference/``.
The report files of the first round are also compared byte for byte
between the two trees, since the reference compares parsed fields only
and reports must stay byte-identical canonical JSON.  Giving the same
tree twice is an A/A run, which shows the noise floor.

Prints each tree's summed best time, the ratio change/base, and the
number of operations on which each tree was faster.  Exits 1 if an
operation's report differs from the reference, or if the two trees'
report bytes differ.  Only the standard library is used; ``bench/`` is
read, never written.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent.parent / "bench"
ROUNDS = 5  # each operation's time is its best of this many rounds


class Tree:
    """One source tree's persposet package, imported under its own name."""

    def __init__(self, root: Path, name: str) -> None:
        init = root / "src" / "persposet" / "__init__.py"
        if not init.is_file():
            raise SystemExit(f"error: {init} is missing")
        spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
        package = importlib.util.module_from_spec(spec)
        sys.modules[name] = package
        spec.loader.exec_module(package)
        self.name = name
        self.main = importlib.import_module(f"{name}.cli").main
        self.documents = importlib.import_module(f"{name}.documents")
        self.caches = [
            obj
            for modname, module in list(sys.modules.items())
            if modname.startswith(f"{name}.") and module is not None
            for obj in _attributes(module, modname)
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")
        ]

    def run(self, argv: list[str]) -> tuple[float, int]:
        """Run one operation from cold caches; its seconds and exit code."""
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            code = self.main(argv)
            seconds = perf_counter() - t0
        return seconds, code


def _attributes(module, modname: str) -> list:
    """A module's attributes, and those of the classes it defines."""
    found = []
    for obj in vars(module).values():
        found.append(obj)
        if isinstance(obj, type) and obj.__module__ == modname:
            found += [getattr(obj, attr) for attr in vars(obj)]
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True  # read bench/, leave no cache files in it
    sys.path.insert(0, str(BENCH))
    import harness

    workload = harness.WORKLOADS[args.workload]
    entries = harness.select(harness.load_reference(args.workload), args.seed)
    trees = [Tree(args.base.resolve(), "ab_base"), Tree(args.change.resolve(), "ab_change")]
    best = [[float("inf")] * len(entries) for _ in trees]
    written = [[None] * len(entries) for _ in trees]  # each tree's report bytes, first round
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        report = workdir / "report.json"
        if workload.limits is not None:
            documents = trees[0].documents
            for entry in entries:
                instance = documents.random_instance(entry["seed"], documents.GeneratorLimits(*workload.limits))
                (workdir / f"{entry['seed']}.json").write_text(documents.canonical_json(instance), encoding="utf-8")
        gc.collect()
        gc.freeze()  # as bench/harness.run_workload does before its timed phase
        for rnd in range(ROUNDS):
            order = list(range(len(entries)))
            random.Random(f"{args.seed}:{rnd}").shuffle(order)
            for i in order:
                entry = entries[i]
                argv_i = workload.argv(entry["seed"], workdir / f"{entry['seed']}.json", report)
                for t in (0, 1) if (i + rnd) % 2 == 0 else (1, 0):
                    report.unlink(missing_ok=True)
                    seconds, code = trees[t].run(argv_i)
                    best[t][i] = min(best[t][i], seconds)
                    if rnd == 0 and report.exists():
                        written[t][i] = report.read_bytes()
                    try:
                        got = harness.observed(workload, code, report)
                    except (OSError, ValueError, KeyError):
                        got = None
                    if got != {"exit": entry["exit"], "report": entry["report"]}:
                        failed.append(f"{trees[t].name}: {' '.join(argv_i)}")
        gc.unfreeze()

    base, change = (sum(b) * 1000 for b in best)
    wins = [sum(c < b for b, c in zip(*best)), sum(b < c for b, c in zip(*best))]
    print(f"{args.workload} seed {args.seed}: {len(entries)} operations, best of {ROUNDS} rounds")
    print(f"base    {args.base}: {base:.2f} ms")
    print(f"change  {args.change}: {change:.2f} ms")
    print(f"ratio   change/base {change / base:.4f} ({(change / base - 1) * 100:+.1f}%)")
    print(f"faster  change on {wins[0]}, base on {wins[1]} of {len(entries)} operations")
    unequal = [entries[i]["seed"] for i, (b, c) in enumerate(zip(*written)) if b != c]
    print(f"bytes   reports of the two trees differ on {len(unequal)} of {len(entries)} operations")
    for line in sorted(set(failed))[:5]:
        print(f"differs from reference: {line}", file=sys.stderr)
    for seed in unequal[:5]:
        print(f"report bytes differ between the trees: instance seed {seed}", file=sys.stderr)
    return 1 if failed or unequal else 0


if __name__ == "__main__":
    sys.exit(main())
