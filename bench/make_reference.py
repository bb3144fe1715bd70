"""Regenerate a workload's reference pool in ``bench/reference/<workload>.json``.

    python3 bench/make_reference.py --workload verify-M

Runs every pool seed cold, stores the fields the benchmark compares (and,
for ``lemma-ses``, a digest of the case's barcodes), then times the pool
in ``ROUNDS`` rounds the way the benchmark does, checking each run
against the stored fields.  The pool is ordered by best speed-scaled
latency and cut into strata of ``STRATUM`` entries.
A run picks one entry per stratum, so every seed gets the same mix of
cheap and expensive operations.  Only regenerate when an output is meant
to change: the stored outputs are what every later run is checked against.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import random
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout

from harness import (
    REFERENCE_DIR, SRC, WORK_DIR, WORKLOADS, Runner, clear_caches, find_caches, observed, ses_digest,
)

POOL = {"verify-M": 600, "puncture-S": 1000, "lemma-ses": 2000}
STRATUM = 5  # pool entries per stratum
ROUNDS = 5  # timed rounds that rank the pool by cost


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    import persposet.cli
    from persposet.documents import GeneratorLimits, canonical_json, random_instance

    workload = WORKLOADS[args.workload]
    workdir = WORK_DIR / f"reference-{workload.name}"
    workdir.mkdir(parents=True, exist_ok=True)
    report = workdir / "report.json"
    caches = find_caches()
    entries = []
    try:
        for seed in range(POOL[workload.name]):
            path = workdir / f"{seed}.json"
            if workload.limits is not None:
                doc = random_instance(seed, GeneratorLimits(*workload.limits))
                path.write_text(canonical_json(doc), encoding="utf-8")
            report.unlink(missing_ok=True)
            clear_caches(caches)
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                exit_code = persposet.cli.main(workload.argv(seed, path, report))
            entry = {"seed": seed, **observed(workload, exit_code, report)}
            if workload.limits is None:
                if entry["report"]["violations"]:
                    raise SystemExit(f"lemma ses --seed {seed} reports violations: {entry['report']}")
                entry["barcodes"] = ses_digest(seed)
            entries.append(entry)
        runner = Runner(workload, entries, workdir)
        gc.collect()
        gc.freeze()
        for rnd in range(ROUNDS):
            order = list(range(len(entries)))
            random.Random(rnd).shuffle(order)
            runner.round(order, "plain")
        if runner.failed:
            raise SystemExit(f"operations are not reproducible: {runner.errors}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    best = runner.timeline.best("plain", len(entries))
    ordered = [entry for _, entry in sorted(zip(best, entries), key=lambda item: item[0])]
    strata = [ordered[i : i + STRATUM] for i in range(0, len(ordered), STRATUM)]
    header = json.dumps({"workload": workload.name, "limits": workload.limits})[:-1]
    body = ",\n".join(json.dumps(stratum, separators=(",", ":")) for stratum in strata)
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload.name}.json"
    path.write_text(f'{header}, "strata": [\n{body}\n]}}\n', encoding="utf-8")
    print(f"{path}: {len(ordered)} operations in {len(strata)} strata")
    return 0


if __name__ == "__main__":
    sys.exit(main())
