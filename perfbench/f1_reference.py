#!/usr/bin/env python3
"""Record the test F1 of every kind for a range of seeds.

    python3 perfbench/f1_reference.py --seeds 0-39

Run from the root of a source checkout.  For each workload and seed it sets
up, runs one iteration of the benchmark loop untimed and records the F1 of
every kind.  The table is written to perfbench/f1_reference.json; the
benchmark turns it into per-seed F1 floors (see loop.F1_REFERENCE_SHARE).
Run it only at a commit whose model quality is the reference, and keep
HOLDOUT_SEED out of the range.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported

REFERENCE = run.HERE / "f1_reference.json"


def reference_f1(name: str, seed: int, directory: Path) -> dict[str, float]:
    """F1 per kind from one set-up and one iteration; fails on any failed
    operation, so that no broken run becomes a reference."""
    import loop
    from spans import Tracer

    rec, tracer = loop.Record(), Tracer()
    state, _, _ = loop.setup(name, seed, rec, tracer, directory)
    loop.iteration(state, rec, tracer, True, directory, True)
    broken = [f for f in rec.failures if "below floor" not in f]
    if broken:
        raise RuntimeError(f"{name} seed {seed}: {broken}")
    return dict(rec.f1)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-39")
    p.add_argument("--workload", choices=run.WORKLOADS, action="append")
    args = p.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    import workloads

    seeds = _seeds(args.seeds)
    if workloads.HOLDOUT_SEED in seeds:
        p.error(f"the range holds HOLDOUT_SEED {workloads.HOLDOUT_SEED}")
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    table["commit"] = run.environment()["git_commit"]
    run.OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="models-", dir=run.OUT))
    try:
        for name in args.workload or run.WORKLOADS:
            for seed in seeds:
                f1 = reference_f1(name, seed, work)
                table.setdefault(name, {})[str(seed)] = {k: round(v, 6) for k, v in f1.items()}
                print(name, seed, f1, flush=True)
                REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
