"""Kernel probe: time the CRF lattice kernels of two trees in one process.

    python tests/kernel_probe.py --against <git-rev> [--out probe.json]

Loads this tree's `src/hiertag/crf.py` and the rev's side by side (the rev
is exported with `git archive` into a temporary directory) and times
`loss_and_grad_batch`, `viterbi_batch` and `forward_backward` on seeded
batches whose lengths are drawn from 5-60, at B in {8, 100, 400} and y in
{2, 5, 9, 33, 41}.  Each training mask keeps one tag at half of the
positions and a random subset of up to half the tags at the others.  The
masked rows time `loss_and_grad_batch` on hier-like training batches: 8
sequences of 40 positions over y tags, each position keeping 1 to W_m of
them and a fifth of the positions exactly W_m, at every (y, W_m) of MASKED.
The sides alternate within every one of REPEATS repeats; each sample is the
mean of as many calls as fill about 20 ms.  It prints the minimum ms per
call of each side and, as `ratio`, the median over the repeats of each
repeat's change/parent: the two samples of a repeat share the host's load
of that moment, so one lucky sample cannot decide a row.  With --out it
writes the minima, the medians and every sample as JSON.  It exits 1 unless
both sides return the same bytes.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

TREE = Path(__file__).resolve().parent.parent
SIZES = (8, 100, 400)
TAGS = (2, 5, 9, 33, 41)
REPEATS = 7
KERNELS = ("loss_and_grad_batch", "viterbi_batch", "forward_backward")
MASKED = ((5, 2), (5, 4), (9, 3), (9, 4), (9, 5), (12, 6), (17, 9), (17, 17), (41, 9), (41, 21),
          (41, 41))


def _load(tree: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, tree / "src" / "hiertag" / "crf.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def _case(crf, seed: int, size: int, y: int, widest: int | None = None):
    """The batch and masks of one shape, built with `crf`'s own types: the
    probe's mixed batches, or with `widest` a masked row's batch."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(5, 61, size=size) if widest is None else np.full(size, 40)
    batch = crf.PotentialBatch(rng.normal(size=(lengths.sum(), y)), lengths,
                               rng.normal(size=(y, y)), rng.normal(size=y), rng.normal(size=y))
    masks = []
    for n in lengths.tolist():
        keep = np.zeros((n, y), dtype=bool)
        for row in keep:
            if widest is not None:
                width = widest if rng.random() < 0.2 else int(rng.integers(1, widest + 1))
            else:
                width = 1 if rng.random() < 0.5 else int(rng.integers(1, (y + 1) // 2 + 1))
            row[rng.choice(y, size=width, replace=False)] = True
        masks.append(crf.LatticeMask(keep))
    return batch, masks


def _run(crf, kernel: str, batch, masks):
    if kernel == "loss_and_grad_batch":
        return crf.loss_and_grad_batch(batch, masks)
    return getattr(crf, kernel)(batch)


def _call(crf, kernel: str, batch, masks) -> list[np.ndarray]:
    return [np.asarray(a) for a in _run(crf, kernel, batch, masks)]


def _sample(crf, kernel: str, case) -> float:
    """Mean seconds per call over as many calls as fill about 20 ms."""
    start, calls = time.perf_counter(), 0
    while True:
        _run(crf, kernel, *case)
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= 0.02:
            return elapsed / calls


def _export(rev: str, into: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(TREE), "archive", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--against", required=True, help="git rev of the parent tree")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        parent = _load(_export(args.against, Path(tmp)), "crf_parent")
    sides = {"parent": parent, "change": _load(TREE, "crf_change")}
    shapes = [(kernel, size, y, None) for size in SIZES for y in TAGS for kernel in KERNELS]
    shapes += [("loss_and_grad_batch", 8, y, widest) for y, widest in MASKED]
    rows = []
    for kernel, size, y, widest in shapes:
        cases = {name: _case(crf, 1000 * size + y + (widest or 0) * 100000, size, y, widest)
                 for name, crf in sides.items()}
        outs = [_call(crf, kernel, *cases[name]) for name, crf in sides.items()]
        same = all(a.tobytes() == b.tobytes() for a, b in zip(*outs))
        samples = {name: [] for name in sides}
        for r in range(REPEATS):
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for name in order:
                samples[name].append(_sample(sides[name], kernel, cases[name]))
        low = {name: min(s) * 1e3 for name, s in samples.items()}
        med = {name: float(np.median(s)) * 1e3 for name, s in samples.items()}
        paired = np.divide(samples["change"], samples["parent"])
        row = {"kernel": kernel, "B": size, "y": y, "W_m": widest, "same_bytes": same,
               "parent_ms": round(low["parent"], 4), "change_ms": round(low["change"], 4),
               "ratio": round(float(np.median(paired)), 3),
               "median_ms": {n: round(v, 4) for n, v in med.items()},
               "samples_ms": {n: [round(v * 1e3, 4) for v in s] for n, s in samples.items()}}
        rows.append(row)
        print(f"{kernel:20s} B={size:3d} y={y:2d}{'' if widest is None else f' W_m={widest:2d}'}"
              f"  parent {row['parent_ms']:9.3f} ms  change {row['change_ms']:9.3f} ms"
              f"  ratio {row['ratio']:.3f}{'' if same else '  BYTES DIFFER'}", flush=True)
    if args.out:
        args.out.write_text(json.dumps({"repeats": REPEATS, "rows": rows}, indent=1) + "\n")
    return 0 if all(r["same_bytes"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
