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
The long-tail rows time `viterbi_batch` and `forward_backward` at y = 9 on
999 sequences of 15 positions plus one of 300, and on 1,000 of 15 as the
control (`T` is a fixed-length batch's longest sequence).

Each of REPEATS repeats alternates single calls of the two sides, the
leading side alternating between repeats, until each side has run SAMPLE_S
seconds, with the garbage collector off; a side's sample is its mean per
call.  It prints the minimum ms per call of each side, as `ratio` the median
over the repeats of each repeat's change/parent (calls alternating one by
one share the host's load of that moment, so neither a lucky sample nor a
shift of the load between samples can decide a row), and as `peak_mb` each
side's peak traced memory over the one untimed call whose bytes it compares
(tracemalloc runs for that call only), and as `max_abs_diff` the largest
|change - parent| over every output of that call (inf where one side is
finite and the other is not).  With --out it writes the minima, the
medians, the peaks, the differences and every sample as JSON.  It exits 1
unless both sides return the same bytes.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

TREE = Path(__file__).resolve().parent.parent
SIZES = (8, 100, 400)
TAGS = (2, 5, 9, 33, 41)
REPEATS = 11
SAMPLE_S = 0.2
KERNELS = ("loss_and_grad_batch", "viterbi_batch", "forward_backward")
MASKED = ((5, 2), (5, 4), (9, 3), (9, 4), (9, 5), (12, 6), (17, 9), (17, 17), (41, 9), (41, 21),
          (41, 41))
LONG_TAIL = ((15,) * 999 + (300,), (15,) * 1000)  # at y = 9


def _load(tree: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, tree / "src" / "hiertag" / "crf.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def _case(crf, seed: int, kernel: str, lengths, y: int, widest: int | None = None):
    """The batch and masks (for `loss_and_grad_batch` only) of one shape,
    built with `crf`'s own types: the probe's mixed batches of lengths drawn
    from 5-60 when lengths is a size, else of the given lengths; with
    `widest` a masked row's batch."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(5, 61, size=lengths) if np.ndim(lengths) == 0 else np.array(lengths)
    batch = crf.PotentialBatch(rng.normal(size=(lengths.sum(), y)), lengths,
                               rng.normal(size=(y, y)), rng.normal(size=y), rng.normal(size=y))
    masks = []
    for n in lengths.tolist() if kernel == "loss_and_grad_batch" else ():
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


def _call(crf, kernel: str, batch, masks) -> tuple[list[np.ndarray], float]:
    """The outputs of one call and its peak traced memory in MB."""
    tracemalloc.start()
    try:
        out = [np.asarray(a) for a in _run(crf, kernel, batch, masks)]
        return out, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _max_abs_diff(parent: list[np.ndarray], change: list[np.ndarray]) -> float:
    """The largest |change - parent| over every output: inf where the shapes
    differ or one side is finite and the other is not, else over the finite
    values (the non-finite ones must then be equal)."""
    worst = 0.0
    for a, b in zip(parent, change):
        a, b = a.astype(np.float64), b.astype(np.float64)
        if a.shape != b.shape:
            return np.inf
        finite = np.isfinite(a)
        if (finite != np.isfinite(b)).any() or not np.array_equal(a[~finite], b[~finite],
                                                                  equal_nan=True):
            return np.inf
        worst = max(worst, float(np.abs(a[finite] - b[finite]).max(initial=0.0)))
    return worst


def _repeat(sides: dict, kernel: str, cases: dict, lead: int) -> dict[str, float]:
    """Each side's mean seconds per call over one repeat, in which single
    calls of the sides alternate, sides[lead] first, until each has run
    SAMPLE_S seconds."""
    order = list(sides)[lead:] + list(sides)[:lead]
    spent, calls = dict.fromkeys(order, 0.0), 0
    gc.disable()
    try:
        while min(spent.values()) < SAMPLE_S:
            for name in order:
                start = time.perf_counter()
                _run(sides[name], kernel, *cases[name])
                spent[name] += time.perf_counter() - start
            calls += 1
    finally:
        gc.enable()
    return {name: t / calls for name, t in spent.items()}


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
    shapes += [("loss_and_grad_batch", (40,) * 8, y, widest) for y, widest in MASKED]
    shapes += [(kernel, lengths, 9, None) for lengths in LONG_TAIL
               for kernel in ("viterbi_batch", "forward_backward")]
    rows = []
    for kernel, lengths, y, widest in shapes:
        size, longest = (len(lengths), max(lengths)) if np.ndim(lengths) else (lengths, None)
        seed = 1000 * size + y + (widest or 0) * 100000
        cases = {name: _case(crf, seed, kernel, lengths, y, widest) for name, crf in sides.items()}
        outs, peaks = zip(*(_call(crf, kernel, *cases[name]) for name, crf in sides.items()))
        same = all(a.tobytes() == b.tobytes() for a, b in zip(*outs))
        moved = _max_abs_diff(*outs)
        samples = {name: [] for name in sides}
        for r in range(REPEATS):
            for name, seconds in _repeat(sides, kernel, cases, r % 2).items():
                samples[name].append(seconds)
        low = {name: min(s) * 1e3 for name, s in samples.items()}
        med = {name: float(np.median(s)) * 1e3 for name, s in samples.items()}
        paired = np.divide(samples["change"], samples["parent"])
        row = {"kernel": kernel, "B": size, "T": longest, "y": y, "W_m": widest, "same_bytes": same,
               "max_abs_diff": moved,
               "parent_ms": round(low["parent"], 4), "change_ms": round(low["change"], 4),
               "ratio": round(float(np.median(paired)), 3),
               "peak_mb": {n: round(v, 2) for n, v in zip(sides, peaks)},
               "median_ms": {n: round(v, 4) for n, v in med.items()},
               "samples_ms": {n: [round(v * 1e3, 4) for v in s] for n, s in samples.items()}}
        rows.append(row)
        shape = (f"B={size:4d}" + ("" if longest is None else f" T={longest:3d}")
                 + f" y={y:2d}" + ("" if widest is None else f" W_m={widest:2d}"))
        print(f"{kernel:20s} {shape:24s}  parent {row['parent_ms']:9.3f} ms"
              f"  change {row['change_ms']:9.3f} ms  ratio {row['ratio']:.3f}"
              f"  peak_mb {peaks[0]:7.2f} / {peaks[1]:7.2f}  max_abs_diff {moved:.3g}"
              f"{'' if same else '  BYTES DIFFER'}", flush=True)
    if args.out:
        args.out.write_text(json.dumps({"repeats": REPEATS, "sample_s": SAMPLE_S, "rows": rows},
                                       indent=1) + "\n")
    return 0 if all(r["same_bytes"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
