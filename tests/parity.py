"""Parity check: do two versions of hiertag train and tag identically?

    python tests/parity.py --against <git-rev or directory> [--seeds 0-5]
                           [--workloads extension,wide,consolidate]

Both sides run the benchmark workloads (the generators of this tree's
`perfbench/workloads.py`, so both get the same inputs) with every model
kind: train, save, load the saved models and tag the test set, with every
consolidation method for the multi-model kinds.  A git rev is exported with
`git archive` into a temporary directory; a directory is used as it is.
Each side runs in a subprocess of its own with one BLAS thread.

For every workload, seed and kind it prints whether the model bytes,
`repr(history)`, the test predictions, the collision counts and the
collision records (position, candidates and probabilities as `float.hex`)
are equal, and the largest absolute parameter difference.  Under a row
whose predictions differ it prints both sides' test F1 per consolidation
method, and under a row whose records differ the largest absolute
difference of the collision probabilities (`shape differs` when the
collisions themselves differ).  It exits 1 when predictions, collision
counts or records differ, or when either side fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

TREE = Path(__file__).resolve().parent.parent
WORKLOADS = ("extension", "wide", "consolidate")
KINDS = ("hier", "concat", "indep", "mtl")
METHODS = ("random", "best-sequence-score", "max-marginal")  # for the multi-model kinds
FIELDS = ("model", "history", "preds", "collisions", "records")
CHECKED = ("preds", "collisions", "records")  # a difference here fails the run


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _run_kind(w, eh, kind: str, directory: Path) -> tuple[dict, dict[str, np.ndarray]]:
    from hiertag.evaluation import score
    from hiertag.experiments import train_models
    from hiertag.model_io import load_model, save_model
    from hiertag.models import output_tags, tag_batch

    models = train_models(kind, w.train, eh, w.config, dev=w.dev or None)
    paths = [directory / f"{kind}.{i}.htag" for i in range(len(models))]
    for model, path in zip(models, paths):
        save_model(model, path)
    loaded = [load_model(path) for path in paths]
    tokens = [s.texts() for s in w.test.sequences]
    methods = METHODS if kind in ("indep", "mtl") else ("random",)
    preds, collisions, records, probs = {}, {}, {}, {}
    for method in methods:
        out = tag_batch(loaded, tokens, w.test_tagset, method, 0)
        preds[method] = [output_tags(c.tags, loaded[0].hierarchy, w.test_tagset) for c in out]
        collisions[method] = sum(c.collisions for c in out)
        records[method] = [[(r.position, r.candidates, [p.hex() for p in r.probabilities])
                            for r in c.collision_positions] for c in out]
        probs[method] = [p for c in out for r in c.collision_positions for p in r.probabilities]
    golds = [s.tags() for s in w.test.sequences]
    record = {
        "model": [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths],
        "history": [repr(m.history) for m in models],
        "preds": _digest(preds),
        "collisions": collisions,
        "records": _digest(records),
        "f1": {m: score(p, golds).micro.f1 for m, p in preds.items()},
        "probs": probs,
    }
    params = {f"{i}/{k}": v for i, m in enumerate(models) for k, v in m.params().items()}
    return record, params


def worker(out_dir: Path, workloads: list[str], seeds: list[int]) -> None:
    """One side: write `<workload>-<seed>-<kind>.json` and `.npz` per run."""
    sys.path.insert(0, str(TREE / "perfbench"))
    import hiertag
    import workloads as generators
    from hiertag.hierarchy import extend_with_other

    # The side under test, not some other copy of the package.
    assert Path(hiertag.__file__).is_relative_to(os.environ["PYTHONPATH"]), hiertag.__file__

    for name in workloads:
        for seed in seeds:
            w = generators.GENERATORS[name](seed)
            eh = extend_with_other(w.hierarchy)
            for kind in KINDS:
                stem = out_dir / f"{name}-{seed}-{kind}"
                with tempfile.TemporaryDirectory() as tmp:
                    try:
                        record, params = _run_kind(w, eh, kind, Path(tmp))
                    except Exception:  # noqa: BLE001 - reported as a difference
                        record, params = {"error": traceback.format_exc()}, {}
                stem.with_suffix(".json").write_text(json.dumps(record))
                np.savez(stem.with_suffix(".npz"), **params)


def _export(rev: str, into: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(TREE), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def _side(root: Path, out_dir: Path, args: argparse.Namespace) -> subprocess.Popen:
    out_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(out_dir),
           "--workloads", args.workloads, "--seeds", args.seeds]
    return subprocess.Popen(cmd, env=env)


def _max_diff(a: Path, b: Path) -> float | None:
    with np.load(a) as x, np.load(b) as y:
        if sorted(x.files) != sorted(y.files):
            return None
        diffs = [np.abs(x[k] - y[k]).max(initial=0.0) if x[k].shape == y[k].shape else np.inf
                 for k in x.files]
    return float(max(diffs, default=0.0))


def _prob_diff(a: dict, b: dict) -> str:
    """The largest |difference| of two sides' collision probabilities."""
    if a.keys() != b.keys() or any(len(a[m]) != len(b[m]) for m in a):
        return "shape differs"
    return f"{max((abs(x - y) for m in a for x, y in zip(a[m], b[m])), default=0.0):.3g}"


def compare(base: Path, head: Path, workloads: list[str], seeds: list[int]) -> int:
    print(f"{'workload':<12} {'seed':>4} {'kind':<7} "
          + " ".join(f"{f:<10}" for f in FIELDS) + " max|dparam|")
    failed = 0
    for name in workloads:
        for seed in seeds:
            for kind in KINDS:
                stem = f"{name}-{seed}-{kind}"
                a = json.loads((base / f"{stem}.json").read_text())
                b = json.loads((head / f"{stem}.json").read_text())
                if "error" in a or "error" in b:
                    failed += 1
                    print(f"{name:<12} {seed:>4} {kind:<7} error")
                    print(a.get("error", "") + b.get("error", ""), file=sys.stderr)
                    continue
                same = {f: a[f] == b[f] for f in FIELDS}
                failed += not all(same[f] for f in CHECKED)
                diff = _max_diff(base / f"{stem}.npz", head / f"{stem}.npz")
                print(f"{name:<12} {seed:>4} {kind:<7} "
                      + " ".join(f"{'equal' if same[f] else 'DIFFERENT':<10}" for f in FIELDS)
                      + f" {'shape differs' if diff is None else f'{diff:.3g}'}")
                if not same["preds"]:
                    fa, fb = a.get("f1", {}), b.get("f1", {})
                    print("    f1 " + "  ".join(f"{m} {fa.get(m, math.nan):.6f} -> "
                                                f"{fb.get(m, math.nan):.6f}" for m in sorted(fa | fb)))
                if not same["records"]:
                    print(f"    max|dprob| {_prob_diff(a.get('probs', {}), b.get('probs', {}))}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", help="git rev or directory of the version to compare with")
    parser.add_argument("--seeds", default="0-5", help="seeds, e.g. 0-5 or 0,3")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workloads, seeds = args.workloads.split(","), _seeds(args.seeds)
    if args.worker:
        worker(Path(args.worker), workloads, seeds)
        return 0
    if not args.against:
        parser.error("--against is required")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        other = Path(args.against)
        if not other.is_dir():
            other = _export(args.against, tmp / "src-tree")
        sides = [_side(other, tmp / "base", args), _side(TREE, tmp / "head", args)]
        if any([p.wait() for p in sides]):  # wait for both
            print("a side failed to run", file=sys.stderr)
            return 1
        return compare(tmp / "base", tmp / "head", workloads, seeds)


if __name__ == "__main__":
    sys.exit(main())
