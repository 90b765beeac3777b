#!/usr/bin/env python3
"""hiertag benchmark: one workload and one seed per run.

    python3 perfbench/run.py --workload extension --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
With --trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a traced
run instead.  The full result, with the environment record and every sample,
is written to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import pickle
import traceback

# Pin BLAS/OpenMP pools to one thread before numpy is imported.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("extension", "wide", "consolidate")
KINDS = ("hier", "concat", "indep", "mtl")
# An untraced run is split into PARTS forked processes, each one set-up plus
# an equal share of the --seconds of iterations left.  The speed of this
# benchmark's process differs from one process to the next by up to ~10%
# (even after the host-speed correction) while staying steady within a
# process, so pooling the samples of several processes steadies the medians;
# setup_s is the median over the parts' set-ups.  A later part makes no
# iteration when its share is under half an iteration, so a slow host does
# not stretch a run to PARTS iterations.
PARTS = 3
# Kinds whose F1 is an end-to-end metric.  concat and mtl F1 swing by more
# than any allowed bound from one seed's training data to the next (quartile
# spread up to 27%), so they are reported by the traced run and guarded by
# the per-seed floors in loop.F1_FLOORS instead.
STABLE_F1 = ("hier", "indep")
# Layers whose failed calls are counted as <layer>.errors in the traced run.
LAYERS = ("data", "hierarchy", "features", "crf", "models", "model_io", "evaluation")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
    }


def _quantiles(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out.update(q1=q[0], q3=q[2])
    return out


def end_to_end(rec) -> dict:
    metrics = {}
    for kind in KINDS:
        metrics[f"train_tok_s.{kind}"] = (_median(rec.train_tok_s.get(kind)), "tok/s")
        metrics[f"tag_tok_s.{kind}"] = (_median(rec.tag_tok_s.get(kind)), "tok/s")
    for kind in STABLE_F1:
        metrics[f"f1.{kind}"] = (rec.f1.get(kind, 0.0), "f1")
    metrics["setup_s"] = (statistics.median(rec.setup_s), "s")
    metrics["peak_rss_mb"] = (rec.peak_rss_mb, "MB")
    return metrics


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(rec, tracer) -> tuple[dict, dict]:
    """Each layer's cost of one set-up plus one timed iteration: the traced
    set-up's self time plus the mean over traced iterations."""
    setup_ids = [r for r, (name, _) in tracer.roots.items() if name == "setup"]
    iter_ids = [r for r, (name, _) in tracer.roots.items() if name == "iteration"]
    n = len(iter_ids)

    def composite(table: dict, key: str) -> float:
        s = sum(table.get(r, {}).get(key, 0) for r in setup_ids)
        return s + sum(table.get(r, {}).get(key, 0) for r in iter_ids) / n

    def seconds(bucket):
        return composite(tracer.self_s, bucket)

    def calls(name):
        return composite(tracer.calls, name)

    def counter(name):
        return composite(tracer.counters, name)

    train_wall = composite(tracer.total_s, "experiments.train_models")
    optimizer = seconds("models.zero_grad") + seconds("models.clip") + seconds("models.adagrad")
    tag_tokens = counter("tokens.tag")

    m = {
        "features.featurize_s": (seconds("features.featurize"), "s"),
        "features.templates_per_token": (
            counter("features.feature_strings.tag") / tag_tokens if tag_tokens else 0.0, "ratio"),
        "features.emission_fwd_s": (seconds("features.emission_fwd"), "s"),
        "features.emission_bwd_s": (seconds("features.emission_bwd"), "s"),
        "features.vocab_size": (rec.descriptors.get("vocab_size", 0), "count"),
        "f1.concat": (rec.f1.get("concat", 0.0), "f1"),
        "f1.mtl": (rec.f1.get("mtl", 0.0), "f1"),
        "crf.loss_and_grad_s": (seconds("crf.loss_and_grad"), "s"),
        "crf.loss_and_grad.calls": (calls("crf.loss_and_grad"), "count"),
        "crf.viterbi_s": (seconds("crf.viterbi"), "s"),
        "crf.viterbi.calls": (calls("crf.viterbi"), "count"),
        "crf.marginals_s": (seconds("crf.marginals"), "s"),
        "crf.marginals.calls": (calls("crf.marginals"), "count"),
        "crf.sequence_log_prob_s": (seconds("crf.sequence_log_prob"), "s"),
        "crf.sequence_log_prob.calls": (calls("crf.sequence_log_prob"), "count"),
        "crf.mask_width.hier": (
            counter("crf.mask_allowed") / max(counter("crf.mask_tokens"), 1), "tags"),
        "models.mask_build_s": (seconds("models.mask_build"), "s"),
        "models.zero_grad_s": (seconds("models.zero_grad"), "s"),
        "models.clip_s": (seconds("models.clip"), "s"),
        "models.adagrad_s": (seconds("models.adagrad"), "s"),
        "models.optimizer_share": (optimizer / train_wall if train_wall else 0.0, "ratio"),
        "models.batch_steps": (calls("models.batch_step"), "count"),
        "models.batch_grads_s": (seconds("models.batch_grads"), "s"),
        "models.train_s": (seconds("models.train"), "s"),
        "models.dev_eval_s": (seconds("models.dev_eval"), "s"),
        "models.decode_s": (seconds("models.decode"), "s"),
        "models.consolidate_s": (seconds("models.consolidate"), "s"),
        "models.tag_s": (seconds("models.tag"), "s"),
        "models.collisions": (
            sum(c.get("random", 0) for c in rec.collisions.values()), "count"),
        "hierarchy.map_s": (seconds("hierarchy.map"), "s"),
        "hierarchy.map.calls": (calls("hierarchy.map"), "count"),
        "hierarchy.extend_s": (seconds("hierarchy.extend"), "s"),
        "data.synth_s": (seconds("data.synth"), "s"),
        "model_io.load_s": (seconds("model_io.load"), "s"),
        "model_io.save_s": (seconds("model_io.save"), "s"),
        "model_io.bytes": (counter("model_io.bytes"), "bytes"),
        "evaluation.score_s": (seconds("evaluation.score"), "s"),
        "bench.self_s": (seconds("bench.self"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = (composite(tracer.errors, layer), "count")

    root_s = sum(tracer.roots[r][1] for r in setup_ids) + sum(
        tracer.roots[r][1] for r in iter_ids) / n
    m["trace.root_s"] = (root_s, "s")
    # The first iteration also runs the one-off checks; leave it out.
    traced = [c for i, t, _, c in rec.iterations if t and i > 0]
    untraced = [c for i, t, _, c in rec.iterations if not t and i > 0]
    m["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1, "ratio")

    layer_sum = sum(v for k, (v, u) in m.items() if u == "s" and k != "trace.root_s")
    check = {"root_s": root_s, "self_sum_s": layer_sum,
             "ok": abs(layer_sum - root_s) <= 1e-6 * max(root_s, 1.0)}
    return m, check


def run_part(loop, args, tracer, directory: Path, seconds: float, checks: bool,
             estimate: float | None = None):
    """One set-up plus `seconds` of timed iterations in this process."""
    rec = loop.Record()
    rec.clock.start()
    try:
        tracer.active = bool(args.trace)
        with tracer.span("setup"):
            state, raw, corrected = loop.setup(args.workload, args.seed, rec, tracer, directory)
        tracer.active = False
        rec.setup_s.append(corrected)
        rec.raw_setup_s.append(raw)
        loop.iterate(state, rec, tracer, seconds, bool(args.trace), directory, checks,
                     estimate)
    finally:
        rec.clock.stop()
    rec.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return rec


def in_child(fn):
    """Run fn in a forked process and return its result.  The parent waits
    for the child, and kills it if the parent is stopped first."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        status = 1
        try:
            with os.fdopen(write, "wb") as out:
                pickle.dump(fn(), out)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write)
    try:
        with os.fdopen(read, "rb") as inp:
            data = inp.read()
        _, status = os.waitpid(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if status != 0:
        raise RuntimeError(f"benchmark part failed with status {status}")
    return pickle.loads(data)


def merge(loop, parts: list):
    """Pool the parts' samples and counts; the first part's F1, collisions
    and descriptors stand for the run, and every part must reach the same F1."""
    rec = loop.Record()
    first = parts[0]
    rec.f1, rec.collisions, rec.descriptors = first.f1, first.collisions, first.descriptors
    for i, part in enumerate(parts):
        rec.attempted += part.attempted
        rec.failed += part.failed
        rec.failures += part.failures
        rec.setup_s += part.setup_s
        rec.raw_setup_s += part.raw_setup_s
        for name in ("train_tok_s", "tag_tok_s", "raw_train_tok_s", "raw_tag_tok_s"):
            for kind, values in getattr(part, name).items():
                getattr(rec, name).setdefault(kind, []).extend(values)
        rec.iterations += part.iterations
        rec.clock.samples += part.clock.samples
        rec.peak_rss_mb = max(rec.peak_rss_mb, part.peak_rss_mb)
        if i and part.f1:
            rec.check(part.f1 == first.f1, f"part {i} F1 {part.f1} differs from {first.f1}")
    return rec


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so the model directory is still removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "hiertag" / "__init__.py").is_file():
        print(f"error: no hiertag sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import loop
    from spans import Tracer, install

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="models-", dir=OUT))
    tracer = Tracer()
    try:
        if args.trace:
            install(tracer)
            try:
                rec = run_part(loop, args, tracer, work, args.seconds, checks=True)
            finally:
                tracer.unpatch()
        else:
            parts, left, estimate = [], args.seconds, None
            for part in range(PARTS):
                directory = work / f"part{part}"
                directory.mkdir()
                parts.append(in_child(lambda: run_part(
                    loop, args, tracer, directory, left / (PARTS - part), part == 0, estimate)))
                spent = [elapsed for _, _, elapsed, _ in parts[-1].iterations]
                left -= sum(spent)
                estimate = spent[-1] if spent else estimate
            rec = merge(loop, parts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, sum_check = per_layer(rec, tracer)
        rec.check(sum_check["ok"], f"layer self times do not sum to the root: {sum_check}")
    else:
        metrics = end_to_end(rec)
        sum_check = None
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "result": result,
        "failures": rec.failures,
        "descriptors": rec.descriptors,
        "collisions": rec.collisions,
        "iterations": [
            {"index": i, "traced": t, "seconds": e, "corrected_s": c}
            for i, t, e, c in rec.iterations
        ],
        "reference_sample_s": _quantiles(rec.clock.samples),
        "samples": {
            name: {k: _quantiles(v) | {"values": v} for k, v in getattr(rec, name).items()}
            for name in ("train_tok_s", "tag_tok_s", "raw_train_tok_s", "raw_tag_tok_s")
        } | {"setup_s": rec.setup_s, "raw_setup_s": rec.raw_setup_s},
        "trace_sum_check": sum_check,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
