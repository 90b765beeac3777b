"""Spans and counts recorded from outside the program, at layer boundaries.

The benchmark replaces module attributes with timing wrappers.  A wrapper has
to sit on the attribute the caller looks up: `hiertag.models` imports names
such as `loss_and_grad` and `_clip` directly, so patching `hiertag.crf`
would miss every call made from `models`.

Each span has a name, start, end, parent and the operation it belongs to.
Spans are kept in memory and written out when the run ends.  Calls made once
per token (`hierarchy.map`) are too many to keep one by one; they are summed
per parent span (count and total time) and still subtracted from the
parent's self time.  A span's self time is its duration minus its children's,
so the self times of all layers under a root add up to the root's duration.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end, error)
        self.rollups: list[tuple] = []  # (parent, name, count, total seconds)
        self._stack: list[list] = []  # [id, name, start, child seconds, rollups]
        self._next_id = 0
        self.op = 0
        self.op_class = ""
        # root id -> layer bucket -> self seconds / call count / error count
        self.self_s: dict[int, dict[str, float]] = {}
        self.calls: dict[int, dict[str, int]] = {}
        self.errors: dict[int, dict[str, int]] = {}
        self.counters: dict[int, dict[str, float]] = {}
        self.total_s: dict[int, dict[str, float]] = {}  # root -> span name -> seconds
        self.roots: dict[int, tuple[str, float]] = {}  # id -> (name, seconds)
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- recording

    def _root(self) -> int:
        return self._stack[0][0]

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0, None])

    def exit(self, error: bool) -> None:
        end = time.perf_counter()
        sid, name, start, child, rollups = self._stack.pop()
        dur = end - start
        parent = self._stack[-1][0] if self._stack else 0
        self.spans.append((sid, parent, self.op, name, start, end, error))
        if rollups:
            for leaf, (count, total) in rollups.items():
                self.rollups.append((sid, leaf, count, total))
        if not self._stack:
            self.roots[sid] = (name, dur)
            root = sid
        else:
            self._stack[-1][3] += dur
            root = self._root()
        bucket = BUCKETS.get(name, name)
        self.self_s.setdefault(root, defaultdict(float))[bucket] += dur - child
        self.calls.setdefault(root, defaultdict(int))[name] += 1
        self.total_s.setdefault(root, defaultdict(float))[name] += dur
        if error:
            self.errors.setdefault(root, defaultdict(int))[_layer(bucket)] += 1

    def leaf(self, name: str, dur: float, error: bool) -> None:
        """A high-frequency call: summed into its parent instead of stored."""
        top = self._stack[-1]
        top[3] += dur
        if top[4] is None:
            top[4] = {}
        count, total = top[4].get(name, (0, 0.0))
        top[4][name] = (count + 1, total + dur)
        root = self._root()
        bucket = BUCKETS.get(name, name)
        self.self_s.setdefault(root, defaultdict(float))[bucket] += dur
        self.calls.setdefault(root, defaultdict(int))[bucket] += 1
        if error:
            self.errors.setdefault(root, defaultdict(int))[_layer(bucket)] += 1

    def count(self, name: str, value: float = 1.0) -> None:
        if self._stack:
            self.counters.setdefault(self._root(), defaultdict(float))[name] += value

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        self.enter(name)
        error = False
        try:
            yield
        except BaseException:
            error = True
            raise
        finally:
            self.exit(error)

    @contextmanager
    def operation(self, op_class: str):
        """Give the calls inside one benchmark operation a shared id."""
        self.op += 1
        saved, self.op_class = self.op_class, op_class
        try:
            yield
        finally:
            self.op_class = saved

    # -------------------------------------------------------------- patching

    def wrap(self, owner: object, attr: str, name: str, leaf: bool = False, after=None):
        orig = getattr(owner, attr)
        tracer = self

        if leaf:
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                if not tracer.active or not tracer._stack:
                    return orig(*args, **kwargs)
                start = time.perf_counter()
                error = True
                try:
                    out = orig(*args, **kwargs)
                    error = False
                    return out
                finally:
                    tracer.leaf(name, time.perf_counter() - start, error)
        else:
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                if not tracer.active or not tracer._stack:
                    return orig(*args, **kwargs)
                tracer.enter(name)
                error = True
                try:
                    out = orig(*args, **kwargs)
                    error = False
                finally:
                    tracer.exit(error)
                if after is not None:
                    after(tracer, out, args)
                return out

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def counter(self, owner: object, attr: str, name: str) -> None:
        """Count calls without timing them (cheap enough for per-token calls)."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer.active and tracer._stack:
                tracer.count(f"{name}.{tracer.op_class}")
            return orig(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def unpatch(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "op", "name", "start", "end", "error"]}))
            fh.write("\n")
            for s in self.spans:
                fh.write(json.dumps(s))
                fh.write("\n")
            for r in self.rollups:
                fh.write(json.dumps({"rollup": r}))
                fh.write("\n")


# Span name -> layer metric its self time is reported under.
BUCKETS = {
    "features.build_vocab": "features.featurize",
    "features.vectorize_corpus": "features.featurize",
    "models.hier_mask": "models.mask_build",
    "models.singleton_mask": "models.mask_build",
    "experiments.train_models": "models.train",
    "models.train_kind": "models.train",
    "models.trainer_run": "models.train",
    "models.batch_step": "models.train",
    "experiments.tag_sequences": "models.tag",
    "models.predict_hier": "models.tag",
    "hierarchy.map_by_traversal": "hierarchy.map",
    "hierarchy.map_to_tagset": "hierarchy.map",
    "setup": "bench.self",
    "iteration": "bench.self",
}


def _layer(bucket: str) -> str:
    return bucket.split(".", 1)[0]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import hiertag.experiments as ex
    import hiertag.models as m
    from hiertag.hierarchy import ExtendedHierarchy

    tracer.wrap(m, "_build_vocab", "features.build_vocab")
    tracer.wrap(m, "_vectorize_corpus", "features.vectorize_corpus")
    tracer.counter(m, "feature_strings", "features.feature_strings")
    tracer.wrap(m, "emission_cache", "features.emission_fwd")
    tracer.wrap(m, "emission_backprop", "features.emission_bwd")

    tracer.wrap(m, "loss_and_grad", "crf.loss_and_grad")
    tracer.wrap(m, "viterbi", "crf.viterbi")
    tracer.wrap(m, "marginals", "crf.marginals")
    tracer.wrap(m, "sequence_log_prob", "crf.sequence_log_prob")

    def mask_width(t: Tracer, mask, args) -> None:
        t.count("crf.mask_allowed", sum(len(a) for a in mask.allowed))
        t.count("crf.mask_tokens", len(mask.allowed))

    tracer.wrap(m, "_hier_mask", "models.hier_mask", after=mask_width)
    tracer.wrap(m, "_singleton_mask", "models.singleton_mask")
    tracer.wrap(m, "zero_gradients", "models.zero_grad")
    tracer.wrap(m, "_clip", "models.clip")
    tracer.wrap(m._Adagrad, "step", "models.adagrad")
    tracer.wrap(m._Trainer, "run", "models.trainer_run")
    tracer.wrap(m._Trainer, "_batch_step", "models.batch_step")
    tracer.wrap(m._Trainer, "_batch_grads", "models.batch_grads")
    tracer.wrap(m, "_decode_head", "models.decode")
    tracer.wrap(m, "predict_hier", "models.predict_hier")
    tracer.wrap(ex, "predict_hier", "models.predict_hier")
    tracer.wrap(ex, "predict_multi", "models.consolidate")
    for kind in ("hier", "concat", "indep", "mtl"):
        tracer.wrap(ex, f"train_{kind}", "models.train_kind")
    tracer.wrap(m, "score", "evaluation.score")

    make_scorer = m._dev_scorer

    def traced_dev_scorer(*args, **kwargs):
        dev_f1 = make_scorer(*args, **kwargs)
        if dev_f1 is None:
            return None

        def scored(model):
            with tracer.span("models.dev_eval"):
                return dev_f1(model)

        return scored

    m._dev_scorer = traced_dev_scorer
    tracer._patched.append((m, "_dev_scorer", make_scorer))

    tracer.wrap(ExtendedHierarchy, "map_by_traversal", "hierarchy.map_by_traversal", leaf=True)
    tracer.wrap(ExtendedHierarchy, "map_to_tagset", "hierarchy.map_to_tagset", leaf=True)
