"""The closed loop: one client, sequential calls into the library's entry
points, the way the experiment harness and `hiertag tag` call them.

Set-up builds the inputs (and, on `consolidate`, trains and saves the
models).  Each timed iteration then trains and tags with every model kind
(`extension`, `wide`) or loads the saved models and tags with every kind and
consolidation method (`consolidate`).  A tagging request is one call of
`tag_sequences` on the whole test set, as `hiertag tag` tags one input file;
on `consolidate` the request starts by loading the models, as `hiertag tag`
does.  Every operation's output is checked; a failed check or an exception
counts as a failed operation.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from hiertag.evaluation import score
from hiertag.experiments import tag_sequences, train_models
from hiertag.hierarchy import ExtendedHierarchy, extend_with_other
from hiertag.model_io import load_model, save_model
from hiertag.models import ConsolidationMethod, ModelKind

import workloads
from clock import Clock
from spans import Tracer

KINDS = tuple(k.value for k in ModelKind)
METHODS = tuple(m.value for m in ConsolidationMethod)
MULTI = ("indep", "mtl")
CHECK_DOCS = 20  # test documents re-tagged by the round-trip and method checks

# Lowest acceptable test F1 per workload and kind, set well below the lowest
# value seen over the seeds run at the commit that introduced the benchmark,
# so that only a real loss of quality trips them.
F1_FLOORS = {
    "extension": {"hier": 0.65, "concat": 0.35, "indep": 0.65, "mtl": 0.45},
    "wide": {"hier": 0.65, "concat": 0.60, "indep": 0.60, "mtl": 0.15},
    "consolidate": {"hier": 0.50, "concat": 0.25, "indep": 0.50, "mtl": 0.20},
}
# F1 differs a lot from seed to seed, so a fixed floor is loose on most
# seeds.  On a seed listed in f1_reference.json (written by f1_reference.py
# at the commit that introduced the benchmark) each kind must also reach
# this share of the F1 recorded there.  The shares sit below the lowest
# ratio seen on seeds 0-9 when only the training shuffle seed changes, a
# larger change than any reordering of the arithmetic: concat and mtl
# lose up to 32% that way, hier and indep up to 6%.
F1_REFERENCE_SHARE = {"hier": 0.85, "concat": 0.6, "indep": 0.85, "mtl": 0.6}
_REFERENCE_PATH = Path(__file__).resolve().parent / "f1_reference.json"
F1_REFERENCE = json.loads(_REFERENCE_PATH.read_text()) if _REFERENCE_PATH.is_file() else {}


def f1_floor(name: str, seed: int, kind: str) -> float:
    ref = F1_REFERENCE.get(name, {}).get(str(seed), {}).get(kind)
    floor = F1_FLOORS[name][kind]
    return floor if ref is None else max(floor, F1_REFERENCE_SHARE[kind] * ref)


@dataclass
class Record:
    """Everything the run measured, checked and counted."""

    clock: Clock = field(default_factory=Clock)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    raw_setup_s: list[float] = field(default_factory=list)
    # host-corrected samples (see clock.py) and the raw wall-clock ones
    train_tok_s: dict[str, list[float]] = field(default_factory=dict)
    tag_tok_s: dict[str, list[float]] = field(default_factory=dict)
    raw_train_tok_s: dict[str, list[float]] = field(default_factory=dict)
    raw_tag_tok_s: dict[str, list[float]] = field(default_factory=dict)
    f1: dict[str, float] = field(default_factory=dict)
    collisions: dict[str, dict[str, int]] = field(default_factory=dict)
    # (index, traced, raw seconds, host-corrected seconds) of each iteration
    iterations: list[tuple[int, bool, float, float]] = field(default_factory=list)
    descriptors: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    def sample(self, metric: str, kind: str, work: float, raw: float, corrected: float) -> None:
        getattr(self, metric).setdefault(kind, []).append(work / corrected)
        getattr(self, "raw_" + metric).setdefault(kind, []).append(work / raw)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


@dataclass
class State:
    workload: workloads.Workload
    seed: int
    eh: ExtendedHierarchy
    tokens: list[list[str]]
    golds: list[list[str]]
    model_paths: dict[str, list[Path]] = field(default_factory=dict)
    trained: dict[str, list] = field(default_factory=dict)  # the saved models, in memory


def _operation(rec: Record, tracer: Tracer, op_class: str, what: str, fn):
    """Run one operation; an exception is recorded as a failure, not raised."""
    rec.attempted += 1
    try:
        with tracer.operation(op_class):
            return True, fn()
    except Exception:
        rec.failed += 1
        rec.failures.append(f"{what}: exception")
        print(f"operation failed: {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return False, None


def _train(state: State, kind: str, rec: Record, tracer: Tracer):
    """Train one kind; returns (models, raw seconds, host-corrected seconds),
    or (None, 0, 0) when training failed."""
    w = state.workload

    def train():
        with tracer.span("experiments.train_models"):
            return train_models(kind, w.train, state.eh, w.config, dev=w.dev or None)

    def run():
        models, raw, corrected = rec.clock.time(train)
        rec.sample("train_tok_s", kind, w.train_tokens * w.config.epochs, raw, corrected)
        return models, raw, corrected

    ok, out = _operation(rec, tracer, "train", f"train {kind}", run)
    if not ok:
        return None, 0.0, 0.0
    if kind == "hier":
        rec.descriptors["vocab_size"] = out[0][0].vocab.size
        rec.descriptors["fine_tags"] = len(out[0][0].heads["fine"].domain)
    return out


def _tag(state: State, models, method: str, tokens, tracer: Tracer):
    tracer.count(f"tokens.{tracer.op_class}", sum(len(t) for t in tokens))
    with tracer.span("experiments.tag_sequences"):
        return tag_sequences(models, tokens, state.workload.test_tagset, method, 0)


def _f1(state: State, preds, tracer: Tracer) -> float:
    with tracer.span("evaluation.score"):
        return score(preds, state.golds).micro.f1


def _score_tagging(state: State, kind: str, preds, rec: Record, tracer: Tracer,
                   first: bool) -> None:
    name = state.workload.name
    f1 = _f1(state, preds, tracer)
    if first:
        rec.f1[kind] = f1
        floor = f1_floor(name, state.seed, kind)
        rec.check(f1 >= floor, f"{name} {kind} F1 {f1:.4f} below floor {floor:.4f}")
        if name == "wide":
            rec.check(f1 < 1.0, f"wide {kind} F1 is 1")
            if kind == "hier":
                d = rec.descriptors
                rec.check(d.get("fine_tags") == 41, f"wide has {d.get('fine_tags')} fine tags")
                rec.check(d.get("vocab_size", 0) >= 50_000, f"wide vocab {d.get('vocab_size')}")
    else:
        rec.check(f1 == rec.f1.get(kind), f"{kind} F1 changed between iterations")


def _save(state: State, kind: str, models, directory: Path, tracer: Tracer) -> list[Path]:
    paths = []
    for i, model in enumerate(models):
        path = directory / f"{state.workload.name}-{kind}-{i}.htag"
        with tracer.span("model_io.save"):
            save_model(model, path)
        tracer.count("model_io.bytes", path.stat().st_size)
        paths.append(path)
    return paths


def _load(paths: list[Path], tracer: Tracer):
    models = []
    for path in paths:
        tracer.count("model_io.bytes", path.stat().st_size)
        with tracer.span("model_io.load"):
            models.append(load_model(path))
    return models


def _methods(kind: str) -> tuple[str, ...]:
    return METHODS if kind in MULTI else ("random",)


def _round_trip(state: State, kind: str, models, preds, rec: Record, tracer: Tracer,
                directory: Path) -> None:
    """Reloaded models tag like the in-memory ones; collision counts agree
    across consolidation methods (checked on the first CHECK_DOCS documents)."""

    def run():
        loaded = _load(_save(state, kind, models, directory, tracer), tracer)
        head = state.tokens[:CHECK_DOCS]
        counts = {}
        for method in _methods(kind):
            got, counts[method] = _tag(state, loaded, method, head, tracer)
            if method == "random":
                rec.check(got == preds[:CHECK_DOCS], f"reloaded {kind} tags differently")
        rec.check(len(set(counts.values())) == 1, f"{kind} collisions differ by method")

    _operation(rec, tracer, "check", f"round trip {kind}", run)


def setup(name: str, seed: int, rec: Record, tracer: Tracer,
          directory: Path) -> tuple[State, float, float]:
    """Build the inputs; on `consolidate` also train and save the models.
    Returns the state and the set-up's raw and
    host-corrected seconds, each summed over its steps; every step is
    corrected by the host speed sampled during it (see clock.py)."""
    raw_s = corrected_s = 0.0

    def step(fn):
        nonlocal raw_s, corrected_s
        out, raw, corrected = rec.clock.time(fn)
        raw_s += raw
        corrected_s += corrected
        return out

    def inputs():
        with tracer.span("data.synth"):
            w = workloads.GENERATORS[name](seed)
        with tracer.span("hierarchy.extend"):
            eh = extend_with_other(w.hierarchy)
        return w, eh

    w, eh = step(inputs)
    state = State(
        w, seed, eh, [s.texts() for s in w.test.sequences], [s.tags() for s in w.test.sequences]
    )
    if name != "consolidate":
        return state, raw_s, corrected_s
    for kind in KINDS:
        models, raw, corrected = _train(state, kind, rec, tracer)
        raw_s += raw
        corrected_s += corrected
        if models is None:
            continue
        state.model_paths[kind] = step(lambda: _save(state, kind, models, directory, tracer))
        state.trained[kind] = models
    return state, raw_s, corrected_s


def _tag_request(state: State, rec: Record, tracer: Tracer, kind: str, method: str,
                 get_models):
    """Tag the whole test set in one timed request, from `get_models()` on.
    Returns (predictions, collisions), or None when the request failed."""

    def tag():
        out, raw, corrected = rec.clock.time(
            lambda: _tag(state, get_models(), method, state.tokens, tracer)
        )
        rec.sample("tag_tok_s", kind, sum(len(t) for t in state.tokens), raw, corrected)
        return out

    ok, out = _operation(rec, tracer, "tag", f"tag {kind} {method}", tag)
    return out if ok else None


def iterate(state: State, rec: Record, tracer: Tracer, seconds: float, traced: bool,
            directory: Path, checks: bool, estimate: float | None = None) -> None:
    """Run timed iterations for `seconds`, to the nearest whole iteration:
    another one starts only if it should end less than half an iteration
    past the deadline.  So a run makes seconds / iteration time iterations,
    rounded, not one fewer whenever the last one would just overrun.  Given
    the `estimate` of an iteration's seconds from an earlier part, even the
    first iteration follows that rule; otherwise there is at least one.

    The first iteration records F1 and, when `checks` is set, also runs the
    one-off checks (save/load round trip, collision parity), so it does more
    work than the others.  A traced run
    leaves it untraced and then alternates traced and untraced iterations,
    so it can report the tracing overhead from iterations that do the same
    work; it runs at least three.
    """
    if estimate is not None and estimate / 2 >= seconds:
        return
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        tracer.active = traced and i % 2 == 1

        def run():
            with tracer.span("iteration"):
                iteration(state, rec, tracer, i == 0, directory, checks)

        _, elapsed, corrected = rec.clock.time(run)
        rec.iterations.append((i, tracer.active, elapsed, corrected))
        tracer.active = False
        i += 1
        if i >= (3 if traced else 1) and time.perf_counter() + elapsed / 2 > deadline:
            break


def iteration(state: State, rec: Record, tracer: Tracer, first: bool, directory: Path,
              checks: bool) -> None:
    """One timed iteration.  The process's `first` iteration records F1,
    which later ones must repeat; with `checks` it also runs the one-off
    save/load and collision-parity checks."""
    if state.workload.name == "consolidate":
        _consolidate_iteration(state, rec, tracer, first, checks)
        return
    for kind in KINDS:
        models, _, _ = _train(state, kind, rec, tracer)
        if models is None:
            continue
        out = _tag_request(state, rec, tracer, kind, "random", lambda: models)
        if out is None:
            continue
        preds, collisions = out
        rec.collisions.setdefault(kind, {})["random"] = collisions
        _score_tagging(state, kind, preds, rec, tracer, first)
        if first and checks:  # once a run: later iterations and parts repeat its F1
            _round_trip(state, kind, models, preds, rec, tracer, directory)
    if first and state.workload.name == "extension":
        # Collisions must occur for the multi-model kinds together, not for each:
        # on some seeds mtl's extending head never predicts LOC and mtl alone
        # has none.
        total = sum(rec.collisions.get(k, {}).get("random", 0) for k in MULTI)
        rec.check(total > 0, "extension indep and mtl have no collisions")


def _compare_trained(state: State, kind: str, method: str, preds, rec: Record,
                     tracer: Tracer) -> None:
    """The loaded models tag the first CHECK_DOCS documents like the models
    that were trained and saved."""

    def run():
        head = state.tokens[:CHECK_DOCS]
        want, _ = _tag(state, state.trained[kind], method, head, tracer)
        rec.check(preds[:CHECK_DOCS] == want,
                  f"loaded {kind} tags differently from the trained models ({method})")

    _operation(rec, tracer, "check", f"compare trained {kind} {method}", run)


def _consolidate_iteration(state: State, rec: Record, tracer: Tracer, first: bool,
                           checks: bool) -> None:
    """Every request loads the saved models and tags the test set, as
    `hiertag tag` does with one input file.  Every kind tags under every
    consolidation method, so each kind gets as many timed requests; a
    single-model kind has nothing to consolidate and must tag the same way
    under all of them."""
    for kind in KINDS:
        if kind not in state.model_paths:
            continue
        counts, tagged = {}, {}
        for method in METHODS:
            out = _tag_request(
                state, rec, tracer, kind, method, lambda: _load(state.model_paths[kind], tracer)
            )
            if out is None:
                continue
            preds, counts[method] = out
            if first and checks:
                _compare_trained(state, kind, method, preds, rec, tracer)
            if method == "random":
                _score_tagging(state, kind, preds, rec, tracer, first)
            if kind not in MULTI:
                tagged[method] = preds
        rec.collisions[kind] = counts
        rec.check(len(set(counts.values())) <= 1, f"{kind} collisions differ by method")
        if tagged:
            rec.check(all(p == tagged.get("random") for p in tagged.values()),
                      f"{kind} tags differently by method")
