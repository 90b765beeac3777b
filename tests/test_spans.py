"""The benchmark's tracer (`perfbench/spans.py`) wraps `hiertag` names by
attribute lookup.  Installing it here makes a deleted or renamed wrapped name
fail the test suite instead of a benchmark run."""

from __future__ import annotations

import importlib
from pathlib import Path

from hiertag.data import Corpus, LabeledSequence, Token
from hiertag.experiments import tag_sequences, train_models
from hiertag.models import TrainingConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_on_every_name_and_unpatches(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        patched = list(tracer._patched)
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in patched)
    finally:
        tracer.unpatch()
    assert patched and all(getattr(owner, attr) is orig for owner, attr, orig in patched)


def _corpus(rows, tagset):
    return Corpus(
        tuple(LabeledSequence(tuple(Token(w, t) for w, t in zip(text.split(), tags.split())),
                              f"doc{i}") for i, (text, tags) in enumerate(rows)),
        tagset,
    )


TRACED = (
    "features.emission_fwd", "features.emission_bwd", "crf.loss_and_grad",
    "models.hier_mask", "models.singleton_mask", "models.clip", "models.adagrad",
    "models.decode",
)


def test_traced_layers_record_calls(monkeypatch, clinical_ext):
    """Training and tagging still call through every name the benchmark's
    per-layer metrics wrap, so a refactor that bypasses one fails here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    corpora = [
        _corpus([("alice smith walked to elm", "Name Name O O Location"),
                 ("bob saw oak", "Name O Location")], "T1"),
        _corpus([("carol jones lives on elm", "FirstName LastName O O Street"),
                 ("dave near salem", "FirstName O City")], "T2"),
    ]
    cfg = TrainingConfig(epochs=1, batch_size=2)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        tracer.active = True
        with tracer.span("root"):
            for kind in ("hier", "mtl"):
                models = train_models(kind, corpora, clinical_ext, cfg)
                tag_sequences(models, [["alice", "near", "elm"]], "T1", "random", 0)
    finally:
        tracer.active = False
        tracer.unpatch()
    (calls,) = tracer.calls.values()
    assert [name for name in TRACED if not calls.get(name)] == []
