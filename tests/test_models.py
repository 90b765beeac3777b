import copy
import math
import struct
import tempfile
import warnings
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    reference_active,
    reference_batch_grads,
    reference_batch_step,
    reference_resolve,
)
from test_crf import table_of
from test_hierarchy import random_hierarchy
from scipy import sparse

from hiertag.crf import (
    LatticeMask,
    PotentialBatch,
    forward_backward,
    sequence_log_prob,
    viterbi_batch,
)
from hiertag.cli import main
from hiertag.data import OTHER, Corpus, CorpusError, LabeledSequence, Token
import hiertag.models as models_module
from hiertag.experiments import tag_sequences
from hiertag.features import (
    FeatureVocabulary,
    LinearEmissionModel,
    SharedEmissionModel,
    _active,
    _EmissionScorer,
    count_rows,
    featurize,
)
from hiertag.hierarchy import (
    ExtendedHierarchy,
    HierarchyError,
    TagHierarchy,
    extend_with_other,
)
from hiertag.model_io import (
    FORMAT_VERSION,
    MAGIC,
    ModelFormatError,
    _Reader,
    _Writer,
    load_model,
    model_bytes,
    save_model,
)
from hiertag.models import (
    Consolidated,
    ConsolidationMethod,
    Head,
    ModelError,
    ModelKind,
    TrainedModel,
    TrainingConfig,
    TrainingDiverged,
    _build_vocab,
    _decode_head,
    _decoding,
    _dev_scorer,
    _domain_indices,
    _hier_mask,
    _resolve_collisions,
    _singleton_mask,
    _stack_rows,
    _Instance,
    _Request,
    _Trainer,
    _vectorize_corpus,
    collapse_bio,
    expand_bio,
    output_tags,
    predict_hier,
    predict_multi,
    tag_batch,
    train_concat,
    train_hier,
    train_indep,
    train_mtl,
)


def seqs(rows):
    return tuple(
        LabeledSequence(tuple(Token(w, t) for w, t in row), f"doc{i}")
        for i, row in enumerate(rows)
    )


def corpus(rows, tagset):
    return Corpus(seqs(rows), tagset)


def tagged(words, tags):
    return list(zip(words.split(), tags.split()))


def decode(model, head, tokens):
    """One sequence through the batched decode: its path and potentials."""
    request = _Request([tokens])
    emissions = request.emissions(model, [head])[head.name]
    path, _, potentials = _decode_head(model, head, emissions, request.lengths)
    return path, potentials


def decoded_tags(model, head, tokens):
    path, _ = decode(model, head, tokens)
    return [head.domain[i] for i in path]


def assert_same_decode(model_a, head_a, model_b, head_b, tokens):
    """Equal paths and bitwise-equal potentials; the potentials fix every
    sequence score and marginal consolidation reads from them."""
    path_a, table_a = decode(model_a, head_a, tokens)
    path_b, table_b = decode(model_b, head_b, tokens)
    assert path_a.tolist() == path_b.tolist()
    for name in ("emissions", "transitions", "start", "stop"):
        assert getattr(table_a, name).tobytes() == getattr(table_b, name).tobytes(), name


@pytest.fixture
def toy_eh():
    """Two personal/location tagsets over four fine-grained tags."""
    edges = [
        ("FirstName", "Name"),
        ("LastName", "Name"),
        ("Street", "Location"),
        ("Street", "T1-Other"),
        ("FG-Other", "T1-Other"),
        ("FirstName", "T2-Other"),
        ("LastName", "T2-Other"),
        ("FG-Other", "T2-Other"),
    ]
    tagsets = {"T1": {"Name", "T1-Other"}, "T2": {"Location", "T2-Other"}}
    nodes = {n for e in edges for n in e}
    return ExtendedHierarchy(TagHierarchy(nodes, edges, tagsets))


C1_ROWS = [
    tagged("alice smith walked down elm", "Name Name O O O"),
    tagged("bob jones strolled past oak", "Name Name O O O"),
    tagged("carol smith lives near elm", "Name Name O O O"),
    tagged("bob smith walked past oak", "Name Name O O O"),
    tagged("alice jones lives down elm", "Name Name O O O"),
]
C2_ROWS = [
    tagged("carol jones walked down oak", "O O O O Location"),
    tagged("alice smith lives near elm", "O O O O Location"),
    tagged("the mayor strolled past oak", "O O O O Location"),
    tagged("bob jones walked near elm", "O O O O Location"),
    tagged("the visitor lives down oak", "O O O O Location"),
]


@pytest.fixture
def toy_corpora():
    return corpus(C1_ROWS, "T1"), corpus(C2_ROWS, "T2")


def quick_cfg(**kw):
    base = dict(seed=0, epochs=8, batch_size=4, learning_rate=0.5)
    base.update(kw)
    return TrainingConfig(**base)


def const_model(eh, head_name, domain, tag, strength=6.0, kind=ModelKind.INDEP):
    """Feature-free model whose bias makes it predict `tag` everywhere."""
    y = len(domain)
    bias = np.zeros(y)
    bias[domain.index(tag)] = strength
    emission = LinearEmissionModel(np.zeros((1, y)), bias)
    head = Head(head_name, list(domain), np.zeros((y, y)), np.zeros(y), np.zeros(y))
    vocab = FeatureVocabulary(["<UNK>"])
    return TrainedModel(kind, eh, vocab, emission, {head_name: head}, TrainingConfig())


def biased_model(eh, tagset, tag, strength=6.0):
    domain = sorted((eh.tagsets[tagset] - {eh.other_tag(tagset)}) | {OTHER})
    return const_model(eh, tagset, domain, tag, strength)


class TestMasks:
    def test_hier_mask_is_fine_cover(self, toy_eh):
        domain = sorted(toy_eh.fine_grained)
        assert domain == ["FG-Other", "FirstName", "LastName", "Street"]
        pos = _domain_indices(domain, False)
        mask = _hier_mask(["O", "Name"], toy_eh, "T1", pos)
        assert {domain[i] for i in mask.allowed[0]} == {"Street", "FG-Other"}
        assert {domain[i] for i in mask.allowed[1]} == {"FirstName", "LastName"}

    def test_unannotated_token_keeps_foreign_tag_alive(self, toy_eh):
        # Dataset 1 tags street names O; its Other cover must retain Street.
        domain = sorted(toy_eh.fine_grained)
        pos = _domain_indices(domain, False)
        mask = _hier_mask(["O"] * 4, toy_eh, "T1", pos)
        street = domain.index("Street")
        assert all(street in set(row) for row in mask.allowed)

    def test_singleton_mask(self):
        pos = _domain_indices(["Location", "Name", "O"], False)
        mask = _singleton_mask(["O", "Name", "Location"], pos)
        assert [list(r) for r in mask.allowed] == [[2], [1], [0]]

    def test_hier_mask_matches_fine_cover_definition(self):
        """Keep rows equal the per-token definition: the fine cover of each
        gold tag (O as the tagset's Other), expanded through the domain."""
        rng = np.random.default_rng(21)
        for _ in range(30):
            eh = extend_with_other(random_hierarchy(rng))
            for bio in (False, True):
                domain = sorted(eh.fine_grained)
                if bio:
                    domain = expand_bio(domain)
                pos = _domain_indices(domain, bio)
                base = [collapse_bio(t) if bio else t for t in domain]
                for ts in sorted(eh.tagsets):
                    golds = sorted(eh.tagsets[ts]) + [OTHER]
                    tags = [golds[i] for i in rng.integers(len(golds), size=8)]
                    mask = _hier_mask(tags, eh, ts, pos)
                    for g, row in zip(tags, mask.allowed):
                        cover = eh.fine_cover(ts, eh.other_tag(ts) if g == OTHER else g)
                        assert row.tolist() == [i for i, f in enumerate(base) if f in cover]

    def test_gold_outside_tagset_rejected(self, toy_eh):
        bad = corpus([tagged("elm", "Location")], "T1")
        with pytest.raises(CorpusError, match="outside"):
            train_hier([bad], toy_eh, quick_cfg(epochs=1))

    def test_unknown_tagset_rejected(self, toy_eh):
        c = corpus([tagged("elm", "O")], "T9")
        with pytest.raises(HierarchyError, match="unknown tagset"):
            train_hier([c], toy_eh, quick_cfg(epochs=1))

    def test_missing_tagset_name_rejected(self, toy_eh):
        c = corpus([tagged("elm", "O")], "")
        with pytest.raises(ModelError, match="tagset name"):
            train_hier([c], toy_eh, quick_cfg(epochs=1))


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ModelError):
            TrainingConfig(epochs=0)
        with pytest.raises(ModelError):
            TrainingConfig(learning_rate=0.0)
        with pytest.raises(ModelError):
            TrainingConfig(l2=-1e-4)
        with pytest.raises(ModelError):
            TrainingConfig(hidden_dim=0)
        with pytest.raises(ModelError, match="seed"):
            TrainingConfig(seed=-1)

    @pytest.mark.parametrize("field", ["learning_rate", "l2", "clip_norm"])
    def test_rejects_nan_hyperparameters(self, field):
        with pytest.raises(ModelError):
            TrainingConfig(**{field: math.nan})

    @pytest.mark.parametrize("field", ["learning_rate", "l2"])
    def test_rejects_infinite_hyperparameters(self, field):
        with pytest.raises(ModelError):
            TrainingConfig(**{field: math.inf})

    def test_infinite_clip_norm_means_no_clipping(self):
        assert TrainingConfig(clip_norm=math.inf).clip_norm == math.inf

    @pytest.mark.parametrize("field, value", [
        ("bio", "no"), ("bio", 1), ("bio", np.True_),
        ("seed", True), ("epochs", 2.0), ("batch_size", "8"), ("patience", None),
        ("window", np.float64(2)), ("hidden_dim", False),
        ("learning_rate", True), ("l2", "0"), ("clip_norm", None),
    ])
    def test_rejects_wrong_types(self, field, value):
        with pytest.raises(ModelError, match=f"^{field} must be"):
            TrainingConfig(**{field: value})

    def test_numpy_numbers_are_stored_as_python_ones(self):
        cfg = TrainingConfig(seed=np.int64(3), epochs=np.uint8(4), window=np.int32(1),
                             learning_rate=np.float32(0.25), l2=np.int64(0), clip_norm=2)
        assert [(type(v), v) for v in asdict(cfg).values()] == [
            (int, 3), (int, 4), (int, 8), (float, 0.25), (float, 0.0), (int, 2), (int, 10),
            (int, 1), (int, 16), (bool, False),
        ]

    def test_numpy_ints_train_and_save_like_python_ints(self, toy_eh, toy_corpora):
        a = train_hier(list(toy_corpora), toy_eh, quick_cfg(epochs=2, window=np.int64(2)))
        b = train_hier(list(toy_corpora), toy_eh, quick_cfg(epochs=2, window=2))
        assert model_bytes(a) == model_bytes(b)


class TestHierTraining:
    def test_loss_drops_ninety_percent_on_separable_corpus(self, toy_eh, toy_corpora):
        model = train_hier(list(toy_corpora), toy_eh, quick_cfg(epochs=200))
        first = model.history[0].train_loss
        last = model.history[-1].train_loss
        assert last <= 0.1 * first

    def test_single_sequence_loss_never_increases(self, toy_eh):
        c = corpus([C1_ROWS[0]], "T1")
        cfg = quick_cfg(epochs=30, batch_size=1, learning_rate=0.1, l2=0.0)
        model = train_hier([c], toy_eh, cfg)
        losses = [r.train_loss for r in model.history]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_learns_tags_absent_from_each_corpus(self, toy_eh, toy_corpora):
        model = train_hier(list(toy_corpora), toy_eh, quick_cfg(epochs=80))
        toks = "carol smith walked down elm".split()
        assert predict_hier(model, toks, "T2") == [
            "T2-Other", "T2-Other", "T2-Other", "T2-Other", "Location",
        ]
        assert predict_hier(model, toks, "T1") == [
            "Name", "Name", "T1-Other", "T1-Other", "T1-Other",
        ]

    def test_raw_fine_path_without_test_tagset(self, toy_eh, toy_corpora):
        # No corpus separates FirstName from LastName, so only the covers
        # are identifiable, not the choice within them.
        model = train_hier(list(toy_corpora), toy_eh, quick_cfg(epochs=80))
        toks = "alice smith walked down elm".split()
        raw = predict_hier(model, toks, None)
        assert set(raw[:2]) <= {"FirstName", "LastName"}
        assert raw[4] == "Street"
        for ts in ("T1", "T2"):
            mapped = [toy_eh.map_to_tagset(f, ts) for f in raw]
            assert predict_hier(model, toks, ts) == mapped

    def test_mapping_example(self, toy_eh):
        domain = sorted(toy_eh.fine_grained)
        model = const_model(toy_eh, "fine", domain, "FirstName", kind=ModelKind.HIER)
        vocab = FeatureVocabulary(["<UNK>", "w0=alice", "w0=zzz"])
        weights = np.zeros((vocab.size, len(domain)))
        weights[1, domain.index("FirstName")] = 8.0
        weights[2, domain.index("FG-Other")] = 8.0
        model.vocab = vocab
        model.emission = LinearEmissionModel(weights, np.zeros(len(domain)))
        assert predict_hier(model, ["alice", "zzz"], None) == ["FirstName", "FG-Other"]
        assert predict_hier(model, ["alice", "zzz"], "T1") == ["Name", "T1-Other"]
        assert predict_hier(model, ["alice", "zzz"], "T2") == ["T2-Other", "T2-Other"]

    def test_history_and_determinism(self, toy_eh, toy_corpora):
        cfg = quick_cfg(epochs=5)
        a = train_hier(list(toy_corpora), toy_eh, cfg)
        b = train_hier(list(toy_corpora), toy_eh, cfg)
        assert len(a.history) == 5
        assert [r.train_loss for r in a.history] == [r.train_loss for r in b.history]
        assert model_bytes(a) == model_bytes(b)

    def test_predict_needs_hier_model(self, toy_eh):
        m = biased_model(toy_eh, "T1", "Name")
        with pytest.raises(ModelError, match="hier"):
            predict_hier(m, ["elm"], "T1")

    def test_empty_tokens_rejected(self, toy_eh, toy_corpora):
        model = train_hier(list(toy_corpora), toy_eh, quick_cfg(epochs=1))
        with pytest.raises(ModelError, match="empty"):
            predict_hier(model, [], "T1")


class TestDegenerateEquivalence:
    def test_hier_matches_concat_when_covers_are_singletons(self):
        h = TagHierarchy(("A", "B", "C"), (), {"T": {"A", "B", "C"}})
        eh = extend_with_other(h)
        assert all(len(eh.fine_cover("T", m)) == 1 for m in eh.tagsets["T"])
        rows = [
            tagged("foo bar baz", "A B C"),
            tagged("bar foo qux", "B A O"),
            tagged("baz qux foo", "C O A"),
            tagged("qux baz bar", "O C B"),
        ]
        c = corpus(rows, "T")
        cfg = quick_cfg(epochs=25, batch_size=2)
        hier = train_hier([c], eh, cfg)
        conc = train_concat([c], eh, cfg)
        hist_h = [r.train_loss for r in hier.history]
        hist_c = [r.train_loss for r in conc.history]
        assert len(hist_h) == len(hist_c)
        assert max(abs(x - y) for x, y in zip(hist_h, hist_c)) <= 1e-6
        toks = "foo qux bar baz".split()
        mapped = output_tags(predict_hier(hier, toks, "T"), eh, "T")
        assert mapped == decoded_tags(conc, conc.single_head(), toks)


class TestConcatTraining:
    def test_union_domain_is_sorted(self, toy_eh, toy_corpora):
        model = train_concat(list(toy_corpora), toy_eh, quick_cfg(epochs=1))
        assert model.single_head().domain == ["Location", "Name", "O"]

    def test_foreign_entities_train_as_other(self, toy_eh, toy_corpora):
        # elm/oak carry gold O in dataset 1, so concat sees conflicting
        # supervision that the masked objective never introduces.
        c1, _ = toy_corpora
        domain = ["Location", "Name", "O"]
        pos = _domain_indices(domain, False)
        mask = _singleton_mask(c1.sequences[0].tags(), pos)
        assert [domain[i] for row in mask.allowed[2:] for i in row] == ["O", "O", "O"]

    def test_concat_predicts_in_union_domain(self, toy_eh, toy_corpora):
        model = train_concat(list(toy_corpora), toy_eh, quick_cfg(epochs=30))
        tags = decoded_tags(model, model.single_head(), "alice smith walked down elm".split())
        assert set(tags) <= {"Location", "Name", "O"}
        assert tags[:2] == ["Name", "Name"]


class TestIndepTraining:
    def test_one_model_per_dataset(self, toy_eh, toy_corpora):
        models = train_indep(list(toy_corpora), toy_eh, quick_cfg(epochs=2))
        assert [m.single_head().name for m in models] == ["T1", "T2"]
        assert models[0].single_head().domain == ["Name", "O"]
        assert models[1].single_head().domain == ["Location", "O"]

    def test_datasets_do_not_interact(self, toy_eh, toy_corpora):
        c1, c2 = toy_corpora
        cfg = quick_cfg(epochs=4)
        joint = train_indep([c1, c2], toy_eh, cfg)
        alone = train_indep([c1], toy_eh, cfg)
        assert model_bytes(joint[0]) == model_bytes(alone[0])


class TestMtlTraining:
    def test_shared_layer_with_one_head_per_tagset(self, toy_eh, toy_corpora):
        cfg = quick_cfg(epochs=4, hidden_dim=6)
        model = train_mtl(list(toy_corpora), toy_eh, cfg)
        assert sorted(model.heads) == ["T1", "T2"]
        assert isinstance(model.emission, SharedEmissionModel)
        assert model.emission.weights.shape[1] == 6
        assert len(model.history) == 4
        assert all(np.isfinite(r.train_loss) for r in model.history)

    def test_duplicate_tagsets_rejected(self, toy_eh, toy_corpora):
        c1, _ = toy_corpora
        with pytest.raises(ModelError, match="distinct"):
            train_mtl([c1, c1], toy_eh, quick_cfg(epochs=1))

    def test_batch_on_one_head_leaves_other_heads_untouched(self, toy_eh, toy_corpora):
        c1, c2 = toy_corpora
        cfg = quick_cfg(epochs=1, hidden_dim=4)
        model = train_mtl([c1, c2], toy_eh, cfg)
        pos = _domain_indices(model.heads["T2"].domain, False)
        insts = [
            _Instance(fv, _singleton_mask(seq.tags(), pos))
            for seq, fv in zip(c2.sequences, _vectorize_corpus(c2, model.vocab, cfg.window))
        ]
        trainer = _Trainer(model, {"T2": insts}, cfg)
        frozen = {
            "trans": model.heads["T1"].transitions.copy(),
            "head_w": model.emission.heads["T1"][0].copy(),
            "head_b": model.emission.heads["T1"][1].copy(),
        }
        shared_before = model.emission.weights.copy()
        trainer._batch_step("T2", insts[:2])
        assert np.array_equal(model.heads["T1"].transitions, frozen["trans"])
        assert np.array_equal(model.emission.heads["T1"][0], frozen["head_w"])
        assert np.array_equal(model.emission.heads["T1"][1], frozen["head_b"])
        assert not np.array_equal(model.emission.weights, shared_before)

    @pytest.mark.parametrize("train", [train_hier, train_mtl])
    def test_trainer_updates_the_models_own_arrays(self, toy_eh, toy_corpora, train):
        cfg = quick_cfg(epochs=1, hidden_dim=3)
        model = train(list(toy_corpora), toy_eh, cfg)
        trainer, table = _Trainer(model, {}, cfg), model.params()
        assert list(trainer.params) == list(table)
        assert all(trainer.params[k] is table[k] for k in table)

    def test_batch_gradients_match_finite_differences(self, toy_eh, toy_corpora):
        c1, c2 = toy_corpora
        cfg = quick_cfg(epochs=1, hidden_dim=3)
        model = train_mtl([c1, c2], toy_eh, cfg)
        pos = _domain_indices(model.heads["T1"].domain, False)
        insts = [
            _Instance(fv, _singleton_mask(seq.tags(), pos))
            for seq, fv in zip(c1.sequences, _vectorize_corpus(c1, model.vocab, cfg.window))
        ]
        trainer = _Trainer(model, {"T1": insts}, cfg)
        batch = insts[:3]

        reg_keys = {"shared_weights", "head:T1:weights", "trans:T1"}

        def objective():
            total, _ = trainer._batch_grads("T1", batch)
            reg = sum(float((trainer.params[k] ** 2).sum()) for k in reg_keys)
            return total / len(batch) + 0.5 * cfg.l2 * reg

        _, grads = trainer._batch_grads("T1", batch)
        rng = np.random.default_rng(5)
        h = 1e-5
        touched = sorted({i for inst in batch for f in inst.fvecs for i in f.indices})
        for key in ["shared_bias", "head:T1:weights", "head:T1:bias", "trans:T1", "start:T1"]:
            p = trainer.params[key]
            flat_idx = int(rng.integers(p.size))
            flat = p.reshape(-1)
            old = flat[flat_idx]
            flat[flat_idx] = old + h
            hi = objective()
            flat[flat_idx] = old - h
            lo = objective()
            flat[flat_idx] = old
            fd = (hi - lo) / (2 * h)
            got = grads[key].reshape(-1)[flat_idx]
            assert abs(got - fd) <= 1e-4 * max(1.0, abs(fd)), key
        w = trainer.params["shared_weights"]
        feature = touched[len(touched) // 2]
        for unit in range(w.shape[1]):
            old = w[feature, unit]
            w[feature, unit] = old + h
            hi = objective()
            w[feature, unit] = old - h
            lo = objective()
            w[feature, unit] = old
            fd = (hi - lo) / (2 * h)
            got = grads["shared_weights"][feature, unit]
            assert abs(got - fd) <= 1e-4 * max(1.0, abs(fd))


class TestFeatureMajorFirstLayer:
    def test_one_forward_over_feature_major_weights(self, toy_eh, toy_corpora, tmp_path,
                                                    monkeypatch):
        calls = []
        forward = _EmissionScorer.emissions

        def counted(scorer, x, heads):
            calls.append(list(heads))
            return forward(scorer, x, heads)

        monkeypatch.setattr(_EmissionScorer, "emissions", counted)
        cfg = quick_cfg(epochs=1, hidden_dim=3)
        hier = train_hier(list(toy_corpora), toy_eh, cfg)
        mtl = train_mtl(list(toy_corpora), toy_eh, cfg)
        assert calls  # every training batch
        calls.clear()
        predict_hier(hier, "alice smith walked".split(), "T1")
        models_module._Request([["alice", "smith"]]).emissions(mtl, list(mtl.heads.values()))
        assert calls == [["fine"], ["T1", "T2"]]  # once per tagging request and model
        features = hier.vocab.size
        for model, key, width in ((hier, "weights", len(hier.heads["fine"].domain)),
                                  (mtl, "shared_weights", cfg.hidden_dim)):
            save_model(model, tmp_path / "m.htag")
            for params in (model.params(), load_model(tmp_path / "m.htag").params()):
                assert params[key].shape == (features, width)
                assert params[key].flags.c_contiguous
        shared = SharedEmissionModel.create(4, 7, {"A": 2, "B": 3}, np.random.default_rng(3))
        drawn = np.random.default_rng(3).uniform(-0.1, 0.1, (4, 7)).T
        assert shared.weights.shape == (7, 4) and shared.weights.flags.c_contiguous
        assert shared.weights.tobytes() == drawn.tobytes()


def _random_rows(rng, n, ids, width):
    """n feature rows, each 1-4 distinct ids from `ids` with counts 1 or 2."""
    x = np.zeros((n, width))
    for row in x:
        row[rng.choice(ids, size=int(rng.integers(1, 5)), replace=False)] = rng.integers(1, 3)
    return sparse.csr_matrix(x)


def _step_case(seed, shared, l2, clip, disjoint):
    """A fresh trainer and four batches of up to twelve sequences for it,
    past the eight terms where numpy's reductions start summing pairwise:
    (trainer, [(head, batch), ...])."""
    rng = np.random.default_rng(seed)
    features = 120
    sizes = {"A": int(rng.integers(2, 5)), "B": int(rng.integers(2, 5))} if shared else {
        "fine": int(rng.integers(1, 5))  # one tag: a time sum adds a lone column
    }
    heads = {
        name: Head(name, [f"t{i}" for i in range(y)], rng.normal(size=(y, y)),
                   rng.normal(size=y), rng.normal(size=y))
        for name, y in sizes.items()
    }
    if shared:
        emission = SharedEmissionModel.create(3, features, sizes, rng)
        for w, b in emission.heads.values():
            w += rng.normal(size=w.shape)
            b += rng.normal(size=b.shape)
        kind = ModelKind.MTL
    else:
        emission = LinearEmissionModel.zeros(sizes["fine"], features)
        kind = ModelKind.HIER
    cfg = TrainingConfig(learning_rate=0.3, l2=l2, clip_norm=clip)
    model = TrainedModel(kind, None, None, emission, heads, cfg)
    plan = []
    for s in range(4):
        name = sorted(sizes)[s % len(sizes)]
        batch = []
        for j in range(int(rng.integers(1, 13))):
            n = int(rng.integers(1, 5))
            # Disjoint: each sequence of the batch has its own ten columns.
            ids = list(range(10 * j, 10 * j + 10)) if disjoint else list(range(8))
            allowed = [rng.choice(sizes[name], size=int(rng.integers(1, sizes[name] + 1)),
                                  replace=False) for _ in range(n)]
            batch.append(_Instance(_random_rows(rng, n, ids, features), LatticeMask(allowed)))
        plan.append((name, batch))
    instances = {name: [inst for n, b in plan if n == name for inst in b] for name in sizes}
    return _Trainer(model, instances, cfg), plan


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestExactStep:
    """The in-place step against the dense reference step of tests/oracles.py."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**16),
        shared=st.booleans(),
        l2=st.sampled_from([0.0, 1e-4]),
        clip=st.sampled_from([1e-3, 0.5, math.inf]),
        disjoint=st.booleans(),
    )
    def test_step_equals_dense_reference_bitwise(self, seed, shared, l2, clip, disjoint):
        trainer, plan = _step_case(seed, shared, l2, clip, disjoint)
        ref = copy.deepcopy(trainer)
        for name, batch in plan:
            total, grads = trainer._batch_grads(name, batch)
            ref_total, ref_grads = reference_batch_grads(ref, name, batch)
            assert total == ref_total
            assert sorted(grads) == sorted(ref_grads)
            for k in grads:
                assert _same_bits(grads[k], ref_grads[k]), k
            assert trainer._batch_step(name, batch) == reference_batch_step(ref, name, batch)
            for k in trainer.params:
                assert _same_bits(trainer.params[k], ref.params[k]), k
                assert _same_bits(trainer.opt.accum[k], ref.opt.accum[k]), k

    @pytest.mark.parametrize("shared", [False, True])
    def test_batch_grads_outlive_the_next_call(self, shared):
        trainer, plan = _step_case(7, shared, 1e-4, 0.5, False)
        (name, first), (_, second) = plan[0], plan[2]
        _, grads = trainer._batch_grads(name, first)
        kept = {k: g.copy() for k, g in grads.items()}
        for p in trainer.params.values():
            p += 0.25
        _, later = trainer._batch_grads(name, second)
        for k, g in grads.items():
            assert _same_bits(g, kept[k]), k
            assert not any(np.shares_memory(g, a) for a in later.values()), k
            assert not any(np.shares_memory(g, a) for a in trainer.params.values()), k


def assert_same_csr(got, want):
    """Equal shape, and equal indptr, indices and data in values and dtype."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@st.composite
def feature_blocks(draw):
    """Per-sequence feature rows as training stacks them: 1-8 sequences of
    1-60 tokens over up to wide's 52,620 columns.  Most ids come from a pool
    shared by every sequence that holds columns 0 and F - 1, so columns
    repeat within and across sequences; some rows hold no entries."""
    width = draw(st.sampled_from([1, 2, 7, 1000, 52620]) | st.integers(1, 52620))
    lengths = draw(st.lists(st.integers(1, 60), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.unique(np.r_[0, width - 1, rng.integers(0, width, 6)])
    blocks = []
    for n in lengths:
        counts = rng.integers(0, 7, n)
        k = int(counts.sum())
        ids = np.where(rng.random(k) < 0.7, rng.choice(pool, k), rng.integers(0, width, k))
        blocks.append(count_rows(ids, np.r_[0, np.cumsum(counts)], width))
    return blocks


class TestBatchRows:
    """The batch plumbing of a training step against the scipy routes it
    replaced, and the training rows against the vocabulary's own lookups."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(blocks=feature_blocks())
    def test_stack_and_active_columns_equal_vstack_and_unique(self, blocks):
        x = _stack_rows(blocks)
        assert_same_csr(x, sparse.vstack(blocks, format="csr"))
        cols, x_local = _active(x)
        want_cols, want_local = reference_active(blocks)
        assert cols.dtype == want_cols.dtype and np.array_equal(cols, want_cols)
        assert_same_csr(x_local, want_local)

    @pytest.mark.parametrize("style", ["repeated", "wide"])
    def test_position_built_rows_equal_looked_up_rows(self, style):
        rng = np.random.default_rng(11)
        if style == "repeated":  # a few words, each seen many times
            words = ["Alice", "alice", "the", "3", "Elm", "x", "B2B"]
            docs = [[str(w) for w in rng.choice(words, int(n))] for n in rng.integers(1, 30, 40)]
        else:  # wide's background: random codes, nearly every token distinct
            codes = ["".join(rng.choice(list("abcdefghjkmnpqrstuvwxyz0123456789"), 6))
                     for _ in range(8000)]
            docs = [list(rng.choice(codes, 40)) for _ in range(160)]
        corpora = [corpus([[(w, "O") for w in d] for d in docs[::2]], "A"),
                   corpus([[(w, "O") for w in d] for d in docs[1::2]], "B")]
        vocab, rows = _build_vocab(corpora, 2)
        token_lists = [s.texts() for c in corpora for s in c.sequences]
        x = vocab.matrix(*featurize(token_lists, 2))
        edges = np.cumsum([0] + [len(t) for t in token_lists])
        assert len(rows) == len(token_lists)
        assert style == "repeated" or vocab.size > 30000
        for r, a, b in zip(rows, edges, edges[1:]):
            assert_same_csr(r, x[a:b])
        vectorized = [r for c in corpora for r in _vectorize_corpus(c, vocab, 2)]
        for r, v in zip(rows, vectorized, strict=True):
            assert_same_csr(v, r)


class TestDevChecks:
    """Dev corpora are checked like the training corpora, before any training."""

    @pytest.fixture(autouse=True)
    def no_training(self, monkeypatch):
        def run(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(_Trainer, "run", run)

    @pytest.mark.parametrize("train", [train_hier, train_concat, train_indep, train_mtl])
    @pytest.mark.parametrize("case, error, match", [
        ("unknown", HierarchyError, "unknown tagset 'NOPE'"),
        ("outside", CorpusError, "tags outside it: Location"),
        ("unnamed", ModelError, "needs a tagset name"),
    ])
    def test_bad_dev_corpus_raises_before_training(self, toy_eh, toy_corpora, train,
                                                   case, error, match):
        c1, c2 = toy_corpora
        dev = {"unknown": c1.with_tagset("NOPE"), "outside": c2.with_tagset("T1"),
               "unnamed": c1.with_tagset("")}[case]
        with pytest.raises(error, match=match):
            train([c1, c2], toy_eh, quick_cfg(epochs=1), dev=[dev])

    @pytest.mark.parametrize("train", [train_indep, train_mtl])
    def test_per_tagset_kinds_need_a_trained_dev_tagset(self, toy_eh, toy_corpora, train):
        c1, c2 = toy_corpora
        with pytest.raises(ModelError, match="dev tagset T2 is not a training tagset"):
            train([c1], toy_eh, quick_cfg(epochs=1), dev=[c2])

    @pytest.mark.parametrize("train", [train_hier, train_concat])
    def test_one_head_kinds_score_any_known_dev_tagset(self, toy_eh, toy_corpora, train):
        c1, c2 = toy_corpora
        with pytest.raises(AssertionError, match="training started"):
            train([c1], toy_eh, quick_cfg(epochs=1), dev=[c2])


class TestMaskBuilding:
    @pytest.mark.parametrize("bio", [False, True])
    @pytest.mark.parametrize("kind", ["hier", "concat", "mtl"])
    def test_one_builder_call_per_head_and_corpus(self, toy_eh, toy_corpora, monkeypatch,
                                                  kind, bio):
        """A corpus's masks come from one builder call over its tokens, and
        each sequence's rows equal the builder called on that sequence."""
        real = {"hier": _hier_mask, "single": _singleton_mask}
        calls = []

        def counted(builder):
            def build(tags, *args):
                calls.append((builder, len(tags)))
                return real[builder](tags, *args)
            return build

        monkeypatch.setattr(models_module, "_hier_mask", counted("hier"))
        monkeypatch.setattr(models_module, "_singleton_mask", counted("single"))
        built = {}
        monkeypatch.setattr(_Trainer, "run", lambda self, *a: built.update(self.instances))
        train = {"hier": train_hier, "concat": train_concat, "mtl": train_mtl}[kind]
        corpora = list(toy_corpora)
        model = train(corpora, toy_eh, quick_cfg(bio=bio))
        builder = "hier" if kind == "hier" else "single"
        # hier and concat have one head over both corpora, mtl one head per corpus.
        assert calls == [(builder, c.token_count) for c in corpora]
        assert sorted(built) == sorted(model.heads)
        for name, insts in built.items():
            pos = _domain_indices(model.heads[name].domain, bio)
            seqs = [(c, seq) for c in corpora if kind != "mtl" or c.tagset_name == name
                    for seq in c.sequences]
            assert len(insts) == len(seqs)
            for inst, (c, seq) in zip(insts, seqs):
                extra = (toy_eh, c.tagset_name) if kind == "hier" else ()
                want = real[builder](seq.tags(), *extra, pos)
                np.testing.assert_array_equal(inst.mask.keep, want.keep)
                assert inst.fvecs.shape[0] == len(seq.tokens)


class TestEarlyStopping:
    def test_stops_when_dev_f1_stalls_and_restores_best(self, toy_eh, toy_corpora):
        c1, c2 = toy_corpora
        dev = [c1.with_tagset("T1", "dev"), c2.with_tagset("T2", "dev")]
        cfg = quick_cfg(epochs=80, patience=3)
        model = train_hier([c1, c2], toy_eh, cfg, dev=dev)
        assert len(model.history) < 80
        f1s = [r.dev_f1 for r in model.history]
        assert all(f is not None for f in f1s)
        best = max(f1s)
        assert all(f <= best + 1e-12 for f in f1s[-3:])
        assert f1s[-1] <= best
        restored = _dev_scorer(dev, toy_eh)(model)
        assert restored == pytest.approx(best, abs=1e-12)

    def test_no_dev_runs_all_epochs(self, toy_eh, toy_corpora):
        model = train_hier(list(toy_corpora), toy_eh, quick_cfg(epochs=6))
        assert len(model.history) == 6
        assert all(r.dev_f1 is None for r in model.history)


class TestOverflow:
    """scipy's sparse emission product ignores np.errstate, so a score that
    overflows arrives as inf; it still fails with the package's own errors."""

    @pytest.mark.parametrize("train", [train_hier, train_indep])
    def test_training_diverges_naming_the_step(self, toy_eh, toy_corpora, train):
        cfg = quick_cfg(learning_rate=5e307, clip_norm=math.inf, l2=0.0)
        with pytest.raises(TrainingDiverged, match=r"training diverged on head '\w+' at epoch 1, "
                                                   r"step \d+: emission scores overflow$"):
            train(list(toy_corpora), toy_eh, cfg)

    @pytest.mark.parametrize("train", [train_hier, train_indep])
    def test_training_underflow_diverges_without_nan(self, toy_eh, toy_corpora, train):
        # Finite transitions whose largest entry steps between two different
        # tags, every other entry 1,000 below it: exp(-1000) is 0.0 in the
        # scaled lattice, so every path over three positions or more weighs
        # 0, though the log-partition itself is finite.
        seen = []

        def on_epoch(model, record):
            seen.append(model)
            for head in model.heads.values():
                head.transitions[...] = -1000.0
                head.transitions[0, 1] = 0.0

        with pytest.raises(TrainingDiverged, match=r"training diverged on head '\w+' at epoch 2, "
                                                   r"step \d+: every path of a lattice underflows"):
            train(list(toy_corpora), toy_eh, quick_cfg(epochs=3), on_epoch=on_epoch)
        (model,) = seen
        assert [r.epoch for r in model.history] == [1]
        assert all(math.isfinite(r.train_loss) for r in model.history)
        assert all(np.isfinite(v).all() for v in model.params().values())

    def test_tagging_raises_model_error_naming_the_head(self, toy_eh, toy_corpora):
        model = train_hier(list(toy_corpora), toy_eh, quick_cfg(epochs=1))
        weights = model.emission.weights
        weights[...] = np.where(weights >= 0, 1e308, -1e308)
        with pytest.raises(ModelError, match="emission scores of head 'fine' overflow"):
            predict_hier(model, "alice smith walked down elm".split(), "T1")

    @pytest.mark.parametrize("kind", [ModelKind.HIER, ModelKind.INDEP, ModelKind.MTL])
    def test_decoding_overflow_raises_model_error_naming_the_head(self, kind):
        models = salem_models(kind)
        for head in (h for m in models for h in m.heads.values()):
            head.transitions[...] = 1e308
            head.start[...] = 1e308
        with pytest.raises(ModelError, match=r"decoding head '\w+' fails: overflow"):
            tag_batch(models, MIXED_REQUEST, "T4", ConsolidationMethod.MAX_MARGINAL)

    def test_decoding_underflow_raises_model_error_saying_so(self):
        # Every path's scaled weight underflows to 0 (exp(-1000) is 0.0),
        # while Viterbi, in log space, stays finite.
        batch = PotentialBatch(np.array([[0.0, -1000.0], [-1000.0, 0.0]]), [2],
                               np.array([[-1000.0, -1000.0], [0.0, -1000.0]]), np.zeros(2),
                               np.zeros(2))
        assert np.isfinite(viterbi_batch(batch)[1]).all()
        with pytest.raises(ModelError, match=r"^decoding head 'T1' fails: .*underflows") as info:
            with _decoding("T1"):
                forward_backward(batch)
        assert "overflows" not in str(info.value)

    def test_dev_scoring_diverges_naming_the_epoch(self, toy_eh, toy_corpora, monkeypatch):
        def overflowing_viterbi(potentials):
            return np.full(2, 1e308) * 10

        monkeypatch.setattr(models_module, "viterbi", overflowing_viterbi)
        c1, c2 = toy_corpora
        dev = [c1.with_tagset("T1", "dev"), c2.with_tagset("T2", "dev")]
        with pytest.raises(TrainingDiverged, match=r"^hier dev scoring diverged at epoch 1: "
                                                   r"decoding head 'fine' fails: overflow"):
            train_hier(list(toy_corpora), toy_eh, quick_cfg(epochs=2), dev)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(kind=st.sampled_from(["hier", "indep", "mtl"]),
           targets=st.sets(st.sampled_from(["emission", "transitions", "start", "stop"]),
                           min_size=1),
           signs=st.sampled_from([(1.0,), (-1.0,), (1.0, -1.0)]),
           share=st.sampled_from([0.2, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_extreme_finite_parameters_tag_or_raise_model_error(self, extreme_base, kind,
                                                                targets, signs, share, seed):
        """Checksum-valid files whose parameters sit at +-1e300..1e308: each
        tags, or raises ModelError and makes `hiertag tag` exit 2."""
        rng = np.random.default_rng(seed)
        models = copy.deepcopy(extreme_base[kind])
        for model in models:
            arrays = list(model.emission.params().values()) if "emission" in targets else []
            arrays += [getattr(h, t) for h in model.heads.values() for t in sorted(targets)
                       if t != "emission"]
            for a in arrays:
                huge = rng.choice(signs, a.shape) * 10.0 ** rng.uniform(300, 308, a.shape)
                a[...] = np.where(rng.random(a.shape) < share, huge, a)
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / f"m{i}.htag" for i in range(len(models))]
            for model, path in zip(models, paths):
                path.write_bytes(model_bytes(model))
            loaded = [load_model(p) for p in paths]
            text = "\n".join("\n".join(f"{w}\tO" for w in toks) + "\n" for toks in MIXED_REQUEST)
            (Path(tmp) / "in.conll").write_text(text)
            for method in ConsolidationMethod:
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        out = tag_batch(loaded, MIXED_REQUEST, "T4", method)
                    expected = 0
                    probs = [p for c in out for r in c.collision_positions for p in r.probabilities]
                    assert not any(math.isnan(p) for p in probs)
                except ModelError:
                    expected = 2
                argv = ["tag", *(a for p in paths for a in ("--model", str(p))), "--input",
                        str(Path(tmp) / "in.conll"), "--tagset", "T4", "--method", method.value,
                        "--out", str(Path(tmp) / f"{method.value}.out")]
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert main(argv) == expected


@pytest.fixture(scope="module")
def extreme_base():
    return {kind.value: salem_models(kind)
            for kind in (ModelKind.HIER, ModelKind.INDEP, ModelKind.MTL)}


class TestEpochCallback:
    def test_fires_once_per_epoch_as_it_ends(self, toy_eh, toy_corpora):
        c1, c2 = toy_corpora
        dev = [c1.with_tagset("T1", "dev"), c2.with_tagset("T2", "dev")]
        calls = []

        def on_epoch(model, record):
            # The record is the newest one: its epoch has just ended.
            calls.append((model, record, len(model.history), model.history[-1] is record))

        model = train_hier([c1, c2], toy_eh, quick_cfg(epochs=80, patience=3), dev=dev,
                           on_epoch=on_epoch)
        assert len(calls) == len(model.history) < 80
        for i, (got_model, record, seen, newest) in enumerate(calls):
            assert got_model is model
            assert record is model.history[i]
            assert record.epoch == seen == i + 1
            assert newest and record.dev_f1 is not None

    def test_indep_reports_every_model(self, toy_eh, toy_corpora):
        calls = []
        models = train_indep(list(toy_corpora), toy_eh, quick_cfg(epochs=3),
                             on_epoch=lambda m, r: calls.append((m, r)))
        assert [(m, r.epoch) for m, r in calls] == [(m, e) for m in models for e in (1, 2, 3)]
        assert [r for _, r in calls] == [r for m in models for r in m.history]


class TestDecodePath:
    def test_only_consolidation_scores_sequences(self, toy_eh, toy_corpora, monkeypatch):
        def forbidden(*args, **kwargs):
            raise RuntimeError("sequence scores and marginals are for consolidation only")

        monkeypatch.setattr("hiertag.models.marginals", forbidden)
        monkeypatch.setattr("hiertag.models.sequence_log_prob", forbidden)
        c1, c2 = toy_corpora
        dev = [c1.with_tagset("T1", "dev"), c2.with_tagset("T2", "dev")]
        cfg = quick_cfg(epochs=3, hidden_dim=3)
        model = train_hier([c1, c2], toy_eh, cfg, dev=dev)
        assert all(r.dev_f1 is not None for r in model.history)
        assert len(predict_hier(model, "alice smith walked down elm".split(), "T1")) == 5
        for train in (train_concat, train_indep, train_mtl):
            train([c1, c2], toy_eh, cfg, dev=dev)
        # A lone concat model, and several models that never disagree, decode
        # without any forward-backward pass.
        concat = salem_models(ModelKind.CONCAT)
        agreeing = [
            biased_model(toy_eh, "T1", "Name"),
            const_model(toy_eh, "T2x", ["LastName", "O"], "LastName"),
        ]
        for method in ConsolidationMethod:
            tag_sequences(concat, MIXED_REQUEST, "T4", method, 0)
            assert tag_sequences(agreeing, MIXED_REQUEST, "T1", method, 0)[1] == 0

    def test_only_proposing_heads_run_forward_backward(self, tie_eh, monkeypatch):
        sizes = []

        def counted(batch, seqs):
            sizes.append(len(seqs))
            return marginals(batch, seqs)

        marginals = models_module.marginals
        monkeypatch.setattr(models_module, "marginals", counted)
        models = [biased_model(tie_eh, "TA", "X"), biased_model(tie_eh, "TB", "O"),
                  biased_model(tie_eh, "TB", "Y")]
        request = [["a", "b"], ["c"], ["d", "e", "f"]]
        for method in ConsolidationMethod:
            sizes.clear()
            out = tag_batch(models, request, "TT", method)
            assert [c.collisions for c in out] == [2, 1, 3]
            # The two proposing heads score the three collided sequences; the
            # head that only ever predicts O runs no sequence.
            assert sizes == [3, 3]

    def test_dev_scoring_maps_each_domain_tag_once(self, toy_eh, toy_corpora, monkeypatch):
        c1, c2 = toy_corpora
        dev = [c1.with_tagset("T1", "dev"), c2.with_tagset("T2", "dev")]
        model = train_concat([c1, c2], toy_eh, quick_cfg(epochs=2))
        tables, raised = [], []
        original = models_module._map_domain

        def recorded(*args, **kwargs):
            tables.append(original(*args, **kwargs))
            return tables[-1]

        def note_raise(self, *args):
            raised.append(args)
            ValueError.__init__(self, *args)

        monkeypatch.setattr(models_module, "_map_domain", recorded)
        monkeypatch.setattr(HierarchyError, "__init__", note_raise)
        dev_f1 = _dev_scorer(dev, toy_eh)
        for epoch in (1, 2):
            assert 0.0 <= dev_f1(model) <= 1.0
            # One table per dev corpus and epoch, not one lookup per token.
            assert len(tables) == 2 * epoch
        domain = model.single_head().domain
        # Location reaches no member of T1 and Name none of T2: both score as O.
        assert tables[0][domain.index("Location")] == "T1-Other"
        assert tables[1][domain.index("Name")] == "T2-Other"
        assert raised == []


@pytest.fixture
def tie_eh():
    """Two single-tag tagsets whose bias vectors land on identical indices,
    so consolidation scores tie exactly and order alone decides."""
    edges = [
        ("X", "P1"),
        ("Y", "P2"),
        ("Y", "TA-Other"),
        ("FG-Other", "TA-Other"),
        ("X", "TB-Other"),
        ("FG-Other", "TB-Other"),
        ("FG-Other", "TT-Other"),
    ]
    tagsets = {
        "TA": {"X", "TA-Other"},
        "TB": {"Y", "TB-Other"},
        "TT": {"P1", "P2", "TT-Other"},
    }
    nodes = {n for e in edges for n in e}
    return ExtendedHierarchy(TagHierarchy(nodes, edges, tagsets))


LABELS = ["P1", "P2", "P3", "TT-Other"]  # sorted, as consolidation numbers its labels
OTHER_ID = LABELS.index("TT-Other")


@st.composite
def collision_cases(draw):
    """Sequence lengths and 2-5 heads over them, each a Viterbi decode of
    random potentials plus a table from its domain to LABELS.  A head may
    share an earlier head's potentials under a new table (exact score ties),
    map every tag to Other (it never proposes) or repeat an earlier head."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = rng.integers(1, 6, size=draw(st.integers(1, 5)))
    heads = []
    for _ in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(["fresh", "tie", "silent", "repeat"] if heads else ["fresh"]))
        if kind in ("tie", "repeat"):
            decoded, table = heads[draw(st.integers(0, len(heads) - 1))]
            if kind == "tie":
                table = rng.integers(0, len(LABELS), table.size)
            heads.append((decoded, table))
            continue
        y = int(rng.integers(1, 5))
        batch = PotentialBatch(rng.normal(scale=2.0, size=(lengths.sum(), y)), lengths,
                               rng.normal(size=(y, y)), rng.normal(size=y), rng.normal(size=y))
        table = np.full(y, OTHER_ID) if kind == "silent" else rng.integers(0, len(LABELS), y)
        heads.append(((*viterbi_batch(batch), batch), table))
    return lengths, heads


class TestResolveCollisions:
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(collision_cases(), st.sampled_from(list(ConsolidationMethod)), st.integers(0, 3))
    def test_equals_reference_resolution(self, case, method, seed):
        lengths, heads = case
        edges = np.concatenate(([0], np.cumsum(lengths)))
        mapped = np.stack([table[decoded[0]] for decoded, table in heads])
        cand = np.where(mapped == OTHER_ID, -1, mapped)
        hits = np.array([r for r in range(edges[-1]) if len(set(cand[:, r]) - {-1}) > 1],
                        dtype=np.int64)
        out = [Consolidated(["-"] * n, 0, [], []) for n in lengths.tolist()]
        if hits.size:
            _resolve_collisions(out, cand[:, hits], hits, [d for d, _ in heads],
                                [f"h{k}" for k in range(len(heads))], edges, LABELS, method, seed)
        for b, (a, z) in enumerate(zip(edges[:-1].tolist(), edges[1:].tolist())):
            proposals = [[LABELS[t] if t >= 0 else None for t in row[a:z]] for row in cand]
            log_probs, margs = [], []
            for (path, _, batch), _ in heads:
                table = table_of(batch, b)
                log_probs.append(sequence_log_prob(table, path[a:z]))
                unary = forward_backward(table)[1]
                margs.append(unary[np.arange(z - a), path[a:z]])
            chosen, records = reference_resolve(proposals, log_probs, margs, method, seed)
            assert out[b].tags == [chosen.get(i, "-") for i in range(z - a)]
            assert out[b].collisions == len(records)
            got = [(r.position, r.candidates, [p.hex() for p in r.probabilities])
                   for r in out[b].collision_positions]
            assert got == [(r.position, r.candidates, [p.hex() for p in r.probabilities])
                           for r in records]
            assert all(type(r.position) is int for r in out[b].collision_positions)


class TestConsolidation:
    def models_for(self, eh, s1=6.0, s2=6.0):
        return [biased_model(eh, "TA", "X", s1), biased_model(eh, "TB", "Y", s2)]

    def test_every_position_collides(self, tie_eh):
        out = predict_multi(self.models_for(tie_eh), ["a", "b", "c"], "TT")
        assert out.collisions == 3
        assert [r.position for r in out.collision_positions] == [0, 1, 2]
        assert all(r.candidates == ("P1", "P2") for r in out.collision_positions)
        assert all(
            0 < p <= 1 for r in out.collision_positions for p in r.probabilities
        )
        assert len(out.tags) == 3
        assert set(out.tags) <= tie_eh.tagsets["TT"]

    def test_agreeing_models_do_not_collide(self, toy_eh):
        models = [
            biased_model(toy_eh, "T1", "Name"),
            const_model(toy_eh, "T2x", ["LastName", "O"], "LastName"),
        ]
        # Both propose Name on T1: different native tags, same mapped tag.
        out = predict_multi(models, ["a", "b"], "T1")
        assert out.tags == ["Name", "Name"]
        assert out.collisions == 0
        assert out.per_model_tags == [["Name", "Name"], ["Name", "Name"]]

    def test_all_other_positions_get_test_other(self, tie_eh):
        models = [biased_model(tie_eh, "TA", "O"), biased_model(tie_eh, "TB", "O")]
        out = predict_multi(models, ["a", "b"], "TT")
        assert out.tags == ["TT-Other", "TT-Other"]
        assert out.collisions == 0

    def test_random_is_seeded_and_bounded(self, tie_eh):
        models = self.models_for(tie_eh)
        toks = ["t"] * 16
        a = predict_multi(models, toks, "TT", ConsolidationMethod.RANDOM, seed=3)
        b = predict_multi(models, toks, "TT", ConsolidationMethod.RANDOM, seed=3)
        assert a.tags == b.tags
        assert set(a.tags) <= {"P1", "P2"}
        other = predict_multi(models, toks, "TT", ConsolidationMethod.RANDOM, seed=4)
        assert {tuple(a.tags), tuple(other.tags)} != {tuple(a.tags)}

    def test_collision_count_invariant_to_method_and_seed(self, tie_eh):
        models = self.models_for(tie_eh, s1=7.0, s2=2.0)
        toks = ["t"] * 9
        runs = [
            predict_multi(models, toks, "TT", m, seed=s)
            for m in ConsolidationMethod
            for s in (0, 11)
        ]
        counts = {r.collisions for r in runs}
        positions = {tuple(c.position for c in r.collision_positions) for r in runs}
        assert counts == {9}
        assert len(positions) == 1

    def test_best_sequence_score_prefers_sharper_model(self, tie_eh):
        models = self.models_for(tie_eh, s1=2.0, s2=7.0)
        out = predict_multi(models, ["t", "t"], "TT", ConsolidationMethod.BEST_SEQUENCE_SCORE)
        assert out.tags == ["P2", "P2"]
        flipped = self.models_for(tie_eh, s1=7.0, s2=2.0)
        out = predict_multi(flipped, ["t", "t"], "TT", ConsolidationMethod.BEST_SEQUENCE_SCORE)
        assert out.tags == ["P1", "P1"]

    def test_max_marginal_prefers_sharper_model(self, tie_eh):
        models = self.models_for(tie_eh, s1=1.0, s2=5.0)
        out = predict_multi(models, ["t"], "TT", ConsolidationMethod.MAX_MARGINAL)
        assert out.tags == ["P2"]

    def test_exact_ties_break_on_model_order(self, tie_eh):
        models = self.models_for(tie_eh)  # identical scores by construction
        for method in (
            ConsolidationMethod.BEST_SEQUENCE_SCORE,
            ConsolidationMethod.MAX_MARGINAL,
        ):
            out = predict_multi(models, ["t"], "TT", method)
            assert out.tags == ["P1"]
            out = predict_multi(models[::-1], ["t"], "TT", method)
            assert out.tags == ["P2"]

    def test_duplicated_models_change_nothing_under_max_marginal(self, tie_eh):
        models = self.models_for(tie_eh, s1=3.0, s2=5.5)
        toks = ["t"] * 7
        once = predict_multi(models, toks, "TT", ConsolidationMethod.MAX_MARGINAL)
        twice = predict_multi(models * 2, toks, "TT", ConsolidationMethod.MAX_MARGINAL)
        assert once.tags == twice.tags
        assert once.collisions == twice.collisions

    def test_recount_from_per_model_tags(self, tie_eh):
        models = self.models_for(tie_eh)
        out = predict_multi(models, ["t"] * 5, "TT")
        recount = 0
        for i in range(5):
            column = {row[i] for row in out.per_model_tags if row[i] != "TT-Other"}
            recount += len(column) > 1
        assert recount == out.collisions

    def test_hier_models_are_rejected(self, toy_eh):
        m = const_model(toy_eh, "fine", sorted(toy_eh.fine_grained), "Street",
                        kind=ModelKind.HIER)
        with pytest.raises(ModelError, match="consolidation"):
            predict_multi([m], ["a"], "T1")

    def test_unmappable_tagset_fails_fast(self, clinical_ext):
        m = biased_model(clinical_ext, "T1", "Name")  # T1 holds unmappable Age
        with pytest.raises(HierarchyError, match="reaches no member"):
            predict_multi([m], ["a"], "T3")

    def test_single_concat_model_consolidates_cleanly(self, clinical_ext):
        m = const_model(
            clinical_ext, "union", ["FirstName", "O", "Street"], "FirstName",
            kind=ModelKind.CONCAT,
        )
        out = predict_multi([m], ["a", "b"], "T1")
        assert out.tags == ["Name", "Name"]
        assert out.collisions == 0

    def test_no_models_rejected(self):
        with pytest.raises(ModelError, match="no models"):
            predict_multi([], ["a"], "T1")


def union_eh():
    """T1 {Name} and T2 {Location} meet in the test tagset T4."""
    edges = [("FirstName", "Name"), ("LastName", "Name"), ("Street", "Location")]
    tagsets = {"T1": {"Name"}, "T2": {"Location"}, "T4": {"Name", "Location"}}
    return extend_with_other(TagHierarchy({n for e in edges for n in e}, edges, tagsets))


# "salem" is a Name in one corpus and a Location in the other, so the
# multi-model kinds collide on it.
SALEM_C1 = C1_ROWS + [tagged("salem jones walked down elm", "Name Name O O O")]
SALEM_C2 = C2_ROWS + [tagged("the visitor walked near salem", "O O O O Location")]
MIXED_REQUEST = [
    ["salem"],
    "bob smith walked near oak".split(),
    "elm salem oak jones".split(),
    "the visitor strolled".split(),
    ["oak"],
    "carol elm salem down oak alice".split(),
]
TRAINERS = {
    ModelKind.HIER: train_hier,
    ModelKind.CONCAT: train_concat,
    ModelKind.INDEP: train_indep,
    ModelKind.MTL: train_mtl,
}


def salem_models(kind):
    data = [corpus(SALEM_C1, "T1"), corpus(SALEM_C2, "T2")]
    out = TRAINERS[kind](data, union_eh(), quick_cfg(epochs=4, hidden_dim=4))
    return out if isinstance(out, list) else [out]


class TestBatchedTagging:
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_one_request_equals_per_sequence_calls(self, kind):
        models = salem_models(kind)
        eh = models[0].hierarchy
        collisions = 0
        for method in ConsolidationMethod:
            preds, count = tag_sequences(models, MIXED_REQUEST, "T4", method, 5)
            batched = tag_batch(models, MIXED_REQUEST, "T4", method, 5)
            if kind is ModelKind.HIER:
                single = [predict_hier(models[0], toks, "T4") for toks in MIXED_REQUEST]
                assert [c.tags for c in batched] == single
                raw = [predict_hier(models[0], toks, None) for toks in MIXED_REQUEST]
                assert [c.tags for c in tag_batch(models, MIXED_REQUEST, None)] == raw
            else:
                single_out = [predict_multi(models, toks, "T4", method, 5)
                              for toks in MIXED_REQUEST]
                assert batched == single_out  # collision records included
                single = [c.tags for c in single_out]
            assert preds == [output_tags(tags, eh, "T4") for tags in single]
            assert count == sum(c.collisions for c in batched)
            collisions += count
        assert (collisions > 0) == (kind in (ModelKind.INDEP, ModelKind.MTL))

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_empty_sequence_anywhere_is_rejected(self, kind):
        models = salem_models(kind)
        for at in (0, 3, len(MIXED_REQUEST)):
            request = MIXED_REQUEST[:at] + [[]] + MIXED_REQUEST[at:]
            with pytest.raises(ModelError, match="empty"):
                tag_batch(models, request, "T4")

    def test_empty_request_tags_nothing(self, toy_eh):
        assert tag_batch([biased_model(toy_eh, "T1", "Name")], [], "T1") == []


class TestBioMode:
    def test_domain_expansion(self):
        assert expand_bio(["A", "O"]) == ["B-A", "I-A", "O"]
        assert expand_bio(["O"]) == ["O"]

    def test_training_and_decoding_collapse_prefixes(self, toy_eh, toy_corpora):
        cfg = quick_cfg(epochs=10, bio=True)
        model = train_hier(list(toy_corpora), toy_eh, cfg)
        tags = predict_hier(model, "alice smith walked down elm".split(), "T1")
        assert set(tags) <= toy_eh.tagsets["T1"]

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_bio_penalty_leaves_every_lattice_a_legal_path(self, toy_eh, toy_corpora,
                                                           monkeypatch, kind):
        # The scaled lattice weighs a barred step exp(BIO_PENALTY - max) =
        # 0.0.  Every mask keeps B-x wherever it keeps I-x, so each lattice
        # keeps a path of legal steps: training ends without underflow, and
        # no loss pays the penalty.
        kernel, calls = models_module.loss_and_grad, []

        def recorded(potentials, masks):
            out = kernel(potentials, masks)
            calls.append((potentials.transitions, out[0]))
            return out

        monkeypatch.setattr(models_module, "loss_and_grad", recorded)
        TRAINERS[kind](list(toy_corpora), toy_eh, quick_cfg(epochs=3, bio=True, hidden_dim=4))
        assert calls
        for transitions, losses in calls:
            barred = transitions < models_module.BIO_PENALTY / 2
            assert barred.any()
            assert (np.exp(transitions - transitions.max())[barred] == 0.0).all()
            assert ((losses >= 0) & (losses < -models_module.BIO_PENALTY / 2)).all()

    def test_bio_masks_allow_both_variants(self, toy_eh):
        domain = expand_bio(sorted(toy_eh.fine_grained))
        pos = _domain_indices(domain, True)
        mask = _hier_mask(["Name"], toy_eh, "T1", pos)
        got = {domain[i] for i in mask.allowed[0]}
        assert got == {"B-FirstName", "I-FirstName", "B-LastName", "I-LastName"}


class TestModelIO:
    def test_round_trip_predicts_bitwise_identically(self, toy_eh, toy_corpora, tmp_path):
        model = train_hier(list(toy_corpora), toy_eh, quick_cfg(epochs=4))
        path = tmp_path / "m.htag"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind is ModelKind.HIER
        assert loaded.config == model.config
        for toks in (["alice", "smith"], "the visitor lives down oak".split()):
            assert_same_decode(model, model.single_head(), loaded, loaded.single_head(), toks)

    def test_mtl_round_trip(self, toy_eh, toy_corpora, tmp_path):
        model = train_mtl(list(toy_corpora), toy_eh, quick_cfg(epochs=3, hidden_dim=4))
        path = tmp_path / "m.htag"
        save_model(model, path)
        loaded = load_model(path)
        assert sorted(loaded.heads) == ["T1", "T2"]
        toks = "bob jones walked near elm".split()
        for head in ("T1", "T2"):
            assert_same_decode(model, model.head(head), loaded, loaded.head(head), toks)

    def test_save_is_deterministic(self, toy_eh, toy_corpora, tmp_path):
        cfg = quick_cfg(epochs=3)
        a = train_hier(list(toy_corpora), toy_eh, cfg)
        b = train_hier(list(toy_corpora), toy_eh, cfg)
        pa, pb = tmp_path / "a.htag", tmp_path / "b.htag"
        save_model(a, pa)
        save_model(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_truncation_is_detected(self, toy_eh, toy_corpora, tmp_path):
        model = train_hier(list(toy_corpora), toy_eh, quick_cfg(epochs=1))
        raw = model_bytes(model)
        path = tmp_path / "m.htag"
        for cut in (0, 3, 4, 11, len(raw) // 3, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(ModelFormatError):
                load_model(path)

    def test_bad_magic_and_version(self, toy_eh, toy_corpora, tmp_path):
        model = train_hier(list(toy_corpora), toy_eh, quick_cfg(epochs=1))
        raw = model_bytes(model)
        path = tmp_path / "m.htag"
        path.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)
        path.write_bytes(MAGIC + struct.pack("<I", FORMAT_VERSION + 1) + raw[8:])
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    @pytest.mark.parametrize("version", [2, 3, 4])
    def test_older_format_versions_are_rejected(self, toy_eh, tmp_path, version):
        payload = model_bytes(biased_model(toy_eh, "T1", "Name"))[20:]
        with pytest.raises(ModelFormatError, match=f"unsupported model format version {version}"):
            load_bytes(tmp_path, rewrapped(payload, version=version))

    def test_files_store_the_head_and_parameter_tables(self, toy_eh, toy_corpora):
        for model in (biased_model(toy_eh, "T1", "Name"),
                      train_mtl(list(toy_corpora), toy_eh, quick_cfg(epochs=1, hidden_dim=3))):
            names = sorted(model.heads)
            params = model.params()
            assert with_tables(model, names, [model.heads[n].domain for n in names],
                               {k: params[k] for k in sorted(params)}) == model_bytes(model)

    def test_parameter_table_must_be_the_models_own(self, toy_eh, tmp_path):
        model = biased_model(toy_eh, "T1", "Name")
        domains = [model.heads["T1"].domain]
        params = {k: model.params()[k] for k in sorted(model.params())}
        cases = [
            ("stop:T1", {k: v for k, v in params.items() if k != "stop:T1"}),
            ("parameter names", {**params, "trans:T9": params["trans:T1"]}),
            ("parameter names", dict(reversed(params.items()))),
        ]
        for message, table in cases:
            with pytest.raises(ModelFormatError, match=message):
                load_bytes(tmp_path, with_tables(model, ["T1"], domains, table))

    def test_heads_must_be_distinct_and_fit_the_kind(self, toy_eh, toy_corpora, tmp_path):
        hier = biased_model(toy_eh, "T1", "Name")
        two = {k.replace("T1", n): v for n in ("T1", "T2") for k, v in hier.params().items()}
        with pytest.raises(ModelFormatError, match=r"heads \['T1', 'T2'\] do not fit a indep"):
            load_bytes(tmp_path, with_tables(hier, ["T1", "T2"], [hier.heads["T1"].domain] * 2,
                                             {k: two[k] for k in sorted(two)}))
        mtl = train_mtl(list(toy_corpora), toy_eh, quick_cfg(epochs=1, hidden_dim=3))
        params = mtl.params()
        table = {k: params[k] for k in sorted(params)}
        domain = mtl.heads["T1"].domain
        with pytest.raises(ModelFormatError, match=r"heads \['T1', 'T1'\] do not fit a mtl"):
            load_bytes(tmp_path, with_tables(mtl, ["T1", "T1"], [domain, domain], table))

    def test_string_table_faults_behind_a_valid_checksum(self, toy_eh, tmp_path):
        raw = model_bytes(biased_model(toy_eh, "T1", "Name"))
        assert rewrapped(raw[20:]) == raw
        kind = table(["indep"])  # the payload's first table
        assert raw[20:].startswith(kind)
        rest = raw[20 + len(kind):]
        cases = [
            ("disagree", struct.pack("<IIQ", 1, 4, 5) + b"indep"),
            ("invalid UTF-8", struct.pack("<IIQ", 1, 5, 5) + b"ind\xffp"),
            ("truncated", struct.pack("<I", 2**32 - 1) + kind[4:]),  # count past the payload
            ("truncated", struct.pack("<IIQ", 1, 5, 2**40) + b"indep"),  # byte length past it
            ("2 strings where one belongs", table(["ind", "ep"])),
        ]
        for message, edited in cases:
            with pytest.raises(ModelFormatError, match=message):
                load_bytes(tmp_path, rewrapped(edited + rest))

    def test_string_tables_store_code_point_lengths(self, toy_eh, tmp_path):
        strings = ["<UNK>", "é", "", "日本", "𝔘", "a𝔘é\x00b"]
        model = biased_model(toy_eh, "T1", "Name")
        y = len(model.single_head().domain)
        model.vocab = FeatureVocabulary(strings)
        model.emission = LinearEmissionModel(np.zeros((len(strings), y)), model.emission.bias)
        blob = "".join(strings).encode("utf-8")
        pinned = (struct.pack("<I", 6) + np.array([5, 1, 0, 2, 1, 5], "<u4").tobytes()
                  + struct.pack("<Q", len(blob)) + blob)
        assert table(strings) == pinned
        raw = model_bytes(model)
        assert pinned in raw
        loaded = load_bytes(tmp_path, raw)
        assert loaded.vocab.strings_by_id() == strings
        assert model_bytes(loaded) == raw

    def test_trailing_garbage_is_detected(self, toy_eh, toy_corpora, tmp_path):
        model = train_hier(list(toy_corpora), toy_eh, quick_cfg(epochs=1))
        path = tmp_path / "m.htag"
        path.write_bytes(model_bytes(model) + b"\x00")
        with pytest.raises(ModelFormatError, match="trailing"):
            load_model(path)

    def test_checksum_is_verified(self, toy_eh, toy_corpora, tmp_path):
        model = train_hier(list(toy_corpora), toy_eh, quick_cfg(epochs=1))
        raw = bytearray(model_bytes(model))
        raw[-1] ^= 1  # an exponent bit of the last stop weight: still a parseable file
        path = tmp_path / "m.htag"
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="checksum"):
            load_model(path)

    @pytest.mark.parametrize("kind", [ModelKind.HIER, ModelKind.MTL])
    def test_mutated_files_load_or_raise_format_error(self, toy_eh, toy_corpora, tmp_path, kind):
        # The payload checksum catches every burst of up to 4 changed bytes,
        # and the recorded length every insertion or deletion.
        train = train_hier if kind is ModelKind.HIER else train_mtl
        raw = model_bytes(train(list(toy_corpora), toy_eh, quick_cfg(epochs=1, hidden_dim=3)))
        rng = np.random.default_rng(11)
        path = tmp_path / "m.htag"
        rejected = 0
        for _ in range(200):
            data = bytearray(raw)
            k = int(rng.integers(1, 5))
            at = int(rng.integers(len(data)))
            noise = rng.integers(256, size=k, dtype=np.uint8).tobytes()
            op = int(rng.integers(3))
            if op == 0:
                data[at : at + k] = noise
            elif op == 1:
                data[at:at] = noise
            else:
                del data[at : at + k]
            path.write_bytes(bytes(data))
            try:
                load_model(path)
            except ModelFormatError:
                rejected += 1
        assert rejected == 200

    def test_config_of_wrong_type_is_format_error(self, toy_eh, tmp_path):
        model = biased_model(toy_eh, "T1", "Name")
        object.__setattr__(model.config, "bio", "no")  # the file's checksum stays valid
        path = tmp_path / "m.htag"
        save_model(model, path)
        assert b'"bio":"no"' in path.read_bytes()
        with pytest.raises(ModelFormatError, match="bio must be bool"):
            load_model(path)

    def test_parameter_shapes_must_fit_the_domain(self, toy_eh, tmp_path):
        path = tmp_path / "m.htag"
        model = biased_model(toy_eh, "T1", "Name")
        model.heads["T1"].stop = np.zeros(5)
        save_model(model, path)
        with pytest.raises(ModelFormatError, match="do not fit"):
            load_model(path)
        model = biased_model(toy_eh, "T1", "Name")
        model.emission = LinearEmissionModel(np.zeros((1, 3)), np.zeros(3))
        save_model(model, path)
        with pytest.raises(ModelFormatError, match="do not fit"):
            load_model(path)
        model = biased_model(toy_eh, "T1", "Name")
        model.emission = LinearEmissionModel(np.zeros((4, 2)), np.zeros(2))
        save_model(model, path)
        with pytest.raises(ModelFormatError, match="vocabulary"):
            load_model(path)

    def test_indep_models_round_trip(self, toy_eh, toy_corpora, tmp_path):
        models = train_indep(list(toy_corpora), toy_eh, quick_cfg(epochs=2))
        for i, m in enumerate(models):
            save_model(m, tmp_path / f"m.{i}.htag")
        loaded = [load_model(tmp_path / f"m.{i}.htag") for i in range(2)]
        toks = ["alice", "smith", "walked"]
        for ref, got in zip(models, loaded):
            assert got.kind is ModelKind.INDEP
            assert_same_decode(ref, ref.single_head(), got, got.single_head(), toks)


def rewrapped(payload: bytes, version: int = FORMAT_VERSION) -> bytes:
    """A model file around an edited payload, with a fresh length and CRC-32:
    the checksum passes, so the reader itself must catch the fault."""
    return MAGIC + struct.pack("<IQI", version, len(payload), zlib.crc32(payload)) + payload


def with_tables(model, names, domains, params) -> bytes:
    """A checksum-valid file: model's payload up to its feature table, then
    these head names, domains and parameter table in format 4's layout."""
    payload = model_bytes(model)[20:]
    r = _Reader(payload)
    for _ in range(4):  # kind, configuration, hierarchy, feature table
        r.texts()
    w = _Writer()
    w.texts(names)
    for domain in domains:
        w.texts(domain)
    w.texts(list(params))
    for a in params.values():
        w.array(a)
    return rewrapped(payload[: r.off] + w.blob())


def table(strings):
    w = _Writer()
    w.texts(strings)
    return w.blob()


def load_bytes(tmp_path, raw: bytes):
    path = tmp_path / "m.htag"
    path.write_bytes(raw)
    return load_model(path)


class TestOutputTags:
    def test_collapses_only_the_tagset_other(self, toy_eh):
        tags = ["Name", "T1-Other", "Name"]
        assert output_tags(tags, toy_eh, "T1") == ["Name", "O", "Name"]
        assert output_tags(["T2-Other"], toy_eh, "T2") == ["O"]
        assert output_tags(["T2-Other"], toy_eh, "T1") == ["T2-Other"]
