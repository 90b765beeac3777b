import struct

import numpy as np
import pytest

from hiertag.data import OTHER, Corpus, CorpusError, LabeledSequence, Token
from hiertag.experiments import tag_sequences
from hiertag.features import FeatureVocabulary, LinearEmissionModel, SharedEmissionModel
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
    load_model,
    model_bytes,
    save_model,
)
from hiertag.models import (
    ConsolidationMethod,
    Head,
    ModelError,
    ModelKind,
    TrainedModel,
    TrainingConfig,
    _decode_head,
    _dev_scorer,
    _domain_indices,
    _hier_mask,
    _singleton_mask,
    _Instance,
    _Request,
    _Trainer,
    _vectorize_corpus,
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
    return _decode_head(model, head, emissions, request.lengths)


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
    emission = LinearEmissionModel(np.zeros((y, 1)), bias)
    head = Head(head_name, list(domain), np.zeros((y, y)), np.zeros(y), np.zeros(y))
    vocab = FeatureVocabulary.from_strings(["<UNK>"])
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
        vocab = FeatureVocabulary.from_strings(["<UNK>", "w0=alice", "w0=zzz"])
        weights = np.zeros((len(domain), vocab.size))
        weights[domain.index("FirstName"), 1] = 8.0
        weights[domain.index("FG-Other"), 2] = 8.0
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
        assert model.emission.shared_weights.shape[0] == 6
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
        shared_before = model.emission.shared_weights.copy()
        trainer._batch_step("T2", insts[:2])
        assert np.array_equal(model.heads["T1"].transitions, frozen["trans"])
        assert np.array_equal(model.emission.heads["T1"][0], frozen["head_w"])
        assert np.array_equal(model.emission.heads["T1"][1], frozen["head_b"])
        assert not np.array_equal(model.emission.shared_weights, shared_before)

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
        col = touched[len(touched) // 2]
        for row in range(w.shape[0]):
            old = w[row, col]
            w[row, col] = old + h
            hi = objective()
            w[row, col] = old - h
            lo = objective()
            w[row, col] = old
            fd = (hi - lo) / (2 * h)
            got = grads["shared_weights"][row, col]
            assert abs(got - fd) <= 1e-4 * max(1.0, abs(fd))


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
        monkeypatch.setattr("hiertag.models.forward_backward", forbidden)
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

    def test_dev_scoring_maps_each_domain_tag_once(self, toy_eh, toy_corpora, monkeypatch):
        c1, c2 = toy_corpora
        dev = [c1.with_tagset("T1", "dev"), c2.with_tagset("T2", "dev")]
        model = train_concat([c1, c2], toy_eh, quick_cfg(epochs=2))
        calls = []
        original = ExtendedHierarchy.map_by_traversal

        def counted(self, tag, tagset):
            calls.append(tag)
            return original(self, tag, tagset)

        monkeypatch.setattr(ExtendedHierarchy, "map_by_traversal", counted)
        f1 = _dev_scorer(dev, toy_eh)(model)
        assert 0.0 <= f1 <= 1.0
        # Location reaches no member of T1 and Name none of T2: both score as O.
        assert sorted(calls) == ["Location", "Location", "Name", "Name"]


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

    def test_trailing_garbage_is_detected(self, toy_eh, toy_corpora, tmp_path):
        model = train_hier(list(toy_corpora), toy_eh, quick_cfg(epochs=1))
        path = tmp_path / "m.htag"
        path.write_bytes(model_bytes(model) + b"\x00")
        with pytest.raises(ModelFormatError, match="trailing"):
            load_model(path)

    @pytest.mark.parametrize("kind", [ModelKind.HIER, ModelKind.MTL])
    def test_mutated_files_load_or_raise_format_error(self, toy_eh, toy_corpora, tmp_path, kind):
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
        assert rejected > 0

    def test_parameter_shapes_must_fit_the_domain(self, toy_eh, tmp_path):
        path = tmp_path / "m.htag"
        model = biased_model(toy_eh, "T1", "Name")
        model.heads["T1"].stop = np.zeros(5)
        save_model(model, path)
        with pytest.raises(ModelFormatError, match="do not fit"):
            load_model(path)
        model = biased_model(toy_eh, "T1", "Name")
        model.emission = LinearEmissionModel(np.zeros((3, 1)), np.zeros(3))
        save_model(model, path)
        with pytest.raises(ModelFormatError, match="do not fit"):
            load_model(path)
        model = biased_model(toy_eh, "T1", "Name")
        model.emission = LinearEmissionModel(np.zeros((2, 4)), np.zeros(2))
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


class TestOutputTags:
    def test_collapses_only_the_tagset_other(self, toy_eh):
        tags = ["Name", "T1-Other", "Name"]
        assert output_tags(tags, toy_eh, "T1") == ["Name", "O", "Name"]
        assert output_tags(["T2-Other"], toy_eh, "T2") == ["O"]
        assert output_tags(["T2-Other"], toy_eh, "T1") == ["T2-Other"]
