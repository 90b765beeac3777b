from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import sparse

from hiertag.crf import LatticeMask, PotentialTable, loss_and_grad
from hiertag.features import (
    FeatureVector,
    FeatureVocabulary,
    LinearEmissionModel,
    SharedEmissionModel,
    emission_backprop,
    emission_cache,
    feature_strings,
    word_shape,
    zero_gradients,
)
from hiertag.models import _featurize


class TestTemplates:
    @pytest.mark.parametrize("window", [0, 1, 2, 4])
    def test_featurize_equals_per_position_strings(self, window):
        # "x" and the pair are shorter than the widest window; "İ" lowercases
        # to two characters.
        token_lists = [["x"], ["Alice", "Smith"], "the 3 Visitors saw alice near elm".split(),
                       ["İzmir", "a-1", "B2B"]]
        strings, positions, indptr = _featurize(token_lists, window)
        got = [[strings[p] for p in positions[a:b]] for a, b in zip(indptr[:-1], indptr[1:])]
        assert got == [feature_strings(t, i, window) for t in token_lists for i in range(len(t))]
        assert len(set(strings)) == len(strings)

    def test_example_strings(self):
        feats = feature_strings(["John", "Street"], 0)
        for expected in (
            "w0=john", "shape0=Xxxx", "suf2=hn", "pre2=jo",
            "w+1=street", "shape+1=Xxxxxx", "w-1=<BOS>", "w-2=<BOS>", "w+2=<EOS>",
        ):
            assert expected in feats
        assert "digit" not in feats

    def test_digit_flag_and_shapes(self):
        feats = feature_strings(["3:30pm"], 0)
        assert "digit" in feats
        assert "shape0=d:ddxx" in feats
        assert word_shape("Ab/12") == "Xx/dd"
        assert word_shape("HELLO") == "XXXXX"

    def test_short_token_prefixes(self):
        feats = feature_strings(["ab"], 0)
        assert "pre2=ab" in feats and "suf2=ab" in feats
        assert not any(f.startswith(("pre3", "suf3")) for f in feats)

    def test_window_locality(self):
        a = ["x", "y", "John", "Street", "z"]
        b = ["x", "y", "John", "Street", "z", "extra", "more"]
        vocab = FeatureVocabulary()
        va = vocab.vectorize(feature_strings(a, 2))
        vb = vocab.vectorize(feature_strings(b, 2))
        assert va == vb  # differing tokens all lie outside the radius-2 window

    def test_radius_configurable(self):
        feats = feature_strings(["a", "b", "c"], 1, radius=1)
        assert "w+1=c" in feats and "w-1=a" in feats
        assert not any("w+2" in f or "w-2" in f for f in feats)

    def test_determinism_byte_equal(self):
        vocab = FeatureVocabulary()
        tokens = ["Dr.", "Smith", "saw", "12", "patients"]
        first = [vocab.vectorize(feature_strings(tokens, i)) for i in range(len(tokens))]
        vocab.freeze()
        second = [vocab.vectorize(feature_strings(tokens, i)) for i in range(len(tokens))]
        assert first == second

    def test_position_bounds(self):
        with pytest.raises(ValueError, match="outside"):
            feature_strings(["a"], 1)


class TestVocabulary:
    def test_ids_from_one_in_insertion_order(self):
        vocab = FeatureVocabulary()
        assert vocab.id_of("b") == 1
        assert vocab.id_of("a") == 2
        assert vocab.id_of("b") == 1
        assert vocab.size == 3

    def test_frozen_maps_unknown_to_unk(self):
        vocab = FeatureVocabulary()
        vocab.id_of("a")
        vocab.freeze()
        assert vocab.id_of("zzz") == 0
        assert vocab.size == 2  # did not grow

    def test_string_table_round_trip(self):
        vocab = FeatureVocabulary()
        for s in ("w0=a", "w0=b", "suf1=c"):
            vocab.id_of(s)
        again = FeatureVocabulary.from_strings(vocab.strings_by_id())
        assert again.frozen
        for s in ("w0=a", "w0=b", "suf1=c"):
            assert again.id_of(s) == vocab.id_of(s)

    def test_unseen_duplicates_accumulate_at_unk(self):
        vocab = FeatureVocabulary()
        vocab.freeze()
        v = vocab.vectorize(["a", "b", "c"])
        assert v.indices.tolist() == [0]
        assert v.values.tolist() == [3.0]

    def test_vector_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            FeatureVector([2, 1], [1.0, 1.0])
        with pytest.raises(ValueError, match="negative"):
            FeatureVector([-1], [1.0])
        with pytest.raises(ValueError, match="parallel"):
            FeatureVector([1, 2], [1.0])


def rows(fs: list[FeatureVector], feature_count: int) -> sparse.csr_matrix:
    """Per-token feature vectors stacked as the CSR matrix the scorers take."""
    return sparse.csr_matrix(
        (np.concatenate([f.values for f in fs]), np.concatenate([f.indices for f in fs]),
         np.cumsum([0] + [f.indices.size for f in fs])),
        shape=(len(fs), feature_count),
    )


def random_fvec(rng: np.random.Generator, feature_count: int) -> FeatureVector:
    k = int(rng.integers(1, min(5, feature_count) + 1))
    ids = np.sort(rng.choice(feature_count, size=k, replace=False))
    return FeatureVector(ids, np.ones(k))


class TestLinearModel:
    def test_zero_weights_gives_bias(self):
        m = LinearEmissionModel(np.zeros((3, 4)), np.array([1.0, -2.0, 0.5]))
        row = m.score_row(FeatureVector([0, 2], [1.0, 1.0]))
        assert np.allclose(row, [1.0, -2.0, 0.5])

    def test_one_hot_feature(self):
        w = np.zeros((2, 5))
        w[1, 3] = 4.0
        m = LinearEmissionModel(w, np.array([0.0, 1.0]))
        row = m.score_row(FeatureVector([3], [1.0]))
        assert np.allclose(row, [0.0, 5.0])

    def test_matches_dense_product(self):
        rng = np.random.default_rng(70)
        for _ in range(50):
            y, fc = int(rng.integers(1, 5)), int(rng.integers(2, 9))
            m = LinearEmissionModel(rng.normal(size=(y, fc)), rng.normal(size=y))
            f = random_fvec(rng, fc)
            f = FeatureVector(f.indices, rng.uniform(0.5, 2.0, size=len(f.indices)))
            dense = np.zeros(fc)
            dense[f.indices] = f.values
            assert np.allclose(m.score_row(f), m.weights @ dense + m.bias, atol=1e-12)

    def test_value_scaling_is_linear(self):
        rng = np.random.default_rng(71)
        m = LinearEmissionModel(rng.normal(size=(3, 6)), rng.normal(size=3))
        f = FeatureVector([1, 4], [1.0, 1.0])
        doubled = FeatureVector([1, 4], [2.0, 2.0])
        lin = m.score_row(f) - m.bias
        assert np.allclose(m.score_row(doubled) - m.bias, 2 * lin, atol=1e-12)

    def test_out_of_bounds_id_rejected(self):
        m = LinearEmissionModel.zeros(2, 3)
        with pytest.raises(ValueError, match="out of bounds"):
            m.score_row(FeatureVector([5], [1.0]))

    def test_backprop_zero_input(self):
        m = LinearEmissionModel.zeros(2, 4)
        fs = [FeatureVector([1], [1.0]), FeatureVector([2, 3], [1.0, 1.0])]
        grads = zero_gradients(m.params())
        m.backprop(rows(fs, 4), None, np.zeros((2, 2)), None, grads)
        assert all(np.all(g == 0) for g in grads.values())

    def test_backprop_single_feature_linearity(self):
        m = LinearEmissionModel.zeros(2, 4)
        fs = [FeatureVector([3], [1.0]), FeatureVector([3], [1.0])]
        d_em = np.array([[0.5, -0.5], [0.25, 0.75]])
        grads = zero_gradients(m.params())
        m.backprop(rows(fs, 4), None, d_em, None, grads)
        assert np.allclose(grads["weights"][:, 3], d_em.sum(axis=0))
        assert np.allclose(grads["bias"], d_em.sum(axis=0))

    def test_backprop_shape_mismatch(self):
        m = LinearEmissionModel.zeros(2, 4)
        with pytest.raises(ValueError, match="mismatch"):
            m.backprop(rows([FeatureVector([0], [1.0])], 4), None, np.zeros((1, 3)), None,
                       zero_gradients(m.params()))


class TestSharedModel:
    def build(self, rng, fc=6, hidden=3, heads=("A", "B"), ys=(2, 3)):
        m = SharedEmissionModel.create(hidden, fc, dict(zip(heads, ys)), rng)
        # non-trivial head weights so gradients flow
        for name in heads:
            w, b = m.heads[name]
            w += rng.normal(scale=0.5, size=w.shape)
            b += rng.normal(scale=0.5, size=b.shape)
        m.shared_bias += rng.normal(scale=0.2, size=m.shared_bias.shape)
        return m

    def test_zero_shared_gives_head_bias(self):
        m = SharedEmissionModel(
            np.zeros((2, 4)), np.zeros(2), {"A": (np.ones((3, 2)), np.array([1.0, 2.0, 3.0]))}
        )
        row = m.score_row(FeatureVector([1], [1.0]), "A")
        assert np.allclose(row, [1.0, 2.0, 3.0])

    def test_hidden_dim_one_closed_form(self):
        m = SharedEmissionModel(
            np.array([[0.5, -0.25]]), np.array([0.1]),
            {"A": (np.array([[2.0], [-1.0]]), np.array([0.0, 0.5]))},
        )
        f = FeatureVector([0, 1], [1.0, 2.0])
        h = math.tanh(0.5 * 1.0 + (-0.25) * 2.0 + 0.1)
        assert np.allclose(m.score_row(f, "A"), [2.0 * h, -1.0 * h + 0.5], atol=1e-12)

    def test_identity_head_reduces_to_squashed_linear(self):
        rng = np.random.default_rng(80)
        sw = rng.normal(size=(3, 5))
        m = SharedEmissionModel(sw, np.zeros(3), {"A": (np.eye(3), np.zeros(3))})
        f = random_fvec(rng, 5)
        dense = np.zeros(5)
        dense[f.indices] = f.values
        assert np.allclose(m.score_row(f, "A"), np.tanh(sw @ dense), atol=1e-12)

    def test_non_finite_parameters_rejected(self):
        head = (np.ones((2, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="finite"):
            SharedEmissionModel(np.full((2, 3), np.nan), np.zeros(2), {"A": head})
        with pytest.raises(ValueError, match="finite"):
            SharedEmissionModel(np.zeros((2, 3)), np.zeros(2), {"A": (head[0], np.full(2, np.inf))})

    def test_unknown_head_rejected(self):
        rng = np.random.default_rng(81)
        m = self.build(rng)
        with pytest.raises(ValueError, match="unknown head"):
            m.score_row(FeatureVector([0], [1.0]), "C")

    def test_emissions_match_score_rows(self):
        rng = np.random.default_rng(82)
        m = self.build(rng)
        fs = [random_fvec(rng, m.feature_count) for _ in range(4)]
        em, hidden = m.emissions(rows(fs, m.feature_count), "B")
        assert hidden.shape == (4, m.hidden_dim)
        for i, f in enumerate(fs):
            assert np.allclose(em[i], m.score_row(f, "B"), atol=1e-12)

    def test_backprop_touches_only_active_head(self):
        rng = np.random.default_rng(83)
        m = self.build(rng)
        x = rows([random_fvec(rng, m.feature_count) for _ in range(3)], m.feature_count)
        em, hidden = m.emissions(x, "A")
        grads = zero_gradients(m.params())
        m.backprop(x, "A", np.ones_like(em), hidden, grads)
        assert np.all(grads["head:B:weights"] == 0)
        assert np.all(grads["head:B:bias"] == 0)
        assert np.abs(grads["shared_weights"]).sum() > 0


def end_to_end_setup(rng, model, head, n):
    y = (model.heads[head][0].shape[0]
         if isinstance(model, SharedEmissionModel) else model.weights.shape[0])
    fs = rows([random_fvec(rng, model.feature_count) for _ in range(n)], model.feature_count)
    trans = rng.normal(size=(y, y))
    start, stop = rng.normal(size=y), rng.normal(size=y)
    allowed = [rng.choice(y, size=int(rng.integers(1, y + 1)), replace=False)
               for _ in range(n)]
    return fs, trans, start, stop, LatticeMask(allowed)


def end_to_end_loss(model, head, fs, trans, start, stop, mask) -> float:
    em, _ = emission_cache(model, fs, head)
    return loss_and_grad(PotentialTable(em, trans, start, stop), mask)[0]


def end_to_end_grads(model, head, fs, trans, start, stop, mask):
    em, cache = emission_cache(model, fs, head)
    _, g = loss_and_grad(PotentialTable(em, trans, start, stop), mask)
    grads = zero_gradients(model.params())
    emission_backprop(model, fs, head, g.d_emissions, cache, grads)
    return grads


TOKENS = [
    "Alice Smith walked down Elm Street".split(),
    ["x"],
    "the 3 visitors saw alice near elm".split(),
]


def vocab_for(sequences):
    vocab = FeatureVocabulary()
    for toks in sequences:
        for i in range(len(toks)):
            vocab.vectorize(feature_strings(toks, i))
    vocab.freeze()
    return vocab


def batch_matrix(vocab, token_lists):
    """The feature matrix of `token_lists`, built as a tagging request builds it."""
    return vocab.matrix(*_featurize(token_lists, 2))


class TestBatchScoring:
    def test_matrix_rows_equal_vectorized_tokens(self):
        vocab = vocab_for(TOKENS[:1])  # the rest is partly unknown
        x = batch_matrix(vocab, TOKENS)
        rows = [vocab.vectorize(feature_strings(t, i)) for t in TOKENS for i in range(len(t))]
        assert x.shape == (len(rows), vocab.size)
        for r, f in enumerate(rows):
            got = x[r]
            assert FeatureVector(got.indices, got.data) == f

    def test_both_scorers_match_their_per_token_rows(self):
        rng = np.random.default_rng(90)
        vocab = vocab_for(TOKENS)
        x = batch_matrix(vocab, TOKENS)
        fs = [vocab.vectorize(feature_strings(t, i)) for t in TOKENS for i in range(len(t))]
        linear = LinearEmissionModel(rng.normal(size=(3, vocab.size)), rng.normal(size=3))
        shared = TestSharedModel().build(rng, fc=vocab.size)
        for model, head in ((linear, None), (shared, "A"), (shared, "B")):
            got = model.batch_emissions(x, [head])[head]
            want, _ = model.emissions(rows(fs, vocab.size), head)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_rows_do_not_depend_on_the_batch(self):
        rng = np.random.default_rng(91)
        vocab = vocab_for(TOKENS)
        linear = LinearEmissionModel(rng.normal(size=(3, vocab.size)), rng.normal(size=3))
        shared = TestSharedModel().build(rng, fc=vocab.size, hidden=16)
        whole = batch_matrix(vocab, TOKENS)
        alone = batch_matrix(vocab, TOKENS[2:])
        first = len(TOKENS[0]) + len(TOKENS[1])
        for model, head in ((linear, "any"), (shared, "B")):
            a = model.batch_emissions(whole, [head])[head][first:]
            b = model.batch_emissions(alone, [head])[head]
            assert a.tobytes() == b.tobytes()

    def test_out_of_bounds_id_rejected(self):
        vocab = vocab_for(TOKENS)
        x = batch_matrix(vocab, TOKENS)
        for model in (LinearEmissionModel.zeros(2, 3), TestSharedModel().build(
                np.random.default_rng(92), fc=3)):
            with pytest.raises(ValueError, match="out of bounds"):
                model.batch_emissions(x, ["A"])


class TestEndToEndGradients:
    def check_model(self, rng, model, head, n):
        fs, trans, start, stop, mask = end_to_end_setup(rng, model, head, n)
        grads = end_to_end_grads(model, head, fs, trans, start, stop, mask)
        h = 1e-5
        for name, arr in model.params().items():
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                up = end_to_end_loss(model, head, fs, trans, start, stop, mask)
                arr[idx] = orig - h
                down = end_to_end_loss(model, head, fs, trans, start, stop, mask)
                arr[idx] = orig
                numeric = (up - down) / (2 * h)
                analytic = grads[name][idx]
                denom = max(abs(numeric), abs(analytic), 1.0)
                assert abs(numeric - analytic) / denom < 1e-4, (name, idx)

    def test_linear_model_matches_finite_differences(self):
        rng = np.random.default_rng(90)
        for _ in range(50):
            y, fc, n = int(rng.integers(2, 4)), int(rng.integers(3, 7)), int(rng.integers(1, 5))
            m = LinearEmissionModel(
                rng.normal(scale=0.5, size=(y, fc)), rng.normal(scale=0.5, size=y)
            )
            self.check_model(rng, m, None, n)

    def test_shared_model_matches_finite_differences(self):
        rng = np.random.default_rng(91)
        for trial in range(30):
            fc, hidden = int(rng.integers(3, 6)), int(rng.integers(1, 4))
            m = SharedEmissionModel.create(
                hidden, fc, {"A": int(rng.integers(2, 4)), "B": int(rng.integers(2, 4))}, rng
            )
            for name in m.heads:
                w, b = m.heads[name]
                w += rng.normal(scale=0.5, size=w.shape)
                b += rng.normal(scale=0.5, size=b.shape)
            head = ("A", "B")[trial % 2]
            self.check_model(rng, m, head, int(rng.integers(1, 4)))
