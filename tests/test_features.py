from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from hiertag.crf import LatticeMask
from hiertag.features import (
    FeatureVocabulary,
    LinearEmissionModel,
    SharedEmissionModel,
    emission_backprop,
    emission_cache,
    feature_strings,
    featurize,
    word_shape,
    zero_gradients,
)
from oracles import PotentialTable, loss_and_grad, reference_feature_strings


def rows(token_ids, feature_count: int, values=None) -> sparse.csr_matrix:
    """Feature rows as the scorers take them: row t holds the strictly
    increasing ids token_ids[t], with value 1 each unless values[t] gives them."""
    ids = [np.asarray(t, dtype=np.int64) for t in token_ids]
    data = [np.ones(t.size) for t in ids] if values is None else values
    return sparse.csr_matrix(
        (np.concatenate(data), np.concatenate(ids), np.cumsum([0] + [t.size for t in ids])),
        shape=(len(ids), feature_count),
    )


def random_ids(rng: np.random.Generator, feature_count: int) -> np.ndarray:
    k = int(rng.integers(1, min(5, feature_count) + 1))
    return np.sort(rng.choice(feature_count, size=k, replace=False))


def dense_linear(m: LinearEmissionModel, x: sparse.csr_matrix) -> np.ndarray:
    return x.toarray() @ m.weights + m.bias


def dense_shared(m: SharedEmissionModel, x: sparse.csr_matrix, head: str) -> np.ndarray:
    head_w, head_b = m.heads[head]
    return np.tanh(x.toarray() @ m.weights + m.bias) @ head_w.T + head_b


def per_position(token_lists, window):
    """`featurize` output built from the per-position reference strings."""
    seen: dict[str, int] = {}
    positions, indptr = [], [0]
    for tokens in token_lists:
        for i in range(len(tokens)):
            feats = reference_feature_strings(tokens, i, window)
            positions += [seen.setdefault(s, len(seen)) for s in feats]
            indptr.append(len(positions))
    return list(seen), positions, indptr


def assert_featurize_exact(token_lists, window):
    strings, positions, indptr = featurize(token_lists, window)
    want_strings, want_positions, want_indptr = per_position(token_lists, window)
    assert strings == want_strings
    assert positions.dtype == indptr.dtype == np.int64
    assert positions.tolist() == want_positions
    assert indptr.tolist() == want_indptr


# Non-ASCII case ("İ" lowercases to two characters, "ǅ" is titlecase, "ﬁ"
# uppercases to two), "=" inside tokens, literal boundary markers, digits.
SPECIAL_TOKENS = ["İ", "ß", "ǅ", "ﬁ", "=", "a=b", "w0=x", "<BOS>", "<EOS>", "<bos>",
                  "digit", "3", "B2B", "a", "ab", "abc", "Abcd"]
TOKEN = st.one_of(st.sampled_from(SPECIAL_TOKENS),
                  st.text(alphabet="aZ9=-<>İßǅﬁ", min_size=0, max_size=6))


@st.composite
def token_lists(draw):
    """Sequences that repeat a few tokens, or whose tokens are mostly distinct."""
    pool = draw(st.lists(TOKEN, min_size=1, max_size=4))
    token = draw(st.sampled_from([st.sampled_from(pool), TOKEN]))
    return draw(st.lists(st.lists(token, min_size=0, max_size=9), min_size=0, max_size=5))


class TestTemplates:
    @pytest.mark.parametrize("window", [0, 1, 2, 4])
    def test_featurize_equals_per_position_strings(self, window):
        # "x" and the pair are shorter than the widest window; "İ" lowercases
        # to two characters.
        token_lists = [["x"], ["Alice", "Smith"], "the 3 Visitors saw alice near elm".split(),
                       ["İzmir", "a-1", "B2B"]]
        assert_featurize_exact(token_lists, window)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(token_lists=token_lists(), window=st.integers(0, 4))
    def test_featurize_by_type_equals_per_position(self, token_lists, window):
        assert_featurize_exact(token_lists, window)

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
        # The differing tokens all lie outside the radius-2 window.
        assert feature_strings(a, 2) == feature_strings(b, 2)

    def test_radius_configurable(self):
        feats = feature_strings(["a", "b", "c"], 1, radius=1)
        assert "w+1=c" in feats and "w-1=a" in feats
        assert not any("w+2" in f or "w-2" in f for f in feats)

    def test_determinism_byte_equal(self):
        token_lists = [["Dr.", "Smith", "saw", "12", "patients"], ["x", "Smith"]]
        first, second = featurize(token_lists, 2), featurize(token_lists, 2)
        assert first[0] == second[0]
        assert first[1].tobytes() == second[1].tobytes()
        assert first[2].tobytes() == second[2].tobytes()
        vocab = FeatureVocabulary(["<UNK>", *first[0]])
        xa, xb = vocab.matrix(*first), vocab.matrix(*second)
        for part in ("data", "indices", "indptr"):
            assert getattr(xa, part).tobytes() == getattr(xb, part).tobytes()

    def test_position_bounds(self):
        with pytest.raises(ValueError, match="outside"):
            feature_strings(["a"], 1)


class TestVocabulary:
    def test_ids_from_one_in_insertion_order(self):
        vocab = FeatureVocabulary(["<UNK>", "b", "a"])
        x = vocab.matrix(["b", "a"], np.array([0, 1, 0]), np.array([0, 1, 3]))
        assert vocab.size == 3
        assert x.toarray().tolist() == [[0.0, 1.0, 0.0], [0.0, 1.0, 1.0]]

    def test_frozen_maps_unknown_to_unk(self):
        vocab = FeatureVocabulary(["<UNK>", "a"])
        x = vocab.matrix(["zzz", "a"], np.array([0, 1]), np.array([0, 2]))
        assert x.toarray().tolist() == [[1.0, 1.0]]
        assert vocab.size == 2  # did not grow

    def test_string_table_round_trip(self):
        table = ["<UNK>", "w0=a", "w0=b", "suf1=c"]
        vocab = FeatureVocabulary(table)
        assert vocab.strings_by_id() == table
        again = FeatureVocabulary(vocab.strings_by_id())
        strings, positions, indptr = ["suf1=c", "w0=a", "w0=zzz"], np.arange(3), np.arange(4)
        assert (again.matrix(strings, positions, indptr)
                != vocab.matrix(strings, positions, indptr)).nnz == 0

    def test_unseen_duplicates_accumulate_at_unk(self):
        vocab = FeatureVocabulary(["<UNK>"])
        x = vocab.matrix(["a", "b", "c"], np.arange(3), np.array([0, 3]))
        assert x.indices.tolist() == [0]
        assert x.data.tolist() == [3.0]

    def test_duplicate_strings_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FeatureVocabulary(["<UNK>", "a", "b", "a"])


class TestLinearModel:
    def test_zero_weights_gives_bias(self):
        m = LinearEmissionModel(np.zeros((4, 3)), np.array([1.0, -2.0, 0.5]))
        em, _ = emission_cache(m, rows([[0, 2]], 4), None)
        assert np.allclose(em, [[1.0, -2.0, 0.5]])

    def test_one_hot_feature(self):
        w = np.zeros((5, 2))
        w[3, 1] = 4.0
        m = LinearEmissionModel(w, np.array([0.0, 1.0]))
        em, _ = emission_cache(m, rows([[3]], 5), None)
        assert np.allclose(em, [[0.0, 5.0]])

    def test_matches_dense_product(self):
        rng = np.random.default_rng(70)
        for _ in range(50):
            y, fc, n = int(rng.integers(1, 5)), int(rng.integers(2, 9)), int(rng.integers(1, 4))
            m = LinearEmissionModel(rng.normal(size=(fc, y)), rng.normal(size=y))
            ids = [random_ids(rng, fc) for _ in range(n)]
            x = rows(ids, fc, [rng.uniform(0.5, 2.0, size=t.size) for t in ids])
            em, _ = emission_cache(m, x, None)
            np.testing.assert_allclose(em, dense_linear(m, x), rtol=0, atol=1e-12)

    def test_value_scaling_is_linear(self):
        rng = np.random.default_rng(71)
        m = LinearEmissionModel(rng.normal(size=(6, 3)), rng.normal(size=3))
        em, _ = emission_cache(m, rows([[1, 4], [1, 4]], 6, [np.ones(2), np.full(2, 2.0)]), None)
        lin, doubled = em - m.bias
        assert np.allclose(doubled, 2 * lin, atol=1e-12)

    def test_out_of_bounds_id_rejected(self):
        m = LinearEmissionModel.zeros(2, 3)
        with pytest.raises(ValueError, match="out of bounds"):
            emission_cache(m, rows([[5]], 6), None)

    def test_backprop_zero_input(self):
        m = LinearEmissionModel.zeros(2, 4)
        grads = zero_gradients(m.params())
        _, cache = emission_cache(m, rows([[1], [2, 3]], 4), None)
        cols, block = m.backprop(None, np.zeros((2, 2)), [2], cache, grads)
        assert cols.tolist() == [1, 2, 3] and block.shape == (3, 2)
        assert np.all(block == 0)
        assert all(np.all(g == 0) for g in grads.values())

    def test_backprop_single_feature_linearity(self):
        m = LinearEmissionModel.zeros(2, 4)
        d_em = np.array([[0.5, -0.5], [0.25, 0.75]])
        grads = zero_gradients(m.params())
        _, cache = emission_cache(m, rows([[3], [3]], 4), None)
        cols, block = m.backprop(None, d_em, [1, 1], cache, grads)
        assert cols.tolist() == [3]
        assert np.allclose(block[0], d_em.sum(axis=0))
        assert np.allclose(grads["bias"], d_em.sum(axis=0))

    def test_backprop_shape_mismatch(self):
        m = LinearEmissionModel.zeros(2, 4)
        _, cache = emission_cache(m, rows([[0]], 4), None)
        for d_emissions, lengths in ((np.zeros((1, 3)), [1]), (np.zeros((2, 2)), [2]),
                                     (np.zeros((2, 2)), [1, 1]), (np.zeros((1, 2)), [1, 1])):
            with pytest.raises(ValueError, match="mismatch"):
                m.backprop(None, d_emissions, lengths, cache, zero_gradients(m.params()))


class TestSharedModel:
    def build(self, rng, fc=6, hidden=3, heads=("A", "B"), ys=(2, 3)):
        m = SharedEmissionModel.create(hidden, fc, dict(zip(heads, ys)), rng)
        # non-trivial head weights so gradients flow
        for name in heads:
            w, b = m.heads[name]
            w += rng.normal(scale=0.5, size=w.shape)
            b += rng.normal(scale=0.5, size=b.shape)
        m.bias += rng.normal(scale=0.2, size=m.bias.shape)
        return m

    def test_zero_shared_gives_head_bias(self):
        m = SharedEmissionModel(
            np.zeros((4, 2)), np.zeros(2), {"A": (np.ones((3, 2)), np.array([1.0, 2.0, 3.0]))}
        )
        em, _ = emission_cache(m, rows([[1]], 4), "A")
        assert np.allclose(em, [[1.0, 2.0, 3.0]])

    def test_hidden_dim_one_closed_form(self):
        m = SharedEmissionModel(
            np.array([[0.5], [-0.25]]), np.array([0.1]),
            {"A": (np.array([[2.0], [-1.0]]), np.array([0.0, 0.5]))},
        )
        em, _ = emission_cache(m, rows([[0, 1]], 2, [np.array([1.0, 2.0])]), "A")
        h = math.tanh(0.5 * 1.0 + (-0.25) * 2.0 + 0.1)
        assert np.allclose(em, [[2.0 * h, -1.0 * h + 0.5]], atol=1e-12)

    def test_identity_head_reduces_to_squashed_linear(self):
        rng = np.random.default_rng(80)
        sw = rng.normal(size=(5, 3))
        m = SharedEmissionModel(sw, np.zeros(3), {"A": (np.eye(3), np.zeros(3))})
        x = rows([random_ids(rng, 5)], 5)
        em, _ = emission_cache(m, x, "A")
        assert np.allclose(em, np.tanh(x.toarray() @ sw), atol=1e-12)

    def test_non_finite_parameters_rejected(self):
        head = (np.ones((2, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="finite"):
            SharedEmissionModel(np.full((3, 2), np.nan), np.zeros(2), {"A": head})
        with pytest.raises(ValueError, match="finite"):
            SharedEmissionModel(np.zeros((3, 2)), np.zeros(2), {"A": (head[0], np.full(2, np.inf))})

    def test_unknown_head_rejected(self):
        rng = np.random.default_rng(81)
        m = self.build(rng)
        with pytest.raises(ValueError, match="unknown head"):
            emission_cache(m, rows([[0]], m.feature_count), "C")

    def test_emissions_match_score_rows(self):
        rng = np.random.default_rng(82)
        m = self.build(rng)
        x = rows([random_ids(rng, m.feature_count) for _ in range(4)], m.feature_count)
        for head in ("A", "B"):
            em, (cached_x, hidden) = emission_cache(m, x, head)
            assert hidden.shape == (4, m.hidden_dim)
            assert cached_x is x
            np.testing.assert_allclose(em, dense_shared(m, x, head), rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match="out of bounds"):
            emission_cache(m, rows([[m.feature_count]], m.feature_count + 1), "A")

    def test_backprop_touches_only_active_head(self):
        rng = np.random.default_rng(83)
        m = self.build(rng)
        x = rows([random_ids(rng, m.feature_count) for _ in range(3)], m.feature_count)
        em, cache = emission_cache(m, x, "A")
        grads = zero_gradients(m.params())
        cols, block = m.backprop("A", np.ones_like(em), [len(em)], cache, grads)
        assert cols.tolist() == sorted(set(x.indices.tolist()))
        assert block.shape == (cols.size, m.hidden_dim)
        assert np.all(grads["head:B:weights"] == 0)
        assert np.all(grads["head:B:bias"] == 0)
        assert np.abs(block).sum() > 0


def end_to_end_setup(rng, model, head, n):
    y = (model.heads[head][0].shape[0]
         if isinstance(model, SharedEmissionModel) else model.weights.shape[1])
    fs = rows([random_ids(rng, model.feature_count) for _ in range(n)], model.feature_count)
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
    cols, block = emission_backprop(model, head, g.d_emissions, [len(em)], cache, grads)
    grads[model.sparse_key][cols] += block
    return grads


TOKENS = [
    "Alice Smith walked down Elm Street".split(),
    ["x"],
    "the 3 visitors saw alice near elm".split(),
]


def vocab_for(sequences):
    """The vocabulary of `sequences`' feature strings, built as training builds it."""
    return FeatureVocabulary(["<UNK>", *featurize(sequences, 2)[0]])


def batch_matrix(vocab, token_lists):
    """The feature matrix of `token_lists`, built as a tagging request builds it."""
    return vocab.matrix(*featurize(token_lists, 2))


class TestBatchScoring:
    def test_matrix_rows_equal_vectorized_tokens(self):
        vocab = vocab_for(TOKENS[:1])  # the rest is partly unknown
        x = batch_matrix(vocab, TOKENS)
        ids = {s: i for i, s in enumerate(vocab.strings_by_id()) if i}
        want = [Counter(ids.get(s, 0) for s in reference_feature_strings(t, i, 2))
                for t in TOKENS for i in range(len(t))]
        assert x.shape == (len(want), vocab.size)
        assert want[-1][0] > 0  # some strings of the later tokens are unknown
        for r, counts in enumerate(want):
            got = x[r]
            assert got.indices.tolist() == sorted(counts)
            assert got.data.tolist() == [counts[i] for i in sorted(counts)]

    def scorers(self, rng, vocab):
        linear = LinearEmissionModel(rng.normal(size=(vocab.size, 3)), rng.normal(size=3))
        shared = TestSharedModel().build(rng, fc=vocab.size)
        return (linear, None), (shared, "A"), (shared, "B")

    def test_training_rows_equal_tagging_rows_bitwise(self):
        # A training batch and a tagging request go through the one forward.
        rng = np.random.default_rng(90)
        vocab = vocab_for(TOKENS)
        x = batch_matrix(vocab, TOKENS[1:])
        for model, head in self.scorers(rng, vocab):
            got, _ = emission_cache(model, x, head)
            assert got.tobytes() == model.emissions(x, [head])[0][head].tobytes()

    def test_both_scorers_match_the_dense_oracles(self):
        rng = np.random.default_rng(93)
        vocab = vocab_for(TOKENS)
        x = batch_matrix(vocab, TOKENS)
        for model, head in self.scorers(rng, vocab):
            want = dense_linear(model, x) if head is None else dense_shared(model, x, head)
            np.testing.assert_allclose(emission_cache(model, x, head)[0], want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(model.emissions(x, [head])[0][head], want,
                                       rtol=0, atol=1e-12)

    def test_rows_do_not_depend_on_the_batch(self):
        rng = np.random.default_rng(91)
        vocab = vocab_for(TOKENS)
        linear = LinearEmissionModel(rng.normal(size=(vocab.size, 3)), rng.normal(size=3))
        shared = TestSharedModel().build(rng, fc=vocab.size, hidden=16)
        whole = batch_matrix(vocab, TOKENS)
        alone = batch_matrix(vocab, TOKENS[2:])
        first = len(TOKENS[0]) + len(TOKENS[1])
        for model, head in ((linear, "any"), (shared, "B")):
            a = model.emissions(whole, [head])[0][head][first:]
            b = model.emissions(alone, [head])[0][head]
            assert a.tobytes() == b.tobytes()

    def test_out_of_bounds_id_rejected(self):
        vocab = vocab_for(TOKENS)
        x = batch_matrix(vocab, TOKENS)
        for model in (LinearEmissionModel.zeros(2, 3), TestSharedModel().build(
                np.random.default_rng(92), fc=3)):
            with pytest.raises(ValueError, match="out of bounds"):
                model.emissions(x, ["A"])

    def test_negative_id_rejected(self):
        # scipy accepts a negative column id; unchecked, the sparse product
        # would read outside the weights.
        x = rows([[1]], 4)
        x.indices[0] = -1
        rng = np.random.default_rng(94)
        linear = LinearEmissionModel(rng.normal(size=(4, 3)), rng.normal(size=3))
        for model, head in ((linear, None), (TestSharedModel().build(rng, fc=4), "A")):
            with pytest.raises(ValueError, match="feature id -1 out of bounds"):
                emission_cache(model, x, head)
            with pytest.raises(ValueError, match="feature id -1 out of bounds"):
                model.emissions(x, [head])


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
                rng.normal(scale=0.5, size=(fc, y)), rng.normal(scale=0.5, size=y)
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
