from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiertag.crf import (
    LatticeMask,
    PotentialBatch,
    forward_backward,
    loss_and_grad_batch,
    sequence_log_prob,
    viterbi_batch,
)
from hiertag.crf import _posteriors
from oracles import (
    PotentialTable,
    _reference_dense,
    all_path_scores,
    constrained_log_partition,
    log_partition,
    log_partition_backward,
    loss_and_grad,
    oracle_log_partition,
    oracle_marginals,
    oracle_viterbi,
    path_score,
    random_mask,
    random_table,
    reference_loss_and_grad,
    reference_viterbi,
    split_grads,
    term_sum,
    viterbi,
)


def full_mask(n: int, y: int) -> LatticeMask:
    return LatticeMask(np.ones((n, y), dtype=bool))


def zero_table(n: int, y: int) -> PotentialTable:
    return PotentialTable(np.zeros((n, y)), np.zeros((y, y)), np.zeros(y), np.zeros(y))


def marginals(table: PotentialTable, mask: LatticeMask | None = None):
    """Posterior tag probabilities (n, y) of one sequence and its tag-pair
    probabilities summed over positions (y, y), zero outside the mask: the
    posteriors of its batch of one."""
    unary, sums = _posteriors(table, None if mask is None else [mask])[1:]
    return unary, sums[0]


class TestLogPartition:
    def test_uniform_one_position(self):
        assert log_partition(zero_table(1, 2)) == pytest.approx(math.log(2), abs=1e-12)

    def test_uniform_two_positions(self):
        assert log_partition(zero_table(2, 2)) == pytest.approx(math.log(4), abs=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            t = random_table(rng, int(rng.integers(1, 7)), int(rng.integers(1, 6)))
            assert log_partition(t) == pytest.approx(oracle_log_partition(t), abs=1e-8)

    def test_masked_matches_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n, y = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            t = random_table(rng, n, y)
            m = random_mask(rng, n, y)
            assert constrained_log_partition(t, m) == pytest.approx(
                oracle_log_partition(t, m), abs=1e-8
            )

    def test_full_mask_equals_unmasked(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n, y = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            t = random_table(rng, n, y)
            assert constrained_log_partition(t, full_mask(n, y)) == pytest.approx(
                log_partition(t), abs=1e-9
            )

    def test_singleton_mask_is_path_score(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n, y = int(rng.integers(1, 7)), int(rng.integers(2, 6))
            t = random_table(rng, n, y)
            path = [int(v) for v in rng.integers(0, y, size=n)]
            m = LatticeMask([[p] for p in path])
            assert constrained_log_partition(t, m) == pytest.approx(
                path_score(t, path), abs=1e-9
            )

    def test_masked_never_exceeds_full(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            n, y = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            t = random_table(rng, n, y)
            m = random_mask(rng, n, y)
            assert constrained_log_partition(t, m) <= log_partition(t) + 1e-12

    def test_forward_backward_agree(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            n, y = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            t = random_table(rng, n, y)
            assert log_partition(t) == pytest.approx(log_partition_backward(t), abs=1e-9)
            m = random_mask(rng, n, y)
            assert constrained_log_partition(t, m) == pytest.approx(
                log_partition_backward(t, m), abs=1e-9
            )

    def test_emission_shift_moves_partition_by_constant(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            n, y = int(rng.integers(2, 7)), int(rng.integers(1, 6))
            t = random_table(rng, n, y)
            m = random_mask(rng, n, y)
            i = int(rng.integers(0, n))
            c = float(rng.uniform(-3, 3))
            em = t.emissions.copy()
            em[i] += c
            shifted = PotentialTable(em, t.transitions, t.start, t.stop)
            assert log_partition(shifted) == pytest.approx(log_partition(t) + c, abs=1e-9)
            loss0, _ = loss_and_grad(t, m)
            loss1, _ = loss_and_grad(shifted, m)
            assert loss1 == pytest.approx(loss0, abs=1e-9)

    def test_long_sequence_stays_finite(self):
        rng = np.random.default_rng(27)
        t = random_table(rng, 400, 8, scale=30.0)
        assert math.isfinite(log_partition(t))
        m = random_mask(rng, 400, 8)
        assert math.isfinite(constrained_log_partition(t, m))


class TestMarginals:
    def test_zero_potentials_uniform(self):
        unary, _ = marginals(zero_table(3, 4))
        assert np.allclose(unary, 0.25, atol=1e-12)

    def test_singleton_mask_one_hot(self):
        rng = np.random.default_rng(30)
        t = random_table(rng, 4, 3)
        m = LatticeMask([[2], [0], [1], [0]])
        unary, _ = marginals(t, m)
        expect = np.zeros((4, 3))
        for i, j in enumerate([2, 0, 1, 0]):
            expect[i, j] = 1.0
        assert np.allclose(unary, expect, atol=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n, y = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            t = random_table(rng, n, y)
            for m in (None, random_mask(rng, n, y)):
                unary, sums = marginals(t, m)
                ou, op = oracle_marginals(t, m)
                assert np.allclose(unary, ou, atol=1e-8)
                assert np.allclose(sums, op.sum(axis=0), atol=1e-8)

    def test_rows_sum_to_one_and_consistency(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            n, y = int(rng.integers(2, 7)), int(rng.integers(1, 6))
            t = random_table(rng, n, y)
            for m in (None, random_mask(rng, n, y)):
                unary, sums = marginals(t, m)
                assert np.allclose(unary.sum(axis=1), 1.0, atol=1e-9)
                assert sums.sum() == pytest.approx(n - 1, abs=1e-9)
                assert np.allclose(sums.sum(axis=1), unary[:-1].sum(axis=0), atol=1e-9)
                assert np.allclose(sums.sum(axis=0), unary[1:].sum(axis=0), atol=1e-9)


class TestLossAndGrad:
    def test_full_mask_gives_zero(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            n, y = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            t = random_table(rng, n, y)
            loss, g = loss_and_grad(t, full_mask(n, y))
            assert abs(loss) < 1e-12
            for arr in (g.d_emissions, g.d_transitions, g.d_start, g.d_stop):
                assert np.abs(arr).max() < 1e-12

    def test_hand_computed_single_position(self):
        t = zero_table(1, 2)
        loss, g = loss_and_grad(t, LatticeMask([[0]]))
        assert loss == pytest.approx(math.log(2), abs=1e-12)
        assert np.allclose(g.d_emissions, [[-0.5, 0.5]], atol=1e-12)
        assert np.allclose(g.d_start, [-0.5, 0.5], atol=1e-12)
        assert np.allclose(g.d_stop, [-0.5, 0.5], atol=1e-12)

    def test_loss_is_partition_gap_and_nonnegative(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n, y = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            t = random_table(rng, n, y)
            m = random_mask(rng, n, y)
            loss, _ = loss_and_grad(t, m)
            assert loss >= -1e-12
            gap = log_partition(t) - constrained_log_partition(t, m)
            assert loss == pytest.approx(gap, abs=1e-10)

    def test_single_path_mask_is_negative_log_prob(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n, y = int(rng.integers(1, 6)), int(rng.integers(2, 5))
            t = random_table(rng, n, y)
            path = [int(v) for v in rng.integers(0, y, size=n)]
            loss, _ = loss_and_grad(t, LatticeMask([[p] for p in path]))
            assert loss == pytest.approx(-sequence_log_prob(t, path), abs=1e-9)

    def test_emission_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n, y = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            t = random_table(rng, n, y)
            _, g = loss_and_grad(t, random_mask(rng, n, y))
            assert np.allclose(g.d_emissions.sum(axis=1), 0.0, atol=1e-9)
            assert g.d_start.sum() == pytest.approx(0.0, abs=1e-9)
            assert g.d_stop.sum() == pytest.approx(0.0, abs=1e-9)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(44)
        h = 1e-5
        for _ in range(100):
            n, y = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            t = random_table(rng, n, y)
            m = random_mask(rng, n, y)
            _, g = loss_and_grad(t, m)
            parts = {
                "emissions": (t.emissions, g.d_emissions),
                "transitions": (t.transitions, g.d_transitions),
                "start": (t.start, g.d_start),
                "stop": (t.stop, g.d_stop),
            }
            for name, (arr, grad) in parts.items():
                for idx in np.ndindex(arr.shape):
                    def loss_at(v: float) -> float:
                        fields = {
                            "emissions": t.emissions.copy(),
                            "transitions": t.transitions.copy(),
                            "start": t.start.copy(),
                            "stop": t.stop.copy(),
                        }
                        fields[name][idx] = v
                        return loss_and_grad(PotentialTable(**fields), m)[0]

                    numeric = (loss_at(arr[idx] + h) - loss_at(arr[idx] - h)) / (2 * h)
                    denom = max(abs(numeric), abs(grad[idx]), 1.0)
                    assert abs(numeric - grad[idx]) / denom < 1e-4


class TestViterbi:
    def test_decoupled_positions(self):
        rng = np.random.default_rng(50)
        em = rng.uniform(-1, 1, size=(6, 4))
        t = PotentialTable(em, np.zeros((4, 4)), np.zeros(4), np.zeros(4))
        path, _ = viterbi(t)
        assert path == list(np.argmax(em, axis=1))

    def test_all_zero_potentials_gives_zero_path(self):
        path, score = viterbi(zero_table(5, 3))
        assert path == [0] * 5
        assert score == 0.0

    def test_matches_enumeration_when_tie_free(self):
        rng = np.random.default_rng(51)
        checked = 0
        for _ in range(200):
            n, y = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            t = random_table(rng, n, y)
            _, scores = all_path_scores(t)
            top = np.sort(scores)[-2:]
            if len(scores) > 1 and top[1] - top[0] < 1e-9:
                continue
            checked += 1
            path, score = viterbi(t)
            opath, oscore = oracle_viterbi(t)
            assert path == opath
            assert score == pytest.approx(oscore, abs=1e-9)
        assert checked > 150

    def test_tie_break_matches_backpointer_oracle(self):
        # Integer-valued potentials force exact ties.
        rng = np.random.default_rng(52)
        for _ in range(200):
            n, y = int(rng.integers(1, 5)), int(rng.integers(2, 4))
            t = PotentialTable(
                rng.integers(0, 2, size=(n, y)).astype(float),
                rng.integers(0, 2, size=(y, y)).astype(float),
                rng.integers(0, 2, size=y).astype(float),
                rng.integers(0, 2, size=y).astype(float),
            )
            path, score = viterbi(t)
            opath, oscore = oracle_viterbi(t)
            assert path == opath
            assert score == oscore

    def test_score_matches_path_score(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            t = random_table(rng, int(rng.integers(1, 7)), int(rng.integers(1, 6)))
            path, score = viterbi(t)
            assert score == pytest.approx(path_score(t, path), abs=1e-9)


class TestSequenceLogProb:
    def test_single_position_uniform(self):
        t = zero_table(1, 2)
        assert sequence_log_prob(t, [0]) == pytest.approx(math.log(0.5), abs=1e-12)
        assert sequence_log_prob(t, [1]) == pytest.approx(math.log(0.5), abs=1e-12)
        # A plain batch of one sequence is scored the same.
        batch = PotentialBatch(t.emissions, [1], t.transitions, t.start, t.stop)
        assert sequence_log_prob(batch, [1]) == sequence_log_prob(t, [1])

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(60)
        for _ in range(30):
            n, y = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            t = random_table(rng, n, y)
            paths, _ = all_path_scores(t)
            total = sum(math.exp(sequence_log_prob(t, p.tolist())) for p in paths)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_always_nonpositive_and_viterbi_maximal(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            n, y = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            t = random_table(rng, n, y)
            vpath, _ = viterbi(t)
            vlp = sequence_log_prob(t, vpath)
            assert vlp <= 1e-12
            paths, _ = all_path_scores(t)
            for p in paths:
                assert sequence_log_prob(t, p.tolist()) <= vlp + 1e-9

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length"):
            sequence_log_prob(zero_table(3, 2), [0, 1])


class TestValidation:
    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError, match="emissions"):
            PotentialTable(np.zeros((0, 2)), np.zeros((2, 2)), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="transitions"):
            PotentialTable(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="start"):
            PotentialTable(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(3), np.zeros(2))

    def test_nonfinite_rejected(self):
        em = np.zeros((2, 2))
        em[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            PotentialTable(em, np.zeros((2, 2)), np.zeros(2), np.zeros(2))
        em[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            PotentialTable(em, np.zeros((2, 2)), np.zeros(2), np.zeros(2))

    def test_empty_mask_position_rejected(self):
        with pytest.raises(ValueError, match="no tags"):
            LatticeMask([[0], []])

    def test_negative_mask_index_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            LatticeMask([[0], [-1]])

    @pytest.mark.parametrize("bad", [1.7, 0.5, np.inf, np.nan, "2"])
    @pytest.mark.parametrize("build, name", [
        (lambda v: PotentialBatch(np.zeros((3, 2)), [1, v], np.zeros((2, 2)), np.zeros(2),
                                  np.zeros(2)), "lengths"),
        (lambda v: LatticeMask([[0], [v]]), "tags of mask position 1"),
        (lambda v: forward_backward(PotentialBatch(np.zeros((3, 2)), [1, 1, 1], np.zeros((2, 2)),
                                                   np.zeros(2), np.zeros(2)), [0, v]),
         "sequence indices"),
    ])
    def test_non_integer_input_rejected(self, build, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be whole numbers"):
            build(bad)
        for whole in (2, 2.0, np.int64(2), np.flatnonzero([0, 0, 1])[0]):
            build(whole)

    def test_mask_length_mismatch_rejected(self):
        t = zero_table(3, 2)
        with pytest.raises(ValueError, match="mask length"):
            constrained_log_partition(t, LatticeMask([[0], [1]]))

    def test_mask_index_out_of_range_rejected(self):
        t = zero_table(2, 2)
        with pytest.raises(ValueError, match="y_count"):
            constrained_log_partition(t, LatticeMask([[0], [5]]))

    def test_sequence_log_prob_rejects_bad_tags(self):
        with pytest.raises(ValueError, match="out of range"):
            sequence_log_prob(zero_table(2, 2), [0, 7])
        batch = PotentialBatch(np.zeros((3, 2)), [1, 2], np.zeros((2, 2)), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="batch of 2 sequences"):
            sequence_log_prob(batch, [0, 1, 0])


@st.composite
def potential_batches(draw):
    """Mixed-length batches (n 1..7, y 1..6); integer-valued potentials
    half the time, so exact ties occur."""
    y = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.integers(1, 7), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = lambda *shape: rng.integers(-1, 2, size=shape).astype(float)  # noqa: E731
    else:
        scale = draw(st.sampled_from([0.5, 2.0, 30.0]))
        values = lambda *shape: rng.uniform(-scale, scale, size=shape)  # noqa: E731
    return PotentialBatch(values(sum(lengths), y), lengths, values(y, y), values(y), values(y))


BATCH_PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)


@st.composite
def masked_batches(draw):
    """A potential batch with one mask per sequence: full, all-singleton,
    partly singleton or random.  A quarter of the batches are narrow
    instead: 1-3 sequences of 1-2 positions over 28-41 tags, each position
    keeping 1-3 of them, so the masked lattices are mostly off-mask nodes
    in tag space."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 3)) == 0:
        y = draw(st.integers(28, 41))
        lengths = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
        em = rng.uniform(-3, 3, size=(sum(lengths), y))
        batch = PotentialBatch(em, lengths, *(rng.uniform(-3, 3, size=s) for s in [(y, y), y, y]))
        return batch, [LatticeMask([rng.choice(y, size=int(rng.integers(1, 4)), replace=False)
                                    for _ in range(n)]) for n in lengths]
    batch = draw(potential_batches())
    y = batch.emissions.shape[1]
    masks = []
    for n in batch.lengths.tolist():
        kind = draw(st.sampled_from(["full", "singleton", "partly", "random"]))
        if kind == "full":
            masks.append(full_mask(n, y))
        elif kind == "singleton":
            masks.append(LatticeMask([[int(t)] for t in rng.integers(0, y, size=n)]))
        elif kind == "partly":
            masks.append(LatticeMask([
                [int(rng.integers(y))] if rng.random() < 0.5 else range(y) for _ in range(n)
            ]))
        else:
            masks.append(random_mask(rng, n, y))
    return batch, masks


GRADIENT_FIELDS = ("d_emissions", "d_transitions", "d_start", "d_stop")


def rows_of(batch, b):
    return slice(batch.offsets[b], batch.offsets[b] + batch.lengths[b])


def table_of(batch, b):
    """Sequence b of the batch on its own."""
    return PotentialTable(batch.emissions[rows_of(batch, b)], batch.transitions, batch.start,
                          batch.stop)


def check_training_kernel(batch, masks) -> None:
    """Check every sequence's loss and gradients against the one-sequence
    reference kernel, bit for bit."""
    losses, *packed = loss_and_grad_batch(batch, masks)
    for b, (mask, got) in enumerate(zip(masks, split_grads(batch, *packed))):
        loss, want = reference_loss_and_grad(table_of(batch, b), mask)
        assert losses[b] == loss
        for name in GRADIENT_FIELDS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestBatchedKernels:
    @BATCH_PROPERTY
    @given(potential_batches())
    def test_viterbi_batch_equals_per_sequence_and_oracle(self, batch):
        paths, scores = viterbi_batch(batch)
        for b in range(batch.size):
            table = table_of(batch, b)
            path, score = viterbi(table)
            assert paths[rows_of(batch, b)].tolist() == path
            assert scores[b] == score
            opath, oscore = oracle_viterbi(table)
            assert path == opath
            assert score == pytest.approx(oscore, abs=1e-9)

    @BATCH_PROPERTY
    @given(potential_batches())
    def test_forward_backward_matches_oracles_bitwise_with_one_sequence_kernels(self, batch):
        log_z, unary = forward_backward(batch)
        for b in range(batch.size):
            table = table_of(batch, b)
            got = unary[rows_of(batch, b)]
            assert log_z[b] == pytest.approx(oracle_log_partition(table), abs=1e-8)
            np.testing.assert_allclose(got, oracle_marginals(table)[0], rtol=0, atol=1e-8)
            # The same arithmetic as the one-sequence kernels, bit for bit.
            assert log_z[b] == log_partition(table)
            assert got.tobytes() == marginals(table)[0].tobytes()
            path, _ = viterbi(table)
            assert sequence_log_prob(table, path) == path_score(table, path) - log_z[b]

    @BATCH_PROPERTY
    @given(masked_batches())
    def test_training_kernel_equals_per_sequence_kernel_and_oracles(self, case):
        batch, masks = case
        losses, *packed = loss_and_grad_batch(batch, masks)
        # A loss and a (y, y) block per sequence; emission gradients packed like the rows.
        y, size = batch.emissions.shape[1], batch.size
        shapes = [(size,), batch.emissions.shape, (size, y, y)]
        assert [(a.shape, a.dtype) for a in (losses, *packed)] == [(s, np.float64) for s in shapes]
        for b, (mask, got) in enumerate(zip(masks, split_grads(batch, *packed))):
            table = table_of(batch, b)
            # Bit for bit the one-sequence reference kernel.
            loss, want = reference_loss_and_grad(table, mask)
            assert losses[b] == loss
            for name in GRADIENT_FIELDS:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            # And the brute-force oracles.
            full_u, full_p = oracle_marginals(table)
            part_u, part_p = oracle_marginals(table, mask)
            gap = oracle_log_partition(table) - oracle_log_partition(table, mask)
            assert losses[b] == pytest.approx(gap, abs=1e-9)
            expect = {
                "d_emissions": full_u - part_u,
                "d_transitions": full_p.sum(axis=0) - part_p.sum(axis=0),
                "d_start": full_u[0] - part_u[0],
                "d_stop": full_u[-1] - part_u[-1],
            }
            for name, value in expect.items():
                np.testing.assert_allclose(getattr(got, name), value, rtol=0, atol=1e-9)

    def test_training_kernel_on_masks_wider_than_seven_tags(self):
        # numpy sums eight or more contiguous terms pairwise; every node sum
        # here adds its terms one after another whatever the mask's width,
        # also where a wide position steps into a pinned one.
        rng = np.random.default_rng(71)
        for _ in range(150):
            y = int(rng.integers(8, 14))
            lengths = rng.integers(1, 12, size=int(rng.integers(1, 6)))
            batch = PotentialBatch(rng.uniform(-3, 3, (lengths.sum(), y)), lengths,
                                   rng.uniform(-3, 3, (y, y)), rng.uniform(-3, 3, y),
                                   rng.uniform(-3, 3, y))
            check_training_kernel(batch, [random_mask(rng, n, y) for n in lengths.tolist()])

    def test_long_wide_batches_equal_per_sequence_kernels(self):
        # Sequences of up to 60 tokens over up to 41 tags, so each
        # sequence's transition sums add up to 59 positions; lengths are
        # mixed and sometimes tied.  The last cases are one sequence over
        # one tag, whose transition sum reduces into one element; their
        # potentials are small, so its terms carry the low bits that a
        # summation order rounds differently.
        rng = np.random.default_rng(72)
        kinds = ("full", "singleton", "partly", "random", "wide")
        for case in range(50):
            if case < 40:
                y, scale = int(rng.choice([1, 2, 3, 5, 8, 9, 13, 21, 41])), 3.0
                lengths = rng.integers(1, 61, size=int(rng.integers(1, 9)))
            else:
                y, scale, lengths = 1, 0.5, rng.integers(9, 61, size=1)
            if case % 3 == 0:
                lengths[rng.integers(lengths.size)] = lengths[0]
            values = lambda *shape: rng.uniform(-scale, scale, size=shape)  # noqa: E731
            batch = PotentialBatch(values(lengths.sum(), y), lengths, values(y, y), values(y),
                                   values(y))
            masks = []
            for n in lengths.tolist():
                kind = kinds[int(rng.integers(len(kinds)))]
                if kind == "full":
                    masks.append(full_mask(n, y))
                elif kind == "singleton":
                    masks.append(LatticeMask([[int(t)] for t in rng.integers(0, y, size=n)]))
                elif kind == "partly":
                    masks.append(LatticeMask([
                        [int(rng.integers(y))] if rng.random() < 0.5 else range(y)
                        for _ in range(n)
                    ]))
                elif kind == "random":
                    masks.append(random_mask(rng, n, y))
                else:  # eight or more tags wherever y allows it
                    masks.append(LatticeMask([
                        rng.choice(y, size=int(rng.integers(min(8, y), y + 1)), replace=False)
                        for _ in range(n)
                    ]))
            check_training_kernel(batch, masks)
            paths, scores = viterbi_batch(batch)
            log_z, unary = forward_backward(batch)
            for b in range(batch.size):
                table = table_of(batch, b)
                path, score = viterbi(table)
                assert paths[rows_of(batch, b)].tolist() == path
                assert scores[b] == score
                assert log_z[b] == log_partition(table)
                assert unary[rows_of(batch, b)].tobytes() == marginals(table)[0].tobytes()

    @pytest.mark.parametrize("y", [1, 2, 5, 7, 8, 9, 33, 41])
    def test_decode_kernels_equal_one_sequence_references_bitwise(self, y):
        # Oracles with their own one-sequence (y, y) recursions, not the
        # batch kernels run on a batch of one.  Integer-valued potentials
        # make ties, and batches of up to 300 mixed lengths.  From eight
        # tags on, real-valued batches of one sequence, whose end sum
        # reduces into one element: one to three positions long, so that
        # the sum's last bit still reaches the log-partition.
        rng = np.random.default_rng(80 + y)
        integers = lambda *shape: rng.integers(-3, 4, size=shape).astype(float)  # noqa: E731
        reals = lambda *shape: rng.uniform(-0.5, 0.5, size=shape)  # noqa: E731
        cases = [(1, 60, integers), (int(rng.integers(2, 40)), 60, integers), (300, 60, integers)]
        for size, longest, values in cases + [(1, 3, reals)] * (40 if y >= 8 else 0):
            lengths = rng.integers(1, longest + 1, size=size)
            batch = PotentialBatch(values(lengths.sum(), y), lengths, values(y, y), values(y),
                                   values(y))
            paths, scores = viterbi_batch(batch)
            log_z, unary = forward_backward(batch)
            want = [_reference_dense(table_of(batch, b))[:2] for b in range(size)]
            for b in range(size):
                path, score = reference_viterbi(table_of(batch, b))
                assert paths[rows_of(batch, b)].tolist() == path
                assert scores[b] == score
                assert log_z[b] == want[b][0]
                assert unary[rows_of(batch, b)].tobytes() == want[b][1].tobytes()
            seqs = rng.permutation(size)[: int(rng.integers(1, size + 1))]
            sub_log_z, sub_unary = forward_backward(batch, seqs)
            first = np.cumsum(lengths[seqs]) - lengths[seqs]
            for j, b in enumerate(seqs.tolist()):
                assert sub_log_z[j] == want[b][0]
                got = sub_unary[first[j] : first[j] + lengths[b]]
                assert got.tobytes() == want[b][1].tobytes()

    def test_training_kernel_rejects_masks_that_do_not_fit(self):
        batch = PotentialBatch(np.zeros((5, 2)), [2, 3], np.zeros((2, 2)), np.zeros(2),
                               np.zeros(2))
        with pytest.raises(ValueError, match="masks for"):
            loss_and_grad_batch(batch, [full_mask(2, 2)])
        with pytest.raises(ValueError, match="mask length"):
            loss_and_grad_batch(batch, [full_mask(2, 2), full_mask(2, 2)])
        with pytest.raises(ValueError, match="y_count"):
            loss_and_grad_batch(batch, [full_mask(2, 2), LatticeMask([[0], [1], [2]])])

    @pytest.mark.parametrize("seqs", [[2, 0], [1], [0, 1, 2], [2, 1, 0], [1, 3]])
    def test_forward_backward_of_chosen_sequences_equals_whole_batch(self, seqs):
        rng = np.random.default_rng(70)
        batch = PotentialBatch(rng.normal(size=(12, 3)), [2, 4, 3, 3], rng.normal(size=(3, 3)),
                               np.zeros(3), np.zeros(3))
        log_z, unary = forward_backward(batch)
        sub_log_z, sub_unary = forward_backward(batch, np.array(seqs))
        assert sub_log_z.tobytes() == log_z[seqs].tobytes()
        rows = np.concatenate([np.arange(12)[rows_of(batch, b)] for b in seqs])
        assert sub_unary.tobytes() == unary[rows].tobytes()

    @pytest.mark.parametrize("seqs, match", [([-1], "index -1 is not"), ([1, 3], "index 3 is not"),
                                             ([], "no sequence")])
    def test_forward_backward_rejects_bad_sequence_indices(self, seqs, match):
        batch = PotentialBatch(np.zeros((6, 2)), [1, 2, 3], np.zeros((2, 2)), np.zeros(2),
                               np.zeros(2))
        with pytest.raises(ValueError, match=match):
            forward_backward(batch, seqs)

    @pytest.mark.parametrize(
        "lengths, em, match",
        [
            ([2, 0], np.zeros((2, 2)), "lengths"),
            ([], np.zeros((0, 2)), "lengths"),
            ([2, 2], np.zeros((3, 2)), "add up"),
            ([1], np.array([[np.inf, 0.0]]), "finite"),
        ],
    )
    def test_bad_batches_rejected(self, lengths, em, match):
        with pytest.raises(ValueError, match=match):
            PotentialBatch(em, lengths, np.zeros((2, 2)), np.zeros(2), np.zeros(2))


class TestScaledUnderflow:
    """In scaled space a step 1,000 below the transitions' max weighs
    exp(-1000) = 0.0.  Here only the step 1 -> 0 scores 0, so the full
    lattice of two positions keeps one path of weight 1, while a mask that
    keeps tag 0 first leaves only steps of weight 0."""

    TRANSITIONS = np.array([[-1000.0, -1000.0], [0.0, -1000.0]])

    def batch(self, lengths) -> PotentialBatch:
        return PotentialBatch(np.zeros((sum(lengths), 2)), lengths, self.TRANSITIONS,
                              np.zeros(2), np.zeros(2))

    def test_forward_backward_raises_on_the_lattice_that_underflows(self):
        # The three-position sequence steps twice, so one of its steps
        # weighs 0 on every path; the two-position one does not.
        batch = self.batch([2, 3])
        with pytest.raises(FloatingPointError, match="every path of a lattice underflows"):
            forward_backward(batch)
        log_z, unary = forward_backward(batch, [0])
        assert log_z.tolist() == [0.0]
        assert unary.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_training_kernel_raises_when_a_masked_lattice_underflows(self):
        # The full lattice is finite; the masked one, free at position 1,
        # runs the scaled recursion and has no path of nonzero weight.
        batch = self.batch([2])
        assert forward_backward(batch)[0].tolist() == [0.0]
        with pytest.raises(FloatingPointError, match="every path of a lattice underflows"):
            loss_and_grad_batch(batch, [LatticeMask([[0], [0, 1]])])

    def test_pinned_mask_keeps_its_closed_form_on_an_underflowing_path(self):
        # A pinned mask never runs the scaled recursion: its log-partition
        # is its path's score, however far below the max the path lies.
        batch = self.batch([2])
        losses, d_emissions, d_transitions = loss_and_grad_batch(batch, [LatticeMask([[0], [1]])])
        assert losses.tolist() == [1000.0]
        assert d_emissions.tolist() == [[-1.0, 1.0], [1.0, -1.0]]
        assert d_transitions.tolist() == [[[0.0, -1.0], [1.0, 0.0]]]


class TestEinsumRoute:
    """The scaled recursions' steps and the bitwise pins rest on numpy's
    einsum, without `optimize`, adding its terms one after another and
    computing each row on its own.  This says so in numpy's terms, on the
    versions the package supports, before a pin fails on the bits."""

    def test_einsum_adds_term_after_term_row_by_row(self):
        # A forward step, "kw,wv->kv"; the backward step is the same form
        # over the transposed transitions.
        rng = np.random.default_rng(90)
        spec = "kw,wv->kv"
        for w in range(1, 42):
            for k in (1, 3, 8, 60):
                # Node weights in [0, 1], a third of them exact zeros.
                a = rng.random((k, w)) * (rng.random((k, w)) < 0.67)
                tr = rng.random((w, w))
                where = f"numpy {np.__version__}: np.einsum({spec!r}) at W={w}, k={k}"
                got = np.einsum(spec, a, tr)
                assert got.tobytes() == term_sum(a[:, :, None] * tr, 1).tobytes(), (
                    f"{where} does not add its terms one after another")
                out = np.empty_like(got)
                np.einsum(spec, a, tr, out=out)
                assert out.tobytes() == got.tobytes(), f"{where} differs with out="
                i = int(rng.integers(k))
                alone = np.einsum(spec, a[i : i + 1], tr)
                assert alone.tobytes() == got[i : i + 1].tobytes(), (
                    f"{where}: row {i} computed alone differs from the same row in the batch")

    def test_time_einsum_adds_term_after_term_per_sequence(self):
        # `_lattice_posteriors`' transition sums: alpha (T, B, W) times the
        # transitions times the next gamma, added over time, one sum per
        # lattice b.
        rng = np.random.default_rng(91)
        spec = "tbw,wv,tbv->bwv"
        for t in (1, 2, 7, 40, 300):
            for b in (1, 3, 8, 16):
                for w in range(1, 42):
                    # Node weights in [0, 1], a third of them exact zeros.
                    alpha, gamma = (rng.random((t, b, w)) * (rng.random((t, b, w)) < 0.67)
                                    for _ in range(2))
                    tr = rng.random((w, w))
                    where = f"numpy {np.__version__}: np.einsum({spec!r}) at T={t}, B={b}, W={w}"
                    got = np.einsum(spec, alpha[:-1], tr, gamma[1:])
                    for j in range(b):
                        terms = alpha[:-1, j, :, None] * tr * gamma[1:, j, None, :]
                        assert got[j].tobytes() == term_sum(terms, 0).tobytes(), (
                            f"{where} does not add its terms one after another")
                    j = int(rng.integers(b))
                    alone = np.einsum(spec, alpha[:, j : j + 1].copy()[:-1], tr,
                                      gamma[:, j : j + 1].copy()[1:])
                    assert alone.tobytes() == got[j : j + 1].tobytes(), (
                        f"{where}: lattice {j} computed alone differs from the same one in the batch")


@st.composite
def keep_matrices(draw):
    """Bool keep matrices (n 1..7, y 1..12) whose rows each keep every tag,
    one tag, or a random non-empty subset."""
    n, y = draw(st.integers(1, 7)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = np.zeros((n, y), dtype=bool)
    for row in keep:
        kind = draw(st.sampled_from(["full", "singleton", "random"]))
        size = {"full": y, "singleton": 1, "random": int(rng.integers(1, y + 1))}[kind]
        row[rng.choice(y, size=size, replace=False)] = True
    return keep


class TestLatticeMaskKeepRows:
    @BATCH_PROPERTY
    @given(keep_matrices())
    def test_keep_rows_equal_index_lists(self, keep):
        got = LatticeMask(keep)
        want = LatticeMask([np.flatnonzero(r) for r in keep])
        np.testing.assert_array_equal(got.keep, keep)
        # The list-built mask spans up to its highest allowed tag; past it, nothing.
        span = want.keep.shape[1]
        np.testing.assert_array_equal(want.keep, keep[:, :span])
        assert keep[:, span - 1].any() and not keep[:, span:].any()
        assert len(got.allowed) == len(want.allowed) == len(keep)
        for a, b, row in zip(got.allowed, want.allowed, keep):
            np.testing.assert_array_equal(a, np.flatnonzero(row))
            np.testing.assert_array_equal(b, np.flatnonzero(row))

    def test_empty_keep_row_rejected(self):
        with pytest.raises(ValueError, match="position 1 allows no tags"):
            LatticeMask(np.array([[True, False], [False, False]]))
