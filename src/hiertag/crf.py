"""Linear-chain CRF lattice algorithms in log-space.

Everything here is a pure function of a PotentialTable (per-position emission
scores plus transition/start/stop scores) and an optional LatticeMask that
restricts each position to a subset of tags.  The loss is the gap between the
full and the masked log-partition, so its gradients are differences of
posterior expectations.  All recursions use max-shifted log-sum-exp; finite
inputs always produce finite outputs.

Decoding runs on a PotentialBatch: many sequences of one head, their emission
rows packed back to back.  Each step of a batched recursion works on the
sequences still running, with the elementwise arithmetic of the one-sequence
recursion, so a sequence's result does not depend on the batch around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


def logsumexp(a: np.ndarray, axis: int | None = None):
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))
    if axis is None:
        return out.item()
    return np.squeeze(out, axis=axis)


@dataclass
class PotentialTable:
    """Log-potentials for one sequence: emissions (n, y), transitions (y, y),
    start (y,), stop (y,)."""

    emissions: np.ndarray
    transitions: np.ndarray
    start: np.ndarray
    stop: np.ndarray

    def __post_init__(self) -> None:
        _check_potentials(self)

    @property
    def n(self) -> int:
        return self.emissions.shape[0]

    @property
    def y_count(self) -> int:
        return self.emissions.shape[1]


def _check_potentials(p: PotentialTable | PotentialBatch) -> None:
    """Convert to float64 in place and require consistent shapes and finite values."""
    for name in ("emissions", "transitions", "start", "stop"):
        setattr(p, name, np.asarray(getattr(p, name), dtype=np.float64))
    if p.emissions.ndim != 2 or p.emissions.shape[0] < 1:
        raise ValueError("emissions must be (n, y_count) with n >= 1")
    y = p.emissions.shape[1]
    if y < 1:
        raise ValueError("y_count must be >= 1")
    if p.transitions.shape != (y, y):
        raise ValueError("transitions must be (y_count, y_count)")
    if p.start.shape != (y,) or p.stop.shape != (y,):
        raise ValueError("start and stop must be (y_count,)")
    for arr in (p.emissions, p.transitions, p.start, p.stop):
        if not np.isfinite(arr).all():
            raise ValueError("potentials must be finite")


@dataclass
class PotentialBatch:
    """Log-potentials for B sequences of one head: the emission rows of every
    sequence back to back (sum of lengths, y), per-sequence lengths (B,), and
    the transitions, start and stop they share."""

    emissions: np.ndarray
    lengths: np.ndarray
    transitions: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    offsets: np.ndarray = field(init=False, repr=False)  # first row of each sequence

    def __post_init__(self) -> None:
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        if self.lengths.ndim != 1 or self.lengths.size < 1 or self.lengths.min() < 1:
            raise ValueError("lengths must be a non-empty 1-d array of values >= 1")
        _check_potentials(self)
        if int(self.lengths.sum()) != self.emissions.shape[0]:
            raise ValueError("lengths must add up to the number of emission rows")
        self.offsets = np.concatenate(([0], np.cumsum(self.lengths[:-1])))

    @property
    def size(self) -> int:
        return self.lengths.size

    def table(self, b: int) -> PotentialTable:
        """Sequence b on its own."""
        rows = self.emissions[self.offsets[b] : self.offsets[b] + self.lengths[b]]
        return PotentialTable(rows, self.transitions, self.start, self.stop)

    def select(self, seqs: np.ndarray) -> "PotentialBatch":
        """The batch of the given sequences, in that order."""
        rows = np.concatenate([np.arange(self.offsets[b], self.offsets[b] + self.lengths[b])
                               for b in seqs])
        return PotentialBatch(self.emissions[rows], self.lengths[seqs], self.transitions,
                              self.start, self.stop)

    def schedule(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sequences longest first: their order, their first rows, and for each
        position i the number of them still running at i (a prefix, since
        they are sorted)."""
        order = np.argsort(-self.lengths, kind="stable")
        running = np.searchsorted(-self.lengths[order], -np.arange(self.lengths.max()), "left")
        return order, self.offsets[order], running


class LatticeMask:
    """Per-position allowed tag indices.  Every position keeps at least one."""

    def __init__(self, allowed: Iterable[Iterable[int]]) -> None:
        self.allowed: tuple[np.ndarray, ...] = tuple(
            np.unique(np.asarray(list(a), dtype=np.int64)) for a in allowed
        )
        for i, idx in enumerate(self.allowed):
            if idx.size == 0:
                raise ValueError(f"mask position {i} allows no tags")
            if idx[0] < 0:
                raise ValueError(f"mask position {i} has a negative tag index")
        # An all-singleton mask pins a unique path; recursions collapse to it.
        self.singleton_path: np.ndarray | None = None
        if all(idx.size == 1 for idx in self.allowed):
            self.singleton_path = np.concatenate(self.allowed)

    @classmethod
    def full(cls, n: int, y_count: int) -> "LatticeMask":
        return cls([range(y_count)] * n)

    def __len__(self) -> int:
        return len(self.allowed)

    def validate_for(self, table: PotentialTable) -> None:
        if len(self.allowed) != table.n:
            raise ValueError(
                f"mask length {len(self.allowed)} != sequence length {table.n}"
            )
        for i, idx in enumerate(self.allowed):
            if idx[-1] >= table.y_count:
                raise ValueError(
                    f"mask position {i} allows tag {int(idx[-1])} "
                    f">= y_count {table.y_count}"
                )


@dataclass
class LatticeGradients:
    """d(loss)/d(potential) for every PotentialTable entry."""

    d_emissions: np.ndarray
    d_transitions: np.ndarray
    d_start: np.ndarray
    d_stop: np.ndarray


def _posteriors_dense(table: PotentialTable):
    em, trans = table.emissions, table.transitions
    n, y = em.shape

    alpha = np.empty((n, y))
    prev = table.start + em[0]
    alpha[0] = prev
    for i in range(1, n):
        step = prev[:, None] + trans
        m = step.max(axis=0)
        prev = m + np.log(np.exp(step - m).sum(axis=0)) + em[i]
        alpha[i] = prev
    last = prev + table.stop
    m = last.max()
    log_z = float(m + np.log(np.exp(last - m).sum()))

    beta = np.empty((n, y))
    prev = table.stop
    beta[-1] = prev
    for i in range(n - 2, -1, -1):
        step = trans + (em[i + 1] + prev)[None, :]
        m = step.max(axis=1)
        prev = m + np.log(np.exp(step - m[:, None]).sum(axis=1))
        beta[i] = prev

    unary = np.exp(alpha + beta - log_z)
    pairwise = np.exp(
        alpha[: n - 1, :, None]
        + trans[None, :, :]
        + (em[1:] + beta[1:])[:, None, :]
        - log_z
    )
    return log_z, unary, pairwise


def _pinned_posteriors(table: PotentialTable, path: np.ndarray):
    n, y = table.emissions.shape
    log_z = sequence_score(table, path)
    unary = np.zeros((n, y))
    unary[np.arange(n), path] = 1.0
    pairwise = np.zeros((max(n - 1, 0), y, y))
    pairwise[np.arange(n - 1), path[:-1], path[1:]] = 1.0
    return log_z, unary, pairwise


def _posteriors_masked(table: PotentialTable, mask: LatticeMask):
    if mask.singleton_path is not None:
        return _pinned_posteriors(table, mask.singleton_path)
    em, trans = table.emissions, table.transitions
    n, y = em.shape
    idx = mask.allowed
    blocks = [trans[idx[i][:, None], idx[i + 1]] for i in range(n - 1)]

    alphas: list[np.ndarray] = [table.start[idx[0]] + em[0, idx[0]]]
    for i in range(1, n):
        step = alphas[i - 1][:, None] + blocks[i - 1]
        m = step.max(axis=0)
        alphas.append(m + np.log(np.exp(step - m).sum(axis=0)) + em[i, idx[i]])
    last = alphas[-1] + table.stop[idx[-1]]
    m = last.max()
    log_z = float(m + np.log(np.exp(last - m).sum()))

    betas: list[np.ndarray] = [np.empty(0)] * n
    betas[-1] = table.stop[idx[-1]]
    for i in range(n - 2, -1, -1):
        step = blocks[i] + (em[i + 1, idx[i + 1]] + betas[i + 1])[None, :]
        m = step.max(axis=1)
        betas[i] = m + np.log(np.exp(step - m[:, None]).sum(axis=1))

    unary = np.zeros((n, y))
    for i in range(n):
        unary[i, idx[i]] = np.exp(alphas[i] + betas[i] - log_z)
    pairwise = np.zeros((max(n - 1, 0), y, y))
    for i in range(n - 1):
        block = np.exp(
            alphas[i][:, None]
            + blocks[i]
            + (em[i + 1, idx[i + 1]] + betas[i + 1])[None, :]
            - log_z
        )
        pairwise[i][idx[i][:, None], idx[i + 1]] = block
    return log_z, unary, pairwise


def _posteriors(table: PotentialTable, mask: LatticeMask | None):
    if mask is None:
        return _posteriors_dense(table)
    mask.validate_for(table)
    return _posteriors_masked(table, mask)


def log_partition(table: PotentialTable, mask: LatticeMask | None = None) -> float:
    """Log of the summed exp-scores of all (mask-compatible) tag sequences."""
    em, trans = table.emissions, table.transitions
    n = table.n
    if mask is None:
        alpha = table.start + em[0]
        for i in range(1, n):
            step = alpha[:, None] + trans
            m = step.max(axis=0)
            alpha = m + np.log(np.exp(step - m).sum(axis=0)) + em[i]
        last = alpha + table.stop
        m = last.max()
        return float(m + np.log(np.exp(last - m).sum()))
    mask.validate_for(table)
    if mask.singleton_path is not None:
        return sequence_score(table, mask.singleton_path)
    idx = mask.allowed
    alpha = table.start[idx[0]] + em[0, idx[0]]
    for i in range(1, n):
        step = alpha[:, None] + trans[idx[i - 1][:, None], idx[i]]
        m = step.max(axis=0)
        alpha = m + np.log(np.exp(step - m).sum(axis=0)) + em[i, idx[i]]
    last = alpha + table.stop[idx[-1]]
    m = last.max()
    return float(m + np.log(np.exp(last - m).sum()))


def constrained_log_partition(table: PotentialTable, mask: LatticeMask) -> float:
    return log_partition(table, mask)


def log_partition_backward(table: PotentialTable, mask: LatticeMask | None = None) -> float:
    """Same quantity as log_partition, via the backward recursion (cross-check)."""
    em, trans = table.emissions, table.transitions
    n = table.n
    if mask is None:
        beta = table.stop.copy()
        for i in range(n - 2, -1, -1):
            beta = logsumexp(trans + (em[i + 1] + beta)[None, :], axis=1)
        return float(logsumexp(table.start + em[0] + beta))
    mask.validate_for(table)
    idx = mask.allowed
    beta = table.stop[idx[-1]].copy()
    for i in range(n - 2, -1, -1):
        step = trans[np.ix_(idx[i], idx[i + 1])] + (em[i + 1, idx[i + 1]] + beta)[None, :]
        beta = logsumexp(step, axis=1)
    return float(logsumexp(table.start[idx[0]] + em[0, idx[0]] + beta))


def marginals(table: PotentialTable, mask: LatticeMask | None = None):
    """Posterior tag and tag-pair probabilities, zero outside the mask."""
    _, unary, pairwise = _posteriors(table, mask)
    return unary, pairwise


def loss_and_grad(table: PotentialTable, mask: LatticeMask):
    """Gap between full and masked log-partitions, with its gradients.

    The gradient w.r.t. each potential entry is the unconstrained posterior
    expectation of that entry's indicator minus the masked one.
    """
    log_z, unary, pairwise = _posteriors_dense(table)
    log_z_m, unary_m, pairwise_m = _posteriors(table, mask)
    loss = log_z - log_z_m
    grads = LatticeGradients(
        d_emissions=unary - unary_m,
        d_transitions=pairwise.sum(axis=0) - pairwise_m.sum(axis=0),
        d_start=unary[0] - unary_m[0],
        d_stop=unary[-1] - unary_m[-1],
    )
    return loss, grads


def sequence_score(table: PotentialTable, tags: Sequence[int]) -> float:
    if len(tags) != table.n:
        raise ValueError(f"tag sequence length {len(tags)} != n {table.n}")
    t = np.asarray(tags, dtype=np.int64)
    if t.size and (t.min() < 0 or t.max() >= table.y_count):
        raise ValueError("tag index out of range")
    score = table.start[t[0]] + table.emissions[np.arange(table.n), t].sum()
    score += table.transitions[t[:-1], t[1:]].sum() + table.stop[t[-1]]
    return float(score)


def sequence_log_prob(
    table: PotentialTable, tags: Sequence[int], log_z: float | None = None
) -> float:
    """Log-probability of one tag sequence under the full lattice; always <= 0.
    A log_z already computed for this table (see `forward_backward`) is reused."""
    if log_z is None:
        log_z = log_partition(table)
    return sequence_score(table, tags) - log_z


def viterbi(table: PotentialTable) -> tuple[list[int], float]:
    """Highest-scoring tag sequence and its score (`viterbi_batch` of one)."""
    paths, scores = viterbi_batch(
        PotentialBatch(table.emissions, [table.n], table.transitions, table.start, table.stop)
    )
    return paths.tolist(), float(scores[0])


def viterbi_batch(batch: PotentialBatch) -> tuple[np.ndarray, np.ndarray]:
    """Highest-scoring tag sequence of every sequence in the batch: the tags,
    packed like the emission rows, and the scores (B,).

    np.argmax takes the first maximum, so every backpointer decision breaks
    ties toward the lower tag index.
    """
    em, trans = batch.emissions, batch.transitions
    order, first, running = batch.schedule()
    delta = batch.start + em[first]
    back = np.empty(em.shape, dtype=np.int64)
    for i in range(1, running.size):
        k = running[i]
        rows = first[:k] + i
        step = delta[:k, :, None] + trans
        best = np.argmax(step, axis=1)
        back[rows] = best
        delta[:k] = np.take_along_axis(step, best[:, None, :], axis=1)[:, 0] + em[rows]
    delta = delta + batch.stop
    tag = np.argmax(delta, axis=1)
    scores = np.empty(batch.size)
    scores[order] = delta[np.arange(batch.size), tag]
    paths = np.empty(em.shape[0], dtype=np.int64)
    for i in range(running.size - 1, -1, -1):
        if i + 1 < running.size:  # sequences running past i step back to their tag at i
            k = running[i + 1]
            tag[:k] = back[first[:k] + i + 1, tag[:k]]
        paths[first[: running[i]] + i] = tag[: running[i]]
    return paths, scores


def forward_backward(batch: PotentialBatch) -> tuple[np.ndarray, np.ndarray]:
    """Log-partition of every sequence (B,) and the unary marginals, packed
    like the emission rows; the same arithmetic as `log_partition` and
    `marginals` without a mask."""
    em, trans = batch.emissions, batch.transitions
    order, first, running = batch.schedule()
    alpha = np.empty_like(em)
    prev = batch.start + em[first]
    alpha[first] = prev
    for i in range(1, running.size):
        k = running[i]
        rows = first[:k] + i
        step = prev[:k, :, None] + trans
        m = step.max(axis=1)
        prev[:k] = m + np.log(np.exp(step - m[:, None, :]).sum(axis=1)) + em[rows]
        alpha[rows] = prev[:k]
    last = prev + batch.stop
    m = last.max(axis=1)
    log_z = np.empty(batch.size)
    log_z[order] = m + np.log(np.exp(last - m[:, None]).sum(axis=1))

    beta = np.empty_like(em)
    prev = np.repeat(batch.stop[None, :], batch.size, axis=0)
    beta[first + batch.lengths[order] - 1] = prev
    for i in range(running.size - 2, -1, -1):
        k = running[i + 1]  # sequences with a position after i
        step = trans + (em[first[:k] + i + 1] + prev[:k])[:, None, :]
        m = step.max(axis=2)
        prev[:k] = m + np.log(np.exp(step - m[:, :, None]).sum(axis=2))
        beta[first[:k] + i] = prev[:k]
    unary = np.exp(alpha + beta - np.repeat(log_z, batch.lengths)[:, None])
    return log_z, unary
