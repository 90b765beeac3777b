"""Linear-chain CRF lattice algorithms in log-space.

Everything here is a pure function of a PotentialTable (per-position emission
scores plus transition/start/stop scores) and an optional LatticeMask that
restricts each position to a subset of tags.  The loss is the gap between the
full and the masked log-partition, so its gradients are differences of
posterior expectations.  All recursions use max-shifted log-sum-exp; finite
inputs always produce finite outputs.

The kernels run on a PotentialBatch: many sequences of one head, their
emission rows packed back to back.  Each step of a batched recursion works on
the sequences still running, with the elementwise arithmetic of the
one-sequence recursion, so a sequence's result does not depend on the batch
around it.  The one-sequence functions are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


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

    @classmethod
    def of(cls, table: PotentialTable) -> "PotentialBatch":
        """The batch of one sequence."""
        return cls(table.emissions, [table.n], table.transitions, table.start, table.stop)

    @property
    def size(self) -> int:
        return self.lengths.size

    def rows(self, seqs: Sequence[int]) -> np.ndarray:
        """The emission rows of the given sequences, in that order."""
        return np.concatenate(
            [np.arange(self.offsets[b], self.offsets[b] + self.lengths[b]) for b in seqs]
        )

    def select(self, seqs: Sequence[int]) -> "PotentialBatch":
        """The batch of the given sequences, in that order."""
        return PotentialBatch(self.emissions[self.rows(seqs)], self.lengths[seqs],
                              self.transitions, self.start, self.stop)

    def schedule(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sequences longest first: their order, their first rows, and for each
        position i the number of them still running at i (a prefix, since
        they are sorted)."""
        order = np.argsort(-self.lengths, kind="stable")
        running = np.searchsorted(-self.lengths[order], -np.arange(self.lengths.max()), "left")
        return order, self.offsets[order], running


class LatticeMask:
    """Per-position allowed tags: a bool keep matrix (n, span), given as it
    is or as one list of tag indices per position.  Every position keeps at
    least one."""

    def __init__(self, allowed: np.ndarray | Iterable[Iterable[int]]) -> None:
        keep = allowed
        if not (isinstance(keep, np.ndarray) and keep.dtype == bool):
            rows = [np.asarray(list(a), dtype=np.int64) for a in allowed]
            keep = np.zeros((len(rows), 1 + max([r.max(initial=0) for r in rows], default=0)),
                            dtype=bool)
            for i, r in enumerate(rows):
                if r.min(initial=0) < 0:
                    raise ValueError(f"mask position {i} has a negative tag index")
                keep[i, r] = True
        self.keep = keep
        self.span = keep.shape[1]  # every allowed tag is below it
        self.widths = keep.sum(axis=1)
        if not self.widths.all():
            raise ValueError(f"mask position {np.argmin(self.widths)} allows no tags")
        # An all-singleton mask pins a unique path; recursions collapse to it.
        self.singleton_path = keep.argmax(axis=1) if self.widths.max(initial=1) == 1 else None

    @classmethod
    def full(cls, n: int, y_count: int) -> "LatticeMask":
        return cls(np.ones((n, y_count), dtype=bool))

    @cached_property
    def allowed(self) -> tuple[np.ndarray, ...]:
        """Each position's allowed tags, ascending."""
        return tuple(np.flatnonzero(row) for row in self.keep)

    def __len__(self) -> int:
        return len(self.widths)

    def validate_for(self, n: int, y_count: int) -> None:
        """Require one position per token of an n-token sequence over y_count tags."""
        if len(self) != n:
            raise ValueError(f"mask length {len(self)} != sequence length {n}")
        if self.span > y_count:
            raise ValueError(f"mask over {self.span} tags exceeds y_count {y_count}")


@dataclass
class LatticeGradients:
    """d(loss)/d(potential) for every PotentialTable entry."""

    d_emissions: np.ndarray
    d_transitions: np.ndarray
    d_start: np.ndarray
    d_stop: np.ndarray


# numpy sums up to this many contiguous terms one after another, so zeros
# padded after them leave the sum's rounding as it is; past it, a sum's
# rounding depends on how many terms it has.
_PAD_EXACT = 7


@dataclass
class _Lattice:
    """B lattices over the sequences of a batch.  Row r holds the nodes of
    one position, packed like the emission rows: their scores `em` (-inf for
    a node off the lattice) and, when `slots` is set, the tag of each node,
    with the `widths[r]` nodes on the lattice first.  Without slots node j
    is tag j at every position.  `trans` scores the step from the previous
    row's nodes into a row's: one (W, W) block for every step, or one block
    per row (R, W, W).  start and stop are (W,) or per sequence (B, W)."""

    batch: PotentialBatch
    em: np.ndarray
    trans: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    slots: np.ndarray | None = None
    widths: np.ndarray | None = None

    def block(self, rows: np.ndarray) -> np.ndarray:
        return self.trans if self.trans.ndim == 2 else self.trans[rows]

    def node_sum(self, e: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Sum over the last axis, the nodes of the given rows, rounded as a
        sum over only each row's nodes on the lattice is rounded."""
        if self.widths is None or e.shape[-1] <= _PAD_EXACT:
            return e.sum(axis=-1)
        widths = self.widths[rows]
        out = np.empty(e.shape[:-1])
        for w in np.unique(widths):
            sel = widths == w
            out[sel] = e[sel, ..., :w].sum(axis=-1)
        return out


def _full(batch: PotentialBatch) -> _Lattice:
    return _Lattice(batch, batch.emissions, batch.transitions, batch.start, batch.stop)


def _restricted(batch: PotentialBatch, masks: Sequence[LatticeMask]) -> _Lattice:
    """Each sequence's lattice restricted to its mask's allowed tags: a row's
    slots are its allowed tags ascending, padded with tag 0 to the widest row."""
    keep = np.zeros(batch.emissions.shape, dtype=bool)
    for m, first in zip(masks, batch.offsets):
        keep[first : first + len(m), : m.span] = m.keep
    widths = keep.sum(axis=1)
    width = int(widths.max())
    slots = np.argsort(~keep, axis=1, kind="stable")[:, :width]
    pads = np.arange(width) >= widths[:, None]
    slots[pads] = 0
    em = np.take_along_axis(batch.emissions, slots, axis=1)
    em[pads] = -np.inf
    trans = batch.transitions[np.roll(slots, 1, axis=0)[:, :, None], slots[:, None, :]]
    last = batch.offsets + batch.lengths - 1
    return _Lattice(batch, em, trans, batch.start[slots[batch.offsets]],
                    batch.stop[slots[last]], slots, widths)


def _sum_product(lat: _Lattice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forward-backward recursion: log-partition of every lattice (B,)
    and the forward and backward scores of every node (R, W).

    Every sum rounds as the one-sequence recursion over the allowed tags
    alone rounds it, but one: numpy sums a lone (k >= 8, 1) block, k allowed
    tags stepping into a pinned position, in another order than this
    batched forward step, so there the scores differ in the last bits."""
    em, batch = lat.em, lat.batch
    order, first, running = batch.schedule()
    last = first + batch.lengths[order] - 1
    shape = (batch.size, em.shape[1])
    alpha = np.empty_like(em)
    prev = np.broadcast_to(lat.start, shape)[order] + em[first]
    alpha[first] = prev
    for i in range(1, running.size):
        k = running[i]
        rows = first[:k] + i
        step = prev[:k, :, None] + lat.block(rows)
        m = step.max(axis=1)
        prev[:k] = m + np.log(np.exp(step - m[:, None, :]).sum(axis=1)) + em[rows]
        alpha[rows] = prev[:k]
    stop = np.broadcast_to(lat.stop, shape)[order]
    ends = prev + stop
    m = ends.max(axis=1)
    log_z = np.empty(batch.size)
    log_z[order] = m + np.log(lat.node_sum(np.exp(ends - m[:, None]), last))

    beta = np.empty_like(em)
    prev = stop
    beta[last] = prev
    for i in range(running.size - 2, -1, -1):
        k = running[i + 1]  # sequences with a position after i
        rows = first[:k] + i + 1
        step = lat.block(rows) + (em[rows] + prev[:k])[:, None, :]
        m = step.max(axis=2)
        prev[:k] = m + np.log(lat.node_sum(np.exp(step - m[:, :, None]), rows))
        beta[rows - 1] = prev[:k]
    return log_z, alpha, beta


def _node_posteriors(lat: _Lattice) -> tuple[np.ndarray, ...]:
    """Log-partition (B,), the marginal of every node (R, W) and of every
    pair of nodes at adjacent positions: one (W, W) block per row with a
    successor in its sequence, for the rows `src` also returned."""
    batch = lat.batch
    log_z, alpha, beta = _sum_product(lat)
    unary = np.exp(alpha + beta - np.repeat(log_z, batch.lengths)[:, None])
    src = np.delete(np.arange(alpha.shape[0]), batch.offsets + batch.lengths - 1)
    pairwise = np.exp(
        alpha[src][:, :, None]
        + lat.block(src + 1)
        + (lat.em[src + 1] + beta[src + 1])[:, None, :]
        - np.repeat(log_z, batch.lengths - 1)[:, None, None]
    )
    return log_z, unary, pairwise, src


def _posteriors(
    batch: PotentialBatch, masks: Sequence[LatticeMask] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-partition (B,), unary marginals packed like the emission rows, and
    pairwise marginals (one (y, y) block per row with a successor in its
    sequence; row r of sequence b gives block r - b) of every sequence's full
    lattice, or of its lattice restricted to its mask.  A mask that pins one
    path gets the closed form: that path's score and one-hot marginals."""
    if masks is None:
        return _node_posteriors(_full(batch))[:3]
    if len(masks) != batch.size:
        raise ValueError(f"{len(masks)} masks for {batch.size} sequences")
    n_rows, y = batch.emissions.shape
    for mask, n in zip(masks, batch.lengths):
        mask.validate_for(n, y)
    log_z = np.empty(batch.size)
    unary = np.zeros((n_rows, y))
    pairwise = np.zeros((n_rows - batch.size, y, y))
    swept = []
    for b, mask in enumerate(masks):
        path = mask.singleton_path
        if path is None:
            swept.append(b)
            continue
        first, n = batch.offsets[b], batch.lengths[b]
        log_z[b] = _path_score(batch.emissions[first : first + n], batch.transitions,
                               batch.start, batch.stop, path)
        unary[np.arange(first, first + n), path] = 1.0
        pairwise[np.arange(first - b, first - b + n - 1), path[:-1], path[1:]] = 1.0
    if not swept:
        return log_z, unary, pairwise

    sub = batch.select(swept)
    lat = _restricted(sub, [masks[b] for b in swept])
    log_z[swept], node_unary, node_pairwise, src = _node_posteriors(lat)
    rows = batch.rows(swept)  # sub's rows in the batch
    pairs = rows[src] - np.repeat(swept, sub.lengths)[src]
    live = np.arange(lat.em.shape[1]) < lat.widths[:, None]
    r, j = np.nonzero(live)
    unary[rows[r], lat.slots[r, j]] = node_unary[r, j]
    p, a, c = np.nonzero(live[src][:, :, None] & live[src + 1][:, None, :])
    pairwise[pairs[p], lat.slots[src[p], a], lat.slots[src[p] + 1, c]] = node_pairwise[p, a, c]
    return log_z, unary, pairwise


def loss_and_grad_batch(
    batch: PotentialBatch, masks: Sequence[LatticeMask]
) -> tuple[list[float], list[LatticeGradients]]:
    """Each sequence's gap between its full and masked log-partitions, with
    its gradients: the full and the masked lattices of the whole batch run
    through one packed recursion each.

    The gradient w.r.t. each potential entry is the unconstrained posterior
    expectation of that entry's indicator minus the masked one.
    """
    log_z_m, unary_m, pairwise_m = _posteriors(batch, masks)
    log_z, unary, pairwise = _posteriors(batch)
    d_emissions = unary - unary_m
    grads = []
    for b, (first, n) in enumerate(zip(batch.offsets, batch.lengths)):
        d_em = d_emissions[first : first + n]
        pairs = slice(first - b, first - b + n - 1)
        d_trans = pairwise[pairs].sum(axis=0) - pairwise_m[pairs].sum(axis=0)
        grads.append(LatticeGradients(d_em, d_trans, d_em[0].copy(), d_em[-1].copy()))
    return (log_z - log_z_m).tolist(), grads


def loss_and_grad(table: PotentialTable, mask: LatticeMask) -> tuple[float, LatticeGradients]:
    """Gap between full and masked log-partitions, with its gradients
    (`loss_and_grad_batch` of one)."""
    losses, grads = loss_and_grad_batch(PotentialBatch.of(table), [mask])
    return losses[0], grads[0]


def log_partition(table: PotentialTable, mask: LatticeMask | None = None) -> float:
    """Log of the summed exp-scores of all (mask-compatible) tag sequences."""
    return float(_posteriors(PotentialBatch.of(table), None if mask is None else [mask])[0][0])


def constrained_log_partition(table: PotentialTable, mask: LatticeMask) -> float:
    return log_partition(table, mask)


def marginals(table: PotentialTable, mask: LatticeMask | None = None):
    """Posterior tag and tag-pair probabilities, zero outside the mask."""
    _, unary, pairwise = _posteriors(PotentialBatch.of(table), None if mask is None else [mask])
    return unary, pairwise


def _path_score(em, trans, start, stop, t: np.ndarray) -> float:
    score = start[t[0]] + em[np.arange(t.size), t].sum()
    score += trans[t[:-1], t[1:]].sum() + stop[t[-1]]
    return float(score)


def sequence_score(table: PotentialTable, tags: Sequence[int]) -> float:
    if len(tags) != table.n:
        raise ValueError(f"tag sequence length {len(tags)} != n {table.n}")
    t = np.asarray(tags, dtype=np.int64)
    if t.size and (t.min() < 0 or t.max() >= table.y_count):
        raise ValueError("tag index out of range")
    return _path_score(table.emissions, table.transitions, table.start, table.stop, t)


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
    paths, scores = viterbi_batch(PotentialBatch.of(table))
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
    log_z, alpha, beta = _sum_product(_full(batch))
    return log_z, np.exp(alpha + beta - np.repeat(log_z, batch.lengths)[:, None])
