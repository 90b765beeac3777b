"""Linear-chain CRF lattice algorithms: scaled forward-backward, log-space Viterbi.

Everything here is a pure function of a PotentialBatch (the emission rows of
one head's sequences back to back, plus the transition/start/stop scores
they share) and optional LatticeMasks, each one bool keep row per position.
The loss is the gap between the full and the masked log-partition, so its
gradients are differences of posterior expectations.  `_packed_masks` packs
a batch's masks like the emission rows; a sequence pinned to one path gets
its closed form.  The other sequences' masked lattices run in tag space
beside the full ones: off-mask nodes scored -inf, one recursion for both.

The forward-backward recursion runs in scaled probability space (Rabiner
1989, sec. V.A): a lattice exponentiates its emissions (the start scores
added at the first position) shifted by each position's max, and its
transitions and stop scores shifted by theirs, once.  A step sums over the
previous node, multiplies by the emissions and divides by the position's
scale, its largest node, and log-partitions add the logs of the scales and
the shifts.  An off-mask or padded node weighs exactly 0.0, and a lattice
whose every path underflows to 0 raises FloatingPointError.  Viterbi has no
exp and stays in log space, where a path's score can overflow near the
float maximum.  Training and decoding run these kernels under
np.errstate(over="raise", invalid="raise"): either failure ends there, as
TrainingDiverged or ModelError naming the head, never as inf or nan.

A kernel lays the batch out once, time-major and longest first (`_Lattice`),
so each step slices the sequences still running, with the elementwise
arithmetic of the one-sequence recursion: a sequence's result does not
depend on its batch.  Scaled steps sum with `np.einsum` (term after term,
each row on its own), Viterbi steps reduce C-ordered (W_from, k, W_to)
tensors over axis 0, and end and time sums add term after term
(`np.add.accumulate`), so a zero adds nothing at any width.  Each lattice's
transition sums are one einsum over time, position after position.  The
batch kernels are the only API (`loss_and_grad_batch`, `viterbi_batch`,
`forward_backward`): each returns per-sequence arrays (B, ...) and arrays
packed like the emission rows, which training hands on to the emission
backward pass without splitting them.  `sequence_log_prob` scores one path
of a batch of one sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


def _whole(values, name: str) -> np.ndarray:
    """values as int64; ValueError naming them unless each is a finite whole number."""
    a = np.asarray(values)
    if not (a.dtype.kind in "iu" or a.dtype.kind == "f" and (np.isfinite(a) & (a == a.round())).all()):
        raise ValueError(f"{name} must be whole numbers")
    return a.astype(np.int64, copy=False)


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
        """Convert to int64 and float64; require consistent shapes and finite values."""
        self.lengths = _whole(self.lengths, "lengths")
        if self.lengths.ndim != 1 or self.lengths.size < 1 or self.lengths.min() < 1:
            raise ValueError("lengths must be a non-empty 1-d array of values >= 1")
        for name in ("emissions", "transitions", "start", "stop"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.emissions.ndim != 2 or self.emissions.shape[1] < 1:
            raise ValueError("emissions must be (n, y_count) with y_count >= 1")
        y = self.emissions.shape[1]
        if self.transitions.shape != (y, y):
            raise ValueError("transitions must be (y_count, y_count)")
        if self.start.shape != (y,) or self.stop.shape != (y,):
            raise ValueError("start and stop must be (y_count,)")
        for arr in (self.emissions, self.transitions, self.start, self.stop):
            if not np.isfinite(arr).all():
                raise ValueError("potentials must be finite")
        if int(self.lengths.sum()) != self.emissions.shape[0]:
            raise ValueError("lengths must add up to the number of emission rows")
        self.offsets = np.concatenate(([0], np.cumsum(self.lengths[:-1])))

    @property
    def size(self) -> int:
        return self.lengths.size


class LatticeMask:
    """Per-position allowed tags: a bool keep matrix (n, span), given as it
    is or as one list of tag indices per position.  Every position keeps at
    least one."""

    def __init__(self, allowed: np.ndarray | Iterable[Iterable[int]]) -> None:
        keep = allowed
        if not (isinstance(keep, np.ndarray) and keep.dtype == bool):
            rows = [_whole(list(a), f"tags of mask position {i}") for i, a in enumerate(allowed)]
            keep = np.zeros((len(rows), 1 + max([r.max(initial=0) for r in rows], default=0)),
                            dtype=bool)
            for i, r in enumerate(rows):
                if r.min(initial=0) < 0:
                    raise ValueError(f"mask position {i} has a negative tag index")
                keep[i, r] = True
        if not keep.any(axis=1).all():
            raise ValueError(f"mask position {np.argmin(keep.any(axis=1))} allows no tags")
        self.keep = keep

    @cached_property
    def allowed(self) -> tuple[np.ndarray, ...]:
        """Each position's allowed tags, ascending."""
        return tuple(np.flatnonzero(row) for row in self.keep)


class _Lattice:
    """B lattices over sequences of a batch, laid out time-major, position
    by sequence: `seqs` are the batch's sequences longest first (lattice j
    runs the `order[j]`-th sequence given), so the `running[i]` of them with
    a position i are a prefix.  `rows` (T, B) is the emission row of each
    position (a sequence's last row past its end) and `last` indexes each
    sequence's last position.  `em` (T, B, y) scores each position's nodes,
    node j being tag j, with the start scores added at position 0 (-inf for
    a node off the lattice).  Viterbi never reads `scaled`."""

    def __init__(self, batch: PotentialBatch, seqs: Sequence[int] | None = None) -> None:
        """The full lattices of the given sequences (default: all)."""
        if seqs is None:
            seqs = np.arange(batch.size)
        else:
            seqs = _whole(seqs, "sequence indices")
            bad = seqs[(seqs < 0) | (seqs >= batch.size)]
            if bad.size or not seqs.size:
                raise ValueError(f"sequence index {bad[0]} is not in a batch of {batch.size}"
                                 if bad.size else "no sequence selected")
        self.order = np.argsort(-batch.lengths[seqs], kind="stable")
        self.seqs = seqs = seqs[self.order]
        self.lengths = lengths = batch.lengths[seqs]
        steps = np.arange(lengths[0])
        self.running = np.searchsorted(-lengths, -steps, "left")
        self.rows = batch.offsets[seqs] + np.minimum(steps[:, None], lengths - 1)
        self.last = lengths - 1, np.arange(seqs.size)
        self.em = batch.emissions[self.rows]
        self.em[0] += batch.start
        self.potentials = batch.transitions, batch.stop

    @cached_property
    def scaled(self) -> tuple[tuple[float, float], np.ndarray, np.ndarray, np.ndarray]:
        """The maxima of the transitions and stop scores, and both shifted by them
        and exponentiated: transitions (y, y), their transpose and stop (y,)."""
        shifts = tuple(v.max() for v in self.potentials)
        tr, stop = (np.exp(v - m) for v, m in zip(self.potentials, shifts))
        return shifts, tr, tr.T.copy(), stop

    def packed(self, x: np.ndarray) -> np.ndarray:
        """x (T, B, ...) at the sequences' positions, back to back in the order
        given (packed like the emission rows, for the whole batch)."""
        given = np.argsort(self.order)  # each given sequence's lattice
        lengths = self.lengths[given]
        starts = np.cumsum(lengths) - lengths
        pos = np.arange(starts[-1] + lengths[-1]) - np.repeat(starts, lengths)
        return x[pos, np.repeat(given, lengths)]


_TINY = np.nextafter(0.0, 1.0)  # a position's scale when all its nodes underflow to 0


def _sum_product(lat: _Lattice) -> tuple[np.ndarray, ...]:
    """The scaled forward-backward recursion: log-partition of every lattice
    (B,) and, per node (T, B, W) and zero past each sequence's end, forward
    and backward scores alpha and beta, scaled so that alpha * beta is the
    node's marginal, and gamma, the node's emission weight times its beta
    over its position's scale c (the position's largest forward node).  A
    scale or end sum that underflows to 0 raises FloatingPointError before
    anything divides by it or takes its log."""
    em, running, last = lat.em, lat.running, lat.last
    shifts, trans, back, stop = lat.scaled
    top = em.max(axis=2)
    e = np.exp(em - top[..., None])
    alpha, beta, gamma = (np.zeros(em.shape) for _ in range(3))
    c = np.ones(top.shape)
    alpha[0] = e[0]
    for i in range(1, running.size):
        k = running[i]
        a = np.einsum("kw,wv->kv", alpha[i - 1, :k], trans) * e[i, :k]
        c[i, :k] = a.max(axis=1, initial=_TINY)
        np.divide(a, c[i, :k, None], out=alpha[i, :k])
    z = np.add.accumulate(alpha[last].T * stop[:, None])[-1]  # over W, term after term
    if (c == _TINY).any() or not z.all():
        raise FloatingPointError("every path of a lattice underflows to 0 in scaled space")
    steps = np.log(c) + top
    steps[1:] += shifts[0]
    log_z = np.add.accumulate(steps)[last] + np.log(z) + shifts[1]
    beta[last] = stop / z[:, None]
    for i in range(running.size - 2, -1, -1):
        k = running[i + 1]  # sequences with a position after i
        np.divide(e[i + 1, :k] * beta[i + 1, :k], c[i + 1, :k, None], out=gamma[i + 1, :k])
        np.einsum("kv,vw->kw", gamma[i + 1, :k], back, out=beta[i, :k])
    return log_z, alpha, beta, gamma


_Posteriors = tuple[np.ndarray, np.ndarray, np.ndarray]  # log_z, unary, transition sums


def _lattice_posteriors(lat: _Lattice) -> _Posteriors:
    """Log-partition (B,) and transition sums (B, y, y) of every lattice in
    the order its sequences were given, and unary marginals packed in that
    order.  The transition sums are one einsum over time: each pair's
    marginal, alpha times the transition times the next gamma, added
    position after position (zero past a sequence's end)."""
    log_z, alpha, beta, gamma = _sum_product(lat)
    trans = lat.scaled[1]
    given_z, sums = np.empty(log_z.size), np.empty((log_z.size, *trans.shape))
    given_z[lat.order] = log_z
    sums[lat.order] = np.einsum("tbw,wv,tbv->bwv", alpha[:-1], trans, gamma[1:])
    return given_z, lat.packed(alpha * beta), sums


def _packed_masks(batch: PotentialBatch, masks: Sequence[LatticeMask]):
    """Every mask in one bool keep array packed like the emission rows, and
    each sequence's widest row (B,): a sequence pinned to one path has 1."""
    size, y = batch.size, batch.emissions.shape[1]
    if len(masks) != size:
        raise ValueError(f"{len(masks)} masks for {size} sequences")
    keep = np.zeros(batch.emissions.shape, dtype=bool)
    for mask, first, n in zip(masks, batch.offsets, batch.lengths):
        rows, span = mask.keep.shape
        if rows != n:
            raise ValueError(f"mask length {rows} != sequence length {n}")
        if span > y:
            raise ValueError(f"mask over {span} tags exceeds y_count {y}")
        keep[first : first + n, :span] = mask.keep
    return keep, np.maximum.reduceat(keep.sum(axis=1), batch.offsets)


def _pinned_posteriors(batch: PotentialBatch, keep: np.ndarray, pinned: np.ndarray) -> _Posteriors:
    """Masked posteriors with every pinned sequence's path in closed form,
    zeros for the free sequences."""
    size, y = batch.size, batch.emissions.shape[1]
    log_z, unary, sums = np.zeros(size), np.zeros(batch.emissions.shape), np.zeros((size, y, y))
    for b in np.flatnonzero(pinned):
        first, n = batch.offsets[b], batch.lengths[b]
        path = keep[first : first + n].argmax(axis=1)
        log_z[b] = _path_score(batch.emissions[first : first + n], batch, path)
        unary[np.arange(first, first + n), path] = 1.0
        np.add.at(sums[b], (path[:-1], path[1:]), 1.0)
    return log_z, unary, sums


def _tag_space_posteriors(batch: PotentialBatch, keep: np.ndarray,
                          pinned: np.ndarray) -> tuple[_Posteriors, _Posteriors]:
    """Full and masked posteriors from one recursion: each free sequence's
    masked lattice is one more lattice of the full batch, in tag space, with
    its off-mask nodes scored -inf."""
    size, n = batch.size, batch.emissions.shape[0]
    lat = _Lattice(batch, np.concatenate([np.arange(size), np.flatnonzero(~pinned)]))
    masked = lat.order >= size
    lat.em[:, masked] = np.where(keep[lat.rows[:, masked]], lat.em[:, masked], -np.inf)
    log_z, unary, sums = _lattice_posteriors(lat)
    log_z_m, unary_m, sums_m = _pinned_posteriors(batch, keep, pinned)
    log_z_m[~pinned], sums_m[~pinned] = log_z[size:], sums[size:]
    unary_m[np.repeat(~pinned, batch.lengths)] = unary[n:]
    return (log_z[:size], unary[:n], sums[:size]), (log_z_m, unary_m, sums_m)


def _posteriors(batch: PotentialBatch, masks: Sequence[LatticeMask] | None = None) -> _Posteriors:
    """Log-partition (B,), unary marginals packed like the emission rows and
    transition sums (B, y, y) of every sequence's full lattice, or of its
    lattice under its mask (the masked half of `_tag_space_posteriors`); a
    pinned sequence (one tag per row) gets its path's closed form."""
    if masks is None:
        return _lattice_posteriors(_Lattice(batch))
    keep, widest = _packed_masks(batch, masks)
    return _tag_space_posteriors(batch, keep, widest == 1)[1]


def loss_and_grad_batch(batch: PotentialBatch, masks: Sequence[LatticeMask]) -> _Posteriors:
    """Each sequence's gap between its full and masked log-partitions (B,),
    with its gradients: the full and the masked lattices run through one
    recursion (`_tag_space_posteriors`).

    The gradient w.r.t. each potential entry is the unconstrained posterior
    expectation of that entry's indicator minus the masked one: d_emissions
    packed like the emission rows, d_transitions (B, y, y).  A sequence's
    start and stop gradients are its first and last d_emissions rows.
    """
    keep, widest = _packed_masks(batch, masks)
    full, masked = _tag_space_posteriors(batch, keep, widest == 1)
    return tuple(a - b for a, b in zip(full, masked))


def _path_score(em: np.ndarray, p: PotentialBatch, t: np.ndarray) -> float:
    """Score of path t over emission rows em and p's transitions, start and stop."""
    score = p.start[t[0]] + em[np.arange(t.size), t].sum()
    score += p.transitions[t[:-1], t[1:]].sum() + p.stop[t[-1]]
    return float(score)


def sequence_log_prob(batch: PotentialBatch, tags: Sequence[int]) -> float:
    """Log-probability of a tag sequence under the full lattice of a batch of
    one sequence; always <= 0."""
    if batch.size != 1:
        raise ValueError(f"a batch of {batch.size} sequences is not one sequence")
    n, y = batch.emissions.shape
    if len(tags) != n:
        raise ValueError(f"tag sequence length {len(tags)} != n {n}")
    t = np.asarray(tags, dtype=np.int64)
    if t.min() < 0 or t.max() >= y:
        raise ValueError("tag index out of range")
    return _path_score(batch.emissions, batch, t) - float(_sum_product(_Lattice(batch))[0][0])


def viterbi_batch(batch: PotentialBatch) -> tuple[np.ndarray, np.ndarray]:
    """Highest-scoring tag sequence of every sequence in the batch: the tags,
    packed like the emission rows, and the scores (B,).

    Each step is C-ordered (W_from, k, W_to), tag-major; its backpointer is
    the first W_from at the max over axis 0, so every decision breaks ties
    toward the lower tag index.
    """
    lat = _Lattice(batch)
    em, running = lat.em, lat.running
    delta = em[0].copy()
    back = np.empty(em.shape, dtype=np.int64)
    for i in range(1, running.size):
        k = running[i]
        step = np.add(delta[:k].T[:, :, None], batch.transitions[:, None, :],
                      order="C")  # (W_from, k, W_to)
        m = step.max(axis=0)
        back[i, :k] = (step == m).argmax(axis=0)
        delta[:k] = m + em[i, :k]
    delta = delta + batch.stop
    tag = np.argmax(delta, axis=1)
    scores = np.empty(batch.size)
    scores[lat.seqs] = delta[np.arange(batch.size), tag]
    paths = np.empty(lat.rows.shape, dtype=np.int64)
    paths[-1] = tag
    for i in range(running.size - 2, -1, -1):
        k = running[i + 1]  # sequences running past i step back to their tag at i
        tag[:k] = back[i + 1, np.arange(k), tag[:k]]
        paths[i] = tag
    return lat.packed(paths), scores


def forward_backward(
    batch: PotentialBatch, seqs: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Log-partition and unary marginals of the given sequences (default:
    all), in the order given, their rows back to back (packed like the
    emission rows for the whole batch): `_posteriors`' full-lattice node
    marginals without the transition sums, over those lattices only.  A
    negative or out-of-range index, or no index, raises ValueError."""
    lat = _Lattice(batch, seqs)
    log_z, alpha, beta, _ = _sum_product(lat)
    out = np.empty(lat.seqs.size)
    out[lat.order] = log_z
    return out, lat.packed(alpha * beta)
