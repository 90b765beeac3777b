"""Linear-chain CRF lattice algorithms: scaled forward-backward, log-space Viterbi.

Everything here is a pure function of a PotentialBatch (the emission rows of
one head's sequences back to back, plus the transition/start/stop scores
they share) and optional LatticeMasks, each one bool keep row per position.
The loss is the gap between the full and the masked log-partition, so its
gradients are differences of posterior expectations.  `_packed_masks` packs
a batch's masks like the emission rows; a sequence pinned to one path gets
its closed form.  The other sequences' masked lattices run in tag space
beside the full ones (off-mask nodes scored -inf, one recursion for both)
while that adds at most `_TAG_SPACE_PAIRS` node pairs per step, otherwise
restricted to their allowed tags (`_restricted`) in a recursion of their
own: the same bytes either way, as below.

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
tensors over axis 0, and end and time sums add term after term (`_sum0`,
`np.add.accumulate`), so a zero adds nothing at any width.  Transition
marginals are summed per sequence, position by position.  The batch kernels
are the only API (`loss_and_grad_batch`, `viterbi_batch`,
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


def _sum0(x: np.ndarray) -> np.ndarray:
    """x summed over axis 0, term after term: numpy reduces an outer axis
    row by row, but a reduction into one element runs pairwise."""
    return np.add.accumulate(x)[-1] if len(x) > 1 and x[0].size == 1 else x.sum(axis=0)


class _Lattice:
    """B lattices over sequences of a batch, laid out time-major, position
    by sequence: `seqs` are the batch's sequences longest first (lattice j
    runs the `order[j]`-th sequence given), so the `running[i]` of them with
    a position i are a prefix.  `rows` (T, B) is the emission row of each
    position (a sequence's last row past its end) and `last` indexes each
    sequence's last position.  `em` (T, B, W) scores each position's nodes,
    the start scores added at position 0 (-inf for a node off the lattice)
    and, when `slots` is set, `slots` (T, B, W) is the tag of each node, with
    the `widths` (T, B) nodes on the lattice first (none past the end).
    Without slots node j is tag j.  Viterbi never reads `scaled`."""

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
        self.slots = self.widths = None
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
        and exponentiated: transitions (T - 1, B, W, W), transposed, stop (B, W)."""
        shifts = tuple(v.max() for v in self.potentials)
        tr, stop = (np.exp(v - m) for v, m in zip(self.potentials, shifts))
        if (s := self.slots) is None:
            (t, b), y = self.rows.shape, stop.size
            return (shifts, *(np.broadcast_to(m, (t - 1, b, y, y)) for m in (tr, tr.T.copy())),
                    np.broadcast_to(stop, (b, y)))
        return (shifts, tr[s[:-1, :, :, None], s[1:, :, None, :]],
                tr.T[s[1:, :, :, None], s[:-1, :, None, :]], stop[s[self.last]])

    def packed(self, x: np.ndarray) -> np.ndarray:
        """x (T, B, ...) at the sequences' positions, back to back in the order
        given (packed like the emission rows, for the whole batch)."""
        given = np.argsort(self.order)  # each given sequence's lattice
        lengths = self.lengths[given]
        starts = np.cumsum(lengths) - lengths
        pos = np.arange(starts[-1] + lengths[-1]) - np.repeat(starts, lengths)
        return x[pos, np.repeat(given, lengths)]


def _restricted(batch: PotentialBatch, keep: np.ndarray,
                seqs: Sequence[int] | None = None) -> _Lattice:
    """The lattices of the given sequences (default: all), each restricted
    to its rows of keep (bool, packed like the emission rows): a position's
    slots are its allowed tags ascending, padded with tag 0 to the widest."""
    lat = _Lattice(batch, seqs)
    keep = keep[lat.rows] & (np.arange(lat.seqs.size) < lat.running[:, None])[..., None]
    lat.widths = keep.sum(axis=2)
    width = int(lat.widths.max())
    lat.slots = slots = np.argsort(~keep, axis=2, kind="stable")[:, :, :width]
    pads = np.arange(width) >= lat.widths[..., None]
    slots[pads] = 0
    lat.em = np.take_along_axis(lat.em, slots, axis=2)
    lat.em[pads & (lat.widths > 0)[..., None]] = -np.inf  # past an end, a row keeps its max
    return lat


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
        a = np.einsum("kw,kwv->kv", alpha[i - 1, :k], trans[i - 1, :k]) * e[i, :k]
        c[i, :k] = a.max(axis=1, initial=_TINY)
        np.divide(a, c[i, :k, None], out=alpha[i, :k])
    z = _sum0(np.multiply(alpha[last].T, stop.T, order="C"))  # (W, B)
    if (c == _TINY).any() or not z.all():
        raise FloatingPointError("every path of a lattice underflows to 0 in scaled space")
    steps = np.log(c) + top
    steps[1:] += shifts[0]
    log_z = np.add.accumulate(steps)[last] + np.log(z) + shifts[1]
    beta[last] = stop / z[:, None]
    for i in range(running.size - 2, -1, -1):
        k = running[i + 1]  # sequences with a position after i
        np.divide(e[i + 1, :k] * beta[i + 1, :k], c[i + 1, :k, None], out=gamma[i + 1, :k])
        np.einsum("kv,kvw->kw", gamma[i + 1, :k], back[i, :k], out=beta[i, :k])
    return log_z, alpha, beta, gamma


def _node_posteriors(lat: _Lattice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-partition (B,), the marginal of every node (T, B, W) and of every
    pair of nodes at adjacent positions (T - 1, B, W, W), zero past each
    sequence's end: each run of steps with the same sequences running at once
    computes its pairs, alpha times the transition times the next gamma, so
    no pair past an end is computed."""
    log_z, alpha, beta, gamma = _sum_product(lat)
    trans = lat.scaled[1]
    pairwise = np.zeros(trans.shape)
    running = lat.running[1:]  # sequences with a pair at each step
    starts = np.flatnonzero(np.diff(running, prepend=-1))
    for a, b in zip(starts, [*starts[1:], running.size]):
        k = running[a]
        np.multiply(alpha[a:b, :k, :, None] * trans[a:b, :k],
                    gamma[a + 1 : b + 1, :k, None, :], out=pairwise[a:b, :k])
    return log_z, alpha * beta, pairwise


# The most extra node pairs per recursion step, B_free * (y*y - W_m*W_m), at
# which a batch's masked lattices run in tag space beside its full ones: the
# crossover of `tests/kernel_probe.py`'s masked rows (2-core Xeon, numpy 2.4).
_TAG_SPACE_PAIRS = 768
_Posteriors = tuple[np.ndarray, np.ndarray, np.ndarray]  # log_z, unary, transition sums


def _lattice_posteriors(lat: _Lattice) -> _Posteriors:
    """Log-partition (B,) and transition sums (B, y, y) of every lattice in
    the order its sequences were given, and unary marginals packed in that
    order.  A transition sum adds pairwise marginals position by position."""
    log_z, unary, pairwise = _node_posteriors(lat)
    given_z, sums = np.empty(log_z.size), np.empty(pairwise.shape[1:])
    given_z[lat.order], sums[lat.order] = log_z, _sum0(pairwise)
    return given_z, lat.packed(unary), sums


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


def _restricted_posteriors(batch: PotentialBatch, keep: np.ndarray,
                           pinned: np.ndarray) -> _Posteriors:
    """Masked posteriors, each free sequence's lattice restricted to its mask
    (`_restricted`): its live nodes are scattered back to tag space, and each
    tag pair's transition sum adds its live node pairs in position order."""
    y = batch.emissions.shape[1]
    log_z, unary, sums = _pinned_posteriors(batch, keep, pinned)
    if pinned.all():
        return log_z, unary, sums
    lat = _restricted(batch, keep, np.flatnonzero(~pinned))
    log_z[lat.seqs], node_unary, node_pairwise = _node_posteriors(lat)
    live = np.arange(lat.em.shape[2]) < lat.widths[..., None]
    t, j, a = np.nonzero(live)
    unary[lat.rows[t, j], lat.slots[t, j, a]] = node_unary[t, j, a]
    t, j, a, c = np.nonzero(live[:-1, :, :, None] & live[1:, :, None, :])
    pairs = (j * y + lat.slots[t, j, a]) * y + lat.slots[t + 1, j, c]
    sums[lat.seqs] = np.bincount(pairs, node_pairwise[t, j, a, c],
                                 lat.seqs.size * y * y).reshape(-1, y, y)
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
    lattice restricted to its mask; a pinned sequence (one tag per row) gets
    its path's closed form."""
    if masks is None:
        return _lattice_posteriors(_Lattice(batch))
    keep, widest = _packed_masks(batch, masks)
    return _restricted_posteriors(batch, keep, widest == 1)


def loss_and_grad_batch(batch: PotentialBatch, masks: Sequence[LatticeMask]) -> _Posteriors:
    """Each sequence's gap between its full and masked log-partitions (B,),
    with its gradients.  When the masks add at most `_TAG_SPACE_PAIRS` node
    pairs per step in tag space, the full and masked lattices run through one
    recursion (`_tag_space_posteriors`); otherwise the full ones run through
    one and the masked ones, restricted, through another.  Both give the
    same bytes.

    The gradient w.r.t. each potential entry is the unconstrained posterior
    expectation of that entry's indicator minus the masked one: d_emissions
    packed like the emission rows, d_transitions (B, y, y).  A sequence's
    start and stop gradients are its first and last d_emissions rows.
    """
    keep, widest = _packed_masks(batch, masks)
    y, pinned = batch.emissions.shape[1], widest == 1
    if (~pinned).sum() * (y * y - widest.max() ** 2) <= _TAG_SPACE_PAIRS:
        full, masked = _tag_space_posteriors(batch, keep, pinned)
    else:
        full, masked = _posteriors(batch), _restricted_posteriors(batch, keep, pinned)
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
