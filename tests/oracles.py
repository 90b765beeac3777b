"""Brute-force reference implementations the fast code is checked against."""

from __future__ import annotations

import numpy as np

from hiertag.crf import (
    LatticeGradients,
    LatticeMask,
    PotentialBatch,
    PotentialTable,
    loss_and_grad_batch,
)
from hiertag.features import (
    BOS,
    EOS,
    SharedEmissionModel,
    emission_cache,
    word_shape,
    zero_gradients,
)
from hiertag.hierarchy import TagHierarchy
from hiertag.models import (
    CollisionRecord,
    ConsolidationMethod,
    _regularized_keys,
    _transitions,
)


def reference_feature_strings(tokens, i: int, radius: int) -> list[str]:
    """Template features for position i, built from the lowercased form and
    shape of every token its window sees: the reference for `featurize`."""
    window = range(max(i - radius, 0), min(i + radius + 1, len(tokens)))
    lows = {j: tokens[j].lower() for j in window}
    shapes = {j: word_shape(tokens[j]) for j in window}
    tok, low = tokens[i], lows[i]
    feats = [f"w0={low}", f"shape0={shapes[i]}"]
    for k in (1, 2, 3):
        if len(tok) >= k:
            feats.append(f"pre{k}={low[:k]}")
            feats.append(f"suf{k}={low[-k:]}")
    if any(c.isdigit() for c in tok):
        feats.append("digit")
    for off in range(-radius, radius + 1):
        if off == 0:
            continue
        mark, j = (f"+{off}" if off > 0 else f"-{-off}"), i + off
        if j < 0:
            feats.append(f"w{mark}={BOS}")
        elif j >= len(tokens):
            feats.append(f"w{mark}={EOS}")
        else:
            feats.append(f"w{mark}={lows[j]}")
            feats.append(f"shape{mark}={shapes[j]}")
    return feats


def reference_route(graph: TagHierarchy, tag: str, members: frozenset[str]) -> str | None:
    """The tagset member met first walking out-edges level by level from
    `tag` (same-depth candidates: the lexicographically smallest), or None:
    one breadth-first search per tag, the reference for
    `ExtendedHierarchy.routes`."""
    level = [tag]
    visited = {tag}
    while level:
        hits = sorted(t for t in level if t in members)
        if hits:
            return hits[0]
        nxt: set[str] = set()
        for t in level:
            nxt |= graph._parents[t] - visited
        visited |= nxt
        level = sorted(nxt)
    return None


def reference_resolve(proposals, log_probs, marginals, method, seed):
    """One sequence's collisions, resolved position by position from proposal
    tuples: the reference for `models._resolve_collisions`.

    proposals[k][i] is head k's tag at position i, None where it proposes
    nothing; log_probs[k] is the log-probability of head k's path and
    marginals[k][i] its marginal at i.  Returns the tag chosen at each
    position where distinct tags are proposed, and its collision records."""
    rng = np.random.default_rng(seed)
    chosen, records = {}, []
    for i in range(len(proposals[0])):
        # (candidate tag, head index, sequence score, marginal)
        props = [(tags[i], k, log_probs[k], float(marginals[k][i]))
                 for k, tags in enumerate(proposals) if tags[i] is not None]
        distinct = sorted({p[0] for p in props})
        if len(distinct) < 2:
            continue
        best = {t: max(p[3] for p in props if p[0] == t) for t in distinct}
        records.append(CollisionRecord(i, tuple(distinct), tuple(best[t] for t in distinct)))
        if method is ConsolidationMethod.RANDOM:
            chosen[i] = distinct[int(rng.integers(len(distinct)))]
        elif method is ConsolidationMethod.BEST_SEQUENCE_SCORE:
            chosen[i] = min(props, key=lambda p: (-p[2], p[1], p[0]))[0]
        else:
            chosen[i] = min(props, key=lambda p: (-p[3], p[1], p[0]))[0]
    return chosen, records


def logsumexp(a: np.ndarray, axis: int | None = None):
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))
    if axis is None:
        return out.item()
    return np.squeeze(out, axis=axis)


def all_path_scores(table: PotentialTable, mask: LatticeMask | None = None):
    """Every mask-compatible path and its score, by explicit enumeration."""
    n, y = table.emissions.shape
    sets = mask.allowed if mask is not None else [np.arange(y)] * n
    grids = np.meshgrid(*sets, indexing="ij")
    paths = np.stack([g.ravel() for g in grids], axis=1)  # (P, n)
    scores = table.start[paths[:, 0]] + table.stop[paths[:, -1]]
    for i in range(n):
        scores = scores + table.emissions[i, paths[:, i]]
    for i in range(n - 1):
        scores = scores + table.transitions[paths[:, i], paths[:, i + 1]]
    return paths, scores


def path_score(table: PotentialTable, path) -> float:
    """One path's score, summed in the order of `crf._path_score` (which
    scores paths for `sequence_log_prob` and all-singleton masks), so the
    two agree bit for bit."""
    t = np.asarray(path, dtype=np.int64)
    score = table.start[t[0]] + table.emissions[np.arange(t.size), t].sum()
    score += table.transitions[t[:-1], t[1:]].sum() + table.stop[t[-1]]
    return float(score)


def oracle_log_partition(table: PotentialTable, mask: LatticeMask | None = None) -> float:
    _, scores = all_path_scores(table, mask)
    return float(logsumexp(scores))


def oracle_marginals(table: PotentialTable, mask: LatticeMask | None = None):
    n, y = table.emissions.shape
    paths, scores = all_path_scores(table, mask)
    probs = np.exp(scores - logsumexp(scores))
    unary = np.zeros((n, y))
    pairwise = np.zeros((max(n - 1, 0), y, y))
    for i in range(n):
        np.add.at(unary[i], paths[:, i], probs)
    for i in range(n - 1):
        np.add.at(pairwise[i], (paths[:, i], paths[:, i + 1]), probs)
    return unary, pairwise


def oracle_viterbi(table: PotentialTable):
    """Exhaustive argmax; ties resolve like first-occurrence backpointers.

    Backtracking fixes the last tag first, so among equal-scoring paths the
    decoder returns the one minimal under right-to-left comparison.
    """
    paths, scores = all_path_scores(table)
    best = None
    for path, s in zip(paths, scores):
        key = (-s, tuple(reversed(path.tolist())))
        if best is None or key < best[0]:
            best = (key, path)
    return best[1].tolist(), float(-best[0][0])


def random_table(rng: np.random.Generator, n: int, y: int, scale: float = 2.0) -> PotentialTable:
    return PotentialTable(
        emissions=rng.uniform(-scale, scale, size=(n, y)),
        transitions=rng.uniform(-scale, scale, size=(y, y)),
        start=rng.uniform(-scale, scale, size=y),
        stop=rng.uniform(-scale, scale, size=y),
    )


def random_mask(rng: np.random.Generator, n: int, y: int) -> LatticeMask:
    allowed = []
    for _ in range(n):
        k = int(rng.integers(1, y + 1))
        allowed.append(rng.choice(y, size=k, replace=False))
    return LatticeMask(allowed)


def reference_slots(mask: LatticeMask) -> tuple[np.ndarray, np.ndarray]:
    """One mask's lattice slots, packed on their own: each position's allowed
    tags ascending (a stable argsort of ~keep), cut to the mask's widest
    position and padded with tag 0; and each position's width."""
    width = int(mask.widths.max(initial=1))
    order = np.argsort(~mask.keep, axis=1, kind="stable")[:, :width]
    return np.where(np.arange(width) < mask.widths[:, None], order, 0), mask.widths


def log_partition_backward(table: PotentialTable, mask: LatticeMask | None = None) -> float:
    """The log-partition by the backward recursion, as a cross-check."""
    em, trans = table.emissions, table.transitions
    n = table.n
    if mask is None:
        beta = table.stop.copy()
        for i in range(n - 2, -1, -1):
            beta = logsumexp(trans + (em[i + 1] + beta)[None, :], axis=1)
        return float(logsumexp(table.start + em[0] + beta))
    mask.validate_for(table.n, table.y_count)
    idx = mask.allowed
    beta = table.stop[idx[-1]].copy()
    for i in range(n - 2, -1, -1):
        step = trans[np.ix_(idx[i], idx[i + 1])] + (em[i + 1, idx[i + 1]] + beta)[None, :]
        beta = logsumexp(step, axis=1)
    return float(logsumexp(table.start[idx[0]] + em[0, idx[0]] + beta))


# A one-sequence training kernel: a dense and a masked recursion per
# sequence.  `crf.loss_and_grad_batch` must equal it bit for bit.

def _reference_dense(table: PotentialTable):
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


def _reference_masked(table: PotentialTable, mask: LatticeMask):
    em, trans = table.emissions, table.transitions
    n, y = em.shape
    if mask.singleton_path is not None:
        path = mask.singleton_path
        unary = np.zeros((n, y))
        unary[np.arange(n), path] = 1.0
        pairwise = np.zeros((max(n - 1, 0), y, y))
        pairwise[np.arange(n - 1), path[:-1], path[1:]] = 1.0
        return path_score(table, path), unary, pairwise
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


def reference_loss_and_grad(table: PotentialTable, mask: LatticeMask):
    mask.validate_for(table.n, table.y_count)
    log_z, unary, pairwise = _reference_dense(table)
    log_z_m, unary_m, pairwise_m = _reference_masked(table, mask)
    return log_z - log_z_m, LatticeGradients(
        d_emissions=unary - unary_m,
        d_transitions=pairwise.sum(axis=0) - pairwise_m.sum(axis=0),
        d_start=unary[0] - unary_m[0],
        d_stop=unary[-1] - unary_m[-1],
    )


# The dense training step: gradients zeroed each step, one np.add.at scatter
# per sequence, then mean, L2, clipping and Adagrad over whole arrays with
# fresh temporaries.  `_Trainer._batch_step` must equal it bit for bit.

def reference_backprop(model, x, head, d_emissions, cache, out) -> None:
    """One sequence's backward pass into dense gradients, from its feature
    rows x and the cache of its own `emission_cache` call."""
    if isinstance(model, SharedEmissionModel):
        head_w, _ = model.heads[head]
        hidden = cache[-1]
        out[f"head:{head}:weights"] += d_emissions.T @ hidden
        out[f"head:{head}:bias"] += d_emissions.sum(axis=0)
        d_rows = (d_emissions @ head_w) * (1.0 - hidden * hidden)
        key, bias = "shared_weights", "shared_bias"
    else:
        d_rows, key, bias = d_emissions, "weights", "bias"
    tokens = np.repeat(np.arange(x.shape[0]), np.diff(x.indptr))
    np.add.at(out[key].T, x.indices, d_rows[tokens] * x.data[:, None])
    out[bias] += d_rows.sum(axis=0)


def reference_batch_grads(trainer, head_name: str, batch):
    """Summed loss and mean gradients (L2 included, pre-clip) of one batch."""
    model, cfg, params = trainer.model, trainer.cfg, trainer.params
    head = model.heads[head_name]
    grads = zero_gradients(params)
    scored = [emission_cache(model.emission, inst.fvecs, head_name) for inst in batch]
    potentials = PotentialBatch(
        np.concatenate([em for em, _ in scored]),
        [inst.fvecs.shape[0] for inst in batch],
        *_transitions(model, head),
        head.stop,
    )
    losses, lattice_grads = loss_and_grad_batch(potentials, [inst.mask for inst in batch])
    total = 0.0
    for inst, (_, cache), loss, g in zip(batch, scored, losses, lattice_grads):
        total += loss
        reference_backprop(model.emission, inst.fvecs, head_name, g.d_emissions, cache, grads)
        grads[f"trans:{head_name}"] += g.d_transitions
        grads[f"start:{head_name}"] += g.d_start
        grads[f"stop:{head_name}"] += g.d_stop
    reg = _regularized_keys(head_name, params)
    for k in grads:
        grads[k] /= len(batch)
        if cfg.l2 and k in reg:
            grads[k] += cfg.l2 * params[k]
    return total, grads


def reference_batch_step(trainer, head_name: str, batch) -> float:
    """One optimizer step on the trainer's parameters and Adagrad accumulators."""
    total, grads = reference_batch_grads(trainer, head_name, batch)
    norm = np.sqrt(sum(float((g * g).sum()) for _, g in sorted(grads.items())))
    if norm > trainer.cfg.clip_norm:
        scale = trainer.cfg.clip_norm / norm
        for g in grads.values():
            g *= scale
    opt = trainer.opt
    for k, w in trainer.params.items():
        g = grads[k]
        a = opt.accum[k]
        a += g * g
        w -= opt.lr * g / (np.sqrt(a) + opt.eps)
    return total
