"""Brute-force reference implementations the fast code is checked against."""

from __future__ import annotations

import numpy as np

from hiertag.crf import LatticeGradients, LatticeMask, PotentialTable, sequence_score


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
        return sequence_score(table, path), unary, pairwise
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
