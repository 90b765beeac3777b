"""Sparse token features and the two emission scorers.

Feature templates, per position: lowercased identity and character shape for
the token and every window neighbor (offset marker inside the name, "w0",
"w+1", "shape-2", ...), prefixes/suffixes of length 1-3 and a digit flag for
the center token only.  Out-of-window positions contribute identity pseudo
features "w-1=<BOS>" / "w+1=<EOS>".

Features have one representation: CSR rows, one row per token, each counting
the token's feature ids (`count_rows`).  `FeatureVocabulary.matrix` builds
them from an immutable id table of the training strings, in which unknown
strings map to the reserved UNK id 0.

Emission scorers turn feature rows into CRF emission rows with one forward,
`emissions`, for a training batch and a tagging request alike: one sparse
product x @ weights, the weights stored feature-major (feature_count, rows),
so each CSR row sums its terms in order and a token's row is the same bits
in any batch, in training and in tagging.  The backward marks the columns a
batch uses (`_active`) and pushes its d_emissions into a (columns, rows)
block of the weights' gradient in one pass.
Both scorers are one first layer, x @ weights + bias, with its forward, its
checks, its backward and its two parameter entries, under a top of their
own.  The linear scorer's top is empty: the first layer gives the emission
rows.  The shared scorer squashes the first layer through tanh into a hidden
layer shared by all heads, under one output layer per head.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from typing import Any, Sequence

import numpy as np
from scipy import sparse

UNK_ID = 0
BOS = "<BOS>"
EOS = "<EOS>"


@lru_cache(maxsize=65536)
def word_shape(token: str) -> str:
    """Case/digit pattern: upper -> X, lower -> x, digit -> d, rest kept."""
    return "".join(
        "X" if c.isupper() else "x" if c.islower() else "d" if c.isdigit() else c
        for c in token
    )


def feature_strings(tokens: Sequence[str], i: int, radius: int = 2) -> list[str]:
    """Template features for position i, read out of `featurize` of the one
    sequence.  Pure; depends only on the window."""
    if not 0 <= i < len(tokens):
        raise ValueError(f"position {i} outside sequence of length {len(tokens)}")
    strings, positions, indptr = featurize([tokens], radius)
    return [strings[p] for p in positions[indptr[i]:indptr[i + 1]]]


def featurize(
    token_lists: Sequence[Sequence[str]], window: int
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The template features (module docstring) of every token, in the order
    w0, shape0, pre1, suf1 ... suf3, digit, then w/shape per window offset
    from -window up: the distinct strings in first-seen order, and per token
    (CSR-style indptr) the positions of its strings.

    Built by token type: each distinct token's lowercase form, shape and
    affixes are interned once in a table of K parts.  Every string is a slot
    name without "=" plus a part, so its key slot * K + part is equal exactly
    when the string is.  A (tokens, slots) key matrix gathers the parts in
    per-position order, with -1 where no string is made, and only the
    distinct keys are formatted."""
    tokens = [t for ts in token_lists for t in ts]
    types = {t: i for i, t in enumerate(dict.fromkeys(tokens))}
    tt = np.fromiter(map(types.__getitem__, tokens), np.int64, len(tokens))
    # Per type, the parts of w0, shape0, pre1, suf1 ... suf3, and "" for digit;
    # `made` masks the affixes longer than the token (not its lowercase form).
    row = [p for t, low in zip(types, map(str.lower, types)) for p in
           (low, word_shape(t), low[:1], low[-1:], low[:2], low[-2:], low[:3], low[-3:], "")]
    parts = {p: i for i, p in enumerate(dict.fromkeys([BOS, EOS, *row]))}
    tp = np.fromiter(map(parts.__getitem__, row), np.int64, len(row)).reshape(-1, 9)
    lens = np.fromiter(map(len, types), np.int64, len(types))
    digit = np.fromiter((any(map(str.isdigit, t)) for t in types), bool, len(types))
    made = np.column_stack([lens[:, None] >= [0, 0, 1, 1, 2, 2, 3, 3], digit])
    k = len(parts)
    marks = [(off, f"+{off}" if off > 0 else str(off)) for off in range(-window, window + 1) if off]
    slots = ["w0=", "shape0=", "pre1=", "suf1=", "pre2=", "suf2=", "pre3=", "suf3=", "digit"]
    slots += [f"{name}{mark}=" for _, mark in marks for name in ("w", "shape")]
    keys = np.empty((tt.size, len(slots)), np.int64)
    keys[:, :9] = np.where(made, tp + np.arange(9) * k, -1)[tt]
    lengths = [len(ts) for ts in token_lists]
    at = np.arange(tt.size) - np.repeat(np.cumsum([0] + lengths)[:-1], lengths)
    ends = np.repeat(lengths, lengths)
    for col, (off, _) in zip(range(9, len(slots), 2), marks):
        inside = (at + off >= 0) & (at + off < ends)
        seen = tp[np.take(tt, np.arange(tt.size) + off, mode="clip")]
        keys[:, col] = np.where(inside, seen[:, 0], parts[BOS if off < 0 else EOS]) + col * k
        keys[:, col + 1] = np.where(inside, seen[:, 1] + (col + 1) * k, -1)
    present = keys >= 0
    flat, order = keys[present], np.arange(present.sum())
    ids = np.full(len(slots) * k, flat.size, np.int64)
    np.minimum.at(ids, flat, order)  # each key's first position
    distinct = flat[ids[flat] == order]
    ids[distinct] = np.arange(distinct.size)
    slot, part = np.divmod(distinct, k)
    strings = np.array(slots, object)[slot] + np.array(list(parts), object)[part]
    return strings.tolist(), ids[flat], np.concatenate(([0], np.cumsum(present.sum(axis=1))))


class FeatureVocabulary:
    """Immutable feature-string -> id table: id i is table[i], and table[0] is
    the reserved UNK slot that every unknown string maps to."""

    def __init__(self, table: Sequence[str]) -> None:
        self._ids = dict(zip(table[1:], range(1, len(table))))
        if len(self._ids) != len(table) - 1:
            raise ValueError("duplicate feature strings")

    @property
    def size(self) -> int:
        return len(self._ids) + 1  # UNK included

    def matrix(
        self, strings: Sequence[str], positions: np.ndarray, indptr: np.ndarray
    ) -> sparse.csr_matrix:
        """`count_rows` of many tokens' strings, token t's at positions[indptr[t]:
        indptr[t + 1]]; each is looked up once, unknown ones counting as UNK."""
        ids = np.fromiter(map(self._ids.get, strings, repeat(UNK_ID)), dtype=np.int64,
                          count=len(strings))
        return count_rows(ids[positions], indptr, self.size)

    def strings_by_id(self) -> list[str]:
        """The id-ordered table, UNK slot first."""
        table = ["<UNK>"] * self.size
        for s, i in self._ids.items():
            table[i] = s
        return table


def count_rows(ids: np.ndarray, indptr: np.ndarray, width: int) -> sparse.csr_matrix:
    """Row t of `width` columns counts ids[indptr[t]:indptr[t + 1]] by id."""
    out = sparse.csr_matrix((np.ones(len(ids)), ids, indptr), shape=(len(indptr) - 1, width))
    out.sum_duplicates()
    return out


def _active(x: sparse.csr_matrix) -> tuple[np.ndarray, sparse.csr_matrix]:
    """The columns x uses, ascending, and x over just those columns, for the
    backward's weight block (the forward that scored x checked its ids).
    The columns are marked, not sorted, and a lookup set only at them maps
    each entry.  Entries keep their order, so x_local.T sums each column's
    terms in token order, as x.T does."""
    ids = x.indices.astype(np.intp)  # numpy indexes by intp arrays fastest
    mark = np.zeros(x.shape[1], bool)
    mark[ids] = True
    cols = np.flatnonzero(mark)
    local = np.empty(x.shape[1], x.indices.dtype)
    local[cols] = np.arange(cols.size)
    x_local = sparse.csr_matrix((x.data, local[ids], x.indptr), shape=(x.shape[0], cols.size))
    return cols.astype(x.indices.dtype), x_local


def _check_ids(indices: np.ndarray, feature_count: int) -> None:
    if indices.size and not 0 <= indices.min() <= indices.max() < feature_count:
        bad = indices.min() if indices.min() < 0 else indices.max()
        raise ValueError(f"feature id {int(bad)} out of bounds for {feature_count} features")


class _EmissionScorer:
    """The sparse first layer both scorers share, z = x @ weights + bias with
    weights (feature_count, rows), under a top that turns z into emission
    rows.  This class's top is empty (z is the emission row); a subclass
    replaces `rows`, `_hidden`, `_output` and `_top_backprop`.  `params` keys
    the first layer by `sparse_key` and `bias_key`."""

    sparse_key = "weights"  # the parameter `backprop` returns as a row block
    bias_key = "bias"

    def __init__(self, weights: np.ndarray, bias: np.ndarray) -> None:
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        if (self.weights.ndim != 2 or not self.bias.size
                or self.bias.shape != (self.weights.shape[1],)):
            raise ValueError(f"{self.sparse_key} must be (feature_count, rows >= 1), "
                             f"{self.bias_key} (rows,)")
        if not all(np.isfinite(a).all() for a in self.params().values()):
            raise ValueError("parameters must be finite")

    @property
    def feature_count(self) -> int:
        return self.weights.shape[0]

    def rows(self, head: str | None) -> int:  # emission rows scored for head
        return self.weights.shape[1]

    def _hidden(self, z: np.ndarray) -> np.ndarray:  # the top's input
        return z

    def _output(self, hidden: np.ndarray, head: str | None) -> np.ndarray:
        return hidden

    def _top_backprop(self, head: str | None, d_emissions: np.ndarray, hidden: np.ndarray,
                      bounds: np.ndarray, out: dict[str, np.ndarray]) -> np.ndarray:
        return d_emissions  # d_z; a top adds its gradients into out per sequence

    def emissions(self, x: sparse.csr_matrix,
                  heads: Sequence[str | None]) -> tuple[dict, np.ndarray]:
        """The one forward: emission rows of every row of x for each named
        head, and the top's input, which `backprop` reads.  The first layer
        and the top's input are computed once for all of the heads."""
        _check_ids(x.indices, self.feature_count)
        hidden = self._hidden(x @ self.weights + self.bias)
        return {name: self._output(hidden, name) for name in heads}, hidden

    def backprop(self, head: str | None, d_emissions: np.ndarray, lengths: Sequence[int],
                 cache: tuple, out: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Backward pass of a batch x, from the cache `emission_cache` made for
        it (x, the top's input), its d_emissions rows and the lengths of its
        sequences in batch order.  Adds the top's and the first layer's bias
        gradients into out one sequence at a time; returns the weights'
        gradient as (the columns x uses, their (columns, rows) block of weight
        rows), which one transposed-CSR product sums in token order."""
        x, hidden = cache
        n = x.shape[0]
        if d_emissions.shape != (n, self.rows(head)) or sum(lengths) != n:
            raise ValueError("d_emissions shape mismatch")
        bounds = np.cumsum(lengths)[:-1]
        d_z = self._top_backprop(head, d_emissions, hidden, bounds, out)
        for d in np.split(d_z, bounds):
            out[self.bias_key] += d.sum(axis=0)
        cols, x_local = _active(x)
        return cols, x_local.T @ d_z

    def params(self) -> dict[str, np.ndarray]:
        return {self.sparse_key: self.weights, self.bias_key: self.bias}


class LinearEmissionModel(_EmissionScorer):
    """Emission row = weights . f + bias: the first layer with an empty top.
    One output layer serves every head, so the head argument is ignored."""

    @classmethod
    def zeros(cls, y_count: int, feature_count: int) -> "LinearEmissionModel":
        return cls(np.zeros((feature_count, y_count)), np.zeros(y_count))

    @classmethod
    def from_params(cls, params: dict, heads: Sequence[str]) -> "LinearEmissionModel":
        return cls(params["weights"], params["bias"])  # the inverse of `params`


class SharedEmissionModel(_EmissionScorer):
    """The first layer squashed into one tanh hidden layer shared by every
    head, under one linear output layer per head."""

    sparse_key, bias_key = "shared_weights", "shared_bias"

    def __init__(self, shared_weights: np.ndarray, shared_bias: np.ndarray,
                 heads: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
        self.heads = {name: (np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))
                      for name, (w, b) in heads.items()}
        super().__init__(shared_weights, shared_bias)
        for name, (w, b) in self.heads.items():
            if w.ndim != 2 or w.shape[1] != self.hidden_dim or b.shape != (w.shape[0],):
                raise ValueError(f"head {name} shapes inconsistent")

    @classmethod
    def create(
        cls,
        hidden_dim: int,
        feature_count: int,
        head_sizes: dict[str, int],
        rng: np.random.Generator,
    ) -> "SharedEmissionModel":
        # Random shared weights, drawn unit by unit and stored feature-major,
        # break hidden-unit symmetry; heads start at zero.
        shared_w = rng.uniform(-0.1, 0.1, size=(hidden_dim, feature_count)).T
        heads = {
            name: (np.zeros((y, hidden_dim)), np.zeros(y))
            for name, y in head_sizes.items()
        }
        return cls(shared_w, np.zeros(hidden_dim), heads)

    @classmethod
    def from_params(cls, params: dict, heads: Sequence[str]) -> "SharedEmissionModel":
        return cls(params["shared_weights"], params["shared_bias"],
                   {n: (params[f"head:{n}:weights"], params[f"head:{n}:bias"]) for n in heads})

    def rows(self, head: str) -> int:
        return self._head(head)[0].shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.weights.shape[1]

    def _head(self, head: str) -> tuple[np.ndarray, np.ndarray]:
        try:
            return self.heads[head]
        except KeyError:
            raise ValueError(f"unknown head {head!r}") from None

    def _hidden(self, z: np.ndarray) -> np.ndarray:
        return np.tanh(z)

    def _output(self, hidden: np.ndarray, head: str) -> np.ndarray:
        head_w, head_b = self._head(head)
        # One hidden unit at a time, so a row's sum runs in the same order
        # however many rows are scored together (a BLAS product picks its
        # summation order by matrix shape).
        em = np.zeros((hidden.shape[0], head_w.shape[0]))
        for j in range(self.hidden_dim):
            em += hidden[:, j, None] * head_w[:, j]
        return em + head_b

    def _top_backprop(self, head: str, d_emissions: np.ndarray, hidden: np.ndarray,
                      bounds: np.ndarray, out: dict[str, np.ndarray]) -> np.ndarray:
        head_w, _ = self._head(head)
        d_hidden = []
        for d, h in zip(np.split(d_emissions, bounds), np.split(hidden, bounds)):
            out[f"head:{head}:weights"] += d.T @ h
            out[f"head:{head}:bias"] += d.sum(axis=0)
            d_hidden.append((d @ head_w) * (1.0 - h * h))
        return np.concatenate(d_hidden)

    def params(self) -> dict[str, np.ndarray]:
        out = super().params()
        for name, (w, b) in self.heads.items():
            out[f"head:{name}:weights"] = w
            out[f"head:{name}:bias"] = b
        return out


def zero_gradients(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.items()}


def emission_cache(model: Any, x: sparse.csr_matrix, head: str | None):
    """(emissions, cache) of a training batch x for one head of either
    scorer: its `emissions` rows, and x with the top's input for `backprop`."""
    rows, hidden = model.emissions(x, [head])
    return rows[head], (x, hidden)


def emission_backprop(model: Any, head: str | None, d_emissions: np.ndarray,
                      lengths: Sequence[int], cache: Any, out: dict[str, np.ndarray]):
    """Either scorer's backward pass over one batch (see `backprop`)."""
    return model.backprop(head, d_emissions, lengths, cache, out)
