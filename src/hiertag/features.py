"""Sparse token features and the two emission scorers.

Feature templates, per position: lowercased identity and character shape for
the token and every window neighbor (offset marker inside the name, "w0",
"w+1", "shape-2", ...), prefixes/suffixes of length 1-3 and a digit flag for
the center token only.  Out-of-window positions contribute identity pseudo
features "w-1=<BOS>" / "w+1=<EOS>".  The vocabulary is built once, then
frozen; unknown strings map to the reserved UNK id 0.

Emission scorers turn the feature rows of one sequence (a CSR matrix, one
row per token, as `FeatureVocabulary.matrix` builds it) into CRF emission
rows and push d_emissions back into parameter gradients.  For tagging they
also score a whole request at once from one sparse matrix.
The linear scorer is a single weight matrix; the shared scorer squashes one
tanh hidden layer shared by all heads, with one output layer per head.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Sequence

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


def _marks(radius: int) -> list[tuple[int, str]]:
    return [(off, f"+{off}" if off > 0 else str(off)) for off in range(-radius, radius + 1) if off]


def _templates(tokens: Sequence[str], i: int, lows, shapes, marks) -> list[str]:
    """Template features for position i, given the lowercased form and shape
    of every token its window sees."""
    tok, low = tokens[i], lows[i]
    feats = [f"w0={low}", f"shape0={shapes[i]}"]
    for k in (1, 2, 3):
        if len(tok) >= k:
            feats.append(f"pre{k}={low[:k]}")
            feats.append(f"suf{k}={low[-k:]}")
    if any(c.isdigit() for c in tok):
        feats.append("digit")
    for off, mark in marks:
        j = i + off
        if j < 0:
            feats.append(f"w{mark}={BOS}")
        elif j >= len(tokens):
            feats.append(f"w{mark}={EOS}")
        else:
            feats.append(f"w{mark}={lows[j]}")
            feats.append(f"shape{mark}={shapes[j]}")
    return feats


def feature_strings(tokens: Sequence[str], i: int, radius: int = 2) -> list[str]:
    """Template features for position i.  Pure; depends only on the window."""
    if not 0 <= i < len(tokens):
        raise ValueError(f"position {i} outside sequence of length {len(tokens)}")
    window = range(max(i - radius, 0), min(i + radius + 1, len(tokens)))
    lows = {j: tokens[j].lower() for j in window}
    shapes = {j: word_shape(tokens[j]) for j in window}
    return _templates(tokens, i, lows, shapes, _marks(radius))


def window_features(tokens: Sequence[str], radius: int = 2) -> list[list[str]]:
    """`feature_strings` of every position of one sequence; each token is
    lowercased and shaped once, not once per window that sees it."""
    lows = [t.lower() for t in tokens]
    shapes = [word_shape(t) for t in tokens]
    marks = _marks(radius)
    return [_templates(tokens, i, lows, shapes, marks) for i in range(len(tokens))]


@dataclass
class FeatureVector:
    """Sparse indicator vector: strictly increasing ids, parallel values."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.indices.shape != self.values.shape or self.indices.ndim != 1:
            raise ValueError("indices and values must be parallel 1-d arrays")
        if self.indices.size:
            if self.indices[0] < 0:
                raise ValueError("negative feature id")
            if (np.diff(self.indices) <= 0).any():
                raise ValueError("feature ids must be strictly increasing")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureVector):
            return NotImplemented
        return np.array_equal(self.indices, other.indices) and np.array_equal(
            self.values, other.values
        )


class FeatureVocabulary:
    """Feature-string -> id map.  Id 0 is reserved for unknowns after freeze."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self.frozen = False

    @property
    def size(self) -> int:
        return len(self._ids) + 1  # UNK included

    def id_of(self, feature: str) -> int:
        got = self._ids.get(feature)
        if got is not None:
            return got
        if self.frozen:
            return UNK_ID
        new = len(self._ids) + 1
        self._ids[feature] = new
        return new

    def freeze(self) -> None:
        self.frozen = True

    def vectorize(self, features: Iterable[str]) -> FeatureVector:
        acc: dict[int, float] = {}
        for s in features:
            fid = self.id_of(s)
            acc[fid] = acc.get(fid, 0.0) + 1.0
        ids = sorted(acc)
        return FeatureVector(
            np.fromiter(ids, dtype=np.int64, count=len(ids)),
            np.fromiter((acc[i] for i in ids), dtype=np.float64, count=len(ids)),
        )

    def matrix(
        self, strings: Sequence[str], positions: np.ndarray, indptr: np.ndarray
    ) -> sparse.csr_matrix:
        """Summed indicator rows for many tokens at once: token t holds the
        strings at positions[indptr[t]:indptr[t + 1]].  Each string is looked
        up once; unknown ones count toward UNK.  Row t equals `vectorize` of
        token t's strings under a frozen vocabulary."""
        get = self._ids.get
        ids = np.fromiter((get(s, UNK_ID) for s in strings), dtype=np.int64, count=len(strings))
        out = sparse.csr_matrix(
            (np.ones(len(positions)), ids[positions], indptr),
            shape=(len(indptr) - 1, self.size),
        )
        out.sum_duplicates()
        return out

    def strings_by_id(self) -> list[str]:
        """Id-ordered table, UNK slot first; inverse of id_of for known ids."""
        table = ["<UNK>"] * self.size
        for s, i in self._ids.items():
            table[i] = s
        return table

    @classmethod
    def from_strings(cls, table: Sequence[str]) -> "FeatureVocabulary":
        """The frozen vocabulary whose id i is table[i] (table[0] is the UNK slot)."""
        vocab = cls()
        vocab._ids = dict(zip(table[1:], range(1, len(table))))
        if len(vocab._ids) != len(table) - 1:
            raise ValueError("duplicate feature strings")
        vocab.freeze()
        return vocab


def _token_rows(x: sparse.csr_matrix) -> list[tuple[np.ndarray, np.ndarray]]:
    """The feature ids and values of each row of x."""
    ptr = x.indptr.tolist()
    return [(x.indices[a:b], x.data[a:b]) for a, b in zip(ptr[:-1], ptr[1:])]


def _scatter_rows(d_w: np.ndarray, x: sparse.csr_matrix, d_rows: np.ndarray) -> None:
    """d_w[:, f] += d_rows[t] * x[t, f] for every stored entry of x, row by
    row in order, so each column sums its terms in token order."""
    tokens = np.repeat(np.arange(x.shape[0]), np.diff(x.indptr))
    np.add.at(d_w.T, x.indices, d_rows[tokens] * x.data[:, None])


def _check_ids(indices: np.ndarray, feature_count: int) -> None:
    if indices.size and indices.max() >= feature_count:
        raise ValueError(
            f"feature id {int(indices.max())} out of bounds for {feature_count} features"
        )


class LinearEmissionModel:
    """Emission row = weights . f + bias.  One output layer serves every head,
    so the head argument of `emissions` and `backprop` is ignored."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray) -> None:
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("weights must be (y_count, feature_count), bias (y_count,)")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("parameters must be finite")

    @classmethod
    def zeros(cls, y_count: int, feature_count: int) -> "LinearEmissionModel":
        return cls(np.zeros((y_count, feature_count)), np.zeros(y_count))

    @property
    def feature_count(self) -> int:
        return self.weights.shape[1]

    def score_row(self, f: FeatureVector) -> np.ndarray:
        _check_ids(f.indices, self.feature_count)
        return self.weights[:, f.indices] @ f.values + self.bias

    def emissions(self, x: sparse.csr_matrix, head: str | None) -> tuple[np.ndarray, None]:
        _check_ids(x.indices, self.feature_count)
        out = np.empty((x.shape[0], self.weights.shape[0]))
        for i, (ids, values) in enumerate(_token_rows(x)):
            out[i] = self.weights[:, ids] @ values + self.bias
        return out, None

    def batch_emissions(self, x: sparse.csr_matrix, heads: Sequence[str]) -> dict[str, np.ndarray]:
        """Emission rows of every row of x, the same array for each head."""
        _check_ids(x.indices, self.feature_count)
        return dict.fromkeys(heads, x @ self.weights.T + self.bias)

    def backprop(
        self,
        x: sparse.csr_matrix,
        head: str | None,
        d_emissions: np.ndarray,
        cache: None,
        out: dict[str, np.ndarray],
    ) -> None:
        y, _ = self.weights.shape
        if d_emissions.shape != (x.shape[0], y):
            raise ValueError("d_emissions shape mismatch")
        _scatter_rows(out["weights"], x, d_emissions)
        out["bias"] += d_emissions.sum(axis=0)

    def params(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}


class SharedEmissionModel:
    """One tanh hidden layer shared by every head, one linear layer per head."""

    def __init__(
        self,
        shared_weights: np.ndarray,
        shared_bias: np.ndarray,
        heads: dict[str, tuple[np.ndarray, np.ndarray]],
    ) -> None:
        self.shared_weights = np.asarray(shared_weights, dtype=np.float64)
        self.shared_bias = np.asarray(shared_bias, dtype=np.float64)
        h = self.shared_weights.shape[0]
        if self.shared_weights.ndim != 2 or h < 1 or self.shared_bias.shape != (h,):
            raise ValueError("shared layer shapes inconsistent")
        self.heads = {}
        for name, (w, b) in heads.items():
            w = np.asarray(w, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            if w.ndim != 2 or w.shape[1] != h or b.shape != (w.shape[0],):
                raise ValueError(f"head {name} shapes inconsistent")
            self.heads[name] = (w, b)
        if not all(np.isfinite(a).all() for a in self.params().values()):
            raise ValueError("parameters must be finite")

    @classmethod
    def create(
        cls,
        hidden_dim: int,
        feature_count: int,
        head_sizes: dict[str, int],
        rng: np.random.Generator,
    ) -> "SharedEmissionModel":
        # Random shared weights break hidden-unit symmetry; heads start at zero.
        shared_w = rng.uniform(-0.1, 0.1, size=(hidden_dim, feature_count))
        heads = {
            name: (np.zeros((y, hidden_dim)), np.zeros(y))
            for name, y in head_sizes.items()
        }
        return cls(shared_w, np.zeros(hidden_dim), heads)

    @property
    def feature_count(self) -> int:
        return self.shared_weights.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.shared_weights.shape[0]

    def _head(self, head: str) -> tuple[np.ndarray, np.ndarray]:
        try:
            return self.heads[head]
        except KeyError:
            raise ValueError(f"unknown head {head!r}") from None

    def score_row(self, f: FeatureVector, head: str) -> np.ndarray:
        head_w, head_b = self._head(head)
        _check_ids(f.indices, self.feature_count)
        hidden = np.tanh(self.shared_weights[:, f.indices] @ f.values + self.shared_bias)
        return head_w @ hidden + head_b

    def emissions(self, x: sparse.csr_matrix, head: str) -> tuple[np.ndarray, np.ndarray]:
        head_w, head_b = self._head(head)
        _check_ids(x.indices, self.feature_count)
        hidden = np.empty((x.shape[0], self.hidden_dim))
        for i, (ids, values) in enumerate(_token_rows(x)):
            hidden[i] = self.shared_weights[:, ids] @ values + self.shared_bias
        hidden = np.tanh(hidden)
        return hidden @ head_w.T + head_b, hidden

    def batch_emissions(self, x: sparse.csr_matrix, heads: Sequence[str]) -> dict[str, np.ndarray]:
        """Emission rows of every row of x for each named head; the hidden
        layer is computed once for all of them."""
        _check_ids(x.indices, self.feature_count)
        hidden = np.tanh(x @ self.shared_weights.T + self.shared_bias)
        out = {}
        for name in heads:
            head_w, head_b = self._head(name)
            # One hidden unit at a time, so a row's sum runs in the same order
            # however many rows are scored together (a BLAS product picks its
            # summation order by matrix shape).
            em = np.zeros((hidden.shape[0], head_w.shape[0]))
            for j in range(self.hidden_dim):
                em += hidden[:, j, None] * head_w[:, j]
            out[name] = em + head_b
        return out

    def backprop(
        self,
        x: sparse.csr_matrix,
        head: str,
        d_emissions: np.ndarray,
        hidden: np.ndarray,
        out: dict[str, np.ndarray],
    ) -> None:
        head_w, _ = self._head(head)
        if d_emissions.shape != (x.shape[0], head_w.shape[0]):
            raise ValueError("d_emissions shape mismatch")
        out[f"head:{head}:weights"] += d_emissions.T @ hidden
        out[f"head:{head}:bias"] += d_emissions.sum(axis=0)
        d_hidden = (d_emissions @ head_w) * (1.0 - hidden * hidden)
        _scatter_rows(out["shared_weights"], x, d_hidden)
        out["shared_bias"] += d_hidden.sum(axis=0)

    def params(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {
            "shared_weights": self.shared_weights,
            "shared_bias": self.shared_bias,
        }
        for name, (w, b) in self.heads.items():
            out[f"head:{name}:weights"] = w
            out[f"head:{name}:bias"] = b
        return out


def zero_gradients(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.items()}


def emission_cache(model: Any, x: sparse.csr_matrix, head: str | None):
    """(emissions, cache) of either scorer for one head."""
    return model.emissions(x, head)


def emission_backprop(
    model: Any,
    x: sparse.csr_matrix,
    head: str | None,
    d_emissions: np.ndarray,
    cache: Any,
    out: dict[str, np.ndarray],
) -> None:
    model.backprop(x, head, d_emissions, cache, out)
