"""The four model families: one fine-grained CRF trained through the tag
hierarchy (hier), plus the three baselines (concat, indep, mtl).

All kinds share one training core: per-token lattice masks express what the
gold annotation allows, and the loss is the full-vs-masked partition gap.
For hier the mask at a token tagged d is the fine cover of d within the
corpus tagset (unannotated tokens carry the tagset's Other cover); baselines
use singleton masks, which reduces the loss to ordinary CRF likelihood.

Predictions stay in tag space (the synthesized "<tagset>-Other" names
included); writers collapse them to "O" at the file boundary.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import sparse

from hiertag.crf import LatticeMask, PotentialBatch
# perfbench/spans.py times the lattice by wrapping these names in this module,
# so the batch kernels that train, decode and score collisions are bound under
# the names it looks up.
from hiertag.crf import forward_backward as marginals
from hiertag.crf import loss_and_grad_batch as loss_and_grad
from hiertag.crf import sequence_log_prob  # noqa: F401  (wrapped there; nothing calls it)
from hiertag.crf import viterbi_batch as viterbi
from hiertag.data import OTHER, Corpus
from hiertag.evaluation import score
from hiertag.features import (
    FeatureVocabulary,
    LinearEmissionModel,
    SharedEmissionModel,
    emission_backprop,
    emission_cache,
    feature_strings,  # noqa: F401  (perfbench/spans.py counts calls of this name)
    featurize,
    zero_gradients,
)
from hiertag.hierarchy import ExtendedHierarchy, HierarchyError

BIO_PENALTY = -10000.0


class ModelError(ValueError):
    """Inconsistent training inputs or prediction requests."""


class TrainingDiverged(ModelError):
    """A training step overflowed or produced a non-finite loss or gradient."""


class ModelKind(str, Enum):
    HIER = "hier"
    CONCAT = "concat"
    INDEP = "indep"
    MTL = "mtl"


class ConsolidationMethod(str, Enum):
    RANDOM = "random"
    BEST_SEQUENCE_SCORE = "best-sequence-score"
    MAX_MARGINAL = "max-marginal"


@dataclass(frozen=True)
class TrainingConfig:
    seed: int = 0
    epochs: int = 200
    batch_size: int = 8
    learning_rate: float = 0.5
    l2: float = 1e-4
    clip_norm: float = 5.0
    patience: int = 10
    window: int = 2
    hidden_dim: int = 16
    bio: bool = False

    def __post_init__(self) -> None:
        for f in fields(self):  # numpy numbers are stored as Python ones
            v = getattr(self, f.name)
            kind = {"int": numbers.Integral, "float": numbers.Real, "bool": bool}[f.type]
            if not isinstance(v, kind) or (isinstance(v, bool) and kind is not bool):
                raise ModelError(f"{f.name} must be {f.type}, got {v!r}")
            if kind is not bool:
                integral = kind is numbers.Integral or isinstance(v, int)
                object.__setattr__(self, f.name, int(v) if integral else float(v))
        if self.seed < 0:
            raise ModelError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 1 or self.batch_size < 1 or self.patience < 1:
            raise ModelError("epochs, batch_size and patience must be >= 1")
        # Negated comparisons, so NaN fails them; clip_norm inf means no clipping.
        if not (0 < self.learning_rate < math.inf and self.clip_norm > 0):
            raise ModelError("learning_rate must be positive and finite, clip_norm positive")
        if not (0 <= self.l2 < math.inf) or self.window < 0 or self.hidden_dim < 1:
            raise ModelError("finite l2 >= 0, window >= 0, hidden_dim >= 1 required")


@dataclass
class Head:
    """One CRF head: an ordered tag domain with its transition parameters."""

    name: str
    domain: list[str]
    transitions: np.ndarray
    start: np.ndarray
    stop: np.ndarray


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_f1: float | None


# Called with the model and the record of each epoch as the epoch ends.
EpochCallback = Callable[["TrainedModel", EpochRecord], None]


@dataclass
class TrainedModel:
    kind: ModelKind
    hierarchy: ExtendedHierarchy
    vocab: FeatureVocabulary
    emission: LinearEmissionModel | SharedEmissionModel
    heads: dict[str, Head]
    config: TrainingConfig
    history: list[EpochRecord] = field(default_factory=list, repr=False)

    def head(self, name: str) -> Head:
        try:
            return self.heads[name]
        except KeyError:
            raise ModelError(f"model has no head {name!r}") from None

    def single_head(self) -> Head:
        if len(self.heads) != 1:
            raise ModelError(f"expected exactly one head, found {len(self.heads)}")
        return next(iter(self.heads.values()))


def expand_bio(domain: Sequence[str]) -> list[str]:
    out = []
    for t in domain:
        if t == OTHER:
            out.append(t)
        else:
            out.extend((f"B-{t}", f"I-{t}"))
    return sorted(out)


def collapse_bio(tag: str) -> str:
    return tag[2:] if tag.startswith(("B-", "I-")) else tag


def _bio_offsets(domain: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Additive score offsets forbidding I-x except after B-x/I-x."""
    inside = np.array([t.startswith("I-") for t in domain], dtype=bool)
    stems = np.array([collapse_bio(t) for t in domain], dtype=object)
    barred = inside[None, :] & (stems[:, None] != stems[None, :])
    return np.where(barred, BIO_PENALTY, 0.0), np.where(inside, BIO_PENALTY, 0.0)


def _transitions(model: TrainedModel, head: Head) -> tuple[np.ndarray, np.ndarray]:
    """The head's transition and start scores, with the BIO offsets if on."""
    if not model.config.bio:
        return head.transitions, head.start
    t_off, s_off = _bio_offsets(head.domain)
    return head.transitions + t_off, head.start + s_off


def _original_members(eh: ExtendedHierarchy, tagset: str) -> frozenset[str]:
    other = eh.other_tag(tagset)  # an unknown tagset raises here
    return eh.tagsets[tagset] - {other}


def _check_datasets(datasets: Sequence[Corpus], eh: ExtendedHierarchy,
                    dev: Sequence[Corpus] | None, per_tagset: bool = False) -> None:
    """Every training and dev corpus names a known tagset and tags inside it;
    a model with one head per tagset scores dev corpora of those tagsets only."""
    if not datasets:
        raise ModelError("no training datasets")
    for corpus in [*datasets, *(dev or ())]:
        if not corpus.tagset_name:
            raise ModelError("every training and dev corpus needs a tagset name")
        members = _original_members(eh, corpus.tagset_name)
        if OTHER in members:
            raise ModelError(f"tagset {corpus.tagset_name} declares reserved tag O")
        corpus.check_tags(members)
    untrained = {c.tagset_name for c in dev or ()} - {c.tagset_name for c in datasets}
    if per_tagset and untrained:
        raise ModelError(f"dev tagset {min(untrained)} is not a training tagset")


@dataclass
class _Instance:
    fvecs: sparse.csr_matrix  # the sequence's feature vectors, one row per token
    mask: LatticeMask


def _sequence_rows(
    token_lists: Sequence[Sequence[str]],
    vocab: FeatureVocabulary,
    features: tuple[list[str], np.ndarray, np.ndarray],
) -> list[sparse.csr_matrix]:
    """Each sequence's rows of the feature-id matrix of `featurize` output."""
    x = vocab.matrix(*features)
    edges = np.cumsum([0] + [len(t) for t in token_lists]).tolist()
    return [x[a:b] for a, b in zip(edges[:-1], edges[1:])]


def _vectorize_corpus(
    corpus: Corpus, vocab: FeatureVocabulary, window: int
) -> list[sparse.csr_matrix]:
    """Each sequence's feature rows under the vocabulary."""
    token_lists = [seq.texts() for seq in corpus.sequences]
    return _sequence_rows(token_lists, vocab, featurize(token_lists, window))


def _domain_indices(domain: Sequence[str], bio: bool) -> tuple[dict[str, int], np.ndarray]:
    """Each base tag's index, in first-seen order, and for each column of the
    (possibly BIO-expanded) domain the index of the base tag it expands."""
    index: dict[str, int] = {}
    columns = [index.setdefault(collapse_bio(t) if bio else t, len(index)) for t in domain]
    return index, np.array(columns, dtype=np.int64)


def _hier_mask(
    tags: Sequence[str], eh: ExtendedHierarchy, tagset: str, pos: tuple[dict[str, int], np.ndarray]
) -> LatticeMask:
    """Each token keeps the fine tags that its gold tag owns in the tagset
    (O reads as the tagset's Other)."""
    index, columns = pos
    other = eh.other_tag(tagset)
    members = eh.member_index[tagset]
    ids = np.array([members[other if g == OTHER else g] for g in tags], dtype=np.int64)
    owners = eh.owner[tagset][[eh.fine_index[t] for t in index]]  # member of each base tag
    return LatticeMask(owners[columns] == ids[:, None])


def _singleton_mask(tags: Sequence[str], pos: tuple[dict[str, int], np.ndarray]) -> LatticeMask:
    index, columns = pos
    return LatticeMask(columns == np.array([index[g] for g in tags], dtype=np.int64)[:, None])


class _Adagrad:
    """In-place Adagrad, a block of rows at a time so each block's passes run
    in cache.  `step` needs grads[k] ** 2 in squares[k] (`_clip` leaves it)."""

    BLOCK = 16384  # elements per block, at least one row

    def __init__(self, params: dict[str, np.ndarray], lr: float, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.eps = eps
        self.accum = {k: np.zeros_like(v) for k, v in params.items()}
        self.squares = {k: np.empty_like(v) for k, v in params.items()}
        self._denom = {
            k: np.empty_like(v[: max(1, self.BLOCK * len(v) // v.size)]) for k, v in params.items()
        }

    def step(self, grads: dict[str, np.ndarray]) -> None:
        # params -= lr * g / (sqrt(accum) + eps), rounded as that expression is.
        for k, w in self.params.items():
            accum, squares, g, denom = self.accum[k], self.squares[k], grads[k], self._denom[k]
            for lo in range(0, len(w), len(denom)):
                rows = slice(lo, lo + len(denom))
                a, t, w_rows = accum[rows], squares[rows], w[rows]
                d = denom[: len(a)]
                a += t
                np.sqrt(a, out=d)
                d += self.eps
                np.multiply(g[rows], self.lr, out=t)
                t /= d
                w_rows -= t


def _regularized_keys(head_name: str, params: dict[str, np.ndarray]) -> set[str]:
    """Weight and transition matrices touched by a batch on this head; biases,
    start/stop vectors and inactive heads never decay."""
    wanted = {"weights", "shared_weights", f"head:{head_name}:weights", f"trans:{head_name}"}
    return {k for k in wanted if k in params}


def _clip(
    grads: dict[str, np.ndarray], max_norm: float, squares: dict[str, np.ndarray]
) -> float:
    """Scale grads in place to a global norm of at most max_norm, leaving
    each g * g of the final grads in squares; returns the norm before."""
    for k, g in grads.items():
        np.square(g, out=squares[k])
    total = np.sqrt(sum(float(squares[k].sum()) for k in sorted(grads)))
    if total > max_norm:
        scale = max_norm / total
        for k, g in grads.items():
            g *= scale
            np.square(g, out=squares[k])
    return total


class _Trainer:
    """Shared optimization loop over one or more heads."""

    def __init__(
        self,
        model: TrainedModel,
        instances: dict[str, list[_Instance]],
        cfg: TrainingConfig,
    ) -> None:
        self.model = model
        self.instances = instances
        self.cfg = cfg
        self.params: dict[str, np.ndarray] = dict(model.emission.params())
        for name, head in model.heads.items():
            self.params[f"trans:{name}"] = head.transitions
            self.params[f"start:{name}"] = head.start
            self.params[f"stop:{name}"] = head.stop
        self.opt = _Adagrad(self.params, cfg.learning_rate)

    def _batch_grads(
        self, head_name: str, batch: list[_Instance]
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Summed data loss and mean gradients (L2 included, pre-clip), in
        arrays of their own.  Each term sums over the batch in batch order."""
        model, cfg = self.model, self.cfg
        head = model.heads[head_name]
        sparse_key = model.emission.sparse_key
        grads = zero_gradients({k: v for k, v in self.params.items() if k != sparse_key})
        x = sparse.vstack([inst.fvecs for inst in batch], format="csr")
        emissions, cache = emission_cache(model.emission, x, head_name)
        potentials = PotentialBatch(
            emissions,
            [inst.fvecs.shape[0] for inst in batch],
            *_transitions(model, head),
            head.stop,
        )
        losses, lattice_grads = loss_and_grad(potentials, [inst.mask for inst in batch])
        total = 0.0
        for loss, g in zip(losses, lattice_grads):
            total += loss
            grads[f"trans:{head_name}"] += g.d_transitions
            grads[f"start:{head_name}"] += g.d_start
            grads[f"stop:{head_name}"] += g.d_stop
        cols, block = emission_backprop(
            model.emission, head_name, [g.d_emissions for g in lattice_grads], cache, grads
        )
        n = len(batch)
        reg = _regularized_keys(head_name, self.params) if cfg.l2 else set()
        for k, g in grads.items():
            g /= n
            if k in reg:
                g += cfg.l2 * self.params[k]
        # The data term is zero off the active columns, where only L2 is left
        # (0 / n + l2 * w is l2 * w exactly, as w never holds -0.0).
        w = self.params[sparse_key]
        grads[sparse_key] = w * cfg.l2 if sparse_key in reg else np.zeros_like(w)
        grads[sparse_key][:, cols] += block / n
        return total, grads

    def _batch_step(self, head_name: str, batch: list[_Instance]) -> float:
        total, grads = self._batch_grads(head_name, batch)
        norm = _clip(grads, self.cfg.clip_norm, self.opt.squares)
        if not (math.isfinite(total) and math.isfinite(norm)):
            raise FloatingPointError("non-finite loss or gradient norm")
        self.opt.step(grads)
        return total

    def run(self, dev_f1, on_epoch: EpochCallback | None = None) -> None:
        cfg = self.cfg
        names = sorted(self.instances)
        sizes = {n: len(self.instances[n]) for n in names}
        steps = -(-max(sizes.values()) // cfg.batch_size)
        rngs = {n: np.random.default_rng([cfg.seed, i]) for i, n in enumerate(names)}

        def batches(name: str):
            insts = self.instances[name]
            while True:
                order = rngs[name].permutation(len(insts))
                for s in range(0, len(insts), cfg.batch_size):
                    yield [insts[i] for i in order[s : s + cfg.batch_size]]

        streams = {n: batches(n) for n in names}
        best_f1 = -1.0
        best_snapshot: dict[str, np.ndarray] | None = None
        stale = 0

        for epoch in range(1, cfg.epochs + 1):
            loss_sum = 0.0
            seen = 0
            for step in range(1, steps + 1):
                for name in names:
                    batch = next(streams[name])
                    try:
                        with np.errstate(over="raise", invalid="raise"):
                            loss_sum += self._batch_step(name, batch)
                    except FloatingPointError as exc:
                        raise TrainingDiverged(
                            f"{self.model.kind.value} training diverged on head {name!r} "
                            f"at epoch {epoch}, step {step}: {exc}"
                        ) from exc
                    seen += len(batch)
            record = EpochRecord(epoch, loss_sum / seen, None)
            if dev_f1 is not None:
                f1 = dev_f1(self.model)
                record.dev_f1 = f1
                if f1 > best_f1 + 1e-12:
                    best_f1 = f1
                    best_snapshot = {k: v.copy() for k, v in self.params.items()}
                    stale = 0
                else:
                    stale += 1
            self.model.history.append(record)
            if on_epoch is not None:
                on_epoch(self.model, record)
            if dev_f1 is not None and stale >= cfg.patience:
                break
        if best_snapshot is not None:
            for k, v in self.params.items():
                v[...] = best_snapshot[k]


def _new_head(name: str, domain: list[str]) -> Head:
    y = len(domain)
    return Head(name, domain, np.zeros((y, y)), np.zeros(y), np.zeros(y))


def _build_vocab(
    datasets: Sequence[Corpus], window: int
) -> tuple[FeatureVocabulary, list[sparse.csr_matrix]]:
    """The vocabulary of every training feature string, ids in
    first-seen order, and the feature rows of every sequence of every
    corpus in turn, from one featurization pass."""
    token_lists = [seq.texts() for corpus in datasets for seq in corpus.sequences]
    features = featurize(token_lists, window)
    vocab = FeatureVocabulary(["<UNK>", *features[0]])
    return vocab, _sequence_rows(token_lists, vocab, features)


def _dev_scorer(dev: Sequence[Corpus] | None, eh: ExtendedHierarchy):
    """Micro F1 of a model on the dev corpora, each under its own tagset.
    The dev tokens are featurized once, not once per epoch."""
    if not dev:
        return None
    requests = [_Request([seq.texts() for seq in corpus.sequences]) for corpus in dev]
    golds = [seq.tags() for corpus in dev for seq in corpus.sequences]

    def dev_f1(model: TrainedModel) -> float:
        preds = []
        for corpus, request in zip(dev, requests):
            ts = corpus.tagset_name
            per_tagset = model.kind in (ModelKind.INDEP, ModelKind.MTL)
            head = model.head(ts) if per_tagset else model.single_head()
            table = output_tags(_map_domain(model, head, ts, strict=False), eh, ts)
            preds += [c.tags for c in _tag_request([(model, head)], [table], request, None)]
        return score(preds, golds).micro.f1

    return dev_f1


# (head name, tag domain, corpora that train it)
HeadSpec = tuple[str, list[str], Sequence[Corpus]]


def _domain(tags: Iterable[str], bio: bool) -> list[str]:
    base = sorted(tags)
    return expand_bio(base) if bio else base


def _tagset_head(corpus: Corpus, eh: ExtendedHierarchy, cfg: TrainingConfig) -> HeadSpec:
    """A head over one corpus's own tagset, named after it."""
    ts = corpus.tagset_name
    return ts, _domain(_original_members(eh, ts) | {OTHER}, cfg.bio), [corpus]


def _fit(
    kind: ModelKind,
    specs: Sequence[HeadSpec],
    eh: ExtendedHierarchy,
    cfg: TrainingConfig,
    dev: Sequence[Corpus] | None,
    on_epoch: EpochCallback | None = None,
) -> TrainedModel:
    """The one training core: every kind is its head specs.  mtl shares a
    hidden layer across its heads; the other kinds score one head linearly.
    Each corpus's lattice masks come from one call of the kind's builder."""
    vocab, vectors = _build_vocab([c for _, _, corpora in specs for c in corpora], cfg.window)
    heads = {name: _new_head(name, domain) for name, domain, _ in specs}
    if kind is ModelKind.MTL:
        emission = SharedEmissionModel.create(
            cfg.hidden_dim,
            vocab.size,
            {name: len(head.domain) for name, head in heads.items()},
            np.random.default_rng(cfg.seed),
        )
    else:
        (head,) = heads.values()
        emission = LinearEmissionModel.zeros(len(head.domain), vocab.size)
    model = TrainedModel(kind, eh, vocab, emission, heads, cfg)
    instances = {}
    rows = iter(vectors)
    for name, domain, corpora in specs:
        pos = _domain_indices(domain, cfg.bio)
        instances[name] = []
        for corpus in corpora:
            tags = [t for seq in corpus.sequences for t in seq.tags()]
            keep = (_hier_mask(tags, eh, corpus.tagset_name, pos) if kind is ModelKind.HIER
                    else _singleton_mask(tags, pos)).keep
            edges = np.cumsum([0] + [len(seq.tokens) for seq in corpus.sequences]).tolist()
            instances[name] += [_Instance(next(rows), LatticeMask(keep[a:b]))
                                for a, b in zip(edges, edges[1:])]
    _Trainer(model, instances, cfg).run(_dev_scorer(dev, eh), on_epoch)
    return model


def train_hier(
    datasets: Sequence[Corpus],
    eh: ExtendedHierarchy,
    cfg: TrainingConfig = TrainingConfig(),
    dev: Sequence[Corpus] | None = None,
    on_epoch: EpochCallback | None = None,
) -> TrainedModel:
    """One CRF over the fine-grained tags, trained on every dataset at once
    with per-token masks from each dataset's tagset."""
    _check_datasets(datasets, eh, dev)
    fine = _domain(eh.fine_grained, cfg.bio)
    return _fit(ModelKind.HIER, [("fine", fine, datasets)], eh, cfg, dev, on_epoch)


def train_concat(
    datasets: Sequence[Corpus],
    eh: ExtendedHierarchy,
    cfg: TrainingConfig = TrainingConfig(),
    dev: Sequence[Corpus] | None = None,
    on_epoch: EpochCallback | None = None,
) -> TrainedModel:
    """One CRF over the union of the training tagsets; every example is
    treated as fully tagged, so unannotated tokens train as Other."""
    _check_datasets(datasets, eh, dev)
    union = set().union(*(_original_members(eh, c.tagset_name) for c in datasets))
    spec = ("union", _domain(union | {OTHER}, cfg.bio), datasets)
    return _fit(ModelKind.CONCAT, [spec], eh, cfg, dev, on_epoch)


def train_indep(
    datasets: Sequence[Corpus],
    eh: ExtendedHierarchy,
    cfg: TrainingConfig = TrainingConfig(),
    dev: Sequence[Corpus] | None = None,
    on_epoch: EpochCallback | None = None,
) -> list[TrainedModel]:
    """K fully independent CRFs, one per dataset; nothing is shared."""
    _check_datasets(datasets, eh, dev, per_tagset=True)
    models = []
    for corpus in datasets:
        own_dev = [d for d in dev or () if d.tagset_name == corpus.tagset_name]
        spec = _tagset_head(corpus, eh, cfg)
        models.append(_fit(ModelKind.INDEP, [spec], eh, cfg, own_dev, on_epoch))
    return models


def train_mtl(
    datasets: Sequence[Corpus],
    eh: ExtendedHierarchy,
    cfg: TrainingConfig = TrainingConfig(),
    dev: Sequence[Corpus] | None = None,
    on_epoch: EpochCallback | None = None,
) -> TrainedModel:
    """One shared tanh layer, one CRF head per dataset tagset; batches
    alternate round-robin across datasets and smaller datasets cycle."""
    _check_datasets(datasets, eh, dev, per_tagset=True)
    names = [c.tagset_name for c in datasets]
    if len(set(names)) != len(names):
        raise ModelError("mtl needs distinct tagsets per dataset")
    specs = [_tagset_head(corpus, eh, cfg) for corpus in datasets]
    return _fit(ModelKind.MTL, specs, eh, cfg, dev, on_epoch)


class _Request:
    """The token sequences of one tagging request, featurized once per window
    size.  The feature-id matrix of the last vocabulary asked for is kept, so
    per-epoch dev scoring of one model builds it once."""

    def __init__(self, token_lists: Sequence[Sequence[str]]) -> None:
        self.lengths = np.array([len(t) for t in token_lists], dtype=np.int64)
        if (self.lengths == 0).any():
            raise ModelError("cannot tag an empty token sequence")
        self.offsets = np.concatenate(([0], np.cumsum(self.lengths)))
        self._tokens = token_lists
        self._features: dict[int, tuple[list[str], np.ndarray, np.ndarray]] = {}
        self._matrix: tuple[tuple[FeatureVocabulary, int], object] | None = None

    def emissions(self, model: TrainedModel, heads: Sequence[Head]) -> dict[str, np.ndarray]:
        """Emission rows of every token for each of the model's given heads."""
        window = model.config.window
        if window not in self._features:
            self._features[window] = featurize(self._tokens, window)
        key = (model.vocab, window)
        if self._matrix is None or self._matrix[0] != key:
            self._matrix = key, model.vocab.matrix(*self._features[window])
        return model.emission.batch_emissions(self._matrix[1], [h.name for h in heads])


def _decode_head(
    model: TrainedModel, head: Head, emissions: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, PotentialBatch]:
    """Viterbi paths of one head over every sequence of a request (domain
    indices packed like the emission rows), their scores and the potentials."""
    potentials = PotentialBatch(emissions, lengths, *_transitions(model, head), head.stop)
    return *viterbi(potentials), potentials


def _head_tags(model: TrainedModel, head: Head) -> list[str]:
    """The head's domain with BIO prefixes collapsed."""
    return [collapse_bio(t) for t in head.domain] if model.config.bio else list(head.domain)


def _map_domain(model: TrainedModel, head: Head, tagset: str, strict: bool = True) -> list[str]:
    """Domain index -> tag of `tagset` by the hierarchy's routes, O becoming
    the tagset's Other.  A tag that reaches no member raises, or maps to
    Other if not strict."""
    eh = model.hierarchy
    other = eh.other_tag(tagset)
    routes = eh.routes[tagset]
    tags = [other if t == OTHER else t for t in _head_tags(model, head)]
    lost = [t for t in tags if t not in routes]
    if strict and lost:
        raise HierarchyError(f"tag {lost[0]!r} reaches no member of tagset {tagset!r}")
    return [routes.get(t, other) for t in tags]


@dataclass(frozen=True)
class CollisionRecord:
    position: int
    candidates: tuple[str, ...]
    probabilities: tuple[float, ...]  # best proposing marginal per candidate


@dataclass
class Consolidated:
    tags: list[str]
    collisions: int
    collision_positions: list[CollisionRecord]
    per_model_tags: list[list[str]]  # mapped sequence per head, for recounts


def _expand_heads(models: Sequence[TrainedModel]) -> list[tuple[TrainedModel, Head]]:
    if any(m.kind is ModelKind.HIER for m in models):
        raise ModelError("hier models decode a single sequence; consolidation does not apply")
    return [(m, m.heads[name]) for m in models for name in sorted(m.heads)]


def tag_batch(
    models: Sequence[TrainedModel],
    token_lists: Sequence[Sequence[str]],
    test_tagset: str | None,
    method: ConsolidationMethod = ConsolidationMethod.RANDOM,
    seed: int = 0,
) -> list[Consolidated]:
    """Tag every sequence of one request in a single batched pass.

    Every head of every model is decoded and its tags are mapped onto the
    test tagset by the hierarchy's routes (a lone hier model keeps its raw
    fine tags if test_tagset is None).  Positions where distinct non-Other
    candidates of several heads disagree are resolved by `method`; RANDOM
    draws from default_rng(seed) afresh for each sequence.
    An unmappable tagset fails before anything is decoded.
    """
    if not models:
        raise ModelError("no models to consolidate")
    if seed < 0:
        raise ModelError(f"seed must be >= 0, got {seed}")
    method = ConsolidationMethod(method)
    hier = len(models) == 1 and models[0].kind is ModelKind.HIER
    if test_tagset is None and not hier:
        raise ModelError("consolidation needs a test tagset")
    pairs = [(models[0], models[0].single_head())] if hier else _expand_heads(models)
    tables = [_head_tags(m, head) if test_tagset is None else _map_domain(m, head, test_tagset)
              for m, head in pairs]
    test_other = None if test_tagset is None else models[0].hierarchy.other_tag(test_tagset)
    return _tag_request(pairs, tables, _Request(token_lists), test_other, method, seed)


def _tag_request(
    pairs: Sequence[tuple[TrainedModel, Head]],
    tables: Sequence[Sequence[str]],
    request: _Request,
    test_other: str | None,
    method: ConsolidationMethod = ConsolidationMethod.RANDOM,
    seed: int = 0,
) -> list[Consolidated]:
    """Decode each head over the request, map its paths through its table
    (domain index -> tag), and consolidate the heads per sequence.  Only the
    heads proposing a tag at a collision run forward-backward."""
    if not request.lengths.size:
        return []
    emissions: dict[int, dict[str, np.ndarray]] = {}
    decoded = []
    for model, head in pairs:
        if id(model) not in emissions:
            emissions[id(model)] = request.emissions(model, [h for m, h in pairs if m is model])
        decoded.append(_decode_head(model, head, emissions[id(model)][head.name], request.lengths))

    labels = sorted(set().union(*tables) | ({test_other} if len(pairs) > 1 else set()))
    label_id = {t: i for i, t in enumerate(labels)}
    mapped = np.stack(
        [np.array([label_id[t] for t in table])[path] for table, (path, *_) in zip(tables, decoded)]
    )
    chosen, hits = mapped[0], np.flatnonzero([])
    if len(pairs) > 1:
        proposed = mapped != label_id[test_other]
        cand = np.where(proposed, mapped, -1)  # label ids, -1 where a head proposes nothing
        top = cand.max(axis=0)
        bottom = np.where(proposed, mapped, len(labels)).min(axis=0)
        chosen = np.where(top >= 0, top, label_id[test_other])
        hits = np.flatnonzero((top >= 0) & (top != bottom))

    names = np.array(labels, dtype=object)
    all_tags = names[chosen].tolist()
    per_head = [names[row].tolist() for row in mapped]
    edges = request.offsets
    out = [
        Consolidated(all_tags[a:b], 0, [], [tags[a:b] for tags in per_head])
        for a, b in zip(edges[:-1], edges[1:])
    ]
    if hits.size:
        _resolve_collisions(out, cand[:, hits], hits, decoded, edges, labels, method, seed)
    return out


def _resolve_collisions(
    out: list[Consolidated],
    cand: np.ndarray,
    hits: np.ndarray,
    decoded: Sequence[tuple[np.ndarray, np.ndarray, PotentialBatch]],
    edges: np.ndarray,
    labels: Sequence[str],
    method: ConsolidationMethod,
    seed: int,
) -> None:
    """Rewrite the collided rows `hits` of the request in place; cand[k, h]
    is head k's label id at hit h, -1 where it proposes nothing."""
    seq = np.searchsorted(edges, hits, side="right") - 1
    pos = hits - edges[seq]
    # Per head and hit: the log-probability of the head's Viterbi path and
    # its marginal at the hit; -inf where the head proposes nothing.
    log_probs, margs = np.full((2, *cand.shape), -np.inf)
    for k, (path, scores, potentials) in enumerate(decoded):
        mine = cand[k] >= 0
        seqs, where = np.unique(seq[mine], return_inverse=True)
        if seqs.size:
            sub = potentials.select(seqs)
            log_z, unary = marginals(sub)
            log_probs[k, mine] = (scores[seqs] - log_z)[where]
            margs[k, mine] = unary[sub.offsets[where] + pos[mine], path[hits[mine]]]
    # best[t, h]: the largest marginal among the heads proposing label t at hit h.
    best = np.where(cand == np.arange(len(labels))[:, None, None], margs, -np.inf).max(axis=1)
    # argmax takes the first maximum: an exact tie goes to the lowest head index.
    top = margs if method is ConsolidationMethod.MAX_MARGINAL else log_probs
    winners = cand[top.argmax(axis=0), np.arange(hits.size)].tolist()
    prev = -1
    for h, (b, i, probs) in enumerate(zip(seq.tolist(), pos.tolist(), best.T.tolist())):
        if b != prev:  # each sequence draws afresh
            rng, prev = np.random.default_rng(seed), b
        distinct = [t for t, p in enumerate(probs) if p > -math.inf]
        out[b].collision_positions.append(CollisionRecord(
            i, tuple(labels[t] for t in distinct), tuple(probs[t] for t in distinct)))
        if method is ConsolidationMethod.RANDOM:
            winners[h] = distinct[int(rng.integers(len(distinct)))]
        out[b].tags[i] = labels[winners[h]]
        out[b].collisions += 1


def predict_hier(
    model: TrainedModel, tokens: Sequence[str], test_tagset: str | None
) -> list[str]:
    """Viterbi over the fine tags, then per-position mapping onto the test
    tagset.  test_tagset None returns the raw fine-grained path."""
    if model.kind is not ModelKind.HIER:
        raise ModelError(f"predict_hier needs a hier model, got {model.kind.value}")
    return tag_batch([model], [tokens], test_tagset)[0].tags


def predict_multi(
    models: Sequence[TrainedModel],
    tokens: Sequence[str],
    test_tagset: str,
    method: ConsolidationMethod = ConsolidationMethod.RANDOM,
    seed: int = 0,
) -> Consolidated:
    """Decode every head, map every prediction onto the test tagset, and
    resolve positions where distinct non-Other candidates disagree."""
    _expand_heads(models)  # a lone hier model would otherwise take the hier route
    return tag_batch(models, [tokens], test_tagset, method, seed)[0]


def output_tags(tags: Sequence[str], eh: ExtendedHierarchy, tagset: str) -> list[str]:
    """Collapse the tagset's synthesized Other name to the file sentinel."""
    other = eh.other_tag(tagset)
    return [OTHER if t == other else t for t in tags]
