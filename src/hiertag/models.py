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

from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import sparse

from hiertag.crf import (
    LatticeMask,
    PotentialBatch,
    forward_backward,
    marginals,  # noqa: F401  (perfbench/spans.py wraps these names here)
    sequence_log_prob,
    viterbi,  # noqa: F401
    viterbi_batch,
)
# perfbench/spans.py times the training lattice under this name.
from hiertag.crf import loss_and_grad_batch as loss_and_grad
from hiertag.data import OTHER, Corpus
from hiertag.evaluation import score
from hiertag.features import (
    FeatureVocabulary,
    LinearEmissionModel,
    SharedEmissionModel,
    emission_backprop,
    emission_cache,
    feature_strings,  # noqa: F401  (perfbench/spans.py counts calls of this name)
    window_features,
    zero_gradients,
)
from hiertag.hierarchy import ExtendedHierarchy, HierarchyError

BIO_PENALTY = -10000.0


class ModelError(ValueError):
    """Inconsistent training inputs or prediction requests."""


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
        if self.epochs < 1 or self.batch_size < 1 or self.patience < 1:
            raise ModelError("epochs, batch_size and patience must be >= 1")
        if self.learning_rate <= 0 or self.clip_norm <= 0:
            raise ModelError("learning_rate and clip_norm must be positive")
        if self.l2 < 0 or self.window < 0 or self.hidden_dim < 1:
            raise ModelError("l2 >= 0, window >= 0, hidden_dim >= 1 required")


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


def _bio_offsets(domain: Sequence[str], y: int) -> tuple[np.ndarray, np.ndarray]:
    """Additive score offsets forbidding I-x except after B-x/I-x."""
    trans = np.zeros((y, y))
    start = np.zeros(y)
    for j, tj in enumerate(domain):
        if not tj.startswith("I-"):
            continue
        start[j] = BIO_PENALTY
        stem = tj[2:]
        for i, ti in enumerate(domain):
            if ti not in (f"B-{stem}", f"I-{stem}"):
                trans[i, j] = BIO_PENALTY
    return trans, start


def _transitions(model: TrainedModel, head: Head) -> tuple[np.ndarray, np.ndarray]:
    """The head's transition and start scores, with the BIO offsets if on."""
    if not model.config.bio:
        return head.transitions, head.start
    t_off, s_off = _bio_offsets(head.domain, len(head.domain))
    return head.transitions + t_off, head.start + s_off


def _original_members(eh: ExtendedHierarchy, tagset: str) -> frozenset[str]:
    return eh.tagsets[tagset] - {eh.other_tag(tagset)}


def _check_datasets(datasets: Sequence[Corpus], eh: ExtendedHierarchy) -> None:
    if not datasets:
        raise ModelError("no training datasets")
    for corpus in datasets:
        if not corpus.tagset_name:
            raise ModelError("every training corpus needs a tagset name")
        if corpus.tagset_name not in eh.tagsets:
            raise HierarchyError(f"unknown tagset {corpus.tagset_name!r}")
        members = _original_members(eh, corpus.tagset_name)
        if OTHER in members:
            raise ModelError(f"tagset {corpus.tagset_name} declares reserved tag O")
        corpus.check_tags(members)


@dataclass
class _Instance:
    fvecs: sparse.csr_matrix  # the sequence's feature vectors, one row per token
    mask: LatticeMask


def _sequence_rows(
    token_lists: Sequence[Sequence[str]],
    vocab: FeatureVocabulary,
    features: tuple[list[str], np.ndarray, np.ndarray],
) -> list[sparse.csr_matrix]:
    """Each sequence's rows of the feature-id matrix of `_featurize` output."""
    x = vocab.matrix(*features)
    edges = np.cumsum([0] + [len(t) for t in token_lists]).tolist()
    return [x[a:b] for a, b in zip(edges[:-1], edges[1:])]


def _vectorize_corpus(
    corpus: Corpus, vocab: FeatureVocabulary, window: int
) -> list[sparse.csr_matrix]:
    """Each sequence's feature vectors under a frozen vocabulary."""
    token_lists = [seq.texts() for seq in corpus.sequences]
    return _sequence_rows(token_lists, vocab, _featurize(token_lists, window))


def _domain_indices(domain: Sequence[str], bio: bool) -> dict[str, list[int]]:
    """Base tag -> positions in the (possibly BIO-expanded) domain."""
    out: dict[str, list[int]] = {}
    for i, t in enumerate(domain):
        out.setdefault(collapse_bio(t) if bio else t, []).append(i)
    return out


def _hier_mask(
    tags: Sequence[str], eh: ExtendedHierarchy, tagset: str, pos: dict[str, list[int]]
) -> LatticeMask:
    other = eh.other_tag(tagset)
    allowed = []
    for g in tags:
        cover = eh.fine_cover(tagset, other if g == OTHER else g)
        allowed.append([i for f in cover for i in pos[f]])
    return LatticeMask(allowed)


def _singleton_mask(tags: Sequence[str], pos: dict[str, list[int]]) -> LatticeMask:
    return LatticeMask([pos[g] for g in tags])


class _Adagrad:
    def __init__(self, params: dict[str, np.ndarray], lr: float, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.eps = eps
        self.accum = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        for k in self.params:
            g = grads[k]
            a = self.accum[k]
            a += g * g
            self.params[k] -= self.lr * g / (np.sqrt(a) + self.eps)


def _regularized_keys(head_name: str, params: dict[str, np.ndarray]) -> set[str]:
    """Weight and transition matrices touched by a batch on this head; biases,
    start/stop vectors and inactive heads never decay."""
    wanted = {"weights", "shared_weights", f"head:{head_name}:weights", f"trans:{head_name}"}
    return {k for k in wanted if k in params}


def _clip(grads: dict[str, np.ndarray], max_norm: float) -> None:
    total = np.sqrt(sum(float((g * g).sum()) for _, g in sorted(grads.items())))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale


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
        """Summed data loss and mean gradients (L2 included, pre-clip)."""
        model, cfg = self.model, self.cfg
        head = model.heads[head_name]
        grads = zero_gradients(self.params)
        scored = [emission_cache(model.emission, inst.fvecs, head_name) for inst in batch]
        potentials = PotentialBatch(
            np.concatenate([em for em, _ in scored]),
            [inst.fvecs.shape[0] for inst in batch],
            *_transitions(model, head),
            head.stop,
        )
        losses, lattice_grads = loss_and_grad(potentials, [inst.mask for inst in batch])
        total = 0.0
        for inst, (_, cache), loss, g in zip(batch, scored, losses, lattice_grads):
            total += loss
            emission_backprop(model.emission, inst.fvecs, head_name, g.d_emissions, cache, grads)
            grads[f"trans:{head_name}"] += g.d_transitions
            grads[f"start:{head_name}"] += g.d_start
            grads[f"stop:{head_name}"] += g.d_stop
        reg = _regularized_keys(head_name, self.params)
        for k in grads:
            grads[k] /= len(batch)
            if cfg.l2 and k in reg:
                grads[k] += cfg.l2 * self.params[k]
        return total, grads

    def _batch_step(self, head_name: str, batch: list[_Instance]) -> float:
        total, grads = self._batch_grads(head_name, batch)
        _clip(grads, self.cfg.clip_norm)
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
            for _ in range(steps):
                for name in names:
                    batch = next(streams[name])
                    loss_sum += self._batch_step(name, batch)
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
    """The frozen vocabulary of every training feature string, ids in
    first-seen order, and the feature vectors of every sequence of every
    corpus in turn, from one featurization pass."""
    token_lists = [seq.texts() for corpus in datasets for seq in corpus.sequences]
    features = _featurize(token_lists, window)
    vocab = FeatureVocabulary.from_strings(["<UNK>", *features[0]])
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


# (head name, tag domain, corpora that train it, mask builder).  The builder
# maps (gold tags, hierarchy, corpus tagset, domain positions) to a lattice mask.
HeadSpec = tuple[str, list[str], Sequence[Corpus], Callable[..., LatticeMask]]


def _gold_mask(
    tags: Sequence[str], eh: ExtendedHierarchy, tagset: str, pos: dict[str, list[int]]
) -> LatticeMask:
    """Baselines read every annotation as complete: one allowed tag per token."""
    return _singleton_mask(tags, pos)


def _domain(tags: Iterable[str], bio: bool) -> list[str]:
    base = sorted(tags)
    return expand_bio(base) if bio else base


def _tagset_head(corpus: Corpus, eh: ExtendedHierarchy, cfg: TrainingConfig) -> HeadSpec:
    """A head over one corpus's own tagset, named after it."""
    ts = corpus.tagset_name
    return ts, _domain(_original_members(eh, ts) | {OTHER}, cfg.bio), [corpus], _gold_mask


def _fit(
    kind: ModelKind,
    specs: Sequence[HeadSpec],
    eh: ExtendedHierarchy,
    cfg: TrainingConfig,
    dev: Sequence[Corpus] | None,
    on_epoch: EpochCallback | None = None,
) -> TrainedModel:
    """The one training core: every kind is its head specs.  mtl shares a
    hidden layer across its heads; the other kinds score one head linearly."""
    vocab, vectors = _build_vocab([c for _, _, corpora, _ in specs for c in corpora], cfg.window)
    heads = {name: _new_head(name, domain) for name, domain, _, _ in specs}
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
    for name, domain, corpora, mask in specs:
        pos = _domain_indices(domain, cfg.bio)
        instances[name] = [
            _Instance(next(rows), mask(seq.tags(), eh, corpus.tagset_name, pos))
            for corpus in corpora
            for seq in corpus.sequences
        ]
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
    _check_datasets(datasets, eh)
    fine = _domain(eh.fine_grained, cfg.bio)
    return _fit(ModelKind.HIER, [("fine", fine, datasets, _hier_mask)], eh, cfg, dev, on_epoch)


def train_concat(
    datasets: Sequence[Corpus],
    eh: ExtendedHierarchy,
    cfg: TrainingConfig = TrainingConfig(),
    dev: Sequence[Corpus] | None = None,
    on_epoch: EpochCallback | None = None,
) -> TrainedModel:
    """One CRF over the union of the training tagsets; every example is
    treated as fully tagged, so unannotated tokens train as Other."""
    _check_datasets(datasets, eh)
    union = set().union(*(_original_members(eh, c.tagset_name) for c in datasets))
    spec = ("union", _domain(union | {OTHER}, cfg.bio), datasets, _gold_mask)
    return _fit(ModelKind.CONCAT, [spec], eh, cfg, dev, on_epoch)


def train_indep(
    datasets: Sequence[Corpus],
    eh: ExtendedHierarchy,
    cfg: TrainingConfig = TrainingConfig(),
    dev: Sequence[Corpus] | None = None,
    on_epoch: EpochCallback | None = None,
) -> list[TrainedModel]:
    """K fully independent CRFs, one per dataset; nothing is shared."""
    _check_datasets(datasets, eh)
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
    _check_datasets(datasets, eh)
    names = [c.tagset_name for c in datasets]
    if len(set(names)) != len(names):
        raise ModelError("mtl needs distinct tagsets per dataset")
    specs = [_tagset_head(corpus, eh, cfg) for corpus in datasets]
    return _fit(ModelKind.MTL, specs, eh, cfg, dev, on_epoch)


def _featurize(
    token_lists: Sequence[Sequence[str]], window: int
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Every token's template features, built once: the distinct strings, and
    per token (CSR-style indptr) the positions of its strings among them."""
    seen: dict[str, int] = {}
    positions = array("q")
    indptr = array("q", [0])
    for tokens in token_lists:
        for strings in window_features(tokens, window):
            positions.extend([seen.setdefault(s, len(seen)) for s in strings])
            indptr.append(len(positions))
    return (
        list(seen),
        np.frombuffer(positions, dtype=np.int64),
        np.frombuffer(indptr, dtype=np.int64),
    )


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
            self._features[window] = _featurize(self._tokens, window)
        key = (model.vocab, window)
        if self._matrix is None or self._matrix[0] != key:
            self._matrix = key, model.vocab.matrix(*self._features[window])
        return model.emission.batch_emissions(self._matrix[1], [h.name for h in heads])


def _decode_head(
    model: TrainedModel, head: Head, emissions: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, PotentialBatch]:
    """Viterbi paths of one head over every sequence of a request, as domain
    indices packed like the emission rows, plus the potentials they maximize."""
    potentials = PotentialBatch(emissions, lengths, *_transitions(model, head), head.stop)
    paths, _ = viterbi_batch(potentials)
    return paths, potentials


def _head_tags(model: TrainedModel, head: Head) -> list[str]:
    """The head's domain with BIO prefixes collapsed."""
    return [collapse_bio(t) for t in head.domain] if model.config.bio else list(head.domain)


def _map_domain(model: TrainedModel, head: Head, tagset: str, strict: bool = True) -> list[str]:
    """Domain index -> tag of `tagset` by traversal, O becoming the tagset's
    Other.  A tag that reaches no member raises, or maps to Other if not strict."""
    eh = model.hierarchy
    other = eh.other_tag(tagset)
    out = []
    for t in _head_tags(model, head):
        if t == OTHER:
            out.append(other)
            continue
        try:
            out.append(eh.map_by_traversal(t, tagset))
        except HierarchyError:
            if strict:
                raise
            out.append(other)
    return out


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
    out = []
    for m in models:
        if m.kind is ModelKind.HIER:
            raise ModelError("hier models decode a single sequence; consolidation does not apply")
        for name in sorted(m.heads):
            out.append((m, m.heads[name]))
    return out


def tag_batch(
    models: Sequence[TrainedModel],
    token_lists: Sequence[Sequence[str]],
    test_tagset: str | None,
    method: ConsolidationMethod = ConsolidationMethod.RANDOM,
    seed: int = 0,
) -> list[Consolidated]:
    """Tag every sequence of one request in a single batched pass.

    A lone hier model decodes its fine tags and maps them with the partition
    (test_tagset None keeps the raw fine tags).  Otherwise every head of
    every model is decoded and mapped onto the test tagset by traversal, and
    positions where distinct non-Other candidates disagree are resolved by
    `method`; RANDOM draws from default_rng(seed) afresh for each sequence.
    An unmappable tagset fails before anything is decoded.
    """
    if not models:
        raise ModelError("no models to consolidate")
    method = ConsolidationMethod(method)
    if len(models) == 1 and models[0].kind is ModelKind.HIER:
        model = models[0]
        head = model.single_head()
        tags = _head_tags(model, head)
        if test_tagset is not None:
            tags = [model.hierarchy.map_to_tagset(f, test_tagset) for f in tags]
        return _tag_request([(model, head)], [tags], _Request(token_lists), None)
    if test_tagset is None:
        raise ModelError("consolidation needs a test tagset")
    pairs = _expand_heads(models)
    tables = [_map_domain(m, head, test_tagset) for m, head in pairs]
    test_other = models[0].hierarchy.other_tag(test_tagset)
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
    (domain index -> tag), and consolidate the heads per sequence.  Only
    sequences where heads collide run forward-backward."""
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
        [np.array([label_id[t] for t in table])[path] for table, (path, _) in zip(tables, decoded)]
    )
    if len(pairs) > 1:
        proposed = mapped != label_id[test_other]
        top = np.where(proposed, mapped, -1).max(axis=0)
        bottom = np.where(proposed, mapped, len(labels)).min(axis=0)
        chosen = np.where(proposed.any(axis=0), top, label_id[test_other])
        collides = proposed.any(axis=0) & (top != bottom)
    else:
        chosen = mapped[0]
        collides = np.zeros(chosen.size, dtype=bool)

    names = np.array(labels, dtype=object)
    all_tags = names[chosen].tolist()
    per_head = [names[row].tolist() for row in mapped]
    edges = request.offsets
    out = [
        Consolidated(all_tags[a:b], 0, [], [tags[a:b] for tags in per_head])
        for a, b in zip(edges[:-1], edges[1:])
    ]
    hit_seqs = np.unique(np.searchsorted(edges, np.flatnonzero(collides), side="right") - 1)
    if hit_seqs.size:
        _resolve_collisions(out, hit_seqs, decoded, collides, edges, test_other, method, seed)
    return out


def _resolve_collisions(
    out: list[Consolidated],
    seqs: np.ndarray,
    decoded: Sequence[tuple[np.ndarray, PotentialBatch]],
    collides: np.ndarray,
    edges: np.ndarray,
    test_other: str,
    method: ConsolidationMethod,
    seed: int,
) -> None:
    """Rewrite the colliding positions of the given sequences in place."""
    rows = np.concatenate([np.arange(edges[b], edges[b + 1]) for b in seqs])
    # Per head: each sequence's log-probability and its path's marginals.
    log_probs, path_marginals = [], []
    for path, potentials in decoded:
        sub = potentials.select(seqs)
        log_z, unary = forward_backward(sub)
        paths = np.split(path[rows], sub.offsets[1:])
        log_probs.append(
            [sequence_log_prob(sub.table(j), p, log_z[j]) for j, p in enumerate(paths)]
        )
        picked = unary[np.arange(rows.size), path[rows]]
        path_marginals.append(np.split(picked, sub.offsets[1:]))

    for j, b in enumerate(seqs):
        result = out[b]
        rng = np.random.default_rng(seed)
        for i in np.flatnonzero(collides[edges[b] : edges[b + 1]]).tolist():
            # candidate tag -> (sort index of best proposer, best score, best marginal)
            proposals = [
                (tags[i], k, log_probs[k][j], float(path_marginals[k][j][i]))
                for k, tags in enumerate(result.per_model_tags)
                if tags[i] != test_other
            ]
            distinct = sorted({p[0] for p in proposals})
            best_marg = {t: max(p[3] for p in proposals if p[0] == t) for t in distinct}
            result.collision_positions.append(
                CollisionRecord(i, tuple(distinct), tuple(best_marg[t] for t in distinct))
            )
            if method is ConsolidationMethod.RANDOM:
                result.tags[i] = distinct[int(rng.integers(len(distinct)))]
            elif method is ConsolidationMethod.BEST_SEQUENCE_SCORE:
                result.tags[i] = min(proposals, key=lambda p: (-p[2], p[1], p[0]))[0]
            else:
                result.tags[i] = min(proposals, key=lambda p: (-p[3], p[1], p[0]))[0]
        result.collisions = len(result.collision_positions)


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
