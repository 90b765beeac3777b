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

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from hiertag.crf import (
    LatticeMask,
    PotentialTable,
    loss_and_grad,
    marginals,
    sequence_log_prob,
    viterbi,
)
from hiertag.data import OTHER, Corpus
from hiertag.evaluation import score
from hiertag.features import (
    FeatureVector,
    FeatureVocabulary,
    LinearEmissionModel,
    SharedEmissionModel,
    emission_backprop,
    emission_cache,
    feature_strings,
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


def _potential_table(model: TrainedModel, head: Head, emissions: np.ndarray) -> PotentialTable:
    trans, start = head.transitions, head.start
    if model.config.bio:
        t_off, s_off = _bio_offsets(head.domain, len(head.domain))
        trans = trans + t_off
        start = start + s_off
    return PotentialTable(emissions, trans, start, head.stop)


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
    fvecs: list[FeatureVector]
    mask: LatticeMask


def _vectorize_corpus(
    corpus: Corpus, vocab: FeatureVocabulary, window: int
) -> list[list[FeatureVector]]:
    out = []
    for seq in corpus.sequences:
        texts = seq.texts()
        out.append(
            [vocab.vectorize(feature_strings(texts, i, window)) for i in range(len(texts))]
        )
    return out


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
        total = 0.0
        for inst in batch:
            em, cache = emission_cache(model.emission, inst.fvecs, head_name)
            table = _potential_table(model, head, em)
            loss, g = loss_and_grad(table, inst.mask)
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

    def run(self, dev_f1) -> None:
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
            if dev_f1 is not None and stale >= cfg.patience:
                break
        if best_snapshot is not None:
            for k, v in self.params.items():
                v[...] = best_snapshot[k]


def _new_head(name: str, domain: list[str]) -> Head:
    y = len(domain)
    return Head(name, domain, np.zeros((y, y)), np.zeros(y), np.zeros(y))


def _build_vocab(datasets: Sequence[Corpus], window: int) -> FeatureVocabulary:
    vocab = FeatureVocabulary()
    for corpus in datasets:
        for seq in corpus.sequences:
            texts = seq.texts()
            for i in range(len(texts)):
                for s in feature_strings(texts, i, window):
                    vocab.id_of(s)
    vocab.freeze()
    return vocab


def _dev_scorer(dev: Sequence[Corpus] | None, eh: ExtendedHierarchy):
    if not dev:
        return None

    def dev_f1(model: TrainedModel) -> float:
        preds, golds = [], []
        for corpus in dev:
            ts = corpus.tagset_name
            per_tagset = model.kind in (ModelKind.INDEP, ModelKind.MTL)
            head = model.head(ts) if per_tagset else model.single_head()
            table = output_tags(_map_domain(model, head, ts, strict=False), eh, ts)
            for seq in corpus.sequences:
                path, _ = _decode_head(model, head, seq.texts())
                preds.append([table[i] for i in path])
                golds.append(seq.tags())
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
) -> TrainedModel:
    """The one training core: every kind is its head specs.  mtl shares a
    hidden layer across its heads; the other kinds score one head linearly."""
    vocab = _build_vocab([c for _, _, corpora, _ in specs for c in corpora], cfg.window)
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
    for name, domain, corpora, mask in specs:
        pos = _domain_indices(domain, cfg.bio)
        instances[name] = [
            _Instance(fvecs, mask(seq.tags(), eh, corpus.tagset_name, pos))
            for corpus in corpora
            for seq, fvecs in zip(corpus.sequences, _vectorize_corpus(corpus, vocab, cfg.window))
        ]
    _Trainer(model, instances, cfg).run(_dev_scorer(dev, eh))
    return model


def train_hier(
    datasets: Sequence[Corpus],
    eh: ExtendedHierarchy,
    cfg: TrainingConfig = TrainingConfig(),
    dev: Sequence[Corpus] | None = None,
) -> TrainedModel:
    """One CRF over the fine-grained tags, trained on every dataset at once
    with per-token masks from each dataset's tagset."""
    _check_datasets(datasets, eh)
    fine = _domain(eh.fine_grained, cfg.bio)
    return _fit(ModelKind.HIER, [("fine", fine, datasets, _hier_mask)], eh, cfg, dev)


def train_concat(
    datasets: Sequence[Corpus],
    eh: ExtendedHierarchy,
    cfg: TrainingConfig = TrainingConfig(),
    dev: Sequence[Corpus] | None = None,
) -> TrainedModel:
    """One CRF over the union of the training tagsets; every example is
    treated as fully tagged, so unannotated tokens train as Other."""
    _check_datasets(datasets, eh)
    union = set().union(*(_original_members(eh, c.tagset_name) for c in datasets))
    spec = ("union", _domain(union | {OTHER}, cfg.bio), datasets, _gold_mask)
    return _fit(ModelKind.CONCAT, [spec], eh, cfg, dev)


def train_indep(
    datasets: Sequence[Corpus],
    eh: ExtendedHierarchy,
    cfg: TrainingConfig = TrainingConfig(),
    dev: Sequence[Corpus] | None = None,
) -> list[TrainedModel]:
    """K fully independent CRFs, one per dataset; nothing is shared."""
    _check_datasets(datasets, eh)
    models = []
    for corpus in datasets:
        own_dev = [d for d in dev or () if d.tagset_name == corpus.tagset_name]
        models.append(_fit(ModelKind.INDEP, [_tagset_head(corpus, eh, cfg)], eh, cfg, own_dev))
    return models


def train_mtl(
    datasets: Sequence[Corpus],
    eh: ExtendedHierarchy,
    cfg: TrainingConfig = TrainingConfig(),
    dev: Sequence[Corpus] | None = None,
) -> TrainedModel:
    """One shared tanh layer, one CRF head per dataset tagset; batches
    alternate round-robin across datasets and smaller datasets cycle."""
    _check_datasets(datasets, eh)
    names = [c.tagset_name for c in datasets]
    if len(set(names)) != len(names):
        raise ModelError("mtl needs distinct tagsets per dataset")
    specs = [_tagset_head(corpus, eh, cfg) for corpus in datasets]
    return _fit(ModelKind.MTL, specs, eh, cfg, dev)


def _decode_head(
    model: TrainedModel, head: Head, tokens: Sequence[str]
) -> tuple[list[int], PotentialTable]:
    """Viterbi path as domain indices, plus the potential table it maximizes."""
    if not tokens:
        raise ModelError("cannot tag an empty token sequence")
    fvecs = [
        model.vocab.vectorize(feature_strings(tokens, i, model.config.window))
        for i in range(len(tokens))
    ]
    em, _ = emission_cache(model.emission, fvecs, head.name)
    table = _potential_table(model, head, em)
    path, _ = viterbi(table)
    return path, table


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


def predict_hier(
    model: TrainedModel, tokens: Sequence[str], test_tagset: str | None
) -> list[str]:
    """Viterbi over the fine tags, then per-position mapping onto the test
    tagset.  test_tagset None returns the raw fine-grained path."""
    if model.kind is not ModelKind.HIER:
        raise ModelError(f"predict_hier needs a hier model, got {model.kind.value}")
    head = model.single_head()
    path, _ = _decode_head(model, head, tokens)
    tags = _head_tags(model, head)
    if test_tagset is not None:
        tags = [model.hierarchy.map_to_tagset(f, test_tagset) for f in tags]
    return [tags[i] for i in path]


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


def predict_multi(
    models: Sequence[TrainedModel],
    tokens: Sequence[str],
    test_tagset: str,
    method: ConsolidationMethod = ConsolidationMethod.RANDOM,
    seed: int = 0,
) -> Consolidated:
    """Decode every head, map every prediction onto the test tagset, and
    resolve positions where distinct non-Other candidates disagree."""
    if not models:
        raise ModelError("no models to consolidate")
    method = ConsolidationMethod(method)
    pairs = _expand_heads(models)
    test_other = models[0].hierarchy.other_tag(test_tagset)

    # Fails fast, before any decoding, if a head's tagset cannot map onto the test tagset.
    tables = [_map_domain(m, head, test_tagset) for m, head in pairs]
    mapped: list[list[str]] = []
    log_probs: list[float] = []
    path_marginals: list[np.ndarray] = []  # per-position marginal of the decoded tag
    for (m, head), table in zip(pairs, tables):
        path, potentials = _decode_head(m, head, tokens)
        mapped.append([table[i] for i in path])
        log_probs.append(sequence_log_prob(potentials, path))
        unary, _ = marginals(potentials)
        path_marginals.append(unary[np.arange(len(path)), path])

    rng = np.random.default_rng(seed)
    out: list[str] = []
    records: list[CollisionRecord] = []
    for i in range(len(tokens)):
        # candidate tag -> (sort index of best proposer, best score, best marginal)
        proposals: list[tuple[str, int, float, float]] = []
        for k, tags in enumerate(mapped):
            tag = tags[i]
            if tag != test_other:
                proposals.append((tag, k, log_probs[k], float(path_marginals[k][i])))
        distinct = sorted({p[0] for p in proposals})
        if len(distinct) > 1:
            best_marg = {
                t: max(p[3] for p in proposals if p[0] == t) for t in distinct
            }
            records.append(
                CollisionRecord(i, tuple(distinct), tuple(best_marg[t] for t in distinct))
            )
        if not distinct:
            out.append(test_other)
        elif len(distinct) == 1:
            out.append(distinct[0])
        elif method is ConsolidationMethod.RANDOM:
            out.append(distinct[int(rng.integers(len(distinct)))])
        elif method is ConsolidationMethod.BEST_SEQUENCE_SCORE:
            winner = min(proposals, key=lambda p: (-p[2], p[1], p[0]))
            out.append(winner[0])
        else:
            winner = min(proposals, key=lambda p: (-p[3], p[1], p[0]))
            out.append(winner[0])
    return Consolidated(out, len(records), records, mapped)


def output_tags(tags: Sequence[str], eh: ExtendedHierarchy, tagset: str) -> list[str]:
    """Collapse the tagset's synthesized Other name to the file sentinel."""
    other = eh.other_tag(tagset)
    return [OTHER if t == other else t for t in tags]
