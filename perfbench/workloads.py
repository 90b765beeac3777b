"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the same
corpora, hierarchy and test set.  The program under test only ever receives
the generated `Corpus` objects and hierarchy, never the generator.

HOLDOUT_SEED is kept aside: do not run it while writing a change, then use it
once to confirm that a claimed gain also holds on unseen inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hiertag.data import (
    OTHER,
    Corpus,
    GeneratorConfig,
    LabeledSequence,
    Token,
    make_selective,
    synth_corpus,
)
from hiertag.hierarchy import TagHierarchy
from hiertag.models import TrainingConfig

HOLDOUT_SEED = 9001
DEV_STRIDE = 5  # every 5th training document is held out for dev scoring


@dataclass
class Workload:
    """Generated inputs plus how the program is asked to use them."""

    name: str
    train: list[Corpus]
    dev: list[Corpus]
    test: Corpus
    test_tagset: str
    hierarchy: TagHierarchy
    config: TrainingConfig

    @property
    def train_tokens(self) -> int:
        return sum(c.token_count for c in self.train)


def _split_dev(corpus: Corpus) -> tuple[Corpus, Corpus]:
    seqs = corpus.sequences
    dev = [s for i, s in enumerate(seqs) if i % DEV_STRIDE == DEV_STRIDE - 1]
    train = [s for i, s in enumerate(seqs) if i % DEV_STRIDE != DEV_STRIDE - 1]
    return (
        Corpus(tuple(train), corpus.tagset_name),
        Corpus(tuple(dev), corpus.tagset_name, "dev"),
    )


# ------------------------------------------------------------------ extension
# The collision triplet of the acceptance benchmark: the same lexicons
# (ambiguous "amb" words are PER in the base corpus and LOC in the extending
# one), the same generator seeds at seed 0, LOC moved to the extending corpus.

EXT_TYPES = ("PER", "LOC", "ORG", "MISC")
EXT_DOCS = 80
EXT_TEST_DOCS = 100
EXT_EPOCHS = 3


def _words(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i:02d}" for i in range(n)]


_BACKGROUND = _words("b", 50)
_PLAIN_LEX = {t: _words(t.lower(), 25) for t in EXT_TYPES}
_AMB = _words("amb", 15)
_BASE_LEX = dict(_PLAIN_LEX, PER=_AMB + _words("per", 10))
_EXT_LEX = dict(_PLAIN_LEX, LOC=_AMB + _words("loc", 10))
_TEST_LEX = dict(_PLAIN_LEX, PER=_AMB + _words("per", 10), LOC=_AMB + _words("loc", 10))


def _acceptance_corpus(lex, docs: int, seed: int, split: str = "train") -> Corpus:
    return synth_corpus(GeneratorConfig(docs, 40, 0.05, _BACKGROUND, lex), seed, split)


def extension(seed: int) -> Workload:
    base = _acceptance_corpus(_BASE_LEX, EXT_DOCS, 111 + 1000 * seed)
    ext = _acceptance_corpus(_EXT_LEX, EXT_DOCS, 112 + 1000 * seed)
    test = _acceptance_corpus(_TEST_LEX, EXT_TEST_DOCS, 113 + 1000 * seed, "test")
    sel = make_selective(base, ext, "LOC")
    tagsets = {
        "full": frozenset(EXT_TYPES),
        "base": sel.base_tags,
        "extending": sel.extending_tags,
        "test": sel.base_tags | sel.extending_tags,
    }
    train_base, dev_base = _split_dev(sel.base.with_tagset("base"))
    train_ext, dev_ext = _split_dev(sel.extending.with_tagset("extending"))
    return Workload(
        name="extension",
        train=[train_base, train_ext],
        dev=[dev_base, dev_ext],
        test=test,
        test_tagset="test",
        hierarchy=TagHierarchy(frozenset(EXT_TYPES), (), tagsets),
        config=TrainingConfig(
            seed=7, epochs=EXT_EPOCHS, batch_size=8, learning_rate=0.5, patience=EXT_EPOCHS
        ),
    )


# ----------------------------------------------------------------------- wide
# Two-level hierarchy, 8 coarse parents x 4 leaves: 41 fine tags after
# extension.  Background words are random codes, so a few thousand training
# tokens give >= 50k distinct features and the dense y x F parameter arrays
# are large.  Siblings share words and a cue word before the entity tells
# them apart; some words are shared across parents and the cue is missing
# for a fixed share of mentions, so no kind can reach F1 = 1.

WIDE_PARENTS = 8
WIDE_LEAVES = 4
WIDE_DOCS = 90
WIDE_TEST_DOCS = 40
WIDE_DOC_LENGTH = 40
WIDE_ENTITY_RATE = 0.1
WIDE_CUE_RATE = 0.8
WIDE_BACKGROUND = 30000
CODE_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
WIDE_EPOCHS = 1


def _random_words(rng: np.random.Generator, n: int, lo: int, hi: int,
                  alphabet: str = "abcdefghijklmnopqrstuvwxyz") -> list[str]:
    letters = np.array(list(alphabet))
    lengths = rng.integers(lo, hi + 1, size=n)
    chars = letters[rng.integers(0, len(letters), size=(n, hi))]
    return ["".join(row[:k]) for row, k in zip(chars, lengths)]


def _wide_doc(rng, doc_id: str, lex: dict, coarse: bool) -> LabeledSequence:
    toks: list[Token] = []
    while len(toks) < WIDE_DOC_LENGTH:
        if rng.random() >= WIDE_ENTITY_RATE:
            toks.append(Token(lex["background"][int(rng.integers(WIDE_BACKGROUND))], OTHER))
            continue
        leaf = lex["leaves"][int(rng.integers(len(lex["leaves"])))]
        parent = leaf.split("_")[0]
        if rng.random() < WIDE_CUE_RATE:
            toks.append(Token(lex["cue"][leaf], OTHER))
        pool = rng.random()
        if pool < 0.5:
            words = lex["own"][leaf]
        elif pool < 0.8:
            words = lex["sibling"][parent]
        else:
            words = lex["cross"]
        word = words[int(rng.integers(len(words)))]
        toks.append(Token(word, parent if coarse else leaf))
    return LabeledSequence(tuple(toks[:WIDE_DOC_LENGTH]), doc_id)


def wide(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    parents = [f"K{p}" for p in range(WIDE_PARENTS)]
    leaves = [f"{p}_{k}" for p in parents for k in range(WIDE_LEAVES)]
    words = iter(_random_words(rng, 400, 5, 9))
    lex = {
        "leaves": leaves,
        "own": {leaf: [next(words) for _ in range(6)] for leaf in leaves},
        "sibling": {p: [next(words) for _ in range(4)] for p in parents},
        "cross": [next(words) for _ in range(8)],
        "cue": {leaf: next(words) for leaf in leaves},
    }
    # Mixed-case alphanumeric codes: nearly every one has its own shape as well
    # as its own identity, prefix and suffix features.
    lex["background"] = _random_words(rng, WIDE_BACKGROUND, 8, 10, CODE_ALPHABET)

    def corpus(docs: int, tagset: str, split: str, coarse: bool) -> Corpus:
        seqs = tuple(_wide_doc(rng, f"doc{d}", lex, coarse) for d in range(docs))
        return Corpus(seqs, tagset, split)

    coarse_train, coarse_dev = _split_dev(corpus(WIDE_DOCS, "coarse", "train", True))
    leaf_train, leaf_dev = _split_dev(corpus(WIDE_DOCS, "leaf", "train", False))
    test = corpus(WIDE_TEST_DOCS, "coarse", "test", True)
    hierarchy = TagHierarchy(
        set(parents) | set(leaves),
        [(leaf, leaf.split("_")[0]) for leaf in leaves],
        {"coarse": parents, "leaf": leaves},
    )
    return Workload(
        name="wide",
        train=[coarse_train, leaf_train],
        dev=[coarse_dev, leaf_dev],
        test=test,
        test_tagset="coarse",
        hierarchy=hierarchy,
        config=TrainingConfig(
            seed=7, epochs=WIDE_EPOCHS, batch_size=8, learning_rate=0.5,
            patience=WIDE_EPOCHS,
        ),
    )


# ---------------------------------------------------------------- consolidate
# Integration setting: four corpora over one flat hierarchy of eight types,
# each annotated with its own four-type tagset (types outside it are O).  The
# test set is tagged under "union", the union of the four tagsets.  Some
# words belong to two types, so independently trained heads disagree and
# consolidation has collisions to resolve.

CONS_TYPES = tuple(f"T{i}" for i in range(8))
CONS_TAGSETS = {
    "s0": ("T0", "T1", "T2", "T3"),
    "s1": ("T2", "T3", "T4", "T5"),
    "s2": ("T4", "T5", "T6", "T7"),
    "s3": ("T6", "T7", "T0", "T1"),
}
CONS_DOCS = 30
CONS_TEST_DOCS = 100
CONS_DOC_LENGTH = 30
CONS_EPOCHS = 4


def consolidate(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    words = iter(_random_words(rng, 600, 4, 7))
    shared = {t: [next(words) for _ in range(4)] for t in CONS_TYPES}
    lex = {
        t: [next(words) for _ in range(12)] + shared[t] + shared[CONS_TYPES[i - 1]]
        for i, t in enumerate(CONS_TYPES)
    }
    background = [next(words) for _ in range(300)]
    config = GeneratorConfig(CONS_DOCS, CONS_DOC_LENGTH, 0.2, background, lex)
    train = []
    for name, members in sorted(CONS_TAGSETS.items()):
        full = synth_corpus(config, int(rng.integers(2**31)))
        train.append(_keep_tags(full, set(members)).with_tagset(name))
    test_config = GeneratorConfig(CONS_TEST_DOCS, CONS_DOC_LENGTH, 0.2, background, lex)
    test = synth_corpus(test_config, int(rng.integers(2**31)), "test")
    tagsets = dict(CONS_TAGSETS, union=CONS_TYPES)
    return Workload(
        name="consolidate",
        train=train,
        dev=[],
        test=test.with_tagset("union"),
        test_tagset="union",
        hierarchy=TagHierarchy(frozenset(CONS_TYPES), (), tagsets),
        config=TrainingConfig(seed=7, epochs=CONS_EPOCHS, batch_size=8, learning_rate=0.5),
    )


def _keep_tags(corpus: Corpus, keep: set[str]) -> Corpus:
    seqs = tuple(
        LabeledSequence(
            tuple(t if t.gold in keep else Token(t.text, OTHER) for t in s.tokens), s.doc_id
        )
        for s in corpus.sequences
    )
    return Corpus(seqs, corpus.tagset_name, corpus.split)


GENERATORS = {"extension": extension, "wide": wide, "consolidate": consolidate}
