"""Corpus ingestion, selective re-annotation, and the synthetic generator.

Corpora are two-column files: token TAB tag, one token per line, documents
separated by one blank line, "O" for untagged tokens, UTF-8, LF endings.
The generator produces reproducible corpora from a small key-value config so
experiments can run without any licensed data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from hiertag.hierarchy import TagHierarchy

OTHER = "O"
SPLITS = ("train", "dev", "test")


class CorpusError(ValueError):
    """Malformed corpus file, generator config, or inconsistent tags."""


@dataclass(frozen=True)
class Token:
    text: str
    gold: str

    def __post_init__(self) -> None:
        if not self.text:
            raise CorpusError("empty token text")
        if not self.gold:
            raise CorpusError("empty tag")


@dataclass(frozen=True)
class LabeledSequence:
    tokens: tuple[Token, ...]
    doc_id: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise CorpusError(f"document {self.doc_id} has no tokens")

    def texts(self) -> list[str]:
        return [t.text for t in self.tokens]

    def tags(self) -> list[str]:
        return [t.gold for t in self.tokens]


@dataclass(frozen=True)
class Corpus:
    sequences: tuple[LabeledSequence, ...]
    tagset_name: str = ""
    split: str = "train"

    def __post_init__(self) -> None:
        object.__setattr__(self, "sequences", tuple(self.sequences))
        if not self.sequences:
            raise CorpusError("corpus has no documents")
        if self.split not in SPLITS:
            raise CorpusError(f"split must be one of {SPLITS}, got {self.split!r}")

    def __len__(self) -> int:
        return len(self.sequences)

    @property
    def token_count(self) -> int:
        return sum(len(s.tokens) for s in self.sequences)

    def with_tagset(self, tagset_name: str, split: str | None = None) -> "Corpus":
        return Corpus(self.sequences, tagset_name, split or self.split)

    def check_tags(self, allowed: Iterable[str]) -> None:
        """Every non-Other gold tag must belong to the declared tagset."""
        allowed = set(allowed)
        bad = induce_tagset(self) - allowed
        if bad:
            raise CorpusError(
                f"corpus tagged with {self.tagset_name or '(unnamed)'} contains "
                f"tags outside it: {', '.join(sorted(bad))}"
            )


def parse_column_text(text: str, tagset_name: str = "", split: str = "train",
                      source: str = "<string>") -> Corpus:
    docs: list[LabeledSequence] = []
    current: list[Token] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            if current:
                docs.append(LabeledSequence(tuple(current), f"doc{len(docs)}"))
                current = []
            continue
        cols = line.split("\t")
        if len(cols) != 2 or not cols[0] or not cols[1]:
            raise CorpusError(f"{source}:{lineno}: expected 'token<TAB>tag', got {line!r}")
        current.append(Token(cols[0], cols[1]))
    if current:
        docs.append(LabeledSequence(tuple(current), f"doc{len(docs)}"))
    if not docs:
        raise CorpusError(f"{source}: no documents found")
    return Corpus(tuple(docs), tagset_name, split)


def read_column_file(path: str | Path, tagset_name: str = "",
                     split: str = "train") -> Corpus:
    p = Path(path)
    return parse_column_text(p.read_text(encoding="utf-8"), tagset_name, split, str(p))


def format_column_text(corpus: Corpus) -> str:
    blocks = [
        "\n".join(f"{t.text}\t{t.gold}" for t in seq.tokens)
        for seq in corpus.sequences
    ]
    return "\n\n".join(blocks) + "\n"


def write_column_file(corpus: Corpus, path: str | Path) -> None:
    Path(path).write_text(format_column_text(corpus), encoding="utf-8")


def induce_tagset(corpus: Corpus) -> frozenset[str]:
    """Distinct non-Other gold tags occurring in the corpus."""
    return frozenset(
        t.gold for seq in corpus.sequences for t in seq.tokens if t.gold != OTHER
    )


@dataclass(frozen=True)
class SelectiveResult:
    """make_selective output: re-annotated corpora plus their reduced tag sets.

    The returned corpora keep their original tagset_name; callers declare the
    reduced sets under fresh names before extending a hierarchy with them.
    """

    base: Corpus
    extending: Corpus
    base_tags: frozenset[str]
    extending_tags: frozenset[str]


def _retag(corpus: Corpus, keep) -> Corpus:
    docs = []
    for seq in corpus.sequences:
        toks = tuple(
            t if t.gold == OTHER or keep(t.gold) else Token(t.text, OTHER)
            for t in seq.tokens
        )
        docs.append(LabeledSequence(toks, seq.doc_id))
    return Corpus(tuple(docs), corpus.tagset_name, corpus.split)


def make_selective(
    base: Corpus,
    extending: Corpus,
    t: str,
    hierarchy: TagHierarchy | None = None,
) -> SelectiveResult:
    """Remove tag t (and its hyponyms, given a hierarchy) from `base`; keep
    only those tags in `extending`.  Token text and segmentation never change.
    """
    removed = set(hierarchy.hyponym_closure(t)) if hierarchy is not None else {t}
    base_seen = induce_tagset(base)
    ext_seen = induce_tagset(extending)
    if not removed & base_seen:
        raise CorpusError(f"tag {t} does not occur in the base corpus")
    if not removed & ext_seen:
        raise CorpusError(f"tag {t} does not occur in the extending corpus")
    return SelectiveResult(
        base=_retag(base, lambda g: g not in removed),
        extending=_retag(extending, lambda g: g in removed),
        base_tags=frozenset(base_seen - removed),
        extending_tags=frozenset(ext_seen & removed),
    )


@dataclass
class GeneratorConfig:
    docs: int
    doc_length: int
    entity_rate: float
    background: list[str]
    types: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.docs < 1 or self.doc_length < 1:
            raise CorpusError("docs and doc_length must be >= 1")
        if not 0.0 <= self.entity_rate <= 1.0:
            raise CorpusError(f"entity_rate {self.entity_rate} not in [0, 1]")
        if not self.background:
            raise CorpusError("background vocabulary is empty")
        if self.entity_rate > 0 and not self.types:
            raise CorpusError("entity_rate > 0 needs at least one type")
        for name, lexicon in self.types.items():
            if not lexicon:
                raise CorpusError(f"type {name} has an empty lexicon")


def parse_generator_config(text: str, source: str = "<string>") -> GeneratorConfig:
    scalars: dict[str, str] = {}
    background: list[str] = []
    types: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        fields = line.split()
        key, args = fields[0], fields[1:]
        if key in ("docs", "doc_length", "entity_rate"):
            if len(args) != 1:
                raise CorpusError(f"{source}:{lineno}: {key} takes one value")
            if key in scalars:
                raise CorpusError(f"{source}:{lineno}: duplicate key {key}")
            scalars[key] = args[0]
        elif key == "background":
            if not args:
                raise CorpusError(f"{source}:{lineno}: background needs words")
            background.extend(args)
        elif key == "type":
            if len(args) < 2:
                raise CorpusError(f"{source}:{lineno}: type needs a name and words")
            if args[0] in types:
                raise CorpusError(f"{source}:{lineno}: duplicate type {args[0]}")
            types[args[0]] = args[1:]
        else:
            raise CorpusError(f"{source}:{lineno}: unknown key {key!r}")
    missing = {"docs", "doc_length", "entity_rate"} - scalars.keys()
    if missing:
        raise CorpusError(f"{source}: missing keys: {', '.join(sorted(missing))}")
    try:
        docs = int(scalars["docs"])
        doc_length = int(scalars["doc_length"])
        entity_rate = float(scalars["entity_rate"])
    except ValueError as e:
        raise CorpusError(f"{source}: {e}") from None
    return GeneratorConfig(docs, doc_length, entity_rate, background, types)


def synth_corpus(config: GeneratorConfig, seed: int, split: str = "train") -> Corpus:
    """Reproducible synthetic corpus.  Each token is an entity with probability
    entity_rate (type uniform over declared types, word uniform over its
    lexicon); otherwise a uniform background word."""
    if seed < 0:
        raise CorpusError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    type_names = list(config.types)
    docs = []
    for d in range(config.docs):
        toks = []
        for _ in range(config.doc_length):
            if type_names and rng.random() < config.entity_rate:
                name = type_names[int(rng.integers(len(type_names)))]
                lexicon = config.types[name]
                toks.append(Token(lexicon[int(rng.integers(len(lexicon)))], name))
            else:
                toks.append(Token(config.background[int(rng.integers(len(config.background)))], OTHER))
        docs.append(LabeledSequence(tuple(toks), f"doc{d}"))
    return Corpus(tuple(docs), split=split)
