"""Versioned binary snapshots of trained models.

Layout, all little-endian: magic, format version, model kind, the training
configuration as canonical JSON, the extended hierarchy in its text form,
the frozen feature string table, the emission parameters, then each head
(sorted by name) with its tag domain and transition parameters.  Arrays are
stored as dimension counts plus raw float64 bytes, so reruns of the same
training job produce byte-identical files and a loaded model predicts
bitwise identically to the one saved.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from hiertag.features import FeatureVocabulary, LinearEmissionModel, SharedEmissionModel
from hiertag.hierarchy import parse_extended
from hiertag.models import Head, ModelKind, TrainedModel, TrainingConfig

MAGIC = b"HTAG"
FORMAT_VERSION = 1
_U32 = struct.Struct("<I")


class ModelFormatError(ValueError):
    """Unreadable, truncated or version-mismatched model file."""


class _Writer:
    def __init__(self) -> None:
        self.parts: list[bytes] = []

    def u32(self, v: int) -> None:
        self.parts.append(struct.pack("<I", v))

    def u64(self, v: int) -> None:
        self.parts.append(struct.pack("<Q", v))

    def text(self, s: str) -> None:
        raw = s.encode("utf-8")
        self.u32(len(raw))
        self.parts.append(raw)

    def array(self, a: np.ndarray) -> None:
        a = np.ascontiguousarray(a, dtype=np.float64)
        self.u32(a.ndim)
        for d in a.shape:
            self.u64(d)
        self.parts.append(a.astype("<f8").tobytes())

    def blob(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, raw: bytes) -> None:
        self.raw = raw
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.raw):
            raise ModelFormatError("corrupt or truncated model file")
        out = self.raw[self.off : self.off + n]
        self.off += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def text(self) -> str:
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError("corrupt or truncated model file") from exc

    def texts(self, count: int) -> list[str]:
        """`count` length-prefixed strings, read in one pass."""
        raw, off, end = self.raw, self.off, len(self.raw)
        spans = []
        for _ in range(count):
            if off + 4 > end:
                raise ModelFormatError("corrupt or truncated model file")
            size = _U32.unpack_from(raw, off)[0]
            spans.append((off + 4, off + 4 + size))
            off += 4 + size
        if off > end:
            raise ModelFormatError("corrupt or truncated model file")
        try:
            out = [raw[a:b].decode("utf-8") for a, b in spans]
        except UnicodeDecodeError as exc:
            raise ModelFormatError("corrupt or truncated model file") from exc
        self.off = off
        return out

    def array(self) -> np.ndarray:
        ndim = self.u32()
        if ndim > 4:
            raise ModelFormatError("corrupt or truncated model file")
        shape = tuple(self.u64() for _ in range(ndim))
        count = 1
        for d in shape:
            count *= d
        data = self.take(8 * count)
        return np.frombuffer(data, dtype="<f8").reshape(shape).copy()

    def done(self) -> None:
        if self.off != len(self.raw):
            raise ModelFormatError("trailing bytes after model payload")


def _write_emission(w: _Writer, emission) -> None:
    if isinstance(emission, LinearEmissionModel):
        w.text("linear")
        w.array(emission.weights)
        w.array(emission.bias)
    elif isinstance(emission, SharedEmissionModel):
        w.text("shared")
        w.array(emission.shared_weights)
        w.array(emission.shared_bias)
        w.u32(len(emission.heads))
        for name in sorted(emission.heads):
            hw, hb = emission.heads[name]
            w.text(name)
            w.array(hw)
            w.array(hb)
    else:
        raise ModelFormatError(f"unsupported emission model {type(emission).__name__}")


def _read_emission(r: _Reader):
    tag = r.text()
    if tag == "linear":
        return LinearEmissionModel(r.array(), r.array())
    if tag == "shared":
        shared_w = r.array()
        shared_b = r.array()
        heads = {}
        for _ in range(r.u32()):
            name = r.text()
            heads[name] = (r.array(), r.array())
        return SharedEmissionModel(shared_w, shared_b, heads)
    raise ModelFormatError(f"unknown emission model tag {tag!r}")


def model_bytes(model: TrainedModel) -> bytes:
    w = _Writer()
    w.parts.append(MAGIC)
    w.u32(FORMAT_VERSION)
    w.text(model.kind.value)
    w.text(json.dumps(asdict(model.config), sort_keys=True, separators=(",", ":")))
    w.text(model.hierarchy.to_text())
    table = model.vocab.strings_by_id()
    w.u32(len(table))
    for s in table:
        w.text(s)
    _write_emission(w, model.emission)
    w.u32(len(model.heads))
    for name in sorted(model.heads):
        head = model.heads[name]
        w.text(name)
        w.u32(len(head.domain))
        for t in head.domain:
            w.text(t)
        w.array(head.transitions)
        w.array(head.start)
        w.array(head.stop)
    return w.blob()


def save_model(model: TrainedModel, path: str | Path) -> None:
    Path(path).write_bytes(model_bytes(model))


def _check_shapes(
    kind: ModelKind, vocab: FeatureVocabulary, emission, heads: dict[str, Head]
) -> None:
    """Every head's parameters fit its domain, and the emission scorer reads
    the vocabulary's features and writes one row per domain tag of each head."""
    shared = isinstance(emission, SharedEmissionModel)
    if shared != (kind is ModelKind.MTL) or not (shared or len(heads) == 1):
        raise ModelFormatError(f"emission scorer does not fit a {kind.value} model")
    if emission.feature_count != vocab.size:
        raise ModelFormatError("emission feature count disagrees with the vocabulary")
    if shared:
        rows = {name: w.shape[0] for name, (w, _) in emission.heads.items()}
    else:
        rows = dict.fromkeys(heads, emission.weights.shape[0])
    if rows.keys() != heads.keys():
        raise ModelFormatError("emission heads disagree with the CRF heads")
    for name, head in heads.items():
        y = len(head.domain)
        shapes = (head.transitions.shape, head.start.shape, head.stop.shape, rows[name])
        if shapes != ((y, y), (y,), (y,), y):
            raise ModelFormatError(f"head {name} parameters do not fit its {y}-tag domain")
        if not all(np.isfinite(a).all() for a in (head.transitions, head.start, head.stop)):
            raise ModelFormatError(f"head {name} parameters must be finite")


def load_model(path: str | Path) -> TrainedModel:
    """Read a model file; any fault in its content raises ModelFormatError."""
    raw = Path(path).read_bytes()
    try:
        return _parse_model(raw)
    except ModelFormatError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ModelFormatError(f"corrupt model file: {exc}") from exc


def _parse_model(raw: bytes) -> TrainedModel:
    r = _Reader(raw)
    if r.take(4) != MAGIC:
        raise ModelFormatError("not a model file (bad magic)")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version {version}")
    kind = ModelKind(r.text())
    config = TrainingConfig(**json.loads(r.text()))
    hierarchy = parse_extended(r.text())
    vocab = FeatureVocabulary.from_strings(r.texts(r.u32()))
    emission = _read_emission(r)
    heads = {}
    for _ in range(r.u32()):
        name = r.text()
        domain = r.texts(r.u32())
        heads[name] = Head(name, domain, r.array(), r.array(), r.array())
    r.done()
    _check_shapes(kind, vocab, emission, heads)
    return TrainedModel(kind, hierarchy, vocab, emission, heads, config)
