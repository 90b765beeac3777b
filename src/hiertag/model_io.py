"""Versioned binary snapshots of trained models.

Layout, all little-endian: magic, format version, the payload's length and
CRC-32, then the payload: model kind, the training configuration as
canonical JSON, the extended hierarchy in its text form, the feature string
table, the sorted head names, each head's tag domain, then the parameter
table of `TrainedModel.params`: its sorted names and one array per name in
that order.  The kind picks the emission scorer (mtl: shared; else linear,
with one head), and the table's names must be the loaded model's own.
Strings are stored as tables (a single string is a table of one): a u32
count, the u32 code-point lengths, a u64 byte length and one UTF-8 blob,
decoded once and sliced.  Arrays are stored as dimension counts plus raw
float64 bytes, so reruns of the same training job produce byte-identical
files and a loaded model predicts bitwise identically to the one saved.
The checksum is verified before any of the payload is parsed.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

from hiertag.features import FeatureVocabulary, LinearEmissionModel, SharedEmissionModel
from hiertag.hierarchy import parse_extended
from hiertag.models import Head, ModelKind, TrainedModel, TrainingConfig

MAGIC = b"HTAG"
FORMAT_VERSION = 5
_HEADER = struct.Struct("<IQI")  # version, payload length, payload CRC-32


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
        self.texts([s])

    def texts(self, strings: list[str]) -> None:
        blob = "".join(strings).encode("utf-8")
        self.u32(len(strings))
        self.parts.append(np.fromiter(map(len, strings), "<u4", len(strings)).tobytes())
        self.u64(len(blob))
        self.parts.append(blob)

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
        strings = self.texts()
        if len(strings) != 1:
            raise ModelFormatError(f"corrupt model file: {len(strings)} strings where one belongs")
        return strings[0]

    def texts(self) -> list[str]:
        """One string table: its blob is decoded once, then sliced."""
        lengths = np.frombuffer(self.take(4 * self.u32()), "<u4")
        try:
            blob = self.take(self.u64()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError("corrupt model file: invalid UTF-8") from exc
        starts = [0, *np.cumsum(lengths, dtype=np.int64).tolist()]
        if starts[-1] != len(blob):
            raise ModelFormatError("corrupt model file: string lengths disagree with their text")
        return [blob[a:b] for a, b in zip(starts, starts[1:])]

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


def model_bytes(model: TrainedModel) -> bytes:
    w = _Writer()
    w.text(model.kind.value)
    w.text(json.dumps(asdict(model.config), sort_keys=True, separators=(",", ":")))
    w.text(model.hierarchy.to_text())
    w.texts(model.vocab.strings_by_id())
    w.texts(sorted(model.heads))
    for name in sorted(model.heads):
        w.texts(model.heads[name].domain)
    params = model.params()
    w.texts(sorted(params))
    for key in sorted(params):
        w.array(params[key])
    payload = w.blob()
    return MAGIC + _HEADER.pack(FORMAT_VERSION, len(payload), zlib.crc32(payload)) + payload


def save_model(model: TrainedModel, path: str | Path) -> None:
    Path(path).write_bytes(model_bytes(model))


def _check_shapes(model: TrainedModel) -> None:
    """The scorer reads the vocabulary; each head's arrays and emission rows fit its domain."""
    if model.emission.feature_count != model.vocab.size:
        raise ModelFormatError("emission feature count disagrees with the vocabulary")
    for name, head in model.heads.items():
        y = len(head.domain)
        shapes = (head.transitions.shape, head.start.shape, head.stop.shape,
                  model.emission.rows(name))
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
    size, digest = r.u64(), r.u32()
    if len(raw) - r.off < size:
        raise ModelFormatError("corrupt or truncated model file")
    if len(raw) - r.off > size:
        raise ModelFormatError("trailing bytes after model payload")
    if zlib.crc32(memoryview(raw)[r.off :]) != digest:
        raise ModelFormatError("corrupt model file: checksum mismatch")
    kind = ModelKind(r.text())
    config = TrainingConfig(**json.loads(r.text()))
    hierarchy = parse_extended(r.text())
    vocab = FeatureVocabulary(r.texts())
    names = r.texts()
    domains = [r.texts() for _ in names]
    keys = r.texts()
    params = {key: r.array() for key in keys}
    r.done()
    if names != sorted(set(names)) or (kind is not ModelKind.MTL and len(names) != 1):
        raise ModelFormatError(f"heads {names} do not fit a {kind.value} model")
    scorer = SharedEmissionModel if kind is ModelKind.MTL else LinearEmissionModel
    heads = {n: Head.from_params(n, d, params) for n, d in zip(names, domains)}
    model = TrainedModel(kind, hierarchy, vocab, scorer.from_params(params, names), heads, config)
    if sorted(model.params()) != keys:
        raise ModelFormatError(f"parameter names do not fit a {kind.value} model")
    _check_shapes(model)
    return model
