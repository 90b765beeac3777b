"""Scoring, the paired signed-rank test, and result-table rendering.

The primary metric is token-level micro-F1 over non-Other tags; a span-level
variant (maximal same-tag runs, exact match) sits behind a flag.  The
signed-rank test drops zero differences, average-ranks ties, and switches
from exact sign enumeration to a tie-corrected normal approximation above
EXACT_MAX_N nonzero pairs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import stats

from hiertag.data import OTHER

EXACT_MAX_N = 25  # the largest sample whose signed-rank p-value is enumerated exactly


class EvalError(ValueError):
    """Misaligned predictions or malformed result rows."""


@dataclass(frozen=True)
class TagCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def __add__(self, other: "TagCounts") -> "TagCounts":
        return TagCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


@dataclass
class PRFReport:
    per_tag: dict[str, TagCounts]
    token_count: int

    @property
    def micro(self) -> TagCounts:
        total = TagCounts()
        for counts in self.per_tag.values():
            total = total + counts
        return total


def _spans(tags: Sequence[str]) -> set[tuple[int, int, str]]:
    out = set()
    start = None
    for i, t in enumerate(list(tags) + [OTHER]):
        if start is not None and t != tags[start]:
            out.add((start, i - 1, tags[start]))
            start = None
        if start is None and t != OTHER and i < len(tags):
            start = i
    return out


def score(
    pred: Sequence[Sequence[str]],
    gold: Sequence[Sequence[str]],
    span_mode: bool = False,
) -> PRFReport:
    """Micro P/R/F1 with 0/0 -> 0.  Token-level by default; span_mode counts
    maximal same-tag runs as units instead."""
    if len(pred) != len(gold):
        raise EvalError(f"{len(pred)} predicted documents vs {len(gold)} gold")
    tp, fp, fn = Counter[str](), Counter[str](), Counter[str]()
    tokens = 0
    for d, (p_seq, g_seq) in enumerate(zip(pred, gold)):
        if len(p_seq) != len(g_seq):
            raise EvalError(f"document {d}: {len(p_seq)} predicted tokens vs {len(g_seq)} gold")
        tokens += len(g_seq)
        if span_mode:
            ps, gs = _spans(p_seq), _spans(g_seq)
            tp.update(span[2] for span in ps & gs)
            fp.update(span[2] for span in ps - gs)
            fn.update(span[2] for span in gs - ps)
        else:
            pairs = list(zip(p_seq, g_seq))
            tp.update(g for p, g in pairs if p == g != OTHER)
            fp.update(p for p, g in pairs if p != g and p != OTHER)
            fn.update(g for p, g in pairs if p != g and g != OTHER)
    return PRFReport({t: TagCounts(tp[t], fp[t], fn[t]) for t in sorted(tp | fp | fn)}, tokens)


@dataclass(frozen=True)
class WilcoxonResult:
    n_nonzero: int
    statistic: float
    p_value: float
    significant_at_0_01: bool


def _exact_p(ranks: np.ndarray, statistic: float) -> float:
    # Ranks are half-integers under average ranking; double them so the
    # null distribution of the doubled rank sum lives on the integers.
    doubled = np.rint(2 * ranks).astype(np.int64)
    total = int(doubled.sum())
    dist = np.zeros(total + 1)
    dist[0] = 1.0
    for r in doubled:
        nxt = dist.copy()
        nxt[r:] += dist[: total + 1 - r]
        dist = nxt
    cutoff = int(np.rint(2 * statistic))
    p = 2.0 * dist[: cutoff + 1].sum() / 2.0 ** len(ranks)
    return min(1.0, p)


def _normal_p(ranks: np.ndarray, statistic: float) -> float:
    n = len(ranks)
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_sizes = np.unique(ranks, return_counts=True)
    var -= (tie_sizes.astype(np.float64) ** 3 - tie_sizes).sum() / 48.0
    if var <= 0:
        return 1.0
    z = (statistic - mean + 0.5) / np.sqrt(var)
    return min(1.0, 2.0 * float(stats.norm.cdf(z)))


def wilcoxon(a: Sequence[float], b: Sequence[float]) -> WilcoxonResult:
    """Two-sided paired signed-rank test.

    Zero differences are dropped.  For n_nonzero <= EXACT_MAX_N the p-value
    enumerates sign assignments exactly (tie-aware); beyond that it uses the
    tie-corrected normal approximation with continuity correction.
    Significance is declared at p <= 0.01.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise EvalError("samples must be equal-length 1-d with at least one pair")
    d = a - b
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return WilcoxonResult(0, 0.0, 1.0, False)
    ranks = stats.rankdata(np.abs(d))
    w_pos = float(ranks[d > 0].sum())
    w_neg = float(ranks[d < 0].sum())
    statistic = min(w_pos, w_neg)
    p = (_exact_p if n <= EXACT_MAX_N else _normal_p)(ranks, statistic)
    return WilcoxonResult(n, statistic, p, p <= 0.01)


@dataclass(frozen=True)
class ResultRow:
    """One experiment cell: a model kind evaluated on one triplet and seed."""

    tag: str
    base: str
    extending: str
    model: str
    seed: int
    counts: TagCounts = field(default_factory=TagCounts)
    collisions: int = 0
    status: str = "ok"

    def sort_key(self):
        return (self.tag, self.base, self.extending, self.model, self.seed)


def _csv_field(value: str) -> str:
    if any(c in value for c in ',"\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


_HEADER = ["tag", "base", "extending", "model", "seed",
           "tp", "fp", "fn", "precision", "recall", "f1", "collisions", "status"]


def _row_cells(r: ResultRow) -> list[str]:
    c = r.counts
    return [
        r.tag, r.base, r.extending, r.model, str(r.seed),
        str(c.tp), str(c.fp), str(c.fn),
        f"{c.precision:.6f}", f"{c.recall:.6f}", f"{c.f1:.6f}",
        str(r.collisions), r.status,
    ]


def report(rows: Sequence[ResultRow], format: str = "csv") -> str:
    """Render result rows deterministically.  CSV is data-only; markdown adds
    a recomputed grand-total row."""
    if not rows:
        raise EvalError("no result rows")
    ordered = sorted(rows, key=ResultRow.sort_key)
    if format == "csv":
        lines = [",".join(_HEADER)]
        for r in ordered:
            lines.append(",".join(_csv_field(c) for c in _row_cells(r)))
        return "\n".join(lines) + "\n"
    if format == "markdown":
        lines = ["| " + " | ".join(_HEADER) + " |",
                 "|" + "---|" * len(_HEADER)]
        for r in ordered:
            lines.append("| " + " | ".join(c.replace("|", "\\|") for c in _row_cells(r)) + " |")
        total = TagCounts()
        collisions = 0
        for r in ordered:
            total = total + r.counts
            collisions += r.collisions
        lines.append(
            "| **Total** |  |  |  |  | "
            f"{total.tp} | {total.fp} | {total.fn} | "
            f"{total.precision:.6f} | {total.recall:.6f} | {total.f1:.6f} | "
            f"{collisions} |  |"
        )
        return "\n".join(lines) + "\n"
    raise EvalError(f"unknown report format {format!r}")
