"""Experiment harness: tagset-extension triplets and multi-corpus integration
runs over every requested model kind and seed, reported as CSV and markdown
with pairwise significance tests.

Specs are flat key-value text files (see `parse_experiment_spec`); every path
inside a spec resolves relative to the spec file.  Cells share nothing, so
they can run in parallel processes (capped by HIERTAG_THREADS).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import combinations
from pathlib import Path
from typing import Sequence

from hiertag.data import Corpus, CorpusError, make_selective, read_column_file
from hiertag.evaluation import ResultRow, TagCounts, report, score, wilcoxon
from hiertag.hierarchy import (
    TagHierarchy,
    ensure_extended,
    extend_with_other,
    parse_hierarchy,
)
from hiertag.models import (
    ConsolidationMethod,
    ModelError,
    ModelKind,
    TrainingConfig,
    output_tags,
    predict_hier,  # noqa: F401  (perfbench/spans.py wraps these names here)
    predict_multi,  # noqa: F401
    tag_batch,
    train_concat,
    train_hier,
    train_indep,
    train_mtl,
)

BASE_TAGSET = "base"
EXTENDING_TAGSET = "extending"
TEST_TAGSET = "test"

_CONFIG_KEYS = {f.name for f in fields(TrainingConfig)} - {"seed"}


class ExperimentError(ValueError):
    """Malformed or inconsistent experiment spec."""


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    hierarchy: Path
    models: tuple[str, ...]
    seeds: tuple[int, ...]
    consolidation: ConsolidationMethod
    out_dir: Path
    training: TrainingConfig
    dev_fraction: float
    # extension kind
    base: Path | None = None
    extending: Path | None = None
    targets: tuple[str, ...] = ()
    # integration kind
    datasets: tuple[tuple[Path, str], ...] = ()
    tests: tuple[tuple[Path, str], ...] = ()


@dataclass(frozen=True)
class Cell:
    model: str
    seed: int
    target: str = ""


def parse_experiment_spec(text: str, base_dir: Path, source: str = "<spec>") -> ExperimentSpec:
    scalars: dict[str, str] = {}
    lists: dict[str, list] = {"target": [], "dataset": [], "test": []}

    def path_of(raw: str) -> Path:
        return (base_dir / raw).resolve()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        key, *args = line.split()
        where = f"{source}:{lineno}"
        if key in ("target",):
            if len(args) != 1:
                raise ExperimentError(f"{where}: target takes one tag")
            lists["target"].append(args[0])
        elif key == "dataset":
            if len(args) != 2:
                raise ExperimentError(f"{where}: dataset takes a path and a tagset name")
            lists["dataset"].append((path_of(args[0]), args[1]))
        elif key == "test":
            if len(args) not in (1, 2):
                raise ExperimentError(f"{where}: test takes a path and optionally a tagset")
            lists["test"].append((path_of(args[0]), args[1] if len(args) == 2 else ""))
        elif key in ("models", "seeds"):
            if not args:
                raise ExperimentError(f"{where}: {key} needs at least one value")
            if key in scalars:
                raise ExperimentError(f"{where}: duplicate {key}")
            scalars[key] = " ".join(args)
        else:
            if len(args) != 1:
                raise ExperimentError(f"{where}: {key} takes one value")
            if key in scalars:
                raise ExperimentError(f"{where}: duplicate {key}")
            scalars[key] = args[0]

    def need(key: str) -> str:
        if key not in scalars:
            raise ExperimentError(f"{source}: missing required key {key}")
        return scalars.pop(key)

    kind = need("kind")
    if kind not in ("extension", "integration"):
        raise ExperimentError(f"unknown experiment kind {kind!r}")
    hierarchy = path_of(need("hierarchy"))
    out_dir = path_of(need("out_dir"))

    models = tuple(need("models").split())
    known = {k.value for k in ModelKind}
    for m in models:
        if m not in known:
            raise ExperimentError(f"unknown model kind {m!r}")
    if len(set(models)) != len(models):
        raise ExperimentError("duplicate model kind")

    try:
        seeds = tuple(int(s) for s in need("seeds").split())
    except ValueError as exc:
        raise ExperimentError(f"seeds must be integers: {exc}") from None

    def convert(key: str, raw: str, kind):
        try:
            return kind(raw)
        except ValueError:
            raise ExperimentError(f"{source}: bad {key} value {raw!r}") from None

    method = convert("consolidation", scalars.pop("consolidation", "random"), ConsolidationMethod)
    dev_fraction = convert("dev_fraction", scalars.pop("dev_fraction", "0"), float)
    if not 0 <= dev_fraction < 1:
        raise ExperimentError("dev_fraction must lie in [0, 1)")

    overrides: dict = {}
    for key in list(scalars):
        if key in _CONFIG_KEYS:
            raw = scalars.pop(key)
            if key == "bio":
                overrides[key] = raw.lower() in ("1", "true", "yes", "on")
            elif key in ("learning_rate", "l2", "clip_norm"):
                overrides[key] = convert(key, raw, float)
            else:
                overrides[key] = convert(key, raw, int)
    training = TrainingConfig(**overrides)

    base = scalars.pop("base", None)
    extending = scalars.pop("extending", None)
    if scalars:
        raise ExperimentError(f"unknown spec keys: {', '.join(sorted(scalars))}")

    spec = ExperimentSpec(
        kind=kind,
        hierarchy=hierarchy,
        models=models,
        seeds=seeds,
        consolidation=method,
        out_dir=out_dir,
        training=training,
        dev_fraction=dev_fraction,
        base=path_of(base) if base else None,
        extending=path_of(extending) if extending else None,
        targets=tuple(lists["target"]),
        datasets=tuple(lists["dataset"]),
        tests=tuple(lists["test"]),
    )
    _validate(spec)
    return spec


def _validate(spec: ExperimentSpec) -> None:
    if spec.kind == "extension":
        if spec.base is None or spec.extending is None:
            raise ExperimentError("extension kind needs base and extending corpora")
        if not spec.targets:
            raise ExperimentError("extension kind needs at least one target tag")
        if any(ts for _, ts in spec.tests):
            raise ExperimentError("extension tests use the synthesized test tagset; drop the name")
    else:
        if not spec.datasets:
            raise ExperimentError("integration kind needs dataset lines")
        if spec.targets or spec.base or spec.extending:
            raise ExperimentError("integration kind takes datasets, not a triplet")
        if any(not ts for _, ts in spec.tests):
            raise ExperimentError("integration tests need explicit tagset names")
    if not spec.tests:
        raise ExperimentError("no test corpora")
    for p in _referenced_files(spec):
        if not p.is_file():
            raise ExperimentError(f"referenced file does not exist: {p}")


def _referenced_files(spec: ExperimentSpec) -> list[Path]:
    out = [spec.hierarchy]
    out += [p for p in (spec.base, spec.extending) if p is not None]
    out += [p for p, _ in spec.datasets]
    out += [p for p, _ in spec.tests]
    return out


def _split_dev(corpus: Corpus, fraction: float) -> tuple[Corpus, Corpus | None]:
    if fraction <= 0 or len(corpus.sequences) < 2:
        return corpus, None
    stride = max(2, round(1 / fraction))
    dev = [s for i, s in enumerate(corpus.sequences) if i % stride == stride - 1]
    train = [s for i, s in enumerate(corpus.sequences) if i % stride != stride - 1]
    if not dev or not train:
        return corpus, None
    return (
        Corpus(tuple(train), corpus.tagset_name, corpus.split),
        Corpus(tuple(dev), corpus.tagset_name, "dev"),
    )


def train_models(kind: str, datasets, eh, cfg, dev=None, on_epoch=None):
    """Dispatch to the right trainer; always returns a list of models.
    on_epoch(model, record) is called as each epoch of each model ends."""
    trainer = {
        ModelKind.HIER.value: train_hier,
        ModelKind.CONCAT.value: train_concat,
        ModelKind.INDEP.value: train_indep,
        ModelKind.MTL.value: train_mtl,
    }[kind]
    out = trainer(datasets, eh, cfg, dev=dev, on_epoch=on_epoch)
    return out if isinstance(out, list) else [out]


def tag_sequences(
    models, token_lists: Sequence[Sequence[str]], tagset: str, method, seed: int
) -> tuple[list[list[str]], int]:
    """Predict every sequence in one batched request, collapsed to file tags;
    returns collision total."""
    out = tag_batch(models, token_lists, tagset, method, seed)
    eh = models[0].hierarchy
    return [output_tags(c.tags, eh, tagset) for c in out], sum(c.collisions for c in out)


def _micro_counts(preds, golds) -> TagCounts:
    return score(preds, golds).micro


def _extension_rows(spec: ExperimentSpec, cell: Cell) -> list[ResultRow]:
    graph = parse_hierarchy(spec.hierarchy.read_text(encoding="utf-8"))
    base = read_column_file(spec.base)
    extending = read_column_file(spec.extending)
    sel = make_selective(
        base, extending, cell.target,
        graph if cell.target in graph.nodes else None,
    )
    for name in (BASE_TAGSET, EXTENDING_TAGSET, TEST_TAGSET):
        if name in graph.tagsets:
            raise ExperimentError(f"hierarchy tagset name {name!r} is reserved")
    tagsets = dict(graph.tagsets)
    tagsets[BASE_TAGSET] = sel.base_tags
    tagsets[EXTENDING_TAGSET] = sel.extending_tags
    tagsets[TEST_TAGSET] = sel.base_tags | sel.extending_tags
    nodes = graph.nodes | sel.base_tags | sel.extending_tags
    eh = extend_with_other(TagHierarchy(nodes, graph.edges, tagsets))

    train_base, dev_base = _split_dev(sel.base.with_tagset(BASE_TAGSET), spec.dev_fraction)
    train_ext, dev_ext = _split_dev(
        sel.extending.with_tagset(EXTENDING_TAGSET), spec.dev_fraction
    )
    dev = [c for c in (dev_base, dev_ext) if c is not None] or None
    cfg = replace(spec.training, seed=cell.seed)
    models = train_models(cell.model, [train_base, train_ext], eh, cfg, dev=dev)

    rows = []
    for path, _ in spec.tests:
        test = read_column_file(path)
        token_lists = [s.texts() for s in test.sequences]
        preds, collisions = tag_sequences(
            models, token_lists, TEST_TAGSET, spec.consolidation, cell.seed
        )
        golds = [s.tags() for s in test.sequences]
        rows.append(
            ResultRow(
                tag=cell.target,
                base=spec.base.stem,
                extending=path.stem,
                model=cell.model,
                seed=cell.seed,
                counts=_micro_counts(preds, golds),
                collisions=collisions,
            )
        )
    return rows


def _integration_rows(spec: ExperimentSpec, cell: Cell) -> list[ResultRow]:
    eh = ensure_extended(spec.hierarchy.read_text(encoding="utf-8"))
    corpora = []
    devs = []
    for path, ts in spec.datasets:
        train, dev = _split_dev(read_column_file(path).with_tagset(ts), spec.dev_fraction)
        corpora.append(train)
        if dev is not None:
            devs.append(dev)
    cfg = replace(spec.training, seed=cell.seed)
    models = train_models(cell.model, corpora, eh, cfg, dev=devs or None)
    joined = "+".join(p.stem for p, _ in spec.datasets)

    rows = []
    for path, ts in spec.tests:
        test = read_column_file(path).with_tagset(ts)
        token_lists = [s.texts() for s in test.sequences]
        preds, collisions = tag_sequences(
            models, token_lists, ts, spec.consolidation, cell.seed
        )
        golds = [s.tags() for s in test.sequences]
        rows.append(
            ResultRow(
                tag=ts,
                base=joined,
                extending=path.stem,
                model=cell.model,
                seed=cell.seed,
                counts=_micro_counts(preds, golds),
                collisions=collisions,
            )
        )
    return rows


def run_cell(spec: ExperimentSpec, cell: Cell) -> list[ResultRow]:
    try:
        if spec.kind == "extension":
            return _extension_rows(spec, cell)
        return _integration_rows(spec, cell)
    except Exception as exc:  # a failed cell is reported, and the other cells still run
        cause = " ".join(f"{type(exc).__name__}: {exc}".split())
        return [
            ResultRow(
                tag=cell.target or "-",
                base="-",
                extending="-",
                model=cell.model,
                seed=cell.seed,
                counts=TagCounts(0, 0, 0),
                collisions=0,
                status=f"failed: {cause}",
            )
        ]


def build_cells(spec: ExperimentSpec) -> list[Cell]:
    targets = spec.targets if spec.kind == "extension" else ("",)
    return [
        Cell(model=m, seed=s, target=t)
        for t in targets
        for m in spec.models
        for s in spec.seeds
    ]


def _worker_count() -> int:
    raw = os.environ.get("HIERTAG_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ExperimentError(f"HIERTAG_THREADS must be an integer, got {raw!r}") from None


def run_experiment(spec: ExperimentSpec) -> tuple[list[ResultRow], bool]:
    cells = build_cells(spec)
    workers = min(_worker_count(), len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_cell = list(pool.map(run_cell, [spec] * len(cells), cells))
    else:
        per_cell = [run_cell(spec, c) for c in cells]
    rows = [r for rs in per_cell for r in rs]
    failed = any(r.status != "ok" for r in rows)
    return rows, failed


def wilcoxon_block(rows: Sequence[ResultRow]) -> str:
    """Pairwise model-kind comparisons of per-cell F1, paired on everything
    except the model column.  Failed cells drop the pair."""
    by_model: dict[str, dict[tuple, float]] = {}
    for r in rows:
        if r.status != "ok":
            continue
        key = (r.tag, r.base, r.extending, r.seed)
        by_model.setdefault(r.model, {})[key] = r.counts.f1
    lines = ["## Wilcoxon signed-rank on paired F1", ""]
    kinds = sorted(by_model)
    if len(kinds) < 2:
        lines.append("fewer than two model kinds completed; nothing to compare")
        return "\n".join(lines) + "\n"
    for a, b in combinations(kinds, 2):
        shared = sorted(set(by_model[a]) & set(by_model[b]))
        if not shared:
            lines.append(f"{a} vs {b}: no shared cells")
            continue
        res = wilcoxon([by_model[a][k] for k in shared], [by_model[b][k] for k in shared])
        verdict = "yes" if res.significant_at_0_01 else "no"
        lines.append(
            f"{a} vs {b}: pairs={len(shared)} nonzero={res.n_nonzero} "
            f"statistic={res.statistic:.1f} p={res.p_value:.6f} significant_at_0.01={verdict}"
        )
    return "\n".join(lines) + "\n"


def write_reports(spec: ExperimentSpec, rows: Sequence[ResultRow]) -> tuple[Path, Path]:
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = spec.out_dir / "report.csv"
    md_path = spec.out_dir / "report.md"
    csv_path.write_text(report(rows, "csv"), encoding="utf-8")
    md_path.write_text(
        report(rows, "markdown") + "\n" + wilcoxon_block(rows), encoding="utf-8"
    )
    return csv_path, md_path
