"""Command-line interface.

Subcommands cover the full workflow: extending a tag hierarchy, training any
of the four model kinds, tagging, evaluating, running experiment specs, and
generating synthetic corpora.  Logs go to standard error; data goes to files.
Exit codes: 0 success, 1 runtime failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from hiertag.data import (
    Corpus,
    CorpusError,
    LabeledSequence,
    Token,
    parse_generator_config,
    read_column_file,
    synth_corpus,
    write_column_file,
)
from hiertag.evaluation import EvalError, score
from hiertag.experiments import (
    ExperimentError,
    parse_experiment_spec,
    run_experiment,
    tag_sequences,
    train_models,
    write_reports,
)
from hiertag.hierarchy import (
    HierarchyError,
    ensure_extended,
    extend_with_other,
    parse_hierarchy,
)
from hiertag.model_io import ModelFormatError, load_model, save_model
from hiertag.models import ConsolidationMethod, ModelError, ModelKind, TrainingConfig

_USAGE_ERRORS = (
    HierarchyError,
    CorpusError,
    ModelError,
    ModelFormatError,
    EvalError,
    ExperimentError,
    FileNotFoundError,
    IsADirectoryError,  # a directory where a file path belongs
    NotADirectoryError,  # a file where a directory belongs in a path
    UnicodeDecodeError,  # an input file that is not UTF-8 text
)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _data_arg(raw: str) -> tuple[Path, str]:
    path, sep, tagset = raw.rpartition(":")
    if not sep or not path or not tagset:
        raise ExperimentError(f"dataset argument {raw!r} must look like path:tagset-name")
    return Path(path), tagset


def _read_datasets(raws: list[str]) -> list[Corpus]:
    out = []
    for raw in raws:
        path, tagset = _data_arg(raw)
        out.append(read_column_file(path).with_tagset(tagset))
    return out


def _check_outputs(paths: list[Path], what: str) -> None:
    """Fail before any work when an output file could not be written."""
    for path in paths:
        if path.is_dir():
            raise IsADirectoryError(f"{what} output {path} is a directory")
        if not path.parent.is_dir():
            raise FileNotFoundError(f"{what} output directory {path.parent} does not exist")


def _config_from(args: argparse.Namespace) -> TrainingConfig:
    return TrainingConfig(**{f.name: getattr(args, f.name) for f in fields(TrainingConfig)})


def cmd_extend_hierarchy(args: argparse.Namespace) -> int:
    text = Path(args.input).read_text(encoding="utf-8")
    graph = parse_hierarchy(text)
    eh = extend_with_other(graph)
    Path(args.output).write_text(eh.to_text(), encoding="utf-8")
    added_nodes = len(eh.graph.nodes) - len(graph.nodes)
    added_edges = len(eh.graph.edges) - len(graph.edges)
    print(f"added {added_nodes} nodes, {added_edges} edges")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    corpora = _read_datasets(args.data)
    dev = _read_datasets(args.dev) if args.dev else None
    eh = ensure_extended(Path(args.hierarchy).read_text(encoding="utf-8"))
    cfg = _config_from(args)
    out = Path(args.out)
    if args.kind == ModelKind.INDEP.value:  # one model file per dataset
        paths = [out.with_name(f"{out.stem}.{i}{out.suffix}") for i in range(len(corpora))]
    else:
        paths = [out]
    _check_outputs(paths, "model")
    logged = []  # indep trains one model per dataset; the log follows the first

    def log_epoch(model, record) -> None:
        logged[:] = logged or [model]
        if model is logged[0]:
            line = f"epoch {record.epoch} loss {record.train_loss:.6f}"
            if record.dev_f1 is not None:
                line += f" dev_f1 {record.dev_f1:.6f}"
            _log(line)

    models = train_models(args.kind, corpora, eh, cfg, dev=dev, on_epoch=log_epoch)
    for model, path in zip(models, paths):
        save_model(model, path)
        print(path)
    return 0


def cmd_tag(args: argparse.Namespace) -> int:
    _check_outputs([Path(args.out)], "predictions")
    models = [load_model(p) for p in args.model]
    corpus = read_column_file(args.input)
    token_lists = [seq.texts() for seq in corpus.sequences]
    preds, collisions = tag_sequences(
        models, token_lists, args.tagset, ConsolidationMethod(args.method), args.seed
    )
    tagged = Corpus(
        tuple(
            LabeledSequence(
                tuple(Token(w, t) for w, t in zip(seq.texts(), tags)), seq.doc_id
            )
            for seq, tags in zip(corpus.sequences, preds)
        ),
        args.tagset,
        corpus.split,
    )
    write_column_file(tagged, args.out)
    if not (len(models) == 1 and models[0].kind is ModelKind.HIER):
        _log(f"collisions: {collisions}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    pred = read_column_file(args.pred)
    gold = read_column_file(args.gold)
    rep = score(
        [s.tags() for s in pred.sequences],
        [s.tags() for s in gold.sequences],
        span_mode=args.span,
    )
    for tag in sorted(rep.per_tag):
        c = rep.per_tag[tag]
        print(
            f"{tag} precision {c.precision:.6f} recall {c.recall:.6f} "
            f"f1 {c.f1:.6f} tp {c.tp} fp {c.fp} fn {c.fn}"
        )
    m = rep.micro
    print(f"micro precision {m.precision:.6f} recall {m.recall:.6f} f1 {m.f1:.6f}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    spec_path = Path(args.spec)
    spec = parse_experiment_spec(
        spec_path.read_text(encoding="utf-8"), spec_path.parent, str(spec_path)
    )
    rows, failed = run_experiment(spec)
    csv_path, md_path = write_reports(spec, rows)
    bad = sum(r.status != "ok" for r in rows)
    _log(f"rows: {len(rows)}, failed: {bad}")
    print(csv_path)
    print(md_path)
    return 1 if failed else 0


def cmd_synth(args: argparse.Namespace) -> int:
    config = parse_generator_config(
        Path(args.config).read_text(encoding="utf-8"), source=str(args.config)
    )
    corpus = synth_corpus(config, args.seed)
    write_column_file(corpus, args.out)
    _log(f"wrote {corpus.token_count} tokens in {len(corpus)} documents")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiertag",
        description="Sequence taggers trained from heterogeneously tagged corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extend-hierarchy", help="add the synthesized Other tags")
    p.add_argument("input", help="plain hierarchy file")
    p.add_argument("output", help="extended hierarchy file to write")
    p.set_defaults(func=cmd_extend_hierarchy)

    p = sub.add_parser("train", help="train one model kind on bound datasets")
    p.add_argument("--kind", required=True, choices=[k.value for k in ModelKind])
    p.add_argument("--data", action="append", required=True, metavar="PATH:TAGSET",
                   help="training corpus bound to its tagset (repeatable)")
    p.add_argument("--dev", action="append", metavar="PATH:TAGSET",
                   help="held-out corpus for early stopping (repeatable)")
    p.add_argument("--hierarchy", required=True,
                   help="hierarchy file (plain or extended)")
    p.add_argument("--out", required=True, help="model file to write")
    for f in fields(TrainingConfig):  # one option per field, with its default
        flag = "--" + f.name.replace("_", "-")
        if isinstance(f.default, bool):
            p.add_argument(flag, action="store_true")
        else:
            p.add_argument(flag, type=type(f.default), default=f.default)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="tag a corpus onto a test tagset")
    p.add_argument("--model", action="append", required=True,
                   help="model file (repeat for consolidation)")
    p.add_argument("--input", required=True, help="column-format corpus")
    p.add_argument("--tagset", required=True, help="test tagset name")
    p.add_argument("--out", required=True, help="predictions file to write")
    p.add_argument("--method", default=ConsolidationMethod.RANDOM.value,
                   choices=[m.value for m in ConsolidationMethod])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", help="score predictions against gold")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--span", action="store_true",
                   help="score maximal same-tag spans instead of tokens")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="run an experiment spec file")
    p.add_argument("spec")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        _log(f"error: {exc}")
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary between library and shell
        _log(f"failure: {type(exc).__name__}: {exc}")
        return 1


def entry_point() -> None:
    sys.exit(main())
