import re
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

from hiertag.cli import _config_from, build_parser, main
from hiertag.data import read_column_file
from hiertag.experiments import tag_sequences
from hiertag.hierarchy import parse_extended, parse_hierarchy
from hiertag.model_io import load_model, save_model
from hiertag.models import ConsolidationMethod, TrainingConfig

CLINICAL_TEXT = """\
edge FirstName Name
edge LastName Name
edge Street Location
edge City Location
edge Hospital Location
edge Age>90 Age
tagset T1 Name Location Date Age
tagset T2 FirstName LastName Street City Hospital Age>90 Date
tagset T3 Name Location
"""

TOY_HIERARCHY = """\
edge FirstName Name
edge LastName Name
edge Street Location
tagset T1 Name
tagset T2 Location
tagset T4 Name Location
"""

C1_TEXT = """\
alice\tName
smith\tName
walked\tO
down\tO
elm\tO

salem\tName
smith\tName
lives\tO
near\tO
oak\tO

bob\tName
jones\tName
walked\tO
past\tO
elm\tO

salem\tName
jones\tName
walked\tO
past\tO
oak\tO
"""

C2_TEXT = """\
carol\tO
jones\tO
walked\tO
down\tO
oak\tLocation

near\tO
salem\tLocation
yard\tO

the\tO
visitor\tO
lives\tO
near\tO
elm\tLocation

walked\tO
near\tO
salem\tLocation
"""

TEST_TEXT = """\
alice\tName
smith\tName
walked\tO
near\tO
elm\tO

salem\tName
smith\tName
walked\tO
down\tO
oak\tO
"""

GEN_BASE = """\
docs 18
doc_length 8
entity_rate 0.35
background the a of walked near lives yard visited
type PER alice bob carol dave
type LOC elm oak salem rome
type ORG acme globex initech
type MISC foo bar baz
"""

GEN_EXT_NO_ORG = """\
docs 18
doc_length 8
entity_rate 0.35
background the a of walked near lives yard visited
type PER alice bob carol dave
type LOC elm oak salem rome
"""

FLAT_HIERARCHY = "tagset All PER LOC ORG MISC\n"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def toy_files(tmp_path):
    (tmp_path / "h.txt").write_text(TOY_HIERARCHY)
    (tmp_path / "c1.conll").write_text(C1_TEXT)
    (tmp_path / "c2.conll").write_text(C2_TEXT)
    (tmp_path / "test.conll").write_text(TEST_TEXT)
    return tmp_path


def train_args(d, kind, out, seed=7, epochs=6):
    return [
        "train", "--kind", kind,
        "--data", f"{d / 'c1.conll'}:T1", "--data", f"{d / 'c2.conll'}:T2",
        "--hierarchy", d / "h.txt", "--out", out,
        "--seed", seed, "--epochs", epochs, "--batch-size", "2",
    ]


class TestExtendHierarchy:
    def test_extends_and_reports_counts(self, tmp_path, capsys):
        inp = tmp_path / "h.txt"
        out = tmp_path / "h.ext"
        inp.write_text(CLINICAL_TEXT)
        before = inp.read_bytes()
        code, stdout, _ = run(capsys, "extend-hierarchy", inp, out)
        assert code == 0
        text = out.read_text()
        assert "Age-Other" in text
        for ts in ("T1", "T2", "T3"):
            assert f"{ts}-Other" in text
        eh = parse_extended(text)
        plain = parse_hierarchy(CLINICAL_TEXT)
        added_nodes = len(eh.graph.nodes) - len(plain.nodes)
        added_edges = len(eh.graph.edges) - len(plain.edges)
        assert f"added {added_nodes} nodes, {added_edges} edges" in stdout
        assert inp.read_bytes() == before

    def test_already_extended_input_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "h.txt"
        mid = tmp_path / "h.ext"
        inp.write_text(CLINICAL_TEXT)
        assert run(capsys, "extend-hierarchy", inp, mid)[0] == 0
        code, _, err = run(capsys, "extend-hierarchy", mid, tmp_path / "h2.ext")
        assert code == 2
        assert "error" in err

    def test_output_reparses_round_trip(self, tmp_path, capsys):
        inp = tmp_path / "h.txt"
        out = tmp_path / "h.ext"
        inp.write_text(CLINICAL_TEXT)
        run(capsys, "extend-hierarchy", inp, out)
        eh = parse_extended(out.read_text())
        assert eh.to_text() == out.read_text()


class TestTrain:
    def test_hier_training_is_byte_deterministic(self, toy_files, capsys):
        a, b = toy_files / "a.htag", toy_files / "b.htag"
        code, stdout, err = run(capsys, *train_args(toy_files, "hier", a))
        assert code == 0
        assert str(a) in stdout
        assert "epoch 1 loss" in err
        assert run(capsys, *train_args(toy_files, "hier", b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_hierarchy_is_usage_error(self, toy_files, capsys):
        code, _, err = run(
            capsys, "train", "--kind", "hier",
            "--data", f"{toy_files / 'c1.conll'}:T1",
            "--out", toy_files / "m.htag",
        )
        assert code == 2
        assert "--hierarchy" in err

    def test_bad_data_binding_is_usage_error(self, toy_files, capsys):
        code, _, err = run(
            capsys, "train", "--kind", "hier", "--data", "no-separator",
            "--hierarchy", toy_files / "h.txt", "--out", toy_files / "m.htag",
        )
        assert code == 2
        assert "path:tagset-name" in err

    @pytest.mark.parametrize("flag, kind, folder, value", [
        ("--data", "hier", "folder", "folder:T1"),
        ("--hierarchy", "hier", "folder", "folder"),
        ("--out", "hier", "folder", "folder"),
        ("--out", "indep", "m.1.htag", "m.htag"),  # indep writes m.0.htag and m.1.htag
        ("--out", "hier", None, "missing/m.htag"),
    ])
    def test_bad_path_is_usage_error_before_training(self, toy_files, capsys, monkeypatch,
                                                     flag, kind, folder, value):
        def no_training(*args, **kwargs):
            raise AssertionError("trained")

        monkeypatch.setattr("hiertag.cli.train_models", no_training)
        if folder:
            (toy_files / folder).mkdir()
        args = train_args(toy_files, kind, toy_files / "m.htag")
        args[args.index(flag) + 1] = toy_files / value
        code, _, err = run(capsys, *args)
        assert code == 2
        assert str(toy_files / (folder or "missing")) in err

    def test_undecodable_corpus_is_usage_error(self, toy_files, capsys):
        (toy_files / "c1.conll").write_bytes(b"alice\tName\n\xff\xfe\tO\n")
        code, _, err = run(capsys, *train_args(toy_files, "hier", toy_files / "m.htag"))
        assert code == 2
        assert "utf-8" in err

    def test_internal_value_error_exits_1(self, toy_files, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("numerical fault")

        monkeypatch.setattr("hiertag.cli.train_models", broken)
        code, _, err = run(capsys, *train_args(toy_files, "hier", toy_files / "m.htag"))
        assert code == 1
        assert "ValueError: numerical fault" in err

    @pytest.mark.parametrize("kind", ["hier", "mtl"])
    def test_diverging_run_exits_2_naming_the_step(self, toy_files, capsys, kind):
        out = toy_files / "m.htag"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, *train_args(toy_files, kind, out), "--learning-rate", "1e300")
        assert code == 2
        assert re.search(rf"^error: {kind} training diverged on head '\w+' at epoch 1, step \d+: ",
                         err, re.M), err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["hier", "indep"])
    def test_overflowing_emission_scores_exit_2_naming_the_step(self, toy_files, capsys, kind):
        # scipy's sparse emission product ignores np.errstate: the overflow
        # shows only as an infinite score.
        out = toy_files / "m.htag"
        code, _, err = run(capsys, *train_args(toy_files, kind, out), "--learning-rate", "5e307",
                           "--clip-norm", "inf", "--l2", "0")
        assert code == 2
        assert re.search(rf"^error: {kind} training diverged on head '\w+' at epoch \d+, "
                         r"step \d+: emission scores overflow$", err, re.M), err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["hier", "indep"])
    def test_epoch_lines_stream_while_training(self, toy_files, capsys, monkeypatch, kind):
        from hiertag.models import _Trainer

        steps = []
        real_step = _Trainer._batch_step

        def counted(self, *args):
            steps.append(1)
            return real_step(self, *args)

        monkeypatch.setattr(_Trainer, "_batch_step", counted)
        logged = []
        monkeypatch.setattr("hiertag.cli._log", lambda msg: logged.append((msg, len(steps))))
        code, _, _ = run(capsys, *train_args(toy_files, kind, toy_files / "m.htag", epochs=3))
        assert code == 0
        # One line per epoch of the first model, each written as its epoch ends.
        assert [msg.split(" loss ")[0] for msg, _ in logged] == ["epoch 1", "epoch 2", "epoch 3"]
        at = [n for _, n in logged]
        assert 0 < at[0] < at[1] < at[2] <= len(steps)
        assert (at[2] == len(steps)) == (kind == "hier")

    def test_option_defaults_are_the_config_defaults(self):
        base = ["train", "--kind", "hier", "--data", "c.conll:T1", "--hierarchy", "h.txt",
                "--out", "m.htag"]
        args = build_parser().parse_args(base)
        for f in fields(TrainingConfig):
            assert getattr(args, f.name) == f.default, f.name
        assert _config_from(args) == TrainingConfig()
        args = build_parser().parse_args(base + ["--learning-rate", "0.25", "--bio"])
        assert _config_from(args) == TrainingConfig(learning_rate=0.25, bio=True)

    def test_negative_seed_is_usage_error(self, toy_files, capsys):
        out = toy_files / "m.htag"
        code, _, err = run(capsys, *train_args(toy_files, "hier", out, seed=-1))
        assert code == 2
        assert "seed must be >= 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["hier", "concat", "indep", "mtl"])
    def test_bad_dev_tagset_exits_2_before_training(self, toy_files, capsys, monkeypatch, kind):
        def no_training(*args, **kwargs):
            raise AssertionError("trained")

        monkeypatch.setattr("hiertag.models._Trainer.run", no_training)
        out = toy_files / "m.htag"
        code, _, err = run(capsys, *train_args(toy_files, kind, out),
                           "--dev", f"{toy_files / 'c1.conll'}:NOPE")
        assert code == 2
        assert "unknown tagset 'NOPE'" in err
        assert not out.exists()

    def test_indep_writes_one_file_per_dataset(self, toy_files, capsys):
        out = toy_files / "m.htag"
        code, stdout, _ = run(capsys, *train_args(toy_files, "indep", out))
        assert code == 0
        for i in (0, 1):
            assert (toy_files / f"m.{i}.htag").is_file()
            assert f"m.{i}.htag" in stdout

    def test_dev_flag_logs_dev_f1(self, toy_files, capsys):
        code, _, err = run(
            capsys,
            *train_args(toy_files, "hier", toy_files / "m.htag"),
            "--dev", f"{toy_files / 'c1.conll'}:T1",
        )
        assert code == 0
        assert "dev_f1" in err


class TestTag:
    def test_single_hier_model_emits_no_collision_summary(self, toy_files, capsys):
        model = toy_files / "m.htag"
        run(capsys, *train_args(toy_files, "hier", model, epochs=30))
        pred = toy_files / "pred.conll"
        before = (toy_files / "test.conll").read_bytes()
        code, _, err = run(
            capsys, "tag", "--model", model,
            "--input", toy_files / "test.conll", "--tagset", "T1", "--out", pred,
        )
        assert code == 0
        assert "collisions" not in err
        got = read_column_file(pred)
        assert got.token_count == read_column_file(toy_files / "test.conll").token_count
        assert (toy_files / "test.conll").read_bytes() == before
        tags = got.sequences[0].tags()
        assert tags[:2] == ["Name", "Name"]

    def test_model_config_of_wrong_type_exits_2(self, toy_files, capsys):
        model = toy_files / "m.htag"
        run(capsys, *train_args(toy_files, "hier", model, epochs=1))
        loaded = load_model(model)
        object.__setattr__(loaded.config, "bio", "no")  # the file's checksum stays valid
        save_model(loaded, model)
        code, _, err = run(
            capsys, "tag", "--model", model,
            "--input", toy_files / "test.conll", "--tagset", "T1",
            "--out", toy_files / "pred.conll",
        )
        assert code == 2
        assert "bio must be bool" in err
        assert not (toy_files / "pred.conll").exists()

    def test_overflowing_emission_scores_exit_2_naming_the_head(self, toy_files, capsys):
        model = toy_files / "m.htag"
        run(capsys, *train_args(toy_files, "hier", model, epochs=1))
        loaded = load_model(model)
        weights = loaded.emission.weights
        weights[...] = np.where(weights >= 0, 1e308, -1e308)  # finite, so the file loads
        save_model(loaded, model)
        code, _, err = run(
            capsys, "tag", "--model", model,
            "--input", toy_files / "test.conll", "--tagset", "T1",
            "--out", toy_files / "pred.conll",
        )
        assert code == 2
        assert "emission scores of head 'fine' overflow" in err
        assert not (toy_files / "pred.conll").exists()

    def test_indep_models_emit_matching_collision_summary(self, toy_files, capsys):
        run(capsys, *train_args(toy_files, "indep", toy_files / "m.htag", epochs=30))
        paths = [toy_files / "m.0.htag", toy_files / "m.1.htag"]
        pred = toy_files / "pred.conll"
        code, _, err = run(
            capsys, "tag", "--model", paths[0], "--model", paths[1],
            "--input", toy_files / "test.conll", "--tagset", "T4",
            "--out", pred, "--seed", "3",
        )
        assert code == 0
        line = [l for l in err.splitlines() if l.startswith("collisions:")]
        assert len(line) == 1
        reported = int(line[0].split()[-1])
        models = [load_model(p) for p in paths]
        corpus = read_column_file(toy_files / "test.conll")
        _, expected = tag_sequences(
            models, [s.texts() for s in corpus.sequences], "T4",
            ConsolidationMethod.RANDOM, 3,
        )
        assert reported == expected
        assert reported >= 1  # salem is Name in c1 and Location in c2

    def test_negative_seed_is_usage_error(self, toy_files, capsys):
        model = toy_files / "m.htag"
        run(capsys, *train_args(toy_files, "hier", model, epochs=2))
        pred = toy_files / "pred.conll"
        code, _, err = run(
            capsys, "tag", "--model", model, "--input", toy_files / "test.conll",
            "--tagset", "T1", "--out", pred, "--seed", "-1",
        )
        assert code == 2
        assert "seed must be >= 0, got -1" in err
        assert not pred.exists()

    def test_directory_model_is_usage_error(self, toy_files, capsys):
        code, _, err = run(
            capsys, "tag", "--model", toy_files, "--input", toy_files / "test.conll",
            "--tagset", "T1", "--out", toy_files / "pred.conll",
        )
        assert code == 2
        assert str(toy_files) in err

    @pytest.mark.parametrize("value", ["folder", "missing/pred.conll"])
    def test_bad_out_is_usage_error_before_loading(self, toy_files, capsys, monkeypatch, value):
        def no_loading(*args, **kwargs):
            raise AssertionError("loaded")

        monkeypatch.setattr("hiertag.cli.load_model", no_loading)
        (toy_files / "folder").mkdir()
        code, _, err = run(
            capsys, "tag", "--model", toy_files / "m.htag", "--input", toy_files / "test.conll",
            "--tagset", "T1", "--out", toy_files / value,
        )
        assert code == 2
        assert str(toy_files / value.split("/")[0]) in err

    def test_unknown_tagset_exits_2(self, toy_files, capsys):
        model = toy_files / "m.htag"
        run(capsys, *train_args(toy_files, "hier", model, epochs=2))
        code, _, err = run(
            capsys, "tag", "--model", model,
            "--input", toy_files / "test.conll", "--tagset", "T9",
            "--out", toy_files / "pred.conll",
        )
        assert code == 2
        assert "T9" in err


class TestEval:
    GOLD = "a\tX\nb\tX\nc\tO\nd\tY\n"
    PRED = "a\tX\nb\tX\nc\tO\nd\tO\n"

    def test_perfect_prediction(self, tmp_path, capsys):
        gold = tmp_path / "gold.conll"
        gold.write_text(self.GOLD)
        code, stdout, _ = run(capsys, "eval", "--pred", gold, "--gold", gold)
        assert code == 0
        assert "micro precision 1.000000 recall 1.000000 f1 1.000000" in stdout

    def test_hand_counted_fixture(self, tmp_path, capsys):
        gold, pred = tmp_path / "gold.conll", tmp_path / "pred.conll"
        gold.write_text(self.GOLD)
        pred.write_text(self.PRED)
        code, stdout, _ = run(capsys, "eval", "--pred", pred, "--gold", gold)
        assert code == 0
        assert "f1 0.800000" in stdout.splitlines()[-1]

    def test_directory_prediction_is_usage_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.conll"
        gold.write_text(self.GOLD)
        code, _, err = run(capsys, "eval", "--pred", tmp_path, "--gold", gold)
        assert code == 2
        assert str(tmp_path) in err

    def test_span_flag_changes_metric_only(self, tmp_path, capsys):
        gold, pred = tmp_path / "gold.conll", tmp_path / "pred.conll"
        gold.write_text(self.GOLD)
        pred.write_text(self.PRED)
        _, token_out, _ = run(capsys, "eval", "--pred", pred, "--gold", gold)
        code, span_out, _ = run(capsys, "eval", "--pred", pred, "--gold", gold, "--span")
        assert code == 0
        assert "f1 0.666667" in span_out.splitlines()[-1]
        assert token_out != span_out


class TestSynth:
    def test_seeded_generation_is_reproducible(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(GEN_BASE)
        a, b, c = (tmp_path / n for n in ("a.conll", "b.conll", "c.conll"))
        assert run(capsys, "synth", "--config", cfg, "--seed", "5", "--out", a)[0] == 0
        assert run(capsys, "synth", "--config", cfg, "--seed", "5", "--out", b)[0] == 0
        assert run(capsys, "synth", "--config", cfg, "--seed", "6", "--out", c)[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()
        corpus = read_column_file(a)
        assert corpus.token_count == 18 * 8

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(GEN_BASE)
        out = tmp_path / "a.conll"
        code, _, err = run(capsys, "synth", "--config", cfg, "--seed", "-1", "--out", out)
        assert code == 2
        assert "error: seed must be >= 0, got -1" in err
        assert not out.exists()

    def test_directory_config_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--config", tmp_path, "--seed", "5",
                           "--out", tmp_path / "a.conll")
        assert code == 2
        assert str(tmp_path) in err


def write_experiment_inputs(d, capsys, extending_cfg=GEN_BASE):
    (d / "h.txt").write_text(FLAT_HIERARCHY)
    (d / "gen_base.cfg").write_text(GEN_BASE)
    (d / "gen_ext.cfg").write_text(extending_cfg)
    run(capsys, "synth", "--config", d / "gen_base.cfg", "--seed", "11",
        "--out", d / "base.conll")
    run(capsys, "synth", "--config", d / "gen_ext.cfg", "--seed", "12",
        "--out", d / "ext.conll")
    run(capsys, "synth", "--config", d / "gen_base.cfg", "--seed", "13",
        "--out", d / "test.conll")


EXPERIMENT_SPEC = """\
kind extension
hierarchy h.txt
base base.conll
extending ext.conll
target LOC
test test.conll
models hier concat indep
seeds 1 2 3
consolidation random
out_dir results
epochs 3
batch_size 4
learning_rate 0.5
"""


class TestExperiment:
    def test_nine_cell_extension_run(self, tmp_path, capsys):
        write_experiment_inputs(tmp_path, capsys)
        spec = tmp_path / "spec.txt"
        spec.write_text(EXPERIMENT_SPEC)
        code, stdout, err = run(capsys, "experiment", spec)
        assert code == 0
        assert "failed: 0" in err
        csv_path = tmp_path / "results" / "report.csv"
        md_path = tmp_path / "results" / "report.md"
        assert str(csv_path) in stdout
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 1 + 9
        assert all(",ok" in l for l in lines[1:])
        md = md_path.read_text()
        assert "**Total**" in md
        assert "Wilcoxon signed-rank" in md
        for pair in ("concat vs hier", "concat vs indep", "hier vs indep"):
            assert pair in md

    def test_rerun_writes_identical_reports(self, tmp_path, capsys):
        write_experiment_inputs(tmp_path, capsys)
        spec = tmp_path / "spec.txt"
        spec.write_text(EXPERIMENT_SPEC.replace("seeds 1 2 3", "seeds 1 2"))
        assert run(capsys, "experiment", spec)[0] == 0
        first = (tmp_path / "results" / "report.csv").read_bytes()
        first_md = (tmp_path / "results" / "report.md").read_bytes()
        assert run(capsys, "experiment", spec)[0] == 0
        assert (tmp_path / "results" / "report.csv").read_bytes() == first
        assert (tmp_path / "results" / "report.md").read_bytes() == first_md

    def test_parallel_run_matches_serial(self, tmp_path, capsys, monkeypatch):
        write_experiment_inputs(tmp_path, capsys)
        spec = tmp_path / "spec.txt"
        spec.write_text(
            EXPERIMENT_SPEC.replace("seeds 1 2 3", "seeds 1")
            .replace("out_dir results", "out_dir serial")
        )
        assert run(capsys, "experiment", spec)[0] == 0
        spec.write_text(
            EXPERIMENT_SPEC.replace("seeds 1 2 3", "seeds 1")
            .replace("out_dir results", "out_dir parallel")
        )
        monkeypatch.setenv("HIERTAG_THREADS", "3")
        assert run(capsys, "experiment", spec)[0] == 0
        assert (
            (tmp_path / "serial" / "report.csv").read_bytes()
            == (tmp_path / "parallel" / "report.csv").read_bytes()
        )

    def test_unknown_model_kind_fails_before_training(self, tmp_path, capsys):
        write_experiment_inputs(tmp_path, capsys)
        spec = tmp_path / "spec.txt"
        spec.write_text(EXPERIMENT_SPEC.replace("models hier concat indep",
                                                "models hier svm"))
        code, _, err = run(capsys, "experiment", spec)
        assert code == 2
        assert "svm" in err
        assert not (tmp_path / "results").exists()

    def test_partial_failure_records_and_continues(self, tmp_path, capsys):
        write_experiment_inputs(tmp_path, capsys, extending_cfg=GEN_EXT_NO_ORG)
        spec = tmp_path / "spec.txt"
        spec.write_text(
            EXPERIMENT_SPEC.replace("target LOC", "target LOC\ntarget ORG")
            .replace("models hier concat indep", "models hier concat")
            .replace("seeds 1 2 3", "seeds 1")
        )
        code, _, err = run(capsys, "experiment", spec)
        assert code == 1
        assert "failed: 2" in err
        lines = (tmp_path / "results" / "report.csv").read_text().splitlines()
        assert len(lines) == 1 + 4
        assert sum(",failed: " in l for l in lines[1:]) == 2
        assert sum(l.endswith(",ok") for l in lines[1:]) == 2

    def test_failed_cell_reports_its_cause(self, tmp_path, capsys):
        write_experiment_inputs(tmp_path, capsys, extending_cfg=GEN_EXT_NO_ORG)
        spec = tmp_path / "spec.txt"
        spec.write_text(
            EXPERIMENT_SPEC.replace("target LOC", "target ORG")
            .replace("models hier concat indep", "models hier")
            .replace("seeds 1 2 3", "seeds 1")
        )
        code, _, _ = run(capsys, "experiment", spec)
        assert code == 1
        rows = [l for l in (tmp_path / "results" / "report.md").read_text().splitlines()
                if l.startswith("| ORG |")]
        assert len(rows) == 1
        status = rows[0].rstrip(" |").rsplit(" | ", 1)[-1]
        assert status == "failed: CorpusError: tag ORG does not occur in the extending corpus"

    @pytest.mark.parametrize(
        "line, bad",
        [
            ("consolidation random", "consolidation bogus"),
            ("epochs 3", "epochs three"),
            ("learning_rate 0.5", "learning_rate fast"),
            ("epochs 3", "epochs 3\ndev_fraction half"),
            ("epochs 3", "epochs 3\ndev_fraction 0.9"),
            ("epochs 3", "epochs 3\ndev_fraction 1e-310"),  # 1 / 1e-310 overflows
            ("seeds 1 2 3", "seeds 1 -3"),
            ("seeds 1 2 3", "seeds 1 2 1"),
            ("target LOC", "target LOC\ntarget LOC"),
            ("epochs 3", "epochs 3\nbio maybe"),
            ("out_dir results", "out_dir spec.txt"),  # a file, not a directory
            ("out_dir results", "out_dir spec.txt/results"),
        ],
    )
    def test_bad_spec_value_is_usage_error(self, tmp_path, capsys, line, bad):
        write_experiment_inputs(tmp_path, capsys)
        spec = tmp_path / "spec.txt"
        spec.write_text(EXPERIMENT_SPEC.replace(line, bad))
        code, _, err = run(capsys, "experiment", spec)
        assert code == 2
        assert bad.split()[-1] in err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        "line, bad, key, lineno",
        [
            ("target LOC", "target", "target", 5),
            ("epochs 3", "epochs 3\ndataset a", "dataset", 12),
            ("test test.conll", "test a b c", "test", 6),
            ("models hier concat indep", "models", "models", 7),
            ("seeds 1 2 3", "seeds", "seeds", 8),
            ("epochs 3", "epochs 1 2", "epochs", 11),
            ("epochs 3", "epochs 3\nepochs 4", "epochs", 12),  # a repeated scalar key
            ("out_dir results", "", "out_dir", None),  # a missing required key
            ("epochs 3", "epochs 3\nrounds 4", "rounds", None),  # an unknown key
        ],
    )
    def test_spec_fault_names_its_key_and_line(self, tmp_path, capsys, line, bad, key, lineno):
        write_experiment_inputs(tmp_path, capsys)
        spec = tmp_path / "spec.txt"
        spec.write_text(EXPERIMENT_SPEC.replace(line, bad))
        code, _, err = run(capsys, "experiment", spec)
        assert code == 2
        message = err.rpartition(f"{spec}:{lineno}: " if lineno else "error: ")[2]
        assert message != err and key in message.split()
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("line", ["hierarchy h.txt", "base base.conll",
                                      "extending ext.conll", "test test.conll",
                                      "out_dir results"])
    def test_nul_byte_in_path_is_usage_error(self, tmp_path, capsys, line):
        write_experiment_inputs(tmp_path, capsys)
        spec = tmp_path / "spec.txt"
        spec.write_text(EXPERIMENT_SPEC.replace(line, line[:-1] + "\0" + line[-1]))
        code, _, err = run(capsys, "experiment", spec)
        assert code == 2
        assert "error:" in err and f"{spec}:" in err
        assert not (tmp_path / "results").exists()

    def test_nul_byte_in_dataset_path_is_usage_error(self, tmp_path, capsys):
        write_experiment_inputs(tmp_path, capsys)
        spec = tmp_path / "spec.txt"
        spec.write_text("kind integration\nhierarchy h.txt\ndataset base\0.conll All\n"
                        "test test.conll All\nmodels hier\nseeds 1\nout_dir results\n")
        code, _, err = run(capsys, "experiment", spec)
        assert code == 2
        assert f"error: {spec}:3:" in err

    def test_missing_file_is_validation_error(self, tmp_path, capsys):
        write_experiment_inputs(tmp_path, capsys)
        spec = tmp_path / "spec.txt"
        spec.write_text(EXPERIMENT_SPEC.replace("test test.conll", "test nope.conll"))
        code, _, err = run(capsys, "experiment", spec)
        assert code == 2
        assert "nope.conll" in err


class TestMalformedInput:
    @pytest.mark.parametrize("name, text, message", [
        ("c1.conll", "alice Name\n", "c1.conll:1: expected 'token<TAB>tag'"),
        ("h.txt", "edge Name\n", "line 1: edge needs exactly two tags"),
        ("gen.cfg", "docs many\ndoc_length 8\nentity_rate 0.3\nbackground the\n", "'many'"),
    ])
    def test_malformed_file_exits_2(self, toy_files, capsys, name, text, message):
        (toy_files / name).write_text(text)
        if name == "gen.cfg":
            argv = ["synth", "--config", toy_files / name, "--seed", "1",
                    "--out", toy_files / "s.conll"]
        else:
            argv = train_args(toy_files, "hier", toy_files / "m.htag")
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error:" in err and message in err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        inp = tmp_path / "h.txt"
        inp.write_text(CLINICAL_TEXT)
        out = tmp_path / "h.ext"
        proc = subprocess.run(
            [sys.executable, "-m", "hiertag", "extend-hierarchy", str(inp), str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "added" in proc.stdout
        assert parse_extended(out.read_text()).graph.nodes

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2
