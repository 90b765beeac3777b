"""The parity tool (`tests/parity.py`) finds a tree equal to itself and
flags a difference in predictions or collision records."""

from __future__ import annotations

import json

import numpy as np
import parity


def test_tree_is_identical_to_itself(capsys):
    status = parity.main(
        ["--against", str(parity.TREE), "--seeds", "0", "--workloads", "extension"]
    )
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert status == 0
    assert [r[:3] for r in rows] == [["extension", "0", kind] for kind in parity.KINDS]
    assert all(r[3:] == ["equal"] * len(parity.FIELDS) + ["0"] for r in rows)


def test_different_predictions_fail(tmp_path, capsys):
    for side, preds, shift in (("base", "p", 0.0), ("head", "q", 1e-3)):
        (tmp_path / side).mkdir()
        for kind in parity.KINDS:
            record = {"model": ["m"], "history": ["h"], "collisions": {"random": 0},
                      "preds": preds if kind == "mtl" else "p",
                      "records": preds if kind == "indep" else "p",
                      "f1": {"random": 0.5 + shift, "max-marginal": 0.25},
                      "probs": {"random": [0.5, 0.75 + shift]}}
            stem = tmp_path / side / f"extension-0-{kind}"
            stem.with_suffix(".json").write_text(json.dumps(record))
            np.savez(stem.with_suffix(".npz"), w=np.full(2, shift if kind == "mtl" else 0.0))
    assert parity.compare(tmp_path / "base", tmp_path / "head", ["extension"], [0]) == 1
    lines = capsys.readouterr().out.splitlines()[1:]
    rows = {line.split()[2]: line.split()[3:] for line in lines if not line.startswith(" ")}
    assert rows["hier"] == ["equal"] * 5 + ["0"]
    assert rows["indep"] == ["equal"] * 4 + ["DIFFERENT", "0"]
    assert rows["mtl"] == ["equal", "equal", "DIFFERENT", "equal", "equal", "0.001"]
    # Under the row whose records differ, the largest move of a collision
    # probability; under the row whose predictions differ, both sides' F1.
    after = {line.split()[2]: lines[i + 1] for i, line in enumerate(lines[:-1])
             if not line.startswith(" ")}
    assert after["indep"].split() == ["max|dprob|", "0.001"]
    assert after["mtl"].split() == ["f1", "max-marginal", "0.250000", "->", "0.250000",
                                    "random", "0.500000", "->", "0.501000"]
    assert len(lines) == len(parity.KINDS) + 2


def test_collision_probabilities_that_no_longer_align_are_reported(tmp_path, capsys):
    for side, probs in (("base", [0.5]), ("head", [0.5, 0.5])):
        (tmp_path / side).mkdir()
        for kind in parity.KINDS:
            record = {"model": ["m"], "history": ["h"], "collisions": {"random": 0},
                      "preds": "p", "records": side if kind == "concat" else "r",
                      "probs": {"random": probs if kind == "concat" else []}}
            stem = tmp_path / side / f"extension-0-{kind}"
            stem.with_suffix(".json").write_text(json.dumps(record))
            np.savez(stem.with_suffix(".npz"), w=np.zeros(2))
    assert parity.compare(tmp_path / "base", tmp_path / "head", ["extension"], [0]) == 1
    lines = capsys.readouterr().out.splitlines()[1:]
    assert lines[2].split() == ["max|dprob|", "shape", "differs"]
    assert len(lines) == len(parity.KINDS) + 1


def test_different_records_alone_fail(tmp_path):
    for side in ("base", "head"):
        (tmp_path / side).mkdir()
        for kind in parity.KINDS:
            record = {"model": ["m"], "history": ["h"], "collisions": {"random": 0},
                      "preds": "p", "records": side if kind == "indep" else "r"}
            stem = tmp_path / side / f"extension-0-{kind}"
            stem.with_suffix(".json").write_text(json.dumps(record))
            np.savez(stem.with_suffix(".npz"), w=np.zeros(2))
    assert parity.compare(tmp_path / "base", tmp_path / "head", ["extension"], [0]) == 1


def test_transposed_parameters_are_compared_with_the_transpose(tmp_path):
    base = np.arange(6.0).reshape(2, 3)
    np.savez(tmp_path / "base.npz", w=base, b=np.zeros(3), v=np.zeros((2, 2)))
    np.savez(tmp_path / "head.npz", w=base.T + 0.5 * (base.T > 2), b=np.zeros(3),
             v=np.zeros((2, 2)))
    assert parity._max_diff(tmp_path / "base.npz", tmp_path / "head.npz") == 0.5
    np.savez(tmp_path / "head.npz", w=base.T, b=np.zeros(3), v=np.zeros((4, 1)))
    assert parity._max_diff(tmp_path / "base.npz", tmp_path / "head.npz") == np.inf
