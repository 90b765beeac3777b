"""Acceptance gate for the whole package.

Each criterion is one test that prints a single verdict line to stderr and
asserts it.  Criteria 5 and 6 share one seeded synthetic benchmark built by a
module-scoped fixture; everything is deterministic given the pinned seeds.
"""

from __future__ import annotations

import sys
import time
from itertools import product

import numpy as np
import pytest
from numpy.random import default_rng
from scipy.special import logsumexp as sp_logsumexp

from hiertag.crf import LatticeMask
from hiertag.data import (
    Corpus,
    GeneratorConfig,
    LabeledSequence,
    Token,
    make_selective,
    read_column_file,
    synth_corpus,
    write_column_file,
)
from hiertag.evaluation import score, wilcoxon
from hiertag.experiments import (
    parse_experiment_spec,
    run_experiment,
    tag_sequences,
    train_models,
    write_reports,
)
from hiertag.hierarchy import TagHierarchy, extend_with_other, parse_extended, parse_hierarchy
from hiertag.model_io import model_bytes, save_model
from hiertag.models import (
    ConsolidationMethod,
    TrainingConfig,
    _hier_mask,
    _domain_indices,
    _Instance,
    _Trainer,
    _vectorize_corpus,
    train_concat,
    train_hier,
    train_mtl,
)
from oracles import PotentialTable, constrained_log_partition, log_partition, loss_and_grad, viterbi


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.stderr, flush=True)
    assert ok, line


# ---------------------------------------------------------------- criterion 1

_PATHS: dict[tuple[int, int], np.ndarray] = {}


def _all_paths(n: int, y: int) -> np.ndarray:
    key = (n, y)
    if key not in _PATHS:
        _PATHS[key] = np.array(list(product(range(y), repeat=n)), dtype=np.int64).reshape(
            y**n, n
        )
    return _PATHS[key]


def _enum_scores(t: PotentialTable, paths: np.ndarray) -> np.ndarray:
    n = t.n
    s = t.start[paths[:, 0]] + t.stop[paths[:, -1]]
    s = s + t.emissions[np.arange(n)[None, :], paths].sum(axis=1)
    s = s + t.transitions[paths[:, :-1], paths[:, 1:]].sum(axis=1)
    return s


def _random_table(rng: np.random.Generator, n: int, y: int) -> PotentialTable:
    return PotentialTable(
        rng.uniform(-2, 2, size=(n, y)),
        rng.uniform(-2, 2, size=(y, y)),
        rng.uniform(-2, 2, size=y),
        rng.uniform(-2, 2, size=y),
    )


def _random_keep(rng: np.random.Generator, n: int, y: int) -> np.ndarray:
    keep = rng.random((n, y)) < 0.6
    for i in range(n):
        if not keep[i].any():
            keep[i, int(rng.integers(y))] = True
    return keep


def test_criterion_1_exact_inference_matches_enumeration():
    t0 = time.monotonic()
    rng = default_rng(90001)
    max_err = 0.0
    path_checks = 0
    for _ in range(1000):
        n, y = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        t = _random_table(rng, n, y)
        paths = _all_paths(n, y)
        scores = _enum_scores(t, paths)

        max_err = max(max_err, abs(log_partition(t) - sp_logsumexp(scores)))

        keep = _random_keep(rng, n, y)
        mask = LatticeMask([np.flatnonzero(keep[i]) for i in range(n)])
        valid = keep[np.arange(n)[None, :], paths].all(axis=1)
        max_err = max(
            max_err,
            abs(constrained_log_partition(t, mask) - sp_logsumexp(scores[valid])),
        )

        vit_path, vit_score = viterbi(t)
        best = int(np.argmax(scores))
        max_err = max(max_err, abs(vit_score - scores[best]))
        ranked = np.sort(scores)
        tie_free = len(scores) < 2 or ranked[-1] - ranked[-2] > 1e-9
        if tie_free:
            assert vit_path == list(paths[best])
            path_checks += 1
    elapsed = time.monotonic() - t0
    ok = max_err <= 1e-8 and path_checks >= 900 and elapsed <= 30
    _verdict(
        1,
        "forward/masked partition and decode match brute-force enumeration",
        ok,
        f"max |err| {max_err:.2e}, {path_checks} tie-free decodes, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 2

EDGES = [("FirstName", "Name"), ("LastName", "Name"), ("Street", "Location")]
TAGSETS = {"T1": {"Name"}, "T2": {"Location"}}


def _tiny_eh():
    nodes = {t for e in EDGES for t in e}
    return extend_with_other(TagHierarchy(nodes, EDGES, TAGSETS))


def _tagged(words: str, tags: str, doc: str) -> LabeledSequence:
    toks = tuple(Token(w, g) for w, g in zip(words.split(), tags.split()))
    return LabeledSequence(toks, doc)


def _tiny_corpora() -> tuple[Corpus, Corpus]:
    c1 = Corpus(
        (
            _tagged("alice smith walked down elm", "Name Name O O O", "a"),
            _tagged("bob jones lives near oak", "Name Name O O O", "b"),
            _tagged("carol walked past elm street", "Name O O O O", "c"),
            _tagged("dave smith near oak yard", "Name Name O O O", "d"),
        ),
        "T1",
    )
    c2 = Corpus(
        (
            _tagged("alice walked down elm street", "O O O Location Location", "e"),
            _tagged("near oak yard bob waited", "O Location O O O", "f"),
            _tagged("the visitor lives on elm", "O O O O Location", "g"),
            _tagged("carol stood near oak street", "O O O Location Location", "h"),
        ),
        "T2",
    )
    return c1, c2


def _fd_probe(trainer, head, batch, reg_keys, keys, rng, h=1e-5):
    """Max relative gradient error over one coordinate per listed key."""

    def objective() -> float:
        total, _ = trainer._batch_grads(head, batch)
        reg = sum(float((trainer.params[k] ** 2).sum()) for k in reg_keys)
        return total / len(batch) + 0.5 * trainer.cfg.l2 * reg

    _, grads = trainer._batch_grads(head, batch)
    worst = 0.0
    for key in keys:
        flat = trainer.params[key].reshape(-1)
        i = int(rng.integers(flat.size))
        old = flat[i]
        flat[i] = old + h
        hi = objective()
        flat[i] = old - h
        lo = objective()
        flat[i] = old
        fd = (hi - lo) / (2 * h)
        got = float(grads[key].reshape(-1)[i])
        worst = max(worst, abs(got - fd) / max(1.0, abs(fd)))
    return worst


def test_criterion_2_analytic_gradients_match_finite_differences():
    t0 = time.monotonic()
    rng = default_rng(90002)
    h = 1e-5
    worst = 0.0
    checked = 0

    for _ in range(90):
        n, y = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        t = _random_table(rng, n, y)
        keep = _random_keep(rng, n, y)
        mask = LatticeMask([np.flatnonzero(keep[i]) for i in range(n)])
        loss, grads = loss_and_grad(t, mask)

        def objective() -> float:
            return log_partition(t) - constrained_log_partition(t, mask)

        assert loss == pytest.approx(objective(), abs=1e-9)
        arrays = {
            "em": (t.emissions, grads.d_emissions),
            "tr": (t.transitions, grads.d_transitions),
            "st": (t.start, grads.d_start),
            "sp": (t.stop, grads.d_stop),
        }
        for _ in range(8):
            arr, g = arrays[("em", "tr", "st", "sp")[int(rng.integers(4))]]
            flat = arr.reshape(-1)
            i = int(rng.integers(flat.size))
            old = flat[i]
            flat[i] = old + h
            hi = objective()
            flat[i] = old - h
            lo = objective()
            flat[i] = old
            fd = (hi - lo) / (2 * h)
            worst = max(worst, abs(float(g.reshape(-1)[i]) - fd) / max(1.0, abs(fd)))
        checked += 1

    eh = _tiny_eh()
    c1, c2 = _tiny_corpora()

    cfg = TrainingConfig(seed=3, epochs=1, batch_size=4)
    linear = train_hier([c1, c2], eh, cfg)
    pos = _domain_indices(linear.heads["fine"].domain, False)
    insts = []
    for corpus in (c1, c2):
        for seq, fv in zip(
            corpus.sequences, _vectorize_corpus(corpus, linear.vocab, cfg.window)
        ):
            insts.append(_Instance(fv, _hier_mask(seq.tags(), eh, corpus.tagset_name, pos)))
    trainer = _Trainer(linear, {"fine": insts}, cfg)
    for k in range(5):
        batch = insts[k : k + 3]
        worst = max(
            worst,
            _fd_probe(
                trainer,
                "fine",
                batch,
                {"weights", "trans:fine"},
                ["weights", "bias", "trans:fine", "start:fine", "stop:fine"],
                rng,
            ),
        )
        checked += 1

    cfg2 = TrainingConfig(seed=4, epochs=1, batch_size=4, hidden_dim=3)
    shared = train_mtl([c1, c2], eh, cfg2)
    from hiertag.models import _singleton_mask

    pos1 = _domain_indices(shared.heads["T1"].domain, False)
    insts1 = [
        _Instance(fv, _singleton_mask(seq.tags(), pos1))
        for seq, fv in zip(c1.sequences, _vectorize_corpus(c1, shared.vocab, cfg2.window))
    ]
    trainer2 = _Trainer(shared, {"T1": insts1}, cfg2)
    for k in range(5):
        batch = insts1[k % 2 : k % 2 + 3]
        worst = max(
            worst,
            _fd_probe(
                trainer2,
                "T1",
                batch,
                {"shared_weights", "head:T1:weights", "trans:T1"},
                [
                    "shared_weights",
                    "shared_bias",
                    "head:T1:weights",
                    "head:T1:bias",
                    "trans:T1",
                    "start:T1",
                    "stop:T1",
                ],
                rng,
            ),
        )
        checked += 1

    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and checked == 100 and elapsed <= 60
    _verdict(
        2,
        "loss gradients match central finite differences end to end",
        ok,
        f"max rel err {worst:.2e} over {checked} instances, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_other_extension_partition_and_mapping(clinical, clinical_ext):
    eh = clinical_ext
    internal = {parent for _, parent in clinical.edges}
    expected_nodes = (
        clinical.nodes
        | {f"{n}-Other" for n in internal}
        | {"FG-Other"}
        | {f"{ts}-Other" for ts in clinical.tagsets}
    )
    ok = eh.graph.nodes == expected_nodes

    fine = eh.fine_grained
    for ts, members in eh.tagsets.items():
        covers = [eh.fine_cover(ts, m) for m in sorted(members)]
        union: set[str] = set()
        for c in covers:
            ok = ok and not (union & c)
            union |= c
        ok = ok and union == fine

    ok = ok and eh.fine_cover("T1", "Name") == {"FirstName", "LastName", "Name-Other"}

    pairs = 0
    for f in sorted(fine):
        for ts in eh.tagsets:
            ok = ok and eh.map_to_tagset(f, ts) == eh.map_by_traversal(f, ts)
            pairs += 1
    _verdict(
        3,
        "Other-extension yields a partition and lookup mapping equals traversal",
        ok,
        f"{len(fine)} fine tags, {pairs} (tag, tagset) pairs",
    )


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_singleton_covers_reduce_to_plain_crf():
    nodes = {"A", "B", "C"}
    eh = extend_with_other(TagHierarchy(nodes, (), {"T": nodes}))
    rng = default_rng(90004)
    words = [f"w{i:02d}" for i in range(15)]
    tags = ["A", "B", "C", "O"]
    seqs = []
    for d in range(10):
        length = int(rng.integers(4, 9))
        toks = tuple(
            Token(words[int(rng.integers(len(words)))], tags[int(rng.integers(4))])
            for _ in range(length)
        )
        seqs.append(LabeledSequence(toks, f"doc{d}"))
    corpus = Corpus(tuple(seqs), "T")

    cfg = TrainingConfig(seed=5, epochs=12, batch_size=3, learning_rate=0.5)
    hier = train_hier([corpus], eh, cfg)
    concat = train_concat([corpus], eh, cfg)
    gap = abs(hier.history[-1].train_loss - concat.history[-1].train_loss)
    ok = len(hier.history) == len(concat.history) == 12 and gap <= 1e-6
    _verdict(
        4,
        "all-singleton covers make masked training equal plain CRF training",
        ok,
        f"final loss gap {gap:.2e}",
    )


# ----------------------------------------------------- criteria 5 + 6 fixture

BENCH_TYPES = ("PER", "LOC", "ORG", "MISC")


def _words(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i:02d}" for i in range(n)]


_BACKGROUND = _words("b", 50)
_PLAIN_LEX = {t: _words(t.lower(), 25) for t in BENCH_TYPES}
_AMB = _words("amb", 15)
_BASE_LEX = dict(_PLAIN_LEX, PER=_AMB + _words("per", 10))
_EXT_LEX = dict(_PLAIN_LEX, LOC=_AMB + _words("loc", 10))
_TEST_LEX = dict(_PLAIN_LEX, PER=_AMB + _words("per", 10), LOC=_AMB + _words("loc", 10))


def _gen(lex, docs: int, seed: int, split: str = "train") -> Corpus:
    return synth_corpus(GeneratorConfig(docs, 40, 0.05, _BACKGROUND, lex), seed, split)


def _triplet(base: Corpus, ext: Corpus):
    sel = make_selective(base, ext, "LOC")
    tagsets = {
        "full": frozenset(BENCH_TYPES),
        "base": sel.base_tags,
        "extending": sel.extending_tags,
        "test": sel.base_tags | sel.extending_tags,
    }
    eh = extend_with_other(TagHierarchy(frozenset(BENCH_TYPES), (), tagsets))
    data = [sel.base.with_tagset("base"), sel.extending.with_tagset("extending")]
    return data, eh


def _bench_f1(models, test: Corpus, method=ConsolidationMethod.RANDOM, seed: int = 0):
    toks = [s.texts() for s in test.sequences]
    preds, collisions = tag_sequences(models, toks, "test", method, seed)
    golds = [s.tags() for s in test.sequences]
    return score(preds, golds).micro.f1, collisions


@pytest.fixture(scope="module")
def bench():
    t0 = time.monotonic()
    cfg = TrainingConfig(seed=7, epochs=6, batch_size=8, learning_rate=0.5)

    base = _gen(_PLAIN_LEX, 1250, 101)
    ext = _gen(_PLAIN_LEX, 1250, 102)
    test = _gen(_PLAIN_LEX, 300, 103, "test")
    data, eh = _triplet(base, ext)
    plain = {}
    for kind in ("hier", "concat", "indep", "mtl"):
        plain[kind] = _bench_f1(train_models(kind, data, eh, cfg), test)[0]
    plain["skyline"] = _bench_f1(
        train_models("concat", [base.with_tagset("full")], eh, cfg), test
    )[0]

    base_c = _gen(_BASE_LEX, 1250, 111)
    ext_c = _gen(_EXT_LEX, 1250, 112)
    test_c = _gen(_TEST_LEX, 800, 113, "test")
    data_c, eh_c = _triplet(base_c, ext_c)
    coll = {}
    parity = {}
    for kind in ("hier", "indep", "mtl"):
        models = train_models(kind, data_c, eh_c, cfg)
        coll[kind] = _bench_f1(models, test_c)
        if kind != "hier":
            parity[kind] = {
                m.value: _bench_f1(models, test_c, m) for m in ConsolidationMethod
            }
    return {
        "plain": plain,
        "coll": coll,
        "parity": parity,
        "elapsed": time.monotonic() - t0,
    }


def test_criterion_5_synthetic_extension_beats_baselines(bench):
    plain, coll = bench["plain"], bench["coll"]
    ratio = plain["hier"] / plain["skyline"]
    concat_gap = plain["hier"] - plain["concat"]
    collision_count = min(coll["indep"][1], coll["mtl"][1])
    baseline_gap = coll["hier"][0] - max(coll["indep"][0], coll["mtl"][0])
    ok = (
        ratio >= 0.90
        and concat_gap >= 0.0
        and collision_count >= 100
        and baseline_gap >= -0.01
        and bench["elapsed"] <= 600
    )
    _verdict(
        5,
        "extension training recovers the skyline and beats the baselines",
        ok,
        f"hier/skyline {ratio:.3f}, hier-concat {concat_gap:+.3f}, "
        f"collisions {collision_count}, hier-max(indep,mtl) {baseline_gap:+.4f}, "
        f"{bench['elapsed']:.0f}s",
    )


def test_criterion_6_consolidation_methods_agree(bench):
    ok = True
    details = []
    for kind, per_method in bench["parity"].items():
        f1s = [f1 for f1, _ in per_method.values()]
        cols = {c for _, c in per_method.values()}
        spread = max(f1s) - min(f1s)
        ok = ok and spread <= 0.03 and len(cols) == 1
        details.append(f"{kind} spread {spread:.4f} collisions {sorted(cols)}")
    _verdict(
        6,
        "consolidation methods score alike and count the same collisions",
        ok,
        "; ".join(details),
    )


# ---------------------------------------------------------------- criterion 7

def _avg_ranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def _oracle_signed_rank(a, b) -> tuple[int, float, float]:
    d = [float(x) - float(y) for x, y in zip(a, b)]
    d = [v for v in d if v != 0.0]
    if not d:
        return 0, 0.0, 1.0
    ranks = _avg_ranks([abs(v) for v in d])
    w_pos = sum(r for r, v in zip(ranks, d) if v > 0)
    w_neg = sum(r for r, v in zip(ranks, d) if v < 0)
    stat = min(w_pos, w_neg)
    count = 0
    for signs in product((0, 1), repeat=len(d)):
        if sum(r for r, s in zip(ranks, signs) if s) <= stat:
            count += 1
    return len(d), stat, min(1.0, 2.0 * count / 2 ** len(d))


def test_criterion_7_signed_rank_p_values_are_exact():
    rng = default_rng(90007)
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(1, 11))
        a = rng.integers(0, 6, size=n) / 2.0
        b = rng.integers(0, 6, size=n) / 2.0
        got = wilcoxon(a, b)
        n_ref, stat_ref, p_ref = _oracle_signed_rank(a, b)
        assert got.n_nonzero == n_ref
        assert got.statistic == stat_ref
        worst = max(worst, abs(got.p_value - p_ref))

    all_pos = wilcoxon([0.6, 0.7, 0.8, 0.9, 1.0], [0.1, 0.2, 0.3, 0.4, 0.5])
    pinned = abs(all_pos.p_value - 0.0625)
    ok = worst <= 1e-12 and pinned <= 1e-12
    _verdict(
        7,
        "signed-rank p-values equal full sign enumeration",
        ok,
        f"max |dp| {worst:.1e}, five positive pairs -> p {all_pos.p_value:.4f}",
    )


# ---------------------------------------------------------------- criterion 8

EXPERIMENT_SPEC = """\
kind extension
hierarchy h.txt
base base.conll
extending ext.conll
target LOC
test test.conll
models hier concat
seeds 1 2
out_dir results
epochs 2
batch_size 4
"""


def test_criterion_8_determinism_and_file_round_trips(tmp_path):
    eh = _tiny_eh()
    c1, c2 = _tiny_corpora()
    cfg = TrainingConfig(seed=11, epochs=3, batch_size=2)

    ok = model_bytes(train_hier([c1, c2], eh, cfg)) == model_bytes(
        train_hier([c1, c2], eh, cfg)
    )
    ok = ok and model_bytes(train_mtl([c1, c2], eh, cfg)) == model_bytes(
        train_mtl([c1, c2], eh, cfg)
    )
    m = train_hier([c1, c2], eh, cfg)
    p1, p2 = tmp_path / "m1.htag", tmp_path / "m2.htag"
    save_model(m, p1)
    save_model(m, p2)
    ok = ok and p1.read_bytes() == p2.read_bytes()

    small = {"PER": _words("per", 6), "LOC": _words("loc", 6)}
    (tmp_path / "h.txt").write_text("tagset All PER LOC\n")
    for name, seed in (("base", 21), ("ext", 22), ("test", 23)):
        corpus = synth_corpus(GeneratorConfig(10, 8, 0.4, _BACKGROUND[:10], small), seed)
        write_column_file(corpus, tmp_path / f"{name}.conll")
    spec = parse_experiment_spec(EXPERIMENT_SPEC, tmp_path, "acceptance")
    rows1, failed1 = run_experiment(spec)
    csv_path, md_path = write_reports(spec, rows1)
    first = (csv_path.read_bytes(), md_path.read_bytes())
    rows2, failed2 = run_experiment(spec)
    write_reports(spec, rows2)
    ok = ok and not failed1 and not failed2
    ok = ok and (csv_path.read_bytes(), md_path.read_bytes()) == first

    data_path = tmp_path / "base.conll"
    round1 = tmp_path / "round1.conll"
    write_column_file(read_column_file(data_path), round1)
    ok = ok and round1.read_bytes() == data_path.read_bytes()

    ext_text = eh.to_text()
    ok = ok and parse_extended(ext_text).to_text() == ext_text
    plain_text = TagHierarchy(
        {t for e in EDGES for t in e}, EDGES, TAGSETS
    ).to_text()
    ok = ok and parse_hierarchy(plain_text).to_text() == plain_text

    _verdict(
        8,
        "training, reports, and file formats are byte-deterministic",
        ok,
        "model bytes, report bytes, corpus and hierarchy round trips",
    )
