from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hiertag.data import OTHER
from hiertag.evaluation import (
    EvalError,
    PRFReport,
    ResultRow,
    TagCounts,
    _exact_p,
    _normal_p,
    report,
    score,
    wilcoxon,
)


class TestScore:
    def test_perfect_predictions(self):
        gold = [["Name", "O", "Date"], ["O", "Location"]]
        r = score(gold, gold)
        assert r.micro.f1 == 1.0
        assert r.micro.tp == 3
        assert r.token_count == 5

    def test_hand_counted_fixture(self):
        r = score([["Name", "O", "Date"]], [["Name", "Date", "Date"]])
        assert (r.micro.tp, r.micro.fp, r.micro.fn) == (2, 0, 1)
        assert r.micro.precision == 1.0
        assert r.micro.recall == pytest.approx(2 / 3)
        assert r.micro.f1 == pytest.approx(0.8)

    def test_all_other_predictions(self):
        r = score([["O", "O", "O"]], [["Name", "O", "Date"]])
        assert (r.micro.tp, r.micro.fp, r.micro.fn) == (0, 0, 2)
        assert r.micro.precision == 0.0
        assert r.micro.recall == 0.0
        assert r.micro.f1 == 0.0

    def test_wrong_tag_counts_both_ways(self):
        r = score([["Name"]], [["Date"]])
        assert r.per_tag["Name"].fp == 1
        assert r.per_tag["Date"].fn == 1
        assert r.micro.tp == 0

    def test_micro_equals_summed_per_tag(self):
        rng = np.random.default_rng(110)
        tags = ["A", "B", "C", "O"]
        gold = [[tags[int(rng.integers(4))] for _ in range(20)] for _ in range(8)]
        pred = [[tags[int(rng.integers(4))] for _ in range(20)] for _ in range(8)]
        r = score(pred, gold)
        sums = TagCounts()
        for c in r.per_tag.values():
            sums = sums + c
        assert (r.micro.tp, r.micro.fp, r.micro.fn) == (sums.tp, sums.fp, sums.fn)

    def test_document_permutation_invariant(self):
        rng = np.random.default_rng(111)
        tags = ["A", "B", "O"]
        gold = [[tags[int(rng.integers(3))] for _ in range(10)] for _ in range(6)]
        pred = [[tags[int(rng.integers(3))] for _ in range(10)] for _ in range(6)]
        r1 = score(pred, gold)
        order = list(rng.permutation(6))
        r2 = score([pred[i] for i in order], [gold[i] for i in order])
        assert r1.per_tag == r2.per_tag

    def test_length_mismatch(self):
        with pytest.raises(EvalError, match="documents"):
            score([["A"]], [["A"], ["B"]])
        with pytest.raises(EvalError, match="tokens"):
            score([["A", "B"]], [["A"]])

    def test_span_mode_differs_from_token_mode(self):
        gold = [["Name", "Name", "O", "Date"]]
        pred = [["Name", "O", "O", "Date"]]
        tok = score(pred, gold)
        assert (tok.micro.tp, tok.micro.fp, tok.micro.fn) == (2, 0, 1)
        span = score(pred, gold, span_mode=True)
        assert (span.micro.tp, span.micro.fp, span.micro.fn) == (1, 1, 1)

    def test_span_mode_identity(self):
        gold = [["A", "A", "B", "O", "A"]]
        r = score(gold, gold, span_mode=True)
        assert r.micro.tp == 3
        assert r.micro.f1 == 1.0

    def test_zero_over_zero_rules(self):
        c = TagCounts()
        assert c.precision == 0.0 and c.recall == 0.0 and c.f1 == 0.0


def brute_force_report(pred, gold, span_mode: bool) -> PRFReport:
    """Per tag, the tokens (or spans: maximal same-tag runs outside Other)
    counted one at a time into tp, fp and fn."""
    def units(seq):
        if not span_mode:
            return [(i, tag) for i, tag in enumerate(seq)]
        return [(i, j, seq[i]) for i in range(len(seq)) for j in range(i, len(seq))
                if len(set(seq[i:j + 1])) == 1 and (i == 0 or seq[i - 1] != seq[i])
                and (j == len(seq) - 1 or seq[j + 1] != seq[i])]

    counts: dict[str, list[int]] = {}
    for p_seq, g_seq in zip(pred, gold):
        p_units, g_units = set(units(p_seq)), set(units(g_seq))
        for unit in p_units | g_units:
            if unit[-1] != OTHER:
                c = counts.setdefault(unit[-1], [0, 0, 0])
                c[0 if unit in p_units & g_units else 1 if unit in p_units else 2] += 1
    per_tag = {tag: TagCounts(*c) for tag, c in sorted(counts.items())}
    return PRFReport(per_tag, sum(map(len, gold)))


@st.composite
def aligned_documents(draw):
    tag = st.sampled_from(["A", "B", "C", OTHER])
    lengths = draw(st.lists(st.integers(1, 8), min_size=0, max_size=5))
    pred = [draw(st.lists(tag, min_size=n, max_size=n)) for n in lengths]
    gold = [draw(st.lists(tag, min_size=n, max_size=n)) for n in lengths]
    return pred, gold


class TestScoreOracle:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(docs=aligned_documents(), span_mode=st.booleans())
    def test_report_equals_brute_force_count(self, docs, span_mode):
        pred, gold = docs
        got = score(pred, gold, span_mode=span_mode)
        want = brute_force_report(pred, gold, span_mode)
        assert list(got.per_tag) == list(want.per_tag)
        assert got == want


def oracle_wilcoxon_p(diffs) -> float:
    """Full 2^n sign enumeration with independently computed average ranks."""
    d = np.asarray(diffs, dtype=np.float64)
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        return 1.0
    absd = np.abs(d)
    ranks = np.array(
        [1 + np.sum(absd < v) + (np.sum(absd == v) - 1) / 2.0 for v in absd]
    )
    stat = min(ranks[d > 0].sum(), ranks[d < 0].sum())
    count = 0
    for bits in itertools.product((0, 1), repeat=n):
        w = sum(r for r, b in zip(ranks, bits) if b)
        if w <= stat + 1e-12:
            count += 1
    return min(1.0, 2.0 * count / 2.0 ** n)


class TestWilcoxon:
    def test_identical_samples(self):
        r = wilcoxon([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.n_nonzero == 0
        assert r.p_value == 1.0
        assert not r.significant_at_0_01

    def test_five_positive_differences(self):
        r = wilcoxon([2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 1.0, 1.0, 1.0, 1.0])
        assert r.n_nonzero == 5
        assert r.statistic == 0.0
        assert r.p_value == pytest.approx(0.0625, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(120)
        for _ in range(100):
            n = int(rng.integers(1, 11))
            a = rng.integers(-3, 4, size=n).astype(float)
            b = np.zeros(n)
            r = wilcoxon(a, b)
            assert r.p_value == pytest.approx(oracle_wilcoxon_p(a - b), abs=1e-12)

    def test_antisymmetric(self):
        rng = np.random.default_rng(121)
        for _ in range(30):
            n = int(rng.integers(2, 30))
            a, b = rng.normal(size=n), rng.normal(size=n)
            r1, r2 = wilcoxon(a, b), wilcoxon(b, a)
            assert r1.statistic == r2.statistic
            assert r1.p_value == pytest.approx(r2.p_value, abs=1e-12)

    def test_exact_and_normal_branches_agree(self):
        rng = np.random.default_rng(122)
        for _ in range(20):
            d = rng.normal(size=25) - rng.normal(size=25)
            ranks = stats.rankdata(np.abs(d))
            statistic = min(float(ranks[d > 0].sum()), float(ranks[d < 0].sum()))
            exact = _exact_p(ranks, statistic)
            assert exact == wilcoxon(d, np.zeros(25)).p_value  # 25 pairs: the exact branch
            assert _normal_p(ranks, statistic) == pytest.approx(exact, abs=0.02)

    def test_p_value_bounded(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            a = rng.integers(-2, 3, size=n).astype(float)
            b = rng.integers(-2, 3, size=n).astype(float)
            r = wilcoxon(a, b)
            assert 0.0 <= r.p_value <= 1.0

    def test_single_pair(self):
        r = wilcoxon([2.0], [1.0])
        assert r.n_nonzero == 1
        assert r.p_value == 1.0  # 2 * P(W <= 0) = 2 * 1/2

    def test_length_mismatch(self):
        with pytest.raises(EvalError, match="equal-length"):
            wilcoxon([1.0, 2.0], [1.0])


def make_rows():
    return [
        ResultRow("D", "base.tsv", "ext.tsv", "hier", 1, TagCounts(8, 2, 1), 0),
        ResultRow("D", "base.tsv", "ext.tsv", "concat", 1, TagCounts(5, 4, 4), 0),
        ResultRow("D", "base.tsv", "ext.tsv", "indep", 1, TagCounts(6, 3, 3), 7),
    ]


class TestReport:
    def test_single_row_csv(self):
        text = report(make_rows()[:1], "csv")
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("tag,base,extending,model,seed")
        assert "0.800000" in lines[1]  # precision 8/10

    def test_byte_identical_and_order_insensitive(self):
        rows = make_rows()
        a = report(rows, "csv")
        b = report(list(reversed(rows)), "csv")
        assert a == b
        assert report(rows, "markdown") == report(list(reversed(rows)), "markdown")

    def test_deterministic_ordering(self):
        rows = make_rows()
        text = report(rows, "csv")
        data = text.splitlines()[1:]
        models = [line.split(",")[3] for line in data]
        assert models == sorted(models)

    def test_markdown_total_recomputed(self):
        rows = make_rows()
        total = TagCounts()
        for r in rows:
            total = total + r.counts
        text = report(rows, "markdown")
        last = text.splitlines()[-1]
        assert "**Total**" in last
        assert f"{total.tp} | {total.fp} | {total.fn}" in last
        assert f"{total.precision:.6f}" in last
        assert f"{total.f1:.6f}" in last
        assert "| 7 |" in last  # summed collisions

    def test_csv_quoting(self):
        row = ResultRow('a,b"c', "base", "ext", "hier", 0, TagCounts(1, 0, 0), 0)
        text = report([row], "csv")
        assert '"a,b""c"' in text

    def test_markdown_escapes_pipes_in_cells(self):
        row = ResultRow("a", "base", "ext", "hier", 0, status="failed: ValueError: x|y")
        line = report([row], "markdown").splitlines()[2]
        assert line.endswith("| failed: ValueError: x\\|y |")
        columns = report([row], "csv").splitlines()[0].count(",") + 1
        assert line.replace("\\|", "").count("|") == columns + 1

    def test_empty_or_unknown_format(self):
        with pytest.raises(EvalError, match="no result rows"):
            report([], "csv")
        with pytest.raises(EvalError, match="unknown report format"):
            report(make_rows(), "html")
