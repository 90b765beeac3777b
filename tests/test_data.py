from __future__ import annotations

import numpy as np
import pytest

from hiertag.data import (
    OTHER,
    Corpus,
    CorpusError,
    GeneratorConfig,
    LabeledSequence,
    Token,
    format_column_text,
    induce_tagset,
    make_selective,
    parse_column_text,
    parse_generator_config,
    read_column_file,
    synth_corpus,
    write_column_file,
)


def corpus_from_tags(*docs: list[tuple[str, str]]) -> Corpus:
    seqs = [
        LabeledSequence(tuple(Token(w, g) for w, g in doc), f"doc{i}")
        for i, doc in enumerate(docs)
    ]
    return Corpus(tuple(seqs))


class TestTypes:
    def test_empty_token_rejected(self):
        with pytest.raises(CorpusError, match="empty token"):
            Token("", "Name")
        with pytest.raises(CorpusError, match="empty tag"):
            Token("John", "")

    def test_empty_document_rejected(self):
        with pytest.raises(CorpusError, match="no tokens"):
            LabeledSequence((), "doc0")

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError, match="no documents"):
            Corpus(())

    def test_bad_split_rejected(self):
        seq = LabeledSequence((Token("a", OTHER),), "doc0")
        with pytest.raises(CorpusError, match="split"):
            Corpus((seq,), split="validation")

    def test_check_tags(self):
        c = corpus_from_tags([("John", "Name"), ("x", OTHER)])
        c.check_tags({"Name", "Date"})
        with pytest.raises(CorpusError, match="outside"):
            c.check_tags({"Date"})


class TestReadWrite:
    def test_parse_two_token_doc(self):
        c = parse_column_text("John\tName\nstayed\tO\n\n")
        assert len(c) == 1
        assert c.sequences[0].texts() == ["John", "stayed"]
        assert c.sequences[0].tags() == ["Name", OTHER]

    def test_blank_only_is_error(self):
        with pytest.raises(CorpusError, match="no documents"):
            parse_column_text("\n\n\n")

    def test_empty_file_is_error(self):
        with pytest.raises(CorpusError, match="no documents"):
            parse_column_text("")

    def test_malformed_line_reports_position(self):
        with pytest.raises(CorpusError, match="<string>:2"):
            parse_column_text("a\tO\nbroken line\n")
        with pytest.raises(CorpusError, match=":1"):
            parse_column_text("a\tO\textra\n")
        with pytest.raises(CorpusError, match=":1"):
            parse_column_text("a\t\n")

    def test_consecutive_and_trailing_blanks_tolerated(self):
        c = parse_column_text("a\tO\n\n\n\nb\tO\n\n\n")
        assert len(c) == 2

    def test_byte_exact_round_trip(self):
        text = "John\tName\nstayed\tO\n\nMercy\tHospital\n"
        assert format_column_text(parse_column_text(text)) == text

    def test_three_docs_two_separators(self):
        c = corpus_from_tags([("a", OTHER)], [("b", "X")], [("c", OTHER)])
        text = format_column_text(c)
        assert text.count("\n\n") == 2
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(100)
        cfg = GeneratorConfig(5, 20, 0.3, ["the", "a", "of"], {"X": ["xo", "xi"]})
        c = synth_corpus(cfg, 1)
        path = tmp_path / "c.tsv"
        write_column_file(c, path)
        again = read_column_file(path)
        assert again.sequences == c.sequences
        write_column_file(again, tmp_path / "c2.tsv")
        assert (tmp_path / "c.tsv").read_bytes() == (tmp_path / "c2.tsv").read_bytes()


class TestInduceTagset:
    def test_other_only_empty(self):
        c = corpus_from_tags([("a", OTHER), ("b", OTHER)])
        assert induce_tagset(c) == frozenset()

    def test_mixed_exact_and_recount(self):
        rng = np.random.default_rng(101)
        tags = ["A", "B", "C", OTHER]
        docs = []
        for _ in range(10):
            docs.append([(f"w{i}", tags[int(rng.integers(4))]) for i in range(30)])
        c = corpus_from_tags(*docs)
        recount: set[str] = set()
        for seq in c.sequences:
            for t in seq.tokens:
                if t.gold != OTHER:
                    recount.add(t.gold)
        assert induce_tagset(c) == recount


class TestMakeSelective:
    def test_plain_removal_and_keep_only(self):
        base = corpus_from_tags([("a", "Name"), ("b", "Date"), ("c", OTHER)])
        ext = corpus_from_tags([("x", "Name"), ("y", "Date"), ("z", "Location")])
        out = make_selective(base, ext, "Date")
        assert out.base.sequences[0].tags() == ["Name", OTHER, OTHER]
        assert out.extending.sequences[0].tags() == [OTHER, "Date", OTHER]
        assert out.base_tags == {"Name"}
        assert out.extending_tags == {"Date"}

    def test_hierarchy_mode_removes_hyponyms(self, clinical):
        base = corpus_from_tags([("a", "Location"), ("b", "Name"), ("c", "Date")])
        ext = corpus_from_tags(
            [("x", "Street"), ("y", "City"), ("z", "FirstName"), ("w", "Date")]
        )
        out = make_selective(base, ext, "Location", hierarchy=clinical)
        assert out.base.sequences[0].tags() == [OTHER, "Name", "Date"]
        assert out.extending.sequences[0].tags() == ["Street", "City", OTHER, OTHER]
        assert out.base_tags == {"Name", "Date"}
        assert out.extending_tags == {"Street", "City"}
        assert "Location" not in induce_tagset(out.base)
        assert induce_tagset(out.extending) <= clinical.hyponym_closure("Location")

    def test_text_and_segmentation_untouched(self):
        rng = np.random.default_rng(102)
        cfg = GeneratorConfig(8, 15, 0.5, ["the"], {"A": ["aa"], "B": ["bb"]})
        base = synth_corpus(cfg, 3)
        ext = synth_corpus(cfg, 4)
        out = make_selective(base, ext, "A")
        for before, after in ((base, out.base), (ext, out.extending)):
            assert len(before) == len(after)
            for s0, s1 in zip(before.sequences, after.sequences):
                assert s0.texts() == s1.texts()
                assert len(s0.tokens) == len(s1.tokens)

    def test_recount_oracle(self):
        rng = np.random.default_rng(103)
        cfg = GeneratorConfig(10, 25, 0.4, ["the", "of"], {"A": ["aa"], "B": ["bb"], "C": ["cc"]})
        base = synth_corpus(cfg, 5)
        ext = synth_corpus(cfg, 6)
        out = make_selective(base, ext, "B")
        for s0, s1 in zip(base.sequences, out.base.sequences):
            for t0, t1 in zip(s0.tokens, s1.tokens):
                assert t1.gold == (OTHER if t0.gold == "B" else t0.gold)
        for s0, s1 in zip(ext.sequences, out.extending.sequences):
            for t0, t1 in zip(s0.tokens, s1.tokens):
                assert t1.gold == (t0.gold if t0.gold == "B" else OTHER)
        assert induce_tagset(out.extending) == {"B"}

    def test_absent_tag_rejected(self):
        base = corpus_from_tags([("a", "Name")])
        ext = corpus_from_tags([("x", "Name")])
        with pytest.raises(CorpusError, match="does not occur in the base"):
            make_selective(base, ext, "Date")
        base2 = corpus_from_tags([("a", "Date")])
        with pytest.raises(CorpusError, match="does not occur in the extending"):
            make_selective(base2, ext, "Date")

    def test_plain_mode_ignores_hyponyms(self, clinical):
        base = corpus_from_tags([("a", "Location")])
        ext = corpus_from_tags([("x", "Street")])
        # without the hierarchy, "Location" never matches the fine-tagged corpus
        with pytest.raises(CorpusError, match="extending"):
            make_selective(base, ext, "Location")
        out = make_selective(base, ext, "Location", hierarchy=clinical)
        assert out.extending_tags == {"Street"}


GEN_TEXT = """\
# tiny generator
docs 4
doc_length 10
entity_rate 0.25
background the of and to in
background for on at
type FirstName john mary ahmed rosa
type City boston austin
"""


class TestGeneratorConfig:
    def test_parse_example(self):
        cfg = parse_generator_config(GEN_TEXT)
        assert cfg.docs == 4 and cfg.doc_length == 10
        assert cfg.entity_rate == 0.25
        assert cfg.background == ["the", "of", "and", "to", "in", "for", "on", "at"]
        assert list(cfg.types) == ["FirstName", "City"]
        assert cfg.types["City"] == ["boston", "austin"]

    def test_unknown_key_rejected(self):
        with pytest.raises(CorpusError, match="unknown key"):
            parse_generator_config("docs 1\nwat 3\n")

    def test_missing_keys_reported(self):
        with pytest.raises(CorpusError, match="missing keys"):
            parse_generator_config("docs 1\n")

    def test_duplicate_scalar_rejected(self):
        with pytest.raises(CorpusError, match="duplicate key"):
            parse_generator_config("docs 1\ndocs 2\n")

    def test_duplicate_type_rejected(self):
        with pytest.raises(CorpusError, match="duplicate type"):
            parse_generator_config(GEN_TEXT + "type City more\n")

    def test_bad_rate_rejected(self):
        with pytest.raises(CorpusError, match="not in"):
            GeneratorConfig(1, 1, 1.5, ["a"], {"T": ["t"]})
        with pytest.raises(CorpusError, match="not in"):
            GeneratorConfig(1, 1, -0.1, ["a"], {"T": ["t"]})

    def test_non_numeric_rejected(self):
        with pytest.raises(CorpusError):
            parse_generator_config("docs x\ndoc_length 1\nentity_rate 0\nbackground a\n")

    def test_rate_without_types_rejected(self):
        with pytest.raises(CorpusError, match="at least one type"):
            GeneratorConfig(1, 1, 0.5, ["a"], {})


class TestSynthCorpus:
    def test_zero_rate_is_all_other(self):
        cfg = GeneratorConfig(3, 8, 0.0, ["a", "b"], {"T": ["t"]})
        c = synth_corpus(cfg, 0)
        assert induce_tagset(c) == frozenset()

    def test_fixed_seed_byte_identical(self):
        cfg = parse_generator_config(GEN_TEXT)
        a = format_column_text(synth_corpus(cfg, 42))
        b = format_column_text(synth_corpus(cfg, 42))
        assert a == b
        c = format_column_text(synth_corpus(cfg, 43))
        assert c != a

    def test_words_come_from_declared_lists(self):
        cfg = parse_generator_config(GEN_TEXT)
        c = synth_corpus(cfg, 7)
        for seq in c.sequences:
            for tok in seq.tokens:
                if tok.gold == OTHER:
                    assert tok.text in cfg.background
                else:
                    assert tok.text in cfg.types[tok.gold]

    def test_realized_rate_close_at_scale(self):
        cfg = GeneratorConfig(1000, 100, 0.1, ["the", "of"], {"A": ["aa"], "B": ["bb"]})
        c = synth_corpus(cfg, 11)
        tagged = sum(
            1 for seq in c.sequences for tok in seq.tokens if tok.gold != OTHER
        )
        assert abs(tagged / c.token_count - 0.1) < 0.01

    def test_shape_matches_config(self):
        cfg = GeneratorConfig(6, 17, 0.2, ["x"], {"A": ["aa"]})
        c = synth_corpus(cfg, 2)
        assert len(c) == 6
        assert all(len(s.tokens) == 17 for s in c.sequences)
