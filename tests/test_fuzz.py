"""Every text input at the boundary, mutated or random, parses or raises its
format's own error class: never a bare exception from deeper down."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiertag.data import CorpusError, parse_column_text, parse_generator_config
from hiertag.experiments import _CONFIG_TYPES, ExperimentError, parse_experiment_spec
from hiertag.hierarchy import HierarchyError, ensure_extended, extend_with_other, parse_hierarchy
from hiertag.models import ConsolidationMethod, ModelError, ModelKind

CORPUS = "alice\tName\nsmith\tName\nwalked\tO\n\nelm\tLocation\nyard\tO\n"

HIERARCHY = """\
edge FirstName Name
edge Street Location
edge Age>90 Age
tagset T1 Name Location Age
tagset T2 FirstName Street Age>90
"""

GENERATOR = """\
docs 4
doc_length 5
entity_rate 0.3
background the a walked  # words
type PER alice bob
type LOC elm
"""

SPEC = """\
kind extension
models hier indep
seeds 1 2
consolidation random
epochs 3
dev_fraction 0.25
learning_rate 0.5
target LOC
hierarchy h.txt
base base.conll
extending ext.conll
test test.conll
out_dir results"""  # no final newline, so an edit at the end lands in a path

# Characters that carry structure in some format, then any character.  NUL
# gets a branch of its own: no path may hold one, and pathlib then raises a
# bare ValueError.
CHAR = st.one_of(st.just("\x00"), st.sampled_from("\t\n #.-:/=0123456789"), st.characters())


@st.composite
def mutated(draw, text: str) -> str:
    """text after 1-4 random character edits: a replacement, insertion or
    deletion of 1-4 characters each."""
    chars = list(text)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(chars)))
        k = draw(st.integers(1, 4))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        new = [] if op == "delete" else draw(st.lists(CHAR, min_size=k, max_size=k))
        chars[at : at + (0 if op == "insert" else k)] = new
    return "".join(chars)


def inputs(*valid: str):
    """Mutations of the valid texts, and random text."""
    return st.one_of(st.sampled_from(valid).flatmap(mutated), st.text(CHAR, max_size=80))


# The lines of a valid spec of each kind beyond those every kind needs, and
# a valid value of each optional key: `experiments`' training options by the
# conversion its key table gives them.  `spec_dir` holds every file named.
KIND_LINES = {
    "extension": ("base base.conll", "extending ext.conll", "target LOC", "target PER",
                  "test test.conll"),
    "integration": ("dataset base.conll T1", "dataset ext.conll T2", "test test.conll T1"),
}
CONVERTED = {int: st.integers(1, 5).map(str), float: st.sampled_from(["0.01", "0.5", "5"])}
OPTIONAL = {
    "consolidation": st.sampled_from([m.value for m in ConsolidationMethod]),
    "dev_fraction": st.sampled_from(["0", "0.1", "0.25", "0.5"]),
    **{key: CONVERTED.get(kind, st.sampled_from(["1", "off", "yes", "false"]))
       for key, kind in _CONFIG_TYPES.items()},
}


@st.composite
def specs(draw) -> str:
    """A spec built from valid lines of every key kind: required, repeated,
    path and optional keys, in any order; then 0-2 edits, each dropping or
    repeating a line, moving a value to another line's key, or mutating the
    text (`mutated`)."""
    kind = draw(st.sampled_from(sorted(KIND_LINES)))
    models = draw(st.lists(st.sampled_from([m.value for m in ModelKind]), min_size=1, unique=True))
    seeds = draw(st.lists(st.integers(0, 9).map(str), min_size=1, max_size=3, unique=True))
    lines = [f"kind {kind}", "hierarchy h.txt", "out_dir results", "models " + " ".join(models),
             "seeds " + " ".join(seeds), *KIND_LINES[kind]]
    for key in draw(st.lists(st.sampled_from(sorted(OPTIONAL)), max_size=4, unique=True)):
        lines.append(f"{key} {draw(OPTIONAL[key])}")
    lines = draw(st.permutations(lines))
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["drop", "repeat", "move", "mutate"]))
        at = draw(st.integers(0, len(lines) - 1))
        if edit == "drop":
            del lines[at]
        elif edit == "repeat":
            lines.insert(at, lines[at])
        elif edit == "move":
            key, value = lines[at].split()[0], draw(st.sampled_from(lines)).partition(" ")[2]
            lines[at] = f"{key} {value}"
        else:
            lines = draw(mutated("\n".join(lines))).split("\n")
    return "\n".join(lines)


FUZZ = settings(derandomize=True, deadline=None, max_examples=400)
EXTENDED = extend_with_other(parse_hierarchy(HIERARCHY)).to_text()


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    """A directory holding every file SPEC names, so a valid spec parses."""
    d = tmp_path_factory.mktemp("spec")
    for name in ("h.txt", "base.conll", "ext.conll", "test.conll"):
        (d / name).write_text("")
    return d


def test_unmutated_inputs_parse(spec_dir):
    parse_column_text(CORPUS)
    ensure_extended(HIERARCHY)
    ensure_extended(EXTENDED)
    parse_generator_config(GENERATOR)
    parse_experiment_spec(SPEC, spec_dir)


@FUZZ
@given(text=inputs(CORPUS))
def test_corpus_parses_or_raises_corpus_error(text):
    try:
        parse_column_text(text)
    except CorpusError:
        pass


@FUZZ
@given(text=inputs(HIERARCHY, EXTENDED))
def test_hierarchy_parses_or_raises_hierarchy_error(text):
    try:
        ensure_extended(text)
    except HierarchyError:
        pass


@FUZZ
@given(text=inputs(GENERATOR))
def test_generator_config_parses_or_raises_corpus_error(text):
    try:
        parse_generator_config(text)
    except CorpusError:
        pass


@FUZZ
@given(text=st.one_of(specs(), st.text(CHAR, max_size=80)))
def test_experiment_spec_parses_or_raises_its_errors(spec_dir, text):
    try:
        parse_experiment_spec(text, spec_dir)
    except (ExperimentError, ModelError):
        pass
