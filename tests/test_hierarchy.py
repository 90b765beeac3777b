from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import reference_route

from hiertag.hierarchy import (
    FG_OTHER,
    ExtendedHierarchy,
    HierarchyError,
    TagHierarchy,
    extend_with_other,
    parse_extended,
    parse_hierarchy,
)


def closure_fixpoint(edges: set[tuple[str, str]], tag: str) -> set[str]:
    """Oracle: hyponym closure by fixpoint iteration over the raw edge list."""
    out = {tag}
    changed = True
    while changed:
        changed = False
        for child, parent in edges:
            if parent in out and child not in out:
                out.add(child)
                changed = True
    return out


def random_hierarchy(rng: np.random.Generator) -> TagHierarchy:
    """Random layered DAG with tagsets built to have disjoint fine covers."""
    layers: list[list[str]] = []
    idx = 0
    for _ in range(int(rng.integers(2, 5))):
        width = int(rng.integers(1, 5))
        layers.append([f"t{idx + i}" for i in range(width)])
        idx += width
    nodes = [n for layer in layers for n in layer]
    edges: set[tuple[str, str]] = set()
    above: list[str] = list(layers[0])
    for layer in layers[1:]:
        for n in layer:
            k = int(rng.integers(1, min(3, len(above)) + 1))
            for p in rng.choice(above, size=k, replace=False):
                edges.add((n, str(p)))
        above.extend(layer)
    for _ in range(int(rng.integers(0, 3))):
        nodes.append(f"t{idx}")
        idx += 1

    h = TagHierarchy(nodes, edges)
    tagsets: dict[str, set[str]] = {}
    for s in range(int(rng.integers(1, 4))):
        taken: set[str] = set()
        members: set[str] = set()
        for n in rng.permutation(nodes):
            cover = h.fine_cover(str(n))
            if cover and not (cover & taken) and rng.random() < 0.6:
                members.add(str(n))
                taken |= cover
        if members:
            tagsets[f"S{s}"] = members
    # The file grammar can only mention a tag via an edge or a tagset, so
    # keep every isolated node representable.
    mentioned = {n for e in edges for n in e} | {m for ts in tagsets.values() for m in ts}
    orphans = set(nodes) - mentioned
    if orphans:
        tagsets["S9"] = orphans
    return TagHierarchy(nodes, edges, tagsets)


def all_covers(eh) -> dict[tuple[str, str], frozenset[str]]:
    """The fine cover of every member of every tagset."""
    return {(ts, m): eh.fine_cover(ts, m) for ts, members in eh.tagsets.items() for m in members}


class TestTagHierarchy:
    def test_closure_contains_self_and_descendants(self, clinical):
        assert clinical.hyponym_closure("Name") == {"Name", "FirstName", "LastName"}
        assert clinical.hyponym_closure("Date") == {"Date"}
        assert clinical.hyponym_closure("Age>90") == {"Age>90"}

    def test_closure_matches_fixpoint_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            h = random_hierarchy(rng)
            for tag in h.nodes:
                assert h.hyponym_closure(tag) == closure_fixpoint(set(h.edges), tag)

    def test_fine_grained_nodes_have_no_children(self, clinical):
        assert clinical.fine_grained == {
            "FirstName", "LastName", "Street", "City", "Hospital", "Age>90", "Date",
        }
        rng = np.random.default_rng(8)
        for _ in range(40):
            h = random_hierarchy(rng)
            with_children = {parent for _, parent in h.edges}
            assert h.fine_grained == h.nodes - with_children

    def test_edge_implies_closure_containment(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            h = random_hierarchy(rng)
            for child, parent in h.edges:
                assert h.hyponym_closure(child) <= h.hyponym_closure(parent)

    def test_fine_cover_subset_of_fine_grained(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            h = random_hierarchy(rng)
            for tag in h.nodes:
                cover = h.fine_cover(tag)
                assert cover <= h.fine_grained
                assert cover == h.hyponym_closure(tag) & h.fine_grained

    def test_cycle_rejected(self):
        with pytest.raises(HierarchyError, match="cycle"):
            TagHierarchy({"a", "b", "c"}, [("a", "b"), ("b", "c"), ("c", "a")])

    def test_cycle_error_names_only_the_cycle(self):
        # P and Q lie above the cycle A -> B -> A, not on it.  Each run hashes
        # strings with its own seed, which orders the tag sets differently.
        code = ("from hiertag.hierarchy import TagHierarchy\n"
                "try:\n"
                "    TagHierarchy('ABPQ', [('A', 'B'), ('B', 'A'), ('A', 'P'), ('P', 'Q')])\n"
                "except ValueError as exc:\n"
                "    print(exc)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        for seed in ("0", "1", "2"):
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src})
            assert proc.stdout == "cycle detected among tags: A -> B -> A\n", proc.stderr

    def test_self_edge_rejected(self):
        with pytest.raises(HierarchyError, match="self edge"):
            TagHierarchy({"a"}, [("a", "a")])

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(HierarchyError, match="unknown tag"):
            TagHierarchy({"a"}, [("a", "b")])

    def test_empty_tagset_rejected(self):
        with pytest.raises(HierarchyError, match="empty"):
            TagHierarchy({"a"}, [], {"S": set()})

    def test_tagset_with_unknown_member_rejected(self):
        with pytest.raises(HierarchyError, match="unknown tags"):
            TagHierarchy({"a"}, [], {"S": {"a", "zz"}})

    def test_bad_tag_names_rejected(self):
        with pytest.raises(HierarchyError, match="invalid tag name"):
            TagHierarchy({"a b"})
        with pytest.raises(HierarchyError, match="invalid tag name"):
            TagHierarchy({"a#b"})
        with pytest.raises(HierarchyError, match="empty tag name"):
            TagHierarchy({""})

    def test_unknown_tag_query_rejected(self, clinical):
        with pytest.raises(HierarchyError, match="unknown tag"):
            clinical.hyponym_closure("Nope")


class TestParse:
    TEXT = """\
# admission notes hierarchy
edge FirstName Name
edge LastName Name

edge Street Location
edge City Location   # trailing comment
edge Hospital Location
edge Age>90 Age
tagset T1 Name Location Date Age
tagset T2 FirstName LastName Street City Hospital Age>90 Date
tagset T3 Name Location
"""

    def test_parse_example(self, clinical):
        h = parse_hierarchy(self.TEXT)
        assert h.nodes == clinical.nodes
        assert h.edges == clinical.edges
        assert h.tagsets == clinical.tagsets

    def test_tagset_creates_isolated_nodes(self):
        h = parse_hierarchy("tagset S Date\n")
        assert h.nodes == {"Date"}
        assert h.fine_grained == {"Date"}

    def test_empty_text_gives_empty_hierarchy(self):
        h = parse_hierarchy("")
        assert h.nodes == frozenset()
        assert h.to_text() == ""

    def test_unknown_directive_reports_line(self):
        with pytest.raises(HierarchyError, match="line 3"):
            parse_hierarchy("edge a b\n\nnode c\n")

    def test_edge_arity_reported(self):
        with pytest.raises(HierarchyError, match="exactly two"):
            parse_hierarchy("edge a b c\n")
        with pytest.raises(HierarchyError, match="exactly two"):
            parse_hierarchy("edge a\n")

    def test_duplicate_tagset_rejected(self):
        with pytest.raises(HierarchyError, match="duplicate tagset"):
            parse_hierarchy("tagset S a\ntagset S b\n")

    def test_cycle_in_text_rejected(self):
        with pytest.raises(HierarchyError, match="cycle"):
            parse_hierarchy("edge a b\nedge b a\n")

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            h = random_hierarchy(rng)
            again = parse_hierarchy(h.to_text())
            assert again.nodes == h.nodes
            assert again.edges == h.edges
            assert again.tagsets == h.tagsets
            assert again.to_text() == h.to_text()

    def test_to_text_is_order_insensitive(self, clinical):
        shuffled = TagHierarchy(
            sorted(clinical.nodes, reverse=True),
            sorted(clinical.edges, reverse=True),
            dict(sorted(clinical.tagsets.items(), reverse=True)),
        )
        assert shuffled.to_text() == clinical.to_text()

    def test_plain_parse_rejects_extended_text(self, clinical_ext):
        with pytest.raises(HierarchyError, match="extended"):
            parse_hierarchy(clinical_ext.to_text())


class TestExtension:
    def test_clinical_fine_grained_tags(self, clinical_ext):
        assert clinical_ext.fine_grained == {
            "FirstName", "LastName", "Name-Other",
            "Street", "City", "Hospital", "Location-Other",
            "Age>90", "Age-Other", "Date", FG_OTHER,
        }

    def test_clinical_fine_covers(self, clinical_ext):
        eh = clinical_ext
        assert eh.fine_cover("T1", "Name") == {"FirstName", "LastName", "Name-Other"}
        assert eh.fine_cover("T1", "Date") == {"Date"}
        assert eh.fine_cover("T1", "T1-Other") == {FG_OTHER}
        assert eh.fine_cover("T2", "T2-Other") == {
            "Name-Other", "Location-Other", "Age-Other", FG_OTHER,
        }
        assert eh.fine_cover("T3", "T3-Other") == {
            "Age>90", "Age-Other", "Date", FG_OTHER,
        }

    def test_coarse_gold_admits_fine_interpretations(self, clinical_ext):
        cover = clinical_ext.fine_cover("T3", "Location")
        assert {"Hospital", "City", "Street"} <= cover
        assert "Date" not in cover

    def test_owner_lookups(self, clinical_ext):
        eh = clinical_ext
        assert eh.map_to_tagset("FirstName", "T1") == "Name"
        assert eh.map_to_tagset("City", "T1") == "Location"
        assert eh.map_to_tagset("Name-Other", "T1") == "Name"
        assert eh.map_to_tagset(FG_OTHER, "T1") == "T1-Other"
        assert eh.map_to_tagset("Name-Other", "T2") == "T2-Other"
        assert eh.map_to_tagset("Date", "T3") == "T3-Other"
        assert eh.map_to_tagset("Hospital", "T3") == "Location"

    def test_owner_rejects_non_fine_tag(self, clinical_ext):
        with pytest.raises(HierarchyError, match="not a fine-grained tag"):
            clinical_ext.map_to_tagset("Name", "T1")

    def test_traversal_agrees_with_owner(self, clinical_ext):
        eh = clinical_ext
        for ts in eh.tagsets:
            for f in eh.fine_grained:
                assert eh.map_by_traversal(f, ts) == eh.map_to_tagset(f, ts)

    def test_traversal_from_member_is_identity(self, clinical_ext):
        assert clinical_ext.map_by_traversal("Name", "T3") == "Name"
        assert clinical_ext.map_by_traversal("Date", "T2") == "Date"

    def test_traversal_unreachable_raises(self, clinical_ext):
        with pytest.raises(HierarchyError, match="no member"):
            clinical_ext.map_by_traversal("Age", "T3")

    def test_tagset_other_cover_formula(self):
        # Fine(S-Other) must equal the fine tags left uncovered by S's
        # original members, with closures taken in the extended graph.
        rng = np.random.default_rng(12)
        for _ in range(30):
            eh = extend_with_other(random_hierarchy(rng))
            edges = set(eh.graph.edges)
            for ts, members in eh.tagsets.items():
                other = eh.other_tag(ts)
                covered: set[str] = set()
                for d in members - {other}:
                    covered |= closure_fixpoint(edges, d)
                expected = set(eh.fine_grained) - covered
                assert eh.fine_cover(ts, other) == expected
                assert FG_OTHER in expected

    def test_partition_property(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            eh = extend_with_other(random_hierarchy(rng))
            for ts, members in eh.tagsets.items():
                seen: set[str] = set()
                for t in members:
                    cover = eh.fine_cover(ts, t)
                    assert not (cover & seen)
                    seen |= cover
                assert seen == set(eh.fine_grained)

    def test_traversal_agreement_random(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            eh = extend_with_other(random_hierarchy(rng))
            for ts in eh.tagsets:
                for f in eh.fine_grained:
                    assert eh.map_by_traversal(f, ts) == eh.map_to_tagset(f, ts)

    def test_routes_match_breadth_first_oracle(self):
        rng = np.random.default_rng(16)
        unreachable = 0
        for _ in range(30):
            eh = extend_with_other(random_hierarchy(rng))
            for ts, members in eh.tagsets.items():
                for t in sorted(eh.graph.nodes):
                    want = reference_route(eh.graph, t, members)
                    assert eh.routes[ts].get(t) == want
                    if want is None:
                        unreachable += 1
                        with pytest.raises(HierarchyError, match="reaches no member"):
                            eh.map_by_traversal(t, ts)
                    else:
                        assert eh.map_by_traversal(t, ts) == want
        assert unreachable

    def test_overlapping_tagset_rejected(self, clinical):
        bad = TagHierarchy(
            clinical.nodes, clinical.edges, {"S": {"Name", "FirstName"}}
        )
        with pytest.raises(HierarchyError, match="partition violation"):
            extend_with_other(bad)

    def test_extension_of_extended_graph_rejected(self, clinical_ext):
        with pytest.raises(HierarchyError, match="collides"):
            extend_with_other(clinical_ext.graph)

    def test_reserved_name_collision_rejected(self):
        h = TagHierarchy({"a", "b", FG_OTHER}, [("a", "b")], {"S": {"b"}})
        with pytest.raises(HierarchyError, match="collides"):
            extend_with_other(h)
        h = TagHierarchy({"a", "b", "b-Other"}, [("a", "b")], {"S": {"b"}})
        with pytest.raises(HierarchyError, match="collides"):
            extend_with_other(h)

    def test_extended_round_trip(self, clinical_ext):
        again = parse_extended(clinical_ext.to_text())
        assert again.graph.nodes == clinical_ext.graph.nodes
        assert again.graph.edges == clinical_ext.graph.edges
        assert again.tagsets == clinical_ext.tagsets
        assert again.fine_grained == clinical_ext.fine_grained
        assert all_covers(again) == all_covers(clinical_ext)
        assert again.to_text() == clinical_ext.to_text()

    def test_extended_round_trip_random(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            eh = extend_with_other(random_hierarchy(rng))
            again = parse_extended(eh.to_text())
            assert again.graph.edges == eh.graph.edges
            assert all_covers(again) == all_covers(eh)

    def test_parse_extended_requires_marker(self, clinical):
        with pytest.raises(HierarchyError, match="not an extended"):
            parse_extended(clinical.to_text())

    def test_parse_extended_checks_declared_fine_tags(self, clinical_ext):
        text = clinical_ext.to_text()
        lines = [
            ln if not ln.startswith("fgts") else "fgts Date FG-Other"
            for ln in text.splitlines()
        ]
        with pytest.raises(HierarchyError, match="disagree"):
            parse_extended("\n".join(lines) + "\n")

    def test_unknown_tagset_rejected(self, clinical_ext):
        with pytest.raises(HierarchyError, match="unknown tagset"):
            clinical_ext.fine_cover("T9", "Name")
        with pytest.raises(HierarchyError, match="not in tagset"):
            clinical_ext.fine_cover("T3", "Date")
