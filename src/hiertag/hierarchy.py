"""Tag hierarchy DAG: hyponym closures, Other-extension, and tag mapping.

Edges run child -> parent, meaning the child covers a narrower piece of the
parent's meaning ("Street" -> "Location").  Named tagsets pick out the tag
subsets used to annotate individual corpora.  Extending a hierarchy adds the
synthesized "<node>-Other", "FG-Other" and "<tagset>-Other" tags so that for
every tagset the fine-grained tags split into one owning tag each.
"""

from __future__ import annotations

import re
from graphlib import CycleError, TopologicalSorter
from typing import Iterable, Mapping

FG_OTHER = "FG-Other"
EXTENDED_MARKER = "extended"

_WHITESPACE = re.compile(r"\s")


class HierarchyError(ValueError):
    """Malformed hierarchy text or an inconsistent tag graph."""


def _check_name(name: str, what: str, lineno: int | None = None) -> None:
    where = f" (line {lineno})" if lineno is not None else ""
    if not name:
        raise HierarchyError(f"empty {what} name{where}")
    if _WHITESPACE.search(name) or "#" in name:
        raise HierarchyError(f"invalid {what} name {name!r}{where}")


class TagHierarchy:
    """An immutable DAG of tags plus named tagsets.

    Construction validates everything: tag names, edge endpoints, acyclicity,
    and tagset membership.  Instances are safe to share between workers.
    """

    def __init__(
        self,
        nodes: Iterable[str] = (),
        edges: Iterable[tuple[str, str]] = (),
        tagsets: Mapping[str, Iterable[str]] | None = None,
    ) -> None:
        self.nodes = frozenset(nodes)
        self.edges = frozenset((c, p) for c, p in edges)
        self.tagsets = {name: frozenset(tags) for name, tags in (tagsets or {}).items()}

        for n in self.nodes:
            _check_name(n, "tag")
        for child, parent in self.edges:
            if child not in self.nodes or parent not in self.nodes:
                raise HierarchyError(f"edge {child} -> {parent} references unknown tag")
            if child == parent:
                raise HierarchyError(f"self edge on {child}")
        for name, tags in self.tagsets.items():
            _check_name(name, "tagset")
            if not tags:
                raise HierarchyError(f"tagset {name} is empty")
            missing = tags - self.nodes
            if missing:
                raise HierarchyError(
                    f"tagset {name} references unknown tags: {', '.join(sorted(missing))}"
                )

        self._parents: dict[str, set[str]] = {n: set() for n in self.nodes}
        self._children: dict[str, set[str]] = {n: set() for n in self.nodes}
        for child, parent in self.edges:
            self._parents[child].add(parent)
            self._children[parent].add(child)

        self._check_acyclic()
        self.fine_grained = frozenset(n for n in self.nodes if not self._children[n])

    def _check_acyclic(self) -> None:
        # Sorted input, so the cycle reported does not follow set order.
        graph = {n: sorted(self._children[n]) for n in sorted(self.nodes)}
        try:
            TopologicalSorter(graph).prepare()
        except CycleError as exc:  # args[1] runs child -> parent around the cycle
            raise HierarchyError(f"cycle detected among tags: {' -> '.join(exc.args[1])}") from None

    def _require(self, tag: str) -> None:
        if tag not in self.nodes:
            raise HierarchyError(f"unknown tag {tag!r}")

    def hyponym_closure(self, tag: str) -> frozenset[str]:
        """The tag itself plus every tag with a directed path into it."""
        self._require(tag)
        out = {tag}
        stack = [tag]
        while stack:
            for c in self._children[stack.pop()]:
                if c not in out:
                    out.add(c)
                    stack.append(c)
        return frozenset(out)

    def fine_cover(self, tag: str) -> frozenset[str]:
        """The fine-grained tags inside the tag's hyponym closure."""
        return self.fine_grained & self.hyponym_closure(tag)

    def to_text(self) -> str:
        lines = [f"edge {c} {p}" for c, p in sorted(self.edges)]
        for name in sorted(self.tagsets):
            lines.append(f"tagset {name} {' '.join(sorted(self.tagsets[name]))}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:
        return (
            f"TagHierarchy(nodes={len(self.nodes)}, edges={len(self.edges)}, "
            f"tagsets={sorted(self.tagsets)})"
        )


class ExtendedHierarchy:
    """A hierarchy after Other-extension, compiled into lookup tables.

    `graph` is the full post-extension DAG (synthesized tags included).  For
    every tagset the fine-grained tags partition into exactly one owning tag.
    Per tagset, `member_index` numbers the members in sorted order and
    `routes[tagset]` gives each tag's member (see `map_by_traversal`).
    """

    def __init__(self, graph: TagHierarchy) -> None:
        self.graph = graph
        self.fine_grained = graph.fine_grained
        self.member_index: dict[str, dict[str, int]] = {}
        self.routes: dict[str, dict[str, str]] = {}
        for ts_name, members in sorted(graph.tagsets.items()):
            # A tag's route is the member above it.  Covers must be disjoint,
            # so there is at most one, and a breadth-first ascent meets it.
            routes = self.routes[ts_name] = {
                t: m for m in sorted(members) for t in graph.hyponym_closure(m)
            }
            for t in sorted(members):
                stray = sorted(f for f in graph.fine_cover(t) if routes[f] != t)  # in two covers
                if stray:
                    raise HierarchyError(
                        f"partition violation in tagset {ts_name}: fine tag {stray[0]} "
                        f"belongs to both {routes[stray[0]]} and {t}"
                    )
            uncovered = sorted(self.fine_grained - routes.keys())
            if uncovered:
                raise HierarchyError(
                    f"tagset {ts_name} does not cover fine tags: {', '.join(uncovered)}"
                )
            self.member_index[ts_name] = {t: m for m, t in enumerate(sorted(members))}

    @property
    def tagsets(self) -> dict[str, frozenset[str]]:
        return self.graph.tagsets

    def _require_tagset(self, tagset: str) -> None:
        if tagset not in self.graph.tagsets:
            raise HierarchyError(f"unknown tagset {tagset!r}")

    def other_tag(self, tagset: str) -> str:
        self._require_tagset(tagset)
        return f"{tagset}-Other"

    def fine_cover(self, tagset: str, tag: str) -> frozenset[str]:
        """Fine-grained tags owned by `tag` within the named tagset."""
        self._require_tagset(tagset)
        if tag not in self.member_index[tagset]:
            raise HierarchyError(f"tag {tag!r} not in tagset {tagset!r}")
        return frozenset(f for f in self.fine_grained if self.routes[tagset][f] == tag)

    def map_to_tagset(self, fine_tag: str, tagset: str) -> str:
        """The unique tagset member whose cover contains `fine_tag`."""
        if fine_tag not in self.fine_grained:
            raise HierarchyError(f"{fine_tag!r} is not a fine-grained tag")
        return self.map_by_traversal(fine_tag, tagset)

    def map_by_traversal(self, tag: str, tagset: str) -> str:
        """Map any tag onto the named tagset: one lookup in `routes`, filled
        from each member's hyponym closure, so it is the only member above the
        tag (the breadth-first ascent is tests/oracles.py::reference_route)."""
        self._require_tagset(tagset)
        self.graph._require(tag)
        if tag not in self.routes[tagset]:
            raise HierarchyError(f"tag {tag!r} reaches no member of tagset {tagset!r}")
        return self.routes[tagset][tag]

    def to_text(self) -> str:
        body = self.graph.to_text()
        fgts_line = f"fgts {' '.join(sorted(self.fine_grained))}\n"
        return f"# {EXTENDED_MARKER}\n{body}{fgts_line}"

    def __repr__(self) -> str:
        return (
            f"ExtendedHierarchy(nodes={len(self.graph.nodes)}, "
            f"fine={len(self.fine_grained)}, tagsets={sorted(self.tagsets)})"
        )


def extend_with_other(h: TagHierarchy) -> ExtendedHierarchy:
    """Add the synthesized Other tags that make fine-grained prediction lossless.

    Every internal node d gains a leaf "d-Other"; "FG-Other" joins the
    fine-grained tags; every tagset T gains "T-Other", wired to the fine tags
    that no original member of T covers.  Synthesized names colliding with
    user-declared ones (including re-extension of an extended graph) raise.
    """
    nodes = set(h.nodes)
    edges = set(h.edges)

    def claim(name: str) -> None:
        if name in nodes:
            raise HierarchyError(
                f"cannot extend: synthesized tag {name!r} collides with an existing tag"
            )

    for d in sorted(h.nodes - h.fine_grained):
        claim(f"{d}-Other")
        nodes.add(f"{d}-Other")
        edges.add((f"{d}-Other", d))
    claim(FG_OTHER)
    nodes.add(FG_OTHER)

    interim = TagHierarchy(nodes, edges)
    fgts = interim.fine_grained

    tagsets: dict[str, frozenset[str]] = {}
    for ts_name in sorted(h.tagsets):
        other = f"{ts_name}-Other"
        claim(other)
        covered: set[str] = set()
        for d in h.tagsets[ts_name]:
            covered |= interim.hyponym_closure(d)
        nodes.add(other)
        for f in sorted(fgts - covered):
            edges.add((f, other))
        tagsets[ts_name] = h.tagsets[ts_name] | {other}

    graph = TagHierarchy(nodes, edges, tagsets)
    if graph.fine_grained != fgts:
        raise HierarchyError("extension changed the fine-grained tag set")
    return ExtendedHierarchy(graph)


def _parse(text: str, extended_form: bool | None) -> TagHierarchy | ExtendedHierarchy:
    """Parse hierarchy text and check it is in the given form, plain (False)
    or extended (True).  None takes the form the text declares and extends
    plain text."""
    nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    tagsets: dict[str, frozenset[str]] = {}
    fgts: set[str] | None = None
    extended = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, _, comment = raw.partition("#")
        if comment.strip() == EXTENDED_MARKER:
            extended = True
        fields = line.split()
        if not fields:
            continue
        directive, args = fields[0], fields[1:]
        if directive == "edge":
            if len(args) != 2:
                raise HierarchyError(f"line {lineno}: edge needs exactly two tags")
            for a in args:
                _check_name(a, "tag", lineno)
            nodes.update(args)
            edges.add((args[0], args[1]))
        elif directive == "tagset":
            if len(args) < 2:
                raise HierarchyError(f"line {lineno}: tagset needs a name and at least one tag")
            name, members = args[0], args[1:]
            _check_name(name, "tagset", lineno)
            if name in tagsets:
                raise HierarchyError(f"line {lineno}: duplicate tagset {name}")
            for m in members:
                _check_name(m, "tag", lineno)
            nodes.update(members)
            tagsets[name] = frozenset(members)
        elif directive == "fgts":
            if not args:
                raise HierarchyError(f"line {lineno}: fgts needs at least one tag")
            fgts = set(args) if fgts is None else fgts | set(args)
        else:
            raise HierarchyError(f"line {lineno}: unknown directive {directive!r}")

    h = TagHierarchy(nodes, edges, tagsets)
    as_extended = extended if extended_form is None else extended_form
    if not as_extended:
        if extended or fgts is not None:
            raise HierarchyError(
                "input is an extended hierarchy; parse it with parse_extended "
                "or start from the pre-extension file"
            )
        return extend_with_other(h) if extended_form is None else h
    if not extended or fgts is None:
        raise HierarchyError("not an extended hierarchy file")
    if fgts != h.fine_grained:
        raise HierarchyError(
            "declared fine-grained tags disagree with the graph structure"
        )
    return ExtendedHierarchy(h)


def parse_hierarchy(text: str) -> TagHierarchy:
    """Parse plain hierarchy text (directives `edge` and `tagset`)."""
    return _parse(text, extended_form=False)


def parse_extended(text: str) -> ExtendedHierarchy:
    """Parse extended hierarchy text (marker comment plus `fgts` directive)."""
    return _parse(text, extended_form=True)


def ensure_extended(text: str) -> ExtendedHierarchy:
    """Accept either form: extended text parses as-is, plain text is extended."""
    return _parse(text, extended_form=None)
