"""Rooted-DAG concept taxonomies and path-based concept similarity.

A store holds one rooted DAG per named domain, kept as a map from each
concept name to the sorted tuple of its parents' names (more general
concepts).  Node depth is counted in nodes along a maximum-length path to
the root, so the root has depth 1.

Similarity between two concepts of the same domain is

    2 * n3 / (n1 + n2 + 2 * n3)

where the least common superconcept is the shared ancestor of maximal
depth, n1 and n2 are the minimal edge counts from each concept up to it,
and n3 is its depth.  All values are exact ``fractions.Fraction``.
``neighborhood`` ranks a whole domain on one integer key per concept and
on integer ``(n1 + n2, n3)`` pairs, and builds a ``Fraction`` only for
the similarities it hands out.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from fractions import Fraction
from functools import cache, cmp_to_key
from math import gcd
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    CrossDomainError,
    LexselError,
    TaxonomyFormatError,
    UnknownConceptError,
    parse_json,
)


class ConceptId(NamedTuple):
    domain: str
    name: str

    def __str__(self) -> str:
        return f"{self.domain}:{self.name}"


@cache
def _similarity(edges: int, depth: int) -> Fraction:
    """``2 * n3 / (n1 + n2 + 2 * n3)`` with ``edges = n1 + n2`` and ``depth = n3``.

    One shared value per pair asked.  In a domain of depth D, n1 and n2 are each at
    most D - n3, so the table holds at most D² entries for the deepest domain loaded.
    """
    return Fraction(2 * depth, edges + 2 * depth)


class PathMetrics(NamedTuple):
    """Path counts underlying one similarity value."""

    n1: int
    n2: int
    n3: int
    lcs: "ConceptId"

    @property
    def similarity(self) -> Fraction:
        return _similarity(self.n1 + self.n2, self.n3)


class ConceptNode(NamedTuple):
    """A concept record, kept only as an input ``DomainTaxonomy.build`` accepts.

    The benchmark's ``loader_timings`` times ``build`` on a map of these; the
    store never holds one.  The class and ``build``'s branch for it go once that
    caller passes the parents map (ROADMAP item 1, "Deletions it unlocks").
    """

    id: ConceptId
    label: str
    parents: tuple[str, ...]  # parent concept names, same domain, sorted


def _check_token(
    token: object, what: str, domain: str | None = None, concept: str | None = None
) -> str:
    """``token`` if it is a valid name; the error names the domain and
    concept it sits in (or the document), formatted only when raising."""
    if not isinstance(token, str) or not token:
        problem = "must be a non-empty string"
    elif token.split() != [token]:  # same character set as str.isspace
        problem = f"{token!r} contains whitespace"
    elif ":" in token:
        problem = f"{token!r} contains ':'"
    else:
        return token
    where = "taxonomy document" if domain is None else f"domain {domain!r}"
    if concept is not None:
        where += f" concept {concept!r}"
    raise TaxonomyFormatError(f"{where}: {what} {problem}")


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, restoring the caller's state.

    A loader allocates a large acyclic structure; full collections over
    the growing store while it does so find nothing to free.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class DomainTaxonomy(
    NamedTuple(
        "DomainTaxonomy", [("domain", str), ("nodes", dict), ("root", str), ("depth", dict)]
    )
):
    """One validated domain: each concept's parents, depths and ancestor maps.

    ``nodes`` maps a concept name to the sorted tuple of its parent names
    (the root's is empty), and ``depth``'s order lists parents first.
    Treat instances as immutable.  ``build`` checks the structure and
    derives every depth; ``ancestors`` fills a concept's ancestor map when
    first asked.  The four tuple fields alone take part in equality; three
    memos, plain attributes that start empty, keep what depends only on the
    domain: ``_up`` per concept, ``_lcs`` per pair, ``_near`` per widening.
    """

    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` goes through ``__new__``

    def __new__(cls, domain: str, nodes: dict, root: str, depth: dict) -> "DomainTaxonomy":
        self = super().__new__(cls, domain, nodes, root, depth)
        self._up, self._lcs, self._near = {}, {}, {}
        return self

    @classmethod
    def build(
        cls, domain: str, nodes: dict[str, tuple[str, ...]] | dict[str, ConceptNode]
    ) -> "DomainTaxonomy":
        """Check ``nodes`` (name -> sorted parent names) and derive every depth.

        A map of ``ConceptNode``s is turned into that map first; the first value
        decides which input it is."""
        if isinstance(next(iter(nodes.values()), None), ConceptNode):
            nodes = {name: node.parents for name, node in nodes.items()}
        where = f"domain {domain!r}"
        roots = [name for name, parents in nodes.items() if not parents]
        if not roots:
            raise TaxonomyFormatError(f"{where}: no root concept (zero parents)")
        if len(roots) > 1:
            raise TaxonomyFormatError(
                f"{where}: multiple root concepts: {', '.join(sorted(roots))}"
            )
        depth: dict[str, int] = {}
        on_path: set[str] = set()  # concepts on the stack, not yet finished
        # Iterative post-order walk up the parent edges: a concept's depth comes from its
        # parents' once all are finished.  One whose parents are all finished skips the stack;
        # every other parent is looked up as it is pushed, so no missing parent goes unseen.
        for start, parents in nodes.items():
            if start in depth:
                continue
            for parent in parents:
                if parent not in depth:
                    break
            else:  # every parent is finished: no walk needed
                depth[start] = 1 + max(map(depth.__getitem__, parents), default=0)
                continue
            on_path.add(start)
            stack = [(start, iter(parents))]
            while stack:
                name, pending = stack[-1]
                for parent in pending:
                    if parent in depth:
                        continue
                    if parent in on_path:
                        raise TaxonomyFormatError(f"{where}: cycle through concept {parent!r}")
                    if parent not in nodes:
                        raise TaxonomyFormatError(
                            f"{where}: concept {name!r} names missing parent {parent!r}"
                        )
                    on_path.add(parent)
                    stack.append((parent, iter(nodes[parent])))
                    break
                else:
                    stack.pop()
                    on_path.discard(name)
                    depth[name] = 1 + max(map(depth.__getitem__, nodes[name]), default=0)
        return cls(domain=domain, nodes=nodes, root=roots[0], depth=depth)

    def require(self, name: str) -> None:
        if name not in self.nodes:
            raise UnknownConceptError(f"domain {self.domain!r} has no concept {name!r}")

    def ancestors(self, name: str) -> dict[str, int]:
        """``{ancestor: min edges}`` of ``name``, itself at 0: walked breadth first
        up the parent edges on the first call and stored.  An unknown name raises
        ``require``'s error and stores nothing."""
        dist = self._up.get(name)
        if dist is None:
            self.require(name)
            nodes, dist = self.nodes, {name: 0}
            queue = [(name, 1)]  # (concept, edges from ``name`` to its parents)
            for concept, edges in queue:  # breadth first: the loop reaches what it appends
                for parent in nodes[concept]:
                    if parent not in dist:
                        dist[parent] = edges
                        queue.append((parent, edges + 1))
            self._up[name] = dist
        return dist

    # every concept's ``ancestors`` map, all filled: ``lexbench/gen.py``'s self-test reads it
    up = property(lambda self: {name: self.ancestors(name) for name in self.nodes})


class TaxonomyStore(NamedTuple):
    """Immutable collection of domain taxonomies keyed by domain name."""

    domains: dict[str, DomainTaxonomy]

    def domain(self, name: str) -> DomainTaxonomy:
        try:
            return self.domains[name]
        except KeyError:
            raise UnknownConceptError(f"unknown domain {name!r}") from None

    def is_a(self, concept: ConceptId, ancestor: ConceptId) -> bool:
        """Reflexive-transitive subsumption within one domain."""
        if concept.domain != ancestor.domain:
            raise CrossDomainError(_RELATE.format(concept, ancestor))
        dom = self.domain(concept.domain)
        dom.require(concept.name)
        dom.require(ancestor.name)
        return ancestor.name in dom.ancestors(concept.name)

    def resolve(self, token: str) -> ConceptId:
        """Resolve ``domain:name`` or a bare name unique across domains."""
        if ":" in token:
            domain, _, name = token.partition(":")
            self.domain(domain).require(name)
            return ConceptId(domain, name)
        hits = [d for d in sorted(self.domains) if token in self.domains[d].nodes]
        if not hits:
            raise UnknownConceptError(f"no domain contains concept {token!r}")
        if len(hits) > 1:
            raise UnknownConceptError(
                f"concept {token!r} is ambiguous across domains {', '.join(hits)}; "
                f"use domain:name"
            )
        return ConceptId(hits[0], token)


@collector_paused()
def load_taxonomy(text: str) -> TaxonomyStore:
    """Parse and validate a taxonomy document.

    Document shape: ``{"domains": [{"name", "concepts": [{"id", "label",
    "parents": [...]}]}]}`` with an optional top-level ``"note"``; a label
    or note must be a string and is not kept.  A concept with an empty
    parent list is the domain root; each domain must have exactly one.
    Error locations are formatted only when raising.
    """
    doc = parse_json(text, TaxonomyFormatError, "taxonomy document")
    if not isinstance(doc, dict) or not isinstance(doc.get("domains"), list):
        raise TaxonomyFormatError('taxonomy document must be {"domains": [...]}')
    if not isinstance(doc.get("note", ""), str):
        raise TaxonomyFormatError('taxonomy "note" must be a string')

    domains: dict[str, DomainTaxonomy] = {}
    for entry in doc["domains"]:
        if not isinstance(entry, dict):
            raise TaxonomyFormatError("domain entry must be an object")
        name = _check_token(entry.get("name"), "domain name")
        if name in domains:
            raise TaxonomyFormatError(f"duplicate domain {name!r}")
        concepts = entry.get("concepts")
        if not isinstance(concepts, list) or not concepts:
            raise TaxonomyFormatError(f"domain {name!r}: needs a non-empty concept list")
        nodes: dict[str, tuple[str, ...]] = {}
        for raw in concepts:
            if not isinstance(raw, dict):
                raise TaxonomyFormatError(f"domain {name!r}: concept entry must be an object")
            cname = _check_token(raw.get("id"), "concept id", name)
            if cname in nodes:
                raise TaxonomyFormatError(f"domain {name!r}: duplicate concept {cname!r}")
            if not isinstance(raw.get("label", ""), str):
                raise TaxonomyFormatError(
                    f"domain {name!r}: concept {cname!r} label must be a string"
                )
            parents_raw = raw.get("parents")
            if not isinstance(parents_raw, list):
                raise TaxonomyFormatError(
                    f"domain {name!r}: concept {cname!r} needs a parent list"
                )
            for parent in parents_raw:
                _check_token(parent, "parent id", name, cname)
            parents = tuple(parents_raw)
            if len(parents) > 1:
                parents = tuple(sorted(parents))
                if len(set(parents)) != len(parents):
                    raise TaxonomyFormatError(
                        f"domain {name!r}: concept {cname!r} lists a parent twice"
                    )
            nodes[cname] = parents
        domains[name] = DomainTaxonomy.build(name, nodes)
    return TaxonomyStore(domains=domains)


def merge_stores(stores: Iterable[TaxonomyStore]) -> TaxonomyStore:
    """Combine stores; duplicate domain names are an error."""
    merged: dict[str, DomainTaxonomy] = {}
    for store in stores:
        for name, dom in store.domains.items():
            if name in merged:
                raise TaxonomyFormatError(f"domain {name!r} appears in more than one document")
            merged[name] = dom
    return TaxonomyStore(domains=merged)


_ONE = Fraction(1)
# Per domain; an entry is a key pair, a result triple and a slot, ~150 bytes plus any
# name strings only the key holds, so ~2.5-4.5 MB at the cap (see README).
_LCS_MEMO_CAP = 1 << 14
_COMPARE = "cannot compare {} with {}: different domains"
_RELATE = "cannot relate {} to {}: different domains"


def _lcs(
    store: TaxonomyStore, c1: ConceptId, c2: ConceptId, mismatch: str = _COMPARE
) -> tuple[int, int, str]:
    """``(n1 + n2, n3, name)`` of the least common superconcept of c1 and c2.

    Deepest first, then fewest edges, then smallest name: c1 itself when the
    two are one concept (no map is read), c2 when it subsumes c1, otherwise
    found by one walk over the smaller ancestor map.  Each domain keeps the
    first _LCS_MEMO_CAP pairs it answers; ``mismatch`` formats a cross-domain
    error."""
    if c1.domain != c2.domain:
        raise CrossDomainError(mismatch.format(c1, c2))
    dom = store.domain(c1.domain)
    memo, key = dom._lcs, (c1.name, c2.name)
    found = memo.get(key)
    if found is not None:  # only a pair of known names is stored
        return found
    depth = dom.depth
    dom.require(c1.name)  # c1's error first, and a failing pair fills no map
    if c1.name == c2.name:
        found = 0, depth[c2.name], c2.name
    else:
        up2, up1 = dom.ancestors(c2.name), dom.ancestors(c1.name)
        edges = up1.get(c2.name)
        if edges is not None:  # every other ancestor of c2 is shallower
            found = edges, depth[c2.name], c2.name
        else:
            if len(up2) < len(up1):
                up1, up2 = up2, up1
            best, best_depth, best_edges = "", 0, 0
            for name, edges in up1.items():
                other = up2.get(name)
                if other is not None:  # the root is shared, so a best is always found
                    d = depth[name]
                    if d >= best_depth:
                        edges += other
                        if d > best_depth or edges < best_edges or (
                            edges == best_edges and name < best
                        ):
                            best, best_depth, best_edges = name, d, edges
            found = best_edges, best_depth, best
    if len(memo) < _LCS_MEMO_CAP:
        memo[key] = found
    return found


def _degree(store: TaxonomyStore, concept: ConceptId, ancestor: ConceptId) -> Fraction:
    """1 when ``ancestor`` subsumes ``concept``, else their ``con_sim``; errors as ``is_a``'s."""
    edges, depth, lcs = _lcs(store, concept, ancestor, _RELATE)
    return _ONE if lcs == ancestor.name else _similarity(edges, depth)


def least_common_superconcept(store: TaxonomyStore, c1: ConceptId, c2: ConceptId) -> PathMetrics:
    """Deepest shared ancestor with its path counts.

    Ties on depth are broken by minimal n1+n2, then by concept name.
    """
    edges, depth, lcs = _lcs(store, c1, c2)
    n1 = 0 if lcs == c1.name else store.domains[c1.domain].ancestors(c1.name)[lcs]
    return PathMetrics(n1, edges - n1, depth, ConceptId(c1.domain, lcs))


def con_sim(store: TaxonomyStore, c1: ConceptId, c2: ConceptId) -> Fraction:
    """Exact similarity in (0, 1]; 1 iff the concepts are identical."""
    edges, depth, _ = _lcs(store, c1, c2)
    return _similarity(edges, depth)


def _more_similar(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Negative when ``(n1 + n2, n3)`` pair ``a`` has the larger similarity.

    ``2 * n3 / (n1 + n2 + 2 * n3)`` falls as ``(n1 + n2) / n3`` grows, and two
    such ratios compare exactly by cross-multiplying."""
    return a[0] * b[1] - b[0] * a[1]


_MORE_SIMILAR_FIRST = cmp_to_key(_more_similar)


def _check_limits(floor: int | Fraction, size: int, size_name: str) -> None:
    """Raise ``LexselError`` unless ``floor`` is in [0, 1] and ``size`` >= 1, floor first."""
    # only an exact floor compares to exact similarities as written
    if isinstance(floor, bool) or not isinstance(floor, (int, Fraction)):
        raise LexselError(f"floor must be an int or a Fraction, got {floor!r}")
    if not 0 <= floor.numerator <= floor.denominator:  # the denominator is positive
        raise LexselError(f"floor must be within [0, 1], got {floor}")
    if isinstance(size, bool) or not isinstance(size, int):
        raise LexselError(f"{size_name} must be an int, got {size!r}")
    if size < 1:
        raise LexselError(f"{size_name} must be >= 1, got {size}")


def neighborhood(
    store: TaxonomyStore,
    concept: ConceptId,
    max_size: int,
    floor: int | Fraction,
) -> list[tuple[ConceptId, Fraction]]:
    """Nearest same-domain concepts with similarity >= floor.

    Sorted by similarity descending, ties by concept name, truncated to
    ``max_size``.  The concept itself is excluded.

    One top-down pass over the domain, parents first, gives every concept
    x one int key, ``n1 + n2 - n3 * span``, for its least common
    superconcept with ``concept``.  ``span`` exceeds every edge count in
    the domain, so the int orders like ``(-n3, n1 + n2)``: deepest first,
    then fewest edges, the LCS rule.  An ancestor of ``concept`` is its own
    LCS.  Any other x shares exactly the ancestors its parents share, one
    edge further away, so its key is the smallest parent key plus 1.
    Distinct keys can give the same similarity, so each key's
    ``(n1 + n2, n3)`` pair is put in lowest terms before the groups are
    merged, ordered and tested against ``floor`` by cross-multiplying, and
    names are sorted within each group.  A ``Fraction`` is built only for
    the pairs handed out.  Each domain keeps the result per ``(name, max_size, floor)``
    and hands out a fresh list.  Bad limits raise ``LexselError`` as ``SelectionConfig``'s do.
    """
    _check_limits(floor, max_size, "max_size")
    dom = store.domain(concept.domain)
    memo_key = (concept.name, max_size, floor)
    found = dom._near.get(memo_key)
    if found is not None:  # only a known name is stored
        return list(found)
    up, nodes = dom.ancestors(concept.name), dom.nodes
    span = 2 * len(nodes) + 1  # n1 and n2 are each below len(nodes)
    keys: dict[str, int] = {}
    by_key: dict[int, list[str]] = {}
    for name, depth in dom.depth.items():  # parents before children
        edges = up.get(name)
        if edges is not None:
            key = edges - depth * span
        else:
            parents = nodes[name]
            if len(parents) == 1:
                key = keys[parents[0]] + 1
            else:
                key = min(map(keys.__getitem__, parents)) + 1
        keys[name] = key
        group = by_key.get(key)
        if group is None:
            by_key[key] = [name]
        else:
            group.append(name)
    del by_key[keys[concept.name]]  # only the centre is 0 edges from its LCS
    groups: dict[tuple[int, int], list[str]] = {}  # (n1 + n2, n3) in lowest terms
    for key, names in by_key.items():
        neg_depth, edges = divmod(key, span)
        common = gcd(edges, neg_depth)
        groups.setdefault((edges // common, -neg_depth // common), []).extend(names)
    num, den = floor.numerator, floor.denominator
    scored: list[tuple[ConceptId, Fraction]] = []
    for edges, depth in sorted(groups, key=_MORE_SIMILAR_FIRST):
        # similarity >= num / den, cross-multiplied
        if len(scored) >= max_size or 2 * depth * den < num * (edges + 2 * depth):
            break
        sim = _similarity(edges, depth)
        names = sorted(groups[edges, depth])[: max_size - len(scored)]
        scored += [(ConceptId(concept.domain, name), sim) for name in names]
    dom._near[memo_key] = found = tuple(scored)
    return list(found)
