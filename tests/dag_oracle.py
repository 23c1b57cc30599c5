"""Brute-force reference for path-based concept similarity.

Enumerates every upward path explicitly, so it shares no code with the
engine's one-pass index build in ``DomainTaxonomy.build``.  Used by the
taxonomy tests and the acceptance suite to cross-check random DAGs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional


def random_rooted_dag(
    rng: random.Random, max_nodes: int = 64, max_diamonds: int = 8
) -> dict[str, tuple[str, ...]]:
    """Map of concept name -> parent names; node c0 is the single root.

    Later nodes pick one or two earlier nodes as parents.  The number of
    two-parent nodes is capped so exhaustive path enumeration stays cheap.
    """
    count = rng.randint(2, max_nodes)
    parents: dict[str, tuple[str, ...]] = {"c0": ()}
    diamonds = 0
    for i in range(1, count):
        pool = [f"c{j}" for j in range(i)]
        if diamonds < max_diamonds and len(pool) >= 2 and rng.random() < 0.3:
            chosen = rng.sample(pool, 2)
            diamonds += 1
        else:
            chosen = [rng.choice(pool)]
        parents[f"c{i}"] = tuple(sorted(chosen))
    return parents


def upward_paths(parents: dict[str, tuple[str, ...]], node: str) -> list[tuple[str, ...]]:
    """Every node sequence from ``node`` to the root, inclusive."""
    if not parents[node]:
        return [(node,)]
    found = []
    for parent in parents[node]:
        for tail in upward_paths(parents, parent):
            found.append((node,) + tail)
    return found


def oracle_depth(parents: dict[str, tuple[str, ...]], node: str) -> int:
    # node count along the longest route to the root; the root itself is 1
    return max(len(path) for path in upward_paths(parents, node))


def oracle_up_distances(parents: dict[str, tuple[str, ...]], node: str) -> dict[str, int]:
    distances: dict[str, int] = {}
    for path in upward_paths(parents, node):
        for hops, ancestor in enumerate(path):
            if ancestor not in distances or hops < distances[ancestor]:
                distances[ancestor] = hops
    return distances


def oracle_lcs(
    parents: dict[str, tuple[str, ...]], a: str, b: str
) -> tuple[str, int, int, int]:
    """Returns (lcs, n1, n2, n3) under the same tie rules as the engine:

    deepest superconcept first, then smallest n1+n2, then smallest name.
    """
    up_a = oracle_up_distances(parents, a)
    up_b = oracle_up_distances(parents, b)
    common = set(up_a) & set(up_b)
    assert common, "a rooted DAG always shares at least the root"
    best: Optional[tuple[int, int, str]] = None
    for node in common:
        key = (-oracle_depth(parents, node), up_a[node] + up_b[node], node)
        if best is None or key < best:
            best = key
    depth, _, lcs = best
    return lcs, up_a[lcs], up_b[lcs], -depth


def oracle_con_sim(parents: dict[str, tuple[str, ...]], a: str, b: str) -> Fraction:
    _, n1, n2, n3 = oracle_lcs(parents, a, b)
    return Fraction(2 * n3, n1 + n2 + 2 * n3)


def oracle_neighborhood(
    parents: dict[str, tuple[str, ...]], concept: str, max_size: int, floor: Fraction
) -> list[tuple[str, Fraction]]:
    """Full scan: every other concept's oracle similarity, kept if >= floor,
    sorted by similarity descending and then by name, truncated."""
    scored = []
    for name in parents:
        if name != concept:
            sim = oracle_con_sim(parents, concept, name)
            if sim >= floor:
                scored.append((name, sim))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:max_size]


def as_taxonomy_doc(parents: dict[str, tuple[str, ...]], domain: str = "synthetic") -> dict:
    """Shape the parent map like a taxonomy document for the loader."""
    return {
        "domains": [
            {
                "name": domain,
                "concepts": [
                    {"id": name, "label": name, "parents": list(parent_names)}
                    for name, parent_names in parents.items()
                ],
            }
        ]
    }
