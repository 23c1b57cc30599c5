"""Taxonomy loading, path metrics, and concept similarity."""

import gc
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dag_oracle import (
    as_taxonomy_doc,
    oracle_con_sim,
    oracle_depth,
    oracle_lcs,
    oracle_neighborhood,
    oracle_up_distances,
    random_rooted_dag,
)
from lexsel import (
    ArgumentStructure,
    Binding,
    ConceptId,
    ConceptNode,
    CrossDomainError,
    Role,
    SelectionConfig,
    SelectionConstraint,
    TaxonomyFormatError,
    UnknownConceptError,
    VerbSense,
    con_sim,
    constraint_degrees,
    least_common_superconcept,
    load_corpus,
    load_taxonomy,
    merge_stores,
    neighborhood,
    to_argument_structure,
    translate,
)
from lexsel.bundled import (
    CORPUS_FILE,
    COUNTS_FILE,
    bundled_text,
    load_bundled_lexicon,
    load_bundled_store,
    load_bundled_tree,
)
from lexsel.taxonomy import DomainTaxonomy, _similarity


def store_from(parents: dict[str, tuple[str, ...]], domain: str = "synthetic"):
    return load_taxonomy(json.dumps(as_taxonomy_doc(parents, domain)))


# root -> A -> {B, C}
SMALL = {"root": (), "A": ("root",), "B": ("A",), "C": ("A",)}


def small_id(name: str) -> ConceptId:
    return ConceptId("synthetic", name)


def as_node_records(parents: dict[str, tuple[str, ...]]) -> dict[str, ConceptNode]:
    return {name: ConceptNode(small_id(name), name, ups) for name, ups in parents.items()}


class TestConceptSimilarityFixtures:
    def test_siblings(self):
        store = store_from(SMALL)
        assert con_sim(store, small_id("B"), small_id("C")) == Fraction(2, 3)

    def test_root_to_grandchild(self):
        store = store_from(SMALL)
        assert con_sim(store, small_id("root"), small_id("B")) == Fraction(1, 2)

    def test_parent_child(self):
        store = store_from(SMALL)
        assert con_sim(store, small_id("B"), small_id("A")) == Fraction(4, 5)

    def test_identity(self):
        store = store_from(SMALL)
        assert con_sim(store, small_id("B"), small_id("B")) == 1

    def test_symmetry(self):
        store = store_from(SMALL)
        assert con_sim(store, small_id("root"), small_id("C")) == con_sim(
            store, small_id("C"), small_id("root")
        )

    def test_cross_domain_rejected(self):
        store = merge_stores([store_from(SMALL, "one"), store_from(SMALL, "two")])
        with pytest.raises(CrossDomainError):
            con_sim(store, ConceptId("one", "B"), ConceptId("two", "B"))

    def test_bundled_anchor_values(self):
        store = load_bundled_store()
        cases = [
            ("%change-of-integrity", "%separate-in-duan-state", Fraction(4, 5)),
            ("%separate-in-duan-state", "%separate-in-po-state", Fraction(2, 3)),
            ("entity:language-barrier", "entity:mechanical-device", Fraction(3, 4)),
            ("entity:branch", "entity:brittle-object", Fraction(2, 3)),
            ("entity:stick", "entity:brittle-object", Fraction(3, 5)),
            ("entity:vase", "entity:line-segment-object", Fraction(2, 3)),
        ]
        for a, b, expected in cases:
            assert con_sim(store, store.resolve(a), store.resolve(b)) == expected


class TestPathMetrics:
    def test_lcs_of_siblings(self):
        store = store_from(SMALL)
        m = least_common_superconcept(store, small_id("B"), small_id("C"))
        assert (m.lcs.name, m.n1, m.n2, m.n3) == ("A", 1, 1, 2)

    def test_lcs_with_self_as_ancestor(self):
        store = store_from(SMALL)
        m = least_common_superconcept(store, small_id("A"), small_id("B"))
        assert (m.lcs.name, m.n1, m.n2, m.n3) == ("A", 0, 1, 2)

    def test_diamond_depth_uses_longest_path(self):
        # root -> A -> C and root -> C: depth(C) must be 3, not 2
        diamond = {"root": (), "A": ("root",), "C": ("A", "root")}
        store = store_from(diamond)
        m = least_common_superconcept(store, small_id("C"), small_id("C"))
        assert m.n3 == 3

    def test_depth_tie_broken_by_path_sum_then_name(self):
        # B and C are both depth-2 ancestors of both X and Y
        parents = {
            "root": (),
            "B": ("root",),
            "C": ("root",),
            "X": ("B", "C"),
            "Y": ("B", "C"),
        }
        store = store_from(parents)
        m = least_common_superconcept(store, small_id("X"), small_id("Y"))
        assert m.lcs.name == "B"  # same depth and path sum; smaller name wins


class TestBuild:
    def test_diamond_up_distances(self):
        parents = {"root": (), "A": ("root",), "B": ("root",), "C": ("A", "B")}
        dom = store_from(parents).domain("synthetic")
        assert dom.ancestors("C") == {"C": 0, "A": 1, "B": 1, "root": 2}
        assert dom.depth == {"root": 1, "A": 2, "B": 2, "C": 3}

    @pytest.mark.parametrize("child_first", [False, True])
    def test_deep_chain_in_either_order(self, child_first):
        length = 5000
        parents = {"c0": ()}
        for i in range(1, length):
            parents[f"c{i}"] = (f"c{i - 1}",)
        if child_first:
            parents = dict(reversed(parents.items()))
        dom = store_from(parents).domain("synthetic")
        leaf = f"c{length - 1}"
        assert dom.depth[leaf] == length
        assert dom.ancestors(leaf) == {f"c{i}": length - 1 - i for i in range(length)}
        assert list(dom.depth) == [f"c{i}" for i in range(length)]

    def test_very_deep_chain_answers_exactly(self):
        length = 20_000
        parents = {"c0": ()}
        for i in range(1, length):
            parents[f"c{i}"] = (f"c{i - 1}",)
        store = store_from(parents)
        leaf, root = small_id(f"c{length - 1}"), small_id("c0")
        assert con_sim(store, leaf, root) == Fraction(2, length + 1)  # n1 = length - 1, n3 = 1
        assert store.is_a(leaf, root)
        assert not store.is_a(root, leaf)

    def test_very_deep_chain_walks_exactly(self):
        # a twig under the next-to-last link: the LCS walk covers two 20,000-entry maps
        length = 20_000
        parents = {"c0": ()}
        for i in range(1, length):
            parents[f"c{i}"] = (f"c{i - 1}",)
        parents["twig"] = (f"c{length - 2}",)
        store = store_from(parents)
        leaf, root, twig = small_id(f"c{length - 1}"), small_id("c0"), small_id("twig")
        assert con_sim(store, root, leaf) == con_sim(store, leaf, root) == Fraction(2, length + 1)
        got = least_common_superconcept(store, leaf, twig)
        assert (got.lcs.name, got.n1, got.n2, got.n3) == (f"c{length - 2}", 1, 1, length - 1)
        assert con_sim(store, twig, leaf) == Fraction(length - 1, length)
        assert [d.degree for d in degrees_against(store, leaf, [root, twig])] == [
            1,
            Fraction(length - 1, length),
        ]

    def test_ancestor_maps_fill_on_first_call(self):
        dom = store_from(SMALL).domain("synthetic")
        assert len(dom._up) == 0
        first = dom.ancestors("C")
        assert first == {"C": 0, "A": 1, "root": 2}
        assert dom.ancestors("C") is first
        assert list(dom._up) == ["C"]

    def test_unknown_name_raises_and_stores_nothing(self):
        store = store_from(SMALL)
        dom = store.domain("synthetic")
        for _ in range(2):
            with pytest.raises(UnknownConceptError) as err:
                dom.ancestors("nope")
            assert str(err.value) == "domain 'synthetic' has no concept 'nope'"
        # a failing pair whose first name is known fills no map either
        known, nope = small_id("C"), small_id("nope")
        with pytest.raises(UnknownConceptError, match="has no concept 'nope'"):
            store.is_a(known, nope)
        with pytest.raises(UnknownConceptError, match="has no concept 'nope'"):
            least_common_superconcept(store, known, nope)
        assert len(dom._up) == 0

    def test_node_records_build_the_same_domain_as_parent_tuples(self):
        parents = {"root": (), "A": ("root",), "B": ("root",), "C": ("A", "B")}
        want = DomainTaxonomy.build("synthetic", parents)
        got = DomainTaxonomy.build("synthetic", as_node_records(parents))
        assert (got.nodes, got.root, got.depth) == (want.nodes, want.root, want.depth)
        assert got.nodes == parents and got.root == "root"  # plain tuples, no records

    @pytest.mark.parametrize(
        "parents, problem",
        [
            ({"A": ("B",), "B": ("A",)}, "no root concept (zero parents)"),
            ({"A": (), "B": ()}, "multiple root concepts: A, B"),
            ({"A": (), "B": ("ghost",)}, "concept 'B' names missing parent 'ghost'"),
            ({"root": (), "A": ("B", "root"), "B": ("A",)}, "cycle through concept 'A'"),
        ],
    )
    def test_build_errors_read_the_same_for_either_input(self, parents, problem):
        for nodes in (parents, as_node_records(parents)):
            with pytest.raises(TaxonomyFormatError) as err:
                DomainTaxonomy.build("synthetic", nodes)
            assert str(err.value) == f"domain 'synthetic': {problem}"

    def test_a_load_leaves_no_tracked_object_per_concept(self):
        # a parent tuple of names is untracked by the first collection that sees it
        count = 3000
        parents = {"c0": ()}
        for i in range(1, count):
            parents[f"c{i}"] = tuple(sorted({f"c{(i - 1) // 2}", f"c{i // 3}"}))
        text = json.dumps(as_taxonomy_doc(parents))
        gc.collect()
        before = len(gc.get_objects())
        store = load_taxonomy(text)
        gc.collect()
        grown = len(gc.get_objects()) - before
        assert grown < 100, grown
        assert store.domain("synthetic").nodes == parents

    @pytest.mark.parametrize(
        "parents",
        [
            {"root": (), "A": ("root", "B"), "B": ("A",)},
            {"root": (), "A": ("B",), "B": ("C",), "C": ("A", "root")},
            {"root": (), "A": ("A", "root")},
        ],
    )
    def test_rejects_cycle_in_any_listing_order(self, parents):
        for seed in range(6):
            order = list(parents)
            random.Random(seed).shuffle(order)
            with pytest.raises(TaxonomyFormatError, match="cycle through concept"):
                store_from({name: parents[name] for name in order})

    @pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\x1c", "\t"])
    def test_rejects_whitespace_in_concept_id(self, space):
        with pytest.raises(TaxonomyFormatError, match="whitespace"):
            store_from({"root": (), f"a{space}b": ("root",)})


class TestNeighborhood:
    def test_floor_excludes_distant_concepts(self):
        store = store_from(SMALL)
        got = neighborhood(store, small_id("B"), max_size=10, floor=Fraction(7, 10))
        assert got == [(small_id("A"), Fraction(4, 5))]

    def test_orders_by_similarity_then_name(self):
        store = store_from(SMALL)
        got = neighborhood(store, small_id("B"), max_size=10, floor=0)
        assert got == [
            (small_id("A"), Fraction(4, 5)),
            (small_id("C"), Fraction(2, 3)),
            (small_id("root"), Fraction(1, 2)),
        ]

    def test_truncates_to_max_size(self):
        store = store_from(SMALL)
        got = neighborhood(store, small_id("B"), max_size=1, floor=0)
        assert got == [(small_id("A"), Fraction(4, 5))]

    def test_bundled_change_of_integrity(self):
        store = load_bundled_store()
        center = store.resolve("%change-of-integrity")
        got = neighborhood(store, center, max_size=10, floor=0)
        names = [c.name for c, _ in got]
        sims = [s for _, s in got]
        assert names == [
            "%separate-in-duan-state",
            "%separate-in-fensui-state",
            "%separate-in-needle-like-state",
            "%separate-in-pieces-state",
            "%separate-in-po-state",
            "%separate-in-shang-state",
            "%change-of-state",
        ]
        assert sims == [Fraction(4, 5)] * 6 + [Fraction(2, 3)]

    @pytest.mark.parametrize("deep", ["y", "zz"])
    def test_equal_similarity_through_different_depths_sorts_by_name(self, deep):
        # `deep` meets c at r (depth 4, 2 edges), z at z itself (depth 2,
        # 1 edge): both 4/5, so their names order them, whichever way the
        # (depth, edges) keys would.
        parents = {
            "root": (), "z": ("root",), "p": ("root",), "q": ("p",),
            "r": ("q",), "c": ("r", "z"), deep: ("r",),
        }
        got = neighborhood(store_from(parents), small_id("c"), max_size=10, floor=0)
        assert got == [
            (small_id(name), sim)
            for name, sim in oracle_neighborhood(parents, "c", 10, Fraction(0))
        ]
        assert got[:3] == [
            (small_id("r"), Fraction(8, 9)),
            *((small_id(name), Fraction(4, 5)) for name in sorted([deep, "z"])),
        ]

    def test_rejects_bad_parameters(self):
        store = store_from(SMALL)
        with pytest.raises(ValueError):
            neighborhood(store, small_id("B"), max_size=0, floor=0)
        with pytest.raises(ValueError):
            neighborhood(store, small_id("B"), max_size=5, floor=Fraction(3, 2))
        with pytest.raises(ValueError, match="floor must be an int or a Fraction"):
            neighborhood(store, small_id("B"), max_size=5, floor=0.5)
        with pytest.raises(ValueError, match="max_size must be an int"):
            neighborhood(store, small_id("B"), max_size=2.5, floor=0)
        with pytest.raises(ValueError, match="max_size must be an int"):
            neighborhood(store, small_id("B"), max_size=True, floor=0)
        with pytest.raises(ValueError, match="floor must be an int or a Fraction"):
            neighborhood(store, small_id("B"), max_size=5, floor=True)


def chain(length: int) -> dict[str, tuple[str, ...]]:
    """c0 -> c1 -> ... -> c{length - 1}: concept c{i} has depth i + 1."""
    return {"c0": (), **{f"c{i}": (f"c{i - 1}",) for i in range(1, length)}}


class TestIntegerOrder:
    """``neighborhood`` orders, merges and cuts on integer pairs: the answers
    stay exact on a large tie group and on edge counts in the tens of thousands."""

    @staticmethod
    def star() -> tuple[dict[str, tuple[str, ...]], list[str]]:
        """root -> hub -> 5000 leaves listed shuffled, and the sorted leaf names.

        From the hub every leaf is 4/5 (LCS the hub, depth 2, 1 edge) and the
        root 2/3; from a leaf the hub is 4/5, every sibling 2/3 and the root 1/2.
        """
        leaves = [f"s{i}" for i in range(5000)]
        random.Random(20).shuffle(leaves)
        parents = {"root": (), "hub": ("root",), **{leaf: ("hub",) for leaf in leaves}}
        return parents, sorted(leaves)

    @pytest.mark.parametrize("size", [1, 3, 10])
    def test_tie_group_at_the_cut_takes_the_smallest_names(self, size):
        parents, leaves = self.star()
        store = store_from(parents)
        got = neighborhood(store, small_id("hub"), size, Fraction(0))
        assert got == [(small_id(name), Fraction(4, 5)) for name in leaves[:size]]
        centre, siblings = leaves[0], leaves[1:]  # the smallest name is left out
        got = neighborhood(store, small_id(centre), size, Fraction(0))
        assert got == [(small_id("hub"), Fraction(4, 5))] + [
            (small_id(name), Fraction(2, 3)) for name in siblings[: size - 1]
        ]

    def test_floor_at_a_tie_group_keeps_it_and_just_above_drops_it(self):
        parents, leaves = self.star()
        store = store_from(parents)
        hub, leaf = small_id("hub"), small_id(leaves[0])
        tiny = Fraction(1, 10**12)
        assert neighborhood(store, hub, 10, Fraction(4, 5)) == [
            (small_id(name), Fraction(4, 5)) for name in leaves[:10]
        ]
        assert neighborhood(store, hub, 10, Fraction(4, 5) + tiny) == []
        assert neighborhood(store, leaf, 3, Fraction(2, 3)) == [
            (hub, Fraction(4, 5)),
            *((small_id(name), Fraction(2, 3)) for name in leaves[1:3]),
        ]
        assert neighborhood(store, leaf, 3, Fraction(2, 3) + tiny) == [(hub, Fraction(4, 5))]

    @pytest.mark.parametrize("floor", [0, 1])
    def test_int_floors_match_their_fractions(self, floor):
        # two stores, since 0 and Fraction(0) are one key of the memo
        star, leaves = self.star()
        dag = random_rooted_dag(random.Random(5))
        for parents, centres in (
            (SMALL, list(SMALL)),
            (chain(40), ["c0", "c17", "c39"]),
            (star, ["root", "hub", leaves[0], leaves[-1]]),
            (dag, list(dag)[:12]),
        ):
            as_int, as_fraction = store_from(parents), store_from(parents)
            for name in centres:
                for size in (1, 3, 10, len(parents)):
                    got = neighborhood(as_int, small_id(name), size, floor)
                    assert got == neighborhood(as_fraction, small_id(name), size, Fraction(floor))
                    assert len(got) == (0 if floor else min(size, len(parents) - 1))

    def test_very_deep_chain_neighborhood_has_the_closed_form(self):
        # from c{a - 1} (depth a) to c{b - 1}: LCS depth m = min(a, b), |a - b| edges,
        # so up to 15,000 edges, far past a bound fitted to small domains
        length, a = 20_000, 5_000
        store = store_from(chain(length))
        want = {
            f"c{b - 1}": Fraction(2 * min(a, b), abs(a - b) + 2 * min(a, b))
            for b in range(1, length + 1)
            if b != a
        }
        got = [(c.name, sim) for c, sim in neighborhood(store, small_id(f"c{a - 1}"), length, 0)]
        assert dict(got) == want and len(got) == len(want)
        # each neighbour before the next: similarity descending, then name
        assert all(s > t or (s == t and x < y) for (x, s), (y, t) in zip(got, got[1:]))
        floor = Fraction(1, 2)
        near = neighborhood(store, small_id(f"c{a - 1}"), 10, floor)
        assert [(c.name, sim) for c, sim in near] == [p for p in got if p[1] >= floor][:10]


class TestLoaderValidation:
    def test_round_trips_note(self):
        doc = as_taxonomy_doc(SMALL)
        doc["note"] = "hand-built"
        store = load_taxonomy(json.dumps(doc))  # checked, not kept
        assert store == load_taxonomy(json.dumps(as_taxonomy_doc(SMALL)))

    def test_rejects_invalid_json(self):
        with pytest.raises(TaxonomyFormatError, match="not valid JSON"):
            load_taxonomy("{")

    def test_rejects_deeply_nested_document(self):
        with pytest.raises(TaxonomyFormatError, match="taxonomy document is not valid JSON"):
            load_taxonomy("[" * 5000 + "]" * 5000)

    def test_rejects_missing_root(self):
        with pytest.raises(TaxonomyFormatError, match="no root"):
            store_from({"A": ("B",), "B": ("A",)} | {})

    def test_rejects_two_roots(self):
        with pytest.raises(TaxonomyFormatError, match="multiple root"):
            store_from({"A": (), "B": ()})

    def test_rejects_dangling_parent(self):
        with pytest.raises(TaxonomyFormatError, match="missing parent"):
            store_from({"A": (), "B": ("ghost",)})

    def test_rejects_cycle(self):
        with pytest.raises(TaxonomyFormatError, match="cycle"):
            store_from({"root": (), "A": ("root", "B"), "B": ("A",)})

    def test_rejects_duplicate_concept(self):
        doc = {
            "domains": [
                {
                    "name": "d",
                    "concepts": [
                        {"id": "root", "label": "", "parents": []},
                        {"id": "root", "label": "", "parents": []},
                    ],
                }
            ]
        }
        with pytest.raises(TaxonomyFormatError, match="duplicate concept"):
            load_taxonomy(json.dumps(doc))

    def test_rejects_colon_in_concept_id(self):
        doc = {
            "domains": [
                {"name": "d", "concepts": [{"id": "a:b", "label": "", "parents": []}]}
            ]
        }
        with pytest.raises(TaxonomyFormatError, match="contains ':'"):
            load_taxonomy(json.dumps(doc))

    def test_rejects_whitespace_in_domain_name(self):
        doc = {
            "domains": [
                {"name": "two words", "concepts": [{"id": "r", "label": "", "parents": []}]}
            ]
        }
        with pytest.raises(TaxonomyFormatError, match="whitespace"):
            load_taxonomy(json.dumps(doc))

    def test_merge_rejects_duplicate_domain(self):
        with pytest.raises(TaxonomyFormatError, match="more than one document"):
            merge_stores([store_from(SMALL, "d"), store_from(SMALL, "d")])


class TestResolve:
    def test_qualified_name(self):
        store = store_from(SMALL)
        assert store.resolve("synthetic:B") == small_id("B")

    def test_unique_bare_name(self):
        store = store_from(SMALL)
        assert store.resolve("B") == small_id("B")

    def test_ambiguous_bare_name(self):
        store = merge_stores([store_from(SMALL, "one"), store_from(SMALL, "two")])
        with pytest.raises(UnknownConceptError, match="ambiguous"):
            store.resolve("B")

    def test_unknown_name(self):
        store = store_from(SMALL)
        with pytest.raises(UnknownConceptError):
            store.resolve("nothing")


class TestIsA:
    def test_reflexive_and_transitive(self):
        store = store_from(SMALL)
        assert store.is_a(small_id("B"), small_id("B"))
        assert store.is_a(small_id("B"), small_id("root"))
        assert not store.is_a(small_id("root"), small_id("B"))
        assert not store.is_a(small_id("B"), small_id("C"))

    def test_cross_domain_rejected(self):
        store = merge_stores([store_from(SMALL, "one"), store_from(SMALL, "two")])
        with pytest.raises(CrossDomainError):
            store.is_a(ConceptId("one", "B"), ConceptId("two", "B"))

    def test_unknown_concept(self):
        store = store_from(SMALL)
        with pytest.raises(UnknownConceptError):
            store.is_a(small_id("missing"), small_id("root"))


def check_against_oracle(seed: int, pairs: int = 10) -> None:
    rng = random.Random(seed)
    parents = random_rooted_dag(rng)
    store = store_from(parents)
    names = sorted(parents)
    for _ in range(pairs):
        a, b = rng.choice(names), rng.choice(names)
        got = least_common_superconcept(store, small_id(a), small_id(b))
        want_lcs, want_n1, want_n2, want_n3 = oracle_lcs(parents, a, b)
        assert (got.lcs.name, got.n1, got.n2, got.n3) == (
            want_lcs,
            want_n1,
            want_n2,
            want_n3,
        ), f"seed={seed} pair=({a}, {b})"
        assert con_sim(store, small_id(a), small_id(b)) == oracle_con_sim(parents, a, b)


def degrees_against(store, concept: ConceptId, constraint_concepts: list[ConceptId]):
    """``constraint_degrees`` of ``concept``, bound as E1, against each constraint concept."""
    constraints = tuple(SelectionConstraint(Role.E1, c) for c in constraint_concepts)
    sense = VerbSense("S-1", "s", "target", "", constraints, {})
    args = ArgumentStructure("s", {Role.E1: Binding("m-1", concept)})
    return constraint_degrees(sense, args, store)


def check_every_pair_against_oracle(seed: int, passes: int = 1):
    """Every ordered pair of one random DAG, listed shuffled: the LCS, ``con_sim``,
    ``is_a``, and the constraint degree (exactly 1 on subsumption, else ``con_sim``),
    each asked ``passes`` times of one store, which is returned."""
    rng = random.Random(seed)
    parents = random_rooted_dag(rng, max_nodes=24)
    order = list(parents)
    rng.shuffle(order)
    store = store_from({name: parents[name] for name in order})
    names = sorted(parents)
    for a in names * passes:
        above = oracle_up_distances(parents, a)
        degrees = degrees_against(store, small_id(a), [small_id(b) for b in names])
        for b, degree in zip(names, degrees):
            where = f"seed={seed} pair=({a}, {b})"
            got = least_common_superconcept(store, small_id(a), small_id(b))
            assert (got.lcs.name, got.n1, got.n2, got.n3) == oracle_lcs(parents, a, b), where
            sim = oracle_con_sim(parents, a, b)
            assert con_sim(store, small_id(a), small_id(b)) == sim, where
            assert store.is_a(small_id(a), small_id(b)) == (b in above), where
            assert degree.degree == (1 if b in above else sim), where
    return store


def check_indices_against_oracle(seed: int) -> None:
    """Every node's depth, up-distances and place in ``depth``'s order,
    with concepts listed shuffled."""
    rng = random.Random(seed)
    parents = random_rooted_dag(rng)
    order = list(parents)
    rng.shuffle(order)
    dom = store_from({name: parents[name] for name in order}).domain("synthetic")
    position = {name: i for i, name in enumerate(dom.depth)}  # lists parents first
    for name in parents:
        assert dom.depth[name] == oracle_depth(parents, name), f"seed={seed} node={name}"
        assert dom.ancestors(name) == oracle_up_distances(parents, name), f"seed={seed} node={name}"
        assert all(position[p] < position[name] for p in parents[name]), (
            f"seed={seed} node={name}"
        )


def check_neighborhood_against_oracle(seed: int, passes: int = 1):
    """Every centre, floor and size of one random DAG, listed shuffled, each
    asked ``passes`` times of one store, which is returned."""
    rng = random.Random(seed)
    parents = random_rooted_dag(rng, max_nodes=24)
    order = list(parents)
    rng.shuffle(order)
    store = store_from({name: parents[name] for name in order})
    floors = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(4, 5), Fraction(1))
    for i, concept in enumerate(parents):
        scan = oracle_neighborhood(parents, concept, len(parents), Fraction(0))
        for floor in floors:
            # the scan is sorted by similarity, so a floor keeps a prefix of it
            full = [(name, sim) for name, sim in scan if sim >= floor]
            if i == 0:  # one concept per DAG asks the oracle at every floor
                assert full == oracle_neighborhood(parents, concept, len(parents), floor)
            for size in sorted({1, 3, 10, len(parents)}) * passes:
                got = neighborhood(store, small_id(concept), size, floor)
                assert [(c.name, s) for c, s in got] == full[:size], (
                    f"seed={seed} concept={concept} size={size} floor={floor}"
                )
    return store


class TestAgainstBruteForce:
    def test_seeded_random_dags(self):
        for seed in range(150):
            check_against_oracle(seed)

    def test_shuffled_random_dags_every_pair(self):
        for seed in range(150):
            dom = check_every_pair_against_oracle(seed, passes=2).domain("synthetic")
            assert len(dom._lcs) == len(dom.nodes) ** 2, f"seed={seed}"

    def test_shuffled_random_dag_indices(self):
        for seed in range(150):
            check_indices_against_oracle(seed)

    def test_shuffled_random_dag_neighborhoods(self):
        for seed in range(150):
            dom = check_neighborhood_against_oracle(seed, passes=2).domain("synthetic")
            count = len(dom.nodes)
            assert len(dom._near) == count * 5 * len({1, 3, 10, count}), f"seed={seed}"

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_random_dags(self, seed):
        check_against_oracle(seed, pairs=4)


class TestProperties:
    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_similarity_range_identity_symmetry(self, seed):
        rng = random.Random(seed)
        parents = random_rooted_dag(rng, max_nodes=24)
        store = store_from(parents)
        names = sorted(parents)
        a, b = rng.choice(names), rng.choice(names)
        sim = con_sim(store, small_id(a), small_id(b))
        assert 0 < sim <= 1
        assert sim == con_sim(store, small_id(b), small_id(a))
        assert (sim == 1) == (a == b)
        assert con_sim(store, small_id(a), small_id(a)) == 1

    @given(st.integers(min_value=2, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_chain_similarity_decreases_with_distance(self, length):
        parents = {"c0": ()}
        for i in range(1, length):
            parents[f"c{i}"] = (f"c{i - 1}",)
        store = store_from(parents)
        sims = [
            con_sim(store, small_id("c0"), small_id(f"c{i}")) for i in range(length)
        ]
        assert all(x > y for x, y in zip(sims, sims[1:]))


def _via_degrees(store, concept: ConceptId, ancestor: ConceptId):
    return degrees_against(store, concept, [ancestor])


class TestKernelErrors:
    """Each entry point names the unknown concept (first argument first) or domain."""

    CALLS = [
        (con_sim, "compare {} with {}"),
        (least_common_superconcept, "compare {} with {}"),
        (lambda store, a, b: store.is_a(a, b), "relate {} to {}"),
        (_via_degrees, "relate {} to {}"),
    ]
    IDS = ["con_sim", "least_common_superconcept", "is_a", "constraint_degrees"]

    @pytest.fixture(scope="class")
    def store(self):
        return merge_stores([store_from(SMALL, "one"), store_from(SMALL, "two")])

    @pytest.mark.parametrize("call", [call for call, _ in CALLS], ids=IDS)
    @pytest.mark.parametrize(
        "left, right, message",
        [
            ("one:nope", "one:B", "domain 'one' has no concept 'nope'"),
            ("one:B", "one:nope", "domain 'one' has no concept 'nope'"),
            ("one:first", "one:second", "domain 'one' has no concept 'first'"),
            ("three:B", "three:B", "unknown domain 'three'"),
        ],
    )
    def test_unknown_name_or_domain(self, store, call, left, right, message):
        with pytest.raises(UnknownConceptError) as err:
            call(store, ConceptId(*left.split(":")), ConceptId(*right.split(":")))
        assert str(err.value) == message

    @pytest.mark.parametrize("call, verb", CALLS, ids=IDS)
    def test_cross_domain_pair(self, store, call, verb):
        a, b = ConceptId("one", "B"), ConceptId("two", "nope")
        with pytest.raises(CrossDomainError) as err:
            call(store, a, b)
        assert str(err.value) == f"cannot {verb.format(a, b)}: different domains"


class TestSharedSimilarityValues:
    """Counts, not timings: a warm kernel makes no ``Fraction`` per call."""

    def test_warm_con_sim_builds_no_fraction(self):
        store = load_bundled_store()
        pairs = [
            (ConceptId(domain, a), ConceptId(domain, b))
            for domain, dom in store.domains.items()
            for a in dom.nodes
            for b in dom.nodes
        ]
        want = [con_sim(store, a, b) for a, b in pairs]
        built = []
        saved = vars(Fraction)["__new__"]
        Fraction.__new__ = staticmethod(lambda cls, *a, **k: built.append(a) or saved(cls, *a, **k))
        try:
            again = [con_sim(store, a, b) for a, b in pairs]
        finally:
            Fraction.__new__ = saved
        assert again == want and len(pairs) > 1000
        assert built == []

    def test_bundled_clauses_add_no_value_on_a_second_pass(self):
        store = load_bundled_store()
        lexicon = load_bundled_lexicon(store)
        tree = load_bundled_tree(store, lexicon.nominal_domain)
        clauses = [
            to_argument_structure(record, store, lexicon.nominal_domain)
            for name in (CORPUS_FILE, COUNTS_FILE)
            for record in load_corpus(bundled_text(name)).records
        ]
        _similarity.cache_clear()
        sizes = []
        for _ in range(2):
            for args in clauses:
                translate(lexicon, store, args, SelectionConfig(), tree)
            sizes.append(_similarity.cache_info().currsize)
        deepest = max(max(dom.depth.values()) for dom in store.domains.values())
        assert len(clauses) == 162
        assert 0 < sizes[0] == sizes[1] <= deepest**2


def bundled_clauses(store, lexicon):
    return [
        to_argument_structure(record, store, lexicon.nominal_domain)
        for name in (CORPUS_FILE, COUNTS_FILE)
        for record in load_corpus(bundled_text(name)).records
    ]


def memo_sizes(store) -> list[tuple[int, int]]:
    return [(len(dom._lcs), len(dom._near)) for dom in store.domains.values()]


class TestMemos:
    """Each domain's LCS and widening memos answer exactly what a walk would."""

    def test_caller_cannot_change_a_kept_neighborhood(self):
        store = store_from(SMALL)
        first = neighborhood(store, small_id("B"), 10, 0)
        want = list(first)
        first.append((small_id("junk"), Fraction(1)))
        second = neighborhood(store, small_id("B"), 10, 0)
        assert second == want
        second.clear()
        assert neighborhood(store, small_id("B"), 10, 0) == want

    def test_errors_repeat_and_store_nothing(self):
        store = merge_stores([store_from(SMALL, "one"), store_from(SMALL, "two")])
        one, two = ConceptId("one", "B"), ConceptId("two", "B")
        nope = ConceptId("one", "nope")
        calls = [
            lambda: con_sim(store, nope, one),
            lambda: least_common_superconcept(store, one, nope),
            lambda: con_sim(store, one, two),
            lambda: store.is_a(nope, one),
            lambda: _via_degrees(store, one, two),
            lambda: neighborhood(store, nope, 5, 0),
            lambda: neighborhood(store, one, True, 0),
            lambda: neighborhood(store, one, 5, Fraction(3, 2)),
        ]
        for call in calls:
            raised = []
            for _ in range(2):
                with pytest.raises((UnknownConceptError, CrossDomainError, ValueError)) as err:
                    call()
                raised.append((type(err.value), str(err.value)))
            assert raised[0] == raised[1]
        assert memo_sizes(store) == [(0, 0), (0, 0)]
        # a pair of the same names kept in one domain does not answer across domains
        assert con_sim(store, one, one) == 1
        with pytest.raises(CrossDomainError):
            con_sim(store, one, two)
        assert memo_sizes(store) == [(1, 0), (0, 0)]

    def test_lcs_memo_stops_at_its_cap(self, monkeypatch):
        monkeypatch.setattr("lexsel.taxonomy._LCS_MEMO_CAP", 5)
        dom = check_every_pair_against_oracle(7, passes=2).domain("synthetic")
        assert len(dom.nodes) ** 2 > 5
        assert len(dom._lcs) == 5

    def test_second_bundled_pass_walks_nothing(self, monkeypatch):
        """Every LCS walk and every neighbourhood pass asks for an ancestor map;
        on the second pass only ``is_a``'s membership tests ask for one."""
        store = load_bundled_store()
        lexicon = load_bundled_lexicon(store)
        tree = load_bundled_tree(store, lexicon.nominal_domain)
        clauses = bundled_clauses(store, lexicon)
        readers = []

        ancestors = DomainTaxonomy.ancestors

        def recorded(dom, name):
            readers.append(sys._getframe(1).f_code.co_name)
            return ancestors(dom, name)

        monkeypatch.setattr(DomainTaxonomy, "ancestors", recorded)
        passes, sizes = [], []
        for _ in range(2):
            before = len(readers)
            for args in clauses:
                translate(lexicon, store, args, SelectionConfig(), tree)
            passes.append(set(readers[before:]))
            sizes.append(memo_sizes(store))
        assert len(clauses) == 162
        assert {"_lcs", "neighborhood"} <= passes[0]
        assert passes[1] <= {"is_a"}
        assert sizes[0] == sizes[1]
