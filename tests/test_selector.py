"""Candidate gathering, ranking, decision-tree action choice, translation."""

import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexsel import (
    ArgumentStructure,
    ConceptId,
    CrossDomainError,
    DecisionTreeFormatError,
    LexselError,
    MatchScore,
    Role,
    SelectionConfig,
    VocabularyGapError,
    build_inter_rep,
    candidate_slots,
    constraint_degrees,
    decide_action,
    disambiguate,
    load_corpus,
    load_decision_tree,
    load_lexicon,
    load_taxonomy,
    rank_candidates,
    rerank_by_action,
    resolve_mention,
    to_argument_structure,
    translate,
    word_sim_breakdown,
)
from lexsel.bundled import (
    CORPUS_FILE,
    COUNTS_FILE,
    bundled_text,
    load_bundled_lexicon,
    load_bundled_store,
    load_bundled_tree,
    LEXICON_FILE,
    TREE_FILE,
)
from lexsel.selector import TreeLeaf, TreeTest


@pytest.fixture(scope="module")
def store():
    return load_bundled_store()


@pytest.fixture(scope="module")
def lexicon(store):
    return load_bundled_lexicon(store)


@pytest.fixture(scope="module")
def tree(store, lexicon):
    return load_bundled_tree(store, lexicon.nominal_domain)


def args_for(store, lexeme="break", markers=(), **mentions) -> ArgumentStructure:
    bindings = {
        Role[r.upper()]: resolve_mention(store, "entity", m) for r, m in mentions.items()
    }
    return ArgumentStructure(
        source_lexeme=lexeme, bindings=bindings, context_markers=frozenset(markers)
    )


def action(name: str) -> ConceptId:
    return ConceptId("action", name)


class TestDecideAction:
    def test_brittle_patient_implies_hitting(self, tree, store):
        concept = ConceptId("entity", "vase")
        assert decide_action(tree, concept, args_for(store, e1="vase-1"), store) == action(
            "%hit-action"
        )

    def test_hand_wieldable_patient_implies_bending(self, tree, store):
        concept = ConceptId("entity", "stick")
        args = args_for(store, e0="john-1", e1="stick-1")
        assert decide_action(tree, concept, args, store) == action("%bend-action")

    def test_context_marker_beats_patient_shape(self, tree, store):
        concept = ConceptId("entity", "stick")
        args = args_for(store, markers=["into-pieces"], e0="john-1", e1="stick-1")
        assert decide_action(tree, concept, args, store) == action("%hit-action")

    def test_bound_instrument_implies_hitting(self, tree, store):
        concept = ConceptId("entity", "stick")
        args = args_for(store, e0="john-1", e1="stick-1", e2="hammer-1")
        assert decide_action(tree, concept, args, store) == action("%hit-action")

    def test_unsuggestive_patient_gives_the_root(self, tree, store):
        concept = ConceptId("entity", "branch")
        assert decide_action(tree, concept, args_for(store, e1="branch-1"), store) == action(
            "%action"
        )


class TestTreeLoader:
    def test_bundled_tree_loads(self, store):
        tree = load_decision_tree(bundled_text(TREE_FILE), store, "entity")
        assert tree.test == TreeTest(kind="has-marker", value="into-pieces")
        assert tree.then == TreeLeaf(action=action("%hit-action"))

    def test_plain_leaf(self, store):
        tree = load_decision_tree('{"action": "%hit-action"}', store, "entity")
        concept = ConceptId("entity", "vase")
        assert decide_action(tree, concept, args_for(store), store) == action("%hit-action")

    def test_rejects_unknown_action(self, store):
        with pytest.raises(DecisionTreeFormatError, match="unknown action"):
            load_decision_tree('{"action": "%fly-action"}', store, "entity")

    def test_rejects_incomplete_branch(self, store):
        doc = {"test": {"kind": "has-marker", "marker": "x"}, "then": {"action": "%action"}}
        with pytest.raises(DecisionTreeFormatError, match="test/then/else"):
            load_decision_tree(json.dumps(doc), store, "entity")

    def test_error_names_the_node_path(self, store):
        doc = {
            "test": {"kind": "has-marker", "marker": "x"},
            "then": {"action": "%no-such"},
            "else": {"action": "%action"},
        }
        with pytest.raises(DecisionTreeFormatError, match="root/then"):
            load_decision_tree(json.dumps(doc), store, "entity")

    def test_rejects_unknown_test_kind(self, store):
        doc = {
            "test": {"kind": "phase-of-moon"},
            "then": {"action": "%action"},
            "else": {"action": "%action"},
        }
        with pytest.raises(DecisionTreeFormatError, match="unknown test kind"):
            load_decision_tree(json.dumps(doc), store, "entity")

    def test_rejects_unknown_is_a_concept(self, store):
        doc = {
            "test": {"kind": "is-a", "concept": "unicorn"},
            "then": {"action": "%action"},
            "else": {"action": "%action"},
        }
        with pytest.raises(DecisionTreeFormatError, match="unknown nominal concept"):
            load_decision_tree(json.dumps(doc), store, "entity")

    def test_is_a_tests_the_concept_checked_at_load(self):
        def domain(name, *chain):  # each concept is the child of the one before it
            concepts = [{"id": c, "parents": [chain[i - 1]] if i else []}
                        for i, c in enumerate(chain)]
            return {"name": name, "concepts": concepts}

        store = load_taxonomy(json.dumps({"domains": [
            domain("action", "%action", "%hit-action"),
            domain("entity", "thing", "rod"),
            domain("shape", "form", "rod", "stick"),  # also has a "rod"
        ]}))
        doc = {
            "test": {"kind": "is-a", "concept": "rod"},
            "then": {"action": "%hit-action"},
            "else": {"action": "%action"},
        }
        tree = load_decision_tree(json.dumps(doc), store, "entity")
        assert tree.test == TreeTest(kind="is-a", value=ConceptId("entity", "rod"))
        args = ArgumentStructure("break", {})
        assert decide_action(tree, ConceptId("entity", "rod"), args, store) == action(
            "%hit-action"
        )
        with pytest.raises(CrossDomainError):
            decide_action(tree, ConceptId("shape", "stick"), args, store)

    def test_rejects_bad_role(self, store):
        doc = {
            "test": {"kind": "role-bound", "role": "E9"},
            "then": {"action": "%action"},
            "else": {"action": "%action"},
        }
        with pytest.raises(DecisionTreeFormatError, match="bad role"):
            load_decision_tree(json.dumps(doc), store, "entity")

    def test_rejects_store_without_action_domain(self):
        entities = load_taxonomy(bundled_text("entities.json"))
        with pytest.raises(DecisionTreeFormatError, match="unknown action domain 'action'"):
            load_decision_tree('{"action": "%action"}', entities, "entity")

    def test_rejects_deeply_nested_document(self, store):
        text = '{"then":' * 5000 + "{}" + "}" * 5000
        with pytest.raises(DecisionTreeFormatError, match="tree document is not valid JSON"):
            load_decision_tree(text, store, "entity")


BRANCH_ORDER = [
    ("duan-la", Fraction(4, 5), Fraction(1)),
    ("da-sui", Fraction(4, 5), Fraction(2, 3)),
    ("ya-sui", Fraction(4, 5), Fraction(2, 3)),
    ("da-duan", Fraction(4, 5), Fraction(1, 2)),
    ("duan-cheng", Fraction(4, 5), Fraction(1, 2)),
    ("gua-duan", Fraction(4, 5), Fraction(1, 2)),
    ("zhe-duan", Fraction(4, 5), Fraction(1, 2)),
]


class TestSelectTarget:
    def test_branch_full_ranking(self, lexicon, store):
        results = translate(lexicon, store, args_for(store, e1="branch-1")).ranking
        got = [(r.sense_id, r.score.concept_score, r.score.constraint_score) for r in results]
        assert got == BRANCH_ORDER

    def test_branch_candidates_come_through_neighbors(self, lexicon, store):
        results = translate(lexicon, store, args_for(store, e1="branch-1")).ranking
        top = results[0]
        assert top.via_concept == ConceptId("ch-of-state", "%separate-in-duan-state")
        assert top.neighborhood_sim == Fraction(4, 5)

    def test_exact_realization_bypasses_neighbors(self, lexicon, store):
        # the snap sense projects straight onto the realized duan concept
        results = translate(lexicon, store, args_for(store, "snap", e1="twig-1")).ranking
        assert all(r.neighborhood_sim == 1 for r in results)
        assert [r.sense_id for r in results] == [
            "duan-la",
            "da-duan",
            "duan-cheng",
            "gua-duan",
            "zhe-duan",
        ]
        assert results[0].score == MatchScore(Fraction(1), Fraction(1))

    def test_raising_the_floor_never_adds_candidates(self, lexicon, store):
        args = args_for(store, e1="branch-1")
        previous = None
        for floor in (Fraction(4, 5), Fraction(1, 2), Fraction(1, 5)):
            config = SelectionConfig(floor=floor)
            ids = {r.sense_id for r in translate(lexicon, store, args, config).ranking}
            if previous is not None:
                assert previous <= ids
            previous = ids

    def test_floor_above_all_neighbors_is_a_gap(self, lexicon, store):
        config = SelectionConfig(floor=Fraction(81, 100))
        with pytest.raises(VocabularyGapError, match="no target realization"):
            translate(lexicon, store, args_for(store, e1="branch-1"), config).ranking

    def test_neighborhood_size_cap(self, lexicon, store):
        # with one slot only the nearest neighbor concept survives, and
        # name order puts the duan concept first among the 4/5 ties
        config = SelectionConfig(max_candidates=1)
        results = translate(lexicon, store, args_for(store, e1="branch-1"), config).ranking
        vias = {r.via_concept.name for r in results}
        assert vias == {"%separate-in-duan-state"}
        assert len(results) == 5

    def test_ranking_ignores_document_order(self, lexicon, store):
        doc = json.loads(bundled_text(LEXICON_FILE))
        doc["senses"] = list(reversed(doc["senses"]))
        reversed_lexicon = load_lexicon(json.dumps(doc), store)
        args = args_for(store, e1="branch-1")
        a = [r.sense_id for r in translate(lexicon, store, args).ranking]
        b = [r.sense_id for r in translate(reversed_lexicon, store, args).ranking]
        assert a == b

    def test_multi_slot_meaning_gathers_over_every_concept(self, lexicon, store):
        args = args_for(store, "hit", e0="bonds-1", e1="price-peak-1")
        results = translate(lexicon, store, args).ranking
        assert [r.sense_id for r in results] == ["da-dao"]
        top = results[0]
        assert top.score == MatchScore(Fraction(1, 3), Fraction(1))
        assert top.via_concept == ConceptId("motion", "%change-in-value")
        assert top.neighborhood_sim == Fraction(1, 2)


class TestSelectionConfig:
    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"floor": Fraction(3, 2)}, "floor must be within"),
            ({"floor": Fraction(-1, 10)}, "floor must be within"),
            ({"max_candidates": 0}, "max_candidates must be >= 1"),
            # a float floor is compared at its binary value: 0.8 > Fraction(4, 5)
            ({"floor": 0.8}, "floor must be an int or a Fraction, got 0.8"),
            ({"floor": "0.5"}, "floor must be an int or a Fraction, got '0.5'"),
            ({"floor": True}, "floor must be an int or a Fraction, got True"),
            ({"max_candidates": 2.5}, "max_candidates must be an int, got 2.5"),
            ({"max_candidates": True}, "max_candidates must be an int, got True"),
            # a plain mapping would fail only later, inside ``translate``
            (
                {"weights": {"ch-of-state": 2}},
                "weights must be a DomainWeights, got {'ch-of-state': 2}",
            ),
        ],
    )
    def test_rejects_out_of_range(self, bad, message):
        with pytest.raises(LexselError, match=message):
            SelectionConfig(**bad)

    def test_accepts_the_bounds(self):
        SelectionConfig(floor=Fraction(0), max_candidates=1)
        SelectionConfig(floor=Fraction(1))
        SelectionConfig(floor=0)
        SelectionConfig(floor=1)


class TestScoreRecord:
    def test_every_candidate_keeps_the_parts_it_was_scored_from(self, lexicon, store, tree):
        config = SelectionConfig()
        clauses = candidates = 0
        for name in (CORPUS_FILE, COUNTS_FILE):
            for record in load_corpus(bundled_text(name)).records:
                args = to_argument_structure(record, store, lexicon.nominal_domain)
                t = translate(lexicon, store, args, config, tree)
                clauses += 1
                for r in t.ranking:
                    sense = lexicon.senses[r.sense_id]
                    slots = candidate_slots(t.inter_rep, sense)
                    _, domains = word_sim_breakdown(t.inter_rep.slots, slots, config.weights, store)
                    assert r.score.domains == domains
                    assert r.score.constraints == constraint_degrees(sense, args, store)
                    candidates += 1
        assert clauses == 162 and candidates > clauses


class TestRankingOrder:
    @pytest.fixture(scope="class")
    def clauses(self, store, lexicon):
        return [
            to_argument_structure(record, store, lexicon.nominal_domain)
            for name in (CORPUS_FILE, COUNTS_FILE)
            for record in load_corpus(bundled_text(name)).records
        ]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_order_equals_the_negated_key_sort(self, clauses, lexicon, store, data):
        # scores from a few levels, so candidates tie on one, two or all three keys
        levels = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)])
        scores = {
            sense_id: MatchScore(data.draw(levels), data.draw(levels))
            for sense_id in sorted(lexicon.senses)
        }
        config = SelectionConfig(
            floor=data.draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2)])),
            max_candidates=data.draw(st.integers(1, 12)),
        )
        args = data.draw(st.sampled_from(clauses))
        inter_rep = build_inter_rep(disambiguate(lexicon, args, store), args, "s1")

        def fake(inter_rep, sense, args, weights, store):
            return scores[sense.sense_id]

        with mock.patch("lexsel.selector.inexact_match", fake):
            try:
                ranking = rank_candidates(lexicon, store, inter_rep, args, config)
            except VocabularyGapError:
                return
        expected = sorted(
            ranking,
            key=lambda r: (
                -r.score.concept_score,
                -r.score.constraint_score,
                -r.neighborhood_sim,
                r.sense_id,
            ),
        )
        assert [r.sense_id for r in ranking] == [r.sense_id for r in expected]


class TestRerankByAction:
    def pick(self, lexicon, store, mentions, ids):
        results = translate(lexicon, store, args_for(store, **mentions)).ranking
        by_id = {r.sense_id: r for r in results}
        return [by_id[i] for i in ids]

    def test_promotes_within_a_concept_band(self, lexicon, store):
        ranking = self.pick(
            lexicon, store, {"e1": "branch-1"}, ["duan-la", "da-sui", "zhe-duan"]
        )
        got = rerank_by_action(ranking, action("%bend-action"), lexicon)
        assert [r.sense_id for r in got] == ["zhe-duan", "duan-la", "da-sui"]

    def test_bands_do_not_cross(self, lexicon, store):
        # duan-la sits in a lower concept band when the agent is bound, so
        # promoting the hit senses must not lift them above it
        results = translate(lexicon, store, args_for(store, e0="john-1", e1="vase-1")).ranking
        got = rerank_by_action(results, action("%hit-action"), lexicon)
        bands = [r.score.concept_score for r in got]
        assert bands == sorted(bands, reverse=True)


class TestTranslate:
    def expect(self, lexicon, store, tree, mentions, lexeme, target, markers=()):
        args = args_for(store, lexeme, markers=markers, **mentions)
        return translate(lexicon, store, args, SelectionConfig(), tree)

    def test_bare_patient_branch(self, lexicon, store, tree):
        t = self.expect(lexicon, store, tree, {"e1": "branch-1"}, "break", "duan-la")
        assert t.lexeme == "duan-la"
        assert t.decided_action == action("%action")
        assert t.ranking[0].score == MatchScore(Fraction(4, 5), Fraction(1))

    def test_agent_and_stick(self, lexicon, store, tree):
        t = self.expect(
            lexicon, store, tree, {"e0": "john-1", "e1": "stick-1"}, "break", "zhe-duan"
        )
        assert t.lexeme == "zhe-duan"
        assert t.decided_action == action("%bend-action")

    def test_instrument_promotes_the_hit_verb(self, lexicon, store, tree):
        t = self.expect(
            lexicon,
            store,
            tree,
            {"e0": "john-1", "e1": "stick-1", "e2": "hammer-1"},
            "break",
            "da-duan",
        )
        assert t.lexeme == "da-duan"
        assert t.decided_action == action("%hit-action")
        assert t.ranking[0].score == MatchScore(Fraction(3, 5), Fraction(1))

    def test_natural_force_agent(self, lexicon, store, tree):
        t = self.expect(
            lexicon, store, tree, {"e0": "wind-1", "e1": "branch-1"}, "break", "gua-duan"
        )
        assert t.lexeme == "gua-duan"
        # the root action implies nothing, so the constraint winner stays
        assert t.decided_action == action("%action")
        assert t.ranking[0].score == MatchScore(Fraction(9, 10), Fraction(1))

    def test_brittle_patient(self, lexicon, store, tree):
        t = self.expect(
            lexicon, store, tree, {"e0": "john-1", "e1": "vase-1"}, "break", "da-sui"
        )
        assert t.lexeme == "da-sui"
        assert t.ranking[0].score == MatchScore(Fraction(9, 10), Fraction(1))

    def test_functional_patient_switches_source_sense(self, lexicon, store, tree):
        t = self.expect(
            lexicon,
            store,
            tree,
            {"e0": "john-1", "e1": "language-barrier-1"},
            "break",
            "da-po",
        )
        assert t.lexeme == "da-po"
        assert t.source_sense == "BREAK-2"
        assert t.ranking[0].score == MatchScore(Fraction(1), Fraction(1))

    def test_social_patient(self, lexicon, store, tree):
        t = self.expect(
            lexicon, store, tree, {"e1": "diplomatic-ties-1"}, "break", "jue-lie"
        )
        assert t.lexeme == "jue-lie"
        assert t.source_sense == "BREAK-3"
        assert t.ranking[0].score == MatchScore(Fraction(1), Fraction(1))

    def test_value_patient_through_two_neighborhoods(self, lexicon, store, tree):
        t = self.expect(
            lexicon, store, tree, {"e0": "bonds-1", "e1": "price-peak-1"}, "hit", "da-dao"
        )
        assert t.lexeme == "da-dao"
        assert t.ranking[0].score == MatchScore(Fraction(1, 3), Fraction(1))

    def test_without_tree_constraint_order_decides(self, lexicon, store):
        args = args_for(store, "break", e0="john-1", e1="stick-1")
        t = translate(lexicon, store, args, SelectionConfig(), tree=None)
        assert t.decided_action is None
        # without an action decision the tie on (9/10, 1) falls to sense_id
        assert t.lexeme == "duan-cheng"

    def test_custom_tree_promotes_equal_scores(self, lexicon, store):
        press = load_decision_tree('{"action": "%press-action"}', store, "entity")
        args = args_for(store, "shatter", e1="dish-1")
        t = translate(lexicon, store, args, SelectionConfig(), press)
        # da-sui and ya-sui tie exactly at (1, 1); the pressing tree flips them
        assert t.lexeme == "ya-sui"
        without = translate(lexicon, store, args, SelectionConfig(), tree=None)
        assert without.lexeme == "da-sui"
        assert without.ranking[0].score == t.ranking[0].score

    def test_marker_forces_the_pieces_verb(self, lexicon, store, tree):
        args = args_for(
            store, "break", markers=["into-pieces"], e0="john-1", e1="stick-1"
        )
        t = translate(lexicon, store, args, SelectionConfig(), tree)
        assert t.lexeme == "da-sui"
        assert t.decided_action == action("%hit-action")

    def test_ranking_is_exhaustive_and_ordered(self, lexicon, store, tree):
        args = args_for(store, "break", e1="branch-1")
        t = translate(lexicon, store, args, SelectionConfig(), tree)
        assert [r.sense_id for r in t.ranking] == [i for i, _, _ in BRANCH_ORDER]
