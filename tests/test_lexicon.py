"""Lexicon loading, mention resolution, disambiguation, clause meanings."""

import gc
import json

import pytest

from conftest import args_for
from lexsel import (
    ArgumentStructure,
    ConceptId,
    LexiconFormatError,
    LexselError,
    Role,
    SlotStatus,
    UnboundRoleError,
    UnknownConceptError,
    UnknownLexemeError,
    build_inter_rep,
    disambiguate,
    load_lexicon,
    load_taxonomy,
    merge_stores,
    resolve_clause,
)
from lexsel.bundled import LEXICON_FILE, TAXONOMY_FILES, bundled_text, load_bundled_store


class TestBundledLexicon:
    def test_break_1_shape(self, lexicon):
        sense = lexicon.senses["BREAK-1"]
        assert sense.lexeme == "break"
        assert sense.language == "source"
        assert [(c.role.value, c.concept.name) for c in sense.constraints] == [
            ("E1", "physical-object"),
            ("E0", "animate-object"),
            ("E2", "instrument"),
        ]
        statuses = [(s.domain, s.status.value) for s in sense.projection.values()]
        assert statuses == [
            ("ch-of-state", "OBL"),
            ("causation", "OPT"),
            ("instrument", "OPT"),
            ("time", "IMP"),
            ("space", "IMP"),
            ("action", "IMP"),
            ("functionality", "IMP"),
        ]
        obl = [s.concept.name for s in sense.projection.values() if s.status is SlotStatus.OBL]
        assert obl == ["%change-of-integrity"]

    def test_bare_implicit_slots_have_no_concept(self, lexicon):
        sense = lexicon.senses["BREAK-1"]
        assert sense.projection.get("action").concept is None
        assert sense.projection.get("functionality").concept is None
        assert sense.projection.get("missing-domain") is None

    def test_realization_index(self, lexicon):
        duan = ConceptId("ch-of-state", "%separate-in-duan-state")
        got = list(lexicon.realization_ids(duan))
        assert got == ["da-duan", "duan-cheng", "duan-la", "gua-duan", "zhe-duan"]

    def test_unrealized_concept_has_no_entries(self, lexicon):
        integrity = ConceptId("ch-of-state", "%change-of-integrity")
        assert lexicon.realization_ids(integrity) == ()

    def test_source_senses_are_excluded_from_the_index(self, lexicon):
        # SNAP-1 projects onto the duan concept but is a source sense
        duan = ConceptId("ch-of-state", "%separate-in-duan-state")
        assert "SNAP-1" not in lexicon.realization_ids(duan)

    def test_index_holds_the_obl_concepts_of_the_target_senses(self, store, lexicon):
        raw = json.loads(bundled_text(LEXICON_FILE))["senses"]
        assert list(lexicon.senses) == [s["sense_id"] for s in raw]  # document order
        for name, dom in store.domains.items():
            for concept in dom.nodes:
                expected = sorted(
                    s["sense_id"]
                    for s in raw
                    if s["language"] == "target"
                    and any(
                        slot["status"] == "OBL"
                        and (slot["domain"], slot.get("concept")) == (name, concept)
                        for slot in s["projection"]
                    )
                )
                got = lexicon.realization_ids(ConceptId(name, concept))
                assert got == tuple(expected), (name, concept)

    def test_source_senses_keep_document_order(self, lexicon):
        raw = json.loads(bundled_text(LEXICON_FILE))["senses"]
        lexemes = {s["lexeme"] for s in raw}
        for lexeme in sorted(lexemes):
            expected = [
                s["sense_id"] for s in raw
                if s["lexeme"] == lexeme and s["language"] == "source"
            ]
            if expected:
                got = [s.sense_id for s in lexicon.source_senses(lexeme)]
                assert got == expected, lexeme
            else:  # a target lexeme is not a clause's verb
                with pytest.raises(UnknownLexemeError):
                    lexicon.source_senses(lexeme)

    def test_a_caller_cannot_empty_a_lexemes_senses(self, lexicon):
        senses = lexicon.source_senses("break")
        assert isinstance(senses, tuple) and senses
        with pytest.raises(AttributeError):
            senses.clear()
        assert lexicon.source_senses("break") == senses

    def test_unknown_lexeme(self, lexicon, store):
        with pytest.raises(UnknownLexemeError):
            disambiguate(lexicon, args_for(store, "explode", e1="vase-1"), store)


def resolve(store, token, domain="entity"):
    """The binding ``resolve_clause`` makes of one mention."""
    return resolve_clause(store, domain, "break", [(Role.E0, token)]).bindings[Role.E0]


class TestResolveMention:
    def test_strips_instance_suffix(self, store):
        binding = resolve(store, "branch-1")
        assert binding.mention == "branch-1"
        assert binding.concept == ConceptId("entity", "branch")

    def test_multi_digit_suffix(self, store):
        assert resolve(store, "vase-22").concept.name == "vase"

    def test_plain_concept_name(self, store):
        assert resolve(store, "john").concept.name == "john"

    def test_hyphenated_concept_with_suffix(self, store):
        got = resolve(store, "price-peak-1")
        assert got.concept.name == "price-peak"

    def test_whole_token_when_the_stripped_base_is_no_concept(self):
        store = load_taxonomy(json.dumps({"domains": [{"name": "road", "concepts": [
            {"id": "way", "parents": []}, {"id": "route-66", "parents": ["way"]},
        ]}]}))
        assert resolve(store, "route-66", "road").concept.name == "route-66"
        assert resolve(store, "route-66-2", "road").concept.name == "route-66"

    def test_unknown_mention(self, store):
        with pytest.raises(UnknownConceptError) as err:
            resolve(store, "unicorn-1")
        assert str(err.value) == "mention 'unicorn-1' does not name a concept in domain 'entity'"

    def test_non_numeric_suffix_is_not_stripped(self, store):
        with pytest.raises(UnknownConceptError) as err:
            resolve(store, "branch-1x")
        assert str(err.value) == "mention 'branch-1x' does not name a concept in domain 'entity'"

    def test_rejects_whitespace(self, store):
        with pytest.raises(LexiconFormatError) as err:
            resolve(store, "two words")
        assert str(err.value) == "bad entity mention 'two words'"


def test_each_mention_checks_whitespace_then_domain_then_concept(store):
    assert resolve_clause(store, "nowhere", "break", []).bindings == {}
    for mentions, error, message in [
        (["two words"], LexiconFormatError, "bad entity mention 'two words'"),
        (["vase-1", "two words"], UnknownConceptError, "unknown domain 'nowhere'"),
    ]:
        with pytest.raises(error) as err:
            resolve_clause(store, "nowhere", "break", list(zip(Role, mentions)))
        assert str(err.value) == message


class TestResolveClause:
    def test_builds_the_clause_of_its_mentions_and_markers(self, store):
        args = resolve_clause(
            store, "entity", "break", [(Role.E0, "john-1"), (Role.E1, "stick-1")],
            ["into-pieces"],
        )
        assert args == args_for(store, "break", ["into-pieces"], e0="john-1", e1="stick-1")
        assert resolve_clause(store, "entity", "break", []) == ArgumentStructure(
            "break", {}, frozenset()
        )

    @pytest.mark.parametrize("first", [Role.E0, Role.E1])
    def test_mentions_resolve_in_the_order_given(self, store, first):
        mentions = {Role.E0: "unicorn-1", Role.E1: "griffin-1"}
        second = Role.E1 if first is Role.E0 else Role.E0
        with pytest.raises(UnknownConceptError, match=repr(mentions[first])):
            resolve_clause(
                store, "entity", "break",
                [(first, mentions[first]), (second, mentions[second])],
            )


class TestDisambiguate:
    def test_physical_patient_selects_change_of_integrity(self, lexicon, store):
        sense = disambiguate(lexicon, args_for(store, "break", e1="vase-1"), store)
        assert sense.sense_id == "BREAK-1"

    def test_abstract_functional_patient(self, lexicon, store):
        args = args_for(store, "break", e0="john-1", e1="language-barrier-1")
        assert disambiguate(lexicon, args, store).sense_id == "BREAK-2"

    def test_social_relation_patient(self, lexicon, store):
        args = args_for(store, "break", e1="diplomatic-ties-1")
        assert disambiguate(lexicon, args, store).sense_id == "BREAK-3"

    def test_tie_keeps_document_order(self, store):
        sense = {
            "lexeme": "v",
            "language": "source",
            "gloss": "",
            "example": "",
            "constraints": [{"role": "E1", "concept": "physical-object"}],
            "projection": [
                {
                    "domain": "ch-of-state",
                    "status": "OBL",
                    "concept": "%change-of-integrity",
                    "args": ["E1"],
                }
            ],
        }
        doc = {
            "nominal_domain": "entity",
            "senses": [dict(sense, sense_id="V-1"), dict(sense, sense_id="V-2")],
        }
        lex = load_lexicon(json.dumps(doc), store)
        args = args_for(store, "v", e1="vase-1")
        assert disambiguate(lex, args, store).sense_id == "V-1"


class TestBuildInterRep:
    def test_patient_only_keeps_core_slot(self, lexicon, store):
        args = args_for(store, "break", e1="branch-1")
        rep = build_inter_rep(lexicon.senses["BREAK-1"], args)
        assert [s.render() for s in rep.slots.values()] == [
            "ch-of-state (%change-of-integrity branch-1)"
        ]
        assert rep.obl_concepts() == (ConceptId("ch-of-state", "%change-of-integrity"),)

    def test_agent_surfaces_the_cause_slot(self, lexicon, store):
        args = args_for(store, "break", e0="john-1", e1="vase-1")
        rep = build_inter_rep(lexicon.senses["BREAK-1"], args)
        assert [s.render() for s in rep.slots.values()] == [
            "ch-of-state (%change-of-integrity vase-1)",
            "causation (%cause john-1 *)",
        ]

    def test_instrument_surfaces_its_slot(self, lexicon, store):
        args = args_for(store, "break", e0="john-1", e1="stick-1", e2="hammer-1")
        rep = build_inter_rep(lexicon.senses["BREAK-1"], args)
        assert [s.render() for s in rep.slots.values()] == [
            "ch-of-state (%change-of-integrity stick-1)",
            "causation (%cause john-1 *)",
            "instrument (%with-instrument john-1 hammer-1)",
        ]
        assert tuple(rep.slots) == ("ch-of-state", "causation", "instrument")

    def test_placeholder_slots_never_surface(self, lexicon, store):
        # time and space slots hold @t0/@l0 variables; no binding fills them
        args = args_for(store, "break", e0="john-1", e1="vase-1", e2="hammer-1")
        rep = build_inter_rep(lexicon.senses["BREAK-1"], args)
        assert "time" not in rep.slots
        assert "space" not in rep.slots

    def test_unbound_obligatory_role_is_an_error(self, lexicon, store):
        args = args_for(store, "break", e0="john-1")
        with pytest.raises(UnboundRoleError):
            build_inter_rep(lexicon.senses["BREAK-1"], args)

    def test_target_sense_rejected(self, lexicon, store):
        args = args_for(store, "break", e1="branch-1")
        with pytest.raises(LexiconFormatError):
            build_inter_rep(lexicon.senses["duan-la"], args)

    def test_sentence_id_is_carried(self, lexicon, store):
        args = args_for(store, "break", e1="branch-1")
        rep = build_inter_rep(lexicon.senses["BREAK-1"], args, sentence_id="s99")
        assert rep.sentence_id == "s99"


def sense_doc(**overrides) -> dict:
    base = {
        "sense_id": "T-1",
        "lexeme": "t",
        "language": "target",
        "gloss": "",
        "example": "",
        "constraints": [],
        "projection": [
            {
                "domain": "ch-of-state",
                "status": "OBL",
                "concept": "%separate-in-duan-state",
                "args": ["E1"],
            }
        ],
    }
    base.update(overrides)
    return base


class TestLoaderValidation:
    def load_one(self, store, **overrides):
        doc = {"nominal_domain": "entity", "senses": [sense_doc(**overrides)]}
        return load_lexicon(json.dumps(doc), store)

    def test_valid_minimal_sense(self, store):
        lex = self.load_one(store)
        assert lex.senses["T-1"].projection["ch-of-state"].status is SlotStatus.OBL

    def test_rejects_unknown_nominal_domain(self, store):
        doc = {"nominal_domain": "nowhere", "senses": []}
        with pytest.raises(LexiconFormatError, match="nominal_domain"):
            load_lexicon(json.dumps(doc), store)

    def test_rejects_duplicate_sense_id(self, store):
        doc = {"nominal_domain": "entity", "senses": [sense_doc(), sense_doc()]}
        with pytest.raises(LexiconFormatError, match="duplicate sense_id"):
            load_lexicon(json.dumps(doc), store)

    def test_rejects_bad_language(self, store):
        with pytest.raises(LexiconFormatError, match="language"):
            self.load_one(store, language="pivot")

    def test_rejects_missing_obl_slot(self, store):
        projection = [
            {"domain": "causation", "status": "OPT", "concept": "%cause", "args": ["E0"]}
        ]
        with pytest.raises(LexiconFormatError, match="OBL"):
            self.load_one(store, projection=projection)

    def test_rejects_two_slots_in_one_domain(self, store):
        projection = [
            sense_doc()["projection"][0],
            {
                "domain": "ch-of-state",
                "status": "OPT",
                "concept": "%separate-in-po-state",
                "args": ["E1"],
            },
        ]
        with pytest.raises(LexiconFormatError, match="more than one slot"):
            self.load_one(store, projection=projection)

    def test_rejects_optional_slot_without_concept(self, store):
        projection = [
            sense_doc()["projection"][0],
            {"domain": "causation", "status": "OPT", "args": ["E0"]},
        ]
        with pytest.raises(LexiconFormatError, match="must name a concept"):
            self.load_one(store, projection=projection)

    def test_rejects_unknown_slot_concept(self, store):
        projection = [
            {"domain": "ch-of-state", "status": "OBL", "concept": "%nope", "args": ["E1"]}
        ]
        with pytest.raises(LexiconFormatError, match="no concept"):
            self.load_one(store, projection=projection)

    def test_rejects_bad_argument_token(self, store):
        for token in ("E9", {"role": "E1"}):  # an object token is unhashable
            projection = [dict(sense_doc()["projection"][0], args=[token])]
            with pytest.raises(LexiconFormatError, match="sense 'T-1': bad argument token"):
                self.load_one(store, projection=projection)

    def test_rejects_deeply_nested_document(self, store):
        with pytest.raises(LexiconFormatError, match="lexicon document is not valid JSON"):
            load_lexicon("[" * 5000 + "]" * 5000, store)

    def test_rejects_unknown_constraint_concept(self, store):
        constraints = [{"role": "E1", "concept": "unicorn"}]
        with pytest.raises(LexiconFormatError, match="unknown nominal concept"):
            self.load_one(store, constraints=constraints)

    def test_rejects_non_list_constraints(self, store):
        with pytest.raises(LexiconFormatError, match="sense 'T-1': constraints must be a list"):
            self.load_one(store, constraints=1.5)

    def test_rejects_bad_constraint_role(self, store):
        constraints = [{"role": "E7", "concept": "vase"}]
        with pytest.raises(LexiconFormatError, match="bad constraint role"):
            self.load_one(store, constraints=constraints)


class TestLoaderSideEffects:
    def test_lexicon_load_fills_every_reachable_concepts_ancestor_map(self):
        store = merge_stores(load_taxonomy(bundled_text(name)) for name in TAXONOMY_FILES)
        assert all(len(dom._up) == 0 for dom in store.domains.values())
        lexicon = load_lexicon(bundled_text(LEXICON_FILE), store)
        nominal = store.domains[lexicon.nominal_domain]
        assert set(nominal._up) == set(nominal.nodes)  # mentions and constraints
        slots = {
            slot.concept
            for s in lexicon.senses.values()
            for slot in s.projection.values()
            if slot.concept is not None
        }
        assert slots
        for concept in slots:
            assert concept.name in store.domains[concept.domain]._up, concept  # no lookup

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("valid", [True, False])
    def test_loaders_leave_the_collector_as_they_found_it(self, enabled, valid):
        taxonomy_text = bundled_text(TAXONOMY_FILES[0]) if valid else '{"domains": [7]}'
        lexicon_text = bundled_text(LEXICON_FILE) if valid else '{"senses": []}'
        store = load_bundled_store()
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            for load in (lambda: load_taxonomy(taxonomy_text),
                         lambda: load_lexicon(lexicon_text, store)):
                if valid:
                    load()
                else:
                    with pytest.raises(LexselError):
                        load()
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
