"""Whole translations against the reference pipeline in ``pipeline_oracle.py``.

The frozen digests prove only that a ranking did not change; these tests
prove each ranking right.  Every comparison covers the source sense, the
decided action and every ranked candidate's sense id, exact scores, via
concept and neighbourhood similarity; a vocabulary gap or a
``MatcherError`` must happen on both sides.  One store serves a whole
grid, so a memo that answers for the wrong configuration shows up.
"""

import json
import random
from fractions import Fraction

import pytest

from lexsel import (
    MatcherError,
    Role,
    SelectionConfig,
    VocabularyGapError,
    decide_action,
    load_corpus,
    load_decision_tree,
    load_lexicon,
    load_taxonomy,
    resolve_clause,
    to_argument_structure,
    translate,
)
from lexsel.bundled import TREE_FILE, bundled_text
from lexsel.matcher import DomainWeights
from conftest import bundled_clauses, load_lexbench
from dag_oracle import as_taxonomy_doc, random_rooted_dag
from pipeline_oracle import GAP, PipelineOracle, engine_outcome

FLOORS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(4, 5), Fraction(1))
SIZES = (1, 3, 10)
MATCHER_ERROR = "matcher error"
WEIGHT_DOCUMENTS = (
    '{"ch-of-state": 2, "causation": 0.25, "default": 1}',
    # a union of unlisted domains only, as a social-state clause has, weighs zero
    '{"default": 0, "ch-of-state": 1, "functionality": 3, "motion": 1.5, "causation": 0.5}',
    '{"default": 0}',
)


def engine(lexicon, store, args, config, tree):
    try:
        return engine_outcome(translate(lexicon, store, args, config, tree))
    except VocabularyGapError:
        return GAP
    except MatcherError:
        return MATCHER_ERROR


def oracle(reference, args, config, weights_text="{}", use_tree=True):
    try:
        return reference.translate(
            args, config.floor, config.max_candidates, weights_text, use_tree
        )
    except MatcherError:
        return MATCHER_ERROR


@pytest.fixture(scope="module")
def bundled(store, lexicon, tree):
    clauses = bundled_clauses(store, lexicon)
    reference = PipelineOracle(store, lexicon, json.loads(bundled_text(TREE_FILE)))
    return store, lexicon, tree, clauses, reference


def test_bundled_grid_matches_the_oracle(bundled):
    """162 clauses x floors x sizes x tree on/off: 4860 translations."""
    store, lexicon, tree, clauses, reference = bundled
    assert len(clauses) == 162
    wrong, seen = [], []
    for floor in FLOORS:
        for size in SIZES:
            config = SelectionConfig(floor, size)
            for use_tree in (True, False):
                for i, args in enumerate(clauses):
                    got = engine(lexicon, store, args, config, tree if use_tree else None)
                    want = oracle(reference, args, config, use_tree=use_tree)
                    seen.append(want)
                    if got != want:
                        wrong.append((i, floor, size, use_tree, got, want))
    assert not wrong, f"{len(wrong)} mismatches, first: {wrong[0]}"
    # the grid reaches gaps, widened concepts and more than one decided action
    found = [outcome for outcome in seen if outcome != GAP]
    assert len(found) < len(seen)
    assert any(r.similarity < 1 for outcome in found for r in outcome.ranking)
    assert len({outcome.decided_action for outcome in found}) == 4  # 3 actions and None


@pytest.mark.parametrize("weights_text", WEIGHT_DOCUMENTS)
def test_weight_documents_match_the_oracle(bundled, weights_text):
    store, lexicon, tree, clauses, reference = bundled
    config = SelectionConfig(weights=DomainWeights.from_json(weights_text))
    outcomes = []
    for args in clauses:
        want = oracle(reference, args, config, weights_text)
        assert engine(lexicon, store, args, config, tree) == want
        outcomes.append(want)
    if weights_text == '{"default": 0}':
        assert set(outcomes) == {MATCHER_ERROR}
    else:
        assert outcomes.count(MATCHER_ERROR) < len(outcomes)


def test_decided_action_for_every_bundled_clause(bundled):
    store, lexicon, tree, clauses, reference = bundled
    decided = []
    for args in clauses:
        patient = args.bindings[Role.E1].concept  # every bundled clause binds a patient
        decided.append(decide_action(tree, patient, args, store))
        assert decided[-1] == reference.decide(patient, args)
    assert len(set(decided)) == 3


@pytest.mark.parametrize("seed", range(2))
def test_generated_store_matches_the_oracle(seed):
    """A small store shaped like the ``wordnet-80k`` benchmark's, every clause."""
    docs = load_lexbench("gen").generate(
        seed, state_concepts=400, noun_concepts=400, source_lexemes=6, noise_realized=10,
        clauses=24,
    )
    store = load_taxonomy(docs.taxonomy)
    lexicon = load_lexicon(docs.lexicon, store)
    tree = load_decision_tree(docs.tree, store, lexicon.nominal_domain)
    clauses = [
        to_argument_structure(record, store, lexicon.nominal_domain)
        for record in load_corpus(docs.corpus).records
    ]
    reference = PipelineOracle(store, lexicon, json.loads(docs.tree))
    wrong = []
    for floor in FLOORS:
        for size in SIZES:
            config = SelectionConfig(floor, size)
            for i, args in enumerate(clauses):
                got = engine(lexicon, store, args, config, tree)
                want = oracle(reference, args, config)
                if got != want:
                    wrong.append((i, floor, size, got, want))
    assert not wrong, f"{len(wrong)} mismatches, first: {wrong[0]}"


def random_dag_documents(seed: int) -> tuple[str, str, list[str]]:
    """Taxonomy and lexicon text over one random DAG, and one patient per concept.

    A third of the DAG's nodes have two parents, so shared ancestors often
    tie on depth, and the LCS tie rule decides similarities and constraint
    degrees.  The DAG is also the nominal domain; every third concept is
    realized, and the source verb's three senses land on unrealized ones.
    """
    rng = random.Random(seed)
    parents = random_rooted_dag(rng, max_nodes=40, max_diamonds=12)
    names = list(parents)
    realized = names[1::3]
    unrealized = [name for name in names if name not in realized]

    def sense(sense_id: str, language: str, concept: str) -> dict:
        return {
            "sense_id": sense_id, "lexeme": "v" if language == "source" else sense_id,
            "language": language, "gloss": concept,
            "constraints": [{"role": "E1", "concept": rng.choice(names)}],
            "projection": [{"domain": "dag", "status": "OBL", "concept": concept,
                            "args": ["E1"]}],
        }

    senses = [sense(f"S{i}", "source", c) for i, c in enumerate(rng.sample(unrealized, 3))]
    senses += [sense(f"T{i}", "target", c) for i, c in enumerate(realized)]
    lexicon = {"nominal_domain": "dag", "senses": senses}
    return json.dumps(as_taxonomy_doc(parents, "dag")), json.dumps(lexicon), names


@pytest.mark.parametrize("seed", range(6))
def test_random_dag_store_matches_the_oracle(seed):
    taxonomy_text, lexicon_text, patients = random_dag_documents(seed)
    store = load_taxonomy(taxonomy_text)
    lexicon = load_lexicon(lexicon_text, store)
    reference = PipelineOracle(store, lexicon)
    clauses = [resolve_clause(store, "dag", "v", [(Role.E1, name)]) for name in patients]
    wrong = []
    for floor in FLOORS:
        for size in SIZES:
            config = SelectionConfig(floor, size)
            for args in clauses:
                got = engine(lexicon, store, args, config, None)
                want = oracle(reference, args, config)
                if got != want:
                    wrong.append((args.bindings[Role.E1].mention, floor, size, got, want))
    assert not wrong, f"{len(wrong)} mismatches, first: {wrong[0]}"
