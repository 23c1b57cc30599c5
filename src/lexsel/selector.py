"""Target-verb selection: exact realizations, neighborhood coercion, ranking.

The pipeline disambiguates the source lexeme, instantiates the clause
meaning, gathers target senses realized at the meaning's OBL concepts
(falling back to taxonomy neighbors above a similarity floor when a
concept has no realization at all), scores every candidate, and ranks by
match score, neighborhood similarity, then sense id.

``translate`` additionally consults a data-driven decision tree that
names the action implied by the patient and context (hit, bend, ...).
The rerank is a stable sort within concept-score ties: senses whose
implicit action component equals the decided action move ahead of the
others with the same concept score, and every other order is kept.  A
tree leaf naming the action-domain root means "no particular action
implied" and promotes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .errors import DecisionTreeFormatError, LexselError, VocabularyGapError, parse_json
from .lexicon import (
    _ROLES,
    ArgumentStructure,
    InterRep,
    Lexicon,
    Role,
    VerbSense,
    build_inter_rep,
)
from .matcher import (
    DomainWeights,
    MatchScore,
    constraint_degrees,
    constraint_satisfaction,
    inexact_match,
)
from .taxonomy import ConceptId, TaxonomyStore, neighborhood

_EXACT = Fraction(1)  # the neighborhood similarity of an exact realization


@dataclass(frozen=True)
class SelectionConfig:
    floor: Fraction = Fraction(1, 2)
    max_candidates: int = 10
    weights: DomainWeights = field(default_factory=DomainWeights)

    def __post_init__(self) -> None:
        # only an exact floor compares to exact similarities as written
        if isinstance(self.floor, bool) or not isinstance(self.floor, (int, Fraction)):
            raise LexselError(f"floor must be an int or a Fraction, got {self.floor!r}")
        if not 0 <= self.floor <= 1:
            raise LexselError(f"floor must be within [0, 1], got {self.floor}")
        if isinstance(self.max_candidates, bool) or not isinstance(self.max_candidates, int):
            raise LexselError(f"max_candidates must be an int, got {self.max_candidates!r}")
        if self.max_candidates < 1:
            raise LexselError(f"max_candidates must be >= 1, got {self.max_candidates}")
        if not isinstance(self.weights, DomainWeights):
            raise LexselError(f"weights must be a DomainWeights, got {self.weights!r}")


class SelectionResult(NamedTuple):
    sense_id: str
    score: MatchScore
    via_concept: ConceptId
    neighborhood_sim: Fraction


class TreeTest(NamedTuple):
    kind: str  # "is-a" | "has-marker" | "role-bound"
    value: Union[str, ConceptId]  # a nominal ConceptId for "is-a", a Role for "role-bound"

    def evaluate(
        self, object_concept: ConceptId, args: ArgumentStructure, store: TaxonomyStore
    ) -> bool:
        if self.kind == "is-a":
            return store.is_a(object_concept, self.value)
        if self.kind == "has-marker":
            return self.value in args.context_markers
        return self.value in args.bindings  # role-bound


class TreeBranch(NamedTuple):
    test: TreeTest
    then: "TreeNode"
    otherwise: "TreeNode"


class TreeLeaf(NamedTuple):
    action: ConceptId


TreeNode = Union[TreeBranch, TreeLeaf]
ACTION_DOMAIN = "action"  # the domain whose concepts tree leaves name


def _parse_tree_node(
    raw: object, store: TaxonomyStore, nominal_domain: str, path: str
) -> TreeNode:
    if not isinstance(raw, dict):
        raise DecisionTreeFormatError(f"{path}: node must be an object")
    if "action" in raw:
        name = raw["action"]
        if not isinstance(name, str):
            raise DecisionTreeFormatError(f"{path}: leaf action must be a string")
        concept = ConceptId(ACTION_DOMAIN, name)
        if not store.has_concept(concept):
            raise DecisionTreeFormatError(
                f"{path}: leaf names unknown action concept {name!r}"
            )
        return TreeLeaf(action=concept)
    if "test" not in raw or "then" not in raw or "else" not in raw:
        raise DecisionTreeFormatError(
            f"{path}: node needs either an action or test/then/else"
        )
    test_raw = raw["test"]
    if not isinstance(test_raw, dict):
        raise DecisionTreeFormatError(f"{path}: test must be an object")
    kind = test_raw.get("kind")
    if kind == "is-a":
        name = test_raw.get("concept")
        value = ConceptId(nominal_domain, name)
        if not isinstance(name, str) or not store.has_concept(value):
            raise DecisionTreeFormatError(
                f"{path}: is-a test names unknown nominal concept {name!r}"
            )
    elif kind == "has-marker":
        value = test_raw.get("marker")
        if not isinstance(value, str) or not value:
            raise DecisionTreeFormatError(f"{path}: has-marker test needs a marker string")
    elif kind == "role-bound":
        role = test_raw.get("role")
        if not isinstance(role, str) or role not in _ROLES:
            raise DecisionTreeFormatError(f"{path}: role-bound test has bad role {role!r}")
        value = _ROLES[role]
    else:
        raise DecisionTreeFormatError(f"{path}: unknown test kind {kind!r}")
    return TreeBranch(
        test=TreeTest(kind=kind, value=value),
        then=_parse_tree_node(raw["then"], store, nominal_domain, path + "/then"),
        otherwise=_parse_tree_node(raw["else"], store, nominal_domain, path + "/else"),
    )


def load_decision_tree(text: str, store: TaxonomyStore, nominal_domain: str) -> TreeNode:
    """Parse a decision-tree document into its root; every path must end in a leaf."""
    doc = parse_json(text, DecisionTreeFormatError, "tree document")
    if ACTION_DOMAIN not in store.domains:
        raise DecisionTreeFormatError(f"unknown action domain {ACTION_DOMAIN!r}")
    return _parse_tree_node(doc, store, nominal_domain, "root")


def decide_action(
    tree: TreeNode, object_concept: ConceptId, args: ArgumentStructure, store: TaxonomyStore
) -> ConceptId:
    """Walk the tree for the given patient concept and context."""
    node = tree
    while isinstance(node, TreeBranch):
        node = node.then if node.test.evaluate(object_concept, args, store) else node.otherwise
    return node.action


def _gather_candidates(
    lexicon: Lexicon, store: TaxonomyStore, inter_rep: InterRep, config: SelectionConfig
) -> dict[str, tuple[ConceptId, Fraction]]:
    """Map sense_id -> (via_concept, similarity) over all OBL concepts.

    Concepts with an exact realization contribute at similarity 1; only a
    concept with no realization is widened to its taxonomy neighborhood,
    keeping neighbors that have realizations.  A sense reachable several
    ways keeps its best similarity (ties: smallest via-concept name).
    """
    found: dict[str, tuple[ConceptId, Fraction]] = {}

    def offer(sense_id: str, via: ConceptId, sim: Fraction) -> None:
        old = found.get(sense_id)
        if old is None or sim > old[1] or (sim == old[1] and via.name < old[0].name):
            found[sense_id] = (via, sim)

    for concept in inter_rep.obl_concepts():
        exact = lexicon.realization_ids(concept)
        if exact:
            for sense_id in exact:
                offer(sense_id, concept, _EXACT)
            continue
        for neighbor, sim in neighborhood(store, concept, config.max_candidates, config.floor):
            for sense_id in lexicon.realization_ids(neighbor):
                offer(sense_id, neighbor, sim)
    return found


def disambiguate(
    lexicon: Lexicon, args: ArgumentStructure, store: TaxonomyStore
) -> VerbSense:
    """Pick the source sense whose constraints fit the arguments best.

    Degrees are exact rationals; ties keep the sense that appears first in
    the lexicon document.
    """
    return max(
        lexicon.source_senses(args.source_lexeme),
        key=lambda sense: constraint_satisfaction(constraint_degrees(sense, args, store)),
    )


def rank_candidates(
    lexicon: Lexicon,
    store: TaxonomyStore,
    inter_rep: InterRep,
    args: ArgumentStructure,
    config: SelectionConfig,
) -> list[SelectionResult]:
    found = _gather_candidates(lexicon, store, inter_rep, config)
    if not found:
        concepts = ", ".join(str(c) for c in inter_rep.obl_concepts())
        raise VocabularyGapError(
            f"no target realization within floor {config.floor} of: {concepts}"
        )
    results = []
    for sense_id, (via, sim) in found.items():
        score = inexact_match(inter_rep, lexicon.senses[sense_id], args, config.weights, store)
        results.append(
            SelectionResult(
                sense_id=sense_id, score=score, via_concept=via, neighborhood_sim=sim
            )
        )
    # scores descending, ties by sense id: a reversed sort keeps equal keys
    # in their input order, so sorting by id first settles the ties
    results.sort(key=lambda r: r.sense_id)
    results.sort(
        key=lambda r: (r.score.concept_score, r.score.constraint_score, r.neighborhood_sim),
        reverse=True,
    )
    return results


def rerank_by_action(
    ranking: list[SelectionResult], action: ConceptId, lexicon: Lexicon
) -> list[SelectionResult]:
    """Within ties on concept score, move action-matching senses first.

    ``ranking`` is sorted by concept score, so one stable sort keeps every
    concept band in place, and the match-score order among the promoted
    senses and again among the rest.
    """

    def key(r: SelectionResult) -> tuple[Fraction, bool]:
        slot = lexicon.senses[r.sense_id].projection.get(ACTION_DOMAIN)
        return r.score.concept_score, slot is not None and slot.concept == action

    # descending; a reversed sort keeps equal keys in their input order
    return sorted(ranking, key=key, reverse=True)


class Translation(NamedTuple):
    """Top pick plus everything needed to explain it; ``ranking[0]`` is the pick."""

    lexeme: str
    gloss: str
    source_sense: str
    inter_rep: InterRep
    decided_action: Optional[ConceptId]
    ranking: tuple[SelectionResult, ...]


def translate(
    lexicon: Lexicon,
    store: TaxonomyStore,
    args: ArgumentStructure,
    config: SelectionConfig = SelectionConfig(),
    tree: Optional[TreeNode] = None,
    sentence_id: str = "sentence-1",
) -> Translation:
    """Full pipeline for one clause; the top result is the translation."""
    sense = disambiguate(lexicon, args, store)
    inter_rep = build_inter_rep(sense, args, sentence_id)
    ranking = rank_candidates(lexicon, store, inter_rep, args, config)
    action: Optional[ConceptId] = None
    patient = args.bindings.get(Role.E1)
    if tree is not None and patient is not None:
        action = decide_action(tree, patient.concept, args, store)
        # the action-domain root stands for "no particular action implied"
        if action.name != store.domain(ACTION_DOMAIN).root:
            ranking = rerank_by_action(ranking, action, lexicon)
    chosen = lexicon.senses[ranking[0].sense_id]
    return Translation(
        lexeme=chosen.lexeme,
        gloss=chosen.gloss,
        source_sense=sense.sense_id,
        inter_rep=inter_rep,
        decided_action=action,
        ranking=tuple(ranking),
    )
