"""Target-verb selection: exact realizations, neighborhood coercion, ranking.

The pipeline disambiguates the source lexeme, instantiates the clause
meaning, gathers target senses realized at the meaning's OBL concepts
(falling back to taxonomy neighbors above a similarity floor when a
concept has no realization at all), scores every candidate, and ranks by
match score, neighborhood similarity, then sense id.

``translate`` additionally consults a data-driven decision tree that
names the action implied by the patient and context (hit, bend, ...).
Parsed, the tree is plain data: a ``TreeBranch`` holds its own test and
two subtrees, and a leaf is the action ``ConceptId`` itself.  The rerank
is a stable sort within concept-score ties: senses whose implicit action
component equals the decided action move ahead of the others with the
same concept score, and every other order is kept.  A tree leaf naming
the action-domain root means "no particular action implied" and promotes
nothing.
"""

from __future__ import annotations

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
    _FRESH,
    ConstraintDegree,
    DomainContribution,
    DomainWeights,
    MatchScore,
    constraint_degrees,
    constraint_satisfaction,
    inexact_match,
)
from .taxonomy import ConceptId, TaxonomyStore, _check_limits, neighborhood

_EXACT = Fraction(1)  # the neighborhood similarity of an exact realization


class SelectionConfig(
    NamedTuple(
        "SelectionConfig",
        [("floor", Fraction), ("max_candidates", int), ("weights", DomainWeights)],
    )
):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` goes through ``__new__``

    def __new__(
        cls, floor: Fraction = Fraction(1, 2), max_candidates: int = 10, weights=_FRESH
    ) -> "SelectionConfig":
        weights = DomainWeights() if weights is _FRESH else weights
        _check_limits(floor, max_candidates, "max_candidates")
        if not isinstance(weights, DomainWeights):
            raise LexselError(f"weights must be a DomainWeights, got {weights!r}")
        return super().__new__(cls, floor, max_candidates, weights)


class SelectionResult(NamedTuple):
    """One ranked candidate: its score, how it was reached, and the parts of the score."""

    sense_id: str
    score: MatchScore
    via_concept: ConceptId
    neighborhood_sim: Fraction
    domains: tuple[DomainContribution, ...]  # what each domain adds to the concept score
    constraints: tuple[ConstraintDegree, ...]  # the degrees the constraint score averages


class TreeBranch(NamedTuple):
    """One tree test and the two subtrees it picks between; a leaf is an action ``ConceptId``."""

    kind: str  # "is-a" | "has-marker" | "role-bound"
    value: Union[str, ConceptId]  # a nominal ConceptId for "is-a", a Role for "role-bound"
    then: "TreeNode"
    otherwise: "TreeNode"


TreeNode = Union[TreeBranch, ConceptId]
ACTION_DOMAIN = "action"  # the domain whose concepts tree leaves name


def _parse_tree_node(
    raw: object, store: TaxonomyStore, nominal_domain: str, path: str
) -> TreeNode:
    if not isinstance(raw, dict):
        raise DecisionTreeFormatError(f"{path}: node must be an object")
    branch = raw.keys() & {"test", "then", "else"}
    if "action" in raw and not branch:
        name = raw["action"]
        if not isinstance(name, str):
            raise DecisionTreeFormatError(f"{path}: leaf action must be a string")
        if name not in store.domains[ACTION_DOMAIN].nodes:
            raise DecisionTreeFormatError(
                f"{path}: leaf names unknown action concept {name!r}"
            )
        return ConceptId(ACTION_DOMAIN, name)
    if "action" in raw or len(branch) < 3:
        raise DecisionTreeFormatError(
            f"{path}: node needs either an action or test/then/else"
        )
    test_raw = raw["test"]
    if not isinstance(test_raw, dict):
        raise DecisionTreeFormatError(f"{path}: test must be an object")
    kind = test_raw.get("kind")
    if kind == "is-a":
        name = test_raw.get("concept")
        if not isinstance(name, str) or name not in store.domains[nominal_domain].nodes:
            raise DecisionTreeFormatError(
                f"{path}: is-a test names unknown nominal concept {name!r}"
            )
        value = ConceptId(nominal_domain, name)
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
    then = _parse_tree_node(raw["then"], store, nominal_domain, path + "/then")
    otherwise = _parse_tree_node(raw["else"], store, nominal_domain, path + "/else")
    return TreeBranch(kind, value, then, otherwise)


def load_decision_tree(text: str, store: TaxonomyStore, nominal_domain: str) -> TreeNode:
    """Parse a decision-tree document into its root; every path must end in a leaf."""
    doc = parse_json(text, DecisionTreeFormatError, "tree document")
    if ACTION_DOMAIN not in store.domains:
        raise DecisionTreeFormatError(f"unknown action domain {ACTION_DOMAIN!r}")
    if nominal_domain not in store.domains:
        raise DecisionTreeFormatError(f"nominal_domain {nominal_domain!r} is not a loaded domain")
    return _parse_tree_node(doc, store, nominal_domain, "root")


def decide_action(
    tree: TreeNode, object_concept: ConceptId, args: ArgumentStructure, store: TaxonomyStore
) -> ConceptId:
    """Walk the tree for the given patient concept and context to its leaf."""
    node = tree
    while isinstance(node, TreeBranch):
        if node.kind == "is-a":
            passed = store.is_a(object_concept, node.value)
        elif node.kind == "has-marker":
            passed = node.value in args.context_markers
        else:  # role-bound
            passed = node.value in args.bindings
        node = node.then if passed else node.otherwise
    return node


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
    items = sorted(found.items())  # sense ids are unique
    senses = [lexicon.senses[sense_id] for sense_id, _ in items]
    results = [
        SelectionResult(sense_id, score, via, sim, domains, degrees)
        for (sense_id, (via, sim)), (score, domains, degrees) in zip(
            items, inexact_match(inter_rep, senses, args, config.weights, store)
        )
    ]
    # scores descending, ties by sense id: a reversed sort keeps equal keys in input order
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
    if not isinstance(config, SelectionConfig):
        raise LexselError(f"config must be a SelectionConfig, got {config!r}")
    if tree is not None and not isinstance(tree, (TreeBranch, ConceptId)):
        raise LexselError(f"tree must be a TreeBranch, a ConceptId or None, got {tree!r}")
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
