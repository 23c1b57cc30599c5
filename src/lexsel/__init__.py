"""Taxonomy-backed lexical selection with graded constraint matching."""

from .errors import (
    CorpusFormatError,
    CrossDomainError,
    DecisionTreeFormatError,
    LexiconFormatError,
    LexselError,
    MatcherError,
    TaxonomyFormatError,
    UnboundRoleError,
    UnknownConceptError,
    UnknownLexemeError,
    VocabularyGapError,
)
from .taxonomy import (
    ConceptId,
    ConceptNode,
    DomainTaxonomy,
    PathMetrics,
    TaxonomyStore,
    con_sim,
    least_common_superconcept,
    load_taxonomy,
    merge_stores,
    neighborhood,
)
from .lexicon import (
    ArgumentStructure,
    Binding,
    InterRep,
    Lexicon,
    ProjectionSlot,
    Role,
    SelectionConstraint,
    SlotStatus,
    VerbSense,
    build_inter_rep,
    load_lexicon,
    resolve_clause,
)
from .matcher import (
    ConstraintDegree,
    DomainContribution,
    DomainWeights,
    MatchScore,
    candidate_slots,
    constraint_degrees,
    constraint_satisfaction,
    inexact_match,
    word_sim_breakdown,
)
from .selector import (
    SelectionConfig,
    SelectionResult,
    Translation,
    decide_action,
    disambiguate,
    load_decision_tree,
    rank_candidates,
    rerank_by_action,
    translate,
)
from .corpus import (
    Corpus,
    CorpusRecord,
    EvalItem,
    EvalReport,
    evaluate_corpus,
    frequency_table,
    load_corpus,
    to_argument_structure,
)

__version__ = "0.1.0"
