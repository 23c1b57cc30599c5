"""Reference pipeline: a clause's whole ranking from the paper's definitions.

``tests/dag_oracle.py`` checks the similarity engine against brute force;
this module does the same for everything after it.  ``PipelineOracle``
computes what ``translate`` should return -- source sense, decided action
and every ranked candidate with its exact scores, via concept and
neighbourhood similarity -- in the plainest way:

* similarity and subsumption come from ``oracle_up_distances`` and
  ``oracle_depth``, which enumerate every upward path;
* disambiguation takes the mean constraint degree (1 on an is-a, else the
  similarity, 0 for an unbound role), the first sense winning ties;
* gathering takes each OBL concept's exact realizations, or else scans the
  whole domain and keeps the ``max_size`` most similar concepts at or above
  ``floor`` (ties by name); a sense keeps its best similarity, then its
  smallest via name;
* a concept score is a plain ``Fraction`` sum of weight times similarity
  over the union of the two domain sets, divided by the total weight;
* the decision tree is walked on the raw JSON document;
* one sort ranks by concept score, then (when the tree decided an action
  other than the action root) action match, then constraint score,
  neighbourhood similarity and sense id.

It reads the loaders' output (each domain's parent map, the lexicon's
senses) and uses ``build_inter_rep``, but calls no function of
``lexsel.taxonomy``, ``lexsel.matcher`` or ``lexsel.selector``.  Results
are memoised per oracle, which is built once per store.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple, Optional

from dag_oracle import oracle_depth, oracle_up_distances
from lexsel.errors import MatcherError
from lexsel.lexicon import ArgumentStructure, Role, SlotStatus, VerbSense, build_inter_rep
from lexsel.taxonomy import ConceptId

ACTION = "action"
GAP = "gap"  # a clause with no realization within the floor


class Ranked(NamedTuple):
    sense_id: str
    concept_score: Fraction
    constraint_score: Fraction
    via: ConceptId
    similarity: Fraction


class Outcome(NamedTuple):
    source_sense: str
    decided_action: Optional[ConceptId]
    ranking: tuple[Ranked, ...]


def engine_outcome(translation) -> Outcome:
    """The parts of a ``Translation`` the oracle computes, in its own shape."""
    return Outcome(
        translation.source_sense,
        translation.decided_action,
        tuple(
            Ranked(r.sense_id, r.score.concept_score, r.score.constraint_score,
                   r.via_concept, r.neighborhood_sim)
            for r in translation.ranking
        ),
    )


def read_weights(text: str) -> tuple[dict[str, Fraction], Fraction]:
    """A weights document as ``({domain: weight}, default)``, read exactly."""
    doc = json.loads(text, parse_float=Decimal)
    default = Fraction(str(doc.pop("default", 1)))
    return {name: Fraction(str(value)) for name, value in doc.items()}, default


class PipelineOracle:
    def __init__(self, store, lexicon, tree_doc: Optional[dict] = None):
        self.parents = {name: dom.nodes for name, dom in store.domains.items()}
        self.lexicon = lexicon
        self.tree_doc = tree_doc
        self._ups: dict[ConceptId, dict[str, int]] = {}
        self._depths: dict[ConceptId, int] = {}
        self._sims: dict[tuple[ConceptId, ConceptId], Fraction] = {}
        self._scans: dict[ConceptId, list[tuple[Fraction, str]]] = {}
        self._realized: dict[ConceptId, list[str]] = {}

    # -- taxonomy, by brute force -------------------------------------------

    def up(self, concept: ConceptId) -> dict[str, int]:
        if concept not in self._ups:
            self._ups[concept] = oracle_up_distances(self.parents[concept.domain], concept.name)
        return self._ups[concept]

    def depth(self, concept: ConceptId) -> int:
        if concept not in self._depths:
            self._depths[concept] = oracle_depth(self.parents[concept.domain], concept.name)
        return self._depths[concept]

    def similarity(self, a: ConceptId, b: ConceptId) -> Fraction:
        """``2 * n3 / (n1 + n2 + 2 * n3)`` at the deepest shared ancestor, fewest edges."""
        if (a, b) not in self._sims:
            up_a, up_b = self.up(a), self.up(b)
            n3, edges = max(
                (self.depth(ConceptId(a.domain, x)), -(up_a[x] + up_b[x]))
                for x in up_a.keys() & up_b.keys()
            )
            self._sims[a, b] = Fraction(2 * n3, 2 * n3 - edges)
        return self._sims[a, b]

    def degree(self, concept: ConceptId, constraint: ConceptId) -> Fraction:
        if constraint.name in self.up(concept):
            return Fraction(1)
        return self.similarity(concept, constraint)

    def scan(self, concept: ConceptId) -> list[tuple[Fraction, str]]:
        """Every other concept of the domain with its similarity, most similar first."""
        if concept not in self._scans:
            found = [
                (self.similarity(concept, ConceptId(concept.domain, name)), name)
                for name in self.parents[concept.domain]
                if name != concept.name
            ]
            found.sort(key=lambda pair: (-pair[0], pair[1]))
            self._scans[concept] = found
        return self._scans[concept]

    # -- the pipeline ---------------------------------------------------------

    def constraint_score(self, sense: VerbSense, args: ArgumentStructure) -> Fraction:
        degrees = [
            self.degree(args.bindings[c.role].concept, c.concept) if c.role in args.bindings
            else Fraction(0)
            for c in sense.constraints
        ]
        return sum(degrees, Fraction(0)) / len(degrees) if degrees else Fraction(1)

    def realizations(self, concept: ConceptId) -> list[str]:
        """The target senses with an OBL slot at ``concept``."""
        if concept not in self._realized:
            self._realized[concept] = sorted(
                sense.sense_id
                for sense in self.lexicon.senses.values()
                if sense.language == "target"
                and any(s.status is SlotStatus.OBL and s.concept == concept
                        for s in sense.projection.values())
            )
        return self._realized[concept]

    def concept_score(self, clause: dict, candidate: VerbSense, weights, default) -> Fraction:
        mine = {
            domain: slot.concept
            for domain, slot in candidate.projection.items()
            if slot.status is SlotStatus.OBL or (slot.status is SlotStatus.OPT and domain in clause)
        }
        union = clause.keys() | mine.keys()
        total = sum((weights.get(d, default) for d in union), Fraction(0))
        if total == 0:
            raise MatcherError("all weights are zero")
        score = Fraction(0)
        for d in union:
            if d in clause and d in mine:
                score += weights.get(d, default) * self.similarity(clause[d], mine[d])
        return score / total

    def decide(self, patient: ConceptId, args: ArgumentStructure) -> ConceptId:
        node = self.tree_doc
        while "action" not in node:
            test = node["test"]
            if test["kind"] == "is-a":
                passed = test["concept"] in self.up(patient)
            elif test["kind"] == "has-marker":
                passed = test["marker"] in args.context_markers
            else:  # role-bound
                passed = Role(test["role"]) in args.bindings
            node = node["then" if passed else "else"]
        return ConceptId(ACTION, node["action"])

    def translate(
        self,
        args: ArgumentStructure,
        floor: Fraction,
        max_size: int,
        weights_text: str = "{}",
        use_tree: bool = True,
    ):
        """The expected ``Outcome``, or ``GAP``; raises ``MatcherError`` as ``translate`` does."""
        weights, default = read_weights(weights_text)
        source, best = None, None
        for sense in self.lexicon.source_senses(args.source_lexeme):
            score = self.constraint_score(sense, args)
            if best is None or score > best:
                source, best = sense, score
        inter_rep = build_inter_rep(source, args)
        clause = {domain: slot.concept for domain, slot in inter_rep.slots.items()}

        found: dict[str, tuple[Fraction, ConceptId]] = {}  # sense id -> (similarity, via)
        for slot in inter_rep.slots.values():
            if slot.status is not SlotStatus.OBL:
                continue
            offers = [(Fraction(1), slot.concept)] if self.realizations(slot.concept) else [
                (sim, ConceptId(slot.concept.domain, name))
                for sim, name in self.scan(slot.concept)
                if sim >= floor
            ][:max_size]
            for sim, via in offers:
                for sense_id in self.realizations(via):
                    old = found.get(sense_id)
                    if old is None or (-sim, via.name) < (-old[0], old[1].name):
                        found[sense_id] = (sim, via)
        if not found:
            return GAP

        action = None
        patient = args.bindings.get(Role.E1)
        if use_tree and self.tree_doc is not None and patient is not None:
            action = self.decide(patient.concept, args)
        # the action root promotes nothing
        promote = action is not None and self.parents[ACTION][action.name] != ()

        rows = []
        for sense_id, (sim, via) in found.items():
            sense = self.lexicon.senses[sense_id]
            slot = sense.projection.get(ACTION)
            matches = promote and slot is not None and slot.concept == action
            rows.append((
                Ranked(sense_id, self.concept_score(clause, sense, weights, default),
                       self.constraint_score(sense, args), via, sim),
                matches,
            ))
        rows.sort(key=lambda row: (-row[0].concept_score, not row[1], -row[0].constraint_score,
                                   -row[0].similarity, row[0].sense_id))
        return Outcome(source.sense_id, action, tuple(r for r, _ in rows))
