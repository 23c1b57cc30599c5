"""Aggregate similarity between projections and graded constraint scoring.

Word-level similarity sums weighted concept similarity over the union of
the two projections' domains.  Projections are dicts keyed by domain (a
sense has at most one slot per domain), so the two sides are compared
domain by domain as stored.  A domain present on only one side
contributes zero, which penalizes candidates that cover a different set
of domains than the clause meaning.  Weights are renormalized to sum to 1
over that union, so scores stay in [0, 1].  Everything is computed with
exact rationals so equality comparisons in ranking are exact.

``inexact_match`` scores all of a clause's candidates in one call.
Near-synonyms realize the same concepts, so candidates often give the
same inputs: the concept score is worked out once per distinct tuple of
matched slots, and the constraint score once per distinct constraint
tuple, by the same ``word_sim_breakdown``, ``constraint_degrees`` and
``constraint_satisfaction`` a single candidate goes through.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import MatcherError, parse_fraction, parse_json
from .lexicon import (
    ArgumentStructure,
    InterRep,
    ProjectionSlot,
    SelectionConstraint,
    SlotStatus,
    VerbSense,
)
from .taxonomy import ConceptId, TaxonomyStore, _degree, con_sim

_ZERO, _ONE = Fraction(0), Fraction(1)
_OBL, _OPT = SlotStatus.OBL, SlotStatus.OPT  # a module global reads faster than an enum member
_FRESH = object()  # a default argument that stands for a new value on each call
# a domain union's integer weight total, and each domain's integer weight and share
_Shares = tuple[int, tuple[tuple[int, Fraction], ...]]


@cache
def _score(num: int, den: int) -> Fraction:
    """``num / den``, one shared value per pair asked: scores repeat across clauses, so
    equal scores in a sort key are one object.  The 162 bundled clauses ask 21 pairs,
    and a 3000-clause ``wordnet-80k`` stream ~310 (98% of lookups hit)."""
    return Fraction(num, den)


def _check_weight(value: object, where: str) -> None:
    # only exact numbers keep every score an exact rational
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise MatcherError(f"{where} must be an int or a Fraction, got {value!r}")
    if value < 0:
        raise MatcherError(f"{where} is negative")


def _as_fraction(value: object, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, float, str, Decimal)):
        raise MatcherError(f"{where}: weight must be a number, got {value!r}")
    try:
        return parse_fraction(str(value))  # a JSON number reads exactly as written
    except (ValueError, ArithmeticError):
        raise MatcherError(f"{where}: cannot read weight {value!r}") from None


class DomainWeights(
    NamedTuple("DomainWeights", [("weights", Mapping), ("default_weight", Fraction)])
):
    """Per-domain weights; unlisted domains get ``default_weight``.

    Every weight is a non-negative int or ``Fraction``; ``weights`` defaults to
    a new empty dict.  ``_shares``, a plain attribute, maps a sorted domain
    union to its shares, so the weights are read once per union.
    """

    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` goes through ``__new__``

    def __new__(
        cls, weights: Mapping[str, Fraction] = _FRESH, default_weight: Fraction = _ONE
    ) -> "DomainWeights":
        weights = {} if weights is _FRESH else weights
        if not isinstance(weights, Mapping):
            raise MatcherError(f"weights must map domain names to weights, got {weights!r}")
        for name, w in weights.items():
            _check_weight(w, f"weight for domain {name!r}")
        _check_weight(default_weight, "default weight")
        self = super().__new__(cls, weights, default_weight)
        self._shares = {}
        return self

    def weight(self, domain: str) -> Fraction:
        return self.weights.get(domain, self.default_weight)

    def _normalized(self, union: tuple[str, ...]) -> _Shares:
        """Integer weights over a sorted domain union, their sum, and each share.

        The weights are scaled by the least common multiple of their
        denominators, so ``share == weight / total`` exactly.  A union whose
        weights are all zero raises each time it is asked for.
        """
        cached = self._shares.get(union)
        if cached is not None:
            return cached
        raw = [self.weight(d) for d in union]
        scale = lcm(*(w.denominator for w in raw))
        ints = [w.numerator * (scale // w.denominator) for w in raw]
        total = sum(ints)
        if total == 0:
            raise MatcherError(f"all weights are zero over domains {', '.join(union)}")
        cached = total, tuple((w, Fraction(w, total)) for w in ints)
        self._shares[union] = cached
        return cached

    @classmethod
    def from_json(cls, text: str) -> "DomainWeights":
        # JSON numbers read as Decimal, so none rounds or underflows to a float
        doc = parse_json(text, MatcherError, "weights document", parse_float=Decimal)
        if not isinstance(doc, dict):
            raise MatcherError("weights document must map domain names to numbers")
        default = _as_fraction(doc.pop("default", 1), "weights document")
        weights = {
            name: _as_fraction(value, f"domain {name!r}") for name, value in doc.items()
        }
        return cls(weights=weights, default_weight=default)


class DomainContribution(NamedTuple):
    domain: str
    weight: Fraction  # normalized share of the total
    similarity: Fraction
    left: Optional[ConceptId]
    right: Optional[ConceptId]


def word_sim_breakdown(
    left: Mapping[str, ProjectionSlot],
    right: Mapping[str, ProjectionSlot],
    weights: DomainWeights,
    store: TaxonomyStore,
) -> tuple[Fraction, tuple[DomainContribution, ...]]:
    """Weighted per-domain similarity over the union of both domain sets.

    Both mappings are keyed by domain; every slot in them names a concept.
    """
    union = tuple(sorted(left.keys() | right.keys()))
    if not union:
        return _ZERO, ()
    total, shares = weights._normalized(union)
    num, den = 0, 1  # sum of weight * similarity so far, as num / den
    parts: list[DomainContribution] = []
    for domain, (w, share) in zip(union, shares):
        ca = left[domain].concept if domain in left else None
        cb = right[domain].concept if domain in right else None
        if ca is None or cb is None:
            sim = _ZERO
        else:
            sim = con_sim(store, ca, cb)
            d = sim.denominator
            num, den = num * d + w * sim.numerator * den, den * d
        parts.append(DomainContribution(domain, share, sim, ca, cb))
    return _score(num, den * total), tuple(parts)


class ConstraintDegree(NamedTuple):
    constraint: SelectionConstraint
    degree: Fraction
    bound_to: Optional[ConceptId]  # None when the role is unbound


def constraint_degrees(
    sense: VerbSense, args: ArgumentStructure, store: TaxonomyStore
) -> tuple[ConstraintDegree, ...]:
    """Per-constraint fit: 1 on subsumption, graded similarity otherwise.

    A constraint whose role is unbound contributes 0.
    """
    out: list[ConstraintDegree] = []
    for constraint in sense.constraints:
        binding = args.bindings.get(constraint.role)
        if binding is None:
            out.append(ConstraintDegree(constraint, _ZERO, None))
        else:
            degree = _degree(store, binding.concept, constraint.concept)
            out.append(ConstraintDegree(constraint, degree, binding.concept))
    return tuple(out)


def constraint_satisfaction(degrees: Sequence[ConstraintDegree]) -> Fraction:
    """Arithmetic mean of per-constraint degrees; 1 when unconstrained."""
    if not degrees:
        return _ONE
    num, den = 0, 1
    for d in degrees:
        q = d.degree.denominator
        num, den = num * q + d.degree.numerator * den, den * q
    return _score(num, den * len(degrees))


class MatchScore(NamedTuple):
    """Lexicographic pair: concept similarity first, then constraint fit."""

    concept_score: Fraction
    constraint_score: Fraction


def _matched(
    meaning: Mapping[str, ProjectionSlot], candidate: VerbSense
) -> tuple[tuple[str, ProjectionSlot], ...]:
    """``(domain, slot)`` items of the candidate slots, in projection order: the rule
    ``candidate_slots`` states, as a hashable key for the slots a score reads."""
    return tuple([
        (domain, slot)
        for domain, slot in candidate.projection.items()
        if slot.status is _OBL or (slot.status is _OPT and domain in meaning)
    ])


def candidate_slots(inter_rep: InterRep, candidate: VerbSense) -> dict[str, ProjectionSlot]:
    """The candidate slots a clause meaning is matched against.

    All OBL slots count.  An OPT slot counts only when the clause meaning
    realizes that domain: an alternation that is not realized says nothing
    about the fit.  IMP slots never enter the similarity; the implicit
    action component is consulted separately by the selection tree.
    """
    return dict(_matched(inter_rep.slots, candidate))


def inexact_match(
    inter_rep: InterRep,
    candidates: Iterable[VerbSense],
    args: ArgumentStructure,
    weights: DomainWeights,
    store: TaxonomyStore,
) -> list[tuple[MatchScore, tuple[DomainContribution, ...], tuple[ConstraintDegree, ...]]]:
    """Score each candidate sense against one clause meaning, in order.

    Each result is ``(MatchScore, domains, degrees)``.  The concept score
    reads only a candidate's matched slots, and the constraint score only
    its constraints, so each is computed once per distinct value among the
    candidates; candidates with equal inputs share the score values and part
    objects.  Pure: no store or lexicon state is touched.
    """
    meaning = inter_rep.slots
    concepts: dict[tuple, tuple[Fraction, tuple[DomainContribution, ...]]] = {}
    fits: dict[tuple, tuple[Fraction, tuple[ConstraintDegree, ...]]] = {}
    scored = []
    for candidate in candidates:
        matched = _matched(meaning, candidate)
        concept = concepts.get(matched)
        if concept is None:
            concept = concepts[matched] = word_sim_breakdown(
                meaning, dict(matched), weights, store
            )
        fit = fits.get(candidate.constraints)
        if fit is None:
            degrees = constraint_degrees(candidate, args, store)
            fit = fits[candidate.constraints] = constraint_satisfaction(degrees), degrees
        scored.append((MatchScore(concept[0], fit[0]), concept[1], fit[1]))
    return scored
