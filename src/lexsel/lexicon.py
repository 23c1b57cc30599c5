"""Verb senses as multi-domain projections, plus the realization index.

A sense projects onto named domains through slots with one of three
statuses: OBL slots carry the core of the meaning, OPT slots surface only
through syntactic alternations (e.g. an external causer), and IMP slots
are implicit background (time, place, an unspecified action).  A sense has
at most one slot per domain, so a projection (and a clause meaning) is a
dict keyed by domain, in document order.  Selection
constraints pair a thematic role (E0 agent, E1 patient, E2 instrument)
with a nominal concept.

``load_lexicon`` reads the sense list once, building the realization
index (OBL concept -> target sense ids) while it loads.  ``resolve_clause``
is the one place a clause's mentions are resolved.

Placeholder tokens in slot arguments: ``@t0``/``@l0``/``@l1``/``@l2`` are
unfilled time/space variables, ``*`` stands for the event itself, and a
slot with no concept at all is written as a bare ``@`` in glosses.  The
placeholders are stored but carry no selection force.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Iterable, NamedTuple, Optional

from .errors import (
    LexiconFormatError,
    UnboundRoleError,
    UnknownConceptError,
    UnknownLexemeError,
    parse_json,
)
from .taxonomy import ConceptId, TaxonomyStore, collector_paused


class Role(str, Enum):
    E0 = "E0"  # agent
    E1 = "E1"  # patient
    E2 = "E2"  # instrument

    def __str__(self) -> str:
        return self.value


class SlotStatus(str, Enum):
    OBL = "OBL"
    OPT = "OPT"
    IMP = "IMP"

    def __str__(self) -> str:
        return self.value


VARIABLE_PLACEHOLDERS = frozenset({"@t0", "@l0", "@l1", "@l2"})
EVENT_TOKEN = "*"
UNSPECIFIED_TOKEN = "@"
_ROLES = {r.value: r for r in Role}
_STATUSES = {s.value: s for s in SlotStatus}
_ARG_TOKENS = frozenset(_ROLES) | VARIABLE_PLACEHOLDERS | {EVENT_TOKEN, UNSPECIFIED_TOKEN}
_MENTION_SUFFIX = re.compile(r"-\d+$")


class SelectionConstraint(NamedTuple):
    role: Role
    concept: ConceptId  # nominal domain


class ProjectionSlot(NamedTuple):
    domain: str
    status: SlotStatus
    concept: Optional[ConceptId]  # None only for IMP (a bare '@')
    args: tuple[str, ...] = ()

    def render(self) -> str:
        inner = "@" if self.concept is None else self.concept.name
        if self.args:
            inner += " " + " ".join(self.args)
        return f"{self.domain} ({inner})"


class VerbSense(NamedTuple):
    sense_id: str
    lexeme: str
    language: str  # "source" or "target"
    gloss: str
    constraints: tuple[SelectionConstraint, ...]
    projection: dict[str, ProjectionSlot]  # keyed by domain, document order


class Binding(NamedTuple):
    """An entity mention resolved to its nominal concept."""

    mention: str
    concept: ConceptId


class ArgumentStructure(NamedTuple):
    source_lexeme: str
    bindings: dict[Role, Binding]
    context_markers: frozenset[str] = frozenset()


class InterRep(NamedTuple):
    """Language-neutral clause meaning: projection slots with roles filled."""

    sentence_id: str
    slots: dict[str, ProjectionSlot]  # keyed by domain; every slot names a concept

    def obl_concepts(self) -> tuple[ConceptId, ...]:
        return tuple(s.concept for s in self.slots.values() if s.status is SlotStatus.OBL)


def resolve_mention(store: TaxonomyStore, nominal_domain: str, token: str) -> Binding:
    """Map a mention like ``branch-1`` to its nominal concept.

    A trailing ``-<digits>`` tags an instance and is stripped when the
    stripped base names a concept; otherwise the token itself must.
    """
    if token.split() != [token]:  # empty, or whitespace as str.isspace has it
        raise LexiconFormatError(f"bad entity mention {token!r}")
    dom = store.domain(nominal_domain)
    base = _MENTION_SUFFIX.sub("", token)
    if base in dom.nodes:
        return Binding(mention=token, concept=ConceptId(nominal_domain, base))
    if token in dom.nodes:
        return Binding(mention=token, concept=ConceptId(nominal_domain, token))
    raise UnknownConceptError(
        f"mention {token!r} does not name a concept in domain {nominal_domain!r}"
    )


def resolve_clause(
    store: TaxonomyStore,
    nominal_domain: str,
    source_lexeme: str,
    mentions: Iterable[tuple[Role, str]],
    markers: Iterable[str] = (),
) -> ArgumentStructure:
    """A clause whose ``(role, raw mention)`` pairs resolve in the order given."""
    bindings = {role: resolve_mention(store, nominal_domain, m) for role, m in mentions}
    return ArgumentStructure(source_lexeme, bindings, frozenset(markers))


class Lexicon(NamedTuple):
    """Validated sense inventory plus the target realization index."""

    nominal_domain: str
    senses: dict[str, VerbSense]  # keyed by sense id, document order
    source_by_lexeme: dict[str, tuple[VerbSense, ...]]  # source senses, document order
    realizations: dict[ConceptId, tuple[str, ...]]  # OBL concept -> sorted target sense ids

    def source_senses(self, lexeme: str) -> tuple[VerbSense, ...]:
        try:
            return self.source_by_lexeme[lexeme]
        except KeyError:
            raise UnknownLexemeError(f"unknown source lexeme {lexeme!r}") from None

    def realization_ids(self, concept: ConceptId) -> tuple[str, ...]:
        return self.realizations.get(concept, ())


def _error(sense_id: Optional[str], message: str) -> LexiconFormatError:
    """An error located at a sense, or at a sense with no usable id."""
    where = "sense" if sense_id is None else f"sense {sense_id!r}"
    return LexiconFormatError(f"{where}: {message}")


def _require_str(raw: dict, key: str, sense_id: Optional[str]) -> str:
    value = raw.get(key)
    if not isinstance(value, str):
        raise _error(sense_id, f"field {key!r} must be a string")
    return value


def _parse_slot(raw: dict, store: TaxonomyStore, sense_id: str) -> ProjectionSlot:
    if not isinstance(raw, dict):
        raise _error(sense_id, "projection slot must be an object")
    domain = _require_str(raw, "domain", sense_id)
    dom = store.domains.get(domain)
    if dom is None:
        raise _error(sense_id, f"unknown domain {domain!r}")
    status_raw = _require_str(raw, "status", sense_id)
    status = _STATUSES.get(status_raw)
    if status is None:
        raise _error(sense_id, f"bad slot status {status_raw!r}")
    concept: Optional[ConceptId] = None
    cname = raw.get("concept")
    if cname is not None:
        if not isinstance(cname, str):
            raise _error(sense_id, "slot concept must be a string")
        if cname not in dom.nodes:
            raise _error(sense_id, f"domain {domain!r} has no concept {cname!r}")
        dom.ancestors(cname)  # filled now, so that no clause pays for the walk
        concept = ConceptId(domain, cname)
    elif status is not SlotStatus.IMP:
        raise _error(sense_id, f"{status.value} slot in domain {domain!r} must name a concept")
    args_raw = raw.get("args", [])
    if not isinstance(args_raw, list):
        raise _error(sense_id, "slot args must be a list")
    for tok in args_raw:
        if not isinstance(tok, str) or tok not in _ARG_TOKENS:
            raise _error(sense_id, f"bad argument token {tok!r}")
    return ProjectionSlot(domain, status, concept, tuple(args_raw))


@collector_paused()
def load_lexicon(text: str, store: TaxonomyStore) -> Lexicon:
    """Parse and validate a lexicon document against a taxonomy store.

    Error locations are formatted only when raising.  On success, the
    ancestor maps of every nominal concept (where mentions and constraints
    resolve) and of every slot concept are filled, so that translating a
    clause does not pay for them.
    """
    doc = parse_json(text, LexiconFormatError, "lexicon document")
    if not isinstance(doc, dict):
        raise LexiconFormatError("lexicon document must be an object")
    nominal = doc.get("nominal_domain")
    if not isinstance(nominal, str) or nominal not in store.domains:
        raise LexiconFormatError(f"nominal_domain {nominal!r} is not a loaded domain")
    raw_senses = doc.get("senses")
    if not isinstance(raw_senses, list):
        raise LexiconFormatError('lexicon document needs a "senses" list')
    nominal_nodes = store.domains[nominal].nodes

    senses: dict[str, VerbSense] = {}
    by_lexeme: dict[str, list[VerbSense]] = {}
    by_concept: dict[ConceptId, list[str]] = {}
    for raw in raw_senses:
        if not isinstance(raw, dict):
            raise LexiconFormatError("sense entry must be an object")
        sense_id = _require_str(raw, "sense_id", None)
        if sense_id in senses:
            raise LexiconFormatError(f"duplicate sense_id {sense_id!r}")
        lexeme = _require_str(raw, "lexeme", sense_id)
        language = _require_str(raw, "language", sense_id)
        if language not in ("source", "target"):
            raise _error(sense_id, "language must be 'source' or 'target'")
        gloss = _require_str(raw, "gloss", sense_id)
        if not isinstance(raw.get("example", ""), str):  # checked, not kept
            raise _error(sense_id, "example must be a string")

        constraints_raw = raw.get("constraints", [])
        if not isinstance(constraints_raw, list):
            raise _error(sense_id, "constraints must be a list")
        constraints = []
        for c in constraints_raw:
            if not isinstance(c, dict):
                raise _error(sense_id, "constraint must be an object")
            role_raw = _require_str(c, "role", sense_id)
            role = _ROLES.get(role_raw)
            if role is None:
                raise _error(sense_id, f"bad constraint role {role_raw!r}")
            cname = _require_str(c, "concept", sense_id)
            if cname not in nominal_nodes:
                raise _error(sense_id, f"constraint names unknown nominal concept {cname!r}")
            constraints.append(SelectionConstraint(role, ConceptId(nominal, cname)))

        projection_raw = raw.get("projection")
        if not isinstance(projection_raw, list) or not projection_raw:
            raise _error(sense_id, "needs a non-empty projection list")
        projection: dict[str, ProjectionSlot] = {}
        obl: list[ConceptId] = []
        for raw_slot in projection_raw:
            slot = _parse_slot(raw_slot, store, sense_id)
            if slot.domain in projection:
                raise _error(sense_id, f"more than one slot in domain {slot.domain!r}")
            projection[slot.domain] = slot
            if slot.status is SlotStatus.OBL:
                obl.append(slot.concept)  # an OBL slot always names a concept
        if not obl:
            raise _error(sense_id, "needs at least one OBL slot")

        sense = VerbSense(sense_id, lexeme, language, gloss, tuple(constraints), projection)
        senses[sense_id] = sense
        if language == "source":
            by_lexeme.setdefault(lexeme, []).append(sense)
        else:
            for concept in obl:
                by_concept.setdefault(concept, []).append(sense_id)
    # fill the ancestor maps clauses read, so that no clause pays for a walk
    nominal_dom = store.domains[nominal]
    for name in nominal_nodes:  # where every mention and constraint resolves
        nominal_dom.ancestors(name)
    source_by_lexeme = {lexeme: tuple(found) for lexeme, found in by_lexeme.items()}
    realizations = {c: tuple(sorted(ids)) for c, ids in by_concept.items()}
    return Lexicon(nominal, senses, source_by_lexeme, realizations)


def _substitute(slot: ProjectionSlot, args: ArgumentStructure) -> Optional[tuple[str, ...]]:
    """Fill role tokens with mentions; None means the slot stays implicit.

    A variable placeholder (unknown time or place) always keeps the slot
    out of the clause meaning; ``*`` passes through untouched.
    """
    out: list[str] = []
    for tok in slot.args:
        if tok in _ROLES:
            binding = args.bindings.get(_ROLES[tok])
            if binding is None:
                if slot.status is SlotStatus.OBL:
                    raise UnboundRoleError(
                        f"slot {slot.render()} needs role {tok} but it is not bound"
                    )
                return None
            out.append(binding.mention)
        elif tok in VARIABLE_PLACEHOLDERS:
            return None
        else:  # EVENT_TOKEN / UNSPECIFIED_TOKEN
            out.append(tok)
    return tuple(out)


def build_inter_rep(
    sense: VerbSense, args: ArgumentStructure, sentence_id: str = "sentence-1"
) -> InterRep:
    """Instantiate a source sense with bound arguments.

    OBL slots are always present (an unbound OBL role is an error); OPT and
    concept-bearing IMP slots survive only when every role they mention is
    bound; slots with no concept are dropped.
    """
    if sense.language != "source":
        raise LexiconFormatError(
            f"sense {sense.sense_id!r} is not a source sense; cannot build a clause meaning"
        )
    kept: dict[str, ProjectionSlot] = {}
    for domain, slot in sense.projection.items():
        if slot.concept is None:
            continue
        filled = _substitute(slot, args)
        if filled is None:
            continue
        kept[domain] = ProjectionSlot(
            domain=domain, status=slot.status, concept=slot.concept, args=filled
        )
    return InterRep(sentence_id=sentence_id, slots=kept)
