"""Clause corpora (JSON Lines), batch evaluation, and gold-label counts.

A corpus file holds one JSON object per line.  An optional first line
whose keys are all ``markers`` or ``note`` (``{"markers": [...], "note":
"..."}``) declares the closed set of context markers; records may only use
declared markers.  Each record is ``{"id", "source_lexeme", "bindings":
{"E0"?, "E1"?, "E2"?}, "context": [...], "gold"?}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import CorpusFormatError, VocabularyGapError, parse_json
from .lexicon import _ROLES, ArgumentStructure, Lexicon, Role, resolve_mention
from .selector import SelectionConfig, TreeNode, translate
from .taxonomy import TaxonomyStore

_HEADER_KEYS = frozenset(("markers", "note"))  # a first line with only these is the header


@dataclass(frozen=True)
class CorpusRecord:
    id: str
    source_lexeme: str
    bindings: tuple[tuple[Role, str], ...]  # role -> raw mention, in role order
    context: tuple[str, ...]
    gold: Optional[str]
    line: int


@dataclass(frozen=True)
class Corpus:
    markers: frozenset[str]
    records: tuple[CorpusRecord, ...]


def load_corpus(text: str) -> Corpus:
    markers: frozenset[str] = frozenset()
    records: list[CorpusRecord] = []
    seen_ids: set[str] = set()
    first_content_line = True
    # only "\n" ends a record: JSON strings may hold U+0085, U+2028 and U+2029 raw,
    # which str.splitlines would also split at; strip() drops a "\r" before it
    for lineno, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.strip()
        if not line:
            continue
        raw = parse_json(line, CorpusFormatError, f"line {lineno}")
        if not isinstance(raw, dict):
            raise CorpusFormatError(f"line {lineno}: record must be an object")
        if first_content_line and raw.keys() <= _HEADER_KEYS:
            # header line declaring the closed marker set
            raw_markers = raw.get("markers", [])
            if not isinstance(raw_markers, list) or not all(
                isinstance(m, str) and m for m in raw_markers
            ):
                raise CorpusFormatError(f"line {lineno}: markers must be a list of strings")
            markers = frozenset(raw_markers)
            if not isinstance(raw.get("note", ""), str):  # checked, not kept
                raise CorpusFormatError(f"line {lineno}: note must be a string")
            first_content_line = False
            continue
        first_content_line = False
        records.append(_parse_record(raw, lineno, markers))
        rid = records[-1].id
        if rid in seen_ids:
            raise CorpusFormatError(f"line {lineno}: duplicate record id {rid!r}")
        seen_ids.add(rid)
    return Corpus(markers=markers, records=tuple(records))


def _error(lineno: int, message: str) -> CorpusFormatError:
    return CorpusFormatError(f"line {lineno}: {message}")


def _parse_record(raw: dict, lineno: int, markers: frozenset[str]) -> CorpusRecord:
    rid = raw.get("id")
    if not isinstance(rid, str) or not rid:
        raise _error(lineno, "record needs a non-empty id")
    lexeme = raw.get("source_lexeme")
    if not isinstance(lexeme, str) or not lexeme:
        raise _error(lineno, f"record {rid!r} needs a source_lexeme")
    bindings_raw = raw.get("bindings", {})
    if not isinstance(bindings_raw, dict):
        raise _error(lineno, f"record {rid!r} bindings must be an object")
    bindings: list[tuple[Role, str]] = []
    for name, role in _ROLES.items():  # role order
        if name in bindings_raw:
            mention = bindings_raw[name]
            if not isinstance(mention, str) or not mention:
                raise _error(lineno, f"record {rid!r} binding {name} must be a string")
            bindings.append((role, mention))
    if len(bindings) != len(bindings_raw):
        extra = sorted(set(bindings_raw) - _ROLES.keys())
        raise _error(lineno, f"record {rid!r} has unknown roles {extra}")
    context_raw = raw.get("context", [])
    if not isinstance(context_raw, list):
        raise _error(lineno, f"record {rid!r} context must be a list")
    for marker in context_raw:
        if not isinstance(marker, str):
            raise _error(lineno, f"record {rid!r} context markers must be strings")
        if marker not in markers:
            raise _error(lineno, f"record {rid!r} uses undeclared marker {marker!r}")
    gold = raw.get("gold")
    if gold is not None and (not isinstance(gold, str) or not gold):
        raise _error(lineno, f"record {rid!r} gold must be a non-empty string")
    return CorpusRecord(
        id=rid,
        source_lexeme=lexeme,
        bindings=tuple(bindings),
        context=tuple(context_raw),
        gold=gold,
        line=lineno,
    )


def to_argument_structure(
    record: CorpusRecord, store: TaxonomyStore, nominal_domain: str
) -> ArgumentStructure:
    bindings = {
        role: resolve_mention(store, nominal_domain, mention)
        for role, mention in record.bindings
    }
    return ArgumentStructure(
        source_lexeme=record.source_lexeme,
        bindings=bindings,
        context_markers=frozenset(record.context),
    )


@dataclass(frozen=True)
class EvalItem:
    id: str
    predicted: Optional[str]  # None when no realization was found
    gold: str
    match: bool


@dataclass(frozen=True)
class EvalReport:
    total: int
    correct: int
    accuracy: Fraction
    items: tuple[EvalItem, ...]


def evaluate_corpus(
    corpus: Corpus,
    lexicon: Lexicon,
    store: TaxonomyStore,
    config: SelectionConfig = SelectionConfig(),
    tree: Optional[TreeNode] = None,
) -> EvalReport:
    """Translate every record and compare against its gold label.

    Every record must carry a gold label.  A vocabulary gap counts as an
    incorrect prediction rather than aborting the run.
    """
    if not corpus.records:
        raise CorpusFormatError("corpus has no records to evaluate")
    items: list[EvalItem] = []
    for record in corpus.records:
        if record.gold is None:
            raise CorpusFormatError(f"record {record.id!r} has no gold label")
        args = to_argument_structure(record, store, lexicon.nominal_domain)
        try:
            predicted: Optional[str] = translate(
                lexicon, store, args, config, tree, sentence_id=record.id
            ).lexeme
        except VocabularyGapError:
            predicted = None
        items.append(
            EvalItem(
                id=record.id,
                predicted=predicted,
                gold=record.gold,
                match=predicted == record.gold,
            )
        )
    correct = sum(1 for item in items if item.match)
    return EvalReport(
        total=len(items),
        correct=correct,
        accuracy=Fraction(correct, len(items)),
        items=tuple(items),
    )


def frequency_table(corpus: Corpus) -> tuple[tuple[str, int], ...]:
    """``(lexeme, count)`` rows of gold target lexemes, by count descending, then lexeme."""
    if not corpus.records:
        raise CorpusFormatError("corpus has no records to count")
    counts: dict[str, int] = {}
    for record in corpus.records:
        if record.gold is None:
            raise CorpusFormatError(f"record {record.id!r} has no gold label")
        counts[record.gold] = counts.get(record.gold, 0) + 1
    return tuple(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
