"""Exception types shared across the package, and the file, JSON and number readers.

Every error raised on bad input data names the offending object (domain,
concept, sense, record line) so callers can report it without digging.
"""

import json
import re
from decimal import Decimal
from fractions import Fraction

# Fraction builds 10**|exponent| exactly; no weight or floor needs more.
MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


class LexselError(Exception):
    """Base class for all errors raised by this package."""


class TaxonomyFormatError(LexselError):
    """Taxonomy document is malformed or violates a structural rule."""


class UnknownConceptError(LexselError):
    """A concept or domain was referenced that the store does not contain."""


class CrossDomainError(LexselError):
    """Two concepts from different domains were compared."""


class LexiconFormatError(LexselError):
    """Lexicon document is malformed or references unknown concepts."""


class UnknownLexemeError(LexselError):
    """No source sense exists for the requested lexeme."""


class UnboundRoleError(LexselError):
    """An obligatory projection slot needs a role that is not bound."""


class MatcherError(LexselError):
    """Similarity could not be computed (e.g. all weights zero)."""


class DecisionTreeFormatError(LexselError):
    """Decision-tree document is malformed."""


class CorpusFormatError(LexselError):
    """Corpus document is malformed; message includes the line number."""


class VocabularyGapError(LexselError):
    """No target realization exists within the neighborhood floor."""


def _read_text(path: str) -> str:
    """The UTF-8 text of the file at ``path``; a ``LexselError`` if it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except UnicodeDecodeError as exc:
        raise LexselError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def parse_json(
    text: str, error: type[LexselError], what: str, parse_float: type | None = None
) -> object:
    """``json.loads``, raising ``error`` on bad or too deeply nested text.

    Without ``parse_float`` json reuses its module-level decoder instead
    of building a new one per call.
    """
    try:
        return json.loads(text, parse_float=parse_float)
    except ValueError as exc:  # a syntax error, or an integer too long to convert
        reason = str(exc)
    except RecursionError:
        reason = "nested too deeply"
    raise error(f"{what} is not valid JSON: {reason}")


def parse_fraction(value: str | Decimal) -> Fraction:
    """``Fraction(value)``; ``ValueError`` for a non-finite ``Decimal`` or a
    decimal exponent beyond ``MAX_EXPONENT`` in size, checked first."""
    if isinstance(value, Decimal) and not value.is_finite():
        raise ValueError(f"{value} is not a finite number")
    match = _EXPONENT.search(str(value))
    if match and abs(int(match[1])) > MAX_EXPONENT:
        raise ValueError(f"exponent {match[1]} is outside ±{MAX_EXPONENT}")
    return Fraction(value)
