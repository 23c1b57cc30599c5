"""The error contract: any input document or clause gives a result or a LexselError.

Arbitrary JSON values, and the bundled documents with one node replaced
or deleted, go through every loader (and the corpus through
``evaluate_corpus``); nothing but a ``LexselError`` may escape.  A clause a
library caller builds with ``resolve_clause`` is held to the same rule.
"""

import json
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexsel import (
    CorpusFormatError,
    DecisionTreeFormatError,
    DomainWeights,
    LexiconFormatError,
    LexselError,
    MatcherError,
    Role,
    TaxonomyFormatError,
    evaluate_corpus,
    load_corpus,
    load_decision_tree,
    load_lexicon,
    load_taxonomy,
    resolve_clause,
)
from lexsel.bundled import (
    CORPUS_FILE,
    LEXICON_FILE,
    TAXONOMY_FILES,
    TREE_FILE,
    bundled_text,
)
from lexsel.errors import parse_fraction

HUGE_INTEGER = "1" * 5000  # beyond the interpreter's 4300-digit str -> int limit


@pytest.fixture(scope="module")
def loaders(store, lexicon, tree):
    return {
        "taxonomy": load_taxonomy,
        "lexicon": lambda text: load_lexicon(text, store),
        "tree": lambda text: load_decision_tree(text, store, "entity"),
        "weights": DomainWeights.from_json,
        "corpus": lambda text: evaluate_corpus(load_corpus(text), lexicon, store, tree=tree),
    }


ERRORS = {
    "taxonomy": TaxonomyFormatError,
    "lexicon": LexiconFormatError,
    "tree": DecisionTreeFormatError,
    "weights": MatcherError,
    "corpus": CorpusFormatError,
}


def test_huge_integer_is_a_data_error(loaders):
    for name, error in ERRORS.items():
        for text in (HUGE_INTEGER, '{"senses": [%s]}' % HUGE_INTEGER):
            with pytest.raises(error, match="is not valid JSON: Exceeds the limit"):
                loaders[name](text)


def _bundled(name: str):
    """A bundled document as one JSON value; a corpus as its list of lines."""
    text = bundled_text(name)
    if name == CORPUS_FILE:
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


DOCUMENTS = {
    "taxonomy": [_bundled(n) for n in TAXONOMY_FILES],
    "lexicon": [_bundled(LEXICON_FILE)],
    "tree": [_bundled(TREE_FILE)],
    "weights": [{"ch-of-state": 2, "causation": "1/3", "instrument": 0.5, "default": 1}],
    "corpus": [_bundled(CORPUS_FILE)],
}


def _node_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from _node_paths(child, path + (key,))


def _strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for key, child in value.items():
            yield key
            yield from _strings(child)
    elif isinstance(value, list):
        for child in value:
            yield from _strings(child)


# field names and concept ids of the bundled data reach deeper than random text
_WORDS = sorted({w for docs in DOCUMENTS.values() for doc in docs for w in _strings(doc)})
_text = st.sampled_from(_WORDS) | st.text(max_size=6)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _text,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_text, children, max_size=4),
    max_leaves=6,
)
DELETE = object()


def _mutated(value, path, new):
    if not path:
        return new
    copy = list(value) if isinstance(value, list) else dict(value)
    if len(path) == 1 and new is DELETE:
        del copy[path[0]]
    else:
        copy[path[0]] = _mutated(value[path[0]], path[1:], new)
    return copy


def _load(load, text: str) -> None:
    try:
        load(text)
    except LexselError:
        pass


@pytest.mark.parametrize("name", sorted(ERRORS))
@settings(max_examples=25, deadline=None)
@given(text=json_values.map(json.dumps))
@example(text=HUGE_INTEGER)
@example(text='{"ch-of-state": 1e-999999999, "default": 1e400}')  # exact weight numbers
def test_any_json_value_gives_a_result_or_a_lexsel_error(loaders, name, text):
    _load(loaders[name], text)


# every node of every bundled document; a corpus stays a list of lines
NODES = {
    name: [(doc, path) for doc in docs for path in _node_paths(doc) if path or name != "corpus"]
    for name, docs in DOCUMENTS.items()
}


@pytest.mark.parametrize("name", sorted(ERRORS))
@settings(max_examples=35, deadline=None)
@given(data=st.data())
def test_mutated_bundled_document_gives_a_result_or_a_lexsel_error(loaders, name, data):
    doc, path = data.draw(st.sampled_from(NODES[name]))
    new = data.draw(st.just(DELETE) | json_values) if path else data.draw(json_values)
    mutated = _mutated(doc, path, new)
    if name == "corpus":
        text = "\n".join(json.dumps(line) for line in mutated)
    else:
        text = json.dumps(mutated)
    _load(loaders[name], text)


class TestParseFraction:
    def test_reads_as_before(self):
        for text, value in (("0.5", Fraction(1, 2)), ("0.1", Fraction(1, 10)), ("3", 3)):
            assert parse_fraction(text) == value
            assert parse_fraction(Decimal(text)) == value
        assert parse_fraction("1/3") == Fraction(1, 3)
        assert parse_fraction("1e3") == 1000

    @pytest.mark.parametrize("text", ["inf", "1e999999999", "1e-999999999"])
    def test_rejects_at_once(self, text):
        start = time.perf_counter()
        for value in (text, Decimal(text)):
            with pytest.raises(ValueError):
                parse_fraction(value)
        assert time.perf_counter() - start < 1


class TestClauseMentions:
    @pytest.mark.parametrize("mention", [5, None, b"vase-1"])
    def test_a_mention_that_is_not_a_str(self, store, mention):
        with pytest.raises(LexiconFormatError) as err:
            resolve_clause(store, "entity", "break", [(Role.E0, mention)])
        assert str(err.value) == f"bad entity mention {mention!r}"

    def test_a_role_given_twice(self, store):
        mentions = [(Role.E1, "stick-1"), (Role.E0, "vase-1"), (Role.E0, "john-1")]
        with pytest.raises(LexiconFormatError) as err:
            resolve_clause(store, "entity", "break", mentions)
        assert str(err.value) == "role E0 has two mentions: 'vase-1' and 'john-1'"
