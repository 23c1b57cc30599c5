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
    ConceptId,
    CorpusFormatError,
    DecisionTreeFormatError,
    DomainWeights,
    LexiconFormatError,
    LexselError,
    MatcherError,
    Role,
    SelectionConfig,
    TaxonomyFormatError,
    evaluate_corpus,
    load_corpus,
    load_decision_tree,
    load_lexicon,
    load_taxonomy,
    resolve_clause,
    translate,
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

    def test_a_role_name_maps_to_its_role(self, store):
        args = resolve_clause(store, "entity", "break", [("E1", "stick-1")])
        [(role, binding)] = args.bindings.items()
        assert role is Role.E1 and binding.mention == "stick-1"

    @pytest.mark.parametrize("role", ["E9", "e1", 1, None, ["E1"]])
    def test_a_role_that_is_not_one(self, store, role):
        with pytest.raises(LexiconFormatError) as err:
            resolve_clause(store, "entity", "break", [(role, "stick-1")])
        assert str(err.value) == f"bad role {role!r}"

    @pytest.mark.parametrize("markers", ["hit", "", None, 5])
    def test_markers_that_are_not_a_collection_of_strings(self, store, markers):
        with pytest.raises(LexiconFormatError) as err:
            resolve_clause(store, "entity", "break", [(Role.E1, "stick-1")], markers)
        assert str(err.value) == (
            f"context markers must be a collection of strings, got {markers!r}"
        )

    @pytest.mark.parametrize("marker", [5, None, b"hit", ["hit"]])
    def test_a_marker_that_is_not_a_str(self, store, marker):
        with pytest.raises(LexiconFormatError) as err:
            resolve_clause(store, "entity", "break", [(Role.E1, "stick-1")], ["hit", marker])
        assert str(err.value) == f"bad context marker {marker!r}"

    @pytest.mark.parametrize(
        "item",
        [("E1",), ("E1", "stick-1", "x"), "E1", (), None, Role.E1, {"E1": "stick-1"}],
        ids=["one", "three", "str", "empty", "None", "role", "dict"],
    )
    def test_a_mention_that_is_not_a_pair(self, store, item):
        with pytest.raises(LexiconFormatError) as err:
            resolve_clause(store, "entity", "break", [(Role.E0, "john-1"), item])
        assert str(err.value) == f"mention must be a (role, mention) pair, got {item!r}"

    @pytest.mark.parametrize(
        "mentions", [None, 5, "E1", Role.E1], ids=["None", "int", "str", "role"]
    )
    def test_mentions_that_are_not_a_collection_of_pairs(self, store, mentions):
        with pytest.raises(LexiconFormatError) as err:
            resolve_clause(store, "entity", "break", mentions)
        assert str(err.value) == (
            f"mentions must be a collection of (role, mention) pairs, got {mentions!r}"
        )

    def test_one_pair_not_in_a_collection(self, store):
        with pytest.raises(LexiconFormatError) as err:
            resolve_clause(store, "entity", "break", ("E1", "stick-1"))
        assert str(err.value) == "mention must be a (role, mention) pair, got 'E1'"

    @pytest.mark.parametrize("lexeme", [["break"], None, 5])
    def test_a_source_lexeme_that_is_not_a_str(self, store, lexeme):
        with pytest.raises(LexiconFormatError) as err:
            resolve_clause(store, "entity", lexeme, [(Role.E1, "stick-1")])
        assert str(err.value) == f"source lexeme must be a string, got {lexeme!r}"


class TestTranslateEntry:
    """``translate`` names a config or tree of the wrong type, called directly or
    through ``evaluate_corpus``, which locates the error at the first record."""

    BAD = [
        ({"config": None}, "config must be a SelectionConfig, got None"),
        ({"config": {}}, "config must be a SelectionConfig, got {}"),
        ({"tree": "x"}, "tree must be a TreeBranch, a ConceptId or None, got 'x'"),
    ]

    @pytest.mark.parametrize("bad, message", BAD)
    def test_directly(self, store, lexicon, tree, bad, message):
        args = resolve_clause(store, "entity", "break", [(Role.E1, "stick-1")])
        given = {"config": SelectionConfig(), "tree": tree, **bad}
        with pytest.raises(LexselError) as err:
            translate(lexicon, store, args, **given)
        assert str(err.value) == message

    @pytest.mark.parametrize("bad, message", BAD)
    def test_through_evaluate_corpus(self, store, lexicon, tree, bad, message):
        corpus = load_corpus(bundled_text(CORPUS_FILE))
        first = corpus.records[0]
        given = {"config": SelectionConfig(), "tree": tree, **bad}
        with pytest.raises(LexselError) as err:
            evaluate_corpus(corpus, lexicon, store, **given)
        assert str(err.value) == f"line {first.line}: record {first.id!r}: {message}"


# values a library caller might pass where a clause or translate argument goes
CLAUSE_VALUES = st.one_of(
    st.none(),
    st.integers(-2, 2),
    st.text(max_size=6),
    st.binary(max_size=3),
    st.lists(st.text(max_size=3), max_size=2),
    st.sampled_from(["E0", "E1", "E2", "E9", Role.E1, "break", "hit", "stick-1", "john-1"]),
)


@settings(max_examples=150, deadline=None)
@given(
    lexeme=CLAUSE_VALUES,
    mentions=st.one_of(
        CLAUSE_VALUES,
        st.lists(
            st.one_of(
                st.tuples(CLAUSE_VALUES, CLAUSE_VALUES),
                st.tuples(CLAUSE_VALUES),
                st.tuples(CLAUSE_VALUES, CLAUSE_VALUES, CLAUSE_VALUES),
                CLAUSE_VALUES,
            ),
            max_size=3,
        ),
    ),
    markers=st.one_of(CLAUSE_VALUES, st.lists(CLAUSE_VALUES, max_size=3)),
    config=st.sampled_from([SelectionConfig(), None, {}, 0.5, "config"]),
    node=st.sampled_from(["bundled", None, "x", ConceptId("action", "%hit-action"), ()]),
)
def test_any_clause_gives_a_result_or_a_lexsel_error(
    store, lexicon, tree, lexeme, mentions, markers, config, node
):
    """Mentions of any shape, pairs of any values among them, with any lexeme, markers,
    config and tree."""
    node = tree if node == "bundled" else node
    try:
        args = resolve_clause(store, "entity", lexeme, mentions, markers)
        translate(lexicon, store, args, config, node)
    except LexselError:
        pass
