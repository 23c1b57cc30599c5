"""Record semantics that callers rely on: read-only fields, value equality and hashing.

The plain value records are ``NamedTuple``s.  Each case below is built from the
bundled data, the way a caller meets it.
"""

import pytest

from lexsel import (
    ArgumentStructure,
    Role,
    SelectionConfig,
    evaluate_corpus,
    load_corpus,
    resolve_mention,
    translate,
)
from lexsel.bundled import (
    CORPUS_FILE,
    bundled_text,
    load_bundled_lexicon,
    load_bundled_store,
    load_bundled_tree,
)
from lexsel.selector import TreeBranch

# record types with a dict among their fields, directly or through a nested record
UNHASHABLE = frozenset(
    {"TaxonomyStore", "VerbSense", "ArgumentStructure", "Lexicon", "InterRep", "Translation"}
)


def stick_clause(store) -> ArgumentStructure:
    return ArgumentStructure(
        source_lexeme="break",
        bindings={
            Role.E0: resolve_mention(store, "entity", "john-1"),
            Role.E1: resolve_mention(store, "entity", "stick-1"),
        },
    )


def translate_stick(store, lexicon, tree):
    return translate(lexicon, store, stick_clause(store), SelectionConfig(), tree)


def bundled_records() -> dict:
    store = load_bundled_store()
    lexicon = load_bundled_lexicon(store)
    tree = load_bundled_tree(store, lexicon.nominal_domain)
    corpus = load_corpus(bundled_text(CORPUS_FILE))
    report = evaluate_corpus(corpus, lexicon, store, SelectionConfig(), tree)
    result = translate_stick(store, lexicon, tree)
    top = result.ranking[0]
    sense = lexicon.senses[result.source_sense]
    leaf = tree
    while isinstance(leaf, TreeBranch):
        leaf = leaf.then
    found = [
        store,
        sense.constraints[0],
        next(iter(sense.projection.values())),
        sense,
        resolve_mention(store, "entity", "stick-1"),
        stick_clause(store),
        lexicon,
        result.inter_rep,
        top.score.domains[0],
        top.score.constraints[0],
        top,
        tree.test,
        tree,
        leaf,
        result,
        corpus.records[0],
        corpus,
        report.items[0],
        report,
    ]
    return {type(record).__name__: record for record in found}


RECORDS = bundled_records()


def test_every_record_type_is_covered():
    assert len(RECORDS) == 19


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_are_read_only(name):
    record = RECORDS[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_values_compare_and_hash_equal(name):
    record = RECORDS[name]
    twin = type(record)(**record._asdict())
    assert twin is not record and twin == record
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)


def test_translations_of_one_clause_compare_equal():
    first = RECORDS["Translation"]
    store = load_bundled_store()  # nothing shared with the first translation
    lexicon = load_bundled_lexicon(store)
    again = translate_stick(store, lexicon, load_bundled_tree(store, lexicon.nominal_domain))
    assert again is not first and again == first
