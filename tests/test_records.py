"""Record semantics that callers rely on: read-only fields, value equality and hashing.

The records are ``NamedTuple``s.  Each case below is built from the bundled data,
the way a caller meets it.  ``DomainTaxonomy`` and ``DomainWeights`` also carry
memos outside the tuple, which take no part in equality; no record carries any
other state outside its fields.
"""

import pytest

from conftest import args_for
from lexsel import (
    DomainTaxonomy,
    LexselError,
    Role,
    SelectionConfig,
    evaluate_corpus,
    load_corpus,
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
    {
        "DomainTaxonomy",
        "TaxonomyStore",
        "VerbSense",
        "ArgumentStructure",
        "Lexicon",
        "InterRep",
        "Translation",
        "DomainWeights",
        "SelectionConfig",
    }
)
MEMOS = frozenset({"_up", "_lcs", "_near", "_shares"})  # the only attributes outside a tuple


def translate_stick(store, lexicon, tree):
    args = args_for(store, e0="john-1", e1="stick-1")
    return translate(lexicon, store, args, SelectionConfig(), tree)


def bundled_records() -> dict:
    store = load_bundled_store()
    lexicon = load_bundled_lexicon(store)
    tree = load_bundled_tree(store, lexicon.nominal_domain)
    corpus = load_corpus(bundled_text(CORPUS_FILE))
    config = SelectionConfig()
    report = evaluate_corpus(corpus, lexicon, store, config, tree)
    result = translate_stick(store, lexicon, tree)
    top = result.ranking[0]
    sense = lexicon.senses[result.source_sense]
    leaf = tree
    while isinstance(leaf, TreeBranch):
        leaf = leaf.then
    found = [
        store.domains["entity"],
        store,
        sense.constraints[0],
        next(iter(sense.projection.values())),
        sense,
        args_for(store, e1="stick-1").bindings[Role.E1],
        args_for(store, e0="john-1", e1="stick-1"),
        lexicon,
        result.inter_rep,
        top.domains[0],
        top.constraints[0],
        config.weights,
        top.score,
        top,
        config,
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
    assert len(RECORDS) == 22


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_are_read_only(name):
    record = RECORDS[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_no_state_outside_the_fields_but_memos(name):
    assert set(getattr(RECORDS[name], "__dict__", {})) <= MEMOS


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


def test_a_twin_domain_starts_with_empty_memos():
    dom = RECORDS["DomainTaxonomy"]  # its memos were filled while the corpus was evaluated
    assert dom._up and dom._lcs
    for twin in (DomainTaxonomy(**dom._asdict()), dom._replace()):
        assert twin == dom
        assert (twin._up, twin._lcs, twin._near) == ({}, {}, {})


def test_replace_builds_through_the_constructor():
    assert RECORDS["DomainWeights"]._replace()._shares == {}
    with pytest.raises(LexselError, match=r"floor must be within \[0, 1\], got 2"):
        RECORDS["SelectionConfig"]._replace(floor=2)
