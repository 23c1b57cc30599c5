"""Corpus parsing, batch evaluation, and gold-label frequency counts."""

import json
from fractions import Fraction

import pytest

from lexsel import (
    Corpus,
    CorpusFormatError,
    CorpusRecord,
    Role,
    SelectionConfig,
    UnboundRoleError,
    UnknownConceptError,
    UnknownLexemeError,
    evaluate_corpus,
    frequency_table,
    load_corpus,
    to_argument_structure,
)
from lexsel.bundled import CORPUS_FILE, COUNTS_FILE, bundled_text


@pytest.fixture(scope="module")
def corpus():
    return load_corpus(bundled_text(CORPUS_FILE))


def lines(*objs) -> str:
    return "\n".join(json.dumps(o) for o in objs)


RECORD = {
    "id": "r1",
    "source_lexeme": "break",
    "bindings": {"E1": "vase-1"},
    "context": [],
    "gold": "da-sui",
}


class TestLoadCorpus:
    def test_bundled_corpus(self, corpus):
        assert len(corpus.records) == 12
        assert corpus.markers == {"into-pieces", "earthquake"}
        assert [r.id for r in corpus.records] == [f"s{i}" for i in range(1, 13)]

    def test_header_is_optional(self):
        corpus = load_corpus(lines(RECORD))
        assert corpus.markers == frozenset()
        assert corpus.records[0].id == "r1"

    def test_bindings_preserve_role_order(self):
        record = dict(RECORD, bindings={"E2": "hammer-1", "E0": "john-1", "E1": "vase-1"})
        corpus = load_corpus(lines(record))
        assert [role.value for role, _ in corpus.records[0].bindings] == ["E0", "E1", "E2"]

    def test_blank_lines_are_skipped(self):
        corpus = load_corpus("\n" + lines(RECORD) + "\n\n")
        assert len(corpus.records) == 1

    def test_record_knows_its_line_number(self):
        header = {"markers": ["m"], "note": ""}
        corpus = load_corpus(lines(header, RECORD))
        assert corpus.records[0].line == 2

    def test_rejects_bad_json_with_line_number(self):
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(lines(RECORD) + "\n{oops}")

    @pytest.mark.parametrize("separator", ["\u0085", "\u2028", "\u2029"])
    def test_only_newline_ends_a_record(self, separator):
        # JSON allows these raw inside strings; str.splitlines would split there
        text = json.dumps(dict(RECORD, gold=f"da{separator}sui"), ensure_ascii=False)
        corpus = load_corpus(text + "\r\n" + json.dumps(dict(RECORD, id="r2")))
        assert [r.gold for r in corpus.records] == [f"da{separator}sui", "da-sui"]
        assert [r.line for r in corpus.records] == [1, 2]
        with pytest.raises(CorpusFormatError, match="^line 2 is not valid JSON"):
            load_corpus(text + "\n{oops}")

    def test_rejects_deeply_nested_line(self):
        with pytest.raises(CorpusFormatError, match="line 2 is not valid JSON"):
            load_corpus(lines(RECORD) + "\n" + "[" * 5000 + "]" * 5000)

    def test_rejects_undeclared_marker(self):
        record = dict(RECORD, context=["by-accident"])
        with pytest.raises(CorpusFormatError, match="undeclared marker"):
            load_corpus(lines({"markers": ["into-pieces"]}, record))

    def test_rejects_marker_when_no_header(self):
        record = dict(RECORD, context=["into-pieces"])
        with pytest.raises(CorpusFormatError, match="undeclared marker"):
            load_corpus(lines(record))

    def test_rejects_unhashable_marker(self):
        record = dict(RECORD, context=[{"marker": "into-pieces"}])
        with pytest.raises(CorpusFormatError, match="line 2: record 'r1' context markers"):
            load_corpus(lines({"markers": ["into-pieces"]}, record))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(CorpusFormatError, match="duplicate record id"):
            load_corpus(lines(RECORD, RECORD))

    def test_rejects_unknown_role(self):
        record = dict(RECORD, bindings={"E5": "x"})
        with pytest.raises(CorpusFormatError, match="unknown roles"):
            load_corpus(lines(record))

    def test_rejects_missing_lexeme(self):
        record = {k: v for k, v in RECORD.items() if k != "source_lexeme"}
        with pytest.raises(CorpusFormatError, match="source_lexeme"):
            load_corpus(lines(record))

    def test_rejects_header_after_records(self):
        # a marker-set line that is not first is treated as a bad record
        with pytest.raises(CorpusFormatError, match="needs a non-empty id"):
            load_corpus(lines(RECORD, {"markers": ["x"]}))

    def test_gold_is_optional_at_load_time(self):
        record = {k: v for k, v in RECORD.items() if k != "gold"}
        corpus = load_corpus(lines(record))
        assert corpus.records[0].gold is None


class TestToArgumentStructure:
    def test_resolves_mentions_and_markers(self, store, corpus):
        by_id = {r.id: r for r in corpus.records}
        args = to_argument_structure(by_id["s5"], store, "entity")
        assert args.source_lexeme == "break"
        assert args.bindings[Role.E1].concept.name == "stick"
        assert "into-pieces" in args.context_markers


class TestEvaluateCorpus:
    def test_bundled_corpus_is_fully_correct(self, corpus, lexicon, store, tree):
        report = evaluate_corpus(corpus, lexicon, store, SelectionConfig(), tree)
        assert report.total == 12
        assert report.correct == 12
        assert report.accuracy == 1

    def test_single_corrupted_gold_is_the_only_miss(self, corpus, lexicon, store, tree):
        records = list(corpus.records)
        records[0] = CorpusRecord(
            id=records[0].id,
            source_lexeme=records[0].source_lexeme,
            bindings=records[0].bindings,
            context=records[0].context,
            gold="wrong-verb",
            line=records[0].line,
        )
        corrupted = Corpus(markers=corpus.markers, records=tuple(records))
        report = evaluate_corpus(corrupted, lexicon, store, SelectionConfig(), tree)
        assert report.correct == 11
        assert report.accuracy == Fraction(11, 12)
        assert [i.id for i in report.items if not i.match] == ["s1"]

    def test_vocabulary_gap_counts_as_incorrect(self, corpus, lexicon, store, tree):
        config = SelectionConfig(floor=Fraction(81, 100))
        report = evaluate_corpus(corpus, lexicon, store, config, tree)
        gap_items = [i for i in report.items if i.predicted is None]
        assert gap_items, "a floor of 0.81 starves at least one record"
        assert all(not i.match for i in gap_items)
        assert report.correct < report.total

    def test_requires_gold_labels(self, lexicon, store):
        record = {k: v for k, v in RECORD.items() if k != "gold"}
        corpus = load_corpus(lines(record))
        with pytest.raises(CorpusFormatError, match="^line 1: record 'r1' has no gold label$"):
            evaluate_corpus(corpus, lexicon, store)

    @pytest.mark.parametrize(
        "change, error, message",
        [
            (
                {"bindings": {"E0": "john-1"}},
                UnboundRoleError,
                "slot ch-of-state (%change-of-integrity E1) needs role E1 but it is not bound",
            ),
            (
                {"bindings": {"E1": "unicorn-1"}},
                UnknownConceptError,
                "mention 'unicorn-1' does not name a concept in domain 'entity'",
            ),
            ({"source_lexeme": "shred"}, UnknownLexemeError, "unknown source lexeme 'shred'"),
        ],
        ids=["unbound-role", "unknown-mention", "unknown-lexeme"],
    )
    def test_clause_error_names_the_record(self, lexicon, store, change, error, message):
        corpus = load_corpus(lines(RECORD, dict(RECORD, id="bad-9", **change)))
        with pytest.raises(error) as caught:
            evaluate_corpus(corpus, lexicon, store)
        assert type(caught.value) is error  # re-raised as the same type
        assert str(caught.value) == f"line 2: record 'bad-9': {message}"

    def test_unknown_mentions_are_reported_in_role_order(self, lexicon, store):
        bad = dict(RECORD, id="bad-9", bindings={"E1": "griffin-1", "E0": "unicorn-1"})
        corpus = load_corpus(lines(RECORD, bad))
        with pytest.raises(UnknownConceptError) as caught:
            evaluate_corpus(corpus, lexicon, store)
        assert str(caught.value) == (
            "line 2: record 'bad-9': "
            "mention 'unicorn-1' does not name a concept in domain 'entity'"
        )

    def test_rejects_empty_corpus(self, lexicon, store):
        with pytest.raises(CorpusFormatError, match="no records"):
            evaluate_corpus(Corpus(markers=frozenset(), records=()), lexicon, store)


class TestFrequencyTable:
    def test_bundled_counts_fixture(self):
        table = frequency_table(load_corpus(bundled_text(COUNTS_FILE)))
        assert table == (
            ("dasui", 107),
            ("pohui", 22),
            ("jianxie", 14),
            ("juelie", 5),
            ("weifan", 2),
        )
        assert sum(count for _, count in table) == 150

    def test_counts_are_non_increasing(self):
        table = frequency_table(load_corpus(bundled_text(COUNTS_FILE)))
        counts = [count for _, count in table]
        assert counts == sorted(counts, reverse=True)

    def test_ties_order_by_lexeme(self):
        records = [
            dict(RECORD, id=f"r{i}", gold=gold)
            for i, gold in enumerate(["b-verb", "a-verb", "a-verb", "b-verb"])
        ]
        table = frequency_table(load_corpus(lines(*records)))
        assert table == (("a-verb", 2), ("b-verb", 2))

    def test_total_matches_record_count(self, corpus):
        assert sum(count for _, count in frequency_table(corpus)) == len(corpus.records)

    def test_rejects_missing_gold(self):
        record = {k: v for k, v in RECORD.items() if k != "gold"}
        with pytest.raises(CorpusFormatError, match="^line 1: record 'r1' has no gold label$"):
            frequency_table(load_corpus(lines(record)))
