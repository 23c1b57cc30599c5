"""Every loader error message, byte for byte.

One broken document per ``raise`` reachable from ``load_taxonomy``,
``DomainTaxonomy.build``, ``load_lexicon``, ``load_decision_tree`` and
``load_corpus``, plus documents with several faults that pin which error
wins.  Each case checks the exception type and the exact ``str(exc)``, so
a loader that formats its error locations differently, or checks in a
different order, fails here.
"""

import json

import pytest

from lexsel import (
    CorpusFormatError,
    DecisionTreeFormatError,
    LexiconFormatError,
    TaxonomyFormatError,
    load_corpus,
    load_decision_tree,
    load_lexicon,
    load_taxonomy,
)

HUGE_INTEGER = "1" * 5000  # beyond the interpreter's 4300-digit str -> int limit
DEEP = '{"a":' * 3000 + "{}" + "}" * 3000


def _concept(cid, *parents, **extra):
    return {"id": cid, "parents": list(parents), **extra}


def _taxonomy(*domains, **top):
    return json.dumps({"domains": list(domains), **top})


def _domain(name, *concepts):
    return {"name": name, "concepts": list(concepts)}


ROOTED = (_concept("r"), _concept("a", "r"))  # a valid two-concept domain

TAXONOMY = [
    ("bom", "\ufeff{}", "taxonomy document is not valid JSON: Unexpected UTF-8 BOM "
     "(decode using utf-8-sig): line 1 column 1 (char 0)"),
    ("empty-text", "", "taxonomy document is not valid JSON: Expecting value: "
     "line 1 column 1 (char 0)"),
    ("truncated", '{"domains": [', "taxonomy document is not valid JSON: Expecting value: "
     "line 1 column 14 (char 13)"),
    ("huge-integer", '{"domains": [], "note": ' + HUGE_INTEGER + "}",
     "taxonomy document is not valid JSON: Exceeds the limit (4300 digits) for integer "
     "string conversion: value has 5000 digits; use sys.set_int_max_str_digits() "
     "to increase the limit"),
    ("nested-too-deeply", DEEP, "taxonomy document is not valid JSON: nested too deeply"),
    ("top-level-list", "[]", 'taxonomy document must be {"domains": [...]}'),
    ("domains-not-list", '{"domains": {}}', 'taxonomy document must be {"domains": [...]}'),
    ("note-not-string", _taxonomy(note=3), 'taxonomy "note" must be a string'),
    ("domain-entry-not-object", _taxonomy("x"), "domain entry must be an object"),
    ("domain-name-missing", _taxonomy({"concepts": []}),
     "taxonomy document: domain name must be a non-empty string"),
    ("domain-name-empty", _taxonomy(_domain("")),
     "taxonomy document: domain name must be a non-empty string"),
    ("domain-name-whitespace", _taxonomy(_domain("d x", *ROOTED)),
     "taxonomy document: domain name 'd x' contains whitespace"),
    ("domain-name-colon", _taxonomy(_domain("d:x", *ROOTED)),
     "taxonomy document: domain name 'd:x' contains ':'"),
    ("duplicate-domain", _taxonomy(_domain("d", *ROOTED), _domain("d", *ROOTED)),
     "duplicate domain 'd'"),
    ("concepts-missing", _taxonomy({"name": "d"}),
     "domain 'd': needs a non-empty concept list"),
    ("concepts-empty", _taxonomy(_domain("d")), "domain 'd': needs a non-empty concept list"),
    ("concept-not-object", _taxonomy(_domain("d", "r")),
     "domain 'd': concept entry must be an object"),
    ("concept-id-not-string", _taxonomy(_domain("d", _concept(7))),
     "domain 'd': concept id must be a non-empty string"),
    ("concept-id-whitespace", _taxonomy(_domain("d", _concept("a\u2003b"))),
     "domain 'd': concept id 'a\\u2003b' contains whitespace"),
    ("concept-id-colon", _taxonomy(_domain("d", _concept("a:b"))),
     "domain 'd': concept id 'a:b' contains ':'"),
    ("duplicate-concept", _taxonomy(_domain("d", _concept("r"), _concept("r"))),
     "domain 'd': duplicate concept 'r'"),
    ("label-not-string", _taxonomy(_domain("d", _concept("r", label=1))),
     "domain 'd': concept 'r' label must be a string"),
    ("parents-missing", _taxonomy(_domain("d", {"id": "r"})),
     "domain 'd': concept 'r' needs a parent list"),
    ("parent-not-string", _taxonomy(_domain("d", _concept("r"), _concept("a", None))),
     "domain 'd' concept 'a': parent id must be a non-empty string"),
    ("parent-not-string-next-to-string",
     _taxonomy(_domain("d", _concept("r"), _concept("a", "r", 5))),
     "domain 'd' concept 'a': parent id must be a non-empty string"),
    ("parent-empty", _taxonomy(_domain("d", _concept("r"), _concept("a", ""))),
     "domain 'd' concept 'a': parent id must be a non-empty string"),
    ("parent-whitespace", _taxonomy(_domain("d", _concept("r"), _concept("a", "r\n"))),
     "domain 'd' concept 'a': parent id 'r\\n' contains whitespace"),
    ("parent-colon", _taxonomy(_domain("d", _concept("r"), _concept("a", "d:r"))),
     "domain 'd' concept 'a': parent id 'd:r' contains ':'"),
    ("parent-twice", _taxonomy(_domain("d", _concept("r"), _concept("a", "r", "r"))),
     "domain 'd': concept 'a' lists a parent twice"),
    # DomainTaxonomy.build
    ("no-root", _taxonomy(_domain("d", _concept("a", "b"), _concept("b", "a"))),
     "domain 'd': no root concept (zero parents)"),
    ("two-roots", _taxonomy(_domain("d", _concept("s"), _concept("r"))),
     "domain 'd': multiple root concepts: r, s"),
    ("missing-parent", _taxonomy(_domain("d", _concept("r"), _concept("a", "q"))),
     "domain 'd': concept 'a' names missing parent 'q'"),
    ("cycle", _taxonomy(_domain("d", _concept("r"), _concept("a", "r", "b"),
                                _concept("b", "a"))),
     "domain 'd': cycle through concept 'a'"),
    # Several faults: the first one met wins.
    ("token-before-duplicate-parent",
     _taxonomy(_domain("d", _concept("r"), _concept("a", "r", "r", "x y"))),
     "domain 'd' concept 'a': parent id 'x y' contains whitespace"),
    ("first-bad-parent-in-list-order",
     _taxonomy(_domain("d", _concept("r"), _concept("a", "z:z", 1))),
     "domain 'd' concept 'a': parent id 'z:z' contains ':'"),
    ("concept-fault-before-missing-parent",
     _taxonomy(_domain("d", _concept("r"), _concept("a", "q"), _concept("a", "r"))),
     "domain 'd': duplicate concept 'a'"),
    ("earlier-domain-build-before-later-domain",
     _taxonomy(_domain("d", _concept("r"), _concept("s")), _domain("e", "bad")),
     "domain 'd': multiple root concepts: r, s"),
    ("no-root-before-missing-parent", _taxonomy(_domain("d", _concept("a", "q"))),
     "domain 'd': no root concept (zero parents)"),
]


@pytest.mark.parametrize(
    "text, message", [case[1:] for case in TAXONOMY], ids=[case[0] for case in TAXONOMY]
)
def test_taxonomy_message(text, message):
    with pytest.raises(TaxonomyFormatError) as info:
        load_taxonomy(text)
    assert type(info.value) is TaxonomyFormatError
    assert str(info.value) == message


OBL_SLOT = {"domain": "ch-of-state", "status": "OBL", "concept": "%change-of-integrity",
            "args": ["E1"]}
SENSE = {
    "sense_id": "S-1",
    "lexeme": "s",
    "language": "target",
    "gloss": "g",
    "constraints": [{"role": "E1", "concept": "physical-object"}],
    "projection": [OBL_SLOT],
}


def _lexicon(*senses, nominal="entity"):
    return json.dumps({"nominal_domain": nominal, "senses": list(senses)})


def _sense(**fields):
    return {**SENSE, **fields}


def _slot(**fields):
    return _sense(projection=[OBL_SLOT, {"domain": "causation", "status": "OPT",
                                         "concept": "%cause", **fields}])


def _constraint(**fields):
    return _sense(constraints=[{"role": "E0", "concept": "animate-object", **fields}])


def _without(key):
    return {k: v for k, v in SENSE.items() if k != key}


LEXICON = [
    ("bom", "\ufeff{}", "lexicon document is not valid JSON: Unexpected UTF-8 BOM "
     "(decode using utf-8-sig): line 1 column 1 (char 0)"),
    ("bad-json", "{'senses': []}", "lexicon document is not valid JSON: Expecting property "
     "name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("nested-too-deeply", DEEP, "lexicon document is not valid JSON: nested too deeply"),
    ("not-object", "[]", "lexicon document must be an object"),
    ("nominal-missing", '{"senses": []}', "nominal_domain None is not a loaded domain"),
    ("nominal-unknown", _lexicon(nominal="thing"),
     "nominal_domain 'thing' is not a loaded domain"),
    ("senses-not-list", '{"nominal_domain": "entity", "senses": {}}',
     'lexicon document needs a "senses" list'),
    ("sense-not-object", _lexicon(3), "sense entry must be an object"),
    ("sense-id-not-string", _lexicon(_sense(sense_id=1)),
     "sense: field 'sense_id' must be a string"),
    ("duplicate-sense", _lexicon(SENSE, SENSE), "duplicate sense_id 'S-1'"),
    ("lexeme-missing", _lexicon(_without("lexeme")),
     "sense 'S-1': field 'lexeme' must be a string"),
    ("language-not-string", _lexicon(_sense(language=None)),
     "sense 'S-1': field 'language' must be a string"),
    ("language-unknown", _lexicon(_sense(language="middle")),
     "sense 'S-1': language must be 'source' or 'target'"),
    ("gloss-missing", _lexicon(_without("gloss")),
     "sense 'S-1': field 'gloss' must be a string"),
    ("example-not-string", _lexicon(_sense(example=[])),
     "sense 'S-1': example must be a string"),
    ("constraints-not-list", _lexicon(_sense(constraints={})),
     "sense 'S-1': constraints must be a list"),
    ("constraint-not-object", _lexicon(_sense(constraints=["E0"])),
     "sense 'S-1': constraint must be an object"),
    ("constraint-role-not-string", _lexicon(_constraint(role=0)),
     "sense 'S-1': field 'role' must be a string"),
    ("constraint-role-unknown", _lexicon(_constraint(role="E3")),
     "sense 'S-1': bad constraint role 'E3'"),
    ("constraint-concept-not-string", _lexicon(_constraint(concept=None)),
     "sense 'S-1': field 'concept' must be a string"),
    ("constraint-concept-unknown", _lexicon(_constraint(concept="unicorn")),
     "sense 'S-1': constraint names unknown nominal concept 'unicorn'"),
    ("projection-missing", _lexicon(_without("projection")),
     "sense 'S-1': needs a non-empty projection list"),
    ("projection-empty", _lexicon(_sense(projection=[])),
     "sense 'S-1': needs a non-empty projection list"),
    ("slot-not-object", _lexicon(_sense(projection=["OBL"])),
     "sense 'S-1': projection slot must be an object"),
    ("slot-domain-not-string", _lexicon(_slot(domain=4)),
     "sense 'S-1': field 'domain' must be a string"),
    ("slot-domain-unknown", _lexicon(_slot(domain="smell")),
     "sense 'S-1': unknown domain 'smell'"),
    ("slot-status-missing", _lexicon(_sense(projection=[{"domain": "causation"}])),
     "sense 'S-1': field 'status' must be a string"),
    ("slot-status-unknown", _lexicon(_slot(status="obl")),
     "sense 'S-1': bad slot status 'obl'"),
    ("slot-concept-not-string", _lexicon(_slot(concept=["%cause"])),
     "sense 'S-1': slot concept must be a string"),
    ("slot-concept-unknown", _lexicon(_slot(concept="%push")),
     "sense 'S-1': domain 'causation' has no concept '%push'"),
    ("slot-concept-from-other-domain", _lexicon(_slot(concept="%action")),
     "sense 'S-1': domain 'causation' has no concept '%action'"),
    ("obl-slot-without-concept", _lexicon(_sense(projection=[{"domain": "action",
                                                              "status": "OBL"}])),
     "sense 'S-1': OBL slot in domain 'action' must name a concept"),
    ("opt-slot-null-concept", _lexicon(_slot(concept=None)),
     "sense 'S-1': OPT slot in domain 'causation' must name a concept"),
    ("slot-args-not-list", _lexicon(_slot(args="E0")),
     "sense 'S-1': slot args must be a list"),
    ("slot-arg-unknown", _lexicon(_slot(args=["E0", "E9"])),
     "sense 'S-1': bad argument token 'E9'"),
    ("slot-arg-object", _lexicon(_slot(args=[{"E0": 1}])),
     "sense 'S-1': bad argument token {'E0': 1}"),
    ("two-slots-in-one-domain", _lexicon(_sense(projection=[OBL_SLOT, OBL_SLOT])),
     "sense 'S-1': more than one slot in domain 'ch-of-state'"),
    ("no-obl-slot", _lexicon(_sense(projection=[{"domain": "action", "status": "IMP"}])),
     "sense 'S-1': needs at least one OBL slot"),
    # Several faults: the first one met wins.
    ("bad-constraint-before-bad-slot",
     _lexicon(_sense(constraints=[{"role": "E7", "concept": "unicorn"}],
                     projection=[{"domain": "smell", "status": "OBL"}])),
     "sense 'S-1': bad constraint role 'E7'"),
    ("duplicate-id-before-bad-fields", _lexicon(SENSE, _sense(lexeme=1, gloss=2)),
     "duplicate sense_id 'S-1'"),
    ("earlier-sense-wins", _lexicon(_slot(status="X"), _sense(sense_id="S-2", gloss=None)),
     "sense 'S-1': bad slot status 'X'"),
]


@pytest.mark.parametrize(
    "text, message", [case[1:] for case in LEXICON], ids=[case[0] for case in LEXICON]
)
def test_lexicon_message(store, text, message):
    with pytest.raises(LexiconFormatError) as info:
        load_lexicon(text, store)
    assert type(info.value) is LexiconFormatError
    assert str(info.value) == message


LEAF = {"action": "%hit-action"}


def _branch(test, then=LEAF, otherwise=LEAF):
    return {"test": test, "then": then, "else": otherwise}


def _tree(doc):
    return json.dumps(doc)


TREE = [
    ("bom", "\ufeff{}", "tree document is not valid JSON: Unexpected UTF-8 BOM "
     "(decode using utf-8-sig): line 1 column 1 (char 0)"),
    ("trailing-data", "{} {}", "tree document is not valid JSON: Extra data: "
     "line 1 column 4 (char 3)"),
    ("nested-too-deeply", DEEP, "tree document is not valid JSON: nested too deeply"),
    ("root-not-object", "[]", "root: node must be an object"),
    ("action-not-string", _tree({"action": 1}), "root: leaf action must be a string"),
    ("action-unknown", _tree({"action": "%kick-action"}),
     "root: leaf names unknown action concept '%kick-action'"),
    ("action-from-other-domain", _tree({"action": "entity"}),
     "root: leaf names unknown action concept 'entity'"),
    ("node-incomplete", _tree({"test": {"kind": "has-marker", "marker": "m"}, "then": LEAF}),
     "root: node needs either an action or test/then/else"),
    ("action-with-test", _tree({**LEAF, **_branch({"kind": "has-marker", "marker": "m"})}),
     "root: node needs either an action or test/then/else"),
    ("test-not-object", _tree(_branch("is-a")), "root: test must be an object"),
    ("is-a-unknown", _tree(_branch({"kind": "is-a", "concept": "unicorn"})),
     "root: is-a test names unknown nominal concept 'unicorn'"),
    ("is-a-not-string", _tree(_branch({"kind": "is-a", "concept": 2})),
     "root: is-a test names unknown nominal concept 2"),
    ("has-marker-empty", _tree(_branch({"kind": "has-marker", "marker": ""})),
     "root: has-marker test needs a marker string"),
    ("role-bound-unknown", _tree(_branch({"kind": "role-bound", "role": "E5"})),
     "root: role-bound test has bad role 'E5'"),
    ("role-bound-unhashable", _tree(_branch({"kind": "role-bound", "role": ["E0"]})),
     "root: role-bound test has bad role ['E0']"),
    ("kind-unknown", _tree(_branch({"kind": "isa", "concept": "entity"})),
     "root: unknown test kind 'isa'"),
    ("nested-path", _tree(_branch({"kind": "has-marker", "marker": "m"},
                                  then=LEAF, otherwise=_branch({"kind": "role-bound",
                                                                "role": "E0"},
                                                               then=[]))),
     "root/else/then: node must be an object"),
    # Several faults: the first one met wins.
    ("then-before-else", _tree(_branch({"kind": "has-marker", "marker": "m"},
                                       then={"action": 0}, otherwise=7)),
     "root/then: leaf action must be a string"),
    ("test-before-children", _tree(_branch({"kind": "?"}, then=1, otherwise=2)),
     "root: unknown test kind '?'"),
]


@pytest.mark.parametrize(
    "text, message", [case[1:] for case in TREE], ids=[case[0] for case in TREE]
)
def test_tree_message(store, text, message):
    with pytest.raises(DecisionTreeFormatError) as info:
        load_decision_tree(text, store, "entity")
    assert type(info.value) is DecisionTreeFormatError
    assert str(info.value) == message


def test_tree_needs_the_action_domain():
    no_action = load_taxonomy(_taxonomy(_domain("entity", _concept("entity"))))
    with pytest.raises(DecisionTreeFormatError) as info:
        load_decision_tree(_tree(LEAF), no_action, "entity")
    assert str(info.value) == "unknown action domain 'action'"
    # Bad JSON is reported before the missing domain.
    with pytest.raises(DecisionTreeFormatError) as info:
        load_decision_tree("{", no_action, "entity")
    assert str(info.value) == (
        "tree document is not valid JSON: Expecting property name enclosed in double "
        "quotes: line 1 column 2 (char 1)"
    )


def test_tree_needs_a_loaded_nominal_domain(store):
    with pytest.raises(DecisionTreeFormatError) as info:
        load_decision_tree(_tree(LEAF), store, "no-such-domain")
    assert str(info.value) == "nominal_domain 'no-such-domain' is not a loaded domain"
    # The missing action domain is reported first.
    no_action = load_taxonomy(_taxonomy(_domain("entity", _concept("entity"))))
    with pytest.raises(DecisionTreeFormatError) as info:
        load_decision_tree(_tree(LEAF), no_action, "no-such-domain")
    assert str(info.value) == "unknown action domain 'action'"


HEADER = '{"markers": ["m"], "note": "n"}'


def _record(**fields):
    return json.dumps({"id": "r1", "source_lexeme": "break", **fields})


def _corpus(*lines):
    return "\n".join(lines)


CORPUS = [
    ("bom", "\ufeff{}", "line 1 is not valid JSON: Unexpected UTF-8 BOM "
     "(decode using utf-8-sig): line 1 column 1 (char 0)"),
    ("bad-json-line", _corpus(HEADER, "", "{"), "line 3 is not valid JSON: Expecting "
     "property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("nested-too-deeply", DEEP, "line 1 is not valid JSON: nested too deeply"),
    ("record-not-object", _corpus(HEADER, "[1]"), "line 2: record must be an object"),
    ("markers-not-list", '{"markers": "m"}', "line 1: markers must be a list of strings"),
    ("marker-empty", '{"markers": ["m", ""]}', "line 1: markers must be a list of strings"),
    ("note-not-string", '{"markers": [], "note": 1}', "line 1: note must be a string"),
    ("duplicate-id", _corpus(HEADER, _record(), _record()),
     "line 3: duplicate record id 'r1'"),
    ("id-missing", _corpus(HEADER, '{"source_lexeme": "break"}'),
     "line 2: record needs a non-empty id"),
    ("id-empty", _corpus(HEADER, _record(id="")), "line 2: record needs a non-empty id"),
    ("lexeme-missing", _corpus(HEADER, '{"id": "r1"}'),
     "line 2: record 'r1' needs a source_lexeme"),
    ("bindings-not-object", _corpus(HEADER, _record(bindings=["E0"])),
     "line 2: record 'r1' bindings must be an object"),
    ("binding-not-string", _corpus(HEADER, _record(bindings={"E1": 3})),
     "line 2: record 'r1' binding E1 must be a string"),
    ("binding-empty", _corpus(HEADER, _record(bindings={"E0": ""})),
     "line 2: record 'r1' binding E0 must be a string"),
    ("unknown-roles", _corpus(HEADER, _record(bindings={"E4": "x", "E0": "y", "A": "z"})),
     "line 2: record 'r1' has unknown roles ['A', 'E4']"),
    ("context-not-list", _corpus(HEADER, _record(context="m")),
     "line 2: record 'r1' context must be a list"),
    ("context-marker-not-string", _corpus(HEADER, _record(context=["m", 1])),
     "line 2: record 'r1' context markers must be strings"),
    ("context-marker-undeclared", _corpus(HEADER, _record(context=["x"])),
     "line 2: record 'r1' uses undeclared marker 'x'"),
    ("gold-empty", _corpus(HEADER, _record(gold="")),
     "line 2: record 'r1' gold must be a non-empty string"),
    ("gold-not-string", _corpus(HEADER, _record(gold=False)),
     "line 2: record 'r1' gold must be a non-empty string"),
    # Several faults: the first one met wins.
    ("binding-before-unknown-role",
     _corpus(HEADER, _record(bindings={"E9": "x", "E2": 0})),
     "line 2: record 'r1' binding E2 must be a string"),
    ("record-fault-before-duplicate-id",
     _corpus(_record(), _record(context=["m"])),
     "line 2: record 'r1' uses undeclared marker 'm'"),
    ("second-header-is-a-record", _corpus(HEADER, '{"markers": ["m"]}'),
     "line 2: record needs a non-empty id"),
    ("first-record-without-id", '{"bindings": {"E1": "cup-1"}, "gold": "dasui"}',
     "line 1: record needs a non-empty id"),
]


@pytest.mark.parametrize(
    "text, message", [case[1:] for case in CORPUS], ids=[case[0] for case in CORPUS]
)
def test_corpus_message(text, message):
    with pytest.raises(CorpusFormatError) as info:
        load_corpus(text)
    assert type(info.value) is CorpusFormatError
    assert str(info.value) == message
