"""Acceptance suite: one test and one printed verdict line per criterion.

Each test records ``ACCEPT pass <name>`` or ``ACCEPT FAIL <name>``; the
conftest terminal-summary hook prints every verdict after the run.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from conftest import DATA, args_for, child_env, record_verdict
from dag_oracle import as_taxonomy_doc, oracle_con_sim, oracle_lcs, random_rooted_dag
from lexsel import (
    ConceptId,
    SelectionConfig,
    con_sim,
    evaluate_corpus,
    least_common_superconcept,
    load_corpus,
    load_taxonomy,
    matcher,
    rerank_by_action,
    to_argument_structure,
    translate,
)
from lexsel.bundled import (
    CORPUS_FILE,
    COUNTS_FILE,
    bundled_text,
    load_bundled_lexicon,
    load_bundled_store,
    load_bundled_tree,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    line = record_verdict(name, ok, detail)
    assert ok, line


def test_concept_similarity_matches_brute_force():
    started = time.perf_counter()
    mismatches = 0
    dags = 1000
    for seed in range(dags):
        rng = random.Random(seed)
        parents = random_rooted_dag(rng, max_nodes=64)
        store = load_taxonomy(json.dumps(as_taxonomy_doc(parents)))
        names = sorted(parents)
        for _ in range(10):
            a, b = rng.choice(names), rng.choice(names)
            ca, cb = ConceptId("synthetic", a), ConceptId("synthetic", b)
            got = least_common_superconcept(store, ca, cb)
            want = oracle_lcs(parents, a, b)
            sim = con_sim(store, ca, cb)
            if (got.lcs.name, got.n1, got.n2, got.n3) != want:
                mismatches += 1
            elif sim != oracle_con_sim(parents, a, b):
                mismatches += 1
            elif not 0 < sim <= 1:
                mismatches += 1
            elif sim != con_sim(store, cb, ca):
                mismatches += 1
            elif con_sim(store, ca, ca) != 1:
                mismatches += 1
    elapsed = time.perf_counter() - started
    report(
        "concept-similarity-matches-brute-force",
        mismatches == 0 and elapsed < 10.0,
        f"{dags} DAGs, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_concept_similarity_fixed_values(store):
    tree4 = load_taxonomy(
        json.dumps(
            as_taxonomy_doc({"root": (), "A": ("root",), "B": ("A",), "C": ("A",)})
        )
    )
    chain3 = load_taxonomy(
        json.dumps(as_taxonomy_doc({"root": (), "A": ("root",), "B": ("A",)}))
    )

    def sid(name):
        return ConceptId("synthetic", name)

    checks = [
        con_sim(tree4, sid("B"), sid("C")) == Fraction(2, 3),
        con_sim(chain3, sid("root"), sid("B")) == Fraction(1, 2),
        con_sim(
            store,
            store.resolve("%change-of-integrity"),
            store.resolve("%separate-in-duan-state"),
        )
        == Fraction(4, 5),
    ]
    report("concept-similarity-fixed-values", all(checks), f"{sum(checks)}/3 values exact")


def test_near_synonym_ranking_for_branch(lexicon, store):
    results = translate(lexicon, store, args_for(store, e1="branch-1")).ranking
    ids = [r.sense_id for r in results]
    expected_pool = {"duan-la", "da-duan", "duan-cheng", "gua-duan", "zhe-duan"}
    ok = ids[0] == "duan-la" and expected_pool <= set(ids)
    report(
        "near-synonym-ranking-for-branch",
        ok,
        f"top={ids[0]}, {len(expected_pool & set(ids))}/5 duan verbs present",
    )


PROSE_SUITE = [
    ("break", {"e1": "vase-1"}, (), "da-sui"),
    ("break", {"e1": "stick-1"}, (), "zhe-duan"),
    ("break", {"e1": "stick-1"}, ("into-pieces",), "da-sui"),
    ("break", {"e1": "language-barrier-1"}, (), "da-po"),
    ("hit", {"e0": "bonds-1", "e1": "price-peak-1"}, (), "da-dao"),
]


def test_worked_translation_suite(lexicon, store, tree):
    hits = 0
    failures = []
    for lexeme, mentions, markers, expected in PROSE_SUITE:
        args = args_for(store, lexeme, markers=markers, **mentions)
        got = translate(lexicon, store, args, SelectionConfig(), tree).lexeme
        if got == expected:
            hits += 1
        else:
            failures.append(f"{lexeme} {mentions} -> {got} (wanted {expected})")
    report(
        "worked-translation-suite",
        hits == len(PROSE_SUITE),
        f"{hits}/{len(PROSE_SUITE)} clauses" + ("; " + "; ".join(failures) if failures else ""),
    )


def test_action_tree_promotes_only_within_ties(lexicon, store, tree):
    """Exhaustive check over every ranking the bundled data can produce.

    After promotion: equal-score ties put action matchers first, and the
    promoted list never lifts a sense above a strictly better concept band.
    """
    corpus = load_corpus(bundled_text(CORPUS_FILE))
    arg_sets = [
        to_argument_structure(r, store, lexicon.nominal_domain) for r in corpus.records
    ] + [args_for(store, lx, markers=m, **ms) for lx, ms, m, _ in PROSE_SUITE]
    actions = [
        ConceptId("action", name)
        for name in store.domain("action").nodes
        if name != store.domain("action").root
    ]

    def component(sense_id):
        slot = lexicon.senses[sense_id].projection.get("action")
        return None if slot is None else slot.concept

    violations = []
    rankings = 0
    for args in arg_sets:
        base = translate(lexicon, store, args).ranking
        for action in actions:
            got = rerank_by_action(base, action, lexicon)
            rankings += 1
            if sorted(r.sense_id for r in got) != sorted(r.sense_id for r in base):
                violations.append(f"{action.name}: candidates changed")
                continue
            for i, earlier in enumerate(got):
                for later in got[i + 1 :]:
                    if earlier.score == later.score:
                        if component(earlier.sense_id) != action and component(
                            later.sense_id
                        ) == action:
                            violations.append(
                                f"{action.name}: {later.sense_id} stuck under "
                                f"{earlier.sense_id} despite equal scores"
                            )
                    if earlier.score.concept_score < later.score.concept_score:
                        violations.append(
                            f"{action.name}: {earlier.sense_id} above a better band"
                        )
    report(
        "action-tree-promotes-only-within-ties",
        not violations,
        f"{rankings} rankings checked" + ("; " + violations[0] if violations else ""),
    )


def run_cli(*argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "lexsel", *argv], capture_output=True, text=True, timeout=60,
        env=child_env(),
    )


def test_bundled_corpus_accuracy(tmp_path):
    clean = run_cli("eval")
    clean_ok = clean.returncode == 0 and "accuracy: 12/12 = 1.000000" in clean.stdout

    corrupted_lines = []
    corrupted_done = False
    for line in bundled_text(CORPUS_FILE).splitlines():
        doc = json.loads(line)
        if not corrupted_done and "id" in doc:
            doc["gold"] = "not-a-verb"
            corrupted_done = True
        corrupted_lines.append(json.dumps(doc))
    corrupted_file = tmp_path / "corrupted.jsonl"
    corrupted_file.write_text("\n".join(corrupted_lines) + "\n")
    corrupted = run_cli("eval", "--corpus", str(corrupted_file))
    corrupted_ok = corrupted.returncode == 0 and "accuracy: 11/12" in corrupted.stdout

    library = evaluate_corpus(
        load_corpus(bundled_text(CORPUS_FILE)),
        load_bundled_lexicon(load_bundled_store()),
        load_bundled_store(),
        SelectionConfig(),
        load_bundled_tree(load_bundled_store()),
    )
    report(
        "bundled-corpus-accuracy",
        clean_ok and corrupted_ok and library.accuracy == 1,
        f"clean 12/12 via cli={clean_ok}, corrupted 11/12 via cli={corrupted_ok}",
    )


def test_frequency_table_fixture():
    result = run_cli("freq", "--corpus", os.path.join(DATA, COUNTS_FILE), "--format", "tsv")
    rows = [line.split("\t") for line in result.stdout.strip().splitlines()[1:]]
    expected = [
        ["1", "dasui", "107"],
        ["2", "pohui", "22"],
        ["3", "jianxie", "14"],
        ["4", "juelie", "5"],
        ["5", "weifan", "2"],
    ]
    counts = [int(count) for _, _, count in rows]
    ok = result.returncode == 0 and rows == expected and counts == sorted(counts, reverse=True)
    report(
        "frequency-table-fixture",
        ok,
        f"{len(rows)} lexemes via cli, total {sum(counts)}",
    )


CLI_BATTERY = [
    ["sim", "%change-of-integrity", "%separate-in-pieces-state", "--format", "json"],
    ["sim", "branch", "vase", "--format", "tsv"],
    ["select", "--lexeme", "break", "--e1", "branch-1", "--format", "json"],
    ["select", "--lexeme", "break", "--e0", "john-1", "--e1", "stick-1", "--explain"],
    ["select", "--lexeme", "break", "--e0", "john-1", "--e1", "stick-1",
     "--marker", "into-pieces", "--format", "tsv"],
    ["eval", "--format", "json"],
    ["eval", "--format", "tsv"],
    ["freq", "--format", "tsv"],
]


def test_cli_determinism():
    diffs = 0
    for argv in CLI_BATTERY:
        cmd = [sys.executable, "-m", "lexsel", *argv]
        first = subprocess.run(cmd, capture_output=True, timeout=60, env=child_env())
        second = subprocess.run(cmd, capture_output=True, timeout=60, env=child_env())
        if not (
            first.returncode == second.returncode == 0
            and first.stdout == second.stdout
            and first.stderr == second.stderr
        ):
            diffs += 1
    report(
        "cli-determinism",
        diffs == 0,
        f"{len(CLI_BATTERY)} commands run twice, {diffs} diffs",
    )


# The paper sets its graded scheme against the binary selection restrictions of
# transfer-based MT.  Each variant but the first switches one mechanism off; the
# map names every gold clause it loses and what it predicts instead (None: a gap).
PAPER_COMPARISON = {
    "shipped": {},
    "floor-1": dict.fromkeys(["s1", "s2", "s3", "s4", "s5", "s9", "s10"]),
    "no-tree": {"s4": "duan-la", "s5": "duan-cheng", "s11": "duan-cheng"},
    "binary-restrictions": {"s5": "da-duan", "s8": "duan-cheng"},
}


def binary_degree(store, concept, ancestor) -> Fraction:
    """A transfer-style restriction: it holds fully on is-a and not at all otherwise."""
    return Fraction(store.is_a(concept, ancestor))


def test_paper_comparison(monkeypatch, lexicon, store, tree):
    corpus = load_corpus(bundled_text(CORPUS_FILE))

    def run(config: SelectionConfig, tree) -> tuple[int, dict]:
        done = evaluate_corpus(corpus, lexicon, store, config, tree)
        return done.correct, {i.id: i.predicted for i in done.items if not i.match}

    found = {
        "shipped": run(SelectionConfig(), tree),
        "floor-1": run(SelectionConfig(floor=1), tree),  # no widening
        "no-tree": run(SelectionConfig(), None),
    }
    # disambiguation and scoring both read every constraint degree through ``_degree``
    monkeypatch.setattr(matcher, "_degree", binary_degree)
    found["binary-restrictions"] = run(SelectionConfig(), tree)
    total = len(corpus.records)
    ok = all(found[name] == (total - len(lost), lost) for name, lost in PAPER_COMPARISON.items())
    report(
        "paper-comparison",
        ok,
        ", ".join(f"{name} {correct}/{total}" for name, (correct, _) in found.items()),
    )
