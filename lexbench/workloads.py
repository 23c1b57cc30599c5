"""The three workloads: set-up from text, the timed call, and its checks.

Each workload exposes the same small surface to ``run.py``:

* ``load()`` -- one set-up of the program from document text (timed as
  ``setup_s``; the benchmark generates or reads the text beforehand);
* ``prepare()`` -- warm-up and pre-phase correctness gates; builds
  ``items``, the inputs the closed loop cycles through;
* ``call(item)`` -- the timed operation (one clause, or one command);
* ``check(index, item, output)`` -- runs after the clock stops;
* ``finish()`` -- post-phase gates, as ``(failed clauses, message)`` pairs;
* ``meta()`` -- run metadata.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from lexsel import bundled, cli, corpus, lexicon, selector, taxonomy
from lexsel.errors import VocabularyGapError

HERE = Path(__file__).resolve().parent
GAP = "gap"  # output of a clause that raised VocabularyGapError
WORDNET_DIGEST_CLAUSES = 100  # = run.MIN_CLAUSES, so every run covers the digest
WORDNET_ORACLE_SAMPLE = 2
FROZEN_SEEDS = 64  # wordnet-80k data seeds in expected.json; --seed picks one modulo this


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


def ranking_line(clause_id: str, output) -> str:
    """Canonical text of one result: sense ids and exact Fractions."""
    if output == GAP:
        return f"{clause_id} gap"
    ranks = " ".join(
        f"{r.sense_id}:{r.score.concept_score}:{r.score.constraint_score}:"
        f"{r.via_concept}:{r.neighborhood_sim}"
        for r in output.ranking
    )
    return f"{clause_id} {output.source_sense} {output.decided_action} | {ranks}"


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def time_ms(fn, *args):
    start = perf_counter()
    result = fn(*args)
    return (perf_counter() - start) * 1e3, result


def loader_timings(workload, reps: int) -> dict:
    """Median per-set-up time of each loader, plus parse/build/validate.

    ``taxonomy.parse.ms`` is ``json.loads`` of the taxonomy text;
    ``taxonomy.build.ms`` is ``DomainTaxonomy.build`` on nodes the
    benchmark pre-parsed; validation is what ``load_taxonomy`` spends on
    top of both.
    """
    rows: dict[str, list[float]] = {}
    for _ in range(reps):
        parse = build = load = 0.0
        stores = []
        for text in workload.taxonomy_texts:
            ms, doc = time_ms(json.loads, text)
            parse += ms
            for entry in doc["domains"]:
                nodes = {
                    c["id"]: taxonomy.ConceptNode(
                        id=taxonomy.ConceptId(entry["name"], c["id"]),
                        label=c.get("label", ""),
                        parents=tuple(sorted(c["parents"])),
                    )
                    for c in entry["concepts"]
                }
                ms, _ = time_ms(taxonomy.DomainTaxonomy.build, entry["name"], nodes)
                build += ms
            del doc, nodes
            ms, store = time_ms(taxonomy.load_taxonomy, text)
            load += ms
            stores.append(store)
        store = taxonomy.merge_stores(stores)
        del stores
        lex_ms, lex = time_ms(lexicon.load_lexicon, workload.lexicon_text, store)
        tree_ms, _ = time_ms(selector.load_decision_tree, workload.tree_text, store,
                             lex.nominal_domain)
        corpus_ms = sum(time_ms(corpus.load_corpus, t)[0] for t in workload.corpus_texts)
        del store, lex
        for key, value in (
            ("taxonomy.load_taxonomy.ms", load),
            ("taxonomy.parse.ms", parse),
            ("taxonomy.build.ms", build),
            ("taxonomy.validate.ms", load - parse - build),
            ("lexicon.load_lexicon.ms", lex_ms),
            ("selector.load_decision_tree.ms", tree_ms),
            ("corpus.load_corpus.ms", corpus_ms),
        ):
            rows.setdefault(key, []).append(value)
    return {key: statistics.median(values) for key, values in rows.items()}


class BundledCorpus:
    """The 162 bundled clauses through ``to_argument_structure`` + ``translate``."""

    name = "bundled-corpus"
    cycle = True  # the inputs repeat until the phase ends
    setup_reps = 25
    loader_reps = 15

    def __init__(self, seed: int):
        self.seed = seed
        self.taxonomy_texts, self.lexicon_text, self.tree_text, self.corpus_texts = self.texts()
        self.config = selector.SelectionConfig()
        self.problems: list[tuple[int, str]] = []

    def texts(self) -> tuple[list[str], str, str, list[str]]:
        """Taxonomy documents, lexicon, decision tree, corpus documents."""
        return (
            [bundled.bundled_text(n) for n in bundled.TAXONOMY_FILES],
            bundled.bundled_text(bundled.LEXICON_FILE),
            bundled.bundled_text(bundled.TREE_FILE),
            [bundled.bundled_text(bundled.CORPUS_FILE), bundled.bundled_text(bundled.COUNTS_FILE)],
        )

    def load(self) -> None:
        self.store = self.lexicon = self.tree = self.corpora = None  # free the last set-up
        store = taxonomy.merge_stores(taxonomy.load_taxonomy(t) for t in self.taxonomy_texts)
        lex = lexicon.load_lexicon(self.lexicon_text, store)
        tree = selector.load_decision_tree(self.tree_text, store, lex.nominal_domain)
        corpora = [corpus.load_corpus(t) for t in self.corpus_texts]
        self.store, self.lexicon, self.tree, self.corpora = store, lex, tree, corpora

    def call(self, record):
        args = corpus.to_argument_structure(record, self.store, self.lexicon.nominal_domain)
        return selector.translate(self.lexicon, self.store, args, self.config, self.tree,
                                  sentence_id=record.id)

    def _reference(self, record):
        try:
            return self.call(record)
        except VocabularyGapError:
            return GAP

    def references(self) -> tuple[dict, str]:
        """Result of every distinct clause, and the digest of all of them."""
        records = [r for c in self.corpora for r in c.records]
        expected = {r.id: self._reference(r) for r in records}
        return expected, digest([ranking_line(r.id, expected[r.id]) for r in records])

    def prepare(self) -> None:
        records = [r for c in self.corpora for r in c.records]
        self.expected, self.digest = self.references()
        gold = self.corpora[0].records
        right = sum(1 for r in gold
                    if self.expected[r.id] != GAP and self.expected[r.id].lexeme == r.gold)
        self.accuracy = f"{right}/{len(gold)}"
        if right != len(gold):
            self.problems.append((len(gold) - right, f"corpus.jsonl accuracy {self.accuracy}"))
        if self.digest != load_expected()[self.name]:
            self.problems.append(
                (len(records), f"ranking digest {self.digest} is not the frozen one"))
        self.items = records
        random.Random(self.seed).shuffle(self.items)

    def check(self, index: int, record, output) -> bool:
        return output == self.expected[record.id]

    def finish(self) -> list[tuple[int, str]]:
        return self.problems

    def meta(self) -> dict:
        return {
            "distinct_clauses": len(self.items),
            "accuracy_corpus_jsonl": self.accuracy,
            "ranking_digest": self.digest,
        }


class CliSelect(BundledCorpus):
    """In-process ``lexsel select`` on the bundled data, stdout captured."""

    name = "cli-select"
    MODES = (("text", ()), ("explain", ("--explain",)), ("json", ("--format", "json")))

    @staticmethod
    def argv(record, mode: tuple[str, ...]) -> tuple[str, ...]:
        argv = ["select", "--lexeme", record.source_lexeme]
        for role, mention in record.bindings:
            argv += [f"--{role.value.lower()}", mention]
        for marker in record.context:
            argv += ["--marker", marker]
        return tuple(argv) + mode

    def call(self, argv):
        buffer = io.StringIO()
        stdout, sys.stdout = sys.stdout, buffer
        try:
            code = cli.main(list(argv))
        finally:
            sys.stdout = stdout
        return code, buffer.getvalue()

    def references(self) -> dict[str, str]:
        """sha256 of the stdout of every distinct command (exit code 0 only)."""
        self.expected = {}
        out = {}
        for argv in self.commands():
            code, text = self.call(argv)
            self.expected[argv] = (0, text)
            sha = hashlib.sha256(text.encode()).hexdigest()
            out[" ".join(argv)] = sha if code == 0 else f"exit {code}"
        return out

    def commands(self) -> list[tuple[str, ...]]:
        return [self.argv(r, flags) for r in self.corpora[0].records for _, flags in self.MODES]

    def prepare(self) -> None:
        self.items = self.commands()
        frozen = load_expected()[self.name]
        for key, sha in self.references().items():
            if frozen.get(key) != sha:
                self.problems.append((1, f"`lexsel {key}` differs from the frozen output"))
        random.Random(self.seed).shuffle(self.items)

    def check(self, index: int, argv, output) -> bool:
        return output == self.expected[argv]

    def meta(self) -> dict:
        return {
            "distinct_commands": len(self.items),
            "modes": [m for m, _ in self.MODES],
        }


def oracle_neighborhood(parents, concept: str, max_size: int, floor: Fraction):
    """Independent full scan with the brute-force similarity oracle."""
    from dag_oracle import oracle_con_sim

    scored = []
    for name in parents:
        if name != concept:
            sim = oracle_con_sim(parents, concept, name)
            if sim >= floor:
                scored.append((name, sim))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:max_size]


def reference_neighborhood(parents, concept: str, max_size: int, floor: Fraction):
    """Same result as ``oracle_neighborhood``, in one top-down pass.

    ``parents`` must list every concept after its parents.  The least
    common superconcept of ``concept`` and x is, among the ancestors of
    ``concept`` that x inherits, the deepest, then the nearest (fewest
    hops from both), then the smallest name -- the oracle's tie rules.  x
    inherits the best one of each parent with one hop more, so one key per
    concept suffices: ``(-depth of lcs, hops from both, lcs)``.
    """
    from dag_oracle import oracle_depth, oracle_up_distances

    up = oracle_up_distances(parents, concept)
    best: dict[str, tuple[int, int, str]] = {}
    for name, above in parents.items():
        if name in up:
            best[name] = (-oracle_depth(parents, name), up[name], name)
        else:
            best[name] = min((d, hops + 1, lcs) for d, hops, lcs in map(best.get, above))
    by_sim: dict[Fraction, list[str]] = {}
    sims: dict[tuple[int, int], Fraction] = {}
    for name, (d, hops, _) in best.items():
        if name != concept:
            if (d, hops) not in sims:
                sims[d, hops] = Fraction(-2 * d, hops - 2 * d)
            by_sim.setdefault(sims[d, hops], []).append(name)
    scored = []
    for sim in sorted(by_sim, reverse=True):
        if sim < floor or len(scored) >= max_size:
            break
        scored += [(name, sim) for name in sorted(by_sim[sim])]
    return scored[:max_size]


class Wordnet80k(BundledCorpus):
    """Distinct clauses over the seeded ~80k-concept synthetic store.

    The data come from ``gen.generate(seed % FROZEN_SEEDS)``, so every run
    has a frozen ranking digest.  Every clause is also checked against the
    generator's facts: it must land on the concept the generator meant,
    and its candidates must be the realizations of that concept, or, when
    it widens, of ``reference_neighborhood``, with the same similarities.
    """

    name = "wordnet-80k"
    cycle = False  # a stream of distinct clauses, run at most once per phase
    setup_reps = 5
    loader_reps = 1

    def __init__(self, seed: int):
        import gen

        self.data_seed = seed % FROZEN_SEEDS
        self.docs = gen.generate(self.data_seed)
        super().__init__(seed)
        self.kept: dict[int, object] = {}
        self.clauses_run = self.widened_run = 0

    def texts(self) -> tuple[list[str], str, str, list[str]]:
        return [self.docs.taxonomy], self.docs.lexicon, self.docs.tree, [self.docs.corpus]

    def docs_digest(self) -> str:
        return digest(sorted(self.docs.sha256().values()))

    def head_digest(self, outputs: list) -> str:
        """Digest of the results of the first clauses of the stream."""
        return digest([ranking_line(r.id, out) for r, out in zip(self.items, outputs)])

    def prepare(self) -> None:
        self.items = self.corpora[0].records
        widened = [i for i, w in enumerate(self.docs.widened) if w]
        self.oracle_sample = set(widened[:WORDNET_ORACLE_SAMPLE])

    def expected_candidates(self, index: int) -> dict[str, tuple[str, Fraction]]:
        """sense id -> (via concept, similarity) that clause ``index`` must yield."""
        concept = self.docs.targets[index]
        if self.docs.widened[index]:
            near = reference_neighborhood(self.docs.state_parents, concept,
                                          self.config.max_candidates, self.config.floor)
        else:
            near = [(concept, Fraction(1))]
        return {sense: (name, sim) for name, sim in near
                for sense in self.docs.realizations.get(name, ())}

    def check(self, index: int, record, output) -> bool:
        if index >= len(self.items) or record is not self.items[index]:
            return False  # the stream is never cycled
        self.clauses_run += 1
        self.widened_run += self.docs.widened[index]
        if index < WORDNET_DIGEST_CLAUSES or index in self.oracle_sample:
            if index in self.kept:  # second (traced) pass: same result
                return self.kept[index] == output
            self.kept[index] = output
        expected = self.expected_candidates(index)
        if output == GAP:
            return not expected
        got = {r.sense_id: (r.via_concept.name, r.neighborhood_sim) for r in output.ranking}
        target = taxonomy.ConceptId("state", self.docs.targets[index])
        return output.inter_rep.obl_concepts() == (target,) and got == expected

    def finish(self) -> list[tuple[int, str]]:
        problems = list(self.problems)
        frozen = load_expected()[self.name].get(str(self.data_seed))
        head = [i for i in range(WORDNET_DIGEST_CLAUSES) if i in self.kept]
        self.digest = self.head_digest([self.kept[i] for i in head])
        if frozen is None:
            self.digest_status = "no frozen digest for this data seed"
            problems.append((1, f"expected.json has no digest for data seed {self.data_seed}"))
        elif len(head) < WORDNET_DIGEST_CLAUSES:
            self.digest_status = "too few clauses run"
            problems.append((1, "fewer clauses than the digest covers"))
        elif frozen != {"docs": self.docs_digest(), "rankings": self.digest}:
            self.digest_status = "mismatch"
            problems.append((len(head), "ranking digest differs from the frozen one "
                                        f"(data seed {self.data_seed})"))
        else:
            self.digest_status = "match"
        parents = self.docs.state_parents
        self.oracle_checked = 0
        for index in sorted(self.oracle_sample):
            if index not in self.kept:
                continue
            concept = self.docs.targets[index]
            expected = oracle_neighborhood(parents, concept, self.config.max_candidates,
                                           self.config.floor)
            reference = reference_neighborhood(parents, concept, self.config.max_candidates,
                                               self.config.floor)
            got = taxonomy.neighborhood(self.store, taxonomy.ConceptId("state", concept),
                                        self.config.max_candidates, self.config.floor)
            self.oracle_checked += 1
            if [(c.name, s) for c, s in got] != expected:
                problems.append((1, f"neighborhood of {concept} differs from the oracle scan"))
            if reference != expected:
                problems.append(
                    (1, f"reference neighborhood of {concept} differs from the oracle scan"))
        return problems

    def meta(self) -> dict:
        return {
            "data_seed": self.data_seed,
            "state_concepts": len(self.docs.state_parents),
            "stream_clauses": len(self.items),
            "widened_share": self.widened_run / self.clauses_run if self.clauses_run else 0.0,
            "document_sha256": self.docs.sha256(),
            "ranking_digest": getattr(self, "digest", None),
            "ranking_digest_check": getattr(self, "digest_status", None),
            "oracle_neighborhoods_checked": getattr(self, "oracle_checked", 0),
        }


WORKLOADS = {w.name: w for w in (BundledCorpus, Wordnet80k, CliSelect)}
