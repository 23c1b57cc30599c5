"""The benchmark's hooks into the package still fit it.

``lexbench/spans.py`` patches each ``(module, attr)`` it lists for a
traced run, and ``lexbench/workloads.py`` builds taxonomy nodes itself
to time ``DomainTaxonomy.build``.  A name or signature the package
changed would only surface there as a crash in a benchmark run, so these
tests resolve every traced name, check that each span fires, and run the
loader timings once.  The workload's ``reference_neighborhood`` also checks
``neighborhood`` here, on small DAGs of the shape the benchmark generates,
and the generator's own self-test runs as a child process.
"""

import importlib
import json
import random
import subprocess
import sys
from fractions import Fraction

from conftest import LEXBENCH, child_env, load_lexbench
from dag_oracle import as_taxonomy_doc
from lexsel import ConceptId, bundled, cli, corpus, load_taxonomy, neighborhood, selector


def test_every_traced_attribute_resolves():
    spans = load_lexbench("spans")
    targets = [(module, attr) for module, attr, *_ in spans.SPANNED] + list(spans.COUNTED)
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert targets and not missing


def test_every_span_fires_on_the_gold_clauses_and_one_select(capsys):
    """A refactor that stops calling a traced function by its patched name
    would leave that span, and the layer metric read from it, empty."""
    spans = load_lexbench("spans")
    tracer = spans.Tracer()
    with tracer.patched():
        store = bundled.load_bundled_store()
        lexicon = bundled.load_bundled_lexicon(store)
        tree = bundled.load_bundled_tree(store, lexicon.nominal_domain)
        for record in corpus.load_corpus(bundled.bundled_text(bundled.CORPUS_FILE)).records:
            args = corpus.to_argument_structure(record, store, lexicon.nominal_domain)
            selector.translate(lexicon, store, args, selector.SelectionConfig(), tree)
        assert cli.main(["select", "--lexeme", "break", "--e1", "stick-1"]) == 0
    capsys.readouterr()
    fired = {span[spans.NAME] for span in tracer.spans}
    missing = {name for _, _, name, _ in spans.SPANNED} - fired
    assert not missing, sorted(missing)


def test_loader_timings_run_on_the_bundled_data():
    workloads = load_lexbench("workloads")
    timings = workloads.loader_timings(workloads.BundledCorpus(0), 1)
    assert "taxonomy.build.ms" in timings and "lexicon.load_lexicon.ms" in timings
    assert all(isinstance(ms, float) for ms in timings.values())


def test_neighborhood_matches_the_benchmark_reference_on_its_dag_shape():
    """``reference_neighborhood``, the check behind every widened
    ``wordnet-80k`` clause, on small DAGs of that workload's shape: 18
    levels, ~2% second parents, listed shuffled for the loader."""
    gen, workloads = load_lexbench("gen"), load_lexbench("workloads")
    floors = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(4, 5), Fraction(1))
    for seed in range(2):
        rng = random.Random(seed)
        parents, _ = gen.layered_dag(rng, "st", 2000, gen.STATE_PROFILE)
        order = list(parents)
        rng.shuffle(order)
        store = load_taxonomy(json.dumps(as_taxonomy_doc({n: parents[n] for n in order}, "st")))
        assert max(store.domain("st").depth.values()) == len(gen.STATE_PROFILE)
        two_parents = next(name for name in order if len(parents[name]) > 1)
        for centre in [*rng.sample(order, 4), two_parents]:
            for floor in floors:
                want = workloads.reference_neighborhood(parents, centre, 10, floor)
                for size in (1, 3, 10):
                    got = neighborhood(store, ConceptId("st", centre), size, floor)
                    assert [(c.name, sim) for c, sim in got] == want[:size], (
                        f"seed={seed} centre={centre} floor={floor} size={size}"
                    )


def test_generator_self_test_passes():
    """``python3 lexbench/gen.py`` checks ``DomainTaxonomy.depth`` and ``.up``
    against an oracle on the generator's own DAGs."""
    child = subprocess.run(
        [sys.executable, str(LEXBENCH / "gen.py")], capture_output=True, text=True, timeout=120,
        env=child_env(),
    )
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout.startswith("self-test ok")
