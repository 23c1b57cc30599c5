"""The benchmark's hooks into the package still fit it.

``lexbench/spans.py`` patches each ``(module, attr)`` it lists for a
traced run, and ``lexbench/workloads.py`` builds taxonomy nodes itself
to time ``DomainTaxonomy.build``.  A name or signature the package
changed would only surface there as a crash in a benchmark run, so these
tests resolve every traced name and run the loader timings once.  The
workload's ``reference_neighborhood`` also checks ``neighborhood`` here, on
small DAGs of the shape the benchmark generates.
"""

import importlib
import importlib.util
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from dag_oracle import as_taxonomy_doc
from lexsel import ConceptId, load_taxonomy, neighborhood

LEXBENCH = Path(__file__).resolve().parents[1] / "lexbench"


def load_lexbench(name: str):
    spec = importlib.util.spec_from_file_location(f"lexbench_{name}", LEXBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    spans = load_lexbench("spans")
    targets = [(module, attr) for module, attr, *_ in spans.SPANNED] + list(spans.COUNTED)
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert targets and not missing


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
