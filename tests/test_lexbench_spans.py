"""The benchmark's hooks into the package still fit it.

``lexbench/spans.py`` patches each ``(module, attr)`` it lists for a
traced run, and ``lexbench/workloads.py`` builds taxonomy nodes itself
to time ``DomainTaxonomy.build``.  A name or signature the package
changed would only surface there as a crash in a benchmark run, so these
tests resolve every traced name and run the loader timings once.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
