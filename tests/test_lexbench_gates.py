"""The benchmark's frozen correctness gates hold on the bundled data.

``lexbench/workloads.py`` checks, before any timing, that the bundled corpus
is translated 12/12, that every bundled ranking matches a frozen digest, and
that each of the 36 ``lexsel select`` outputs matches a frozen hash.  A change
to any field ``ranking_line`` reads, or to a CLI byte, fails here and not only
in a benchmark run.
"""

import pytest

from conftest import load_lexbench


@pytest.mark.parametrize("name", ["BundledCorpus", "CliSelect"])
def test_bundled_workload_passes_its_frozen_gates(name):
    workload = getattr(load_lexbench("workloads"), name)(0)
    workload.load()
    workload.prepare()
    assert workload.problems == []
