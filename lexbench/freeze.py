"""Write expected.json: the reference outputs the correctness gates compare to.

    python3 lexbench/freeze.py

Run it only on a commit whose rankings are the reference; every later run
of the benchmark must reproduce these values.  It records:

* ``bundled-corpus``: digest of the rankings of all 162 bundled clauses;
* ``cli-select``: sha256 of the stdout of each distinct ``lexsel select``;
* ``wordnet-80k``: per data seed (0 to FROZEN_SEEDS - 1), the digest of the
  generated documents and of the rankings of the first
  WORDNET_DIGEST_CLAUSES clauses of the stream.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

from lexsel.errors import VocabularyGapError  # noqa: E402
from workloads import (  # noqa: E402
    FROZEN_SEEDS, GAP, WORDNET_DIGEST_CLAUSES, BundledCorpus, CliSelect, Wordnet80k,
)


def wordnet_entry(seed: int) -> dict:
    w = Wordnet80k(seed)
    w.load()
    w.prepare()
    outputs = []
    for item in w.items[:WORDNET_DIGEST_CLAUSES]:
        try:
            outputs.append(w.call(item))
        except VocabularyGapError:
            outputs.append(GAP)
    return {"docs": w.docs_digest(), "rankings": w.head_digest(outputs)}


def main() -> None:
    bundled_w = BundledCorpus(0)
    bundled_w.load()
    cli_w = CliSelect(0)
    cli_w.load()
    expected = {
        "bundled-corpus": bundled_w.references()[1],
        "cli-select": cli_w.references(),
        "wordnet-80k": {},
    }
    for seed in range(FROZEN_SEEDS):
        expected["wordnet-80k"][str(seed)] = wordnet_entry(seed)
        print(f"wordnet-80k seed {seed} frozen", file=sys.stderr)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")


if __name__ == "__main__":
    main()
