"""Access to the bundled example data files."""

from __future__ import annotations

from pathlib import Path

from .lexicon import Lexicon, load_lexicon
from .selector import TreeNode, load_decision_tree
from .taxonomy import TaxonomyStore, load_taxonomy, merge_stores

TAXONOMY_FILES = ("domains.json", "entities.json")
LEXICON_FILE = "lexicon.json"
TREE_FILE = "action_tree.json"
CORPUS_FILE = "corpus.jsonl"
COUNTS_FILE = "translation_counts.jsonl"
_DATA = Path(__file__).parent / "data"


def bundled_path(name: str) -> Path:
    """Path of a data file in the ``data`` directory beside this module."""
    return _DATA / name


def bundled_text(name: str) -> str:
    return bundled_path(name).read_text(encoding="utf-8")


def load_bundled_store() -> TaxonomyStore:
    return merge_stores(load_taxonomy(bundled_text(name)) for name in TAXONOMY_FILES)


def load_bundled_lexicon(store: TaxonomyStore) -> Lexicon:
    return load_lexicon(bundled_text(LEXICON_FILE), store)


def load_bundled_tree(store: TaxonomyStore, nominal_domain: str = "entity") -> TreeNode:
    return load_decision_tree(bundled_text(TREE_FILE), store, nominal_domain)
