"""Seeded synthetic data for the ``wordnet-80k`` workload.

``generate(seed)`` returns the text of four documents -- taxonomy,
lexicon, decision tree and clause corpus -- exactly as a user would hand
them to ``load_taxonomy``, ``load_lexicon``, ``load_decision_tree`` and
``load_corpus``.  The same seed gives byte-identical text.

Shape:

* ``state``: the big OBL domain (~80k concepts).  Every concept sits on a
  fixed level profile, so the longest path from the root is 18 nodes and
  most concepts lie at depth 11-18.  A concept picks one parent on the
  level above; about 2% pick a second parent one or two levels up, which
  is the one-or-two-earlier-parents shape of ``random_rooted_dag`` without
  its per-node candidate list.  Concepts are written in a seeded shuffled
  order, not parent-first.
* ``noun``: a WordNet-noun-like nominal domain (depth up to 12).
* ``causation``, ``instrument``, ``action``: small flat domains.
* Lexicon: source verbs with two senses each, told apart by a selection
  constraint on the patient.  One sense lands on a realized ``state``
  concept, the other on an unrealized leaf whose parent is realized, so
  the selector widens it to its neighborhood.  Target senses realize a
  sampled subset of ``state``.
* Corpus: distinct clauses; every fourth clause (positions 3, 7, 11, ...)
  lands on an unrealized concept.

Run ``python3 lexbench/gen.py`` to check small instances against the
brute-force oracle in ``tests/dag_oracle.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

STATE_CONCEPTS = 80_000
NOUN_CONCEPTS = 6_000
SOURCE_LEXEMES = 1_200
NOISE_REALIZED = 1_200  # realized concepts no source sense lands on
CLAUSES = 3_000
WIDEN_EVERY = 4
MARKERS = ("m0", "m1", "m2", "m3")
ACTIONS = 8

# Relative level sizes, root first.  Depths 11-18 hold ~95% of the concepts.
STATE_PROFILE = (0, 3, 9, 27, 60, 130, 270, 520, 950, 1600,
                 11000, 12500, 12500, 11500, 10000, 8500, 7000, 4500)
NOUN_PROFILE = (0, 4, 14, 40, 110, 260, 520, 900, 1200, 1200, 1000, 750)
SECOND_PARENT_SHARE = 0.02


def level_sizes(total: int, profile: tuple[int, ...]) -> list[int]:
    """Concept count per level for ``total`` concepts; level 0 is the root."""
    weight = sum(profile)
    sizes = [1] + [max(1, (total - 1) * w // weight) for w in profile[1:]]
    widest = max(range(len(sizes)), key=lambda i: sizes[i])
    sizes[widest] += total - sum(sizes)
    return sizes


def layered_dag(
    rng: random.Random, prefix: str, total: int, profile: tuple[int, ...]
) -> tuple[dict[str, tuple[str, ...]], list[list[str]]]:
    """Parent map of a rooted DAG plus its names grouped by level.

    Linear in ``total``: a parent is drawn by index from the level above.
    """
    sizes = level_sizes(total, profile)
    levels: list[list[str]] = []
    parents: dict[str, tuple[str, ...]] = {}
    serial = 0
    for depth, size in enumerate(sizes):
        names = [f"{prefix}{serial + i}" for i in range(size)]
        serial += size
        for name in names:
            if depth == 0:
                parents[name] = ()
                continue
            above = levels[depth - 1]
            first = above[rng.randrange(len(above))]
            chosen = {first}
            if depth >= 2 and rng.random() < SECOND_PARENT_SHARE:
                pool = levels[depth - rng.choice((1, 2))]
                other = pool[rng.randrange(len(pool))]
                if other != first:
                    chosen.add(other)
            parents[name] = tuple(sorted(chosen))
        levels.append(names)
    return parents, levels


def _ancestors(parents: dict[str, tuple[str, ...]], name: str) -> set[str]:
    seen = {name}
    stack = [name]
    while stack:
        for parent in parents[stack.pop()]:
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return seen


def _domain(name: str, parents: dict[str, tuple[str, ...]], order: list[str], label: str) -> dict:
    return {
        "name": name,
        "concepts": [
            {"id": c, "label": f"{label} {c}", "parents": list(parents[c])} for c in order
        ],
    }


def _flat(root: str, children: list[str]) -> dict[str, tuple[str, ...]]:
    out: dict[str, tuple[str, ...]] = {root: ()}
    for child in children:
        out[child] = (root,)
    return out


@dataclass(frozen=True)
class Documents:
    taxonomy: str
    lexicon: str
    tree: str
    corpus: str
    # facts the benchmark checks against, never shown to the program
    widened: tuple[bool, ...]  # per corpus record, in order
    targets: tuple[str, ...]  # per corpus record: the state concept it lands on
    state_parents: dict[str, tuple[str, ...]]  # parent-first order
    realizations: dict[str, tuple[str, ...]]  # state concept -> target sense ids

    def texts(self) -> dict[str, str]:
        return {
            "taxonomy": self.taxonomy,
            "lexicon": self.lexicon,
            "tree": self.tree,
            "corpus": self.corpus,
        }

    def sha256(self) -> dict[str, str]:
        return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in self.texts().items()}


def generate(
    seed: int,
    state_concepts: int = STATE_CONCEPTS,
    noun_concepts: int = NOUN_CONCEPTS,
    source_lexemes: int = SOURCE_LEXEMES,
    noise_realized: int = NOISE_REALIZED,
    clauses: int = CLAUSES,
) -> Documents:
    rng = random.Random(seed)
    state, state_levels = layered_dag(rng, "st", state_concepts, STATE_PROFILE)
    noun, noun_levels = layered_dag(rng, "n", noun_concepts, NOUN_PROFILE)
    actions = [f"%act-{i}" for i in range(ACTIONS)]
    action = _flat("%action", actions)
    causation = _flat("%causation", ["%cause", "%let", "%force"])
    instrument = _flat("%instrumentality", ["%with-instrument", "%with-body-part"])

    # Noun subtrees that separate the two senses of a verb: a mention is
    # only drawn from a class when the class is its sole level-3 ancestor.
    classes = noun_levels[3]
    members: dict[str, list[str]] = {c: [] for c in classes}
    class_set = set(classes)
    for name in (n for level in noun_levels[4:] for n in level):
        above = [a for a in sorted(_ancestors(noun, name)) if a in class_set]
        if len(above) == 1:
            members[above[0]].append(name)
    classes = [c for c in classes if len(members[c]) >= 4]
    agents = noun_levels[2]

    # Widened senses land on single-parent leaves whose parent is realized.
    has_child = {p for ps in state.values() for p in ps}
    leaves = [n for n in (x for lvl in state_levels[10:] for x in lvl)
              if n not in has_child and len(state[n]) == 1]
    rng.shuffle(leaves)
    widen_targets = leaves[:source_lexemes]
    unrealized = set(widen_targets)
    realized: list[str] = []
    taken: set[str] = set()

    def realize(name: str) -> None:
        if name not in taken and name not in unrealized:
            taken.add(name)
            realized.append(name)

    for leaf in widen_targets:
        realize(state[leaf][0])
    pool = [n for lvl in state_levels[1:] for n in lvl]
    exact_targets: list[str] = []
    while len(exact_targets) < source_lexemes:
        name = pool[rng.randrange(len(pool))]
        if name not in unrealized and name not in exact_targets:
            exact_targets.append(name)
            realize(name)
    while len(realized) < len(widen_targets) + source_lexemes + noise_realized:
        realize(pool[rng.randrange(len(pool))])

    senses: list[dict] = []
    realizations: dict[str, tuple[str, ...]] = {}
    for k, concept in enumerate(realized):
        copies = 2 if rng.random() < 0.25 else 1
        realizations[concept] = tuple(f"T{k}.{copy}" for copy in range(copies))
        for copy in range(copies):
            projection = [
                {"domain": "state", "status": "OBL", "concept": concept, "args": ["E1"]},
                {"domain": "action", "status": "IMP", "concept": rng.choice(actions),
                 "args": ["*"]},
            ]
            if rng.random() < 0.6:
                projection.append({"domain": "causation", "status": "OPT",
                                   "concept": rng.choice(["%cause", "%force"]),
                                   "args": ["E0", "*"]})
            constraints = [
                {"role": "E1", "concept": rng.choice(noun_levels[rng.choice((1, 2, 3))])}]
            if rng.random() < 0.5:
                constraints.append({"role": "E0", "concept": rng.choice(agents)})
            senses.append({
                "sense_id": f"T{k}.{copy}", "lexeme": f"t{k}-{copy}", "language": "target",
                "gloss": f"realizes {concept}", "constraints": constraints,
                "projection": projection,
            })

    verbs: list[tuple[int, str, str]] = []  # index, exact class, widen class
    for k in range(source_lexemes):
        exact_class, widen_class = rng.sample(classes, 2)
        lexeme = f"v{k}"
        agent = rng.choice(agents)
        verbs.append((k, exact_class, widen_class))
        for tag, cls, concept in (("a", exact_class, exact_targets[k]),
                                  ("b", widen_class, widen_targets[k])):
            senses.append({
                "sense_id": f"V{k}{tag}", "lexeme": lexeme, "language": "source",
                "gloss": f"lands on {concept}",
                "constraints": [{"role": "E1", "concept": cls}, {"role": "E0", "concept": agent}],
                "projection": [
                    {"domain": "state", "status": "OBL", "concept": concept, "args": ["E1"]},
                    {"domain": "causation", "status": "OPT", "concept": "%cause",
                     "args": ["E0", "*"]},
                    {"domain": "instrument", "status": "OPT", "concept": "%with-instrument",
                     "args": ["E0", "E2"]},
                    {"domain": "action", "status": "IMP"},
                ],
            })
    rng.shuffle(senses)

    def leaf(i: int) -> dict:
        return {"action": actions[i % ACTIONS]}

    tree = {
        "test": {"kind": "has-marker", "marker": "m0"}, "then": leaf(0),
        "else": {
            "test": {"kind": "is-a", "concept": noun_levels[1][0]},
            "then": {"test": {"kind": "role-bound", "role": "E0"},
                     "then": leaf(1), "else": leaf(2)},
            "else": {
                "test": {"kind": "is-a", "concept": noun_levels[2][-1]}, "then": leaf(3),
                "else": {"test": {"kind": "has-marker", "marker": "m1"},
                         "then": leaf(4), "else": {"action": "%action"}},
            },
        },
    }

    header = {"markers": list(MARKERS), "note": f"wordnet-80k seed {seed}"}
    records: list[str] = [json.dumps(header)]
    widened: list[bool] = []
    targets: list[str] = []
    seen: set[tuple] = set()
    while len(widened) < clauses:
        widen = len(widened) % WIDEN_EVERY == WIDEN_EVERY - 1
        k, exact_class, widen_class = verbs[rng.randrange(len(verbs))]
        lexeme = f"v{k}"
        patient = rng.choice(members[widen_class if widen else exact_class])
        bindings = {"E1": f"{patient}-{rng.randint(1, 9)}"}
        if rng.random() < 0.5:
            bindings["E0"] = rng.choice(noun_levels[rng.choice((4, 5, 6))])
        context = sorted(rng.sample(MARKERS, rng.choice((0, 0, 1, 2))))
        key = (lexeme, patient, bindings.get("E0"), tuple(context))
        if key in seen:
            continue
        seen.add(key)
        widened.append(widen)
        targets.append(widen_targets[k] if widen else exact_targets[k])
        records.append(json.dumps({"id": f"c{len(widened)}", "source_lexeme": lexeme,
                                   "bindings": bindings, "context": context}))

    state_order = list(state)
    rng.shuffle(state_order)
    noun_order = list(noun)
    rng.shuffle(noun_order)
    taxonomy = {
        "note": f"synthetic wordnet-80k domains, seed {seed}",
        "domains": [
            _domain("state", state, state_order, "state"),
            _domain("noun", noun, noun_order, "thing"),
            _domain("causation", causation, list(causation), "causation"),
            _domain("instrument", instrument, list(instrument), "instrument"),
            _domain("action", action, list(action), "action"),
        ],
    }
    return Documents(
        taxonomy=json.dumps(taxonomy, separators=(",", ":")),
        lexicon=json.dumps({"nominal_domain": "noun", "senses": senses}, separators=(",", ":")),
        tree=json.dumps(tree),
        corpus="\n".join(records) + "\n",
        widened=tuple(widened),
        targets=tuple(targets),
        state_parents=state,
        realizations=realizations,
    )


def self_test() -> None:
    """Small instances: loader indices and the benchmark's reference
    neighborhood equal the brute-force oracle."""
    from lexsel import load_taxonomy
    from dag_oracle import oracle_depth, oracle_up_distances, random_rooted_dag
    from workloads import oracle_neighborhood, reference_neighborhood

    for seed in range(3):
        rng = random.Random(seed)
        parents, _ = layered_dag(rng, "st", 400, STATE_PROFILE)
        order = list(parents)
        rng.shuffle(order)  # as generate() writes them
        store = load_taxonomy(json.dumps({"domains": [_domain("state", parents, order, "s")]}))
        dom = store.domain("state")
        for name in parents:
            if dom.depth[name] != oracle_depth(parents, name):
                raise SystemExit(f"self-test: depth of {name} differs from the oracle")
            if dom.up[name] != oracle_up_distances(parents, name):
                raise SystemExit(f"self-test: up-distances of {name} differ from the oracle")
        if max(dom.depth.values()) != len(STATE_PROFILE):
            raise SystemExit("self-test: longest path does not match the level profile")
    # random_rooted_dag has many diamonds, so the tie rules of the LCS matter
    rng = random.Random(0)
    for _ in range(40):
        parents = random_rooted_dag(rng, max_nodes=40)
        for concept in parents:
            for size, floor in ((len(parents), 0), (3, Fraction(1, 2))):
                if (reference_neighborhood(parents, concept, size, floor)
                        != oracle_neighborhood(parents, concept, size, floor)):
                    raise SystemExit(f"self-test: reference neighborhood of {concept} "
                                     "differs from the oracle scan")
    small = dict(state_concepts=3000, noun_concepts=800, source_lexemes=40,
                 noise_realized=40, clauses=60)
    if generate(7, **small).sha256() != generate(7, **small).sha256():
        raise SystemExit("self-test: one seed gave two different documents")
    print("self-test ok: depth/up match the oracle on 3 shuffled DAGs of 400 concepts; the "
          "reference neighborhood matches the oracle scan on 40 random DAGs; output is "
          "deterministic")


if __name__ == "__main__":
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    self_test()
