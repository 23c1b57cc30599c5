"""Command-line interface.

Subcommands: ``sim`` (concept similarity), ``select`` (rank target verbs
for one clause), ``eval`` (accuracy against gold labels), ``freq`` (gold
label counts).  Data flags default to the bundled example files.

Exit codes: 0 success, 1 vocabulary gap (no realization within the
floor), 2 usage or data errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import bundled
from .corpus import (
    Corpus,
    EvalReport,
    FreqTable,
    evaluate_corpus,
    frequency_table,
    load_corpus,
    to_argument_structure,
)
from .errors import LexselError, VocabularyGapError, parse_fraction
from .lexicon import ArgumentStructure, Lexicon, Role, load_lexicon, resolve_mention
from .matcher import DomainWeights
from .selector import (
    DecisionTree,
    SelectionConfig,
    Translation,
    load_decision_tree,
    translate,
)
from .taxonomy import TaxonomyStore, con_sim, least_common_superconcept, load_taxonomy, merge_stores

FORMATS = ("text", "json", "tsv")


def _fraction_arg(raw: str) -> Fraction:
    try:
        return parse_fraction(Decimal(raw))
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {raw!r}") from None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{raw!r}: {exc}") from None


def _fmt(value: Fraction) -> str:
    return f"{float(value):.6f} ({value})"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexsel",
        description="Taxonomy-backed lexical selection over multi-domain verb senses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument(
        "--taxonomy",
        action="append",
        metavar="PATH",
        default=None,
        help="taxonomy document; repeatable; default: bundled domains",
    )
    data.add_argument("--lexicon", metavar="PATH", help="lexicon document; default: bundled")
    data.add_argument(
        "--format", choices=FORMATS, default="text", help="output format (default: text)"
    )

    p_sim = sub.add_parser(
        "sim", parents=[data], help="similarity between two concepts of one domain"
    )
    p_sim.add_argument("concept1", help="concept name, or domain:name if ambiguous")
    p_sim.add_argument("concept2")
    p_sim.set_defaults(func=cmd_sim)

    p_select = sub.add_parser(
        "select", parents=[data], help="rank target verbs for one clause"
    )
    p_select.add_argument("--lexeme", required=True, help="source verb lexeme")
    p_select.add_argument("--e0", metavar="MENTION", help="agent entity")
    p_select.add_argument("--e1", metavar="MENTION", help="patient entity")
    p_select.add_argument("--e2", metavar="MENTION", help="instrument entity")
    p_select.add_argument(
        "--marker", action="append", default=[], help="context marker; repeatable"
    )
    _selection_flags(p_select)
    p_select.add_argument(
        "--explain", action="store_true", help="show per-domain and per-constraint detail"
    )
    p_select.set_defaults(func=cmd_select)

    p_eval = sub.add_parser(
        "eval", parents=[data], help="accuracy of the pipeline against gold labels"
    )
    p_eval.add_argument(
        "--corpus", metavar="PATH", help="clause corpus (JSON Lines); default: bundled"
    )
    _selection_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_freq = sub.add_parser(
        "freq", parents=[data], help="gold target lexeme counts in a corpus"
    )
    p_freq.add_argument(
        "--corpus", metavar="PATH", help="clause corpus (JSON Lines); default: bundled"
    )
    p_freq.set_defaults(func=cmd_freq)
    return parser


def _selection_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tree",
        metavar="PATH",
        help="action decision tree document; default: bundled",
    )
    parser.add_argument(
        "--no-tree", action="store_true", help="run without the action decision tree"
    )
    parser.add_argument(
        "--weights", metavar="PATH", help="domain weights document; default: uniform"
    )
    parser.add_argument(
        "--floor",
        type=_fraction_arg,
        default=Fraction(1, 2),
        help="neighborhood similarity floor (default: 0.5)",
    )
    parser.add_argument(
        "--max-candidates",
        type=int,
        default=10,
        help="neighborhood size limit (default: 10)",
    )


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise LexselError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None


def _load_store(ns: argparse.Namespace) -> TaxonomyStore:
    if ns.taxonomy:
        return merge_stores(load_taxonomy(_read_text(p)) for p in ns.taxonomy)
    return bundled.load_bundled_store()


def _load_lexicon(ns: argparse.Namespace, store: TaxonomyStore) -> Lexicon:
    if ns.lexicon:
        return load_lexicon(_read_text(ns.lexicon), store)
    return bundled.load_bundled_lexicon(store)


def _load_tree(
    ns: argparse.Namespace, store: TaxonomyStore, nominal_domain: str
) -> Optional[DecisionTree]:
    if ns.no_tree:
        return None
    if ns.tree:
        return load_decision_tree(_read_text(ns.tree), store, nominal_domain)
    return bundled.load_bundled_tree(store, nominal_domain)


def _config(ns: argparse.Namespace, store: TaxonomyStore) -> SelectionConfig:
    weights = DomainWeights()
    if ns.weights:
        weights = DomainWeights.from_json(_read_text(ns.weights))
        for name in weights.weights:
            if name not in store.domains:
                raise LexselError(f"{ns.weights}: no loaded taxonomy defines domain {name!r}")
    return SelectionConfig(floor=ns.floor, max_candidates=ns.max_candidates, weights=weights)


def _load_corpus_file(ns: argparse.Namespace) -> Corpus:
    if ns.corpus:
        return load_corpus(_read_text(ns.corpus))
    return load_corpus(bundled.bundled_text(bundled.CORPUS_FILE))


def cmd_sim(ns: argparse.Namespace) -> int:
    store = _load_store(ns)
    c1, c2 = store.resolve(ns.concept1), store.resolve(ns.concept2)
    metrics = least_common_superconcept(store, c1, c2)
    sim = con_sim(store, c1, c2)
    if ns.format == "json":
        print(
            json.dumps(
                {
                    "concept1": str(c1),
                    "concept2": str(c2),
                    "similarity": float(sim),
                    "similarity_exact": str(sim),
                    "lcs": str(metrics.lcs),
                    "n1": metrics.n1,
                    "n2": metrics.n2,
                    "n3": metrics.n3,
                },
                indent=2,
            )
        )
    elif ns.format == "tsv":
        print("concept1\tconcept2\tsimilarity\texact\tlcs\tn1\tn2\tn3")
        print(f"{c1}\t{c2}\t{float(sim):.6f}\t{sim}\t{metrics.lcs}\t"
              f"{metrics.n1}\t{metrics.n2}\t{metrics.n3}")
    else:
        print(f"similarity({c1.name}, {c2.name}) = {_fmt(sim)}")
        print(
            f"lcs = {metrics.lcs.name}  n1 = {metrics.n1}  n2 = {metrics.n2}  "
            f"n3 = {metrics.n3}  [domain {c1.domain}]"
        )
    return 0


def _build_args(
    ns: argparse.Namespace, store: TaxonomyStore, nominal_domain: str
) -> ArgumentStructure:
    bindings = {}
    for role, mention in ((Role.E0, ns.e0), (Role.E1, ns.e1), (Role.E2, ns.e2)):
        if mention:
            bindings[role] = resolve_mention(store, nominal_domain, mention)
    return ArgumentStructure(
        source_lexeme=ns.lexeme,
        bindings=bindings,
        context_markers=frozenset(ns.marker),
    )


def _translation_payload(result: Translation, lexicon: Lexicon) -> dict:
    return {
        "translation": result.lexeme,
        "sense_id": result.sense_id,
        "gloss": result.gloss,
        "source_sense": result.source_sense,
        "decided_action": None if result.decided_action is None else result.decided_action.name,
        "inter_rep": [slot.render() for slot in result.inter_rep.slots.values()],
        "candidates": [
            {
                "rank": i + 1,
                "lexeme": lexicon.senses[r.sense_id].lexeme,
                "sense_id": r.sense_id,
                "concept_score": float(r.score.concept_score),
                "concept_score_exact": str(r.score.concept_score),
                "constraint_score": float(r.score.constraint_score),
                "constraint_score_exact": str(r.score.constraint_score),
                "via_concept": str(r.via_concept),
                "neighborhood_sim": float(r.neighborhood_sim),
                "neighborhood_sim_exact": str(r.neighborhood_sim),
            }
            for i, r in enumerate(result.ranking)
        ],
    }


def _print_explanation(result: Translation, lexicon: Lexicon) -> None:
    print(f"source sense: {result.source_sense} ({lexicon.senses[result.source_sense].gloss})")
    print("clause meaning: " + "; ".join(s.render() for s in result.inter_rep.slots.values()))
    if result.decided_action is None:
        print("action decision: (tree not consulted)")
    else:
        print(f"action decision: {result.decided_action.name}")
    for r in result.ranking:
        sense = lexicon.senses[r.sense_id]
        print(f"candidate {sense.lexeme} [{r.sense_id}] via {r.via_concept.name} "
              f"(neighborhood {_fmt(r.neighborhood_sim)})")
        for part in r.score.domains:
            left = "-" if part.left is None else part.left.name
            right = "-" if part.right is None else part.right.name
            print(f"  domain {part.domain}: weight {part.weight}  "
                  f"sim {_fmt(part.similarity)}  [{left} vs {right}]")
        if not r.score.constraints:
            print("  no constraints: constraint score 1")
        for d in r.score.constraints:
            bound = "unbound" if d.bound_to is None else d.bound_to.name
            print(f"  constraint (is-a {d.constraint.concept.name} {d.constraint.role}): "
                  f"{_fmt(d.degree)}  [{bound}]")


def cmd_select(ns: argparse.Namespace) -> int:
    store = _load_store(ns)
    lexicon = _load_lexicon(ns, store)
    tree = _load_tree(ns, store, lexicon.nominal_domain)
    config = _config(ns, store)
    args = _build_args(ns, store, lexicon.nominal_domain)
    result = translate(lexicon, store, args, config, tree)
    if ns.format == "json":
        print(json.dumps(_translation_payload(result, lexicon), indent=2))
    elif ns.format == "tsv":
        print("rank\tlexeme\tsense_id\tconcept\tconstraint\tvia\tneighborhood")
        for i, r in enumerate(result.ranking, start=1):
            print(f"{i}\t{lexicon.senses[r.sense_id].lexeme}\t{r.sense_id}\t"
                  f"{r.score.concept_score}\t{r.score.constraint_score}\t"
                  f"{r.via_concept.name}\t{r.neighborhood_sim}")
    else:
        print(f"translation: {result.lexeme} ({result.gloss})")
        if ns.explain:
            _print_explanation(result, lexicon)
        else:
            for i, r in enumerate(result.ranking, start=1):
                print(f"{i}. {lexicon.senses[r.sense_id].lexeme:<12} "
                      f"concept {_fmt(r.score.concept_score)}  "
                      f"constraint {_fmt(r.score.constraint_score)}  "
                      f"via {r.via_concept.name}")
    return 0


def cmd_eval(ns: argparse.Namespace) -> int:
    store = _load_store(ns)
    lexicon = _load_lexicon(ns, store)
    tree = _load_tree(ns, store, lexicon.nominal_domain)
    config = _config(ns, store)
    corpus = _load_corpus_file(ns)
    report = evaluate_corpus(corpus, lexicon, store, config, tree)
    if ns.format == "json":
        print(
            json.dumps(
                {
                    "total": report.total,
                    "correct": report.correct,
                    "accuracy": float(report.accuracy),
                    "accuracy_exact": str(report.accuracy),
                    "items": [
                        {
                            "id": item.id,
                            "predicted": item.predicted,
                            "gold": item.gold,
                            "match": item.match,
                        }
                        for item in report.items
                    ],
                },
                indent=2,
            )
        )
    elif ns.format == "tsv":
        print("id\tpredicted\tgold\tmatch")
        for item in report.items:
            predicted = "-" if item.predicted is None else item.predicted
            print(f"{item.id}\t{predicted}\t{item.gold}\t{str(item.match).lower()}")
    else:
        for item in report.items:
            mark = "ok " if item.match else "MISS"
            predicted = "-" if item.predicted is None else item.predicted
            print(f"{mark} {item.id:<8} predicted {predicted:<12} gold {item.gold}")
        print(f"accuracy: {report.correct}/{report.total} = {float(report.accuracy):.6f}")
    return 0


def cmd_freq(ns: argparse.Namespace) -> int:
    corpus = _load_corpus_file(ns)
    table = frequency_table(corpus)
    if ns.format == "json":
        print(
            json.dumps(
                {
                    "total": table.total(),
                    "rows": [
                        {"rank": i + 1, "lexeme": lex, "count": count}
                        for i, (lex, count) in enumerate(table.rows)
                    ],
                },
                indent=2,
            )
        )
    else:  # text and tsv share the tab layout
        print("rank\tlexeme\tcount")
        for i, (lex, count) in enumerate(table.rows, start=1):
            print(f"{i}\t{lex}\t{count}")
        if ns.format == "text":
            print(f"total\t-\t{table.total()}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except VocabularyGapError as exc:
        print(f"vocabulary gap: {exc}", file=sys.stderr)
        return 1
    except (LexselError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
