"""Command-line interface.

Subcommands: ``sim`` (concept similarity), ``select`` (rank target verbs
for one clause), ``eval`` (accuracy against gold labels), ``freq`` (gold
label counts).  Data flags default to the bundled example files.

Each subcommand builds its result once, as a JSON document, TSV rows and
text lines, and ``_emit`` prints the one ``--format`` names.

Exit codes: 0 success, 1 vocabulary gap (no realization within the
floor), 2 usage or data errors, 141 standard output closed before the
result was written (as by ``| head``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import bundled
from .corpus import Corpus, evaluate_corpus, frequency_table, load_corpus
from .errors import LexselError, VocabularyGapError, _read_text, parse_fraction
from .lexicon import Lexicon, Role, load_lexicon, resolve_clause
from .matcher import DomainWeights
from .selector import SelectionConfig, Translation, TreeNode, load_decision_tree, translate
from .taxonomy import TaxonomyStore, least_common_superconcept, load_taxonomy, merge_stores


def _fraction_arg(raw: str) -> Fraction:
    try:
        return parse_fraction(Decimal(raw))
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {raw!r}") from None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{raw!r}: {exc}") from None


def _path_arg(raw: str) -> str:
    if not raw:  # an empty path would name the working directory
        raise argparse.ArgumentTypeError("empty path")
    return raw


FORMATS = ("text", "json", "tsv")
_PATH = {"type": _path_arg, "metavar": "PATH"}  # every data file flag


def _fmt(value: Fraction) -> str:
    return f"{float(value):.6f} ({value})"


def _exact(name: str, value: Fraction) -> dict:
    """A JSON field as a float, and again exactly as ``name_exact``."""
    return {name: float(value), name + "_exact": str(value)}


def _tsv(*rows: Sequence[object]) -> list[str]:
    return ["\t".join(map(str, row)) for row in rows]


def _emit(
    fmt: str, doc: dict, header: Sequence[str], rows: list[tuple], text: Callable[[], list[str]]
) -> None:
    """Print one result as indented JSON, as TSV rows under ``header``, or as text.

    Flushed here, so that a closed pipe is reported inside ``main``.
    """
    if fmt == "json":
        print(json.dumps(doc, indent=2), flush=True)
    else:  # never empty: a table has its header, a text result its summary line
        print("\n".join(_tsv(header, *rows) if fmt == "tsv" else text()), flush=True)


@functools.cache  # ~0.7 ms to build, a third of an in-process `select`; nothing mutates it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexsel",
        description="Taxonomy-backed lexical selection over multi-domain verb senses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("sim", help="similarity between two concepts of one domain")
    p_select = sub.add_parser("select", help="rank target verbs for one clause")
    p_eval = sub.add_parser("eval", help="accuracy of the pipeline against gold labels")
    p_freq = sub.add_parser("freq", help="gold target lexeme counts in a corpus")
    # each subcommand takes only the data flags it reads; usage and --help list them first
    for p in (p_sim, p_select, p_eval):
        p.add_argument(
            "--taxonomy",
            action="append",
            **_PATH,
            default=None,
            help="taxonomy document; repeatable; default: bundled domains",
        )
    for p in (p_select, p_eval):
        p.add_argument("--lexicon", **_PATH, help="lexicon document; default: bundled")
    for p in (p_sim, p_select, p_eval, p_freq):
        p.add_argument(
            "--format", choices=FORMATS, default="text", help="output format (default: text)"
        )
    for p in (p_eval, p_freq):
        p.add_argument(
            "--corpus", **_PATH, help="clause corpus (JSON Lines); default: bundled"
        )

    p_sim.add_argument("concept1", help="concept name, or domain:name if ambiguous")
    p_sim.add_argument("concept2")

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

    _selection_flags(p_eval)
    return parser


def _selection_flags(parser: argparse.ArgumentParser) -> None:
    tree = parser.add_mutually_exclusive_group()
    tree.add_argument(
        "--tree",
        **_PATH,
        help="action decision tree document; default: bundled",
    )
    tree.add_argument(
        "--no-tree", action="store_true", help="run without the action decision tree"
    )
    parser.add_argument(
        "--weights", **_PATH, help="domain weights document; default: uniform"
    )
    parser.add_argument(
        "--floor",
        type=_fraction_arg,
        default=SelectionConfig().floor,
        help="neighborhood similarity floor (default: 0.5)",
    )
    parser.add_argument(
        "--max-candidates",
        type=int,
        default=SelectionConfig().max_candidates,
        help="neighborhood size limit (default: 10)",
    )


def _load_store(ns: argparse.Namespace) -> TaxonomyStore:
    if ns.taxonomy is not None:
        return merge_stores(load_taxonomy(_read_text(p)) for p in ns.taxonomy)
    return bundled.load_bundled_store()


def _load_pipeline(
    ns: argparse.Namespace,
) -> tuple[TaxonomyStore, Lexicon, Optional[TreeNode], SelectionConfig]:
    store = _load_store(ns)
    if ns.lexicon is not None:
        lexicon = load_lexicon(_read_text(ns.lexicon), store)
    else:
        lexicon = bundled.load_bundled_lexicon(store)
    tree = None
    if ns.tree is not None:
        tree = load_decision_tree(_read_text(ns.tree), store, lexicon.nominal_domain)
    elif not ns.no_tree:
        tree = bundled.load_bundled_tree(store, lexicon.nominal_domain)
    weights = DomainWeights()
    if ns.weights is not None:
        weights = DomainWeights.from_json(_read_text(ns.weights))
        for name in weights.weights:
            if name not in store.domains:
                raise LexselError(f"{ns.weights}: no loaded taxonomy defines domain {name!r}")
    config = SelectionConfig(floor=ns.floor, max_candidates=ns.max_candidates, weights=weights)
    return store, lexicon, tree, config


def _load_corpus_file(ns: argparse.Namespace) -> Corpus:
    if ns.corpus is not None:
        return load_corpus(_read_text(ns.corpus))
    return load_corpus(bundled.bundled_text(bundled.CORPUS_FILE))


def cmd_sim(ns: argparse.Namespace) -> int:
    store = _load_store(ns)
    c1, c2 = store.resolve(ns.concept1), store.resolve(ns.concept2)
    m = least_common_superconcept(store, c1, c2)
    sim = m.similarity
    doc = {
        "concept1": str(c1),
        "concept2": str(c2),
        **_exact("similarity", sim),
        "lcs": str(m.lcs),
        "n1": m.n1,
        "n2": m.n2,
        "n3": m.n3,
    }
    _emit(
        ns.format,
        doc,
        "concept1 concept2 similarity exact lcs n1 n2 n3".split(),
        [(c1, c2, f"{float(sim):.6f}", sim, m.lcs, m.n1, m.n2, m.n3)],
        lambda: [
            f"similarity({c1.name}, {c2.name}) = {_fmt(sim)}",
            f"lcs = {m.lcs.name}  n1 = {m.n1}  n2 = {m.n2}  n3 = {m.n3}  [domain {c1.domain}]",
        ],
    )
    return 0


def _explanation(result: Translation, lexicon: Lexicon) -> list[str]:
    """The ``--explain`` lines, rendered from the parts ``translate`` recorded."""
    action = result.decided_action
    lines = [
        f"source sense: {result.source_sense} ({lexicon.senses[result.source_sense].gloss})",
        "clause meaning: " + "; ".join(s.render() for s in result.inter_rep.slots.values()),
        f"action decision: {'(tree not consulted)' if action is None else action.name}",
    ]
    for r in result.ranking:
        lines.append(f"candidate {lexicon.senses[r.sense_id].lexeme} [{r.sense_id}] via "
                     f"{r.via_concept.name} (neighborhood {_fmt(r.neighborhood_sim)})")
        for part in r.domains:
            left = "-" if part.left is None else part.left.name
            right = "-" if part.right is None else part.right.name
            lines.append(f"  domain {part.domain}: weight {part.weight}  "
                         f"sim {_fmt(part.similarity)}  [{left} vs {right}]")
        if not r.constraints:
            lines.append("  no constraints: constraint score 1")
        for d in r.constraints:
            bound = "unbound" if d.bound_to is None else d.bound_to.name
            lines.append(f"  constraint (is-a {d.constraint.concept.name} "
                         f"{d.constraint.role}): {_fmt(d.degree)}  [{bound}]")
    return lines


def cmd_select(ns: argparse.Namespace) -> int:
    store, lexicon, tree, config = _load_pipeline(ns)
    mentions = [(r, m) for r, m in ((Role.E0, ns.e0), (Role.E1, ns.e1), (Role.E2, ns.e2))
                if m is not None]
    args = resolve_clause(store, lexicon.nominal_domain, ns.lexeme, mentions, ns.marker)
    result = translate(lexicon, store, args, config, tree)
    ranked = [(i, lexicon.senses[r.sense_id].lexeme, r) for i, r in enumerate(result.ranking, 1)]
    doc = {
        "translation": result.lexeme,
        "sense_id": result.ranking[0].sense_id,
        "gloss": result.gloss,
        "source_sense": result.source_sense,
        "decided_action": None if result.decided_action is None else result.decided_action.name,
        "inter_rep": [slot.render() for slot in result.inter_rep.slots.values()],
        "candidates": [
            {
                "rank": i,
                "lexeme": lexeme,
                "sense_id": r.sense_id,
                **_exact("concept_score", r.score.concept_score),
                **_exact("constraint_score", r.score.constraint_score),
                "via_concept": str(r.via_concept),
                **_exact("neighborhood_sim", r.neighborhood_sim),
            }
            for i, lexeme, r in ranked
        ],
    }

    def text() -> list[str]:
        lines = [f"translation: {result.lexeme} ({result.gloss})"]
        if ns.explain:
            return lines + _explanation(result, lexicon)
        return lines + [
            f"{i}. {lexeme:<12} concept {_fmt(r.score.concept_score)}  "
            f"constraint {_fmt(r.score.constraint_score)}  via {r.via_concept.name}"
            for i, lexeme, r in ranked
        ]

    _emit(
        ns.format,
        doc,
        "rank lexeme sense_id concept constraint via neighborhood".split(),
        [
            (i, lexeme, r.sense_id, r.score.concept_score, r.score.constraint_score,
             r.via_concept.name, r.neighborhood_sim)
            for i, lexeme, r in ranked
        ],
        text,
    )
    return 0


def cmd_eval(ns: argparse.Namespace) -> int:
    store, lexicon, tree, config = _load_pipeline(ns)
    report = evaluate_corpus(_load_corpus_file(ns), lexicon, store, config, tree)
    items = [(item, "-" if item.predicted is None else item.predicted) for item in report.items]
    doc = {
        "total": report.total,
        "correct": report.correct,
        **_exact("accuracy", report.accuracy),
        "items": [
            {"id": item.id, "predicted": item.predicted, "gold": item.gold, "match": item.match}
            for item in report.items
        ],
    }
    _emit(
        ns.format,
        doc,
        ("id", "predicted", "gold", "match"),
        [(item.id, predicted, item.gold, str(item.match).lower()) for item, predicted in items],
        lambda: [
            f"{'ok ' if item.match else 'MISS'} {item.id:<8} predicted {predicted:<12} "
            f"gold {item.gold}"
            for item, predicted in items
        ] + [f"accuracy: {report.correct}/{report.total} = {float(report.accuracy):.6f}"],
    )
    return 0


def cmd_freq(ns: argparse.Namespace) -> int:
    table = frequency_table(_load_corpus_file(ns))
    total = sum(count for _, count in table)
    header = ("rank", "lexeme", "count")
    rows = [(i, lexeme, count) for i, (lexeme, count) in enumerate(table, 1)]
    doc = {"total": total, "rows": [dict(zip(header, row)) for row in rows]}
    # the text layout is the TSV table plus a total row
    _emit(ns.format, doc, header, rows, lambda: _tsv(header, *rows, ("total", "-", total)))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    ns = _build_parser().parse_args(argv)
    # looked up per call, so a command patched after the parser was built still runs
    command = {"sim": cmd_sim, "select": cmd_select, "eval": cmd_eval, "freq": cmd_freq}
    try:
        return command[ns.command](ns)
    except BrokenPipeError:  # the reader left, as `| head` does; not a data error
        # Point stdout at devnull, so that the flush at exit cannot fail again
        # (the recipe in the documentation of Python's signal module).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the status a shell gives a writer the pipe killed
    except VocabularyGapError as exc:
        print(f"vocabulary gap: {exc}", file=sys.stderr)
        return 1
    except (LexselError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
