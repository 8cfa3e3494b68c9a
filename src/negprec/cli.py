"""Command line interface.

Subcommands: extract (raw documents -> corpus), stats, synth, train, eval,
significance, run (manifest-driven experiment bundle). Exit codes: 0 ok,
otherwise the error kind's own (errors.py).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .corpus import (
    ArticleIndex,
    LabelMatrix,
    build_label_matrix,
    filter_articles,
    load_corpus,
    save_corpus,
    split_stats,
    SPLIT_NAMES,
)
from .encoder import load_vector_table
from .errors import DataError, NegprecError, UsageError
from .evaluation import (
    NAME_TO_CLASS,
    Predictions,
    check_draws,
    model_report_row,
    random_baseline,
    random_report_row,
    read_predictions,
    render_report,
    report_to_csv,
    score_predictions,
    write_predictions,
)
from .experiment import paired_test, parse_manifest, predict_model, run_experiment
from .extraction import DEFAULT_PATTERNS, build_outcome_corpus, load_patterns
from .models import ARCHITECTURES, load_checkpoint, save_checkpoint
from .synth import GenConfig, generate_corpus
from .training import Dataset, TrainConfig, comma_list, load_kv, train


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on a bad invocation; here that is a
    UsageError, exit 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="negprec", description=__doc__)
    parser.add_argument("--version", action="version", version=f"negprec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("extract",
                       help="build a claim/outcome corpus from raw judgment documents")
    p.add_argument("--raw", required=True, help="directory of raw *.jsonl documents")
    p.add_argument("--out", required=True, help="corpus directory to write")
    p.add_argument("--patterns", help="pattern file (one regex per line, # comments)")
    p.add_argument("--violations", help="JSON map case_id -> violated articles")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--json", dest="json_out", help="also write the full stats as JSON")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="key = value generator config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one architecture")
    p.add_argument("--arch", required=True, choices=ARCHITECTURES)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="checkpoint file to write")
    p.add_argument("--config", help="key = value training config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--vectors", help="vector table (JSONL) to read in place of hashed bag-of-words")
    p.add_argument("--log", dest="log_out", help="write the per-epoch log as JSON")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", default="test", choices=SPLIT_NAMES)
    p.add_argument("--report", help="write the report as CSV")
    p.add_argument("--preds", help="write per-cell predictions as JSONL")
    p.add_argument("--articles", help="restrict scoring to these articles, e.g. 8,13")
    p.add_argument("--vectors", help="the vector table (JSONL) of a precomputed checkpoint")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("significance",
                       help="paired permutation test between two prediction files")
    p.add_argument("--corpus", required=True, help="corpus supplying the gold labels")
    p.add_argument("--split", default="test", choices=SPLIT_NAMES)
    p.add_argument("--a", required=True, help="first prediction file")
    p.add_argument("--b", required=True, help="second prediction file")
    p.add_argument("--cls", default="neg", choices=tuple(NAME_TO_CLASS))
    p.add_argument("--resamples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_significance)

    p = sub.add_parser("run", help="run a full experiment manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="bundle directory to write")
    p.set_defaults(func=cmd_run)
    return parser


def _write_text(path: str, text: str) -> None:
    """Write an output file, creating its directory as --out and --preds do."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text, encoding="utf-8")


def cmd_extract(args) -> int:
    patterns = load_patterns(args.patterns) if args.patterns else DEFAULT_PATTERNS
    splits, coverage = build_outcome_corpus(args.raw, patterns, args.violations)
    save_corpus(splits, args.out)
    recall = coverage["violated_recall"]
    print(
        f"extracted {coverage['documents']} cases "
        f"({len(coverage['skipped'])} skipped) with pattern set {coverage['pattern_set']}"
    )
    print(
        "pattern recall of violated articles: "
        + ("n/a" if recall is None else f"{recall:.3f}")
        + f" ({coverage['violated_recovered']}/{coverage['violated_total']})"
    )
    print(f"corpus written to {args.out}")
    return 0


def cmd_stats(args) -> int:
    splits = load_corpus(args.corpus)
    index = filter_articles(splits)
    stats = split_stats(splits, index)
    print(f"articles kept ({len(index)}): {' '.join(str(a) for a in index.articles)}")
    header = f"{'split':<12}{'cases':>7}{'with_pos':>10}{'with_neg':>10}{'with_claim':>12}{'zero_claim':>12}"
    print(header)
    for name in SPLIT_NAMES:
        s = stats["splits"][name]
        print(
            f"{name:<12}{s['cases']:>7}{s['with_positive']:>10}"
            f"{s['with_negative']:>10}{s['with_claim']:>12}{s['zero_claim']:>12}"
        )
    print()
    print(f"{'article':<9}" + "".join(f"{n[:5] + '_' + c:>12}" for n in SPLIT_NAMES for c in ("pos", "neg")))
    for article in index.articles:
        cells = "".join(
            f"{stats['per_article'][n][article][k]:>12}"
            for n in SPLIT_NAMES
            for k in ("positive", "negative")
        )
        print(f"{article:<9}{cells}")
    if args.json_out:
        _write_text(args.json_out, json.dumps(stats, indent=2) + "\n")
        print(f"\nfull stats written to {args.json_out}")
    return 0


def cmd_synth(args) -> int:
    config = load_kv(GenConfig, args.config) if args.config else GenConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    splits = generate_corpus(config)
    save_corpus(splits, args.out)
    print(
        f"synthetic corpus written to {args.out} "
        f"(train {config.train_size}, validation {config.validation_size}, "
        f"test {config.test_size}, articles {config.n_articles}, seed {config.seed})"
    )
    return 0


def cmd_train(args) -> int:
    config = load_kv(TrainConfig, args.config) if args.config else TrainConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    vectors = load_vector_table(args.vectors) if args.vectors else None
    splits = load_corpus(args.corpus)
    result = train(args.arch, config, splits, vectors=vectors)
    save_checkpoint(result.model, args.out, extra_meta={"seed": config.seed, **result.selected()})
    if args.log_out:
        _write_text(args.log_out, json.dumps(result.log, indent=2) + "\n")
    print(
        f"{args.arch}: best epoch {result.best_epoch} "
        f"(validation loss {result.best_val_loss:.6f}); checkpoint written to {args.out}"
    )
    return 0


def _subset_articles(
    preds: Predictions, gold: LabelMatrix, index: ArticleIndex, wanted: list[int]
) -> tuple[Predictions, LabelMatrix]:
    cols = []
    for article in wanted:
        if article not in index.articles:
            raise UsageError(f"article {article} is not in the checkpoint's index")
        cols.append(index.column(article))
    arrays = {name: getattr(preds, name) for name in ("labels", "pos", "neg")}
    preds_sub = replace(preds, articles=tuple(wanted),
                        **{name: a[:, cols] for name, a in arrays.items() if a is not None})
    gold_sub = replace(gold, labels=gold.labels[:, cols])
    return preds_sub, gold_sub


def cmd_eval(args) -> int:
    vectors = load_vector_table(args.vectors) if args.vectors else None
    model = load_checkpoint(args.ckpt, vectors=vectors)
    splits = load_corpus(args.corpus)
    cases = splits.split(args.split)
    if not cases:
        raise DataError(f"split {args.split!r} is empty")
    gold = Dataset.build(cases, model.index, model.max_tokens, model.vocab_buckets)
    preds = predict_model(model, gold, model.index.articles)
    corpus_name = Path(args.corpus).name
    if args.articles is not None:
        try:
            wanted = sorted(set(comma_list(args.articles, int)))
        except ValueError as exc:
            raise UsageError(f"--articles: bad article list {args.articles!r}") from exc
        if not wanted:
            raise UsageError("--articles names no article")
        preds_scored, gold_scored = _subset_articles(preds, gold, model.index, wanted)
        corpus_name += ":articles=" + "+".join(str(a) for a in wanted)
    else:
        preds_scored, gold_scored = preds, gold
    scores = score_predictions(preds_scored, gold_scored)
    random_stats = random_baseline(gold_scored, 100, seed=0)
    rows = [
        model_report_row(model.arch, model.encoder_kind, corpus_name, scores),
        random_report_row(random_stats, corpus_name),
    ]
    print(render_report(rows), end="")
    if args.report:
        _write_text(args.report, report_to_csv(rows))
        print(f"report written to {args.report}")
    if args.preds:
        write_predictions(preds, args.preds)
        print(f"predictions written to {args.preds}")
    return 0


def cmd_significance(args) -> int:
    check_draws("--resamples", args.resamples)
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    preds_a = read_predictions(args.a)
    preds_b = read_predictions(args.b)
    if preds_a.articles != preds_b.articles or preds_a.case_ids != preds_b.case_ids:
        raise DataError("the two prediction files cover different cases or articles")
    splits = load_corpus(args.corpus)
    cases = {c.case_id: c for c in splits.split(args.split)}
    missing = [cid for cid in preds_a.case_ids if cid not in cases]
    if missing:
        raise DataError(f"cases missing from {args.split}: {missing[:5]}")
    ordered = [cases[cid] for cid in preds_a.case_ids]
    gold = build_label_matrix(ordered, ArticleIndex(preds_a.articles))
    result = paired_test(preds_a, preds_b, gold, NAME_TO_CLASS[args.cls], args.resamples, args.seed)
    print(
        f"class {args.cls}: p = {result.p_value:.6f} "
        f"({result.mode}, {result.assignments} assignments, "
        f"observed |mean difference| = {result.observed:.6f}, n = {result.n_pairs})"
    )
    return 0


def cmd_run(args) -> int:
    manifest_path = Path(args.manifest)
    manifest = parse_manifest(manifest_path)
    run_log = run_experiment(
        manifest, args.out, manifest_text=manifest_path.read_text(encoding="utf-8")
    )
    print(f"experiment bundle written to {args.out} ({len(run_log['runs'])} runs)")
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NegprecError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # e.g. an output path that is a directory, or a file
        print(f"{DataError.label}: {exc}", file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
