"""End-to-end experiment runs driven by a manifest file.

A run trains every requested architecture for every seed (grid-searching
each), evaluates on the test split, and writes a bundle: checkpoints,
prediction files, report tables, a pairwise significance matrix, and a
machine-readable run log. Reruns of the same manifest produce byte-identical
report files; nothing in the bundle depends on wall-clock time.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, fields, replace
from itertools import combinations
from pathlib import Path

from . import __version__
from .corpus import LabelMatrix, Outcome, SplitSet, build_label_matrix, filter_articles, load_corpus
from .encoder import load_vector_table
from .errors import DataError, UsageError
from .evaluation import (
    CLASS_NAMES,
    PermutationResult,
    Predictions,
    ReportRow,
    check_draws,
    model_report_row,
    per_case_scores,
    permutation_test,
    random_baseline,
    random_report_row,
    render_report,
    report_to_csv,
    score_predictions,
    write_predictions,
)
from .models import ARCHITECTURES, Model, decide_baseline, save_checkpoint
from .training import (
    Dataset,
    GRID_PRESETS,
    GridSpec,
    TrainConfig,
    grid_search,
    load_kv,
)

log = logging.getLogger(__name__)


@dataclass
class ExperimentManifest:
    """A ``negprec run`` manifest, checked in full on construction (every
    grid point included), so a bad one fails before any corpus is read. The
    fields it shares with TrainConfig take TrainConfig's defaults; with
    `vectors` set, dim, vocab_buckets and max_tokens are ignored, as there."""

    corpus: str
    corpus_name: str = "corpus"
    architectures: tuple[str, ...] = ARCHITECTURES
    seeds: tuple[int, ...] = (0,)
    grid: str = "desk"
    vectors: str = ""
    batch_size: int = TrainConfig.batch_size
    max_epochs: int = TrainConfig.max_epochs
    dim: int = TrainConfig.dim
    vocab_buckets: int = TrainConfig.vocab_buckets
    max_tokens: int = TrainConfig.max_tokens
    learning_rates: tuple[float, ...] = ()
    dropouts: tuple[float, ...] = ()
    hiddens: tuple[int, ...] = ()
    resamples: int = 10000
    random_instantiations: int = 100

    def __post_init__(self) -> None:
        for name in ("architectures", "seeds"):
            values = getattr(self, name)
            if not values:
                raise UsageError(f"{name} must not be empty")
            if len(set(values)) != len(values):
                raise UsageError(f"{name} must not repeat: {', '.join(map(str, values))}")
        for arch in self.architectures:
            if arch not in ARCHITECTURES:
                raise UsageError(f"unknown architecture {arch!r}")
        for name in ("resamples", "random_instantiations"):
            check_draws(name, getattr(self, name))
        # TrainConfig checks the seeds, the shared fields and every grid point.
        for seed in self.seeds:
            base = self.base_config(seed)
        for lr, dr, hidden in self.grid_spec():
            replace(base, learning_rate=lr, dropout=dr, hidden=hidden)

    def grid_spec(self) -> GridSpec:
        if self.grid not in GRID_PRESETS:
            raise UsageError(f"unknown grid preset {self.grid!r}")
        preset = GRID_PRESETS[self.grid]
        return GridSpec(
            learning_rates=self.learning_rates or preset.learning_rates,
            dropouts=self.dropouts or preset.dropouts,
            hiddens=self.hiddens or preset.hiddens,
        )

    def base_config(self, seed: int) -> TrainConfig:
        shared = {f.name for f in fields(TrainConfig)} & {f.name for f in fields(self)}
        return TrainConfig(seed=seed, **{name: getattr(self, name) for name in shared})


def parse_manifest(path: str | Path) -> ExperimentManifest:
    return load_kv(ExperimentManifest, path, kind="manifest")


def predict_model(model: Model, dataset: Dataset, articles: tuple[int, ...]) -> Predictions:
    ids = list(dataset.case_ids)
    if hasattr(model, "predict_labels"):
        return Predictions(ids, articles, labels=model.predict_labels(dataset))
    pos, neg = decide_baseline(*model.forward(dataset))
    return Predictions(ids, articles, pos=pos, neg=neg)


def run_experiment(manifest: ExperimentManifest, out_dir: str | Path, manifest_text: str = "") -> dict:
    """Train, evaluate and write the bundle under out_dir. Nothing is
    written there until the first model has trained."""
    out = Path(out_dir)
    # Fail before any work when out cannot become a directory or holds files.
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise DataError(f"cannot write the bundle to {out}: {existing} is not a directory")
    if existing == out and any(out.iterdir()):
        raise DataError(f"cannot write the bundle to {out}: it is not empty")
    splits: SplitSet = load_corpus(manifest.corpus)
    index = filter_articles(splits)
    vectors = load_vector_table(manifest.vectors) if manifest.vectors else None

    gold = build_label_matrix(splits.test, index)
    grid = manifest.grid_spec()
    rows: list[ReportRow] = []
    run_records: list[dict] = []
    predictions: dict[tuple[str, int], Predictions] = {}
    for arch in manifest.architectures:
        for seed in manifest.seeds:
            tag = f"{arch}-seed{seed}"
            log.info("training %s", tag)
            best, summary = grid_search(
                arch,
                splits,
                grid=grid,
                base_config=manifest.base_config(seed),
                index=index,
                vectors=vectors,
            )
            save_checkpoint(
                best.model,
                out / "checkpoints" / f"{tag}.npz",
                extra_meta={"seed": seed, **best.selected()},
            )
            test_ds = Dataset.build(
                splits.test, index, best.model.max_tokens, best.model.vocab_buckets
            )
            preds = predict_model(best.model, test_ds, index.articles)
            predictions[(arch, seed)] = preds
            write_predictions(preds, out / "predictions" / f"{tag}.jsonl")
            scores = score_predictions(preds, gold)
            rows.append(
                model_report_row(tag, best.model.encoder_kind, manifest.corpus_name, scores)
            )
            run_records.append(
                {
                    "model": tag,
                    "grid": summary,
                    "selected": best.selected(),
                    "test_scores": scores,
                    "clamp_warnings": best.model.clamp_warnings,
                }
            )

    random_stats = random_baseline(gold, manifest.random_instantiations, seed=0)
    rows.append(random_report_row(random_stats, manifest.corpus_name))

    (out / "report.csv").write_text(report_to_csv(rows), encoding="utf-8")
    (out / "report.txt").write_text(render_report(rows), encoding="utf-8")

    significance_rows = _significance_matrix(manifest, predictions, gold)
    sig_lines = ["model_a,model_b,seed,class,p_value,observed"]
    for record in significance_rows:
        sig_lines.append(
            "{model_a},{model_b},{seed},{cls},{p_value:.6f},{observed:.6f}".format(**record)
        )
    (out / "significance.csv").write_text("\n".join(sig_lines) + "\n", encoding="utf-8")

    run_log = {
        "package_version": __version__,
        "manifest_hash": hashlib.sha256(manifest_text.encode("utf-8")).hexdigest(),
        "manifest": {f.name: getattr(manifest, f.name) for f in fields(ExperimentManifest)},
        "articles": list(index.articles),
        "runs": run_records,
        "random_baseline": random_stats,
        "significance": significance_rows,
    }
    (out / "run_log.json").write_text(
        json.dumps(run_log, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return run_log


def paired_test(
    a: Predictions, b: Predictions, gold: LabelMatrix, cls: Outcome, resamples: int, seed: int
) -> PermutationResult:
    """Paired permutation test of two models' per-case scores on class cls."""
    return permutation_test(per_case_scores(a, gold, cls), per_case_scores(b, gold, cls),
                            resamples=resamples, seed=seed)


def _significance_matrix(
    manifest: ExperimentManifest,
    predictions: dict[tuple[str, int], Predictions],
    gold,
) -> list[dict]:
    records: list[dict] = []
    for arch_a, arch_b in combinations(manifest.architectures, 2):
        for seed in manifest.seeds:
            a = predictions[(arch_a, seed)]
            b = predictions[(arch_b, seed)]
            for cls in [c for c in a.classes() if c in b.classes()]:
                result = paired_test(a, b, gold, cls, manifest.resamples, seed=0)
                records.append(
                    {
                        "model_a": arch_a,
                        "model_b": arch_b,
                        "seed": seed,
                        "cls": CLASS_NAMES[cls],
                        "p_value": result.p_value,
                        "observed": result.observed,
                    }
                )
    return records
