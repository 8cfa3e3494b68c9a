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
from dataclasses import dataclass, fields
from itertools import combinations
from pathlib import Path

from . import __version__
from .corpus import SplitSet, filter_articles, load_corpus
from .encoder import load_vector_table
from .errors import UsageError
from .evaluation import (
    Predictions,
    ReportRow,
    per_case_scores,
    permutation_test,
    random_baseline,
    random_report_row,
    score_predictions,
    write_predictions,
)
from .corpus import build_label_matrix, Outcome
from .models import ARCHITECTURES, Model, save_checkpoint
from .training import (
    Dataset,
    GRID_PRESETS,
    GridSpec,
    TrainConfig,
    grid_search,
    parse_kv_lines,
)

log = logging.getLogger(__name__)


@dataclass
class ExperimentManifest:
    corpus: str
    corpus_name: str = "corpus"
    architectures: tuple[str, ...] = ARCHITECTURES
    seeds: tuple[int, ...] = (0,)
    grid: str = "desk"
    encoder: str = "hashed_bow"
    vectors: str = ""
    batch_size: int = 16
    max_epochs: int = 10
    dim: int = 64
    vocab_buckets: int = 1 << 15
    max_tokens: int = 512
    learning_rates: tuple[float, ...] = ()
    dropouts: tuple[float, ...] = ()
    hiddens: tuple[int, ...] = ()
    resamples: int = 10000
    random_instantiations: int = 100

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
        return TrainConfig(
            seed=seed,
            batch_size=self.batch_size,
            max_epochs=self.max_epochs,
            dim=self.dim,
            vocab_buckets=self.vocab_buckets,
            max_tokens=self.max_tokens,
            encoder=self.encoder,
        )


def _split_list(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def parse_manifest(path: str | Path) -> ExperimentManifest:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"manifest not found: {p}")
    mapping = parse_kv_lines(p.read_text(encoding="utf-8"), p.name)
    known = {f.name for f in fields(ExperimentManifest)}
    kwargs: dict = {}
    for key, value in mapping.items():
        if key not in known:
            raise UsageError(f"{p.name}: unknown manifest key {key!r}")
        try:
            if key in ("architectures",):
                kwargs[key] = tuple(_split_list(value))
            elif key in ("seeds",):
                kwargs[key] = tuple(int(s) for s in _split_list(value))
            elif key in ("learning_rates", "dropouts"):
                kwargs[key] = tuple(float(s) for s in _split_list(value))
            elif key in ("hiddens",):
                kwargs[key] = tuple(int(s) for s in _split_list(value))
            elif key in (
                "batch_size", "max_epochs", "dim", "vocab_buckets",
                "max_tokens", "resamples", "random_instantiations",
            ):
                kwargs[key] = int(value)
            else:
                kwargs[key] = value
        except ValueError as exc:
            raise UsageError(f"{p.name}: bad value for {key!r}: {value!r}") from exc
    if "corpus" not in kwargs:
        raise UsageError(f"{p.name}: manifest must set corpus")
    manifest = ExperimentManifest(**kwargs)
    for arch in manifest.architectures:
        if arch not in ARCHITECTURES:
            raise UsageError(f"{p.name}: unknown architecture {arch!r}")
    if not manifest.seeds:
        raise UsageError(f"{p.name}: seeds must not be empty")
    return manifest


def predict_model(model: Model, dataset: Dataset, articles: tuple[int, ...]) -> Predictions:
    if hasattr(model, "predict_labels"):
        return Predictions(
            case_ids=list(dataset.case_ids),
            articles=articles,
            kind="three_way",
            labels=model.predict_labels(dataset),
        )
    pos, neg = model.predict_pairs(dataset)
    return Predictions(
        case_ids=list(dataset.case_ids),
        articles=articles,
        kind="baseline",
        pos=pos,
        neg=neg,
    )


def run_experiment(manifest: ExperimentManifest, out_dir: str | Path, manifest_text: str = "") -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    splits: SplitSet = load_corpus(manifest.corpus)
    index = filter_articles(splits)
    vectors = None
    if manifest.encoder == "precomputed":
        if not manifest.vectors:
            raise UsageError("precomputed encoder needs vectors = <path> in the manifest")
        vectors = load_vector_table(manifest.vectors)

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
                extra_meta={"seed": seed, "learning_rate": best.config.learning_rate,
                            "dropout": best.config.dropout},
            )
            test_ds = Dataset.build(
                splits.test,
                index,
                best.config.max_tokens,
                best.config.vocab_buckets,
                with_tokens=manifest.encoder == "hashed_bow",
            )
            preds = predict_model(best.model, test_ds, index.articles)
            predictions[(arch, seed)] = preds
            write_predictions(preds, out / "predictions" / f"{tag}.jsonl")
            scores = score_predictions(preds, gold)
            rows.append(
                ReportRow(
                    model=tag,
                    encoder=manifest.encoder,
                    corpus=manifest.corpus_name,
                    scores={k: None if v is None else 100.0 * v for k, v in scores.items()},
                )
            )
            run_records.append(
                {
                    "model": tag,
                    "grid": summary,
                    "selected": {
                        "learning_rate": best.config.learning_rate,
                        "dropout": best.config.dropout,
                        "hidden": best.config.hidden,
                        "best_epoch": best.best_epoch,
                        "val_loss": best.best_val_loss,
                    },
                    "test_scores": scores,
                    "clamp_warnings": best.model.clamp_warnings,
                }
            )

    random_stats = random_baseline(gold, manifest.random_instantiations, seed=0)
    rows.append(random_report_row(random_stats, manifest.corpus_name))

    from .evaluation import render_report, report_to_csv

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
        json.dumps(run_log, indent=2, sort_keys=True, default=list) + "\n", encoding="utf-8"
    )
    return run_log


def _significance_matrix(
    manifest: ExperimentManifest,
    predictions: dict[tuple[str, int], Predictions],
    gold,
) -> list[dict]:
    three_way = {"joint", "claim_outcome"}
    records: list[dict] = []
    for arch_a, arch_b in combinations(manifest.architectures, 2):
        classes = [Outcome.POS, Outcome.NEG]
        if arch_a in three_way and arch_b in three_way:
            classes.append(Outcome.NULL)
        for seed in manifest.seeds:
            a = predictions[(arch_a, seed)]
            b = predictions[(arch_b, seed)]
            for cls in classes:
                result = permutation_test(
                    per_case_scores(a, gold, cls),
                    per_case_scores(b, gold, cls),
                    resamples=manifest.resamples,
                    seed=0,
                )
                records.append(
                    {
                        "model_a": arch_a,
                        "model_b": arch_b,
                        "seed": seed,
                        "cls": {Outcome.POS: "pos", Outcome.NEG: "neg", Outcome.NULL: "null"}[cls],
                        "p_value": result.p_value,
                        "observed": result.observed,
                    }
                )
    return records
