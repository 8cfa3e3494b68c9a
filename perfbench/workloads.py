"""The benchmark's workloads: set-up, one measured pass, and its checks.

Every input is generated from the workload seed; the library only sees the
generated corpus and configs. A pass is one complete experiment: train the
four architectures, then evaluate them on the test split. run-desk does
this through `run_experiment` on a manifest written to disk, the others by
calling `train` and the evaluation functions directly.

Why these three:
- train-4k: the acceptance criterion-5 shape (default corpus, 4096 buckets,
  hidden 50). Adam, head math and the encoder all take a visible share of
  a step, so it is what the test suite and desk users pay for.
- train-long: the same at ~425 tokens per case. The bag-of-words encode and
  its backward dominate the step, so encoder work shows here.
- run-desk: the `negprec run` path at the default 32768 buckets with the
  desk grid. Dense Adam over the embedding tables dominates, and it is the
  only workload that loads a corpus from disk, grid-searches, writes
  checkpoints, prediction files, reports and the significance matrix.

Epoch budgets are short so that a pass fits a run; learning rates are
raised so that two epochs still reach test F1 well above zero.

Each workload has a quality floor: mean test F1 (pos, neg), in percent,
that a correct run must reach. A floor is the median over 30-33 seeds on the
seed code minus four times their interquartile range, rounded down, so
seed-to-seed noise stays above it while a change that costs a workload much
of its quality fails the run. The bounds in BENCHMARK.json cannot do this
for train-*: one bound serves every workload, and run-desk's 40-step models
vary far more from seed to seed than the 500-step train-* models.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from negprec import corpus, evaluation, experiment, models, synth, training
from negprec.corpus import Outcome
from negprec.errors import NegprecError
from negprec.models import ARCHITECTURES

RESAMPLES = 10000
RANDOM_INSTANTIATIONS = 100


@dataclass(frozen=True)
class Spec:
    name: str
    gen: dict
    train: dict
    f1_floor: tuple[float, float]
    desk: bool = False


SPECS = {
    "train-4k": Spec(
        "train-4k",
        gen={},
        train=dict(vocab_buckets=4096, hidden=50, learning_rate=3e-3, max_epochs=2),
        f1_floor=(78.0, 70.0),
    ),
    "train-long": Spec(
        "train-long",
        gen=dict(filler_tokens=400),
        train=dict(vocab_buckets=4096, hidden=50, max_tokens=512, learning_rate=3e-2,
                   max_epochs=2),
        f1_floor=(66.0, 54.0),
    ),
    "run-desk": Spec(
        "run-desk",
        gen=dict(train_size=1280),
        # learning_rates overrides the desk preset; dropouts and hiddens
        # (0.2; 50 and 100) stay as the preset gives them.
        train=dict(vocab_buckets=1 << 15, batch_size=64, max_epochs=2, learning_rate=3e-2),
        f1_floor=(58.0, 43.0),
        desk=True,
    ),
}


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)
        return ok


@dataclass
class PassResult:
    wall_s: float
    train_s: float
    eval_s: float
    case_epochs: int
    f1_pos: float
    f1_neg: float
    digest: str
    ops: Ops


@dataclass
class Context:
    spec: Spec
    work: Path
    splits: corpus.SplitSet
    index: corpus.ArticleIndex
    gold: corpus.LabelMatrix
    config: training.TrainConfig
    manifest_path: Path | None = None


def setup(spec: Spec, seed: int, work: Path) -> Context:
    """Generate the corpus; for run-desk also write it and its manifest."""
    splits = synth.generate_corpus(synth.GenConfig(seed=seed, **spec.gen))
    index = corpus.filter_articles(splits)
    gold = corpus.build_label_matrix(splits.test, index)
    config = training.TrainConfig(seed=seed, **spec.train)
    ctx = Context(spec, work, splits, index, gold, config)
    if spec.desk:
        corpus_dir = work / "corpus"
        corpus.save_corpus(splits, corpus_dir)
        ctx.manifest_path = work / "desk.manifest"
        ctx.manifest_path.write_text(
            "\n".join([
                f"corpus = {corpus_dir}",
                "corpus_name = synth",
                "architectures = " + ",".join(ARCHITECTURES),
                f"seeds = {seed}",
                "grid = desk",
                f"learning_rates = {config.learning_rate}",
                f"batch_size = {config.batch_size}",
                f"max_epochs = {config.max_epochs}",
                f"vocab_buckets = {config.vocab_buckets}",
                f"resamples = {RESAMPLES}",
                f"random_instantiations = {RANDOM_INSTANTIATIONS}",
            ]) + "\n",
            encoding="utf-8",
        )
    return ctx


def warm_up(ctx: Context) -> None:
    """One epoch on a small slice and its evaluation, plus a few
    significance tests on run-desk; untimed.

    The first pass in a fresh process otherwise runs up to a quarter
    slower, and its significance tests up to twice as slow, while the
    allocator settles on where embedding-sized arrays and sign matrices
    live. The warm-up allocates the same shapes, so the timed passes
    measure steady-state work.
    """
    small = corpus.SplitSet(
        train=ctx.splits.train[:64], validation=ctx.splits.validation[:16], test=ctx.splits.test
    )
    _train_pass(replace(ctx, splits=small, config=replace(ctx.config, max_epochs=1)))
    if ctx.spec.desk:
        n = len(ctx.splits.test)
        for _ in range(3):
            evaluation.permutation_test(np.zeros(n), np.ones(n), resamples=RESAMPLES, seed=0)


def run_pass(ctx: Context, tracer, number: int) -> PassResult:
    if ctx.spec.desk:
        return _desk_pass(ctx, tracer, number)
    return _train_pass(ctx)


# --------------------------------------------------------------------------
# checks shared by both kinds of pass
# --------------------------------------------------------------------------


def _covers(preds: evaluation.Predictions, gold: corpus.LabelMatrix) -> bool:
    """Every (case, article) cell of the test split has a prediction."""
    shape = gold.labels.shape
    if preds.case_ids != gold.case_ids or len(preds.articles) != shape[1]:
        return False
    if preds.kind == "three_way":
        return preds.labels.shape == shape and bool(np.isin(preds.labels, (0, 1, 2)).all())
    return preds.pos.shape == shape and preds.neg.shape == shape


def _distributions_ok(model: models.Model, test_ds: training.Dataset) -> bool:
    """outcome_distribution rows of the three-way models sum to 1."""
    if not hasattr(model, "outcome_distribution"):
        return True
    dist = model.outcome_distribution(test_ds)
    return bool(np.all(np.isfinite(dist)) and np.allclose(dist.sum(axis=-1), 1.0, atol=1e-9))


def _significance_pairs() -> list[tuple[str, str, Outcome]]:
    three_way = {"joint", "claim_outcome"}
    out = []
    for a, b in combinations(ARCHITECTURES, 2):
        classes = [Outcome.POS, Outcome.NEG]
        if a in three_way and b in three_way:
            classes.append(Outcome.NULL)
        out.extend((a, b, cls) for cls in classes)
    return out


# --------------------------------------------------------------------------
# train-4k / train-long: train() per architecture, then predict, score and
# the random baseline in memory. Significance tests run on run-desk only:
# the time of their sign matrices depends on where the allocator places
# them, and the warm-up and heap state they leave changed train-* timings.
# --------------------------------------------------------------------------


def _train_pass(ctx: Context) -> PassResult:
    ops = Ops()
    config = ctx.config
    started = time.perf_counter()
    train_s = 0.0
    case_epochs = 0
    trained: dict[str, models.Model] = {}
    for arch in ARCHITECTURES:
        t = time.perf_counter()
        try:
            result = training.train(arch, config, ctx.splits, index=ctx.index)
        except NegprecError as exc:
            ops.record(False, f"train {arch}: {exc}")
            continue
        finally:
            train_s += time.perf_counter() - t
        case_epochs += len(ctx.splits.train) * config.max_epochs
        if ops.record(math.isfinite(result.best_val_loss), f"train {arch}: best_val_loss"):
            trained[arch] = result.model

    eval_started = time.perf_counter()
    test_ds, preds, scores = _evaluate(ctx, trained, ops)
    ended = time.perf_counter()

    for arch, model in trained.items():
        ops.record(_distributions_ok(model, test_ds), f"outcome_distribution {arch}")
    digest = hashlib.sha256()
    for arch in ARCHITECTURES:
        p = preds.get(arch)
        if p is not None:
            for arr in (p.labels, p.pos, p.neg):
                if arr is not None:
                    digest.update(np.ascontiguousarray(arr).tobytes())
    return PassResult(
        wall_s=ended - started,
        train_s=train_s,
        eval_s=ended - eval_started,
        case_epochs=case_epochs,
        f1_pos=_mean_score(scores, "pos"),
        f1_neg=_mean_score(scores, "neg"),
        digest=digest.hexdigest(),
        ops=ops,
    )


def _evaluate(ctx: Context, trained: dict[str, models.Model], ops: Ops):
    """Encode the test split, predict, score, and draw the random baseline."""
    config = ctx.config
    test_ds = training.Dataset.build(
        ctx.splits.test, ctx.index, config.max_tokens, config.vocab_buckets
    )
    preds: dict[str, evaluation.Predictions] = {}
    scores: dict[str, dict] = {}
    for arch, model in trained.items():
        try:
            p = experiment.predict_model(model, test_ds, ctx.index.articles)
            ok = _covers(p, ctx.gold)
            if ok:
                scores[arch] = experiment.score_predictions(p, ctx.gold)
                preds[arch] = p
        except NegprecError:
            ok = False
        ops.record(ok, f"predict/score {arch}")
    try:
        baseline = experiment.random_baseline(ctx.gold, RANDOM_INSTANTIATIONS, seed=0)
        ops.record(all(math.isfinite(v["mean"]) for v in baseline.values()), "random baseline")
    except NegprecError:
        ops.record(False, "random baseline")
    return test_ds, preds, scores


def _mean_score(scores: dict[str, dict], cls: str) -> float:
    """Mean over the four architectures, in percent; a missing one counts 0."""
    total = sum(scores.get(a, {}).get(cls) or 0.0 for a in ARCHITECTURES)
    return 100.0 * total / len(ARCHITECTURES)


# --------------------------------------------------------------------------
# run-desk: parse_manifest + run_experiment, outputs checked from disk
# --------------------------------------------------------------------------


def _desk_pass(ctx: Context, tracer, number: int) -> PassResult:
    ops = Ops()
    out = ctx.work / f"bundle-{number}"
    shutil.rmtree(out, ignore_errors=True)
    n_grid = len(ARCHITECTURES) * training.DESK_GRID.size()
    first_span = len(tracer.spans)
    started = time.perf_counter()
    try:
        manifest = experiment.parse_manifest(ctx.manifest_path)
        run_log = tracer.call(
            "experiment.run", experiment.run_experiment, manifest, out,
            manifest_text=ctx.manifest_path.read_text(encoding="utf-8"),
        )
    except NegprecError as exc:
        run_log = None
        ops.attempted += n_grid
        ops.failed += n_grid
        ops.reasons.append(f"run_experiment: {exc}")
    wall = time.perf_counter() - started
    spans = tracer.spans[first_span:]
    train_s = sum(s.duration for s in spans if s.name == "experiment.grid_search")
    load_s = sum(s.duration for s in spans if s.name == "corpus.load")
    # eval_s leaves the significance tests out; they stay in wall_s and
    # evaluation.permutation_ms reports them on their own.
    significance_s = sum(s.duration for s in spans if s.name == "evaluation.permutation")
    searches = sum(1 for s in spans if s.name == "experiment.grid_search")

    scores: dict[str, dict] = {}
    digest = ""
    if run_log is not None:
        test_ds = training.Dataset.build(
            ctx.splits.test, ctx.index, ctx.config.max_tokens, ctx.config.vocab_buckets
        )
        for record in run_log["runs"]:
            tag = record["model"]
            arch = tag.rsplit("-seed", 1)[0]
            for row in record["grid"]:
                ops.record(
                    row["status"] == "ok" and math.isfinite(row["val_loss"]),
                    f"grid point {tag} {row}",
                )
            try:
                preds = evaluation.read_predictions(out / "predictions" / f"{tag}.jsonl")
                ok = _covers(preds, ctx.gold)
            except NegprecError:
                ok = False
            if ops.record(ok, f"predictions {tag}"):
                scores[arch] = record["test_scores"]
            try:
                model = models.load_checkpoint(out / "checkpoints" / f"{tag}.npz")
                ok = _distributions_ok(model, test_ds)
            except NegprecError:
                ok = False
            ops.record(ok, f"outcome_distribution {tag}")
        baseline = run_log["random_baseline"]
        ops.record(all(math.isfinite(v["mean"]) for v in baseline.values()), "random baseline")
        sig_lines = (out / "significance.csv").read_text(encoding="utf-8").splitlines()[1:]
        expected = len(_significance_pairs())
        for i in range(expected):
            ok = i < len(sig_lines) and 0.0 <= float(sig_lines[i].split(",")[4]) <= 1.0
            ops.record(ok, f"significance row {i}")
        digest = hashlib.sha256(
            (out / "report.csv").read_bytes() + b"\0" + (out / "significance.csv").read_bytes()
        ).hexdigest()
    return PassResult(
        wall_s=wall,
        train_s=train_s,
        eval_s=wall - train_s - load_s - significance_s,
        case_epochs=searches * training.DESK_GRID.size() * len(ctx.splits.train)
        * ctx.config.max_epochs,
        f1_pos=_mean_score(scores, "pos"),
        f1_neg=_mean_score(scores, "neg"),
        digest=digest,
        ops=ops,
    )
