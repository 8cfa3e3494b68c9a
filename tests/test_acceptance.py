"""Acceptance gate: one test per verifiable guarantee of the package.

Each test name states its criterion, so `pytest -v tests/test_acceptance.py`
prints one pass/fail line per criterion:

 1. probability identities of the outcome distributions
 2. analytic gradients match finite differences (and corruption is caught)
 3. decide() matches exhaustive configuration enumeration
 4. the published All columns equal the mean of their class columns
 5. synthetic corpus reproduces the negative-outcome asymmetry
 6. random-baseline simulation matches the analytic expectation
 7. exhaustive and sampled permutation modes agree
 8. the worked extraction example yields the documented label split
 9. identical manifest + seed reruns are byte-identical

Tests 6b and 8b additionally check published corpus statistics and skip
unless a real corpus directory is supplied via NEGPREC_OUTCOME_CORPUS.
"""

from __future__ import annotations

import itertools
import math
import os
import time

import numpy as np
import pytest

from negprec.corpus import (
    ArticleIndex,
    Outcome,
    build_label_matrix,
    derive_labels,
    filter_articles,
    load_corpus,
    split_stats,
)
from negprec.encoder import PrecomputedEncoder
from negprec.evaluation import (
    CLASS_NAMES,
    permutation_test,
    random_baseline,
    rows_from_published,
    score_predictions,
    verify_all_arithmetic,
)
from negprec.evaluation import LabelMatrix  # re-exported for gold construction
from negprec.experiment import ExperimentManifest, predict_model, run_experiment
from negprec.extraction import DEFAULT_PATTERNS, extract_claims
from negprec.models import ARCHITECTURES, build_model, decide
from negprec.synth import GenConfig, generate_corpus
from negprec.training import Dataset, TrainConfig, gradient_check, train
from negprec.corpus import save_corpus

REAL_CORPUS_VAR = "NEGPREC_OUTCOME_CORPUS"


# --------------------------------------------------------------------------
# shared construction helpers (self-contained on purpose)
# --------------------------------------------------------------------------


def make_batch(labels: np.ndarray, case_ids: list[str]) -> Dataset:
    labels = np.asarray(labels, dtype=np.int8)
    return Dataset(
        case_ids=case_ids,
        tokens=[np.array([], dtype=np.int64) for _ in case_ids],
        labels=labels,
    )


def vector_model(arch: str, n_cases: int, seed: int, index: ArticleIndex, dim: int = 4):
    """Model over random precomputed case vectors plus a random batch."""
    rng = np.random.default_rng(seed)
    case_ids = [f"case-{i}" for i in range(n_cases)]
    vectors = PrecomputedEncoder(
        table={cid: rng.normal(size=dim) for cid in case_ids}, dim=dim
    )
    model = build_model(
        arch, index, rng, dim=dim, hidden=3,
        vectors=vectors,
    )
    for p in model.params.values():
        p *= 4.0  # spread logits across confident and uncertain regions
    labels = rng.integers(0, 3, size=(n_cases, len(index)))
    return model, make_batch(labels, case_ids)


class CorruptedGradients:
    """Poisons one analytic gradient array; the checker must notice."""

    def __init__(self, model, name: str):
        self._model = model
        self._name = name
        self.params = model.params

    def loss_and_grads(self, batch, dropout=0.0, rng=None, want_grads=True):
        loss, grads = self._model.loss_and_grads(batch, dropout, rng, want_grads)
        if grads is not None:
            grads[self._name] = grads[self._name] + 1.0
        return loss, grads

    def nll(self, batch):
        return self._model.nll(batch)


# --------------------------------------------------------------------------
# 1. probability identities
# --------------------------------------------------------------------------


def test_criterion_01_probability_identities():
    started = time.monotonic()
    index = ArticleIndex((2, 6, 8))
    draws, cases_per_draw = 20, 500  # 10,000 case rows per architecture
    for arch in ("joint", "claim_outcome"):
        for draw in range(draws):
            model, batch = vector_model(arch, cases_per_draw, seed=draw, index=index)
            dist = model.outcome_distribution(batch)
            assert dist.shape == (cases_per_draw, 3, 3)
            assert np.all(dist >= 0.0)
            assert np.max(np.abs(dist.sum(axis=2) - 1.0)) <= 1e-12
            if arch == "claim_outcome":
                p_claim, _ = model.forward(batch)
                # exact, not approximate: p*q and (1-p)*q cannot round above q
                assert np.all(dist[:, :, Outcome.POS] <= p_claim)
                assert np.all(dist[:, :, Outcome.NEG] <= p_claim)
    assert time.monotonic() - started < 30.0


# --------------------------------------------------------------------------
# 2. gradient correctness
# --------------------------------------------------------------------------


def test_criterion_02_gradient_correctness():
    started = time.monotonic()
    index = ArticleIndex((2, 6))
    for arch in ARCHITECTURES:
        for seed in range(5):
            rng = np.random.default_rng(seed)
            model = build_model(
                arch, index, rng, dim=6, hidden=4, vocab_buckets=32, max_tokens=12,
            )
            labels = rng.integers(0, 3, size=(6, 2)).astype(np.int8)
            batch = Dataset(
                case_ids=[f"case-{i}" for i in range(6)],
                tokens=[rng.integers(0, 32, size=rng.integers(1, 12)) for _ in range(6)],
                labels=labels,
            )
            assert gradient_check(model, batch, epsilon=1e-5) < 1e-4
            if seed == 0:
                name = sorted(model.params)[0]
                corrupted = CorruptedGradients(model, name)
                assert gradient_check(corrupted, batch, epsilon=1e-5) > 1e-2
    assert time.monotonic() - started < 120.0


# --------------------------------------------------------------------------
# 3. decision-oracle equivalence
# --------------------------------------------------------------------------


def _argmax_with_preference(pos: float, neg: float, null: float) -> int:
    best_cls, best_val = Outcome.POS, pos
    for cls, val in ((Outcome.NEG, neg), (Outcome.NULL, null)):
        if val > best_val:
            best_cls, best_val = cls, val
    return int(best_cls)


def test_criterion_03_decision_oracle_equivalence():
    index = ArticleIndex((2, 6, 8))  # K = 3
    n_cases = 1000

    # claim-outcome: enumerate all four (outcome, claim) states per cell,
    # marginalize by summing the states that render as each class, argmax.
    model, batch = vector_model("claim_outcome", n_cases, seed=42, index=index)
    q, p = model.forward(batch)
    predicted = model.predict_labels(batch)
    mismatches = 0
    for i in range(n_cases):
        for j in range(len(index)):
            states = {
                ("pos", True): q[i, j] * p[i, j],
                ("neg", True): q[i, j] * (1.0 - p[i, j]),
                ("pos", False): (1.0 - q[i, j]) * p[i, j],
                ("neg", False): (1.0 - q[i, j]) * (1.0 - p[i, j]),
            }
            pos_mass = states[("pos", True)]
            neg_mass = states[("neg", True)]
            null_mass = states[("pos", False)] + states[("neg", False)]
            expected = _argmax_with_preference(pos_mass, neg_mass, null_mass)
            if int(predicted[i, j]) != expected:
                mismatches += 1
    assert mismatches == 0

    # joint: the three admissible configurations are the distribution itself.
    model, batch = vector_model("joint", n_cases, seed=43, index=index)
    dist = model.outcome_distribution(batch)
    predicted = model.predict_labels(batch)
    assert np.array_equal(predicted, decide(dist))
    mismatches = 0
    for i in range(n_cases):
        for j in range(len(index)):
            expected = _argmax_with_preference(
                float(dist[i, j, 0]), float(dist[i, j, 1]), float(dist[i, j, 2])
            )
            if int(predicted[i, j]) != expected:
                mismatches += 1
    assert mismatches == 0


# --------------------------------------------------------------------------
# 4. published All-column arithmetic
# --------------------------------------------------------------------------


def test_criterion_04_published_all_column_arithmetic():
    assert abs((74.80 + 24.01 + 95.53) / 3.0 - 64.78) <= 0.005
    for corpus in ("outcome", "benchmark"):
        findings = verify_all_arithmetic(rows_from_published(corpus), tolerance=0.005)
        assert len(findings) == 6  # the six three-way rows per corpus
        assert all(f["ok"] for f in findings), findings


# --------------------------------------------------------------------------
# 5. synthetic negative-outcome asymmetry
# --------------------------------------------------------------------------


def test_criterion_05_synthetic_negative_asymmetry():
    """Train all four architectures on the default synthetic corpus for
    three seeds; on 3-seed mean test F1 every architecture must find
    negatives harder than positives, and the claim-outcome model must beat
    the simple baseline on negatives by at least five points."""
    started = time.monotonic()
    seeds = (0, 1, 2)
    sums: dict[str, dict[str, float]] = {a: {"pos": 0.0, "neg": 0.0} for a in ARCHITECTURES}
    for seed in seeds:
        splits = generate_corpus(GenConfig(seed=seed))
        index = filter_articles(splits)
        gold = build_label_matrix(splits.test, index)
        config = TrainConfig(seed=seed, vocab_buckets=4096, hidden=50)
        test_ds = Dataset.build(
            splits.test, index, config.max_tokens, config.vocab_buckets
        )
        for arch in ARCHITECTURES:
            result = train(arch, config, splits, index=index)
            preds = predict_model(result.model, test_ds, index.articles)
            scores = score_predictions(preds, gold)
            sums[arch]["pos"] += 100.0 * scores["pos"]
            sums[arch]["neg"] += 100.0 * scores["neg"]
    means = {
        arch: {cls: total / len(seeds) for cls, total in by_cls.items()}
        for arch, by_cls in sums.items()
    }
    for arch, mean in means.items():
        assert mean["neg"] < mean["pos"], (arch, means)
    gap = means["claim_outcome"]["neg"] - means["simple"]["neg"]
    assert gap >= 5.0, means
    assert time.monotonic() - started < 600.0


# --------------------------------------------------------------------------
# 6. random baseline
# --------------------------------------------------------------------------


def _expected_random_f1(n_gold: int, n_other: int) -> float:
    """Exact E[F1] for uniform 3-way predictions: TP ~ Bin(n_gold, 1/3) and
    FP ~ Bin(n_other, 1/3) over disjoint cells, FN = n_gold - TP."""
    expectation = 0.0
    for tp in range(n_gold + 1):
        p_tp = math.comb(n_gold, tp) * (1 / 3) ** tp * (2 / 3) ** (n_gold - tp)
        for fp in range(n_other + 1):
            p_fp = math.comb(n_other, fp) * (1 / 3) ** fp * (2 / 3) ** (n_other - fp)
            denom = 2 * tp + fp + (n_gold - tp)
            expectation += p_tp * p_fp * (0.0 if denom == 0 else 2.0 * tp / denom)
    return expectation


def test_criterion_06_random_baseline_analytic():
    labels = np.full((50, 2), Outcome.NULL, dtype=np.int8)
    flat = labels.ravel()
    flat[:30] = Outcome.POS
    flat[30:50] = Outcome.NEG
    gold = LabelMatrix(
        case_ids=[f"case-{i}" for i in range(50)],
        labels=labels,
    )
    counts = {Outcome.POS: 30, Outcome.NEG: 20, Outcome.NULL: 50}
    stats = random_baseline(gold, instantiations=100, seed=0)
    for cls, n_gold in counts.items():
        expected = _expected_random_f1(n_gold, 100 - n_gold)
        simulated = stats[CLASS_NAMES[cls]]["mean"]
        assert abs(simulated - expected) <= 0.02, (cls, simulated, expected)


def test_criterion_06_random_baseline_real_corpus():
    corpus_dir = os.environ.get(REAL_CORPUS_VAR)
    if not corpus_dir:
        pytest.skip(f"real corpus not supplied (set {REAL_CORPUS_VAR} to run)")
    splits = load_corpus(corpus_dir)
    index = filter_articles(splits)
    gold = build_label_matrix(splits.test, index)
    stats = random_baseline(gold, instantiations=100, seed=0)
    assert abs(100.0 * stats["neg"]["mean"] - 11.12) <= 1.0


# --------------------------------------------------------------------------
# 7. permutation-test agreement
# --------------------------------------------------------------------------


def test_criterion_07_permutation_modes_agree(monkeypatch):
    a = np.array([1.0, 2.0, 3.0, 4.0])
    result = permutation_test(a, np.zeros(4))
    assert result.mode == "exhaustive"
    assert result.p_value == 0.125

    rng = np.random.default_rng(7)
    a = rng.normal(size=12)
    b = a + rng.normal(scale=0.8, size=12)
    exact = permutation_test(a, b)
    assert exact.mode == "exhaustive"

    import negprec.evaluation as ev

    monkeypatch.setattr(ev, "EXHAUSTIVE_LIMIT", 0)
    sampled = permutation_test(a, b, resamples=10000, seed=0)
    assert sampled.mode == "sampled"
    assert abs(sampled.p_value - exact.p_value) <= 0.01


# --------------------------------------------------------------------------
# 8. extraction fixture
# --------------------------------------------------------------------------

WORKED_JUDGMENT = (
    "The applicant complained under Article 2 of the Convention that the "
    "authorities had failed to protect her daughter's life. Relying on "
    "Article 6 § 1 of the Convention, she further complained of the "
    "length of the proceedings. She alleged a violation of Article 8, and "
    "invoked Article 14 of the Convention in conjunction with the above."
)


def test_criterion_08_extraction_fixture():
    claims = extract_claims(WORKED_JUDGMENT, DEFAULT_PATTERNS)
    assert claims == frozenset({2, 6, 8, 14})
    violated = frozenset({2, 6})
    index = ArticleIndex(tuple(sorted(claims)))
    labels = derive_labels(claims, violated, index)
    negatives = {index.articles[j] for j in range(len(index))
                 if labels[j] == Outcome.NEG}
    positives = {index.articles[j] for j in range(len(index))
                 if labels[j] == Outcome.POS}
    assert negatives == {8, 14}
    assert positives == {2, 6}


def test_criterion_08_real_corpus_split_counts():
    corpus_dir = os.environ.get(REAL_CORPUS_VAR)
    if not corpus_dir:
        pytest.skip(f"real corpus not supplied (set {REAL_CORPUS_VAR} to run)")
    splits = load_corpus(corpus_dir)
    stats = split_stats(splits, filter_articles(splits))
    train = stats["splits"]["train"]
    assert train["with_positive"] == 7542
    assert train["with_negative"] == 4413
    assert train["with_claim"] == 8372
    validation = stats["splits"]["validation"]
    assert (validation["with_positive"], validation["with_negative"]) == (844, 498)
    test = stats["splits"]["test"]
    assert (test["with_positive"], test["with_negative"]) == (925, 560)


# --------------------------------------------------------------------------
# 9. determinism
# --------------------------------------------------------------------------


def test_criterion_09_rerun_determinism(tmp_path):
    corpus_dir = tmp_path / "corpus"
    save_corpus(
        generate_corpus(
            GenConfig(n_articles=2, vocab=40, train_size=20,
                      validation_size=6, test_size=6, seed=0)
        ),
        corpus_dir,
    )
    manifest = ExperimentManifest(
        corpus=str(corpus_dir),
        architectures=("simple", "joint"),
        seeds=(0,),
        learning_rates=(0.01,),
        dropouts=(0.0,),
        hiddens=(4,),
        batch_size=8,
        max_epochs=2,
        dim=8,
        vocab_buckets=64,
        max_tokens=48,
        resamples=200,
        random_instantiations=10,
    )
    run_experiment(manifest, tmp_path / "first", manifest_text="fixed")
    run_experiment(manifest, tmp_path / "second", manifest_text="fixed")
    for name in ("report.csv", "significance.csv", "report.txt", "run_log.json"):
        assert (tmp_path / "first" / name).read_bytes() == (
            tmp_path / "second" / name
        ).read_bytes(), name
