"""Scoring tests: micro-F1 against a loop oracle, the random baseline
against an exact binomial expectation, the permutation test against full
sign enumeration, prediction-file round-trips, and report arithmetic."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negprec.corpus import LabelMatrix, Outcome
from negprec.errors import DataError
from negprec.evaluation import (
    CLASS_NAMES,
    EXHAUSTIVE_LIMIT,
    PUBLISHED_RESULTS,
    Predictions,
    ReportRow,
    all_score,
    f1_from_counts,
    micro_f1,
    per_case_scores,
    permutation_test,
    random_baseline,
    random_report_row,
    read_predictions,
    read_report_csv,
    render_report,
    report_to_csv,
    rows_from_published,
    score_predictions,
    verify_all_arithmetic,
    write_predictions,
)

# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------


def oracle_f1(pred_mask: np.ndarray, gold_mask: np.ndarray) -> float:
    """Micro-F1 recomputed cell by cell in pure Python."""
    tp = fp = fn = 0
    for p, g in zip(pred_mask.ravel().tolist(), gold_mask.ravel().tolist()):
        if p and g:
            tp += 1
        elif p and not g:
            fp += 1
        elif g and not p:
            fn += 1
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2.0 * tp / denom


def oracle_expected_random_f1(n_gold: int, n_other: int) -> float:
    """Exact E[F1] under uniform 3-way predictions.

    TP ~ Binomial(n_gold, 1/3) and FP ~ Binomial(n_other, 1/3) are
    independent because they count disjoint cells, and FN = n_gold - TP,
    so the expectation is a finite double sum over both supports."""
    expectation = 0.0
    for tp in range(n_gold + 1):
        p_tp = math.comb(n_gold, tp) * (1 / 3) ** tp * (2 / 3) ** (n_gold - tp)
        for fp in range(n_other + 1):
            p_fp = math.comb(n_other, fp) * (1 / 3) ** fp * (2 / 3) ** (n_other - fp)
            denom = 2 * tp + fp + (n_gold - tp)
            f1 = 0.0 if denom == 0 else 2.0 * tp / denom
            expectation += p_tp * p_fp * f1
    return expectation


def oracle_permutation_p(d: list[float]) -> float:
    """p-value by enumerating every sign assignment with itertools."""
    n = len(d)
    observed = abs(sum(d) / n)
    hits = 0
    for signs in itertools.product((1.0, -1.0), repeat=n):
        stat = abs(sum(s * x for s, x in zip(signs, d)) / n)
        if stat >= observed:
            hits += 1
    return hits / 2**n


def make_gold(labels: list[list[int]], prefix: str = "c") -> LabelMatrix:
    arr = np.array(labels, dtype=np.int8)
    return LabelMatrix(
        case_ids=[f"{prefix}-{i}" for i in range(arr.shape[0])],
        labels=arr,
        claims=arr != Outcome.NULL,
    )


def random_three_way(n: int, k: int, seed: int) -> tuple[Predictions, LabelMatrix]:
    rng = np.random.default_rng(seed)
    gold = make_gold(rng.integers(0, 3, size=(n, k)).tolist())
    preds = Predictions(
        case_ids=list(gold.case_ids),
        articles=tuple(range(2, 2 + k)),
        kind="three_way",
        labels=rng.integers(0, 3, size=(n, k)).astype(np.int8),
    )
    return preds, gold


def random_baseline_preds(n: int, k: int, seed: int) -> tuple[Predictions, LabelMatrix]:
    rng = np.random.default_rng(seed)
    gold = make_gold(rng.integers(0, 3, size=(n, k)).tolist())
    preds = Predictions(
        case_ids=list(gold.case_ids),
        articles=tuple(range(2, 2 + k)),
        kind="baseline",
        pos=rng.random((n, k)) < 0.5,
        neg=rng.random((n, k)) < 0.5,
    )
    return preds, gold


# --------------------------------------------------------------------------
# counts and micro-F1
# --------------------------------------------------------------------------


class TestF1FromCounts:
    @pytest.mark.parametrize(
        ("tp", "fp", "fn", "expected"),
        [
            (0, 0, 0, 0.0),  # nothing predicted, nothing gold
            (0, 5, 0, 0.0),  # only false positives
            (0, 0, 5, 0.0),  # only false negatives
            (3, 0, 0, 1.0),
            (2, 1, 3, 4.0 / 8.0),
            (1, 1, 1, 0.5),
        ],
    )
    def test_hand_values(self, tp, fp, fn, expected):
        assert f1_from_counts(tp, fp, fn) == expected

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
    @settings(max_examples=100)
    def test_bounded(self, tp, fp, fn):
        value = f1_from_counts(tp, fp, fn)
        assert 0.0 <= value <= 1.0


class TestMicroF1:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("shape", [(1, 1), (3, 2), (7, 5)])
    def test_three_way_matches_loop_oracle(self, seed, shape):
        preds, gold = random_three_way(*shape, seed=seed)
        for cls in Outcome:
            expected = oracle_f1(preds.labels == cls, gold.labels == cls)
            assert micro_f1(preds, gold, cls) == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_baseline_matches_loop_oracle(self, seed):
        preds, gold = random_baseline_preds(6, 3, seed=seed)
        assert micro_f1(preds, gold, Outcome.POS) == oracle_f1(
            preds.pos, gold.labels == Outcome.POS
        )
        assert micro_f1(preds, gold, Outcome.NEG) == oracle_f1(
            preds.neg, gold.labels == Outcome.NEG
        )

    def test_perfect_predictions_score_one(self):
        gold = make_gold([[0, 1], [2, 0]])
        preds = Predictions(
            case_ids=list(gold.case_ids),
            articles=(2, 3),
            kind="three_way",
            labels=gold.labels.copy(),
        )
        for cls in Outcome:
            assert micro_f1(preds, gold, cls) == 1.0

    def test_mismatched_case_ids_rejected(self):
        preds, gold = random_three_way(3, 2, seed=0)
        gold.case_ids[0] = "other"
        with pytest.raises(DataError, match="different cases"):
            micro_f1(preds, gold, Outcome.POS)

    def test_mismatched_shape_rejected(self):
        preds, _ = random_three_way(3, 2, seed=0)
        gold = make_gold([[0], [1], [2]])
        with pytest.raises(DataError, match="different shapes"):
            micro_f1(preds, gold, Outcome.POS)


class TestPredictionsValidation:
    def test_three_way_needs_labels(self):
        with pytest.raises(DataError, match="three-way predictions need"):
            Predictions(case_ids=["a"], articles=(2,), kind="three_way")

    def test_three_way_needs_full_shape(self):
        with pytest.raises(DataError, match="three-way predictions need"):
            Predictions(
                case_ids=["a", "b"],
                articles=(2,),
                kind="three_way",
                labels=np.zeros((1, 1), dtype=np.int8),
            )

    def test_baseline_needs_both_arrays(self):
        with pytest.raises(DataError, match="baseline predictions need"):
            Predictions(
                case_ids=["a"], articles=(2,), kind="baseline", pos=np.zeros((1, 1), bool)
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError, match="unknown prediction kind"):
            Predictions(case_ids=["a"], articles=(2,), kind="fuzzy")

    def test_baseline_has_no_null_mask(self):
        preds, _ = random_baseline_preds(2, 2, seed=0)
        with pytest.raises(DataError, match="no NULL class"):
            preds.class_mask(Outcome.NULL)

    def test_classes_by_kind(self):
        three, _ = random_three_way(2, 2, seed=0)
        base, _ = random_baseline_preds(2, 2, seed=0)
        assert three.classes() == (Outcome.POS, Outcome.NEG, Outcome.NULL)
        assert base.classes() == (Outcome.POS, Outcome.NEG)


class TestScorePredictions:
    def test_three_way_fills_all_four_scores(self):
        preds, gold = random_three_way(8, 3, seed=1)
        scores = score_predictions(preds, gold)
        assert set(scores) == {"pos", "neg", "null", "all"}
        for key in ("pos", "neg", "null"):
            assert scores[key] == micro_f1(preds, gold, {"pos": Outcome.POS,
                                                         "neg": Outcome.NEG,
                                                         "null": Outcome.NULL}[key])
        assert scores["all"] == (scores["pos"] + scores["neg"] + scores["null"]) / 3.0

    def test_baseline_leaves_null_and_all_undefined(self):
        preds, gold = random_baseline_preds(8, 3, seed=1)
        scores = score_predictions(preds, gold)
        assert scores["null"] is None
        assert scores["all"] is None
        assert scores["pos"] == micro_f1(preds, gold, Outcome.POS)
        assert scores["neg"] == micro_f1(preds, gold, Outcome.NEG)

    @pytest.mark.parametrize("missing", ["pos", "neg", "null"])
    def test_all_score_undefined_when_any_class_missing(self, missing):
        values = {"pos": 1.0, "neg": 0.5, "null": 0.25}
        values[missing] = None
        assert all_score(values["pos"], values["neg"], values["null"]) is None

    def test_all_score_is_unweighted_mean(self):
        assert all_score(0.9, 0.3, 0.6) == (0.9 + 0.3 + 0.6) / 3.0


# --------------------------------------------------------------------------
# random baseline
# --------------------------------------------------------------------------


class TestRandomBaseline:
    def test_rejects_zero_instantiations(self):
        gold = make_gold([[0, 1]])
        with pytest.raises(DataError, match="instantiations"):
            random_baseline(gold, instantiations=0)

    def test_deterministic_per_seed(self):
        gold = make_gold(np.random.default_rng(3).integers(0, 3, (10, 2)).tolist())
        assert random_baseline(gold, 20, seed=5) == random_baseline(gold, 20, seed=5)
        other = random_baseline(gold, 20, seed=6)
        assert other != random_baseline(gold, 20, seed=5)

    def test_matches_exact_replication(self):
        """Replay the same RNG stream and recompute every F1 with the loop
        oracle; means and standard deviations must match exactly."""
        gold = make_gold(np.random.default_rng(7).integers(0, 3, (9, 4)).tolist())
        instantiations, seed = 25, 11
        result = random_baseline(gold, instantiations, seed=seed)

        rng = np.random.default_rng(seed)
        per_class = {cls: [] for cls in Outcome}
        n, k = gold.labels.shape
        for _ in range(instantiations):
            drawn = rng.integers(0, 3, size=(n, k), dtype=np.int8)
            for cls in Outcome:
                per_class[cls].append(oracle_f1(drawn == cls, gold.labels == cls))
        for cls in Outcome:
            name = CLASS_NAMES[cls]
            assert result[name]["mean"] == float(np.mean(per_class[cls]))
            assert result[name]["sd"] == float(np.std(per_class[cls]))

    def test_mean_matches_binomial_expectation(self):
        """With enough instantiations the simulated mean must sit within one
        point of the exact binomial expectation for each class."""
        labels = np.full((30, 2), Outcome.NULL, dtype=np.int8)
        flat = labels.ravel()
        flat[:20] = Outcome.POS
        flat[20:32] = Outcome.NEG
        gold = make_gold(labels.tolist())
        counts = {
            Outcome.POS: 20,
            Outcome.NEG: 12,
            Outcome.NULL: 60 - 32,
        }
        result = random_baseline(gold, instantiations=2000, seed=0)
        for cls, n_gold in counts.items():
            expected = oracle_expected_random_f1(n_gold, 60 - n_gold)
            assert result[CLASS_NAMES[cls]]["mean"] == pytest.approx(expected, abs=0.01)

    def test_report_row(self):
        """Percent-scale class means, and All their unweighted mean."""
        gold = make_gold(np.random.default_rng(8).integers(0, 3, (12, 3)).tolist())
        stats = random_baseline(gold, 30, seed=2)
        row = random_report_row(stats, "synthetic")
        assert (row.model, row.encoder, row.corpus) == ("random", "-", "synthetic")
        means = [stats[name]["mean"] for name in ("pos", "neg", "null")]
        assert [row.scores[name] for name in ("pos", "neg", "null")] == [100.0 * m for m in means]
        assert row.scores["all"] == pytest.approx(100.0 * math.fsum(means) / 3.0, rel=1e-15)
        assert verify_all_arithmetic([row])[0]["ok"]


# --------------------------------------------------------------------------
# permutation test
# --------------------------------------------------------------------------


class TestPermutationTest:
    def test_four_positive_pairs_give_exactly_one_eighth(self):
        """Only the all-plus and all-minus assignments reach the observed
        statistic when every difference is positive: p = 2/16."""
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.zeros(4)
        result = permutation_test(a, b)
        assert result.p_value == 0.125
        assert result.mode == "exhaustive"
        assert result.n_pairs == 4
        assert result.assignments == 16
        assert result.observed == 2.5

    @pytest.mark.parametrize(
        "diffs",
        [
            [1.0, -2.0, 0.5, 3.25, -0.75],
            [1.0, 1.0, -1.0, 2.0, 0.0],  # ties and a zero difference
            [0.5, 0.25, 0.125],
            [-4.0, -2.0, -1.0, -0.5, -0.25, -0.125],
        ],
    )
    def test_exhaustive_matches_itertools_oracle(self, diffs):
        # Dyadic differences make every partial sum exact, so the >= cut
        # is bit-for-bit identical between implementation and oracle.
        a = np.array(diffs)
        b = np.zeros(len(diffs))
        result = permutation_test(a, b)
        assert result.mode == "exhaustive"
        assert result.p_value == oracle_permutation_p(diffs)

    def test_identical_inputs_give_p_one(self):
        a = np.array([0.3, 0.7, 0.1])
        result = permutation_test(a, a.copy())
        assert result.p_value == 1.0
        assert result.observed == 0.0

    def test_sampled_mode_approximates_exhaustive(self, monkeypatch):
        rng = np.random.default_rng(2)
        a = rng.random(12)
        b = rng.random(12)
        exact = permutation_test(a, b)
        assert exact.mode == "exhaustive"

        import negprec.evaluation as ev

        monkeypatch.setattr(ev, "EXHAUSTIVE_LIMIT", 0)
        sampled = permutation_test(a, b, resamples=20000, seed=9)
        assert sampled.mode == "sampled"
        assert sampled.assignments == 20000
        assert sampled.p_value == pytest.approx(exact.p_value, abs=0.02)

    def test_sampled_blocks_match_one_draw(self):
        """Drawing the sign vectors block by block gives the p-value of one
        draw of them all: the signs are the same, and with integer
        differences every sum is exact."""
        rng = np.random.default_rng(4)
        n = 300  # 3495 rows per block, so 10000 resamples take three
        a = rng.integers(0, 5, n).astype(np.float64)
        b = rng.integers(0, 5, n).astype(np.float64)
        d = a - b
        signs = np.random.default_rng(6).integers(0, 2, size=(10000, n)) * 2 - 1
        hits = int(np.sum(np.abs(signs @ d) / n >= abs(d.mean())))
        result = permutation_test(a, b, resamples=10000, seed=6)
        assert result.p_value == hits / 10000
        assert 0.0 < result.p_value < 1.0

    def test_large_inputs_switch_to_sampling(self):
        rng = np.random.default_rng(0)
        a = rng.random(EXHAUSTIVE_LIMIT + 1)
        b = rng.random(EXHAUSTIVE_LIMIT + 1)
        result = permutation_test(a, b, resamples=500, seed=1)
        assert result.mode == "sampled"
        assert result.n_pairs == EXHAUSTIVE_LIMIT + 1
        assert 0.0 <= result.p_value <= 1.0

    def test_shape_errors(self):
        with pytest.raises(DataError, match="equal-length"):
            permutation_test(np.ones(3), np.ones(4))
        with pytest.raises(DataError, match="equal-length"):
            permutation_test(np.ones(0), np.ones(0))
        with pytest.raises(DataError, match="equal-length"):
            permutation_test(np.ones((2, 2)), np.ones((2, 2)))

    def test_rejects_zero_resamples(self):
        a = np.arange(EXHAUSTIVE_LIMIT + 1, dtype=np.float64)
        with pytest.raises(DataError, match="resamples"):
            permutation_test(a, a * 2, resamples=0)


class TestPerCaseScores:
    def test_matches_loop_oracle(self):
        preds, gold = random_three_way(12, 4, seed=3)
        for cls in Outcome:
            scores = per_case_scores(preds, gold, cls)
            for i in range(12):
                expected = sum(
                    (preds.labels[i, j] == cls) == (gold.labels[i, j] == cls)
                    for j in range(4)
                )
                assert scores[i] == float(expected)

    def test_baseline_kind(self):
        preds, gold = random_baseline_preds(5, 3, seed=4)
        scores = per_case_scores(preds, gold, Outcome.NEG)
        for i in range(5):
            expected = sum(
                bool(preds.neg[i, j]) == (gold.labels[i, j] == Outcome.NEG)
                for j in range(3)
            )
            assert scores[i] == float(expected)

    def test_perfect_prediction_scores_full_width(self):
        preds, gold = random_three_way(4, 3, seed=5)
        preds.labels[:] = gold.labels
        assert per_case_scores(preds, gold, Outcome.POS).tolist() == [3.0] * 4


# --------------------------------------------------------------------------
# prediction files
# --------------------------------------------------------------------------


class TestPredictionFiles:
    def test_three_way_round_trip(self, tmp_path):
        preds, _ = random_three_way(5, 3, seed=6)
        path = tmp_path / "preds.jsonl"
        write_predictions(preds, path)
        loaded = read_predictions(path)
        assert loaded.kind == "three_way"
        assert loaded.case_ids == preds.case_ids
        assert loaded.articles == preds.articles
        assert np.array_equal(loaded.labels, preds.labels)

    def test_baseline_round_trip(self, tmp_path):
        preds, _ = random_baseline_preds(4, 2, seed=7)
        path = tmp_path / "preds.jsonl"
        write_predictions(preds, path)
        loaded = read_predictions(path)
        assert loaded.kind == "baseline"
        assert np.array_equal(loaded.pos, preds.pos)
        assert np.array_equal(loaded.neg, preds.neg)

    def test_unsorted_articles_are_sorted_on_read(self, tmp_path):
        preds = Predictions(
            case_ids=["a"],
            articles=(6, 2),
            kind="three_way",
            labels=np.array([[Outcome.POS, Outcome.NEG]], dtype=np.int8),
        )
        path = tmp_path / "preds.jsonl"
        write_predictions(preds, path)
        loaded = read_predictions(path)
        assert loaded.articles == (2, 6)
        assert loaded.labels.tolist() == [[Outcome.NEG, Outcome.POS]]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            read_predictions(tmp_path / "absent.jsonl")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n\n")
        with pytest.raises(DataError, match="empty"):
            read_predictions(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"case_id": "a", "article": 2, "pred": "pos"}\n{oops\n')
        with pytest.raises(DataError, match=r"bad\.jsonl:2"):
            read_predictions(path)

    @pytest.mark.parametrize(
        "line,match",
        [
            (b"[1, 2]", r"bad\.jsonl:2: expected a JSON object"),
            (b"5", r"bad\.jsonl:2: expected a JSON object"),
            (b'"text"', r"bad\.jsonl:2: expected a JSON object"),
            (b'{"case_id": "b\xff", "article": 2, "pred": "pos"}', r"bad\.jsonl: not UTF-8"),
        ],
        ids=["list", "number", "string", "non-utf8"],
    )
    def test_bad_line_is_data_error(self, tmp_path, line, match):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"case_id": "a", "article": 2, "pred": "pos"}\n' + line + b"\n")
        with pytest.raises(DataError, match=match):
            read_predictions(path)

    @pytest.mark.parametrize(
        "line,match",
        [
            ('{"case_id": "a", "article": 2, "pred": ["pos"]}', "unknown class"),
            ('{"case_id": "a", "article": true, "pred": "pos"}', "article int"),
        ],
        ids=["list-class", "bool-article"],
    )
    def test_bad_field_type(self, tmp_path, line, match):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(DataError, match=match):
            read_predictions(path)

    def test_unknown_class_name(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"case_id": "a", "article": 2, "pred": "maybe"}\n')
        with pytest.raises(DataError, match="unknown class 'maybe'"):
            read_predictions(path)

    def test_non_boolean_flags(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"case_id": "a", "article": 2, "pos": 1, "neg": false}\n')
        with pytest.raises(DataError, match="booleans"):
            read_predictions(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"case_id": "a", "article": 2}\n')
        with pytest.raises(DataError, match="either pred or pos/neg"):
            read_predictions(path)

    def test_bad_case_id_or_article(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"case_id": 7, "article": 2, "pred": "pos"}\n')
        with pytest.raises(DataError, match="case_id string"):
            read_predictions(path)

    def test_mixed_kinds_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"case_id": "a", "article": 2, "pred": "pos"}\n'
            '{"case_id": "a", "article": 3, "pos": true, "neg": false}\n'
        )
        with pytest.raises(DataError, match="mixed prediction kinds"):
            read_predictions(path)

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"case_id": "a", "article": 2, "pred": "pos"}\n'
            '{"case_id": "a", "article": 2, "pred": "neg"}\n'
        )
        with pytest.raises(DataError, match="duplicate cell 'a'/2"):
            read_predictions(path)

    def test_differing_article_sets_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"case_id": "a", "article": 2, "pred": "pos"}\n'
            '{"case_id": "b", "article": 3, "pred": "neg"}\n'
        )
        with pytest.raises(DataError, match="different article set"):
            read_predictions(path)


# --------------------------------------------------------------------------
# published reference table and reports
# --------------------------------------------------------------------------


class TestPublishedResults:
    def test_structure(self):
        assert set(PUBLISHED_RESULTS) == {"outcome", "benchmark"}
        for table in PUBLISHED_RESULTS.values():
            assert len(table) == 12  # 4 systems x 3 encoders
            for scores in table.values():
                assert set(scores) == {"pos", "neg", "null", "all"}

    @pytest.mark.parametrize(
        ("corpus", "key", "expected"),
        [
            ("outcome", ("claim_outcome", "bert"),
             {"pos": 74.80, "neg": 24.01, "null": 95.53, "all": 64.78}),
            ("outcome", ("simple", "longformer"),
             {"pos": 74.12, "neg": 6.72, "null": None, "all": None}),
            ("benchmark", ("joint", "legal_bert"),
             {"pos": 67.08, "neg": 0.94, "null": 97.19, "all": 55.07}),
            ("benchmark", ("simple", "longformer"),
             {"pos": 63.92, "neg": 1.81, "null": None, "all": None}),
        ],
    )
    def test_reference_values(self, corpus, key, expected):
        assert PUBLISHED_RESULTS[corpus][key] == expected

    def test_two_classifier_systems_have_no_null_column(self):
        for table in PUBLISHED_RESULTS.values():
            for (arch, _), scores in table.items():
                if arch in ("simple", "mtl"):
                    assert scores["null"] is None
                    assert scores["all"] is None
                else:
                    assert scores["null"] is not None
                    assert scores["all"] is not None

    def test_rows_from_published(self):
        rows = rows_from_published("outcome")
        assert len(rows) == 12
        assert all(row.corpus == "outcome" for row in rows)
        with pytest.raises(DataError, match="unknown published corpus"):
            rows_from_published("imaginary")


class TestVerifyAllArithmetic:
    @pytest.mark.parametrize("corpus", ["outcome", "benchmark"])
    def test_published_tables_are_internally_consistent(self, corpus):
        findings = verify_all_arithmetic(rows_from_published(corpus))
        assert len(findings) == 6  # only the three-way systems carry All
        assert all(f["ok"] for f in findings)
        for f in findings:
            assert abs(f["recomputed"] - f["published"]) <= 0.005

    def test_flags_a_corrupted_row(self):
        rows = rows_from_published("outcome")
        rows[0].scores["all"] = rows[0].scores["all"] + 1.0
        findings = verify_all_arithmetic(rows)
        bad = [f for f in findings if not f["ok"]]
        assert len(bad) == 1
        assert bad[0]["model"] == rows[0].model
        assert bad[0]["encoder"] == rows[0].encoder

    def test_skips_rows_without_all(self):
        rows = [ReportRow("simple", "bert", "outcome",
                          {"pos": 75.0, "neg": 6.0, "null": None, "all": None})]
        assert verify_all_arithmetic(rows) == []


class TestReportRendering:
    def test_cells_format_to_two_decimals_and_dashes(self):
        row = ReportRow("simple", "bert", "outcome",
                        {"pos": 75.058, "neg": None, "null": None, "all": None})
        assert row.cell("pos") == "75.06"
        assert row.cell("neg") == "-"

    def test_render_report_contains_all_rows(self):
        rows = rows_from_published("outcome")
        text = render_report(rows)
        lines = text.strip().split("\n")
        assert len(lines) == 2 + len(rows)  # header, rule, one line per row
        assert lines[0].split() == ["model", "encoder", "corpus", "pos", "neg", "null", "all"]
        assert "74.80" in text
        assert "claim_outcome" in text

    def test_render_report_empty(self):
        text = render_report([])
        assert text.startswith("model")

    def test_csv_round_trip(self):
        rows = rows_from_published("benchmark")
        text = report_to_csv(rows)
        loaded = read_report_csv(text)
        assert len(loaded) == len(rows)
        for before, after in zip(rows, loaded):
            assert after.model == before.model
            assert after.encoder == before.encoder
            assert after.corpus == before.corpus
            assert after.scores == before.scores

    def test_read_report_csv_rejects_bad_header(self):
        with pytest.raises(DataError, match="unexpected report header"):
            read_report_csv("a,b,c\n")

    def test_read_report_csv_rejects_short_rows(self):
        good = report_to_csv(rows_from_published("outcome")[:1])
        broken = good + "simple,bert\n"
        with pytest.raises(DataError, match="short report row"):
            read_report_csv(broken)
