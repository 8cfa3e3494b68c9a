"""Corpus model: label algebra, serialization, and statistics.

The label-derivation oracle is written as explicit set membership checks,
independent of the vectorized implementation.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from negprec.corpus import (
    CORE_ARTICLES,
    ArticleIndex,
    Case,
    Outcome,
    SplitSet,
    build_label_matrix,
    derive_labels,
    filter_articles,
    load_corpus,
    parse_case,
    read_jsonl,
    save_corpus,
    split_stats,
)
from negprec.errors import DataError

from conftest import make_case

FULL_INDEX = ArticleIndex(tuple(sorted(CORE_ARTICLES)))


def oracle_label(article: int, claims, violated) -> Outcome:
    """Independent statement of the outcome algebra, one cell at a time."""
    if article in violated:
        return Outcome.POS
    if article in claims:
        return Outcome.NEG
    return Outcome.NULL


class TestOutcome:
    def test_values_encode_preference_order(self):
        assert (Outcome.POS, Outcome.NEG, Outcome.NULL) == (0, 1, 2)

    def test_core_articles(self):
        assert CORE_ARTICLES == frozenset(range(2, 19))


class TestDeriveLabels:
    def test_worked_example(self):
        index = ArticleIndex((2, 6, 8, 14))
        row = derive_labels({2, 6, 8, 14}, {2, 6}, index)
        assert row.tolist() == [Outcome.POS, Outcome.POS, Outcome.NEG, Outcome.NEG]

    def test_unclaimed_articles_are_null(self):
        row = derive_labels(set(), set(), FULL_INDEX)
        assert (row == Outcome.NULL).all()

    def test_violated_not_claimed_rejected(self):
        with pytest.raises(DataError):
            derive_labels({2}, {2, 6}, FULL_INDEX)

    def test_out_of_index_articles_contribute_nothing(self):
        index = ArticleIndex((2, 6))
        row = derive_labels({2, 8}, {2}, index)
        assert row.tolist() == [Outcome.POS, Outcome.NULL]

    @given(
        claims=st.frozensets(st.integers(2, 18), max_size=10),
        mask=st.frozensets(st.integers(2, 18), max_size=10),
        kept=st.frozensets(st.integers(2, 18)),
    )
    def test_matches_cellwise_oracle(self, claims, mask, kept):
        violated = claims & mask
        row = derive_labels(claims, violated, FULL_INDEX)
        for col, article in enumerate(FULL_INDEX.articles):
            assert row[col] == oracle_label(article, claims, violated)
        # claims are exactly the non-NULL cells
        claimed_cols = {FULL_INDEX.column(a) for a in claims}
        assert set(np.nonzero(row != Outcome.NULL)[0]) == claimed_cols
        # Projected onto a sub-index, claims outside it are dropped, and the
        # non-NULL cells are exactly the claims the index keeps.
        index = ArticleIndex(tuple(sorted(kept)))
        row = build_label_matrix([make_case("c", "", claims, violated)], index).labels[0]
        for col, article in enumerate(index.articles):
            assert row[col] == oracle_label(article, claims, violated)
        assert {index.articles[c] for c in np.nonzero(row != Outcome.NULL)[0]} == claims & kept


class TestCase:
    def test_violated_must_be_claimed(self):
        with pytest.raises(DataError, match="are not claimed"):
            make_case("x", "text", {2}, {2, 3})

    def test_valid_case(self):
        case = make_case("x", "text", {2, 3}, {3})
        assert case.violated == frozenset({3})


class TestArticleIndex:
    def test_rejects_duplicates(self):
        with pytest.raises(DataError):
            ArticleIndex((2, 2, 6))

    def test_rejects_unsorted(self):
        with pytest.raises(DataError):
            ArticleIndex((6, 2))

    def test_column_lookup(self):
        index = ArticleIndex((2, 6, 8))
        assert [index.column(a) for a in (2, 6, 8)] == [0, 1, 2]
        assert len(index) == 3


class TestBuildLabelMatrix:
    def test_tiny_corpus_by_hand(self, tiny_splits):
        index = ArticleIndex((2, 6, 8))
        matrix = build_label_matrix(tiny_splits.train, index)
        assert matrix.case_ids == ["t-0", "t-1", "t-2", "t-3"]
        P, N, U = Outcome.POS, Outcome.NEG, Outcome.NULL
        assert matrix.labels.tolist() == [
            [P, N, U],
            [U, P, U],
            [U, U, N],
            [U, U, U],
        ]

    def test_out_of_index_cells_dropped(self, tiny_splits):
        index = ArticleIndex((6,))
        matrix = build_label_matrix(tiny_splits.test, index)
        assert matrix.labels.tolist() == [[Outcome.POS]]


class TestParseCase:
    def test_round_trip_fields(self):
        case, dropped = parse_case(
            {"case_id": "c", "facts": "f", "claims": [6, 2], "violated": [2]}
        )
        assert (case.case_id, case.facts) == ("c", "f")
        assert case.claims == frozenset({2, 6})
        assert case.violated == frozenset({2})
        assert dropped == 0

    def test_non_core_articles_dropped_and_counted(self):
        case, dropped = parse_case(
            {"case_id": "c", "facts": "f", "claims": [2, 34, 1], "violated": [2]}
        )
        assert case.claims == frozenset({2})
        assert dropped == 2

    @pytest.mark.parametrize("missing", ["case_id", "facts", "claims", "violated"])
    def test_missing_field(self, missing):
        record = {"case_id": "c", "facts": "f", "claims": [2], "violated": []}
        del record[missing]
        with pytest.raises(DataError, match=missing):
            parse_case(record)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("case_id", "", "case_id must be a non-empty string"),
            ("case_id", 7, "case_id must be a non-empty string"),
            ("facts", ["f"], "facts must be a string"),
        ],
        ids=["empty-case-id", "non-string-case-id", "non-string-facts"],
    )
    def test_bad_field_value(self, field, value, message):
        record = {"case_id": "c", "facts": "f", "claims": [2], "violated": []}
        record[field] = value
        with pytest.raises(DataError, match=f"line 3: {message}"):
            parse_case(record, "line 3")

    def test_claims_must_be_integer_list(self):
        with pytest.raises(DataError):
            parse_case({"case_id": "c", "facts": "f", "claims": "2", "violated": []})
        with pytest.raises(DataError):
            parse_case({"case_id": "c", "facts": "f", "claims": [True], "violated": []})

    def test_violated_subset_enforced_after_core_filter(self):
        # 34 is dropped from claims, so a violated 6 that was never claimed fails.
        want = r"record: case 'c': violated articles \[6\] are not claimed"
        with pytest.raises(DataError, match=want):
            parse_case({"case_id": "c", "facts": "f", "claims": [34], "violated": [6]})


class TestCorpusIO:
    def test_save_load_round_trip(self, tiny_splits, tmp_path):
        save_corpus(tiny_splits, tmp_path / "corpus")
        loaded = load_corpus(tmp_path / "corpus")
        for name in ("train", "validation", "test"):
            assert loaded.split(name) == tiny_splits.split(name)

    def test_save_is_deterministic_bytes(self, tiny_splits, tmp_path):
        save_corpus(tiny_splits, tmp_path / "a")
        save_corpus(tiny_splits, tmp_path / "b")
        for name in ("train", "validation", "test"):
            assert (tmp_path / "a" / f"{name}.jsonl").read_bytes() == (
                tmp_path / "b" / f"{name}.jsonl"
            ).read_bytes()

    def test_missing_split_file(self, tiny_splits, tmp_path):
        save_corpus(tiny_splits, tmp_path / "corpus")
        (tmp_path / "corpus" / "test.jsonl").unlink()
        with pytest.raises(DataError, match="missing split file"):
            load_corpus(tmp_path / "corpus")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_corpus(tmp_path / "nowhere")

    def test_non_core_ids_dropped_with_one_warning(self, tiny_splits, tmp_path, caplog):
        root = tmp_path / "corpus"
        save_corpus(tiny_splits, root)
        record = {"case_id": "x", "facts": "f", "claims": [1, 2, 40], "violated": [40]}
        with (root / "train.jsonl").open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        loaded = load_corpus(root)
        assert loaded.train[-1].claims == frozenset({2})
        assert loaded.train[-1].violated == frozenset()
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == ["train.jsonl: dropped 3 non-core article ids"]

    def test_unknown_split_name(self, tiny_splits):
        with pytest.raises(DataError, match="unknown split 'x'"):
            tiny_splits.split("x")

    def test_duplicate_case_id_reports_line(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        record = {"case_id": "dup", "facts": "f", "claims": [2], "violated": []}
        (root / "train.jsonl").write_text(
            json.dumps(record) + "\n" + json.dumps(record) + "\n"
        )
        (root / "validation.jsonl").write_text("")
        (root / "test.jsonl").write_text("")
        with pytest.raises(DataError, match=r"train\.jsonl:2.*dup"):
            load_corpus(root)

    def test_case_id_in_two_splits_names_both(self, tiny_splits, tmp_path):
        tiny_splits.test.append(tiny_splits.train[1])
        save_corpus(tiny_splits, tmp_path / "corpus")
        with pytest.raises(DataError, match=r"'t-1' appears in both train and test"):
            load_corpus(tmp_path / "corpus")

    def test_malformed_json_reports_line(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "train.jsonl").write_text('{"case_id": "a"\n')
        (root / "validation.jsonl").write_text("")
        (root / "test.jsonl").write_text("")
        with pytest.raises(DataError, match=r"train\.jsonl:1"):
            load_corpus(root)

    def test_non_utf8_split_is_data_error(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "train.jsonl").write_bytes(b'{"case_id": "\xff"}\n')
        (root / "validation.jsonl").write_text("")
        (root / "test.jsonl").write_text("")
        with pytest.raises(DataError, match=r"train\.jsonl: not UTF-8"):
            load_corpus(root)


class TestReadJsonl:
    def test_yields_where_and_record_skipping_blank_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"b": [2]}\n', encoding="utf-8")
        assert list(read_jsonl(path)) == [("r.jsonl:1", {"a": 1}), ("r.jsonl:4", {"b": [2]})]

    @pytest.mark.parametrize("line", [b"[1, 2]", b"5", b'"text"', b"null"])
    def test_non_object_line_is_data_error(self, tmp_path, line):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"a": 1}\n' + line + b"\n")
        with pytest.raises(DataError, match=r"r\.jsonl:2: expected a JSON object"):
            list(read_jsonl(path))

    def test_deeply_nested_line_is_data_error(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text("[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"r\.jsonl:1: malformed JSON"):
            list(read_jsonl(path))

    def test_non_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"a": "caf\xe9"}\n')
        with pytest.raises(DataError, match=r"r\.jsonl: not UTF-8 text"):
            list(read_jsonl(path))


class TestFilterArticles:
    def test_intersection_of_val_and_test_claims(self, tiny_splits):
        assert filter_articles(tiny_splits).articles == (2, 6, 8)

    def test_core_restriction(self):
        splits = SplitSet()
        splits.train.append(make_case("t", "f", {2}, set()))
        splits.validation.append(make_case("v", "f", {2, 1}, set()))
        splits.test.append(make_case("s", "f", {2, 1}, set()))
        # Article 1 is claimed in both splits but is not a core article.
        assert filter_articles(splits).articles == (2,)

    def test_no_common_article_is_an_error(self):
        splits = SplitSet()
        splits.validation.append(make_case("v", "f", {2}, set()))
        splits.test.append(make_case("s", "f", {6}, set()))
        with pytest.raises(DataError):
            filter_articles(splits)


class TestSplitStats:
    def test_tiny_corpus_by_hand(self, tiny_splits):
        stats = split_stats(tiny_splits, ArticleIndex((2, 6, 8)))
        assert stats["articles"] == [2, 6, 8]
        assert stats["splits"]["train"] == {
            "cases": 4,
            "with_positive": 2,
            "with_negative": 2,
            "with_claim": 3,
            "zero_claim": 1,
        }
        assert stats["splits"]["test"] == {
            "cases": 1,
            "with_positive": 1,
            "with_negative": 1,
            "with_claim": 1,
            "zero_claim": 0,
        }
        # train: art 2 POS in t-0; art 6 NEG in t-0, POS in t-1; art 8 NEG in t-2
        assert stats["per_article"]["train"][2] == {
            "positive": 1,
            "negative": 0,
            "claimed": 1,
        }
        assert stats["per_article"]["train"][6] == {
            "positive": 1,
            "negative": 1,
            "claimed": 2,
        }
        assert stats["per_article"]["train"][8] == {
            "positive": 0,
            "negative": 1,
            "claimed": 1,
        }

    def test_articles_outside_the_index_count_as_unclaimed(self, tiny_splits):
        # Article 8 is not in the index, so t-2 (claims {8} only) has no
        # claim, and v-0 and s-0 lose their article-8 cell.
        stats = split_stats(tiny_splits, ArticleIndex((2, 6)))
        split_keys = ["cases", "with_positive", "with_negative", "with_claim", "zero_claim"]
        expected_splits = {
            "train": [4, 2, 1, 2, 2],
            "validation": [1, 0, 1, 1, 0],
            "test": [1, 1, 0, 1, 0],
        }
        # (positive, negative, claimed) of articles 2 and 6
        expected_articles = {
            "train": {2: (1, 0, 1), 6: (1, 1, 2)},
            "validation": {2: (0, 1, 1), 6: (0, 1, 1)},
            "test": {2: (1, 0, 1), 6: (1, 0, 1)},
        }
        assert list(stats) == ["articles", "splits", "per_article"]
        assert stats["articles"] == [2, 6]
        for name, counts in expected_splits.items():
            assert list(stats["splits"][name]) == split_keys
            assert list(stats["splits"][name].values()) == counts
            for article, (p, n, c) in expected_articles[name].items():
                assert stats["per_article"][name][article] == {
                    "positive": p, "negative": n, "claimed": c,
                }

    def test_empty_split(self, tiny_splits):
        splits = SplitSet(train=tiny_splits.train)
        stats = split_stats(splits, ArticleIndex((2, 6)))
        for name in ("validation", "test"):
            assert stats["splits"][name] == {
                "cases": 0, "with_positive": 0, "with_negative": 0,
                "with_claim": 0, "zero_claim": 0,
            }
            assert stats["per_article"][name] == {
                a: {"positive": 0, "negative": 0, "claimed": 0} for a in (2, 6)
            }
        json.dumps(stats)  # plain ints, even from an empty split

    def test_json_ready(self, tiny_splits):
        stats = split_stats(tiny_splits, ArticleIndex((2, 6, 8)))
        json.dumps(stats)  # must not raise
