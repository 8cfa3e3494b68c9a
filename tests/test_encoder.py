"""Text encoding: tokenizer contract, pooled embeddings, vector tables.

The tokenizer contract (lowercased word characters, CRC-32 bucket hash) is
pinned with hand-computed values so a process restart or platform change
that broke reproducibility would fail here.
"""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from negprec.encoder import (
    HashedBowEncoder,
    PrecomputedEncoder,
    RowGrad,
    bow_backward,
    bow_encode,
    load_vector_table,
    tokenize,
)
from negprec.errors import DataError


def crc_bucket(word: str, buckets: int) -> int:
    return zlib.crc32(word.lower().encode("utf-8")) % buckets


class TestTokenize:
    def test_crc32_contract(self):
        ids = tokenize("The Court observes", max_tokens=512, vocab_buckets=97)
        expected = [crc_bucket(w, 97) for w in ("the", "court", "observes")]
        assert ids.tolist() == expected

    def test_case_insensitive(self):
        a = tokenize("ARTICLE Six", 512, 64)
        b = tokenize("article six", 512, 64)
        assert a.tolist() == b.tolist()

    def test_word_characters_only(self):
        # Punctuation splits; underscores split; digits are kept.
        ids = tokenize("state-of-the-art, § 42_x", 512, 1 << 15)
        words = ["state", "of", "the", "art", "42", "x"]
        assert ids.tolist() == [crc_bucket(w, 1 << 15) for w in words]

    def test_truncation_keeps_first_max_tokens(self):
        text = " ".join(f"w{i}" for i in range(600))
        ids = tokenize(text, max_tokens=512, vocab_buckets=1 << 15)
        assert len(ids) == 512
        assert ids[0] == crc_bucket("w0", 1 << 15)
        assert ids[-1] == crc_bucket("w511", 1 << 15)

    def test_empty_text(self):
        assert tokenize("", 512, 64).size == 0
        assert tokenize("...---...", 512, 64).size == 0

    @given(st.text(max_size=200), st.integers(2, 1 << 15))
    def test_ids_always_in_range(self, text, buckets):
        ids = tokenize(text, 512, buckets)
        assert len(ids) <= 512
        if ids.size:
            assert ids.min() >= 0 and ids.max() < buckets


class TestBowEncode:
    def test_mean_pooling_by_hand(self):
        emb = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        ids = [np.array([0, 2]), np.array([1])]
        out = bow_encode(ids, emb)
        assert out.tolist() == [[3.0, 4.0], [3.0, 4.0]]

    def test_repeated_token_weights_the_mean(self):
        emb = np.array([[0.0, 0.0], [3.0, 3.0]])
        out = bow_encode([np.array([1, 1, 0])], emb)
        assert out.tolist() == [[2.0, 2.0]]

    def test_empty_token_list_is_zero_vector(self):
        emb = np.ones((4, 3))
        out = bow_encode([np.array([], dtype=np.int64)], emb)
        assert out.tolist() == [[0.0, 0.0, 0.0]]

    @staticmethod
    def loop_oracle(ids, dx, n_rows):
        oracle = np.zeros((n_rows, dx.shape[1]))
        for row, case_ids in enumerate(ids):
            for token in case_ids:
                oracle[token] += dx[row] / len(case_ids)
        return oracle

    def check_against_oracle(self, ids, dx, n_rows):
        grad = bow_backward(ids, dx, n_rows)
        oracle = self.loop_oracle(ids, dx, n_rows)
        touched = np.unique(np.concatenate(ids)).astype(np.int64)
        np.testing.assert_array_equal(grad.rows, touched)
        np.testing.assert_allclose(grad.values, oracle[touched], rtol=0, atol=0)
        assert grad.shape == (n_rows, dx.shape[1])
        np.testing.assert_allclose(np.asarray(grad), oracle, rtol=0, atol=0)

    def test_backward_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        ids = [np.array([0, 3, 3]), np.array([], dtype=np.int64), np.array([5])]
        dx = rng.normal(size=(3, 3))
        self.check_against_oracle(ids, dx, 8)

    @pytest.mark.parametrize(
        "ids",
        [
            [np.array([7, 7, 7, 2]), np.array([2, 7]), np.array([2, 2, 7, 0, 7])],
            [np.array([], dtype=np.int64), np.array([], dtype=np.int64)],
            [np.array([1, 4]), np.array([0, 6]), np.array([3])],
        ],
        ids=["repeated", "all_empty", "disjoint"],
    )
    def test_backward_edge_cases_match_loop_oracle(self, ids):
        dx = np.random.default_rng(2).normal(size=(len(ids), 3))
        self.check_against_oracle(ids, dx, 8)

    def test_backward_rows_are_the_batch_tokens(self):
        rng = np.random.default_rng(3)
        ids = [rng.integers(0, 1000, size=n) for n in (40, 0, 17, 64)]
        dx = rng.normal(size=(4, 5))
        grad = bow_backward(ids, dx, 1000)
        np.testing.assert_array_equal(grad.rows, np.unique(np.concatenate(ids)))
        assert grad.nbytes == grad.rows.nbytes + grad.values.nbytes
        np.testing.assert_allclose(
            np.asarray(grad), self.loop_oracle(ids, dx, 1000), rtol=0, atol=0
        )

    def test_row_grad_is_dense_under_arithmetic(self):
        grad = RowGrad(np.array([1]), np.array([[2.0, -1.0]]), (3, 2))
        np.testing.assert_array_equal(grad + 1.0, [[1.0, 1.0], [3.0, 0.0], [1.0, 1.0]])
        assert isinstance(grad * 2.0, np.ndarray)
        np.testing.assert_array_equal(np.asarray(grad, dtype=np.float32),
                                      [[0.0, 0.0], [2.0, -1.0], [0.0, 0.0]])

    def test_row_grad_refuses_copy_false(self):
        # Like an ndarray that cannot avoid a copy: a fresh dense array
        # handed out as a view would silently drop writes into it.
        grad = RowGrad(np.array([1]), np.array([[2.0, -1.0]]), (3, 2))
        with pytest.raises(ValueError):
            np.asarray(grad, copy=False)
        with pytest.raises(ValueError):
            np.array(grad, copy=False)
        np.testing.assert_array_equal(np.array(grad, copy=True)[1], [2.0, -1.0])

    def test_backward_is_gradient_of_encode(self):
        # Finite differences on a scalar function of the pooled vectors.
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(6, 4))
        ids = [np.array([0, 2, 2]), np.array([5])]
        weights = rng.normal(size=(2, 4))

        def value(e):
            return float((bow_encode(ids, e) * weights).sum())

        grad = np.asarray(bow_backward(ids, weights, 6))
        eps = 1e-6
        for i in (0, 2, 5):
            for j in range(4):
                bumped = emb.copy()
                bumped[i, j] += eps
                numeric = (value(bumped) - value(emb)) / eps
                assert abs(grad[i, j] - numeric) < 1e-6


class TestHashedBowEncoder:
    def test_create_shape_and_bounds(self):
        enc = HashedBowEncoder.create(np.random.default_rng(0), 128, 16, 64)
        assert enc.embedding.shape == (128, 16)
        assert enc.embedding.dtype == np.float64
        assert float(np.abs(enc.embedding).max()) <= 0.5
        assert (enc.dim, enc.vocab_buckets, enc.max_tokens) == (16, 128, 64)
        assert enc.kind == "hashed_bow"

    def test_create_is_seed_deterministic(self):
        a = HashedBowEncoder.create(np.random.default_rng(7), 32, 8, 10)
        b = HashedBowEncoder.create(np.random.default_rng(7), 32, 8, 10)
        np.testing.assert_array_equal(a.embedding, b.embedding)

    def test_tokenize_uses_own_limits(self):
        enc = HashedBowEncoder.create(np.random.default_rng(0), 32, 4, max_tokens=2)
        assert len(enc.tokenize("one two three four")) == 2


class TestPrecomputedEncoder:
    def make(self):
        table = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        return PrecomputedEncoder(table=table, dim=2)

    def test_lookup_order(self):
        enc = self.make()
        out = enc.encode_ids(["b", "a", "b"])
        assert out.tolist() == [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        assert enc.kind == "precomputed"

    def test_missing_case_id(self):
        with pytest.raises(DataError, match="no precomputed vector"):
            self.make().encode_ids(["a", "zzz"])


class TestLoadVectorTable:
    def write(self, tmp_path, rows):
        path = tmp_path / "vectors.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return path

    def test_round_trip(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                {"case_id": "a", "vector": [1.0, 2.0]},
                {"case_id": "b", "vector": [3.0, 4.0]},
            ],
        )
        enc = load_vector_table(path)
        assert enc.dim == 2
        assert enc.encode_ids(["b"]).tolist() == [[3.0, 4.0]]

    def test_dim_mismatch(self, tmp_path):
        path = self.write(
            tmp_path,
            [{"case_id": "a", "vector": [1.0]}, {"case_id": "b", "vector": [1.0, 2.0]}],
        )
        with pytest.raises(DataError, match="length 2 != 1"):
            load_vector_table(path)

    def test_non_finite_rejected(self, tmp_path):
        path = self.write(tmp_path, [{"case_id": "a", "vector": [1.0, float("nan")]}])
        with pytest.raises(DataError, match="finite"):
            load_vector_table(path)

    def test_duplicate_case_id(self, tmp_path):
        path = self.write(
            tmp_path,
            [{"case_id": "a", "vector": [1.0]}, {"case_id": "a", "vector": [2.0]}],
        )
        with pytest.raises(DataError, match="duplicate"):
            load_vector_table(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_vector_table(tmp_path / "none.jsonl")

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text('{"case_id": "a", "vector": [1.0]}\n{oops\n')
        with pytest.raises(DataError, match=r"vectors\.jsonl:2: malformed JSON"):
            load_vector_table(path)

    @pytest.mark.parametrize(
        "line,match",
        [
            (b"[1, 2]", r"vectors\.jsonl:2: expected a JSON object"),
            (b'"text"', r"vectors\.jsonl:2: expected a JSON object"),
            (b'{"case_id": "\xff", "vector": [1.0]}', r"vectors\.jsonl: not UTF-8"),
        ],
        ids=["list", "string", "non-utf8"],
    )
    def test_bad_line_is_data_error(self, tmp_path, line, match):
        path = tmp_path / "vectors.jsonl"
        path.write_bytes(b'{"case_id": "a", "vector": [1.0]}\n' + line + b"\n")
        with pytest.raises(DataError, match=match):
            load_vector_table(path)

    @pytest.mark.parametrize(
        "entry", ['"x"', '"1.5"', "true", "1" + "0" * 400],
        ids=["word", "numeric-string", "bool", "huge-int"],
    )
    def test_non_numeric_entry_rejected(self, tmp_path, entry):
        path = tmp_path / "vectors.jsonl"
        path.write_text('{"case_id": "a", "vector": [1.0, %s]}\n' % entry)
        with pytest.raises(DataError, match=r"vectors\.jsonl:1: vector must be a finite 1-d list"):
            load_vector_table(path)
