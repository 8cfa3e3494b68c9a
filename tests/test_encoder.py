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
from hypothesis import example, given
from hypothesis import strategies as st

from negprec.encoder import (
    Bag,
    PrecomputedEncoder,
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

    @pytest.mark.parametrize("max_tokens, buckets", [(0, 8), (8, 0)])
    def test_non_positive_shape_is_data_error(self, max_tokens, buckets):
        with pytest.raises(DataError, match="must be positive"):
            tokenize("the court", max_tokens, buckets)

    @given(st.text(max_size=200), st.integers(2, 1 << 15))
    def test_ids_always_in_range(self, text, buckets):
        ids = tokenize(text, 512, buckets)
        assert len(ids) <= 512
        if ids.size:
            assert ids.min() >= 0 and ids.max() < buckets


def unique_reference(chunk):
    """One slice of a Bag built with np.unique: the sorted distinct ids, and
    per case each id's count over the case's length (0 for an empty case)."""
    rows = np.unique(np.concatenate(chunk))
    weights = np.zeros((len(chunk), len(rows)))
    for i, case_ids in enumerate(chunk):
        ids, counts = np.unique(case_ids, return_counts=True)
        weights[i, np.searchsorted(rows, ids)] = counts / max(len(case_ids), 1)
    return rows, weights


class TestBag:
    @given(st.lists(st.lists(st.integers(0, 40) | st.integers(0, 32767), max_size=20),
                    max_size=150))
    @example([])
    @example([[], []])
    @example([[]] * 64 + [[5, 5, 0]])  # an all-empty first slice
    # 150 cases make slices of 64, 64 and 22; the middle one is all empty.
    @example([[i % 7, 32767] for i in range(64)] + [[]] * 64 + [[3] * i for i in range(22)])
    def test_slices_match_unique_reference(self, cases):
        ids = [np.array(c, dtype=np.int64) for c in cases]
        bag = Bag.of(ids)
        assert bag.n_cases == len(ids)
        assert [(s.start, s.stop) for s, _, _ in bag.slices] == [
            (lo, min(lo + 64, len(ids))) for lo in range(0, len(ids), 64)
        ]
        for cases_slice, rows, weights in bag.slices:
            want_rows, want_weights = unique_reference(ids[cases_slice])
            assert rows.dtype == want_rows.dtype and rows.tobytes() == want_rows.tobytes()
            assert weights.shape == want_weights.shape
            assert weights.tobytes() == want_weights.tobytes()


class TestBowEncode:
    def test_mean_pooling_by_hand(self):
        emb = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        ids = [np.array([0, 2]), np.array([1])]
        out = bow_encode(Bag.of(ids), emb)
        assert out.tolist() == [[3.0, 4.0], [3.0, 4.0]]

    def test_repeated_token_weights_the_mean(self):
        emb = np.array([[0.0, 0.0], [3.0, 3.0]])
        out = bow_encode(Bag.of([np.array([1, 1, 0])]), emb)
        assert out.tolist() == [[2.0, 2.0]]

    def test_empty_token_list_is_zero_vector(self):
        emb = np.ones((4, 3))
        out = bow_encode(Bag.of([np.array([], dtype=np.int64)]), emb)
        assert out.tolist() == [[0.0, 0.0, 0.0]]

    @staticmethod
    def loop_oracle(ids, dx, n_rows):
        """The gradient as one term dx[case] / len(case) per token, added
        in order; also, per row, the number of terms and, per element, the
        sum of their magnitudes."""
        oracle = np.zeros((n_rows, dx.shape[1]))
        n_terms = np.zeros(n_rows, dtype=np.int64)
        magnitude = np.zeros_like(oracle)
        for row, case_ids in enumerate(ids):
            for token in case_ids:
                term = dx[row] / len(case_ids)
                oracle[token] += term
                n_terms[token] += 1
                magnitude[token] += np.abs(term)
        return oracle, n_terms, magnitude

    def check_against_oracle(self, ids, dx, n_rows):
        """Element by element, |grad - oracle| <= gamma_k * sum |terms|
        (Higham, Accuracy and Stability of Numerical Algorithms, 3.1), with
        gamma_k = k u / (1 - k u) and u = 2^-53. For a row of m terms the
        oracle rounds each element at most m times (a division per term,
        then the sum), and the averaging-matrix product at most m + 1 times
        (the weight, the product, its sum over cases, the merge of slices),
        whatever order BLAS adds in; k = 2m + 2 also covers the rounding of
        the magnitudes' own sum. A row with no term must be exactly 0."""
        grad = bow_backward(Bag.of(ids), dx, n_rows)
        assert grad.shape == (n_rows, dx.shape[1]) and grad.dtype == np.float64
        oracle, n_terms, magnitude = self.loop_oracle(ids, dx, n_rows)
        k = (2 * n_terms + 2)[:, None]
        u = 2.0 ** -53
        assert (np.abs(grad - oracle) <= k * u / (1 - k * u) * magnitude).all()
        assert not grad[n_terms == 0].any()
        return grad

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
        # Rows no token of the batch hashes to stay exactly zero.
        rng = np.random.default_rng(3)
        ids = [rng.integers(0, 1000, size=n) for n in (40, 0, 17, 64)]
        dx = rng.normal(size=(4, 5))
        grad = self.check_against_oracle(ids, dx, 1000)
        untouched = np.setdiff1d(np.arange(1000), np.concatenate(ids))
        assert not grad[untouched].any()

    def test_batch_of_three_slices(self):
        # 150 cases make slices of 64, 64 and 22; row 7 is in every slice,
        # so its gradient is merged across all three.
        rng = np.random.default_rng(4)
        ids = [np.append(rng.integers(0, 300, size=rng.integers(0, 60)), 7) if i % 50 == 0
               else rng.integers(0, 300, size=rng.integers(0, 60)) for i in range(150)]
        bag = Bag.of(ids)
        assert [(s.start, s.stop) for s, _, _ in bag.slices] == [(0, 64), (64, 128), (128, 150)]
        assert all(7 in rows for _, rows, _ in bag.slices)
        dx = rng.normal(size=(150, 4))
        self.check_against_oracle(ids, dx, 300)
        # The encode against each case's mean, by the same kind of bound: n
        # roundings in the mean of n rows, n + 1 in the product.
        emb = rng.normal(size=(300, 4))
        out = bow_encode(bag, emb)
        for case, case_ids in zip(out, ids):
            n = len(case_ids)
            k, u = 2 * n + 2, 2.0 ** -53
            bound = k * u / (1 - k * u) * np.abs(emb[case_ids]).sum(axis=0) / max(n, 1)
            want = emb[case_ids].mean(axis=0) if n else 0.0
            assert (np.abs(case - want) <= bound).all()

    def test_backward_is_gradient_of_encode(self):
        # Finite differences on a scalar function of the pooled vectors.
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(6, 4))
        bag = Bag.of([np.array([0, 2, 2]), np.array([5])])
        weights = rng.normal(size=(2, 4))

        def value(e):
            return float((bow_encode(bag, e) * weights).sum())

        grad = bow_backward(bag, weights, 6)
        eps = 1e-6
        for i in (0, 2, 5):
            for j in range(4):
                bumped = emb.copy()
                bumped[i, j] += eps
                numeric = (value(bumped) - value(emb)) / eps
                assert abs(grad[i, j] - numeric) < 1e-6


class TestPrecomputedEncoder:
    def make(self):
        table = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        return PrecomputedEncoder(table=table, dim=2)

    def test_lookup_order(self):
        enc = self.make()
        out = enc.encode_ids(["b", "a", "b"])
        assert out.tolist() == [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]

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

    def test_empty_file(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text("\n")
        with pytest.raises(DataError, match=r"vector file .*vectors\.jsonl is empty"):
            load_vector_table(path)

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
            (b'{"case_id": 7, "vector": [1.0]}',
             r"vectors\.jsonl:2: need case_id string and vector list"),
            (b'{"case_id": "b", "vector": "1.0"}',
             r"vectors\.jsonl:2: need case_id string and vector list"),
        ],
        ids=["list", "string", "non-utf8", "non-string-case-id", "non-list-vector"],
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
        with pytest.raises(DataError, match=r"vectors\.jsonl:1: vector must be a finite non-empty 1-d list"):
            load_vector_table(path)
