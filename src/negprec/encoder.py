"""Facts-text encoders producing fixed-size float64 vectors.

Two kinds: a trainable hashed bag-of-words (lowercase, split on
non-alphanumerics, stable-hash each token into a bucket, mean-pool the
bucket embeddings; the tables themselves live in a model's params) and a
frozen table of precomputed per-case vectors for plugging in document
embeddings produced elsewhere.
"""

from __future__ import annotations

import re
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import read_jsonl
from .errors import DataError

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str, max_tokens: int, vocab_buckets: int) -> np.ndarray:
    """Hash the first max_tokens lowercase alphanumeric tokens into
    [0, vocab_buckets). crc32 keeps the mapping stable across processes."""
    if max_tokens <= 0 or vocab_buckets <= 0:
        raise DataError("max_tokens and vocab_buckets must be positive")
    tokens = _TOKEN.findall(text.lower())[:max_tokens]
    ids = [zlib.crc32(tok.encode("utf-8")) % vocab_buckets for tok in tokens]
    return np.asarray(ids, dtype=np.int64)


def bow_encode(token_ids: list[np.ndarray], embedding: np.ndarray) -> np.ndarray:
    """Mean of embedding rows per token sequence; zero vector when empty."""
    out = np.zeros((len(token_ids), embedding.shape[1]), dtype=np.float64)
    for i, ids in enumerate(token_ids):
        if len(ids):
            out[i] = embedding[ids].mean(axis=0)
    return out


def bow_backward(token_ids: list[np.ndarray], grad_out: np.ndarray, n_rows: int) -> np.ndarray:
    """Gradient of bow_encode with respect to an (n_rows, dim) embedding.

    Each token id receives grad_out[i] / len(ids); repeated ids accumulate.
    Terms are added case by case in case order, and token by token within
    a case, so each row sums them in the order a dense per-token loop does.
    """
    dim = grad_out.shape[1]
    grad = np.zeros((n_rows, dim), dtype=np.float64)
    # np.add.at on the flat view is faster than the row-indexed 2-D form,
    # and one case at a time keeps the index array small: one np.add.at
    # over a whole batch of 16 cases was 2-3x slower at 43-425 tokens each.
    flat = grad.reshape(-1)
    cols = np.arange(dim)
    for i, ids in enumerate(token_ids):
        if len(ids):
            at = np.add.outer(ids * dim, cols).reshape(-1)
            np.add.at(flat, at, np.tile(grad_out[i] / len(ids), len(ids)))
    return grad


@dataclass
class PrecomputedEncoder:
    """Frozen lookup of per-case vectors keyed by case_id."""

    table: dict[str, np.ndarray]
    dim: int

    def encode_ids(self, case_ids: list[str]) -> np.ndarray:
        out = np.zeros((len(case_ids), self.dim), dtype=np.float64)
        for i, case_id in enumerate(case_ids):
            vec = self.table.get(case_id)
            if vec is None:
                raise DataError(f"no precomputed vector for case {case_id!r}")
            out[i] = vec
        return out


def load_vector_table(path: str | Path) -> PrecomputedEncoder:
    """Read JSONL rows {"case_id": ..., "vector": [...]} into an encoder."""
    p = Path(path)
    if not p.is_file():
        raise DataError(f"vector file not found: {p}")
    table: dict[str, np.ndarray] = {}
    dim: int | None = None
    for where, row in read_jsonl(p):
        case_id = row.get("case_id")
        vector = row.get("vector")
        if not isinstance(case_id, str) or not isinstance(vector, list):
            raise DataError(f"{where}: need case_id string and vector list")
        # NumPy alone would take "1.5" and true, and fail on a huge integer.
        # An empty vector would give a zero-width model.
        if not vector or not all(
            type(v) in (int, float) and abs(v) <= sys.float_info.max for v in vector
        ):
            raise DataError(f"{where}: vector must be a finite non-empty 1-d list")
        vec = np.asarray(vector, dtype=np.float64)
        if dim is None:
            dim = int(vec.shape[0])
        elif vec.shape[0] != dim:
            raise DataError(f"{where}: vector length {vec.shape[0]} != {dim}")
        if case_id in table:
            raise DataError(f"{where}: duplicate case_id {case_id!r}")
        table[case_id] = vec
    if not table:
        raise DataError(f"vector file {p} is empty")
    assert dim is not None
    return PrecomputedEncoder(table=table, dim=dim)
