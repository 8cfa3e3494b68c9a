"""Facts-text encoders producing fixed-size float64 vectors.

Two kinds: a trainable hashed bag-of-words encoder (lowercase, split on
non-alphanumerics, stable-hash each token into a bucket, mean-pool the
bucket embeddings) and a frozen table of precomputed per-case vectors for
plugging in document embeddings produced elsewhere.
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

DEFAULT_VOCAB_BUCKETS = 1 << 15
DEFAULT_DIM = 64
DEFAULT_MAX_TOKENS = 512

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(
    text: str,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    vocab_buckets: int = DEFAULT_VOCAB_BUCKETS,
) -> np.ndarray:
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


@dataclass(eq=False)
class RowGrad(np.lib.mixins.NDArrayOperatorsMixin):
    """Row-sparse gradient of a (rows, dim) embedding table.

    rows holds the sorted unique rows a batch touched and values their
    accumulated gradients; every other row is zero. NumPy arithmetic and
    np.asarray see the dense array.
    """

    rows: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.values.nbytes

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a RowGrad has no dense array to share; it must be copied")
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        dense[self.rows] = self.values
        return dense if dtype is None else dense.astype(dtype, copy=False)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = tuple(np.asarray(x) if isinstance(x, RowGrad) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def bow_backward(token_ids: list[np.ndarray], grad_out: np.ndarray, n_rows: int) -> RowGrad:
    """Gradient of bow_encode with respect to an (n_rows, dim) embedding.

    Each token id receives grad_out[i] / len(ids); repeated ids accumulate.
    Terms are added case by case in case order, and token by token within
    a case, so each row sums them in the order a dense per-token loop does.
    """
    dim = grad_out.shape[1]
    rows = np.unique(np.concatenate(token_ids)) if token_ids else np.empty(0, dtype=np.int64)
    values = np.zeros((len(rows), dim), dtype=np.float64)
    # np.add.at on the flat view is faster than the row-indexed 2-D form,
    # and one case at a time keeps the index array small.
    flat = values.reshape(-1)
    cols = np.arange(dim)
    for i, ids in enumerate(token_ids):
        if len(ids):
            at = np.add.outer(np.searchsorted(rows, ids) * dim, cols).reshape(-1)
            np.add.at(flat, at, np.tile(grad_out[i] / len(ids), len(ids)))
    return RowGrad(rows, values, (n_rows, dim))


@dataclass
class HashedBowEncoder:
    """Trainable mean-pooled hashed bag-of-words encoder.

    The embedding is initialized uniformly in +-1/sqrt(dim) from the given
    generator; training code owns the array through a parameter dict, so
    updates must happen in place.
    """

    embedding: np.ndarray
    max_tokens: int = DEFAULT_MAX_TOKENS

    kind = "hashed_bow"

    @classmethod
    def create(
        cls,
        rng: np.random.Generator,
        vocab_buckets: int = DEFAULT_VOCAB_BUCKETS,
        dim: int = DEFAULT_DIM,
        max_tokens: int = DEFAULT_MAX_TOKENS,
    ) -> "HashedBowEncoder":
        # Mean pooling over N tokens shrinks feature magnitude roughly by
        # 1/sqrt(N); a fixed +-0.5 init keeps pooled features at a scale the
        # heads can learn from within a short epoch budget.
        emb = rng.uniform(-0.5, 0.5, size=(vocab_buckets, dim))
        return cls(embedding=emb, max_tokens=max_tokens)

    @property
    def dim(self) -> int:
        return int(self.embedding.shape[1])

    @property
    def vocab_buckets(self) -> int:
        return int(self.embedding.shape[0])

    def tokenize(self, text: str) -> np.ndarray:
        return tokenize(text, self.max_tokens, self.vocab_buckets)

    def encode(self, token_ids: list[np.ndarray]) -> np.ndarray:
        return bow_encode(token_ids, self.embedding)


@dataclass
class PrecomputedEncoder:
    """Frozen lookup of per-case vectors keyed by case_id."""

    table: dict[str, np.ndarray]
    dim: int

    kind = "precomputed"

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
        if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in vector):
            raise DataError(f"{where}: vector must be a finite 1-d list")
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
