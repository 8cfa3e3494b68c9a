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


# Cases per averaging matrix. A slice's matrix is (cases, distinct rows),
# so slicing bounds the memory of a whole-split encode (validation,
# prediction): on perfbench's train-long (2 vCPUs), one matrix per split
# peaked at 89.8 MB resident against 86.5 MB with 64-case slices.
_SLICE = 64


@dataclass(frozen=True)
class Bag:
    """A batch's token ids as averaging matrices, one per slice of at most
    _SLICE consecutive cases: the slice's sorted distinct table rows, and a
    (cases, rows) matrix of each row's count in a case over the case's
    length. An empty case has a zero row, so it pools to the zero vector.
    Built once per batch, it serves every encoder and the backward pass."""

    slices: tuple[tuple[slice, np.ndarray, np.ndarray], ...]
    n_cases: int

    @classmethod
    def of(cls, token_ids: list[np.ndarray], row_of: np.ndarray) -> "Bag":
        """row_of maps a token id to its table row, or to -1 for an id the
        table has no row for: such a token adds nothing to its case's sum
        but still counts in its length, as a zero row would."""
        slices = []
        for lo in range(0, len(token_ids), _SLICE):
            chunk = token_ids[lo : lo + _SLICE]
            lengths = np.array([len(ids) for ids in chunk])
            ids = row_of[np.concatenate(chunk)]
            # The rows present, ascending, and each id's place among them:
            # np.unique's rows and inverse without its sort. An id without a
            # row (-1) marks seen's last slot, one past every row, so its
            # column comes last; dropping that column leaves the id out of
            # its case's sum but not out of its length.
            seen = np.zeros(int(ids.max(initial=-1)) + 2, dtype=bool)
            seen[ids] = True
            rows = np.flatnonzero(seen[:-1])
            col = (np.cumsum(seen) - 1)[ids]
            case = np.repeat(np.arange(len(chunk)), lengths)
            width = len(rows) + 1
            counts = np.bincount(case * width + col, minlength=len(chunk) * width)
            weights = counts.reshape(len(chunk), width)[:, :-1] / np.maximum(lengths, 1)[:, None]
            slices.append((slice(lo, lo + len(chunk)), rows, weights))
        return cls(tuple(slices), len(token_ids))


def bow_encode(bag: Bag, embedding: np.ndarray) -> np.ndarray:
    """Mean of embedding rows per case; zero vector when a case is empty."""
    out = np.zeros((bag.n_cases, embedding.shape[1]), dtype=np.float64)
    for cases, rows, weights in bag.slices:
        out[cases] = weights @ embedding[rows]
    return out


def bow_backward(bag: Bag, grad_out: np.ndarray, n_rows: int) -> np.ndarray:
    """Gradient of bow_encode with respect to an (n_rows, dim) embedding:
    dense, zero on every row no case of the bag reads. Each token id
    receives grad_out[i] / len(ids); repeated ids accumulate."""
    grad = np.zeros((n_rows, grad_out.shape[1]), dtype=np.float64)
    for cases, rows, weights in bag.slices:
        # rows are distinct within a slice, so the indexed += adds each once.
        grad[rows] += weights.T @ grad_out[cases]
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
