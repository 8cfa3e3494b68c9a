"""Case records, outcome labels, and the claim/violation label algebra.

A case carries the set of articles it claims and the subset found violated.
Per-article outcomes follow from those two sets alone:

    POS  = claimed and violated
    NEG  = claimed and not violated
    NULL = not claimed

so claims are exactly the complement of NULL, and violated articles are
always a subset of claimed ones. The loader enforces that inclusion as a
data-integrity requirement.
"""

from __future__ import annotations

import enum
import json
import logging
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

# Substantive articles of the convention; protocol articles and procedural
# articles outside this range are dropped on load.
CORE_ARTICLES = frozenset(range(2, 19))

SPLIT_NAMES = ("train", "validation", "test")


class Outcome(enum.IntEnum):
    """Per-article outcome. Integer values index probability vectors, and
    their order (POS, NEG, NULL) is the tie-break order used by argmax
    decisions."""

    POS = 0
    NEG = 1
    NULL = 2


@dataclass(frozen=True)
class Case:
    """One decided case: an id, its facts text, and its claim/violation sets."""

    case_id: str
    facts: str
    claims: frozenset[int]
    violated: frozenset[int]

    def __post_init__(self) -> None:
        if not self.violated <= self.claims:
            extra = sorted(self.violated - self.claims)
            raise DataError(
                f"case {self.case_id!r}: violated articles {extra} are not claimed"
            )


@dataclass(frozen=True)
class ArticleIndex:
    """Sorted, duplicate-free list of article ids defining label columns."""

    articles: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.articles)) != len(self.articles):
            raise DataError(f"duplicate article ids in index: {self.articles}")
        if tuple(sorted(self.articles)) != self.articles:
            raise DataError(f"article index must be sorted: {self.articles}")

    def __len__(self) -> int:
        return len(self.articles)

    def column(self, article: int) -> int:
        return self.articles.index(article)


@dataclass
class LabelMatrix:
    """Outcome labels and claim indicators for a list of cases.

    labels has shape (n_cases, n_articles) with Outcome values; claims is
    boolean with the same shape. A cell is claimed exactly when its label
    is not NULL.
    """

    case_ids: list[str]
    labels: np.ndarray
    claims: np.ndarray

    def __post_init__(self) -> None:
        if self.labels.shape != self.claims.shape:
            raise DataError("labels and claims shapes differ")
        if not np.array_equal(self.claims, self.labels != Outcome.NULL):
            raise DataError("claims must mark exactly the non-NULL cells")


@dataclass
class SplitSet:
    """Train/validation/test partition of a corpus."""

    train: list[Case] = field(default_factory=list)
    validation: list[Case] = field(default_factory=list)
    test: list[Case] = field(default_factory=list)

    def split(self, name: str) -> list[Case]:
        if name not in SPLIT_NAMES:
            raise DataError(f"unknown split {name!r}")
        return getattr(self, name)


def derive_labels(
    claims: frozenset[int] | set[int],
    violated: frozenset[int] | set[int],
    index: ArticleIndex,
) -> np.ndarray:
    """Turn one case's claim/violation sets into a row of Outcome labels.

    Articles outside the index contribute nothing; callers are expected to
    have dropped non-core ids already.
    """
    if not set(violated) <= set(claims):
        extra = sorted(set(violated) - set(claims))
        raise DataError(f"violated articles {extra} are not claimed")
    row = np.full(len(index), Outcome.NULL, dtype=np.int8)
    for col, article in enumerate(index.articles):
        if article in violated:
            row[col] = Outcome.POS
        elif article in claims:
            row[col] = Outcome.NEG
    return row


def build_label_matrix(cases: list[Case], index: ArticleIndex) -> LabelMatrix:
    """Project cases onto the index columns.

    Claimed or violated articles missing from the index are dropped; one
    summary warning is emitted when that happens.
    """
    known = set(index.articles)
    labels = np.full((len(cases), len(index)), Outcome.NULL, dtype=np.int8)
    dropped = 0
    for i, case in enumerate(cases):
        dropped += len(case.claims - known)
        labels[i] = derive_labels(case.claims & known, case.violated & known, index)
    if dropped:
        log.warning("dropped %d claim cells outside the article index", dropped)
    return LabelMatrix(
        case_ids=[c.case_id for c in cases],
        labels=labels,
        claims=labels != Outcome.NULL,
    )


def parse_article_list(value: object, what: str, where: str) -> frozenset[int]:
    """A JSON list of integers (not bools, floats or strings) as a set."""
    if not isinstance(value, list) or not all(
        isinstance(a, int) and not isinstance(a, bool) for a in value
    ):
        raise DataError(f"{where}: {what} must be a list of integers")
    return frozenset(value)


def parse_case(record: dict, where: str = "record") -> tuple[Case, int]:
    """Build a Case from one decoded JSON record.

    Returns the case and the number of non-core article ids that were
    dropped from its sets.
    """
    if not isinstance(record, dict):
        raise DataError(f"{where}: expected a JSON object")
    for key in ("case_id", "facts", "claims", "violated"):
        if key not in record:
            raise DataError(f"{where}: missing field {key!r}")
    case_id = record["case_id"]
    facts = record["facts"]
    if not isinstance(case_id, str) or not case_id:
        raise DataError(f"{where}: case_id must be a non-empty string")
    if not isinstance(facts, str):
        raise DataError(f"{where}: facts must be a string")
    claims = parse_article_list(record["claims"], "claims", where)
    violated = parse_article_list(record["violated"], "violated", where)
    dropped = len(claims - CORE_ARTICLES) + len(violated - CORE_ARTICLES)
    claims &= CORE_ARTICLES
    violated &= CORE_ARTICLES
    if not violated <= claims:
        extra = sorted(violated - claims)
        raise DataError(
            f"{where}: case {case_id!r} has violated articles {extra} not in its claims"
        )
    return Case(case_id=case_id, facts=facts, claims=claims, violated=violated), dropped


def read_jsonl(path: Path) -> Iterator[tuple[str, dict]]:
    """Stream ("<file>:<line>", record) for each non-blank line; a line that
    is not a JSON object, or bytes that are not UTF-8, raise DataError."""
    with path.open(encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                where = f"{path.name}:{lineno}"
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{where}: malformed JSON ({exc.msg})") from exc
                except RecursionError as exc:
                    raise DataError(f"{where}: malformed JSON (nested too deeply)") from exc
                if not isinstance(record, dict):
                    raise DataError(f"{where}: expected a JSON object")
                yield where, record
        except UnicodeDecodeError as exc:
            raise DataError(f"{path.name}: not UTF-8 text ({exc.reason})") from exc


def _load_split(path: Path) -> list[Case]:
    cases: dict[str, Case] = {}
    dropped = 0
    for where, record in read_jsonl(path):
        case, n = parse_case(record, where)
        dropped += n
        if case.case_id in cases:
            raise DataError(f"{where}: duplicate case_id {case.case_id!r}")
        cases[case.case_id] = case
    if dropped:
        log.warning("%s: dropped %d non-core article ids", path.name, dropped)
    return list(cases.values())


def load_corpus(path: str | Path) -> SplitSet:
    """Read train.jsonl / validation.jsonl / test.jsonl from a directory."""
    root = Path(path)
    if not root.is_dir():
        raise DataError(f"corpus directory not found: {root}")
    splits = {}
    for name in SPLIT_NAMES:
        split_path = root / f"{name}.jsonl"
        if not split_path.is_file():
            raise DataError(f"missing split file: {split_path}")
        splits[name] = _load_split(split_path)
    return SplitSet(**splits)


def case_to_record(case: Case) -> dict:
    return {
        "case_id": case.case_id,
        "facts": case.facts,
        "claims": sorted(case.claims),
        "violated": sorted(case.violated),
    }


def save_corpus(splits: SplitSet, path: str | Path) -> None:
    """Write the three split files. Output is deterministic: fixed key order,
    sorted article lists, one compact JSON object per line."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    for name in SPLIT_NAMES:
        with (root / f"{name}.jsonl").open("w", encoding="utf-8") as fh:
            for case in splits.split(name):
                fh.write(json.dumps(case_to_record(case), sort_keys=False))
                fh.write("\n")


def filter_articles(splits: SplitSet) -> ArticleIndex:
    """Keep the core articles claimed at least once in both the validation
    and the test split; those columns are the model's output space."""
    claimed_val = set().union(*(c.claims for c in splits.validation))
    claimed_test = set().union(*(c.claims for c in splits.test))
    kept = sorted(claimed_val & claimed_test & CORE_ARTICLES)
    if not kept:
        raise DataError("no article is claimed in both validation and test")
    return ArticleIndex(tuple(kept))


def split_stats(splits: SplitSet, index: ArticleIndex) -> dict:
    """Per-split case counts and per-article label histograms, restricted
    to the index articles. JSON-ready."""
    known = set(index.articles)
    out: dict = {"articles": list(index.articles), "splits": {}, "per_article": {}}
    for name in SPLIT_NAMES:
        cases = splits.split(name)
        with_pos = with_neg = with_claim = zero_claim = 0
        hist = {a: {"positive": 0, "negative": 0, "claimed": 0} for a in index.articles}
        for case in cases:
            claims = case.claims & known
            violated = case.violated & known
            negatives = claims - violated
            with_pos += bool(violated)
            with_neg += bool(negatives)
            with_claim += bool(claims)
            zero_claim += not claims
            for a in violated:
                hist[a]["positive"] += 1
                hist[a]["claimed"] += 1
            for a in negatives:
                hist[a]["negative"] += 1
                hist[a]["claimed"] += 1
        out["splits"][name] = {
            "cases": len(cases),
            "with_positive": with_pos,
            "with_negative": with_neg,
            "with_claim": with_claim,
            "zero_claim": zero_claim,
        }
        out["per_article"][name] = hist
    return out
