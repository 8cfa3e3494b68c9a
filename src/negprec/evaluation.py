"""Scoring: per-class micro-F1, the random baseline, paired permutation
tests, and report rendering.

F1 is pooled over every (case, article) cell. The baselines emit two
independent flags per cell; a cell flagged both positive and negative
contributes to both classes' confusion counts, and baselines have no NULL
prediction, so their Null and All columns render as dashes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import LabelMatrix, Outcome, read_jsonl
from .errors import DataError, UsageError

CLASS_NAMES = {Outcome.POS: "pos", Outcome.NEG: "neg", Outcome.NULL: "null"}
NAME_TO_CLASS = {v: k for k, v in CLASS_NAMES.items()}

# Published reference results for this task: per corpus, per (system,
# encoder), micro-F1 percentages (pos, neg, null, all). The two-classifier
# baselines have no null distribution, hence no Null or All entry. Used to
# cross-check that every All cell equals the mean of its three class cells.
PUBLISHED_RESULTS: dict[str, dict[tuple[str, str], dict[str, float | None]]] = {
    "outcome": {
        ("claim_outcome", "bert"): {"pos": 74.80, "neg": 24.01, "null": 95.53, "all": 64.78},
        ("claim_outcome", "legal_bert"): {"pos": 74.90, "neg": 21.83, "null": 95.49, "all": 64.07},
        ("claim_outcome", "longformer"): {"pos": 74.23, "neg": 20.55, "null": 95.17, "all": 63.32},
        ("joint", "bert"): {"pos": 76.24, "neg": 17.43, "null": 95.46, "all": 63.04},
        ("joint", "legal_bert"): {"pos": 76.96, "neg": 21.93, "null": 95.71, "all": 64.87},
        ("joint", "longformer"): {"pos": 77.15, "neg": 16.24, "null": 95.49, "all": 62.96},
        ("mtl", "bert"): {"pos": 75.75, "neg": 12.90, "null": None, "all": None},
        ("mtl", "legal_bert"): {"pos": 76.73, "neg": 9.44, "null": None, "all": None},
        ("mtl", "longformer"): {"pos": 75.83, "neg": 12.34, "null": None, "all": None},
        ("simple", "bert"): {"pos": 75.06, "neg": 6.62, "null": None, "all": None},
        ("simple", "legal_bert"): {"pos": 74.85, "neg": 10.09, "null": None, "all": None},
        ("simple", "longformer"): {"pos": 74.12, "neg": 6.72, "null": None, "all": None},
    },
    "benchmark": {
        ("claim_outcome", "bert"): {"pos": 63.85, "neg": 14.65, "null": 97.15, "all": 58.55},
        ("claim_outcome", "legal_bert"): {"pos": 64.47, "neg": 13.05, "null": 97.14, "all": 58.22},
        ("claim_outcome", "longformer"): {"pos": 63.53, "neg": 14.84, "null": 97.21, "all": 58.53},
        ("joint", "bert"): {"pos": 65.15, "neg": 1.87, "null": 97.07, "all": 54.70},
        ("joint", "legal_bert"): {"pos": 67.08, "neg": 0.94, "null": 97.19, "all": 55.07},
        ("joint", "longformer"): {"pos": 65.94, "neg": 0.95, "null": 97.11, "all": 54.67},
        ("mtl", "bert"): {"pos": 63.21, "neg": 0.95, "null": None, "all": None},
        ("mtl", "legal_bert"): {"pos": 65.00, "neg": 0.95, "null": None, "all": None},
        ("mtl", "longformer"): {"pos": 63.36, "neg": 0.47, "null": None, "all": None},
        ("simple", "bert"): {"pos": 65.04, "neg": 0.00, "null": None, "all": None},
        ("simple", "legal_bert"): {"pos": 65.51, "neg": 0.00, "null": None, "all": None},
        ("simple", "longformer"): {"pos": 63.92, "neg": 1.81, "null": None, "all": None},
    },
}


@dataclass
class Predictions:
    """Model predictions for a list of cases over a fixed article list.

    Three-way models fill labels; the baselines fill the independent pos
    and neg flags instead (a cell may carry both, or neither). Which arrays
    are given decides the kind; giving both forms is an error."""

    case_ids: list[str]
    articles: tuple[int, ...]
    labels: np.ndarray | None = None
    pos: np.ndarray | None = None
    neg: np.ndarray | None = None

    def __post_init__(self) -> None:
        shape = (len(self.case_ids), len(self.articles))
        if self.labels is not None and (self.pos is not None or self.neg is not None):
            raise DataError("predictions hold either labels or pos and neg, not both")
        if self.kind == "three_way":
            if self.labels.shape != shape:
                raise DataError("three-way predictions need a full labels array")
        elif self.pos is None or self.neg is None or not self.pos.shape == self.neg.shape == shape:
            raise DataError("baseline predictions need full pos and neg arrays")

    @property
    def kind(self) -> str:
        return "baseline" if self.labels is None else "three_way"

    def class_mask(self, cls: Outcome) -> np.ndarray:
        if self.kind == "three_way":
            return self.labels == cls
        if cls == Outcome.POS:
            return self.pos
        if cls == Outcome.NEG:
            return self.neg
        raise DataError("baseline predictions have no NULL class")

    def classes(self) -> tuple[Outcome, ...]:
        if self.kind == "three_way":
            return (Outcome.POS, Outcome.NEG, Outcome.NULL)
        return (Outcome.POS, Outcome.NEG)


def _check_aligned(preds: Predictions, gold: LabelMatrix) -> None:
    if preds.case_ids != gold.case_ids:
        raise DataError("predictions and gold labels list different cases")
    if (len(preds.case_ids), len(preds.articles)) != gold.labels.shape:
        raise DataError("predictions and gold labels have different shapes")


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    """Micro-F1 from pooled counts; 0 by convention when precision and
    recall are both undefined or zero."""
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 0.0
    return 2.0 * tp / denom


def _f1(pred_mask: np.ndarray, gold_mask: np.ndarray) -> float:
    """Micro-F1 of two boolean masks over the same cells."""
    tp = int(np.sum(pred_mask & gold_mask))
    fp = int(np.sum(pred_mask & ~gold_mask))
    fn = int(np.sum(~pred_mask & gold_mask))
    return f1_from_counts(tp, fp, fn)


def micro_f1(preds: Predictions, gold: LabelMatrix, cls: Outcome) -> float:
    """Pooled micro-F1 of one class over every (case, article) cell."""
    _check_aligned(preds, gold)
    return _f1(preds.class_mask(cls), gold.labels == cls)


def all_score(
    f1_pos: float | None, f1_neg: float | None, f1_null: float | None
) -> float | None:
    """Unweighted mean of the three class scores; undefined (None) when any
    class score is missing, as for the baselines."""
    if f1_pos is None or f1_neg is None or f1_null is None:
        return None
    return (f1_pos + f1_neg + f1_null) / 3.0


def score_predictions(preds: Predictions, gold: LabelMatrix) -> dict[str, float | None]:
    scores: dict[str, float | None] = {"pos": None, "neg": None, "null": None}
    for cls in preds.classes():
        scores[CLASS_NAMES[cls]] = micro_f1(preds, gold, cls)
    scores["all"] = all_score(scores["pos"], scores["neg"], scores["null"])
    return scores


def random_baseline(
    gold: LabelMatrix, instantiations: int = 100, seed: int = 0
) -> dict[str, dict[str, float]]:
    """Mean and standard deviation of each class's micro-F1 over uniformly
    random 3-way predictions, one draw per (case, article) cell."""
    if instantiations < 1:
        raise DataError("instantiations must be >= 1")
    rng = np.random.default_rng(seed)
    per_class: dict[Outcome, list[float]] = {c: [] for c in Outcome}
    n, k = gold.labels.shape
    for _ in range(instantiations):
        drawn = rng.integers(0, 3, size=(n, k), dtype=np.int8)
        for cls in Outcome:
            per_class[cls].append(_f1(drawn == cls, gold.labels == cls))
    return {
        CLASS_NAMES[cls]: {
            "mean": float(np.mean(vals)),
            "sd": float(np.std(vals)),
        }
        for cls, vals in per_class.items()
    }


# --------------------------------------------------------------------------
# paired permutation test
# --------------------------------------------------------------------------

EXHAUSTIVE_LIMIT = 20
# The most draws a caller may ask for: as many assignments as exhaustive
# mode ever enumerates.
MAX_RESAMPLES = 1 << EXHAUSTIVE_LIMIT


def check_draws(name: str, value: int) -> None:
    """A user-given count of random draws must lie in [1, MAX_RESAMPLES]."""
    if value < 1:
        raise UsageError(f"{name} must be >= 1")
    if value > MAX_RESAMPLES:
        raise UsageError(f"{name} must be <= {MAX_RESAMPLES}")


@dataclass
class PermutationResult:
    p_value: float
    observed: float
    n_pairs: int
    mode: str  # "exhaustive" | "sampled"
    assignments: int


def permutation_test(
    a: np.ndarray, b: np.ndarray, resamples: int = 10000, seed: int = 0
) -> PermutationResult:
    """Two-tailed paired sign-flip test on the statistic |mean(a - b)|.

    All 2^n sign assignments are enumerated when n <= 20; otherwise
    `resamples` random assignments are drawn. The p-value is the plain
    proportion of assignments whose statistic reaches the observed one, so
    identical inputs give exactly 1.0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or len(a) == 0:
        raise DataError("paired scores must be equal-length non-empty vectors")
    d = a - b
    n = len(d)
    observed = abs(float(d.mean()))
    # The paired scores (per_case_scores) are integer counts, so d holds
    # small integers and each sum of the sign-matrix product below adds
    # +-1 times them exactly, in any order: the BLAS thread count cannot
    # change a p-value.
    if n <= EXHAUSTIVE_LIMIT:
        mode, total, chunk = "exhaustive", 1 << n, 1 << 14
        bits = np.arange(n, dtype=np.uint32)
        codes = (np.arange(start, min(start + chunk, total), dtype=np.uint32)
                 for start in range(0, total, chunk))
        blocks = ((c[:, None] >> bits) & 1 for c in codes)
    else:
        if resamples < 1:
            raise DataError("resamples must be >= 1")
        mode, total = "sampled", resamples
        rng = np.random.default_rng(seed)
        # Blocks of about 2^20 signs (8 MB as float64), so memory does not
        # grow with n. Each sign is one 32-bit draw, so the signs drawn do
        # not depend on the block size.
        rows = max(1, (1 << 20) // n)
        blocks = (rng.integers(0, 2, size=(min(rows, total - start), n))
                  for start in range(0, total, rows))
    hits = 0
    for block in blocks:
        # cast before the affine map: on uint32, 0*2 - 1 would wrap around
        signs = block.astype(np.float64) * 2.0 - 1.0
        hits += int(np.sum(np.abs(signs @ d) / n >= observed))
    return PermutationResult(hits / total, observed, n, mode, total)


def per_case_scores(preds: Predictions, gold: LabelMatrix, cls: Outcome) -> np.ndarray:
    """Per-case count of articles whose membership in cls is predicted
    correctly; the paired unit for significance testing."""
    _check_aligned(preds, gold)
    pred_mask = preds.class_mask(cls)
    gold_mask = gold.labels == cls
    return (pred_mask == gold_mask).sum(axis=1).astype(np.float64)


# --------------------------------------------------------------------------
# prediction files
# --------------------------------------------------------------------------


def write_predictions(preds: Predictions, path: str | Path) -> None:
    """One JSON object per (case, article) cell, in case-major order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if preds.kind == "three_way":
        grid = [[{"pred": CLASS_NAMES[Outcome(int(v))]} for v in row] for row in preds.labels]
    else:
        grid = [[{"pos": bool(p), "neg": bool(n)} for p, n in zip(pos, neg)]
                for pos, neg in zip(preds.pos, preds.neg)]
    with path.open("w", encoding="utf-8") as fh:
        for case_id, row in zip(preds.case_ids, grid):
            for article, fields in zip(preds.articles, row):
                fh.write(json.dumps({"case_id": case_id, "article": article, **fields}))
                fh.write("\n")


def read_predictions(path: str | Path) -> Predictions:
    """Read a prediction file back into arrays; every case must cover the
    same article set, and every cell must appear exactly once."""
    p = Path(path)
    if not p.is_file():
        raise DataError(f"prediction file not found: {p}")
    cells: dict[str, dict[int, object]] = {}
    kind: str | None = None
    for where, row in read_jsonl(p):
        case_id = row.get("case_id")
        article = row.get("article")
        if not isinstance(case_id, str) or type(article) is not int:
            raise DataError(f"{where}: need case_id string and article int")
        if "pred" in row:
            row_kind = "three_way"
            pred = row["pred"]
            if not isinstance(pred, str) or pred not in NAME_TO_CLASS:
                raise DataError(f"{where}: unknown class {pred!r}")
            value: object = NAME_TO_CLASS[pred]
        elif "pos" in row and "neg" in row:
            row_kind = "baseline"
            if not isinstance(row["pos"], bool) or not isinstance(row["neg"], bool):
                raise DataError(f"{where}: pos and neg must be booleans")
            value = (row["pos"], row["neg"])
        else:
            raise DataError(f"{where}: need either pred or pos/neg fields")
        if kind is None:
            kind = row_kind
        elif kind != row_kind:
            raise DataError(f"{where}: mixed prediction kinds in one file")
        per_case = cells.setdefault(case_id, {})
        if article in per_case:
            raise DataError(f"{where}: duplicate cell {case_id!r}/{article}")
        per_case[article] = value
    if not cells:
        raise DataError(f"prediction file {p} is empty")
    case_ids = list(cells)
    articles = tuple(sorted(next(iter(cells.values()))))
    for case_id, per_case in cells.items():
        if tuple(sorted(per_case)) != articles:
            raise DataError(f"case {case_id!r} covers a different article set")
    grid = [[cells[case_id][article] for article in articles] for case_id in case_ids]
    if kind == "three_way":
        return Predictions(case_ids, articles, labels=np.array(grid, dtype=np.int8))
    flags = np.array(grid, dtype=bool)
    return Predictions(case_ids, articles, pos=flags[..., 0].copy(), neg=flags[..., 1].copy())


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------

_REPORT_COLUMNS = ("model", "encoder", "corpus", "pos", "neg", "null", "all")


@dataclass
class ReportRow:
    model: str
    encoder: str
    corpus: str
    scores: dict[str, float | None] = field(default_factory=dict)

    def cell(self, key: str) -> str:
        value = self.scores.get(key)
        return "-" if value is None else f"{value:.2f}"

    def cells(self) -> list[str]:
        """The row as rendered in every report column: model, encoder,
        corpus, then each score to two decimals or a dash."""
        scores = [self.cell(c) for c in _REPORT_COLUMNS[3:]]
        return [self.model, self.encoder, self.corpus] + scores


def model_report_row(
    model: str, encoder: str, corpus: str, scores: dict[str, float | None]
) -> ReportRow:
    """A trained model's report row from score_predictions' fractions,
    rescaled to percent; an undefined score stays None."""
    return ReportRow(model=model, encoder=encoder, corpus=corpus,
                     scores={k: None if v is None else 100.0 * v for k, v in scores.items()})


def random_report_row(stats: dict[str, dict[str, float]], corpus: str) -> ReportRow:
    """The random baseline's report row (percent scale) from random_baseline's
    per-class statistics."""
    names = ("pos", "neg", "null")
    scores = {c: 100.0 * stats[c]["mean"] for c in names}
    scores["all"] = 100.0 * sum(stats[c]["mean"] for c in names) / 3.0
    return ReportRow(model="random", encoder="-", corpus=corpus, scores=scores)


def rows_from_published(corpus: str) -> list[ReportRow]:
    """The published reference table as report rows (percent scale)."""
    if corpus not in PUBLISHED_RESULTS:
        raise DataError(f"unknown published corpus {corpus!r}")
    return [
        ReportRow(model=arch, encoder=enc, corpus=corpus, scores=dict(scores))
        for (arch, enc), scores in PUBLISHED_RESULTS[corpus].items()
    ]


def verify_all_arithmetic(rows: list[ReportRow], tolerance: float = 0.005) -> list[dict]:
    """Recompute every All cell from its class cells; flag discrepancies."""
    findings = []
    for row in rows:
        published = row.scores.get("all")
        if published is None:
            continue
        recomputed = all_score(row.scores["pos"], row.scores["neg"], row.scores["null"])
        findings.append(
            {
                "model": row.model,
                "encoder": row.encoder,
                "corpus": row.corpus,
                "published": published,
                "recomputed": recomputed,
                "ok": abs(recomputed - published) <= tolerance,
            }
        )
    return findings


def render_report(rows: list[ReportRow]) -> str:
    """Fixed-width text table, one row per (model, encoder, corpus)."""
    header = list(_REPORT_COLUMNS)
    body = [row.cells() for row in rows]
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
              for i in range(len(header))]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    for r in body:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(header))))
    return "\n".join(lines) + "\n"


def report_to_csv(rows: list[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_REPORT_COLUMNS)
    writer.writerows(row.cells() for row in rows)
    return buf.getvalue()


def read_report_csv(text: str) -> list[ReportRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != list(_REPORT_COLUMNS):
        raise DataError(f"unexpected report header: {header}")
    rows = []
    for record in reader:
        if len(record) != len(_REPORT_COLUMNS):
            raise DataError(f"short report row: {record}")
        scores = {
            key: (None if cell == "-" else float(cell))
            for key, cell in zip(_REPORT_COLUMNS[3:], record[3:])
        }
        rows.append(ReportRow(model=record[0], encoder=record[1], corpus=record[2], scores=scores))
    return rows
