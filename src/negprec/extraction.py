"""Regex extraction of claimed articles from judgment text.

Claims are recovered from stock phrasings ("alleged a violation of Article 6",
"complained under Articles 2, 6, 8 and 14", "relying on Article 3", "invoked
Article 8"). Each pattern captures a single article number; enumerations after
a match are picked up by a continuation scan that tolerates paragraph markers
("Article 6 § 1") without mistaking paragraph numbers for articles.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path

from .corpus import Case, SplitSet, SPLIT_NAMES, parse_article_list, read_jsonl
from .errors import DataError

log = logging.getLogger(__name__)

# Articles of the convention proper run 1..59; anything else a pattern
# captures is noise (years, application numbers) and is discarded here.
# Restriction to the substantive core happens later, at corpus load.
MIN_ARTICLE = 1
MAX_ARTICLE = 59

_DEFAULT_PATTERN_TEXT = r"""
# One pattern per line; group 1 must capture an article number.
violations?\s+of\s+articles?\s+(\d{1,2})\b
complain\w*\s+under\s+articles?\s+(\d{1,2})\b
rel(?:y|ies|ied|ying)\s+(?:up)?on\s+articles?\s+(\d{1,2})\b
invok\w*\s+articles?\s+(\d{1,2})\b
"""

# Pieces of the continuation scan: skip "§ 1" / "§§ 1 (c)" style paragraph
# markers, then accept ", 6" / "and 14" / "; or Article 5" list elements.
_PARAGRAPH = re.compile(r"\s*§+\s*\d+(?:\s*\([a-z]\))?")
_SEPARATOR = re.compile(r"(?:\s*(?:,|;|\band\b|\bor\b))+\s*", re.IGNORECASE)
_LIST_ITEM = re.compile(r"(articles?\s+)?(\d{1,2})\b", re.IGNORECASE)


@dataclass(frozen=True)
class PatternSet:
    """Named, versioned collection of compiled claim patterns."""

    name: str
    patterns: tuple[re.Pattern, ...]

    def __post_init__(self) -> None:
        for pat in self.patterns:
            if pat.groups != 1:
                raise DataError(
                    f"pattern set {self.name!r}: {pat.pattern!r} must have exactly one group"
                )


def compile_patterns(lines: list[str], name: str) -> PatternSet:
    compiled = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            compiled.append(re.compile(line, re.IGNORECASE))
        except re.error as exc:
            raise DataError(f"pattern set {name!r} line {lineno}: {exc}") from exc
    if not compiled:
        raise DataError(f"pattern set {name!r} is empty")
    return PatternSet(name=name, patterns=tuple(compiled))


def load_patterns(path: str | Path) -> PatternSet:
    """Read a pattern file: one regex per line, # starts a comment line."""
    p = Path(path)
    if not p.is_file():
        raise DataError(f"pattern file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{p.name}: not UTF-8 text ({exc.reason})") from exc
    return compile_patterns(text.splitlines(), name=p.name)


DEFAULT_PATTERNS = compile_patterns(_DEFAULT_PATTERN_TEXT.splitlines(), name="default-v1")


def _scan_enumeration(text: str, start: int, found: set[int]) -> None:
    """Collect further article numbers following a pattern match.

    A bare number after a paragraph marker is itself a paragraph
    ("Article 6 §§ 1 and 3"), so the scan stops there unless the number is
    explicitly introduced by the word Article.
    """
    pos = start
    while True:
        saw_paragraph = False
        while (pm := _PARAGRAPH.match(text, pos)) is not None:
            pos = pm.end()
            saw_paragraph = True
        sep = _SEPARATOR.match(text, pos)
        if sep is None:
            return
        item = _LIST_ITEM.match(text, sep.end())
        if item is None:
            return
        if saw_paragraph and item.group(1) is None:
            return
        number = int(item.group(2))
        if MIN_ARTICLE <= number <= MAX_ARTICLE:
            found.add(number)
        pos = item.end()


def extract_claims(text: str, patterns: PatternSet = DEFAULT_PATTERNS) -> frozenset[int]:
    """All article numbers claimed anywhere in text, as a set.

    Matches are unioned, so extending the text with more words never
    removes a claim.
    """
    found: set[int] = set()
    for pat in patterns.patterns:
        for m in pat.finditer(text):
            number = int(m.group(1))
            if MIN_ARTICLE <= number <= MAX_ARTICLE:
                found.add(number)
            _scan_enumeration(text, m.end(), found)
    return frozenset(found)


def _load_violations(source: str | Path | None) -> dict[str, frozenset[int]] | None:
    if source is None:
        return None
    p = Path(source)
    if not p.is_file():
        raise DataError(f"violations file not found: {p}")
    try:
        mapping = json.loads(p.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
        raise DataError(f"{p.name}: malformed JSON ({exc})") from exc
    if not isinstance(mapping, dict):
        raise DataError(f"violations file {p} must hold a JSON object")
    return {
        case_id: parse_article_list(arts, f"violated articles of {case_id!r}", "violations")
        for case_id, arts in mapping.items()
    }


def build_outcome_corpus(
    raw_dir: str | Path,
    patterns: PatternSet = DEFAULT_PATTERNS,
    violations_source: str | Path | None = None,
) -> tuple[SplitSet, dict]:
    """Turn raw judgment documents into a claim/violation corpus.

    Raw documents are JSON lines in *.jsonl files under raw_dir with fields
    case_id, facts, judgment, optional split (default train) and optional
    violated. A violations file (a JSON object mapping case_id to violated
    articles) overrides the per-document field. Claims are the extracted
    set unioned with the violated set, which guarantees every violated
    article is claimed. Documents without a facts or judgment field are
    skipped and logged; kept case_ids must be unique.

    Returns the splits plus a coverage report: how many of the violated
    articles the patterns recovered on their own, before the union.
    """
    root = Path(raw_dir)
    files = sorted(root.glob("*.jsonl")) if root.is_dir() else []
    if not files:
        raise DataError(f"no raw *.jsonl documents under {root}")
    violations = _load_violations(violations_source)

    splits = SplitSet()
    skipped: list[str] = []
    recovered = total_violated = 0
    kept: set[str] = set()
    for path in files:
        for where, doc in read_jsonl(path):
            case_id = doc.get("case_id")
            if not isinstance(case_id, str) or not case_id:
                raise DataError(f"{where}: case_id must be a non-empty string")
            facts = doc.get("facts")
            judgment = doc.get("judgment")
            if not isinstance(facts, str) or not isinstance(judgment, str):
                skipped.append(case_id)
                log.info("%s: skipping %s (missing facts or judgment)", where, case_id)
                continue
            split = doc.get("split", "train")
            if split not in SPLIT_NAMES:
                raise DataError(f"{where}: unknown split {split!r}")
            if case_id in kept:
                raise DataError(f"{where}: duplicate case_id {case_id!r}")
            kept.add(case_id)
            if violations is not None and case_id in violations:
                violated = violations[case_id]
            else:
                violated = parse_article_list(doc.get("violated", []), "violated", where)
            extracted = extract_claims(judgment, patterns)
            recovered += len(extracted & violated)
            total_violated += len(violated)
            splits.split(split).append(
                Case(
                    case_id=case_id,
                    facts=facts,
                    claims=extracted | violated,
                    violated=violated,
                )
            )
    for name in SPLIT_NAMES:
        splits.split(name).sort(key=lambda c: c.case_id)
    coverage = {
        "pattern_set": patterns.name,
        "documents": sum(len(splits.split(n)) for n in SPLIT_NAMES),
        "skipped": sorted(skipped),
        "violated_total": total_violated,
        "violated_recovered": recovered,
        "violated_recall": (recovered / total_violated) if total_violated else None,
    }
    return splits, coverage
