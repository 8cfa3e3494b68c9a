"""Claim extraction: pattern matching, enumeration scanning, corpus building.

The multi-claim judgment fixture below is the worked end-to-end example:
claims {2, 6, 8, 14} extracted from prose, combined with violated {2, 6}
to yield NEG labels at {8, 14}.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from negprec.corpus import ArticleIndex, Outcome, derive_labels
from negprec.errors import DataError
from negprec.extraction import (
    DEFAULT_PATTERNS,
    build_outcome_corpus,
    compile_patterns,
    extract_claims,
    load_patterns,
)

# Invented prose in the style of a judgment's complaint recital.
MULTI_CLAIM_JUDGMENT = (
    "The applicant complained under Articles 2, 6, 8 and 14 of the Convention "
    "that the investigation into his brother's death had been ineffective, that "
    "the proceedings had been unfair, and that the searches of his home had "
    "been discriminatory. He further alleged violations of Article 6 § 1 "
    "taken alone. The Government contested those arguments."
)


class TestExtractClaims:
    def test_multi_claim_fixture(self):
        assert extract_claims(MULTI_CLAIM_JUDGMENT) == frozenset({2, 6, 8, 14})

    def test_fixture_feeds_label_derivation(self):
        claims = extract_claims(MULTI_CLAIM_JUDGMENT)
        index = ArticleIndex(tuple(sorted(claims)))
        row = derive_labels(claims, {2, 6}, index)
        negatives = {index.articles[i] for i in range(len(index)) if row[i] == Outcome.NEG}
        assert negatives == {8, 14}

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("alleged a violation of Article 3", {3}),
            ("alleged violations of Articles 3 and 5", {3, 5}),
            ("complained under Article 10", {10}),
            ("relying on Article 11", {11}),
            ("relied upon Articles 6 and 13", {6, 13}),
            ("invoked Article 8", {8}),
            ("invoking Articles 8, 9 or 10", {8, 9, 10}),
            ("the applicant complains under Article 2", {2}),
        ],
    )
    def test_stock_phrasings(self, text, expected):
        assert extract_claims(text) == frozenset(expected)

    def test_paragraph_numbers_are_not_articles(self):
        # The 1 and 3 are paragraphs of Article 6, not articles.
        assert extract_claims("relying on Article 6 §§ 1 and 3 (c)") == frozenset({6})

    def test_enumeration_resumes_after_explicit_article_keyword(self):
        text = "complained under Article 5 § 1 and Article 6"
        assert extract_claims(text) == frozenset({5, 6})

    def test_numbers_outside_convention_range_dropped(self):
        assert extract_claims("alleged a violation of Article 99") == frozenset()
        # Continuation numbers are range-checked too.
        assert extract_claims("invoked Articles 8 and 99") == frozenset({8})

    def test_word_boundary_guards_number_capture(self):
        # "Articles 42" must read as 42, never as 4.
        assert extract_claims("complained under Articles 42") == frozenset({42})

    def test_no_match_is_empty(self):
        assert extract_claims("the facts are set out below") == frozenset()

    @given(
        left=st.sampled_from(
            [
                "complained under Articles 2, 6 and 8",
                "invoked Article 13",
                "nothing relevant here",
                "relying on Article 6 § 1",
            ]
        ),
        right=st.sampled_from(
            [
                "alleged a violation of Article 3",
                "further text with number 7",
                "complained under Articles 9 and 10",
                "",
            ]
        ),
    )
    def test_union_is_monotone_across_sentence_breaks(self, left, right):
        combined = extract_claims(left + " . " + right)
        assert extract_claims(left) | extract_claims(right) <= combined


class TestPatternSet:
    def test_comments_and_blanks_skipped(self):
        ps = compile_patterns(["# comment", "", r"foo\s+(\d{1,2})"], name="t")
        assert len(ps.patterns) == 1

    def test_bad_regex(self):
        with pytest.raises(DataError, match="line 1"):
            compile_patterns(["(unclosed"], name="t")

    def test_pattern_must_have_one_group(self):
        with pytest.raises(DataError, match="exactly one group"):
            compile_patterns([r"foo\s+\d+"], name="t")
        with pytest.raises(DataError, match="exactly one group"):
            compile_patterns([r"(a)(\d)"], name="t")

    def test_empty_set_rejected(self):
        with pytest.raises(DataError, match="empty"):
            compile_patterns(["# only a comment"], name="t")

    def test_load_patterns_file(self, tmp_path):
        path = tmp_path / "pats.txt"
        path.write_text("# claims\nunder\\s+articles?\\s+(\\d{1,2})\\b\n")
        ps = load_patterns(path)
        assert ps.name == "pats.txt"
        assert extract_claims("under Article 7", ps) == frozenset({7})

    def test_load_patterns_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_patterns(tmp_path / "nope.txt")

    def test_default_set_is_named_and_versioned(self):
        assert DEFAULT_PATTERNS.name == "default-v1"
        assert len(DEFAULT_PATTERNS.patterns) == 4


def write_raw(tmp_path, docs, filename="batch.jsonl"):
    raw = tmp_path / "raw"
    raw.mkdir(exist_ok=True)
    with (raw / filename).open("w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")
    return raw


class TestBuildOutcomeCorpus:
    def doc(self, case_id, judgment, violated=(), split="train", **extra):
        record = {
            "case_id": case_id,
            "facts": f"facts of {case_id}",
            "judgment": judgment,
            "violated": list(violated),
            "split": split,
        }
        record.update(extra)
        return record

    def test_claims_union_violated(self, tmp_path):
        raw = write_raw(
            tmp_path,
            [self.doc("a", "complained under Articles 2 and 6", violated=[6, 8])],
        )
        splits, coverage = build_outcome_corpus(raw)
        case = splits.train[0]
        assert case.claims == frozenset({2, 6, 8})  # extracted {2,6} union violated
        assert case.violated == frozenset({6, 8})
        # Pattern recall counts hits before the union: recovered 6 of {6, 8}.
        assert coverage["violated_total"] == 2
        assert coverage["violated_recovered"] == 1
        assert coverage["violated_recall"] == 0.5

    def test_docs_missing_judgment_skipped(self, tmp_path):
        docs = [
            self.doc("a", "invoked Article 3"),
            {"case_id": "broken", "facts": "no judgment field"},
        ]
        raw = write_raw(tmp_path, docs)
        splits, coverage = build_outcome_corpus(raw)
        assert [c.case_id for c in splits.train] == ["a"]
        assert coverage["skipped"] == ["broken"]

    def test_split_routing_and_sorting(self, tmp_path):
        docs = [
            self.doc("b", "invoked Article 3", split="test"),
            self.doc("a", "invoked Article 3", split="test"),
            self.doc("c", "invoked Article 3", split="validation"),
        ]
        raw = write_raw(tmp_path, docs)
        splits, _ = build_outcome_corpus(raw)
        assert [c.case_id for c in splits.test] == ["a", "b"]
        assert [c.case_id for c in splits.validation] == ["c"]

    def test_violations_map_overrides_document_field(self, tmp_path):
        raw = write_raw(tmp_path, [self.doc("a", "invoked Article 3", violated=[3])])
        vfile = tmp_path / "violations.json"
        vfile.write_text(json.dumps({"a": [5]}))
        splits, _ = build_outcome_corpus(raw, violations_source=vfile)
        assert splits.train[0].violated == frozenset({5})
        assert splits.train[0].claims == frozenset({3, 5})

    def test_violations_file(self, tmp_path):
        raw = write_raw(tmp_path, [self.doc("a", "invoked Article 3")])
        vfile = tmp_path / "violations.json"
        vfile.write_text(json.dumps({"a": [3]}))
        splits, _ = build_outcome_corpus(raw, violations_source=vfile)
        assert splits.train[0].violated == frozenset({3})

    def test_unknown_split_rejected(self, tmp_path):
        raw = write_raw(tmp_path, [self.doc("a", "invoked Article 3", split="dev")])
        with pytest.raises(DataError, match="unknown split"):
            build_outcome_corpus(raw)

    def test_malformed_json_line(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "batch.jsonl").write_text("not json\n")
        with pytest.raises(DataError, match=r"batch\.jsonl:1"):
            build_outcome_corpus(raw)

    @pytest.mark.parametrize(
        "line,match",
        [
            (b"[1, 2]", r"batch\.jsonl:1: expected a JSON object"),
            (b"5", r"batch\.jsonl:1: expected a JSON object"),
            (b'"text"', r"batch\.jsonl:1: expected a JSON object"),
            (b'{"case_id": "a", "facts": "\xff", "judgment": ""}', r"batch\.jsonl: not UTF-8"),
        ],
        ids=["list", "number", "string", "non-utf8"],
    )
    def test_bad_line_is_data_error(self, tmp_path, line, match):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "batch.jsonl").write_bytes(line + b"\n")
        with pytest.raises(DataError, match=match):
            build_outcome_corpus(raw)

    @pytest.mark.parametrize(
        "violated", [["x"], ["6"], [6.0], [6.9], [True], 6, None],
        ids=["word", "numeric-string", "float", "fraction", "bool", "scalar", "null"],
    )
    def test_bad_violated_list_rejected(self, tmp_path, violated):
        raw = write_raw(tmp_path, [self.doc("a", "invoked Article 6", violated=())])
        raw_doc = self.doc("b", "invoked Article 6")
        raw_doc["violated"] = violated
        write_raw(tmp_path, [raw_doc], filename="more.jsonl")
        with pytest.raises(DataError, match=r"more\.jsonl:1: violated must be a list of integers"):
            build_outcome_corpus(raw)

    @pytest.mark.parametrize(
        "content,match",
        [
            (b"not json", r"violations\.json: malformed JSON"),
            (b'{"a": [6]', r"violations\.json: malformed JSON"),
            (b'{"a": [6, "\xff"]}', r"violations\.json: malformed JSON"),
            (b"[" * 100_000, r"violations\.json: malformed JSON"),
            (b'{"a": ["6"]}', r"violations: violated articles of 'a' must be a list"),
            (b'{"a": [6.9]}', r"violations: violated articles of 'a' must be a list"),
        ],
        ids=["not-json", "truncated", "non-utf8", "deep", "numeric-string", "fraction"],
    )
    def test_bad_violations_file_rejected(self, tmp_path, content, match):
        raw = write_raw(tmp_path, [self.doc("a", "invoked Article 6")])
        vfile = tmp_path / "violations.json"
        vfile.write_bytes(content)
        with pytest.raises(DataError, match=match):
            build_outcome_corpus(raw, violations_source=vfile)

    def test_bad_violations_map_value_rejected(self, tmp_path):
        raw = write_raw(tmp_path, [self.doc("a", "invoked Article 6")])
        vfile = tmp_path / "violations.json"
        vfile.write_text(json.dumps({"a": ["x"]}))
        with pytest.raises(DataError, match="violated articles of 'a' must be a list"):
            build_outcome_corpus(raw, violations_source=vfile)

    def test_repeated_case_id_rejected(self, tmp_path):
        raw = write_raw(tmp_path, [self.doc("a", "invoked Article 6")])
        write_raw(tmp_path, [self.doc("a", "invoked Article 8", split="test")], "more.jsonl")
        with pytest.raises(DataError, match=r"more\.jsonl:1: duplicate case_id 'a'"):
            build_outcome_corpus(raw)

    def test_empty_raw_dir(self, tmp_path):
        with pytest.raises(DataError, match="no raw"):
            build_outcome_corpus(tmp_path / "missing")
