"""Shared fixtures: a small hand-labeled corpus used across test modules."""

from __future__ import annotations

import pytest

import negprec.training
from negprec.corpus import Case, SplitSet


def make_case(case_id, facts, claims, violated) -> Case:
    return Case(
        case_id=case_id,
        facts=facts,
        claims=frozenset(claims),
        violated=frozenset(violated),
    )


def count_tokenize(monkeypatch) -> list[str]:
    """Wrap training.tokenize; the returned list gets each text it is called on."""
    calls: list[str] = []
    real = negprec.training.tokenize

    def counting(text, max_tokens, vocab_buckets):
        calls.append(text)
        return real(text, max_tokens, vocab_buckets)

    monkeypatch.setattr(negprec.training, "tokenize", counting)
    return calls


@pytest.fixture
def tiny_splits() -> SplitSet:
    """Six cases over articles {2, 6, 8}; 4 train / 1 validation / 1 test.

    Label algebra, worked out by hand:
        t-0: POS {2},    NEG {6},    NULL {8}
        t-1: POS {6},    NEG {},     NULL {2, 8}
        t-2: POS {},     NEG {8},    NULL {2, 6}
        t-3: all NULL (zero-claim case)
        v-0: POS {8},    NEG {2, 6}
        s-0: POS {2, 6}, NEG {8}
    """
    splits = SplitSet()
    splits.train.extend(
        [
            make_case("t-0", "police detained the applicant for months", {2, 6}, {2}),
            make_case("t-1", "the proceedings lasted nine years", {6}, {6}),
            make_case("t-2", "the home was searched without a warrant", {8}, set()),
            make_case("t-3", "the application raised no complaints", set(), set()),
        ]
    )
    splits.validation.append(
        make_case("v-0", "detention continued and letters were read", {2, 6, 8}, {8})
    )
    splits.test.append(
        make_case("s-0", "correspondence was intercepted by officers", {2, 6, 8}, {2, 6})
    )
    return splits
