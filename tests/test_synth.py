"""Generator tests: vocabulary layout against an index oracle, bit-level
determinism, structural invariants, marker mechanics, and the statistical
properties (rates, independence) the corpus is designed to guarantee."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from negprec.corpus import CORE_ARTICLES
from negprec.errors import UsageError
from negprec.synth import (
    CLAIM_SLOTS,
    DISTINGUISH_COPIES,
    OUTCOME_SLOTS,
    GenConfig,
    generate_corpus,
    vocab_layout,
)
from negprec.training import from_kv

POOL = CLAIM_SLOTS + OUTCOME_SLOTS + 1


def small_config(**overrides) -> GenConfig:
    base = dict(
        n_articles=4,
        vocab=60,
        train_size=50,
        validation_size=10,
        test_size=10,
        seed=0,
    )
    base.update(overrides)
    return GenConfig(**base)


class TestVocabLayout:
    def test_word_indices_match_oracle(self):
        config = small_config(n_articles=3, vocab=50)
        layout = vocab_layout(config)
        words = [f"w{i:04d}" for i in range(50)]
        assert layout.articles == (2, 3, 4)
        for slot in range(3):
            base = slot * POOL
            assert layout.claim_pools[slot] == tuple(words[base : base + CLAIM_SLOTS])
            assert layout.violation_pools[slot] == tuple(
                words[base + CLAIM_SLOTS : base + CLAIM_SLOTS + OUTCOME_SLOTS]
            )
            assert layout.distinguish[slot] == words[base + POOL - 1]
        assert layout.fillers == tuple(words[3 * POOL :])

    def test_roles_partition_the_reserved_words(self):
        layout = vocab_layout(small_config())
        reserved: list[str] = []
        for slot in range(4):
            reserved.extend(layout.claim_pools[slot])
            reserved.extend(layout.violation_pools[slot])
            reserved.append(layout.distinguish[slot])
        assert len(reserved) == len(set(reserved)) == 4 * POOL
        assert not set(reserved) & set(layout.fillers)

    def test_articles_are_core_ids(self):
        layout = vocab_layout(GenConfig(n_articles=17, vocab=POOL * 17 + 10))
        assert layout.articles == tuple(range(2, 19))
        assert set(layout.articles) == CORE_ARTICLES


class TestDeterminism:
    def test_same_config_is_bit_identical(self):
        a = generate_corpus(small_config())
        b = generate_corpus(small_config())
        for split in ("train", "validation", "test"):
            for ca, cb in zip(a.split(split), b.split(split)):
                assert ca.case_id == cb.case_id
                assert ca.facts == cb.facts
                assert ca.claims == cb.claims
                assert ca.violated == cb.violated

    def test_different_seeds_differ(self):
        a = generate_corpus(small_config(seed=0))
        b = generate_corpus(small_config(seed=1))
        assert any(
            ca.facts != cb.facts for ca, cb in zip(a.train, b.train)
        )

    def test_cases_do_not_depend_on_split_size(self):
        """Each case is seeded by (seed, split, position), so growing a split
        must not change the cases that were already there."""
        small = generate_corpus(small_config(train_size=5))
        large = generate_corpus(small_config(train_size=10))
        for ca, cb in zip(small.train, large.train):
            assert ca.facts == cb.facts
            assert ca.claims == cb.claims
            assert ca.violated == cb.violated

    def test_splits_are_independent_streams(self):
        corpus = generate_corpus(small_config(train_size=10, validation_size=10))
        train_facts = [c.facts for c in corpus.train]
        val_facts = [c.facts for c in corpus.validation]
        assert train_facts != val_facts


class TestStructure:
    def test_invariants_hold_for_every_case(self):
        config = small_config()
        layout = vocab_layout(config)
        corpus = generate_corpus(config)
        vocabulary = {f"w{i:04d}" for i in range(config.vocab)}
        articles = set(layout.articles)
        for split in ("train", "validation", "test"):
            for position, case in enumerate(corpus.split(split)):
                assert case.case_id == f"synth-{split}-{position:05d}"
                assert case.violated <= case.claims <= articles
                tokens = case.facts.split()
                assert set(tokens) <= vocabulary
                n_claimed = len(case.claims)
                low = config.filler_tokens + (CLAIM_SLOTS + OUTCOME_SLOTS) * n_claimed
                high = low + DISTINGUISH_COPIES * n_claimed
                assert low <= len(tokens) <= high

    def test_split_sizes(self):
        corpus = generate_corpus(small_config())
        assert len(corpus.train) == 50
        assert len(corpus.validation) == 10
        assert len(corpus.test) == 10

    def test_no_flips_means_every_claim_violated(self):
        corpus = generate_corpus(small_config(distinguish_rate=0.0))
        for case in corpus.train:
            assert case.violated == case.claims

    def test_all_flips_means_nothing_violated(self):
        corpus = generate_corpus(small_config(distinguish_rate=1.0))
        for case in corpus.train:
            assert case.violated == frozenset()
            # claims still occur at the configured rate
        assert any(case.claims for case in corpus.train)


class TestMarkerMechanics:
    def test_marker_absent_when_rates_are_zero(self):
        config = small_config(marker_rate=0.0, herring_rate=0.0)
        layout = vocab_layout(config)
        corpus = generate_corpus(config)
        markers = set(layout.distinguish)
        for case in corpus.train:
            assert not markers & set(case.facts.split())

    def test_reliable_marker_appears_twice_per_negative(self):
        config = small_config(
            claim_rate=1.0, distinguish_rate=1.0, marker_rate=1.0, herring_rate=0.0
        )
        layout = vocab_layout(config)
        corpus = generate_corpus(config)
        for case in corpus.train:
            tokens = case.facts.split()
            for slot in range(config.n_articles):
                assert tokens.count(layout.distinguish[slot]) == DISTINGUISH_COPIES

    def test_herring_appears_once_per_positive(self):
        config = small_config(
            claim_rate=1.0, distinguish_rate=0.0, marker_rate=1.0, herring_rate=1.0
        )
        layout = vocab_layout(config)
        corpus = generate_corpus(config)
        for case in corpus.train:
            tokens = case.facts.split()
            for slot in range(config.n_articles):
                assert tokens.count(layout.distinguish[slot]) == 1

    def test_unreliable_marker_is_sometimes_missing(self):
        """With marker_rate < 1 a share of negatives must lack the marker —
        that shortfall is what makes negatives harder than positives."""
        config = small_config(
            train_size=200, claim_rate=1.0, distinguish_rate=1.0,
            marker_rate=0.5, herring_rate=0.0,
        )
        layout = vocab_layout(config)
        corpus = generate_corpus(config)
        marked = unmarked = 0
        for case in corpus.train:
            tokens = set(case.facts.split())
            for slot in range(config.n_articles):
                if layout.distinguish[slot] in tokens:
                    marked += 1
                else:
                    unmarked += 1
        total = marked + unmarked
        assert total == 200 * config.n_articles
        assert 0.4 < marked / total < 0.6


@pytest.fixture(scope="module")
def big_train():
    config = GenConfig(
        n_articles=2,
        vocab=POOL * 2 + 10,
        train_size=10_000,
        validation_size=1,
        test_size=1,
        seed=0,
    )
    return generate_corpus(config).train


class TestStatistics:
    def test_claim_rate_close_to_configured(self, big_train):
        for article in (2, 3):
            rate = np.mean([article in case.claims for case in big_train])
            assert rate == pytest.approx(0.4, abs=0.02)

    def test_flip_rate_close_to_half_among_claimed(self, big_train):
        for article in (2, 3):
            claimed = [case for case in big_train if article in case.claims]
            flipped = np.mean([article not in case.violated for case in claimed])
            assert flipped == pytest.approx(0.5, abs=0.03)

    def test_cross_article_labels_uncorrelated(self, big_train):
        """Claims and outcomes are drawn independently per article, so the
        sample correlation between article columns must be near zero."""
        claims = np.array(
            [[a in case.claims for a in (2, 3)] for case in big_train], dtype=float
        )
        positive = np.array(
            [[a in case.violated for a in (2, 3)] for case in big_train], dtype=float
        )
        for matrix in (claims, positive):
            r = np.corrcoef(matrix[:, 0], matrix[:, 1])[0, 1]
            assert abs(r) < 0.05


class TestGenConfig:
    def test_documented_defaults(self):
        config = GenConfig()
        assert config.n_articles == 8
        assert config.vocab == 1000
        assert config.claim_rate == 0.4
        assert config.claim_strength == 0.95
        assert config.outcome_strength == 0.9
        assert config.distinguish_rate == 0.5
        assert config.marker_rate == 0.75
        assert config.herring_rate == 0.1
        assert config.neg_echo == 0.4
        assert config.filler_tokens == 18
        assert (config.train_size, config.validation_size, config.test_size) == (
            2000, 250, 250,
        )
        assert config.seed == 0

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            GenConfig().seed = 1  # type: ignore[misc]

    @pytest.mark.parametrize("n", [0, 18])
    def test_article_count_bounds(self, n):
        with pytest.raises(UsageError, match="n_articles"):
            GenConfig(n_articles=n, vocab=500)

    def test_vocab_must_cover_reserved_words(self):
        with pytest.raises(UsageError, match="vocab must be >= 42"):
            GenConfig(n_articles=4, vocab=41)
        GenConfig(n_articles=4, vocab=42)  # boundary is allowed

    @pytest.mark.parametrize(
        "field",
        [
            "claim_rate",
            "claim_strength",
            "outcome_strength",
            "distinguish_rate",
            "marker_rate",
            "herring_rate",
            "neg_echo",
        ],
    )
    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_rates_must_be_probabilities(self, field, value):
        with pytest.raises(UsageError, match=field):
            GenConfig(**{field: value})

    @pytest.mark.parametrize("field", ["train_size", "validation_size", "test_size"])
    def test_sizes_must_be_positive(self, field):
        with pytest.raises(UsageError, match=field):
            GenConfig(**{field: 0})

    def test_negative_fillers_rejected(self):
        with pytest.raises(UsageError, match="filler_tokens"):
            GenConfig(filler_tokens=-1)

    def test_negative_seed_rejected(self):
        with pytest.raises(UsageError, match="seed must be >= 0"):
            GenConfig(seed=-1)


class TestGenConfigFromMapping:
    def test_parses_types_by_field(self):
        config = from_kv(
            GenConfig, {"n_articles": "2", "vocab": "40", "claim_rate": "0.25", "seed": "7"}
        )
        assert config.n_articles == 2
        assert config.vocab == 40
        assert config.claim_rate == 0.25
        assert config.seed == 7
        assert config.marker_rate == 0.75  # untouched fields keep defaults

    def test_empty_mapping_gives_defaults(self):
        assert from_kv(GenConfig, {}) == GenConfig()

    def test_unknown_key(self):
        with pytest.raises(UsageError, match="gen.cfg: unknown key 'colour'"):
            from_kv(GenConfig, {"colour": "blue"}, where="gen.cfg")

    def test_bad_value(self):
        with pytest.raises(UsageError, match="bad value for 'vocab'"):
            from_kv(GenConfig, {"vocab": "many"})
