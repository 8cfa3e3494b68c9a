"""Synthetic corpus generator with a controllable claim/outcome asymmetry.

Design: claims are easy, positive outcomes are learnable, negative outcomes
are strictly harder. Each claimed article emits frequent claim-signal
tokens; a violated (positive) article emits frequent violation-evidence
tokens; a claimed-but-not-violated (negative) article keeps only a weakened
echo of that evidence, plus a per-article distinguishing token that is the
sole reliable marker of the flip — and that marker is emitted only with
probability ``marker_rate``, so a share of negatives is near-indistinguishable
from positives. The marker also shows up as a red herring in a small share
of positive articles. Negative outcomes are therefore detectable but
strictly noisier than positive ones, which is the asymmetry the evaluation
suite is meant to expose.

Claims are sampled independently per article, and outcomes depend only on
that article's own draws, so cross-article label correlation is zero by
construction. Every case is generated from a seed derived from (corpus
seed, split, position), making corpora bit-reproducible and cases
generable in any order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Case, SplitSet, SPLIT_NAMES
from .errors import UsageError

# Tokens emitted per claimed article: claim signal, outcome evidence, and
# copies of the distinguishing token on a marked flip.
CLAIM_SLOTS = 3
OUTCOME_SLOTS = 4
DISTINGUISH_COPIES = 2

_POOL = CLAIM_SLOTS + OUTCOME_SLOTS + 1  # reserved vocabulary per article


@dataclass(frozen=True)
class GenConfig:
    n_articles: int = 8
    vocab: int = 1000
    claim_rate: float = 0.4
    claim_strength: float = 0.95
    outcome_strength: float = 0.9
    distinguish_rate: float = 0.5
    marker_rate: float = 0.75
    herring_rate: float = 0.1
    neg_echo: float = 0.4
    filler_tokens: int = 18
    train_size: int = 2000
    validation_size: int = 250
    test_size: int = 250
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.n_articles <= 17:
            raise UsageError("n_articles must be in 1..17 (core article ids)")
        if self.vocab < _POOL * self.n_articles + 10:
            raise UsageError(
                f"vocab must be >= {_POOL * self.n_articles + 10} "
                f"for {self.n_articles} articles"
            )
        for name in (
            "claim_rate",
            "claim_strength",
            "outcome_strength",
            "distinguish_rate",
            "marker_rate",
            "herring_rate",
            "neg_echo",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise UsageError(f"{name} must be in [0, 1]")
        for name in ("train_size", "validation_size", "test_size"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be >= 1")
        for name in ("filler_tokens", "seed"):
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be >= 0")


@dataclass(frozen=True)
class VocabLayout:
    """Which word plays which role; the test oracle reads this."""

    articles: tuple[int, ...]
    claim_pools: tuple[tuple[str, ...], ...]
    violation_pools: tuple[tuple[str, ...], ...]
    distinguish: tuple[str, ...]
    fillers: tuple[str, ...]


def vocab_layout(config: GenConfig) -> VocabLayout:
    words = [f"w{i:04d}" for i in range(config.vocab)]
    claim_pools = []
    violation_pools = []
    distinguish = []
    for slot in range(config.n_articles):
        base = slot * _POOL
        claim_pools.append(tuple(words[base : base + CLAIM_SLOTS]))
        violation_pools.append(
            tuple(words[base + CLAIM_SLOTS : base + CLAIM_SLOTS + OUTCOME_SLOTS])
        )
        distinguish.append(words[base + _POOL - 1])
    return VocabLayout(
        articles=tuple(range(2, 2 + config.n_articles)),
        claim_pools=tuple(claim_pools),
        violation_pools=tuple(violation_pools),
        distinguish=tuple(distinguish),
        fillers=tuple(words[_POOL * config.n_articles :]),
    )


def _generate_case(
    config: GenConfig, layout: VocabLayout, split: str, position: int
) -> Case:
    split_code = SPLIT_NAMES.index(split)
    rng = np.random.default_rng([config.seed, split_code, position])
    k = config.n_articles
    claimed = rng.random(k) < config.claim_rate
    flipped = rng.random(k) < config.distinguish_rate
    marked = rng.random(k) < config.marker_rate
    herring = rng.random(k) < config.herring_rate

    def pick(pool: tuple[str, ...], strength: float) -> str:
        if rng.random() < strength:
            return pool[int(rng.integers(len(pool)))]
        return layout.fillers[int(rng.integers(len(layout.fillers)))]

    tokens: list[str] = []
    claims: set[int] = set()
    violated: set[int] = set()
    for slot in range(k):
        if not claimed[slot]:
            continue
        article = layout.articles[slot]
        claims.add(article)
        for _ in range(CLAIM_SLOTS):
            tokens.append(pick(layout.claim_pools[slot], config.claim_strength))
        if flipped[slot]:
            evidence = config.outcome_strength * config.neg_echo
            for _ in range(OUTCOME_SLOTS):
                tokens.append(pick(layout.violation_pools[slot], evidence))
            if marked[slot]:
                tokens.extend([layout.distinguish[slot]] * DISTINGUISH_COPIES)
        else:
            violated.add(article)
            for _ in range(OUTCOME_SLOTS):
                tokens.append(pick(layout.violation_pools[slot], config.outcome_strength))
            if herring[slot]:
                tokens.append(layout.distinguish[slot])
    filler_ids = rng.integers(len(layout.fillers), size=config.filler_tokens)
    tokens.extend(layout.fillers[i] for i in filler_ids)
    order = rng.permutation(len(tokens))
    facts = " ".join(tokens[i] for i in order)
    return Case(
        case_id=f"synth-{split}-{position:05d}",
        facts=facts,
        claims=frozenset(claims),
        violated=frozenset(violated),
    )


def generate_corpus(config: GenConfig) -> SplitSet:
    """Generate the three splits. Bit-reproducible: the same config always
    yields byte-identical cases."""
    layout = vocab_layout(config)
    splits = SplitSet()
    for name in SPLIT_NAMES:
        cases = splits.split(name)
        for position in range(getattr(config, f"{name}_size")):
            cases.append(_generate_case(config, layout, name, position))
    return splits

