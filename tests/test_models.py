"""Model architectures: probability algebra, forwards, losses, gradients,
decisions, and checkpoints.

Every numeric contract is checked against an independent pure-Python oracle:
math-module loops for forwards and losses, exhaustive configuration
enumeration for decisions, and central finite differences for gradients.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from negprec.corpus import ArticleIndex, Outcome
from negprec.encoder import PrecomputedEncoder
from negprec.errors import DataError, UsageError
from negprec.experiment import predict_model
from negprec.models import (
    _MODEL_CLASSES,
    ARCHITECTURES,
    build_model,
    decide,
    decide_baseline,
    load_checkpoint,
    log_softmax,
    marginalize,
    save_checkpoint,
    sigmoid,
    softmax,
)
from negprec.training import Dataset, gradient_check

INDEX2 = ArticleIndex((2, 6))


# --------------------------------------------------------------------------
# pure-Python oracles
# --------------------------------------------------------------------------


def oracle_sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def oracle_softmax(row):
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    s = sum(exps)
    return [e / s for e in exps]


def oracle_bce(z: float, t: float) -> float:
    """-log p(t) for a Bernoulli logit, the stable way."""
    return max(z, 0.0) + math.log1p(math.exp(-abs(z))) - t * z


def oracle_scalar_logits(x, hidden_w, out_w):
    """z[b][k] = out_w[k] . relu(hidden_w[k] @ x[b]), all loops."""
    out = []
    for xb in x:
        row = []
        for k in range(len(hidden_w)):
            acc = 0.0
            for h in range(len(out_w[k])):
                pre = sum(hidden_w[k][h][d] * xb[d] for d in range(len(xb)))
                acc += out_w[k][h] * max(pre, 0.0)
            row.append(acc)
        out.append(row)
    return out


def oracle_triple_logits(x, hidden_w, out_w):
    """z[b][k][o] for a 3-way head, all loops."""
    out = []
    for xb in x:
        rows = []
        for k in range(len(hidden_w)):
            hid = [
                max(sum(hidden_w[k][h][d] * xb[d] for d in range(len(xb))), 0.0)
                for h in range(len(hidden_w[k]))
            ]
            rows.append(
                [sum(out_w[k][o][h] * hid[h] for h in range(len(hid))) for o in range(3)]
            )
        out.append(rows)
    return out


def argmax_with_preference(probs) -> int:
    """Exact argmax over (POS, NEG, NULL) with ties to the earlier class."""
    best = 0
    for cls in (1, 2):
        if probs[cls] > probs[best]:
            best = cls
    return best


def make_batch(labels, tokens=None, case_ids=None) -> Dataset:
    labels = np.asarray(labels, dtype=np.int8)
    n = labels.shape[0]
    if case_ids is None:
        case_ids = [f"case-{i}" for i in range(n)]
    if tokens is None:
        tokens = [np.array([], dtype=np.int64) for _ in range(n)]
    else:
        tokens = [np.asarray(t, dtype=np.int64) for t in tokens]
    return Dataset(
        case_ids=case_ids,
        tokens=tokens,
        labels=labels,
    )


def random_vector_model(arch, n_cases, seed, index=INDEX2, dim=4, hidden=3):
    """A model over a precomputed encoder with random case vectors, plus a
    batch of random labels; bypasses tokenization entirely."""
    rng = np.random.default_rng(seed)
    case_ids = [f"case-{i}" for i in range(n_cases)]
    table = {cid: rng.normal(size=dim) for cid in case_ids}
    vectors = PrecomputedEncoder(table=table, dim=dim)
    model = build_model(
        arch, index, rng, dim=dim, hidden=hidden, vectors=vectors,
    )
    # Spread the head weights so logits cover confident and uncertain cells.
    for name, p in model.params.items():
        p *= 4.0
    labels = rng.integers(0, 3, size=(n_cases, len(index)))
    return model, make_batch(labels, case_ids=case_ids)


# --------------------------------------------------------------------------
# numeric primitives
# --------------------------------------------------------------------------


class TestSigmoid:
    @given(st.floats(-50, 50))
    def test_matches_math_oracle(self, z):
        assert sigmoid(np.array([z]))[0] == pytest.approx(oracle_sigmoid(z), abs=1e-15)

    def test_extremes_do_not_overflow(self):
        out = sigmoid(np.array([-800.0, 800.0]))
        assert out.tolist() == [0.0, 1.0]


class TestSoftmax:
    @given(st.lists(st.floats(-30, 30), min_size=3, max_size=3))
    def test_matches_math_oracle(self, row):
        got = softmax(np.array(row))
        want = oracle_softmax(row)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_large_logits_stable(self):
        out = softmax(np.array([1000.0, 999.0, -1000.0]))
        assert np.isfinite(out).all()
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=5))
    def test_log_softmax_is_log_of_softmax(self, row):
        logits = np.array(row)
        np.testing.assert_allclose(log_softmax(logits), np.log(softmax(logits)),
                                   rtol=1e-10, atol=1e-12)


class TestMarginalize:
    def test_product_rule_by_hand(self):
        dist = marginalize(np.array(0.25), np.array(0.8))
        assert dist[0] == pytest.approx(0.25 * 0.8)  # POS
        assert dist[1] == pytest.approx(0.75 * 0.8)  # NEG
        assert dist[2] == pytest.approx(0.2)  # NULL

    @given(
        p=st.floats(0, 1, allow_nan=False),
        q=st.floats(0, 1, allow_nan=False),
    )
    def test_exact_identities(self, p, q):
        pos, neg, null = marginalize(np.array(p), np.array(q)).tolist()
        assert pos + neg + null == 1.0  # exact in float64, by construction
        assert 0.0 <= pos <= q and 0.0 <= neg <= q
        assert 0.0 <= null <= 1.0
        # NULL tracks 1 - q to within 2 ulps at unit scale
        assert abs(null - (1.0 - q)) <= 2 * np.spacing(1.0)

    def test_batched_shape(self):
        p = np.full((5, 3), 0.5)
        q = np.full((5, 3), 0.5)
        assert marginalize(p, q).shape == (5, 3, 3)


class TestDecide:
    def test_preference_order_on_ties(self):
        table = np.array(
            [
                [0.4, 0.4, 0.2],  # POS beats NEG on a tie
                [0.2, 0.4, 0.4],  # NEG beats NULL on a tie
                [1 / 3, 1 / 3, 1 / 3],  # three-way tie goes POS
                [0.1, 0.2, 0.7],
            ]
        )
        assert decide(table).tolist() == [
            Outcome.POS,
            Outcome.NEG,
            Outcome.POS,
            Outcome.NULL,
        ]

    def test_baseline_threshold_is_strict(self):
        pos, neg = decide_baseline(np.array([0.5, 0.51]), np.array([0.49, 0.5]))
        assert pos.tolist() == [False, True]
        assert neg.tolist() == [False, False]


# --------------------------------------------------------------------------
# forward passes
# --------------------------------------------------------------------------


class TestForwardByHand:
    """One fully hand-computed forward for the simple baseline."""

    def test_simple_baseline_logits(self):
        model = build_model(
            "simple", ArticleIndex((2,)), np.random.default_rng(0),
            dim=2, hidden=2, vocab_buckets=4, max_tokens=8,
        )
        model.params["pos_enc.emb"][...] = [[1, 0], [0, 1], [1, 1], [2, 0]]
        model.params["neg_enc.emb"][...] = np.array(
            [[1, 0], [0, 1], [1, 1], [2, 0]]) * 0.5
        model.params["pos.hidden_w"][...] = [[[1, 2], [3, 4]]]
        model.params["pos.out_w"][...] = [[1, -1]]
        model.params["neg.hidden_w"][...] = [[[0, 1], [1, 0]]]
        model.params["neg.out_w"][...] = [[2, 1]]
        batch = make_batch([[Outcome.POS], [Outcome.NEG]], tokens=[[0], [1, 2]])
        p_pos, p_neg = model.forward(batch)
        # case 0: x_pos=[1,0], pre=[1,3], z = 1*1 - 1*3 = -2
        # case 1: x_pos=[.5,1], pre=[2.5,5.5], z = -3
        assert p_pos[0, 0] == pytest.approx(oracle_sigmoid(-2.0), abs=1e-15)
        assert p_pos[1, 0] == pytest.approx(oracle_sigmoid(-3.0), abs=1e-15)
        # case 0: x_neg=[.5,0], pre=[0,.5], z = 0.5
        # case 1: x_neg=[.25,.5], pre=[.5,.25], z = 1.25
        assert p_neg[0, 0] == pytest.approx(oracle_sigmoid(0.5), abs=1e-15)
        assert p_neg[1, 0] == pytest.approx(oracle_sigmoid(1.25), abs=1e-15)


    def test_untrained_bucket_reads_a_zero_row(self):
        # The tables hold buckets 0, 2 and 3 of 4, so bucket 1 has no row:
        # it adds a zero row to its case's mean and counts in its length.
        model = build_model(
            "simple", ArticleIndex((2,)), np.random.default_rng(0),
            dim=2, hidden=2, vocab_buckets=4, max_tokens=8, vocab=np.array([0, 2, 3]),
        )
        assert model.params["pos_enc.emb"].shape == (3, 2)
        model.params["pos_enc.emb"][...] = [[1, 0], [1, 1], [2, 0]]
        model.params["neg_enc.emb"][...] = np.array([[1, 0], [1, 1], [2, 0]]) * 0.5
        model.params["pos.hidden_w"][...] = [[[1, 2], [3, 4]]]
        model.params["pos.out_w"][...] = [[1, -1]]
        model.params["neg.hidden_w"][...] = [[[0, 1], [1, 0]]]
        model.params["neg.out_w"][...] = [[2, 1]]
        batch = make_batch([[Outcome.POS], [Outcome.NEG]], tokens=[[0], [1, 2]])
        p_pos, p_neg = model.forward(batch)
        # case 0: x_pos=[1,0], pre=[1,3], z = 1*1 - 1*3 = -2
        # case 1: x_pos=([0,0]+[1,1])/2=[.5,.5], pre=[1.5,3.5], z = -2
        assert p_pos[0, 0] == pytest.approx(oracle_sigmoid(-2.0), abs=1e-15)
        assert p_pos[1, 0] == pytest.approx(oracle_sigmoid(-2.0), abs=1e-15)
        # case 0: x_neg=[.5,0], pre=[0,.5], z = 0.5
        # case 1: x_neg=[.25,.25], pre=[.25,.25], z = 2*.25 + 1*.25 = .75
        assert p_neg[0, 0] == pytest.approx(oracle_sigmoid(0.5), abs=1e-15)
        assert p_neg[1, 0] == pytest.approx(oracle_sigmoid(0.75), abs=1e-15)


@pytest.mark.parametrize("arch", ARCHITECTURES)
class TestForwardAgainstLoopOracle:
    def test_forward(self, arch):
        model, batch = random_vector_model(arch, n_cases=6, seed=11)
        x = model.vectors.encode_ids(batch.case_ids)
        x = x.tolist()
        p = {k: v.tolist() for k, v in model.params.items()}
        if arch in ("simple", "mtl"):
            p_pos, p_neg = model.forward(batch)
            z_pos = oracle_scalar_logits(x, p["pos.hidden_w"], p["pos.out_w"])
            z_neg = oracle_scalar_logits(x, p["neg.hidden_w"], p["neg.out_w"])
            for b in range(6):
                for k in range(2):
                    assert p_pos[b, k] == pytest.approx(
                        oracle_sigmoid(z_pos[b][k]), rel=1e-12)
                    assert p_neg[b, k] == pytest.approx(
                        oracle_sigmoid(z_neg[b][k]), rel=1e-12)
        elif arch == "joint":
            probs = model.forward(batch)
            z = oracle_triple_logits(x, p["joint.hidden_w"], p["joint.out_w"])
            for b in range(6):
                for k in range(2):
                    want = oracle_softmax(z[b][k])
                    np.testing.assert_allclose(probs[b, k], want, rtol=1e-11)
        else:
            p_claim, p_pos_given = model.forward(batch)
            z_claim = oracle_scalar_logits(x, p["claim.hidden_w"], p["claim.out_w"])
            z_out = oracle_scalar_logits(x, p["outcome.hidden_w"], p["outcome.out_w"])
            for b in range(6):
                for k in range(2):
                    assert p_claim[b, k] == pytest.approx(
                        oracle_sigmoid(z_claim[b][k]), rel=1e-12)
                    assert p_pos_given[b, k] == pytest.approx(
                        oracle_sigmoid(z_out[b][k]), rel=1e-12)


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------


class TestLossOracles:
    def logits_for(self, model, batch, arch):
        x = model.vectors.encode_ids(batch.case_ids)
        x = x.tolist()
        p = {k: v.tolist() for k, v in model.params.items()}
        if arch in ("simple", "mtl"):
            return (
                oracle_scalar_logits(x, p["pos.hidden_w"], p["pos.out_w"]),
                oracle_scalar_logits(x, p["neg.hidden_w"], p["neg.out_w"]),
            )
        if arch == "joint":
            return oracle_triple_logits(x, p["joint.hidden_w"], p["joint.out_w"])
        return (
            oracle_scalar_logits(x, p["claim.hidden_w"], p["claim.out_w"]),
            oracle_scalar_logits(x, p["outcome.hidden_w"], p["outcome.out_w"]),
        )

    @pytest.mark.parametrize("arch", ["simple", "mtl"])
    def test_baseline_nll_is_sum_of_two_bces(self, arch):
        model, batch = random_vector_model(arch, n_cases=5, seed=3)
        z_pos, z_neg = self.logits_for(model, batch, arch)
        total = 0.0
        for b in range(5):
            for k in range(2):
                pos_t = 1.0 if batch.labels[b, k] == Outcome.POS else 0.0
                neg_t = 1.0 if batch.labels[b, k] == Outcome.NEG else 0.0
                total += oracle_bce(z_pos[b][k], pos_t) + oracle_bce(z_neg[b][k], neg_t)
        assert model.nll(batch) == pytest.approx(total / 5, rel=1e-12)

    def test_joint_nll_is_cross_entropy(self):
        model, batch = random_vector_model("joint", n_cases=5, seed=4)
        z = self.logits_for(model, batch, "joint")
        total = 0.0
        for b in range(5):
            for k in range(2):
                probs = oracle_softmax(z[b][k])
                total += -math.log(probs[batch.labels[b, k]])
        assert model.nll(batch) == pytest.approx(total / 5, rel=1e-10)

    def test_claim_outcome_nll_is_factorized(self):
        model, batch = random_vector_model("claim_outcome", n_cases=5, seed=5)
        z_claim, z_out = self.logits_for(model, batch, "claim_outcome")
        total = 0.0
        for b in range(5):
            for k in range(2):
                claimed = batch.labels[b, k] != Outcome.NULL
                total += oracle_bce(z_claim[b][k], 1.0 if claimed else 0.0)
                if claimed:
                    pos_t = 1.0 if batch.labels[b, k] == Outcome.POS else 0.0
                    total += oracle_bce(z_out[b][k], pos_t)
        assert model.nll(batch) == pytest.approx(total / 5, rel=1e-12)

    def test_claim_outcome_nll_equals_neglog_of_marginal(self):
        """The two BCE terms are exactly -log of the 3-way case probability."""
        model, batch = random_vector_model("claim_outcome", n_cases=6, seed=6)
        q, p = model.forward(batch)
        total = 0.0
        for b in range(6):
            for k in range(2):
                label = batch.labels[b, k]
                if label == Outcome.POS:
                    prob = q[b, k] * p[b, k]
                elif label == Outcome.NEG:
                    prob = q[b, k] * (1.0 - p[b, k])
                else:
                    prob = 1.0 - q[b, k]
                total += -math.log(prob)
        assert model.nll(batch) == pytest.approx(total / 6, rel=1e-9)

    def test_clamp_counter_and_finite_loss_at_zero_probability(self):
        case_ids = ["a", "b"]
        vectors = PrecomputedEncoder(
            table={c: np.ones(4) for c in case_ids}, dim=4
        )
        batch = make_batch(np.full((2, 2), Outcome.NULL), case_ids=case_ids)
        for arch in ("claim_outcome", "joint"):
            model = build_model(
                arch, INDEX2, np.random.default_rng(7), dim=4, hidden=3, vectors=vectors,
            )
            if arch == "claim_outcome":
                # Overflow the claim logits to +inf: certainty of a claim
                # that is absent, i.e. probability exactly 0 at the gold label.
                model.params["claim.hidden_w"][...] = 1e200
                model.params["claim.out_w"][...] = 1e200
            else:
                # Every hidden unit reads 4e200, so the gold NULL logit
                # overflows to -inf while POS and NEG read 0.
                model.params["joint.hidden_w"][...] = 1e200
                model.params["joint.out_w"][...] = 0.0
                model.params["joint.out_w"][:, Outcome.NULL] = -1e200
                z = np.asarray(self.logits_for(model, batch, arch))
                assert np.all(z[..., Outcome.NULL] == -math.inf)
            assert model.clamp_warnings == 0
            loss = model.nll(batch)
            assert math.isfinite(loss), arch
            assert model.clamp_warnings == 4, arch  # 2 cases x 2 articles
            assert loss == pytest.approx(2 * -math.log(1e-12), rel=1e-12), arch

    def test_unclaimed_outcome_overflow_adds_no_loss_or_gradient(self):
        """An unclaimed cell gives the outcome head weight 0: even an
        infinite outcome logit adds no loss, no clamp and no gradient."""
        case_ids = ["a", "b"]
        vectors = PrecomputedEncoder(
            table={c: np.ones(4) for c in case_ids}, dim=4
        )
        model = build_model(
            "claim_outcome", INDEX2, np.random.default_rng(7), dim=4, hidden=3,
            vectors=vectors,
        )
        batch = make_batch(np.full((2, 2), Outcome.NULL), case_ids=case_ids)
        expected = model.nll(batch)
        # Article 2's outcome logits overflow to +inf, article 6's to -inf.
        model.params["outcome.hidden_w"][...] = 1e200
        model.params["outcome.out_w"][0] = 1e200
        model.params["outcome.out_w"][1] = -1e200
        _, z_out = self.logits_for(model, batch, "claim_outcome")
        assert z_out == [[math.inf, -math.inf], [math.inf, -math.inf]]
        loss, grads = model.loss_and_grads(batch)
        assert loss == expected
        assert model.clamp_warnings == 0
        for name in ("outcome.hidden_w", "outcome.out_w"):
            assert np.all(grads[name] == 0.0), name
        assert all(np.isfinite(g).all() for g in grads.values())


# --------------------------------------------------------------------------
# gradients
# --------------------------------------------------------------------------


class _CorruptedGradients:
    """Wrapper that poisons one gradient array, or only its flat coordinate
    `coord`, for detector calibration."""

    def __init__(self, model, name, coord=None):
        self._model = model
        self._name = name
        self._coord = coord
        self.params = model.params

    def loss_and_grads(self, batch, dropout=0.0, rng=None, want_grads=True):
        loss, grads = self._model.loss_and_grads(batch, dropout, rng, want_grads)
        if grads is not None:
            grad = grads[self._name] = grads[self._name].copy()
            if self._coord is None:
                grad += 1.0
            else:
                grad.flat[self._coord] += 1.0
        return loss, grads

    def nll(self, batch):
        return self._model.nll(batch)


def _bow_model_64(arch):
    """A model with 64-bucket tables (368 to 712 parameters) and a batch of
    six cases."""
    rng = np.random.default_rng(23)
    model = build_model(arch, INDEX2, rng, dim=5, hidden=3, vocab_buckets=64, max_tokens=8)
    tokens = [rng.integers(0, 64, size=rng.integers(1, 8)) for _ in range(6)]
    return model, make_batch(rng.integers(0, 3, size=(6, 2)), tokens=tokens)


@pytest.mark.parametrize("arch", ARCHITECTURES)
class TestGradients:
    def test_analytic_matches_finite_differences(self, arch):
        model, batch = random_vector_model(arch, n_cases=8, seed=21)
        assert gradient_check(model, batch) < 1e-6

    def test_corrupted_gradient_detected(self, arch):
        model, batch = random_vector_model(arch, n_cases=8, seed=22)
        name = sorted(model.params)[0]
        worst = gradient_check(_CorruptedGradients(model, name), batch)
        assert worst > 1e-2

    def test_one_corrupted_coordinate_detected(self, arch):
        # A 200-coordinate sampler (seed 0), which gradient_check used before
        # it probed every coordinate, never reached these coordinates at this
        # shape; running it on each model found them. Each lies in an
        # embedding row the batch reads.
        coord = {"simple": ("neg_enc.emb", 0), "mtl": ("enc.emb", 15),
                 "joint": ("enc.emb", 40), "claim_outcome": ("claim_enc.emb", 0)}[arch]
        model, batch = _bow_model_64(arch)
        assert coord[1] // 5 in np.concatenate(batch.tokens)
        assert gradient_check(model, batch) < 1e-6
        assert gradient_check(_CorruptedGradients(model, *coord), batch) > 1e-2

    def test_every_coordinate_is_probed(self, arch):
        model, batch = _bow_model_64(arch)
        calls = []
        nll = model.nll

        def counting_nll(b):
            calls.append(b)
            return nll(b)

        model.nll = counting_nll
        gradient_check(model, batch)
        assert len(calls) == 2 * model.param_count()

    def test_bow_embedding_gradients(self, arch):
        rng = np.random.default_rng(23)
        model = build_model(
            arch, INDEX2, rng, dim=5, hidden=3, vocab_buckets=16, max_tokens=8,
        )
        tokens = [rng.integers(0, 16, size=rng.integers(1, 8)) for _ in range(6)]
        labels = rng.integers(0, 3, size=(6, 2))
        batch = make_batch(labels, tokens=tokens)
        assert gradient_check(model, batch) < 1e-6

    def test_gradients_under_dropout(self, arch):
        """Central differences of the loss with dropout on. A fresh generator
        per evaluation draws the same masks every time, so this checks the
        mask on each encoder's dx, and mtl's one mask over its heads' summed
        dx, against an oracle."""
        rng = np.random.default_rng(24)
        model = build_model(
            arch, INDEX2, rng, dim=5, hidden=3, vocab_buckets=16, max_tokens=8,
        )
        tokens = [rng.integers(0, 16, size=rng.integers(1, 8)) for _ in range(6)]
        batch = make_batch(rng.integers(0, 3, size=(6, 2)), tokens=tokens)

        def loss_and_grads(want_grads):
            return model.loss_and_grads(
                batch, dropout=0.5, rng=np.random.default_rng(25), want_grads=want_grads
            )

        _, grads = loss_and_grads(True)
        touched = np.unique(np.concatenate(tokens))
        probe = np.random.default_rng(26)
        eps = 1e-5
        for name, p in model.params.items():
            if name.endswith(".emb"):  # rows the batch reads; others have no gradient
                rows = probe.choice(touched, size=6)
                coords = rows * p.shape[1] + probe.integers(0, p.shape[1], size=6)
            else:
                coords = probe.choice(p.size, size=6, replace=False)
            analytic = np.asarray(grads[name])
            for i in coords:
                orig = p.flat[i]
                p.flat[i] = orig + eps
                above, _ = loss_and_grads(False)
                p.flat[i] = orig - eps
                below, _ = loss_and_grads(False)
                p.flat[i] = orig
                numeric = (above - below) / (2.0 * eps)
                a = analytic.flat[i]
                err = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
                assert err < 1e-6, (name, int(i), a, numeric)


# --------------------------------------------------------------------------
# decisions vs exhaustive enumeration
# --------------------------------------------------------------------------


class TestDecisionOracle:
    def test_claim_outcome_matches_enumeration(self):
        model, batch = random_vector_model("claim_outcome", n_cases=50, seed=31)
        got = model.predict_labels(batch)
        q, p = model.forward(batch)
        for b in range(50):
            for k in range(2):
                probs = [0.0, 0.0, 0.0]
                for o in (1, 0):  # outcome-if-claimed
                    for c in (1, 0):  # claim
                        pr = (p[b, k] if o else 1 - p[b, k]) * (
                            q[b, k] if c else 1 - q[b, k]
                        )
                        cls = (
                            Outcome.NULL if c == 0
                            else (Outcome.POS if o else Outcome.NEG)
                        )
                        probs[cls] += pr
                assert got[b, k] == argmax_with_preference(probs)

    def test_joint_matches_enumeration(self):
        model, batch = random_vector_model("joint", n_cases=50, seed=32)
        got = model.predict_labels(batch)
        probs = model.forward(batch)
        for b in range(50):
            for k in range(2):
                assert got[b, k] == argmax_with_preference(probs[b, k].tolist())

    def test_baseline_pairs_match_thresholding(self):
        model, batch = random_vector_model("simple", n_cases=20, seed=33)
        p_pos, p_neg = model.forward(batch)
        preds = predict_model(model, batch, INDEX2.articles)
        np.testing.assert_array_equal(preds.pos, p_pos > 0.5)
        np.testing.assert_array_equal(preds.neg, p_neg > 0.5)


# --------------------------------------------------------------------------
# construction and checkpoints
# --------------------------------------------------------------------------


class TestBuildModel:
    def test_unknown_architecture(self):
        with pytest.raises(DataError, match="unknown architecture"):
            build_model("mlp", INDEX2, np.random.default_rng(0))

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("name", ["hidden", "dim", "vocab_buckets"])
    def test_non_positive_shape_is_usage_error(self, name, value):
        # Checked before any draw: the generator is left untouched.
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(UsageError, match=f"{name} must be >= 1, got {value}"):
            build_model("mtl", INDEX2, rng, **{"vocab_buckets": 8, name: value})
        assert rng.bit_generator.state == state

    def test_vector_table_needs_no_bucket_count(self):
        vectors = PrecomputedEncoder(table={"a": np.zeros(4)}, dim=4)
        model = build_model("mtl", INDEX2, np.random.default_rng(0), vocab_buckets=0,
                            vectors=vectors)
        assert model.vocab_buckets == 0

    def test_dropout_needs_a_generator(self):
        model, batch = random_vector_model("mtl", n_cases=2, seed=0)
        with pytest.raises(ValueError, match="dropout requires a random generator"):
            model.loss_and_grads(batch, dropout=0.5, rng=None)

    def test_embedding_shape_dtype_and_bounds(self):
        model = build_model("simple", INDEX2, np.random.default_rng(0),
                            dim=16, hidden=2, vocab_buckets=128)
        for name in ("pos_enc.emb", "neg_enc.emb"):
            emb = model.params[name]
            assert emb.shape == (128, 16)
            assert emb.dtype == np.float64
            assert float(np.abs(emb).max()) <= 0.5
        assert model.encoder_kind == "hashed_bow"
        assert model.vocab_buckets == 128

    def test_param_count_arithmetic(self):
        k, h, d, v = 2, 3, 5, 16
        expected_heads = {
            "simple": 2 * (k * h * d + k * h),
            "mtl": 2 * (k * h * d + k * h),
            "joint": k * h * d + k * 3 * h,
            "claim_outcome": 2 * (k * h * d + k * h),
        }
        n_encoders = {"simple": 2, "mtl": 1, "joint": 1, "claim_outcome": 2}
        for arch in ARCHITECTURES:
            model = build_model(arch, INDEX2, np.random.default_rng(0),
                                dim=d, hidden=h, vocab_buckets=v)
            assert model.param_count() == (
                expected_heads[arch] + n_encoders[arch] * v * d
            ), arch

    def test_architectures_are_the_classes_own(self):
        assert ARCHITECTURES == ("simple", "mtl", "joint", "claim_outcome")
        for arch, cls in _MODEL_CLASSES.items():
            assert cls.arch == arch
            assert build_model(arch, INDEX2, np.random.default_rng(0), vocab_buckets=8).arch == arch

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_vocab_keeps_the_whole_draws_rows(self, arch):
        # 5000 buckets of dim 48 are drawn in four blocks of rows. The kept
        # rows, the heads drawn after the tables and the generator's state
        # after them all equal those of a model of every bucket.
        vocab = np.array([0, 1, 1364, 1365, 2731, 4095, 4999])
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        whole = build_model(arch, INDEX2, a, dim=48, hidden=3, vocab_buckets=5000)
        kept = build_model(arch, INDEX2, b, dim=48, hidden=3, vocab_buckets=5000, vocab=vocab)
        assert a.bit_generator.state == b.bit_generator.state
        assert whole.vocab.tolist() == list(range(5000))
        assert kept.vocab.tolist() == vocab.tolist() and kept.vocab_buckets == 5000
        assert whole.params.keys() == kept.params.keys()
        for name, p in whole.params.items():
            want = p[vocab] if name.endswith(".emb") else p
            assert kept.params[name].tobytes() == want.tobytes()

    def test_same_seed_same_weights(self):
        a = build_model("joint", INDEX2, np.random.default_rng(5), vocab_buckets=32)
        b = build_model("joint", INDEX2, np.random.default_rng(5), vocab_buckets=32)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])


_BAD_VOCAB = r"vocab must hold strictly increasing integer bucket ids in \[0, 8\)"


def _edit_meta(arrays, **changes):
    """Update a checkpoint's metadata entry in its arrays."""
    meta = json.loads(str(arrays["_meta"]))
    meta.update(changes)
    arrays["_meta"] = np.asarray(json.dumps(meta))


class TestCheckpoints:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_round_trip_preserves_predictions(self, arch, tmp_path):
        rng = np.random.default_rng(41)
        model = build_model(arch, INDEX2, rng, dim=4, hidden=3,
                            vocab_buckets=16, max_tokens=8)
        tokens = [rng.integers(0, 16, size=5) for _ in range(4)]
        batch = make_batch(rng.integers(0, 3, size=(4, 2)), tokens=tokens)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, extra_meta={"note": "round-trip"})
        loaded = load_checkpoint(path)
        assert loaded.arch == arch
        assert loaded.index.articles == (2, 6)
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["_meta"]))
        assert meta["note"] == "round-trip"
        assert meta["hidden"] == 3
        assert loaded.vocab_buckets == meta["vocab_buckets"] == 16
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name], model.params[name])
        if arch in ("simple", "mtl"):
            np.testing.assert_array_equal(
                model.forward(batch)[0], loaded.forward(batch)[0]
            )
        elif arch == "joint":
            np.testing.assert_array_equal(model.forward(batch), loaded.forward(batch))

    def test_version_2_round_trip(self, tmp_path):
        # Tables of 4 of 16 buckets: the file holds the vocab and the kept
        # rows, and the reloaded model predicts the same bytes, tokens of
        # buckets outside the vocab included.
        rng = np.random.default_rng(42)
        model = build_model("claim_outcome", INDEX2, rng, dim=4, hidden=3, vocab_buckets=16,
                            max_tokens=8, vocab=np.array([1, 5, 6, 15]))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        with np.load(path, allow_pickle=False) as data:
            assert json.loads(str(data["_meta"]))["version"] == 2
            assert data["vocab"].tolist() == [1, 5, 6, 15]
            assert data["claim_enc.emb"].shape == (4, 4)
        loaded = load_checkpoint(path)
        assert loaded.vocab.tolist() == [1, 5, 6, 15] and loaded.vocab_buckets == 16
        for name in model.params:
            assert loaded.params[name].tobytes() == model.params[name].tobytes()
        tokens = [rng.integers(0, 16, size=5) for _ in range(6)]
        batch = make_batch(rng.integers(0, 3, size=(6, 2)), tokens=tokens)
        assert not np.isin(np.concatenate(tokens), [1, 5, 6, 15]).all()
        assert (loaded.outcome_distribution(batch).tobytes()
                == model.outcome_distribution(batch).tobytes())

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_version_1_file_reads_as_every_bucket(self, arch, tmp_path):
        # Written by hand as version 1 wrote it: whole tables, no vocab.
        rng = np.random.default_rng(43)
        model = build_model(arch, INDEX2, rng, dim=4, hidden=3, vocab_buckets=16, max_tokens=8)
        meta = {"version": 1, "arch": arch, "articles": [2, 6], "hidden": 3,
                "encoder_kind": "hashed_bow", "dim": 4, "max_tokens": 8, "vocab_buckets": 16}
        path = tmp_path / "v1.npz"
        with path.open("wb") as fh:
            np.savez(fh, _meta=np.asarray(json.dumps(meta, sort_keys=True)), **model.params)
        loaded = load_checkpoint(path)
        assert loaded.vocab.tolist() == list(range(16)) and loaded.vocab_buckets == 16
        tokens = [rng.integers(0, 16, size=5) for _ in range(6)]
        batch = make_batch(rng.integers(0, 3, size=(6, 2)), tokens=tokens)
        got, want = loaded.forward(batch), model.forward(batch)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_no_npz_suffix_added(self, tmp_path):
        model = build_model("mtl", INDEX2, np.random.default_rng(0), vocab_buckets=8)
        path = tmp_path / "bare"
        save_checkpoint(model, path)
        assert path.is_file()
        assert not (tmp_path / "bare.npz").is_file()

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_checkpoint(tmp_path / "none.ckpt")

    def test_non_checkpoint_npz(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(DataError, match="not a model checkpoint"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "old.ckpt"
        meta = {"version": 99, "arch": "mtl"}
        with path.open("wb") as fh:
            np.savez(fh, _meta=np.asarray(json.dumps(meta)))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    def test_precomputed_checkpoint_needs_vectors(self, tmp_path):
        vectors = PrecomputedEncoder(table={"a": np.zeros(4)}, dim=4)
        model = build_model("joint", INDEX2, np.random.default_rng(0), dim=4,
                            vectors=vectors)
        path = tmp_path / "pc.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(DataError, match="vector table"):
            load_checkpoint(path)
        loaded = load_checkpoint(path, vectors=vectors)
        assert loaded.encoder_kind == "precomputed"
        assert model.vocab_buckets == loaded.vocab_buckets == 0

    @staticmethod
    def rewrite(path, edit):
        """Re-save a checkpoint after edit(arrays) changes its entries."""
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        edit(arrays)
        with path.open("wb") as fh:
            np.savez(fh, **arrays)

    @pytest.mark.parametrize(
        "arch, edit, message",
        [
            ("simple", lambda a: a.pop("pos.hidden_w"), "missing weights for pos.hidden_w"),
            ("mtl", lambda a: a.update({"enc.emb": a["enc.emb"][:-1]}),
             r"enc.emb has shape \(7, 4\), expected \(8, 4\)"),
            ("joint", lambda a: a.update({"extra.w": np.zeros(3)}),
             "unexpected arrays extra.w"),
            ("mtl", lambda a: a.update({"_meta": np.asarray("{not json")}),
             "checkpoint metadata is not JSON"),
            ("mtl", lambda a: a.update({"_meta": np.asarray("[1, 2]")}),
             "checkpoint metadata is not a JSON object"),
            ("simple", lambda a: _edit_meta(a, arch="mlp"), "unknown architecture 'mlp'"),
            ("simple", lambda a: _edit_meta(a, encoder_kind="bert"),
             "unknown encoder kind 'bert'"),
            ("mtl", lambda a: a.pop("vocab"), "missing vocab"),
            ("mtl", lambda a: a.update({"vocab": a["vocab"][::-1]}), _BAD_VOCAB),
            ("mtl", lambda a: a["vocab"].__setitem__(1, 0), _BAD_VOCAB),
            ("mtl", lambda a: a["vocab"].__setitem__(-1, 8), _BAD_VOCAB),
            ("mtl", lambda a: a.update({"vocab": a["vocab"].astype(np.int64) - 1}), _BAD_VOCAB),
            ("mtl", lambda a: a.update({"vocab": a["vocab"].astype(np.float64)}), _BAD_VOCAB),
            ("mtl", lambda a: a.update({"vocab": np.array([0, "x"], dtype=object)}),
             _BAD_VOCAB),
            ("mtl", lambda a: a.update({"vocab": a["vocab"][:-1]}),
             r"enc.emb has shape \(8, 4\), expected \(7, 4\)"),
            ("mtl", lambda a: _edit_meta(a, vocab_buckets=0), "vocab_buckets must be >= 1"),
            ("mtl", lambda a: _edit_meta(a, vocab_buckets=1 << 62),
             "a row lookup over 4611686018427387904 buckets does not fit in memory"),
        ],
        ids=["missing_head", "wrong_shape", "extra_array", "meta_not_json",
             "meta_not_object", "unknown_arch", "unknown_encoder_kind", "missing_vocab",
             "unsorted_vocab", "repeated_vocab", "vocab_past_buckets", "negative_vocab",
             "float_vocab", "object_vocab", "vocab_shorter_than_tables", "no_buckets",
             "buckets_past_memory"],
    )
    def test_contents_checked_against_metadata(self, arch, edit, message, tmp_path):
        model = build_model(arch, INDEX2, np.random.default_rng(0), dim=4, hidden=3,
                            vocab_buckets=8)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        self.rewrite(path, edit)
        with pytest.raises(DataError, match=message):
            load_checkpoint(path)

    def test_malformed_metadata(self, tmp_path):
        model = build_model("joint", INDEX2, np.random.default_rng(0), vocab_buckets=8)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)

        def drop_hidden(arrays):
            meta = json.loads(str(arrays["_meta"]))
            del meta["hidden"]
            arrays["_meta"] = np.asarray(json.dumps(meta))

        self.rewrite(path, drop_hidden)
        with pytest.raises(DataError, match="malformed checkpoint metadata"):
            load_checkpoint(path)

    @pytest.mark.parametrize("max_tokens", [0, -1, 8])
    def test_max_tokens_must_fit_encoder_kind(self, max_tokens, tmp_path):
        # A model tokenizes its cases exactly when max_tokens > 0, so a
        # hashed_bow checkpoint needs a positive one and a precomputed one 0.
        vectors = PrecomputedEncoder(table={"a": np.zeros(4)}, dim=4)
        model = build_model("joint", INDEX2, np.random.default_rng(0), dim=4, vocab_buckets=8,
                            vectors=vectors if max_tokens > 0 else None)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)

        def set_max_tokens(arrays):
            meta = json.loads(str(arrays["_meta"]))
            meta["max_tokens"] = max_tokens
            arrays["_meta"] = np.asarray(json.dumps(meta))

        self.rewrite(path, set_max_tokens)
        with pytest.raises(DataError, match=f"max_tokens {max_tokens} does not fit"):
            load_checkpoint(path, vectors=model.vectors)

    def test_precomputed_vector_dimension_checked(self, tmp_path):
        vectors = PrecomputedEncoder(table={"a": np.zeros(4)}, dim=4)
        model = build_model("joint", INDEX2, np.random.default_rng(0), dim=4,
                            vectors=vectors)
        path = tmp_path / "pc.ckpt"
        save_checkpoint(model, path)
        wider = PrecomputedEncoder(table={"a": np.zeros(5)}, dim=5)
        with pytest.raises(DataError, match="dimension 5"):
            load_checkpoint(path, vectors=wider)
