"""Training loop: Adam arithmetic, config parsing, model selection, grids.

Adam keeps the textbook moments and computes the bias-corrected step in
Kingma & Ba's one-divide order, alpha_t m / (sqrt(v) + eps_hat). The moments
are checked byte for byte against the textbook recurrence, the step against
the textbook step to within its rounding error bound, and the Python-scalar
recurrence to 1e-14. The whole-array oracle, adam_oracle, spells out the
implementation's own order, so training is checked byte for byte against
it, compact embedding tables included.
"""

from __future__ import annotations

import gc
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import negprec
from conftest import count_tokenize
from negprec.corpus import ArticleIndex, Outcome, filter_articles
from negprec.encoder import PrecomputedEncoder, tokenize
from negprec.errors import DataError, NumericError, UsageError
from negprec.experiment import ExperimentManifest
from negprec.models import ARCHITECTURES, MTLBaseline, build_model
from negprec.synth import GenConfig, generate_corpus
from negprec.training import (
    DESK_GRID,
    FULL_GRID,
    GRID_PRESETS,
    AdamState,
    Dataset,
    GridSpec,
    TrainConfig,
    adam_step,
    from_kv,
    grid_search,
    load_kv,
    parse_kv_lines,
    train,
)


def small_corpus(seed=0):
    """A quickly learnable synthetic corpus for loop-behavior tests."""
    return generate_corpus(
        GenConfig(
            n_articles=2,
            vocab=40,
            train_size=40,
            validation_size=12,
            test_size=12,
            seed=seed,
        )
    )


def fast_config(**overrides):
    defaults = dict(
        seed=0, dim=8, hidden=4, vocab_buckets=64, max_tokens=64,
        batch_size=8, max_epochs=3,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def initial_model(arch, config, splits, vectors=None):
    """The model train() starts from, and its generator after drawing it."""
    rng = np.random.default_rng(config.seed)
    model = build_model(
        arch, filter_articles(splits), rng, dim=config.dim, hidden=config.hidden,
        vocab_buckets=config.vocab_buckets,
        max_tokens=config.max_tokens, vectors=vectors,
    )
    return model, rng


def adam_oracle(p, m, v, g, lr, t):
    """Step t of Adam over whole arrays: the textbook moments, then the
    step in Kingma & Ba's (2015, section 2) order of computation,
    alpha_t m / (sqrt(v) + eps_hat) with alpha_t = lr sqrt(bc2) / bc1 and
    eps_hat = eps sqrt(bc2). Returns the new p, m and v."""
    bc1, bc2 = 1.0 - 0.9**t, 1.0 - 0.999**t
    alpha, eps_hat = lr * math.sqrt(bc2) / bc1, 1e-8 * math.sqrt(bc2)
    m = m * 0.9 + (1.0 - 0.9) * g
    v = v * 0.999 + (1.0 - 0.999) * (g * g)
    return p - m / (np.sqrt(v) + eps_hat) * alpha, m, v


def full_table_oracle(arch, config, splits, vectors=None):
    """train() as a plain loop: dense Adam written out over every whole
    parameter array, embedding tables of every bucket included, with the
    generator drawn in train()'s order (initialization, then per epoch a
    permutation and the dropout masks), and the best epoch's weights
    restored. Returns those weights and the per-epoch log."""
    model, rng = initial_model(arch, config, splits, vectors)
    train_ds, val_ds = (
        Dataset.build(cases, model.index, model.max_tokens, config.vocab_buckets)
        for cases in (splits.train, splits.validation)
    )
    params, lr = model.params, config.learning_rate
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    t, best_loss, best, log = 0, math.inf, None, []
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_ds))
        total = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = train_ds.subset(order[start : start + config.batch_size])
            loss, grads = model.loss_and_grads(batch, dropout=config.dropout, rng=rng)
            total += loss * len(batch.case_ids)
            t += 1
            for name, g in grads.items():
                # In place: the encoders alias the embedding tables.
                params[name][...], m[name], v[name] = adam_oracle(
                    params[name], m[name], v[name], np.asarray(g), lr, t)
        val_loss = model.nll(val_ds)
        picked = val_loss < best_loss
        if picked:
            best_loss, best = val_loss, {k: p.copy() for k, p in params.items()}
        log.append({"epoch": epoch, "train_loss": total / len(train_ds),
                    "val_loss": val_loss, "selected": picked})
    return best, log


def assert_trains_like_oracle(arch, config, splits, vectors=None):
    want_params, want_log = full_table_oracle(arch, config, splits, vectors)
    result = train(arch, config, splits, vectors=vectors)
    model = result.model
    assert result.log == want_log
    assert model.params.keys() == want_params.keys()
    for name, p in want_params.items():
        if name.endswith(".emb"):  # the whole table's rows of the model's vocab
            p = p[model.vocab]
        assert model.params[name].tobytes() == p.tobytes()
    return result


# Trains every architecture on a small corpus at batch 64 and hidden 50,
# shapes where NumPy's bundled OpenBLAS gave different bytes for the head
# and bag-of-words products at 1 and 2 threads, and prints two SHA-256
# digests: of the trained parameters with each model's forward pass on the
# 64-case test split, and of the per-epoch logs.
_DIGEST_SCRIPT = """
import hashlib, json
import numpy as np
from negprec.synth import GenConfig, generate_corpus
from negprec.training import Dataset, TrainConfig, train
splits = generate_corpus(GenConfig(train_size=256, validation_size=64, test_size=64))
config = TrainConfig(hidden=50, batch_size=64, max_epochs=2, vocab_buckets=4096,
                     learning_rate=3e-3)
models, logs = hashlib.sha256(), hashlib.sha256()
for arch in ("simple", "mtl", "joint", "claim_outcome"):
    result = train(arch, config, splits)
    model = result.model
    for name in sorted(model.params):
        models.update(name.encode())
        models.update(model.params[name].tobytes())
    test = Dataset.build(splits.test, model.index, model.max_tokens, model.vocab_buckets)
    models.update(np.asarray(model.forward(test)).tobytes())
    logs.update(json.dumps(result.log, sort_keys=True).encode())
print(models.hexdigest(), logs.hexdigest())
"""

# With OPENBLAS_NUM_THREADS=2 and NumPy imported first, prints the thread
# count of the OpenBLAS NumPy loaded after importing negprec, or "none"
# when NumPy loaded no OpenBLAS.
_PIN_SCRIPT = """
import ctypes, glob
from pathlib import Path
import numpy as np
get = None
for path in glob.glob(str(Path(np.__file__).resolve().parent.parent / "numpy.libs" / "*openblas*.so*")):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        get = get or getattr(lib, symbol, None)
if get is None:
    print("none")
else:
    get.argtypes, get.restype = [], ctypes.c_int
    import negprec
    print(get())
"""


class TestAdam:
    def oracle_two_steps(self, p0, g1, g2, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        """Scalar recurrence, one coordinate."""
        p, m, v = p0, 0.0, 0.0
        for t, g in ((1, g1), (2, g2)):
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            m_hat = m / (1 - beta1**t)
            v_hat = v / (1 - beta2**t)
            p = p - lr * m_hat / (math.sqrt(v_hat) + eps)
        return p

    def test_matches_scalar_recurrence(self):
        p0 = [1.5, -0.25, 0.0]
        g1 = [0.3, -1.2, 0.01]
        g2 = [-0.7, 0.4, 2.0]
        params = {"w": np.array(p0)}
        state = AdamState.init(params)
        adam_step(params, {"w": np.array(g1)}, state, lr=0.1)
        adam_step(params, {"w": np.array(g2)}, state, lr=0.1)
        for i in range(3):
            want = self.oracle_two_steps(p0[i], g1[i], g2[i], lr=0.1)
            assert params["w"][i] == pytest.approx(want, rel=1e-14)
        assert state.step == 2

    def test_updates_in_place(self):
        params = {"w": np.ones(2)}
        alias = params["w"]
        state = AdamState.init(params)
        adam_step(params, {"w": np.ones(2)}, state, lr=0.01)
        assert params["w"] is alias  # embeddings alias this array; identity matters
        assert not np.array_equal(alias, np.ones(2))

    def test_non_finite_gradient_rejected(self):
        params = {"w": np.ones(2)}
        state = AdamState.init(params)
        with pytest.raises(NumericError, match="w"):
            adam_step(params, {"w": np.array([1.0, np.nan])}, state, lr=0.01)
        # The failed call must not half-apply: step stays 0.
        assert state.step == 0
        np.testing.assert_array_equal(params["w"], np.ones(2))

    def test_untouched_rows_are_skipped_bitwise(self):
        # Every nonzero gradient row is even and below 40: rows whose
        # gradient has always been zero keep m = v = 0, so the whole-table
        # pass leaves their bytes, which train()'s compact tables rely on.
        rng = np.random.default_rng(8)
        p0 = rng.normal(size=(60, 3))
        params = {"emb": p0.copy()}
        state = AdamState.init(params)
        touched: set[int] = set()
        for k in (3, 1, 5, 0, 4, 2):
            rows = rng.choice(np.arange(0, 40, 2), size=k, replace=False)
            g = np.zeros_like(p0)
            g[rows] = rng.normal(size=(k, 3))
            touched.update(int(r) for r in rows)
            adam_step(params, {"emb": g}, state, lr=0.05)
        hit = np.array(sorted(touched))
        untouched = np.setdiff1d(np.arange(60), hit)
        assert params["emb"][untouched].tobytes() == p0[untouched].tobytes()
        for moment in (state.m["emb"], state.v["emb"]):
            assert moment[untouched].tobytes() == np.zeros((len(untouched), 3)).tobytes()
        assert not np.array_equal(params["emb"][hit], p0[hit])

    def test_blocked_update_matches_whole_array_formula(self):
        # 3000 x 64 spans several blocks of the dense pass; the oracle is
        # the same arithmetic written as whole-array expressions, so the
        # two must agree bit for bit.
        rng = np.random.default_rng(6)
        p0 = rng.normal(size=(3000, 64))
        params = {"w": p0.copy()}
        state = AdamState.init(params)
        m = np.zeros_like(p0)
        v = np.zeros_like(p0)
        want = p0.copy()
        for t in (1, 2, 3):
            g = rng.normal(size=p0.shape)
            adam_step(params, {"w": g}, state, lr=0.01)
            want, m, v = adam_oracle(want, m, v, g, 0.01, t)
        assert params["w"].tobytes() == want.tobytes()

    def test_moments_are_the_textbook_recurrence_bitwise(self):
        # Only the step's order of computation departs from the textbook;
        # m and v take its operations in its order, zero rows included.
        rng = np.random.default_rng(9)
        params = {"w": rng.normal(size=(50, 4))}
        state = AdamState.init(params)
        m = np.zeros((50, 4))
        v = np.zeros((50, 4))
        for _ in range(5):
            g = rng.normal(size=(50, 4))
            g[rng.random(50) < 0.3] = 0.0
            adam_step(params, {"w": g}, state, lr=0.01)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * (g * g)
            assert state.m["w"].tobytes() == m.tobytes()
            assert state.v["w"].tobytes() == v.tobytes()

    def test_step_is_the_textbook_step_up_to_rounding(self):
        """Each step against the textbook lr (m / bc1) / (sqrt(v / bc2) + eps)
        from the same m and v, element by element. Both round the same exact
        S (Higham, Accuracy and Stability of Numerical Algorithms, 3.1, with
        gamma_k = k u / (1 - k u), u = 2^-53): the textbook rounds 6 times
        (m / bc1, times lr, v / bc2, the root, + eps, the divide), the
        eps-hat form 8 times (3 in alpha, 2 in eps_hat, the root, + eps_hat,
        the divide, times alpha; a sum of non-negative terms keeps the
        larger relative error). So |step - textbook| <= (gamma_6 + gamma_8)
        |S|, and |S| <= |textbook| / (1 - gamma_6)."""
        u = 2.0 ** -53

        def gamma(k):
            return k * u / (1 - k * u)

        bound = (gamma(6) + gamma(8)) / (1 - gamma(6))
        rng = np.random.default_rng(10)
        n = 400
        # |g| from 1e-12, where sqrt(v) is far below eps_hat, to 1e3; the
        # first 20 at 1e-170, where g * g underflows and v = 0 while m is
        # not; the next 20 never get a gradient, so m = v = 0.
        scale = 10.0 ** rng.uniform(-12, 3, size=n)
        scale[:20] = 1e-170
        scale[20:40] = 0.0
        params = {"w": np.zeros(n)}
        state = AdamState.init(params)
        m = np.zeros(n)
        v = np.zeros(n)
        for t in range(1, 7):  # bc2 is 0.001 at step 1 and 0.002 at step 2
            g = rng.normal(size=n) * scale
            params["w"][...] = 0.0  # 0 - step is exact, so p reads back -step
            adam_step(params, {"w": g}, state, lr=0.01)
            step = -params["w"]
            m = m * 0.9 + (1.0 - 0.9) * g
            v = v * 0.999 + (1.0 - 0.999) * (g * g)
            bc1, bc2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            textbook = 0.01 * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
            assert (np.abs(step - textbook) <= bound * np.abs(textbook)).all()
            assert not v[:20].any() and m[:20].all() and step[:20].all()
            assert not step[20:40].any()

    def test_non_finite_gradient_checked_before_any_update(self):
        # The finite "a" comes first, and must not be updated either.
        params = {"a": np.ones((3, 2)), "emb": np.ones((4, 2))}
        state = AdamState.init(params)
        grads = {"a": np.ones((3, 2)), "emb": np.array([[0.0] * 2, [0.5, np.nan], [0.0] * 2,
                                                        [1.0, 1.0]])}
        with pytest.raises(NumericError) as err:
            adam_step(params, grads, state, lr=0.01)
        assert str(err.value) == "non-finite gradient in 'emb' at step 1"
        assert state.step == 0
        for name, p in params.items():
            np.testing.assert_array_equal(p, np.ones_like(p))
            assert not state.m[name].any() and not state.v[name].any()


class TestConfigParsing:
    def test_kv_lines(self):
        text = "# comment\nlearning_rate = 0.001\n\nhidden=32\n"
        assert parse_kv_lines(text) == {"learning_rate": "0.001", "hidden": "32"}

    def test_kv_duplicate_key(self):
        with pytest.raises(UsageError, match="duplicate"):
            parse_kv_lines("a = 1\na = 2")

    def test_kv_missing_equals(self):
        with pytest.raises(UsageError, match="line 1"):
            parse_kv_lines("just words")

    def test_mapping_types(self):
        config = from_kv(
            TrainConfig, {"learning_rate": "0.005", "hidden": "32"}
        )
        assert config.learning_rate == 0.005
        assert config.hidden == 32
        assert config.dropout == 0.2  # untouched default

    def test_mapping_unknown_key(self):
        with pytest.raises(UsageError, match="unknown key"):
            from_kv(TrainConfig, {"learning": "1"})

    def test_mapping_bad_value(self):
        with pytest.raises(UsageError, match="bad value"):
            from_kv(TrainConfig, {"hidden": "many"})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("max_epochs = 2\nseed = 9\n")
        config = load_kv(TrainConfig, path)
        assert (config.max_epochs, config.seed) == (2, 9)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="not found"):
            load_kv(TrainConfig, tmp_path / "none.cfg")

    def test_defaults_are_the_documented_settings(self):
        config = TrainConfig()
        assert config.learning_rate == 3e-4
        assert config.dropout == 0.2
        assert config.hidden == 50
        assert config.batch_size == 16
        assert config.max_epochs == 10
        assert config.max_tokens == 512

    @pytest.mark.parametrize(
        "field,value",
        [
            ("learning_rate", -1.0),
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("dropout", 1.0),
            ("dropout", -0.1),
            ("hidden", 0),
            ("batch_size", 0),
            ("max_epochs", 0),
            ("seed", -1),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(UsageError):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("cls", [TrainConfig, GenConfig, ExperimentManifest])
    def test_every_default_round_trips_through_text(self, cls):
        # Catches a field annotation that from_kv has no converter for.
        required = {"corpus": "data/corpus"} if cls is ExperimentManifest else {}
        default = cls(**required)
        for f in fields(cls):
            value = getattr(default, f.name)
            text = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
            parsed = from_kv(cls, {**required, f.name: text})
            assert repr(getattr(parsed, f.name)) == repr(value), f.name

    def test_file_name_prefixes_validation_errors(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("dropout = 1.0\n")
        with pytest.raises(UsageError, match=r"train\.cfg: dropout must be in \[0, 1\)"):
            load_kv(TrainConfig, path)


def fresh_cases(splits, tag: str) -> list:
    """The training cases with ``tag`` prepended to their facts, so that no
    case another test keeps alive equals one of them."""
    return [replace(c, facts=f"{tag} {c.facts}") for c in splits.train]


class TestDataset:
    def test_build_matches_label_matrix(self, tiny_splits):
        index = ArticleIndex((2, 6, 8))
        ds = Dataset.build(tiny_splits.train, index, max_tokens=16, vocab_buckets=32)
        assert ds.case_ids == ["t-0", "t-1", "t-2", "t-3"]
        assert ds.labels.shape == (4, 3)
        assert len(ds) == 4
        P, N, U = Outcome.POS, Outcome.NEG, Outcome.NULL
        assert ds.labels.tolist() == [[P, N, U], [U, P, U], [U, U, N], [U, U, U]]
        assert all(t.size > 0 for t in ds.tokens)

    def test_build_without_tokens(self, tiny_splits, monkeypatch):
        # A model without embedding tables has max_tokens 0: its datasets
        # hold empty token arrays, and no case is tokenized.
        def refuse(*args):
            raise AssertionError("tokenize called for max_tokens 0")

        monkeypatch.setattr(negprec.training, "tokenize", refuse)
        index = ArticleIndex((2, 6, 8))
        ds = Dataset.build(tiny_splits.train, index, max_tokens=0, vocab_buckets=32)
        assert len(ds.tokens) == 4
        assert all(t.size == 0 and t.dtype == np.int64 for t in ds.tokens)

    def test_each_case_is_tokenized_once(self, tiny_splits, monkeypatch):
        cases = fresh_cases(tiny_splits, "once")
        calls = count_tokenize(monkeypatch)
        index = ArticleIndex((2, 6, 8))
        first = Dataset.build(cases, index, 16, 32)
        second = Dataset.build(cases, index, 16, 32)
        # Equal cases are equal facts, so a copy of a case shares its ids.
        third = Dataset.build([replace(c) for c in cases], index, 16, 32)
        assert sorted(calls) == sorted(c.facts for c in cases)
        for ds in (second, third):
            for a, b in zip(first.tokens, ds.tokens):
                np.testing.assert_array_equal(a, b)

    def test_other_shape_tokenizes_again(self, tiny_splits, monkeypatch):
        cases = fresh_cases(tiny_splits, "shape")
        calls = count_tokenize(monkeypatch)
        index = ArticleIndex((2, 6, 8))
        for max_tokens, vocab_buckets in ((16, 32), (3, 32), (16, 64), (16, 32)):
            ds = Dataset.build(cases, index, max_tokens, vocab_buckets)
            assert [t.tolist() for t in ds.tokens] == [
                tokenize(c.facts, max_tokens, vocab_buckets).tolist() for c in cases
            ]
        assert len(calls) == 3 * len(cases)

    def test_builds_get_their_own_int64_arrays(self, tiny_splits):
        cases = fresh_cases(tiny_splits, "copies")
        index = ArticleIndex((2, 6, 8))
        a = Dataset.build(cases, index, 16, 32)
        b = Dataset.build(cases, index, 16, 32)
        kept = [t.copy() for t in b.tokens]
        for x, y in zip(a.tokens, b.tokens):
            assert x.dtype == y.dtype == np.int64
            assert x.flags.writeable and y.flags.writeable
            assert not np.shares_memory(x, y)
            x += 1
        c = Dataset.build(cases, index, 16, 32)
        for want, y, z in zip(kept, b.tokens, c.tokens):
            np.testing.assert_array_equal(y, want)
            np.testing.assert_array_equal(z, want)

    def test_wide_bucket_ids_survive_storage(self, tiny_splits):
        # Above 65536 buckets an id needs more than 16 bits.
        cases = fresh_cases(tiny_splits, "wide")
        ds = Dataset.build(cases, ArticleIndex((2, 6, 8)), 512, 1 << 20)
        for c, ids in zip(cases, ds.tokens):
            want = tokenize(c.facts, 512, 1 << 20)
            assert ids.dtype == np.int64
            np.testing.assert_array_equal(ids, want)
        assert max(int(ids.max()) for ids in ds.tokens) > 65535

    def test_stored_ids_go_with_their_cases(self, tiny_splits):
        cases = fresh_cases(tiny_splits, "freed")
        Dataset.build(cases, ArticleIndex((2, 6, 8)), 7, 4099)
        stored = negprec.training._TOKEN_IDS[(7, 4099)]
        assert len(stored) == len(cases)
        # 4099 buckets fit in 2 bytes per token.
        assert all(ids.dtype == np.uint16 for ids in stored.values())
        del cases
        gc.collect()
        assert len(stored) == 0

    def test_subset(self, tiny_splits):
        index = ArticleIndex((2, 6, 8))
        ds = Dataset.build(tiny_splits.train, index, 16, 32)
        sub = ds.subset(np.array([2, 0]))
        assert sub.case_ids == ["t-2", "t-0"]
        np.testing.assert_array_equal(sub.labels, ds.labels[[2, 0]])
        assert sub.tokens[1].tolist() == ds.tokens[0].tolist()


class TestTrain:
    def test_deterministic_given_seed(self):
        splits = small_corpus()
        a = train("joint", fast_config(), splits)
        b = train("joint", fast_config(), splits)
        for name in a.model.params:
            np.testing.assert_array_equal(a.model.params[name], b.model.params[name])
        assert [e["val_loss"] for e in a.log] == [e["val_loss"] for e in b.log]

    def test_thread_count_does_not_change_training(self):
        # The README promises byte-identical reruns, whatever the machine's
        # BLAS thread count.
        src = str(Path(negprec.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            run = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=env,
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout.split())
        assert len(digests[0]) == 2
        assert digests[0] == digests[1]

    def test_import_pins_blas_to_one_thread(self):
        # NumPy is imported first, as a caller that set up NumPy before
        # negprec would.
        src = str(Path(negprec.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", _PIN_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        if run.stdout.strip() == "none":
            pytest.skip("NumPy loaded no OpenBLAS")
        assert run.stdout.strip() == "1"

    def test_selects_earliest_minimum_validation_loss(self):
        splits = small_corpus()
        result = train("claim_outcome", fast_config(max_epochs=4), splits)
        losses = [e["val_loss"] for e in result.log]
        assert len(losses) == 4
        assert result.best_val_loss == min(losses)
        assert result.best_epoch == losses.index(min(losses)) + 1
        flags = [e["selected"] for e in result.log]
        assert flags.count(True) >= 1

    def test_restores_best_epoch_weights(self):
        splits = small_corpus()
        config = fast_config(max_epochs=4)
        result = train("simple", config, splits)
        index = filter_articles(splits)
        val = Dataset.build(
            splits.validation, index, config.max_tokens, config.vocab_buckets
        )
        assert result.model.nll(val) == pytest.approx(
            result.best_val_loss, rel=1e-12
        )

    @pytest.mark.parametrize("buckets", [512, 4096])
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_matches_full_table_oracle_bitwise(self, arch, buckets):
        # A 300-word vocabulary: in 512 buckets the training split touches
        # more than a third of each table, in 4096 far less. At this rate
        # validation loss turns up before the last epoch, so an earlier
        # epoch's weights are restored.
        splits = generate_corpus(GenConfig(
            n_articles=2, vocab=300, train_size=40, validation_size=12, test_size=12,
        ))
        config = fast_config(vocab_buckets=buckets, learning_rate=1.0, max_epochs=5)
        result = assert_trains_like_oracle(arch, config, splits)
        assert result.best_epoch < config.max_epochs

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_precomputed_encoder_matches_oracle_bitwise(self, arch):
        splits = small_corpus()
        rng = np.random.default_rng(2)
        cases = splits.train + splits.validation + splits.test
        vectors = PrecomputedEncoder({c.case_id: rng.normal(size=8) for c in cases}, dim=8)
        config = fast_config()
        result = assert_trains_like_oracle(arch, config, splits, vectors)
        assert result.model.vectors is vectors

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_rows_outside_training_keep_initial_bytes(self, arch, tiny_splits):
        # The vocab is the buckets of the training and validation tokens.
        # Rows hashed from validation tokens only never get a gradient;
        # buckets of test tokens only, or of no token at all, have no row.
        config = fast_config(vocab_buckets=4096)

        def rows(cases):
            return np.unique(np.concatenate(
                [tokenize(c.facts, config.max_tokens, config.vocab_buckets) for c in cases]))

        seen_train = rows(tiny_splits.train)
        seen_val = rows(tiny_splits.validation)
        seen_test = rows(tiny_splits.test)
        val_only = np.setdiff1d(seen_val, seen_train)
        test_only = np.setdiff1d(seen_test, np.union1d(seen_train, seen_val))
        nowhere = np.setdiff1d(np.arange(config.vocab_buckets),
                               np.union1d(np.union1d(seen_train, seen_val), seen_test))
        assert len(val_only) and len(test_only) and len(nowhere)
        initial = initial_model(arch, config, tiny_splits)[0].params
        model = train(arch, config, tiny_splits).model
        assert model.vocab.tolist() == np.union1d(seen_train, seen_val).tolist()
        assert not np.isin(np.concatenate([test_only, nowhere]), model.vocab).any()
        val_rows, train_rows = (np.searchsorted(model.vocab, b) for b in (val_only, seen_train))
        for name, emb in model.params.items():
            if name.endswith(".emb"):
                assert emb[val_rows].tobytes() == initial[name][val_only].tobytes()
                assert not np.array_equal(emb[train_rows], initial[name][seen_train])

    def test_training_without_tokens(self, tiny_splits):
        # Training and validation facts that tokenize to nothing leave no
        # bucket to train: the vocab is empty and the tables have no rows,
        # so every test token reads a zero row.
        splits = tiny_splits
        for cases in (splits.train, splits.validation):
            cases[:] = [replace(c, facts="--- !!! ...") for c in cases]
        config = fast_config()
        result = train("claim_outcome", config, splits)
        model = result.model
        assert [e["epoch"] for e in result.log] == [1, 2, 3]
        assert all(math.isfinite(e["val_loss"]) for e in result.log)
        assert model.vocab.size == 0 and model.vocab_buckets == config.vocab_buckets
        for name in ("claim_enc.emb", "outcome_enc.emb"):
            assert model.params[name].shape == (0, config.dim)
        test = Dataset.build(splits.test, model.index, model.max_tokens, model.vocab_buckets)
        assert all(len(ids) for ids in test.tokens)
        blank = replace(test, tokens=[np.empty(0, dtype=np.int64)] * len(test))
        assert np.array_equal(model.outcome_distribution(test), model.outcome_distribution(blank))

    def test_restored_weights_keep_encoder_alias(self):
        # The best epoch's tables, one row per vocab bucket, are the arrays
        # the encoders read: zeroing them pools every case to the zero
        # vector, so every case gets the same prediction.
        splits = small_corpus()
        config = fast_config()
        for arch in ARCHITECTURES:
            model = train(arch, config, splits).model
            tables = [p for name, p in model.params.items() if name.endswith(".emb")]
            assert tables
            test = Dataset.build(splits.test, model.index, model.max_tokens,
                                 model.vocab_buckets)
            # joint returns (cases, K, 3), the others one (cases, K) per head.
            case_axis = 0 if arch == "joint" else 1
            before = np.moveaxis(np.asarray(model.forward(test)), case_axis, 0)
            for emb in tables:
                assert emb.shape == (len(model.vocab), config.dim)
                emb[...] = 0.0
            after = np.moveaxis(np.asarray(model.forward(test)), case_axis, 0)
            assert not (before == before[:1]).all()
            assert (after == after[:1]).all()

    def test_unknown_arch(self):
        with pytest.raises(UsageError, match="unknown architecture"):
            train("transformer", fast_config(), small_corpus())

    def test_empty_train_split(self, tiny_splits):
        tiny_splits.train.clear()
        with pytest.raises(DataError, match="training split"):
            train("joint", fast_config(), tiny_splits)

    def test_empty_validation_split(self, tiny_splits):
        # Given an index, train() does not read the validation claims to
        # pick articles, so the empty split is caught by its own check.
        tiny_splits.validation.clear()
        with pytest.raises(DataError, match="validation split is empty"):
            train("joint", fast_config(), tiny_splits, index=ArticleIndex((2, 6, 8)))


class TestGrid:
    def test_grid_iteration_order_and_size(self):
        grid = GridSpec(learning_rates=(0.1, 0.2), dropouts=(0.0,), hiddens=(2, 3))
        assert list(grid) == [(0.1, 0.0, 2), (0.1, 0.0, 3), (0.2, 0.0, 2), (0.2, 0.0, 3)]
        assert grid.size() == 4

    def test_presets(self):
        assert FULL_GRID.size() == 36
        assert DESK_GRID.learning_rates == (3e-4,)
        assert DESK_GRID.dropouts == (0.2,)
        assert DESK_GRID.hiddens == (50, 100)
        assert GRID_PRESETS == {"full": FULL_GRID, "desk": DESK_GRID}

    def test_picks_lowest_validation_loss(self):
        splits = small_corpus()
        grid = GridSpec(learning_rates=(3e-4,), dropouts=(0.2,), hiddens=(4, 6))
        best, summary = grid_search(
            "joint", splits, grid=grid, base_config=fast_config(max_epochs=2)
        )
        assert len(summary) == 2
        assert all(row["status"] == "ok" for row in summary)
        assert best.best_val_loss == min(row["val_loss"] for row in summary)
        assert best.config.hidden in (4, 6)

    def test_diverged_configurations_recorded_and_skipped(self, monkeypatch):
        import negprec.training as training_mod

        real_train = training_mod.train

        def flaky_train(arch, config, splits, index=None, vectors=None):
            if config.learning_rate > 1.0:
                raise NumericError("boom")
            return real_train(arch, config, splits, index=index, vectors=vectors)

        monkeypatch.setattr(training_mod, "train", flaky_train)
        splits = small_corpus()
        grid = GridSpec(learning_rates=(3e-4, 99.0), dropouts=(0.2,), hiddens=(4,))
        best, summary = grid_search(
            "mtl", splits, grid=grid, base_config=fast_config(max_epochs=1)
        )
        assert [row["status"] for row in summary] == ["ok", "diverged"]
        assert summary[1]["val_loss"] is None
        assert best.config.learning_rate == 3e-4

    @pytest.mark.parametrize("phase", ["training", "validation"])
    def test_non_finite_loss_is_a_diverged_grid_point(self, monkeypatch, phase):
        # A NaN loss of the given phase, at hidden 6 only: train() raises a
        # NumericError there, and grid_search records the point as diverged.
        real = MTLBaseline.loss_and_grads

        def nan_loss(self, batch, dropout=0.0, rng=None, want_grads=True):
            loss, grads = real(self, batch, dropout, rng, want_grads)
            # Training asks for gradients; the validation loss (nll) does not.
            if self.params["pos.out_w"].shape[1] == 6 and want_grads == (phase == "training"):
                loss = math.nan
            return loss, grads

        monkeypatch.setattr(MTLBaseline, "loss_and_grads", nan_loss)
        splits = small_corpus()
        with pytest.raises(NumericError, match=f"mtl: non-finite {phase} loss at epoch 1"):
            train("mtl", fast_config(hidden=6), splits)
        grid = GridSpec(learning_rates=(3e-4,), dropouts=(0.2,), hiddens=(4, 6))
        best, summary = grid_search("mtl", splits, grid=grid,
                                    base_config=fast_config(max_epochs=1))
        assert [row["status"] for row in summary] == ["ok", "diverged"]
        assert best.config.hidden == 4

    def test_all_diverged_is_an_error(self, monkeypatch):
        import negprec.training as training_mod

        def always_diverge(*args, **kwargs):
            raise NumericError("boom")

        monkeypatch.setattr(training_mod, "train", always_diverge)
        grid = GridSpec(learning_rates=(1.0,), dropouts=(0.2,), hiddens=(4,))
        with pytest.raises(NumericError, match="every"):
            grid_search("mtl", small_corpus(), grid=grid,
                        base_config=fast_config(max_epochs=1))
