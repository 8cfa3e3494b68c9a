"""Manifest-driven experiment tests: manifest parsing, grid resolution,
prediction kind routing, and an end-to-end bundle run checked for file
outputs, internal consistency, and byte-level rerun determinism."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import count_tokenize
from negprec.corpus import filter_articles, load_corpus, save_corpus
from negprec.encoder import load_vector_table
from negprec.errors import UsageError
from negprec.evaluation import read_predictions, read_report_csv
from negprec.experiment import (
    ExperimentManifest,
    parse_manifest,
    predict_model,
    run_experiment,
)
from negprec.models import ARCHITECTURES, build_model, load_checkpoint
from negprec.synth import GenConfig, generate_corpus
from negprec.training import GRID_PRESETS, Dataset, TrainConfig

TINY_GEN = GenConfig(
    n_articles=2,
    vocab=40,
    train_size=24,
    validation_size=8,
    test_size=8,
    seed=0,
)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    save_corpus(generate_corpus(TINY_GEN), path)
    return path


def manifest_text(corpus_dir) -> str:
    return (
        f"corpus = {corpus_dir}\n"
        "corpus_name = tiny\n"
        "architectures = simple, mtl, joint, claim_outcome\n"
        "seeds = 0\n"
        "grid = desk\n"
        "learning_rates = 0.01\n"
        "dropouts = 0.0\n"
        "hiddens = 4\n"
        "batch_size = 8\n"
        "max_epochs = 2\n"
        "dim = 8\n"
        "vocab_buckets = 64\n"
        "max_tokens = 48\n"
        "resamples = 200\n"
        "random_instantiations = 20\n"
    )


@pytest.fixture(scope="module")
def bundle(corpus_dir, tmp_path_factory):
    """One full experiment run shared by the assertion tests."""
    out = tmp_path_factory.mktemp("bundle")
    text = manifest_text(corpus_dir)
    manifest_path = out / "manifest.cfg"
    manifest_path.write_text(text, encoding="utf-8")
    manifest = parse_manifest(manifest_path)
    run_log = run_experiment(manifest, out / "run", manifest_text=text)
    return manifest, text, out / "run", run_log


class TestParseManifest:
    def test_round_trips_every_field(self, corpus_dir, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text(manifest_text(corpus_dir), encoding="utf-8")
        m = parse_manifest(path)
        assert m.corpus == str(corpus_dir)
        assert m.corpus_name == "tiny"
        assert m.architectures == ("simple", "mtl", "joint", "claim_outcome")
        assert m.seeds == (0,)
        assert m.grid == "desk"
        assert m.learning_rates == (0.01,)
        assert m.dropouts == (0.0,)
        assert m.hiddens == (4,)
        assert (m.batch_size, m.max_epochs, m.dim) == (8, 2, 8)
        assert (m.vocab_buckets, m.max_tokens) == (64, 48)
        assert (m.resamples, m.random_instantiations) == (200, 20)

    def test_defaults_when_only_corpus_given(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("corpus = data/corpus\n", encoding="utf-8")
        m = parse_manifest(path)
        assert m.architectures == ARCHITECTURES
        assert m.seeds == (0,)
        assert m.grid == "desk"
        assert m.vectors == ""
        assert m.max_epochs == 10
        assert m.batch_size == 16

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="manifest not found"):
            parse_manifest(tmp_path / "absent.cfg")

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("corpus = x\nflavour = mint\n", encoding="utf-8")
        with pytest.raises(UsageError, match="unknown manifest key 'flavour'"):
            parse_manifest(path)

    def test_corpus_required(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("seeds = 0\n", encoding="utf-8")
        with pytest.raises(UsageError, match="must set corpus"):
            parse_manifest(path)

    def test_unknown_architecture(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("corpus = x\narchitectures = simple, rnn\n", encoding="utf-8")
        with pytest.raises(UsageError, match="unknown architecture 'rnn'"):
            parse_manifest(path)

    def test_empty_seeds(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("corpus = x\nseeds =\n", encoding="utf-8")
        with pytest.raises(UsageError, match="seeds must not be empty"):
            parse_manifest(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("corpus = x\nseeds = zero\n", encoding="utf-8")
        with pytest.raises(UsageError, match="bad value for 'seeds'"):
            parse_manifest(path)

    @pytest.mark.parametrize(
        "line,message",
        [
            ("dropouts = 0.2, 1.5", "dropout must be in"),
            ("learning_rates = 0.01, -1", "learning_rate must be"),
            ("batch_size = 0", "batch_size must be >= 1"),
            ("encoder = precomputed", "unknown manifest key 'encoder'"),
            ("grid = huge", "unknown grid preset 'huge'"),
            ("resamples = 0", "resamples must be >= 1"),
            ("random_instantiations = 0", "random_instantiations must be >= 1"),
            ("resamples = 1048577", "resamples must be <= 1048576"),
            ("resamples = 99999999999999999999", "resamples must be <= 1048576"),
            ("random_instantiations = 1048577", "random_instantiations must be <= 1048576"),
            ("architectures = simple, simple", "architectures must not repeat"),
            ("seeds = 0, 0", "seeds must not repeat"),
            ("seeds = 0, -1", "seed must be >= 0"),
            ("architectures =", "architectures must not be empty"),
        ],
    )
    def test_rejects_fault(self, tmp_path, line, message):
        path = tmp_path / "m.cfg"
        path.write_text(f"corpus = x\n{line}\n", encoding="utf-8")
        with pytest.raises(UsageError, match=f"^m.cfg: {message}"):
            parse_manifest(path)


class TestGridResolution:
    def test_preset_used_when_no_overrides(self):
        m = ExperimentManifest(corpus="x", grid="desk")
        spec = m.grid_spec()
        preset = GRID_PRESETS["desk"]
        assert spec.learning_rates == preset.learning_rates
        assert spec.dropouts == preset.dropouts
        assert spec.hiddens == preset.hiddens

    def test_overrides_replace_preset_axes(self):
        m = ExperimentManifest(
            corpus="x", grid="full", learning_rates=(0.5,), hiddens=(7,)
        )
        spec = m.grid_spec()
        assert spec.learning_rates == (0.5,)
        assert spec.hiddens == (7,)
        assert spec.dropouts == GRID_PRESETS["full"].dropouts

    def test_unknown_preset(self):
        with pytest.raises(UsageError, match="unknown grid preset 'huge'"):
            ExperimentManifest(corpus="x", grid="huge").grid_spec()

    def test_base_config_copies_settings(self):
        m = ExperimentManifest(
            corpus="x", batch_size=4, max_epochs=3, dim=16,
            vocab_buckets=128, max_tokens=32,
        )
        config = m.base_config(seed=9)
        assert isinstance(config, TrainConfig)
        assert config.seed == 9
        assert config.batch_size == 4
        assert config.max_epochs == 3
        assert config.dim == 16
        assert config.vocab_buckets == 128
        assert config.max_tokens == 32


class TestPredictModel:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_prediction_kind_matches_architecture(self, arch):
        splits = generate_corpus(TINY_GEN)
        index = filter_articles(splits)
        rng = np.random.default_rng(0)
        model = build_model(
            arch, index, rng, dim=8, hidden=4, vocab_buckets=64, max_tokens=48
        )
        dataset = Dataset.build(splits.test, index, 48, 64)
        preds = predict_model(model, dataset, index.articles)
        if arch in ("joint", "claim_outcome"):
            assert preds.kind == "three_way"
            assert preds.labels.shape == (len(splits.test), len(index))
        else:
            assert preds.kind == "baseline"
            assert preds.pos.dtype == bool and preds.neg.dtype == bool
        assert preds.case_ids == [case.case_id for case in splits.test]


class TestRunExperiment:
    def test_bundle_files_exist(self, bundle):
        _, _, run_dir, _ = bundle
        for name in ("report.csv", "report.txt", "significance.csv", "run_log.json"):
            assert (run_dir / name).is_file()
        for arch in ARCHITECTURES:
            assert (run_dir / "checkpoints" / f"{arch}-seed0.npz").is_file()
            assert (run_dir / "predictions" / f"{arch}-seed0.jsonl").is_file()

    def test_report_rows(self, bundle):
        _, _, run_dir, _ = bundle
        rows = read_report_csv((run_dir / "report.csv").read_text(encoding="utf-8"))
        assert [row.model for row in rows] == [
            "simple-seed0", "mtl-seed0", "joint-seed0", "claim_outcome-seed0", "random",
        ]
        for row in rows:
            assert row.corpus == "tiny"
            if row.model in ("simple-seed0", "mtl-seed0"):
                assert row.scores["null"] is None and row.scores["all"] is None
            else:
                assert row.scores["null"] is not None and row.scores["all"] is not None
            # percent scale
            for value in row.scores.values():
                if value is not None:
                    assert 0.0 <= value <= 100.0

    def test_significance_rows(self, bundle):
        _, _, run_dir, _ = bundle
        lines = (run_dir / "significance.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "model_a,model_b,seed,class,p_value,observed"
        body = [line.split(",") for line in lines[1:]]
        # 6 architecture pairs; only the all-three-way pair adds a null row.
        assert len(body) == 13
        null_rows = [row for row in body if row[3] == "null"]
        assert len(null_rows) == 1
        assert null_rows[0][0] == "joint" and null_rows[0][1] == "claim_outcome"
        for row in body:
            assert 0.0 <= float(row[4]) <= 1.0

    def test_run_log_contents(self, bundle, corpus_dir):
        manifest, text, run_dir, run_log = bundle
        on_disk = json.loads((run_dir / "run_log.json").read_text(encoding="utf-8"))
        assert on_disk["manifest_hash"] == hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert on_disk["manifest"]["corpus"] == str(corpus_dir)
        assert on_disk["articles"] == [2, 3]
        assert len(on_disk["runs"]) == 4
        for record in on_disk["runs"]:
            assert set(record) >= {"model", "grid", "selected", "test_scores"}
            assert record["selected"]["learning_rate"] == 0.01
            assert record["selected"]["hidden"] == 4
        assert set(on_disk["random_baseline"]) == {"pos", "neg", "null"}
        assert run_log["manifest_hash"] == on_disk["manifest_hash"]

    def test_checkpoints_reload(self, bundle):
        _, _, run_dir, _ = bundle
        path = run_dir / "checkpoints" / "joint-seed0.npz"
        model = load_checkpoint(path)
        assert model.arch == "joint"
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["_meta"]))
        assert meta["seed"] == 0
        assert meta["learning_rate"] == 0.01
        # Each checkpoint records the epoch and loss its run log selected.
        run_log = json.loads((run_dir / "run_log.json").read_text(encoding="utf-8"))
        for record in run_log["runs"]:
            path = run_dir / "checkpoints" / f"{record['model']}.npz"
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["_meta"]))
            selected = record["selected"]
            assert meta["best_epoch"] == selected["best_epoch"]
            assert meta["val_loss"] == selected["val_loss"]

    def test_prediction_files_reload(self, bundle):
        _, _, run_dir, _ = bundle
        simple = read_predictions(run_dir / "predictions" / "simple-seed0.jsonl")
        joint = read_predictions(run_dir / "predictions" / "joint-seed0.jsonl")
        assert simple.kind == "baseline"
        assert joint.kind == "three_way"
        assert simple.articles == (2, 3)
        assert len(simple.case_ids) == 8

    def test_vectors_alone_select_precomputed(self, corpus_dir, tmp_path):
        splits = load_corpus(corpus_dir)
        rng = np.random.default_rng(0)
        vectors = tmp_path / "v.jsonl"
        vectors.write_text("".join(
            json.dumps({"case_id": c.case_id, "vector": rng.normal(size=3).tolist()}) + "\n"
            for c in splits.train + splits.validation + splits.test
        ), encoding="utf-8")
        path = tmp_path / "m.cfg"
        path.write_text(
            f"corpus = {corpus_dir}\nvectors = {vectors}\narchitectures = mtl, joint\n"
            "learning_rates = 0.01\ndropouts = 0.0\nhiddens = 4\nmax_epochs = 1\n"
            "resamples = 20\nrandom_instantiations = 5\n",
            encoding="utf-8",
        )
        run_experiment(parse_manifest(path), tmp_path / "run")
        rows = read_report_csv((tmp_path / "run" / "report.csv").read_text(encoding="utf-8"))
        assert [(row.model, row.encoder) for row in rows] == [
            ("mtl-seed0", "precomputed"), ("joint-seed0", "precomputed"), ("random", "-"),
        ]
        model = load_checkpoint(tmp_path / "run" / "checkpoints" / "joint-seed0.npz",
                                vectors=load_vector_table(vectors))
        assert model.params["joint.hidden_w"].shape[2] == 3

    def test_run_tokenizes_each_case_once(self, tmp_path, monkeypatch):
        # Every model of a run shares max_tokens and vocab_buckets, so its
        # four train() calls and two test-split builds tokenize each case
        # once. A corpus seed used nowhere else keeps other tests' cases out.
        corpus = tmp_path / "corpus"
        save_corpus(generate_corpus(replace(TINY_GEN, seed=11)), corpus)
        calls = count_tokenize(monkeypatch)
        path = tmp_path / "m.cfg"
        path.write_text(
            f"corpus = {corpus}\narchitectures = simple, joint\nlearning_rates = 0.01\n"
            "dropouts = 0.0\nhiddens = 4, 6\nmax_epochs = 1\ndim = 8\nvocab_buckets = 64\n"
            "max_tokens = 48\nresamples = 20\nrandom_instantiations = 5\n",
            encoding="utf-8",
        )
        run_experiment(parse_manifest(path), tmp_path / "run")
        splits = load_corpus(corpus)
        cases = splits.train + splits.validation + splits.test
        assert Counter(calls) == Counter(c.facts for c in cases)

    def test_rerun_is_byte_identical(self, bundle, corpus_dir, tmp_path):
        manifest, text, run_dir, _ = bundle
        run_experiment(manifest, tmp_path / "again", manifest_text=text)
        for name in ("report.csv", "report.txt", "significance.csv", "run_log.json"):
            assert (tmp_path / "again" / name).read_bytes() == (
                run_dir / name
            ).read_bytes()
