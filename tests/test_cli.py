"""Command line tests: the full synth -> stats -> train -> eval ->
significance -> run pipeline on a tiny corpus, plus exit-code contracts
(0 ok, 1 usage, 2 data, 3 numeric) and the extract entry point."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from negprec.cli import main
from negprec.corpus import load_corpus
from negprec.errors import DataError, NumericError, UsageError
from negprec.evaluation import read_predictions, read_report_csv

GEN_CFG = """
n_articles = 2
vocab = 40
train_size = 30
validation_size = 8
test_size = 8
seed = 0
"""

TRAIN_CFG = """
learning_rate = 0.01
dropout = 0.0
hidden = 4
batch_size = 8
max_epochs = 2
dim = 8
vocab_buckets = 64
max_tokens = 48
"""


def run_cli(*argv: str) -> int:
    """Run the CLI in-process, swallowing its stdout (fixtures only)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


def assert_exits(capsys, argv: list[str], code: int, message: str) -> None:
    """The CLI ends with ``code`` and a typed error naming ``message``."""
    assert main(argv) == code
    err = capsys.readouterr().err
    prefix = {1: "usage error: ", 2: "data error: "}[code]
    assert prefix in err and message in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Corpus plus two trained checkpoints shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    (root / "gen.cfg").write_text(GEN_CFG, encoding="utf-8")
    (root / "train.cfg").write_text(TRAIN_CFG, encoding="utf-8")
    corpus = root / "corpus"
    assert run_cli("synth", "--out", str(corpus), "--config", str(root / "gen.cfg")) == 0
    for arch in ("joint", "simple"):
        code = run_cli(
            "train",
            "--arch", arch,
            "--corpus", str(corpus),
            "--out", str(root / f"{arch}.npz"),
            "--config", str(root / "train.cfg"),
            "--log", str(root / f"{arch}-log.json"),
        )
        assert code == 0
    return root


class TestEntryPoints:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "negprec" in capsys.readouterr().out

    def test_console_script(self):
        result = subprocess.run(
            [sys.executable, "-m", "negprec", "--version"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "negprec" in result.stdout

    def test_module_runs_from_the_source_tree(self):
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "negprec", "--version"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0
        assert result.stdout == "negprec 0.1.0\n"

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err


class TestSynth:
    def test_writes_corpus_and_reports_shape(self, pipeline, capsys):
        corpus = load_corpus(pipeline / "corpus")
        assert len(corpus.train) == 30
        assert len(corpus.validation) == 8
        assert len(corpus.test) == 8

    def test_seed_override_changes_output(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(GEN_CFG, encoding="utf-8")
        assert main(["synth", "--out", str(tmp_path / "a"), "--config", str(cfg)]) == 0
        assert main(
            ["synth", "--out", str(tmp_path / "b"), "--config", str(cfg), "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "seed 0" in out and "seed 1" in out
        a = (tmp_path / "a" / "train.jsonl").read_bytes()
        b = (tmp_path / "b" / "train.jsonl").read_bytes()
        assert a != b

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "x"), "--config", str(tmp_path / "no.cfg")])
        assert code == 1
        assert "config file not found" in capsys.readouterr().err


    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_bytes(b"seed = 0\n# caf\xe9\n")
        argv = ["synth", "--out", str(tmp_path / "c"), "--config", str(cfg)]
        assert_exits(capsys, argv, 1, "gen.cfg: not UTF-8 text")


class TestStats:
    def test_prints_tables(self, pipeline, capsys):
        assert main(["stats", "--corpus", str(pipeline / "corpus")]) == 0
        out = capsys.readouterr().out
        assert "articles kept (2): 2 3" in out
        assert "train" in out and "validation" in out and "test" in out

    def test_json_output(self, pipeline, tmp_path, capsys):
        target = tmp_path / "stats.json"
        assert main(
            ["stats", "--corpus", str(pipeline / "corpus"), "--json", str(target)]
        ) == 0
        stats = json.loads(target.read_text(encoding="utf-8"))
        assert set(stats) >= {"splits", "per_article"}
        assert stats["splits"]["train"]["cases"] == 30

    def test_non_utf8_split_is_data_error(self, pipeline, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(pipeline / "corpus", corpus)
        with (corpus / "test.jsonl").open("ab") as fh:
            fh.write(b'{"case_id": "\xff"}\n')
        assert_exits(capsys, ["stats", "--corpus", str(corpus)], 2, "test.jsonl: not UTF-8")

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        assert main(["stats", "--corpus", str(tmp_path / "absent")]) == 2
        assert "corpus directory not found" in capsys.readouterr().err


class TestTrain:
    def test_wrote_checkpoint_and_log(self, pipeline):
        assert (pipeline / "joint.npz").is_file()
        log = json.loads((pipeline / "joint-log.json").read_text(encoding="utf-8"))
        assert [entry["epoch"] for entry in log] == [1, 2]
        assert all("val_loss" in entry for entry in log)
        # min keeps the earliest of equal losses, as training does.
        best = min(log, key=lambda entry: entry["val_loss"])
        with np.load(pipeline / "joint.npz", allow_pickle=False) as data:
            meta = json.loads(str(data["_meta"]))
        assert meta["best_epoch"] == best["epoch"]
        assert meta["val_loss"] == best["val_loss"]

    def test_seed_override_lands_in_checkpoint(self, pipeline, tmp_path, capsys):
        out = tmp_path / "seeded.npz"
        code = main([
            "train", "--arch", "simple",
            "--corpus", str(pipeline / "corpus"),
            "--out", str(out),
            "--config", str(pipeline / "train.cfg"),
            "--seed", "5",
        ])
        assert code == 0
        assert "best epoch" in capsys.readouterr().out
        with np.load(out, allow_pickle=False) as data:
            meta = json.loads(str(data["_meta"]))
        assert meta["seed"] == 5

    def test_unknown_arch_is_usage_error(self, pipeline, capsys):
        code = main([
            "train", "--arch", "rnn",
            "--corpus", str(pipeline / "corpus"), "--out", "x.npz",
        ])
        assert code == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_precomputed_needs_vectors_flag(self, pipeline, tmp_path, capsys):
        # --vectors alone selects the encoder; an encoder key is unknown.
        cfg = tmp_path / "pre.cfg"
        cfg.write_text(TRAIN_CFG + "encoder = precomputed\n", encoding="utf-8")
        argv = ["train", "--arch", "simple", "--corpus", str(pipeline / "corpus"),
                "--out", str(tmp_path / "x.npz"), "--config", str(cfg)]
        assert_exits(capsys, argv, 1, "pre.cfg: unknown key 'encoder'")
        assert not (tmp_path / "x.npz").exists()

    @pytest.mark.parametrize("key, value, message", [
        # A model keeps only its trained rows, so the first array sized by
        # the bucket count is the mask of the buckets training reads: 4 EiB,
        # malloc fails at once.
        pytest.param("vocab_buckets", 1 << 62,
                     "a mask over 4611686018427387904 buckets does not fit in memory",
                     id="vocab_buckets-4611686018427387904"),
        # 256 PiB: malloc fails at once
        pytest.param("dim", 1 << 40, "enc.emb of shape", id="dim-1099511627776"),
    ])
    def test_shape_too_large_for_memory_is_usage_error(self, pipeline, tmp_path, key, value,
                                                        message, capsys):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"max_epochs = 1\n{key} = {value}\n", encoding="utf-8")
        argv = ["train", "--arch", "mtl", "--corpus", str(pipeline / "corpus"),
                "--out", str(tmp_path / "x.npz"), "--config", str(cfg)]
        assert_exits(capsys, argv, 1, message)
        assert not (tmp_path / "x.npz").exists()


class TestEval:
    def test_report_and_predictions(self, pipeline, tmp_path, capsys):
        report = tmp_path / "report.csv"
        preds = tmp_path / "preds.jsonl"
        code = main([
            "eval", "--ckpt", str(pipeline / "joint.npz"),
            "--corpus", str(pipeline / "corpus"),
            "--report", str(report), "--preds", str(preds),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("model")
        assert "joint" in out and "random" in out
        rows = read_report_csv(report.read_text(encoding="utf-8"))
        assert [row.model for row in rows] == ["joint", "random"]
        assert rows[0].encoder == "hashed_bow"
        loaded = read_predictions(preds)
        assert loaded.kind == "three_way"
        assert len(loaded.case_ids) == 8
        assert loaded.articles == (2, 3)

    def test_baseline_checkpoint_reports_dashes(self, pipeline, capsys):
        code = main([
            "eval", "--ckpt", str(pipeline / "simple.npz"),
            "--corpus", str(pipeline / "corpus"),
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        simple_row = next(line for line in lines if line.startswith("simple"))
        assert simple_row.rstrip().endswith("-")  # All column is undefined

    def test_article_subset(self, pipeline, tmp_path, capsys):
        report = tmp_path / "subset.csv"
        code = main([
            "eval", "--ckpt", str(pipeline / "joint.npz"),
            "--corpus", str(pipeline / "corpus"),
            "--articles", "2", "--report", str(report),
        ])
        assert code == 0
        rows = read_report_csv(report.read_text(encoding="utf-8"))
        assert all(row.corpus.endswith(":articles=2") for row in rows)

    def test_unknown_article_is_usage_error(self, pipeline, capsys):
        code = main([
            "eval", "--ckpt", str(pipeline / "joint.npz"),
            "--corpus", str(pipeline / "corpus"),
            "--articles", "5",
        ])
        assert code == 1
        assert "not in the checkpoint's index" in capsys.readouterr().err

    @pytest.mark.parametrize("articles", ["2,x", ","])
    def test_bad_article_list_is_usage_error(self, pipeline, articles, capsys):
        code = main([
            "eval", "--ckpt", str(pipeline / "joint.npz"),
            "--corpus", str(pipeline / "corpus"),
            "--articles", articles,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage error:" in err
        assert "Traceback" not in err

    def test_empty_split_is_data_error(self, pipeline, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(pipeline / "corpus", corpus)
        (corpus / "validation.jsonl").write_text("", encoding="utf-8")
        argv = ["eval", "--ckpt", str(pipeline / "joint.npz"), "--corpus", str(corpus),
                "--split", "validation"]
        assert_exits(capsys, argv, 2, "split 'validation' is empty")

    def test_missing_checkpoint_is_data_error(self, pipeline, capsys):
        code = main([
            "eval", "--ckpt", str(pipeline / "absent.npz"),
            "--corpus", str(pipeline / "corpus"),
        ])
        assert code == 2
        assert "checkpoint not found" in capsys.readouterr().err

    def test_incomplete_checkpoint_is_data_error(self, pipeline, tmp_path, capsys):
        with np.load(pipeline / "simple.npz", allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files if name != "pos.hidden_w"}
        ckpt = tmp_path / "incomplete.npz"
        with ckpt.open("wb") as fh:
            np.savez(fh, **arrays)
        code = main(["eval", "--ckpt", str(ckpt), "--corpus", str(pipeline / "corpus")])
        assert code == 2
        assert "missing weights for pos.hidden_w" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["text", "empty", "truncated", "npy"])
    def test_unreadable_checkpoint_is_data_error(self, pipeline, tmp_path, kind, capsys):
        ckpt = tmp_path / "model.npz"
        if kind == "npy":
            with ckpt.open("wb") as fh:
                np.save(fh, np.ones(3))
        else:
            whole = (pipeline / "simple.npz").read_bytes()
            ckpt.write_bytes({"text": b"not a checkpoint\n", "empty": b"",
                              "truncated": whole[: len(whole) // 2]}[kind])
        argv = ["eval", "--ckpt", str(ckpt), "--corpus", str(pipeline / "corpus")]
        assert_exits(capsys, argv, 2, "is not a model checkpoint")

    @pytest.mark.parametrize("kind", ["string", "complex", "nan", "object"])
    def test_bad_weight_values_are_data_error(self, pipeline, tmp_path, kind, capsys):
        with np.load(pipeline / "simple.npz", allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        w = arrays["pos.hidden_w"]
        with_nan = w.copy()
        with_nan.flat[0] = np.nan
        arrays["pos.hidden_w"] = {"string": np.full(w.shape, "x"),
                                  "complex": w.astype(np.complex128), "nan": with_nan,
                                  "object": w.astype(object)}[kind]
        ckpt = tmp_path / "bad.npz"
        with ckpt.open("wb") as fh:
            np.savez(fh, **arrays)
        argv = ["eval", "--ckpt", str(ckpt), "--corpus", str(pipeline / "corpus")]
        assert_exits(capsys, argv, 2, "pos.hidden_w must hold finite real floating-point values")


class TestSignificance:
    @pytest.fixture()
    def prediction_files(self, pipeline, tmp_path):
        paths = {}
        for arch in ("joint", "simple"):
            preds = tmp_path / f"{arch}.jsonl"
            assert run_cli(
                "eval", "--ckpt", str(pipeline / f"{arch}.npz"),
                "--corpus", str(pipeline / "corpus"),
                "--preds", str(preds),
            ) == 0
            paths[arch] = preds
        return paths

    def test_reports_p_value(self, pipeline, prediction_files, capsys):
        code = main([
            "significance", "--corpus", str(pipeline / "corpus"),
            "--a", str(prediction_files["joint"]),
            "--b", str(prediction_files["simple"]),
            "--cls", "neg",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("class neg: p = ")
        assert "exhaustive" in out  # 8 test cases -> full enumeration
        p_value = float(out.split("p = ")[1].split()[0])
        assert 0.0 <= p_value <= 1.0

    def test_mismatched_files_are_data_error(self, pipeline, prediction_files, tmp_path, capsys):
        other = tmp_path / "val.jsonl"
        assert run_cli(
            "eval", "--ckpt", str(pipeline / "joint.npz"),
            "--corpus", str(pipeline / "corpus"),
            "--split", "validation", "--preds", str(other),
        ) == 0
        code = main([
            "significance", "--corpus", str(pipeline / "corpus"),
            "--a", str(prediction_files["joint"]), "--b", str(other),
        ])
        assert code == 2
        assert "different cases or articles" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--seed", "-1", "--seed must be >= 0"),
            ("--resamples", "0", "--resamples must be >= 1"),
            # Above the bound: rejected before any draw, although this
            # fixture's test split is small enough for exhaustive mode.
            ("--resamples", "99999999999999999999", "--resamples must be <= 1048576"),
        ],
        ids=["seed", "resamples", "resamples-above-bound"],
    )
    def test_bad_flag_is_usage_error(
        self, pipeline, prediction_files, flag, value, message, capsys
    ):
        argv = [
            "significance", "--corpus", str(pipeline / "corpus"),
            "--a", str(prediction_files["joint"]), "--b", str(prediction_files["simple"]),
            flag, value,
        ]
        assert_exits(capsys, argv, 1, message)

    def test_case_missing_from_split_is_data_error(
        self, pipeline, prediction_files, capsys
    ):
        # The prediction files cover the test split.
        argv = [
            "significance", "--corpus", str(pipeline / "corpus"), "--split", "validation",
            "--a", str(prediction_files["joint"]), "--b", str(prediction_files["simple"]),
        ]
        assert_exits(capsys, argv, 2, "cases missing from validation: ['synth-test-00000'")

    def test_non_object_prediction_line_is_data_error(
        self, pipeline, prediction_files, tmp_path, capsys
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(prediction_files["simple"].read_bytes() + b"[1, 2]\n")
        argv = [
            "significance", "--corpus", str(pipeline / "corpus"),
            "--a", str(prediction_files["joint"]), "--b", str(bad),
        ]
        assert_exits(capsys, argv, 2, "expected a JSON object")


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A run bundle over a corpus with 24 test cases, enough that its
    permutation tests sample: (manifest, bundle directory)."""
    root = tmp_path_factory.mktemp("bundle")
    (root / "gen.cfg").write_text(GEN_CFG.replace("test_size = 8", "test_size = 24"),
                                  encoding="utf-8")
    assert run_cli("synth", "--out", str(root / "corpus"), "--config", str(root / "gen.cfg")) == 0
    manifest = root / "manifest.cfg"
    manifest.write_text(
        f"corpus = {root / 'corpus'}\narchitectures = simple, joint\nlearning_rates = 0.01\n"
        "dropouts = 0.0\nhiddens = 4\nmax_epochs = 2\ndim = 8\nvocab_buckets = 64\n"
        "max_tokens = 48\nresamples = 200\nrandom_instantiations = 10\n",
        encoding="utf-8",
    )
    assert run_cli("run", "--manifest", str(manifest), "--out", str(root / "out")) == 0
    return manifest, root / "out"


class TestRun:
    def test_full_bundle(self, pipeline, tmp_path, capsys):
        manifest = tmp_path / "manifest.cfg"
        manifest.write_text(
            f"corpus = {pipeline / 'corpus'}\n"
            "architectures = simple, joint\n"
            "seeds = 0\n"
            "learning_rates = 0.01\n"
            "dropouts = 0.0\n"
            "hiddens = 4\n"
            "batch_size = 8\n"
            "max_epochs = 2\n"
            "dim = 8\n"
            "vocab_buckets = 64\n"
            "max_tokens = 48\n"
            "resamples = 100\n"
            "random_instantiations = 10\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "bundle"
        code = main(["run", "--manifest", str(manifest), "--out", str(out_dir)])
        assert code == 0
        message = capsys.readouterr().out
        assert f"experiment bundle written to {out_dir} (2 runs)" in message
        assert (out_dir / "report.csv").is_file()
        assert (out_dir / "significance.csv").is_file()

    def test_rerun_into_a_bundle_is_data_error(self, bundle, capsys):
        # A second run would leave the first one's checkpoints and
        # predictions beside its own; it is refused before any work.
        manifest, out = bundle
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        argv = ["run", "--manifest", str(manifest), "--out", str(out)]
        assert_exits(capsys, argv, 2, "is not empty")
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_empty_out_is_accepted(self, pipeline, tmp_path, capsys):
        manifest = tmp_path / "manifest.cfg"
        manifest.write_text(
            f"corpus = {pipeline / 'corpus'}\narchitectures = joint\nhiddens = 4\n"
            "max_epochs = 1\nlearning_rates = 0.01\ndropouts = 0.0\ndim = 8\n"
            "vocab_buckets = 64\nmax_tokens = 48\nresamples = 10\n",
            encoding="utf-8",
        )
        (tmp_path / "empty").mkdir()
        assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path / "empty")]) == 0
        assert (tmp_path / "empty" / "report.csv").is_file()

    def test_significance_matches_the_bundle(self, bundle, capsys):
        # The CLI and the bundle share one paired test: the same pair,
        # class, seed and draws give the same sampled p-value.
        manifest, out = bundle
        corpus = manifest.parent / "corpus"
        row = next(line.split(",") for line in (out / "significance.csv").read_text().splitlines()
                   if line.startswith("simple,joint,0,neg,"))
        argv = ["significance", "--corpus", str(corpus), "--cls", "neg",
                "--a", str(out / "predictions" / "simple-seed0.jsonl"),
                "--b", str(out / "predictions" / "joint-seed0.jsonl"),
                "--seed", "0", "--resamples", "200"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert "sampled, 200 assignments" in printed
        assert printed.startswith(f"class neg: p = {row[4]} ")

    def test_bad_manifest_is_usage_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.cfg"
        manifest.write_text("architectures = simple\n", encoding="utf-8")
        assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path / "x")]) == 1
        assert "must set corpus" in capsys.readouterr().err

    def test_bad_manifest_writes_nothing(self, pipeline, tmp_path, capsys):
        # The manifest is checked in full before the corpus is read.
        manifest = tmp_path / "manifest.cfg"
        manifest.write_text(
            f"corpus = {pipeline / 'corpus'}\n"
            "architectures = simple, joint\n"
            "hiddens = 4\n"
            "max_epochs = 1\n"
            "resamples = 0\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "bundle"
        assert main(["run", "--manifest", str(manifest), "--out", str(out_dir)]) == 1
        assert "resamples must be >= 1" in capsys.readouterr().err
        assert not out_dir.exists() or not any(out_dir.rglob("*"))

    def test_model_too_large_for_memory_leaves_no_bundle(self, pipeline, tmp_path, capsys):
        # The first table alone needs 2^40 floats per row, past any address
        # space, so numpy refuses it without allocating anything.
        manifest = tmp_path / "manifest.cfg"
        manifest.write_text(
            f"corpus = {pipeline / 'corpus'}\narchitectures = simple\nhiddens = 4\n"
            "max_epochs = 1\ndim = 1099511627776\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "bundle"
        argv = ["run", "--manifest", str(manifest), "--out", str(out_dir)]
        assert_exits(capsys, argv, 1, "does not fit in memory")
        assert not out_dir.exists()

    def test_missing_corpus_leaves_no_bundle(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.cfg"
        manifest.write_text(f"corpus = {tmp_path / 'no-corpus'}\n", encoding="utf-8")
        out_dir = tmp_path / "bundle"
        argv = ["run", "--manifest", str(manifest), "--out", str(out_dir)]
        assert_exits(capsys, argv, 2, "corpus directory not found")
        assert not out_dir.exists()

    def test_non_utf8_manifest_is_usage_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.cfg"
        manifest.write_bytes(b"corpus = caf\xe9\n")
        argv = ["run", "--manifest", str(manifest), "--out", str(tmp_path / "x")]
        assert_exits(capsys, argv, 1, "manifest.cfg: not UTF-8 text")
        assert not (tmp_path / "x").exists()


class TestExtract:
    def test_builds_corpus_from_raw_documents(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        docs = [
            {
                "case_id": "app-1",
                "facts": "facts of app-1",
                "judgment": "Relying on Article 6 of the Convention, the applicant complained.",
                "violated": [6],
                "split": "train",
            },
            {
                "case_id": "app-2",
                "facts": "facts of app-2",
                "judgment": "The applicant alleged a violation of Article 8.",
                "violated": [],
                "split": "validation",
            },
            {"case_id": "app-3", "facts": "facts only, no judgment text"},
        ]
        with (raw / "batch.jsonl").open("w", encoding="utf-8") as fh:
            for doc in docs:
                fh.write(json.dumps(doc) + "\n")
        out = tmp_path / "corpus"
        assert main(["extract", "--raw", str(raw), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "extracted 2 cases (1 skipped)" in stdout
        assert "pattern recall of violated articles: 1.000 (1/1)" in stdout
        corpus = load_corpus(out)
        assert [c.case_id for c in corpus.train] == ["app-1"]
        assert corpus.train[0].claims == frozenset({6})
        assert corpus.train[0].violated == frozenset({6})
        assert [c.case_id for c in corpus.validation] == ["app-2"]
        assert corpus.validation[0].claims == frozenset({8})
        assert corpus.validation[0].violated == frozenset()

    @pytest.mark.parametrize(
        "lines,violations,message",
        [
            (['[1, 2]'], None, "batch.jsonl:1: expected a JSON object"),
            (['{"case_id": "a", "facts": "f", "judgment": "j", "violated": ["x"]}'], None,
             "batch.jsonl:1: violated must be a list of integers"),
            (['{"case_id": "a", "facts": "f", "judgment": "j"}'], "not json",
             "violations.json: malformed JSON"),
            (['{"case_id": "a", "facts": "f", "judgment": "j"}'] * 2, None,
             "batch.jsonl:2: duplicate case_id 'a'"),
            (['{"case_id": "a", "facts": "f", "judgment": "j"}'], "[6]",
             "violations.json must hold a JSON object"),
            (['{"case_id": "", "facts": "f", "judgment": "j"}'], None,
             "batch.jsonl:1: case_id must be a non-empty string"),
            (['{"case_id": 7, "facts": "f", "judgment": "j"}'], None,
             "batch.jsonl:1: case_id must be a non-empty string"),
        ],
        ids=["non-object", "bad-violated", "bad-violations-file", "repeated-case-id",
             "non-object-violations-file", "empty-case-id", "non-string-case-id"],
    )
    def test_bad_input_is_data_error(self, tmp_path, lines, violations, message, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "batch.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["extract", "--raw", str(raw), "--out", str(tmp_path / "corpus")]
        if violations is not None:
            (tmp_path / "violations.json").write_text(violations, encoding="utf-8")
            argv += ["--violations", str(tmp_path / "violations.json")]
        assert_exits(capsys, argv, 2, message)
        assert not (tmp_path / "corpus").exists()

    def test_missing_violations_file_is_data_error(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "batch.jsonl").write_text('{"case_id": "a", "facts": "f", "judgment": "j"}\n')
        argv = ["extract", "--raw", str(raw), "--out", str(tmp_path / "corpus"),
                "--violations", str(tmp_path / "absent.json")]
        assert_exits(capsys, argv, 2, "violations file not found")
        assert not (tmp_path / "corpus").exists()

    def test_non_utf8_pattern_file_is_data_error(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "batch.jsonl").write_text('{"case_id": "a", "facts": "f", "judgment": "j"}\n')
        patterns = tmp_path / "pats.txt"
        patterns.write_bytes(b"# caf\xe9\ninvok\\w*\\s+articles?\\s+(\\d{1,2})\n")
        argv = ["extract", "--raw", str(raw), "--out", str(tmp_path / "c"),
                "--patterns", str(patterns)]
        assert_exits(capsys, argv, 2, "pats.txt: not UTF-8 text")

    def test_empty_raw_dir_is_data_error(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        assert main(["extract", "--raw", str(raw), "--out", str(tmp_path / "c")]) == 2
        assert "no raw" in capsys.readouterr().err


@pytest.fixture(scope="module")
def vectors(pipeline):
    """A 5-wide precomputed vector table covering every case of the corpus."""
    splits = load_corpus(pipeline / "corpus")
    path = pipeline / "vectors.jsonl"
    rng = np.random.default_rng(0)
    with path.open("w", encoding="utf-8") as fh:
        for case in splits.train + splits.validation + splits.test:
            row = {"case_id": case.case_id, "vector": rng.normal(size=5).tolist()}
            fh.write(json.dumps(row) + "\n")
    return path


class TestPrecomputedRoundTrip:
    def test_eval_vectors_on_hashed_checkpoint_is_data_error(self, pipeline, vectors,
                                                             tmp_path, capsys):
        report = tmp_path / "report.csv"
        argv = ["eval", "--ckpt", str(pipeline / "joint.npz"),
                "--corpus", str(pipeline / "corpus"),
                "--vectors", str(vectors), "--report", str(report)]
        assert_exits(capsys, argv, 2, "a hashed_bow checkpoint takes no vector table")
        assert not report.exists()

    def test_train_then_eval_with_vectors(self, pipeline, vectors, tmp_path, capsys):
        # --vectors alone, with no encoder key, selects the precomputed encoder.
        corpus = pipeline / "corpus"
        ckpt = tmp_path / "pre.npz"
        assert run_cli(
            "train", "--arch", "claim_outcome", "--corpus", str(corpus), "--out", str(ckpt),
            "--config", str(pipeline / "train.cfg"), "--vectors", str(vectors),
        ) == 0
        with np.load(ckpt, allow_pickle=False) as data:
            meta = json.loads(str(data["_meta"]))
        # The vector table's width, not the config's dim = 8, and no token limits.
        assert meta["encoder_kind"] == "precomputed"
        assert meta["dim"] == 5
        assert meta["max_tokens"] == meta["vocab_buckets"] == 0
        report = tmp_path / "report.csv"
        assert run_cli(
            "eval", "--ckpt", str(ckpt), "--corpus", str(corpus),
            "--vectors", str(vectors), "--report", str(report),
        ) == 0
        rows = read_report_csv(report.read_text(encoding="utf-8"))
        assert [(row.model, row.encoder) for row in rows][0] == ("claim_outcome", "precomputed")
        argv = ["eval", "--ckpt", str(ckpt), "--corpus", str(corpus)]
        assert_exits(capsys, argv, 2, "precomputed checkpoint needs a vector table")

    def test_zero_width_vector_table_is_data_error(self, pipeline, tmp_path, capsys):
        # An empty vector would train a zero-width model; it is bad data.
        splits = load_corpus(pipeline / "corpus")
        table = tmp_path / "v0.jsonl"
        table.write_text("".join(
            json.dumps({"case_id": case.case_id, "vector": []}) + "\n"
            for case in splits.train + splits.validation + splits.test
        ), encoding="utf-8")
        ckpt = tmp_path / "zero.npz"
        argv = ["train", "--arch", "joint", "--corpus", str(pipeline / "corpus"),
                "--out", str(ckpt), "--config", str(pipeline / "train.cfg"),
                "--vectors", str(table)]
        assert_exits(capsys, argv, 2, "v0.jsonl:1: vector must be a finite non-empty 1-d list")
        assert not ckpt.exists()


class TestOutputPaths:
    @pytest.mark.parametrize("command", ["stats", "eval", "train"])
    def test_missing_parent_directory_is_created(self, pipeline, tmp_path, command):
        target = tmp_path / "missing" / "deeper" / "out"
        corpus = str(pipeline / "corpus")
        argv = {
            "stats": ["stats", "--corpus", corpus, "--json", str(target)],
            "eval": ["eval", "--ckpt", str(pipeline / "joint.npz"), "--corpus", corpus,
                     "--report", str(target)],
            "train": ["train", "--arch", "mtl", "--corpus", corpus,
                      "--config", str(pipeline / "train.cfg"),
                      "--out", str(tmp_path / "mtl.npz"), "--log", str(target)],
        }[command]
        assert main(argv) == 0
        assert target.is_file()

    @pytest.mark.parametrize("command", ["train", "run"])
    def test_unwritable_output_is_data_error(self, pipeline, tmp_path, command, capsys):
        corpus = pipeline / "corpus"
        if command == "train":
            target = tmp_path / "a-directory"
            target.mkdir()
            argv = ["train", "--arch", "joint", "--corpus", str(corpus),
                    "--config", str(pipeline / "train.cfg"), "--out", str(target)]
        else:
            target = tmp_path / "a-file"
            target.write_text("", encoding="utf-8")
            manifest = tmp_path / "manifest.cfg"
            manifest.write_text(
                f"corpus = {corpus}\narchitectures = joint\nhiddens = 4\nmax_epochs = 1\n"
                "learning_rates = 0.01\ndropouts = 0.0\n",
                encoding="utf-8",
            )
            argv = ["run", "--manifest", str(manifest), "--out", str(target)]
        assert_exits(capsys, argv, 2, str(target))


class TestNumericExitCode:
    @pytest.mark.parametrize(
        "kind,code,prefix",
        [(UsageError, 1, "usage error"), (DataError, 2, "data error"),
         (NumericError, 3, "numeric error")],
        ids=["usage", "data", "numeric"],
    )
    def test_error_kind_exits_with_its_code(self, monkeypatch, capsys, kind, code, prefix):
        import negprec.cli as cli

        def explode(args):
            raise kind("synthetic failure")

        monkeypatch.setattr(cli, "cmd_stats", explode)
        assert main(["stats", "--corpus", "anywhere"]) == code
        assert f"{prefix}: synthetic failure" in capsys.readouterr().err
