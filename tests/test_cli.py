"""Command line tests: the full synth -> stats -> train -> eval ->
significance -> run pipeline on a tiny corpus, plus exit-code contracts
(0 ok, 1 usage, 2 data, 3 numeric) and the extract entry point."""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from negprec.cli import main
from negprec.corpus import load_corpus
from negprec.errors import NumericError
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

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        assert main(["stats", "--corpus", str(tmp_path / "absent")]) == 2
        assert "corpus directory not found" in capsys.readouterr().err


class TestTrain:
    def test_wrote_checkpoint_and_log(self, pipeline):
        assert (pipeline / "joint.npz").is_file()
        log = json.loads((pipeline / "joint-log.json").read_text(encoding="utf-8"))
        assert [entry["epoch"] for entry in log] == [1, 2]
        assert all("val_loss" in entry for entry in log)

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
        cfg = tmp_path / "pre.cfg"
        cfg.write_text(TRAIN_CFG + "encoder = precomputed\n", encoding="utf-8")
        code = main([
            "train", "--arch", "simple",
            "--corpus", str(pipeline / "corpus"),
            "--out", str(tmp_path / "x.npz"),
            "--config", str(cfg),
        ])
        assert code == 1
        assert "--vectors" in capsys.readouterr().err


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

    def test_empty_raw_dir_is_data_error(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        assert main(["extract", "--raw", str(raw), "--out", str(tmp_path / "c")]) == 2
        assert "no raw" in capsys.readouterr().err


class TestNumericExitCode:
    def test_numeric_errors_exit_three(self, monkeypatch, capsys):
        import negprec.cli as cli

        def explode(args):
            raise NumericError("synthetic failure")

        monkeypatch.setattr(cli, "cmd_stats", explode)
        assert main(["stats", "--corpus", "anywhere"]) == 3
        assert "numeric error: synthetic failure" in capsys.readouterr().err
