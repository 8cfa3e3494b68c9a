"""tools/digest.py, the bit-identity harness: two builds of one tree agree."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_digest():
    spec = importlib.util.spec_from_file_location("digest", ROOT / "tools" / "digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_builds_of_one_tree_agree():
    digest = load_digest()
    first = digest.build(ROOT / "src")
    assert digest.build(ROOT / "src") == first
    assert digest.compare(first, dict(first), "REV") == []
    commands = {path[len("stdout/"):].split("-")[0].removesuffix(".txt")
                for path in first if path.startswith("stdout/")}
    assert commands == {"synth", "stats", "train", "eval", "significance", "extract", "run"}
    for path in ("bundle/report.csv", "bundle_vectors/report.csv", "extracted/test.jsonl",
                 "reports/joint-vec-articles.csv", "logs/claim_outcome.json",
                 "stdout/significance-exhaustive-neg.txt", "stats/b.json", "stats/extracted.json",
                 "stdout/significance-validation.txt", "preds/simple-validation.jsonl"):
        assert path in first
    # A reloaded run checkpoint predicts what the run wrote.
    assert (first["preds/bundle-claim_outcome-seed0.jsonl"]
            == first["bundle/predictions/claim_outcome-seed0.jsonl"])
    # The pattern file drops claims the default patterns find.
    assert first["extracted_patterns/validation.jsonl"] != first["extracted/validation.jsonl"]
    changed = {**first, "bundle/report.csv": "0" * 64}
    del changed["stats/b.json"]
    assert digest.compare(first, changed, "REV") == [
        "differs: bundle/report.csv", "missing at REV: stats/b.json"]
