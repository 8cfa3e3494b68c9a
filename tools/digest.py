"""Bit-identity harness: run every negprec command on small synthetic inputs
and print a sorted JSON of {relative path: sha256} over everything written,
each command's stdout included.

    python3 tools/digest.py                  # digests of this tree
    python3 tools/digest.py --against REV    # compare this tree with REV

The commands run through negprec.cli.main in one child process whose
PYTHONPATH is the tree's src. With --against, the same commands also run on
REV, checked out in a temporary git worktree that is removed afterwards;
each path that differs or is missing on one side is printed, and the exit
status is 1 on any difference. Bytes can depend on the NumPy version and on
the CPU, so compare two trees on one machine rather than against stored
digests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Corpus A: 4 articles, 120/30/30 cases, so significance draws resamples.
# Corpus B: 12 test cases, so significance enumerates every assignment.
GEN_A = "n_articles = 4\ntrain_size = 120\nvalidation_size = 30\ntest_size = 30\nseed = 3\n"
GEN_B = "n_articles = 4\ntrain_size = 60\nvalidation_size = 12\ntest_size = 12\nseed = 4\n"
TRAIN = ("dim = 8\nhidden = 5\nvocab_buckets = 512\ndropout = 0.2\nmax_epochs = 3\n"
         "learning_rate = 0.05\n")
MANIFEST = ("corpus = a\nseeds = 0, 1\nlearning_rates = 0.05\ndropouts = 0.2\nhiddens = 5\n"
            "max_epochs = 3\ndim = 8\nvocab_buckets = 512\nresamples = 500\n"
            "random_instantiations = 20\n")
ARCHITECTURES = ("simple", "mtl", "joint", "claim_outcome")
RAW_DOCS = [
    {"case_id": "a", "facts": "f a", "judgment": "a violation of Article 6 and Article 8",
     "split": "train"},
    {"case_id": "b", "facts": "f b", "judgment": "relying on Article 6 of the Convention",
     "split": "validation"},
    {"case_id": "c", "facts": "f c", "judgment": "complained under Articles 6 and 13",
     "split": "test"},
    {"case_id": "d", "facts": "f d", "split": "train"},
]
# Matches only "complained under Article N", so extract --patterns keeps
# fewer claims than the default set.
PATTERNS = "# complaints only\n" + r"complain\w*\s+under\s+articles?\s+(\d{1,2})\b" + "\n"


def write_inputs(work: Path) -> None:
    """The files the commands read that no command writes."""
    (work / "gen_a.cfg").write_text(GEN_A, encoding="utf-8")
    (work / "gen_b.cfg").write_text(GEN_B, encoding="utf-8")
    (work / "train.cfg").write_text(TRAIN, encoding="utf-8")
    (work / "run.cfg").write_text(MANIFEST, encoding="utf-8")
    (work / "run_vectors.cfg").write_text(MANIFEST + "vectors = vectors.jsonl\n",
                                          encoding="utf-8")
    (work / "raw").mkdir()
    (work / "raw" / "docs.jsonl").write_text(
        "".join(json.dumps(doc) + "\n" for doc in RAW_DOCS), encoding="utf-8")
    (work / "violations.json").write_text('{"a": [8], "c": [6]}\n', encoding="utf-8")
    (work / "patterns.txt").write_text(PATTERNS, encoding="utf-8")


def write_vectors(work: Path) -> None:
    """A 6-wide vector table for every case of corpus A."""
    import numpy as np

    from negprec.corpus import load_corpus

    splits = load_corpus(work / "a")
    rng = np.random.default_rng(0)
    with (work / "vectors.jsonl").open("w", encoding="utf-8") as fh:
        for case in splits.train + splits.validation + splits.test:
            fh.write(json.dumps({"case_id": case.case_id,
                                 "vector": rng.normal(size=6).tolist()}) + "\n")


def steps(work: Path):
    """(name, argv) for each command, in order; a step may read what an
    earlier one wrote, so this is consumed as the commands run."""
    yield "synth-a", ["synth", "--out", "a", "--config", "gen_a.cfg"]
    yield "synth-b", ["synth", "--out", "b", "--config", "gen_b.cfg"]
    yield "synth-a-seed", ["synth", "--out", "a_seed", "--config", "gen_a.cfg", "--seed", "5"]
    yield "stats-a", ["stats", "--corpus", "a", "--json", "stats/a.json"]
    yield "stats-b", ["stats", "--corpus", "b", "--json", "stats/b.json"]
    write_vectors(work)
    articles = json.loads((work / "stats" / "a.json").read_text(encoding="utf-8"))["articles"]
    some = ",".join(str(a) for a in articles[:2])
    for arch in ARCHITECTURES:
        for tag, extra in ((arch, []), (f"{arch}-vec", ["--vectors", "vectors.jsonl"])):
            yield f"train-{tag}", ["train", "--arch", arch, "--corpus", "a", "--config",
                                   "train.cfg", "--out", f"ckpt/{tag}.npz",
                                   "--log", f"logs/{tag}.json", *extra]
            ev = ["eval", "--ckpt", f"ckpt/{tag}.npz", "--corpus", "a", *extra]
            yield f"eval-{tag}", [*ev, "--report", f"reports/{tag}.csv",
                                  "--preds", f"preds/{tag}.jsonl"]
            yield f"eval-{tag}-articles", [*ev, "--articles", some,
                                           "--report", f"reports/{tag}-articles.csv"]
    yield "train-simple-seed", ["train", "--arch", "simple", "--corpus", "a", "--config",
                                "train.cfg", "--seed", "2", "--out", "ckpt/simple-seed.npz"]
    for arch in ("simple", "claim_outcome"):
        yield f"eval-{arch}-validation", ["eval", "--ckpt", f"ckpt/{arch}.npz", "--corpus", "a",
                                          "--split", "validation",
                                          "--preds", f"preds/{arch}-validation.jsonl"]
    for arch in ("simple", "claim_outcome"):
        yield f"train-b-{arch}", ["train", "--arch", arch, "--corpus", "b", "--config",
                                  "train.cfg", "--out", f"ckpt/b-{arch}.npz"]
        yield f"eval-b-{arch}", ["eval", "--ckpt", f"ckpt/b-{arch}.npz", "--corpus", "b",
                                 "--preds", f"preds/b-{arch}.jsonl"]
    for cls in ("pos", "neg"):
        yield f"significance-sampled-{cls}", [
            "significance", "--corpus", "a", "--a", "preds/simple.jsonl",
            "--b", "preds/claim_outcome.jsonl", "--cls", cls, "--resamples", "2000"]
        yield f"significance-exhaustive-{cls}", [
            "significance", "--corpus", "b", "--a", "preds/b-simple.jsonl",
            "--b", "preds/b-claim_outcome.jsonl", "--cls", cls]
    yield "significance-validation", [
        "significance", "--corpus", "a", "--split", "validation", "--a",
        "preds/simple-validation.jsonl", "--b", "preds/claim_outcome-validation.jsonl",
        "--resamples", "2000", "--seed", "3"]
    yield "extract", ["extract", "--raw", "raw", "--out", "extracted",
                      "--violations", "violations.json"]
    # Index (6,): the training case claims 8 and the test case 13, both outside it.
    yield "stats-extracted", ["stats", "--corpus", "extracted", "--json", "stats/extracted.json"]
    yield "extract-patterns", ["extract", "--raw", "raw", "--out", "extracted_patterns",
                               "--patterns", "patterns.txt"]
    yield "run", ["run", "--manifest", "run.cfg", "--out", "bundle"]
    # A reloaded run checkpoint predicts what the run wrote.
    yield "eval-bundle-claim_outcome-seed0", [
        "eval", "--ckpt", "bundle/checkpoints/claim_outcome-seed0.npz", "--corpus", "a",
        "--preds", "preds/bundle-claim_outcome-seed0.jsonl"]
    yield "run-vectors", ["run", "--manifest", "run_vectors.cfg", "--out", "bundle_vectors"]


def run_steps(work: Path) -> None:
    """Child side: run every step in work, each one's stdout to stdout/."""
    import negprec
    from negprec.cli import main

    if Path(negprec.__file__).resolve().parents[1] != Path(os.environ["PYTHONPATH"]).resolve():
        sys.exit(f"negprec imported from {negprec.__file__}, not {os.environ['PYTHONPATH']}")
    os.chdir(work)
    write_inputs(work)
    (work / "stdout").mkdir()
    for name, argv in steps(work):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != 0:
            sys.exit(f"{name}: negprec {' '.join(argv)} exited {code}")
        (work / "stdout" / f"{name}.txt").write_text(buf.getvalue(), encoding="utf-8")


def digests(work: Path) -> dict[str, str]:
    return {p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.rglob("*")) if p.is_file()}


def build(src: Path) -> dict[str, str]:
    """Run every step against the package in src; return its digests."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory(prefix="negprec-digest-") as tmp:
        work = Path(tmp)
        child = subprocess.run([sys.executable, __file__, "--child", str(work)], env=env,
                               capture_output=True, text=True)
        if child.returncode != 0:
            raise RuntimeError(f"build from {src} failed:\n{child.stderr[-4000:]}")
        return digests(work)


def build_at(rev: str) -> dict[str, str]:
    """build() on rev, checked out in a temporary git worktree."""
    with tempfile.TemporaryDirectory(prefix="negprec-digest-rev-") as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), rev], check=True)
        try:
            return build(tree / "src")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(tree)], check=True)


def compare(here: dict[str, str], there: dict[str, str], rev: str) -> list[str]:
    lines = []
    for path in sorted(here.keys() | there.keys()):
        if path not in there:
            lines.append(f"missing at {rev}: {path}")
        elif path not in here:
            lines.append(f"missing here: {path}")
        elif here[path] != there[path]:
            lines.append(f"differs: {path}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="compare with this git revision instead of printing digests")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        run_steps(Path(args.child))
        return 0
    here = build(ROOT / "src")
    if args.against is None:
        print(json.dumps(here, indent=2, sort_keys=True))
        return 0
    lines = compare(here, build_at(args.against), args.against)
    for line in lines:
        print(line)
    print(f"{len(here)} paths here, {len(lines)} differing or missing against {args.against}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
