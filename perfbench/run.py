"""negprec benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload train-4k --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src. glibc's
malloc thresholds are pinned first (see pin_allocator). Set-up (corpus
generation, and for run-desk writing it to disk) runs four times before
the passes and four times after them; the median of the eight is
`setup_s`. An untimed warm-up on a small slice follows the first set-up
(see workloads.warm_up). Then whole passes run while the next one is
expected to end within --seconds (at least one pass). --trace 0 reports
the end-to-end metrics; --trace 1 alternates untraced and traced passes
(untraced first) and reports the per-layer metrics from the traced ones,
plus a `counts` line of the workload's exact-repeat counts.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. A full record (counts with their bases, machine, checks) goes to
perfbench/.out/, and in traced runs the spans too.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
SETUP_REPEATS = 4  # before the passes, and again after them


def pin_allocator() -> dict:
    """Fix glibc's mmap and trim thresholds for the whole run.

    By default glibc raises both thresholds the first time the process
    frees a large mmap'd block. Before that, every Adam and gradient
    temporary of a few MB is mmap'd and faulted in afresh; after it they
    are reused from the heap, and train-4k trained about 15 % faster. Which
    mode a run measured then depended on whether anything earlier in the
    process happened to free a large array. Pinning both thresholds at
    glibc's dynamic maximum (32 MiB, trim at twice that) measures the mode
    a long-running process settles in, whatever ran before.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return {"allocator": "default (no glibc mallopt)"}
    m_trim_threshold, m_mmap_threshold = -1, -3
    mmap_bytes, trim_bytes = 32 << 20, 64 << 20
    ok = mallopt(m_mmap_threshold, mmap_bytes) == 1 and mallopt(m_trim_threshold, trim_bytes) == 1
    return {"allocator": "glibc", "mmap_threshold": mmap_bytes if ok else None,
            "trim_threshold": trim_bytes if ok else None}


def _import_library():
    src = ROOT / "src"
    if not (src / "negprec" / "__init__.py").is_file():
        print(f"negprec sources not found under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


# --------------------------------------------------------------------------
# patch sets
# --------------------------------------------------------------------------


def install(tracer, full: bool, counts: Counter) -> None:
    """Always: grid_search, load_corpus and permutation_test (a few dozen
    calls per pass, needed to split run-desk time into training and
    evaluation). With full: every layer boundary the per-layer metrics
    read."""
    from negprec import encoder, experiment, models, training

    def after_permutation(span, result, *args, **kwargs):
        counts["permutation_resamples"] += result.assignments

    tracer.wrap(experiment, "grid_search", "experiment.grid_search")
    tracer.wrap(experiment, "load_corpus", "corpus.load")
    tracer.wrap(experiment, "permutation_test", "evaluation.permutation",
                after=after_permutation if full else None)
    if not full:
        return

    def after_train(span, result, *args, **kwargs):
        counts["models"] += 1
        counts["param_count"] += result.model.param_count()
        counts["clamp_warnings"] += result.model.clamp_warnings

    def after_tokenize(span, result, *args, **kwargs):
        counts["tokenize_calls"] += 1
        counts["tokens"] += len(result)

    def after_subset(span, result, *args, **kwargs):
        counts["batches"] += 1
        if result.tokens:
            counts["rows_touched"] += int(np.unique(np.concatenate(result.tokens)).size)

    def after_adam(span, result, params, grads, *args, **kwargs):
        # Dense Adam: the finiteness check reads g, the update reads g, m,
        # v, p and writes m, v, p: eight passes over each array.
        counts["adam_steps"] += 1
        counts["adam_bytes"] += 8 * sum(int(g.nbytes) for g in grads.values())
        for name, g in grads.items():
            if name.endswith(".emb"):
                counts["emb_tables"] += 1
                counts["emb_rows_updated"] += int(g.shape[0])

    def lag_attrs(model, batch, dropout=0.0, rng=None, want_grads=True):
        return {"arch": model.arch, "grads": bool(want_grads)}

    tracer.wrap(training, "train", "training.train", after=after_train)
    tracer.wrap(training, "adam_step", "training.adam", after=after_adam)
    tracer.wrap(training, "tokenize", "encoder.tokenize", after=after_tokenize)
    tracer.wrap(training, "build_label_matrix", "corpus.label_matrix")
    tracer.wrap(training.Dataset, "build", "training.dataset_build")
    tracer.wrap(training.Dataset, "subset", "training.subset", after=after_subset)
    tracer.wrap(encoder, "bow_encode", "encoder.bow_encode")
    tracer.wrap(encoder, "bow_backward", "encoder.bow_backward")
    for cls in (models._TwoHeadModel, models.JointModel, models.ClaimOutcomeModel):
        tracer.wrap(cls, "loss_and_grads", "models.loss_and_grads", attrs=lag_attrs)
    tracer.wrap(models.Model, "nll", "models.nll")
    tracer.wrap(experiment, "build_label_matrix", "corpus.label_matrix")
    tracer.wrap(experiment, "predict_model", "experiment.predict")
    tracer.wrap(experiment, "save_checkpoint", "models.save_checkpoint")
    tracer.wrap(experiment, "score_predictions", "evaluation.score")
    tracer.wrap(experiment, "random_baseline", "evaluation.random_baseline")
    tracer.wrap(experiment, "per_case_scores", "evaluation.per_case_scores")
    tracer.wrap(experiment, "write_predictions", "evaluation.write_predictions")


# --------------------------------------------------------------------------
# per-layer metrics from the traced passes
# --------------------------------------------------------------------------


def layer_metrics(arches, tracers, setup_tracer, counts: Counter, eval_s, overhead):
    """Per-layer metrics, and the counts beside them.

    Counts (sample sizes, steps, tokens per case, parameters, permutation
    calls, rows touched) are properties of the workload that no code change
    should move, so they carry no better/worse direction and are reported
    apart from the metrics, as exact-repeat counts.
    """
    from tracer import percentile

    spans = [s for t in tracers for s in t.spans]
    n_passes = max(len(tracers), 1)
    selfs = {}
    kids = {}
    for t in tracers:
        st = t.self_times()
        ch = t.children()
        for s in t.spans:
            selfs[id(s)] = st[s.id]
            kids[id(s)] = ch.get(s.id, [])

    def dur(name, scale=1.0):
        return [scale * s.duration for s in spans if s.name == name]

    m: dict[str, tuple[float, str]] = {}
    info: dict[str, float] = {}

    def p50(key, values, unit):
        m[key] = (percentile(values, 50), unit)

    def fam(key, values, unit):
        m[key + ".p50"] = (percentile(values, 50), unit)
        m[key + ".p99"] = (percentile(values, 99), unit)
        info[key + ".n"] = len(values)

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    p50("synth.generate_s", [s.duration for s in setup_tracer.spans], "s")
    p50("corpus.load_s", dur("corpus.load"), "s")
    p50("corpus.label_matrix_ms", dur("corpus.label_matrix", 1e3), "ms")
    m["encoder.tokenize_s"] = (sum(dur("encoder.tokenize")) / n_passes, "s")
    info["encoder.tokens_per_case"] = ratio("tokens", "tokenize_calls")
    fam("encoder.bow_encode_ms", dur("encoder.bow_encode", 1e3), "ms")
    fam("encoder.bow_backward_ms", dur("encoder.bow_backward", 1e3), "ms")
    for arch in arches:
        def is_step(s, arch=arch):
            return s.attrs["arch"] == arch and s.attrs["grads"]

        steps = [s for s in spans if s.name == "models.loss_and_grads" and is_step(s)]
        fam(f"models.loss_and_grads_ms.{arch}", [1e3 * s.duration for s in steps], "ms")
        p50(f"models.head_self_ms.{arch}", [1e3 * selfs[id(s)] for s in steps], "ms")
    p50("models.nll_ms", dur("models.nll", 1e3), "ms")
    p50("models.save_checkpoint_ms", dur("models.save_checkpoint", 1e3), "ms")
    info["models.param_count"] = ratio("param_count", "models")
    m["models.clamp_warnings"] = (counts["clamp_warnings"] / n_passes, "count")

    step_ms, validation_s = [], []
    for s in spans:
        if s.name != "training.train":
            continue
        started = None
        for c in kids[id(s)]:
            if c.name == "training.subset":
                started = c.start
            elif c.name == "training.adam" and started is not None:
                step_ms.append(1e3 * (c.end - started))
                started = None
        validation_s.append(sum(c.duration for c in kids[id(s)] if c.name == "models.nll"))
    fam("training.step_ms", step_ms, "ms")
    info["training.steps"] = counts["adam_steps"] / n_passes
    fam("training.adam_ms", dur("training.adam", 1e3), "ms")
    m["training.adam_bytes_per_step"] = (ratio("adam_bytes", "adam_steps"), "bytes")
    rows_touched = ratio("rows_touched", "batches")
    rows_updated = ratio("emb_rows_updated", "emb_tables")
    info["training.rows_touched"] = rows_touched
    m["training.rows_updated"] = (rows_updated, "count")
    frac = rows_touched / rows_updated if rows_updated else 0.0
    m["training.rows_touched_frac"] = (frac, "frac")
    p50("training.subset_ms", dur("training.subset", 1e3), "ms")
    p50("training.dataset_build_s", dur("training.dataset_build"), "s")
    p50("training.validation_s", validation_s, "s")
    p50("evaluation.score_ms", dur("evaluation.score", 1e3), "ms")
    p50("evaluation.random_baseline_ms", dur("evaluation.random_baseline", 1e3), "ms")
    fam("evaluation.permutation_ms", dur("evaluation.permutation", 1e3), "ms")
    info["evaluation.permutation_calls"] = len(dur("evaluation.permutation")) / n_passes
    info["evaluation.permutation_resamples"] = counts["permutation_resamples"] / n_passes
    p50("evaluation.per_case_scores_ms", dur("evaluation.per_case_scores", 1e3), "ms")
    p50("evaluation.write_predictions_ms", dur("evaluation.write_predictions", 1e3), "ms")
    p50("experiment.predict_ms", dur("experiment.predict", 1e3), "ms")
    p50("experiment.grid_search_s", dur("experiment.grid_search"), "s")
    p50("experiment.run_s", dur("experiment.run"), "s")
    p50("experiment.eval_s", eval_s, "s")
    m["trace.overhead_frac"] = (overhead, "frac")
    return m, info


# --------------------------------------------------------------------------
# machine record
# --------------------------------------------------------------------------


def _blas_threads() -> int | None:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine(allocator: dict) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(names, "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "processes": 1,
        **allocator,
    }


def _code_digest() -> str:
    """The library and the benchmark code that produced an output."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "negprec").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _digest_repeats(key: str, digest: str) -> bool:
    """Outputs of the same code on the same seed must repeat across runs."""
    store = OUT / "digests.json"
    known = json.loads(store.read_text(encoding="utf-8")) if store.is_file() else {}
    if known.setdefault(key, digest) != digest:
        return False
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, store)
    return True


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    allocator = pin_allocator()
    _import_library()
    import workloads
    from negprec import synth
    from negprec.models import ARCHITECTURES
    from tracer import Tracer

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = workloads.SPECS[args.workload]
    traced_run = args.trace == 1
    work = HERE / ".work" / f"{spec.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_tracer = Tracer()
    setup_s = []

    def set_up():
        if traced_run:
            setup_tracer.wrap(synth, "generate_corpus", "synth.generate")
        try:
            for _ in range(SETUP_REPEATS):
                t = time.perf_counter()
                ctx = workloads.setup(spec, args.seed, work)
                setup_s.append(time.perf_counter() - t)
        finally:
            setup_tracer.restore()
        return ctx

    try:
        ctx = set_up()
        workloads.warm_up(ctx)

        counts: Counter = Counter()
        passes = []  # (PassResult, traced, Tracer)
        started = time.perf_counter()
        while True:
            traced = traced_run and len(passes) % 2 == 1
            tracer = Tracer()
            install(tracer, traced, counts)
            try:
                result = workloads.run_pass(ctx, tracer, len(passes))
            finally:
                tracer.restore()
            passes.append((result, traced, tracer))
            elapsed = time.perf_counter() - started
            if traced_run and not any(tr for _, tr, _ in passes):
                continue
            if elapsed + elapsed / len(passes) > args.seconds:
                break
        # The machine's speed drifts within a run, so set-up is sampled at
        # both ends and setup_s is the median over both.
        set_up()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r, tr, _ in passes if not tr]
    first = passes[0][0]
    ops_attempted = sum(r.ops.attempted for r, _, _ in passes)
    ops_failed = sum(r.ops.failed for r, _, _ in passes)
    key = f"{spec.name}/seed{args.seed}/{_code_digest()}"
    checks = {
        "ops_all_succeeded": ops_failed == 0,
        "passes_repeat_exactly": len({r.digest for r, _, _ in passes}) == 1 and bool(first.digest),
        "runs_repeat_exactly": bool(first.digest) and _digest_repeats(key, first.digest),
        "f1_above_floor": first.f1_pos >= spec.f1_floor[0] and first.f1_neg >= spec.f1_floor[1],
    }
    if not spec.desk:
        checks["neg_harder_than_pos"] = first.f1_neg < first.f1_pos
    if traced_run:
        checks["spans_nest"] = all(t.check_nesting() for _, tr, t in passes if tr)
    correct = all(checks.values())

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    train_s = sum(r.train_s for r in plain)
    case_epochs = sum(r.case_epochs for r in plain)
    if traced_run:
        traced_tracers = [t for _, tr, t in passes if tr]
        overhead = (
            statistics.median(r.wall_s for r, tr, _ in passes if tr)
            / statistics.median(r.wall_s for r in plain) - 1.0
        )
        eval_s = [r.eval_s for r, tr, _ in passes if tr]
        metrics, info = layer_metrics(
            ARCHITECTURES, traced_tracers, setup_tracer, counts, eval_s, overhead
        )
    else:
        info = {}
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (statistics.median(r.wall_s for r in plain), "s"),
            "train_cases_per_s": (case_epochs / train_s if train_s else 0.0, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "test_f1_pos": (first.f1_pos, "%"),
            "test_f1_neg": (first.f1_neg, "%"),
        }

    record = {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(allocator),
        "code_sha256": key.rsplit("/", 1)[1],
        "checks": checks,
        "ops": {"attempted": ops_attempted, "failed": ops_failed,
                "failed_frac": ops_failed / ops_attempted if ops_attempted else 0.0,
                "reasons": [why for r, _, _ in passes for why in r.ops.reasons]},
        "setup_s_samples": setup_s,
        "passes": [
            {"traced": tr, "wall_s": r.wall_s, "train_s": r.train_s, "eval_s": r.eval_s,
             "case_epochs": r.case_epochs, "f1_pos": r.f1_pos, "f1_neg": r.f1_neg,
             "digest": r.digest}
            for r, tr, _ in passes
        ],
        "counts": dict(counts),
        "count_metrics": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if traced_run:
        traced_tracers[0].write(OUT / f"{stem}-spans.jsonl", dict(counts))

    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(f"{spec.name} seed {args.seed}: {len(passes)} passes, ops {ops_failed}/{ops_attempted} "
          f"failed (ops_failed_frac {record['ops']['failed_frac']:.4f}), checks {checks}")
    if info:
        print("counts " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": ops_attempted,
        "failed": ops_failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
