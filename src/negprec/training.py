"""Training loop, Adam optimizer, hyperparameter grid, gradient audit.

The objective is the mean over cases of -sum_k log p(outcome_k, claim_k |
facts); for the two-classifier baselines that is the sum of their two
binary cross-entropies. Training is bit-reproducible from the config seed:
the same generator drives initialization, epoch shuffling, and dropout in a
fixed order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .corpus import ArticleIndex, Case, SplitSet, build_label_matrix, filter_articles
from .encoder import PrecomputedEncoder, RowGrad, tokenize
from .errors import DataError, NumericError, UsageError
from .models import ARCHITECTURES, Model, build_model

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    learning_rate: float = 3e-4
    dropout: float = 0.2
    hidden: int = 50
    batch_size: int = 16
    max_epochs: int = 10
    seed: int = 0
    dim: int = 64
    vocab_buckets: int = 1 << 15
    max_tokens: int = 512
    encoder: str = "hashed_bow"

    def __post_init__(self) -> None:
        if not 0.0 <= self.learning_rate < math.inf:
            raise UsageError("learning_rate must be finite and >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise UsageError("dropout must be in [0, 1)")
        for name in ("hidden", "batch_size", "max_epochs", "dim", "vocab_buckets", "max_tokens"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be >= 1")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if self.encoder not in ("hashed_bow", "precomputed"):
            raise UsageError(f"unknown encoder {self.encoder!r}")


def parse_kv_lines(text: str, where: str = "config") -> dict[str, str]:
    """key = value lines; # starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{where} line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise UsageError(f"{where} line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


_SCALARS = {"int": int, "float": float, "str": str}


def comma_list(text: str, convert) -> tuple:
    """Comma-separated values, each passed through ``convert``; empty parts
    are dropped. Raises ValueError for a part ``convert`` rejects."""
    return tuple(convert(part.strip()) for part in text.split(",") if part.strip())


def from_kv(cls, mapping: dict[str, str], where: str = "config", kind: str = ""):
    """Build the dataclass ``cls`` from ``parse_kv_lines`` output.

    Each value is converted by its field's annotation string: ``int``,
    ``float``, ``str``, or ``tuple[T, ...]`` of those as a comma list. Fields
    not in ``mapping`` keep their defaults; ``cls.__post_init__`` validates.
    ``kind`` ("manifest") names the key in the unknown-key error.
    """
    types = {f.name: f.type for f in fields(cls)}
    kwargs: dict = {}
    for key, value in mapping.items():
        if key not in types:
            raise UsageError(f"{where}: unknown {kind + ' ' if kind else ''}key {key!r}")
        annotation = types[key]
        try:
            if annotation.startswith("tuple["):  # "tuple[T, ...]" -> T
                kwargs[key] = comma_list(value, _SCALARS[annotation[6:-6]])
            else:
                kwargs[key] = _SCALARS[annotation](value)
        except ValueError as exc:
            raise UsageError(f"{where}: bad value for {key!r}: {value!r}") from exc
    for f in fields(cls):
        if f.name not in kwargs and f.default is MISSING:
            raise UsageError(f"{where}: {kind or 'config'} must set {f.name}")
    try:
        return cls(**kwargs)
    except UsageError as exc:
        raise UsageError(f"{where}: {exc}") from exc


def load_kv(cls, path: str | Path, kind: str = ""):
    """Read a ``key = value`` file into the dataclass ``cls`` (see from_kv)."""
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{kind or 'config file'} not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{p.name}: not UTF-8 text ({exc.reason})") from exc
    return from_kv(cls, parse_kv_lines(text, p.name), p.name, kind)


# --------------------------------------------------------------------------
# datasets
# --------------------------------------------------------------------------


@dataclass
class Dataset:
    """Tokenized cases plus their label projection, ready for batching."""

    case_ids: list[str]
    tokens: list[np.ndarray]
    labels: np.ndarray
    claims: np.ndarray

    def __len__(self) -> int:
        return len(self.case_ids)

    @classmethod
    def build(
        cls,
        cases: list[Case],
        index: ArticleIndex,
        max_tokens: int,
        vocab_buckets: int,
        with_tokens: bool = True,
    ) -> "Dataset":
        matrix = build_label_matrix(cases, index)
        if with_tokens:
            tokens = [tokenize(c.facts, max_tokens, vocab_buckets) for c in cases]
        else:
            # Precomputed-vector models never read tokens.
            tokens = [np.empty(0, dtype=np.int64) for _ in cases]
        return cls(
            case_ids=matrix.case_ids,
            tokens=tokens,
            labels=matrix.labels,
            claims=matrix.claims,
        )

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            case_ids=[self.case_ids[i] for i in idx],
            tokens=[self.tokens[i] for i in idx],
            labels=self.labels[idx],
            claims=self.claims[idx],
        )


# --------------------------------------------------------------------------
# Adam
# --------------------------------------------------------------------------


# Elements per block of Adam's whole-table update.
_ADAM_BLOCK = 1 << 16


@dataclass
class AdamState:
    """Adam's first and second moments per parameter and the step count."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def _adam_update(p, m, v, at, g, lr, beta1, beta2, bc1, bc2, eps) -> None:
    """Adam on p, m and v in place; g holds the gradient of rows at."""
    m *= beta1
    m[at] += (1.0 - beta1) * g
    v *= beta2
    v[at] += (1.0 - beta2) * (g * g)
    # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps): the same operations
    # in the same order, over blocks of rows, so the two temporaries
    # stay in cache and add little to peak memory.
    block_rows = max(1, _ADAM_BLOCK // max(1, math.prod(p.shape[1:])))
    for lo in range(0, len(p), block_rows):
        block = slice(lo, lo + block_rows)
        step = np.divide(m[block], bc1)
        step *= lr
        denom = np.divide(v[block], bc2)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        p[block] -= step


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray | RowGrad],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update, applied in place so that arrays
    aliased elsewhere (encoder embeddings) stay current.

    Every table gets the whole-table update. A row-sparse gradient adds to
    the moments of its rows only, which is bit-identical to adding its dense
    array. train() passes embedding tables cut down to the rows its data
    uses, so that whole-table pass covers those rows, not every bucket.
    """
    for name, g in grads.items():
        values = g.values if isinstance(g, RowGrad) else g
        if not np.all(np.isfinite(values)):
            raise NumericError(f"non-finite gradient in {name!r} at step {state.step + 1}")
    state.step += 1
    hyper = (lr, beta1, beta2, 1.0 - beta1 ** state.step, 1.0 - beta2 ** state.step, eps)
    for name, g in grads.items():
        if isinstance(g, RowGrad):
            at, g = g.rows, g.values
        else:
            at = slice(None)
        _adam_update(params[name], state.m[name], state.v[name], at, g, *hyper)
    return params, state


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------


@dataclass
class TrainResult:
    model: Model
    config: TrainConfig
    index: ArticleIndex
    log: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = math.inf


def train(
    arch: str,
    config: TrainConfig,
    splits: SplitSet,
    index: ArticleIndex | None = None,
    vectors: PrecomputedEncoder | None = None,
) -> TrainResult:
    """Train one architecture and keep the epoch with the lowest validation
    loss (earliest epoch on ties). Validation runs with dropout disabled."""
    if arch not in ARCHITECTURES:
        raise UsageError(f"unknown architecture {arch!r}")
    if not splits.train:
        raise DataError("training split is empty")
    if index is None:
        index = filter_articles(splits)
    rng = np.random.default_rng(config.seed)
    model = build_model(
        arch,
        index,
        rng,
        dim=config.dim,
        hidden=config.hidden,
        encoder_kind=config.encoder,
        vocab_buckets=config.vocab_buckets,
        max_tokens=config.max_tokens,
        vectors=vectors,
    )
    with_tokens = config.encoder == "hashed_bow"
    train_ds = Dataset.build(
        splits.train, index, config.max_tokens, config.vocab_buckets, with_tokens
    )
    val_ds = Dataset.build(
        splits.validation, index, config.max_tokens, config.vocab_buckets, with_tokens
    )
    if not len(val_ds):
        raise DataError("validation split is empty")
    # Train each embedding on the rows the training and validation tokens
    # hash to, with the tokens renumbered to match. No other row gets a
    # gradient, and a row without one yet has m = v = 0, so its Adam step
    # is exactly 0: the result is bit-identical to training the whole table.
    full: dict[str, np.ndarray] = {}
    if with_tokens:
        # A mask and in-place renumbering copy one case's ids at a time;
        # np.unique over all ids concatenated raised peak memory by about
        # 5 MB at 425 tokens per case.
        seen = np.zeros(config.vocab_buckets, dtype=bool)
        for ids in train_ds.tokens + val_ds.tokens:
            seen[ids] = True
        vocab = np.flatnonzero(seen)
        for ds in (train_ds, val_ds):
            for i, ids in enumerate(ds.tokens):
                ds.tokens[i] = np.searchsorted(vocab, ids)
        for name, enc in model.encoders.items():
            full[name] = enc.embedding
            enc.embedding = model.params[f"{name}.emb"] = enc.embedding[vocab]

    state = AdamState.init(model.params)
    result = TrainResult(model=model, config=config, index=index)
    best_params: dict[str, np.ndarray] | None = None
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_ds))
        total = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = train_ds.subset(order[start : start + config.batch_size])
            loss, grads = model.loss_and_grads(batch, dropout=config.dropout, rng=rng)
            if not math.isfinite(loss):
                raise NumericError(
                    f"{arch}: non-finite training loss at epoch {epoch} "
                    f"(lr={config.learning_rate}, hidden={config.hidden})"
                )
            total += loss * len(batch.case_ids)
            adam_step(model.params, grads, state, config.learning_rate)
        train_loss = total / len(train_ds)
        val_loss = model.nll(val_ds)
        if not math.isfinite(val_loss):
            raise NumericError(f"{arch}: non-finite validation loss at epoch {epoch}")
        picked = val_loss < result.best_val_loss
        if picked:
            result.best_val_loss = val_loss
            result.best_epoch = epoch
            best_params = {k: p.copy() for k, p in model.params.items()}
        result.log.append(
            {"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss, "selected": picked}
        )
        log.info(
            "%s epoch %d: train %.6f validation %.6f%s",
            arch, epoch, train_loss, val_loss, " *" if picked else "",
        )
    assert best_params is not None
    # Copy back in place; the model's encoders alias these arrays.
    for name, p in model.params.items():
        p[...] = best_params[name]
    # Write the compact rows back and hand the model its full tables again.
    for name, emb in full.items():
        emb[vocab] = model.encoders[name].embedding
        model.encoders[name].embedding = model.params[f"{name}.emb"] = emb
    return result


# --------------------------------------------------------------------------
# hyperparameter grid
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    learning_rates: tuple[float, ...]
    dropouts: tuple[float, ...]
    hiddens: tuple[int, ...]

    def __iter__(self):
        for lr in self.learning_rates:
            for dr in self.dropouts:
                for h in self.hiddens:
                    yield lr, dr, h

    def size(self) -> int:
        return len(self.learning_rates) * len(self.dropouts) * len(self.hiddens)


# The grid used for the published experiments (36 configurations) and the
# shrunk preset for desk-scale runs.
FULL_GRID = GridSpec(
    learning_rates=(3e-4, 3e-5, 3e-6),
    dropouts=(0.2, 0.3, 0.4),
    hiddens=(50, 100, 200, 300),
)
DESK_GRID = GridSpec(learning_rates=(3e-4,), dropouts=(0.2,), hiddens=(50, 100))

GRID_PRESETS = {"full": FULL_GRID, "desk": DESK_GRID}


def grid_search(
    arch: str,
    splits: SplitSet,
    grid: GridSpec = DESK_GRID,
    base_config: TrainConfig | None = None,
    index: ArticleIndex | None = None,
    vectors: PrecomputedEncoder | None = None,
) -> tuple[TrainResult, list[dict]]:
    """Train every grid configuration, return the one with the lowest
    validation loss plus a per-configuration summary. Diverged
    configurations are recorded and skipped; all diverging is an error."""
    base = base_config or TrainConfig()
    if index is None:
        index = filter_articles(splits)
    best: TrainResult | None = None
    summary: list[dict] = []
    for lr, dr, hidden in grid:
        config = replace(base, learning_rate=lr, dropout=dr, hidden=hidden)
        row = {"learning_rate": lr, "dropout": dr, "hidden": hidden}
        try:
            result = train(arch, config, splits, index=index, vectors=vectors)
        except NumericError as exc:
            log.warning("%s grid point diverged: %s", arch, exc)
            row.update(status="diverged", val_loss=None)
            summary.append(row)
            continue
        row.update(
            status="ok", val_loss=result.best_val_loss, best_epoch=result.best_epoch
        )
        summary.append(row)
        if best is None or result.best_val_loss < best.best_val_loss:
            best = result
    if best is None:
        raise NumericError(f"every {arch} grid configuration diverged")
    return best, summary


# --------------------------------------------------------------------------
# gradient audit
# --------------------------------------------------------------------------


def gradient_check(
    model: Model,
    batch: Dataset,
    epsilon: float = 1e-5,
    min_coords: int = 200,
    seed: int = 0,
) -> float:
    """Compare analytic gradients against central finite differences on a
    random subset of coordinates (at least min_coords when the model has
    that many), stratified so every parameter array is probed.

    Returns the maximum relative error |analytic - numeric| /
    max(|analytic|, |numeric|, 1); coordinates the loss never touches give
    0/1 = 0. Dropout is off throughout.
    """
    _, grads = model.loss_and_grads(batch, dropout=0.0, rng=None)
    grads = {name: np.asarray(g) for name, g in grads.items()}  # RowGrad -> dense, once
    rng = np.random.default_rng(seed)
    names = sorted(model.params)
    total = sum(model.params[n].size for n in names)
    target = min(min_coords, total)
    per_array = -(-target // len(names))  # ceil
    coords: list[tuple[str, int]] = []
    chosen: dict[str, set[int]] = {}
    for name in names:
        size = model.params[name].size
        take = min(size, per_array)
        idx = rng.choice(size, size=take, replace=False)
        chosen[name] = set(int(i) for i in idx)
        coords.extend((name, int(i)) for i in idx)
    # Small arrays cap out below their quota; fill the shortfall from
    # whichever arrays still have unprobed coordinates, largest first.
    for name in sorted(names, key=lambda n: model.params[n].size, reverse=True):
        if len(coords) >= target:
            break
        size = model.params[name].size
        available = np.setdiff1d(
            np.arange(size), np.fromiter(chosen[name], dtype=np.int64), assume_unique=True
        )
        if not available.size:
            continue
        extra = rng.choice(available, size=min(target - len(coords), available.size),
                           replace=False)
        chosen[name].update(int(i) for i in extra)
        coords.extend((name, int(i)) for i in extra)

    worst = 0.0
    for name, i in coords:
        p = model.params[name]
        orig = p.flat[i]
        p.flat[i] = orig + epsilon
        above = model.nll(batch)
        p.flat[i] = orig - epsilon
        below = model.nll(batch)
        p.flat[i] = orig
        numeric = (above - below) / (2.0 * epsilon)
        analytic = grads[name].flat[i]
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
        worst = max(worst, err)
    return worst
