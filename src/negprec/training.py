"""Training loop, Adam optimizer, hyperparameter grid, gradient audit.

The objective is the mean over cases of -sum_k log p(outcome_k, claim_k |
facts); for the two-classifier baselines that is the sum of their two
binary cross-entropies. Training is bit-reproducible from the config seed:
the same generator drives initialization, epoch shuffling, and dropout in a
fixed order.
"""

from __future__ import annotations

import itertools
import logging
import math
import weakref
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .corpus import ArticleIndex, Case, LabelMatrix, SplitSet, build_label_matrix, filter_articles
from .encoder import PrecomputedEncoder, tokenize
from .errors import DataError, NumericError, UsageError
from .models import ARCHITECTURES, SHAPE_DEFAULTS, Model, build_model, memory_guard

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    """Training settings. Given a vector table, train() takes the model's
    width from it and ignores dim, vocab_buckets and max_tokens; the
    checkpoint records the shape used."""

    learning_rate: float = 3e-4
    dropout: float = 0.2
    hidden: int = SHAPE_DEFAULTS["hidden"]
    batch_size: int = 16
    max_epochs: int = 10
    seed: int = 0
    dim: int = SHAPE_DEFAULTS["dim"]
    vocab_buckets: int = SHAPE_DEFAULTS["vocab_buckets"]
    max_tokens: int = SHAPE_DEFAULTS["max_tokens"]

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


# Token ids of each live case, per (max_tokens, vocab_buckets), in the
# smallest unsigned dtype that holds a bucket id. An entry goes with its case.
_TOKEN_IDS: dict[tuple[int, int], weakref.WeakKeyDictionary] = {}


@dataclass
class Dataset(LabelMatrix):
    """A label matrix plus each case's token ids, ready for batching."""

    tokens: list[np.ndarray]

    def __len__(self) -> int:
        return len(self.case_ids)

    @classmethod
    def build(
        cls, cases: list[Case], index: ArticleIndex, max_tokens: int, vocab_buckets: int
    ) -> "Dataset":
        """Project cases onto index, with their facts' token ids when
        max_tokens > 0. Callers pass their model's max_tokens, which is 0 for
        a model without embedding tables, so its datasets hold empty token
        arrays.

        A case is tokenized once per (max_tokens, vocab_buckets) while it is
        alive; later builds get fresh int64 copies of its stored ids."""
        if max_tokens > 0:
            cache = _TOKEN_IDS.setdefault((max_tokens, vocab_buckets), weakref.WeakKeyDictionary())
            tokens = []
            for c in cases:
                ids = cache.get(c)
                if ids is None:
                    ids = tokenize(c.facts, max_tokens, vocab_buckets)
                    ids = cache[c] = ids.astype(np.min_scalar_type(vocab_buckets - 1))
                tokens.append(ids.astype(np.int64))
        else:
            tokens = [np.empty(0, dtype=np.int64) for _ in cases]
        return cls(**vars(build_label_matrix(cases, index)), tokens=tokens)

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            case_ids=[self.case_ids[i] for i in idx],
            tokens=[self.tokens[i] for i in idx],
            labels=self.labels[idx],
        )


# --------------------------------------------------------------------------
# Adam
# --------------------------------------------------------------------------


# Elements per block of Adam's whole-table update.
_ADAM_BLOCK = 1 << 16
# Kingma & Ba (2015)'s decay rates and epsilon, the only values used.
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


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


def _adam_update(p, m, v, g, alpha, eps_hat) -> None:
    """Adam on p, m and v in place from the dense gradient g."""
    # m = beta1 m + (1 - beta1) g and v likewise, then
    # p -= alpha * m / (sqrt(v) + eps_hat), over blocks of rows with one
    # scratch array per block, so the scratch stays in cache and adds
    # little to peak memory.
    block_rows = max(1, _ADAM_BLOCK // max(1, math.prod(p.shape[1:])))
    for lo in range(0, len(p), block_rows):
        block = slice(lo, lo + block_rows)
        mb, vb, gb = m[block], v[block], g[block]
        t = np.multiply(gb, 1.0 - _ADAM_BETA1)
        mb *= _ADAM_BETA1
        mb += t
        np.multiply(gb, gb, out=t)
        t *= 1.0 - _ADAM_BETA2
        vb *= _ADAM_BETA2
        vb += t
        np.sqrt(vb, out=t)
        t += eps_hat
        np.divide(mb, t, out=t)
        t *= alpha
        p[block] -= t


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One bias-corrected Adam update of params, m and v in place; it
    returns nothing. Every gradient is checked for non-finite values before
    any array is updated.

    A row whose gradient has been zero at every step keeps m = v = 0, so
    its update is exactly 0 and its bytes do not change. train() passes
    embedding tables cut down to the rows its data uses, so the pass over
    each table covers those rows, not every bucket.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in {name!r} at step {state.step + 1}")
    state.step += 1
    bc1 = 1.0 - _ADAM_BETA1 ** state.step
    bc2 = 1.0 - _ADAM_BETA2 ** state.step
    # lr (m / bc1) / (sqrt(v / bc2) + eps) with the bias corrections moved
    # into one step size and epsilon (Kingma & Ba 2015, section 2), so each
    # element takes one divide; only the step's rounding differs.
    alpha = lr * math.sqrt(bc2) / bc1
    eps_hat = _ADAM_EPS * math.sqrt(bc2)
    for name, g in grads.items():
        _adam_update(params[name], state.m[name], state.v[name], g, alpha, eps_hat)


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------


@dataclass
class TrainResult:
    model: Model
    config: TrainConfig
    log: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = math.inf

    def selected(self) -> dict:
        """What training chose: the grid point's settings, the kept epoch
        and its validation loss. Run logs and checkpoints record this."""
        return {
            "learning_rate": self.config.learning_rate,
            "dropout": self.config.dropout,
            "hidden": self.config.hidden,
            "best_epoch": self.best_epoch,
            "val_loss": self.best_val_loss,
        }


def _vocab_of(tokens: list[np.ndarray], vocab_buckets: int) -> np.ndarray:
    """The sorted distinct bucket ids in tokens. A mask over the buckets
    reads one case's ids at a time; np.unique over all ids concatenated
    raised peak memory by about 5 MB at 425 tokens per case."""
    with memory_guard(f"a mask over {vocab_buckets} buckets"):
        seen = np.zeros(vocab_buckets, dtype=bool)
    for ids in tokens:
        seen[ids] = True
    return np.flatnonzero(seen)


def train(
    arch: str,
    config: TrainConfig,
    splits: SplitSet,
    index: ArticleIndex | None = None,
    vectors: PrecomputedEncoder | None = None,
) -> TrainResult:
    """Train one architecture and keep the epoch with the lowest validation
    loss (earliest epoch on ties). Validation runs with dropout disabled.
    Given `vectors`, the model reads them in place of hashed bag-of-words
    tables. Its tables hold the rows of the buckets the training and
    validation tokens hash to, its vocab: no other row would get a
    gradient, and a row without one has m = v = 0, so its Adam step is
    exactly 0. Each kept row's initial value is that of a whole-table draw
    (build_model), so training is bit-identical to training whole tables."""
    if arch not in ARCHITECTURES:
        raise UsageError(f"unknown architecture {arch!r}")
    if not splits.train:
        raise DataError("training split is empty")
    if index is None:
        index = filter_articles(splits)
    # A vector table takes the place of the tables, and with them the tokens.
    max_tokens = config.max_tokens if vectors is None else 0
    train_ds = Dataset.build(splits.train, index, max_tokens, config.vocab_buckets)
    val_ds = Dataset.build(splits.validation, index, max_tokens, config.vocab_buckets)
    if not len(val_ds):
        raise DataError("validation split is empty")
    vocab = None
    if vectors is None:
        vocab = _vocab_of(train_ds.tokens + val_ds.tokens, config.vocab_buckets)
    rng = np.random.default_rng(config.seed)
    model = build_model(
        arch,
        index,
        rng,
        dim=config.dim,
        hidden=config.hidden,
        vocab_buckets=config.vocab_buckets,
        max_tokens=max_tokens,
        vectors=vectors,
        vocab=vocab,
    )
    state = AdamState.init(model.params)
    result = TrainResult(model=model, config=config)
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
    # The first epoch's loss is finite, so some epoch was picked.
    model.params = best_params
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
        return itertools.product(self.learning_rates, self.dropouts, self.hiddens)

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
    grid: GridSpec,
    base_config: TrainConfig,
    index: ArticleIndex | None = None,
    vectors: PrecomputedEncoder | None = None,
) -> tuple[TrainResult, list[dict]]:
    """Train every grid configuration over base_config, return the one with
    the lowest validation loss plus a per-configuration summary. Diverged
    configurations are recorded and skipped; all diverging is an error."""
    best: TrainResult | None = None
    summary: list[dict] = []
    for lr, dr, hidden in grid:
        config = replace(base_config, learning_rate=lr, dropout=dr, hidden=hidden)
        try:
            result = train(arch, config, splits, index=index, vectors=vectors)
        except NumericError as exc:
            log.warning("%s grid point diverged: %s", arch, exc)
            summary.append({"learning_rate": lr, "dropout": dr, "hidden": hidden,
                            "status": "diverged", "val_loss": None})
            continue
        summary.append({**result.selected(), "status": "ok"})
        if best is None or result.best_val_loss < best.best_val_loss:
            best = result
    if best is None:
        raise NumericError(f"every {arch} grid configuration diverged")
    return best, summary


# --------------------------------------------------------------------------
# gradient audit
# --------------------------------------------------------------------------


def gradient_check(model: Model, batch: Dataset, epsilon: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences at
    every coordinate of every parameter array, in sorted name order: 2 x
    param_count() loss evaluations, which suits the tests' small models.

    Returns the maximum relative error |analytic - numeric| /
    max(|analytic|, |numeric|, 1); coordinates the loss never touches give
    0/1 = 0. Dropout is off throughout.
    """
    _, grads = model.loss_and_grads(batch, dropout=0.0, rng=None)
    worst = 0.0
    for name in sorted(model.params):
        p = model.params[name]
        for i in range(p.size):
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
