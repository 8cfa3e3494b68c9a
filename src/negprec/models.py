"""The four prediction architectures and their probability algebra.

An architecture is a heads table plus a loss rule. Each head reads one
facts encoder through a per-article hidden ReLU layer into 1 or 3 logits
per article; Model runs the one forward and backward pass for any table:

  simple         ("pos", "pos_enc", 1), ("neg", "neg_enc", 1): two
                 independent binary heads, each with its own encoder
  mtl            ("pos", "enc", 1), ("neg", "enc", 1): the same heads
                 sharing one encoder
  joint          ("joint", "enc", 3): one 3-way softmax per article over the
                 admissible (outcome, claim) configurations (POS,y), (NEG,y),
                 (NULL,n)
  claim_outcome  ("claim", "claim_enc", 1), ("outcome", "outcome_enc", 1):
                 p(claim|f) times p(POS|claim,f), multiplied out to a 3-way
                 distribution

Probability vectors are float64 arrays whose last axis is ordered
(POS, NEG, NULL); argmax over that axis implements the POS > NEG > NULL
tie-break. The backward pass is written out by hand so it can be audited
coordinate-by-coordinate against finite differences.
"""

from __future__ import annotations

import ctypes
import glob
import json
import logging
import zipfile
from pathlib import Path

import numpy as np

# bow_encode and bow_backward are called as encoder.<name>, looked up per
# call, so a wrapper installed on the module sees every call.
from . import encoder
from .corpus import ArticleIndex, Outcome
from .encoder import Bag, PrecomputedEncoder
from .errors import DataError, UsageError

log = logging.getLogger(__name__)


def _pin_blas_threads() -> None:
    """Hold the OpenBLAS bundled with NumPy to one thread. Its products
    (the bag-of-words encode and backward, the hidden layers) round
    differently at 1 and 2 threads, and reruns must be byte-identical on
    any machine. It runs through ctypes, so it holds whenever NumPy was
    imported; another BLAS build is the caller's to hold to one thread."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int]
                fn.restype = None
                fn(1)
                return


_pin_blas_threads()

CHECKPOINT_VERSION = 1

# The one place a new model's shape defaults are written: build_model's
# keywords and TrainConfig's fields both read them.
SHAPE_DEFAULTS = {"dim": 64, "hidden": 50, "vocab_buckets": 1 << 15, "max_tokens": 512}

# -log of the floor used when a gold label lands on an exactly-zero
# probability; such events are counted on the model (clamp_warnings).
_NEGLOG_FLOOR = -np.log(1e-12)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax over the last axis, stabilized by subtracting the row max."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def marginalize(p_pos_given_claim: np.ndarray, p_claim: np.ndarray) -> np.ndarray:
    """Multiply claim and outcome-given-claim probabilities into a 3-way
    distribution (POS, NEG, NULL) on a trailing axis.

    NULL is computed as 1 - (POS + NEG), which agrees with 1 - p_claim to
    within 2 ulps and makes each triple sum to exactly 1.0 in float64.
    """
    p_pos_given_claim = np.asarray(p_pos_given_claim, dtype=np.float64)
    p_claim = np.asarray(p_claim, dtype=np.float64)
    p_pos = p_pos_given_claim * p_claim
    p_neg = (1.0 - p_pos_given_claim) * p_claim
    p_null = 1.0 - (p_pos + p_neg)
    return np.stack([p_pos, p_neg, p_null], axis=-1)


def decide(dist: np.ndarray) -> np.ndarray:
    """Argmax Outcome per cell; exact ties fall to the earlier class, which
    is the POS > NEG > NULL preference."""
    return np.argmax(dist, axis=-1).astype(np.int8)


def decide_baseline(p_pos: np.ndarray, p_neg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Independent decisions: a flag is set when its probability is
    strictly above 0.5. Both flags may be true for the same cell; the
    baselines have no mechanism forbidding it."""
    return p_pos > 0.5, p_neg > 0.5


# --------------------------------------------------------------------------
# head math
# --------------------------------------------------------------------------

# einsum subscripts of a head's output weights and logits by width: a
# scalar head has out_w (K, H) and logits (B, K), a triple head out_w
# (K, 3, H) and logits (B, K, 3).
_OUT_SUBSCRIPTS = {1: ("kh", "bk"), 3: ("koh", "bko")}


def _head_forward(hidden_w, out_w, x, width):
    """Per-article hidden ReLU layer, then the output layer. Returns the
    hidden activation and the logits. The hidden layer is one matmul over
    every article's rows of hidden_w, (K*H, D)."""
    w, z = _OUT_SUBSCRIPTS[width]
    k, h, d = hidden_w.shape
    hid = (x @ hidden_w.reshape(k * h, d).T).reshape(len(x), k, h)
    np.maximum(hid, 0.0, out=hid)
    return hid, np.einsum(f"{w},bkh->{z}", out_w, hid)


def _head_backward(dlogits, x, hidden_w, out_w, hid, width):
    """dlogits: upstream on the logits, (B,K) or (B,K,3). Returns grads and dx.
    hid > 0 exactly where the pre-activation is, so it gives the ReLU mask."""
    w, z = _OUT_SUBSCRIPTS[width]
    d_out = np.einsum(f"{z},bkh->{w}", dlogits, hid)
    dpre = np.einsum(f"{w},{z}->bkh", out_w, dlogits)
    dpre *= hid > 0
    k, h, d = hidden_w.shape
    dpre = dpre.reshape(len(x), k * h)
    d_hidden = (dpre.T @ x).reshape(k, h, d)
    dx = dpre @ hidden_w.reshape(k * h, d)
    return d_out, d_hidden, dx


def _neglogp(z: np.ndarray, target: np.ndarray, width: int) -> np.ndarray:
    """-log p(target) per cell: a Bernoulli for a width-1 head (target 0
    or 1), a softmax over the last axis for width 3 (target an index). The
    Bernoulli is one logaddexp, so an infinite logit yields exactly 0 or
    +inf (which the loss clamp then catches), never 0 * inf = NaN."""
    if width == 1:
        return np.logaddexp(0.0, np.where(target > 0, -z, z))
    return -np.take_along_axis(log_softmax(z), target[..., None], axis=-1)[..., 0]


def _dneglogp(z: np.ndarray, target: np.ndarray, width: int) -> np.ndarray:
    """d _neglogp / d z."""
    if width == 1:
        return sigmoid(z) - target
    return softmax(z) - np.eye(width, dtype=np.float64)[target]


# --------------------------------------------------------------------------
# models
# --------------------------------------------------------------------------


class Model:
    """One forward and one backward pass for every architecture, driven by
    the class's heads table of (head, encoder, width): each head reads one
    encoder (heads may share one) into `width` logits per article.
    Subclasses give _loss their targets; forward reads each head out
    through a sigmoid, which joint overrides with its softmax.

    params maps dotted names to float64 arrays and holds every weight, the
    hashed bag-of-words tables ("<encoder>.emb") included; every shape
    (articles, hidden, dim, buckets) is read off them. The vector table
    decides the encoder: a model given precomputed `vectors` reads every
    encoder from them and has no table, one without reads its tables.
    max_tokens is the token limit its tables were trained with, 0 without
    tables; checkpoints record it, and the model's datasets are tokenized
    exactly when it is above 0 (Dataset.build).
    """

    arch = ""
    heads: tuple[tuple[str, str, int], ...] = ()

    def __init__(
        self,
        index: ArticleIndex,
        params: dict[str, np.ndarray],
        max_tokens: int,
        vectors: PrecomputedEncoder | None,
    ) -> None:
        self.index = index
        self.params = params
        self.max_tokens = max_tokens
        self.vectors = vectors
        self.clamp_warnings = 0

    @property
    def encoder_kind(self) -> str:
        return "hashed_bow" if self.vectors is None else "precomputed"

    @property
    def vocab_buckets(self) -> int:
        """Embedding table rows, 0 without tables (compact while train() runs)."""
        return next((len(p) for n, p in self.params.items() if n.endswith(".emb")), 0)

    def param_count(self) -> int:
        return sum(int(p.size) for p in self.params.values())

    def _encode(self, batch, bag: Bag | None, name: str) -> np.ndarray:
        if bag is None:
            return self.vectors.encode_ids(batch.case_ids)
        return encoder.bow_encode(bag, self.params[f"{name}.emb"])

    def _dropout(self, x, rate, rng):
        if rate <= 0.0:
            return x, None
        if rng is None:
            raise ValueError("dropout requires a random generator")
        mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
        return x * mask, mask

    def _clamp(self, neglogp: np.ndarray) -> np.ndarray:
        """Replace infinite -log p entries (probability exactly 0 at a gold
        label) with the floor, counting each event."""
        bad = np.isinf(neglogp)
        n = int(bad.sum())
        if n:
            self.clamp_warnings += n
            log.warning("clamped %d zero probabilities at gold labels", n)
            neglogp = np.where(bad, _NEGLOG_FLOOR, neglogp)
        return neglogp

    def _logits(self, batch, dropout=0.0, rng=None, cache=None) -> dict[str, np.ndarray]:
        """{head: logits}. Each encoder is encoded and dropped out once, in
        declaration order, which fixes the order of the dropout draws. The
        batch's Bag is built once and shared by every encoder and, through
        the cache, the backward pass."""
        cache = {} if cache is None else cache
        bag = cache["bag"] = Bag.of(batch.tokens) if self.vectors is None else None
        xs = cache["x"] = {name: self._dropout(self._encode(batch, bag, name), dropout, rng)
                           for name in _encoder_names(type(self))}
        logits = {}
        for head, enc, width in self.heads:
            cache[head], logits[head] = _head_forward(
                self.params[f"{head}.hidden_w"], self.params[f"{head}.out_w"], xs[enc][0], width
            )
        return logits

    def _backward(self, cache, dlogits: dict[str, np.ndarray]) -> dict:
        """Gradients of every parameter from {head: d loss / d logits}.

        Heads that read the same encoder add their dx before its dropout
        mask is applied. Embedding gradients are dense over the table;
        precomputed encoders have none."""
        grads: dict = {}
        dxs: dict[str, np.ndarray] = {}
        for head, enc, width in self.heads:
            d_out, d_hidden, dx = _head_backward(
                dlogits[head], cache["x"][enc][0], self.params[f"{head}.hidden_w"],
                self.params[f"{head}.out_w"], cache[head], width,
            )
            grads[f"{head}.hidden_w"] = d_hidden
            grads[f"{head}.out_w"] = d_out
            dxs[enc] = dxs[enc] + dx if enc in dxs else dx
        if self.vectors is None:
            for enc, dx in dxs.items():
                mask = cache["x"][enc][1]
                emb = self.params[f"{enc}.emb"]
                grads[f"{enc}.emb"] = encoder.bow_backward(
                    cache["bag"], dx if mask is None else dx * mask, len(emb)
                )
        return grads

    def forward(self, batch) -> tuple[np.ndarray, ...]:
        """One sigmoid per head, in heads-table order, each (B, K), no
        dropout: (p_pos, p_neg) for the baselines, (p_claim,
        p_pos_given_claim) for claim_outcome."""
        z = self._logits(batch)
        return tuple(sigmoid(z[head]) for head, _, _ in self.heads)

    def _loss(self, batch, dropout, rng, want_grads, targets):
        """Summed -log p of each head's gold target (_neglogp), averaged
        over the batch, and its gradients. targets maps each head to
        (target, weight), the weight 1.0 or, on a width-1 head, per cell; a
        weight-0 cell adds no loss and no gradient, so its logit may be
        anything, infinite included."""
        cache: dict = {}
        z = self._logits(batch, dropout, rng, cache)
        b = max(len(batch.case_ids), 1)
        width = {head: n for head, _, n in self.heads}
        terms = [self._clamp(np.where(w > 0, _neglogp(z[h], t, width[h]), 0.0))
                 for h, (t, w) in targets.items()]
        # Starting the sum from terms[0], not 0, keeps a -0.0 cell -0.0.
        loss = float(sum(terms[1:], terms[0]).sum() / b)
        if not want_grads:
            return loss, None
        dz = {h: (_dneglogp(z[h], t, width[h]) * w) / b for h, (t, w) in targets.items()}
        return loss, self._backward(cache, dz)

    def nll(self, batch) -> float:
        loss, _ = self.loss_and_grads(batch, dropout=0.0, rng=None, want_grads=False)
        return loss

    # subclasses implement loss_and_grads(batch, dropout, rng, want_grads)


def _targets(batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    labels = np.asarray(batch.labels)
    pos_t = (labels == Outcome.POS).astype(np.float64)
    neg_t = (labels == Outcome.NEG).astype(np.float64)
    claim_t = (labels != Outcome.NULL).astype(np.float64)
    return pos_t, neg_t, claim_t


class _TwoHeadModel(Model):
    """The loss of the simple and mtl baselines: two independent binary
    cross-entropies, one for the positive head and one for the negative."""

    def loss_and_grads(self, batch, dropout=0.0, rng=None, want_grads=True):
        pos_t, neg_t, _ = _targets(batch)
        targets = {"pos": (pos_t, 1.0), "neg": (neg_t, 1.0)}
        return self._loss(batch, dropout, rng, want_grads, targets)


class SimpleBaseline(_TwoHeadModel):
    """Two independent binary classifiers, each with its own encoder."""

    arch = "simple"
    heads = (("pos", "pos_enc", 1), ("neg", "neg_enc", 1))


class MTLBaseline(_TwoHeadModel):
    """The same two binary heads reading one shared encoder."""

    arch = "mtl"
    heads = (("pos", "enc", 1), ("neg", "enc", 1))


class JointModel(Model):
    """Per-article 3-way softmax over the admissible configurations."""

    arch = "joint"
    heads = (("joint", "enc", 3),)

    def forward(self, batch) -> np.ndarray:
        """(B, K, 3) probabilities ordered (POS, NEG, NULL), no dropout."""
        return softmax(self._logits(batch)["joint"])

    def outcome_distribution(self, batch) -> np.ndarray:
        return self.forward(batch)

    def predict_labels(self, batch) -> np.ndarray:
        return decide(self.forward(batch))

    def loss_and_grads(self, batch, dropout=0.0, rng=None, want_grads=True):
        targets = {"joint": (np.asarray(batch.labels, dtype=np.int64), 1.0)}
        return self._loss(batch, dropout, rng, want_grads, targets)


class ClaimOutcomeModel(Model):
    """Claim head and outcome-given-claim head on separate encoders.

    The outcome head only receives loss on claimed articles (its weight is
    the claim target); together the two binary losses are the exact
    negative log of the factorized joint."""

    arch = "claim_outcome"
    heads = (("claim", "claim_enc", 1), ("outcome", "outcome_enc", 1))

    def outcome_distribution(self, batch) -> np.ndarray:
        p_claim, p_pos_given_claim = self.forward(batch)
        return marginalize(p_pos_given_claim, p_claim)

    def predict_labels(self, batch) -> np.ndarray:
        return decide(self.outcome_distribution(batch))

    def loss_and_grads(self, batch, dropout=0.0, rng=None, want_grads=True):
        pos_t, _, claim_t = _targets(batch)
        targets = {"claim": (claim_t, 1.0), "outcome": (pos_t, claim_t)}
        return self._loss(batch, dropout, rng, want_grads, targets)


# --------------------------------------------------------------------------
# construction and checkpoints
# --------------------------------------------------------------------------

_MODEL_CLASSES = {cls.arch: cls for cls in (SimpleBaseline, MTLBaseline, JointModel,
                                              ClaimOutcomeModel)}
ARCHITECTURES = tuple(_MODEL_CLASSES)


def _encoder_names(cls: type[Model]) -> tuple[str, ...]:
    """The encoders a heads table reads, in order of first use."""
    return tuple(dict.fromkeys(enc for _, enc, _ in cls.heads))


def _param_table(
    cls: type[Model], n_articles: int, hidden: int, dim: int, vocab_buckets: int, tables: bool
) -> dict[str, tuple[tuple[int, ...], float]]:
    """Every parameter array an architecture has, in initialization order
    (embedding tables if `tables`, then heads in declaration order), with
    its shape and the bound of its uniform initialization."""
    table: dict[str, tuple[tuple[int, ...], float]] = {}
    if tables:
        # Mean pooling over N tokens shrinks feature magnitude roughly by
        # 1/sqrt(N); a fixed +-0.5 init keeps pooled features at a scale the
        # heads can learn from within a short epoch budget.
        for enc in _encoder_names(cls):
            table[f"{enc}.emb"] = (vocab_buckets, dim), 0.5
    # Every head weight is uniform in +-1/sqrt(fan-in), its last axis.
    for head, _, width in cls.heads:
        table[f"{head}.hidden_w"] = (n_articles, hidden, dim), 1.0 / np.sqrt(dim)
        out = (n_articles, hidden) if width == 1 else (n_articles, width, hidden)
        table[f"{head}.out_w"] = out, 1.0 / np.sqrt(hidden)
    return table


def build_model(
    arch: str,
    index: ArticleIndex,
    rng: np.random.Generator,
    dim: int = SHAPE_DEFAULTS["dim"],
    hidden: int = SHAPE_DEFAULTS["hidden"],
    vocab_buckets: int = SHAPE_DEFAULTS["vocab_buckets"],
    max_tokens: int = SHAPE_DEFAULTS["max_tokens"],
    vectors: PrecomputedEncoder | None = None,
) -> Model:
    """Create a freshly initialized model. Weights are drawn in _param_table
    order, so a seed pins every weight. The vector table decides the
    encoder: given `vectors`, the model reads them, takes its dim from them
    and has no embedding tables (vocab_buckets and max_tokens are unused);
    without, it trains hashed bag-of-words tables. A shape below 1, or too
    large for memory, is a UsageError."""
    if arch not in _MODEL_CLASSES:
        raise DataError(f"unknown architecture {arch!r}; expected one of {ARCHITECTURES}")
    if vectors is not None:
        dim, max_tokens = vectors.dim, 0
    shape = {"hidden": hidden, "dim": dim}
    if vectors is None:
        shape["vocab_buckets"] = vocab_buckets
    for name, value in shape.items():
        if value < 1:
            raise UsageError(f"{name} must be >= 1, got {value}")
    cls = _MODEL_CLASSES[arch]
    table = _param_table(cls, len(index), hidden, dim, vocab_buckets, vectors is None)
    params = {}
    for name, (shape, bound) in table.items():
        try:
            params[name] = rng.uniform(-bound, bound, size=shape)
        except (MemoryError, ValueError) as exc:
            # numpy refuses a size past its limit with "array is too big"
            # and raises MemoryError when the allocation fails.
            if isinstance(exc, ValueError) and "array is too big" not in str(exc):
                raise
            raise UsageError(f"{name} of shape {shape} does not fit in memory") from exc
    return cls(index, params, max_tokens, vectors)


def save_checkpoint(model: Model, path: str | Path, extra_meta: dict | None = None) -> None:
    """Self-describing container: a JSON metadata entry plus every weight
    array under its parameter name."""
    _, hidden, dim = model.params[f"{model.heads[0][0]}.hidden_w"].shape
    meta = {
        "version": CHECKPOINT_VERSION,
        "arch": model.arch,
        "articles": list(model.index.articles),
        "hidden": hidden,
        "encoder_kind": model.encoder_kind,
        "dim": dim,
        "max_tokens": model.max_tokens,
        "vocab_buckets": model.vocab_buckets,
    }
    if extra_meta:
        meta.update(extra_meta)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # savez on a file object, not a path: the path form appends ".npz".
    with path.open("wb") as fh:
        np.savez(fh, _meta=np.asarray(json.dumps(meta, sort_keys=True)), **model.params)


def _open_npz(p: Path, fh) -> np.lib.npyio.NpzFile:
    """np.load over an open handle (np.load leaks a handle it opened itself
    when the zip directory is unreadable); anything but an .npz archive is
    a DataError."""
    try:
        data = np.load(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"{p} is not a model checkpoint (not an .npz archive)") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise DataError(f"{p} is not a model checkpoint (not an .npz archive)")
    return data


def _read_weights(p: Path, data: np.lib.npyio.NpzFile, name: str) -> np.ndarray:
    """One stored parameter as float64; anything but finite real floating
    point (strings, complex, NaN, an object array) is a DataError."""
    bad = DataError(f"{p}: {name} must hold finite real floating-point values")
    try:
        array = data[name]
    except ValueError as exc:  # an object array, which allow_pickle=False refuses
        raise bad from exc
    if array.dtype.kind != "f" or not np.isfinite(array).all():
        raise bad
    return np.asarray(array, dtype=np.float64)


def load_checkpoint(path: str | Path, vectors: PrecomputedEncoder | None = None) -> Model:
    """Read a checkpoint written by save_checkpoint. Every parameter the
    metadata implies must be present with its shape, and nothing else; every
    array must hold finite real floating-point values. A precomputed
    checkpoint needs `vectors` of its dim, a hashed_bow one refuses them."""
    p = Path(path)
    if not p.is_file():
        raise DataError(f"checkpoint not found: {p}")
    with p.open("rb") as fh, _open_npz(p, fh) as data:
        if "_meta" not in data:
            raise DataError(f"{p} is not a model checkpoint (no metadata entry)")
        try:
            meta = json.loads(str(data["_meta"]))
        except json.JSONDecodeError as exc:
            raise DataError(f"{p}: checkpoint metadata is not JSON ({exc.msg})") from exc
        if not isinstance(meta, dict):
            raise DataError(f"{p}: checkpoint metadata is not a JSON object")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise DataError(
                f"{p}: unsupported checkpoint version {meta.get('version')!r}"
            )
        arch = meta.get("arch")
        if arch not in _MODEL_CLASSES:
            raise DataError(f"{p}: unknown architecture {arch!r}")
        try:
            index = ArticleIndex(tuple(int(a) for a in meta["articles"]))
            hidden, dim = int(meta["hidden"]), int(meta["dim"])
            vocab_buckets, max_tokens = int(meta["vocab_buckets"]), int(meta["max_tokens"])
            encoder_kind = meta["encoder_kind"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{p}: malformed checkpoint metadata ({exc!r})") from exc
        params = {name: _read_weights(p, data, name) for name in data.files if name != "_meta"}
    if encoder_kind not in ("hashed_bow", "precomputed"):
        raise DataError(f"{p}: unknown encoder kind {encoder_kind!r}")
    cls = _MODEL_CLASSES[arch]
    tables = encoder_kind == "hashed_bow"
    # Dataset.build tokenizes exactly when max_tokens > 0, that is, for a
    # model with tables.
    if tables != (max_tokens > 0):
        raise DataError(f"{p}: max_tokens {max_tokens} does not fit a {encoder_kind} checkpoint")
    expected = _param_table(cls, len(index), hidden, dim, vocab_buckets, tables)
    for name, (shape, _) in expected.items():
        if name not in params:
            raise DataError(f"{p}: missing weights for {name}")
        if params[name].shape != shape:
            raise DataError(
                f"{p}: {name} has shape {params[name].shape}, expected {shape}"
            )
    unexpected = sorted(set(params) - set(expected))
    if unexpected:
        raise DataError(f"{p}: unexpected arrays {', '.join(unexpected)}")
    if tables:
        if vectors is not None:
            raise DataError(f"{p}: a hashed_bow checkpoint takes no vector table")
    elif vectors is None:
        raise DataError(f"{p}: precomputed checkpoint needs a vector table")
    elif vectors.dim != dim:
        raise DataError(f"{p}: vector table has dimension {vectors.dim}, "
                        f"the checkpoint expects {dim}")
    return cls(index, params, max_tokens, vectors)
