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

import json
import logging
import zipfile
from pathlib import Path

import numpy as np

from .corpus import ArticleIndex, Outcome
from .encoder import HashedBowEncoder, PrecomputedEncoder
from .errors import DataError

log = logging.getLogger(__name__)

CHECKPOINT_VERSION = 1
ARCHITECTURES = ("simple", "mtl", "joint", "claim_outcome")

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


def decide_baseline(
    p_pos: np.ndarray, p_neg: np.ndarray, threshold: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Independent strict-threshold decisions. Both flags may be true for
    the same cell; the baselines have no mechanism forbidding it."""
    return p_pos > threshold, p_neg > threshold


# --------------------------------------------------------------------------
# head math
# --------------------------------------------------------------------------

# einsum subscripts of a head's output weights and logits by width: a
# scalar head has out_w (K, H) and logits (B, K), a triple head out_w
# (K, 3, H) and logits (B, K, 3).
_OUT_SUBSCRIPTS = {1: ("kh", "bk"), 3: ("koh", "bko")}


def _head_forward(hidden_w, out_w, x, width):
    """Per-article hidden ReLU layer, then the output layer. Returns the
    hidden activation and the logits."""
    w, z = _OUT_SUBSCRIPTS[width]
    hid = np.einsum("khd,bd->bkh", hidden_w, x)
    np.maximum(hid, 0.0, out=hid)
    return hid, np.einsum(f"{w},bkh->{z}", out_w, hid)


def _head_backward(dlogits, x, hidden_w, out_w, hid, width):
    """dlogits: upstream on the logits, (B,K) or (B,K,3). Returns grads and dx.
    hid > 0 exactly where the pre-activation is, so it gives the ReLU mask."""
    w, z = _OUT_SUBSCRIPTS[width]
    d_out = np.einsum(f"{z},bkh->{w}", dlogits, hid)
    dpre = np.einsum(f"{w},{z}->bkh", out_w, dlogits)
    dpre *= hid > 0
    d_hidden = np.einsum("bkh,bd->khd", dpre, x)
    dx = np.einsum("bkh,khd->bd", dpre, hidden_w)
    return d_out, d_hidden, dx


def _bce_neglogp(z: np.ndarray, target: np.ndarray) -> np.ndarray:
    """-log p(target) for a Bernoulli with logit z; stable for large |z|.

    Written as a single logaddexp so an infinite logit yields exactly 0 or
    +inf (which the loss clamp then catches), never 0 * inf = NaN."""
    return np.logaddexp(0.0, np.where(target > 0, -z, z))


# --------------------------------------------------------------------------
# models
# --------------------------------------------------------------------------


class Model:
    """One forward and one backward pass for every architecture, driven by
    the class's heads table of (head, encoder, width): each head reads one
    encoder (heads may share one) into `width` logits per article.
    Subclasses add the loss rule (loss_and_grads) and the read-outs.

    params maps dotted names to float64 arrays and is the single source of
    truth; trainable encoder embeddings are aliased into it, so optimizer
    updates must modify arrays in place.
    """

    arch = ""
    heads: tuple[tuple[str, str, int], ...] = ()

    def __init__(
        self,
        index: ArticleIndex,
        hidden: int,
        encoders: dict[str, HashedBowEncoder | PrecomputedEncoder],
        params: dict[str, np.ndarray],
    ) -> None:
        self.index = index
        self.hidden = hidden
        self.encoders = encoders
        self.params = params
        self.clamp_warnings = 0

    @property
    def encoder_kind(self) -> str:
        return next(iter(self.encoders.values())).kind

    def param_count(self) -> int:
        return sum(int(p.size) for p in self.params.values())

    def head_param_count(self) -> int:
        return sum(int(p.size) for name, p in self.params.items() if ".emb" not in name)

    def _encode(self, batch, name: str) -> np.ndarray:
        enc = self.encoders[name]
        if enc.kind == "hashed_bow":
            return enc.encode(batch.tokens)
        return enc.encode_ids(batch.case_ids)

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
        declaration order, which fixes the order of the dropout draws."""
        cache = {} if cache is None else cache
        xs = cache["x"] = {name: self._dropout(self._encode(batch, name), dropout, rng)
                           for name in self.encoders}
        logits = {}
        for head, enc, width in self.heads:
            cache[head], logits[head] = _head_forward(
                self.params[f"{head}.hidden_w"], self.params[f"{head}.out_w"], xs[enc][0], width
            )
        return logits

    def _backward(self, batch, cache, dlogits: dict[str, np.ndarray]) -> dict:
        """Gradients of every parameter from {head: d loss / d logits}.

        Heads that read the same encoder add their dx before its dropout
        mask is applied. Embedding gradients are row-sparse
        (encoder.RowGrad); precomputed encoders have none."""
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
        if self.encoder_kind == "hashed_bow":
            for enc, dx in dxs.items():
                mask = cache["x"][enc][1]
                grads[f"{enc}.emb"] = self._emb_grad(batch, enc, dx if mask is None else dx * mask)
        return grads

    def _emb_grad(self, batch, name: str, dx: np.ndarray):
        from .encoder import bow_backward  # looked up per call, so it can be wrapped

        return bow_backward(batch.tokens, dx, self.encoders[name].vocab_buckets)

    def nll(self, batch) -> float:
        loss, _ = self.loss_and_grads(batch, dropout=0.0, rng=None, want_grads=False)
        return loss

    # subclasses implement loss_and_grads(batch, dropout, rng, want_grads)


def _targets(batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    labels = np.asarray(batch.labels)
    pos_t = (labels == Outcome.POS).astype(np.float64)
    neg_t = (labels == Outcome.NEG).astype(np.float64)
    claim_t = np.asarray(batch.claims).astype(np.float64)
    return pos_t, neg_t, claim_t


class _TwoHeadModel(Model):
    """The loss of the simple and mtl baselines: two independent binary
    cross-entropies, one for the positive head and one for the negative."""

    def forward(self, batch) -> tuple[np.ndarray, np.ndarray]:
        """Independent per-article probabilities (p_pos, p_neg), no dropout."""
        z = self._logits(batch)
        return sigmoid(z["pos"]), sigmoid(z["neg"])

    def predict_pairs(self, batch, threshold: float = 0.5):
        p_pos, p_neg = self.forward(batch)
        return decide_baseline(p_pos, p_neg, threshold)

    def loss_and_grads(self, batch, dropout=0.0, rng=None, want_grads=True):
        cache: dict = {}
        z = self._logits(batch, dropout, rng, cache)
        pos_t, neg_t, _ = _targets(batch)
        b = max(len(batch.case_ids), 1)
        neglogp = self._clamp(_bce_neglogp(z["pos"], pos_t)) + self._clamp(
            _bce_neglogp(z["neg"], neg_t)
        )
        loss = float(neglogp.sum() / b)
        if not want_grads:
            return loss, None
        dz = {"pos": (sigmoid(z["pos"]) - pos_t) / b, "neg": (sigmoid(z["neg"]) - neg_t) / b}
        return loss, self._backward(batch, cache, dz)


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
        cache: dict = {}
        logits = self._logits(batch, dropout, rng, cache)["joint"]
        labels = np.asarray(batch.labels, dtype=np.int64)
        b = max(len(batch.case_ids), 1)
        logp = log_softmax(logits)
        gold = np.take_along_axis(logp, labels[:, :, None], axis=2)[:, :, 0]
        neglogp = self._clamp(-gold)
        loss = float(neglogp.sum() / b)
        if not want_grads:
            return loss, None
        onehot = np.eye(3, dtype=np.float64)[labels]
        dlogits = (softmax(logits) - onehot) / b
        return loss, self._backward(batch, cache, {"joint": dlogits})


class ClaimOutcomeModel(Model):
    """Claim head and outcome-given-claim head on separate encoders.

    The outcome head only receives loss on claimed articles; together the
    two binary losses are the exact negative log of the factorized joint."""

    arch = "claim_outcome"
    heads = (("claim", "claim_enc", 1), ("outcome", "outcome_enc", 1))

    def forward(self, batch) -> tuple[np.ndarray, np.ndarray]:
        """(p_claim, p_pos_given_claim), each (B, K), no dropout."""
        z = self._logits(batch)
        return sigmoid(z["claim"]), sigmoid(z["outcome"])

    def outcome_distribution(self, batch) -> np.ndarray:
        p_claim, p_pos_given_claim = self.forward(batch)
        return marginalize(p_pos_given_claim, p_claim)

    def predict_labels(self, batch) -> np.ndarray:
        return decide(self.outcome_distribution(batch))

    def loss_and_grads(self, batch, dropout=0.0, rng=None, want_grads=True):
        cache: dict = {}
        z = self._logits(batch, dropout, rng, cache)
        z_claim, z_out = z["claim"], z["outcome"]
        pos_t, _, claim_t = _targets(batch)
        b = max(len(batch.case_ids), 1)
        neglogp_claim = self._clamp(_bce_neglogp(z_claim, claim_t))
        outcome_term = np.where(claim_t > 0, _bce_neglogp(z_out, pos_t), 0.0)
        neglogp = neglogp_claim + self._clamp(outcome_term)
        loss = float(neglogp.sum() / b)
        if not want_grads:
            return loss, None
        dz = {
            "claim": (sigmoid(z_claim) - claim_t) / b,
            "outcome": ((sigmoid(z_out) - pos_t) * claim_t) / b,
        }
        return loss, self._backward(batch, cache, dz)


# --------------------------------------------------------------------------
# construction and checkpoints
# --------------------------------------------------------------------------

_MODEL_CLASSES = {
    "simple": SimpleBaseline,
    "mtl": MTLBaseline,
    "joint": JointModel,
    "claim_outcome": ClaimOutcomeModel,
}


def _encoder_names(cls: type[Model]) -> tuple[str, ...]:
    """The encoders a heads table reads, in order of first use."""
    return tuple(dict.fromkeys(enc for _, enc, _ in cls.heads))


def _head_shapes(
    cls: type[Model], n_articles: int, hidden: int, dim: int
) -> dict[str, tuple[int, ...]]:
    """Each head's hidden and output weight shapes, in declaration order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for head, _, width in cls.heads:
        shapes[f"{head}.hidden_w"] = (n_articles, hidden, dim)
        out = (n_articles, hidden) if width == 1 else (n_articles, width, hidden)
        shapes[f"{head}.out_w"] = out
    return shapes


def build_model(
    arch: str,
    index: ArticleIndex,
    rng: np.random.Generator,
    dim: int = 64,
    hidden: int = 50,
    encoder_kind: str = "hashed_bow",
    vocab_buckets: int = 1 << 15,
    max_tokens: int = 512,
    vectors: PrecomputedEncoder | None = None,
) -> Model:
    """Create a freshly initialized model. Initialization order is fixed
    (encoders, then heads in declaration order) so a seed pins every weight."""
    if arch not in _MODEL_CLASSES:
        raise DataError(f"unknown architecture {arch!r}; expected one of {ARCHITECTURES}")
    cls = _MODEL_CLASSES[arch]
    params: dict[str, np.ndarray] = {}
    encoders: dict[str, HashedBowEncoder | PrecomputedEncoder] = {}
    for enc_name in _encoder_names(cls):
        if encoder_kind == "hashed_bow":
            enc = HashedBowEncoder.create(rng, vocab_buckets, dim, max_tokens)
            params[f"{enc_name}.emb"] = enc.embedding
        elif encoder_kind == "precomputed":
            if vectors is None:
                raise DataError("precomputed encoder requires a vector table")
            if vectors.dim != dim:
                dim = vectors.dim
            enc = vectors
        else:
            raise DataError(f"unknown encoder kind {encoder_kind!r}")
        encoders[enc_name] = enc
    # Every head weight is uniform in +-1/sqrt(fan-in), its last axis.
    for name, shape in _head_shapes(cls, len(index), hidden, dim).items():
        bound = 1.0 / np.sqrt(shape[-1])
        params[name] = rng.uniform(-bound, bound, size=shape)
    return cls(index=index, hidden=hidden, encoders=encoders, params=params)


def save_checkpoint(model: Model, path: str | Path, extra_meta: dict | None = None) -> None:
    """Self-describing container: a JSON metadata entry plus every weight
    array under its parameter name."""
    first_enc = next(iter(model.encoders.values()))
    meta = {
        "version": CHECKPOINT_VERSION,
        "arch": model.arch,
        "articles": list(model.index.articles),
        "hidden": model.hidden,
        "encoder_kind": model.encoder_kind,
        "dim": int(first_enc.dim),
        "max_tokens": int(getattr(first_enc, "max_tokens", 0)),
        "vocab_buckets": int(getattr(first_enc, "vocab_buckets", 0)),
    }
    if extra_meta:
        meta.update(extra_meta)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # savez on a file object, not a path: the path form appends ".npz".
    with path.open("wb") as fh:
        np.savez(fh, _meta=np.asarray(json.dumps(meta, sort_keys=True)), **model.params)


def _param_shapes(
    cls: type[Model], n_articles: int, hidden: int, dim: int, vocab_buckets: int, encoder_kind: str
) -> dict[str, tuple[int, ...]]:
    """Every parameter array an architecture has, with its shape."""
    shapes: dict[str, tuple[int, ...]] = {}
    if encoder_kind == "hashed_bow":
        for enc_name in _encoder_names(cls):
            shapes[f"{enc_name}.emb"] = (vocab_buckets, dim)
    shapes.update(_head_shapes(cls, n_articles, hidden, dim))
    return shapes


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


def load_checkpoint(path: str | Path, vectors: PrecomputedEncoder | None = None) -> Model:
    """Read a checkpoint written by save_checkpoint. Every parameter the
    metadata implies must be present with its shape, and nothing else."""
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
        params = {name: np.asarray(data[name], dtype=np.float64) for name in data.files
                  if name != "_meta"}
    if encoder_kind not in ("hashed_bow", "precomputed"):
        raise DataError(f"{p}: unknown encoder kind {encoder_kind!r}")
    cls = _MODEL_CLASSES[arch]
    expected = _param_shapes(cls, len(index), hidden, dim, vocab_buckets, encoder_kind)
    for name, shape in expected.items():
        if name not in params:
            raise DataError(f"{p}: missing weights for {name}")
        if params[name].shape != shape:
            raise DataError(
                f"{p}: {name} has shape {params[name].shape}, expected {shape}"
            )
    unexpected = sorted(set(params) - set(expected))
    if unexpected:
        raise DataError(f"{p}: unexpected arrays {', '.join(unexpected)}")
    encoders: dict[str, HashedBowEncoder | PrecomputedEncoder] = {}
    for enc_name in _encoder_names(cls):
        if encoder_kind == "hashed_bow":
            encoders[enc_name] = HashedBowEncoder(
                embedding=params[f"{enc_name}.emb"], max_tokens=max_tokens
            )
        else:
            if vectors is None:
                raise DataError(f"{p}: precomputed checkpoint needs a vector table")
            if vectors.dim != dim:
                raise DataError(f"{p}: vector table has dimension {vectors.dim}, "
                                f"the checkpoint expects {dim}")
            encoders[enc_name] = vectors
    model = cls(index=index, hidden=hidden, encoders=encoders, params=params)
    model.checkpoint_meta = meta
    return model
