"""The four prediction architectures and their probability algebra.

Every architecture maps a facts encoding x through per-article heads built
from one hidden ReLU layer:

  simple baseline  two independent binary heads (positive, negative), each
                   with its own encoder
  mtl baseline     the same two binary heads sharing one encoder
  joint            one 3-way softmax per article over the admissible
                   (outcome, claim) configurations (POS,y), (NEG,y), (NULL,n)
  claim-outcome    a claim head p(claim|f) and an outcome head
                   p(POS|claim,f) on separate encoders, multiplied out to a
                   3-way distribution

Probability vectors are float64 arrays whose last axis is ordered
(POS, NEG, NULL); argmax over that axis implements the POS > NEG > NULL
tie-break. All backward passes are written out by hand so they can be
audited coordinate-by-coordinate against finite differences.
"""

from __future__ import annotations

import json
import logging
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


def _init_hidden(rng: np.random.Generator, n_articles: int, hidden: int, dim: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(dim)
    return rng.uniform(-bound, bound, size=(n_articles, hidden, dim))


def _init_scalar_out(rng: np.random.Generator, n_articles: int, hidden: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(hidden)
    return rng.uniform(-bound, bound, size=(n_articles, hidden))


def _init_triple_out(rng: np.random.Generator, n_articles: int, hidden: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(hidden)
    return rng.uniform(-bound, bound, size=(n_articles, 3, hidden))


def _hidden_forward(hidden_w: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pre = np.einsum("khd,bd->bkh", hidden_w, x)
    return pre, np.maximum(pre, 0.0)


def _scalar_head(out_w: np.ndarray, hid: np.ndarray) -> np.ndarray:
    return np.einsum("kh,bkh->bk", out_w, hid)


def _triple_head(out_w: np.ndarray, hid: np.ndarray) -> np.ndarray:
    return np.einsum("koh,bkh->bko", out_w, hid)


def _scalar_head_backward(dz, x, hidden_w, out_w, pre, hid):
    """dz: (B,K) upstream on the scalar logit. Returns grads and dx."""
    d_out = np.einsum("bk,bkh->kh", dz, hid)
    dpre = (dz[:, :, None] * out_w[None, :, :]) * (pre > 0)
    d_hidden = np.einsum("bkh,bd->khd", dpre, x)
    dx = np.einsum("bkh,khd->bd", dpre, hidden_w)
    return d_out, d_hidden, dx


def _triple_head_backward(dlogits, x, hidden_w, out_w, pre, hid):
    """dlogits: (B,K,3) upstream. Returns grads and dx."""
    d_out = np.einsum("bko,bkh->koh", dlogits, hid)
    dpre = np.einsum("koh,bko->bkh", out_w, dlogits) * (pre > 0)
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
    """Shared plumbing: encoders, the parameter dict, checkpoint metadata.

    params maps dotted names to float64 arrays and is the single source of
    truth; trainable encoder embeddings are aliased into it, so optimizer
    updates must modify arrays in place.
    """

    arch = ""

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
    def n_articles(self) -> int:
        return len(self.index)

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

    def zero_grads(self) -> dict[str, np.ndarray]:
        """Zero gradients for the heads. Embedding gradients are row-sparse
        (encoder.RowGrad) and come from bow_backward whole."""
        return {name: np.zeros_like(p) for name, p in self.params.items()
                if not name.endswith(".emb")}

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
    """Common forward/backward for the simple and mtl baselines; they differ
    only in whether the two heads share an encoder."""

    pos_enc = "enc"
    neg_enc = "enc"

    def _logits(self, batch, dropout=0.0, rng=None, cache=None):
        shared = self.neg_enc == self.pos_enc
        x_pos, mask_pos = self._dropout(self._encode(batch, self.pos_enc), dropout, rng)
        if shared:
            x_neg, mask_neg = x_pos, mask_pos
        else:
            x_neg, mask_neg = self._dropout(self._encode(batch, self.neg_enc), dropout, rng)
        p = self.params
        pre_pos, hid_pos = _hidden_forward(p["pos.hidden_w"], x_pos)
        pre_neg, hid_neg = _hidden_forward(p["neg.hidden_w"], x_neg)
        z_pos = _scalar_head(p["pos.out_w"], hid_pos)
        z_neg = _scalar_head(p["neg.out_w"], hid_neg)
        if cache is not None:
            cache.update(
                x_pos=x_pos, x_neg=x_neg, mask_pos=mask_pos, mask_neg=mask_neg,
                pre_pos=pre_pos, hid_pos=hid_pos, pre_neg=pre_neg, hid_neg=hid_neg,
            )
        return z_pos, z_neg

    def forward(self, batch) -> tuple[np.ndarray, np.ndarray]:
        """Independent per-article probabilities (p_pos, p_neg), no dropout."""
        z_pos, z_neg = self._logits(batch)
        return sigmoid(z_pos), sigmoid(z_neg)

    def predict_pairs(self, batch, threshold: float = 0.5):
        p_pos, p_neg = self.forward(batch)
        return decide_baseline(p_pos, p_neg, threshold)

    def loss_and_grads(self, batch, dropout=0.0, rng=None, want_grads=True):
        cache: dict = {}
        z_pos, z_neg = self._logits(batch, dropout, rng, cache)
        pos_t, neg_t, _ = _targets(batch)
        b = max(len(batch.case_ids), 1)
        neglogp = self._clamp(_bce_neglogp(z_pos, pos_t)) + self._clamp(
            _bce_neglogp(z_neg, neg_t)
        )
        loss = float(neglogp.sum() / b)
        if not want_grads:
            return loss, None
        grads = self.zero_grads()
        p = self.params
        dz_pos = (sigmoid(z_pos) - pos_t) / b
        dz_neg = (sigmoid(z_neg) - neg_t) / b
        d_out, d_hidden, dx_pos = _scalar_head_backward(
            dz_pos, cache["x_pos"], p["pos.hidden_w"], p["pos.out_w"],
            cache["pre_pos"], cache["hid_pos"],
        )
        grads["pos.out_w"] += d_out
        grads["pos.hidden_w"] += d_hidden
        d_out, d_hidden, dx_neg = _scalar_head_backward(
            dz_neg, cache["x_neg"], p["neg.hidden_w"], p["neg.out_w"],
            cache["pre_neg"], cache["hid_neg"],
        )
        grads["neg.out_w"] += d_out
        grads["neg.hidden_w"] += d_hidden
        self._encoder_backward(batch, grads, cache, dx_pos, dx_neg)
        return loss, grads

    def _encoder_backward(self, batch, grads, cache, dx_pos, dx_neg):
        raise NotImplementedError


class SimpleBaseline(_TwoHeadModel):
    """Two independent binary classifiers, each with its own encoder."""

    arch = "simple"
    pos_enc = "pos_enc"
    neg_enc = "neg_enc"

    def _encoder_backward(self, batch, grads, cache, dx_pos, dx_neg):
        if self.encoder_kind != "hashed_bow":
            return
        if cache["mask_pos"] is not None:
            dx_pos = dx_pos * cache["mask_pos"]
            dx_neg = dx_neg * cache["mask_neg"]
        grads["pos_enc.emb"] = self._emb_grad(batch, "pos_enc", dx_pos)
        grads["neg_enc.emb"] = self._emb_grad(batch, "neg_enc", dx_neg)


class MTLBaseline(_TwoHeadModel):
    """The same two binary heads reading one shared encoder."""

    arch = "mtl"
    pos_enc = "enc"
    neg_enc = "enc"

    def _encoder_backward(self, batch, grads, cache, dx_pos, dx_neg):
        if self.encoder_kind != "hashed_bow":
            return
        dx = dx_pos + dx_neg
        if cache["mask_pos"] is not None:
            dx = dx * cache["mask_pos"]
        grads["enc.emb"] = self._emb_grad(batch, "enc", dx)


class JointModel(Model):
    """Per-article 3-way softmax over the admissible configurations."""

    arch = "joint"

    def _logits(self, batch, dropout=0.0, rng=None, cache=None):
        x = self._encode(batch, "enc")
        x, mask = self._dropout(x, dropout, rng)
        pre, hid = _hidden_forward(self.params["joint.hidden_w"], x)
        logits = _triple_head(self.params["joint.out_w"], hid)
        if cache is not None:
            cache.update(x=x, mask=mask, pre=pre, hid=hid)
        return logits

    def forward(self, batch) -> np.ndarray:
        """(B, K, 3) probabilities ordered (POS, NEG, NULL), no dropout."""
        return softmax(self._logits(batch))

    def outcome_distribution(self, batch) -> np.ndarray:
        return self.forward(batch)

    def predict_labels(self, batch) -> np.ndarray:
        return decide(self.forward(batch))

    def loss_and_grads(self, batch, dropout=0.0, rng=None, want_grads=True):
        cache: dict = {}
        logits = self._logits(batch, dropout, rng, cache)
        labels = np.asarray(batch.labels, dtype=np.int64)
        b = max(len(batch.case_ids), 1)
        logp = log_softmax(logits)
        gold = np.take_along_axis(logp, labels[:, :, None], axis=2)[:, :, 0]
        neglogp = self._clamp(-gold)
        loss = float(neglogp.sum() / b)
        if not want_grads:
            return loss, None
        grads = self.zero_grads()
        onehot = np.eye(3, dtype=np.float64)[labels]
        dlogits = (softmax(logits) - onehot) / b
        d_out, d_hidden, dx = _triple_head_backward(
            dlogits, cache["x"], self.params["joint.hidden_w"],
            self.params["joint.out_w"], cache["pre"], cache["hid"],
        )
        grads["joint.out_w"] += d_out
        grads["joint.hidden_w"] += d_hidden
        if self.encoder_kind == "hashed_bow":
            if cache["mask"] is not None:
                dx = dx * cache["mask"]
            grads["enc.emb"] = self._emb_grad(batch, "enc", dx)
        return loss, grads


class ClaimOutcomeModel(Model):
    """Claim head and outcome-given-claim head on separate encoders.

    The outcome head only receives loss on claimed articles; together the
    two binary losses are the exact negative log of the factorized joint."""

    arch = "claim_outcome"

    def _logits(self, batch, dropout=0.0, rng=None, cache=None):
        x_claim = self._encode(batch, "claim_enc")
        x_out = self._encode(batch, "outcome_enc")
        x_claim, mask_claim = self._dropout(x_claim, dropout, rng)
        x_out, mask_out = self._dropout(x_out, dropout, rng)
        p = self.params
        pre_c, hid_c = _hidden_forward(p["claim.hidden_w"], x_claim)
        pre_o, hid_o = _hidden_forward(p["outcome.hidden_w"], x_out)
        z_claim = _scalar_head(p["claim.out_w"], hid_c)
        z_out = _scalar_head(p["outcome.out_w"], hid_o)
        if cache is not None:
            cache.update(
                x_claim=x_claim, x_out=x_out, mask_claim=mask_claim, mask_out=mask_out,
                pre_c=pre_c, hid_c=hid_c, pre_o=pre_o, hid_o=hid_o,
            )
        return z_claim, z_out

    def forward(self, batch) -> tuple[np.ndarray, np.ndarray]:
        """(p_claim, p_pos_given_claim), each (B, K), no dropout."""
        z_claim, z_out = self._logits(batch)
        return sigmoid(z_claim), sigmoid(z_out)

    def outcome_distribution(self, batch) -> np.ndarray:
        p_claim, p_pos_given_claim = self.forward(batch)
        return marginalize(p_pos_given_claim, p_claim)

    def predict_labels(self, batch) -> np.ndarray:
        return decide(self.outcome_distribution(batch))

    def loss_and_grads(self, batch, dropout=0.0, rng=None, want_grads=True):
        cache: dict = {}
        z_claim, z_out = self._logits(batch, dropout, rng, cache)
        pos_t, _, claim_t = _targets(batch)
        b = max(len(batch.case_ids), 1)
        neglogp_claim = self._clamp(_bce_neglogp(z_claim, claim_t))
        outcome_term = np.where(claim_t > 0, _bce_neglogp(z_out, pos_t), 0.0)
        neglogp = neglogp_claim + self._clamp(outcome_term)
        loss = float(neglogp.sum() / b)
        if not want_grads:
            return loss, None
        grads = self.zero_grads()
        p = self.params
        dz_claim = (sigmoid(z_claim) - claim_t) / b
        dz_out = ((sigmoid(z_out) - pos_t) * claim_t) / b
        d_out, d_hidden, dx_claim = _scalar_head_backward(
            dz_claim, cache["x_claim"], p["claim.hidden_w"], p["claim.out_w"],
            cache["pre_c"], cache["hid_c"],
        )
        grads["claim.out_w"] += d_out
        grads["claim.hidden_w"] += d_hidden
        d_out, d_hidden, dx_out = _scalar_head_backward(
            dz_out, cache["x_out"], p["outcome.hidden_w"], p["outcome.out_w"],
            cache["pre_o"], cache["hid_o"],
        )
        grads["outcome.out_w"] += d_out
        grads["outcome.hidden_w"] += d_hidden
        if self.encoder_kind == "hashed_bow":
            if cache["mask_claim"] is not None:
                dx_claim = dx_claim * cache["mask_claim"]
                dx_out = dx_out * cache["mask_out"]
            grads["claim_enc.emb"] = self._emb_grad(batch, "claim_enc", dx_claim)
            grads["outcome_enc.emb"] = self._emb_grad(batch, "outcome_enc", dx_out)
        return loss, grads


# --------------------------------------------------------------------------
# construction and checkpoints
# --------------------------------------------------------------------------

_ENCODER_NAMES = {
    "simple": ("pos_enc", "neg_enc"),
    "mtl": ("enc",),
    "joint": ("enc",),
    "claim_outcome": ("claim_enc", "outcome_enc"),
}

_HEAD_NAMES = {
    "simple": ("pos", "neg"),
    "mtl": ("pos", "neg"),
    "joint": ("joint",),
    "claim_outcome": ("claim", "outcome"),
}

_MODEL_CLASSES = {
    "simple": SimpleBaseline,
    "mtl": MTLBaseline,
    "joint": JointModel,
    "claim_outcome": ClaimOutcomeModel,
}


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
    k = len(index)
    params: dict[str, np.ndarray] = {}
    encoders: dict[str, HashedBowEncoder | PrecomputedEncoder] = {}
    for enc_name in _ENCODER_NAMES[arch]:
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
    for head in _HEAD_NAMES[arch]:
        params[f"{head}.hidden_w"] = _init_hidden(rng, k, hidden, dim)
        if head == "joint":
            params[f"{head}.out_w"] = _init_triple_out(rng, k, hidden)
        else:
            params[f"{head}.out_w"] = _init_scalar_out(rng, k, hidden)
    return _MODEL_CLASSES[arch](index=index, hidden=hidden, encoders=encoders, params=params)


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
    arch: str, n_articles: int, hidden: int, dim: int, vocab_buckets: int, encoder_kind: str
) -> dict[str, tuple[int, ...]]:
    """Every parameter array an architecture has, with its shape."""
    shapes: dict[str, tuple[int, ...]] = {}
    if encoder_kind == "hashed_bow":
        for enc_name in _ENCODER_NAMES[arch]:
            shapes[f"{enc_name}.emb"] = (vocab_buckets, dim)
    for head in _HEAD_NAMES[arch]:
        shapes[f"{head}.hidden_w"] = (n_articles, hidden, dim)
        out = (n_articles, 3, hidden) if head == "joint" else (n_articles, hidden)
        shapes[f"{head}.out_w"] = out
    return shapes


def load_checkpoint(path: str | Path, vectors: PrecomputedEncoder | None = None) -> Model:
    """Read a checkpoint written by save_checkpoint. Every parameter the
    metadata implies must be present with its shape, and nothing else."""
    p = Path(path)
    if not p.is_file():
        raise DataError(f"checkpoint not found: {p}")
    with np.load(p, allow_pickle=False) as data:
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
    expected = _param_shapes(arch, len(index), hidden, dim, vocab_buckets, encoder_kind)
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
    for enc_name in _ENCODER_NAMES[arch]:
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
    model = _MODEL_CLASSES[arch](index=index, hidden=hidden, encoders=encoders, params=params)
    model.checkpoint_meta = meta
    return model
