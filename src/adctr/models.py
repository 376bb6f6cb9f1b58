"""CTR models over encoded impressions: auxiliary-ad aggregation (sum pooling,
self-attention, interactive attention), the fused fully-connected head, the
logistic loss, and exact manually-derived gradients for every parameter.

Five variants share one data path:

* ``lr``      - per-feature weights (a 1-dim embedding table) summed over the
                target ad's features, plus a bias, through a sigmoid.
* ``dnn``     - target-ad embedding through the FC stack.
* ``dstn-p``  - auxiliary groups aggregated by sum pooling.
* ``dstn-s``  - per-group self-attention: softmax over per-ad scalar scores
                from a one-hidden-layer MLP on the ad alone.
* ``dstn-i``  - per-group interactive attention: unnormalized positive per-ad
                weights from a one-hidden-layer MLP on [target, ad].

Forward runs are batched with padding masks over the (at most 5) ads per
auxiliary group. Backward consumes the recorded forward trace and returns the
gradient of the batch-mean loss; correctness is pinned by finite-difference
checks in the test suite.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .embedding import (AdColumns, EmbeddingTable, EncodedBatch, RowGradAccumulator,
                        embed_matrix, encode_examples, group_dim)
from .ingest import LabeledExample
from .numerics import Array, ContractViolation, dropout_mask, relu, sigmoid
from .schema import AUX_GROUPS, GroupSchema

SCORE_CLAMP = 30.0  # cap on the pre-exp interactive-attention scalar
PCTR_EPS = 1e-15


class Variant(str, Enum):
    LR = "lr"
    DNN = "dnn"
    DSTN_P = "dstn-p"
    DSTN_S = "dstn-s"
    DSTN_I = "dstn-i"

    @property
    def uses_aux(self) -> bool:
        return self in (Variant.DSTN_P, Variant.DSTN_S, Variant.DSTN_I)

    @property
    def header_name(self) -> str:
        return {"lr": "LR", "dnn": "DNN", "dstn-p": "DSTN-P",
                "dstn-s": "DSTN-S", "dstn-i": "DSTN-I"}[self.value]


@dataclass
class SelfAttentionParams:
    """One-hidden-layer MLP mapping an ad vector to a scalar attention score."""

    w1: Array  # (H, D_g)
    b1: Array  # (H,)
    w2: Array  # (H,)
    b2: Array  # (1,)


@dataclass
class InteractiveAttentionParams:
    """One-hidden-layer MLP mapping [target, ad] to an unnormalized weight."""

    w_tc: Array   # (H, D_t + D_g)
    b_tc1: Array  # (H,)
    h: Array      # (H,)
    b_tc2: Array  # (1,)


@dataclass
class ModelParams:
    variant: Variant
    schemas: dict[str, GroupSchema]
    k: int
    dropout_p: float
    embedding: EmbeddingTable
    fusion_w: Array | None = None  # first FC layer, applied to m
    fusion_b: Array | None = None
    fc: list[tuple[Array, Array]] = field(default_factory=list)  # layers 2..L
    out_w: Array | None = None
    out_b: Array = None  # (1,)
    attention: dict[str, SelfAttentionParams | InteractiveAttentionParams] = field(default_factory=dict)

    def dim(self, group: str) -> int:
        return group_dim(self.schemas[group], self.k)

    @property
    def concat_dim(self) -> int:
        if self.variant == Variant.DNN:
            return self.dim("target")
        return self.dim("target") + sum(self.dim(g) for g in AUX_GROUPS)

    def tensors(self) -> dict[str, Array]:
        """Live references to every parameter tensor, keyed by stable names."""
        out: dict[str, Array] = {"emb.E": self.embedding.e}
        if self.fusion_w is not None:
            out["fusion.W"] = self.fusion_w
            out["fusion.b"] = self.fusion_b
        for i, (w, b) in enumerate(self.fc, start=2):
            out[f"fc{i}.W"] = w
            out[f"fc{i}.b"] = b
        if self.out_w is not None:
            out["out.w"] = self.out_w
        out["out.b"] = self.out_b
        for group, p in self.attention.items():
            if isinstance(p, SelfAttentionParams):
                out[f"attn.{group}.W1"] = p.w1
                out[f"attn.{group}.b1"] = p.b1
                out[f"attn.{group}.w2"] = p.w2
                out[f"attn.{group}.b2"] = p.b2
            else:
                out[f"attn.{group}.Wtc"] = p.w_tc
                out[f"attn.{group}.btc1"] = p.b_tc1
                out[f"attn.{group}.h"] = p.h
                out[f"attn.{group}.btc2"] = p.b_tc2
        return out

    def clone(self) -> "ModelParams":
        return copy.deepcopy(self)


def _glorot(rng, fan_out: int, fan_in: int, shape) -> Array:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_model(variant: Variant, schemas: Mapping[str, GroupSchema], vocab_size: int,
               rng: np.random.Generator, k: int = 10, fc_dims: Sequence[int] = (512, 256),
               attention_dim: int = 128, dropout_p: float = 0.5) -> ModelParams:
    """Fresh parameters: uniform Glorot for dense weights, zero biases,
    uniform +-0.01 embeddings (1-dim for the LR variant)."""
    variant = Variant(variant)
    schemas = dict(schemas)
    if variant == Variant.LR:
        k = 1
    model = ModelParams(variant=variant, schemas=schemas, k=k, dropout_p=dropout_p,
                        embedding=EmbeddingTable.init(vocab_size, k, rng),
                        out_b=np.zeros(1))
    if variant == Variant.LR:
        return model
    d_in = model.concat_dim
    dims = list(fc_dims)
    model.fusion_w = _glorot(rng, dims[0], d_in, (dims[0], d_in))
    model.fusion_b = np.zeros(dims[0])
    for prev, cur in zip(dims, dims[1:]):
        model.fc.append((_glorot(rng, cur, prev, (cur, prev)), np.zeros(cur)))
    model.out_w = _glorot(rng, 1, dims[-1], (dims[-1],))
    if variant in (Variant.DSTN_S, Variant.DSTN_I):
        d_t = model.dim("target")
        for group in AUX_GROUPS:
            d_g = model.dim(group)
            if variant == Variant.DSTN_S:
                model.attention[group] = SelfAttentionParams(
                    w1=_glorot(rng, attention_dim, d_g, (attention_dim, d_g)),
                    b1=np.zeros(attention_dim),
                    w2=_glorot(rng, 1, attention_dim, (attention_dim,)),
                    b2=np.zeros(1))
            else:
                model.attention[group] = InteractiveAttentionParams(
                    w_tc=_glorot(rng, attention_dim, d_t + d_g, (attention_dim, d_t + d_g)),
                    b_tc1=np.zeros(attention_dim),
                    h=_glorot(rng, 1, attention_dim, (attention_dim,)),
                    b_tc2=np.zeros(1))
    return model


# ---------------------------------------------------------------------------
# batched forward
# ---------------------------------------------------------------------------

@dataclass
class AuxTrace:
    cols: AdColumns                 # the group's ads in the batch, batch order
    row_idx: Array                  # (T,) example of each ad
    col_idx: Array                  # (T,) slot of each ad
    ads: Array                      # (B, S, D_g) padded embeddings
    mask: Array                     # (B, S) 1.0 on valid slots
    alpha: Array                    # (B, S) aggregation weights (pooling: mask)
    agg: Array                      # (B, D_g)
    pre: Array | None = None        # (B, S, H) attention-MLP pre-activation
    hid: Array | None = None        # (B, S, H)
    raw_score: Array | None = None  # (B, S) pre-clamp scalar (interactive)


@dataclass
class BatchTrace:
    """Everything forward computed that backward needs; one per batch."""

    batch: EncodedBatch
    x_t: Array
    aux: dict[str, AuxTrace]
    m: Array | None
    pres: list[Array]
    acts: list[Array]               # post-dropout activations of the FC layers
    drop_masks: list[Array | None]
    logit: Array
    pctr: Array

    def attention_weights(self, i: int) -> dict[str, list[float]]:
        """Recorded per-ad weights of example i, by group (empty for pooling)."""
        out: dict[str, list[float]] = {}
        for group, t in self.aux.items():
            n = int(t.mask[i].sum())
            out[group] = [float(a) for a in t.alpha[i, :n]]
        return out


def encode_batch(model: ModelParams,
                 examples: EncodedBatch | Sequence[LabeledExample]) -> EncodedBatch:
    """Encode examples with the groups this model's variant reads (an
    encoded batch is returned as it is)."""
    if isinstance(examples, EncodedBatch):
        return examples
    return encode_examples(examples, model.schemas,
                           AUX_GROUPS if model.variant.uses_aux else ())


def _pad_aux(model: ModelParams, batch: EncodedBatch, group: str) -> AuxTrace:
    offsets, cols = batch.aux[group]
    counts = offsets[1:] - offsets[:-1]
    b, s = len(batch), int(counts.max()) if len(batch) else 0
    d = model.dim(group)
    ads = np.zeros((b, s, d))
    mask = np.zeros((b, s))
    row_idx = np.repeat(np.arange(b), counts)
    col_idx = np.arange(len(cols)) - np.repeat(offsets[:-1], counts)
    ads[row_idx, col_idx] = embed_matrix(cols, model.embedding)
    mask[row_idx, col_idx] = 1.0
    return AuxTrace(cols=cols, row_idx=row_idx, col_idx=col_idx,
                    ads=ads, mask=mask, alpha=mask.copy(), agg=np.zeros((b, d)))


def _aggregate(model: ModelParams, t: AuxTrace, group: str, x_t: Array) -> None:
    if model.variant == Variant.DSTN_P:
        t.agg = (t.ads * t.mask[..., None]).sum(axis=1)
        return
    if t.mask.shape[1] == 0:
        t.alpha = t.mask
        return  # no ads anywhere in the batch; agg stays zero
    b, s, _ = t.ads.shape
    if model.variant == Variant.DSTN_S:
        p = model.attention[group]
        flat = t.ads.reshape(b * s, -1)
        t.pre = (flat @ p.w1.T + p.b1).reshape(b, s, -1)
        t.hid = relu(t.pre)
        score = (t.hid.reshape(b * s, -1) @ p.w2).reshape(b, s) + p.b2[0]
        counts = t.mask.sum(axis=1)
        rowmax = np.where(counts > 0,
                          np.max(np.where(t.mask > 0, score, -np.inf), axis=1), 0.0)
        e = np.where(t.mask > 0, np.exp(score - rowmax[:, None]), 0.0)
        denom = e.sum(axis=1)
        t.alpha = e / np.where(denom > 0, denom, 1.0)[:, None]
    else:  # interactive: W_tc = [W_t | W_a], so [x_t, ad] W_tc^T = x_t W_t^T + ad W_a^T
        p = model.attention[group]
        d_t = x_t.shape[1]
        t.pre = ((x_t @ p.w_tc[:, :d_t].T + p.b_tc1)[:, None, :]
                 + (t.ads.reshape(b * s, -1) @ p.w_tc[:, d_t:].T).reshape(b, s, -1))
        t.hid = relu(t.pre)
        t.raw_score = (t.hid.reshape(b * s, -1) @ p.h).reshape(b, s) + p.b_tc2[0]
        t.alpha = np.exp(np.minimum(t.raw_score, SCORE_CLAMP)) * t.mask
    t.agg = (t.alpha[..., None] * t.ads).sum(axis=1)


def forward_batch(model: ModelParams, batch: EncodedBatch | Sequence[LabeledExample],
                  mode: str = "eval", rng: np.random.Generator | None = None
                  ) -> tuple[Array, BatchTrace]:
    """Eval- or train-mode forward over a batch (encoded, or a list of
    examples encoded on entry); returns pCTRs and the trace."""
    if mode not in ("train", "eval"):
        raise ContractViolation(f"unknown mode {mode!r}")
    if mode == "train" and model.dropout_p > 0 and rng is None:
        raise ContractViolation("train-mode forward with dropout needs an rng")
    batch = encode_batch(model, batch)
    x_t = embed_matrix(batch.target, model.embedding)

    if model.variant == Variant.LR:
        logit = x_t.sum(axis=1) + model.out_b[0]
        pctr = np.clip(sigmoid(logit), PCTR_EPS, 1.0 - PCTR_EPS)
        return pctr, BatchTrace(batch=batch, x_t=x_t, aux={}, m=None, pres=[],
                                acts=[], drop_masks=[], logit=logit, pctr=pctr)

    aux: dict[str, AuxTrace] = {}
    if model.variant.uses_aux:
        for group in AUX_GROUPS:
            t = _pad_aux(model, batch, group)
            _aggregate(model, t, group, x_t)
            aux[group] = t
        m = np.concatenate([x_t] + [aux[g].agg for g in AUX_GROUPS], axis=1)
    else:
        m = x_t

    cur = m
    pres: list[Array] = []
    acts: list[Array] = []
    masks: list[Array | None] = []
    for w, b in [(model.fusion_w, model.fusion_b)] + model.fc:
        pre = cur @ w.T + b
        pres.append(pre)
        cur = relu(pre)
        if mode == "train" and model.dropout_p > 0:
            msk = dropout_mask(cur.shape, model.dropout_p, rng)
            cur = cur * msk
        else:
            msk = None
        acts.append(cur)
        masks.append(msk)
    logit = cur @ model.out_w + model.out_b[0]
    pctr = np.clip(sigmoid(logit), PCTR_EPS, 1.0 - PCTR_EPS)
    return pctr, BatchTrace(batch=batch, x_t=x_t, aux=aux, m=m, pres=pres,
                            acts=acts, drop_masks=masks, logit=logit, pctr=pctr)


def forward(model: ModelParams, example: LabeledExample, mode: str = "eval",
            rng: np.random.Generator | None = None) -> tuple[float, BatchTrace]:
    pctr, trace = forward_batch(model, [example], mode=mode, rng=rng)
    return float(pctr[0]), trace


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def loss(predictions, labels) -> float:
    """Average logistic loss; predictions must lie strictly inside (0, 1)."""
    p = np.atleast_1d(np.asarray(predictions, dtype=np.float64))
    y = np.atleast_1d(np.asarray(labels, dtype=np.float64))
    if p.shape != y.shape:
        raise ContractViolation("predictions and labels differ in length")
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ContractViolation("predictions must be strictly inside (0, 1)")
    if np.any((y != 0.0) & (y != 1.0)):
        raise ContractViolation("labels must be 0 or 1")
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def loss_from_logits(logits: Array, labels: Array) -> float:
    """Same average logistic loss, computed stably from pre-sigmoid logits."""
    logits = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    return float(np.mean(np.logaddexp(0.0, logits) - y * logits))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

@dataclass
class Gradients:
    """Gradient of the batch-mean loss. Embedding rows are sparse: only rows
    referenced by the batch appear."""

    dense: dict[str, Array]
    emb_rows: Array
    emb_grads: Array


def backward(model: ModelParams, trace: BatchTrace) -> Gradients:
    """Exact gradients for every parameter of the batch the forward trace ran
    on, reusing the trace (including its dropout masks)."""
    enc = trace.batch
    dlogit = (trace.pctr - enc.labels) / len(enc)

    acc = RowGradAccumulator(model.embedding.n, model.embedding.k)
    dense: dict[str, Array] = {}

    if model.variant == Variant.LR:
        dense["out.b"] = np.array([dlogit.sum()])
        up = np.repeat(dlogit[:, None], trace.x_t.shape[1], axis=1)
        acc.scatter_matrix(enc.target, up)
        rows, grads = acc.finalize()
        return Gradients(dense=dense, emb_rows=rows, emb_grads=grads)

    # output head
    dense["out.w"] = trace.acts[-1].T @ dlogit
    dense["out.b"] = np.array([dlogit.sum()])
    g_cur = dlogit[:, None] * model.out_w[None, :]

    # FC stack down to the fusion layer
    layers = [(model.fusion_w, model.fusion_b)] + model.fc
    names = ["fusion"] + [f"fc{i}" for i in range(2, 2 + len(model.fc))]
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        msk = trace.drop_masks[i]
        g_act = g_cur if msk is None else g_cur * msk
        g_pre = g_act * (trace.pres[i] > 0)
        inp = trace.m if i == 0 else trace.acts[i - 1]
        dense[f"{names[i]}.W"] = g_pre.T @ inp
        dense[f"{names[i]}.b"] = g_pre.sum(axis=0)
        g_cur = g_pre @ w

    # split the fused-input gradient
    d_t = model.dim("target")
    g_xt = g_cur[:, :d_t].copy()
    offset = d_t
    for group in (AUX_GROUPS if model.variant.uses_aux else ()):
        t = trace.aux[group]
        d_g = model.dim(group)
        g_agg = g_cur[:, offset : offset + d_g]
        offset += d_g
        g_ads = _aggregate_backward(model, group, t, trace.x_t, g_agg, g_xt, dense)
        acc.scatter_matrix(t.cols, g_ads[t.row_idx, t.col_idx])

    acc.scatter_matrix(enc.target, g_xt)
    rows, grads = acc.finalize()
    return Gradients(dense=dense, emb_rows=rows, emb_grads=grads)


def save_model(path, model: ModelParams, schemas_hash: str, vocab_hash: str) -> None:
    """Checkpoint: TNSR1 tensors plus a header naming the variant and the
    hashes of the schema/vocabulary the parameters were trained against."""
    from .numerics import save_tensors

    header = {
        "format": "adctr-ckpt-1",
        "variant": model.variant.header_name,
        "schema_hash": schemas_hash,
        "vocab_hash": vocab_hash,
        "k": str(model.k),
        "dropout_p": repr(model.dropout_p),
    }
    save_tensors(path, header, model.tensors())


def load_model(path, schemas: Mapping[str, GroupSchema]) -> tuple[ModelParams, dict[str, str]]:
    """Rebuild a ModelParams from a checkpoint; returns (model, header)."""
    from .numerics import load_tensors

    header, tensors = load_tensors(path)
    if header.get("format") != "adctr-ckpt-1":
        raise ValueError(f"{path}: unknown checkpoint format")
    by_header = {v.header_name: v for v in Variant}
    variant = by_header.get(header.get("variant"))
    if variant is None:
        raise ValueError(f"{path}: unknown variant {header.get('variant')!r}")
    # A file cut at a record boundary reads as a shorter TNSR1 file. Records
    # are sorted by name, so any such cut loses one of these.
    required = {"emb.E", "out.b"} if variant == Variant.LR else {
        "emb.E", "fusion.W", "fusion.b", "out.b", "out.w"}
    missing = required - tensors.keys()
    if missing:
        raise ValueError(f"{path}: missing tensors {sorted(missing)}")
    model = ModelParams(variant=variant, schemas=dict(schemas), k=int(header["k"]),
                        dropout_p=float(header["dropout_p"]),
                        embedding=EmbeddingTable(tensors.pop("emb.E")),
                        out_b=tensors.pop("out.b"))
    if "fusion.W" in tensors:
        model.fusion_w = tensors.pop("fusion.W")
        model.fusion_b = tensors.pop("fusion.b")
    i = 2
    while f"fc{i}.W" in tensors:
        model.fc.append((tensors.pop(f"fc{i}.W"), tensors.pop(f"fc{i}.b")))
        i += 1
    if "out.w" in tensors:
        model.out_w = tensors.pop("out.w")
    for group in AUX_GROUPS:
        if f"attn.{group}.W1" in tensors:
            model.attention[group] = SelfAttentionParams(
                w1=tensors.pop(f"attn.{group}.W1"), b1=tensors.pop(f"attn.{group}.b1"),
                w2=tensors.pop(f"attn.{group}.w2"), b2=tensors.pop(f"attn.{group}.b2"))
        elif f"attn.{group}.Wtc" in tensors:
            model.attention[group] = InteractiveAttentionParams(
                w_tc=tensors.pop(f"attn.{group}.Wtc"), b_tc1=tensors.pop(f"attn.{group}.btc1"),
                h=tensors.pop(f"attn.{group}.h"), b_tc2=tensors.pop(f"attn.{group}.btc2"))
    if tensors:
        raise ValueError(f"{path}: unexpected tensors {sorted(tensors)}")
    return model, header


def _aggregate_backward(model: ModelParams, group: str, t: AuxTrace, x_t: Array, g_agg: Array,
                        g_xt: Array, dense: dict[str, Array]) -> Array:
    """Backward through one group's aggregation; returns the per-ad gradient
    (B, S, D_g) and accumulates attention-parameter and target gradients."""
    if model.variant == Variant.DSTN_P:
        return g_agg[:, None, :] * t.mask[..., None]

    g_ads = t.alpha[..., None] * g_agg[:, None, :]
    if t.mask.shape[1] == 0:  # no ads anywhere in the batch
        prefix = f"attn.{group}."
        dense.update({name: np.zeros_like(arr) for name, arr in model.tensors().items()
                      if name.startswith(prefix)})
        return g_ads
    p = model.attention[group]
    b, s, d_g = t.ads.shape
    tdot = (t.ads * g_agg[:, None, :]).sum(axis=2)
    if model.variant == Variant.DSTN_S:
        inner = (t.alpha * tdot).sum(axis=1, keepdims=True)
        g_score = t.alpha * (tdot - inner)  # softmax Jacobian, zero on padding
        g_hid = g_score[..., None] * p.w2
        g_pre = (g_hid * (t.pre > 0)).reshape(b * s, -1)
        dense[f"attn.{group}.W1"] = g_pre.T @ t.ads.reshape(b * s, d_g)
        dense[f"attn.{group}.b1"] = g_pre.sum(axis=0)
        dense[f"attn.{group}.w2"] = t.hid.reshape(b * s, -1).T @ g_score.reshape(b * s)
        dense[f"attn.{group}.b2"] = np.array([g_score.sum()])
        g_ads += (g_pre @ p.w1).reshape(b, s, d_g)
        return g_ads

    # interactive attention
    g_score = t.alpha * tdot * (t.raw_score < SCORE_CLAMP)  # alpha carries the mask
    g_hid = g_score[..., None] * p.h
    g_pre = g_hid * (t.pre > 0)
    g_pre_t = g_pre.sum(axis=1)  # the target half of the pair is shared by every slot
    g_pre = g_pre.reshape(b * s, -1)
    d_t = x_t.shape[1]
    dense[f"attn.{group}.Wtc"] = np.concatenate(
        [g_pre_t.T @ x_t, g_pre.T @ t.ads.reshape(b * s, d_g)], axis=1)
    dense[f"attn.{group}.btc1"] = g_pre_t.sum(axis=0)
    dense[f"attn.{group}.h"] = t.hid.reshape(b * s, -1).T @ g_score.reshape(b * s)
    dense[f"attn.{group}.btc2"] = np.array([g_score.sum()])
    g_xt += g_pre_t @ p.w_tc[:, :d_t]
    g_ads += (g_pre @ p.w_tc[:, d_t:]).reshape(b, s, d_g)
    return g_ads
