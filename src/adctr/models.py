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

Forward runs are batched, and each auxiliary group is aggregated over only
the ads that exist: a (T, D_g) matrix of the batch's T ads in batch order
plus the example each belongs to, with per-example sums, maxima and softmax
normalizers taken over those rows (no padding, no masks). Backward consumes
the recorded forward trace and returns the gradient of the batch-mean loss;
correctness is pinned by finite-difference checks in the test suite.
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
from .schema import AUX_GROUPS, EncodedInstance, GroupSchema

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


# Checkpoint names of each attention block's tensors, in field order.
_ATTN_NAMES = {SelfAttentionParams: ("W1", "b1", "w2", "b2"),
               InteractiveAttentionParams: ("Wtc", "btc1", "h", "btc2")}


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
            for name, arr in zip(_ATTN_NAMES[type(p)], vars(p).values()):
                out[f"attn.{group}.{name}"] = arr
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
    """One auxiliary group of a batch, ragged: one row per ad that exists."""

    cols: AdColumns                 # the group's ads in the batch, batch order
    n: int                          # examples in the batch
    row_idx: Array                  # (T,) example of each ad, non-decreasing
    ads: Array                      # (T, D_g) embeddings
    alpha: Array                    # (T,) aggregation weights (pooling: ones)
    agg: Array | None = None        # (n, D_g)
    pre: Array | None = None        # (T, H) attention-MLP pre-activation
    hid: Array | None = None        # (T, H)
    raw_score: Array | None = None  # (T,) pre-clamp scalar (interactive)


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
        """Recorded per-ad weights of example i, by group, in ad order."""
        out: dict[str, list[float]] = {}
        for group, t in self.aux.items():
            lo, hi = np.searchsorted(t.row_idx, (i, i + 1))
            out[group] = t.alpha[lo:hi].tolist()
        return out


def encode_batch(model: ModelParams,
                 examples: EncodedBatch | Sequence[LabeledExample]) -> EncodedBatch:
    """Encode examples with the groups this model's variant reads (an
    encoded batch is returned as it is)."""
    if isinstance(examples, EncodedBatch):
        return examples
    return encode_examples(examples, model.schemas,
                           AUX_GROUPS if model.variant.uses_aux else ())


def _row_sum(values: Array, rows: Array, n: int) -> Array:
    """Per-example sums of per-ad values, (T,) or (T, D) -> (n,) or (n, D):
    bincount adds each example's terms in ad order, starting from 0.0. With
    no terms at all bincount returns integer zeros, hence the cast."""
    d = values.shape[1] if values.ndim == 2 else 1
    cells = (rows[:, None] * d + np.arange(d)).ravel()
    out = np.bincount(cells, weights=values.ravel(), minlength=n * d)
    return out.astype(np.float64, copy=False).reshape((n,) + values.shape[1:])


def _pad_aux(model: ModelParams, offsets: Array, cols: AdColumns) -> AuxTrace:
    """A group's ragged trace: its ads (those of example i are
    ``offsets[i]:offsets[i + 1]`` of ``cols``) embedded one row per ad. The
    name is that of the padded block this once built; the benchmark's layer
    map wraps it by that name."""
    counts = offsets[1:] - offsets[:-1]
    ads = embed_matrix(cols, model.embedding)
    return AuxTrace(cols=cols, n=len(counts), row_idx=np.repeat(np.arange(len(counts)), counts),
                    ads=ads, alpha=np.ones(len(ads)))


def _aggregate(model: ModelParams, t: AuxTrace, group: str, x_t: Array) -> None:
    """Aggregate one group's ads into ``t.agg``, one row per example. The ads
    of a one-example trace may be shared by every row of ``x_t``: pooling and
    self-attention then aggregate once, (1, D_g), and interactive attention
    computes the ads' ``W_a`` half once and broadcasts it to every row."""
    if model.variant == Variant.DSTN_P:
        t.agg = _row_sum(t.ads, t.row_idx, t.n)
        return
    p = model.attention[group]
    if model.variant == Variant.DSTN_S:
        t.pre = t.ads @ p.w1.T + p.b1
        t.hid = relu(t.pre)
        score = t.hid @ p.w2 + p.b2[0]
        rowmax = np.full(t.n, -np.inf)
        np.maximum.at(rowmax, t.row_idx, score)
        e = np.exp(score - rowmax[t.row_idx])
        t.alpha = e / _row_sum(e, t.row_idx, t.n)[t.row_idx]
    else:  # interactive: W_tc = [W_t | W_a], so [x_t, ad] W_tc^T = x_t W_t^T + ad W_a^T
        d_t = x_t.shape[1]
        proj = t.ads @ p.w_tc[:, d_t:].T
        if len(x_t) != t.n:  # one example's ads, shared by every row of x_t
            t.n, per = len(x_t), len(t.ads)
            t.row_idx = np.arange(t.n).repeat(per)
            ad = np.arange(t.n * per) % max(per, 1)
            t.ads, proj = t.ads[ad], proj[ad]
        t.pre = (x_t @ p.w_tc[:, :d_t].T + p.b_tc1)[t.row_idx]
        t.pre += proj
        t.hid = relu(t.pre)
        t.raw_score = t.hid @ p.h + p.b_tc2[0]
        t.alpha = np.exp(np.minimum(t.raw_score, SCORE_CLAMP))
    t.agg = _row_sum(t.alpha[:, None] * t.ads, t.row_idx, t.n)


def _pctr(logit: Array) -> Array:
    return np.clip(sigmoid(logit), PCTR_EPS, 1.0 - PCTR_EPS)


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
        pctr = _pctr(logit)
        return pctr, BatchTrace(batch=batch, x_t=x_t, aux={}, m=None, pres=[],
                                acts=[], drop_masks=[], logit=logit, pctr=pctr)

    aux: dict[str, AuxTrace] = {}
    if model.variant.uses_aux:
        for group in AUX_GROUPS:
            t = _pad_aux(model, *batch.aux[group])
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
    pctr = _pctr(logit)
    return pctr, BatchTrace(batch=batch, x_t=x_t, aux=aux, m=m, pres=pres,
                            acts=acts, drop_masks=masks, logit=logit, pctr=pctr)


def forward(model: ModelParams, example: LabeledExample, mode: str = "eval",
            rng: np.random.Generator | None = None) -> tuple[float, BatchTrace]:
    pctr, trace = forward_batch(model, [example], mode=mode, rng=rng)
    return float(pctr[0]), trace


# ---------------------------------------------------------------------------
# request-level eval forward (serving)
# ---------------------------------------------------------------------------
#
# The candidates of one serving request share their clicked and unclicked
# ads, and the fusion layer is linear in m = [x_t, ctx, clk, unclk]. So the
# history is embedded and aggregated once per request, its fusion terms are
# summed once, and a round with contextual ads adds only agg_ctx W_ctx^T
# before the layers above the fusion layer run.

@dataclass(frozen=True)
class RequestRows:
    """One request's candidates after the work every round shares: their
    embeddings and their fusion pre-activation with the clicked and
    unclicked terms and no contextual term (for LR, their logits)."""

    x_t: Array  # (n, D_t)
    pre: Array  # (n, H_1), or (n,) for LR

    def __len__(self) -> int:
        return len(self.x_t)

    def take(self, rows) -> "RequestRows":
        """The given candidates, in the order given."""
        rows = np.asarray(rows, dtype=np.intp)
        return RequestRows(self.x_t[rows], self.pre[rows])


def _shared_agg(model: ModelParams, group: str, ads: Sequence[EncodedInstance],
                x_t: Array) -> Array:
    """The group's aggregate of ads shared by every row of x_t: (1, D_g) for
    pooling and self-attention, (n, D_g) for interactive attention."""
    cols = AdColumns.from_instances(ads, len(model.schemas[group].fields))
    t = _pad_aux(model, np.array([0, len(cols)]), cols)
    _aggregate(model, t, group, x_t)
    return t.agg


def _fusion_term(model: ModelParams, group: str, agg: Array) -> Array:
    """agg W_g^T, where W_g is the fusion weights' block for the group."""
    lo = model.dim("target") + sum(model.dim(g) for g in AUX_GROUPS[:AUX_GROUPS.index(group)])
    return agg @ model.fusion_w[:, lo : lo + model.dim(group)].T


def prepare_request(model: ModelParams, candidates: Sequence[EncodedInstance],
                    clicked: Sequence[EncodedInstance],
                    unclicked: Sequence[EncodedInstance]) -> RequestRows:
    """Eval-mode work shared by every round of one request: embed the
    candidates and the history once, aggregate the history (once for
    DSTN-P/S; per candidate for DSTN-I, whose ad half is computed once) and
    sum the fusion pre-activation without its contextual term."""
    target = AdColumns.from_instances(candidates, len(model.schemas["target"].fields))
    x_t = embed_matrix(target, model.embedding)
    if model.variant == Variant.LR:
        return RequestRows(x_t, x_t.sum(axis=1) + model.out_b[0])
    pre = x_t @ model.fusion_w[:, : x_t.shape[1]].T + model.fusion_b
    if model.variant.uses_aux:
        for group, ads in (("clicked", clicked), ("unclicked", unclicked)):
            pre += _fusion_term(model, group, _shared_agg(model, group, ads, x_t))
    return RequestRows(x_t, pre)


def score_request(model: ModelParams, rows: RequestRows,
                  contextual: Sequence[EncodedInstance]) -> Array:
    """Eval-mode pCTRs of prepared candidates with the given contextual ads
    (the same for every row): add the contextual group's fusion term, which
    LR and DNN do not have, then run the layers above the fusion layer."""
    if model.variant == Variant.LR:
        return _pctr(rows.pre)
    pre = rows.pre
    if contextual and model.variant.uses_aux:
        pre = pre + _fusion_term(model, "contextual",
                                 _shared_agg(model, "contextual", contextual, rows.x_t))
    cur = relu(pre)
    for w, b in model.fc:
        cur = relu(cur @ w.T + b)
    return _pctr(cur @ model.out_w + model.out_b[0])


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
        acc.scatter_matrix(t.cols, g_ads)

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
    attn = {Variant.DSTN_S: SelfAttentionParams,
            Variant.DSTN_I: InteractiveAttentionParams}.get(variant)
    n_fc = 0
    while f"fc{n_fc + 2}.W" in tensors:
        n_fc += 1
    fc_names = [f"fc{i}" for i in range(2, 2 + n_fc)]
    # A file cut at a record boundary reads as a shorter TNSR1 file. Records
    # are sorted by name, so any such cut loses one of these.
    required = ["emb.E", "out.b"]
    if variant != Variant.LR:
        required += ["fusion.W", "fusion.b", "out.w"] + [f"{n}.{s}" for n in fc_names
                                                           for s in ("W", "b")]
    if attn is not None:
        required += [f"attn.{g}.{n}" for g in AUX_GROUPS for n in _ATTN_NAMES[attn]]
    missing = set(required) - tensors.keys()
    if missing:
        raise ValueError(f"{path}: missing tensors {sorted(missing)}")
    unexpected = tensors.keys() - set(required)
    if unexpected:
        raise ValueError(f"{path}: unexpected tensors {sorted(unexpected)}")
    model = ModelParams(variant=variant, schemas=dict(schemas), k=int(header["k"]),
                        dropout_p=float(header["dropout_p"]),
                        embedding=EmbeddingTable(tensors["emb.E"]), out_b=tensors["out.b"])
    if variant != Variant.LR:
        model.fusion_w, model.fusion_b = tensors["fusion.W"], tensors["fusion.b"]
        model.fc = [(tensors[f"{n}.W"], tensors[f"{n}.b"]) for n in fc_names]
        model.out_w = tensors["out.w"]
    if attn is not None:
        for g in AUX_GROUPS:
            model.attention[g] = attn(*(tensors[f"attn.{g}.{n}"] for n in _ATTN_NAMES[attn]))
    _check_shapes(path, model)
    return model, header


def _check_shapes(path, model: ModelParams) -> None:
    """Every tensor's shape against the variant, the schemas and k. The
    vocabulary size and the layer widths are free: each is read off the
    tensor that introduces it, and the tensors after it must agree."""
    tensors = model.tensors()

    def rows(name: str) -> int:
        shape = tensors[name].shape
        return shape[0] if shape else 0

    expected = {"emb.E": (rows("emb.E"), model.k), "out.b": (1,)}
    if model.variant != Variant.LR:
        width = model.concat_dim
        for name in ["fusion"] + [f"fc{i}" for i in range(2, 2 + len(model.fc))]:
            h = rows(f"{name}.W")
            expected[f"{name}.W"], expected[f"{name}.b"] = (h, width), (h,)
            width = h
        expected["out.w"] = (width,)
    for group, p in model.attention.items():
        w, b1, w2, b2 = (f"attn.{group}.{n}" for n in _ATTN_NAMES[type(p)])
        d_in = model.dim(group)
        if isinstance(p, InteractiveAttentionParams):
            d_in += model.dim("target")
        a = rows(w)
        expected.update({w: (a, d_in), b1: (a,), w2: (a,), b2: (1,)})
    for name, arr in tensors.items():
        if arr.shape != expected[name]:
            raise ValueError(f"{path}: tensor {name} has shape {arr.shape}, "
                             f"expected {expected[name]}")


def _aggregate_backward(model: ModelParams, group: str, t: AuxTrace, x_t: Array, g_agg: Array,
                        g_xt: Array, dense: dict[str, Array]) -> Array:
    """Backward through one group's aggregation; returns the per-ad gradient
    (T, D_g), one row per ad of ``t.cols``, and accumulates attention-parameter
    and target gradients."""
    g_up = g_agg[t.row_idx]  # each ad's example's aggregate gradient
    if model.variant == Variant.DSTN_P:
        return g_up

    p = model.attention[group]
    g_ads = t.alpha[:, None] * g_up
    tdot = (t.ads * g_up).sum(axis=1)
    if model.variant == Variant.DSTN_S:
        inner = _row_sum(t.alpha * tdot, t.row_idx, t.n)
        g_score = t.alpha * (tdot - inner[t.row_idx])  # softmax Jacobian
        g_pre = np.outer(g_score, p.w2)
        g_pre *= t.pre > 0
        dense[f"attn.{group}.W1"] = g_pre.T @ t.ads
        dense[f"attn.{group}.b1"] = g_pre.sum(axis=0)
        dense[f"attn.{group}.w2"] = t.hid.T @ g_score
        dense[f"attn.{group}.b2"] = np.array([g_score.sum()])
        g_ads += g_pre @ p.w1
        return g_ads

    # interactive attention
    g_score = t.alpha * tdot * (t.raw_score < SCORE_CLAMP)
    g_pre = np.outer(g_score, p.h)
    g_pre *= t.pre > 0
    g_pre_t = _row_sum(g_pre, t.row_idx, t.n)  # the target half is shared by an example's ads
    d_t = x_t.shape[1]
    dense[f"attn.{group}.Wtc"] = np.concatenate([g_pre_t.T @ x_t, g_pre.T @ t.ads], axis=1)
    dense[f"attn.{group}.btc1"] = g_pre_t.sum(axis=0)
    dense[f"attn.{group}.h"] = t.hid.T @ g_score
    dense[f"attn.{group}.btc2"] = np.array([g_score.sum()])
    g_xt += g_pre_t @ p.w_tc[:, :d_t]
    g_ads += g_pre @ p.w_tc[:, d_t:]
    return g_ads
