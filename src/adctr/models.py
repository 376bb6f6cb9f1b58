"""CTR models over encoded impressions: auxiliary-ad aggregation (sum pooling,
self-attention, interactive attention), the fused fully-connected head, the
logistic loss, and exact manually-derived gradients for every parameter.

Five variants share one data path:

* ``lr``      - per-feature weights (a 1-dim embedding table) summed over the
                target ad's features, plus a bias, through a sigmoid: no FC
                layer and no head weights.
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

The trace holds only what backward reads: the embedded target and
auxiliary ads, each attention block's hidden layer (after its ReLU) and
weights, the FC stack's input, each FC layer's output (after its ReLU and
dropout) and the dropout scale. It holds no pre-activation and no dropout
mask: a ReLU passed a unit exactly when its output is above zero, and a
dropped unit's output is zero, so backward masks by the outputs.

A model holds its parameters once, in ``ModelParams.tensors``: one dict keyed
by checkpoint name in ``_layout`` order (``emb.E``; the FC layers ``fusion``,
``fc2``, ... as ``.W`` and ``.b``; ``out.w`` and ``out.b``; then each
auxiliary group's attention block ``attn.<group>.*``). The forward and
backward passes, serving, the optimizer, checkpoints and the gradient checker
all read parameters by those names.

A model computes in the dtype of its tensors, float64 or float32:
activations, dropout masks and gradients follow the parameters. The pCTR is
always float64, and so are checkpoints, whose header records a float32
model's dtype.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .embedding import (AdColumns, EmbeddedAds, EncodedBatch, RowGradAccumulator,
                        embed_matrix, encode_examples, group_dim)
from .ingest import LabeledExample
from .numerics import (Array, CheckpointError, ContractViolation, dropout_mask, relu, segment_sum,
                       sigmoid)
from .schema import AUX_GROUPS, EncodedInstance, GroupSchema

SCORE_CLAMP = 30.0  # cap on the pre-exp interactive-attention scalar
INIT_SCALE = 0.01  # initial embeddings: keeps initial logits near 0, so sigmoid starts near 0.5
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
        return self.value.upper()


# Each attention variant's per-group tensors, by checkpoint name suffix: the
# hidden layer's weights and bias, then the score head's weights and bias.
_ATTENTION = {Variant.DSTN_S: ("W1", "b1", "w2", "b2"),
              Variant.DSTN_I: ("Wtc", "btc1", "h", "btc2")}


@dataclass
class ModelParams:
    """A variant over its schemas, with every parameter tensor held once in
    ``tensors``, keyed by checkpoint name in ``_layout`` order."""

    variant: Variant
    schemas: dict[str, GroupSchema]
    dropout_p: float
    tensors: dict[str, Array]

    @property
    def k(self) -> int:
        """The embedding width."""
        return self.tensors["emb.E"].shape[1]

    @property
    def dtype(self) -> np.dtype:
        """The compute dtype: that of every parameter tensor."""
        return self.tensors["emb.E"].dtype

    def dim(self, group: str) -> int:
        return group_dim(self.schemas[group], self.k)

    def clone(self) -> "ModelParams":
        """A copy with tensors of its own; the frozen schemas are shared."""
        return replace(self, schemas=dict(self.schemas),
                       tensors={name: arr.copy() for name, arr in self.tensors.items()})


def _attention(model: ModelParams, group: str) -> tuple[Array, Array, Array, Array]:
    """The group's attention block, in ``_ATTENTION`` name order."""
    tensors, prefix = model.tensors, f"attn.{group}."
    return tuple([tensors[prefix + n] for n in _ATTENTION[model.variant]])


def _fc_layers(tensors: Mapping[str, object]) -> list[str]:
    """The FC layers a model's tensors hold: fusion, then fc2, fc3, ... for
    as long as their weights are there (none for LR)."""
    layers, name = [], "fusion"
    while f"{name}.W" in tensors:
        layers.append(name)
        name = f"fc{len(layers) + 1}"
    return layers


def _layout(variant: Variant, schemas: Mapping[str, GroupSchema], k: int,
            rows: Mapping[str, int]) -> dict[str, tuple[int, ...]]:
    """Every tensor of a model, name -> shape, in the order ``init_model``
    draws them. The vocabulary size and the layer widths are free: ``rows``
    gives each as the leading dimension of the tensor that introduces it
    (``emb.E``, each FC layer's ``.W``, whose names also say how many FC
    layers there are, and each attention block's first tensor); the shapes
    of the tensors after it follow."""
    def dim(group: str) -> int:
        return group_dim(schemas[group], k)

    shapes = {"emb.E": (rows["emb.E"], k)}
    if variant != Variant.LR:
        width = dim("target") + (sum(map(dim, AUX_GROUPS)) if variant.uses_aux else 0)
        for layer in _fc_layers(rows) or ["fusion"]:  # every variant but LR has fusion
            h = rows[f"{layer}.W"]
            shapes[f"{layer}.W"], shapes[f"{layer}.b"] = (h, width), (h,)
            width = h
        shapes["out.w"] = (width,)
    shapes["out.b"] = (1,)
    for group in AUX_GROUPS if variant in _ATTENTION else ():
        w, b1, w2, b2 = (f"attn.{group}.{n}" for n in _ATTENTION[variant])
        d_in = dim(group) + (dim("target") if variant == Variant.DSTN_I else 0)
        h = rows[w]
        shapes.update({w: (h, d_in), b1: (h,), w2: (h,), b2: (1,)})
    return shapes


def init_model(variant: Variant, schemas: Mapping[str, GroupSchema], vocab_size: int,
               rng: np.random.Generator, k: int = 10, fc_dims: Sequence[int] = (512, 256),
               attention_dim: int = 128, dropout_p: float = 0.5,
               dtype=np.float64) -> ModelParams:
    """Fresh parameters: uniform Glorot for dense weights, zero biases,
    uniform +-INIT_SCALE embeddings (1-dim for the LR variant). The values
    are drawn in float64, in ``_layout`` order, and rounded to ``dtype``, so
    a seed gives the same model in both precisions up to that rounding; a
    tensor is drawn in chunks straight into ``dtype`` (``_uniform``)."""
    variant = Variant(variant)
    if min(fc_dims, default=0) < 1:
        raise ValueError(f"fc_dims must be one or more widths >= 1, got {tuple(fc_dims)}")
    k = 1 if variant == Variant.LR else k
    fc_weights = ["fusion.W"] + [f"fc{i}.W" for i in range(2, len(fc_dims) + 1)]
    rows = defaultdict(lambda: attention_dim, {"emb.E": vocab_size})  # the rest: attention
    rows.update(zip(fc_weights, fc_dims))
    tensors = {}
    for name, shape in _layout(variant, schemas, k, rows).items():
        if name == "emb.E":
            arr = _uniform(shape, INIT_SCALE, rng, dtype)
        elif name.rsplit(".", 1)[1].startswith("b"):  # a bias
            arr = np.zeros(shape, dtype=dtype)
        else:  # Glorot over (fan-out, fan-in); a weight vector has fan-out 1
            bound = np.sqrt(6.0 / (shape[0] + (shape[1] if len(shape) == 2 else 1)))
            arr = _uniform(shape, bound, rng, dtype)
        tensors[name] = arr
    return ModelParams(variant, dict(schemas), dropout_p, tensors)


_INIT_CHUNK = 8192  # float64 values init_model draws at a time


def _uniform(shape, bound, rng: np.random.Generator, dtype) -> Array:
    """``rng.uniform(-bound, bound, size=shape).astype(dtype)``: the same
    draws from the same stream, each rounded to ``dtype`` once, but drawn
    ``_INIT_CHUNK`` at a time straight into the result."""
    arr = np.empty(shape, dtype=dtype)
    flat = arr.reshape(-1)
    for lo in range(0, flat.size, _INIT_CHUNK):
        flat[lo : lo + _INIT_CHUNK] = rng.uniform(-bound, bound,
                                                  size=min(_INIT_CHUNK, flat.size - lo))
    return arr


# ---------------------------------------------------------------------------
# batched forward
# ---------------------------------------------------------------------------

@dataclass
class AuxTrace:
    """One auxiliary group of a batch, ragged: one row per ad that exists."""

    cols: AdColumns | None          # the group's ads in batch order
    n: int                          # examples in the batch
    row_idx: Array                  # (T,) example of each ad, non-decreasing
    ads: Array                      # (T, D_g) embeddings
    alpha: Array                    # (T,) aggregation weights (pooling: ones)
    agg: Array | None = None        # (n, D_g)
    hid: Array | None = None        # (T, H) attention-MLP hidden layer, after its ReLU
    raw_score: Array | None = None  # (T,) pre-clamp scalar (interactive)


@dataclass
class BatchTrace:
    """Everything forward computed that backward needs; one per batch. An FC
    layer keeps only its output: a unit passed its ReLU and its dropout
    exactly when its output is above zero, and every kept unit was scaled
    by ``drop_scale``."""

    batch: EncodedBatch
    x_t: Array
    aux: dict[str, AuxTrace]
    m: Array                        # the FC stack's input (LR: x_t)
    acts: list[Array]               # post-dropout activations of the FC layers
    drop_scale: float | None        # 1 / (1 - p) of train-mode dropout, else None
    logit: Array
    pctr: Array


def encode_batch(model: ModelParams,
                 examples: EncodedBatch | Sequence[LabeledExample]) -> EncodedBatch:
    """Encode examples with the groups this model's variant reads (an
    encoded batch is returned as it is)."""
    if isinstance(examples, EncodedBatch):
        return examples
    return encode_examples(examples, model.schemas,
                           AUX_GROUPS if model.variant.uses_aux else ())


def _pad_aux(model: ModelParams, offsets: Array, cols: AdColumns) -> AuxTrace:
    """A group's ragged trace: its ads (those of example i are
    ``offsets[i]:offsets[i + 1]`` of ``cols``) embedded one row per ad. The
    name is that of the padded block this once built; the benchmark's layer
    map wraps it by that name."""
    counts = offsets[1:] - offsets[:-1]
    ads = embed_matrix(cols, model.tensors["emb.E"])
    return AuxTrace(cols=cols, n=len(counts), row_idx=np.repeat(np.arange(len(counts)), counts),
                    ads=ads, alpha=np.ones(len(ads), dtype=ads.dtype))


def _attention_pre(model: ModelParams, group: str, t: AuxTrace, x_t: Array) -> Array:
    """A new (T, H) array of the group's attention-MLP pre-activation."""
    w, b1, _, _ = _attention(model, group)
    if model.variant == Variant.DSTN_S:
        pre = t.ads @ w.T
        pre += b1
        return pre
    # interactive: W_tc = [W_t | W_a], so [x_t, ad] W_tc^T = x_t W_t^T + ad W_a^T
    d_t = x_t.shape[1]
    pre = (x_t @ w[:, :d_t].T + b1)[t.row_idx]
    pre += t.ads @ w[:, d_t:].T
    return pre


def _fc_pre(tensors: Mapping[str, Array], layer: str, inp: Array) -> Array:
    """A new array of an FC layer's pre-activation on its input."""
    pre = inp @ tensors[f"{layer}.W"].T
    pre += tensors[f"{layer}.b"]
    return pre


def _aggregate(model: ModelParams, t: AuxTrace, group: str, x_t: Array) -> None:
    """Aggregate one group's ads into ``t.agg``, one row per example."""
    if model.variant == Variant.DSTN_P:
        t.agg = segment_sum(t.ads, t.row_idx, t.n)
        return
    _, _, w2, b2 = _attention(model, group)
    t.hid = _attention_pre(model, group, t, x_t)
    np.maximum(t.hid, 0.0, out=t.hid)  # relu, in place
    if model.variant == Variant.DSTN_S:
        score = t.hid @ w2 + b2[0]
        rowmax = np.full(t.n, -np.inf, dtype=score.dtype)
        np.maximum.at(rowmax, t.row_idx, score)
        e = np.exp(score - rowmax[t.row_idx])
        t.alpha = e / segment_sum(e, t.row_idx, t.n)[t.row_idx]
    else:
        t.raw_score = t.hid @ w2 + b2[0]
        t.alpha = np.exp(np.minimum(t.raw_score, SCORE_CLAMP))
    t.agg = segment_sum(t.alpha[:, None] * t.ads, t.row_idx, t.n)


def _pctr(logit: Array) -> Array:
    """float64 pCTRs whatever the logit's dtype: in float32 the upper clip
    ``1 - PCTR_EPS`` would round to 1.0."""
    return np.minimum(np.maximum(sigmoid(logit.astype(np.float64, copy=False)), PCTR_EPS),
                      1.0 - PCTR_EPS)


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
    tensors = model.tensors
    x_t = embed_matrix(batch.target, tensors["emb.E"])
    aux: dict[str, AuxTrace] = {}
    if model.variant.uses_aux:
        for group in AUX_GROUPS:
            t = _pad_aux(model, *batch.columns(group))
            _aggregate(model, t, group, x_t)
            aux[group] = t
        m = np.concatenate([x_t] + [aux[g].agg for g in AUX_GROUPS], axis=1)
    else:
        m = x_t

    cur = m
    acts: list[Array] = []
    dropout = mode == "train" and model.dropout_p > 0
    for layer in _fc_layers(tensors):
        cur = _fc_pre(tensors, layer, cur)
        np.maximum(cur, 0.0, out=cur)  # relu, in place
        if dropout:  # the mask is dropped once applied
            cur *= dropout_mask(cur.shape, model.dropout_p, rng, cur.dtype)
        acts.append(cur)
    head = tensors.get("out.w")  # LR has none: its logit is the sum of its features
    logit = (cur.sum(axis=1) if head is None else cur @ head) + tensors["out.b"][0]
    pctr = _pctr(logit)
    return pctr, BatchTrace(batch=batch, x_t=x_t, aux=aux, m=m, acts=acts,
                            drop_scale=1.0 / (1.0 - model.dropout_p) if dropout else None,
                            logit=logit, pctr=pctr)


def pre_activations(model: ModelParams, trace: BatchTrace) -> list[Array]:
    """Every ReLU's pre-activation in a forward: each FC layer's, then each
    attention block's. The trace keeps none of them; they are computed again
    from the inputs it keeps, with the forward's own expressions, so they
    have the bits the forward had."""
    layers = _fc_layers(model.tensors)
    pres = [_fc_pre(model.tensors, layer, inp)
            for layer, inp in zip(layers, [trace.m] + trace.acts[:-1])]
    if model.variant in _ATTENTION:
        pres += [_attention_pre(model, group, t, trace.x_t) for group, t in trace.aux.items()]
    return pres


# ---------------------------------------------------------------------------
# request-level eval forward (serving)
# ---------------------------------------------------------------------------
#
# The candidates of one serving request share their clicked and unclicked
# ads, and the fusion layer is linear in m = [x_t, ctx, clk, unclk]. So the
# fusion pre-activation is summed group by group, once per request: x_t W_t^T
# + b, then each history group's aggregate times its block of the fusion
# weights; a round with contextual ads (round 2's winner, read out of the
# prepared rows) adds only that group's term before the layers above the
# fusion layer run. A group with no ads adds nothing.

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


class ModelScorer:
    """Model-server half of serving: one model's eval-mode request forward.
    ``prepare`` does the work a request's candidates share in every round,
    once per request (they share one clicked and one unclicked history);
    ``score`` gives the pCTRs of prepared rows under the given contextual
    ads (None for none), in row order. Neither writes any state but the
    kept rows.

    What a request reads of the model beyond its tensors is laid out once:
    two copies, the FC layers' weights as contiguous, read-only ``W^T``
    (``x @ W.T`` on the strided view runs about 1.7 times as slowly at
    serving's few rows), with each group's block of the fusion weights a row
    slice of fusion's copy and each layer above fusion a ``(W^T, b)`` pair;
    the attention blocks' weights transposed, split into target and ad
    halves for interactive attention (views into ``model.tensors``); and the
    contextual column index. Every ad it embeds is kept (``EmbeddedAds``,
    empty until a request names an ad): the clicked and unclicked history
    ads' rows, keyed by the ad, and the RANK catalog's target rows, keyed by
    the caller's key with their user_id segment zero. So a scorer serves the
    model as it was when the scorer was built: a change to the model's
    tensors reaches the views but not the copies or the rows, and needs a
    new scorer. A request embeds only the ads with no kept row and works in
    place on the arrays its matmuls return."""

    def __init__(self, model: ModelParams):
        tensors, d_t = model.tensors, model.dim("target")
        self.model = model
        self.fusion: dict[str, Array] = {}  # group -> (D_g, H_1) rows of fusion's W^T
        self.attention: dict[str, tuple] = {}  # group -> ([W_t^T,] W_a^T, b1, w2, b2)
        self.contextual: Array | None = None  # the target columns of the contextual fields
        self.fc: list[tuple[Array, Array]] = []  # the layers above fusion, (W^T, b)
        self.history: dict[str, EmbeddedAds] = {}  # clicked, unclicked -> their ads' rows
        self.targets = EmbeddedAds(tensors["emb.E"])  # catalog key -> target row, user_id zero
        layers = _fc_layers(tensors)
        if not layers:  # LR
            return
        wts = []
        for layer in layers:
            wt = np.ascontiguousarray(tensors[f"{layer}.W"].T)
            wt.flags.writeable = False  # a write here would not reach the model
            wts.append(wt)
        self.fc = [(wt, tensors[f"{layer}.b"]) for wt, layer in zip(wts[1:], layers[1:])]
        lo = 0
        for group in ("target",) + (AUX_GROUPS if model.variant.uses_aux else ()):
            self.fusion[group] = wts[0][lo : lo + model.dim(group)]
            lo += model.dim(group)
        for group in AUX_GROUPS if model.variant in _ATTENTION else ():
            w, b1, w2, b2 = _attention(model, group)
            halves = (w[:, :d_t].T, w[:, d_t:].T) if model.variant == Variant.DSTN_I else (w.T,)
            self.attention[group] = halves + (b1, w2, b2)
        if model.variant.uses_aux:
            self.history = {group: EmbeddedAds(tensors["emb.E"])
                            for group in ("clicked", "unclicked")}
            segment = {name: i for i, name in enumerate(model.schemas["target"].field_names)}
            try:
                fields = [segment[f.name] for f in model.schemas["contextual"].fields]
            except KeyError as exc:
                raise ContractViolation(f"a target ad has no field {exc.args[0]!r} of group "
                                        f"'contextual'") from None
            k = model.k
            self.contextual = (np.array(fields)[:, None] * k + np.arange(k)).ravel()

    def aggregate(self, group: str, ads: Array, x_t: Array) -> Array:
        """The group's aggregate of embedded ads (one row each, at least one)
        shared by every row of x_t: (1, D_g) for pooling and self-attention,
        (n, D_g) for interactive attention."""
        variant = self.model.variant
        if variant == Variant.DSTN_P:
            return ads.sum(axis=0, keepdims=True)
        if variant == Variant.DSTN_S:  # a softmax over the ads' scores
            w, b1, w2, b2 = self.attention[group]
            score = relu(ads @ w + b1) @ w2 + b2[0]
            e = np.exp(score - score.max())
            return (e / e.sum())[None] @ ads
        # interactive: x_t W_t^T + b1 per candidate plus ads W_a^T per ad, one (n, m, H) block
        w_t, w_a, b1, w2, b2 = self.attention[group]
        hid = (x_t @ w_t + b1)[:, None, :] + ads @ w_a
        np.maximum(hid, 0.0, out=hid)  # relu
        alpha = hid @ w2
        alpha += b2[0]
        np.exp(np.minimum(alpha, SCORE_CLAMP, out=alpha), out=alpha)
        return alpha @ ads

    def top(self, pre: Array) -> Array:
        """pCTRs from fusion pre-activations: the layers above the fusion
        layer, then the head; ``pre`` is left as it is."""
        cur = np.maximum(pre, 0.0)  # relu
        for wt, b in self.fc:
            cur = cur @ wt
            cur += b
            np.maximum(cur, 0.0, out=cur)
        tensors = self.model.tensors
        return _pctr(cur @ tensors["out.w"] + tensors["out.b"][0])

    def prepare(self, candidates: Array | Sequence[EncodedInstance],
                clicked: Sequence[EncodedInstance],
                unclicked: Sequence[EncodedInstance]) -> RequestRows:
        """Take the candidates' embedded target rows (given, or embedded here
        from target ads) and the history ads' kept rows, and sum the fusion
        pre-activation without its contextual term."""
        model = self.model
        x_t = candidates
        if not isinstance(candidates, np.ndarray):
            cols = AdColumns.from_instances(candidates, model.schemas["target"])
            x_t = embed_matrix(cols, model.tensors["emb.E"])
        if model.variant == Variant.LR:
            return RequestRows(x_t, x_t.sum(axis=1) + model.tensors["out.b"][0])
        pre = x_t @ self.fusion["target"]
        pre += model.tensors["fusion.b"]
        for group, ads in (("clicked", clicked), ("unclicked", unclicked)):
            if ads and group in self.history:
                schema = model.schemas[group]
                rows = self.history[group].take(
                    ads, lambda new: AdColumns.from_instances(new, schema))
                pre += self.aggregate(group, rows, x_t) @ self.fusion[group]
        return RequestRows(x_t, pre)

    def score(self, rows: RequestRows, contextual: RequestRows | None) -> list[float]:
        """Add the contextual group's fusion term, which LR and DNN do not
        have, with the contextual ads (the same for every row) read by field
        name out of prepared rows of the same request; then run the layers
        above the fusion layer."""
        if self.model.variant == Variant.LR:
            return _pctr(rows.pre).tolist()
        pre = rows.pre
        if contextual is not None and self.contextual is not None:
            ads = contextual.x_t[:, self.contextual]
            pre = pre + self.aggregate("contextual", ads, rows.x_t) @ self.fusion["contextual"]
        return self.top(pre).tolist()


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
    on, reusing the trace. An FC layer's gradient is masked where its output
    is zero, which is where its ReLU or its dropout zeroed it, then scaled
    by the dropout scale: each factor (1, 0 or the scale) gives the bits of
    the product with the mask the forward drew."""
    enc = trace.batch
    # pCTRs and labels are float64; the gradient takes the model's dtype
    dlogit = ((trace.pctr - enc.labels) / len(enc)).astype(model.dtype, copy=False)

    tensors = model.tensors
    acc = RowGradAccumulator(*tensors["emb.E"].shape, model.dtype)
    dense: dict[str, Array] = {}

    # output head (LR: a plain sum of the FC stack's input, which is x_t)
    head = tensors.get("out.w")
    if head is None:
        g_cur = np.repeat(dlogit[:, None], trace.m.shape[1], axis=1)
    else:
        dense["out.w"] = trace.acts[-1].T @ dlogit
        g_cur = dlogit[:, None] * head[None, :]
    dense["out.b"] = np.array([dlogit.sum()])

    # FC stack down to the fusion layer
    for i, layer in reversed(list(enumerate(_fc_layers(tensors)))):
        g_pre = g_cur  # a new array per layer, so the masks apply in place
        g_pre *= trace.acts[i] > 0
        if trace.drop_scale is not None:
            g_pre *= trace.drop_scale
        inp = trace.m if i == 0 else trace.acts[i - 1]
        dense[f"{layer}.W"] = g_pre.T @ inp
        dense[f"{layer}.b"] = g_pre.sum(axis=0)
        g_cur = g_pre @ tensors[f"{layer}.W"]

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
    hashes of the schema/vocabulary the parameters were trained against. A
    float32 model's header adds ``dtype=float32``; its tensors are stored as
    float64 like every other, an exact upcast."""
    from .numerics import save_tensors

    header = {
        "format": "adctr-ckpt-1",
        "variant": model.variant.header_name,
        "schema_hash": schemas_hash,
        "vocab_hash": vocab_hash,
        "k": str(model.k),
        "dropout_p": repr(model.dropout_p),
    }
    if model.dtype != np.float64:
        header["dtype"] = model.dtype.name
    save_tensors(path, header, model.tensors)


_CKPT_DTYPES = {"float64": np.float64, "float32": np.float32}


def _header_number(path, header: Mapping[str, str], key: str, kind, valid, rule: str):
    """The header's ``key`` read as ``kind``; a value that is missing, does
    not read, or breaks ``valid`` is a ``CheckpointError`` naming the file
    and the key."""
    if key not in header:
        raise CheckpointError(f"{path}: header has no {key}")
    try:
        value = kind(header[key])
    except ValueError:
        value = None
    if value is None or not valid(value):
        raise CheckpointError(f"{path}: header {key}={header[key]!r} is not {rule}")
    return value


def load_model(path, schemas: Mapping[str, GroupSchema]) -> tuple[ModelParams, dict[str, str]]:
    """Rebuild a ModelParams from a checkpoint, in the dtype its header names
    (float64 when it names none); returns (model, header)."""
    from .numerics import load_tensors

    header, tensors = load_tensors(path)
    if header.get("format") != "adctr-ckpt-1":
        raise CheckpointError(f"{path}: unknown checkpoint format")
    dtype = _CKPT_DTYPES.get(header.get("dtype", "float64"))
    if dtype is None:
        raise CheckpointError(f"{path}: unknown dtype {header['dtype']!r}")
    by_header = {v.header_name: v for v in Variant}
    variant = by_header.get(header.get("variant"))
    if variant is None:
        raise CheckpointError(f"{path}: unknown variant {header.get('variant')!r}")
    k = _header_number(path, header, "k", lambda t: int(t) if t.isascii() and t.isdigit() else None,
                       lambda v: v > 0, "a positive integer")
    dropout_p = _header_number(path, header, "dropout_p", float, lambda v: 0.0 <= v < 1.0,
                               "a probability in [0, 1)")
    # A file cut at a record boundary reads as a shorter TNSR1 file. Records
    # are sorted by name, so any such cut loses one of the layout's tensors.
    rows = defaultdict(int, {name: arr.shape[0] for name, arr in tensors.items() if arr.ndim})
    shapes = _layout(variant, schemas, k, rows)
    missing = shapes.keys() - tensors.keys()
    if missing:
        raise CheckpointError(f"{path}: missing tensors {sorted(missing)}")
    unexpected = tensors.keys() - shapes.keys()
    if unexpected:
        raise CheckpointError(f"{path}: unexpected tensors {sorted(unexpected)}")
    for name, shape in shapes.items():
        if tensors[name].shape != shape:
            raise CheckpointError(f"{path}: tensor {name} has shape {tensors[name].shape}, "
                             f"expected {shape}")
    # The file holds its records sorted by name; the model holds them in layout order.
    tensors = {name: tensors[name].astype(dtype, copy=False) for name in shapes}
    return ModelParams(variant, dict(schemas), dropout_p, tensors), header


def _aggregate_backward(model: ModelParams, group: str, t: AuxTrace, x_t: Array, g_agg: Array,
                        g_xt: Array, dense: dict[str, Array]) -> Array:
    """Backward through one group's aggregation; returns the per-ad gradient
    (T, D_g), one row per ad of ``t.cols``, and accumulates attention-parameter
    and target gradients."""
    g_up = g_agg[t.row_idx]  # each ad's example's aggregate gradient
    if model.variant == Variant.DSTN_P:
        return g_up

    w, _, w2, _ = _attention(model, group)
    g_ads = t.alpha[:, None] * g_up
    tdot = (t.ads * g_up).sum(axis=1)
    if model.variant == Variant.DSTN_S:
        inner = segment_sum(t.alpha * tdot, t.row_idx, t.n)
        g_score = t.alpha * (tdot - inner[t.row_idx])  # softmax Jacobian
        g_pre = np.outer(g_score, w2)
        g_pre *= t.hid > 0
        dense[f"attn.{group}.W1"] = g_pre.T @ t.ads
        dense[f"attn.{group}.b1"] = g_pre.sum(axis=0)
        dense[f"attn.{group}.w2"] = t.hid.T @ g_score
        dense[f"attn.{group}.b2"] = np.array([g_score.sum()])
        g_ads += g_pre @ w
        return g_ads

    # interactive attention
    g_score = t.alpha * tdot * (t.raw_score < SCORE_CLAMP)
    g_pre = np.outer(g_score, w2)
    g_pre *= t.hid > 0
    g_pre_t = segment_sum(g_pre, t.row_idx, t.n)  # the target half is shared by an example's ads
    d_t = x_t.shape[1]
    dense[f"attn.{group}.Wtc"] = np.concatenate([g_pre_t.T @ x_t, g_pre.T @ t.ads], axis=1)
    dense[f"attn.{group}.btc1"] = g_pre_t.sum(axis=0)
    dense[f"attn.{group}.h"] = t.hid.T @ g_score
    dense[f"attn.{group}.btc2"] = np.array([g_score.sum()])
    g_xt += g_pre_t @ w[:, :d_t]
    g_ads += g_pre @ w[:, d_t:]
    return g_ads
