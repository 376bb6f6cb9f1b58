"""Reference forms that the tests hold the library paths against:
per-instance embedding and its gradient scatter (plain loops, in the
summation order the batched paths promise to keep), per-ad-list aggregation,
batched aggregation over a padded (B, S, D_g) block with a slot mask,
interactive attention through the concatenated [target, ad] pair tensor, a
single-vector linear map and inverted dropout; one candidate scored alone
by the batched forward; plus a fixed-score stand-in for the serving model
scorer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from adctr.embedding import EmbeddingTable
from adctr.ingest import LabeledExample
from adctr.models import (SCORE_CLAMP, InteractiveAttentionParams, SelfAttentionParams,
                          Variant, forward_batch)
from adctr.numerics import Array, ContractViolation, dropout_mask, relu
from adctr.schema import EncodedInstance, GroupSchema


@dataclass(frozen=True)
class InstanceEmbedding:
    """Dense vector for one ad; dim = K * number of fields in its group."""

    group: str
    vector: Array


def embed_instance(inst: EncodedInstance, table: EmbeddingTable,
                   group_schema: GroupSchema) -> InstanceEmbedding:
    """Gather-and-sum one instance into its group vector: per field, 0.0 plus
    the bag's rows in bag order."""
    segments = []
    for idx_list in inst.indices[:len(group_schema.fields)]:
        seg = np.zeros(table.k)
        for i in idx_list:
            if not 0 <= i < table.n:
                raise ContractViolation("feature index out of range for the embedding table")
            seg = seg + table.e[i]
        segments.append(seg)
    return InstanceEmbedding(group=inst.group, vector=np.concatenate(segments))


def embed_gradient_scatter(inst: EncodedInstance, upstream: Array) -> list[tuple[int, Array]]:
    """Adjoint of embed_instance: route the upstream gradient back to rows.

    Returns (row, K-grad) pairs; rows referenced several times appear once per
    occurrence, and untouched rows do not appear at all.
    """
    k = upstream.shape[0] // len(inst.indices)
    if upstream.shape != (k * len(inst.indices),):
        raise ContractViolation("upstream gradient dim does not match the instance")
    out: list[tuple[int, Array]] = []
    for fi, idx_list in enumerate(inst.indices):
        seg = upstream[fi * k : (fi + 1) * k]
        for idx in idx_list:
            out.append((idx, seg))
    return out


def scatter_oracle(batches, n: int, k: int) -> tuple[Array, Array]:
    """Sum of embed_gradient_scatter over (instances, upstream rows) pairs,
    terms added to a zero table in order; returns (touched rows, their sums)."""
    dense = np.zeros((n, k))
    touched = np.zeros(n, dtype=bool)
    for instances, upstream in batches:
        for inst, up in zip(instances, upstream):
            for row, grad in embed_gradient_scatter(inst, up):
                dense[row] = dense[row] + grad
                touched[row] = True
    rows = np.flatnonzero(touched)
    return rows, dense[rows]


def aggregate_pooling(ads: Sequence[InstanceEmbedding], dim: int | None = None) -> Array:
    """Entrywise sum of same-group ad embeddings; empty list gives zeros."""
    if not ads:
        if dim is None:
            raise ContractViolation("empty ad list needs an explicit output dim")
        return np.zeros(dim)
    if len({a.group for a in ads}) > 1:
        raise ContractViolation("aggregation mixes ad groups")
    return np.sum([a.vector for a in ads], axis=0)


def aggregate_self_attention(ads: Sequence[InstanceEmbedding],
                             params: SelfAttentionParams) -> tuple[Array, Array]:
    """Softmax-weighted sum: score each ad on its own, normalize over the group.

    Returns (aggregate, weights); weights lie on the simplex.
    """
    if not ads:
        raise ContractViolation("self-attention needs a nonempty ad list")
    x = np.stack([a.vector for a in ads])
    beta = relu(x @ params.w1.T + params.b1) @ params.w2 + params.b2[0]
    e = np.exp(beta - beta.max())
    alpha = e / e.sum()
    return alpha @ x, alpha


def aggregate_interactive_attention(target: InstanceEmbedding, ads: Sequence[InstanceEmbedding],
                                    params: InteractiveAttentionParams,
                                    dim: int | None = None) -> tuple[Array, Array]:
    """Weighted sum with per-ad positive weights that depend on the target too.

    Weights are exp of a one-hidden-layer MLP on [target, ad] and are not
    normalized against the other ads, so each weight is independent of the
    rest of the list. The pre-exp scalar is clamped at SCORE_CLAMP.
    """
    if not ads:
        if dim is None:
            raise ContractViolation("empty ad list needs an explicit output dim")
        return np.zeros(dim), np.zeros(0)
    x = np.stack([a.vector for a in ads])
    pair = np.concatenate([np.broadcast_to(target.vector, (len(ads), target.vector.shape[0])), x],
                          axis=1)
    score = relu(pair @ params.w_tc.T + params.b_tc1) @ params.h + params.b_tc2[0]
    alpha = np.exp(np.minimum(score, SCORE_CLAMP))
    return alpha @ x, alpha


@dataclass
class PaddedAggregate:
    """What ``padded_aggregate`` computed; per-ad arrays have one row per ad."""

    agg: Array              # (B, D_g), or (n, D_g) for interactive on a shared block
    alpha: Array            # (T,) per-ad weights, or (n, T) on a shared block
    dense: dict[str, Array]
    g_xt: Array
    g_ads: Array            # (T, D_g)


def padded_aggregate(model, group: str, offsets: Array, ads: Array, x_t: Array,
                     g_agg: Array | None = None) -> PaddedAggregate:
    """One group's aggregation, and its backward if ``g_agg`` is given, over
    a padded block: the ads of example i (rows ``offsets[i]:offsets[i + 1]``
    of ``ads``) are padded to S slots with a slot mask, and every sum runs
    over the slots. A one-example block whose ads every row of ``x_t``
    shares is broadcast (forward only)."""
    counts = offsets[1:] - offsets[:-1]
    b, d = len(counts), ads.shape[1]
    s = int(counts.max()) if b else 0
    row_idx = np.repeat(np.arange(b), counts)
    col_idx = np.arange(len(ads)) - np.repeat(offsets[:-1], counts)
    block, mask = np.zeros((b, s, d)), np.zeros((b, s))
    block[row_idx, col_idx] = ads
    mask[row_idx, col_idx] = 1.0
    alpha, n = mask, len(x_t)
    if model.variant == Variant.DSTN_P or s == 0:
        agg = (block * mask[..., None]).sum(axis=1)
    elif model.variant == Variant.DSTN_S:
        p = model.attention[group]
        pre = (block.reshape(b * s, d) @ p.w1.T + p.b1).reshape(b, s, -1)
        hid = relu(pre)
        score = (hid.reshape(b * s, -1) @ p.w2).reshape(b, s) + p.b2[0]
        rowmax = np.where(counts > 0, np.max(np.where(mask > 0, score, -np.inf), axis=1), 0.0)
        e = np.where(mask > 0, np.exp(score - rowmax[:, None]), 0.0)
        denom = e.sum(axis=1)
        alpha = e / np.where(denom > 0, denom, 1.0)[:, None]
        agg = (alpha[..., None] * block).sum(axis=1)
    else:
        p = model.attention[group]
        d_t = x_t.shape[1]
        pre = ((x_t @ p.w_tc[:, :d_t].T + p.b_tc1)[:, None, :]
               + (block.reshape(b * s, d) @ p.w_tc[:, d_t:].T).reshape(b, s, -1))
        hid = relu(pre)
        raw = (hid.reshape(n * s, -1) @ p.h).reshape(n, s) + p.b_tc2[0]
        alpha = np.exp(np.minimum(raw, SCORE_CLAMP)) * mask
        agg = (alpha[..., None] * block).sum(axis=1)
    if n != b:  # a shared block: per candidate weights, forward only
        return PaddedAggregate(agg, alpha[:, col_idx], {}, np.zeros_like(x_t), np.zeros(0))

    dense: dict[str, Array] = {}
    g_xt = np.zeros_like(x_t)
    if g_agg is None or model.variant == Variant.DSTN_P:
        g_block = np.zeros((b, s, d)) if g_agg is None else g_agg[:, None, :] * mask[..., None]
        return PaddedAggregate(agg, alpha[row_idx, col_idx], dense, g_xt,
                               g_block[row_idx, col_idx])
    prefix = f"attn.{group}."
    g_block = alpha[..., None] * g_agg[:, None, :]
    if s == 0:
        dense.update({name[len(prefix):]: np.zeros_like(arr)
                      for name, arr in model.tensors().items() if name.startswith(prefix)})
        return PaddedAggregate(agg, alpha[row_idx, col_idx], dense, g_xt,
                               g_block[row_idx, col_idx])
    tdot = (block * g_agg[:, None, :]).sum(axis=2)
    if model.variant == Variant.DSTN_S:
        inner = (alpha * tdot).sum(axis=1, keepdims=True)
        g_score = alpha * (tdot - inner)
        g_pre = (g_score[..., None] * p.w2 * (pre > 0)).reshape(b * s, -1)
        dense = {"W1": g_pre.T @ block.reshape(b * s, d), "b1": g_pre.sum(axis=0),
                 "w2": hid.reshape(b * s, -1).T @ g_score.reshape(b * s),
                 "b2": np.array([g_score.sum()])}
        g_block += (g_pre @ p.w1).reshape(b, s, d)
    else:
        g_score = alpha * tdot * (raw < SCORE_CLAMP)
        g_pre = g_score[..., None] * p.h * (pre > 0)
        g_pre_t = g_pre.sum(axis=1)
        g_pre = g_pre.reshape(b * s, -1)
        dense = {"Wtc": np.concatenate([g_pre_t.T @ x_t, g_pre.T @ block.reshape(b * s, d)],
                                       axis=1),
                 "btc1": g_pre_t.sum(axis=0),
                 "h": hid.reshape(b * s, -1).T @ g_score.reshape(b * s),
                 "btc2": np.array([g_score.sum()])}
        g_xt = g_pre_t @ p.w_tc[:, :d_t]
        g_block += (g_pre @ p.w_tc[:, d_t:]).reshape(b, s, d)
    return PaddedAggregate(agg, alpha[row_idx, col_idx], dense, g_xt, g_block[row_idx, col_idx])


def interactive_attention_pair_form(x_t: Array, ads: Array, mask: Array,
                                    params: InteractiveAttentionParams, g_agg: Array):
    """Batched interactive attention through the (B, S, D_t + D_g) pair
    tensor, forward and backward. Returns (agg, parameter gradients by
    tensor suffix, target gradient, per-ad gradient)."""
    b, s, _ = ads.shape
    d_t = x_t.shape[1]
    pair = np.concatenate([np.broadcast_to(x_t[:, None, :], (b, s, d_t)), ads], axis=2)
    pre = (pair.reshape(b * s, -1) @ params.w_tc.T + params.b_tc1).reshape(b, s, -1)
    hid = relu(pre)
    raw = (hid.reshape(b * s, -1) @ params.h).reshape(b, s) + params.b_tc2[0]
    alpha = np.exp(np.minimum(raw, SCORE_CLAMP)) * mask
    agg = (alpha[..., None] * ads).sum(axis=1)
    g_score = alpha * (ads * g_agg[:, None, :]).sum(axis=2) * (raw < SCORE_CLAMP)
    g_pre = (g_score[..., None] * params.h * (pre > 0)).reshape(b * s, -1)
    grads = {"Wtc": g_pre.T @ pair.reshape(b * s, -1), "btc1": g_pre.sum(axis=0),
             "h": hid.reshape(b * s, -1).T @ g_score.reshape(b * s),
             "btc2": np.array([g_score.sum()])}
    g_pair = (g_pre @ params.w_tc).reshape(b, s, -1)
    g_ads = alpha[..., None] * g_agg[:, None, :] + g_pair[..., d_t:]
    return agg, grads, g_pair[..., :d_t].sum(axis=1), g_ads


def linear(w: Array, b: Array, x: Array) -> Array:
    """w @ x + b for a single vector x."""
    if w.ndim != 2:
        raise ContractViolation(f"weight must be a matrix, got ndim={w.ndim}")
    if x.shape != (w.shape[1],):
        raise ContractViolation(f"input shape {x.shape} does not match weight {w.shape}")
    if b.shape != (w.shape[0],):
        raise ContractViolation(f"bias shape {b.shape} does not match weight {w.shape}")
    return w @ x + b


def dropout(x: Array, p: float, mode: str, rng: np.random.Generator | None = None) -> Array:
    """Inverted dropout: identity in eval mode, mask-and-rescale in train mode."""
    if mode not in ("train", "eval"):
        raise ContractViolation(f"unknown mode {mode!r}")
    if not 0.0 <= p < 1.0:
        raise ContractViolation(f"dropout probability must be in [0, 1), got {p}")
    if mode == "eval" or p == 0.0:
        return x
    return x * dropout_mask(x.shape, p, rng)


def score_alone(model, candidate, contextual, clicked, unclicked) -> float:
    """pCTR of one candidate scored on its own (a batch of one) by
    forward_batch."""
    ex = LabeledExample(label=0, timestamp=0, user_id="", target=candidate,
                        contextual=tuple(contextual), clicked=tuple(clicked),
                        unclicked=tuple(unclicked))
    pctr, _ = forward_batch(model, [ex])
    return float(pctr[0])


class StubRows(tuple):
    """A stub scorer's prepared rows: the candidates themselves."""

    def take(self, rows) -> "StubRows":
        return StubRows(self[i] for i in rows)


class StubScorer:
    """Context-insensitive scorer with a fixed per-ad score; checks the
    serving protocol's shape independently of any trained model."""

    def __init__(self, score_of: Callable[[EncodedInstance], float]):
        self.score_of = score_of
        self.forward_count = 0

    def prepare(self, candidates, clicked, unclicked) -> StubRows:
        return StubRows(candidates)

    def score(self, rows, contextual) -> list[float]:
        self.forward_count += len(rows)
        return [float(self.score_of(c)) for c in rows]
