"""Reference forms that the tests hold the library paths against:
per-instance embedding and its gradient scatter (plain loops, in the
summation order the batched paths promise to keep), per-ad-list aggregation,
batched aggregation over a padded (B, S, D_g) block with a slot mask,
interactive attention through the concatenated [target, ad] pair tensor, a
single-vector linear map, inverted dropout and a model's FC layers as
(weights, bias) pairs; one candidate scored alone
by the batched forward, and one example's forward; the canonical line of an
example; the vocabulary build and the log parse token by token, with no
memo; single-group ablation on example lists; the auxiliary-data
improvement metrics (AbsImp, NlzImp); round-2 scoring with the contextual
ads encoded and embedded afresh; a RANK line served with every candidate
encoded on its own; plus a fixed-score stand-in for the serving model
scorer."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from adctr.embedding import AdColumns, EncodedBatch
from adctr.ingest import (LabeledExample, ParseError, _parse_fields, _split_line, parse_uint,
                          read_record, serialize_ad)
from adctr.models import (SCORE_CLAMP, Variant, _aggregate, _attention, _fc_layers, _fusion_term,
                          _pad_aux, _pctr, forward_batch)
from adctr.numerics import Array, ContractViolation, dropout_mask, relu
from adctr.serving import MAX_CANDIDATES, RankRequest, _encode_candidate, ad_display_id
from adctr.schema import (AUX_GROUPS, GROUPS, EncodedInstance, EncodeError, GroupSchema,
                          Vocabulary, _field_tokens)
from adctr.train_eval import MetricUndefinedError


@dataclass(frozen=True)
class InstanceEmbedding:
    """Dense vector for one ad; dim = K * number of fields in its group."""

    group: str
    vector: Array


def embed_instance(inst: EncodedInstance, table: Array,
                   group_schema: GroupSchema) -> InstanceEmbedding:
    """Gather-and-sum one instance into its group vector through an (N, K)
    table: per field, 0.0 plus the bag's rows in bag order."""
    segments = []
    for idx_list in inst.indices[:len(group_schema.fields)]:
        seg = np.zeros(table.shape[1])
        for i in idx_list:
            if not 0 <= i < len(table):
                raise ContractViolation("feature index out of range for the embedding table")
            seg = seg + table[i]
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
                             params: tuple[Array, Array, Array, Array]) -> tuple[Array, Array]:
    """Softmax-weighted sum: score each ad on its own, normalize over the group.
    ``params`` is the group's attention block (W1, b1, w2, b2).

    Returns (aggregate, weights); weights lie on the simplex.
    """
    if not ads:
        raise ContractViolation("self-attention needs a nonempty ad list")
    w1, b1, w2, b2 = params
    x = np.stack([a.vector for a in ads])
    beta = relu(x @ w1.T + b1) @ w2 + b2[0]
    e = np.exp(beta - beta.max())
    alpha = e / e.sum()
    return alpha @ x, alpha


def aggregate_interactive_attention(target: InstanceEmbedding, ads: Sequence[InstanceEmbedding],
                                    params: tuple[Array, Array, Array, Array],
                                    dim: int | None = None) -> tuple[Array, Array]:
    """Weighted sum with per-ad positive weights that depend on the target too;
    ``params`` is the group's attention block (Wtc, btc1, h, btc2).

    Weights are exp of a one-hidden-layer MLP on [target, ad] and are not
    normalized against the other ads, so each weight is independent of the
    rest of the list. The pre-exp scalar is clamped at SCORE_CLAMP.
    """
    if not ads:
        if dim is None:
            raise ContractViolation("empty ad list needs an explicit output dim")
        return np.zeros(dim), np.zeros(0)
    w_tc, b_tc1, h, b_tc2 = params
    x = np.stack([a.vector for a in ads])
    pair = np.concatenate([np.broadcast_to(target.vector, (len(ads), target.vector.shape[0])), x],
                          axis=1)
    score = relu(pair @ w_tc.T + b_tc1) @ h + b_tc2[0]
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
        w1, b1, w2, b2 = _attention(model, group)
        pre = (block.reshape(b * s, d) @ w1.T + b1).reshape(b, s, -1)
        hid = relu(pre)
        score = (hid.reshape(b * s, -1) @ w2).reshape(b, s) + b2[0]
        rowmax = np.where(counts > 0, np.max(np.where(mask > 0, score, -np.inf), axis=1), 0.0)
        e = np.where(mask > 0, np.exp(score - rowmax[:, None]), 0.0)
        denom = e.sum(axis=1)
        alpha = e / np.where(denom > 0, denom, 1.0)[:, None]
        agg = (alpha[..., None] * block).sum(axis=1)
    else:
        w_tc, b_tc1, h, b_tc2 = _attention(model, group)
        d_t = x_t.shape[1]
        pre = ((x_t @ w_tc[:, :d_t].T + b_tc1)[:, None, :]
               + (block.reshape(b * s, d) @ w_tc[:, d_t:].T).reshape(b, s, -1))
        hid = relu(pre)
        raw = (hid.reshape(n * s, -1) @ h).reshape(n, s) + b_tc2[0]
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
                      for name, arr in model.tensors.items() if name.startswith(prefix)})
        return PaddedAggregate(agg, alpha[row_idx, col_idx], dense, g_xt,
                               g_block[row_idx, col_idx])
    tdot = (block * g_agg[:, None, :]).sum(axis=2)
    if model.variant == Variant.DSTN_S:
        inner = (alpha * tdot).sum(axis=1, keepdims=True)
        g_score = alpha * (tdot - inner)
        g_pre = (g_score[..., None] * w2 * (pre > 0)).reshape(b * s, -1)
        dense = {"W1": g_pre.T @ block.reshape(b * s, d), "b1": g_pre.sum(axis=0),
                 "w2": hid.reshape(b * s, -1).T @ g_score.reshape(b * s),
                 "b2": np.array([g_score.sum()])}
        g_block += (g_pre @ w1).reshape(b, s, d)
    else:
        g_score = alpha * tdot * (raw < SCORE_CLAMP)
        g_pre = g_score[..., None] * h * (pre > 0)
        g_pre_t = g_pre.sum(axis=1)
        g_pre = g_pre.reshape(b * s, -1)
        dense = {"Wtc": np.concatenate([g_pre_t.T @ x_t, g_pre.T @ block.reshape(b * s, d)],
                                       axis=1),
                 "btc1": g_pre_t.sum(axis=0),
                 "h": hid.reshape(b * s, -1).T @ g_score.reshape(b * s),
                 "btc2": np.array([g_score.sum()])}
        g_xt = g_pre_t @ w_tc[:, :d_t]
        g_block += (g_pre @ w_tc[:, d_t:]).reshape(b, s, d)
    return PaddedAggregate(agg, alpha[row_idx, col_idx], dense, g_xt, g_block[row_idx, col_idx])


def interactive_attention_pair_form(x_t: Array, ads: Array, mask: Array,
                                    params: tuple[Array, Array, Array, Array], g_agg: Array):
    """Batched interactive attention through the (B, S, D_t + D_g) pair
    tensor, forward and backward, for the attention block (Wtc, btc1, h,
    btc2). Returns (agg, parameter gradients by tensor suffix, target
    gradient, per-ad gradient)."""
    w_tc, b_tc1, h, b_tc2 = params
    b, s, _ = ads.shape
    d_t = x_t.shape[1]
    pair = np.concatenate([np.broadcast_to(x_t[:, None, :], (b, s, d_t)), ads], axis=2)
    pre = (pair.reshape(b * s, -1) @ w_tc.T + b_tc1).reshape(b, s, -1)
    hid = relu(pre)
    raw = (hid.reshape(b * s, -1) @ h).reshape(b, s) + b_tc2[0]
    alpha = np.exp(np.minimum(raw, SCORE_CLAMP)) * mask
    agg = (alpha[..., None] * ads).sum(axis=1)
    g_score = alpha * (ads * g_agg[:, None, :]).sum(axis=2) * (raw < SCORE_CLAMP)
    g_pre = (g_score[..., None] * h * (pre > 0)).reshape(b * s, -1)
    grads = {"Wtc": g_pre.T @ pair.reshape(b * s, -1), "btc1": g_pre.sum(axis=0),
             "h": hid.reshape(b * s, -1).T @ g_score.reshape(b * s),
             "btc2": np.array([g_score.sum()])}
    g_pair = (g_pre @ w_tc).reshape(b, s, -1)
    g_ads = alpha[..., None] * g_agg[:, None, :] + g_pair[..., d_t:]
    return agg, grads, g_pair[..., :d_t].sum(axis=1), g_ads


def fc_stack(model) -> list[tuple[Array, Array]]:
    """The model's FC layers as (weights, bias) pairs, the fusion layer first."""
    return [(model.tensors[f"{layer}.W"], model.tensors[f"{layer}.b"])
            for layer in _fc_layers(model.tensors)]


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


def forward(model, example: LabeledExample, mode: str = "eval",
            rng: np.random.Generator | None = None):
    """forward_batch on one example: (its pCTR, the trace)."""
    pctr, trace = forward_batch(model, [example], mode=mode, rng=rng)
    return float(pctr[0]), trace


def serialize_example(ex: LabeledExample) -> str:
    """Canonical line for an example; inverse of parse_log_line on canonical input."""
    return "\t".join([
        str(ex.label),
        str(ex.timestamp),
        ex.user_id,
        serialize_ad(ex.target),
        "|".join(serialize_ad(a) for a in ex.contextual),
        "|".join(serialize_ad(a) for a in ex.clicked),
        "|".join(serialize_ad(a) for a in ex.unclicked),
    ])


def reference_vocabulary(lines: Sequence[str], schemas: Mapping[str, GroupSchema]) -> Vocabulary:
    """Every ad of every line read afresh and every token added on its own,
    counted once per target occurrence; a value encoding refuses adds
    nothing."""
    oov: dict[str, int] = {}
    index: dict[tuple[str, str], int] = {}
    counts: list[int] = []
    for group in GROUPS:
        for fs in schemas[group].fields:
            if fs.name not in oov:
                oov[fs.name] = len(counts)
                counts.append(0)
    for lineno, line in enumerate(lines, start=1):
        for group, texts in zip(GROUPS, _split_line(line, lineno)[1]):
            for text in texts:
                record = _parse_fields(text, lineno)
                for fs in schemas[group].fields:
                    try:
                        tokens = _field_tokens(fs, record.get(fs.name, ()))
                    except EncodeError:
                        continue
                    for token in tokens:
                        if (fs.name, token) not in index:
                            index[(fs.name, token)] = len(counts)
                            counts.append(0)
                        counts[index[(fs.name, token)]] += group == "target"
    return Vocabulary(oov, index, counts)


def reference_examples(lines: Sequence[str], schemas: Mapping[str, GroupSchema],
                       vocab: Vocabulary) -> list[LabeledExample]:
    """Each line parsed and each of its ads encoded token by token, with no
    cache; an encoding error is a ``ParseError`` naming the line."""
    out = []
    for lineno, line in enumerate(lines, start=1):
        (label, ts, user_id), texts = _split_line(line, lineno)
        if label not in ("0", "1"):
            raise ParseError(f"label must be 0 or 1, got {label!r}", lineno)
        groups = []
        for group, ads in zip(GROUPS, texts):
            encoded = []
            for text in ads:
                record = read_record(text, schemas[group], lineno)
                indices, raw = [], []
                for fs in schemas[group].fields:
                    values = record.get(fs.name, ())
                    try:
                        tokens = _field_tokens(fs, values)
                    except EncodeError as exc:
                        raise ParseError(str(exc), lineno) from None
                    indices.append(tuple(vocab.lookup(fs.name, t) for t in tokens))
                    raw.append((fs.name, values))
                encoded.append(EncodedInstance(group, tuple(indices), tuple(raw)))
            groups.append(tuple(encoded))
        (target,), contextual, clicked, unclicked = groups
        out.append(LabeledExample(int(label), int(ts), user_id, target, contextual, clicked,
                                  unclicked))
    return out


def reference_ablate(examples: Sequence[LabeledExample], keep_group: str) -> list[LabeledExample]:
    """Copies with every auxiliary group except keep_group emptied."""
    if keep_group not in AUX_GROUPS:
        raise ValueError(f"unknown auxiliary group {keep_group!r}")
    swaps = {g: () for g in AUX_GROUPS if g != keep_group}
    return [dataclasses.replace(ex, **swaps) for ex in examples]


def average_aux_count(batch: EncodedBatch, group: str) -> float:
    """Mean number of ads of an auxiliary group per example, read off the
    group's offsets."""
    if group not in AUX_GROUPS:
        raise ValueError(f"unknown auxiliary group {group!r}")
    if not len(batch):
        return 0.0
    return float(np.mean(np.diff(batch.aux[group][0])))


class NlzImpUndefinedError(MetricUndefinedError):
    """NlzImp has no value; AbsImp, which still has one, rides along."""

    def __init__(self, message: str, abs_imp: float):
        super().__init__(message)
        self.abs_imp = abs_imp


def improvement_metrics(auc_variant: float, auc_dnn: float,
                        avg_aux_count: float) -> tuple[float, float]:
    """(AbsImp, NlzImp): absolute AUC gain over the plain-DNN baseline, and
    that gain normalized per auxiliary ad."""
    abs_imp = auc_variant - auc_dnn
    if avg_aux_count <= 0:
        raise NlzImpUndefinedError("NlzImp needs a positive average ad count", abs_imp)
    return abs_imp, abs_imp / avg_aux_count


def score_with_contextual_ads(model, rows, contextual: Sequence[EncodedInstance]) -> Array:
    """``score_request`` with the contextual ads encoded by field name under
    the contextual schema and embedded afresh, as round 2 scored its winner
    before it read the winner's prepared row."""
    if model.variant == Variant.LR:
        return _pctr(rows.pre)
    pre = rows.pre
    if contextual and model.variant.uses_aux:
        cols = AdColumns.from_instances(contextual, model.schemas["contextual"])
        t = _pad_aux(model, np.array([0, len(cols)]), cols)
        _aggregate(model, t, "contextual", rows.x_t)
        pre = pre + _fusion_term(model, "contextual", t.agg)
    cur = relu(pre)
    for w, b in fc_stack(model)[1:]:
        cur = relu(cur @ w.T + b)
    return _pctr(cur @ model.tensors["out.w"] + model.tensors["out.b"][0])


def reference_handle_line(server, line: str) -> str:
    """A RANK line served with each named candidate encoded on its own (the
    request's user_id filled in) and ranked by ``rank_request``; ``now`` and
    ``slots`` read as ASCII digits."""
    catalog, target_schema, vocab = server.rows.catalog, server.rows.schema, server.rows.vocab
    try:
        parts = line.split(" ")
        if len(parts) != 5 or parts[0] != "RANK":
            return "ERR malformed request"
        _, user_id, now, slots, ad_ids = parts
        ad_ids = ad_ids.split(",")
        if len(ad_ids) > MAX_CANDIDATES:
            return f"ERR too many candidates: {len(ad_ids)} > {MAX_CANDIDATES}"
        candidates = []
        for ad_id in ad_ids:
            record = catalog.get(ad_id)
            if record is None:
                return f"ERR unknown ad {ad_id}"
            candidates.append(_encode_candidate(record, user_id, target_schema, vocab))
        req = RankRequest(request_id="-", user_id=user_id, now=parse_uint(now, "now", 0),
                          candidates=tuple(candidates), slots=parse_uint(slots, "slots", 0))
        res = server.ad_server.rank(req)
        body = " ".join(f"{ad_display_id(r.ad)}:{r.pctr:.6f}:{r.round}" for r in res.ranked)
        return f"OK {body}"
    except Exception as exc:
        return f"ERR {exc}"


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
