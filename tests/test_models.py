import copy
import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adctr import models
from adctr.embedding import RowGradAccumulator
from adctr.models import (SCORE_CLAMP, AuxTrace, ModelScorer, Variant, _aggregate,
                          _aggregate_backward, _attention, _layout, backward, encode_batch,
                          forward_batch, init_model, load_model, loss, loss_from_logits,
                          save_model)
from adctr.numerics import (ContractViolation, adagrad_step, adagrad_step_rows, dropout_mask,
                            make_rng, relu, save_tensors, segment_sum, sigmoid)
from adctr.schema import AUX_GROUPS, FieldKind, FieldSchema, GroupSchema
from adctr.toy import make_toy_problem
from adctr.train_eval import NonFiniteError, TrainConfig, _check_finite, embedding_penalty, train
from oracles import (InstanceEmbedding, aggregate_interactive_attention, aggregate_pooling,
                     aggregate_self_attention, astype, embed_instance, fc_stack, forward,
                     interactive_attention_pair_form, padded_aggregate, prepare_afresh,
                     score_alone, score_with_contextual_ads)


def emb(vec, group="clicked"):
    return InstanceEmbedding(group=group, vector=np.asarray(vec, dtype=np.float64))


def zero_params(model):
    for arr in model.tensors.values():
        arr[...] = 0.0
    return model


def build(variant, toy_problem, seed=21, dropout=0.0, **kw):
    schemas, vocab, _ = toy_problem
    return init_model(Variant(variant), schemas, vocab.size, make_rng(seed),
                      k=kw.pop("k", 4), fc_dims=kw.pop("fc_dims", (12, 6)),
                      attention_dim=kw.pop("attention_dim", 5), dropout_p=dropout)


class TestPooling:
    def test_empty_list_is_zero_vector(self):
        np.testing.assert_array_equal(aggregate_pooling([], dim=3), np.zeros(3))

    def test_single_ad_unchanged(self):
        v = np.array([1.0, -2.0])
        np.testing.assert_array_equal(aggregate_pooling([emb(v)]), v)

    def test_two_ads_sum(self):
        out = aggregate_pooling([emb([1.0, 2.0]), emb([0.5, -1.0])])
        np.testing.assert_array_equal(out, [1.5, 1.0])

    def test_mixed_groups_rejected(self):
        with pytest.raises(ContractViolation):
            aggregate_pooling([emb([1.0], "clicked"), emb([1.0], "unclicked")])


class TestSelfAttention:
    def test_constant_scorer_gives_uniform_weights(self):
        params = (np.zeros((3, 2)), np.zeros(3), np.zeros(3), np.array([7.0]))
        ads = [emb([1.0, 0.0]), emb([0.0, 2.0]), emb([3.0, 3.0])]
        agg, alpha = aggregate_self_attention(ads, params)
        np.testing.assert_allclose(alpha, [1 / 3] * 3)
        np.testing.assert_allclose(agg, np.mean([a.vector for a in ads], axis=0))

    def test_known_scores_give_known_weights(self):
        # beta_i = relu(x_i[0]); scores (0, ln 3) -> weights (1/4, 3/4)
        params = (np.array([[1.0, 0.0]]), np.zeros(1), np.ones(1), np.zeros(1))
        ads = [emb([0.0, 5.0]), emb([math.log(3.0), -1.0])]
        _, alpha = aggregate_self_attention(ads, params)
        np.testing.assert_allclose(alpha, [0.25, 0.75], atol=1e-12)

    def test_matches_straight_line_recomputation(self):
        rng = make_rng(8)
        params = (rng.normal(size=(4, 3)), rng.normal(size=4), rng.normal(size=4),
                  rng.normal(size=1))
        ads = [emb(rng.normal(size=3)) for _ in range(3)]
        agg, alpha = aggregate_self_attention(ads, params)

        w1, b1, w2, b2 = params
        beta = [float(w2 @ np.maximum(w1 @ a.vector + b1, 0.0) + b2[0]) for a in ads]
        weights = np.exp(beta) / np.exp(beta).sum()
        expected = sum(w * a.vector for w, a in zip(weights, ads))
        np.testing.assert_allclose(alpha, weights, rtol=1e-12)
        np.testing.assert_allclose(agg, expected, rtol=1e-12)

    def test_weights_on_simplex(self):
        rng = make_rng(9)
        for n in (1, 2, 5):
            params = (rng.normal(size=(4, 3)), rng.normal(size=4), rng.normal(size=4),
                      rng.normal(size=1))
            ads = [emb(rng.normal(size=3)) for _ in range(n)]
            _, alpha = aggregate_self_attention(ads, params)
            assert np.all(alpha >= 0)
            assert alpha.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_list_rejected(self):
        params = (np.zeros((1, 2)), np.zeros(1), np.zeros(1), np.zeros(1))
        with pytest.raises(ContractViolation):
            aggregate_self_attention([], params)


class TestInteractiveAttention:
    def _params(self, rng, d_t=2, d_g=2, h=3):
        # (Wtc, btc1, h, btc2)
        return (rng.normal(size=(h, d_t + d_g)), rng.normal(size=h), rng.normal(size=h),
                rng.normal(size=1))

    def test_zero_head_reduces_to_sum_pooling(self):
        rng = make_rng(10)
        params = self._params(rng)
        params[2][...] = 0.0
        params[3][...] = 0.0
        target = emb([0.3, -0.7], "target")
        ads = [emb(rng.normal(size=2)) for _ in range(3)]
        agg, alpha = aggregate_interactive_attention(target, ads, params)
        np.testing.assert_array_equal(alpha, np.ones(3))
        np.testing.assert_allclose(agg, aggregate_pooling(ads), rtol=0, atol=0)

    def test_empty_list(self):
        params = self._params(make_rng(0))
        agg, alpha = aggregate_interactive_attention(emb([1.0, 2.0], "target"), [],
                                                     params, dim=2)
        np.testing.assert_array_equal(agg, np.zeros(2))
        assert alpha.size == 0

    def test_matches_straight_line_recomputation(self):
        rng = make_rng(11)
        params = self._params(rng)
        target = emb(rng.normal(size=2), "target")
        ads = [emb(rng.normal(size=2)) for _ in range(2)]
        agg, alpha = aggregate_interactive_attention(target, ads, params)

        expected_alpha = []
        for a in ads:
            pair = np.concatenate([target.vector, a.vector])
            w_tc, b_tc1, h, b_tc2 = params
            score = float(h @ np.maximum(w_tc @ pair + b_tc1, 0.0) + b_tc2[0])
            expected_alpha.append(math.exp(min(score, 30.0)))
        expected = sum(w * a.vector for w, a in zip(expected_alpha, ads))
        np.testing.assert_allclose(alpha, expected_alpha, rtol=1e-12)
        np.testing.assert_allclose(agg, expected, rtol=1e-12)

    def test_weights_positive(self):
        rng = make_rng(12)
        params = self._params(rng)
        target = emb(rng.normal(size=2), "target")
        ads = [emb(rng.normal(size=2)) for _ in range(5)]
        _, alpha = aggregate_interactive_attention(target, ads, params)
        assert np.all(alpha > 0)

    def test_weight_independent_of_other_ads(self):
        # No cross-ad normalization: removing neighbours leaves a weight as is.
        rng = make_rng(13)
        params = self._params(rng)
        target = emb(rng.normal(size=2), "target")
        ads = [emb(rng.normal(size=2)) for _ in range(4)]
        _, alpha_all = aggregate_interactive_attention(target, ads, params)
        _, alpha_one = aggregate_interactive_attention(target, ads[:1], params)
        assert alpha_all[0] == pytest.approx(alpha_one[0], rel=1e-12)

    def test_score_clamp_bounds_weights(self):
        params = (np.full((1, 4), 50.0), np.zeros(1), np.array([50.0]), np.zeros(1))
        target = emb([1.0, 1.0], "target")
        _, alpha = aggregate_interactive_attention(target, [emb([1.0, 1.0])], params)
        assert alpha[0] == pytest.approx(math.exp(30.0))


def ragged_trace(counts, ads):
    """A hand-built trace: example i owns the next counts[i] rows of ads."""
    return AuxTrace(cols=None, n=len(counts), row_idx=np.repeat(np.arange(len(counts)), counts),
                    ads=ads, alpha=np.ones(len(ads)))


class TestRaggedAggregation:
    """Aggregation over the ads that exist against the padded reference."""

    CASES = {"mixed": [2, 0, 5, 1, 3, 0, 4],  # an example with no ads, a full row of 5
             "empty-group": [0, 0, 0, 0],
             "full-rows": [5, 5, 5],
             "batch-of-one": [3],
             "batch-of-one-empty": [0]}

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("variant", ["dstn-p", "dstn-s", "dstn-i"])
    def test_forward_and_every_gradient_match_the_padded_block(self, toy_problem, variant, case):
        model = build(variant, toy_problem, seed=34)
        counts = np.array(self.CASES[case])
        offsets = np.concatenate([[0], np.cumsum(counts)])
        rng = make_rng(35)
        x_t = rng.normal(size=(len(counts), model.dim("target")))
        for group in AUX_GROUPS:
            ads = rng.normal(size=(int(counts.sum()), model.dim(group))) * 2.0
            g_agg = rng.normal(size=(len(counts), model.dim(group)))
            t = ragged_trace(counts, ads)
            _aggregate(model, t, group, x_t)
            g_xt, dense = np.zeros_like(x_t), {}
            g_ads = _aggregate_backward(model, group, t, x_t, g_agg, g_xt, dense)

            ref = padded_aggregate(model, group, offsets, ads, x_t, g_agg)
            np.testing.assert_allclose(t.agg, ref.agg, rtol=0, atol=1e-12)
            np.testing.assert_allclose(t.alpha, ref.alpha, rtol=0, atol=1e-12)
            np.testing.assert_allclose(g_xt, ref.g_xt, rtol=0, atol=1e-12)
            assert g_ads.shape == (len(ads), model.dim(group))
            np.testing.assert_allclose(g_ads, ref.g_ads, rtol=0, atol=1e-12)
            prefix = f"attn.{group}."
            assert {k[len(prefix):] for k in dense} == set(ref.dense)
            for suffix, want in ref.dense.items():
                np.testing.assert_allclose(dense[prefix + suffix], want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", ["dstn-p", "dstn-s", "dstn-i"])
    def test_shared_block_broadcasts_to_every_candidate(self, toy_problem, variant):
        # Serving's history: one example's ads shared by n candidate rows,
        # aggregated by the model scorer.
        model = build(variant, toy_problem, seed=36)
        scorer = ModelScorer(model)
        rng = make_rng(37)
        n = 6
        x_t = rng.normal(size=(n, model.dim("target")))
        for group in AUX_GROUPS:
            pre = rng.normal(size=(n, 12))
            assert scorer.add_group(pre, group, np.zeros((0, model.dim(group))), x_t) is pre
            for n_ads in (1, 4):
                ads = rng.normal(size=(n_ads, model.dim(group))) * 2.0
                agg = scorer.aggregate(group, ads, x_t)
                rows = n if variant == "dstn-i" else 1
                assert agg.shape == (rows, model.dim(group))
                # each row equals that candidate aggregated alone
                for i in range(n):
                    alone = ragged_trace([n_ads], ads)
                    _aggregate(model, alone, group, x_t[i : i + 1])
                    ref = padded_aggregate(model, group, np.array([0, n_ads]), ads,
                                           x_t[i : i + 1])
                    np.testing.assert_allclose(alone.agg, ref.agg, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(agg[min(i, rows - 1)], alone.agg[0],
                                               rtol=0, atol=1e-12)

    def test_a_group_empty_in_the_whole_batch_gives_zero_gradients(self, toy_problem):
        model = build("dstn-s", toy_problem, seed=38)
        t = ragged_trace([0, 0], np.zeros((0, model.dim("clicked"))))
        x_t = np.ones((2, model.dim("target")))
        _aggregate(model, t, "clicked", x_t)
        np.testing.assert_array_equal(t.agg, np.zeros((2, model.dim("clicked"))))
        dense = {}
        _aggregate_backward(model, "clicked", t, x_t, np.ones_like(t.agg), np.zeros_like(x_t),
                            dense)
        for name, arr in model.tensors.items():
            if name.startswith("attn.clicked."):
                assert dense[name].shape == arr.shape
                np.testing.assert_array_equal(dense[name], 0.0)


class TestSplitInteractiveAttention:
    """pre = (x_t W_t^T + b)[:, None] + ads W_a^T against the pair tensor."""

    def test_matches_pair_form_forward_and_every_gradient(self, toy_problem):
        model = build("dstn-i", toy_problem, seed=22)
        rng = make_rng(23)
        b, s = 6, 4
        x_t = rng.normal(size=(b, model.dim("target")))
        for group in AUX_GROUPS:
            params = _attention(model, group)
            mask = (rng.random((b, s)) < 0.7).astype(float)
            mask[0] = 0.0  # an example with no ads in this group
            ads = rng.normal(size=(b, s, model.dim(group))) * mask[..., None]
            g_agg = rng.normal(size=(b, model.dim(group)))
            row_idx, col_idx = np.nonzero(mask)  # the ragged trace: one row per ad
            t = AuxTrace(cols=None, n=b, row_idx=row_idx, ads=ads[row_idx, col_idx],
                         alpha=np.ones(len(row_idx)))
            _aggregate(model, t, group, x_t)
            g_xt, dense = np.zeros_like(x_t), {}
            g_ads = _aggregate_backward(model, group, t, x_t, g_agg, g_xt, dense)

            agg, grads, ref_g_xt, ref_g_ads = interactive_attention_pair_form(
                x_t, ads, mask, params, g_agg)
            np.testing.assert_allclose(t.agg, agg, rtol=0, atol=1e-12)
            for suffix, ref in grads.items():
                np.testing.assert_allclose(dense[f"attn.{group}.{suffix}"], ref,
                                           rtol=0, atol=1e-12)
            np.testing.assert_allclose(g_xt, ref_g_xt, rtol=0, atol=1e-12)
            np.testing.assert_allclose(g_ads, ref_g_ads[row_idx, col_idx], rtol=0, atol=1e-12)

    def test_batched_forward_matches_per_example_pair_form(self, toy_problem):
        schemas, _, examples = toy_problem
        model = build("dstn-i", toy_problem, seed=24)
        pctr, _ = forward_batch(model, examples)
        for ex, got in zip(examples, pctr):
            x_t = embed_instance(ex.target, model.tensors["emb.E"], schemas["target"]).vector
            parts = [x_t]
            for group in AUX_GROUPS:
                vecs = [embed_instance(a, model.tensors["emb.E"], schemas[group]).vector
                        for a in getattr(ex, group)]
                agg, _ = aggregate_interactive_attention(
                    emb(x_t, "target"), [emb(v, group) for v in vecs],
                    _attention(model, group), dim=model.dim(group))
                parts.append(agg)
            cur = np.concatenate(parts)
            for w, b in fc_stack(model):
                cur = relu(w @ cur + b)
            out_w, out_b = model.tensors["out.w"], model.tensors["out.b"]
            assert got == pytest.approx(sigmoid(float(out_w @ cur + out_b[0])), abs=1e-12)


class TestInitDraws:
    """``init_model`` draws each tensor in chunks straight into its dtype,
    with the bits of one whole-array float64 draw per tensor rounded once."""

    @staticmethod
    def whole_array(variant, schemas, vocab_size, seed, k, fc_dims, attention_dim, dtype):
        rng = make_rng(seed)
        k = 1 if variant == Variant.LR else k
        rows = {"emb.E": vocab_size, "fusion.W": fc_dims[0]}
        rows.update({f"fc{i}.W": h for i, h in enumerate(fc_dims[1:], start=2)})
        for group in AUX_GROUPS:
            rows[f"attn.{group}.W1"] = rows[f"attn.{group}.Wtc"] = attention_dim
        out = {}
        for name, shape in _layout(variant, schemas, k, rows).items():
            if name == "emb.E":
                arr = rng.uniform(-models.INIT_SCALE, models.INIT_SCALE, size=shape)
            elif name.rsplit(".", 1)[1].startswith("b"):
                arr = np.zeros(shape)
            else:
                bound = np.sqrt(6.0 / (shape[0] + (shape[1] if len(shape) == 2 else 1)))
                arr = rng.uniform(-bound, bound, size=shape)
            out[name] = arr.astype(dtype)
        return out

    @settings(max_examples=40, deadline=None)
    @given(variant=st.sampled_from(list(Variant)), dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1), vocab_size=st.integers(1, 3000),
           chunk=st.sampled_from([None, 1, 7, 1000]))
    def test_equals_whole_array_draws(self, toy_problem, variant, dtype, seed, vocab_size, chunk):
        schemas = toy_problem[0]
        kw = {"k": 5, "fc_dims": (1700, 6), "attention_dim": 9}  # fusion.W: over a chunk
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(models, "_INIT_CHUNK", chunk)
            model = init_model(variant, schemas, vocab_size, make_rng(seed), dtype=dtype, **kw)
        want = self.whole_array(variant, schemas, vocab_size, seed, dtype=dtype, **kw)
        assert list(model.tensors) == list(want)
        for name, arr in model.tensors.items():
            assert arr.dtype == want[name].dtype == dtype and arr.shape == want[name].shape
            assert arr.tobytes() == want[name].tobytes(), name


class TestForward:
    def test_all_zero_params_give_half(self, toy_problem):
        _, _, examples = toy_problem
        for variant in Variant:
            model = zero_params(build(variant, toy_problem))
            pctr, _ = forward_batch(model, examples)
            np.testing.assert_allclose(pctr, 0.5)

    def test_outputs_strictly_inside_unit_interval(self, toy_problem):
        _, _, examples = toy_problem
        for variant in Variant:
            model = build(variant, toy_problem, seed=33)
            pctr, _ = forward_batch(model, examples)
            assert np.all((pctr > 0) & (pctr < 1))

    def test_interactive_with_zero_head_equals_pooling(self, toy_problem):
        # Shared non-attention parameters come from the same seed; zeroing the
        # interactive head makes every weight exp(0) = 1, i.e. sum pooling.
        _, _, examples = toy_problem
        model_p = build("dstn-p", toy_problem, seed=5)
        model_i = build("dstn-i", toy_problem, seed=5)
        for group in AUX_GROUPS:
            model_i.tensors[f"attn.{group}.h"][...] = 0.0
            model_i.tensors[f"attn.{group}.btc2"][...] = 0.0
        p_out, _ = forward_batch(model_p, examples)
        i_out, _ = forward_batch(model_i, examples)
        np.testing.assert_allclose(i_out, p_out, atol=1e-12, rtol=0)

    def test_self_attention_with_constant_scorer_is_mean_pooling(self, toy_problem):
        # Forward-output level: constant f turns each aggregate into the group
        # mean; the head over mean aggregates is recomputed straight-line.
        schemas, vocab, examples = toy_problem
        model = build("dstn-s", toy_problem, seed=6)
        for group in AUX_GROUPS:
            w1, b1, w2, b2 = _attention(model, group)
            w1[...] = 0.0
            b1[...] = 0.0
            w2[...] = 0.0
            b2[...] = 3.3
        s_out, _ = forward_batch(model, examples)

        for ex, got in zip(examples, s_out):
            x_t = embed_instance(ex.target, model.tensors["emb.E"], schemas["target"]).vector
            parts = [x_t]
            for group in AUX_GROUPS:
                ads = getattr(ex, group)
                vecs = np.array([embed_instance(a, model.tensors["emb.E"], schemas[group]).vector
                                 for a in ads])
                agg = vecs.mean(axis=0) if len(ads) else np.zeros(model.dim(group))
                parts.append(agg)
            cur = np.concatenate(parts)
            for w, b in fc_stack(model):
                cur = relu(w @ cur + b)
            expected = sigmoid(float(model.tensors["out.w"] @ cur + model.tensors["out.b"][0]))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_empty_group_equals_zero_embedding_ads(self, toy_problem):
        # Fused representation is unchanged whether a group is absent or
        # present with ads that embed to the zero vector.
        import dataclasses

        _, _, examples = toy_problem
        model = build("dstn-p", toy_problem, seed=7)
        ex = next(e for e in examples if e.clicked)
        zeroed = model.clone()
        for ad in ex.clicked:
            for idx_list in ad.indices:
                for i in idx_list:
                    zeroed.tensors["emb.E"][i] = 0.0
        without, _ = forward(zeroed, dataclasses.replace(ex, clicked=()))
        with_zero, _ = forward(zeroed, ex)
        assert without == pytest.approx(with_zero, abs=1e-15)

    def test_eval_forward_is_deterministic(self, toy_problem):
        _, _, examples = toy_problem
        model = build("dstn-i", toy_problem, seed=8, dropout=0.5)
        a, _ = forward_batch(model, examples, mode="eval")
        b, _ = forward_batch(model, examples, mode="eval")
        np.testing.assert_array_equal(a, b)

    def test_train_forward_needs_rng_when_dropout_on(self, toy_problem):
        _, _, examples = toy_problem
        model = build("dnn", toy_problem, seed=9, dropout=0.5)
        with pytest.raises(ContractViolation):
            forward_batch(model, examples, mode="train")

    def test_clone_copies_the_tensors_and_shares_the_frozen_schemas(self, toy_problem):
        model = build("dstn-i", toy_problem, seed=11, dropout=0.5)
        copy = model.clone()
        assert (copy.variant, copy.dropout_p) == (model.variant, model.dropout_p)
        assert copy.schemas == model.schemas and copy.schemas is not model.schemas
        assert all(copy.schemas[g] is s for g, s in model.schemas.items())
        assert list(copy.tensors) == list(model.tensors)
        for name, arr in model.tensors.items():
            assert copy.tensors[name].dtype == arr.dtype
            assert copy.tensors[name].tobytes() == arr.tobytes()
            copy.tensors[name] += 1.0
            assert not np.shares_memory(copy.tensors[name], arr)
            assert not np.array_equal(copy.tensors[name], arr)

    def test_lr_uses_target_features_only(self, toy_problem):
        import dataclasses

        _, _, examples = toy_problem
        model = build("lr", toy_problem, seed=10)
        ex = next(e for e in examples if e.clicked or e.contextual)
        stripped = dataclasses.replace(ex, contextual=(), clicked=(), unclicked=())
        assert forward(model, ex)[0] == forward(model, stripped)[0]


class TestRequestForward:
    """The serving forward (history once per request, the contextual term
    added to prepared rows) against forward_batch on one candidate at a time."""

    HISTORIES = ("both", "empty", "clicked-only", "unclicked-only")

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_matches_forward_batch_per_candidate(self, toy_problem, variant, dtype):
        _, _, examples = toy_problem
        model = build(variant, toy_problem, seed=32)
        model.tensors["emb.E"] *= 100.0  # pCTRs spread over about 0.25..0.7
        model = astype(model, dtype)
        scorer = ModelScorer(model)
        rng = make_rng(33)
        targets = [ex.target for ex in examples]
        pool = {g: [ad for ex in examples for ad in getattr(ex, g)] for g in AUX_GROUPS}

        def some(group, most):
            picks = rng.integers(0, len(pool[group]), size=int(rng.integers(1, most + 1)))
            return tuple(pool[group][int(i)] for i in picks)

        worst, spread = 0.0, []
        for trial in range(16):
            n = 1 if trial % 8 == 0 else int(rng.integers(2, 9))
            cands = [targets[int(i)] for i in rng.choice(len(targets), size=n, replace=False)]
            case = self.HISTORIES[trial % 4]
            clicked = some("clicked", 5) if case in ("both", "clicked-only") else ()
            unclicked = some("unclicked", 5) if case in ("both", "unclicked-only") else ()
            rows = scorer.prepare(cands, clicked, unclicked)
            assert len(rows) == n
            # round 1; round 2 with a candidate as the contextual ad (its
            # prepared row, as serving passes it); several candidates as
            # contextual ads on a subset
            keep = rng.permutation(n)[: int(rng.integers(1, n + 1))]
            for ctx, idx in (([], np.arange(n)), ([0], keep), (keep[:3], keep[::-1])):
                ctx_rows = rows.take(ctx) if len(ctx) else None
                got = np.asarray(scorer.score(rows.take(idx), ctx_rows))
                contextual = [cands[i] for i in ctx]
                want = [score_alone(model, cands[i], contextual, clicked, unclicked) for i in idx]
                worst = max(worst, float(np.abs(got - want).max()))
                spread.extend(want)
        # In float32 both sides round every product and sum to float32, and
        # training's segment sums add in float64; the worst seen is 3.4e-7.
        assert worst <= (1e-12 if dtype == np.float64 else 1e-6)
        assert max(spread) - min(spread) > 0.05  # the check is not made on constant scores


    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_round_two_from_the_winners_row_equals_encoding_it_afresh(self, toy_problem,
                                                                      variant, dtype):
        # The contextual schema lists its fields in the opposite order to the
        # target's, so reading the winner's row by position would be wrong.
        schemas, vocab, examples = toy_problem
        fields = schemas["contextual"].fields
        reordered = {**schemas, "contextual": GroupSchema("contextual", fields[::-1])}
        model = init_model(variant, reordered, vocab.size, make_rng(35), k=4, fc_dims=(12, 6),
                           attention_dim=5, dropout_p=0.0)
        model.tensors["emb.E"] *= 100.0
        scorer = ModelScorer(astype(model, dtype))
        cands = [ex.target for ex in examples[:6]]
        rows = scorer.prepare(cands, examples[0].clicked, examples[0].unclicked)
        scores = []
        for win in range(len(cands)):
            rest = [i for i in range(len(cands)) if i != win]
            got = np.asarray(scorer.score(rows.take(rest), rows.take([win])))
            assert np.array_equal(got, score_with_contextual_ads(scorer, rows.take(rest),
                                                                 [cands[win]]))
            scores.extend(got)
        assert max(scores) - min(scores) > 0.01  # the check is not made on constant scores

    def test_a_contextual_field_the_target_lacks_is_a_contract_violation(self, toy_problem):
        schemas, vocab, examples = toy_problem
        extra = FieldSchema("zz", FieldKind.UNIVALENT)
        wider = {**schemas, "contextual": GroupSchema("contextual",
                                                      schemas["contextual"].fields + (extra,))}
        model = init_model(Variant.DSTN_P, wider, vocab.size, make_rng(36), k=4, fc_dims=(6,),
                           attention_dim=5, dropout_p=0.0)
        with pytest.raises(ContractViolation, match="no field 'zz' of group 'contextual'"):
            ModelScorer(model)


class TestScorerLayout:
    """The scorer holds views of the model's tensors and two copies, the FC
    layers' transposed weights, fusion's sliced into one block per group."""

    @staticmethod
    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (tuple, list, dict)):
            for item in value.values() if isinstance(value, dict) else value:
                yield from TestScorerLayout.arrays(item)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_the_fc_weights_are_copied_once_and_the_attention_halves_stay_views(
            self, toy_problem, variant, dtype):
        model = astype(build(variant, toy_problem, seed=39, fc_dims=(12, 6, 5)), dtype)
        scorer = ModelScorer(model)
        layers = [] if variant == "lr" else ["fc2", "fc3"]
        assert len(scorer.fc) == len(layers)
        copies = [(wt, model.tensors[f"{layer}.W"]) for (wt, _), layer in zip(scorer.fc, layers)]
        if variant != "lr":
            # each group's fusion block is a row slice of one copy of fusion's W^T
            fusion_t = scorer.fusion["target"].base
            assert all(block.base is fusion_t for block in scorer.fusion.values())
            assert sum(map(len, scorer.fusion.values())) == len(fusion_t)
            copies.append((fusion_t, model.tensors["fusion.W"]))
        for wt, weights in copies:
            assert not np.shares_memory(wt, weights)
            assert not wt.flags.writeable and wt.flags.c_contiguous
            assert wt.dtype == weights.dtype and wt.tobytes() == weights.T.tobytes()
        views = [a for a in self.arrays(vars(scorer)) if a.dtype.kind == "f"  # not the index
                 and not any(np.shares_memory(a, wt) for wt, _ in copies)]
        read = set()
        for arr in views:
            sources = [name for name, t in model.tensors.items() if np.shares_memory(arr, t)]
            assert len(sources) == 1
            read.update(sources)
        # the FC biases and DSTN-I's attention halves
        want = {f"{layer}.b" for layer in layers}
        if variant == "dstn-i":
            want |= {f"attn.{group}.Wtc" for group in AUX_GROUPS}
        assert read == want

    def test_a_new_scorer_keeps_no_rows(self, toy_problem):
        scorer = ModelScorer(build("dstn-p", toy_problem))
        assert sorted(scorer.history) == ["clicked", "unclicked"]
        kept = [scorer.targets, *scorer.history.values()]
        assert all(rows.index == {} and rows.table is scorer.model.tensors["emb.E"]
                   for rows in kept)
        dnn = ModelScorer(build("dnn", toy_problem))
        assert dnn.history == {} and dnn.targets.index == {}


class TestKeptHistoryRows:
    """The scorer embeds each history ad once, on the first request that names
    it, and later requests read its kept row."""

    @staticmethod
    def requests(examples, rng, n=24):
        """Requests over a small pool of history ads, so later ones repeat
        earlier ones' ads, and an ad can repeat within a request; half the
        time as an equal copy, since rows are kept by value."""
        pool = {g: [ad for ex in examples for ad in getattr(ex, g)][:9] for g in AUX_GROUPS}
        targets = [ex.target for ex in examples]

        def some(group, fewest):
            picks = rng.integers(0, len(pool[group]), size=int(rng.integers(fewest, 6)))
            return tuple(copy.copy(pool[group][int(i)]) if rng.random() < 0.5
                         else pool[group][int(i)] for i in picks)

        for r in range(n):
            picks = rng.choice(len(targets), size=int(rng.integers(1, 7)), replace=False)
            cands, fewest = [targets[int(i)] for i in picks], 0 if r % 5 == 0 else 1
            yield cands, some("clicked", fewest), some("unclicked", fewest)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_scores_equal_embedding_every_ad_afresh(self, toy_problem, variant, dtype):
        _, _, examples = toy_problem
        model = build(variant, toy_problem, seed=40)
        model.tensors["emb.E"] *= 100.0  # pCTRs spread over about 0.25..0.7
        scorer = ModelScorer(astype(model, dtype))
        rng = make_rng(41)
        named = {"clicked": set(), "unclicked": set()}
        scores = []
        for cands, clicked, unclicked in self.requests(examples, rng):
            rows = scorer.prepare(cands, clicked, unclicked)
            fresh = prepare_afresh(scorer, cands, clicked, unclicked)
            assert np.array_equal(rows.x_t, fresh.x_t) and np.array_equal(rows.pre, fresh.pre)
            got = np.asarray(scorer.score(rows, None))
            assert np.array_equal(got, np.asarray(scorer.score(fresh, None)))
            if len(cands) > 1:
                ctx = rows.take([0])
                assert scorer.score(rows.take([1]), ctx) == \
                    scorer.score(fresh.take([1]), fresh.take([0]))
            scores.extend(got)
            if variant in ("dstn-p", "dstn-s", "dstn-i"):
                named["clicked"].update(clicked)
                named["unclicked"].update(unclicked)
            # bounded: one row per distinct ad named in the group, never more
            for group, ads in named.items():
                assert len(scorer.history[group].index if scorer.history else ()) == len(ads)
        assert all(named.values()) or variant in ("lr", "dnn")
        assert max(scores) - min(scores) > 0.05  # the check is not made on constant scores

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_kept_rows_stay_within_the_cap(self, toy_problem, monkeypatch, dtype):
        from adctr import embedding

        monkeypatch.setattr(embedding, "MAX_KEPT_ROWS", 4)  # a request here names 3 per group
        _, _, examples = toy_problem
        model = build("dstn-i", toy_problem, seed=43)
        model.tensors["emb.E"] *= 100.0
        model = astype(model, dtype)
        scorer = ModelScorer(model)
        cands = [ex.target for ex in examples[:4]]
        named = {"clicked": set(), "unclicked": set()}
        for ex in examples + examples[::-1]:  # ads come back after their rows were dropped
            rows = scorer.prepare(cands, ex.clicked, ex.unclicked)
            fresh = ModelScorer(model)
            want = fresh.prepare(cands, ex.clicked, ex.unclicked)
            assert np.array_equal(rows.pre, want.pre)
            assert scorer.score(rows, None) == fresh.score(want, None)
            named["clicked"].update(ex.clicked)
            named["unclicked"].update(ex.unclicked)
            for kept in scorer.history.values():
                assert len(kept.index) <= 4
        assert min(len(ads) for ads in named.values()) > 4

    def test_a_new_scorer_serves_the_changed_model(self, toy_problem):
        _, _, examples = toy_problem
        model = build("dstn-i", toy_problem, seed=42)
        model.tensors["emb.E"] *= 100.0
        old = ModelScorer(model)
        cands = [ex.target for ex in examples[:5]]
        history = (examples[0].clicked, examples[0].unclicked)
        before = np.asarray(old.score(old.prepare(cands, *history), None))
        model.tensors["emb.E"] *= -0.5  # every kept row is stale now
        new = ModelScorer(model)
        got = np.asarray(new.score(new.prepare(cands, *history), None))
        fresh = prepare_afresh(new, cands, *history)
        assert np.array_equal(got, np.asarray(new.score(fresh, None)))
        want = [score_alone(model, c, (), *history) for c in cands]
        assert np.abs(got - want).max() <= 1e-12
        assert np.abs(got - before).max() > 0.01


class TestLoss:
    def test_half_prediction_positive_label(self):
        assert loss([0.5], [1]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_two_example_batch(self):
        assert loss([0.9, 0.1], [1, 0]) == pytest.approx(0.105361, abs=1e-6)

    def test_perfect_limit_goes_to_zero(self):
        assert loss([1.0 - 1e-12], [1]) < 1e-11

    def test_contract_violations(self):
        with pytest.raises(ContractViolation):
            loss([0.0], [0])
        with pytest.raises(ContractViolation):
            loss([1.0], [1])
        with pytest.raises(ContractViolation):
            loss([0.5], [2])
        with pytest.raises(ContractViolation):
            loss([0.5, 0.5], [1])

    def test_logit_form_agrees(self):
        rng = make_rng(14)
        logits = rng.normal(size=50) * 3
        y = rng.integers(0, 2, size=50).astype(float)
        assert loss_from_logits(logits, y) == pytest.approx(loss(sigmoid(logits), y), rel=1e-12)


class TestBackward:
    def test_logit_gradient_identity(self, toy_problem):
        # d loss / d logit == pctr - y for a single example.
        _, _, examples = toy_problem
        model = build("dstn-i", toy_problem, seed=15)
        ex = examples[0]
        pctr, trace = forward_batch(model, [ex], mode="train")
        grads = backward(model, trace)
        np.testing.assert_allclose(grads.dense["out.b"], [pctr[0] - ex.label], rtol=1e-12)

    def test_no_aux_ads_means_zero_attention_grads(self, toy_problem):
        import dataclasses

        _, _, examples = toy_problem
        model = build("dstn-i", toy_problem, seed=16)
        bare = [dataclasses.replace(examples[0], contextual=(), clicked=(), unclicked=())]
        _, trace = forward_batch(model, bare, mode="train")
        grads = backward(model, trace)
        for group in AUX_GROUPS:
            for suffix in ("Wtc", "btc1", "h", "btc2"):
                np.testing.assert_array_equal(grads.dense[f"attn.{group}.{suffix}"], 0.0)

    def test_untouched_embedding_rows_absent(self, toy_problem):
        _, _, examples = toy_problem
        model = build("dstn-p", toy_problem, seed=18)
        batch = examples[:2]
        _, trace = forward_batch(model, batch, mode="train")
        grads = backward(model, trace)
        touched = {i for ex in batch
                   for inst in [ex.target, *ex.contextual, *ex.clicked, *ex.unclicked]
                   for idx in inst.indices for i in idx}
        assert set(grads.emb_rows.tolist()) == touched


def _trace_arrays(obj) -> list[np.ndarray]:
    """Every array a trace holds, its aux traces' included (not its batch's)."""
    found = []
    for name, value in vars(obj).items():
        if name in ("batch", "cols"):
            continue
        for item in (value.values() if isinstance(value, dict)
                     else value if isinstance(value, list) else [value]):
            if isinstance(item, np.ndarray):
                found.append(item)
            elif isinstance(item, AuxTrace):
                found += _trace_arrays(item)
    return found


def masked_backward(model, trace, pres, masks, aux_pres):
    """Backward as it ran when the trace kept each FC layer's pre-activation
    and float dropout mask and each attention block's pre-activation: the
    FC gradient times the mask, then times ``pre > 0``, and the attention
    gradient times ``pre > 0``."""
    tensors, enc = model.tensors, trace.batch
    dlogit = ((trace.pctr - enc.labels) / len(enc)).astype(model.dtype, copy=False)
    acc = RowGradAccumulator(*tensors["emb.E"].shape, model.dtype)
    dense = {"out.b": np.array([dlogit.sum()])}
    layers = [layer for layer in ("fusion", "fc2", "fc3") if f"{layer}.W" in tensors]
    if not layers:
        g_cur = np.repeat(dlogit[:, None], trace.m.shape[1], axis=1)
    else:
        dense["out.w"] = trace.acts[-1].T @ dlogit
        g_cur = dlogit[:, None] * tensors["out.w"][None, :]
    for i in reversed(range(len(layers))):
        g_pre = g_cur
        if masks[i] is not None:
            g_pre *= masks[i]
        g_pre *= pres[i] > 0
        inp = trace.m if i == 0 else trace.acts[i - 1]
        dense[f"{layers[i]}.W"] = g_pre.T @ inp
        dense[f"{layers[i]}.b"] = g_pre.sum(axis=0)
        g_cur = g_pre @ tensors[f"{layers[i]}.W"]
    d_t = model.dim("target")
    g_xt, offset = g_cur[:, :d_t].copy(), d_t
    for group in (AUX_GROUPS if model.variant.uses_aux else ()):
        t, d_g = trace.aux[group], model.dim(group)
        g_up = g_cur[:, offset : offset + d_g][t.row_idx]
        offset += d_g
        g_ads = g_up
        if model.variant in (Variant.DSTN_S, Variant.DSTN_I):
            w, _, w2, _ = _attention(model, group)
            g_ads = t.alpha[:, None] * g_up
            tdot = (t.ads * g_up).sum(axis=1)
            names = [f"attn.{group}.{n}" for n in
                     (("W1", "b1", "w2", "b2") if model.variant == Variant.DSTN_S
                      else ("Wtc", "btc1", "h", "btc2"))]
            if model.variant == Variant.DSTN_S:
                inner = segment_sum(t.alpha * tdot, t.row_idx, t.n)
                g_score = t.alpha * (tdot - inner[t.row_idx])
                g_pre = np.outer(g_score, w2)
                g_pre *= aux_pres[group] > 0
                dense[names[0]], dense[names[1]] = g_pre.T @ t.ads, g_pre.sum(axis=0)
                g_ads += g_pre @ w
            else:
                g_score = t.alpha * tdot * (t.raw_score < SCORE_CLAMP)
                g_pre = np.outer(g_score, w2)
                g_pre *= aux_pres[group] > 0
                g_pre_t = segment_sum(g_pre, t.row_idx, t.n)
                dense[names[0]] = np.concatenate([g_pre_t.T @ trace.x_t, g_pre.T @ t.ads],
                                                 axis=1)
                dense[names[1]] = g_pre_t.sum(axis=0)
                g_xt += g_pre_t @ w[:, :d_t]
                g_ads += g_pre @ w[:, d_t:]
            dense[names[2]] = t.hid.T @ g_score
            dense[names[3]] = np.array([g_score.sum()])
        acc.scatter_matrix(t.cols, g_ads)
    acc.scatter_matrix(enc.target, g_xt)
    rows, grads = acc.finalize()
    return dense, rows, grads


class TestSlimTrace:
    """The trace keeps one array per FC layer, its output, plus the dropout
    scale, and an attention block's hidden layer but not its
    pre-activation; backward masks by those outputs with the bits it had
    when it masked by the pre-activations and the float masks."""

    @settings(max_examples=60, deadline=None)
    @given(variant=st.sampled_from(list(Variant)), dtype=st.sampled_from([np.float32, np.float64]),
           p=st.sampled_from([0.0, 0.3, 0.5]), seed=st.integers(0, 2**32 - 1),
           three_layers=st.booleans())
    def test_backward_equals_masking_by_recomputed_pre_activations(
            self, toy_problem, variant, dtype, p, seed, three_layers):
        _, _, examples = toy_problem
        model = astype(build(variant, toy_problem, seed=seed % 1000, dropout=p,
                             fc_dims=(12, 6, 5) if three_layers else (12, 6)), dtype)
        _, trace = forward_batch(model, examples, mode="train", rng=make_rng(seed))
        tensors = model.tensors
        layers = [name for name in ("fusion", "fc2", "fc3") if f"{name}.W" in tensors]
        pres = [inp @ tensors[f"{layer}.W"].T + tensors[f"{layer}.b"]
                for layer, inp in zip(layers, [trace.m] + trace.acts[:-1])]
        rng = make_rng(seed)  # the forward's draws, again
        masks = [dropout_mask(pre.shape, p, rng, dtype) if p else None for pre in pres]
        for pre, msk, act in zip(pres, masks, trace.acts):
            want = relu(pre) if msk is None else relu(pre) * msk
            assert act.tobytes() == want.tobytes()
        aux_pres = {}
        for group, t in trace.aux.items():
            if variant in (Variant.DSTN_S, Variant.DSTN_I):
                w, b1, _, _ = _attention(model, group)
                d_t = trace.x_t.shape[1]
                aux_pres[group] = (t.ads @ w.T + b1 if variant == Variant.DSTN_S else
                                   (trace.x_t @ w[:, :d_t].T + b1)[t.row_idx]
                                   + t.ads @ w[:, d_t:].T)
                assert t.hid.tobytes() == relu(aux_pres[group]).tobytes()
        got = backward(model, trace)
        dense, rows, grads = masked_backward(model, trace, pres, masks, aux_pres)
        assert set(got.dense) == set(dense)
        for name, want in dense.items():
            assert got.dense[name].dtype == want.dtype == dtype, name
            assert got.dense[name].tobytes() == want.tobytes(), name
        assert got.emb_rows.tobytes() == rows.tobytes()
        assert got.emb_grads.tobytes() == grads.tobytes()

    @pytest.mark.parametrize("mode, scale", [("train", 2.0), ("eval", None)])
    def test_the_trace_holds_no_pre_activation_and_no_mask(self, toy_problem, mode, scale):
        _, _, examples = toy_problem
        # FC widths that no other array of the trace has
        model = build("dstn-i", toy_problem, dropout=0.5, fc_dims=(13, 7))
        _, trace = forward_batch(model, examples, mode=mode, rng=make_rng(3))
        assert not {"pres", "drop_masks"} & {f.name for f in dataclasses.fields(trace)}
        assert "pre" not in {f.name for f in dataclasses.fields(AuxTrace)}
        assert trace.drop_scale == scale
        wide = [a for a in _trace_arrays(trace) if a.ndim == 2 and a.shape[1] in (13, 7)]
        assert len(wide) == len(trace.acts) == 2
        assert all(any(a is act for act in trace.acts) for a in wide)
        for t in trace.aux.values():  # the hidden layer, and no (T, H) array beside it
            hidden = [a for a in _trace_arrays(t) if a.shape == t.hid.shape]
            assert len(hidden) == 1 and hidden[0] is t.hid

    def test_a_step_peaks_below_eight_times_its_fc_outputs(self, tiny_dataset):
        ds, vocab, tr, *_ = tiny_dataset
        model = init_model(Variant.DSTN_I, ds.schemas, vocab.size, make_rng(1), dtype=np.float32)
        batch = encode_batch(model, tr[:128])
        backward(model, forward_batch(model, tr[:2], mode="train", rng=make_rng(0))[1])
        tracemalloc.start()  # above: a first step's one-time allocations
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, trace = forward_batch(model, batch, mode="train", rng=make_rng(2))
            backward(model, trace)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # The forward and backward of a 128-row batch at the default widths
        # (FC 512/256, attention 128): 6.9 times the FC outputs' bytes. A
        # trace that also kept the pre-activations and the float masks,
        # with the full-width copies in the wide sums and the scatter, took
        # 10.6 times.
        assert peak < 8 * sum(a.nbytes for a in trace.acts)


class TestCheckpoint:
    def test_round_trip_preserves_forward(self, toy_problem, tmp_path):
        schemas, vocab, examples = toy_problem
        for variant in Variant:
            model = build(variant, toy_problem, seed=19, dropout=0.25)
            path = tmp_path / f"{variant.value}.ckpt"
            save_model(path, model, "sh", "vh")
            loaded, header = load_model(path, schemas)
            assert header["variant"] == variant.header_name
            assert loaded.dropout_p == 0.25
            a, _ = forward_batch(model, examples)
            b, _ = forward_batch(loaded, examples)
            np.testing.assert_array_equal(a, b)

    def test_unknown_variant_header_names_path_and_value(self, toy_problem, tmp_path):
        schemas, _, _ = toy_problem
        model = build("dnn", toy_problem, seed=25)
        path = tmp_path / "odd.ckpt"
        save_tensors(path, {"format": "adctr-ckpt-1", "variant": "XYZ", "k": "4",
                            "dropout_p": "0.0", "schema_hash": "s", "vocab_hash": "v"},
                     model.tensors)
        with pytest.raises(ValueError, match="XYZ") as info:
            load_model(path, schemas)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_truncated_checkpoint_is_a_value_error(self, toy_problem, tmp_path, variant):
        schemas, _, _ = toy_problem
        path = tmp_path / "model.ckpt"
        save_model(path, build(variant, toy_problem, seed=26, k=2, fc_dims=(3, 2),
                               attention_dim=2), "sh", "vh")
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError):
                load_model(path, schemas)

    def test_schema_with_an_extra_field_is_refused_naming_the_tensor(self, toy_problem,
                                                                     tmp_path):
        import dataclasses

        from adctr.schema import FieldKind, FieldSchema

        schemas, _, _ = toy_problem
        path = tmp_path / "model.ckpt"
        save_model(path, build("dstn-i", toy_problem, seed=27), "sh", "vh")
        wider = dict(schemas)
        wider["clicked"] = dataclasses.replace(
            schemas["clicked"],
            fields=schemas["clicked"].fields + (FieldSchema("extra", FieldKind.UNIVALENT),))
        with pytest.raises(ValueError) as info:
            load_model(path, wider)
        # k=4, fc 12: target 16 + contextual 8 + clicked 8 (+4) + unclicked 8
        assert str(info.value) == (f"{path}: tensor fusion.W has shape (12, 40), "
                                   f"expected (12, 44)")

    @pytest.mark.parametrize("variant", list(Variant))
    def test_every_reshaped_tensor_is_refused(self, toy_problem, tmp_path, variant):
        schemas, _, _ = toy_problem
        model = build(variant, toy_problem, seed=28)
        path = tmp_path / "model.ckpt"
        for name, arr in model.tensors.items():
            bad = dict(model.tensors)
            bad[name] = np.zeros(arr.shape[:-1] + (arr.shape[-1] + 1,))
            save_tensors(path, {"format": "adctr-ckpt-1", "variant": variant.header_name,
                                "k": str(model.k), "dropout_p": "0.0", "schema_hash": "s",
                                "vocab_hash": "v"}, bad)
            with pytest.raises(ValueError, match=r"tensor .* has shape .*, expected"):
                load_model(path, schemas)

    def test_attention_blocks_must_match_the_variant(self, toy_problem, tmp_path):
        schemas, _, _ = toy_problem
        path = tmp_path / "model.ckpt"
        tensors = build("dstn-i", toy_problem, seed=29).tensors
        header = {"format": "adctr-ckpt-1", "variant": "DSTN-S", "k": "4",
                  "dropout_p": "0.0", "schema_hash": "s", "vocab_hash": "v"}
        save_tensors(path, header, tensors)
        with pytest.raises(ValueError, match="missing tensors"):
            load_model(path, schemas)
        save_tensors(path, {**header, "variant": "DSTN-P"}, tensors)
        with pytest.raises(ValueError, match="unexpected tensors"):
            load_model(path, schemas)

    @pytest.mark.parametrize("key, value, message", [
        ("k", None, "header has no k"),
        ("k", "x", "header k='x' is not a positive integer"),
        ("k", "4.0", "header k='4.0' is not a positive integer"),
        ("k", "0", "header k='0' is not a positive integer"),
        ("k", "-4", "header k='-4' is not a positive integer"),
        ("k", "+4", "header k='+4' is not a positive integer"),
        ("k", " 4", "header k=' 4' is not a positive integer"),
        ("k", "1_0", "header k='1_0' is not a positive integer"),
        ("k", "\u0664", "header k='\u0664' is not a positive integer"),
        ("dropout_p", None, "header has no dropout_p"),
        ("dropout_p", "x", "header dropout_p='x' is not a probability in [0, 1)"),
        ("dropout_p", "2.0", "header dropout_p='2.0' is not a probability in [0, 1)"),
        ("dropout_p", "1.0", "header dropout_p='1.0' is not a probability in [0, 1)"),
        ("dropout_p", "-0.5", "header dropout_p='-0.5' is not a probability in [0, 1)"),
        ("dropout_p", "nan", "header dropout_p='nan' is not a probability in [0, 1)"),
    ])
    def test_a_bad_k_or_dropout_header_is_refused_naming_the_file_and_key(
            self, toy_problem, tmp_path, key, value, message):
        schemas, _, _ = toy_problem
        path = tmp_path / "model.ckpt"
        header = {"format": "adctr-ckpt-1", "variant": "DNN", "k": "4", "dropout_p": "0.25",
                  "schema_hash": "s", "vocab_hash": "v"}
        tensors = build("dnn", toy_problem, seed=38).tensors
        save_tensors(path, header, tensors)
        assert load_model(path, schemas)[0].dropout_p == 0.25  # the header as written loads
        if value is None:
            del header[key]
        else:
            header[key] = value
        save_tensors(path, header, tensors)
        with pytest.raises(ValueError) as info:
            load_model(path, schemas)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_a_loaded_model_holds_its_tensors_in_layout_order(self, toy_problem, tmp_path,
                                                             variant, dtype):
        schemas, vocab, _ = toy_problem
        fresh = init_model(variant, schemas, vocab.size, make_rng(39), k=4, fc_dims=(12, 6, 3),
                           attention_dim=5, dtype=dtype)
        path = tmp_path / "model.ckpt"
        save_model(path, fresh, "sh", "vh")
        loaded = load_model(path, schemas)[0]
        rows = {name: arr.shape[0] for name, arr in fresh.tensors.items() if arr.ndim}
        layout = list(_layout(variant, schemas, fresh.k, rows))
        assert list(loaded.tensors) == layout == list(fresh.tensors)
        # the file's name order is not the layout's (LR's two tensors sort as laid out)
        assert variant == Variant.LR or sorted(layout) != layout

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_a_reloaded_model_names_the_first_non_finite_gradient_in_layout_order(
            self, toy_problem, tmp_path):
        schemas, _, examples = toy_problem
        path = tmp_path / "model.ckpt"
        save_model(path, build("dstn-i", toy_problem, seed=40), "sh", "vh")
        model = load_model(path, schemas)[0]
        grads = backward(model, forward_batch(model, examples, mode="train")[1])
        grads.dense["fc2.W"][0, 0] = np.nan  # fc2.W sorts before fusion.W in the file
        grads.dense["fusion.W"][0, 0] = np.nan
        with pytest.raises(NonFiniteError, match="^epoch 1, batch 2: non-finite gradient of "
                                                 "fusion.W$"):
            _check_finite(model, 1, 2, 0.5, grads)

    def test_save_is_byte_deterministic(self, toy_problem, tmp_path):
        model = build("dstn-s", toy_problem, seed=20)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_model(p1, model, "sh", "vh")
        save_model(p2, model, "sh", "vh")
        assert p1.read_bytes() == p2.read_bytes()


def _float_arrays(obj):
    """(name, array) for every floating array attribute of a trace object."""
    return [(name, arr) for name, arr in vars(obj).items()
            if isinstance(arr, np.ndarray) and arr.dtype.kind == "f"]


class TestFloat32:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_trace_gradients_and_adagrad_state_stay_float32(self, toy_problem, variant):
        schemas, vocab, examples = toy_problem
        model = astype(build(variant, toy_problem, seed=30, dropout=0.5), np.float32)
        # the last example has no ads at all; a second batch has no contextual ads anywhere
        no_ads = dataclasses.replace(examples[-1], contextual=(), clicked=(), unclicked=())
        batches = [examples[:-1] + [no_ads],
                   [dataclasses.replace(ex, contextual=()) for ex in examples]]
        accum = {name: np.zeros_like(arr) for name, arr in model.tensors.items()}
        for batch in batches:
            pctr, trace = forward_batch(model, batch, mode="train", rng=make_rng(31))
            assert pctr.dtype == np.float64
            found = [(f"trace.{n}", a) for n, a in _float_arrays(trace) if n != "pctr"]
            found += [(f"aux.{g}.{n}", a) for g, t in trace.aux.items()
                      for n, a in _float_arrays(t)]
            found += [(f"fc.{i}", a) for i, a in enumerate(trace.acts)]
            grads = backward(model, trace)
            found += [(f"grad.{n}", a) for n, a in grads.dense.items()]
            found += [("grad.emb", grads.emb_grads),
                      ("penalty", embedding_penalty(model, grads.emb_rows,
                                                    np.ones(vocab.size))[1])]
            for name, arr in model.tensors.items():
                if name == "emb.E":
                    adagrad_step_rows(arr, grads.emb_rows, grads.emb_grads, accum[name], 0.05)
                else:
                    adagrad_step(arr, grads.dense[name], accum[name], 0.05)
            found += [(f"param.{n}", a) for n, a in model.tensors.items()]
            found += [(f"accum.{n}", a) for n, a in accum.items()]
            assert set(grads.dense) | {"emb.E"} == set(model.tensors)
            upcast = sorted({name for name, arr in found if arr.dtype != np.float32})
            assert not upcast, upcast

    @pytest.mark.parametrize("variant", list(Variant))
    def test_float32_gradients_match_float64_of_the_same_model(self, toy_problem, variant):
        _, _, examples = toy_problem
        m32 = astype(build(variant, toy_problem, seed=32, dropout=0.5), np.float32)
        m64 = astype(m32, np.float64)
        g = {}
        for model in (m32, m64):
            _, trace = forward_batch(model, examples, mode="train", rng=make_rng(33))
            grads = backward(model, trace)
            g[model.dtype] = {**grads.dense, "emb.E": grads.emb_grads}
        for name, ref in g[np.dtype(np.float64)].items():
            got = g[np.dtype(np.float32)][name]
            # The floor keeps the structurally-zero softmax score bias gradient
            # from dividing float32 roundoff by float64 roundoff.
            scale = max(np.abs(ref).max(initial=0.0), 1e-6)
            assert np.abs(got - ref).max() / scale <= 1e-4, name

    @pytest.mark.parametrize("variant", list(Variant))
    def test_float32_checkpoint_round_trips_bit_for_bit(self, toy_problem, tmp_path, variant):
        schemas, _, examples = toy_problem
        model = astype(build(variant, toy_problem, seed=34, dropout=0.25), np.float32)
        path = tmp_path / "m.ckpt"
        save_model(path, model, "sh", "vh")
        loaded, header = load_model(path, schemas)
        assert header["dtype"] == "float32" and loaded.dtype == np.float32
        for name, arr in model.tensors.items():
            assert loaded.tensors[name].tobytes() == arr.tobytes(), name
        assert forward_batch(loaded, examples)[0].tobytes() == \
            forward_batch(model, examples)[0].tobytes()
        resaved = tmp_path / "again.ckpt"
        save_model(resaved, loaded, "sh", "vh")
        assert resaved.read_bytes() == path.read_bytes()

    def test_float64_checkpoint_has_no_dtype_line(self, toy_problem, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(path, build("dstn-i", toy_problem, seed=35), "sh", "vh")
        assert b"dtype" not in path.read_bytes().split(b"\n\n")[0]
        assert load_model(path, toy_problem[0])[0].dtype == np.float64

    def test_unknown_dtype_header_names_path_and_value(self, toy_problem, tmp_path):
        schemas, _, _ = toy_problem
        model = build("dnn", toy_problem, seed=36)
        path = tmp_path / "odd.ckpt"
        save_tensors(path, {"format": "adctr-ckpt-1", "variant": "DNN", "k": "4",
                            "dropout_p": "0.0", "schema_hash": "s", "vocab_hash": "v",
                            "dtype": "float16"}, model.tensors)
        with pytest.raises(ValueError, match="float16") as info:
            load_model(path, schemas)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("logit", [40.0, -40.0])
    def test_extreme_logit_gives_a_pctr_strictly_inside_the_unit_interval(self, toy_problem,
                                                                          logit):
        _, _, examples = toy_problem
        model = astype(zero_params(build("dnn", toy_problem, seed=37)), np.float32)
        model.tensors["out.b"][...] = logit
        pctr, _ = forward_batch(model, examples)
        scorer = ModelScorer(model)
        served = np.asarray(scorer.score(scorer.prepare([examples[0].target], (), ()), None))
        for p in (pctr, served):
            assert p.dtype == np.float64
            assert np.all((p > 0.0) & (p < 1.0))


# sha256 of the checkpoint each variant's float64 warm start writes below,
# computed before float32 training existed: float64 training and saving must
# keep these bytes.
FLOAT64_CKPT_SHA256 = {
    "lr": "67e76c59887a96718c4dc656ccd145d588b79c66e75ef78ea1ae43fef11e264a",
    "dnn": "f6ee2e6fa107d879b7a31d9882d78138ea7b937748a20dad82501afef33ccf8a",
    "dstn-p": "58460b10623847d2effb29cdd6cda95d1ec2adb6e3d57fe6b4f5386d693f2698",
    "dstn-s": "9d4aa6e42be3a7a44bef77f6a4e51bd22e1e7ff18ca1e48d95e77f0ac9166047",
    "dstn-i": "1298101ad2b53635d2905a912af2f4838a4d581b1523b6016061cc2fab71e292",
}


@pytest.mark.parametrize("variant", list(FLOAT64_CKPT_SHA256))
def test_float64_warm_start_checkpoint_bytes_are_pinned(tmp_path, variant):
    schemas, vocab, examples = make_toy_problem(seed=3, n_examples=200)
    config = TrainConfig(variant=variant, epochs=2, batch_size=32, embedding_dim=4,
                         fc_dims=(16, 8), attention_dim=8, seed=5)
    initial = init_model(variant, schemas, vocab.size, make_rng(4), k=4, fc_dims=(16, 8),
                         attention_dim=8)
    model, _ = train(config, examples[:150], examples[150:], schemas, vocab, initial=initial)
    assert model.dtype == np.float64
    path = tmp_path / "m.ckpt"
    save_model(path, model, "s", "v")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FLOAT64_CKPT_SHA256[variant]


# sha256 of the checkpoint each variant's fresh float32 training (no warm
# start) writes below, computed before the parameters moved into one dict of
# named tensors. A change that alters float32 sums on purpose (ROADMAP item 4)
# re-pins these and says so.
FLOAT32_CKPT_SHA256 = {
    "lr": "f050ca17f3b570144fdbda99bfb1313e32ffd07339f7ea9df8835c08005a6e5a",
    "dnn": "60533e4688973cab9e6ca1969b103ec8b0d82a47bceb0451eea744aa75adc8ed",
    "dstn-p": "60f38d8a7a7cc31aa64cbf19626382289941614c1a1c57990c6048ac90347ba6",
    "dstn-s": "92bac3e73d636a22bf2c8853242d1347e7b00ddcd26973acac719be21a28e342",
    "dstn-i": "16f25abb1d0d34dba1ef88dd7a879dd7ccd194d378b87530e0e26787d2d1a5f1",
}


@pytest.mark.parametrize("variant", list(FLOAT32_CKPT_SHA256))
def test_float32_fresh_training_checkpoint_bytes_are_pinned(tmp_path, variant):
    schemas, vocab, examples = make_toy_problem(seed=3, n_examples=200)
    config = TrainConfig(variant=variant, epochs=2, batch_size=32, embedding_dim=4,
                         fc_dims=(16, 8), attention_dim=8, seed=5)
    model, _ = train(config, examples[:150], examples[150:], schemas, vocab)
    assert model.dtype == np.float32
    path = tmp_path / "m.ckpt"
    save_model(path, model, "s", "v")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FLOAT32_CKPT_SHA256[variant]
