import math

import numpy as np
import pytest

from adctr.models import (AuxTrace, InteractiveAttentionParams, SelfAttentionParams, Variant,
                          _aggregate, _aggregate_backward, backward, forward, forward_batch,
                          init_model, load_model, loss, loss_from_logits, prepare_request,
                          save_model, score_request)
from adctr.numerics import ContractViolation, make_rng, relu, save_tensors, sigmoid
from adctr.schema import AUX_GROUPS
from oracles import (InstanceEmbedding, aggregate_interactive_attention, aggregate_pooling,
                     aggregate_self_attention, embed_instance, interactive_attention_pair_form,
                     padded_aggregate, score_alone)


def emb(vec, group="clicked"):
    return InstanceEmbedding(group=group, vector=np.asarray(vec, dtype=np.float64))


def zero_params(model):
    for arr in model.tensors().values():
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
        params = SelfAttentionParams(w1=np.zeros((3, 2)), b1=np.zeros(3),
                                     w2=np.zeros(3), b2=np.array([7.0]))
        ads = [emb([1.0, 0.0]), emb([0.0, 2.0]), emb([3.0, 3.0])]
        agg, alpha = aggregate_self_attention(ads, params)
        np.testing.assert_allclose(alpha, [1 / 3] * 3)
        np.testing.assert_allclose(agg, np.mean([a.vector for a in ads], axis=0))

    def test_known_scores_give_known_weights(self):
        # beta_i = relu(x_i[0]); scores (0, ln 3) -> weights (1/4, 3/4)
        params = SelfAttentionParams(w1=np.array([[1.0, 0.0]]), b1=np.zeros(1),
                                     w2=np.ones(1), b2=np.zeros(1))
        ads = [emb([0.0, 5.0]), emb([math.log(3.0), -1.0])]
        _, alpha = aggregate_self_attention(ads, params)
        np.testing.assert_allclose(alpha, [0.25, 0.75], atol=1e-12)

    def test_matches_straight_line_recomputation(self):
        rng = make_rng(8)
        params = SelfAttentionParams(w1=rng.normal(size=(4, 3)), b1=rng.normal(size=4),
                                     w2=rng.normal(size=4), b2=rng.normal(size=1))
        ads = [emb(rng.normal(size=3)) for _ in range(3)]
        agg, alpha = aggregate_self_attention(ads, params)

        beta = [float(params.w2 @ np.maximum(params.w1 @ a.vector + params.b1, 0.0)
                      + params.b2[0]) for a in ads]
        weights = np.exp(beta) / np.exp(beta).sum()
        expected = sum(w * a.vector for w, a in zip(weights, ads))
        np.testing.assert_allclose(alpha, weights, rtol=1e-12)
        np.testing.assert_allclose(agg, expected, rtol=1e-12)

    def test_weights_on_simplex(self):
        rng = make_rng(9)
        for n in (1, 2, 5):
            params = SelfAttentionParams(w1=rng.normal(size=(4, 3)), b1=rng.normal(size=4),
                                         w2=rng.normal(size=4), b2=rng.normal(size=1))
            ads = [emb(rng.normal(size=3)) for _ in range(n)]
            _, alpha = aggregate_self_attention(ads, params)
            assert np.all(alpha >= 0)
            assert alpha.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_list_rejected(self):
        params = SelfAttentionParams(w1=np.zeros((1, 2)), b1=np.zeros(1),
                                     w2=np.zeros(1), b2=np.zeros(1))
        with pytest.raises(ContractViolation):
            aggregate_self_attention([], params)


class TestInteractiveAttention:
    def _params(self, rng, d_t=2, d_g=2, h=3):
        return InteractiveAttentionParams(w_tc=rng.normal(size=(h, d_t + d_g)),
                                          b_tc1=rng.normal(size=h),
                                          h=rng.normal(size=h),
                                          b_tc2=rng.normal(size=1))

    def test_zero_head_reduces_to_sum_pooling(self):
        rng = make_rng(10)
        params = self._params(rng)
        params.h[...] = 0.0
        params.b_tc2[...] = 0.0
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
            score = float(params.h @ np.maximum(params.w_tc @ pair + params.b_tc1, 0.0)
                          + params.b_tc2[0])
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
        params = InteractiveAttentionParams(w_tc=np.full((1, 4), 50.0), b_tc1=np.zeros(1),
                                            h=np.array([50.0]), b_tc2=np.zeros(1))
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
        # Serving's history: one example's ads shared by n candidate rows.
        model = build(variant, toy_problem, seed=36)
        rng = make_rng(37)
        n = 6
        x_t = rng.normal(size=(n, model.dim("target")))
        for group in AUX_GROUPS:
            for n_ads in (0, 1, 4):
                ads = rng.normal(size=(n_ads, model.dim(group))) * 2.0
                t = ragged_trace([n_ads], ads)
                _aggregate(model, t, group, x_t)
                ref = padded_aggregate(model, group, np.array([0, n_ads]), ads, x_t)
                rows = n if variant == "dstn-i" else 1
                assert t.agg.shape == (rows, model.dim(group))
                np.testing.assert_allclose(t.agg, np.broadcast_to(ref.agg, t.agg.shape),
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(t.alpha, ref.alpha.ravel(), rtol=0, atol=1e-12)
                # and each row equals that candidate aggregated alone
                for i in range(n):
                    alone = ragged_trace([n_ads], ads)
                    _aggregate(model, alone, group, x_t[i : i + 1])
                    np.testing.assert_allclose(t.agg[min(i, rows - 1)], alone.agg[0],
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
        for name, arr in model.tensors().items():
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
            params = model.attention[group]
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
            x_t = embed_instance(ex.target, model.embedding, schemas["target"]).vector
            parts = [x_t]
            for group in AUX_GROUPS:
                vecs = [embed_instance(a, model.embedding, schemas[group]).vector
                        for a in getattr(ex, group)]
                agg, _ = aggregate_interactive_attention(
                    emb(x_t, "target"), [emb(v, group) for v in vecs],
                    model.attention[group], dim=model.dim(group))
                parts.append(agg)
            cur = np.concatenate(parts)
            for w, b in [(model.fusion_w, model.fusion_b)] + model.fc:
                cur = relu(w @ cur + b)
            assert got == pytest.approx(sigmoid(float(model.out_w @ cur + model.out_b[0])),
                                        abs=1e-12)


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
            model_i.attention[group].h[...] = 0.0
            model_i.attention[group].b_tc2[...] = 0.0
        p_out, _ = forward_batch(model_p, examples)
        i_out, _ = forward_batch(model_i, examples)
        np.testing.assert_allclose(i_out, p_out, atol=1e-12, rtol=0)

    def test_self_attention_with_constant_scorer_is_mean_pooling(self, toy_problem):
        # Forward-output level: constant f turns each aggregate into the group
        # mean; the head over mean aggregates is recomputed straight-line.
        schemas, vocab, examples = toy_problem
        model = build("dstn-s", toy_problem, seed=6)
        for group in AUX_GROUPS:
            att = model.attention[group]
            att.w1[...] = 0.0
            att.b1[...] = 0.0
            att.w2[...] = 0.0
            att.b2[...] = 3.3
        s_out, _ = forward_batch(model, examples)

        for ex, got in zip(examples, s_out):
            x_t = embed_instance(ex.target, model.embedding, schemas["target"]).vector
            parts = [x_t]
            for group in AUX_GROUPS:
                ads = getattr(ex, group)
                vecs = np.array([embed_instance(a, model.embedding, schemas[group]).vector
                                 for a in ads])
                agg = vecs.mean(axis=0) if len(ads) else np.zeros(model.dim(group))
                parts.append(agg)
            cur = np.concatenate(parts)
            for w, b in [(model.fusion_w, model.fusion_b)] + model.fc:
                cur = relu(w @ cur + b)
            expected = sigmoid(float(model.out_w @ cur + model.out_b[0]))
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
                    zeroed.embedding.e[i] = 0.0
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

    @pytest.mark.parametrize("variant", list(Variant))
    def test_matches_forward_batch_per_candidate(self, toy_problem, variant):
        _, _, examples = toy_problem
        model = build(variant, toy_problem, seed=32)
        model.embedding.e *= 100.0  # pCTRs spread over about 0.25..0.7
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
            rows = prepare_request(model, cands, clicked, unclicked)
            assert len(rows) == n
            # round 1; round 2 with a candidate as the contextual ad (by
            # position, as serving does); real contextual ads on a subset
            keep = rng.permutation(n)[: int(rng.integers(1, n + 1))]
            for contextual, idx in (((), np.arange(n)), ((cands[0],), keep),
                                    (some("contextual", 3), keep[::-1])):
                got = score_request(model, rows.take(idx), contextual)
                want = [score_alone(model, cands[i], contextual, clicked, unclicked) for i in idx]
                worst = max(worst, float(np.abs(got - want).max()))
                spread.extend(want)
        assert worst <= 1e-12
        assert max(spread) - min(spread) > 0.05  # the check is not made on constant scores


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
                     model.tensors())
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
        for name, arr in model.tensors().items():
            bad = dict(model.tensors())
            bad[name] = np.zeros(arr.shape[:-1] + (arr.shape[-1] + 1,))
            save_tensors(path, {"format": "adctr-ckpt-1", "variant": variant.header_name,
                                "k": str(model.k), "dropout_p": "0.0", "schema_hash": "s",
                                "vocab_hash": "v"}, bad)
            with pytest.raises(ValueError, match=r"tensor .* has shape .*, expected"):
                load_model(path, schemas)

    def test_attention_blocks_must_match_the_variant(self, toy_problem, tmp_path):
        schemas, _, _ = toy_problem
        path = tmp_path / "model.ckpt"
        tensors = build("dstn-i", toy_problem, seed=29).tensors()
        header = {"format": "adctr-ckpt-1", "variant": "DSTN-S", "k": "4",
                  "dropout_p": "0.0", "schema_hash": "s", "vocab_hash": "v"}
        save_tensors(path, header, tensors)
        with pytest.raises(ValueError, match="missing tensors"):
            load_model(path, schemas)
        save_tensors(path, {**header, "variant": "DSTN-P"}, tensors)
        with pytest.raises(ValueError, match="unexpected tensors"):
            load_model(path, schemas)

    def test_save_is_byte_deterministic(self, toy_problem, tmp_path):
        model = build("dstn-s", toy_problem, seed=20)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_model(p1, model, "sh", "vh")
        save_model(p2, model, "sh", "vh")
        assert p1.read_bytes() == p2.read_bytes()
