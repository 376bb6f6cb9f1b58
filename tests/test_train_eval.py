import dataclasses
import math

import numpy as np
import pytest

from adctr import train_eval
from adctr.embedding import encode_examples
from adctr.ingest import LabeledExample
from adctr.models import Variant, _attention, init_model, save_model
from adctr.numerics import make_rng
from adctr.schema import (AUX_GROUPS, FieldKind, FieldSchema, GroupSchema, build_vocabulary,
                          encode_instance, schemas_hash)
from adctr.toy import toy_schemas
from adctr.train_eval import (EvalReport, MetricUndefinedError, TrainConfig, auc,
                              embedding_penalty, embedding_row_scales, NonFiniteError,
                              evaluate, grad_check, logloss_eval, predict, train)
from oracles import (InstanceEmbedding, aggregate_interactive_attention,
                     aggregate_self_attention, average_aux_count, embed_instance,
                     improvement_metrics, reference_ablate)


def auc_bruteforce(scores, labels):
    """Independent O(P*N) pair-counting oracle with explicit tie handling."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.1], [1, 0]) == 1.0

    def test_one_concordant_one_discordant(self):
        assert auc([0.8, 0.5, 0.3], [1, 0, 1]) == 0.5

    def test_all_ties_give_half(self):
        assert auc([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0]) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(MetricUndefinedError):
            auc([0.1, 0.9], [1, 1])
        with pytest.raises(MetricUndefinedError):
            auc([0.1, 0.9], [0, 0])

    def test_matches_bruteforce_with_ties(self):
        rng = make_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            scores = rng.choice([0.1, 0.25, 0.5, 0.7], size=n)  # force plenty of ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == pytest.approx(auc_bruteforce(scores, labels),
                                                        abs=1e-12)

    def test_invariant_under_increasing_transform(self):
        rng = make_rng(32)
        scores = rng.random(100)
        labels = rng.integers(0, 2, size=100)
        labels[0], labels[1] = 0, 1
        base = auc(scores, labels)
        assert auc(np.exp(4 * scores) + 7, labels) == pytest.approx(base, abs=1e-12)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.9], [1, 2])


class TestLoglossEval:
    def test_spot_values(self):
        assert logloss_eval([0.5], [1]) == pytest.approx(math.log(2.0), abs=1e-9)
        assert logloss_eval([0.9, 0.1], [1, 0]) == pytest.approx(0.105361, abs=1e-6)

    def test_degenerate_scores_are_clamped(self):
        assert math.isfinite(logloss_eval([0.0, 1.0], [0, 1]))
        assert logloss_eval([0.0, 1.0], [0, 1]) < 1e-10

    def test_moving_toward_label_decreases_loss(self):
        rng = make_rng(33)
        scores = rng.uniform(0.1, 0.9, size=20)
        labels = rng.integers(0, 2, size=20)
        base = logloss_eval(scores, labels)
        nudged = scores + (labels - scores) * 0.1
        assert logloss_eval(nudged, labels) < base


class TestImprovementMetrics:
    def test_hand_arithmetic(self):
        assert improvement_metrics(0.80, 0.78, 0.5) == pytest.approx((0.02, 0.04))

    def test_equal_aucs(self):
        assert improvement_metrics(0.7, 0.7, 2.0) == (0.0, 0.0)

    def test_reference_baseline_subtrahend(self):
        # The documented operating point subtracts the plain-DNN AUC (0.7816
        # on the public benchmark) from the variant AUC.
        abs_imp, _ = improvement_metrics(0.8310, 0.7816, 1.0)
        assert abs_imp == pytest.approx(0.0494, abs=1e-12)

    def test_nonpositive_count_is_undefined_but_keeps_absimp(self):
        with pytest.raises(MetricUndefinedError) as exc_info:
            improvement_metrics(0.8, 0.7, 0.0)
        assert exc_info.value.abs_imp == pytest.approx(0.1)


def _separable_problem():
    """Single univalent field with two values; the label follows the value."""
    schemas = {
        "target": GroupSchema("target", (FieldSchema("f", FieldKind.UNIVALENT),)),
        "contextual": GroupSchema("contextual", (FieldSchema("f", FieldKind.UNIVALENT),)),
        "clicked": GroupSchema("clicked", (FieldSchema("f", FieldKind.UNIVALENT),)),
        "unclicked": GroupSchema("unclicked", (FieldSchema("f", FieldKind.UNIVALENT),)),
    }
    # The vocabulary is built from the stream the model trains on, as the CLI
    # does, so its counts (which scale the embedding penalty) describe it.
    records = [("target", {"f": ("pos" if i % 2 else "neg",)}) for i in range(80)]
    vocab = build_vocabulary(records, schemas)
    examples = []
    for i, (_, record) in enumerate(records):
        label = i % 2
        inst = encode_instance(record, schemas["target"], vocab)
        examples.append(LabeledExample(label=label, timestamp=i, user_id="u",
                                       target=inst, contextual=(), clicked=(), unclicked=()))
    return schemas, vocab, examples


class TestTrain:
    def test_separable_toy_reaches_perfect_auc(self):
        schemas, vocab, examples = _separable_problem()
        config = TrainConfig(variant="lr", epochs=5, batch_size=16, learning_rate=0.5,
                             dropout=0.0, seed=1)
        model, history = train(config, examples, examples, schemas, vocab)
        assert history[-1]["train_loss"] < history[0]["train_loss"]
        assert evaluate(model, examples).auc == 1.0

    def test_same_seed_same_checkpoint(self, tiny_dataset):
        ds, vocab, tr, va, _ = tiny_dataset
        config = TrainConfig(variant="dstn-i", epochs=1, seed=4, fc_dims=(16, 8),
                             embedding_dim=4, attention_dim=4)
        m1, h1 = train(config, tr[:600], va[:100], ds.schemas, vocab)
        m2, h2 = train(config, tr[:600], va[:100], ds.schemas, vocab)
        assert h1 == h2
        for name, arr in m1.tensors.items():
            np.testing.assert_array_equal(arr, m2.tensors[name])

    def test_zero_learning_rate_changes_nothing(self, tiny_dataset):
        ds, vocab, tr, va, _ = tiny_dataset
        config = TrainConfig(variant="dnn", epochs=2, seed=4, learning_rate=0.0,
                             fc_dims=(8, 4), embedding_dim=3)
        model, _ = train(config, tr[:300], va[:50], ds.schemas, vocab)
        fresh = train(dataclasses.replace(config, epochs=1), tr[:300], va[:50],
                      ds.schemas, vocab)[0]
        for name, arr in model.tensors.items():
            np.testing.assert_array_equal(arr, fresh.tensors[name])

    def test_empty_stream_rejected(self, tiny_dataset):
        ds, vocab, *_ = tiny_dataset
        with pytest.raises(ValueError):
            train(TrainConfig(variant="lr"), [], [], ds.schemas, vocab)

    def test_best_validation_checkpoint_kept(self, tiny_dataset):
        ds, vocab, tr, va, _ = tiny_dataset
        config = TrainConfig(variant="dstn-p", epochs=3, seed=4, fc_dims=(16, 8),
                             embedding_dim=4)
        model, history = train(config, tr[:600], va, ds.schemas, vocab)
        best = max(h["val_auc"] for h in history)
        assert evaluate(model, va).auc == pytest.approx(best, abs=1e-12)

    def test_warm_start_continues_from_checkpoint(self, tiny_dataset):
        ds, vocab, tr, va, _ = tiny_dataset
        config = TrainConfig(variant="dnn", epochs=1, seed=4, fc_dims=(8, 4),
                             embedding_dim=3)
        first, _ = train(config, tr[:300], va[:50], ds.schemas, vocab)
        warm, _ = train(dataclasses.replace(config, learning_rate=0.0),
                        tr[:300], va[:50], ds.schemas, vocab, initial=first)
        for name, arr in warm.tensors.items():
            np.testing.assert_array_equal(arr, first.tensors[name])
        with pytest.raises(ValueError):
            bad = first.clone()
            bad.tensors["emb.E"] = bad.tensors["emb.E"][:-1]
            train(config, tr[:300], va[:50], ds.schemas, vocab, initial=bad)

    def test_a_fresh_model_is_float32_and_a_warm_start_keeps_its_dtype(self, tiny_dataset):
        ds, vocab, tr, va, _ = tiny_dataset
        config = TrainConfig(variant="dstn-s", epochs=1, seed=4, fc_dims=(8, 4),
                             embedding_dim=3, attention_dim=4)
        fresh, _ = train(config, tr[:300], va[:50], ds.schemas, vocab)
        assert {arr.dtype for arr in fresh.tensors.values()} == {np.dtype(np.float32)}
        for dtype in (np.float64, np.float32):
            warm, _ = train(config, tr[:300], va[:50], ds.schemas, vocab,
                            initial=fresh.astype(dtype))
            assert {arr.dtype for arr in warm.tensors.values()} == {np.dtype(dtype)}

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_embedding_row_fails_fast_naming_epoch_and_batch(self, tiny_dataset):
        ds, vocab, tr, va, _ = tiny_dataset
        config = TrainConfig(variant="dnn", epochs=1, seed=4, batch_size=32, fc_dims=(8, 4),
                             embedding_dim=3)
        examples = tr[:300]
        model = init_model(Variant.DNN, ds.schemas, vocab.size, make_rng(9), k=3,
                           fc_dims=(8, 4))
        row = examples[123].target.indices[2][0]  # the ad_id feature of one example
        model.tensors["emb.E"][row, 1] = np.nan
        # a warm start draws nothing from the seed's stream before the shuffle
        perm = make_rng(config.seed).permutation(len(examples))
        first = min(pos for pos, i in enumerate(perm)
                    if any(row in idx for idx in examples[i].target.indices))
        with pytest.raises(NonFiniteError,
                           match=f"^epoch 0, batch {first // 32}: non-finite loss$"):
            train(config, examples, va[:50], ds.schemas, vocab, initial=model)

    def test_config_file_with_an_unknown_key_is_refused_naming_file_and_key(self, tmp_path):
        path = tmp_path / "train.json"
        path.write_text('{"epochs": 2, "fc_dims": [8, 4]}', encoding="utf-8")
        config = TrainConfig.from_json(path, variant="dnn")
        assert (config.epochs, config.fc_dims, config.variant) == (2, (8, 4), "dnn")
        with pytest.raises(ValueError, match=r"unknown TrainConfig key\(s\) \['epoch'\]"):
            TrainConfig.from_json(path, epoch=3)
        path.write_text('{"epochs": 2, "patience": 2}', encoding="utf-8")
        with pytest.raises(ValueError,
                           match=r"train\.json: unknown TrainConfig key\(s\) \['patience'\]"):
            TrainConfig.from_json(path)

    @pytest.mark.parametrize("key, value", [
        ("batch_size", 0), ("embedding_dim", 0), ("attention_dim", -1),
        ("fc_dims", ()), ("fc_dims", (8, 0)),
    ])
    def test_a_size_below_one_is_refused_naming_the_key(self, tmp_path, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            TrainConfig(**{key: value})
        path = tmp_path / "train.json"
        path.write_text(f'{{"{key}": {list(value) if key == "fc_dims" else value}}}',
                        encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{key} must be"):
            TrainConfig.from_json(path)
        if key == "fc_dims":  # the model builder refuses the same widths
            schemas = toy_schemas()
            for variant in Variant:
                with pytest.raises(ValueError, match="^fc_dims must be"):
                    init_model(variant, schemas, 10, make_rng(0), fc_dims=value)

    def test_defaults_are_the_reference_operating_point(self):
        config = TrainConfig()
        assert config.batch_size == 128
        assert config.dropout == 0.5
        assert config.embedding_dim == 10
        assert config.fc_dims == (512, 256)
        assert config.attention_dim == 128
        assert config.embedding_l2 == 2.0


def _assert_batches_equal(got, want):
    """Array for array, dtypes included."""
    pairs = [(got.labels, want.labels), (got.target.offsets, want.target.offsets),
             (got.target.indices, want.target.indices)]
    assert got.aux.keys() == want.aux.keys()
    for group, (offsets, ads) in got.aux.items():
        assert ads.n_fields == want.aux[group][1].n_fields
        pairs += [(offsets, want.aux[group][0]), (ads.offsets, want.aux[group][1].offsets),
                  (ads.indices, want.aux[group][1].indices)]
    for a, b in pairs:
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


class TestAblation:
    def test_keeps_only_requested_group(self, tiny_dataset):
        ds, _, tr, *_ = tiny_dataset
        batch = encode_examples(tr, ds.schemas)
        kept = batch.ablate("clicked")
        (offsets, ads), (want_offsets, want_ads) = kept.aux["clicked"], batch.aux["clicked"]
        np.testing.assert_array_equal(offsets, want_offsets)
        np.testing.assert_array_equal(ads.offsets, want_ads.offsets)
        np.testing.assert_array_equal(ads.indices, want_ads.indices)
        for group in ("contextual", "unclicked"):
            offsets, ads = kept.aux[group]
            assert not offsets.any() and len(offsets) == len(tr) + 1 and len(ads) == 0

    @pytest.mark.parametrize("groups", [AUX_GROUPS, ()], ids=["all-groups", "target-only"])
    @pytest.mark.parametrize("keep", AUX_GROUPS)
    def test_equals_encoding_the_reference_ablated_lists(self, tiny_dataset, keep, groups):
        ds, _, tr, *_ = tiny_dataset
        _assert_batches_equal(encode_examples(tr, ds.schemas, groups).ablate(keep),
                              encode_examples(reference_ablate(tr, keep), ds.schemas, groups))

    def test_unknown_group_rejected(self, tiny_dataset, monkeypatch):
        ds, vocab, tr, va, _ = tiny_dataset
        with pytest.raises(ValueError, match="unknown auxiliary group 'target'"):
            encode_examples(tr[:10], ds.schemas).ablate("target")

        def no_encoding(*args):
            raise AssertionError("encoded before refusing the group")

        monkeypatch.setattr(train_eval, "encode_batch", no_encoding)
        with pytest.raises(ValueError, match="unknown auxiliary group 'target'"):
            train(TrainConfig(variant="dstn-i", ablate="target"), tr[:10], va[:10],
                  ds.schemas, vocab)

    @pytest.mark.parametrize("keep", AUX_GROUPS)
    def test_training_with_ablate_equals_training_on_reference_ablated_lists(
            self, tiny_dataset, tmp_path, keep):
        ds, vocab, tr, va, _ = tiny_dataset
        config = TrainConfig(variant="dstn-i", epochs=1, seed=4, fc_dims=(8, 4),
                             embedding_dim=3, attention_dim=4)
        runs = {"ablate": (dataclasses.replace(config, ablate=keep), tr[:300], va[:50]),
                "reference": (config, reference_ablate(tr[:300], keep),
                              reference_ablate(va[:50], keep))}
        histories = {}
        for name, (cfg, train_set, val_set) in runs.items():
            model, histories[name] = train(cfg, train_set, val_set, ds.schemas, vocab)
            save_model(tmp_path / name, model, schemas_hash(ds.schemas), vocab.content_hash())
        assert histories["ablate"] == histories["reference"]  # validation AUCs included
        assert (tmp_path / "ablate").read_bytes() == (tmp_path / "reference").read_bytes()

    def test_average_aux_count(self, tiny_dataset):
        ds, _, tr, *_ = tiny_dataset
        manual = sum(len(ex.clicked) for ex in tr) / len(tr)
        assert average_aux_count(encode_examples(tr, ds.schemas), "clicked") == manual


class TestEmbeddingPenalty:
    def test_row_scales_divide_by_target_counts(self):
        schemas, vocab, _ = _separable_problem()
        scales = embedding_row_scales(vocab, 3.0)
        assert scales[vocab.lookup("f", "pos")] == pytest.approx(3.0 / 40)
        assert scales[vocab.oov("f")] == pytest.approx(3.0)  # count 0 floored at 1

    def test_hand_arithmetic(self, toy_problem):
        schemas, vocab, _ = toy_problem
        model = init_model(Variant.DNN, schemas, vocab.size, make_rng(0), k=2,
                           fc_dims=(4,), attention_dim=2, dropout_p=0.0)
        model.tensors["emb.E"][3] = [1.0, -2.0]
        model.tensors["emb.E"][5] = [0.5, 0.0]
        scales = np.zeros(vocab.size)
        scales[3], scales[5] = 0.5, 4.0
        value, grad = embedding_penalty(model, np.array([3, 5]), scales)
        # 0.5/2 * (1 + 4) + 4/2 * 0.25
        assert value == pytest.approx(1.25 + 0.5)
        np.testing.assert_allclose(grad, [[0.5, -1.0], [2.0, 0.0]])

    def test_training_pulls_touched_rows_toward_zero(self, tiny_dataset):
        ds, vocab, tr, va, _ = tiny_dataset
        config = TrainConfig(variant="dnn", epochs=1, seed=4, fc_dims=(8, 4),
                             embedding_dim=3)
        plain, _ = train(dataclasses.replace(config, embedding_l2=0.0), tr[:300], va[:50],
                         ds.schemas, vocab)
        penalized, _ = train(config, tr[:300], va[:50], ds.schemas, vocab)
        assert not np.array_equal(plain.tensors["emb.E"], penalized.tensors["emb.E"])
        assert np.abs(penalized.tensors["emb.E"]).sum() < np.abs(plain.tensors["emb.E"]).sum()


class TestAttentionDump:
    """predict's attention rows (what ``eval --dump-attention`` writes)
    against per-example weights from the per-ad-list aggregation."""

    @pytest.mark.parametrize("variant", ["dstn-s", "dstn-i"])
    def test_rows_equal_per_example_weights_in_ad_order(self, toy_problem, variant):
        schemas, vocab, examples = toy_problem
        model = init_model(Variant(variant), schemas, vocab.size, make_rng(40), k=4,
                           fc_dims=(6, 3), attention_dim=5)
        model.tensors["emb.E"] *= 100.0  # weights well away from uniform
        _, rows = predict(model, examples, batch_size=5, collect_attention=True)

        want = []
        for i, ex in enumerate(examples):
            x_t = embed_instance(ex.target, model.tensors["emb.E"], schemas["target"])
            for group in AUX_GROUPS:
                ads = [embed_instance(a, model.tensors["emb.E"], schemas[group])
                       for a in getattr(ex, group)]
                if not ads:
                    continue
                if variant == "dstn-s":
                    _, alpha = aggregate_self_attention(ads, _attention(model, group))
                else:
                    _, alpha = aggregate_interactive_attention(
                        InstanceEmbedding("target", x_t.vector), ads, _attention(model, group))
                want.extend((i, group, j, w) for j, w in enumerate(alpha))
        assert [r[:3] for r in rows] == [w[:3] for w in want]
        np.testing.assert_allclose([r[3] for r in rows], [w[3] for w in want],
                                   rtol=1e-12, atol=0)
        assert len({round(r[3], 6) for r in rows}) > len(AUX_GROUPS)  # not all alike


class TestGradCheck:
    @pytest.mark.parametrize("variant", [v.value for v in Variant])
    def test_all_variants_pass(self, variant):
        report = grad_check(variant, tolerance=1e-4)
        assert report.passed, report.format_lines()

    def test_report_lists_every_tensor(self):
        report = grad_check("dstn-s", tolerance=1e-4)
        names = set(report.max_rel_err)
        assert "emb.E" in names and "fusion.W" in names
        assert any(n.startswith("attn.contextual.") for n in names)


def test_eval_report_formats():
    report = EvalReport(auc=0.75, logloss=0.5, n=100, variant="dnn")
    assert report.format_line() == "auc=0.750000 logloss=0.500000 n=100"
    assert "variant=dnn" in report.kv_text()
